"""Command-line surface: documented outputs, exit codes, file formats."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from diffalg.cli import main
from diffalg.instances import (
    InstanceFormatError,
    build_axiom_instance,
    fixture_path,
    load_instance_file,
    parse_instance_text,
)

FIX = {
    name: str(fixture_path(name))
    for name in (
        "coherent-pair.sys",
        "incoherent-pair.sys",
        "nonprime-square.sys",
        "basic.axiom",
        "exhaustion.axiom",
        "square-naive.demo",
        "linear-flow.demo",
    )
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestDocumentedExamples:
    def test_tau_prints_prolongation(self, capsys):
        code, out = run(capsys, "tau", "x1^2", "--m", "1", "--n", "1")
        assert code == 0
        assert out.splitlines()[0] == "2*x1*y1"

    def test_certify_coherent_pair(self, capsys):
        code, out = run(capsys, "certify", FIX["coherent-pair.sys"])
        assert code == 0
        assert "status: certified" in out

    def test_axiom_witness_basic(self, capsys):
        code, out = run(capsys, "axiom", "witness", FIX["basic.axiom"])
        assert code == 0
        assert "witness: x1 := t2" in out


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["reduce", "x1"]) == 1  # no system given

    def test_unknown_flag_is_one(self):
        assert main(["tau", "x1", "--frobnicate"]) == 1

    def test_rejections_are_two(self, capsys):
        code, _ = run(capsys, "certify", FIX["incoherent-pair.sys"])
        assert code == 2
        code, _ = run(capsys, "certify", FIX["nonprime-square.sys"])
        assert code == 2
        code, _ = run(capsys, "axiom", "witness", FIX["exhaustion.axiom"])
        assert code == 2
        code, _ = run(capsys, "member", "1", "x1", "--vars", "x1", "--m", "0")
        assert code == 2

    def test_failed_reverification_is_three(self, capsys, monkeypatch):
        from diffalg.reduction import ReductionCertificate

        monkeypatch.setattr(ReductionCertificate, "verify", lambda self, system: False)
        code = main(["reduce", "d1 d1 x1", "--system", "d1 x1 - x1", "--m", "1", "--n", "1"])
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "internal error: reduction certificate failed re-verification\n"

    def test_deep_nesting_is_input_error(self, capsys):
        assert main(["tau", "(" * 3000 + "x1" + ")" * 3000, "--m", "1", "--n", "1"]) == 1
        assert capsys.readouterr().err == (
            "error: expression nested too deeply (at position 0)\n")

    def test_demo_exit_codes(self, capsys):
        code, out = run(capsys, "demo", "naive-vs-tau", FIX["square-naive.demo"])
        assert code == 0 and "status: found" in out
        code, out = run(capsys, "demo", "naive-vs-tau", FIX["linear-flow.demo"],
                        "--samples", "10")
        assert code == 2 and "not_found_at_bounds" in out
        assert "violations: 0" in out


class TestReports:
    def test_reduce_report_with_check(self, capsys):
        code, out = run(capsys, "reduce", "d1 d1 x1",
                        "--system", "d1 x1 - x1", "--m", "1", "--n", "1", "--check")
        assert code == 0
        assert "remainder: x1" in out
        assert "certificate identity: verified by re-expansion" in out

    def test_machine_mode_prints_only_trailer(self, capsys):
        code, out = run(capsys, "hprod", "--system", "x1^2 - 1",
                        "--m", "1", "--n", "1", "--machine")
        assert code == 0
        assert out.startswith("---")
        assert "h: 2*x1" in out

    def test_trailer_echoes_seed(self, capsys):
        code, out = run(capsys, "prime", "x1^2 + 1", "--vars", "x1",
                        "--m", "0", "--seed", "17")
        assert code == 0
        assert "seed: 17" in out

    def test_coherent_report(self, capsys):
        code, out = run(capsys, "coherent", "--system-file", FIX["incoherent-pair.sys"])
        assert code == 2
        assert "remainder -1" in out

    def test_groebner_round_trip(self, capsys):
        from diffalg import RingContext, parse_poly

        code, out = run(capsys, "groebner", "x1^2 - 1; x1*x2 - 1",
                        "--vars", "x1, x2", "--order", "lex", "--m", "0", "--n", "2")
        assert code == 0
        ring = RingContext(m=0, n=2)
        lines = [l for l in out.splitlines() if l and not l.startswith("---")
                 and ":" not in l]
        assert {parse_poly(l, ring) for l in lines} == {
            parse_poly("x1 - x2", ring), parse_poly("x2^2 - 1", ring)
        }

    def test_eliminate_and_saturate(self, capsys):
        code, out = run(capsys, "eliminate", "x1*x2 - 1; x1", "--vars", "x1, x2",
                        "--drop", "x2", "--m", "0", "--n", "2")
        assert code == 0 and "1" in out
        code, out = run(capsys, "saturate", "x1*x2", "--vars", "x1, x2",
                        "--by", "x1", "--m", "0", "--n", "2")
        assert code == 0 and "x2" in out

    def test_member_with_t_denominator(self, capsys):
        code, out = run(capsys, "member", "x1", "t1*x1 - 1", "--vars", "x1",
                        "--m", "0", "--n", "1", "--field", "rational_t")
        assert code == 2
        assert out.splitlines() == [
            "member: no", "normal form: (1) / (t1)", "---",
            "status: not-member", "normal_form: (1) / (t1)", "exit: 2",
        ]
        code, out = run(capsys, "member", "x3 + x1*x2", "t1*x1 - 1; (t1 + 1)*x2 - 3",
                        "--vars", "x1, x2, x3", "--m", "1", "--n", "3", "--field", "rational_t")
        assert code == 2
        assert "normal form: ((t1^2 + t1)*x3 + 3) / (t1^2 + t1)" in out

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_hprod_of_empty_system_is_one(self, tmp_path, capsys, source):
        if source == "flag":
            argv = ["hprod", "--system", ";", "--m", "1", "--n", "1"]
        else:
            path = tmp_path / "empty.sys"
            path.write_text("[ring] m=1 n=1\n", encoding="utf-8")
            argv = ["hprod", "--system-file", str(path)]
        code, out = run(capsys, *argv)
        assert code == 0
        assert out.splitlines() == ["1", "---", "status: ok", "h: 1", "exit: 0"]

    def test_tau_check_point(self, capsys):
        code, out = run(capsys, "tau", "x1^2", "--m", "1", "--n", "1",
                        "--field", "rational_t", "--check-point", "x1=t2")
        assert code == 0
        assert "chain rule: ok" in out

    def test_axiom_validate_and_project(self, capsys):
        code, out = run(capsys, "axiom", "validate", FIX["basic.axiom"])
        assert code == 0 and "status: valid" in out
        code, out = run(capsys, "axiom", "project", FIX["basic.axiom"])
        assert code == 0 and "projection covers the open set" in out


class TestInstanceFiles:
    def test_round_trip_sections(self):
        data = load_instance_file(FIX["basic.axiom"])
        assert data.ring.m == 1 and data.ring.n == 1
        assert len(data.lam) == 1 and len(data.w_gens) == 3
        assert data.bounds == {"order": 2, "degree": 1, "height": 1}
        inst = build_axiom_instance(data)
        assert inst.order_bound == 2

    def test_missing_ring_rejected(self):
        with pytest.raises(InstanceFormatError):
            parse_instance_text("[lambda]\nx1\n")

    def test_poly_outside_section_rejected(self):
        with pytest.raises(InstanceFormatError):
            parse_instance_text("[ring] m=1 n=1\nx1\n")

    def test_bad_poly_reports_line(self):
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance_text("[ring] m=1 n=1\n[lambda]\nx7\n")
        assert "line 3" in str(exc.value)

    def test_unknown_section_rejected(self):
        with pytest.raises(InstanceFormatError):
            parse_instance_text("[ring] m=1 n=1\n[bogus]\n")

    def test_comments_and_blanks_ignored(self):
        data = parse_instance_text(
            "# header\n[ring] m=1 n=1\n\n[lambda]\n# not a poly\nx1\n"
        )
        assert len(data.lam) == 1


class TestHeaderKeys:
    @pytest.mark.parametrize("old, new, message", [
        ("order=2 degree=1 height=1", "order=2 degre=0 hieght=-5",
         "line 10: [bounds] has unknown key 'degre' (allowed: order, degree, height)"),
        ("order=2 degree=1 height=1", "order=2 degree=abc height=1",
         "line 10: [bounds] degree must be an integer, got 'abc'"),
        ("order=2 degree=1 height=1", "order=2 degree=1 degree=2",
         "line 10: [bounds] repeats key 'degree'"),
        ("order=2 degree=1 height=1", "order=2 degree",
         "line 10: [bounds] expects key=value, got 'degree'"),
        ("m=1 n=1 field=rational_t", "m=1 n=1 feild=rational_t",
         "line 2: [ring] has unknown key 'feild' (allowed: m, n, field, ranking)"),
        ("m=1 n=1 field=rational_t", "m=one n=1 field=rational_t",
         "line 2: [ring] m must be an integer, got 'one'"),
        ("m=1 n=1 field=rational_t", "n=1 field=rational_t",
         "line 2: [ring] is missing 'm'"),
        ("m=1 n=1 field=rational_t", "m=1 n=1 field=rational",
         "line 2: unknown field mode 'rational'"),
        ("m=1 n=1 field=rational_t", "m=1 n=1 field=rational_t ranking=elimination:a",
         "line 2: elimination ranking needs comma-separated indices, got 'a'"),
        ("m=1 n=1 field=rational_t", "m=1 n=1 field=rational_t ranking=elimination:2,1",
         "line 2: elimination ranking must permute 1..1"),
    ], ids=["bounds-unknown-key", "bounds-not-int", "bounds-repeat", "bounds-no-value",
            "ring-unknown-key", "ring-not-int", "ring-missing-m", "ring-bad-field",
            "ring-ranking-not-int", "ring-ranking-short"])
    def test_bad_header_is_one_line_error(self, tmp_path, capsys, old, new, message):
        text = open(FIX["basic.axiom"], encoding="utf-8").read()
        assert old in text
        path = tmp_path / "bad.axiom"
        path.write_text(text.replace(old, new), encoding="utf-8")
        assert main(["axiom", "witness", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"


class TestSearchBounds:
    @pytest.mark.parametrize("argv, name", [
        (["axiom", "witness", FIX["basic.axiom"], "--height", "-2"], "height"),
        (["axiom", "witness", FIX["basic.axiom"], "--degree", "-1"], "degree"),
        (["axiom", "validate", FIX["basic.axiom"], "--degree", "0"], "degree"),
        (["demo", "naive-vs-tau", FIX["square-naive.demo"], "--samples", "-3"], "samples"),
        (["demo", "naive-vs-tau", FIX["square-naive.demo"], "--members", "0"], "members"),
        (["demo", "naive-vs-tau", FIX["square-naive.demo"], "--height", "0"], "height"),
        (["prime", "x1^2 + 1", "--vars", "x1", "--m", "0", "--degree-bound", "0"],
         "factor_degree"),
        (["prime", "x1^2 + 1", "--vars", "x1", "--m", "0", "--height-bound", "-1"],
         "factor_height"),
    ])
    def test_flag_below_one_is_usage_error(self, capsys, argv, name):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"usage error: {name} must be positive\n"

    @pytest.mark.parametrize("bounds, name", [
        ("order=0 degree=1 height=1", "order_bound"),
        ("order=2 degree=0 height=1", "degree"),
        ("order=2 degree=1 height=-1", "height"),
    ])
    def test_file_bound_below_one_is_usage_error(self, tmp_path, capsys, bounds, name):
        text = open(FIX["basic.axiom"], encoding="utf-8").read()
        path = tmp_path / "bad.axiom"
        path.write_text(text.replace("order=2 degree=1 height=1", bounds), encoding="utf-8")
        for flags in ([], ["--degree", "1", "--height", "1"]):
            assert main(["axiom", "witness", str(path), *flags]) == 1
            assert capsys.readouterr().err == f"usage error: {name} must be positive\n"

    def test_flag_overrides_file_bound(self, capsys):
        code, out = run(capsys, "axiom", "witness", FIX["exhaustion.axiom"],
                        "--height", "2", "--machine")
        assert code == 2
        assert "examined: 125" in out and "height: 2" in out


class TestRankingSpec:
    def test_bad_flag_is_usage_error(self, capsys):
        code = main(["reduce", "x1", "--system", "d1 x1", "--m", "1", "--n", "1",
                     "--ranking", "bogus"])
        assert code == 1
        assert capsys.readouterr().err == "usage error: unknown ranking 'bogus'\n"

    def test_elimination_flag_needs_permutation(self, capsys):
        code = main(["hprod", "--system", "x1^2 - 1", "--m", "1", "--n", "1",
                     "--ranking", "elimination"])
        assert code == 1
        assert capsys.readouterr().err == (
            "usage error: elimination ranking needs a permutation, e.g. elimination:2,1\n")

    @pytest.mark.parametrize("spec, message", [
        ("elimination:a", "elimination ranking needs comma-separated indices, got 'a'"),
        ("elimination:1", "elimination ranking must permute 1..2"),
        ("elimination:1,2,3", "elimination ranking must permute 1..2"),
    ])
    def test_bad_elimination_flag_is_one_line(self, capsys, spec, message):
        code = main(["coherent", "--system", "d1 x1; d1 x2", "--m", "1", "--n", "2",
                     "--ranking", spec])
        assert code == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"

    @pytest.mark.parametrize("command", [
        ["groebner", "x1^2 - 1", "--vars", "x1", "--m", "0"],
        ["prime", "x1^2 + 1", "--vars", "x1", "--m", "0"],
        ["certify", FIX["coherent-pair.sys"]],
    ])
    def test_flag_only_on_commands_that_read_it(self, capsys, command):
        assert main([*command, "--ranking", "orderly"]) == 1
        assert "unrecognized arguments: --ranking" in capsys.readouterr().err

    def test_bad_file_ranking_is_format_error(self, tmp_path, capsys):
        with pytest.raises(InstanceFormatError, match="unknown ranking 'bogus'"):
            parse_instance_text("[ring] m=1 n=1 ranking=bogus\n[lambda]\nx1\n")
        path = tmp_path / "bad.sys"
        path.write_text("[ring] m=1 n=1 ranking=elimination:1,1\n[lambda]\nx1\n",
                        encoding="utf-8")
        assert main(["certify", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: line 1: elimination ranking needs a permutation of 1..n\n")
        path.write_text("[ring] m=1 n=2 ranking=elimination:1\n[lambda]\nd1 x1\n",
                        encoding="utf-8")
        assert main(["certify", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: line 1: elimination ranking must permute 1..2\n")


class TestReentrance:
    """main() parses with one argparse tree per process; no call leaks into the next."""

    def test_same_argv_same_output(self, capsys):
        argv = ["axiom", "witness", FIX["exhaustion.axiom"]]
        first = run(capsys, *argv)
        assert first[0] == 2 and "candidate x1 := 0: failed" in first[1]
        assert run(capsys, *argv) == first

    def test_usage_error_then_valid_call(self, capsys):
        assert main(["tau", "x1", "--frobnicate"]) == 1
        assert "unrecognized arguments: --frobnicate" in capsys.readouterr().err
        code, out = run(capsys, "tau", "x1^2", "--m", "1", "--n", "1")
        assert code == 0 and out.splitlines()[0] == "2*x1*y1"

    def test_no_flag_default_sticks(self, capsys):
        code, out = run(capsys, "axiom", "witness", FIX["exhaustion.axiom"],
                        "--degree", "2", "--machine")
        assert code == 2 and "examined: 729" in out and "degree: 2" in out
        code, out = run(capsys, "axiom", "witness", FIX["exhaustion.axiom"], "--machine")
        assert code == 2 and "examined: 27" in out and "degree: 1" in out


class _ClosedPipe:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


class TestOutputAndInput:
    @pytest.mark.parametrize("argv", [
        ["axiom", "witness", FIX["exhaustion.axiom"]],
        ["coherent", "--system", "x1; x1^2", "--m", "1", "--n", "1"],  # rejected
    ])
    def test_broken_pipe_ends_quietly(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_module_entry_point_into_head(self):
        # `python -m diffalg ... | head -2`: the reader closes after two lines
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "diffalg", "axiom", "witness", FIX["exhaustion.axiom"],
             "--degree", "2", "--height", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        head = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert head == [b"status: exhausted\n", b"candidates examined: 15625\n"]
        assert err == b""

    def test_unreadable_input_is_one_line_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.axiom"
        assert main(["axiom", "witness", str(missing)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"

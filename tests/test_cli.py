"""Command-line surface: documented outputs, exit codes, file formats."""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from diffalg import axioms
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

    def test_a_rejected_member_candidate_is_three(self, capsys, monkeypatch):
        real = axioms.sat_ideal_member
        calls = []

        def reject_the_third(g, cert):
            calls.append(g)
            ok, rc = real(g, cert)
            return (ok and len(calls) != 3), rc

        monkeypatch.setattr(axioms, "sat_ideal_member", reject_the_third)
        code = main(["demo", "naive-vs-tau", FIX["square-naive.demo"]])
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("internal error: member ") and err.endswith(
            " of [L] failed re-verification\n")

    def test_failed_saturation_self_check_is_three(self, capsys, monkeypatch):
        from diffalg import algebra

        monkeypatch.setattr(algebra, "_buchberger", lambda gens, key: [g for g in gens if g])
        code = main(["saturate", "x1*x2", "--vars", "x1, x2", "--by", "x1", "--m", "0",
                     "--n", "2"])
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("internal error:")

    def test_dropped_basis_element_is_three(self, capsys, monkeypatch):
        from diffalg import algebra

        interreduce = algebra._interreduce
        monkeypatch.setattr(algebra, "_interreduce", lambda G, key: interreduce(G, key)[1:])
        code = main(["groebner", "x1; x2", "--vars", "x1, x2", "--m", "0", "--n", "2"])
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("internal error: an input generator does not reduce to zero "
                       "by the emitted basis\n")

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

    def test_axiom_validate_honours_seed(self, tmp_path, capsys):
        # the zero-divisor probe of seed 4 finds (-x1 + 1) * (-2*x1 - 2); seed 0 does not
        path = tmp_path / "seeded.axiom"
        path.write_text(
            "[ring] m=1 n=2 field=rational_t\n"
            "[lambda]\nx1^2 - 1\nx2^2 - x1\n"
            "[W]\nx1^2 - 1\nx2^2 - x1\n2*x1*y1\n2*x2*y2 - y1\n"
            "[bounds] order=1 degree=1 height=1\n",
            encoding="utf-8",
        )
        code, out = run(capsys, "certify", str(path), "--seed", "4")
        assert code == 2
        assert "zero-divisor witness: (-x1 + 1) * (-2*x1 - 2)" in out
        code, out = run(capsys, "axiom", "validate", str(path), "--seed", "4")
        assert code == 2
        assert out.startswith("status: rejected\n")
        assert "seed: 4" in out
        code, out = run(capsys, "axiom", "validate", str(path))
        assert code == 0
        assert out.startswith("status: valid\n")

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

    @pytest.mark.parametrize("source", ["flag", "empty-flag", "file"])
    def test_hprod_of_empty_system_is_one(self, tmp_path, capsys, source):
        if source == "flag":
            argv = ["hprod", "--system", ";", "--m", "1", "--n", "1"]
        elif source == "empty-flag":
            argv = ["hprod", "--system", "", "--m", "1", "--n", "1"]
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

    def test_axiom_project_prolongs_w(self, tmp_path, capsys):
        """delta1(y1 - t1*x1) = d1y1 - x1 - t1*d1x1, so x1 vanishes on W once
        d1y1 and d1x1 do: the projection is one point, not dense in V(d1x1)."""
        path = tmp_path / "prolonged.axiom"
        path.write_text("[ring] m=1 n=1 field=rational_t\n[lambda]\nd1x1\n"
                        "[W]\nd1x1\nd1y1\ny1 - t1*x1\n"
                        "[bounds] order=2 degree=1 height=1\n", encoding="utf-8")
        with mock.patch.object(axioms, "saturate", wraps=axioms.saturate) as saturate:
            code, out = run(capsys, "axiom", "project", str(path))
        assert code == 2
        lines = out.splitlines()
        assert "eliminant x1: remainder x1" in lines
        assert "projection misses the open set" in lines
        assert "status: rejected" in lines
        assert saturate.called  # x1 is outside (d1x1):H^inf, not only unreduced

    def test_axiom_project_decides_membership_beyond_reduction(self, tmp_path, capsys):
        """Lambda is no regular chain: x1 - 1 is a zero divisor modulo x1^2 - 1.
        x1 + 1 is in (Lambda), so in [Lambda]:H^inf, though it reduces to itself."""
        path = tmp_path / "non-regular.axiom"
        path.write_text("[ring] m=1 n=2\n[lambda]\nx1^2 - 1\n(x1 - 1)*x2 + 2\n"
                        "[W]\nx1 + 1\nx2 - 1\ny1\ny2\n"
                        "[bounds] order=1 degree=1 height=1\n", encoding="utf-8")
        with mock.patch.object(axioms, "saturate", wraps=axioms.saturate) as saturate:
            code, out = run(capsys, "axiom", "project", str(path))
        assert code == 0
        assert out == ("surrogate order bound: 1\n"
                       "eliminant x1 + 1: remainder x1 + 1\n"
                       "eliminant x2 - 1: remainder -x1 - 1\n"
                       "eliminant d1x1: remainder 0\n"
                       "eliminant d1x2: remainder 0\n"
                       "projection covers the open set\n"
                       "---\nstatus: ok\norder_bound: 1\nexit: 0\n")
        # both nonzero remainders are decided against one saturation
        assert saturate.call_count == 1

    @pytest.mark.parametrize("argv", [
        ["axiom", "project", "basic.axiom"],
        ["axiom", "project", "exhaustion.axiom"],
        ["demo", "naive-vs-tau", "square-naive.demo"],
    ], ids=lambda argv: argv[-1])
    def test_the_fixtures_reduce_every_member_to_zero(self, capsys, argv):
        """Every membership the fixtures ask is proved by a zero full
        remainder, so none of them computes a saturation."""
        with mock.patch.object(axioms, "saturate", wraps=axioms.saturate) as saturate:
            code, _ = run(capsys, *argv[:-1], FIX[argv[-1]])
        assert code == 0
        assert not saturate.called


class TestFlagSurface:
    """Every flag a command accepts can change its run."""

    @pytest.mark.parametrize("argv", [
        ["tau", "x1^2", "--m", "1", "--n", "1", "--seed", "9"],
        ["reduce", "x1", "--system", "d1 x1", "--seed", "9"],
        ["coherent", "--system", "d1 x1", "--seed", "9"],
        ["hprod", "--system", "x1^2 - 1", "--seed", "9"],
        ["groebner", "x1", "--vars", "x1", "--m", "0", "--seed", "9"],
        ["member", "x1", "x1", "--vars", "x1", "--m", "0", "--seed", "9"],
        ["eliminate", "x1*x2 - 1", "--vars", "x1, x2", "--drop", "x2", "--m", "0", "--n", "2",
         "--seed", "9"],
        ["saturate", "x1*x2", "--vars", "x1, x2", "--by", "x1", "--m", "0", "--n", "2",
         "--seed", "9"],
        ["eliminate", "x1*x2 - 1", "--vars", "x1, x2", "--drop", "x2", "--m", "0", "--n", "2",
         "--order", "lex"],
        ["saturate", "x1*x2", "--vars", "x1, x2", "--by", "x1", "--m", "0", "--n", "2",
         "--order", "lex"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_removed_flag_is_usage_error(self, capsys, argv):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"usage error: unrecognized arguments: {argv[-2]} {argv[-1]}\n"

    @pytest.mark.parametrize("argv", [
        ["certify", FIX["coherent-pair.sys"], "--seed", "3"],
        ["demo", "naive-vs-tau", FIX["square-naive.demo"], "--seed", "3"],
    ])
    def test_seeded_commands_echo_seed(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 0
        assert out.endswith("seed: 3\n")

    def test_system_and_system_file_exclude_each_other(self, capsys):
        assert main(["hprod", "--system", "x1", "--system-file",
                     FIX["coherent-pair.sys"]]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "not allowed with argument" in err

    @pytest.mark.parametrize("flags", [
        ["--m", "5"], ["--n", "2"], ["--field", "rational_t"], ["--ranking", "elimination:1"],
        ["--m", "1", "--field", "constants"],
    ], ids=lambda flags: "".join(flags[::2]))
    def test_ring_flags_are_rejected_with_system_file(self, capsys, flags):
        assert main(["hprod", "--system-file", FIX["coherent-pair.sys"], *flags]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        given = ", ".join(flags[::2])
        assert err == (f"usage error: {given}: not allowed with --system-file, "
                       "whose [ring] line sets them\n")

    def test_ring_flag_defaults_hold_without_them(self, capsys):
        assert run(capsys, "hprod", "--system", "x1^2 - 1") == run(
            capsys, "hprod", "--system", "x1^2 - 1", "--m", "1", "--n", "1",
            "--field", "constants", "--ranking", "orderly")

    def test_system_source_is_required(self, capsys):
        assert main(["coherent", "--m", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "one of the arguments --system --system-file is required" in err


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
        ("order=2 degree=1 height=1", "order=2 degree=2\n[bounds] height=1",
         "line 11: [bounds] already given on line 10"),
        ("m=1 n=1 field=rational_t", "m=1 n=1 field=rational_t\n[ring] m=1 n=1",
         "line 3: [ring] already given on line 2"),
    ], ids=["bounds-unknown-key", "bounds-not-int", "bounds-repeat", "bounds-no-value",
            "ring-unknown-key", "ring-not-int", "ring-missing-m", "ring-bad-field",
            "ring-ranking-not-int", "ring-ranking-short", "bounds-second-header",
            "ring-second-header"])
    def test_bad_header_is_one_line_error(self, tmp_path, capsys, old, new, message):
        text = Path(FIX["basic.axiom"]).read_text(encoding="utf-8")
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
        text = Path(FIX["basic.axiom"]).read_text(encoding="utf-8")
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


class TestPrime:
    def test_t_denominator_witness_prints(self, capsys):
        code, out = run(capsys, "prime", "2 + t1*x2 + 2*x1; x1^2", "--vars", "x1, x2",
                        "--m", "1", "--n", "2", "--field", "rational_t")
        assert code == 2
        assert "witness: ((t1*x2 + 2) / (t1)) * (t1*x2 + 2)" in out.splitlines()

    def test_primality_cannot_be_asserted(self, capsys):
        argv = ["prime", "(x1^3+x1+1)*(x1^3+2)", "--vars", "x1", "--m", "0"]
        assert main([*argv, "--assert-prime"]) == 1
        assert "unrecognized arguments: --assert-prime" in capsys.readouterr().err
        code, out = run(capsys, *argv)
        assert code == 2 and out.splitlines()[0] == "status: unknown"


class TestExponentWidth:
    """The Groebner backend packs each monomial into one int whose field width
    comes from the input and doubles when an exponent outgrows it. The texts
    below were printed by the exponent-tuple backend it replaced."""

    @staticmethod
    def _count_widening(monkeypatch):
        from diffalg import sparse

        wider, widths = sparse.Packing.wider, []
        monkeypatch.setattr(sparse.Packing, "wider",
                            lambda self: widths.append(self.width) or wider(self))
        return widths

    @pytest.mark.parametrize("order", ["grevlex", "lex"])
    def test_huge_exponent_basis(self, capsys, order):
        code, out = run(capsys, "groebner", "x1^99999999999 - x2; x2^2 - 1", "--vars", "x1, x2",
                        "--n", "2", "--m", "0", "--order", order)
        assert code == 0
        assert out == ("x2^2 - 1\nx1^99999999999 - x2\n---\nstatus: ok\nsize: 2\n"
                       f"order: {order}\nexit: 0\n")

    def test_lex_elimination_outgrows_the_input_width(self, capsys, monkeypatch):
        # exponents up to 12 get 7-bit fields; x1^12 -> x2^144 does not fit
        widths = self._count_widening(monkeypatch)
        code, out = run(capsys, "eliminate", "x1 - x2^12; x3 - x1^12", "--drop", "x1",
                        "--vars", "x1, x2, x3", "--n", "3", "--m", "0")
        assert (code, out) == (0, "x2^144 - x3\n---\nstatus: ok\nsize: 1\nexit: 0\n")
        assert widths == [8]

    def test_lex_normal_form_outgrows_the_basis_width(self, capsys, monkeypatch):
        widths = self._count_widening(monkeypatch)
        code, out = run(capsys, "member", "x1^7 - 1", "x1 - x2^40", "--order", "lex",
                        "--vars", "x1, x2", "--n", "2", "--m", "0")
        assert (code, out) == (2, "member: no\nnormal form: x2^280 - 1\n---\n"
                                  "status: not-member\nnormal_form: x2^280 - 1\nexit: 2\n")
        assert widths == [9]


class TestVars:
    @pytest.mark.parametrize("argv, message", [
        (["groebner", "x1 - x2^2; x1*x2 - 1", "--vars", "x2, x1, x2", "--order", "lex"],
         "x2 is listed twice in 'x2, x1, x2'"),
        (["eliminate", "x1*x2 - 1; x1", "--vars", "x1, x2", "--drop", "x2 x2"],
         "x2 is listed twice in 'x2 x2'"),
        (["groebner", "x1^2 - 1", "--vars", "2*x1"], "'2*x1' is not a single variable"),
        (["groebner", "x1^2 - 1", "--vars", "x1^3"], "'x1^3' is not a single variable"),
        (["groebner", "x1^2 - 1", "--vars", "x1*x1"], "'x1*x1' is not a single variable"),
        (["eliminate", "x1*x2 - 1; x1", "--vars", "x1, x2", "--drop", "2*x2"],
         "'2*x2' is not a single variable"),
    ])
    def test_repeated_entry_is_usage_error(self, capsys, argv, message):
        assert main([*argv, "--m", "0", "--n", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"usage error: {message}\n"


class TestCheckPoint:
    @pytest.mark.parametrize("point, message", [
        ("xa=t2", "model assignments look like x1=t2, got 'xa=t2'"),
        ("x1", "model assignments look like x1=t2, got 'x1'"),
        ("x1=t2; x1=t1", "x1 is assigned twice in 'x1=t2; x1=t1'"),
    ])
    def test_bad_point_is_usage_error(self, capsys, point, message):
        code = main(["tau", "x1^2", "--m", "1", "--n", "1", "--field", "rational_t",
                     "--check-point", point])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"usage error: {message}\n"

    def test_spaced_index_is_accepted(self, capsys):
        code, out = run(capsys, "tau", "x1^2", "--m", "1", "--n", "1", "--field", "rational_t",
                        "--check-point", " x 1 = t2 ")
        assert code == 0 and "chain rule: ok" in out

    def test_empty_point_is_checked(self, capsys):
        argv = ["--m", "1", "--n", "1", "--field", "rational_t", "--check-point", ""]
        assert main(["tau", "x1^2", *argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: x1 is not assigned\n"
        code, out = run(capsys, "tau", "t2^2", *argv)
        assert code == 0 and "chain rule: ok" in out


class TestRejectionReason:
    def test_highest_ranked_offender_under_any_hash_seed(self):
        # Three proper derivatives of the leader x1 offend; the reason names
        # the highest-ranked one whatever the set iteration order.
        src = str(Path(__file__).resolve().parent.parent / "src")
        reasons = set()
        for seed in ("1", "2", "7"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
                [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
            proc = subprocess.run(
                [sys.executable, "-m", "diffalg", "coherent", "--system",
                 "x1 - 1; d1x1*d2x1 + d1d2x1 + x2", "--m", "2", "--n", "2", "--machine"],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 2
            reasons.add(proc.stdout)
        assert reasons == {
            "---\n"
            "status: rejected\n"
            "reason: element contains the proper derivative d1d2x1 of x1 (elements 2 and 1)\n"
            "exit: 2\n"
        }


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
        with proc.stderr:
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

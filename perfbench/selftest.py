"""Tests of the benchmark itself: spans see every call, generators terminate,
the references reject wrong answers, and the calibration scales every time.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection; it
runs small versions of every workload (about half a minute).
"""

from __future__ import annotations

import time
from functools import lru_cache

import pytest

from perfbench import run  # noqa: F401  (puts the checkout's src/ on sys.path)

run._use_checkout()

import diffalg  # noqa: E402
from diffalg import algebra, axioms, cli, model, prolong  # noqa: E402
from perfbench import reference, workloads  # noqa: E402
from perfbench.calibration import REF_SECONDS, Calibration, kernel  # noqa: E402
from perfbench.spans import PER_LAYER, Bucket, Tracer  # noqa: E402

# Spans each workload exists to exercise, and spans it must bypass.
EXERCISED = {
    "groebner": [
        "algebra.buchberger", "algebra.ideal_member", "algebra.macaulay_member",
        "algebra.eliminate", "algebra.saturate", "scalars.Scalar.mul", "scalars.tpoly_gcd",
    ],
    "ritt": [
        "scalars.tpoly_gcd", "scalars.Scalar.mul", "poly.DiffPoly.mul", "poly.DiffPoly.derive",
        "reduction.full_reduce", "reduction.coherence_check", "reduction.verify",
        "prolong.tau", "prolong.d_compatibility_check", "model.eval_poly",
    ],
    "grid": [
        "cli.main", "axioms.instance_validate", "axioms.witness_search",
        "axioms.projection_closure_check", "axioms.naive_vs_tau_demo",
        "axioms.doubled_samples", "axioms.charset_certify", "algebra.primality_oracle",
        "algebra.buchberger", "algebra.eliminate", "reduction.full_reduce", "prolong.tau",
        "model.eval_poly", "model.model_points", "parser.parse_poly", "parser.poly_text",
    ],
    "certify": ["axioms.charset_certify", "algebra.primality_oracle", "reduction.coherence_check"],
}
BYPASSED = {
    "groebner": ["model.eval_poly", "model.model_points", "reduction.full_reduce",
                 "prolong.tau", "axioms.witness_search", "cli.main"],
    "ritt": ["algebra.buchberger", "model.model_points", "axioms.witness_search", "cli.main"],
    "grid": ["algebra.macaulay_member", "algebra.saturate", "prolong.d_compatibility_check"],
    "certify": ["model.model_points", "axioms.witness_search", "cli.main"],
}
COUNTERS = {
    "groebner": ["algebra.basis_size"],
    "ritt": ["reduction.steps"],
    "grid": ["axioms.candidates_examined", "model.model_points.yielded", "model.eval_poly.nonzero"],
    "certify": ["algebra.primality.decided"],
}


@lru_cache(maxsize=None)
def traced_pass(name):
    """Set-up and one pass of the small workload with spans installed."""
    tracer = Tracer()
    tracer.install()
    try:
        wl = workloads.build(name, 1, run.SCRATCH, small=True)
        try:
            tracer.bucket = Bucket()
            for job in wl.jobs:
                job.run()
        finally:
            wl.close()
    finally:
        tracer.uninstall()
    return tracer.bucket


@pytest.fixture(scope="module", autouse=True)
def scratch():
    run.SCRATCH.mkdir(parents=True, exist_ok=True)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_exercised_spans_are_called(name):
    bucket = traced_pass(name)
    missing = [s for s in EXERCISED[name] if bucket.spans.get(s, [0])[0] == 0]
    assert not missing, f"{name} never called {missing}"
    zero = [c for c in COUNTERS[name] if not bucket.counters.get(c)]
    assert not zero, f"{name} left counters at zero: {zero}"


@pytest.mark.parametrize("name", workloads.NAMES)
def test_bypassed_spans_stay_idle(name):
    bucket = traced_pass(name)
    called = {s: bucket.spans[s][0] for s in BYPASSED[name] if s in bucket.spans}
    assert not called, f"{name} should bypass {called}"


def test_every_per_layer_span_has_an_exercising_workload():
    covered = {s for spans in EXERCISED.values() for s in spans}
    for metric, _, _ in PER_LAYER:
        for suffix in (".calls", ".self_ms"):
            if metric.endswith(suffix):
                assert metric[: -len(suffix)] in covered, metric


def test_every_importer_binding_is_wrapped_and_restored():
    originals = {
        "buchberger": algebra.buchberger,
        "eval_poly": model.eval_poly,
        "eval_at_model_point": model.eval_at_model_point,
        "full_reduce": diffalg.reduction.full_reduce,
        "tau": prolong.tau,
    }
    importers = {
        "buchberger": (algebra, axioms, cli, diffalg),
        "eval_poly": (model, axioms, prolong, diffalg),
        "eval_at_model_point": (model, axioms, prolong, diffalg),
        "full_reduce": (diffalg.reduction, axioms, cli, diffalg),
        "tau": (prolong, axioms, cli, diffalg),
    }
    tracer = Tracer()
    tracer.install()
    try:
        for fn, mods in importers.items():
            wrapped = {id(getattr(m, fn)) for m in mods}
            assert len(wrapped) == 1 and id(originals[fn]) not in wrapped, fn
    finally:
        tracer.uninstall()
    for fn, mods in importers.items():
        assert all(getattr(m, fn) is originals[fn] for m in mods), fn


def test_model_points_time_excludes_the_consumer():
    ring = diffalg.RingContext(m=1, n=1, field_mode="rational_t")
    tracer = Tracer()
    tracer.install()
    try:
        n = 0
        for _ in diffalg.model_points(ring, [1], 1, 1):
            time.sleep(0.002)
            n += 1
    finally:
        tracer.uninstall()
    calls, self_s = tracer.bucket.spans["model.model_points"]
    assert calls == 1 and tracer.bucket.counters["model.model_points.yielded"] == n == 27
    assert self_s < 0.002 * n / 2


def test_count_only_span_records_no_time():
    tracer = Tracer()
    tracer.install()
    try:
        s = diffalg.Scalar.one(2)
        for _ in range(5):
            s = s * s
    finally:
        tracer.uninstall()
    assert tracer.bucket.spans["scalars.Scalar.mul"] == [5, 0.0]


def test_leader_draws_are_bounded():
    # Size 3 with max_order=2 can draw two order-0 leaders, which block every
    # other variable; the draw must give up instead of looping.
    for seed in range(200):
        elems = workloads.autoreduced_text(workloads.Draw("selftest", seed), 2, 2, 3)
        assert 1 <= len(elems) <= 3


def test_same_seed_same_inputs():
    a = workloads.build("ritt", 7, small=True)
    b = workloads.build("ritt", 7, small=True)
    assert [j.ref.get("f") for j in a.jobs] == [j.ref.get("f") for j in b.jobs]
    c = workloads.build("ritt", 8, small=True)
    assert [j.ref.get("f") for j in a.jobs] != [j.ref.get("f") for j in c.jobs]


def test_references_reject_wrong_answers():
    wl = workloads.build("groebner", 1, small=True)
    outs = [job.run() for job in wl.jobs]
    assert reference.check(wl, outs) == {}
    k = next(i for i, j in enumerate(wl.jobs) if j.kind == "buchberger.katsura-3")
    bad = list(outs)
    bad[k] = diffalg.AlgIdeal(outs[k].ring, outs[k].variables, outs[k].generators,
                              outs[k].order, outs[k].basis[:-1])
    m = next(i for i, j in enumerate(wl.jobs) if j.kind == "ideal_member.combo")
    bad[m] = algebra.MembershipCertificate(False, outs[m].normal_form, outs[m].quotients)
    assert set(reference.check(wl, bad)) == {k, m}


def test_grid_reference_knows_the_fixtures():
    text = workloads.fixture_path("exhaustion.axiom").read_text(encoding="utf-8")
    assert reference.witness_reference(text, 1, 1)[:2] == ("exhausted", 27)
    assert reference.witness_reference(text, 2, 1)[:2] == ("exhausted", 729)
    text = workloads.fixture_path("basic.axiom").read_text(encoding="utf-8")
    status, examined, point = reference.witness_reference(text, 1, 1)
    assert (status, examined, str(point.as_expr())) == ("found", 6, "t2")


def test_calibration_scales_every_time_by_the_kernel_mean():
    cal = Calibration(warm=1)
    cal.samples = [REF_SECONDS, 3 * REF_SECONDS]  # mean 2x the reference: a slow machine
    assert cal.scale == 0.5
    per_job = [[0.1, 0.3], [0.2, 0.2]]  # mean pass 0.4 s wall, 0.2 reference seconds
    metrics = run.end_to_end(per_job, set(), 0.8, 10.0, cal.scale)
    assert metrics["jobs_per_s"]["value"] == pytest.approx(2 / 0.2)
    assert metrics["job_ms.p50"]["value"] == pytest.approx(100.0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.4)
    assert metrics["peak_rss_mb"]["value"] == 10.0


def test_calibration_kernel_does_fixed_work():
    assert kernel() == kernel() == 197

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines as they complete. Every check is exact; the only tolerances are the
stated wall-clock budgets.
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from diffalg import (
    AlgIdeal,
    DiffPoly,
    Ranking,
    RingContext,
    Scalar,
    autoreduced_check,
    buchberger,
    charset_certify,
    d_compatibility_check,
    doubled_samples,
    full_reduce,
    ideal_member,
    instance_validate,
    is_reduced,
    macaulay_member,
    naive_vs_tau_demo,
    open_set_equality_check,
    parse_poly,
    poly_text,
    projection_closure_check,
    sat_ideal_member,
    saturation_members,
    tau,
    witness_search,
)
from diffalg.algebra import to_algpoly
from diffalg.instances import build_axiom_instance, fixture_path, load_instance_file
from diffalg.poly import mono_from
from diffalg.reduction import FULL
from diffalg.ring import RATIONAL_T, DerivVar, xvar
from diffalg.sparse import exact_div

from conftest import rand_autoreduced, rand_model_point, rand_poly

RT22 = RingContext(m=2, n=2, field_mode=RATIONAL_T)
R11 = RingContext(m=1, n=1, field_mode=RATIONAL_T)


@contextmanager
def criterion(num, name, limit_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL", flush=True)
        raise
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE {num} ({name}): PASS ({dt:.1f}s, limit {limit_s}s)", flush=True)
    assert dt < limit_s, f"criterion {num} took {dt:.1f}s, budget {limit_s}s"


def test_criterion_1_tau_chain_rule():
    with criterion(1, "tau chain rule on random model points", 30):
        rng = random.Random(101)
        for _ in range(200):
            f = rand_poly(rng, RT22, max_order=2, max_degree=3, max_terms=4,
                          height=5, allow_t=True)
            p = rand_model_point(rng, RT22, degree=2, height=5)
            rep = d_compatibility_check(f, p)
            assert rep.ok, f"chain rule violated for {poly_text(f)}"


def test_criterion_2_tau_product_rule():
    with criterion(2, "tau product rule, exact polynomial identity", 30):
        rng = random.Random(202)
        for _ in range(200):
            f = rand_poly(rng, RT22, max_order=2, max_degree=3, allow_t=True)
            g = rand_poly(rng, RT22, max_order=2, max_degree=3, allow_t=True)
            diff = tau(f * g).value - f * tau(g).value - g * tau(f).value
            assert diff.is_zero()


def test_criterion_3_reduction_certificates():
    with criterion(3, "reduction certificates expand to zero", 60):
        rng = random.Random(303)
        nontrivial = 0
        for k in range(200):
            system = rand_autoreduced(rng, RT22, size=1 + k % 2)
            f = rand_poly(rng, RT22, max_order=2, max_degree=3, max_terms=3,
                          allow_t=True)
            if rng.random() < 0.6:
                # make sure reductions actually fire: adjoin a derivative of a leader
                u = rng.choice(system.leaders)
                i = rng.randrange(RT22.m) + 1
                f = f + DiffPoly.var(RT22, u.derived(i)) * rand_poly(
                    rng, RT22, max_order=1, max_degree=1, max_terms=1, nonzero=True
                )
            cert = full_reduce(f, system)
            assert cert.verify(system), "certificate identity failed"
            assert is_reduced(cert.remainder, system, FULL)
            if cert.steps:
                nontrivial += 1
                variables = tuple(sorted(
                    set().union(system.h.variables(), cert.premultiplier.variables()),
                    key=system.ranking.key,
                ))
                h_power = to_algpoly(system.h ** cert.steps, variables)
                pre = to_algpoly(cert.premultiplier, variables)
                assert exact_div(h_power, pre) is not None, \
                    "premultiplier does not divide the H power"
        assert nontrivial >= 80, f"only {nontrivial} certificates did any work"


def test_criterion_4_naive_vs_tau():
    with criterion(4, "naive prolongation discrepancy and clean open set", 10):
        # shipped fixture: the square system against its certified radical
        data = load_instance_file(fixture_path("square-naive.demo"))
        cert = charset_certify(data.lam, data.ranking)
        rep = naive_vs_tau_demo(data.naive, cert, degree=1, height=1,
                                members=3, samples=10)
        assert rep.status == "found"
        pt, ypt = rep.point
        assert pt.get(1).is_zero() and ypt.get(1) == ypt.get(1).one(2)
        assert poly_text(rep.violated_member) == "x1"

        # shipped linear fixture: 200 doubled samples, 10 members, no violation
        data2 = load_instance_file(fixture_path("linear-flow.demo"))
        cert2 = charset_certify(data2.lam, data2.ranking)
        members = saturation_members(cert2, 10)
        assert len(members) == 10 and len(set(members)) == 10
        samples = doubled_samples(cert2.system, 200, degree=2, height=1)
        assert len(samples) == 200
        from diffalg import eval_poly

        for g in members:
            tg = tau(g).value
            for p, yp in samples:
                assert eval_poly(tg, p, yp).is_zero(), \
                    f"tau of member {poly_text(g)} does not vanish"


def test_criterion_5_rosenfeld_pipeline():
    with criterion(5, "certification pipeline fixtures", 5):
        data = load_instance_file(fixture_path("coherent-pair.sys"))
        cert = charset_certify(data.lam, data.ranking)
        assert cert.status == "certified"

        data = load_instance_file(fixture_path("incoherent-pair.sys"))
        cert = charset_certify(data.lam, data.ranking)
        assert cert.status == "rejected" and cert.stage == "coherence"
        bad = [p.remainder for p in cert.coherence.pairs if not p.remainder.is_zero()]
        assert [poly_text(r) for r in bad] == ["-1"]

        data = load_instance_file(fixture_path("nonprime-square.sys"))
        cert = charset_certify(data.lam, data.ranking)
        assert cert.status == "rejected" and cert.stage == "primality"
        a, b = cert.primality.witness
        # the witness is re-verified against the ideal before emission
        ring = data.ring
        x1 = xvar(ring, 1)
        ideal = buchberger(AlgIdeal(ring, (x1,), tuple(data.lam)))
        assert ideal_member(a * b, ideal).member
        assert not ideal_member(a, ideal).member
        assert not ideal_member(b, ideal).member


def _random_algebra_gen(rng, ring, X, max_terms=3, degree=3, height=2):
    monos = [
        e for e in itertools.product(range(degree + 1), repeat=len(X))
        if 0 < sum(e) <= degree
    ]
    terms = {}
    for e in rng.sample(monos, k=rng.randint(1, max_terms)):
        c = rng.randint(-height, height)
        if c:
            terms[mono_from(zip(X, e))] = Scalar.from_fraction(ring.nt, Fraction(c))
    if rng.random() < 0.5:
        c = rng.randint(-height, height)
        if c:
            terms[()] = Scalar.from_fraction(ring.nt, c)
    return DiffPoly(ring, terms)


def test_criterion_6_groebner_cross_validation():
    with criterion(6, "membership agrees with the brute-force span oracle", 120):
        ring = RingContext(m=0, n=3)
        X = tuple(xvar(ring, j) for j in (1, 2, 3))
        rng = random.Random(606)
        decisive = 0
        for _ in range(100):
            gens = [_random_algebra_gen(rng, ring, X) for _ in range(rng.randint(1, 3))]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            raw = AlgIdeal(ring, X, tuple(gens))
            ideal = buchberger(raw)  # S-polynomial self-check runs on every call
            assert ideal.basis is not None

            combo = DiffPoly.zero(ring)
            for g in gens:
                combo = combo + g * _random_algebra_gen(rng, ring, X, 1, 2, 1)
            if not combo.is_zero() and combo.total_degree() <= 6:
                res = macaulay_member(combo, raw, 6)
                assert res.decisive, "constructed combination must be span-visible"
                assert ideal_member(combo, ideal).member
                decisive += 1
            probe = _random_algebra_gen(rng, ring, X)
            res = macaulay_member(probe, raw, 6)
            if res.decisive:
                assert ideal_member(probe, ideal).member
                decisive += 1
        assert decisive >= 50, f"only {decisive} decisive cross-checks"


def test_criterion_7_axiom_end_to_end():
    with criterion(7, "axiom instance: validate, project, witness, exhaust", 10):
        data = load_instance_file(fixture_path("basic.axiom"))
        inst = build_axiom_instance(data)
        val = instance_validate(inst, degree=1, height=1)
        assert val.status == "valid"
        proj = projection_closure_check(inst, val)
        assert proj.ok and proj.order_bound == 2
        rep = witness_search(inst, val, degree=1, height=1)
        assert rep.status == "found"
        witness = rep.witness.get(1)
        assert witness == witness.var(2, 2), "expected the witness x1 := t2"
        assert all(c.ok for c in rep.checks)

        data2 = load_instance_file(fixture_path("exhaustion.axiom"))
        inst2 = build_axiom_instance(data2)
        val2 = instance_validate(inst2, degree=1, height=1)
        assert val2.status == "valid"
        rep2 = witness_search(inst2, val2, degree=1, height=1)
        assert rep2.status == "exhausted"
        assert rep2.examined == 27
        assert len(rep2.trail) == rep2.examined  # complete transcript
        assert all(why for _, why in rep2.trail)


def test_criterion_8_proof_chain_replay():
    with criterion(8, "open-set equality replay with product-rule identity", 10):
        cert = charset_certify([parse_poly("d1 x1 - 1", R11)], Ranking())
        members = saturation_members(cert, 5)
        assert len(members) == 5
        samples = doubled_samples(cert.system, 20, degree=2, height=1)
        assert len(samples) == 20
        for g in members:
            rep = open_set_equality_check(cert, g, samples)
            assert rep.ok, f"replay failed for member {poly_text(g)}"
            assert rep.symbolic_ok
            assert rep.sample_count == 20 and not rep.failures

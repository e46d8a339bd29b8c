"""eval_poly against a reference evaluation that does every step in Scalars.

The reference is the straightforward loop: each derivative value becomes a
Scalar, each term is its coefficient times the powers of its factors, and the
terms are summed as Scalars. Scalars are canonical, so the fast evaluation
must give the same numerator and denominator dicts, not just an equal value.
The seeded cases mix polynomial and rational-function coefficients, x- and
y-variables with derivatives, exponents 1-3, constant terms and terms whose
values cancel.
"""

import random
from fractions import Fraction

import pytest

from diffalg import DiffPoly, ModelPoint, RingContext, Scalar, TPoly, eval_poly
from diffalg.model import model_points, model_polys
from diffalg.ring import RATIONAL_T, DerivVar

CASES = 1000


def reference_eval(f, point, y_point=None):
    total = Scalar.zero(f.ring.nt)
    for mono, c in f.terms.items():
        val = c
        for v, e in mono:
            base = (point if v.family == "x" else y_point).get(v.index)
            for i, k in enumerate(v.theta, start=1):
                for _ in range(k):
                    base = base.diff(i)
            val = val * Scalar._poly(base) ** e
        total = total + val
    return total


def rand_tpoly(rng, nt, degree, max_terms, height=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = [0] * nt
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(nt)] += 1
        terms[tuple(e)] = Fraction(rng.randint(-height, height), rng.randint(1, 3))
    return TPoly(nt, terms)


def rand_coeff(rng, nt):
    num = rand_tpoly(rng, nt, 2, 3)
    if num.is_zero():
        num = TPoly.const(nt, rng.choice((1, -2)))
    if rng.random() < 0.4:
        den = rand_tpoly(rng, nt, 2, 2)
        if den.is_const():
            den = den + TPoly.var(nt, rng.randint(1, nt))
        return Scalar(num, den)
    return Scalar._poly(num)


def rand_var(rng, ring, families):
    theta = [0] * ring.m
    for _ in range(rng.randint(0, 2)):
        theta[rng.randrange(ring.m)] += 1
    return DerivVar(rng.choice(families), rng.randint(1, ring.n), tuple(theta))


def rand_case(rng):
    ring = RingContext(m=rng.randint(1, 2), n=rng.randint(1, 2), field_mode=RATIONAL_T)
    nt = ring.nt
    point = ModelPoint(ring, {j: rand_tpoly(rng, nt, 2, 3) for j in range(1, ring.n + 1)})
    y_point = ModelPoint(ring, {j: rand_tpoly(rng, nt, 2, 3) for j in range(1, ring.n + 1)})
    families = ("x", "y") if rng.random() < 0.5 else ("x",)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = {}
        for _ in range(rng.randint(0, 2)):
            v = rand_var(rng, ring, families)
            mono[v] = mono.get(v, 0) + rng.randint(1, 3)
        terms[tuple(sorted(mono.items(), key=lambda it: it[0].sort_key))] = rand_coeff(rng, nt)
    f = DiffPoly(ring, terms)
    if rng.random() < 0.2:
        # A constant term that cancels the whole value.
        f = f - DiffPoly.const(ring, reference_eval(f, point, y_point))
    return f, point, y_point


def test_eval_poly_matches_the_scalar_reference():
    rng = random.Random(20121)
    kinds = {"rational": 0, "y": 0, "zero": 0, "power": 0}
    for _ in range(CASES):
        f, point, y_point = rand_case(rng)
        got = eval_poly(f, point, y_point)
        want = reference_eval(f, point, y_point)
        assert got.num.terms == want.num.terms
        assert got.den.terms == want.den.terms
        kinds["rational"] += any(not c.is_poly() for c in f.terms.values())
        kinds["y"] += f.has_family("y")
        kinds["zero"] += want.is_zero()
        kinds["power"] += any(e > 1 for mono in f.terms for _, e in mono)
    # The generator reaches every branch the cases are meant to cover.
    assert all(n >= CASES // 10 for n in kinds.values()), kinds


def test_eval_poly_error_messages():
    ring = RingContext(m=1, n=2, field_mode=RATIONAL_T)
    nt = ring.nt
    f = DiffPoly(ring, {((DerivVar("y", 1, (1,)), 2),): Scalar.one(nt)})
    point = ModelPoint(ring, {1: TPoly.var(nt, 1), 2: TPoly.one(nt)})
    with pytest.raises(ValueError, match="^y-variable d1y1 present but no y-assignment given$"):
        eval_poly(f, point)
    g = DiffPoly(ring, {((DerivVar("x", 2, (0,)), 1),): Scalar.one(nt)})
    with pytest.raises(ValueError, match="^x2 is not assigned$"):
        eval_poly(g, ModelPoint(ring, {1: TPoly.var(nt, 1)}))


def test_model_polys_result_belongs_to_the_caller():
    ring = RingContext(m=1, n=1, field_mode=RATIONAL_T)
    first = model_polys(ring, 2, 1)
    snapshot = list(first)
    points = [pt.assignment for pt in model_points(ring, [1], 2, 1)]
    first.clear()
    first.append(TPoly.var(ring.nt, 1))
    assert model_polys(ring, 2, 1) == snapshot
    assert [pt.assignment for pt in model_points(ring, [1], 2, 1)] == points
    assert [pt.assignment[1] for pt in model_points(ring, [1], 2, 1)] == snapshot

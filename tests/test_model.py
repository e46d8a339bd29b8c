"""eval_poly against a reference evaluation that does every step in Scalars.

The reference is the straightforward loop: each derivative value becomes a
Scalar, each term is its coefficient times the powers of its factors, and the
terms are summed as Scalars. Scalars are canonical, so the fast evaluation
must give the same numerator and denominator dicts, not just an equal value.
The seeded cases mix polynomial and rational-function coefficients, x- and
y-variables with derivatives, exponents 1-3, constant terms and terms whose
values cancel.
"""

import itertools
import random
from fractions import Fraction
from math import prod

import pytest

from diffalg import DiffPoly, ModelPoint, RingContext, Scalar, TPoly, eval_poly, modp
from diffalg.model import (
    _at_t_point,
    _Candidate,
    _layer,
    _residue,
    _residue_terms,
    _table,
    coefficient_ladder,
    model_points,
    model_polys,
    t_monomials,
)
from diffalg.parser import point_text, tpoly_text
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
        terms[tuple(sorted(mono.items()))] = rand_coeff(rng, nt)
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


# -- residues mod P61 --------------------------------------------------------
#
# _residue must agree with the exact value mod P61 wherever it answers, and
# must answer None (never a number) where a denominator vanishes at the
# fixed t-point. The exact side below evaluates num and den over Q at the
# t-point with Fractions and reduces once, sharing nothing with model's
# modular code but the point itself.

P = modp.P61


def exact_mod_p(value, t):
    def at(p):
        return sum(c * prod(x ** k for x, k in zip(t, e)) for e, c in p.terms.items())

    q = Fraction(at(value.num)) / Fraction(at(value.den))
    return q.numerator * pow(q.denominator, -1, P) % P


def _residue_table(p):
    """The residue table of a t-polynomial, as the grid builds it
    (model._table over modp.residues); None if a coefficient's denominator
    is a multiple of P61."""
    res = modp.residues(p.terms)
    return None if res is None else _table(res)


def tabled(ring, point):
    """A hand-built point whose assignments carry residue tables, like a grid point's."""
    candidates = {}
    for j, p in point.assignment.items():
        c = candidates[j] = _Candidate._raw(ring.nt, p.terms)
        c.table = _residue_table(p)
    return ModelPoint._raw(ring, candidates)


GRIDS = {}


def grid_sample(ring, rng, k):
    """k random grid points: degree 2 for m = n = 1 (729 points), else degree 1."""
    grid = GRIDS.get(ring)
    if grid is None:
        degree = 2 if ring.m == ring.n == 1 else 1
        grid = GRIDS[ring] = list(model_points(ring, range(1, ring.n + 1), degree, 1))
    return [grid[rng.randrange(len(grid))] for _ in range(k)]


def test_residue_matches_the_exact_value_mod_p():
    rng = random.Random(61)
    kinds = {"hand-built": 0, "grid": 0, "d-companion": 0, "rational": 0, "zero": 0}
    for _ in range(400):
        f, point, y_point = rand_case(rng)
        ring = f.ring
        terms = _residue_terms(f)
        t = modp.t_point(ring.nt)
        g1, g2 = grid_sample(ring, rng, 2)
        pairs = [("hand-built", tabled(ring, point), tabled(ring, y_point)),
                 ("grid", g1, g2),
                 ("d-companion", g1, g1.d_companion()),
                 ("d-companion", g1.d_companion(), g2)]
        for kind, pt, ypt in pairs:
            got = _residue(terms, pt, ypt)
            want = eval_poly(f, pt, ypt)
            assert got is not None
            assert got == exact_mod_p(want, t), (kind, f, pt, ypt)
            kinds[kind] += 1
            kinds["zero"] += want.is_zero()
        kinds["rational"] += any(not c.is_poly() for c in f.terms.values())
        # A point the grid did not build answers nothing, once f reads it.
        if any(f.terms):
            assert _residue(terms, point, y_point) is None
    assert all(n >= 40 for n in kinds.values()), kinds


def test_structural_zero_is_exactly_zero():
    """_residue reports a structural zero (False) only where the exact value
    is zero, at y-points that are D-companions and random grid points; a
    constant term, even one that is 0 mod P61, is never structural."""
    rng = random.Random(34)
    kinds = {"structural": 0, "residue": 0, "d-companion": 0, "grid": 0}
    for _ in range(300):
        ring = RingContext(m=rng.randint(1, 2), n=rng.randint(1, 2), field_mode=RATIONAL_T)
        families = ("x", "y") if rng.random() < 0.5 else ("x",)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mono = {}
            for _ in range(rng.randint(1, 2)):
                v = rand_var(rng, ring, families)
                mono[v] = mono.get(v, 0) + rng.randint(1, 2)
            terms[tuple(sorted(mono.items()))] = \
                rand_coeff(rng, ring.nt)
        f = DiffPoly(ring, terms)
        shifted = [f + DiffPoly.const(ring, c) for c in (1, P)]
        g1, g2 = grid_sample(ring, rng, 2)
        for kind, pt, ypt in (("d-companion", g1, g1.d_companion()), ("grid", g1, g2),
                              ("grid", g1.d_companion(), g2)):
            got = _residue(_residue_terms(f), pt, ypt)
            if got is False:
                assert eval_poly(f, pt, ypt).is_zero(), (f, pt, ypt)
                kinds[kind] += 1
            kinds["structural" if got is False else "residue"] += 1
            for g in shifted:
                assert _residue(_residue_terms(g), pt, ypt) is not False, (g, pt, ypt)
    assert all(n >= 40 for n in kinds.values()), kinds


def test_d_companion_is_the_point_one_d_step_up(monkeypatch):
    """d_companion() differentiates nothing. Read, a companion is the point
    with every assignment differentiated in D, as if built that way: the
    same values, text, repr, hash and equality with every other point, for
    grid and hand-built points and for companions of companions."""
    ring = RingContext(m=1, n=2, field_mode=RATIONAL_T)
    nt = ring.nt
    rng = random.Random(77)
    base = list(model_points(ring, [1, 2], 1, 1))[::20]
    base += [ModelPoint(ring, {j: rand_tpoly(rng, nt, 3, 3) for j in (1, 2)}) for _ in range(8)]
    calls = []
    diff = TPoly.diff
    with monkeypatch.context() as m:
        m.setattr(TPoly, "diff", lambda p, i: calls.append(i) or diff(p, i))
        once = [pt.d_companion() for pt in base]
        lazy = base + once + [pt.d_companion() for pt in once]
    assert calls == []

    def up(pt):
        return ModelPoint(ring, {j: p.diff(nt) for j, p in pt.assignment.items()})

    eager_once = [up(pt) for pt in base]
    eager = base + eager_once + [up(pt) for pt in eager_once]
    for a, b in zip(lazy, eager):
        assert [a.get(j) for j in (1, 2)] == [b.get(j) for j in (1, 2)]
        assert (point_text(a), repr(a), hash(a)) == (point_text(b), repr(b), hash(b))
    equal = [a == b for a in lazy for b in lazy]
    assert equal == [a == b for a in eager for b in eager]
    # Some companions equal other points: grid points x := c*t2 + ... go to constants.
    assert sum(equal) > len(lazy)


def test_point_repr_is_the_printed_text():
    """A grid point and its D-companion print their values, the companion's
    differentiated in D, as point_text does."""
    ring = RingContext(m=1, n=2, field_mode=RATIONAL_T)
    pt = list(model_points(ring, [1, 2], 2, 1))[-1]
    up = pt.d_companion()
    assert point_text(up) != point_text(pt)
    for p in (pt, up, ModelPoint(ring, {})):
        assert repr(p) == f"ModelPoint({point_text(p)})"
    assert repr(up) == f"ModelPoint(x1 := {tpoly_text(up.get(1))}, x2 := {tpoly_text(up.get(2))})"


def test_layer_candidates_equal_the_validated_polynomials():
    """The layers are built without validation; they hold, in order, the
    validated TPolys whose highest used monomial degree is the layer, each
    with Fraction coefficients and its _residue_table."""
    for height in (1, 2):
        ladder = coefficient_ladder(height)
        for layer in range(3):
            monos = t_monomials(2, layer)
            want = [TPoly(2, dict(zip(monos, coeffs)))
                    for coeffs in itertools.product(ladder, repeat=len(monos))
                    if max((sum(e) for e, c in zip(monos, coeffs) if c), default=0) == layer]
            got = _layer(2, layer, height)
            assert [p for _, p in got] == want
            for (degree, p), q in zip(got, want):
                assert degree == layer
                assert all(type(c) is Fraction for c in p.terms.values())
                assert p.table == _residue_table(q)


def test_residue_is_undefined_where_a_denominator_vanishes():
    ring = RingContext(m=1, n=1, field_mode=RATIONAL_T)
    nt = ring.nt
    t1 = TPoly.var(nt, 1)
    x = DiffPoly.var(ring, DerivVar("x", 1, (0,)))
    pt = next(iter(model_points(ring, [1], 1, 1)))
    # A coefficient with the denominator P61, and a t-denominator that vanishes at the point.
    over_p = x.scale(Fraction(1, P))
    vanishing = x.scale(Scalar(TPoly.one(nt), t1 - TPoly.const(nt, modp.t_point(nt)[0])))
    assert _residue_terms(over_p) is None and _residue_terms(vanishing) is None
    assert _residue(_residue_terms(over_p), pt) is None
    # The same t-denominator shifted off the point is defined.
    assert _residue_terms(x.scale(Scalar(TPoly.one(nt), t1 + TPoly.one(nt)))) is not None
    # A hand-built assignment with a coefficient over P61 has no table.
    bad = tabled(ring, ModelPoint(ring, {1: TPoly(nt, {(1, 0): Fraction(1, P)})}))
    assert bad.assignment[1].table is None
    assert _residue(_residue_terms(x), bad) is None
    assert _residue(_residue_terms(x), bad.d_companion()) is None


def _tables_at_t_point(c):
    """_at_t_point as first written: the theta = 0 entries of the full residue
    tables of c's numerator and denominator."""
    zero = (0,) * c.nvars
    num, den = _residue_table(c.num), _residue_table(c.den)
    if num is None or den is None or not den.get(zero):
        return None
    return num.get(zero, 0) * pow(den[zero], -1, P) % P


def test_at_t_point_equals_the_zeroth_table_entries():
    """Seeded scalars, some with a coefficient over P61 in the numerator or
    the denominator and some whose denominator vanishes at the t-point."""
    rng = random.Random(2037)
    kinds = {"defined": 0, "over P61": 0, "vanishing": 0}
    for _ in range(600):
        nt = rng.randint(2, 3)
        c = rand_coeff(rng, nt)
        num, den = c.num, c.den
        ti = rng.randint(1, nt)
        kind = rng.choice(("free", "num over P61", "den over P61", "vanishing"))
        if kind == "num over P61":
            num = num + TPoly(nt, {(1,) * nt: Fraction(rng.randint(1, 5), P)})
        elif kind == "den over P61":
            den = den * (TPoly.var(nt, ti) + TPoly.const(nt, Fraction(1, P)))
        elif kind == "vanishing":
            den = den * (TPoly.var(nt, ti) - TPoly.const(nt, modp.t_point(nt)[ti - 1]))
        c = Scalar(num, den)
        want = _tables_at_t_point(c)
        assert _at_t_point(c) == want, c
        if want is not None:
            kinds["defined"] += 1
        elif _residue_table(c.num) is None or _residue_table(c.den) is None:
            kinds["over P61"] += 1
        else:
            kinds["vanishing"] += 1
    assert all(n >= 100 for n in kinds.values()), kinds

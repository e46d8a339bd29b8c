"""Exact scalar arithmetic: canonical forms, gcd, derivations."""

import random
from fractions import Fraction

import pytest

from diffalg import (
    Ranking,
    RingContext,
    autoreduced_check,
    full_reduce,
    parse_poly,
    parse_tpoly,
    scalars,
)
from diffalg.modp import P61
from diffalg.ring import RATIONAL_T
from diffalg.scalars import Scalar, TPoly, _int_normalize, tpoly_gcd

from conftest import rand_tpoly


def s(q):
    return Scalar.from_fraction(3, q)


def test_constants_behave_like_fractions():
    assert s(Fraction(1, 2)) + s(Fraction(1, 3)) == s(Fraction(5, 6))
    assert s(2) * s(Fraction(3, 4)) == s(Fraction(3, 2))
    assert (s(5) - s(5)).is_zero()
    assert (s(3) / s(6)) == s(Fraction(1, 2))


def test_division_reduces_to_canonical_form():
    t1 = Scalar.t(3, 1)
    t2 = Scalar.t(3, 2)
    one = Scalar.one(3)
    # (t1^2 - 1) / (t1 - 1) collapses to t1 + 1 exactly
    num = t1 * t1 - one
    den = t1 - one
    q = num / den
    assert q == t1 + one
    assert q.is_poly()
    # a genuine fraction keeps a monic denominator
    f = t1 / (t2 + one)
    assert f.den.lead_coeff() == 1
    assert f * (t2 + one) == t1


def test_gcd_of_constructed_products():
    rng = random.Random(7)
    for _ in range(40):
        g = rand_tpoly(rng, 3, degree=2, height=3, nonzero=True)
        a = g * rand_tpoly(rng, 3, degree=1, height=2, nonzero=True)
        b = g * rand_tpoly(rng, 3, degree=1, height=2, nonzero=True)
        d = tpoly_gcd(a, b)
        # the common factor divides the gcd, and the gcd divides both
        assert d.exact_div(tpoly_gcd(g, d)) is not None
        assert a.exact_div(d) is not None
        assert b.exact_div(d) is not None


def test_gcd_normalization_is_unique():
    t1 = TPoly.var(2, 1)
    two_t1 = t1.scale(Fraction(2, 3))
    assert tpoly_gcd(two_t1, t1 * t1) == t1
    assert tpoly_gcd(TPoly.zero(2), t1) == t1


def test_derivation_quotient_rule():
    rng = random.Random(11)
    for _ in range(30):
        a = rand_tpoly(rng, 2, degree=2, height=3, nonzero=True)
        b = rand_tpoly(rng, 2, degree=2, height=3, nonzero=True)
        f = Scalar(a, b)
        for i in (1, 2):
            lhs = f.diff(i)
            rhs = (Scalar._poly(a.diff(i)) * Scalar._poly(b)
                   - Scalar._poly(a) * Scalar._poly(b.diff(i))) / Scalar._poly(b * b)
            assert lhs == rhs


def test_derivations_commute_on_scalars():
    rng = random.Random(13)
    for _ in range(30):
        f = Scalar(rand_tpoly(rng, 3, 2, 3, nonzero=True), rand_tpoly(rng, 3, 1, 2, nonzero=True))
        assert f.diff(1).diff(2) == f.diff(2).diff(1)


def test_hash_respects_equality():
    t1 = Scalar.t(2, 1)
    one = Scalar.one(2)
    a = (t1 * t1 - one) / (t1 - one)
    b = t1 + one
    assert a == b and hash(a) == hash(b)


def _exact_gcd(monkeypatch, a, b):
    """tpoly_gcd with the modular coprimality proof switched off: the PRS path."""
    with monkeypatch.context() as m:
        m.setattr(scalars, "_coprime_mod_p", lambda a, b, common: False)
        return tpoly_gcd(a, b)


def _sympy_gcd(sympy, a, b):
    ts = sympy.symbols(f"t1:{a.nvars + 1}")

    def expr(p):
        return sum(sympy.Rational(c.numerator, c.denominator)
                   * sympy.Mul(*(t**k for t, k in zip(ts, e))) for e, c in p.terms.items())

    g = sympy.Poly(sympy.gcd(expr(a), expr(b)), *ts)
    return _int_normalize(TPoly(a.nvars, {
        e: Fraction(int(c.p), int(c.q)) for e, c in g.terms()
    }))


def _rand_factor(rng, nt, degree):
    p = rand_tpoly(rng, nt, degree=degree, height=4, max_terms=degree + 1, nonzero=True)
    return p.scale(Fraction(rng.randint(1, 3), rng.randint(1, 3)))


def test_gcd_matches_exact_path_and_sympy(monkeypatch):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261018)
    planted = 0
    for k in range(2000):
        nt = rng.randint(1, 3)
        a = _rand_factor(rng, nt, 2)
        b = _rand_factor(rng, nt, 2)
        if k % 2:  # plant a common factor, of positive degree unless g is constant
            g = _rand_factor(rng, nt, rng.randint(1, 2))
            planted += not g.is_const()
            a, b = a * g, b * g
        fast = tpoly_gcd(a, b)
        assert fast == _exact_gcd(monkeypatch, a, b), (a, b)
        if k % 8 < 2:  # sympy is the slow half of this test
            assert fast == _sympy_gcd(sympy, a, b), (a, b)
    assert planted > 800


def _lc_vanishing_pair():
    """a = g*(t1 + 1), b = g*(t1 + 2) with g = (t1 - c1)*(t2 - c2) + 1, where
    (c1, c2) is the filter's evaluation point: every image of g is 1, and the
    images of a lose their degree in both t's."""
    c1, c2 = scalars._T_POINTS[:2]
    t1, t2 = TPoly.var(2, 1), TPoly.var(2, 2)
    g = (t1 - TPoly.const(2, c1)) * (t2 - TPoly.const(2, c2)) + TPoly.one(2)
    return g, g * (t1 + TPoly.const(2, 1)), g * (t1 + TPoly.const(2, 2))


def _denominator_p_pair():
    t1, t2 = TPoly.var(2, 1), TPoly.var(2, 2)
    g = t1 * t2 + TPoly.const(2, Fraction(1, P61))
    return g, g * (t1 + TPoly.const(2, 1)), g * (t1 - TPoly.const(2, 1))


@pytest.fixture
def prem_calls(monkeypatch):
    """A list that grows by one per exact PRS step (_prem call)."""
    calls = []
    prem = scalars._prem
    monkeypatch.setattr(scalars, "_prem", lambda *args: calls.append(1) or prem(*args))
    return calls


@pytest.mark.parametrize("pair", [_lc_vanishing_pair, _denominator_p_pair])
def test_filter_falls_back_to_exact_path(prem_calls, pair):
    g, a, b = pair()
    assert not scalars._coprime_mod_p(a, b, {1, 2})
    assert tpoly_gcd(a, b) == _int_normalize(g)
    assert prem_calls


def test_rational_reduction_makes_no_exact_prs(prem_calls):
    ring = RingContext(m=2, n=2, field_mode=RATIONAL_T)
    system = autoreduced_check([parse_poly("t1*d1x1^2 - x1^3 - t2", ring)], Ranking())
    f = parse_poly("d1d1d1d1x1", ring).scale(
        Scalar(parse_tpoly("t2 - 1", ring), parse_tpoly("t1 + t3 + 2", ring)))
    assert full_reduce(f, system).verify(system)
    assert prem_calls == []


def test_equal_denominators_add_without_a_product():
    t1, t2 = Scalar.t(3, 1), Scalar.t(3, 2)
    one = Scalar.one(3)
    x = t1 / (t2 + one)
    y = one / (t2 + one)
    assert x + y == (t1 + one) / (t2 + one)
    assert x - x == Scalar.zero(3)
    assert (t2 / (t2 + one)) + y == one


def test_unit_denominator_is_shared():
    a, b = Scalar.t(3, 1), Scalar.from_fraction(3, 5)
    assert a.den is b.den is TPoly.one(3)
    assert TPoly.one(2) == TPoly.const(2, 1) and TPoly.one(2) is not TPoly.one(3)

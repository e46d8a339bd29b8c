"""Exact scalar arithmetic: canonical forms, gcd, derivations."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffalg import (
    DiffPoly,
    Ranking,
    RingContext,
    autoreduced_check,
    full_reduce,
    parse_poly,
    parse_tpoly,
    scalars,
)
from diffalg.modp import P61, t_point
from diffalg.parser import scalar_text, tpoly_text
from diffalg.ring import RATIONAL_T
from diffalg.scalars import Scalar, TPoly, _int_normalize, clear_denominators, tpoly_gcd

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
    c1, c2 = t_point(2)
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


def test_subtraction_is_addition_of_the_negation():
    """a - b over every denominator class: both polynomial, one shared
    non-unit denominator, two different ones."""
    rng = random.Random(2727)
    one = TPoly.one(2)
    seen = {"polynomial": 0, "shared": 0, "different": 0}
    while min(seen.values()) < 20:
        dens = [one, rand_tpoly(rng, 2, degree=2, height=3, nonzero=True)]
        da = rng.choice(dens)
        db = da if rng.random() < 0.5 else rng.choice(dens)
        a = Scalar(rand_tpoly(rng, 2, degree=2, height=4), da)
        b = Scalar(rand_tpoly(rng, 2, degree=2, height=4), db)
        if a.is_poly() and b.is_poly():
            seen["polynomial"] += 1
        elif a.den == b.den:
            seen["shared"] += 1
        else:
            seen["different"] += 1
        diff = a - b
        assert diff == Scalar(a.num * b.den - b.num * a.den, a.den * b.den)
        if diff.den == one:
            assert diff.den is one


def test_the_zero_tpoly_has_no_leading_coefficient():
    with pytest.raises(ValueError, match="^zero polynomial has no leading term$"):
        TPoly.zero(2).lead_coeff()


def test_unit_denominator_is_shared():
    a, b = Scalar.t(3, 1), Scalar.from_fraction(3, 5)
    assert a.den is b.den is TPoly.one(3)
    assert TPoly.one(2) == TPoly.const(2, 1) and TPoly.one(2) is not TPoly.one(3)


def test_every_unit_denominator_is_the_shared_one():
    """is_poly is an identity test, so no operation may hand out a fresh
    unit denominator: not after cancelling, nor after scaling a constant one."""
    rng = random.Random(1515)
    one = TPoly.one(3)
    t1, t2 = TPoly.var(3, 1), TPoly.var(3, 2)
    pool = [
        Scalar(t1, TPoly.const(3, 4)),  # constant denominator scaled to 1
        Scalar(t1 * t2, t1),  # the gcd cancels the whole denominator
        Scalar(t1 + TPoly.one(3), TPoly.const(3, 1)),
    ]
    for _ in range(20):
        num = rand_tpoly(rng, 3, degree=2, max_terms=3, nonzero=True)
        den = rand_tpoly(rng, 3, degree=1, max_terms=2, nonzero=True)
        pool += [Scalar(num), Scalar(num, den), Scalar(num * den, den)]
    made = list(pool)
    for _ in range(600):
        a, b = rng.choice(pool), rng.choice(pool)
        op = rng.randrange(7)
        if op == 0:
            made.append(a + b)
        elif op == 1:
            made.append(a - b)
        elif op == 2:
            made.append(a * b)
        elif op == 3:
            made.append(a / b)
        elif op == 4:
            made.append(a.diff(rng.randint(1, 3)))
        elif op == 5:
            made.append((a * b) / b)  # a rational factor cancelled
        else:
            made.append(-(a ** 2).scale(Fraction(1, 3)))
    units = [x for x in made if x.den == one]
    assert len(units) > 200 and len(units) < len(made)
    assert all(x.den is one and x.is_poly() for x in units)
    assert not any(x.is_poly() for x in made if x.den != one)


@pytest.mark.parametrize("build", [
    lambda: TPoly(1, {(0,): 0.5}),
    lambda: TPoly.const(1, 0.1),
    lambda: TPoly.var(1, 1).scale(0.1),
    lambda: Scalar.one(1).scale(0.1),
    lambda: DiffPoly.one(RingContext(m=0, n=1, field_mode=RATIONAL_T)).scale(0.1),
], ids=["TPoly", "TPoly.const", "TPoly.scale", "Scalar.scale", "DiffPoly.scale"])
def test_a_float_coefficient_is_refused(build):
    with pytest.raises(TypeError, match="inexact coefficient 0.(1|5)"):
        build()


def test_ints_and_fractions_stay_exact():
    assert TPoly.const(1, 2).scale(Fraction(1, 3)) == TPoly(1, {(0,): Fraction(2, 3)})
    assert Scalar.one(1).scale(3) == Scalar.from_fraction(1, 3)


def _naive_product(a, b):
    """The Fraction double loop the integer product kernel must agree with."""
    t = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            t[e] = t.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in t.items() if c}


_COEFFS = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 1, 2, 3, 4, 6, 35]))


@st.composite
def _tpoly_pairs(draw):
    """Two TPolys of one arity 1-3, zero and single-term ones included; a
    third of the pairs are (p, p with one sign flipped), whose products cancel."""
    nt = draw(st.integers(1, 3))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * nt), _COEFFS, max_size=4)
    a = TPoly(nt, draw(terms))
    if a.terms and draw(st.integers(0, 2)) == 0:
        flip = draw(st.sampled_from(sorted(a.terms)))
        return a, TPoly(nt, {e: -c if e == flip else c for e, c in a.terms.items()})
    return a, TPoly(nt, draw(terms))


def _exact_fractions(p):
    return all(type(c) is Fraction and c for c in p.terms.values())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_tpoly_pairs())
def test_integer_product_matches_the_fraction_double_loop(pair):
    a, b = pair
    product = a * b
    assert product.terms == _naive_product(a.terms, b.terms)
    assert _exact_fractions(product)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_tpoly_pairs(), _tpoly_pairs())
def test_scalar_products_keep_a_monic_denominator(p, q):
    (n1, d1), (n2, d2) = p, q
    if d1.is_zero() or d2.is_zero() or n1.nvars != n2.nvars:
        return
    x = Scalar(n1, d1) * Scalar(n2, d2)
    assert x.den.lead_coeff() == 1
    assert _exact_fractions(x.num) and _exact_fractions(x.den)
    # num/den == (n1*n2)/(d1*d2), checked by cross-multiplying with the naive loop
    lhs = _naive_product(x.num.terms, _naive_product(d1.terms, d2.terms))
    assert lhs == _naive_product(_naive_product(n1.terms, n2.terms), x.den.terms)


def _t(text):
    return parse_tpoly(text, RingContext(m=2, n=1, field_mode=RATIONAL_T))


def test_clear_denominators_takes_the_monic_lcm():
    # t1 + 1/2 divides t1*t2 + 1/2*t2; a plain lcm product would lead with 1/2
    one = Scalar.one(3)
    coeffs = {"a": one / Scalar._poly(_t("t1 + 1/2")),
              "b": Scalar._poly(_t("t2 - 1")) / Scalar._poly(_t("t1*t2 + 1/2*t2")),
              "c": Scalar._poly(_t("3*t3"))}
    den, nums = clear_denominators(3, coeffs)
    assert den == _t("t1*t2 + 1/2*t2")
    assert nums == {k: (c * Scalar._poly(den)).num for k, c in coeffs.items()}
    assert nums["a"] == _t("t2")


def test_clear_denominators_of_polynomials_is_the_shared_unit():
    coeffs = {k: Scalar._poly(_t(text)) for k, text in enumerate(("t1 - 1", "1/3", "t2*t3"))}
    den, nums = clear_denominators(3, coeffs)
    assert den is TPoly.one(3)
    assert nums == {k: c.num for k, c in coeffs.items()}
    assert clear_denominators(3, {}) == (TPoly.one(3), {})


def _clear_per_coefficient(nvars, coeffs):
    """The loop clear_denominators ran before it folded each distinct
    denominator once: a gcd for every coefficient whose denominator differs
    from the lcm so far."""
    one = den = TPoly.one(nvars)
    for c in coeffs.values():
        if c.den is not one and c.den != den:
            den = c.den if den is one else den * c.den.exact_div(tpoly_gcd(den, c.den))
    if den is one:
        return one, {k: c.num for k, c in coeffs.items()}
    den = den.scale(1 / den.lead_coeff())
    return den, {k: c.num * den.exact_div(c.den) for k, c in coeffs.items()}


def test_clear_denominators_ignores_the_order_of_the_dict():
    rng = random.Random(7)
    factors = [_t(text) for text in ("t1 + 1/2", "t2", "2*t1*t2 - 1", "t3 + 2", "3")]
    for _ in range(30):
        coeffs = {}
        for k in range(rng.randint(1, 5)):
            den = TPoly.one(3)
            for q in rng.sample(factors, rng.randint(0, 3)):
                den = den * q
            coeffs[k] = Scalar(rand_tpoly(rng, 3, degree=2, max_terms=3), den)
        den, nums = clear_denominators(3, coeffs)
        assert den.lead_coeff() == 1
        assert nums == {k: (c * Scalar._poly(den)).num for k, c in coeffs.items()}
        assert (den, nums) == _clear_per_coefficient(3, coeffs)
        keys = list(coeffs)
        rng.shuffle(keys)
        assert clear_denominators(3, {k: coeffs[k] for k in keys}) == (den, nums)


def test_clear_denominators_folds_each_distinct_denominator_once():
    # pairwise coprime, so each gcd is decided by the mod-p proof, with no
    # recursive tpoly_gcd call to count
    dens = [_t(text) for text in ("t1 + 1/2", "t2 - 3", "t1*t3 + 2")]
    rng = random.Random(24)
    for distinct in (1, 2, 3):
        coeffs = {k: Scalar(rand_tpoly(rng, 3, degree=2, max_terms=3) + TPoly.one(3),
                            dens[k % distinct] if k % 4 else TPoly.one(3))
                  for k in range(30)}
        with mock.patch.object(scalars, "tpoly_gcd", wraps=scalars.tpoly_gcd) as spy:
            got = clear_denominators(3, coeffs)
        # the first denominator becomes the lcm; each later one costs one gcd
        assert spy.call_count == distinct - 1
        assert got == _clear_per_coefficient(3, coeffs)


def test_clear_denominators_over_one_shared_denominator_divides_nothing():
    """Coefficients over one t-denominator d (equal TPolys, not one object)
    or over 1 clear to d with no gcd and no exact division: a coefficient
    over d keeps its numerator, and a polynomial one is multiplied by d."""
    rng = random.Random(26)
    coeffs = {k: Scalar(rand_tpoly(rng, 3, degree=2, max_terms=3) + TPoly.one(3),
                        _t("t1*t3 + 2") if k % 3 else TPoly.one(3))
              for k in range(12)}
    with mock.patch.object(scalars, "tpoly_gcd", wraps=scalars.tpoly_gcd) as gcd, \
            mock.patch.object(TPoly, "exact_div", autospec=True,
                              side_effect=TPoly.exact_div) as div:
        den, nums = clear_denominators(3, coeffs)
    assert (gcd.call_count, div.call_count) == (0, 0)
    assert den == _t("t1*t3 + 2")
    assert nums == {k: c.num if k % 3 else c.num * den for k, c in coeffs.items()}
    assert (den, nums) == _clear_per_coefficient(3, coeffs)


@pytest.mark.parametrize("value", [
    TPoly.zero(3),
    _t("t1^2 - 1/2*t2 + 3"),
    Scalar.zero(3),
    Scalar._poly(_t("-t3 + 1")),
    Scalar._poly(_t("t2 - 1")) / Scalar._poly(_t("2*t1*t2 + t3")),
])
def test_repr_is_the_printed_text(value):
    text = tpoly_text(value) if isinstance(value, TPoly) else scalar_text(value)
    assert repr(value) == f"{type(value).__name__}({text})"

"""Differential polynomial arithmetic, derivations and evaluation."""

import collections
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffalg import (
    DiffPoly,
    ModelPoint,
    ParseError,
    RingContext,
    Scalar,
    TPoly,
    eval_at_model_point,
    parse_poly,
    poly_text,
    scalar_text,
)
from diffalg import poly, sparse
from diffalg.poly import mono_from, mono_mul
from diffalg.ring import CONSTANTS, RATIONAL_T, DerivVar, xvar

from conftest import rand_model_point, rand_poly

RT = RingContext(m=2, n=2, field_mode=RATIONAL_T)


def P(s):
    return parse_poly(s, RT)


class TestParsing:
    def test_grammar_examples(self):
        p = P("d1 x1^2 + t1*x2")
        v = DerivVar("x", 1, (1, 0))
        assert p.terms[((v, 2),)] == Scalar.one(3)
        assert p.terms[((xvar(RT, 2), 1),)] == Scalar.t(3, 1)

    def test_zero_is_empty(self):
        assert P("0").terms == {}
        assert P("x1 - x1").is_zero()

    def test_canonicalization(self):
        assert P("x1*x1") == P("x1^2")
        assert P("(x1+1)*(x1-1)") == P("x1^2 - 1")
        assert P("d1 d1 x2") == P("d1d1x2")

    def test_whitespace_insensitive(self):
        assert P(" d1  d2   x1 ") == P("d1d2x1")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            P("x1 + @")
        assert exc.value.pos == 5

    def test_index_out_of_range(self):
        with pytest.raises(ParseError):
            P("x3")
        with pytest.raises(ParseError):
            P("d3 x1")
        with pytest.raises(ParseError):
            P("t4")

    def test_t_requires_rational_mode(self):
        plain = RingContext(m=2, n=2)
        with pytest.raises(ParseError):
            parse_poly("t1", plain)

    def test_rationals(self):
        assert P("2/3") == DiffPoly.const(RT, Fraction(2, 3))
        with pytest.raises(ParseError):
            P("1/0")


class TestArithmetic:
    def test_additive_inverse(self):
        x1 = P("x1")
        assert (x1 + (-x1)).is_zero()

    def test_product(self):
        assert P("x1 + 1") * P("x1 - 1") == P("x1^2 - 1")

    def test_power(self):
        assert P("d1x1") ** 3 == P("d1x1^3")
        with pytest.raises(ValueError):
            P("x1") ** -1

    def test_mixed_rings_rejected(self):
        other = RingContext(m=1, n=1, field_mode=RATIONAL_T)
        with pytest.raises(ValueError):
            P("x1") + parse_poly("x1", other)


class TestDerivations:
    def test_leibniz_examples(self):
        assert P("x1^2").derive(1) == P("2*x1*d1x1")
        assert P("x1*d1x1").derive(2) == P("d2x1*d1x1 + x1*d1d2x1")
        assert P("t1*x1").derive(1) == P("x1 + t1*d1x1")

    def test_d_is_not_a_direct_derivation(self):
        with pytest.raises(ValueError):
            P("x1").derive(3)

    def test_formal_partial_examples(self):
        v = DerivVar("x", 1, (1, 0))
        assert P("x1*d1x1^2").formal_partial(v) == P("2*x1*d1x1")
        assert P("x2^3").formal_partial(v).is_zero()
        w = DerivVar("x", 1, (0, 1))
        assert P("d2x1^3").formal_partial(w) == P("3*d2x1^2")

    def test_commutation_random(self, rng):
        for _ in range(60):
            f = rand_poly(rng, RT, allow_t=True)
            assert f.derive(1).derive(2) == f.derive(2).derive(1)

    def test_leibniz_random(self, rng):
        for _ in range(60):
            f = rand_poly(rng, RT, allow_t=True)
            g = rand_poly(rng, RT, allow_t=True)
            for i in (1, 2):
                assert (f * g).derive(i) == f * g.derive(i) + g * f.derive(i)


class TestEvaluation:
    def test_examples(self):
        p = ModelPoint(RT, {1: TPoly(3, {(2, 0, 0): 1}), 2: TPoly.zero(3)})  # x1 := t1^2
        assert eval_at_model_point(P("d1x1"), p) == Scalar._poly(TPoly(3, {(1, 0, 0): 2}))
        assert eval_at_model_point(P("d2x1"), p).is_zero()
        q = ModelPoint(RT, {1: TPoly.var(3, 1), 2: TPoly.zero(3)})  # x1 := t1
        assert eval_at_model_point(P("x1*d1x1"), q) == Scalar.t(3, 1)

    def test_unassigned_variable(self):
        p = ModelPoint(RT, {1: TPoly.var(3, 1)})
        with pytest.raises(ValueError):
            eval_at_model_point(P("x2"), p)

    def test_y_variable_rejected(self):
        p = ModelPoint(RT, {1: TPoly.var(3, 1), 2: TPoly.var(3, 2)})
        with pytest.raises(ValueError):
            eval_at_model_point(P("y1"), p)

    def test_evaluation_commutes_with_derivation(self, rng):
        for _ in range(40):
            f = rand_poly(rng, RT, allow_t=True, max_degree=2, max_terms=3)
            p = rand_model_point(rng, RT)
            for i in (1, 2):
                assert eval_at_model_point(f.derive(i), p) == eval_at_model_point(f, p).diff(i)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_print_parse_round_trip(seed):
    rng = random.Random(seed)
    f = rand_poly(rng, RT, allow_t=True)
    assert parse_poly(poly_text(f), RT) == f


def test_printing_is_deterministic(rng):
    f = rand_poly(rng, RT, allow_t=True)
    g = DiffPoly(RT, dict(reversed(list(f.terms.items()))))
    assert poly_text(f) == poly_text(g)


class TestDenominatorPrinting:
    """A t-denominator prints as (numerator) / (denominator); nothing raises."""

    def test_poly_over_common_denominator(self):
        f = P("x1 + t1").scale(Scalar.one(3) / P("t1 + 1").scalar_value())
        assert poly_text(f) == "(x1 + t1) / (t1 + 1)"
        assert repr(f) == "DiffPoly((x1 + t1) / (t1 + 1))"

    def test_scalar_over_denominator(self):
        s = P("t2 - 1").scalar_value() / P("2*t1").scalar_value()
        assert scalar_text(s) == "(1/2*t2 - 1/2) / (t1)"
        assert poly_text(DiffPoly.const(RT, s)) == scalar_text(s)

    def test_denominators_sharing_a_factor(self):
        """The lcm of t1 + 1/2 and t1*t2 + 1/2*t2 prints monic, in printing
        and in evaluation."""
        one = Scalar.one(3)
        f = (P("x1").scale(one / P("t1 + 1/2").scalar_value())
             + P("x2").scale(one / P("t1*t2 + 1/2*t2").scalar_value()))
        assert poly_text(f) == "(x2 + t2*x1) / (t1*t2 + 1/2*t2)"
        point = ModelPoint(RT, {1: TPoly.var(3, 2), 2: TPoly.one(3)})  # x1 := t2, x2 := 1
        assert scalar_text(eval_at_model_point(f, point)) == "(t2^2 + 1) / (t1*t2 + 1/2*t2)"


RC = RingContext(m=2, n=2, field_mode=CONSTANTS)
# rational_t rings with 2, 3 and 4 t-variables: the packed t-exponents' layout depends on nt
R1, R3 = (RingContext(m=m, n=2, field_mode=RATIONAL_T) for m in (1, 3))


def _monos(m):
    x1, x2 = DerivVar("x", 1, (0,) * m), DerivVar("x", 2, (0,) * m)
    d1x1 = x1.derived(1)
    return [mono_from(k) for k in ((), [(x1, 1)], [(x1, 2)], [(x1, 1), (x2, 1)], [(d1x1, 1)])]


# small and large t-exponents (up to 128), so that products reach t-degrees above 250
_T_EXPONENTS = st.sampled_from([0, 0, 1, 2, 31, 32, 127, 128])
_T_COEFFS = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.sampled_from([1, 1, 2, 3, 35]))


@st.composite
def _diffpoly(draw, ring):
    nt = ring.nt
    exps = st.just((0,) * nt) if ring.field_mode == CONSTANTS else st.tuples(*[_T_EXPONENTS] * nt)
    coeffs = st.dictionaries(exps, _T_COEFFS, min_size=1, max_size=3)
    terms = draw(st.dictionaries(st.sampled_from(_monos(ring.m)), coeffs, max_size=4))
    return DiffPoly(ring, {m: Scalar(TPoly(nt, t)) for m, t in terms.items()})


def _flip_term(f, rng):
    """f with one whole term negated: cross terms of f*g cancel."""
    m = rng.choice(sorted(f.terms, key=str))
    return DiffPoly(f.ring, {k: -c if k == m else c for k, c in f.terms.items()})


def _flip_t_term(f, rng):
    """f with one t-term of one coefficient negated: single t-terms cancel."""
    m = rng.choice(sorted(f.terms, key=str))
    num = f.terms[m].num.terms
    e = rng.choice(sorted(num))
    c = Scalar(TPoly(f.ring.nt, {k: -q if k == e else q for k, q in num.items()}))
    return DiffPoly(f.ring, {**f.terms, m: c})


@st.composite
def _diffpoly_pairs(draw):
    """Two DiffPolys of one ring (rational_t with m = 1, 2 or 3, or
    constants); some pairs are (f, f with a term or a t-term negated), and
    some rational_t pairs carry a coefficient with a t-denominator."""
    ring = draw(st.sampled_from([RT, RT, R1, R3, RC]))
    a = draw(_diffpoly(ring))
    rng = random.Random(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["free", "term", "t-term", "rational"]))
    if kind == "term" and a.terms:
        return a, _flip_term(a, rng)
    if kind == "t-term" and a.terms:
        return a, _flip_t_term(a, rng)
    b = draw(_diffpoly(ring))
    if kind == "rational" and ring is not RC and b.terms:
        m = rng.choice(sorted(b.terms, key=str))
        den = parse_poly(f"t1 + 2*t{ring.nt}", ring).scalar_value()
        b = DiffPoly(ring, {**b.terms, m: b.terms[m] / den})
    return a, b


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_diffpoly_pairs())
def test_integer_product_matches_the_term_loop(pair):
    a, b = pair
    expect = sparse.mul(a.terms, b.terms, mono_mul)
    with mock.patch.object(poly, "_sum_over_z", wraps=poly._sum_over_z) as over_z:
        got = a * b
    assert got.terms == expect
    one = TPoly.one(a.ring.nt)
    dens = {c.den for f in (a, b) for c in f.terms.values()} - {one}
    assert over_z.called == (len(dens) < 2 and len(a.terms) >= 2 and len(b.terms) >= 2)
    if not dens:
        for c in got.terms.values():
            assert c.den is one and all(type(q) is Fraction and q for q in c.num.terms.values())


class TestIntegerProductExamples:
    def test_whole_terms_cancel(self):
        assert P("x1 + t1*x2") * P("x1 - t1*x2") == P("x1^2 - t1^2*x2^2")

    def test_single_t_terms_cancel(self):
        f = P("t1*x1 + 1/2*t2*x1 + 1")
        g = P("t1*x1 - 1/2*t2*x1 + 3")
        assert f * g == P("t1^2*x1^2 - 1/4*t2^2*x1^2 + 4*t1*x1 + t2*x1 + 3")

    def test_high_t_degrees_match_the_term_loop(self):
        f, g = P("x1 + t1*x2"), P("t1^200*x1 + 1/3*t2^129*x2")
        assert (f * g).terms == sparse.mul(f.terms, g.terms, mono_mul)
        assert (g * f).terms == sparse.mul(g.terms, f.terms, mono_mul)

    @pytest.mark.parametrize("f, g, runs, products", [
        # operands that fit 16-bit fields, a product past 2**15
        ("t1^20000*x1 + t2*x2", "t1^20000*x1 - 1/3*t3^7*x2", [16, 32], [16, 32]),
        # operands past 2**15 and 2**20
        ("t1^32768*x1 + t2^1048576*x2", "t1^1048577*x1 - 1/3*t3^40000*x2", [16, 32], [32]),
        # operands that fit 32-bit fields, a product past 2**31
        ("t3^1500000000*x1 + x2", "t3^1500000000*x1 + 2*t1*x2", [16, 32, 64], [32, 64]),
    ])
    def test_t_exponents_past_the_fields_match_the_term_loop(self, f, g, runs, products):
        """The Z[t] loop starts at 16-bit fields and reruns at double the
        width while an exponent outgrows them: packing an operand raises, or
        a product sets a guard bit."""
        f, g = P(f), P(g)
        with mock.patch.object(poly, "_into_z", wraps=poly._into_z) as into_z, \
                mock.patch.object(poly, "_sum_over_z", wraps=poly._sum_over_z) as over_z:
            got = poly._sum_of_products(((f, g), (g, f)))
        assert list(dict.fromkeys(call.args[0].width for call in into_z.call_args_list)) == runs
        assert [call.args[1].width for call in over_z.call_args_list] == products
        assert got.terms == _term_loop_sum(((f, g), (g, f)))


def _term_loop_sum(pairs):
    """The sum of a*b over the pairs, every product term by term."""
    out = {}
    for a, b in pairs:
        out = sparse.add(out, sparse.mul(a.terms, b.terms, mono_mul))
    return out


class TestSumOfProducts:
    """_sum_of_products gives the terms of the summed term-by-term products,
    whatever the operands' t-denominators; each input class below occurs."""

    DENS = [P(t).scalar_value().num for t in ("t1 + 2*t3", "t2 - 3", "t1*t2 + 1")]

    def _operand(self, rng, kind, den):
        f = rand_poly(rng, RT, max_order=2, max_degree=2, max_terms=4, allow_t=True,
                      nonzero=True)
        if kind == "one-term" and rng.random() < 0.5:
            m = rng.choice(sorted(f.terms, key=str))
            f = DiffPoly(RT, {m: f.terms[m]})
        if den is not None and rng.random() < 0.7:
            f = f.scale(Scalar(TPoly.one(RT.nt), den))
        return f

    @staticmethod
    def _classes(pairs):
        """The input classes of pairs: by its distinct t-denominators other
        than 1, and "one-term" when some operand has one term."""
        seen = {c.den for a, b in pairs for f in (a, b) for c in f.terms.values()}
        seen.discard(TPoly.one(RT.nt))
        dens = "polynomial" if not seen else "one shared den" if len(seen) == 1 else "two dens"
        return {dens} | ({"one-term"} if any(len(f.terms) < 2 for pair in pairs for f in pair)
                         else set())

    @pytest.mark.parametrize("kind", ["polynomial", "one shared den", "two dens", "one-term"])
    def test_equals_the_term_loop(self, kind):
        rng = random.Random(kind)
        census = collections.Counter()
        for _ in range(80):
            dens = {"polynomial": [None], "one-term": [None, self.DENS[0]],
                    "one shared den": [self.DENS[0]], "two dens": self.DENS[:2]}[kind]
            pairs = [(self._operand(rng, kind, rng.choice(dens)),
                      self._operand(rng, kind, rng.choice(dens)))
                     for _ in range(rng.randint(1, 4))]
            assert poly._sum_of_products(pairs).terms == _term_loop_sum(pairs)
            census.update(self._classes(pairs))
        assert census[kind] >= 5, census

    @pytest.mark.parametrize("den", [None, "t1 + 2*t3"])
    def test_a_sum_that_cancels_is_zero(self, den):
        rng = random.Random(den)
        scale = Scalar.one(RT.nt) if den is None else Scalar(TPoly.one(RT.nt),
                                                             P(den).scalar_value().num)
        for _ in range(40):
            a, b, c = (rand_poly(rng, RT, max_terms=4, allow_t=True, nonzero=True).scale(scale)
                       for _ in range(3))
            pairs = [(a, b), (c, a), (-b, a), (a, -c)]
            assert not _term_loop_sum(pairs)
            assert poly._sum_of_products(pairs) == DiffPoly.zero(RT)


def test_split_takes_out_one_power():
    """coeff * v^k + rest == p, coeff is free of v and no term of rest has
    degree k in v; k = 0, a v absent from p and the zero polynomial included."""
    rng = random.Random(919)
    kinds = {"k = 0": 0, "absent": 0, "zero": 0, "both parts": 0}
    for i in range(400):
        p = DiffPoly.zero(RT) if i % 20 == 0 else rand_poly(
            rng, RT, max_order=2, max_degree=4, max_terms=5, allow_t=True)
        present = sorted(p.variables(), key=lambda v: v.sort_key)
        if present and rng.random() < 0.8:
            v = rng.choice(present)
        else:
            v = xvar(RT, rng.randint(1, 2), (3, 0))  # rand_poly stops at order 2
        k = rng.randint(0, p.degree_in(v) + 1)
        coeff, rest = p.split(v, k)
        assert coeff * DiffPoly.var(RT, v, k) + rest == p
        assert v not in coeff.variables()
        assert all(dict(m).get(v, 0) != k for m in rest.terms)
        kinds["k = 0"] += k == 0
        kinds["absent"] += v not in present
        kinds["zero"] += p.is_zero()
        kinds["both parts"] += bool(coeff) and bool(rest)
    assert all(n >= 20 for n in kinds.values()), kinds

"""Differential polynomial arithmetic, derivations and evaluation."""

import random
from fractions import Fraction

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
from diffalg.ring import RATIONAL_T, DerivVar, xvar

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

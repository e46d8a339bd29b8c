"""The prolongation operator and its exact identities."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffalg import (
    DiffPoly,
    ModelPoint,
    RingContext,
    Scalar,
    TPoly,
    d_compatibility_check,
    parse_poly,
    poly_text,
    tau,
    tau_set,
)
from diffalg.prolong import TauPoly
from diffalg.ring import RATIONAL_T

from conftest import rand_model_point, rand_poly

RT = RingContext(m=2, n=2, field_mode=RATIONAL_T)
R11 = RingContext(m=1, n=1, field_mode=RATIONAL_T)


def P(s, ring=RT):
    return parse_poly(s, ring)


class TestTauExamples:
    def test_single_variable(self):
        assert tau(P("x1")).value == P("y1")

    def test_chain_rule_on_square(self):
        assert tau(P("x1^2")).value == P("2*x1*y1")

    def test_coefficient_derivative(self):
        # the last t-symbol carries the extra derivation
        assert tau(P("t3*x1")).value == P("x1 + t3*y1")

    def test_derivative_variable(self):
        assert tau(P("d1x1")).value == P("d1y1")

    def test_rejects_y_input(self):
        with pytest.raises(ValueError):
            tau(P("y1"))

    def test_tau_set_order_and_empty(self):
        pairs = tau_set([P("d1x1"), P("x1^2")])
        assert [(poly_text(f), poly_text(t.value)) for f, t in pairs] == [
            ("d1x1", "d1y1"),
            ("x1^2", "2*x1*y1"),
        ]
        assert tau_set([]) == []


class TestTauInvariants:
    def test_y_linearity_enforced(self):
        with pytest.raises(ValueError):
            TauPoly(P("y1^2"))

    def test_zero_y_recovers_coefficient_derivative(self, rng):
        for _ in range(30):
            f = rand_poly(rng, RT, allow_t=True)
            y_free = {
                m: c for m, c in tau(f).value.terms.items()
                if all(v.family != "y" for v, _ in m)
            }
            assert y_free == DiffPoly(RT, {m: c.diff(RT.nt) for m, c in f.terms.items()}).terms

    def test_defining_formula(self, rng):
        # tau f = (coefficients of f differentiated in t3) + sum_v (df/dv) * shadow(v)
        for _ in range(200):
            f = rand_poly(rng, RT, allow_t=True)
            want = DiffPoly(RT, {m: c.diff(RT.nt) for m, c in f.terms.items()})
            for v in f.variables():
                want = want + f.formal_partial(v) * DiffPoly.var(RT, v.shadow("y"))
            assert tau(f).value == want

    def test_product_rule(self, rng):
        for _ in range(60):
            f = rand_poly(rng, RT, max_degree=3, allow_t=True)
            g = rand_poly(rng, RT, max_degree=3, allow_t=True)
            assert tau(f * g).value == f * tau(g).value + g * tau(f).value

    def test_scalar_linearity(self, rng):
        from conftest import rand_scalar

        for _ in range(40):
            f = rand_poly(rng, RT, allow_t=True)
            g = rand_poly(rng, RT, allow_t=True)
            a = rand_scalar(rng, RT, allow_t=True)
            b = rand_scalar(rng, RT, allow_t=True)
            lhs = tau(f.scale(a) + g.scale(b)).value
            rhs = (
                tau(f).value.scale(a)
                + tau(g).value.scale(b)
                + f.scale(a.diff(RT.nt))
                + g.scale(b.diff(RT.nt))
            )
            assert lhs == rhs

    def test_commutes_with_derivations(self, rng):
        for _ in range(40):
            f = rand_poly(rng, RT, allow_t=True)
            for i in (1, 2):
                assert tau(f.derive(i)).value == tau(f).value.derive(i)


class TestChainRule:
    def test_examples(self):
        p = ModelPoint(R11, {1: TPoly.var(2, 2)})  # x1 := t2, with m = 1
        rep = d_compatibility_check(P("x1^2", R11), p)
        assert rep.ok and rep.lhs == Scalar._poly(TPoly(2, {(0, 1): 2}))

        q = ModelPoint(RT, {1: TPoly(3, {(1, 0, 1): 1}), 2: TPoly.zero(3)})  # x1 := t1*t3
        rep = d_compatibility_check(P("d1x1"), q)
        assert rep.ok and rep.lhs == Scalar.one(3)

        r = ModelPoint(RT, {1: TPoly.one(3), 2: TPoly.zero(3)})
        rep = d_compatibility_check(P("t3*x1"), r)
        assert rep.ok and rep.lhs == Scalar.one(3)

    def test_requires_t_mode(self):
        plain = RingContext(m=1, n=1)
        p = ModelPoint(plain, {1: TPoly.var(2, 1)})
        with pytest.raises(ValueError):
            d_compatibility_check(parse_poly("x1", plain), p)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_chain_rule_random(seed):
    rng = random.Random(seed)
    f = rand_poly(rng, RT, max_order=2, max_degree=3, allow_t=True)
    p = rand_model_point(rng, RT, degree=2, height=3)
    assert d_compatibility_check(f, p).ok

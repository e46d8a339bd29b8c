"""Groebner backend: bases, membership, elimination, saturation, primality."""

import random

import pytest

from diffalg import (
    AlgIdeal,
    PrimalityConfig,
    RingContext,
    buchberger,
    eliminate,
    ideal_member,
    macaulay_member,
    parse_poly,
    poly_text,
    primality_oracle,
    saturate,
)
from diffalg.ring import xvar

R = RingContext(m=0, n=3)
X = tuple(xvar(R, j) for j in (1, 2, 3))


def P(s):
    return parse_poly(s, R)


def ideal(*texts, variables=X[:2], order="grevlex"):
    return AlgIdeal(R, tuple(variables), tuple(P(t) for t in texts), order)


class TestBuchberger:
    def test_already_reduced(self):
        I = buchberger(ideal("x1", "x2"))
        assert set(I.basis) == {P("x1"), P("x2")}

    def test_lex_example(self):
        I = buchberger(ideal("x1^2 - 1", "x1*x2 - 1", order="lex"))
        assert set(I.basis) == {P("x1 - x2"), P("x2^2 - 1")}

    def test_zero_ideal(self):
        I = buchberger(ideal("0"))
        assert I.basis == ()

    def test_variable_outside_ideal_rejected(self):
        with pytest.raises(ValueError):
            ideal("x3", variables=X[:2])


class TestMembership:
    def test_examples(self):
        assert ideal_member(P("x1^2 - x2^2"), ideal("x1 - x2")).member
        assert not ideal_member(P("1"), ideal("x1")).member
        assert not ideal_member(P("x1"), ideal("x1^2", "x1*x2 - x1")).member

    def test_certificate_reassembles(self):
        I = buchberger(ideal("x1^2 - 1", "x1*x2 - 1"))
        cert = ideal_member(P("x1 - x2"), I)
        assert cert.member
        total = cert.normal_form
        for q, b in zip(cert.quotients, I.basis):
            total = total + q * b
        assert total == P("x1 - x2")


class TestEliminate:
    def test_graph_projects_onto_line(self):
        out = eliminate(ideal("x2 - x1^2"), {X[1]})
        assert out.generators == ()

    def test_unit_ideal_stays_unit(self):
        out = eliminate(ideal("x1*x2 - 1", "x1"), {X[1]})
        assert [poly_text(g) for g in out.generators] == ["1"]

    def test_empty_drop_is_identity(self):
        I = ideal("x1 - x2")
        out = eliminate(I, set())
        assert out.generators == I.generators

    def test_only_kept_variables_survive(self):
        out = eliminate(ideal("x1^2 + x2^2 - 1", "x1 - x2"), {X[0]})
        assert all(v == X[1] for g in out.generators for v in g.variables())


class TestSaturate:
    def test_strips_a_factor(self):
        out = saturate(ideal("x1*x2"), P("x1"))
        assert [poly_text(g) for g in out.generators] == ["x2"]

    def test_unrelated_divisor(self):
        out = saturate(ideal("x1"), P("x2"))
        assert [poly_text(g) for g in out.generators] == ["x1"]

    def test_nilpotent_blows_up(self):
        out = saturate(ideal("x1^2"), P("x1"))
        assert [poly_text(g) for g in out.generators] == ["1"]

    def test_contains_original_and_idempotent(self, rng):
        for _ in range(15):
            gens = [_rand_gen(rng) for _ in range(rng.randint(1, 2))]
            I = AlgIdeal(R, X[:2], tuple(gens))
            h = _rand_gen(rng)
            if h.is_zero():
                continue
            S1 = buchberger(saturate(I, h))
            for g in gens:
                assert ideal_member(g, S1).member
            S2 = saturate(S1, h)
            B2 = buchberger(S2)
            assert set(B2.basis) == set(S1.basis)


class TestPrimality:
    def test_linear_prime(self):
        v = primality_oracle(ideal("x1 - x2"))
        assert v.status == "prime" and v.method == "linear"

    def test_square_not_prime_with_witness(self):
        v = primality_oracle(ideal("x1^2", variables=X[:1]))
        assert v.status == "not_prime"
        a, b = v.witness
        assert a == P("x1") and b == P("x1")

    def test_irreducible_quadratic(self):
        v = primality_oracle(ideal("x1^2 + 1", variables=X[:1]))
        assert v.status == "prime" and v.method == "principal-irreducible"
        assert "irreducible mod 3" in v.note

    @pytest.mark.parametrize("text", ["x1^2 - 9", "x1^3 - 27", "(x1^2+3)*(2*x1^2+x1+3)"])
    def test_reducible_generator_is_never_prime(self, text):
        assert primality_oracle(ideal(text, variables=X[:1])).status != "prime"

    def test_reducible_mod_every_prime_is_unknown(self):
        # x1^4 + 1 is irreducible over Q but factors mod every prime
        v = primality_oracle(ideal("x1^4 + 1", variables=X[:1]))
        assert v.status == "unknown" and "no irreducibility proof" in v.note

    def test_exhausted_multivariate_search_is_unknown(self):
        assert primality_oracle(ideal("x1^3 + x2^3 + 1")).status == "unknown"

    def test_products_of_random_polynomials_are_never_prime(self):
        rng = random.Random(11)
        for _ in range(25):
            factors = []
            for _ in range(2):
                deg = rng.randint(1, 2)
                coeffs = [rng.randint(-3, 3) for _ in range(deg)] + [rng.choice([-2, -1, 1, 2])]
                factors.append("(" + " + ".join(f"({c})*x1^{k}" for k, c in enumerate(coeffs)) + ")")
            v = primality_oracle(ideal("*".join(factors), variables=X[:1]))
            assert v.status != "prime", factors

    def test_unit_ideal(self):
        v = primality_oracle(ideal("x1", "x1 - 1", variables=X[:1]))
        assert v.status == "not_prime" and v.witness is None
        assert "unit ideal" in v.note

    def test_probe_finds_product_ideal_witness(self):
        # <x1*x2, x1*x3, x2*x3> is not prime; the probe should notice
        v = primality_oracle(
            AlgIdeal(R, X, (P("x1*x2"), P("x1*x3"), P("x2*x3"))),
            PrimalityConfig(probe_trials=200, seed=3),
        )
        assert v.status == "not_prime"
        a, b = v.witness
        assert ideal_member(a * b, buchberger(AlgIdeal(R, X, (P("x1*x2"), P("x1*x3"), P("x2*x3"))))).member

    def test_asserted_certificate_recorded(self):
        v = primality_oracle(
            ideal("x1^3 + x2^3 + 1", "x1*x2 - 1"),
            PrimalityConfig(probe_trials=5, assert_prime=True),
        )
        assert v.status == "prime" and v.method == "certificate"


class TestMacaulay:
    def test_examples(self):
        assert macaulay_member(P("x1 - x2"), ideal("x1^2 - 1", "x1*x2 - 1"), 3).decisive
        assert macaulay_member(P("1"), ideal("x1", variables=X[:1]), 5).status == "not_at_bound"
        assert macaulay_member(P("x1^2"), ideal("x1", variables=X[:1]), 2).decisive

    def test_bound_too_small(self):
        res = macaulay_member(P("x1^4"), ideal("x1", variables=X[:1]), 3)
        assert res.status == "bound_too_small"


class TestCoefficientDomain:
    """Constant ideals run over Fractions, others over Scalars, with one meaning."""

    RINGS = (RingContext(m=0, n=3), RingContext(m=0, n=3, field_mode="rational_t"))
    TEXTS = (
        ("x1^2 - 1/2", "x1*x2 - 3/4"),
        ("2*x1^2 + x2 - 1", "x1*x2^2 - 5/3*x1", "x2^3 + x1"),
        ("x1*x2 - x3", "x2*x3 - 2/7*x1", "x1^2 - x3^2 + 1"),
    )

    def _ideal(self, ring, texts, order="grevlex"):
        variables = tuple(xvar(ring, j) for j in (1, 2, 3))
        return AlgIdeal(ring, variables, tuple(parse_poly(t, ring) for t in texts), order)

    def test_constant_ideals_take_fraction_path(self):
        from fractions import Fraction

        from diffalg.algebra import _freeze

        for ring in self.RINGS:
            I = self._ideal(ring, self.TEXTS[0])
            frozen, one = _freeze(I.generators, I.variables)
            assert one == 1 and isinstance(one, Fraction)
            assert all(isinstance(c, Fraction) for p in frozen for c in p.values())

    def test_bases_agree_across_rings(self):
        for texts in self.TEXTS:
            for order in ("grevlex", "lex"):
                bases = [
                    [poly_text(g) for g in buchberger(self._ideal(r, texts, order)).basis]
                    for r in self.RINGS
                ]
                assert bases[0] == bases[1]

    def test_t_coefficient_keeps_scalar_path(self):
        from diffalg import Scalar
        from diffalg.algebra import _freeze

        ring = self.RINGS[1]
        I = AlgIdeal(ring, X[:2], (parse_poly("t1*x1 - 1", ring), parse_poly("x1^2 - x2", ring)))
        frozen, one = _freeze(I.generators, I.variables)
        assert isinstance(one, Scalar)
        assert all(isinstance(c, Scalar) for p in frozen for c in p.values())
        basis = [poly_text(g) for g in buchberger(I).basis]
        assert basis == ["t1^2*x2 - 1", "t1*x1 - 1"]
        assert ideal_member(parse_poly("t1^3*x1*x2 - 1", ring), I).member

    def test_macaulay_and_saturate_agree_across_rings(self):
        for texts in self.TEXTS[:2]:
            for probe in ("x1^2*x2 - 1/2*x2", "x1 + x2", "3/4*x1 - 1/2*x2"):
                verdicts = [
                    macaulay_member(parse_poly(probe, r), self._ideal(r, texts), 4).status
                    for r in self.RINGS
                ]
                assert verdicts[0] == verdicts[1]
            sats = [
                saturate(self._ideal(r, texts), parse_poly("x1", r)).generators
                for r in self.RINGS
            ]
            sats = [[poly_text(g) for g in gens] for gens in sats]
            assert sats[0] == sats[1]


def _rand_gen(rng, max_terms=3, degree=3, height=2):
    import itertools
    from fractions import Fraction

    from diffalg import DiffPoly, Scalar
    from diffalg.poly import mono_from

    monos = [
        e for e in itertools.product(range(degree + 1), repeat=2) if 0 < sum(e) <= degree
    ]
    terms = {}
    for e in rng.sample(monos, k=rng.randint(1, max_terms)):
        c = rng.randint(-height, height)
        if c:
            terms[mono_from(zip(X[:2], e))] = Scalar.from_fraction(R.nt, Fraction(c))
    if rng.random() < 0.4:
        terms[()] = Scalar.from_fraction(R.nt, rng.randint(1, height))
    return DiffPoly(R, terms)


def test_member_agrees_with_macaulay_on_random_ideals(rng):
    import itertools

    from diffalg import DiffPoly

    checked = 0
    for _ in range(30):
        gens = [_rand_gen(rng) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        raw = AlgIdeal(R, X[:2], tuple(gens))
        I = buchberger(raw)
        # explicit combinations are visible to both oracles
        combo = DiffPoly.zero(R)
        for g in gens:
            combo = combo + g * _rand_gen(rng, max_terms=1, degree=2, height=1)
        if not combo.is_zero() and combo.total_degree() <= 6:
            assert macaulay_member(combo, raw, 6).decisive
            assert ideal_member(combo, I).member
            checked += 1
        probe = _rand_gen(rng)
        mres = macaulay_member(probe, raw, 6)
        if mres.decisive:
            assert ideal_member(probe, I).member
            checked += 1
    assert checked > 10

"""Groebner backend: bases, membership, elimination, saturation, primality."""

import random

import pytest

from diffalg import (
    AlgIdeal,
    MembershipCertificate,
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

    def test_repeated_and_redundant_leads(self):
        # x1^2 leads twice, and x1^3 - x1*x2 = x1*(x1^2 - x2) is redundant
        I = buchberger(ideal("x1^2 - x2", "x1^2 + x2^2", "x1^3 - x1*x2"))
        assert [poly_text(g) for g in I.basis] == ["x2^2 + x2", "x1^2 - x2"]

    def test_zero_ideal(self):
        I = buchberger(ideal("0"))
        assert I.basis == ()

    def test_variable_outside_ideal_rejected(self):
        with pytest.raises(ValueError, match="variable x3 outside the ideal's variables"):
            ideal("x3", variables=X[:2])
        with pytest.raises(ValueError, match="variable x3 outside the ideal's variables"):
            ideal("x1", "x2*x3 - 1", variables=X[:2])

    def test_the_backend_checks_each_generator_once(self, monkeypatch):
        """A user ideal is checked when built; buchberger, eliminate and
        saturate freeze its generators and check their own results no more."""
        from diffalg import algebra

        I = ideal("x1^2 - x2", "x1*x2 - 1", "x2^2 - x1")
        freeze, frozen = algebra.to_algpoly, []
        monkeypatch.setattr(algebra, "to_algpoly",
                            lambda f, *args: frozen.append(f) or freeze(f, *args))
        assert buchberger(I).basis and frozen == list(I.generators)
        frozen.clear()
        assert eliminate(I, {X[0]}).variables == X[1:2] and frozen == list(I.generators)
        frozen.clear()
        saturate(I, P("x1"))
        assert frozen == [P("x1"), *I.generators]


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

    def test_self_check_catches_a_wrong_basis(self, monkeypatch):
        from diffalg import algebra

        monkeypatch.setattr(algebra, "_buchberger", lambda gens, key: [g for g in gens if g])
        with pytest.raises(RuntimeError, match="S-polynomial self-check failed"):
            saturate(ideal("x1*x2"), P("x1"))

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
        I = buchberger(AlgIdeal(R, X, (P("x1*x2"), P("x1*x3"), P("x2*x3"))))
        for seed in range(6):
            v = primality_oracle(I, PrimalityConfig(seed=seed))
            assert v.status == "not_prime"
            a, b = v.witness
            assert ideal_member(a * b, I).member

    def test_t_denominator_witness_is_verified(self):
        ring = RingContext(m=1, n=2, field_mode="rational_t")
        I = AlgIdeal(ring, tuple(xvar(ring, j) for j in (1, 2)),
                     tuple(parse_poly(t, ring) for t in ("2 + t1*x2 + 2*x1", "x1^2")))
        v = primality_oracle(I)
        assert v.status == "not_prime"
        a, b = v.witness
        assert poly_text(a) == "(t1*x2 + 2) / (t1)" and poly_text(b) == "t1*x2 + 2"
        assert ideal_member(a * b, I).member


class TestMacaulay:
    def test_examples(self):
        assert macaulay_member(P("x1 - x2"), ideal("x1^2 - 1", "x1*x2 - 1"), 3).decisive
        assert macaulay_member(P("1"), ideal("x1", variables=X[:1]), 5).status == "not_at_bound"
        assert macaulay_member(P("x1^2"), ideal("x1", variables=X[:1]), 2).decisive

    def test_bound_too_small(self):
        res = macaulay_member(P("x1^4"), ideal("x1", variables=X[:1]), 3)
        assert res.status == "bound_too_small"


class TestCoefficientDomain:
    """Constant ideals run over ints, others over Scalars, with one meaning."""

    RINGS = (RingContext(m=0, n=3), RingContext(m=0, n=3, field_mode="rational_t"))
    TEXTS = (
        ("x1^2 - 1/2", "x1*x2 - 3/4"),
        ("2*x1^2 + x2 - 1", "x1*x2^2 - 5/3*x1", "x2^3 + x1"),
        ("x1*x2 - x3", "x2*x3 - 2/7*x1", "x1^2 - x3^2 + 1"),
    )

    def _ideal(self, ring, texts, order="grevlex"):
        variables = tuple(xvar(ring, j) for j in (1, 2, 3))
        return AlgIdeal(ring, variables, tuple(parse_poly(t, ring) for t in texts), order)

    def test_constant_ideals_take_int_path(self):
        from fractions import Fraction

        from diffalg.algebra import _freeze

        for ring in self.RINGS:
            I = self._ideal(ring, self.TEXTS[0])
            frozen, lift, scales = _freeze(I.generators, I.variables)
            assert lift is int
            assert all(type(c) is int for p in frozen for c in p.values())
            # x1^2 - 1/2 -> 2*x1^2 - 1 and x1*x2 - 3/4 -> 4*x1*x2 - 3
            assert scales == [Fraction(2), Fraction(4)]
            assert [sorted(p.values()) for p in frozen] == [[-1, 2], [-3, 4]]

    def test_a_constant_over_a_t_denominator_is_a_scalar(self):
        from diffalg import DiffPoly, Scalar, TPoly, parse_tpoly
        from diffalg.algebra import _freeze

        ring = self.RINGS[1]
        c = Scalar(TPoly.const(ring.nt, 3), parse_tpoly("t1 + 1", ring))
        assert c.num.is_const() and not c.is_const()
        x1, x2 = (xvar(ring, j) for j in (1, 2))
        over_t = DiffPoly(ring, {((x1, 1),): c})
        frozen, lift, scales = _freeze((over_t, parse_poly("x2 - 1", ring)), (x1, x2))
        assert lift is not int and isinstance(lift(1), Scalar) and scales == [1, 1]
        assert frozen[0] == {(1, 0): c}

    def test_all_zero_input_is_over_ints(self):
        from diffalg.algebra import _freeze

        for ring in self.RINGS:
            variables = tuple(xvar(ring, j) for j in (1, 2))
            zero = parse_poly("0", ring)
            assert _freeze((zero, zero), variables) == ([{}, {}], int, [1, 1])
            assert _freeze((), variables) == ([], int, [])

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
        frozen, lift, scales = _freeze(I.generators, I.variables)
        assert scales == [1, 1]
        assert lift(1) == Scalar.one(ring.nt) and isinstance(lift(1), Scalar)
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


class TestCachedBasis:
    """buchberger leaves its packed basis on the AlgIdeal it returns;
    ideal_member must answer exactly as on the same basis tuple in an
    AlgIdeal built by hand, which carries none."""

    T = RingContext(m=0, n=2, field_mode="rational_t")

    @staticmethod
    def _frozen_sizes(monkeypatch):
        from diffalg import algebra

        freeze, sizes = algebra._freeze, []
        monkeypatch.setattr(algebra, "_freeze",
                            lambda polys, vs: sizes.append(len(polys)) or freeze(polys, vs))
        return sizes

    def _agree(self, monkeypatch, I, texts, joint):
        """Every f in texts gets the same certificate with and without the
        cache; `joint` says whether ideal_member must freeze the basis again."""
        bare = AlgIdeal(I.ring, I.variables, I.generators, I.order, basis=I.basis)
        for text in texts:
            f = parse_poly(text, I.ring)
            sizes = self._frozen_sizes(monkeypatch)
            got = ideal_member(f, I)
            assert sizes == ([1, 1 + len(I.basis)] if joint else [1])
            want = ideal_member(f, bare)
            assert (got.member, got.normal_form, got.quotients) == (
                want.member, want.normal_form, want.quotients)
            assert [poly_text(q) for q in got.quotients] == [poly_text(q) for q in want.quotients]
            monkeypatch.undo()
        return bare

    def _ideal(self, ring, *texts, order="grevlex"):
        variables = tuple(xvar(ring, j) for j in (1, 2))
        gens = tuple(parse_poly(t, ring) for t in texts)
        return buchberger(AlgIdeal(ring, variables, gens, order))

    def test_constants_basis(self, monkeypatch):
        for order in ("grevlex", "lex"):
            I = self._ideal(R, "x1^2 - 1/2*x2", "2/3*x1*x2 - 1", order=order)
            texts = ["x1^3*x2 - 1/2*x1*x2^2", "3/4*x1^2 + x2", "0"]
            self._agree(monkeypatch, I, texts, joint=False)

    def test_rational_t_basis(self, monkeypatch):
        I = self._ideal(self.T, "t1*x1 - 1", "x1^2 - x2")
        assert [poly_text(g) for g in I.basis] == ["t1^2*x2 - 1", "t1*x1 - 1"]
        self._agree(monkeypatch, I, ["t1^3*x1*x2 - 1", "x1 + t1*x2^2 - 1/3*t1"], joint=False)
        # a constant f against a t-basis: frozen together, over Scalars
        self._agree(monkeypatch, I, ["x1*x2 - 3"], joint=True)

    def test_t_free_basis_of_a_t_ideal(self, monkeypatch):
        I = self._ideal(self.T, "t1*x1 - t1", "(t1 + 1)*x2^2 - t1 - 1")
        assert [poly_text(g) for g in I.basis] == ["x1 - 1", "x2^2 - 1"]
        # the cached basis is over Scalars: f with t uses it, a constant f
        # is frozen together with the basis, over int
        self._agree(monkeypatch, I, ["t1*x1*x2^3 - 1/2", "(t1 + 1)*x1^2 - t1"], joint=False)
        self._agree(monkeypatch, I, ["x1*x2^3 - 1/2", "x1^2 - 1"], joint=True)

    def test_t_coefficients_against_a_constants_basis(self, monkeypatch):
        I = self._ideal(self.T, "x1^2 - 1/2", "x1*x2 - x2")
        self._agree(monkeypatch, I, ["t1*x1^2 - 1/2*t1", "t1*x1 + x2^2"], joint=True)

    def test_replaced_basis_is_not_read_from_the_cache(self, monkeypatch):
        I = self._ideal(R, "x1^2 - x2", "x1*x2 - 1")
        J = self._ideal(R, "x1 - x2")
        f = P("x1^2 - x2^2")
        assert not ideal_member(f, I).member
        I.basis = J.basis
        bare = self._agree(monkeypatch, I, ["x1^2 - x2^2", "x1 + x2"], joint=True)
        assert ideal_member(f, I).member and ideal_member(f, bare).member


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


class TestSelfCheckCoversTheInput:
    """The emitted basis must generate an ideal containing every input generator."""

    def _drop_first_basis_element(self, monkeypatch):
        from diffalg import algebra

        interreduce = algebra._interreduce
        monkeypatch.setattr(algebra, "_interreduce", lambda G, key: interreduce(G, key)[1:])

    def test_buchberger_catches_a_dropped_element(self, monkeypatch):
        self._drop_first_basis_element(monkeypatch)
        with pytest.raises(RuntimeError, match="input generator"):
            buchberger(ideal("x1", "x2"))

    def test_eliminate_catches_a_dropped_element(self, monkeypatch):
        self._drop_first_basis_element(monkeypatch)
        with pytest.raises(RuntimeError, match="input generator"):
            eliminate(ideal("x1 - x2", "x2^2 - 1"), {X[0]})


def test_from_algpoly_rejects_a_float():
    from diffalg.algebra import from_algpoly

    with pytest.raises(RuntimeError, match="inexact coefficient"):
        from_algpoly({(1, 0): 0.5}, X[:2], R)


ZERO_DIVISOR_PAIR = ("2*x1*x2 - x2", "x2^2")


def _random_ideals(rng, count):
    """Seeded (ring, variables, generators) in both field modes, constant and
    t-dependent coefficients, plus two fixed ideals with zero divisors."""
    from conftest import rand_poly

    out = []
    for i in range(count):
        nv = rng.choice((2, 3))
        ring = RingContext(m=0, n=nv, field_mode=("constants", "rational_t")[i % 2])
        variables = tuple(xvar(ring, j) for j in range(1, nv + 1))
        gens = [
            rand_poly(rng, ring, max_degree=2, max_terms=3, height=3, allow_t=i % 4 == 3,
                      nonzero=True)
            for _ in range(rng.randint(1, 3))
        ]
        out.append((ring, variables, gens))
    for mode in ("constants", "rational_t"):
        ring = RingContext(m=0, n=2, field_mode=mode)
        variables = tuple(xvar(ring, j) for j in (1, 2))
        out.append((ring, variables, [parse_poly("x1^2 - 1/4", ring)]))
        out.append((ring, variables, [parse_poly(t, ring) for t in ZERO_DIVISOR_PAIR]))
    return out


def _combination(rng, ring, gens):
    """A member of (gens) by construction: sum of gens times random multipliers."""
    from conftest import rand_poly

    from diffalg import DiffPoly

    combo = DiffPoly.zero(ring)
    for g in gens:
        combo = combo + g * rand_poly(rng, ring, max_degree=2, max_terms=2, height=2)
    return combo


def test_every_coefficient_is_exact(rng):
    """No float or int leaks out of the integer path: every coefficient of
    every basis, normal form, quotient, eliminant, saturation and primality
    witness is a Scalar over exact Fractions."""
    from fractions import Fraction

    from conftest import rand_poly

    from diffalg import Scalar

    def exact(polys):
        return all(
            isinstance(c, Scalar)
            and all(type(v) is Fraction for t in (c.num, c.den) for v in t.terms.values())
            for p in polys for c in p.terms.values()
        )

    witnesses = 0
    for k, (ring, variables, gens) in enumerate(_random_ideals(rng, 16)):
        raw = AlgIdeal(ring, variables, tuple(gens))
        I = buchberger(raw)
        assert exact(I.basis)
        probe = _combination(rng, ring, gens) + rand_poly(rng, ring, max_degree=2, max_terms=2)
        cert = ideal_member(probe, I)
        assert exact([cert.normal_form, *cert.quotients])
        assert exact(eliminate(raw, {variables[0]}).generators)
        h = rand_poly(rng, ring, max_degree=1, max_terms=2, height=2, nonzero=True)
        assert exact(saturate(raw, h).generators)
        verdict = macaulay_member(probe, raw, 4)
        assert verdict.status in ("member", "not_at_bound", "bound_too_small")
        oracle = primality_oracle(I, PrimalityConfig(seed=k))
        if oracle.witness is not None:
            assert exact(oracle.witness)
            witnesses += 1
    assert witnesses >= 4


def test_membership_reexpands_with_diffpoly_arithmetic(rng):
    """f == nf + sum(q_i * g_i), recomputed in DiffPoly arithmetic over Scalars
    rather than the backend's own exponent-vector loop, in both field modes;
    and every constructed combination that ideal_member accepts is a member
    of the degree-6 span that macaulay_member searches."""
    from fractions import Fraction

    from conftest import rand_poly

    from diffalg import DiffPoly

    accepted = 0
    for ring, variables, gens in _random_ideals(rng, 16):
        raw = AlgIdeal(ring, variables, tuple(gens))
        I = buchberger(raw)
        # a basis that is not integer-primitive divides the same way
        scaled = AlgIdeal(ring, variables, I.generators,
                          basis=tuple(g.scale(Fraction(2, 3)) for g in I.basis))
        combo = _combination(rng, ring, gens)
        for f in (combo, combo + rand_poly(rng, ring, max_degree=2, max_terms=2)):
            cert = ideal_member(f, I)
            for J in (I, scaled):
                c = ideal_member(f, J)
                recomposed = c.normal_form
                for q, g in zip(c.quotients, J.basis):
                    recomposed = recomposed + q * g
                assert recomposed == f
                assert c.normal_form == cert.normal_form
            assert cert.member == (cert.normal_form == DiffPoly.zero(ring))
        if ideal_member(combo, I).member:
            assert macaulay_member(combo, raw, 6).status == "member"
            accepted += 1
    assert accepted >= 16


def test_probe_witness_is_divided_by_the_integer_scale():
    """The probes reduce over ints; the witness prints as the field normal form."""
    for mode in ("constants", "rational_t"):
        ring = RingContext(m=0, n=2, field_mode=mode)
        variables = tuple(xvar(ring, j) for j in (1, 2))
        I = AlgIdeal(ring, variables, tuple(parse_poly(t, ring) for t in ZERO_DIVISOR_PAIR))
        verdict = primality_oracle(I, PrimalityConfig(seed=1))
        assert verdict.status == "not_prime"
        assert [poly_text(w) for w in verdict.witness] == ["1/2*x2", "x2"]


KATSURA3 = (
    "x1 + 2*x2 + 2*x3 + 2*x4 - 1",
    "x1^2 + 2*x2^2 + 2*x3^2 + 2*x4^2 - x1",
    "2*x1*x2 + 2*x2*x3 + 2*x3*x4 - x2",
    "x2^2 + 2*x1*x3 + 2*x2*x4 - x3",
)
CYCLIC4 = (
    "x1 + x2 + x3 + x4",
    "x1*x2 + x2*x3 + x3*x4 + x4*x1",
    "x1*x2*x3 + x2*x3*x4 + x3*x4*x1 + x4*x1*x2",
    "x1*x2*x3*x4 - 1",
)


def _all_pairs_buchberger(gens, codec):
    """Buchberger with no criterion: every pair of every basis is reduced;
    the reference the Gebauer-Moeller update must agree with."""
    from diffalg.algebra import _interreduce, _primitive, _rem, _spoly

    G = [g for g in gens if g]
    pairs = [(i, j) for j in range(len(G)) for i in range(j)]
    while pairs:
        i, j = pairs.pop(0)
        rem = _rem(_spoly(G[i], G[j], codec), G, codec)
        if rem:
            G.append(_primitive(rem))
            pairs.extend((i, len(G) - 1) for i in range(len(G) - 1))
    return _interreduce(G, codec)


def _all_pairs_reduce(G, codec):
    """Does every S-polynomial of G, with no criterion, reduce to zero by G?"""
    from diffalg.algebra import _rem, _spoly

    return not any(_rem(_spoly(G[i], G[j], codec), G, codec)
                   for j in range(len(G)) for i in range(j))


def _self_check_passes(G, codec):
    from diffalg import algebra

    try:
        algebra._self_check(G, [], codec)
    except RuntimeError:
        return False
    return True


def _lead_heavy_ideals(rng, count):
    """Seeded (order, n, generators) over exponent vectors, alternating int and
    Scalar coefficients (a quarter with t, in two variables up to degree 2,
    where coefficients grow fast): one to three random generators, often one
    more with a repeated leading monomial and one more whose leading
    monomial a generator's divides."""
    from conftest import rand_scalar

    from diffalg.sparse import Packing, monomials

    ring = RingContext(m=0, n=1, field_mode="rational_t")
    for i in range(count):
        with_t = i % 4 == 3
        order, nv = rng.choice(("grevlex", "lex")), 2 if with_t else rng.choice((2, 3))
        key = Packing(order, nv, 16).encode
        monos = monomials(nv, 3 if nv == 2 and not with_t else 2)

        def coeff():
            if i % 2 == 0:
                return rng.choice((-3, -2, -1, 1, 2, 3))
            return rand_scalar(rng, ring, 3, allow_t=with_t, nonzero=True)

        def poly(lead=None):
            """Random terms, all below lead when it is given."""
            pool = [e for e in monos if lead is None or key(e) < key(lead)]
            picked = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
            return {e: coeff() for e in picked}

        gens = [poly() for _ in range(rng.randint(1, 3))]
        lead = max(rng.choice(gens), key=key)
        if rng.random() < 0.6:
            gens.append({lead: coeff(), **poly(lead)})
        if rng.random() < 0.6:
            k = rng.randrange(nv)
            g = rng.choice(gens)
            shifted = {e[:k] + (e[k] + 1,) + e[k + 1:]: c for e, c in g.items()}
            gens.append({**poly(max(shifted, key=key)), **shifted})
        yield order, nv, gens


class TestCriteria:
    """Buchberger's criteria drop pairs, never a basis element: the update
    and the self-check agree with loops that use none."""

    def test_update_gives_the_all_pairs_basis(self):
        from diffalg import algebra

        rng = random.Random(20261019)
        failing = 0
        for order, nv, gens in _lead_heavy_ideals(rng, 200):
            codec, G = algebra._packed(order, nv, gens, lambda c, ps: algebra._buchberger(ps, c))
            ref_codec, ref = algebra._packed(order, nv, gens,
                                             lambda c, ps: _all_pairs_buchberger(ps, c))
            assert [codec.unpack(g) for g in G] == [ref_codec.unpack(g) for g in ref]
            assert _self_check_passes(G, codec)
            # G less an element, and the generators, are often no Groebner basis
            for H in (G[1:], G[:-1], [codec.pack(g) for g in gens]):
                passes = _all_pairs_reduce(H, codec)
                assert _self_check_passes(H, codec) == passes
                failing += not passes
        assert failing > 100

    @pytest.mark.parametrize("texts", [KATSURA3, CYCLIC4], ids=["katsura-3", "cyclic-4"])
    def test_a_dropped_basis_element_is_caught(self, monkeypatch, texts):
        from diffalg import algebra

        ring = RingContext(m=0, n=4)
        variables = tuple(xvar(ring, j) for j in range(1, 5))
        I = AlgIdeal(ring, variables, tuple(parse_poly(t, ring) for t in texts))
        assert len(buchberger(I).basis) == 7
        full = algebra._buchberger
        for k in range(7):
            def dropped(gens, codec, k=k):
                G = full(gens, codec)
                return G[:k] + G[k + 1:]

            monkeypatch.setattr(algebra, "_buchberger", dropped)
            with pytest.raises(RuntimeError):
                buchberger(I)

    def test_an_lcm_past_the_first_fit_widens(self, monkeypatch):
        """x1^3 and x2^3 fit a packing of top 3, their lcm does not: the
        update overflows and the basis is recomputed wider, unchanged."""
        from diffalg import algebra
        from diffalg.sparse import GREVLEX, Overflow, Packing

        codec = Packing(GREVLEX, 2, 3)
        with pytest.raises(Overflow):
            codec.lcm(codec.encode((3, 0)), codec.encode((0, 3)))
        I = ideal("x1^3 - x2", "x2^3 - x1^2 + 1")
        want = buchberger(I).basis
        widths = []
        checked = algebra._checked_basis

        def spy(codec, gens):
            widths.append(codec.width)
            return checked(codec, gens)

        monkeypatch.setattr(Packing, "fit",
                            classmethod(lambda cls, order, n, polys, degree: cls(order, n, 3)))
        monkeypatch.setattr(algebra, "_checked_basis", spy)
        assert buchberger(I).basis == want and widths == [3, 6]


def test_from_algpoly_is_the_validated_constructor(rng):
    """The trusted thaw builds what DiffPoly's checked constructor builds,
    for int, Fraction and Scalar coefficients, at any scale."""
    from fractions import Fraction

    from conftest import rand_scalar

    from diffalg import DiffPoly
    from diffalg.algebra import from_algpoly
    from diffalg.poly import mono_from
    from diffalg.sparse import monomials

    for mode in ("constants", "rational_t"):
        ring = RingContext(m=1, n=3, field_mode=mode)
        variables = tuple(xvar(ring, j) for j in (1, 2, 3))
        monos = monomials(3, 3)
        for _ in range(60):
            p = {}
            for e in rng.sample(monos, rng.randint(0, 5)):
                kind = rng.randrange(3)
                if kind == 0:
                    p[e] = rng.choice((-2, -1, 1, 3))
                elif kind == 1:
                    p[e] = Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 4))
                else:
                    p[e] = rand_scalar(rng, ring, 3, allow_t=True, nonzero=True)
            # the backend scales only int and Fraction coefficients
            scalars = any(not isinstance(c, (int, Fraction)) for c in p.values())
            scale = 1 if scalars else rng.choice((1, Fraction(2, 3), -5))
            want = DiffPoly(ring, {
                mono_from((variables[i], k) for i, k in enumerate(e) if k):
                    c if scale == 1 else c * scale
                for e, c in p.items()
            })
            got = from_algpoly(p, variables, ring, scale)
            assert got == want and list(got.terms.items()) == list(want.terms.items())


class TestLazyQuotients:
    """ideal_member thaws its normal form at once and its quotients when they
    are first read; the division identity is checked before it returns."""

    @staticmethod
    def _thaws(monkeypatch):
        from diffalg import algebra

        thaw, calls = algebra.from_algpoly, []
        monkeypatch.setattr(algebra, "from_algpoly",
                            lambda *args: calls.append(args) or thaw(*args))
        return calls

    def test_only_the_normal_form_thaws_until_the_quotients_are_read(self, monkeypatch):
        for texts in (("x1^2 - 1/2*x2", "2/3*x1*x2 - 1"), ("x1 - x2",)):
            I = buchberger(ideal(*texts))
            calls = self._thaws(monkeypatch)
            cert = ideal_member(P("x1^3*x2 - 1/2*x1*x2^2 + x1"), I)
            assert len(calls) == 1
            assert cert.member == (not cert.normal_form)
            quotients = cert.quotients
            assert len(quotients) == len(I.basis) and len(calls) == 1 + len(I.basis)
            assert cert.quotients is quotients and len(calls) == 1 + len(I.basis)
            monkeypatch.undo()

    def test_read_quotients_equal_an_eager_thaw(self, rng, monkeypatch):
        """Certificates whose quotients are read after later queries on the
        same ideal equal those thawed at once, in print too, over ints and
        over Scalars alike."""
        from conftest import rand_poly

        from diffalg import Scalar, algebra

        lazy, eager = [], []
        domains = set()
        for ring, variables, gens in _random_ideals(rng, 12):
            I = buchberger(AlgIdeal(ring, variables, tuple(gens)))
            fs = [_combination(rng, ring, gens) + rand_poly(rng, ring, max_degree=2, max_terms=2)
                  for _ in range(3)]
            lazy.extend((f, I, ideal_member(f, I)) for f in fs)
            domains.add(I._frozen[4] is int)
            with monkeypatch.context() as m:
                m.setattr(algebra, "MembershipCertificate", lambda member, nf, thaw:
                          MembershipCertificate(member, nf, thaw() if callable(thaw) else thaw))
                eager.extend(ideal_member(f, I) for f in fs)
        assert domains == {True, False}
        for (f, I, got), want in zip(lazy, eager):
            assert isinstance(want._quotients, list) and callable(got._quotients)
            assert got == want and repr(got) == repr(want)
            assert [poly_text(q) for q in got.quotients] == [poly_text(q) for q in want.quotients]
            assert all(isinstance(c, Scalar) for q in got.quotients for c in q.terms.values())
            total = got.normal_form
            for q, b in zip(got.quotients, I.basis):
                total = total + q * b
            assert total == f

    def test_a_corrupted_division_raises_with_the_quotients_unread(self, monkeypatch):
        from diffalg import algebra
        from diffalg.sparse import add

        nf = algebra._nf

        def corrupted(p, basis, codec):
            rem, quots, scale = nf(p, basis, codec)
            quots[0] = add(quots[0], {codec.one: 1})
            return rem, quots, scale

        monkeypatch.setattr(algebra, "_nf", corrupted)
        for I in (buchberger(ideal("x1^2 - 1/2*x2", "x1*x2 - 1")), ideal("x1 - x2", "x2^2")):
            with pytest.raises(RuntimeError, match="division certificate"):
                ideal_member(P("x1^3 + x2"), I)

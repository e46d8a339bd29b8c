"""Autoreducedness, reduction certificates, H products and coherence."""

import pytest

from diffalg import (
    NotAutoreduced,
    Ranking,
    RingContext,
    autoreduced_check,
    coherence_check,
    full_reduce,
    is_reduced,
    parse_poly,
    partial_reduce,
    poly_text,
)
from diffalg.algebra import to_algpoly
from diffalg.reduction import FULL, PARTIAL
from diffalg.ring import RATIONAL_T
from diffalg.sparse import exact_div

from conftest import rand_autoreduced, rand_poly

RT = RingContext(m=2, n=2, field_mode=RATIONAL_T)
R11 = RingContext(m=1, n=1, field_mode=RATIONAL_T)


def P(s, ring=RT):
    return parse_poly(s, ring)


def system(*texts, ring=RT):
    return autoreduced_check([P(t, ring) for t in texts], Ranking())


class TestAutoreduced:
    def test_accepts_disjoint_leaders(self):
        s = system("d1 x1 - 1", "d2 x1")
        assert len(s) == 2
        assert s.h == P("1")

    def test_rejects_leader_power(self):
        with pytest.raises(NotAutoreduced) as exc:
            system("x1", "x1^2")
        assert "degree" in str(exc.value)

    def test_rejects_proper_derivative(self):
        with pytest.raises(NotAutoreduced) as exc:
            system("x1", "d1 x1")
        assert "derivative" in str(exc.value)

    def test_rejects_constants(self):
        with pytest.raises(NotAutoreduced):
            system("x1", "3")

    def test_elements_sorted_by_leader(self):
        s = system("d1 x1 - 1", "x2")
        assert [poly_text(f) for f in s.elements] == ["x2", "d1x1 - 1"]


class TestReductionExamples:
    def test_partial_eliminates_proper_derivatives_only(self):
        s = system("d1 x1 - x1", ring=R11)
        cert = partial_reduce(P("d1 d1 x1", R11), s)
        # one separant step removes the second derivative; the leader itself stays
        assert cert.remainder == P("d1 x1", R11)
        assert cert.premultiplier == P("1", R11)
        assert cert.steps == 1
        assert cert.verify(s)
        assert is_reduced(cert.remainder, s, PARTIAL)

    def test_full_continues_through_the_leader(self):
        s = system("d1 x1 - x1", ring=R11)
        cert = full_reduce(P("d1 d1 x1", R11), s)
        assert cert.remainder == P("x1", R11)
        assert cert.premultiplier == P("1", R11)
        assert cert.steps == 2
        assert set(cert.cofactors) == {(0, (1,)), (0, (0,))}
        assert cert.verify(s)

    def test_nothing_to_do(self):
        s = system("d1 x1", ring=R11)
        cert = partial_reduce(P("x1^5", R11), s)
        assert cert.remainder == P("x1^5", R11)
        assert cert.steps == 0

    def test_separant_premultiplier(self):
        s = system("x1^2 - t1", ring=R11)
        cert = partial_reduce(P("d1 x1", R11), s)
        assert cert.remainder == P("1", R11)
        assert cert.premultiplier == P("2*x1", R11)
        assert cert.verify(s)

    def test_full_reduce_membership_cases(self):
        s = system("x1", ring=R11)
        assert full_reduce(P("x1", R11), s).remainder.is_zero()
        s2 = system("x1^2 - t1", ring=R11)
        assert full_reduce(P("x1^2 - t1 + 1", R11), s2).remainder == P("1", R11)

    def test_full_reduce_nonmember_leaves_unit(self):
        # the second derivative is not in the saturation ideal of x1*d1x1 - 1:
        # expanding the certificate leaves the constant -1
        s = system("x1*d1x1 - 1", ring=R11)
        cert = full_reduce(P("d1 d1 x1", R11), s)
        assert cert.remainder == P("-1", R11)
        assert cert.premultiplier == P("x1^3", R11)
        assert cert.verify(s)


class TestCertificateProperties:
    def test_random_certificates(self, rng):
        for k in range(120):
            s = rand_autoreduced(rng, RT, size=1 + k % 2)
            f = rand_poly(rng, RT, max_order=2, max_degree=3, max_terms=3, allow_t=True)
            for reduce_fn, mode in ((partial_reduce, PARTIAL), (full_reduce, FULL)):
                cert = reduce_fn(f, s)
                assert cert.verify(s), "certificate identity failed"
                assert is_reduced(cert.remainder, s, mode)
                # idempotence
                again = reduce_fn(cert.remainder, s)
                assert again.remainder == cert.remainder
                assert again.steps == 0

    def test_premultiplier_divides_h_power(self, rng):
        for _ in range(40):
            s = rand_autoreduced(rng, RT, size=2)
            f = rand_poly(rng, RT, max_order=2, max_degree=2, max_terms=2)
            cert = full_reduce(f, s)
            if cert.steps == 0:
                assert cert.premultiplier == P("1")
                continue
            variables = tuple(
                sorted(
                    set().union(*(p.variables() for p in (s.h, cert.premultiplier))),
                    key=s.ranking.key,
                )
            )
            h_power = to_algpoly(s.h ** cert.steps, variables)
            pre = to_algpoly(cert.premultiplier, variables)
            assert exact_div(h_power, pre) is not None

    def test_partial_uses_separants_only(self, rng):
        # with unit separants and non-unit initials, partial premultiplier is 1
        s = system("x1^2 + d1x1", ring=R11)  # separant in d1x1 is 1? no: leader d1x1, sep 1
        cert = partial_reduce(P("d1 d1 x1", R11), s)
        assert cert.premultiplier == P("1", R11)
        assert cert.verify(s)


class TestCoherence:
    def test_commuting_pair(self):
        rep = coherence_check(system("d1 x1 - 1", "d2 x1"))
        assert rep.coherent
        assert len(rep.pairs) == 1
        assert rep.pairs[0].remainder.is_zero()

    def test_incoherent_pair_leaves_minus_one(self):
        rep = coherence_check(system("d1 x1 - t2", "d2 x1"))
        assert not rep.coherent
        assert rep.pairs[0].remainder == P("-1")

    def test_single_element_vacuous(self):
        rep = coherence_check(system("x1"))
        assert rep.coherent and rep.pairs == []

    def test_distinct_indeterminates_no_pairs(self):
        rep = coherence_check(system("d1 x1", "d1 x2"))
        assert rep.coherent and rep.pairs == []


class TestHProduct:
    def test_examples(self):
        assert system("d1 x1 - 1").h == P("1")
        assert system("x1*d1x1^2 + d2x1").h == P("2*x1^2*d1x1")
        assert system("x1^2 - t1").h == P("2*x1")

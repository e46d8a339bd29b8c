"""Autoreducedness, reduction certificates, H products and coherence."""

import dataclasses
import random
from unittest import mock

import pytest

from diffalg import (
    DiffPoly,
    NotAutoreduced,
    Ranking,
    RingContext,
    Scalar,
    TPoly,
    autoreduced_check,
    coherence_check,
    full_reduce,
    is_reduced,
    parse_poly,
    parse_tpoly,
    partial_reduce,
    poly_text,
)
from diffalg import reduction, scalars
from diffalg.algebra import to_algpoly
from diffalg.reduction import FULL, PARTIAL, ReductionCertificate, _violation
from diffalg.ring import RATIONAL_T
from diffalg.sparse import exact_div

from conftest import rand_autoreduced, rand_poly, rand_tpoly

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


def _reference_reduce(f, system, mode):
    """The reduction loop as first written, kept as the reference: every
    cofactor and the premultiplier are multiplied by the initial at every
    step, theta(g) is derived afresh, f's t-denominators are kept."""
    ring = f.ring
    p = f
    premult = DiffPoly.one(ring)
    cof = {}
    steps = 0
    while not p.is_zero():
        viol = _violation(p, system.ranking, system.leaders, system.leader_degrees, mode)
        if viol is None:
            break
        v, gi, theta = viol
        if any(theta):
            divisor = system.elements[gi].derive_theta(theta)
            ini = system.separants[gi]
            dmin = 1
        else:
            divisor = system.elements[gi]
            ini = system.initials[gi]
            dmin = system.leader_degrees[gi]
        while not p.is_zero():
            e = p.degree_in(v)
            if e < dmin:
                break
            c = p.split(v, e)[0]
            mult = c * DiffPoly.var(ring, v, e - dmin)
            p = ini * p - mult * divisor
            premult = ini * premult
            for k in list(cof):
                cof[k] = ini * cof[k]
            key = (gi, theta)
            cof[key] = cof[key] + mult if key in cof else mult
            steps += 1
    return ReductionCertificate(mode, f, p, premult, cof, steps)


def _rational_scalar(rng, ring):
    """num/den with a den of positive degree in t."""
    while True:
        den = rand_tpoly(rng, ring.nt, degree=1, height=4, max_terms=2, nonzero=True)
        if not den.is_const():
            num = rand_tpoly(rng, ring.nt, degree=1, height=4, max_terms=2, nonzero=True)
            return Scalar(num, den)


def test_rand_autoreduced_leaves_a_dead_end():
    """At seed 0 the first leaders drawn are x2 and x1, to which every
    derivative is related: the helper draws a fresh leader set, and raises
    where no set of that size exists."""
    assert len(rand_autoreduced(random.Random(0), RT, size=3)) == 3
    with pytest.raises(ValueError, match="unrelated leaders"):
        rand_autoreduced(random.Random(0), RingContext(m=1, n=2, field_mode=RATIONAL_T), size=3)


class TestReductionEquivalence:
    """The reduction gives the reference loop's certificate exactly."""

    def _cases(self, seed, count):
        rng = random.Random(seed)
        fixed = Scalar(parse_tpoly("t2 - 1", RT), parse_tpoly("t1 + t3 + 2", RT))
        for k in range(count):
            s = rand_autoreduced(rng, RT, size=1 + k % 3)
            if k % 4 == 3:
                # an element with a t-denominator: rational initials and separants
                elems = list(s.elements)
                elems[0] = elems[0].scale(_rational_scalar(rng, RT))
                s = autoreduced_check(elems, s.ranking)
            f = rand_poly(rng, RT, max_order=3, max_degree=3, max_terms=3, allow_t=True)
            yield s, f
            yield s, f.scale(fixed)
            yield s, f.scale(_rational_scalar(rng, RT))

    @pytest.mark.parametrize("mode", [FULL, PARTIAL])
    def test_same_certificate_as_the_reference_loop(self, mode):
        reduce_fn = full_reduce if mode == FULL else partial_reduce
        sizes = set()
        stepped = 0
        for s, f in self._cases(1505, 45):
            cert, ref = reduce_fn(f, s), _reference_reduce(f, s, mode)
            assert cert.input is f
            assert cert.remainder == ref.remainder
            assert cert.premultiplier == ref.premultiplier
            assert cert.steps == ref.steps
            assert list(cert.cofactors) == list(ref.cofactors)
            assert cert.cofactors == ref.cofactors
            sizes.add(len(s))
            stepped += cert.steps > 1
        assert sizes == {1, 2, 3} and stepped > 20

    def test_scaling_family(self):
        s = system("t1*d1x1^2 - x1^3 - t2")
        scale = Scalar(parse_tpoly("t2 - 1", RT), parse_tpoly("t1 + t3 + 2", RT))
        for k in (3, 4):
            for f in (P("d1" * k + "x1"), P("d1" * k + "x1").scale(scale)):
                cert, ref = full_reduce(f, s), _reference_reduce(f, s, FULL)
                assert (cert.remainder, cert.premultiplier, cert.steps, cert.cofactors) == (
                    ref.remainder, ref.premultiplier, ref.steps, ref.cofactors)


def _same_as_reference(f, s):
    """Reduce f in both modes, compare each certificate with the reference
    loop's, and return the full one."""
    for mode, reduce_fn in ((PARTIAL, partial_reduce), (FULL, full_reduce)):
        cert, ref = reduce_fn(f, s), _reference_reduce(f, s, mode)
        assert (cert.remainder, cert.premultiplier, cert.steps) == (
            ref.remainder, ref.premultiplier, ref.steps)
        assert list(cert.cofactors) == list(ref.cofactors)
        assert cert.cofactors == ref.cofactors
        assert cert.verify(s)
    return cert


OVER_T1_PLUS_1 = Scalar(parse_tpoly("1", RT), parse_tpoly("t1 + 1", RT))


class TestIntegerClearing:
    """Each divisor theta(g) is cleared once to an int form over c*d, c an
    int and d a monic t-polynomial; these systems make c or d non-trivial."""

    def test_integer_denominators(self):
        s = system("1/2*t1*d1x1^2 - 2/3*x1^3")
        cert = _same_as_reference(P("x1*d1d1x1^2 + t2*d1x1^3"), s)
        assert cert.steps > len(cert.cofactors)
        clears = {(gi, theta): c for (gi, theta), (_, _, _, c, _) in s._divisors[16].items()}
        assert clears == {(0, (1, 0)): 2, (0, (0, 0)): 6}

    def test_a_t_denominator_squared_by_differentiation(self):
        s = autoreduced_check([P("d1x2^2") + P("x2").scale(OVER_T1_PLUS_1)], Ranking())
        cert = _same_as_reference(P("x2*d1d1x2^2 + d1x2^3"), s)
        assert cert.steps > len(cert.cofactors)
        dens = {(gi, theta): d for (gi, theta), (_, _, _, _, d) in s._divisors[16].items()}
        assert dens == {(0, (1, 0)): parse_tpoly("t1^2 + 2*t1 + 1", RT),
                        (0, (0, 0)): parse_tpoly("t1 + 1", RT)}

    def test_a_mixed_system_with_multi_step_offenders(self):
        s = autoreduced_check([P("1/2*t1*d1x1^2 - 2/3*x1^3"),
                               P("d1x2^2") + P("x2").scale(OVER_T1_PLUS_1)], Ranking())
        f = P("d1d1x1*d1d1x2^2 + x1*d1x1^3 + t2*d1x2^3 + d2d1x2")
        for g in (f, f.scale(OVER_T1_PLUS_1), f.scale(Scalar(parse_tpoly("t2 - 1", RT),
                                                              parse_tpoly("3*t1 + t3", RT)))):
            cert = _same_as_reference(g, s)
            assert cert.steps > len(cert.cofactors) == 5

    def test_t_exponents_past_the_fields_rerun_wider(self):
        """t-exponents of 40000 outgrow the 16-bit fields the int form starts
        at; the reduction reruns at double the width, with the reference's
        certificate."""
        s = system("t1^40000*d1x1^2 - x1", ring=R11)
        f = P("t2^40000*d1d1x1 + x1", R11)
        with mock.patch.object(reduction, "_reduce_over_z",
                               wraps=reduction._reduce_over_z) as runs:
            cert = full_reduce(f, s)
        assert [call.args[-1].width for call in runs.call_args_list] == [16, 32]
        ref = _reference_reduce(f, s, FULL)
        assert (cert.remainder, cert.premultiplier, cert.steps, cert.cofactors) == (
            ref.remainder, ref.premultiplier, ref.steps, ref.cofactors)
        assert cert.steps == 2 and cert.verify(s)

    def test_a_system_remembers_the_width_it_needed(self):
        """Once a system's reduction has widened, later reductions by it start
        at that width: one run each, partial or full, with small f or large."""
        s = system("t1^40000*d1x1^2 - x1", ring=R11)
        full_reduce(P("t2^40000*d1d1x1 + x1", R11), s)
        with mock.patch.object(reduction, "_reduce_over_z",
                               wraps=reduction._reduce_over_z) as runs:
            for f in (P("t2^40000*d1d1x1 + x1", R11), P("d1d1x1", R11)):
                for reduce_fn, mode in ((full_reduce, FULL), (partial_reduce, PARTIAL)):
                    assert reduce_fn(f, s) == _reference_reduce(f, s, mode)
        assert [call.args[-1].width for call in runs.call_args_list] == [32] * 4


class TestZeroStepsAndIndependence:
    def test_a_reduced_f_is_returned_as_it_is(self):
        s = system("t1*d1x1^2 - x1^3 - t2")
        for f in (P("x1^5 + t2*d1x1"), P("x1").scale(OVER_T1_PLUS_1), P("0")):
            for reduce_fn in (partial_reduce, full_reduce):
                cert = reduce_fn(f, s)
                assert cert.remainder is f
                assert (cert.steps, cert.cofactors, cert.premultiplier) == (0, {}, P("1"))

    def test_verify_runs_none_of_the_int_path(self, monkeypatch):
        """With the int product kernel patched to raise where the reduction
        calls it (DiffPoly's own Z[t] products reach it through poly, which
        the patch leaves alone), a certificate computed before still
        verifies, also against an equal system with empty caches."""
        s = system("t1*d1x1^2 - x1^3 - t2", "x2^2 - t2")
        f = P("d1d1x1*d2x2 + x1*d1x1^3")
        cert = full_reduce(f, s)

        def boom(pairs, codec):
            raise AssertionError("the int path ran")

        monkeypatch.setattr(reduction, "_sum_over_z", boom)
        with pytest.raises(AssertionError, match="int path"):
            full_reduce(f, s)
        assert cert.verify(s)
        assert cert.verify(system("t1*d1x1^2 - x1^3 - t2", "x2^2 - t2"))

    def test_a_cofactor_off_by_one_fails(self):
        s = system("t1*d1x1^2 - x1^3 - t2", "x2^2 - t2")
        cert = full_reduce(P("d1d1x1*d2x2 + x1*d1x1^3"), s)
        assert cert.verify(s)
        for key, q in cert.cofactors.items():
            for mono, c in q.terms.items():
                bad = dataclasses.replace(cert, cofactors={
                    **cert.cofactors, key: DiffPoly(q.ring, {**q.terms, mono: c + Scalar.one(3)})})
                assert not bad.verify(s)


def _reference_verify(cert, system):
    """The certificate check as first written, kept as the reference: every
    product through DiffPoly's operators, theta(g) derived afresh."""
    lhs = cert.premultiplier * cert.input - cert.remainder
    rhs = DiffPoly.zero(cert.input.ring)
    for (gi, theta), q in cert.cofactors.items():
        rhs = rhs + q * system.elements[gi].derive_theta(theta)
    return lhs == rhs


def _corruptions(cert):
    """Certificates that differ from cert in one way each: one coefficient of
    every cofactor plus 1 (more would make rational-function coefficients
    with high-degree denominators, slow to add for either check), the first
    cofactor moved to a neighbouring theta, the remainder without its first
    term, and the premultiplier doubled."""
    one = Scalar.one(cert.input.ring.nt)
    if cert.cofactors:
        yield dataclasses.replace(cert, cofactors={key: DiffPoly(q.ring, {
            **q.terms, (m := min(q.terms, key=str)): q.terms[m] + one})
            for key, q in cert.cofactors.items()})
        gi, theta = key = next(iter(cert.cofactors))
        moved = (gi, (theta[0] + 1,) + theta[1:])
        if moved not in cert.cofactors:
            yield dataclasses.replace(cert, cofactors={
                moved if k == key else k: q for k, q in cert.cofactors.items()})
    if cert.remainder:
        rest = dict(cert.remainder.terms)
        del rest[min(rest, key=str)]
        yield dataclasses.replace(cert, remainder=DiffPoly(cert.input.ring, rest))
    yield dataclasses.replace(cert, premultiplier=cert.premultiplier.scale(2))


class TestVerifyAgainstTheReference:
    @pytest.mark.parametrize("mode", [FULL, PARTIAL])
    def test_same_verdict_as_the_reference_check(self, mode):
        """verify and _reference_verify agree on every certificate of the
        equivalence cases and on every corruption of it. The certificates
        fall in every input class at least 5 times: each product a scale
        (verify compares and sums no products), and otherwise by the distinct
        t-denominators other than 1 of the operands of its sum of products."""
        reduce_fn = full_reduce if mode == FULL else partial_reduce
        census = {"one-term": 0, "polynomial": 0, "one shared den": 0, "two dens": 0}
        rejected = 0
        for s, f in TestReductionEquivalence()._cases(1505, 45):
            cert = reduce_fn(f, s)
            for i, c in enumerate([cert, *_corruptions(cert)]):
                with mock.patch.object(reduction, "_sum_of_products",
                                       wraps=reduction._sum_of_products) as total:
                    got = c.verify(s)
                assert got == _reference_verify(c, s)
                assert got == (i == 0)
                rejected += i > 0
                if i == 0 and cert.cofactors:
                    factors = [cert.premultiplier, *cert.cofactors.values()]
                    one_term = all(len(q.terms) < 2 for q in factors)
                    assert total.called != one_term
                    dens = {k.den for g in (cert.input, cert.remainder, *factors,
                                            *(s.elements[gi].derive_theta(theta)
                                              for gi, theta in cert.cofactors))
                            for k in g.terms.values()} - {TPoly.one(f.ring.nt)}
                    census["one-term" if one_term else "polynomial" if not dens else
                           "one shared den" if len(dens) == 1 else "two dens"] += 1
        assert all(n >= 5 for n in census.values()), census
        assert rejected > 300


def test_a_failing_check_over_different_denominators_is_quick():
    """Case 106 of the equivalence cases has cofactors over t-denominators of
    degree 9-12, no two alike. With every cofactor coefficient plus 1 the sum
    of products is cleared over each side's lcm, and verify fails after one
    gcd per denominator folded, per derivative coefficient and per monomial
    of the sum: 34 here. Adding Scalars one at a time passed 40 gcds within
    0.1 s and then ran for minutes, so the count is capped at 40."""
    s, f = list(TestReductionEquivalence()._cases(1505, 45))[106]
    cert = full_reduce(f, s)
    one = Scalar.one(RT.nt)
    bad = dataclasses.replace(cert, cofactors={key: DiffPoly(q.ring, {
        m: c + one for m, c in q.terms.items()}) for key, q in cert.cofactors.items()})
    gcd, outer, depth = scalars.tpoly_gcd, [], []

    def counted(a, b):
        """tpoly_gcd, counting the calls it does not make itself."""
        if not depth:
            outer.append((a, b))
            assert len(outer) <= 40, "one gcd per Scalar addition"
        depth.append(1)
        try:
            return gcd(a, b)
        finally:
            depth.pop()

    assert cert.verify(s)
    with mock.patch.object(scalars, "tpoly_gcd", counted):
        assert not bad.verify(s)
    assert 0 < len(outer) <= 40


class TestVerifyInputs:
    def test_a_cofactor_naming_a_missing_element_fails(self):
        s = system("t1*d1x1^2 - x1^3 - t2", "x2^2 - t2")
        cert = full_reduce(P("d1d1x1 + x2^3"), s)
        assert cert.verify(s) and {gi for gi, _ in cert.cofactors} == {0, 1}
        assert not cert.verify(system("x2^2 - t2"))
        assert not cert.verify(system("t1*d1x1^2 - x1^3 - t2"))

    def test_a_system_in_another_ring_raises(self):
        texts = ("t1*d1x1^2 - x1^3 - t2", "x2^2 - t2")
        r12 = RingContext(m=1, n=2, field_mode=RATIONAL_T)
        for cert_ring, system_ring in ((RT, r12), (r12, RT)):
            cert = full_reduce(P("d1d1x1 + x2^3", cert_ring), system(*texts, ring=cert_ring))
            with pytest.raises(ValueError, match="mixed ring contexts"):
                cert.verify(system(*texts, ring=system_ring))
            with pytest.raises(ValueError, match="mixed ring contexts"):
                cert.verify(system(texts[1], ring=system_ring))


class TestThetaCache:
    def test_verify_does_not_read_the_cache(self):
        s = system("d1 x1 - x1", ring=R11)
        f = P("d1 d1 x1", R11)
        assert full_reduce(f, s).verify(s)
        corrupt = system("d1 x1 - x1", ring=R11)
        corrupt._thetas[(0, (1,))] = P("d1 d1 x1 - d1 x1 + x1", R11)
        cert = full_reduce(f, corrupt)
        assert not cert.verify(corrupt)
        assert not cert.verify(s)

    def test_cache_is_not_part_of_the_value(self):
        a, b = system("x1*d1x1 - 1", "d2 x2"), system("x1*d1x1 - 1", "d2 x2")
        full_reduce(P("d1 d1 d2 x1 + d2 d2 x2"), a)
        assert a._thetas and not b._thetas
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert "_thetas" not in repr(a)

    def test_cached_theta_is_the_derivative(self):
        s = system("t1*d1x1^2 - x1^3 - t2", "x2^2 - t2")
        full_reduce(P("d1 d1 d1 d2 x1 + d1 d2 d2 x2"), s)
        assert len(s._thetas) > 2
        for (gi, theta), g in s._thetas.items():
            assert g == s.elements[gi].derive_theta(theta)


class TestCachedLeadingCoefficients:
    """A step works on the reductums only after checking that the cached
    initial or separant is the divisor's leading coefficient."""

    def test_a_corrupted_initial_raises(self):
        s = system("t1*d1x1^2 - x1^3 - t2")
        f = P("x1*d1x1^3")
        assert full_reduce(f, s).verify(s)
        corrupt = dataclasses.replace(s, initials=(P("2*t1"),))
        with pytest.raises(RuntimeError, match="initial"):
            full_reduce(f, corrupt)

    def test_a_corrupted_separant_raises(self):
        s = system("t1*d1x1^2 - x1^3 - t2")
        f = P("d1 d1 x1")
        assert partial_reduce(f, s).verify(s)
        corrupt = dataclasses.replace(s, separants=(P("t1*d1x1"),))
        for reduce_fn in (partial_reduce, full_reduce):
            with pytest.raises(RuntimeError, match="separant"):
                reduce_fn(f, corrupt)


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

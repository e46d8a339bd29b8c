"""Certification pipeline, prolonged-variety comparisons and axiom instances."""

import random
from fractions import Fraction
from unittest import mock

import pytest

from diffalg import (
    AxiomInstance,
    ModelPoint,
    Ranking,
    RingContext,
    Scalar,
    TPoly,
    autoreduced_check,
    charset_certify,
    doubled_samples,
    eval_poly,
    instance_validate,
    naive_prolongation_gens,
    naive_vs_tau_demo,
    open_set_equality_check,
    parse_poly,
    poly_text,
    projection_closure_check,
    sat_ideal_member,
    saturation_members,
    tau,
    witness_search,
)
from diffalg import axioms, modp
from diffalg.axioms import _checks, _fails
from diffalg.instances import (
    build_axiom_instance,
    fixture_path,
    load_instance_file,
    parse_instance_text,
)
from diffalg.model import _layer, _mono_derivatives, _residue, model_points
from diffalg.ring import RATIONAL_T
from test_grid_golden import OPEN_SET

R21 = RingContext(m=2, n=1, field_mode=RATIONAL_T)
R11 = RingContext(m=1, n=1, field_mode=RATIONAL_T)


def P(s, ring=R21):
    return parse_poly(s, ring)


def cert_for(*texts, ring=R21):
    return charset_certify([P(t, ring) for t in texts], Ranking())


class TestSatIdealMember:
    def test_derivative_of_element(self):
        cert = cert_for("d1 x1 - 1", ring=R11)
        ok, rc = sat_ideal_member(P("d1 d1 x1", R11), cert)
        assert ok and rc.remainder.is_zero() and rc.verify(cert.system)

    def test_one_is_never_a_member(self):
        cert = cert_for("d1 x1 - 1", ring=R11)
        ok, _ = sat_ideal_member(P("1", R11), cert)
        assert not ok

    def test_power_of_element(self):
        cert = cert_for("x1", ring=R11)
        ok, _ = sat_ideal_member(P("x1^2", R11), cert)
        assert ok

    ITEM14 = RingContext(m=1, n=2, field_mode=RATIONAL_T)
    # f, its full remainder, and f's membership in (x1 + 1, x2 - 1) = (Lambda):H^inf
    NON_REGULAR = (
        ("x1 + 1", "x1 + 1", True),
        ("x2 - 1", "-x1 - 1", True),
        ("x1", "x1", False),
        ("x2", "-2", False),
        ("x1*x2 + x2", "-2*x1 - 2", True),
        ("x2^2 - 1", "2*x1 + 2", True),
        ("x1^3 + x2", "-x1 - 1", True),
        ("d1x2 + x1 + 1", "0", True),
    )

    @staticmethod
    def _partial_route(f, cert):
        """The reference route, by the partial remainder: partial_reduce,
        then saturate, then ideal_member."""
        from diffalg.algebra import GREVLEX, AlgIdeal, ideal_member, saturate
        from diffalg.reduction import partial_reduce

        system = cert.system
        r = partial_reduce(f, system).remainder
        if r.is_zero():
            return True
        variables = axioms._frozen_variables((*system.elements, system.h, r), system.ranking)
        ideal = AlgIdeal(system.ring, variables, system.elements, GREVLEX)
        return ideal_member(r, saturate(ideal, system.h)).member

    def test_a_member_beyond_reduction(self):
        """x1 - 1 is a zero divisor modulo x1^2 - 1, so this Lambda is no
        regular chain: x1 + 1 is in (Lambda) but reduces to itself. The
        saturation (Lambda):H^inf is (x1 + 1, x2 - 1). Each verdict is the
        partial-remainder route's."""
        cert = cert_for("x1^2 - 1", "(x1 - 1)*x2 + 2", ring=self.ITEM14)
        assert cert.status == "conditional"
        for text, remainder, member in self.NON_REGULAR:
            f = P(text, self.ITEM14)
            ok, rc = sat_ideal_member(f, cert)
            assert ok == member == self._partial_route(f, cert), text
            assert poly_text(rc.remainder) == remainder and rc.verify(cert.system)

    def test_one_full_reduction_and_no_partial_one(self):
        from diffalg import reduction

        cert = cert_for("x1^2 - 1", "(x1 - 1)*x2 + 2", ring=self.ITEM14)
        assert not hasattr(axioms, "partial_reduce")
        for text, member in (("x2 - 1", True), ("x2", False)):
            with mock.patch.object(axioms, "full_reduce", wraps=axioms.full_reduce) as full, \
                    mock.patch.object(reduction, "partial_reduce",
                                      wraps=reduction.partial_reduce) as partial:
                assert sat_ideal_member(P(text, self.ITEM14), cert)[0] == member
            assert full.call_count == 1 and not partial.called

    def test_rejected_certificate_refused(self):
        cert = cert_for("x1^2", ring=R11)
        assert cert.status == "rejected"
        with pytest.raises(ValueError):
            sat_ideal_member(P("x1", R11), cert)

    def test_monotone_under_multiplication(self, rng):
        from conftest import rand_poly

        cert = cert_for("d1 x1 - 1", ring=R11)
        members = saturation_members(cert, 4)
        for g in members:
            for _ in range(3):
                f = rand_poly(rng, R11, max_order=1, max_degree=2, max_terms=2)
                ok, _ = sat_ideal_member(g * f, cert)
                assert ok

    def test_a_failed_re_verification_is_an_internal_error(self):
        """Every candidate lies in [Lambda] by construction, so a rejected
        one means reduction or saturation is at fault."""
        cert = cert_for("d1 x1 - 1", ring=R11)
        real = axioms.sat_ideal_member
        calls = []

        def reject_the_second(g, c):
            calls.append(g)
            ok, rc = real(g, c)
            return (ok and len(calls) != 2), rc

        with mock.patch.object(axioms, "sat_ideal_member", side_effect=reject_the_second):
            with pytest.raises(RuntimeError, match="failed re-verification"):
                saturation_members(cert, 4)
        assert len(calls) == 2


class TestCertify:
    def test_certified_fixture(self):
        cert = cert_for("d1 x1 - 1", "d2 x1")
        assert cert.status == "certified"
        assert cert.primality.method == "linear"

    def test_rejected_at_coherence(self):
        cert = cert_for("d1 x1 - t2", "d2 x1")
        assert cert.status == "rejected" and cert.stage == "coherence"
        bad = [p for p in cert.coherence.pairs if not p.remainder.is_zero()]
        assert poly_text(bad[0].remainder) == "-1"

    def test_rejected_at_primality_with_witness(self):
        cert = cert_for("x1^2", ring=R11)
        assert cert.status == "rejected" and cert.stage == "primality"
        a, b = cert.primality.witness
        assert poly_text(a) == "x1" and poly_text(b) == "x1"

    def test_rejected_at_autoreduce(self):
        cert = cert_for("x1", "d1 x1", ring=R11)
        assert cert.status == "rejected" and cert.stage == "autoreduce"

    def test_conditional_on_unknown_primality(self):
        from diffalg import PrimalityConfig

        cert = charset_certify(
            [P("x1^3 + d1x1^3 + 1", R11)], Ranking(),
            PrimalityConfig(factor_degree=0),
        )
        assert cert.status == "conditional"


class TestNaiveProlongation:
    def test_generator_examples(self):
        out = naive_prolongation_gens([P("x1^2", R11)])
        assert [poly_text(g) for g in out] == ["x1^2", "2*x1*y1"]
        out = naive_prolongation_gens([P("x1", R11)])
        assert [poly_text(g) for g in out] == ["x1", "y1"]
        out = naive_prolongation_gens([P("d1 x1 - 1", R11)])
        assert [poly_text(g) for g in out] == ["d1x1 - 1", "d1y1"]

    def test_square_discrepancy_found(self):
        cert = cert_for("x1", ring=R11)
        rep = naive_vs_tau_demo([P("x1^2", R11)], cert, degree=1, height=1,
                                members=3, samples=10)
        assert rep.status == "found"
        pt, ypt = rep.point
        assert pt.get(1) == TPoly.zero(2)
        assert ypt.get(1) == TPoly.one(2)
        assert poly_text(rep.violated_member) == "x1"
        assert not rep.sample_failures

    def test_no_discrepancy_when_sets_agree(self):
        cert = cert_for("x1", ring=R11)
        rep = naive_vs_tau_demo([P("x1", R11)], cert, degree=1, height=1,
                                members=3, samples=10)
        assert rep.status == "not_found_at_bounds"
        assert not rep.sample_failures

    def test_linear_system_clean_on_samples(self):
        cert = cert_for("d1 x1 - 1", ring=R11)
        rep = naive_vs_tau_demo([P("d1 x1 - 1", R11)], cert, degree=2, height=1,
                                members=5, samples=40)
        assert rep.status == "not_found_at_bounds"
        assert rep.samples_checked == 40
        assert not rep.sample_failures


class TestOpenSetEquality:
    def test_replay_on_linear_fixture(self):
        cert = cert_for("d1 x1 - 1", ring=R11)
        samples = doubled_samples(cert.system, 20, degree=2, height=1)
        assert len(samples) == 20
        rep = open_set_equality_check(cert, P("d1 d1 x1", R11), samples)
        assert rep.ok and rep.symbolic_ok and not rep.failures

    def test_sample_on_hypersurface_rejected(self):
        cert = cert_for("x1^2 - t1", ring=R11)
        bad = ModelPoint(R11, {1: TPoly.zero(2)})
        with pytest.raises(ValueError):
            open_set_equality_check(cert, P("x1^2 - t1", R11),
                                    [(bad, ModelPoint(R11, {1: TPoly.zero(2)}))])

    def test_sample_on_zero_set_of_h_rejected(self):
        # H = x2^2 vanishes at x1 = x2 = 0, where the system and its prolongation do
        ring = RingContext(m=1, n=2, field_mode=RATIONAL_T)
        cert = cert_for("x2*d1x1 - x1", ring=ring)
        assert cert.status == "conditional" and poly_text(cert.system.h) == "x2^2"
        zero = ModelPoint(ring, {1: TPoly.zero(2), 2: TPoly.zero(2)})
        with pytest.raises(ValueError, match="sample 0 lies on the zero set of H"):
            open_set_equality_check(cert, P("x2*d1x1 - x1", ring), [(zero, zero)])

    def test_nonmember_rejected(self):
        cert = cert_for("d1 x1 - 1", ring=R11)
        with pytest.raises(ValueError):
            open_set_equality_check(cert, P("x1", R11), [])

    def test_product_rule_identity_random(self, rng):
        from conftest import rand_poly

        for _ in range(20):
            h = rand_poly(rng, R11, max_degree=2, allow_t=True)
            g = rand_poly(rng, R11, max_degree=2, allow_t=True)
            assert tau(h * g).value == h * tau(g).value + g * tau(h).value


class TestSaturationConsistency:
    def test_constructed_combinations_vanish_doubled(self, rng):
        """Explicit combinations of derivatives of the system vanish, and so do
        their prolongations, at every point of the doubled sample set."""
        from conftest import rand_poly

        cert = cert_for("d1 x1 - 1", ring=R11)
        system = cert.system
        samples = doubled_samples(system, 10, degree=2, height=1)
        assert samples
        for _ in range(10):
            combo = parse_poly("0", R11)
            for f in system.elements:
                q = rand_poly(rng, R11, max_order=1, max_degree=2, max_terms=2)
                theta = (rng.randint(0, 2),)
                combo = combo + q * f.derive_theta(theta)
            tg = tau(combo).value
            for pt, ypt in samples:
                assert eval_poly(combo, pt, ypt).is_zero()
                assert eval_poly(tg, pt, ypt).is_zero()


def load_instance(name):
    data = load_instance_file(fixture_path(name))
    return data, build_axiom_instance(data)


class TestInstances:
    def test_basic_fixture_validates(self):
        _, inst = load_instance("basic.axiom")
        val = instance_validate(inst)
        assert val.status == "valid"
        assert val.certificate.status == "certified"
        assert val.o_point is not None

    def test_empty_open_set_rejected(self):
        system = autoreduced_check([P("x1", R11)], Ranking())
        inst = AxiomInstance(system, (P("x1", R11),), (P("x1", R11), P("y1", R11)), 2)
        val = instance_validate(inst)
        assert val.status == "rejected"
        assert "open set" in val.failed

    def test_w_not_containing_system_rejected(self):
        system = autoreduced_check([P("x1", R11)], Ranking())
        inst = AxiomInstance(system, (), (P("y1", R11),), 2)
        val = instance_validate(inst)
        assert val.status == "rejected"
        assert "not in the W ideal" in val.failed

    def test_validate_certifies_the_built_system(self):
        """instance_validate certifies the system build_axiom_instance checked,
        with no second autoreduced_check, and agrees with charset_certify."""
        instances = [load_instance(name)[1] for name in ("basic.axiom", "exhaustion.axiom")]
        instances.append(build_axiom_instance(parse_instance_text(OPEN_SET)))
        for inst in instances:
            with mock.patch.object(axioms, "autoreduced_check",
                                   wraps=axioms.autoreduced_check) as check:
                cert = instance_validate(inst).certificate
            assert check.call_count == 0
            want = charset_certify(inst.system.elements, inst.system.ranking)
            assert (cert.status, cert.stage, cert.reason, cert.primality) == \
                (want.status, want.stage, want.reason, want.primality)
            assert cert.system is inst.system

    def test_order_bound_enforced(self):
        system = autoreduced_check([P("d1 d1 x1", R11)], Ranking())
        inst = AxiomInstance(system, (), (P("d1 d1 x1", R11), P("d1 d1 y1", R11)), 1)
        val = instance_validate(inst)
        assert val.status == "rejected"
        assert "truncation order" in val.failed


class TestProjection:
    def test_basic_fixture_passes(self):
        _, inst = load_instance("basic.axiom")
        val = instance_validate(inst)
        verdict = projection_closure_check(inst, val)
        assert verdict.ok
        assert verdict.order_bound == inst.order_bound
        assert [poly_text(g) for g in verdict.eliminants] == ["d1x1", "d1d1x1"]

    def test_extra_x_generator_breaks_projection(self):
        data, inst = load_instance("basic.axiom")
        bigger = AxiomInstance(
            inst.system, inst.open_extra, inst.w_gens + (P("x1", R11),), inst.order_bound
        )
        val = instance_validate(bigger)
        assert val.status == "valid"
        verdict = projection_closure_check(bigger, val)
        assert not verdict.ok
        leftprojected = [poly_text(g) for g, rem in verdict.residuals if not rem.is_zero()]
        assert "x1" in leftprojected

    def test_bare_prolongation_data_passes(self):
        system = autoreduced_check([P("d1 x1", R11)], Ranking())
        w = tuple(naive_prolongation_gens([P("d1 x1", R11)]))
        inst = AxiomInstance(system, (), w, 2)
        val = instance_validate(inst)
        verdict = projection_closure_check(inst, val)
        assert verdict.ok


class TestWitnessSearch:
    def test_basic_fixture_witness(self):
        _, inst = load_instance("basic.axiom")
        val = instance_validate(inst)
        rep = witness_search(inst, val, degree=1, height=1)
        assert rep.status == "found"
        assert rep.witness.get(1) == TPoly.var(2, 2)  # x1 := t2
        assert all(c.ok for c in rep.checks)

    def test_trivial_zero_witness(self):
        system = autoreduced_check([P("x1", R11)], Ranking())
        inst = AxiomInstance(system, (), (P("x1", R11), P("y1", R11)), 2)
        val = instance_validate(inst)
        rep = witness_search(inst, val, degree=1, height=1)
        assert rep.status == "found"
        assert rep.witness.get(1) == TPoly.zero(2)

    def test_exhaustion_fixture(self):
        _, inst = load_instance("exhaustion.axiom")
        val = instance_validate(inst)
        rep = witness_search(inst, val, degree=1, height=1)
        assert rep.status == "exhausted"
        assert rep.examined == 27
        assert len(rep.trail) == 27  # complete transcript

    def test_invalid_instance_report(self):
        system = autoreduced_check([P("x1", R11)], Ranking())
        inst = AxiomInstance(system, (), (P("y1", R11),), 2)
        val = instance_validate(inst)
        rep = witness_search(inst, val)
        assert rep.status == "invalid_instance"

    @pytest.mark.parametrize("source, degree, height", [
        ("basic.axiom", 1, 1), ("exhaustion.axiom", 2, 1), (OPEN_SET, 1, 1)])
    def test_any_contiguous_split_returns_the_sequential_first_match(self, source, degree,
                                                                     height):
        """The grid cut into k contiguous chunks, each scanned on its own with
        the open-set and W checks and the chunks taken last-first: the
        earliest chunk with a passing point holds witness_search's witness at
        its examined count, and an exhausted search leaves every chunk empty."""
        if source.endswith(".axiom"):
            _, inst = load_instance(source)
        else:
            inst = build_axiom_instance(parse_instance_text(source))
        rep = witness_search(inst, instance_validate(inst, degree=degree, height=height),
                             degree=degree, height=height)
        ring = inst.system.ring
        grid = list(model_points(ring, range(1, ring.n + 1), degree, height))
        open_checks = axioms._open_set(inst.system, inst.open_extra)
        w_checks = _checks((w, True) for w in inst.w_gens)
        for k in (2, 3, 5):
            cuts = [len(grid) * i // k for i in range(k + 1)]
            first = {}  # chunk start -> (point, examined) of the chunk's first pass
            for lo, hi in reversed(list(zip(cuts, cuts[1:]))):
                for i in range(lo, hi):
                    pt = grid[i]
                    if (_fails(open_checks, pt) is None
                            and _fails(w_checks, pt, pt.d_companion()) is None):
                        first[lo] = (pt, i + 1)
                        break
            if rep.status == "exhausted":
                assert first == {}, k
            else:
                assert first[min(first)] == (rep.witness, rep.examined), k
        assert rep.status == ("exhausted" if source == "exhaustion.axiom" else "found")


class TestModularChecks:
    """_fails decides a check mod P61 only on the side a residue can prove;
    the exact-only loop is the reference."""

    BLOCKS = ("x1", "d1x1", "d1x1 - 1", "x1 - 1", "x1^2 - t2^2", "y1", "d1y1", "y1 - x1",
              "y1^2 - 1", "t2*d1x1 + x1", "1")

    @staticmethod
    def exact_fails(checks, pt, ypt):
        for i, (p, want_zero, _) in enumerate(checks):
            if eval_poly(p, pt, ypt).is_zero() != want_zero:
                return i
        return None

    def coefficients(self):
        nt = R11.nt
        t1, t2, one = TPoly.var(nt, 1), TPoly.var(nt, 2), TPoly.one(nt)
        vanishing = t1 - TPoly.const(nt, modp.t_point(nt)[0])
        return [1, Fraction(3, 2), Scalar(t1 + one, t2 - one - one),
                Fraction(1, modp.P61), Scalar(one, vanishing)]

    def random_checks(self, rng, coeffs):
        checks = []
        for _ in range(rng.randint(1, 5)):
            f = P(rng.choice(self.BLOCKS), R11)
            if rng.random() < 0.5:
                f = f * P(rng.choice(self.BLOCKS), R11)
            if rng.random() < 0.3:
                f = f + P(rng.choice(self.BLOCKS), R11)
            c = rng.choice(coeffs)
            checks.append((f.scale(c), rng.random() < 0.6))
        return _checks(checks)

    def test_fails_matches_the_exact_loop(self):
        rng = random.Random(13)
        coeffs = self.coefficients()
        grids = {bounds: list(model_points(R11, [1], *bounds)) for bounds in ((1, 2), (2, 1))}
        seen = {"mod p": 0, "exact": 0, "undefined": 0, "structural": 0, "found": 0}
        for k in range(16):
            grid = grids[(2, 1)] if k % 4 == 0 else grids[(1, 2)]
            checks = self.random_checks(rng, coeffs)
            for pt in grid:
                ypt = pt.d_companion() if rng.random() < 0.5 else rng.choice(grid)
                got = _fails(checks, pt, ypt)
                assert got == self.exact_fails(checks, pt, ypt), (checks, pt, ypt)
                seen["found"] += got is None
                for _, _, terms in checks[: len(checks) if got is None else got + 1]:
                    r = _residue(terms, pt, ypt)
                    seen["undefined" if r is None else "mod p" if r
                         else "structural" if r is False else "exact"] += 1
        # Every path is taken: decided mod p, exact after a zero residue,
        # undefined, and a structural zero decided with no exact value.
        assert all(n >= 100 for n in seen.values()), seen

    def test_the_two_undefined_coefficients(self):
        coeffs = self.coefficients()[-2:]
        for c in coeffs:
            terms = _checks([(P("x1", R11).scale(c), False)])[0][2]
            assert terms is None
        # Undefined checks still take the exact path: x1 vanishes only at x1 := 0.
        checks = _checks([(P("x1", R11).scale(c), True) for c in coeffs])
        grid = list(model_points(R11, [1], 1, 1))
        assert [_fails(checks, pt) for pt in grid] == [None] + [0] * (len(grid) - 1)

    def test_demo_violated_value_is_the_exact_value(self):
        cert = cert_for("x1", ring=R11)
        rep = naive_vs_tau_demo([P("x1^2", R11)], cert, degree=1, height=1,
                                members=3, samples=10)
        pt, ypt = rep.point
        exact = eval_poly(tau(rep.violated_member).value, pt, ypt)
        assert rep.violated_value == exact and not exact.is_zero()


def test_witness_search_leaves_the_grid_tables_alone():
    _, inst = load_instance("exhaustion.axiom")
    val = instance_validate(inst)
    args = [(R11.nt, layer, 1) for layer in range(3)]

    def state():
        tables = {a: [(p, dict(p.table)) for _, p in _layer(*a)] for a in args}
        return _layer.cache_info().currsize, _mono_derivatives.cache_info().currsize, tables

    first = witness_search(inst, val, degree=2, height=1)
    before = state()
    second = witness_search(inst, val, degree=2, height=1)
    after = state()
    assert first.examined == second.examined == 729
    assert before[:2] == after[:2]
    for a in args:
        assert [(id(p), t) for p, t in before[2][a]] == [(id(p), t) for p, t in after[2][a]]
        assert all(p.table == t for p, t in after[2][a])

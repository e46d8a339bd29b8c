"""Delta-closed sets from finite generator data and the axiom-scheme checks.

Covers saturation-ideal membership through reduction, the
characteristic-set certification pipeline (autoreduced, coherent, algebraic
primality), the naive-versus-prolonged variety comparison, the open-set
equality replay, and validation plus witness search for axiom instances.
Dominance of the projection is checked by an order-bounded elimination
surrogate and every verdict carries the truncation order used.

Every search walks one grid, the model points of ``model_points`` over all
x-indices in the documented order, and tests each candidate against a list of
checks ``(polynomial, want_zero)``. The open set's checks come in a fixed
order: the system elements vanish, then H and each inequation do not. A
candidate stops at its first failing check, and that check names the failure.

Each search compiles its check list once (_checks): every coefficient
becomes its residue mod P61 at model's fixed t-point. At a grid point a
check has one of three outcomes. A nonzero residue proves the exact value
nonzero: a want-zero check fails and a want-nonzero check passes. A
structural zero, where every term reads a t-derivative that is the zero
polynomial, proves the exact value zero with no exact evaluation: a
want-zero check passes and an inequation fails. A zero or undefined
residue, and every point not from the grid, goes to the exact eval_poly.
Every shortcut gives the exact answer, so the first failing check, every
witness, count and trail are those of the exact loop.

instance_validate certifies the RankedSystem that build_axiom_instance
already checked to be autoreduced, from the coherence stage on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

from .algebra import (
    GREVLEX,
    AlgIdeal,
    PrimalityVerdict,
    buchberger,
    eliminate,
    ideal_member,
    primality_oracle,
    saturate,
)
from .model import (
    ModelPoint,
    _residue,
    _residue_terms,
    eval_at_model_point,
    eval_poly,
    model_points,
    t_monomials,
)
from .parser import poly_text
from .poly import DiffPoly
from .prolong import tau, tau_set
from .ranking import Ranking
from .reduction import (
    CoherenceReport,
    NotAutoreduced,
    RankedSystem,
    autoreduced_check,
    coherence_check,
    full_reduce,
)

CERTIFIED = "certified"
REJECTED = "rejected"
CONDITIONAL = "conditional"
_MEMBER_ORDER = 6  # saturation_members first derives the system up to this order


def _frozen_variables(polys, ranking):
    """The derivative variables of polys, highest-ranked first."""
    return tuple(
        sorted({v for f in polys for v in f.variables()}, key=ranking.key, reverse=True)
    )


@dataclass
class CharSetCertificate:
    """Outcome of the certification pipeline, re-verifiable from its parts."""

    status: str
    stage: str
    reason: str
    system: RankedSystem | None = None
    coherence: CoherenceReport | None = None
    primality: PrimalityVerdict | None = None
    algebraic_variables: tuple = ()


def charset_certify(polys, ranking=None, primality_config=None):
    """Autoreducedness, then coherence, then algebraic primality."""
    ranking = ranking or Ranking()
    polys = list(polys)
    if not polys:
        raise ValueError("cannot certify an empty system")
    try:
        system = autoreduced_check(polys, ranking)
    except NotAutoreduced as exc:
        return CharSetCertificate(REJECTED, "autoreduce", str(exc))
    return _certify_system(system, primality_config)


def _certify_system(system, primality_config):
    """The coherence and primality stages of charset_certify, on a system
    already known to be autoreduced."""
    coh = coherence_check(system)
    if not coh.coherent:
        bad = [p for p in coh.pairs if not p.remainder.is_zero()]
        return CharSetCertificate(
            REJECTED,
            "coherence",
            f"{len(bad)} cross-derivative pair(s) do not reduce to zero",
            system,
            coh,
        )
    variables = _frozen_variables(system.elements, system.ranking)
    ideal = buchberger(AlgIdeal(system.ring, variables, tuple(system.elements), GREVLEX))
    verdict = primality_oracle(ideal, primality_config)
    if verdict.status == "not_prime":
        return CharSetCertificate(
            REJECTED, "primality", verdict.note or "algebraic ideal is not prime",
            system, coh, verdict, variables,
        )
    if verdict.status == "prime":
        return CharSetCertificate(
            CERTIFIED, "complete", "coherent with prime algebraic ideal",
            system, coh, verdict, variables,
        )
    return CharSetCertificate(
        CONDITIONAL, "primality",
        verdict.note or "primality not settled by the oracle",
        system, coh, verdict, variables,
    )


def sat_ideal_member(f, cert):
    """(f in [L]:H^inf, f's full-reduction certificate) for the certified, so
    coherent, system L. f is a member exactly when its full remainder r is,
    since premultiplier*f - r is in [L] and the premultiplier is a product of
    initials and separants. A zero r is a member; otherwise r is partially
    reduced, so by Rosenfeld's lemma it is a member exactly when it is in
    (L):H^inf, which ideal_member decides over the variables of L, H and r."""
    return _sat_ideal_members((f,), cert)[0]


def _sat_ideal_members(fs, cert):
    """sat_ideal_member of each of fs, with one saturation (L):H^inf over the
    variables of L, H and every nonzero full remainder, computed only if one
    is nonzero; a member over fewer variables stays one over more."""
    if cert.status == REJECTED or cert.system is None:
        raise ValueError("certificate is rejected; membership test refused")
    system = cert.system
    certs = [full_reduce(f, system) for f in fs]
    rems = [c.remainder for c in certs if not c.remainder.is_zero()]
    sat = None
    if rems:
        variables = _frozen_variables((*system.elements, system.h, *rems), system.ranking)
        sat = saturate(AlgIdeal(system.ring, variables, system.elements, GREVLEX), system.h)
    return [(c.remainder.is_zero() or ideal_member(c.remainder, sat).member, c) for c in certs]


def saturation_members(cert, count):
    """Deterministic supply of distinct verified saturation-ideal members."""
    system = cert.system
    out, seen = [], set()

    def push(g):
        if g.is_zero() or g in seen:
            return
        if not sat_ideal_member(g, cert)[0]:
            raise RuntimeError(f"member {poly_text(g)} of [L] failed re-verification")
        seen.add(g)
        out.append(g)

    m = len(system.leaders[0].theta)
    for theta in t_monomials(m, _MEMBER_ORDER):
        for f in system.elements:
            push(f.derive_theta(theta))
            if len(out) >= count:
                return out
    pool = sorted({v for f in system.elements for v in f.variables()},
                  key=lambda v: v.sort_key)
    base = list(out)
    for g in base:
        for v in pool:
            push(g * DiffPoly.var(g.ring, v))
            if len(out) >= count:
                return out
    for g in base:
        for h in base:
            push(g * h)
            if len(out) >= count:
                return out
    raise ValueError(f"could not assemble {count} distinct saturation-ideal members")


def naive_prolongation_gens(polys):
    """The uncorrected prolongation data {f, tau f} for the given generators."""
    out = []
    for f, tf in tau_set(polys):
        out.append(f)
        out.append(tf.value)
    return out


def _grid(ring, degree, height):
    """Every model point over x1..xn, in the documented order."""
    return model_points(ring, range(1, ring.n + 1), degree, height)


def _checks(pairs):
    """A check list (polynomial, want_zero, residue terms), compiled once per search."""
    return [(p, want_zero, _residue_terms(p)) for p, want_zero in pairs]


def _open_set(system, extra=()):
    """Checks of the open set: each system element vanishes, H and each extra
    inequation do not."""
    return _checks([(f, True) for f in system.elements] + [(system.h, False)]
                   + [(g, False) for g in extra])


def _exact(p, pt, ypt=None):
    """The exact value of p at (pt, ypt); without ypt, p must be free of y-variables."""
    return eval_at_model_point(p, pt) if ypt is None else eval_poly(p, pt, ypt)


def _values(checks, pt, ypt=None):
    """The exact value of each check at (pt, ypt), in order, computed as consumed."""
    for p, _, _ in checks:
        yield _exact(p, pt, ypt)


def _fails(checks, pt, ypt=None):
    """Index of the first check that fails at (pt, ypt), or None.

    A nonzero residue and a structural zero decide a check; a zero or
    undefined residue (or a point without residue tables) takes the exact
    value."""
    for i, (p, want_zero, terms) in enumerate(checks):
        r = _residue(terms, pt, ypt)
        if r:
            if want_zero:
                return i
        elif r is False:
            if not want_zero:
                return i
        elif _exact(p, pt, ypt).is_zero() != want_zero:
            return i
    return None


def _doubled_points(ring, degree, height, x_checks, y_zero):
    """Grid pairs (a, b), a passing the compiled x_checks and every y_zero
    polynomial vanishing at (a, b); a-major documented order, y-grid built once."""
    y_checks = _checks((g, True) for g in y_zero)
    y_grid = None
    for pt in _grid(ring, degree, height):
        if _fails(x_checks, pt) is not None:
            continue
        if y_grid is None:
            y_grid = list(_grid(ring, degree, height))
        for ypt in y_grid:
            if _fails(y_checks, pt, ypt) is None:
                yield pt, ypt


def doubled_samples(system, count, degree=1, height=1, extra_nonzero=()):
    """Pairs (a, b) with the system vanishing at a, H off zero, and the
    prolonged system vanishing at (a, b); documented enumeration order."""
    taus = [tau(f).value for f in system.elements]
    points = _doubled_points(system.ring, degree, height,
                             _open_set(system, extra_nonzero), taus)
    return list(islice(points, count))


@dataclass
class DiscrepancyReport:
    status: str  # "found" | "not_found_at_bounds"
    point: tuple | None
    violated_member: DiffPoly | None
    violated_value: object | None
    members_tested: list = field(default_factory=list)
    candidates_examined: int = 0
    samples_checked: int = 0
    sample_failures: list = field(default_factory=list)


def naive_vs_tau_demo(raw_gens, cert, *, degree=1, height=1, members=10, samples=50):
    """Search the naive prolongation variety for a point missing the corrected
    one, then confirm the corrected data is clean on sampled open-set points."""
    members_list = saturation_members(cert, members)
    member_checks = _checks((tau(g).value, True) for g in members_list)

    point = member = value = None
    examined = 0
    naive = _doubled_points(cert.system.ring, degree, height,
                            _checks((f, True) for f in raw_gens),
                            [tau(f).value for f in raw_gens])
    for pt, ypt in naive:
        examined += 1
        i = _fails(member_checks, pt, ypt)
        if i is not None:
            point, member = (pt, ypt), members_list[i]
            value = eval_poly(member_checks[i][0], pt, ypt)
            break

    sample_pairs = doubled_samples(cert.system, samples, degree=max(degree, 2), height=height)
    failures = []
    for pt, ypt in sample_pairs:
        for g, val in zip(members_list, _values(member_checks, pt, ypt)):
            if not val.is_zero():
                failures.append((pt, ypt, g, val))

    status = "not_found_at_bounds" if point is None else "found"
    return DiscrepancyReport(status, point, member, value, members_list, examined,
                             len(sample_pairs), failures)


@dataclass
class OpenSetReport:
    ok: bool
    h_power: int
    symbolic_ok: bool
    sample_count: int
    failures: list


def open_set_equality_check(cert, g, samples):
    """Replay: members of the saturation ideal prolong to zero on the doubled
    data away from V(H), and the product-rule expansion of tau(H^l * g) holds."""
    member, rc = sat_ideal_member(g, cert)
    if not member:
        raise ValueError("g is not in the saturation ideal")
    ell = rc.steps
    system = cert.system
    h_l = system.h ** ell
    tg = tau(g).value
    lhs = tau(h_l * g).value
    rhs = h_l * tg + g * tau(h_l).value
    symbolic_ok = lhs == rhs
    open_checks = _open_set(system)
    prolonged = _checks((tau(f).value, True) for f in system.elements)
    failures = []
    for idx, (pt, ypt) in enumerate(samples):
        failed = _fails(open_checks, pt)
        if failed is not None:
            on_h = failed == len(system.elements)
            why = "lies on the zero set of H" if on_h else "does not satisfy the system"
            raise ValueError(f"sample {idx} {why}")
        if _fails(prolonged, pt, ypt) is not None:
            raise ValueError(f"sample {idx} does not satisfy the prolonged system")
        val = eval_poly(tg, pt, ypt)
        if not val.is_zero():
            failures.append((idx, val))
    return OpenSetReport(symbolic_ok and not failures, ell, symbolic_ok,
                         len(samples), failures)


@dataclass
class AxiomInstance:
    system: RankedSystem
    open_extra: tuple
    w_gens: tuple
    order_bound: int


@dataclass
class InstanceValidation:
    status: str  # "valid" | "rejected"
    failed: str | None
    certificate: CharSetCertificate | None
    o_point: ModelPoint | None
    order_bound: int


def instance_validate(inst, *, degree=1, height=1, primality_config=None):
    """Hypothesis checks: certified system, W inside the prolongation data,
    and a nonempty open set within the search bounds."""
    cert = _certify_system(inst.system, primality_config)
    if cert.status == REJECTED:
        return InstanceValidation(
            "rejected",
            f"characteristic-set certification failed at {cert.stage}: {cert.reason}",
            cert, None, inst.order_bound,
        )
    ring = inst.system.ring
    pairs = tau_set(inst.system.elements)
    pool = list(inst.w_gens) + [f for f, _ in pairs] + [t.value for _, t in pairs]
    variables = _frozen_variables(pool, inst.system.ranking)
    over = [v for v in variables if v.order > inst.order_bound]
    if over:
        return InstanceValidation(
            "rejected",
            f"derivative {over[0].text()} exceeds the truncation order {inst.order_bound}",
            cert, None, inst.order_bound,
        )
    w_ideal = buchberger(AlgIdeal(ring, variables, tuple(inst.w_gens), GREVLEX))
    for f, tf in pairs:
        if not ideal_member(f, w_ideal).member:
            return InstanceValidation(
                "rejected", f"system element {poly_text(f)} is not in the W ideal",
                cert, None, inst.order_bound,
            )
        if not ideal_member(tf.value, w_ideal).member:
            return InstanceValidation(
                "rejected", f"prolonged element {poly_text(tf.value)} is not in the W ideal",
                cert, None, inst.order_bound,
            )
    checks = _open_set(inst.system, inst.open_extra)
    o_point = next((pt for pt in _grid(ring, degree, height) if _fails(checks, pt) is None), None)
    if o_point is None:
        return InstanceValidation(
            "rejected", "no point of the open set found within the search bounds",
            cert, None, inst.order_bound,
        )
    return InstanceValidation("valid", None, cert, o_point, inst.order_bound)


@dataclass
class ProjectionVerdict:
    ok: bool
    order_bound: int
    eliminants: list
    residuals: list
    note: str = "order-bounded elimination surrogate for dominance of the projection"


def projection_closure_check(inst, validation):
    """Prolong W's generators up to the order bound (each w with every
    delta^theta w of order at most the bound), eliminate the y-family and
    test every eliminant for membership in [L]:H^inf (sat_ideal_member),
    against one saturation."""
    if validation.status != "valid":
        raise ValueError("instance must validate before the projection check")
    ring = inst.system.ring
    gens = {}
    for w in inst.w_gens:
        order = max((v.order for v in w.variables()), default=0)
        for theta in t_monomials(ring.m, inst.order_bound - order):
            gens.setdefault(w.derive_theta(theta))
    gens = tuple(gens)
    variables = _frozen_variables(gens, inst.system.ranking)
    ideal = AlgIdeal(ring, variables, gens, GREVLEX)
    drop = {v for v in variables if v.family == "y"}
    projected = eliminate(ideal, drop)
    eliminants = list(projected.generators)
    verdicts = _sat_ideal_members(eliminants, validation.certificate)
    residuals = [(g, c.remainder) for g, (_, c) in zip(eliminants, verdicts)]
    return ProjectionVerdict(all(ok for ok, _ in verdicts), inst.order_bound, eliminants, residuals)


@dataclass
class CheckLine:
    label: str
    value: object
    want_zero: bool

    @property
    def ok(self):
        return self.value.is_zero() == self.want_zero


@dataclass
class WitnessReport:
    status: str  # "found" | "exhausted" | "invalid_instance"
    witness: ModelPoint | None
    checks: list
    examined: int
    bounds: tuple
    trail: list = field(default_factory=list)


def witness_search(inst, validation, *, degree=1, height=1):
    """First grid point of the open set whose D-companion pair lands in W."""
    if validation.status != "valid":
        return WitnessReport("invalid_instance", None, [], 0, (degree, height))
    open_checks = _open_set(inst.system, inst.open_extra)
    w_checks = _checks((w, True) for w in inst.w_gens)
    labels = ([f"system: {poly_text(f)}" for f in inst.system.elements] + ["H"]
              + [f"inequation: {poly_text(g)}" for g in inst.open_extra]
              + [f"W: {poly_text(w)}" for w in inst.w_gens])
    examined = 0
    trail = []
    for pt in _grid(inst.system.ring, degree, height):
        examined += 1
        failed = _fails(open_checks, pt)
        if failed is None:
            # The exact D-companion, needed only past the open set.
            dpt = pt.d_companion()
            failed = _fails(w_checks, pt, dpt)
            if failed is None:
                checks = open_checks + w_checks
                transcript = [CheckLine(label, val, want_zero) for label, (_, want_zero, _), val
                              in zip(labels, checks, _values(checks, pt, dpt))]
                return WitnessReport("found", pt, transcript, examined, (degree, height), trail)
            failed += len(open_checks)
        trail.append((pt, labels[failed]))
    return WitnessReport("exhausted", None, [], examined, (degree, height), trail)

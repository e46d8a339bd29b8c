"""Ritt reduction against autoreduced systems, with verifiable certificates.

Every reduction returns a certificate whose identity

    premultiplier * input - remainder = sum cofactor[(g, theta)] * theta(g)

holds as an exact polynomial identity and can be re-expanded independently.
Elimination always targets the highest-ranked offending derivative; each step
multiplies by one separant (proper-derivative elimination) or one initial
(leader pseudo-division), so the premultiplier divides H^steps. Offending
variables are fixed from the top down; an elimination step only touches
variables ranked at or below the one being removed, so the highest offender
descends strictly and the loop terminates.

No arithmetic is repeated. A step p := ini*p - mult*divisor is computed on
the reductums (Ritt's pseudo-division step): with p = c*v^e + rest, mult =
c*v^(e-dmin) and divisor = lead*v^dmin + tail (DiffPoly.split), it is
ini*rest - mult*tail, and the term ini*mult*v^dmin that both full products
would form and the subtraction cancel is never formed. That is exact only
when lead == ini, so the divisor's lead is compared with the cached initial
or separant once per offending variable, and a mismatch raises RuntimeError.
The r steps that remove one offender build that reducer's new cofactor by
Horner's rule; the other cofactors and the premultiplier are multiplied by
ini**r once, afterwards, not by ini at every step. Each theta(g) is derived
once per system and kept on the RankedSystem (RankedSystem._theta; the
cache is not part of the system's value). An f whose coefficients have
t-denominators is reduced as den * f, both formed by
scalars.clear_denominators; every step is linear in p and den is a scalar,
so the steps and premultiplier are those of f, and dividing the remainder
and the cofactors by den once gives f's certificate exactly.
verify re-derives every theta(g) with derive_theta and reads no cache, so
it stays an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .poly import DiffPoly
from .ranking import Ranking, leader_initial_separant
from .scalars import Scalar, TPoly, clear_denominators
from .sparse import divides, ediv, elcm

PARTIAL = "partial"
FULL = "full"


class NotAutoreduced(ValueError):
    """Rejection of a candidate system, carrying the offending pair."""

    def __init__(self, reason, i=None, j=None):
        self.reason = reason
        self.pair = (i, j)
        where = ""
        if i is not None and j is not None:
            where = f" (elements {i + 1} and {j + 1})"
        elif i is not None:
            where = f" (element {i + 1})"
        super().__init__(reason + where)


@dataclass(frozen=True)
class RankedSystem:
    """An autoreduced system with cached leaders, initials, separants and H."""

    ranking: Ranking
    elements: tuple
    leaders: tuple
    leader_degrees: tuple
    initials: tuple
    separants: tuple
    h: DiffPoly
    # theta(g) by (index of g, theta), filled on demand; not part of the value
    _thetas: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __len__(self):
        return len(self.elements)

    @property
    def ring(self):
        return self.elements[0].ring if self.elements else None

    def _theta(self, gi, theta):
        """theta applied to element gi, derived once per system: each theta(g)
        is one derivation of the cached theta(g) one step below it."""
        key = (gi, theta)
        out = self._thetas.get(key)
        if out is None:
            i = max((j for j, k in enumerate(theta) if k), default=None)
            if i is None:
                out = self.elements[gi]
            else:
                lower = theta[:i] + (theta[i] - 1,) + theta[i + 1:]
                out = self._theta(gi, lower).derive(i + 1)
            self._thetas[key] = out
        return out


def autoreduced_check(polys, ranking):
    """Accept a sequence as an autoreduced system, or raise NotAutoreduced.

    Each element must be fully reduced with respect to every other one; a
    rejection names the highest-ranked offending variable of the first
    failing pair (reducer-major, in input order).
    """
    polys = list(polys)
    parts = []
    for i, f in enumerate(polys):
        if f.is_zero() or f.is_scalar():
            raise NotAutoreduced("element is a scalar; a proper system has none", i)
        parts.append(leader_initial_separant(f, ranking))
    leaders = [u for u, _, _ in parts]
    degrees = [f.degree_in(u) for f, u in zip(polys, leaders)]
    for i, (u, d) in enumerate(zip(leaders, degrees)):
        for j, f in enumerate(polys):
            if i == j:
                continue
            viol = _violation(f, ranking, (u,), (d,), FULL)
            if viol is not None:
                v, _, theta = viol
                why = (f"contains the proper derivative {v.text()} of {u.text()}" if any(theta)
                       else f"has degree {f.degree_in(u)} >= {d} in the leader {u.text()}")
                raise NotAutoreduced(f"element {why}", j, i)
            if u == leaders[j]:
                raise NotAutoreduced("two elements share a leader", i, j)
    order = sorted(range(len(polys)), key=lambda k: ranking.key(leaders[k]))
    elements = tuple(polys[k] for k in order)
    initials = tuple(parts[k][1] for k in order)
    separants = tuple(parts[k][2] for k in order)
    if elements:
        h = DiffPoly.one(elements[0].ring)
        for ini, sep in zip(initials, separants):
            h = h * ini * sep
        assert not h.is_zero()
    else:
        h = None
    return RankedSystem(
        ranking, elements, tuple(leaders[k] for k in order), tuple(degrees[k] for k in order),
        initials, separants, h,
    )


@dataclass
class ReductionCertificate:
    mode: str
    input: DiffPoly
    remainder: DiffPoly
    premultiplier: DiffPoly
    cofactors: dict = field(default_factory=dict)
    steps: int = 0

    def verify(self, system):
        """Re-expand the certificate identity from scratch."""
        lhs = self.premultiplier * self.input - self.remainder
        rhs = DiffPoly.zero(self.input.ring)
        for (gi, theta), q in self.cofactors.items():
            rhs = rhs + q * system.elements[gi].derive_theta(theta)
        return lhs == rhs


def _violation(p, ranking, leaders, degrees, mode):
    """Highest-ranked variable of p violating reducedness with respect to the
    leaders (of the given degrees), with its reducer's index and operator."""
    rk = ranking.key
    best = None
    for v in p.variables():
        choice = None
        for gi, lg in enumerate(leaders):
            if lg.family != v.family or lg.index != v.index:
                continue
            if v.theta == lg.theta:
                if mode == FULL and p.degree_in(v) >= degrees[gi]:
                    choice = (gi, ediv(v.theta, lg.theta))
                    break
            elif divides(lg.theta, v.theta):
                if choice is None or rk(leaders[choice[0]]) < rk(lg):
                    choice = (gi, ediv(v.theta, lg.theta))
        if choice is not None:
            k = rk(v)
            if best is None or k > best[0]:
                best = (k, v, choice[0], choice[1])
    return None if best is None else (best[1], best[2], best[3])


def _reduce(f, system, mode):
    ring = f.ring
    one = TPoly.one(ring.nt)
    den, nums = clear_denominators(ring.nt, f.terms)
    p = f if den is one else DiffPoly._raw(ring, {m: Scalar._poly(n) for m, n in nums.items()})
    premult = DiffPoly.one(ring)
    cof = {}
    steps = 0
    while not p.is_zero():
        viol = _violation(p, system.ranking, system.leaders, system.leader_degrees, mode)
        if viol is None:
            break
        v, gi, theta = viol
        if any(theta):
            divisor = system._theta(gi, theta)
            ini = system.separants[gi]
            dmin = 1
        else:
            divisor = system.elements[gi]
            ini = system.initials[gi]
            dmin = system.leader_degrees[gi]
        # the reductum step below is ini*p - mult*divisor only when lead == ini
        lead, tail = divisor.split(v, dmin)
        if lead != ini:
            kind = "separant" if any(theta) else "initial"
            raise RuntimeError(f"the cached {kind} of element {gi + 1} is not the coefficient "
                               f"of {v.text()}^{dmin} in its divisor")
        # r steps p := ini*rest - mult*tail; q = sum_j ini^(r-j) * mult_j by Horner
        q = None
        r = 0
        while not p.is_zero():
            e = p.degree_in(v)
            if e < dmin:
                break
            mult, rest = p.split(v, e)
            if e > dmin:
                mult = mult * DiffPoly.var(ring, v, e - dmin)
            p = ini * rest - mult * tail
            q = mult if q is None else ini * q + mult
            r += 1
        power = ini if r == 1 else ini ** r
        premult = power * premult
        for k in cof:
            cof[k] = power * cof[k]
        key = (gi, theta)
        cof[key] = cof[key] + q if key in cof else q
        steps += r
    if den is not one:
        inverse = Scalar(one, den)
        p = p.scale(inverse)
        cof = {k: c.scale(inverse) for k, c in cof.items()}
    return ReductionCertificate(mode, f, p, premult, cof, steps)


def partial_reduce(f, system):
    """Eliminate every proper derivative of a leader; separant premultipliers only."""
    return _reduce(f, system, PARTIAL)


def full_reduce(f, system):
    """Partial reduction plus pseudo-division below each leader degree."""
    return _reduce(f, system, FULL)


def is_reduced(f, system, mode=FULL):
    return f.is_zero() or _violation(
        f, system.ranking, system.leaders, system.leader_degrees, mode) is None


@dataclass
class DeltaPairEvidence:
    """One cross-derivative pair and its reduction against the system."""

    hi: int
    lo: int
    certificate: ReductionCertificate

    @property
    def remainder(self):
        return self.certificate.remainder


@dataclass
class CoherenceReport:
    coherent: bool
    pairs: list


def coherence_check(system):
    """Reduce every cross-derivative pair to zero, or report the failures.

    For elements a, b whose leaders derive the same variable, with a the
    higher-ranked one and theta the join of the two leader operators, the pair
    is S_b * (theta - theta_a)(a) - S_a * (theta - theta_b)(b).
    """
    evidence = []
    coherent = True
    for i in range(len(system.elements)):
        for j in range(i + 1, len(system.elements)):
            ui, uj = system.leaders[i], system.leaders[j]
            if ui.family != uj.family or ui.index != uj.index:
                continue
            hi, lo = j, i  # elements are sorted ascending; j has the higher leader
            ua, ub = system.leaders[hi], system.leaders[lo]
            theta = elcm(ua.theta, ub.theta)
            a_shift = system._theta(hi, ediv(theta, ua.theta))
            b_shift = system._theta(lo, ediv(theta, ub.theta))
            delta = system.separants[lo] * a_shift - system.separants[hi] * b_shift
            cert = full_reduce(delta, system)
            evidence.append(DeltaPairEvidence(hi, lo, cert))
            if not cert.remainder.is_zero():
                coherent = False
    return CoherenceReport(coherent, evidence)

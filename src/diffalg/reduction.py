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

No arithmetic is repeated, and none of it divides. _reduce works over Z[t]:
poly._into_z, the one way in, clears f, and p, every cofactor and the
premultiplier are flat {packed monomial: int} dicts, one int per term,
multiplied by poly._sum_over_z. The int packs the t-exponents in poly's
16-bit codec and each variable's exponent in a field above them (poly._Fields):
the system keeps one such layout with the divisors packed by it
(RankedSystem._z), appends a field the first time f or a divisor brings in
a variable, and never moves one, so the keys of its cached divisors stay
valid. degree_in, split and _violation's variable set read the fields with
a shift and a mask. An exponent that outgrows its field raises
sparse.Overflow, and the whole reduction runs again at double the width
(Packing.widening), in a fresh layout and divisor table that replace the
system's together, so later reductions by it start at the widest width it
needed. Each theta(g) is derived once per system (RankedSystem._theta),
split at v^dmin once, and its lead and tail cleared together by _into_z to
(lead*v^dmin + tail)/(c*d), c an int and d a monic TPoly
(RankedSystem._divisor); neither cache is part of the system's value. A step
is Ritt's pseudo-division step on the reductums: with p = mult*v^dmin +
rest, p := lead*rest - mult*tail, never forming the term lead*mult*v^dmin
that would cancel. That is c*d times ini*p - mult*theta(g) only when
lead/(c*d) is the cached initial or separant ini, which _divisor checks,
raising RuntimeError. The r steps that remove one offender build its
cofactor by Horner's rule, and multiply the others and the premultiplier by
lead**r once. So p is S times the Scalar loop's p, the premultiplier S/S0
times and the cofactor of theta(g) S/(c*d) times, with S0 f's clearing and S
the product of S0 and every step's c*d: an int and a TPoly, the unit unless
f or a divisor has t-denominators. poly._from_z decodes each distinct
monomial and t-exponent once and divides S out once, trial-dividing by its
known factors first, so the certificate is exactly the Scalar loop's. An f
with nothing to reduce is returned as it is.
verify derives every theta(g) afresh in a table of its own, reads no cache
of the system's (neither divisors nor fields) nor _reduce's int forms, and
re-expands its identity as one poly._sum_of_products, or, when every product
is a scale, compares.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .poly import DiffPoly, _codec, _Fields, _from_z, _into_z, _sum_of_products, _sum_over_z
from .ranking import Ranking, leader_initial_separant
from .scalars import TPoly
from .sparse import divides, ediv, elcm, power

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
    # the Z[t] state, empty until a reduction: the x-fields (poly._Fields) the
    # int forms of each reduction share, and the same theta(g) packed by them
    # and split for Ritt's step (_divisor), by (index, theta); likewise. A
    # reduction that widens replaces both, and _reduce starts at these
    # fields' width, so a system whose exponents outgrew a width once skips it
    _z: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __len__(self):
        return len(self.elements)

    @property
    def ring(self):
        return self.elements[0].ring if self.elements else None

    def _theta(self, gi, theta, table):
        """theta applied to element gi, derived once per table (the system's
        cache _thetas, or verify's own) from the tabled theta(g) below it."""
        key = (gi, theta)
        out = table.get(key)
        if out is None:
            i = max((j for j, k in enumerate(theta) if k), default=None)
            if i is None:
                out = self.elements[gi]
            else:
                lower = theta[:i] + (theta[i] - 1,) + theta[i + 1:]
                out = self._theta(gi, lower, table).derive(i + 1)
            table[key] = out
        return out

    def _divisor(self, gi, theta, v):
        """theta(g) for element gi over Z[t], packed by the system's fields,
        split at v = theta(leader) once per Z[t] state:
        (dmin, lead, -tail, c, d), theta(g) = (lead*v^dmin + tail)/(c*d).
        Ritt's step on the reductums needs lead/(c*d) to be the cached initial
        (theta = 0) or separant; a mismatch raises RuntimeError."""
        fields, table = self._z
        key = (gi, theta)
        out = table.get(key)
        if out is None:
            proper = any(theta)
            dmin = 1 if proper else self.leader_degrees[gi]
            lead, tail = self._theta(gi, theta, self._thetas).split(v, dmin)
            if lead != (self.separants if proper else self.initials)[gi]:
                kind = "separant" if proper else "initial"
                raise RuntimeError(f"the cached {kind} of element {gi + 1} is not the "
                                   f"coefficient of {v.text()}^{dmin} in its divisor")
            d, c, (lead, tail) = _into_z(fields, (lead.terms, tail.terms))
            out = table[key] = (dmin, lead, {x: -k for x, k in tail.items()}, c, d)
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
            viol = _violation(f.variables(), f.degree_in, ranking, (u,), (d,), FULL)
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
        """Re-expand the certificate identity from scratch, theta(g) derived in
        a table of this call's own; False if a cofactor names a missing element."""
        for x in (self.premultiplier, self.remainder, *self.cofactors.values(),
                  *system.elements[:1]):
            self.input._check(x)
        if any(not 0 <= gi < len(system) for gi, _ in self.cofactors):
            return False
        pairs = [(system._theta(gi, theta, thetas), q) for thetas in [{}]
                 for (gi, theta), q in self.cofactors.items()]
        if len(self.premultiplier.terms) < 2 and all(len(q.terms) < 2 for _, q in pairs):
            # every product a scale: comparing costs less than cancelling
            return self.premultiplier * self.input == sum((q * g for g, q in pairs), self.remainder)
        pairs += (-self.premultiplier, self.input), (DiffPoly.one(self.input.ring), self.remainder)
        return _sum_of_products(pairs).is_zero()


def _violation(variables, degree, ranking, leaders, degrees, mode):
    """Highest-ranked of a polynomial's variables violating reducedness with
    respect to the leaders (of the given degrees), with its reducer's index
    and operator; degree(v) is the polynomial's degree in v."""
    rk = ranking.key
    best = None
    for v in variables:
        choice = None
        for gi, lg in enumerate(leaders):
            if lg.family != v.family or lg.index != v.index:
                continue
            if v.theta == lg.theta:
                if mode == FULL and degree(v) >= degrees[gi]:
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
    viol = _violation(f.variables(), f.degree_in, system.ranking, system.leaders,
                      system.leader_degrees, mode)
    if viol is None:
        return ReductionCertificate(mode, f, f, DiffPoly.one(f.ring), {}, 0)
    start = system._z[0].codec if system._z else _codec(f.ring.nt)
    return start.widening(lambda codec: _reduce_over_z(f, system, mode, viol, codec))


def _reduce_over_z(f, system, mode, viol, codec):
    """_reduce's certificate for an f with the violation viol, in the
    system's fields, which are of codec's width or replaced by a fresh state
    that is; sparse.Overflow if an exponent outgrows them."""
    ranking, leaders, degrees = system.ranking, system.leaders, system.leader_degrees
    ring = f.ring
    one = TPoly.one(ring.nt)
    if not system._z or system._z[0].codec is not codec:
        system._z[:] = _Fields(codec), {}
    fields, divisors = system._z
    unit = {0: 1}
    # S = c*d; divisors[key][3:] is the c*d of key's divisor; bases are
    # factors of d that _from_z tries first, once a divisor's t-denominators
    # make d large
    den0, c0, (p,) = _into_z(fields, (f.terms,))
    c, d = c0, den0
    premult, cof, bases, steps = unit, {}, {}, 0
    while viol is not None:
        v, gi, theta = viol
        dmin, lead, tail, cg, dg = system._divisor(gi, theta, v)
        # r steps p := lead*rest - mult*tail with mult = (p's coefficient of
        # v^e) * v^(e-dmin); q = sum_j lead^(r-j) * mult_j, lead_r = lead^r
        q, r = None, 0
        while p:
            e = fields.degree(p, v)
            if e < dmin:
                break
            mult, rest = fields.split(p, v, e, dmin)
            p = _sum_over_z(((lead, rest), (mult, tail)), fields)
            q = mult if q is None else _sum_over_z(((lead, q), (mult, unit)), fields)
            lead_r = lead if r == 0 else _sum_over_z(((lead_r, lead),), fields)
            r += 1
        premult = _sum_over_z(((lead_r, premult),), fields)
        for k in cof:
            cof[k] = _sum_over_z(((lead_r, cof[k]),), fields)
        key = (gi, theta)
        cof[key] = _sum_over_z(((cof[key], unit), (q, unit)), fields) if key in cof else q
        c *= cg ** r
        if dg is not one:
            d = power(dg, r, d)  # d * dg**r
            bases.update((b, None) for b in (den0, dg) if b is not one)
        steps += r
        viol = _violation(fields.variables(p), functools.partial(fields.degree, p),
                          ranking, leaders, degrees, mode)

    def value(ints, k=1, dk=one):
        """The DiffPoly whose int form, c*d/(k*dk) times it, is ints."""
        den = d if dk is one else d.exact_div(dk)
        return DiffPoly._raw(ring, _from_z(fields, ints, c // k, den, bases))

    cofactors = {key: value(q, *divisors[key][3:]) for key, q in cof.items()}
    return ReductionCertificate(mode, f, value(p), value(premult, c0, den0), cofactors, steps)


def partial_reduce(f, system):
    """Eliminate every proper derivative of a leader; separant premultipliers only."""
    return _reduce(f, system, PARTIAL)


def full_reduce(f, system):
    """Partial reduction plus pseudo-division below each leader degree."""
    return _reduce(f, system, FULL)


def is_reduced(f, system, mode=FULL):
    return f.is_zero() or _violation(f.variables(), f.degree_in, system.ranking,
                                     system.leaders, system.leader_degrees, mode) is None


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
            a_up = system._theta(hi, ediv(theta, ua.theta), system._thetas)
            b_up = system._theta(lo, ediv(theta, ub.theta), system._thetas)
            delta = _sum_of_products(((system.separants[lo], a_up), (-system.separants[hi], b_up)))
            cert = full_reduce(delta, system)
            evidence.append(DeltaPairEvidence(hi, lo, cert))
            if not cert.remainder.is_zero():
                coherent = False
    return CoherenceReport(coherent, evidence)

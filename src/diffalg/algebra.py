"""Commutative-algebra backend over the derivative variables actually occurring.

Polynomials are frozen to exponent vectors over an ordered variable tuple,
as sparse term dicts (see sparse.py); to_algpoly and from_algpoly keep those
tuple keys. Inside the backend every term dict is keyed by one int per
monomial instead (sparse.Packing), so the leading term is max(p), a monomial
product is an addition and a divisibility test one subtraction and a mask.
Each call takes its field width from its input: room for four times the
largest total degree (grevlex) or exponent (lex), at least 7 bits. Grevlex
division never raises a degree, so packing the input and every S-pair lcm
checks it; under lex a division step or an S-polynomial can raise one, and
_nf checks each leading monomial before it uses it. A monomial that outgrows
its fields raises sparse.Overflow, and the call is recomputed at double the
width, with the same result.
Every call, the primality oracle included, picks its coefficient domain from
its data in _freeze. When every coefficient of every polynomial it works on
is a rational constant, each polynomial is scaled to its primitive integer
form and the work runs on plain ints, fraction-free (Bareiss, Math. Comp.
1968): a division step scales the work by bc/g and subtracts c/g times the
divisor, g = gcd(c, bc), and `/` is never applied to an int coefficient.
Otherwise it runs on exact Scalars with the field step c/bc. Both domains
share one arithmetic path; _ratio, _primitive and _normalize are the only
places that tell them apart. Results thaw back to DiffPolys over Scalars
with Fraction constants, normal forms and quotients divided by the scale the
integer run picked up, so both domains give the same values. A membership
certificate's quotients thaw when first read; the division identity is
checked on the packed ints before ideal_member returns, read or not.
Buchberger selects pairs by lcm order and keeps them by the Gebauer-Moeller
update (JSC 1988): Buchberger's product and chain criteria drop a pair whose
S-polynomial the pairs kept already account for. The emitted basis is
inter-reduced and normalized to denominator-free, integer-primitive
elements with a positive leading coefficient. buchberger, eliminate and
saturate each re-check the basis they compute and raise RuntimeError unless
every S-polynomial reduces to zero by it, save those of pairs with coprime
leading monomials or with a strict chain through a third element (each
rests on pairs of strictly smaller lcm, so the check is a proof by
induction on the monomial order; see _self_check), and then every input
generator does. Reductions whose quotients nobody reads form none (_rem).
The AlgIdeal buchberger returns carries the packed basis with its domain,
as _freeze would give it for that basis tuple; ideal_member then freezes
only f, unless the basis has been replaced or the domains differ.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from . import modp
from .poly import DiffPoly
from .scalars import Scalar, TPoly, _coprime_ints, clear_denominators, tpoly_gcd
from .sparse import (
    GREVLEX, LEX, Overflow, Packing, add, exact_div, monomials, neg, sub, sub_shifted,
    total_degree,
)


def to_algpoly(f, variables, pos=None):
    """Freeze a differential polynomial over the variable tuple, indexed by pos if given."""
    pos = pos or {v: i for i, v in enumerate(variables)}
    nv = len(variables)
    terms = {}
    for mono, c in f.terms.items():
        e = [0] * nv
        for v, k in mono:
            i = pos.get(v)  # one lookup: v is rarely its key's object, so each runs __eq__
            if i is None:
                raise ValueError(f"variable {v.text()} outside the ideal's variables")
            e[i] = k
        terms[tuple(e)] = c
    return terms


def _freeze(polys, variables):
    """Term dicts over int if every coefficient is constant (so if none is),
    each scaled to its primitive integer form, else over Scalar (a constant
    Scalar's denominator is the shared unit); the map taking an integer into
    that domain; and the rational each polynomial was scaled by (1 if none)."""
    pos = {v: i for i, v in enumerate(variables)}
    frozen = [to_algpoly(f, variables, pos) for f in polys]
    coeffs = [c for p in frozen for c in p.values()]
    nt = coeffs[0].nvars if coeffs else 0
    one, t0 = TPoly.one(nt), {(0,) * nt}
    if all(c.den is one and c.num.terms.keys() <= t0 for c in coeffs):
        out, scales = [], []
        for p in frozen:
            ints, scale = _coprime_ints({e: next(iter(c.num.terms.values())) for e, c in p.items()})
            out.append(ints)
            scales.append(scale)
        return out, int, scales
    return frozen, functools.partial(Scalar.from_fraction, nt), [1] * len(frozen)


def _packed(order, n, polys, run, degree=0):
    """The packing and run(packing, polys packed by it), at the width
    Packing.fit picks for the exponent-vector polys and degree, doubled while
    it overflows."""
    codec = Packing.fit(order, n, polys, degree)
    while True:
        try:
            return codec, run(codec, [codec.pack(p) for p in polys])
        except Overflow:
            codec = codec.wider()


def from_algpoly(p, variables, ring, scale=1):
    """Thaw a term dict, each coefficient times the rational scale, to a
    DiffPoly; int coefficients become exact Fractions. The variables are
    those of an AlgIdeal, which checked them against the ring, so the terms
    are not validated again; the variables are put in sort_key order once."""
    t0 = (0,) * ring.nt
    slots = sorted(range(len(variables)), key=lambda i: variables[i].sort_key)
    terms = {}
    for e, c in p.items():
        if scale != 1:
            c = c * scale
        if isinstance(c, (int, Fraction)):
            c = Scalar._poly(TPoly._raw(ring.nt, {t0: Fraction(c) if type(c) is int else c}))
        elif not isinstance(c, Scalar):
            raise RuntimeError(f"inexact coefficient {c!r} in the Groebner backend")
        terms[tuple((variables[i], e[i]) for i in slots if e[i])] = c
    return DiffPoly._raw(ring, terms)


def _ratio(c, bc):
    """The step (s, r) with s*c == r*bc that cancels the coefficient c by bc.

    Over ints s = bc/g and r = c/g with g = gcd(c, bc), signed so that s > 0;
    over Scalars the field step s = 1, r = c/bc.
    """
    if type(c) is int:
        g = gcd(c, bc)
        if bc < 0:
            g = -g
        return bc // g, c // g
    return 1, c / bc


def _nf(p, basis, codec):
    """Normal form with quotients: (remainder, quotients, scale) with
    scale*p = sum(q_i * basis_i) + remainder; the scale is the product of the
    integer steps' s, and 1 over Scalars (sparse.Packing.divide)."""
    return codec.divide(p, basis, _ratio)


def _rem(p, basis, codec):
    """The remainder of _nf alone, with no quotients formed."""
    return codec.divide(p, basis, _ratio, quotients=False)[0]


def _primitive(p):
    """p over ints divided by the gcd of its coefficients; p over Scalars as it is."""
    c0 = next(iter(p.values()))
    if type(c0) is not int:
        return p
    g = gcd(*p.values())
    return p if g == 1 else {e: c // g for e, c in p.items()}


def _normalize(p):
    """Denominator-free, integer-primitive, positive leading coefficient."""
    if not p:
        return p
    c0 = next(iter(p.values()))
    if type(c0) is int:
        result = _primitive(p)
        negative = result[max(result)] < 0
    else:
        _, nums = clear_denominators(c0.nvars, p)
        content = TPoly.zero(c0.nvars)
        for q in nums.values():
            content = tpoly_gcd(content, q)
        cleaned = {e: q.exact_div(content) for e, q in nums.items()}
        _, scale = _coprime_ints({(e, f): c for e, q in cleaned.items() for f, c in q.terms.items()})
        result = {e: Scalar._poly(q.scale(scale)) for e, q in cleaned.items()}
        negative = result[max(result)].num.lead_coeff() < 0
    return neg(result) if negative else result


def _spoly(f, g, codec):
    """The S-polynomial of f and g up to a nonzero constant factor: the lcm
    shifts of f and g, cross-multiplied by their leading coefficients. Under
    lex a key may outgrow the fields; _nf catches it."""
    fe, ge = max(f), max(g)
    l = codec.lcm(fe, ge)
    work = codec.shifted(f, codec.offset(l, fe))
    sub_shifted(work, *_ratio(f[fe], g[ge]), codec.offset(l, ge), g)
    return work


def _buchberger(gens, codec):
    """A Groebner basis of (gens), reduced by _interreduce.

    Pairs are kept by the Gebauer-Moeller update (Becker-Weispfenning's
    UPDATE): when h joins, a new pair (g, h) is dropped if another new
    pair's lcm properly divides its lcm (criterion M), one pair is kept per
    lcm, a coprime one if there is one (F), and a coprime pair is dropped
    (product criterion); a queued pair (f, g) is dropped if lt(h) divides
    its lcm and neither lcm(f, h) nor lcm(g, h) equals it (B). An element
    whose leading monomial lt(h) divides forms no new pairs, but it stays a
    divisor. Pairs leave the heap by lcm, ties in insertion order.
    """
    G, leads, active = [], [], []
    heap, live, seq = [], {}, itertools.count()
    lcm, divides = codec.lcm, codec.divides

    def update(h):
        e, k = max(h), len(G)
        for (i, j), l in list(live.items()):
            if divides(e, l) and lcm(leads[i], e) != l and lcm(leads[j], e) != l:
                del live[i, j]  # criterion B; skipped when popped
        new = [(lcm(leads[i], e), i) for i in range(k) if active[i]]
        kept = {}
        for l, i in new:
            if any(m != l and divides(m, l) for m, _ in new):
                continue  # criterion M
            coprime = l == codec.mul(leads[i], e)
            if l not in kept or coprime and not kept[l][1]:
                kept[l] = i, coprime  # criterion F
        for l, (i, coprime) in kept.items():
            if not coprime:
                live[i, k] = l
                heapq.heappush(heap, (l, next(seq), i, k))
        for i in range(k):
            if active[i] and divides(e, leads[i]):
                active[i] = False
        G.append(h)
        leads.append(e)
        active.append(True)

    for g in gens:
        if g:
            update(g)
    while heap:
        _, _, i, j = heapq.heappop(heap)
        if live.pop((i, j), None) is None:
            continue
        rem = _rem(_spoly(G[i], G[j], codec), G, codec)
        if rem:
            update(_primitive(rem))
    return _interreduce(G, codec)


def _interreduce(G, codec):
    """The reduced basis of a Groebner basis: drop every element whose leading
    monomial another's divides (of equal leads the first stays), reduce each
    kept element by the others, then normalize and sort."""
    G = [g for g in G if g]
    leads = [max(g) for g in G]
    kept = [
        g for i, (g, e) in enumerate(zip(G, leads))
        if not any(codec.divides(f, e) and (f != e or j < i) for j, f in enumerate(leads) if j != i)
    ]
    G = [_normalize(_rem(g, kept[:i] + kept[i + 1 :], codec)) for i, g in enumerate(kept)]
    G.sort(key=max)
    return G


def _self_check(G, gens, codec):
    """Raise RuntimeError unless every S-polynomial of G reduces to zero by G
    (G is a Groebner basis of (G)) and then every input generator does (so
    (G) contains the input ideal).

    Two criteria skip a pair (i, j) of lcm L: coprime leading monomials
    (product criterion), and a third element k whose leading monomial
    divides L with lcm(i, k) and lcm(j, k) both proper divisors of L (chain
    criterion, strict form). The check stays a proof in any visiting order.
    G is a Groebner basis if every S-polynomial S(i, j) is a combination of
    elements times monomials each with leading monomial below L. By
    induction on L in the monomial order: a pair that reduces to zero has
    such a combination by its division; a coprime pair has one; and a
    chain-skipped pair's S(i, j) is, up to nonzero constants, a monomial
    multiple of S(i, k) plus one of S(k, j), whose lcms are proper divisors
    of L, hence smaller, so their combinations, multiplied up, stay below L.
    With an equal lcm allowed the skipped pairs could rest on each other.
    """
    leads = [max(g) for g in G]
    lcm = [[codec.lcm(a, b) for b in leads] for a in leads]
    for j in range(len(G)):
        for i in range(j):
            l = lcm[i][j]
            if l == codec.mul(leads[i], leads[j]) or any(
                k != i and k != j and codec.divides(e, l) and lcm[i][k] != l and lcm[j][k] != l
                for k, e in enumerate(leads)
            ):
                continue
            if _rem(_spoly(G[i], G[j], codec), G, codec):
                raise RuntimeError("S-polynomial self-check failed on emitted basis")
    if any(_rem(g, G, codec) for g in gens):
        raise RuntimeError("an input generator does not reduce to zero by the emitted basis")


def _checked_basis(codec, gens):
    """The reduced basis of (gens), after _self_check."""
    G = _buchberger(gens, codec)
    _self_check(G, gens, codec)
    return G


@dataclass
class AlgIdeal:
    ring: object
    variables: tuple
    generators: tuple
    order: str = GREVLEX
    basis: tuple | None = None
    # (basis, variables, packing, packed basis, lift), set by buchberger; see _cached
    _frozen: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        for g in self.generators:
            to_algpoly(g, self.variables)  # validates variable coverage

    @classmethod
    def _raw(cls, ring, variables, generators, order, basis=None, frozen=None):
        # unchecked: the generators are an AlgIdeal's, or thawed over its variables
        out = cls.__new__(cls)
        out.ring, out.variables, out.generators, out.order = ring, variables, generators, order
        out.basis, out._frozen = basis, frozen
        return out


def buchberger(ideal):
    """Attach the reduced, self-checked basis; deterministic for fixed input."""
    gens, lift, _ = _freeze(ideal.generators, ideal.variables)
    codec, G = _packed(ideal.order, len(ideal.variables), gens, _checked_basis)
    basis = tuple(from_algpoly(codec.unpack(g), ideal.variables, ideal.ring) for g in G)
    return AlgIdeal._raw(ideal.ring, ideal.variables, ideal.generators, ideal.order, basis,
                         (basis, ideal.variables, codec, G, lift))


def _cached(ideal):
    """(packing, packed basis, lift) that buchberger attached; None without
    one, or once basis, variables or order are no longer those it was made
    from. ideal.basis is the packed basis thawed at scale 1, term for term."""
    c = ideal._frozen
    if c is None or c[0] is not ideal.basis or c[1] is not ideal.variables:
        return None
    return c[2:] if c[2].order == ideal.order else None


class MembershipCertificate:
    """member, normal_form and quotients; the quotients may be given as a function
    returning their list, called on the first read and kept. == and repr read them."""

    def __init__(self, member, normal_form, quotients):
        self.member, self.normal_form, self._quotients = member, normal_form, quotients

    @property
    def quotients(self):
        if callable(self._quotients):
            self._quotients = self._quotients()
        return self._quotients

    def __eq__(self, other):
        return isinstance(other, MembershipCertificate) and (self.member, self.normal_form,
            self.quotients) == (other.member, other.normal_form, other.quotients)

    def __repr__(self):
        return (f"MembershipCertificate(member={self.member!r}, "
                f"normal_form={self.normal_form!r}, quotients={self.quotients!r})")

    def __bool__(self):
        return self.member


def ideal_member(f, ideal):
    """Normal-form membership test; the division identity is re-verified."""
    ideal = ideal if ideal.basis is not None else buchberger(ideal)
    (p,), lift, (p_scale,) = _freeze((f,), ideal.variables)
    cached = _cached(ideal)
    if cached is not None and (lift is int) == (cached[2] is int):
        codec, basis, _ = cached
        # each basis element is ideal.basis's, unscaled
        try:
            return _member(ideal, codec, [codec.pack(p), *basis], [p_scale] + [1] * len(basis))
        except Overflow:
            pass  # f outgrows the cached packing
    polys, _, scales = _freeze((f, *ideal.basis), ideal.variables)
    return _packed(ideal.order, len(ideal.variables), polys,
                   lambda codec, polys: _member(ideal, codec, polys, scales))[1]


def _member(ideal, codec, polys, scales):
    """The certificate for polys[0] divided by the basis polys[1:], scales
    as _freeze returns them."""
    (p, *basis), (p_scale, *b_scales) = polys, scales
    rem, quots, scale = _nf(p, basis, codec)
    recomposed = rem
    for q, b in zip(quots, basis):
        recomposed = add(recomposed, codec.product(q, b))
    if recomposed != (p if scale == 1 else {e: scale * c for e, c in p.items()}):
        raise RuntimeError("division certificate failed re-verification")
    # scale*p_scale*f = rem + sum(q_i * b_scale_i * basis_i); the quotients thaw when read
    den, variables, ring = scale * p_scale, ideal.variables, ideal.ring
    nf = from_algpoly(codec.unpack(rem), variables, ring, Fraction(1, den))
    return MembershipCertificate(not rem, nf, lambda: [
        from_algpoly(codec.unpack(q), variables, ring, Fraction(bs) / den)
        for q, bs in zip(quots, b_scales)])


def _lex_eliminate(gens, n, k):
    """The self-checked reduced lex basis of gens (exponent vectors in n
    variables), restricted to the elements free of the first k variables,
    with those k slots struck out."""
    codec, G = _packed(LEX, n, gens, _checked_basis)
    G = [codec.unpack(g) for g in G]
    return [{e[k:]: c for e, c in g.items()} for g in G if not any(any(e[:k]) for e in g)]


def eliminate(ideal, drop):
    """Generators of the ideal intersected with the subring without `drop`."""
    drop = set(drop)
    if not drop <= set(ideal.variables):
        raise ValueError("dropped variables must belong to the ideal")
    if not drop:
        return AlgIdeal._raw(ideal.ring, ideal.variables, ideal.generators, ideal.order)
    first = tuple(v for v in ideal.variables if v in drop)
    rest = tuple(v for v in ideal.variables if v not in drop)
    gens = _freeze(ideal.generators, first + rest)[0]
    kept = _lex_eliminate(gens, len(ideal.variables), len(first))
    return AlgIdeal._raw(ideal.ring, rest, tuple(from_algpoly(g, rest, ideal.ring) for g in kept),
                         GREVLEX)


def saturate(ideal, h):
    """I : h^infinity via the extra-variable trick: eliminate z from I + (1 - z*h)."""
    (hp, *gens), lift, _ = _freeze((h, *ideal.generators), ideal.variables)
    n = len(ideal.variables) + 1
    gens = [{(0,) + e: c for e, c in g.items()} for g in gens]
    gens.append(sub({(0,) * n: lift(1)}, {(1,) + e: c for e, c in hp.items()}))
    out = tuple(from_algpoly(g, ideal.variables, ideal.ring) for g in _lex_eliminate(gens, n, 1))
    return AlgIdeal._raw(ideal.ring, ideal.variables, out, ideal.order)


@dataclass
class MacaulayResult:
    status: str  # "member" | "not_at_bound" | "bound_too_small"
    bound: int

    def __bool__(self):
        return self.status == "member"

    @property
    def decisive(self):
        return self.status == "member"


def macaulay_member(f, ideal, bound):
    """Brute-force membership: is f in the span of {m*g : deg(m*g) <= bound}?

    Sound for membership at the given bound; a miss refutes only up to it.
    """
    polys = _freeze((f, *ideal.generators), ideal.variables)[0]
    if total_degree(polys[0]) > bound:
        return MacaulayResult("bound_too_small", bound)
    nv = len(ideal.variables)
    room = [bound - total_degree(g) for g in polys[1:]]

    def run(codec, polys):
        p, *gens = polys
        shifts = [(k, codec.offset(m)) for k, m in codec.monomials(bound)]
        rows = []
        for g, r in zip(gens, room):
            if g:
                rows.extend(codec.shifted(g, d) for k, d in shifts if k <= r)
        # Echelonize the products, then reduce f against the pivots.
        pivots = {}

        def reduce_vec(vec):
            vec = dict(vec)
            while vec:
                e = max(vec)
                piv = pivots.get(e)
                if piv is None:
                    return vec, e
                sub_shifted(vec, *_ratio(vec[e], piv[e]), 0, piv)
            return vec, None

        for row in rows:
            red, lead_e = reduce_vec(row)
            if lead_e is not None:
                pivots[lead_e] = _primitive(red)
        return reduce_vec(p)[0]

    residual = _packed(GREVLEX, nv, polys, run, bound)[1]
    return MacaulayResult("not_at_bound" if residual else "member", bound)


# Limits of the primality search that no caller varies: the factor search
# gives up above FACTOR_BUDGET candidates, and PROBE_TRIALS probes draw
# polynomials of degree and integer coefficient height up to PROBE_DEGREE and
# PROBE_HEIGHT.
FACTOR_BUDGET = 200_000
PROBE_TRIALS = 32
PROBE_DEGREE = 2
PROBE_HEIGHT = 2


@dataclass
class PrimalityConfig:
    factor_degree: int = 2
    factor_height: int = 2
    seed: int = 0


@dataclass
class PrimalityVerdict:
    status: str  # "prime" | "not_prime" | "unknown"
    method: str  # "linear" | "principal-irreducible" | "counterexample" | "probe-exhausted"
    witness: tuple | None = None
    note: str = ""


def _verify_zero_divisor(ideal, a, b):
    prod_in = ideal_member(a * b, ideal).member
    a_out = not ideal_member(a, ideal).member
    b_out = not ideal_member(b, ideal).member
    return prod_in and a_out and b_out


_PROOF_PRIMES = tuple(q for q in range(2, 100) if all(q % d for d in range(2, q)))


def _irreducibility_prime(p):
    """A prime proving p, frozen to a primitive integer polynomial,
    irreducible over Q, or None when none below 100 does.

    Only a univariate p is tried. As p is primitive, a factorization of p
    over Q is one over Z (Gauss's lemma); if the prime does not divide the
    leading coefficient, both factors keep their degrees mod the prime, so a
    p irreducible mod the prime is irreducible over Q.
    Q is algebraically closed in Q(t), so it stays irreducible over the
    rational-function field too.
    """
    occ = {j for e in p for j, k in enumerate(e) if k}
    if len(occ) != 1:
        return None
    (j,) = occ
    q = {e[j]: c for e, c in p.items()}
    coeffs = [q.get(k, 0) for k in range(max(q) + 1)]
    for prime in _PROOF_PRIMES:
        if coeffs[-1] % prime and modp.irreducible(
            modp.trim([c % prime for c in coeffs]), prime
        ):
            return prime
    return None


def _principal(ideal, f, config):
    """Verdict on the principal ideal (f), f of total degree at least 1.

    Linear f is prime. Otherwise an exhaustive search over integer-coefficient
    factors within the degree/height bounds either finds a verified factor
    pair or is followed by an irreducibility proof mod a small prime.
    """
    def unknown(note):
        return PrimalityVerdict("unknown", "principal-irreducible", None, note)

    if f.total_degree() == 1:
        return PrimalityVerdict("prime", "principal-irreducible", None, "principal linear generator")
    (p,), lift, _ = _freeze((f,), ideal.variables)
    max_deg = min(config.factor_degree, total_degree(p) - 1)
    if max_deg < 1:
        return unknown("factor-degree bound below 1; search not attempted")
    if lift is not int:
        return unknown(
            "principal generator has non-constant coefficients; factor search not attempted")
    monos = monomials(len(ideal.variables), max_deg)
    ladder = list(range(-config.factor_height, config.factor_height + 1))
    if len(ladder) ** len(monos) > FACTOR_BUDGET:
        return unknown(f"factor search space above budget {FACTOR_BUDGET}")
    rational = {e: Fraction(c) for e, c in p.items()}  # exact_div divides with `/`
    for coeffs in itertools.product(ladder, repeat=len(monos)):
        if next((c for c in coeffs if c), 0) <= 0:
            continue  # skip zero and sign duplicates
        if all(sum(e) == 0 or c == 0 for e, c in zip(monos, coeffs)):
            continue  # constant candidate
        cand = {e: Fraction(c) for e, c in zip(monos, coeffs) if c}
        quot = exact_div(rational, cand)
        if quot is not None and total_degree(quot) >= 1:
            a = from_algpoly(cand, ideal.variables, ideal.ring)
            b = from_algpoly(quot, ideal.variables, ideal.ring)
            if not _verify_zero_divisor(ideal, a, b):
                raise RuntimeError("factorization witness failed re-verification")
            return PrimalityVerdict("not_prime", "counterexample", (a, b), "factorization witness")
    searched = f"factor search exhausted at degree {max_deg}, height {config.factor_height}"
    proof = _irreducibility_prime(p)
    if proof is None:
        return unknown(f"{searched}; no irreducibility proof mod a prime below 100")
    return PrimalityVerdict(
        "prime", "principal-irreducible", None,
        f"{searched}; irreducible mod {proof} (Rabin's test), hence over Q",
    )


def _random_algpoly(rng, monos, lift):
    terms = {}
    for e in rng.sample(monos, k=min(len(monos), rng.randint(1, 3))):
        c = rng.randint(-PROBE_HEIGHT, PROBE_HEIGHT)
        if c:
            terms[e] = lift(c)
    return terms


def primality_oracle(ideal, config=None):
    """Strategy cascade with an honest `unknown`; not_prime carries a verified witness."""
    config = config or PrimalityConfig()
    ideal = ideal if ideal.basis is not None else buchberger(ideal)
    basis = list(ideal.basis)
    ring = ideal.ring
    if not basis:
        return PrimalityVerdict("prime", "linear", note="zero ideal: the full ring is a domain")
    if len(basis) == 1 and basis[0].is_scalar():
        return PrimalityVerdict(
            "not_prime", "counterexample", None,
            "unit ideal: 1 lies in the ideal, so no zero-divisor witness pair exists",
        )
    if all(g.total_degree() <= 1 for g in ideal.generators):
        return PrimalityVerdict("prime", "linear", note="affine-linear generators cut a subspace")
    if len(basis) == 1:
        return _principal(ideal, basis[0], config)
    alg_basis, lift, _ = _freeze(basis, ideal.variables)

    def probe(codec, alg_basis):
        rng = random.Random(config.seed)
        monos = [m for _, m in codec.monomials(PROBE_DEGREE)]
        for _ in range(PROBE_TRIALS):
            a = _random_algpoly(rng, monos, lift)
            b = _random_algpoly(rng, monos, lift)
            ra, _, sa = _nf(a, alg_basis, codec)
            rb, _, sb = _nf(b, alg_basis, codec)
            if not ra or not rb:
                continue
            if not _nf(codec.product(ra, rb), alg_basis, codec)[0]:
                fa = from_algpoly(codec.unpack(ra), ideal.variables, ring, Fraction(1, sa))
                fb = from_algpoly(codec.unpack(rb), ideal.variables, ring, Fraction(1, sb))
                if not _verify_zero_divisor(ideal, fa, fb):
                    raise RuntimeError("probe witness failed re-verification")
                return PrimalityVerdict(
                    "not_prime", "counterexample", (fa, fb), "zero-divisor probe")
        return PrimalityVerdict(
            "unknown", "probe-exhausted", None,
            f"no zero divisor found in {PROBE_TRIALS} probes",
        )

    return _packed(ideal.order, len(ideal.variables), alg_basis, probe)[1]

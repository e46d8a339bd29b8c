"""Commutative-algebra backend over the derivative variables actually occurring.

Polynomials are frozen to exponent vectors over an ordered variable tuple,
as sparse term dicts (see sparse.py). Every call, the primality oracle
included, picks its coefficient domain from its data in _freeze: plain
Fractions when every coefficient of every polynomial it works on is a rational
constant, exact Scalars otherwise. Both domains share one arithmetic path;
results thaw back to DiffPolys over Scalars either way.
Buchberger runs the normal strategy with pairs selected by lcm order, and
the emitted basis is inter-reduced and normalized to denominator-free,
integer-primitive elements with a positive leading coefficient. buchberger,
eliminate and saturate each re-check that all S-polynomials of the basis
they compute reduce to zero, and raise RuntimeError otherwise.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from . import modp
from .poly import DiffPoly, mono_from
from .scalars import Scalar, TPoly, _int_scale, common_den, tpoly_gcd
from .sparse import (
    acc, add, divides, ediv, elcm, emul, exact_div, lead, monomials, mul, neg, sub, total_degree,
)

GREVLEX = "grevlex"
LEX = "lex"


def _order_key(order):
    if order == GREVLEX:  # a fresh memo per call: keys repeat across division steps
        return functools.cache(lambda e: (sum(e), tuple(-k for k in reversed(e))))
    if order == LEX:
        return lambda e: e
    raise ValueError(f"unknown monomial order {order!r}")


def to_algpoly(f, variables):
    """Freeze a differential polynomial over the given variable tuple."""
    pos = {v: i for i, v in enumerate(variables)}
    nv = len(variables)
    terms = {}
    for mono, c in f.terms.items():
        e = [0] * nv
        for v, k in mono:
            if v not in pos:
                raise ValueError(f"variable {v.text()} outside the ideal's variables")
            e[pos[v]] = k
        terms[tuple(e)] = c
    return terms


def _freeze(polys, variables):
    """Term dicts over Fraction if every coefficient is constant, else over
    Scalar; and the map taking a rational into that domain."""
    frozen = [to_algpoly(f, variables) for f in polys]
    coeffs = [c for p in frozen for c in p.values()]
    if all(c.is_const() for c in coeffs):
        return [{e: c.num.const_value() for e, c in p.items()} for p in frozen], Fraction
    return frozen, functools.partial(Scalar.from_fraction, coeffs[0].nvars)


def from_algpoly(p, variables, ring):
    terms = {}
    for e, c in p.items():
        mono = mono_from((variables[i], k) for i, k in enumerate(e) if k)
        terms[mono] = c
    return DiffPoly(ring, terms)


def _nf(p, basis, key):
    """Normal form with quotients: p = sum(q_i * basis_i) + remainder."""
    leads = [lead(b, key) for b in basis]
    rem = {}
    quots = [{} for _ in basis]
    work = dict(p)
    while work:
        e, c = lead(work, key)
        for q, b, (be, bc) in zip(quots, basis, leads):
            if divides(be, e):
                qe, qc = ediv(e, be), c / bc
                acc(q, qe, qc)
                nqc = -qc
                for me, mc in b.items():
                    acc(work, emul(qe, me), nqc * mc)
                break
        else:
            rem[e] = c
            del work[e]
    return rem, quots


def _normalize(p, key):
    """Denominator-free, integer-primitive, positive leading coefficient."""
    if not p:
        return p
    c0 = next(iter(p.values()))
    if isinstance(c0, Fraction):
        scale = _int_scale(list(p.values()))
        result = {e: c * scale for e, c in p.items()}
        negative = lead(result, key)[1] < 0
    else:
        den = Scalar._poly(common_den(c0.nvars, p.values()))
        scaled = {e: c * den for e, c in p.items()}
        content = TPoly.zero(c0.nvars)
        for c in scaled.values():
            content = tpoly_gcd(content, c.num)
        cleaned = {e: c.num.exact_div(content) for e, c in scaled.items()}
        scale = _int_scale([fc for q in cleaned.values() for fc in q.terms.values()])
        result = {e: Scalar._poly(q.scale(scale)) for e, q in cleaned.items()}
        negative = lead(result, key)[1].num.lead_coeff() < 0
    return neg(result) if negative else result


def _spoly(f, g, key):
    fe, fc = lead(f, key)
    ge, gc = lead(g, key)
    l = elcm(fe, ge)
    return sub(mul(f, {ediv(l, fe): fc ** -1}), mul(g, {ediv(l, ge): gc ** -1}))


def _buchberger(gens, key):
    G = [g for g in gens if g]
    leads = [lead(g, key)[0] for g in G]
    # Pairs leave the heap by lcm order, ties in insertion order.
    pairs, seq = [], itertools.count()

    def push(j):
        for i in range(j):
            heapq.heappush(pairs, (key(elcm(leads[i], leads[j])), next(seq), i, j))

    for j in range(len(G)):
        push(j)
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        if elcm(leads[i], leads[j]) == emul(leads[i], leads[j]):
            continue  # disjoint leading supports reduce to zero
        rem, _ = _nf(_spoly(G[i], G[j], key), G, key)
        if rem:
            G.append(rem)
            leads.append(lead(rem, key)[0])
            push(len(G) - 1)
    return _interreduce(G, key)


def _interreduce(G, key):
    """The reduced basis of a Groebner basis: drop every element whose leading
    monomial another's divides (of equal leads the first stays), reduce each
    kept element by the others, then normalize and sort."""
    G = [g for g in G if g]
    leads = [lead(g, key)[0] for g in G]
    kept = [
        g for i, (g, e) in enumerate(zip(G, leads))
        if not any(divides(f, e) and (f != e or j < i) for j, f in enumerate(leads) if j != i)
    ]
    G = [_normalize(_nf(g, kept[:i] + kept[i + 1 :], key)[0], key) for i, g in enumerate(kept)]
    G.sort(key=lambda g: key(lead(g, key)[0]))
    return G


def _self_check(G, key):
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            rem, _ = _nf(_spoly(G[i], G[j], key), G, key)
            if rem:
                raise RuntimeError("S-polynomial self-check failed on emitted basis")


@dataclass
class AlgIdeal:
    ring: object
    variables: tuple
    generators: tuple
    order: str = GREVLEX
    basis: tuple | None = None

    def __post_init__(self):
        for g in self.generators:
            to_algpoly(g, self.variables)  # validates variable coverage


def buchberger(ideal):
    """Attach the reduced, self-checked basis; deterministic for fixed input."""
    key = _order_key(ideal.order)
    G = _buchberger(_freeze(ideal.generators, ideal.variables)[0], key)
    _self_check(G, key)
    basis = tuple(from_algpoly(g, ideal.variables, ideal.ring) for g in G)
    return AlgIdeal(ideal.ring, ideal.variables, ideal.generators, ideal.order, basis)


def _with_basis(ideal):
    return ideal if ideal.basis is not None else buchberger(ideal)


@dataclass
class MembershipCertificate:
    member: bool
    normal_form: DiffPoly
    quotients: list

    def __bool__(self):
        return self.member


def ideal_member(f, ideal):
    """Normal-form membership test; the division identity is re-verified."""
    ideal = _with_basis(ideal)
    key = _order_key(ideal.order)
    (p, *basis), _ = _freeze((f, *ideal.basis), ideal.variables)
    rem, quots = _nf(p, basis, key)
    recomposed = rem
    for q, b in zip(quots, basis):
        recomposed = add(recomposed, mul(q, b))
    if recomposed != p:
        raise RuntimeError("division certificate failed re-verification")
    nf = from_algpoly(rem, ideal.variables, ideal.ring)
    qs = [from_algpoly(q, ideal.variables, ideal.ring) for q in quots]
    return MembershipCertificate(not rem, nf, qs)


def _lex_eliminate(gens, k):
    """The self-checked reduced lex basis of gens, restricted to the elements
    free of the first k variables, with those k slots struck out."""
    key = _order_key(LEX)
    G = _buchberger(gens, key)
    _self_check(G, key)
    return [{e[k:]: c for e, c in g.items()} for g in G if not any(any(e[:k]) for e in g)]


def eliminate(ideal, drop):
    """Generators of the ideal intersected with the subring without `drop`."""
    drop = set(drop)
    if not drop <= set(ideal.variables):
        raise ValueError("dropped variables must belong to the ideal")
    if not drop:
        return AlgIdeal(ideal.ring, ideal.variables, ideal.generators, ideal.order)
    first = tuple(v for v in ideal.variables if v in drop)
    rest = tuple(v for v in ideal.variables if v not in drop)
    gens, _ = _freeze(ideal.generators, first + rest)
    kept = _lex_eliminate(gens, len(first))
    return AlgIdeal(ideal.ring, rest, tuple(from_algpoly(g, rest, ideal.ring) for g in kept),
                    GREVLEX)


def saturate(ideal, h):
    """I : h^infinity via the extra-variable trick: eliminate z from I + (1 - z*h)."""
    (hp, *gens), lift = _freeze((h, *ideal.generators), ideal.variables)
    gens = [{(0,) + e: c for e, c in g.items()} for g in gens]
    gens.append(sub({(0,) * (len(ideal.variables) + 1): lift(1)}, {(1,) + e: c for e, c in hp.items()}))
    out = tuple(from_algpoly(g, ideal.variables, ideal.ring) for g in _lex_eliminate(gens, 1))
    return AlgIdeal(ideal.ring, ideal.variables, out, ideal.order)


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
    (p, *gens), lift = _freeze((f, *ideal.generators), ideal.variables)
    if total_degree(p) > bound:
        return MacaulayResult("bound_too_small", bound)
    nv = len(ideal.variables)
    one = lift(1)
    rows = []
    for g in gens:
        if g:
            rows.extend(mul(g, {mono: one}) for mono in monomials(nv, bound - total_degree(g)))
    # Echelonize the products, then reduce f against the pivots.
    pivots = {}
    key = _order_key(GREVLEX)

    def reduce_vec(vec):
        vec = dict(vec)
        while vec:
            e, c = lead(vec, key)
            piv = pivots.get(e)
            if piv is None:
                return vec, e
            factor = c / piv[e]
            for pe, pc in piv.items():
                acc(vec, pe, -(factor * pc))
        return vec, None

    for row in rows:
        red, lead_e = reduce_vec(row)
        if lead_e is not None:
            pivots[lead_e] = red
    residual, _ = reduce_vec(p)
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
    """A prime proving p, frozen over Fraction, irreducible over Q, or None
    when none below 100 does.

    Only a univariate p is tried. Scaled to a primitive integer polynomial,
    a factorization of p over Q is one over Z (Gauss's lemma); if the prime
    does not divide the leading coefficient, both factors keep their degrees
    mod the prime, so a p irreducible mod the prime is irreducible over Q.
    Q is algebraically closed in Q(t), so it stays irreducible over the
    rational-function field too.
    """
    occ = {j for e in p for j, k in enumerate(e) if k}
    if len(occ) != 1:
        return None
    (j,) = occ
    q = {e[j]: c for e, c in p.items()}
    scale = _int_scale(list(q.values()))
    coeffs = [int(q.get(k, 0) * scale) for k in range(max(q) + 1)]
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
    (p,), lift = _freeze((f,), ideal.variables)
    max_deg = min(config.factor_degree, total_degree(p) - 1)
    if max_deg < 1:
        return unknown("factor-degree bound below 1; search not attempted")
    if lift is not Fraction:
        return unknown(
            "principal generator has non-constant coefficients; factor search not attempted")
    monos = monomials(len(ideal.variables), max_deg)
    ladder = list(range(-config.factor_height, config.factor_height + 1))
    if len(ladder) ** len(monos) > FACTOR_BUDGET:
        return unknown(f"factor search space above budget {FACTOR_BUDGET}")
    for coeffs in itertools.product(ladder, repeat=len(monos)):
        if next((c for c in coeffs if c), 0) <= 0:
            continue  # skip zero and sign duplicates
        if all(sum(e) == 0 or c == 0 for e, c in zip(monos, coeffs)):
            continue  # constant candidate
        cand = {e: lift(c) for e, c in zip(monos, coeffs) if c}
        quot = exact_div(p, cand)
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
    ideal = _with_basis(ideal)
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
    rng = random.Random(config.seed)
    key = _order_key(ideal.order)
    alg_basis, lift = _freeze(basis, ideal.variables)
    monos = monomials(len(ideal.variables), PROBE_DEGREE)
    for _ in range(PROBE_TRIALS):
        a = _random_algpoly(rng, monos, lift)
        b = _random_algpoly(rng, monos, lift)
        ra, _ = _nf(a, alg_basis, key)
        rb, _ = _nf(b, alg_basis, key)
        if not ra or not rb:
            continue
        rab, _ = _nf(mul(ra, rb), alg_basis, key)
        if not rab:
            fa = from_algpoly(ra, ideal.variables, ring)
            fb = from_algpoly(rb, ideal.variables, ring)
            if not _verify_zero_divisor(ideal, fa, fb):
                raise RuntimeError("probe witness failed re-verification")
            return PrimalityVerdict("not_prime", "counterexample", (fa, fb), "zero-divisor probe")
    return PrimalityVerdict(
        "unknown", "probe-exhausted", None,
        f"no zero divisor found in {PROBE_TRIALS} probes",
    )

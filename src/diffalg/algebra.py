"""Commutative-algebra backend over the derivative variables actually occurring.

Polynomials are frozen to exponent vectors over an ordered variable tuple,
as sparse term dicts (see sparse.py). Each call picks its coefficient domain
from its data: plain Fractions when every coefficient of every polynomial it
works on is a rational constant, exact Scalars otherwise. Both domains share
one arithmetic path; results thaw back to DiffPolys over Scalars either way.
Buchberger runs the normal strategy with pairs selected by lcm order, the
emitted basis is inter-reduced and normalized to denominator-free,
integer-primitive elements with a positive leading coefficient, and every
call re-checks that all S-polynomials of the output reduce to zero.
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
from .scalars import Scalar, TPoly, _int_scale, tpoly_gcd
from .sparse import acc, add, emul, exact_div, lead, mul, neg, sub, total_degree

GREVLEX = "grevlex"
LEX = "lex"


def _order_key(order):
    if order == GREVLEX:  # a fresh memo per call: keys repeat across division steps
        return functools.cache(lambda e: (sum(e), tuple(-k for k in reversed(e))))
    if order == LEX:
        return lambda e: e
    raise ValueError(f"unknown monomial order {order!r}")


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _ediv(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _elcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


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
    """Term dicts over Fraction if every coefficient is constant, else over Scalar; and one."""
    frozen = [to_algpoly(f, variables) for f in polys]
    coeffs = [c for p in frozen for c in p.values()]
    if all(c.is_const() for c in coeffs):
        return [{e: c.num.const_value() for e, c in p.items()} for p in frozen], Fraction(1)
    return frozen, Scalar.one(coeffs[0].nvars)


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
            if _divides(be, e):
                qe, qc = _ediv(e, be), c / bc
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
        den_lcm = TPoly.one(c0.nvars)
        for c in p.values():
            g = tpoly_gcd(den_lcm, c.den)
            den_lcm = c.den * den_lcm.exact_div(g)
        scaled = {e: c * Scalar._poly(den_lcm) for e, c in p.items()}
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
    l = _elcm(fe, ge)
    return sub(mul(f, {_ediv(l, fe): fc ** -1}), mul(g, {_ediv(l, ge): gc ** -1}))


def _buchberger(gens, key):
    G = [g for g in gens if g]
    leads = [lead(g, key)[0] for g in G]
    # Pairs leave the heap by lcm order, ties in insertion order.
    pairs, seq = [], itertools.count()

    def push(j):
        for i in range(j):
            heapq.heappush(pairs, (key(_elcm(leads[i], leads[j])), next(seq), i, j))

    for j in range(len(G)):
        push(j)
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        if _elcm(leads[i], leads[j]) == emul(leads[i], leads[j]):
            continue  # disjoint leading supports reduce to zero
        rem, _ = _nf(_spoly(G[i], G[j], key), G, key)
        if rem:
            G.append(rem)
            leads.append(lead(rem, key)[0])
            push(len(G) - 1)
    return _interreduce(G, key)


def _interreduce(G, key):
    G = [g for g in G if g]
    changed = True
    while changed:
        changed = False
        for i in range(len(G)):
            others = G[:i] + G[i + 1 :]
            if not others:
                continue
            rem, _ = _nf(G[i], others, key)
            if rem != G[i]:
                changed = True
                if rem:
                    G[i] = rem
                else:
                    G.pop(i)
                break
    G = [_normalize(g, key) for g in G]
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

    def _alg_basis(self):
        if self.basis is None:
            raise ValueError("no basis attached; run buchberger first")
        return [to_algpoly(g, self.variables) for g in self.basis]


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


def eliminate(ideal, drop):
    """Generators of the ideal intersected with the subring without `drop`."""
    drop = set(drop)
    if not drop <= set(ideal.variables):
        raise ValueError("dropped variables must belong to the ideal")
    if not drop:
        return AlgIdeal(ideal.ring, ideal.variables, ideal.generators, ideal.order)
    first = [v for v in ideal.variables if v in drop]
    rest = [v for v in ideal.variables if v not in drop]
    reordered = tuple(first + rest)
    work = AlgIdeal(ideal.ring, reordered, ideal.generators, LEX)
    work = buchberger(work)
    kept = tuple(g for g in work.basis if all(v not in drop for v in g.variables()))
    return AlgIdeal(ideal.ring, tuple(rest), kept, GREVLEX)


def saturate(ideal, h):
    """I : h^infinity via the extra-variable trick, over frozen exponent vectors."""
    nv = len(ideal.variables)
    key = _order_key(LEX)  # z is the first slot, so lex eliminates it

    def lift(p, z_exp=0):
        return {(z_exp,) + e: c for e, c in p.items()}

    (hp, *gens), one = _freeze((h, *ideal.generators), ideal.variables)
    gens = [lift(g) for g in gens]
    gens.append(sub({(0,) * (nv + 1): one}, lift(hp, 1)))
    G = _buchberger(gens, key)
    kept = [g for g in G if all(e[0] == 0 for e in g)]
    dropped = [{e[1:]: c for e, c in g.items()} for g in kept]
    out = tuple(from_algpoly(g, ideal.variables, ideal.ring) for g in dropped)
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
    (p, *gens), one = _freeze((f, *ideal.generators), ideal.variables)
    if total_degree(p) > bound:
        return MacaulayResult("bound_too_small", bound)
    nv = len(ideal.variables)
    rows = []
    for g in gens:
        if not g:
            continue
        dg = total_degree(g)
        for mono in itertools.product(range(bound - dg + 1), repeat=nv):
            if sum(mono) + dg > bound:
                continue
            rows.append(mul(g, {mono: one}))
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


@dataclass
class PrimalityConfig:
    factor_degree: int = 2
    factor_height: int = 2
    factor_budget: int = 200_000
    probe_trials: int = 32
    probe_degree: int = 2
    probe_height: int = 2
    seed: int = 0
    assert_prime: bool = False


@dataclass
class PrimalityVerdict:
    status: str  # "prime" | "not_prime" | "unknown"
    method: str  # "linear" | "principal-irreducible" | "certificate" | "counterexample" | "probe-exhausted"
    witness: tuple | None = None
    note: str = ""


def _verify_zero_divisor(ideal, a, b):
    prod_in = ideal_member(a * b, ideal).member
    a_out = not ideal_member(a, ideal).member
    b_out = not ideal_member(b, ideal).member
    return prod_in and a_out and b_out


def _factor_search(ideal, f, config):
    """Exhaustive integer-coefficient factor pairs within degree/height bounds."""
    p = to_algpoly(f, ideal.variables)
    max_deg = min(config.factor_degree, total_degree(p) - 1)
    if max_deg < 1:
        return "vacuous", max_deg
    if any(not c.is_const() for c in p.values()):
        return "skip", max_deg
    nv = len(ideal.variables)
    monos = [e for e in itertools.product(range(max_deg + 1), repeat=nv) if sum(e) <= max_deg]
    ladder = list(range(-config.factor_height, config.factor_height + 1))
    total = len(ladder) ** len(monos)
    if total > config.factor_budget:
        return "budget", max_deg
    nt = ideal.ring.nt
    for coeffs in itertools.product(ladder, repeat=len(monos)):
        lead = next((c for c in coeffs if c), 0)
        if lead <= 0:
            continue  # skip zero and sign duplicates
        if all(sum(e) == 0 or c == 0 for e, c in zip(monos, coeffs)):
            continue  # constant candidate
        cand = {e: Scalar.from_fraction(nt, c) for e, c in zip(monos, coeffs) if c}
        quot = exact_div(p, cand)
        if quot is not None and total_degree(quot) >= 1:
            return (cand, quot), max_deg
    return None, max_deg


_PROOF_PRIMES = tuple(q for q in range(2, 100) if all(q % d for d in range(2, q)))


def _irreducibility_prime(ideal, f):
    """A prime p proving f irreducible over Q, or None when none below 100 does.

    Only a univariate f with constant coefficients is tried. Scaled to a
    primitive integer polynomial, a factorization of f over Q is one over Z
    (Gauss's lemma); if p does not divide the leading coefficient, both
    factors keep their degrees mod p, so an f irreducible mod p is
    irreducible over Q. Q is algebraically closed in Q(t), so it stays
    irreducible over the rational-function field too.
    """
    p = to_algpoly(f, ideal.variables)
    occ = {j for e in p for j, k in enumerate(e) if k}
    if len(occ) != 1 or any(not c.is_const() for c in p.values()):
        return None
    (j,) = occ
    q = {e[j]: c.num.const_value() for e, c in p.items()}
    scale = _int_scale(list(q.values()))
    coeffs = [int(q.get(k, 0) * scale) for k in range(max(q) + 1)]
    for prime in _PROOF_PRIMES:
        if coeffs[-1] % prime and modp.irreducible(
            modp.trim([c % prime for c in coeffs]), prime
        ):
            return prime
    return None


def _random_algpoly(rng, nv, nt, degree, height):
    monos = [e for e in itertools.product(range(degree + 1), repeat=nv) if sum(e) <= degree]
    terms = {}
    for e in rng.sample(monos, k=min(len(monos), rng.randint(1, 3))):
        c = rng.randint(-height, height)
        if c:
            terms[e] = Scalar.from_fraction(nt, c)
    return terms


def primality_oracle(ideal, config=None):
    """Strategy cascade with an honest `unknown`; not_prime carries a verified witness."""
    config = config or PrimalityConfig()
    verdict = _primality_cascade(ideal, config)
    if verdict.status == "unknown" and config.assert_prime:
        return PrimalityVerdict(
            "prime", "certificate",
            note=f"primality asserted by the caller (cascade said: {verdict.note})",
        )
    return verdict


def _primality_cascade(ideal, config):
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
        if basis[0].total_degree() == 1:
            return PrimalityVerdict(
                "prime", "principal-irreducible", None, "principal linear generator"
            )
        found, used_deg = _factor_search(ideal, basis[0], config)
        if found == "vacuous":
            return PrimalityVerdict(
                "unknown", "principal-irreducible", None,
                "factor-degree bound below 1; search not attempted",
            )
        if found == "budget":
            return PrimalityVerdict(
                "unknown", "principal-irreducible", None,
                f"factor search space above budget {config.factor_budget}",
            )
        if found == "skip":
            return PrimalityVerdict(
                "unknown", "principal-irreducible", None,
                "principal generator has non-constant coefficients; factor search not attempted",
            )
        if found is not None:
            a = from_algpoly(found[0], ideal.variables, ring)
            b = from_algpoly(found[1], ideal.variables, ring)
            if not _verify_zero_divisor(ideal, a, b):
                raise RuntimeError("factorization witness failed re-verification")
            return PrimalityVerdict("not_prime", "counterexample", (a, b), "factorization witness")
        searched = f"factor search exhausted at degree {used_deg}, height {config.factor_height}"
        proof = _irreducibility_prime(ideal, basis[0])
        if proof is None:
            return PrimalityVerdict(
                "unknown", "principal-irreducible", None,
                f"{searched}; no irreducibility proof mod a prime below 100",
            )
        return PrimalityVerdict(
            "prime", "principal-irreducible", None,
            f"{searched}; irreducible mod {proof} (Rabin's test), hence over Q",
        )
    rng = random.Random(config.seed)
    key = _order_key(ideal.order)
    alg_basis = ideal._alg_basis()
    nv = len(ideal.variables)
    for _ in range(config.probe_trials):
        a = _random_algpoly(rng, nv, ring.nt, config.probe_degree, config.probe_height)
        b = _random_algpoly(rng, nv, ring.nt, config.probe_degree, config.probe_height)
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
        f"no zero divisor found in {config.probe_trials} probes",
    )

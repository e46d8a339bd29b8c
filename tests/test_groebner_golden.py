"""Pinned digest of Groebner-backend output on seeded random ideals.

Reduced Groebner bases are unique, and the normal form and quotients of the
division algorithm are fixed by its divisor-selection rule, so any change to
the backend that keeps its meaning must reproduce these texts byte for byte.
The digest covers the reduced basis of every ideal, one membership probe per
ideal (normal form and every quotient), and elimination and saturation on the
README tour ideals plus a seeded sample. Rings are constants and rational_t
(m = 0), orders grevlex and lex, with rational constant coefficients. A
second digest pins the reduced basis of katsura-5.
"""

import hashlib
import itertools
import random
from fractions import Fraction

from diffalg import (
    AlgIdeal,
    DiffPoly,
    RingContext,
    Scalar,
    buchberger,
    eliminate,
    ideal_member,
    parse_poly,
    poly_text,
    saturate,
)
from diffalg.poly import mono_from
from diffalg.ring import CONSTANTS, RATIONAL_T, xvar

N_IDEALS = 300
DIGEST = "fe9bbd394d8c6124e929984495ecdcf7a57c69b1492de996f9fa3644c005f621"
KATSURA5_DIGEST = "622fc6b50bba6e4a3196b05b606f4ee0625b0f829a3d72a185230f761aa38e17"


def _rand_poly(rng, ring, variables, max_terms, degree, constant_term=True):
    monos = [
        e for e in itertools.product(range(degree + 1), repeat=len(variables))
        if 0 < sum(e) <= degree
    ]
    terms = {}
    for e in rng.sample(monos, k=min(len(monos), rng.randint(1, max_terms))):
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if c:
            terms[mono_from((v, k) for v, k in zip(variables, e) if k)] = Scalar.from_fraction(
                ring.nt, c
            )
    if constant_term and rng.random() < 0.4:
        terms[()] = Scalar.from_fraction(ring.nt, Fraction(rng.randint(1, 3), rng.randint(1, 2)))
    return DiffPoly(ring, terms)


def _texts(polys):
    return "; ".join(poly_text(p) for p in polys)


def _golden_lines():
    rng = random.Random(20261018)
    rings = {mode: RingContext(m=0, n=3, field_mode=mode) for mode in (CONSTANTS, RATIONAL_T)}
    lines = []
    for i in range(N_IDEALS):
        ring = rings[rng.choice((CONSTANTS, RATIONAL_T))]
        nv = rng.choice((2, 3))
        variables = tuple(xvar(ring, j) for j in range(1, nv + 1))
        order = rng.choice(("grevlex", "lex"))
        degree = 3 if nv == 2 else 2
        gens = [_rand_poly(rng, ring, variables, 3, degree) for _ in range(rng.randint(1, 3))]
        I = buchberger(AlgIdeal(ring, variables, tuple(gens), order))
        lines.append(f"{i} {ring.field_mode} {order} {nv} basis: {_texts(I.basis)}")
        probe = _rand_poly(rng, ring, variables, 2, 2)
        for g in gens:
            probe = probe + g * _rand_poly(rng, ring, variables, 1, 1)
        cert = ideal_member(probe, I)
        lines.append(f"{i} member={cert.member} nf: {poly_text(cert.normal_form)}")
        lines.append(f"{i} quotients: {_texts(cert.quotients)}")
        if i % 8 == 0 and nv == 2:
            out = eliminate(AlgIdeal(ring, variables, tuple(gens), order), {variables[0]})
            lines.append(f"{i} eliminate x1: {_texts(out.generators)}")
            h = _rand_poly(rng, ring, variables, 2, 1)
            if not h.is_zero():
                out = saturate(AlgIdeal(ring, variables, tuple(gens), order), h)
                lines.append(f"{i} saturate by {poly_text(h)}: {_texts(out.generators)}")
    for mode, ring in rings.items():
        x12 = tuple(xvar(ring, j) for j in (1, 2))
        tour = AlgIdeal(ring, x12, (parse_poly("x1*x2 - 1", ring), parse_poly("x1", ring)))
        lines.append(f"tour {mode} eliminate: {_texts(eliminate(tour, {x12[1]}).generators)}")
        tour = AlgIdeal(ring, x12, (parse_poly("x1*x2", ring),))
        sat = saturate(tour, parse_poly("x1", ring))
        lines.append(f"tour {mode} saturate: {_texts(sat.generators)}")
        tour = AlgIdeal(
            ring, x12, (parse_poly("x1^2 - 1", ring), parse_poly("x1*x2 - 1", ring)), "lex"
        )
        lines.append(f"tour {mode} groebner: {_texts(buchberger(tour).basis)}")
    return lines


def _katsura(n):
    """katsura-n over x1..x{n+1}, x{l+1} standing for u_l: u_{-l} = u_l,
    u_l = 0 for |l| > n, sum of u_l over l = 1, and for m < n the sum of
    u_l*u_{m-l} over l equals u_m."""
    def u(l):
        return f"x{abs(l) + 1}"

    texts = [" + ".join(u(l) for l in range(-n, n + 1)) + " - 1"]
    for m in range(n):
        pairs = (f"{u(l)}*{u(m - l)}" for l in range(-n, n + 1) if abs(m - l) <= n)
        texts.append(" + ".join(pairs) + f" - {u(m)}")
    return texts


def test_katsura5_basis_matches_pinned_digest():
    """The largest ideal under a strict gate: 22 elements, grevlex."""
    ring = RingContext(m=0, n=6, field_mode=CONSTANTS)
    variables = tuple(xvar(ring, j) for j in range(1, 7))
    I = buchberger(AlgIdeal(ring, variables, tuple(parse_poly(t, ring) for t in _katsura(5))))
    assert len(I.basis) == 22
    digest = hashlib.sha256("\n".join(poly_text(g) for g in I.basis).encode()).hexdigest()
    assert digest == KATSURA5_DIGEST


def test_groebner_outputs_match_pinned_digest():
    lines = _golden_lines()
    assert sum(" basis: " in line for line in lines) == N_IDEALS
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == DIGEST

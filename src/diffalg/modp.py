"""Dense univariate polynomials over the prime field F_p, on plain ints.

A polynomial is a list of residues in 0..p-1, constant term first, with no
trailing zeros; the zero polynomial is the empty list. Every function
returns a fresh list and leaves its arguments alone, except trim.

scalars.tpoly_gcd uses these to prove that two t-polynomials are coprime
from one modular image, and algebra to prove a univariate generator
irreducible over Q from an irreducible image (Rabin's test).

It is also the one module that sets the t-symbols to a point: residues
reduces a t-polynomial's coefficients mod P61, and image evaluates them at
t_point, in every t (for model) or in all but one (for scalars).
"""

from __future__ import annotations

import functools
from itertools import zip_longest

P61 = (1 << 61) - 1  # a Mersenne prime


def residue(q, p):
    """The rational q (an int or a Fraction) mod p; None when p divides its denominator."""
    d = q.denominator
    if d == 1:
        return q.numerator % p
    if d % p:
        return q.numerator * pow(d, -1, p) % p
    return None


@functools.cache
def t_point(n):
    """The fixed point (3^40, 3^41, ...) mod P61 in n coordinates, all nonzero."""
    return tuple(pow(3, 40 + j, P61) for j in range(n))


def residues(terms):
    """[(e, c mod P61)] for a dict {e: rational c}; None if P61 divides a denominator."""
    out = []
    for e, c in terms.items():
        r = residue(c, P61)
        if r is None:
            return None
        out.append((e, r))
    return out


def image(res, keep=None):
    """The residues res at the t-point: an int; with keep, a 0-based t-index,
    the untrimmed dense image in t_keep, the other t's at the point."""
    point = t_point(len(res[0][0])) if res else ()
    img = [0] * (1 if keep is None else max(e[keep] for e, _ in res) + 1)
    for e, r in res:
        for j, k in enumerate(e):
            if k and j != keep:
                r = r * pow(point[j], k, P61) % P61
        d = 0 if keep is None else e[keep]
        img[d] = (img[d] + r) % P61
    return img[0] if keep is None else img


def trim(f):
    """Drop trailing zero coefficients of f in place; return f."""
    while f and not f[-1]:
        f.pop()
    return f


def rem(f, g, p):
    """Remainder of f by a nonzero trimmed g."""
    r = trim(list(f))
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    while len(r) > dg:
        c = r.pop() * inv % p
        s = len(r) - dg
        for j in range(dg):
            r[s + j] = (r[s + j] - c * g[j]) % p
        trim(r)
    return r


def gcd(f, g, p):
    """Monic greatest common divisor; [] when both are zero."""
    f, g = trim(list(f)), trim(list(g))
    while g:
        f, g = g, rem(f, g, p)
    if not f:
        return f
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def mulmod(f, g, m, p):
    """f * g reduced modulo a nonzero trimmed m."""
    if not f or not g:
        return []
    prod = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                prod[i + j] += a * b
    return rem([c % p for c in prod], m, p)


def powmod(f, k, m, p):
    """f ** k reduced modulo a nonzero trimmed m, by square-and-multiply."""
    r = rem([1], m, p)
    f = rem(f, m, p)
    while k:
        if k & 1:
            r = mulmod(r, f, m, p)
        k >>= 1
        if k:
            f = mulmod(f, f, m, p)
    return r


def _prime_factors(n):
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + [n] if n > 1 else out


def irreducible(f, p):
    """Rabin's test: is the trimmed f, of degree at least 1, irreducible over F_p?

    f of degree n is irreducible exactly when x^(p^n) = x modulo f and
    x^(p^(n/q)) - x is coprime to f for every prime q dividing n.
    """
    n = len(f) - 1
    frob = [rem([0, 1], f, p)]  # frob[k] = x^(p^k) mod f
    for _ in range(n):
        frob.append(powmod(frob[-1], p, f, p))

    def minus_x(h):
        return trim([(a - b) % p for a, b in zip_longest(h, [0, 1], fillvalue=0)])

    if rem(minus_x(frob[n]), f, p):
        return False
    return all(len(gcd(minus_x(frob[n // q]), f, p)) == 1 for q in _prime_factors(n))

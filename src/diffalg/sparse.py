"""Sparse polynomial kernel shared by TPoly, DiffPoly and the Groebner backend.

A sparse polynomial is a plain dict from a canonical monomial key to a
nonzero coefficient. This module is the only place that knows how terms
combine: cancellation drops a key instead of storing zero, so two dicts hold
the same polynomial exactly when they are equal. Coefficients are ints,
Fractions or Scalars; all define +, -, * and test false exactly when zero.
Fractions and Scalars also define /, which exact_div uses: in Python an int
divided by an int is a float, so the two callers that run on ints, the
Groebner backend's constants mode and TPoly's product, never pass an int
coefficient to exact_div.

Monomial keys are exponent vectors (TPoly and the Groebner backend) unless
the caller passes its own monomial product, as DiffPoly does with mono_mul.
This module also owns exponent-vector arithmetic (product, quotient, lcm,
divisibility, unit vectors), which DerivVar's derivative operators use too,
and the one enumeration of all monomials up to a degree.
Functions that return a polynomial return a fresh dict and leave their
arguments alone; acc updates the dict it is given. power works on any value
with a *, so TPoly, DiffPoly and Scalar share it. iterate is the
theta-iterate: it applies a derivative operator theta = (e1, ..., em) with
any one-step derivation, so derivatives of DiffPolys (derive_theta) and of
model-point assignments (eval_poly) share it.
"""

from __future__ import annotations

import itertools
import operator


def deglex(e):
    """Sort key of the degree-lexicographic order on exponent vectors."""
    return (sum(e), e)


def emul(a, b):
    """Product of two exponent-vector monomials."""
    return tuple(map(operator.add, a, b))


def ediv(a, b):
    """Quotient a/b of exponent-vector monomials; b must divide a."""
    return tuple(map(operator.sub, a, b))


def elcm(a, b):
    """Least common multiple of two exponent-vector monomials."""
    return tuple(map(max, a, b))


def divides(a, b):
    """Does the monomial a divide the monomial b?"""
    return all(map(operator.le, a, b))


def unit(n, i):
    """Exponent vector of the i-th of n variables (1-based)."""
    return (0,) * (i - 1) + (1,) + (0,) * (n - i)


def monomials(n, degree):
    """Exponent vectors in n variables of total degree <= degree, in lex order."""
    return [e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) <= degree]


def total_degree(p):
    """Largest total degree of an exponent-vector polynomial; -1 for zero."""
    return max((sum(e) for e in p), default=-1)


def lead(p, key=deglex):
    """Leading monomial and coefficient of a nonzero polynomial under key."""
    e = max(p, key=key)
    return e, p[e]


def acc(t, m, c):
    """Add c to the coefficient of m in t, dropping the term if it cancels."""
    s = t.get(m)
    s = c if s is None else s + c
    if s:
        t[m] = s
    else:
        t.pop(m, None)


# add, sub and mul repeat acc's body inline: they are the hot loops of every
# caller, and a call per term costs them 5-20%.


def add(p, q):
    t = dict(p)
    for m, c in q.items():
        s = t.get(m)
        s = c if s is None else s + c
        if s:
            t[m] = s
        else:
            t.pop(m, None)
    return t


def sub(p, q):
    t = dict(p)
    for m, c in q.items():
        s = t.get(m)
        s = -c if s is None else s - c
        if s:
            t[m] = s
        else:
            t.pop(m, None)
    return t


def neg(p):
    return {m: -c for m, c in p.items()}


def scale(p, c):
    """Every coefficient multiplied by the coefficient c."""
    if not c:
        return {}
    return {m: k * c for m, k in p.items()}


def mul(p, q, mono=emul):
    """Product of p and q; mono multiplies two monomial keys."""
    t = {}
    get = t.get
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = mono(m1, m2)
            s = get(m)
            s = c1 * c2 if s is None else s + c1 * c2
            if s:
                t[m] = s
            else:
                t.pop(m, None)
    return t


def power(x, k, one):
    """x**k for k >= 0 by square-and-multiply; one is the unit x's type uses."""
    r = one
    while k:
        if k & 1:
            r = r * x
        k >>= 1
        if k:
            x = x * x
    return r


def iterate(x, theta, d):
    """The theta-iterate of x: the derivation d(., i) applied theta[i-1] times for each i."""
    for i, k in enumerate(theta, start=1):
        for _ in range(k):
            x = d(x, i)
    return x


def exact_div(p, d):
    """Quotient p/d over exponent vectors when d (nonzero) divides p exactly, else None.

    Divides leading terms in the degree-lexicographic order and gives up as
    soon as the leading monomial of what is left is not a multiple of d's:
    if d divided it, that monomial would be the product of two leaders.
    """
    de, dc = lead(d)
    q = {}
    r = dict(p)
    while r:
        e, c = lead(r)
        if not divides(de, e):
            return None
        qe = ediv(e, de)
        qc = c / dc
        q[qe] = qc
        for e2, c2 in d.items():
            acc(r, emul(qe, e2), -(qc * c2))
    return q

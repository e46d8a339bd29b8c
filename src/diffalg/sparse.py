"""Sparse polynomial kernel shared by TPoly, DiffPoly and the Groebner backend.

A sparse polynomial is a plain dict from a canonical monomial key to a
nonzero coefficient. This module is the only place that knows how terms
combine: cancellation drops a key instead of storing zero, so two dicts hold
the same polynomial exactly when they are equal. Coefficients are ints,
Fractions or Scalars; all define +, -, * and test false exactly when zero.
Fractions and Scalars also define /, which exact_div uses: in Python an int
divided by an int is a float, so the callers that run on ints, the
Groebner backend's constants mode and the Z[t] products of TPoly and
DiffPoly, never pass an int coefficient to exact_div.

Monomial keys are exponent vectors (TPoly and the Groebner backend's
interface) unless the caller passes its own monomial product, as DiffPoly
does with mono_mul. This module also owns exponent-vector arithmetic
(product, quotient, lcm, divisibility, unit vectors), which DerivVar's
derivative operators use too, and the one enumeration of all monomials up to
a degree. Inside the Groebner backend each exponent vector is packed into one
int (Packing): fixed-width fields whose int comparison is the monomial order
(grevlex or lex), so a product is one addition and a divisibility test one
subtraction and a mask. Packing alone knows the field layout: it gives the
backend offsets (adding one to a packed key multiplies by a monomial),
shifted copies and the division loop itself (Packing.divide), with the
coefficient step passed in. The Z[t] working form of DiffPoly products and
Ritt reduction (poly.py) packs the t-exponents of a term by the same lex
packing and puts a field of the same width per variable above them
(poly._Fields), so a whole term is one int; lex fields 8, 16, 32 or 64 bits
wide encode and decode in one struct call. The width is chosen per call
from the input (the Groebner backend) or starts at 16 bits (Z[t]); a packed
monomial that outgrows it sets a guard bit, and
Packing.widening, the one retry, catches Overflow and runs the call again at
double the width; tests check Packing against the exponent-vector functions.
Functions that return a polynomial return a fresh dict and leave their
arguments alone; acc updates the dict it is given. power works on any value
with a *, so DiffPoly and Scalar share it. iterate is the
theta-iterate: it applies a derivative operator theta = (e1, ..., em) with
any one-step derivation, so derivatives of DiffPolys (derive_theta) and of
model-point assignments (eval_poly) share it.
"""

from __future__ import annotations

import itertools
import operator
import struct


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


def lead(p):
    """Leading monomial and coefficient of a nonzero polynomial, degree-lexicographically."""
    e = max(p, key=deglex)
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


GREVLEX = "grevlex"
LEX = "lex"


class Overflow(ArithmeticError):
    """A packed monomial outgrew its fields; the call is repeated at a wider width."""


class Packing:
    """Exponent vectors in n variables packed into one int per monomial.

    Every field is `width` bits: width-1 value bits, at most `top`, under a
    guard bit that no packed monomial sets. Int comparison is the order:
    under lex the fields are e_1, ..., e_n, most significant first; under
    grevlex they are the total degree, then top-e_n, ..., top-e_1.
    So each exponent (lex), or the total degree (grevlex), is at most top,
    and encode raises Overflow beyond it.

    The empty monomial packs to `one` (0 under lex): a product is a + b - one
    and a quotient a - b + one. A product of two packed monomials is exact
    even where it outgrows the fields: no field reaches 2**width, distinct
    products are distinct ints that compare in the monomial order, and one
    sets a guard bit exactly when an exponent (lex) or its degree (grevlex)
    exceeds top. divides is one subtraction and a mask: sign*(b - a) + guard
    keeps a field's guard bit exactly where a's exponent is at most b's (sign
    is -1 under grevlex, whose fields count down). The lcm takes the larger
    exponent of each field by the same guard-bit subtraction (lex), or the
    smaller complement field and then the total degree of those (grevlex).
    """

    def __init__(self, order, n, width):
        if order not in (GREVLEX, LEX):
            raise ValueError(f"unknown monomial order {order!r}")
        self.order, self.n, self.width = order, n, width
        self.lex = order == LEX
        self.top = (1 << (width - 1)) - 1
        fields = n if self.lex else n + 1
        self.guard = sum(1 << (i * width + width - 1) for i in range(fields))
        if self.lex:
            self.shifts = [(n - 1 - j) * width for j in range(n)]
            self.units = [1 << s for s in self.shifts]
            self.one, self.sign, self.dmask = 0, 1, self.guard
        else:
            self.shifts = [j * width for j in range(n)]
            self.units = [(1 << (n * width)) - (1 << s) for s in self.shifts]
            self.one = sum(self.top << s for s in self.shifts)
            self.sign, self.dmask = -1, self.guard - (1 << (n * width + width - 1))
            self.low = (1 << (n * width)) - 1
        # lex fields of a whole number of bytes: one struct call per encode or decode
        code = {8: "B", 16: "H", 32: "I", 64: "Q"}.get(width) if self.lex else None
        self.struct = struct.Struct(">" + code * n) if code else None

    @classmethod
    def fit(cls, order, n, polys, degree=0):
        """A packing with room for four times the largest exponent (lex) or
        total degree (grevlex) of the exponent-vector polys, and for degree;
        at least 7 value bits."""
        size = (lambda e: max(e, default=0)) if order == LEX else sum
        reach = max((size(e) for p in polys for e in p), default=0)
        return cls(order, n, 1 + max(7, (4 * max(reach, degree)).bit_length()))

    def wider(self):
        return Packing(self.order, self.n, 2 * self.width)

    def widening(self, run):
        """run(packing) for this packing, repeated for one of double the width
        while it raises Overflow."""
        codec = self
        while True:
            try:
                return run(codec)
            except Overflow:
                codec = codec.wider()

    def encode(self, e):
        if self.struct:
            try:
                x = int.from_bytes(self.struct.pack(*e), "big")
            except struct.error:  # an exponent past the whole field
                raise Overflow from None
            if x & self.guard:
                raise Overflow
            return x
        if (max(e, default=0) if self.lex else sum(e)) > self.top:
            raise Overflow
        return self.one + sum(k * u for k, u in zip(e, self.units))

    def decode(self, x):
        """The exponent vector of a packed monomial with no guard bit set."""
        if self.struct:
            return self.struct.unpack(x.to_bytes(self.struct.size, "big"))
        top = self.top
        if self.lex:
            return tuple((x >> s) & top for s in self.shifts)
        return tuple(top - ((x >> s) & top) for s in self.shifts)

    def pack(self, p):
        return {self.encode(e): c for e, c in p.items()}

    def unpack(self, p):
        return {self.decode(x): c for x, c in p.items()}

    def monomials(self, degree):
        """(total degree, packed monomial) of every monomial of total degree
        at most degree, in the order of monomials(n, degree), built by adding
        packed powers of the variables."""
        if degree > self.top:
            raise Overflow
        out = [(0, self.one)]
        for u in reversed(self.units):
            out = [(k + j, m + k * u) for k in range(degree + 1) for j, m in out if k + j <= degree]
        return out

    def mul(self, a, b):
        return a + b - self.one

    def offset(self, a, b=None):
        """The int that, added to a packed monomial, multiplies it by a/b (by
        a when b is None); b must divide a. Offsets add, and 0 multiplies by 1."""
        return a - (self.one if b is None else b)

    def shifted(self, p, d):
        """p times the monomial of the offset d."""
        return {e + d: c for e, c in p.items()}

    def divides(self, a, b):
        """Does the packed monomial a divide the packed monomial b?"""
        return (self.sign * (b - a) + self.guard) & self.dmask == self.dmask

    def lcm(self, a, b):
        """The lcm of two packed monomials; Overflow if its total degree
        passes top (grevlex)."""
        # (a | dmask) - b keeps a field's guard bit exactly where a's field is
        # at least b's; no field borrows from the next. The mask fills the
        # value bits of those fields.
        m = ((a | self.dmask) - b) & self.dmask
        mask = m - (m >> (self.width - 1))
        if self.lex:
            return b ^ ((a ^ b) & mask)  # the larger exponent of each field
        # the smaller complement field, so the larger exponent; one minus
        # those fields packs the exponents alone, and an int is its sum of
        # base-2**width digits modulo 2**width - 1: the total degree, which
        # is at most 2*top, below that modulus
        low = (a ^ ((a ^ b) & mask)) & self.low
        degree = (self.one - low) % ((1 << self.width) - 1)
        if degree > self.top:
            raise Overflow
        return low + (degree << (self.n * self.width))

    def product(self, p, q):
        """p*q over packed monomials; Overflow if an exponent outgrows the fields."""
        t = mul(p, q, self.mul)
        if any(x & self.guard for x in t):
            raise Overflow
        return t

    def divide(self, p, basis, ratio, quotients=True):
        """Division with quotients over packed monomials: (remainder,
        quotients, scale) with scale*p = sum(q_i * basis_i) + remainder.
        With quotients false no quotient is formed or rescaled, and each
        is None.

        The leading term of what is left is cancelled by the first basis
        element whose leading monomial divides it, else moved to the
        remainder. ratio(c, bc) is the step (s, r), s*c == r*bc, that cancels
        the coefficient c by that element's leading coefficient bc: the work
        is scaled by s and r times the shifted element subtracted, and scale
        is the product of the steps' s.
        A key of p may be the product of two packed monomials that outgrew
        the fields (a lex division step can raise an exponent, and so can an
        S-polynomial): such keys still compare in the monomial order, and one
        raises Overflow when it leads, before it is divided or kept.
        """
        sign, guard, dmask, one = self.sign, self.guard, self.dmask, self.one
        quots = [{} if quotients else None for _ in basis]
        divisors = []
        for b, q in zip(basis, quots):
            be = max(b)
            # be divides e exactly when (sign*e - tag) & dmask == dmask (see divides)
            divisors.append((sign * be - guard, be, b, q))
        rem = {}
        scaled = [rem, *quots] if quotients else [rem]
        scale = 1
        work = dict(p)
        while work:
            e = max(work)
            if e & guard:
                raise Overflow
            c = work[e]
            se = sign * e
            for tag, be, b, q in divisors:
                if (se - tag) & dmask == dmask:
                    d = e - be
                    s, r = ratio(c, b[be])
                    if s != 1:
                        scale *= s
                        for t in scaled:
                            for te in t:
                                t[te] *= s
                    if q is not None:
                        acc(q, d + one, r)
                    sub_shifted(work, s, r, d, b)
                    break
            else:
                rem[e] = c
                del work[e]
        return rem, quots, scale


def sub_shifted(work, s, r, d, b):
    """work := s*work - r*(b shifted by d), in place, over packed monomials;
    d is an offset (Packing.offset)."""
    if s != 1:
        for e in work:
            work[e] *= s
    nr = -r
    get = work.get
    for be, bc in b.items():
        e = d + be
        c = get(e)
        c = nr * bc if c is None else c + nr * bc
        if c:
            work[e] = c
        else:
            work.pop(e, None)

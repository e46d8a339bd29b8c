"""Sparse differential polynomials with exact scalar coefficients.

A polynomial is a map from monomials (multisets of derivative variables) to
nonzero scalars. Values are immutable after construction and every operation
returns a fresh canonical value, so sharing is always safe.

A sum of products (_sum_of_products; a product of two operands of two or
more terms is the sum of one pair) runs over Z[t]. _into_z clears each side,
the a's and the b's, over one int and the monic lcm of its t-denominators
(scalars.clear_denominators) to {monomial: {packed t-exponent: int}} dicts:
each t-monomial is one int of lex fields under guard bits (sparse.Packing,
16-bit fields to start with), so _sum_over_z multiplies two t-monomials by
adding their ints, in one inline loop over the pairs of t-terms. _from_z
decodes each distinct t-exponent once, back to the tuples TPoly keeps, and
builds one Fraction per output t-term. An exponent past a field's top, met
when packing or in a product, raises sparse.Overflow, and the whole sum is
computed again at double the width (Packing.widening), with the same result.
Ritt reduction and its certificate check run on the same loop.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import lcm

from . import sparse
from .scalars import Scalar, TPoly, clear_denominators

# A monomial is a tuple of (DerivVar, exponent) pairs with positive exponents,
# sorted by the canonical variable key.
EMPTY_MONO = ()


def mono_from(pairs):
    items = [(v, e) for v, e in pairs if e]
    if any(e < 0 for _, e in items):
        raise ValueError("negative exponent in monomial")
    items.sort(key=lambda it: it[0].sort_key)
    return tuple(items)


def mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items(), key=lambda it: it[0].sort_key))


def mono_degree(m):
    return sum(e for _, e in m)


def mono_drop(m, v, k=1):
    """Divide the monomial by v^k."""
    out = []
    for w, e in m:
        if w == v:
            if e < k:
                raise ValueError("monomial not divisible")
            if e > k:
                out.append((w, e - k))
        else:
            out.append((w, e))
    return tuple(out)


class DiffPoly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms=None):
        self.ring = ring
        clean = {}
        if terms:
            for mono, c in terms.items():
                if not isinstance(c, Scalar):
                    c = Scalar.from_fraction(ring.nt, c)
                if c.nvars != ring.nt:
                    raise ValueError("scalar arity does not match ring")
                for v, e in mono:
                    if len(v.theta) != ring.m:
                        raise ValueError(f"variable {v} does not fit m={ring.m}")
                    if v.index > ring.n:
                        raise ValueError(f"variable {v} out of range (n={ring.n})")
                    if e <= 0:
                        raise ValueError("non-positive exponent in monomial")
                if not c.is_zero():
                    clean[mono] = c
        self.terms = clean

    @classmethod
    def _raw(cls, ring, terms):
        p = cls.__new__(cls)
        p.ring = ring
        p.terms = terms
        return p

    @classmethod
    def zero(cls, ring):
        return cls._raw(ring, {})

    @classmethod
    def const(cls, ring, c):
        if not isinstance(c, Scalar):
            c = Scalar.from_fraction(ring.nt, c)
        if c.is_zero():
            return cls.zero(ring)
        return cls._raw(ring, {EMPTY_MONO: c})

    @classmethod
    def one(cls, ring):
        return cls.const(ring, 1)

    @classmethod
    def var(cls, ring, v, exp=1):
        if exp == 0:
            return cls.one(ring)
        return cls(ring, {((v, exp),): Scalar.one(ring.nt)})

    def _check(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("mixed ring contexts")

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_scalar(self):
        return not self.terms or (len(self.terms) == 1 and EMPTY_MONO in self.terms)

    def scalar_value(self):
        if not self.is_scalar():
            raise ValueError("polynomial is not a scalar")
        return self.terms.get(EMPTY_MONO, Scalar.zero(self.ring.nt))

    def variables(self):
        out = set()
        for mono in self.terms:
            for v, _ in mono:
                out.add(v)
        return out

    def has_family(self, family):
        return any(v.family == family for v in self.variables())

    def total_degree(self):
        return max((mono_degree(m) for m in self.terms), default=0)

    def __add__(self, other):
        self._check(other)
        return DiffPoly._raw(self.ring, sparse.add(self.terms, other.terms))

    def __sub__(self, other):
        self._check(other)
        return DiffPoly._raw(self.ring, sparse.sub(self.terms, other.terms))

    def __neg__(self):
        return DiffPoly._raw(self.ring, sparse.neg(self.terms))

    def __mul__(self, other):
        """The product: a scale, or _sum_of_products of the one pair."""
        self._check(other)
        p, q = self.terms, other.terms
        if len(p) < 2 or len(q) < 2:
            return DiffPoly._raw(self.ring, sparse.mul(p, q, mono_mul))
        return _sum_of_products(((self, other),))

    def __pow__(self, k):
        if k < 0:
            raise ValueError("exponent must be non-negative")
        return sparse.power(self, k, DiffPoly.one(self.ring))

    def scale(self, c):
        if not isinstance(c, Scalar):
            c = Scalar.from_fraction(self.ring.nt, c)
        return DiffPoly._raw(self.ring, sparse.scale(self.terms, c))

    def leibniz(self, i, image):
        """The derivation that is d/dt_i on coefficients and sends each variable
        v to the variable image(v), extended to monomials by the Leibniz rule."""
        out = {}
        for mono, c in self.terms.items():
            sparse.acc(out, mono, c.diff(i))
            for v, e in mono:
                bumped = mono_mul(mono_drop(mono, v, 1), ((image(v), 1),))
                sparse.acc(out, bumped, c.scale(e))
        return DiffPoly._raw(self.ring, out)

    def derive(self, i):
        """Apply the derivation delta_i: theta x_j goes to delta_i theta x_j."""
        if not 1 <= i <= self.ring.m:
            raise ValueError(f"no derivation d{i} (m={self.ring.m})")
        return self.leibniz(i, lambda v: v.derived(i))

    def derive_theta(self, theta):
        return sparse.iterate(self, theta, DiffPoly.derive)

    def formal_partial(self, v):
        """Formal polynomial partial derivative in the single variable v."""
        out = {}
        for mono, c in self.terms.items():
            for w, e in mono:
                if w == v:
                    sparse.acc(out, mono_drop(mono, v, 1), c.scale(e))
        return DiffPoly._raw(self.ring, out)

    def degree_in(self, v):
        return max((dict(m).get(v, 0) for m in self.terms), default=0)

    def split(self, v, k):
        """(coefficient of v^k with v struck out, every other term), in one
        pass: coeff * v^k + rest == self, and no term of rest has degree k
        in v."""
        coeff, rest = {}, {}
        for mono, c in self.terms.items():
            for i, (w, e) in enumerate(mono):
                if w == v:
                    if e == k:
                        coeff[mono[:i] + mono[i + 1:]] = c
                    else:
                        rest[mono] = c
                    break
            else:
                (rest if k else coeff)[mono] = c
        return DiffPoly._raw(self.ring, coeff), DiffPoly._raw(self.ring, rest)

    def __eq__(self, other):
        return (
            isinstance(other, DiffPoly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __repr__(self):
        from .parser import poly_text

        return f"DiffPoly({poly_text(self)})"


@functools.cache
def _codec(nt, width=16):
    """The lex packing of t-exponent vectors in nt variables with fields of
    width bits; the Z[t] working form starts at 16. Built once per (nt,
    width), struct and all."""
    return sparse.Packing(sparse.LEX, nt, width)


def _sum_of_products(pairs):
    """The sum of a*b over pairs of DiffPolys of one ring (callers check it), over Z[t]:
    the a's over the lcm of their t-denominators, the b's over theirs."""
    ring = pairs[0][0].ring

    def run(codec):
        da, ca, a = _into_z(codec, [x.terms for x, _ in pairs])
        db, cb, b = _into_z(codec, [y.terms for _, y in pairs])
        one = TPoly.one(ring.nt)
        den = db if da is one else da if db is one else da * db
        return _from_z(codec, _sum_over_z(zip(a, b), codec), ca * cb, den)

    return DiffPoly._raw(ring, _codec(ring.nt).widening(run))


def _sum_over_z(pairs, codec):
    """The sum of a*b over pairs of {monomial: {packed t-exponent: int}} dicts:
    the int loop of every Z[t] product, where a t-monomial product is e1 + e2.
    It leaves its arguments alone and drops empty t-dicts. Inputs set no
    guard bit, so every sum of two fields is exact; sparse.Overflow if a
    key of the result sets one."""
    out = {}
    for p, q in pairs:
        for m1, a in p.items():
            for m2, b in q.items():
                m = mono_mul(m1, m2)
                t = out.get(m)
                if t is None:
                    t = out[m] = {}
                get = t.get
                for e1, c1 in a.items():
                    for e2, c2 in b.items():
                        e = e1 + e2
                        s = get(e)
                        s = c1 * c2 if s is None else s + c1 * c2
                        if s:
                            t[e] = s
                        else:
                            del t[e]
                if not t:
                    del out[m]
    keys = 0
    for t in out.values():
        for e in t:
            keys |= e
    if keys & codec.guard:
        raise sparse.Overflow
    return out


def _into_z(codec, polys):
    """(den, c, ints): each dict of Scalars in polys as {m: {packed t-exponent: int}}
    over one int c and den, the monic lcm of their t-denominators. Each
    distinct t-exponent is packed once by codec, which raises sparse.Overflow
    past its fields."""
    coeffs = polys[0] if len(polys) == 1 else dict(enumerate(k for p in polys for k in p.values()))
    den, nums = clear_denominators(codec.n, coeffs)
    c = lcm(*(q.denominator for t in nums.values() for q in t.terms.values()))
    encode, packed = codec.encode, {}  # each distinct t-exponent's key, for this call
    ints = []
    for t in nums.values():
        out = {}
        for e, q in t.terms.items():
            x = packed.get(e)
            if x is None:
                x = packed[e] = encode(e)
            out[x] = q.numerator * (c // q.denominator)
        ints.append(out)
    ints = iter(ints)
    return den, c, [dict(zip(p, ints)) for p in polys]  # zip stops at the end of p


def _from_z(codec, ints, c, den, bases=()):
    """{m: the canonical Scalar ints[m] / (c*den)}, one Fraction per t-term;
    codec decodes each distinct packed t-exponent once. Each of bases,
    nonconstant t-polynomials, is divided out of a numerator and den while it
    divides both, and Scalar mostly proves the rest coprime."""
    nt, unit = den.nvars, den is TPoly.one(den.nvars)
    decode, exps = codec.decode, {}  # each distinct key's t-exponent, for this call
    out = {}
    for m, t in ints.items():
        terms = {}
        for x, k in t.items():
            e = exps.get(x)
            if e is None:
                e = exps[x] = decode(x)
            terms[e] = Fraction(k, c)
        num, rest = TPoly._raw(nt, terms), den
        for b in bases:
            while (q := num.exact_div(b)) is not None and (r := rest.exact_div(b)) is not None:
                num, rest = q, r
        out[m] = Scalar._poly(num) if unit else Scalar(num, rest)
    return out

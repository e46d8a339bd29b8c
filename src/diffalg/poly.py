"""Sparse differential polynomials with exact scalar coefficients.

A polynomial is a map from monomials (multisets of derivative variables) to
nonzero scalars. Values are immutable after construction and every operation
returns a fresh canonical value, so sharing is always safe.

A sum of products (_sum_of_products; a product of two operands of two or
more terms is the sum of one pair) runs over Z[t], where a term is one int:
the t-exponents in lex fields under guard bits (sparse.Packing, 16-bit
fields to start with) and, above them, one field of the same width per
variable (_Fields), so a polynomial is one flat {packed monomial: int} dict
and _sum_over_z multiplies two terms by adding their keys, in one inline
loop over the pairs of terms. _into_z clears each side, the a's and the
b's, over one int and the monic lcm of its t-denominators
(scalars.clear_denominators), giving a variable a field the first time it
meets it: per call in a product, in the order met, and per system in a Ritt
reduction, whose fields are only ever appended. _from_z groups the terms by
monomial, decodes each distinct monomial and t-exponent once, back to the
sorted tuples DiffPoly and TPoly keep, and builds one Fraction per term. An
exponent past a field's top, met when packing or in a product, raises
sparse.Overflow, and the whole sum is computed again at double the width
(Packing.widening), with the same result. Ritt reduction and its
certificate check run on the same loop.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from math import lcm

from . import sparse
from .scalars import Scalar, TPoly, clear_denominators

# A monomial is a tuple of (DerivVar, exponent) pairs with positive exponents,
# sorted by variable (a DerivVar is its own canonical order).
EMPTY_MONO = ()


def mono_from(pairs):
    items = [(v, e) for v, e in pairs if e]
    if any(e < 0 for _, e in items):
        raise ValueError("negative exponent in monomial")
    items.sort()
    return tuple(items)


def mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


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
def _codec(nt):
    """The lex packing of t-exponent vectors in nt variables with the 16-bit
    fields the Z[t] working form starts at. Built once per nt, struct and
    all."""
    return sparse.Packing(sparse.LEX, nt, 16)


class _Fields:
    """The field layout of the Z[t] working form, where a term is one int:
    codec's lex t-fields at the bottom and, above them, one field of the same
    width per variable, appended by _into_z the first time it meets the
    variable, so keys packed before stay valid. Every field has codec's guard
    bit, so a sum of two keys is the key of their product, and it sets a
    guard bit exactly when an exponent outgrows its field."""

    __slots__ = ("codec", "width", "top", "tmask", "shifts", "guard", "next", "_order")

    def __init__(self, codec):
        self.codec, self.width, self.top = codec, codec.width, codec.top
        self.next = codec.n * codec.width  # the shift of the next field
        self.tmask = (1 << self.next) - 1  # the t-fields
        self.shifts = {}  # each variable's field, as the bit it starts at
        self.guard = codec.guard
        self._order = None

    def add(self, v):
        """The shift of a new field for v."""
        s = self.shifts[v] = self.next
        self.next += self.width
        self.guard |= 1 << (self.next - 1)
        self._order = None
        return s

    def order(self):
        """The variables, in the canonical order of a monomial's, with their
        shifts; sorted again only after a field is added."""
        if self._order is None:
            self._order = [(v, self.shifts[v]) for v in sorted(self.shifts)]
        return self._order

    def variables(self, p):
        """The variables of the int form p: those whose field some key sets."""
        used, top = functools.reduce(operator.or_, p, 0), self.top
        return [v for v, s in self.shifts.items() if (used >> s) & top]

    def degree(self, p, v):
        s, top = self.shifts[v], self.top
        return max(((x >> s) & top for x in p), default=0)

    def split(self, p, v, k, j):
        """(the terms of p of degree k in v, divided by v^j; the other terms)."""
        s, top = self.shifts[v], self.top
        drop = j << s
        inside, rest = {}, {}
        for x, c in p.items():
            if (x >> s) & top == k:
                inside[x - drop] = c
            else:
                rest[x] = c
        return inside, rest


def _sum_of_products(pairs):
    """The sum of a*b over pairs of DiffPolys of one ring (callers check it), over Z[t]:
    the a's over the lcm of their t-denominators, the b's over theirs."""
    ring = pairs[0][0].ring

    def run(codec):
        fields = _Fields(codec)
        da, ca, a = _into_z(fields, [x.terms for x, _ in pairs])
        db, cb, b = _into_z(fields, [y.terms for _, y in pairs])
        one = TPoly.one(ring.nt)
        den = db if da is one else da if db is one else da * db
        return _from_z(fields, _sum_over_z(zip(a, b), fields), ca * cb, den)

    return DiffPoly._raw(ring, _codec(ring.nt).widening(run))


def _sum_over_z(pairs, fields):
    """The sum of a*b over pairs of {packed monomial: int} dicts laid out by
    fields: the int loop of every Z[t] product, where a monomial product is
    x1 + x2. It leaves its arguments alone. Inputs set no guard bit, so every
    sum of two fields is exact; sparse.Overflow if a key of the result sets
    one."""
    out = {}
    get = out.get
    for p, q in pairs:
        for x1, c1 in p.items():
            for x2, c2 in q.items():
                x = x1 + x2
                s = get(x)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    out[x] = s
                else:
                    del out[x]
    if functools.reduce(operator.or_, out, 0) & fields.guard:
        raise sparse.Overflow
    return out


def _into_z(fields, polys):
    """(den, c, ints): each dict of Scalars in polys as a {packed monomial:
    int} dict over one int c and den, the monic lcm of their t-denominators.
    fields gives a field to each variable it has not met, and its codec packs
    each distinct t-exponent once; sparse.Overflow past a field."""
    coeffs = polys[0] if len(polys) == 1 else dict(enumerate(k for p in polys for k in p.values()))
    den, nums = clear_denominators(fields.codec.n, coeffs)
    shifts, top, add, encode = fields.shifts, fields.top, fields.add, fields.codec.encode
    packed = {}  # each distinct t-exponent's key, for this call
    fracs = []  # (dict, key, d) of each numerator over an int d > 1, cleared below
    ints, nums = [], iter(nums.values())
    for p in polys:
        out = {}
        for m, t in zip(p, nums):  # zip stops at the end of p
            x = 0
            for v, k in m:
                if k > top:
                    raise sparse.Overflow
                s = shifts.get(v)
                x += k << (add(v) if s is None else s)
            for e, q in t.terms.items():
                y = packed.get(e)
                if y is None:
                    y = packed[e] = encode(e)
                n, d = q.as_integer_ratio()
                out[x + y] = n
                if d != 1:
                    fracs.append((out, x + y, d))
        ints.append(out)
    c = lcm(*(d for _, _, d in fracs))
    if c != 1:
        for out in ints:
            for key in out:
                out[key] *= c
        for out, key, d in fracs:
            out[key] //= d
    return den, c, ints


def _from_z(fields, ints, c, den, bases=()):
    """{m: the canonical Scalar of m's terms in ints, over c*den}, one
    Fraction per term; each distinct packed t-exponent, and each distinct
    monomial, is decoded once. Each of bases, nonconstant t-polynomials, is
    divided out of a numerator and den while it divides both, and Scalar
    mostly proves the rest coprime."""
    nt, unit = den.nvars, den is TPoly.one(den.nvars)
    tmask, decode = fields.tmask, fields.codec.decode
    exps, monos = {}, {}  # each distinct t-key's exponent; each monomial's t-terms
    for key, k in ints.items():
        t = key & tmask
        e = exps.get(t)
        if e is None:
            e = exps[t] = decode(t)
        terms = monos.get(key ^ t)
        if terms is None:
            terms = monos[key ^ t] = {}
        terms[e] = Fraction(k) if c == 1 else Fraction(k, c)
    order, top = fields.order(), fields.top
    out = {}
    for x, terms in monos.items():
        num, rest = TPoly._raw(nt, terms), den
        for b in bases:
            while (q := num.exact_div(b)) is not None and (r := rest.exact_div(b)) is not None:
                num, rest = q, r
        m = []
        for v, s in order:
            n = (x >> s) & top
            if n:
                m.append((v, n))
        out[tuple(m)] = Scalar._poly(num) if unit else Scalar(num, rest)
    return out

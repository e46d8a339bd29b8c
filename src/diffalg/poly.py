"""Sparse differential polynomials with exact scalar coefficients.

A polynomial is a map from monomials (multisets of derivative variables) to
nonzero scalars. Values are immutable after construction and every operation
returns a fresh canonical value, so sharing is always safe.

A sum of products (_sum_of_products; a product of two operands of two or
more terms is the sum of one pair) runs over Z[t] when every t-denominator
is 1 or one shared TPoly d, so that clearing needs no gcd: the operands are
cleared at once to {monomial: {t-exponent: int}} dicts over d and one int
(_over_z_by_mono), _sum_over_z multiplies them, one sparse.mul of int
t-polynomials per pair of terms, and _from_z builds one Fraction per output
t-term. Ritt reduction and its certificate check run on the same loop. Else
each side is cleared over the lcm of its t-denominators, one Scalar a monomial.
"""

from __future__ import annotations

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

    def coeff_power(self, v, k):
        """Coefficient of v^k, as a polynomial with v struck out."""
        return self.split(v, k)[0]

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


def _sum_of_products(pairs):
    """The sum of a*b over pairs of DiffPolys of one ring (callers check it), over Z[t]:
    when each t-denominator is 1 or one shared d, every a over one int and d**ea, every b
    over d**eb (e = 1 where some a (b) has d), with no gcd; else each side over its lcm."""
    ring, ops = pairs[0][0].ring, [x for pair in pairs for x in pair]
    one = TPoly.one(ring.nt)
    dens = {id(c.den): c.den for x in ops for c in x.terms.values() if c.den is not one}
    den = next(iter(dens.values()), one)
    if any(d != den for d in dens.values()):
        sides = [clear_denominators(ring.nt, {(i, m): k for i, x in enumerate(ops) if i % 2 == j
                                              for m, k in x.terms.items()}) for j in (0, 1)]
        ints, c = _over_z_by_mono([{m: sides[i % 2][1][i, m] for m in x.terms}
                                   for i, x in enumerate(ops)])
        out = _sum_over_z(zip(ints[::2], ints[1::2]))
        return DiffPoly._raw(ring, _from_z(out, c * c, sides[0][0] * sides[1][0]))
    es = [bool(dens) and any(c.den is not one for x in ops[i::2] for c in x.terms.values())
          for i in (0, 1)] * len(pairs)
    ints, c = _over_z_by_mono([{m: k.num * den if e and k.den is one else k.num
                                for m, k in x.terms.items()} for x, e in zip(ops, es)])
    out = _sum_over_z(zip(ints[::2], ints[1::2]))
    return DiffPoly._raw(ring, _from_z(out, c * c, sparse.power(den, es[0] + es[1], one)))


def _sum_over_z(pairs):
    """The sum of a*b over pairs of {monomial: {t-exponent: int}} dicts: the
    int loop of every Z[t] product, one sparse.mul per pair of terms merged
    with sparse.acc. It leaves its arguments alone and drops empty t-dicts."""
    out = {}
    for p, q in pairs:
        for m1, a in p.items():
            for m2, b in q.items():
                m = mono_mul(m1, m2)
                t = out.get(m)
                if t is None:
                    out[m] = sparse.mul(a, b)
                else:
                    for e, c in sparse.mul(a, b).items():
                        sparse.acc(t, e, c)
                    if not t:
                        del out[m]
    return out


def _over_z_by_mono(nums):
    """(ints, c): each dict of TPolys in nums as {m: {t-exponent: int}} over one int c."""
    c = lcm(*(k.denominator for n in nums for t in n.values() for k in t.terms.values()))
    return [{m: {e: k.numerator * (c // k.denominator) for e, k in t.terms.items()}
             for m, t in n.items()} for n in nums], c


def _from_z(ints, c, den, bases=()):
    """{m: the canonical Scalar ints[m] / (c*den)}, one Fraction per t-term.
    Each of bases, nonconstant t-polynomials, is divided out of a numerator
    and den while it divides both, and Scalar mostly proves the rest coprime."""
    nt, unit = den.nvars, den is TPoly.one(den.nvars)
    out = {}
    for m, t in ints.items():
        num, rest = TPoly._raw(nt, {e: Fraction(k, c) for e, k in t.items()}), den
        for b in bases:
            while (q := num.exact_div(b)) is not None and (r := rest.exact_div(b)) is not None:
                num, rest = q, r
        out[m] = Scalar._poly(num) if unit else Scalar(num, rest)
    return out

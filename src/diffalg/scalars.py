"""Exact base-field scalars: rational functions of the formal symbols t1..tk.

The k symbols carry the derivations of the base field: derivation i acts as
the partial derivative with respect to t_i. Scalars are kept fully reduced
with a monic (deg-lex leading coefficient 1) denominator at all times, so
structural equality is semantic equality and hashing is safe.

Lowest terms cost a gcd of numerator and denominator per operation, and
almost all of those gcds are 1. tpoly_gcd first tries to prove that from
univariate images mod a 61-bit prime, which modp.image takes at modp's
fixed t-point (see _coprime_mod_p); only when that proof fails does it run
the exact primitive PRS. Sums and differences over one shared denominator
add numerators and skip the product of denominators. Polynomial scalars
share one unit denominator, TPoly.one of their arity: every constructor
hands out that instance, also when a gcd or a constant scaled to 1 leaves a
unit, so is_poly is an identity test.

TPoly coefficients are Fractions, but a product of two operands with several
terms each runs over the integers: each operand's denominators are cleared
once (_over_z), sparse.mul multiplies the int terms, and one Fraction is
built per output term, over the product of the two common denominators.
Which Fractions are stored, and so every printed byte, is unchanged; only
the Fraction arithmetic per pair of terms is saved. A float coefficient is
refused (_exact): its binary value is not the decimal it was written as.

clear_denominators is the one place t-denominators are cleared: Z[t]
products and Ritt reduction (poly._into_z), printing, model-point evaluation
and the Groebner normal form put a dict of Scalars over one monic denominator
there. A numerator is formed by exact division, with no gcd, unless its
coefficient is over that denominator already.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import modp, sparse


class TPoly:
    """Sparse polynomial in t1..t_nvars with Fraction coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for e, c in terms.items():
                if len(e) != nvars or any(k < 0 for k in e):
                    raise ValueError(f"bad exponent vector {e!r} for {nvars} t-variables")
                q = _exact(c)
                if q:
                    clean[tuple(e)] = q
        self.terms = clean

    @classmethod
    def _raw(cls, nvars, terms):
        p = cls.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, nvars):
        return cls._raw(nvars, {})

    @classmethod
    def const(cls, nvars, q):
        q = _exact(q)
        return cls._raw(nvars, {(0,) * nvars: q} if q else {})

    @classmethod
    def one(cls, nvars):
        """The unit, one shared instance per arity: no TPoly is mutated in place."""
        p = _ONES.get(nvars)
        if p is None:
            p = _ONES[nvars] = cls.const(nvars, 1)
        return p

    @classmethod
    def var(cls, nvars, i):
        if not 1 <= i <= nvars:
            raise ValueError(f"t{i} out of range (have t1..t{nvars})")
        return cls._raw(nvars, {sparse.unit(nvars, i): Fraction(1)})

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return all(not any(e) for e in self.terms)

    def occurring(self):
        s = set()
        for e in self.terms:
            for j, k in enumerate(e):
                if k:
                    s.add(j + 1)
        return s

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("t-variable arity mismatch")

    def __add__(self, other):
        self._check(other)
        return TPoly._raw(self.nvars, sparse.add(self.terms, other.terms))

    def __sub__(self, other):
        self._check(other)
        return TPoly._raw(self.nvars, sparse.sub(self.terms, other.terms))

    def __neg__(self):
        return TPoly._raw(self.nvars, sparse.neg(self.terms))

    def __mul__(self, other):
        """The product over Z: each operand's denominators are cleared once,
        and one Fraction is built per output term instead of one per pair."""
        self._check(other)
        p, q = self.terms, other.terms
        if len(p) < 2 or len(q) < 2:
            return TPoly._raw(self.nvars, sparse.mul(p, q))
        ip, dp = _over_z(p)
        iq, dq = _over_z(q)
        d = dp * dq
        return TPoly._raw(self.nvars, {e: Fraction(c, d) for e, c in sparse.mul(ip, iq).items()})

    def scale(self, q):
        return TPoly._raw(self.nvars, sparse.scale(self.terms, _exact(q)))

    def diff(self, i):
        """Partial derivative with respect to t_i (1-based)."""
        if not 1 <= i <= self.nvars:
            raise ValueError(f"t{i} out of range (have t1..t{self.nvars})")
        t = {}
        for e, c in self.terms.items():
            k = e[i - 1]
            if k:
                sparse.acc(t, e[: i - 1] + (k - 1,) + e[i:], c * k)
        return TPoly._raw(self.nvars, t)

    def lead_coeff(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return sparse.lead(self.terms)[1]

    def degree_in(self, i):
        return max((e[i - 1] for e in self.terms), default=-1)

    def coeff_in(self, i, k):
        """Coefficient of t_i^k, with t_i struck out."""
        t = {}
        for e, c in self.terms.items():
            if e[i - 1] == k:
                t[e[: i - 1] + (0,) + e[i:]] = c
        return TPoly._raw(self.nvars, t)

    def exact_div(self, d):
        """Quotient self/d when d divides exactly, else None."""
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        q = sparse.exact_div(self.terms, d.terms)
        return None if q is None else TPoly._raw(self.nvars, q)

    def __eq__(self, other):
        return (
            isinstance(other, TPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        """The printed text, as in "TPoly(t1 - 1)": parser is the one printer."""
        from .parser import tpoly_text

        return f"TPoly({tpoly_text(self)})"


_ONES = {}


def _exact(q):
    """q as a Fraction. A float is refused: its binary value is not the
    decimal it was written as, and every coefficient here is exact."""
    if isinstance(q, float):
        raise TypeError(f"inexact coefficient {q!r}; use an int or a Fraction")
    return Fraction(q)


def _over_z(terms):
    """(int terms, d) with terms == {key: c/d}: d is the lcm of the Fraction
    coefficients' denominators (poly._into_z does the same per monomial)."""
    d = lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (d // c.denominator) for e, c in terms.items()}, d


def _coprime_ints(terms):
    """(ints, scale): the coprime integers scale * terms, scale the positive
    rational that takes a dict of Fractions there (1 for an empty dict)."""
    ints, d = _over_z(terms)
    g = gcd(*ints.values()) or 1
    if g != 1:
        ints = {e: n // g for e, n in ints.items()}
    return ints, 1 if d == g else Fraction(d, g)


def clear_denominators(nvars, coeffs):
    """(den, nums) for a dict of Scalars: den is the monic lcm of their
    t-denominators, the shared TPoly.one when each is a polynomial, and
    nums[k] is the TPoly coeffs[k] * den, formed by exact division unless
    coeffs[k] is over den already. Distinct denominators are folded largest
    first, one gcd each unless one divides the lcm."""
    one = den = TPoly.one(nvars)
    nums = {}
    dens = []  # the distinct denominators; few, so a list
    for k, c in coeffs.items():
        nums[k] = c.num
        if c.den is not one and c.den not in dens:
            dens.append(c.den)
    if not dens:
        return one, nums
    for d in sorted(dens, key=lambda d: -max(map(sum, d.terms))):
        if den is one or den.exact_div(d) is None:
            den = d if den is one else den * d.exact_div(tpoly_gcd(den, d))
    lc = den.lead_coeff()
    if lc != 1:
        den = den.scale(1 / lc)
    for k, c in coeffs.items():
        if c.den != den:
            nums[k] = c.num * (den if c.den is one else den.exact_div(c.den))
    return den, nums


def _int_normalize(p):
    """Scale to coprime integer coefficients with positive deg-lex lead."""
    if p.is_zero():
        return p
    q = p.scale(_coprime_ints(p.terms)[1])
    if q.lead_coeff() < 0:
        q = -q
    return q


def _prem(f, g, i):
    """Pseudo-remainder of f by g viewed as univariate polynomials in t_i."""
    dg = g.degree_in(i)
    lg = g.coeff_in(i, dg)
    r = f
    while not r.is_zero():
        dr = r.degree_in(i)
        if dr < dg:
            break
        lr = r.coeff_in(i, dr)
        shift = TPoly._raw(
            f.nvars,
            {tuple(dr - dg if j == i - 1 else 0 for j in range(f.nvars)): Fraction(1)},
        )
        r = lg * r - lr * shift * g
    return r


def _content_pp(p, i):
    """Content and primitive part of p with respect to t_i."""
    parts = [p.coeff_in(i, k) for k in range(p.degree_in(i) + 1)]
    cont = TPoly.zero(p.nvars)
    for q in parts:
        if not q.is_zero():
            cont = tpoly_gcd(cont, q)
    pp = p.exact_div(cont)
    assert pp is not None
    return cont, pp


def _coprime_mod_p(a, b, common):
    """True when modular images prove gcd(a, b) constant; False proves nothing.

    common is the nonempty set of t-variables (1-based) occurring in both; a
    common factor can involve no other t, so with none in common the gcd is
    constant. Soundness (the one-sided test of Brown's modular gcd): let g be
    a common factor of positive degree in some t_i, so t_i is in common. The
    coefficient denominators are prime to p, so a and b lie in Z_(p)[t], and
    by Gauss's lemma over Z_(p) we may take g primitive with a = g*h and
    b = g*h' there. Reduce mod p and set the other t's to the fixed points:
    the image of a keeps its degree in t_i, and deg_i(a) = deg_i(g) + deg_i(h)
    while neither factor's degree can grow, so the image of g keeps its
    degree >= 1 and divides both images, whose gcd is then not 1.
    """
    ra, rb = modp.residues(a.terms), modp.residues(b.terms)
    if ra is None or rb is None:
        return False
    for i in common:
        fa = modp.image(ra, i - 1)
        if not fa[-1] or len(modp.gcd(fa, modp.image(rb, i - 1), modp.P61)) != 1:
            return False
    return True


def tpoly_gcd(a, b):
    """GCD over Q[t1..tk], normalized to coprime integer coefficients.

    A modular coprimality proof answers 1 without the exact primitive PRS,
    which runs only when the proof fails.
    """
    if a.is_zero():
        return _int_normalize(b)
    if b.is_zero():
        return _int_normalize(a)
    occ_a, occ_b = a.occurring(), b.occurring()
    common = occ_a & occ_b
    if not common or _coprime_mod_p(a, b, common):
        return TPoly.one(a.nvars)
    v = max(occ_a | occ_b)
    ca, pa = _content_pp(a, v)
    cb, pb = _content_pp(b, v)
    cg = tpoly_gcd(ca, cb)
    f, g = (pa, pb) if pa.degree_in(v) >= pb.degree_in(v) else (pb, pa)
    while not g.is_zero():
        r = _prem(f, g, v)
        if not r.is_zero():
            _, r = _content_pp(r, v)
        f, g = g, r
    if f.degree_in(v) <= 0:
        return _int_normalize(cg)
    return _int_normalize(cg * f)


def _reduce_pair(num, den):
    """num/den in lowest terms with a monic denominator; a unit denominator
    is always the shared TPoly.one."""
    one = TPoly.one(num.nvars)
    if num.is_zero() or den is one:
        return num, one
    if not den.is_const():
        g = tpoly_gcd(num, den)
        if not g.is_const():
            num = num.exact_div(g)
            den = den.exact_div(g)
            assert num is not None and den is not None
    lc = den.lead_coeff()
    if lc != 1:
        num = num.scale(1 / lc)
    if den.is_const():
        return num, one
    return num, den if lc == 1 else den.scale(1 / lc)


class Scalar:
    """A base-field element num/den, always in reduced canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = TPoly.one(num.nvars)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        num._check(den)
        self.num, self.den = _reduce_pair(num, den)

    @classmethod
    def _poly(cls, p):
        s = cls.__new__(cls)
        s.num = p
        s.den = TPoly.one(p.nvars)
        return s

    @classmethod
    def from_fraction(cls, nvars, q):
        return cls._poly(TPoly.const(nvars, q))

    @classmethod
    def zero(cls, nvars):
        return cls._poly(TPoly.zero(nvars))

    @classmethod
    def one(cls, nvars):
        return cls._poly(TPoly.one(nvars))

    @classmethod
    def t(cls, nvars, i):
        return cls._poly(TPoly.var(nvars, i))

    @property
    def nvars(self):
        return self.num.nvars

    def is_zero(self):
        return self.num.is_zero()

    def is_const(self):
        return self.num.is_const() and self.den.is_const()

    def is_poly(self):
        return self.den is _ONES.get(self.den.nvars)

    def __bool__(self):
        return bool(self.num.terms)

    def __add__(self, other):
        den = self.den
        if den is other.den and den is _ONES.get(den.nvars):
            return Scalar._poly(self.num + other.num)
        if den == other.den:
            return Scalar(self.num + other.num, den)
        return Scalar(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        s = Scalar.__new__(Scalar)
        s.num = -self.num
        s.den = self.den
        return s

    def __mul__(self, other):
        den = self.den
        if den is other.den and den is _ONES.get(den.nvars):
            return Scalar._poly(self.num * other.num)
        return Scalar(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        return Scalar(self.num * other.den, self.den * other.num)

    def __pow__(self, k):
        if k < 0:
            return Scalar.one(self.nvars) / self ** (-k)
        return sparse.power(self, k, Scalar.one(self.nvars))

    def scale(self, q):
        q = _exact(q)
        if not q:
            return Scalar.zero(self.nvars)
        s = Scalar.__new__(Scalar)
        s.num = self.num.scale(q)
        s.den = self.den
        return s

    def diff(self, i):
        """Derivative d/dt_i via the quotient rule."""
        if self.is_poly():
            return Scalar._poly(self.num.diff(i))
        n = self.num.diff(i) * self.den - self.num * self.den.diff(i)
        return Scalar(n, self.den * self.den)

    def __eq__(self, other):
        return (
            isinstance(other, Scalar)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        from .parser import scalar_text

        return f"Scalar({scalar_text(self)})"

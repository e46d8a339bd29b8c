"""Exact base-field scalars: rational functions of the formal symbols t1..tk.

The k symbols carry the derivations of the base field: derivation i acts as
the partial derivative with respect to t_i. Scalars are kept fully reduced
with a monic (deg-lex leading coefficient 1) denominator at all times, so
structural equality is semantic equality and hashing is safe.

Lowest terms cost a gcd of numerator and denominator per operation, and
almost all of those gcds are 1. tpoly_gcd first tries to prove that from
univariate images mod a 61-bit prime (see _coprime_mod_p, and modp.py); only
when that proof fails does it run the exact primitive PRS. Sums and
differences over one shared denominator add numerators and skip the product
of denominators, and polynomial scalars share one unit denominator.
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
                q = Fraction(c)
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
        q = Fraction(q)
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
        e = tuple(1 if j == i - 1 else 0 for j in range(nvars))
        return cls._raw(nvars, {e: Fraction(1)})

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return all(not any(e) for e in self.terms)

    def const_value(self):
        if not self.is_const():
            raise ValueError("not a constant polynomial")
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def total_degree(self):
        return sparse.total_degree(self.terms)

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
        self._check(other)
        return TPoly._raw(self.nvars, sparse.mul(self.terms, other.terms))

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return sparse.power(self, k, TPoly.one(self.nvars))

    def scale(self, q):
        return TPoly._raw(self.nvars, sparse.scale(self.terms, Fraction(q)))

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

    def lead_term(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return sparse.lead(self.terms)

    def lead_coeff(self):
        return self.lead_term()[1]

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
        if not self.terms:
            return "TPoly(0)"
        parts = []
        for e in sorted(self.terms, key=sparse.deglex, reverse=True):
            mono = "*".join(
                f"t{j + 1}^{k}" if k > 1 else f"t{j + 1}" for j, k in enumerate(e) if k
            )
            c = self.terms[e]
            parts.append(f"{c}*{mono}" if mono else str(c))
        return "TPoly(" + " + ".join(parts) + ")"


_ONES = {}


def _int_scale(coeffs):
    """The positive rational that scales nonzero Fractions to coprime integers."""
    den = lcm(*(c.denominator for c in coeffs))
    return Fraction(den, gcd(*(c.numerator * (den // c.denominator) for c in coeffs)))


def _int_normalize(p):
    """Scale to coprime integer coefficients with positive deg-lex lead."""
    if p.is_zero():
        return p
    q = p.scale(_int_scale(list(p.terms.values())))
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


# Fixed nonzero evaluation points of the coprimality filter, one per t-variable.
_T_POINTS = tuple(pow(3, 40 + j, modp.P61) for j in range(32))


def _residues(f, p):
    """(exponent, coefficient mod p) pairs of f; None if a denominator vanishes mod p."""
    out = []
    for e, c in f.terms.items():
        d = c.denominator
        if d == 1:
            out.append((e, c.numerator % p))
        elif d % p:
            out.append((e, c.numerator * pow(d, -1, p) % p))
        else:
            return None
    return out


def _image(res, i, p):
    """Dense image in t_i (0-based) of residue terms, the other t's at _T_POINTS."""
    img = [0] * (max(e[i] for e, _ in res) + 1)
    for e, r in res:
        for j, k in enumerate(e):
            if k and j != i:
                r = r * pow(_T_POINTS[j], k, p) % p
        img[e[i]] = (img[e[i]] + r) % p
    return img


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
    if a.nvars > len(_T_POINTS):
        return False
    p = modp.P61
    ra, rb = _residues(a, p), _residues(b, p)
    if ra is None or rb is None:
        return False
    for i in common:
        fa = _image(ra, i - 1, p)
        if not fa[-1] or len(modp.gcd(fa, _image(rb, i - 1, p), p)) != 1:
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
    if num.is_zero():
        return num, TPoly.one(num.nvars)
    if not den.is_const():
        g = tpoly_gcd(num, den)
        if not (g.is_const() and g.const_value() == 1):
            num = num.exact_div(g)
            den = den.exact_div(g)
            assert num is not None and den is not None
    lc = den.lead_coeff()
    if lc != 1:
        num = num.scale(1 / lc)
        den = den.scale(1 / lc)
    return num, den


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

    def _den_is_one(self):
        t = self.den.terms
        return len(t) == 1 and t.get((0,) * self.den.nvars) == 1

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self._den_is_one() and self.num.is_const() and self.num.const_value() == 1

    def is_const(self):
        return self.num.is_const() and self.den.is_const()

    def is_poly(self):
        return self._den_is_one()

    def __bool__(self):
        return bool(self.num.terms)

    def __add__(self, other):
        if self._den_is_one() and other._den_is_one():
            return Scalar._poly(self.num + other.num)
        if self.den == other.den:
            return Scalar(self.num + other.num, self.den)
        return Scalar(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        if self._den_is_one() and other._den_is_one():
            return Scalar._poly(self.num - other.num)
        if self.den == other.den:
            return Scalar(self.num - other.num, self.den)
        return Scalar(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        s = Scalar.__new__(Scalar)
        s.num = -self.num
        s.den = self.den
        return s

    def __mul__(self, other):
        if self._den_is_one() and other._den_is_one():
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
        q = Fraction(q)
        if not q:
            return Scalar.zero(self.nvars)
        s = Scalar.__new__(Scalar)
        s.num = self.num.scale(q)
        s.den = self.den
        return s

    def diff(self, i):
        """Derivative d/dt_i via the quotient rule."""
        if self._den_is_one():
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
        if self._den_is_one():
            return f"Scalar({self.num!r})"
        return f"Scalar({self.num!r} / {self.den!r})"

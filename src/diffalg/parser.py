"""Shared expression grammar: parsing and canonical printing.

    poly   := sign? term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := ('d' idx)+ ('x'|'y') idx | ('x'|'y') idx | 't' idx
            | rational | '(' poly ')'

Whitespace is insignificant. "d1 d1 x2" and "d1d1x2" both denote the second
delta-derivative of x2 in direction 1. Rationals are integers or "p/q". The
optional leading sign is a tolerant extension so canonical output like
"-x1 + 1" re-parses.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import EMPTY_MONO, DiffPoly, mono_degree
from .ranking import Ranking
from .ring import RATIONAL_T, DerivVar
from .scalars import Scalar, TPoly, clear_denominators
from .sparse import deglex


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_OPS = set("+-*^()/")


def _lex(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("num", text[i:j], i))
            i = j
            continue
        if ch in "dxyt":
            toks.append(("let", ch, i))
            i += 1
            continue
        if ch in _OPS:
            toks.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("end", "", n))
    return toks


class _Parser:
    def __init__(self, text, ring):
        self.toks = _lex(text)
        self.ring = ring
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def index_after(self, letter, pos):
        kind, val, p = self.take()
        if kind != "num":
            raise ParseError(f"expected an index after {letter!r}", pos)
        return int(val), p

    def parse(self):
        p = self.poly()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", pos)
        return p

    def poly(self):
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.take()
            negate = val == "-"
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                t = self.term()
                acc = acc - t if val == "-" else acc + t
            else:
                return acc

    def term(self):
        acc = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                acc = acc * self.factor()
            else:
                return acc

    def factor(self):
        a = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            k2, v2, p2 = self.take()
            if k2 != "num":
                raise ParseError("expected a natural-number exponent", p2)
            return a ** int(v2)
        return a

    def atom(self):
        kind, val, pos = self.take()
        if kind == "num":
            q = Fraction(int(val))
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.take()
                k3, v3, p3 = self.take()
                if k3 != "num":
                    raise ParseError("expected a denominator", p3)
                if int(v3) == 0:
                    raise ParseError("zero denominator", p3)
                q = Fraction(int(val), int(v3))
            return DiffPoly.const(self.ring, q)
        if kind == "op" and val == "(":
            p = self.poly()
            self.expect_op(")")
            return p
        if kind == "let" and val in "dxy":
            theta = [0] * self.ring.m
            while val == "d":
                idx, p = self.index_after("d", pos)
                if not 1 <= idx <= self.ring.m:
                    raise ParseError(f"derivation index d{idx} out of range (m={self.ring.m})", p)
                theta[idx - 1] += 1
                kind, val, pos = self.take()
                if kind != "let" or val not in "dxy":
                    raise ParseError("expected a variable after derivation prefixes", pos)
            idx, p = self.index_after(val, pos)
            if not 1 <= idx <= self.ring.n:
                raise ParseError(f"variable index {val}{idx} out of range (n={self.ring.n})", p)
            return DiffPoly.var(self.ring, DerivVar(val, idx, tuple(theta)))
        if kind == "let" and val == "t":
            idx, p = self.index_after("t", pos)
            if self.ring.field_mode != RATIONAL_T:
                raise ParseError("t-symbols need the rational_t field mode", pos)
            if not 1 <= idx <= self.ring.nt:
                raise ParseError(f"t{idx} out of range (have t1..t{self.ring.nt})", p)
            return DiffPoly.const(self.ring, Scalar.t(self.ring.nt, idx))
        raise ParseError(f"unexpected {val!r}", pos)


def parse_poly(text, ring):
    """Parse an expression into a canonical polynomial."""
    try:
        return _Parser(text, ring).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", 0) from None


def parse_tpoly(text, ring):
    """Parse an expression containing only t-symbols and rationals."""
    p = parse_poly(text, ring)
    if not p.is_scalar():
        raise ParseError("expected an expression in t-symbols only", 0)
    s = p.scalar_value()
    if not s.is_poly():
        raise ParseError("expected a polynomial in the t-symbols", 0)
    return s.num


# Variables print in the orderly ranking, y above x.
_var_key = Ranking().key


def _print_mono_key(mono):
    factors = sorted(((_var_key(v), e) for v, e in mono), reverse=True)
    return (mono_degree(mono), tuple(factors))


def _tterm_text(e, q):
    """Render q times the t-monomial with exponent vector e."""
    mono = "*".join(f"t{j + 1}^{k}" if k > 1 else f"t{j + 1}" for j, k in enumerate(e) if k)
    if not mono:
        return str(q)
    if q == 1:
        return mono
    return f"{q}*{mono}"


def tpoly_text(p):
    """Render a polynomial in the t-symbols."""
    if p.is_zero():
        return "0"
    parts = []
    for e in sorted(p.terms, key=deglex, reverse=True):
        q = p.terms[e]
        if not parts:
            parts.append(_tterm_text(e, q) if q > 0 else "-" + _tterm_text(e, -q))
        else:
            parts.append((" + " if q > 0 else " - ") + _tterm_text(e, abs(q)))
    return "".join(parts)


def point_text(pt, family="x"):
    """Render a model point as "x1 := t2, x2 := 1", naming the given family."""
    return ", ".join(f"{family}{j} := {tpoly_text(p)}" for j, p in sorted(pt.values().items()))


def scalar_text(s):
    """Render a scalar; one with a t-denominator prints as (num) / (den)."""
    if s.is_poly():
        return tpoly_text(s.num)
    return f"({tpoly_text(s.num)}) / ({tpoly_text(s.den)})"


def _terms_text(nums):
    """The terms of a nonzero polynomial, given as t-polynomial coefficients."""
    out = []
    for mono in sorted(nums, key=_print_mono_key, reverse=True):
        c = nums[mono]
        neg = c.lead_coeff() < 0
        coeff_txt = tpoly_text(-c if neg else c)
        if len(c.terms) > 1:
            coeff_txt = f"({coeff_txt})"
        vars_txt = "*".join(
            v.text() + (f"^{e}" if e > 1 else "") for v, e in
            sorted(mono, key=lambda it: _var_key(it[0]))
        )
        if not mono:
            body = coeff_txt
        elif coeff_txt == "1":
            body = vars_txt
        else:
            body = f"{coeff_txt}*{vars_txt}"
        if not out:
            out.append("-" + body if neg else body)
        else:
            out.append((" - " if neg else " + ") + body)
    return "".join(out)


def poly_text(f):
    """Canonical deterministic rendering.

    With every coefficient in Q[t] it re-parses to the identical value.
    Otherwise it prints as (numerator) / (denominator) over the least common
    t-denominator, made monic; that form does not re-parse.
    """
    if f.is_zero():
        return "0"
    den, nums = clear_denominators(f.ring.nt, f.terms)
    if den is TPoly.one(f.ring.nt):
        return _terms_text(nums)
    num_text = tpoly_text(nums[EMPTY_MONO]) if f.is_scalar() else _terms_text(nums)
    return f"({num_text}) / ({tpoly_text(den)})"

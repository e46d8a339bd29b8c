"""Concrete evaluation oracle: assignments of t-polynomials to the x-variables.

A model point sends each x_j to a polynomial in t1..t_{m+1}, differentiated
d_step times in the last t-symbol, D, when it is read; derivative variables
evaluate to iterated partial derivatives of that, so every polynomial
evaluates to an exact scalar. A point's D-image, d_companion, is the same
assignment one D-step up, and building it differentiates nothing.

Evaluation runs in Q[t]: eval_poly clears f's t-denominators once
(scalars.clear_denominators), sums den * f as exponent-vector dicts, and
builds one Scalar over den at the end. eval_poly is the one exact evaluator.

The candidate polynomials of each degree layer are built once per process
and shared, so they must never be changed. Each comes with a residue table:
the value mod P61 of every t-derivative that can be nonzero, at the fixed
t-point modp.t_point. Grid points from model_points assign the candidates
themselves, and _residue reads each value's table at the point's D-step.
Setting t to the point mod P61 is a ring homomorphism wherever the
coefficients' denominators stay nonzero, so a nonzero residue proves the
exact value nonzero. A table has an entry exactly for each theta at which
the derivative is not the zero polynomial, so a term with a factor whose
entry is missing is exactly zero in Q(t): when every term is like that,
_residue reports a structural zero (False), which proves the exact value
zero with no exact evaluation. A residue 0 proves nothing, and only
eval_poly decides that such a value is zero. A coefficient whose
denominator vanishes at the point, a value without a table, and a point
more than one D-step up give no residue.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import perm

from . import modp, sparse
from .modp import P61, t_point
from .parser import point_text
from .scalars import Scalar, TPoly, clear_denominators


class ModelPoint:
    """An assignment x_j -> t-polynomial and a D-order, d_step: x_j takes
    its assignment differentiated d_step times in D, worked out when read.
    Grid points assign candidates, which carry their residue tables. The
    repr shows the values as parser.point_text prints them."""

    __slots__ = ("ring", "assignment", "d_step")

    def __init__(self, ring, assignment):
        self.ring = ring
        clean = {}
        for j, p in assignment.items():
            if not 1 <= j <= ring.n:
                raise ValueError(f"x{j} out of range (n={ring.n})")
            if not isinstance(p, TPoly) or p.nvars != ring.nt:
                raise ValueError(f"assignment for x{j} must be a t-polynomial")
            clean[j] = p
        self.assignment = clean
        self.d_step = 0

    @classmethod
    def _raw(cls, ring, assignment, d_step=0):
        """A point from an assignment that is valid by construction."""
        pt = cls.__new__(cls)
        pt.ring, pt.assignment, pt.d_step = ring, assignment, d_step
        return pt

    def get(self, j):
        """The value of x_j: its assignment differentiated d_step times in D."""
        try:
            p = self.assignment[j]
        except KeyError:
            raise ValueError(f"x{j} is not assigned") from None
        for _ in range(self.d_step):
            p = p.diff(self.ring.nt)
        return p

    def values(self):
        """{j: the value of x_j} for every assigned j."""
        return {j: self.get(j) for j in self.assignment}

    def d_companion(self):
        """The D-image of the point: the same assignment one D-step up."""
        return ModelPoint._raw(self.ring, self.assignment, self.d_step + 1)

    def __eq__(self, other):
        return (
            isinstance(other, ModelPoint)
            and self.ring == other.ring
            and self.values() == other.values()
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.values().items())))

    def __repr__(self):
        return f"ModelPoint({point_text(self)})"


def eval_poly(f, point, y_point=None):
    """Evaluate f at the point; y-variables read from y_point when given."""
    nt = f.ring.nt
    den, nums = clear_denominators(nt, f.terms)
    cache = {}
    total = {}  # den * f, summed in Q[t]
    for mono, num in nums.items():
        val = None  # product of the factor values; None for the empty monomial
        for v, e in mono:
            got = cache.get(v)
            if got is None:
                if v.family == "x":
                    base = point.get(v.index)
                else:
                    if y_point is None:
                        raise ValueError(f"y-variable {v.text()} present but no y-assignment given")
                    base = y_point.get(v.index)
                got = cache[v] = sparse.iterate(base, v.theta, TPoly.diff)
            for _ in range(e):
                val = got.terms if val is None else sparse.mul(val, got.terms)
        for m, k in (num.terms if val is None else sparse.mul(num.terms, val)).items():
            sparse.acc(total, m, k)
    total = TPoly._raw(nt, total)
    return Scalar._poly(total) if den is TPoly.one(nt) else Scalar(total, den)


@functools.cache
def _mono_derivatives(e):
    """(theta, (d^theta t^e) mod P61 at the t-point) for every theta <= e:
    the falling factorials of the exponents times the power that is left."""
    point = t_point(len(e))
    out = []
    for theta in itertools.product(*(range(k + 1) for k in e)):
        r = 1
        for k, d, x in zip(e, theta, point):
            r = r * perm(k, d) * pow(x, k - d, P61) % P61
        out.append((theta, r))
    return tuple(out)


def _table(terms):
    """{theta: (d^theta p) mod P61 at the t-point} for every theta at which
    the derivative is not the zero polynomial, from p's terms as pairs (e, r),
    r an int congruent mod P61 to the nonzero coefficient of t^e."""
    table = {}
    get = table.get
    for e, r in terms:
        for theta, d in _mono_derivatives(e):
            table[theta] = get(theta, 0) + r * d
    return {theta: v % P61 for theta, v in table.items()}


class _Candidate(TPoly):
    """A grid candidate: a t-polynomial that carries its residue table."""

    __slots__ = ("table",)


def _at_t_point(c):
    """The scalar c mod P61 at the t-point; None where that is undefined."""
    num, den = modp.residues(c.num.terms), modp.residues(c.den.terms)
    if num is None or den is None:
        return None
    den = modp.image(den)
    return modp.image(num) * pow(den, -1, P61) % P61 if den else None


def _residue_terms(f):
    """f compiled for _residue: (coefficient mod P61, factors) per term, a
    factor (is_y, index, (key at the point, key one D-step up), exponent);
    None when some coefficient is undefined at the t-point."""
    out = []
    for mono, c in f.terms.items():
        r = _at_t_point(c)
        if r is None:
            return None
        out.append((r, tuple((v.family == "y", v.index, (v.theta + (0,), v.theta + (1,)), e)
                             for v, e in mono)))
    return out


def _residue(terms, point, y_point=None):
    """The value mod P61 of the polynomial compiled to terms, read from the
    residue tables of point and y_point; None when it is not defined there:
    undefined terms, or a variable whose value has no table (or an undefined
    one) or is read more than one D-step up. False (falsy, like a zero residue) when
    the value is zero by structure: every term has a factor whose table has
    no entry, so it is exactly zero. A term without factors never is."""
    if terms is None:
        return None
    total = 0
    structural = True
    for c, factors in terms:
        for is_y, j, keys, e in factors:
            pt = y_point if is_y else point
            table = None if pt is None else getattr(pt.assignment.get(j), "table", None)
            if table is None or pt.d_step > 1:
                return None
            v = table.get(keys[pt.d_step])
            if v is None:
                break  # this factor's derivative is the zero polynomial
            c = c * pow(v, e, P61) % P61
        else:
            total += c
            structural = False
    return False if structural else total % P61


def eval_at_model_point(f, point):
    """Exact scalar value of an x-polynomial at a model point."""
    if f.has_family("y"):
        raise ValueError("polynomial contains y-variables; evaluate with an explicit y-assignment")
    return eval_poly(f, point)


def t_monomials(nt, degree):
    """Exponent vectors of total degree <= degree, sorted by (degree, lex)."""
    return sorted(sparse.monomials(nt, degree), key=sum)


def coefficient_ladder(height):
    """0, 1, -1, 2, -2, ... up to the height bound."""
    out = [0]
    for k in range(1, height + 1):
        out.extend((k, -k))
    return out


@functools.cache
def _layer(nt, layer, height):
    """(layer, candidate) for each candidate whose highest used monomial
    degree is exactly layer; each candidate carries its residue table.

    Memoised: the tuple, its polynomials and their tables are shared by
    every caller, so nothing may change them.
    """
    ladder = coefficient_ladder(height)
    exact = {c: Fraction(c) for c in ladder}
    monos = t_monomials(nt, layer)
    top = sum(sum(e) < layer for e in monos)  # monos[top:] have degree layer
    out = []
    for coeffs in itertools.product(ladder, repeat=len(monos)):
        # The highest used degree is layer (at layer 0, also for the zero polynomial).
        if layer and not any(coeffs[top:]):
            continue
        # Valid by construction: no TPoly validation, and the table is read
        # off the integer coefficients themselves.
        terms = [(e, c) for e, c in zip(monos, coeffs) if c]
        p = _Candidate._raw(nt, {e: exact[c] for e, c in terms})
        p.table = _table(terms)
        out.append((layer, p))
    return tuple(out)


def model_polys(ring, degree, height):
    """All candidate t-polynomials in the documented order.

    Candidates are layered by the highest monomial degree actually used;
    within a layer the integer coefficient vectors run lexicographically with
    the ladder order 0, 1, -1, 2, -2, ... per coordinate and the earlier
    (lower-degree) monomial coordinates varying slowest.
    """
    return [p for layer in range(degree + 1) for _, p in _layer(ring.nt, layer, height)]


def model_points(ring, indices, degree, height):
    """All candidate model points over the given x-indices, documented order.

    Points are layered by the maximum assignment degree; within a layer the
    per-variable polynomial candidates run in the model_polys order with the
    first index varying slowest. The points are grid points: their
    candidates carry residue tables.
    """
    indices = list(indices)
    pool = []
    for layer in range(degree + 1):
        pool.extend(_layer(ring.nt, layer, height))
        for combo in itertools.product(pool, repeat=len(indices)):
            if max((c[0] for c in combo), default=0) == layer:
                assignment = {j: p for j, (_, p) in zip(indices, combo)}
                yield ModelPoint._raw(ring, assignment)

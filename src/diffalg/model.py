"""Concrete evaluation oracle: assignments of t-polynomials to the x-variables.

A model point sends each x_j to a polynomial in t1..t_{m+1}; derivative
variables evaluate to iterated partial derivatives of the assignment, so
every polynomial evaluates to an exact scalar. The companion point obtained
by differentiating in the last t-symbol plays the role of the D-image.

Evaluation runs in Q[t]: terms with polynomial coefficients are summed as
exponent-vector dicts, and only terms whose coefficient has a t-denominator
take rational-function arithmetic. The candidate polynomials of each degree
layer are built once per process and shared, so they must never be changed.
"""

from __future__ import annotations

import functools
import itertools

from . import sparse
from .scalars import Scalar, TPoly


class ModelPoint:
    __slots__ = ("ring", "assignment")

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

    def get(self, j):
        try:
            return self.assignment[j]
        except KeyError:
            raise ValueError(f"x{j} is not assigned") from None

    def d_companion(self):
        """The point with every assignment differentiated in the D-direction."""
        return ModelPoint(
            self.ring, {j: p.diff(self.ring.nt) for j, p in self.assignment.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, ModelPoint)
            and self.ring == other.ring
            and self.assignment == other.assignment
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.assignment.items())))

    def __repr__(self):
        inner = ", ".join(f"x{j} := {p!r}" for j, p in sorted(self.assignment.items()))
        return f"ModelPoint({inner})"


def eval_poly(f, point, y_point=None):
    """Evaluate f at the point; y-variables read from y_point when given."""
    nt = f.ring.nt
    cache = {}
    total = {}  # the terms with polynomial coefficients, summed in Q[t]
    rest = None  # the terms with a t-denominator, summed as Scalars
    for mono, c in f.terms.items():
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
        if c.is_poly():
            for m, k in (c.num.terms if val is None else sparse.mul(c.num.terms, val)).items():
                sparse.acc(total, m, k)
        else:
            term = c if val is None else c * Scalar._poly(TPoly._raw(nt, val))
            rest = term if rest is None else rest + term
    value = Scalar._poly(TPoly._raw(nt, total))
    return value if rest is None else value + rest


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
    """The candidates whose highest used monomial degree is exactly layer.

    Memoised: the tuple and its polynomials are shared by every caller, so
    nothing may change them.
    """
    ladder = coefficient_ladder(height)
    monos = t_monomials(nt, layer)
    out = []
    for coeffs in itertools.product(ladder, repeat=len(monos)):
        used = max((sum(e) for e, c in zip(monos, coeffs) if c), default=0)
        if used == layer:
            out.append(TPoly(nt, {e: c for e, c in zip(monos, coeffs) if c}))
    return tuple(out)


def model_polys(ring, degree, height):
    """All candidate t-polynomials in the documented order.

    Candidates are layered by the highest monomial degree actually used;
    within a layer the integer coefficient vectors run lexicographically with
    the ladder order 0, 1, -1, 2, -2, ... per coordinate and the earlier
    (lower-degree) monomial coordinates varying slowest.
    """
    return [p for layer in range(degree + 1) for p in _layer(ring.nt, layer, height)]


def model_points(ring, indices, degree, height):
    """All candidate model points over the given x-indices, documented order.

    Points are layered by the maximum assignment degree; within a layer the
    per-variable polynomial candidates run in the model_polys order with the
    first index varying slowest.
    """
    indices = list(indices)
    pool = []
    for layer in range(degree + 1):
        pool.extend(_layer(ring.nt, layer, height))
        for combo in itertools.product(pool, repeat=len(indices)):
            eff = max((max(p.total_degree(), 0) for p in combo), default=0)
            if eff == layer:
                yield ModelPoint(ring, dict(zip(indices, combo)))

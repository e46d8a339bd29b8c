"""The prolongation operator: f(x) -> tau f(x, y), linear in the y-family.

tau is the derivation D, extended to monomials by the same Leibniz rule as
the delta_i (DiffPoly.leibniz): D acts on coefficients as d/dt_{m+1}, the
last t-symbol, and sends each derivative theta x_i to theta y_i. So tau f is
f with every coefficient D-differentiated, plus the sum over occurring
theta x_i of (formal partial of f) * theta y_i. Evaluating tau f at a model
point paired with its D-companion reproduces the D-derivative of the value
of f; that chain-rule contract is checkable exactly. Repeated application is
intentionally unsupported: no identity is claimed for iterating the operator,
and in general tau V(f_1, ..., f_s) is not V(f_1, ..., f_s, tau f_1, ..., tau f_s).
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import eval_at_model_point, eval_poly
from .poly import DiffPoly
from .ring import RATIONAL_T


@dataclass(frozen=True)
class TauPoly:
    """Prolongation output; every monomial is at most linear in the y-family."""

    value: DiffPoly

    def __post_init__(self):
        for mono in self.value.terms:
            ydeg = sum(e for v, e in mono if v.family == "y")
            if ydeg > 1:
                raise ValueError("prolongation output must be linear in the y-family")

    @property
    def ring(self):
        return self.value.ring


def tau(f):
    """Prolong an x-polynomial."""
    if f.has_family("y"):
        raise ValueError("prolongation input must not contain y-variables")
    return TauPoly(f.leibniz(f.ring.nt, lambda v: v.shadow("y")))


def tau_set(polys):
    """Prolongation data {(f, tau f)} in input order."""
    return [(f, tau(f)) for f in polys]


@dataclass
class DCompatReport:
    ok: bool
    lhs: object  # tau f at (point, D point)
    rhs: object  # D of f at point


def d_compatibility_check(f, point):
    """Exact chain-rule check: tau f(a, Da) equals D(f(a))."""
    if point.ring.field_mode != RATIONAL_T:
        raise ValueError("the chain-rule check needs the rational_t field mode")
    t = tau(f)
    lhs = eval_poly(t.value, point, point.d_companion())
    rhs = eval_at_model_point(f, point).diff(point.ring.nt)
    return DCompatReport(lhs == rhs, lhs, rhs)

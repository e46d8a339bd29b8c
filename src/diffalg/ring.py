"""Ring configuration and derivative-variable bookkeeping.

A ring context fixes m (number of delta-derivations), n (number of
differential indeterminates) and the base-field mode. The extra derivation D
is never applied to polynomials directly; it enters through prolongation and
through model evaluation as the derivative in the last t-symbol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .sparse import emul, unit

CONSTANTS = "constants"
RATIONAL_T = "rational_t"


@dataclass(frozen=True)
class RingContext:
    m: int
    n: int
    field_mode: str = CONSTANTS

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("m must be non-negative")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.field_mode not in (CONSTANTS, RATIONAL_T):
            raise ValueError(f"unknown field mode {self.field_mode!r}")

    @property
    def nt(self):
        """Number of t-symbols carried by scalars (m delta-slots plus one D-slot)."""
        return self.m + 1


class _Triple(NamedTuple):
    family: str
    index: int
    theta: tuple  # derivative-operator exponents (e1, ..., em)


class DerivVar(_Triple):
    """A derivative theta x_j (or theta y_j in prolongation output).

    It is the tuple (family, index, theta), so its hash, equality and order
    are the tuple's; the order is the canonical one of a monomial's
    variables, independent of any ranking. theta may be given as any
    sequence; it is stored as a tuple.
    """

    __slots__ = ()

    def __new__(cls, family, index, theta):
        theta = tuple(theta)
        if family not in ("x", "y"):
            raise ValueError(f"unknown variable family {family!r}")
        if index < 1:
            raise ValueError("variable index must be at least 1")
        if any(k < 0 for k in theta):
            raise ValueError("negative derivative exponent")
        return super().__new__(cls, family, index, theta)

    @property
    def order(self):
        return sum(self.theta)

    def derived(self, i):
        """The variable delta_i applied once more."""
        return DerivVar(self.family, self.index, emul(self.theta, unit(len(self.theta), i)))

    def shadow(self, family):
        """Same derivative in the other family."""
        return DerivVar(family, self.index, self.theta)

    def text(self):
        return f"{theta_text(self.theta)}{self.family}{self.index}"


def theta_text(theta):
    """The derivative operator with exponents theta, as "d1d1d2"; "" for the identity."""
    return "".join(f"d{j + 1}" * k for j, k in enumerate(theta))


def xvar(ring, index, theta=None):
    if not 1 <= index <= ring.n:
        raise ValueError(f"x{index} out of range (n={ring.n})")
    return DerivVar("x", index, theta if theta is not None else (0,) * ring.m)


"""Ring configuration and derivative-variable bookkeeping.

A ring context fixes m (number of delta-derivations), n (number of
differential indeterminates) and the base-field mode. The extra derivation D
is never applied to polynomials directly; it enters through prolongation and
through model evaluation as the derivative in the last t-symbol.
"""

from __future__ import annotations

from dataclasses import dataclass

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


# Derivative-operator exponents (e1, ..., em), one slot per delta-derivation.
MultiIndex = tuple


def mi_zero(m):
    return (0,) * m


def mi_unit(m, i):
    if not 1 <= i <= m:
        raise ValueError(f"derivation index {i} out of range (1..{m})")
    return tuple(1 if j == i - 1 else 0 for j in range(m))


def mi_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mi_sub(a, b):
    d = tuple(x - y for x, y in zip(a, b))
    if any(x < 0 for x in d):
        raise ValueError(f"{a} is not a derivative of {b}")
    return d


def mi_max(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mi_order(theta):
    return sum(theta)


def mi_geq(a, b):
    return all(x >= y for x, y in zip(a, b))


@dataclass(frozen=True)
class DerivVar:
    """A derivative theta x_j (or theta y_j in prolongation output)."""

    family: str
    index: int
    theta: MultiIndex

    def __post_init__(self):
        if self.family not in ("x", "y"):
            raise ValueError(f"unknown variable family {self.family!r}")
        if self.index < 1:
            raise ValueError("variable index must be at least 1")
        if any(k < 0 for k in self.theta):
            raise ValueError("negative derivative exponent")

    @property
    def order(self):
        return sum(self.theta)

    @property
    def sort_key(self):
        # Canonical storage key; independent of any ranking.
        return (self.family, self.index, self.theta)

    def derived(self, i):
        """The variable delta_i applied once more."""
        return DerivVar(self.family, self.index, mi_add(self.theta, mi_unit(len(self.theta), i)))

    def shadow(self, family):
        """Same derivative in the other family."""
        return DerivVar(family, self.index, self.theta)

    def text(self):
        ds = "".join(f"d{j + 1}" * k for j, k in enumerate(self.theta))
        return f"{ds}{self.family}{self.index}"


def xvar(ring, index, theta=None):
    if not 1 <= index <= ring.n:
        raise ValueError(f"x{index} out of range (n={ring.n})")
    return DerivVar("x", index, theta if theta is not None else mi_zero(ring.m))


def yvar(ring, index, theta=None):
    if not 1 <= index <= ring.n:
        raise ValueError(f"y{index} out of range (n={ring.n})")
    return DerivVar("y", index, theta if theta is not None else mi_zero(ring.m))

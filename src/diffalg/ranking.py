"""Rankings on derivative variables; leaders, initials and separants.

Both ranking kinds satisfy the two ranking axioms: every proper derivative of
a variable ranks above it, and applying the same derivative operator to two
variables preserves their order. The y-family ranks above the x-family by the
same rule; that matters only for printing prolongation output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ring import DerivVar

ORDERLY = "orderly"
ELIMINATION = "elimination"


@dataclass(frozen=True)
class Ranking:
    kind: str = ORDERLY
    permutation: tuple = ()

    def __post_init__(self):
        if self.kind not in (ORDERLY, ELIMINATION):
            raise ValueError(f"unknown ranking kind {self.kind!r}")
        if self.kind == ELIMINATION:
            if not self.permutation or sorted(self.permutation) != list(
                range(1, len(self.permutation) + 1)
            ):
                raise ValueError("elimination ranking needs a permutation of 1..n")

    @classmethod
    def parse(cls, spec, n):
        """Ranking of n variables from "orderly" or "elimination:i,j,...";
        raises ValueError."""
        if spec == ORDERLY:
            return cls()
        kind, _, perm = spec.partition(":")
        if kind != ELIMINATION:
            raise ValueError(f"unknown ranking {spec!r}")
        if not perm:
            raise ValueError("elimination ranking needs a permutation, e.g. elimination:2,1")
        try:
            indices = tuple(int(k) for k in perm.split(","))
        except ValueError:
            raise ValueError(
                f"elimination ranking needs comma-separated indices, got {perm!r}"
            ) from None
        ranking = cls(ELIMINATION, indices)
        if len(indices) != n:
            raise ValueError(f"elimination ranking must permute 1..{n}")
        return ranking

    def key(self, v: DerivVar):
        fam = 0 if v.family == "x" else 1
        if self.kind == ORDERLY:
            return (fam, v.order, v.index, v.theta)
        pos = self.permutation.index(v.index)
        return (fam, pos, v.order, v.theta)


def compare_vars(u, v, ranking):
    """-1, 0 or 1 as u ranks below, equal to, or above v."""
    ku, kv = ranking.key(u), ranking.key(v)
    return (ku > kv) - (ku < kv)


def leader(f, ranking):
    vs = f.variables()
    if not vs:
        raise ValueError("a scalar has no leader")
    return max(vs, key=ranking.key)


def leader_initial_separant(f, ranking):
    """Leader, initial (coefficient of its top power) and separant of f."""
    u = leader(f, ranking)
    d = f.degree_in(u)
    initial = f.split(u, d)[0]
    separant = f.formal_partial(u)
    return u, initial, separant

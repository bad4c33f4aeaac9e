"""Exact arithmetic on Z/2- and Z/4-graded dimension vectors.

Dimensions are plain Python integers (arbitrary precision); no floats
appear anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass


class _GradedDim:
    """Validation and total shared by the graded dimension vectors.

    Each subclass's `__init__` tests its entries with one chained
    expression and calls `_reject` only when that test fails, so a valid
    vector pays for no call per entry.
    """

    __slots__ = ()

    @staticmethod
    def _reject(entries):
        for i, v in enumerate(entries):
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"d{i} must be a nonnegative integer, got {v!r}")

    def total(self) -> int:
        return sum(self.entries())


@dataclass(frozen=True, slots=True, init=False)
class GradedDimZ2(_GradedDim):
    """Dimension vector of a Z/2-graded vector space: (d0, d1)."""

    d0: int
    d1: int

    def __init__(self, d0: int, d1: int):
        if not (isinstance(d0, int) and d0 >= 0 and isinstance(d1, int) and d1 >= 0):
            self._reject((d0, d1))
        object.__setattr__(self, "d0", d0)
        object.__setattr__(self, "d1", d1)

    def entries(self) -> tuple:
        return (self.d0, self.d1)


@dataclass(frozen=True, slots=True, init=False)
class GradedDimZ4(_GradedDim):
    """Dimension vector of a Z/4-graded vector space: (d0, d1, d2, d3)."""

    d0: int
    d1: int
    d2: int
    d3: int

    def __init__(self, d0: int, d1: int, d2: int, d3: int):
        if not (isinstance(d0, int) and d0 >= 0 and isinstance(d1, int) and d1 >= 0
                and isinstance(d2, int) and d2 >= 0 and isinstance(d3, int) and d3 >= 0):
            self._reject((d0, d1, d2, d3))
        object.__setattr__(self, "d0", d0)
        object.__setattr__(self, "d1", d1)
        object.__setattr__(self, "d2", d2)
        object.__setattr__(self, "d3", d3)

    def entries(self) -> tuple:
        return (self.d0, self.d1, self.d2, self.d3)


def collapse_z4_to_z2(v: GradedDimZ4) -> GradedDimZ2:
    """Reduce grading residues mod 2: (d0+d2, d1+d3)."""
    return GradedDimZ2(v.d0 + v.d2, v.d1 + v.d3)

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


def euler_z2(v: GradedDimZ2) -> int:
    """Euler characteristic d0 - d1."""
    return v.d0 - v.d1


def collapse_z4_to_z2(v: GradedDimZ4) -> GradedDimZ2:
    """Reduce grading residues mod 2: (d0+d2, d1+d3)."""
    return GradedDimZ2(v.d0 + v.d2, v.d1 + v.d3)


def dual_z4(v: GradedDimZ4, b1: int) -> GradedDimZ4:
    """Duality shift i -> b1 - i on the Z/4 grading.

    Entry i of the result is entry (b1 - i) mod 4 of the input.
    """
    if b1 < 0:
        raise ValueError("b1 must be nonnegative")
    e = v.entries()
    return GradedDimZ4(*(e[(b1 - i) % 4] for i in range(4)))


def direct_sum(u, v):
    """Entrywise sum of two vectors of the same shape."""
    if isinstance(u, GradedDimZ2) and isinstance(v, GradedDimZ2):
        return GradedDimZ2(u.d0 + v.d0, u.d1 + v.d1)
    if isinstance(u, GradedDimZ4) and isinstance(v, GradedDimZ4):
        return GradedDimZ4(*(a + b for a, b in zip(u.entries(), v.entries())))
    raise TypeError(f"cannot sum {type(u).__name__} with {type(v).__name__}")


def shift_z4(v: GradedDimZ4, k: int) -> GradedDimZ4:
    """Cyclic grading shift: entry at grading i moves to grading i + k mod 4."""
    e = v.entries()
    return GradedDimZ4(*(e[(i - k) % 4] for i in range(4)))

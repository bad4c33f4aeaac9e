"""Exact arithmetic on Z/2- and Z/4-graded dimension vectors.

Dimensions are plain Python integers (arbitrary precision); no floats
appear anywhere in this package.
"""

from __future__ import annotations


class _GradedDim:
    """Validation, total, comparison and immutability shared by the graded
    dimension vectors.

    A vector is frozen as a frozen dataclass is, equals only a vector of
    its own class with the same entries, and hashes as its entries.

    Each subclass's `__init__` tests its entries with one chained
    expression and calls `_reject` only when that test fails, so a valid
    vector pays for no call per entry.  It then stores each entry through
    the field's slot descriptor, bound once below the class: cheaper than
    `object.__setattr__`, and like it not stopped by frozenness.
    """

    __slots__ = ()

    @staticmethod
    def _reject(entries):
        for i, v in enumerate(entries):
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"d{i} must be a nonnegative integer, got {v!r}")

    def total(self) -> int:
        return sum(self.entries())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self):
        return hash(self.entries())

    def __repr__(self):
        fields = ", ".join(f"{name}={v!r}" for name, v in zip(self.__slots__, self.entries()))
        return f"{self.__class__.__name__}({fields})"

    def __reduce__(self):
        return self.__class__, self.entries()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class GradedDimZ2(_GradedDim):
    """Dimension vector of a Z/2-graded vector space: (d0, d1)."""

    __slots__ = ("d0", "d1")

    def __init__(self, d0: int, d1: int):
        if not (isinstance(d0, int) and d0 >= 0 and isinstance(d1, int) and d1 >= 0):
            self._reject((d0, d1))
        _z2_d0(self, d0)
        _z2_d1(self, d1)

    def entries(self) -> tuple:
        return (self.d0, self.d1)


_z2_d0, _z2_d1 = GradedDimZ2.d0.__set__, GradedDimZ2.d1.__set__


class GradedDimZ4(_GradedDim):
    """Dimension vector of a Z/4-graded vector space: (d0, d1, d2, d3)."""

    __slots__ = ("d0", "d1", "d2", "d3")

    def __init__(self, d0: int, d1: int, d2: int, d3: int):
        if not (isinstance(d0, int) and d0 >= 0 and isinstance(d1, int) and d1 >= 0
                and isinstance(d2, int) and d2 >= 0 and isinstance(d3, int) and d3 >= 0):
            self._reject((d0, d1, d2, d3))
        _z4_d0(self, d0)
        _z4_d1(self, d1)
        _z4_d2(self, d2)
        _z4_d3(self, d3)

    def entries(self) -> tuple:
        return (self.d0, self.d1, self.d2, self.d3)


_z4_d0, _z4_d1, _z4_d2, _z4_d3 = (
    GradedDimZ4.d0.__set__, GradedDimZ4.d1.__set__, GradedDimZ4.d2.__set__, GradedDimZ4.d3.__set__
)


def collapse_z4_to_z2(v: GradedDimZ4) -> GradedDimZ2:
    """Reduce grading residues mod 2: (d0+d2, d1+d3)."""
    return GradedDimZ2(v.d0 + v.d2, v.d1 + v.d3)

"""Graded dimension vectors: the dimensions of a Z/2- or Z/4-graded vector space.

A vector holds one nonnegative Python integer (arbitrary precision) per
grading residue: (d0, d1) for Z/2 and (d0, d1, d2, d3) for Z/4.  No floats
appear anywhere in this package.

Each vector is a checked namedtuple: its entries are tested when it is made,
by its constructor, `_make` or `_replace`.  It equals only a vector of its
own class with the same entries, never a plain tuple, and hashes as the
tuple of its entries.  It is immutable: setting or deleting a field raises
AttributeError.
"""

from __future__ import annotations

from collections import namedtuple


class _GradedDim:
    """What the vectors add to namedtuple.  Each `__new__` tests its entries
    in one chained expression and calls `_reject`, whose message names the
    first bad position, only when that test fails."""

    __slots__ = ()

    @staticmethod
    def _reject(entries):
        for i, v in enumerate(entries):
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"d{i} must be a nonnegative integer, got {v!r}")

    _make = classmethod(lambda cls, it: cls(*it))  # so that _replace checks too

    # False, not NotImplemented, for another class: a plain tuple on the
    # left would otherwise compare its entries with ours.
    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    # tuple's `__ne__` would compare with any tuple; object's inverts `__eq__`.
    __ne__ = object.__ne__
    __hash__ = tuple.__hash__

    def entries(self) -> tuple:
        return tuple(self)

    def total(self) -> int:
        return sum(self)


class GradedDimZ2(_GradedDim, namedtuple("GradedDimZ2", "d0 d1")):
    """Dimension vector of a Z/2-graded vector space: (d0, d1)."""

    __slots__ = ()

    def __new__(cls, d0: int, d1: int):
        if not (isinstance(d0, int) and d0 >= 0 and isinstance(d1, int) and d1 >= 0):
            cls._reject((d0, d1))
        return tuple.__new__(cls, (d0, d1))


class GradedDimZ4(_GradedDim, namedtuple("GradedDimZ4", "d0 d1 d2 d3")):
    """Dimension vector of a Z/4-graded vector space: (d0, d1, d2, d3)."""

    __slots__ = ()

    def __new__(cls, d0: int, d1: int, d2: int, d3: int):
        if not (isinstance(d0, int) and d0 >= 0 and isinstance(d1, int) and d1 >= 0
                and isinstance(d2, int) and d2 >= 0 and isinstance(d3, int) and d3 >= 0):
            cls._reject((d0, d1, d2, d3))
        return tuple.__new__(cls, (d0, d1, d2, d3))


def collapse_z4_to_z2(v: GradedDimZ4) -> GradedDimZ2:
    """Reduce grading residues mod 2: (d0+d2, d1+d3)."""
    return GradedDimZ2(v.d0 + v.d2, v.d1 + v.d3)

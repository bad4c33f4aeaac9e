"""Mod-2 and rational invariants of 2-plane fields from filling data.

Everything is computed from the algebraic topology of an almost-complex
filling X of (Y, xi): chi(X), sigma(X), b1(Y), and optionally c1(X)^2.
The rational invariants are exact Fractions throughout.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction


class ParityError(ValueError):
    """Filling data whose parity makes the mod-2 invariant undefined."""


class FillingData(namedtuple("FillingData", "chi sigma b1_boundary c1_sq", defaults=(0, None))):
    """Filling data; a c1_sq given as an int or a str such as "1/2" is
    stored as a Fraction."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # so that _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.b1_boundary < 0:
            raise ValueError("b1_boundary must be nonnegative")
        if self.c1_sq is None or isinstance(self.c1_sq, Fraction):
            return self
        return super().__new__(cls, *self[:3], Fraction(self.c1_sq))


def delta(f: FillingData) -> int:
    """Mod-2 plane-field invariant (chi + sigma + b1 - 1)/2 mod 2.

    Does not read c1_sq.
    """
    interior = f.chi + f.sigma + f.b1_boundary - 1
    if interior % 2 != 0:
        raise ParityError("chi + sigma + b1 - 1 must be even")
    return (interior // 2) % 2


def d3(f: FillingData) -> Fraction:
    """Gompf invariant (c1^2 - 3 sigma - 2 chi)/4; requires torsion euler
    class of the plane field (caller obligation) and c1_sq present."""
    if f.c1_sq is None:
        raise ValueError("d3 needs c1_sq")
    return (f.c1_sq - 3 * f.sigma - 2 * f.chi) / 4


def rho(f: FillingData) -> Fraction:
    """Spin^c rho invariant (c1^2 - sigma)/4 mod 2, as a Fraction in [0, 2)."""
    if f.c1_sq is None:
        raise ValueError("rho needs c1_sq")
    return (f.c1_sq - f.sigma) / 4 % 2


def delta_dual(d: int, b1: int) -> int:
    """Orientation reversal: delta(Y) + delta(-Y) = b1(Y) - 1 mod 2."""
    if b1 < 0:
        raise ValueError("b1 must be nonnegative")
    return (b1 - 1 - d) % 2


def contact_grading(f: FillingData) -> int:
    """Z/2 grading of the contact class of (Y, xi) in I^#(-Y), computed from
    filling data for (Y, xi) itself: delta(-Y, xi) + 1 mod 2."""
    return (delta_dual(delta(f), f.b1_boundary) + 1) % 2

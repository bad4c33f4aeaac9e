"""Cobordism degree arithmetic and the surgery-triangle degrees.

The integer attached to a cobordism W: Y_in -> Y_out is

    d(W) = -(3/2)(chi + sigma) + (1/2)(b1_out - b1_in + b0_out - b0_in).

An empty end is encoded by b0 = 0 (and b1 = 0); its terms then contribute
nothing, which covers fillings X: empty -> Y.

The Z/4 degrees of the (S^3, S^3_n, S^3_{n+1}) triangle are derived, not
tabulated: the surgery map and whichever map through S^3 is spin each have
degree d(W) mod 4, and the three degrees sum to 3 mod 4, which fixes the
degree of the non-spin map.
"""

from __future__ import annotations

from collections import namedtuple


class CobordismData(namedtuple("CobordismData", "chi sigma b1_in b1_out b0_in b0_out spin",
                               defaults=(0, 0, 1, 1, True))):
    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # so that _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("b1_in", "b1_out", "b0_in", "b0_out"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.b0_in == 0 and self.b1_in != 0:
            raise ValueError("empty incoming end (b0_in=0) must have b1_in=0")
        if self.b0_out == 0 and self.b1_out != 0:
            raise ValueError("empty outgoing end (b0_out=0) must have b1_out=0")
        return self


class TriangleDegrees(namedtuple("TriangleDegrees", "deg_surgery deg_to_s3 deg_from_s3")):
    """Z/4 degrees of the three maps in the (S^3, S^3_n, S^3_{n+1}) triangle:
    S^3_n -> S^3_{n+1}, S^3_{n+1} -> S^3 and S^3 -> S^3_n."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # so that _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if sum(self) % 4 != 3:
            raise ValueError("triangle degrees must sum to 3 mod 4")
        return self

    def entries(self) -> tuple:
        return tuple(self)


def d_degree(c: CobordismData) -> int:
    """The integer d(W); raises if the data gives a non-integral value."""
    twice = -3 * (c.chi + c.sigma) + c.b1_out - c.b1_in + c.b0_out - c.b0_in
    if twice % 2 != 0:
        raise ValueError(f"d(W) is not an integer for this data: {twice}/2")
    return twice // 2


def triangle_degrees(n: int) -> TriangleDegrees:
    """Z/4 degrees of the triangle at slope n, derived from d(W)."""
    deg_surgery = d_degree(surgery_map_cobordism_data(n)) % 4
    deg_spin = d_degree(spin_s3_cobordism_data(n)) % 4
    deg_non_spin = (3 - deg_surgery - deg_spin) % 4
    if n % 2 == 0:  # S^3 -> S^3_n is the spin map
        return TriangleDegrees(deg_surgery, deg_non_spin, deg_spin)
    return TriangleDegrees(deg_surgery, deg_spin, deg_non_spin)


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


def surgery_cobordism_data(n: int) -> CobordismData:
    """Data of the 2-handle trace W: S^3 -> S^3_n(K).

    chi = 1, sigma = sign(n); the outgoing end has b1 = 1 exactly when
    n = 0.  The trace is non-spin exactly when n is odd.
    """
    return CobordismData(
        chi=1,
        sigma=_sign(n),
        b1_out=1 if n == 0 else 0,
        spin=n % 2 == 0,
    )


def surgery_map_cobordism_data(n: int) -> CobordismData:
    """Data of the 2-handle cobordism S^3_n(K) -> S^3_{n+1}(K).

    The attaching curve is rationally nullhomologous except when an end is
    the 0-surgery, so sigma = -1 unless n is 0 or -1.  This map is always
    spin in the triangle.
    """
    return CobordismData(
        chi=1,
        sigma=0 if n in (0, -1) else -1,
        b1_in=1 if n == 0 else 0,
        b1_out=1 if n + 1 == 0 else 0,
        spin=True,
    )


def to_s3_cobordism_data(n: int) -> CobordismData:
    """Data of the cobordism S^3_{n+1}(K) -> S^3 in the triangle.

    This is the reversed, orientation-flipped trace of (n+1)-surgery:
    chi = 1, sigma = -sign(n+1).  Non-spin exactly when n is even.
    """
    w = surgery_cobordism_data(n + 1)
    return w._replace(sigma=-w.sigma, b1_in=w.b1_out, b1_out=w.b1_in)


def spin_s3_cobordism_data(n: int) -> CobordismData:
    """Data of the map through S^3 in the triangle that is spin.

    That is S^3 -> S^3_n(K) when n is even and S^3_{n+1}(K) -> S^3 when n
    is odd; the other map through S^3 is non-spin.
    """
    from_s3 = surgery_cobordism_data(n)
    return from_s3 if from_s3.spin else to_s3_cobordism_data(n)

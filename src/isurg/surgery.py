"""Closed-form graded dimensions of integral surgeries on L-space knots.

All floor/ceiling arithmetic rounds toward -inf/+inf respectively, which
matters for negative surgery coefficients; Python's // already floors, and
each ceiling is written as a floor, ceil(a / 2) = (a + 1) // 2.

`dims_z2`, `dims_z4` and `lens_space_dims` give one slope as a validated
graded vector.  `dims_rows` gives a whole range of slopes, the rows of
`isurg dims`, from one table of the closed forms' four regimes (n <= -1,
n = 0, 1 <= n <= 2g-1, n >= 2g), with no call and no vector per row; a Z/2
row is its Z/4 row's prefix.  With h = 2g - 1, the first and third regimes
share one form: in Z/4 the Z/2 summand h - n splits into its ceiling and
floor halves, and the other summand into g and g - 1.
"""

from __future__ import annotations

from .graded import GradedDimZ2, GradedDimZ4


def dims_z2(g: int, n: int) -> GradedDimZ2:
    """Z/2-graded dimensions of n-surgery on a genus-g instanton L-space knot.

    Three regimes: (2g-1-n, 2g-1) for n <= 0, (2g-1, 2g-1-n) for
    0 <= n <= 2g-1, and (n, 0) for n >= 2g-1.  The overlaps at n = 0 and
    n = 2g-1 agree.
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    if n <= 0:
        return GradedDimZ2(2 * g - 1 - n, 2 * g - 1)
    if n <= 2 * g - 1:
        return GradedDimZ2(2 * g - 1, 2 * g - 1 - n)
    return GradedDimZ2(n, 0)


def dims_z4(g: int, n: int) -> GradedDimZ4:
    """Z/4-graded dimensions of n-surgery on a genus-g knot with a positive
    lens-space surgery.

    The lens-space hypothesis is the caller's obligation; without it only
    the mod-2 collapse is known to be correct.
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    if n <= -1:
        return GradedDimZ4(g + (-n) // 2, g - 1, g + (-(n + 1)) // 2, g)
    if n == 0:
        return GradedDimZ4(g - 1, g - 1, g, g)
    if n <= 2 * g - 1:
        return GradedDimZ4(g, g - (n + 1) // 2, g - 1, g - 1 - n // 2)
    return lens_space_dims(n)


def dims_rows(g: int, slopes: range, z4: bool):
    """The rows (n, z2_d0, z2_d1[, z4_d0..z4_d3]) of `dims_z2` (and, with
    `z4`, `dims_z4`) for each n of `slopes`, a range of step 1, as one
    `(fixed, rows)` pair per non-empty regime, in a lazy generator.

    `fixed` is the regime's row with each entry that does not depend on n
    given as its int and None where it varies; the n = 0 row is all ints.
    `rows` is a generator of the varying entries only, in slope order, one
    tuple per n: with h = 2g - 1, `(n, h - n, (h + 1 - n) // 2, (h - n) // 2)`
    for n <= -1 and for 1 <= n <= h with `z4`, `(n, h - n)` for them
    without, and `()` for n = 0.

    For an int g >= 1 every entry is a nonnegative int: the fixed entries
    are h, g - 1 and g; for n <= -1 the others are h - n >= h + 1 and halves
    >= 1; for 1 <= n <= h they are h - n >= 0 and halves >= 0; for n > h
    they are n, (n + 2) // 2 >= 1 and (n - 1) // 2 >= 0.
    """
    # Refused here, at the call: the generators below run only when drawn.
    dims_z2(g, 0)
    h, k = 2 * g - 1, g - 1
    lo, hi = slopes.start, slopes.stop - 1
    # The varying entries of a row below 0 and on 1..h (the halves), and past h.
    if z4:
        halves = lambda ns: ((n, h - n, (h + 1 - n) // 2, (h - n) // 2) for n in ns)
        lens = lambda ns: ((n, n, (n + 2) // 2, (n - 1) // 2) for n in ns)
    else:
        halves = lambda ns: ((n, h - n) for n in ns)
        lens = lambda ns: ((n, n) for n in ns)
    regimes = ((lo, -1, (None, None, h, None, k, None, g), halves),
               (0, 0, (0, h, h, k, k, g, g), lambda ns: (() for n in ns)),
               (1, h, (None, h, None, g, None, k, None), halves),
               (h + 1, hi, (None, None, 0, None, 0, None, 0), lens))
    spans = ((range(max(lo, a), min(hi, b) + 1), fixed, rows) for a, b, fixed, rows in regimes)
    return ((fixed if z4 else fixed[:3], rows(ns)) for ns, fixed, rows in spans if ns)


def lens_space_dims(n: int) -> GradedDimZ4:
    """Z/4 vector of a lens space with |H_1| = n: (ceil((n+1)/2), 0, floor((n-1)/2), 0)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return GradedDimZ4((n + 2) // 2, 0, (n - 1) // 2, 0)


def trefoil_one_over_n(n: int) -> GradedDimZ2:
    """Z/2 dimensions of 1/n-surgery on the right-handed trefoil: (n, n-1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return GradedDimZ2(n, n - 1)

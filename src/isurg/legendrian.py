"""Legendrian (tb, r) bookkeeping and the Stein lower bounds they produce.

A stabilization sends (tb, r) to (tb - 1, r +/- 1), so tb + r stays odd.
Stabilizing down to a target tb realizes an arithmetic progression of
rotation numbers; together with their conjugates (r -> -r) these count
Stein structures on the surgery trace with distinct first Chern classes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graded import GradedDimZ2


@dataclass(frozen=True)
class LegendrianRep:
    tb: int
    r: int

    def __post_init__(self):
        if (self.tb + self.r) % 2 == 0:
            raise ValueError(f"tb + r must be odd, got tb={self.tb}, r={self.r}")

    # Both classical combinations are exposed by name: the self-linking
    # number of the transverse push-off is tb - r, while some arguments
    # select representatives by the value of tb + r.
    def tb_plus_r(self) -> int:
        return self.tb + self.r

    def tb_minus_r(self) -> int:
        return self.tb - self.r


def stabilize(rep: LegendrianRep, sign: int) -> LegendrianRep:
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return LegendrianRep(rep.tb - 1, rep.r + sign)


def _progression(rep: LegendrianRep, target_tb: int):
    """(first, count) of the rotation numbers reachable at target_tb.

    With n = 1 - target_tb they are r - tb - n + 1 + 2k for
    0 <= k <= tb + n - 1: tb - target_tb + 1 numbers, all of one parity.
    """
    if target_tb > rep.tb:
        raise ValueError(f"target_tb {target_tb} exceeds tb {rep.tb}")
    return rep.r - rep.tb + target_tb, rep.tb - target_tb + 1


def rotation_numbers_after(rep: LegendrianRep, target_tb: int) -> list:
    """All rotation numbers reachable by stabilizing rep down to target_tb,
    sorted ascending (see `_progression`)."""
    first, count = _progression(rep, target_tb)
    return list(range(first, first + 2 * count, 2))


def distinct_chern_count(rep: LegendrianRep, target_tb: int) -> int:
    """Number of distinct Chern classes among the reachable rotation numbers
    and their conjugates; r = 0 is not double-counted.

    The progression first, first + 2, ..., last and its negation share one
    parity, so they overlap exactly in the values of that parity in
    [max(first, -last), min(last, -first)].
    """
    first, count = _progression(rep, target_tb)
    last = first + 2 * (count - 1)
    lo, hi = max(first, -last), min(last, -first)
    return 2 * count - max(0, (hi - lo) // 2 + 1)


def prop41_lower_bound(s: int, n: int) -> GradedDimZ2:
    """Graded lower bound for -n-surgery on a knot with maximal self-linking s:
    at least s + n in grading 0 and s in grading 1."""
    if s < 0:
        raise ValueError("s must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    return GradedDimZ2(s + n, s)

"""Legendrian (tb, r) bookkeeping: reachable rotation numbers and Chern counts.

A stabilization sends (tb, r) to (tb - 1, r +/- 1), so tb + r stays odd.
Stabilizing down to a target tb realizes an arithmetic progression of
rotation numbers; together with their conjugates (r -> -r) these count
Stein structures on the surgery trace with distinct first Chern classes.
"""

from __future__ import annotations

from collections import namedtuple


class LegendrianRep(namedtuple("LegendrianRep", "tb r")):
    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # so that _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if (self.tb + self.r) % 2 == 0:
            raise ValueError(f"tb + r must be odd, got tb={self.tb}, r={self.r}")
        return self


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


"""Constraint-propagation re-derivation of the surgery dimension formulas.

Instead of evaluating the closed forms, this solver starts from interval
bounds [lo, hi] on the graded dimensions at every surgery slope and
propagates six constraint families to a fixpoint:

  C1  base: at the L-space slope m the dimensions are (m, 0)
  C2  anchor: the unsurgered manifold contributes total dimension 1
  C3  euler characteristic: d0 - d1 = |n| at slope n
  C4  triangle: each of the totals at (infinity, n, n+1) is at most the
      sum of the other two
  C5  adjunction vanishing: for n - 1 >= 2g - 1 the total at n equals the
      total at n - 1 plus 1
  C6  Stein fillings: at slope -n (n >= 1), at least (2g-1) + n in
      grading 0 and 2g-1 in grading 1

Each slope carries three intervals: grading-0, grading-1, and the total
dimension.  C4 and C5 touch totals only; C3 moves information between the
totals and the graded entries (the euler relation makes the total
determine both gradings).  When every interval collapses the result
reproduces the closed-form answer; open intervals or crossed bounds are
reported, never guessed.

Without C2 the anchor total is only known to lie in [0, infinity), and
then no triangle sum of C4 bounds anything, so dropping C2 switches C4
off as well.

Every constraint only narrows intervals, so propagation reaches the same
fixpoint whatever order the constraints are applied in (Apt, "The essence
of constraint propagation", 1999).  The solver is free to pick the order
for speed: it sweeps the slopes upward, then downward, and so on.  C4 and
C5 carry bounds between neighbouring slopes in both directions, so a
one-way sweep moves information against its own direction by only one
slope per sweep and needs about (m + R) sweeps, O(R^2) applications, on
the range [-R, R].  Alternating sweeps carry each chain end to end in one
pass, and a solve takes about 4 sweeps at any range.

Most visits in the later sweeps would change nothing, and the solver skips
them: every constraint at slope n reads and writes only slopes n-1..n+1,
so a visit to n is skipped when no bound in that window changed since the
previous visit to n began (Apt's chaotic iteration re-applies only
functions whose inputs changed).  Bounds, trace, sweeps and contradictions
are exactly those of the unskipped sweeps; about 3 visits per slope run.

A visit applies C3, C4, C5 and C6 at its slope, in that order, in one loop
body (`_apply`) that states each rule once.  Most candidate bounds a rule
computes are no tighter than the bound already there (about four in five
over a typical solve), so an update is called only for a strictly tighter
candidate; the tightenings and their order stay the same.

The trace is built only on request (`build_system(..., trace=True)`, as
the CLI's `--trace` does); by default `trace` stays empty, explain()
refuses the system, and nothing else depends on the choice.

MAX_APPLICATIONS stays a fixed 10**6 and binds from R of about 41k on.  It
is checked once per visit: a visit that would pass it is counted but not
run, so `applications > MAX_APPLICATIONS` holds exactly when the cap
stopped a solve.  The first sweep visits every slope, so a range whose
padded slopes times active constraints exceed the cap can never finish;
the system refuses it with ValueError before allocating any bounds (from
R = 124,998 on with four constraints).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .graded import GradedDimZ2

MAX_APPLICATIONS = 10**6

CONSTRAINT_IDS = ("C1", "C2", "C3", "C4", "C5", "C6")

# Index of the total-dimension interval in a slope's bound triple.
TOTAL = 2

# Slopes of padding past each end of the slope range.
PAD = 2


class ContradictionError(Exception):
    """A bound crossed (lo > hi); carries the system, with its trace if it
    was built with one."""

    def __init__(self, message, system=None):
        super().__init__(message)
        self.system = system


class NotDeterminedError(Exception):
    """Fixpoint reached with open intervals; carries the open slopes."""

    def __init__(self, message, slopes, system=None):
        super().__init__(message)
        self.slopes = list(slopes)
        self.system = system


@dataclass(slots=True)
class DimInterval:
    lo: int = 0
    hi: Optional[int] = None  # None = unbounded above

    def __post_init__(self):
        if self.lo < 0:
            raise ValueError("lo must be nonnegative")
        if self.hi is not None and self.hi < self.lo:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def pinned(self) -> bool:
        return self.hi is not None and self.lo == self.hi


@dataclass(slots=True)
class TraceEntry:
    constraint: str          # one of C1..C6
    slope: int               # slope whose bound changed
    grading: int             # 0, 1, or 2 for the total-dimension interval
    bound: str               # "lo" or "hi"
    value: int
    consumed: tuple          # slopes whose bounds were read ("inf" = anchor)

    def to_dict(self) -> dict:
        return {
            "constraint": self.constraint,
            "slope": self.slope,
            "grading": self.grading,
            "bound": self.bound,
            "value": self.value,
            "consumed": list(self.consumed),
        }


@dataclass
class ConstraintSystem:
    genus: int
    lspace_slope: int
    lo_slope: int
    hi_slope: int
    dropped: frozenset = frozenset()
    traced: bool = False     # record every tightening in `trace`
    bounds: dict = field(init=False, default_factory=dict)
    trace: list = field(init=False, default_factory=list)
    applications: int = field(init=False, default=0)
    sweeps: int = field(init=False, default=0)
    solved: bool = field(init=False, default=False)

    def __post_init__(self):
        if self.genus < 1:
            raise ValueError("genus must be >= 1")
        if self.lspace_slope < 2 * self.genus - 1:
            raise ValueError(
                f"lspace_slope must be >= 2g-1 = {2 * self.genus - 1}"
            )
        if self.lo_slope > self.hi_slope:
            raise ValueError("empty slope range")
        bad = self.dropped - set(CONSTRAINT_IDS)
        if bad:
            raise ValueError(f"unknown constraint ids: {sorted(bad)}")
        # Pad so that boundary slopes still sit inside triangles, so the base
        # slope is always present, and so a negative slope is, where C6 holds.
        self._lo = min(self.lo_slope, self.lspace_slope, 0) - PAD
        self._hi = max(self.hi_slope, self.lspace_slope) + PAD
        # The first sweep applies every active constraint at every slope, so a
        # range this wide is sure to hit the cap; refuse it before allocating.
        work = (self._hi - self._lo + 1) * sum(self._active())
        if work > MAX_APPLICATIONS:
            raise ValueError(
                f"slope range too wide: one sweep needs {work} applications, "
                f"more than the cap of {MAX_APPLICATIONS}"
            )
        for n in range(self._lo, self._hi + 1):
            self.bounds[n] = [DimInterval(), DimInterval(), DimInterval()]
        # Tick of each slope's last bound change, one slope past each end so
        # that every window n-1..n+1 that _apply checks exists.
        self._changed_at = dict.fromkeys(range(self._lo - 1, self._hi + 2), 0)
        self._tick = 0

    # -- bound updates ----------------------------------------------------
    #
    # C3-C6 call these only with a strictly tighter candidate; the helpers
    # still check, so a call that does not tighten is a no-op.  A lower
    # bound is never negative, so `value > iv.lo` also implies `value > 0`.

    def _raise_lo(self, slope, grading, value, cname, consumed) -> bool:
        iv = self.bounds[slope][grading]
        if value <= iv.lo:
            return False
        if self.traced:
            self.trace.append(TraceEntry(cname, slope, grading, "lo", value, consumed))
        if iv.hi is not None and value > iv.hi:
            raise ContradictionError(
                f"{cname}: lower bound {value} exceeds upper bound {iv.hi} "
                f"at slope {slope} (grading {grading})",
                system=self,
            )
        iv.lo = value
        self._tick += 1
        self._changed_at[slope] = self._tick
        return True

    def _lower_hi(self, slope, grading, value, cname, consumed) -> bool:
        iv = self.bounds[slope][grading]
        if iv.hi is not None and value >= iv.hi:
            return False
        if self.traced:
            self.trace.append(TraceEntry(cname, slope, grading, "hi", value, consumed))
        if value < iv.lo:
            raise ContradictionError(
                f"{cname}: upper bound {value} drops below lower bound "
                f"{iv.lo} at slope {slope} (grading {grading})",
                system=self,
            )
        iv.hi = value
        self._tick += 1
        self._changed_at[slope] = self._tick
        return True

    # -- constraints ------------------------------------------------------
    #
    # Each returns whether it changed a bound.  C3-C6 are stated once, in
    # _apply; _c3-_c6 apply one of them at one slope.

    def _c1(self, n) -> bool:
        if n != self.lspace_slope:
            return False
        m = self.lspace_slope
        changed = self._raise_lo(n, 0, m, "C1", ())
        changed |= self._lower_hi(n, 0, m, "C1", ())
        changed |= self._lower_hi(n, 1, 0, "C1", ())
        changed |= self._raise_lo(n, TOTAL, m, "C1", ())
        changed |= self._lower_hi(n, TOTAL, m, "C1", ())
        return changed

    # C2, the total dimension 1 of the unsurgered S^3, enters as the
    # constant anchor in C4's triangle sums.
    _S3_TOTAL = 1

    def _c3(self, n) -> bool:
        return self._apply((n,), True, False, False, False)

    def _c4(self, n) -> bool:
        return self._apply((n,), False, True, False, False)

    def _c5(self, n) -> bool:
        return self._apply((n,), False, False, True, False)

    def _c6(self, n) -> bool:
        return self._apply((n,), False, False, False, True)

    def _apply(self, slopes, c3, c4, c5, c6, visited=None) -> bool:
        """Visit each slope in turn and apply the flagged constraints among
        C3-C6 there, in that order; returns whether any bound changed.
        With `visited` (slope -> tick when its last visit began), skip a
        visit whose window n-1..n+1 has no bound change newer than that.  Each
        constraint run counts one application; a visit that would take
        `applications` past MAX_APPLICATIONS is counted but not run, and
        ends the call."""
        bounds = self.bounds
        raise_lo = self._raise_lo
        lower_hi = self._lower_hi
        changed_at = self._changed_at
        s = 2 * self.genus - 1
        top = self._hi
        s3 = self._S3_TOTAL
        per_visit = c3 + c4 + c5 + c6
        start = self._tick
        applications = self.applications
        try:
            for n in slopes:
                if visited is not None:
                    seen = visited[n]
                    if changed_at[n - 1] <= seen and changed_at[n] <= seen and changed_at[n + 1] <= seen:
                        continue
                    visited[n] = self._tick
                if applications + per_visit > MAX_APPLICATIONS:
                    applications += per_visit
                    break
                d0, d1, t = bounds[n]
                if c3:
                    applications += 1
                    k = abs(n)
                    # pairwise euler coupling: d0 = d1 + k
                    v = d1.lo + k
                    if v > d0.lo:
                        raise_lo(n, 0, v, "C3", (n,))
                    if d1.hi is not None:
                        v = d1.hi + k
                        if d0.hi is None or v < d0.hi:
                            lower_hi(n, 0, v, "C3", (n,))
                    v = d0.lo - k
                    if v > d1.lo:
                        raise_lo(n, 1, v, "C3", (n,))
                    if d0.hi is not None:
                        v = max(d0.hi - k, 0)
                        if d1.hi is None or v < d1.hi:
                            lower_hi(n, 1, v, "C3", (n,))
                    # total = 2*d1 + k = 2*d0 - k
                    v = 2 * d1.lo + k
                    if v > t.lo:
                        raise_lo(n, TOTAL, v, "C3", (n,))
                    if d1.hi is not None:
                        v = 2 * d1.hi + k
                        if t.hi is None or v < t.hi:
                            lower_hi(n, TOTAL, v, "C3", (n,))
                    v = -((k - t.lo) // 2)  # ceil((t.lo - k) / 2)
                    if v > d1.lo:
                        raise_lo(n, 1, v, "C3", (n,))
                    if t.hi is not None:
                        v = max((t.hi - k) // 2, 0)
                        if d1.hi is None or v < d1.hi:
                            lower_hi(n, 1, v, "C3", (n,))
                    v = -((-t.lo - k) // 2)  # ceil((t.lo + k) / 2)
                    if v > d0.lo:
                        raise_lo(n, 0, v, "C3", (n,))
                    if t.hi is not None:
                        v = (t.hi + k) // 2
                        if d0.hi is None or v < d0.hi:
                            lower_hi(n, 0, v, "C3", (n,))
                if c4:
                    applications += 1
                    # Triangle (infinity, n, n+1): each total <= sum of the others.
                    if n < top:
                        u = bounds[n + 1][TOTAL]
                        for a, ta, b, tb in ((n, t, n + 1, u), (n + 1, u, n, t)):
                            if tb.hi is not None:
                                v = tb.hi + s3
                                if ta.hi is None or v < ta.hi:
                                    lower_hi(a, TOTAL, v, "C4", (b, "inf"))
                                v = s3 - tb.hi
                                if v > ta.lo:
                                    raise_lo(a, TOTAL, v, "C4", (b, "inf"))
                            v = tb.lo - s3
                            if v > ta.lo:
                                raise_lo(a, TOTAL, v, "C4", (b, "inf"))
                if c5:
                    applications += 1
                    # Adjunction: total(n) = total(n-1) + 1 once n - 1 >= 2g - 1 > 0.
                    if n > s:
                        prev = bounds[n - 1][TOTAL]
                        if prev.hi is not None:
                            v = prev.hi + 1
                            if t.hi is None or v < t.hi:
                                lower_hi(n, TOTAL, v, "C5", (n - 1,))
                        v = prev.lo + 1
                        if v > t.lo:
                            raise_lo(n, TOTAL, v, "C5", (n - 1,))
                        if t.hi is not None:
                            v = t.hi - 1
                            if prev.hi is None or v < prev.hi:
                                lower_hi(n - 1, TOTAL, v, "C5", (n,))
                        v = t.lo - 1
                        if v > prev.lo:
                            raise_lo(n - 1, TOTAL, v, "C5", (n,))
                if c6:
                    applications += 1
                    if n < 0:
                        if s - n > d0.lo:
                            raise_lo(n, 0, s - n, "C6", ())
                        if s > d1.lo:
                            raise_lo(n, 1, s, "C6", ())
        finally:
            self.applications = applications
        return self._tick != start

    # -- driver -----------------------------------------------------------

    def _active(self) -> tuple:
        """Whether each of C3-C6 is active; dropping C2 drops C4, whose sums read it."""
        dropped = self.dropped | ({"C4"} if "C2" in self.dropped else set())
        return tuple(cname not in dropped for cname in ("C3", "C4", "C5", "C6"))

    def _steps(self) -> list:
        """The active constraints among C3-C6 as one-slope calls, in order."""
        steps = (self._c3, self._c4, self._c5, self._c6)
        return [step for step, on in zip(steps, self._active()) if on]

    def solve(self) -> dict:
        """Propagate to a fixpoint; returns {slope: GradedDimZ2} over the
        requested range.  Raises ContradictionError or NotDeterminedError.

        The sweeps alternate direction over the slopes, ascending first.
        The fixpoint does not depend on the order, but a one-way sweep
        carries bounds against its direction by one slope per sweep; the
        alternation brings a solve down to about 4 sweeps at any range.

        Each sweep is one `_apply` call, one fused C3-C6 visit per slope,
        skipping a visit to n when no slope in n-1..n+1 changed a bound
        since the previous visit to n began: that visit changed nothing in
        the window every constraint at n reads, so the skipped one would
        change nothing either.  `applications` counts the applications that
        ran, `sweeps` the sweeps, including the last one that changed
        nothing.  The cap is checked once per visit, so a visit runs whole
        or not at all.

        With trace=True every tightening appends a TraceEntry to `trace`,
        in order; nothing else depends on the choice."""
        # C1 is a base fact with no dependencies; seed it before the
        # round-robin so the base slope's trace starts from it.
        if "C1" not in self.dropped:
            self._c1(self.lspace_slope)
        active = self._active()
        order = list(range(self._lo, self._hi + 1))
        visited = dict.fromkeys(order, -1)  # tick when the last visit began
        while True:
            self.sweeps += 1
            changed = self._apply(order, *active, visited=visited)
            capped = self.applications > MAX_APPLICATIONS
            if capped or not changed:
                break
            order.reverse()
        self.solved = True
        open_slopes = [
            n
            for n in range(self.lo_slope, self.hi_slope + 1)
            if not (self.bounds[n][0].pinned() and self.bounds[n][1].pinned())
        ]
        if open_slopes:
            reason = "application cap reached" if capped else "fixpoint reached"
            raise NotDeterminedError(
                f"{reason} with open intervals at slopes {open_slopes}",
                open_slopes,
                system=self,
            )
        return {
            n: GradedDimZ2(self.bounds[n][0].lo, self.bounds[n][1].lo)
            for n in range(self.lo_slope, self.hi_slope + 1)
        }


def build_system(g, m, slope_range, drop=(), trace=False) -> ConstraintSystem:
    lo, hi = slope_range
    return ConstraintSystem(
        genus=g,
        lspace_slope=m,
        lo_slope=lo,
        hi_slope=hi,
        dropped=frozenset(drop),
        traced=trace,
    )


def solve(g, m, slope_range, drop=()) -> dict:
    """Re-derive dims at every slope in slope_range for a genus-g knot with
    L-space slope m, from constraints C1-C6 alone."""
    return build_system(g, m, slope_range, drop=drop).solve()


def explain(system: ConstraintSystem, slope: int) -> list:
    """Trace entries that tightened the bounds at the given slope, in order.
    The system must have been built with trace=True and solved."""
    if not system.solved:
        raise ValueError("solve has not run on this system")
    if not system.traced:
        raise ValueError("system was built without a trace (trace=False)")
    if slope not in system.bounds:
        raise ValueError(f"slope {slope} outside system range")
    return [e for e in system.trace if e.slope == slope]


def solve_trefoil_family(n_max: int) -> dict:
    """Re-derive the 1/n-surgery dimensions on the right-handed trefoil.

    Base case n=1 comes from the integral solver; the induction couples the
    triangle with the total-dimension-2 zero-surgery term against the Stein
    lower bound of 2n-1 with n-1 in grading 1.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    base = solve(1, 5, (0, 1))
    zero_total = base[0].total()  # 2
    result = {1: base[1]}
    for n in range(2, n_max + 1):
        prev_total = result[n - 1].total()
        # Triangle (1/n, 1/(n-1), 0): total can grow by at most zero_total.
        hi_total = prev_total + zero_total
        # Stein fillings: n-1 independent classes in grading 1; euler
        # characteristic 1 puts one more in grading 0.
        lo0, lo1 = n, n - 1
        if lo0 + lo1 > hi_total:
            raise ContradictionError(
                f"trefoil family: lower bound {lo0 + lo1} exceeds triangle "
                f"upper bound {hi_total} at n={n}"
            )
        # Totals have the parity of euler characteristic 1, so the only
        # candidates in [2n-1, hi_total] are 2n-1 (pinned) or 2n+1 (open).
        if hi_total >= lo0 + lo1 + 2:
            raise NotDeterminedError(
                f"trefoil family: total at n={n} only bounded in "
                f"[{lo0 + lo1}, {hi_total}]",
                [n],
            )
        result[n] = GradedDimZ2(lo0, lo1)
    return result

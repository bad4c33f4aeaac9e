"""Constraint-propagation re-derivation of the surgery dimension formulas.

Instead of evaluating the closed forms, this solver starts from interval
bounds [lo, hi] on the graded dimensions at every surgery slope and
propagates constraints to a fixpoint.  C1 and C2 are data; C3-C6 are the
rules:

  C1  base: the L-space slope m has total dimension m; C3 splits it (m, 0)
  C2  anchor: the unsurgered manifold contributes total dimension 1
  C3  euler characteristic: d0 - d1 = |n| at slope n
  C4  triangle: each of the totals at (infinity, n, n+1) is at most the
      sum of the other two; the anchor's own leg is left out (see below)
  C5  adjunction vanishing: for n - 1 >= 2g - 1 the total at n equals the
      total at n - 1 plus 1
  C6  Stein fillings: at slope -n (n >= 1), at least (2g-1) + n in
      grading 0: one contact class per Stein filling, all homogeneous in
      one grading.  Grading 1's 2g-1 follows by C3 (d1 = d0 - n).

Each slope carries three intervals: grading-0, grading-1, and the total
dimension.  C4 and C5 touch totals only; C3 moves information between the
totals and the graded entries (the euler relation makes the total
determine both gradings).  When every interval collapses the result
reproduces the closed-form answer; open intervals or crossed bounds are
reported, never guessed.

C1 is the starting state: `solve` pins the base total before the first
sweep, and every other bound starts at [0, infinity).  C2 is the constant
anchor in C4's sums.  Without C2 the anchor total is only known to lie in
[0, infinity), and then no triangle sum of C4 bounds anything, so dropping
C2 switches C4 off as well.

Every rule only narrows intervals, so propagation reaches the same
fixpoint whatever order the rules are applied in (Apt, "The essence
of constraint propagation", 1999).  The solver is free to pick the order
for speed: it sweeps the slopes upward, then downward, and so on.  C4 and
C5 carry bounds between neighbouring slopes in both directions, so a
one-way sweep moves information against its own direction by only one
slope per sweep and needs about (m + R) sweeps, O(R^2) applications, on
the range [-R, R].  Alternating sweeps carry each chain end to end in one
pass.

Most visits in the later sweeps would change nothing, and the solver skips
them: every rule at slope n reads and writes only slopes n-1..n+1,
so a visit to n is skipped when no bound in that window changed since the
previous visit to n began (Apt's chaotic iteration re-applies only
functions whose inputs changed).  Bounds, trace, sweeps and contradictions
are exactly those of the unskipped sweeps.

The work is affine in the range.  Measured (g 1..6, m 2g-1..2g+30, ranges
[lo, hi] with lo <= -1 and hi >= m; tests/test_oracle.py), one slope more
below lo and one more above hi add these applications and trace entries,
and a solve takes the sweeps shown:

  drop      below lo   above hi        sweeps
  none      16, 8      8, 6            4
  C1        12, 5      8, 3            4
  C2, C4     9, 5      9, 5            3
  C3         9, 2      6, 2 or 3       3
  C5        12, 8      6, 6            4
  C6        12, 5      6, 6            4

Without drops the constant is measured too: 56 + 8g + 4m - 16 lo + 8 hi
applications, and 35 + 6g + 6m - max(0, 2g+1-m) + 8(-1-lo) + 6(hi-m) trace
entries, plus 1 when g = 1 and m <= 2.

A visit applies C3, C4, C5 and C6 at its slope, in that order, in one loop
body (`_apply`) that states each rule once.  Most candidate bounds a rule
computes are no tighter than the bound already there (about four in five
over a typical solve), so only a strictly tighter one is stored.  The
visit holds the bounds it works on in locals, and the rule stores a new
bound into `lo`/`hi` and the local alike; it calls `_check`, which appends
the trace entry or raises, only in a traced solve or for a bound that
crosses the opposite one.  The tightenings and their order are
the same either way.

`solve` keeps one due flag per slope, Apt's set of functions still to
apply.  Every slope starts due, so the C1 seed needs no argument.  A visit
to a slope that is not due is skipped; any other visit clears its flag when
it begins, and when it ends marks due the window of each slope it changed
(n, n+1 through C4, n-1 through C5).  Marking once, at the end, is exact:
the flags are read only when a visit begins, and no visit begins between
a change and the end of the visit that made it.

About one visit in three still finds its slope settled, and two rule
checks are skipped where no candidate can be tighter than its bound:

  C3 at slope n, when d0, d1 and the total are pinned at a, b and t with
     a = b + |n| and t = a + b.  Then t = 2b + |n| = 2a - |n|, and each of
     the rule's six candidates (d0 - |n| and 2*d1 + |n| at lo, and the
     halves (t -+ |n|) / 2 at lo and at hi) equals the a, b or t it is
     compared with.
  C4 at (n, n+1), when both totals are pinned at t and u with |t - u| <= 1.
     Then the upper candidate u + 1 is at least t, and the lower one u - 1
     is at most t; the same holds with t and u swapped.

So a skipped check would change no bound, add no trace entry and mark no
slope due; it still counts as an application.  Any other state runs the
full rule, so a pinned but inconsistent slope or pair still raises
ContradictionError.

C3's upper bounds come only from the total's, as (t.hi -+ |n|) / 2: no
state a solve reaches lets d1.hi + |n|, d0.hi - |n| or 2*d1.hi + |n|
tighten anything, and a reduction that narrows no reachable state leaves
the fixpoint unchanged (Apt).  Only those two halves write d0.hi and
d1.hi, always as a pair with d0.hi = d1.hi + |n|.  Only C1, C4 and C5
write a total's hi, each with the parity of |n| (C4 and C5 step by 1 to a
neighbour), so the halves are exact and store both or neither.  So a
stored d1.hi is (t.hi - |n|) / 2, and t.hi only falls after that.

C3's d0.lo comes from the total too, as ceil((t.lo + |n|) / 2); the
candidate d1.lo + |n| never tightens a reachable state.  Only C3 writes
d1.lo: as d0.lo - |n|, which that candidate turns back into d0.lo, or as
ceil((t.lo - |n|) / 2), after which the same application stores d0.lo >=
ceil((t.lo + |n|) / 2), exactly that d1.lo + |n|.  From the starting
d1.lo = 0, its 2*d1.lo + |n| and ceil((t.lo + |n|) / 2) give d0.lo >= |n|.
So every C3 application ends with d0.lo >= d1.lo + |n|; d0.lo never falls.

C4 states only its two difference legs, between the totals at n and n+1;
its anchor leg, t.lo <- 1 - u.hi for a neighbour's total u, would never
tighten a reachable state either.  Every finite total upper bound starts
at C1's m >= 2g - 1 = s, then moves only by C4 (+1 to a neighbour) and C5
(+1 upward, or -1 downward onto a slope >= s), and C3 never writes one.
Along any chain of such steps hi >= x at a slope x >= s, and hi >= 2s - x
>= 2 below s.  So 1 - u.hi <= 0 <= t.lo.

A solve has no work budget; `solve` shows that it ends.  Only the width
of the padded slope range is limited, by MAX_APPLICATIONS (from R = 124,998
on), whatever `drop` holds.
"""

from __future__ import annotations

from collections import namedtuple

from .graded import GradedDimZ2

MAX_APPLICATIONS = 10**6

CONSTRAINT_IDS = ("C1", "C2", "C3", "C4", "C5", "C6")

# Index of the total-dimension interval in a slope's bound triple.
TOTAL = 2

# Intervals per slope in the flat bound arrays: the bounds of grading 0, 1
# or TOTAL at slope n sit at STRIDE * (n - first padded slope) + grading.
STRIDE = 3

# Slopes of padding past each end of the slope range.
PAD = 2


class ContradictionError(Exception):
    """A bound crossed (lo > hi)."""


class NotDeterminedError(Exception):
    """Fixpoint reached with open intervals; carries the open slopes."""

    def __init__(self, message, slopes):
        super().__init__(message)
        self.slopes = list(slopes)


class TraceEntry(namedtuple("TraceEntry", "constraint slope grading bound value consumed")):
    """A tightening: constraint (C1..C6), slope, grading (2 = total), bound
    ("lo" or "hi"), new value, and the slopes read ("inf" = anchor)."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {**self._asdict(), "consumed": list(self.consumed)}


class ConstraintSystem:
    """Interval bounds at every padded slope, and the rules that narrow them,
    for a genus-g knot with L-space slope m over slope_range = (lo, hi),
    with the constraint ids in `drop` left out.

    The bounds live in two flat lists, `lo` and `hi` (None = unbounded
    above), with STRIDE entries per slope: grading 0, grading 1 and the
    total, slopes ascending from the first padded one.  `bounds` gives
    them as {slope: [d0, d1, total]} of (lo, hi) pairs, built afresh on
    each access; writing into that copy changes nothing.
    """

    def __init__(self, genus, lspace_slope, slope_range, drop=(), trace=False):
        lo_slope, hi_slope = slope_range
        if genus < 1:
            raise ValueError("genus must be >= 1")
        if lspace_slope < 2 * genus - 1:
            raise ValueError(f"lspace_slope must be >= 2g-1 = {2 * genus - 1}")
        if lo_slope > hi_slope:
            raise ValueError("empty slope range")
        self.dropped = frozenset(drop)
        bad = self.dropped - set(CONSTRAINT_IDS)
        if bad:
            raise ValueError(f"unknown constraint ids: {sorted(bad)}")
        self.genus = genus
        self.lspace_slope = lspace_slope
        self.lo_slope = lo_slope
        self.hi_slope = hi_slope
        self.traced = trace      # record every tightening in `trace`
        self.trace = []
        self.applications = 0
        self.sweeps = 0
        # Pad so that boundary slopes still sit inside triangles, so the base
        # slope is always present, and so a negative slope is, where C6 holds.
        self._lo = min(lo_slope, lspace_slope, 0) - PAD
        self._hi = max(hi_slope, lspace_slope) + PAD
        # Refuse, before allocating, a range whose full sweep of four rules a
        # padded slope would pass MAX_APPLICATIONS; drops do not shrink that.
        width = self._hi - self._lo + 1
        if 4 * width > MAX_APPLICATIONS:
            raise ValueError(f"slope range too wide: {width} padded slopes, more than {MAX_APPLICATIONS // 4}")
        size = STRIDE * width
        self.lo = [0] * size
        self.hi = [None] * size

    @property
    def bounds(self) -> dict:
        pairs = list(zip(self.lo, self.hi))
        return {self._lo + p: pairs[STRIDE * p:STRIDE * (p + 1)] for p in range(len(pairs) // STRIDE)}

    # -- bound updates ----------------------------------------------------
    #
    # A rule stores a strictly tighter bound into `lo`/`hi` itself, and its
    # visit marks the slope's window due when it ends.  Before storing,
    # the rule calls `_check` when the solve is traced or the new bound
    # crosses the opposite one, and the C1 seed calls it for both of its
    # bounds; it is the only code that appends a TraceEntry or raises
    # ContradictionError.  It takes a flat index into `lo`/`hi`, whose
    # entries are current at every call, and the bound ("lo" or "hi") that
    # `value` would replace.  A lower bound is never negative, so
    # `value > lo[i]` also implies `value > 0`.

    def _check(self, i, bound, value, cname, consumed):
        p, grading = divmod(i, STRIDE)
        slope = self._lo + p
        if self.traced:
            self.trace.append(TraceEntry(cname, slope, grading, bound, value, consumed))
        lo, hi = (value, self.hi[i]) if bound == "lo" else (self.lo[i], value)
        if hi is not None and lo > hi:
            crossing = (f"lower bound {lo} exceeds upper bound {hi}" if bound == "lo"
                        else f"upper bound {hi} drops below lower bound {lo}")
            raise ContradictionError(f"{cname}: {crossing} at slope {slope} (grading {grading})")

    # C2, the total dimension 1 of the unsurgered S^3, enters as the
    # constant anchor in C4's triangle sums.
    _S3_TOTAL = 1

    def _apply(self, slopes, c3, c4, c5, c6, due) -> bool:
        """Visit each slope in turn and apply the flagged constraints among
        C3-C6 there, in that order; returns whether any bound changed.
        `due` holds slope n's flag at n - _lo + 1: one entry past each end,
        so that every window n-1..n+1 a visit marks is in the list (a
        negative index would wrap silently).  A visit counts one
        application per flagged rule when it starts; its skips, locals and
        marks are as the module docstring says, and a ContradictionError
        leaves its window unmarked, ending the solve."""
        lo = self.lo
        hi = self.hi
        traced = self.traced
        check = self._check
        s = 2 * self.genus - 1
        first = self._lo
        top = self._hi
        s3 = self._S3_TOTAL
        per_visit = c3 + c4 + c5 + c6
        changed = False
        applications = self.applications
        try:
            for n in slopes:
                p = n - first
                if not due[p + 1]:
                    continue
                due[p + 1] = False
                applications += per_visit
                i0 = STRIDE * p  # d0; d1 and the total follow
                i1 = i0 + 1
                it = i0 + TOTAL
                # Bounds of d0, d1 and the total at n; whether n, n+1, n-1 changed.
                l0, l1, lt = lo[i0], lo[i1], lo[it]
                h0, h1, ht = hi[i0], hi[i1], hi[it]
                cn = cu = cp = False
                if c3:
                    k = abs(n)
                    if not (h0 == l0 and h1 == l1 and ht == lt and l0 == l1 + k and lt == l0 + l1):
                        # euler coupling d0 = d1 + k; d0.lo and upper bounds from the total
                        v = l0 - k
                        if v > l1:
                            if traced or (h1 is not None and v > h1):
                                check(i1, "lo", v, "C3", (n,))
                            lo[i1] = l1 = v
                            cn = True
                        # total = 2*d1 + k = 2*d0 - k
                        v = 2 * l1 + k
                        if v > lt:
                            if traced or (ht is not None and v > ht):
                                check(it, "lo", v, "C3", (n,))
                            lo[it] = lt = v
                            cn = True
                        v = -((k - lt) // 2)  # ceil((t.lo - k) / 2)
                        if v > l1:
                            if traced or (h1 is not None and v > h1):
                                check(i1, "lo", v, "C3", (n,))
                            lo[i1] = l1 = v
                            cn = True
                        # (t.hi - k) // 2 needs no max(., 0): the step from 2*d1 + k
                        # left lo[it] >= k, and a store that would cross raises, so
                        # hi[it] >= lo[it] >= k.
                        if ht is not None:
                            v = (ht - k) // 2
                            if h1 is None or v < h1:
                                if traced or v < l1:
                                    check(i1, "hi", v, "C3", (n,))
                                hi[i1] = h1 = v
                                cn = True
                        v = -((-lt - k) // 2)  # ceil((t.lo + k) / 2)
                        if v > l0:
                            if traced or (h0 is not None and v > h0):
                                check(i0, "lo", v, "C3", (n,))
                            lo[i0] = l0 = v
                            cn = True
                        if ht is not None:
                            v = (ht + k) // 2
                            if h0 is None or v < h0:
                                if traced or v < l0:
                                    check(i0, "hi", v, "C3", (n,))
                                hi[i0] = h0 = v
                                cn = True
                if c4:
                    # Triangle (infinity, n, n+1): each total <= sum of the others.
                    if n < top:
                        iu = it + STRIDE
                        lu, hu = lo[iu], hi[iu]
                        if not (ht == lt and hu == lu and -s3 <= lt - lu <= s3):
                            # The total at n from the total at n+1 ...
                            if hu is not None:
                                v = hu + s3
                                if ht is None or v < ht:
                                    if traced or v < lt:
                                        check(it, "hi", v, "C4", (n + 1, "inf"))
                                    hi[it] = ht = v
                                    cn = True
                            v = lu - s3
                            if v > lt:
                                if traced or (ht is not None and v > ht):
                                    check(it, "lo", v, "C4", (n + 1, "inf"))
                                lo[it] = lt = v
                                cn = True
                            # ... then the total at n+1 from the total at n.
                            if ht is not None:
                                v = ht + s3
                                if hu is None or v < hu:
                                    if traced or v < lu:
                                        check(iu, "hi", v, "C4", (n, "inf"))
                                    hi[iu] = hu = v
                                    cu = True
                            v = lt - s3
                            if v > lu:
                                if traced or (hu is not None and v > hu):
                                    check(iu, "lo", v, "C4", (n, "inf"))
                                lo[iu] = lu = v
                                cu = True
                if c5:
                    # Adjunction: total(n) = total(n-1) + 1 once n - 1 >= 2g - 1 > 0.
                    if n > s:
                        ip = it - STRIDE
                        lp, hp = lo[ip], hi[ip]
                        if hp is not None:
                            v = hp + 1
                            if ht is None or v < ht:
                                if traced or v < lt:
                                    check(it, "hi", v, "C5", (n - 1,))
                                hi[it] = ht = v
                                cn = True
                        v = lp + 1
                        if v > lt:
                            if traced or (ht is not None and v > ht):
                                check(it, "lo", v, "C5", (n - 1,))
                            lo[it] = lt = v
                            cn = True
                        if ht is not None:
                            v = ht - 1
                            if hp is None or v < hp:
                                if traced or v < lp:
                                    check(ip, "hi", v, "C5", (n,))
                                hi[ip] = hp = v
                                cp = True
                        v = lt - 1
                        if v > lp:
                            if traced or (hp is not None and v > hp):
                                check(ip, "lo", v, "C5", (n,))
                            lo[ip] = lp = v
                            cp = True
                if c6:
                    if n < 0:
                        v = s - n
                        if v > l0:
                            if traced or (h0 is not None and v > h0):
                                check(i0, "lo", v, "C6", ())
                            lo[i0] = l0 = v
                            cn = True
                # A changed slope makes due the three slopes whose windows hold it.
                if cn:
                    due[p] = due[p + 1] = due[p + 2] = changed = True
                if cu:
                    due[p + 1] = due[p + 2] = due[p + 3] = changed = True
                if cp:
                    due[p - 1] = due[p] = due[p + 1] = changed = True
        finally:
            self.applications = applications
        return changed

    # -- driver -----------------------------------------------------------

    def _active(self) -> tuple:
        """Whether each of C3-C6 is active; dropping C2 drops C4, whose sums read it."""
        dropped = self.dropped | ({"C4"} if "C2" in self.dropped else set())
        return tuple(cname not in dropped for cname in ("C3", "C4", "C5", "C6"))

    def _seed_base(self):
        """C1, unless dropped: pin the total at the L-space slope m to m; from
        [0, infinity) and m >= 1 both stores tighten and neither crosses.
        `solve` runs it once, before the first sweep, when every slope is
        due (see the module docstring)."""
        if "C1" in self.dropped:
            return
        m = self.lspace_slope
        i = STRIDE * (m - self._lo) + TOTAL
        self._check(i, "lo", m, "C1", ())
        self._check(i, "hi", m, "C1", ())
        self.lo[i] = self.hi[i] = m

    def solve(self) -> dict:
        """Propagate to a fixpoint; returns {slope: GradedDimZ2} over the
        requested range, in slope order.  Raises ContradictionError or
        NotDeterminedError.

        Each sweep is one `_apply` call, one fused C3-C6 visit per slope;
        the sweeps alternate direction, ascending first, and skip the visits
        whose window has not changed (see the module docstring).
        `applications` counts the applications that ran, `sweeps` the
        sweeps, including the last one that changed nothing.

        It ends with no budget: a rule stores only a strictly tighter bound,
        and each bound changes finitely often.
          (a) An upper-bound candidate is built from upper bounds only (C3
              from the total, C4 and C5 from the other total) or
              from C1's constant, and a store that would put hi below lo >= 0
              raises, so each hi becomes finite at most once, then falls
              through nonnegative ints.
          (b) Lower bounds start at 0 and never pass B(n) = (s + |n|, s,
              2s + |n|), s = 2g - 1: every rule maps bounds under B to
              candidates under B.  C3 is exact on B (B0 = B1 + |n|,
              Bt = B0 + B1); C4 and C5 move a total by +-1 to a neighbour,
              whose |n| differs by 1; C6 proposes exactly B0; C1 pins
              the total m <= Bt.
        Every sweep but the last stores a bound, so the loop ends, and
        NotDeterminedError always means a fixpoint.

        With trace=True every tightening appends a TraceEntry to `trace`,
        in order; nothing else depends on the choice."""
        self._seed_base()
        active = self._active()
        order = list(range(self._lo, self._hi + 1))
        due = [True] * (len(order) + 2)
        while True:
            self.sweeps += 1
            if not self._apply(order, *active, due):
                break
            order.reverse()
        # d0 and d1 of the requested slopes, in slope order.
        a = STRIDE * (self.lo_slope - self._lo)
        b = STRIDE * (self.hi_slope - self._lo + 1)
        slopes = range(self.lo_slope, self.hi_slope + 1)
        lo0, lo1 = self.lo[a:b:STRIDE], self.lo[a + 1:b:STRIDE]
        hi0, hi1 = self.hi[a:b:STRIDE], self.hi[a + 1:b:STRIDE]
        if lo0 != hi0 or lo1 != hi1:
            open_slopes = [n for n, x0, y0, x1, y1 in zip(slopes, lo0, hi0, lo1, hi1)
                           if x0 != y0 or x1 != y1]
            raise NotDeterminedError(
                f"fixpoint reached with open intervals at slopes {open_slopes}",
                open_slopes,
            )
        return dict(zip(slopes, map(GradedDimZ2, lo0, lo1)))


build_system = ConstraintSystem


def solve(g, m, slope_range, drop=()) -> dict:
    """Re-derive dims at every slope in slope_range for a genus-g knot with
    L-space slope m, from constraints C1-C6 alone."""
    return ConstraintSystem(g, m, slope_range, drop).solve()


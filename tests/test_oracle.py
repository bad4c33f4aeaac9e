import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isurg import oracle
from isurg.graded import GradedDimZ2
from isurg.legendrian import LegendrianRep, distinct_chern_count
from isurg.oracle import (
    CONSTRAINT_IDS,
    ContradictionError,
    NotDeterminedError,
    build_system,
    solve,
)
from isurg.planefield import FillingData, contact_grading
from isurg.surgery import dims_z2


def test_base_case_only():
    assert solve(1, 5, (5, 5)) == {5: GradedDimZ2(5, 0)}


def test_genus_one_matches_closed_form():
    r = solve(1, 5, (-10, 10))
    for n in range(-10, 11):
        assert r[n] == dims_z2(1, n)


def test_genus_two_matches_closed_form():
    r = solve(2, 7, (-10, 10))
    for n in range(-10, 11):
        assert r[n] == dims_z2(2, n)


@pytest.mark.parametrize("g", range(1, 7))
@pytest.mark.parametrize("m_offset", ["2g-1", "2g", "2g+5"])
def test_desk_scale_completeness(g, m_offset):
    m = {"2g-1": 2 * g - 1, "2g": 2 * g, "2g+5": 2 * g + 5}[m_offset]
    r = solve(g, m, (-30, 30))
    for n in range(-30, 31):
        assert r[n] == dims_z2(g, n)


def test_precondition_checks():
    with pytest.raises(ValueError):
        solve(2, 2, (-5, 5))  # m < 2g-1
    with pytest.raises(ValueError):
        solve(0, 5, (-5, 5))
    with pytest.raises(ValueError):
        solve(1, 5, (3, -3))
    with pytest.raises(ValueError):
        solve(1, 5, (0, 5), drop={"C9"})


# Open slopes of g=1, m=5, range -10:10 with one constraint dropped.  Without
# the anchor total of S^3 (C2) the triangle sums of C4 bound nothing, so
# dropping either leaves the same slopes open.  C1 pins only the total at
# slope 5, and only the euler relation (C3) splits a total into gradings, so
# without C3 every slope is open, the base slope too.
OPEN_WITHOUT = {
    "C1": list(range(-10, 11)),
    "C2": list(range(-10, 1)),
    "C3": list(range(-10, 11)),
    "C4": list(range(-10, 1)),
    "C5": list(range(-10, 5)),
    "C6": list(range(-10, 1)),
}


@pytest.mark.parametrize("drop", sorted(OPEN_WITHOUT))
def test_drop_matrix_pins_open_slopes(drop):
    with pytest.raises(NotDeterminedError) as exc:
        solve(1, 5, (-10, 10), drop={drop})
    assert exc.value.slopes == OPEN_WITHOUT[drop]


@pytest.mark.parametrize("g", range(1, 7))
def test_dropping_c6_every_tested_pair(g):
    for m in (2 * g - 1, 2 * g, 2 * g + 5):
        with pytest.raises(NotDeterminedError) as exc:
            solve(g, m, (-30, 30), drop={"C6"})
        assert any(s < 0 for s in exc.value.slopes), (g, m)


@pytest.mark.parametrize("g", range(1, 7))
def test_dropping_c5_leaves_slopes_at_or_above_2g_minus_1_open(g):
    for m in (2 * g, 2 * g + 5):
        with pytest.raises(NotDeterminedError) as exc:
            solve(g, m, (-30, 30), drop={"C5"})
        assert any(s >= 2 * g - 1 for s in exc.value.slopes), (g, m)


def test_monotone_trace():
    # Bounds only ever tighten: lower bounds rise, upper bounds fall.
    system = build_system(1, 5, (-10, 10), trace=True)
    system.solve()
    seen = {}
    for e in system.trace:
        key = (e.slope, e.grading, e.bound)
        if key in seen:
            if e.bound == "lo":
                assert e.value > seen[key]
            else:
                assert e.value < seen[key]
        seen[key] = e.value


def test_explain():
    # The trace entries at a slope say which constraints fixed it.
    system = build_system(1, 5, (-10, 10), trace=True)
    system.solve()

    def at(slope):
        return [e for e in system.trace if e.slope == slope]

    # C1 pins the total at the base slope; C3 splits it into (5, 0).
    assert {(e.constraint, e.grading) for e in at(5)} == {("C1", 2), ("C3", 0), ("C3", 1)}
    up = {e.constraint for e in at(6)}
    assert up & {"C4", "C5"}
    assert "C3" in up
    neg = {e.constraint for e in at(-1)}
    assert "C6" in neg
    assert "C4" in neg


@pytest.mark.parametrize("g", range(1, 7))
def test_c1_is_the_starting_state(g):
    # The seed pins the total at the base slope before the first sweep, when
    # every slope is due; a solve's trace starts with its two entries, and no
    # rule names C1 later.
    for m in range(2 * g - 1, 2 * g + 31):
        base = [("C1", m, 2, "lo", m, ()), ("C1", m, 2, "hi", m, ())]
        seeded = build_system(g, m, (-3, 3), trace=True)
        seeded._seed_base()
        assert seeded.trace == base, m
        solved = build_system(g, m, (-3, 3), trace=True)
        solved.solve()
        assert solved.trace[:2] == base, m
        assert all(e.constraint != "C1" for e in solved.trace[2:]), m
        dropped = build_system(g, m, (-3, 3), drop=("C1",), trace=True)
        _outcome(dropped)
        assert all(e.constraint != "C1" for e in dropped.trace), m


def test_contradiction_carries_trace():
    # An impossible base (huge Stein bounds against a tiny L-space total)
    # cannot happen with valid inputs, so force one by shrinking the range
    # onto a manufactured clash: C6 vs a C4 chain from the base.
    system = build_system(1, 5, (-10, 10), trace=True)
    # hi of slope -1, grading 0: below the C6 bound of 3
    system.hi[oracle.STRIDE * (-1 - system._lo)] = 1
    with pytest.raises(ContradictionError):
        system.solve()
    assert system.trace


def _pin(system, n, grading, value):
    i = oracle.STRIDE * (n - system._lo) + grading
    system.lo[i] = system.hi[i] = value


RULES = ("C3", "C4", "C5", "C6")


def _rule(system, *cnames):
    """A call that applies the rules `cnames`, among RULES, at one slope in
    one visit: one rule alone, or all of RULES as the fused visit."""
    flags = [c in cnames for c in RULES]
    # A fresh `due` list with every slope due: no visit is skipped.
    width = len(system.lo) // oracle.STRIDE
    return lambda n: system._apply((n,), *flags, [True] * (width + 2))


def _rules(system):
    """The active constraints among RULES, in order, as (name, one-slope
    call) pairs."""
    return [(c, _rule(system, c)) for c, on in zip(RULES, system._active()) if on]


def _contradiction_messages(pins, rule, slope=3):
    """The ContradictionError text at `slope`, with `pins` ((slope, grading,
    value) triples) set, of the rule `rule` (one of RULES) alone, untraced
    and traced, then of the fused visit of all RULES, untraced and traced.
    Untraced, a crossing bound is caught by the test before the inline
    store; traced, every tightening goes through the helper.  A fused
    visit tests crossings against the bounds it holds in locals, so a
    local left stale by a store shows as a wrong bound or a missed
    crossing."""
    messages = []
    for rules in ((rule,), RULES):
        for trace in (False, True):
            system = build_system(1, 5, (-10, 10), trace=trace)
            for n, grading, value in pins:
                _pin(system, n, grading, value)
            with pytest.raises(ContradictionError) as exc:
                _rule(system, *rules)(slope)
            messages.append(str(exc.value))
    return messages


@pytest.mark.parametrize("d0, d1, total, message", [
    # d0.lo comes only from the total (module docstring), so the crossing
    # shows at the total, from 2 * 0 + 3.
    pytest.param(2, 0, 2, "lower bound 3 exceeds upper bound 2 at slope 3 (grading 2)", id="2-0-2"),
    # C3 gives the total no upper bound from d1 (module docstring), so the
    # crossing shows at d1, from ceil((5 - 3) / 2).
    pytest.param(3, 0, 5, "lower bound 1 exceeds upper bound 0 at slope 3 (grading 1)", id="3-0-5"),
    pytest.param(4, 1, 4, "lower bound 5 exceeds upper bound 4 at slope 3 (grading 2)", id="4-1-4"),
])
def test_pinned_inconsistent_c3_slope_is_a_contradiction(d0, d1, total, message):
    # At slope 3 the euler relation wants d0 = d1 + 3 and total = d0 + d1.
    pins = [(3, grading, value) for grading, value in enumerate((d0, d1, total))]
    # C3 comes first in a fused visit, so that visit raises the same.
    assert _contradiction_messages(pins, "C3") == [f"C3: {message}"] * 4


@pytest.mark.parametrize("t3, t4, message", [
    pytest.param(5, 7, "lower bound 6 exceeds upper bound 5 at slope 3 (grading 2)", id="5-7"),
    pytest.param(7, 5, "upper bound 6 drops below lower bound 7 at slope 3 (grading 2)", id="7-5"),
])
def test_pinned_inconsistent_c4_pair_is_a_contradiction(t3, t4, message):
    # The triangle with the anchor total 1 wants |t3 - t4| <= 1; C4 leaves
    # out 1 <= t3 + t4, which never tightens a reachable state (module
    # docstring).
    pins = [(3, oracle.TOTAL, t3), (4, oracle.TOTAL, t4)]
    alone_untraced, alone_traced, fused_untraced, fused_traced = _contradiction_messages(pins, "C4")
    assert [alone_untraced, alone_traced] == [f"C4: {message}"] * 2
    # A fused visit runs C3 on slope 3 first, which may raise before C4.
    assert fused_untraced == fused_traced


@pytest.mark.parametrize("t2, t3, message", [
    pytest.param(5, 5, "lower bound 6 exceeds upper bound 5 at slope 3 (grading 2)", id="5-5"),
    pytest.param(3, 5, "upper bound 4 drops below lower bound 5 at slope 3 (grading 2)", id="3-5"),
])
def test_pinned_inconsistent_c5_pair_is_a_contradiction(t2, t3, message):
    # With g = 1, adjunction wants t3 = t2 + 1 at slope 3 > 2g - 1.
    pins = [(2, oracle.TOTAL, t2), (3, oracle.TOTAL, t3)]
    # In a fused visit C3 and C4 find nothing to cross, so C5 raises there too.
    assert _contradiction_messages(pins, "C5") == [f"C5: {message}"] * 4


def test_pinned_stein_excess_is_a_contradiction():
    # C6 wants d0 >= (2g - 1) + 3 = 4 at slope -3, above the pinned 2.
    pins = [(-3, 0, 2)]
    alone_untraced, alone_traced, fused_untraced, fused_traced = _contradiction_messages(pins, "C6", -3)
    message = "C6: lower bound 4 exceeds upper bound 2 at slope -3 (grading 0)"
    assert [alone_untraced, alone_traced] == [message] * 2
    # A fused visit runs C3 first, whose d0 >= d1 + 3 crosses already.
    assert fused_untraced == fused_traced == "C3: lower bound 3 exceeds upper bound 2 at slope -3 (grading 0)"


def test_pinned_consistent_checks_change_nothing_and_still_count():
    system = build_system(1, 5, (-10, 10), trace=True)
    for grading, value in enumerate((3, 0, 3)):
        _pin(system, 3, grading, value)
    _pin(system, 4, oracle.TOTAL, 4)
    lo, hi = list(system.lo), list(system.hi)
    assert not _rule(system, "C3")(3)
    assert not _rule(system, "C4")(3)
    assert (system.lo, system.hi, system.trace, system.applications) == (lo, hi, [], 2)


def test_build_holds_no_object_per_bound():
    # Flat lists of small cached ints and None: about 10.7 MiB on CPython 3.11,
    # where an interval object per bound took about 79 MiB.
    tracemalloc.start()
    try:
        build_system(1, 5, (-100000, 100000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _chaotic_fixpoint(system, rng, after_step=lambda cname, n: None):
    """Seed C1, then apply the system's rules in random slope and rule
    orders until no bound changes, calling `after_step("C1", None)` after
    the seed and `after_step(cname, n)` after each application of rule
    `cname` at slope n; independent of solve()'s sweep schedule."""
    system._seed_base()
    after_step("C1", None)
    steps = _rules(system)
    slopes = list(range(system._lo, system._hi + 1))
    for _ in range(2 * len(slopes)):
        changed = False
        rng.shuffle(slopes)
        for n in slopes:
            rng.shuffle(steps)
            for cname, step in steps:
                changed |= step(n)
                after_step(cname, n)
        if not changed:
            return system.lo, system.hi
    raise AssertionError("no fixpoint within the pass limit")


@pytest.mark.parametrize("trace", (False, True))
def test_each_bound_change_marks_its_window_due(trace):
    # The skip rule trusts these marks: a slope left unmarked next to a
    # change could skip a visit that has work to do.  Each step starts with
    # only n due, whose flag the visit clears when it begins; after it, the
    # due slopes are exactly the windows n-1..n+1 of the slopes it changed.
    # Besides each rule alone, a step runs the fused visit of all four, which
    # marks for its changes at n, at n+1 (C4) and at n-1 (C5).
    solved = build_system(2, 5, (-12, 12))
    solved.solve()
    system = build_system(2, 5, (-12, 12), trace=trace)
    system._seed_base()
    steps = [(c, [c == r for r in RULES]) for c in RULES] + [("fused", [True] * len(RULES))]
    slopes = list(range(system._lo, system._hi + 1))
    rng = random.Random(0)
    for _ in range(20000):
        if (system.lo, system.hi) == (solved.lo, solved.hi):
            break
        n, (cname, flags) = rng.choice(slopes), rng.choice(steps)
        due = [False] * (len(slopes) + 2)  # slope position p at p + 1
        due[n - system._lo + 1] = True
        lo, hi = list(system.lo), list(system.hi)
        system._apply((n,), *flags, due)
        changed = {i // oracle.STRIDE for i, bounds in enumerate(zip(lo, hi))
                   if bounds != (system.lo[i], system.hi[i])}
        marked = {q - 1 for q, flag in enumerate(due) if flag}
        assert marked == {p + d for p in changed for d in (-1, 0, 1)}, (n, cname)
    else:
        raise AssertionError("no fixpoint within the step limit")


@pytest.mark.parametrize("g", (1, 2, 3))
@pytest.mark.parametrize("m_offset", (-1, 0, 5))
@pytest.mark.parametrize("drop", ((), ("C1",), ("C2",), ("C3",), ("C4",), ("C5",), ("C6",)))
def test_fixpoint_is_order_independent(g, m_offset, drop):
    m = 2 * g + m_offset
    solved = build_system(g, m, (-25, 25), drop=drop)
    try:
        solved.solve()
    except NotDeterminedError:
        pass
    for seed in range(3):
        driven = build_system(g, m, (-25, 25), drop=drop)
        assert _chaotic_fixpoint(driven, random.Random(seed)) == (solved.lo, solved.hi), seed


def _ceiling(g, n):
    """B(n) of the termination argument in `solve`: no lower bound of d0, d1
    or the total at slope n passes it."""
    s = 2 * g - 1
    return (s + abs(n), s, 2 * s + abs(n))


@pytest.mark.parametrize("drop", [(c,) for c in CONSTRAINT_IDS] + list(itertools.combinations(CONSTRAINT_IDS, 2)) + [()])
def test_lower_bounds_stay_under_the_ceiling(drop):
    # Part (b) of the termination argument: from bounds at 0, every rule in
    # any order keeps each lower bound under B(n), whatever is dropped.  No
    # step removes the closed-form answer either: d0, d1 and the total of
    # `dims_z2` stay inside [lo, hi] at every padded slope.
    for g, m in ((1, 5), (2, 3), (3, 11)):
        system = build_system(g, m, (-12, 12), drop=drop)
        slopes = range(system._lo, system._hi + 1)
        ceiling = [b for n in slopes for b in _ceiling(g, n)]
        truth = [v for n in slopes for v in (*dims_z2(g, n), dims_z2(g, n).total())]

        def under_the_ceiling_and_sound(*_):
            assert all(lo <= b for lo, b in zip(system.lo, ceiling)), (g, m)
            assert all(lo <= v and (hi is None or v <= hi)
                       for lo, hi, v in zip(system.lo, system.hi, truth)), (g, m)

        _chaotic_fixpoint(system, random.Random(repr(drop)), under_the_ceiling_and_sound)


@pytest.mark.parametrize("g", range(1, 7))
def test_closed_forms_satisfy_the_rules(g):
    # C1-C6 as relations on (d0, d1, total) at each slope, checked on
    # `dims_z2` with no solver involved.
    s = 2 * g - 1
    dims = {n: dims_z2(g, n) for n in range(-34, 35)}
    total = {n: d.total() for n, d in dims.items()}
    violations = [("C1", m) for m in range(s, s + 10) if total[m] != m]
    for n in range(-33, 34):
        d0, d1 = dims[n]
        if not (d0 - d1 == abs(n) and total[n] == d0 + d1):
            violations.append(("C3", n))
        if not abs(total[n] - total[n + 1]) <= 1 <= total[n] + total[n + 1]:
            violations.append(("C4", n))
        if n > s and total[n] != total[n - 1] + 1:
            violations.append(("C5", n))
        if n < 0 and d0 < s - n:
            violations.append(("C6", n))
    assert violations == []


def test_c6_is_the_stein_count_in_grading_0():
    # At slope -n, C6 stores s - n (s = 2g - 1): the Stein structures with
    # distinct Chern classes on the trace of Legendrian surgery on a
    # tb = 2g - 1 representative stabilized to tb = 1 - n.  Their contact
    # classes sit in the grading of that trace, chi 2, sigma -1 and b1 0.
    for g in range(1, 30):
        s = 2 * g - 1
        assert [distinct_chern_count(LegendrianRep(s, 0), 1 - n) for n in range(1, 200)] == \
            [s + n for n in range(1, 200)], g
    assert contact_grading(FillingData(2, -1, 0)) == 0
    # So C6 writes grading 0 only, exactly B0; C3 carries grading 1.
    for g in (1, 2, 3):
        for m in (2 * g - 1, 2 * g + 5):
            for k in (0, 1, 2):
                for drop in itertools.combinations(CONSTRAINT_IDS, k):
                    system = build_system(g, m, (-12, 12), drop=drop, trace=True)
                    _outcome(system)
                    c6 = [e for e in system.trace if e.constraint == "C6"]
                    assert all(e.grading == 0 and e.value == _ceiling(g, e.slope)[0] for e in c6), (g, m, drop)
                    assert bool(c6) == ("C6" not in drop), (g, m, drop)


@pytest.mark.parametrize("drop", [()] + [(c,) for c in CONSTRAINT_IDS] + list(itertools.combinations(CONSTRAINT_IDS, 2)))
def test_graded_upper_bounds_follow_the_total(drop):
    # Why C3 takes upper bounds only from the total (module docstring): d0
    # and d1 get upper bounds as a pair with d0 = d1 + |n|, every total upper
    # bound has the parity of |n|, and d1.hi is half of a total hi that has
    # only fallen since, so d1.hi + |n|, d0.hi - |n| and 2 * d1.hi + |n|
    # are never tighter than the bound they would replace.  Every total upper
    # bound is at least 1 too, so C4's left-out anchor legs 1 - t.hi would
    # never raise a lower bound above 0.
    for g, m in ((1, 5), (2, 3), (3, 11)):
        system = build_system(g, m, (-12, 12), drop=drop)

        def paired_by_the_total(*_):
            for p, n in enumerate(range(system._lo, system._hi + 1)):
                h0, h1, ht = system.hi[oracle.STRIDE * p:oracle.STRIDE * (p + 1)]
                k = abs(n)
                assert h0 == h1 is None or h0 == h1 + k, (g, m, n)
                assert ht is None or ht % 2 == k % 2, (g, m, n)
                assert h1 is None or (ht is not None and 2 * h1 + k >= ht), (g, m, n)
                assert ht is None or ht >= 1, (g, m, n)

        _chaotic_fixpoint(system, random.Random(repr(drop)), paired_by_the_total)


@pytest.mark.parametrize("drop", [()] + [d for k in (1, 2) for d in itertools.combinations(CONSTRAINT_IDS, k)
                                          if "C3" not in d])
def test_c3_leaves_d0_at_least_d1_plus_n(drop):
    # Why C3 takes d0.lo only from the total (module docstring): every C3
    # application at n ends with d0.lo >= d1.lo + |n|, and that still holds
    # there after every later step, so the candidate d1.lo + |n| is never
    # tighter than d0.lo.
    for g, m in ((1, 5), (2, 3), (3, 11)):
        system = build_system(g, m, (-12, 12), drop=drop)
        split = set()  # slopes where C3 has run

        def d0_covers_d1_plus_n(cname, n):
            if cname == "C3":
                split.add(n)
            for q in split:
                i0 = oracle.STRIDE * (q - system._lo)
                assert system.lo[i0] >= system.lo[i0 + 1] + abs(q), (g, m, q)

        _chaotic_fixpoint(system, random.Random(repr(drop)), d0_covers_d1_plus_n)


@pytest.mark.parametrize("g", (1, 2, 3))
def test_wide_range_solves_in_a_few_sweeps(g):
    expected = {n: dims_z2(g, n) for n in range(-2000, 2001)}
    system = build_system(g, 2 * g + 5, (-2000, 2000))
    assert system.solve() == expected
    # At most four sweeps of four constraints per slope, of which the
    # skipped visits save at least a fifth.
    assert system.sweeps <= 4
    assert system.applications <= 0.8 * system.sweeps * (len(system.lo) // oracle.STRIDE) * 4
    # With one rule dropped a solve may leave slopes open, but it still
    # reaches its fixpoint within four sweeps.
    for drop in CONSTRAINT_IDS:
        system = build_system(g, 2 * g + 5, (-2000, 2000), drop=(drop,))
        outcome = _outcome(system)
        assert isinstance(outcome, tuple) or outcome == expected, drop
        assert system.sweeps <= 4, drop


def test_a_solve_past_a_million_applications_is_not_cut_short():
    # The solve makes 1,200,084 applications in 4 sweeps, more than
    # MAX_APPLICATIONS: that bounds the width of a range, not the work.
    system = build_system(1, 5, (-50000, 50000))
    assert system.solve() == {n: dims_z2(1, n) for n in range(-50000, 50001)}
    assert system.applications > oracle.MAX_APPLICATIONS
    assert system.sweeps <= 4


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_oracle_equals_closed_form_property(data):
    g = data.draw(st.integers(1, 4), label="g")
    m = data.draw(st.integers(2 * g - 1, 2 * g + 9), label="m")
    r = data.draw(st.integers(0, 1000), label="R")
    assert solve(g, m, (-r, r)) == {n: dims_z2(g, n) for n in range(-r, r + 1)}


def _unskipped_sweeps(system):
    """solve()'s alternating sweeps with every visit made; returns the
    number of sweeps and of applications."""
    system._seed_base()
    steps = _rules(system)
    order = list(range(system._lo, system._hi + 1))
    sweeps = applications = 0
    while True:
        sweeps += 1
        changed = False
        for n in order:
            for _, step in steps:
                applications += 1
                changed |= step(n)
        if not changed:
            return sweeps, applications
        order.reverse()


@pytest.mark.parametrize("g", (1, 2, 3))
@pytest.mark.parametrize("m_offset", (-1, 0, 5))
@pytest.mark.parametrize("drop", ((), ("C1",), ("C2",), ("C3",), ("C4",), ("C5",), ("C6",)))
def test_skipped_visits_change_nothing(g, m_offset, drop):
    m = 2 * g + m_offset
    solved = build_system(g, m, (-25, 25), drop=drop, trace=True)
    try:
        solved.solve()
    except NotDeterminedError:
        pass
    driven = build_system(g, m, (-25, 25), drop=drop, trace=True)
    sweeps, applications = _unskipped_sweeps(driven)
    assert solved.trace == driven.trace
    assert (solved.lo, solved.hi) == (driven.lo, driven.hi)
    assert solved.sweeps == sweeps
    assert solved.applications <= applications


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_skipped_visits_change_nothing_property(data):
    g = data.draw(st.integers(1, 4), label="g")
    m = data.draw(st.integers(2 * g - 1, 2 * g + 9), label="m")
    lo = data.draw(st.integers(-300, 300), label="lo")
    hi = data.draw(st.integers(lo, 300), label="hi")
    drop = data.draw(st.sets(st.sampled_from(CONSTRAINT_IDS)), label="drop")
    solved = build_system(g, m, (lo, hi), drop=drop, trace=True)
    outcome = _outcome(solved)
    driven = build_system(g, m, (lo, hi), drop=drop, trace=True)
    sweeps, applications = _unskipped_sweeps(driven)
    assert solved.trace == driven.trace
    assert (solved.lo, solved.hi) == (driven.lo, driven.hi)
    assert solved.sweeps == sweeps
    assert solved.applications <= applications
    # Untraced, the tightenings take the inline path instead of the helpers.
    untraced = build_system(g, m, (lo, hi), drop=drop)
    assert _outcome(untraced) == outcome
    assert (untraced.lo, untraced.hi) == (solved.lo, solved.hi)
    assert (untraced.sweeps, untraced.applications) == (solved.sweeps, solved.applications)


def _work(g, m, slope_range):
    system = build_system(g, m, slope_range, trace=True)
    system.solve()
    return system.applications, len(system.trace), system.sweeps


# Without drops the work is affine in the range: each slope added below
# lo <= -1 costs 16 applications (a visit in each of 4 sweeps) and 8 trace
# entries, each added above hi >= m costs 8 and 6, and every solve takes 4
# sweeps.  The whole law, constant term included, is the module docstring's.
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_work_is_affine_in_the_range(data):
    g = data.draw(st.integers(1, 6), label="g")
    m = data.draw(st.integers(2 * g - 1, 2 * g + 30), label="m")
    lo = data.draw(st.integers(-60, -1), label="lo")
    hi = data.draw(st.integers(m, m + 60), label="hi")
    applications, trace_len, sweeps = _work(g, m, (lo, hi))
    assert applications == 56 + 8 * g + 4 * m - 16 * lo + 8 * hi
    assert trace_len == (35 + 6 * g + 6 * m - max(0, 2 * g + 1 - m) + 8 * (-1 - lo) + 6 * (hi - m)
                         + (g == 1 and m <= 2))
    down = _work(g, m, (lo - 1, hi))
    up = _work(g, m, (lo, hi + 1))
    assert (down[0] - applications, down[1] - trace_len) == (16, 8)
    assert (up[0] - applications, up[1] - trace_len) == (8, 6)
    assert (sweeps, down[2], up[2]) == (4, 4, 4)


# With one rule dropped the work is affine in the range too: (applications,
# trace entries) for one slope more below lo, then above hi, and the sweeps
# of every solve.  Upward, C3's trace entries are 2 or 3 and are not pinned.
DROP_LAW = {
    "C1": ((12, 5), (8, 3), 4),
    "C2": ((9, 5), (9, 5), 3),
    "C3": ((9, 2), (6, None), 3),
    "C4": ((9, 5), (9, 5), 3),
    "C5": ((12, 8), (6, 6), 4),
    "C6": ((12, 5), (6, 6), 4),
}


@pytest.mark.parametrize("drop", sorted(DROP_LAW))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_work_is_affine_in_the_range_under_one_drop(drop, data):
    g = data.draw(st.integers(1, 6), label="g")
    m = data.draw(st.integers(2 * g - 1, 2 * g + 30), label="m")
    lo = data.draw(st.integers(-60, -1), label="lo")
    hi = data.draw(st.integers(m, m + 60), label="hi")
    work = []
    for slope_range in ((lo, hi), (lo - 1, hi), (lo, hi + 1)):
        system = build_system(g, m, slope_range, drop=(drop,), trace=True)
        _outcome(system)
        work.append((system.applications, len(system.trace), system.sweeps))
    (applications, trace_len, _), down, up = work
    (down_applications, down_trace), (up_applications, up_trace), sweeps = DROP_LAW[drop]
    assert (down[0] - applications, down[1] - trace_len) == (down_applications, down_trace)
    assert up[0] - applications == up_applications
    if up_trace is not None:
        assert up[1] - trace_len == up_trace
    assert [w[2] for w in work] == [sweeps] * 3


# (applications, sweeps, trace length) of a traced solve, for every single
# drop, two double drops and a range above 0.  A change to the sweep order,
# the skip rule or how applications are counted shows here.
WORK = [
    (1, 5, (-10, 10), (), (324, 4, 173)),
    (1, 5, (-10, 10), ('C1',), (264, 4, 97)),
    (1, 5, (-10, 10), ('C2',), (225, 3, 120)),
    (1, 7, (-30, 30), ('C3',), (507, 3, 141)),
    (2, 5, (-20, 20), ('C4',), (399, 3, 214)),
    (1, 5, (-10, 10), ('C5',), (252, 4, 171)),
    (2, 5, (-20, 20), ('C6',), (429, 4, 244)),
    (2, 7, (-25, 25), ('C3', 'C5'), (286, 3, 95)),
    (3, 8, (-25, 25), ('C4', 'C6'), (266, 3, 177)),
    (2, 3, (4, 40), (), (404, 4, 277)),
    (3, 11, (-300, 300), (), (7324, 4, 4245)),
    (4, 7, (-1000, 1500), (), (28116, 4, 17049)),
]


@pytest.mark.parametrize("g, m, slope_range, drop, work", WORK)
def test_work_done_is_pinned(g, m, slope_range, drop, work):
    system = build_system(g, m, slope_range, drop=drop, trace=True)
    try:
        system.solve()
    except NotDeterminedError:
        pass
    assert (system.applications, system.sweeps, len(system.trace)) == work


def _outcome(system):
    try:
        return system.solve()
    except (NotDeterminedError, ContradictionError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("g", (1, 2, 3))
@pytest.mark.parametrize("m_offset", (-1, 0, 5))
@pytest.mark.parametrize("drop", ((), ("C1",), ("C2",), ("C3",), ("C4",), ("C5",), ("C6",)))
def test_trace_changes_nothing_but_the_trace(g, m_offset, drop):
    m = 2 * g + m_offset
    traced = build_system(g, m, (-25, 25), drop=drop, trace=True)
    untraced = build_system(g, m, (-25, 25), drop=drop)
    assert _outcome(traced) == _outcome(untraced)
    assert (traced.lo, traced.hi) == (untraced.lo, untraced.hi)
    assert traced.sweeps == untraced.sweeps
    assert traced.applications == untraced.applications
    assert traced.trace
    assert untraced.trace == []


def test_positive_range_reaches_stein_slopes():
    # The padding always takes in a negative slope, where C6 holds, so a
    # range that starts above 0 is determined too.
    assert solve(2, 3, (2, 2)) == {2: GradedDimZ2(3, 1)}
    for g in range(1, 5):
        for m in (2 * g - 1, 2 * g + 3):
            for lo in range(1, 2 * g + 8):
                assert solve(g, m, (lo, lo + 2)) == {
                    n: dims_z2(g, n) for n in range(lo, lo + 3)
                }, (g, m, lo)


def test_too_wide_range_is_refused_before_allocating():
    # 260005 padded slopes at four applications each exceed
    # MAX_APPLICATIONS.  The limit counts four whatever is dropped, so
    # dropping rules cannot let the bounds of a wider range be allocated.
    for drop in ((), ("C3", "C4", "C5", "C6")):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="too wide"):
                build_system(1, 5, (-130000, 130000), drop=drop)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, drop


def test_the_surface_the_benchmark_reads():
    # perfbench/ builds systems positionally, counts slopes with
    # len(system.bounds), reads `dropped`, `applications` and `trace`,
    # compares `applications` with MAX_APPLICATIONS for `oracle.capped`, and
    # wraps ConstraintSystem.solve and TraceEntry.to_dict, whose key order
    # every JSON trace keeps.
    system = oracle.build_system(2, 7, (-6, 6), ("C6",), True)
    assert isinstance(system, oracle.ConstraintSystem)
    assert len(system.bounds) == len(system.lo) // oracle.STRIDE
    with pytest.raises(NotDeterminedError):
        oracle.ConstraintSystem.solve(system)
    assert system.dropped == {"C6"}
    assert 0 < system.applications <= oracle.MAX_APPLICATIONS
    assert list(system.trace[0].to_dict().items()) == [
        ("constraint", "C1"), ("slope", 7), ("grading", 2), ("bound", "lo"), ("value", 7), ("consumed", []),
    ]
    assert oracle.build_system(2, 7, (-6, 6)).solve() == {n: dims_z2(2, n) for n in range(-6, 7)}

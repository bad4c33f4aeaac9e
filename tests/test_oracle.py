import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isurg import oracle
from isurg.graded import GradedDimZ2
from isurg.oracle import (
    CONSTRAINT_IDS,
    ContradictionError,
    DimInterval,
    NotDeterminedError,
    build_system,
    explain,
    solve,
    solve_trefoil_family,
)
from isurg.surgery import dims_z2, trefoil_one_over_n


def test_dim_interval_invariants():
    assert DimInterval(2, 2).pinned()
    assert not DimInterval(0, None).pinned()
    with pytest.raises(ValueError):
        DimInterval(3, 2)
    with pytest.raises(ValueError):
        DimInterval(-1, 4)


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
# dropping either leaves the same slopes open.
OPEN_WITHOUT = {
    "C1": list(range(-10, 11)),
    "C2": list(range(-10, 1)),
    "C3": [n for n in range(-10, 11) if n != 5],
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
    system = build_system(1, 5, (-10, 10), trace=True)
    system.solve()
    base_entries = explain(system, 5)
    assert base_entries
    assert {e.constraint for e in base_entries} == {"C1"}
    up = {e.constraint for e in explain(system, 6)}
    assert up & {"C4", "C5"}
    assert "C3" in up
    neg = {e.constraint for e in explain(system, -1)}
    assert "C6" in neg
    assert "C4" in neg
    with pytest.raises(ValueError):
        explain(system, 99)


def test_explain_requires_solve():
    system = build_system(1, 5, (-10, 10), trace=True)
    with pytest.raises(ValueError, match="solve has not run"):
        explain(system, 5)


def test_explain_requires_a_trace():
    system = build_system(1, 5, (-10, 10))
    system.solve()
    with pytest.raises(ValueError, match="without a trace"):
        explain(system, 5)


def test_trefoil_family():
    assert solve_trefoil_family(1) == {1: GradedDimZ2(1, 0)}
    r = solve_trefoil_family(10)
    for n in range(1, 11):
        assert r[n] == GradedDimZ2(n, n - 1)
        assert r[n] == trefoil_one_over_n(n)


def test_trefoil_family_rejects_bad_input():
    with pytest.raises(ValueError):
        solve_trefoil_family(0)


def test_contradiction_carries_trace():
    # An impossible base (huge Stein bounds against a tiny L-space total)
    # cannot happen with valid inputs, so force one by shrinking the range
    # onto a manufactured clash: C6 vs a C4 chain from the base.
    system = build_system(1, 5, (-10, 10), trace=True)
    system.bounds[-1][0] = DimInterval(0, 1)  # below the C6 bound of 3
    with pytest.raises(ContradictionError) as exc:
        system.solve()
    assert exc.value.system is system
    assert system.trace


def _chaotic_fixpoint(system, rng):
    """Apply the system's constraints in random slope and constraint orders
    until no bound changes; independent of solve()'s sweep schedule."""
    steps = system._steps()
    if "C1" not in system.dropped:
        steps.append(system._c1)
    slopes = list(system.bounds)
    for _ in range(2 * len(slopes)):
        changed = False
        rng.shuffle(slopes)
        for n in slopes:
            rng.shuffle(steps)
            for step in steps:
                changed |= step(n)
        if not changed:
            return system.bounds
    raise AssertionError("no fixpoint within the pass limit")


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
        assert _chaotic_fixpoint(driven, random.Random(seed)) == solved.bounds, seed


@pytest.mark.parametrize("g", (1, 2, 3))
def test_wide_range_solves_in_a_few_sweeps(g):
    system = build_system(g, 2 * g + 5, (-2000, 2000))
    assert system.solve() == {n: dims_z2(g, n) for n in range(-2000, 2001)}
    # At most five sweeps of four constraints per slope, of which the
    # skipped visits save at least a fifth.
    assert system.sweeps <= 5
    assert system.applications <= 0.8 * system.sweeps * len(system.bounds) * 4


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
    if "C1" not in system.dropped:
        system._c1(system.lspace_slope)
    steps = system._steps()
    order = sorted(system.bounds)
    sweeps = applications = 0
    while True:
        sweeps += 1
        changed = False
        for n in order:
            for step in steps:
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
    assert solved.bounds == driven.bounds
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
    try:
        solved.solve()
    except NotDeterminedError:
        pass
    driven = build_system(g, m, (lo, hi), drop=drop, trace=True)
    sweeps, applications = _unskipped_sweeps(driven)
    assert solved.trace == driven.trace
    assert solved.bounds == driven.bounds
    assert solved.sweeps == sweeps
    assert solved.applications <= applications


# (applications, sweeps, trace length) of a traced solve, for every single
# drop, two double drops and a range above 0.  A change to the sweep order,
# the skip rule or how applications are counted shows here.
WORK = [
    (1, 5, (-10, 10), (), (324, 4, 173)),
    (1, 5, (-10, 10), ('C1',), (264, 4, 97)),
    (1, 5, (-10, 10), ('C2',), (225, 3, 120)),
    (1, 7, (-30, 30), ('C3',), (507, 3, 176)),
    (2, 5, (-20, 20), ('C4',), (399, 3, 214)),
    (1, 5, (-10, 10), ('C5',), (252, 4, 171)),
    (2, 5, (-20, 20), ('C6',), (429, 4, 244)),
    (2, 7, (-25, 25), ('C3', 'C5'), (286, 3, 125)),
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


def test_capped_solve_says_so(monkeypatch):
    # 28 padded slopes take 112 applications a sweep; the solve needs 324.
    monkeypatch.setattr(oracle, "MAX_APPLICATIONS", 150)
    system = build_system(1, 5, (-10, 10))
    with pytest.raises(NotDeterminedError, match="^application cap reached"):
        system.solve()
    assert system.applications > oracle.MAX_APPLICATIONS


def test_cap_stops_a_solve_between_visits(monkeypatch):
    # Each visit counts its four applications before it runs, so caps 148 to
    # 151 all refuse the visit that would bring the count to 152, and none of
    # that visit runs.
    outcomes = []
    for cap in range(148, 152):
        monkeypatch.setattr(oracle, "MAX_APPLICATIONS", cap)
        system = build_system(1, 5, (-10, 10), trace=True)
        with pytest.raises(NotDeterminedError, match="^application cap reached"):
            system.solve()
        outcomes.append((system.applications, system.trace, system.bounds))
    assert outcomes[0][0] == 152
    assert all(outcome == outcomes[0] for outcome in outcomes)


def test_cap_in_the_confirming_sweep_still_returns_every_slope(monkeypatch):
    # The last visit of a solve belongs to the sweep that changes nothing;
    # a cap that refuses only that visit stops the solve but loses nothing.
    full = build_system(2, 7, (-25, 25))
    expected = full.solve()
    monkeypatch.setattr(oracle, "MAX_APPLICATIONS", full.applications - 1)
    capped = build_system(2, 7, (-25, 25))
    assert capped.solve() == expected
    assert capped.applications == full.applications > oracle.MAX_APPLICATIONS
    assert capped.sweeps == full.sweeps


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
    assert traced.bounds == untraced.bounds
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
    # Four constraints at 260005 padded slopes exceed the cap in the
    # first sweep.
    with pytest.raises(ValueError, match="too wide"):
        build_system(1, 5, (-130000, 130000))

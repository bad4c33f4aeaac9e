"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single
PASS/FAIL line (run with -s or look at captured output on failure).
"""

import random
import time
from fractions import Fraction

import pytest

from isurg.graded import GradedDimZ2, collapse_z4_to_z2
from isurg.knots import torus_knot
from isurg.legendrian import rotation_numbers_after, LegendrianRep
from isurg.oracle import NotDeterminedError, solve
from isurg.planefield import FillingData, d3, delta, rho
from isurg.surgery import dims_z2, dims_z4, trefoil_one_over_n
from isurg.triangle import (
    d_degree,
    surgery_cobordism_data,
    triangle_degrees,
)


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_criterion_1_golden_value():
    start = time.monotonic()
    k = torus_knot(2, 3)
    v = dims_z4(k.genus, -1)
    ok = v.entries() == (1, 0, 1, 1) and time.monotonic() - start < 1.0
    report("golden value for -1-surgery on the (2,3) torus knot", ok)


def test_criterion_2_oracle_equals_closed_form():
    start = time.monotonic()
    ok = True
    for g in range(1, 7):
        for m in (2 * g - 1, 2 * g, 2 * g + 5):
            solved = solve(g, m, (-30, 30))
            ok = ok and all(solved[n] == dims_z2(g, n) for n in range(-30, 31))
    ok = ok and time.monotonic() - start < 10.0
    report("oracle reproduces the closed form on every tested (g, m)", ok)


def test_criterion_3_z4_collapse():
    start = time.monotonic()
    ok = all(
        collapse_z4_to_z2(dims_z4(g, n)) == dims_z2(g, n)
        for g in range(1, 7)
        for n in range(-50, 51)
    )
    ok = ok and time.monotonic() - start < 1.0
    report("Z/4 gradings collapse to the Z/2 gradings", ok)


def test_criterion_4_euler_characteristic():
    def euler(v):
        return v.d0 - v.d1

    ok = all(
        euler(dims_z2(g, n)) == abs(n)
        for g in range(1, 7)
        for n in range(-50, 51)
    )
    ok = ok and all(euler(trefoil_one_over_n(n)) == 1 for n in range(1, 21))
    report("graded Euler characteristic equals |n| (and 1 for 1/n slopes)", ok)


def test_criterion_5_degree_sum_law():
    ok = all(sum(triangle_degrees(n).entries()) % 4 == 3 for n in range(-100, 101))
    for n in range(-20, 21):
        c = surgery_cobordism_data(n)
        if c.spin:
            ok = ok and triangle_degrees(n).deg_from_s3 % 2 == d_degree(c) % 2
    report("triangle degrees sum to 3 mod 4 and reduce mod 2 consistently", ok)


def test_criterion_6_trefoil_family():
    # Prop 6.1 by induction on n.  The base, 1/1-surgery, and the total 2 of
    # 0-surgery come from the oracle's trefoil (genus 1, L-space slope 5).
    base = solve(1, 5, (0, 1))
    zero_total = base[0].total()
    ok = zero_total == 2 and base[1] == trefoil_one_over_n(1)
    prev = base[1]
    for n in range(2, 51):
        # The triangle (1/n, 1/(n-1), 0) bounds the total by prev + 2 from
        # above.  The Stein fillings give n-1 classes in grading 1, and Euler
        # characteristic 1 one more in grading 0: 2n-1 from below.  The two
        # bounds meet, so 1/n-surgery is (n, n-1).
        ok = ok and prev.total() + zero_total == 2 * n - 1
        prev = GradedDimZ2(n, n - 1)
        ok = ok and prev == trefoil_one_over_n(n)
    report("trefoil 1/n family equals (n, n-1) with the Stein lower bound", ok)


def test_criterion_7_legendrian_bound_tightness():
    # Prop 4.1: -n-surgery on a knot with maximal self-linking s has at
    # least s + n in grading 0 and s in grading 1; here s = 2g - 1.
    ok = all(
        GradedDimZ2(2 * g - 1 + n, 2 * g - 1) == dims_z2(g, -n)
        for g in range(1, 7)
        for n in range(1, 31)
    )
    report("Stein lower bound is tight at maximal self-linking number", ok)


def test_criterion_8_delta_identity_suite():
    start = time.monotonic()
    rng = random.Random(20260825)
    ok = True
    for _ in range(10_000):
        chi = rng.randint(-40, 40)
        sigma = rng.randint(-40, 40)
        b1 = rng.randint(0, 40)
        if (chi + sigma + b1 - 1) % 2 != 0:
            chi += 1
        f = FillingData(chi, sigma, b1, Fraction(rng.randint(-200, 200)))
        ok = ok and (delta(f) - (rho(f) - d3(f) + Fraction(b1 - 1, 2))) % 2 == 0
    ok = ok and delta(FillingData(1, 0, 0)) == 0
    ok = ok and delta(FillingData(0, 0, 3)) == 1
    ok = ok and delta(FillingData(3, 0, 0)) == 1
    ok = ok and time.monotonic() - start < 1.0
    report("plane-field parity identity holds on 10^4 random tuples", ok)


def test_criterion_9_stabilization_oracle():
    from itertools import product as iproduct

    ok = True
    for tb in range(-3, 4):
        for r in range(-3, 4):
            if (tb + r) % 2 == 0:
                continue
            rep = LegendrianRep(tb, r)
            for drops in range(0, 13):
                expected = sorted(
                    {r + sum(s) for s in iproduct((1, -1), repeat=drops)}
                )
                if rotation_numbers_after(rep, tb - drops) != expected:
                    ok = False
    report("stabilization rotation numbers match exhaustive enumeration", ok)


def test_criterion_10_constraint_necessity():
    ok = True
    for g in range(1, 7):
        for m in (2 * g - 1, 2 * g, 2 * g + 5):
            with pytest.raises(NotDeterminedError) as exc:
                solve(g, m, (-30, 30), drop={"C6"})
            ok = ok and any(s < 0 for s in exc.value.slopes)
            if m > 2 * g - 1:
                with pytest.raises(NotDeterminedError) as exc:
                    solve(g, m, (-30, 30), drop={"C5"})
                ok = ok and any(s >= 2 * g - 1 for s in exc.value.slopes)
    report("dropping the adjunction or Stein constraint loses determination", ok)

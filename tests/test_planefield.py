import random
from fractions import Fraction

import pytest

from isurg.planefield import (
    FillingData,
    ParityError,
    contact_grading,
    d3,
    delta,
    delta_dual,
    rho,
)


def test_delta_examples():
    assert delta(FillingData(chi=1, sigma=0, b1_boundary=0)) == 0  # Stein 4-ball
    for g in range(0, 5):
        assert delta(FillingData(chi=2 - 2 * g, sigma=0, b1_boundary=2 * g + 1)) == 1
    assert delta(FillingData(chi=3, sigma=0, b1_boundary=0)) == 1


def test_delta_parity_rejected():
    with pytest.raises(ParityError):
        delta(FillingData(chi=2, sigma=0, b1_boundary=0))


def test_d3_examples():
    assert d3(FillingData(chi=1, sigma=0, c1_sq=0)) == Fraction(-1, 2)
    assert d3(FillingData(chi=0, sigma=0, b1_boundary=1, c1_sq=0)) == 0
    assert d3(FillingData(chi=2, sigma=-1, c1_sq=-1)) == Fraction(-1, 2)


def test_rho_examples():
    assert rho(FillingData(chi=0, sigma=0, b1_boundary=1, c1_sq=0)) == 0
    assert rho(FillingData(chi=2, sigma=-1, c1_sq=-1)) == 0
    assert rho(FillingData(chi=0, sigma=1, b1_boundary=0, c1_sq=9)) == 0
    assert rho(FillingData(chi=0, sigma=1, b1_boundary=0, c1_sq=5)) == 1


def test_rho_range():
    for c in range(-20, 21):
        v = rho(FillingData(chi=0, sigma=0, b1_boundary=1, c1_sq=Fraction(c, 4)))
        assert 0 <= v < 2


def test_missing_c1_sq():
    f = FillingData(chi=1, sigma=0)
    with pytest.raises(ValueError):
        d3(f)
    with pytest.raises(ValueError):
        rho(f)


def test_delta_dual():
    assert delta_dual(0, 0) == 1
    assert delta_dual(1, 0) == 0
    for d in (0, 1):
        assert delta_dual(d, 1) == d
        for b1 in range(5):
            assert delta_dual(delta_dual(d, b1), b1) == d
    with pytest.raises(ValueError, match="^b1 must be nonnegative$"):
        delta_dual(0, -1)


def test_contact_grading_examples():
    assert contact_grading(FillingData(chi=1, sigma=0, b1_boundary=0)) == 0
    assert contact_grading(FillingData(chi=2, sigma=-1, b1_boundary=0)) == 0
    assert contact_grading(FillingData(chi=3, sigma=0, b1_boundary=0)) == 1


def test_delta_ignores_c1_sq():
    with_c1 = FillingData(chi=3, sigma=0, b1_boundary=0, c1_sq=Fraction(17, 3))
    without = FillingData(chi=3, sigma=0, b1_boundary=0)
    assert delta(with_c1) == delta(without)
    assert contact_grading(with_c1) == contact_grading(without)


def test_grading_constant_across_rotation_numbers():
    # The trace of a single negative-framed 2-handle has fixed (chi, sigma,
    # b1) = (2, -1, 0); the grading must not see c1 at all.
    for r in range(-9, 10, 2):
        f = FillingData(chi=2, sigma=-1, b1_boundary=0, c1_sq=r * r * (-1))
        assert contact_grading(f) == 0


def test_delta_rho_d3_identity_randomized():
    # delta == rho - d3 + (b1 - 1)/2 mod 2, as an exact rational identity.
    rng = random.Random(20260825)
    for _ in range(10_000):
        chi = rng.randint(-40, 40)
        sigma = rng.randint(-40, 40)
        b1 = rng.randint(0, 40)
        if (chi + sigma + b1 - 1) % 2 != 0:
            chi += 1
        c1_sq = Fraction(rng.randint(-200, 200))
        f = FillingData(chi=chi, sigma=sigma, b1_boundary=b1, c1_sq=c1_sq)
        lhs = delta(f)
        rhs = rho(f) - d3(f) + Fraction(b1 - 1, 2)
        assert (lhs - rhs) % 2 == 0


@pytest.mark.parametrize("c1_sq, stored", [
    ("1/2", Fraction(1, 2)),  # perfbench's checker passes a str
    (-3, Fraction(-3)),
    (Fraction(5, 3), Fraction(5, 3)),
    (None, None),
])
def test_c1_sq_is_stored_as_a_fraction(c1_sq, stored):
    f = FillingData(1, 0, 0, c1_sq)
    assert f.c1_sq == stored and type(f.c1_sq) is type(stored)
    assert f == FillingData(chi=1, sigma=0, c1_sq=c1_sq)
    with pytest.raises(ValueError, match="^b1_boundary must be nonnegative$"):
        FillingData(1, 0, -1, c1_sq)

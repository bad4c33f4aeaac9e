import pytest

from isurg.triangle import (
    CobordismData,
    TriangleDegrees,
    d_degree,
    surgery_cobordism_data,
    spin_s3_cobordism_data,
    surgery_map_cobordism_data,
    to_s3_cobordism_data,
    triangle_degrees,
)


def test_d_degree_two_handle_traces():
    assert d_degree(CobordismData(chi=1, sigma=-1)) == 0
    assert d_degree(CobordismData(chi=1, sigma=1)) == -3
    assert d_degree(CobordismData(chi=1, sigma=0, b1_out=1)) == -1


def test_d_degree_non_integral_rejected():
    with pytest.raises(ValueError, match="not an integer for this data: 1/2$"):
        d_degree(CobordismData(chi=0, sigma=0, b1_out=1))
    with pytest.raises(ValueError, match="not an integer for this data: -3/2$"):
        d_degree(CobordismData(chi=1, sigma=0))


def test_d_mod2_parity_rejected():
    # the mod-2 degree is d_degree(c) % 2, so data whose parity sum
    # chi + sigma + (b1_out - b1_in) + (b0_out - b0_in) is odd has none
    for c in (
        CobordismData(chi=1, sigma=0),
        CobordismData(chi=0, sigma=0, b0_in=0, b0_out=1),
        CobordismData(chi=2, sigma=1, b1_in=1, b1_out=1),
    ):
        with pytest.raises(ValueError, match="not an integer"):
            d_degree(c) % 2


def test_d_mod2_examples():
    # Sigma_g x D^2 as a filling of Sigma_g x S^1, any g
    for g in range(0, 5):
        filling = CobordismData(
            chi=2 - 2 * g, sigma=0, b1_out=2 * g + 1, b0_in=0, b0_out=1
        )
        assert d_degree(filling) % 2 == 0
    assert d_degree(CobordismData(chi=1, sigma=-1)) % 2 == 0
    # excision cobordism: chi = sigma = 0, ends gain b1 by 3 and b0 by 1
    exc = CobordismData(chi=0, sigma=0, b1_in=4, b1_out=7, b0_in=1, b0_out=2)
    assert d_degree(exc) % 2 == 0


def test_triangle_degree_table():
    # The six regimes (n >= 2 even, n >= 1 odd, 0, -1, n <= -2 even,
    # n <= -3 odd), each at an interior slope and at its boundary slopes.
    golden = {
        4: (0, 2, 1), 2: (0, 2, 1),
        7: (0, 0, 3), 1: (0, 0, 3), 3: (0, 0, 3),
        0: (2, 2, 3),
        -1: (3, 2, 2),
        -2: (0, 3, 0), -4: (0, 3, 0),
        -5: (0, 1, 2), -3: (0, 1, 2),
    }
    for n, entries in golden.items():
        assert triangle_degrees(n).entries() == entries, n


def test_degree_sum_rule():
    for n in range(-100, 101):
        assert sum(triangle_degrees(n).entries()) % 4 == 3


def test_degree_sum_rule_enforced_by_type():
    with pytest.raises(ValueError, match="sum to 3"):
        TriangleDegrees(0, 0, 0)


def test_surgery_cobordism_data():
    c = surgery_cobordism_data(-1)
    assert (c.chi, c.sigma, c.spin) == (1, -1, False)
    c = surgery_cobordism_data(2)
    assert (c.chi, c.sigma, c.spin) == (1, 1, True)
    c = surgery_cobordism_data(0)
    assert (c.chi, c.sigma, c.b1_out, c.spin) == (1, 0, 1, True)


def test_to_s3_cobordism_data_is_the_reversed_trace():
    # The literal data of S^3_{n+1} -> S^3, against which the reversed,
    # orientation-flipped trace of (n+1)-surgery is checked.
    for n in range(-50, 51):
        sign = (n + 1 > 0) - (n + 1 < 0)
        expected = CobordismData(chi=1, sigma=-sign, b1_in=int(n == -1), b1_out=0,
                                 spin=n % 2 != 0)
        assert to_s3_cobordism_data(n) == expected, n


def test_spin_s3_cobordism_data_is_the_spin_map():
    for n in range(-20, 21):
        from_s3, to_s3 = surgery_cobordism_data(n), to_s3_cobordism_data(n)
        expected = from_s3 if n % 2 == 0 else to_s3
        assert spin_s3_cobordism_data(n) == expected
        assert expected.spin


def test_non_spin_degree_follows_self_intersection_rule():
    # The non-spin map through S^3 has degree d(W) + 2 [S].[S] mod 4, where
    # S is the capped-off surface: self-intersection n in the trace of
    # n-surgery (odd n), -(n+1) in the reversed trace of (n+1)-surgery
    # (even n).  The table derives that degree from the sum-to-3 rule.
    for n in range(-12, 13):
        degs = triangle_degrees(n)
        if n % 2:
            c, s, deg = surgery_cobordism_data(n), n, degs.deg_from_s3
        else:
            c, s, deg = to_s3_cobordism_data(n), -(n + 1), degs.deg_to_s3
        assert not c.spin
        assert (d_degree(c) + 2 * s) % 4 == deg, n


def test_table_matches_mod2_degrees():
    # Every table entry of a spin map reduces mod 2 to the d(W) of the
    # corresponding cobordism data; the surgery map is always spin.
    for n in range(-20, 21):
        degs = triangle_degrees(n)
        assert degs.deg_surgery % 2 == d_degree(surgery_map_cobordism_data(n)) % 2
        from_s3 = surgery_cobordism_data(n)
        to_s3 = to_s3_cobordism_data(n)
        assert from_s3.spin != to_s3.spin
        if from_s3.spin:
            assert degs.deg_from_s3 == d_degree(from_s3) % 4
        if to_s3.spin:
            assert degs.deg_to_s3 == d_degree(to_s3) % 4


def test_empty_end_needs_zero_b1():
    with pytest.raises(ValueError, match="empty"):
        CobordismData(chi=0, sigma=0, b0_in=0, b1_in=2)


@pytest.mark.parametrize("args, kwargs", [
    ((1, -1), {}),
    ((), {"chi": 1, "sigma": -1}),
    ((1,), {"sigma": -1, "b0_out": 1, "spin": True}),
    ((1, -1, 0, 0, 1, 1, True), {}),
])
def test_positional_and_keyword_construction_agree(args, kwargs):
    c = CobordismData(*args, **kwargs)
    assert c == CobordismData(chi=1, sigma=-1, b1_in=0, b1_out=0, b0_in=1, b0_out=1, spin=True)
    with pytest.raises(AttributeError):
        c.chi = 2


@pytest.mark.parametrize("args, message", [
    ((0, 0, -1), "b1_in must be nonnegative"),
    ((0, 0, 0, 0, 1, -1), "b0_out must be nonnegative"),
    ((0, 0, 2, 0, 0), r"empty incoming end \(b0_in=0\) must have b1_in=0"),
    ((0, 0, 0, 1, 1, 0), r"empty outgoing end \(b0_out=0\) must have b1_out=0"),
])
def test_cobordism_data_checks_positional_arguments(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        CobordismData(*args)

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from isurg.graded import GradedDimZ2, GradedDimZ4, collapse_z4_to_z2
from isurg.legendrian import LegendrianRep, distinct_chern_count
from isurg.surgery import dims_rows, dims_z2, dims_z4, lens_space_dims, trefoil_one_over_n
from isurg.triangle import triangle_degrees


def test_dims_z2_examples():
    assert dims_z2(1, -1) == GradedDimZ2(2, 1)
    assert dims_z2(2, 0) == GradedDimZ2(3, 3)
    assert dims_z2(1, 5) == GradedDimZ2(5, 0)
    assert dims_z2(3, 2) == GradedDimZ2(5, 3)


def test_dims_z4_examples():
    assert dims_z4(1, -1) == GradedDimZ4(1, 0, 1, 1)
    assert dims_z4(2, 0) == GradedDimZ4(1, 1, 2, 2)
    assert dims_z4(1, 1) == GradedDimZ4(1, 0, 0, 0)
    assert dims_z4(1, -2) == GradedDimZ4(2, 0, 1, 1)
    assert collapse_z4_to_z2(dims_z4(1, -2)) == GradedDimZ2(3, 1)


def test_lens_space_examples():
    assert lens_space_dims(5) == GradedDimZ4(3, 0, 2, 0)
    assert lens_space_dims(1) == GradedDimZ4(1, 0, 0, 0)
    assert lens_space_dims(2) == GradedDimZ4(2, 0, 0, 0)


def test_trefoil_family_examples():
    assert trefoil_one_over_n(1) == GradedDimZ2(1, 0)
    assert trefoil_one_over_n(3) == GradedDimZ2(3, 2)
    assert trefoil_one_over_n(10) == GradedDimZ2(10, 9)
    assert trefoil_one_over_n(10).total() == 19


def test_preconditions():
    with pytest.raises(ValueError):
        dims_z2(0, 1)
    with pytest.raises(ValueError):
        dims_z4(0, 1)
    with pytest.raises(ValueError):
        lens_space_dims(0)
    with pytest.raises(ValueError):
        trefoil_one_over_n(0)


@pytest.mark.parametrize("g", range(1, 7))
def test_collapse_matches_z2(g):
    for n in range(-50, 51):
        assert collapse_z4_to_z2(dims_z4(g, n)) == dims_z2(g, n)


@pytest.mark.parametrize("g", range(1, 9))
def test_z4_halves_the_z2_summand_that_depends_on_n(g):
    # Off n = 0 and the lens-space regime, Z/4 gradings j and j + 2 over the
    # Z/2 summand h - n (j = 0 below 0, j = 1 on 1..h) are its ceiling and
    # floor halves; over the other summand they are g and g - 1.
    h = 2 * g - 1
    for n in range(-40, 41):
        v = dims_z4(g, n).entries()
        if n == 0:
            assert v == (g - 1, g - 1, g, g)
        elif n <= h:
            j = 0 if n < 0 else 1
            assert (v[j], v[j + 2]) == (-((n - h) // 2), (h - n) // 2), n
            assert {v[1 - j], v[3 - j]} == {g, g - 1}, n


@pytest.mark.parametrize("g", range(1, 7))
def test_euler_is_abs_n(g):
    for n in range(-50, 51):
        v = dims_z2(g, n)
        assert v.d0 - v.d1 == abs(n)


@pytest.mark.parametrize("g", range(1, 7))
def test_lens_regime(g):
    for n in range(2 * g - 1, 60):
        assert dims_z4(g, n) == lens_space_dims(n)


@pytest.mark.parametrize("g", range(1, 7))
def test_branch_overlaps(g):
    # n = 0 lies in both the first and second regime of the Z/2 formula,
    # n = 2g-1 in both the second and third.
    assert GradedDimZ2(2 * g - 1 - 0, 2 * g - 1) == GradedDimZ2(2 * g - 1, 2 * g - 1 - 0)
    n = 2 * g - 1
    assert GradedDimZ2(2 * g - 1, 2 * g - 1 - n) == GradedDimZ2(n, 0)
    assert dims_z4(g, n) == lens_space_dims(n)


def test_trefoil_family_euler():
    for n in range(1, 21):
        v = trefoil_one_over_n(n)
        assert v.d0 - v.d1 == 1


def test_z4_nonhomogeneity_witness():
    # Every Z/4 entry of the (g, n) = (1, -1) vector, and so of its dual,
    # which only permutes the entries, is at most 1: two independent
    # contact classes cannot both be homogeneous.
    assert max(dims_z4(1, -1).entries()) <= 1
    # The same at every -k, as arithmetic.  Stabilizing a Legendrian with
    # tb = 2g-1 and r = 0 down to tb = 1-k gives one Stein filling of -k
    # surgery per distinct Chern class.  Their contact classes fill Z/2
    # grading 0, which is Z/4 gradings 0 and 2, and each of those two holds
    # at least one and at most all but g of them: no one Z/4 grading holds
    # every class.
    for g in range(1, 30):
        for k in range(1, 300):
            stein = distinct_chern_count(LegendrianRep(2 * g - 1, 0), 1 - k)
            d0, _, d2, _ = dims_z4(g, -k).entries()
            assert stein == d0 + d2 == dims_z2(g, -k).entries()[0], (g, k)
            assert 1 <= min(d0, d2) and max(d0, d2) <= stein - g, (g, k)


@pytest.mark.parametrize("g", range(1, 6))
def test_z4_dims_are_gradedly_exact_in_the_triangle(g):
    # Exactness of (S^3, S^3_n, S^3_{n+1}) under the cor51 degrees bounds each
    # cor52 vector: at a vertex X with incoming map A -> X of degree a and
    # outgoing map X -> B of degree b, where a map of degree k sends grading
    # i to i + k, dim X_i <= dim A_{i-a} + dim B_{i+b}.  With the opposite
    # convention (i to i - k) this fails at 30 of these (g, n) pairs.
    s3 = (1, 0, 0, 0)
    for n in range(-30, 41):
        degs = triangle_degrees(n)
        yn, yn1 = dims_z4(g, n).entries(), dims_z4(g, n + 1).entries()
        vertices = (
            (s3, degs.deg_from_s3, yn, degs.deg_surgery, yn1),
            (yn, degs.deg_surgery, yn1, degs.deg_to_s3, s3),
            (yn1, degs.deg_to_s3, s3, degs.deg_from_s3, yn),
        )
        for a, deg_in, x, deg_out, b in vertices:
            for i in range(4):
                assert x[i] <= a[(i - deg_in) % 4] + b[(i + deg_out) % 4], (n, x, i)


HUGE_GENUS = 3 * 10**200 + 1


def _row(g, n, z4):
    return (n,) + dims_z2(g, n).entries() + (dims_z4(g, n).entries() if z4 else ())


def _flat(regimes):
    """The flat rows of `dims_rows`' `(fixed, rows)` regimes: each row of
    varying entries put into the None slots of its regime's `fixed`."""
    for fixed, rows in regimes:
        for row in rows:
            assert len(row) == fixed.count(None)
            entries = iter(row)
            yield tuple(next(entries) if c is None else c for c in fixed)


# A window anchored at a regime boundary (-1, 0, 1, 2g-1 or 2g) and moved
# by up to 6 slopes either way either crosses that boundary or stays
# inside one regime; width 0 is a one-slope range.
@given(
    g=st.sampled_from([1, 2, 3, 4, 5, 6, HUGE_GENUS]),
    anchor=st.sampled_from(["-1", "0", "1", "2g-1", "2g"]),
    offset=st.integers(-6, 6),
    width=st.integers(0, 14),
    z4=st.booleans(),
)
@example(g=3, anchor="0", offset=-4, width=14, z4=True)  # -4..10: every regime
@example(g=3, anchor="-1", offset=-6, width=4, z4=True)  # -7..-3: n <= -1 only
@example(g=3, anchor="0", offset=0, width=0, z4=False)  # 0: n = 0 only
@example(g=3, anchor="1", offset=1, width=2, z4=True)  # 2..4: 1 <= n <= 2g-1 only
@example(g=3, anchor="2g", offset=2, width=9, z4=False)  # 8..17: n >= 2g only
@example(g=HUGE_GENUS, anchor="2g-1", offset=-1, width=3, z4=True)
def test_dims_rows_match_the_closed_forms(g, anchor, offset, width, z4):
    lo = {"-1": -1, "0": 0, "1": 1, "2g-1": 2 * g - 1, "2g": 2 * g}[anchor] + offset
    slopes = range(lo, lo + width + 1)
    regimes = [(fixed, list(rows)) for fixed, rows in dims_rows(g, slopes, z4)]
    assert all(rows for _, rows in regimes)  # only non-empty regimes are yielded
    rows = list(_flat(regimes))
    assert rows == [_row(g, n, z4) for n in slopes]
    assert all(type(x) is int for row in rows for x in row)
    assert all(type(c) is int or c is None for fixed, _ in regimes for c in fixed)


def test_dims_rows_are_lazy_within_a_regime():
    # The first regime of this range alone holds 10**12 slopes.
    rows = _flat(dims_rows(2, range(-10**12, 10**12), True))
    assert next(rows) == _row(2, -10**12, True)
    assert next(rows) == _row(2, -10**12 + 1, True)


@pytest.mark.parametrize("slopes", [range(-2, 3), range(0, 0)], ids=["range", "empty"])
@pytest.mark.parametrize("g", [0, -3])
def test_dims_rows_refuse_a_bad_genus_at_the_call(g, slopes):
    with pytest.raises(ValueError, match="genus must be >= 1"):
        dims_rows(g, slopes, False)


def test_dims_rows_refuse_a_genus_whose_rows_are_not_ints():
    with pytest.raises(ValueError, match="d0 must be a nonnegative integer, got 4.0"):
        dims_rows(2.5, range(3, 6), False)

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isurg.graded import GradedDimZ2
from isurg.legendrian import LegendrianRep, distinct_chern_count, rotation_numbers_after
from isurg.surgery import dims_z2


def brute_force_rotations(rep, target_tb):
    """Independent oracle: enumerate every stabilization sign sequence."""
    k = rep.tb - target_tb
    return sorted({rep.r + sum(signs) for signs in product((1, -1), repeat=k)})


def test_tb_plus_r_must_be_odd():
    with pytest.raises(ValueError, match="tb \\+ r must be odd, got tb=1, r=1"):
        LegendrianRep(1, 1)
    with pytest.raises(ValueError, match="got tb=0, r=-2"):
        LegendrianRep(0, -2)
    for tb, r in ((1, 0), (0, -1), (-3, 2)):
        rep = LegendrianRep(tb, r)
        assert (rep.tb, rep.r) == (tb, r)


def test_rotation_numbers_examples():
    assert rotation_numbers_after(LegendrianRep(1, 0), -2) == [-3, -1, 1, 3]
    assert rotation_numbers_after(LegendrianRep(1, 0), 1) == [0]
    for n in range(2, 8):
        rots = rotation_numbers_after(LegendrianRep(-1, 0), -n + 1)
        assert len(rots) == n - 1
        assert rots == list(range(-(n - 2), n - 1, 2))


def test_target_above_tb_rejected():
    with pytest.raises(ValueError):
        rotation_numbers_after(LegendrianRep(1, 0), 2)


def test_chern_count_examples():
    assert distinct_chern_count(LegendrianRep(1, 0), -2) == 4
    assert distinct_chern_count(LegendrianRep(3, 0), -2) == 6
    assert distinct_chern_count(LegendrianRep(1, 0), 1) == 1


def test_chern_count_matches_the_set_of_conjugates():
    # The count is arithmetic; its definition is the size of the set of
    # rotation numbers (enumerated in test_matches_brute_force_enumeration)
    # and their conjugates.
    for tb in range(-8, 9):
        for r in range(-12, 13):
            if (tb + r) % 2 == 0:
                continue
            rep = LegendrianRep(tb, r)
            for target in range(tb - 25, tb + 1):
                rots = rotation_numbers_after(rep, target)
                assert distinct_chern_count(rep, target) == len(set(rots) | {-x for x in rots})


def test_chern_count_target_above_tb_rejected():
    with pytest.raises(ValueError, match="target_tb 2 exceeds tb 1"):
        distinct_chern_count(LegendrianRep(1, 0), 2)


@given(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-7, max_value=7),
    st.integers(min_value=0, max_value=12),
)
def test_matches_brute_force_enumeration(tb, r, drops):
    if (tb + r) % 2 == 0:
        r += 1
    rep = LegendrianRep(tb, r)
    target = tb - drops
    assert rotation_numbers_after(rep, target) == brute_force_rotations(rep, target)


@given(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-7, max_value=7),
    st.integers(min_value=0, max_value=20),
)
def test_rotation_parity(tb, r, drops):
    if (tb + r) % 2 == 0:
        r += 1
    rep = LegendrianRep(tb, r)
    rots = rotation_numbers_after(rep, tb - drops)
    assert len(rots) == drops + 1
    assert len({x % 2 for x in rots}) == 1
    for x in rots:
        assert ((tb - drops) + x) % 2 == 1


@pytest.mark.parametrize("g", range(1, 7))
def test_prop41_tight_at_maximal_self_linking(g):
    # Prop 4.1: -n-surgery on a knot with maximal self-linking s has at
    # least s + n in grading 0 and s in grading 1; at s = 2g - 1 that is exact.
    s = 2 * g - 1
    for n in range(1, 31):
        assert dims_z2(g, -n) == GradedDimZ2(s + n, s)

import pickle

import pytest

from isurg.graded import GradedDimZ2, GradedDimZ4, collapse_z4_to_z2


def test_collapse_examples():
    assert collapse_z4_to_z2(GradedDimZ4(1, 0, 1, 1)) == GradedDimZ2(2, 1)
    assert collapse_z4_to_z2(GradedDimZ4(0, 0, 0, 0)) == GradedDimZ2(0, 0)
    assert collapse_z4_to_z2(GradedDimZ4(3, 0, 2, 0)) == GradedDimZ2(5, 0)


def test_negative_entries_rejected():
    with pytest.raises(ValueError, match="d0 must be a nonnegative integer, got -1"):
        GradedDimZ2(-1, 0)
    with pytest.raises(ValueError, match="d2 must be a nonnegative integer, got -2"):
        GradedDimZ4(0, 0, -2, 0)


@pytest.mark.parametrize("cls,size", [(GradedDimZ2, 2), (GradedDimZ4, 4)])
def test_entries_validated_at_every_position(cls, size):
    for i in range(size):
        for bad in (-1, -(10**30), 1.0, 0.5, "1", None):
            entries = [0] * size
            entries[i] = bad
            with pytest.raises(ValueError) as exc:
                cls(*entries)
            assert str(exc.value) == f"d{i} must be a nonnegative integer, got {bad!r}"
        for good in (True, False, 10**30, 10**40 + 7):
            entries = [1] * size
            entries[i] = good
            v = cls(*entries)
            assert v.entries()[i] is good


def test_first_bad_entry_is_reported():
    with pytest.raises(ValueError, match="^d1 must be a nonnegative integer, got -1$"):
        GradedDimZ4(0, -1, "x", None)


def test_vectors_are_frozen_hashable_and_keep_their_repr():
    v = GradedDimZ2(1, 0)
    with pytest.raises(AttributeError):
        v.d0 = 2
    with pytest.raises(AttributeError):
        GradedDimZ4(1, 2, 3, 4).d3 = 0
    with pytest.raises(AttributeError):
        del v.d1
    assert repr(v) == "GradedDimZ2(d0=1, d1=0)"
    assert repr(GradedDimZ4(1, 0, 1, 1)) == "GradedDimZ4(d0=1, d1=0, d2=1, d3=1)"
    assert GradedDimZ2(d0=1, d1=0) == v
    assert hash(GradedDimZ2(1, 0)) == hash(v)
    assert hash(GradedDimZ4(1, 2, 3, 4)) == hash(GradedDimZ4(1, 2, 3, 4))
    assert len({v, GradedDimZ2(1, 0), GradedDimZ2(0, 1)}) == 2
    assert hash(v) == hash((1, 0)) and hash(GradedDimZ4(1, 2, 3, 4)) == hash((1, 2, 3, 4))


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_vectors_pickle_round_trip(protocol):
    for v in (GradedDimZ2(1, 10**30), GradedDimZ4(1, 0, 2, 3)):
        back = pickle.loads(pickle.dumps(v, protocol))
        assert type(back) is type(v) and back == v


def test_vectors_compare_by_type_and_entries():
    assert GradedDimZ2(1, 0) != (1, 0) and (1, 0) != GradedDimZ2(1, 0)
    assert not GradedDimZ2(1, 0) == (1, 0) and not (1, 0) == GradedDimZ2(1, 0)
    assert GradedDimZ4(1, 0, 0, 0) != GradedDimZ2(1, 0) and GradedDimZ2(1, 0) != GradedDimZ4(1, 0, 0, 0)
    assert GradedDimZ2(1, 0) != GradedDimZ2(0, 1) and not GradedDimZ2(1, 0) != GradedDimZ2(1, 0)
    assert GradedDimZ2(3, 4).total() == 7
    assert GradedDimZ4(1, 2, 3, 4).total() == 10


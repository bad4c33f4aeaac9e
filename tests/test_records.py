"""Every checked record refuses a bad field however it is built: by its
constructor, `_make`, `_replace` or (on Python 3.13+) `copy.replace`."""

import copy
import sys
from fractions import Fraction

import pytest

from isurg.graded import GradedDimZ2, GradedDimZ4
from isurg.knots import torus_knot
from isurg.legendrian import LegendrianRep
from isurg.planefield import FillingData
from isurg.triangle import CobordismData, TriangleDegrees

# (valid record, a field and a value it refuses, the refusal, a valid change)
CASES = [
    (torus_knot(2, 3), "genus", 0, "genus must be >= 1", {"name": "K"}),
    (CobordismData(chi=1, sigma=0), "b1_out", -1, "b1_out must be nonnegative", {"chi": 2}),
    (TriangleDegrees(3, 2, 2), "deg_surgery", 0, "triangle degrees must sum to 3 mod 4",
     {"deg_surgery": 3, "deg_to_s3": 1, "deg_from_s3": 3}),
    (LegendrianRep(1, 0), "r", 1, "tb + r must be odd, got tb=1, r=1", {"tb": -1}),
    (FillingData(chi=1, sigma=0), "b1_boundary", -1, "b1_boundary must be nonnegative", {"sigma": 2}),
    (GradedDimZ2(1, 0), "d1", -1, "d1 must be a nonnegative integer, got -1", {"d0": 3}),
    (GradedDimZ4(1, 2, 3, 4), "d2", "x", "d2 must be a nonnegative integer, got 'x'", {"d3": 0}),
]


@pytest.mark.parametrize("record,field,bad,message,change", CASES,
                         ids=[type(case[0]).__name__ for case in CASES])
def test_make_and_replace_run_the_constructors_check(record, field, bad, message, change):
    cls = type(record)
    ways = [
        lambda: cls(**{**record._asdict(), field: bad}),
        lambda: cls._make(bad if name == field else v for name, v in zip(cls._fields, record)),
        lambda: record._replace(**{field: bad}),
    ]
    if sys.version_info >= (3, 13):
        ways.append(lambda: copy.replace(record, **{field: bad}))
    for make in ways:
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message

    changed = record._replace(**change)
    assert type(changed) is cls
    assert changed == cls(**{**record._asdict(), **change})
    assert cls._make(record) == record


def test_replace_still_reads_a_c1_sq_string_as_a_fraction():
    f = FillingData(chi=1, sigma=0)._replace(c1_sq="1/2")
    assert f.c1_sq == Fraction(1, 2) and type(f.c1_sq) is Fraction

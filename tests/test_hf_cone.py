"""A cross-check of `dims_z2` through Heegaard Floer homology.

A torus knot has a lens-space surgery, so it has both a Heegaard Floer and
an instanton L-space surgery, and by the paper's corollary the two theories
then agree for every integral surgery: rank HF-hat(S^3_n(T(p, q))) is the
total of `dims_z2(g, n)`.  Here that rank comes from the Alexander
polynomial alone, through Ozsvath and Szabo's integer-surgery mapping cone
("Knot Floer homology and integer surgeries", AGT 2008).  For an L-space
knot each A-hat_s and B-hat has rank-1 homology ("On knot Floer homology
and lens space surgeries", Topology 2005), so the cone is an F_2 matrix.
The genus is read off the polynomial, not taken from `torus_knot`.

Only the total is compared.  dim ker - dim coker = #A - #B = n, so once the
total agrees the two gradings follow from the euler characteristic.
"""

import json
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isurg import cli
from isurg.knots import torus_knot
from isurg.surgery import dims_z2

KNOTS = [(2, 3), (2, 5), (2, 7), (2, 9), (2, 11), (3, 4), (3, 5), (3, 7), (3, 8), (4, 5), (4, 7), (5, 6)]


def _mul(a, b):
    """The product of two integer polynomials, coefficients constant first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _div(num, den):
    """num / den for a monic den that divides num exactly."""
    num = list(num)
    quotient = [0] * (len(num) - len(den) + 1)
    for i in reversed(range(len(quotient))):
        c = quotient[i] = num[i + len(den) - 1]
        for j, d in enumerate(den):
            num[i + j] -= c * d
    assert not any(num), "not an exact division"
    return quotient


def _t_pow_minus_1(k):
    return [-1] + [0] * (k - 1) + [1]


def alexander(p, q):
    """Coefficients of the Alexander polynomial of T(p, q), constant first:
    (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1))."""
    num = _mul(_t_pow_minus_1(p * q), _t_pow_minus_1(1))
    return _div(_div(num, _t_pow_minus_1(p)), _t_pow_minus_1(q))


def _v(a, g, s):
    """V_s of the symmetrized polynomial with a_s at a[s + g]: the torsion
    coefficient sum_{j >= 1} j * a_{s+j} for s >= 0, and V_{-s} = V_s + s."""
    if s < 0:
        return _v(a, g, -s) - s
    return sum(j * a[s + j + g] for j in range(1, g - s + 1))


def _f2_rank(rows):
    """The rank over F_2 of the rows, each an int bit mask."""
    basis = {}  # highest bit -> row
    for row in rows:
        while row:
            top = row.bit_length()
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return len(basis)


def cone_rank(a, g, n):
    """dim ker + dim coker of the truncated mapping cone for n-surgery: A_s
    for |s| <= b and B_s for -b + n <= s <= b, b = g + |n| + 3.  v-hat_s:
    A_s -> B_s is nonzero iff V_s = 0, and h-hat_s: A_s -> B_{s+n} iff
    H_s = V_{-s} = 0."""
    b = g + abs(n) + 3
    column = {s: 1 << i for i, s in enumerate(range(-b + n, b + 1))}
    rows = [(column.get(s, 0) if _v(a, g, s) == 0 else 0)
            ^ (column.get(s + n, 0) if _v(a, g, -s) == 0 else 0)
            for s in range(-b, b + 1)]
    rank = _f2_rank(rows)
    return len(rows) + len(column) - 2 * rank


def _genus(a):
    assert a == a[::-1] and len(a) % 2 == 1, "not a symmetric polynomial"
    return len(a) // 2


def _disagreements(p, q, slopes):
    """The n in slopes(g) where the cone rank of n-surgery on T(p, q) is not
    the total of dims_z2(g, n); g is read off the polynomial and checked
    against `torus_knot`."""
    a = alexander(p, q)
    g = _genus(a)
    assert g == torus_knot(p, q).genus
    return [n for n in slopes(g) if cone_rank(a, g, n) != dims_z2(g, n).total()]


@pytest.mark.parametrize("p, q", KNOTS)
def test_cone_rank_is_the_instanton_total(p, q):
    assert _disagreements(p, q, lambda g: range(-40, 61)) == []


@pytest.mark.parametrize("p, q", [(2, 3), (3, 4), (5, 6)])
def test_dims_of_a_torus_knot_matches_the_cone(capsys, p, q):
    # The CLI's own path from `torus:P,Q` to the rows.
    assert cli.main(["--format", "json", "dims", "--knot", f"torus:{p},{q}", "--range", "-8:8"]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]
    a = alexander(p, q)
    assert [(r["n"], sum(r["z2"])) for r in rows] == [(n, cone_rank(a, _genus(a), n)) for n in range(-8, 9)]


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_cone_rank_of_a_drawn_torus_knot(data):
    q = data.draw(st.integers(3, 11), label="q")
    p = data.draw(st.integers(2, q - 1).filter(lambda p: gcd(p, q) == 1), label="p")
    assert _disagreements(p, q, lambda g: range(-(2 * g + 3), 2 * g + 4)) == []


def staircase(half):
    """Coefficients, constant first, of the staircase polynomial whose gaps
    between exponents, read from the top, are `half` then `half` reversed:
    coefficients +-1 alternating from +1 at t^g, g = sum(half)."""
    g = sum(half)
    a = [0] * (2 * g + 1)
    exponent = g
    for k, gap in enumerate([0, *half, *reversed(half)]):
        exponent -= gap
        a[exponent + g] = (-1) ** k
    return a


def test_torus_knot_polynomials_are_staircases():
    assert [staircase(half) for half in ([1], [1, 1], [1, 2], [1, 2, 1], [1, 1, 1, 1, 1])] == [
        alexander(p, q) for p, q in ((2, 3), (2, 5), (3, 4), (3, 5), (2, 11))]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 5), max_size=5).map(lambda rest: [1, *rest]))
def test_cone_rank_of_a_drawn_staircase(half):
    """The cone rank of a staircase Alexander polynomial is the total of
    `dims_z2` at every |n| <= 2g + 3.

    Staircases are the shape of every L-space knot's polynomial, first gap 1
    included (Hedden and Watson, "On the geography and botany of knot Floer
    homology", 2018), and cover genera and shapes that no torus knot with
    q <= 11 has.  Not every staircase is the polynomial of a knot, so this
    checks the algebra of the mapping cone that such a knot would have, not
    a knot's Floer homology."""
    a = staircase(half)
    g = _genus(a)
    assert [n for n in range(-(2 * g + 3), 2 * g + 4) if cone_rank(a, g, n) != dims_z2(g, n).total()] == []

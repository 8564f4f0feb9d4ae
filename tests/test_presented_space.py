"""The sparse eliminator `fields.PresentedSpace` against sympy's rref.

The reduced row echelon form of a row space is unique for a fixed column
order, so whatever rows the sparse pivoting picks, its pivot columns, its
reduced rows and the quotient coordinates of `reduce` must equal those read
off sympy's rref of the same rows; `fields.rref` is `PresentedSpace` itself,
so it is no oracle here.  The cases cover QQ (with
`Fraction` entries and integral `Fraction`s), GF(2), GF(3) and GF(97);
empty rows, all-zero rows, duplicate rows and fill-in that cancels to
zero; and every label's relation rows that induction files up to level 6,
against the space that label shares with the labels of equal blocks.
"""

import random
from fractions import Fraction

import pytest

from monostack import graded, parabolic
from monostack.fields import QQ, PresentedSpace, PrimeField

from helpers import eliminations, oracle_rref, record_presentations

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(97)]
FIELD_IDS = ["Q", "F2", "F3", "F97"]


def _entry(rng, field):
    """A small field element; over QQ also non-unit, fractional and
    integral-`Fraction` entries (Fraction(4, 2) is 2)."""
    if field.p:
        return rng.randint(-3, 3) % field.p
    return rng.choice([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(4, 2), Fraction(-3, 3)])


def _random_rows(rng, field, nrows, ncols):
    """Sparse rows with the awkward cases mixed in: an empty row, an
    all-zero row with explicit zeros, a duplicate row, and a row that is
    the difference of two others, whose fill-in cancels to zero."""
    rows = []
    for _ in range(nrows):
        k = rng.randint(0, min(ncols, 4))
        rows.append({j: _entry(rng, field) for j in rng.sample(range(ncols), k)})
    rows.append({})
    if ncols:
        rows.append({j: field.zero for j in rng.sample(range(ncols), min(ncols, 2))})
    if len(rows) > 2:
        rows.append(dict(rng.choice(rows)))
        a, b = rng.sample(rows, 2)
        rows.append({j: a.get(j, 0) - b.get(j, 0) for j in set(a) | set(b)})
    rng.shuffle(rows)
    return rows


def _dense(field, row, ncols):
    return tuple(field.norm(row.get(j, 0)) for j in range(ncols))


def _check(field, ncols, rows, vectors, space=None):
    """`space` (by default a fresh elimination of `rows`) against sympy's
    rref of `rows`, and its `reduce` of each vector, asked twice."""
    if space is None:
        space = PresentedSpace(field, ncols, rows)
    red, pivots = oracle_rref(field, [_dense(field, r, ncols) for r in rows], len(rows), ncols)
    assert space.pivots == pivots
    assert [_dense(field, r, ncols) for r in space.rows] == red[: len(pivots)]
    assert space.free == [j for j in range(ncols) if j not in pivots]
    assert space.dim == ncols - len(pivots)
    assert all(type(x) is int or x.denominator != 1 for r in space.rows for x in r.values())  # no integral Fraction
    for vec in vectors:
        v = list(_dense(field, vec, ncols))
        for row, c in zip(red, pivots):
            f = v[c]
            v = [field.norm(x - f * y) for x, y in zip(v, row)]
        want = tuple(v[j] for j in space.free)
        got = space.reduce(vec)
        assert got == want
        assert space.reduce(dict(vec)) == want  # the memoised coordinates
        assert all(type(x) is int or x.denominator != 1 for x in got)  # no integral Fraction
    for k in range(ncols):
        assert space.unit(k) == space.reduce({k: field.one})


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_random_rows_match_dense_rref(field):
    rng = random.Random(field.p)
    for ncols in (0, 1, 2, 3, 5, 8, 12):
        for nrows in (0, 1, 3, 6, 10, 20):
            rows = _random_rows(rng, field, nrows, ncols)
            vectors = [_random_rows(rng, field, 1, ncols)[0] for _ in range(4)]
            _check(field, ncols, rows, vectors)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_cancelling_fill_in(field):
    """Clearing column 0 from the second row cancels column 1 as well and
    leaves a single entry; the third row then vanishes entirely."""
    two = field.of_int(2)
    rows = [{0: 1, 1: 1, 2: 1}, {0: 1, 1: 1, 2: two}, {0: 1, 1: 1, 2: 1}]
    space = PresentedSpace(field, 3, rows)
    assert (space.pivots, space.free) == ([0, 2], [1])
    _check(field, 3, rows, [{0: 1}, {1: 1, 2: 1}])


def test_rows_are_not_modified():
    rows = [{0: 1, 1: 2}, {0: 1, 1: 3}]
    PresentedSpace(QQ, 2, rows)
    assert rows == [{0: 1, 1: 2}, {0: 1, 1: 3}]


def _three_twists(cone, field):
    alg = graded.graded_algebra(cone, 2, field)
    return graded.direct_sum([graded.twist(alg, alg.labels[i]) for i in (1, 3, 5)])


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
def test_induction_relations_match_dense_rref(nonsimplicial, nat2, field, monkeypatch):
    """Every label's relation rows that `Presentation` hands to
    `fields.present_each` while inducing the cone's three-twist module from
    level 2 to levels 4 and 6, and an N^2 module from level 2 to 6, and
    the space that label got, shared with the labels of equal blocks,
    eliminate as the dense rref of sympy does on the label's own rows."""
    seen = record_presentations(monkeypatch)
    alg2 = graded.graded_algebra(nat2, 2, field)
    n2 = graded.direct_sum([graded.twist(alg2, lab) for lab in alg2.labels[:3]])
    for source, level in ((_three_twists(nonsimplicial, field), 4), (_three_twists(nonsimplicial, field), 6), (n2, 6)):
        parabolic.induce(source, level)
    assert sum(len(rows) for *_, rows, _ in seen) > 1000
    assert eliminations(seen) < len(seen)
    for fld, _, ngens, rows, space in seen:
        _check(fld, ngens, rows, [{k: fld.one} for k in range(0, ngens, 7)], space)

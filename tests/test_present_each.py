"""One elimination per distinct label presentation (`fields.present_each`).

A `PresentedSpace` is a function of (field, ngens, rows), so labels whose
blocks have the same column count and equal rows (compared as dicts) share
one space, and the memo of `PresentedSpace.reduce` lets them share their
action columns too.  The tests check that sharing is invisible: every
label's shared space is the elimination of its own rows, over QQ, GF(2)
and GF(3), on `induce`, `cokernel`, `tensor` and `is_induced_from`; the
constructions build the same modules and verdicts with every block
eliminated on its own; blocks with different rows never share; and the
cone's three-twist module, induced to levels 4 and 8, runs 24 eliminations
for 64 and 512 labels.
"""

import random

import pytest

from helpers import eliminations, random_graded_map, random_module, random_twist_sum, record_presentations
from monostack import fields, graded, parabolic
from monostack.fields import QQ, PresentedSpace, PrimeField

FIELDS = [QQ, PrimeField(2), PrimeField(3)]
FIELD_IDS = ["Q", "F2", "F3"]


def _constructions(nat2, nonsimplicial, field):
    """(name, thunk) for each construction that presents labels: induction
    on N^2 and on the cone, the cokernel of a seeded map, a tensor product,
    and `is_induced_from` at a divisor that passes (both of its
    eliminations run to the end) and at one that fails."""
    rng = random.Random(17 + field.p)
    alg2 = graded.graded_algebra(nat2, 2, field)
    cone2 = graded.graded_algebra(nonsimplicial, 2, field)
    source = random_module(alg2, rng)
    twists = graded.direct_sum([graded.twist(cone2, cone2.labels[i]) for i in (1, 3, 5)])
    induced = parabolic.induce(source, 6)
    f = random_graded_map(random_twist_sum(alg2, rng, 3), random_twist_sum(alg2, rng, 3), rng)
    return [
        ("induce N^2", lambda: parabolic.induce(source, 6)),
        ("induce cone", lambda: parabolic.induce(twists, 4)),
        ("cokernel", lambda: graded.cokernel(f)[0]),
        ("tensor", lambda: graded.tensor(twists, twists)[0]),
        ("is_induced_from passes", lambda: parabolic.is_induced_from(induced, 2)),
        ("is_induced_from fails", lambda: parabolic.is_induced_from(random_module(graded.graded_algebra(nat2, 4, field), rng), 2)),
    ]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_shared_spaces_are_each_labels_own_elimination(nat2, nonsimplicial, field, monkeypatch):
    """Each label's space, shared or not, has the pivots, reduced rows and
    free columns of a fresh `PresentedSpace` of that label's own rows."""
    shared = 0
    for name, build in _constructions(nat2, nonsimplicial, field):
        seen = record_presentations(monkeypatch)
        build()
        monkeypatch.undo()
        assert seen, name
        shared += len(seen) - eliminations(seen)
        for fld, label, ngens, rows, space in seen:
            fresh = PresentedSpace(fld, ngens, rows)
            assert (space.pivots, space.rows, space.free) == (fresh.pivots, fresh.rows, fresh.free), (name, label)
    assert shared > 100


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_sharing_changes_no_module_and_no_verdict(nat2, nonsimplicial, field, monkeypatch):
    """With every block eliminated on its own, so that no two labels share
    a space or a `reduce` memo, the constructions return equal modules and
    the same verdicts."""
    shared = [build() for _, build in _constructions(nat2, nonsimplicial, field)]
    monkeypatch.setattr(fields, "present_each", lambda fld, blocks: ((lab, PresentedSpace(fld, n, rows)) for lab, n, rows in blocks))
    alone = [build() for _, build in _constructions(nat2, nonsimplicial, field)]
    assert shared == alone
    assert shared[-2:] == [True, False]


def test_blocks_share_exactly_when_their_rows_are_equal():
    """Over QQ and GF(3), blocks drawn from a small pool of row lists on
    four and five columns share a space exactly when their column counts
    and rows are equal, the rows compared as dicts (so entries filed in
    another order still share); rows that span the same space but are
    written differently ({0: 2} and {0: 1}, 4 and 1 over GF(3), or the
    same rows in another order) get an elimination each, with equal
    results."""
    rng = random.Random(5)
    for field in (QQ, PrimeField(3)):
        half = field.inv(field.of_int(2))
        pool = [[], [{0: 1}], [{0: 2}], [{0: 4}], [{0: 1, 1: half}], [{1: half, 0: 1}], [{0: 1}, {2: -1}], [{2: -1}, {0: 1}]]
        blocks = [(k, rng.choice((4, 4, 5)), rng.choice(pool)) for k in range(40)]
        spaces = dict(fields.present_each(field, blocks))
        for a, na, ra in blocks:
            fresh = PresentedSpace(field, na, ra)
            assert (spaces[a].pivots, spaces[a].rows, spaces[a].free) == (fresh.pivots, fresh.rows, fresh.free)
            for b, nb, rb in blocks:
                same = na == nb and ra == rb
                assert (spaces[a] is spaces[b]) == same, (ra, rb)


def test_blocks_are_read_lazily():
    """A caller that stops after the first pair reads no later block."""

    def blocks():
        yield "a", 2, [{0: 1}]
        raise AssertionError("a second block was read")

    label, space = next(fields.present_each(QQ, blocks()))
    assert (label, space.free) == ("a", [1])


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_repeated_reduce_returns_an_equal_tuple(field):
    """`reduce` memoises by the entries of the vector: asking again, with an
    equal dict or with the same entries in another order, gives the same
    coordinates as a space that never saw the vector, and a vector with the
    same columns but other coefficients gets its own."""
    rows = [{0: 1, 2: field.of_int(2)}, {1: 1, 3: -1 % field.p if field.p else -1}, {0: 1, 1: 1, 4: 1}]
    space = PresentedSpace(field, 6, rows)
    # {5: 1} and {5: 0} have the same columns and different coordinates
    for vec in ({0: 1}, {2: 1, 0: field.of_int(2)}, {3: 1, 5: 1, 4: field.of_int(-1)}, {}, {5: 1}, {5: field.zero}):
        first = space.reduce(vec)
        assert space.reduce(dict(vec)) == first
        assert space.reduce(dict(reversed(vec.items()))) == first
        assert PresentedSpace(field, 6, rows).reduce(vec) == first


def test_ladder_presents_each_distinct_label_once(nonsimplicial, monkeypatch):
    """The cone's three-twist module induced to levels 4 and 8 has 64 and
    512 labels, and the same 24 distinct label presentations at both."""
    alg = graded.graded_algebra(nonsimplicial, 2)
    source = graded.direct_sum([graded.twist(alg, alg.labels[i]) for i in (1, 3, 5)])
    for level, labels in ((4, 64), (8, 512)):
        seen = record_presentations(monkeypatch)
        parabolic.induce(source, level)
        monkeypatch.undo()
        assert (len(seen), eliminations(seen)) == (labels, 24)

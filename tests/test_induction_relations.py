"""The relation filter of induction against the full relation generator.

`parabolic._induce_with_data` files only the relation blocks that its
canonical unit-pivot rows do not already imply.  That leaves the row space
of every label unchanged, so its reduced row echelon form, which is unique,
must equal the one of `helpers.induction_presentation_oracle`, which files
every block: same generators, pivots, reduced rows and free columns.  The
cases cover four saturated monoids (N, N^2, the cone over (2,1) and (1,2)
and the non-simplicial cone), QQ, GF(2) and GF(3), source levels 1-3 and
ratios 1-3, free, kernel and image modules, and the counit path: every
restriction of each induced module, induced back.

The free module A_m is the sharpest case: a relation block is the same for
every element of every source, so a block that is redundant for A_m is
redundant for all modules.  On the cone over (2,1) and (1,2), A_m needs the
one-sided blocks (x^(qw+gamma) = 0 in A_N) that the unit pivots leave
alive, which the two-sided blocks of N^2 or the A1 cone happen to imply.
"""

import random

import pytest

from helpers import induction_presentation_oracle, random_graded_map, random_module, random_twist_sum
from monostack import fields, graded, parabolic
from monostack.fields import QQ, PresentedSpace, PrimeField
from monostack.infquot import divisors
from monostack.monoid import validate

FIELDS = [QQ, PrimeField(2), PrimeField(3)]
FIELD_IDS = ["Q", "F2", "F3"]


def _assert_same_spaces(pres, want):
    assert pres.gens_per_label == want.gens_per_label
    for lab, space in want.spaces.items():
        got = pres.spaces[lab]
        assert (got.pivots, got.rows, got.free) == (space.pivots, space.rows, space.free), lab.residues


def _assert_same_presentation(sheaf, level):
    _assert_same_spaces(parabolic._induce_with_data(sheaf, level)[1], induction_presentation_oracle(sheaf, level))


def _index_three():
    """The cone over (2,1) and (1,2): Hilbert basis (1,1), (1,2), (2,1)."""
    return validate([(2, 1), (1, 2), (1, 1)])


def _monoids(nat, nat2, nonsimplicial):
    return [(nat, 3), (nat2, 3), (_index_three(), 3), (nonsimplicial, 2)]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_filtered_relations_present_the_same_spaces(nat, nat2, nonsimplicial, field):
    """Induction from levels 1-3 by ratios 1-3 (the cone up to level 4; its
    level-6 counit path is the last test here), then every restriction of
    the induced module induced back."""
    rng = random.Random(7 + field.p)
    cases = 0
    for monoid, top in _monoids(nat, nat2, nonsimplicial):
        for m in range(1, top + 1):
            source = random_module(graded.graded_algebra(monoid, m, field), rng)
            for q in range(1, 4):
                level = m * q
                if monoid is nonsimplicial and level > 4:
                    continue
                _assert_same_presentation(source, level)
                induced = parabolic.induce(source, level)
                for d in divisors(level):
                    _assert_same_presentation(parabolic.restrict(induced, d), level)
                cases += 1 + len(divisors(level))
    assert cases > 100


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_filtered_relations_on_free_modules(nat2, nonsimplicial, field):
    """A_m itself, on every monoid here and the A1 cone."""
    a1 = validate([(0, 1), (1, 1), (2, 1)])
    for monoid, m, level in ((nat2, 2, 6), (a1, 2, 6), (a1, 3, 6), (_index_three(), 2, 4), (_index_three(), 3, 6), (nonsimplicial, 2, 4)):
        free = graded.algebra_as_module(graded.graded_algebra(monoid, m, field))
        _assert_same_presentation(free, level)
        assert parabolic.induce(free, level).total_dim == len(graded.graded_algebra(monoid, level, field).basis)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_filtered_relations_on_kernels_and_images(nat2, nonsimplicial, field):
    """Kernels and images of seeded maps between twist sums, whose actions
    are not the identity blocks of a twist."""
    rng = random.Random(11 + field.p)
    for monoid, m, level in ((nat2, 2, 6), (_index_three(), 3, 6), (nonsimplicial, 2, 4)):
        alg = graded.graded_algebra(monoid, m, field)
        done = 0
        while done < 2:
            f = random_graded_map(random_twist_sum(alg, rng, 3), random_twist_sum(alg, rng, 3), rng)
            for sub, _ in (graded.kernel(f), graded.image(f)):
                if not all(map(fields.mat_eq_zero, sub.action.values())):
                    _assert_same_presentation(sub, level)
                    done += 1


def _filed_rows(monkeypatch, build):
    """What `build` returns, and the number of relation rows that
    `Presentation` hands to `PresentedSpace` while it runs."""
    count = []

    class Counting(PresentedSpace):
        def __init__(self, field, ngens, relations):
            count.append(len(relations))
            super().__init__(field, ngens, relations)

    monkeypatch.setattr(graded, "PresentedSpace", Counting)
    return build(), sum(count)


def test_counit_path_files_at_most_half_the_rows(nonsimplicial, monkeypatch):
    """The cone's three-twist module at level 6, restricted to 3 and induced
    back (the counit of `is_induced_from(ind, 3)`): the filter files at most
    half the rows of the full generator for the same spaces."""
    alg = graded.graded_algebra(nonsimplicial, 2)
    ind = parabolic.induce(graded.direct_sum([graded.twist(alg, alg.labels[i]) for i in (1, 3, 5)]), 6)
    res = parabolic.restrict(ind, 3)
    (_, pres), kept = _filed_rows(monkeypatch, lambda: parabolic._induce_with_data(res, 6))
    want, full = _filed_rows(monkeypatch, lambda: induction_presentation_oracle(res, 6))
    assert 2 * kept <= full, (kept, full)
    _assert_same_spaces(pres, want)

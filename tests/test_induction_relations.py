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

from helpers import (
    eliminations,
    induction_presentation_oracle,
    random_graded_map,
    random_module,
    random_twist_sum,
    record_presentations,
)
from monostack import fields, graded, parabolic
from monostack.fields import QQ, PrimeField
from monostack.infquot import divisors
from monostack.monoid import validate

FIELDS = [QQ, PrimeField(2), PrimeField(3)]
FIELD_IDS = ["Q", "F2", "F3"]


def _assert_same_spaces(pres, want):
    """Equal generators per level-N label index, and at every label index
    the same pivots, reduced rows and free columns."""
    assert pres.gens_per_label == want.gens_per_label
    assert pres.spaces.keys() == want.spaces.keys()
    for t, space in want.spaces.items():
        got = pres.spaces[t]
        assert (got.pivots, got.rows, got.free) == (space.pivots, space.rows, space.free), t


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
                if not all(map(fields.mat_eq_zero, sub.gen_action.values())):
                    _assert_same_presentation(sub, level)
                    done += 1


def _filed(monkeypatch, build):
    """What `build` returns, and the (field, label, columns, relation rows,
    space) entries of `helpers.record_presentations` for its run: one per
    label block handed to `fields.present_each`, before equal blocks share
    a space."""
    seen = record_presentations(monkeypatch)
    out = build()
    monkeypatch.undo()
    return out, seen


def _three_twists(nonsimplicial, level):
    """The cone's three-twist module (ROADMAP "State" table) induced to `level`."""
    alg = graded.graded_algebra(nonsimplicial, 2)
    return parabolic.induce(graded.direct_sum([graded.twist(alg, alg.labels[i]) for i in (1, 3, 5)]), level)


def test_counit_path_files_at_most_half_the_rows(nonsimplicial, monkeypatch):
    """The cone's three-twist module at level 6, restricted to 3 and induced
    back (the counit of `is_induced_from(ind, 3)`): the filter files at most
    half the rows of the full generator for the same spaces."""
    res = parabolic.restrict(_three_twists(nonsimplicial, 6), 3)
    (_, pres), kept = _filed(monkeypatch, lambda: parabolic._induce_with_data(res, 6))
    want, full = _filed(monkeypatch, lambda: induction_presentation_oracle(res, 6))
    assert len(kept) == len(full) == len(pres.spaces)
    kept, full = sum(len(rows) for *_, rows, _ in kept), sum(len(rows) for *_, rows, _ in full)
    assert 0 < 2 * kept <= full, (kept, full)
    _assert_same_spaces(pres, want)


def test_verdict_eliminates_only_own_end_columns(nonsimplicial, monkeypatch):
    """`is_induced_from(ind, 3)` on the cone's three-twist module at level 6
    never reads `graded.Presentation.module`, so it moves no induced
    action, and its label blocks take the 1,110 own-end columns, where the
    presentation of the counit path takes all 31,746 generators.  Both
    count every label's block as filed; equal blocks then share one
    elimination, so the presentation's 216 labels run 81 and the verdict's
    216 run 56."""
    ind = _three_twists(nonsimplicial, 6)
    _, seen = _filed(monkeypatch, lambda: parabolic._induce_with_data(parabolic.restrict(ind, 3), 6))
    assert sum(ngens for _, _, ngens, _, _ in seen) == 31746
    assert (len(seen), eliminations(seen)) == (216, 81)

    def refuse(pres):
        raise AssertionError("is_induced_from read Presentation.module")

    monkeypatch.setattr(graded.Presentation, "module", property(refuse))
    verdict, seen = _filed(monkeypatch, lambda: parabolic.is_induced_from(ind, 3))
    assert verdict is False
    assert sum(ngens for _, _, ngens, _, _ in seen) == 1110
    assert (len(seen), eliminations(seen)) == (216, 56)


def _verdict_modules(monoid, m, level, field, rng):
    """Modules at level `level` and below for the verdict test: a random
    module, an induced module and its restrictions, the kernel, image and
    cokernel of a seeded map, and the zero module."""
    big = graded.graded_algebra(monoid, level, field)
    yield random_module(big, rng)
    induced = parabolic.induce(random_module(graded.graded_algebra(monoid, m, field), rng), level)
    yield induced
    for d in divisors(level)[:-1]:
        yield parabolic.restrict(induced, d)
    f = random_graded_map(random_twist_sum(big, rng, 3), random_twist_sum(big, rng, 3), rng)
    for module, _ in (graded.kernel(f), graded.image(f), graded.cokernel(f)):
        yield module
    yield graded.GradedModule(big, {}, {})


def test_verdict_agrees_with_the_counit_map(nat, nat2, nonsimplicial):
    """`is_induced_from` decides on the own-end generators what `counit_map`
    builds in full: the two agree at every divisor, over QQ, GF(2) and
    GF(3), on N, N^2, the index-3 cone, the A1 cone and the non-simplicial
    cone, and over QQ on the cone's three-twist module at level 6."""
    a1 = validate([(0, 1), (1, 1), (2, 1)])
    cases = [(nat, 2, 6), (nat, 3, 6), (nat2, 2, 4), (nat2, 2, 6), (nat2, 3, 6), (_index_three(), 2, 4), (a1, 2, 4), (nonsimplicial, 2, 4)]
    modules = []
    for field in FIELDS:
        rng = random.Random(13 + field.p)
        modules += [module for case in cases for module in _verdict_modules(*case, field, rng)]
    cases = [(module, divisors(module.level)) for module in modules]
    # at its own level the counit map of the three-twist module presents
    # its 858 dimensions over all of Delta_6 and takes seconds; the smaller
    # modules cover that divisor
    cases.append((_three_twists(nonsimplicial, 6), (1, 2, 3)))
    verdicts = {True: 0, False: 0}
    for module, ds in cases:
        for d in ds:
            flag = parabolic.is_induced_from(module, d)
            assert flag == parabolic.counit_map(module, d).is_isomorphism(), (module.field, module.monoid.generators, module.sizes, d)
            verdicts[flag] += 1
    assert min(verdicts.values()) >= 100, verdicts

"""Coset labels as per-algebra indices, against coset label arithmetic.

A `GradedAlgebra` numbers its labels by their position in `labels` and
keeps one translation table per Hilbert generator; `GradedModule` stores
and acts by those indices.  On N^2, the non-simplicial cone and the
index-2 group <(2,0),(1,1),(0,2)> over denominator 2, at levels 1-6 over
QQ and GF(3), the tables and the chain targets of the Delta monomials
agree with `label_add`, and `act` agrees with the label-keyed composite of
`tests/helpers`.  Labels of another monoid or level are refused.
"""

import random
from fractions import Fraction

import pytest

from helpers import _composite, dense_act, random_module, random_twist_sum
from monostack.errors import LevelMismatch
from monostack.fields import QQ, PrimeField
from monostack.graded import GradedAlgebra, GradedModule, graded_algebra, twist
from monostack.kummer import coset_label, enumerate_labels, label_add, root_extension
from monostack.monoid import validate
from monostack.parabolic import ParabolicSheaf

MONOIDS = {
    "N2": lambda: validate([(1, 0), (0, 1)]),
    "cone": lambda: validate([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]),
    "denom2": lambda: root_extension(validate([(2, 0), (1, 1), (0, 2)]), 2),
}
LEVELS = (1, 2, 3, 4, 5, 6)
FIELDS = (QQ, PrimeField(3))


@pytest.mark.parametrize("name", sorted(MONOIDS))
def test_tables_and_chain_targets_match_label_add(name):
    pres = MONOIDS[name]()
    for n in LEVELS:
        alg = GradedAlgebra(pres, n)
        labels = alg.labels
        assert [alg.index(lab) for lab in labels] == list(range(len(labels)))
        assert sorted(alg.shift) == sorted(alg.generators)
        for g, table in alg.shift.items():
            assert len(table) == len(labels)
            step = alg.label_of(g)
            assert all(labels[t] == label_add(lab, step) for lab, t in zip(labels, table))
        for gamma in alg.basis:
            step = alg.label_of(gamma)
            assert all(labels[alg.target(gamma, i)] == label_add(lab, step) for i, lab in enumerate(labels))


@pytest.mark.parametrize("name", sorted(MONOIDS))
def test_act_matches_label_keyed_composite(name):
    """Random modules (twist sums, kernels and images) at levels 1-6, every
    Delta monomial out of up to six seeded labels of each.  On the cone
    above level 3 the modules are single twists: its hom spaces and the
    schoolbook composites grow fast with the level."""
    pres = MONOIDS[name]()
    rng = random.Random(f"label-index-{name}")
    for n in LEVELS:
        for field in FIELDS:
            alg = graded_algebra(pres, n, field)
            module = random_module(alg, rng) if name != "cone" or n <= 3 else random_twist_sum(alg, rng, 1)
            labels = rng.sample(sorted(module.dims, key=alg.index), min(6, len(module.dims)))
            for gamma in alg.basis:
                for lab in labels:
                    assert dense_act(module, gamma, alg.index(lab)) == _composite(module, gamma, lab)


def test_label_views_round_trip(nat2):
    alg = graded_algebra(nat2, 2)
    module = random_module(alg, random.Random(7))
    assert module.dims == {alg.labels[i]: module.sizes[i] for i in module.support}
    assert module.total_dim == sum(module.dims.values())
    again = GradedModule(alg, module.dims, module.gen_action)
    assert again == module and again.gen_action == module.gen_action


@pytest.mark.parametrize("n", [2, 4])
def test_foreign_labels_are_refused(nat2, n):
    """A level-3 label on a level-2 or level-4 module over N^2, and a label
    over another monoid, raise LevelMismatch instead of making a phantom
    component or a zero twist."""
    alg = graded_algebra(nat2, n)
    zero = alg.zero_label
    third = coset_label(nat2, 3, (Fraction(1, 3), 0))
    other = enumerate_labels(validate([(2, 0), (1, 1), (0, 2)]), n)[1]
    gen = alg.generators[0]
    for lab in (third, other):
        with pytest.raises(LevelMismatch):
            GradedModule(alg, {lab: 1}, {})
        with pytest.raises(LevelMismatch):
            GradedModule(alg, {lab: 0}, {})
        with pytest.raises(LevelMismatch):
            GradedModule(alg, {zero: 1}, {(gen, lab): ((1,),)}, check=False)
        with pytest.raises(LevelMismatch):
            twist(alg, lab)
        with pytest.raises(LevelMismatch):
            ParabolicSheaf(nat2, n, QQ, {zero: 1, lab: 1}, {})
    # a label from a divisor of the level is the same class at level n
    half = coset_label(nat2, 2, (Fraction(1, 2), 0))
    assert GradedModule(alg, {half: 1}, {}).total_dim == 1


def test_monoid_hash_is_cached_per_object():
    """The field hash, stored once per object and never shared with a root
    extension, whose denominator differs."""
    pres = validate([(2, 0), (1, 1), (0, 2)])
    assert hash(pres) == hash((pres.ambient_rank, pres.generators, pres.denominator))
    assert "_hash" in pres.__dict__
    ext = root_extension(pres, 2)
    assert "_hash" not in ext.__dict__
    assert hash(ext) == hash((ext.ambient_rank, ext.generators, 2)) != hash(pres)
    assert hash(validate([(0, 2), (2, 0), (1, 1)])) == hash(pres)

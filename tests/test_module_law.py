"""The module law of graded modules, checked on its generating set.

`GradedModule.validate` checks the law on the pairs of
`GradedAlgebra.module_law` only.  These tests compare its verdicts with
the full multiplication table (`helpers.module_law_oracle`), pin the size
of the generating set, and give one module per family that fails that
family alone, so that no family can be dropped.
"""

import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    _composite,
    corrupt_entry,
    law_family_failures,
    module_law_oracle,
    random_module,
    random_scalar_module,
    random_twist_sum,
)
from monostack.fields import QQ, PrimeField
from monostack.graded import GradedModule, contains_at_level, graded_algebra
from monostack.kummer import label_add
from monostack.monoid import saturate, validate

MONOIDS = {
    "N": lambda: validate([(1,)]),
    "N2": lambda: validate([(1, 0), (0, 1)]),
    "cone": lambda: validate([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]),
    "index2": lambda: saturate(validate([(2, 0), (1, 1), (0, 2)])),
    "wide": lambda: validate([(1, 0), (1, 1), (1, 2)]),
}

FIELDS = (QQ, PrimeField(2), PrimeField(3))


def fr(*vals):
    return tuple(Fraction(v) for v in vals)


def _accepts(module):
    try:
        module.validate()
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("name", sorted(MONOIDS))
def test_law_set_agrees_with_full_table(name):
    """Twist sums, single-entry corruptions of them and random scalar modules,
    at levels 1-3 over QQ, GF(2) and GF(3): the verdicts agree with the full
    table.  The cone at level 3 gets one small case per field (the table
    check is slow there)."""
    pres = MONOIDS[name]()
    rng = random.Random(f"module-law-{name}")
    verdicts = {True: 0, False: 0}
    for level, field in itertools.product((1, 2, 3), FIELDS):
        alg = graded_algebra(pres, level, field)
        small = len(alg.basis) < 20
        for _ in range(8 if small else 1):
            summed = random_twist_sum(alg, rng, 2 if small else 1)
            cases = [summed, corrupt_entry(summed, rng), random_scalar_module(alg, rng)]
            for module in filter(None, cases):
                want = module_law_oracle(module)
                assert _accepts(module) == want, (level, field, module.dims)
                verdicts[want] += 1
    assert verdicts[True] and verdicts[False]


@pytest.mark.parametrize(
    "name, level, sizes",
    [("N2", 6, (7, 0, 1)), ("cone", 2, (19, 2, 6)), ("cone", 3, (40, 8, 6))],
)
def test_law_set_sizes(name, level, sizes):
    """(zero, sums, commuting) pair counts; the full table has |delta
    generators| x |basis| pairs (72 on N^2 at level 6, 140 on the cone at
    level 3)."""
    law = graded_algebra(MONOIDS[name](), level).module_law
    assert (len(law.zero), len(law.sums), len(law.commuting)) == sizes


def test_act_is_the_composite_along_decompose(nonsimplicial):
    rng = random.Random(5)
    alg = graded_algebra(nonsimplicial, 2)
    for _ in range(3):
        module = random_module(alg, rng)
        for gamma in reversed(alg.basis):
            for lab in module.dims:
                assert module.act(gamma, alg.index(lab)) == _composite(module, gamma, lab)


# -- one module per family ----------------------------------------------------


def _module(alg, dims, action):
    """A module from point-keyed dims and (generator, point) -> scalar action."""
    return GradedModule(
        alg,
        {alg.label_of(alg.coords(p)): d for p, d in dims.items()},
        {(alg.coords(g), alg.label_of(alg.coords(p))): ((alg.field.of_int(c),),) for (g, p), c in action.items()},
        check=False,
    )


def _assert_fails_only(module, family):
    assert law_family_failures(module) == {family}
    assert not module_law_oracle(module)
    with pytest.raises(ValueError, match="module law fails"):
        module.validate()


def test_commutator_family_is_needed(nat2):
    """On N^2 at level 2, x^b then x^a is nonzero from 0 but x^a vanishes there."""
    alg = graded_algebra(nat2, 2)
    a, b = fr("1/2", 0), fr(0, "1/2")
    dims = {fr(0, 0): 1, a: 1, b: 1, fr("1/2", "1/2"): 1}
    module = _module(alg, dims, {(b, fr(0, 0)): 1, (a, b): 1})
    _assert_fails_only(module, "C")


def test_zero_family_is_needed(nat):
    """On N at level 2, x^(1/2) acts invertibly although x^(1/2) x^(1/2) = 0."""
    alg = graded_algebra(nat, 2)
    h = fr("1/2")
    module = _module(alg, {fr(0): 1, h: 1}, {(h, fr(0)): 1, (h, h): 1})
    _assert_fails_only(module, "Z")


def test_sum_family_is_needed(nonsimplicial):
    """Monomials in the delta generators with sum in Delta, multiplied without
    the toric relations: on the cone at level 2, a+b = c+m for a, b, c the
    halved unit vectors and m = (1/2, 1/2, -1/2), and the two monomials
    stay apart where the algebra has one basis element."""
    alg = graded_algebra(nonsimplicial, 2)
    gens = alg.delta_generators
    sums = {(): fr(0, 0, 0)}
    frontier = [()]
    while frontier:
        mono = frontier.pop()
        for i, g in enumerate(gens):
            s = alg.multiply(g, sums[mono])
            bigger = tuple(sorted(mono + (i,)))
            if s is not None and bigger not in sums:
                sums[bigger] = s
                frontier.append(bigger)
    by_label = {}
    for mono in sorted(sums):
        by_label.setdefault(alg.label_of(sums[mono]), []).append(mono)
    action = {}
    for lab, monos in by_label.items():
        for i, g in enumerate(gens):
            targets = by_label.get(label_add(lab, alg.label_of(g)), [])
            if targets:
                action[(g, lab)] = tuple(
                    tuple(alg.field.one if t == tuple(sorted(m + (i,))) else alg.field.zero for m in monos)
                    for t in targets
                )
    module = GradedModule(alg, {lab: len(m) for lab, m in by_label.items()}, action, check=False)
    assert module.total_dim > len(alg.basis)
    _assert_fails_only(module, "S")


# -- membership at a level ----------------------------------------------------


def test_contains_at_level_matches_monoid_membership(nonsimplicial):
    """All 343 points of [-1, 1]^3 / 3 against 3x in P."""
    thirds = [Fraction(k, 3) for k in range(-3, 4)]
    verdicts = set()
    for x in itertools.product(thirds, repeat=3):
        want = nonsimplicial.contains(tuple(3 * a for a in x))
        assert contains_at_level(nonsimplicial, 3, x) == want
        verdicts.add(want)
    assert verdicts == {True, False}


def test_wrongly_shaped_matrix_is_rejected(nat2):
    alg = graded_algebra(nat2, 2)
    module = random_twist_sum(alg, random.Random(3))
    key = next(k for k in module.gen_action if k[0] in alg.delta_generators)
    action = dict(module.gen_action)
    action[key] = action[key] + (action[key][0],)
    bad = GradedModule(alg, module.dims, action, check=False)
    assert not module_law_oracle(bad)
    with pytest.raises(ValueError, match="wrong shape"):
        bad.validate()

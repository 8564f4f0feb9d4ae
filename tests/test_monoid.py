import random
from fractions import Fraction

import pytest

from helpers import nat_combination_oracle, random_sharp_saturated
from monostack.errors import EmptyGenerators, NotSaturated, NotSharp
from monostack.lattice import dot, vneg
from monostack.monoid import (
    MonoidElement,
    MonoidPresentation,
    monoid_equal,
    monoid_points,
    saturate,
    validate,
)


def fr(*vals):
    return tuple(Fraction(v) for v in vals)


def test_validate_nat():
    n = validate([(1,)])
    assert n.is_sharp and n.is_saturated and n.is_simplicial
    assert n.hilbert_basis == (fr(1),)


def test_validate_nonsimplicial(nonsimplicial):
    p = nonsimplicial
    assert p.is_sharp and p.is_saturated
    assert not p.is_simplicial
    assert len(p.cone.rays) == 4 and p.group_rank == 3


def test_validate_2_3_not_saturated():
    m = validate([(2,), (3,)])
    assert m.is_sharp and not m.is_saturated
    # oracle: 1 lies in group and cone but is not an N-combination on [0, 10]
    assert not nat_combination_oracle([(2,), (3,)], (1,))
    assert nat_combination_oracle([(2,), (3,)], (7,))


def test_validate_rejects_non_sharp():
    with pytest.raises(NotSharp):
        validate([(1,), (-1,)])
    with pytest.raises(NotSharp):
        validate([(1, 0), (-1, 1), (0, -1)])


def test_validate_rejects_empty():
    with pytest.raises(EmptyGenerators):
        validate([])
    with pytest.raises(EmptyGenerators):
        validate([(0, 0)])


def test_saturate_2_3():
    s = saturate(validate([(2,), (3,)]))
    assert s.generators == ((1,),)
    assert monoid_equal(s, validate([(1,)]))
    # oracle: saturation points on [0, 10] all become N-combinations
    for k in range(11):
        assert s.contains((k,))


def test_saturate_idempotent_and_extensive():
    rng = random.Random(23)
    for _ in range(10):
        p = random_sharp_saturated(rng, rank=2)
        s = saturate(p)
        assert saturate(s).generators == s.generators
        for g in p.rational_generators:
            assert s.contains(g)
    m = validate([(2,), (3,)])
    s = saturate(m)
    assert saturate(s).generators == s.generators
    for g in m.rational_generators:
        assert s.contains(g)


def test_saturate_index_two_sublattice_unchanged():
    e = validate([(2, 0), (1, 1), (0, 2)])
    assert e.is_saturated
    s = saturate(e)
    assert monoid_equal(s, e)
    # oracle over the box [0, 6]^2: group-and-cone membership agrees with
    # bounded N-combination search
    for x in range(7):
        for y in range(7):
            expected = nat_combination_oracle(e.generators, (x, y))
            assert e.contains((x, y)) == expected


def test_hilbert_basis_quadrant(nat2):
    assert nat2.hilbert_basis == (fr(0, 1), fr(1, 0))


def test_hilbert_basis_nonsimplicial(nonsimplicial):
    hb = nonsimplicial.hilbert_basis
    assert sorted(hb) == [fr(0, 0, 1), fr(0, 1, 0), fr(1, 0, 0), fr(1, 1, -1)]
    # each basis element is indecomposable: exhaustive split search under
    # the degree bound given by the positive functional
    ell = nonsimplicial.positive_functional
    pts = monoid_points(nonsimplicial, 1, max(dot(ell, v) for v in hb))
    nonzero = [p for p in pts if any(p)]
    for v in hb:
        for y in nonzero:
            z = tuple(a - b for a, b in zip(v, y))
            if any(z) and z in nonzero:
                pytest.fail(f"{v} decomposes as {y} + {z}")


def test_hilbert_basis_of_saturation():
    assert saturate(validate([(2,), (3,)])).hilbert_basis == (fr(1),)


def test_hilbert_basis_requires_saturation():
    with pytest.raises(NotSaturated):
        validate([(2,), (3,)]).hilbert_basis


def test_hilbert_minimality_random():
    rng = random.Random(31)
    for _ in range(8):
        p = random_sharp_saturated(rng, rank=2)
        hb = p.hilbert_basis
        for i in range(len(hb)):
            rest = [v for j, v in enumerate(hb) if j != i]
            if not rest:
                continue
            # dropping a basis element loses it: bounded-coefficient search
            assert not nat_combination_oracle(rest, hb[i])


def test_contains_examples(nat2, nonsimplicial):
    assert nat2.contains((3, 5))
    assert nonsimplicial.contains((1, 1, -1))
    assert not nonsimplicial.contains((-1, 0, 0))
    assert not nonsimplicial.contains((0, 0, -1))


def test_contains_requires_saturation():
    with pytest.raises(NotSaturated):
        validate([(2,), (3,)]).contains((2,))


def test_contains_agrees_with_brute_force(nat3):
    for x in range(3):
        for y in range(3):
            for z in range(-2, 3):
                v = (x, y, z)
                assert nat3.contains(v) == nat_combination_oracle(
                    nat3.generators, v
                )


def test_simplicial_examples(nat, nat2, nat3, nonsimplicial):
    assert nat.is_simplicial and nat2.is_simplicial and nat3.is_simplicial
    assert not nonsimplicial.is_simplicial
    t = saturate(validate([(1, 0), (1, 1), (1, 2)]))
    assert t.is_simplicial
    assert len(t.cone.rays) == 2 == t.group_rank


def test_sharp_iff_no_opposite_pairs():
    rng = random.Random(41)
    for _ in range(10):
        p = random_sharp_saturated(rng, rank=2)
        for v in p.hilbert_basis:
            if any(v):
                assert not p.contains(vneg(v))
    raw = MonoidPresentation(2, ((1, 0), (-1, 0), (0, 1)))
    assert not raw.is_sharp


def test_monoid_element_membership(nat2):
    e = MonoidElement(nat2, (2, 3))
    assert e.vector == fr(2, 3)
    with pytest.raises(ValueError):
        MonoidElement(nat2, (-1, 0))


def test_monoid_points_levels(nat):
    pts = monoid_points(nat, 3, 1)
    assert pts == [(Fraction(0),), (Fraction(1, 3),), (Fraction(2, 3),), (Fraction(1),)]


def test_contains_generated_deep_element():
    """Membership far from the origin needs no recursion: <2, 3> holds 5001
    (a search about 2,500 steps deep) and not 1, and agrees with the oracle
    on the first few values."""
    pres = validate([(2,), (3,)])
    assert pres.contains_generated((5001,))
    assert not pres.contains_generated((1,))
    fresh = validate([(2,), (3,)])
    for n in range(30):
        assert fresh.contains_generated((n,)) == nat_combination_oracle([(2,), (3,)], (n,), 15)


@pytest.mark.parametrize(
    "gens, denominator, whole",
    [
        ([(1, 0), (0, 1)], 1, True),
        ([(2, 0), (1, 1), (0, 2)], 1, False),
        ([(3, 0), (1, 1), (0, 3)], 3, False),
        ([(1, 0, 1), (1, 2, 1)], 1, False),
    ],
    ids=["Z2", "index2", "denominator3", "rank_deficient"],
)
def test_group_predicate_matches_lattice_membership(gens, denominator, whole):
    """The Smith-form residue test agrees with Hermite-basis coordinates."""
    from itertools import product

    from monostack.lattice import lattice_contains_int

    pres = validate(gens, denominator=denominator)
    member = pres._group_contains_int
    hits = 0
    for y in product(range(-5, 6), repeat=pres.ambient_rank):
        expected = lattice_contains_int(pres.group_basis, y)
        assert member(y) == expected, y
        hits += expected
    assert (hits == 11 ** pres.ambient_rank) == whole
    assert pres._group_is_ambient == whole


@pytest.mark.parametrize(
    "gens",
    [[(1, 0), (0, 1)], [(2, 0), (1, 1), (0, 2)], [(3, 0), (1, 1), (0, 3)], [(1, 0, 1), (1, 2, 1)], [(2, 1), (1, 3)]],
    ids=["Z2", "index2", "index3", "rank_deficient", "index5"],
)
def test_ray_generators_are_the_least_group_points_on_the_rays(gens):
    """k*r for the least k whose Fraction coordinates against the group basis are integers."""
    from math import lcm

    from monostack.lattice import lattice_coords

    pres = validate(gens)
    want = []
    for r in pres.cone.rays:
        k = lcm(*(c.denominator for c in lattice_coords(pres.group_basis, r)))
        want.append(tuple(k * a for a in r))
    assert pres.ray_generators == tuple(want)

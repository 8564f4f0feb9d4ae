"""Differential tests of Delta, the Hilbert basis and the ideal walk bound.

`delta_points` and `_saturation_hilbert_basis` take their candidates from
the half-open parallelepipeds of a triangulation of the rays
(`MonoidPresentation._parallelepipeds`); `ideal_min_generators` walks a
region bounded through `MonoidPresentation.caratheodory_sum`.  Each is
compared on random sharp monoids with the same answer over a larger
region: the `delta_bound` region for Delta, the sum over all ray
generators for the Hilbert basis, and three times the certified bound for
minimal generators.  `delta_points` walks each parallelepiped point's box
as a down-set and solves each ray line in closed form, so it is also
compared with the candidate filter it replaced, which tests every
candidate, and the down-set lemma it rests on is checked through
`in_delta`.
"""

from hypothesis import assume, example, given, settings, strategies as st

from helpers import (
    delta_points_candidates_oracle,
    delta_points_oracle,
    ideal_min_generators_oracle,
    saturation_hilbert_basis_oracle,
)
from monostack.errors import EmptyGenerators, NotSharp
from monostack.ideals import MonoidIdeal, colon_degree_ideal, ideal_min_generators
from monostack.infquot import delta_points, in_delta
from monostack.lattice import dot, enumerate_integer_points, lattice_basis, unscale, vadd
from monostack.monoid import monoid_points, saturate, validate

SETTINGS = settings(max_examples=12, deadline=None, database=None, derandomize=True)

INDEX2 = [(2, 0), (1, 1), (0, 2)]  # the group x + y even has index 2 in Z^2
PLANE = [(2, 0, 2), (1, 3, 1)]  # index 6 in the plane x = z of Z^3
CONE = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]  # four rays, rank three
# six rays, four simplices; q0 = (0, 0, 6) lies on their wall through (-1, -1, 1) and (1, 1, 1)
HEXAGON = [(1, 0, 1), (1, 1, 1), (0, 1, 1), (-1, 0, 1), (-1, -1, 1), (0, -1, 1)]


@st.composite
def sharp_generators(draw):
    """2 to 4 small combinations of a random basis of rank r in Z^d, d = 2..4.

    r < d gives cones that are not full-dimensional and a basis of
    determinant > 1 groups of index > 1; coefficients of -1 make cones with
    more rays than the rank, and those that are not sharp are rejected.
    """
    dim = draw(st.integers(2, 4))
    rank = draw(st.integers(1, dim))
    entry = st.integers(-1, 1)
    basis = draw(st.lists(st.tuples(*[entry] * dim), min_size=rank, max_size=rank))
    coeffs = draw(st.lists(st.lists(st.integers(-1, 2), min_size=rank, max_size=rank), min_size=2, max_size=4))
    return [tuple(sum(c * b[i] for c, b in zip(cs, basis)) for i in range(dim)) for cs in coeffs]


@st.composite
def generators_and_level(draw, top_level):
    """`sharp_generators` and a level up to `top_level[rank]`: the regions of
    the oracles grow like level**rank."""
    gens = draw(sharp_generators())
    return gens, draw(st.integers(1, top_level[len(lattice_basis(gens))]))


def sharp(gens, denominator=1):
    try:
        return validate(gens, denominator=denominator)
    except (EmptyGenerators, NotSharp):
        assume(False)


@SETTINGS
@given(sharp_generators())
@example(INDEX2)
@example(PLANE)
@example(CONE)
def test_hilbert_basis_matches_all_rays_region(gens):
    pres = sharp(gens)
    assert pres._saturation_hilbert_basis == saturation_hilbert_basis_oracle(pres)


@SETTINGS
@given(generators_and_level((1, 4, 4, 3, 2)), st.integers(1, 2))
@example((INDEX2, 4), 1)
@example((PLANE, 3), 2)
@example((CONE, 3), 1)
def test_delta_points_match_delta_bound_region(gens_level, denominator):
    gens, level = gens_level
    pres = saturate(sharp(gens, denominator))
    assert delta_points(pres, level).points == delta_points_oracle(pres, level)


@settings(SETTINGS, max_examples=40)
@given(sharp_generators(), st.integers(1, 6), st.integers(1, 2))
@example(INDEX2, 12, 1)
@example(PLANE, 12, 1)
@example(CONE, 12, 1)
@example(CONE, 24, 1)
@example(HEXAGON, 6, 1)
@example(HEXAGON, 4, 2)
def test_delta_walk_matches_every_candidate_tested(gens, level, denominator):
    """Each Delta point lies in exactly one half-open cone, so a duplicate or
    a missing point (a wrong open coordinate) changes the tuples."""
    pres = saturate(sharp(gens, denominator))
    ds = delta_points(pres, level)
    assert (ds.scaled, ds.residues, ds.delta0_mask) == delta_points_candidates_oracle(pres, level)


@SETTINGS
@given(generators_and_level((1, 4, 4, 3, 2)), st.integers(1, 2))
@example((INDEX2, 3), 1)
@example((PLANE, 2), 2)
@example((CONE, 3), 1)
def test_delta_complement_is_closed_under_ray_steps(gens_level, denominator):
    """Down-set lemma: for x in the cone and not in Delta at level n, and each
    ray generator r, x + r/(n*s) is not in Delta either.  The x are the
    points of (1/(n*s))Z^d in the cone, group points or not, with l(n*s*x) at
    most (n + 1) times the largest l over the ray generators, so n*r is
    among them and outside Delta for each ray generator r."""
    gens, level = gens_level
    pres = saturate(sharp(gens, denominator))
    scale = level * pres.denominator
    ell = pres.positive_functional
    cap = (level + 1) * max(dot(ell, r) for r in pres.ray_generators)
    outside = [y for y in enumerate_integer_points(pres.cone, ell, cap) if not in_delta(pres, unscale(y, scale))]
    assert outside
    for y in outside:
        for r in pres.ray_generators:
            assert not in_delta(pres, unscale(vadd(y, r), scale)), (y, r)


@SETTINGS
@given(generators_and_level((1, 2, 2, 1, 1)), st.lists(st.integers(0, 99), min_size=4, max_size=4))
@example((INDEX2, 2), [1, 3, 0, 2])
@example((PLANE, 2), [4, 1, 2, 3])
@example((CONE, 2), [5, 2, 7, 1])
def test_min_generators_match_oracle_at_three_times_certified(gens_level, picks):
    """Colon and generator ideals of points of (1/level)P with l at most the
    largest l(h) over the Hilbert basis."""
    gens, level = gens_level
    pres = saturate(sharp(gens))
    ell = pres.positive_functional
    small = monoid_points(pres, level, max(dot(ell, h) for h in pres.hilbert_basis))
    a, b, g, h = (small[i % len(small)] for i in picks)
    for ideal in (colon_degree_ideal(pres, level, a, b), MonoidIdeal(pres, level, generators=[g, h])):
        got = ideal_min_generators(ideal)
        ideal.bound = 3 * ideal.certified_bound
        assert got == ideal_min_generators_oracle(ideal)

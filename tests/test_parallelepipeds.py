"""The pulling triangulation and half-open parallelepipeds of `MonoidPresentation._parallelepipeds`.

On random sharp cones in Z^2-Z^4, including groups of index > 1 and cones
that are not full-dimensional: each simplex is rank-many independent ray
generators, the simplices cover the cone's lattice points with disjoint
interiors, and each parallelepiped holds |det| points of the group lattice
(the ray coordinates in the group basis, against a sympy oracle), each
with coefficients in [0, 1).
"""

from fractions import Fraction

from hypothesis import example, given
from sympy import Matrix

from monostack.lattice import enumerate_integer_points
from test_walk_bounds import CONE, INDEX2, PLANE, SETTINGS, sharp, sharp_generators

# Rays whose span has index 8 in Z^3 with quotient Z/2 x Z/4 (Smith divisors
# 1, 2, 4), with the nonzero points of their parallelepiped, so the group is Z^3.
NONCYCLIC_RAYS = [(2, 0, 1), (2, 2, -1), (2, 2, 1)]
NONCYCLIC_POINTS = [(0, 0, 0), (1, 1, 0), (2, 1, 0), (2, 1, 1), (2, 2, 0), (3, 2, 0), (3, 2, 1), (3, 3, 0)]
NONCYCLIC = NONCYCLIC_RAYS + NONCYCLIC_POINTS[1:]


def _coefficients(rays, x):
    """The t with x = sum t_j r_j, by sympy over Q (the rays are independent)."""
    solution, params = Matrix(rays).T.gauss_jordan_solve(Matrix(x))
    assert not params
    return [Fraction(int(t.p), int(t.q)) for t in solution]


def _group_coordinates(pres, v):
    """Rational coordinates of v in the group basis, by sympy."""
    solution, params = Matrix(pres.group_basis).T.gauss_jordan_solve(Matrix(v))
    assert not params
    return list(solution)


@SETTINGS
@given(sharp_generators())
@example(INDEX2)
@example(PLANE)
@example(CONE)
def test_each_simplex_is_rank_many_independent_ray_generators(gens):
    pres = sharp(gens)
    for rays, _ in pres._parallelepipeds:
        assert len(rays) == pres.group_rank
        assert set(rays) <= set(pres.ray_generators)
        assert Matrix(rays).rank() == pres.group_rank


@SETTINGS
@given(sharp_generators())
@example(INDEX2)
@example(PLANE)
@example(CONE)
def test_simplices_cover_the_cone_with_disjoint_interiors(gens):
    """Every group point of the cone with l(x) <= C lies in some simplex's
    closed cone and in the interior (all t_j > 0) of at most one."""
    pres = sharp(gens)
    simplices = [rays for rays, _ in pres._parallelepipeds]
    region = enumerate_integer_points(pres.cone, pres.positive_functional, pres.caratheodory_sum)
    for x in region:
        if not pres._group_contains_int(x):
            continue
        coefficients = [_coefficients(rays, x) for rays in simplices]
        assert any(all(t >= 0 for t in ts) for ts in coefficients), x
        assert sum(all(t > 0 for t in ts) for ts in coefficients) <= 1, x


@SETTINGS
@given(sharp_generators())
@example(INDEX2)
@example(PLANE)
@example(CONE)
@example(NONCYCLIC)
def test_parallelepiped_holds_the_determinant_many_group_points(gens):
    pres = sharp(gens)
    for rays, points in pres._parallelepipeds:
        det = Matrix([_group_coordinates(pres, r) for r in rays]).det()
        assert len(points) == abs(det)
        assert len(set(points)) == len(points)
        assert points[0] == (0,) * pres.ambient_rank
        for p in points:
            assert pres._group_contains_int(p)
            assert all(0 <= t < 1 for t in _coefficients(rays, p))


def test_known_cones():
    """The non-simplicial cone splits into two unimodular simplices; the
    index-2 group x + y even puts (1,1) in the parallelepiped of (2,0), (0,2);
    PLANE's generators are a basis of its group; with (1,1) beside them the
    group is Z^2 and the simplex over (1,0), (1,3) has index 3; the
    parallelepiped of NONCYCLIC_RAYS, found by brute force over a box, is
    read off Smith divisors 1, 2, 4."""
    assert [len(points) for _, points in sharp(CONE)._parallelepipeds] == [1, 1]
    assert sharp(INDEX2)._parallelepipeds == ((((0, 2), (2, 0)), ((0, 0), (1, 1))),)
    assert sharp(PLANE)._parallelepipeds == ((((2, 0, 2), (1, 3, 1)), ((0, 0, 0),)),)
    [(rays, points)] = sharp([(1, 0), (1, 1), (1, 3)])._parallelepipeds
    assert rays == ((1, 0), (1, 3))
    assert sorted(points) == [(0, 0), (1, 1), (1, 2)]
    [(rays, points)] = sharp(NONCYCLIC)._parallelepipeds
    assert rays == tuple(NONCYCLIC_RAYS)
    assert sorted(points) == NONCYCLIC_POINTS

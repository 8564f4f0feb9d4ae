"""The pulling triangulation and half-open parallelepipeds of `MonoidPresentation._parallelepipeds`.

On random sharp cones in Z^2-Z^4, including groups of index > 1 and cones
that are not full-dimensional: each simplex is rank-many independent ray
generators, exactly one half-open simplicial cone holds each group point of
the cone, and each parallelepiped holds |det| points of the group lattice
(the ray coordinates in the group basis, against a sympy oracle), each with
coefficients in [0, 1) on the closed coordinates and (0, 1] on the open ones.
Coordinate j of a simplex is open when a generic interior point, the sum q0
of all ray coordinates perturbed lexicographically by the group basis
vectors, has a negative j-th coefficient in that simplex.
"""

from fractions import Fraction

from hypothesis import example, given
from sympy import Matrix

from monostack.lattice import enumerate_integer_points
from test_walk_bounds import CONE, HEXAGON, INDEX2, PLANE, SETTINGS, sharp, sharp_generators

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


def _opened(pres, rays):
    """The open coordinates of a simplex, by sympy: j is open when the first
    nonzero of (phi*q0, phi_0, phi_1, ...) is negative, phi the j-th column
    of C^-1 (C the ray coordinates in the group basis, rows) and q0 the sum
    of the coordinates of all ray generators."""
    inverse = Matrix([_group_coordinates(pres, r) for r in rays]).inv()
    q0 = Matrix([[sum(c) for c in zip(*(_group_coordinates(pres, r) for r in pres.ray_generators))]])
    return [next(x for x in [(q0 * inverse[:, j])[0], *inverse[:, j]] if x) < 0 for j in range(len(rays))]


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
@example(HEXAGON)
def test_simplices_cover_the_cone_with_disjoint_interiors(gens):
    """Exactly one half-open simplicial cone holds each group point of the
    cone with l(x) <= C.  On CONE, q0 = (2, 2, 0) lies on the wall x = y of
    its two simplices, so the tie-break decides the points of that wall."""
    pres = sharp(gens)
    simplices = [(rays, _opened(pres, rays)) for rays, _ in pres._parallelepipeds]
    region = enumerate_integer_points(pres.cone, pres.positive_functional, pres.caratheodory_sum)
    for x in region:
        if pres._group_contains_int(x):
            holds = [all(t > 0 if o else t >= 0 for t, o in zip(_coefficients(rays, x), opened)) for rays, opened in simplices]
            assert sum(holds) == 1, x


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
        opened = _opened(pres, rays)
        assert points[0] == tuple(map(sum, zip((0,) * pres.ambient_rank, *(r for r, o in zip(rays, opened) if o))))
        for p in points:
            assert pres._group_contains_int(p)
            assert all(0 < t <= 1 if o else 0 <= t < 1 for t, o in zip(_coefficients(rays, p), opened))


def test_known_cones():
    """The non-simplicial cone splits into two unimodular simplices; the
    index-2 group x + y even puts (1,1) in the parallelepiped of (2,0), (0,2);
    PLANE's generators are a basis of its group; with (1,1) beside them the
    group is Z^2 and the simplex over (1,0), (1,3) has index 3; the
    parallelepiped of NONCYCLIC_RAYS, found by brute force over a box, is
    read off Smith divisors 1, 2, 4.  On the cone the perturbed q0 lies on
    the x > y side of the wall x = y, so the simplex over (0, 1, 0) opens it
    and its one point is (0, 1, 0)."""
    assert [points for _, points in sharp(CONE)._parallelepipeds] == [((0, 0, 0),), ((0, 1, 0),)]
    assert sharp(INDEX2)._parallelepipeds == ((((0, 2), (2, 0)), ((0, 0), (1, 1))),)
    assert sharp(PLANE)._parallelepipeds == ((((2, 0, 2), (1, 3, 1)), ((0, 0, 0),)),)
    [(rays, points)] = sharp([(1, 0), (1, 1), (1, 3)])._parallelepipeds
    assert rays == ((1, 0), (1, 3))
    assert sorted(points) == [(0, 0), (1, 1), (1, 2)]
    [(rays, points)] = sharp(NONCYCLIC)._parallelepipeds
    assert rays == tuple(NONCYCLIC_RAYS)
    assert sorted(points) == NONCYCLIC_POINTS

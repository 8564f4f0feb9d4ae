import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from hypothesis import given, settings, strategies as st
from sympy import Matrix

from helpers import cone_oracle, det_frac, in_cone_oracle, random_int_matrix
from monostack.errors import DimensionMismatch, EmptyGenerators, UnboundedRegion
from monostack.lattice import (
    _kernel_line,
    cone_contains,
    cone_from_generators,
    enumerate_integer_points,
    facet_inequalities,
    lattice_basis,
    lattice_contains_int,
    smith_normal_form,
    dot,
    unscale,
)


def mat_mul_int(a, b):
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a
    )


def test_snf_identity():
    snf = smith_normal_form(((1, 0), (0, 1)))
    assert snf.divisors == (1, 1)
    assert snf.d == ((1, 0), (0, 1))


def test_snf_diag_2_3():
    a = ((2, 0), (0, 3))
    snf = smith_normal_form(a)
    assert snf.divisors == (1, 6)
    assert mat_mul_int(mat_mul_int(snf.u, a), snf.v) == snf.d
    assert snf.divisors[1] % snf.divisors[0] == 0


def test_snf_scaled_identity_has_repeated_divisors():
    for r in (1, 2, 3):
        for n in (2, 3, 4, 6):
            a = tuple(
                tuple(n if i == j else 0 for j in range(r)) for i in range(r)
            )
            assert smith_normal_form(a).divisors == (n,) * r


def test_snf_roundtrip_random():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = random_int_matrix(rng, rows, cols)
        snf = smith_normal_form(a)
        assert mat_mul_int(mat_mul_int(snf.u, a), snf.v) == snf.d
        assert abs(det_frac(snf.u)) == 1
        assert abs(det_frac(snf.v)) == 1
        divs = [d for d in snf.divisors if d]
        for x, y in zip(divs, divs[1:]):
            assert y % x == 0
        # zeros trail
        seen_zero = False
        for d in snf.divisors:
            if d == 0:
                seen_zero = True
            else:
                assert not seen_zero


def test_facets_quadrant():
    assert facet_inequalities([(1, 0), (0, 1)]) == [(0, 1), (1, 0)]


def test_facets_nonsimplicial_cone_match_inequalities():
    facets = facet_inequalities([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
    assert sorted(facets) == [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)]


def test_facets_mixed_dimension_rejected():
    with pytest.raises(DimensionMismatch):
        facet_inequalities([(1, 0), (0, 1, 0)])


def test_facets_of_a_plane_in_z4():
    """A 2-dimensional cone in Z^4: the annihilator has dimension 2, so its
    +/- pairs are the reduced-echelon null vectors (1,-1,1,0) and e4."""
    cone = cone_from_generators([(1, 1, 0, 0), (0, 1, 1, 0)])
    assert cone.facets == (
        (-1, 1, -1, 0), (-1, 1, 2, 0), (0, 0, 0, -1), (0, 0, 0, 1), (1, -1, 1, 0), (2, 1, -1, 0),
    )
    assert cone.rays == ((0, 1, 1, 0), (1, 1, 0, 0))


@st.composite
def sublattice_generators(draw):
    """1 to 6 integer vectors in Z^d, d <= 4, spanning a sublattice of rank r <= d
    (r = 0 gives zero vectors), with repeats and zero vectors allowed."""
    dim = draw(st.integers(1, 4))
    rank = draw(st.integers(0, dim))
    entry = st.integers(-3, 3)
    basis = draw(st.lists(st.tuples(*[entry] * dim), min_size=rank, max_size=rank))
    coeffs = draw(st.lists(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank), min_size=1, max_size=6))
    return [tuple(sum(c * b[i] for c, b in zip(cs, basis)) for i in range(dim)) for cs in coeffs]


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(sublattice_generators())
def test_facets_and_rays_match_rational_oracle(gens):
    cone = cone_from_generators(gens)
    assert (cone.facets, cone.rays) == cone_oracle(gens)


@st.composite
def kernel_rows(draw):
    """A (dim - 1) x dim integer matrix, dim = 1..5; about half the time its
    last row is a combination of the others (often zero), so its rank drops."""
    dim = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim), min_size=dim - 1, max_size=dim - 1))
    if rows and draw(st.booleans()):
        cs = draw(st.lists(st.integers(-2, 2), min_size=len(rows) - 1, max_size=len(rows) - 1))
        rows[-1] = [sum(c * r[i] for c, r in zip(cs, rows)) for i in range(dim)]
    return rows, dim


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(kernel_rows())
def test_kernel_line_matches_sympy_nullspace(case):
    """The cofactor line is the primitive generator of a one-dimensional
    kernel, up to sign, and None when the kernel is larger."""
    rows, dim = case
    null = Matrix(len(rows), dim, [a for row in rows for a in row]).nullspace()
    got = _kernel_line(rows, dim)
    if len(null) != 1:
        assert got is None
        return
    v = null[0] * lcm(*(int(a.q) for a in null[0]))
    v = [int(a) // gcd(*(int(b) for b in v)) for a in v]
    assert got in (tuple(v), tuple(-a for a in v))


def test_lattice_imports_no_field_arithmetic():
    """Cone geometry is integer elimination: `lattice` imports neither the
    coefficient-field module nor QQ, which serve modules only."""
    import ast
    from pathlib import Path

    import monostack.lattice

    names = set()
    for node in ast.walk(ast.parse(Path(monostack.lattice.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    assert not {n for n in names if n.rsplit(".", 1)[-1] in ("fields", "QQ")}, names


def test_facets_single_ray_cuts_exactly_the_ray():
    cone = cone_from_generators([(2, 1)])
    rng = random.Random(3)
    for _ in range(200):
        x = (Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
             Fraction(rng.randint(-8, 8), rng.randint(1, 4)))
        assert cone_contains(cone, x) == in_cone_oracle([(2, 1)], x)


def test_facet_generator_duality_random():
    rng = random.Random(11)
    for _ in range(12):
        dim = rng.randint(1, 4)
        gens = [
            tuple(rng.randint(-3, 3) for _ in range(dim))
            for _ in range(rng.randint(1, 6))
        ]
        if all(all(a == 0 for a in g) for g in gens):
            continue
        cone = cone_from_generators(gens)
        for _ in range(100):
            x = tuple(
                Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dim)
            )
            assert cone_contains(cone, x) == in_cone_oracle(gens, x)


def test_cone_contains_examples():
    quadrant = cone_from_generators([(1, 0), (0, 1)])
    assert cone_contains(quadrant, (0, 0))
    assert not cone_contains(quadrant, (1, -1))
    cone = cone_from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
    # violates a1 + a3 >= 0
    assert not cone_contains(cone, (0, 0, -1))
    assert dot((1, 0, 1), (0, 0, -1)) == -1


def test_cone_contains_dimension_mismatch():
    quadrant = cone_from_generators([(1, 0), (0, 1)])
    with pytest.raises(DimensionMismatch):
        cone_contains(quadrant, (1, 2, 3))


def test_enumerate_segment():
    cone = cone_from_generators([(1,)])
    pts = [unscale(y, 3) for y in enumerate_integer_points(cone, (1,), 3)]
    assert pts == [(Fraction(0),), (Fraction(1, 3),), (Fraction(2, 3),), (Fraction(1),)]


def test_enumerate_simplex():
    cone = cone_from_generators([(1, 0), (0, 1)])
    pts = [unscale(y, 1) for y in enumerate_integer_points(cone, (1, 1), 1)]
    assert pts == [
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(0)),
    ]


def test_enumerate_nonsimplicial_contains_generators():
    gens = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]
    cone = cone_from_generators(gens)
    ell = tuple(sum(f[i] for f in cone.facets) for i in range(3))
    bound = sum(dot(ell, g) for g in gens)
    pts = [unscale(y, 1) for y in enumerate_integer_points(cone, ell, bound)]
    for g in gens:
        assert tuple(Fraction(a) for a in g) in pts
    # independent brute-force box scan
    cap = bound
    brute = []
    for x in range(-cap, cap + 1):
        for y in range(-cap, cap + 1):
            for z in range(-cap, cap + 1):
                v = (x, y, z)
                if dot(ell, v) <= cap and all(dot(f, v) >= 0 for f in cone.facets):
                    brute.append((Fraction(x), Fraction(y), Fraction(z)))
    assert sorted(brute) == pts


def test_enumerate_closed_under_predicate():
    gens = [(2, 1), (1, 2)]
    cone = cone_from_generators(gens)
    ell = tuple(sum(f[i] for f in cone.facets) for i in range(2))
    pts = [unscale(y, 2) for y in enumerate_integer_points(cone, ell, 10)]
    assert pts
    for p in pts:
        assert cone_contains(cone, p)
        assert dot(ell, p) <= 5
        assert all((2 * a).denominator == 1 for a in p)


def test_enumerate_unbounded_rejected():
    cone = cone_from_generators([(1, 0), (0, 1)])
    with pytest.raises(UnboundedRegion):
        enumerate_integer_points(cone, (1, -1), 3)


def test_lattice_basis_membership():
    basis = lattice_basis([(2, 0), (1, 1), (0, 2)])
    assert lattice_contains_int(basis, (3, 1))
    assert not lattice_contains_int(basis, (1, 0))
    assert lattice_contains_int(basis, (4, 2))
    assert not lattice_contains_int(basis, (0, 1))
    rng = random.Random(5)
    for _ in range(50):
        coeffs = [rng.randint(-4, 4) for _ in basis]
        v = tuple(
            sum(c * row[i] for c, row in zip(coeffs, basis)) for i in range(2)
        )
        assert lattice_contains_int(basis, v)


def test_enumeration_leaves_no_cyclic_garbage(nonsimplicial):
    """The raw point list is freed as soon as the caller drops it."""
    import gc

    from monostack.lattice import enumerate_integer_points

    cone, ell = nonsimplicial.cone, nonsimplicial.positive_functional
    gc.collect()
    gc.disable()
    try:
        pts = enumerate_integer_points(cone, ell, 24)
        assert pts
        del pts
        assert gc.collect() == 0
    finally:
        gc.enable()


def _box_points(cone, ell, cap):
    """Brute force: every integer point of a box that holds the region.

    A region point is a nonnegative combination sum t_g g of the
    generators with sum t_g l(g) <= cap, so |y_i| <= cap * max |g_i| / l(g).
    """
    from itertools import product

    radius = [
        max(cap * abs(g[i]) // dot(ell, g) for g in cone.generators)
        for i in range(cone.dim)
    ]
    box = product(*(range(-r, r + 1) for r in radius))
    return sorted(
        y for y in box if dot(ell, y) <= cap and all(dot(f, y) >= 0 for f in cone.facets)
    )


def _random_functional(rng, cone):
    """A random integer functional positive on every generator, or the
    facet sum when a few hundred draws find none."""
    from monostack.lattice import positive_functional_of

    for _ in range(300):
        ell = tuple(rng.randint(-2, 4) for _ in range(cone.dim))
        if all(dot(ell, g) > 0 for g in cone.generators):
            return ell
    return positive_functional_of(cone)


def _random_cones(rng):
    from monostack.errors import NotSharp
    from monostack.monoid import validate

    cones = []
    while len(cones) < 6:
        dim = rng.choice([2, 3])
        gens = [tuple(rng.randint(-2, 3) for _ in range(dim)) for _ in range(rng.randint(2, 4))]
        try:
            validate(gens)
        except (NotSharp, EmptyGenerators):
            continue
        cones.append(cone_from_generators(gens))
    # a plane in Z^3 and a ray in Z^2: their facets include +/- span pairs
    cones.append(cone_from_generators([(1, 0, 2), (0, 1, 1), (1, 1, 3)]))
    cones.append(cone_from_generators([(1, 2)]))
    return cones


def test_enumerate_integer_points_matches_box_oracle():
    from monostack.lattice import enumerate_integer_points, positive_functional_of

    rng = random.Random(11)
    cones = _random_cones(rng)
    assert any(tuple(-a for a in f) in c.facets for c in cones for f in c.facets)
    for cone in cones:
        for ell in (positive_functional_of(cone), _random_functional(rng, cone)):
            top = _box_points(cone, ell, 12)
            for cap in range(13):
                expected = [y for y in top if dot(ell, y) <= cap]
                assert enumerate_integer_points(cone, ell, cap) == expected, (cone, ell, cap)

"""Sharp fine saturated affine monoids.

A presentation stores integer generators in an ambient lattice Z^d plus a
scale denominator s >= 1; the monoid it presents is generated by the
rational vectors g/s.  Root extensions keep all arithmetic integral by
bumping the denominator, so the same integer data serves every level.

Derived data is computed from the generators and never read from input.
The integer model does not depend on the denominator (y/s is in the cone,
group or N-span of the g/s iff y is in that of the g), so root extensions
share P's `INTEGER_MODEL` values by reference; so does the saturation, which
has the same cone and group, except the two that read the generator list:
its membership memo starts empty and its `is_saturated` is True by proof.
Membership in the group P^gp is one integer predicate per monoid: nothing
to test when the group is Z^d, else one residue test per Smith invariant
factor of the group basis (the proof is at `_group_tests`).
`_contains_int(y)` tests y/s in P, so y = n*s*x tests x in (1/n)P.
The Hilbert basis, the Delta slices (`infquot.delta_points`) and the
Delta points of one class (`infquot.delta_class`) are read off
`_simplices`, a triangulation of the cone with the group points
of each simplex's half-open parallelepiped, not off a walk.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import floor, gcd, lcm
from operator import ge

from . import lattice
from .errors import DimensionMismatch, EmptyGenerators, EnumerationBudget, MalformedInput, NotSaturated, NotSharp
from .lattice import (
    RationalCone,
    Record,
    as_fractions,
    cone_from_generators,
    dot,
    facet_values,
    int_from_json,
    is_zero_vector,
    lattice_basis,
    primitive_directions,
    scale_to_ints,
    unscale,
    vscale,
    vsub,
)


# Derived data fixed by (ambient_rank, generators), never by the denominator.
INTEGER_MODEL = ("cone", "group_basis", "positive_functional", "is_sharp", "is_saturated", "is_simplicial",
                 "_group_is_ambient", "_group_tests", "_group_contains_int", "ray_generators", "caratheodory_sum",
                 "_simplices", "_saturation_hilbert_basis", "_toric_moves", "_in_generated_memo")


class MonoidPresentation(Record):
    """A finitely generated submonoid of (1/denominator) * Z^d.

    Use `validate` to construct one; it normalizes the generator list and
    rejects non-sharp input.  Derived data is cached in `__dict__`.
    """

    def __init__(self, ambient_rank, generators, denominator=1):
        self.ambient_rank, self.generators, self.denominator = ambient_rank, generators, denominator

    def _key(self):
        return self.ambient_rank, self.generators, self.denominator

    def rebuilt(self, denominator, generators=None):
        """These generators, or others with the same cone and group, over `denominator`.

        INTEGER_MODEL values computed so far are passed by reference; other
        generators (the saturation's) get the cone's facets and rays, and
        recompute the two values that read the generator list.
        """
        gens = self.generators if generators is None else generators
        other = MonoidPresentation(self.ambient_rank, gens, denominator)
        shared = {k: v for k, v in self.__dict__.items() if k in INTEGER_MODEL}
        if gens != self.generators:
            shared.pop("is_saturated", None)
            shared.pop("_in_generated_memo", None)
            cone = self.cone
            shared["cone"] = RationalCone(cone.dim, tuple(sorted(primitive_directions(gens))), cone.facets, cone.rays)
        other.__dict__.update(shared)
        return other

    @cached_property
    def _hash(self):
        return hash(self._key())

    def __hash__(self):
        """The hash of (ambient_rank, generators, denominator), computed once
        per object: every coset label and memo key over the monoid hashes it."""
        return self._hash

    # -- basic derived data -------------------------------------------------

    @cached_property
    def cone(self) -> RationalCone:
        return cone_from_generators(self.generators)

    @cached_property
    def group_basis(self):
        """Hermite row basis of the integer lattice spanned by generators."""
        return lattice_basis(self.generators)

    @property
    def group_rank(self):
        return len(self.group_basis)

    @cached_property
    def rational_generators(self):
        return tuple(unscale(g, self.denominator) for g in self.generators)

    @cached_property
    def positive_functional(self):
        """Integer functional strictly positive on the cone minus 0 (sharp)."""
        return lattice.positive_functional_of(self.cone)

    # -- flags ---------------------------------------------------------------

    @cached_property
    def is_sharp(self):
        ell = self.positive_functional
        return all(dot(ell, g) > 0 for g in self.generators)

    @cached_property
    def is_saturated(self):
        return all(
            self._in_generated_int(v) for v in self._saturation_hilbert_basis
        )

    @cached_property
    def is_simplicial(self):
        return len(self.cone.rays) == self.group_rank

    # -- integer-model helpers ----------------------------------------------

    @cached_property
    def _group_is_ambient(self):
        """The group is Z^d: its Hermite basis is the identity."""
        d = self.ambient_rank
        return self.group_basis == tuple(tuple(int(i == j) for j in range(d)) for i in range(d))

    @cached_property
    def _group_tests(self):
        """Pairs (col, m) with y in P^gp iff col*y = 0 mod m for each (mod 0: equal).

        With the Smith form U*B*V = D of the Hermite basis B (r rows, U and
        V unimodular), y = x*B for an integer x iff y*V = (x*U^-1)*D, and
        x*U^-1 runs over all of Z^r as x does.  So y lies in the row span
        of B iff y*V lies in the row span of D: (y*V)_j = 0 mod d_j for
        j < r and (y*V)_j = 0 for j >= r.  Columns with d_j = 1 impose
        nothing, and the identity basis (the group is Z^d) none at all.
        """
        if self._group_is_ambient:
            return ()
        snf = lattice.smith_normal_form(self.group_basis)
        moduli = snf.divisors + (0,) * (self.ambient_rank - self.group_rank)
        return tuple((col, m) for col, m in zip(zip(*snf.v), moduli) if m != 1)

    @cached_property
    def _group_contains_int(self):
        """Integer predicate y in P^gp, built once per monoid from `_group_tests`."""
        tests = self._group_tests
        if not tests:
            return lambda y: True

        def contains(y):
            for col, m in tests:
                s = dot(col, y)
                if (s % m if m else s) != 0:
                    return False
            return True

        return contains

    def _contains_int(self, y):
        """y/s in P for an integer vector y, P saturated: cone and group tests."""
        return all(dot(f, y) >= 0 for f in self.cone.facets) and self._group_contains_int(y)

    def _scaled(self, x, level=1):
        """level*s*x as an int tuple (s the denominator), or None if not integral.

        A point of another dimension raises DimensionMismatch.
        """
        if len(x) != self.ambient_rank:
            raise DimensionMismatch(f"point of dim {len(x)} against cone of dim {self.ambient_rank}")
        return scale_to_ints(x, level * self.denominator)

    @cached_property
    def _in_generated_memo(self):
        return {}

    def _in_generated_int(self, x):
        """Exact N-combination membership in the integer generator model.

        Depth-first search over x - g for the generators g, on an explicit
        stack of (point, next generator index) so that deep points do not
        exhaust the recursion limit; every visited point is memoized.
        """
        x = tuple(int(a) for a in x)
        if is_zero_vector(x):
            return True
        memo = self._in_generated_memo
        hit = memo.get(x)
        if hit is not None:
            return hit
        gens = self.generators
        memo[x] = False  # cycle guard; generators have positive functional
        stack = [(x, 0)]
        found = False  # the answer for the last point finished
        while stack:
            y, i = stack.pop()
            while not found and i < len(gens):
                z = vsub(y, gens[i])
                i += 1
                if all(dot(f, z) >= 0 for f in self.cone.facets):
                    found = is_zero_vector(z) or memo.get(z)
                    if found is None:
                        memo[z] = found = False
                        stack += [(y, i), (z, 0)]
                        break
            else:
                memo[y] = found
        return found

    @cached_property
    def ray_generators(self):
        """The extreme ray generators primitive in the group lattice L, in the integer model.

        Each is the least point of L on its ray, so it is indecomposable in
        L cap cone: a Hilbert generator of the saturation.  The rays span
        the span of L, so of the `_group_tests` only those mod m > 0 bind:
        k*r is in L iff m/gcd(m, col*r) divides k for each.
        """
        tests = [(col, m) for col, m in self._group_tests if m]
        return tuple(vscale(lcm(*(m // gcd(m, dot(col, r)) for col, m in tests)), r) for r in self.cone.rays)

    @cached_property
    def caratheodory_sum(self):
        """C = the sum of the d largest l(r) over `ray_generators` (d the rank, l the
        positive functional).

        By Caratheodory every x in the cone is sum t_j r_j with t_j >= 0 over
        d linearly independent ray generators r_j, so l(x) < C as soon as
        every t_j < 1.  This bounds the walk for minimal generators of
        monomial ideals.
        """
        ell = self.positive_functional
        return sum(sorted(dot(ell, r) for r in self.ray_generators)[-self.group_rank:])

    @cached_property
    def _simplices(self):
        """A pulling triangulation of `ray_generators`, one `lattice.HalfOpenSimplex`
        per simplex: its rays r_1..r_d, e*C^-1 (C their coordinates in the
        group basis), the open coordinates and the [L : sum Z r_j] = |det C|
        points of the group lattice L in its half-open parallelepiped, in the
        integer model (`lattice.pulling_triangulation`,
        `lattice.half_open_simplex`).  Coordinates open against q0, the sum
        of the ray coordinates in the group basis, so the half-open cones
        partition the cone.  The points sum |det C| are counted first, and
        past `lattice.ENUMERATION_BUDGET` of them it raises `EnumerationBudget`
        before enumerating any.
        """
        rays = self.ray_generators
        if self._group_is_ambient:
            coords = rays
        else:
            coords = tuple(lattice.lattice_coords_int(self.group_basis, r) for r in rays)
        interior = tuple(map(sum, zip(*coords)))
        simplices = lattice.pulling_triangulation(rays, self.cone.facets)
        count = sum(abs(lattice._det([coords[i] for i in simplex])) for simplex in simplices)
        if count > lattice.ENUMERATION_BUDGET:
            raise EnumerationBudget(
                f"the triangulation has {count} parallelepiped points, past the budget of {lattice.ENUMERATION_BUDGET}"
            )
        return tuple(
            lattice.half_open_simplex([rays[i] for i in simplex], [coords[i] for i in simplex], interior)
            for simplex in simplices
        )

    @property
    def _parallelepipeds(self):
        """Pairs (rays, parallelepiped points) of `_simplices`."""
        return tuple((s.rays, s.points) for s in self._simplices)

    @cached_property
    def _saturation_hilbert_basis(self):
        """Hilbert basis of group lattice and cone, in the integer model, lex-sorted.

        An indecomposable x of L cap cone is sum t_j r_j, t_j >= 0 (> 0 on the
        open j), in a half-open cone of `_simplices`.  If some t_j >= 1,
        x - r_j is in L cap cone and x decomposes unless x = r_j.  So x is a
        ray generator or a nonzero point of that half-open parallelepiped: a
        candidate (one with u_j = 1 is p + r_j, decomposable unless it is r_j).
        A candidate x is dropped when x - y is in the cone (so in L cap cone,
        and nonzero) for another candidate y, which decomposes x.  A
        decomposable x = a + b has a Hilbert generator h with a - h in L cap
        cone: a candidate other than x with x - h in the cone.  So exactly
        the indecomposables stay.
        """
        facets = self.cone.facets
        candidates = set(self.ray_generators)
        candidates.update(p for s in self._simplices for p in s.points if any(p))
        values = [(x, facet_values(facets, x)) for x in sorted(candidates)]
        return tuple(
            x
            for x, fx in values
            if not any(y != x and all(map(ge, fx, fy)) for y, fy in values)
        )

    @cached_property
    def _toric_moves(self):
        """A minimal generating set of the toric ideal I_H of the Hilbert basis H
        (`_saturation_hilbert_basis`), in the integer model: pairs (u, v) of
        exponent vectors over H with sum u_j h_j = sum v_j h_j, from
        `lattice.toric_moves`.  So k[x_h : h in H]/I_H is the semigroup ring of
        the saturation; the graded layer checks its modules against these moves.
        """
        hb = self._saturation_hilbert_basis
        return lattice.toric_moves(hb, [dot(self.positive_functional, h) for h in hb])

    # -- public operations ----------------------------------------------------

    @property
    def integer_hilbert_basis(self):
        """`hilbert_basis` in the integer model (the s*x); needs saturation."""
        if not self.is_saturated:
            raise NotSaturated("Hilbert basis is computed for saturated monoids")
        return self._saturation_hilbert_basis

    @cached_property
    def hilbert_basis(self):
        """Minimal generating set, as rational vectors; needs saturation."""
        return tuple(unscale(v, self.denominator) for v in self.integer_hilbert_basis)

    def contains(self, x):
        """Membership x in P for saturated P: group and cone membership."""
        if not self.is_saturated:
            raise NotSaturated("membership test requires a saturated monoid")
        xi = self._scaled(x)
        return xi is not None and self._contains_int(xi)

    def contains_generated(self, x):
        """Membership in the generated (possibly unsaturated) monoid.  A point
        outside the cone needs no separate test: so is every x - g."""
        xi = self._scaled(x)
        return xi is not None and self._in_generated_int(xi)


class MonoidElement(Record):
    def __init__(self, owner, vector):
        self.owner, self.vector = owner, as_fractions(vector)
        if not owner.contains(self.vector):
            raise ValueError(f"{lattice.vec_key(self.vector)} is not an element of the monoid")

    def _key(self):
        return self.owner, self.vector


def validate(generators, ambient_rank=None, denominator=1):
    """Build a sharp monoid presentation from integer generators.

    Zero vectors are dropped and duplicates folded; the generator list is
    sorted so equal monoid input yields byte-equal presentations.  Raises
    EmptyGenerators when nothing is left and NotSharp when the generated
    cone contains a line.
    """
    gens = []
    for g in generators:
        t = tuple(int(a) for a in g)
        if ambient_rank is None:
            ambient_rank = len(t)
        if len(t) != ambient_rank:
            raise DimensionMismatch("generators of mixed ambient rank")
        if not is_zero_vector(t) and t not in gens:
            gens.append(t)
    if not gens:
        raise EmptyGenerators("a monoid presentation needs a nonzero generator")
    pres = MonoidPresentation(
        ambient_rank=ambient_rank,
        generators=tuple(sorted(gens)),
        denominator=int(denominator),
    )
    if not pres.is_sharp:
        raise NotSharp("the generated cone contains a line")
    return pres


def monoid_to_json(pres):
    out = {
        "ambient_rank": pres.ambient_rank,
        "generators": [list(g) for g in pres.generators],
    }
    if pres.denominator != 1:
        out["denominator"] = pres.denominator
    return out


def monoid_from_json(data):
    if not isinstance(data, dict):
        raise MalformedInput("monoid payload must be an object")
    try:
        rank = int_from_json(data["ambient_rank"], "ambient_rank", minimum=1)
        gens = [tuple(int_from_json(a, "generator entry") for a in g) for g in data["generators"]]
        denominator = int_from_json(data.get("denominator", 1), "denominator", minimum=1)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad monoid payload: {exc}") from exc
    return validate(gens, ambient_rank=rank, denominator=denominator)


def saturate(pres):
    """Saturation P^gp cap P_Q, presented by its Hilbert basis.

    That basis generates L cap cone (`_saturation_hilbert_basis`), so the
    result is saturated and records it: its flag needs no N-span search.
    """
    if not pres.is_sharp:
        raise NotSharp("saturation is implemented for sharp monoids")
    sat = pres.rebuilt(pres.denominator, pres._saturation_hilbert_basis)
    sat.is_saturated = True
    return sat


def monoid_equal(p, q):
    """Equality of the presented rational monoids (not presentations)."""
    if p.ambient_rank != q.ambient_rank:
        return False
    return all(q.contains_generated(g) for g in p.rational_generators) and all(
        p.contains_generated(g) for g in q.rational_generators
    )


def monoid_points_scaled(pres, cap):
    """Group points y of the cone with l(y) <= cap, for an int `cap`.

    At any level n these are the y = n*s*x over the x in (1/n)*P with
    l(x) <= cap/(n*s) (s the denominator).  Exact: enumerates ambient
    lattice candidates and filters by the group predicate, so sublattices
    (e.g. index > 1 groups) are handled.
    """
    raw = lattice.enumerate_integer_points(pres.cone, pres.positive_functional, cap)
    in_group = pres._group_contains_int
    return [y for y in raw if in_group(y)]


def monoid_points(pres, level, bound):
    """Points of (1/level)*P with positive-functional value <= bound."""
    denom = level * pres.denominator
    cap = floor(Fraction(bound) * denom)
    return [unscale(y, denom) for y in monoid_points_scaled(pres, cap)]

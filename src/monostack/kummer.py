"""Monoid homomorphisms, Kummer tests, root extensions and coset labels.

The n-th root extension (1/n)P reuses the integer generator data of P and
only bumps the stored denominator.  Nothing in the integer model (cone,
group lattice, Hilbert basis of the saturation, flags, membership memo)
depends on the denominator, so `root_extension` passes all of it by
reference and P and all its root extensions share one cone and one integer
lattice, each computed once.  Homomorphisms act on the integer models
too (`MonoidHom.image`), so the Kummer test and cokernels are integer
Smith normal forms.  The Picard group (1/n)P^gp / P^gp of a root level
needs neither: it is (Z/n)^r, r the group rank (`picard_group`).

A coset label is an element of (1/n)P^gp / P^gp = (Z/n)^r, stored as
integer residues against the group basis and reduced to the smallest level
(its order) it lives at, so labels computed at different levels compare
and hash alike; each label hashes once, at construction.  Adding,
scaling and changing the level of labels is integer arithmetic; the
Fraction normal form and representative are derived on demand, and JSON
writes the representative from its int form (`scaled_representative`).

`coset_label` takes a rational x, `scaled_label` the int tuple y = n*s*x
(s the denominator) that the Delta slice and the graded layer store.  On
a group Z^d, y is its own coordinate vector (`group_coords`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

from .errors import DimensionMismatch, InfiniteCokernel, LevelMismatch, MalformedInput, NotSaturated
from .lattice import (
    Record,
    dot,
    facet_values,
    int_from_json,
    lattice_coords,
    lattice_coords_int,
    smith_normal_form,
    unscale,
    vec_key,
)
from .monoid import monoid_from_json


class FiniteAbelianGroup(Record):
    """Invariant factor form d_1 | d_2 | ... with trivial factors dropped."""

    def __init__(self, invariant_factors):
        facs = tuple(int(d) for d in invariant_factors if int(d) != 1)
        for a, b in zip(facs, facs[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisor chain")
        self.invariant_factors = facs

    def _key(self):
        return (self.invariant_factors,)

    @property
    def order(self):
        return prod(self.invariant_factors)

    def __str__(self):
        if not self.invariant_factors:
            return "0"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)


class MonoidHom(Record):
    """Lattice map between monoid presentations: an integer matrix M
    (target.ambient_rank x source.ambient_rank rows) that maps every source
    generator into the target monoid.  On the integer models (s, t the
    denominators) it sends y, for y/s, to M*y*t/s, for M*y/s: `image`.

    A saturated target Q is its cone cap Q^gp, so there an image is tested
    with the cone and group predicate (`_contains_int`) and no N-span
    search; any other target takes the search (`_in_generated_int`).
    """

    def __init__(self, source, target, matrix):
        m = tuple(tuple(int(a) for a in row) for row in matrix)
        self.source, self.target, self.matrix = source, target, m
        if len(m) != target.ambient_rank or any(
            len(row) != source.ambient_rank for row in m
        ):
            raise ValueError("matrix shape does not match ambient ranks")
        s, t = self.source.denominator, self.target.denominator
        inside = target._contains_int if target.is_saturated else target._in_generated_int
        for g in self.source.generators:
            if any(dot(row, g) * t % s for row in m) or not inside(self.image(g)):
                raise ValueError(f"generator {vec_key(unscale(g, s))} does not map into the target monoid")

    def _key(self):
        return self.source, self.target, self.matrix

    def image(self, y):
        """M*y*t/s for y in the source group: integral, as the generators' images are."""
        s, t = self.source.denominator, self.target.denominator
        return tuple(dot(row, y) * t // s for row in self.matrix)


def hom_from_json(data):
    """The hom.json reader (re-exported by `jsonio`)."""
    if not isinstance(data, dict):
        raise MalformedInput("hom payload must be an object")
    try:
        source = monoid_from_json(data["source"])
        target = monoid_from_json(data["target"])
        matrix = tuple(tuple(int_from_json(a, "matrix entry") for a in row) for row in data["matrix"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad hom payload: {exc}") from exc
    try:
        return MonoidHom(source, target, matrix)
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc


def compose(g, f):
    """g after f."""
    if f.target != g.source:
        raise LevelMismatch("homomorphisms do not compose")
    m = tuple(tuple(dot(row, col) for col in zip(*f.matrix)) for row in g.matrix)
    return MonoidHom(f.source, g.target, m)


# ---------------------------------------------------------------------------
# root extensions


def root_extension(pres, n):
    """The monoid (1/n)P on the same integer data."""
    if n < 1:
        raise ValueError("root level must be a positive integer")
    return pres.rebuilt(pres.denominator * n)


def root_inclusion(pres, n):
    """The canonical Kummer inclusion P -> (1/n)P."""
    d = pres.ambient_rank
    eye = tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))
    return MonoidHom(pres, root_extension(pres, n), eye)


# ---------------------------------------------------------------------------
# Kummer test and cokernels


def group_coords(pres, y):
    """Coordinates of an int tuple y against the group basis, or None off
    the group lattice.  When the group is Z^d, y is its own coordinate
    vector.  A point of another dimension raises DimensionMismatch."""
    if len(y) != pres.ambient_rank:
        raise DimensionMismatch(f"point of dim {len(y)} against cone of dim {pres.ambient_rank}")
    if pres._group_is_ambient:
        return y
    return lattice_coords_int(pres.group_basis, y)


def is_kummer(hom):
    """Injective on groups, and every target element has a multiple in the image.

    Exact decision: the multiple condition holds for all of Q iff it holds
    on the target Hilbert basis, iff each basis element h has a rational
    preimage c*B in the source cone, B the source group basis.  With the
    columns of A the images of B and U*A*V = D in Smith form: injective iff
    no d_j vanishes, and then A*c = h iff (U*h)_j = 0 for j >= r, with
    c = V*z, z_j = (U*h)_j/d_j.  e*c*B (e the last divisor) is the sum of
    (U*h)_j times the rows w_j = (e/d_j)*(V^T*B)_j, so the facet values of
    the w_j decide the cone test in integers.
    """
    src, tgt = hom.source, hom.target
    if not (src.is_saturated and tgt.is_saturated):
        raise NotSaturated("the Kummer test requires saturated monoids")
    basis = src.group_basis
    r = len(basis)
    snf = smith_normal_form(tuple(zip(*(hom.image(b) for b in basis))))
    if len(snf.divisors) < r or not all(snf.divisors):
        return False
    e = snf.divisors[-1]
    w = [[(e // d) * dot(vcol, bcol) for bcol in zip(*basis)] for d, vcol in zip(snf.divisors, zip(*snf.v))]
    values = list(zip(*(facet_values(src.cone.facets, wj) for wj in w)))  # per facet, its values on the w_j
    for h in tgt._saturation_hilbert_basis:
        uh = [dot(row, h) for row in snf.u]
        if any(uh[r:]) or any(dot(f, uh[:r]) < 0 for f in values):
            return False
    return True


def cokernel(hom):
    """Invariant factors of Q^gp / f(P^gp); requires a finite quotient.

    f(P^gp) lies in Q^gp, as the constructor puts each generator's image in
    Q and the group basis of P is an integer combination of generators.  So
    the images of that basis have integer coordinates in the group basis of
    Q, and the quotient is finite iff the ranks agree and no Smith divisor
    of the coordinate matrix is 0.
    """
    src, tgt = hom.source, hom.target
    if src.group_rank != tgt.group_rank:
        raise InfiniteCokernel("group ranks differ")
    snf = smith_normal_form(tuple(zip(*(group_coords(tgt, hom.image(b)) for b in src.group_basis))))
    if not all(snf.divisors):
        raise InfiniteCokernel("the homomorphism is not injective with finite index")
    return FiniteAbelianGroup(snf.divisors)


def picard_group(pres, n):
    """(1/n)P^gp / P^gp, the character group of the level-n quotient: (Z/n)^r.

    P^gp = L is free of rank r (the group rank), and multiplication by n
    maps (1/n)L onto L and L onto nL, so (1/n)L/L is L/nL = (Z/n)^r.  This
    is the cokernel of `root_inclusion(pres, n)`, read off without it.
    """
    if n < 1:
        raise ValueError("root level must be a positive integer")
    return FiniteAbelianGroup((n,) * pres.group_rank)


# ---------------------------------------------------------------------------
# coset labels


class CosetLabel:
    """A class in (1/n)P^gp / P^gp, stored as integer residues.

    If x has coordinates c against the group basis, the label holds the
    smallest `order` with order*c integral and the residues
    `res` = order*c mod order, so gcd(order, *res) = 1.  Two labels are
    equal exactly when their representatives differ by a group element,
    whatever level they were computed at; the level is bookkeeping and
    does not enter equality or the hash, which is computed once.
    """

    __slots__ = ("monoid", "level", "order", "res", "_hash")

    def __init__(self, monoid, level, order, res):
        g = gcd(order, *res)
        if g != 1:
            order, res = order // g, tuple(r // g for r in res)
        self.monoid, self.level, self.order, self.res = monoid, level, order, res
        self._hash = hash((monoid, order, res))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.monoid, self.order, self.res) == (other.monoid, other.order, other.res)

    def __hash__(self):
        return self._hash

    @property
    def normal_form(self):
        """Fractional parts of the coordinates against the group basis."""
        return tuple(Fraction(r, self.order) for r in self.res)

    @property
    def representative(self):
        """The unique representative with all coordinates in [0, 1)."""
        return unscale(*self.scaled_representative)

    @property
    def scaled_representative(self):
        """(y, d) with y/d the representative: y the int tuple sum res_j*b_j
        over the group basis, d = order*s."""
        rep = [0] * self.monoid.ambient_rank
        for r, row in zip(self.res, self.monoid.group_basis):
            for i, a in enumerate(row):
                rep[i] += r * a
        return tuple(rep), self.order * self.monoid.denominator

    @property
    def residues(self):
        """Integer residues against the level-n quotient, in [0, n)."""
        return tuple(r * self.level // self.order for r in self.res)

    def is_zero(self):
        return self.order == 1


def scaled_label(pres, n, y):
    """Label of x = y/(n*s) for an integer vector y, or None when x is not
    in the level-n group lattice (s the presentation denominator)."""
    coords = group_coords(pres, y)
    return None if coords is None else CosetLabel(pres, n, n, tuple(c % n for c in coords))


def scaled_labels(pres, y, levels):
    """{n: `scaled_label(pres, n, y)`} over the levels, from one coordinate
    solve of y (None when y is not in the group lattice)."""
    coords = group_coords(pres, y)
    if coords is None:
        return None
    return {n: CosetLabel(pres, n, n, tuple(c % n for c in coords)) for n in levels}


def coset_label(pres, n, x):
    """Label of a rational vector x in (1/n)P^gp: `scaled_label` of n*s*x."""
    y = pres._scaled(x, n)
    label = None if y is None else scaled_label(pres, n, y)
    if label is not None:
        return label
    if lattice_coords(pres.group_basis, x) is None:  # x is in the span iff n*s*x is
        raise ValueError(f"{vec_key(x)} is not in the rational span of the group")
    raise ValueError(f"{vec_key(x)} is not in the level-{n} group lattice")


def zero_label(pres, n=1):
    return CosetLabel(pres, n, 1, (0,) * pres.group_rank)


def enumerate_labels(pres, n):
    """All n^r coset labels at level n, in lexicographic residue order."""
    return [
        CosetLabel(pres, n, n, res)
        for res in product(range(n), repeat=pres.group_rank)
    ]


def label_add(a, b):
    if a.monoid != b.monoid:
        raise LevelMismatch("labels over different monoids")
    m = lcm(a.order, b.order)
    ka, kb = m // a.order, m // b.order
    res = tuple((ka * x + kb * y) % m for x, y in zip(a.res, b.res))
    return CosetLabel(a.monoid, lcm(a.level, b.level), m, res)


def label_scale(k, a):
    res = tuple(k * x % a.order for x in a.res)
    return CosetLabel(a.monoid, a.level, a.order, res)

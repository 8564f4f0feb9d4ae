"""Monomial ideals of (1/n)P: colon ideals, their minimal generators inside
a certified region, and the coherence probe of their growth across levels.

Ideals of the monoid, not graded modules: in the coordinates y = n*s*x (s
the presentation denominator) an ideal is cut out by facet inequalities,
and all arithmetic is on these int tuples (`lattice`, `monoid`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import ceil, floor
from operator import ge

from . import lattice
from .errors import RegionTooSmall
from .lattice import facet_values, unscale, vadd, vec_key, vneg, vsub
from .monoid import monoid_points_scaled


class MonoidIdeal:
    """An ideal of (1/n)P given by generators or by a colon pair (a, b).

    P must be saturated (NotSaturated otherwise): minimality is tested
    against its Hilbert basis.  The generators, and a and b, must lie in
    (1/n)P.  In coordinates y = n*s*x the ideal is the group points y with
    f(y) >= t for the facets f and some row t of `thresholds`: f(g) per
    generator g, or max(0, -f(a - b)) for the colon ideal.

    `certified_bound` is a bound on l(x) for every minimal generator x,
    and the default `bound`; `ideal_min_generators` always walks to it and
    refuses a `bound` below it (RegionTooSmall).  Each row t cuts out a
    polyhedron {y : F*y >= t} with recession cone the cone of P; it is
    pointed, so by Minkowski-Weyl (Ziegler, Lectures on Polytopes, section
    1) it is conv(V) + cone for its vertex set V.  Write a point y of it as
    q + sum t_j r_j with q in conv(V) and, by Caratheodory, t_j >= 0 over d
    independent ray generators r_j of P, which are group points and
    Hilbert generators of (1/n)P in these coordinates.  If some t_j >= 1,
    then y - r_j still lies in the polyhedron, so in the ideal, and y is
    not minimal.  So l(y) < max l(V) + C (C the `caratheodory_sum`).  The
    polyhedron of a generator g is g + cone, with V = {g}; the vertices of
    the colon polyhedron are solved from square subsets of the facet rows
    (`_vertex_max`).
    """

    def __init__(self, monoid, level, generators=None, shift=None, bound=None):
        monoid.integer_hilbert_basis  # raises NotSaturated
        self.monoid = monoid
        self.level = int(level)
        if generators:
            points, message = generators, "ideal generator {} outside (1/n)P"
        elif shift is not None:
            points, message = shift, "{} is not an element of (1/n)P"
        else:
            raise ValueError("an ideal needs generators or a colon shift")
        facets = monoid.cone.facets
        ys = []
        for x in points:
            y = monoid._scaled(x, self.level)
            if y is None or not monoid._contains_int(y):
                raise ValueError(message.format(vec_key(x)))
            ys.append(y)
        ell = monoid.positive_functional
        if generators:
            self.thresholds = [facet_values(facets, y) for y in ys]
            top = max(lattice.dot(ell, y) for y in ys)
        else:
            a, b = ys
            self.thresholds = [[max(0, -v) for v in facet_values(facets, vsub(a, b))]]
            top = _vertex_max(facets, self.thresholds[0], ell)
        # l(y) < top + C, and l(y) is an integer
        self.certified_bound = Fraction(ceil(top + monoid.caratheodory_sum) - 1, self.level * monoid.denominator)
        self.bound = self.certified_bound if bound is None else Fraction(bound)

    def contains(self, x):
        """Membership of a rational vector in the ideal."""
        y = self.monoid._scaled(x, self.level)
        if y is None or not self.monoid._group_contains_int(y):
            return False
        return _dominates(facet_values(self.monoid.cone.facets, y), self.thresholds)


def _vertex_max(facets, t, ell):
    """The largest l(v) over the vertices v of the pointed polyhedron {y : F*y >= t}.

    A vertex is a point of it where the tight facets have full rank: the
    solution v of F_S*v = t_S for a square row subset S with F_S
    invertible, if F*v >= t.  The integer kernel of [F_S | -t_S] holds
    (c', k) exactly when F_S*c' = k*t_S; its cofactor line
    (`lattice._kernel_line`) exists iff that matrix has rank |S|, and then
    k = +-det F_S (up to the line's gcd).  So F_S is invertible exactly
    when the line exists with k != 0, and then v = c'/k.  With the sign
    flipped to k > 0, v is feasible iff f*c' >= t_i*k for every facet row
    (f, t_i), and l(v) = l(c')/k: no elimination over a field.
    """
    best = None
    for rows in combinations(range(len(facets)), len(ell)):
        line = lattice._kernel_line([(*facets[i], -t[i]) for i in rows], len(ell) + 1)
        if line is None or not line[-1]:
            continue  # F_S is singular
        *c, k = line if line[-1] > 0 else vneg(line)
        if all(lattice.dot(f, c) >= ti * k for f, ti in zip(facets, t)):
            value = Fraction(lattice.dot(ell, c), k)
            best = value if best is None else max(best, value)
    return best


def _dominates(values, rows):
    """Whether values >= t componentwise for some row t."""
    return any(all(map(ge, values, t)) for t in rows)


def colon_degree_ideal(monoid, level, a, b, bound=None):
    """Degrees c with c + a - b in (1/n)P: the first-projection syzygy degrees
    of the pair (x^a, x^b)."""
    return MonoidIdeal(monoid, level, shift=(a, b), bound=bound)


def ideal_min_generators(ideal):
    """Minimal generators of the ideal, lex-sorted.

    A point x is minimal iff x - h leaves the ideal for every Hilbert
    generator h of (1/n)P.  Every minimal generator has l(x) <=
    `certified_bound` (`MonoidIdeal`), so the walk goes exactly that far;
    a larger `bound` changes nothing.  A smaller one cannot be answered
    (a truncated region may miss minimal generators, and nothing in it
    shows which) and raises RegionTooSmall before any walk.

    Region points y = n*s*x and generators h are group points, so y - h is
    in the ideal iff f(y) >= f(h) + t for a row t of `thresholds`: f is
    evaluated once per point and per h, and no lattice test is made.
    """
    if ideal.bound < ideal.certified_bound:
        raise RegionTooSmall(f"bound {ideal.bound} is below the certified bound {ideal.certified_bound}")
    pres = ideal.monoid
    facets = pres.cone.facets
    shifted = [vadd(facet_values(facets, h), t) for h in pres._saturation_hilbert_basis for t in ideal.thresholds]
    denom = ideal.level * pres.denominator
    mins = []
    for y in monoid_points_scaled(pres, floor(ideal.certified_bound * denom)):
        fy = facet_values(facets, y)
        if _dominates(fy, ideal.thresholds) and not _dominates(fy, shifted):
            mins.append(unscale(y, denom))
    return mins


def coherence_probe(monoid, a, b, levels):
    """Minimal-generator counts of the colon ideal across levels.

    Growing counts witness non-coherence (non-simplicial monoids); constant
    counts are what simplicial monoids produce.
    """
    rows = []
    for n in levels:
        ideal = colon_degree_ideal(monoid, n, a, b)
        gens = ideal_min_generators(ideal)
        rows.append({"n": int(n), "min_gens": len(gens), "generators": gens})
    return rows

"""Exact integer and rational lattice geometry.

A point x with denominator d travels as the int tuple d*x: `unscale`
gives x back and `scale_to_ints` goes the other way.  Payload keys are
read to the int tuple by the one key reader `scaled_from_key`, and keys
and point lists written from it by `scaled_key` and `scaled_to_json`,
with no `Fraction`; the rest of the payload codec (`frac_to_str`,
`vec_from_key`, `int_from_json`, ...) lives here too.  Only
`lattice_coords` solves over Q, and `cone_contains` also takes Fractions.
No floating point is used.  This module provides
Smith normal forms with transform matrices, integer lattice bases and
membership (`lattice_contains_int`), facets and extreme rays of rational
polyhedral cones by integer elimination (Hermite bases and cofactor
kernels), pulling triangulations of a cone's rays with the lattice points
of each simplex's half-open parallelepiped, cone membership, and bounded
enumeration of integer points, and minimal generating sets of toric
ideals (`toric_moves`).
The enumeration is an all-int walk over the coordinates in which the
facets and the cap confine each coordinate to one interval (facet-bounded
lattice-point walks as in Beck-Robins, 2007).

A cone is stored by generators together with its derived H-description.
The facet list always cuts out the cone exactly, including the linear-span
constraints (which appear as +/- pairs of functionals when the cone is not
full dimensional).
"""

from __future__ import annotations

import json
import re
import sys
from collections import deque
from decimal import Decimal
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations, product
from math import gcd, inf
from operator import add, le, mul, sub

from .errors import DimensionMismatch, MalformedInput, UnboundedRegion

# Most points one enumeration lists: the half-open parallelepiped points of a
# monoid's triangulation, the Delta candidates of one level, the labels of
# `monostack picard`.
ENUMERATION_BUDGET = 2 * 10**6


class Record:
    """Value semantics for a plain class, as a frozen dataclass has them
    (`dataclasses` imports `inspect`, about 10 ms of every cold start):
    objects of the same class are equal when their `_key()` tuples are,
    and hash like that tuple."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def vadd(u, v):
    return tuple(map(add, u, v))


def vsub(u, v):
    return tuple(map(sub, u, v))


def vneg(u):
    return tuple(-a for a in u)


def vscale(c, u):
    return tuple(c * a for a in u)


def dot(u, v):
    return sum(map(mul, u, v))


def facet_values(facets, y):
    """The list of values f(y) over the functionals f."""
    return [sum(map(mul, f, y)) for f in facets]


def is_zero_vector(u):
    return all(a == 0 for a in u)


def vec_key(x):
    """A rational vector in payload notation, such as 1/2,0."""
    return ",".join(map(str, x))


def scaled_to_json(y, d):
    """`vec_to_json(unscale(y, d))` for an int vector y and d >= 1, with one
    gcd per entry."""
    return [str(c // g) if (g := gcd(c, d)) == d else f"{c // g}/{d // g}" for c in y]


def scaled_key(y, d):
    """`vec_key(unscale(y, d))`: the key of `scaled_to_json`."""
    return ",".join(scaled_to_json(y, d))


def frac_to_str(x):
    """A rational in payload notation; ints and Fractions print as they are."""
    return str(x) if type(x) is int or type(x) is Fraction else str(Fraction(x))


def frac_from_str(s):
    """A rational from its string; plain ASCII decimal integers (most
    payload entries) skip the `Fraction` parse, which gives them the same
    int.  `Fraction` writes an exponent out in full, so a spelling whose
    mantissa and exponent would need more digits than the int digit limit
    (`sys.get_int_max_str_digits`, if it is on) is refused unparsed."""
    s = str(s)
    try:
        if s.isascii() and (s.isdigit() or (s[:1] == "-" and s[1:].isdigit())):
            return int(s)
        mantissa, e, exponent = s.lower().partition("e")
        if e and len(mantissa) + abs(int(exponent)) > (sys.get_int_max_str_digits() or inf):
            raise MalformedInput(f"rational {s!r} needs more than {sys.get_int_max_str_digits()} digits")
        x = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInput(f"bad rational {s!r}") from exc
    return x.numerator if x.denominator == 1 else x


def int_from_json(value, what, minimum=None):
    """A JSON integer: an int, or a `Decimal` (the CLI reads every other JSON
    number as one) of integral value such as 2.0, as in JSON Schema.  Every
    other value is refused, a float among them, and so is a Decimal past the
    int digit limit, such as 1e999999999, before its int is built.

    `minimum` is the schema minimum, 0 or 1, when there is one.
    """
    limit = sys.get_int_max_str_digits() or inf
    if type(value) is Decimal and value.is_finite() and value.adjusted() < limit and value == value.to_integral_value():
        value = int(value)
    if type(value) is not int:
        raise MalformedInput(f"{what} must be an integer, got {value if type(value) is Decimal else json.dumps(value, default=str)}")
    if minimum is not None and value < minimum:
        kind = "positive" if minimum == 1 else "nonnegative"
        raise MalformedInput(f"{what} must be a {kind} integer, got {value}")
    return value


def vec_to_json(v):
    return [frac_to_str(a) for a in v]


def vec_from_json(data):
    if not isinstance(data, (list, tuple)):
        raise MalformedInput("vector must be an array of rationals")
    return tuple(frac_from_str(a) for a in data)


def vec_from_key(s):
    return tuple(frac_from_str(part) for part in str(s).split(","))


def as_fractions(u):
    return tuple(Fraction(a) for a in u)


def unscale(y, d):
    """The rational vector y/d of an integer vector y."""
    return tuple(Fraction(c, d) for c in y)


def scale_to_ints(x, m):
    """m*x as an int tuple for a rational vector x, or None when it is not
    integral.  Ints and Fractions take one divmod each; other entries go
    through `Fraction` first, as in `as_fractions`."""
    out = []
    for a in x:
        if type(a) is not int and type(a) is not Fraction:
            a = Fraction(a)
        q, r = divmod(a.numerator * m, a.denominator)
        if r:
            return None
        out.append(q)
    return tuple(out)


_PLAIN_KEY = re.compile(r"-?[0-9]+(?:/[0-9]+)?(?:,-?[0-9]+(?:/[0-9]+)?)*")


def scaled_from_key(s, m):
    """m*x as an int tuple for a payload key x, or None when m*x is not
    integral: the one key reader.  A key of plain ASCII rationals
    (-?[0-9]+(/[0-9]+)?, comma-separated) is read without `Fraction`; any
    other spelling (0.5, " 1/2", a zero denominator, ...) goes through
    `vec_from_key`, so it reads as `frac_from_str` reads it and a bad
    rational raises MalformedInput."""
    s = str(s)
    if _PLAIN_KEY.fullmatch(s):
        y = []
        try:
            for part in s.split(","):
                num, _, den = part.partition("/")
                q, r = divmod(int(num) * m, int(den or 1))
                if r:
                    return None
                y.append(q)
            return tuple(y)
        except (ValueError, ZeroDivisionError):  # a zero denominator, or past int's digit limit
            pass
    return scale_to_ints(vec_from_key(s), m)


def primitive(u):
    """The primitive integer vector on the ray of a nonzero integer vector.

    Only positive scaling is used, so sign conventions of oriented
    functionals survive.
    """
    g = gcd(*u)
    return tuple(a // g for a in u)


# ---------------------------------------------------------------------------
# Smith normal form


class SNFDecomposition(Record):
    """U * A * V = D with U, V unimodular and D diagonal, d_i | d_{i+1}."""

    __slots__ = ("u", "d", "v", "divisors")

    def __init__(self, u, d, v, divisors):
        self.u, self.d, self.v, self.divisors = u, d, v, divisors

    def _key(self):
        return self.u, self.d, self.v, self.divisors


def smith_normal_form(a):
    """Smith normal form with transforms, for an integer matrix (rows)."""
    m = len(a)
    n = len(a[0]) if m else 0
    s = [[int(x) for x in row] for row in a]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, c):
        s[i] = [x + c * y for x, y in zip(s[i], s[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, c):
        for row in s:
            row[i] += c * row[j]
        for row in v:
            row[i] += c * row[j]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j] != 0 and (pivot is None or abs(s[i][j]) < abs(s[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])
        if s[t][t] < 0:
            negate_row(t)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if s[i][t]:
                    q = s[i][t] // s[t][t]
                    add_row(i, t, -q)
                    if s[i][t]:
                        swap_rows(t, i)
                        if s[t][t] < 0:
                            negate_row(t)
                        dirty = True
            for j in range(t + 1, n):
                if s[t][j]:
                    q = s[t][j] // s[t][t]
                    add_col(j, t, -q)
                    if s[t][j]:
                        swap_cols(t, j)
                        dirty = True
        d = s[t][t]
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if s[i][j] % d != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(t, bad, 1)
            continue
        t += 1
    divisors = tuple(abs(s[i][i]) for i in range(min(m, n)))
    return SNFDecomposition(
        u=tuple(tuple(r) for r in u),
        d=tuple(tuple(r) for r in s),
        v=tuple(tuple(r) for r in v),
        divisors=divisors,
    )


# ---------------------------------------------------------------------------
# integer lattices (given by spanning vectors)


def lattice_basis(vectors):
    """Hermite-style row basis of the integer lattice spanned by `vectors`."""
    work = [list(v) for v in vectors if not is_zero_vector(v)]
    if not work:
        return ()
    dim = len(work[0])
    r = 0
    for col in range(dim):
        idxs = [i for i in range(r, len(work)) if work[i][col] != 0]
        if not idxs:
            continue
        while len(idxs) > 1:
            idxs.sort(key=lambda i: abs(work[i][col]))
            i0 = idxs[0]
            for i in idxs[1:]:
                q = work[i][col] // work[i0][col]
                work[i] = [a - q * b for a, b in zip(work[i], work[i0])]
            idxs = [i for i in idxs if work[i][col] != 0]
        i0 = idxs[0]
        work[r], work[i0] = work[i0], work[r]
        if work[r][col] < 0:
            work[r] = [-a for a in work[r]]
        for i in range(r):
            q = work[i][col] // work[r][col]
            if q:
                work[i] = [a - q * b for a, b in zip(work[i], work[r])]
        r += 1
    return tuple(tuple(row) for row in work[:r])


def lattice_coords(basis_rows, x):
    """Coordinates of x in a Hermite row basis, or None if x not in span.

    The coordinates are Fractions; x lies in the lattice iff all of them
    are integers (`lattice_contains_int` tests that for integer x).
    """
    y = list(as_fractions(x))
    coords = []
    for row in basis_rows:
        p = next(i for i, a in enumerate(row) if a != 0)
        c = y[p] / row[p]
        coords.append(c)
        y = [a - c * b for a, b in zip(y, row)]
    if any(a != 0 for a in y):
        return None
    return tuple(coords)


def lattice_coords_int(basis_rows, y):
    """Integer coordinates of an integer vector y in a Hermite row basis.

    Returns None when y is not in the lattice.
    """
    y = list(y)
    coords = []
    for row in basis_rows:
        p = next(i for i, a in enumerate(row) if a != 0)
        q, r = divmod(y[p], row[p])
        if r:
            return None
        coords.append(q)
        if q:
            y = [a - q * b for a, b in zip(y, row)]
    if any(y):
        return None
    return tuple(coords)


def lattice_contains_int(basis_rows, x):
    """Integer-only membership test against a Hermite row basis."""
    return lattice_coords_int(basis_rows, x) is not None


# ---------------------------------------------------------------------------
# rational polyhedral cones


class RationalCone(Record):
    """Q>=0-span of finitely many rational generators.

    `facets` are primitive integer functionals with x in cone iff every
    facet is >= 0 on x; span constraints contribute +/- pairs.  `rays` are
    the primitive extreme ray directions (meaningful for pointed cones).
    """

    __slots__ = ("dim", "generators", "facets", "rays")

    def __init__(self, dim, generators, facets, rays):
        self.dim, self.generators, self.facets, self.rays = dim, generators, facets, rays

    def _key(self):
        return self.dim, self.generators, self.facets, self.rays


def _det(rows):
    """Determinant of a square int matrix (Bareiss, fraction-free)."""
    m, sign, prev = [list(r) for r in rows], 1, 1
    for k in range(len(m)):
        for i in range(k, len(m)):
            if m[i][k]:
                break
        else:
            return 0
        m[k], m[i], sign = m[i], m[k], sign if i == k else -sign
        p = m[k]
        for i in range(k + 1, len(m)):
            m[i] = [(a * p[k] - m[i][k] * b) // prev for a, b in zip(m[i], p)]
        prev = p[k]
    return sign * prev


def _kernel_line(rows, dim):
    """The primitive cofactors c_j = (-1)^j det(rows without column j) of dim - 1
    `rows`: they span the kernel at rank dim - 1 (row i against c has row i
    twice), else all vanish (None); at dim 1, det() = 1 gives (1,)."""
    line = [(-1) ** j * _det([r[:j] + r[j + 1:] for r in rows]) for j in range(dim)]
    return primitive(line) if any(line) else None


def facet_inequalities(generators):
    """Primitive integer functionals cutting out the cone of integer `generators`.

    The returned list satisfies {x : l(x) >= 0 for all l} = Q>=0-span of
    the generators; when the span is a proper subspace the list contains
    +/- pairs pinning the span: for each non-pivot column f of the Hermite
    basis, the kernel line on the pivot columns and f (the reduced-echelon
    null vectors up to scale).  Each facet of the span is the kernel line of
    s - 1 generators and the annihilator (s the rank), oriented to be >= 0
    on every generator; a line with both signs there is no facet.
    """
    if not generators:
        raise DimensionMismatch("no generators")
    dim = len(generators[0])
    if any(len(g) != dim for g in generators):
        raise DimensionMismatch("generators of mixed dimension")
    prim = primitive_directions(generators)
    basis = lattice_basis(prim)
    pivots = [next(i for i, a in enumerate(row) if a) for row in basis]
    annihilator = []
    for f in range(dim):
        if f not in pivots:
            cols = sorted(pivots + [f])
            line = dict(zip(cols, _kernel_line([[row[c] for c in cols] for row in basis], len(cols))))
            annihilator.append(tuple(line.get(c, 0) for c in range(dim)))
    facets = set(annihilator) | {vneg(ell) for ell in annihilator}
    for subset in combinations(prim, len(basis) - 1) if basis else ():
        normal = _kernel_line(list(subset) + annihilator, dim)
        if normal is None:
            continue
        vals = [dot(normal, g) for g in prim]
        if all(v >= 0 for v in vals):
            facets.add(normal)
        elif all(v <= 0 for v in vals):
            facets.add(vneg(normal))
    return sorted(facets)


def primitive_directions(generators):
    """The distinct primitive vectors of the nonzero generators, in order."""
    prim = []
    for g in generators:
        if not is_zero_vector(g):
            p = primitive(g)
            if p not in prim:
                prim.append(p)
    return prim


def cone_from_generators(generators):
    dim = len(generators[0])
    prim = primitive_directions(generators)
    facets = tuple(facet_inequalities(generators))
    rays = _extreme_rays(prim, facets, dim)
    return RationalCone(dim=dim, generators=tuple(sorted(prim)), facets=facets, rays=rays)


def _extreme_rays(prim_gens, facets, dim):
    """The generators whose vanishing facets have rank dim - 1."""
    return tuple(sorted(
        g for g in prim_gens
        if len(lattice_basis([f for f in facets if dot(f, g) == 0])) == dim - 1
    ))


def pulling_triangulation(rays, facets):
    """A pulling triangulation of the pointed cone over `rays`, cut out by `facets`.

    Each simplex is a sorted tuple of indices into `rays`, of linearly
    independent rays as many as the rank.  A face F (a set of rays) of
    rank r is one simplex when it has r rays; else its first ray v is the
    apex, joined to the triangulation of every facet of F that misses v.
    The facets of F are the F cap {f = 0} of rank r - 1 over the facets f
    of the cone (a facet of F is a face of the cone, cut out in F by any
    facet of the cone through it and not through F).  A face is
    triangulated the same way wherever it occurs, so the simplices meet
    face to face: they cover the cone and their interiors are disjoint.
    """

    def rank(face):
        return len(lattice_basis([rays[i] for i in face]))

    def triangulate(face, r):
        if len(face) == r:
            return [face]
        apex, simplices, seen = face[0], [], set()
        for f in facets:
            facet = tuple(i for i in face if dot(f, rays[i]) == 0)
            if apex not in facet and facet not in seen and rank(facet) == r - 1:
                seen.add(facet)
                simplices += [(apex,) + s for s in triangulate(facet, r - 1)]
        return simplices

    whole = tuple(range(len(rays)))
    return [tuple(sorted(s)) for s in triangulate(whole, rank(whole))]


class HalfOpenSimplex(Record):
    """Independent rays r_1..r_d of a lattice L with their half-open
    parallelepiped: `phi` the columns phi_j of e*C^-1 (C the ray coordinates
    in a basis of L, rows; e its last Smith divisor), so a vector with
    coordinates w is sum (phi_j*w/e) r_j; the `opened` flags; and the
    `points` p = sum c_j r_j / e of L in the parallelepiped, with their
    `numerators` c (c_j = phi_j*(coordinates of p), in [0, e), or (0, e] on
    an open j)."""

    __slots__ = ("rays", "e", "phi", "opened", "numerators", "points")

    def __init__(self, rays, e, phi, opened, numerators, points):
        self.rays, self.e, self.phi, self.opened, self.numerators, self.points = rays, e, phi, opened, numerators, points

    def _key(self):
        return self.rays, self.e, self.phi, self.opened, self.numerators, self.points


def half_open_simplex(rays, coords, interior):
    """The `HalfOpenSimplex` of `rays`, with the |det C| points of L in
    {sum u_j r_j : 0 <= u_j < 1, 0 < u_j <= 1 if j is open}.

    `rays` are independent vectors of a lattice L, C (`coords`, rows) their
    coordinates in a basis of L, q0 (`interior`) those of an interior point.
    With U*C*V = D in Smith form, e the last divisor and e*C^-1 =
    V*diag(e/d)*U, a*V^-1 (0 <= a_i < d_i) runs once over L/(sum Z r_j);
    its point is sum c_j r_j / e, c_j = (a*diag(e/d)*U)_j mod e, or e for 0
    if j is open: if the first nonzero of (phi*q0, phi_0, ...), phi column
    j of e*C^-1, is < 0: q0 perturbed by the basis lies beyond u_j = 0.
    A cone point keeps the simplex q0 points into from it (Koppe-Verdoolaege).
    """
    snf = smith_normal_form(coords)
    e = snf.divisors[-1]
    rows = [[(e // d) * x for x in row] for d, row in zip(snf.divisors, snf.u)]
    phi = tuple(zip(*([sum(map(mul, v, col)) for col in zip(*rows)] for v in snf.v)))
    opened = tuple(next(x for x in (dot(interior, p), *p) if x) < 0 for p in phi)
    numerators = tuple(
        tuple(sum(ai * row[j] for ai, row in zip(a, rows)) % e or e * o for j, o in enumerate(opened))
        for a in product(*(range(d) for d in snf.divisors))
    )
    points = tuple(tuple(sum(map(mul, c, col)) // e for col in zip(*rays)) for c in numerators)
    return HalfOpenSimplex(tuple(rays), e, phi, opened, numerators, points)


def cone_contains(cone, x):
    x = as_fractions(x)
    if len(x) != cone.dim:
        raise DimensionMismatch(
            f"point of dim {len(x)} against cone of dim {cone.dim}"
        )
    return all(dot(f, x) >= 0 for f in cone.facets)


def positive_functional_of(cone):
    """Sum of all facet functionals; strictly positive on a pointed cone."""
    return tuple(sum(f[i] for f in cone.facets) for i in range(cone.dim))


def enumerate_integer_points(cone, bound_functional, cap):
    """Integer points y in the cone with l(y) <= cap, in lex order.

    All arithmetic is plain int; `cap` must be an integer (callers floor a
    rational bound first, which is lossless for integer-valued l on Z^d).

    The walk fixes one coordinate at a time inside the box spanned by the
    rays scaled to l = cap.  For the next coordinate c, each pruning test
    is linear in c: the l-cap (running sum plus the least the remaining
    coordinates can add) and, per facet, the running sum plus the most the
    remaining coordinates can add.  The survivors are therefore one
    interval [a, b], found with one floor or ceiling per test, and only
    its values are pushed.  Pushing them in descending order makes the
    depth-first walk emit points in lex order.  Leaves (the values of the
    last coordinate) are still checked exactly before they are emitted.
    """
    ell = tuple(int(c) for c in bound_functional)
    dim = cone.dim
    if len(ell) != dim:
        raise DimensionMismatch("functional dimension mismatch")
    for g in cone.generators:
        if dot(ell, g) <= 0:
            raise UnboundedRegion(f"functional not positive on generator {g}")
    if cap < 0:
        return []
    if not cone.generators:
        return [tuple(0 for _ in range(dim))]
    # the box: coordinate i of r * cap / l(r) over the rays r, and 0
    rays = cone.rays or cone.generators
    lo = [min(0, *(-(-cap * r[i] // dot(ell, r)) for r in rays)) for i in range(dim)]
    hi = [max(0, *(cap * r[i] // dot(ell, r) for r in rays)) for i in range(dim)]
    facets = cone.facets
    # per-coordinate contribution bounds for pruning
    fmax = [[max(f[i] * lo[i], f[i] * hi[i]) for f in facets] for i in range(dim)]
    lmin = [min(ell[i] * lo[i], ell[i] * hi[i]) for i in range(dim)]
    suffix_fmax = [[0] * len(facets) for _ in range(dim + 1)]
    suffix_lmin = [0] * (dim + 1)
    for i in range(dim - 1, -1, -1):
        suffix_fmax[i] = [a + b for a, b in zip(suffix_fmax[i + 1], fmax[i])]
        suffix_lmin[i] = suffix_lmin[i + 1] + lmin[i]
    columns = [[f[i] for f in facets] for i in range(dim)]
    # depth-first over coordinate prefixes; an explicit stack rather than a
    # recursive closure, which would hold itself and `out` in a reference
    # cycle until the next full garbage collection
    out = []
    stack = [((), [0] * len(facets), 0)]
    while stack:
        prefix, fsums, lsum = stack.pop()
        i = len(prefix)
        column, li = columns[i], ell[i]
        # every test reads coef*c <= t: coef = l_i for the cap, -f_i per facet
        a, b = lo[i], hi[i]
        tests = [(li, cap - lsum - suffix_lmin[i + 1])]
        tests += [(-fc, fs + m) for fc, fs, m in zip(column, fsums, suffix_fmax[i + 1])]
        for coef, t in tests:
            if coef > 0:
                b = min(b, t // coef)
            elif coef < 0:
                a = max(a, -(t // -coef))
            elif t < 0:
                b = a - 1
        if i + 1 < dim:
            stack += [
                (prefix + (c,), [fs + fc * c for fs, fc in zip(fsums, column)], lsum + li * c)
                for c in range(b, a - 1, -1)
            ]
        else:
            out += [
                prefix + (c,)
                for c in range(a, b + 1)
                if lsum + li * c <= cap
                and all(fs + fc * c >= 0 for fs, fc in zip(fsums, column))
            ]
    return out


# ---------------------------------------------------------------------------
# toric ideals


def _divides(a, b):
    return all(map(le, a, b))


def _move(e, a, b):
    """The exponent vector e - a + b."""
    return tuple(c - p + q for c, p, q in zip(e, a, b))


def _cancel(a, b, coords):
    """x^a - x^b divided by the largest monomial in the variables `coords`
    that divides both terms."""
    a, b = list(a), list(b)
    for j in coords:
        c = min(a[j], b[j])
        a[j] -= c
        b[j] -= c
    return tuple(a), tuple(b)


def _binomial_groebner(binomials, key):
    """A Groebner basis of the ideal of pure binomials x^a - x^b, as (lead, trail) pairs.

    `key` sorts exponent vectors in a monomial order.  The normal form of a
    monomial modulo such binomials is a monomial, and so is each term of
    an S-polynomial, so the whole of Buchberger's algorithm runs on
    exponent pairs.  Pairs go smallest lcm first; those with coprime
    leads (Buchberger's first criterion) and those whose lcm a third lead
    divides while both of its pairs are done (the chain criterion) are
    skipped.  Only the elements with minimal leads are returned.
    """
    basis, heap, pending = [], [], set()

    def normal_form(e):
        while True:
            for lead, trail in basis:
                if _divides(lead, e):
                    e = _move(e, lead, trail)
                    break
            else:
                return e

    def add(a, b):
        if a == b:
            return
        new = (a, b) if key(a) > key(b) else (b, a)
        k = len(basis)
        basis.append(new)
        for i in range(k):
            lcm_ = tuple(map(max, basis[i][0], new[0]))
            heappush(heap, (key(lcm_), i, k, lcm_))
            pending.add((i, k))

    for a, b in binomials:
        add(normal_form(a), normal_form(b))
    while heap:
        _, i, j, lcm_ = heappop(heap)
        pending.discard((i, j))
        (a1, b1), (a2, b2) = basis[i], basis[j]
        if not any(map(min, a1, a2)):
            continue
        if any(
            k not in (i, j) and (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending
            and _divides(basis[k][0], lcm_)
            for k in range(len(basis))
        ):
            continue
        add(normal_form(_move(lcm_, a1, b1)), normal_form(_move(lcm_, a2, b2)))
    return [
        g for i, g in enumerate(basis)
        if not any(_divides(h[0], g[0]) and (h[0] != g[0] or j < i) for j, h in enumerate(basis) if j != i)
    ]


def _joined(u, v, moves):
    """Whether u and v are joined by the moves, used either way, inside
    the nonnegative orthant (breadth first; the fiber is finite)."""
    seen, todo = {u}, deque([u])
    while todo:
        w = todo.popleft()
        for a, b in moves:
            for p, q in ((a, b), (b, a)):
                if _divides(p, w):
                    z = _move(w, p, q)
                    if z == v:
                        return True
                    if z not in seen:
                        seen.add(z)
                        todo.append(z)
    return False


def toric_moves(points, weights):
    """A minimal generating set of the toric ideal of `points`, as moves (u, v).

    The toric ideal I of integer vectors a_1..a_m is the kernel of
    k[x_1..x_m] -> k[Z^d], x_j -> t^(a_j).  It is spanned by the binomials
    x^u - x^v with sum u_j a_j = sum v_j a_j; a move is such a pair of
    exponent vectors, here with disjoint supports.  `weights` are the
    values l(a_j) > 0 of a functional positive on every a_j, so every
    binomial of I is homogeneous for deg x_j = l(a_j).

    Lattice-basis saturation (Hosten-Sturmfels, IPCO 1995; Sturmfels,
    Groebner Bases and Convex Polytopes, 1996, chapter 12): with B a basis
    of the kernel lattice {c in Z^m : sum c_j a_j = 0} (a Hermite basis of
    the rows (a_j, e_j), read off the rows that vanish on the a-block), I
    is the saturation J : (x_1 ... x_m)^inf of J = (x^(b+) - x^(b-) : b in
    B).  For a homogeneous ideal and the weighted reverse lexicographic
    order with x_i last, x_i divides the initial term of a homogeneous
    binomial iff it divides both terms, so dividing each element of a
    Groebner basis by the largest power of x_i it has gives a Groebner
    basis of the saturation by x_i (Sturmfels 1996, Lemma 12.1).
    Saturating by x_1, ..., x_m in turn gives I.

    I is prime and holds no monomial, so each binomial can also drop the
    common factor of its two terms.  The set is then made minimal: x^u -
    x^v lies in the ideal of other binomials iff u and v are joined in
    their fiber {w >= 0 : sum w_j a_j = sum u_j a_j} by their moves (the
    proof of Diaconis-Sturmfels, Ann. Statist. 26, 1998, Theorem 3.1).
    Dropping the redundant moves from the top degree down leaves an
    irredundant set of homogeneous generators, which is minimal; moves
    above a fiber's degree never act on it.  The moves come back sorted
    by degree.
    """
    m = len(points)
    d = len(points[0]) if m else 0
    unit = [tuple(int(i == j) for i in range(m)) for j in range(m)]
    kernel = [row[d:] for row in lattice_basis([tuple(a) + e for a, e in zip(points, unit)]) if not any(row[:d])]
    moves = [(tuple(max(c, 0) for c in b), tuple(max(-c, 0) for c in b)) for b in kernel]

    def degree(e):
        return sum(map(mul, weights, e))

    for last in range(m):
        order = [j for j in range(m) if j != last] + [last]

        def key(e, order=order):
            return degree(e), tuple(-e[j] for j in reversed(order))

        moves = [_cancel(a, b, (last,)) for a, b in _binomial_groebner(moves, key)]
    moves = sorted({(max(mv), min(mv)) for mv in (_cancel(a, b, range(m)) for a, b in moves)},
                   key=lambda mv: (degree(mv[0]), mv))
    kept = list(moves)
    for mv in reversed(moves):
        others = [o for o in kept if o != mv and degree(o[0]) <= degree(mv[0])]
        if _joined(*mv, others):
            kept.remove(mv)
    return tuple(kept)

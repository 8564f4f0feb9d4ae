"""Delta geometry and the infinite-quotient decision procedure.

Delta(P) is the set of rational cone points that are not (nonzero monoid
element) + (cone point).  Its level-n slice is finite: a cone point x lies
in the cone of a simplex of a triangulation of the extreme rays, so x is
sum t_j r_j with t_j >= 0 over d = rank P linearly independent r_j, each
the least element of P on an extreme ray.  If x is in Delta, then x - r_j
is not in the cone, so every t_j < 1: x lies in the half-open
parallelepiped of the simplex.  In the integer model (s the denominator)
the s*r_j are `MonoidPresentation.ray_generators`, and
`MonoidPresentation._parallelepipeds` holds a pulling triangulation with
the group points of each parallelepiped; the level-n slice is read off
them (the Normaliz primal algorithm: Bruns-Ichim, "Normaliz: algorithms
for affine monoids and rational cones", J. Algebra 324, 2010).  Its
candidates are counted before they are enumerated, and more than
`ENUMERATION_BUDGET` raise `EnumerationBudget`.

Delta0(P) keeps the points that are alone in their class modulo the
group; at a fixed level this is decided exactly by the level-n
enumeration, since congruent Delta points share denominators.

A truncated profinite element is a compatible family of coset labels over
the divisors of a level N.  The family is fixed by its level-N label [x],
and it is always realised in P: if N*x = a - b with a, b in P, then
a + (N-1)*b has every label of the family.  Recognition through Delta0
representatives is sound: it returns *an* element of P whose truncation
equals the family.  At finite N that element need not be unique (on the
non-simplicial cone 12*e3 and 0 share every label at level 12, because
12*e3/m lies in P^gp for each m | 12).  Because every compatible family
is realised in P, a valid family can never be refuted, so no refutation
is searched for: `InconclusiveAtLevel` is the answer when recognition
finds no Delta0 representative.

`delta_points` stores the level-n slice as int tuples y = n*s*x (s the
denominator); `DeltaSet.points`, `in_delta` and the rest take Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import ge

from . import lattice
from .errors import EnumerationBudget, IncompatibleFamily, NotSharp
from .kummer import coset_label, label_scale, scaled_label
from .lattice import facet_values, unscale, vadd, vscale
from .monoid import MonoidElement

# Most Delta candidates `delta_points` enumerates at one level.
ENUMERATION_BUDGET = 2 * 10**6


def divisors(n):
    return tuple(d for d in range(1, n + 1) if n % d == 0)


def positive_functional(pres):
    """Integer functional strictly positive on every Hilbert basis element."""
    if not pres.is_sharp:
        raise NotSharp("a positive functional needs a sharp cone")
    return pres.positive_functional


def in_delta(pres, x):
    """Exact membership of a rational vector in Delta(P)."""
    x = lattice.as_fractions(x)
    if not lattice.cone_contains(pres.cone, x):
        return False
    return all(
        not lattice.cone_contains(pres.cone, lattice.vsub(x, v))
        for v in pres.hilbert_basis
    )


class DeltaSet:
    """Delta(P) intersected with (1/n)P, with per-point labels and Delta0 flags.

    `scaled` gives int tuples y = n*s*x, the other accessors rational
    points.  Classes are keyed by (order, res).
    """

    def __init__(self, monoid, level, scaled, labels):
        self.monoid = monoid
        self.level = level
        self.scaled = scaled
        self.labels = labels
        self._by_label = {}
        for y, lab in zip(scaled, labels):
            self._by_label.setdefault((lab.order, lab.res), []).append(y)
        self.delta0_mask = tuple(
            len(self._by_label[lab.order, lab.res]) == 1 for lab in labels
        )

    def _unscale(self, ys):
        return tuple(unscale(y, self.level * self.monoid.denominator) for y in ys)

    @cached_property
    def points(self):
        return self._unscale(self.scaled)

    @property
    def delta0_points(self):
        return tuple(
            p for p, flag in zip(self.points, self.delta0_mask) if flag
        )

    def points_in_class(self, label):
        return self._unscale(self._by_label.get((label.order, label.res), ()))

    def delta0_point_in_class(self, label):
        pts = self.points_in_class(label)
        return pts[0] if len(pts) == 1 else None

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.scaled)


@lru_cache(maxsize=None)
def delta_points(pres, level):
    """Delta(P) cap (1/level)P, lex-sorted, with Delta0 flags.

    The candidates: for x in Delta, the group point y = level*s*x lies in
    the cone of a simplex of `_parallelepipeds`, y = sum u_j r_j over its
    integer ray generators r_j.  As x is in Delta, u_j/level < 1 (module
    docstring), so 0 <= u_j < level, and with k_j = floor(u_j) the group
    point y - sum k_j r_j lies in the simplex's half-open parallelepiped.
    So y is p + sum k_j r_j for a parallelepiped point p and 0 <= k_j <
    level: level^d * sum |Pi| candidates over the simplices, d the rank.
    Past `ENUMERATION_BUDGET` of them it raises `EnumerationBudget` before
    enumerating.

    The test: y = level*s*x is in Delta iff f(y) >= f(level*v) fails for
    some facet f, for each integer Hilbert generator v of P.  f is
    evaluated once per point and once per v.
    """
    pres.hilbert_basis  # raises NotSaturated, as Delta is defined for saturated P
    pieces = pres._parallelepipeds
    count = level ** pres.group_rank * sum(len(points) for _, points in pieces)
    if count > ENUMERATION_BUDGET:
        raise EnumerationBudget(
            f"level {level} has {count} Delta candidates, past the budget of {ENUMERATION_BUDGET}"
        )
    candidates = set()
    for rays, points in pieces:
        offsets = [(0,) * pres.ambient_rank]
        for r in rays:
            steps = [vscale(k, r) for k in range(level)]
            offsets = [vadd(o, t) for o in offsets for t in steps]
        candidates.update(vadd(p, o) for p in points for o in offsets)
    facets = pres.cone.facets
    shifts = [facet_values(facets, vscale(level, v)) for v in pres._saturation_hilbert_basis]
    scaled = []
    for y in sorted(candidates):
        fy = facet_values(facets, y)
        if not any(all(map(ge, fy, fv)) for fv in shifts):
            scaled.append(y)
    labels = tuple(scaled_label(pres, level, y) for y in scaled)
    return DeltaSet(pres, level, tuple(scaled), labels)


def delta0_points(pres, level):
    return delta_points(pres, level).delta0_points


# ---------------------------------------------------------------------------
# truncated profinite elements


class TruncatedProfiniteElement:
    """Compatible coset labels over all divisors of a level N."""

    def __init__(self, monoid, level, labels):
        self.monoid = monoid
        self.level = int(level)
        divs = divisors(self.level)
        if sorted(labels) != list(divs):
            raise IncompatibleFamily(
                f"labels must cover exactly the divisors of {self.level}"
            )
        self.labels = {n: labels[n] for n in divs}
        for n, lab in self.labels.items():
            if lab.monoid != monoid:
                raise IncompatibleFamily("label over a foreign monoid")
            if n % lab.order:
                raise IncompatibleFamily(f"label at level {n} has a finer denominator")
        if not self.labels[1].is_zero():
            raise IncompatibleFamily("the level-1 label must vanish")
        for m in divs:
            for n in divs:
                if n % m == 0 and label_scale(n // m, self.labels[n]) != self.labels[m]:
                    raise IncompatibleFamily(
                        f"labels at levels {n} and {m} are incompatible"
                    )

    @classmethod
    def from_element(cls, monoid, p, level):
        p = lattice.as_fractions(p)
        labels = {
            n: coset_label(monoid, n, vscale(Fraction(1, n), p))
            for n in divisors(level)
        }
        return cls(monoid, level, labels)


@dataclass(frozen=True)
class InfquotVerdict:
    kind: str
    element: MonoidElement = None
    level: int = None

    @property
    def is_confirmed(self):
        return self.kind == "confirmed"

    @property
    def is_refuted(self):
        return self.kind == "not-an-infinite-quotient"

    @property
    def is_inconclusive(self):
        return self.kind == "inconclusive"

    def __str__(self):
        if self.is_confirmed:
            return f"ConfirmedElement({self.element.vector})"
        if self.is_refuted:
            return "NotAnInfiniteQuotient"
        return f"InconclusiveAtLevel({self.level})"


def is_infinite_quotient(element, depth=4):
    """Three-valued decision for a truncated profinite element.

    Recognition: if some divisor level n has the label represented by a
    Delta0 point gamma and the family matches the element n*gamma at every
    divisor, that element is returned.  It lies in P and has exactly this
    truncation, but at finite N another element may share it, so the
    answer is an element with this truncation, not necessarily the one the
    family was built from.  Otherwise the verdict is inconclusive at this
    truncation level.  `not-an-infinite-quotient` cannot occur for a valid
    `TruncatedProfiniteElement`: if N*x = a - b with a, b in P, then
    a + (N-1)*b realises the family of [x].  `depth` is accepted for the
    CLI's `--depth` and has no effect.
    """
    pres = element.monoid
    divs = divisors(element.level)
    for n in divs:
        gamma = delta_points(pres, n).delta0_point_in_class(element.labels[n])
        if gamma is None:
            continue
        p = vscale(Fraction(n), gamma)
        if all(
            element.labels[m]
            == coset_label(pres, m, vscale(Fraction(1, m), p))
            for m in divs
        ):
            return InfquotVerdict("confirmed", element=MonoidElement(pres, p))
    return InfquotVerdict("inconclusive", level=element.level)

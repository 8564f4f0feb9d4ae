"""Delta geometry and the infinite-quotient decision procedure.

Delta(P) is the set of rational cone points that are not (nonzero monoid
element) + (cone point).  Its level-n slice is finite.  A cone point x is
sum t_j r_j, t_j >= 0, in exactly one half-open simplicial cone of a
triangulation of the extreme rays (over d = rank P independent r_j, each
the least element of P on its ray, t_j > 0 on the open j); if x is in
Delta, x - r_j leaves the cone, so every t_j < 1 and x lies in the
simplex's half-open parallelepiped.  These are, in the integer model,
`MonoidPresentation._simplices`; the slice is read off them, each
point once (Normaliz's primal algorithm, Bruns-Ichim, J. Algebra 324,
2010, made disjoint by Koppe-Verdoolaege, Electron. J. Combin. 15, 2008),
its candidates counted against `ENUMERATION_BUDGET`.

Most candidates are never tested: `delta_points` walks boxes as
down-sets and solves ray lines in closed form (proofs there).

Delta0(P) keeps the points that are alone in their class modulo the
group; at a fixed level this is decided exactly by the level-n
enumeration, since congruent Delta points share denominators.  One
class needs no slice: `delta_class` finds its Delta points among one
candidate per parallelepiped point, sum |Pi| of them at any level.

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
finds no Delta0 representative.  Recognition reads one class per
divisor (`delta_class`) and builds no slice, so it answers at any level:
no `ENUMERATION_BUDGET` applies, and the divisors come from a
factorisation by trial division that stops at a prime cofactor and, below
the exact range of its primality test, hands a composite cofactor without
small factors to Pollard's rho.

All of it runs on int tuples: y = n*s*x for the level-n slice (s the
denominator), and for the family of p the one vector s*p = n*s*(p/n),
whose coordinates give the labels at every divisor n.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import add, ge, mul

from . import lattice
from .errors import EnumerationBudget, IncompatibleFamily, MalformedInput, NotSharp
# coset_label and scaled_label stay bound for perfbench's tracer and for tests that patch them
from .kummer import coset_label, label_scale, scaled_label, scaled_labels
from .lattice import Record, dot, facet_values, int_from_json, unscale, vadd, vec_from_json, vscale
from .monoid import MonoidElement, monoid_from_json

# Most Delta candidates `delta_points` enumerates at one level, and most
# labels `monostack picard` lists: the budget of `lattice`, read from here.
ENUMERATION_BUDGET = lattice.ENUMERATION_BUDGET


# Miller-Rabin with these bases decides primality exactly below
# MILLER_RABIN_EXACT (Sorenson-Webster, Math. Comp. 86, 2017).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_EXACT = 3317044064679887385961981


def certified_prime(m):
    """m is prime and below `MILLER_RABIN_EXACT`, where a strong probable
    prime to every base of `MILLER_RABIN_BASES` is prime.  From that bound
    on the answer is False (not certified), and `divisors` divides on."""
    if m >= MILLER_RABIN_EXACT or m < 2:
        return False
    for a in MILLER_RABIN_BASES:
        if m % a == 0:
            return m == a
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


# `divisors` trial-divides by the p below TRIAL_BOUND, and by every p while
# the cofactor is at least MILLER_RABIN_EXACT.
TRIAL_BOUND = 1000


def _rho(m):
    """A divisor 1 < d < m of an odd composite m: Pollard's rho with Brent's
    cycle search and batched gcds (Brent, BIT 20, 1980) on x -> x^2 + c
    from x = 2, for c = 1, 2, ... until one splits m."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = gcd(q, m)
                k += 128
            r *= 2
        if g == m:  # the batch overshot: step through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(abs(x - ys), m)
        if g != m:
            return g


def _split(m):
    """The prime factors of a composite m below `MILLER_RABIN_EXACT` with no
    factor below `TRIAL_BOUND`: below that bound a factor that is not
    `certified_prime` is composite, so it is split again."""
    d = _rho(m)
    return [p for f in (d, m // d) for p in ([f] if certified_prime(f) else _split(f))]


def divisors(n):
    """The divisors of n >= 1, ascending, from n's factorisation.  Trial
    division tries a factor p while p^2 is at most the cofactor left, not
    at all once that cofactor is prime (`certified_prime`), and, once p
    reaches `TRIAL_BOUND`, only while the cofactor is at least
    `MILLER_RABIN_EXACT`; a composite cofactor left below it is split by
    Pollard's rho (`_split`), whose factors are certified, so every answer
    is exact."""
    primes, m, p = [], n, 2
    prime = certified_prime(m)
    while not prime and p * p <= m and (p < TRIAL_BOUND or m >= MILLER_RABIN_EXACT):
        k = 0
        while m % p == 0:
            m, k = m // p, k + 1
        if k:
            primes += [p] * k
            prime = certified_prime(m)
        p += 1
    if m > 1:
        primes += [m] if prime or p * p > m else _split(m)
    divs = [1]
    for q in sorted(set(primes)):
        divs = [d * q**i for d in divs for i in range(primes.count(q) + 1)]
    return tuple(sorted(divs))


def positive_functional(pres):
    """Integer functional strictly positive on every Hilbert basis element."""
    if not pres.is_sharp:
        raise NotSharp("a positive functional needs a sharp cone")
    return pres.positive_functional


def _thresholds(pres, k):
    """The table k*f(h), one row per integer Hilbert generator h of P and one
    entry per facet f: a cone point y is in Delta at scale k iff for every
    row some facet value f(y) falls below its entry, that is iff y - k*h
    leaves the cone for every h."""
    facets = pres.cone.facets
    return tuple(tuple(k * v for v in facet_values(facets, h)) for h in pres._saturation_hilbert_basis)


def _in_delta_values(fy, table):
    """y is in Delta at the scale of `table` (`_thresholds`), from its facet values fy."""
    return min(fy) >= 0 and not any(all(map(ge, fy, row)) for row in table)


def in_delta(pres, x):
    """Exact membership of a rational vector in Delta(P): the `delta_points`
    test on y = k*s*x, k the least common denominator of x."""
    pres.integer_hilbert_basis  # raises NotSaturated
    x = lattice.as_fractions(x)
    k = lcm(*(a.denominator for a in x))
    return _in_delta_values(facet_values(pres.cone.facets, pres._scaled(x, k)), _thresholds(pres, k))


class DeltaSet:
    """Delta(P) intersected with (1/n)P, with per-point labels and Delta0 flags.

    `scaled` gives int tuples y = n*s*x, `residues` their labels' residues
    mod n, which key the classes, and the other accessors rational points.
    """

    def __init__(self, monoid, level, scaled, residues):
        self.monoid, self.level, self.scaled, self.residues = monoid, level, scaled, residues
        count = Counter(residues)
        self.delta0_mask = tuple(map((1).__eq__, map(count.__getitem__, residues)))

    @cached_property
    def _by_class(self):
        by_class = {}
        for y, res in zip(self.scaled, self.residues):
            by_class.setdefault(res, []).append(y)
        return by_class

    def _class(self, label):
        """The scaled points of a label's class; none when its order does not divide n."""
        k, rem = divmod(self.level, label.order)
        return () if rem else self._by_class.get(tuple(k * c for c in label.res), ())

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
        return self._unscale(self._class(label))

    def delta0_point_in_class(self, label):
        pts = self.points_in_class(label)
        return pts[0] if len(pts) == 1 else None

    def __len__(self):
        return len(self.scaled)


@lru_cache(maxsize=None)
def delta_points(pres, level):
    """Delta(P) cap (1/level)P, lex-sorted, with Delta0 flags.

    The candidates: for x in Delta, y = level*s*x is sum u_j r_j in one
    half-open cone of `_simplices`, over its integer ray generators
    r_1..r_d (d the rank), and u_j < level (module docstring).  With k_j =
    floor(u_j), or ceil(u_j) - 1 on an open j, y = p + sum k_j r_j for one
    point p of the simplex's half-open parallelepiped and 0 <= k_j < level:
    level^d * sum |Pi| candidates, each Delta point once.  Past
    `ENUMERATION_BUDGET` of them it raises `EnumerationBudget` before
    enumerating; the count is an upper bound on the work, as most
    candidates get no test of their own (below).

    The test: y is in Delta iff for each integer Hilbert generator h of P
    some facet f has f(y) < level*f(h) (`_thresholds`), that is iff y -
    level*h leaves the cone.

    Down-set lemma: if y is not in Delta, neither is y + r for a ray
    generator r.  Proof: y - level*h is in the cone for some h, and f(r) >=
    0 for every facet f, so f(y + r - level*h) = f(y - level*h) + f(r) >= 0
    and y + r - level*h is in the cone.  So within the box of one
    parallelepiped point the k with p + sum k_j r_j in Delta form a
    down-set.

    Line solve: on the line b + k*r_d, h applies (b + k*r_d - level*h is
    in the cone) iff f(b) + k*f(r_d) >= level*f(h) for every facet f.  A
    facet with f(r_d) = 0 does not see k: if f(b) < level*f(h) there, h
    never applies on the line.  Otherwise h applies exactly from k_h = max
    over the facets with f(r_d) > 0 of ceil((level*f(h) - f(b))/f(r_d));
    there is such a facet, as the cone is sharp and r_d != 0, and none has
    f(r_d) < 0.  So the Delta points of the line are the k < min(level,
    min_h k_h), and the line of b is empty iff b is not in Delta.

    The walk: k_1..k_(d-1) depth first from each parallelepiped point, a
    coordinate's loop stopped at the first base outside Delta (by the
    lemma every later base and its lines are outside too), and each base's
    line solved.  Facet values and coordinates in the group basis are
    linear, so each parallelepiped point and ray is lifted once to (itself
    with its coordinates unless the group is Z^d, its facet values), the
    bases are sums of lifts, kept in one list and sorted once, and a
    point's label residues are its coordinates mod level.
    """
    pres.integer_hilbert_basis  # raises NotSaturated, as Delta is defined for saturated P
    pieces = pres._simplices
    count = level ** pres.group_rank * sum(len(simplex.points) for simplex in pieces)
    if count > ENUMERATION_BUDGET:
        raise EnumerationBudget(
            f"level {level} has {count} Delta candidates, past the budget of {ENUMERATION_BUDGET}"
        )
    d = pres.ambient_rank
    first = 0 if pres._group_is_ambient else d
    facets = pres.cone.facets
    table = _thresholds(pres, level)

    def lift(v):
        return v + (lattice.lattice_coords_int(pres.group_basis, v) if first else ()), tuple(facet_values(facets, v))

    lifted = []
    for simplex in pieces:
        *steps, (top, last) = map(lift, simplex.rays)
        line = [vscale(k, top) for k in range(level)]

        def walk(j, b, fb):
            """Add to `lifted` the Delta points b + sum k_i r_i over the rays from
            steps[j] on and the line's (0 <= k_i < level), and say whether b
            itself is in Delta."""
            if j == len(steps):
                length = level
                for row in table:
                    k_h = 0
                    for a, t, c in zip(fb, row, last):
                        if c:
                            k_h = max(k_h, -((a - t) // c))  # ceil((t - a)/c)
                        elif a < t:
                            break  # h never applies on this line
                    else:
                        length = min(length, k_h)
                        if not length:
                            return False
                lifted.extend([tuple(map(add, b, o)) for o in line[:length]])
                return True
            ray, fr = steps[j]
            for k in range(level):
                if not walk(j + 1, b, fb):
                    return k > 0
                b, fb = vadd(b, ray), vadd(fb, fr)
            return True

        for p in simplex.points:
            walk(0, *lift(p))
    lifted.sort()  # a lift starts with its y: sorted as the y are
    rmod = level.__rmod__
    residues = tuple(tuple(map(rmod, v[first:])) for v in lifted)
    return DeltaSet(pres, level, tuple([v[:d] for v in lifted] if first else lifted), residues)


def delta_class(pres, level, label):
    """The Delta points of one label's class at level n, as lex-sorted int
    tuples y = n*s*x: the class of `delta_points(pres, n)`, from sum |Pi|
    candidates whatever n is; none when the label's order does not divide n.

    Proof.  Let L be the group lattice, y0 the class representative with
    group coordinates k*res (k = n/order), so the class is y0 + n*L, and
    R the lattice of the rays r_j of a simplex of `_simplices`.  A Delta
    point of the class lies in exactly one half-open cone, and there it is
    sum u_j r_j with u_j < n (module docstring): it lies in n*B, B the
    half-open unit box of the rays (0 <= u_j < 1, 0 < u_j <= 1 on an open
    j).  B is a fundamental domain of R, and y0/n + L is the union of the
    cosets y0/n + p + R over the parallelepiped points p, so each p gives
    exactly one point z_p of (y0 + n*L) cap n*B: z_p = y0 + n*p - n*sum
    m_j r_j, with m_j = floor(phi_j*w/(e*n)) on a closed j and
    ceil(phi_j*w/(e*n)) - 1 on an open j, where w = k*res + n*coords(p) are
    the group coordinates of y0 + n*p and phi_j is column j of e*C^-1, so
    phi_j*w = k*(phi_j*res) + n*c_j for the numerators c of p.  That is,
    z_p = sum v_j r_j / e with v_j = phi_j*w mod e*n, or e*n for 0 on an
    open j.  The `_thresholds` test keeps z_p iff it is in Delta.  Every
    Delta point of the class is the z_p of its simplex and its p, and the
    half-open cones are disjoint, so the kept points are the class, each
    once, and a class is a singleton exactly when one is kept.
    """
    pres.integer_hilbert_basis  # raises NotSaturated, as Delta is defined for saturated P
    k, rem = divmod(level, label.order)
    if rem:
        return []
    res = [k * c for c in label.res]
    facets = pres.cone.facets
    table = _thresholds(pres, level)
    out = []
    for simplex in pres._simplices:
        e, en = simplex.e, simplex.e * level
        shift = [dot(phi, res) for phi in simplex.phi]
        for c in simplex.numerators:
            v = [(a + level * cj) % en or en * o for a, cj, o in zip(shift, c, simplex.opened)]
            z = tuple(sum(map(mul, v, col)) // e for col in zip(*simplex.rays))
            if _in_delta_values(facet_values(facets, z), table):
                out.append(z)
    return sorted(out)


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
        # labels[m] = (N/m)*labels[N] for every m implies labels[m] =
        # (n/m)*labels[n] for every m | n; only a failure scans the pairs,
        # so the message names the first failing pair in (m, n) order
        top = self.labels[self.level]
        if any(label_scale(self.level // m, top) != lab for m, lab in self.labels.items()):
            for m in divs:
                for n in divs:
                    if n % m == 0 and label_scale(n // m, self.labels[n]) != self.labels[m]:
                        raise IncompatibleFamily(
                            f"labels at levels {n} and {m} are incompatible"
                        )

    @classmethod
    def from_element(cls, monoid, p, level):
        y = monoid._scaled(p)
        labels = None if y is None else scaled_labels(monoid, y, divisors(level))
        if labels is None:
            raise ValueError(f"{lattice.vec_key(p)} is not in the group of the monoid")
        return cls(monoid, level, labels)


def profinite_from_json(data):
    """The profinite-element reader (re-exported by `jsonio`)."""
    if not isinstance(data, dict):
        raise MalformedInput("profinite payload must be an object")
    try:
        pres = monoid_from_json(data["monoid"])
        level = int_from_json(data["level"], "level", minimum=1)
        raw = data["labels"]
        if not isinstance(raw, dict):
            raise TypeError("labels must be an object")
        labels = {}
        for key, vec in raw.items():
            n = int_from_json(int(key), "label level", minimum=1)
            labels[n] = coset_label(pres, n, vec_from_json(vec))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad profinite payload: {exc}") from exc
    return TruncatedProfiniteElement(pres, level, labels)


class InfquotVerdict(Record):
    def __init__(self, kind, element=None, level=None):
        self.kind, self.element, self.level = kind, element, level

    def _key(self):
        return self.kind, self.element, self.level

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
            return f"ConfirmedElement({lattice.vec_key(self.element.vector)})"
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
    a + (N-1)*b realises the family of [x].  `depth` is accepted and has
    no effect.
    """
    pres, labels = element.monoid, element.labels
    for n, label in labels.items():  # the divisors, ascending
        ys = delta_class(pres, n, label)
        # y = n*s*gamma = s*p for p = n*gamma
        if len(ys) == 1 and scaled_labels(pres, ys[0], labels) == labels:
            return InfquotVerdict("confirmed", element=MonoidElement(pres, unscale(ys[0], pres.denominator)))
    return InfquotVerdict("inconclusive", level=element.level)

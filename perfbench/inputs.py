"""Seeded inputs for the benchmark workloads, as plain data.

Nothing here imports monostack: the generator produces integer generator
lists, element vectors, label indices and coefficient streams, and the
workloads hand those to the library.  The same seed always gives the same
data, and nothing is read from the test suite, so test edits cannot move
the benchmark's inputs.

Random monoids come from a fixed pool of isomorphism types (drawn once
from POOL_SEED); the workload seed picks a signed permutation of the
coordinates and an order of the generators for each of them.  Drawing the
types themselves per seed made the cost of one pass swing by a factor of
five between seeds, which would drown every change a later PR could make.
POOL_SEED was picked among the first twenty seeds as one whose costliest
type takes under a fifth of the pool's time, so no single monoid decides
the `monoid` figures.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1
POOL_SEED = 6
POOL_SIZE = 20

N2 = ((1, 0), (0, 1))
N3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
# Rank-3 sharp fs monoid with four extreme rays (facets a1, a2, a1+a3, a2+a3).
CONE = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1))
CONE_PAIR = ((1, 0, 0), (0, 0, 1))
N2_PAIR = ((1, 0), (0, 1))


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j in range(len(rows))
    )


def _full_rank(gens, r):
    """Some r of the generators are linearly independent."""
    from itertools import combinations

    return any(_det([list(g) for g in sub]) for sub in combinations(gens, r))


def _draw_type(rng, r):
    """Generators with first coordinate >= 1, so the cone is sharp."""
    while True:
        gens = []
        for _ in range(r + rng.randint(0, 1)):
            if r == 2:
                g = (rng.randint(1, 3), rng.randint(-3, 3))
            else:
                g = (rng.randint(1, 2), rng.randint(-1, 2), rng.randint(-1, 2))
            if g not in gens:
                gens.append(g)
        if len(gens) >= r and _full_rank(gens, r):
            return tuple(gens)


def monoid_pool():
    rng = random.Random(POOL_SEED)
    return [_draw_type(rng, 2 if i % 2 == 0 else 3) for i in range(POOL_SIZE)]


def signed_permutation(rng, gens):
    r = len(gens[0])
    perm = list(range(r))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(r)]
    out = [tuple(signs[i] * g[perm[i]] for i in range(r)) for g in gens]
    rng.shuffle(out)
    return [list(g) for g in out]


def _cone_element(rng, total):
    """A nonnegative combination of the CONE generators with coefficient sum `total`."""
    coeffs = [0, 0, 0, 0]
    for _ in range(total):
        coeffs[rng.randrange(4)] += 1
    return [sum(c * g[i] for c, g in zip(coeffs, CONE)) for i in range(3)]


def geometry_inputs(seed):
    """Data for the `geometry` workload.

    Infinite-quotient families are truncations at level 12 of elements:
    strictly inside the sweep region l(p) < 3 * sum l(h) (recognition is
    exact there, so the element must come back), and one on the closed
    boundary, where the verdict is inconclusive.
    """
    rng = random.Random(f"geometry:{seed}")
    monoids = [signed_permutation(rng, t) for t in monoid_pool()]
    # N^2: l = (1, 1), sum over the Hilbert basis is 2, region bound 6.
    n2_points = []
    while len(n2_points) < 2:
        p = [rng.randint(0, 5), rng.randint(0, 5)]
        if sum(p) < 6 and p not in n2_points:
            n2_points.append(p)
    # CONE: l = (2, 2, 2), sum over the Hilbert basis is 8, region bound 24;
    # l of a generator combination is twice its coefficient sum.
    families = [
        {"monoid": N2, "element": p, "level": 12, "strict": True} for p in n2_points
    ]
    families.append(
        {"monoid": CONE, "element": _cone_element(rng, rng.randint(2, 6)), "level": 12, "strict": True}
    )
    # A fixed element on the boundary (l = 24): the cost of the verdict
    # differs between boundary elements by up to 40%, which would make the
    # figures depend on the seed.
    families.append({"monoid": CONE, "element": [0, 1, 11], "level": 12, "strict": False})
    return {
        "delta": [(N3, n) for n in range(1, 9)] + [(CONE, n) for n in range(1, 9)],
        "probes": [(CONE, CONE_PAIR, (1, 2, 3, 4)), (N2, N2_PAIR, (1, 2, 3, 4))],
        "monoids": monoids,
        "families": families,
    }


def _module_spec(rng, gens, level, kind, rank, source=None, target=None):
    """A module recipe: a twist sum by label index, or a map's kernel or image.

    `kind` "sum" is the sum of two twists at seeded labels.  "kernel" and
    "image" take the seeded map between the twist sums at the fixed
    `source` and `target` labels: only its coefficients are seeded, so
    the submodule's dimensions, and with them the cost of every job on
    it, are the same for every seed.
    """
    nlabels = level**rank
    return {
        "monoid": gens,
        "level": level,
        "kind": kind,
        "source": source or [rng.randrange(nlabels) for _ in range(2)],
        "target": target or [],
        "coeffs": [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(64)],
    }


def sheaf_inputs(seed):
    """Three source modules and their induction targets for `sheaf`.

    The kind and shape of each module are fixed so the cost of a pass
    stays level across seeds; the seed picks the twists of the sum and the
    coefficients of the maps.  The cone goes 1 -> 3, not 1 -> 4: reading
    back a level-4 cone sheaf is one 10-14 s call, too long to repeat in
    every pass.
    """
    rng = random.Random(f"sheaf:{seed}")
    return [
        (_module_spec(rng, N2, 2, "image", 2, source=[0, 3], target=[1, 2]), 6),
        (_module_spec(rng, N2, 3, "kernel", 2, source=[0, 1], target=[3, 4]), 6),
        (_module_spec(rng, CONE, 1, "sum", 3), 3),
    ]


def cli_inputs(seed):
    """Payload recipes for `cli-cold`: two monoids and three parabolic sheaves."""
    rng = random.Random(f"cli-cold:{seed}")
    return {
        "cone": CONE,
        # one fixed rank-3 type, so every seed costs the same work
        "random_monoid": signed_permutation(rng, monoid_pool()[1]),
        "n2_level2": _module_spec(rng, N2, 2, "image", 2, source=[0, 3], target=[1, 2]),
        "cone_level2": _module_spec(rng, CONE, 2, "sum", 3, source=[rng.randrange(8)]),
        "cone_level3": _module_spec(rng, CONE, 3, "sum", 3, source=[rng.randrange(27)]),
    }

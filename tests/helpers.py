"""Independent oracles and seeded random generators for the test suite.

Everything here deliberately avoids the library's own geometry paths:
cone membership is decided by Fourier-Motzkin feasibility of the
nonnegative-combination system, monoid membership by bounded brute-force
coefficient search, determinants by fraction Gaussian elimination, and
reduced row echelon forms by sympy's `DomainMatrix`.
"""

import itertools
from fractions import Fraction

from monostack import fields
from monostack.errors import EmptyGenerators, NotSharp
from monostack.fields import QQ
from monostack.graded import (
    GradedModule,
    algebra_as_module,
    corestrict_to_image,
    direct_sum,
    image,
    kernel,
    twist,
)
from monostack.kummer import MonoidHom, label_add
from monostack.lattice import dot
from monostack.monoid import saturate, validate
from monostack.parabolic import from_graded, hom_space


def in_cone_oracle(generators, x):
    """x in the Q>=0-span of the generators, decided exactly.

    Caratheodory: membership holds iff some linearly independent generator
    subset admits a nonnegative exact solution, so all subsets up to the
    rank are solved by rational elimination.
    """
    from itertools import combinations

    from monostack.fields import QQ
    from monostack import fields as flds

    gens = [tuple(Fraction(a) for a in g) for g in generators]
    x = tuple(Fraction(a) for a in x)
    if all(a == 0 for a in x):
        return True
    rank = flds.rank(QQ, tuple(gens))
    for size in range(1, rank + 1):
        for subset in combinations(range(len(gens)), size):
            cols = tuple(gens[i] for i in subset)
            if flds.rank(QQ, cols) != size:
                continue
            a = tuple(zip(*cols))  # dim x size
            t = flds.solve(QQ, a, x)
            if t is not None and all(c >= 0 for c in t):
                return True
    return False


def cone_oracle(generators):
    """(facets, rays) of the cone of integer generators, by sympy rational nullspaces.

    The span is pinned by +/- the reduced-echelon null vectors of the
    primitive generators; a span facet is the one-dimensional nullspace
    of s - 1 generators and those null vectors (s the rank), kept when it
    has one sign on the generators.  A ray is a generator on which facets
    of rank dim - 1 vanish.  Vectors are scaled to primitive integers.
    """
    from itertools import combinations
    from math import gcd, lcm

    import sympy

    dim = len(generators[0])

    def prim(v):
        v = [Fraction(int(a.p), int(a.q)) if isinstance(a, sympy.Rational) else Fraction(a) for a in v]
        d = lcm(*(a.denominator for a in v))
        w = [int(a * d) for a in v]
        g = gcd(*w)
        return tuple(a // g for a in w)

    def matrix(rows):
        return sympy.Matrix(rows) if rows else sympy.zeros(1, dim)

    gens = []
    for g in generators:
        if any(g) and prim(g) not in gens:
            gens.append(prim(g))
    annihilator = [prim(v) for v in matrix(gens).nullspace()]
    facets = set(annihilator) | {tuple(-a for a in v) for v in annihilator}
    s = dim - len(annihilator)
    for subset in combinations(gens, s - 1) if s else ():
        kernel = matrix(list(subset) + annihilator).nullspace()
        if len(kernel) != 1:
            continue
        normal = prim(kernel[0])
        vals = [sum(a * b for a, b in zip(normal, g)) for g in gens]
        if all(v >= 0 for v in vals):
            facets.add(normal)
        elif all(v <= 0 for v in vals):
            facets.add(tuple(-a for a in normal))
    rays = [
        g for g in gens
        if matrix([f for f in facets if sum(a * b for a, b in zip(f, g)) == 0]).rank() == dim - 1
    ]
    return tuple(sorted(facets)), tuple(sorted(rays))


def to_sympy(field, mat, rows, cols):
    """A dense matrix as a sympy `DomainMatrix` over QQ or GF(p)."""
    import sympy
    from sympy.polys.matrices import DomainMatrix

    if field.p:
        k = sympy.GF(field.p)
        return DomainMatrix([[k(int(x)) for x in row] for row in mat], (rows, cols), k)
    k = sympy.QQ
    return DomainMatrix([[k(x.numerator, x.denominator) for x in row] for row in mat], (rows, cols), k)


def from_sympy(field, rows):
    """Lists of `DomainMatrix` entries as tuples of field elements (ints
    over QQ where integral)."""
    if field.p:
        return [tuple(int(x) % field.p for x in row) for row in rows]
    return [tuple(field.norm(Fraction(int(x.numerator), int(x.denominator))) for x in row) for row in rows]


def oracle_rref(field, mat, rows, cols):
    """sympy's reduced row echelon form of a dense matrix: (rows, pivot list)."""
    red, pivots = to_sympy(field, mat, rows, cols).rref()
    return from_sympy(field, red.to_list()), list(pivots)


def nat_combination_oracle(generators, x, coeff_bound=10):
    """Brute-force: is x a sum of generators with coefficients <= coeff_bound?"""
    x = tuple(Fraction(a) for a in x)

    def search(rem, idx):
        if all(a == 0 for a in rem):
            return True
        if idx == len(generators):
            return False
        g = generators[idx]
        for c in range(coeff_bound + 1):
            cand = tuple(a - c * Fraction(b) for a, b in zip(rem, g))
            if search(cand, idx + 1):
                return True
        return False

    return search(x, 0)


def det_frac(matrix):
    """Exact determinant by fraction Gaussian elimination."""
    m = [list(map(Fraction, row)) for row in matrix]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] * inv
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def random_int_matrix(rng, rows, cols, lo=-9, hi=9):
    return tuple(
        tuple(rng.randint(lo, hi) for _ in range(cols)) for _ in range(rows)
    )


def random_unimodular(rng, n, steps=6):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return tuple(tuple(row) for row in m)


def random_sharp_saturated(rng, rank=2, tries=100):
    for _ in range(tries):
        gens = [
            tuple(rng.randint(-2, 3) for _ in range(rank))
            for _ in range(rng.randint(2, 4))
        ]
        try:
            pres = validate(gens)
        except (NotSharp, EmptyGenerators):
            continue
        return saturate(pres)
    raise RuntimeError("could not draw a sharp monoid")


def random_kummer_hom(pres, rng):
    """A random Kummer map: unimodular relabel into a root-extended saturation."""
    u = random_unimodular(rng, pres.ambient_rank)
    d = rng.choice([1, 2, 3])
    imgs = [
        tuple(sum(u[i][j] * g[j] for j in range(pres.ambient_rank))
              for i in range(pres.ambient_rank))
        for g in pres.generators
    ]
    target = saturate(validate(imgs, denominator=pres.denominator * d))
    return MonoidHom(pres, target, u)


def coset_label_oracle(pres, n, x):
    """Normal form of the level-n coset label of x, by Fraction coordinates.

    The fractional parts of the coordinates of s*x against the group basis
    (s the presentation denominator), or None when x is not in (1/n)P^gp.
    """
    from math import floor

    from monostack.lattice import lattice_coords

    s = pres.denominator
    coords = lattice_coords(pres.group_basis, tuple(Fraction(a) * s for a in x))
    if coords is None or any((c * n).denominator != 1 for c in coords):
        return None
    return tuple(c - floor(c) for c in coords)


def hom_oracle(source, target, matrix):
    """The generator check, cokernel and Kummer test of x -> matrix*x, by Fractions.

    Returns (maps, factors, kummer):
    - maps: every rational source generator is an N-combination of the
      rational target generators (`nat_combination_oracle`);
    - factors: the invariant factors of Q^gp / f(P^gp), None when it is
      infinite.  The images of the rational group basis are solved against
      the target's over QQ; d_k = D_k / D_(k-1), D_k the gcd of the k x k
      minors of the coordinate matrix (`det_frac`);
    - kummer: for saturated monoids, injective (QQ rank) and each rational
      target generator has a QQ preimage in the source cone
      (`in_cone_oracle`); None otherwise.
    """
    from itertools import combinations
    from math import gcd

    def apply(x):
        return tuple(sum(a * b for a, b in zip(row, x)) for row in matrix)

    maps = all(nat_combination_oracle(target.rational_generators, apply(g)) for g in source.rational_generators)
    basis = [tuple(Fraction(a, source.denominator) for a in b) for b in source.group_basis]
    tbasis = tuple(zip(*(tuple(Fraction(a, target.denominator) for a in t) for t in target.group_basis)))
    coords = [fields.solve(QQ, tbasis, apply(b)) for b in basis]
    factors = None
    if len(basis) == len(target.group_basis) and all(c is not None and all(x.denominator == 1 for x in c) for c in coords):
        r = len(basis)
        minors = [1]
        for k in range(1, r + 1):
            dk = 0
            for rows in combinations(range(r), k):
                for cols in combinations(range(r), k):
                    dk = gcd(dk, int(det_frac([[coords[j][i] for j in cols] for i in rows])))
            minors.append(dk)
        if minors[r]:
            factors = tuple(minors[k] // minors[k - 1] for k in range(1, r + 1) if minors[k] != minors[k - 1])
    kummer = None
    if source.is_saturated and target.is_saturated:
        images = tuple(apply(b) for b in basis)
        kummer = fields.rank(QQ, images) == len(basis)
        amat = tuple(zip(*images))
        for q in target.rational_generators if kummer else ():
            c = fields.solve(QQ, amat, q)
            pre = None if c is None else tuple(sum(ci * b[i] for ci, b in zip(c, basis)) for i in range(source.ambient_rank))
            if pre is None or not in_cone_oracle(source.generators, pre):
                kummer = False
                break
    return maps, factors, kummer


def contains_at_level(pres, level, x):
    """Membership of a rational vector in (1/level)*P (saturated P): y =
    level*s*x is integral and `pres._contains_int(y)`."""
    y = pres._scaled(x, level)
    return y is not None and pres._contains_int(y)


def vertex_max_oracle(facets, t, ell):
    """`ideals._vertex_max` by elimination over QQ: the largest l(v) over the
    feasible solutions v of F_S*v = t_S, S a square subset of the facet
    rows whose reduced row echelon form has a pivot in every variable."""
    dim = len(ell)
    best = None
    for rows in itertools.combinations(range(len(facets)), dim):
        red, pivots = fields.rref(QQ, [list(facets[i]) + [t[i]] for i in rows])
        if pivots != list(range(dim)):
            continue  # singular, or F_S*y = t_S has no solution
        v = [row[-1] for row in red]
        if all(dot(f, v) >= ti for f, ti in zip(facets, t)):
            value = dot(ell, v)
            best = value if best is None else max(best, value)
    return best


def ideal_min_generators_oracle(ideal):
    """Minimal generators of a monomial ideal by the membership definition.

    Every point x of (1/n)P in the ideal's region such that x is in the
    ideal and x - h is not, for each Hilbert generator h of (1/n)P, tested
    with the public `MonoidIdeal.contains` on Fraction vectors.
    """
    from monostack.monoid import monoid_points

    pres, n = ideal.monoid, ideal.level
    hb = [tuple(a / n for a in v) for v in pres.hilbert_basis]
    return sorted(
        x
        for x in monoid_points(pres, n, ideal.bound)
        if ideal.contains(x)
        and not any(
            ideal.contains(tuple(a - b for a, b in zip(x, h))) for h in hb
        )
    )


# -- random graded data -------------------------------------------------------


def random_twist_sum(algebra, rng, max_summands=2):
    labels = algebra.labels
    parts = [
        twist(algebra, labels[rng.randrange(len(labels))])
        for _ in range(rng.randint(1, max_summands))
    ]
    return direct_sum(parts)


def graded_hom_basis(m, n):
    dim, maps = hom_space(from_graded(m), from_graded(n))
    return maps


def random_graded_map(m, n, rng):
    basis = graded_hom_basis(m, n)
    field = m.algebra.field
    from monostack.graded import GradedMap

    blocks = {}
    coeffs = [field.of_int(rng.randint(-2, 2)) for _ in basis]
    for lab in m.dims:
        acc = None
        for c, b in zip(coeffs, basis):
            mat = b.block(lab)
            scaled = fields.mat_scale(field, c, mat)
            acc = scaled if acc is None else fields.mat_add(field, acc, scaled)
        if acc is None:
            continue
        blocks[lab] = acc
    return GradedMap(m, n, blocks, check=False)


def random_module(algebra, rng, max_summands=2):
    m = random_twist_sum(algebra, rng, max_summands)
    roll = rng.random()
    if roll < 0.34:
        return m
    t = random_twist_sum(algebra, rng, max_summands)
    f = random_graded_map(m, t, rng)
    if roll < 0.67:
        k, _ = kernel(f)
        return k if k.total_dim else m
    img, _ = image(f)
    return img if img.total_dim else m


def random_ses(algebra, rng):
    """0 -> ker f -> M -> im f -> 0 for a random twist-sum map f."""
    m = random_twist_sum(algebra, rng)
    t = random_twist_sum(algebra, rng)
    f = random_graded_map(m, t, rng)
    img, incl = image(f)
    proj = corestrict_to_image(f, img, incl)
    ker, kincl = kernel(f)
    return ker, m, img, kincl, proj


# -- the module law as a full table ---------------------------------------------


def _product(field, a, b, rows, cols):
    """Schoolbook product of a rows x k and a k x cols matrix, every term summed."""
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = field.zero
            for k in range(len(b)):
                acc = field.norm(acc + a[i][k] * b[k][j])
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _is_zero(field, mat):
    return all(x == field.zero for row in mat for x in row)


def _shifted(module, label, gamma):
    """label + label(gamma), by coset label arithmetic."""
    return label_add(label, module.algebra.label_of(gamma))


def _chain(module, word, label):
    """The generators of `word` applied in order out of `label`, by schoolbook
    products; the empty word gives the identity."""
    field = module.algebra.field
    d = module.dim(label)
    mat = tuple(tuple(field.one if i == j else field.zero for j in range(d)) for i in range(d))
    cur = label
    for g in word:
        gmat = module.gen_matrix(g, cur)
        cur = _shifted(module, cur, g)
        mat = _product(field, gmat, mat, module.dim(cur), d)
    return mat


def dense_act(module, gamma, i):
    """`module.act(gamma, i)` as a dense matrix, sizes[target] x sizes[i],
    read from its sparse operator with the zeros filled in."""
    t, op = module.act(gamma, i)
    zero = module.algebra.field.zero
    return tuple(tuple(op.get(c, {}).get(r, zero) for c in range(module.sizes[i])) for r in range(module.sizes[t]))


def _composite(module, gamma, label, memo=None):
    """x^gamma out of `label`: the chain product along `decompose(gamma)`,
    stored in `memo` when one is given."""
    if memo is not None:
        if (gamma, label) not in memo:
            memo[(gamma, label)] = _composite(module, gamma, label)
        return memo[(gamma, label)]
    return _chain(module, tuple(reversed(module.algebra.decompose(gamma))), label)


def _times(module, h, gamma, label, memo=None):
    """x^h x^gamma out of `label`."""
    mid = _shifted(module, label, gamma)
    end = _shifted(module, mid, h)
    field = module.algebra.field
    return _product(
        field, module.gen_matrix(h, mid), _composite(module, gamma, label, memo),
        module.dim(end), module.dim(label),
    )


def module_law_oracle(module):
    """True iff the module law holds, checked as a full multiplication table.

    Every Hilbert generator outside Delta must act as zero, and for every
    generator h in Delta, Delta monomial gamma and label, x^h x^gamma must
    equal x^(h+gamma) when the sum stays in Delta and zero otherwise.  A
    wrongly shaped matrix fails the law.
    """
    alg = module.algebra
    field = alg.field
    memo = {}
    try:
        for h in alg.generators:
            if h not in alg.delta_generators:
                if not all(_is_zero(field, module.gen_matrix(h, lab)) for lab in module.dims):
                    return False
                continue
            for gamma in alg.basis:
                s = alg.multiply(h, gamma)
                for lab in module.dims:
                    lhs = _times(module, h, gamma, lab, memo)
                    if not (_is_zero(field, lhs) if s is None else lhs == _composite(module, s, lab, memo)):
                        return False
    except ValueError:
        return False
    return True


def law_family_failures(module):
    """The families of relations of `GradedModule.validate` at which a module
    fails, each checked on its own with schoolbook products: "N" (generators
    outside Delta act as zero), "C" (the delta generators commute), "M" (X^u =
    X^v for the moves of `GradedAlgebra.moves`) and "P" (X_h^n = 0 for each
    delta generator h, as n products in a row)."""
    alg = module.algebra
    field = alg.field
    labels = list(module.dims)
    failed = set()
    if any(
        not _is_zero(field, module.gen_matrix(h, lab))
        for h in alg.generators
        if h not in alg.delta_generators
        for lab in labels
    ):
        failed.add("N")
    if any(
        _chain(module, (g, h), lab) != _chain(module, (h, g), lab)
        for g, h in itertools.combinations(alg.delta_generators, 2)
        for lab in labels
    ):
        failed.add("C")
    if any(_chain(module, u, lab) != _chain(module, v, lab) for u, v in alg.moves for lab in labels):
        failed.add("M")
    if any(not _is_zero(field, _chain(module, (h,) * alg.level, lab)) for h in alg.delta_generators for lab in labels):
        failed.add("P")
    return failed


def corrupt_entry(module, rng):
    """A copy of the module with one random action entry raised by one, or
    None when it has no action entry.  Entries of zero actions count too,
    for every generator, in Delta or not, out of every nonzero component
    into a nonzero one."""
    alg = module.algebra
    field = alg.field
    entries = [
        ((g, lab), i, j)
        for g in alg.generators
        for lab, d in module.dims.items()
        for i in range(module.dim(alg.labels[alg.shift[g][alg.index(lab)]]))
        for j in range(d)
    ]
    if not entries:
        return None
    key, i, j = rng.choice(entries)
    action = dict(module.gen_action)
    rows = [list(row) for row in module.gen_matrix(*key)]
    rows[i][j] = field.norm(rows[i][j] + field.one)
    action[key] = rows
    return GradedModule(module.algebra, module.dims, action, check=False)


def random_scalar_module(algebra, rng):
    """One-dimensional components at random labels, each generator acting by
    random scalars 0, 1 or 2 (mostly 0 off Delta); no law check is made.
    A matrix into a label outside the support has no rows."""
    field = algebra.field
    dims = {lab: 1 for lab in algebra.labels if rng.random() < 0.8}
    action = {}
    for g in algebra.generators:
        scalars = (0, 0, 1, 2) if g in algebra.delta_generators or rng.random() < 0.1 else (0,)
        for lab in dims:
            x = field.of_int(rng.choice(scalars))
            target = algebra.labels[algebra.shift[g][algebra.index(lab)]]
            action[(g, lab)] = ((x,),) if target in dims else ()
    return GradedModule(algebra, dims, action, check=False)


def saturation_hilbert_basis_oracle(pres):
    """Hilbert basis of L cap cone over the all-rays region, in the integer model.

    Every indecomposable has l(x) at most the sum of l over the
    primitive-in-L ray generators, a region larger than the Caratheodory
    one; the candidates are reduced by the definition, x not y + z.
    """
    from monostack.lattice import dot, enumerate_integer_points

    ell = pres.positive_functional
    region = enumerate_integer_points(pres.cone, ell, sum(dot(ell, r) for r in pres.ray_generators))
    cands = [x for x in region if any(x) and pres._group_contains_int(x)]
    sums = {tuple(a + b for a, b in zip(y, z)) for y in cands for z in cands}
    return tuple(x for x in cands if x not in sums)


def delta_bound(pres):
    """Sum of the positive functional over the Hilbert basis; Delta lives below it."""
    from monostack.infquot import positive_functional
    from monostack.lattice import dot

    ell = positive_functional(pres)
    return Fraction(sum(dot(ell, v) for v in pres.hilbert_basis))


def delta_points_oracle(pres, level):
    """Delta(P) cap (1/level)P by the definition, over the `delta_bound` region.

    The points x of (1/level)P with l(x) <= delta_bound(P) such that x - h
    leaves the cone for every Hilbert generator h, tested on the integer
    vectors y = level*s*x (s the denominator) and returned lex-sorted.
    """
    from math import floor

    from monostack.lattice import dot, enumerate_integer_points, unscale

    denom = level * pres.denominator
    region = enumerate_integer_points(pres.cone, pres.positive_functional, floor(delta_bound(pres) * denom))
    shifts = [tuple(level * a for a in h) for h in pres._saturation_hilbert_basis]
    return tuple(
        unscale(y, denom)
        for y in region
        if pres._group_contains_int(y)
        and all(any(dot(f, y) < dot(f, h) for f in pres.cone.facets) for h in shifts)
    )


def delta_points_candidates_oracle(pres, level):
    """Delta(P) cap (1/level)P as (scaled, residues, delta0_mask), by testing
    every candidate.

    Each candidate p + sum k_j r_j of `delta_points` (a parallelepiped point p
    of a simplex of `_parallelepipeds`, its ray generators r_j and every k in
    [0, level)^d) is tested against all thresholds level*f(h) over the
    integer Hilbert basis; a survivor's residues are its coordinates in the
    group basis mod level, and it is a Delta0 point when no other survivor
    has its residues.
    """
    from collections import Counter

    from monostack.lattice import dot, lattice_coords_int

    facets = pres.cone.facets
    shifts = [[level * dot(f, h) for f in facets] for h in pres._saturation_hilbert_basis]
    kept = set()
    for rays, points in pres._parallelepipeds:
        for p in points:
            for ks in itertools.product(range(level), repeat=len(rays)):
                y = tuple(a + sum(k * r[i] for k, r in zip(ks, rays)) for i, a in enumerate(p))
                fy = [dot(f, y) for f in facets]
                if all(any(a < t for a, t in zip(fy, row)) for row in shifts):
                    kept.add(y)
    scaled = tuple(sorted(kept))
    residues = tuple(tuple(c % level for c in lattice_coords_int(pres.group_basis, y)) for y in scaled)
    counts = Counter(residues)
    return scaled, residues, tuple(counts[res] == 1 for res in residues)


def induction_presentation_oracle(sheaf, level):
    """The presentation of induction to `level` with every relation block filed.

    The generators are those of `parabolic._induce_with_data`, (j, gamma, i)
    in the same order under the same level-N label indices; the relations
    are all of x^(qw+gamma) (x) e_i = x^gamma (x) X_w e_i, q = level /
    sheaf.level, for every delta generator w of the source, every label
    index j of its support, every level-N Delta point gamma and every i,
    the left side dropped when qw+gamma leaves Delta.  Returns the
    `graded.Presentation`.
    """
    from monostack import graded
    from monostack.lattice import vadd, vscale

    field, alg = sheaf.field, sheaf.algebra
    alg_n = graded.graded_algebra(sheaf.monoid, level, field)
    sizes = sheaf.sizes
    gens = []
    for j in sheaf.support:
        start = alg_n.index(alg.labels[j])
        for gamma in alg_n.basis:
            t = alg_n.target(gamma, start)
            gens.extend((t, (j, gamma, i)) for i in range(sizes[j]))

    def relations():
        for w in alg.delta_generators:
            qw = vscale(level // sheaf.level, w)
            for j in sheaf.support:
                act, t = dense_act(sheaf, w, j), alg.shift[w][j]
                for gamma in alg_n.basis:
                    for i in range(sizes[j]):
                        row = [((t, gamma, k), act[k][i]) for k in range(sizes[t])]
                        row.append(((j, vadd(qw, gamma), i), field.of_int(-1)))
                        yield row

    def move(h, key):
        j, gamma, i = key
        return [((j, vadd(gamma, h), i), field.one)]

    return graded.Presentation(alg_n, gens, relations(), move)


def record_presentations(monkeypatch):
    """A list that, from now on, gets one (field, label, ngens, rows, space)
    entry per block handed to `fields.present_each`: the label's own block
    as given, before equal blocks share a space, and the space it got.
    Every caller reads `fields.present_each` at call time, so patching the
    module attribute sees them all; the entries keep the spaces alive, so
    the number of eliminations run is the number of distinct `id`s."""
    seen = []
    present_each = fields.present_each

    def recording(field, blocks):
        last = []

        def tap():
            for block in blocks:
                last[:] = block
                yield block

        # present_each reads one block per pair it yields
        for label, space in present_each(field, tap()):
            _, ngens, rows = last
            seen.append((field, label, ngens, [dict(r) for r in rows], space))
            yield label, space

    monkeypatch.setattr(fields, "present_each", recording)
    return seen


def eliminations(seen):
    """The number of `PresentedSpace`s behind the entries of `record_presentations`."""
    return len({id(entry[-1]) for entry in seen})


# -- the dense map layer: a reference for the sparse operators of GradedMap -----


def same_dense(a, b):
    """Equal entry for entry and in type (an int is not a `Fraction` here),
    through dicts and tuples."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same_dense(a[k], b[k]) for k in a)
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(same_dense, a, b))
    return type(a) is type(b) and a == b


def _identity(d):
    return tuple(tuple(int(r == c) for c in range(d)) for r in range(d))


def dense_span(ambient, bases, what):
    """The span of per-label column bases {label: [column, ...]} of
    `ambient`, by dense linear algebra: (dims, gen_action, inclusion
    blocks), each generator's action moved by `fields.mat_mul` and read
    back by one `fields.solve` per moved column; ValueError when the span
    is not action-stable."""
    alg, field = ambient.algebra, ambient.field
    incl = {lab: tuple(zip(*basis)) for lab, basis in bases.items()}
    action = {}
    for lab, mat in incl.items():
        for g in alg.generators:
            moved = fields.mat_mul(field, ambient.gen_matrix(g, lab), mat)
            tmat = incl.get(label_add(lab, alg.label_of(g)))
            if tmat is None:
                if not fields.mat_eq_zero(moved):
                    raise ValueError(f"{what} is not action-stable")
                continue
            cols = [fields.solve(field, tmat, col) for col in zip(*moved)]
            if None in cols:
                raise ValueError(f"{what} is not action-stable")
            if any(map(any, cols)):
                action[(g, lab)] = tuple(zip(*cols))
    return {lab: len(basis) for lab, basis in bases.items()}, action, incl


def dense_kernel(f):
    """`dense_span` of the `fields.nullspace` of each block (the whole
    component where the target is 0)."""
    bases = {}
    for lab, d in f.source.dims.items():
        basis = fields.nullspace(f.source.field, f.block(lab)) if f.target.dim(lab) else _identity(d)
        if basis:
            bases[lab] = basis
    return dense_span(f.source, bases, "kernel")


def dense_image(f):
    """`dense_span` of the pivot columns of each block."""
    bases = {}
    for lab in f.source.dims:
        block = f.block(lab)
        if chosen := [tuple(zip(*block))[j] for j in fields.rref(f.source.field, block)[1]]:
            bases[lab] = chosen
    return dense_span(f.target, bases, "image")


def dense_corestrict(f, incl_blocks):
    """The blocks of source -> image: each column of f solved against the image basis."""
    field = f.source.field
    return {lab: tuple(zip(*[fields.solve(field, mat, col) for col in zip(*f.block(lab))])) for lab, mat in incl_blocks.items()}


def dense_cokernel(f):
    """(dims, gen_action, projection blocks) of target / image: at each label
    the quotient basis is the non-pivot coordinates of the rref of the image
    columns, the projection sends a pivot coordinate to minus its rref row,
    and x^g acts by projection after the target action on those coordinates."""
    target, field = f.target, f.target.field
    _, _, incl = dense_image(f)
    proj, free = {}, {}
    for lab, n in target.dims.items():
        if lab in incl:
            red, pivots = fields.rref(field, tuple(zip(*incl[lab])))
        else:
            red, pivots = (), []
        free[lab] = [a for a in range(n) if a not in pivots]
        rows = {c: red[k] for k, c in enumerate(pivots)}
        proj[lab] = tuple(
            tuple(int(a == b) if a not in rows else field.norm(-rows[a][b]) for a in range(n)) for b in free[lab]
        )
    dims = {lab: len(fr) for lab, fr in free.items() if fr}
    action = {}
    for lab in dims:
        for g in target.algebra.generators:
            t = label_add(lab, target.algebra.label_of(g))
            if t in dims:
                moved = [tuple(row[b] for b in free[lab]) for row in target.gen_matrix(g, lab)]
                mat = fields.mat_mul(field, proj[t], tuple(moved))
                if not fields.mat_eq_zero(mat):
                    action[(g, lab)] = mat
    return dims, action, proj


def dense_compose(g, f):
    field = f.source.field
    return {
        lab: fields.mat_mul_dims(field, g.block(lab), f.block(lab), g.target.dim(lab), f.target.dim(lab), d)
        for lab, d in f.source.dims.items()
    }


def dense_is_injective(f):
    return all(fields.rank(f.source.field, f.block(lab)) == d for lab, d in f.source.dims.items())


def dense_is_exact(f, g):
    """Degreewise exactness of 0 -> A -f-> B -g-> C -> 0 by dense ranks and products."""
    if f.target is not g.source and f.target.dims != g.source.dims:
        return False
    field = f.source.field
    for lab in set(f.source.dims) | set(f.target.dims) | set(g.target.dims):
        rank_f, rank_g = fields.rank(field, f.block(lab)), fields.rank(field, g.block(lab))
        comp = fields.mat_mul_dims(field, g.block(lab), f.block(lab), g.target.dim(lab), f.target.dim(lab), f.source.dim(lab))
        if (rank_f, rank_g) != (f.source.dim(lab), g.target.dim(lab)) or not fields.mat_eq_zero(comp):
            return False
        if rank_f != f.target.dim(lab) - rank_g:
            return False
    return True

"""Parabolic sheaves with rational weights over a log point.

Components are indexed by the canonical coset representatives at level n;
structure matrices are stored for every Hilbert generator u of (1/n)P and
record the weight-raising maps E_a -> E_(a+u) after pseudo-period
normalization.  Over a log point the line bundle sections vanish away from
weight zero, which forces the zero law: any composite whose total weight
gain is a nonzero integral monoid element is the zero map.  A parabolic
sheaf is therefore the same data as a graded module over k[(1/n)P]/(P+),
and this module represents it as one: every function here takes and
returns `graded.GradedModule` and `graded.GradedMap`, `to_graded` and
`from_graded` are the identity, and `ParabolicSheaf` only enforces the
zero law on structure matrices read from outside.  Kernels and cokernels
are `graded.kernel` and `graded.cokernel`.

Induction along m | N is the left adjoint of weight restriction.  It is
computed as the colimit of the weight diagram below each class, presented
as a direct sum of source components modulo the arrow identifications
(evaluated in the stable gauge where the diagram has settled, which is
what makes the pseudo-period normalization the identity).  Induction is
built by `graded.Presentation`; the presentation is kept for the unit,
counit and induced maps, which read its generator index and quotient
spaces.  Most relation blocks follow from the unit-pivot ones, and only
the others are filed (`_induce_with_data` proves that the quotients do not
change); on the cone at levels 6 and 8 the counit test `is_induced_from`
files about a third of the rows.

Points are `graded`'s int tuples y = n*s*x; a level-m point enters level
N as (N/m)*y.  Only `ParabolicSheaf` keys its structure by Fractions.
"""

from __future__ import annotations

from . import fields, graded
from .errors import LevelMismatch, NotADivisor, NotAMultiple
from .graded import GradedMap, GradedModule, graded_algebra
# in_delta and label_add are bound only for perfbench's tracer
from .infquot import in_delta
from .kummer import label_add
from .lattice import dot, vadd, vec_key, vscale, vsub


def ParabolicSheaf(monoid, level, field, components, structure, check=True):
    """The graded module with these weight components and structure matrices.

    `structure` maps (rational generator vector, label) to a matrix; a
    vector that is not a Hilbert generator of (1/n)P raises ValueError.
    Matrices for generators outside Delta must vanish (the zero law).
    """
    alg = graded_algebra(monoid, level, field)
    coords, action = {}, {}
    for (u, label), mat in structure.items():
        g = coords.get(u)
        if g is None:  # each generator once, so the first bad one raises where it is first used
            g = coords[u] = alg.coords(u)
        action[(g, label)] = mat
    module = GradedModule(alg, components, action, check=False)
    if check:
        for (g, _), mat in action.items():
            if g not in alg.delta_generators and not fields.mat_eq_zero(mat):
                raise ValueError(f"structure matrix for {vec_key(alg.point(g))} violates the zero law")
        module.validate()
    return module


def to_graded(sheaf):
    """A parabolic sheaf is its graded module, so both conversions are the identity."""
    return sheaf


from_graded = to_graded
compose = graded.compose_maps


def is_identity(pmap):
    field = pmap.source.field
    for lab, d in pmap.source.dims.items():
        if pmap.block(lab) != fields.identity_matrix(field, d):
            return False
    return all(pmap.target.dim(lab) == pmap.source.dim(lab) for lab in pmap.target.dims)


# ---------------------------------------------------------------------------
# restriction


def restrict(sheaf, sublevel):
    """Weight restriction to (1/m)P; the right adjoint of induction."""
    if sheaf.level % sublevel != 0:
        raise NotADivisor(f"{sublevel} does not divide level {sheaf.level}")
    return graded.degree_zero_part(sheaf, sublevel)


restrict_parabolic_map = graded.restrict_map


# ---------------------------------------------------------------------------
# induction


def _induce_with_data(sheaf, level):
    """Colimit-of-weights construction of the induced sheaf, with its
    presentation kept for building the adjunction maps.

    The generators are (j, gamma, i): basis vector i of the source
    component at label index j (of the source algebra) moved to the
    level-N Delta monomial gamma; the keys are ints and int tuples, so
    filing them hashes no `CosetLabel`.  With q = N/m, the relation block
    (w, gamma) of a delta generator w of the source and a level-N Delta
    point gamma is x^(qw+gamma) (x) e = x^gamma (x) X_w e for every basis
    vector e of every source component; the left generator is 0 when
    qw+gamma leaves Delta_N.

    Only the blocks that the canonical unit-pivot blocks do not already
    imply are filed, as in structured Gaussian elimination (LaMacchia and
    Odlyzko, CRYPTO '90).  canon(g), for g in Delta_N, is the first w in
    `delta_generators` with g - qw in Delta_N (a down-set, so one lookup
    per w); the canonical block (canon(g), g - q*canon(g)) has -1 on each
    generator at g.  Visiting Delta_N in order of the positive functional
    gives end(g) = end(g - q*canon(g)) and u(g) = canon(g) + u(g -
    q*canon(g)), or g and 0 when no w applies, and by induction the
    canonical rows reduce each x^g (x) e to x^end(g) (x) X_u(g) e.  X_u(g)
    is a product of generators; by the module law of the source it is the
    action of their sum u(g), and 0 when u(g) leaves Delta_m.  So the block
    (w, gamma) reduces to
        x^end(qw+gamma) (x) X_u(qw+gamma) e - x^end(gamma) (x) X_(w+u(gamma)) e,
    without the first term when qw+gamma leaves Delta_N.  That is 0, and
    the block is skipped, when
      - qw+gamma leaves Delta_N and w+u(gamma) leaves Delta_m; or
      - qw+gamma is in Delta_N, w is not its canon, and either its end is
        end(gamma) (then q*u(qw+gamma) = qw + q*u(gamma), so the two
        terms agree) or both u(qw+gamma) and w+u(gamma) leave Delta_m.
    Every canonical block is kept, so a skipped block lies in the span of
    the filed rows: the row space of each label, and with it its unique
    reduced row echelon form (`PresentedSpace`), does not change.  The
    proof needs the module law of the source: every reader validates it,
    and every library construction keeps it.
    """
    if level % sheaf.level != 0:
        raise NotAMultiple(f"{level} is not a multiple of level {sheaf.level}")
    field = sheaf.field
    alg = sheaf.algebra
    alg_n = graded_algebra(sheaf.monoid, level, field)
    sizes = sheaf.sizes
    gens = []
    for j in sheaf.support:
        start = alg_n.index(alg.labels[j])  # labels compare across levels
        for gamma in alg_n.basis:
            lab = alg_n.labels[alg_n.target(gamma, start)]
            gens.extend((lab, (j, gamma, i)) for i in range(sizes[j]))

    q = level // sheaf.level
    delta_m, delta_n = alg._basis_set, alg_n._basis_set
    steps = [(w, vscale(q, w)) for w in alg.delta_generators]
    ell = sheaf.monoid.positive_functional
    canon, end, u = {}, {}, {}
    zero = (0,) * sheaf.monoid.ambient_rank
    for g in sorted(alg_n.basis, key=lambda y: dot(ell, y)):
        for w, qw in steps:
            rest = vsub(g, qw)
            if rest in delta_n:
                canon[g], end[g], u[g] = w, end[rest], vadd(w, u[rest])
                break
        else:
            end[g], u[g] = g, zero

    def relations():
        minus_one = field.of_int(-1)
        for w, qw in steps:
            blocks = []
            for gamma in alg_n.basis:
                g = vadd(qw, gamma)
                right = vadd(w, u[gamma]) in delta_m  # X_(w+u(gamma)) is not 0
                if g in delta_n:
                    if canon[g] != w and (end[g] == end[gamma] or not (right or u[g] in delta_m)):
                        continue
                elif not right:
                    continue
                blocks.append((gamma, g))
            for j in sheaf.support:
                act = sheaf.act(w, j)
                t = alg.shift[w][j]
                cols = [[(k, a[i]) for k, a in enumerate(act) if a[i]] for i in range(sizes[j])]
                for gamma, g in blocks:
                    for i, col in enumerate(cols):
                        row = [((t, gamma, k), c) for k, c in col]
                        row.append(((j, g, i), minus_one))
                        yield row

    def move(h, key):
        j, gamma, i = key
        return [((j, vadd(gamma, h), i), field.one)]

    pres = graded.Presentation(alg_n, gens, relations(), move)
    return pres.module, pres


def induce(sheaf, level):
    """Left adjoint of restrict along sheaf.level | level."""
    return _induce_with_data(sheaf, level)[0]


def induce_parabolic_map(pmap, level, src_ind=None, tgt_ind=None):
    """The induced map between induced sheaves (functoriality of induction)."""
    if src_ind is None:
        src_ind = _induce_with_data(pmap.source, level)
    if tgt_ind is None:
        tgt_ind = _induce_with_data(pmap.target, level)
    s_sheaf, s_pres = src_ind
    t_sheaf, t_pres = tgt_ind
    labels = pmap.source.algebra.labels
    blocks = {}
    for lab in s_sheaf.dims:
        if not t_sheaf.dim(lab):
            continue
        sp = s_pres.spaces[lab]
        cols = []
        for k in sp.free:
            j, gamma, i = s_pres.gens_per_label[lab][k]
            fb = pmap.block(labels[j])
            terms = [((j, gamma, k2), fb[k2][i]) for k2 in range(pmap.target.sizes[j])]
            cols.append(t_pres.coords(lab, terms))
        blocks[lab] = tuple(zip(*cols))
    return GradedMap(s_sheaf, t_sheaf, blocks, check=False)


def unit_map(sheaf, level, ind=None):
    """eta: E -> restrict(induce(E, level), E.level)."""
    if ind is None:
        ind = _induce_with_data(sheaf, level)
    ind_sheaf, pres = ind
    res = restrict(ind_sheaf, sheaf.level)
    field = sheaf.field
    zero = (0,) * sheaf.monoid.ambient_rank
    blocks = {}
    for j in sheaf.support:
        nu = sheaf.algebra.labels[j]
        if not ind_sheaf.dim(nu):  # labels compare across levels
            continue
        cols = [pres.coords(nu, [((j, zero, i), field.one)]) for i in range(sheaf.sizes[j])]
        blocks[nu] = tuple(zip(*cols))
    return GradedMap(sheaf, res, blocks, check=False)


def counit_map(sheaf, sublevel, ind=None):
    """eps: induce(restrict(E, sublevel), E.level) -> E."""
    if sheaf.level % sublevel != 0:
        raise NotADivisor(f"{sublevel} does not divide level {sheaf.level}")
    res = restrict(sheaf, sublevel)
    if ind is None:
        ind = _induce_with_data(res, sheaf.level)
    ind_sheaf, pres = ind
    # the level-N index of each source label index of the restriction
    up = {j: sheaf.algebra.index(res.algebra.labels[j]) for j in res.support}
    blocks = {}
    for lab in ind_sheaf.dims:
        tdim = sheaf.dim(lab)
        if tdim == 0:
            continue
        cols = []
        for k in pres.spaces[lab].free:
            j, gamma, i = pres.gens_per_label[lab][k]
            act = sheaf.act(gamma, up[j])
            cols.append(tuple(act[t][i] for t in range(tdim)))
        blocks[lab] = tuple(zip(*cols))
    return GradedMap(ind_sheaf, sheaf, blocks, check=False)


def is_induced_from(sheaf, divisor):
    """Finite-presentation test: the counit at `divisor` is an isomorphism.

    Componentwise finite presentation is automatic for finite-dimensional
    components over a field, so this single check decides the criterion at
    the stored level.
    """
    if sheaf.level % divisor != 0:
        raise NotADivisor(f"{divisor} does not divide level {sheaf.level}")
    eps = counit_map(sheaf, divisor)
    return eps.is_isomorphism()


def minimal_inducing_level(sheaf):
    """Smallest divisor n of the level passing is_induced_from, or None."""
    from .infquot import divisors

    for n in divisors(sheaf.level):
        if is_induced_from(sheaf, n):
            return n
    return None


# ---------------------------------------------------------------------------
# hom spaces


def hom_space(source, target):
    """Dimension and basis of the space of parabolic maps source -> target.

    The unknowns are the entries of the blocks f_i (target.sizes[i] x
    source.sizes[i]) for i in the source support, numbered block by block
    and row by row.  Each delta generator g out of label i, with t its
    target label, gives the sparse equations f_t A1 = A2 f_i, A1 and A2
    the actions of g on source and target.  One `fields.PresentedSpace`
    eliminates them, and its `nullspace` is the basis.
    """
    if source.algebra != target.algebra:
        raise LevelMismatch("hom between different levels or fields")
    field = source.field
    alg = source.algebra
    base = {}
    nvars = 0
    for i in source.support:
        base[i] = nvars
        nvars += target.sizes[i] * source.sizes[i]
    if nvars == 0:
        return 0, []
    rows = []
    for g in alg.delta_generators:
        for i in source.support:
            d, t = source.sizes[i], alg.shift[g][i]
            a1, a2 = source._gen(g, i), target._gen(g, i)
            bi, bt, dt = base[i], base.get(t), source.sizes[t]
            for r in range(target.sizes[t]):
                a2r = a2[r]
                for c in range(d):
                    # (f_t A1)[r][c] - (A2 f_i)[r][c]
                    row = {} if bt is None else {bt + r * dt + k: a1[k][c] for k in range(dt) if a1[k][c]}
                    for k, x in enumerate(a2r):
                        if x:
                            col = bi + k * d + c
                            row[col] = row.get(col, 0) - x
                    if row:
                        rows.append(row)
    maps = []
    for vec in fields.PresentedSpace(field, nvars, rows).nullspace():
        blocks = {}
        for i in source.support:
            d, b = source.sizes[i], base[i]
            blocks[alg.labels[i]] = tuple(tuple(vec[b + r * d : b + r * d + d]) for r in range(target.sizes[i]))
        maps.append(GradedMap(source, target, blocks, check=False))
    return len(maps), maps

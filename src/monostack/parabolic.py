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
are `graded.kernel` and `graded.cokernel`, and every map here is built
straight into the sparse operators of `GradedMap` (`GradedMap._of`).

Induction along m | N is the left adjoint of weight restriction.  It is
computed as the colimit of the weight diagram below each class, presented
as a direct sum of source components modulo the arrow identifications
(evaluated in the stable gauge where the diagram has settled, which is
what makes the pseudo-period normalization the identity).  Induction is
built by `graded.Presentation`; the presentation is kept for the unit,
counit and induced maps, which read its generator index and quotient
spaces by level-N label index.  Most relation blocks follow from the
unit-pivot ones, and only the others are filed (`_reduction` and
`_induce_with_data` prove that the quotients do not change).  The counit
test `is_induced_from` presents only the own-end generators and moves no
action: it reduces every generator along the unit pivots to its normal
form, so its `Presentation` takes 2,520 columns instead of 171,360
generators for the level-8 `is_induced_from(ind, 4)` of the cone.

Points are `graded`'s int tuples y = n*s*x, `ParabolicSheaf`'s structure
keys among them; a level-m point enters level N as (N/m)*y.
"""

from __future__ import annotations

from . import fields, graded
from .errors import LevelMismatch, NotADivisor, NotAMultiple
from .graded import GradedMap, GradedModule, _operator, graded_algebra
# in_delta and label_add are bound only for perfbench's tracer
from .infquot import in_delta
from .kummer import label_add
from .lattice import dot, scaled_key, vadd, vscale, vsub


def ParabolicSheaf(monoid, level, field, components, structure):
    """The graded module with these weight components and structure matrices.

    `structure` maps (generator, label) to a matrix, the generator given by
    its int coordinates as `GradedModule` takes them; one that is not a
    Hilbert generator of (1/n)P raises ValueError.  Matrices for generators
    outside Delta must vanish (the zero law).
    """
    alg = graded_algebra(monoid, level, field)
    module = GradedModule(alg, components, structure, check=False)
    for g, _ in module.action:  # the nonzero actions
        if g not in alg.delta_generators:
            raise ValueError(f"structure matrix for {scaled_key(g, alg.scale)} violates the zero law")
    module.validate()
    return module


def to_graded(sheaf):
    """A parabolic sheaf is its graded module, so both conversions are the identity."""
    return sheaf


from_graded = to_graded
compose = graded.compose_maps


def is_identity(pmap):
    """The map is the identity: equal sizes, and at each label the operator
    of x^0, which `act` builds as the identity."""
    src, zero = pmap.source, (0,) * pmap.source.monoid.ambient_rank
    return src.sizes == pmap.target.sizes and all(pmap.ops.get(i, {}) == src.act(zero, i)[1] for i in src.support)


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


def _reduction(sheaf, alg_n):
    """The unit-pivot reduction of induction from `sheaf` to `alg_n`.

    Generators are (j, gamma, i) as in `_induce_with_data`, q = N/m, and a
    relation block (w, gamma), for a delta generator w of the source and a
    level-N Delta point gamma, is x^(qw+gamma) (x) e = x^gamma (x) X_w e
    for every basis vector e of every source component; the left generator
    is 0 when qw+gamma leaves Delta_N.

    canon(g), for g in Delta_N, is the first w in `delta_generators` with g
    - qw in Delta_N (a down-set, so one lookup per w); the canonical block
    (canon(g), g - q*canon(g)) has -1 on each generator at g.  Visiting
    Delta_N in order of the positive functional gives end(g) = end(g -
    q*canon(g)) and u(g) = canon(g) + u(g - q*canon(g)), or g and 0 when no
    w applies, and by induction the canonical rows reduce each x^g (x) e to
    its normal form x^end(g) (x) X_u(g) e.  X_u(g) is a product of
    generators; by the module law of the source it is the action of their
    sum u(g), and 0 when u(g) leaves Delta_m.  So the block (w, gamma)
    reduces to
        x^end(qw+gamma) (x) X_u(qw+gamma) e - x^end(gamma) (x) X_(w+u(gamma)) e,
    without the first term when qw+gamma leaves Delta_N.  That is 0, and
    the block is dropped, when
      - qw+gamma leaves Delta_N and w+u(gamma) leaves Delta_m; or
      - qw+gamma is in Delta_N, w is not its canon, and either its end is
        end(gamma) (then q*u(qw+gamma) = qw + q*u(gamma), so the two
        terms agree) or both u(qw+gamma) and w+u(gamma) leave Delta_m.
    The proof needs the module law of the source: every reader validates
    it, and every library construction keeps it.

    Returns end, u and the kept blocks, one (w, [(gamma, qw+gamma,
    canonical), ...]) per delta generator w, gamma in `alg_n.basis` order.
    """
    alg = sheaf.algebra
    q = alg_n.level // sheaf.level
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
    blocks = []
    for w, qw in steps:
        kept = []
        for gamma in alg_n.basis:
            g = vadd(qw, gamma)
            right = vadd(w, u[gamma]) in delta_m  # X_(w+u(gamma)) is not 0
            if g in delta_n:
                if canon[g] == w:
                    kept.append((gamma, g, True))
                elif end[g] != end[gamma] and (right or u[g] in delta_m):
                    kept.append((gamma, g, False))
            elif right:
                kept.append((gamma, g, False))
        blocks.append((w, kept))
    return end, u, blocks


def _up(sheaf, alg_n):
    """The level-N index of each label index of the support of `sheaf`."""
    labels = sheaf.algebra.labels
    return {j: alg_n.index(labels[j]) for j in sheaf.support}  # labels compare across levels


def _generators(sheaf, alg_n, points):
    """(label index, (j, gamma, i)) for j in the support, gamma in `points`
    and i below the size of j, the label that of j moved by gamma at level N."""
    gens = []
    for j, start in _up(sheaf, alg_n).items():
        for gamma in points:
            t = alg_n.target(gamma, start)
            gens.extend((t, (j, gamma, i)) for i in range(sheaf.sizes[j]))
    return gens


def _induce_with_data(sheaf, level):
    """Colimit-of-weights construction of the induced sheaf, with its
    presentation kept for building the adjunction maps.

    The generators are (j, gamma, i): basis vector i of the source
    component at label index j (of the source algebra) moved to the
    level-N Delta monomial gamma; the keys are ints and int tuples, so
    filing them hashes no `CosetLabel`.  The relation blocks are those of
    `_reduction`.

    Only the blocks that the canonical unit-pivot blocks do not already
    imply are filed, as in structured Gaussian elimination (LaMacchia and
    Odlyzko, CRYPTO '90): `_reduction` keeps every canonical block, and a
    block it drops reduces to 0 along them, so it lies in the span of the
    filed rows.  The row space of each label, and with it its unique
    reduced row echelon form (`PresentedSpace`), does not change.
    """
    if level % sheaf.level != 0:
        raise NotAMultiple(f"{level} is not a multiple of level {sheaf.level}")
    field = sheaf.field
    alg = sheaf.algebra
    alg_n = graded_algebra(sheaf.monoid, level, field)
    sizes = sheaf.sizes
    _, _, blocks = _reduction(sheaf, alg_n)

    def relations():
        minus_one = field.of_int(-1)
        for w, kept in blocks:
            for j in sheaf.support:
                op, t = sheaf.action.get((w, j), {}), alg.shift[w][j]
                for gamma, g, _ in kept:
                    for i in range(sizes[j]):
                        row = [((t, gamma, k), c) for k, c in op.get(i, {}).items()]
                        row.append(((j, g, i), minus_one))
                        yield row

    def move(h, key):
        j, gamma, i = key
        return [((j, vadd(gamma, h), i), field.one)]

    pres = graded.Presentation(alg_n, _generators(sheaf, alg_n, alg_n.basis), relations(), move)
    return pres.module, pres


def induce(sheaf, level):
    """Left adjoint of restrict along sheaf.level | level."""
    return _induce_with_data(sheaf, level)[0]


def induce_parabolic_map(pmap, level, src_ind=None, tgt_ind=None):
    """The induced map between induced sheaves (functoriality of induction)."""
    s_sheaf, s_pres = src_ind or _induce_with_data(pmap.source, level)
    t_sheaf, t_pres = tgt_ind or _induce_with_data(pmap.target, level)
    ops, shared = {}, {}
    for t in s_sheaf.support:
        if not t_sheaf.sizes[t]:
            continue
        cols = []
        for k in s_pres.spaces[t].free:
            j, gamma, i = s_pres.gens_per_label[t][k]
            cols.append(t_pres.coords(t, [((j, gamma, k2), x) for k2, x in pmap.ops.get(j, {}).get(i, {}).items()]))
        if op := _operator(tuple(cols), shared):
            ops[t] = op
    return GradedMap._of(s_sheaf, t_sheaf, ops)


def unit_map(sheaf, level, ind=None):
    """eta: E -> restrict(induce(E, level), E.level)."""
    ind_sheaf, pres = ind or _induce_with_data(sheaf, level)
    res = restrict(ind_sheaf, sheaf.level)
    one, zero = sheaf.field.one, (0,) * sheaf.monoid.ambient_rank
    ops, shared = {}, {}
    for j, t in _up(sheaf, pres.algebra).items():
        if op := _operator(tuple(pres.coords(t, [((j, zero, i), one)]) for i in range(sheaf.sizes[j])), shared):
            ops[j] = op
    return GradedMap._of(sheaf, res, ops)


def counit_map(sheaf, sublevel, ind=None):
    """eps: induce(restrict(E, sublevel), E.level) -> E."""
    if sheaf.level % sublevel != 0:
        raise NotADivisor(f"{sublevel} does not divide level {sheaf.level}")
    res = restrict(sheaf, sublevel)
    ind_sheaf, pres = ind or _induce_with_data(res, sheaf.level)
    up, ops = _up(res, sheaf.algebra), {}
    for t in ind_sheaf.support:
        op, keys = {}, pres.gens_per_label[t]
        for c, k in enumerate(pres.spaces[t].free):
            j, gamma, i = keys[k]
            if col := sheaf.act(gamma, up[j])[1].get(i):  # the columns of the action, not to be changed
                op[c] = col
        if op:
            ops[t] = op
    return GradedMap._of(ind_sheaf, sheaf, ops)


def is_induced_from(sheaf, divisor):
    """Finite-presentation test: the counit at `divisor` is an isomorphism.

    Componentwise finite presentation is automatic for finite-dimensional
    components over a field, so this single check decides the criterion at
    the stored level.  It is decided on a `graded.Presentation` of the
    own-end generators of the induction of R = restrict(E, m), m =
    `divisor`, to the level N of E, whose `module` is never read, so no
    induced action is moved (`counit_map` builds the map).

    With end and u those of `_reduction`, the normal form of a generator
    is NF(j, gamma, i) = X_u(gamma) e_i at (the label of j moved by
    u(gamma), end(gamma)), or 0 when u(gamma) leaves Delta_m.  At each
    level-N label lambda the columns C_lambda are the generators with
    end(gamma) = gamma.  NF is onto the span of the columns and kills
    every canonical row, and the canonical rows are independent, one for
    each generator off the columns, whose leading term it is in the order
    of the positive functional.  So ker NF is exactly their span, and the
    quotient Q_lambda of the induced module is k^C_lambda modulo NF of the
    kept non-canonical blocks of `_reduction` (the dropped blocks lie in
    the span of the kept ones, and the canonical ones map to 0).  Those
    substituted rows get one elimination per distinct label presentation
    (`fields.present_each`: a `PresentedSpace` is a function of its column
    count and rows, since its reduced row echelon form is unique), and dim
    Q_lambda is |C_lambda| minus their rank.

    The counit sends x^gamma (x) e_i to X_gamma e_i in E, e_i read at the
    level-N index of j; by the module law of E it takes the same value on
    a generator and on its normal form.  So the classes of C_lambda span
    Q_lambda, their images span the image of eps_lambda, and eps_lambda
    is an isomorphism exactly when dim Q_lambda = dim E_lambda and the
    images of C_lambda span E_lambda, at every label.  That rank test, too,
    is one elimination per distinct label presentation, up to a failure.
    """
    res = restrict(sheaf, divisor)  # raises NotADivisor
    alg_n, delta_m = sheaf.algebra, res.algebra._basis_set
    end, u, blocks = _reduction(res, alg_n)
    column, nf_memo = {}, {}  # one key tuple per column, shared by every normal form

    def columns():  # `Presentation` reads them all before the first relation
        for t, key in _generators(res, alg_n, [g for g in alg_n.basis if end[g] == g]):
            column[key] = key
            yield t, key

    def nf(j, v, e):
        """X_v e_i at (j moved by v, e) as column terms, one list per i; None
        when v leaves Delta_m."""
        memo = (j, v, e)
        if memo not in nf_memo:
            cols = None
            if v in delta_m:
                t, op = res.act(v, j)
                cols = [[(column[(t, e, k)], a) for k, a in op.get(i, {}).items()] for i in range(res.sizes[j])]
            nf_memo[memo] = cols
        return nf_memo[memo]

    def relations():
        for w, kept in blocks:
            for gamma, g, canonical in kept:
                if canonical:
                    continue
                for j in res.support:
                    left = nf(j, u[g], end[g]) if g in alg_n._basis_set else None
                    right = nf(j, vadd(w, u[gamma]), end[gamma])
                    for i in range(res.sizes[j]):
                        l, r = left[i] if left else (), right[i] if right else ()
                        if l and r:
                            yield l + [(key, -c) for key, c in r]
                        elif l or r:  # a one-sided row spans what its negative does
                            yield l or r

    pres = graded.Presentation(alg_n, columns(), relations(), None)
    spaces = pres.spaces
    if [spaces[t].dim if t in spaces else 0 for t in range(len(alg_n.labels))] != sheaf.sizes:
        return False
    up = _up(res, alg_n)

    def images(t):
        for j, gamma, i in pres.gens_per_label[t]:
            yield sheaf.act(gamma, up[j])[1].get(i, {})

    # present_each is lazy: the first label whose images miss a direction ends the test
    blocks = ((t, sheaf.sizes[t], list(images(t))) for t in sheaf.support)
    return not any(sp.dim for _, sp in fields.present_each(sheaf.field, blocks))


def minimal_inducing_level(sheaf):
    """Smallest divisor n of the level passing is_induced_from.

    The level itself always passes, so it is returned without a test:
    restriction to the own level is the identity functor, so its left
    adjoint, induction along q = 1, is the identity too, and the counit is
    an isomorphism.
    """
    from .infquot import divisors

    for n in divisors(sheaf.level)[:-1]:
        if is_induced_from(sheaf, n):
            return n
    return sheaf.level


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
            a1, a2 = source.action.get((g, i), {}), {}
            for k, col in target.action.get((g, i), {}).items():
                for r, x in col.items():
                    a2.setdefault(r, {})[k] = x
            bi, bt, dt = base[i], base.get(t), source.sizes[t]
            for r in range(target.sizes[t]):
                a2r = a2.get(r, {})
                for c in range(d):
                    # (f_t A1)[r][c] - (A2 f_i)[r][c]
                    row = {} if bt is None else {bt + r * dt + k: x for k, x in a1.get(c, {}).items()}
                    for k, x in a2r.items():
                        col = bi + k * d + c
                        row[col] = row.get(col, 0) - x
                    if row:
                        rows.append(row)
    maps, shared = [], {}
    for vec in fields.PresentedSpace(field, nvars, rows).nullspace():
        ops = {}
        for i in source.support:
            # column c of f_i holds the unknowns b + r*d + c, one per row r
            d, b = source.sizes[i], base[i]
            if op := _operator(tuple(vec[b + c : b + d * target.sizes[i] : d] for c in range(d)), shared):
                ops[i] = op
        maps.append(GradedMap._of(source, target, ops))
    return len(maps), maps

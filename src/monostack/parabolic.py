"""Parabolic sheaves with rational weights over a log point.

Components are indexed by the canonical coset representatives at level n;
structure matrices are stored for every Hilbert generator u of (1/n)P and
record the weight-raising maps E_a -> E_(a+u) after pseudo-period
normalization.  Over a log point the line bundle sections vanish away from
weight zero, which forces the zero law: any composite whose total weight
gain is a nonzero integral monoid element is the zero map.  Concretely a
parabolic sheaf is therefore the same data as a graded module over
k[(1/n)P]/(P+), and the conversion functors below are the finite-level
form of the parabolic/quasi-coherent equivalence.

Induction along m | N is the left adjoint of weight restriction.  It is
computed as the colimit of the weight diagram below each class, presented
as a direct sum of source components modulo the arrow identifications
(evaluated in the stable gauge where the diagram has settled, which is
what makes the pseudo-period normalization the identity).  Induction and
cokernels are built by `graded.Presentation`; the induction presentation
is kept for the unit, counit and induced maps, which read its generator
index and quotient spaces.
"""

from __future__ import annotations

from fractions import Fraction

from . import fields, graded, lattice
from .errors import LevelMismatch, NotADivisor, NotAMultiple
from .graded import GradedModule, graded_algebra
from .infquot import in_delta
from .kummer import label_add, label_at_level
from .lattice import vadd


class ParabolicSheaf:
    """Weight-indexed spaces with commuting structure maps and the zero law."""

    def __init__(self, monoid, level, field, components, structure, check=True):
        algebra = graded_algebra(monoid, level, field)
        dims = dict(components)
        action = {}
        zero_gens = {}
        for (u, label), mat in structure.items():
            u = lattice.as_fractions(u)
            if in_delta(monoid, u):
                action[(u, label)] = mat
            else:
                zero_gens[(u, label)] = fields.mat_from_rows(mat)
        self.module = GradedModule(algebra, dims, action, check=check)
        if check:
            for (u, label), mat in zero_gens.items():
                if not fields.mat_eq_zero(field, mat):
                    raise ValueError(
                        f"structure matrix for {u} violates the zero law"
                    )

    @classmethod
    def _wrap(cls, module):
        obj = cls.__new__(cls)
        obj.module = module
        return obj

    # -- accessors ------------------------------------------------------------

    @property
    def monoid(self):
        return self.module.algebra.monoid

    @property
    def level(self):
        return self.module.algebra.level

    @property
    def field(self):
        return self.module.algebra.field

    @property
    def components(self):
        return dict(self.module.dims)

    def dim(self, label):
        return self.module.dim(label)

    @property
    def total_dim(self):
        return self.module.total_dim

    def structure_matrix(self, u, label):
        """Structure map for a Hilbert generator of (1/n)P; zero off Delta."""
        u = lattice.as_fractions(u)
        if in_delta(self.monoid, u):
            return self.module.gen_matrix(u, label)
        tgt = self.module._target_label(u, label)
        return fields.zero_matrix(self.field, self.dim(tgt), self.dim(label))

    def structure_generators(self):
        return self.module.algebra.generators

    def __eq__(self, other):
        return (
            isinstance(other, ParabolicSheaf)
            and self.module.algebra == other.module.algebra
            and self.module.dims == other.module.dims
            and all(
                self.module.gen_matrix(g, lab) == other.module.gen_matrix(g, lab)
                for g in self.module.algebra.generators
                for lab in self.module.dims
            )
        )


def to_graded(sheaf):
    """The graded module with the same components and monomial action."""
    return sheaf.module


def from_graded(module):
    """The parabolic sheaf whose structure maps realize the module action."""
    return ParabolicSheaf._wrap(module)


class ParabolicMap:
    """Weightwise map commuting with all structure matrices."""

    def __init__(self, source, target, blocks, check=True):
        if source.module.algebra != target.module.algebra:
            raise LevelMismatch("parabolic map between different levels or fields")
        self.source = source
        self.target = target
        self.gmap = graded.GradedMap(
            source.module, target.module, blocks, check=check
        )

    @property
    def blocks(self):
        return self.gmap.blocks

    def block(self, label):
        return self.gmap.block(label)

    def is_isomorphism(self):
        return self.gmap.is_isomorphism()


def compose(g, f):
    inner = graded.compose_maps(g.gmap, f.gmap)
    return ParabolicMap(f.source, g.target, inner.blocks, check=False)


def is_identity(pmap):
    field = pmap.source.field
    for lab, d in pmap.source.module.dims.items():
        if pmap.block(lab) != fields.identity_matrix(field, d):
            return False
    return all(
        pmap.target.dim(lab) == pmap.source.dim(lab)
        for lab in pmap.target.module.dims
    )


def kernel(pmap):
    ker, incl = graded.kernel(pmap.gmap)
    ksheaf = from_graded(ker)
    return ksheaf, ParabolicMap(ksheaf, pmap.source, incl.blocks, check=False)


def cokernel(pmap):
    """Quotient of the target by the image, with the projection."""
    target = pmap.target.module
    img, incl = graded.image(pmap.gmap)
    gens = [(lab, (lab, a)) for lab, d in target.dims.items() for a in range(d)]

    def relations():
        for lab, d in img.dims.items():
            mat = incl.block(lab)
            for j in range(d):
                yield [((lab, a), mat[a][j]) for a in range(target.dim(lab))]

    def move(h, key):
        lab, a = key
        tgt = target._target_label(h, lab)
        gmat = target.gen_matrix(h, lab)
        return [((tgt, r), gmat[r][a]) for r in range(target.dim(tgt))]

    pres = graded.Presentation(target.algebra, gens, relations(), move)
    coker = from_graded(pres.module)
    proj_blocks = {
        lab: tuple(zip(*[sp.unit(a) for a in range(sp.ngens)]))
        for lab, sp in pres.spaces.items()
        if sp.dim
    }
    return coker, ParabolicMap(pmap.target, coker, proj_blocks, check=False)


# ---------------------------------------------------------------------------
# restriction


def restrict(sheaf, sublevel):
    """Weight restriction to (1/m)P; the right adjoint of induction."""
    if sheaf.level % sublevel != 0:
        raise NotADivisor(f"{sublevel} does not divide level {sheaf.level}")
    return from_graded(graded.degree_zero_part(sheaf.module, sublevel))


def restrict_parabolic_map(pmap, sublevel):
    inner = graded.restrict_map(pmap.gmap, sublevel)
    return ParabolicMap(
        restrict(pmap.source, sublevel),
        restrict(pmap.target, sublevel),
        inner.blocks,
        check=False,
    )


# ---------------------------------------------------------------------------
# induction


def _induce_with_data(sheaf, level):
    """Colimit-of-weights construction of the induced sheaf, with its
    presentation kept for building the adjunction maps.

    The generators are (nu, gamma, i): basis vector i of the source
    component nu moved to the level-N Delta monomial gamma.  Each
    generator w of the source algebra identifies x^w e_i at gamma with
    e_i at w + gamma.
    """
    if level % sheaf.level != 0:
        raise NotAMultiple(f"{level} is not a multiple of level {sheaf.level}")
    field = sheaf.field
    src = sheaf.module
    alg_n = graded_algebra(sheaf.monoid, level, field)
    gens = []
    for nu, dm in src.dims.items():
        nu_big = label_at_level(nu, level)
        for gamma in alg_n.basis:
            lab = label_add(nu_big, alg_n.label_of(gamma))
            gens.extend((lab, (nu, gamma, i)) for i in range(dm))

    def relations():
        minus_one = field.neg(field.one)
        for w in src.algebra.delta_generators:
            for nu, dm in src.dims.items():
                act = src.act(w, nu)
                tnu = src._target_label(w, nu)
                for gamma in alg_n.basis:
                    shifted = vadd(w, gamma)
                    for i in range(dm):
                        row = [((tnu, gamma, k), act[k][i]) for k in range(src.dim(tnu))]
                        row.append(((nu, shifted, i), minus_one))
                        yield row

    def move(h, key):
        nu, gamma, i = key
        return [((nu, vadd(gamma, h), i), field.one)]

    pres = graded.Presentation(alg_n, gens, relations(), move)
    return from_graded(pres.module), pres


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
    blocks = {}
    for lab in s_sheaf.module.dims:
        if not t_sheaf.dim(lab):
            continue
        sp = s_pres.spaces[lab]
        cols = []
        for k in sp.free:
            nu, gamma, i = s_pres.gens_per_label[lab][k]
            fb = pmap.block(nu)
            terms = [((nu, gamma, k2), fb[k2][i]) for k2 in range(pmap.target.dim(nu))]
            cols.append(t_pres.coords(lab, terms))
        blocks[lab] = tuple(zip(*cols))
    return ParabolicMap(s_sheaf, t_sheaf, blocks, check=False)


def unit_map(sheaf, level, ind=None):
    """eta: E -> restrict(induce(E, level), E.level)."""
    if ind is None:
        ind = _induce_with_data(sheaf, level)
    ind_sheaf, pres = ind
    res = restrict(ind_sheaf, sheaf.level)
    field = sheaf.field
    zero = tuple(Fraction(0) for _ in range(sheaf.monoid.ambient_rank))
    blocks = {}
    for nu, d in sheaf.module.dims.items():
        lab_big = label_at_level(nu, level)
        if not ind_sheaf.dim(lab_big):
            continue
        cols = [pres.coords(lab_big, [((nu, zero, i), field.one)]) for i in range(d)]
        blocks[nu] = tuple(zip(*cols))
    return ParabolicMap(sheaf, res, blocks, check=False)


def counit_map(sheaf, sublevel, ind=None):
    """eps: induce(restrict(E, sublevel), E.level) -> E."""
    if sheaf.level % sublevel != 0:
        raise NotADivisor(f"{sublevel} does not divide level {sheaf.level}")
    res = restrict(sheaf, sublevel)
    if ind is None:
        ind = _induce_with_data(res, sheaf.level)
    ind_sheaf, pres = ind
    blocks = {}
    for lab in ind_sheaf.module.dims:
        tdim = sheaf.dim(lab)
        if tdim == 0:
            continue
        cols = []
        for k in pres.spaces[lab].free:
            nu, gamma, i = pres.gens_per_label[lab][k]
            act = sheaf.module.act(gamma, label_at_level(nu, sheaf.level))
            cols.append(tuple(act[t][i] for t in range(tdim)))
        blocks[lab] = tuple(zip(*cols))
    return ParabolicMap(ind_sheaf, sheaf, blocks, check=False)


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
    """Dimension and basis of the space of parabolic maps source -> target."""
    if source.module.algebra != target.module.algebra:
        raise LevelMismatch("hom between different levels or fields")
    alg = source.module.algebra
    field = alg.field
    var_index = {}
    for lab, d in source.module.dims.items():
        td = target.dim(lab)
        for r in range(td):
            for c in range(d):
                var_index[(lab, r, c)] = len(var_index)
    nvars = len(var_index)
    rows = []
    for g in alg.delta_generators:
        for lab, d in source.module.dims.items():
            tgt = source.module._target_label(g, lab)
            a1 = source.module.gen_matrix(g, lab)  # dim(tgt_src) x d
            a2 = target.module.gen_matrix(g, lab)
            rows_out = target.dim(tgt)
            for r in range(rows_out):
                for c in range(d):
                    row = [field.zero] * nvars
                    # (f_{tgt} . a1)[r][c]
                    for k in range(source.dim(tgt)):
                        key = var_index.get((tgt, r, k))
                        if key is not None:
                            row[key] = field.add(row[key], a1[k][c])
                    # (a2 . f_lab)[r][c]
                    for k in range(target.dim(lab)):
                        key = var_index.get((lab, k, c))
                        if key is not None:
                            row[key] = field.sub(row[key], a2[r][k])
                    if any(not field.is_zero(x) for x in row):
                        rows.append(tuple(row))
    if nvars == 0:
        return 0, []
    basis = fields.nullspace(field, tuple(rows)) if rows else fields.identity_matrix(field, nvars)
    maps = []
    for vec in basis:
        blocks = {}
        for lab, d in source.module.dims.items():
            td = target.dim(lab)
            mat = [[field.zero] * d for _ in range(td)]
            for r in range(td):
                for c in range(d):
                    mat[r][c] = vec[var_index[(lab, r, c)]]
            blocks[lab] = tuple(tuple(r) for r in mat)
        maps.append(ParabolicMap(source, target, blocks, check=False))
    return len(maps), maps

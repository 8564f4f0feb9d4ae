"""Graded algebras k[(1/n)P]/(P+) and their graded modules.

The level-n algebra has one basis monomial per point of Delta(P) cap
(1/n)P, multiplied by x^g * x^d = x^(g+d) when the sum stays in Delta and
0 otherwise.  Modules are graded by coset labels in (1/n)P^gp / P^gp =
(Z/n)^r, numbered once per algebra by their position in `labels`; one
translation table per Hilbert generator (`GradedAlgebra.shift`) moves an
index by the generator's label.  A module stores its dimensions and one
sparse operator per (generator, label index), the only stored form of its
action; a Delta monomial acts by their memoized composite along a
canonical decomposition.  A `GradedMap` stores one operator of the same
form per source label index.  Labels and dense matrices appear only at
the JSON and API edges.

Here and in `parabolic` a point x of (1/n)P is the int tuple y = n*s*x
(s the presentation denominator); only the algebra knows the scale.  The
generators are then the integer Hilbert basis of P at every level,
membership is `MonoidPresentation._contains_int`, and level m maps into
level N by y -> (N/m)*y.  Module action keys are these int tuples, and
so are the generator keys that `jsonio` reads (`lattice.scaled_from_key`)
and writes (`lattice.scaled_key`, which also writes the error messages);
no function here sees a rational point.

Construction paths that take untrusted data check the module law x^h
x^gamma = x^(h+gamma), or 0 when h+gamma leaves Delta, on the defining
relations of the presentation k[x_h : h in H]/(I_H + (x_h^n)) of the
algebra (H the Hilbert basis, I_H its toric ideal), whose size does not
grow with n: generators outside Delta act as zero, the generators in
Delta commute, satisfy the moves of I_H (`GradedAlgebra.moves`, computed
once per monoid) and have X_h^n = 0.  `GradedModule.validate` proves that
these are the law for every generator and Delta monomial, so no
multiplication table is built.

A parabolic sheaf over a log point is a graded module here: `parabolic`
passes `GradedModule` and `GradedMap` through unchanged, and modules
carry its `monoid`, `level` and `field` and compare by value.

Every quotient construction (tensor products and cokernels here;
induction, its unit and counit maps and the counit test in `parabolic`)
goes through one class, `Presentation`: an ordered free span per label
index, sparse relation rows filed by label index in one pass, one
elimination per distinct label presentation, and, once its `module` is
read, the generator action moved across to the quotient bases; the
counit test reads only the spaces.  `PresentedSpace` (defined in
`fields`, bound here) is a function of its column count and rows, as its
reduced row echelon form is unique, so labels filing equal blocks share
one (`fields.present_each`).  It is the library's one Gauss-Jordan
eliminator, and it works on operators directly: ranks are pivots of an
operator's columns, a kernel is the `nullspace` of its rows and an image
its pivot columns.  Kernels and images share `_submodule`, which moves
the action onto a sub-basis by `fields.sparse_compose` and reads the
coordinates from one space per target label (`_coordinates`).

The monomial-ideal side lives in `ideals`; its four public names stay
bound here.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, partial, reduce
from itertools import accumulate, combinations
from operator import add

from . import fields
from .errors import AlgebraMismatch, LevelMismatch, NotExactInput
from .fields import QQ, PresentedSpace
from .ideals import MonoidIdeal, coherence_probe, colon_degree_ideal, ideal_min_generators
# coset_label and in_delta are bound only for perfbench's tracer
from .infquot import delta_points, in_delta
from .kummer import (
    coset_label,
    enumerate_labels,
    scaled_label,
    zero_label,
)
from .lattice import Record, scaled_key, vadd, vec_key, vscale, vsub


@lru_cache(maxsize=None)
def graded_algebra(pres, level, field=QQ):
    return GradedAlgebra(pres, level, field)


class GradedAlgebra:
    """k[(1/n)P]/(P+) with its Delta monomial basis, graded by coset labels.

    Points are int tuples y = scale*x, scale = n*s.  A generator is in Delta
    iff it is a basis point: all of Delta cap (1/n)P is below the bound.
    """

    def __init__(self, monoid, level, field=QQ):
        self.monoid = monoid
        self.level = int(level)
        self.field = field
        self.scale = self.level * monoid.denominator
        self.delta = delta_points(monoid, self.level)
        self.basis = self.delta.scaled
        self._basis_set = frozenset(self.basis)
        self.labels = tuple(enumerate_labels(monoid, self.level))
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}
        self.zero_label = zero_label(monoid, self.level)
        self.generators = monoid._saturation_hilbert_basis
        self.delta_generators = tuple(g for g in self.generators if g in self._basis_set)
        self._decomp_memo = {(0,) * monoid.ambient_rank: ()}

    def __eq__(self, other):
        return (
            isinstance(other, GradedAlgebra)
            and self.monoid == other.monoid
            and self.level == other.level
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.monoid, self.level, self.field))

    def label_of(self, y):
        """Coset label of a point given by its int tuple y; other entries
        (Fractions, even integral ones) raise TypeError.  The graded layer
        itself only reads the labels of the generators, to build `shift`."""
        if not all(type(c) is int for c in y):
            raise TypeError(f"label_of takes the int coordinates of a point, not {vec_key(y)}")
        lab = scaled_label(self.monoid, self.level, y)
        if lab is None:
            raise ValueError(f"{scaled_key(y, self.scale)} is not in the level-{self.level} group lattice")
        return lab

    def index(self, label):
        """The position of a coset label in `labels`.  A label over another
        monoid, or whose order does not divide the level, raises LevelMismatch."""
        i = self.label_index.get(label)
        if i is None:
            raise LevelMismatch(f"label {vec_key(label.normal_form)} is not a level-{self.level} label of this monoid")
        return i

    def _position(self, residues):
        """The index of the label with these residues mod n: `labels` runs
        through (Z/n)^r in lex order."""
        i = 0
        for c in residues:
            i = i * self.level + c % self.level
        return i

    @cached_property
    def shift(self):
        """shift[g][i] is the index of labels[i] + label(g), one table per
        Hilbert generator g, built by residue arithmetic."""
        digits = [lab.residues for lab in self.labels]
        tables = {}
        for g in self.generators:
            step = self.label_of(g).residues
            tables[g] = tuple(self._position(map(add, res, step)) for res in digits)
        return tables

    def target(self, gamma, i):
        """The index of labels[i] + label(gamma) for gamma in (1/n)P, through
        the generator tables along decompose(gamma)."""
        shift = self.shift
        for g in self.decompose(gamma):
            i = shift[g][i]
        return i

    def multiply(self, g, d):
        """x^g * x^d: the sum when it stays in Delta, else None (zero).

        Both factors live in (1/n)P, so the sum is a Delta point iff it is
        one of the enumerated level-n Delta points (their bound is closed
        under the complement: a sum outside the table cannot be in Delta).
        """
        s = vadd(g, d)
        return s if s in self._basis_set else None

    def decompose(self, gamma):
        """A fixed decomposition of a (1/n)P element into Hilbert generators.

        It starts with the first generator g, in `generators` order, such
        that gamma - g lies in (1/n)P and decomposes.  An explicit stack of
        (point, generator index) replaces recursion; every visited point is
        memoized, None meaning no decomposition.
        """
        memo = self._decomp_memo
        if gamma in memo:
            return memo[gamma]
        gens, stack = self.generators, [(gamma, 0)]
        contains = self.monoid._contains_int
        while stack:
            point, i = stack.pop()
            while i < len(gens):
                rest = vsub(point, gens[i])
                if rest in memo:
                    if memo[rest] is not None:
                        memo[point] = (gens[i],) + memo[rest]
                        break
                elif contains(rest):
                    stack += [(point, i), (rest, 0)]
                    break
                i += 1
            else:
                memo[point] = None
        return memo[gamma]

    @cached_property
    def moves(self):
        """The moves of the toric ideal I_H as pairs of generator words (u, v),
        X^u = X^v (`MonoidPresentation._toric_moves`).  Empty at level 1,
        where no generator is in Delta (see `GradedModule.validate`)."""
        if not self.delta_generators:
            return ()
        gens = self.generators
        return tuple(
            tuple(tuple(g for g, e in zip(gens, exps) for _ in range(e)) for exps in move)
            for move in self.monoid._toric_moves
        )


class GradedModule:
    """Finite-dimensional graded module over a level-n algebra.

    Stored by label index (positions in `algebra.labels`): `sizes[i]` is
    the dimension at label i, `support` lists the nonzero ones in input
    order, and `action[(g, i)]` is the sparse operator {column: {row:
    entry}} of x^g out of label i, in the local coordinates of label i and
    its target, with nonzero entries only and no key for a zero action.
    The constructor takes label-keyed `dims` and dense `gen_action`
    matrices, whose entries it brings into the field (`norm`); `dims`,
    `dim`, `gen_action` and `gen_matrix` are label-keyed views back.  A
    label of another monoid or level raises LevelMismatch; a generator not
    in `algebra.generators`, or a misshapen matrix (checked or not), raises
    ValueError; one into or out of a zero component may be omitted.
    """

    def __init__(self, algebra, dims, gen_action, check=True):
        sizes, at = {}, {}
        for lab, d in dims.items():
            at[lab] = i = algebra.index(lab)
            if (d := int(d)) > 0:
                sizes[i] = d
        self._store(algebra, sizes, {})
        shared = {}
        for (g, lab), mat in gen_action.items():
            if g not in algebra.generators:
                raise ValueError(f"gen {scaled_key(g, algebra.scale)} is not a Hilbert generator of (1/n)P")
            i = at[lab] if lab in at else algebra.index(lab)  # a payload reuses its `dims` label objects
            if len(mat) != self.sizes[algebra.shift[g][i]] or {*map(len, mat)} - {self.sizes[i]}:
                where = f"gen {scaled_key(g, algebra.scale)} at rep {vec_key(algebra.labels[i].representative)}"
                raise ValueError(f"action matrix for {where} has a wrong shape")
            if op := _operator(tuple(zip(*mat)), shared, algebra.field.norm):
                self.action[(g, i)] = op
        if check:
            self.validate()

    @classmethod
    def _of(cls, algebra, sizes, action):
        """The module with dimensions {label index: d > 0} and a finished
        store, unchecked: library constructions hand theirs over here."""
        (module := cls.__new__(cls))._store(algebra, sizes, action)
        return module

    def _store(self, algebra, sizes, action):
        self.algebra, self.support, self.action, self._act_memo = algebra, tuple(sizes), action, {}
        self.sizes = [sizes.get(i, 0) for i in range(len(algebra.labels))]

    # -- shape helpers and label-keyed views ---------------------------------

    @property
    def monoid(self):
        return self.algebra.monoid

    @property
    def level(self):
        return self.algebra.level

    @property
    def field(self):
        return self.algebra.field

    def __eq__(self, other):
        key = (self.algebra, self.sizes, self.action)
        return isinstance(other, GradedModule) and key == (other.algebra, other.sizes, other.action)

    @cached_property
    def dims(self):
        """Component dimensions keyed by coset label (absent means zero)."""
        return {self.algebra.labels[i]: self.sizes[i] for i in self.support}

    @property
    def gen_action(self):
        """The nonzero action matrices keyed by (generator, label).  Blocks
        of one shape whose operators are one shared dict (`_operator`) get
        one matrix, built once."""
        alg, dense, out = self.algebra, {}, {}
        for (g, i), op in self.action.items():
            key = (id(op), self.sizes[alg.shift[g][i]], self.sizes[i])
            if (mat := dense.get(key)) is None:
                mat = dense[key] = self.gen_matrix(g, alg.labels[i])
            out[(g, alg.labels[i])] = mat
        return out

    def dim(self, label):
        return self.dims.get(label, 0)

    @property
    def total_dim(self):
        return sum(self.sizes)

    def gen_matrix(self, g, label):
        """Action matrix of a Hilbert generator out of `label`."""
        i = self.algebra.index(label)
        return _dense(self.field, self.action.get((g, i), {}), self.sizes[self.algebra.shift[g][i]], self.sizes[i])

    def act(self, gamma, i):
        """(t, X) for gamma in Delta cap (1/n)P: X is the operator of x^gamma
        out of label i into label t, not to be changed by the caller.

        X composes the stored operator of f with the action of gamma - f,
        for decompose(gamma) = (f, ...), by `fields.sparse_compose`.  The
        walk down the tails stops at the first memoized one, and every tail
        above it is memoized on the way back; gamma = 0 gives the identity,
        which is not memoized.
        """
        memo = self._act_memo
        if (hit := memo.get((gamma, i))) is not None:
            return hit
        alg = self.algebra
        parts = alg.decompose(gamma)
        if parts is None:
            raise ValueError(f"{scaled_key(gamma, alg.scale)} is not an element of the level monoid")
        if not parts:
            return i, {c: {c: alg.field.one} for c in range(self.sizes[i])}
        points, k, hit = [gamma], len(parts), (i, None)  # None stands for the identity
        for j in range(1, len(parts)):
            points.append(vsub(points[-1], parts[j - 1]))
            if (points[j], i) in memo:
                k, hit = j, memo[(points[j], i)]
                break
        mid, op = hit
        for j in range(k - 1, -1, -1):
            step = self.action.get((parts[j], mid), {})
            op = step if op is None else fields.sparse_compose(alg.field, step, op)
            mid = alg.shift[parts[j]][mid]
            memo[(points[j], i)] = hit = (mid, op)
        return hit

    # -- laws ----------------------------------------------------------------

    def validate(self):
        """Check the module law on the defining relations of the algebra.

        In the coordinates y = n*s*x, (1/n)P is the saturated monoid S =
        L cap cone (L the group lattice) with Hilbert basis H =
        `generators`, and P sits in it as n*S, so P+ generates the ideal E
        of S generated by the n*h, h in H (a nonzero n*p is n*h + n*(p-h)
        for some h in H with p - h in S).

        Claim: a point y of level n (a point of S) lies outside
        `delta_points(P, n)` iff y - n*h is in (1/n)P, that is in S, for
        some h in H.  `delta_points` keeps exactly the group points y of
        the cone for which every y - n*h leaves the cone (`infquot`: the
        parallelepipeds hold every such point, and the line solve drops the
        others).  y - n*h is a group point, as y and h are, and a group
        point of the cone is in S, as S is saturated; so y - n*h stays in
        the cone iff it is in S.  So the points of S outside Delta are E.

        Hence A = k[(1/n)P]/(P+) = k[S]/k[E] has the basis x^gamma, gamma
        in Delta, with x^g x^d = x^(g+d), or 0 when g+d is in E.  And k[S]
        = k[x_h : h in H]/I_H (x_h -> x^h is onto, as H generates S, and
        its kernel is the toric ideal I_H), and x^(n*h) is the image of
        x_h^n, so A = k[x_h : h in H]/(I_H + (x_h^n : h in H)), whatever n.
        At n = 1 every h is in E (h - h = 0), so A = k.  At n >= 2 every h
        is in Delta: h - n*h' in S would write h as h' + ((n-1)*h' + (h -
        n*h')), a sum of two nonzero points of S, but h is indecomposable.

        So, with X_h the action of h (shapes are checked at construction):
          N  generators outside Delta act as zero (all of them at level 1,
             where A = k and nothing else is asked, none at n >= 2);
          C  X_g X_h = X_h X_g for each pair of delta generators;
          M  X^u = X^v for each move (u, v) of `GradedAlgebra.moves`, a
             generating set of I_H (`MonoidPresentation._toric_moves`);
          P  X_h^n = 0 for each delta generator h, by repeated squaring,
             which stops at the first zero square.
        These say that h -> X_h makes the module a module over k[x_h]/(I_H
        + (x_h^n)) = A: with C every polynomial acts through its value on
        commuting matrices, and each element of the ideal, a sum of
        polynomials times x^u - x^v or x_h^n, acts as zero.  The composite
        act(gamma) along `decompose(gamma)` is then the action of the
        monomial x^gamma, and the module law follows: X_h act(gamma) is
        act(h+gamma), or 0 when h+gamma leaves Delta.

        Conversely the law, by induction on the length of a word, makes a
        product X_h1 ... X_hk equal to act(h1 + ... + hk) when the sum is
        in Delta and 0 otherwise (E is an ideal, so the sum of a longer
        word stays outside Delta).  C, M and P each compare two products
        of equal sums (n*h is in E), so no module satisfying the law is
        rejected.  The relations do not grow with n: |H| choose 2
        commutators, the moves, and |H| powers of O(log n) products each.

        C, M and P are checked on the direct sum of the components, where
        X_h is one sparse operator {column: {row: entry}}, assembled from
        the store by shifting each label's columns and rows by running
        offsets over the labels, and products are `fields.sparse_compose`.
        X_h maps label i into shift[h][i], so a product of generators maps
        each label into a single label, and a relation holds on the sum
        exactly when it holds out of every label.  No error line names a
        label, so each is the line a label-by-label check raises.  A move's
        words are multiplied in any order, as C holds by then.
        """
        alg = self.algebra
        for h, _ in self.action:  # the nonzero actions
            if h not in alg.delta_generators:
                raise ValueError(f"generator {scaled_key(h, alg.scale)} leaves Delta but acts nontrivially")
        offset, ops = list(accumulate(self.sizes, initial=0)), {h: {} for h in alg.delta_generators}
        for (h, i), op in self.action.items():
            rows, whole = offset[alg.shift[h][i]], ops[h]
            for c, col in op.items():
                whole[offset[i] + c] = {rows + r: x for r, x in col.items()}
        product = partial(reduce, partial(fields.sparse_compose, alg.field))
        for g, h in combinations(alg.delta_generators, 2):
            if product((ops[g], ops[h])) != product((ops[h], ops[g])):
                raise ValueError(f"module law fails: generators {scaled_key(g, alg.scale)} and {scaled_key(h, alg.scale)} do not commute")
        for u, v in alg.moves:
            if product(map(ops.get, u)) != product(map(ops.get, v)):
                raise ValueError(f"module law fails: the products {_word_key(alg, u)} and {_word_key(alg, v)} differ")
        for h in alg.delta_generators:
            # X_h^n = power x^e throughout (power None is 1), so a zero x makes it 0
            power, x, e = None, ops[h], alg.level
            while e and x:
                if e % 2:
                    power, e = x if power is None else product((x, power)), e - 1
                else:
                    x, e = product((x, x)), e // 2
            if power and not e:
                raise ValueError(f"module law fails: generator {scaled_key(h, alg.scale)} to the power {alg.level} acts nontrivially")


def _word_key(alg, word):
    """A word of generators in payload notation, such as 1/2,0 + 0,1/2."""
    return " + ".join(scaled_key(g, alg.scale) for g in word)


def twist(algebra, label):
    """The free rank-one module R(label): component at mu is R_(label+mu),
    so the Delta monomial gamma sits at mu = label(gamma) - label."""
    start = algebra._position(-c for c in algebra.labels[algebra.index(label)].residues)
    bases = {}
    for gamma in algebra.basis:
        bases.setdefault(algebra.target(gamma, start), []).append(gamma)
    # x^g moves the monomial s to s + g, which sits at position pos[s + g] of the label it reaches
    pos = {gamma: r for b in bases.values() for r, gamma in enumerate(b)}
    one, action = algebra.field.one, {}
    for mu, b in bases.items():
        for g in algebra.generators:
            if op := {c: {pos[t]: one} for c, s in enumerate(b) if (t := algebra.multiply(g, s)) is not None}:
                action[(g, mu)] = op
    return GradedModule._of(algebra, {mu: len(bases[mu]) for mu in sorted(bases)}, action)


def algebra_as_module(algebra):
    return twist(algebra, algebra.zero_label)


def direct_sum(modules):
    """The direct sum, each summand's coordinates after those of the summands before it."""
    algebra = modules[0].algebra
    if any(m.algebra != algebra for m in modules):
        raise AlgebraMismatch("direct sum over mixed algebras")
    sizes, action = {}, {}
    for m in modules:
        for (g, i), op in m.action.items():
            cols, rows = sizes.get(i, 0), sizes.get(algebra.shift[g][i], 0)
            block = action.setdefault((g, i), {})
            for c, col in op.items():
                block[cols + c] = {rows + r: x for r, x in col.items()}
        for i in m.support:
            sizes[i] = sizes.get(i, 0) + m.sizes[i]
    return GradedModule._of(algebra, sizes, action)


# ---------------------------------------------------------------------------
# graded maps


class GradedMap:
    """Degree-zero action-commuting map between modules over one algebra.

    Stored as `ops[i]`, the sparse operator {column: {row: entry}} out of
    label index i of the source into label i of the target, in the format of
    `GradedModule.action`, with no key for a zero block.  The constructor
    takes label-keyed dense `blocks`, whose entries it brings into the field
    (`norm`); one of a wrong shape raises ValueError, checked or not.
    `block(label)` and `blocks`, over the whole source support, are dense
    views back."""

    def __init__(self, source, target, blocks, check=True):
        if source.algebra != target.algebra:
            raise AlgebraMismatch("map between modules over different algebras")
        self.source, self.target, self.ops, shared = source, target, {}, {}
        for lab, mat in blocks.items():
            if d := source.dim(lab):
                if len(mat) != target.dim(lab) or {*map(len, mat)} - {d}:
                    raise ValueError(f"map block at rep {vec_key(lab.representative)} has a wrong shape")
                if op := _operator(tuple(zip(*mat)), shared, source.field.norm):
                    self.ops[source.algebra.index(lab)] = op
        if check and not self.commutes():
            raise ValueError("map does not commute with the action")

    @classmethod
    def _of(cls, source, target, ops):
        """The map with a finished store, unchecked: library constructions
        hand theirs over here."""
        (fmap := cls.__new__(cls)).source, fmap.target, fmap.ops = source, target, ops
        return fmap

    def block(self, label):
        i = self.source.algebra.index(label)
        return _dense(self.source.field, self.ops.get(i, {}), self.target.sizes[i], self.source.sizes[i])

    @property
    def blocks(self):
        return {lab: self.block(lab) for lab in self.source.dims}

    def commutes(self):
        """F_t X_g = Y_g F_i on the sparse operators X of the source, Y of
        the target and F of the map, out of each label i of the source
        support (t = shift[g][i]); off it X_g and F_i, so both sides, are 0."""
        src, tgt, ops = self.source, self.target, self.ops
        alg = src.algebra
        compose = partial(fields.sparse_compose, alg.field)
        for g in alg.generators:
            for i in src.support:
                lhs = compose(ops.get(alg.shift[g][i], {}), src.action.get((g, i), {}))
                if lhs != compose(tgt.action.get((g, i), {}), ops.get(i, {})):
                    return False
        return True

    def _rank(self, i):
        return len(PresentedSpace(self.source.field, self.target.sizes[i], [*self.ops.get(i, {}).values()]).pivots)

    def is_injective(self):
        return all(self._rank(i) == self.source.sizes[i] for i in self.source.support)

    def is_isomorphism(self):
        return self.source.sizes == self.target.sizes and self.is_injective()


def compose_maps(g, f):
    compose = partial(fields.sparse_compose, f.source.field)
    return GradedMap._of(f.source, g.target, {i: op for i, fop in f.ops.items() if (op := compose(g.ops.get(i, {}), fop))})


def _dense(field, op, nrows, ncols):
    """The dense matrix, a tuple of row tuples, of a sparse operator."""
    rows = [[field.zero] * ncols for _ in range(nrows)]
    for c, col in op.items():
        for r, x in col.items():
            rows[r][c] = x
    return tuple(map(tuple, rows))


def _operator(cols, shared, norm=None):
    """The sparse operator {column: {row: entry}} of a dense matrix, a tuple
    of column tuples, its entries brought into the field by `norm` if given.
    Equal matrices share one operator, kept in `shared`: a module has few
    distinct ones, and no reader changes a stored one."""
    if (op := shared.get(cols)) is None:
        normal = cols if norm is None else [[*map(norm, col)] for col in cols]
        op = shared[cols] = {c: {r: x for r, x in enumerate(col) if x} for c, col in enumerate(normal) if any(col)}
    return op


def _row_space(field, op, ncols):
    """The `PresentedSpace` of the rows of a sparse operator with `ncols` columns."""
    rows = {}
    for c, col in op.items():
        for r, x in col.items():
            rows.setdefault(r, {})[c] = x
    return PresentedSpace(field, ncols, [*rows.values()])


def _coordinates(field, basis, n, shared):
    """solve(op, ncols): the coordinates of the columns of `op` in `basis`,
    independent columns b_k in k^n, as an operator, or None off their span.
    k^n + k^basis modulo the rows b_k - e'_k has ambient pivots only, so
    `reduce` leaves v as a residue on free ambient columns plus a sum of
    e'_k, standing for b_k: the residue is 0 exactly on the span."""
    m = len(basis)
    space = PresentedSpace(field, n + m, [{**col, n + k: -1} for k, col in basis.items()])

    def solve(op, ncols):
        got = [space.reduce(op.get(c, {})) for c in range(ncols)]
        if not any(any(v[: n - m]) for v in got):
            return _operator(tuple(v[n - m :] for v in got), shared)

    return solve


def _submodule(ambient, bases, what):
    """The submodule of `ambient` spanned by per-label-index bases, given as
    operators with independent columns, with its inclusion; raises
    ValueError when the span is not action-stable."""
    alg, action, shared = ambient.algebra, {}, {}
    spans = {t: _coordinates(alg.field, bases.get(t, {}), ambient.sizes[t], shared) for t in ambient.support}
    for i, basis in bases.items():
        for g in alg.generators:
            if moved := fields.sparse_compose(alg.field, ambient.action.get((g, i), {}), basis):
                if (op := spans[alg.shift[g][i]](moved, len(basis))) is None:  # a moved vector leaves the target span
                    raise ValueError(f"{what} is not action-stable")
                action[(g, i)] = op
    sub = GradedModule._of(alg, {i: len(basis) for i, basis in bases.items()}, action)
    return sub, GradedMap._of(sub, ambient, bases)


def kernel(f):
    """Kernel submodule with its inclusion map: at each label the null space
    of the block's rows (all of the component where the block is zero)."""
    src, bases, shared = f.source, {}, {}
    for i in src.support:
        if basis := _operator(_row_space(src.field, f.ops.get(i, {}), src.sizes[i]).nullspace(), shared):
            bases[i] = basis
    return _submodule(src, bases, "kernel")


def image(f):
    """Image submodule of the target with its inclusion map: the pivot
    columns of each block."""
    bases = {}
    for i in f.source.support:
        if op := f.ops.get(i):
            bases[i] = {k: op[j] for k, j in enumerate(_row_space(f.source.field, op, f.source.sizes[i]).pivots)}
    return _submodule(f.target, bases, "image")


def cokernel(f):
    """Quotient of the target by the image, with the projection."""
    target = f.target
    alg = target.algebra
    # generator keys are (label index, basis position); the columns of f span the image
    gens = [(i, (i, a)) for i in target.support for a in range(target.sizes[i])]
    relations = ([((i, a), x) for a, x in col.items()] for i, op in f.ops.items() for col in op.values())

    def move(h, key):
        i, a = key
        t = alg.shift[h][i]
        return [((t, r), x) for r, x in target.action.get((h, i), {}).get(a, {}).items()]

    pres, shared = Presentation(alg, gens, relations, move), {}
    proj = {i: _operator(tuple(map(sp.unit, range(sp.ngens))), shared) for i, sp in pres.spaces.items() if sp.dim}
    return pres.module, GradedMap._of(target, pres.module, proj)


def corestrict_to_image(f, img, incl):
    """The surjection source -> image induced by f."""
    ops, shared = {}, {}
    for i, op in f.ops.items():  # the image is 0 where f is
        ops[i] = _coordinates(f.source.field, incl.ops[i], f.target.sizes[i], shared)(op, f.source.sizes[i])
    return GradedMap._of(f.source, img, ops)


# ---------------------------------------------------------------------------
# pushforward to a sublevel and exactness


def degree_zero_part(module, sublevel):
    """Keep the components whose label already lives at the sublevel.

    Models the pushforward along level-n -> level-m root projections; the
    result is a module over the level-m algebra on the same monoid.  A
    level-m point y is the level-n point (n/m)*y.
    """
    alg = module.algebra
    if alg.level % sublevel != 0:
        raise LevelMismatch(f"{sublevel} does not divide level {alg.level}")
    sub = graded_algebra(alg.monoid, sublevel, alg.field)
    # the level-m index of each kept level-n index (labels compare across
    # levels); a level-m generator moves a level-m label to a level-m label,
    # so every target is kept too
    down = {i: sub.label_index[lab] for i in module.support if (lab := alg.labels[i]) in sub.label_index}
    action, sizes = {}, {k: module.sizes[i] for i, k in down.items()}
    for g in sub.delta_generators:
        big_g = vscale(alg.level // sublevel, g)
        for i, k in down.items():
            if op := module.act(big_g, i)[1]:
                action[(g, k)] = op
    return GradedModule._of(sub, sizes, action)


def restrict_map(fmap, sublevel):
    """degree_zero_part applied to a graded map."""
    src, tgt = degree_zero_part(fmap.source, sublevel), degree_zero_part(fmap.target, sublevel)
    labels, down = fmap.source.algebra.labels, src.algebra.label_index
    return GradedMap._of(src, tgt, {down[labels[i]]: op for i, op in fmap.ops.items() if labels[i] in down})


class ShortExactSequence(Record):
    def __init__(self, inject, project):
        self.inject, self.project = inject, project

    def _key(self):
        return self.inject, self.project


def is_exact_sequence(ses):
    """Degreewise exactness of 0 -> A -f-> B -g-> C -> 0: f is injective,
    g f = 0, and at each label g is onto and rank f = dim B - rank g (off
    the supports of B and C every term is 0)."""
    f, g = ses.inject, ses.project
    if f.target is not g.source and f.target.dims != g.source.dims:
        return False
    onto = all(g._rank(i) == g.target.sizes[i] == f.target.sizes[i] - f._rank(i) for i in {*f.target.support, *g.target.support})
    return onto and f.is_injective() and not compose_maps(g, f).ops


def check_exactness(ses, sublevel):
    """Exactness is preserved by the sublevel pushforward.

    The input must already be exact degreewise; anything else raises
    NotExactInput.  Returning False would signal an implementation bug.
    """
    if not is_exact_sequence(ses):
        raise NotExactInput("the given sequence is not exact degreewise")
    pushed = ShortExactSequence(
        inject=restrict_map(ses.inject, sublevel),
        project=restrict_map(ses.project, sublevel),
    )
    return is_exact_sequence(pushed)


# ---------------------------------------------------------------------------
# tensor products and the projection formula


class Presentation:
    """A graded module presented as a free span per label modulo relations.

    `gens` is an ordered list of (label index, key) pairs; the order within
    a label fixes the quotient basis.  `relations` yields sparse rows
    [(key, coeff), ...] whose keys share one label; keys not in `gens`
    name zero generators and are dropped.  `move(h, key)` is the sparse
    image of a generator under x^h, for h in `algebra.delta_generators`.

    Relation rows are filed as sparse rows {position: coeff} under the
    label index of their keys, in one pass.  There is one elimination per
    distinct label presentation: labels with equal blocks share one
    `PresentedSpace`, sound as its reduced row echelon form is unique.
    `index` maps a key to its (label index, position); `spaces` and
    `gens_per_label` are keyed by label index.  `module`, built when first
    read, moves the action across to the quotient bases by `reduce`.
    """

    def __init__(self, algebra, gens, relations, move):
        self.algebra, self._move = algebra, move
        self.gens_per_label = per = {}
        self.index = index = {}
        for i, key in gens:
            keys = per.setdefault(i, [])
            index[key] = (i, len(keys))
            keys.append(key)
        rows = {i: [] for i in per}
        for terms in relations:
            row = {}
            for key, c in terms:
                hit = index.get(key) if c else None
                if hit is not None:
                    i, j = hit
                    row[j] = row.get(j, 0) + c
            if row:
                rows[i].append(row)
        self.spaces = dict(fields.present_each(algebra.field, ((i, len(keys), rows[i]) for i, keys in per.items())))

    @cached_property
    def module(self):
        algebra, spaces, action, shared = self.algebra, self.spaces, {}, {}
        for i, keys in self.gens_per_label.items():
            if (sp := spaces[i]).dim == 0:
                continue
            for h in algebra.delta_generators:
                t = algebra.shift[h][i]
                if t not in spaces or spaces[t].dim == 0:
                    continue
                if op := _operator(tuple(self.coords(t, self._move(h, keys[k])) for k in sp.free), shared):
                    action[(h, i)] = op
        return GradedModule._of(algebra, {i: sp.dim for i, sp in spaces.items() if sp.dim}, action)

    def coords(self, i, terms):
        """Quotient coordinates at label index i of a sparse generator vector."""
        index = self.index
        vec = {}
        for key, c in terms:
            hit = index.get(key)
            if hit is not None:
                vec[hit[1]] = vec.get(hit[1], 0) + c
        return self.spaces[i].reduce(vec)


def tensor(m, n):
    """Graded tensor product over the common algebra.

    Returns (module, embed) where embed(label_m, i, label_n, j) gives the
    quotient coordinates of the pure tensor e_i (x) e_j.
    """
    if m.algebra != n.algebra:
        raise AlgebraMismatch("tensor of modules over different algebras")
    alg, field, labels = m.algebra, m.field, m.algebra.labels
    gens = []
    # generator keys are (label index in m, basis position, label index in n, basis position)
    for k in m.support:
        for l in n.support:
            t = alg._position(map(add, labels[k].residues, labels[l].residues))
            gens.extend((t, (k, i, l, j)) for i in range(m.sizes[k]) for j in range(n.sizes[l]))

    def move(g, key):
        """x^g on the left factor of e_i (x) e_j."""
        k, i, l, j = key
        t = alg.shift[g][k]
        return [((t, i2, l, j), x) for i2, x in m.action.get((g, k), {}).get(i, {}).items()]

    def relations():
        # (x^g e_i) (x) e_j = e_i (x) (x^g e_j)
        for g in alg.delta_generators:
            for k in m.support:
                for l in n.support:
                    t, an = alg.shift[g][l], n.action.get((g, l), {})
                    for i in range(m.sizes[k]):
                        for j in range(n.sizes[l]):
                            right = [((k, i, t, j2), field.norm(-x)) for j2, x in an.get(j, {}).items()]
                            yield move(g, (k, i, l, j)) + right

    pres = Presentation(alg, gens, relations(), move)

    def embed(mu, i, nu, j):
        hit = pres.index.get((alg.label_index.get(mu), i, alg.label_index.get(nu), j))
        if hit is None:
            return None
        t, idx = hit
        return alg.labels[t], pres.spaces[t].unit(idx)

    return pres.module, embed


def base_tensor(dim0, module):
    """V (x)_k M for a plain vector space V of dimension dim0: dim0 copies of M."""
    if dim0 == 0:
        return GradedModule(module.algebra, {}, {}, check=False)
    return direct_sum([module] * dim0)


def projection_formula_check(base, module):
    """V (x) (degree-zero part) versus degree-zero part of V (x) M, at level 1.

    `base` is a plain dimension or a level-1 module standing for V.  Over a
    log point the base-level algebra is the ground field, so both sides are
    plain vector spaces, and the check compares their dimensions.  It does
    not build the natural map between them.
    """
    dim0 = base if isinstance(base, int) else base.total_dim
    lhs = dim0 * degree_zero_part(module, 1).total_dim
    big = base_tensor(dim0, module)
    rhs_mod = degree_zero_part(big, 1)
    return lhs == rhs_mod.total_dim


def unit_map_check(dim0, algebra):
    """V -> degree-zero part of V (x) R is an isomorphism."""
    free = algebra_as_module(algebra)
    big = base_tensor(dim0, free)
    pushed = degree_zero_part(big, 1)
    return pushed.total_dim == dim0

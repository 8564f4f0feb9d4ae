import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    contains_at_level,
    ideal_min_generators_oracle,
    random_module,
    random_ses,
    random_twist_sum,
)
from monostack.errors import AlgebraMismatch, NotExactInput, RegionTooSmall
from monostack.fields import QQ, PrimeField
from monostack.graded import (
    GradedAlgebra,
    GradedMap,
    GradedModule,
    ShortExactSequence,
    algebra_as_module,
    check_exactness,
    degree_zero_part,
    direct_sum,
    graded_algebra,
    image,
    is_exact_sequence,
    kernel,
    projection_formula_check,
    tensor,
    twist,
    unit_map_check,
)
from monostack.ideals import MonoidIdeal, coherence_probe, colon_degree_ideal, ideal_min_generators
from monostack.infquot import delta_points, in_delta
from monostack.kummer import coset_label, enumerate_labels, label_add, zero_label
from monostack.lattice import dot, scale_to_ints, unscale, vadd, vsub
from monostack.monoid import monoid_points, saturate, validate


def fr(*vals):
    return tuple(Fraction(v) for v in vals)


# -- algebra laws --------------------------------------------------------------


def test_algebra_basis_is_delta(nat, nonsimplicial):
    for pres, n in ((nat, 3), (nonsimplicial, 2)):
        alg = graded_algebra(pres, n)
        assert tuple(unscale(y, alg.scale) for y in alg.basis) == delta_points(pres, n).points


def test_algebra_unit_and_commutativity(nat2, nonsimplicial):
    for pres, n in ((nat2, 3), (nonsimplicial, 2)):
        alg = graded_algebra(pres, n)
        zero = fr(*([0] * pres.ambient_rank))
        for g in alg.basis:
            assert alg.multiply(zero, g) == g
            for d in alg.basis:
                assert alg.multiply(g, d) == alg.multiply(d, g)


def test_algebra_associativity_exhaustive(nat2, nonsimplicial):
    for pres, n in ((nat2, 3), (nonsimplicial, 2)):
        alg = graded_algebra(pres, n)

        def mul(x, y):
            if x is None or y is None:
                return None
            return alg.multiply(x, y)

        for a in alg.basis:
            for b in alg.basis:
                ab = alg.multiply(a, b)
                for c in alg.basis:
                    assert mul(ab, c) == mul(a, alg.multiply(b, c))


def test_algebra_grading(nat2):
    alg = graded_algebra(nat2, 2)
    for a in alg.basis:
        for b in alg.basis:
            p = alg.multiply(a, b)
            if p is not None:
                assert alg.label_of(p) == label_add(alg.label_of(a), alg.label_of(b))


# -- twists and the dimension formula ------------------------------------------


def test_twist_zero_is_algebra(nat2):
    alg = graded_algebra(nat2, 2)
    r = algebra_as_module(alg)
    t = twist(alg, alg.zero_label)
    assert r.dims == t.dims
    for g in alg.generators:
        for lab in r.dims:
            assert r.gen_matrix(g, lab) == t.gen_matrix(g, lab)


def test_twist_degree_zero_dimension_nat():
    nat = validate([(1,)])
    alg = graded_algebra(nat, 3)
    lam = coset_label(nat, 3, (Fraction(1, 3),))
    t = twist(alg, lam)
    assert degree_zero_part(t, 1).total_dim == 1


def test_dimension_formula_all_labels(nat, nat2, nat3, nonsimplicial):
    """dim of the degree-zero part of R(lambda) counts the Delta points in
    the class, and equals one exactly on classes with Delta0 representatives."""
    for pres in (nat, nat2, nat3, nonsimplicial):
        for n in (1, 2, 3, 4):
            alg = graded_algebra(pres, n)
            ds = delta_points(pres, n)
            for lam in enumerate_labels(pres, n):
                t = twist(alg, lam)
                got = degree_zero_part(t, 1).total_dim
                reps = ds.points_in_class(lam)
                assert got == len(reps)
                has_delta0 = ds.delta0_point_in_class(lam) is not None
                if has_delta0:
                    assert got == 1


def test_line_multiplication_nonzero(nonsimplicial):
    """Products of Delta0 monomials stay nonzero whenever the sum is in Delta."""
    alg = graded_algebra(nonsimplicial, 2)
    ds = delta_points(nonsimplicial, 2)
    for a in ds.delta0_points:
        for b in ds.delta0_points:
            p = alg.multiply(scale_to_ints(a, alg.scale), scale_to_ints(b, alg.scale))
            if in_delta(nonsimplicial, vadd(a, b)):
                assert p == scale_to_ints(vadd(a, b), alg.scale)


def test_module_validation_rejects_bad_action(nat):
    alg = graded_algebra(nat, 2)
    labs = enumerate_labels(nat, 2)
    dims = {labs[0]: 1, labs[1]: 1}
    g = alg.generators[0]
    bad = {(g, labs[0]): ((Fraction(1),),), (g, labs[1]): ((Fraction(1),),)}
    # x^(1/2) twice lands in degree 1 which dies; nonzero composite is illegal
    with pytest.raises(ValueError):
        GradedModule(alg, dims, bad)


# -- pushforward and exactness --------------------------------------------------


def test_degree_zero_identity_at_same_level(nat2):
    alg = graded_algebra(nat2, 2)
    r = algebra_as_module(alg)
    same = degree_zero_part(r, 2)
    assert same.dims == r.dims


def test_degree_zero_of_algebra_is_line(nat2, nonsimplicial):
    for pres, n in ((nat2, 3), (nonsimplicial, 2)):
        alg = graded_algebra(pres, n)
        r = algebra_as_module(alg)
        pushed = degree_zero_part(r, 1)
        assert pushed.total_dim == 1


def test_degree_zero_of_twist(nat2):
    alg = graded_algebra(nat2, 2)
    ds = delta_points(nat2, 2)
    for lam in enumerate_labels(nat2, 2):
        pushed = degree_zero_part(twist(alg, lam), 1)
        assert pushed.total_dim == len(ds.points_in_class(lam))


def test_split_sequence_exact_and_pushes(nat2):
    alg = graded_algebra(nat2, 2)
    labs = enumerate_labels(nat2, 2)
    a = twist(alg, labs[1])
    c = twist(alg, labs[2])
    b = direct_sum([a, c])
    field = alg.field
    import monostack.fields as F

    inj_blocks = {}
    proj_blocks = {}
    for lab in b.dims:
        da, dc = a.dim(lab), c.dim(lab)
        if da:
            rows = []
            for r in range(da + dc):
                row = [field.zero] * da
                if r < da:
                    row[r] = field.one
                rows.append(tuple(row))
            inj_blocks[lab] = tuple(rows)
        if dc:
            rows = []
            for r in range(dc):
                row = [field.zero] * (da + dc)
                row[da + r] = field.one
                rows.append(tuple(row))
            proj_blocks[lab] = tuple(rows)
    inj = GradedMap(a, b, inj_blocks)
    proj = GradedMap(b, c, proj_blocks)
    ses = ShortExactSequence(inject=inj, project=proj)
    assert is_exact_sequence(ses)
    for m in (1, 2):
        assert check_exactness(ses, m)


def test_random_ses_pushforward_exact(nat, nat2, nonsimplicial):
    rng = random.Random(17)
    cases = [(nat, 4), (nat2, 2), (nat2, 3), (nonsimplicial, 2)]
    for pres, n in cases:
        alg = graded_algebra(pres, n)
        for _ in range(4):
            ker, mid, img, kincl, proj = random_ses(alg, rng)
            ses = ShortExactSequence(inject=kincl, project=proj)
            assert is_exact_sequence(ses)
            for m in (d for d in (1, 2, n) if n % d == 0):
                assert check_exactness(ses, m)


def test_corrupted_sequence_rejected(nat2):
    alg = graded_algebra(nat2, 2)
    rng = random.Random(3)
    ker, mid, img, kincl, proj = random_ses(alg, rng)
    # zero a surjective block: the sequence stops being exact there
    lab = next(lab for lab in mid.dims if img.dim(lab))
    bad_blocks = dict(proj.blocks)
    bad_blocks[lab] = tuple(
        tuple(alg.field.zero for _ in range(mid.dim(lab)))
        for _ in range(img.dim(lab))
    )
    bad = GradedMap(mid, img, bad_blocks, check=False)
    ses = ShortExactSequence(inject=kincl, project=bad)
    with pytest.raises(NotExactInput):
        check_exactness(ses, 1)


# -- tensor and projection formula ----------------------------------------------


def test_tensor_of_twists_matches_twist_of_sum(nat, nat2):
    for pres, n in ((nat, 3), (nat2, 2)):
        alg = graded_algebra(pres, n)
        labs = enumerate_labels(pres, n)
        for lam in labs[:3]:
            for mu in labs[:3]:
                t, _ = tensor(twist(alg, lam), twist(alg, mu))
                expected = twist(alg, label_add(lam, mu))
                assert t.dims == expected.dims


def test_tensor_algebra_mismatch(nat, nat2):
    a1 = graded_algebra(nat, 2)
    a2 = graded_algebra(nat2, 2)
    with pytest.raises(AlgebraMismatch):
        tensor(algebra_as_module(a1), algebra_as_module(a2))


def test_tensor_with_free_rank_one_is_identity(nat2):
    alg = graded_algebra(nat2, 2)
    r = algebra_as_module(alg)
    rng = random.Random(5)
    m = random_module(alg, rng)
    t, _ = tensor(m, r)
    assert {lab: d for lab, d in t.dims.items()} == m.dims


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
def test_tensor_embed_lands_moves_and_spans(nat, nat2, field):
    """`embed(lam, i, mu, j)`, the class of e_i (x) e_j, sits at lam + mu;
    x^g acts on it as on the left factor, by sum_i' (X_g)_i'i embed(lam +
    g, i', mu, j); and the pure tensors span every component of the product."""
    from monostack.fields import rank

    def apply(mat, vec):
        return tuple(field.norm(sum(a * b for a, b in zip(row, vec))) for row in mat)

    rng = random.Random(13)
    for pres, level in ((nat, 3), (nat2, 2)):
        alg = graded_algebra(pres, level, field)
        for _ in range(3):
            m, n = random_module(alg, rng), random_module(alg, rng)
            t, embed = tensor(m, n)
            spans = {}
            for (lam, dm), (mu, dn) in itertools.product(m.dims.items(), n.dims.items()):
                for i, j in itertools.product(range(dm), range(dn)):
                    nu, vec = embed(lam, i, mu, j)
                    assert nu == label_add(lam, mu)
                    spans.setdefault(nu, []).append(vec)
                    for g in alg.generators:
                        up, x = label_add(lam, alg.label_of(g)), m.gen_matrix(g, lam)
                        want = [field.zero] * t.dim(label_add(nu, alg.label_of(g)))
                        for i2 in range(m.dim(up)):
                            if x[i2][i]:
                                want = [field.norm(w + x[i2][i] * u) for w, u in zip(want, embed(up, i2, mu, j)[1])]
                        assert apply(t.gen_matrix(g, nu), vec) == tuple(want)
            assert set(t.dims) <= set(spans)
            assert {nu: rank(field, vecs) for nu, vecs in spans.items()} == {nu: t.dim(nu) for nu in spans}


def test_projection_formula_instances(nat, nat2, nonsimplicial):
    rng = random.Random(29)
    for pres, n in ((nat, 3), (nat2, 2), (nonsimplicial, 2)):
        alg = graded_algebra(pres, n)
        for dim0 in (1, 2, 3):
            assert projection_formula_check(dim0, random_module(alg, rng))
        assert unit_map_check(2, alg)


def test_projection_formula_free_rank_one_reduces_to_degree_zero(nat2):
    alg = graded_algebra(nat2, 2)
    lam = enumerate_labels(nat2, 2)[1]
    t = twist(alg, lam)
    assert projection_formula_check(1, t)
    assert degree_zero_part(t, 1).total_dim == 1 * degree_zero_part(t, 1).total_dim


def test_prime_field_module_roundtrip(nat):
    f5 = PrimeField(5)
    alg = graded_algebra(nat, 2, f5)
    r = algebra_as_module(alg)
    r.validate()
    t, _ = tensor(r, r)
    assert t.dims == r.dims


# -- monomial ideals -------------------------------------------------------------


def test_whole_monoid_ideal_min_generators(nat2):
    ideal = MonoidIdeal(nat2, 2, generators=[fr(0, 0)])
    assert ideal_min_generators(ideal) == [fr(0, 0)]


def test_principal_ideal_stays_principal(nat2):
    for n in (1, 2, 3):
        ideal = MonoidIdeal(nat2, n, generators=[fr(1, 0)])
        assert ideal_min_generators(ideal) == [fr(1, 0)]


def test_colon_ideal_matches_inequalities(nonsimplicial):
    """c + e1 - e3 in the cone tightens exactly one facet: a2 + a3 >= 1."""
    ideal = colon_degree_ideal(nonsimplicial, 1, fr(1, 0, 0), fr(0, 0, 1))
    for x in range(-1, 4):
        for y in range(-1, 4):
            for z in range(-3, 4):
                c = (x, y, z)
                expected = (
                    x >= 0 and y >= 0 and x + z >= 0 and y + z >= 1
                )
                assert ideal.contains(c) == expected


def test_colon_ideal_trivial_pair(nat2, nonsimplicial):
    for pres in (nat2, nonsimplicial):
        a = pres.rational_generators[0]
        ideal = colon_degree_ideal(pres, 2, a, a)
        gens = ideal_min_generators(ideal)
        assert gens == [fr(*([0] * pres.ambient_rank))]


def test_colon_ideal_quadrant(nat2):
    ideal = colon_degree_ideal(nat2, 1, fr(1, 0), fr(0, 1))
    assert ideal_min_generators(ideal) == [fr(0, 1)]
    for n in (1, 2, 3, 4):
        idn = colon_degree_ideal(nat2, n, fr(1, 0), fr(0, 1))
        assert len(ideal_min_generators(idn)) == 1


def test_coherence_probe_nonsimplicial_grows(nonsimplicial):
    rows = coherence_probe(nonsimplicial, fr(1, 0, 0), fr(0, 0, 1), [1, 2, 3, 4])
    counts = [r["min_gens"] for r in rows]
    assert counts == [2, 3, 4, 5]
    for r in rows:
        n = r["n"]
        # the boundary slice {(0, t, 1 - t)} carries n + 1 lattice points,
        # all of which must appear among the minimal generators
        slice_pts = [
            (Fraction(0), Fraction(k, n), 1 - Fraction(k, n)) for k in range(n + 1)
        ]
        for p in slice_pts:
            assert p in r["generators"]


def test_coherence_probe_quadrant_constant(nat2):
    rows = coherence_probe(nat2, fr(1, 0), fr(0, 1), [1, 2, 3, 4])
    assert [r["min_gens"] for r in rows] == [1, 1, 1, 1]


@pytest.mark.parametrize("name", ["N2", "cone", "index2"])
def test_colon_min_generators_match_membership_oracle(name, nat2, nonsimplicial):
    """The facet-value minimality test agrees with x in I and x - h not in I."""
    pres = {
        "N2": nat2,
        "cone": nonsimplicial,
        "index2": saturate(validate([(2, 0), (1, 1), (0, 2)])),
    }[name]
    rng = random.Random(7)
    for n in (1, 2) if name == "cone" else (1, 2, 3):
        small = monoid_points(pres, n, 2)
        for _ in range(2):
            ideal = colon_degree_ideal(pres, n, rng.choice(small), rng.choice(small))
            assert ideal_min_generators(ideal) == ideal_min_generators_oracle(ideal)


def test_coherence_probe_makes_no_lattice_coordinate_calls(monkeypatch):
    """Group membership on the cone and on N^2 (both Z^d) costs nothing."""
    from monostack import kummer, lattice

    calls = []
    original = lattice.lattice_coords_int

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(lattice, "lattice_coords_int", counted)
    monkeypatch.setattr(kummer, "lattice_coords_int", counted)
    cone = validate([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
    coherence_probe(cone, fr(1, 0, 0), fr(0, 0, 1), [1, 2, 3])
    coherence_probe(validate([(1, 0), (0, 1)]), fr(1, 0), fr(0, 1), [1, 2, 3])
    assert len(calls) == 0


def _recursive_decompose(alg, gamma, memo):
    """The recursive definition of `GradedAlgebra.decompose`, on its own memo."""
    if gamma in memo:
        return memo[gamma]
    for g in alg.generators:
        rest = vsub(gamma, g)
        if contains_at_level(alg.monoid, alg.level, unscale(rest, alg.scale)):
            tail = _recursive_decompose(alg, rest, memo)
            if tail is not None:
                memo[gamma] = (g,) + tail
                return memo[gamma]
    memo[gamma] = None
    return None


def test_decompose_matches_recursive_definition(nonsimplicial):
    """Same decompositions and the same memo entries as the recursion."""
    for n in (2, 3):
        alg = GradedAlgebra(nonsimplicial, n)
        memo = dict(alg._decomp_memo)
        points = list(alg.basis) + [vadd(g, h) for g in alg.generators for h in alg.generators]
        points.append(scale_to_ints(fr(-1, 0, 0), alg.scale))
        for p in points:
            assert alg.decompose(p) == _recursive_decompose(alg, p, memo)
        assert alg._decomp_memo == memo


def test_decompose_long_chain_without_recursion():
    """1199/1200 in N is 1199 generators deep; a fresh algebra has a cold memo."""
    alg = GradedAlgebra(validate([(1,)]), 1200)
    assert alg.decompose((1199,)) == ((1,),) * 1199


def test_a0_obstruction(nonsimplicial):
    """a + b in the boundary slice forces a = 0, for monoid points a."""
    ell = nonsimplicial.positive_functional
    for n in (1, 2, 3):
        slice_pts = [
            (Fraction(0), Fraction(k, n), 1 - Fraction(k, n)) for k in range(n + 1)
        ]
        spread = max(dot(ell, b) for b in slice_pts) - min(
            dot(ell, b) for b in slice_pts
        )
        for a in monoid_points(nonsimplicial, n, spread + 1):
            for b in slice_pts:
                if vadd(a, b) in slice_pts:
                    assert all(x == 0 for x in a)


def test_region_too_small_raises(nonsimplicial):
    ideal = colon_degree_ideal(
        nonsimplicial, 1, fr(1, 0, 0), fr(0, 0, 1)
    )
    ideal.bound = Fraction(5, 2)
    with pytest.raises(RegionTooSmall):
        ideal_min_generators(ideal)


@pytest.mark.parametrize(
    "gens, generator, colon",
    [
        ([(1, 0), (0, 1)], (Fraction(1, 2), 3), ((1, 0), (0, 1))),
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], (0, Fraction(1, 2), 2), ((1, 0, 0), (0, 0, 1))),
        ([(2, 0), (1, 1), (0, 2)], (Fraction(1, 2), Fraction(1, 2)), ((2, 0), (1, 1))),
    ],
    ids=["N2", "cone", "index2"],
)
def test_bound_below_certified_raises_and_at_certified_is_the_default(gens, generator, colon):
    """One step of (1/n)P below the certified bound is refused before any
    walk; the certified bound itself gives the default answer."""
    pres = validate(gens)
    n = 2
    for make in (
        lambda bound: MonoidIdeal(pres, n, generators=[generator], bound=bound),
        lambda bound: colon_degree_ideal(pres, n, *colon, bound=bound),
    ):
        default = make(None)
        certified = default.certified_bound
        with pytest.raises(RegionTooSmall, match="below the certified bound"):
            ideal_min_generators(make(certified - Fraction(1, n * pres.denominator)))
        assert ideal_min_generators(make(certified)) == ideal_min_generators(default)


def test_ideal_without_generators_is_refused(nat2):
    """The certified bound needs a generator or a colon pair to start from."""
    with pytest.raises(ValueError, match="needs generators"):
        MonoidIdeal(nat2, 1, generators=[])


def test_contains_at_level(nat2):
    assert contains_at_level(nat2, 2, (Fraction(1, 2), Fraction(3, 2)))
    assert not contains_at_level(nat2, 2, (Fraction(1, 3), Fraction(0)))
    assert not contains_at_level(nat2, 2, (Fraction(-1, 2), Fraction(0)))


def test_projection_formula_plane_times_twist(nat2):
    """A two-dimensional trivial module against a twist: both sides have
    twice the twist's degree-zero dimension."""
    alg = graded_algebra(nat2, 2)
    for lam in enumerate_labels(nat2, 2):
        t = twist(alg, lam)
        d0 = degree_zero_part(t, 1).total_dim
        from monostack.graded import base_tensor

        both = degree_zero_part(base_tensor(2, t), 1).total_dim
        assert both == 2 * d0
        assert projection_formula_check(2, t)


# -- graded maps ----------------------------------------------------------------

MAP_FIELDS = [QQ, PrimeField(2), PrimeField(3)]


def _two_copies(nat, field):
    """Two copies of R(0) on N at level 3: dimension 2 at each of the labels 0, 1/3, 2/3."""
    r = algebra_as_module(graded_algebra(nat, 3, field))
    return direct_sum([r, r])


@pytest.mark.parametrize("field", MAP_FIELDS, ids=["Q", "F2", "F3"])
@pytest.mark.parametrize("check", [True, False])
def test_map_blocks_of_a_wrong_shape_are_refused(nat, field, check):
    """A block must be target dim x source dim, with or without the check:
    one column too many, one row too many, a ragged row and a row-less
    block on a 2-dim component are each refused."""
    m = _two_copies(nat, field)
    lab = m.algebra.zero_label
    one, zero = field.one, field.zero
    for bad in (((one, zero, zero), (zero, one, zero)), ((one, zero), (zero, one), (zero, zero)), ((one, zero), (one,)), ()):
        with pytest.raises(ValueError, match=r"map block at rep 0 has a wrong shape"):
            GradedMap(m, m, {lab: bad}, check=check)


@pytest.mark.parametrize("field", MAP_FIELDS, ids=["Q", "F2", "F3"])
def test_map_entries_are_brought_into_the_field(nat, field):
    """Each block entry is stored in normal form: (p+1)*I is the identity
    over GF(p), and over QQ an I of `Fraction(1)` entries holds ints."""
    from monostack.parabolic import is_identity

    m = _two_copies(nat, field)
    one = field.p + 1 if field.p else Fraction(1)
    f = GradedMap(m, m, {lab: ((one, 0), (0, one)) for lab in m.dims})
    assert {type(x) for mat in f.blocks.values() for row in mat for x in row} == {int}
    assert is_identity(f) and f.is_isomorphism()


@pytest.mark.parametrize("field", MAP_FIELDS, ids=["Q", "F2", "F3"])
def test_kernel_and_image_of_a_non_commuting_map_are_refused(nat, field):
    """A map that does not commute with the action, given unchecked: its
    kernel and image are not action-stable, and both say so, where the
    kernel's moved vector leaves a target span that is present (e_2 at
    label 0 moves to e_2 at 1/3, whose kernel is spanned by e_1)."""
    m = _two_copies(nat, field)
    labels = m.algebra.labels
    one, zero = field.one, field.zero
    blocks = {labels[0]: ((one, zero), (zero, zero)), labels[1]: ((zero, zero), (zero, one)), labels[2]: ((one, zero), (zero, one))}
    f = GradedMap(m, m, blocks, check=False)
    assert not f.commutes()
    with pytest.raises(ValueError, match="^kernel is not action-stable$"):
        kernel(f)
    with pytest.raises(ValueError, match="^image is not action-stable$"):
        image(f)

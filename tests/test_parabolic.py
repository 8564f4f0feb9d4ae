import random
from fractions import Fraction

import pytest

from helpers import dense_act, random_module
from monostack.errors import LevelMismatch, NotADivisor, NotAMultiple
from monostack.fields import QQ
from monostack.graded import (
    GradedModule,
    ShortExactSequence,
    algebra_as_module,
    cokernel,
    degree_zero_part,
    direct_sum,
    graded_algebra,
    is_exact_sequence,
    kernel,
    twist,
)
from monostack.infquot import divisors, in_delta
from monostack.kummer import coset_label, enumerate_labels, label_add, label_scale, zero_label
from monostack.lattice import unscale, vadd
from monostack.monoid import validate
from monostack.parabolic import (
    ParabolicSheaf,
    _induce_with_data,
    compose,
    counit_map,
    from_graded,
    hom_space,
    induce,
    induce_parabolic_map,
    is_identity,
    is_induced_from,
    minimal_inducing_level,
    restrict,
    restrict_parabolic_map,
    to_graded,
    unit_map,
)


def integral_skyscraper(pres, level, dim=1):
    """The weight-integral example: one space at the zero class, zero maps."""
    return ParabolicSheaf(pres, level, QQ, {zero_label(pres, level): dim}, {})


def random_sheaf(algebra, rng):
    return from_graded(random_module(algebra, rng))


# -- basic structure -------------------------------------------------------------


def test_zero_law_enforced(nat):
    one = (1,)  # the generator 1 of N, in the int coordinates of level 1
    with pytest.raises(ValueError):
        ParabolicSheaf(
            nat, 1, QQ, {zero_label(nat, 1): 1}, {(one, zero_label(nat, 1)): ((Fraction(1),),)}
        )
    # the zero matrix for a non-Delta generator is fine
    sheaf = ParabolicSheaf(
        nat, 1, QQ, {zero_label(nat, 1): 1}, {(one, zero_label(nat, 1)): ((Fraction(0),),)}
    )
    assert sheaf.total_dim == 1


def test_structure_matrices_zero_off_delta(nat, nonsimplicial):
    rng = random.Random(2)
    for pres, n in ((nat, 2), (nonsimplicial, 2)):
        alg = graded_algebra(pres, n)
        sheaf = random_sheaf(alg, rng)
        for u in sheaf.algebra.generators:
            for lab in sheaf.dims:
                mat = sheaf.gen_matrix(u, lab)
                if not in_delta(pres, unscale(u, alg.scale)):
                    assert all(all(x == 0 for x in row) for row in mat)


def test_integral_composites_vanish(nat2):
    """Any composite whose total weight gain is integral nonzero is zero."""
    alg = graded_algebra(nat2, 2)
    rng = random.Random(9)
    sheaf = random_sheaf(alg, rng)
    mod = to_graded(sheaf)
    for a in alg.basis:
        for b in alg.basis:
            s = unscale(vadd(a, b), alg.scale)
            if any(x != 0 for x in s) and all(x.denominator == 1 for x in s):
                for i in mod.support:
                    mid = alg.target(a, i)
                    import monostack.fields as F

                    comp = F.mat_mul_dims(
                        QQ,
                        dense_act(mod, b, mid),
                        dense_act(mod, a, i),
                        mod.sizes[alg.target(b, mid)],
                        mod.sizes[mid],
                        mod.sizes[i],
                    )
                    assert F.mat_eq_zero(comp)


# -- conversion functors -----------------------------------------------------------


def test_roundtrip_on_twists(nat, nat2, nonsimplicial):
    for pres in (nat, nat2, nonsimplicial):
        for n in (1, 2, 3):
            alg = graded_algebra(pres, n)
            for lam in enumerate_labels(pres, n):
                mod = twist(alg, lam)
                sheaf = from_graded(mod)
                back = to_graded(sheaf)
                assert back.dims == mod.dims
                for g in alg.generators:
                    for lab in mod.dims:
                        assert back.gen_matrix(g, lab) == mod.gen_matrix(g, lab)
                again = from_graded(back)
                assert again == sheaf


def test_roundtrip_on_random_modules(nat, nat2, nonsimplicial):
    rng = random.Random(77)
    done = 0
    cases = [(nat, 3), (nat2, 2), (nat2, 3), (nonsimplicial, 2)]
    while done < 20:
        pres, n = cases[done % len(cases)]
        alg = graded_algebra(pres, n)
        mod = random_module(alg, rng)
        sheaf = from_graded(mod)
        back = to_graded(sheaf)
        assert back.dims == mod.dims
        for g in alg.generators:
            for lab in mod.dims:
                assert back.gen_matrix(g, lab) == mod.gen_matrix(g, lab)
        done += 1


def test_from_graded_reconstruction_via_constructor(nat2):
    """Building a sheaf from explicit components and structure matrices
    reproduces the module it came from."""
    alg = graded_algebra(nat2, 2)
    lam = enumerate_labels(nat2, 2)[3]
    mod = twist(alg, lam)
    comps = dict(mod.dims)
    structure = {}
    for u in alg.generators:
        for lab in mod.dims:
            structure[(u, lab)] = mod.gen_matrix(u, lab)
    sheaf = ParabolicSheaf(nat2, 2, QQ, comps, structure)
    assert to_graded(sheaf).dims == mod.dims


# -- restriction ------------------------------------------------------------------


def test_restrict_identity_at_own_level(nat):
    e = integral_skyscraper(nat, 4)
    r = restrict(e, 4)
    assert r.dims == e.dims


def test_restrict_weight_integral_example(nat):
    e = integral_skyscraper(nat, 4)
    r = restrict(e, 2)
    assert {lab.residues: d for lab, d in r.dims.items()} == {(0,): 1}
    r1 = restrict(e, 1)
    assert r1.total_dim == 1


def test_restrict_requires_divisor(nat):
    with pytest.raises(NotADivisor):
        restrict(integral_skyscraper(nat, 4), 3)


def test_restrict_after_induce_is_identity_random(nat, nat2):
    rng = random.Random(13)
    for pres, m, n in ((nat, 2, 4), (nat, 1, 3), (nat2, 1, 2), (nat2, 2, 4)):
        alg = graded_algebra(pres, m)
        for _ in range(3):
            sheaf = random_sheaf(alg, rng)
            eta = unit_map(sheaf, n)
            assert eta.is_isomorphism()


# -- induction ---------------------------------------------------------------------


def test_induce_requires_multiple(nat):
    with pytest.raises(NotAMultiple):
        induce(integral_skyscraper(nat, 4), 6)


def test_induce_line_from_level_one(nat):
    alg1 = graded_algebra(nat, 1)
    line = from_graded(algebra_as_module(alg1))
    ind = induce(line, 2)
    dims = {lab.residues: d for lab, d in ind.dims.items()}
    assert dims == {(0,): 1, (1,): 1}
    # the structure map from weight 0 to weight 1/2 is an isomorphism
    mat = ind.gen_matrix((1,), zero_label(nat, 2))
    assert mat == ((Fraction(1),),)


def test_induce_weight_integral_example_differs(nat):
    e = integral_skyscraper(nat, 4)
    back = induce(restrict(e, 2), 4)
    quarter = coset_label(nat, 4, (Fraction(1, 4),))
    assert back.dim(quarter) == 1
    assert e.dim(quarter) == 0
    eps = counit_map(e, 2)
    assert not eps.is_isomorphism()


def test_is_induced_from_examples(nat):
    e = integral_skyscraper(nat, 4)
    assert not is_induced_from(e, 1)
    assert not is_induced_from(e, 2)
    assert is_induced_from(e, 4)
    assert minimal_inducing_level(e) == 4
    alg4 = graded_algebra(nat, 4)
    lam = coset_label(nat, 4, (Fraction(1, 2),))
    tw = from_graded(twist(alg4, lam))
    assert is_induced_from(tw, 2)
    assert is_induced_from(tw, 4)
    assert not is_induced_from(tw, 1)


def test_induced_sheaves_always_pass(nat, nat2):
    rng = random.Random(31)
    for pres, m, n in ((nat, 2, 4), (nat2, 1, 2), (nat2, 2, 4), (nat, 3, 6)):
        alg = graded_algebra(pres, m)
        sheaf = random_sheaf(alg, rng)
        ind = induce(sheaf, n)
        assert is_induced_from(ind, m)


def test_is_induced_from_monotone_in_divisors(nat, nat2):
    rng = random.Random(41)
    for pres, n in ((nat, 4), (nat2, 4), (nat, 6)):
        alg = graded_algebra(pres, n)
        for _ in range(4):
            sheaf = random_sheaf(alg, rng)
            good = [d for d in divisors(n) if is_induced_from(sheaf, d)]
            for d in good:
                for mult in divisors(n):
                    if mult % d == 0:
                        assert is_induced_from(sheaf, mult)


# -- the adjunction -----------------------------------------------------------------


def test_adjunction_dimension_identity(nat, nat2):
    rng = random.Random(53)
    cases = [(nat, 2, 4), (nat, 1, 3), (nat2, 1, 2), (nat2, 2, 4)]
    done = 0
    while done < 20:
        pres, m, n = cases[done % len(cases)]
        alg_m = graded_algebra(pres, m)
        alg_n = graded_algebra(pres, n)
        small = random_sheaf(alg_m, rng)
        big = random_sheaf(alg_n, rng)
        lhs, _ = hom_space(induce(small, n), big)
        rhs, _ = hom_space(small, restrict(big, m))
        assert lhs == rhs, (pres.generators, m, n, lhs, rhs)
        done += 1


def test_adjunction_at_level_six_on_the_cone(nonsimplicial):
    """dim Hom(ind E, F) = dim Hom(E, res F) for E the cone's three-twist
    module at level 2 (labels 1, 3 and 5) and F = ind E at level 6; both
    are 9.  The left side is a hom space between two 858-dimensional
    modules, which only sparse elimination makes affordable here."""
    alg = graded_algebra(nonsimplicial, 2)
    small = from_graded(direct_sum([twist(alg, alg.labels[i]) for i in (1, 3, 5)]))
    big = induce(small, 6)
    assert big.total_dim == 858
    lhs, maps = hom_space(big, big)
    rhs, _ = hom_space(small, restrict(big, 2))
    assert lhs == rhs == 9
    assert all(f.commutes() for f in maps)


def test_triangle_identities_random(nat, nat2):
    rng = random.Random(67)
    cases = [(nat, 2, 4), (nat2, 1, 2), (nat, 3, 6), (nat2, 2, 4)]
    done = 0
    while done < 8:
        pres, m, n = cases[done % len(cases)]
        alg_m = graded_algebra(pres, m)
        small = random_sheaf(alg_m, rng)
        ind = _induce_with_data(small, n)
        ind_sheaf = ind[0]
        eta = unit_map(small, n, ind=ind)
        ind_eta = induce_parabolic_map(eta, n, src_ind=ind)
        eps_on_ind = counit_map(ind_sheaf, m)
        assert is_identity(compose(eps_on_ind, ind_eta))

        alg_n = graded_algebra(pres, n)
        big = random_sheaf(alg_n, rng)
        eps = counit_map(big, m)
        res_eps = restrict_parabolic_map(eps, m)
        eta_res = unit_map(restrict(big, m), n)
        assert is_identity(compose(res_eps, eta_res))
        done += 1


# -- hom spaces and abelian structure ------------------------------------------------


def test_hom_simple_sheaf(nat):
    e = integral_skyscraper(nat, 2)
    dim, maps = hom_space(e, e)
    assert dim == 1
    assert maps[0].block(zero_label(nat, 2)) == ((Fraction(1),),)


def test_hom_between_twists_counts_degree_component(nat, nat2):
    from monostack.infquot import delta_points

    for pres, n in ((nat, 4), (nat2, 2)):
        alg = graded_algebra(pres, n)
        ds = delta_points(pres, n)
        labs = enumerate_labels(pres, n)
        for lam in labs[:3]:
            for mu in labs[:3]:
                s1 = from_graded(twist(alg, lam))
                s2 = from_graded(twist(alg, mu))
                dim, _ = hom_space(s1, s2)
                diff = label_add(mu, label_scale(-1, lam))
                assert dim == len(ds.points_in_class(diff))


def test_hom_level_mismatch(nat):
    a = integral_skyscraper(nat, 2)
    b = integral_skyscraper(nat, 4)
    with pytest.raises(LevelMismatch):
        hom_space(a, b)


def test_kernel_cokernel_give_exact_graded_sequences(nat2):
    rng = random.Random(3)
    alg = graded_algebra(nat2, 2)
    for _ in range(5):
        src = random_sheaf(alg, rng)
        tgt = random_sheaf(alg, rng)
        dim, maps = hom_space(src, tgt)
        if not maps:
            continue
        f = maps[rng.randrange(len(maps))]
        ker, incl = kernel(f)
        coker, proj = cokernel(f)
        # componentwise rank bookkeeping
        for lab in set(src.dims) | set(tgt.dims):
            import monostack.fields as F

            rk = F.rank(QQ, f.block(lab))
            assert ker.dim(lab) == src.dim(lab) - rk
            assert coker.dim(lab) == tgt.dim(lab) - rk
        # to_graded preserves kernels: 0 -> ker -> src -> im is exact
        from monostack.graded import image as gimage, corestrict_to_image

        img, ginc = gimage(f)
        proj_graded = corestrict_to_image(f, img, ginc)
        ses = ShortExactSequence(inject=incl, project=proj_graded)
        assert is_exact_sequence(ses)


def test_equivalence_is_exact(nat2):
    """to_graded sends parabolic kernels to graded kernels on the nose."""
    rng = random.Random(19)
    alg = graded_algebra(nat2, 2)
    src = random_sheaf(alg, rng)
    tgt = random_sheaf(alg, rng)
    _, maps = hom_space(src, tgt)
    if maps:
        f = maps[0]
        ker, _ = kernel(f)
        from monostack.graded import kernel as gkernel

        gker, _ = gkernel(f)
        assert to_graded(ker).dims == gker.dims


def test_zero_sheaf_roundtrip(nat):
    alg = graded_algebra(nat, 2)
    z = GradedModule(alg, {}, {}, check=False)
    sheaf = from_graded(z)
    assert sheaf.total_dim == 0
    assert to_graded(sheaf).dims == {}


def test_level_one_line_matches_base_module(nat):
    """One space at the only level-1 class corresponds to the module k
    living in degree zero with the positive generator acting by zero."""
    sheaf = integral_skyscraper(nat, 1)
    mod = to_graded(sheaf)
    assert mod.total_dim == 1
    one = (Fraction(1),)
    assert sheaf.gen_matrix(one, zero_label(nat, 1)) == ((Fraction(0),),)


def test_induction_computes_each_label_once(nat2, monkeypatch):
    """Inducing an N^2 level-2 sheaf to level 6 labels each Delta point and
    each generator at most once per algebra."""
    import monostack.graded as graded_mod
    import monostack.infquot as infquot_mod
    import monostack.kummer as kummer_mod
    from monostack.graded import direct_sum, graded_algebra, twist
    from monostack.infquot import delta_points

    original = kummer_mod.scaled_label
    calls = {}

    def counting(pres, n, y):
        calls[n] = calls.get(n, 0) + 1
        return original(pres, n, y)

    for mod in (kummer_mod, graded_mod, infquot_mod):
        monkeypatch.setattr(mod, "scaled_label", counting)
    delta_points.cache_clear()
    graded_algebra.cache_clear()
    alg2 = graded_algebra(nat2, 2)
    sheaf = from_graded(direct_sum([twist(alg2, lab) for lab in alg2.labels[:2]]))
    induced = induce(sheaf, 6)
    assert induced.level == 6 and induced.total_dim > 0
    for n in (2, 6):
        alg = graded_algebra(nat2, n)
        assert 0 < calls.get(n, 0) <= len(alg.basis) + len(alg.generators), (n, calls)
    assert set(calls) == {2, 6}


def test_induction_files_relations_in_one_pass(nat2, monkeypatch):
    """Inducing an N^2 level-2 sheaf to level 6 files each relation under its
    label once, instead of scanning every relation for every target label."""
    import monostack.graded as graded_mod
    import monostack.kummer as kummer_mod
    import monostack.parabolic as parabolic_mod
    from monostack.graded import direct_sum, twist

    alg2 = graded_algebra(nat2, 2)
    sheaf = from_graded(direct_sum([twist(alg2, lab) for lab in alg2.labels[:2]]))
    original = kummer_mod.label_add
    calls = []

    def counting(a, b):
        calls.append(1)
        return original(a, b)

    # graded files its generators by label index and binds no label_add
    assert not hasattr(graded_mod, "label_add")
    for mod in (kummer_mod, parabolic_mod):
        monkeypatch.setattr(mod, "label_add", counting)
    induced = induce(sheaf, 6)
    assert induced.total_dim > 0
    assert len(calls) <= 1000, len(calls)


def test_sheaf_operations_return_graded_modules_and_maps(nat2):
    """A parabolic sheaf is a graded module: the functors take and return
    GradedModule and GradedMap, with no wrapper in between."""
    from monostack.graded import GradedMap, GradedModule

    alg = graded_algebra(nat2, 2)
    sheaf = from_graded(twist(alg, alg.labels[1]))
    assert from_graded(sheaf) is sheaf and to_graded(sheaf) is sheaf
    for module in (induce(sheaf, 4), restrict(sheaf, 1), ParabolicSheaf(nat2, 2, QQ, sheaf.dims, {})):
        assert type(module) is GradedModule
    _, maps = hom_space(sheaf, sheaf)
    coker, proj = cokernel(maps[0])
    assert type(coker) is GradedModule and type(proj) is GradedMap
    assert all(type(f) is GradedMap for f in maps)
    assert type(counit_map(sheaf, 1)) is GradedMap
    assert (sheaf.monoid, sheaf.level, sheaf.field) == (nat2, 2, QQ)

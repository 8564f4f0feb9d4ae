"""The sparse map layer of `graded` against the dense reference in `helpers`.

Kernels, images, cokernels, corestrictions, composites, injectivity and
exactness are computed on `GradedMap`'s sparse operators; the reference
computes them from the dense `block`s by `fields.nullspace`, pivot
columns, `fields.solve`, `fields.mat_mul` and `fields.rank`.  Every dense
view must agree entry for entry and in type.  The maps are seeded
combinations of `hom_space` bases between seeded modules (kernels and
images among them, so some components are missing), zero maps, maps into
a zero module, and maps whose blocks share one operator.
"""

import random

import pytest

from helpers import (
    dense_cokernel,
    dense_compose,
    dense_corestrict,
    dense_image,
    dense_is_exact,
    dense_is_injective,
    dense_kernel,
    random_graded_map,
    random_module,
    same_dense,
)
from monostack.fields import QQ, PrimeField
from monostack.graded import (
    GradedMap,
    GradedModule,
    ShortExactSequence,
    algebra_as_module,
    cokernel,
    compose_maps,
    corestrict_to_image,
    direct_sum,
    graded_algebra,
    image,
    is_exact_sequence,
    kernel,
)

FIELDS = [QQ, PrimeField(2), PrimeField(3)]


def _maps(pres, level, field, seed):
    """Seeded maps over the level-`level` algebra of `pres`."""
    alg = graded_algebra(pres, level, field)
    rng = random.Random(seed)
    zero = GradedModule._of(alg, {}, {})
    maps = []
    for _ in range(5):
        m, n = random_module(alg, rng), random_module(alg, rng)
        f = random_graded_map(m, n, rng)
        maps += [f, GradedMap(m, n, {}), GradedMap(m, zero, {})]
        # out of and into modules with missing components
        for sub in (image(f)[0], kernel(f)[0]):
            maps += [random_graded_map(sub, n, rng), random_graded_map(m, sub, rng)]
    # two copies of R(0): the identity and the swap put one shared operator at every label
    r = algebra_as_module(alg)
    two = direct_sum([r, r])
    one = field.one
    for block in (((one, 0), (0, one)), ((0, one), (one, 0))):
        shape = {lab: tuple(row[:d] for row in block[:d]) for lab, d in two.dims.items()}
        maps.append(GradedMap(two, two, shape))
    return maps


CASES = [
    pytest.param((pres, level, field), id=f"{name}-{field!r}")
    for name, pres, level in (("N", "nat", 3), ("N2", "nat2", 2))
    for field in FIELDS
]


@pytest.fixture
def maps(request, nat, nat2):
    pres, level, field = request.param
    return _maps({"nat": nat, "nat2": nat2}[pres], level, field, seed=7)


@pytest.mark.parametrize("maps", CASES, indirect=True)
def test_kernel_image_cokernel_match_the_dense_route(maps):
    for f in maps:
        for (sub, incl), ref in ((kernel(f), dense_kernel(f)), (image(f), dense_image(f))):
            assert same_dense((sub.dims, sub.gen_action, incl.blocks), ref)
        coker, proj = cokernel(f)
        dims, action, blocks = dense_cokernel(f)
        assert same_dense((coker.dims, coker.gen_action), (dims, action))
        # the projection's dense view covers the whole target, row-less where the cokernel is 0
        assert same_dense(proj.blocks, {lab: blocks[lab] if lab in dims else () for lab in f.target.dims})


@pytest.mark.parametrize("maps", CASES, indirect=True)
def test_corestriction_and_composites_match_the_dense_route(maps):
    rng = random.Random(11)
    for f in maps:
        img, incl = image(f)
        onto = corestrict_to_image(f, img, incl)
        got = {lab: mat for lab, mat in onto.blocks.items() if img.dim(lab)}
        assert same_dense(got, dense_corestrict(f, {lab: incl.block(lab) for lab in img.dims}))
        assert all(mat == () for lab, mat in onto.blocks.items() if not img.dim(lab))
        _, kincl = kernel(f)
        g = random_graded_map(f.target, f.target, rng)
        for outer, inner in ((incl, onto), (f, kincl), (g, f), (g, incl)):
            assert same_dense(compose_maps(outer, inner).blocks, dense_compose(outer, inner))


@pytest.mark.parametrize("maps", CASES, indirect=True)
def test_injectivity_and_exactness_match_the_dense_route(maps):
    verdicts = set()
    for f in maps:
        img, incl = image(f)
        onto = corestrict_to_image(f, img, incl)
        _, kincl = kernel(f)
        _, proj = cokernel(f)
        for h in (f, incl, onto, kincl, proj):
            assert h.is_injective() == dense_is_injective(h)
        for inject, project in ((kincl, onto), (kincl, f), (f, proj), (incl, proj), (onto, proj)):
            got = is_exact_sequence(ShortExactSequence(inject, project))
            assert got == dense_is_exact(inject, project)
            verdicts.add(got)
    assert verdicts == {True, False}

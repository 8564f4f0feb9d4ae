"""The sparse action store of `GradedModule` against the dense constructor.

A module keeps its action as one sparse operator {column: {row: entry}}
per (generator, label index), and the library constructions hand their
stores to `GradedModule._of`, which checks neither the shapes nor the
module law.  So every module built by `twist`, `direct_sum`, a
`Presentation` (`induce`, `cokernel`, `tensor`), `degree_zero_part`,
`kernel` and `image` must equal the module that the public dense
constructor rebuilds from its `gen_action` view, with the law checked,
and must hold only nonzero field elements inside its shapes.  `act`, the
memoised sparse composite along `decompose`, must match the schoolbook
dense composite on every Delta monomial and every label, zero components
and the zero module included.  All of it over QQ, GF(2) and GF(3).
"""

import json
import random
from fractions import Fraction
from itertools import accumulate

import pytest

from helpers import _composite, dense_act, random_graded_map, random_module, random_twist_sum
from monostack import fields, graded, jsonio, parabolic
from monostack.fields import QQ, PrimeField
from monostack.graded import GradedModule, graded_algebra
from monostack.lattice import vadd, vsub

FIELDS = [QQ, PrimeField(2), PrimeField(3)]
FIELD_IDS = ["Q", "F2", "F3"]


def assert_sound_store(module):
    """Every stored entry is a nonzero field element inside the shape, and
    the dense round trip, with the module law checked, gives the module back."""
    alg = module.algebra
    for (g, i), op in module.action.items():
        t = alg.shift[g][i]
        assert g in alg.generators and op
        for c, col in op.items():
            assert 0 <= c < module.sizes[i] and col
            for r, x in col.items():
                assert 0 <= r < module.sizes[t]
                assert x and alg.field.norm(x) == x
    module.validate()
    assert GradedModule(alg, module.dims, module.gen_action) == module


def constructions(monoid, field, seed):
    """(name, module) for every construction that hands a store over."""
    rng = random.Random(seed)
    alg = graded_algebra(monoid, 2, field)
    m, n = random_twist_sum(alg, rng), random_twist_sum(alg, rng, 3)
    f = random_graded_map(m, n, rng)
    ind = parabolic.induce(m, 4)
    yield "twist", graded.twist(alg, alg.labels[-1])
    yield "direct_sum", graded.direct_sum([m, n, m])
    yield "kernel", graded.kernel(f)[0]
    yield "image", graded.image(f)[0]
    yield "cokernel", graded.cokernel(f)[0]
    yield "tensor", graded.tensor(m, n)[0]
    yield "induce", ind
    yield "restrict", parabolic.restrict(ind, 2)
    yield "degree_zero_part", graded.degree_zero_part(ind, 1)
    yield "random", random_module(alg, rng)
    yield "zero", graded.direct_sum([GradedModule(alg, {}, {})] * 2)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_constructions_store_what_the_dense_constructor_stores(nat2, nonsimplicial, field):
    seen = set()
    for monoid, seed in ((nat2, 1), (nat2, 2), (nonsimplicial, 3)):
        for name, module in constructions(monoid, field, seed):
            assert_sound_store(module)
            seen.add(name)
    assert len(seen) == 11


def square(monoid, field):
    """N^2 at level 2, one dimension per label: x^a then x^b out of 0 is 2
    times 2, x^b then x^a is 4 times 1, equal once each product is brought
    into the field (4 = 1 in GF(3)); with its induction to level 4 and
    that one's restriction back."""
    alg = graded_algebra(monoid, 2, field)
    (a, b), zero = alg.generators, alg.zero_label
    two, four = field.of_int(2), field.of_int(4)
    matrices = {(a, zero): two, (b, alg.label_of(a)): two, (b, zero): four, (a, alg.label_of(b)): field.one}
    module = GradedModule(alg, {alg.label_of(y): 1 for y in alg.basis}, {key: ((x,),) for key, x in matrices.items()})
    ind = parabolic.induce(module, 4)
    return [("square", module), ("square induced", ind), ("square restricted", parabolic.restrict(ind, 2))]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_act_is_the_dense_composite_on_every_label(nat2, field):
    """Every Delta monomial out of every label of the algebra, components of
    dimension 0 among them: the twist sums miss labels, the kernels and
    images shrink components to 0, and the zero module has none."""
    zero_components = 0
    for name, module in [*constructions(nat2, field, 4), *square(nat2, field)]:
        alg = module.algebra
        zero_components += sum(not d for d in module.sizes)
        for gamma in alg.basis:
            for i, lab in enumerate(alg.labels):
                assert module.act(gamma, i)[0] == alg.target(gamma, i)
                assert dense_act(module, gamma, i) == _composite(module, gamma, lab), (name, gamma, lab)
    assert zero_components


def test_act_memo_is_per_monomial_and_label(nat2):
    """`act` memoises every proper tail it walks, one entry per (gamma,
    label), and the identity of gamma = 0 not at all."""
    alg = graded_algebra(nat2, 4)
    module = random_twist_sum(alg, random.Random(5))
    zero = (0, 0)
    top = max(alg.basis, key=sum)
    i = module.support[0]
    assert module.act(zero, i) == (i, {c: {c: 1} for c in range(module.sizes[i])})
    module.act(top, i)
    assert (zero, i) not in module._act_memo
    parts = alg.decompose(top)
    assert len(parts) > 2
    assert set(module._act_memo) == {(vsub(top, head), i) for head in accumulate(parts[:-1], vadd, initial=zero)}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_constructor_brings_entries_into_the_field(nat, nat2, field):
    """Entries are stored as field elements: over GF(p) an entry off by a
    multiple of p is its residue and a multiple of p is no entry, over QQ an
    integral Fraction is an int.  So a module read from lifted entries equals
    the module, every zero lift included, and its JSON round trip is the
    identity; over GF(3), x^(1/2) acting by 3 is the zero action."""
    rng = random.Random(7)
    if field.p:
        def lift(x):
            return x + field.p * rng.randint(-2, 2)
    else:
        lift = Fraction
    for seed in range(4):
        alg = graded_algebra(nat2, 2, field)
        module = random_module(alg, random.Random(seed))
        lifts = {(g, lab): tuple(tuple(map(lift, row)) for row in module.gen_matrix(g, lab))
                 for g in alg.generators for lab in module.dims}
        lifted = GradedModule(alg, module.dims, lifts)
        assert lifted == module
        for op in lifted.action.values():
            assert all(type(x) is int or x.denominator > 1 for col in op.values() for x in col.values())
        assert jsonio.graded_from_json(jsonio.graded_to_json(lifted)) == lifted
    alg = graded_algebra(nat, 2, PrimeField(3))
    (g,), zero = alg.generators, alg.zero_label
    dims = {zero: 1, alg.label_of(g): 1}
    threes = GradedModule(alg, dims, {(g, zero): ((3,),)}, check=False)
    assert threes.action == {} and threes == GradedModule(alg, dims, {})
    assert GradedModule(alg, dims, {(g, zero): ((-1,),)}).action == {(g, 0): {0: {0: 2}}}
    assert jsonio.graded_from_json(jsonio.graded_to_json(threes)) == threes


@pytest.mark.parametrize(
    "field, entry, normal", [(PrimeField(3), 4, 1), (PrimeField(3), 3, None), (QQ, Fraction(2, 1), 2)], ids=["F3-4", "F3-3", "Q-2/1"]
)
def test_unit_columns_come_back_in_normal_form(field, entry, normal):
    """A column of B that is 1 at k takes column k of A, and a one-entry
    column of A not in normal form (4 or 3 over GF(3), the integral
    Fraction 2 over QQ) comes back in normal form, or is dropped at 0."""
    got = fields.sparse_compose(field, {0: {1: entry}}, {5: {0: 1}})
    assert got == ({} if normal is None else {5: {1: normal}})
    assert all(type(x) is int for col in got.values() for x in col.values())


@pytest.mark.parametrize("field, entry", [(PrimeField(3), 2), (QQ, Fraction(1, 2)), (QQ, -3)], ids=["F3-2", "Q-1/2", "Q--3"])
def test_unit_columns_share_a_normal_column(field, entry):
    """A one-entry column of A already in normal form is returned itself
    under a unit column of B; any other multiple is a new dict."""
    col = {1: entry}
    got = fields.sparse_compose(field, {0: col, 1: {0: 1}}, {5: {0: 1}, 6: {0: 2}, 7: {0: 1, 1: 1}})
    assert got[5] is col
    assert got[6] is not col and got[6] == {1: field.norm(2 * entry)}
    assert got[7] == {0: 1, 1: entry} and got[7] is not col


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_one_operator_shared_by_blocks_of_two_shapes(nat2, field):
    """`_of` takes a store whose two blocks hold one operator dict, x^a out
    of 0,0 into a 2-dimensional label and x^b into a 1-dimensional one:
    `gen_action` still gives each block its own shape, as `gen_matrix`
    does, and the JSON round trip is the identity.  Every product of two
    generators lands in a zero component, so the module law holds."""
    alg = graded_algebra(nat2, 2, field)
    (a, b), zero = alg.generators, alg.index(alg.zero_label)
    op = {0: {0: field.one}}
    sizes = {zero: 1, alg.shift[a][zero]: 2, alg.shift[b][zero]: 1}
    module = GradedModule._of(alg, sizes, {(a, zero): op, (b, zero): op})
    module.validate()
    action = module.gen_action
    assert action == {key: module.gen_matrix(*key) for key in action}
    assert [action[g, alg.zero_label] for g in (a, b)] == [((1,), (0,)), ((1,),)]
    assert jsonio.graded_from_json(json.loads(json.dumps(jsonio.graded_to_json(module)))) == module
    assert jsonio.parabolic_from_json(jsonio.parabolic_to_json(module)) == module

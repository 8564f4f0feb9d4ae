"""The module law of graded modules, checked on the algebra's presentation.

`GradedModule.validate` checks the relations of k[x_h : h in H]/(I_H +
(x_h^n)): commutators C, the toric moves M of `GradedAlgebra.moves` and
the powers P, besides the zero law N.  These tests compare its verdicts
with the full multiplication table (`helpers.module_law_oracle`), pin the
sizes of the families and the moves themselves, check that the moves
generate the toric ideal against sympy's elimination Groebner basis, and
give one module per family that fails that family alone, so that no
family can be dropped.
"""

import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    _composite,
    contains_at_level,
    corrupt_entry,
    dense_act,
    law_family_failures,
    module_law_oracle,
    random_module,
    random_scalar_module,
    random_twist_sum,
)
from monostack.fields import QQ, PrimeField
from monostack.graded import GradedModule, graded_algebra
from monostack.kummer import label_add
from monostack.lattice import facet_values, scale_to_ints, vadd
from monostack.monoid import saturate, validate

MONOIDS = {
    "N": lambda: validate([(1,)]),
    "N2": lambda: validate([(1, 0), (0, 1)]),
    "cone": lambda: validate([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]),
    "index2": lambda: saturate(validate([(2, 0), (1, 1), (0, 2)])),
    "wide": lambda: validate([(1, 0), (1, 1), (1, 2)]),
    # one cubic move: 3*(1,1,1) = (1,1,2) + (2,2,1)
    "cubic": lambda: saturate(validate([(1, 1, 2), (2, 1, 2), (2, 2, 1), (2, 2, 2)])),
    # the twisted cubic: Hilbert basis (1,0), (1,-1), (1,-2), (1,-3), three quadrics
    "quadrics": lambda: saturate(validate([(1, 0), (1, -3), (2, -1)])),
}

# the cone over a lattice hexagon: 7 Hilbert generators and 9 quadric moves;
# the saturation steps leave redundant binomials that the minimization drops
HEXAGON = ((1, 0, 1), (0, 1, 1), (-1, 1, 1), (-1, 0, 1), (0, -1, 1), (1, -1, 1))

FIELDS = (QQ, PrimeField(2), PrimeField(3))


def fr(*vals):
    return tuple(Fraction(v) for v in vals)


def _accepts(module):
    try:
        module.validate()
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("name", sorted(MONOIDS))
def test_law_set_agrees_with_full_table(name):
    """Twist sums, single-entry corruptions of them and random scalar modules,
    at levels 1-3 over QQ, GF(2) and GF(3): the verdicts agree with the full
    table.  Algebras with 20 or more basis points get one small case per
    field (the table check is slow there)."""
    pres = MONOIDS[name]()
    rng = random.Random(f"module-law-{name}")
    verdicts = {True: 0, False: 0}
    for level, field in itertools.product((1, 2, 3), FIELDS):
        alg = graded_algebra(pres, level, field)
        small = len(alg.basis) < 20
        for _ in range(8 if small else 1):
            summed = random_twist_sum(alg, rng, 2 if small else 1)
            cases = [summed, corrupt_entry(summed, rng), random_scalar_module(alg, rng)]
            # zero actions are corrupted too; at level 1 that is every entry
            assert cases[1] is not None, (level, field, summed.dims)
            for module in cases:
                want = module_law_oracle(module)
                assert _accepts(module) == want, (level, field, module.dims)
                verdicts[want] += 1
    assert verdicts[True] and verdicts[False]


@pytest.mark.parametrize(
    "name, level, sizes",
    [
        ("N2", 6, (1, 0, 2)),
        ("cone", 2, (6, 1, 4)),
        ("cone", 3, (6, 1, 4)),
        ("cone", 6, (6, 1, 4)),
        ("N", 1, (0, 0, 0)),
        ("cubic", 2, (6, 1, 4)),
        ("quadrics", 3, (6, 3, 4)),
        ("hexagon", 2, (21, 9, 7)),
    ],
)
def test_law_set_sizes(name, level, sizes):
    """(C, M, P) relation counts: pairs of delta generators, moves and delta
    generators.  They do not grow with the level; the full table has
    |delta generators| x |basis| pairs (72 on N^2 at level 6, 140 on the
    cone at level 3), and level 1 has no delta generator at all."""
    pres = saturate(validate(HEXAGON)) if name == "hexagon" else MONOIDS[name]()
    alg = graded_algebra(pres, level)
    pairs = list(itertools.combinations(alg.delta_generators, 2))
    assert (len(pairs), len(alg.moves), len(alg.delta_generators)) == sizes


def _move_words(pres):
    """The moves as unordered pairs of sorted generator words."""
    hb = pres._saturation_hilbert_basis
    return {
        frozenset(tuple(sorted(h for h, e in zip(hb, exps) for _ in range(e))) for exps in move)
        for move in pres._toric_moves
    }


@pytest.mark.parametrize(
    "name, words",
    [
        ("N", []),
        ("N2", []),
        ("cone", [(((0, 0, 1), (1, 1, -1)), ((0, 1, 0), (1, 0, 0)))]),
        ("wide", [(((1, 0), (1, 2)), ((1, 1), (1, 1)))]),
        ("index2", [(((0, 2), (2, 0)), ((1, 1), (1, 1)))]),
        ("cubic", [(((1, 1, 1),) * 3, ((1, 1, 2), (2, 2, 1)))]),
        (
            "quadrics",
            [
                (((1, -3), (1, -1)), ((1, -2), (1, -2))),
                (((1, -3), (1, 0)), ((1, -2), (1, -1))),
                (((1, -2), (1, 0)), ((1, -1), (1, -1))),
            ],
        ),
    ],
)
def test_toric_moves(name, words):
    """The minimal moves of the example monoids; each is a relation of
    disjoint support between Hilbert generators with equal sums."""
    pres = MONOIDS[name]()
    assert _move_words(pres) == {frozenset(pair) for pair in words}
    hb = pres._saturation_hilbert_basis
    for u, v in pres._toric_moves:
        assert not any(a and b for a, b in zip(u, v))
        sums = [[sum(e * h[k] for e, h in zip(exps, hb)) for k in range(pres.ambient_rank)] for exps in (u, v)]
        assert sums[0] == sums[1]


def test_toric_moves_are_shared(nonsimplicial):
    """Root extensions and the saturation share the moves by reference."""
    moves = nonsimplicial._toric_moves
    assert nonsimplicial.rebuilt(6)._toric_moves is moves
    assert saturate(nonsimplicial)._toric_moves is moves


@pytest.mark.parametrize("name", ["cubic", "quadrics", "N2", "cone", "index2", "hexagon"])
def test_toric_moves_generate_the_elimination_ideal(name):
    """sympy oracle: the ideal of the moves is I_H, computed as the
    x-part of a lex Groebner basis of (x_j - t^(F h_j)) with F the facet
    values (injective on the span of H, and >= 0 on it), and no move lies
    in the ideal of the others."""
    sympy = pytest.importorskip("sympy")
    pres = saturate(validate(HEXAGON)) if name == "hexagon" else MONOIDS[name]()
    hb = pres._saturation_hilbert_basis
    facets = pres.cone.facets
    ts = sympy.symbols(f"t0:{len(facets)}")
    xs = sympy.symbols(f"x0:{len(hb)}")
    elim = sympy.groebner(
        [x - sympy.prod([t**c for t, c in zip(ts, facet_values(facets, h))]) for x, h in zip(xs, hb)],
        *ts, *xs, order="lex",
    )
    toric = [g for g in elim.exprs if not g.free_symbols & set(ts)]

    def monomial(exps):
        return sympy.prod([x**e for x, e in zip(xs, exps)])

    ours = [monomial(u) - monomial(v) for u, v in pres._toric_moves]
    if not toric:
        assert not ours
        return
    theirs = sympy.groebner(toric, *xs, order="grevlex")
    assert all(theirs.contains(b) for b in ours)
    mine = sympy.groebner(ours, *xs, order="grevlex")
    assert all(mine.contains(g) for g in toric)
    for k, b in enumerate(ours):
        others = ours[:k] + ours[k + 1:]
        assert not others or not sympy.groebner(others, *xs, order="grevlex").contains(b)


def test_act_is_the_composite_along_decompose(nonsimplicial):
    rng = random.Random(5)
    alg = graded_algebra(nonsimplicial, 2)
    for _ in range(3):
        module = random_module(alg, rng)
        for gamma in reversed(alg.basis):
            for lab in module.dims:
                assert dense_act(module, gamma, alg.index(lab)) == _composite(module, gamma, lab)


# -- one module per family ----------------------------------------------------


def _module(alg, dims, action):
    """A module from point-keyed dims and (generator, point) -> scalar action."""
    def y(x):
        return scale_to_ints(x, alg.scale)

    return GradedModule(
        alg,
        {alg.label_of(y(p)): d for p, d in dims.items()},
        {(y(g), alg.label_of(y(p))): ((alg.field.of_int(c),),) for (g, p), c in action.items()},
        check=False,
    )


def _assert_fails_only(module, family):
    assert law_family_failures(module) == {family}
    assert not module_law_oracle(module)
    with pytest.raises(ValueError, match="module law fails"):
        module.validate()


def test_commutator_family_is_needed(nat2):
    """On N^2 at level 2, x^b then x^a is nonzero from 0 but x^a vanishes there."""
    alg = graded_algebra(nat2, 2)
    a, b = fr("1/2", 0), fr(0, "1/2")
    dims = {fr(0, 0): 1, a: 1, b: 1, fr("1/2", "1/2"): 1}
    module = _module(alg, dims, {(b, fr(0, 0)): 1, (a, b): 1})
    _assert_fails_only(module, "C")


def test_power_family_is_needed(nat):
    """On N at level 2, x^(1/2) acts invertibly although x^(1/2) x^(1/2) = 0."""
    alg = graded_algebra(nat, 2)
    h = fr("1/2")
    module = _module(alg, {fr(0): 1, h: 1}, {(h, fr(0)): 1, (h, h): 1})
    _assert_fails_only(module, "P")
    with pytest.raises(ValueError, match=r"^module law fails: generator 1/2 to the power 2 acts nontrivially$"):
        module.validate()


@pytest.mark.parametrize("level", range(2, 10))
def test_power_family_by_squaring(nat, level):
    """On N at level n, the n-cycle of ones has X^n = 1 and fails P; the chain
    that ends one step earlier has X^n = 0 and is the algebra itself."""
    alg = graded_algebra(nat, level)
    h = fr(Fraction(1, level))
    points = [fr(Fraction(k, level)) for k in range(level)]
    cycle = _module(alg, {p: 1 for p in points}, {(h, p): 1 for p in points})
    _assert_fails_only(cycle, "P")
    chain = _module(alg, {p: 1 for p in points}, {(h, p): 1 for p in points[:-1]})
    assert module_law_oracle(chain) and _accepts(chain) and not law_family_failures(chain)


def test_move_family_is_needed(nonsimplicial):
    """Monomials in the delta generators with sum in Delta, multiplied without
    the toric relations: on the cone at level 2, a+b = c+m for a, b, c the
    halved unit vectors and m = (1/2, 1/2, -1/2), and the two monomials
    stay apart where the algebra has one basis element."""
    alg = graded_algebra(nonsimplicial, 2)
    gens = alg.delta_generators
    sums = {(): (0, 0, 0)}
    frontier = [()]
    while frontier:
        mono = frontier.pop()
        for i, g in enumerate(gens):
            s = alg.multiply(g, sums[mono])
            bigger = tuple(sorted(mono + (i,)))
            if s is not None and bigger not in sums:
                sums[bigger] = s
                frontier.append(bigger)
    by_label = {}
    for mono in sorted(sums):
        by_label.setdefault(alg.label_of(sums[mono]), []).append(mono)
    action = {}
    for lab, monos in by_label.items():
        for i, g in enumerate(gens):
            targets = by_label.get(label_add(lab, alg.label_of(g)), [])
            if targets:
                action[(g, lab)] = tuple(
                    tuple(alg.field.one if t == tuple(sorted(m + (i,))) else alg.field.zero for m in monos)
                    for t in targets
                )
    module = GradedModule(alg, {lab: len(m) for lab, m in by_label.items()}, action, check=False)
    assert module.total_dim > len(alg.basis)
    _assert_fails_only(module, "M")
    with pytest.raises(ValueError, match=r"the products 0,0,1/2 \+ 1/2,1/2,-1/2 and 0,1/2,0 \+ 1/2,0,0 differ"):
        module.validate()


def test_label_of_takes_int_coordinates(nonsimplicial):
    """The graded layer's points are int tuples: integral Fractions are refused."""
    alg = graded_algebra(nonsimplicial, 2)
    assert alg.label_of((0, 0, 0)) == alg.zero_label
    with pytest.raises(TypeError, match="int coordinates"):
        alg.label_of(fr(0, 0, 0))
    assert alg.label_of(vadd((1, 0, 0), (0, 1, 0))) == label_add(alg.label_of((1, 0, 0)), alg.label_of((0, 1, 0)))


# -- membership at a level ----------------------------------------------------


def test_contains_at_level_matches_monoid_membership(nonsimplicial):
    """All 343 points of [-1, 1]^3 / 3 against 3x in P."""
    thirds = [Fraction(k, 3) for k in range(-3, 4)]
    verdicts = set()
    for x in itertools.product(thirds, repeat=3):
        want = nonsimplicial.contains(tuple(3 * a for a in x))
        assert contains_at_level(nonsimplicial, 3, x) == want
        verdicts.add(want)
    assert verdicts == {True, False}


def test_wrongly_shaped_matrix_is_rejected(nat2):
    alg = graded_algebra(nat2, 2)
    module = random_twist_sum(alg, random.Random(3))
    key = next(k for k in module.gen_action if k[0] in alg.delta_generators)
    action = dict(module.gen_action)
    action[key] = action[key] + (action[key][0],)
    with pytest.raises(ValueError, match="wrong shape"):
        GradedModule(alg, module.dims, action, check=False)


def test_ragged_and_dropped_matrices_are_rejected(nat2):
    """Every row of a stored matrix is checked, and a matrix into or out of a
    zero component, which the module drops, must still have its shape:
    dim(target) rows of dim(source) entries."""
    alg = graded_algebra(nat2, 2)
    a, zero = scale_to_ints(fr("1/2", 0), alg.scale), alg.label_of((0, 0))
    full = {zero: 2, alg.label_of(a): 2}
    for dims, mat in [
        (full, ((1, 0), (0,))),
        (full, ((1, 0), (0, 1, 5))),
        ({zero: 1}, ((1, 2),)),
        ({zero: 1}, ((1,), (2,))),
        ({alg.label_of(a): 1}, ()),
    ]:
        with pytest.raises(ValueError, match=r"^action matrix for gen 1/2,0 at rep 0,0 has a wrong shape$"):
            GradedModule(alg, dims, {(a, zero): mat})
    assert GradedModule(alg, {zero: 1}, {(a, zero): ()}).action == {}
    assert GradedModule(alg, {alg.label_of(a): 2}, {(a, zero): ((), ())}).action == {}


def test_commutator_failure_is_reported_before_the_power_failure(nat2):
    """X_a cycles 0 -> a -> 0, so X_a^2 is not 0, and x^a x^b differs from
    x^b x^a out of 0: the module fails C and P, and the C line is raised."""
    alg = graded_algebra(nat2, 2)
    a, b, ab = fr("1/2", 0), fr(0, "1/2"), fr("1/2", "1/2")
    dims = {fr(0, 0): 1, a: 1, b: 1, ab: 1}
    module = _module(alg, dims, {(a, fr(0, 0)): 1, (a, a): 1, (b, fr(0, 0)): 1, (a, b): 1})
    assert law_family_failures(module) == {"C", "P"}
    assert not module_law_oracle(module)
    with pytest.raises(ValueError, match=r"^module law fails: generators 0,1/2 and 1/2,0 do not commute$"):
        module.validate()


@pytest.mark.parametrize("level", [3, 5])
def test_power_family_stops_at_a_zero_square(nat, level):
    """Chains of m ones on N at level n, 2 <= m <= n: X^(m-1) is not 0 and
    X^m = 0, so every such module is accepted; m = 2 has X != 0 and X^2 = 0,
    where the squaring stops at its first square."""
    alg = graded_algebra(nat, level)
    h = fr(Fraction(1, level))
    for m in range(2, level + 1):
        points = [fr(Fraction(k, level)) for k in range(m)]
        chain = _module(alg, {p: 1 for p in points}, {(h, p): 1 for p in points[:-1]})
        assert chain.action and module_law_oracle(chain) and not law_family_failures(chain)
        chain.validate()


def test_fraction_entries_go_through_the_field(nat2):
    """Over QQ, x^a x^b and x^b x^a out of 0 are 1/2 * 2 and 1/3 * 3: equal
    once each Fraction product is brought into the field; with 2/3 * 3
    instead they differ."""
    alg = graded_algebra(nat2, 2)
    a, b, ab = fr("1/2", 0), fr(0, "1/2"), fr("1/2", "1/2")
    dims = {fr(0, 0): 1, a: 1, b: 1, ab: 1}
    for scale, ok in ((Fraction(1, 3), True), (Fraction(2, 3), False)):
        module = _module(alg, dims, {(a, fr(0, 0)): Fraction(1, 2), (b, a): 2, (b, fr(0, 0)): scale, (a, b): 3})
        assert _accepts(module) == module_law_oracle(module) == ok

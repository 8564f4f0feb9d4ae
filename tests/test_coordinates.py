"""The graded layer's integer coordinates against the Fraction definitions.

A point x of (1/n)P is stored as the int tuple y = n*s*x, s the
presentation denominator.  On N, N^2, the non-simplicial cone, the index-2
group <(2,0),(1,1),(0,2)> and that group with denominator 3, at levels 1-4,
labels, products and membership computed on y agree with `coset_label`,
`in_delta` and `helpers.contains_at_level` on x, y -> (N/m)*y keeps labels
from level m to N = 12, and the algebra, its memos, the action keys and
the induction presentation hold only ints.
"""

import itertools
import random
import re
from fractions import Fraction

import pytest

from helpers import contains_at_level, random_twist_sum
from monostack.fields import QQ
from monostack.graded import GradedAlgebra, GradedModule, graded_algebra
from monostack.infquot import in_delta
from monostack.kummer import coset_label, root_extension
from monostack.lattice import unscale, vadd, vscale
from monostack.monoid import validate
from monostack.parabolic import ParabolicSheaf, _induce_with_data, from_graded

MONOIDS = {
    "N": lambda: validate([(1,)]),
    "N2": lambda: validate([(1, 0), (0, 1)]),
    "cone": lambda: validate([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]),
    "index2": lambda: validate([(2, 0), (1, 1), (0, 2)]),
    "denom3": lambda: root_extension(validate([(2, 0), (1, 1), (0, 2)]), 3),
}
LEVELS = (1, 2, 3, 4)


def _box(pres, radius):
    return itertools.product(range(-radius, radius + 1), repeat=pres.ambient_rank)


def _is_int_point(y):
    return isinstance(y, tuple) and all(type(c) is int for c in y)


@pytest.mark.parametrize("name", sorted(MONOIDS))
def test_labels_match_coset_label(name):
    pres = MONOIDS[name]()
    for n in LEVELS:
        alg = graded_algebra(pres, n)
        for y in itertools.chain(alg.basis, alg.generators, _box(pres, 3)):
            try:
                want = coset_label(pres, n, unscale(y, alg.scale))
            except ValueError:
                with pytest.raises(ValueError, match=f"level-{n} group lattice"):
                    alg.label_of(y)
            else:
                assert alg.label_of(y) == want


@pytest.mark.parametrize("name", sorted(MONOIDS))
def test_multiply_is_the_fraction_sum_in_delta(name):
    pres = MONOIDS[name]()
    for n in LEVELS:
        alg = graded_algebra(pres, n)
        for a, b in itertools.product(alg.basis, repeat=2):
            s = vadd(unscale(a, alg.scale), unscale(b, alg.scale))
            got = alg.multiply(a, b)
            assert (got is not None) == in_delta(pres, s)
            assert got is None or unscale(got, alg.scale) == s


@pytest.mark.parametrize("name", sorted(MONOIDS))
def test_membership_predicate_matches_contains_at_level(name):
    """On a box of points: the integer predicate, and `decompose`, which
    finds a decomposition exactly for the points of (1/n)P."""
    pres = MONOIDS[name]()
    for n in LEVELS:
        alg = GradedAlgebra(pres, n)
        verdicts = set()
        for y in _box(pres, 4):
            want = contains_at_level(pres, n, unscale(y, alg.scale))
            assert pres._contains_int(y) == want
            assert (alg.decompose(y) is not None) == want
            verdicts.add(want)
        assert verdicts == {True, False}


@pytest.mark.parametrize("name", sorted(MONOIDS))
def test_level_change_keeps_labels(name):
    pres = MONOIDS[name]()
    big = graded_algebra(pres, 12)
    for m in LEVELS:
        alg = graded_algebra(pres, m)
        for y in alg.basis + alg.generators:
            moved = vscale(12 // m, y)
            assert unscale(moved, big.scale) == unscale(y, alg.scale)
            assert big.label_of(moved) == alg.label_of(y)


@pytest.mark.parametrize("name", sorted(MONOIDS))
def test_algebra_internals_are_ints(name):
    pres = MONOIDS[name]()
    rng = random.Random(11)
    for n in LEVELS:
        alg = GradedAlgebra(pres, n)
        assert alg.generators == pres._saturation_hilbert_basis
        module = random_twist_sum(alg, rng)
        module.validate()
        for gamma, i in itertools.product(alg.basis, module.support):
            module.act(gamma, i)
        points = [alg.basis, alg.generators, alg.delta_generators, alg._decomp_memo]
        points += [[y for y, _ in module._act_memo], [g for g, _ in module.action]]
        points += [parts for parts in alg._decomp_memo.values() if parts]
        assert all(_is_int_point(y) for group in points for y in group)
        assert all(type(i) is int for _, i in [*module._act_memo, *module.action])
        assert n == 1 or (module._act_memo and module.action)
    for m, big in ((1, 2), (2, 4)):
        if name == "cone" and big == 4:
            continue
        sheaf = from_graded(random_twist_sum(graded_algebra(pres, m), rng))
        _, presentation = _induce_with_data(sheaf, big)
        assert presentation.index
        assert all(_is_int_point(gamma) for _, gamma, _ in presentation.index)


def test_non_generator_action_key_is_rejected():
    """An action entry must name a Hilbert generator of (1/n)P: on N^2 at
    level 2, (1/2, 1/2) is a Delta point but not a generator.  `ParabolicSheaf`
    takes the same int coordinates as `GradedModule`; a key off the level
    lattice is refused by the payload reader."""
    from monostack.errors import MalformedInput
    from monostack.jsonio import parabolic_from_json

    pres = MONOIDS["N2"]()
    alg = graded_algebra(pres, 2)
    zero = alg.zero_label
    message = re.escape("gen 1/2,1/2 is not a Hilbert generator of (1/n)P")
    with pytest.raises(ValueError, match=message):
        GradedModule(alg, {zero: 1}, {((1, 1), zero): ((Fraction(7),),)}, check=False)
    with pytest.raises(ValueError, match=message):
        ParabolicSheaf(pres, 2, QQ, {zero: 1}, {((1, 1), zero): ((Fraction(7),),)})
    payload = {"monoid": {"ambient_rank": 2, "generators": [[1, 0], [0, 1]]}, "level": 2,
               "components": {"0,0": 1}, "maps": [{"rep": "0,0", "gen": "1/3,0", "matrix": [["7"]]}]}
    with pytest.raises(MalformedInput, match="^" + re.escape("1/3,0 is not a point of level 2") + "$"):
        parabolic_from_json(payload)


def test_wrong_shape_message_uses_payload_notation():
    alg = graded_algebra(MONOIDS["N2"](), 2)
    zero = alg.zero_label
    half = (1, 0)
    with pytest.raises(ValueError, match=re.escape("action matrix for gen 1/2,0 at rep 0,0 has a wrong shape")):
        GradedModule(alg, {zero: 1, alg.label_of(half): 1}, {(half, zero): ((1,), (1,))}, check=False)


@pytest.mark.parametrize("name", ["n2", "cone"])
def test_reading_a_plain_key_payload_constructs_no_fraction(name, monkeypatch):
    """Plain keys read to int tuples and int matrix entries stay ints: with
    cold caches, reading and checking a sheaf payload builds no Fraction."""
    import json
    from pathlib import Path

    from monostack import graded, infquot, jsonio

    original = json.loads((Path(__file__).parent / "data" / "golden_cli_payloads.json").read_text())[name]
    payload = json.loads(json.dumps(original))
    for entry in payload["maps"]:
        entry["matrix"] = [[int(x) for x in row] for row in entry["matrix"]]
    infquot.delta_points.cache_clear()
    graded.graded_algebra.cache_clear()
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    sheaf = jsonio.parabolic_from_json(payload)
    monkeypatch.undo()
    assert made == []
    assert jsonio.parabolic_to_json(sheaf) == jsonio.parabolic_to_json(jsonio.parabolic_from_json(original))

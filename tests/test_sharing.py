"""P, its root extensions and its saturation share one integer model.

The cone, the group lattice, the Hilbert basis of the saturation, the flags
and the membership memo depend on the integer generators alone, never on
the denominator, so `root_extension` and `saturate` hand them on by
reference.  Checked on N^2, the non-simplicial cone, the index-2 group
<(2,0),(1,1),(0,2)>, that group with denominator 3, and two presentations
whose saturation has other generators: <(1,0),(0,1),(1,1)> (saturated, not
minimal) and <(2,0),(3,0),(0,1)> (not saturated).
"""

import itertools
from fractions import Fraction

import pytest

from monostack import lattice
from monostack.kummer import is_kummer, picard_group, root_extension, root_inclusion
from monostack.lattice import cone_from_generators
from monostack.monoid import INTEGER_MODEL, MonoidPresentation, saturate, validate

MONOIDS = {
    "N2": lambda: validate([(1, 0), (0, 1)]),
    "cone": lambda: validate([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]),
    "index2": lambda: validate([(2, 0), (1, 1), (0, 2)]),
    "denom3": lambda: validate([(2, 0), (1, 1), (0, 2)], denominator=3),
    "redundant": lambda: validate([(1, 0), (0, 1), (1, 1)]),
    "unsaturated": lambda: validate([(2, 0), (3, 0), (0, 1)]),
}
# read the generator list itself, so a saturation with new generators
# recomputes the memo and is handed the flag as True
GENERATOR_SPECIFIC = ("is_saturated", "_in_generated_memo")


def _warm(pres):
    """Compute every INTEGER_MODEL value on pres."""
    for name in INTEGER_MODEL:
        getattr(pres, name)
    return pres


def _fresh(pres):
    return MonoidPresentation(pres.ambient_rank, pres.generators, pres.denominator)


def _box(pres, radius=3):
    return itertools.product(range(-radius, radius + 1), repeat=pres.ambient_rank)


def _derived(pres):
    """Every shared value in comparable form, plus the per-denominator ones."""
    out = {name: getattr(pres, name) for name in INTEGER_MODEL}
    contains = out.pop("_group_contains_int")
    out["group_members"] = [y for y in _box(pres) if contains(y)]
    memo = out.pop("_in_generated_memo")
    out["rational_generators"] = pres.rational_generators
    if pres.is_saturated:
        out["hilbert_basis"] = pres.hilbert_basis
    return out, memo


@pytest.mark.parametrize("name", sorted(MONOIDS))
@pytest.mark.parametrize("n", [2, 3])
def test_root_extension_holds_the_same_objects(name, n):
    pres = _warm(MONOIDS[name]())
    ext = root_extension(pres, n)
    assert ext.denominator == n * pres.denominator
    for attr in INTEGER_MODEL:
        assert ext.__dict__[attr] is pres.__dict__[attr], attr


@pytest.mark.parametrize("name", sorted(MONOIDS))
def test_saturation_holds_the_same_cone_and_group(name):
    pres = _warm(MONOIDS[name]())
    sat = saturate(pres)
    same_generators = sat.generators == pres.generators
    assert same_generators == (name not in ("redundant", "unsaturated"))
    assert sat.cone.facets is pres.cone.facets and sat.cone.rays is pres.cone.rays
    # handed on at construction (in the instance dict), not computed later
    for attr in INTEGER_MODEL:
        if same_generators or attr not in ("cone",) + GENERATOR_SPECIFIC:
            assert sat.__dict__[attr] is pres.__dict__[attr], attr
        elif attr == "is_saturated":
            # a saturation is saturated by proof, and `saturate` says so
            assert sat.__dict__[attr] is True
        elif attr in GENERATOR_SPECIFIC:
            assert attr not in sat.__dict__, attr


@pytest.mark.parametrize("name", sorted(MONOIDS))
def test_shared_values_equal_a_fresh_computation(name):
    pres = _warm(MONOIDS[name]())
    for derived in (root_extension(pres, 2), root_extension(pres, 3), saturate(pres)):
        got, memo = _derived(derived)
        want, _ = _derived(_fresh(derived))
        assert got == want
        fresh = _fresh(derived)
        assert all(fresh._in_generated_int(y) == found for y, found in memo.items())


@pytest.mark.parametrize("name", sorted(MONOIDS))
def test_saturation_cone_is_the_cone_of_its_generators(name):
    sat = saturate(MONOIDS[name]())
    assert sat.cone == cone_from_generators(sat.generators)


@pytest.mark.parametrize("name", sorted(MONOIDS))
def test_contains_generated_matches_a_fresh_presentation(name):
    """Points y/(2s) on a box, after the shared memo has seen other levels."""
    pres = _warm(MONOIDS[name]())
    derived = [pres, root_extension(pres, 2), root_extension(pres, 6), saturate(pres)]
    for q in derived:
        fresh = _fresh(q)
        for y in _box(q):
            x = tuple(Fraction(a, 2 * q.denominator) for a in y)
            assert q.contains_generated(x) == fresh.contains_generated(x), (q, x)


@pytest.mark.parametrize("name", ["N2", "cone", "index2", "denom3"])
def test_geometry_job_builds_one_cone(name, monkeypatch):
    """validate, saturate, picard_group at 2-4 and the Kummer test at 2-3
    compute facets once for the presentation: seven times without sharing."""
    calls = []
    real = lattice.cone_from_generators

    def counted(generators):
        calls.append(generators)
        return real(generators)

    monkeypatch.setattr(lattice, "cone_from_generators", counted)
    monkeypatch.setattr("monostack.monoid.cone_from_generators", counted)
    sat = saturate(MONOIDS[name]())
    for n in (2, 3, 4):
        assert picard_group(sat, n).order == n**sat.group_rank
    for n in (2, 3):
        assert is_kummer(root_inclusion(sat, n))
    assert len(calls) <= 2

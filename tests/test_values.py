"""Value semantics of the library's small immutable classes.

They are plain classes with explicit equality and hashing: equal fields
give equal objects and equal hashes, an object never equals a tuple of
its own fields, and the constructors keep their normalisation and their
`ValueError`s (`tests/test_kummer.py` checks `FiniteAbelianGroup` and a hom
off the target monoid, `tests/test_monoid.py` a `MonoidElement` outside P).
"""

import pytest

from monostack.graded import ShortExactSequence
from monostack.infquot import InfquotVerdict
from monostack.kummer import CosetLabel, FiniteAbelianGroup, MonoidHom, enumerate_labels
from monostack.lattice import RationalCone, SNFDecomposition, cone_from_generators, smith_normal_form
from monostack.monoid import MonoidElement, MonoidPresentation, saturate, validate


def value_cases(nat, nat2):
    """(two objects built from equal fields, the tuple of those fields) per class."""
    snf = smith_normal_form(((2, 4), (6, 8)))
    snf_fields = (snf.u, snf.d, snf.v, snf.divisors)
    cone = cone_from_generators(((1, 0), (1, 2)))
    cone_fields = (cone.dim, cone.generators, cone.facets, cone.rays)
    pres_fields = (2, ((0, 1), (1, 0)), 3)
    inj, proj = object(), object()
    elem = MonoidElement(nat2, (1, 2))
    return [
        (snf, SNFDecomposition(*snf_fields), snf_fields),
        (cone, RationalCone(*cone_fields), cone_fields),
        (MonoidPresentation(*pres_fields), MonoidPresentation(2, ((0, 1), (1, 0)), denominator=3), pres_fields),
        (elem, MonoidElement(nat2, (1, 2)), (nat2, elem.vector)),
        (FiniteAbelianGroup((2, 4)), FiniteAbelianGroup((1, 2, 4)), ((2, 4),)),
        (MonoidHom(nat, nat, ((2,),)), MonoidHom(nat, nat, [[2]]), (nat, nat, ((2,),))),
        (CosetLabel(nat2, 2, 2, (1, 0)), CosetLabel(nat2, 2, 2, (1, 0)), (nat2, 2, 2, (1, 0))),
        (InfquotVerdict("inconclusive", level=4), InfquotVerdict("inconclusive", None, 4), ("inconclusive", None, 4)),
        (ShortExactSequence(inj, proj), ShortExactSequence(inject=inj, project=proj), (inj, proj)),
    ]


def test_equal_fields_give_equal_objects_and_hashes(nat, nat2):
    for a, b, fields in value_cases(nat, nat2):
        name = type(a).__name__
        assert a == b and not a != b and hash(a) == hash(b), name
        assert a != fields and fields != a, name
        assert a.__eq__(fields) is NotImplemented, name
        assert {a: 1}[b] == 1, name


def test_unequal_fields_give_unequal_objects(nat, nat2):
    assert FiniteAbelianGroup((2,)) != FiniteAbelianGroup((4,))
    assert MonoidHom(nat, nat, ((1,),)) != MonoidHom(nat, nat, ((2,),))
    assert InfquotVerdict("inconclusive", level=2) != InfquotVerdict("inconclusive", level=4)
    assert MonoidPresentation(1, ((1,),)) != MonoidPresentation(1, ((1,),), 2)
    assert MonoidElement(nat2, (1, 2)) != MonoidElement(nat2, (2, 1))


def test_coset_label_ignores_level_and_normalises(nat2, nonsimplicial):
    lab = CosetLabel(nat2, 2, 2, (1, 0))
    other = CosetLabel(nat2, 6, 2, (1, 0))
    assert lab == other and hash(lab) == hash(other) and other.level == 6
    doubled = CosetLabel(nat2, 2, 4, (2, 0))
    assert (doubled.order, doubled.res) == (2, (1, 0))
    assert doubled == lab and hash(doubled) == hash(lab)
    assert CosetLabel(nat2, 2, 2, (0, 1)) != lab
    for lab in enumerate_labels(nonsimplicial, 4):
        assert hash(lab) == hash((lab.monoid, lab.order, lab.res))
        twice = CosetLabel(lab.monoid, lab.level, 2 * lab.order, tuple(2 * r for r in lab.res))
        assert (twice.order, twice.res) == (lab.order, lab.res)


def test_presentation_hash_is_the_field_hash(nat2, nonsimplicial):
    for pres in (nat2, nonsimplicial, nonsimplicial.rebuilt(6)):
        assert hash(pres) == hash((pres.ambient_rank, pres.generators, pres.denominator))


def test_rebuilt_and_saturate_keep_the_cone(nonsimplicial):
    unsat = validate([(1, 0), (1, 1), (1, 2)])
    for pres, other in ((nonsimplicial, nonsimplicial.rebuilt(3)), (unsat, saturate(unsat))):
        assert other.cone.facets == pres.cone.facets
        assert other.cone.rays == pres.cone.rays
        assert other.cone == cone_from_generators(other.generators)


def test_hom_rejects_a_matrix_of_the_wrong_shape(nat, nat2):
    with pytest.raises(ValueError, match="matrix shape"):
        MonoidHom(nat, nat2, ((1,),))

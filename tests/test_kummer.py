import random
from fractions import Fraction
from math import floor

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import delta_bound, random_kummer_hom, random_sharp_saturated
from monostack.errors import InfiniteCokernel
from monostack.infquot import divisors
from monostack.kummer import (
    CosetLabel,
    FiniteAbelianGroup,
    MonoidHom,
    cokernel,
    compose,
    coset_label,
    enumerate_labels,
    is_kummer,
    label_add,
    label_scale,
    picard_group,
    root_extension,
    root_inclusion,
    zero_label,
)
from monostack.lattice import vec_key
from monostack.monoid import MonoidPresentation, monoid_equal, monoid_points, saturate, validate
from test_walk_bounds import CONE, INDEX2, PLANE, SETTINGS, sharp, sharp_generators


def test_finite_abelian_group_normalization():
    g = FiniteAbelianGroup((1, 2, 4))
    assert g.invariant_factors == (2, 4)
    assert g.order == 8
    assert str(FiniteAbelianGroup(())) == "0"
    with pytest.raises(ValueError):
        FiniteAbelianGroup((2, 3))


def test_root_extension_nat(nat):
    half = root_extension(nat, 2)
    assert half.denominator == 2
    assert half.hilbert_basis == ((Fraction(1, 2),),)
    assert half.contains((1,)) and half.contains((Fraction(1, 2),))
    inc = root_inclusion(nat, 2)
    assert is_kummer(inc)


def test_root_extension_quadrant(nat2):
    third = root_extension(nat2, 3)
    assert sorted(third.hilbert_basis) == [
        (Fraction(0), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(0)),
    ]


def test_root_extension_right_quotient_identity(nonsimplicial):
    """Points of the cone lying in (1/2)P^gp form exactly (1/2)P, on the
    whole bounded enumeration region."""
    p = nonsimplicial
    half = root_extension(p, 2)
    bound = delta_bound(p)
    pts = monoid_points(p, 2, bound)
    for x in pts:
        assert half.contains(x)
    # conversely: enumerate ambient level-2 box points y = 2*x in the cone
    # that lie in the half group lattice; they must all be points of (1/2)P
    from monostack.lattice import enumerate_integer_points, unscale

    raw = enumerate_integer_points(p.cone, p.positive_functional, floor(2 * bound))
    for y in raw:
        if half._group_contains_int(y):
            x = unscale(y, 2)
            assert half.contains(x)
            assert x in pts


def test_is_kummer_examples(nat, nat2):
    double = MonoidHom(nat, nat, ((2,),))
    assert is_kummer(double)
    shear = MonoidHom(nat2, nat2, ((1, 1), (0, 1)))
    assert not is_kummer(shear)
    # no multiple of e2 lands in the image monoid: brute check
    img = [shear.image(g) for g in nat2.generators]
    for k in range(1, 21):
        target = (Fraction(0), Fraction(k))
        combos = [
            (a, b)
            for a in range(21)
            for b in range(21)
            if all(
                a * i + b * j == t
                for (i, j), t in zip(zip(*img), target)
            )
        ]
        assert not combos


def test_kummer_requires_injectivity(nat2, nat):
    proj = MonoidHom(nat2, nat, ((1, 1),))
    assert not is_kummer(proj)


def test_cokernel_examples(nat):
    assert cokernel(MonoidHom(nat, nat, ((2,),))).invariant_factors == (2,)
    assert cokernel(root_inclusion(nat, 1)).invariant_factors == ()
    with pytest.raises(InfiniteCokernel):
        cokernel(MonoidHom(nat, validate([(1, 0), (0, 1)]), ((1,), (0,))))


def test_picard_groups(nat, nat2, nat3, nonsimplicial):
    for pres, rank in ((nat, 1), (nat2, 2), (nat3, 3), (nonsimplicial, 3)):
        for n in (2, 3, 4, 6):
            g = picard_group(pres, n)
            assert g.invariant_factors == (n,) * rank
        assert picard_group(pres, 1).invariant_factors == ()


def test_picard_label_enumeration(nat2, nonsimplicial):
    for pres in (nat2, nonsimplicial):
        for n in (1, 2, 3):
            labels = enumerate_labels(pres, n)
            group = picard_group(pres, n)
            assert len(labels) == n ** pres.group_rank == max(group.order, 1)
            assert len(set(labels)) == len(labels)
            forms = {lab.normal_form for lab in labels}
            assert len(forms) == len(labels)


def test_root_functoriality(nat2):
    for m, n in ((1, 2), (2, 4), (2, 6), (3, 6)):
        small = root_extension(nat2, m)
        large = root_extension(nat2, n)
        eye = ((1, 0), (0, 1))
        inc = MonoidHom(small, large, eye)
        assert is_kummer(inc)
        factors = cokernel(inc).invariant_factors
        assert factors == ((n // m,) * 2 if n != m else ())


def test_kummer_composition_closure():
    rng = random.Random(97)
    done = 0
    while done < 20:
        p = random_sharp_saturated(rng, rank=2)
        f = random_kummer_hom(p, rng)
        g = random_kummer_hom(f.target, rng)
        assert is_kummer(f) and is_kummer(g)
        h = compose(g, f)
        # closure gives the factorization hypothesis; the middle leg must
        # test Kummer as well
        assert is_kummer(h)
        assert is_kummer(g)
        done += 1


def test_coset_label_normal_forms(nat):
    lab = coset_label(nat, 4, (Fraction(3, 4),))
    assert lab.normal_form == (Fraction(3, 4),)
    assert lab.residues == (3,)
    assert lab.representative == (Fraction(3, 4),)
    assert label_scale(2, lab) == coset_label(nat, 2, (Fraction(1, 2),))
    s = label_add(lab, lab)
    assert s.normal_form == (Fraction(1, 2),)
    assert zero_label(nat).is_zero()


def test_coset_label_equality_mod_group(nat2):
    a = coset_label(nat2, 2, (Fraction(1, 2), Fraction(3, 2)))
    b = coset_label(nat2, 2, (Fraction(5, 2), Fraction(-1, 2)))
    assert a == b
    assert hash(a) == hash(b)
    c = coset_label(nat2, 2, (Fraction(1, 2), Fraction(0)))
    assert a != c


def test_coset_label_sublattice():
    e = validate([(2, 0), (1, 1), (0, 2)])
    lab = coset_label(e, 2, (Fraction(1, 2), Fraction(1, 2)))
    assert lab.representative == (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        coset_label(e, 2, (Fraction(1, 2), Fraction(0)))


# -- integer labels against the Fraction oracle --------------------------------

LEVELS = range(1, 7)


@pytest.fixture(scope="module")
def label_monoids(nat, nat2, nat3, nonsimplicial):
    """N, N^2, N^3, the non-simplicial cone, a monoid whose group has index 2
    in Z^2, and a presentation with denominator 3."""
    return {
        "N": nat,
        "N2": nat2,
        "N3": nat3,
        "cone": nonsimplicial,
        "index2": validate([(2, 0), (1, 1), (0, 2)]),
        "denom3": root_extension(validate([(2, 0), (1, 1), (0, 2)]), 3),
    }


def _group_shift(pres, rng):
    """A random element of P^gp, as a rational vector."""
    s = pres.denominator
    shift = [Fraction(0)] * pres.ambient_rank
    for row in pres.group_basis:
        k = rng.randint(-3, 3)
        for i, a in enumerate(row):
            shift[i] += Fraction(k * a, s)
    return tuple(shift)


def test_every_label_matches_fraction_oracle(label_monoids):
    from helpers import coset_label_oracle

    rng = random.Random(31)
    for name, pres in label_monoids.items():
        for n in LEVELS:
            labels = enumerate_labels(pres, n)
            assert len(labels) == n ** pres.group_rank
            for lab in labels:
                rep = lab.representative
                x = tuple(a + b for a, b in zip(rep, _group_shift(pres, rng)))
                got = coset_label(pres, n, x)
                nf = coset_label_oracle(pres, n, x)
                assert got.normal_form == nf == lab.normal_form, (name, n, x)
                assert got.residues == tuple(int(c * n) for c in nf) == lab.residues
                assert got == lab and hash(got) == hash(lab), (name, n, x)
                assert coset_label_oracle(pres, n, rep) == nf
                assert all(0 <= c < 1 for c in nf)
                assert got.is_zero() == all(c == 0 for c in nf)
            assert len(set(labels)) == len(labels)


def test_labels_equal_across_levels(label_monoids):
    for name, pres in label_monoids.items():
        by_level = {n: enumerate_labels(pres, n) for n in (1, 2, 3, 4, 6, 12)}
        index12 = {lab: i for i, lab in enumerate(by_level[12])}
        for m, labels in by_level.items():
            for lab in labels:
                assert lab.level == m
                # a level-m label finds its level-12 twin in a dict
                twin = by_level[12][index12[lab]]
                assert twin == lab and twin.normal_form == lab.normal_form
                again = coset_label(pres, 12, lab.representative)
                assert again == lab and hash(again) == hash(lab), (name, m)
                for n in (1, 2, 3, 4, 6, 12):
                    assert (n % lab.order == 0) == all(
                        (c * n).denominator == 1 for c in lab.normal_form
                    )


def test_label_add_and_scale_laws(label_monoids):
    from helpers import coset_label_oracle

    rng = random.Random(32)
    for name, pres in label_monoids.items():
        for n in LEVELS:
            labels = enumerate_labels(pres, n)
            zero = zero_label(pres, n)
            picks = [labels[rng.randrange(len(labels))] for _ in range(8)]
            other = enumerate_labels(pres, rng.choice((2, 3, 5)))
            for a in picks:
                b = labels[rng.randrange(len(labels))]
                c = other[rng.randrange(len(other))]
                s = label_add(a, b)
                rep_sum = tuple(x + y for x, y in zip(a.representative, b.representative))
                assert s.normal_form == coset_label_oracle(pres, n, rep_sum)
                assert s == label_add(b, a)
                assert label_add(label_add(a, b), c) == label_add(a, label_add(b, c))
                assert label_add(a, zero) == a
                assert label_add(a, label_scale(-1, a)).is_zero()
                mixed = label_add(a, c)
                assert mixed.level % n == 0 and mixed.level % c.level == 0
                rep_mixed = tuple(x + y for x, y in zip(a.representative, c.representative))
                assert mixed.normal_form == coset_label_oracle(pres, mixed.level, rep_mixed)
                for k in (-2, 0, 1, 3, n):
                    scaled = label_scale(k, a)
                    rep_k = tuple(k * x for x in a.representative)
                    assert scaled.normal_form == coset_label_oracle(pres, n, rep_k)
                    assert label_scale(k, s) == label_add(scaled, label_scale(k, b))
                    assert label_scale(k + 2, a) == label_add(scaled, label_scale(2, a))
                assert label_scale(n, a).is_zero()


def test_off_lattice_points_raise(label_monoids, nat):
    from helpers import coset_label_oracle
    from monostack.graded import graded_algebra

    index2 = label_monoids["index2"]
    line = validate([(1, 1)])
    cases = [
        (nat, 2, (Fraction(1, 3),), "level-2 group lattice"),
        (index2, 2, (Fraction(1, 2), Fraction(0)), "level-2 group lattice"),
        (index2, 1, (Fraction(1), Fraction(0)), "level-1 group lattice"),
        (label_monoids["denom3"], 2, (Fraction(1, 12), Fraction(1, 12)), "level-2 group lattice"),
        (line, 2, (Fraction(1), Fraction(0)), "rational span"),
    ]
    for pres, n, x, message in cases:
        assert coset_label_oracle(pres, n, x) is None
        with pytest.raises(ValueError, match=message):
            coset_label(pres, n, x)
    alg = graded_algebra(index2, 2)
    for _ in range(2):  # failures are not memoized
        with pytest.raises(ValueError, match="level-2 group lattice"):
            alg.label_of((1, 0))
    assert alg.label_of((1, 1)).residues == (1, 0)


# -- labels hash once; payload keys are read and written on ints ---------------


def test_label_hash_is_the_field_hash_and_survives_every_route(label_monoids):
    """A label hashes (monoid, order, res) once, at construction, so labels
    built by `label_add`, `label_scale`, `coset_label` or the constructor
    (another level, or an unreduced (order, res)) hash alike whenever they
    are equal."""
    for name, pres in label_monoids.items():
        for lab in enumerate_labels(pres, 6):
            assert hash(lab) == hash((lab.monoid, lab.order, lab.res)), name
            routes = [
                label_add(lab, zero_label(pres, 3)),
                label_scale(7, lab),  # 7 = 1 mod 6
                coset_label(pres, 2 * lab.order, lab.representative),
                CosetLabel(lab.monoid, 30, lab.order, lab.res),
                CosetLabel(lab.monoid, lab.level, 2 * lab.order, tuple(2 * r for r in lab.res)),
            ]
            for other in routes:
                assert other == lab and hash(other) == hash(lab), (name, lab, other)


def test_level_2_labels_find_their_entries_in_a_level_6_algebra(label_monoids):
    from monostack.graded import graded_algebra

    for name in ("N", "N2", "cone", "index2"):
        pres = label_monoids[name]
        alg6 = graded_algebra(pres, 6)
        for lab in enumerate_labels(pres, 2):
            i = alg6.label_index[lab]
            assert alg6.index(lab) == i and alg6.labels[i] == lab and alg6.labels[i].level == 6, name


def test_labels_over_different_monoids_stay_unequal(nat2, label_monoids):
    others = [label_monoids["index2"], root_extension(nat2, 2)]
    for pres in others:
        assert pres.group_rank == nat2.group_rank
        for res in ((0, 0), (1, 0), (1, 1)):
            a, b = CosetLabel(nat2, 2, 2, res), CosetLabel(pres, 2, 2, res)
            assert a != b and len({a, b}) == 2


EDGE_KEYS = [
    " 1/2", "+1/2", "1/-2", "2/4", "-0/3", "1/0", "3.5", "1e-1", "\u0663", "", "1/3", "007", "-4/6", "1/00",
    "0.5", "+1", "a",
]


def _outcome(read, *args):
    """A label, or the type and message of the exception it raises."""
    try:
        return read(*args)
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return type(exc), str(exc)


def _gen_by_fractions(pres, n, s):
    """The generator key read through its rational vector, as the reader did
    before it read keys to int tuples: n*s*x, or the error line it printed."""
    from monostack.errors import MalformedInput
    from monostack.lattice import vec_from_key

    x = vec_from_key(s)
    y = pres._scaled(x, n)
    if y is None:
        raise MalformedInput(f"{vec_key(x)} is not a point of level {n}")
    return y


def _keys(pres, n, rng):
    """The representatives of the level-n labels, random rational points in
    every spelling the payloads use, the edge strings in each entry, and
    keys of the wrong length."""
    from monostack.jsonio import label_key

    r = pres.ambient_rank
    keys = [label_key(lab) for lab in enumerate_labels(pres, n)]
    for _ in range(12):
        keys.append(",".join(str(Fraction(rng.randint(-9, 9), rng.randint(1, 12))) for _ in range(r)))
        keys.append(",".join(f"{rng.randint(-9, 9)}/{rng.randint(1, 12)}" for _ in range(r)))
    for edge in EDGE_KEYS:
        for j in range(r):
            keys.append(",".join(edge if i == j else "0" for i in range(r)))
    return keys + ["1/2" + ",0" * r, "1" + ",0" * r, "1/3" + ",0" * r, "0", "1/2", "1,", ","]


def test_key_reader_matches_the_fraction_route(label_monoids):
    """Label keys ("rep" and component keys) and "gen" keys read to what
    their rational vector x = `vec_from_key(s)` gives, or to the same
    exception type and message, at levels 1-6: `label_from_key` to
    `coset_label(pres, n, x)` and `gen_from_key` to n*s*x, and the key
    reader `scaled_from_key` to `scale_to_ints(x, n*s)`.  Plain keys take
    the reader's int path."""
    from monostack.jsonio import gen_from_key, label_from_key
    from monostack.lattice import _PLAIN_KEY, scale_to_ints, scaled_from_key, vec_from_key

    rng = random.Random(33)
    monoids = dict(label_monoids, line=validate([(1, 0)]))
    fast = 0
    for name, pres in monoids.items():
        for n in LEVELS:
            m = n * pres.denominator
            for s in _keys(pres, n, rng):
                want = _outcome(lambda: coset_label(pres, n, vec_from_key(s)))
                assert _outcome(label_from_key, pres, n, s) == want, (name, n, s)
                assert _outcome(gen_from_key, pres, n, s) == _outcome(_gen_by_fractions, pres, n, s), (name, n, s)
                y = _outcome(scaled_from_key, s, m)
                assert y == _outcome(lambda: scale_to_ints(vec_from_key(s), m)), (name, n, s)
                fast += _PLAIN_KEY.fullmatch(s) is not None and type(y) is tuple
    assert fast > 1000


@pytest.mark.parametrize(
    "gen, code, err",
    [
        ("1/3,0", 1, "error: 1/3,0 is not a point of level 2\n"),
        ("1/3,1/0", 1, "error: bad rational '1/0'\n"),
        ("a,0", 1, "error: bad rational 'a'\n"),
        ("1/2", 2, "error: point of dim 1 against cone of dim 2\n"),
        ("1/3", 2, "error: point of dim 1 against cone of dim 2\n"),
        ("1/2,0,0", 2, "error: point of dim 3 against cone of dim 2\n"),
        ("1,0", 1, "error: gen 1,0 is not a Hilbert generator of (1/n)P\n"),
        ("0.5,0", 0, ""),
        (" 1/2,0", 0, ""),
        ("+1/2,0", 0, ""),
        ("2/4,0", 0, ""),
    ],
)
def test_gen_key_error_lines(gen, code, err, tmp_path, capsys):
    """A "gen" key through `parabolic to-graded` on N^2 at level 2: off the
    level lattice, with a bad rational, of another dimension or not a
    Hilbert generator, it gives these error lines and exit codes; odd
    spellings of 1/2,0 read as 1/2,0."""
    import json

    from monostack.cli import main

    payload = {"monoid": {"ambient_rank": 2, "generators": [[1, 0], [0, 1]]}, "level": 2,
               "components": {"0,0": 1, "1/2,0": 1}, "maps": [{"rep": "0,0", "gen": gen, "matrix": [["1"]]}]}
    path = tmp_path / "sheaf.json"
    path.write_text(json.dumps(payload))
    assert main(["parabolic", "to-graded", str(path)]) == code
    out, got = capsys.readouterr()
    assert got == err
    assert code or json.loads(out)["action"] == [{"gen": "1/2,0", "matrix": [["1"]], "rep": "0,0"}]


@pytest.mark.parametrize(
    "pres, n, key, message",
    [
        (validate([(1,)]), 2, "1/3", "1/3 is not in the level-2 group lattice"),
        (validate([(1,)]), 2, "1/0", "bad rational '1/0'"),
        (validate([(1,)]), 1, "3.5", "7/2 is not in the level-1 group lattice"),
        (validate([(1, 0)]), 2, "0,1/2", "0,1/2 is not in the rational span of the group"),
        (validate([(2, 0), (1, 1), (0, 2)]), 2, "1/2,0", "1/2,0 is not in the level-2 group lattice"),
    ],
    ids=["third", "zero-denominator", "decimal", "span", "index2"],
)
def test_key_reader_error_lines(pres, n, key, message):
    """In payload notation, never as a Fraction repr; a zero denominator is
    malformed input, the rest ValueErrors that the reader reports."""
    from monostack.errors import MalformedInput
    from monostack.jsonio import label_from_key

    with pytest.raises((ValueError, MalformedInput)) as info:
        label_from_key(pres, n, key)
    assert str(info.value) == message


def test_scaled_key_writes_vec_key_of_unscale(label_monoids):
    from monostack.jsonio import label_key
    from monostack.lattice import scaled_key, unscale, vec_key

    rng = random.Random(34)
    for _ in range(2000):
        y = tuple(rng.randint(-60, 60) for _ in range(rng.randint(0, 4)))
        d = rng.randint(1, 36)
        assert scaled_key(y, d) == vec_key(unscale(y, d)), (y, d)
    for pres in label_monoids.values():
        for n in LEVELS:
            assert all(label_key(lab) == vec_key(lab.representative) for lab in enumerate_labels(pres, n))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=5), st.integers(1, 10**4), st.integers(1, 12))
def test_list_writer_and_key_reader_invert_each_other(y, d, k):
    """The list writer `scaled_to_json(y, d)` is `vec_to_json(unscale(y, d))`
    for any int y, negative entries included, and d >= 1; the key reader
    reads `scaled_key(y, d)` back to y at scale d, and to k*y at scale k*d."""
    from monostack.lattice import scaled_from_key, scaled_key, scaled_to_json, unscale, vec_to_json

    y = tuple(y)
    assert scaled_to_json(y, d) == vec_to_json(unscale(y, d))
    key = scaled_key(y, d)
    assert scaled_from_key(key, d) == y
    assert scaled_from_key(key, k * d) == tuple(k * c for c in y)


# -- the integer hom layer against the Fraction oracle --------------------------


def test_cokernel_messages(nat, nat2):
    with pytest.raises(InfiniteCokernel, match="^group ranks differ$"):
        cokernel(MonoidHom(nat, nat2, ((1,), (0,))))
    with pytest.raises(InfiniteCokernel, match="^the homomorphism is not injective with finite index$"):
        cokernel(MonoidHom(nat2, nat2, ((1, 1), (0, 0))))


def _hom_cases(nat, nat2, nonsimplicial):
    """(name, source, target, matrix): N and N^2 maps, denominators that differ
    between source and target, a group of index 2, and one map that fails."""
    index2 = validate([(2, 0), (1, 1), (0, 2)])
    return [
        ("double on N", nat, nat, ((2,),)),
        ("swap on N2", nat2, nat2, ((0, 1), (1, 0))),
        ("shear on N2", nat2, nat2, ((1, 1), (0, 1))),
        ("projection N2 -> N", nat2, nat, ((1, 1),)),
        ("axis N -> N2", nat, nat2, ((1,), (0,))),
        ("collapse on N2", nat2, nat2, ((1, 1), (0, 0))),
        ("N/3 -> N/6", root_extension(nat, 3), root_extension(nat, 6), ((1,),)),
        ("N/2 -> N/3", root_extension(nat, 2), root_extension(nat, 3), ((1,),)),
        ("N/2 -> N/4, times 3", root_extension(nat, 2), root_extension(nat, 4), ((3,),)),
        ("N2 -> index2, onto a half cone", nat2, index2, ((2, 1), (0, 1))),
        ("N2/2 -> index2", root_extension(nat2, 2), index2, ((1, 1), (1, -1))),
        ("index2/2 -> N2/6", root_extension(index2, 2), root_extension(nat2, 6), ((1, 0), (0, 1))),
        ("index2 -> N2", index2, nat2, ((1, 0), (0, 1))),
        ("cone -> cone/2", nonsimplicial, root_extension(nonsimplicial, 2), ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    ]


def test_homs_match_fraction_oracle(nat, nat2, nonsimplicial):
    from helpers import hom_oracle

    seen = set()
    for name, source, target, matrix in _hom_cases(nat, nat2, nonsimplicial):
        maps, factors, kummer = hom_oracle(source, target, matrix)
        if not maps:
            with pytest.raises(ValueError, match="does not map into the target monoid"):
                MonoidHom(source, target, matrix)
            seen.add("refused")
            continue
        hom = MonoidHom(source, target, matrix)
        if factors is None:
            with pytest.raises(InfiniteCokernel):
                cokernel(hom)
        else:
            assert cokernel(hom).invariant_factors == factors, name
        assert is_kummer(hom) == kummer, name
        seen.add(kummer)
    assert seen == {True, False, "refused"}


def test_random_kummer_homs_match_fraction_oracle():
    from helpers import hom_oracle

    rng = random.Random(41)
    for _ in range(12):
        f = random_kummer_hom(random_sharp_saturated(rng, rank=2), rng)
        maps, factors, kummer = hom_oracle(f.source, f.target, f.matrix)
        assert maps and kummer
        assert cokernel(f).invariant_factors == factors
        assert is_kummer(f)


# -- closed forms against the search routes --------------------------------------

N4 = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
UNSATURATED = [(2, 0), (3, 0), (0, 1)]  # the saturation adds (1, 0)
NUMERICAL = [(2,), (3,)]  # N{2, 3}: 1 is in the cone and the group, not in the monoid


@SETTINGS
@given(sharp_generators(), st.integers(1, 3))
@example([(1,)], 1)
@example([(1,)], 3)
@example(N4, 2)
@example(INDEX2, 1)
@example(INDEX2, 3)
@example(UNSATURATED, 2)
@example(NUMERICAL, 1)
@example(PLANE, 1)
@example(CONE, 3)
def test_picard_group_is_the_cokernel_of_the_root_inclusion(gens, denominator):
    """(Z/n)^r against the Smith form of P -> (1/n)P at n = 1..12, on any
    presentation: group ranks 1-4, groups of index > 1, unsaturated monoids."""
    pres = sharp(gens, denominator)
    for n in range(1, 13):
        assert picard_group(pres, n) == cokernel(root_inclusion(pres, n)), n


def test_picard_group_runs_no_root_inclusion_and_no_smith_form(nonsimplicial, monkeypatch):
    from monostack import kummer, lattice

    def refuse(*args):
        raise AssertionError("picard_group took the cokernel route")

    pres = validate(INDEX2)
    pres.group_basis
    for name in ("root_inclusion", "cokernel", "smith_normal_form"):
        monkeypatch.setattr(kummer, name, refuse)
    monkeypatch.setattr(lattice, "smith_normal_form", refuse)
    assert picard_group(pres, 6).invariant_factors == (6, 6)
    assert picard_group(nonsimplicial, 4).invariant_factors == (4, 4, 4)
    with pytest.raises(ValueError, match="^root level must be a positive integer$"):
        picard_group(pres, 0)


def _search_route_message(source, target, matrix):
    """The verdict of the N-span search on every generator image, in Fractions:
    None when M maps each source generator into the target monoid, else the
    message that names the first that it does not."""
    fresh = MonoidPresentation(target.ambient_rank, target.generators, target.denominator)
    for g, x in zip(source.generators, source.rational_generators):
        y = [sum(a * b for a, b in zip(row, x)) * target.denominator for row in matrix]
        if any(a.denominator != 1 for a in y) or not fresh._in_generated_int(y):
            return f"generator {vec_key(x)} does not map into the target monoid"
    return None


SMALL = [[(1,)], NUMERICAL, [(1, 0), (0, 1)], INDEX2, UNSATURATED, [(1, 0), (1, 1), (1, 3)], CONE]


@st.composite
def hom_data(draw):
    """A source with denominator 1-3, a target that is a saturation or not,
    with denominator 1-3, and a matrix with entries in -1..2.  Half the
    monoids come from a list of small ones, where many images land in the
    target, among them unsaturated targets with group points in the cone
    that they do not generate."""
    gens = st.one_of(st.sampled_from(SMALL), sharp_generators())
    source = sharp(draw(gens), draw(st.integers(1, 3)))
    target = sharp(draw(gens), draw(st.integers(1, 3)))
    if draw(st.booleans()):
        target = saturate(target)
    row = st.tuples(*[st.integers(-1, 2)] * source.ambient_rank)
    return source, target, tuple(draw(st.lists(row, min_size=target.ambient_rank, max_size=target.ambient_rank)))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(hom_data())
@example((validate([(1,)]), validate(NUMERICAL), ((1,),)))
@example((validate([(1,)]), validate(NUMERICAL), ((2,),)))
@example((validate([(1,)]), saturate(validate(NUMERICAL)), ((1,),)))
@example((validate(INDEX2), validate(UNSATURATED), ((1, 0), (0, 1))))
@example((validate(INDEX2), validate(UNSATURATED), ((1, 1), (0, 1))))
@example((validate([(1, 0), (0, 1)]), validate(INDEX2), ((2, 1), (0, 1))))
@example((validate([(1, 0), (0, 1)]), validate(INDEX2), ((1, 1), (0, 1))))
@example((validate([(1,)], denominator=2), validate([(1,)], denominator=3), ((1,),)))
@example((validate(CONE), validate(CONE, denominator=2), ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
@example((validate(CONE), validate(CONE), ((1, 0, 0), (0, 1, 0), (0, 0, -1))))
def test_hom_accepts_exactly_what_the_search_route_accepts(data):
    """On saturated targets the constructor tests cone and group, on others it
    searches: both accept and refuse as the search on every image does, with
    its message."""
    source, target, matrix = data
    want = _search_route_message(source, target, matrix)
    if want is None:
        assert MonoidHom(source, target, matrix).matrix == matrix
    else:
        with pytest.raises(ValueError) as info:
            MonoidHom(source, target, matrix)
        assert str(info.value) == want

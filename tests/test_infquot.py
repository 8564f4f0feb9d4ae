import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from helpers import delta_bound
from monostack import infquot
from monostack.errors import EnumerationBudget, IncompatibleFamily, NotSharp
from monostack.infquot import (
    TruncatedProfiniteElement,
    certified_prime,
    delta_class,
    delta_points,
    divisors,
    in_delta,
    is_infinite_quotient,
    positive_functional,
)
from monostack.kummer import CosetLabel, coset_label, enumerate_labels, label_scale
from monostack.lattice import cone_contains, dot, vadd, vsub
from monostack.monoid import MonoidPresentation, monoid_points, saturate, validate
from test_walk_bounds import CONE, HEXAGON, INDEX2, PLANE, SETTINGS, sharp, sharp_generators


def fr(*vals):
    return tuple(Fraction(v) for v in vals)


def test_positive_functional_examples(nat, nat2, nonsimplicial):
    assert positive_functional(nat) == (1,)
    assert positive_functional(nat2) == (1, 1)
    ell = positive_functional(nonsimplicial)
    assert ell == (2, 2, 2)
    for v in nonsimplicial.hilbert_basis:
        assert dot(ell, v) > 0


def test_positive_functional_requires_sharp():
    raw = MonoidPresentation(1, ((1,), (-1,)))
    with pytest.raises(NotSharp):
        positive_functional(raw)


def test_delta_nat_level3(nat):
    ds = delta_points(nat, 3)
    assert ds.points == (fr(0), fr(Fraction(1, 3)), fr(Fraction(2, 3)))
    assert ds.delta0_points == ds.points


def test_delta_quadrant_level2(nat2):
    ds = delta_points(nat2, 2)
    assert ds.points == (
        fr(0, 0),
        fr(0, Fraction(1, 2)),
        fr(Fraction(1, 2), 0),
        fr(Fraction(1, 2), Fraction(1, 2)),
    )


def test_delta_contains_zero_and_zero_in_delta0(nat, nat2, nat3, nonsimplicial):
    for pres in (nat, nat2, nat3, nonsimplicial):
        for n in (1, 2, 3, 4):
            ds = delta_points(pres, n)
            zero = tuple(Fraction(0) for _ in range(pres.ambient_rank))
            assert zero in ds.points
            assert zero in ds.delta0_points


def test_delta_level1_of_sharp_monoid_is_origin(nonsimplicial):
    assert delta_points(nonsimplicial, 1).points == (fr(0, 0, 0),)


def test_delta_boundedness(nat, nat2, nat3, nonsimplicial):
    for pres in (nat, nat2, nat3, nonsimplicial):
        ell = positive_functional(pres)
        bound = delta_bound(pres)
        for n in (1, 2, 3, 4):
            for p in delta_points(pres, n).points:
                assert dot(ell, p) <= bound


def test_delta_divisor_closure_exhaustive(nat, nat2, nat3, nonsimplicial):
    for pres in (nat, nat2, nat3, nonsimplicial):
        bound = delta_bound(pres)
        for n in (1, 2, 3, 4):
            ds = delta_points(pres, n)
            region = monoid_points(pres, n, bound)
            for z in ds.points:
                for gamma in region:
                    rest = vsub(z, gamma)
                    if not cone_contains(pres.cone, rest):
                        continue
                    assert in_delta(pres, gamma)
                    assert in_delta(pres, rest)


def test_delta_budget_is_the_exact_candidate_count(nonsimplicial, monkeypatch):
    """The cone's two unimodular simplices give 2 * n^3 candidates at level n:
    a budget of 2 * 8^3 admits level 8 and refuses level 9 before enumerating."""
    monkeypatch.setattr(infquot, "ENUMERATION_BUDGET", 2 * 8**3)
    infquot.delta_points.cache_clear()
    try:
        assert len(delta_points(nonsimplicial, 8)) > 0
        with pytest.raises(EnumerationBudget, match="^level 9 has 1458 Delta candidates, past the budget of 1024$"):
            delta_points(nonsimplicial, 9)
    finally:
        infquot.delta_points.cache_clear()


def test_delta0_nat_every_class(nat):
    for n in (1, 2, 3, 4, 5):
        ds = delta_points(nat, n)
        assert len(ds.delta0_points) == n


def test_delta0_single_representative_property(nat2, nonsimplicial):
    for pres in (nat2, nonsimplicial):
        for n in (1, 2, 3, 4):
            ds = delta_points(pres, n)
            for gamma in ds.delta0_points:
                lab = coset_label(pres, n, gamma)
                assert ds.points_in_class(lab) == (gamma,)


def test_delta0_nonsimplicial_level2_has_crowded_classes(nonsimplicial):
    ds = delta_points(nonsimplicial, 2)
    crowded = [p for p, flag in zip(ds.points, ds.delta0_mask) if not flag]
    assert crowded, "some class should meet Delta more than once"
    for p in crowded:
        lab = coset_label(nonsimplicial, 2, p)
        assert len(ds.points_in_class(lab)) > 1


def test_delta0_sum_stability_near_zero(nat, nat2, nat3, nonsimplicial):
    """Sums of Delta0 points close to the origin stay alone in their class.

    The safe radius is the smallest functional value over the Hilbert
    basis: every class with two or more Delta representatives starts at or
    above that value, so sums strictly below it have a unique
    representative (exhaustive over levels <= 4).
    """
    for pres in (nat, nat2, nat3, nonsimplicial):
        ell = positive_functional(pres)
        radius = min(dot(ell, v) for v in pres.hilbert_basis)
        checked = 0
        for n in (1, 2, 3, 4):
            ds = delta_points(pres, n)
            small = ds.delta0_points
            for a in small:
                for b in small:
                    if dot(ell, a) + dot(ell, b) >= radius:
                        continue
                    lab = coset_label(pres, n, vadd(a, b))
                    assert len(ds.points_in_class(lab)) == 1
                    checked += 1
        assert checked > 0


def test_delta_crowded_classes_sit_above_min_generator_level(
    nat, nat2, nat3, nonsimplicial
):
    """Classes meeting Delta more than once only appear at or above the
    smallest Hilbert-generator functional value."""
    for pres in (nat, nat2, nat3, nonsimplicial):
        ell = positive_functional(pres)
        radius = min(dot(ell, v) for v in pres.hilbert_basis)
        for n in (1, 2, 3, 4):
            ds = delta_points(pres, n)
            for p, flag in zip(ds.points, ds.delta0_mask):
                if not flag:
                    assert dot(ell, p) >= radius


def test_family_from_element_and_compatibility(nat2):
    fam = TruncatedProfiniteElement.from_element(nat2, (1, 2), 6)
    assert sorted(fam.labels) == [1, 2, 3, 6]
    for m in divisors(6):
        assert fam.labels[m] == coset_label(
            nat2, m, (Fraction(1, m), Fraction(2, m))
        )


def test_family_rejects_incompatible(nat):
    labels = {
        1: coset_label(nat, 1, (0,)),
        2: coset_label(nat, 2, (Fraction(1, 2),)),
        4: coset_label(nat, 4, (Fraction(1, 2),)),
    }
    with pytest.raises(IncompatibleFamily):
        TruncatedProfiniteElement(nat, 4, labels)
    with pytest.raises(IncompatibleFamily):
        TruncatedProfiniteElement(nat, 4, {1: labels[1], 2: labels[2]})


def test_recognition_zero_family(nat):
    fam = TruncatedProfiniteElement.from_element(nat, (0,), 4)
    verdict = is_infinite_quotient(fam)
    assert verdict.is_confirmed
    assert verdict.element.vector == fr(0)


def test_recognition_generator_nonsimplicial(nonsimplicial):
    fam = TruncatedProfiniteElement.from_element(nonsimplicial, (1, 0, 0), 4)
    verdict = is_infinite_quotient(fam)
    assert verdict.is_confirmed
    assert verdict.element.vector == fr(1, 0, 0)


def test_recognition_soundness_strict_bound(nat, nat2, nat3, nonsimplicial):
    """Every actual element strictly inside the sweep region is recognized
    exactly at truncation level 12."""
    for pres in (nat, nat2, nat3, nonsimplicial):
        ell = positive_functional(pres)
        bound = 3 * delta_bound(pres)
        for p in monoid_points(pres, 1, bound):
            if dot(ell, p) >= bound:
                continue
            fam = TruncatedProfiniteElement.from_element(pres, p, 12)
            verdict = is_infinite_quotient(fam, depth=4)
            assert verdict.is_confirmed, (pres.generators, p, str(verdict))
            assert verdict.element.vector == p


def test_compatible_family_over_nat_is_realized(nat):
    """The compatible level-4 family with labels [1/2] and [3/4] is the
    truncation of the element 3, and exact recognition returns it."""
    labels = {
        1: coset_label(nat, 1, (0,)),
        2: coset_label(nat, 2, (Fraction(1, 2),)),
        4: coset_label(nat, 4, (Fraction(3, 4),)),
    }
    fam = TruncatedProfiniteElement(nat, 4, labels)
    verdict = is_infinite_quotient(fam, depth=4)
    assert verdict.is_confirmed
    assert verdict.element.vector == fr(3)


def test_deep_element_is_inconclusive_not_refuted(nonsimplicial):
    """At the closed sweep boundary some families have no Delta0 divisor
    level; the truncated test must answer inconclusive, never refuted."""
    fam = TruncatedProfiniteElement.from_element(nonsimplicial, (0, 1, 11), 12)
    verdict = is_infinite_quotient(fam, depth=4)
    assert verdict.is_inconclusive
    assert verdict.level == 12


def test_confirmed_element_matches_all_labels(nat3):
    rng = random.Random(5)
    for _ in range(10):
        p = tuple(rng.randint(0, 2) for _ in range(3))
        fam = TruncatedProfiniteElement.from_element(nat3, p, 6)
        verdict = is_infinite_quotient(fam)
        assert verdict.is_confirmed
        q = verdict.element.vector
        for m in divisors(6):
            assert fam.labels[m] == coset_label(
                nat3, m, tuple(a / m for a in q)
            )


# -- labels by linearity and the integer profinite layer -------------------------


@pytest.fixture(scope="module")
def sublattice_monoids():
    """Monoids whose group is not Z^d: index 2 in Z^2, the saturation of an
    unsaturated monoid with that group, a rank-2 monoid in Z^3, and a root
    extension with denominator 3."""
    from monostack.kummer import root_extension
    from monostack.monoid import saturate

    index2 = validate([(2, 0), (1, 1), (0, 2)])
    return {
        "index2": index2,
        "saturated": saturate(validate([(2, 0), (0, 2), (3, 1)])),
        "plane": validate([(1, 0, 1), (0, 1, 1)]),
        "denom3": root_extension(index2, 3),
    }


def test_delta_labels_match_fraction_oracle(sublattice_monoids):
    from helpers import coset_label_oracle, delta_points_oracle

    for name, pres in sublattice_monoids.items():
        assert not pres._group_is_ambient
        for n in range(1, 7):
            ds = delta_points(pres, n)
            assert ds.points == delta_points_oracle(pres, n), (name, n)
            classes = {}
            for p, res in zip(ds.points, ds.residues):
                nf = coset_label_oracle(pres, n, p)
                assert tuple(Fraction(c, n) for c in res) == nf, (name, n, p)
                assert coset_label(pres, n, p).residues == res
                classes[nf] = classes.get(nf, 0) + 1
            for p, flag in zip(ds.points, ds.delta0_mask):
                assert flag == (classes[coset_label_oracle(pres, n, p)] == 1)
                if flag:
                    assert ds.delta0_point_in_class(coset_label(pres, n, p)) == p


def _coset_family(pres, p, level):
    return {n: coset_label(pres, n, tuple(Fraction(a) / n for a in p)) for n in divisors(level)}


def _recognized_by_coset_labels(element):
    """Recognition as `is_infinite_quotient` documents it, on `coset_label`."""
    pres, divs = element.monoid, divisors(element.level)
    for n in divs:
        gamma = delta_points(pres, n).delta0_point_in_class(element.labels[n])
        if gamma is not None:
            p = tuple(n * a for a in gamma)
            if _coset_family(pres, p, element.level) == element.labels:
                return p
    return None


def test_profinite_labels_match_the_coset_label_route(nat2, nonsimplicial, sublattice_monoids, monkeypatch):
    """The verdicts of the slice route (`_recognized_by_coset_labels`, on this
    module's own `delta_points`), with the library's `delta_points` refused:
    recognition builds no slice."""

    def refuse(pres, level):
        raise AssertionError(f"a Delta slice was built at level {level}")

    monkeypatch.setattr(infquot, "delta_points", refuse)
    monoids = dict(sublattice_monoids, N2=nat2, cone=nonsimplicial)
    for name, pres in monoids.items():
        for p in monoid_points(pres, 1, 2 * delta_bound(pres)):
            for level in (6, 12):
                fam = TruncatedProfiniteElement.from_element(pres, p, level)
                want = _coset_family(pres, p, level)
                assert fam.labels == want, (name, p)
                assert all(fam.labels[n].level == n for n in want)
                verdict = is_infinite_quotient(fam)
                found = _recognized_by_coset_labels(fam)
                if found is None:
                    assert verdict.is_inconclusive, (name, p, level)
                else:
                    assert verdict.is_confirmed and verdict.element.vector == found, (name, p, level)


def test_from_element_rejects_points_off_the_group(sublattice_monoids):
    with pytest.raises(ValueError, match="^1,0 is not in the group of the monoid$"):
        TruncatedProfiniteElement.from_element(sublattice_monoids["index2"], (1, 0), 4)


def test_in_delta_matches_the_cone_oracle(nat2, nonsimplicial, sublattice_monoids):
    from helpers import in_cone_oracle

    rng = random.Random(17)
    monoids = dict(sublattice_monoids, N2=nat2, cone=nonsimplicial)
    for name, pres in monoids.items():
        hilbert = pres.hilbert_basis
        for _ in range(40):
            x = tuple(Fraction(rng.randint(-2, 9), rng.choice((1, 2, 3, 6))) for _ in range(pres.ambient_rank))
            want = in_cone_oracle(pres.generators, x) and not any(
                in_cone_oracle(pres.generators, vsub(x, h)) for h in hilbert
            )
            assert in_delta(pres, x) == want, (name, x)


# -- one class without the slice ----------------------------------------------

INDEX5 = [(5, 0), (1, 2), (0, 5)]  # the group has index 5 in Z^2
CLASS_LEVELS = {1: 6, 2: 6, 3: 4, 4: 3}  # the top level tried, by group rank


@SETTINGS
@given(sharp_generators(), st.integers(1, 2))
@example([(1,)], 1)
@example([(1, 0), (0, 1)], 1)
@example([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 1)
@example(INDEX2, 1)
@example(INDEX2, 3)
@example(PLANE, 1)
@example(INDEX5, 1)
@example(HEXAGON, 1)
@example(CONE, 1)
def test_delta_class_is_the_class_of_the_slice(gens, denominator):
    """Every label's class at levels 1..6 (1..4 at rank 3, 1..3 at rank 4),
    on saturations, so groups of index > 1 come with their own rays."""
    pres = saturate(sharp(gens, denominator))
    for n in range(1, CLASS_LEVELS[pres.group_rank] + 1):
        ds = delta_points(pres, n)
        for label in enumerate_labels(pres, n):
            assert delta_class(pres, n, label) == sorted(ds._class(label)), (n, label.res)


def test_delta_class_is_empty_off_the_level(nat):
    assert delta_class(nat, 3, coset_label(nat, 2, (Fraction(1, 2),))) == []


@pytest.mark.parametrize("level", [720, 10**9])
def test_recognition_answers_past_the_enumeration_budget(nonsimplicial, level):
    """The level-720 slice of the cone has 2 * 720^3 candidates, past
    `ENUMERATION_BUDGET`; one class has two, at level 10^9 too."""
    fam = TruncatedProfiniteElement.from_element(nonsimplicial, (0, 1, level - 1), level)
    assert str(is_infinite_quotient(fam)) == f"InconclusiveAtLevel({level})"
    fam = TruncatedProfiniteElement.from_element(nonsimplicial, (2, 3, 5), level)
    assert is_infinite_quotient(fam).element.vector == fr(2, 3, 5)


def test_divisors_by_trial_division():
    for n in range(1, 500):
        assert divisors(n) == tuple(d for d in range(1, n + 1) if n % d == 0)
    assert divisors(10**9) == tuple(sorted(2**i * 5**j for i in range(10) for j in range(10)))
    assert divisors(10**9 + 7) == (1, 10**9 + 7)  # a prime
    assert divisors(2 * 999983**2) == (1, 2, 999983, 2 * 999983, 999983**2, 2 * 999983**2)


# strong pseudoprimes: to bases 2, 3, 5, 7 (3215031751), to every prime base up
# to 23 (3825123056546413051), and to every prime base up to 37
STRONG_PSEUDOPRIMES = [3215031751, 3825123056546413051, 318665857834031151167461]


def test_certified_prime_is_sympy_isprime():
    import sympy

    for m in list(range(-2, 5000)) + STRONG_PSEUDOPRIMES:
        assert certified_prime(m) == sympy.isprime(m), m
    rng = random.Random(7)
    for digits in (12, 18, 24):
        for _ in range(20):
            m = rng.randrange(10 ** (digits - 1), 10**digits) | 1
            assert certified_prime(m) == sympy.isprime(m), m
    # from the exactness bound on, nothing is certified
    p = sympy.nextprime(infquot.MILLER_RABIN_EXACT)
    assert not certified_prime(p) and not certified_prime(infquot.MILLER_RABIN_EXACT)
    assert certified_prime(sympy.prevprime(infquot.MILLER_RABIN_EXACT))


@SETTINGS
@given(st.integers(1, 10**6), st.integers(1, 10**18))
@example(1, 10**18 + 3)
@example(12, 10**18 + 3)
@example(1, 100000000000031)
@example(720720, 10**9)
def test_divisors_stop_at_a_prime_cofactor(small, large):
    """n = small * the least prime >= large: trial division finds the small
    factors and stops at the prime cofactor, which trial division would
    reach only at its square root (10^9 steps at 10^18)."""
    import sympy

    n = small * sympy.nextprime(large - 1)
    assert divisors(n) == tuple(sympy.divisors(n))


@SETTINGS
@given(
    st.integers(2, 10**9),
    st.integers(2, 10**9),
    st.sampled_from([(1, 1), (1, 0), (2, 0), (2, 1), (3, 0)]),
    st.integers(1, 30),
)
@example(10**9 + 7, 10**9 + 9, (1, 1), 1)
@example(10000019, 30000001, (1, 1), 1)
@example(999999937, 2, (2, 0), 1)
@example(1000003, 2, (3, 0), 720720)
@example(1009, 1013, (2, 1), 2)
def test_divisors_of_products_of_large_primes(a, b, exponents, small):
    """n = small * p^i * q^j for the least primes p >= a and q >= b, up to
    about 10^9, and n below MILLER_RABIN_EXACT: semiprimes, prime squares
    and cubes, and smooth factors.  Trial division to the smaller of p and
    q would take up to 10^9 steps; Pollard's rho splits the cofactor
    instead."""
    import sympy

    n = small * sympy.nextprime(a - 1) ** exponents[0] * sympy.nextprime(b - 1) ** exponents[1]
    assume(n < infquot.MILLER_RABIN_EXACT)
    assert divisors(n) == tuple(sympy.divisors(n))


def test_divisors_past_the_exact_primality_range_trial_divide(monkeypatch):
    """A cofactor at or above MILLER_RABIN_EXACT is not handed to Pollard's
    rho: trial division goes on past TRIAL_BOUND until the cofactor drops
    below that bound, here to the prime q."""
    import sympy

    q = sympy.nextprime(infquot.MILLER_RABIN_EXACT // 1013)
    n = 1009 * 1013 * q
    assert q < infquot.MILLER_RABIN_EXACT <= 1013 * q and infquot.TRIAL_BOUND < 1009

    def no_rho(m):
        raise AssertionError(f"rho called on {m}")

    monkeypatch.setattr(infquot, "_rho", no_rho)
    assert divisors(n) == tuple(sympy.divisors(n))


def _first_incompatible_pair(labels):
    """The pair the compatibility scan over (m, n), m | n, reports first."""
    divs = sorted(labels)
    for m in divs:
        for n in divs:
            if n % m == 0 and label_scale(n // m, labels[n]) != labels[m]:
                return f"labels at levels {n} and {m} are incompatible"
    return None


@SETTINGS
@given(st.sampled_from(["N2", "CONE", "INDEX2"]), st.sampled_from([4, 12, 36, 60, 360]), st.data())
def test_corrupted_families_name_the_first_incompatible_pair(name, level, data):
    """A family of a point with one to three labels swapped for other labels
    of their level (never level 1): the constructor refuses it iff some pair
    is incompatible, naming the first such pair of the full scan."""
    pres = validate({"N2": [(1, 0), (0, 1)], "CONE": CONE, "INDEX2": INDEX2}[name])
    coords = data.draw(st.tuples(*[st.integers(-3, 5)] * pres.group_rank))
    point = tuple(sum(c * b[i] for c, b in zip(coords, pres.group_basis)) for i in range(pres.ambient_rank))
    labels = TruncatedProfiniteElement.from_element(pres, point, level).labels
    for n in data.draw(st.lists(st.sampled_from(divisors(level)[1:]), min_size=1, max_size=3)):
        res = data.draw(st.tuples(*[st.integers(0, n - 1)] * pres.group_rank))
        labels[n] = CosetLabel(pres, n, n, res)
    want = _first_incompatible_pair(labels)
    if want is None:
        assert TruncatedProfiniteElement(pres, level, labels).labels == labels
    else:
        with pytest.raises(IncompatibleFamily) as info:
            TruncatedProfiniteElement(pres, level, labels)
        assert str(info.value) == want

"""Acceptance gate: one test per criterion, exact tolerances, one printed
pass/fail line each (run with -s to see them inline)."""

import random
from fractions import Fraction

import pytest

from helpers import delta_bound, random_kummer_hom, random_module, random_sharp_saturated, random_ses
from monostack.graded import (
    ShortExactSequence,
    check_exactness,
    coherence_probe,
    degree_zero_part,
    graded_algebra,
    is_exact_sequence,
    projection_formula_check,
    twist,
    unit_map_check,
)
from monostack.infquot import (
    TruncatedProfiniteElement,
    divisors,
    delta_points,
    in_delta,
    is_infinite_quotient,
    positive_functional,
)
from monostack.kummer import (
    MonoidHom,
    compose,
    coset_label,
    enumerate_labels,
    is_kummer,
    label_scale,
    picard_group,
    root_inclusion,
)
from monostack.lattice import cone_contains, dot, vsub
from monostack.monoid import monoid_points, validate
from monostack.parabolic import (
    ParabolicSheaf,
    _induce_with_data,
    compose as pcompose,
    counit_map,
    from_graded,
    hom_space,
    induce,
    induce_parabolic_map,
    is_identity,
    is_induced_from,
    restrict,
    restrict_parabolic_map,
    to_graded,
    unit_map,
)
from monostack.fields import QQ
from monostack.kummer import zero_label


def _report(num, ok):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def monoids():
    return {
        "N": validate([(1,)]),
        "N2": validate([(1, 0), (0, 1)]),
        "N3": validate([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        "nonsimplicial": validate([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]),
    }


def test_criterion_1_cokernel_law(monoids):
    """picard_group(P, n) has invariant factors (n, ..., n), rank many."""
    ok = True
    for pres in monoids.values():
        r = pres.group_rank
        for n in (2, 3, 4, 6):
            if picard_group(pres, n).invariant_factors != (n,) * r:
                ok = False
    _report(1, ok)
    assert ok


def test_criterion_2_delta_geometry(monoids):
    """Divisor closure and the enumeration bound, exhaustively at n <= 4;
    the origin is always a Delta0 point."""
    ok = True
    for pres in monoids.values():
        ell = positive_functional(pres)
        bound = delta_bound(pres)
        zero = tuple(Fraction(0) for _ in range(pres.ambient_rank))
        for n in (1, 2, 3, 4):
            ds = delta_points(pres, n)
            if zero not in ds.delta0_points:
                ok = False
            region = monoid_points(pres, n, bound)
            for z in ds.points:
                if dot(ell, z) > bound:
                    ok = False
                for gamma in region:
                    rest = vsub(z, gamma)
                    if cone_contains(pres.cone, rest):
                        if not (in_delta(pres, gamma) and in_delta(pres, rest)):
                            ok = False
    _report(2, ok)
    assert ok


def test_criterion_3_infinite_quotient_soundness(monoids):
    """Soundness of the truncated infinite-quotient test at N = 12, depth 4.

    Recognition, over every element p with l(p) <= 3 * sum l(v_i): the
    verdict is never refuted; a confirmed element lies in P and has the
    same level-12 truncation as p; strictly inside the region it is p
    itself, and so is every boundary element of N, N^2 and N^3.  Only on
    the closed boundary of the non-simplicial cone may the answer be
    inconclusive or another element with the same truncation (12*e3 and 0
    share every label at level 12, since 12*e3/m lies in P^gp for m | 12).

    Refutation: every compatible truncated family is realised in P (if
    N*x = a - b with a, b in P, then a + (N-1)*b has the family's labels),
    so none may be refuted.  The family 0, [1/2], [3/4] over the natural
    numbers is the truncation of 3, and every level-4 family on the four
    monoids is checked.
    """
    failures = []
    for name, pres in monoids.items():
        ell = positive_functional(pres)
        bound = 3 * delta_bound(pres)
        for p in monoid_points(pres, 1, bound):
            fam = TruncatedProfiniteElement.from_element(pres, p, 12)
            verdict = is_infinite_quotient(fam, depth=4)
            exact_required = dot(ell, p) < bound or pres.is_simplicial
            clause = _realisation_failure(pres, fam, verdict)
            if clause is None and exact_required:
                if verdict.is_inconclusive:
                    clause = "inconclusive off the non-simplicial boundary"
                elif verdict.element.vector != p:
                    clause = "not recognised exactly"
            if clause is not None:
                failures.append((name, f"p = {_vec(p)}", verdict, clause))
    nat = monoids["N"]
    family = TruncatedProfiniteElement(
        nat,
        4,
        {
            1: coset_label(nat, 1, (0,)),
            2: coset_label(nat, 2, (Fraction(1, 2),)),
            4: coset_label(nat, 4, (Fraction(3, 4),)),
        },
    )
    verdict = is_infinite_quotient(family, depth=4)
    if not (verdict.is_confirmed and verdict.element.vector == (Fraction(3),)):
        failures.append(
            ("N", "family 0, [1/2], [3/4]", verdict, "not confirmed as its realisation 3")
        )
    for name, pres in monoids.items():
        for lab in enumerate_labels(pres, 4):
            fam = TruncatedProfiniteElement(
                pres, 4, {m: label_scale(4 // m, lab) for m in divisors(4)}
            )
            verdict = is_infinite_quotient(fam, depth=4)
            clause = _realisation_failure(pres, fam, verdict)
            if clause is not None:
                failures.append(
                    (name, f"level-4 family [{_vec(lab.normal_form)}]", verdict, clause)
                )
    ok = not failures
    _report(3, ok)
    assert ok, f"criterion 3: {len(failures)} failures\n" + "\n".join(
        f"{name}, {what}, {verdict}: {clause}" for name, what, verdict, clause in failures
    )


def _vec(v):
    return "(" + ", ".join(map(str, v)) + ")"


def _realisation_failure(pres, fam, verdict):
    """The clause a refuted verdict, or a confirmed element that does not
    realise `fam` in P, fails; None for a sound verdict."""
    if verdict.is_refuted:
        return "refuted"
    if not verdict.is_confirmed:
        return None
    q = verdict.element.vector
    if not pres.contains(q):
        return "confirmed element outside P"
    if TruncatedProfiniteElement.from_element(pres, q, fam.level).labels != fam.labels:
        return "confirmed element has a different truncation"
    return None


def test_criterion_4_dimension_formula(monoids):
    """dim of the degree-zero part of R(lambda) counts Delta points in the
    class, and is 1 exactly on classes with a Delta0 representative."""
    ok = True
    for pres in monoids.values():
        for n in (1, 2, 3, 4):
            alg = graded_algebra(pres, n)
            ds = delta_points(pres, n)
            for lam in enumerate_labels(pres, n):
                got = degree_zero_part(twist(alg, lam), 1).total_dim
                reps = ds.points_in_class(lam)
                if got != len(reps):
                    ok = False
                if (ds.delta0_point_in_class(lam) is not None) != (
                    got == 1 and len(reps) == 1
                ):
                    ok = False
    _report(4, ok)
    assert ok


def test_criterion_5_exactness_and_projection_formula(monoids):
    """50 randomized short exact sequences and tensor instances, exact."""
    rng = random.Random(2024)
    cases = [
        (monoids["N"], 4),
        (monoids["N2"], 2),
        (monoids["N2"], 3),
        (monoids["N3"], 2),
        (monoids["nonsimplicial"], 2),
    ]
    ok = True
    for i in range(50):
        pres, n = cases[i % len(cases)]
        alg = graded_algebra(pres, n)
        ker, mid, img, kincl, proj = random_ses(alg, rng)
        ses = ShortExactSequence(inject=kincl, project=proj)
        if not is_exact_sequence(ses):
            ok = False
        for m in (d for d in (1, 2, 3, n) if n % d == 0):
            if not check_exactness(ses, m):
                ok = False
        dim0 = rng.randint(1, 3)
        if not projection_formula_check(dim0, random_module(alg, rng)):
            ok = False
        if not unit_map_check(dim0, alg):
            ok = False
    _report(5, ok)
    assert ok


def test_criterion_6_coherence_witness(monoids):
    """Colon-ideal minimal generator counts: at least n + 1 and strictly
    increasing on the non-simplicial monoid, constant on the quadrant."""
    p = monoids["nonsimplicial"]
    rows = coherence_probe(
        p, (1, 0, 0), (0, 0, 1), [1, 2, 3, 4]
    )
    counts = [r["min_gens"] for r in rows]
    ok = all(c >= n + 1 for c, n in zip(counts, (1, 2, 3, 4)))
    ok = ok and all(a < b for a, b in zip(counts, counts[1:]))
    q_rows = coherence_probe(monoids["N2"], (1, 0), (0, 1), [1, 2, 3, 4])
    q_counts = [r["min_gens"] for r in q_rows]
    ok = ok and len(set(q_counts)) == 1
    _report(6, ok)
    assert ok, (counts, q_counts)


def test_criterion_7_parabolic_equivalence(monoids):
    """Conversion round-trips on all twists and 20 random modules; the
    adjunction dimension identity and both triangle identities on 20
    random pairs."""
    ok = True
    small = [monoids["N"], monoids["N2"], monoids["nonsimplicial"]]
    for pres in small:
        for n in (1, 2, 3):
            alg = graded_algebra(pres, n)
            for lam in enumerate_labels(pres, n):
                mod = twist(alg, lam)
                back = to_graded(from_graded(mod))
                if back.dims != mod.dims:
                    ok = False
                for g in alg.generators:
                    for lab in mod.dims:
                        if back.gen_matrix(g, lab) != mod.gen_matrix(g, lab):
                            ok = False
    rng = random.Random(4096)
    rot = [(pres, n) for pres in small for n in (2, 3)]
    for i in range(20):
        pres, n = rot[i % len(rot)]
        alg = graded_algebra(pres, n)
        mod = random_module(alg, rng)
        back = to_graded(from_graded(mod))
        if back.dims != mod.dims:
            ok = False
        for g in alg.generators:
            for lab in mod.dims:
                if back.gen_matrix(g, lab) != mod.gen_matrix(g, lab):
                    ok = False
    pairs = [
        (monoids["N"], 2, 4),
        (monoids["N"], 1, 3),
        (monoids["N2"], 1, 2),
        (monoids["N2"], 2, 4),
    ]
    done = 0
    while done < 20:
        pres, m, n = pairs[done % len(pairs)]
        alg_m = graded_algebra(pres, m)
        alg_n = graded_algebra(pres, n)
        small_sheaf = from_graded(random_module(alg_m, rng))
        big_sheaf = from_graded(random_module(alg_n, rng))
        lhs, _ = hom_space(induce(small_sheaf, n), big_sheaf)
        rhs, _ = hom_space(small_sheaf, restrict(big_sheaf, m))
        if lhs != rhs:
            ok = False
        ind = _induce_with_data(small_sheaf, n)
        eta = unit_map(small_sheaf, n, ind=ind)
        if not eta.is_isomorphism():
            ok = False
        tri1 = pcompose(
            counit_map(ind[0], m), induce_parabolic_map(eta, n, src_ind=ind)
        )
        if not is_identity(tri1):
            ok = False
        tri2 = pcompose(
            restrict_parabolic_map(counit_map(big_sheaf, m), m),
            unit_map(restrict(big_sheaf, m), n),
        )
        if not is_identity(tri2):
            ok = False
        done += 1
    _report(7, ok)
    assert ok


def test_criterion_8_finite_presentation_criterion(monoids):
    """The weight-integral sheaf fails the induced test at every proper
    divisor of 4; induced sheaves always pass."""
    nat = monoids["N"]
    sky = ParabolicSheaf(nat, 4, QQ, {zero_label(nat, 4): 1}, {})
    ok = not is_induced_from(sky, 1) and not is_induced_from(sky, 2)
    ok = ok and is_induced_from(sky, 4)
    rng = random.Random(512)
    for pres, m, n in ((nat, 2, 4), (monoids["N2"], 1, 2), (nat, 3, 6)):
        alg = graded_algebra(pres, m)
        for _ in range(3):
            sheaf = from_graded(random_module(alg, rng))
            if not is_induced_from(induce(sheaf, n), m):
                ok = False
    _report(8, ok)
    assert ok


def test_criterion_9_kummer_tests(monoids):
    """Root inclusions are Kummer; the two hand-built rank <= 2 instances
    classify correctly; composition on 20 random Kummer chains."""
    ok = True
    for pres in monoids.values():
        for n in (2, 3, 4, 6):
            if not is_kummer(root_inclusion(pres, n)):
                ok = False
    nat, nat2 = monoids["N"], monoids["N2"]
    if not is_kummer(MonoidHom(nat, nat, ((2,),))):
        ok = False
    if is_kummer(MonoidHom(nat2, nat2, ((1, 1), (0, 1)))):
        ok = False
    rng = random.Random(31337)
    done = 0
    while done < 20:
        p = random_sharp_saturated(rng, rank=2)
        f = random_kummer_hom(p, rng)
        g = random_kummer_hom(f.target, rng)
        h = compose(g, f)
        if not (is_kummer(f) and is_kummer(h) and is_kummer(g)):
            ok = False
        done += 1
    _report(9, ok)
    assert ok

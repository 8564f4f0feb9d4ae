"""The dense kernels of `monostack.fields` against sympy.

`rref`, `rank`, `nullspace` and `solve` over QQ, GF(2), GF(3) and GF(97)
(oracle: sympy's `DomainMatrix` over `QQ` or `GF(p)`, `helpers.to_sympy`), on
seeded random matrices with zero rows, zero columns and empty shapes.  The
rref of a row space is unique, and a null space basis vector is fixed by
the free column it is 1 at (0 at the others), so the results must agree
exactly once sympy's null space vectors are scaled to that convention.
Over QQ the kernels return an int wherever a value is integral, and
`jsonio` reads integral payload rationals as ints.
"""

import itertools
import random
from fractions import Fraction

import pytest

from monostack import fields
from monostack.errors import MalformedInput
from monostack.fields import QQ, PrimeField, field_from_spec, field_spec
from monostack.jsonio import frac_from_str, frac_to_str

from helpers import from_sympy, oracle_rref, to_sympy

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(97)]
FIELD_IDS = ["Q", "F2", "F3", "F97"]
SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 4), (4, 1), (2, 5), (4, 4), (5, 3), (6, 6)]


def _entry(rng, field):
    if field.p:
        return field.of_int(rng.randint(-3, 3))
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _random_matrix(rng, field, rows, cols):
    """Entries in a small range, one zero row and one zero column when the
    shape allows, and often one row the sum of two others, so that rank
    deficiency is common."""
    mat = [[_entry(rng, field) for _ in range(cols)] for _ in range(rows)]
    if rows > 1:
        mat[rng.randrange(rows)] = [field.zero] * cols
    if cols > 1:
        j = rng.randrange(cols)
        for row in mat:
            row[j] = field.zero
    if rows > 2 and rng.random() < 0.5:
        i, k, t = rng.sample(range(rows), 3)
        mat[t] = [field.norm(x + y) for x, y in zip(mat[i], mat[k])]
    return tuple(tuple(row) for row in mat)


def _cases(field, seed):
    rng = random.Random(seed)
    return [(shape, _random_matrix(rng, field, *shape)) for shape in SHAPES for _ in range(3)]


def _oracle_nullspace(field, mat, rows, cols):
    """sympy's null space basis, each vector scaled to end in 1: the vector
    of free column f is 1 at f and 0 at the other free columns, so its last
    nonzero entry is at f, and `DomainMatrix` gives a multiple of it."""
    basis = from_sympy(field, to_sympy(field, mat, rows, cols).nullspace().to_list()) if cols else []
    scaled = []
    for v in basis:
        c = field.inv([x for x in v if x][-1])
        scaled.append(tuple(field.norm(c * x) for x in v))
    return scaled


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_rref_and_rank_match_sympy(field):
    for (rows, cols), mat in _cases(field, 1):
        red, pivots = fields.rref(field, mat)
        assert ([tuple(r) for r in red], pivots) == oracle_rref(field, mat, rows, cols), mat
        assert fields.rank(field, mat) == len(pivots)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_nullspace_matches_sympy(field):
    """A matrix without rows does not know its width, so it has no null
    space basis to give; every other shape is compared."""
    for (rows, cols), mat in _cases(field, 2):
        if rows:
            assert list(fields.nullspace(field, mat)) == _oracle_nullspace(field, mat, rows, cols), mat


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_solve_finds_a_solution_exactly_when_one_exists(field):
    """A x = b has a solution iff rank A = rank [A | b]; b is half the time
    A x0 for a random x0, so both verdicts occur."""
    rng = random.Random(3)
    verdicts = set()
    for (rows, cols), mat in _cases(field, 3):
        if not rows:  # as for nullspace, no rows means no known width
            continue
        if rng.random() < 0.5:
            x0 = [_entry(rng, field) for _ in range(cols)]
            b = tuple(field.norm(sum((a * x for a, x in zip(row, x0)), field.zero)) for row in mat)
        else:
            b = tuple(_entry(rng, field) for _ in range(rows))
        aug = tuple(row + (bi,) for row, bi in zip(mat, b))
        consistent = len(oracle_rref(field, mat, rows, cols)[1]) == len(oracle_rref(field, aug, rows, cols + 1)[1])
        x = fields.solve(field, mat, b)
        verdicts.add(consistent)
        assert (x is not None) == consistent, (mat, b)
        if x is not None:
            assert len(x) == cols
            assert all(field.norm(sum((a * xi for a, xi in zip(row, x)), field.zero)) == bi for row, bi in zip(mat, b))
    assert verdicts == {True, False}


def test_qq_is_the_prime_field_of_characteristic_zero():
    assert PrimeField(0) == QQ and hash(PrimeField(0)) == hash(QQ)
    assert QQ != PrimeField(2) and PrimeField(5) == PrimeField(5)
    assert (repr(QQ), repr(PrimeField(5))) == ("QQ", "GF(5)")


@pytest.mark.parametrize("p", [1, 4, 101, -3])
def test_non_prime_or_large_characteristics_are_refused(p):
    with pytest.raises(MalformedInput):
        PrimeField(p)


@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
def test_field_spec_round_trips(spec):
    assert field_spec(field_from_spec(spec)) == spec


@pytest.mark.parametrize("spec", ["Fp:0", "Fp:4", "F5", "", 5, None])
def test_bad_field_specs_are_malformed(spec):
    """A payload's "field" may be any JSON value; a non-string is malformed
    input too, not an AttributeError."""
    with pytest.raises(MalformedInput):
        field_from_spec(spec)


def _integral_fractions(values):
    return [x for x in values if type(x) is Fraction and x.denominator == 1]


def test_qq_results_hold_ints_where_the_value_is_integral():
    """Over QQ an integral value is an int, also where the input holds
    integral Fractions: rref, nullspace, solve and mat_mul bring every
    entry they return into that form."""
    assert type(QQ.of_int(3)) is int and type(QQ.zero) is int and type(QQ.one) is int
    for seed in (1, 2, 3):
        for (rows, cols), mat in _cases(QQ, seed):
            red, _ = fields.rref(QQ, mat)
            assert not _integral_fractions(x for row in red for x in row), mat
            if rows:
                assert not _integral_fractions(x for v in fields.nullspace(QQ, mat) for x in v), mat
                x = fields.solve(QQ, mat, tuple(Fraction(k) for k in range(rows)))
                assert x is None or not _integral_fractions(x), mat
            square = fields.mat_mul(QQ, mat, tuple(zip(*mat)))
            assert not _integral_fractions(x for row in square for x in row), mat


def test_qq_keeps_true_fractions_and_gf_p_stays_in_range():
    assert fields.rref(QQ, ((2, 1),)) == (((1, Fraction(1, 2)),), [0])
    assert type(QQ.inv(1)) is Fraction and QQ.norm(QQ.inv(1)) == 1 and type(QQ.norm(QQ.inv(1))) is int
    for field in FIELDS[1:]:
        assert field.zero == 0 and field.one == 1 and field.of_int(-1) == field.p - 1
        for (rows, cols), mat in _cases(field, 1):
            red, _ = fields.rref(field, mat)
            assert all(type(x) is int and 0 <= x < field.p for row in red for x in row)


def _zero_factor(rng, field, rows, cols):
    """An all-zero matrix: ints, or over QQ `Fraction(0)` entries half the
    time; over GF(p) multiples of p half the time, which are not reduced."""
    if field.p:
        k = field.p if rng.random() < 0.5 else 0
        return tuple(tuple(k * rng.randint(0, 2) for _ in range(cols)) for _ in range(rows))
    zero = Fraction(0) if rng.random() < 0.5 else 0
    return tuple(tuple(zero for _ in range(cols)) for _ in range(rows))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_mat_mul_dims_through_zero_factors_and_empty_middles(field):
    """`mat_mul_dims` against a triple-loop product, for random and zero
    factors on either side and every zero-dimensional rows, middle or
    columns: the shape is the declared one and each entry a field element
    (an int for a zero result)."""
    rng = random.Random(6)
    for rows, mid, cols in itertools.product((0, 1, 3), (0, 1, 2, 4), (0, 1, 3)):
        for zero_a, zero_b in itertools.product((False, True), repeat=2):
            a = _zero_factor(rng, field, rows, mid) if zero_a else _random_matrix(rng, field, rows, mid)
            b = _zero_factor(rng, field, mid, cols) if zero_b else _random_matrix(rng, field, mid, cols)
            want = tuple(
                tuple(field.norm(sum((a[r][k] * b[k][c] for k in range(mid)), field.zero)) for c in range(cols))
                for r in range(rows)
            )
            got = fields.mat_mul_dims(field, a, b, rows, mid, cols)
            assert got == want, (a, b)
            assert _in_field(field, (x for row in got for x in row)), (a, b)
            if zero_a or zero_b:
                assert got == fields.zero_matrix(field, rows, cols)


SPARSE_SHAPES = [(1, 8), (8, 1), (5, 9), (9, 5), (12, 12), (20, 14), (14, 20)]


def _sparse_entry(rng, field):
    """About 20% nonzero and mostly +-1, as in the relation rows of
    induction.  Over QQ integral values come as Fractions half the time,
    zeros included; over GF(p) every value is an unreduced int, zeros
    included, so the kernels must normalise what they do not touch."""
    if rng.random() < 0.8:
        c = 0
    elif rng.random() < 0.8:
        c = rng.choice((1, -1))
    else:
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if field.p:
        return int(c) + field.p * rng.randint(-2, 2)
    return Fraction(c) if rng.random() < 0.5 else c


def _sparse_cases(field, seed):
    rng = random.Random(seed)
    return [
        (shape, tuple(tuple(_sparse_entry(rng, field) for _ in range(shape[1])) for _ in range(shape[0])))
        for shape in SPARSE_SHAPES
        for _ in range(4)
    ]


def _in_field(field, values):
    values = list(values)
    if field.p:
        return all(type(x) is int and 0 <= x < field.p for x in values)
    return not _integral_fractions(values)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_sparse_kernels_match_sympy_and_normalise_their_input(field):
    """The kernels file only the nonzero entries of each row, unreduced, so
    the oracles agree and every entry is a field element (no integral
    Fraction, no GF(p) int outside [0, p)) only because the elimination
    normalises its input on copy."""
    rng = random.Random(4)
    for (rows, cols), mat in _sparse_cases(field, 4):
        red, pivots = fields.rref(field, mat)
        assert ([tuple(r) for r in red], pivots) == oracle_rref(field, mat, rows, cols), mat
        assert _in_field(field, (x for row in red for x in row)), mat
        basis = fields.nullspace(field, mat)
        assert list(basis) == _oracle_nullspace(field, mat, rows, cols), mat
        assert _in_field(field, (x for v in basis for x in v)), mat
        b = tuple(_sparse_entry(rng, field) for _ in range(rows))
        aug = tuple(row + (bi,) for row, bi in zip(mat, b))
        consistent = len(oracle_rref(field, mat, rows, cols)[1]) == len(oracle_rref(field, aug, rows, cols + 1)[1])
        x = fields.solve(field, mat, b)
        assert (x is not None) == consistent, (mat, b)
        if x is not None:
            assert _in_field(field, x), (mat, b)
            assert all(field.norm(sum((a * xi for a, xi in zip(row, x)), field.zero) - bi) == field.zero for row, bi in zip(mat, b))


def _operator(mat):
    """A dense matrix as a sparse operator {column: {row: entry}}, with every
    truthy entry kept as it is (unreduced over GF(p), integral Fractions
    over QQ)."""
    op = {}
    for r, row in enumerate(mat):
        for c, x in enumerate(row):
            if x:
                op.setdefault(c, {})[r] = x
    return op


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_sparse_compose_is_the_normalised_product(field):
    """`sparse_compose(A, B)` is the operator of the dense product A B: each
    entry a field element, no zero entry and no empty column, so operators
    compare equal exactly when their products do."""
    rng = random.Random(7)
    for _ in range(40):
        rows, mid, cols = (rng.randint(1, 9) for _ in range(3))
        a = tuple(tuple(_sparse_entry(rng, field) for _ in range(mid)) for _ in range(rows))
        b = tuple(tuple(_sparse_entry(rng, field) for _ in range(cols)) for _ in range(mid))
        want = tuple(
            tuple(field.norm(sum((a[r][k] * b[k][c] for k in range(mid)), field.zero)) for c in range(cols))
            for r in range(rows)
        )
        got = fields.sparse_compose(field, _operator(a), _operator(b))
        assert got == _operator(want), (a, b)
        assert all(col for col in got.values()) and all(x for col in got.values() for x in col.values())
        assert _in_field(field, (x for col in got.values() for x in col.values())), (a, b)


def test_sparse_compose_brings_fraction_sums_into_qq():
    """An integral Fraction sum comes back as an int, one that cancels is dropped."""
    half = {0: {0: Fraction(1, 2), 1: Fraction(1, 3)}}
    assert fields.sparse_compose(QQ, half, {0: {0: 2}, 1: {0: 3}}) == {0: {0: 1, 1: Fraction(2, 3)}, 1: {0: Fraction(3, 2), 1: 1}}
    assert type(fields.sparse_compose(QQ, half, {0: {0: 2}})[0][0]) is int
    assert fields.sparse_compose(QQ, {0: {0: Fraction(1, 2)}, 1: {0: -1}}, {0: {0: 2, 1: 1}}) == {}


@pytest.mark.parametrize("text", [" 3", "+3", "-0", "007", "3.0", "1e2", "\u0663", "\u00b2", "1/0", "", "-", "12", "-45", "2/4"])
def test_frac_from_str_matches_the_fraction_parse(text):
    """The int fast path gives every string the value and type, or the
    MalformedInput, of the plain `Fraction` parse.  "\u0663" (ARABIC-INDIC
    DIGIT THREE) reads as 3; "\u00b2" (SUPERSCRIPT TWO) is a digit to
    `str.isdigit` that neither `int` nor `Fraction` reads."""
    from monostack.errors import MalformedInput

    try:
        x = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(MalformedInput, match="bad rational"):
            frac_from_str(text)
        return
    want = x.numerator if x.denominator == 1 else x
    got = frac_from_str(text)
    assert (got, type(got)) == (want, type(want))


def test_payload_rationals_read_as_ints_when_integral():
    assert type(frac_from_str("4/2")) is int and frac_from_str("4/2") == 2
    assert type(frac_from_str("-3")) is int and frac_from_str("-3") == -3
    assert frac_from_str("1/2") == Fraction(1, 2) and type(frac_from_str("1/2")) is Fraction
    assert [frac_to_str(x) for x in (2, Fraction(4, 2), Fraction(-1, 3))] == ["2", "2", "-1/3"]

"""Exact field arithmetic and dense linear algebra.

The coefficient field is a prime field, `PrimeField(p)`: the rationals
`QQ = PrimeField(0)` (elements are ints, or `fractions.Fraction`s once a
division makes the value fractional) or `GF(p)` for a prime p <= 97
(elements are plain ints in [0, p)).  The matrix routines compute with
Python's operators and bring each result back into the field with `norm`,
so graded/parabolic code runs one code path for both fields.  Matrices
are tuples of row tuples; vectors are tuples.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import MalformedInput


class PrimeField:
    """The prime field of characteristic p: QQ for p = 0, else GF(p)."""

    def __init__(self, p):
        if p and (p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1))):
            raise MalformedInput(f"{p} is not prime")
        if p > 97:
            raise MalformedInput("prime fields are supported for p <= 97")
        self.p = p
        self.zero = self.of_int(0)
        self.one = self.of_int(1)

    def of_int(self, n):
        return n % self.p if self.p else n

    def norm(self, a):
        """The field element of a sum or product: a mod p, or over QQ the int of an integral value."""
        return a % self.p if self.p else a.numerator if type(a) is Fraction and a.denominator == 1 else a

    def inv(self, a):
        # Fraction(1) / a, not 1 / a: QQ elements are often ints
        return pow(a, -1, self.p) if self.p else Fraction(1) / a

    def __repr__(self):
        return f"GF({self.p})" if self.p else "QQ"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


QQ = PrimeField(0)


def field_from_spec(spec):
    """Parse a field tag: "Q" or "Fp:<prime>"."""
    if spec == "Q":
        return QQ
    if isinstance(spec, str) and spec.startswith("Fp:") and int(spec[3:]):  # "Fp:0" is no prime field
        return PrimeField(int(spec[3:]))
    raise MalformedInput(f"unknown field spec {spec!r}")


def field_spec(field):
    return f"Fp:{field.p}" if field.p else "Q"


# ---------------------------------------------------------------------------
# dense matrices over a field


def zero_matrix(field, rows, cols):
    return tuple(tuple(field.zero for _ in range(cols)) for _ in range(rows))


def identity_matrix(field, n):
    return tuple(
        tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)
    )


def mat_from_rows(rows):
    return tuple(tuple(row) for row in rows)


def _dot(field, u, v):
    return field.norm(sum(map(mul, u, v)))


def mat_mul(field, a, b):
    if not a:
        return ()
    bt = tuple(zip(*b)) if b else ()
    return tuple(tuple(_dot(field, row, col) for col in bt) for row in a)


def mat_mul_dims(field, a, b, rows, mid, cols):
    """Product with explicit shapes; exact even through zero-dimensional middles.

    Tuples-of-tuples cannot carry the column count of an empty matrix, so
    compositions through a 0-dimensional space need the shape spelled out.
    """
    if rows == 0 or cols == 0 or mid == 0:
        return zero_matrix(field, rows, cols)
    return mat_mul(field, a, b)


def mat_add(field, a, b):
    return tuple(tuple(field.norm(x + y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(field, c, a):
    return tuple(tuple(field.norm(c * x) for x in row) for row in a)


def mat_eq_zero(a):
    return not any(map(any, a))


def rref(field, m):
    """Reduced row echelon form.  Returns (rows, pivot column list); the
    rows past the pivots are zero.  The input is normalised once, on copy,
    so a step need only update the columns where the pivot row is nonzero."""
    norm = field.norm
    rows = [list(map(norm, r)) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        for k in range(r, nrows):
            if rows[k][c]:
                break
        else:
            continue
        prow = rows[k]
        rows[r], rows[k] = prow, rows[r]
        p = prow[c]
        if p != 1:
            inv = -1 if p == -1 else norm(field.inv(p))
            prow = rows[r] = [norm(inv * x) for x in prow]
        nonzero = [(j, y) for j, y in enumerate(prow) if y]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                for j, y in nonzero:
                    row[j] = norm(row[j] - f * y)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows[:r]) + ((field.zero,) * ncols,) * (nrows - r), pivots


def rank(field, m):
    if not m or not m[0]:
        return 0
    return len(rref(field, m)[1])


def solve(field, a, b):
    """One solution x of A x = b, or None.  A is given by rows."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    red, pivots = rref(field, [list(a[i]) + [b[i]] for i in range(nrows)])
    if pivots and pivots[-1] == ncols:  # a row 0 = nonzero
        return None
    x = [field.zero] * ncols
    for i, c in enumerate(pivots):
        x[c] = red[i][-1]
    return tuple(x)


def nullspace(field, a):
    """Basis of the right null space of A (rows)."""
    if not a:
        return ()
    ncols = len(a[0])
    red, pivots = rref(field, a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [field.zero] * ncols
        v[f] = field.one
        for i, c in enumerate(pivots):
            v[c] = field.norm(-red[i][f])
        basis.append(tuple(v))
    return tuple(basis)

"""Exact field arithmetic and dense linear algebra.

Two coefficient fields are supported: the rationals (`QQ`, backed by
`fractions.Fraction`) and prime fields `GF(p)` for small p (elements are
plain ints reduced mod p).  All matrix routines are written against the
small `Field` interface below, so graded/parabolic code is generic in the
field.  Matrices are tuples of row tuples; vectors are tuples.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import MalformedInput


class Field:
    """Interface shared by QQ and GF(p)."""

    zero = None
    one = None

    def of_int(self, n):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def neg(self, a):
        return self.sub(self.zero, a)

    def is_zero(self, a):
        return a == self.zero


class RationalField(Field):
    zero = Fraction(0)
    one = Fraction(1)

    def of_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return Fraction(1) / a

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField(Field):
    def __init__(self, p):
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise MalformedInput(f"{p} is not prime")
        if p > 97:
            raise MalformedInput("prime fields are supported for p <= 97")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def of_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in GF(p)")
        return pow(a, self.p - 2, self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()


def field_from_spec(spec):
    """Parse a field tag: "Q" or "Fp:<prime>"."""
    if spec == "Q":
        return QQ
    if spec.startswith("Fp:"):
        return PrimeField(int(spec[3:]))
    raise MalformedInput(f"unknown field spec {spec!r}")


def field_spec(field):
    return "Q" if field == QQ else f"Fp:{field.p}"


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
    acc = field.zero
    for a, b in zip(u, v):
        if a and b:  # a term with an exact zero factor adds nothing
            acc = field.add(acc, field.mul(a, b))
    return acc


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
    if rows == 0 or cols == 0:
        return zero_matrix(field, rows, cols)
    if mid == 0:
        return zero_matrix(field, rows, cols)
    return mat_mul(field, a, b)


def mat_add(field, a, b):
    return tuple(
        tuple(field.add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_scale(field, c, a):
    return tuple(tuple(field.mul(c, x) for x in row) for row in a)


def mat_eq_zero(field, a):
    return all(field.is_zero(x) for row in a for x in row)


def rref(field, m):
    """Reduced row echelon form.  Returns (rows, pivot column list)."""
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next(
            (i for i in range(r, nrows) if not field.is_zero(rows[i][c])), None
        )
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and not field.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [
                    field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], rows[r])
                ]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), pivots


def rank(field, m):
    if not m or not m[0]:
        return 0
    return len(rref(field, m)[1])


def solve(field, a, b):
    """One solution x of A x = b, or None.  A is given by rows."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    aug = [list(a[i]) + [b[i]] for i in range(nrows)]
    red, pivots = rref(field, aug)
    for row in red:
        if all(field.is_zero(x) for x in row[:-1]) and not field.is_zero(row[-1]):
            return None
    x = [field.zero] * ncols
    for i, c in enumerate(pivots):
        if c == ncols:
            return None
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
            v[c] = field.neg(red[i][f])
        basis.append(tuple(v))
    return tuple(basis)


def column_space_basis(field, m):
    """Indices of a maximal independent subset of columns."""
    return rref(field, m)[1]

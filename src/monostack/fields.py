"""Exact field arithmetic, one sparse elimination and dense test helpers.

The coefficient field is a prime field, `PrimeField(p)`: the rationals
`QQ = PrimeField(0)` (elements are ints, or `fractions.Fraction`s once a
division makes the value fractional) or `GF(p)` for a prime p <= 97
(elements are plain ints in [0, p)).  The matrix routines compute with
Python's operators and bring each result back into the field, so
graded/parabolic code runs one code path for both fields.  Actions and
maps are sparse operators (`sparse_compose`); the dense matrices here,
tuples of row tuples, and their routines serve only tests and benchmark.

`PresentedSpace`, the quotient of a free space by relation rows, takes
sparse rows {column: coefficient} and eliminates them sparsely.  It is the
only Gauss-Jordan elimination here: the quotient constructions of `graded`
and `parabolic` and the kernels and images of maps run on it, and the
dense `rref`, `rank`, `solve` and `nullspace` file their rows into it.
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


def mat_mul(field, a, b):
    """The product A B, each entry brought into the field once: `% p` over
    GF(p); over QQ an int sum is already normal, so only a `Fraction` sum
    goes through `norm`."""
    if not a:
        return ()
    bt = tuple(zip(*b)) if b else ()
    p = field.p
    if p:
        return tuple(tuple(sum(map(mul, row, col)) % p for col in bt) for row in a)
    norm = field.norm
    return tuple(tuple(s if type(s := sum(map(mul, row, col))) is int else norm(s) for col in bt) for row in a)


def mat_mul_dims(field, a, b, rows, mid, cols):
    """Product with explicit shapes; exact even through zero-dimensional middles.

    Tuples-of-tuples cannot carry the column count of an empty matrix, so
    compositions through a 0-dimensional space need the shape spelled out.
    A zero factor gives the zero matrix without multiplying.
    """
    if rows == 0 or cols == 0 or mid == 0 or mat_eq_zero(a) or mat_eq_zero(b):
        return zero_matrix(field, rows, cols)
    return mat_mul(field, a, b)


def mat_add(field, a, b):
    return tuple(tuple(field.norm(x + y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(field, c, a):
    return tuple(tuple(field.norm(c * x) for x in row) for row in a)


def mat_eq_zero(a):
    return not any(map(any, a))


def _eliminate(field, m):
    """The `PresentedSpace` of the rows of a dense matrix, columns as generators."""
    return PresentedSpace(field, len(m[0]) if m else 0, [{j: x for j, x in enumerate(row) if x} for row in m])


def rref(field, m):
    """Reduced row echelon form (rows, pivot column list), the rows past the
    pivots zero; only the tests and the benchmark's span tracer call it."""
    space = _eliminate(field, m)
    zero, ncols = field.zero, space.ngens
    red = tuple(tuple(row.get(j, zero) for j in range(ncols)) for row in space.rows)
    return red + ((zero,) * ncols,) * (len(m) - len(red)), space.pivots


def rank(field, m):
    return len(_eliminate(field, m).pivots)


def solve(field, a, b):
    """One solution x of A x = b, or None.  A is given by rows."""
    ncols = len(a[0]) if a else 0
    space = _eliminate(field, [(*row, y) for row, y in zip(a, b)])
    if space.pivots and space.pivots[-1] == ncols:  # a row 0 = nonzero
        return None
    x = [field.zero] * ncols
    for c, row in zip(space.pivots, space.rows):
        x[c] = row.get(ncols, field.zero)
    return tuple(x)


def nullspace(field, a):
    """Basis of the right null space of A (rows)."""
    return _eliminate(field, a).nullspace()


# ---------------------------------------------------------------------------
# sparse elimination


class PresentedSpace:
    """Quotient of a free space k^ngens by sparse relation rows.

    `relations` is a sized sequence of rows {column: coefficient}; entries
    are brought into the field on copy (`% p` over GF(p), integral
    `Fraction`s to ints over QQ) and zeros are dropped.  Sparse
    Gauss-Jordan elimination (T. A. Davis, *Direct Methods for Sparse
    Linear Systems*, SIAM 2006) takes the columns left to right, with an
    index from each column to the rows that use it.  The pivot of a column
    is a row not yet pivoted that uses it, a +-1 entry first, then the
    shortest row; the pivot row is scaled to 1 there and the column is
    cleared from every other row that uses it, earlier pivot rows
    included.  Int arithmetic over QQ is already normal, so only a
    non-int result goes through `norm`.

    The result is the reduced row echelon form of the row space: `pivots`
    (its pivot columns, ascending), `rows` (the pivot rows, sparse, 1 at the
    pivot) and `free`, the other columns, which index the quotient basis.
    It does not depend on which rows the pivoting picks, because for a fixed
    column order that form is unique.  Column c is a pivot exactly when
    the row space projected onto the columns <= c is larger than projected
    onto the columns < c, a property of the space alone; and the row with
    pivot c is the only vector of the space with 1 at c and 0 at every
    other pivot column, for the difference of two such vectors would be a
    nonzero vector of the space that vanishes at its leading column, and
    the leading column of a nonzero vector is always a pivot column.  So
    `pivots`, `rows`, `free` and every coordinate `reduce` returns are
    fixed by the row space alone, and the dense `rref` is these rows
    written out.
    """

    def __init__(self, field, ngens, relations):
        self.field = field
        self.ngens = ngens
        p = field.p
        norm = field.norm
        if p:
            rows = [{j: c % p for j, c in r.items() if c % p} for r in relations]
            units = (1, p - 1)
        else:
            rows = [{j: c if type(c) is int else norm(c) for j, c in r.items() if c} for r in relations]
            units = (1, -1)
        uses = {}
        for r, row in enumerate(rows):
            for j in row:
                if j in uses:
                    uses[j].add(r)
                else:
                    uses[j] = {r}
        # fill-in only reaches columns the pivot row already uses, so no
        # column outside `uses` ever becomes nonzero
        pivots, chosen, done = [], [], set()
        for c in sorted(uses):
            holders = uses[c]
            cands = [r for r in holders if r not in done]
            if not cands:
                continue
            pr = cands[0] if len(cands) == 1 else min(cands, key=lambda r: (rows[r][c] not in units, len(rows[r])))
            prow = rows[pr]
            v = prow[c]
            if v != 1:
                if p:
                    inv = pow(v, -1, p)
                    prow = {j: x * inv % p for j, x in prow.items()}
                elif v == -1:
                    prow = {j: -x for j, x in prow.items()}
                else:
                    inv = field.inv(v)
                    prow = {j: norm(x * inv) for j, x in prow.items()}
                rows[pr] = prow
            done.add(pr)
            pivots.append(c)
            chosen.append(pr)
            tail = [(j, -y) for j, y in prow.items() if j != c]
            for r in holders:
                if r == pr:
                    continue
                row = rows[r]
                f = row.pop(c)
                for j, y in tail:
                    old = row.get(j)
                    x = f * y if old is None else old + f * y
                    if p:
                        x %= p
                    elif type(x) is not int:
                        x = norm(x)
                    if x:
                        row[j] = x
                        if old is None:
                            uses[j].add(r)
                    else:
                        del row[j]
                        uses[j].discard(r)
            uses[c] = {pr}
        self.pivots = pivots
        self.rows = [rows[r] for r in chosen]
        self._row_at = dict(zip(pivots, self.rows))
        self.free = [j for j in range(ngens) if j not in self._row_at]
        self.dim = len(self.free)
        self._reduced = {}

    def reduce(self, vec):
        """Quotient coordinates of a sparse generator vector {column: coefficient}.

        The pivot rows vanish at every other pivot column, so subtracting
        vec[c] times the row of each pivot c in one pass clears them all."""
        key = tuple(vec.items())
        if key in self._reduced:
            return self._reduced[key]
        row_at = self._row_at
        out = {}
        for j, c in vec.items():
            row = row_at.get(j)
            if row is None:
                out[j] = out.get(j, 0) + c
            else:
                for k, y in row.items():
                    out[k] = out.get(k, 0) - c * y
        p = self.field.p
        if p:
            got = tuple(out.get(j, 0) % p for j in self.free)
        else:
            norm = self.field.norm
            got = tuple(x if type(x := out.get(j, 0)) is int else norm(x) for j in self.free)
        self._reduced[key] = got
        return got

    def unit(self, k):
        return self.reduce({k: self.field.one})

    def nullspace(self):
        """Basis of the vectors the relation rows annihilate: one per free
        column f, with 1 at f and -row[f] at the pivot of each row."""
        field, p = self.field, self.field.p
        basis = {f: [field.zero] * self.ngens for f in self.free}
        for f, vec in basis.items():
            vec[f] = field.one
        for c, row in zip(self.pivots, self.rows):
            for f, y in row.items():
                if f != c:
                    basis[f][c] = -y % p if p else -y
        return tuple(map(tuple, basis.values()))


def present_each(field, blocks):
    """(label, space) per (label, ngens, rows) block, read lazily, with one
    elimination per distinct block.  A `PresentedSpace` is a function of
    (field, ngens, rows), its reduced row echelon form being unique, so
    blocks with equal ngens and equal rows share one space and its `reduce`."""
    seen = {}
    for label, ngens, rows in blocks:
        shelf = seen.setdefault((ngens, len(rows)), [])  # rows compare as dicts: a hashed key would copy every entry
        space = next((sp for other, sp in shelf if other == rows), None)
        if space is None:
            shelf.append((rows, space := PresentedSpace(field, ngens, rows)))
        yield label, space


def sparse_compose(field, a, b):
    """The composite A B of sparse operators {column: {row: entry}}.

    Each column of B is a combination of columns of A; each entry is
    brought into the field once, as in `PresentedSpace`, and zero entries
    and zero columns are dropped, so a zero operator is {} and two
    operators are equal exactly when their dicts are.  A column of B with
    one entry x at k is x times column k of A; when x is 1 and that column
    is one entry already in normal form, the result holds that column dict
    itself, so the caller must change no column of A or of the result."""
    p, norm = field.p, field.norm
    out = {}
    for c, col in b.items():
        if len(col) == 1:
            ((k, x),) = col.items()
            if not (acol := a.get(k)):
                continue
            if x == 1 and len(acol) == 1:
                (y,) = acol.values()
                if (0 < y < p) if p else (y and norm(y) is y):
                    out[c] = acol
                    continue
            if p:
                acc = {r: s for r, y in acol.items() if (s := x * y % p)}
            else:
                acc = {r: s if type(s) is int else norm(s) for r, y in acol.items() if (s := x * y)}
            if acc:
                out[c] = acc
            continue
        acc = {}
        for k, x in col.items():
            for r, y in a.get(k, {}).items():
                acc[r] = acc.get(r, 0) + x * y
        if p:
            acc = {r: s % p for r, s in acc.items() if s % p}
        else:
            acc = {r: s if type(s) is int else norm(s) for r, s in acc.items() if s}
        if acc:
            out[c] = acc
    return out

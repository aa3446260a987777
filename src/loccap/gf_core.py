"""Exact linear algebra over prime fields F_q.

Matrices are immutable, stored row-major as tuples of canonical residues
in [0, q).  Everything here is a pure function; results can be shared
freely between threads.  A field remembers the inverses its eliminations
have looked up; every write stores the one true inverse, so sharing a
field between threads stays safe.

Enumerations are lazy and refuse more than ``ENUM_BUDGET`` items before
the first.  Full-column-rank matrices come as column tuples from
``full_rank_columns``, for callers that read only entries or rows, such
as the channel generators; ``enumerate_full_rank`` is the ``MatrixGF``
view of the same sequence, for callers that multiply.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import chain, product
from operator import add, mod
from typing import Iterator

from . import qcomb

ENUM_BUDGET = 10**7     # the most matrices or subspaces one enumeration yields


class GFError(Exception):
    """Base error for field / matrix operations."""


class DimensionMismatch(GFError):
    pass


class FieldMismatch(GFError):
    pass


class NotInSpan(GFError):
    """solve_factor target is not in the column space of the divisor."""


class NotFullColumnRank(GFError):
    """solve_factor divisor fails the full-column-rank precondition."""


class BudgetExceeded(GFError):
    """An enumeration would exceed the configured element budget."""


def check_power(q: int, e: int, budget: int, what: str) -> None:
    """Refuse q^e items of ``what`` over budget, by the exponent: q^e
    exceeds the budget once e reaches its bit length."""
    if q ** min(e, budget.bit_length()) > budget:
        raise BudgetExceeded(f"{q}^{e} {what} exceeds budget {budget}")


def bounded_xi(m: int, r: int, q: int, budget: int, what: str) -> int:
    """xi(m, r, q) for r <= m, a product of r factors q^m - q^i that are
    each at least q^(m-1).  If q^(m-1) is over budget, it is refused as
    q^((m-1) r) or more; otherwise its factors are at most q * budget."""
    if r and q ** min(m - 1, budget.bit_length()) > budget:
        raise BudgetExceeded(f"{q}^{(m - 1) * r} or more {what} exceeds "
                             f"budget {budget}")
    return qcomb.xi(m, r, q)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class _Inverses(dict):
    """a -> a^-1 mod q for residues a in [1, q), each computed on its
    first lookup, so a large field costs only the inverses it uses."""

    def __init__(self, q: int):
        super().__init__()
        self.q = q

    def __missing__(self, a: int) -> int:
        inv = self[a] = pow(a, self.q - 2, self.q)
        return inv


@dataclass(frozen=True)
class FieldSpec:
    """A prime field F_q."""

    q: int
    inverses: _Inverses = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _is_prime(self.q):
            raise GFError(f"field order must be prime, got {self.q}")
        object.__setattr__(self, "inverses", _Inverses(self.q))

    def inv(self, a: int) -> int:
        a %= self.q
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self.inverses[a]


@dataclass(frozen=True)
class MatrixGF:
    """Dense matrix over a prime field, row-major entries."""

    field: FieldSpec
    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise GFError("negative dimension")
        if len(self.entries) != self.rows * self.cols:
            raise GFError("entry count does not match dimensions")
        ent = self.entries
        if ent and (min(ent) < 0 or max(ent) >= self.field.q):
            raise GFError("entry out of range [0, q)")

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> tuple:
        return self.entries[r * self.cols:(r + 1) * self.cols]

    def to_lists(self) -> list:
        return row_lists(self.entries, self.cols)

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in self.row(r))
                         for r in range(self.rows))
        return f"MatrixGF(q={self.field.q}, [{body}])"


def row_lists(entries: tuple, cols: int) -> list:
    """The row-major entries of a matrix with cols columns, as row lists."""
    return [list(entries[i:i + cols]) for i in range(0, len(entries), cols)]


def matrix(field: FieldSpec, rows_data) -> MatrixGF:
    """Build a matrix from a list of row lists, reducing entries mod q."""
    rows = len(rows_data)
    cols = len(rows_data[0]) if rows else 0
    if any(len(r) != cols for r in rows_data):
        raise GFError("ragged rows")
    ent = tuple(int(e) % field.q for r in rows_data for e in r)
    return MatrixGF(field, rows, cols, ent)


def zeros(field: FieldSpec, rows: int, cols: int) -> MatrixGF:
    return MatrixGF(field, rows, cols, (0,) * (rows * cols))


def identity(field: FieldSpec, n: int) -> MatrixGF:
    ent = tuple(1 if i == j else 0 for i in range(n) for j in range(n))
    return MatrixGF(field, n, n, ent)


def mat_mul(a: MatrixGF, b: MatrixGF) -> MatrixGF:
    if a.field != b.field:
        raise FieldMismatch("operands over different fields")
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    q = a.field.q
    out = []
    for i in range(a.rows):
        ar = a.row(i)
        for j in range(b.cols):
            s = 0
            for k in range(a.cols):
                s += ar[k] * b.entries[k * b.cols + j]
            out.append(s % q)
    return MatrixGF(a.field, a.rows, b.cols, tuple(out))


def transpose(a: MatrixGF) -> MatrixGF:
    ent = tuple(a.entries[r * a.cols + c]
                for c in range(a.cols) for r in range(a.rows))
    return MatrixGF(a.field, a.cols, a.rows, ent)


def _reduce(rows: list, q: int, inverses: _Inverses) -> list:
    """Bring a list of equal-length row lists over F_q to reduced row
    echelon form in place; returns the pivot columns.

    Stops once every row holds a pivot.  Entries must lie in [0, q).
    """
    n = len(rows)
    pivots = []
    for col in range(len(rows[0]) if n else 0):
        pr = len(pivots)
        for sel in range(pr, n):
            if rows[sel][col]:
                break
        else:
            continue
        piv = rows[sel]
        rows[sel] = rows[pr]
        x = piv[col]
        if x != 1:
            x = inverses[x]
            piv = [v * x % q for v in piv]
        rows[pr] = piv
        for r in range(n):
            f = rows[r][col]
            if f and r != pr:
                rows[r] = [(v - f * w) % q for v, w in zip(rows[r], piv)]
        pivots.append(col)
        if pr + 1 == n:
            break
    return pivots


def reduced_rows(a: MatrixGF):
    """The rows of a as lists, in reduced row echelon form, and the pivot
    columns: the first len(pivots) rows are the nonzero ones."""
    c, ent = a.cols, a.entries
    rows = [list(ent[i * c:i * c + c]) for i in range(a.rows)]
    return rows, _reduce(rows, a.field.q, a.field.inverses)


def rref(a: MatrixGF):
    """Reduced row-echelon form.

    Returns (R, rank, pivot_cols).  R has the same shape as a; its first
    `rank` rows are the nonzero rows, the rest are zero.
    """
    rows, pivots = reduced_rows(a)
    red = MatrixGF(a.field, a.rows, a.cols, tuple(chain.from_iterable(rows)))
    return red, len(pivots), pivots


def rank(a: MatrixGF) -> int:
    return len(reduced_rows(a)[1])


def solve_factor(a: MatrixGF, b: MatrixGF) -> MatrixGF:
    """The factor operator: the unique C with b @ C = a.

    Requires b to have full column rank and the column space of a to lie
    inside the column space of b.
    """
    if a.field != b.field:
        raise FieldMismatch("operands over different fields")
    if a.rows != b.rows:
        raise DimensionMismatch("a and b must have the same row count")
    # Row-reduce the augmented matrix [b | a].
    aug = MatrixGF(
        a.field, a.rows, b.cols + a.cols,
        tuple(e for r in range(a.rows) for e in (b.row(r) + a.row(r))),
    )
    red, rk, piv = rref(aug)
    b_piv = [c for c in piv if c < b.cols]
    if len(b_piv) < b.cols:
        raise NotFullColumnRank("divisor does not have full column rank")
    # Any pivot in the augmented block means a is not in the span of b.
    if any(c >= b.cols for c in piv):
        raise NotInSpan("target columns not in the span of the divisor")
    ent = tuple(red[(i, b.cols + j)] for i in range(b.cols)
                for j in range(a.cols))
    return MatrixGF(a.field, b.cols, a.cols, ent)


def all_matrices(field: FieldSpec, rows: int,
                 cols: int) -> Iterator[MatrixGF]:
    """Yield every rows x cols matrix over the field, lexicographically."""
    check_power(field.q, rows * cols, ENUM_BUDGET, "matrices")
    for ent in product(range(field.q), repeat=rows * cols):
        yield MatrixGF(field, rows, cols, ent)


def full_rank_columns(t: int, r: int, field: FieldSpec) -> Iterator[tuple]:
    """Yield the columns of every full-column-rank t x r matrix exactly
    once, as a tuple of r column tuples (one empty tuple when r = 0).

    Order is lexicographic on the column sequence (each column read
    top-to-bottom as a base-q number).  Each prefix of r - 1 columns
    makes its extensions in one list comprehension over the vectors
    outside its span, and nested ``chain``s hand them on: no generator
    frame and no MatrixGF is made per matrix.  The budget is checked
    before the first item, and the matrices are made one prefix at a
    time.
    """
    if r < 0 or r > t:
        return
    q = field.q
    count = bounded_xi(t, r, q, ENUM_BUDGET, "matrices")
    if count > ENUM_BUDGET:
        raise BudgetExceeded(f"{count} matrices exceeds budget {ENUM_BUDGET}")
    if r == 0:
        yield ()
        return
    vectors = list(product(range(q), repeat=t))
    qs = (q,) * t

    def wider(span, vec):
        """The span of the columns of span and vec: each vector of span
        plus each nonzero multiple of vec, entry by entry at C level."""
        multiples = [tuple(c * y % q for y in vec) for c in range(1, q)]
        return span.union([tuple(map(mod, map(add, s, m), qs))
                           for m in multiples for s in span])

    def rec(cols, span):
        """The matrices that extend cols, whose span is the set of their
        linear combinations; the last column needs no wider span."""
        if len(cols) + 1 == r:
            return [cols + (vec,) for vec in vectors if vec not in span]
        return chain.from_iterable(rec(cols + (vec,), wider(span, vec))
                                   for vec in vectors if vec not in span)

    yield from rec((), {(0,) * t})


def enumerate_full_rank(t: int, r: int,
                        field: FieldSpec) -> Iterator[MatrixGF]:
    """Yield every full-column-rank t x r matrix exactly once, in the
    order of ``full_rank_columns``."""
    for cols in full_rank_columns(t, r, field):
        yield MatrixGF(field, t, r, tuple(chain.from_iterable(zip(*cols))))

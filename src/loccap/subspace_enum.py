"""Canonical subspaces of F_q^t and enumeration of Grassmannians,
truncated projective spaces, and matrix fibers with a prescribed
column space.

A subspace is identified with the RREF of any basis written as rows;
equality and hashing are structural on that canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, product, repeat
from operator import itemgetter, lshift
from typing import Iterator

from . import gf_core, qcomb
from .gf_core import BudgetExceeded, FieldSpec, MatrixGF, mat_mul, transpose


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_q^t, held as an RREF basis (rows = basis vectors)."""

    ambient_dim: int
    dim: int
    basis: MatrixGF  # dim x ambient_dim, in RREF, no zero rows

    @property
    def field(self) -> FieldSpec:
        return self.basis.field

    def sort_key(self):
        return (self.dim, self.basis.entries)

    def to_json(self):
        return {"ambient_dim": self.ambient_dim,
                "basis": self.basis.to_lists()}


def _from_rref_rows(field, ambient, rows) -> Subspace:
    return Subspace(ambient, len(rows), MatrixGF(
        field, len(rows), ambient, tuple(chain.from_iterable(rows))))


def span_rows(a: MatrixGF) -> Subspace:
    """Canonical subspace spanned by the rows of a."""
    rows, pivots = gf_core.reduced_rows(a)
    return _from_rref_rows(a.field, a.cols, rows[:len(pivots)])


class _Codes(dict):
    """row -> its code, entry j at bit place[j]; rows maps codes back.
    A row that is not len(place) entries in [0, q) raises ValueError."""

    def __init__(self, place, q: int):
        super().__init__()
        self.place, self.q, self.rows = place, q, {}

    def __missing__(self, row):
        if len(row) != len(self.place) or min(row) < 0 or max(row) >= self.q:
            raise ValueError(f"{row!r} is not a row over F_{self.q}")
        code = self[row] = sum(map(lshift, row, self.place))
        self.rows[code] = row
        return code


class RowSpaces(dict):
    """(state, code) -> the state of the span of state and a row, given by
    its code in ``codes`` (entry j at bit place[j]; by default each entry
    takes the bits of one residue): the row spaces of F_q^n met reading
    matrices row by row, each interned by its RREF basis bases[s], a
    tuple of rows; state 0 is {0}.  Each step is reduced through
    ``gf_core._reduce`` on its first lookup only."""

    def __init__(self, field: FieldSpec, n: int, place: range = None):
        super().__init__()
        self.field, self.n, self.bases, self.ids = field, n, [()], {(): 0}
        self.spaces = {}    # state -> its Subspace, built on first use
        b = (field.q - 1).bit_length()
        self.codes = _Codes(place or range(0, b * n, b), field.q)

    def __missing__(self, step):
        state, code = step
        rows = [*map(list, self.bases[state]), list(self.codes.rows[code])]
        rank = len(gf_core._reduce(rows, self.field.q, self.field.inverses))
        basis = tuple(map(tuple, rows[:rank]))
        state = self[step] = self.ids.setdefault(basis, len(self.bases))
        if state == len(self.bases):
            self.bases.append(basis)
        return state

    def states(self, keys, rows: int) -> list:
        """The state of each of keys, row-major entry tuples of rows
        rows: one C-level map of steps per row, each by the row's code."""
        n, code, out = self.n, self.codes.__getitem__, repeat(0, len(keys))
        for i in range(0, rows * n, n):
            out = map(self.__getitem__, zip(out, map(code, map(
                itemgetter(slice(i, i + n)), keys))))
        return list(out)

    def span(self, rows) -> int:
        """The state of the span of rows, each n entries."""
        state = 0
        for row in rows:
            state = self[state, self.codes[row]]
        return state

    def space(self, state: int) -> Subspace:
        """The Subspace of a state, built once from its interned RREF
        rows, so each state has one shared Subspace."""
        out = self.spaces.get(state)
        if out is None:
            out = self.spaces[state] = _from_rref_rows(
                self.field, self.n, self.bases[state])
        return out


def span_columns(a: MatrixGF) -> Subspace:
    """Canonical subspace spanned by the columns of a."""
    return span_rows(transpose(a))


def trivial_subspace(field: FieldSpec, ambient: int) -> Subspace:
    return _from_rref_rows(field, ambient, [])


def enumerate_grassmannian(r: int, t: int,
                           field: FieldSpec) -> Iterator[Subspace]:
    """Yield every r-dimensional subspace of F_q^t exactly once.

    Generates RREF profiles directly: for each pivot-column pattern, the
    free entries range over all residue assignments.  Order is pivot
    pattern (lexicographic) then free-entry lexicographic.
    """
    if not (0 <= r <= t):
        raise ValueError(f"need 0 <= r <= t, got r={r}, t={t}")
    q = field.q
    if qcomb.gaussian_binomial(t, r, q) > gf_core.ENUM_BUDGET:
        raise BudgetExceeded("Grassmannian larger than enumeration budget")
    for pivots in combinations(range(t), r):
        # Free positions: row i, column j with j > pivots[i], j not a pivot.
        free = [(i, j) for i in range(r) for j in range(t)
                if j > pivots[i] and j not in pivots]
        for vals in product(range(q), repeat=len(free)):
            rows = [[0] * t for _ in range(r)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), v in zip(free, vals):
                rows[i][j] = v
            yield _from_rref_rows(field, t, [tuple(row) for row in rows])


def enumerate_projective(m: int, t: int,
                         field: FieldSpec) -> Iterator[Subspace]:
    """Yield every subspace of F_q^t with dimension at most m."""
    for r in range(min(m, t) + 1):
        yield from enumerate_grassmannian(r, t, field)


def contains(u: Subspace, v: Subspace) -> bool:
    """True iff v is a subspace of u."""
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if v.dim > u.dim:
        return False
    if v.dim == 0:
        return True
    stacked = MatrixGF(u.field, u.dim + v.dim, u.ambient_dim,
                       u.basis.entries + v.basis.entries)
    return gf_core.rank(stacked) == u.dim


def matrices_with_column_space(u: Subspace, m: int) -> Iterator[MatrixGF]:
    """Yield every ambient x m matrix whose column space is exactly u.

    Realized as B @ D over full-row-rank dim(u) x m matrices D, where B
    is the canonical basis written in columns.
    """
    if u.dim > m:
        raise ValueError("column space dimension exceeds column count")
    b = transpose(u.basis)  # ambient x dim(u), full column rank
    if u.dim == 0:
        yield gf_core.zeros(u.field, u.ambient_dim, m)
        return
    for d in gf_core.enumerate_full_rank(m, u.dim, u.field):
        yield mat_mul(b, transpose(d))

"""The matrix channel Y = XH: spec I/O, exact transition probabilities,
and derived conditional distributions.

Transition probabilities are computed once per input row-space class:
for each subspace U of F^M we pick the canonical full-row-rank matrix
D_U (the RREF basis of U) and tabulate the exact distribution of
D_U @ H.  Every P(Y|X) is then a single table lookup after factoring X
and Y through a common full-column-rank matrix.  A direct summation
over the support of H, ``oracle.transition_naive``, serves as the
oracle for that fast path, and is the one scan of all q^(T*M) inputs:
nothing here visits them.

The tables are built from packed integers, read from the support index
(``ChannelSpec.index``), which each spec builds once.  Each distinct row
of the support becomes one int with a b-bit digit per entry, b =
bit_length((q-1)^2 * M), so the sum over k of D_U[i, k] * (packed row k
of H) never carries between digits.  Each E = D_U @ H is then one int,
its rows b*N bits apart above the int weight of its mass over the
masses' common denominator; one ``Counter`` per class counts these
keys, and each distinct key is reduced mod q once.
``oracle.transition_core_reference`` builds the same tables with one
matrix product per (class, H) pair.  The index steps each H through a
``subspace_enum.RowSpaces`` table on (state, row code) pairs; the
classes share that table, which gives the row space of every entry
(``TransitionCore.fibers``), and the states give the rank of every H.
When the law of H is unchanged by H -> g @ H for every g in GL(M, q),
as for the paper's uniform-given-rank family, every class of one
dimension has the same table and fibers; the states decide that, fiber
by fiber, and then only the first class of each dimension is counted
and indexed (``transition_core``).

A channel file is read in bulk straight into its support index
(``spec_from_dict``): C-level ``set(map(type, ...))`` passes check the
items, every H, the exact type of every entry and the masses; each
distinct mass string is parsed once, and the masses must sum to 1.  Row
k of every H, as a transient tuple, goes through the index's row memo,
which checks (N entries in [0, q)) and packs each distinct row once, and
the pmf_H keys are joined from the memo's rows.  ``generate`` skips the
key checks of its own keys too; a caller's ``ChannelSpec`` checks its
keys in bulk and indexes their row slices (``SupportIndex.build``).
Only when a bulk check fails are the items read one at a time, to name
the first item at fault.
``load_channel`` decodes and checks a file with the cyclic garbage
collector paused, since neither the document nor the spec holds a cycle.
``save_channel`` writes the text ``json.dump(..., indent=1)`` would,
without the Python-level encoder: each distinct row of the support
matrices, and each distinct mass, is rendered once.

``generate`` keys each support by entry tuples and builds no MatrixGF:
``iid_uniform`` straight from ``itertools.product``, and
``full_rank_uniform`` and each uniform-given-rank shell from the column
tuples of ``gf_core.full_rank_columns``.  Each family keeps the key order
of the matrix enumerators (``all_matrices``, ``enumerate_full_rank``,
and sorted entries for the shells), which fixes the first-seen key
order of every core table, and so every witness.
"""

from __future__ import annotations

import gc
import json
import re
from collections import Counter
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import chain, product, repeat
from math import lcm
from operator import add, eq, itemgetter, mul
from typing import Dict, NamedTuple, Optional, Tuple

from . import gf_core, qcomb, subspace_enum
from .gf_core import BudgetExceeded, FieldSpec, MatrixGF, solve_factor
from .subspace_enum import Subspace, span_columns, span_rows

CORE_TABLE_BUDGET = 2 ** 20    # the most entries one class table may have
T_BUDGET = 2 ** 20             # the most rows an input X may have
SUPPORT_BUDGET = 2 ** 18       # the most support matrices generate may build

ZERO = Fraction(0)
_INT_TYPE = frozenset({int})
_MASS_TYPES = frozenset({Fraction, int})


class ChannelSpecError(Exception):
    """Invalid channel specification (file or constructor input)."""


def _check_sizes(T: int, M: int, N: int) -> None:
    # a bool is an int to min, so compare types exactly
    if {type(T), type(M), type(N)} != _INT_TYPE:
        raise ChannelSpecError(f"T, M, N must be ints, got {T!r}, {M!r}, "
                               f"{N!r}")
    if min(T, M, N) < 1:
        raise ChannelSpecError("T, M, N must be positive")
    if T > T_BUDGET:
        raise ChannelSpecError(f"T must be at most {T_BUDGET}, got {T}")


class SupportIndex(NamedTuple):
    """The support of a ChannelSpec indexed once, in pmf_H order
    (``ChannelSpec.index``): weights[i] is the mass of the i-th H over
    denom; packed[k][i] is the code of its row k, b bits per entry above
    low bits that hold a weight; states[i] is its row-space state in
    spaces, a step table on (state, row code) pairs."""

    weights: list
    denom: int
    b: int
    low: int
    packed: list
    spaces: subspace_enum.RowSpaces
    states: list

    @classmethod
    def build(cls, field: FieldSpec, N: int, weights: list, denom: int,
              rows: list) -> SupportIndex:
        """The index of a support whose row k of every H, in pmf_H order,
        rows[k] yields: each distinct row is checked (ValueError) and
        packed once, and each H is stepped row by row to its state."""
        # b bits per digit hold any sum over k of D_U[i, k] * row k of H,
        # above the low bits, which hold a weight
        b = ((field.q - 1) ** 2 * len(rows)).bit_length()
        low = max(weights).bit_length()
        spaces = subspace_enum.RowSpaces(field, N, range(low, low + b * N, b))
        code = spaces.codes.__getitem__
        packed = [list(map(code, row)) for row in rows]
        states = repeat(0, len(weights))
        for codes in packed:
            states = map(spaces.__getitem__, zip(states, codes))
        return cls(weights, denom, b, low, packed, spaces, list(states))

    def ranks(self) -> list:
        """The rank of each H."""
        return list(map(len, map(self.spaces.bases.__getitem__,
                                 self.states)))


@dataclass(frozen=True)
class ChannelSpec:
    """A channel Y = XH: field, shape parameters, and the exact PMF of H,
    keyed by the row-major entry tuple of each M x N support matrix; its
    support index (``index``) is built once, so pmf_H must not change."""

    field: FieldSpec
    T: int
    M: int
    N: int
    pmf_H: Dict[Tuple[int, ...], Fraction]

    def __post_init__(self):
        if type(self.field.q) is not int:
            raise ChannelSpecError(f"q must be an int, got {self.field.q!r}")
        _check_sizes(self.T, self.M, self.N)
        if not self.pmf_H:
            raise ChannelSpecError("empty transfer-matrix support")
        size, q = self.M * self.N, self.field.q
        masses = self.pmf_H.values()
        # each distinct mass object is checked and converted once
        distinct = dict(zip(map(id, masses), masses))
        # the checks run over the whole support at once; only when one
        # fails does the loop below look for the first item at fault
        if not (_keys_in_range(self.pmf_H.keys(), size, q)
                and set(map(type, distinct.values())) <= _MASS_TYPES
                and min(distinct.values()) > 0):
            for h, p in self.pmf_H.items():
                if not _keys_in_range((h,), size, q):
                    raise ChannelSpecError(
                        f"support key {h!r} is not a tuple of {size} int "
                        f"entries in [0, {q})")
                if type(p) not in _MASS_TYPES:
                    raise ChannelSpecError(f"probability mass {p!r} is not "
                                           f"a Fraction or an int")
                if p <= 0:
                    raise ChannelSpecError(
                        "probability masses must be positive")
        object.__setattr__(self, "_weights",
                           _int_weights(distinct, map(id, masses)))

    @cached_property
    def index(self) -> SupportIndex:
        """The support index, built on first use from the keys' rows."""
        N = self.N
        return SupportIndex.build(self.field, N, *self._weights, [
            map(itemgetter(slice(k, k + N)), self.pmf_H)
            for k in range(0, self.M * N, N)])

    def rank_pmf(self) -> Dict[int, Fraction]:
        """P(rank H = r), keyed in the order ranks first occur in pmf_H."""
        index = self.index
        shells: Dict[int, int] = {}
        for r, w in zip(index.ranks(), index.weights):
            shells[r] = shells.get(r, 0) + w
        return {r: Fraction(w, index.denom) for r, w in shells.items()}


def _int_weights(distinct: dict, keys) -> Tuple[list, int]:
    """The int weight of distinct[key] for each of keys over the masses'
    common denominator, and that denominator: each distinct mass is
    converted once.  ChannelSpecError unless the weights sum to it."""
    denom = lcm(*{p.denominator for p in distinct.values()})
    weight = {i: p.numerator * (denom // p.denominator)
              for i, p in distinct.items()}
    weights = list(map(weight.__getitem__, keys))
    if sum(weights) != denom:
        raise ChannelSpecError(
            f"PMF sums to {Fraction(sum(weights), denom)}, not 1")
    return weights, denom


def _checked(field: FieldSpec, T: int, M: int, N: int, pmf_H,
             **derived) -> ChannelSpec:
    """A ChannelSpec of keys and masses its caller built or checked, with
    no ``__post_init__``; derived gives its ``_weights`` or ``index``."""
    spec = object.__new__(ChannelSpec)
    vars(spec).update(field=field, T=T, M=M, N=N, pmf_H=pmf_H, **derived)
    return spec


def _keys_in_range(keys, size: int, q: int) -> bool:
    """Whether every key is a tuple of size int entries in [0, q)."""
    # a bool is an int to min and max, so compare types exactly
    if not (set(map(type, keys)) == {tuple} and set(map(len, keys)) == {size}
            and set(map(type, chain.from_iterable(keys))) == _INT_TYPE):
        return False
    values = set(chain.from_iterable(keys))
    return min(values) >= 0 and max(values) < q


@dataclass
class Fiber:
    """The entries E of one class table that share a row space W.

    first is the first of them in sorted-E order and value its
    probability; odd is the first later entry (E, p) with p != value, or
    None when the table is constant on the entries it holds of W.
    """

    mass: Fraction
    first: Tuple[int, ...]
    value: Fraction
    odd: Optional[Tuple[Tuple[int, ...], Fraction]] = None


@dataclass
class TransitionCore:
    """Per-row-space-class transition tables and their row-space index.

    For each U in Pj(min(T,M), F^M): the representative D_U (RREF basis
    of U, full row rank) and the exact map from E = D_U @ H (keyed by
    entry tuple) to its probability.  fibers[U][W] aggregates the
    entries of that table with row space W.
    """

    spec: ChannelSpec
    tables: Dict[Subspace, Dict[Tuple[int, ...], Fraction]] = dc_field(
        default_factory=dict)
    fibers: Dict[Subspace, Dict[Subspace, Fiber]] = dc_field(
        default_factory=dict)

    def input_classes(self):
        """Row-space classes U, in canonical order, as built."""
        return list(self.tables)


class _Memo(dict):
    """key -> fn(key), computed on the first lookup."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def transition_core(spec: ChannelSpec) -> TransitionCore:
    """Tabulate the exact distribution of D_U @ H for every class U.

    Classes are tabulated in canonical order, and table keys keep the
    order of the first H in pmf_H that gives each E, as in
    ``oracle.transition_core_reference``: the Counter of a class meets
    its keys in pmf_H order; a class that shares the table of the first
    class of its dimension (below) shares its key order too.

    The packed rows, the step table and the row-space state of each H
    come from the support index (``ChannelSpec.index``), and so does the
    test of GL(M)-invariance, pmf(g @ H) = pmf(H) for all g in GL(M, q).
    The left GL(M)-orbit of H is the set of M x N matrices with H's row
    space W: each is C @ R for the RREF basis R of W and one of the
    xi(M, dim W, q) full-column-rank C, and g @ C runs over all of them.
    So pmf is invariant iff each row-space fiber of the support holds
    exactly xi(M, dim W, q) matrices, all of one int weight: a fiber lies
    in its orbit, and then fills it.  No row is reduced for that.

    On a GL(M)-invariant channel the classes of one dimension share one
    table.  Take a class U of dimension r.  Its RREF basis D_U is
    [I_r 0] @ g for any invertible g whose first r rows are D_U, so
    D_U @ H = [I_r 0] @ (g @ H), and g @ H has the law of H: every class
    of dimension r has the table of the first r rows of H, and so the same
    fibers.  There only the first class of each dimension is counted and
    indexed; each later one takes that table and those fibers as they
    are, the same objects.  Every other channel builds each table.
    """
    q, M, N = spec.field.q, spec.M, spec.N
    top = min(spec.T, M)
    for r in range(top + 1):
        if q ** (r * N) > CORE_TABLE_BUDGET:
            raise BudgetExceeded(f"per-class table for dim {r} exceeds "
                                 f"budget {CORE_TABLE_BUDGET}")
    classes = _classes(spec.field, M, top)
    weights, denom, b, low, packed, spaces, states = spec.index
    digit, low_mask = (1 << b) - 1, (1 << low) - 1
    # no fiber holds more than the xi(M, dim W, q) matrices of its orbit,
    # so each is full iff their sizes add up to the support size
    weight = dict(zip(states, weights))
    invariant = (sum(qcomb.xi(M, len(spaces.bases[w]), q) for w in weight)
                 == len(states)
                 and all(map(eq, map(weight.__getitem__, states), weights)))
    shared = {}     # dim -> the table and fibers of its first class
    core = TransitionCore(spec)
    for u in classes:
        shifts = range(low, low + b * N * u.dim, b)

        def entries(key):
            return tuple(((key >> s) & digit) % q for s in shifts)

        first = shared.get(u.dim)
        if first is None:
            merged: Dict[Tuple[int, ...], int] = {}
            for key, n in Counter(_class_keys(u, weights, packed,
                                              b * N)).items():
                e = entries(key)
                merged[e] = merged.get(e, 0) + n * (key & low_mask)
            table = {e: Fraction(w, denom) for e, w in merged.items()}
            fibers = index_fibers(spaces, u, table)
            if invariant:
                shared[u.dim] = table, fibers
        else:
            table, fibers = first
        core.tables[u], core.fibers[u] = table, fibers
    return core


@lru_cache(maxsize=None)
def _classes(field: FieldSpec, M: int, top: int) -> Tuple[Subspace, ...]:
    """The subspaces of F^M of dimension at most top, in canonical order:
    the classes of every core with that field, M and min(T, M)."""
    return tuple(sorted(subspace_enum.enumerate_projective(top, M, field),
                        key=Subspace.sort_key))


def _class_keys(u: Subspace, keys, packed, width: int):
    """keys plus the packed E = D_U @ H of each support matrix, row i of E
    width * i bits up: a lazy map over the support, in pmf_H order."""
    for i in range(u.dim):
        for c, row in zip(u.basis.row(i), packed):
            if c:
                c <<= width * i
                keys = map(add, keys, row if c == 1
                           else map(mul, row, repeat(c)))
    return keys


def index_fibers(spaces: subspace_enum.RowSpaces, u: Subspace,
                 table: Dict[Tuple[int, ...], Fraction]
                 ) -> Dict[Subspace, Fiber]:
    """The table of class u indexed by row space, visited in sorted-E
    order.  The row space of each entry is its state in spaces, a step
    table the classes of one core share, so each distinct row space is
    reduced once and built once as a Subspace, from the RREF rows the
    table interns."""
    keys = sorted(table)
    fibers: Dict[int, Fiber] = {}
    for w, e_ent in zip(spaces.states(keys, u.dim), keys):
        p = table[e_ent]
        f = fibers.get(w)
        if f is None:
            fibers[w] = Fiber(p, e_ent, p)
            continue
        f.mass += p
        if f.odd is None and p != f.value:
            f.odd = (e_ent, p)
    return {spaces.space(w): f for w, f in fibers.items()}


def column_factor(x: MatrixGF, u: Subspace) -> MatrixGF:
    """The full-column-rank B with x = B @ D_U, where D_U = u.basis and u
    is the row space of x.  D_U is in RREF, so its columns at the leading
    1s of its rows form I_r, and B is the columns of x at those pivots."""
    pivots = [u.basis.row(i).index(1) for i in range(u.dim)]
    return MatrixGF(x.field, x.rows, u.dim,
                    tuple(x[i, j] for i in range(x.rows) for j in pivots))


def p_y_given_x(core: TransitionCore, x: MatrixGF, y: MatrixGF) -> Fraction:
    """Exact P(Y=y | X=x) via the class table.

    Zero whenever the column space of y is not inside the column space
    of x; otherwise with D the class representative of the row space of
    x and x = B @ D (``column_factor``), it is Pr{D @ H = y / B}.
    """
    spec = core.spec
    if x.rows != spec.T or x.cols != spec.M:
        raise ChannelSpecError("input has wrong shape")
    if y.rows != spec.T or y.cols != spec.N:
        raise ChannelSpecError("output has wrong shape")
    if not subspace_enum.contains(span_columns(x), span_columns(y)):
        return ZERO
    u = span_rows(x)
    e = solve_factor(y, column_factor(x, u))
    return core.tables[u].get(e.entries, ZERO)


def cond_rank_given_rowspace(core: TransitionCore,
                             u: Subspace) -> Dict[int, Fraction]:
    """P(rank(Y) = s | row space of X is u), exact."""
    out: Dict[int, Fraction] = {}
    for w, f in core.fibers[u].items():
        out[w.dim] = out.get(w.dim, ZERO) + f.mass
    return out


def _channel_field(q: int) -> FieldSpec:
    """F_q for a channel.  A q above CORE_TABLE_BUDGET is refused before
    the primality test, whose trial division is unbounded: the table of
    any one-dimensional class has q^N entries, so no core could be built."""
    if q > CORE_TABLE_BUDGET:
        raise ChannelSpecError(f"q must be at most {CORE_TABLE_BUDGET}, "
                               f"got {q}")
    try:
        return FieldSpec(q)
    except gf_core.GFError as exc:
        raise ChannelSpecError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Generators for standard channel families.

def generate(kind: str, *, q: int, M: int, N: int = None, T: int = 1,
             rank_pmf=None) -> ChannelSpec:
    """Build a ChannelSpec for one of the standard transfer-matrix families.

    kinds: "iid_uniform" (every M x N matrix equally likely),
    "full_rank_uniform" (uniform over invertible M x M, N forced to M),
    "uniform_given_rank" (mass p(r) spread evenly over all rank-r
    matrices), "custom_rank_dist" (mass p(r) concentrated on one
    canonical rank-r matrix; deliberately not uniform given rank).
    """
    if kind == "full_rank_uniform":
        N = M
    if N is None:
        raise ChannelSpecError("N is required")
    _check_sizes(T, M, N)
    field = _channel_field(q)
    what = "support matrices"
    if kind == "iid_uniform":
        gf_core.check_power(q, M * N, SUPPORT_BUDGET, what)
        support = q ** (M * N)
    elif kind == "full_rank_uniform":
        support = gf_core.bounded_xi(M, M, q, SUPPORT_BUDGET, what)
    elif kind in ("uniform_given_rank", "custom_rank_dist"):
        if rank_pmf is None:
            raise ChannelSpecError(f"{kind} requires a rank PMF")
        rank_pmf = {int(r): Fraction(p) for r, p in rank_pmf.items()}
        if any(p < 0 for p in rank_pmf.values()):
            raise ChannelSpecError("negative rank probability")
        if sum(rank_pmf.values()) != 1:
            raise ChannelSpecError("rank PMF does not sum to 1")
        if any(r > min(M, N) or r < 0 for r, p in rank_pmf.items() if p > 0):
            raise ChannelSpecError("rank outside [0, min(M,N)]")
        ranks = [r for r, p in sorted(rank_pmf.items()) if p > 0]
        support = len(ranks)
        if kind == "uniform_given_rank":
            # the rank-r shell holds at least xi(max(M, N), r) matrices
            for r in ranks:
                gf_core.bounded_xi(max(M, N), r, q, SUPPORT_BUDGET, what)
            support = sum(qcomb.xi2(M, N, r, q) for r in ranks)
    else:
        raise ChannelSpecError(f"unknown generator kind {kind!r}")
    if support > SUPPORT_BUDGET:
        raise BudgetExceeded(f"{support} {what} exceeds budget "
                             f"{SUPPORT_BUDGET}")
    if kind == "iid_uniform":
        # every entry tuple, in the order of gf_core.all_matrices
        gf_core.check_power(q, M * N, gf_core.ENUM_BUDGET, "matrices")
        pmf = dict.fromkeys(product(range(q), repeat=M * N),
                            Fraction(1, support))
    elif kind == "full_rank_uniform":
        # in the order of gf_core.enumerate_full_rank
        pmf = dict.fromkeys(
            (tuple(chain.from_iterable(zip(*cols)))
             for cols in gf_core.full_rank_columns(M, M, field)),
            Fraction(1, support))
    elif kind == "uniform_given_rank":
        pmf = _rank_shells(field, M, N, {r: rank_pmf[r] for r in ranks})
    else:
        # canonical rank-r matrices: identity block, zeros elsewhere
        pmf = {tuple(1 if i == j < r else 0
                     for i in range(M) for j in range(N)): rank_pmf[r]
               for r in ranks}
    # distinct keys in [0, q) and positive masses: only the sum is checked
    masses = pmf.values()
    return _checked(field, T, M, N, pmf, _weights=_int_weights(
        dict(zip(map(id, masses), masses)), map(id, masses)))


def _rank_shells(field: FieldSpec, M: int, N: int,
                 rank_pmf) -> Dict[Tuple[int, ...], Fraction]:
    """Mass p(r) spread evenly over the rank-r M x N matrices, keyed in
    lexicographic order of their entries.

    Each rank-r matrix is C @ R for exactly one RREF basis R of its row
    space and one full-column-rank M x r matrix C, so the shells are
    built without ranking the q^(M*N) matrices.  Row i of C @ R is the
    combination of the rows of R with the coefficients of row i of C:
    each R tabulates its q^r row combinations once, keyed by coefficient
    tuple, and each product is M lookups.  The rows of each C are read
    from its column tuple (``gf_core.full_rank_columns``); the rank-0
    shell, whose C has no columns and so no rows to read, is the zero
    matrix alone.
    """
    q = field.q
    shells = []
    for r, p in rank_pmf.items():
        share = p / qcomb.xi2(M, N, r, q)
        if r == 0:
            shells.append(((0,) * (M * N), share))
            continue
        factors = [tuple(zip(*cols))
                   for cols in gf_core.full_rank_columns(M, r, field)]
        for w in subspace_enum.enumerate_grassmannian(r, N, field):
            combos = [(0,) * N]   # in the order of product(range(q), r)
            for i in range(r):
                v = w.basis.row(i)
                combos = [tuple((a + c * b) % q for a, b in zip(u, v))
                          for u in combos for c in range(q)]
            row = dict(zip(product(range(q), repeat=r), combos)).__getitem__
            shells += [(tuple(chain.from_iterable(map(row, rows))), share)
                       for rows in factors]
    shells.sort(key=itemgetter(0))     # the keys are distinct
    return dict(shells)


def random_channel(rng, q: int, T: int, M: int, N: int,
                   max_support: int = 6) -> ChannelSpec:
    """A random transfer-matrix PMF with rational masses, for oracle
    cross-checks.  Deterministic for a given random.Random state."""
    total = q ** (M * N)
    size = rng.randint(1, min(max_support, total))
    chosen = set()
    while len(chosen) < size:
        ent = tuple(rng.randrange(q) for _ in range(M * N))
        chosen.add(ent)
    weights = [rng.randint(1, 9) for _ in chosen]
    denom = sum(weights)
    pmf = {ent: Fraction(w, denom) for ent, w in zip(sorted(chosen), weights)}
    return ChannelSpec(FieldSpec(q), T, M, N, pmf)


# ---------------------------------------------------------------------------
# JSON channel-spec I/O.
#
# Schema: {"q": int, "T": int, "M": int, "N": int,
#          "pmf": [{"H": [[int, ...], ...], "p": "num/den"}, ...]}
# Probabilities are decimal-free rational strings; support matrices
# must be distinct.  The integers are JSON integers, never booleans, and
# H entries lie in [0, q): the loader reduces nothing mod q.

def _excerpt(value, width: int = 40) -> str:
    """repr(value), cut to its first width characters and "..." when it
    is longer, so an error message stays one readable line."""
    text = repr(value)
    return text if len(text) <= width else text[:width] + "..."


def _parse_rational(s, where: str) -> Fraction:
    """The mass s of a pmf item."""
    if type(s) is int:
        return Fraction(s)
    if not isinstance(s, str) or not re.fullmatch(r"\d+(/\d+)?", s.strip()):
        raise ChannelSpecError(f"{where}: probability must be a rational "
                               f"string like \"1/6\", got {_excerpt(s)}")
    try:
        return Fraction(s)
    except (ZeroDivisionError, ValueError) as exc:   # 1/0; too many digits
        raise ChannelSpecError(
            f"{where}: bad rational {_excerpt(s)}: {exc}") from exc


def _spec_in_bulk(field: FieldSpec, T: int, M: int, N: int,
                  items) -> Optional[ChannelSpec]:
    """The ChannelSpec of the pmf items with its support index, or None
    when an item is at fault.  Every entry's exact type is checked first,
    as the row memo would merge 1, 1.0 and True; each distinct mass is
    parsed once, and the items that give it share its Fraction."""
    if set(map(type, items)) != {dict}:
        return None
    try:
        hs = list(map(itemgetter("H"), items))
        ps = list(map(itemgetter("p"), items))
    except KeyError:
        return None
    rows = partial(chain.from_iterable, hs)
    if not (set(map(type, hs)) == {list} and set(map(len, hs)) == {M}
            and set(map(type, rows())) == {list}
            and set(map(type, chain.from_iterable(rows()))) == _INT_TYPE
            and set(map(type, ps)) <= {str, int}):
        return None
    try:
        parsed = {s: _parse_rational(s, "") for s in dict.fromkeys(ps)}
        if min(parsed.values()) <= 0:
            return None
        index = SupportIndex.build(field, N, *_int_weights(parsed, ps), [
            map(tuple, map(itemgetter(k), hs)) for k in range(M)])
    except (ChannelSpecError, ValueError):
        return None
    del hs, rows    # the keys come from the memo: free the H list first
    row = index.spaces.codes.rows.__getitem__
    keys = map(row, index.packed[0])
    for codes in index.packed[1:]:
        keys = map(add, keys, map(row, codes))
    pmf = dict(zip(keys, map(parsed.__getitem__, ps)))
    if len(pmf) != len(ps):
        return None
    return _checked(field, T, M, N, pmf, index=index)


def spec_from_dict(doc) -> ChannelSpec:
    """The ChannelSpec of a decoded document in the schema above; any
    departure from it raises ChannelSpecError, for the first item at
    fault.  The items are checked in bulk (``_spec_in_bulk``); only when
    that fails are they read one at a time, to name the first fault."""
    if not isinstance(doc, dict):
        raise ChannelSpecError("channel spec must be a JSON object")
    for key, kind in (("q", int), ("T", int), ("M", int), ("N", int),
                      ("pmf", list)):
        if key not in doc:
            raise ChannelSpecError(f"missing field {key!r}")
        if type(doc[key]) is not kind:
            raise ChannelSpecError(
                f"{key} must be a JSON {kind.__name__}, got {doc[key]!r}")
    field = _channel_field(doc["q"])
    q, M, N = doc["q"], doc["M"], doc["N"]
    _check_sizes(doc["T"], M, N)
    spec = _spec_in_bulk(field, doc["T"], M, N, doc["pmf"])
    if spec is not None:
        return spec
    # the loop below names the first item at fault, if any
    pmf = {}
    shape = f"H must have shape {M}x{N}, with integer entries in [0, {q})"
    for i, item in enumerate(doc["pmf"]):
        where = f"pmf[{i}]"
        if not isinstance(item, dict) or "H" not in item or "p" not in item:
            raise ChannelSpecError(f"{where}: needs keys 'H' and 'p'")
        rows = item["H"]
        if not (type(rows) is list and len(rows) == M
                and set(map(type, rows)) == {list}
                and set(map(len, rows)) == {N}):
            raise ChannelSpecError(f"{where}: {shape}")
        ent = tuple(chain.from_iterable(rows))
        # files give entries in [0, q), and nothing is reduced mod q
        if set(map(type, ent)) != {int} or min(ent) < 0 or max(ent) >= q:
            raise ChannelSpecError(f"{where}: {shape}")
        if ent in pmf:
            raise ChannelSpecError(f"{where}: duplicate support matrix")
        pmf[ent] = _parse_rational(item["p"], where)
    return ChannelSpec(field, doc["T"], M, N, pmf)


def load_channel(path) -> ChannelSpec:
    """The ChannelSpec of a channel file; ChannelSpecError names the path.

    The file is decoded and checked with the cyclic garbage collector
    paused, and its prior state restored however the load ends.  Left
    on, the collector traverses the decoded document's lists and dicts
    again and again while they are made, a quarter or more of the time
    to decode a large file.  Pausing it is safe: a decoded JSON document
    and the spec built from it hold no reference cycles, so reference
    counting frees all of what they drop.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except (ValueError, RecursionError) as exc:
                # JSONDecodeError, UnicodeDecodeError and an int past
                # Python's int-digit limit are all ValueErrors
                raise ChannelSpecError(
                    f"{path}: invalid JSON: {exc}") from exc
        try:
            return spec_from_dict(doc)
        except ChannelSpecError as exc:
            raise ChannelSpecError(f"{path}: {exc}") from exc
    finally:
        if enabled:
            gc.enable()


def save_channel(spec: ChannelSpec, path) -> None:
    """Write spec in the schema above, items in sorted-H order, as the
    text ``json.dump(doc, fh, indent=1)`` writes, plus a newline.

    The text is rendered directly: each distinct row of the H matrices
    once, each distinct mass object (a generated or loaded PMF shares
    them) once, and the items from those texts, by C-level maps over the
    sorted support, one per row position.  T, M, N, q and the entries are
    ints, which render as JSON integers.
    """
    N = spec.N
    # each distinct row of the H matrices as its indent-1 JSON text
    row_text = _Memo(lambda row: "[\n     " + ",\n     ".join(map(str, row))
                     + "\n    ]")
    masses = spec.pmf_H.values()
    tail = {i: f'\n   ],\n   "p": "{p.numerator}/{p.denominator}"\n  }}'
            for i, p in dict(zip(map(id, masses), masses)).items()}
    hs = sorted(spec.pmf_H)
    rows = [map(row_text.__getitem__, map(itemgetter(slice(k, k + N)), hs))
            for k in range(0, spec.M * N, N)]
    # each item is head, its rows and its tail; the separator carries the
    # head of every item after the first
    head = '  {\n   "H": [\n    '
    items = head + (",\n" + head).join(map(
        add, map(",\n    ".join, zip(*rows)),
        map(tail.__getitem__, map(id, map(spec.pmf_H.__getitem__, hs)))))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n "q": {spec.field.q},\n "T": {spec.T},\n '
                 f'"M": {spec.M},\n "N": {N},\n "pmf": [\n{items}\n ]\n}}\n')

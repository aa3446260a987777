"""The matrix channel Y = XH: spec I/O, exact transition probabilities,
and derived conditional distributions.

Transition probabilities are computed once per input row-space class:
for each subspace U of F^M we pick the canonical full-row-rank matrix
D_U (the RREF basis of U) and tabulate the exact distribution of
D_U @ H.  Every P(Y|X) is then a single table lookup after factoring X
and Y through a common full-column-rank matrix.  A direct summation
over the support of H, ``oracle.transition_naive``, serves as the
oracle for that fast path.

The tables are built from packed integers.  Each distinct row of the
support becomes one int with a b-bit digit per entry, b =
bit_length((q-1)^2 * M), so the sum over k of D_U[i, k] * (packed row k
of H) never carries between digits.  Each E = D_U @ H is then one int,
its rows b*N bits apart above the int weight of its mass over the
masses' common denominator; one ``Counter`` per class counts these
keys, and each distinct key is reduced mod q once.
``oracle.transition_core_reference`` builds the same tables with one
matrix product per (class, H) pair.  The classes of one core share one
``subspace_enum.RowSpaces`` step table, which gives the row space of
every entry (``TransitionCore.fibers``, read by every later consumer).

A channel file is read in bulk (``spec_from_dict``): whole-file passes
of C-level ``set(map(type, ...))`` and ``map(len, ...)`` check the items,
the shape of every H and the types of the masses; each H becomes its
row-major entry tuple, the key of ``ChannelSpec.pmf_H``; and each
distinct mass string is parsed once, its Fraction shared by every item
that gives it.  ``ChannelSpec`` checks the entries of all keys and the
masses the same way, and that the masses sum to 1 with one integer sum
over the lcm of their denominators.  Only when a bulk check fails are
the items read one at a time, to name the first item at fault.
``save_channel`` writes the text ``json.dump(..., indent=1)`` would,
without the Python-level encoder: each distinct row of the support
matrices is rendered once.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import partial
from itertools import chain, product, repeat
from math import lcm
from operator import add, itemgetter, lshift, mul
from typing import Dict, Optional, Tuple

from . import gf_core, qcomb, subspace_enum
from .gf_core import (BudgetExceeded, FieldSpec, MatrixGF, mat_mul,
                      solve_factor)
from .subspace_enum import Subspace, span_columns, span_rows

CORE_TABLE_BUDGET = 2 ** 20    # the most entries one class table may have
T_BUDGET = 2 ** 20             # the most rows an input X may have
INPUT_ENUM_BUDGET = 2 ** 24    # the most inputs one scan of them may visit
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


@dataclass(frozen=True)
class ChannelSpec:
    """A channel Y = XH: field, shape parameters, and the exact PMF of H,
    keyed by the row-major entry tuple of each M x N support matrix."""

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
        distinct = dict(zip(map(id, masses), masses)).values()
        # the checks run over the whole support at once; only when one
        # fails does the loop below look for the first item at fault
        if not (_keys_in_range(self.pmf_H.keys(), size, q)
                and set(map(type, distinct)) <= _MASS_TYPES
                and min(distinct) > 0):
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
        total = _exact_sum(masses)
        if total != 1:
            raise ChannelSpecError(f"PMF sums to {total}, not 1")

    def rank_pmf(self) -> Dict[int, Fraction]:
        """P(rank H = r), keyed in the order ranks first occur in pmf_H."""
        ranks = subspace_enum.RowSpaces(self.field, self.N).ranks(
            self.pmf_H, self.M)
        shells: Dict[int, list] = {}
        for r, p in zip(ranks, self.pmf_H.values()):
            shells.setdefault(r, []).append(p)
        return {r: _exact_sum(masses) for r, masses in shells.items()}


def _keys_in_range(keys, size: int, q: int) -> bool:
    """Whether every key is a tuple of size int entries in [0, q)."""
    # a bool is an int to min and max, so compare types exactly
    if not (set(map(type, keys)) == {tuple} and set(map(len, keys)) == {size}
            and set(map(type, chain.from_iterable(keys))) == _INT_TYPE):
        return False
    values = set(chain.from_iterable(keys))
    return min(values) >= 0 and max(values) < q


def _int_weights(masses):
    """The int weights of rationals over the lcm of their denominators,
    aligned with masses, and that lcm.  Each distinct mass object (a
    generated or loaded PMF shares them) is converted once."""
    distinct = dict(zip(map(id, masses), masses))
    denom = lcm(*{p.denominator for p in distinct.values()})
    weight = {i: p.numerator * (denom // p.denominator)
              for i, p in distinct.items()}
    return list(map(weight.__getitem__, map(id, masses))), denom


def _exact_sum(masses) -> Fraction:
    """The sum of a collection of rationals, as one integer sum."""
    weights, denom = _int_weights(masses)
    return Fraction(sum(weights), denom)


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
    its keys in pmf_H order.
    """
    q, N = spec.field.q, spec.N
    classes = []
    for u in subspace_enum.enumerate_projective(min(spec.T, spec.M), spec.M,
                                                spec.field):
        if q ** (u.dim * N) > CORE_TABLE_BUDGET:
            raise BudgetExceeded(f"per-class table for dim {u.dim} exceeds "
                                 f"budget {CORE_TABLE_BUDGET}")
        classes.append(u)
    classes.sort(key=Subspace.sort_key)
    b = ((q - 1) ** 2 * spec.M).bit_length()
    digit = (1 << b) - 1
    weights, denom = _int_weights(spec.pmf_H.values())
    low = max(weights).bit_length()
    low_mask = (1 << low) - 1
    # packed[k][i]: row k of the i-th H, b bits per entry above the int
    # weight of its mass; each distinct row is packed once
    place = range(low, low + b * N, b)
    code = _Memo(lambda row: sum(map(lshift, row, place)))
    packed = [list(map(code.__getitem__, map(itemgetter(slice(k, k + N)),
                                             spec.pmf_H)))
              for k in range(0, spec.M * N, N)]
    core = TransitionCore(spec)
    spaces = subspace_enum.RowSpaces(spec.field, N)
    for u in classes:
        keys = weights
        for i in range(u.dim):
            for c, row in zip(u.basis.row(i), packed):
                if c:
                    c <<= b * N * i
                    keys = list(map(add, keys, row if c == 1
                                    else map(mul, row, repeat(c))))
        shifts = range(low, low + b * N * u.dim, b)
        merged: Dict[Tuple[int, ...], int] = {}
        for key, n in Counter(keys).items():
            e = tuple(((key >> s) & digit) % q for s in shifts)
            merged[e] = merged.get(e, 0) + n * (key & low_mask)
        core.tables[u] = dist = {e: Fraction(w, denom)
                                 for e, w in merged.items()}
        core.fibers[u] = index_fibers(spaces, u, dist)
    return core


def index_fibers(spaces: subspace_enum.RowSpaces, u: Subspace,
                 table: Dict[Tuple[int, ...], Fraction]
                 ) -> Dict[Subspace, Fiber]:
    """The table of class u indexed by row space, visited in sorted-E
    order.  The row space of each entry is its state in spaces, a step
    table the classes of one core share, so each distinct row space is
    reduced and built as a Subspace once."""
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


def output_laws(core: TransitionCore):
    """Yield (W, [(X, {Y: P(Y|X)}), ...]) for every input column space W.

    Every one of the q^(T*M) input matrices X appears once, with the
    support of its output law.  With U the row space of X and
    X = B @ D_U, Y = B @ E for each entry E of the table of U; B has full
    column rank, so distinct E give distinct Y.
    """
    spec = core.spec
    if spec.field.q ** (spec.T * spec.M) > INPUT_ENUM_BUDGET:
        raise BudgetExceeded("input enumeration exceeds budget")
    entries = {u: [(MatrixGF(spec.field, u.dim, spec.N, e), p)
                   for e, p in table.items()]
               for u, table in core.tables.items()}
    kmax = min(spec.T, spec.M)
    for w in subspace_enum.enumerate_projective(kmax, spec.T, spec.field):
        group = []
        for x in subspace_enum.matrices_with_column_space(w, spec.M):
            u = span_rows(x)
            b = column_factor(x, u)
            group.append((x, {mat_mul(b, e): p for e, p in entries[u]}))
        yield w, group


def column_space_law(law) -> Dict[Subspace, Fraction]:
    """The law of the column space of Y, from a law {Y: P(Y|X)}."""
    out: Dict[Subspace, Fraction] = {}
    for y, p in law.items():
        v = span_columns(y)
        out[v] = out.get(v, ZERO) + p
    return out


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


def rank_joint(core: TransitionCore, alpha) -> Dict[Tuple[int, int], object]:
    """Joint PMF of (rank X, rank Y) induced by a row-space input PMF."""
    out: Dict[Tuple[int, int], object] = {}
    for u, pu in alpha.items():
        if pu == 0:
            continue
        for s, ps in cond_rank_given_rowspace(core, u).items():
            key = (u.dim, s)
            out[key] = out.get(key, 0) + pu * ps
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
    if kind in ("iid_uniform", "full_rank_uniform"):
        mats = (gf_core.all_matrices(field, M, N) if kind == "iid_uniform"
                else gf_core.enumerate_full_rank(M, M, field))
        pmf = dict.fromkeys((h.entries for h in mats), Fraction(1, support))
    elif kind == "uniform_given_rank":
        pmf = _rank_shells(field, M, N, {r: rank_pmf[r] for r in ranks})
    else:
        # canonical rank-r matrices: identity block, zeros elsewhere
        pmf = {tuple(1 if i == j < r else 0
                     for i in range(M) for j in range(N)): rank_pmf[r]
               for r in ranks}
    return ChannelSpec(field, T, M, N, pmf)


def _rank_shells(field: FieldSpec, M: int, N: int,
                 rank_pmf) -> Dict[Tuple[int, ...], Fraction]:
    """Mass p(r) spread evenly over the rank-r M x N matrices, keyed in
    lexicographic order of their entries.

    Each rank-r matrix is C @ R for exactly one RREF basis R of its row
    space and one full-column-rank M x r matrix C, so the shells are
    built without ranking the q^(M*N) matrices.  Row i of C @ R is the
    combination of the rows of R with the coefficients of row i of C:
    each R tabulates its q^r row combinations once, keyed by coefficient
    tuple, and each product is M lookups.
    """
    q = field.q
    shells = []
    for r, p in rank_pmf.items():
        share = p / qcomb.xi2(M, N, r, q)
        factors = [[c.row(i) for i in range(M)]
                   for c in gf_core.enumerate_full_rank(M, r, field)]
        for w in subspace_enum.enumerate_grassmannian(r, N, field):
            combos = [(0,) * N]   # in the order of product(range(q), r)
            for i in range(r):
                v = w.basis.row(i)
                combos = [tuple((a + c * b) % q for a, b in zip(u, v))
                          for u in combos for c in range(q)]
            row = dict(zip(product(range(q), repeat=r), combos)).__getitem__
            shells += [(tuple(chain.from_iterable(map(row, rows))), share)
                       for rows in factors]
    shells.sort()
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

def _parse_rational(s, where: str) -> Fraction:
    """The mass s of a pmf item."""
    if type(s) is int:
        return Fraction(s)
    if not isinstance(s, str) or not re.fullmatch(r"\d+(/\d+)?", s.strip()):
        raise ChannelSpecError(f"{where}: probability must be a rational "
                               f"string like \"1/6\", got {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError as exc:
        raise ChannelSpecError(f"{where}: bad rational {s!r}: {exc}") from exc


def _pmf_in_bulk(items, M: int, N: int):
    """The pmf_H of the pmf items, or None when their structure or a mass
    is at fault.  The entries are left to ChannelSpec.  Each distinct mass
    is parsed once, and the items that give it share its Fraction."""
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
            and set(map(len, rows())) == {N}
            and set(map(type, ps)) <= {str, int}):
        return None
    try:
        parsed = {s: _parse_rational(s, "") for s in dict.fromkeys(ps)}
        # an entry that is a list or an object cannot be hashed
        pmf = dict(zip(map(tuple, map(chain.from_iterable, hs)),
                       map(parsed.__getitem__, ps)))
    except (ChannelSpecError, TypeError):
        return None
    return pmf if len(pmf) == len(hs) else None


def spec_from_dict(doc) -> ChannelSpec:
    """The ChannelSpec of a decoded document in the schema above; any
    departure from it raises ChannelSpecError, for the first item at
    fault.  The items are checked in bulk (``_pmf_in_bulk``); only when
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
    pmf = _pmf_in_bulk(doc["pmf"], M, N)
    if pmf is not None:
        try:
            return ChannelSpec(field, doc["T"], M, N, pmf)
        except ChannelSpecError:
            pass    # the loop below names the first item at fault, if any
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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ChannelSpecError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return spec_from_dict(doc)
    except ChannelSpecError as exc:
        raise ChannelSpecError(f"{path}: {exc}") from exc


def save_channel(spec: ChannelSpec, path) -> None:
    """Write spec in the schema above, items in sorted-H order, as the
    text ``json.dump(doc, fh, indent=1)`` writes, plus a newline.

    The text is rendered directly: each distinct row of the H matrices
    once, and each item from those rows and its mass.  T, M, N, q and
    the entries are ints, which render as JSON integers.
    """
    N = spec.N
    # each distinct row of the H matrices as its indent-1 JSON text
    row_text = _Memo(lambda row: "[\n     " + ",\n     ".join(map(str, row))
                     + "\n    ]")
    items = ",\n".join(
        '  {\n   "H": [\n    '
        + ",\n    ".join(map(row_text.__getitem__, zip(*[iter(h)] * N)))
        + f'\n   ],\n   "p": "{p.numerator}/{p.denominator}"\n  }}'
        for h, p in sorted(spec.pmf_H.items()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n "q": {spec.field.q},\n "T": {spec.T},\n '
                 f'"M": {spec.M},\n "N": {N},\n "pmf": [\n{items}\n ]\n}}\n')

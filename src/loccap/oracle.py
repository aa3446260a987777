"""Brute-force oracles: the class tables and the transition table by
direct summation, and the rank-symmetric, degraded,
unique-subspace-degradation and row-space-symmetric predicates.

``transition_core_reference`` builds the class tables with one matrix
product per (class, support matrix) pair, where
``channel_model.transition_core`` adds packed integer rows.
``transition_naive`` sums over the support of H for every input matrix,
the one scan of all q^(T*M) of them; ``channel_model.p_y_given_x``
reads the same values from the class tables.  ``input_laws`` groups its
table by input, and ``inputs_by_column_space`` groups the inputs by
column space.  The degraded and unique-subspace-degradation scans
compare the output laws inside each such group; the rank-symmetric and
row-space-symmetric scans visit the whole q^(r*N) cube of every class
table, keying each E by (rank U, rank E) or by (U, row space of E).
They are exact but exponential; ``classify`` decides the same
predicates from the row-space index of the class tables, and ``verify``
and the tests cross-check it against these scans on small channels,
by outcome and witness keys.

``best_choice_unpruned`` runs Blahut-Arimoto to the end on every choice
of one option per group, the reference for the branch and bound of
``capacity_engine._best_choice``; ``css_bruteforce_exhaustive`` runs it
on ``degradation_groups``, ``css_bruteforce``'s groups built from the
scan, where ``capacity_engine._degradation_groups`` builds them from the
class tables.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from . import capacity_engine as ce
from . import gf_core, subspace_enum
from .channel_model import ChannelSpec, TransitionCore, index_fibers
from .classify import PredicateResult, _lift
from .gf_core import MatrixGF, mat_mul
from .subspace_enum import Subspace, span_columns, span_rows

NAIVE_TABLE_BUDGET = 2 ** 24

ZERO = Fraction(0)


def _support(spec: ChannelSpec) -> list:
    """[(H, P(H))] over the support, each H as one ``MatrixGF``."""
    return [(MatrixGF(spec.field, spec.M, spec.N, h), p)
            for h, p in spec.pmf_H.items()]


def transition_core_reference(spec: ChannelSpec) -> TransitionCore:
    """``channel_model.transition_core`` by one ``mat_mul`` and one
    ``Fraction`` addition per (class, support matrix) pair, with the
    classes in canonical order."""
    core = TransitionCore(spec)
    kmax = min(spec.T, spec.M)
    support = _support(spec)
    classes = subspace_enum.enumerate_projective(kmax, spec.M, spec.field)
    spaces = subspace_enum.RowSpaces(spec.field, spec.N)
    for u in sorted(classes, key=Subspace.sort_key):
        dist: dict = {}
        for h, p in support:
            e = mat_mul(u.basis, h)
            dist[e.entries] = dist.get(e.entries, ZERO) + p
        core.tables[u] = dist
        core.fibers[u] = index_fibers(spaces, u, dist)
    return core


def transition_naive(spec: ChannelSpec):
    """Full table {(x.entries, y.entries): P(y|x)} by direct summation."""
    q = spec.field.q
    n_inputs = q ** (spec.T * spec.M)
    if n_inputs * len(spec.pmf_H) > NAIVE_TABLE_BUDGET:
        raise gf_core.BudgetExceeded("naive table exceeds budget")
    table: dict = {}
    support = _support(spec)
    for x in gf_core.all_matrices(spec.field, spec.T, spec.M):
        for h, p in support:
            y = mat_mul(x, h)
            key = (x.entries, y.entries)
            table[key] = table.get(key, ZERO) + p
    return table


def is_rank_symmetric(core: TransitionCore):
    """P(Y|X) on the reachable cone is a function of (rank X, rank Y),
    by ranking every E of the full q^(dim U * N) cube of every class.

    Returns (PredicateResult, mu) like ``classify.is_rank_symmetric``.
    """
    spec = core.spec
    t = spec.T
    mu: dict = {}
    first_at: dict = {}
    for u in core.input_classes():
        table = core.tables[u]
        for e in gf_core.all_matrices(spec.field, u.dim, spec.N):
            p = table.get(e.entries, ZERO)
            key = (u.dim, gf_core.rank(e))
            if key not in mu:
                mu[key] = p
                first_at[key] = (u, e)
            elif mu[key] != p:
                u0, e0 = first_at[key]
                return PredicateResult(False, {
                    "reason": "probability varies at fixed (rank X, rank Y)",
                    "rank_X": key[0], "rank_Y": key[1],
                    "X1": _lift(u0.basis, t), "Y1": _lift(e0, t),
                    "X2": _lift(u.basis, t), "Y2": _lift(e, t),
                    "p1": str(mu[key]), "p2": str(p)}), None
    return PredicateResult(True), {k: v for k, v in sorted(mu.items())}


def is_row_space_symmetric(core: TransitionCore) -> PredicateResult:
    """P(Y|X) on the reachable cone is a function of the two row spaces,
    by keying every E of the full q^(dim U * N) cube of every class by
    (U, row space of E).

    The witness has the keys of ``classify.is_row_space_symmetric``'s.
    """
    spec = core.spec
    t = spec.T
    first_at: dict = {}
    for u in core.input_classes():
        table = core.tables[u]
        for e in gf_core.all_matrices(spec.field, u.dim, spec.N):
            p = table.get(e.entries, ZERO)
            e0, p0 = first_at.setdefault((u, span_rows(e)), (e, p))
            if p != p0:
                return PredicateResult(False, {
                    "reason": "probability varies within a row-space fiber",
                    "X": _lift(u.basis, t), "Y1": _lift(e0, t),
                    "Y2": _lift(e, t), "p1": str(p0), "p2": str(p)})
    return PredicateResult(True)


def input_laws(spec: ChannelSpec) -> dict:
    """{X: {Y: P(Y|X)}} from ``transition_naive``, by entry tuples, with
    the inputs in lexicographic order."""
    laws: dict = {}
    for (x, y), p in transition_naive(spec).items():
        laws.setdefault(x, {})[y] = p
    return laws


def inputs_by_column_space(spec: ChannelSpec) -> list:
    """[(W, [(X, {Y: P(Y|X)}), ...])] for every input column space W, in
    ``enumerate_projective`` order: ``input_laws`` grouped by the column
    space of X.  Each group is in ``matrices_with_column_space`` order,
    which is lexicographic in the rows of X at the pivots of W's basis:
    there X = W.basis^T @ A takes the rows of A, in the order
    ``enumerate_full_rank`` gives their columns."""
    m = spec.M
    groups: dict = {}
    for x, law in input_laws(spec).items():
        w = span_columns(MatrixGF(spec.field, spec.T, m, x))
        groups.setdefault(w, []).append((x, law))
    out = []
    for w in subspace_enum.enumerate_projective(min(spec.T, m), spec.T,
                                                spec.field):
        starts = [w.basis.row(i).index(1) * m for i in range(w.dim)]
        out.append((w, sorted(groups[w], key=lambda item: [
            item[0][s:s + m] for s in starts])))
    return out


def _column_space_law(spec: ChannelSpec, law: dict, spaces: dict) -> dict:
    """The law of the column space of Y, from a law {Y: P(Y|X)}; spaces
    holds the column space of each Y met so far, for the calls of one
    scan."""
    out: dict = {}
    for y, p in law.items():
        v = spaces.get(y)
        if v is None:
            v = spaces[y] = span_columns(MatrixGF(spec.field, spec.T,
                                                  spec.N, y))
        out[v] = out.get(v, ZERO) + p
    return out


def _lists(spec: ChannelSpec, cols: int, ent) -> list:
    """A T x cols matrix, given by its entries, as a witness value."""
    return MatrixGF(spec.field, spec.T, cols, ent).to_lists()


def has_unique_subspace_degradation(core: TransitionCore) -> PredicateResult:
    """P(column space of Y | X) agrees for all X with equal column space."""
    spec = core.spec
    spaces: dict = {}
    for _, laws in inputs_by_column_space(spec):
        x0, law0 = laws[0]
        ref = _column_space_law(spec, law0, spaces)
        for x, law in laws[1:]:
            dist = _column_space_law(spec, law, spaces)
            if dist != ref:
                bad = next(v for v in sorted(set(dist) | set(ref),
                                             key=lambda s: s.sort_key())
                           if dist.get(v, ZERO) != ref.get(v, ZERO))
                return PredicateResult(False, {
                    "reason": "subspace channel depends on the input "
                              "representative",
                    "X1": _lists(spec, spec.M, x0),
                    "X2": _lists(spec, spec.M, x), "V": bad.to_json(),
                    "p1": str(ref.get(bad, ZERO)),
                    "p2": str(dist.get(bad, ZERO))})
    return PredicateResult(True)


def is_degraded(core: TransitionCore) -> PredicateResult:
    """Exact test of the two degradedness conditions.

    (a) P(Y|X) is a function of the column space of X;
    (b) for every pair of outputs with equal column space, the
        likelihood columns P(Y|.) and P(Y'|.) are proportional.
    """
    spec = core.spec
    columns: dict = {}  # y entries -> {x entries: prob}
    for _, laws in inputs_by_column_space(spec):
        x0, ref = laws[0]
        for x, law in laws:
            if law != ref:
                y_bad = next(y for y in sorted(set(law) | set(ref))
                             if law.get(y, ZERO) != ref.get(y, ZERO))
                return PredicateResult(False, {
                    "reason": "P(Y|X) depends on more than the column "
                              "space of X",
                    "X1": _lists(spec, spec.M, x0),
                    "X2": _lists(spec, spec.M, x),
                    "Y": _lists(spec, spec.N, y_bad),
                    "p1": str(ref.get(y_bad, ZERO)),
                    "p2": str(law.get(y_bad, ZERO))})
            for y, p in law.items():
                columns.setdefault(y, {})[x] = p
    by_colspace: dict = {}
    for y_ent in sorted(columns):
        y = MatrixGF(spec.field, spec.T, spec.N, y_ent)
        by_colspace.setdefault(span_columns(y), []).append(y_ent)
    for v, ys in sorted(by_colspace.items(), key=lambda kv: kv[0].sort_key()):
        ref_ent = ys[0]
        ref_col = columns[ref_ent]
        for y_ent in ys[1:]:
            col = columns[y_ent]
            if set(col) != set(ref_col):
                return _ratio_witness(spec, ref_ent, y_ent, ref_col, col,
                                      "likelihood supports differ")
            ratios = {col[x] / ref_col[x] for x in col}
            if len(ratios) > 1:
                return _ratio_witness(spec, ref_ent, y_ent, ref_col, col,
                                      "likelihood ratio not constant")
    return PredicateResult(True)


def _ratio_witness(spec, y1_ent, y2_ent, col1, col2, reason):
    xs = sorted(set(col1) | set(col2))
    anchor = next((x for x in xs if x in col1 and x in col2), None)
    if anchor is None:
        x_bad = xs[0]
    else:
        lam_num, lam_den = col2[anchor], col1[anchor]
        x_bad = next(x for x in xs
                     if col2.get(x, ZERO) * lam_den
                     != col1.get(x, ZERO) * lam_num)
    return PredicateResult(False, {
        "reason": reason,
        "Y1": _lists(spec, spec.N, y1_ent), "Y2": _lists(spec, spec.N, y2_ent),
        "X": _lists(spec, spec.M, x_bad)})


def best_choice_unpruned(groups, tol, max_iter, budget, what):
    """Every choice of one (row, reward) option per group, each run by
    Blahut-Arimoto to the end; returns ``capacity_engine._best_choice``'s
    triple: the first best run in product order, the number of choices,
    and the largest value + gap of the runs.  It calls ``_ba`` through
    the module, so a patched or traced ``_ba`` sees its runs."""
    groups = list(groups)
    total = math.prod(len(g) for g in groups)
    if total > budget:
        raise gf_core.BudgetExceeded(f"{total} {what} exceed budget {budget}")
    best = None
    upper = -math.inf
    for choice in product(*groups):
        res = ce._ba([row for row, _ in choice],
                     [reward for _, reward in choice], tol, max_iter)
        upper = max(upper, res[0] + res[2])
        if best is None or res[0] > best[0]:
            best = res
    return best, total, upper


def degradation_groups(spec: ChannelSpec) -> list:
    """``capacity_engine._degradation_groups`` from the scan: for each
    group of ``inputs_by_column_space``, the distinct column-space laws
    of Y its inputs give, in the order of their first input, as
    (row, 0.0) options with the output subspaces numbered as they are
    met."""
    v_index, spaces = {}, {}
    groups = []
    for _, laws in inputs_by_column_space(spec):
        rows: dict = {}
        for _, law in laws:
            row = {v_index.setdefault(v, len(v_index)): p
                   for v, p in _column_space_law(spec, law, spaces).items()}
            rows.setdefault(frozenset(row.items()), row)
        groups.append([(ce._float_row(row), 0.0) for row in rows.values()])
    return groups


def css_bruteforce_exhaustive(core: TransitionCore, tol=ce.DEFAULT_TOL,
                              max_iter=ce.DEFAULT_MAX_ITER,
                              budget=ce.DEFAULT_ASSIGNMENT_BUDGET):
    """``best_choice_unpruned`` on ``degradation_groups``: every
    deterministic degradation run to the end."""
    return best_choice_unpruned(degradation_groups(core.spec), tol,
                                max_iter, budget, "deterministic degradations")

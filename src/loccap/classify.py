"""Exact membership tests for the symmetry classes of Y = XH channels.

Five nested properties are tested, all by exact rational comparison
(no tolerances):

  * uniform given rank: a property of the transfer PMF alone;
  * rank symmetric: P(Y|X) depends only on (rank X, rank Y) on the
    cone of reachable outputs;
  * degraded: P(Y|X) depends on X only through its column space, and
    outputs with a common column space have proportional likelihood
    columns;
  * unique subspace degradation: the induced column-space-to-subspace
    channel does not depend on the choice of representative input;
  * row space symmetric: P(Y|X) on the reachable cone depends only on
    the row spaces of X and Y.

Every test reads only the class tables P_U(E) of the transition core,
never the q^(T*M) input matrices.  Any input with row space U (dimension
r) factors as X = B @ D_U with B of full column rank, and its output is
Y = B @ E with E = D_U @ H; inputs with a common column space differ
only by B -> B @ G for G in GL(r).  So a question about all inputs of one
column space is a question about GL(r)-invariance of the tables, and
GL(r) acting on E from the left has the row-space fibers of E as its
orbits.  The input scans that decide the same predicates by brute force
live in ``oracle``.

Every failed test carries a concrete witness: the first violation met
in canonical class order, turned into input and output matrices through
B = [I_r; 0] and, where needed, an explicit G in GL(r).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import gf_core, qcomb, subspace_enum
from .channel_model import (ChannelSpec, TransitionCore, column_factor,
                            transition_core)
from .gf_core import MatrixGF, mat_mul, solve_factor, transpose
from .subspace_enum import Subspace, representative_matrix, span_rows

ZERO = Fraction(0)


@dataclass(frozen=True)
class PredicateResult:
    holds: bool
    witness: Optional[dict] = None

    def __bool__(self):
        return self.holds


@dataclass(frozen=True)
class ClassReport:
    uniform_given_rank: PredicateResult
    rank_symmetric: PredicateResult
    degraded: PredicateResult
    unique_subspace_degradation: PredicateResult
    row_space_symmetric: PredicateResult
    # rank-to-rank transition values when the channel is rank symmetric
    mu: Optional[dict] = None

    def flags(self) -> dict:
        return {
            "uniform_given_rank": self.uniform_given_rank.holds,
            "rank_symmetric": self.rank_symmetric.holds,
            "degraded": self.degraded.holds,
            "unique_subspace_degradation":
                self.unique_subspace_degradation.holds,
            "row_space_symmetric": self.row_space_symmetric.holds,
        }


def _mat_json(m: MatrixGF) -> list:
    return m.to_lists()


def is_uniform_given_rank(spec: ChannelSpec) -> PredicateResult:
    """True iff the transfer PMF is constant on each rank shell."""
    by_rank: dict = {}
    for h in sorted(spec.pmf_H, key=lambda m: m.entries):
        by_rank.setdefault(gf_core.rank(h), []).append(h)
    for r, mats in sorted(by_rank.items()):
        first = mats[0]
        for h in mats[1:]:
            if spec.pmf_H[h] != spec.pmf_H[first]:
                return PredicateResult(False, {
                    "reason": "unequal mass at equal rank",
                    "rank": r, "H1": _mat_json(first), "H2": _mat_json(h),
                    "p1": str(spec.pmf_H[first]), "p2": str(spec.pmf_H[h])})
        shell = qcomb.xi2(spec.M, spec.N, r, spec.field.q)
        if len(mats) != shell:
            return PredicateResult(False, {
                "reason": "rank shell only partially covered",
                "rank": r, "support": len(mats), "shell_size": shell})
    return PredicateResult(True)


def _class_items(core: TransitionCore, u: Subspace):
    """All (E, prob) for D_U @ H over the full q^(dim U * N) cube."""
    spec = core.spec
    table = core.tables[u]
    for e in gf_core.all_matrices(spec.field, u.dim, spec.N):
        yield e, table.get(e.entries, ZERO)


def _row_fibers(core: TransitionCore, u: Subspace):
    """Row-space fibers of the table of class u: (values, violation).

    The fiber of a row space R is every dim(U) x N matrix E with row
    space R; there are xi(dim U, dim R) of them.  values maps each R the
    table hits to its per-matrix probability and violation is None when
    the table is constant on, and covers, every fiber it hits.
    Otherwise values is None and violation is (E1, E2, p1, p2) with
    equal row spaces and p1 != p2, the first found in canonical order.
    """
    spec = core.spec
    table = core.tables[u]
    first: dict = {}   # R -> (E, p) of its first table entry
    count: dict = {}
    for e_ent, p in sorted(table.items()):
        e = MatrixGF(spec.field, u.dim, spec.N, e_ent)
        w = span_rows(e)
        if w not in first:
            first[w], count[w] = (e, p), 1
        elif first[w][1] != p:
            return None, (first[w][0], e, first[w][1], p)
        else:
            count[w] += 1
    for w in sorted(first, key=lambda s: s.sort_key()):
        if count[w] != qcomb.xi(u.dim, w.dim, spec.field.q):
            missing = next(
                e for c in gf_core.enumerate_full_rank(u.dim, w.dim,
                                                       spec.field)
                if (e := mat_mul(c, w.basis)).entries not in table)
            return None, (first[w][0], missing, first[w][1], ZERO)
    return {w: ep[1] for w, ep in first.items()}, None


def is_row_space_symmetric(core: TransitionCore) -> PredicateResult:
    """P(Y|X) on the reachable cone is a function of the two row spaces.

    Reachable outputs of any X with row space U are in bijection with
    the cube of dim(U) x N matrices E, and the probability is the class
    value of E while the output row space equals the row space of E.
    So it suffices to check, class by class, that the table is constant
    on row-space fibers of E.
    """
    t = core.spec.T
    for u in core.input_classes():
        _, bad = _row_fibers(core, u)
        if bad:
            e1, e2, p1, p2 = bad
            return PredicateResult(False, {
                "reason": "probability varies within a row-space fiber",
                "X": _mat_json(representative_matrix(u, t)),
                "Y1": _mat_json(_lift(e1, t)),
                "Y2": _mat_json(_lift(e2, t)),
                "p1": str(p1), "p2": str(p2)})
    return PredicateResult(True)


def _lift(e: MatrixGF, t: int) -> MatrixGF:
    """Pad E with zero rows to height t (the output for X = [D_U; 0])."""
    pad = (0,) * ((t - e.rows) * e.cols)
    return MatrixGF(e.field, t, e.cols, e.entries + pad)


def _gl_map(c_from: MatrixGF, c_to: MatrixGF) -> MatrixGF:
    """An invertible G with G @ c_from = c_to, for r x s matrices of full
    column rank.

    Both are completed to invertible r x r matrices A by unit columns,
    and G = A_to @ A_from^-1.
    """
    def completed(c):
        cols = [tuple(c[i, j] for i in range(c.rows)) for j in range(c.cols)]
        for k in range(c.rows):
            unit = tuple(int(i == k) for i in range(c.rows))
            cand = cols + [unit]
            if gf_core.rank(MatrixGF(c.field, len(cand), c.rows,
                                     sum(cand, ()))) == len(cand):
                cols = cand
        return transpose(MatrixGF(c.field, c.rows, c.rows, sum(cols, ())))

    a_from = completed(c_from)
    a_inv = solve_factor(gf_core.identity(a_from.field, a_from.rows), a_from)
    return mat_mul(completed(c_to), a_inv)


def is_rank_symmetric(core: TransitionCore):
    """P(Y|X) on the reachable cone is a function of (rank X, rank Y).

    Returns (PredicateResult, mu) where mu maps (rank X, rank Y) to the
    common probability when the test passes.
    """
    mu: dict = {}
    first_at: dict = {}
    for u in core.input_classes():
        for e, p in _class_items(core, u):
            key = (u.dim, gf_core.rank(e))
            if key not in mu:
                mu[key] = p
                first_at[key] = (u, e)
            elif mu[key] != p:
                u0, e0 = first_at[key]
                t = core.spec.T
                return PredicateResult(False, {
                    "reason": "probability varies at fixed (rank X, rank Y)",
                    "rank_X": key[0], "rank_Y": key[1],
                    "X1": _mat_json(representative_matrix(u0, t)),
                    "Y1": _mat_json(_lift(e0, t)),
                    "X2": _mat_json(representative_matrix(u, t)),
                    "Y2": _mat_json(_lift(e, t)),
                    "p1": str(mu[key]), "p2": str(p)}), None
    return PredicateResult(True), {k: v for k, v in sorted(mu.items())}


def has_unique_subspace_degradation(core: TransitionCore) -> PredicateResult:
    """P(column space of Y | X) must agree for all X with equal column space.

    With X = B @ G @ D_U the output column space is B @ G @ colspace(E),
    and the law of colspace(E) is fixed by the probabilities that it lies
    in each S of F^r.  colspace(E) lies in S iff D_K @ H = 0 for
    K = D_U^T(S^perp), itself a class, of dimension r - dim S.  So the law
    of every class is fixed by the zero-output masses P_K(E = 0), and the
    test holds iff P_U(E = 0) depends on dim U alone: the law of
    colspace(E) is then GL(r)-invariant and the same for all classes of
    dimension r.
    """
    spec = core.spec
    t = spec.T
    first: dict = {}   # dim r -> (first class of dim r, its zero mass)
    for u in core.input_classes():
        p = core.tables[u].get((0,) * (u.dim * spec.N), ZERO)
        u0, p0 = first.setdefault(u.dim, (u, p))
        if p != p0:
            # X1, X2 share the column space span(e_1..e_r); Y = 0 is the
            # only output with column space V = {0}.
            v = subspace_enum.trivial_subspace(spec.field, t)
            return PredicateResult(False, {
                "reason": "subspace channel depends on the input "
                          "representative",
                "X1": _mat_json(representative_matrix(u0, t)),
                "X2": _mat_json(representative_matrix(u, t)),
                "V": v.to_json(), "p1": str(p0), "p2": str(p)})
    return PredicateResult(True)


def is_degraded(core: TransitionCore) -> PredicateResult:
    """Exact test of the two degradedness conditions.

    (a) P(Y|X) is a function of the column space of X;
    (b) for every pair of outputs with equal column space, the
        likelihood columns P(Y|.) and P(Y'|.) are proportional, which
        is the input-distribution-free form of requiring the ratio
        P(Y|X)/p(Y) to be constant on output column-space fibers for
        all input laws.

    (a) holds iff every class table is constant on, and covers, the
    row-space fibers it hits and classes of equal dimension r share one
    table.  Then P(Y|X) = g_r(R) for R the row space of Y when the
    column space of Y lies in that of X (dimension r), and 0 otherwise,
    so (b) holds iff for each s the vectors (g_r(R)) over r = s..min(T,M)
    are proportional, zero patterns included, for all reachable R of
    dimension s.
    """
    spec = core.spec
    t = spec.T

    def fail_a(x1, x2, e, p1, p2):
        return PredicateResult(False, {
            "reason": "P(Y|X) depends on more than the column space of X",
            "X1": _mat_json(x1), "X2": _mat_json(x2),
            "Y": _mat_json(_lift(e, t)), "p1": str(p1), "p2": str(p2)})

    g: dict = {}         # dim r -> {row space R: g_r(R)}
    first_u: dict = {}   # dim r -> first class of dim r
    for u in core.input_classes():
        values, bad = _row_fibers(core, u)
        if bad:
            e1, e2, p1, p2 = bad
            # G @ E2 = E1, so P(B E1 | B G D_U) = P_U(E2).
            c1 = column_factor(e1, span_rows(e1))
            c2 = column_factor(e2, span_rows(e2))
            return fail_a(representative_matrix(u, t),
                          _lift(mat_mul(_gl_map(c2, c1), u.basis), t), e1,
                          p1, p2)
        if u.dim not in g:
            g[u.dim], first_u[u.dim] = values, u
        elif values != g[u.dim]:
            w = next(w for w in sorted(set(values) | set(g[u.dim]),
                                       key=lambda v: v.sort_key())
                     if values.get(w, ZERO) != g[u.dim].get(w, ZERO))
            return fail_a(representative_matrix(first_u[u.dim], t),
                          representative_matrix(u, t),
                          _lift(w.basis, u.dim), g[u.dim].get(w, ZERO),
                          values.get(w, ZERO))
    kmax = min(spec.T, spec.M)
    by_dim: dict = {}
    for values in g.values():
        for w in values:
            by_dim.setdefault(w.dim, set()).add(w)
    for s, spaces in sorted(by_dim.items()):
        ranks = range(s, kmax + 1)
        w1, *others = sorted(spaces, key=lambda v: v.sort_key())
        vec1 = [g[r].get(w1, ZERO) for r in ranks]
        anchor = next(i for i, p in enumerate(vec1) if p)
        for w2 in others:
            vec2 = [g[r].get(w2, ZERO) for r in ranks]
            if [bool(p) for p in vec1] != [bool(p) for p in vec2]:
                reason = "likelihood supports differ"
                i = next(i for i, (a, b) in enumerate(zip(vec1, vec2))
                         if bool(a) != bool(b))
            else:
                i = next((i for i, (a, b) in enumerate(zip(vec1, vec2))
                          if a * vec2[anchor] != b * vec1[anchor]), None)
                if i is None:
                    continue
                reason = "likelihood ratio not constant"
            # Outputs [D_R; 0] share the column space span(e_1..e_s);
            # the input [D_U; 0] with dim U = ranks[i] contains it.
            return PredicateResult(False, {
                "reason": reason,
                "Y1": _mat_json(_lift(w1.basis, t)),
                "Y2": _mat_json(_lift(w2.basis, t)),
                "X": _mat_json(representative_matrix(first_u[ranks[i]], t))})
    return PredicateResult(True)


def classify(spec: ChannelSpec, core: TransitionCore = None) -> ClassReport:
    if core is None:
        core = transition_core(spec)
    rs, mu = is_rank_symmetric(core)
    return ClassReport(
        uniform_given_rank=is_uniform_given_rank(spec),
        rank_symmetric=rs,
        degraded=is_degraded(core),
        unique_subspace_degradation=has_unique_subspace_degradation(core),
        row_space_symmetric=is_row_space_symmetric(core),
        mu={f"{k[0]},{k[1]}": str(v) for k, v in mu.items()} if mu else None)


# Known implications between the classes; each entry is
# (name, premise flag(s), conclusion flag, requires T >= M).
_IMPLICATIONS = [
    ("uniform_given_rank -> rank_symmetric",
     ("uniform_given_rank",), "rank_symmetric", False),
    ("rank_symmetric -> degraded",
     ("rank_symmetric",), "degraded", False),
    ("degraded -> unique_subspace_degradation",
     ("degraded",), "unique_subspace_degradation", False),
    ("degraded -> row_space_symmetric",
     ("degraded",), "row_space_symmetric", False),
    ("row_space_symmetric -> unique_subspace_degradation (T >= M)",
     ("row_space_symmetric",), "unique_subspace_degradation", True),
    ("rank_symmetric -> uniform_given_rank (T >= M)",
     ("rank_symmetric",), "uniform_given_rank", True),
]


def implication_audit(report: ClassReport, T: int, M: int) -> list:
    """Return the list of class implications violated by a report.

    An empty list is the expected outcome for every channel.
    """
    flags = report.flags()
    bad = []
    for name, premises, conclusion, needs_tall in _IMPLICATIONS:
        if needs_tall and T < M:
            continue
        if all(flags[p] for p in premises) and not flags[conclusion]:
            bad.append(name)
    return bad

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

Every test reads only the class tables P_U(E) of the transition core
and their index by the row space of E (``TransitionCore.fibers``),
never the q^(T*M) input matrices.  Any input with row space U
(dimension r) factors as X = B @ D_U with B of full column rank, and
its output is Y = B @ E with E = D_U @ H; inputs with a common column
space differ only by B -> B @ G for G in GL(r).  So a question about
all inputs of one column space is a question about GL(r)-invariance of
the tables, and GL(r) acting on E from the left has the row-space
fibers of E as its orbits.  Three tests rest on whether each table is
constant on, and covers, the fibers it hits, which ``_fiber_scan``
decides for all three from one read of each class's index.  The scans
that decide the same predicates by brute force live in ``oracle``.

Every failed test carries a concrete witness: the first violation met
in canonical class order, turned into input and output matrices through
B = [I_r; 0] and, where needed, an explicit G in GL(r).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import eq
from typing import Optional

from . import gf_core, qcomb, subspace_enum
from .channel_model import ChannelSpec, TransitionCore, transition_core
from .gf_core import MatrixGF, mat_mul, row_lists, solve_factor
from .subspace_enum import Subspace

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


def _lift(e: MatrixGF, t: int) -> list:
    """E padded with zero rows to height t, as row lists: the input
    [D_U; 0] for E = D_U, and its output [E; 0] for E = D_U @ H.  The
    padding rows are one shared list; no consumer writes to a witness."""
    return e.to_lists() + [[0] * e.cols] * (t - e.rows)


def is_uniform_given_rank(spec: ChannelSpec) -> PredicateResult:
    """True iff the transfer PMF is constant on each rank shell.

    The ranks are read from the support index that the core steps
    through (``ChannelSpec.index``), and the test runs in bulk: the
    matrices of each rank must share one int weight and cover all
    xi2(M, N, r) matrices of that rank.  Only when that fails is the
    support scanned in sorted entry order, comparing masses by value, to
    name the witness: the least rank at fault, with the first two
    matrices of unequal mass in that order.
    """
    index = spec.index
    ranks, weights = index.ranks(), index.weights
    shell_weight = dict(zip(ranks, weights))
    q = spec.field.q
    # no rank is met more often than its shell has matrices, so the
    # shells are covered iff their sizes add up to the support size
    if sum(qcomb.xi2(spec.M, spec.N, r, q) for r in shell_weight) == len(
            ranks) and all(map(eq, weights,
                               map(shell_weight.__getitem__, ranks))):
        return PredicateResult(True)
    rank = dict(zip(spec.pmf_H, ranks))
    shells: dict = {}
    for h, p in sorted(spec.pmf_H.items()):
        shells.setdefault(rank[h], []).append((h, p))
    for r, shell_items in sorted(shells.items()):
        first, p1 = shell_items[0]
        for h, p in shell_items:
            if p is not p1 and p != p1:
                return PredicateResult(False, {
                    "reason": "unequal mass at equal rank",
                    "rank": r, "H1": row_lists(first, spec.N),
                    "H2": row_lists(h, spec.N),
                    "p1": str(p1), "p2": str(p)})
        shell = qcomb.xi2(spec.M, spec.N, r, q)
        if len(shell_items) != shell:
            return PredicateResult(False, {
                "reason": "rank shell only partially covered",
                "rank": r, "support": len(shell_items), "shell_size": shell})
    return PredicateResult(True)


@dataclass(frozen=True)
class FiberScan:
    """The fiber test of every class of core, from ``_fiber_scan``.

    A class passes when its table is constant on, and covers, every
    fiber it hits: the xi(dim U, dim R) matrices E of row space R.
    fiber_fault is (u, E1, E2, p1, p2) for the first class u that fails,
    with E1, E2 in one fiber and P_u(E1) = p1 != p2 = P_u(E2): the least
    E2 whose value differs from the first entry E1 of its fiber, else E1
    and a matrix missing from the least fiber not covered.  fault is the
    first failure met, that or two classes u1, u2 of one dimension with
    different fiber values, as (u1, E1, u2, E2, p1, p2) in that form.
    g maps each dimension r to the values {R: g_r(R)} its classes share
    and first_u maps r to its first class, in full when fault is None.
    """

    core: TransitionCore
    fiber_fault: Optional[tuple]
    fault: Optional[tuple]
    g: dict
    first_u: dict


def _fiber_scan(core: TransitionCore) -> FiberScan:
    """Read each ``core.fibers[u]`` once, in canonical class order; the
    scan stops at the first class that fails the fiber test."""
    spec = core.spec
    g: dict = {}
    first_u: dict = {}
    fault = None
    for u in core.input_classes():
        fibers = core.fibers[u]
        f = min((f for f in fibers.values() if f.odd), default=None,
                key=lambda f: f.odd[0])
        if f:
            e2, p2 = MatrixGF(spec.field, u.dim, spec.N, f.odd[0]), f.odd[1]
        elif short := [w for w, fw in fibers.items() if fw.mass != qcomb.xi(
                u.dim, w.dim, spec.field.q) * fw.value]:
            # no entry is odd, so fiber W holds mass / value entries
            w = min(short, key=Subspace.sort_key)
            f, p2 = fibers[w], ZERO
            e2 = next(e for c in gf_core.enumerate_full_rank(
                u.dim, w.dim, spec.field) if (e := mat_mul(
                    c, w.basis)).entries not in core.tables[u])
        if f:
            e1 = MatrixGF(spec.field, u.dim, spec.N, f.first)
            return FiberScan(core, (u, e1, e2, f.value, p2),
                             fault or (u, e1, u, e2, f.value, p2), g, first_u)
        if fault:
            continue
        values = {w: f.value for w, f in fibers.items()}
        u0, g0 = first_u.setdefault(u.dim, u), g.setdefault(u.dim, values)
        if values != g0:
            w = next(w for w in sorted(set(values) | set(g0),
                                       key=Subspace.sort_key)
                     if values.get(w, ZERO) != g0.get(w, ZERO))
            fault = (u0, w.basis, u, w.basis, g0.get(w, ZERO),
                     values.get(w, ZERO))
    return FiberScan(core, None, fault, g, first_u)


def is_row_space_symmetric(scan: FiberScan) -> PredicateResult:
    """P(Y|X) on the reachable cone is a function of the two row spaces.

    Reachable outputs of any X with row space U are in bijection with
    the cube of dim(U) x N matrices E, and the probability is the class
    value of E while the output row space equals the row space of E.
    So it suffices that every class passes the fiber test.
    """
    if scan.fiber_fault is None:
        return PredicateResult(True)
    u, e1, e2, p1, p2 = scan.fiber_fault
    t = scan.core.spec.T
    return PredicateResult(False, {
        "reason": "probability varies within a row-space fiber",
        "X": _lift(u.basis, t), "Y1": _lift(e1, t),
        "Y2": _lift(e2, t), "p1": str(p1), "p2": str(p2)})


def _gl_map(e_from: MatrixGF, e_to: MatrixGF) -> MatrixGF:
    """An invertible G with G @ e_from = e_to, for r x N matrices of equal
    row space W.

    Row-reducing [E | I_r] gives [D_W; 0] = P @ E with P invertible, so
    G = P_to^-1 @ P_from.
    """
    def reducer(e):
        r, n = e.rows, e.cols
        aug = MatrixGF(e.field, r, n + r, sum(
            (e.row(i) + tuple(int(i == j) for j in range(r))
             for i in range(r)), ()))
        red = gf_core.reduced_rows(aug)[0]
        return MatrixGF(e.field, r, r, tuple(
            red[i][n + j] for i in range(r) for j in range(r)))

    return solve_factor(reducer(e_from), reducer(e_to))


def is_rank_symmetric(scan: FiberScan):
    """P(Y|X) on the reachable cone is a function of (rank X, rank Y).

    Takes the core's ``_fiber_scan`` and returns (PredicateResult, mu)
    where mu maps (rank X, rank Y) to the common probability when the
    test passes.

    The outputs of [D_U; 0] carry the values of the table of U on the
    dim(U) x N cube, so the test holds iff all classes of dimension r
    share one table that is constant on its row-space fibers, with one
    value on all of Gr(s, N) for each s; a W the table does not hit
    counts as 0, and a W it hits as a positive value.
    """
    spec = scan.core.spec
    t = spec.T
    g, first_u, bad = scan.g, scan.first_u, scan.fault
    mu: dict = {}
    for r, values in sorted(() if bad else g.items()):
        u = first_u[r]
        for s in range(min(r, spec.N) + 1):
            cells = [(w.basis, p) for w, p in values.items() if w.dim == s]
            if cells and len(cells) < qcomb.gaussian_binomial(
                    spec.N, s, spec.field.q):
                # a W of dim s that no entry hits carries 0
                cells.append((next(
                    w for w in subspace_enum.enumerate_grassmannian(
                        s, spec.N, spec.field) if w not in values).basis,
                    ZERO))
            e1, p1 = cells[0] if cells else (None, ZERO)
            bad = bad or next(((u, e1, u, e2, p1, p2) for e2, p2 in cells
                               if p2 != p1), None)
            mu[(r, s)] = p1
    if bad:
        u1, e1, u2, e2, p1, p2 = bad
        return PredicateResult(False, {
            "reason": "probability varies at fixed (rank X, rank Y)",
            "rank_X": u1.dim, "rank_Y": gf_core.rank(e1),
            "X1": _lift(u1.basis, t), "Y1": _lift(e1, t),
            "X2": _lift(u2.basis, t), "Y2": _lift(e2, t),
            "p1": str(p1), "p2": str(p2)}), None
    return PredicateResult(True), mu


def usd_violation(core: TransitionCore):
    """None if P_U(E = 0) depends on dim U alone (the channel has a USD),
    else (u1, p1, u2, p2): the first two classes of one dimension, in
    canonical order, with zero masses p1 != p2."""
    n = core.spec.N
    first: dict = {}   # dim r -> (first class of dim r, its zero mass)
    for u in core.input_classes():
        p = core.tables[u].get((0,) * (u.dim * n), ZERO)
        u0, p0 = first.setdefault(u.dim, (u, p))
        if p != p0:
            return u0, p0, u, p
    return None


def has_unique_subspace_degradation(core: TransitionCore) -> PredicateResult:
    """P(column space of Y | X) must agree for all X with equal column space.

    With X = B @ G @ D_U the output column space is B @ G @ colspace(E),
    and the law of colspace(E) is fixed by the probabilities that it lies
    in each S of F^r.  colspace(E) lies in S iff D_K @ H = 0 for
    K = D_U^T(S^perp), itself a class, of dimension r - dim S.  So the law
    of every class is fixed by the zero-output masses P_K(E = 0), and the
    test holds iff P_U(E = 0) depends on dim U alone (``usd_violation``):
    the law of colspace(E) is then GL(r)-invariant and the same for all
    classes of dimension r.  Equivalently, the classes of each dimension
    share one law of rank E, the form ``css_unique`` needs: rank E = 0 iff
    E = 0, and the zero masses fix the law of colspace(E), so of rank E.
    Acceptance criterion 10f cross-checks the two forms.
    """
    bad = usd_violation(core)
    if bad is None:
        return PredicateResult(True)
    u1, p1, u2, p2 = bad
    t = core.spec.T
    # X1, X2 share the column space span(e_1..e_r); Y = 0 is the only
    # output with column space V = {0}.
    return PredicateResult(False, {
        "reason": "subspace channel depends on the input representative",
        "X1": _lift(u1.basis, t), "X2": _lift(u2.basis, t),
        "V": subspace_enum.trivial_subspace(core.spec.field, t).to_json(),
        "p1": str(p1), "p2": str(p2)})


def is_degraded(scan: FiberScan) -> PredicateResult:
    """Exact test of the two degradedness conditions.

    (a) P(Y|X) is a function of the column space of X;
    (b) for every pair of outputs with equal column space, the
        likelihood columns P(Y|.) and P(Y'|.) are proportional, which
        is the input-distribution-free form of requiring the ratio
        P(Y|X)/p(Y) to be constant on output column-space fibers for
        all input laws.

    (a) holds iff the core's ``_fiber_scan`` finds no fault: every class
    passes the fiber test and classes of equal dimension r share one
    table.  Then P(Y|X) = g_r(R) for R the row space of Y when the
    column space of Y lies in that of X (dimension r), and 0 otherwise,
    so (b) holds iff for each s the vectors (g_r(R)) over r = s..min(T,M)
    are proportional, zero patterns included, for all reachable R of
    dimension s.
    """
    spec = scan.core.spec
    t = spec.T
    g, first_u, bad = scan.g, scan.first_u, scan.fault
    if bad:
        u1, e1, u2, e2, p1, p2 = bad
        x2 = _lift(u2.basis, t)
        if u1 == u2:
            # G @ E2 = E1, so P(B E1 | B G D_U) = P_U(E2).
            x2 = _lift(mat_mul(_gl_map(e2, e1), u2.basis), t)
        return PredicateResult(False, {
            "reason": "P(Y|X) depends on more than the column space of X",
            "X1": _lift(u1.basis, t), "X2": x2, "Y": _lift(e1, t),
            "p1": str(p1), "p2": str(p2)})
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
                "reason": reason, "Y1": _lift(w1.basis, t),
                "Y2": _lift(w2.basis, t),
                "X": _lift(first_u[ranks[i]].basis, t)})
    return PredicateResult(True)


def classify(spec: ChannelSpec, core: TransitionCore = None) -> ClassReport:
    if core is None:
        core = transition_core(spec)
    scan = _fiber_scan(core)
    rs, mu = is_rank_symmetric(scan)
    return ClassReport(
        uniform_given_rank=is_uniform_given_rank(spec),
        rank_symmetric=rs,
        degraded=is_degraded(scan),
        unique_subspace_degradation=has_unique_subspace_degradation(core),
        row_space_symmetric=is_row_space_symmetric(scan),
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

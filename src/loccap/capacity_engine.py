"""Capacity computations for the channel Y = XH.

Shannon capacity is computed by Blahut-Arimoto over input row-space
classes: the capacity is always achieved by an input that is uniform
on each row-space fiber, so the optimization variables are one weight
per subspace of F^M (dimension at most min(T, M)).  For such inputs
the whole mutual information collapses onto the exact per-class tables
of D_U @ H, which keeps the alphabet tiny even when q^(T M) is not.

Subspace-coding capacity has three modes.  "alpha" searches one
row-space class per input rank: a lower bound in general.  "unique" is
that search on a channel with a unique subspace degradation (USD), where
it has a single choice and its convex optimum is the capacity.
"bruteforce" maximizes over deterministic degradations, one input matrix
per input column space.  One test decides the USD, the zero-mass test
``classify.usd_violation``: "unique" refuses a channel it fails, and
"auto" (``CSS_MODES``) reads it to run exactly one solver, "unique" or
"bruteforce".  The searches share one loop, ``_best_choice``, which
tries every choice of one option per group and keeps the first best; it
skips or abandons the Blahut-Arimoto runs that cannot replace it, and
returns what the full search returns.

Probabilities and counts stay exact (``Fraction``, ``int``) until an
entropy, an orbit term, a rank-interaction term or a Blahut-Arimoto row
needs floats, and each of these crosses one boundary: ``_log2`` takes
the log of an exact value from its numerator and denominator, so no
count or mass is rounded, or overflows, before its log; ``_float_row``
turns an exact row into a Blahut-Arimoto row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import fsum
from operator import itemgetter, mul
from typing import Dict, Iterable, List, Optional, Tuple

from . import classify as classify_mod
from . import qcomb
from .channel_model import (ChannelSpec, TransitionCore, column_space_law,
                            cond_rank_given_rowspace, output_laws,
                            transition_core)
from .gf_core import BudgetExceeded, MatrixGF
from .subspace_enum import Subspace

LOG2 = math.log2
DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 10 ** 5
DEFAULT_ASSIGNMENT_BUDGET = 10 ** 5
NAIVE_ALPHABET_BUDGET = 2 ** 24    # inputs times largest class table


class NonMonotoneBound(AssertionError):
    """Blahut-Arimoto's running lower bound fell between two iterations,
    or an output mass underflowed to 0.0: a numerical fault of the
    optimizer, with no result to report."""


class NoUniqueDegradation(ValueError):
    """``css_unique`` on a channel without a unique subspace degradation."""


# ---------------------------------------------------------------------------
# Result containers.

@dataclass
class CapacityResult:
    value: float
    gap: float
    iterations: int
    converged: bool
    mode: str
    alpha: Optional[Dict[Subspace, float]] = None


@dataclass
class CssResult:
    value: float
    gap: float
    iterations: int
    converged: bool
    mode: str
    rank_pmf: Optional[Dict[int, float]] = None
    assignments_tried: int = 1


@dataclass
class MarkovVerdict:
    long_chain: bool
    short_chain: bool
    max_violation_long: float
    max_violation_short: float


# ---------------------------------------------------------------------------
# The boundary between exact values and floats.

def _log2(x) -> float:
    """log2 of a positive int or Fraction.  The logs of numerator and
    denominator are taken separately, so neither a huge count nor a mass
    below the float range is rounded before its log."""
    return LOG2(x.numerator) - LOG2(x.denominator)


def _float_row(row: Dict[int, object]) -> Dict[int, float]:
    """An exact row as a Blahut-Arimoto row.  Entries that round to 0.0
    are dropped: they carry no float mass, and ``_ba`` takes their log."""
    return {k: f for k, p in row.items() if (f := float(p)) > 0.0}


# ---------------------------------------------------------------------------
# Generic reward-augmented Blahut-Arimoto.

def _columns(rows: Iterable[Dict[int, float]]) -> Dict[int, list]:
    """Output -> [(row index, probability)], over the rows' entries."""
    columns: Dict[int, list] = {}
    for i, row in enumerate(rows):
        for w, c in row.items():
            columns.setdefault(w, []).append((i, c))
    return columns


def _ba(rows: List[Dict[int, float]], rewards: Optional[List[float]],
        tol: float, max_iter: int, floor: float = -math.inf):
    """Maximize sum_i p(i) reward(i) + I(input; output) over input PMFs.

    rows[i] maps output index to probability; rewards defaults to 0.
    Returns (value, input PMF list, gap, iterations, converged).  The
    running lower bound is checked to be monotone.  Each iteration's
    upper value max_i d_i bounds the optimum from above, so once it is
    below ``floor`` the run is abandoned: it returns unconverged, after
    the iterations run, with a value below ``floor`` (-inf if it stopped
    before computing a lower value).

    The run is exactly equivariant: permuting the rows with their
    rewards and relabelling the outputs gives a bit-identical value,
    gap, iteration count and convergence flag, with the PMF permuted the
    same way.  Each iteration takes one log per output, and its three
    sums (the output mass p(w), the row score d_i, and the normaliser z)
    are ``math.fsum``s, which round the exact sum once and so do not
    depend on the order of their terms.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty input alphabet")
    if rewards is None:
        rewards = [0.0] * n
    columns = _columns(rows)
    slot = {w: k for k, w in enumerate(columns)}
    cols = list(columns.values())
    terms = [[(slot[w], -c) for w, c in row.items()] for row in rows]
    # d_i = reward_i + sum_w c log2 c - sum_w c log2 p(w)
    base = [r + fsum([c * LOG2(c) for c in row.values()])
            for r, row in zip(rewards, rows)]
    alpha = [1.0 / n] * n
    prev_lower = -math.inf
    lower = upper = 0.0
    it = 0
    for it in range(1, max_iter + 1):
        try:
            logs = [LOG2(fsum([alpha[i] * c for i, c in col]))
                    for col in cols]
        except ValueError:
            raise NonMonotoneBound(f"an output mass underflowed to 0.0 at "
                                   f"iteration {it}") from None
        d = [b + fsum([c * logs[k] for k, c in row])
             for b, row in zip(base, terms)]
        upper = max(d)
        if upper < floor:
            # the last lower value, kept below floor against rounding
            lower = min(prev_lower, upper)
            break
        scaled = [a * 2.0 ** (di - upper) for a, di in zip(alpha, d)]
        z = fsum(scaled)
        lower = upper + LOG2(z)
        if not (lower >= prev_lower - 1e-9):
            raise NonMonotoneBound(
                f"lower bound decreased: {prev_lower} -> {lower}")
        prev_lower = lower
        if upper - lower <= tol:
            return lower, alpha, upper - lower, it, True
        alpha = [s / z for s in scaled]
    return lower, alpha, upper - lower, it, False


# ---------------------------------------------------------------------------
# Class-level structure shared by the Shannon solvers.

@dataclass
class _ClassSetup:
    classes: List[Subspace]
    mass_rows: List[Dict[int, Fraction]]  # P(out row space | class)
    rewards: List[float]


def _class_setup(core: TransitionCore) -> _ClassSetup:
    """Collapse the channel onto output row-space orbits.

    For an input uniform on the fiber of row space U, the output matrix
    PMF is constant on each set of outputs sharing a row space W, with
    total mass m(U, W) independent of the fiber representative.  The
    orbit has xi(T, dim W) members, so the per-matrix output
    probability is m(W) / xi(T, dim W), and H(Y | X) is the entropy
    H(E_U) of the class table, E_U = D_U @ H.  So at fiber weights
    alpha, with U and W the row spaces of X and Y,

        I(X;Y) = I(U;W) + sum_U alpha(U) reward(U),
        reward(U) = sum_W m(U,W) log2(xi(T, dim W) / m(U,W)) - H(E_U),

    a standard discrete maximization over the orbit channel m with one
    reward per class.  Only the W some class table hits are outputs.
    Each reward is one ``math.fsum`` over the class's mass row and its
    table's values, so it depends only on the exact row and the multiset
    of values: classes equal in both get bitwise-equal rewards.
    """
    spec = core.spec
    classes = core.input_classes()
    out_spaces = sorted({w for u in classes for w in core.fibers[u]},
                        key=lambda s: s.sort_key())
    w_index = {w: i for i, w in enumerate(out_spaces)}
    log_orbits = [_log2(qcomb.xi(spec.T, w.dim, spec.field.q))
                  for w in out_spaces]
    mass_rows, rewards = [], []
    for u in classes:
        row = {w_index[w]: f.mass for w, f in core.fibers[u].items()}
        terms = [float(p) * (log_orbits[wi] - _log2(p))
                 for wi, p in row.items()]
        terms += [float(p) * _log2(p) for p in core.tables[u].values()]
        mass_rows.append(row)
        rewards.append(fsum(terms))
    return _ClassSetup(classes, mass_rows, rewards)


def mi_alpha(core: TransitionCore, alpha: Dict[Subspace, object]) -> float:
    """I(X;Y) in bits for the input uniform on each row-space fiber,
    with fiber weights alpha.

    Public although no caller in the package needs it: the tests check
    the class-level mutual information, and the bounds around it, at
    arbitrary weights, while ``_capacity_and_mi`` evaluates it only at
    the capacity achiever."""
    return _mi_alpha(core, _class_setup(core), alpha)


def _mi_alpha(core: TransitionCore, setup: _ClassSetup,
              alpha: Dict[Subspace, object]) -> float:
    """I(X;Y) = I(U;W) + sum_U alpha(U) reward(U), the identity of
    ``_class_setup``: the mutual information of the (class, W) joint
    plus the alpha-weighted mean reward."""
    weights = [float(alpha.get(u, 0)) for u in setup.classes]
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ValueError("alpha does not sum to 1")
    return (_mi(_row_space_joint(core, alpha))
            + fsum(map(mul, weights, setup.rewards)))


def shannon_capacity(core: TransitionCore, tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER) -> CapacityResult:
    """Shannon capacity in bits per channel use.

    Classes with the same exact mass row and the same reward are the
    same Blahut-Arimoto input, so they are interchangeable; they are
    merged before the optimization and the reported achiever
    concentrates the merged weight on the canonically first class, which
    makes the output deterministic even when the optimum is not unique.
    """
    return _shannon_capacity(_class_setup(core), tol, max_iter)


def _capacity_and_mi(core: TransitionCore, tol: float,
                     max_iter: int) -> Tuple[CapacityResult, float]:
    """shannon_capacity and mi_alpha at its achiever, from one class
    setup."""
    setup = _class_setup(core)
    cap = _shannon_capacity(setup, tol, max_iter)
    return cap, _mi_alpha(core, setup, cap.alpha)


def _shannon_capacity(setup: _ClassSetup, tol: float,
                      max_iter: int) -> CapacityResult:
    first: Dict[tuple, int] = {}
    for i, (row, reward) in enumerate(zip(setup.mass_rows, setup.rewards)):
        first.setdefault((tuple(sorted(row.items())), reward), i)
    reps = list(first.values())
    rows = [_float_row(setup.mass_rows[i]) for i in reps]
    rewards = [setup.rewards[i] for i in reps]
    value, alpha, gap, its, ok = _ba(rows, rewards, tol, max_iter)
    full_alpha = {u: 0.0 for u in setup.classes}
    for i, a in zip(reps, alpha):
        full_alpha[setup.classes[i]] = a
    return CapacityResult(value, gap, its, ok, "class", full_alpha)


def shannon_capacity_naive(core: TransitionCore, tol: float = DEFAULT_TOL,
                           max_iter: int = DEFAULT_MAX_ITER) -> CapacityResult:
    """Blahut-Arimoto over the full matrix alphabet; the oracle for
    shannon_capacity."""
    spec = core.spec
    q = spec.field.q
    if q ** (spec.T * spec.M) * max(len(t) for t in core.tables.values()) \
            > NAIVE_ALPHABET_BUDGET:
        raise BudgetExceeded("full-alphabet optimization exceeds budget")
    y_index: Dict[MatrixGF, int] = {}
    rows = [_float_row({y_index.setdefault(y, len(y_index)): p
                        for y, p in law.items()})
            for _, laws in output_laws(core) for _, law in laws]
    value, alpha, gap, its, ok = _ba(rows, None, tol, max_iter)
    return CapacityResult(value, gap, its, ok, "naive")


# ---------------------------------------------------------------------------
# Rate decompositions and bounds.

def j_rank(joint: Dict[Tuple[int, int], object], T: int, q: int) -> float:
    """The nonnegative rank-interaction rate term, in bits.

    joint is the PMF of (rank X, rank Y); each (r, s) cell contributes
    p * log2 of the ratio of full-column-rank counts xi(T,s)/xi(r,s).
    """
    out = 0.0
    for (r, s), p in joint.items():
        if p == 0:
            continue
        out += float(p) * (_log2(qcomb.xi(T, s, q)) - _log2(qcomb.xi(r, s, q)))
    return out


def lemma_full_rank_decomposition(spec: ChannelSpec):
    """For T >= M and full-rank inputs the rank-interaction rate splits
    into a channel-training part plus a bounded correction.

    Returns (j, training, eps) with j = training + eps, training =
    (T - M) E[rank H] log2 q, and eps in [0, 1.8).
    """
    if spec.T < spec.M:
        raise ValueError("requires T >= M")
    q = spec.field.q
    rank_pmf = spec.rank_pmf()
    joint = {(spec.M, s): p for s, p in rank_pmf.items()}
    j = j_rank(joint, spec.T, q)
    expected_rank = sum(s * p for s, p in rank_pmf.items())
    training = (spec.T - spec.M) * float(expected_rank) * LOG2(q)
    eps = qcomb.epsilon_term(rank_pmf, spec.T, spec.M, q)
    return j, training, eps


def _row_space_joint(core: TransitionCore, alpha: Dict[Subspace, object]):
    """Joint PMF of (row space of X, row space of Y) as floats."""
    joint: Dict[Tuple[Subspace, Subspace], float] = {}
    for u, a in alpha.items():
        a = float(a)
        if a == 0.0:
            continue
        for v, f in core.fibers[u].items():
            joint[(u, v)] = joint.get((u, v), 0.0) + a * float(f.mass)
    return joint


def _marginal(joint: Dict[tuple, float], key) -> Dict[object, float]:
    """The law of key(outcome) under a joint PMF."""
    out: Dict[object, float] = {}
    for k, p in joint.items():
        k = key(k)
        out[k] = out.get(k, 0.0) + p
    return out


def _dims(uv) -> Tuple[int, int]:
    return uv[0].dim, uv[1].dim


def _mi(joint) -> float:
    px = _marginal(joint, itemgetter(0))
    py = _marginal(joint, itemgetter(1))
    # Logs of the marginals separately: their product can underflow to
    # 0.0 when an achiever weight is subnormal.
    return sum(p * (LOG2(p) - LOG2(px[x]) - LOG2(py[y]))
               for (x, y), p in joint.items() if p > 0.0)


def bounds_row_space(core: TransitionCore, alpha: Dict[Subspace, object]):
    """Sandwich bounds on I(X;Y) for a fiber-uniform input.

    lower = j + I(row space X; row space Y); upper adds the conditional
    entropy headroom sum p(r,s) log2 xi(r,s).  The lower bound is tight
    for row-space-symmetric channels.
    """
    spec = core.spec
    q = spec.field.q
    joint = _row_space_joint(core, alpha)
    ranks = _marginal(joint, _dims)
    lower = j_rank(ranks, spec.T, q) + _mi(joint)
    slack = sum(p * _log2(qcomb.xi(r, s, q))
                for (r, s), p in ranks.items() if p > 0 and s > 0)
    return lower, lower + slack


# ---------------------------------------------------------------------------
# Subspace coding.

def css_unique(core: TransitionCore, tol: float = DEFAULT_TOL,
               max_iter: int = DEFAULT_MAX_ITER) -> CssResult:
    """Subspace coding capacity for channels with a unique subspace
    degradation, via convex rank-domain optimization: the search of
    ``css_alpha_lower``, which has one choice on such a channel."""
    if classify_mod.usd_violation(core) is not None:
        raise NoUniqueDegradation(
            "subspace channel depends on the input representative; "
            "the rank-domain optimization does not apply")
    res = css_alpha_lower(core, tol, max_iter)
    res.mode = "unique"
    return res


def _colour_ids(signatures: Dict[object, tuple]) -> Dict[object, int]:
    """Each item's rank among the distinct signatures, in sorted order:
    colour ids that do not depend on how the items are labelled."""
    rank = {sig: k for k, sig in enumerate(sorted(set(signatures.values())))}
    return {item: rank[sig] for item, sig in signatures.items()}


def _choice_key(choice) -> Optional[tuple]:
    """A key on which two choices of (row, reward) options agree only if
    one is the other with its options permuted and its outputs
    relabelled; None when no such key was found.

    Colour refinement on the bipartite graph of options and outputs:
    an option starts coloured by its reward and the multiset of its
    probabilities, an output by the multiset of its probabilities, and
    each round recolours outputs by the colours of the options that
    reach them and options by the colours of their outputs, each with
    the probability on the edge.  Colours are numbered in sorted
    signature order, so they do not depend on the labels.  Once every
    output has its own colour, the key is the sorted tuple of the
    options with their outputs renamed to their colours: two choices
    with equal keys are the same matrix up to the permutation and the
    relabelling.  When a round splits no colour and outputs still
    share one, the key is None.
    """
    columns = _columns(row for row, _ in choice)
    row_colour = _colour_ids({i: (reward, tuple(sorted(row.values())))
                              for i, (row, reward) in enumerate(choice)})
    col_colour = _colour_ids({w: tuple(sorted(c for _, c in col))
                              for w, col in columns.items()})
    sizes = None
    while True:
        n_cols = len(set(col_colour.values()))
        if n_cols == len(columns):
            return tuple(sorted(
                (tuple(sorted((col_colour[w], c) for w, c in row.items())),
                 reward) for row, reward in choice))
        now = (len(set(row_colour.values())), n_cols)
        if now == sizes:
            return None     # the last round split no colour
        sizes = now
        col_colour = _colour_ids({
            w: (col_colour[w],
                tuple(sorted((row_colour[i], c) for i, c in col)))
            for w, col in columns.items()})
        row_colour = _colour_ids({
            i: (row_colour[i],
                tuple(sorted((col_colour[w], c) for w, c in row.items())))
            for i, (row, _) in enumerate(choice)})


def _best_choice(groups: Iterable[list], tol: float, max_iter: int,
                 budget: int, what: str):
    """Try every choice of one (row, reward) option per group with
    Blahut-Arimoto; returns the first best (value, pmf, gap, its,
    converged) and the number of choices tried.  Groups are read one at a
    time, and the search is refused at the first that lifts the choices
    past ``budget``.

    A choice replaces the best only with a strictly larger value.  Every
    Blahut-Arimoto iteration's upper value bounds its choice's optimum,
    and so the value the run would end with; once it is below the best
    value so far, the choice cannot replace the best, and its run is
    abandoned.  Abandoned choices still count as tried.  The bound is
    exact in real arithmetic; in floats a run could only end above an
    upper value it passed by a rounding error, so a choice within a few
    ulps of the best is where the two searches could part, and the tests
    compare them on choice sets full of exact ties.

    A search of more than one choice runs one choice per symmetry
    class.  A choice whose ``_choice_key`` equals an earlier choice's is
    that choice with its options permuted and its outputs relabelled.
    ``_ba`` is exactly equivariant, so its run would retrace the earlier
    run to the last bit, against a floor no lower: it would be abandoned
    no later, or end with the earlier value, which did not beat the best
    then and cannot beat it now.  Either way it cannot replace the first
    best, nor raise a fault the earlier run did not raise, so it counts
    as tried and is not run.  The full search gives it the earlier value
    too, so the two searches still return the same result.
    """
    read, total = [], 1
    for group in groups:
        total *= len(group)
        if total > budget:
            raise BudgetExceeded(f"more than {budget} {what}")
        read.append(group)
    best = None
    tried = 0
    solved = set()
    for choice in product(*read):
        tried += 1
        if total > 1:
            key = _choice_key(choice)
            if key is not None:
                if key in solved:
                    continue
                solved.add(key)
        floor = -math.inf if best is None else best[0]
        res = _ba([row for row, _ in choice],
                  [reward for _, reward in choice], tol, max_iter, floor)
        if best is None or res[0] > best[0]:
            best = res
    return best, tried


def css_alpha_lower(core: TransitionCore, tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER,
                    budget: int = DEFAULT_ASSIGNMENT_BUDGET) -> CssResult:
    """Best subspace-coding rate over fiber-uniform inputs.

    A maximizer exists with a single row-space class per input rank, so
    the search enumerates one class choice per rank and solves a
    reward-augmented optimization for each combination.  The options of
    rank r are the distinct (float row, rate) pairs of the exact laws of
    rank Y that the classes of dimension r give, in class order.  The
    result is a lower bound on the subspace coding capacity, tight for
    channels with a representative independent subspace channel.
    """
    T, q = core.spec.T, core.spec.field.q
    by_rank: Dict[int, list] = {}
    for u in core.input_classes():
        law = cond_rank_given_rowspace(core, u)
        options = by_rank.setdefault(u.dim, [])
        entry = (_float_row(law),
                 j_rank({(u.dim, s): p for s, p in law.items()}, T, q))
        if entry not in options:
            options.append(entry)
    ranks = sorted(by_rank)
    (value, pmf, gap, its, ok), tried = _best_choice(
        [by_rank[r] for r in ranks], tol, max_iter, budget,
        "per-rank class assignments")
    return CssResult(value, gap, its, ok, "alpha",
                     rank_pmf=dict(zip(ranks, pmf)), assignments_tried=tried)


def css_bruteforce(core: TransitionCore, tol: float = DEFAULT_TOL,
                   max_iter: int = DEFAULT_MAX_ITER,
                   budget: int = DEFAULT_ASSIGNMENT_BUDGET) -> CssResult:
    """Exact subspace coding capacity by exhausting deterministic
    degradations (one input matrix per input column space).

    Deterministic degradations suffice for the maximum.  Identical
    subspace-channel rows are deduplicated before taking the product;
    output subspaces are numbered as they are met.
    """
    v_index: Dict[Subspace, int] = {}
    dims = []   # the dimension of each input column space read

    def groups():
        for w, laws in output_laws(core):
            rows = {}
            for _, law in laws:
                row = {v_index.setdefault(v, len(v_index)): p
                       for v, p in column_space_law(law).items()}
                rows.setdefault(frozenset(row.items()), row)
            dims.append(w.dim)
            yield [(_float_row(row), 0.0) for row in rows.values()]
    (value, pmf, gap, its, ok), tried = _best_choice(
        groups(), tol, max_iter, budget, "deterministic degradations")
    rank_pmf: Dict[int, float] = {}
    for r, p in zip(dims, pmf):
        rank_pmf[r] = rank_pmf.get(r, 0.0) + p
    return CssResult(value, gap, its, ok, "bruteforce", rank_pmf=rank_pmf,
                     assignments_tried=tried)


CSS_MODES = ("auto", "unique", "alpha", "bruteforce")


def subspace_coding_capacity(core: TransitionCore, mode: str = "auto",
                             tol: float = DEFAULT_TOL,
                             max_iter: int = DEFAULT_MAX_ITER,
                             budget: int = DEFAULT_ASSIGNMENT_BUDGET
                             ) -> CssResult:
    """C_ss by one of CSS_MODES; "auto" runs ``css_unique`` on a channel
    with a USD and ``css_bruteforce`` on any other."""
    if mode not in CSS_MODES:
        raise ValueError(f"unknown css mode {mode!r}")
    if mode == "auto":
        mode = "bruteforce" if classify_mod.usd_violation(core) else "unique"
    if mode == "unique":
        return css_unique(core, tol, max_iter)
    if mode == "alpha":
        return css_alpha_lower(core, tol, max_iter, budget)
    return css_bruteforce(core, tol, max_iter, budget)


# ---------------------------------------------------------------------------
# Diagnostics for comparing C with the subspace coding capacity.

def markov_check(core: TransitionCore, alpha: Dict[Subspace, object],
                 tol: float = 1e-9) -> MarkovVerdict:
    """Test the two chain factorizations at a given input weighting.

    long: row space X -> rank X -> rank Y -> row space Y;
    short: row space X -> rank Y -> row space Y.
    The joint is in floats, so a chain that holds exactly still shows
    rounding-size violations; the max absolute violations are reported,
    and a chain holds when its violation is at most tol.
    """
    joint = _row_space_joint(core, alpha)
    p_u = _marginal(joint, itemgetter(0))
    p_v = _marginal(joint, itemgetter(1))
    p_r = _marginal(joint, lambda uv: uv[0].dim)
    p_s = _marginal(joint, lambda uv: uv[1].dim)
    p_rs = _marginal(joint, _dims)
    p_us = _marginal(joint, lambda uv: (uv[0], uv[1].dim))
    viol_long = viol_short = 0.0
    for (u, v), p in joint.items():
        r, s = u.dim, v.dim
        lhs = p_r[r] * p_s[s] * p
        rhs = p_u[u] * p_rs[(r, s)] * p_v[v]
        viol_long = max(viol_long, abs(lhs - rhs))
        lhs2 = p * p_s[s]
        rhs2 = p_us[(u, s)] * p_v[v]
        viol_short = max(viol_short, abs(lhs2 - rhs2))
    return MarkovVerdict(viol_long <= tol, viol_short <= tol,
                         viol_long, viol_short)


# ---------------------------------------------------------------------------
# The combined report.

VERDICT_EQUAL = "C_EQUALS_CSS"
VERDICT_EXCEEDS = "C_EXCEEDS_CSS"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class ChannelReport:
    classes: classify_mod.ClassReport
    capacity: CapacityResult
    css: CssResult
    bounds: Tuple[float, float]
    markov: MarkovVerdict
    verdict: str
    verdict_reason: str


def capacity_report(spec: ChannelSpec, tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER,
                    css_mode: str = "auto",
                    budget: int = DEFAULT_ASSIGNMENT_BUDGET,
                    core: Optional[TransitionCore] = None) -> ChannelReport:
    """Classify the channel, compute C and the subspace coding capacity,
    and compare them.

    The verdict only asserts equality when a theorem applies: degraded
    channels (the zero channel among them), or row-space-symmetric
    channels whose capacity achiever satisfies the long rank chain
    (checked numerically at the Blahut-Arimoto output).  Strict excess
    is asserted only when the difference clears ten times the
    optimization tolerance and the subspace value is not merely a lower
    bound.  Both of these need the two optimizations to have converged;
    otherwise only the degraded case gives a verdict.  Pass ``core``
    when the caller already holds the transition core of ``spec``.
    """
    if core is None:
        core = transition_core(spec)
    report = classify_mod.classify(spec, core)
    cap = shannon_capacity(core, tol, max_iter)
    css = subspace_coding_capacity(core, css_mode, tol, max_iter, budget)
    bounds = bounds_row_space(core, cap.alpha)
    markov = markov_check(core, cap.alpha, tol=math.sqrt(tol))
    css_exact = css.mode in ("unique", "bruteforce")
    unconverged = [name for name, res in (("C", cap), ("C_ss", css))
                   if not res.converged]
    if report.degraded.holds:
        verdict = VERDICT_EQUAL
        reason = ("channel is degraded; subspace coding achieves the "
                  "Shannon capacity")
    elif unconverged:
        verdict = VERDICT_INCONCLUSIVE
        reason = (f"optimization of {' and '.join(unconverged)} did not "
                  f"converge; only the degraded-channel theorem applies")
    elif css_exact and cap.value - css.value > 10 * tol:
        verdict = VERDICT_EXCEEDS
        reason = (f"C - C_ss = {cap.value - css.value:.6g} exceeds the "
                  f"comparison threshold")
    elif report.row_space_symmetric.holds and markov.long_chain:
        verdict = VERDICT_EQUAL
        reason = ("row-space-symmetric channel whose capacity achiever "
                  "satisfies the long rank chain")
    else:
        verdict = VERDICT_INCONCLUSIVE
        reason = "no applicable equality theorem and no certified gap"
    return ChannelReport(report, cap, css, bounds, markov, verdict, reason)

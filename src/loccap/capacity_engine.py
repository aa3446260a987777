"""Capacity computations for the channel Y = XH.

Shannon capacity is computed by Blahut-Arimoto over input row-space
classes: the capacity is always achieved by an input that is uniform
on each row-space fiber, so the optimization variables are one weight
per subspace of F^M (dimension at most min(T, M)).  For such inputs
the whole mutual information collapses onto the exact per-class tables
of D_U @ H, which keeps the alphabet tiny even when q^(T M) is not.
Every optimization is one ``_ba`` run, which certifies an interval
around the optimum; on two inputs it bisects the one free weight, and
on three or more it takes over-relaxed Blahut-Arimoto steps whose size
adapts to the run.

Subspace-coding capacity has three modes.  "alpha" searches one
row-space class per input rank: a lower bound in general.  "unique" is
that search on a channel with a unique subspace degradation (USD), where
it has a single choice and its convex optimum is the capacity.
"bruteforce" maximizes over deterministic degradations, one input matrix
per input column space, with the options of each column space built from
the class tables (``_degradation_groups``), not from the q^(T M) inputs.
One test decides the USD, the zero-mass test
``classify.usd_violation``: "unique" refuses a channel it fails, and
"auto" (``CSS_MODES``) reads it to run exactly one solver, "unique" or
"bruteforce".  The searches share one branch and bound over the
choices of one option per group, ``_best_choice``: a single
Blahut-Arimoto run over every option of the undecided groups at once
bounds every choice below a node, so most choices are settled without
a run of their own.  It returns a choice within tol of the best, and an
upper end on every choice.

Probabilities and counts stay exact (``Fraction``, ``int``) until an
entropy, an orbit term, a rank-interaction term or a Blahut-Arimoto row
needs floats, and each of these crosses one boundary: ``_log2`` takes
the log of an exact value from its numerator and denominator, so no
count or mass is rounded, or overflows, before its log; ``_float_row``
turns an exact row into a Blahut-Arimoto row.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import fsum
from operator import mul
from typing import Dict, Iterable, List, Optional, Tuple

from . import classify as classify_mod
from . import qcomb, subspace_enum
from .channel_model import (ChannelSpec, TransitionCore, column_factor,
                            cond_rank_given_rowspace, transition_core)
from .gf_core import BudgetExceeded, MatrixGF, identity, mat_mul, transpose
from .subspace_enum import Subspace, span_columns, span_rows

LOG2 = math.log2
DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 10 ** 5
DEFAULT_ASSIGNMENT_BUDGET = 10 ** 5
INPUT_ENUM_BUDGET = 2 ** 24    # the most inputs whose options are built
_MAX_STEP = 64      # the cap on _ba's over-relaxation factor mu


class NonMonotoneBound(AssertionError):
    """Blahut-Arimoto's lower value fell after a plain step, or an output
    mass underflowed to 0.0 there: a numerical fault of the optimizer,
    with no result to report.  An over-relaxed trial point that does
    either is rejected instead (see ``_ba``)."""


class NoUniqueDegradation(ValueError):
    """``css_unique`` on a channel without a unique subspace degradation."""


# ---------------------------------------------------------------------------
# Result containers.

@dataclass
class CapacityResult:
    """A capacity certified to lie in [value, upper], with upper = inf
    when no upper end is certified; ``gap`` is the reported
    Blahut-Arimoto run's own."""
    value: float
    gap: float
    iterations: int
    converged: bool
    mode: str
    alpha: Optional[Dict[Subspace, float]] = None
    rank_pmf: Optional[Dict[int, float]] = None
    assignments_tried: int = 1
    upper: float = math.inf


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
    Returns (value, input PMF list, gap, iterations, converged).  Each
    iteration scores the inputs at one PMF p, d_i = reward_i +
    D(row_i || output law of p), and certifies that point on its own:
    the optimum lies in [Arimoto's lower value log2 sum_i p(i) 2^d_i,
    the upper value max_i d_i], and the run converges once that
    interval is at most tol wide, returning that point.  Once an upper
    value is below ``floor`` the run is abandoned: it returns
    unconverged, after the iterations run, with a value below ``floor``
    (-inf if it stopped before computing a lower value).  value + gap is
    the last upper value, so [value, value + gap] holds the optimum at
    every exit but an abandonment at the first iteration, where it is
    NaN.

    Three or more inputs take over-relaxed Blahut-Arimoto steps,
    p(i) <- p(i) 2^(mu (d_i - max_j d_j)) normalised, where mu = 1 is
    the plain Blahut-Arimoto step.  Each accepted point is left by a
    step with the current mu, starting at 1, after which mu doubles, up
    to ``_MAX_STEP``.  A point reached with mu > 1 is a trial, accepted
    only when its lower value is at least the last accepted one and its
    interval is no wider.  A trial that fails either test, or one of
    whose output masses underflows to 0.0, is rejected: the run goes
    back to the last accepted point, takes the plain step from it, and
    resets mu to 1; so does a trial step that would round every weight
    to 0.0.  The width test matters near the optimum, where the lower
    value is flat to rounding while an overshooting step still widens
    the interval.  A trial may round some weights to 0.0, which no
    later step raises again; the tests cross-check the runs with plain
    Blahut-Arimoto.  Plain points are accepted at any width, but plain
    steps never lower the lower value in exact arithmetic, so a fall
    past rounding, or an underflow, after a plain step raises
    ``NonMonotoneBound``.  ``iterations`` counts the points scored,
    rejected trials included.  The value is the last accepted point's
    lower value, and an unconverged run returns the plain step from
    that point.

    Two inputs take a bisection on t = p(0) - p(1) in (-1, 1), started
    at t = 0: the objective is concave in t with slope (d_0 - d_1) / 2,
    so each step moves t toward the input with the larger score, and
    ``iterations`` counts these steps.  It stops unconverged when the
    bracket has no float between its ends.  A weight is never below
    2^-54, so an output mass underflows only where every row entry
    reaching it is below 2^-1020.

    The run is exactly equivariant: permuting the rows with their
    rewards and relabelling the outputs gives a bit-identical value,
    gap, iteration count and convergence flag, with the PMF permuted the
    same way.  Each iteration takes one log per output, and its sums
    (the output mass p(w), the row score d_i, and the normalisers) are
    ``math.fsum``s, which round the exact sum once and so do not depend
    on the order of their terms; the step's other operations are
    elementwise, or a ``max``, and mu follows from the lower values
    alone.  Swapping two inputs maps the bisection's t to -t, its
    bracket to the negated bracket and its PMF to the swapped PMF, each
    exactly.  No caller needs more than an interval that holds the
    optimum, but equivariance makes a relabelled channel print the same
    values, and a choice search's relaxation the same bound whatever the
    order of its options.
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
    lo, t, hi = -1.0, 0.0, 1.0      # the two-input bisection's bracket
    mu, trial, plain = 1, False, None   # the over-relaxed steps' state
    lower, upper, width = -math.inf, 0.0, math.inf
    it = 0
    for it in range(1, max_iter + 1):
        if n == 2:
            alpha = [(1.0 + t) / 2, (1.0 - t) / 2]
        try:
            logs = [LOG2(fsum([alpha[i] * c for i, c in col]))
                    for col in cols]
        except ValueError:
            if trial:
                alpha, mu, trial = plain, 1, False
                continue
            raise NonMonotoneBound(f"an output mass underflowed to 0.0 at "
                                   f"iteration {it}") from None
        d = [b + fsum([c * logs[k] for k, c in row])
             for b, row in zip(base, terms)]
        upper = max(d)
        if upper < floor:
            # the last lower value, kept below floor against rounding
            lower = min(lower, upper)
            break
        scaled = [a * 2.0 ** (di - upper) for a, di in zip(alpha, d)]
        z = fsum(scaled)
        value = upper + LOG2(z)
        if trial and not (value >= lower and upper - value <= width):
            alpha, mu, trial = plain, 1, False
            continue
        if n != 2 and not (value >= lower - 1e-9):
            raise NonMonotoneBound(
                f"lower bound decreased: {lower} -> {value}")
        lower, width = value, upper - value
        if width <= tol:
            return lower, alpha, width, it, True
        if n == 2:
            # tied scores converged above: the two weights fsum to 1.0
            if d[0] > d[1]:
                lo = t
            else:
                hi = t
            t = (lo + hi) / 2
            if t == lo or t == hi:
                break
            continue
        plain = [s / z for s in scaled]
        if mu == 1:
            alpha, mu, trial = plain, 2, False
            continue
        scaled = [a * 2.0 ** (mu * (di - upper)) for a, di in zip(alpha, d)]
        z = fsum(scaled)
        if z == 0.0:    # the top input had weight 0.0, and the rest underflow
            alpha, mu, trial = plain, 1, False
            continue
        alpha = [s / z for s in scaled]
        mu, trial = min(2 * mu, _MAX_STEP), True
    return lower, alpha if plain is None else plain, upper - lower, it, False


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
    return (_mi(_row_space_laws(core, alpha))
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
    return CapacityResult(value, gap, its, ok, "class", full_alpha,
                          upper=value + gap)


def shannon_capacity_naive(core: TransitionCore, tol: float = DEFAULT_TOL,
                           max_iter: int = DEFAULT_MAX_ITER) -> CapacityResult:
    """Blahut-Arimoto over the full matrix alphabet, one row per input of
    ``oracle.transition_naive``; the oracle for shannon_capacity."""
    from . import oracle   # brute force, which report never loads
    y_index: Dict[tuple, int] = {}
    rows = [_float_row({y_index.setdefault(y, len(y_index)): p
                        for y, p in law.items()})
            for law in oracle.input_laws(core.spec).values()]
    value, alpha, gap, its, ok = _ba(rows, None, tol, max_iter)
    return CapacityResult(value, gap, its, ok, "naive", upper=value + gap)


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


_RowSpaceLaws = namedtuple("_RowSpaceLaws", "joint u w r s rs us")


def _row_space_laws(core: TransitionCore,
                    alpha: Dict[Subspace, object]) -> _RowSpaceLaws:
    """The joint PMF of (U, W), the row spaces of X and Y, as floats, for
    the input uniform on each row-space fiber with fiber weights alpha;
    and, in the same pass, its marginals over U, W, dim U, dim W,
    (dim U, dim W) and (U, dim W), each adding the joint's cells in the
    joint's own order."""
    laws = _RowSpaceLaws({}, {}, {}, {}, {}, {}, {})
    joint, marginals = laws[0], laws[1:]
    for u, a in alpha.items():
        a = float(a)
        if a == 0.0:
            continue
        r = u.dim
        for w, f in core.fibers[u].items():
            p = joint[(u, w)] = a * float(f.mass)
            s = w.dim
            for law, k in zip(marginals, (u, w, r, s, (r, s), (u, s))):
                law[k] = law.get(k, 0.0) + p
    return laws


def _mi(laws: _RowSpaceLaws) -> float:
    # Logs of the marginals separately: their product can underflow to
    # 0.0 when an achiever weight is subnormal.
    return sum(p * (LOG2(p) - LOG2(laws.u[u]) - LOG2(laws.w[w]))
               for (u, w), p in laws.joint.items() if p > 0.0)


def bounds_row_space(core: TransitionCore, alpha: Dict[Subspace, object]):
    """Sandwich bounds on I(X;Y) for a fiber-uniform input.

    lower = j + I(row space X; row space Y); upper adds the conditional
    entropy headroom sum p(r,s) log2 xi(r,s).  The lower bound is tight
    for row-space-symmetric channels.
    """
    spec = core.spec
    q = spec.field.q
    laws = _row_space_laws(core, alpha)
    lower = j_rank(laws.rs, spec.T, q) + _mi(laws)
    slack = sum(p * _log2(qcomb.xi(r, s, q))
                for (r, s), p in laws.rs.items() if p > 0 and s > 0)
    return lower, lower + slack


# ---------------------------------------------------------------------------
# Subspace coding.

def css_unique(core: TransitionCore, tol: float = DEFAULT_TOL,
               max_iter: int = DEFAULT_MAX_ITER) -> CapacityResult:
    """Subspace coding capacity for channels with a unique subspace
    degradation, via convex rank-domain optimization: the search of
    ``css_alpha_lower``, which has one choice on such a channel, so its
    one run's value + gap is an upper end."""
    if classify_mod.usd_violation(core) is not None:
        raise NoUniqueDegradation(
            "subspace channel depends on the input representative; "
            "the rank-domain optimization does not apply")
    res = css_alpha_lower(core, tol, max_iter)
    res.mode = "unique"
    res.upper = res.value + res.gap
    return res


def _best_choice(groups: Iterable[list], tol: float, max_iter: int,
                 budget: int, what: str):
    """The best choice of one (row, reward) option per group, by branch
    and bound; returns its Blahut-Arimoto run (value, pmf, gap, its,
    converged), the number of choices settled, and an upper end on every
    choice's optimum.  Groups are read one at a time, and the search is
    refused at the first that lifts the choices past ``budget``.

    A node fixes one option in some of the groups with more than one,
    and relaxes the rest: one ``_ba`` run over the distinct options of
    its fixed groups and every option of its free groups.  That input
    set holds every completion's inputs, so each upper value of the run,
    max_i d_i at any scored point, bounds every completion's optimum,
    converged or not.  With eps = tol, a node is pruned when its run is
    abandoned below best value + eps, or when it ends with value + gap at
    most that; it branches on its first free group otherwise, option by
    option.  Before it branches, the root dives to one leaf, which takes
    in each free group, in turn, the option its relaxed optimum weights
    most, preferring options no earlier pick holds (a repeated option
    adds no input); the root then tests its own upper value against that
    leaf, and its branch does not run that leaf again.  A leaf is one
    choice, run on its options in group order against the best value as
    ``floor``; it replaces the best only with a strictly larger value.
    A search of one choice is therefore that one run.

    Every choice is a leaf or lies below a pruned node, so the upper end
    is the largest of the leaves' value + gap and the pruned nodes'
    upper values (a node abandoned at its first point, whose value + gap
    is NaN, counts its floor), and no choice below a pruned node has an
    optimum above best value + eps.  Abandoned leaves are left out: their
    optimum is below the best value.  The first best leaf wins, so among
    choices that tie exactly the search may return another than the
    first in product order.
    """
    read, total = [], 1
    for group in groups:
        total *= len(group)
        if total > budget:
            raise BudgetExceeded(f"more than {budget} {what}")
        read.append(group)
    keys = [[(frozenset(row.items()), reward) for row, reward in group]
            for group in read]
    free = [g for g, group in enumerate(read) if len(group) > 1]
    best, upper, dive = None, -math.inf, None

    def run(options, floor):
        return _ba([row for row, _ in options],
                   [reward for _, reward in options], tol, max_iter, floor)

    def leaf(picks):
        nonlocal best, upper
        floor = -math.inf if best is None else best[0]
        res = run([group[k] for group, k in zip(read, picks)], floor)
        if res[0] + res[2] >= floor:    # not abandoned
            upper = max(upper, res[0] + res[2])
        if best is None or res[0] > best[0]:
            best = res

    def node(picks, depth):
        nonlocal upper, dive
        if depth == len(free):
            if picks != dive:
                leaf(picks)
            return
        slot, options = {}, []
        for g, group in enumerate(read):
            for k in range(len(group)) if picks[g] is None else (picks[g],):
                if keys[g][k] not in slot:
                    slot[keys[g][k]] = len(options)
                    options.append(group[k])
        floor = (-math.inf if best is None else best[0]) + tol
        value, pmf, gap, _, _ = run(options, floor)
        bound = floor if math.isnan(value + gap) else value + gap
        if depth == 0:      # the dive
            dive = list(picks)
            taken = {keys[g][k] for g, k in enumerate(picks) if k is not None}
            for g in free:
                dive[g] = max(range(len(read[g])), key=lambda j, g=g: (
                    keys[g][j] not in taken, pmf[slot[keys[g][j]]]))
                taken.add(keys[g][dive[g]])
            leaf(dive)
        if bound <= best[0] + tol:
            upper = max(upper, bound)
            return
        g = free[depth]
        for k in range(len(read[g])):
            node(picks[:g] + [k] + picks[g + 1:], depth + 1)

    node([0 if len(group) == 1 else None for group in read], 0)
    return best, total, upper


def css_alpha_lower(core: TransitionCore, tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER,
                    budget: int = DEFAULT_ASSIGNMENT_BUDGET) -> CapacityResult:
    """Best subspace-coding rate over fiber-uniform inputs.

    A maximizer exists with a single row-space class per input rank, so
    the search enumerates one class choice per rank and solves a
    reward-augmented optimization for each combination.  The options of
    rank r are the distinct (float row, rate) pairs of the exact laws of
    rank Y that the classes of dimension r give, in class order.  The
    result is a lower bound on the subspace coding capacity, tight for
    channels with a representative independent subspace channel; it
    certifies no upper end.
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
    (value, pmf, gap, its, ok), tried, _ = _best_choice(
        [by_rank[r] for r in ranks], tol, max_iter, budget,
        "per-rank class assignments")
    return CapacityResult(value, gap, its, ok, "alpha",
                          rank_pmf=dict(zip(ranks, pmf)),
                          assignments_tried=tried)


def _degradation_groups(core: TransitionCore):
    """The groups of ``css_bruteforce``'s search, one per input column
    space W in ``enumerate_projective`` order (so [T, r]_q groups of each
    dimension r in turn): the distinct column-space laws of Y that W's
    inputs give, as (row, 0.0) options in the order of their first input
    in ``matrices_with_column_space``, with the output subspaces numbered
    as they are met.

    The inputs of every W of dimension r are X = W.basis^T @ A, for the
    full-row-rank r x M matrices A in one order, and A = G @ D_U
    (``column_factor``) with U its row space; so colspace(Y) is
    W.basis^T @ G @ colspace(E) for E in U's table.  The laws of the A
    are built once per dimension, from one law of colspace(E) per class,
    and pushed to each W.  Both pushes are injective, so they keep the
    laws distinct, and each law's subspaces in order.
    """
    spec = core.spec
    field = spec.field
    if field.q ** (spec.T * spec.M) > INPUT_ENUM_BUDGET:
        raise BudgetExceeded("input enumeration exceeds budget")
    v_index: Dict[Subspace, int] = {}
    for r in range(min(spec.T, spec.M) + 1):
        class_laws: Dict[Subspace, dict] = {}
        for u, table in core.tables.items():
            if u.dim == r:
                law = class_laws[u] = {}
                for e, p in table.items():
                    v = span_columns(MatrixGF(field, r, spec.N, e))
                    law[v] = law.get(v, 0) + p
        laws: Dict[frozenset, dict] = {}
        for a in subspace_enum.matrices_with_column_space(
                span_rows(identity(field, r)), spec.M):
            u = span_rows(a)
            g = transpose(column_factor(a, u))
            law = {span_rows(mat_mul(v.basis, g)): p
                   for v, p in class_laws[u].items()}
            laws.setdefault(frozenset(law.items()), law)
        for w in subspace_enum.enumerate_grassmannian(r, spec.T, field):
            yield [(_float_row({v_index.setdefault(
                span_rows(mat_mul(v.basis, w.basis)), len(v_index)): p
                for v, p in law.items()}), 0.0) for law in laws.values()]


def css_bruteforce(core: TransitionCore, tol: float = DEFAULT_TOL,
                   max_iter: int = DEFAULT_MAX_ITER,
                   budget: int = DEFAULT_ASSIGNMENT_BUDGET) -> CapacityResult:
    """Exact subspace coding capacity over deterministic degradations
    (one input matrix per input column space), which suffice for the
    maximum, by the choice search over ``_degradation_groups``."""
    (value, pmf, gap, its, ok), tried, upper = _best_choice(
        _degradation_groups(core), tol, max_iter, budget,
        "deterministic degradations")
    T, q = core.spec.T, core.spec.field.q
    dims = [r for r in range(min(T, core.spec.M) + 1)
            for _ in range(qcomb.gaussian_binomial(T, r, q))]
    rank_pmf: Dict[int, float] = {}
    for r, p in zip(dims, pmf):
        rank_pmf[r] = rank_pmf.get(r, 0.0) + p
    return CapacityResult(value, gap, its, ok, "bruteforce",
                          rank_pmf=rank_pmf, assignments_tried=tried,
                          upper=upper)


CSS_MODES = ("auto", "unique", "alpha", "bruteforce")


def subspace_coding_capacity(core: TransitionCore, mode: str = "auto",
                             tol: float = DEFAULT_TOL,
                             max_iter: int = DEFAULT_MAX_ITER,
                             budget: int = DEFAULT_ASSIGNMENT_BUDGET
                             ) -> CapacityResult:
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
    laws = _row_space_laws(core, alpha)
    viol_long = viol_short = 0.0
    for (u, w), p in laws.joint.items():
        r, s = u.dim, w.dim
        lhs = laws.r[r] * laws.s[s] * p
        rhs = laws.u[u] * laws.rs[(r, s)] * laws.w[w]
        viol_long = max(viol_long, abs(lhs - rhs))
        lhs2 = p * laws.s[s]
        rhs2 = laws.us[(u, s)] * laws.w[w]
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
    css: CapacityResult
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

    The verdict is the first rule that applies: (1) C = C_ss on a
    degraded channel (the zero channel among them); (2) C > C_ss when
    C's lower end exceeds C_ss's upper end (inf if uncertified) by more
    than ten times the tolerance; (3) nothing more when the optimization
    of C did not converge; (4) C = C_ss on a row-space-symmetric channel
    whose capacity achiever satisfies the long rank chain (checked
    numerically at the Blahut-Arimoto output); (5) inconclusive.  Pass
    ``core`` when the caller already holds the transition core of
    ``spec``.
    """
    if core is None:
        core = transition_core(spec)
    report = classify_mod.classify(spec, core)
    cap = shannon_capacity(core, tol, max_iter)
    css = subspace_coding_capacity(core, css_mode, tol, max_iter, budget)
    bounds = bounds_row_space(core, cap.alpha)
    markov = markov_check(core, cap.alpha, tol=math.sqrt(tol))
    margin = cap.value - css.upper
    if report.degraded.holds:
        verdict = VERDICT_EQUAL
        reason = ("channel is degraded; subspace coding achieves the "
                  "Shannon capacity")
    elif margin > 10 * tol:
        verdict = VERDICT_EXCEEDS
        reason = (f"C - C_ss >= {margin:.6g}, the lower end of C less the "
                  f"upper end of C_ss, exceeds the comparison threshold")
    elif not cap.converged:
        verdict = VERDICT_INCONCLUSIVE
        reason = ("optimization of C did not converge; no certified gap "
                  "and no equality theorem applies")
    elif report.row_space_symmetric.holds and markov.long_chain:
        verdict = VERDICT_EQUAL
        reason = ("row-space-symmetric channel whose capacity achiever "
                  "satisfies the long rank chain")
    else:
        verdict = VERDICT_INCONCLUSIVE
        reason = "no applicable equality theorem and no certified gap"
    return ChannelReport(report, cap, css, bounds, markov, verdict, reason)

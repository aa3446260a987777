import json
import math
import random
import sys
from fractions import Fraction
from itertools import permutations, product

import pytest

from loccap import capacity_engine as ce
from loccap import channel_model as cm
from loccap import classify as cls
from loccap import cli, gf_core, oracle, qcomb, subspace_enum
from loccap.channel_model import transition_core
from loccap.gf_core import BudgetExceeded, FieldSpec
from loccap.oracle import transition_naive
from loccap.subspace_enum import span_rows

from conftest import (best_choice_unpruned, blahut_arimoto_reference,
                      merged_classes_reference, mi_alpha_reference,
                      random_small_channel, rank_joint, row_steps,
                      two_input_bisection_reference)

F2 = FieldSpec(2)


def _random_alpha(rng, core):
    classes = core.input_classes()
    weights = [rng.randint(0, 5) for _ in classes]
    if sum(weights) == 0:
        weights[0] = 1
    total = sum(weights)
    return {u: Fraction(w, total) for u, w in zip(classes, weights)}


def _mi_naive(spec, alpha):
    """I(X;Y) from the full joint, for the fiber-uniform input alpha."""
    naive = transition_naive(spec)
    fiber = {u: qcomb.xi(spec.T, u.dim, spec.field.q) if u.dim else 1
             for u in alpha}
    joint = {}
    from loccap.gf_core import all_matrices
    for x in all_matrices(spec.field, spec.T, spec.M):
        u = span_rows(x)
        px = Fraction(alpha.get(u, 0), fiber[u]) if u in alpha else 0
        if px == 0:
            continue
        for (xe, ye), p in naive.items():
            if xe == x.entries:
                joint[(xe, ye)] = joint.get((xe, ye), Fraction(0)) + px * p
    px_m, py_m = {}, {}
    for (xe, ye), p in joint.items():
        px_m[xe] = px_m.get(xe, Fraction(0)) + p
        py_m[ye] = py_m.get(ye, Fraction(0)) + p
    out = 0.0
    for (xe, ye), p in joint.items():
        if p > 0:
            out += float(p) * math.log2(p / (px_m[xe] * py_m[ye]))
    return out


def test_mi_alpha_matches_naive_joint(fixtures):
    rng = random.Random(31)
    for spec, core in fixtures.values():
        for _ in range(3):
            alpha = _random_alpha(rng, core)
            assert ce.mi_alpha(core, alpha) == pytest.approx(
                _mi_naive(spec, alpha), abs=1e-9)


def test_mi_alpha_matches_naive_joint_random():
    rng = random.Random(32)
    for _ in range(15):
        spec = random_small_channel(rng)
        core = transition_core(spec)
        alpha = _random_alpha(rng, core)
        assert ce.mi_alpha(core, alpha) == pytest.approx(
            _mi_naive(spec, alpha), abs=1e-9)


def _class_layer_channels():
    """500 random channels (q in {2, 3}; T, M, N at most 3) and every
    generator family at small shapes."""
    rng = random.Random(19)
    for _ in range(500):
        yield cm.random_channel(rng, rng.choice([2, 3]), rng.randint(1, 3),
                                rng.randint(1, 3), rng.randint(1, 3))
    half, third = Fraction(1, 2), Fraction(1, 3)
    yield cm.generate("iid_uniform", q=2, T=2, M=2, N=2)
    yield cm.generate("iid_uniform", q=3, T=1, M=2, N=2)
    yield cm.generate("full_rank_uniform", q=3, T=2, M=2)
    yield cm.generate("uniform_given_rank", q=2, T=3, M=3, N=2,
                      rank_pmf={1: half, 2: half})
    yield cm.generate("uniform_given_rank", q=3, T=2, M=2, N=2,
                      rank_pmf={0: third, 2: 2 * third})
    yield cm.generate("custom_rank_dist", q=2, T=3, M=3, N=3,
                      rank_pmf={1: third, 2: third, 3: third})


def test_mi_alpha_matches_the_h_y_minus_h_y_given_x_reference():
    rng = random.Random(20)
    for spec in _class_layer_channels():
        core = transition_core(spec)
        alpha = _random_alpha(rng, core)
        assert ce.mi_alpha(core, alpha) == pytest.approx(
            mi_alpha_reference(core, alpha), abs=1e-9)
        cap, _, mi = ce._capacity_and_mi(core, ce.DEFAULT_TOL,
                                         ce.DEFAULT_MAX_ITER)
        assert mi == pytest.approx(mi_alpha_reference(core, cap.alpha),
                                   abs=1e-9)


def test_shannon_capacity_keeps_the_classes_of_the_value_signature(
        monkeypatch):
    # a stub solver gives every row it is passed weight, so the achiever's
    # support is the set of classes kept after merging
    def uniform(rows, rewards, tol, max_iter):
        return 0.0, [1 / len(rows)] * len(rows), 0.0, 1, True

    monkeypatch.setattr(ce, "_ba", uniform)
    for spec in _class_layer_channels():
        core = transition_core(spec)
        alpha = ce.shannon_capacity(core).alpha
        assert [u for u, a in alpha.items() if a > 0] \
            == merged_classes_reference(core)


def test_rewards_depend_only_on_the_mass_row_and_the_value_multiset():
    for spec in _class_layer_channels():
        core = transition_core(spec)
        setup = ce._class_setup(core)
        by_law = {}
        for u, row, reward in zip(setup.classes, setup.mass_rows,
                                  setup.rewards):
            law = (tuple(sorted(row.items())),
                   tuple(sorted(core.tables[u].values())))
            assert by_law.setdefault(law, reward) == reward
        # the same tables read in reverse order give bitwise-equal rewards
        backwards = cm.TransitionCore(
            spec, {u: dict(reversed(t.items()))
                   for u, t in core.tables.items()}, core.fibers)
        assert ce._class_setup(backwards).rewards == setup.rewards


# ---------------------------------------------------------------------------
# rank-rate term and its decomposition

def test_j_rank_vanishes_for_single_packet_inputs():
    # with T = 1 every log ratio in the sum is log(1)
    rng = random.Random(8)
    for _ in range(10):
        spec = cm.random_channel(rng, 2, 1, 2, 2)
        core = transition_core(spec)
        alpha = _random_alpha(rng, core)
        joint = rank_joint(core, alpha)
        assert ce.j_rank(joint, 1, 2) == 0.0


def test_single_packet_mi_equals_row_space_mi():
    # T=1: the input matrix and its row space are in bijection, so the
    # matrix channel carries no information beyond the row spaces
    rng = random.Random(9)
    for _ in range(10):
        spec = cm.random_channel(rng, 2, 1, 2, 2)
        core = transition_core(spec)
        alpha = _random_alpha(rng, core)
        lower, _ = ce.bounds_row_space(
            core, ce.row_space_laws(core, alpha))
        assert ce.mi_alpha(core, alpha) == pytest.approx(lower, abs=1e-9)


def test_full_rank_decomposition_reconstructs_j():
    rng = random.Random(71)
    for _ in range(200):
        q = rng.choice([2, 3, 5])
        M = rng.randint(1, 3)
        T = M + rng.randint(0, 8)
        weights = [rng.randint(0, 5) for _ in range(M + 1)]
        if sum(weights) == 0:
            weights[M] = 1
        total = sum(weights)
        pmf = {r: Fraction(w, total) for r, w in enumerate(weights) if w}
        # the decomposition depends on the transfer matrix only through
        # its rank pmf, so a one-matrix-per-rank support suffices
        spec = cm.generate("custom_rank_dist", q=q, M=M, N=M, T=T,
                           rank_pmf=pmf)
        j, training, eps = ce.lemma_full_rank_decomposition(spec)
        assert 0.0 <= eps < 1.8
        assert j == pytest.approx(training + eps, abs=1e-12)


def test_full_rank_decomposition_requires_tall_input():
    spec = cm.generate("iid_uniform", q=2, M=2, N=2, T=1)
    with pytest.raises(ValueError):
        ce.lemma_full_rank_decomposition(spec)


# ---------------------------------------------------------------------------
# sandwich bounds

def test_bounds_sandwich_random_pairs():
    rng = random.Random(17)
    for _ in range(100):
        spec = random_small_channel(rng)
        core = transition_core(spec)
        alpha = _random_alpha(rng, core)
        lower, upper = ce.bounds_row_space(
            core, ce.row_space_laws(core, alpha))
        mi = ce.mi_alpha(core, alpha)
        assert lower - 1e-9 <= mi <= upper + 1e-9


def test_bounds_tight_for_row_space_symmetric_fixtures(fixtures):
    rng = random.Random(18)
    for name, (spec, core) in fixtures.items():
        if not cls.classify(spec, core).row_space_symmetric:
            continue
        for _ in range(3):
            alpha = _random_alpha(rng, core)
            lower, _ = ce.bounds_row_space(
                core, ce.row_space_laws(core, alpha))
            assert ce.mi_alpha(core, alpha) == pytest.approx(
                lower, abs=1e-9), name


# ---------------------------------------------------------------------------
# Blahut-Arimoto consistency

def test_capacity_class_vs_naive_fixtures(fixtures):
    for name, (spec, core) in fixtures.items():
        fast = ce.shannon_capacity(core, 1e-10)
        slow = ce.shannon_capacity_naive(core, 1e-10)
        assert fast.converged and slow.converged
        assert fast.value == pytest.approx(slow.value, abs=2e-9), name


def test_capacity_class_vs_naive_random():
    rng = random.Random(55)
    for _ in range(25):
        spec = random_small_channel(rng)
        core = transition_core(spec)
        fast = ce.shannon_capacity(core, 1e-10)
        slow = ce.shannon_capacity_naive(core, 1e-10)
        assert fast.value == pytest.approx(slow.value, abs=2e-9)


def test_capacity_of_zero_channel_is_zero():
    spec = cm.generate("custom_rank_dist", q=2, M=2, N=2, T=2,
                       rank_pmf={0: 1})
    res = ce.shannon_capacity(transition_core(spec))
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_capacity_of_identity_channel():
    # invertible transfer matrix, T = M: the input goes through intact
    spec = cm.generate("custom_rank_dist", q=2, M=2, N=2, T=2,
                       rank_pmf={2: 1})
    res = ce.shannon_capacity(transition_core(spec))
    assert res.value == pytest.approx(4.0, abs=1e-8)


def test_ba_monotone_lower_bound():
    # the running lower bound asserts monotonicity internally; a run on
    # a nontrivial channel exercises it across many iterations
    spec = cm.generate("uniform_given_rank", q=2, M=2, N=2, T=2,
                       rank_pmf={0: Fraction(1, 3), 1: Fraction(1, 3),
                                 2: Fraction(1, 3)})
    res = ce.shannon_capacity(transition_core(spec), 1e-11)
    assert res.converged


# ---------------------------------------------------------------------------
# subspace coding

def test_css_unique_matches_capacity_for_uniform_given_rank():
    rng = random.Random(99)
    for _ in range(20):
        T = rng.choice([2, 3])
        weights = [rng.randint(0, 3) for _ in range(3)]
        if sum(weights) == 0:
            weights[1] = 1
        total = sum(weights)
        pmf = {r: Fraction(w, total) for r, w in enumerate(weights) if w}
        spec = cm.generate("uniform_given_rank", q=2, M=2, N=2, T=T,
                           rank_pmf=pmf)
        core = transition_core(spec)
        cap = ce.shannon_capacity(core, 1e-10)
        css = ce.css_unique(core, 1e-10)
        assert cap.value == pytest.approx(css.value, abs=2e-9)


def test_css_never_exceeds_capacity(fixtures):
    for name, (spec, core) in fixtures.items():
        cap = ce.shannon_capacity(core, 1e-10)
        css = ce.css_bruteforce(core, 1e-10)
        assert css.value <= cap.value + 2e-9, name


def test_css_bruteforce_agrees_with_unique_path(fixtures):
    spec, core = fixtures["table1.json"]
    a = ce.css_unique(core, 1e-10)
    b = ce.css_bruteforce(core, 1e-10)
    c = ce.css_alpha_lower(core, 1e-10)
    assert a.value == pytest.approx(b.value, abs=1e-8)
    assert c.value == pytest.approx(b.value, abs=1e-8)


@pytest.mark.parametrize("call, match", [
    (lambda core: ce._ba([], None, 1e-9, 10), "empty input alphabet"),
    (lambda core: ce.subspace_coding_capacity(core, "nope"),
     "unknown css mode 'nope'"),
    (lambda core: ce.mi_alpha(core, {next(iter(core.tables)): 0.5}),
     "alpha does not sum to 1"),
], ids=["ba-empty", "css-mode", "alpha-sum"])
def test_guards_refuse_bad_arguments(fixtures, call, match):
    spec, core = fixtures["table1.json"]
    with pytest.raises(ValueError, match=match):
        call(core)


def test_css_unique_refuses_multiple_degradations(fixtures):
    spec, core = fixtures["example6.json"]
    with pytest.raises(ValueError):
        ce.css_unique(core)


def test_ba_rows_are_keyed_by_int(fixtures, monkeypatch):
    # a Subspace key hashes its MatrixGF basis on every lookup, which made
    # a Subspace-keyed Blahut-Arimoto several times slower
    keys = []
    ba = ce._ba

    def spy(rows, *args):
        keys.extend(k for row in rows for k in row)
        return ba(rows, *args)

    monkeypatch.setattr(ce, "_ba", spy)
    for spec, core in fixtures.values():
        ce.capacity_report(spec, core=core)
    ce.css_bruteforce(fixtures["example6.json"][1])
    assert keys and all(type(k) is int for k in keys)


def test_best_choice_keeps_the_first_of_tied_choices():
    # The first and last of the four choices are mirror images: the same
    # value to the last bit, with achievers (2/3, 1/3) and (1/3, 2/3).
    # The two mixed choices send both inputs to one output and lose.
    groups = [[({0: 1.0}, 1.0), ({1: 1.0}, 0.0)],
              [({1: 1.0}, 0.0), ({0: 1.0}, 1.0)]]
    last = ce._ba([{1: 1.0}, {0: 1.0}], [0.0, 1.0], 1e-12, 10 ** 5)
    (value, pmf, *_), tried, _ = ce._best_choice(groups, 1e-12, 10 ** 5,
                                                 4, "choices")
    assert tried == 4
    assert value == last[0] == pytest.approx(math.log2(3))
    assert pmf == pytest.approx([2 / 3, 1 / 3])


def test_best_choice_upper_end_covers_every_choice():
    # after one step the first choice leads with its exact value 1, while
    # the second, whose optimum is about 1.047, reads 0.852 at its first
    # point, the uniform input
    second = [({0: 1.0}, 1.0), ({0: 0.6, 1: 0.4}, 0.0)]
    groups = [[second[0]], second]
    (value, _, gap, *_), tried, upper = ce._best_choice(groups, 1e-9, 1, 2,
                                                        "choices")
    optimum = ce._ba([row for row, _ in second],
                     [reward for _, reward in second], 1e-13, 10 ** 5)[0]
    assert (value, gap, tried) == (1.0, 0.0, 2)
    assert value + gap < optimum <= upper


def _random_groups(rng):
    """2-4 groups of 1-4 (row, reward) options over at most 4 outputs.

    Options are drawn from a small pool, some also with their outputs
    relabelled, so that groups share options and many choices tie
    exactly."""
    n_out = rng.randint(1, 4)
    pool = []
    for _ in range(rng.randint(1, 4)):
        support = rng.sample(range(n_out), rng.randint(1, n_out))
        weights = [rng.randint(1, 4) for _ in support]
        row = {w: c / sum(weights) for w, c in zip(support, weights)}
        pool.append((row, rng.choice([0.0, 0.0, 0.5, 1.0, rng.random()])))
    for row, reward in list(pool):
        if rng.random() < 0.5:
            perm = rng.sample(range(n_out), n_out)
            pool.append(({perm[w]: c for w, c in row.items()}, reward))
    return [[rng.choice(pool) for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(2, 4))]


def _assert_settles_like_the_reference(groups, result, tol, max_iter):
    """The branch and bound's (best run, choices, upper) against the
    unpruned reference on the same groups: every choice counted, the
    run bit-identical to some choice's unpruned run, the value within
    tol of the best, and upper at least every choice's optimum.  Returns
    how many choices needed a tight reference run for that last check."""
    best, tried, upper = result
    ba = ce._ba
    runs = []

    def keep(*args):
        runs.append(ba(*args))
        return runs[-1]

    ce._ba = keep
    try:
        want, want_tried, _ = best_choice_unpruned(groups, tol, max_iter,
                                                   10 ** 6, "choices")
    finally:
        ce._ba = ba
    assert tried == want_tried == len(runs)
    assert best in runs
    assert best[0] >= want[0] - tol
    tight = 0
    for choice, run in zip(product(*groups), runs):
        if upper < run[0] + run[2]:     # not covered by the run's own end
            optimum = ba([row for row, _ in choice],
                         [reward for _, reward in choice], 1e-13, 10 ** 5)[0]
            assert upper >= optimum - 1e-12
            tight += 1
    return tight


def test_pruned_choice_search_matches_the_unpruned_reference():
    # the choices a pruned node settles need the tight reference run
    rng = random.Random(808)
    tight = 0
    for _ in range(1000):
        groups = _random_groups(rng)
        tol = rng.choice([1e-6, 1e-9])
        max_iter = rng.choice([20, 100])
        tight += _assert_settles_like_the_reference(
            groups, ce._best_choice(groups, tol, max_iter, 256, "choices"),
            tol, max_iter)
    assert tight > 300


def test_pruned_css_searches_match_the_unpruned_reference(monkeypatch):
    rng = random.Random(809)
    search_choices = ce._best_choice
    checked = 0
    for _ in range(200):
        spec = cm.random_channel(rng, rng.choice([2, 3]), rng.randint(1, 2),
                                 rng.randint(1, 2), rng.randint(1, 2),
                                 max_support=4)
        core = transition_core(spec)
        for search in (ce.css_bruteforce, ce.css_alpha_lower):
            calls = []

            def capture(groups, *args):
                groups = list(groups)
                calls.append((groups, search_choices(groups, *args)))
                return calls[-1][1]

            with monkeypatch.context() as m:
                m.setattr(ce, "_best_choice", capture)
                try:
                    got = search(core, budget=16)
                except BudgetExceeded:
                    continue
            [(groups, result)] = calls
            best, tried, upper = result
            assert (got.value, got.gap, got.assignments_tried) == \
                (best[0], best[2], tried)
            _assert_settles_like_the_reference(
                groups, result, ce.DEFAULT_TOL, ce.DEFAULT_MAX_ITER)
            checked += 1
    assert checked > 300


def _counting_ba(monkeypatch):
    """Patch ``ce._ba`` to record its calls; returns the list."""
    ba = ce._ba
    calls = []

    def counted(*args):
        calls.append(args)
        return ba(*args)

    monkeypatch.setattr(ce, "_ba", counted)
    return calls


def test_choice_search_branches_when_the_relaxation_is_loose(monkeypatch):
    # offering both outputs at once is worth 1 bit, but each choice sends
    # its one input to one output and is worth 0: the root cannot prune
    # after its dive, so it branches, and runs only the leaf the dive did
    # not: the root, the dive and one more leaf
    calls = _counting_ba(monkeypatch)
    groups = [[({0: 1.0}, 0.0), ({1: 1.0}, 0.0)]]
    (value, _, gap, *_), tried, upper = ce._best_choice(groups, 1e-9, 10 ** 5,
                                                        2, "choices")
    assert (value, tried) == (0.0, 2)
    assert len(calls) == 3
    assert upper <= 1e-9 + gap


def test_choice_search_recovers_from_a_misleading_dive(monkeypatch):
    # the relaxed optimum weights ({0: 1}, 1) most, so the dive takes it
    # and sends both inputs to output 0, worth 1 bit; the best choice,
    # worth log2(1 + 2^0.5), leaves it for ({1: 1}, 0)
    dive = ce._ba([{0: 1.0}, {0: 1.0}], [1.0, 0.5], 1e-12, 10 ** 5)
    calls = _counting_ba(monkeypatch)
    groups = [[({0: 1.0}, 1.0), ({1: 1.0}, 0.0)],
              [({0: 1.0}, 0.5), ({0: 1.0}, 0.4)]]
    (value, pmf, *_), tried, upper = ce._best_choice(groups, 1e-12, 10 ** 5,
                                                     4, "choices")
    assert calls[1][:2] == ([{0: 1.0}, {0: 1.0}], [1.0, 0.5])
    assert dive[0] == pytest.approx(1.0)
    assert tried == 4
    assert value == pytest.approx(math.log2(1 + 2 ** 0.5), abs=1e-12)
    assert value <= upper <= value + 2e-12


def test_relaxation_abandoned_at_its_first_point_counts_its_floor(
        monkeypatch):
    # four outputs with no reward: the root relaxation is worth 2 bits
    # and every choice 1.  At tol = 0.7 the root must branch, and each
    # child's three-row relaxation reads log2 3 < 1 + tol at its first
    # point, the uniform one, so it is abandoned there with value + gap
    # NaN; its floor, 1.7, is the certified upper end
    calls = _counting_ba(monkeypatch)
    groups = [[({0: 1.0}, 0.0), ({1: 1.0}, 0.0)],
              [({2: 1.0}, 0.0), ({3: 1.0}, 0.0)]]
    (value, *_), tried, upper = ce._best_choice(groups, 0.7, 10 ** 5, 4,
                                                "choices")
    assert (value, tried, len(calls)) == (1.0, 4, 4)
    assert upper == 1.0 + 0.7


def test_one_choice_search_is_one_direct_run(monkeypatch):
    rows = [{0: 0.5, 1: 0.5}, {1: 1.0}, {0: 0.2, 2: 0.8}]
    rewards = [0.0, 0.3, 0.1]
    direct = ce._ba(rows, rewards, 1e-9, 10 ** 5)
    calls = _counting_ba(monkeypatch)
    groups = [[(row, reward)] for row, reward in zip(rows, rewards)]
    best, tried, upper = ce._best_choice(groups, 1e-9, 10 ** 5, 1, "choices")
    assert (len(calls), tried) == (1, 1)
    assert best == direct
    assert upper == direct[0] + direct[2]


def _relabelled(rows, rewards, rng):
    """The problem with its rows permuted, its outputs renamed, and each
    row's entries in a new order; returns it and the row permutation."""
    order = rng.sample(range(len(rows)), len(rows))
    outputs = sorted({w for row in rows for w in row})
    rename = dict(zip(outputs, rng.sample(range(100), len(outputs))))
    new_rows = []
    for i in order:
        items = [(rename[w], c) for w, c in rows[i].items()]
        rng.shuffle(items)
        new_rows.append(dict(items))
    return new_rows, [rewards[i] for i in order], order


def _random_problem(rng):
    """1-6 rows over at most 6 outputs, with rewards."""
    n_out = rng.randint(1, 6)
    rows = []
    for _ in range(rng.randint(1, 6)):
        support = rng.sample(range(n_out), rng.randint(1, n_out))
        weights = [rng.random() for _ in support]
        rows.append({w: c / sum(weights) for w, c in zip(support, weights)})
    return rows, [rng.choice([0.0, rng.random(), 2 * rng.random()])
                  for _ in rows]


def _bruteforce_problems(rng, count):
    """(rows, rewards) of ``count`` Blahut-Arimoto runs with 3 or more
    inputs, taken from ``css_bruteforce`` on random channels."""
    problems = []
    ba = ce._ba

    def keep(rows, rewards, *args):
        if len(rows) >= 3:
            problems.append((rows, rewards))
        return ba(rows, rewards, *args)

    while len(problems) < count:
        spec = cm.random_channel(rng, rng.choice([2, 3]), 2, 2,
                                 rng.randint(1, 2), max_support=4)
        ce._ba = keep
        try:
            ce.css_bruteforce(transition_core(spec), budget=64)
        except BudgetExceeded:
            pass
        finally:
            ce._ba = ba
    return problems[:count]


def test_ba_is_exactly_equivariant():
    # permuting the inputs and relabelling the outputs must not move the
    # run by one bit, or the choice search could not skip a relabelled
    # choice; row sums in another order differ in the last bits
    rng = random.Random(1313)
    problems = [_random_problem(rng) for _ in range(300)]
    problems += _bruteforce_problems(rng, 300)
    for rows, rewards in problems:
        tol = rng.choice([1e-6, 1e-9, 1e-12])
        max_iter = rng.choice([5, 50, 10 ** 4])
        new_rows, new_rewards, order = _relabelled(rows, rewards, rng)
        want = ce._ba(rows, rewards, tol, max_iter)
        for floor in (-math.inf, want[0] - rng.choice([0.0, 1e-3, 1.0])):
            value, alpha, *rest = ce._ba(rows, rewards, tol, max_iter, floor)
            got_value, got_alpha, *got_rest = ce._ba(
                new_rows, new_rewards, tol, max_iter, floor)
            assert (got_value, *got_rest) == (value, *rest)
            assert got_alpha == [alpha[i] for i in order]


def _rejects_a_trial(rows, rewards, tol, its):
    """Whether one of the first 12 of a run's ``its`` points is a trial
    point that the run rejected.  Cut at a rejected point, the run
    returns unconverged with the last accepted point's lower value and
    plain step, which is what the run cut one point earlier returns."""
    cut = []
    for k in range(1, min(its, 12) + 1):
        value, pmf, _, _, ok = ce._ba(rows, rewards, tol, k)
        cut.append((value, pmf, ok))
    return any(a == b for a, b in zip(cut, cut[1:]))


@pytest.fixture(scope="module")
def many_input_problems():
    """1,000 random problems with 3 to 6 inputs, and 100 taken from
    ``css_bruteforce``."""
    rng = random.Random(2626)
    problems = []
    while len(problems) < 1000:
        rows, rewards = _random_problem(rng)
        if len(rows) >= 3:
            problems.append((rows, rewards))
    return problems + _bruteforce_problems(rng, 100)


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
def test_over_relaxed_steps_agree_with_blahut_arimoto(many_input_problems,
                                                      tol):
    went_back = 0
    for rows, rewards in many_input_problems:
        value, _, gap, its, ok = ce._ba(rows, rewards, tol, 10 ** 6)
        ref_value, _, ref_gap, _, ref_ok = blahut_arimoto_reference(
            rows, rewards, tol, 10 ** 6)
        assert ok and ref_ok
        # the intervals overlap, up to rounding
        assert value <= ref_value + ref_gap + 1e-15
        assert ref_value <= value + gap + 1e-15
        assert abs(value - ref_value) <= 2 * tol
        went_back += _rejects_a_trial(rows, rewards, tol, its)
    # the cross-check covers the step back to the last accepted point
    assert went_back >= len(many_input_problems) // 4


def test_over_relaxed_steps_finish_the_slow_tail():
    # five inputs whose optimum puts weight 0 on the second, which plain
    # Blahut-Arimoto approaches slowly: 18,536 iterations at tol 1e-9
    # (the longest run of a seed-0 random_sparse report pass)
    rows = [{0: 1.0}, {0: .65, 1: .35}, {0: .65, 2: .35}, {0: .3, 3: .7},
            {0: .25, 1: .4, 2: .3, 3: .05}]
    rewards = [0.0] * 5
    want = ce._ba(rows, rewards, 1e-9, 10 ** 5)
    value, alpha, gap, its, ok = want
    assert ok and its < 6000
    # a tighter run of the reference lies in the certified interval
    ref_value = blahut_arimoto_reference(rows, rewards, 1e-10, 10 ** 5)[0]
    assert value <= ref_value <= value + gap
    rng = random.Random(2727)
    for order in permutations(range(5)):
        rename = dict(zip(range(4), rng.sample(range(100), 4)))
        new_rows = [{rename[w]: c for w, c in rows[i].items()}
                    for i in order]
        got = ce._ba(new_rows, rewards, 1e-9, 10 ** 5)
        assert got[1] == [alpha[i] for i in order]
        assert got[:1] + got[2:] == want[:1] + want[2:]


def test_over_relaxed_steps_stop_widening_near_the_optimum():
    # the second per-rank choice of css_alpha_lower on crd(2;5,2,2), ranks
    # {1, 2} at 1/3 and 2/3: near the optimum the lower value is flat to
    # rounding while large steps overshoot and widen the interval, which
    # took 544 points against plain Blahut-Arimoto's 73 at tol 1e-12
    rows = [{0: 1.0}, {1: 1.0}, {1: 1 / 3, 2: 2 / 3}]
    rewards = [0.0, 4.954196310386875, 5.973827540071397]
    for tol in (1e-9, 1e-12):
        value, _, gap, its, ok = ce._ba(rows, rewards, tol, 10 ** 5)
        ref_value, _, ref_gap, ref_its, _ = blahut_arimoto_reference(
            rows, rewards, tol, 10 ** 5)
        assert ok and its < ref_its
        assert value <= ref_value + ref_gap and ref_value <= value + gap


def test_over_relaxed_trial_whose_output_mass_underflows_is_rejected():
    # rewards near 100 bits: a trial step takes a reward-0 input's weight
    # so low that the mass of an output only it reaches (4 or 6)
    # underflows to 0.0; that rejects the trial, where after a plain step
    # it would be a fault
    rows = [{0: 0.2901063705417379, 3: 0.008430205678814948,
             5: 0.37574797284055306, 1: 0.3257154509388941},
            {0: 1.0},
            {4: 0.006197521266240493, 5: 3.99132042845857e-06,
             0: 0.5522469008723142, 3: 0.4415515865410168},
            {1: 1.3300747691743066e-16, 3: 0.9999999999999999},
            {1: 0.988109880043725, 5: 0.005313126490220868,
             6: 0.004124814420860629, 3: 0.0024521790451935256}]
    rewards = [98.46580984868282, 110.19778134340261, 0.0, 0.0, 0.0]
    value, _, gap, _, ok = ce._ba(rows, rewards, 1e-9, 10 ** 5)
    ref_value, _, ref_gap, _, ref_ok = blahut_arimoto_reference(
        rows, rewards, 1e-9, 10 ** 5)
    assert ok and ref_ok
    assert value <= ref_value + ref_gap and ref_value <= value + gap


def _random_pair(rng):
    """A two-input problem: two rows over at most 6 outputs, with
    rewards."""
    n_out = rng.randint(1, 6)
    rows = []
    for _ in range(2):
        support = rng.sample(range(n_out), rng.randint(1, n_out))
        weights = [rng.random() for _ in support]
        rows.append({w: c / sum(weights) for w, c in zip(support, weights)})
    return rows, [rng.choice([0.0, rng.random(), 2 * rng.random()])
                  for _ in rows]


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
def test_two_input_bisection_agrees_with_blahut_arimoto(tol):
    # a copy of the first row leaves the optimum where it is and takes the
    # problem to the Blahut-Arimoto iteration
    rng = random.Random(2222)
    for _ in range(1000):
        rows, rewards = _random_pair(rng)
        value, _, gap, _, ok = ce._ba(rows, rewards, tol, 10 ** 5)
        ba_value, _, ba_gap, _, ba_ok = ce._ba(
            rows + rows[:1], rewards + rewards[:1], tol, 10 ** 6)
        assert ok and ba_ok
        # the intervals overlap, up to rounding
        assert value <= ba_value + ba_gap + 1e-15
        assert ba_value <= value + gap + 1e-15
        assert abs(value - ba_value) <= 2 * tol


def test_two_input_bisection_edge_cases():
    # disjoint rows: the optimum log2(2^r0 + 2^r1), at weights
    # proportional to 2^reward
    value, pmf, gap, _, ok = ce._ba([{0: 1.0}, {1: 1.0}], [2.0, 0.0],
                                    1e-12, 10 ** 5)
    assert ok and value <= math.log2(5) <= value + gap
    assert pmf == pytest.approx([0.8, 0.2], abs=1e-9)
    # identical rows and rewards: the scores tie at the first point
    row = {0: 0.3, 1: 0.7}
    assert ce._ba([row, dict(row)], [0.5, 0.5], 1e-12, 10 ** 5) == (
        0.5, [0.5, 0.5], 0.0, 1, True)
    # optima on the boundary: the first input alone
    for rows, rewards, optimum in (
            ([row, dict(row)], [1.0, 0.0], 1.0),
            ([{0: 0.5, 1: 0.5}, {0: 1.0}], [5.0, 0.0], 5.0),
            ([{0: 1.0}, {0: 1.0}], [0.0, 1e8], 1e8)):
        value, pmf, gap, _, ok = ce._ba(rows, rewards, 1e-9, 10 ** 5)
        big = rewards.index(max(rewards))
        assert ok and value <= optimum <= value + gap
        assert pmf[1 - big] < 1e-8
    # an unconverged run returns the weights of the point it certified:
    # t = 0, then t = +-1/2
    rows, rewards = [{0: 1.0}, {0: 0.6, 1: 0.4}], [1.0, 0.0]
    assert ce._ba(rows, rewards, 1e-9, 1)[1] == [0.5, 0.5]
    assert ce._ba(rows, rewards, 1e-9, 2)[1] == [0.75, 0.25]
    # at tol 0 a run ends at a gap of exactly 0, or unconverged once its
    # bracket closes on two adjacent floats
    rng = random.Random(2525)
    stalled = 0
    for _ in range(1000):
        rows, rewards = _random_pair(rng)
        value, _, gap, its, ok = ce._ba(rows, rewards, 0.0, 10 ** 5)
        want, _, want_gap, *_ = ce._ba(rows, rewards, 1e-12, 10 ** 5)
        assert its < 1100
        assert value <= want + want_gap + 1e-15
        assert want <= value + gap + 1e-15
        stalled += not ok
    assert stalled > 5


def test_two_input_bisection_is_exactly_equivariant():
    # swapping the inputs maps t to -t: not one bit of the run may move,
    # with or without a floor, abandoned or not
    rng = random.Random(2323)
    for _ in range(1000):
        rows, rewards = _random_pair(rng)
        tol = rng.choice([1e-6, 1e-9, 1e-12])
        max_iter = rng.choice([3, 20, 10 ** 5])
        new_rows, new_rewards, order = _relabelled(rows, rewards, rng)
        if order == [0, 1]:
            new_rows, new_rewards = new_rows[::-1], new_rewards[::-1]
            order = [1, 0]
        want = ce._ba(rows, rewards, tol, max_iter)
        for floor in (-math.inf, want[0] - rng.choice([0.0, 1e-3, 1.0]),
                      want[0] + want[2] + rng.choice([1e-7, 1e-3, 1.0])):
            value, alpha, *rest = ce._ba(rows, rewards, tol, max_iter, floor)
            got_value, got_alpha, *got_rest = ce._ba(
                new_rows, new_rewards, tol, max_iter, floor)
            assert (got_value, *got_rest) == (value, *rest)
            assert got_alpha == [alpha[i] for i in order]


def test_two_input_bisection_abandons_below_its_floor():
    rng = random.Random(2424)
    first = later = 0
    for _ in range(500):
        rows, rewards = _random_pair(rng)
        value, _, gap, _, _ = ce._ba(rows, rewards, 1e-9, 10 ** 5)
        floor = value + gap + rng.choice([1e-6, 1e-3, 1.0, 100.0])
        got, _, got_gap, its, ok = ce._ba(rows, rewards, 1e-9, 10 ** 5,
                                          floor)
        assert not ok and got < floor
        if its == 1:
            assert math.isnan(got + got_gap)
            first += 1
        else:
            assert got + got_gap < floor
            later += 1
    assert first > 50 and later > 50


@pytest.mark.parametrize("tol, worst", [(1e-6, 21), (1e-9, 31),
                                        (1e-12, 41)])
def test_two_input_secant_steps_halve_the_bisection_work(tol, worst):
    # the secant steps, and the squared approach to an unscored end, take
    # at most half the points of plain bisection over the problems of the
    # agreement test, and no run more than bisection's longest
    rng = random.Random(2222)
    steps = ref_steps = 0
    for _ in range(1000):
        rows, rewards = _random_pair(rng)
        value, _, gap, its, ok = ce._ba(rows, rewards, tol, 10 ** 5)
        ref_value, _, ref_gap, ref_its, ref_ok = \
            two_input_bisection_reference(rows, rewards, tol, 10 ** 5)
        assert ok and ref_ok
        # the intervals overlap, up to rounding
        assert value <= ref_value + ref_gap + 1e-15
        assert ref_value <= value + gap + 1e-15
        assert its <= worst
        steps += its
        ref_steps += ref_its
    assert 2 * steps <= ref_steps, (steps, ref_steps)


def test_choice_search_settles_162_choices_in_at_most_three_runs(
        monkeypatch):
    # a q=2, T=2, M=2, N=1 channel with 162 deterministic degradations:
    # the root relaxation and its dive leaf settle them all, at the
    # value of the search that runs every choice to the end
    spec = cm.random_channel(random.Random(0), 2, 2, 2, 1)
    core = transition_core(spec)
    calls = _counting_ba(monkeypatch)
    got = ce.css_bruteforce(core)
    assert got.assignments_tried == 162
    assert len(calls) <= 3
    monkeypatch.setattr(ce, "_best_choice", best_choice_unpruned)
    assert got.value == ce.css_bruteforce(core).value


_IID = cm.generate("iid_uniform", q=2, T=2, M=2, N=2)   # 16 H, 16 inputs
_IID_CORE = transition_core(_IID)


# (module, budget constant, a value below the work of every call, calls)
_BUDGET_CHECKS = [
    (gf_core, "ENUM_BUDGET", 5, [
        lambda: list(gf_core.all_matrices(F2, 2, 2)),
        lambda: list(gf_core.enumerate_full_rank(2, 2, F2)),
        lambda: list(gf_core.full_rank_columns(2, 2, F2)),
        lambda: list(subspace_enum.enumerate_grassmannian(1, 3, F2)),
        lambda: list(subspace_enum.enumerate_projective(1, 3, F2)),
        lambda: list(subspace_enum.matrices_with_column_space(
            span_rows(gf_core.identity(F2, 2)), 3)),
        lambda: cm.generate("iid_uniform", q=2, M=2, N=2)]),
    (cm, "SUPPORT_BUDGET", 1, [
        lambda: cm.generate("iid_uniform", q=2, M=2, N=2),
        lambda: cm.generate("full_rank_uniform", q=2, M=2),
        lambda: cm.generate("uniform_given_rank", q=2, M=2, N=2,
                            rank_pmf={1: 1}),
        lambda: cm.generate("custom_rank_dist", q=2, M=2, N=2,
                            rank_pmf={0: Fraction(1, 2), 2: Fraction(1, 2)})]),
    (cm, "CORE_TABLE_BUDGET", 15, [lambda: transition_core(_IID)]),
    (ce, "INPUT_ENUM_BUDGET", 15, [lambda: ce.css_bruteforce(_IID_CORE)]),
    (oracle, "NAIVE_TABLE_BUDGET", 255, [
        lambda: transition_naive(_IID),
        lambda: ce.shannon_capacity_naive(_IID_CORE),
        lambda: oracle.is_degraded(_IID_CORE),
        lambda: oracle.has_unique_subspace_degradation(_IID_CORE)]),
]


@pytest.mark.parametrize("module, constant, value, calls", _BUDGET_CHECKS,
                         ids=[check[1] for check in _BUDGET_CHECKS])
def test_one_rebinding_trips_every_check_of_a_budget(monkeypatch, module,
                                                     constant, value, calls):
    # each budget is one constant read where it is checked: no function
    # takes it as a parameter, so rebinding it reaches every check
    for call in calls:
        call()
    monkeypatch.setattr(module, constant, value)
    for call in calls:
        with pytest.raises(BudgetExceeded):
            call()


def _counting_inputs(monkeypatch):
    """Count the matrices matrices_with_column_space yields: the r x M
    matrices A of each input X = W.basis^T @ A that css_bruteforce reads
    when it factors them, which it does once per shape; returns the list
    that collects them, after emptying the factor cache."""
    original = subspace_enum.matrices_with_column_space
    inputs = []
    ce._input_factors.cache_clear()

    def counted(u, m):
        for x in original(u, m):
            inputs.append(x)
            yield x

    monkeypatch.setattr(subspace_enum, "matrices_with_column_space", counted)
    return inputs


def test_bruteforce_refuses_before_enumerating_every_input(monkeypatch):
    # crd(2;3,3,3) has 512 inputs and far more than 10^5 degradations;
    # the choice budget is checked as each column space's group is read,
    # and the 1 + 7 + 42 + 168 r x 3 matrices of dimension r = 0..3 are
    # read before its first group; the search stops in dimension 2
    spec = cm.generate("custom_rank_dist", q=2, T=3, M=3, N=3,
                       rank_pmf={1: Fraction(1, 3), 2: Fraction(1, 3),
                                 3: Fraction(1, 3)})
    core = transition_core(spec)
    inputs = _counting_inputs(monkeypatch)
    with pytest.raises(BudgetExceeded,
                       match="^more than 100000 deterministic degradations$"):
        ce.css_bruteforce(core)
    assert 0 < len(inputs) < 1 + 7 + 42 + 168


def test_choice_searches_refuse_exactly_above_the_budget(monkeypatch):
    # a search is refused iff its number of choices, the product of its
    # group sizes, exceeds the budget; css_bruteforce reads the r x M
    # matrices of each dimension r before its first group, and stops at
    # the first column space whose group lifts the product past it
    rng = random.Random(910)
    inputs = _counting_inputs(monkeypatch)
    checked = early = 0
    for _ in range(50):
        spec = cm.random_channel(rng, rng.choice([2, 3]), rng.randint(1, 2),
                                 rng.randint(1, 2), rng.randint(1, 2),
                                 max_support=4)
        core = transition_core(spec)
        dims = [w.dim for w, _ in oracle.inputs_by_column_space(spec)]
        columns = list(zip(dims, map(len, oracle.degradation_groups(spec))))
        rank_laws = {}
        for u in core.input_classes():
            rank_laws.setdefault(u.dim, set()).add(frozenset(
                cm.cond_rank_given_rowspace(core, u).items()))
        for search, sizes in (
                (ce.css_bruteforce, [n for _, n in columns]),
                (ce.css_alpha_lower, [len(s) for s in rank_laws.values()])):
            total = math.prod(sizes)
            if total > 64:
                continue
            assert search(core, budget=total).assignments_tried == total
            budget = rng.randrange(total)
            inputs.clear()
            ce._input_factors.cache_clear()
            with pytest.raises(BudgetExceeded, match=f"^more than {budget} "):
                search(core, budget=budget)
            if search is ce.css_bruteforce:
                product_so_far = 1
                for dim, n_options in columns:
                    product_so_far *= n_options
                    if product_so_far > budget:
                        break
                q = spec.field.q
                read = sum(qcomb.xi(spec.M, r, q) for r in range(dim + 1))
                assert len(inputs) == read
                early += read < sum(qcomb.xi(spec.M, r, q)
                                    for r in range(max(dims) + 1))
            checked += 1
    assert checked > 75 and early > 20


def _items(groups):
    """Groups of options with each row's items in order."""
    return [[(list(row.items()), reward) for row, reward in group]
            for group in groups]


def test_degradation_groups_do_not_depend_on_the_shape_caches():
    # the factor and Grassmannian caches key by shape alone and hold no
    # state numbers: two channels of one shape give the input scan's
    # groups in either order, from cold caches or warm, and again on a
    # second call on one core
    rng = random.Random(1616)
    for _ in range(40):
        shape = (rng.choice([2, 3, 5]), rng.randint(1, 2), rng.randint(1, 2),
                 rng.randint(1, 2))
        cores = [transition_core(cm.random_channel(rng, *shape,
                                                   max_support=4))
                 for _ in range(2)]
        want = [_items(oracle.degradation_groups(core.spec))
                for core in cores]
        for order in ([0, 1, 0], [1, 0, 1]):
            ce._input_factors.cache_clear()
            ce._grassmannian_rows.cache_clear()
            for i in order:
                got = _items(ce._degradation_groups(cores[i]))
                assert got == want[i], cores[i].spec


@pytest.mark.parametrize("T", [600, 4096])
def test_capacity_grows_by_expected_rank_per_row(T):
    # For T >> M each extra row adds E[rank H] log2 q bits (the training
    # part of lemma_full_rank_decomposition); xi(T, 2) overflows a float
    spec = cm.generate("iid_uniform", q=2, T=T, M=2, N=2)
    prev = cm.generate("iid_uniform", q=2, T=T - 1, M=2, N=2)
    growth = (ce.shannon_capacity(transition_core(spec)).value
              - ce.shannon_capacity(transition_core(prev)).value)
    assert sum(r * p for r, p in spec.rank_pmf().items()) == Fraction(21, 16)
    assert growth == pytest.approx(21 / 16, abs=1e-6)
    j, training, eps = ce.lemma_full_rank_decomposition(spec)
    assert j == pytest.approx(training + eps, abs=1e-9)
    assert 0 <= eps < 1.8


def test_j_rank_zero_for_trivial_input(fixtures):
    spec, core = fixtures["table1.json"]
    trivial = next(u for u in core.input_classes() if u.dim == 0)
    joint = rank_joint(core, {trivial: 1})
    assert ce.j_rank(joint, spec.T, spec.field.q) == 0.0


# ---------------------------------------------------------------------------
# diagnostics and the combined report

def test_markov_check_exact_on_rank_symmetric_channel(fixtures):
    spec, core = fixtures["example9.json"]
    classes = core.input_classes()
    alpha = {u: Fraction(1, len(classes)) for u in classes}
    verdict = ce.markov_check(ce.row_space_laws(core, alpha), tol=1e-12)
    assert verdict.long_chain and verdict.short_chain
    assert verdict.max_violation_long == 0.0


def test_report_fixture_verdicts(fixtures):
    for name in ("table1.json", "table2.json", "example9.json",
                 "example6.json"):
        spec, _ = fixtures[name]
        rep = ce.capacity_report(spec, 1e-10)
        assert rep.verdict == ce.VERDICT_EQUAL, name
        assert abs(rep.capacity.value - rep.css.value) < 1e-6, name


def test_report_detects_strict_gap():
    spec = cm.generate("custom_rank_dist", q=2, M=2, N=2, T=2,
                       rank_pmf={1: Fraction(1, 2), 2: Fraction(1, 2)})
    rep = ce.capacity_report(spec, 1e-10)
    assert rep.verdict == ce.VERDICT_EXCEEDS
    assert rep.capacity.value - rep.css.value > 0.5


@pytest.mark.parametrize("q, T, M, N", [(2, 2, 2, 2), (2, 1, 2, 1),
                                        (3, 2, 1, 2), (2, 3, 2, 1)])
def test_report_of_zero_channel_takes_the_common_path(tmp_path, capsys, q, T,
                                                      M, N):
    # H = 0 is degraded: report decides it by the theorem and prints the
    # C_ss block that css prints
    spec = cm.ChannelSpec(FieldSpec(q), T, M, N,
                          {(0,) * (M * N): Fraction(1)})
    path = tmp_path / "zero.json"
    cm.save_channel(spec, path)
    docs = {}
    for command in ("report", "css"):
        assert cli.main([command, str(path)]) == cli.EXIT_OK
        docs[command] = json.loads(capsys.readouterr().out)
    report = docs["report"]
    assert report["C_ss"] == docs["css"]["C_ss"]
    assert report["verdict"] == ce.VERDICT_EQUAL
    assert report["verdict_reason"].startswith("channel is degraded")
    assert report["C"]["value"] == report["C_ss"]["value"] == 0.0


def test_report_without_a_theorem_or_a_gap_is_inconclusive():
    # H = [[0, 1], [0, 0]]: no predicate holds and C_ss reaches C, so
    # neither an equality theorem nor a certified gap applies
    spec = cm.ChannelSpec(F2, 2, 2, 2, {(0, 1, 0, 0): Fraction(1)})
    rep = ce.capacity_report(spec)
    assert rep.verdict == ce.VERDICT_INCONCLUSIVE
    assert rep.verdict_reason == ("no applicable equality theorem and no "
                                  "certified gap")
    assert not any(rep.classes.flags().values())
    assert rep.css.mode == "bruteforce"
    assert rep.capacity.value == pytest.approx(2.0, abs=1e-9)
    assert rep.css.value == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("kind, params", [
    ("iid_uniform", dict(q=2, T=2, M=2, N=2)),
    ("iid_uniform", dict(q=3, T=1, M=2, N=2)),
    ("uniform_given_rank", dict(q=2, T=3, M=3, N=2,
                                rank_pmf={1: Fraction(1, 2),
                                          2: Fraction(1, 2)})),
])
def test_report_ranks_each_table_entry_at_most_once(monkeypatch, kind,
                                                    params):
    # transition_core ranks the support and its tables through one
    # RowSpaces table, reducing each distinct (state, row) step once, and
    # every predicate, solver and bound reads the index it builds: with
    # the core passed in, a report reduces no row at all
    spec = cm.generate(kind, **params)
    calls = []

    def counting(name, fn):
        def counted(*args):
            calls.append(name)
            return fn(*args)
        return counted

    for name in ("_reduce", "reduced_rows"):
        monkeypatch.setattr(gf_core, name,
                            counting(name, getattr(gf_core, name)))
    core = transition_core(spec)
    built = list(calls)
    steps = row_steps(spec.field, spec.N, spec.pmf_H, spec.M).union(*(
        row_steps(spec.field, spec.N, table, u.dim)
        for u, table in core.tables.items()))
    assert "reduced_rows" not in built
    assert 0 < len(built) <= len(steps)
    calls.clear()
    assert cls.is_uniform_given_rank(spec).holds
    rep = ce.capacity_report(spec, core=core)
    assert all(rep.classes.flags().values())
    assert calls == []


def _rebind_everywhere(monkeypatch, original, replacement):
    """Bind replacement wherever a loaded loccap module binds original."""
    for name, module in list(sys.modules.items()):
        if name == "loccap" or name.startswith("loccap."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


@pytest.mark.parametrize("name, mode", [("table1.json", "unique"),
                                        ("example9.json", "unique"),
                                        ("table2.json", "bruteforce"),
                                        ("example6.json", "bruteforce")])
def test_auto_report_decides_usd_once_and_ranks_each_class_once(
        monkeypatch, fixtures, name, mode):
    # classify decides USD; the rank-domain search builds each class's
    # rank law once, and brute force builds none
    spec, core = fixtures[name]
    usd_calls, ranked, in_css = [], [], []
    usd, rank_law = cls.has_unique_subspace_degradation, \
        cm.cond_rank_given_rowspace
    dispatch = ce.subspace_coding_capacity

    def counted_usd(c):
        usd_calls.append(1)
        return usd(c)

    def counted_rank_law(c, u):
        if in_css:
            ranked.append(u)
        return rank_law(c, u)

    def traced_dispatch(*args):
        in_css.append(1)
        try:
            return dispatch(*args)
        finally:
            in_css.pop()

    _rebind_everywhere(monkeypatch, usd, counted_usd)
    _rebind_everywhere(monkeypatch, rank_law, counted_rank_law)
    monkeypatch.setattr(ce, "subspace_coding_capacity", traced_dispatch)
    rep = ce.capacity_report(spec, core=core)
    assert rep.css.mode == mode
    assert len(usd_calls) == 1
    want = core.input_classes() if mode == "unique" else []
    assert sorted(ranked, key=lambda u: u.sort_key()) == want


@pytest.mark.parametrize("name, solver", [("table1.json", "css_unique"),
                                          ("example9.json", "css_unique"),
                                          ("table2.json", "css_bruteforce"),
                                          ("example6.json", "css_bruteforce")])
def test_auto_calls_exactly_one_solver(monkeypatch, fixtures, name, solver):
    _, core = fixtures[name]
    calls = []
    for attribute in ("css_unique", "css_bruteforce"):
        def counted(*args, _attribute=attribute, _fn=getattr(ce, attribute)):
            calls.append(_attribute)
            return _fn(*args)
        monkeypatch.setattr(ce, attribute, counted)
    res = ce.subspace_coding_capacity(core, "auto")
    assert calls == [solver]
    assert res.mode == solver[len("css_"):]


def test_table2_achiever(fixtures):
    spec, core = fixtures["table2.json"]
    cap = ce.shannon_capacity(core, 1e-10)
    assert cap.value == pytest.approx(1.0, abs=1e-6)
    by_key = {tuple(u.basis.entries): a for u, a in cap.alpha.items()}
    assert by_key[()] == pytest.approx(0.5, abs=1e-4)
    assert by_key[(0, 1)] == pytest.approx(0.5, abs=1e-4)


def test_unpruned_choices_are_refused_at_the_search_budget():
    # 2 x 3 choices: the search and its unpruned reference both refuse a
    # budget of 5, and both settle all 6 choices at a budget of 6
    half = {0: 0.5, 1: 0.5}
    groups = [[({0: 1.0}, 0.0), ({1: 1.0}, 0.0)],
              [({0: 1.0}, 0.0), ({1: 1.0}, 0.0), (half, 0.0)]]
    for search in (ce._best_choice, oracle.best_choice_unpruned):
        with pytest.raises(BudgetExceeded):
            search(groups, 1e-9, 10 ** 5, 5, "choices")
    (value, *_), tried, _ = ce._best_choice(groups, 1e-9, 10 ** 5, 6,
                                            "choices")
    (want, *_), want_tried, _ = oracle.best_choice_unpruned(
        groups, 1e-9, 10 ** 5, 6, "choices")
    assert tried == want_tried == 6
    assert value == pytest.approx(want, abs=1e-9) == pytest.approx(1.0)


def test_ratio_witness_without_a_common_input_names_the_least_input():
    # two likelihood columns on disjoint inputs have no ratio to anchor
    # on, so the witness input is the least input either column holds
    spec = cm.generate("iid_uniform", q=2, T=2, M=1, N=1)
    half = Fraction(1, 2)
    res = oracle._ratio_witness(spec, (1, 0), (0, 1), {(1, 1): half},
                                {(0, 1): half}, "likelihood supports differ")
    assert not res.holds
    assert res.witness == {"reason": "likelihood supports differ",
                           "Y1": [[1], [0]], "Y2": [[0], [1]],
                           "X": [[0], [1]]}

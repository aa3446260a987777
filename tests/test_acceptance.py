"""Acceptance gate: one test per shipped guarantee.

Each test prints a single [PASS]/[FAIL] line so the suite output doubles
as a checklist. A failed assertion prints [FAIL] before raising.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from loccap import capacity_engine as ce
from loccap import channel_model as cm
from loccap import classify as cls
from loccap import cli
from loccap import oracle, qcomb, subspace_enum
from loccap.channel_model import transition_core
from loccap.gf_core import (BudgetExceeded, FieldSpec, all_matrices, matrix,
                            rank, zeros)
from loccap.oracle import transition_naive

from conftest import (assert_core_matches_reference, gl_invariant_reference,
                      random_small_channel, rank_joint)


class _Gate:
    def __init__(self, capsys, label):
        self.capsys = capsys
        self.label = label
        self.ok = False

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        with self.capsys.disabled():
            print(f"[{status}] {self.label}")
        return False


def test_criterion_01_counting_identities(capsys):
    with _Gate(capsys, "criterion 1: counting identities are exact"):
        for q in (2, 3, 5):
            for m in range(5):
                for n in range(5):
                    total = sum(qcomb.xi2(m, n, r, q)
                                for r in range(min(m, n) + 1))
                    assert total == q ** (m * n)
        for q in (2, 3):
            field = FieldSpec(q)
            for t in range(5):
                for r in range(t + 1):
                    n = sum(1 for _ in subspace_enum.enumerate_grassmannian(
                        r, t, field))
                    assert n == qcomb.gaussian_binomial(t, r, q)
        # superspace counts against filtered enumeration
        for q in (2, 3):
            field = FieldSpec(q)
            for t in range(4):
                subs = {r: list(subspace_enum.enumerate_grassmannian(
                    r, t, field)) for r in range(t + 1)}
                for s in range(t + 1):
                    for small in subs[s]:
                        for r in range(s, t + 1):
                            got = qcomb.gaussian_binomial(t - s, r - s, q)
                            want = sum(
                                1 for big in subs[r]
                                if subspace_enum.contains(big, small))
                            assert got == want


def test_criterion_02_transition_oracle_equivalence(capsys, fixtures):
    with _Gate(capsys, "criterion 2: symmetry-reduced transitions match "
                       "brute force"):
        def check(spec):
            core = transition_core(spec)
            naive = transition_naive(spec)
            zero = Fraction(0)
            for x in all_matrices(spec.field, spec.T, spec.M):
                for y in all_matrices(spec.field, spec.T, spec.N):
                    got = cm.p_y_given_x(core, x, y)
                    assert got == naive.get((x.entries, y.entries), zero)

        for name in ("table1.json", "table2.json", "example9.json"):
            check(fixtures[name][0])
        rng = random.Random(20240)
        for _ in range(50):
            check(random_small_channel(rng))


def test_criterion_03_two_degradations_channel(capsys, fixtures):
    with _Gate(capsys, "criterion 3: multiple-degradation fixture has "
                       "C = C_ss = 1 with the expected achiever"):
        spec, core = fixtures["table2.json"]
        report = cls.classify(spec, core)
        assert not report.unique_subspace_degradation.holds
        cap = ce.shannon_capacity(core, 1e-9)
        css = ce.css_bruteforce(core, 1e-9)
        assert cap.value == pytest.approx(1.0, abs=1e-6)
        assert css.value == pytest.approx(1.0, abs=1e-6)
        by_key = {tuple(u.basis.entries): a for u, a in cap.alpha.items()}
        assert by_key[()] == pytest.approx(0.5, abs=1e-4)
        assert by_key[(0, 1)] == pytest.approx(0.5, abs=1e-4)


def test_criterion_04_degraded_not_rank_symmetric(capsys, fixtures):
    with _Gate(capsys, "criterion 4: degraded non-rank-symmetric fixture "
                       "has C = C_ss"):
        spec, core = fixtures["table1.json"]
        report = cls.classify(spec, core)
        assert report.degraded.holds
        assert not report.rank_symmetric.holds
        cap = ce.shannon_capacity(core, 1e-9)
        css = ce.css_unique(core, 1e-9)
        assert abs(cap.value - css.value) <= 2e-9


def test_criterion_05_rank_symmetric_not_uniform(capsys, fixtures):
    with _Gate(capsys, "criterion 5: rank-symmetric fixture that is not "
                       "uniform given rank (T < M separation)"):
        spec, core = fixtures["example9.json"]
        report = cls.classify(spec, core)
        assert report.rank_symmetric.holds
        assert not report.uniform_given_rank.holds


def test_criterion_06_single_packet_rank_term(capsys):
    with _Gate(capsys, "criterion 6: T=1 channels carry no rank "
                       "information beyond the row spaces"):
        rng = random.Random(6)
        for _ in range(10):
            spec = cm.random_channel(rng, 2, 1, 2, 2)
            core = transition_core(spec)
            classes = core.input_classes()
            weights = [rng.randint(0, 5) for _ in classes]
            if sum(weights) == 0:
                weights[0] = 1
            total = sum(weights)
            alpha = {u: Fraction(w, total)
                     for u, w in zip(classes, weights)}
            joint = rank_joint(core, alpha)
            assert ce.j_rank(joint, 1, 2) == 0.0
            lower, _ = ce.bounds_row_space(
                core, ce.row_space_laws(core, alpha))
            assert ce.mi_alpha(core, alpha) == pytest.approx(
                lower, abs=1e-9)


def test_criterion_07_full_rank_decomposition(capsys):
    with _Gate(capsys, "criterion 7: full-rank-input decomposition has "
                       "epsilon in [0, 1.8) on 200 channels"):
        rng = random.Random(71)
        for _ in range(200):
            q = rng.choice([2, 3, 5])
            M = rng.randint(1, 3)
            T = M + rng.randint(0, 8)
            weights = [rng.randint(0, 5) for _ in range(M + 1)]
            if sum(weights) == 0:
                weights[M] = 1
            total = sum(weights)
            pmf = {r: Fraction(w, total)
                   for r, w in enumerate(weights) if w}
            spec = cm.generate("custom_rank_dist", q=q, M=M, N=M, T=T,
                               rank_pmf=pmf)
            j, training, eps = ce.lemma_full_rank_decomposition(spec)
            assert 0.0 <= eps < 1.8
            assert j == pytest.approx(training + eps, abs=1e-12)


def test_criterion_08_sandwich_and_tightness(capsys, fixtures):
    with _Gate(capsys, "criterion 8: row-space bounds sandwich the mutual "
                       "information and are tight under symmetry"):
        rng = random.Random(17)

        def rand_alpha(core):
            classes = core.input_classes()
            weights = [rng.randint(0, 5) for _ in classes]
            if sum(weights) == 0:
                weights[0] = 1
            total = sum(weights)
            return {u: Fraction(w, total)
                    for u, w in zip(classes, weights)}

        for _ in range(100):
            spec = random_small_channel(rng)
            core = transition_core(spec)
            alpha = rand_alpha(core)
            lower, upper = ce.bounds_row_space(
                core, ce.row_space_laws(core, alpha))
            mi = ce.mi_alpha(core, alpha)
            assert lower - 1e-9 <= mi <= upper + 1e-9
        for name, (spec, core) in fixtures.items():
            if not cls.classify(spec, core).row_space_symmetric:
                continue
            for _ in range(3):
                alpha = rand_alpha(core)
                lower, _ = ce.bounds_row_space(
                    core, ce.row_space_laws(core, alpha))
                assert ce.mi_alpha(core, alpha) == pytest.approx(
                    lower, abs=1e-9), name


def test_criterion_09_ba_consistency(capsys, fixtures):
    with _Gate(capsys, "criterion 9: class-level optimizer agrees with the "
                       "full-alphabet optimizer (monotone throughout)"):
        # the optimizer asserts a nondecreasing lower bound internally
        for name, (spec, core) in fixtures.items():
            if (spec.T, spec.M, spec.N) != (2, 2, 2):
                continue
            fast = ce.shannon_capacity(core, 1e-10)
            slow = ce.shannon_capacity_naive(core, 1e-10)
            assert abs(fast.value - slow.value) <= 2e-9, name
        rng = random.Random(55)
        checked = 0
        while checked < 5:
            spec = cm.random_channel(rng, 2, 2, 2, 2)
            core = transition_core(spec)
            fast = ce.shannon_capacity(core, 1e-10)
            slow = ce.shannon_capacity_naive(core, 1e-10)
            assert abs(fast.value - slow.value) <= 2e-9
            checked += 1


def test_criterion_10_degraded_family_equality(capsys):
    with _Gate(capsys, "criterion 10: uniform-given-rank channels have "
                       "C = C_ss and the class lattice audit is clean"):
        rng = random.Random(99)
        for _ in range(20):
            T = rng.choice([2, 3])
            weights = [rng.randint(0, 3) for _ in range(3)]
            if sum(weights) == 0:
                weights[1] = 1
            total = sum(weights)
            pmf = {r: Fraction(w, total)
                   for r, w in enumerate(weights) if w}
            spec = cm.generate("uniform_given_rank", q=2, M=2, N=2, T=T,
                               rank_pmf=pmf)
            core = transition_core(spec)
            cap = ce.shannon_capacity(core, 1e-10)
            css = ce.css_unique(core, 1e-10)
            assert abs(cap.value - css.value) <= 2e-9
        rng = random.Random(123)
        for _ in range(1000):
            spec = random_small_channel(rng)
            report = cls.classify(spec)
            assert cls.implication_audit(report, spec.T, spec.M) == []


def _symmetric_channel(rng, q, T, M, N, span):
    """H with a mass that depends only on span(H) (its row or column
    space), each span weighted at random; one support matrix is then
    reweighted half of the time, to break the symmetry."""
    field = FieldSpec(q)
    groups = {}
    for h in all_matrices(field, M, N):
        groups.setdefault(span(h), []).append(h)
    weights = {}
    for mats in groups.values():
        w = rng.choice([0, 0, 1, 2, 3])
        weights.update((h, Fraction(w)) for h in mats if w)
    if not weights:
        weights[next(iter(groups.values()))[0]] = Fraction(1)
    if rng.random() < 0.5:
        h = rng.choice(sorted(weights, key=lambda m: m.entries))
        weights[h] *= rng.choice([2, Fraction(1, 2)])
    total = sum(weights.values())
    return cm.ChannelSpec(field, T, M, N,
                          {h.entries: w / total for h, w in weights.items()})


def _cross_check_channel(rng):
    # q = 5 gives witness maps G that are not involutions
    q = rng.choice([2, 2, 3, 5])
    T = rng.randint(1, {2: 3, 3: 2, 5: 1}[q])
    M = rng.randint(1, 3 if q ** (T * 3) <= 64 else 2)
    N = rng.randint(1, 2)
    kind = rng.randrange(4)
    if kind == 0:
        return cm.random_channel(rng, q, T, M, N, max_support=8)
    if kind == 1:
        weights = [rng.randint(0, 2) for _ in range(min(M, N) + 1)]
        if not any(weights):
            weights[-1] = 1
        pmf = {r: Fraction(w, sum(weights))
               for r, w in enumerate(weights) if w}
        family = rng.choice(["uniform_given_rank", "custom_rank_dist"])
        return cm.generate(family, q=q, M=M, N=N, T=T, rank_pmf=pmf)
    span = subspace_enum.span_rows if kind == 2 else \
        subspace_enum.span_columns
    return _symmetric_channel(rng, q, T, M, N, span)


def _assert_real_violation(core, name, w):
    """Re-derive a failed predicate's witness from P(Y|X) alone."""
    field, T = core.spec.field, core.spec.T
    p_yx = cm.p_y_given_x
    span_cols = subspace_enum.span_columns
    if name == "rank_symmetric":
        x1, x2 = matrix(field, w["X1"]), matrix(field, w["X2"])
        y1, y2 = matrix(field, w["Y1"]), matrix(field, w["Y2"])
        assert rank(x1) == rank(x2) == w["rank_X"]
        assert rank(y1) == rank(y2) == w["rank_Y"]
        # both outputs lie in the reachable cone of their inputs
        assert all(subspace_enum.contains(span_cols(x), span_cols(y))
                   for x, y in ((x1, y1), (x2, y2)))
        got = [p_yx(core, x1, y1), p_yx(core, x2, y2)]
        assert got == [Fraction(w["p1"]), Fraction(w["p2"])]
        assert got[0] != got[1]
    elif name == "row_space_symmetric":
        x = matrix(field, w["X"])
        y1, y2 = matrix(field, w["Y1"]), matrix(field, w["Y2"])
        assert subspace_enum.span_rows(y1) == subspace_enum.span_rows(y2)
        # both outputs lie in the reachable cone of X
        assert all(subspace_enum.contains(span_cols(x), span_cols(y))
                   for y in (y1, y2))
        got = [p_yx(core, x, y1), p_yx(core, x, y2)]
        assert got == [Fraction(w["p1"]), Fraction(w["p2"])]
        assert got[0] != got[1]
    elif name == "unique_subspace_degradation":
        x1, x2 = matrix(field, w["X1"]), matrix(field, w["X2"])
        v = subspace_enum.span_rows(
            matrix(field, w["V"]["basis"]) if w["V"]["basis"]
            else zeros(field, 0, T))
        assert span_cols(x1) == span_cols(x2)
        laws = [sum((p_yx(core, x, y)
                     for y in all_matrices(field, T, core.spec.N)
                     if span_cols(y) == v), Fraction(0)) for x in (x1, x2)]
        assert laws == [Fraction(w["p1"]), Fraction(w["p2"])]
        assert laws[0] != laws[1]
    elif "Y" in w:
        x1, x2 = matrix(field, w["X1"]), matrix(field, w["X2"])
        y = matrix(field, w["Y"])
        assert span_cols(x1) == span_cols(x2)
        got = [p_yx(core, x1, y), p_yx(core, x2, y)]
        assert got == [Fraction(w["p1"]), Fraction(w["p2"])]
        assert got[0] != got[1]
    else:
        y1, y2 = matrix(field, w["Y1"]), matrix(field, w["Y2"])
        x = matrix(field, w["X"])
        assert span_cols(y1) == span_cols(y2)
        # a nonzero 2x2 minor of the likelihood columns at rows X, X0
        a1, a2 = p_yx(core, x, y1), p_yx(core, x, y2)
        assert any(a1 * p_yx(core, x0, y2) != a2 * p_yx(core, x0, y1)
                   for x0 in all_matrices(field, T, core.spec.M))


def test_criterion_10b_class_predicates_match_oracle(capsys):
    with _Gate(capsys, "criterion 10b: table-based rank-symmetric, "
                       "degraded, unique subspace degradation and row-space "
                       "symmetric tests match the brute-force scans on 1000 "
                       "channels, with verified witnesses"):
        rng = random.Random(1010)
        positives = {"rank_symmetric": 0, "degraded": 0,
                     "unique_subspace_degradation": 0,
                     "row_space_symmetric": 0}
        for _ in range(1000):
            core = transition_core(_cross_check_channel(rng))
            scan = cls._fiber_scan(core)
            rank_sym, mu = cls.is_rank_symmetric(scan)
            rank_sym_scan, mu_scan = oracle.is_rank_symmetric(core)
            assert mu == mu_scan, core.spec
            for name, got, want in (
                    ("rank_symmetric", rank_sym, rank_sym_scan),
                    ("degraded", cls.is_degraded(scan),
                     oracle.is_degraded(core)),
                    ("unique_subspace_degradation",
                     cls.has_unique_subspace_degradation(core),
                     oracle.has_unique_subspace_degradation(core)),
                    ("row_space_symmetric", cls.is_row_space_symmetric(scan),
                     oracle.is_row_space_symmetric(core))):
                assert got.holds == want.holds, (name, core.spec)
                positives[name] += got.holds
                if not got.holds:
                    assert set(got.witness) == set(want.witness)
                    _assert_real_violation(core, name, got.witness)
        # both outcomes are exercised in volume
        assert all(200 <= n <= 800 for n in positives.values()), positives


def _recount_fibers(core):
    """core.fibers rebuilt from every E of the full q^(r*N) cube of each
    class, visited in sorted order."""
    out = {}
    for u, table in core.tables.items():
        by_w = {}
        for e in all_matrices(core.spec.field, u.dim, core.spec.N):
            if e.entries in table:
                by_w.setdefault(subspace_enum.span_rows(e), []).append(
                    (e.entries, table[e.entries]))
        out[u] = {w: cm.Fiber(sum(p for _, p in es), *es[0],
                              next((ep for ep in es if ep[1] != es[0][1]),
                                   None))
                  for w, es in by_w.items()}
    return out


def test_criterion_10c_row_space_index_matches_cube_recount(capsys):
    with _Gate(capsys, "criterion 10c: the row-space index of every class "
                       "table equals a recount over the full cube on 500 "
                       "channels"):
        rng = random.Random(1011)
        for _ in range(500):
            core = transition_core(_cross_check_channel(rng))
            assert core.fibers == _recount_fibers(core), core.spec


def _assert_core_matches_reference(spec):
    assert_core_matches_reference(transition_core(spec),
                                  gl_invariant_reference(spec))


def test_criterion_10e_packed_core_matches_reference(capsys, fixtures):
    with _Gate(capsys, "criterion 10e: the packed-integer core equals the "
                       "matrix-product reference, key order included where "
                       "a table is not shared, on criterion 10c's 500 "
                       "channels, the fixtures and channels with three or "
                       "more distinct masses"):
        rng = random.Random(1011)
        for _ in range(500):
            _assert_core_matches_reference(_cross_check_channel(rng))
        for spec, _ in fixtures.values():
            _assert_core_matches_reference(spec)
        _assert_core_matches_reference(cm.generate(
            "uniform_given_rank", q=2, T=1, M=3, N=3,
            rank_pmf={1: Fraction(1, 2), 3: Fraction(1, 2)}))
        # q = 5, M = 3: 6-bit digits, (q-1)^2 * M = 48 at most per entry
        _assert_core_matches_reference(cm.random_channel(
            random.Random(5), 5, 2, 3, 2, max_support=40))
        # one mass per rank shell, so each class counts keys that repeat
        # under three or four distinct masses
        for q, T, M, N in ((2, 2, 3, 3), (3, 2, 2, 2), (2, 3, 4, 2)):
            r = min(M, N)
            _assert_core_matches_reference(cm.generate(
                "uniform_given_rank", q=q, T=T, M=M, N=N,
                rank_pmf={s: Fraction(2 * (s + 1), (r + 1) * (r + 2))
                          for s in range(r + 1)}))


def test_criterion_10d_unique_degradation_css_is_one_assignment(capsys):
    with _Gate(capsys, "criterion 10d: with a unique subspace degradation "
                       "the per-rank search tries one assignment and "
                       "matches the exhaustive C_ss on 300 channels"):
        rng = random.Random(1012)
        usd = 0
        for _ in range(300):
            core = transition_core(_cross_check_channel(rng))
            if not cls.has_unique_subspace_degradation(core):
                continue
            usd += 1
            assert ce.css_alpha_lower(core).assignments_tried == 1
            css = ce.css_unique(core)
            assert css.mode == "unique"
            assert css.value == pytest.approx(
                ce.css_bruteforce(core).value, abs=1e-8), core.spec
        assert usd >= 100, usd


def test_criterion_10h_degradation_groups_match_the_input_scan(capsys):
    with _Gate(capsys, "criterion 10h: the options css_bruteforce builds "
                       "from the class tables equal those built from the "
                       "q^(T*M) input scan, in order and bit for bit, on "
                       "1000 channels"):
        rng = random.Random(1015)
        for _ in range(1000):
            spec = _cross_check_channel(rng)
            got = list(ce._degradation_groups(transition_core(spec)))
            want = oracle.degradation_groups(spec)
            # the rows' items in order: labels, masses and their order
            assert [[(list(row.items()), reward) for row, reward in group]
                    for group in got] == [
                [(list(row.items()), reward) for row, reward in group]
                for group in want], spec
            # css_bruteforce reads [T, r]_q groups of each dimension r
            assert len(got) == sum(
                qcomb.gaussian_binomial(spec.T, r, spec.field.q)
                for r in range(min(spec.T, spec.M) + 1)), spec


def test_criterion_10g_certified_intervals_contain_the_capacities(capsys):
    with _Gate(capsys, "criterion 10g: the certified intervals of C and of "
                       "the exhaustive C_ss contain tight values at 3, 10 "
                       "and the default iterations, on 300 channels"):
        rng = random.Random(1014)
        checked = usd = 0
        while checked < 300:
            core = transition_core(cm.random_channel(
                rng, rng.choice([2, 3]), rng.randint(1, 2),
                rng.randint(1, 2), rng.randint(1, 2), max_support=4))
            try:
                css_ref = ce.css_bruteforce(core, 1e-13, budget=64)
            except BudgetExceeded:
                continue
            checked += 1
            cap_ref = ce.shannon_capacity(core, 1e-13)
            has_usd = cls.usd_violation(core) is None
            usd += has_usd
            for max_iter in (3, 10, ce.DEFAULT_MAX_ITER):
                for res, ref in (
                        (ce.shannon_capacity(core, max_iter=max_iter),
                         cap_ref),
                        (ce.css_bruteforce(core, max_iter=max_iter),
                         css_ref)):
                    assert (res.value - 1e-12 <= ref.value
                            <= res.upper + 1e-12), (core.spec, max_iter)
                alpha = ce.css_alpha_lower(core, max_iter=max_iter)
                assert alpha.upper == math.inf
                if has_usd:
                    unique = ce.css_unique(core, max_iter=max_iter)
                    assert unique.upper == unique.value + unique.gap
        assert usd >= 100, usd


def _rank_law_channel(rng):
    # rank families (half of them with a USD) where their support is small
    q = rng.choice([2, 3])
    T, M, N = (rng.randint(1, 3) for _ in range(3))
    if rng.random() < 0.5 or q ** (M * N) > 512:
        return cm.random_channel(rng, q, T, M, N, max_support=6)
    weights = [rng.randint(0, 2) for _ in range(min(M, N) + 1)]
    if not any(weights):
        weights[-1] = 1
    pmf = {r: Fraction(w, sum(weights)) for r, w in enumerate(weights) if w}
    family = rng.choice(["uniform_given_rank", "custom_rank_dist"])
    return cm.generate(family, q=q, M=M, N=N, T=T, rank_pmf=pmf)


def test_criterion_10f_usd_iff_one_rank_law_per_rank(capsys, monkeypatch):
    with _Gate(capsys, "criterion 10f: a channel has a unique subspace "
                       "degradation iff each input rank has one exact law "
                       "of rank Y, and the auto and unique C_ss modes "
                       "follow it, on 1000 channels"):
        # only the dispatch is checked here: brute force is stubbed, and
        # the rank-domain run need not be tight
        monkeypatch.setattr(ce, "css_bruteforce", lambda core, *args:
                            ce.CapacityResult(0.0, 0.0, 0, True,
                                              "bruteforce"))
        rng = random.Random(1013)
        usd = 0
        for _ in range(1000):
            core = transition_core(_rank_law_channel(rng))
            flag = cls.has_unique_subspace_degradation(core).holds
            laws = {}
            for u in core.input_classes():
                laws.setdefault(u.dim, set()).add(frozenset(
                    cm.cond_rank_given_rowspace(core, u).items()))
            assert flag == all(len(s) == 1 for s in laws.values()), core.spec
            auto = ce.subspace_coding_capacity(core, "auto", 1e-4)
            assert auto.mode == ("unique" if flag else "bruteforce")
            if not flag:
                with pytest.raises(ce.NoUniqueDegradation):
                    ce.css_unique(core)
            usd += flag
        assert 300 <= usd <= 700, usd


def test_criterion_11_css_below_capacity(capsys, fixtures):
    with _Gate(capsys, "criterion 11: subspace-coding capacity never "
                       "exceeds the Shannon capacity"):
        for name, (spec, core) in fixtures.items():
            cap = ce.shannon_capacity(core, 1e-10)
            css = ce.css_bruteforce(core, 1e-10)
            assert css.value <= cap.value + 2e-9, name


def test_criterion_12_verify_runtime(capsys, tmp_path):
    with _Gate(capsys, "criterion 12: full verification suite finishes "
                       "inside five minutes"):
        out = tmp_path / "verify.json"
        start = time.monotonic()
        code = cli.main(["verify", "-o", str(out)])
        elapsed = time.monotonic() - start
        assert code == 0
        assert elapsed < 300.0

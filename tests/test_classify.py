import random
from collections import Counter
from fractions import Fraction
from itertools import chain

from loccap import channel_model as cm
from loccap import classify as cls
from loccap import gf_core
from loccap.channel_model import transition_core
from loccap.gf_core import FieldSpec, matrix

from conftest import (is_uniform_given_rank_reference, random_small_channel,
                      rank_pmf_reference, support_matrix)

F2 = FieldSpec(2)


def test_fixture_flags(fixtures):
    flags = {name: cls.classify(spec, core).flags()
             for name, (spec, core) in fixtures.items()}
    # degraded but not rank symmetric
    assert flags["table1.json"]["degraded"]
    assert not flags["table1.json"]["rank_symmetric"]
    # multiple subspace degradations
    assert not flags["table2.json"]["unique_subspace_degradation"]
    assert flags["table2.json"]["row_space_symmetric"]
    # rank symmetric with a non-uniform transfer matrix (T < M)
    assert flags["example9.json"]["rank_symmetric"]
    assert not flags["example9.json"]["uniform_given_rank"]
    assert not flags["example6.json"]["unique_subspace_degradation"]


def test_example9_mu_table(fixtures):
    spec, core = fixtures["example9.json"]
    holds, mu = cls.is_rank_symmetric(cls._fiber_scan(core))
    assert holds
    # 1 x 2 inputs over F_2: rank-1 input, every rank-1 output has the
    # same conditional probability and rank 0 picks up the rest
    assert mu[(1, 1)] == Fraction(1, 4)
    assert mu[(1, 0)] == Fraction(1, 4)
    assert mu[(0, 0)] == 1


def test_zero_channel_in_every_class():
    zero = matrix(F2, [[0, 0], [0, 0]])
    spec = cm.ChannelSpec(F2, 2, 2, 2, {zero.entries: Fraction(1)})
    report = cls.classify(spec)
    assert all(report.flags().values())


def test_uniform_given_rank_generated_channels_are_rank_symmetric():
    rng = random.Random(5)
    for _ in range(10):
        weights = [rng.randint(0, 3) for _ in range(3)]
        if sum(weights) == 0:
            weights[2] = 1
        total = sum(weights)
        pmf = {r: Fraction(w, total) for r, w in enumerate(weights) if w}
        spec = cm.generate("uniform_given_rank", q=2, M=2, N=2,
                           T=rng.choice([1, 2, 3]), rank_pmf=pmf)
        report = cls.classify(spec)
        assert report.uniform_given_rank.holds
        assert report.rank_symmetric.holds
        assert report.degraded.holds
        assert report.unique_subspace_degradation.holds
        assert report.row_space_symmetric.holds


def test_every_t1_channel_is_row_space_symmetric():
    # with a single input packet the row space determines the input
    rng = random.Random(77)
    for _ in range(20):
        spec = cm.random_channel(rng, 2, 1, 2, 2)
        core = transition_core(spec)
        assert cls.is_row_space_symmetric(cls._fiber_scan(core)).holds


def test_implication_audit_random_channels():
    rng = random.Random(123)
    for _ in range(200):
        spec = random_small_channel(rng)
        report = cls.classify(spec)
        assert cls.implication_audit(report, spec.T, spec.M) == []


def test_witness_shapes(fixtures):
    spec, core = fixtures["table2.json"]
    report = cls.classify(spec, core)
    w = report.unique_subspace_degradation.witness
    assert set(w) >= {"reason", "X1", "X2", "V", "p1", "p2"}
    w = report.uniform_given_rank.witness
    assert w["reason"] == "rank shell only partially covered"


def test_witness_is_a_concrete_counterexample(fixtures):
    spec, core = fixtures["table1.json"]
    result, _ = cls.is_rank_symmetric(cls._fiber_scan(core))
    assert not result
    witness = result.witness
    x1 = matrix(spec.field, witness["X1"])
    x2 = matrix(spec.field, witness["X2"])
    y1 = matrix(spec.field, witness["Y1"])
    y2 = matrix(spec.field, witness["Y2"])
    p1 = cm.p_y_given_x(core, x1, y1)
    p2 = cm.p_y_given_x(core, x2, y2)
    assert p1 != p2


def test_rank_symmetric_example_has_degraded_flag(fixtures):
    # the class of rank-symmetric channels sits inside the degraded ones
    spec, core = fixtures["example9.json"]
    report = cls.classify(spec, core)
    assert report.degraded.holds
    assert report.unique_subspace_degradation.holds


def _prefix_sharing_channel(rng):
    """A random T=1 channel whose support matrices share their top rows,
    keyed in shuffled order, with masses of few distinct values."""
    q = rng.choice([2, 3, 5, 7])
    M, N = rng.randint(1, 4), rng.randint(1, 4)
    field = FieldSpec(q)

    def row():
        return tuple(rng.randrange(q) for _ in range(N))

    tops = [[row() for _ in range(M - 1)] for _ in range(rng.randint(1, 3))]
    chosen = set()
    for _ in range(rng.randint(1, 12)):
        top = list(rng.choice(tops))
        if top and rng.random() < 0.3:
            top[rng.randrange(len(top))] = row()
        chosen.add(tuple(chain(*top, row())))
    keys = sorted(chosen)
    rng.shuffle(keys)
    weights = [rng.choice([1, 1, 2]) for _ in keys]
    pmf = {e: Fraction(w, sum(weights)) for e, w in zip(keys, weights)}
    return cm.ChannelSpec(field, 1, M, N, pmf)


def test_uniform_given_rank_equals_the_per_matrix_reference():
    rng = random.Random(10)
    outcomes = Counter()
    for _ in range(1000):
        spec = _prefix_sharing_channel(rng)
        got = cls.is_uniform_given_rank(spec)
        assert got == is_uniform_given_rank_reference(spec)
        outcomes[got.witness["reason"] if got.witness else "holds"] += 1
        assert list(spec.rank_pmf().items()) == \
            list(rank_pmf_reference(spec).items())
        keys = list(spec.pmf_H)
        want = [gf_core.rank(support_matrix(spec, h)) for h in spec.pmf_H]
        assert spec.index.ranks() == want
        order = sorted(range(len(keys)), key=keys.__getitem__)
        assert cm.ChannelSpec(spec.field, 1, spec.M, spec.N, {
            keys[i]: spec.pmf_H[keys[i]] for i in order}).index.ranks() == \
            [want[i] for i in order]
    assert min(outcomes[k] for k in (
        "holds", "unequal mass at equal rank",
        "rank shell only partially covered")) > 10


def test_uniform_given_rank_equals_the_reference_on_rank_families():
    rng = random.Random(11)
    outcomes = Counter()
    for _ in range(60):
        q, M, N = rng.choice([2, 3]), rng.randint(1, 3), rng.randint(1, 3)
        if q == 3 and M * N > 6:
            continue
        weights = [rng.randint(0, 2) for _ in range(min(M, N) + 1)]
        weights[rng.randrange(len(weights))] += 1
        pmf = {r: Fraction(w, sum(weights)) for r, w in enumerate(weights)
               if w}
        kind = rng.choice(["uniform_given_rank", "custom_rank_dist"])
        spec = cm.generate(kind, q=q, M=M, N=N, rank_pmf=pmf)
        specs = [spec]
        shells = {}
        for h in spec.pmf_H:
            shells.setdefault(gf_core.rank(support_matrix(spec, h)),
                              []).append(h)
        wide = [hs for hs in shells.values() if len(hs) > 1]
        if wide:
            # move mass between two matrices of one rank shell
            h1, h2 = rng.sample(rng.choice(wide), 2)
            moved = dict(spec.pmf_H)
            moved[h1], moved[h2] = moved[h1] / 2, moved[h2] + moved[h1] / 2
            specs.append(cm.ChannelSpec(spec.field, 1, M, N, moved))
        for s in specs:
            got = cls.is_uniform_given_rank(s)
            assert got == is_uniform_given_rank_reference(s)
            outcomes[got.witness["reason"] if got.witness else "holds"] += 1
    assert len(outcomes) == 3


class _CountedReads(dict):
    """A dict that counts the reads of each key through []."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = Counter()

    def __getitem__(self, key):
        self.reads[key] += 1
        return super().__getitem__(key)


def test_classify_reads_each_class_index_once():
    # one channel where every fiber predicate holds, one where all fail
    holds = cm.generate("uniform_given_rank", q=2, T=2, M=3, N=2,
                        rank_pmf={0: Fraction(1, 3), 2: Fraction(2, 3)})
    fails = cm.random_channel(random.Random(0), 2, 2, 2, 2)
    names = ("rank_symmetric", "degraded", "row_space_symmetric")
    for spec, expected in ((holds, True), (fails, False)):
        core = transition_core(spec)
        core.fibers = counted = _CountedReads(core.fibers)
        flags = cls.classify(spec, core).flags()
        assert [flags[n] for n in names] == [expected] * 3
        assert counted.reads and max(counted.reads.values()) == 1

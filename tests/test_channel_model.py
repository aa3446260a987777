import dataclasses
import functools
import gc
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from loccap import channel_model as cm
from loccap import classify as cls
from loccap import cli, gf_core, oracle, qcomb, subspace_enum
from loccap.channel_model import (ChannelSpec, ChannelSpecError,
                                  load_channel, p_y_given_x, save_channel,
                                  transition_core)
from loccap.gf_core import (BudgetExceeded, FieldSpec, MatrixGF,
                            all_matrices, mat_mul, matrix, rank, zeros)
from loccap.oracle import transition_naive
from loccap.subspace_enum import span_columns, span_rows

from conftest import (assert_core_matches_reference, gl_invariant_reference,
                      is_uniform_given_rank_reference, random_small_channel,
                      rank_joint, row_steps, spec_to_dict, support_matrix)

F2 = FieldSpec(2)


def _assert_fast_matches_naive(spec):
    core = transition_core(spec)
    naive = transition_naive(spec)
    zero = Fraction(0)
    for x in all_matrices(spec.field, spec.T, spec.M):
        row_total = Fraction(0)
        for y in all_matrices(spec.field, spec.T, spec.N):
            got = p_y_given_x(core, x, y)
            assert got == naive.get((x.entries, y.entries), zero)
            row_total += got
        assert row_total == 1


def test_transition_fast_vs_naive_on_fixtures(fixtures):
    for spec, _ in fixtures.values():
        _assert_fast_matches_naive(spec)


def test_transition_fast_vs_naive_random():
    rng = random.Random(2024)
    for _ in range(50):
        _assert_fast_matches_naive(random_small_channel(rng))


@pytest.mark.parametrize("x_shape, y_shape, match", [
    ((2, 2), (1, 2), "input has wrong shape"),
    ((1, 2), (1, 3), "output has wrong shape"),
], ids=["X", "Y"])
def test_p_y_given_x_refuses_a_wrong_shape(x_shape, y_shape, match):
    core = transition_core(cm.generate("iid_uniform", q=2, T=1, M=2, N=2))
    with pytest.raises(ChannelSpecError, match=match):
        p_y_given_x(core, zeros(F2, *x_shape), zeros(F2, *y_shape))


def test_cond_rank_sums_to_one(fixtures):
    for spec, core in fixtures.values():
        for u in core.input_classes():
            dist = cm.cond_rank_given_rowspace(core, u)
            assert sum(dist.values()) == 1
            assert all(0 <= s <= min(u.dim, spec.N) for s in dist)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_column_factor_recovers_the_input(q):
    # x = B @ D_U for every x, rank 0 and the square shapes included
    rng = random.Random(q)
    field = FieldSpec(q)
    ranks = set()
    for _ in range(200):
        t, m = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[rng.randrange(q) if rng.random() < 0.6 else 0
                 for _ in range(m)] for _ in range(t)]
        x = matrix(field, rows)
        u = span_rows(x)
        b = cm.column_factor(x, u)
        assert (b.rows, b.cols) == (t, u.dim)
        assert mat_mul(b, u.basis) == x
        ranks.add(u.dim)
    assert ranks == {0, 1, 2, 3}


def test_tables_are_built_in_canonical_class_order(fixtures):
    for spec, core in fixtures.values():
        classes = list(core.tables)
        assert classes == sorted(classes, key=lambda u: u.sort_key())
        assert core.input_classes() == classes


def test_rank_joint_marginals(fixtures):
    spec, core = fixtures["table1.json"]
    classes = core.input_classes()
    alpha = {u: Fraction(1, len(classes)) for u in classes}
    joint = rank_joint(core, alpha)
    assert sum(joint.values()) == 1
    # input-rank marginal equals the mass placed on each dimension
    by_r = {}
    for (r, _), p in joint.items():
        by_r[r] = by_r.get(r, Fraction(0)) + p
    want = {}
    for u in classes:
        want[u.dim] = want.get(u.dim, Fraction(0)) + alpha[u]
    assert by_r == want


# ---------------------------------------------------------------------------
# spec I/O

@pytest.mark.parametrize("q, T, M", [(2, 1, 1), (2, 2, 2), (2, 3, 2),
                                     (2, 2, 3), (3, 2, 2), (3, 1, 3)])
def test_inputs_by_column_space_yields_every_input_once(monkeypatch, q, T,
                                                        M):
    # the oracle's grouping of transition_naive's table: each law is the
    # push-forward of X @ H over pmf_H, equal products adding their
    # masses, and each group is in matrices_with_column_space order
    spec = cm.random_channel(random.Random(100 * q + 10 * T + M), q, T, M, 2)
    seen = []
    for w, laws in oracle.inputs_by_column_space(spec):
        assert [x for x, _ in laws] == [
            x.entries for x in subspace_enum.matrices_with_column_space(w, M)]
        for x_ent, law in laws:
            x = MatrixGF(spec.field, T, M, x_ent)
            assert span_columns(x) == w
            want = {}
            for h, p in spec.pmf_H.items():
                y = mat_mul(x, support_matrix(spec, h)).entries
                want[y] = want.get(y, Fraction(0)) + p
            assert law == want
            seen.append(x_ent)
    assert sorted(seen) == sorted(
        x.entries for x in all_matrices(spec.field, T, M))
    monkeypatch.setattr(oracle, "NAIVE_TABLE_BUDGET",
                        len(seen) * len(spec.pmf_H) - 1)
    with pytest.raises(BudgetExceeded):
        oracle.inputs_by_column_space(spec)


def test_round_trip_is_bit_exact(tmp_path, fixtures):
    for name, (spec, _) in fixtures.items():
        path = tmp_path / name
        save_channel(spec, path)
        again = load_channel(path)
        assert again.pmf_H == spec.pmf_H
        assert (again.T, again.M, again.N) == (spec.T, spec.M, spec.N)
        save_channel(again, tmp_path / "again.json")
        assert (path.read_text() == (tmp_path / "again.json").read_text())


def _assert_writer_matches_json(tmp_path, spec):
    path = tmp_path / "chan.json"
    save_channel(spec, path)
    want = json.dumps(spec_to_dict(spec), indent=1) + "\n"
    assert path.read_bytes() == want.encode()
    assert load_channel(path).pmf_H == spec.pmf_H


@pytest.mark.parametrize("q", [2, 3, 101, 211])
def test_writer_matches_the_json_module_on_random_channels(tmp_path, q):
    # multi-digit entries and numerators; keys given in unsorted order
    rng = random.Random(q)
    for _ in range(20):
        T, M, N = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 4)
        size, keys = rng.randint(1, min(8, q ** (M * N))), set()
        while len(keys) < size:
            keys.add(tuple(rng.randrange(q) for _ in range(M * N)))
        weights = [rng.randint(1, 10 ** 6) for _ in keys]
        pmf = {h: Fraction(w, sum(weights)) for h, w in zip(keys, weights)}
        _assert_writer_matches_json(tmp_path,
                                    ChannelSpec(FieldSpec(q), T, M, N, pmf))
    _assert_writer_matches_json(tmp_path, ChannelSpec(FieldSpec(q), 1, 1, 1,
                                                      {(q - 1,): 1}))


@pytest.mark.parametrize("kind, params", [
    ("iid_uniform", dict(q=3, T=2, M=2, N=3)),
    ("full_rank_uniform", dict(q=5, T=1, M=2)),
    ("uniform_given_rank", dict(q=2, T=1, M=4, N=4,
                                rank_pmf={0: Fraction(1, 7),
                                          1: Fraction(6, 7)})),
    ("uniform_given_rank", dict(q=3, T=2, M=2, N=3,
                                rank_pmf={1: Fraction(1, 3),
                                          2: Fraction(2, 3)})),
    ("custom_rank_dist", dict(q=211, T=3, M=4, N=4,
                              rank_pmf={0: Fraction(1, 7), 2: Fraction(2, 7),
                                        4: Fraction(4, 7)})),
])
def test_writer_matches_the_json_module_on_generated_channels(tmp_path, kind,
                                                              params):
    _assert_writer_matches_json(tmp_path, cm.generate(kind, **params))


def _write(tmp_path, doc):
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(doc))
    return path


BASE = {"q": 2, "T": 1, "M": 1, "N": 1,
        "pmf": [{"H": [[1]], "p": "1/2"}, {"H": [[0]], "p": "1/2"}]}


def test_load_rejects_missing_key(tmp_path):
    doc = dict(BASE)
    del doc["M"]
    with pytest.raises(ChannelSpecError, match="missing field 'M'"):
        load_channel(_write(tmp_path, doc))


def test_load_rejects_bad_rational(tmp_path):
    doc = dict(BASE)
    doc["pmf"] = [{"H": [[1]], "p": "0.5"}, {"H": [[0]], "p": "1/2"}]
    with pytest.raises(ChannelSpecError, match="pmf\\[0\\]"):
        load_channel(_write(tmp_path, doc))


def test_load_rejects_duplicate_support(tmp_path):
    doc = dict(BASE)
    doc["pmf"] = [{"H": [[1]], "p": "1/2"}, {"H": [[1]], "p": "1/2"}]
    with pytest.raises(ChannelSpecError, match="duplicate"):
        load_channel(_write(tmp_path, doc))


def test_load_rejects_bad_sum(tmp_path):
    doc = dict(BASE)
    doc["pmf"] = [{"H": [[1]], "p": "1/3"}, {"H": [[0]], "p": "1/2"}]
    with pytest.raises(ChannelSpecError, match="sums to"):
        load_channel(_write(tmp_path, doc))


def test_load_rejects_wrong_shape(tmp_path):
    doc = dict(BASE)
    doc["pmf"] = [{"H": [[1, 0]], "p": "1"}]
    with pytest.raises(ChannelSpecError, match="shape"):
        load_channel(_write(tmp_path, doc))


def test_load_rejects_composite_field(tmp_path):
    doc = dict(BASE)
    doc["q"] = 6
    with pytest.raises(ChannelSpecError, match="prime"):
        load_channel(_write(tmp_path, doc))


@pytest.mark.parametrize("change, match", [
    ({"pmf": 5}, "pmf must"),
    ({"pmf": [5]}, "needs keys"),
    ({"pmf": [{"H": [[1.7]], "p": "1"}]}, "integer entries"),
    ({"pmf": [{"H": [[3]], "p": "1"}]}, "integer entries"),
    ({"pmf": [{"H": [[True]], "p": "1"}]}, "integer entries"),
    ({"pmf": [{"H": [[1]], "p": True}]}, "probability"),
    ({"q": 2.0}, "q must"), ({"T": True}, "T must"), ({"M": "1"}, "M must"),
    ({"N": 1.5}, "N must"),
    ({"q": 2 ** 61 - 1}, "q must be at most"),
])
def test_load_rejects_non_integers_and_out_of_range_entries(tmp_path, change,
                                                             match):
    with pytest.raises(ChannelSpecError, match=match):
        load_channel(_write(tmp_path, dict(BASE, **change)))


def _doc(*items):
    return {"q": 3, "T": 1, "M": 2, "N": 2,
            "pmf": [{"H": h, "p": p} for h, p in items]}


_A, _B, _C = [[0, 1], [1, 0]], [[0, 1], [2, 2]], [[1, 1], [0, 0]]
_SHAPE = "H must have shape 2x2, with integer entries in [0, 3)"
_RATIONAL = 'probability must be a rational string like "1/6", got '


# ugr(2;1,4,4), 27,510 items: a fault at item 20,000 gets the message it
# would get at item 0
_LARGE_SPEC = cm.generate("uniform_given_rank", q=2, T=1, M=4, N=4,
                          rank_pmf={2: Fraction(1, 2), 4: Fraction(1, 2)})
_LARGE = spec_to_dict(_LARGE_SPEC)
_DEEP = 20000
_DEEP_SHAPE = ("pmf[20000]: H must have shape 4x4, with integer entries "
               "in [0, 2)")


def _deep(**change):
    """The large document with item _DEEP's "H" or "p" replaced."""
    items = list(_LARGE["pmf"])
    items[_DEEP] = dict(items[_DEEP], **change)
    return dict(_LARGE, pmf=items)


def _deep_row(i, row):
    """The large document with row i of item _DEEP's H replaced."""
    rows = list(_LARGE["pmf"][_DEEP]["H"])
    rows[i] = row
    return _deep(H=rows)


@pytest.mark.parametrize("doc, message", [
    (_doc((_A, "1/2"), ([[0, 1], [True, 0]], "1/2")), f"pmf[1]: {_SHAPE}"),
    (_doc((_A, "1/2"), ([[0, 1.0], [1, 0]], "1/2")), f"pmf[1]: {_SHAPE}"),
    (_doc((_A, "1/2"), ([[0, 1], ["1", 0]], "1/2")), f"pmf[1]: {_SHAPE}"),
    (_doc((_A, "1/2"), ([[0, 1], [3, 0]], "1/2")), f"pmf[1]: {_SHAPE}"),
    (_doc((_A, "1/2"), ([[0, 1], [-1, 0]], "1/2")), f"pmf[1]: {_SHAPE}"),
    (_doc((_A, "1/2"), ([[0, 1], [1]], "1/2")), f"pmf[1]: {_SHAPE}"),
    (_doc((_A, "1/2"), ([[0, 1, 1], [1]], "1/2")), f"pmf[1]: {_SHAPE}"),
    (_doc((_A, "1/2"), ([[0, 1]], "1/2")), f"pmf[1]: {_SHAPE}"),
    (_doc((_A, "1/2"), ([[0, 1], "01"], "1/2")), f"pmf[1]: {_SHAPE}"),
    (_doc((_A, "1/2"), ({"0": [0, 1], "1": [1, 0]}, "1/2")),
     f"pmf[1]: {_SHAPE}"),
    (dict(_doc((_A, "1/2")), pmf=[{"H": _A, "p": "1/2"}, [_B, "1/2"]]),
     "pmf[1]: needs keys 'H' and 'p'"),
    (_doc((_A, "1/2"), (_A, "1/2")), "pmf[1]: duplicate support matrix"),
    (_doc((_A, "1/2"), (_B, "0.5")), f"pmf[1]: {_RATIONAL}'0.5'"),
    (_doc((_A, "1/2"), (_B, "1/0")),
     "pmf[1]: bad rational '1/0': Fraction(1, 0)"),
    (_doc((_A, 1), (_B, True)), f"pmf[1]: {_RATIONAL}True"),
    (_doc((_A, 1), (_B, "1/2")), "PMF sums to 3/2, not 1"),
    (_doc((_A, 0), (_B, 1)), "probability masses must be positive"),
    (_doc((_A, "0/3"), (_B, "1")), "probability masses must be positive"),
    (_doc((_A, "1/2"), (_B, "1/3")), "PMF sums to 5/6, not 1"),
    # several faults: the first item at fault sets the message, and the
    # masses are checked as a whole once every item has been read
    (_doc((_A, "x"), ([[0, 1], [1]], "1/2")), f"pmf[0]: {_RATIONAL}'x'"),
    (_doc((_A, "1/2"), ([[0, 1], [3, 0]], "1/0")), f"pmf[1]: {_SHAPE}"),
    (_doc((_A, "1/2"), (_A, "1/0")), "pmf[1]: duplicate support matrix"),
    (_doc((_A, "1/3"), (_A, "1/3"), ([[0, 7], [0, 0]], "1/3")),
     "pmf[1]: duplicate support matrix"),
    (_doc((_A, "0"), (_B, "1/2"), (_C, True)), f"pmf[2]: {_RATIONAL}True"),
    (_doc((_A, "1/3"), (_B, "1/3"), ([[1.0, 0], [0, 0]], "1/3")),
     f"pmf[2]: {_SHAPE}"),
    (_doc((_A, "1/3"), (_B, "0"), (_C, "1/2")),
     "probability masses must be positive"),
    # single faults at item 20,000 of the large document
    (_deep_row(1, [True, 0, 0, 0]), _DEEP_SHAPE),
    (_deep_row(2, [0, 2, 0, 0]), _DEEP_SHAPE),
    (_deep_row(3, [0, 1, 0]), _DEEP_SHAPE),
    (_deep(H=_LARGE["pmf"][5]["H"]), "pmf[20000]: duplicate support matrix"),
    (_deep(p="0.5"), f"pmf[20000]: {_RATIONAL}'0.5'"),
    (_deep(p="1/0"), "pmf[20000]: bad rational '1/0': Fraction(1, 0)"),
    # a duplicate whose kept items' masses sum to 1
    (_doc((_A, "1/2"), (_B, "1/2"), (_A, "1/2")),
     "pmf[2]: duplicate support matrix"),
    # a long mass is echoed as the first 40 characters of its repr
    (_doc((_A, "1/2"), (_B, "0." + "5" * 5000)),
     f"pmf[1]: {_RATIONAL}'0.{'5' * 37}..."),
])
def test_loader_error_messages(doc, message):
    with pytest.raises(ChannelSpecError) as exc:
        cm.spec_from_dict(doc)
    assert str(exc.value) == message


def test_load_rejects_non_object_document(tmp_path):
    with pytest.raises(ChannelSpecError, match="JSON object"):
        load_channel(_write(tmp_path, [BASE]))


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "chan.json"
    path.write_text("{not json")
    with pytest.raises(ChannelSpecError, match="invalid JSON"):
        load_channel(path)


@pytest.mark.parametrize("text, fault", [
    (json.dumps(BASE), None),
    ("{not json", "invalid JSON"),
    (json.dumps(dict(BASE, pmf=[{"H": [[1]], "p": "x"}])),
     "pmf\\[0\\]: probability must be a rational"),
], ids=["loaded", "invalid JSON", "bad pmf item"])
@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_load_leaves_the_collector_as_it_found_it(tmp_path, text, fault,
                                                  enabled):
    # the loader pauses the cyclic collector; the benchmark and the tests
    # call the CLI in process, so a collector left off would change them
    path = tmp_path / "chan.json"
    path.write_text(text)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if fault is None:
            assert load_channel(path) == cm.spec_from_dict(BASE)
        else:
            with pytest.raises(ChannelSpecError, match=fault):
                load_channel(path)
        assert gc.isenabled() is enabled
        assert cli.main(["classify", str(path)]) == (
            cli.EXIT_OK if fault is None else cli.EXIT_INPUT)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


# ---------------------------------------------------------------------------
# generators

def test_generate_iid_uniform():
    spec = cm.generate("iid_uniform", q=2, M=1, N=1)
    assert len(spec.pmf_H) == 2
    assert all(p == Fraction(1, 2) for p in spec.pmf_H.values())
    # the keys come in all_matrices order, which fixes the first-seen key
    # order of every core table, and so every witness
    for q, M, N in [(2, 1, 1), (2, 2, 3), (3, 2, 2), (5, 1, 3)]:
        spec = cm.generate("iid_uniform", q=q, M=M, N=N)
        assert list(spec.pmf_H) == [
            h.entries for h in all_matrices(FieldSpec(q), M, N)]


def test_generate_full_rank_uniform():
    spec = cm.generate("full_rank_uniform", q=2, M=2)
    assert len(spec.pmf_H) == 6
    assert all(p == Fraction(1, 6) for p in spec.pmf_H.values())
    assert all(rank(support_matrix(spec, h)) == 2 for h in spec.pmf_H)
    # the rank-M shell of uniform_given_rank: the invertible matrices,
    # keyed in sorted entry order, as every shell is
    for q, M in [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2)]:
        spec = cm.generate("full_rank_uniform", q=q, M=M)
        assert list(spec.pmf_H) == sorted(
            c.entries for c in gf_core.enumerate_full_rank(M, M,
                                                           FieldSpec(q)))


def test_generate_uniform_given_rank():
    spec = cm.generate("uniform_given_rank", q=2, M=2, N=2,
                       rank_pmf={1: 1})
    assert len(spec.pmf_H) == qcomb.xi2(2, 2, 1, 2) == 9
    assert all(p == Fraction(1, 9) for p in spec.pmf_H.values())


@pytest.mark.parametrize("q, M, N, rank_pmf", [
    (2, 1, 1, {0: Fraction(1, 2), 1: Fraction(1, 2)}),
    (2, 2, 3, {0: Fraction(1, 4), 1: Fraction(1, 4), 2: Fraction(1, 2)}),
    (2, 3, 2, {2: Fraction(1)}),
    (2, 3, 3, {1: Fraction(1, 3), 3: Fraction(2, 3)}),
    (3, 2, 2, {1: Fraction(1, 2), 2: Fraction(1, 2)}),
    (5, 1, 2, {0: Fraction(1, 5), 1: Fraction(4, 5)}),
])
def test_uniform_given_rank_shells_equal_the_rank_filter(q, M, N, rank_pmf):
    # the PMF of ranking all q^(M*N) matrices, in the same key order
    field = FieldSpec(q)
    share = {r: p / qcomb.xi2(M, N, r, q) for r, p in rank_pmf.items()}
    want = [(h.entries, share[rank(h)]) for h in all_matrices(field, M, N)
            if rank(h) in share]
    spec = cm.generate("uniform_given_rank", q=q, M=M, N=N,
                       rank_pmf=rank_pmf)
    assert list(spec.pmf_H.items()) == want


def test_uniform_given_rank_budgets_the_support_not_the_cube():
    # 2^25 matrices of shape 5x5, of which 961 have rank 1
    spec = cm.generate("uniform_given_rank", q=2, M=5, N=5, rank_pmf={1: 1})
    assert len(spec.pmf_H) == qcomb.xi2(5, 5, 1, 2) == 961
    with pytest.raises(BudgetExceeded):
        cm.generate("uniform_given_rank", q=2, M=6, N=6, rank_pmf={6: 1})


def test_generate_custom_rank_dist_is_not_uniform():
    spec = cm.generate("custom_rank_dist", q=2, M=2, N=2,
                       rank_pmf={0: Fraction(1, 2), 2: Fraction(1, 2)})
    assert len(spec.pmf_H) == 2
    assert spec.rank_pmf() == {0: Fraction(1, 2), 2: Fraction(1, 2)}


def test_generate_rejects_bad_rank_pmf():
    with pytest.raises(ChannelSpecError):
        cm.generate("uniform_given_rank", q=2, M=2, N=2,
                    rank_pmf={3: 1})
    with pytest.raises(ChannelSpecError):
        cm.generate("uniform_given_rank", q=2, M=2, N=2,
                    rank_pmf={1: Fraction(1, 2)})
    with pytest.raises(ChannelSpecError):
        cm.generate("no_such_kind", q=2, M=1, N=1)


def test_generate_refuses_a_field_too_large_for_any_table():
    # refused before the primality test, which would not finish on 2^61 - 1
    with pytest.raises(ChannelSpecError, match="q must be at most"):
        cm.generate("iid_uniform", q=2 ** 61 - 1, M=1, N=1)


def test_spec_validation():
    with pytest.raises(ChannelSpecError, match="positive"):
        ChannelSpec(F2, 0, 1, 1, {(1,): Fraction(1)})
    with pytest.raises(ChannelSpecError, match="empty"):
        ChannelSpec(F2, 1, 1, 1, {})


@pytest.mark.parametrize("key", [
    (1, 0, 1),                       # 3 entries for a 2x2 matrix
    (1, 0, 0, 1, 0),                 # 5 entries
    (1, 0, 2, 1),                    # 2 is not in F_2
    (1, 0, -1, 1),
    matrix(F2, [[1, 0], [0, 1]]),    # a matrix, not its entry tuple
    (0.5, 1, 0, 1),                  # a float entry
    (1.0, 0, 0, 1),                  # a float equal to an element
    (True, False, False, True),      # bools compare as 0 and 1
    ("1", 0, 0, 1),
])
def test_spec_refuses_malformed_support_keys(key):
    with pytest.raises(ChannelSpecError, match="support key"):
        ChannelSpec(F2, 1, 2, 2, {key: Fraction(1)})


@pytest.mark.parametrize("bad", [(1,) * 15, (2,) + (0,) * 15,
                                 (True,) + (0,) * 15, (0.0,) * 16])
def test_spec_names_the_first_bad_key_deep_in_a_large_support(bad):
    keys = list(_LARGE_SPEC.pmf_H)
    keys[_DEEP], keys[_DEEP + 5000] = bad, "a later bad key"
    with pytest.raises(ChannelSpecError) as exc:
        ChannelSpec(F2, 1, 4, 4, dict(zip(keys, _LARGE_SPEC.pmf_H.values())))
    assert str(exc.value) == (f"support key {bad!r} is not a tuple of 16 int "
                              f"entries in [0, 2)")


@pytest.mark.parametrize("T, M, N", [(True, 1, 1), (2.0, 1, 1), (1.5, 1, 1),
                                     (1, 1.0, 1), (1, 1, True), (1, "2", 1)])
def test_spec_refuses_shapes_that_are_not_ints(T, M, N):
    # the loader refuses them, so a spec that held one would write a file
    # its own loader refuses
    with pytest.raises(ChannelSpecError, match="^T, M, N must be ints, got "):
        ChannelSpec(F2, T, M, N, {(1,): Fraction(1)})


def test_spec_refuses_a_field_order_that_is_not_an_int():
    with pytest.raises(ChannelSpecError,
                       match=r"^q must be an int, got 2\.0$"):
        ChannelSpec(FieldSpec(2.0), 1, 1, 1, {(1,): Fraction(1)})


def test_generate_refuses_a_shape_that_is_not_an_int():
    with pytest.raises(ChannelSpecError, match="^T, M, N must be ints, got "):
        cm.generate("iid_uniform", q=2, T=2.5, M=1, N=1)


@pytest.mark.parametrize("mass", [1.0, 0.5, True, "1"])
def test_spec_refuses_masses_that_are_not_fractions_or_ints(mass):
    with pytest.raises(ChannelSpecError) as exc:
        ChannelSpec(F2, 1, 1, 1, {(1,): mass})
    assert str(exc.value) == (f"probability mass {mass!r} is not a Fraction "
                              f"or an int")
    masses = list(_LARGE_SPEC.pmf_H.values())
    masses[_DEEP] = mass
    with pytest.raises(ChannelSpecError) as exc:
        ChannelSpec(F2, 1, 4, 4, dict(zip(_LARGE_SPEC.pmf_H, masses)))
    assert str(exc.value) == (f"probability mass {mass!r} is not a Fraction "
                              f"or an int")


def test_load_builds_no_matrix(tmp_path, monkeypatch):
    # pmf_H is keyed by entry tuples, so the loader checks each H
    # without constructing a MatrixGF
    spec = cm.generate("uniform_given_rank", q=2, T=1, M=3, N=3,
                       rank_pmf={1: Fraction(1, 2), 3: Fraction(1, 2)})
    save_channel(spec, tmp_path / "ugr.json")
    original = MatrixGF.__post_init__
    calls = []

    def counted(m):
        calls.append(m)
        original(m)

    monkeypatch.setattr(MatrixGF, "__post_init__", counted)
    again = load_channel(tmp_path / "ugr.json")
    assert len(again.pmf_H) == 217
    assert again.pmf_H == spec.pmf_H
    assert calls == []
    support_matrix(again, next(iter(again.pmf_H)))   # the count is live
    assert len(calls) == 1


# the shapes of the large_support benchmark workload
_LARGE_SHAPES = [
    ("uniform_given_rank", dict(q=2, T=1, M=4, N=4,
                                rank_pmf={2: Fraction(1, 2),
                                          4: Fraction(1, 2)})),
    ("iid_uniform", dict(q=3, T=1, M=3, N=3)),
    ("uniform_given_rank", dict(q=3, T=1, M=3, N=3,
                                rank_pmf={1: Fraction(1, 2),
                                          3: Fraction(1, 2)})),
]


def _assert_same_index(got, want):
    """Two support indexes agree field by field, each state by its basis."""
    assert (got.weights, got.denom, got.b, got.low, got.packed) == \
        (want.weights, want.denom, want.b, want.low, want.packed)
    assert [got.spaces.bases[s] for s in got.states] == \
        [want.spaces.bases[s] for s in want.states]


def test_load_builds_the_index_the_constructor_builds(tmp_path):
    # the loader builds pmf_H and the index from the rows of the file; the
    # public constructor checks the keys and indexes their row slices
    rng = random.Random(31)
    specs = [cm.random_channel(rng, rng.choice((2, 3, 5, 211)),
                               rng.randint(1, 3), rng.randint(1, 4),
                               rng.randint(1, 4), max_support=20)
             for _ in range(100)]
    specs += [cm.generate(kind, **params) for kind, params in _LARGE_SHAPES]
    for spec in specs:
        save_channel(spec, tmp_path / "chan.json")
        loaded = load_channel(tmp_path / "chan.json")
        # the file lists the items in sorted-H order
        built = ChannelSpec(spec.field, spec.T, spec.M, spec.N,
                            dict(sorted(spec.pmf_H.items())))
        assert list(loaded.pmf_H.items()) == list(built.pmf_H.items())
        _assert_same_index(loaded.index, built.index)


@pytest.mark.parametrize("row", [(1, 0), {0, 1}, range(2)])
def test_loader_refuses_rows_that_are_not_lists(row):
    # the row memo would take any row with int entries; a document gives
    # each row of H as a list
    with pytest.raises(ChannelSpecError) as exc:
        cm.spec_from_dict(_doc((_A, "1/2"), ([[0, 1], row], "1/2")))
    assert str(exc.value) == f"pmf[1]: {_SHAPE}"


def test_load_packs_each_distinct_row_once(tmp_path, monkeypatch):
    # the row memo checks and packs each distinct row of the file once,
    # and the constructor's whole-support key check does not run
    save_channel(_LARGE_SPEC, tmp_path / "ugr.json")
    packed, checked = Counter(), []
    original = subspace_enum._Codes.__missing__

    def counted(codes, row):
        packed[row] += 1
        return original(codes, row)

    monkeypatch.setattr(subspace_enum._Codes, "__missing__", counted)
    monkeypatch.setattr(cm, "_keys_in_range",
                        lambda *args: checked.append(args))
    loaded = load_channel(tmp_path / "ugr.json")
    assert "index" in vars(loaded)      # built by the load
    rows = {h[k:k + 4] for h in _LARGE_SPEC.pmf_H for k in range(0, 16, 4)}
    assert packed == Counter(dict.fromkeys(rows, 1))
    assert checked == []


def test_load_holds_no_tuple_per_row(tmp_path):
    # at its peak a load holds the decoded document, and what decoding
    # held besides, plus the spec it builds and little else: a list of
    # the 110,040 row tuples of ugr(2;1,4,4) would add about 11 MB
    path = tmp_path / "ugr.json"
    save_channel(_LARGE_SPEC, path)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        decoding = tracemalloc.get_traced_memory()[1] - base
        del doc
        tracemalloc.reset_peak()
        spec = load_channel(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(spec.index.states) == len(_LARGE_SPEC.pmf_H)
    assert peak - base <= decoding + (kept - base), (decoding, kept - base,
                                                      peak - base)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_generated_supports_pass_the_constructor_checks(q, monkeypatch):
    # generate builds its keys, so it skips the constructor's whole-support
    # checks; the public constructor accepts every generated support and
    # indexes it as the generated spec does
    checked = []
    original = cm._keys_in_range
    monkeypatch.setattr(cm, "_keys_in_range",
                        lambda *args: checked.append(args) or original(*args))
    seen = 0
    for M, N in product(range(1, 4), repeat=2):
        r = min(M, N)
        rank_pmfs = [{s: Fraction(1, r + 1) for s in range(r + 1)},
                     {r: Fraction(1)}, {0: Fraction(1, 3), 1: Fraction(2, 3)}]
        families = [("iid_uniform", {})] + [("full_rank_uniform", {})] * (
            M == N) + [(kind, {"rank_pmf": p}) for p in rank_pmfs
                       for kind in ("uniform_given_rank", "custom_rank_dist")]
        for kind, params in families:
            try:
                spec = cm.generate(kind, q=q, T=2, M=M, N=N, **params)
            except BudgetExceeded:
                continue
            assert checked == []
            again = ChannelSpec(spec.field, spec.T, spec.M, spec.N,
                                dict(spec.pmf_H))
            assert checked
            checked.clear()
            assert again.index == spec.index
            seen += 1
    assert seen >= 55, seen


def test_random_channel_is_deterministic():
    a = cm.random_channel(random.Random(9), 2, 1, 2, 2)
    b = cm.random_channel(random.Random(9), 2, 1, 2, 2)
    assert a.pmf_H == b.pmf_H


# ---------------------------------------------------------------------------
# one class table per dimension on GL(M)-invariant channels

@functools.cache
def _row_space_orbits(q, M, N):
    """The GL(M, q)-orbits of the M x N matrices, the zero matrix's
    first: two matrices share an orbit iff they share a row space."""
    field = FieldSpec(q)
    hs = [h.entries for h in all_matrices(field, M, N)]
    groups = {}
    for w, h in zip(subspace_enum.RowSpaces(field, N).states(hs, M), hs):
        groups.setdefault(w, []).append(h)
    return list(groups.values())


def _orbit_weights(rng, q, M, N):
    """A random union of full row-space orbits of the M x N matrices,
    each orbit's matrices sharing one random weight: ({H: weight}, a
    nonzero H)."""
    zero, *orbits = _row_space_orbits(q, M, N)
    chosen = rng.sample(orbits, rng.randint(1, min(3, len(orbits))))
    if rng.random() < 0.5:
        chosen.append(zero)
    weights = {h: w for orbit in chosen
               for w in [rng.randint(1, 9)] for h in orbit}
    return weights, rng.choice(chosen[0])


def _orbit_channel(rng):
    """A random orbit union (``_orbit_weights``) of a random shape:
    (q, T, M, N, {H: weight}, a nonzero H)."""
    q, M = rng.choice((2, 3)), rng.choice((2, 3))
    N, T = rng.randint(1, 5 - q), rng.randint(1, 3)
    return (q, T, M, N) + _orbit_weights(rng, q, M, N)


def _weighted(q, T, M, N, weights):
    total = sum(weights.values())
    return ChannelSpec(FieldSpec(q), T, M, N,
                       {h: Fraction(w, total)
                        for h, w in sorted(weights.items())})


def _indexed_classes(monkeypatch):
    """The classes transition_core indexes, as it indexes them."""
    calls = []
    original = cm.index_fibers

    def counted(spaces, u, table):
        calls.append(u)
        return original(spaces, u, table)

    monkeypatch.setattr(cm, "index_fibers", counted)
    return calls


def test_orbit_unions_share_tables_and_perturbed_ones_do_not(monkeypatch):
    # a union of full orbits is GL(M)-invariant, so one class per
    # dimension is indexed; one more unit of weight on one matrix breaks
    # the invariance, and every class is built and indexed
    indexed = _indexed_classes(monkeypatch)
    rng = random.Random(2828)
    for _ in range(300):
        q, T, M, N, weights, h = _orbit_channel(rng)
        invariant = _weighted(q, T, M, N, weights)
        perturbed = _weighted(q, T, M, N, {**weights, h: weights[h] + 1})
        for spec, shared in ((invariant, True), (perturbed, False)):
            indexed.clear()
            core = transition_core(spec)
            assert len(indexed) == (min(T, M) + 1 if shared
                                    else len(core.tables)), spec
            assert_core_matches_reference(core, shared)


def test_core_shares_tables_iff_the_law_is_gl_invariant(monkeypatch):
    # the core reads GL(M)-invariance from the row-space fibers of the
    # support; the reference forms g @ H for every g in GL(M, q).  With
    # M = 1 each dimension has one class, so sharing shows only for M > 1
    indexed = _indexed_classes(monkeypatch)
    rng = random.Random(3030)
    seen = Counter()
    for _ in range(300):
        q, M = rng.choice((2, 3)), rng.randint(1, 3)
        N, T = rng.randint(1, 5 - q), rng.randint(1, 3)
        kind = rng.choice(("orbits", "perturbed", "random"))
        if kind == "random":
            spec = cm.random_channel(rng, q, T, M, N)
        else:
            weights, h = _orbit_weights(rng, q, M, N)
            weights[h] += kind == "perturbed"
            spec = _weighted(q, T, M, N, weights)
        invariant = gl_invariant_reference(spec)
        indexed.clear()
        transition_core(spec)
        if M > 1:
            assert (len(indexed) == min(T, M) + 1) == invariant, spec
            seen[kind, invariant] += 1
        assert cls.is_uniform_given_rank(spec) == \
            is_uniform_given_rank_reference(spec)
    assert min(seen[k] for k in (("orbits", True), ("perturbed", False),
                                 ("random", False))) > 20, seen


def _det3(h):
    a, b, c, d, e, f, g, i, j = h
    return a * (e * j - f * i) - b * (d * j - f * g) + c * (d * i - e * g)


def _only_shift_fails():
    # q = 2, M = 2, N = 1: row 0 += row 1 swaps (0,1) and (1,1) and fixes
    # (1,0), but the row swap takes (0,1) to (1,0)
    return ChannelSpec(F2, 1, 2, 1, {(0, 1): Fraction(1, 4),
                                     (1, 0): Fraction(1, 2),
                                     (1, 1): Fraction(1, 4)})


def _only_transvection_fails():
    # q = 2, M = N = 2: closed under the row swap, but rows {e1, e2} and
    # {e1 + e2, e2} have different masses
    return ChannelSpec(F2, 1, 2, 2, {(1, 0, 0, 1): Fraction(1, 3),
                                     (0, 1, 1, 0): Fraction(1, 3),
                                     (1, 1, 0, 1): Fraction(1, 6),
                                     (0, 1, 1, 1): Fraction(1, 6)})


def _only_scaling_fails():
    # q = 3, M = N = 3: invertible H with mass set by det H, which the
    # cyclic shift (an even permutation) and the transvection keep and
    # diag(2, 1, 1) doubles
    units = cm.generate("full_rank_uniform", q=3, M=3).pmf_H
    return ChannelSpec(FieldSpec(3), 1, 3, 3, {
        h: Fraction(_det3(h) % 3, 3 * len(units) // 2) for h in units})


@pytest.mark.parametrize("build, keeps", [
    (_only_shift_fails, (False, True, True)),
    (_only_transvection_fails, (True, False, True)),
    (_only_scaling_fails, (True, True, False)),
], ids=["shift", "transvection", "scaling"])
def test_each_generator_is_needed_to_decide_invariance(monkeypatch, build,
                                                       keeps):
    # each channel is invariant under two of three generators of
    # GL(M, q) but not under the third, so it is not invariant, and a test
    # that checked only those two would share tables it must not
    spec = build()
    q, M = spec.field.q, spec.M
    w = 2 if q == 3 else 1      # a generator of F_q^*; 1 at q = 2
    shift = [[int(j == (i + 1) % M) for j in range(M)] for i in range(M)]
    transvection = [[int(i == j or (i, j) == (0, 1)) for j in range(M)]
                    for i in range(M)]
    scaling = [[(w if i == 0 else 1) * (i == j) for j in range(M)]
               for i in range(M)]
    for g, kept in zip((shift, transvection, scaling), keeps):
        g = matrix(spec.field, g)
        assert kept == all(
            spec.pmf_H.get(mat_mul(g, support_matrix(spec, h)).entries) == p
            for h, p in spec.pmf_H.items())
    indexed = _indexed_classes(monkeypatch)
    core = transition_core(spec)
    assert indexed == list(core.tables)
    if len(spec.pmf_H) < 100:
        assert_core_matches_reference(core, invariant=False)


@pytest.mark.parametrize("spec, dims", [
    (_LARGE_SPEC, 2),
    (cm.generate("iid_uniform", q=2, T=2, M=3, N=3), 3),
    (cm.generate("custom_rank_dist", q=2, T=2, M=3, N=3,
                 rank_pmf={1: Fraction(1, 2), 3: Fraction(1, 2)}), None),
], ids=["ugr(2;1,4,4)", "iid(2;2,3,3)", "crd(2;2,3,3)"])
def test_core_indexes_one_class_per_dimension_when_invariant(monkeypatch,
                                                             spec, dims):
    # the support index reduces each distinct (state, row) step of the
    # support once, and the invariance test reads its states and reduces
    # none: with the indexing pass stubbed out, the core reduces no row
    spec = dataclasses.replace(spec)    # a copy with no index built
    steps = row_steps(spec.field, spec.N, spec.pmf_H, spec.M)
    reductions = []
    original = gf_core._reduce
    monkeypatch.setattr(gf_core, "_reduce",
                        lambda *args: reductions.append(args)
                        or original(*args))
    assert len(spec.index.states) == len(spec.pmf_H)
    assert len(reductions) == len(steps)
    reductions.clear()
    indexed = []
    monkeypatch.setattr(cm, "index_fibers",
                        lambda spaces, u, table: indexed.append(u) or {})
    core = transition_core(spec)
    assert reductions == []
    if dims:    # the first class of each dimension, in canonical order
        assert [u.dim for u in indexed] == list(range(dims))
    else:
        assert indexed == list(core.tables)

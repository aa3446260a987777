import random
from itertools import product

import pytest

from loccap import gf_core, qcomb, subspace_enum
from loccap.gf_core import FieldSpec, MatrixGF, matrix, rank
from loccap.subspace_enum import (RowSpaces, contains,
                                  enumerate_grassmannian,
                                  enumerate_projective,
                                  matrices_with_column_space, span_columns,
                                  span_rows, trivial_subspace)

F2 = FieldSpec(2)
F3 = FieldSpec(3)


@pytest.mark.parametrize("q", [2, 3])
def test_grassmannian_counts(q):
    field = FieldSpec(q)
    for t in range(5):
        for r in range(t + 1):
            subs = list(enumerate_grassmannian(r, t, field))
            assert len(subs) == qcomb.gaussian_binomial(t, r, q)
            assert len(set(subs)) == len(subs)
            for u in subs:
                assert u.dim == r and u.ambient_dim == t


def test_span_rows_is_canonical():
    # every matrix with the same row space maps to the same object
    seen = {}
    for ent in product(range(2), repeat=4):
        a = MatrixGF(F2, 2, 2, ent)
        u = span_rows(a)
        key = frozenset(_row_span_vectors(a))
        if key in seen:
            assert seen[key] == u
        else:
            seen[key] = u
    assert len(seen) == sum(qcomb.gaussian_binomial(2, r, 2)
                            for r in range(3))


def _low_rank_batch(rng, field, m, n):
    """Random m x n matrices C @ R over a few row spaces R, so that row
    spaces and row prefixes repeat, plus zero and repeated rows."""
    q = field.q

    def mat(rows, cols):
        return MatrixGF(field, rows, cols, tuple(
            rng.randrange(q) for _ in range(rows * cols)))

    pool = [mat(rng.randint(0, min(m, n)), n) for _ in range(3)]
    out = []
    for _ in range(rng.randint(4, 12)):
        r = rng.choice(pool)
        a = gf_core.mat_mul(mat(m, r.rows), r) if r.rows else \
            gf_core.zeros(field, m, n)
        if rng.random() < 0.3:
            rows = list(a.to_lists())
            rows[rng.randrange(m)] = rows[0]
            a = matrix(field, rows)
        out.append(a.entries)
    return out


def test_row_spaces_match_span_rows_and_rank():
    # one state per row space: a state's Subspace is span_rows of every
    # matrix that reaches it, and its dimension is gf_core.rank, with the
    # batch read in sorted and in shuffled order
    rng = random.Random(18)
    seen = 0
    for q in (2, 3, 5, 7, 211):
        field = FieldSpec(q)
        for _ in range(40):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            keys = _low_rank_batch(rng, field, m, n)
            shuffled = rng.sample(keys, len(keys))
            for batch in (sorted(keys), shuffled):
                spaces = RowSpaces(field, n)
                states = spaces.states(batch, m)
                want = [span_rows(MatrixGF(field, m, n, h)) for h in batch]
                assert [spaces.space(s) for s in states] == want
                assert len(set(states)) == len(set(want))
                assert [len(spaces.bases[s]) for s in states] == \
                    [rank(MatrixGF(field, m, n, h)) for h in batch]
            seen += len(keys)
    assert seen >= 1000, seen


def _row_span_vectors(a):
    vecs = {(0,) * a.cols}
    for coeffs in product(range(a.field.q), repeat=a.rows):
        v = [0] * a.cols
        for c, r in zip(coeffs, range(a.rows)):
            for j in range(a.cols):
                v[j] = (v[j] + c * a[r, j]) % a.field.q
        vecs.add(tuple(v))
    return vecs


def test_contains_against_vector_membership():
    subs = list(enumerate_projective(3, 3, F2))
    for u in subs:
        for v in subs:
            want = _row_span_vectors(_pad(v)).issubset(
                _row_span_vectors(_pad(u)))
            assert contains(u, v) == want


def _pad(u):
    if u.dim == 0:
        return gf_core.zeros(u.field, 1, u.ambient_dim)
    return u.basis


def test_projective_enumeration_caps_dimension():
    subs = list(enumerate_projective(1, 3, F2))
    assert all(u.dim <= 1 for u in subs)
    assert len(subs) == 1 + qcomb.gaussian_binomial(3, 1, 2)


def test_trivial_and_full():
    t = trivial_subspace(F3, 4)
    f = span_rows(gf_core.identity(F3, 4))
    assert t.dim == 0 and f.dim == 4
    assert contains(f, t)
    assert not contains(t, f)


@pytest.mark.parametrize("t,m", [(2, 2), (3, 2), (2, 3)])
def test_matrices_with_column_space_partition(t, m):
    # the fibers over all column spaces partition the full matrix space
    total = 0
    seen = set()
    for u in enumerate_projective(min(t, m), t, F2):
        mats = list(matrices_with_column_space(u, m))
        assert len(mats) == (qcomb.xi(m, u.dim, 2) if u.dim else 1)
        for a in mats:
            assert span_columns(a) == u
            assert a.entries not in seen
            seen.add(a.entries)
        total += len(mats)
    assert total == 2 ** (t * m)


def test_sort_key_orders_by_dimension_first():
    subs = sorted(enumerate_projective(2, 2, F2), key=lambda s: s.sort_key())
    assert [u.dim for u in subs] == [0, 1, 1, 1, 2]


def test_grassmannian_budget(monkeypatch):
    monkeypatch.setattr(gf_core, "ENUM_BUDGET", 10)
    with pytest.raises(gf_core.BudgetExceeded):
        list(enumerate_grassmannian(4, 8, F3))

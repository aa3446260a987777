import pickle
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from loccap import gf_core
from loccap.gf_core import (FieldSpec, MatrixGF, NotFullColumnRank,
                            NotInSpan, identity, mat_mul, matrix, rank,
                            rref, solve_factor, transpose, zeros)
from loccap import qcomb

F2 = FieldSpec(2)
F3 = FieldSpec(3)


def test_field_rejects_composite_order():
    with pytest.raises(gf_core.GFError):
        FieldSpec(4)
    with pytest.raises(gf_core.GFError):
        FieldSpec(1)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_inverse(q):
    f = FieldSpec(q)
    for a in range(1, q):
        assert (a * f.inverses[a]) % q == 1


def _random_matrix(rng, field, rows, cols):
    return MatrixGF(field, rows, cols,
                    tuple(rng.randrange(field.q)
                          for _ in range(rows * cols)))


def test_mat_mul_against_schoolbook():
    rng = random.Random(7)
    for _ in range(50):
        field = rng.choice([F2, F3])
        m, k, n = (rng.randint(1, 4) for _ in range(3))
        a = _random_matrix(rng, field, m, k)
        b = _random_matrix(rng, field, k, n)
        c = mat_mul(a, b)
        for i in range(m):
            for j in range(n):
                want = sum(a[i, t] * b[t, j] for t in range(k)) % field.q
                assert c[i, j] == want


def test_rref_is_reduced_and_rank_correct():
    rng = random.Random(11)
    for _ in range(60):
        field = rng.choice([F2, F3])
        a = _random_matrix(rng, field, rng.randint(1, 3), rng.randint(1, 3))
        red, rk, piv = rref(a)
        assert rk == len(piv)
        # pivot columns are standard basis vectors
        for i, col in enumerate(piv):
            for r in range(a.rows):
                assert red[r, col] == (1 if r == i else 0)
        # trailing rows are zero
        for r in range(rk, a.rows):
            assert all(v == 0 for v in red.row(r))


def _rref_reference(a):
    """The elimination rref used before the lean kernel: a pow inverse
    per pivot and a scan of every column."""
    q = a.field.q
    rows = [list(a.row(r)) for r in range(a.rows)]
    pivot_cols = []
    pr = 0
    for col in range(a.cols):
        if pr >= a.rows:
            break
        sel = next((r for r in range(pr, a.rows) if rows[r][col]), None)
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        inv = pow(rows[pr][col], q - 2, q)
        rows[pr] = [(x * inv) % q for x in rows[pr]]
        for r in range(a.rows):
            if r != pr and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % q for x, y in zip(rows[r], rows[pr])]
        pivot_cols.append(col)
        pr += 1
    ent = tuple(e for row in rows for e in row)
    return MatrixGF(a.field, a.rows, a.cols, ent), pr, pivot_cols


@pytest.mark.parametrize("q, rows, cols", [(2, 2, 3), (2, 3, 3),
                                           (3, 2, 3), (3, 3, 3)])
def test_rref_matches_reference_exhaustively(q, rows, cols):
    field = FieldSpec(q)
    for a in gf_core.all_matrices(field, rows, cols):
        assert rref(a) == _rref_reference(a), a


def test_rref_matches_reference_on_random_matrices():
    rng = random.Random(13)
    for _ in range(2000):
        field = FieldSpec(rng.choice([2, 3, 5, 7]))
        a = _random_matrix(rng, field, rng.randint(0, 4), rng.randint(0, 6))
        assert rref(a) == _rref_reference(a), a


def test_rank_matches_span_enumeration():
    # brute-force rank: size of the row span as a set of vectors
    for ent in product(range(2), repeat=4):
        a = MatrixGF(F2, 2, 2, ent)
        span = {(0, 0)}
        frontier = [a.row(0), a.row(1)]
        changed = True
        while changed:
            changed = False
            for v in list(span):
                for w in frontier:
                    s = tuple((x + y) % 2 for x, y in zip(v, w))
                    if s not in span:
                        span.add(s)
                        changed = True
        assert 2 ** rank(a) == len(span)


def test_solve_factor_roundtrip(monkeypatch):
    # the 4x4 divisors over F_3 number 80*78*72*54, above the default
    monkeypatch.setattr(gf_core, "ENUM_BUDGET", 10 ** 8)
    rng = random.Random(3)
    for _ in range(60):
        field = rng.choice([F2, F3])
        t = rng.randint(1, 4)
        r = rng.randint(1, t)
        b = next(gf_core.enumerate_full_rank(t, r, field))
        c = _random_matrix(rng, field, r, rng.randint(1, 3))
        a = mat_mul(b, c)
        assert solve_factor(a, b) == c


def test_solve_factor_rejects_rank_deficient_divisor():
    b = matrix(F2, [[1, 1], [1, 1]])
    a = matrix(F2, [[1, 0], [1, 0]])
    with pytest.raises(NotFullColumnRank):
        solve_factor(a, b)


def test_solve_factor_rejects_target_outside_span():
    b = matrix(F2, [[1], [0]])
    a = matrix(F2, [[0], [1]])
    with pytest.raises(NotInSpan):
        solve_factor(a, b)


@pytest.mark.parametrize("t,r,q", [(2, 1, 2), (2, 2, 2), (3, 2, 2),
                                   (2, 2, 3), (3, 1, 3)])
def test_enumerate_full_rank_count(t, r, q):
    field = FieldSpec(q)
    mats = list(gf_core.enumerate_full_rank(t, r, field))
    assert len(mats) == qcomb.xi(t, r, q)
    # the full-rank matrices of the q^(t*r) cube, in column-sequence order
    cube = [tuple(e for row in zip(*cols) for e in row)
            for cols in product(product(range(q), repeat=t), repeat=r)]
    assert [m.entries for m in mats] == [
        ent for ent in cube if rank(MatrixGF(field, t, r, ent)) == r]


@pytest.mark.parametrize("q, t, r", [
    (2, 1, 0), (2, 3, 0), (2, 2, 1), (2, 3, 2), (2, 3, 3), (2, 4, 4),
    (3, 2, 0), (3, 3, 1), (3, 2, 2), (3, 3, 3),
    (5, 1, 0), (5, 1, 1), (5, 3, 1), (5, 2, 2)])
def test_full_rank_columns_are_the_columns_of_enumerate_full_rank(q, t, r):
    field = FieldSpec(q)
    cols = list(gf_core.full_rank_columns(t, r, field))
    mats = list(gf_core.enumerate_full_rank(t, r, field))
    assert len(cols) == len(mats) == qcomb.xi(t, r, q)
    assert all((m.rows, m.cols) == (t, r) for m in mats)
    # entry for entry, in order: the columns read off each matrix
    assert cols == [tuple(tuple(m[i, j] for i in range(t)) for j in range(r))
                    for m in mats]
    if q ** (t * r) <= 2 ** 12:
        # the full-rank column sequences of the cube, in order
        assert cols == [c for c in product(product(range(q), repeat=t),
                                           repeat=r)
                        if rank(MatrixGF(field, t, r, tuple(
                            e for row in zip(*c) for e in row))) == r]
    if r == 0:
        assert cols == [()] and mats[0].entries == ()


def test_all_matrices_budget(monkeypatch):
    monkeypatch.setattr(gf_core, "ENUM_BUDGET", 100)
    with pytest.raises(gf_core.BudgetExceeded):
        list(gf_core.all_matrices(F2, 3, 3))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.integers(0, 2 ** 16 - 1))
def test_rank_of_product_bounded(seed_a, seed_b):
    ent_a = tuple((seed_a >> i) & 1 for i in range(4))
    ent_b = tuple((seed_b >> i) & 1 for i in range(4))
    a = MatrixGF(F2, 2, 2, ent_a)
    b = MatrixGF(F2, 2, 2, ent_b)
    assert rank(mat_mul(a, b)) <= min(rank(a), rank(b))


def test_transpose_involution_and_identity():
    rng = random.Random(5)
    a = _random_matrix(rng, F3, 3, 2)
    assert transpose(transpose(a)) == a
    assert mat_mul(identity(F3, 3), a) == a
    assert mat_mul(a, zeros(F3, 2, 2)) == zeros(F3, 3, 2)


@pytest.mark.parametrize("q", [9, 15, 25, 1048575])
def test_field_rejects_odd_composite_order(q):
    # each has an odd factor, which only the trial division finds
    with pytest.raises(gf_core.GFError, match=f"must be prime, got {q}$"):
        FieldSpec(q)


@pytest.mark.parametrize("rows, cols, entries, err", [
    (-1, 0, (), "negative dimension"),
    (1, -1, (), "negative dimension"),
    (2, 2, (0, 1, 1), "entry count does not match dimensions"),
    (1, 2, (0, 3), r"entry out of range \[0, q\)"),
    (1, 2, (-1, 0), r"entry out of range \[0, q\)"),
])
def test_matrix_refuses_a_bad_shape_or_entry(rows, cols, entries, err):
    with pytest.raises(gf_core.GFError, match=err):
        MatrixGF(F3, rows, cols, entries)


def test_products_refuse_mixed_fields_and_shapes():
    a2, a3 = identity(F2, 2), identity(F3, 2)
    tall = zeros(F2, 3, 2)
    with pytest.raises(gf_core.FieldMismatch):
        mat_mul(a2, a3)
    with pytest.raises(gf_core.DimensionMismatch, match="3x2 times 3x2"):
        mat_mul(tall, tall)
    with pytest.raises(gf_core.FieldMismatch):
        solve_factor(a2, a3)
    with pytest.raises(gf_core.DimensionMismatch):
        solve_factor(tall, a2)


def test_field_and_matrix_pickle_with_their_inverses():
    f = FieldSpec(7)
    a = matrix(f, [[3, 1], [0, 5]])
    rank(a)     # fills the field's inverse memo
    g = pickle.loads(pickle.dumps(f))
    assert g == f and dict(g.inverses) == dict(f.inverses)
    assert all(x * g.inverses[x] % 7 == 1 for x in range(1, 7))
    assert pickle.loads(pickle.dumps(a)) == a

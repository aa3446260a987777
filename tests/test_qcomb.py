import math
import random
from fractions import Fraction

import pytest

from loccap import qcomb


@pytest.mark.parametrize("q", [2, 3, 5])
def test_rank_counts_partition_the_matrix_space(q):
    for m in range(5):
        for n in range(5):
            total = sum(qcomb.xi2(m, n, r, q) for r in range(min(m, n) + 1))
            assert total == q ** (m * n)


def test_xi_base_cases():
    assert qcomb.xi(3, 0, 2) == 1
    assert qcomb.xi(2, 3, 2) == 0
    assert qcomb.xi(2, 2, 2) == (4 - 1) * (4 - 2)


def test_gaussian_binomial_symmetry():
    for q in (2, 3):
        for m in range(6):
            for r in range(m + 1):
                assert (qcomb.gaussian_binomial(m, r, q)
                        == qcomb.gaussian_binomial(m, m - r, q))


def test_gaussian_binomial_known_values():
    assert qcomb.gaussian_binomial(2, 1, 2) == 3
    assert qcomb.gaussian_binomial(4, 2, 2) == 35
    assert qcomb.gaussian_binomial(3, 1, 3) == 13


def test_superspace_count_extremes():
    for q in (2, 3):
        for t in range(5):
            for r in range(t + 1):
                # every subspace contains the zero space
                assert (qcomb.count_superspaces(t, 0, r, q)
                        == qcomb.gaussian_binomial(t, r, q))
                assert qcomb.count_superspaces(t, r, r, q) == 1
    with pytest.raises(ValueError):
        qcomb.count_superspaces(3, 2, 1, 2)


def test_xi_tilde_is_a_probability():
    # xi(m, r) / q^(m r), the chance that a uniform m x r matrix has
    # full column rank, which epsilon_term compares at m = T and m = M
    for q in (2, 3, 5):
        for m in range(1, 5):
            for r in range(m + 1):
                assert 0 < qcomb.xi(m, r, q) <= q ** (m * r)


def test_epsilon_term_range_random_pmfs():
    rng = random.Random(42)
    for _ in range(100):
        q = rng.choice([2, 3, 5])
        M = rng.randint(1, 3)
        T = M + rng.randint(0, 8)
        weights = [rng.randint(0, 5) for _ in range(M + 1)]
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        pmf = {r: Fraction(w, total) for r, w in enumerate(weights) if w}
        eps = qcomb.epsilon_term(pmf, T, M, q)
        assert 0.0 <= eps < 1.8


def test_epsilon_term_rejects_bad_input():
    with pytest.raises(ValueError):
        qcomb.epsilon_term({0: Fraction(1)}, 1, 2, 2)
    with pytest.raises(ValueError):
        qcomb.epsilon_term({0: Fraction(1, 2)}, 2, 2, 2)


def test_epsilon_zero_when_t_equals_m():
    pmf = {0: Fraction(1, 4), 1: Fraction(1, 2), 2: Fraction(1, 4)}
    assert math.isclose(qcomb.epsilon_term(pmf, 2, 2, 2), 0.0, abs_tol=0)

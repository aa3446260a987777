"""Exact q-combinatorial counting.

All counts are arbitrary-precision integers and all probabilities exact
fractions; nothing here touches floating point except the final
quotient and log in epsilon_term.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def xi(m: int, r: int, q: int) -> int:
    """Number of full-column-rank m x r matrices over F_q.

    (q^m - 1)(q^m - q)...(q^m - q^(r-1)); 1 when r = 0; 0 when r > m.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0:
        return 1
    if r > m:
        return 0
    out = 1
    for i in range(r):
        out *= q ** m - q ** i
    return out


@lru_cache(maxsize=None)
def gaussian_binomial(m: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of F_q^m."""
    if r < 0 or r > m:
        return 0
    num, den = xi(m, r, q), xi(r, r, q)
    assert num % den == 0
    return num // den


@lru_cache(maxsize=None)
def xi2(m: int, n: int, r: int, q: int) -> int:
    """Number of m x n matrices over F_q with rank exactly r."""
    if r < 0 or r > min(m, n):
        return 0
    num = xi(m, r, q) * xi(n, r, q)
    den = xi(r, r, q)
    assert num % den == 0
    return num // den


def count_superspaces(T: int, s: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of F_q^T containing a fixed
    s-dimensional subspace.

    Computed two ways and compared: [T-s, r-s]_q and
    [T, r]_q * xi(r, s) / xi(T, s).
    """
    if not (0 <= s <= r <= T):
        raise ValueError(f"need 0 <= s <= r <= T, got s={s}, r={r}, T={T}")
    a = gaussian_binomial(T - s, r - s, q)
    num = gaussian_binomial(T, r, q) * xi(r, s, q)
    den = xi(T, s, q)
    assert num % den == 0 and num // den == a
    return a


def epsilon_term(rank_pmf_H, T: int, M: int, q: int) -> float:
    """Correction term of the full-rank-input rate decomposition.

    sum_s p_rank(s) * log2( xi~(T,s) / xi~(M,s) ), where
    xi~(m,s) = xi(m,s) / q^(m s) is the chance that a uniform m x s
    matrix has full column rank; lies in [0, 1.8) whenever T >= M.
    The log is taken of the quotient of the integer counts
    xi(T,s) q^(M s) and xi(M,s) q^(T s), which lies in [1, 3.5), so the
    counts are never rounded to floats however large T is.
    """
    if T < M:
        raise ValueError(f"requires T >= M, got T={T}, M={M}")
    total = sum(Fraction(p) for p in rank_pmf_H.values())
    if total != 1:
        raise ValueError(f"rank PMF sums to {total}, not 1")
    out = 0.0
    for s, p in rank_pmf_H.items():
        if p == 0:
            continue
        ratio = (xi(T, s, q) * q ** (M * s)) / (xi(M, s, q) * q ** (T * s))
        out += float(p) * math.log2(ratio)
    return out

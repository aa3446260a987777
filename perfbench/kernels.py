"""Untraced microbenchmarks of the GF kernels at the shapes the workloads use.

The inputs come from a constant seed, never from ``--seed``, so every run
times the same matrices: 2x4 @ 4x4 products over F_2 (transition_core on
F_2^4) and RREF of 3x3 matrices over F_3 (rank and span computations on
F_3^3).
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

KERNEL_SEED = 20111108
INPUTS_PER_KERNEL = 64
REPEATS = 7
CALLS_PER_REPEAT = 20000


def kernel_inputs(gf_core):
    """(mat_mul argument pairs, rref arguments), the same on every call."""
    rng = random.Random(KERNEL_SEED)
    f2, f3 = gf_core.FieldSpec(2), gf_core.FieldSpec(3)

    def rand(field, rows, cols):
        return gf_core.MatrixGF(field, rows, cols, tuple(
            rng.randrange(field.q) for _ in range(rows * cols)))

    pairs = [(rand(f2, 2, 4), rand(f2, 4, 4))
             for _ in range(INPUTS_PER_KERNEL)]
    mats = [rand(f3, 3, 3) for _ in range(INPUTS_PER_KERNEL)]
    return pairs, mats


def _us_per_call(fn, args_list) -> float:
    rounds = CALLS_PER_REPEAT // len(args_list)
    samples = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        for _ in range(rounds):
            for args in args_list:
                fn(*args)
        samples.append((perf_counter() - t0) / (rounds * len(args_list)))
    return statistics.median(samples) * 1e6


def kernel_metrics(gf_core) -> dict:
    pairs, mats = kernel_inputs(gf_core)
    return {
        "gf_core.mat_mul.us_per_call": _us_per_call(gf_core.mat_mul, pairs),
        "gf_core.rref.us_per_call": _us_per_call(
            gf_core.rref, [(m,) for m in mats]),
    }

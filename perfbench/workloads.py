"""Workload definitions for the loccap benchmark.

A workload is a list of channel files.  Every file is built from the
workload name and the seed alone, so one seed always gives byte-identical
files.  The channels of ``large_support`` and ``full_scan`` do not depend
on the seed; for them the seed only sets the order in which the files are
reported.  ``random_sparse`` draws part of its channels from the seed.

Probes are channels on which ``report`` is known to fail today.  They are
written with the workload and run once after the timed passes; their
outcome is printed, and they do not count as attempted calls.
"""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0

# Families whose channels satisfy all five class predicates, so the report
# must carry every flag and the verdict C_EQUALS_CSS.
STRUCTURED = ("iid_uniform", "uniform_given_rank", "full_rank_uniform")

HALF, THIRD = Fraction(1, 2), Fraction(1, 3)

WHY = {
    "large_support": (
        "T=1 channels with 10^4-10^5 support matrices: the time goes to "
        "transition_core and the GF kernels, while the input scans and "
        "Blahut-Arimoto stay small."),
    "full_scan": (
        "structured channels on which all five predicates hold, so the "
        "q^(T*M) input scans of the degraded and unique-subspace-degradation "
        "predicates run to the end."),
    "random_sparse": (
        "small random channels on which predicates stop at their first "
        "witness and C_ss falls back to css_bruteforce, whose time goes to "
        "Blahut-Arimoto."),
}

# The layer whose share of the traced report time each workload was built
# to load; run.py prints that share next to the per-layer metrics.
PREDICTED_LAYER = {
    "large_support": ("channel_model.transition_core.s",),
    "full_scan": ("classify.degraded.s",
                  "classify.unique_subspace_degradation.s"),
    "random_sparse": ("capacity_engine.ba.s",),
}

_FIXED = {
    "large_support": [
        ("ugr_q2_T1_M4_N4", "uniform_given_rank",
         dict(q=2, T=1, M=4, N=4, rank_pmf={2: HALF, 4: HALF})),
        ("iid_q3_T1_M3_N3", "iid_uniform", dict(q=3, T=1, M=3, N=3)),
        ("ugr_q3_T1_M3_N3", "uniform_given_rank",
         dict(q=3, T=1, M=3, N=3, rank_pmf={1: HALF, 3: HALF})),
    ],
    "full_scan": [
        # The input scans hit their budget at T=16 and report exits 3.
        ("probe_tall_iid_q2_T16_M2_N2", "iid_uniform",
         dict(q=2, T=16, M=2, N=2)),
        ("ugr_q2_T3_M3_N3", "uniform_given_rank",
         dict(q=2, T=3, M=3, N=3, rank_pmf={1: THIRD, 2: THIRD, 3: THIRD})),
        ("iid_q2_T3_M3_N2", "iid_uniform", dict(q=2, T=3, M=3, N=2)),
        ("iid_q3_T2_M2_N2", "iid_uniform", dict(q=3, T=2, M=2, N=2)),
        ("fru_q3_T2_M2_N2", "full_rank_uniform", dict(q=3, T=2, M=2)),
        ("iid_q2_T2_M3_N3", "iid_uniform", dict(q=2, T=2, M=3, N=3)),
    ],
    "random_sparse": [],
}

# Draws of the fixed random_sparse stream on which report fails today:
# bounds_row_space divides by an underflowed product of achiever weights
# and the ZeroDivisionError escapes the CLI.
FAILING_DRAWS = {"rnd_fixed_q2_T2_M2_N2_008"}

# random_sparse draws a fixed count per (q, T, M, N) shape with support
# <= 6.  Shapes with M = 1 are drawn from the seed.  Two kinds are not:
# - T = M = 2, where css_bruteforce x Blahut-Arimoto cost is heavy-tailed:
#   one q=2 draw in 16 takes seconds and a q=3 draw took 101 s, so the
#   total would swing between seeds.  The q=2 draws come from a fixed
#   stream, the same for every seed; q=3 is left out.
# - T = 1, M = 2, where report raises the ZeroDivisionError of
#   FAILING_DRAWS on about 1 in 50 q=3 draws and 1 in 3000 q=2 draws, so
#   some seeds would make a run fail.
SEEDED_SHAPES = [(q, T, 1, N) for q in (2, 3) for T in (1, 2) for N in (1, 2)]
SEEDED_PER_SHAPE = 30
FIXED_SHAPES = [(2, 2, 2, 1), (2, 2, 2, 2)]
FIXED_PER_SHAPE = 16
MAX_SUPPORT = 6


@dataclass(frozen=True)
class Channel:
    name: str     # file stem
    group: str    # row label in the phase table
    family: str   # generator family, or "random"

    @property
    def probe(self) -> bool:
        return self.name.startswith("probe_") or self.name in FAILING_DRAWS


def import_loccap():
    """Import loccap from the checkout's ``src`` directory and nowhere else."""
    init = SRC / "loccap" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no loccap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import loccap
    if Path(loccap.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported loccap from {loccap.__file__}, "
                         f"not from {SRC}")
    return loccap


def _shape_label(shape) -> str:
    return "q{}_T{}_M{}_N{}".format(*shape)


def _streams(seed: int):
    """(stream name, shapes, draws per shape) of random_sparse."""
    return [("fixed", FIXED_SHAPES, FIXED_PER_SHAPE),
            (f"seed{seed}", SEEDED_SHAPES, SEEDED_PER_SHAPE)]


def channels(workload: str, seed: int):
    """Every Channel of a workload, probes included, in build order."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}")
    out = [Channel(name, name, family)
           for name, family, _ in _FIXED[workload]]
    if workload == "random_sparse":
        for stream, shapes, count in _streams(seed):
            for shape in shapes:
                label = _shape_label(shape)
                out += [Channel(f"rnd_{stream}_{label}_{i:03d}", label,
                                "random") for i in range(count)]
    return out


def build(workload: str, seed: int, cm):
    """[(Channel, ChannelSpec)] of a workload, probes included."""
    specs = [cm.generate(family, **params)
             for _, family, params in _FIXED[workload]]
    if workload == "random_sparse":
        for stream, shapes, count in _streams(seed):
            for shape in shapes:
                rng = random.Random(
                    f"random_sparse/{stream}/{_shape_label(shape)}")
                specs += [cm.random_channel(rng, *shape,
                                            max_support=MAX_SUPPORT)
                          for _ in range(count)]
    return list(zip(channels(workload, seed), specs))


def report_order(names, seed: int):
    """The order in which one pass reports the files of a workload."""
    order = sorted(names)
    random.Random(f"order/{seed}").shuffle(order)
    return order


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_inputs(workload: str, seed: int, out_dir: Path, cm):
    """Write every channel file of a workload; returns {file stem: sha256}."""
    out_dir.mkdir(parents=True, exist_ok=True)
    hashes = {}
    for ch, spec in build(workload, seed, cm):
        path = out_dir / f"{ch.name}.json"
        cm.save_channel(spec, path)
        hashes[ch.name] = sha256_file(path)
    return hashes

"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import hashlib
import random
import shutil
import unittest

import workloads as wl

wl.import_loccap()

from loccap import capacity_engine as ce, channel_model as cm  # noqa: E402
from loccap import cli, gf_core  # noqa: E402

import checks  # noqa: E402
import kernels  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402

WORK = run.WORK_DIR / "selftest"

# sha256 over the entries of every kernel microbenchmark input.
KERNEL_INPUTS_SHA256 = \
    "341b2b58d0dd00f49b448609289669321480814e654ceb15d953e23d799ced76"


def _bindings():
    """Every global of every loccap module, plus MatrixGF.__post_init__."""
    out = {(m.__name__, key): value for m in tr.loccap_modules()
           for key, value in vars(m).items()}
    out[("MatrixGF", "__post_init__")] = gf_core.MatrixGF.__post_init__
    return out


def _kernel_digest(inputs) -> str:
    pairs, mats = inputs
    h = hashlib.sha256()
    for a, b in pairs:
        h.update(repr((a.entries, b.entries)).encode())
    for m in mats:
        h.update(repr(m.entries).encode())
    return h.hexdigest()


class TracedRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        specs = [cm.generate("iid_uniform", q=2, T=2, M=2, N=2),
                 cm.generate("uniform_given_rank", q=3, T=1, M=2, N=2,
                             rank_pmf={1: 1, 2: 0})]
        rng = random.Random(7)
        specs += [cm.random_channel(rng, 2, 2, 1, 2) for _ in range(3)]
        cls.paths = []
        for i, spec in enumerate(specs):
            path = WORK / f"c{i}.json"
            cm.save_channel(spec, path)
            cls.paths.append((f"c{i}", path))

    def test_wrappers_are_removed_after_the_traced_run(self):
        before = _bindings()
        trace = tr.Tracer()
        with checks.ReportCapture(ce) as capture, trace.installed():
            self.assertNotEqual(before, _bindings())
            run.report_pass(cli, capture, self.paths, trace)
        self.assertEqual(before, _bindings())
        self.assertGreater(trace.counts["gf_core.mat_mul.calls"], 0)
        self.assertEqual(tr.calls(trace.spans, "cli.main"), len(self.paths))

    def test_traced_and_untraced_reports_are_identical(self):
        with checks.ReportCapture(ce) as capture:
            plain = run.report_pass(cli, capture, self.paths)
            with tr.Tracer().installed() as trace:
                traced = run.report_pass(cli, capture, self.paths, trace)
        self.assertEqual([c.rc for c in plain], [0] * len(self.paths))
        self.assertEqual([c.text for c in plain], [c.text for c in traced])


class InputsTest(unittest.TestCase):
    def test_kernel_inputs_are_fixed(self):
        random.seed(1)
        first = kernels.kernel_inputs(gf_core)
        random.seed(2)
        self.assertEqual(first, kernels.kernel_inputs(gf_core))
        self.assertEqual(_kernel_digest(first), KERNEL_INPUTS_SHA256)

    def test_same_seed_gives_identical_files(self):
        a = wl.write_inputs("random_sparse", 5, WORK / "a", cm)
        b = wl.write_inputs("random_sparse", 5, WORK / "b", cm)
        c = wl.write_inputs("random_sparse", 6, WORK / "c", cm)
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)


if __name__ == "__main__":
    unittest.main()

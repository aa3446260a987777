"""The loccap benchmark: wall time of ``loccap report`` per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all   # each workload in its own process

Set-up writes the workload's channel files from the seed in a fresh
process, three times, and ``setup_s`` is the median.  The timed part is a
closed loop with one caller: this process runs ``cli.main(["report",
path])`` on each file in turn, the next only after the previous returned,
and repeats whole passes over the files until ``--seconds`` have passed.
Outputs are checked after the timed passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes one more
pass with tracing wrappers installed and prints the per-layer metrics, the
tracing overhead and a per-channel phase table; spans are written to
``perfbench/_run/<workload>/trace.json``.  The last line of the output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
code is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter

import checks
import kernels
import tracer as tr
import workloads as wl

SETUP_REPEATS = 3
TAIL_BEYOND = 10      # samples a tail percentile must leave above it
WORK_DIR = wl.BENCH_DIR / "_run"
GOLDEN_PATH = wl.BENCH_DIR / "golden.json"


@dataclass
class Call:
    name: str
    rc: object          # exit code, or "<Exception>: message" if it raised
    text: str           # standard output; None when equal to the reference
    seconds: float
    captured: object    # (T, M, ClassReport) from checks.ReportCapture
    spans: tuple = (0, 0)   # slice of the tracer's spans, traced pass only


def report_pass(cli, capture, paths, tracer=None, reference=None):
    """One closed-loop pass of ``loccap report`` over [(name, path)].

    With ``reference`` ({name: Call} of the first pass), a call that exits 0
    and prints the reference's bytes keeps neither its output nor its
    ClassReport, so memory does not grow with the number of passes.
    """
    calls = []
    for name, path in paths:
        out, err = io.StringIO(), io.StringIO()
        capture.last = None
        lo = len(tracer.spans) if tracer else 0
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(["report", str(path)])
        except Exception as exc:   # a traceback escaping the CLI is a failure
            rc = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
        hi = len(tracer.spans) if tracer else 0
        call = Call(name, rc, out.getvalue(), seconds, capture.last, (lo, hi))
        if reference and rc == 0 and call.text == reference[name].text:
            call.text = call.captured = None
        calls.append(call)
    return calls


def setup(workload, seed, in_dir):
    """Run make_inputs.py SETUP_REPEATS times; (median seconds, hashes,
    problems)."""
    times, hashes, problems = [], None, []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(in_dir, ignore_errors=True)
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(wl.BENCH_DIR / "make_inputs.py"), workload,
             str(seed), str(in_dir)],
            capture_output=True, text=True, check=False)
        times.append(perf_counter() - t0)
        if proc.returncode:
            raise SystemExit(f"perfbench: set-up failed:\n{proc.stderr}")
        got = json.loads(proc.stdout)
        if hashes is not None and got != hashes:
            problems.append("set-up wrote different files on a repeat")
        hashes = got
    return statistics.median(times), hashes, problems


def load_golden(workload):
    doc = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    return doc["workloads"][workload]["files"]


def tail(samples):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples above it, or None when there are too few samples."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    return sorted(samples)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def check_calls(passes, chans, golden, hashes, in_dir, cm, ce, cls):
    """{name: [problems]} over every pass; the first pass is the reference
    and later passes must print the same bytes."""
    problems = defaultdict(list)
    first = {c.name: c for c in passes[0]}
    for name, call in first.items():
        family = chans[name].family
        naive_c = None
        if family == "random" and call.rc == 0:
            naive_c = checks.naive_capacity(in_dir / f"{name}.json", cm, ce)
        entry = golden.get(name)
        if entry is not None and entry["sha256"] != hashes[name]:
            entry = None
        problems[name] += checks.check_report(
            family, call.rc, call.text, call.captured, cls, ce.DEFAULT_TOL,
            naive_c, entry)
    for calls in passes[1:]:
        for call in calls:
            if call.text is not None:
                problems[call.name].append(
                    "output differs from the first pass")
    return {k: v for k, v in problems.items() if v}


def layer_metrics(trace, gen_trace, traced, untraced_s, n_reports, gf_core):
    spans = trace.spans
    by_name, by_tag, self_s = tr.span_seconds(spans)
    gen_s, _, _ = tr.span_seconds(gen_trace.spans)
    counts = trace.counts
    core_calls = tr.calls(spans, "channel_model.transition_core")
    traced_s = sum(c.seconds for c in traced)
    m = {key: (counts[key], "count") for key in (
        "gf_core.mat_mul.calls", "gf_core.rref.calls",
        "gf_core.solve_factor.calls", "gf_core.matrix_constructions",
        "subspace_enum.span_rows.calls", "subspace_enum.span_columns.calls",
        "subspace_enum.inputs_enumerated", "channel_model.table_entries",
        "capacity_engine.css.assignments_tried",
        "capacity_engine.ba.iterations")}
    for key, value in kernels.kernel_metrics(gf_core).items():
        m[key] = (value, "us")
    for name in ("channel_model.load_channel", "channel_model.transition_core",
                 *tr.PREDICATES, "capacity_engine.shannon_capacity",
                 "capacity_engine.css", "capacity_engine.bounds_markov",
                 "capacity_engine.ba"):
        m[f"{name}.s"] = (by_name[name], "s")
    for mode in ("unique", "bruteforce"):
        m[f"capacity_engine.css.{mode}.s"] = (
            by_tag[("capacity_engine.css", mode)], "s")
    m["channel_model.generate.s"] = (gen_s["channel_model.generate"], "s")
    m["channel_model.transition_core.calls"] = (core_calls, "count")
    m["channel_model.transition_core.calls_per_report"] = (
        core_calls / n_reports, "count")
    m["capacity_engine.ba.calls"] = (tr.calls(spans, "capacity_engine.ba"),
                                     "count")
    n_run = counts["classify.predicates_run"]
    m["classify.witnesses"] = (
        counts["classify.predicates_failed"] / n_run if n_run else 0.0,
        "ratio")
    m["cli.self_s"] = (self_s["cli.main"] + self_s["cli.cmd_report"], "s")
    m["trace.report_s"] = (traced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return m


def phase_table(trace, traced, chans):
    """Per channel group: channel count, traced report seconds and the
    baseline phase columns."""
    rows = {}
    for call in traced:
        row = rows.setdefault(chans[call.name].group, defaultdict(float))
        row["n"] += 1
        row["report"] += call.seconds
        lo, hi = call.spans
        for col, value in tr.phase_row(trace.spans[lo:hi]).items():
            row[col] += value
    return {group: dict(row) for group, row in sorted(rows.items())}


def print_phase_table(table):
    cols = ["report"] + [col for col, _ in tr.PHASES]
    print("  phase seconds per channel group (BA is part of C and C_ss; "
          "core is both builds):")
    print("  {:<28} {:>4} ".format("group", "n")
          + " ".join(f"{c:>13}" for c in cols))
    for group, row in table.items():
        print("  {:<28} {:>4} ".format(group, int(row["n"]))
              + " ".join(f"{row[c]:13.4f}" for c in cols))


def print_end_to_end(setup_s, passes, peak_rss_mb, failed, attempted):
    pass_s = [sum(c.seconds for c in p) for p in passes]
    latencies = [c.seconds for p in passes for c in p]
    metrics = {
        "setup_s": (setup_s, "s"),
        "report_s": (statistics.median(pass_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    for key, (value, unit) in metrics.items():
        print(f"  {key:<16} {value:12.4f} {unit}")
    print(f"  report_p50_ms    {statistics.median(latencies) * 1e3:12.4f} ms "
          f"(of {len(latencies)} samples)")
    t = tail(latencies)
    if t is None:
        print(f"  report_tail_ms   omitted: {len(latencies)} samples, "
              f"a tail needs more than {TAIL_BEYOND}")
    else:
        print(f"  report_tail_ms   {t[0] * 1e3:12.4f} ms (p{t[1]:.1f} "
              f"of {len(latencies)} samples)")
    print(f"  failed_share     {failed / attempted:12.4f} "
          f"({failed} of {attempted} calls)")
    return metrics


def print_layers(args, metrics, table, trace, work):
    predicted = wl.PREDICTED_LAYER[args.workload]
    share = sum(metrics[k][0] for k in predicted)
    share /= metrics["trace.report_s"][0]
    for key, (value, unit) in metrics.items():
        print(f"  {key:<48} {value:14.6g} {unit}")
    print(f"  share of traced report_s in {' + '.join(predicted)}: "
          f"{100 * share:.1f}%")
    print_phase_table(table)
    with open(work / "trace.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "span_fields": ["name", "tag", "start", "end", "parent"],
                   "spans": trace.spans, "counts": dict(trace.counts),
                   "per_layer": metrics, "phase_table": table,
                   "predicted_layer_share": share}, fh)


def run_workload(args) -> int:
    wl.import_loccap()
    from loccap import (capacity_engine as ce, channel_model as cm,
                        classify as cls, cli, gf_core)
    work = WORK_DIR / args.workload
    in_dir = work / "inputs"
    setup_s, hashes, input_problems = setup(args.workload, args.seed, in_dir)
    golden = load_golden(args.workload)
    if args.seed == wl.DEFAULT_SEED:
        for name, entry in golden.items():
            if hashes.get(name) != entry["sha256"]:
                input_problems.append(f"{name}: input differs from the "
                                      f"recorded seed-{wl.DEFAULT_SEED} file")
    chans = {c.name: c for c in wl.channels(args.workload, args.seed)}
    timed = [n for n, c in chans.items() if not c.probe]
    paths = [(n, in_dir / f"{n}.json")
             for n in wl.report_order(timed, args.seed)]
    probes = [(n, in_dir / f"{n}.json") for n, c in chans.items() if c.probe]

    with checks.ReportCapture(ce) as capture:
        t_start = perf_counter()
        passes = [report_pass(cli, capture, paths)]
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        reference = {c.name: c for c in passes[0]}
        while perf_counter() - t_start < args.seconds:
            passes.append(report_pass(cli, capture, paths,
                                      reference=reference))
        if args.trace:
            trace = tr.Tracer()
            with trace.installed():
                traced = report_pass(cli, capture, paths, trace, reference)
        probe_calls = report_pass(cli, capture, probes)
    if args.trace:
        gen_trace = tr.Tracer()
        with gen_trace.installed():
            if wl.write_inputs(args.workload, args.seed, in_dir,
                               cm) != hashes:
                input_problems.append("traced set-up wrote different files")

    checked = passes + ([traced] if args.trace else [])
    problems = check_calls(checked, chans, golden, hashes, in_dir, cm, ce,
                           cls)
    attempted = sum(len(p) for p in checked)
    failed = sum(1 for p in checked for c in p if c.name in problems)
    correct = not problems and not input_problems

    print(f"workload {args.workload}, seed {args.seed}: {len(paths)} "
          f"channels x {len(passes)} passes, closed loop, one caller, "
          f"nproc {os.cpu_count()}")
    for problem in input_problems:
        print(f"  CHECK FAILED: {problem}")
    for name, probs in sorted(problems.items()):
        print(f"  CHECK FAILED: {name}: {'; '.join(probs)}")
    for call in probe_calls:
        print(f"  probe {call.name}: exit {call.rc} (not timed, not counted)")
    if args.trace:
        untraced_s = statistics.median(
            sum(c.seconds for c in p) for p in passes)
        metrics = layer_metrics(trace, gen_trace, traced, untraced_s,
                                len(paths), gf_core)
        print_layers(args, metrics, phase_table(trace, traced, chans), trace,
                     work)
    else:
        metrics = print_end_to_end(setup_s, passes, peak_rss_mb, failed,
                                   attempted)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in a fresh process, one after another."""
    code = 0
    for workload in wl.WHY:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False)
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=[*wl.WHY, "all"])
    p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""Write golden.json, the default-seed record that run.py checks against.

    python3 perfbench/record.py --commit COMMIT

For every workload this writes the default-seed channel files, reports
each once, refuses to record if any output check fails, and stores per
file its sha256, class flags, verdict and the witness keys of the failed
predicates.  Probes are stored by sha256 only.  The record also names the
workload rationale, the Python version, nproc and the commit of the
program that produced it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform

import checks
import run
import workloads as wl


def record_workload(workload, cm, ce, cls, cli):
    in_dir = run.WORK_DIR / "record" / workload
    hashes = wl.write_inputs(workload, wl.DEFAULT_SEED, in_dir, cm)
    chans = {c.name: c for c in wl.channels(workload, wl.DEFAULT_SEED)}
    paths = [(n, in_dir / f"{n}.json") for n, c in chans.items()
             if not c.probe]
    with checks.ReportCapture(ce) as capture:
        calls = run.report_pass(cli, capture, paths)
    problems = run.check_calls([calls], chans, {}, hashes, in_dir, cm, ce,
                               cls)
    if problems:
        raise SystemExit(f"perfbench: not recording {workload}: {problems}")
    files = {name: {"sha256": digest} for name, digest in hashes.items()}
    for call in calls:
        files[call.name] = checks.golden_entry(
            hashes[call.name], json.loads(call.text), call.captured[2])
    return {"seed": wl.DEFAULT_SEED, "why": wl.WHY[workload], "files": files}


def dumps(doc) -> str:
    """golden.json text with one line per recorded file."""
    workloads = []
    for name, entry in sorted(doc["workloads"].items()):
        files = ",\n".join(
            f"    {json.dumps(f)}: {json.dumps(e, sort_keys=True)}"
            for f, e in sorted(entry["files"].items()))
        workloads.append(
            f"  {json.dumps(name)}: {{\n   \"seed\": {entry['seed']},\n"
            f"   \"why\": {json.dumps(entry['why'])},\n"
            f"   \"files\": {{\n{files}\n   }}\n  }}")
    head = "".join(f" {json.dumps(k)}: {json.dumps(doc[k])},\n"
                   for k in sorted(doc) if k != "workloads")
    text = "{\n" + head + ' "workloads": {\n' + ",\n".join(workloads) \
        + "\n }\n}\n"
    if json.loads(text) != doc:
        raise AssertionError("golden.json formatting lost data")
    return text


def main() -> int:
    p = argparse.ArgumentParser(prog="perfbench/record.py")
    p.add_argument("--commit", required=True,
                   help="git commit of the program being recorded")
    args = p.parse_args()
    wl.import_loccap()
    from loccap import capacity_engine as ce, channel_model as cm
    from loccap import classify as cls, cli
    doc = {"commit": args.commit, "python": platform.python_version(),
           "nproc": os.cpu_count(),
           "workloads": {w: record_workload(w, cm, ce, cls, cli)
                         for w in wl.WHY}}
    run.GOLDEN_PATH.write_text(dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

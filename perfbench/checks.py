"""Output checks of the benchmark, run outside the timed region.

Every report call that exits non-zero, raises, or fails one of these
checks counts as a failed call.
"""

from __future__ import annotations

import json

from tracer import rebind, restore
from workloads import STRUCTURED

NAIVE_TOL = 1e-6
VERDICT_EQUAL = "C_EQUALS_CSS"


class ReportCapture:
    """Keeps (T, M, ClassReport) of the latest ``capacity_report`` call.

    The report JSON carries the class flags but neither the witnesses nor
    the implication audit, so the benchmark wraps ``capacity_report`` for
    the whole run, traced or not: one extra Python call per report.
    """

    def __init__(self, capacity_engine):
        self._orig = capacity_engine.capacity_report
        self._patches = []
        self.last = None

    def __enter__(self):
        orig = self._orig

        def capture(spec, *args, **kwargs):
            rep = orig(spec, *args, **kwargs)
            self.last = (spec.T, spec.M, rep.classes)
            return rep
        self._patches = rebind(orig, capture)
        return self

    def __exit__(self, *exc):
        restore(self._patches)


def witness_keys(classes) -> dict:
    """{predicate: sorted witness keys} of the predicates that failed."""
    out = {}
    for name in classes.flags():
        witness = getattr(classes, name).witness
        if witness:
            out[name] = sorted(witness)
    return out


def golden_entry(sha256: str, doc: dict, classes) -> dict:
    return {"sha256": sha256, "flags": doc["flags"],
            "verdict": doc["verdict"], "witness_keys": witness_keys(classes)}


def check_report(family, rc, text, captured, classify_mod, tol,
                 naive_c=None, golden=None) -> list:
    """Problems found in one report call; an empty list means it passed.

    ``golden`` is the recorded entry when the file's sha256 matches it.
    """
    if rc != 0:
        return [f"exit {rc}"]
    doc = json.loads(text)
    problems = []
    T, M, classes = captured
    audit = classify_mod.implication_audit(classes, T, M)
    if audit:
        problems.append(f"implication audit {audit}")
    c, css = doc["C"]["value"], doc["C_ss"]["value"]
    if css > c + 10 * tol:
        problems.append(f"C_ss {css} exceeds C {c}")
    if family in STRUCTURED:
        if not all(doc["flags"].values()):
            problems.append(f"flags {doc['flags']}")
        if doc["verdict"] != VERDICT_EQUAL:
            problems.append(f"verdict {doc['verdict']}")
    if naive_c is not None and abs(c - naive_c) > NAIVE_TOL:
        problems.append(f"C {c} vs naive {naive_c}")
    if golden is not None:
        got = golden_entry(golden["sha256"], doc, classes)
        for key in ("flags", "verdict", "witness_keys"):
            if got[key] != golden[key]:
                problems.append(f"{key} {got[key]} != golden {golden[key]}")
    return problems


def naive_capacity(path, cm, ce) -> float:
    """C over the full input alphabet; the oracle for random channels."""
    core = cm.transition_core(cm.load_channel(path))
    return ce.shannon_capacity_naive(core).value

"""Command-line front-end.

Subcommands: classify, capacity, css, bounds, report, gen, verify.
Exit codes: 0 ok, 2 bad input, 3 budget exceeded, 4 optimizer did not
converge (partial results are still printed) or failed its monotonicity
check or underflowed (nothing printed), 5 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import random
import sys
from contextlib import nullcontext
from fractions import Fraction

from . import __version__, capacity_engine as ce, channel_model as cm
from . import classify as cls
from . import qcomb, subspace_enum
from .gf_core import BudgetExceeded, FieldSpec, all_matrices
from .channel_model import ChannelSpecError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_CONVERGENCE = 4
EXIT_VERIFY = 5


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _fmt(x: float) -> float:
    return float(f"{x:.12g}")


def _alpha_json(alpha) -> list:
    return [{"subspace": {"dim": u.dim, "basis": u.basis.to_lists()},
             "p": _fmt(alpha[u])}
            for u in sorted(alpha, key=lambda s: s.sort_key())]


def _cap_json(res: ce.CapacityResult, with_alpha: bool = True) -> dict:
    doc = {"value": _fmt(res.value), "gap": _fmt(res.gap),
           "iterations": res.iterations, "converged": res.converged,
           "mode": res.mode}
    if with_alpha and res.alpha is not None:
        doc["achiever"] = _alpha_json(res.alpha)
    return doc


def _css_json(res: ce.CapacityResult) -> dict:
    doc = _cap_json(res, with_alpha=False)
    doc["assignments_tried"] = res.assignments_tried
    if res.rank_pmf is not None:
        doc["rank_achiever"] = {str(r): _fmt(p)
                                for r, p in sorted(res.rank_pmf.items())}
    return doc


def _emit(doc: dict, args) -> None:
    with (open(args.output, "w", encoding="utf-8") if args.output
          else nullcontext(sys.stdout)) as fh:
        if getattr(args, "format", "json") == "csv":
            fh.write("quantity,value,mode,gap\n")
            for quantity, entry in doc.items():
                if isinstance(entry, dict) and "value" in entry:
                    fh.write("{},{},{},{}\n".format(
                        quantity, entry["value"], entry.get("mode", ""),
                        entry.get("gap", "")))
        else:
            # streamed, so the text of a document with tall witnesses is
            # never held whole
            json.dump(doc, fh, indent=2)
            fh.write("\n")


def _base_doc(args) -> dict:
    return {"tool": {"name": "loccap", "version": __version__},
            "input": {"path": args.channel, "sha256": _sha256(args.channel)}}


def _load(args):
    spec = cm.load_channel(args.channel)
    return spec, cm.transition_core(spec)


def cmd_classify(args) -> int:
    spec, core = _load(args)
    report = cls.classify(spec, core)
    doc = _base_doc(args)
    doc["flags"] = report.flags()
    doc["witnesses"] = {
        name: getattr(report, name).witness
        for name in report.flags() if getattr(report, name).witness}
    if report.mu is not None:
        doc["mu"] = report.mu
    doc["implication_violations"] = cls.implication_audit(
        report, spec.T, spec.M)
    _emit(doc, args)
    return EXIT_OK


def cmd_capacity(args) -> int:
    spec, core = _load(args)
    res = ce.shannon_capacity(core, args.tol, args.max_iter)
    doc = _base_doc(args)
    doc["C"] = _cap_json(res)
    _emit(doc, args)
    return EXIT_OK if res.converged else EXIT_CONVERGENCE


def cmd_css(args) -> int:
    spec, core = _load(args)
    res = ce.subspace_coding_capacity(core, args.mode, args.tol,
                                      args.max_iter, args.budget)
    doc = _base_doc(args)
    doc["C_ss"] = _css_json(res)
    _emit(doc, args)
    return EXIT_OK if res.converged else EXIT_CONVERGENCE


def cmd_bounds(args) -> int:
    spec, core = _load(args)
    cap, mi = ce._capacity_and_mi(core, args.tol, args.max_iter)
    lower, upper = ce.bounds_row_space(core, cap.alpha)
    doc = _base_doc(args)
    doc["C"] = _cap_json(cap, with_alpha=False)
    doc["lower"] = {"value": _fmt(lower), "mode": "row-space", "gap": ""}
    doc["upper"] = {"value": _fmt(upper), "mode": "row-space", "gap": ""}
    doc["mi_at_achiever"] = {"value": _fmt(mi), "mode": "class", "gap": ""}
    if spec.T >= spec.M:
        j, training, eps = ce.lemma_full_rank_decomposition(spec)
        doc["full_rank_input"] = {
            "j": _fmt(j), "training": _fmt(training), "epsilon": _fmt(eps)}
    _emit(doc, args)
    return EXIT_OK if cap.converged else EXIT_CONVERGENCE


def cmd_report(args) -> int:
    spec, core = _load(args)
    rep = ce.capacity_report(spec, args.tol, args.max_iter,
                             css_mode=args.mode, budget=args.budget,
                             core=core)
    doc = _base_doc(args)
    doc["flags"] = rep.classes.flags()
    doc["C"] = _cap_json(rep.capacity)
    doc["C_ss"] = _css_json(rep.css)
    doc["bounds"] = {"lower": _fmt(rep.bounds[0]),
                     "upper": _fmt(rep.bounds[1])}
    doc["markov"] = {
        "long_chain": rep.markov.long_chain,
        "short_chain": rep.markov.short_chain,
        "max_violation_long": _fmt(rep.markov.max_violation_long),
        "max_violation_short": _fmt(rep.markov.max_violation_short)}
    doc["verdict"] = rep.verdict
    doc["verdict_reason"] = rep.verdict_reason
    _emit(doc, args)
    converged = rep.capacity.converged and rep.css.converged
    return EXIT_OK if converged else EXIT_CONVERGENCE


def _parse_rank_pmf(text: str) -> dict:
    out = {}
    for part in text.split(","):
        r, _, p = part.partition(":")
        try:
            rank, mass = int(r), Fraction(p)
        except (ValueError, ZeroDivisionError):   # Fraction("") included
            rank = None
        if rank is None or rank in out:
            raise ValueError(f"rank PMF entry {part!r} is not r:p with a "
                             f"rank r not given before and a fraction p")
        out[rank] = mass
    return out


def cmd_gen(args) -> int:
    kwargs = {"q": args.q, "M": args.M, "N": args.N, "T": args.T}
    if args.rank_pmf is not None:
        kwargs["rank_pmf"] = _parse_rank_pmf(args.rank_pmf)
    spec = cm.generate(args.kind, **kwargs)
    cm.save_channel(spec, args.output)
    cm.load_channel(args.output)   # round-trip guard
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify: oracle cross-checks on bundled fixtures and random channels.

def fixture_path(name: str) -> str:
    from importlib.resources import files
    return str(files("loccap") / "fixtures" / name)

FIXTURES = ["table1.json", "table2.json", "example9.json", "example6.json"]


def _check_counting() -> list:
    fails = []
    for q in (2, 3, 5):
        for m in range(5):
            for n in range(5):
                if sum(qcomb.xi2(m, n, r, q)
                       for r in range(min(m, n) + 1)) != q ** (m * n):
                    fails.append(f"rank-count identity q={q} m={m} n={n}")
    for q in (2, 3):
        field = FieldSpec(q)
        for t in range(5):
            for r in range(t + 1):
                n = sum(1 for _ in
                        subspace_enum.enumerate_grassmannian(r, t, field))
                if n != qcomb.gaussian_binomial(t, r, q):
                    fails.append(f"subspace count q={q} t={t} r={r}")
    for q in (2, 3):
        for t in range(4):
            for s in range(t + 1):
                for r in range(s, t + 1):
                    # [t-s, r-s]_q = [t, r]_q xi(r, s) / xi(t, s)
                    if (qcomb.gaussian_binomial(t - s, r - s, q)
                            * qcomb.xi(t, s, q)
                            != qcomb.gaussian_binomial(t, r, q)
                            * qcomb.xi(r, s, q)):
                        fails.append(f"superspace count q={q} t={t} s={s} "
                                     f"r={r}")
    return fails


def _check_channel(spec, label: str) -> list:
    from . import oracle   # brute-force oracles; only verify needs them
    fails = []
    core = cm.transition_core(spec)
    naive = oracle.transition_naive(spec)
    zero = Fraction(0)
    for x in all_matrices(spec.field, spec.T, spec.M):
        for y in all_matrices(spec.field, spec.T, spec.N):
            got = cm.p_y_given_x(core, x, y)
            want = naive.get((x.entries, y.entries), zero)
            if got != want:
                fails.append(f"{label}: transition mismatch at "
                             f"X={x.to_lists()} Y={y.to_lists()}")
                return fails
    report = cls.classify(spec, core)
    bad = cls.implication_audit(report, spec.T, spec.M)
    if bad:
        fails.append(f"{label}: implication violations {bad}")
    for name, scan in (("rank_symmetric",
                        lambda c: oracle.is_rank_symmetric(c)[0]),
                       ("degraded", oracle.is_degraded),
                       ("unique_subspace_degradation",
                        oracle.has_unique_subspace_degradation),
                       ("row_space_symmetric",
                        oracle.is_row_space_symmetric)):
        fast, slow = getattr(report, name), scan(core)
        got = (fast.holds, sorted(fast.witness or ()))
        want = (slow.holds, sorted(slow.witness or ()))
        if got != want:
            fails.append(f"{label}: {name} (holds, witness keys) is {got} "
                         f"from the class tables but {want} from the "
                         f"brute-force scan")
    fast = ce.shannon_capacity(core, 1e-8)
    slow = ce.shannon_capacity_naive(core, 1e-8)
    if abs(fast.value - slow.value) > 1e-6:
        fails.append(f"{label}: capacity mismatch "
                     f"{fast.value} vs {slow.value}")
    css = ce.css_bruteforce(core)
    best = oracle.css_bruteforce_exhaustive(core)[0][0]
    if not css.value - ce.DEFAULT_TOL <= best <= css.upper:
        fails.append(f"{label}: exhaustive C_ss {best} outside "
                     f"[{css.value} - tol, {css.upper}] from the choice "
                     f"search")
    return fails


def _verify_trial(seed: int) -> list:
    rng = random.Random(seed)
    T, M, N = (rng.randint(1, 2) for _ in range(3))
    spec = cm.random_channel(rng, 2, T, M, N)
    return _check_channel(spec, f"random seed={seed}")


def cmd_verify(args) -> int:
    fails = _check_counting()
    for name in FIXTURES:
        spec = cm.load_channel(fixture_path(name))
        fails += _check_channel(spec, name)
    for i in range(args.trials):
        fails += _verify_trial(args.seed + i)
    doc = {"tool": {"name": "loccap", "version": __version__},
           "seed": args.seed, "trials": args.trials,
           "failures": fails, "ok": not fails}
    _emit(doc, args)
    return EXIT_OK if not fails else EXIT_VERIFY


# ---------------------------------------------------------------------------

def _at_least(kind, low):
    """An argparse type: a value of kind that is at least low and finite."""
    def parse(text):
        value = kind(text)
        if not low <= value < math.inf:
            what = "a finite number" if kind is float else "an integer"
            raise argparse.ArgumentTypeError(
                f"must be {what} >= {low}, got {text!r}")
        return value
    parse.__name__ = kind.__name__   # argparse names the kind on a bad parse
    return parse


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="loccap")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    options = {
        "--tol": dict(type=_at_least(float, 0), default=ce.DEFAULT_TOL),
        "--max-iter": dict(type=_at_least(int, 1),
                           default=ce.DEFAULT_MAX_ITER),
        "--format": dict(choices=("json", "csv"), default="json"),
        "--budget": dict(type=_at_least(int, 1),
                         default=ce.DEFAULT_ASSIGNMENT_BUDGET),
        "--mode": dict(choices=ce.CSS_MODES, default="auto"),
        "--trials": dict(type=_at_least(int, 0), default=25),
        "--seed": dict(type=int, default=0),
    }
    solver = ("--tol", "--max-iter", "--format")
    for name, opts in (
            ("classify", ()),
            ("capacity", solver),
            ("css", solver + ("--budget", "--mode")),
            ("bounds", solver),
            ("report", solver + ("--budget", "--mode")),
            ("verify", ("--trials", "--seed"))):
        p = sub.add_parser(name)
        if name != "verify":
            p.add_argument("channel", help="channel spec JSON file")
        for opt in opts:
            p.add_argument(opt, **options[opt])
        p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("gen")
    p.add_argument("kind", choices=("iid_uniform", "full_rank_uniform",
                                    "uniform_given_rank",
                                    "custom_rank_dist"))
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--T", type=int, default=1)
    p.add_argument("--rank-pmf", default=None,
                   help="comma list like 0:1/3,2:2/3")
    p.add_argument("-o", "--output", required=True)
    return top


# One parser per process.  It holds no handlers: main looks up
# cmd_<command> among the module's globals on every call, so a rebinding
# of a handler reaches the next call.
_parser = functools.cache(_build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = globals()[f"cmd_{args.command}"](args)
    except (ChannelSpecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_INPUT
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        code = EXIT_BUDGET
    except ce.NonMonotoneBound as exc:
        print(f"error: optimizer failed: {exc}", file=sys.stderr)
        code = EXIT_CONVERGENCE
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()

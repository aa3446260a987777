"""The benchmark in perfbench/ wraps loccap functions by module and name.

A simplification that deletes or renames one of them would break the
benchmark; these tests fail first.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

import loccap
from loccap import capacity_engine as ce
from loccap import channel_model as cm
from loccap import classify as cls
from loccap import cli, gf_core

from conftest import best_choice_unpruned

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tr = _tracer()


@pytest.mark.parametrize("module, attribute", [
    (module, attribute) for module, attribute, _ in _tr.SPANNED + _tr.COUNTED
] + [("capacity_engine", "shannon_capacity_naive"),
     ("subspace_enum", "matrices_with_column_space")])
def test_benchmark_binding_exists(module, attribute):
    assert callable(getattr(getattr(loccap, module), attribute))


def test_tracer_counts_every_enumerated_input():
    # css_bruteforce calls matrices_with_column_space through a binding
    # the tracer rebinds, once per input dimension r whose factors are
    # not yet cached: inputs_enumerated counts the full-row-rank r x M
    # matrices, 1 + 3 + 6 at q = 2, T = M = 2, not the q^(T*M) = 16 inputs
    spec = cm.generate("custom_rank_dist", q=2, T=2, M=2, N=2,
                       rank_pmf={1: Fraction(1, 2), 2: Fraction(1, 2)})
    core = cm.transition_core(spec)
    ce._input_factors.cache_clear()
    with _tr.Tracer().installed() as tracer:
        ce.css_bruteforce(core)
    assert tracer.counts["subspace_enum.inputs_enumerated"] == 1 + 3 + 6


def test_traced_bruteforce_abandons_choices_that_cannot_win(monkeypatch):
    # table2's first degradation wins, so every later Blahut-Arimoto run
    # stops once its upper value falls below it; example6's winner comes
    # last, where nothing can be abandoned
    core = cm.transition_core(cm.load_channel(cli.fixture_path(
        "table2.json")))
    with _tr.Tracer().installed() as pruned:
        got = ce.css_bruteforce(core)
    monkeypatch.setattr(ce, "_best_choice", best_choice_unpruned)
    with _tr.Tracer().installed() as reference:
        want = ce.css_bruteforce(core)
    assert got == want
    iterations = pruned.counts["capacity_engine.ba.iterations"]
    assert 0 < iterations < reference.counts["capacity_engine.ba.iterations"]


def test_traced_report_records_the_report_handler(capsys):
    # main dispatches through the module attribute, so the tracer's
    # rebinding of cli.cmd_report reaches a parser built before it
    cli.main(["report", cli.fixture_path("table1.json")])
    with _tr.Tracer().installed() as tracer:
        code = cli.main(["report", cli.fixture_path("example6.json")])
    assert code == cli.EXIT_OK
    assert _tr.calls(tracer.spans, "cli.cmd_report") == 1


def test_traced_report_without_a_usd_runs_only_brute_force(capsys):
    # auto decides the USD before it calls a solver, so no css_unique
    # span is left untagged by a refusal
    cli.main(["report", cli.fixture_path("table1.json")])
    with _tr.Tracer().installed() as tracer:
        code = cli.main(["report", cli.fixture_path("example6.json")])
    assert code == cli.EXIT_OK
    assert [rec[_tr.TAG] for rec in tracer.spans
            if rec[_tr.NAME] == "capacity_engine.css"] == ["bruteforce"]


def test_uniform_given_rank_reduces_far_fewer_matrices_than_it_ranks(
        monkeypatch):
    # the rank kernel steps through a table of the row spaces of the
    # support matrices' leading rows, reducing a state's rows and one new
    # row on the state's first lookup only; ranking every matrix through
    # gf_core.rank would make one reduction per support matrix
    spec = cm.generate("uniform_given_rank", q=2, T=1, M=3, N=3,
                       rank_pmf={1: Fraction(1, 2), 3: Fraction(1, 2)})
    original = gf_core._reduce
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(gf_core, "_reduce", counted)
    assert cls.is_uniform_given_rank(spec).holds
    assert len(spec.pmf_H) == 217
    assert 0 < len(calls) * 2 <= len(spec.pmf_H)

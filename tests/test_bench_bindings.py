"""The benchmark in perfbench/ wraps loccap functions by module and name.

A simplification that deletes or renames one of them would break the
benchmark; these tests fail first.
"""

import importlib.util
from pathlib import Path

import pytest

import loccap
from loccap import capacity_engine as ce
from loccap import channel_model as cm
from loccap import cli

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
    # the input scans call matrices_with_column_space through a binding
    # the tracer rebinds, so inputs_enumerated counts all q^(T*M) inputs
    core = cm.transition_core(cm.load_channel(cli.fixture_path(
        "example6.json")))
    spec = core.spec
    with _tr.Tracer().installed() as tracer:
        ce.css_bruteforce(core)
    assert tracer.counts["subspace_enum.inputs_enumerated"] == \
        spec.field.q ** (spec.T * spec.M)

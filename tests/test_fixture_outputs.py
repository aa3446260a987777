"""The CLI outputs on the four bundled fixtures, pinned.

fixture_outputs.json holds, per command and fixture, the exit code and
the JSON document printed, without ``input.path`` (where the package is
installed).  Floats must agree within 1e-12, everything else exactly,
key order included.  After a change that is meant to alter these
outputs, rewrite the file with

    PYTHONPATH=src python3 tests/test_fixture_outputs.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from loccap import cli

PINNED = Path(__file__).with_name("fixture_outputs.json")
COMMANDS = [["classify"], ["report"], ["css", "--mode", "bruteforce"],
            ["css", "--mode", "alpha"], ["bounds"], ["capacity"]]
CASES = [(argv, name) for argv in COMMANDS for name in cli.FIXTURES]


def _key(argv, name) -> str:
    return " ".join(argv + [name])


def _output(argv, name) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + [cli.fixture_path(name)])
    doc = json.loads(out.getvalue())
    del doc["input"]["path"]
    return {"exit": code, "output": doc}


def _assert_same(got, want, where="") -> None:
    if isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= 1e-12, where
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for k in want:
            _assert_same(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, where


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


def test_pinned_cases_are_the_listed_ones(pinned):
    assert sorted(pinned) == sorted(_key(a, n) for a, n in CASES)


@pytest.mark.parametrize("argv, name", CASES, ids=[
    _key(a, n).replace(" ", "_") for a, n in CASES])
def test_fixture_output_is_pinned(pinned, argv, name):
    key = _key(argv, name)
    _assert_same(_output(argv, name), pinned[key], key)


if __name__ == "__main__":
    # one case per line
    PINNED.write_text("{\n" + ",\n".join(
        f" {json.dumps(_key(a, n))}: {json.dumps(_output(a, n))}"
        for a, n in CASES) + "\n}\n")

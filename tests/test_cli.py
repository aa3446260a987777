import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from loccap import capacity_engine as ce
from loccap import channel_model as cm
from loccap import classify as cls
from loccap import cli, qcomb
from loccap.gf_core import FieldSpec


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, argv):
    code, out = _run(capsys, argv)
    return code, json.loads(out)


def test_missing_file_exits_2(capsys):
    code = cli.main(["classify", "/no/such/file.json"])
    assert code == cli.EXIT_INPUT


@pytest.mark.parametrize("data", [
    b"{broken",
    b"[" * 10 ** 5 + b"]" * 10 ** 5,   # json.load raises RecursionError
    b"\xff\xfe",                       # UnicodeDecodeError
    # a q past Python's int-digit limit: json.load raises ValueError
    b'{"q": ' + b"1" * 5000 + b', "T": 1, "M": 1, "N": 1, "pmf": []}',
], ids=["broken", "nested", "not-utf8", "long-int"])
def test_bad_json_exits_2(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    for command in ("classify", "report"):
        assert cli.main([command, str(path)]) == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith(
            f"error: {path}: invalid JSON: ")


def test_mass_past_the_int_digit_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"q": 2, "T": 1, "M": 1, "N": 1, "pmf": [
        {"H": [[0]], "p": "1/2"}, {"H": [[1]], "p": "1/" + "2" * 5000}]}))
    for command in ("classify", "report"):
        assert cli.main([command, str(path)]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: pmf[1]: bad rational '1/222")
        # the 5,002-character mass is echoed only as a short excerpt
        assert err.count("\n") == 1
        assert len(err) < len(str(path)) + 250


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_gen_full_rank_uniform_round_trips(tmp_path, capsys):
    out = tmp_path / "chan.json"
    code = cli.main(["gen", "full_rank_uniform", "--q", "2", "--M", "2",
                     "-o", str(out)])
    assert code == 0
    spec = cm.load_channel(out)
    assert len(spec.pmf_H) == 6
    assert all(str(p) == "1/6" for p in spec.pmf_H.values())


def test_gen_uniform_given_rank(tmp_path, capsys):
    out = tmp_path / "chan.json"
    code = cli.main(["gen", "uniform_given_rank", "--q", "2", "--M", "2",
                     "--N", "2", "--rank-pmf", "1:1", "-o", str(out)])
    assert code == 0
    spec = cm.load_channel(out)
    assert len(spec.pmf_H) == 9
    assert all(str(p) == "1/9" for p in spec.pmf_H.values())


def test_gen_rejects_bad_rank_pmf(tmp_path, capsys):
    # a repeated rank is refused, not overwritten, and a malformed entry
    # is named with the r:p form
    out = tmp_path / "chan.json"
    form = "is not r:p with a rank r not given before and a fraction p"
    for pmf, err in (("5:1", "rank outside [0, min(M,N)]"),
                     ("1:1/0", f"rank PMF entry '1:1/0' {form}"),
                     ("1:1/4,1:1/2,2:1/2", f"rank PMF entry '1:1/2' {form}"),
                     ("1:1/2,,2:1/2", f"rank PMF entry '' {form}"),
                     ("1", f"rank PMF entry '1' {form}"),
                     ("1:", f"rank PMF entry '1:' {form}"),
                     ("x:1", f"rank PMF entry 'x:1' {form}"),
                     ("1:1/2:1", f"rank PMF entry '1:1/2:1' {form}")):
        code = cli.main(["gen", "uniform_given_rank", "--q", "2", "--M", "2",
                         "--N", "2", "--rank-pmf", pmf, "-o", str(out)])
        assert code == cli.EXIT_INPUT
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not out.exists()


@pytest.mark.parametrize("argv, err", [
    (["iid_uniform", "--M", "2"], "N is required"),
    (["uniform_given_rank", "--M", "2", "--N", "2"],
     "uniform_given_rank requires a rank PMF"),
    (["custom_rank_dist", "--M", "2", "--N", "2", "--rank-pmf",
      "0:-1/2,1:3/2"], "negative rank probability"),
], ids=["no-N", "no-rank-pmf", "negative-mass"])
def test_gen_refuses_a_missing_or_negative_parameter(tmp_path, capsys, argv,
                                                     err):
    out = tmp_path / "chan.json"
    code = cli.main(["gen", *argv, "--q", "2", "-o", str(out)])
    assert code == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not out.exists()


@pytest.mark.parametrize("size, value", [("--M", "-1"), ("--N", "-1"),
                                         ("--T", "0")])
def test_gen_rejects_a_size_below_one(tmp_path, capsys, size, value):
    code = cli.main(["gen", "iid_uniform", "--q", "2", "--M", "2", "--N", "2",
                     size, value, "-o", str(tmp_path / "chan.json")])
    assert code == cli.EXIT_INPUT
    assert capsys.readouterr().err == "error: T, M, N must be positive\n"


def test_gen_refuses_a_support_over_budget_at_once(tmp_path, capsys):
    # 9,999,360 invertible 5x5 matrices over F_2: refused from the closed
    # form before any is enumerated
    out = tmp_path / "chan.json"
    start = time.perf_counter()
    code = cli.main(["gen", "full_rank_uniform", "--q", "2", "--M", "5",
                     "-o", str(out)])
    assert time.perf_counter() - start < 1
    assert code == cli.EXIT_BUDGET
    assert capsys.readouterr().err == (
        "budget exceeded: 9999360 support matrices exceeds budget 262144\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["report", "classify", "capacity", "css",
                                     "bounds", "gen"])
def test_a_tall_channel_exits_2_at_once(tmp_path, capsys, command):
    # q^T-sized counts at T = 10^20 would not fit in memory: the loader
    # and generate refuse T above T_BUDGET before any is built
    path = tmp_path / "tall.json"
    T = 10 ** 20
    path.write_text(json.dumps({"q": 2, "T": T, "M": 2, "N": 2, "pmf": [
        {"H": [[1, 0], [0, 1]], "p": "1/2"},
        {"H": [[0, 0], [0, 0]], "p": "1/2"}]}))
    argv = ([command, str(path)] if command != "gen" else
            ["gen", "iid_uniform", "--q", "2", "--M", "2", "--N", "2",
             "--T", str(T), "-o", str(tmp_path / "out.json")])
    start = time.perf_counter()
    code = cli.main(argv)
    assert time.perf_counter() - start < 1
    assert code == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    where = "" if command == "gen" else f"{path}: "
    assert captured.err == (f"error: {where}T must be at most "
                            f"{cm.T_BUDGET}, got {T}\n")
    assert not (tmp_path / "out.json").exists()


def test_the_tallest_channel_allowed_still_loads(tmp_path):
    path = tmp_path / "chan.json"
    cm.save_channel(cm.generate("iid_uniform", q=2, M=1, N=1,
                                T=cm.T_BUDGET), path)
    assert cm.load_channel(path).T == cm.T_BUDGET == 2 ** 20


@pytest.mark.parametrize("argv, count", [
    (["iid_uniform", "--q", "2", "--M", "120", "--N", "120"], "2^14400"),
    (["iid_uniform", "--q", "2", "--M", "5", "--N", "5"], "2^25"),
    (["full_rank_uniform", "--q", "2", "--M", "3000"], "2^8997000 or more"),
    (["uniform_given_rank", "--q", "3", "--M", "2", "--N", "3000",
      "--rank-pmf", "2:1"], "3^5998 or more"),
])
def test_gen_prints_a_huge_support_as_a_power(tmp_path, capsys, argv, count):
    # q^(M N) is compared by its exponent, and xi(M, M) is refused from a
    # power below it, so no count of thousands of digits is built
    out = tmp_path / "chan.json"
    start = time.perf_counter()
    code = cli.main(["gen", *argv, "-o", str(out)])
    assert time.perf_counter() - start < 1
    assert code == cli.EXIT_BUDGET
    assert capsys.readouterr().err == (
        f"budget exceeded: {count} support matrices exceeds budget 262144\n")
    assert not out.exists()


def test_rank_laws_apart_below_float_resolution_have_no_usd(tmp_path,
                                                            capsys):
    # T=1, M=2, N=1: the classes span(0,1) and span(1,1) put 1/2 +- 1e-30
    # on E = 0, which the float rows of the per-rank search merge
    tiny = Fraction(1, 10 ** 30)
    masses = [Fraction(1, 4), Fraction(1, 4), Fraction(1, 4) + tiny,
              Fraction(1, 4) - tiny]
    path = tmp_path / "chan.json"
    path.write_text(json.dumps({"q": 2, "T": 1, "M": 2, "N": 1, "pmf": [
        {"H": h, "p": f"{p.numerator}/{p.denominator}"}
        for h, p in zip([[[0], [0]], [[0], [1]], [[1], [0]], [[1], [1]]],
                        masses)]}))
    assert ce.css_alpha_lower(cm.transition_core(
        cm.load_channel(path))).assignments_tried == 1
    code, doc = _run_json(capsys, ["report", str(path)])
    assert code == cli.EXIT_OK
    assert not doc["flags"]["unique_subspace_degradation"]
    assert doc["C_ss"]["mode"] == "bruteforce"
    code = cli.main(["css", str(path), "--mode", "unique"])
    assert code == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith(
        "error: subspace channel depends on the input representative")


def test_classify_schema(capsys):
    path = cli.fixture_path("table1.json")
    code, doc = _run_json(capsys, ["classify", path])
    assert code == 0
    assert doc["tool"]["name"] == "loccap"
    assert len(doc["input"]["sha256"]) == 64
    assert set(doc["flags"]) == {
        "uniform_given_rank", "rank_symmetric", "degraded",
        "unique_subspace_degradation", "row_space_symmetric"}
    assert doc["flags"]["degraded"]
    assert not doc["flags"]["rank_symmetric"]
    assert doc["implication_violations"] == []


def test_capacity_json(capsys):
    path = cli.fixture_path("table2.json")
    code, doc = _run_json(capsys, ["capacity", path])
    assert code == 0
    assert doc["C"]["value"] == pytest.approx(1.0, abs=1e-6)
    assert doc["C"]["converged"]
    total = sum(e["p"] for e in doc["C"]["achiever"])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_report_verdict_and_csv(tmp_path, capsys):
    path = cli.fixture_path("table1.json")
    code, doc = _run_json(capsys, ["report", path])
    assert code == 0
    assert doc["verdict"] == "C_EQUALS_CSS"
    assert doc["markov"]["long_chain"]

    out = tmp_path / "report.csv"
    code = cli.main(["report", path, "--format", "csv", "-o", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "quantity,value,mode,gap"
    assert any(line.startswith("C,") for line in lines[1:])
    assert any(line.startswith("C_ss,") for line in lines[1:])


def test_bounds_subcommand(capsys):
    path = cli.fixture_path("example9.json")
    code, doc = _run_json(capsys, ["bounds", path])
    assert code == 0
    assert doc["lower"]["value"] <= doc["mi_at_achiever"]["value"] + 1e-9
    assert doc["mi_at_achiever"]["value"] <= doc["upper"]["value"] + 1e-9


def test_bounds_builds_the_class_setup_once(monkeypatch, capsys):
    calls = []
    original = ce._class_setup

    def counted(core):
        calls.append(1)
        return original(core)

    monkeypatch.setattr(ce, "_class_setup", counted)
    code, _ = _run_json(capsys, ["bounds", cli.fixture_path("example9.json")])
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["capacity", "css", "bounds", "report"])
def test_non_monotone_optimizer_exits_4_without_traceback(monkeypatch,
                                                          capsys, command):
    def failing(*args, **kwargs):
        raise ce.NonMonotoneBound("lower bound decreased: 1.0 -> 0.5")

    monkeypatch.setattr(ce, "_ba", failing)
    code = cli.main([command, cli.fixture_path("example9.json")])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CONVERGENCE
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "lower bound decreased" in captured.err


def test_verify_exits_5_on_a_wrong_row_space_symmetric_test(monkeypatch,
                                                            capsys):
    original = cls.is_row_space_symmetric

    def flipped(scan):
        return cls.PredicateResult(not original(scan).holds)

    monkeypatch.setattr(cls, "is_row_space_symmetric", flipped)
    code, doc = _run_json(capsys, ["verify", "--trials", "0"])
    assert code == cli.EXIT_VERIFY
    assert any("row_space_symmetric (holds, witness keys)" in fail
               for fail in doc["failures"])


def test_verify_exits_5_when_the_choice_search_misses_the_exhaustive_best(
        monkeypatch, capsys):
    # a search whose certified interval lies 1 bit below the truth
    search = ce.css_bruteforce

    def low(core, *args):
        res = search(core, *args)
        res.value -= 1.0
        res.upper -= 1.0
        return res

    monkeypatch.setattr(ce, "css_bruteforce", low)
    code, doc = _run_json(capsys, ["verify", "--trials", "0"])
    assert code == cli.EXIT_VERIFY
    assert [fail.split(":")[0] for fail in doc["failures"]
            if "exhaustive C_ss" in fail] == list(cli.FIXTURES)


def test_verify_exits_5_on_a_broken_superspace_identity(monkeypatch,
                                                        capsys):
    # the identity is compared in verify itself, not by an assert, so it
    # is checked under python -O and a break is a failure line, not a
    # traceback
    original = qcomb.gaussian_binomial
    monkeypatch.setattr(qcomb, "gaussian_binomial", lambda m, r, q: (
        original(m, r, q) + ((m, r, q) == (3, 1, 2))))
    code, doc = _run_json(capsys, ["verify", "--trials", "0"])
    assert code == cli.EXIT_VERIFY
    # [2, 0]_2 xi(3, 1) = 7, but the broken [3, 1]_2 xi(1, 1) = 8
    assert "superspace count q=2 t=3 s=1 r=1" in doc["failures"]
    assert "subspace count q=2 t=3 r=1" in doc["failures"]


def test_report_never_loads_the_oracle(tmp_path):
    # the brute-force oracles serve verify and the tests only: report
    # builds brute force's options from the class tables, on a fixture
    # and on crd(2;2,2,2), which has no unique subspace degradation
    path = tmp_path / "crd.json"
    cm.save_channel(cm.generate("custom_rank_dist", q=2, T=2, M=2, N=2,
                                rank_pmf={1: Fraction(1, 2),
                                          2: Fraction(1, 2)}), str(path))
    script = ("import sys\n"
              "from loccap import cli\n"
              "codes = [cli.main(['report', p]) for p in sys.argv[1:]]\n"
              "print(codes, 'loccap.oracle' in sys.modules, file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script,
                           cli.fixture_path("table1.json"), str(path)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.stderr == "[0, 0] False\n"
    assert '"mode": "bruteforce"' in done.stdout


def test_json_output_is_streamed(tmp_path):
    # H in {I_2, 0} at 1/2 each: classify prints witnesses T rows tall
    path, out = tmp_path / "tall.json", tmp_path / "out.json"
    cm.save_channel(cm.ChannelSpec(FieldSpec(2), 2 ** 12, 2, 2, {
        (1, 0, 0, 1): Fraction(1, 2), (0, 0, 0, 0): Fraction(1, 2)}),
        str(path))
    tracemalloc.start()
    try:
        code = cli.main(["classify", str(path), "-o", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_OK
    assert peak < out.stat().st_size / 2, (peak, out.stat().st_size)


def test_verify_small_run_ok_and_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        code = cli.main(["verify", "--trials", "3", "--seed", "7",
                         "-o", str(out)])
        assert code == 0
    assert a.read_text() == b.read_text()
    doc = json.loads(a.read_text())
    assert doc["ok"] and doc["failures"] == []


# The channel subcommands that compute a rate; each must exit 0 on a
# valid channel that its optimizers solve.
_SOLVERS = (["capacity"], ["css"], ["css", "--mode", "alpha"], ["bounds"])


@pytest.mark.parametrize("T", [16, 40, 600, 4096])
def test_report_tall_iid_channel(tmp_path, capsys, T):
    # classify decides every predicate from the class tables, so a tall
    # channel costs no more than T = M; counts such as xi(T, 2) exceed
    # the float range from T = 512 on
    path = tmp_path / "iid.json"
    assert cli.main(["gen", "iid_uniform", "--q", "2", "--T", str(T),
                     "--M", "2", "--N", "2", "-o", str(path)]) == 0
    code, doc = _run_json(capsys, ["report", str(path)])
    assert code == 0
    assert all(doc["flags"].values())
    assert doc["verdict"] == "C_EQUALS_CSS"
    for argv in _SOLVERS:
        assert _run(capsys, [argv[0], str(path), *argv[1:]])[0] == 0


def test_channel_with_a_mass_below_the_float_range(tmp_path, capsys):
    # 1/10^400 rounds to 0.0; the file is valid and must not be refused
    path = tmp_path / "chan.json"
    tiny = Fraction(1, 10 ** 400)
    path.write_text(json.dumps({
        "q": 2, "T": 1, "M": 1, "N": 1,
        "pmf": [{"H": [[1]], "p": str(tiny)},
                {"H": [[0]], "p": str(1 - tiny)}]}))
    for argv in _SOLVERS + (["report"],):
        code, doc = _run_json(capsys, [argv[0], str(path), *argv[1:]])
        assert code == 0, argv
    assert doc["C"]["value"] == doc["C_ss"]["value"] == 0.0


def test_report_bounds_with_subnormal_achiever_weight(tmp_path, capsys):
    # Blahut-Arimoto leaves one achiever weight at 5e-324 on this channel;
    # the row-space bounds once divided by its underflowed product.
    path = tmp_path / "chan.json"
    path.write_text(json.dumps({
        "q": 2, "T": 2, "M": 2, "N": 2,
        "pmf": [{"H": [[0, 0], [0, 0]], "p": "5/21"},
                {"H": [[0, 1], [1, 1]], "p": "3/7"},
                {"H": [[1, 0], [1, 0]], "p": "1/3"}]}))
    code, doc = _run_json(capsys, ["report", str(path)])
    assert code == 0
    lower, upper = doc["bounds"]["lower"], doc["bounds"]["upper"]
    c = doc["C"]["value"]
    assert math.isfinite(lower) and math.isfinite(upper)
    assert lower - 1e-9 <= c <= upper + 1e-9


# The options each subcommand reads; argparse must reject all others.
_ACCEPTED = {
    "classify": (),
    "capacity": ("--tol", "--max-iter", "--format"),
    "bounds": ("--tol", "--max-iter", "--format"),
    "css": ("--tol", "--max-iter", "--format", "--budget", "--mode"),
    "report": ("--tol", "--max-iter", "--format", "--budget", "--mode"),
    "verify": ("--trials", "--seed"),
}
_VALUES = {"--tol": "1", "--max-iter": "1", "--format": "json",
           "--budget": "1", "--mode": "alpha", "--trials": "0",
           "--seed": "1", "--jobs": "1"}


def _argv(command, option):
    path = [] if command == "verify" else [cli.fixture_path("table1.json")]
    return [command, *path, option, _VALUES[option]]


@pytest.mark.parametrize("command, option", [
    (command, option) for command, accepted in _ACCEPTED.items()
    for option in _VALUES if option not in accepted])
def test_subcommand_rejects_options_it_does_not_read(capsys, command,
                                                     option):
    with pytest.raises(SystemExit) as exc:
        cli.main(_argv(command, option))
    assert exc.value.code == 2


@pytest.mark.parametrize("command, option", [
    (command, option) for command, accepted in _ACCEPTED.items()
    for option in accepted])
def test_subcommand_accepts_the_options_it_reads(command, option):
    args = cli._build_parser().parse_args(_argv(command, option))
    assert getattr(args, option[2:].replace("-", "_")) is not None


@pytest.mark.parametrize("command, option, value", [
    ("report", "--tol", "nan"), ("capacity", "--tol", "-1"),
    ("bounds", "--tol", "inf"), ("capacity", "--max-iter", "0"),
    ("css", "--budget", "0"), ("verify", "--trials", "-3")])
def test_out_of_range_numeric_option_exits_2(capsys, command, option, value):
    path = [] if command == "verify" else [cli.fixture_path("table1.json")]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *path, option, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {option}: must be " in captured.err


def test_report_without_convergence_gives_no_verdict(capsys):
    # table2 is not degraded, so at 3 iterations (C converges at 6)
    # nothing certifies the row-space-symmetric equality
    code, doc = _run_json(capsys, ["report", cli.fixture_path("table2.json"),
                                   "--max-iter", "3"])
    assert code == cli.EXIT_CONVERGENCE
    assert not doc["flags"]["degraded"] and not doc["C"]["converged"]
    assert doc["verdict"] == "INCONCLUSIVE"
    assert "optimization of C did not converge" in doc["verdict_reason"]


def test_report_without_convergence_certifies_a_gap(tmp_path, capsys):
    # three iterations leave both runs unconverged, but C's lower end
    # already clears the exhaustive C_ss's upper end by about 0.67 bits;
    # the per-rank search's value is only a lower end, so it certifies
    # no gap
    path = tmp_path / "crd.json"
    cm.save_channel(cm.generate("custom_rank_dist", q=2, T=2, M=2, N=2,
                                rank_pmf={1: Fraction(1, 2),
                                          2: Fraction(1, 2)}), path)
    for mode, verdict in (("auto", "C_EXCEEDS_CSS"),
                          ("alpha", "INCONCLUSIVE")):
        code, doc = _run_json(capsys, ["report", str(path), "--max-iter",
                                       "3", "--mode", mode])
        assert code == cli.EXIT_CONVERGENCE
        assert not doc["C"]["converged"] and not doc["C_ss"]["converged"]
        assert doc["verdict"] == verdict
        assert "upper" not in doc["C"] and "upper" not in doc["C_ss"]


_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 7),
                  st.floats(), st.text(max_size=3),
                  st.lists(st.integers(0, 2), max_size=2),
                  st.dictionaries(st.sampled_from("HpqT"), st.integers(0, 2),
                                  max_size=2))


@st.composite
def _channel_documents(draw):
    """A small valid channel document with at most one defect."""
    q = draw(st.sampled_from([2, 3]))
    T, M, N = (draw(st.integers(1, 2)) for _ in range(3))
    support = draw(st.lists(
        st.lists(st.lists(st.integers(0, q - 1), min_size=N, max_size=N),
                 min_size=M, max_size=M),
        min_size=1, max_size=3, unique_by=str))
    weights = [draw(st.integers(1, 4)) for _ in support]
    doc = {"q": q, "T": T, "M": M, "N": N,
           "pmf": [{"H": h, "p": f"{w}/{sum(weights)}"}
                   for h, w in zip(support, weights)]}
    item = doc["pmf"][0]
    defect = draw(st.sampled_from(
        ["none", "field", "missing", "item", "H", "entry", "p", "document"]))
    if defect == "field":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(_JUNK)
    elif defect == "missing":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif defect == "item":
        doc["pmf"][0] = draw(_JUNK)
    elif defect in ("H", "p"):
        item[defect] = draw(_JUNK)
    elif defect == "entry":
        item["H"][0][0] = draw(_JUNK)
    elif defect == "document":
        doc = draw(_JUNK)
    return doc


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_channel_documents())
def test_classify_exits_with_a_documented_code_on_any_document(tmp_path,
                                                              doc):
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["classify", str(path)])
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_BUDGET,
                    cli.EXIT_CONVERGENCE)


def test_css_unique_refuses_a_channel_without_a_usd(capsys):
    code = cli.main(["css", cli.fixture_path("example6.json"),
                     "--mode", "unique"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert captured.out == ""
    assert captured.err == (
        "error: subspace channel depends on the input representative; the "
        "rank-domain optimization does not apply\n")


@pytest.mark.parametrize("command", ["report", "capacity", "css"])
@pytest.mark.parametrize("q, T, c, css, verdict", [
    (2, 2000, 2000.0, 2000.0, "C_EQUALS_CSS"),
    (5, 1000, 1000 * math.log2(5), math.log2(1 + (5 ** 1000 - 1) // 4),
     "C_EXCEEDS_CSS")])
def test_two_input_channels_do_not_underflow(tmp_path, capsys, command, q, T,
                                             c, css, verdict):
    # H = [[1]]: two input classes, the zero space and F^1, whose rewards
    # differ by about T log2 q bits; Blahut-Arimoto's weight on the zero
    # space once underflowed at q = 2 from T = 1100 on
    path = tmp_path / "chan.json"
    path.write_text(json.dumps({"q": q, "T": T, "M": 1, "N": 1,
                                "pmf": [{"H": [[1]], "p": "1"}]}))
    code, doc = _run_json(capsys, [command, str(path)])
    assert code == cli.EXIT_OK
    if command != "css":
        assert doc["C"]["value"] == pytest.approx(c, abs=1e-8)
    if command != "capacity":
        assert doc["C_ss"]["value"] == pytest.approx(css, abs=1e-8)
    if command == "report":
        assert doc["verdict"] == verdict


@pytest.mark.parametrize("command", ["report", "capacity", "css"])
def test_blahut_arimoto_underflow_is_an_optimizer_fault(tmp_path, capsys,
                                                         command):
    # H in {I_2, 0} at 1/2 each, q = 5, T = 1000: the achiever's weight on
    # the small classes underflows, and with it the mass of an output only
    # they reach
    path = tmp_path / "chan.json"
    path.write_text(json.dumps({"q": 5, "T": 1000, "M": 2, "N": 2, "pmf": [
        {"H": [[1, 0], [0, 1]], "p": "1/2"},
        {"H": [[0, 0], [0, 0]], "p": "1/2"}]}))
    code = cli.main([command, str(path)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CONVERGENCE
    assert captured.out == ""
    assert captured.err == ("error: optimizer failed: an output mass "
                            "underflowed to 0.0 at iteration 2\n")

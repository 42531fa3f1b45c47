import dataclasses
import json
import math
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hardylab
from hardylab import cli
from hardylab.cli import (EXIT_DIVERGENT, EXIT_FAIL, EXIT_INPUT, EXIT_PASS,
                          bundled_scenario_dir, load_scenario, main, run,
                          run_suite, write_report)
from hardylab.expr import parse
from hardylab.kernels import KernelSpec, Scenario, check_walpha_condition
from hardylab.spaces import cmo_norm, log_profile
from hardylab.weights import Weight

SCENARIOS = bundled_scenario_dir()


def read(path):
    return json.loads(Path(path).read_text())


def test_bundled_scenarios_load():
    files = sorted(SCENARIOS.glob("*.json"))
    assert len(files) >= 8
    for path in files:
        scenario, task, _ = load_scenario(path)
        assert task["command"]


def test_constant_command_pass(tmp_path):
    out = tmp_path / "report.json"
    code = run("constant", SCENARIOS / "hardy-p2.json", out,
               {"no_timestamp": True})
    assert code == EXIT_PASS
    doc = read(out)
    assert doc["results"]["constant"]["value"] == pytest.approx(2.0)
    assert doc["passed"] is True


def test_constant_command_divergent_exit(tmp_path):
    out = tmp_path / "report.json"
    code = run("constant", SCENARIOS / "hardy-divergent-p1.json", out,
               {"no_timestamp": True})
    assert code == EXIT_DIVERGENT
    doc = read(out)
    assert doc["results"]["constant"]["divergent"] is True
    assert doc["results"]["constant"]["value"] == "inf"


def test_input_error_exit(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    out = tmp_path / "report.json"
    assert run("constant", bad, out, {}) == EXIT_INPUT
    doc = read(out)
    assert doc["exit_code"] == EXIT_INPUT
    missing = tmp_path / "missing.json"
    assert run("constant", missing, out, {}) == EXIT_INPUT
    assert run("frobnicate", SCENARIOS / "hardy-p2.json", out, {}) == EXIT_INPUT


@pytest.mark.parametrize("c", [0.0, -1.0])
def test_weight_constant_below_zero_is_an_input_error(tmp_path, c):
    doc = read(SCENARIOS / "morrey-extremal-m2.json")
    doc["weights"][1]["params"]["c"] = c
    doc["task"] = {"command": "norms", "params": {"inputs": [
        {"profile": "r^(-0.6)", "inner_cutoff": 1.0}]}}
    path = tmp_path / "bad-weight.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert run("norms", path, out, {"no_timestamp": True}) == EXIT_INPUT
    assert "weight constant c must be > 0" in read(out)["error"]


@pytest.mark.parametrize("old, new, reason", [
    ('"p": [2]', '"p": [1e400]', "cannot convert Infinity to integer ratio"),
    ('"p": [2]', '"p": [2], "q": [1e400], "lambda": [-0.25]', "cannot convert Infinity to integer ratio"),
    ('"d": 1', '"d": 1e400', "cannot convert float infinity to integer"),
], ids=["p", "q", "d"])
def test_an_overflowing_number_is_an_input_error(tmp_path, old, new, reason):
    # json reads 1e400 as inf, which int() and Fraction() refuse with
    # OverflowError
    text = (SCENARIOS / "hardy-p2.json").read_text()
    assert text.count(old) == 1
    path = tmp_path / "overflow.json"
    path.write_text(text.replace(old, new))
    out = tmp_path / "report.json"
    assert run("constant", path, out, {"no_timestamp": True}) == EXIT_INPUT
    doc = read(out)
    assert doc["exit_code"] == EXIT_INPUT
    assert doc["error"] == f"invalid scenario: {reason}"


def test_fuzz_seed_zero_is_used(tmp_path):
    doc = read(SCENARIOS / "fuzz-quick.json")
    doc["task"]["params"]["trials"] = 2
    path = tmp_path / "fuzz-seed0.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    run("fuzz", path, out, {"no_timestamp": True, "seed": 0})
    report = read(out)
    assert report["seed"] == report["results"]["fuzz"]["seed"] == 0


def test_expected_value_failure(tmp_path):
    doc = read(SCENARIOS / "hardy-p2.json")
    doc["task"]["params"]["expected_value"] = 3.0
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert run("constant", path, out, {"no_timestamp": True}) == EXIT_FAIL


@pytest.mark.parametrize("command, scenario", [
    ("sharpness", "hardy-sharpness.json"),
    ("fuzz", "fuzz-quick.json"),
])
def test_report_determinism(tmp_path, command, scenario):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    flags = {"no_timestamp": True, "seed": 99}
    run(command, SCENARIOS / scenario, a, flags)
    run(command, SCENARIOS / scenario, b, flags)
    assert a.read_bytes() == b.read_bytes()


def test_sharpness_csv_emission(tmp_path):
    out = tmp_path / "report.json"
    csv_path = tmp_path / "sweep.csv"
    code = run("sharpness", SCENARIOS / "hardy-sharpness.json", out,
               {"no_timestamp": True, "emit_csv": str(csv_path)})
    assert code == EXIT_PASS
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "epsilon,ratio,target,margin"
    assert len(lines) == 6  # header + default five epsilon points
    eps, ratio, target, margin = lines[-1].split(",")
    assert float(target) == pytest.approx(2.0)
    assert float(ratio) >= 0.98 * 2.0


def test_eval_command(tmp_path):
    doc = read(SCENARIOS / "hardy-p2.json")
    doc["task"] = {
        "command": "eval",
        "params": {
            "inputs": [{"profile": "r^(-0.25)"}],
            "points": [[2.0], [8.0]],
        },
    }
    path = tmp_path / "eval.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert run("eval", path, out, {"no_timestamp": True}) == EXIT_PASS
    rep = read(out)
    got = rep["results"]["evaluations"][0]["result"]["value"]
    assert got == pytest.approx(4.0 / 3.0 * 2.0 ** -0.25, rel=1e-10)


def test_norms_command(tmp_path):
    doc = read(SCENARIOS / "morrey-extremal-m2.json")
    doc["task"] = {
        "command": "norms",
        "params": {
            "allow_divergent": True,
            "inputs": [
                {"profile": "r^(-0.5125)", "inner_cutoff": 1.0},
                {"profile": "r^(-0.125)"},
            ],
        },
    }
    path = tmp_path / "norms.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert run("norms", path, out, {"no_timestamp": True}) == EXIT_PASS
    rep = read(out)
    entries = rep["results"]["norms"]
    assert entries[0]["lebesgue"]["value"] > 0
    # the pure Morrey extremal: no Lebesgue norm, finite central Morrey norm
    assert entries[1]["lebesgue"]["status"] == "divergent"
    assert entries[1]["central_morrey"]["value"] > 0


def test_norms_command_gives_each_symbol_its_slot(tmp_path):
    # symbol k is measured in the CMO space of slot min(k, m - 1), as the
    # inputs are: two slots with different weights and q, three symbols
    doc = {
        "geometry": {"d": 1},
        "kernel": {"m": 2, "n": 2, "psi": "1", "s": ["t1", "t2"], "beta": 1.0},
        "weights": [{"degree": 0.0}, {"degree": 0.5}],
        "exponents": {"p": [3, 4], "q": [6, 8], "lambda": [-0.25, -0.2]},
        "task": {"command": "norms", "params": {
            "allow_divergent": True,
            "inputs": [{"profile": "r^(-0.25)"}],
            "symbols": [{"profile": "log(r)"}] * 3,
        }},
    }
    path = tmp_path / "norms.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert run("norms", path, out, {"no_timestamp": True}) == EXIT_PASS
    scenario, _, _ = load_scenario(path)
    got = [e["cmo"]["value"] for e in read(out)["results"]["norms"] if "symbol" in e]
    want = [cmo_norm(log_profile(), scenario.weights[slot], scenario.slot_q(slot)).value
            for slot in (0, 1, 1)]
    assert got == want
    assert want[0] != want[1]


def test_check_conditions_command(tmp_path):
    out = tmp_path / "report.json"
    code = run("check-conditions", SCENARIOS / "power-weight-conditions.json",
               out, {"no_timestamp": True})
    assert code == EXIT_PASS
    rep = read(out)
    names = {c["name"] for c in rep["checks"]}
    assert "homogeneous-weight-vector" in names
    assert "morrey-balance-sufficiency" in names


def test_check_conditions_reads_power_x1_and_angular_weights(tmp_path):
    weights = [{"degree": 0.5, "kind": "power-x1", "params": {"c": 1.5, "e": 0.5}},
               {"degree": -0.5, "kind": "angular", "params": {"phi": "2 + t1^2"}}]
    path = tmp_path / "weight-kinds.json"
    path.write_text(json.dumps({
        "geometry": {"d": 2},
        "kernel": {"m": 2, "n": 2, "psi": "1", "s": ["t1", "t2"]},
        "weights": weights, "exponents": {"p": [3, 3]},
        "task": {"command": "check-conditions"}}))
    out = tmp_path / "report.json"
    run("check-conditions", path, out, {"no_timestamp": True})
    got, = [c for c in read(out)["checks"] if c["name"] == "homogeneous-weight-vector"]
    kernel = KernelSpec(m=2, n=2, psi=parse("1", 2), s=(parse("t1", 2), parse("t2", 2)))
    direct = (Weight(d=2, degree=0.5, kind="power-x1", c=1.5, e=0.5),
              Weight(d=2, degree=-0.5, kind="angular", phi=parse("2 + t1^2", 1)))
    want = check_walpha_condition(Scenario(d=2, kernel=kernel, weights=direct, p=(3, 3)))
    assert got["passed"] == want.passed
    assert [got["report"][key] for key in ("lhs", "rhs", "slack")] == \
        [want.lhs, want.rhs, want.slack]


@pytest.mark.parametrize("J", ["0", "-1", "1100"])
def test_bad_radii_J_is_an_input_error(tmp_path, J):
    # one radius, none, or a grid whose largest ball 2^1100 overflows
    out = tmp_path / "report.json"
    code = main(["morrey-extremal", str(SCENARIOS / "morrey-extremal-m2.json"),
                 "-o", str(out), "--radii-J", J])
    doc = read(out)
    assert code == doc["exit_code"] == EXIT_INPUT
    assert doc["error"].endswith(f"J = {J}")


def test_suite_over_bundled_dir(tmp_path):
    out = tmp_path / "suite.json"
    code = run_suite(SCENARIOS, out, {"no_timestamp": True})
    assert code == EXIT_PASS
    rep = read(out)
    assert rep["passed"] is True
    assert len(rep["scenarios"]) >= 8


def test_suite_output_without_suffix_is_a_directory(tmp_path):
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    shutil.copy(SCENARIOS / "hardy-p2.json", scenarios)
    out = tmp_path / "out"
    assert main(["suite", str(scenarios), "-o", str(out), "--no-timestamp"]) == EXIT_PASS
    assert read(out / "suite.json")["scenarios"][0]["scenario"] == "hardy-p2.json"
    assert read(out / "hardy-p2.json")["passed"] is True
    # an output with a suffix keeps its summary beside the report directory
    assert main(["suite", str(scenarios), "-o", str(tmp_path / "x.json"),
                 "--no-timestamp"]) == EXIT_PASS
    assert read(tmp_path / "x.json")["passed"] is True
    assert read(tmp_path / "x" / "hardy-p2.json")["passed"] is True


def test_report_rewritten_in_place(tmp_path):
    out = tmp_path / "report.json"
    write_report({"long": "x" * 5000}, out)
    out.chmod(0o640)
    inode = out.stat().st_ino
    write_report({"short": 1}, out)
    assert out.read_text() == '{\n  "short": 1\n}\n'
    assert out.stat().st_ino == inode
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    write_report({"short": 1}, Path(os.devnull))  # not a regular file: no truncation


def reference_jsonable(obj):
    """A report in plain JSON types for json.dumps, converted copy by copy:
    the reference that write_report's one-pass writer must match byte for
    byte."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return reference_jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [reference_jsonable(v) for v in obj.tolist()]
    return obj


def reference_text(report) -> str:
    return json.dumps(reference_jsonable(report), indent=2, sort_keys=True) + "\n"


@dataclasses.dataclass
class Leaf:
    value: float
    flags: list
    extra: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class Frozen:
    name: str
    pair: tuple
    leaf: Leaf
    nothing: object = None


REPORT_ZOO = {
    "frozen": Frozen("caf\u00e9 \u2603", (1.5, (2, "x"), ()),
                     Leaf(np.float64(0.1), [np.bool_(True), True, False],
                          {"nested": Leaf(math.nan, [], {})})),
    "floats": [0.1, 1e-300, 1e300, -0.0, 2.5e-323, math.nan, math.inf, -math.inf,
               np.float64(math.nan), np.float64(-math.inf), np.float32(0.1), np.float64(7.0)],
    "ints": [0, -3, 10 ** 30, np.int64(-7), np.int32(5), np.uint8(200)],
    "bools": [np.bool_(False), False, np.bool_(True), True],
    "arrays": [np.array([1.0, math.nan, -math.inf]), np.array([1, 2], dtype=np.int64),
               np.array([True, False]), np.array([]), np.array([[1.0, 2.0], [3.0, 4.0]])],
    "empty": [{}, [], (), {"": []}],
    "strings": ["", "tab\tquote\"back\\slash\n", "\x00\x1f\x7f", "\U0001d4b3 \u00fc", "/"],
    "keys": {1: "one", 2.5: "float", None: "none", False: "bool", (1, 2): "tuple",
             "10": "ten", "9": "nine", "\u00e9": "accent", "B": 1, "a": 2},
    "none": None,
    "tuple": (Leaf(1.0, [()]), [np.float64(2.0), [np.int64(3)]]),
}


def test_report_writer_matches_json_dumps(tmp_path):
    out = tmp_path / "zoo.json"
    for report in (REPORT_ZOO, {}, {"a": []}, Frozen("x", (), Leaf(0.5, []))):
        write_report(report, out)
        assert out.read_text() == reference_text(report)


@pytest.mark.parametrize("value", [{1, 2}, b"bytes", 1j, Path("x"), np.array(1.5)])
def test_report_writer_rejects_what_json_rejects(tmp_path, value):
    with pytest.raises(TypeError):
        reference_text({"x": [value]})
    with pytest.raises(TypeError):
        write_report({"x": [value]}, tmp_path / "out.json")


def test_bundled_reports_match_json_dumps(tmp_path, monkeypatch):
    written = []

    def recording_write_report(report, output):
        written.append((report, output))
        write_report(report, output)

    monkeypatch.setattr(cli, "write_report", recording_write_report)
    assert run_suite(SCENARIOS, tmp_path / "suite.json", {"no_timestamp": True}) == EXIT_PASS
    assert len(written) == len(list(SCENARIOS.glob("*.json"))) + 1
    for report, output in written:
        assert Path(output).read_text() == reference_text(report)


def test_main_entry_point(tmp_path, capsys):
    code = main(["constant", str(SCENARIOS / "hardy-p2.json"), "--no-timestamp"])
    assert code == EXIT_PASS
    stdout = capsys.readouterr().out
    doc = json.loads(stdout)
    assert doc["command"] == "constant"


def test_n_up_to_3_commands_never_import_scipy(tmp_path):
    # scipy is imported lazily, only for n >= 4 and weighted BMO at d >= 2:
    # the bundled suite and an n = 3 quadrature eval must not pull it in
    doc = read(SCENARIOS / "hardy-p2.json")
    doc["kernel"] = {"m": 1, "n": 3, "domain": "unit-cube", "psi": "1",
                     "s": ["t1 * t2 * t3"], "beta": 3.0}
    doc["task"] = {"command": "eval",
                   "params": {"inputs": [{"profile": "exp(-r)"}], "points": [[2.0]]}}
    scenario = tmp_path / "eval-n3.json"
    scenario.write_text(json.dumps(doc))
    script = (
        "import sys\n"
        "from hardylab.cli import main\n"
        f"assert main(['suite', {str(SCENARIOS)!r}, '-o', {str(tmp_path / 'suite.json')!r},"
        " '--no-timestamp']) == 0\n"
        f"assert main(['eval', {str(scenario)!r}, '-o', {str(tmp_path / 'eval.json')!r},"
        " '--no-timestamp']) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = str(Path(hardylab.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert read(tmp_path / "eval.json")["results"]["evaluations"][0]["result"]["status"] \
        == "converged"


def test_console_script_runs():
    # the child imports the same hardylab as this process, installed or not
    src = str(Path(hardylab.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hardylab.cli", "constant",
         str(SCENARIOS / "hardy-p2.json"), "--no-timestamp"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True

"""Scenario-file driven command line front end.

A scenario file is one JSON document:

    {
      "meta":     {"name": "hardy-p2"},
      "geometry": {"d": 1},
      "kernel":   {"m": 1, "n": 1, "domain": "unit-cube",
                   "psi": "1", "s": ["t1"], "beta": 1.0},
      "weights":  [{"degree": 0.0, "kind": "isotropic", "params": {"c": 1.0}}],
      "exponents": {"p": [2], "q": null, "lambda": null},
      "task":     {"command": "constant", "params": {"kind": "lebesgue"},
                   "seed": 1315}
    }

Commands: constant, eval, norms, check-conditions, sharpness, fuzz,
morrey-extremal, commutator-witness, suite.  Reports are a single JSON
document (sorted keys, deterministic given --no-timestamp and a fixed seed);
sweeps additionally emit a flat CSV (epsilon, ratio, target, margin) with
--emit-csv.

Exit codes: 0 pass, 1 assertion failure, 2 divergence where finiteness was
required, 3 input error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import stat
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import harness
from .constants import compute_constant
from .expr import DomainError, ExprSyntaxError, parse
from .kernels import (KernelSpec, Scenario, check_beta_condition,
                      check_morrey_balance, check_walpha_condition)
from .operators import OperatorInstance, apply
from .quad import SingularityHints
from .spaces import RadialFunction, central_morrey_norm, cmo_norm, lp_norm
from .weights import Weight

COMMANDS = ("constant", "eval", "norms", "check-conditions", "sharpness",
            "fuzz", "morrey-extremal", "commutator-witness", "suite")

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_DIVERGENT = 2
EXIT_INPUT = 3


class ScenarioError(ValueError):
    """Anything wrong with the scenario file (exit code 3)."""


# ---------------------------------------------------------------------------
# scenario loading
# ---------------------------------------------------------------------------

# the params each weight kind takes: c is optional, and e and phi are not
_WEIGHT_PARAMS = {"isotropic": ("c",), "power-x1": ("c", "e"), "angular": ("phi",)}
# every task param some command reads (README lists which); any command
# accepts them all, so one file runs under every command
_TASK_PARAMS = ("kind", "force_quadrature", "expected_value", "rel_tol", "expect",
                "trials", "inputs", "symbols", "points", "allow_divergent")


def _refuse_unknown(keys, known: tuple, what: str, owner: str) -> None:
    """Refuse the keys that nothing reads: an input error that names them."""
    unknown = sorted(set(keys) - set(known))
    if unknown:
        raise ScenarioError(f"unknown {what}(s) {', '.join(unknown)}; "
                            f"{owner} takes {', '.join(known)}")


def _build_weight(d: int, spec: dict) -> Weight:
    kind = spec.get("kind", Weight.kind)
    if kind not in _WEIGHT_PARAMS:
        raise ScenarioError(f"unknown weight kind {kind!r}")
    params = dict(spec.get("params", {}))
    _refuse_unknown(params, _WEIGHT_PARAMS[kind], "weight param", f"a weight of kind {kind}")
    for key in _WEIGHT_PARAMS[kind]:
        if key in params:
            params[key] = parse(params[key], 1) if key == "phi" else float(params[key])
        elif key != "c":
            raise ScenarioError(f"a weight of kind {kind} needs params.{key}")
    return Weight(d=d, degree=float(spec["degree"]), kind=kind, **params)


def _build_radial(spec) -> RadialFunction:
    if not isinstance(spec, dict):
        raise ScenarioError(f"an input is an object with a profile, not {spec!r}")
    _refuse_unknown(spec, ("profile", "inner_cutoff", "outer_cutoff"), "input key", "an input")
    if "profile" not in spec:
        raise ScenarioError(f"an input needs a profile: {spec!r}")
    cutoffs = {key: value for key, value in spec.items() if key != "profile"}
    return RadialFunction(parse(spec["profile"], 0), **cutoffs)


def load_scenario(path: Path) -> tuple[Scenario, dict, dict]:
    """Parse and validate a scenario file; returns (scenario, task, document)."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    try:
        d = int(doc["geometry"]["d"])
        kspec = doc["kernel"]
        n = int(kspec["n"])
        sing = None
        if "singularities" in kspec:
            sg = {"zero": (), "one": (), **kspec["singularities"]}
            sing = SingularityHints(**{k: tuple(v) for k, v in sg.items()}).normalized(n)
        kernel = KernelSpec(m=int(kspec["m"]), n=n, psi=parse(kspec["psi"], n),
                            s=tuple(parse(txt, n) for txt in kspec["s"]), sing=sing,
                            **{k: kspec[k] for k in ("domain", "beta") if k in kspec})
        kernel.validate()
        exps = doc["exponents"]
        p = tuple(exps["p"])
        q = tuple(exps.get("q") or ())
        lam = tuple(exps.get("lambda") or ())
        weights = tuple(_build_weight(d, wspec) for wspec in doc["weights"])
        scenario = Scenario(d=d, kernel=kernel, weights=weights, p=p, q=q, lam=lam)
        scenario.p_out_exact()  # reads every p_k and q_k exactly, as the report does
        task = doc.get("task", {})
        _refuse_unknown(task.get("params", {}), _TASK_PARAMS, "task param", "a task")
        return scenario, task, doc
    except ScenarioError:
        raise
    # ArithmeticError: a number too large for an int or a Fraction, e.g. 1e400
    except (KeyError, TypeError, ValueError, ArithmeticError, ExprSyntaxError) as exc:
        raise ScenarioError(f"invalid scenario: {exc}") from exc


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

_quote = json.encoder.encode_basestring_ascii


def _emit(obj, out: list, newline: str) -> None:
    """Append the JSON text of obj to out, as json.dumps(..., indent=2,
    sort_keys=True) writes it once dataclasses are read as dicts of their
    fields, tuples and arrays as lists, numpy scalars as Python numbers,
    keys as str() and non-finite floats as "nan", "inf" and "-inf".
    newline is the line break and indent of obj's own level."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isfinite(x):
            out.append(float.__repr__(x))
        else:
            out.append('"nan"' if math.isnan(x) else '"inf"' if x > 0 else '"-inf"')
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(int.__repr__(int(obj)))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = obj.tolist() if isinstance(obj, np.ndarray) else obj
        if not len(items):  # a 0-d array's tolist() is a scalar: TypeError
            out.append("[]")
            return
        inner = newline + "  "
        head = "[" + inner
        for value in items:
            out.append(head)
            _emit(value, out, inner)
            head = "," + inner
        out.append(newline + "]")
    else:
        if isinstance(obj, dict):
            obj = {str(k): v for k, v in obj.items()}
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        else:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        head = "{" + inner
        for key in sorted(obj):
            out.append(head)
            out.append(_quote(key))
            out.append(": ")
            _emit(obj[key], out, inner)
            head = "," + inner
        out.append(newline + "}")


def _scenario_echo(doc: dict, scenario: Scenario) -> dict:
    return {
        "document": {k: doc[k] for k in ("meta", "geometry", "kernel",
                                         "weights", "exponents") if k in doc},
        "derived": {
            "mode": scenario.mode,
            "p": scenario.p_out,
            "alpha": scenario.alpha,
            "lambda": scenario.lam_out if scenario.mode != "lebesgue" else None,
            "product_weight_sphere_mass": scenario.omega.sphere_integral(),
        },
    }


def write_report(report: dict, output: Path | None) -> None:
    """Write the report in one pass over it (see _emit), byte for byte as
    json.dumps(..., indent=2, sort_keys=True) would, to output or stdout."""
    out = []
    _emit(report, out, "\n")
    out.append("\n")
    text = "".join(out)
    if output is None:
        sys.stdout.write(text)
        return
    # Rewrite in place, then cut the file to the new length.  Truncating a
    # file to zero before writing it makes some file systems flush it on
    # close (ext4's auto_da_alloc): rewriting a 2.4 KB report on an ext4
    # root took a median 230-270 us that way against 14 us in place.  Only
    # a regular file is truncated, so devices such as /dev/stdout work.
    data = text.encode()
    fd = os.open(output, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        left = memoryview(data)
        while left:
            left = left[os.write(fd, left):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# command implementations: each returns (results dict, checks list, exit code)
# ---------------------------------------------------------------------------

def _given(source: dict, cast, **args) -> dict:
    """{arg: cast(source[key])} for each arg=key that source sets, and not to
    None: a setting the file or the flags leave out keeps the default of the
    library function that reads it."""
    return {arg: cast(source[key]) for arg, key in args.items()
            if source.get(key) is not None}


def _cmd_constant(scenario, params, flags):
    c = compute_constant(params.get("kind", "lebesgue"), scenario,
                         **_given(flags, float, tol="tol"),
                         **_given(params, bool, force_quadrature="force_quadrature"))
    checks = []
    code = EXIT_PASS
    expect_divergent = params.get("expect") == "divergent"
    if c.divergent:
        code = EXIT_DIVERGENT
        checks.append({"name": "finite", "passed": expect_divergent,
                       "detail": "constant is infinite"})
    else:
        checks.append({"name": "finite", "passed": not expect_divergent})
        if "expected_value" in params:
            want = float(params["expected_value"])
            rel = abs(c.value - want) / max(abs(want), 1e-300)
            ok = rel <= float(params.get("rel_tol", 1e-8))
            checks.append({"name": "expected-value", "passed": ok,
                           "value": c.value, "expected": want, "rel_error": rel})
            if not ok:
                code = EXIT_FAIL
        if expect_divergent:
            code = EXIT_FAIL
    return {"constant": c}, checks, code


def _cmd_eval(scenario, params, flags):
    inst = OperatorInstance(
        scenario, tuple(_build_radial(spec) for spec in params.get("inputs", [])),
        tuple(_build_radial(spec) for spec in params.get("symbols", [])))
    points = params.get("points")
    if not points:
        raise ScenarioError("eval needs task.params.points")
    settings = {**_given(flags, float, tol="tol"), **_given(flags, int, max_cells="max_cells")}
    results = []
    code = EXIT_PASS
    for pt in points:
        res = apply(inst, np.asarray(pt, dtype=float), **settings)
        results.append({"point": pt, "result": res})
        if res.divergent:
            code = EXIT_DIVERGENT
    return {"evaluations": results}, [], code


def _cmd_norms(scenario, params, flags):
    grid = _given(flags, int, J="radii_J")
    allow_divergent = bool(params.get("allow_divergent", False))
    out = []
    code = EXIT_PASS
    specs = params.get("inputs", [])
    if not specs:
        raise ScenarioError("norms needs task.params.inputs")
    for k, spec in enumerate(specs):
        f, slot = _build_radial(spec), min(k, scenario.m - 1)
        w, pk = scenario.weights[slot], scenario.slot_p(slot)
        entry = {"input": spec, "lebesgue": lp_norm(f, w, pk)}
        if scenario.mode in ("morrey", "commutator"):
            entry["central_morrey"] = central_morrey_norm(f, w, pk, scenario.lam[slot], **grid)
        if entry["lebesgue"].divergent and not allow_divergent:
            code = EXIT_DIVERGENT
        out.append(entry)
    for k, spec in enumerate(params.get("symbols", [])):
        slot = min(k, scenario.m - 1)
        qk = scenario.slot_q(slot) if scenario.q else 2.0
        out.append({"symbol": spec, "cmo": cmo_norm(_build_radial(spec),
                                                    scenario.weights[slot], qk, **grid)})
    return {"norms": out}, [], code


def _cmd_check_conditions(scenario, params, flags):
    checks = []
    if scenario.kernel.beta is not None:
        rep = check_beta_condition(scenario.kernel, scenario.kernel.beta)
        checks.append({"name": rep.name, "passed": rep.passed, "report": rep})
    rep = check_walpha_condition(scenario)
    checks.append({"name": rep.name, "passed": rep.passed, "report": rep})
    if scenario.mode in ("morrey", "commutator"):
        for direction in ("sufficiency", "necessity"):
            rep = check_morrey_balance(scenario, direction)
            checks.append({"name": rep.name, "passed": rep.passed, "report": rep})
    code = EXIT_PASS if all(c["passed"] for c in checks) else EXIT_FAIL
    return {}, checks, code


def _cmd_sharpness(scenario, params, flags):
    rep = harness.sharpness_sweep(scenario)
    checks = [
        {"name": "ratios-bounded-by-constant", "passed": rep.bounded},
        {"name": "ratios-monotone", "passed": rep.monotone},
        {"name": "sharpness-at-smallest-eps", "passed": rep.sharp},
    ]
    code = EXIT_PASS if rep.passed else EXIT_FAIL
    return {"sweep": rep}, checks, code


def _cmd_fuzz(scenario, params, flags):
    rep = harness.upper_bound_fuzz(**_given(params, int, trials="trials"),
                                   **_given(flags, int, seed="seed"))
    checks = [{"name": "no-upper-bound-violations", "passed": rep["passed"],
               "max_ratio": rep["max_ratio"]}]
    return {"fuzz": rep}, checks, EXIT_PASS if rep["passed"] else EXIT_FAIL


def _cmd_morrey_extremal(scenario, params, flags):
    rep = harness.morrey_extremal_check(scenario, **_given(params, float, tol="rel_tol"),
                                        **_given(flags, int, J="radii_J"))
    checks = [{"name": "extremal-ratio-identity", "passed": rep["passed"]}]
    if rep.get("constant") == math.inf:
        return {"morrey_extremal": rep}, checks, EXIT_DIVERGENT
    return {"morrey_extremal": rep}, checks, (EXIT_PASS if rep["passed"] else EXIT_FAIL)


def _cmd_commutator_witness(scenario, params, flags):
    rep = harness.commutator_witness_check(scenario, **_given(flags, int, J="radii_J"))
    checks = [
        {"name": "pointwise-identity", "passed": rep["pointwise_ok"]},
        {"name": "morrey-ratio-identity", "passed": rep["ratio"].get("ok", False)},
        {"name": "finiteness-transfer", "passed": rep["finiteness_consistent"]},
    ]
    code = EXIT_PASS if rep["passed"] else EXIT_FAIL
    return {"commutator_witness": rep}, checks, code


_DISPATCH = {
    "constant": _cmd_constant,
    "eval": _cmd_eval,
    "norms": _cmd_norms,
    "check-conditions": _cmd_check_conditions,
    "sharpness": _cmd_sharpness,
    "fuzz": _cmd_fuzz,
    "morrey-extremal": _cmd_morrey_extremal,
    "commutator-witness": _cmd_commutator_witness,
}


def _check_flags(flags: dict) -> None:
    """Reject a --tol-override that is not positive and a --radii-J below 1."""
    tol, J = flags.get("tol"), flags.get("radii_J")
    if tol is not None and not tol > 0.0:
        raise ScenarioError(f"--tol-override must be positive, not {tol}")
    if J is not None and J < 1:
        raise ScenarioError(f"--radii-J must be at least 1, got J = {J}")


def _input_error(command: str, exc: ValueError, output_path) -> int:
    """Write the report of an input error and return its exit code."""
    report = {"tool": "hardylab", "version": __version__, "command": command,
              "error": str(exc), "exit_code": EXIT_INPUT}
    write_report(report, output_path)
    return EXIT_INPUT


def run(command: str, scenario_path, output_path=None, flags=None) -> int:
    """Execute one command against one scenario file; write the report.  A
    ValueError other than a DomainError is an input error (exit 3)."""
    flags = dict(flags or {})
    t0 = time.time()
    try:
        if command not in _DISPATCH:
            raise ScenarioError(f"unknown command {command!r}")
        _check_flags(flags)
        scenario, task, doc = load_scenario(Path(scenario_path))
        params = dict(task.get("params", {}))
        if flags.get("seed") is None and "seed" in task:
            flags["seed"] = task["seed"]
        results, checks, code = _DISPATCH[command](scenario, params, flags)
    except DomainError:
        raise
    except ValueError as exc:
        return _input_error(command, exc, output_path)

    report = {
        "tool": "hardylab",
        "version": __version__,
        "command": command,
        "scenario_file": str(scenario_path),
        "scenario": _scenario_echo(doc, scenario),
        "seed": flags.get("seed"),
        "results": results,
        "checks": checks,
        "passed": all(c.get("passed", True) for c in checks) and code == EXIT_PASS,
        "exit_code": code,
    }
    if not flags.get("no_timestamp"):
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        report["elapsed_s"] = round(time.time() - t0, 3)
    write_report(report, output_path)
    if command == "sharpness" and flags.get("emit_csv"):
        with open(flags["emit_csv"], "w", newline="") as fh:
            csv.writer(fh).writerows([("epsilon", "ratio", "target", "margin"),
                                      *results["sweep"].csv_rows()])
    return code


def run_suite(scenario_dir, output_path=None, flags=None) -> int:
    """Run every scenario in a directory under its own declared task.

    A scenario whose task params carry {"expect": "divergent"} passes when
    the run exits with the divergence code.
    """
    flags = dict(flags or {})
    directory = Path(scenario_dir)
    files = sorted(directory.glob("*.json"))
    rows = []
    worst = EXIT_PASS
    # reports go to a directory named after the output; an output without a
    # suffix is that directory, and the summary goes into it
    summary_path = None
    if output_path is not None:
        summary_path = Path(output_path)
        report_dir = summary_path.with_suffix("")
        report_dir.mkdir(parents=True, exist_ok=True)
        if not summary_path.suffix:
            summary_path = report_dir / "suite.json"
    try:
        _check_flags(flags)
        if not files:
            raise ScenarioError(f"no scenario files in {directory}")
    except ScenarioError as exc:
        return _input_error("suite", exc, summary_path)
    for path in files:
        try:
            _, task, _ = load_scenario(path)
        except ScenarioError as exc:
            rows.append({"scenario": path.name, "status": "input-error",
                         "detail": str(exc)})
            worst = max(worst, EXIT_INPUT)
            continue
        command = task.get("command", "constant")
        expect_divergent = task.get("params", {}).get("expect") == "divergent"
        out = None if output_path is None else report_dir / (path.stem + ".json")
        code = run(command, path, out, flags)
        ok = (code == EXIT_DIVERGENT) if expect_divergent else (code == EXIT_PASS)
        rows.append({"scenario": path.name, "command": command,
                     "exit_code": code, "passed": ok})
        sys.stderr.write(f"{'PASS' if ok else 'FAIL'}  {path.name} ({command})\n")
        if not ok:
            worst = max(worst, EXIT_FAIL)
    summary = {
        "tool": "hardylab", "version": __version__, "command": "suite",
        "scenarios": rows,
        "passed": all(r.get("passed", False) for r in rows),
        "exit_code": worst,
    }
    write_report(summary, summary_path)
    return worst


def bundled_scenario_dir() -> Path:
    return Path(__file__).resolve().parent / "scenarios"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="hardylab",
        description="Sharp-constant laboratory for weighted multilinear "
                    "Hardy-Cesaro and Hausdorff operators.",
    )
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("scenario", nargs="?",
                    help="scenario file (or directory for 'suite'; defaults "
                         "to the bundled scenarios)")
    ap.add_argument("-o", "--output", help="report file (default: stdout)")
    ap.add_argument("--seed", type=int,
                    help="fuzz: trial seed (other commands echo it in the report)")
    ap.add_argument("--tol-override", type=float, dest="tol",
                    help="constant, eval: quadrature tolerance, > 0")
    ap.add_argument("--max-cells", type=int, help="eval: quadrature cell cap")
    ap.add_argument("--radii-J", type=int, dest="radii_J",
                    help="norms, morrey-extremal, commutator-witness: radius grid "
                         "2^j, |j| <= J (default: the library's J)")
    ap.add_argument("--emit-csv", help="sharpness: also write the sweep as CSV here")
    ap.add_argument("--no-timestamp", action="store_true")
    args = ap.parse_args(argv)
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "scenario", "output")}
    if args.command == "suite":
        where = args.scenario or bundled_scenario_dir()
        return run_suite(where, args.output, flags)
    if args.scenario is None:
        ap.error("a scenario file is required for this command")
    return run(args.command, args.scenario, args.output, flags)


if __name__ == "__main__":
    sys.exit(main())

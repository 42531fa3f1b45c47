"""Time the quadrature and CLI layers of two checkouts against each other,
one fixed call at a time, in one process.

    python3 tools/quad_ab.py PARENT CHANGE [--rounds N]

The tool loads each checkout's whole `src/hardylab` package under a package
name of its own (`hardylab_parent`, `hardylab_change`), so the two import
only their own modules, with one BLAS thread.  The rows are integrals of
`quad` alone, the forced-quadrature constants and quadrature-route `apply`
calls of the benchmark's cube workload, which also run `expr` and the
kernel code, closed-form constants, and the CLI layer: a kernel's
validation, writing a report, and one `norms` run of a Morrey-mode
scenario file.  A CLI row returns the
bytes it wrote, and both sides read the same input file.  For each row it
first checks that both give the same `repr` (value, errors, status and
cells to the last bit, or the report's bytes); a mismatch is an error.
Then it runs N rounds, alternating which side goes first, and times each
side on a batch of calls in each round.  It prints each side's median µs
per call and the median over rounds of the per-round ratio CHANGE / PARENT.
Interleaved rounds in one process resolve a few percent, which whole
benchmark runs on a shared host do not.  Next to the times it prints each
side's peak traced allocation of one call (`tracemalloc`, in KB, traced
apart from the timed rounds), so that a change in batch sizes shows its
memory cost.
"""

import argparse
import functools
import importlib.util
import json
import math
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def load_package(checkout: Path, name: str):
    """checkout's hardylab package, imported as the package `name`, with
    its CLI module: relative imports resolve to `name.quad`, `name.expr`
    and so on."""
    src = checkout / "src" / "hardylab"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package  # dataclasses look their module up by name
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")  # the package itself does not import it
    return package


@functools.lru_cache(maxsize=None)
def cube_scenario(h, n: int):
    """A scenario shaped like the cube workload's, built once per package:
    psi a monomial and s_k = c_k t_k^{e_k}, with the t_k -> 0 face of every
    axis at a negative exponent once the slot exponents apply, so every
    axis is graded."""
    psi = " * ".join(f"t{i + 1}^({a})" for i, a in enumerate((0.4, -0.02, 0.1)[:n]))
    slots = [f"{c} * t{k + 1}^({e})" for k, (c, e) in enumerate(((0.6, 1.3), (0.8, 0.7),
                                                              (0.5, 1.1))[:n])]
    kernel = h.kernels.KernelSpec(m=n, n=n, psi=h.expr.parse(psi, n),
                                  s=tuple(h.expr.parse(s, n) for s in slots))
    return h.kernels.Scenario(d=2, kernel=kernel,
                              weights=tuple(h.weights.isotropic(2, a)
                                            for a in (0.3, -0.2, 0.5)[:n]),
                              p=(3.0, 4.5, 5.0)[:n])


@functools.lru_cache(maxsize=None)
def commutator_scenario(h, unit: bool):
    """An m = n = 2 commutator-mode scenario with psi = t1^0.4 t2^-0.02 and
    s_k = c_k t_k^{e_k}, whose constants all have closed forms: c_k = 1
    when `unit`, as the log-weighted constant needs, else 0.6 and 0.8."""
    cs = (1.0, 1.0) if unit else (0.6, 0.8)
    kernel = h.kernels.KernelSpec(
        m=2, n=2, psi=h.expr.parse("t1^(0.4) * t2^(-0.02)", 2),
        s=(h.expr.parse(f"{cs[0]} * t1^(1.3)", 2), h.expr.parse(f"{cs[1]} * t2^(0.7)", 2)))
    return h.kernels.Scenario(d=2, kernel=kernel,
                              weights=(h.weights.isotropic(2, 0.3), h.weights.isotropic(2, -0.2)),
                              p=(3.0, 4.5), q=(6.0, 9.0), lam=(-0.2, -0.1))


@functools.lru_cache(maxsize=None)
def power_instance(h):
    """Two pure power inputs r^-0.4 and r^-0.3 on the n = 2 cube scenario."""
    inputs = tuple(h.spaces.RadialFunction(h.expr.parse(f"r^({g})", 0)) for g in (-0.4, -0.3))
    return h.operators.OperatorInstance(cube_scenario(h, 2), inputs)


@functools.lru_cache(maxsize=None)
def norms_report(h):
    """A report shaped like a `norms` one: the Lebesgue and central Morrey
    norms of a cutoff power, 41 radii and brackets, and the CMO of log|x|."""
    w = h.weights.isotropic(2, 0.3)
    f = h.spaces.power_profile(-1.6, inner_cutoff=1.3)
    return {"tool": "hardylab", "version": h.__version__, "command": "norms",
            "results": {"norms": [
                {"input": {"profile": "r^(-1.6)", "inner_cutoff": 1.3},
                 "lebesgue": h.spaces.lp_norm(f, w, 2.5),
                 "central_morrey": h.spaces.central_morrey_norm(f, w, 2.5, -0.3)},
                {"symbol": {"profile": "log(r)"},
                 "cmo": h.spaces.cmo_norm(h.spaces.log_profile(), w, 2.0)}]},
            "checks": [], "passed": True, "exit_code": 0}


def cases(np, workdir: Path):
    """(name, call) pairs; call(h) runs one row with hardylab package h.
    CLI rows write to workdir."""
    # a Morrey-mode norms file shaped like the suite workload's generated ones
    scenario = workdir / "norms-morrey.json"
    scenario.write_text(json.dumps({
        "meta": {"name": "norms-morrey"},
        "geometry": {"d": 2},
        "kernel": {"m": 1, "n": 1, "domain": "unit-cube", "psi": "1", "s": ["t1"]},
        "weights": [{"degree": 0.3, "kind": "isotropic", "params": {"c": 1.0}}],
        "exponents": {"p": [2.5], "lambda": [-0.12]},
        "task": {"command": "norms", "params": {
            "inputs": [{"profile": "r^(-1.22)", "inner_cutoff": 1.4}],
            "symbols": [{"profile": "log(r)"}]}},
    }))

    def bumpy(t):
        x = t[:, 0]
        return np.exp(3.0 * x) * np.sin(7.0 * x) + 1.0 / (1.05 - x)

    def refused_anchor(t):
        # raises on one probe anchor of the t1 -> 0 face, so the combined
        # probe call raises and the faces are probed an anchor per call
        if np.any((t[:, 0] < 2.0 ** -7) & (t[:, 1] == 0.57891234)):
            raise ValueError("refused anchor")
        return (t[:, 0] * t[:, 1]) ** -0.25 * (1.0 + t[:, 0])

    def refused_node(f, node):
        # f, raising at one node of a box greedy never splits: the request
        # that holds it raises, and its boxes are evaluated one a call
        def refused(t):
            if (np.asarray(t) == np.array(node)).all(axis=1).any():
                raise ValueError("refused node")
            return f(t)
        return refused

    def sin300(t):
        return np.sin(300.0 * t[:, 0] * t[:, 1]) + (t[:, 0] + t[:, 1]) ** 0.5

    # the oscillation grid of a log|x| CMO norm (d + alpha = 2.3, q = 2):
    # per radius R = 2^j, |j| <= 20, the integral of |log r - m_j|^2 r^1.3
    # over (0, min(R, 1)), and for R > 1 over (0, j) in r = 2^x, with the
    # kink r = e^{m_j} as a breakpoint: 61 members, and no face hint, so
    # all 122 faces are probed (cmo_norm declares the r = 1 face of its
    # (0, min(R, 1)) pieces and probes the other 81)
    members, means, in_log2 = [], [], []
    for j in range(-20, 21):
        m = j * math.log(2.0) - 1.0 / 2.3
        kink = math.exp(m)
        members.append(dict(a=0.0, b=min(2.0 ** j, 1.0),
                            breakpoints=[kink] if kink < min(2.0 ** j, 1.0) else []))
        means.append(m)
        in_log2.append(False)
        if j > 0:
            members.append(dict(a=0.0, b=float(j),
                                breakpoints=[math.log2(kink)] if kink > 1.0 else []))
            means.append(m)
            in_log2.append(True)
    means, in_log2 = np.array(means), np.array(in_log2)

    def oscillation(x, k):
        r = np.where(in_log2[k], 2.0 ** x, x)
        v = np.abs(np.log(r) - means[k]) ** 2.0 * r ** 1.3
        return np.where(in_log2[k], v * r * math.log(2.0), v)

    return [
        ("smooth n=1", lambda h: h.quad.integrate_unit_cube(
            lambda t: np.exp(t[:, 0]), 1, sing=h.quad.SingularityHints.regular(1), tol=1e-10)),
        ("probed n=1", lambda h: h.quad.integrate_unit_cube(
            lambda t: t[:, 0] ** -0.5 * np.exp(t[:, 0]), 1)),
        ("probed n=2", lambda h: h.quad.integrate_unit_cube(
            lambda t: (t[:, 0] * t[:, 1]) ** -0.25 * (1.0 + t[:, 0]), 2)),
        ("probe fallback n=2", lambda h: h.quad.integrate_unit_cube(refused_anchor, 2)),
        ("graded n=2", lambda h: h.quad.integrate_unit_cube(
            lambda t: t[:, 0] ** -0.6 * t[:, 1] ** -0.3 * (1.0 + t[:, 0] * t[:, 1]), 2,
            sing=h.quad.SingularityHints(zero=(-0.6, -0.3), one=(0.0, 0.0)))),
        # the shape of the cube benchmark's forced n = 3 constants: a monomial
        # with declared negative face exponents, graded on every axis
        ("graded n=3", lambda h: h.quad.integrate_unit_cube(
            lambda t: 0.7 * t[:, 0] ** -0.6 * t[:, 1] ** -0.3 * t[:, 2] ** -0.45, 3,
            sing=h.quad.SingularityHints(zero=(-0.6, -0.3, -0.45), one=(0.0, 0.0, 0.0)))),
        # probed at about -0.985: scanned, found convergent, then integrated
        ("suspicious scan", lambda h: h.quad.integrate_unit_cube(lambda t: t[:, 0] ** -0.985, 1)),
        ("integrate_interval", lambda h: h.quad.integrate_interval(
            lambda x: np.abs(np.log(np.abs(x))), -1.0, 3.0, breakpoints=[0.0, 1.0])),
        # capped at 8 cells, then a divergence scan
        ("capped 8 cells", lambda h: h.quad.integrate_unit_cube(
            bumpy, 1, sing=h.quad.SingularityHints.regular(1), tol=1e-14, max_cells=8)),
        ("replay n=1", lambda h: h.quad.integrate_unit_cube(
            refused_node(bumpy, 0.84375), 1, sing=h.quad.SingularityHints.regular(1),
            tol=1e-14, max_cells=8)),
        ("replay n=2 long", lambda h: h.quad.integrate_unit_cube(
            refused_node(sin300, (0.390625, 0.953125)), 2,
            sing=h.quad.SingularityHints.regular(2), tol=1e-13, max_cells=1500)),
        ("log-CMO grid", lambda h: h.quad.integrate_intervals(oscillation, members)),
        # an oscillation diverges before a later radius's mean raises
        ("cmo mean raises", lambda h: h.spaces.cmo_norm(
            h.spaces.RadialFunction(h.expr.parse("pow(r, -0.8) * log(3 - r)", 0)),
            h.weights.isotropic(1, 0.0), 2.0)),
        ("capped n=2 scan", lambda h: h.quad.integrate_unit_cube(
            lambda t: np.sin(40.0 * t[:, 0] * t[:, 1]), 2,
            sing=h.quad.SingularityHints.regular(2), max_cells=8)),
        # the three scan depths of an n = 3 corner singularity, in lockstep
        ("scan n=3", lambda h: h.quad._divergence_scan(
            lambda t: (t[:, 0] + t[:, 1] + t[:, 2]) ** -3.0, 3)),
        # the cube workload's task kinds: forced tensor Gauss-Kronrod
        # constants for n = 2 and 3, and a quadrature-route apply for n = 2
        ("constant n=2", lambda h: h.constants.compute_constant(
            "lebesgue", cube_scenario(h, 2), force_quadrature=True)),
        ("constant n=3", lambda h: h.constants.compute_constant(
            "lebesgue", cube_scenario(h, 3), force_quadrature=True)),
        # closed-form constants, from the separable route at |x| = 1; the
        # Morrey row also computes its printed variant
        ("closed lebesgue m=2", lambda h: h.constants.compute_constant(
            "lebesgue", cube_scenario(h, 2))),
        ("closed morrey m=2", lambda h: h.constants.compute_constant(
            "morrey", commutator_scenario(h, False))),
        ("closed log m=2", lambda h: h.constants.compute_constant(
            "commutator-log", commutator_scenario(h, True))),
        ("apply n=2", lambda h: h.operators.apply(
            power_instance(h), np.array([1.5, 0.7]), force_quadrature=True)),
        ("validate n=2", lambda h: cube_scenario(h, 2).kernel.validate()),
        ("write_report", lambda h: written(
            h.cli.write_report, norms_report(h), workdir / f"{h.__name__}.json")),
        ("cli norms", lambda h: written(
            lambda out: h.cli.run("norms", scenario, out, {"no_timestamp": True}),
            workdir / f"{h.__name__}.json")),
    ]


def written(write, *args) -> bytes:
    """Call write(*args), whose last argument is a path, and return the
    bytes that path then holds."""
    write(*args)
    return args[-1].read_bytes()


def per_call_s(call, h, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        call(h)
    return (time.perf_counter() - start) / calls


def peak_kb(call, h) -> float:
    """The peak of the memory that one call allocates, in KB, as
    tracemalloc traces it."""
    tracemalloc.start()
    try:
        call(h)
        return tracemalloc.get_traced_memory()[1] / 1024.0
    finally:
        tracemalloc.stop()


def time_row(name, call, sides, args) -> None:
    """Check that both sides give the same result, then time them in
    alternating rounds and print the row."""
    got = [repr(call(h)) for h in sides]
    if got[0] != got[1]:
        raise SystemExit(f"{name}: results differ\n  parent {got[0]}\n  change {got[1]}")
    calls = max(1, round(args.seconds / per_call_s(call, sides[0], 3)))
    times = ([], [])
    for r in range(args.rounds):
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            times[side].append(per_call_s(call, sides[side], calls))
    ratio = statistics.median(c / p for p, c in zip(*times))
    parent, change = (statistics.median(t) * 1e6 for t in times)
    kb = [peak_kb(call, h) for h in sides]
    print(f"{name:<20} {parent:>10.1f} {change:>10.1f} {ratio:>7.3f} {kb[0]:>10.1f} {kb[1]:>10.1f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--rounds", type=int, default=15)
    ap.add_argument("--seconds", type=float, default=0.05,
                    help="about how long each side runs per round and integral")
    args = ap.parse_args(argv)
    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads
    import numpy as np

    sides = (load_package(args.parent.resolve(), "hardylab_parent"),
             load_package(args.change.resolve(), "hardylab_change"))
    print(f"{'integral':<20} {'parent µs':>10} {'change µs':>10} {'ratio':>7}"
          f" {'parent KB':>10} {'change KB':>10}")
    with tempfile.TemporaryDirectory() as workdir:
        for name, call in cases(np, Path(workdir)):
            time_row(name, call, sides, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())

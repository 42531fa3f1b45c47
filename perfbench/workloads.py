"""Workload generators: inputs are drawn from the workload seed (the fuzz
pool also ends with one fixed reproduction, the edge workload closes every
cycle with three, and the cube workload grades the same face exponents
under every seed).

Each builder returns its pool of tasks and the cycle length.  A task's ``run`` makes the
library calls and returns their raw results; its ``check`` compares them with
a reference computed here, independently of the library, from the drawn
parameters (closed forms, series, products of one-dimensional moments, or
the exit codes and expected values a scenario file declares).

The library receives only generated inputs: expression strings, scenario
objects and scenario files.  Library functions are looked up through their
modules at call time, so a traced run sees every call.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from hardylab import cli, constants, harness, operators, spaces
from hardylab.expr import parse
from hardylab.kernels import KernelSpec, Scenario
from hardylab.operators import OperatorInstance
from hardylab.spaces import RadialFunction, power_profile
from hardylab.weights import isotropic

from checks import Verdict

QUAD_TOL = 1e-6      # forced-quadrature constants and quadrature-route apply
CLOSED_TOL = 1e-8    # closed-form constants and norms
FUZZ_SLACK = 1e-6    # hard bound ||T(f)|| <= A prod ||f_k|| (1 + slack)


@dataclass
class Task:
    name: str
    family: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]


def r6(x: float) -> float:
    """Round to the 6 decimals written into expression strings, so that the
    reference and the parsed input use the same number."""
    return float(f"{x:.6f}")


def sphere_area(d: int) -> float:
    return 2.0 if d == 1 else 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def monomial_integral(psi_pows, slots, gammas, x_r=1.0, cutoffs=None) -> float:
    """int_{[0,1]^n} prod_i t_i^{a_i} prod_k f_k(s_k(t) x) dt for
    s_k = c_k t_{axis_k}^{e_k} and f_k = r^{gamma_k} 1{r >= r0_k}, |x| = x_r.

    Each axis contributes int_{lo}^1 t^b dt, where lo is the largest
    cutoff preimage (r0 / (c x_r))^{1/e} on that axis.
    """
    b = list(psi_pows)
    lo = [0.0] * len(b)
    coeff = 1.0
    for k, ((axis, c, e), g) in enumerate(zip(slots, gammas)):
        coeff *= (c * x_r) ** g
        b[axis - 1] += e * g
        r0 = cutoffs[k] if cutoffs else None
        if r0 is not None:
            lo[axis - 1] = max(lo[axis - 1], min((r0 / (c * x_r)) ** (1.0 / e), 1.0))
    total = coeff
    for bi, li in zip(b, lo):
        if li == 0.0 and bi <= -1.0:
            return math.inf
        total *= (1.0 - li ** (bi + 1.0)) / (bi + 1.0)
    return total


def exp_power_moment(b: float) -> float:
    """int_0^1 e^t t^b dt = sum_k 1 / (k! (k + b + 1)), b > -1."""
    return math.fsum(1.0 / (math.factorial(k) * (k + b + 1.0)) for k in range(40))


def cutoff_lp_norm(d: int, alpha: float, p: float, gamma: float, r0: float) -> float:
    """||r^gamma 1{r >= r0}||_{L^p(|x|^alpha)}, needing p gamma + d + alpha < 0."""
    E = p * gamma + d + alpha
    return (sphere_area(d) * r0 ** E / (-E)) ** (1.0 / p)


def cutoff_morrey_norm(d: int, alpha: float, p: float, lam: float, gamma: float,
                       r0: float, J: int = 20) -> float:
    """Central Morrey norm of r^gamma 1{r >= r0}: the largest closed-form
    bracket over the dyadic radii 2^j, |j| <= J, that the library samples."""
    dpa = d + alpha
    E = p * gamma + dpa
    best = 0.0
    for j in range(-J, J + 1):
        R = 2.0 ** j
        if R <= r0:
            continue
        moment = sphere_area(d) * (R ** E - r0 ** E) / E
        mass = sphere_area(d) * R ** dpa / dpa
        best = max(best, (mass ** (-(1.0 + lam * p)) * moment) ** (1.0 / p))
    return best


# ---------------------------------------------------------------------------
# shared scenario builders
# ---------------------------------------------------------------------------

def monomial_scenario(d, psi_pows, slots, alphas, ps, domain="unit-cube"):
    n = len(psi_pows)
    psi = " * ".join(f"t{i + 1}^({a:.6f})" for i, a in enumerate(psi_pows))
    s = [f"{c:.6f} * t{axis}^({e:.6f})" for axis, c, e in slots]
    kernel = KernelSpec(m=len(slots), n=n, psi=parse(psi, n),
                        s=tuple(parse(txt, n) for txt in s), domain=domain)
    return Scenario(d=d, kernel=kernel,
                    weights=tuple(isotropic(d, float(a)) for a in alphas),
                    p=tuple(float(p) for p in ps))


def lebesgue_gammas(d, alphas, ps):
    return [-(d + a) / p for a, p in zip(alphas, ps)]


def axis_exponents(psi_pows, slots, gammas):
    b = list(psi_pows)
    for (axis, _, e), g in zip(slots, gammas):
        b[axis - 1] += e * g
    return b


# ---------------------------------------------------------------------------
# even draws of the parameters that set a task's cost
# ---------------------------------------------------------------------------

def spread_points(seed: int, kind: str, dim: int):
    """Endless points in [0, 1)^dim for one task kind: the R_d sequence
    (Roberts' generalized golden ratio) shifted by a random vector drawn
    from the seed.  Every prefix covers the cube evenly, so every run meets
    the same spread of task costs, whichever seed drew them.  Parameters
    that do not change a task's cost may come from an ordinary rng."""
    g = 2.0
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (dim + 1))
    step = np.array([(1.0 / g) ** (i + 1) for i in range(dim)])
    point = np.random.default_rng([seed, zlib.crc32(kind.encode())]).random(dim)
    while True:
        point = (point + step) % 1.0
        yield point


def lerp(u: float, lo: float, hi: float) -> float:
    return r6(lo + (hi - lo) * float(u))


# ---------------------------------------------------------------------------
# fuzz: random monomial scenarios against the hard upper bound
# ---------------------------------------------------------------------------

def _fuzz_draw(u):
    """Same distribution as hardylab.harness.upper_bound_fuzz: d, m, n <= 2,
    p in [1.2, 4], cutoff power inputs below the critical exponent; u holds
    the 17 uniforms one candidate needs."""
    d, m, n = (1 + int(2 * x) for x in u[:3])
    axes = [1 + int(n * x) for x in u[3:3 + m]]
    coefs = [lerp(x, 0.3, 1.0) for x in u[5:5 + m]]
    exps = [lerp(x, 0.5, 2.0) for x in u[7:7 + m]]
    psi_pows = [lerp(x, -0.4, 1.0) for x in u[9:9 + n]]
    alphas = [-0.5 + 1.5 * float(x) for x in u[11:11 + m]]
    ps = [1.2 + 2.8 * float(x) for x in u[13:13 + m]]
    deltas = [0.05 + 0.95 * float(x) for x in u[15:15 + m]]
    slots = list(zip(axes, coefs, exps))
    return d, psi_pows, slots, alphas, ps, deltas


def _fuzz_accept(params):
    d, psi_pows, slots, alphas, ps, deltas = params
    gam = lebesgue_gammas(d, alphas, ps)
    b = axis_exponents(psi_pows, slots, gam)
    b_in = axis_exponents(psi_pows, slots, [g - dl for g, dl in zip(gam, deltas)])
    return all(x > -0.9 for x in b + b_in)


def _fuzz_task(idx, params) -> Task:
    d, psi_pows, slots, alphas, ps, deltas = params
    sc = monomial_scenario(d, psi_pows, slots, alphas, ps)
    gam = lebesgue_gammas(d, alphas, ps)
    in_gam = [g - dl for g, dl in zip(gam, deltas)]
    inputs = tuple(power_profile(g, inner_cutoff=1.0) for g in in_gam)
    inst = OperatorInstance(sc, inputs)
    ref_A = monomial_integral(psi_pows, slots, gam)
    ref_norms = [cutoff_lp_norm(d, a, p, g, 1.0) for a, p, g in zip(alphas, ps, in_gam)]

    def run():
        A = constants.compute_constant("lebesgue", sc)
        norms = [spaces.lp_norm(f, w, p) for f, w, p in zip(inputs, sc.weights, ps)]
        out = harness.operator_radial_lp_norm(inst, outer_tol=1e-8)
        return A, norms, out

    def check(result):
        A, norms, out = result
        v = Verdict()
        v.finite("constant", A.value, A.error, A.divergent, ref_A, CLOSED_TOL)
        for k, (nr, ref) in enumerate(zip(norms, ref_norms)):
            v.finite(f"lp_norm[{k}]", nr.value, nr.error, nr.divergent, ref, CLOSED_TOL)
        if out.divergent or not math.isfinite(out.value):
            v.fail("status", f"operator norm: got {out.value!r} ({out.status}), "
                             f"expected finite")
        elif v.ok:
            ratio = out.value / (A.value * float(np.prod([nr.value for nr in norms])))
            v.bound("ratio", ratio, 1.0 + FUZZ_SLACK)
        return v

    # the hard bound rests on Minkowski's inequality, which needs p >= 1
    family = "fuzz.p-below-1" if sum(1.0 / p for p in ps) > 1.0 else "fuzz.p-at-least-1"
    return Task(f"fuzz.trial[{idx}]", family, run, check)


# A draw of seed 1 (the 644th accepted one) that breaks the hard bound: both
# slots on one axis, p = 1.49 each, so the output exponent is about 0.75.
# Such draws are rare (two in about 15,700 accepted draws of earlier runs),
# so most pools of 319 draws hold none; this copy keeps the known defect in
# every pool.
FUZZ_REPRODUCTION = (1, [0.714206], [(1, 0.503658, 0.794234), (1, 0.546037, 0.77406)],
                     [0.505399, -0.156408], [1.494747, 1.489055], [0.139439, 0.138683])


def build_fuzz(seed: int, workdir: Path, tasks: int = 320):
    points = spread_points(seed, "fuzz.trial", 17)
    out = []
    for i in range(tasks - 1):
        params = _fuzz_draw(next(points))
        while not _fuzz_accept(params):
            params = _fuzz_draw(next(points))
        out.append(_fuzz_task(i, params))
    out.append(_fuzz_task("reproduction p<1", FUZZ_REPRODUCTION))
    return out, 16  # one kind of task, so a cycle is just a window of draws


# ---------------------------------------------------------------------------
# cube: forced tensor Gauss-Kronrod on monomial kernels, n = 1, 2, 3
# ---------------------------------------------------------------------------

def _cube_face_exponents(n, u):
    """Face exponents b_i; for n >= 2 they stay negative.

    A positive non-integer face exponent gets no grading (kappa = 1), and in
    two dimensions the adaptive rule then needs seconds per constant (12.5 s
    for b = 0.05 at tol 1e-8), which one task of a closed loop cannot carry.
    One-dimensional tasks keep the whole range.
    """
    hi = 0.9 if n == 1 else -0.05
    return [lerp(ui, -0.85, hi) for ui in u[:n]]


def _cube_kernel(n, rng, b, gammas):
    """Diagonal kernel s_k = c_k t_k^{e_k} whose psi exponents make the
    face exponents of psi prod_k |s_k|^{gamma_k} equal to b."""
    slots = [(k + 1, r6(c), r6(e)) for k, (c, e) in
             enumerate(zip(rng.uniform(0.3, 1.0, size=n), rng.uniform(0.5, 2.0, size=n)))]
    psi_pows = [r6(bi - e * g) for bi, (_, _, e), g in zip(b, slots, gammas)]
    return psi_pows, slots


def _cube_constant_task(name, rng, u) -> Task:
    n = int(name[-1])
    d = int(rng.integers(1, 3))
    alphas = [float(a) for a in rng.uniform(-0.5, 1.0, size=n)]
    ps = [float(p) for p in rng.uniform(1.5, 6.0, size=n)]
    gammas = lebesgue_gammas(d, alphas, ps)
    psi_pows, slots = _cube_kernel(n, rng, _cube_face_exponents(n, u), gammas)
    sc = monomial_scenario(d, psi_pows, slots, alphas, ps)
    ref = monomial_integral(psi_pows, slots, gammas)

    def run():
        return constants.compute_constant("lebesgue", sc, force_quadrature=True)

    def check(c):
        v = Verdict()
        v.finite("constant", c.value, c.error, c.divergent, ref, QUAD_TOL)
        return v

    return Task(name, name, run, check)


def _cube_apply_task(name, rng, u) -> Task:
    """Quadrature-route apply with pure power inputs r^gamma_k."""
    n = int(name[-1])
    d = int(rng.integers(1, 3))
    gammas = [r6(g) for g in rng.uniform(-0.6, 0.5, size=n)]
    psi_pows, slots = _cube_kernel(n, rng, _cube_face_exponents(n, u), gammas)
    sc = monomial_scenario(d, psi_pows, slots, [0.0] * n, [2.0] * n)
    inst = OperatorInstance(sc, tuple(RadialFunction(parse(f"r^({g:.6f})", 0)) for g in gammas))
    x = rng.uniform(0.5, 4.0, size=d)
    ref = monomial_integral(psi_pows, slots, gammas, x_r=float(np.linalg.norm(x)))

    def run():
        return operators.apply(inst, x, force_quadrature=True)

    def check(res):
        v = Verdict()
        v.finite("apply", res.value, res.abs_error_estimate, res.divergent, ref, QUAD_TOL)
        return v

    return Task(name, name, run, check)


def _orthant_task(name, rng, u) -> Task:
    """psi = exp(-t), s = c/t on the orthant: constant c^gamma Gamma(1-gamma)."""
    d = int(rng.integers(1, 3))
    alpha = float(rng.uniform(-0.5, 1.0))
    p = float(rng.uniform(1.5, 6.0))
    c = lerp(u[0], 0.3, 3.0)
    kernel = KernelSpec(m=1, n=1, psi=parse("exp(-t1)", 1), s=(parse(f"{c:.6f}/t1", 1),),
                        domain="positive-orthant")
    sc = Scenario(d=d, kernel=kernel, weights=(isotropic(d, alpha),), p=(p,))
    g = -(d + alpha) / p
    ref = c ** g * math.gamma(1.0 - g)

    def run():
        return constants.compute_constant("lebesgue-hausdorff", sc)

    def check(res):
        v = Verdict()
        v.finite("constant", res.value, res.error, res.divergent, ref, 1e-5)
        return v

    return Task(name, name, run, check)


CUBE_CYCLE = (["cube.const-n1", "cube.orthant", "cube.apply-n1"] + ["cube.apply-n2"] * 2
              + ["cube.const-n2"] * 10 + ["cube.const-n3"] * 2)


def _cube_task(name, rng, u) -> Task:
    if name.startswith("cube.const"):
        return _cube_constant_task(name, rng, u)
    if name.startswith("cube.apply"):
        return _cube_apply_task(name, rng, u)
    return _orthant_task(name, rng, u)


# ---------------------------------------------------------------------------
# edge: probes, divergence decisions, capped opaque inputs, faces near -1
# ---------------------------------------------------------------------------

def one_slot(psi: str, p: float = 2.0) -> Scenario:
    kernel = KernelSpec(m=1, n=1, psi=parse(psi, 1), s=(parse("t1", 1),))
    return Scenario(d=1, kernel=kernel, weights=(isotropic(1, 0.0),), p=(p,))


def _constant_task(name, family, sc, force, ref) -> Task:
    """ref is a finite reference value, or None when divergence is expected."""

    def run():
        return constants.compute_constant("lebesgue", sc, force_quadrature=force)

    def check(c):
        v = Verdict()
        if ref is None:
            v.divergent("constant", c.divergent, c.value)
        else:
            v.finite("constant", c.value, c.error, c.divergent, ref, QUAD_TOL)
        return v

    return Task(name, family, run, check)


def _edge_floor(rng, u) -> Task:
    """psi = t^a, s = t, p = 2: face exponent b = a - 1/2, exact 1/(1+b)."""
    b = lerp(u[0], -0.999, -0.9)
    return _constant_task(f"edge.floor[b={b:.6f}]", "edge.floor",
                          one_slot(f"t1^({b + 0.5:.6f})"), True, 1.0 / (1.0 + b))


def _edge_probe(rng, u) -> Task:
    """psi = exp(t) t^a has no closed form, so its face exponent is probed."""
    b = lerp(u[0], -0.999, -0.8)
    return _constant_task(f"edge.probe[b={b:.6f}]", "edge.probe",
                          one_slot(f"exp(t1) * t1^({b + 0.5:.6f})"), False,
                          exp_power_moment(b))


def _edge_sym_div(rng, u) -> Task:
    b = lerp(u[0], -1.5, -1.0)
    return _constant_task(f"edge.sym-div[b={b:.6f}]", "edge.sym-div",
                          one_slot(f"t1^({b + 0.5:.6f})"), True, None)


def _edge_scan_div(rng, u) -> Task:
    b = lerp(u[0], -1.5, -1.0)
    return _constant_task(f"edge.scan-div[b={b:.6f}]", "edge.scan-div",
                          one_slot(f"exp(t1) * t1^({b + 0.5:.6f})"), False, None)


def _edge_log_face(rng, u) -> Task:
    """log(1/t)^-c ~ (1-t)^-c at t = 1: divergent for c >= 1."""
    b = lerp(u[0], -0.8, 0.0)
    c = lerp(u[1], 1.0, 2.5)
    return _constant_task(f"edge.log-face[b={b:.6f},c={c:.6f}]", "edge.log-face",
                          one_slot(f"exp(t1) * t1^({b + 0.5:.6f}) * pow(log(1/t1), {-c:.6f})"),
                          False, None)


class _Combination:
    """An opaque (non-RadialFunction) input: a * g1 + b * g2."""

    def __init__(self, a, g1, b, g2):
        self.a, self.g1, self.b, self.g2 = a, g1, b, g2

    def __call__(self, pts):
        return self.a * self.g1(pts) + self.b * self.g2(pts)


def _edge_opaque(name, n, g, a, b, x_r, max_cells, cutoff) -> Task:
    """T(a g1 + b g2, f2...) with g1, g2, f2... = r^g[k] (cut off below
    ``cutoff``) by quadrature with a reduced cell cap, so the cap is hit and
    the divergence scan runs; the reference is a T(g1, ...) + b T(g2, ...)
    from separable moments."""
    g1, g2, *rest = (power_profile(gk, inner_cutoff=cutoff) for gk in g)
    kernel = KernelSpec(m=n, n=n, psi=parse("1", n),
                        s=tuple(parse(f"t{k + 1}", n) for k in range(n)))
    sc = Scenario(d=1, kernel=kernel, weights=(isotropic(1, 0.0),) * n, p=(4.0,) * n)
    inst = OperatorInstance(sc, (_Combination(a, g1, b, g2), *rest))
    slots = [(k + 1, 1.0, 1.0) for k in range(n)]
    cuts = [cutoff] * n
    ref = (a * monomial_integral([0.0] * n, slots, [g[0], *g[2:]], x_r, cuts)
           + b * monomial_integral([0.0] * n, slots, [g[1], *g[2:]], x_r, cuts))

    def run():
        return operators.apply(inst, np.array([x_r]), max_cells=max_cells)

    def check(res):
        v = Verdict()
        v.finite("apply", res.value, res.abs_error_estimate, res.divergent, ref, QUAD_TOL)
        return v

    return Task(name, name.split("[")[0], run, check)


def _edge_opaque_n1(rng, u) -> Task:
    g = [lerp(u[0], -0.5, -0.1), lerp(u[1], -0.5, -0.1)]
    a, b = (r6(x) for x in rng.uniform(-2.0, 2.0, size=2))
    x_r = lerp(u[2], 2.0, 5.0)
    return _edge_opaque(f"edge.opaque-n1[x={x_r:.6f}]", 1, g, a, b, x_r, 8, 1.0)


EDGE_CYCLE = (["edge.floor"] * 7 + ["edge.probe"] * 12 + ["edge.sym-div"] * 4
              + ["edge.scan-div"] * 4 + ["edge.log-face"] * 4 + ["edge.opaque-n1"] * 3)


def _edge_task(name, rng, u) -> Task:
    return {
        "edge.floor": _edge_floor,
        "edge.probe": _edge_probe,
        "edge.sym-div": _edge_sym_div,
        "edge.scan-div": _edge_scan_div,
        "edge.log-face": _edge_log_face,
        "edge.opaque-n1": _edge_opaque_n1,
    }[name](rng, u)


def _cycled(seed, cycle, make, cycles, fixed=(), points_seed=None) -> list[Task]:
    """cycles x the cycle's task kinds, each cycle shuffled; the cost-setting
    parameters of each kind come from its spread_points (drawn from
    points_seed when it is given, else from seed), the rest from an rng
    seeded by (seed, cycle, position); the fixed tasks close each cycle."""
    streams = {kind: spread_points(seed if points_seed is None else points_seed, kind, 3)
               for kind in set(cycle)}
    out = []
    for c in range(cycles):
        order = np.random.default_rng([seed, c]).permutation(len(cycle))
        for pos in order:
            rng = np.random.default_rng([seed, c, int(pos), 1])
            out.append(make(cycle[pos], rng, next(streams[cycle[pos]])))
        out.extend(f() for f in fixed)
    return out


def build_cube(seed: int, workdir: Path, cycles: int = 10):
    # The face exponents set a task's cost, and steeply for n = 2 and 3: with
    # 20 three-dimensional tasks a pool, two seed shifts of the sequence gave
    # const-n3 means of 124 and 166 ms and moved the p90 tail by a quarter.
    # So every seed grades the same face exponents (points_seed 0), assigned
    # to its own kernels, weights, exponents and dimensions, in its own order.
    return (_cycled(seed, CUBE_CYCLE, _cube_task, cycles, points_seed=0),
            len(CUBE_CYCLE))


def build_edge(seed: int, workdir: Path, cycles: int = 8):
    # Fixed inputs close every cycle: the two documented reproductions
    # (t^-0.499 with p = 2, exact value 1000; a log face diverging at t = 1)
    # and an n = 2 opaque input capped at 50 cells (76 would converge), the
    # heaviest task of the cycle (1 of 37, so above the p90 tail, which falls
    # among the scans of the log-face and scan-div tasks).
    # Drawn n = 2 opaque inputs are not used: their divergence scan costs
    # 0.1 s to 5.5 s depending on the exponents, and the 1.7 s capped case
    # with cutoffs from the linearity test would move tasks_per_s of a 20 s
    # run by a tenth.
    fixed = (
        lambda: _constant_task("edge.floor[reproduction t1^-0.499]", "edge.floor",
                               one_slot("t1^(-0.499)"), True, 1000.0),
        lambda: _constant_task("edge.log-face[reproduction]", "edge.log-face",
                               one_slot("exp(t1)*t1^(-0.5)*pow(log(1/t1),-2)"), False, None),
        lambda: _edge_opaque("edge.opaque-n2[fixed]", 2, [-0.3, -0.45, -0.2],
                             1.5, -0.7, 3.7, 50, None),
    )
    return _cycled(seed, EDGE_CYCLE, _edge_task, cycles, fixed), len(EDGE_CYCLE) + len(fixed)


# ---------------------------------------------------------------------------
# suite: bundled scenarios plus generated norms / eval files through cli.run
# ---------------------------------------------------------------------------

def _cli_task(name, command, scenario_path: Path, report_path: Path,
              expect_code: int, check_report) -> Task:
    """cli.run into a report file; check_report(report, verdict) reads it
    (reports write infinities as "inf", which float() accepts)."""
    flags = {"no_timestamp": True}

    def run():
        return cli.run(command, scenario_path, report_path, flags)

    def check(code):
        v = Verdict()
        if code != expect_code:
            v.fail("status", f"exit code {code}, expected {expect_code}")
            return v
        check_report(json.loads(report_path.read_text()), v)
        return v

    return Task(name, name.split("[")[0], run, check)


def _bundled_tasks(report_dir: Path) -> list[Task]:
    out = []
    for path in sorted(cli.bundled_scenario_dir().glob("*.json")):
        task = json.loads(path.read_text()).get("task", {})
        params = task.get("params", {})
        command = task.get("command", "constant")
        expect = 2 if params.get("expect") == "divergent" else 0

        def check_report(rep, v, params=params):
            if "expected_value" in params:
                c = rep["results"]["constant"]
                v.finite("constant", float(c["value"]), float(c["error"]),
                         c["divergent"], float(params["expected_value"]),
                         float(params.get("rel_tol", 1e-8)))
            if not rep["passed"] and params.get("expect") != "divergent":
                v.fail("status", "report says not passed")

        out.append(_cli_task(f"suite.{path.stem}", command, path,
                             report_dir / f"{path.stem}.json", expect, check_report))
    return out


def _norms_file(u, path: Path):
    """Morrey-mode one-slot scenario with a cutoff power input and the log
    symbol; returns the closed-form references."""
    d = 1 if u[0] < 0.5 else 2
    alpha = lerp(u[1], -0.5, 1.0)
    p = lerp(u[2], 1.5, 4.0)
    lam = r6(lerp(u[3], -0.9, -0.1) / p)
    gamma = r6(-(d + alpha) / p - lerp(u[4], 0.05, 1.0))
    r0 = lerp(u[5], 1.0, 2.0)
    doc = {
        "meta": {"name": path.stem},
        "geometry": {"d": d},
        "kernel": {"m": 1, "n": 1, "domain": "unit-cube", "psi": "1", "s": ["t1"]},
        "weights": [{"degree": alpha, "kind": "isotropic", "params": {"c": 1.0}}],
        "exponents": {"p": [p], "lambda": [lam]},
        "task": {"command": "norms", "params": {
            "inputs": [{"profile": f"r^({gamma:.6f})", "inner_cutoff": r0}],
            "symbols": [{"profile": "log(r)"}]}},
    }
    path.write_text(json.dumps(doc))
    return (cutoff_lp_norm(d, alpha, p, gamma, r0),
            cutoff_morrey_norm(d, alpha, p, lam, gamma, r0),
            1.0 / (d + alpha))  # CMO of log|x| with q = 2 is 1/(d+alpha)


def _norms_task(u, scen_dir: Path, report_dir: Path, tag: str) -> Task:
    path = scen_dir / f"{tag}.json"
    ref_lp, ref_morrey, ref_cmo = _norms_file(u, path)

    def check_report(rep, v):
        entry, sym = rep["results"]["norms"]
        for label, res, ref, tol in (("lebesgue", entry["lebesgue"], ref_lp, CLOSED_TOL),
                                     ("central_morrey", entry["central_morrey"], ref_morrey, CLOSED_TOL),
                                     ("cmo", sym["cmo"], ref_cmo, CLOSED_TOL)):
            v.finite(label, float(res["value"]), float(res["error"]),
                     res["status"] != "finite", ref, tol)

    return _cli_task(f"suite.gen-norms[{tag}]", "norms", path,
                     report_dir / f"{tag}.json", 0, check_report)


def _eval_task(rng, scen_dir: Path, report_dir: Path, tag: str) -> Task:
    """Two-slot diagonal kernel, cutoff power inputs, four points:
    references from the windowed monomial moments."""
    n = 2
    d = int(rng.integers(1, 3))
    psi_pows = [r6(a) for a in rng.uniform(-0.4, 1.0, size=n)]
    slots = [(k + 1, r6(c), r6(e)) for k, (c, e) in
             enumerate(zip(rng.uniform(0.3, 1.0, size=n), rng.uniform(0.5, 2.0, size=n)))]
    gam = [r6(g) for g in rng.uniform(-0.3, 0.5, size=n)]
    cuts = [r6(c) for c in rng.uniform(0.2, 1.0, size=n)]
    points = [[r6(x) for x in rng.uniform(-4.0, 4.0, size=d)] for _ in range(4)]
    doc = {
        "meta": {"name": tag},
        "geometry": {"d": d},
        "kernel": {"m": n, "n": n, "domain": "unit-cube",
                   "psi": " * ".join(f"t{i + 1}^({a:.6f})" for i, a in enumerate(psi_pows)),
                   "s": [f"{c:.6f} * t{axis}^({e:.6f})" for axis, c, e in slots]},
        "weights": [{"degree": 0.0, "kind": "isotropic", "params": {"c": 1.0}}] * n,
        "exponents": {"p": [2.0] * n},
        "task": {"command": "eval", "params": {
            "inputs": [{"profile": f"r^({g:.6f})", "inner_cutoff": c}
                       for g, c in zip(gam, cuts)],
            "points": points}},
    }
    path = scen_dir / f"{tag}.json"
    path.write_text(json.dumps(doc))
    refs = [monomial_integral(psi_pows, slots, gam, float(np.linalg.norm(pt)), cuts)
            for pt in points]

    def check_report(rep, v):
        for i, (ev, ref) in enumerate(zip(rep["results"]["evaluations"], refs)):
            res = ev["result"]
            v.finite(f"point[{i}]", float(res["value"]), float(res["abs_error_estimate"]),
                     res["status"] == "divergent", ref, CLOSED_TOL)

    return _cli_task(f"suite.gen-eval[{tag}]", "eval", path,
                     report_dir / f"{tag}.json", 0, check_report)


# Per pass: the ten bundled scenarios, 48 norms files (about 0.3 s each)
# and 80 two-slot eval files (about 3 ms each), 138 tasks in all.  The cheap
# eval files put the median inside one homogeneous kind (a cli round trip);
# the p90 tail (13 tasks of a pass beyond it) falls inside the norms band,
# above which only fuzz-quick (0.8 s) and part of the norms lie.  A norms
# file takes 0.19 s to 0.58 s, and no single drawn parameter sets which, so
# the tail moves with the files a seed draws: with 28 files a pool, it
# spread by 10% to 15% over ten seeds.
SUITE_GENERATED = ["norms"] * 48 + ["eval"] * 80


def build_suite(seed: int, workdir: Path, passes: int = 1):
    scen_dir = workdir / "scenarios"
    report_dir = workdir / "reports"
    scen_dir.mkdir(parents=True, exist_ok=True)
    report_dir.mkdir(parents=True, exist_ok=True)
    bundled = _bundled_tasks(report_dir)
    norms = spread_points(seed, "suite.gen-norms", 6)
    out = []
    for c in range(passes):
        rng = np.random.default_rng([seed, c])
        tasks = list(bundled)
        for j, kind in enumerate(SUITE_GENERATED):
            tag = f"gen-{kind}-{c}-{j}"
            if kind == "norms":
                tasks.append(_norms_task(next(norms), scen_dir, report_dir, tag))
            else:
                tasks.append(_eval_task(rng, scen_dir, report_dir, tag))
        out.extend(tasks[i] for i in rng.permutation(len(tasks)))
    return out, len(bundled) + len(SUITE_GENERATED)


# Each builder returns (tasks, tasks per cycle): the pool of distinct tasks a
# run repeats, at least 100 of them, and the length of the cycle that holds
# every task kind once in the workload's mix.
BUILDERS = {"fuzz": build_fuzz, "cube": build_cube, "edge": build_edge,
            "suite": build_suite}

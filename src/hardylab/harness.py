"""Sharpness experiments: extremal sweeps, bound fuzzing, witness identities.

The sufficiency direction of the Lebesgue bound is a hard inequality,

    ||T(f_1,...,f_m)||_{p,omega} <= A * prod_k ||f_k||_{p_k,omega_k},

so every numerically computed ratio must stay below A.  Sharpness is the
converse statement: along the cutoff power family with slot exponents
-(d+alpha_k)/p_k - p eps/p_k the ratio climbs to A as eps -> 0+.  The sweep
reproduces that climb, checks monotonicity, and extrapolates the limit from
the last three epsilon points.

The outer radial norm of the operator output is integrated up to r = 2^40;
beyond that the integrand is a power times a factor W(r)^p squeezed between
W(2^40)^p and the cutoff-free ceiling, so the tail is added analytically
with the bracket width as its error bar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as _expr
from .constants import compute_constant
from .expr import parse
from .kernels import (KernelSpec, Scenario, _as_fraction,
                      check_morrey_balance, cube_points)
from .operators import (OperatorInstance, apply, apply_radial_closed_form,
                        separable_profile)
from .quad import integrate_interval
from .spaces import (NormResult, RadialFunction, central_morrey_norm,
                     lp_norm, make_witness_lp, power_profile, log_profile)
from .weights import isotropic

__all__ = [
    "SweepPoint",
    "SweepReport",
    "sharpness_sweep",
    "upper_bound_fuzz",
    "morrey_extremal_check",
    "commutator_witness_check",
    "operator_radial_lp_norm",
]

_TAIL_RADIUS = 2.0 ** 40
DEFAULT_EPS_GRID = (0.1, 0.03, 0.01, 0.003, 0.001)


# ---------------------------------------------------------------------------
# outer radial norm of an operator output
# ---------------------------------------------------------------------------

def _support_start(inst: OperatorInstance) -> float:
    """Largest r below which the output provably vanishes (cutoff inputs)."""
    kernel = inst.scenario.kernel
    cuts = []
    for f in inst.inputs:
        if not isinstance(f, RadialFunction) or f.inner_cutoff is None:
            return 0.0
        cuts.append(f.inner_cutoff)
    pts = cube_points(kernel.n, grid=33, seed=3)
    best = np.full(pts.shape[0], math.inf)
    for k, sk in enumerate(kernel.s):
        vals = np.abs(_expr.evaluate(sk, t=pts)) / cuts[k]
        best = np.minimum(best, vals)
    s_star = float(np.max(best))
    if s_star <= 0.0:
        return math.inf
    # one octave of padding against the finite sample resolution
    return 0.5 / s_star


def operator_radial_lp_norm(inst: OperatorInstance, outer_tol: float = 1e-9,
                            inner_tol: float | None = None) -> NormResult:
    """||T(f_1,...,f_m)||_{p, omega} for radial power (optionally cutoff)
    inputs, by 1-D quadrature of the radial profile r -> T(f)(x_r).

    The profile is integrated over [support, 2^40] (log-spaced above r = 1)
    and the tail is bracketed analytically between the last computed profile
    value and the cutoff-free ceiling.
    """
    s = inst.scenario
    p = s.p_out
    w = s.omega
    d = s.d
    alpha = w.degree
    sphere = w.sphere_integral()
    exps = []
    for f in inst.inputs:
        if not isinstance(f, RadialFunction):
            raise ValueError("operator norms are computed for radial inputs")
        pw = f.power_form()
        if pw is None:
            raise ValueError("operator norms need power-profile inputs")
        exps.append(pw[1])
    sum_gamma = float(sum(exps))

    unit = np.zeros(d)
    unit[0] = 1.0

    separable = separable_profile(inst)

    def profile(rs: np.ndarray) -> np.ndarray:
        """T(f)(r e_1) at the radii rs: one separable call when the data
        separate and every radius is positive, else pointwise ``apply`` (a
        divergent value is inf)."""
        if separable is not None and np.all(rs > 0.0):
            vals = separable(rs)
        else:
            vals = np.array([apply(inst, unit * r, tol=inner_tol).value for r in rs])
        if not np.all(np.isfinite(vals)):
            raise ArithmeticError("operator value diverges at a sample radius")
        return vals

    def moment_integrand(rs: np.ndarray) -> np.ndarray:
        return np.abs(profile(rs)) ** p * rs ** (d + alpha - 1.0)

    r_start = _support_start(inst)
    if not math.isfinite(r_start):
        return NormResult(0.0, "radial-quadrature")
    moment = 0.0
    err = 0.0
    if r_start < 1.0:
        res = integrate_interval(moment_integrand, max(r_start, 0.0), 1.0,
                                 sing_a=(None, 0), tol=outer_tol)
        if res.divergent:
            return NormResult(math.inf, "radial-quadrature", math.inf, "divergent")
        moment += res.value
        err += res.abs_error_estimate
    head_lo = max(1.0, r_start)
    if head_lo < _TAIL_RADIUS:
        ln2 = math.log(2.0)

        def logspace_integrand(u: np.ndarray) -> np.ndarray:
            r = 2.0 ** np.atleast_1d(u)
            return moment_integrand(r) * r * ln2

        res = integrate_interval(logspace_integrand, math.log2(head_lo), 40.0,
                                 tol=outer_tol)
        if res.divergent:
            return NormResult(math.inf, "radial-quadrature", math.inf, "divergent")
        moment += res.value
        err += res.abs_error_estimate

    # analytic tail bracket beyond 2^40: the profile is W(r) r^{sum_gamma}
    # with W squeezed between W(2^40) and the cutoff-free ceiling
    tail_exp = p * sum_gamma + d + alpha
    if tail_exp >= 0.0:
        return NormResult(math.inf, "radial-quadrature", math.inf, "divergent")
    T = _TAIL_RADIUS
    v_T = abs(float(profile(np.array([T]))[0]))
    w_tail = v_T / T ** sum_gamma
    bare = OperatorInstance(
        scenario=s,
        inputs=tuple(RadialFunction(f.profile) for f in inst.inputs),
        symbols=inst.symbols,
        mode=inst.mode,
    )
    ceiling_res, _ = apply_radial_closed_form(bare)
    if ceiling_res.divergent:
        # the cutoff-free integral diverges, so W(r) keeps growing; probe the
        # growth rate of the moment integrand empirically, 100% error bar
        h_T = v_T ** p * T ** (d + alpha - 1.0)
        h_2T = abs(float(profile(np.array([2.0 * T]))[0])) ** p \
            * (2.0 * T) ** (d + alpha - 1.0)
        if h_T > 0.0 and h_2T > 0.0:
            sigma = math.log2(h_2T / h_T)
        else:
            sigma = tail_exp - 1.0
        if sigma >= -1.0:
            return NormResult(math.inf, "radial-quadrature", math.inf, "divergent")
        tail = -h_T * T / (sigma + 1.0)
        moment += tail
        err += tail
    else:
        ceiling = abs(ceiling_res.value)
        scale = T ** tail_exp / (-tail_exp)
        tail_lo = w_tail ** p * scale
        tail_hi = ceiling ** p * scale
        moment += 0.5 * (tail_lo + tail_hi)
        err += 0.5 * (tail_hi - tail_lo)

    if moment <= 0.0:
        return NormResult(0.0, "radial-quadrature")
    norm = (sphere * moment) ** (1.0 / p)
    rel = err / moment / p
    return NormResult(norm, "radial-quadrature", error=norm * rel)


# ---------------------------------------------------------------------------
# sharpness sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    eps: float
    ratio: float
    operator_norm: float
    witness_norm_product: float
    status: str = "ok"


@dataclass(frozen=True)
class SweepReport:
    target: float
    points: tuple[SweepPoint, ...]
    extrapolated: float
    bounded: bool
    monotone: bool
    sharp: bool
    passed: bool
    details: dict = field(default_factory=dict)

    def csv_rows(self) -> list[tuple]:
        return [(pt.eps, pt.ratio, self.target, self.target - pt.ratio)
                for pt in self.points]


def _aitken(values: list[float]) -> float:
    """Aitken delta-squared extrapolation of the last three sweep ratios."""
    if len(values) < 3:
        return values[-1]
    r1, r2, r3 = values[-3:]
    denom = (r3 - r2) - (r2 - r1)
    if abs(denom) < 1e-15 * max(abs(r3), 1.0):
        return r3
    return r3 - (r3 - r2) ** 2 / denom


def sharpness_sweep(s: Scenario, eps_grid=DEFAULT_EPS_GRID,
                    sharpness_tol: float = 0.02, mono_slack: float = 1e-6,
                    bound_slack: float = 1e-6,
                    outer_tol: float = 1e-9) -> SweepReport:
    """Ratio ||T(f_eps)|| / prod ||f_k,eps|| along the extremal family.

    Requires a finite Lebesgue constant and a declared beta for the kernel
    (the lower-bound argument needs |s_k| >= min_i t_i^beta).  Per-point
    quadrature failures are recorded and the sweep continues.
    """
    if s.kernel.beta is None:
        raise ValueError("sharpness sweeps need a kernel with a declared beta")
    target = compute_constant("lebesgue", s)
    if target.divergent:
        raise ValueError("the Lebesgue constant is infinite; nothing to sweep")
    eps_grid = tuple(sorted(eps_grid, reverse=True))
    points: list[SweepPoint] = []
    for eps in eps_grid:
        witnesses = make_witness_lp(s, eps)
        inst = OperatorInstance(s, tuple(w.function for w in witnesses))
        denom = float(np.prod([w.norm for w in witnesses]))
        try:
            res = operator_radial_lp_norm(inst, outer_tol=outer_tol)
        except ArithmeticError:
            points.append(SweepPoint(eps, math.nan, math.nan, denom, "divergent"))
            continue
        if res.status == "divergent":
            points.append(SweepPoint(eps, math.nan, math.nan, denom, "divergent"))
            continue
        ratio = res.value / denom
        points.append(SweepPoint(eps, ratio, res.value, denom))
    ratios = [pt.ratio for pt in points if pt.status == "ok"]
    A = target.value
    if not ratios:
        return SweepReport(A, tuple(points), math.nan, False, False, False, False,
                           {"reason": "no usable sweep points"})
    extrapolated = _aitken(ratios)
    bounded = all(r <= A * (1.0 + bound_slack) for r in ratios)
    monotone = all(ratios[i + 1] >= ratios[i] - mono_slack * max(A, 1.0)
                   for i in range(len(ratios) - 1))
    sharp = ratios[-1] >= (1.0 - sharpness_tol) * A
    passed = bounded and monotone and sharp and len(ratios) == len(points)
    return SweepReport(
        target=A, points=tuple(points), extrapolated=extrapolated,
        bounded=bounded, monotone=monotone, sharp=sharp, passed=passed,
        details={"constant_method": target.method,
                 "sharpness_tol": sharpness_tol},
    )


# ---------------------------------------------------------------------------
# upper-bound fuzzing
# ---------------------------------------------------------------------------

def _random_monomial_scenario(rng: np.random.Generator, max_d: int,
                              max_m: int, max_n: int):
    """One random monomial scenario with a finite Lebesgue constant, plus the
    cutoff power inputs used against it."""
    for _ in range(64):
        d = int(rng.integers(1, max_d + 1))
        m = int(rng.integers(1, max_m + 1))
        n = int(rng.integers(1, max_n + 1))
        axes = [int(rng.integers(1, n + 1)) for _ in range(m)]
        coefs = rng.uniform(0.3, 1.0, size=m)
        exps = rng.uniform(0.5, 2.0, size=m)
        psi_pows = rng.uniform(-0.4, 1.0, size=n)
        alphas = rng.uniform(-0.5, 1.0, size=m)
        ps = rng.uniform(1.2, 4.0, size=m)
        deltas = rng.uniform(0.05, 1.0, size=m)

        gam_a = [-(d + alphas[k]) / ps[k] for k in range(m)]
        b = list(psi_pows)
        b_in = list(psi_pows)
        for k in range(m):
            b[axes[k] - 1] += exps[k] * gam_a[k]
            b_in[axes[k] - 1] += exps[k] * (gam_a[k] - deltas[k])
        if any(bi <= -0.9 for bi in b + b_in):
            continue  # keep both constant and ceiling integrals finite, with margin

        psi_txt = " * ".join(f"t{i+1}^{psi_pows[i]:.6f}" for i in range(n))
        s_txts = [f"{coefs[k]:.6f} * t{axes[k]}^{exps[k]:.6f}" for k in range(m)]
        kernel = KernelSpec(m=m, n=n, psi=parse(psi_txt, n),
                            s=tuple(parse(txt, n) for txt in s_txts))
        scenario = Scenario(
            d=d, kernel=kernel,
            weights=tuple(isotropic(d, float(a)) for a in alphas),
            p=tuple(float(p) for p in ps),
        )
        inputs = tuple(
            power_profile(gam_a[k] - float(deltas[k]), inner_cutoff=1.0)
            for k in range(m)
        )
        meta = {"psi": psi_txt, "s": s_txts, "d": d,
                "alphas": [float(a) for a in alphas],
                "p": [float(p) for p in ps],
                "input_exponents": [gam_a[k] - float(deltas[k]) for k in range(m)]}
        return scenario, inputs, meta
    raise RuntimeError("failed to draw a finite-constant scenario")


def upper_bound_fuzz(trials: int = 100, seed: int = 1315, max_d: int = 2,
                     max_m: int = 2, max_n: int = 2,
                     slack: float = 1e-6) -> dict:
    """Randomized check of the hard inequality ||T(f)|| <= A prod ||f_k||.

    Inputs are cutoff powers |x|^{gamma_k} chi_{|x|>=1} with gamma_k strictly
    below the critical exponent.  Any ratio above 1 + slack is a violation
    and is reported with the full scenario for replay.
    """
    max_ratio = 0.0
    worst = None
    violations = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        scenario, inputs, meta = _random_monomial_scenario(rng, max_d, max_m, max_n)
        A = compute_constant("lebesgue", scenario)
        if A.divergent:
            continue
        inst = OperatorInstance(scenario, inputs)
        norms = [lp_norm(f, w, scenario.slot_p(k)).value
                 for k, (f, w) in enumerate(zip(inputs, scenario.weights))]
        denom = A.value * float(np.prod(norms))
        res = operator_radial_lp_norm(inst, outer_tol=1e-8)
        ratio = res.value / denom
        if ratio > max_ratio:
            max_ratio = ratio
            worst = {"trial": trial, "ratio": ratio, **meta}
        if ratio > 1.0 + slack:
            violations.append({"trial": trial, "ratio": ratio, "seed": [seed, trial],
                               **meta})
    return {
        "trials": trials,
        "seed": seed,
        "max_ratio": max_ratio,
        "worst_case": worst,
        "violations": violations,
        "passed": not violations,
    }


# ---------------------------------------------------------------------------
# Morrey extremal ratio
# ---------------------------------------------------------------------------

def _slot_morrey_norm(d: int, w, pk: float, lk: float) -> float:
    """Closed form central Morrey norm of |x|^{(d+alpha_k) lambda_k}."""
    return ((d + w.degree) / w.sphere_integral()) ** lk * (1.0 + lk * pk) ** (-1.0 / pk)


def _normalization_ratio(s: Scenario) -> float:
    d = s.d
    lam = s.lam_out
    p = s.p_out
    top = ((d + s.alpha) / s.omega.sphere_integral()) ** lam * (1.0 + lam * p) ** (-1.0 / p)
    bottom = 1.0
    for w, pk, lk in zip(s.weights, s.p, s.lam):
        bottom *= _slot_morrey_norm(d, w, float(_as_fraction(pk)), lk)
    return top / bottom


def morrey_extremal_check(s: Scenario, tol: float = 1e-3,
                          radii_J: int = 20) -> dict:
    """Extremal ratio for the central Morrey bound.

    With f_k = |x|^{(d+alpha_k) lambda_k} the operator output is the pure
    power B |x|^{(d+alpha) lambda}, whose Morrey norm the bracket engine must
    reproduce as   B * prod_k ||f_k|| * normalization, where normalization is
    exactly the slack ratio of the necessity balance condition (it equals 1
    when that condition holds with equality).
    """
    if s.mode != "morrey":
        raise ValueError("morrey_extremal_check needs a morrey-mode scenario")
    B = compute_constant("morrey", s)
    suff = check_morrey_balance(s, "sufficiency")
    nec = check_morrey_balance(s, "necessity")
    if B.divergent:
        return {"passed": False, "reason": "morrey constant diverges",
                "constant": math.inf,
                "balance_sufficiency": suff, "balance_necessity": nec}
    inputs = tuple(power_profile((s.d + w.degree) * lk)
                   for w, lk in zip(s.weights, s.lam))
    inst = OperatorInstance(s, inputs)
    coeff, exponent = apply_radial_closed_form(inst)
    out_profile = power_profile(exponent, coeff=coeff.value)
    norm = central_morrey_norm(out_profile, s.omega, s.p_out, s.lam_out,
                               J=radii_J, use_grid=True)
    slot_norms = [_slot_morrey_norm(s.d, w, s.slot_p(k), s.lam[k])
                  for k, w in enumerate(s.weights)]
    normalization = _normalization_ratio(s)
    expected = B.value * float(np.prod(slot_norms)) * normalization
    rel_gap = abs(norm.value - expected) / abs(expected)
    spread = 0.0
    if norm.brackets:
        bmax, bmin = max(norm.brackets), min(norm.brackets)
        spread = (bmax - bmin) / max(abs(bmax), 1e-300)
    direction_consistent = (normalization >= 1.0 - 1e-12) == nec.passed
    passed = (norm.status == "finite" and rel_gap <= tol and direction_consistent)
    return {
        "constant": B.value,
        "constant_printed_variant": B.as_printed_value,
        "operator_exponent": exponent,
        "operator_norm": norm.value,
        "norm_status": norm.status,
        "slot_norms": slot_norms,
        "normalization": normalization,
        "expected": expected,
        "rel_gap": rel_gap,
        "bracket_spread": spread,
        "balance_sufficiency": suff,
        "balance_necessity": nec,
        "direction_consistent": direction_consistent,
        "printed_norm_variants": _printed_norm_variants(s),
        "passed": passed,
    }


def _printed_norm_variants(s: Scenario) -> dict:
    """Alternative printed forms of the extremal Morrey norm that circulate;
    recorded next to the derived one so disagreements stay visible."""
    d = s.d
    lam = s.lam_out
    p = s.p_out
    om = s.omega.sphere_integral()
    adopted = ((d + s.alpha) / om) ** lam * (1.0 + lam * p) ** (-1.0 / p)
    inverse_mass = om ** (-lam) * (1.0 / ((d + s.alpha) * (1.0 + lam * p))) ** (1.0 / p)
    return {"adopted": adopted, "inverse_mass_form": inverse_mass}


# ---------------------------------------------------------------------------
# commutator witness chain
# ---------------------------------------------------------------------------

def commutator_witness_check(s: Scenario, tol_pointwise: float = 1e-4,
                             tol_ratio: float = 1e-3,
                             sample_points: int = 16,
                             radii_J: int = 20) -> dict:
    """The log-symbol witness computation behind the commutator necessity.

    With b_k = log|x| and f_k = |x|^{(d+alpha_k) lambda_k}:

    (a) pointwise, the quadrature evaluator must match the closed form
        prod_k |x|^{(d+alpha_k) lambda_k} times the witness integral
        int prod_k |s_k|^{(d+alpha_k) lambda_k} log(1/|s_k|) psi dt;
    (b) the Morrey-norm ratio ||T^b(f)|| / prod ||f_k|| must equal that
        witness integral (times the balance normalization);
    (c) for separated kernels, finiteness of the ratio must agree with
        finiteness of the log-weighted constant.
    """
    if s.mode != "commutator":
        raise ValueError("commutator_witness_check needs a commutator-mode scenario")
    inputs = tuple(power_profile((s.d + w.degree) * lk)
                   for w, lk in zip(s.weights, s.lam))
    symbols = tuple(log_profile() for _ in range(s.m))
    inst = OperatorInstance(s, inputs, symbols, mode="commutator")
    coeff, exponent = apply_radial_closed_form(inst)
    witness_integral = coeff.value

    # (a) pointwise identity at sample radii
    radii = 2.0 ** np.linspace(-3.0, 9.0, sample_points)
    unit = np.zeros(s.d)
    unit[0] = 1.0
    worst_rel = 0.0
    pointwise = []
    for r in radii:
        got = apply(inst, unit * r, force_quadrature=True)
        want = witness_integral * r ** exponent
        rel = abs(got.value - want) / max(abs(want), 1e-300)
        worst_rel = max(worst_rel, rel)
        pointwise.append({"radius": float(r), "value": got.value,
                          "closed_form": want, "rel": rel})
    pointwise_ok = worst_rel <= tol_pointwise

    # (b) Morrey-norm ratio
    lam = s.lam_out
    balanced = abs(exponent - (s.d + s.alpha) * lam) < 1e-12
    slot_norms = [_slot_morrey_norm(s.d, w, s.slot_p(k), s.lam[k])
                  for k, w in enumerate(s.weights)]
    ratio_report: dict = {"balanced": balanced}
    if balanced:
        out_profile = power_profile(exponent, coeff=witness_integral)
        norm = central_morrey_norm(out_profile, s.omega, s.p_out, lam,
                                   J=radii_J, use_grid=True)
        normalization = _normalization_ratio(s)
        expected = witness_integral * normalization
        ratio = norm.value / float(np.prod(slot_norms))
        rel_gap = abs(ratio - expected) / max(abs(expected), 1e-300)
        ratio_report.update({
            "operator_morrey_norm": norm.value,
            "norm_status": norm.status,
            "ratio": ratio,
            "witness_integral": witness_integral,
            "normalization": normalization,
            "rel_gap": rel_gap,
            "ok": norm.status == "finite" and rel_gap <= tol_ratio,
        })
    else:
        ratio_report.update({
            "ok": False,
            "reason": "output exponent does not balance the target space; "
                      "the Morrey supremum is unbounded",
        })

    # (c) finiteness transfer to the log-weighted constant
    D = compute_constant("commutator-log", s)
    C = compute_constant("commutator-power", s)
    separation = _kernel_separation(s.kernel)
    finiteness_ok = True
    if separation["separated"]:
        finiteness_ok = (math.isfinite(witness_integral) == D.finite == C.finite)
    report = {
        "witness_integral": witness_integral,
        "witness_exponent": exponent,
        "pointwise_worst_rel": worst_rel,
        "pointwise_ok": pointwise_ok,
        "pointwise": pointwise,
        "ratio": ratio_report,
        "log_constant": D.value,
        "log_constant_divergent": D.divergent,
        "power_constant": C.value,
        "power_constant_divergent": C.divergent,
        "kernel_separation": separation,
        "finiteness_consistent": finiteness_ok,
        "passed": pointwise_ok and ratio_report.get("ok", False) and finiteness_ok,
    }
    return report


def _kernel_separation(kernel: KernelSpec) -> dict:
    """Sampled check whether each |s_k| stays <= c < 1 or >= c > 1."""
    pts = cube_points(kernel.n, grid=65, seed=5)
    sides = []
    for sk in kernel.s:
        vals = np.abs(_expr.evaluate(sk, t=pts))
        if float(np.max(vals)) < 1.0 - 1e-9:
            sides.append("below")
        elif float(np.min(vals)) > 1.0 + 1e-9:
            sides.append("above")
        else:
            sides.append("mixed")
    return {"separated": all(side != "mixed" for side in sides), "sides": sides}

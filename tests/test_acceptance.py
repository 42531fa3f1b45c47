"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here; run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from hardylab.constants import compute_constant
from hardylab.expr import parse
from hardylab.harness import (commutator_witness_check, morrey_extremal_check,
                              sharpness_sweep, upper_bound_fuzz)
from hardylab.kernels import (KernelSpec, Scenario, check_morrey_balance,
                              check_walpha_condition)
from hardylab.spaces import (cmo_norm, log_bmo_check, log_profile, lp_norm,
                             power_profile)
from hardylab.weights import isotropic

from conftest import diagonal_scenario, hardy_scenario


def report(number: int, label: str, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {number:02d} [{'PASS' if passed else 'FAIL'}] {label}"
    if detail:
        line += f" -- {detail}"
    print(line, flush=True)
    assert passed, line


def test_criterion_01_hardy_constant():
    t0 = time.time()
    worst_closed = worst_quad = 0.0
    for p in (1.5, 2.0, 3.0):
        s = hardy_scenario(p=p)
        want = p / (p - 1.0)
        closed = compute_constant("lebesgue", s)
        quad = compute_constant("lebesgue", s, force_quadrature=True)
        worst_closed = max(worst_closed, abs(closed.value - want) / want)
        worst_quad = max(worst_quad, abs(quad.value - want) / want)
    elapsed = time.time() - t0
    ok = worst_closed <= 1e-8 and worst_quad <= 1e-6 and elapsed < 1.0
    report(1, "one-slot constant-density bound equals p/(p-1)", ok,
           f"closed rel {worst_closed:.2e}, quad rel {worst_quad:.2e}, {elapsed:.2f}s")


def test_criterion_02_power_density_reduction():
    p = 2.0
    worst = 0.0
    for a in (0.75, 0.2, -0.1, -0.4):
        k = KernelSpec(m=1, n=1, psi=parse(f"t1^{a}", 1), s=(parse("t1", 1),))
        s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(p,))
        c = compute_constant("lebesgue", s)
        want = 1.0 / (a + 1.0 - 1.0 / p)
        worst = max(worst, abs(c.value - want) / want)
    flagged = True
    for a in (1.0 / p - 1.0, 1.0 / p - 1.3):
        k = KernelSpec(m=1, n=1, psi=parse(f"t1^{a}", 1), s=(parse("t1", 1),))
        s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(p,))
        flagged &= compute_constant("lebesgue", s).divergent
    ok = worst <= 1e-8 and flagged
    report(2, "power-density family: value 1/(a+1-1/p), divergence at the edge",
           ok, f"worst rel {worst:.2e}, divergence flagged: {flagged}")


def test_criterion_03_witness_norms():
    p = 2.0
    worst = 0.0
    for d in (1, 2, 3):
        for alpha in (-0.5, 0.0, 1.0):
            w = isotropic(d, alpha)
            for eps in (1e-1, 1e-2, 1e-3):
                f = power_profile(-(d + alpha) / p - eps, inner_cutoff=1.0)
                want = (w.sphere_integral() / (p * eps)) ** (1.0 / p)
                closed = lp_norm(f, w, p)
                quad = lp_norm(f, w, p, force_quadrature=True)
                worst = max(worst,
                            abs(closed.value - want) / want,
                            abs(quad.value - want) / want)
    ok = worst <= 1e-4
    report(3, "extremal-family norms match (mass/(p eps))^{1/p}", ok,
           f"worst rel {worst:.2e} over d in 1..3, alpha in {{-0.5,0,1}}")


def test_criterion_04_two_slot_quadrature():
    t0 = time.time()
    s = diagonal_scenario(p=(4, 4))
    c = compute_constant("lebesgue", s, force_quadrature=True)
    rel = abs(c.value - 16.0 / 9.0) * 9.0 / 16.0
    elapsed = time.time() - t0
    ok = rel <= 1e-6 and elapsed < 5.0
    report(4, "two-slot diagonal constant 16/9 by quadrature", ok,
           f"rel {rel:.2e}, {elapsed:.2f}s")


@pytest.mark.parametrize("scenario_name,builder,target", [
    ("one-slot", lambda: hardy_scenario(p=2.0), 2.0),
    ("two-slot", lambda: diagonal_scenario(p=(4, 4)), 16.0 / 9.0),
])
def test_criterion_05_sharpness_sweeps(scenario_name, builder, target):
    t0 = time.time()
    rep = sharpness_sweep(builder())
    elapsed = time.time() - t0
    ratios = [pt.ratio for pt in rep.points]
    bounded = all(r <= rep.target * (1 + 1e-6) for r in ratios)
    monotone = all(ratios[i + 1] >= ratios[i] - 1e-6 for i in range(len(ratios) - 1))
    sharp = ratios[-1] >= 0.98 * rep.target
    ok = bounded and monotone and sharp and elapsed < 60.0 \
        and rep.target == pytest.approx(target, rel=1e-10)
    report(5, f"sharpness sweep ({scenario_name})", ok,
           f"last ratio {ratios[-1]:.6f} vs target {rep.target:.6f}, {elapsed:.1f}s")


def test_criterion_06_morrey_extremal():
    s = diagonal_scenario(p=(4, 4), lam=(-0.125, -0.125))
    rep = morrey_extremal_check(s, tol=1e-6)
    ok = rep["passed"] and rep["rel_gap"] <= 1e-6 and rep["bracket_spread"] <= 1e-10
    report(6, "central Morrey extremal ratio with radius-independent bracket",
           ok, f"rel gap {rep['rel_gap']:.2e}, bracket spread {rep['bracket_spread']:.2e}")


def test_criterion_07_commutator_witness():
    k = KernelSpec(m=1, n=1, psi=parse("1", 1), s=(parse("t1", 1),), beta=1.0)
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(3,), q=(6,),
                 lam=(-0.25,))
    rep = commutator_witness_check(s, tol_pointwise=1e-4)
    integral_rel = abs(rep["witness_integral"] - 16.0 / 9.0) * 9.0 / 16.0
    # independent log-moment value through the quadrature route as well
    quad = compute_constant("commutator-log", s, force_quadrature=True)
    quad_rel = abs(quad.value - 16.0 / 9.0) * 9.0 / 16.0
    ok = rep["passed"] and rep["pointwise_worst_rel"] <= 1e-4 \
        and integral_rel <= 1e-6 and quad_rel <= 1e-6
    report(7, "commutator witness: pointwise identity and log-moment integral",
           ok, f"pointwise rel {rep['pointwise_worst_rel']:.2e}, "
               f"integral rel {max(integral_rel, quad_rel):.2e}")


def test_criterion_08_hausdorff_gamma():
    worst = 0.0
    for p in (2.0, 3.0):
        k = KernelSpec(m=1, n=1, psi=parse("exp(-t1)", 1), s=(parse("1/t1", 1),),
                       domain="positive-orthant")
        s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(p,))
        c = compute_constant("lebesgue-hausdorff", s)
        want = math.gamma(1.0 + 1.0 / p)
        worst = max(worst, abs(c.value - want) / want)
    ok = worst <= 1e-5
    report(8, "orthant constant equals Gamma(1+1/p) via the orthant transform",
           ok, f"worst rel {worst:.2e}")


def test_criterion_09_condition_checks():
    worst_w = 0.0
    for d, alphas, ps in ((1, (0.5, -0.3), (2, 3)), (2, (1.0, 0.0), (4, 4)),
                          (3, (-1.5, 2.0), (3, 6))):
        k = KernelSpec(m=2, n=2, psi=parse("1", 2),
                       s=(parse("t1", 2), parse("t2", 2)))
        s = Scenario(d=d, kernel=k,
                     weights=tuple(isotropic(d, a) for a in alphas), p=ps)
        rep = check_walpha_condition(s)
        worst_w = max(worst_w, abs(rep.slack) / rep.lhs)
    s = diagonal_scenario(p=(4, 4), lam=(-0.125, -0.125))
    suff = check_morrey_balance(s, "sufficiency")
    nec = check_morrey_balance(s, "necessity")
    ok = worst_w <= 1e-12 and abs(suff.slack) <= 1e-12 and nec.passed \
        and abs(nec.slack) <= 1e-12
    report(9, "weight-vector equality and Morrey balance conditions", ok,
           f"weight-vector rel slack {worst_w:.2e}, balance slacks "
           f"{suff.slack:.2e}/{nec.slack:.2e}")


def test_criterion_10_fuzzing():
    t0 = time.time()
    rep = upper_bound_fuzz(trials=100, seed=1315, max_d=2, max_m=2, max_n=2)
    elapsed = time.time() - t0
    ok = rep["passed"] and rep["max_ratio"] <= 1.0 + 1e-6 and elapsed < 300.0
    report(10, "100 random monomial scenarios respect the hard upper bound",
           ok, f"max ratio {rep['max_ratio']:.8f}, {elapsed:.1f}s")


def test_criterion_11_log_bmo():
    centers = np.linspace(-7.75, 7.75, 32)
    ok = True
    details = []
    for alpha in (0.0, 1.0, -0.5):
        rep = log_bmo_check(isotropic(1, alpha), centers)
        ok &= rep["passed"]
        details.append(f"alpha={alpha}: far margin {-rep['worst_margin_far']:.3f}, "
                       f"near margin {-rep['worst_margin_near']:.3f}")
    report(11, "log|x| oscillation bounds on a 32-center grid", ok,
           "; ".join(details))


def test_criterion_12_cmo_of_log():
    res = cmo_norm(log_profile(), isotropic(1, 0.0), 2.0, 0.0)
    spread = max(res.brackets) - min(res.brackets)
    rel = abs(res.value - 1.0)
    ok = rel <= 1e-8 and spread <= 1e-8
    report(12, "central oscillation of log|x| equals 1 with constant brackets",
           ok, f"value rel {rel:.2e}, bracket spread {spread:.2e}")

import math

import numpy as np
import pytest

from hardylab import harness, kernels, operators, spaces
from hardylab.expr import parse
from hardylab.harness import (commutator_witness_check, morrey_extremal_check,
                              operator_radial_lp_norm, sharpness_sweep,
                              upper_bound_fuzz)
from hardylab.kernels import KernelSpec, Scenario, check_morrey_balance
from hardylab.operators import OperatorInstance
from hardylab.spaces import make_witness_lp, power_profile
from hardylab.weights import isotropic

from conftest import diagonal_scenario, hardy_scenario


def hardy_ratio_oracle(eps: float) -> float:
    """Closed form of ||T f_eps||_2 / ||f_eps||_2 for the single-slot constant
    density scenario at p = 2: the profile of T f_eps is known explicitly and
    every radial moment is elementary."""
    norm_sq = 2.0 / (0.5 - eps) ** 2 * (1.0 / (2.0 * eps) - 2.0 / (0.5 + eps) + 1.0)
    return math.sqrt(norm_sq * eps)


def test_operator_norm_matches_hand_computation():
    s = hardy_scenario(p=2.0)
    eps = 0.1
    wit = make_witness_lp(s, eps)
    inst = OperatorInstance(s, (wit[0].function,))
    res = operator_radial_lp_norm(inst)
    want = hardy_ratio_oracle(eps) * wit[0].norm
    assert res.value == pytest.approx(want, rel=1e-6)


def test_sharpness_sweep_hardy_against_oracle():
    s = hardy_scenario(p=2.0)
    rep = sharpness_sweep(s)
    assert rep.target == pytest.approx(2.0)
    assert rep.passed and rep.bounded and rep.monotone and rep.sharp
    for pt in rep.points:
        assert pt.ratio == pytest.approx(hardy_ratio_oracle(pt.eps), rel=1e-5)
    assert rep.extrapolated == pytest.approx(2.0, rel=2e-3)


def test_sharpness_sweep_two_slots():
    s = diagonal_scenario(p=(4, 4))
    rep = sharpness_sweep(s)
    assert rep.target == pytest.approx(16.0 / 9.0, rel=1e-12)
    assert rep.passed
    ratios = [pt.ratio for pt in rep.points]
    assert ratios == sorted(ratios)
    assert ratios[-1] >= 0.98 * rep.target


def test_sharpness_sweep_zero_density_trivial():
    k = KernelSpec(m=1, n=1, psi=parse("0", 1), s=(parse("t1", 1),), beta=1.0)
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(2,))
    rep = sharpness_sweep(s)
    assert rep.target == 0.0
    assert all(pt.ratio == 0.0 for pt in rep.points)
    assert rep.passed


def test_sharpness_needs_beta():
    k = KernelSpec(m=1, n=1, psi=parse("1", 1), s=(parse("t1", 1),))
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(2,))
    with pytest.raises(ValueError):
        sharpness_sweep(s)


def test_sweep_csv_rows():
    rep = sharpness_sweep(hardy_scenario(p=2.0), eps_grid=(0.1, 0.03))
    rows = rep.csv_rows()
    assert len(rows) == 2
    eps, ratio, target, margin = rows[0]
    assert target == pytest.approx(2.0)
    assert margin == pytest.approx(target - ratio)


def test_kernel_classified_once_per_operator_norm(monkeypatch):
    # psi and each s_k are classified once, when the kernel's plan is built,
    # not on every pointwise apply along the radial profile
    calls = []
    real = kernels.classify

    def counting(e, n):
        calls.append(e)
        return real(e, n)

    monkeypatch.setattr(kernels, "classify", counting)
    kernel = KernelSpec(m=2, n=2, psi=parse("t1^0.3 * t2^0.2", 2),
                        s=(parse("0.7 * t1^1.2", 2), parse("0.5 * t2^0.8", 2)))
    s = Scenario(d=1, kernel=kernel,
                 weights=(isotropic(1, 0.2), isotropic(1, 0.0)), p=(2.5, 3.0))
    inputs = (power_profile(-1.2 / 2.5 - 0.3, inner_cutoff=1.0),
              power_profile(-1.0 / 3.0 - 0.3, inner_cutoff=1.0))
    res = operator_radial_lp_norm(OperatorInstance(s, inputs), outer_tol=1e-8)
    assert math.isfinite(res.value) and res.value > 0.0
    assert len(calls) == kernel.m + 1


def test_fuzz_small_batch_has_no_violations():
    rep = upper_bound_fuzz(trials=20, seed=1315)
    assert rep["passed"]
    assert rep["max_ratio"] < 1.0 + 1e-6
    assert rep["violations"] == []


def test_fuzz_is_reproducible():
    a = upper_bound_fuzz(trials=5, seed=7)
    b = upper_bound_fuzz(trials=5, seed=7)
    assert a["max_ratio"] == b["max_ratio"]


def test_zero_input_gives_zero_ratio():
    s = hardy_scenario(p=2.0)
    inst = OperatorInstance(s, (power_profile(-0.7, coeff=0.0, inner_cutoff=1.0),))
    res = operator_radial_lp_norm(inst)
    assert res.value == 0.0


def test_morrey_extremal_balanced_two_slots():
    s = diagonal_scenario(p=(4, 4), lam=(-0.125, -0.125))
    rep = morrey_extremal_check(s, tol=1e-6)
    assert rep["passed"]
    assert rep["constant"] == pytest.approx((8.0 / 7.0) ** 2, rel=1e-12)
    assert rep["normalization"] == pytest.approx(1.0, rel=1e-12)
    assert rep["rel_gap"] <= 1e-10
    assert rep["bracket_spread"] <= 1e-10


def test_morrey_extremal_single_slot_any_weight():
    k = KernelSpec(m=1, n=1, psi=parse("1", 1), s=(parse("t1", 1),), beta=1.0)
    s = Scenario(d=2, kernel=k, weights=(isotropic(2, 0.5),), p=(2,),
                 lam=(-0.3,), mode="morrey")
    rep = morrey_extremal_check(s, tol=1e-6)
    assert rep["passed"]
    assert rep["normalization"] == pytest.approx(1.0, rel=1e-12)


def test_morrey_extremal_unequal_lambda_direction():
    s = diagonal_scenario(p=(4, 4), lam=(-0.2, -0.05))
    rep = morrey_extremal_check(s)
    nec = check_morrey_balance(s, "necessity")
    assert not nec.passed
    assert rep["normalization"] < 1.0
    assert rep["direction_consistent"]
    assert rep["passed"]  # the identity with normalization still holds exactly


def test_morrey_extremal_records_printed_variants():
    s = diagonal_scenario(p=(4, 4), lam=(-0.125, -0.125))
    rep = morrey_extremal_check(s)
    variants = rep["printed_norm_variants"]
    assert set(variants) == {"adopted", "inverse_mass_form"}


def test_commutator_witness_single_slot():
    k = KernelSpec(m=1, n=1, psi=parse("1", 1), s=(parse("t1", 1),), beta=1.0)
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(3,), q=(6,),
                 lam=(-0.25,), mode="commutator")
    rep = commutator_witness_check(s)
    assert rep["passed"]
    assert rep["witness_integral"] == pytest.approx(16.0 / 9.0, rel=1e-12)
    assert rep["pointwise_worst_rel"] <= 1e-4
    assert rep["ratio"]["rel_gap"] <= 1e-3
    assert rep["kernel_separation"]["sides"] == ["below"]
    assert rep["finiteness_consistent"]


def test_commutator_witness_two_slots_separable():
    s = diagonal_scenario(p=(6, 6), q=(6, 6), lam=(-0.125, -0.125))
    rep = commutator_witness_check(s)
    assert rep["passed"]
    want = (1.0 / (7.0 / 8.0) ** 2) ** 2  # product of two 1-D log moments
    assert rep["witness_integral"] == pytest.approx(want, rel=1e-12)


def test_commutator_witness_zero_density():
    k = KernelSpec(m=1, n=1, psi=parse("0", 1), s=(parse("t1", 1),))
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(3,), q=(6,),
                 lam=(-0.25,), mode="commutator")
    rep = commutator_witness_check(s)
    assert rep["witness_integral"] == 0.0
    assert rep["pointwise_worst_rel"] == 0.0


def test_witness_ratio_stays_strictly_below_constant():
    s = hardy_scenario(p=2.0)
    wit = make_witness_lp(s, 0.05)
    inst = OperatorInstance(s, (wit[0].function,))
    res = operator_radial_lp_norm(inst)
    assert res.value / wit[0].norm < 2.0


def test_divergent_profile_raises_and_cutoff_reports_divergent():
    k = KernelSpec(m=1, n=1, psi=parse("t1^-0.9", 1), s=(parse("t1", 1),))
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(4,))
    # psi * |s|^-0.5 = t^-1.4 is not integrable: every sample radius diverges
    with pytest.raises(ArithmeticError):
        operator_radial_lp_norm(OperatorInstance(s, (power_profile(-0.5),)))
    # the cutoff keeps each sample finite, but the profile grows too fast
    res = operator_radial_lp_norm(
        OperatorInstance(s, (power_profile(-0.5, inner_cutoff=1.0),)))
    assert res.status == "divergent"


def test_operator_norm_call_counts_do_not_grow_with_radii(monkeypatch):
    # a two-slot fuzz draw: apply and classify run a fixed number of times
    # per operator norm, however many radii the outer quadrature samples
    for trial in range(64):
        rng = np.random.default_rng([1315, trial])
        scenario, inputs, _ = harness._random_monomial_scenario(rng, 2, 2, 2)
        if scenario.kernel.m == 2:
            break
    inst = OperatorInstance(scenario, inputs)
    counts = {"apply": 0, "classify": 0, "radii": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    real_interval = harness.integrate_interval

    def counting_interval(f, *args, **kwargs):
        def g(x):
            counts["radii"] += np.size(x)
            return f(x)
        return real_interval(g, *args, **kwargs)

    counted_apply = counting("apply", operators.apply)
    monkeypatch.setattr(operators, "apply", counted_apply)
    monkeypatch.setattr(harness, "apply", counted_apply)
    monkeypatch.setattr(spaces, "classify", counting("classify", spaces.classify))
    monkeypatch.setattr(harness, "integrate_interval", counting_interval)
    seen = []
    for tol in (1e-6, 1e-10):
        counts.update(apply=0, classify=0, radii=0)
        res = operator_radial_lp_norm(inst, outer_tol=tol)
        assert res.status == "finite" and res.value > 0.0
        seen.append(dict(counts))
    assert seen[1]["radii"] > seen[0]["radii"]
    assert seen[0]["apply"] == seen[1]["apply"]
    assert seen[0]["classify"] == seen[1]["classify"]

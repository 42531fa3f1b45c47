import math
from fractions import Fraction

import numpy as np
import pytest

from hardylab import harness, kernels, operators, quad, spaces
from hardylab.expr import parse
from hardylab.harness import (_kernel_separation, commutator_witness_check,
                              morrey_extremal_check, operator_radial_lp_norm,
                              sharpness_sweep, upper_bound_fuzz)
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


def test_capped_operator_norm_makes_sweep_point_unreliable(monkeypatch):
    # each point's r < 1 and log-radius pieces need more than 4 cells
    monkeypatch.setitem(quad._DEFAULT_MAX_CELLS, 1, 4)
    rep = sharpness_sweep(hardy_scenario(p=2.0))
    assert [pt.status for pt in rep.points] == ["unreliable"] * len(rep.points)
    assert not rep.passed


def test_divergent_operator_norms_make_sweep_points_divergent(monkeypatch):
    # the first point's norm raises ArithmeticError, the second's diverges,
    # and the third is computed
    real = harness.operator_radial_lp_norm
    outcomes = iter([ArithmeticError("overflow"), spaces.NormResult(
        math.inf, "radial-quadrature", math.inf, "divergent")])

    def failing(inst, *args, **kwargs):
        res = next(outcomes, None)
        if isinstance(res, ArithmeticError):
            raise res
        return res if res is not None else real(inst, *args, **kwargs)

    monkeypatch.setattr(harness, "operator_radial_lp_norm", failing)
    rep = sharpness_sweep(hardy_scenario(p=2.0), eps_grid=(0.1, 0.05, 0.03))
    assert [pt.eps for pt in rep.points] == [0.1, 0.05, 0.03]
    assert [pt.status for pt in rep.points] == ["divergent", "divergent", "ok"]
    for pt in rep.points[:2]:
        assert math.isnan(pt.ratio) and math.isnan(pt.operator_norm)
        assert math.isfinite(pt.witness_norm_product)
    assert rep.points[2].ratio == pytest.approx(hardy_ratio_oracle(0.03), rel=1e-5)
    assert not rep.passed


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
    assert rep["unreliable"] == []


def test_capped_fuzz_trial_is_unreliable(monkeypatch):
    # trial 0's operator norm needs more than 4 cells in a piece
    monkeypatch.setitem(quad._DEFAULT_MAX_CELLS, 1, 4)
    rep = upper_bound_fuzz(trials=5)
    assert rep["max_ratio"] < 1.0 + 1e-6  # the ratios alone look fine
    assert rep["unreliable"]
    assert {u["status"] for u in rep["unreliable"]} == {"unreliable"}
    assert rep["unreliable"][0]["trial"] == 0
    assert not rep["passed"]


def test_fuzz_is_reproducible():
    a = upper_bound_fuzz(trials=5, seed=7)
    b = upper_bound_fuzz(trials=5, seed=7)
    assert a["max_ratio"] == b["max_ratio"]


def test_zero_input_gives_zero_ratio():
    s = hardy_scenario(p=2.0)
    inst = OperatorInstance(s, (power_profile(-0.7, coeff=0.0, inner_cutoff=1.0),))
    res = operator_radial_lp_norm(inst)
    assert res.value == 0.0


def test_operator_norm_of_an_empty_support_is_zero():
    # s_1 = 0 sends every point to f(0) = 0 for f = r^-0.8 1{r >= 1}
    k = KernelSpec(m=1, n=1, psi=parse("1", 1), s=(parse("0*t1", 1),))
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(2,))
    res = operator_radial_lp_norm(OperatorInstance(s, (power_profile(-0.8, inner_cutoff=1.0),)))
    assert (res.value, res.status) == (0.0, "finite")


def test_operator_norm_with_a_non_decaying_tail_is_divergent():
    # T f(r) ~ r^-0.2/0.8 for f = r^-0.2 1{r >= 1}: |T f|^2 ~ r^-0.4/0.64 is
    # not integrable at infinity, which the tail reads from its exponent
    s = hardy_scenario(p=2.0)
    res = operator_radial_lp_norm(OperatorInstance(s, (power_profile(-0.2, inner_cutoff=1.0),)))
    assert (res.value, res.status) == (math.inf, "divergent")


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
                 lam=(-0.3,))
    rep = morrey_extremal_check(s, tol=1e-6)
    assert rep["passed"]
    assert rep["normalization"] == pytest.approx(1.0, rel=1e-12)


def test_morrey_extremal_zero_density_kernel():
    # psi = 0: the constant, the operator output and the expected norm are
    # all 0, and their relative gap is 0, not a division by zero
    k = KernelSpec(m=1, n=1, psi=parse("0", 1), s=(parse("t1", 1),))
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(2,),
                 lam=(-0.25,))
    rep = morrey_extremal_check(s)
    assert rep["constant"] == 0.0 and rep["expected"] == 0.0
    assert rep["operator_norm"] == 0.0 and rep["norm_status"] == "finite"
    assert rep["rel_gap"] == 0.0
    assert rep["passed"]


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
                 lam=(-0.25,))
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


def test_commutator_witness_unbalanced_output_fails():
    # alpha = (0, 0.5): the output exponent sum_k (d + alpha_k) lambda_k = -0.25
    # is not (d + alpha) lambda_out = -0.225, so the Morrey supremum is unbounded
    k = KernelSpec(m=2, n=2, psi=parse("1", 2), s=(parse("t1", 2), parse("t2", 2)), beta=1.0)
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0), isotropic(1, 0.5)), p=(4, 4),
                 q=(4, 4), lam=(-0.1, -0.1))
    rep = commutator_witness_check(s)
    assert rep["ratio"]["balanced"] is False
    assert rep["ratio"]["ok"] is False
    assert rep["passed"] is False


def test_commutator_witness_zero_density():
    k = KernelSpec(m=1, n=1, psi=parse("0", 1), s=(parse("t1", 1),))
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(3,), q=(6,),
                 lam=(-0.25,))
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


def test_operator_norm_probed_tail_when_the_ceiling_diverges():
    # psi = t^-0.9 and f = r^-0.5 1{r >= 1}: without the cutoff T f diverges,
    # so the decay of the moment beyond 2^40 is probed.  For r >= 1,
    # T f(r) = (r^-0.1 - r^-0.5) / 0.4, and at p = 12
    # int_1^inf (r^-0.1 - r^-0.5)^12 dr = sum_j C(12, j) (-1)^j 5 / (2j + 1)
    k = KernelSpec(m=1, n=1, psi=parse("t1^-0.9", 1), s=(parse("t1", 1),))
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(12,))
    res = operator_radial_lp_norm(
        OperatorInstance(s, (power_profile(-0.5, inner_cutoff=1.0),)))
    moment = sum(Fraction(math.comb(12, j) * (-1) ** j * 5, 2 * j + 1) for j in range(13))
    want = float(2 * moment / Fraction(2, 5) ** 12) ** (1.0 / 12.0)
    assert res.status == "finite"
    assert abs(res.value - want) <= res.error


def test_operator_norm_pointwise_fallback_matches_separable_route():
    # exp(0*t1) is psi = 1 to the value but not to the separable route, so
    # the profile comes from pointwise apply.  For r >= 1 the Hardy output of
    # r^-0.6 1{r >= 1} is r^-0.6 (1 - r^-0.4) / 0.4, of norm 10/sqrt(3)
    def instance(psi):
        k = KernelSpec(m=1, n=1, psi=parse(psi, 1), s=(parse("t1", 1),), beta=1.0)
        s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(2.0,))
        return OperatorInstance(s, (power_profile(-0.6, inner_cutoff=1.0),))

    pointwise = instance("exp(0*t1)")
    assert operators.separable_profile(pointwise) is None
    a = operator_radial_lp_norm(pointwise)
    b = operator_radial_lp_norm(instance("1"))
    assert a.status == b.status == "finite"
    assert abs(a.value - b.value) <= a.error + b.error
    for res in (a, b):
        assert abs(res.value - 10.0 / math.sqrt(3.0)) <= res.error


def test_operator_norm_call_counts_do_not_grow_with_radii(monkeypatch):
    # a two-slot fuzz draw: apply and classify run a fixed number of times
    # per operator norm, however many radii the outer quadrature samples
    def draw():
        # fresh inputs for each norm: an input keeps its power form once
        # classified, so a second norm on the same inputs classifies less
        for trial in range(64):
            rng = np.random.default_rng([1315, trial])
            scenario, inputs, _ = harness._random_monomial_scenario(rng, 2, 2, 2)
            if scenario.kernel.m == 2:
                return OperatorInstance(scenario, inputs)

    counts = {"apply": 0, "classify": 0, "radii": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    real_intervals = spaces.integrate_intervals

    def counting_intervals(f, *args, **kwargs):
        def g(x, k):
            counts["radii"] += np.size(x)
            return f(x, k)
        return real_intervals(g, *args, **kwargs)

    counted_apply = counting("apply", operators.apply)
    monkeypatch.setattr(operators, "apply", counted_apply)
    monkeypatch.setattr(harness, "apply", counted_apply)
    monkeypatch.setattr(spaces, "classify", counting("classify", spaces.classify))
    monkeypatch.setattr(spaces, "integrate_intervals", counting_intervals)
    seen = []
    for tol in (1e-6, 1e-10):
        counts.update(apply=0, classify=0, radii=0)
        res = operator_radial_lp_norm(draw(), outer_tol=tol)
        assert res.status == "finite" and res.value > 0.0
        seen.append(dict(counts))
    assert seen[1]["radii"] > seen[0]["radii"]
    assert seen[0]["apply"] == seen[1]["apply"]
    assert seen[0]["classify"] == seen[1]["classify"]


def test_sharpness_sweep_of_an_infinite_constant_raises():
    # psi = t^{-1/2} at p = 2: int t^{-1/2} t^{-1/2} dt diverges
    k = KernelSpec(m=1, n=1, psi=parse("t1^-0.5", 1), s=(parse("t1", 1),), beta=1.0)
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(2,))
    with pytest.raises(ValueError, match="infinite"):
        sharpness_sweep(s)


def test_morrey_extremal_check_reports_a_divergent_constant():
    # psi = t^{-0.9} and (d + alpha) lambda = -0.25: the exponent -1.15 diverges
    k = KernelSpec(m=1, n=1, psi=parse("t1^-0.9", 1), s=(parse("t1", 1),))
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(2,),
                 lam=(-0.25,))
    rep = morrey_extremal_check(s)
    assert not rep["passed"]
    assert rep["reason"] == "morrey constant diverges"
    assert rep["constant"] == math.inf


@pytest.mark.parametrize("s, side", [("2 + t1", "above"), ("2 * t1", "mixed")])
def test_kernel_separation_reads_the_other_sides(s, side):
    # |s| > 1 on the whole cube, or neither side (2 t1 crosses 1 at t1 = 1/2);
    # the commutator witness tests read 'below'
    kernel = KernelSpec(m=1, n=1, psi=parse("1", 1), s=(parse(s, 1),))
    assert _kernel_separation(kernel) == {"separated": side != "mixed", "sides": [side]}

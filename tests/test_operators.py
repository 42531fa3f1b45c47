import math
import warnings

import numpy as np
import pytest

from hardylab.expr import parse
from hardylab.kernels import KernelSpec, Scenario
from hardylab.operators import (OperatorInstance, _moment, apply,
                                apply_radial_closed_form, separable_profile)
from hardylab.spaces import RadialFunction, log_profile, power_profile
from hardylab.weights import isotropic

from conftest import diagonal_scenario, hardy_scenario


def test_power_log_moment_closed_forms():
    assert _moment(-0.25, 1, 0.0, 1.0) == pytest.approx(16.0 / 9.0)
    assert _moment(-0.5, 0, 0.0, 1.0) == pytest.approx(2.0)
    assert _moment(-1.0, 1, 0.1, 1.0) == pytest.approx(
        math.log(10.0) ** 2 / 2.0
    )
    assert _moment(-1.2, 0, 0.0, 1.0) == math.inf


def test_power_log_moment_array_bounds():
    lo = np.array([0.0, 0.1, 0.5, 0.7])
    hi = np.array([1.0, 0.6, 0.5, 1.0])
    got = _moment(-0.25, 1, lo, hi)
    want = [_moment(-0.25, 1, float(a), float(b)) for a, b in zip(lo, hi)]
    assert np.array_equal(got, want)
    assert got[2] == 0.0  # empty window
    div = _moment(-1.2, 0, np.array([0.0, 0.2]), 1.0)
    assert div[0] == math.inf and math.isfinite(div[1])


def test_power_log_moment_against_quadrature(rng):
    from hardylab.quad import integrate_interval

    for _ in range(8):
        b = rng.uniform(-0.9, 1.5)
        m = int(rng.integers(0, 3))
        lo = rng.uniform(0.0, 0.3)
        hi = rng.uniform(0.6, 1.0)
        want = integrate_interval(
            lambda t, b=b, m=m: t ** b * np.log(1.0 / t) ** m, lo, hi, tol=1e-12
        ).value
        assert _moment(b, m, lo, hi) == pytest.approx(want, rel=1e-10)


def test_constant_inputs_give_one():
    s = hardy_scenario()
    inst = OperatorInstance(s, (power_profile(0.0),))
    for x in (0.5, 1.0, 7.0):
        assert apply(inst, [x]).value == pytest.approx(1.0, rel=1e-12)


def test_apply_at_the_origin_reads_zero():
    # at x = 0 every dilate s(t) x is the origin, so Hf(0) = f(0) int psi,
    # and a radial input is 0 there, a negative power too
    inst = OperatorInstance(hardy_scenario(), (RadialFunction(parse("r^(-0.5)", 0)),))
    res = apply(inst, [0.0])
    assert res.converged
    assert abs(res.value) <= res.abs_error_estimate


def test_power_form_classified_once_per_input(monkeypatch):
    # each input's profile is classified on its first power_form, then kept
    from hardylab import spaces
    calls = []
    real = spaces.classify

    def counting(e, n):
        calls.append(e)
        return real(e, n)

    monkeypatch.setattr(spaces, "classify", counting)
    inst = OperatorInstance(diagonal_scenario(p=(4, 4)),
                            (power_profile(-0.2, inner_cutoff=1.0),
                             power_profile(-0.3, coeff=2.0)))
    values = {apply(inst, [x]).value for x in np.linspace(1.5, 6.0, 50)}
    assert len(values) == 50 and all(v > 0.0 for v in values)
    assert len(calls) == 2


def test_identity_profile_halves():
    s = hardy_scenario()
    inst = OperatorInstance(s, (power_profile(1.0),))
    assert apply(inst, [4.0]).value == pytest.approx(2.0, rel=1e-12)


def test_zero_kernel_gives_zero():
    k = KernelSpec(m=1, n=1, psi=parse("0", 1), s=(parse("t1", 1),))
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(2,))
    inst = OperatorInstance(s, (power_profile(-0.25),))
    coeff, _ = apply_radial_closed_form(inst)
    assert coeff.value == 0.0


def test_radial_closed_form_single_slot():
    s = hardy_scenario()
    inst = OperatorInstance(s, (power_profile(-0.25),))
    coeff, exponent = apply_radial_closed_form(inst)
    assert coeff.value == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert exponent == pytest.approx(-0.25)


def test_radial_closed_form_vs_quadrature_cross_check():
    s = diagonal_scenario(p=(4, 4))
    inst = OperatorInstance(s, (power_profile(-0.25), power_profile(-0.3)))
    coeff, exponent = apply_radial_closed_form(inst)
    for r in (0.5, 2.0, 16.0):
        got = apply(inst, [r], force_quadrature=True)
        assert got.value == pytest.approx(coeff.value * r ** exponent, rel=1e-7)


def test_commutator_closed_form_log_moment():
    k = KernelSpec(m=1, n=1, psi=parse("1", 1), s=(parse("t1", 1),))
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(3,), q=(6,),
                 lam=(-0.25,))
    inst = OperatorInstance(s, (power_profile(-0.25),), (log_profile(),))
    coeff, exponent = apply_radial_closed_form(inst)
    assert coeff.value == pytest.approx(16.0 / 9.0, rel=1e-14)
    got = apply(inst, [3.0], force_quadrature=True)
    assert got.value == pytest.approx(16.0 / 9.0 * 3.0 ** -0.25, rel=1e-7)


def test_commutator_with_scaled_dilation_expands_log():
    # s(t) = c t: the symbol factor -log|s| = -log c + log(1/t) splits
    c = 0.5
    k = KernelSpec(m=1, n=1, psi=parse("1", 1), s=(parse(f"{c}*t1", 1),))
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(3,), q=(6,),
                 lam=(-0.25,))
    inst = OperatorInstance(s, (power_profile(-0.25),), (log_profile(),))
    coeff, _ = apply_radial_closed_form(inst)
    want = c ** -0.25 * (-math.log(c) * (4.0 / 3.0) + 16.0 / 9.0)
    assert coeff.value == pytest.approx(want, rel=1e-13)
    got = apply(inst, [2.0], force_quadrature=True)
    assert got.value == pytest.approx(want * 2.0 ** -0.25, rel=1e-7)


def test_cutoff_witness_profile_matches_piecewise_oracle():
    s = hardy_scenario()
    eps = 0.01
    f = power_profile(-0.5 - eps, inner_cutoff=1.0)
    inst = OperatorInstance(s, (f,))
    for r in (0.5, 1.0, 2.0, 8.0, 100.0):
        want = 0.0
        if r > 1.0:
            want = r ** (-0.5 - eps) * (1.0 - r ** -(0.5 - eps)) / (0.5 - eps)
        exact = apply(inst, [r]).value
        quad = apply(inst, [r], force_quadrature=True).value
        assert exact == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert quad == pytest.approx(want, rel=1e-7, abs=1e-12)


def test_multilinearity_in_each_slot(rng):
    s = diagonal_scenario(p=(4, 4))
    f2 = RadialFunction(parse("1/(1+r)", 0))
    g1 = RadialFunction(parse("exp(-r^2)", 0))
    g2 = RadialFunction(parse("1/(1+r^2)", 0))

    for _ in range(4):
        a, b = rng.uniform(-2.0, 2.0, size=2)
        x = np.array([float(rng.uniform(0.5, 4.0))])

        def f(pts, a=a, b=b):
            return a * g1(pts) + b * g2(pts)

        lhs = apply(OperatorInstance(s, (f, f2)), x, tol=1e-11).value
        v1 = apply(OperatorInstance(s, (g1, f2)), x, tol=1e-11).value
        v2 = apply(OperatorInstance(s, (g2, f2)), x, tol=1e-11).value
        assert lhs == pytest.approx(a * v1 + b * v2, rel=1e-10, abs=1e-12)


def test_linearity_survives_cutoff_inputs(rng):
    # combinations of cutoff powers go through the generic interface handling;
    # accuracy there is quadrature-limited, not exact
    s = diagonal_scenario(p=(4, 4))
    f2 = power_profile(-0.2, inner_cutoff=1.0)
    g1 = power_profile(-0.3, inner_cutoff=1.0)
    g2 = power_profile(-0.45, inner_cutoff=1.0)
    a, b = 1.5, -0.7
    x = np.array([3.7])

    def f(pts):
        return a * g1(pts) + b * g2(pts)

    lhs = apply(OperatorInstance(s, (f, f2)), x).value
    v1 = apply(OperatorInstance(s, (g1, f2)), x).value
    v2 = apply(OperatorInstance(s, (g2, f2)), x).value
    assert lhs == pytest.approx(a * v1 + b * v2, rel=1e-4)


def test_callable_inputs_may_return_one_value_for_all_points():
    # a constant input written as a bare float acts as one value per point,
    # on the 1-D route and on the per-axis tensor panels of n = 2
    g = power_profile(-0.3)
    for s in (hardy_scenario(), diagonal_scenario(p=(4, 4))):
        rest = (g,) * (s.kernel.m - 1)
        scalar = OperatorInstance(s, (lambda pts: 2.0,) + rest)
        array = OperatorInstance(s, (lambda pts: np.full(len(pts), 2.0),) + rest)
        want = apply(array, [1.5], force_quadrature=True)
        assert repr(apply(scalar, [1.5], force_quadrature=True)) == repr(want)


def test_homogeneity_transport_for_power_inputs():
    s = diagonal_scenario(p=(4, 4))
    inst = OperatorInstance(s, (power_profile(-0.3), power_profile(-0.15)))
    vx = apply(inst, [3.0], force_quadrature=True).value
    vy = apply(inst, [0.75], force_quadrature=True).value
    assert vx / vy == pytest.approx((3.0 / 0.75) ** (-0.45), rel=1e-8)


def test_reduction_to_plain_multilinear_average(rng):
    # with n = m and s_k(t) = t_k the operator is the plain multilinear
    # average; compare against a direct tensor Gauss-Legendre evaluation
    k = KernelSpec(m=2, n=2, psi=parse("t1 + t2", 2),
                   s=(parse("t1", 2), parse("t2", 2)))
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),) * 2, p=(4, 4))
    g1 = RadialFunction(parse("exp(-r^2)", 0))
    g2 = RadialFunction(parse("1/(1+r^2)", 0))
    inst = OperatorInstance(s, (g1, g2))

    nodes, weights_ = np.polynomial.legendre.leggauss(64)
    u = 0.5 * (nodes + 1.0)
    wq = 0.5 * weights_

    def direct(x):
        t1, t2 = np.meshgrid(u, u, indexing="ij")
        vals = (np.exp(-((t1 * x) ** 2)) * 1.0 / (1.0 + (t2 * x) ** 2)
                * (t1 + t2))
        return float(wq @ vals @ wq)

    for _ in range(16):
        x = float(rng.uniform(0.1, 5.0))
        got = apply(inst, [x]).value
        assert got == pytest.approx(direct(x), rel=1e-6)


def test_hausdorff_mode_reciprocal_dilation():
    k = KernelSpec(m=1, n=1, psi=parse("exp(-t1)", 1), s=(parse("1/t1", 1),),
                   domain="positive-orthant")
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(2,))
    inst = OperatorInstance(s, (power_profile(-0.5),))
    got = apply(inst, [4.0])
    assert got.value == pytest.approx(math.gamma(1.5) * 0.5, rel=1e-7)


def test_instance_mode_is_read_off_the_kernel_and_symbols():
    k = KernelSpec(m=1, n=1, psi=parse("exp(-t1)", 1), s=(parse("1/t1", 1),),
                   domain="positive-orthant")
    orthant = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(2,))
    f = (power_profile(-0.5),)
    assert OperatorInstance(orthant, f).mode == "hausdorff"
    assert OperatorInstance(hardy_scenario(), f).mode == "plain"
    assert OperatorInstance(_commutator_scenario("t1"), f, (log_profile(),)).mode \
        == "commutator"
    with pytest.raises(ValueError, match="unit-cube"):
        OperatorInstance(orthant, f, (log_profile(),))
    with pytest.raises(ValueError, match="one symbol per slot"):
        OperatorInstance(hardy_scenario(), f, (log_profile(),) * 2)
    with pytest.raises(TypeError):
        OperatorInstance(hardy_scenario(), f, mode="plain")


def test_divergent_input_is_flagged():
    # too-negative power against a vanishing dilation: inner integral blows up
    s = hardy_scenario()
    inst = OperatorInstance(s, (power_profile(-1.5),))
    res = apply(inst, [2.0])
    assert res.divergent


def test_higher_dimension_points():
    s = hardy_scenario(d=3)
    inst = OperatorInstance(s, (power_profile(-0.25),))
    x = np.array([1.0, 2.0, 2.0])  # |x| = 3
    got = apply(inst, x).value
    assert got == pytest.approx(4.0 / 3.0 * 3.0 ** -0.25, rel=1e-12)


def _separable_cases():
    # plain: inner and outer cutoffs, a negative exponent e_k, an axis-0
    # (constant) slot; alive only for |x| in [1.25, 10/3]
    k = KernelSpec(m=3, n=2, psi=parse("t1^0.3 * t2^-0.2", 2),
                   s=(parse("0.8 * t1^1.5", 2), parse("1.2 * t2^-0.7", 2),
                      parse("0.9", 2)))
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),) * 3, p=(3, 3, 3))
    yield OperatorInstance(s, (power_profile(-0.3, inner_cutoff=1.0, outer_cutoff=4.0),
                               power_profile(0.2, coeff=1.5, inner_cutoff=0.5),
                               power_profile(0.1, inner_cutoff=0.6, outer_cutoff=3.0)))
    # commutator: -log c_k != 0 expands the log factor into two terms
    k = KernelSpec(m=2, n=1, psi=parse("t1^0.5", 1),
                   s=(parse("0.5 * t1", 1), parse("t1^-0.8", 1)))
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),) * 2, p=(3, 3),
                 q=(6, 6), lam=(-0.25, -0.25))
    yield OperatorInstance(s, (power_profile(-0.25, inner_cutoff=1.0),
                               power_profile(-0.1, outer_cutoff=6.0)),
                           (log_profile(), log_profile()))
    # psi with coefficient 0
    k = KernelSpec(m=1, n=1, psi=parse("0", 1), s=(parse("t1", 1),))
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(2,))
    yield OperatorInstance(s, (power_profile(-0.25, inner_cutoff=1.0),))


@pytest.mark.parametrize("inst", list(_separable_cases()),
                         ids=["plain-cutoffs", "commutator", "zero-psi"])
def test_separable_profile_matches_pointwise_apply(inst):
    radii = np.geomspace(0.05, 50.0, 41)
    got = separable_profile(inst)(radii)
    want = [apply(inst, [r]).value for r in radii]
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)
    if inst.scenario.kernel.plan.psi.coeff != 0.0:
        # the radii straddle the cutoffs: empty windows give exact zeros
        assert 0 < np.count_nonzero(got) < len(radii)
    # the quadrature route checks the windows independently
    for r, value in zip(radii[::2], got[::2]):
        quad = apply(inst, [r], force_quadrature=True).value
        assert quad == pytest.approx(value, rel=1e-8, abs=1e-14)


def _commutator_scenario(s_expr: str):
    k = KernelSpec(m=1, n=1, psi=parse("1", 1), s=(parse(s_expr, 1),))
    return Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(3,), q=(6,),
                    lam=(-0.25,))


def test_commutator_with_a_non_log_symbol_does_not_separate():
    # b = |y|: int t^{-1/4} (|x| - t |x|) dt |x|^{-1/4} = 16/21 |x|^{3/4}
    inst = OperatorInstance(_commutator_scenario("t1"), (power_profile(-0.25),),
                            (power_profile(1.0),))
    assert separable_profile(inst) is None
    assert apply(inst, [2.0]).value == pytest.approx(16.0 / 21.0 * 2.0 ** 0.75, rel=1e-8)


def test_commutator_with_a_constant_unit_slot_is_zero():
    # s = 1: b(x) - b(s x) = 0 for every symbol
    inst = OperatorInstance(_commutator_scenario("1"), (power_profile(-0.25),),
                            (log_profile(),))
    radii = np.geomspace(0.1, 10.0, 5)
    assert separable_profile(inst)(radii).tolist() == [0.0] * 5
    assert apply(inst, [2.0]).value == 0.0


def test_divergent_commutator_terms_of_both_signs_read_divergent():
    # s = 2 t1, f = |y|^-1.5: -log|s| = -log 2 + log(1/t) splits into two
    # terms, both with the divergent moment of t^-1.5, and of opposite signs
    inst = OperatorInstance(_commutator_scenario("2 * t1"), (power_profile(-1.5),),
                            (log_profile(),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert separable_profile(inst)(np.array([1.0, 2.0])).tolist() == [math.inf] * 2
        got = apply(inst, [1.0])
    assert got.status == "divergent" and got.value == math.inf


def test_a_vanishing_input_beside_a_divergent_axis_reads_zero():
    # f_1 = |y|^-1/4 kept for |y| >= 1 vanishes on the whole cube at |x| = 1/2,
    # so T f = 0 there, without a 0 * inf warning, although psi's t2 moment
    # diverges; at |x| = 2 it is infinite
    k = KernelSpec(m=2, n=2, psi=parse("t2^-1.5", 2), s=(parse("t1", 2), parse("t2", 2)))
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),) * 2, p=(4, 4))
    inst = OperatorInstance(s, (power_profile(-0.25, inner_cutoff=1.0), power_profile(0.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert separable_profile(inst)(np.array([0.5, 2.0])).tolist() == [0.0, math.inf]
        assert apply(inst, [0.5]).value == 0.0
        assert apply(inst, [2.0]).status == "divergent"

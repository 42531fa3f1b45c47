import math

import numpy as np
import pytest

from hardylab.expr import parse
from hardylab.spaces import (RadialFunction, _cap_fraction, central_morrey_norm,
                             cmo_norm, log_bmo_check, lp_norm, make_witness_lp,
                             log_profile, power_profile)
from hardylab.weights import isotropic

from conftest import diagonal_scenario, hardy_scenario


def test_witness_norm_closed_form_d1():
    # cutoff power with exponent -(d+alpha)/p - eps has norm (mass/(p eps))^{1/p}
    w = isotropic(1, 0.0)
    eps = 0.01
    f = power_profile(-0.5 - eps, inner_cutoff=1.0)
    res = lp_norm(f, w, 2.0)
    assert res.method == "closed-form"
    assert res.value == pytest.approx((2.0 / (2.0 * eps)) ** 0.5, rel=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0])
def test_witness_norm_quadrature_agrees(d, alpha):
    w = isotropic(d, alpha)
    p, eps = 2.0, 1e-2
    f = power_profile(-(d + alpha) / p - eps, inner_cutoff=1.0)
    want = (w.sphere_integral() / (p * eps)) ** (1.0 / p)
    got = lp_norm(f, w, p, force_quadrature=True)
    assert got.method == "radial-quadrature"
    assert got.value == pytest.approx(want, rel=1e-6)


def test_indicator_norm():
    f = power_profile(0.0, outer_cutoff=1.0)
    res = lp_norm(f, isotropic(1, 0.0), 2.0)
    assert res.value == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_gaussian_profile_norm_d2():
    g = RadialFunction(parse("exp(-r^2/2)", 0))
    res = lp_norm(g, isotropic(2, 0.0), 2.0)
    assert res.method == "radial-quadrature"
    assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-9)


def test_lp_norm_scales_homogeneously():
    w = isotropic(2, 0.3)
    f = power_profile(-1.4, coeff=1.0, inner_cutoff=1.0)
    g = power_profile(-1.4, coeff=-3.5, inner_cutoff=1.0)
    a = lp_norm(f, w, 2.5).value
    b = lp_norm(g, w, 2.5).value
    assert b == pytest.approx(3.5 * a, rel=1e-12)


def test_pure_power_is_never_lebesgue_integrable():
    assert lp_norm(power_profile(-0.7), isotropic(1, 0.0), 2.0).divergent


def test_morrey_closed_form_matches_bracket_identity():
    # bracket of |x|^{(d+alpha) lambda} is radius-independent:
    # ((d+alpha)/mass)^lambda (1+lambda p)^{-1/p}
    w = isotropic(1, 0.5)
    lam, p = -0.3, 2.0
    f = power_profile((1 + 0.5) * lam)
    res = central_morrey_norm(f, w, p, lam)
    want = ((1 + 0.5) / w.sphere_integral()) ** lam * (1 + lam * p) ** (-1 / p)
    assert res.method == "closed-form"
    assert res.value == pytest.approx(want, rel=1e-14)


def test_morrey_bracket_radius_independence_on_grid():
    w = isotropic(2, -0.4)
    lam, p = -0.25, 3.0
    f = power_profile((2 - 0.4) * lam)
    res = central_morrey_norm(f, w, p, lam, use_grid=True)
    assert res.status == "finite"
    spread = (max(res.brackets) - min(res.brackets)) / res.value
    assert spread <= 1e-10
    closed = central_morrey_norm(f, w, p, lam)
    assert res.value == pytest.approx(closed.value, rel=1e-12)


def test_morrey_grid_quadrature_path_agrees():
    w = isotropic(1, 0.0)
    lam, p = -0.25, 2.0
    f = power_profile(lam)
    a = central_morrey_norm(f, w, p, lam)
    b = central_morrey_norm(f, w, p, lam, force_quadrature=True)
    assert b.method == "radial-quadrature"
    assert b.value == pytest.approx(a.value, rel=1e-8)


def test_morrey_unbalanced_power_diverges():
    w = isotropic(1, 0.0)
    res = central_morrey_norm(power_profile(-0.1), w, 2.0, -0.25)
    assert res.divergent


def test_morrey_indicator_supremum():
    # bracket(R) = (2 min(R,1))^{1/2} since 1 + lambda*p = 0; sup = sqrt(2)
    f = power_profile(0.0, outer_cutoff=1.0)
    res = central_morrey_norm(f, isotropic(1, 0.0), 2.0, -0.5)
    assert res.status == "finite"
    assert res.value == pytest.approx(math.sqrt(2.0), rel=1e-12)
    i_max = int(np.argmax(res.brackets))
    assert res.radii[i_max] == pytest.approx(1.0)


def test_morrey_zero_function():
    res = central_morrey_norm(power_profile(0.0, coeff=0.0),
                              isotropic(1, 0.0), 2.0, -0.5)
    assert res.value == 0.0


def test_cmo_log_unit_weight_is_one():
    res = cmo_norm(log_profile(), isotropic(1, 0.0), 2.0, 0.0)
    assert res.value == pytest.approx(1.0, rel=1e-9)
    spread = max(res.brackets) - min(res.brackets)
    assert spread <= 1e-8


@pytest.mark.parametrize("alpha", [1.0, -0.5])
def test_cmo_log_power_weight_bracket(alpha):
    # for omega = |x|^alpha in d=1 the q=2 bracket is 1/(1+alpha) at every R
    res = cmo_norm(log_profile(), isotropic(1, alpha), 2.0, 0.0)
    assert res.value == pytest.approx(1.0 / (1.0 + alpha), rel=1e-8)
    spread = max(res.brackets) - min(res.brackets)
    assert spread <= 1e-8 * res.value


def test_cmo_constant_is_zero():
    res = cmo_norm(power_profile(0.0, coeff=3.3), isotropic(1, 0.0), 2.0, 0.0)
    assert res.value == 0.0


def test_log_bmo_far_centers_obey_log2():
    rep = log_bmo_check(isotropic(1, 0.0), [5.0, -4.0, 2.0, 16.0])
    assert rep["passed"]
    for entry in rep["entries"]:
        assert entry["branch"] == "far"
        assert entry["oscillation"] <= math.log(2.0) + 1e-9


def test_log_bmo_origin_center_oracle():
    # c = 0 at x0 = 0, unit weight: oscillation = int_0^1 |log r| dr = 1,
    # bound = log 3 * w(B(0,6))/w(B(0,1)) = 6 log 3
    rep = log_bmo_check(isotropic(1, 0.0), [0.0])
    entry = rep["entries"][0]
    assert entry["branch"] == "near"
    assert entry["oscillation"] == pytest.approx(1.0, rel=1e-8)
    assert entry["bound"] == pytest.approx(6.0 * math.log(3.0), rel=1e-10)
    assert entry["passed"]


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5])
def test_log_bmo_mixed_grid(alpha):
    centers = np.linspace(-8.0, 8.0, 16)
    rep = log_bmo_check(isotropic(1, alpha), centers)
    assert rep["passed"]


@pytest.mark.parametrize("d", [2, 3])
def test_cap_fraction_array_matches_per_element_formula(d):
    from scipy.special import betainc

    cts = [-1.0, -0.3, 0.0, 0.4, 1.0]
    want = []
    for ct in cts:
        half = 0.5 * betainc((d - 1) / 2.0, 0.5, 1.0 - ct * ct)
        want.append(half if ct >= 0.0 else 1.0 - half)
    assert np.array_equal(_cap_fraction(d, np.array(cts)), want)


def test_log_bmo_higher_dimension_far_center():
    rep = log_bmo_check(isotropic(3, 0.0), [3.0])
    assert rep["entries"][0]["oscillation"] <= math.log(2.0)


def test_make_witness_single_slot():
    s = hardy_scenario(p=2.0)
    wit = make_witness_lp(s, 0.01)
    assert len(wit) == 1
    assert wit[0].norm == pytest.approx(10.0, rel=1e-14)
    assert wit[0].exponent == pytest.approx(-0.5 - 0.01)
    direct = lp_norm(wit[0].function, s.weights[0], 2.0)
    assert direct.value == pytest.approx(wit[0].norm, rel=1e-12)


def test_make_witness_two_slots_splits_epsilon():
    s = diagonal_scenario(p=(4, 4))
    wit = make_witness_lp(s, 0.02)
    for w in wit:
        assert w.epsilon_k == pytest.approx(0.01)  # p eps / p_k = 2*0.02/4
        assert w.exponent == pytest.approx(-0.25 - 0.01)

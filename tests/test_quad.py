import math

import numpy as np
import pytest

from hardylab.quad import (_PROBE_H, SingularityHints, _probe_face_exponent,
                           integrate_interval,
                           integrate_positive_orthant, integrate_unit_cube,
                           neumaier_sum)


def hints1(zero, one=0.0, zero_logs=0):
    return SingularityHints(zero=(zero,), one=(one,), zero_logs=(zero_logs,),
                            one_logs=(0,))


def test_inverse_sqrt_matches_hardy_p2_integrand():
    res = integrate_unit_cube(lambda t: t[:, 0] ** -0.5, 1, sing=hints1(-0.5),
                              tol=1e-8)
    assert res.converged
    assert res.value == pytest.approx(2.0, rel=1e-8)


def test_unit_square_constant():
    res = integrate_unit_cube(lambda t: np.ones(t.shape[0]), 2,
                              sing=SingularityHints.regular(2))
    assert res.value == pytest.approx(1.0, abs=1e-14)
    assert res.cells_used == 1


def test_log_kernel_oracle():
    # int_0^1 t^a log(1/t) dt = 1/(a+1)^2 with a = -1/4
    res = integrate_unit_cube(
        lambda t: t[:, 0] ** -0.25 * np.log(1.0 / t[:, 0]), 1,
        sing=hints1(-0.25, zero_logs=1), tol=1e-10,
    )
    assert res.value == pytest.approx(16.0 / 9.0, rel=1e-9)


@pytest.mark.parametrize("a", [-0.9, -0.5, -0.1])
def test_grading_correctness(a):
    res = integrate_unit_cube(lambda t: t[:, 0] ** a, 1, sing=hints1(a), tol=1e-8)
    assert res.converged
    assert res.value == pytest.approx(1.0 / (a + 1.0), rel=1e-8)


def test_degree_seven_polynomial_is_exact_on_one_panel():
    res = integrate_unit_cube(
        lambda t: 8.0 * t[:, 0] ** 7 - 3.0 * t[:, 0] ** 2 + 1.0, 1,
        sing=SingularityHints.regular(1),
    )
    assert res.cells_used == 1
    assert res.value == pytest.approx(1.0 - 1.0 + 1.0, abs=1e-14)


def test_declared_divergence_is_symbolic():
    res = integrate_unit_cube(lambda t: t[:, 0] ** -1.0, 1, sing=hints1(-1.0))
    assert res.divergent
    assert res.cells_used == 0


def test_probed_divergence():
    res = integrate_unit_cube(lambda t: t[:, 0] ** -1.1, 1)
    assert res.divergent


def test_probed_log_type_divergence():
    # borderline exponent: blows up only logarithmically
    res = integrate_unit_cube(lambda t: t[:, 0] ** -1.0, 1)
    assert res.divergent


def test_near_critical_exponent_still_converges_unhinted():
    res = integrate_unit_cube(lambda t: t[:, 0] ** -0.95, 1)
    assert res.converged
    assert res.value == pytest.approx(20.0, rel=1e-7)


def test_probe_handles_unhinted_integrable_singularity():
    res = integrate_unit_cube(lambda t: t[:, 0] ** -0.5, 1)
    assert res.converged
    assert res.value == pytest.approx(2.0, rel=1e-7)


def test_orthant_exponential():
    res = integrate_positive_orthant(lambda t: np.exp(-t[:, 0]), 1)
    assert res.value == pytest.approx(1.0, rel=1e-9)


def test_orthant_gamma_oracle():
    res = integrate_positive_orthant(lambda t: t[:, 0] ** 0.5 * np.exp(-t[:, 0]), 1)
    assert res.value == pytest.approx(math.gamma(1.5), rel=1e-8)


def test_orthant_rational_tail():
    res = integrate_positive_orthant(lambda t: (1.0 + t[:, 0]) ** -2.0, 1)
    assert res.value == pytest.approx(1.0, rel=1e-9)


def test_orthant_divergence_at_infinity():
    res = integrate_positive_orthant(lambda t: 1.0 / (1.0 + t[:, 0]), 1)
    assert res.divergent


def test_two_dim_product_singularity():
    res = integrate_unit_cube(
        lambda t: (t[:, 0] * t[:, 1]) ** -0.25, 2,
        sing=SingularityHints(zero=(-0.25, -0.25), one=(0.0, 0.0)),
        tol=1e-8,
    )
    assert res.value == pytest.approx((4.0 / 3.0) ** 2, rel=1e-8)


def test_determinism_bit_identical():
    def f(t):
        return np.sin(3.0 * t[:, 0] * t[:, 1]) * t[:, 0] ** -0.3

    sing = SingularityHints(zero=(-0.3, 0.0), one=(0.0, 0.0))
    r1 = integrate_unit_cube(f, 2, sing=sing, seed=11)
    r2 = integrate_unit_cube(f, 2, sing=sing, seed=11)
    assert r1 == r2


def test_breakpoints_make_indicators_exact():
    cut = 0.3

    def f(t):
        return np.where(t[:, 0] >= cut, t[:, 0] ** -0.5, 0.0)

    res = integrate_unit_cube(f, 1, sing=hints1(0.0), breakpoints=[[cut]])
    assert res.value == pytest.approx(2.0 * (1.0 - math.sqrt(cut)), rel=1e-12)


def test_qmc_path_for_high_dimension():
    res = integrate_unit_cube(lambda t: np.prod(t, axis=1), 4, tol=5e-3, seed=42)
    assert res.value == pytest.approx(1.0 / 16.0, rel=5e-3)
    r2 = integrate_unit_cube(lambda t: np.prod(t, axis=1), 4, tol=5e-3, seed=42)
    assert res == r2


def test_interval_wrapper_with_interior_breakpoint():
    res = integrate_interval(lambda x: np.abs(np.log(np.abs(x))), -1.0, 3.0,
                             breakpoints=[0.0, 1.0])
    want = 2.0 + (3.0 * math.log(3.0) - 2.0)
    assert res.value == pytest.approx(want, rel=1e-9)


def test_neumaier_sum_is_order_independent(rng):
    vals = list(rng.normal(size=500) * 10.0 ** rng.integers(-8, 8, size=500))
    a = neumaier_sum(vals)
    b = neumaier_sum(sorted(vals))
    assert a == pytest.approx(b, abs=1e-9 * max(1.0, abs(a)))


def test_converged_status_respects_tolerance():
    res = integrate_unit_cube(lambda t: np.exp(t[:, 0]), 1,
                              sing=SingularityHints.regular(1), tol=1e-10)
    assert res.converged
    assert res.rel_error_estimate <= 1e-10
    assert res.value == pytest.approx(math.e - 1.0, rel=1e-12)


@pytest.mark.parametrize("face", [0, 1])
def test_probe_evaluates_a_1d_face_once(face):
    # in 1-D every anchor's points coincide, so one evaluation is enough
    seen = []

    def f(pts):
        seen.append(pts.shape)
        u = pts[:, 0] if face == 0 else 1.0 - pts[:, 0]
        return u ** -0.4 * (1.0 + u)

    slope = _probe_face_exponent(f, 1, 0, face)
    assert seen == [(len(_PROBE_H), 1)]
    # the old probe took the median of three equal slopes, one per anchor
    h = np.array(_PROBE_H)
    pts = (h if face == 0 else 1.0 - h)[:, None]
    one_anchor = np.polyfit(np.log(h), np.log(np.abs(f(pts))), 1)[0]
    assert slope == float(np.median([one_anchor] * 3))


def test_probe_uses_every_anchor_in_2d():
    seen = []

    def f(pts):
        seen.append(pts.shape)
        return pts[:, 0] ** -0.4 * (1.0 + pts[:, 1])

    assert _probe_face_exponent(f, 2, 0, 0) == pytest.approx(-0.4, abs=1e-3)
    assert seen == [(len(_PROBE_H), 2)] * 3

from fractions import Fraction

import numpy as np
import pytest

from hardylab import expr
from hardylab.expr import parse
from hardylab.kernels import (KernelSpec, Scenario, check_beta_condition,
                              check_morrey_balance, check_walpha_condition, cube_points)
from hardylab.weights import Weight, isotropic

from conftest import diagonal_scenario, hardy_scenario


def test_beta_diagonal_dilations_pass_with_zero_margin():
    k = KernelSpec(m=2, n=2, psi=parse("1", 2),
                   s=(parse("t1", 2), parse("t2", 2)))
    rep = check_beta_condition(k, 1.0)
    assert rep.passed
    assert rep.slack == pytest.approx(0.0, abs=1e-12)


def test_beta_square_map_fails_at_one_half():
    k = KernelSpec(m=1, n=1, psi=parse("1", 1), s=(parse("t1^2", 1),))
    rep = check_beta_condition(k, 1.0)
    assert not rep.passed
    assert rep.witness == pytest.approx((0.5,))
    assert rep.slack == pytest.approx(-0.25, abs=1e-12)


def test_beta_min_root_map_passes():
    k = KernelSpec(m=1, n=2, psi=parse("1", 2), s=(parse("min(t1,t2)^0.5", 2),))
    rep = check_beta_condition(k, 0.5)
    assert rep.passed
    assert rep.slack == pytest.approx(0.0, abs=1e-12)


def fresh_sobol(n, seed):
    from scipy.stats import qmc

    return np.clip(qmc.Sobol(d=n, scramble=True, seed=seed).random(1024), 1e-9, 1.0 - 1e-9)


def fresh_cube_points(n, grid, seed):
    """cube_points computed from scratch, with no table shared."""
    if n > 3:
        return fresh_sobol(n, seed)
    axis = (np.arange(grid) + 0.5) / grid
    return np.stack([g.ravel() for g in np.meshgrid(*([axis] * n), indexing="ij")], axis=1)


@pytest.mark.parametrize("n, grid, seed", [(1, 33, 7), (1, 1025, 7), (2, 33, 3), (3, 65, 5),
                                           (4, 33, 7)])
def test_sample_tables_are_shared_and_read_only(n, grid, seed):
    pts = cube_points(n, grid=grid, seed=seed)
    assert cube_points(n, grid=grid, seed=seed) is pts
    np.testing.assert_array_equal(pts, fresh_cube_points(n, grid, seed))
    assert not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0] = 0.5


def test_midpoint_grids_are_shared_across_seeds():
    # the harness's start-up sample (seed 3) and the beta check (seed 7)
    assert cube_points(3, grid=33, seed=3) is cube_points(3, grid=33, seed=7)
    assert cube_points(3, grid=33, seed=3) is not cube_points(3, grid=65, seed=3)
    assert not np.array_equal(cube_points(4, grid=33, seed=3), cube_points(4, grid=33, seed=7))
    # for n >= 4 the grid is not read: kernel validation's Sobol table
    assert cube_points(4, grid=33, seed=7) is cube_points(4, grid=1025, seed=7)


def _recorded_samples(monkeypatch):
    """The point tables expr.evaluate is called on, in call order."""
    seen = []
    real = expr.evaluate

    def recording(e, t=None, r=None):
        seen.append(t)
        return real(e, t=t, r=r)

    monkeypatch.setattr(expr, "evaluate", recording)
    return seen


@pytest.mark.parametrize("n", [2, 3])
def test_validation_reads_the_beta_check_table(monkeypatch, n):
    seen = _recorded_samples(monkeypatch)
    k = KernelSpec(m=1, n=n, psi=parse("1", n), s=(parse("t1", n),), beta=1.0)
    k.validate()  # psi, s_1, then the declared beta's check of s_1
    check_beta_condition(k, 1.0)
    assert len(seen) == 4
    assert all(t is seen[0] for t in seen)
    assert seen[0] is cube_points(n, grid=33, seed=7)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_validation_samples_at_least_1024_points(monkeypatch, n):
    seen = _recorded_samples(monkeypatch)
    KernelSpec(m=1, n=n, psi=parse("1", n), s=(parse("t1", n),)).validate()
    assert seen[0].shape == ({1: 1025, 2: 33 ** 2, 3: 33 ** 3, 4: 1024}[n], n)


def _validate(n, psi="1", s="t1", beta=None):
    KernelSpec(m=1, n=n, psi=parse(psi, n), s=(parse(s, n),), beta=beta).validate()


# (negative on the slab of width 1/33 at a face of axis i, nonnegative)
FACE_SLABS = [("t{i} - 1/33", "t{i}"), ("32/33 - t{i}", "33/32 - t{i}")]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_validation_rejects_psi_negative_on_a_slab_at_each_face(n):
    for i in range(1, n + 1):
        for negative, positive in FACE_SLABS:
            _validate(n, psi=positive.format(i=i))
            with pytest.raises(ValueError, match="psi takes negative values"):
                _validate(n, psi=negative.format(i=i))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_validation_rejects_a_pole_on_the_midplane(n):
    for i in range(1, n + 1):
        _validate(n, s=f"1/(t{i} + 1/2)")
        with pytest.raises(ValueError):
            _validate(n, s=f"1/(t{i} - 1/2)")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_validation_rejects_a_failing_declared_beta(n):
    prod = " * ".join(f"t{i}" for i in range(1, n + 1))
    _validate(n, s=prod, beta=float(n))
    with pytest.raises(ValueError, match="declared beta"):
        _validate(n, s=f"({prod})^2", beta=float(n))


def test_kernel_validation_rejects_negative_psi():
    k = KernelSpec(m=1, n=1, psi=parse("t1 - 0.5", 1), s=(parse("t1", 1),))
    with pytest.raises(ValueError):
        k.validate()


def test_kernel_validation_rejects_false_beta():
    k = KernelSpec(m=1, n=1, psi=parse("1", 1), s=(parse("t1^2", 1),), beta=1.0)
    with pytest.raises(ValueError):
        k.validate()


def test_derived_exponent_identity_is_exact_rationals():
    s = diagonal_scenario(p=(4, 4))
    assert s.p_out_exact() == Fraction(2)
    assert 1 / s.p_out_exact() - Fraction(1, 4) - Fraction(1, 4) == 0
    sc = diagonal_scenario(p=(6, 6), q=(6, 6), lam=(-0.125, -0.125))
    assert 1 / sc.p_out_exact() == Fraction(2, 3)


def test_product_weight_degree():
    k = KernelSpec(m=2, n=2, psi=parse("1", 2), s=(parse("t1", 2), parse("t2", 2)))
    s = Scenario(d=3, kernel=k,
                 weights=(isotropic(3, 0.5), isotropic(3, -1.0)), p=(3, 3))
    p = s.p_out
    want = (p / 3.0) * 0.5 + (p / 3.0) * (-1.0)
    assert s.alpha == pytest.approx(want, abs=1e-14)
    assert s.omega.degree == pytest.approx(want, abs=1e-14)


def test_walpha_equality_for_power_weights():
    k = KernelSpec(m=2, n=2, psi=parse("1", 2), s=(parse("t1", 2), parse("t2", 2)))
    s = Scenario(d=2, kernel=k,
                 weights=(isotropic(2, 0.7), isotropic(2, -0.4)), p=(3, 6))
    rep = check_walpha_condition(s)
    assert rep.passed
    assert rep.slack == pytest.approx(0.0, abs=1e-12 * rep.lhs)


def test_walpha_single_slot_is_always_equality():
    rep = check_walpha_condition(hardy_scenario(p=2.5))
    assert rep.slack == pytest.approx(0.0, abs=1e-13)


def test_walpha_scaled_weights_d1():
    # d=1 with omega_k = 2|x|^0 and p_k = 2: both sides equal 4
    k = KernelSpec(m=2, n=2, psi=parse("1", 2), s=(parse("t1", 2), parse("t2", 2)))
    s = Scenario(d=1, kernel=k,
                 weights=(isotropic(1, 0.0, c=2.0), isotropic(1, 0.0, c=2.0)),
                 p=(2, 2))
    rep = check_walpha_condition(s)
    assert rep.lhs == pytest.approx(4.0, rel=1e-14)
    assert rep.rhs == pytest.approx(4.0, rel=1e-14)


def test_walpha_fails_for_mismatched_angular_concentration():
    # Cauchy-Schwarz forces lhs <= rhs here, strictly unless proportional:
    # int |cos|^4 < (int |cos|^8)^{1/2} (int 1)^{1/2}
    k = KernelSpec(m=2, n=2, psi=parse("1", 2), s=(parse("t1", 2), parse("t2", 2)))
    spiky = Weight(d=2, degree=0.0, kind="power-x1", c=1.0, e=8.0)
    flat = isotropic(2, 0.0)
    s = Scenario(d=2, kernel=k, weights=(spiky, flat), p=(2, 2))
    rep = check_walpha_condition(s)
    assert not rep.passed
    assert rep.slack < -1e-3


def test_morrey_balance_unit_weights_equal_products():
    s = diagonal_scenario(p=(4, 4), lam=(-0.125, -0.125))
    suff = check_morrey_balance(s, "sufficiency")
    nec = check_morrey_balance(s, "necessity")
    assert suff.passed and nec.passed
    assert suff.slack == pytest.approx(0.0, abs=1e-12)
    assert nec.slack == pytest.approx(0.0, abs=1e-12)


def test_morrey_balance_single_slot_trivial():
    k = KernelSpec(m=1, n=1, psi=parse("1", 1), s=(parse("t1", 1),))
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.4),), p=(2,),
                 lam=(-0.3,), mode="morrey")
    for direction in ("sufficiency", "necessity"):
        rep = check_morrey_balance(s, direction)
        assert rep.passed
        assert rep.slack == pytest.approx(0.0, abs=1e-12)


def test_morrey_necessity_needs_equal_lambda_p():
    s = diagonal_scenario(p=(4, 4), lam=(-0.2, -0.05))
    nec = check_morrey_balance(s, "necessity")
    assert not nec.passed
    assert "rhs_product_mass_variant" in nec.details


def test_scenario_validation():
    k = KernelSpec(m=1, n=1, psi=parse("1", 1), s=(parse("t1", 1),))
    with pytest.raises(ValueError):
        Scenario(d=1, kernel=k, weights=(isotropic(2, 0.0),), p=(2,))
    with pytest.raises(ValueError):
        Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(0.5,))
    with pytest.raises(ValueError):
        Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(2,),
                 lam=(-0.9,), mode="morrey")  # outside [-1/p, 0)
    with pytest.raises(ValueError):
        Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(2,),
                 mode="commutator")  # q missing


def test_commutator_lambda_is_plain_sum_and_morrey_weighted():
    sm = diagonal_scenario(p=(4, 4), lam=(-0.125, -0.125))
    assert sm.lam_out == pytest.approx(-0.25)
    sc = diagonal_scenario(p=(6, 6), q=(6, 6), lam=(-0.125, -0.125))
    assert sc.lam_out == pytest.approx(-0.25)
    # unequal degrees make the morrey weighting nontrivial
    k = KernelSpec(m=2, n=2, psi=parse("1", 2), s=(parse("t1", 2), parse("t2", 2)))
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 1.0), isotropic(1, 0.0)),
                 p=(4, 4), lam=(-0.1, -0.1), mode="morrey")
    dpa = 1 + s.alpha
    want = (1 + 1.0) / dpa * -0.1 + (1 + 0.0) / dpa * -0.1
    assert s.lam_out == pytest.approx(want, rel=1e-14)

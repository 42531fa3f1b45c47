import math

import numpy as np
import pytest

from hardylab.expr import parse
from hardylab.quad import SingularityHints, integrate_unit_cube
from hardylab.spaces import _radius_grid
from hardylab.weights import Weight, isotropic, product_weight, sphere_surface_area


def test_pointwise_power_weights():
    assert isotropic(1, 2.0)([[-3.0]])[0] == pytest.approx(9.0)
    assert isotropic(2, 0.0)([[0.3, -0.4]])[0] == pytest.approx(1.0)
    assert isotropic(3, -1.0)([[0.0, 0.0, 2.0]])[0] == pytest.approx(0.5)


@pytest.mark.parametrize("c", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("kind", ["isotropic", "power-x1"])
def test_weight_constant_must_be_positive(kind, c):
    # c = 0 made zero ball masses (a ZeroDivisionError in the Morrey
    # brackets), c = -1 a complex Lebesgue norm reported as finite
    with pytest.raises(ValueError, match="weight constant c must be > 0"):
        Weight(d=2, degree=0.0, kind=kind, c=c)


def test_origin_conventions():
    assert isotropic(2, 1.5)([[0.0, 0.0]])[0] == 0.0
    from hardylab.expr import DomainError

    with pytest.raises(DomainError):
        isotropic(2, -0.5)([[0.0, 0.0]])


def test_sphere_integrals():
    # d = 1 convention: 2 * omega(1), for every kind
    assert isotropic(1, -0.3, c=3.0).sphere_integral() == pytest.approx(6.0)
    angular = Weight(d=1, degree=0.0, kind="angular", phi=parse("2 + t1^2", 1))
    power_x1 = Weight(d=1, degree=0.0, kind="power-x1", c=1.5)
    assert angular.sphere_integral() == 4.0
    assert power_x1.sphere_integral() == 3.0
    both = product_weight([(angular, 0.5), (power_x1, 0.5)])
    assert both.sphere_integral() == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-15)
    assert isotropic(2, 0.0).sphere_integral() == pytest.approx(2.0 * math.pi)
    assert isotropic(3, 0.0).sphere_integral() == pytest.approx(4.0 * math.pi)


def test_first_coordinate_weight_against_quadrature_oracle():
    w = Weight(d=3, degree=0.0, kind="power-x1", c=1.0, e=0.7)

    def oracle(t):
        th = t[:, 0] * math.pi
        ph = t[:, 1] * 2.0 * math.pi
        return (np.abs(np.sin(th) * np.cos(ph)) ** 0.7 * np.sin(th)
                * math.pi * 2.0 * math.pi)

    res = integrate_unit_cube(oracle, 2, sing=SingularityHints.regular(2), tol=1e-8)
    assert w.sphere_integral() == pytest.approx(res.value, rel=1e-7)


def test_ball_integrals():
    # the ball masses of the norms' radius grid, at R = 1/2, 1 and 2
    for w, want in ((isotropic(1, 0.0), [1.0, 2.0, 4.0]),
                    (isotropic(2, 0.0), [math.pi / 4.0, math.pi, 4.0 * math.pi]),
                    # polar-reduction oracle: 4*pi * int_0^R r^{-1} r^2 dr = 2*pi R^2
                    (isotropic(3, -1.0), [math.pi / 2.0, 2.0 * math.pi, 8.0 * math.pi])):
        radii, masses = _radius_grid(w.sphere_integral(), w.d + w.degree, 1)
        assert radii == [0.5, 1.0, 2.0]
        assert masses == pytest.approx(want)


def test_ball_divergence_flag():
    assert not isotropic(2, -2.0).locally_integrable()
    assert isotropic(2, -1.9).locally_integrable()


def test_homogeneity_sampled(rng):
    w = Weight(d=2, degree=-0.5, kind="power-x1", c=2.0, e=0.3)
    x = rng.normal(size=(256, 2))
    t = rng.uniform(0.1, 3.0, size=256) * rng.choice([-1.0, 1.0], size=256)
    lhs = w(x * t[:, None])
    rhs = np.abs(t) ** -0.5 * w(x)
    assert np.max(np.abs(lhs - rhs) / rhs) <= 1e-12


def test_ball_scaling_identity():
    # omega(sB) = |s|^{d+alpha} omega(B), for the dyadic s = 2^k of the radius grid
    for w in (isotropic(1, 0.5), isotropic(2, -0.7), isotropic(3, 1.2)):
        dpa = w.d + w.degree
        _, masses = _radius_grid(w.sphere_integral(), dpa, 8)
        for k in (1, 2, 5):
            for lo, hi in zip(masses, masses[k:]):
                assert hi == pytest.approx(2.0 ** (k * dpa) * lo, rel=1e-12)


def test_product_weight_mass_is_not_product_of_masses():
    # the gap between the two sides is exactly the homogeneous-vector condition
    w1 = Weight(d=2, degree=0.0, kind="power-x1", c=1.0, e=1.0)
    w2 = Weight(d=2, degree=0.0, kind="power-x1", c=1.0, e=1.0)
    prod = product_weight([(w1, 0.5), (w2, 0.5)])
    lhs = prod.sphere_integral()
    rhs = w1.sphere_integral() ** 0.5 * w2.sphere_integral() ** 0.5
    assert lhs == pytest.approx(4.0)  # int |cos|
    assert rhs == pytest.approx(4.0)
    w3 = Weight(d=2, degree=0.0, kind="power-x1", c=1.0, e=2.0)
    mixed = product_weight([(w1, 0.5), (w3, 0.5)])
    assert mixed.sphere_integral() < (w1.sphere_integral() ** 0.5
                                      * w3.sphere_integral() ** 0.5)


def test_angular_profile_weight():
    from hardylab.expr import parse

    w = Weight(d=2, degree=0.0, kind="angular", phi=parse("2 + 0*t1", 1))
    assert w.sphere_integral() == pytest.approx(4.0 * math.pi, rel=1e-10)


def test_angular_profile_must_be_even_and_nonnegative():
    from hardylab.expr import parse

    with pytest.raises(ValueError):
        Weight(d=2, degree=0.0, kind="angular", phi=parse("2 + 0.1*t1", 1))
    with pytest.raises(ValueError):
        Weight(d=2, degree=0.0, kind="angular", phi=parse("0 - 1 - 0*t1", 1))
    Weight(d=2, degree=0.0, kind="angular", phi=parse("1 + abs(t1)", 1))


def test_surface_areas():
    assert sphere_surface_area(1) == 2.0
    assert sphere_surface_area(2) == pytest.approx(2.0 * math.pi)
    assert sphere_surface_area(4) == pytest.approx(2.0 * math.pi ** 2)

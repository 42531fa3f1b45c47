import math

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from hardylab.constants import _printed_variant_exponents, compute_constant
from hardylab.expr import parse
from hardylab.kernels import KernelSpec, Scenario
from hardylab.operators import OperatorInstance, apply
from hardylab.spaces import log_profile, power_profile
from hardylab.weights import isotropic

from conftest import diagonal_scenario, hardy_scenario


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_hardy_constant_both_routes(p):
    s = hardy_scenario(p=p)
    closed = compute_constant("lebesgue", s)
    quad = compute_constant("lebesgue", s, force_quadrature=True)
    want = p / (p - 1.0)
    assert closed.method == "closed-form"
    assert closed.value == pytest.approx(want, rel=1e-12)
    assert quad.method == "quadrature"
    assert quad.value == pytest.approx(want, rel=1e-6)


def test_letter_aliases_accepted():
    s = hardy_scenario()
    assert compute_constant("A", s).value == compute_constant("lebesgue", s).value


@pytest.mark.parametrize("a", [0.5, 0.0, -0.3])
def test_power_density_family(a):
    # psi = t^a on one slot: constant 1/(a + 1 - 1/p) when a > 1/p - 1
    p = 2.0
    k = KernelSpec(m=1, n=1, psi=parse(f"t1^{a}", 1), s=(parse("t1", 1),))
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(p,))
    c = compute_constant("lebesgue", s)
    assert not c.divergent
    assert c.value == pytest.approx(1.0 / (a + 1.0 - 1.0 / p), rel=1e-10)


@pytest.mark.parametrize("a", [-0.5, -0.7])
def test_power_density_divergence(a):
    # at and below a = 1/p - 1 the integral is infinite
    p = 2.0
    k = KernelSpec(m=1, n=1, psi=parse(f"t1^{a}", 1), s=(parse("t1", 1),))
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(p,))
    c = compute_constant("lebesgue", s)
    assert c.divergent
    assert c.value == math.inf


def test_two_slot_monomial_value():
    s = diagonal_scenario(p=(4, 4))
    closed = compute_constant("lebesgue", s)
    quad = compute_constant("lebesgue", s, force_quadrature=True)
    assert closed.value == pytest.approx(16.0 / 9.0, rel=1e-14)
    assert quad.value == pytest.approx(16.0 / 9.0, rel=1e-6)


def test_slot_exponents_follow_weights():
    k = KernelSpec(m=2, n=2, psi=parse("1", 2), s=(parse("t1", 2), parse("t2", 2)))
    s = Scenario(d=3, kernel=k, weights=(isotropic(3, 0.5), isotropic(3, -1.0)),
                 p=(3, 6))
    c = compute_constant("lebesgue", s)
    assert c.slot_exponents[0] == pytest.approx(-(3 + 0.5) / 3.0)
    assert c.slot_exponents[1] == pytest.approx(-(3 - 1.0) / 6.0)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_hausdorff_gamma_constant(p):
    k = KernelSpec(m=1, n=1, psi=parse("exp(-t1)", 1), s=(parse("1/t1", 1),),
                   domain="positive-orthant")
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(p,))
    c = compute_constant("lebesgue-hausdorff", s)
    assert c.value == pytest.approx(math.gamma(1.0 + 1.0 / p), rel=1e-5)


def test_kind_domain_consistency():
    s = hardy_scenario()
    with pytest.raises(ValueError):
        compute_constant("lebesgue-hausdorff", s)
    k = KernelSpec(m=1, n=1, psi=parse("exp(-t1)", 1), s=(parse("1/t1", 1),),
                   domain="positive-orthant")
    so = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(2,))
    with pytest.raises(ValueError):
        compute_constant("lebesgue", so)


def test_riesz_density_matches_beta_function():
    # psi = (1-t)^{alpha-1}/Gamma(alpha), s = t:
    # constant = B(1 - 1/p, alpha)/Gamma(alpha)
    alpha, p = 0.5, 2.0
    coeff = 1.0 / math.gamma(alpha)
    k = KernelSpec(m=1, n=1,
                   psi=parse(f"norm1m(1-t1)^({alpha - 1.0}) * {coeff}", 1),
                   s=(parse("t1", 1),))
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(p,))
    c = compute_constant("lebesgue", s)
    want = beta_fn(1.0 - 1.0 / p, alpha) / math.gamma(alpha)
    assert c.method == "quadrature"
    assert c.value == pytest.approx(want, rel=1e-7)


def test_two_slot_riesz_corner_kernel_against_scipy():
    # euclidean corner kernel |(1-t1,1-t2)|^{alpha-2}: integrable corner
    # singularity below the per-axis -1 threshold; cross-checked against an
    # independent scipy cubature
    import warnings

    from scipy import integrate as si

    alpha = 0.5
    coeff = 1.0 / math.gamma(alpha)
    k = KernelSpec(m=2, n=2,
                   psi=parse(f"norm1m(1-t1,1-t2)^({alpha - 2.0}) * {coeff}", 2),
                   s=(parse("t1", 2), parse("t2", 2)))
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),) * 2, p=(4, 4))
    c = compute_constant("lebesgue", s)
    assert not c.divergent

    def f(t2, t1):
        return ((t1 * t2) ** -0.25
                * ((1 - t1) ** 2 + (1 - t2) ** 2) ** ((alpha - 2.0) / 2) * coeff)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want, _ = si.dblquad(f, 1e-13, 1 - 1e-13, 1e-13, 1 - 1e-13,
                             epsabs=1e-11, epsrel=1e-11)
    assert c.value == pytest.approx(want, rel=1e-6)


def test_monotone_in_inverse_exponent():
    # |s_k| <= 1 forces the constant to grow as 1/p_k grows
    values = []
    for p in (4.0, 3.0, 2.0, 1.5):
        values.append(compute_constant("lebesgue", hardy_scenario(p=p)).value)
    assert all(values[i] < values[i + 1] for i in range(len(values) - 1))


def test_morrey_constant_and_printed_variant():
    s = diagonal_scenario(p=(4, 4), lam=(-0.125, -0.125))
    c = compute_constant("morrey", s)
    assert c.value == pytest.approx((8.0 / 7.0) ** 2, rel=1e-14)
    # printed-variant exponent is positive, so that integral is finite too
    assert c.as_printed_value == pytest.approx((1.0 / (1.0 + 1.0 / 32.0)) ** 2,
                                               rel=1e-12)
    assert c.as_printed_divergent is False


def test_commutator_constants_log_moment():
    k = KernelSpec(m=1, n=1, psi=parse("1", 1), s=(parse("t1", 1),))
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(3,), q=(6,),
                 lam=(-0.25,))
    c = compute_constant("commutator-power", s)
    d = compute_constant("commutator-log", s)
    assert c.value == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert d.value == pytest.approx(16.0 / 9.0, rel=1e-14)
    dq = compute_constant("commutator-log", s, force_quadrature=True)
    assert dq.value == pytest.approx(16.0 / 9.0, rel=1e-6)


def test_commutator_log_with_scaled_dilation_quadrature():
    # |log|s|| with s = 0.5 t is an absolute-value kink: quadrature route
    k = KernelSpec(m=1, n=1, psi=parse("1", 1), s=(parse("0.5*t1", 1),))
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(3,), q=(6,),
                 lam=(-0.25,))
    d = compute_constant("commutator-log", s)
    assert d.method == "quadrature"
    # oracle: int_0^1 (t/2)^{-1/4} |log(t/2)| dt; |s| <= 1 so |log| = log(1/.)
    want = 2.0 ** 0.25 * (16.0 / 9.0 + math.log(2.0) * 4.0 / 3.0)
    assert d.value == pytest.approx(want, rel=1e-7)


@pytest.mark.parametrize("a", [0.0, 0.5, -0.5])
def test_commutator_log_general_density_against_series(a):
    # psi = e^t t^a has no closed form: quadrature with psi's face probed and
    # the slot's log factor counted on the t = 0 face.  Oracle:
    # int_0^1 t^{a-1/4} log(1/t) e^t dt = sum_k 1/(k! (k+a+3/4)^2)
    k = KernelSpec(m=1, n=1, psi=parse(f"exp(t1) * t1^({a})", 1),
                   s=(parse("t1", 1),))
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(3,), q=(6,),
                 lam=(-0.25,))
    got = compute_constant("commutator-log", s)
    want = math.fsum(1.0 / (math.factorial(j) * (j + a + 0.75) ** 2)
                     for j in range(30))
    assert got.method == "quadrature"
    assert abs(got.value - want) <= got.error


@pytest.mark.parametrize("lam,d", [(-0.1, 1), (-0.28, 1), (-0.2, 3),
                                   (-0.25, 4), (-0.28, 4)])
def test_power_and_log_constants_share_finiteness_when_separated(lam, d):
    # |s| = 0.5 t <= 0.5 < 1 keeps |log|s|| comparable to a constant, so the
    # power and log variants are finite or infinite together
    k = KernelSpec(m=1, n=1, psi=parse("1", 1), s=(parse("0.5*t1", 1),))
    s = Scenario(d=d, kernel=k, weights=(isotropic(d, 0.0),),
                 p=(3.5,), q=(6,), lam=(lam,))
    c = compute_constant("commutator-power", s)
    dd = compute_constant("commutator-log", s)
    assert c.divergent == dd.divergent
    # (d+alpha)*lam <= -1 is exactly the divergent regime
    assert c.divergent == (d * lam <= -1.0)


def test_commutator_divergence_pair():
    # (d+alpha) lambda <= -1 makes both constants infinite
    k = KernelSpec(m=1, n=1, psi=parse("1", 1), s=(parse("t1", 1),))
    s = Scenario(d=4, kernel=k, weights=(isotropic(4, 0.0),), p=(3,), q=(6,),
                 lam=(-0.3,))  # exponent -1.2
    assert compute_constant("commutator-power", s).divergent
    assert compute_constant("commutator-log", s).divergent


@pytest.mark.xfail(strict=True, reason="the probe reads the t = 0 face of 1 + 0.01/t as "
                   "-0.960, so no divergence scan runs and the constant reads a "
                   "finite 7.664 (ROADMAP items 13 and 1)")
def test_a_small_divergent_term_of_psi_makes_the_constant_divergent():
    # psi |s|^{-1/2} = 1 + 0.01/t: A is infinite
    k = KernelSpec(m=1, n=1, psi=parse("t1^0.5 + 0.01 * t1^-0.5", 1), s=(parse("t1", 1),))
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(2,))
    assert compute_constant("lebesgue", s).divergent


def test_morrey_kind_needs_lambda_exponents():
    with pytest.raises(ValueError, match="lambda"):
        compute_constant("morrey", hardy_scenario())


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown constant kind"):
        compute_constant("bogus", hardy_scenario())


def _seeded_monomial_scenarios(unit: bool):
    """Commutator-mode scenarios, m = 1..3, with psi = c t^a and slots
    s_k = c_k t_i^{e_k}: c and every c_k random (so != 1), or all 1 when
    ``unit``."""
    rng = np.random.default_rng(2024 + unit)

    def coeff():
        return 1.0 if unit else float(rng.uniform(0.3, 2.5))

    for m in (1, 2, 3):
        for _ in range(5):
            n = int(rng.integers(1, 4))
            psi = f"{coeff()!r}" + "".join(
                f" * t{i + 1}^({float(rng.uniform(-0.3, 0.8))!r})" for i in range(n))
            slots = tuple(
                f"{coeff()!r} * t{int(rng.integers(1, n + 1))}"
                f"^({float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.5))!r})"
                for _ in range(m))
            d = int(rng.integers(1, 4))
            p = tuple(float(pk) for pk in rng.uniform(2.0, 6.0, m))
            k = KernelSpec(m=m, n=n, psi=parse(psi, n), s=tuple(parse(sk, n) for sk in slots))
            yield Scenario(d=d, kernel=k,
                           weights=tuple(isotropic(d, float(a)) for a in rng.uniform(-0.3, 0.5, m)),
                           p=p, q=tuple(2.0 * pk for pk in p),
                           lam=tuple(float(rng.uniform(-1.0, -0.05)) / pk for pk in p))


def _at_e1(s, gammas, symbols=()):
    """The operator at x = e_1 on the inputs |y|^{gamma_k}."""
    e1 = np.zeros(s.d)
    e1[0] = 1.0
    inst = OperatorInstance(s, tuple(power_profile(g) for g in gammas), symbols)
    return apply(inst, e1).value


def test_closed_forms_are_the_operator_on_the_extremal_powers():
    # one home for the moment product: every closed form is the separable
    # route's value at |x| = 1, to the last bit
    for s in _seeded_monomial_scenarios(unit=False):
        for kind in ("lebesgue", "morrey", "commutator-power"):
            c = compute_constant(kind, s)
            assert c.method == "closed-form"
            assert c.value == _at_e1(s, c.slot_exponents)
        printed = _printed_variant_exponents(s)
        assert compute_constant("morrey", s).as_printed_value == _at_e1(s, printed)


def test_log_closed_form_is_the_log_symbol_commutator():
    for s in _seeded_monomial_scenarios(unit=True):
        c = compute_constant("commutator-log", s)
        assert c.method == "closed-form"
        assert c.value == abs(_at_e1(s, c.slot_exponents, (log_profile(),) * s.m))


def test_zero_psi_log_constant_is_closed_form_before_the_slot_checks():
    # s = 2 t has no |log|s|| closed form, but psi = 0 settles the value first
    k = KernelSpec(m=1, n=1, psi=parse("0", 1), s=(parse("2 * t1", 1),))
    s = Scenario(d=1, kernel=k, weights=(isotropic(1, 0.0),), p=(3,), q=(6,),
                 lam=(-0.25,))
    c = compute_constant("commutator-log", s)
    assert c.method == "closed-form"
    assert c.value == 0.0 and not c.divergent

"""Kernel specifications (psi, s_1..s_m) and full problem scenarios.

A kernel couples m function slots to an n-dimensional integration variable
through dilation maps s_k; psi is the nonnegative density.  A Scenario adds
the ambient dimension, one homogeneous weight and one Lebesgue exponent per
slot, and (in Morrey or commutator mode) the central-Morrey exponents.

Derived quantities:

    1/p      = sum_k 1/p_k            (+ sum_k 1/q_k in commutator mode)
    alpha    = sum_k (p/p_k) alpha_k
    omega    = prod_k omega_k^{p/p_k}
    lambda   = sum_k ((d+alpha_k)/(d+alpha)) lambda_k   (morrey mode)
             = sum_k lambda_k                            (commutator mode)

p is kept as an exact rational whenever the inputs are rational, so the
defining identity of p holds exactly, not merely to rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import expr as _expr
from .expr import ClosedFormClass, Expr, classify
from .quad import SingularityHints
from .weights import Weight, product_weight

__all__ = ["KernelSpec", "KernelPlan", "Scenario", "ConditionReport",
           "cube_points", "check_beta_condition", "check_walpha_condition",
           "check_morrey_balance"]


# One sampler serves every sampled check: kernel validation, the beta
# condition, the harness's support start and kernel separation.  Its n <= 3
# grids need no scipy; only n >= 4 imports scipy.stats, for Sobol points.
# Each table is built once per process and shared read-only.

def cube_points(n: int, grid: int, seed: int) -> np.ndarray:
    """Deterministic sample of the open cube: the midpoint grid with ``grid``
    points per axis for n <= 3, which does not depend on ``seed``, else 1024
    scrambled Sobol points, which do not depend on ``grid``.  The table is
    cached and read-only."""
    return _cube_table(n, grid, 0) if n <= 3 else _cube_table(n, 0, seed)


@functools.lru_cache(maxsize=32)
def _cube_table(n: int, grid: int, seed: int) -> np.ndarray:
    if n > 3:
        from scipy.stats import qmc

        pts = np.clip(qmc.Sobol(d=n, scramble=True, seed=seed).random(1024),
                      1e-9, 1.0 - 1e-9)
    else:
        axis = (np.arange(grid) + 0.5) / grid
        mesh = np.meshgrid(*([axis] * n), indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=1)
    pts.flags.writeable = False
    return pts


def _single_axis_monomial(c: ClosedFormClass):
    """(axis (1-based) or 0 for a constant, |coefficient|, exponent) or None."""
    if c.tag != "monomial" or c.r_exponent != 0.0:
        return None
    axes = [i for i, a in enumerate(c.t_exponents) if a != 0.0]
    if len(axes) == 0:
        return (0, abs(c.coeff), 0.0)
    if len(axes) == 1:
        i = axes[0]
        return (i + 1, abs(c.coeff), c.t_exponents[i])
    return None


@dataclass(frozen=True)
class KernelPlan:
    """A kernel classified once, for the closed-form, separable and
    quadrature routes.

    ``psi`` is the class of psi, ``slots[k]`` the single-axis monomial
    (axis, |c|, e) of s_k or None, and ``base`` psi's own face hints.
    """

    psi: ClosedFormClass
    slots: tuple
    base: SingularityHints

    def axis_exponents(self, zero, zero_logs, slot_exponents, log_slots: bool):
        """The t_i -> 0 exponents (None stays None) and log powers of a
        factor with faces (zero, zero_logs) times prod_k |s_k|^{gamma_k}, and
        times one log per slot when ``log_slots``; every slot a monomial."""
        zero, logs = list(zero), list(zero_logs)
        for (axis, _, e_k), gamma in zip(self.slots, slot_exponents):
            if axis == 0:
                continue
            if zero[axis - 1] is not None:
                zero[axis - 1] += e_k * gamma
            if log_slots:
                logs[axis - 1] += 1
        return zero, logs

    def hints(self, slot_exponents, log_slots: bool) -> SingularityHints:
        """Face hints for psi * prod_k |s_k|^{gamma_k}, times one log factor
        per slot when ``log_slots``; a None exponent marks an unknown slot."""
        base = self.base
        if any(mono is None or gamma is None
               for mono, gamma in zip(self.slots, slot_exponents)):
            # an unclassified slot can push singular behaviour to either face
            n = len(base.zero)
            return replace(base, zero=(None,) * n, one=(None,) * n)
        zero, logs = self.axis_exponents(base.zero, base.zero_logs, slot_exponents,
                                         log_slots)
        return replace(base, zero=tuple(zero), zero_logs=tuple(logs))


@dataclass(frozen=True)
class KernelSpec:
    """(m, n, psi, s_1..s_m) plus domain and face metadata.

    domain is 'unit-cube' or 'positive-orthant'.  ``sing`` declares the face
    exponents of psi itself (the slot factors add their own contributions at
    evaluation time).  ``beta`` is the optional lower-bound order for the
    dilation maps: |s_k(t)| >= min_i t_i^beta almost everywhere.
    """

    m: int
    n: int
    psi: Expr
    s: tuple[Expr, ...]
    domain: str = "unit-cube"
    sing: SingularityHints | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be >= 1")
        if len(self.s) != self.m:
            raise ValueError(f"expected {self.m} dilation maps, got {len(self.s)}")
        if self.domain not in ("unit-cube", "positive-orthant"):
            raise ValueError(f"unknown domain {self.domain!r}")
        bad = [i for i in self.psi.free_t_indices() if i > self.n]
        for sk in self.s:
            bad += [i for i in sk.free_t_indices() if i > self.n]
        if bad:
            raise ValueError(f"variable indices {sorted(set(bad))} exceed n={self.n}")

    @functools.cached_property
    def plan(self) -> KernelPlan:
        """psi and every s_k classified on first use, then kept."""
        n = self.n
        psi_c = classify(self.psi, n)
        if psi_c.has_closed_form:
            base = SingularityHints(zero=psi_c.t_exponents, one=(0.0,) * n,
                                    zero_logs=psi_c.t_log_powers,
                                    one_logs=(0,) * n)
        elif psi_c.tag == "riesz":
            # a multi-axis corner singularity is integrable down to exponent
            # -k, but per axis the face value is bounded: clamp above -1 so
            # the symbolic divergence check is not misled (the grading still
            # concentrates nodes at the corner, which is what helps)
            a1 = psi_c.riesz_exponent if psi_c.riesz_arity == 1 \
                else max(psi_c.riesz_exponent, -0.9)
            base = SingularityHints(zero=(0.0,) * n, one=(min(a1, 0.0),) * n,
                                    zero_logs=(0,) * n, one_logs=(0,) * n)
        elif self.sing is not None:
            base = self.sing.normalized(n)
        else:
            base = SingularityHints.unknown(n)
        slots = tuple(_single_axis_monomial(classify(sk, n)) for sk in self.s)
        return KernelPlan(psi=psi_c, slots=slots, base=base)

    def validate(self) -> None:
        """Sample the open domain: psi >= 0, dilations finite, beta holds.

        The sample has at least 1024 points: the 1025-point grid for n = 1
        and the beta check's 33-per-axis grid for n = 2 and 3, whose odd
        counts hold the midplanes t_i = 1/2, and Sobol points for n >= 4."""
        pts = cube_points(self.n, grid=1025 if self.n == 1 else 33, seed=7)
        if self.domain == "positive-orthant":
            dom_pts = pts / (1.0 - pts)
        else:
            dom_pts = pts
        psi_vals = _expr.evaluate(self.psi, t=dom_pts)
        if np.any(psi_vals < -1e-12):
            raise ValueError("psi takes negative values on the domain interior")
        for k, sk in enumerate(self.s):
            vals = _expr.evaluate(sk, t=dom_pts)
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"s_{k+1} is not finite on the domain interior")
        if self.beta is not None and self.domain == "unit-cube":
            rep = check_beta_condition(self, self.beta)
            if not rep.passed:
                raise ValueError(
                    f"declared beta={self.beta} fails: margin {rep.slack:.3g} "
                    f"at t={rep.witness}"
                )


_MODES = ("lebesgue", "morrey", "commutator")


@dataclass(frozen=True)
class Scenario:
    """A full problem instance: geometry, kernel, weights and exponents."""

    d: int
    kernel: KernelSpec
    weights: tuple[Weight, ...]
    p: tuple
    q: tuple = ()
    lam: tuple = ()
    mode: str = "lebesgue"

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if len(self.weights) != self.kernel.m or len(self.p) != self.kernel.m:
            raise ValueError("need one weight and one exponent p_k per slot")
        if any(w.d != self.d for w in self.weights):
            raise ValueError("weight dimensions disagree with the scenario dimension")
        for k in range(self.m):
            if not 1 <= self.slot_p(k):
                raise ValueError("p_k must satisfy 1 <= p_k < infinity")
        if self.mode == "commutator":
            if len(self.q) != self.kernel.m:
                raise ValueError("commutator mode needs one q_k per slot")
        if self.mode in ("morrey", "commutator"):
            if len(self.lam) != self.kernel.m:
                raise ValueError(f"{self.mode} mode needs one lambda_k per slot")
            for k, lk in enumerate(self.lam):
                if not (-1.0 / self.slot_p(k) <= lk < 0.0):
                    raise ValueError(
                        f"lambda_k={lk} outside the nontrivial range [-1/p_k, 0)"
                    )

    # -- derived exponents ----------------------------------------------------

    @property
    def m(self) -> int:
        return self.kernel.m

    def p_out_exact(self) -> Fraction:
        inv = sum((1 / Fraction(pk) for pk in self.p), Fraction(0))
        if self.mode == "commutator":
            inv += sum((1 / Fraction(qk) for qk in self.q), Fraction(0))
        return 1 / inv

    @property
    def p_out(self) -> float:
        return float(self.p_out_exact())

    @property
    def alpha(self) -> float:
        p = self.p_out
        return sum((p / self.slot_p(k)) * w.degree for k, w in enumerate(self.weights))

    @property
    def omega(self) -> Weight:
        p = self.p_out
        return product_weight(
            [(w, p / self.slot_p(k)) for k, w in enumerate(self.weights)]
        )

    @property
    def lam_out(self) -> float:
        if self.mode == "morrey":
            d, a = self.d, self.alpha
            return sum((self.d + w.degree) / (d + a) * lk
                       for w, lk in zip(self.weights, self.lam))
        if self.mode == "commutator":
            return float(sum(self.lam))
        raise ValueError("lambda is not defined in lebesgue mode")

    def slot_p(self, k: int) -> float:
        return float(Fraction(self.p[k]))

    def slot_q(self, k: int) -> float:
        return float(Fraction(self.q[k]))


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a structural condition check."""

    name: str
    passed: bool
    lhs: float
    rhs: float
    slack: float
    witness: tuple | None = None
    details: dict = field(default_factory=dict)


def check_beta_condition(kernel: KernelSpec, beta: float) -> ConditionReport:
    """Verify |s_k(t)| >= min_i t_i^beta on a deterministic sample of the cube.

    The condition is an almost-everywhere statement, so this is a sampled
    check with margin reporting: slack is the worst value of
    |s_k(t)| - min_i t_i^beta over the sample, and the witness is where it
    is attained.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    pts = cube_points(kernel.n, grid=33, seed=7)
    floor = np.min(pts ** beta, axis=1)
    worst = math.inf
    witness = None
    for sk in kernel.s:
        vals = np.abs(_expr.evaluate(sk, t=pts))
        margins = vals - floor
        i = int(np.argmin(margins))
        if margins[i] < worst:
            worst = float(margins[i])
            witness = tuple(float(v) for v in pts[i])
    passed = worst >= -1e-12
    return ConditionReport(
        name="beta-lower-bound", passed=passed, lhs=worst, rhs=0.0,
        slack=worst, witness=witness,
        details={"beta": beta, "samples": int(pts.shape[0])},
    )


def check_walpha_condition(s: Scenario) -> ConditionReport:
    """Product-weight sphere mass against the product of slot sphere masses:

        omega(S_d) >= prod_k omega_k(S_d)^{p/p_k},

    with equality for pure power weights |x|^{alpha_k}.
    """
    lhs = s.omega.sphere_integral()
    p = s.p_out
    rhs = 1.0
    for k, w in enumerate(s.weights):
        rhs *= w.sphere_integral() ** (p / s.slot_p(k))
    slack = lhs - rhs
    scale = max(abs(lhs), abs(rhs), 1.0)
    return ConditionReport(
        name="homogeneous-weight-vector", passed=slack >= -1e-12 * scale,
        lhs=lhs, rhs=rhs, slack=slack,
    )


def check_morrey_balance(s: Scenario, direction: str) -> ConditionReport:
    """The two sphere-mass balance conditions of the central Morrey bounds.

    direction 'sufficiency':
        (omega(S_d)/(d+alpha))^{(1+lambda p)/p}
            >= prod_k (omega_k(S_d)/(d+alpha_k))^{(1+lambda_k p_k)/p_k}

    direction 'necessity':
        (omega(S_d)/(d+alpha))^{lambda} (1+lambda p)^{1/p}
            <= prod_k (omega_k(S_d)/(d+alpha_k))^{lambda_k} (1+lambda_k p_k)^{1/p_k}

    The necessity right-hand side uses the slot sphere masses omega_k(S_d);
    the variant with the product mass in every factor is also reported under
    details['rhs_product_mass_variant'] so the difference stays visible.
    """
    if s.mode not in ("morrey", "commutator"):
        raise ValueError("morrey balance checks need a morrey/commutator scenario")
    d = s.d
    p = s.p_out
    lam = s.lam_out
    alpha = s.alpha
    om = s.omega.sphere_integral()
    if direction == "sufficiency":
        lhs = (om / (d + alpha)) ** ((1.0 + lam * p) / p)
        rhs = 1.0
        for k, (w, lk) in enumerate(zip(s.weights, s.lam)):
            pkf = s.slot_p(k)
            rhs *= (w.sphere_integral() / (d + w.degree)) ** ((1.0 + lk * pkf) / pkf)
        slack = lhs - rhs
        passed = slack >= -1e-12 * max(abs(lhs), abs(rhs), 1.0)
        return ConditionReport(name="morrey-balance-sufficiency", passed=passed,
                               lhs=lhs, rhs=rhs, slack=slack)
    if direction == "necessity":
        lhs = (om / (d + alpha)) ** lam * (1.0 + lam * p) ** (1.0 / p)
        rhs = 1.0
        rhs_printed = 1.0
        for k, (w, lk) in enumerate(zip(s.weights, s.lam)):
            pkf = s.slot_p(k)
            rhs *= (w.sphere_integral() / (d + w.degree)) ** lk \
                * (1.0 + lk * pkf) ** (1.0 / pkf)
            rhs_printed *= (om / (d + w.degree)) ** lk \
                * (1.0 + lk * pkf) ** (1.0 / pkf)
        slack = rhs - lhs
        passed = slack >= -1e-12 * max(abs(lhs), abs(rhs), 1.0)
        return ConditionReport(
            name="morrey-balance-necessity", passed=passed, lhs=lhs, rhs=rhs,
            slack=slack, details={"rhs_product_mass_variant": rhs_printed},
        )
    raise ValueError("direction must be 'sufficiency' or 'necessity'")

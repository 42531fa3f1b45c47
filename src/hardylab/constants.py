"""The sharp operator-norm constants.

Each constant is a kernel-side integral with per-slot exponents built from
the scenario geometry (d, weight degrees alpha_k, exponents p_k, lambda_k):

    lebesgue            int  prod_k |s_k(t)|^{-(d+alpha_k)/p_k} psi(t) dt     (cube)
    lebesgue-hausdorff  the same integral over the positive orthant
    morrey              int  prod_k |s_k(t)|^{(d+alpha_k) lambda_k} psi(t) dt (cube)
    morrey-hausdorff    the same integral over the positive orthant
    commutator-power    same integrand as 'morrey' (the commutator estimates
                        use it directly)
    commutator-log      morrey integrand times prod_k |log|s_k(t)||

A divergent value is meaningful: the boundedness characterizations are
if-and-only-if statements, so an infinite integral encodes an unbounded
operator and is reported as an explicit flag, never as a numerical failure.

The 'morrey' kind follows the exponent forced by the boundedness proof and
by the extremal computation, (d+alpha_k) lambda_k per slot.  The variant
with per-slot exponent -(d+alpha_k) lambda_k / p_k that sometimes appears in
print is additionally evaluated and attached to the result as
``as_printed_value`` so the discrepancy stays visible rather than silently
resolved.

A unit-cube constant is the operator's value at |x| = 1 on f_k = |y|^{gamma_k}
(with log|x| symbols for 'commutator-log'), so its closed form comes from
the separable route of :mod:`hardylab.operators`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as _expr
# kept as a module attribute: the benchmark's tracer test checks this alias
from .expr import classify  # noqa: F401
from .kernels import Scenario
from .operators import _separable
from .quad import integrate_positive_orthant, integrate_unit_cube

__all__ = ["SharpConstant", "compute_constant", "KIND_ALIASES"]

KIND_ALIASES = {
    "A": "lebesgue",
    "A_star": "lebesgue-hausdorff",
    "B": "morrey",
    "B_star": "morrey-hausdorff",
    "C": "commutator-power",
    "D": "commutator-log",
}
_CANONICAL = set(KIND_ALIASES.values())
_ORTHANT_KINDS = {"lebesgue-hausdorff", "morrey-hausdorff"}
_MORREY_KINDS = {"morrey", "morrey-hausdorff"}


@dataclass(frozen=True)
class SharpConstant:
    """A computed sharp constant with provenance.

    ``divergent`` set means the integral is +infinity (value = inf).  For the
    morrey kinds, ``as_printed_value`` carries the alternative printed-exponent
    variant of the integral (see the module docstring).
    """

    kind: str
    value: float
    divergent: bool
    method: str
    slot_exponents: tuple
    error: float = 0.0
    as_printed_value: float | None = None
    as_printed_divergent: bool | None = None


def _slot_exponents(kind: str, s: Scenario) -> tuple[float, ...]:
    d = s.d
    if kind in ("lebesgue", "lebesgue-hausdorff"):
        return tuple(-(d + w.degree) / s.slot_p(k) for k, w in enumerate(s.weights))
    if len(s.lam) != s.m:
        raise ValueError(f"kind {kind!r} needs per-slot lambda exponents")
    return tuple((d + w.degree) * lk for w, lk in zip(s.weights, s.lam))


def _printed_variant_exponents(s: Scenario) -> tuple[float, ...]:
    return tuple(-(s.d + w.degree) * lk / s.slot_p(k)
                 for k, (w, lk) in enumerate(zip(s.weights, s.lam)))


def _closed_form_cube(s: Scenario, gammas, with_log: bool):
    """The separable route's value at |x| = 1 for the inputs |y|^{gamma_k},
    or None when the data do not separate."""
    plan = s.kernel.plan
    profile = _separable(s.kernel, [(1.0, g, ()) for g in gammas], with_log)
    if profile is None:
        return None
    log_sign = 1.0
    if with_log and plan.psi.coeff != 0.0:
        # the commutator's -log|s_k| = e_k log(1/t) is |log|s_k|| up to
        # the sign of e_k only for coefficient-one, non-constant monomials
        if any(c_k != 1.0 or axis == 0 or e_k == 0.0 for axis, c_k, e_k in plan.slots):
            return None
        log_sign = math.prod(math.copysign(1.0, e_k) for _, _, e_k in plan.slots)
    return log_sign * float(profile(1.0))


def _quadrature(s: Scenario, gammas, with_log: bool, tol):
    kernel = s.kernel
    n = kernel.n

    def integrand(tpts: np.ndarray) -> np.ndarray:
        vals = _expr.evaluate(kernel.psi, t=tpts)
        for k, sk in enumerate(kernel.s):
            sv = np.abs(_expr.evaluate(sk, t=tpts))
            vals = vals * sv ** gammas[k]
            if with_log:
                vals = vals * np.abs(np.log(sv))
        return vals

    hints = kernel.plan.hints(gammas, with_log)
    if kernel.domain == "positive-orthant":
        return integrate_positive_orthant(integrand, n,
                                          sing_zero=hints, tol=tol)
    return integrate_unit_cube(integrand, n, sing=hints, tol=tol)


def _evaluate(s: Scenario, gammas, with_log: bool, tol,
              force_quadrature: bool):
    """(value, divergent, method, error)"""
    if s.kernel.domain == "unit-cube" and not force_quadrature:
        cf = _closed_form_cube(s, gammas, with_log)
        if cf is not None:
            if math.isinf(cf):
                return (math.inf, True, "closed-form", 0.0)
            return (cf, False, "closed-form", abs(cf) * 1e-15)
    res = _quadrature(s, gammas, with_log, tol)
    if res.divergent:
        return (math.inf, True, "quadrature", math.inf)
    return (res.value, False, "quadrature", res.abs_error_estimate)


def compute_constant(kind: str, s: Scenario, tol: float | None = None,
                     force_quadrature: bool = False) -> SharpConstant:
    """Evaluate one of the sharp constants for the scenario.

    ``kind`` accepts the canonical names from the module docstring as well
    as the short tags A, A_star, B, B_star, C, D.  Orthant kinds require an
    orthant kernel and vice versa.
    """
    kind = KIND_ALIASES.get(kind, kind)
    if kind not in _CANONICAL:
        raise ValueError(f"unknown constant kind {kind!r}")
    needs_orthant = kind in _ORTHANT_KINDS
    if needs_orthant != (s.kernel.domain == "positive-orthant"):
        want = "positive-orthant" if needs_orthant else "unit-cube"
        raise ValueError(f"kind {kind!r} requires a {want} kernel")
    gammas = _slot_exponents(kind, s)
    with_log = kind == "commutator-log"
    value, divergent, method, error = _evaluate(
        s, gammas, with_log, tol, force_quadrature
    )
    printed_value = None
    printed_divergent = None
    if kind in _MORREY_KINDS:
        pv, pdiv, _, _ = _evaluate(s, _printed_variant_exponents(s), False,
                                   tol, force_quadrature)
        printed_value, printed_divergent = pv, pdiv
    return SharpConstant(
        kind=kind, value=value, divergent=divergent, method=method,
        slot_exponents=gammas, error=error,
        as_printed_value=printed_value, as_printed_divergent=printed_divergent,
    )

"""Pointwise evaluation of the multilinear dilation-average operators.

The cube operator sends m functions to

    T(f_1,...,f_m)(x) = int_{[0,1]^n} prod_k f_k(s_k(t) x) psi(t) dt,

its Hausdorff variant integrates over the positive orthant instead, and the
commutator variant inserts prod_k (b_k(x) - b_k(s_k(t) x)) into the integrand.

Two evaluation routes are provided and cross-checked by the tests:

* an exact separable route for classified data (monomial psi, single-axis
  monomial dilations, power/cutoff radial inputs, log symbols), built from
  incomplete moments int t^b log(1/t)^m dt with closed-form recursions;
* a quadrature route over the full domain with face hints inferred from the
  classifications; cutoff inputs zero the integrand below the interface,
  with exact panel splits when the interface is axis-aligned.

Radial power inputs make the operator itself a radial power:
T(f)(x) = C |x|^{sum gamma_k}; ``apply_radial_closed_form`` returns that
coefficient and exponent directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as _expr
from .kernels import Scenario
from .quad import QuadResult, integrate_positive_orthant, integrate_unit_cube
from .spaces import RadialFunction

__all__ = ["OperatorInstance", "apply", "apply_radial_closed_form",
           "power_log_moment"]

_MODES = ("plain", "hausdorff", "commutator")


@dataclass(frozen=True)
class OperatorInstance:
    """A scenario bound to concrete inputs (and symbols, in commutator mode)."""

    scenario: Scenario
    inputs: tuple
    symbols: tuple = ()
    mode: str = "plain"

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        m = self.scenario.kernel.m
        if len(self.inputs) != m:
            raise ValueError(f"expected {m} inputs, got {len(self.inputs)}")
        if self.mode == "hausdorff" and self.scenario.kernel.domain != "positive-orthant":
            raise ValueError("hausdorff mode requires a positive-orthant kernel")
        if self.mode != "hausdorff" and self.scenario.kernel.domain != "unit-cube":
            raise ValueError(f"{self.mode} mode requires a unit-cube kernel")
        if self.mode == "commutator":
            if len(self.symbols) != m:
                raise ValueError("commutator mode needs one symbol per slot")
        elif self.symbols:
            raise ValueError("symbols are only meaningful in commutator mode")


def power_log_moment(b: float, m: int, lo: float, hi: float) -> float:
    """integral over [lo, hi] of t^b log(1/t)^m dt, 0 <= lo <= hi <= 1.

    Exact recursion: (b+1) I(b,m) = [t^{b+1} log(1/t)^m] + m I(b, m-1);
    for b = -1 the antiderivative is -log(1/t)^{m+1}/(m+1).  Divergent
    (returns inf) when lo = 0 and b <= -1.
    """
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError("need 0 <= lo <= hi <= 1")
    if hi == lo:
        return 0.0
    if lo == 0.0 and b <= -1.0:
        return math.inf

    def L(t: float) -> float:
        return math.log(1.0 / t)

    if b == -1.0:
        return (L(lo) ** (m + 1) - L(hi) ** (m + 1)) / (m + 1)
    if m == 0:
        top = hi ** (b + 1.0)
        bot = lo ** (b + 1.0) if lo > 0.0 else 0.0
        return (top - bot) / (b + 1.0)
    top = hi ** (b + 1.0) * L(hi) ** m
    bot = lo ** (b + 1.0) * L(lo) ** m if lo > 0.0 else 0.0
    return (top - bot + m * power_log_moment(b, m - 1, lo, hi)) / (b + 1.0)


# ---------------------------------------------------------------------------
# exact separable route
# ---------------------------------------------------------------------------

def _axis_window(e_k: float, c_k: float, xr: float, inner, outer):
    """[lo, hi] window on the s_k axis where the cutoffs keep f_k alive,
    for |s_k(t)| = c_k t^{e_k}; None when the window is empty."""
    lo, hi = 0.0, 1.0

    def clamp01(v):
        return min(max(v, 0.0), 1.0)

    if inner is not None:
        rho = inner / (c_k * xr)
        if e_k > 0:
            lo = max(lo, clamp01(rho ** (1.0 / e_k)))
        elif e_k < 0:
            hi = min(hi, clamp01(rho ** (1.0 / e_k)) if rho > 0 else 1.0)
        elif c_k * xr < inner:
            return None
    if outer is not None:
        rho = outer / (c_k * xr)
        if e_k > 0:
            hi = min(hi, clamp01(rho ** (1.0 / e_k)))
        elif e_k < 0:
            lo = max(lo, clamp01(rho ** (1.0 / e_k)) if rho > 0 else 0.0)
        elif c_k * xr > outer:
            return None
    if lo >= hi:
        return None
    return (lo, hi)


def _try_separable(inst: OperatorInstance, xr: float) -> float | None:
    """Exact value at radius |x| = xr, or None when the data do not separate."""
    kernel = inst.scenario.kernel
    if kernel.domain != "unit-cube" or xr <= 0.0:
        return None
    n = kernel.n
    plan = kernel.plan
    psi_c = plan.psi
    if not psi_c.has_closed_form:
        return None
    if psi_c.coeff == 0.0:
        return 0.0

    slots = []
    for k, f in enumerate(inst.inputs):
        if not isinstance(f, RadialFunction):
            return None
        pw = f.power_form()
        if pw is None:
            return None
        mono = plan.slots[k]
        if mono is None or mono[1] <= 0.0:
            return None
        if inst.mode == "commutator":
            sym = inst.symbols[k]
            if not (isinstance(sym, RadialFunction) and sym.is_log
                    and sym.inner_cutoff is None and sym.outer_cutoff is None):
                return None
        slots.append((mono, pw, f.inner_cutoff, f.outer_cutoff))

    # per-axis exponents and live windows
    b = list(psi_c.t_exponents)
    m_logs = list(psi_c.t_log_powers)
    lo = [0.0] * n
    hi = [1.0] * n
    coeff = psi_c.coeff
    for (axis, c_k, e_k), (fc, gamma), inner, outer in slots:
        if fc == 0.0:
            return 0.0
        coeff *= fc * (c_k * xr) ** gamma
        if axis == 0:
            if (inner is not None or outer is not None) and \
                    _axis_window(0.0, c_k, xr, inner, outer) is None:
                return 0.0
            continue
        b[axis - 1] += e_k * gamma
        if inner is not None or outer is not None:
            win = _axis_window(e_k, c_k, xr, inner, outer)
            if win is None:
                return 0.0
            lo[axis - 1] = max(lo[axis - 1], win[0])
            hi[axis - 1] = min(hi[axis - 1], win[1])
            if lo[axis - 1] >= hi[axis - 1]:
                return 0.0

    if inst.mode != "commutator":
        total = coeff
        for i in range(n):
            total *= power_log_moment(b[i], m_logs[i], lo[i], hi[i])
        return total

    # expand prod_k (delta_k + e_k log(1/t_{axis_k})), delta_k = -log c_k
    terms: list[tuple[float, tuple[int, ...]]] = [(1.0, (0,) * n)]
    for (axis, c_k, e_k), _, _, _ in slots:
        delta = -math.log(c_k)
        new_terms: list[tuple[float, tuple[int, ...]]] = []
        for tc, logs in terms:
            if delta != 0.0:
                new_terms.append((tc * delta, logs))
            if axis > 0 and e_k != 0.0:
                bumped = list(logs)
                bumped[axis - 1] += 1
                new_terms.append((tc * e_k, tuple(bumped)))
        terms = new_terms
        if not terms:
            return 0.0
    total = 0.0
    for tc, logs in terms:
        piece = coeff * tc
        for i in range(n):
            piece *= power_log_moment(b[i], m_logs[i] + logs[i], lo[i], hi[i])
        total += piece
    return total


# ---------------------------------------------------------------------------
# quadrature route
# ---------------------------------------------------------------------------

def _slot_eval(f, pts: np.ndarray) -> np.ndarray:
    if isinstance(f, RadialFunction):
        return f(pts)
    return np.asarray(f(pts), dtype=float)


def _cutoff_breakpoints(inst: OperatorInstance, xr: float) -> list:
    kernel = inst.scenario.kernel
    out: list[list[float]] = [[] for _ in range(kernel.n)]
    for k, f in enumerate(inst.inputs):
        if not isinstance(f, RadialFunction):
            continue
        if f.inner_cutoff is None and f.outer_cutoff is None:
            continue
        mono = kernel.plan.slots[k]
        if mono is None or mono[0] == 0 or mono[1] <= 0.0:
            continue
        axis, c_k, e_k = mono
        for cut in (f.inner_cutoff, f.outer_cutoff):
            if cut is None or cut <= 0.0 or e_k == 0.0:
                continue
            tau = (cut / (c_k * xr)) ** (1.0 / e_k)
            if 0.0 < tau < 1.0:
                out[axis - 1].append(tau)
    return out


def apply(inst: OperatorInstance, x, tol: float | None = None,
          force_quadrature: bool = False,
          max_cells: int | None = None) -> QuadResult:
    """Evaluate the operator at the point x (shape (d,), or a scalar in d=1).

    Radial inputs with classified kernels take the exact separable route;
    everything else is integrated by the graded adaptive quadrature with the
    divergence-detection policy of :mod:`hardylab.quad`.
    """
    s = inst.scenario
    kernel = s.kernel
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (s.d,):
        raise ValueError(f"x must be a point in R^{s.d}")
    xr = float(np.sqrt(np.sum(x * x)))

    if not force_quadrature:
        exact = _try_separable(inst, xr)
        if exact is not None:
            if not math.isfinite(exact):
                return QuadResult(math.inf, math.inf, math.inf, "divergent", 0)
            return QuadResult(exact, abs(exact) * 1e-15, 1e-15, "converged", 0)

    sym_at_x = None
    if inst.mode == "commutator":
        sym_at_x = [float(_slot_eval(b, x[None, :])[0]) for b in inst.symbols]

    def integrand(tpts: np.ndarray) -> np.ndarray:
        vals = _expr.evaluate(kernel.psi, t=tpts)
        for k in range(kernel.m):
            s_vals = _expr.evaluate(kernel.s[k], t=tpts)
            pts = s_vals[:, None] * x[None, :]
            vals = vals * _slot_eval(inst.inputs[k], pts)
            if inst.mode == "commutator":
                vals = vals * (sym_at_x[k] - _slot_eval(inst.symbols[k], pts))
        return vals

    if kernel.domain == "positive-orthant":
        return integrate_positive_orthant(integrand, kernel.n, tol=tol,
                                          max_cells=max_cells)

    # face hints: psi's own plus the classified contribution of every f_k . s_k
    gammas = []
    for f in inst.inputs:
        pw = f.power_form() if isinstance(f, RadialFunction) else None
        gammas.append(None if pw is None else pw[1])
    hints = kernel.plan.hints(gammas, inst.mode == "commutator")
    breaks = _cutoff_breakpoints(inst, xr)
    return integrate_unit_cube(integrand, kernel.n, sing=hints, tol=tol,
                               breakpoints=breaks, max_cells=max_cells)


def apply_radial_closed_form(inst: OperatorInstance,
                             tol: float | None = None) -> tuple[QuadResult, float]:
    """Coefficient and exponent of T(f)(x) = C |x|^E for pure power inputs.

    Requires every input to be a pure radial power (no cutoffs; value 0 at
    the origin) and, in commutator mode, every symbol to be log|x|.  The
    coefficient is the kernel-side integral, i.e. in commutator mode

        C = int prod_k |s_k(t)|^{gamma_k} log(1/|s_k(t)|) psi(t) dt

    times the product of the profile coefficients.
    """
    exponent = 0.0
    for f in inst.inputs:
        if not isinstance(f, RadialFunction):
            raise ValueError("closed-form route needs RadialFunction inputs")
        pw = f.power_form()
        if pw is None or f.inner_cutoff is not None or f.outer_cutoff is not None:
            raise ValueError("closed-form route needs pure power profiles")
        exponent += pw[1]
    if inst.mode == "commutator":
        for b in inst.symbols:
            if not (isinstance(b, RadialFunction) and b.is_log):
                raise ValueError("closed-form commutator route needs log symbols")
    unit = np.zeros(inst.scenario.d)
    unit[0] = 1.0
    coeff = apply(inst, unit, tol=tol)
    return coeff, exponent

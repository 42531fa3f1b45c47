"""Pointwise evaluation of the multilinear dilation-average operators.

The cube operator sends m functions to

    T(f_1,...,f_m)(x) = int_{[0,1]^n} prod_k f_k(s_k(t) x) psi(t) dt,

its Hausdorff variant integrates over the positive orthant instead, and the
commutator variant inserts prod_k (b_k(x) - b_k(s_k(t) x)) into the integrand.

Two evaluation routes are provided and cross-checked by the tests:

* an exact separable route for classified data (monomial psi, single-axis
  monomial dilations, power/cutoff radial inputs, log symbols), built from
  incomplete moments int t^b log(1/t)^m dt with closed-form recursions and
  evaluated for a whole array of radii per call;
* a quadrature route over the full domain with face hints inferred from the
  classifications; cutoff inputs zero the integrand below the interface,
  with exact panel splits when the interface is axis-aligned.

Radial power inputs make the operator itself a radial power:
T(f)(x) = C |x|^{sum gamma_k}; ``apply_radial_closed_form`` returns that
coefficient and exponent directly.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import expr as _expr
from .kernels import Scenario
from .quad import QuadResult, integrate_positive_orthant, integrate_unit_cube
from .spaces import RadialFunction

__all__ = ["OperatorInstance", "apply", "apply_radial_closed_form", "separable_profile"]

@dataclass(frozen=True)
class OperatorInstance:
    """A scenario bound to concrete inputs, and to symbols for a commutator.

    The inputs decide the mode: 'commutator' when symbols are given, else
    'hausdorff' on a positive-orthant kernel and 'plain' on a unit-cube one."""

    scenario: Scenario
    inputs: tuple
    symbols: tuple = ()

    def __post_init__(self):
        m = self.scenario.kernel.m
        if len(self.inputs) != m:
            raise ValueError(f"expected {m} inputs, got {len(self.inputs)}")
        if self.symbols:
            if len(self.symbols) != m:
                raise ValueError("commutator mode needs one symbol per slot")
            if self.scenario.kernel.domain != "unit-cube":
                raise ValueError("commutator mode requires a unit-cube kernel")

    @property
    def mode(self) -> str:
        if self.symbols:
            return "commutator"
        if self.scenario.kernel.domain == "positive-orthant":
            return "hausdorff"
        return "plain"


def _moment(b: float, m: int, lo, hi):
    """integral over [lo, hi] of t^b log(1/t)^m dt, for floats or arrays
    (broadcast together) with 0 <= lo <= hi <= 1, which the callers keep.

    Exact recursion: (b+1) I(b,m) = [t^{b+1} log(1/t)^m] + m I(b, m-1); for
    b = -1 the antiderivative is -log(1/t)^{m+1}/(m+1).  Divergent (inf)
    where lo = 0 < hi and b <= -1.
    """
    if b > -1.0 and m == 0:
        # t^{b+1} is 0 at t = 0, and an empty window cancels to 0 exactly
        return (hi ** (b + 1.0) - lo ** (b + 1.0)) / (b + 1.0)
    pos = lo > 0.0
    # stand-ins keep t = 0 out of the logs and powers; the entries they
    # touch are overwritten below (lo = 0 terms vanish for b > -1)
    lo1 = np.where(pos, lo, 1.0)
    hi1 = np.where(hi > 0.0, hi, 1.0)
    if b == -1.0:
        out = (np.log(1.0 / lo1) ** (m + 1) - np.log(1.0 / hi1) ** (m + 1)) / (m + 1)
    else:
        top = hi1 ** (b + 1.0)
        bot = np.where(pos, lo1 ** (b + 1.0), 0.0)
        out = (top - bot) / (b + 1.0)
        L_lo = np.log(1.0 / lo1)
        L_hi = np.log(1.0 / hi1)
        for k in range(1, m + 1):
            out = (top * L_hi ** k - bot * L_lo ** k + k * out) / (b + 1.0)
    if b <= -1.0:
        out = np.where(pos, out, math.inf)
    return np.where(hi == lo, 0.0, out)


# ---------------------------------------------------------------------------
# exact separable route
# ---------------------------------------------------------------------------

def separable_profile(inst: OperatorInstance) -> Callable | None:
    """The exact separable route: a function mapping radii |x| > 0 (an
    array, or one float) to the operator values there, or None when the
    data do not separate.

    This reads the inputs, each f_k a radial power c |y|^gamma with or
    without cutoffs and, for a commutator, each symbol an uncut log|x|;
    :func:`_separable` does the kernel side.
    """
    kernel = inst.scenario.kernel
    if kernel.domain != "unit-cube":
        return None
    commutator = inst.mode == "commutator"
    inputs = []
    for k, f in enumerate(inst.inputs):
        pw = f.power_form() if isinstance(f, RadialFunction) else None
        sym = inst.symbols[k] if commutator else None
        if pw is None or commutator and not (
                isinstance(sym, RadialFunction) and sym.is_log
                and sym.inner_cutoff is None and sym.outer_cutoff is None):
            inputs.append(None)
            continue
        # an inner cut at or below 0 keeps every |y| > 0; an outer one
        # keeps none, so f_k vanishes
        inner, outer = f.inner_cutoff, f.outer_cutoff
        cuts = [(inner, True)] if inner is not None and inner > 0.0 else []
        if outer is not None:
            cuts.append((outer, False))
        inputs.append((0.0 if outer is not None and outer <= 0.0 else pw[0], pw[1], cuts))
    return _separable(kernel, inputs, commutator)


def _zero(radii):
    return np.zeros(np.shape(radii))


def _separable(kernel, inputs, commutator: bool) -> Callable | None:
    """The kernel side of the separable route on a unit-cube kernel, or
    None when psi or a slot has no closed form.

    inputs[k] is (c, gamma, cuts), f_k = c |y|^gamma kept where |y| >= cut
    for each (cut, True) and |y| <= cut for each (cut, False) in cuts, or
    None for an f_k that does not separate; a commutator has log|x|
    symbols.  The per-kernel work is done here once; the returned function
    computes the coefficients (c_k |x|)^{gamma_k}, the cutoff windows and
    the windowed moments elementwise over the radii.  At |x| = 1 on uncut
    powers |y|^{gamma_k} its value is a sharp constant.
    """
    n = kernel.n
    plan = kernel.plan
    psi_c = plan.psi
    if not psi_c.has_closed_form:
        return None
    if psi_c.coeff == 0.0:
        return _zero
    slots = []
    for mono, inp in zip(plan.slots, inputs):
        if inp is None or mono is None or mono[1] <= 0.0:
            return None
        slots.append((*mono, *inp))
    if any(fc == 0.0 for _, _, _, fc, _, _ in slots):
        return _zero

    b, _ = plan.axis_exponents(psi_c.t_exponents, psi_c.t_log_powers,
                               [gamma for _, _, _, _, gamma, _ in slots], False)
    windowed = {axis - 1 for axis, _, e_k, _, _, cuts in slots
                if axis > 0 and cuts and e_k != 0.0}

    # expand prod_k (delta_k + e_k log(1/t_{axis_k})), delta_k = -log c_k,
    # into terms (coefficient, log power per axis)
    terms = [(1.0, psi_c.t_log_powers)]
    if commutator:
        for axis, c_k, e_k, _, _, _ in slots:
            delta = -math.log(c_k)
            new_terms = []
            for tc, logs in terms:
                if delta != 0.0:
                    new_terms.append((tc * delta, logs))
                if axis > 0 and e_k != 0.0:
                    bumped = list(logs)
                    bumped[axis - 1] += 1
                    new_terms.append((tc * e_k, tuple(bumped)))
            terms = new_terms
        if not terms:
            return _zero
    fixed = {(i, logs[i]): _moment(b[i], logs[i], 0.0, 1.0)
             for _, logs in terms for i in range(n) if i not in windowed}
    expanded = len(terms) > 1

    def values(xr):
        # one float radius (pointwise apply) runs on Python floats, which
        # costs less than numpy calls on one-element arrays; an array of
        # radii runs elementwise in numpy
        coeff = psi_c.coeff
        lo: list = [None] * n  # None: no cut bounds the axis on that side
        hi: list = [None] * n
        dead = False
        for axis, c_k, e_k, fc, gamma, cuts in slots:
            cr = c_k * xr
            coeff = coeff * (fc * cr ** gamma)
            for cut, is_inner in cuts:
                if e_k == 0.0:  # |s_k| = c_k: f_k is alive or not as a whole
                    dead = dead | (cr < cut if is_inner else cr > cut)
                    continue
                # the cut passes t on one side of tau, |s_k(tau)| |x| = cut;
                # a lower bound above 1 empties the window, an upper one
                # above 1 is no bound
                tau = (cut / cr) ** (1.0 / e_k)
                i = axis - 1
                if is_inner == (e_k > 0.0):
                    lo[i] = tau if lo[i] is None else np.maximum(lo[i], tau)
                else:
                    tau = np.minimum(tau, 1.0)
                    hi[i] = tau if hi[i] is None else np.minimum(hi[i], tau)
        for i in windowed:
            if lo[i] is None:
                lo[i] = 0.0
            if hi[i] is None:
                hi[i] = 1.0
            dead = dead | (lo[i] >= hi[i])
        any_dead = dead.any() if isinstance(dead, np.ndarray) else bool(dead)
        if not any_dead:
            return moments_sum(coeff, lo, hi)
        # dead radii get the window [0, 0], whose moments are 0; where a
        # fixed moment is infinite that makes 0 * inf, and every dead value
        # is set to 0
        for i in windowed:
            lo[i] = np.where(dead, 0.0, lo[i])
            hi[i] = np.where(dead, 0.0, hi[i])
        with np.errstate(invalid="ignore"):
            return np.where(dead, 0.0, moments_sum(coeff, lo, hi))

    def moments_sum(coeff, lo, hi):
        """The sum over the terms of coeff * tc * prod_i moment_i."""
        total, infinite = 0.0, False
        for tc, logs in terms:
            piece = coeff * tc
            for i in range(n):
                moment = fixed.get((i, logs[i]))
                if moment is None:
                    moment = _moment(b[i], logs[i], lo[i], hi[i])
                piece = piece * moment
            if expanded:
                # a divergent moment makes its term infinite, and the terms
                # of a commutator's log expansion differ in sign: the
                # integral diverges wherever one term does, which the sum
                # would turn into inf - inf = NaN
                hit = np.isinf(piece)
                infinite = infinite | hit
                piece = np.where(hit, 0.0, piece)
            total = total + piece
        return np.where(infinite, math.inf, total) if expanded else total

    return values


# ---------------------------------------------------------------------------
# quadrature route
# ---------------------------------------------------------------------------

def _slot_eval(f, pts: np.ndarray) -> np.ndarray:
    if isinstance(f, RadialFunction):
        return f(pts)
    vals = np.asarray(f(pts), dtype=float)
    if vals.shape != pts.shape[:1]:  # one value for all points, as a constant gives
        vals = np.broadcast_to(vals, pts.shape[:1])
    return vals


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

    profile = None if force_quadrature or xr <= 0.0 else separable_profile(inst)
    if profile is not None:
        exact = float(profile(xr))
        if not math.isfinite(exact):
            return QuadResult(math.inf, math.inf, math.inf, "divergent", 0)
        return QuadResult(exact, abs(exact) * 1e-15, 1e-15, "converged", 0)

    commutator = inst.mode == "commutator"
    sym_at_x = [float(_slot_eval(b, x[None, :])[0]) for b in inst.symbols]

    def integrand(tpts: np.ndarray) -> np.ndarray:
        # on tensor panels the values come per axis (see quad.TensorPoints): a
        # slot is evaluated at the points s_k(t) x of its own values only
        vals = _expr.evaluate(kernel.psi, t=tpts)
        for k in range(kernel.m):
            s_vals = _expr.evaluate(kernel.s[k], t=tpts)
            pts = s_vals.reshape(-1)[:, None] * x
            vals = vals * _slot_eval(inst.inputs[k], pts).reshape(s_vals.shape)
            if commutator:
                b_vals = _slot_eval(inst.symbols[k], pts).reshape(s_vals.shape)
                vals = vals * (sym_at_x[k] - b_vals)
        return vals

    if kernel.domain == "positive-orthant":
        return integrate_positive_orthant(integrand, kernel.n, tol=tol,
                                          max_cells=max_cells)

    # face hints: psi's own plus the classified contribution of every f_k . s_k
    gammas = []
    for f in inst.inputs:
        pw = f.power_form() if isinstance(f, RadialFunction) else None
        gammas.append(None if pw is None else pw[1])
    hints = kernel.plan.hints(gammas, commutator)
    breaks = _cutoff_breakpoints(inst, xr)
    return integrate_unit_cube(integrand, kernel.n, sing=hints, tol=tol,
                               breakpoints=breaks, max_cells=max_cells)


def apply_radial_closed_form(inst: OperatorInstance) -> tuple[QuadResult, float]:
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
    for b in inst.symbols:
        if not (isinstance(b, RadialFunction) and b.is_log):
            raise ValueError("closed-form commutator route needs log symbols")
    unit = np.zeros(inst.scenario.d)
    unit[0] = 1.0
    return apply(inst, unit), exponent

"""Norm engines for weighted Lebesgue, central Morrey and central BMO spaces.

Everything here is restricted to radial-profile functions f(x) = g(|x|), for
which polar decomposition makes the norms one-dimensional:

    ||f||_{L^p_w}^p = w(S_d) * integral_0^inf |g(r)|^p r^{d+alpha-1} dr.

The central Morrey bracket of f at radius R is

    bracket(R) = ( w(B(0,R))^{-(1+lambda p)} * int_{B(0,R)} |f|^p w )^{1/p},

and the space norm is sup_R bracket(R); the central BMO bracket replaces f by
its oscillation about the weighted mean on B(0,R).  For pure power profiles
g = c r^gamma with gamma = (d+alpha) lambda the bracket is R-independent and

    bracket == |c| * ((d+alpha)/w(S_d))^lambda * (1+lambda p)^{-1/p},

which is the closed form used by the extremal families.  Everything not
closed-form is evaluated by the graded quadrature with an analytic power
tail beyond r = 2^40.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as _expr
from .expr import Expr, classify
from .kernels import Scenario, _as_fraction
from .quad import QuadResult, integrate_interval
from .weights import DivergentWeightError, Weight, sphere_surface_area

__all__ = [
    "RadialFunction",
    "NormResult",
    "Witness",
    "lp_norm",
    "central_morrey_norm",
    "cmo_norm",
    "log_bmo_check",
    "make_witness_lp",
    "power_profile",
    "log_profile",
]

_TAIL_RADIUS = 2.0 ** 40
_DEFAULT_J = 20


@dataclass(frozen=True)
class RadialFunction:
    """f(x) = g(|x|) with optional inner/outer cutoffs.

    inner_cutoff r0 makes f vanish on |x| < r0 (the extremal families);
    outer_cutoff R1 makes f vanish on |x| > R1 (truncations).  Negative
    power profiles take the value ``origin_value`` (default 0) at x = 0.
    """

    profile: Expr
    inner_cutoff: float | None = None
    outer_cutoff: float | None = None
    origin_value: float = 0.0

    def profile_at(self, r) -> np.ndarray:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.zeros(r.shape)
        live = np.ones(r.shape, dtype=bool)
        if self.inner_cutoff is not None:
            live &= r >= self.inner_cutoff
        if self.outer_cutoff is not None:
            live &= r <= self.outer_cutoff
        at_origin = r == 0.0
        live &= ~at_origin
        if np.any(live):
            out[live] = _expr.evaluate(self.profile, r=r[live])
        if np.any(at_origin):
            inner_ok = self.inner_cutoff is None or self.inner_cutoff <= 0.0
            out[at_origin] = self.origin_value if inner_ok else 0.0
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self.profile_at(np.sqrt(np.sum(x * x, axis=1)))

    def power_form(self) -> tuple[float, float] | None:
        """(coeff, gamma) if the profile is exactly coeff * r^gamma."""
        c = classify(self.profile, 0)
        if c.tag == "monomial":
            return (c.coeff, c.r_exponent)
        return None

    @property
    def is_log(self) -> bool:
        return _expr.is_log_radial(self.profile)

    def support(self) -> tuple[float, float]:
        lo = self.inner_cutoff if self.inner_cutoff is not None else 0.0
        hi = self.outer_cutoff if self.outer_cutoff is not None else math.inf
        return (lo, hi)


def power_profile(gamma: float, coeff: float = 1.0,
                  inner_cutoff: float | None = None,
                  outer_cutoff: float | None = None) -> RadialFunction:
    prof = _expr.pow_(_expr.rvar(), gamma)
    if coeff != 1.0:
        prof = _expr.mul(_expr.const(coeff), prof)
    return RadialFunction(prof, inner_cutoff=inner_cutoff, outer_cutoff=outer_cutoff)


def log_profile() -> RadialFunction:
    return RadialFunction(Expr("log", (_expr.rvar(),)))


@dataclass(frozen=True)
class NormResult:
    """A computed norm with provenance.

    method is 'closed-form' or 'radial-quadrature'; status is 'finite',
    'divergent' (value -> inf) or 'unreliable' (a Morrey/CMO supremum that
    is still growing at the radius-grid boundary).  For Morrey/CMO norms the
    per-radius brackets are recorded.
    """

    value: float
    method: str
    error: float = 0.0
    status: str = "finite"
    radii: tuple = ()
    brackets: tuple = ()

    @property
    def divergent(self) -> bool:
        return self.status == "divergent"


def _divergent(method: str) -> NormResult:
    return NormResult(math.inf, method, math.inf, "divergent")


# ---------------------------------------------------------------------------
# radial integrals with analytic tails
# ---------------------------------------------------------------------------

def _radial_piece(fn, lo: float, hi: float, zero_exp: float | None,
                  zero_logs: int, tol: float, breakpoints=()) -> QuadResult:
    """integral of fn(r) dr over (lo, hi), finite hi; singular only at lo = 0."""
    sing_a = (zero_exp, zero_logs) if lo == 0.0 else (0.0, 0)
    return integrate_interval(fn, lo, hi, sing_a=sing_a, sing_b=(0.0, 0),
                              tol=tol, breakpoints=list(breakpoints))


def _log_radius_piece(fn, lo: float, hi: float, tol: float,
                      breakpoints=()) -> QuadResult:
    """integral of fn(r) dr over [lo, hi] in the substitution r = 2^u."""
    ln2 = math.log(2.0)

    def g(u):
        r = 2.0 ** u
        return fn(r) * r * ln2

    return integrate_interval(g, math.log2(lo), math.log2(hi), tol=tol,
                              breakpoints=[math.log2(b) for b in breakpoints if lo < b < hi])


def _radial_integral(fn, lo: float, hi: float, zero_exp: float | None = None,
                     zero_logs: int = 0, tail_exp: float | None = None,
                     tol: float = 1e-10, breakpoints=()) -> tuple[float, float, str]:
    """integral of fn over (lo, hi), hi possibly infinite.

    zero_exp: algebraic exponent of fn at r -> 0 (None = probe).
    tail_exp: the power-decay exponent sigma with fn ~ c r^sigma at infinity,
    if known; the tail beyond 2^40 is then added analytically.  Returns
    (value, error, status).
    """
    value = 0.0
    err = 0.0
    if hi <= lo:
        return (0.0, 0.0, "finite")
    unit_hi = min(hi, 1.0)
    if lo < unit_hi:
        res = _radial_piece(fn, lo, unit_hi, zero_exp, zero_logs, tol,
                            [b for b in breakpoints if lo < b < unit_hi])
        if res.divergent:
            return (math.inf, math.inf, "divergent")
        value += res.value
        err += res.abs_error_estimate
    if hi > 1.0:
        head_lo = max(lo, 1.0)
        head_hi = min(hi, _TAIL_RADIUS)
        if head_hi > head_lo:
            res = _log_radius_piece(fn, head_lo, head_hi, tol,
                                    [b for b in breakpoints if head_lo < b < head_hi])
            if res.divergent:
                return (math.inf, math.inf, "divergent")
            value += res.value
            err += res.abs_error_estimate
        if hi > _TAIL_RADIUS:
            T = _TAIL_RADIUS
            fT = float(np.asarray(fn(np.array([T])))[0])
            if tail_exp is not None:
                if tail_exp >= -1.0:
                    if fT != 0.0:
                        return (math.inf, math.inf, "divergent")
                else:
                    tail = -fT * T / (tail_exp + 1.0)
                    value += tail
                    err += abs(tail) * 1e-12
            else:
                # probe the local decay; treat near-flat tails as divergent
                f2 = float(np.asarray(fn(np.array([2.0 * T])))[0])
                if fT == 0.0 and f2 == 0.0:
                    pass  # integrand dead beyond T
                else:
                    if f2 <= 0.0 or fT <= 0.0:
                        sigma = -2.0
                    else:
                        sigma = math.log2(f2 / fT)
                    if sigma >= -1.0 - 1e-9:
                        return (math.inf, math.inf, "divergent")
                    tail = -fT * T / (sigma + 1.0)
                    value += tail
                    err += 0.5 * abs(tail)
    return (value, err, "finite")


# ---------------------------------------------------------------------------
# weighted Lebesgue norm
# ---------------------------------------------------------------------------

def lp_norm(f: RadialFunction, w: Weight, p: float,
            tol: float = 1e-10, force_quadrature: bool = False) -> NormResult:
    """||f||_{L^p_w} for a radial-profile f; closed form for cutoff powers."""
    if p < 1:
        raise ValueError("p must be >= 1")
    d, alpha = w.d, w.degree
    try:
        sphere = w.sphere_integral()
    except DivergentWeightError:
        return _divergent("closed-form")
    lo, hi = f.support()
    pw = f.power_form()
    if pw is not None and not force_quadrature:
        coeff, gamma = pw
        if coeff == 0.0:
            return NormResult(0.0, "closed-form")
        E = p * gamma + d + alpha
        if lo == 0.0 and hi == math.inf:
            return _divergent("closed-form")
        if hi == math.inf:
            if E >= 0.0:
                return _divergent("closed-form")
            moment = abs(coeff) ** p * lo ** E / (-E)
        elif lo == 0.0:
            if E <= 0.0:
                return _divergent("closed-form")
            moment = abs(coeff) ** p * hi ** E / E
        else:
            if E == 0.0:
                moment = abs(coeff) ** p * math.log(hi / lo)
            else:
                moment = abs(coeff) ** p * (hi ** E - lo ** E) / E
        return NormResult((sphere * moment) ** (1.0 / p), "closed-form")

    def integrand(r):
        return np.abs(f.profile_at(r)) ** p * r ** (d + alpha - 1.0)

    zero_exp = None
    tail_exp = None
    if pw is not None:
        zero_exp = p * pw[1] + d + alpha - 1.0
        tail_exp = p * pw[1] + d + alpha - 1.0
    elif lo > 0.0:
        zero_exp = 0.0
    value, err, status = _radial_integral(
        integrand, lo, hi, zero_exp=zero_exp, tail_exp=tail_exp, tol=tol,
        breakpoints=[b for b in (f.inner_cutoff, f.outer_cutoff) if b],
    )
    if status == "divergent":
        return _divergent("radial-quadrature")
    norm = (sphere * value) ** (1.0 / p)
    rel = err / max(value, 1e-300) / p
    return NormResult(norm, "radial-quadrature", error=abs(norm) * rel)


# ---------------------------------------------------------------------------
# central Morrey norm
# ---------------------------------------------------------------------------

def _ball_moment(f: RadialFunction, w: Weight, p: float, R: float,
                 tol: float, force_quadrature: bool = False) -> tuple[float, float, str]:
    """integral over B(0,R) of |f|^p w, via the polar reduction."""
    d, alpha = w.d, w.degree
    sphere = w.sphere_integral()
    lo, hi = f.support()
    lo = min(lo, R)
    hi = min(hi, R)
    pw = f.power_form()
    if pw is not None and not force_quadrature:
        coeff, gamma = pw
        if coeff == 0.0:
            return (0.0, 0.0, "finite")
        E = p * gamma + d + alpha
        if lo == 0.0 and E <= 0.0:
            return (math.inf, math.inf, "divergent")
        if hi <= lo:
            return (0.0, 0.0, "finite")
        if E == 0.0:
            moment = abs(coeff) ** p * math.log(hi / lo)
        else:
            moment = abs(coeff) ** p * (hi ** E - (lo ** E if lo > 0 else 0.0)) / E
        return (sphere * moment, 0.0, "finite")

    def integrand(r):
        return np.abs(f.profile_at(r)) ** p * r ** (d + alpha - 1.0)

    value, err, status = _radial_integral(
        integrand, lo, hi, zero_exp=None, tol=tol,
        breakpoints=[b for b in (f.inner_cutoff, f.outer_cutoff) if b],
    )
    return (sphere * value, sphere * err, status)


def _sup_over_grid(radii, brackets, errors) -> NormResult:
    radii = tuple(radii)
    brackets = tuple(brackets)
    finite = [b for b in brackets if math.isfinite(b)]
    if len(finite) < len(brackets):
        return NormResult(math.inf, "radial-quadrature", math.inf, "divergent",
                          radii, brackets)
    i_max = int(np.argmax(brackets))
    value = brackets[i_max]
    status = "finite"

    def growing(a, b, c):  # strictly increasing triple (rel margin)
        return c > b * (1 + 1e-12) and b > a * (1 + 1e-12)

    if len(brackets) >= 3:
        if growing(brackets[2], brackets[1], brackets[0]) or \
           growing(brackets[-3], brackets[-2], brackets[-1]):
            status = "divergent"
            return NormResult(math.inf, "radial-quadrature", math.inf, status,
                              radii, brackets)
        # sup attained strictly at a grid boundary: not trustworthy
        if i_max == 0 and brackets[0] > brackets[1] * (1 + 1e-12):
            status = "unreliable"
        if i_max == len(brackets) - 1 and \
                brackets[-1] > brackets[-2] * (1 + 1e-12):
            status = "unreliable"
    return NormResult(value, "radial-quadrature", max(errors), status,
                      radii, brackets)


def central_morrey_norm(f: RadialFunction, w: Weight, p: float, lam: float,
                        J: int = _DEFAULT_J, tol: float = 1e-10,
                        force_quadrature: bool = False,
                        use_grid: bool = False) -> NormResult:
    """sup_R bracket(R) over the dyadic radius grid R = 2^j, |j| <= J.

    The documented nontrivial range is -1/p <= lambda < 0; the engine itself
    accepts any lambda (CMO reuses it with lambda = 0).  ``use_grid`` skips
    the closed-form shortcut so the per-radius brackets are materialized;
    ``force_quadrature`` additionally computes each ball moment numerically.
    """
    d, alpha = w.d, w.degree
    if not w.locally_integrable():
        raise DivergentWeightError("central Morrey norms need alpha > -d")
    sphere = w.sphere_integral()
    dpa = d + alpha
    pw = f.power_form()
    if pw is not None and f.inner_cutoff is None and f.outer_cutoff is None \
            and not (force_quadrature or use_grid):
        coeff, gamma = pw
        if coeff == 0.0:
            return NormResult(0.0, "closed-form")
        if abs(gamma - dpa * lam) < 1e-14:
            value = abs(coeff) * (dpa / sphere) ** lam * (1.0 + lam * p) ** (-1.0 / p)
            return NormResult(value, "closed-form")
        return _divergent("closed-form")

    radii = [2.0 ** j for j in range(-J, J + 1)]
    brackets = []
    errors = []
    moment_quad = force_quadrature and pw is not None
    for R in radii:
        mass = sphere * R ** dpa / dpa
        moment, err, status = _ball_moment(f, w, p, R, tol,
                                           force_quadrature=moment_quad)
        if status == "divergent":
            return _divergent("radial-quadrature")
        br = mass ** (-(1.0 + lam * p)) * moment
        brackets.append(br ** (1.0 / p))
        errors.append((err / max(moment, 1e-300)) / p * brackets[-1])
    return _sup_over_grid(radii, brackets, errors)


# ---------------------------------------------------------------------------
# central BMO norm
# ---------------------------------------------------------------------------

def cmo_norm(b: RadialFunction, w: Weight, q: float, lam: float = 0.0,
             J: int = _DEFAULT_J, tol: float = 1e-10) -> NormResult:
    """Central mean-oscillation norm on the dyadic radius grid.

    Per radius: the weighted mean b_{B,w} on B(0,R), then

        bracket(R) = ( w(B)^{-(1+lambda q)} int_B |b - b_{B,w}|^q w )^{1/q}.

    lambda = 0 is the plain central BMO norm.  For b = log|x| and a power
    weight the bracket is R-independent with the closed value known from the
    log-moment integrals; the grid evaluation reproduces it.
    """
    if q <= 1:
        raise ValueError("q must be > 1")
    d, alpha = w.d, w.degree
    if not w.locally_integrable():
        raise DivergentWeightError("central BMO norms need alpha > -d")
    sphere = w.sphere_integral()
    dpa = d + alpha

    pwb = b.power_form()
    if pwb is not None and pwb[1] == 0.0 and b.inner_cutoff is None \
            and b.outer_cutoff is None:
        return NormResult(0.0, "closed-form")  # constants oscillate by zero

    radii = [2.0 ** j for j in range(-J, J + 1)]
    brackets = []
    errors = []
    for R in radii:
        mass = sphere * R ** dpa / dpa
        if b.is_log and b.inner_cutoff is None and b.outer_cutoff is None:
            mean = math.log(R) - 1.0 / dpa
        else:
            def signed(r):
                return b.profile_at(r) * r ** (dpa - 1.0)

            val, err, status = _radial_integral(signed, 0.0, R, zero_exp=None,
                                                tol=tol)
            if status == "divergent":
                return _divergent("radial-quadrature")
            mean = sphere * val / mass

        def osc(r, mean=mean):
            return np.abs(b.profile_at(r) - mean) ** q * r ** (dpa - 1.0)

        kink = math.exp(mean) if b.is_log else None
        val, err, status = _radial_integral(
            osc, 0.0, R, zero_exp=None, tol=tol,
            breakpoints=[kink] if kink and 0 < kink < R else [],
        )
        if status == "divergent":
            return _divergent("radial-quadrature")
        moment = sphere * val
        br = mass ** (-(1.0 + lam * q)) * moment
        brackets.append(br ** (1.0 / q))
        errors.append((sphere * err / max(moment, 1e-300)) / q * brackets[-1])
    return _sup_over_grid(radii, brackets, errors)


# ---------------------------------------------------------------------------
# log|x| in weighted BMO: the doubling-weight oscillation bounds
# ---------------------------------------------------------------------------

def _cap_fraction(d: int, cos_theta: np.ndarray) -> np.ndarray:
    """Fraction of the unit sphere S_{d-1} with polar angle <= theta, d >= 2,
    elementwise over an array of cos(theta)."""
    from scipy.special import betainc

    ct = np.clip(cos_theta, -1.0, 1.0)
    half = 0.5 * betainc((d - 1) / 2.0, 0.5, 1.0 - ct * ct)
    return np.where(ct >= 0.0, half, 1.0 - half)


def _offcenter_ball_integral(h, w: Weight, center_radius: float, radius: float,
                             log_kink: float | None = None,
                             tol: float = 1e-9) -> float:
    """integral over B(x0, radius) of h(|z|) w(z) dz for an isotropic power
    weight, |x0| = center_radius, via spherical-cap slicing."""
    if w.kind != "isotropic":
        raise ValueError("off-center integrals support isotropic power weights")
    d, alpha = w.d, w.degree
    cw = w.c
    R0 = center_radius
    lo = max(0.0, R0 - radius)
    hi = R0 + radius
    surface = sphere_surface_area(d)

    def frac(rho: np.ndarray) -> np.ndarray:
        if R0 == 0.0:
            return (rho <= radius).astype(float)
        if d == 1:
            inner = (rho + R0 <= radius).astype(float)
            return 0.5 + 0.5 * inner
        ct = (R0 ** 2 + rho ** 2 - radius ** 2) / (2.0 * R0 * rho)
        return _cap_fraction(d, ct)

    def integrand(rho):
        return h(rho) * cw * rho ** (alpha + d - 1.0) * frac(rho)

    breaks = [x for x in (abs(R0 - radius), radius - R0, 1.0, log_kink)
              if x is not None and lo < x < hi]
    zero_exp = alpha + d - 1.0 if lo == 0.0 else None
    value, err, status = _radial_integral(
        integrand, lo, hi, zero_exp=zero_exp, zero_logs=1, tol=tol,
        breakpoints=sorted(set(breaks)),
    )
    if status != "finite":
        raise DivergentWeightError("off-center weight integral diverged")
    return surface * value


def log_bmo_check(w: Weight, centers, radius: float = 1.0,
                  tol: float = 1e-9) -> dict:
    """Mean-oscillation bounds for log|x| over balls B(x_0, 1).

    For |x_0| >= 2 the constant c = log|x_0| gives oscillation <= log 2; for
    |x_0| <= 2 the constant c = 0 gives oscillation bounded by
    log 3 * w(B(x_0,6))/w(B(x_0,1)).  Doubling (power weights with
    alpha > -d) is what makes the second bound uniform.
    """
    if w.kind != "isotropic" or not w.locally_integrable():
        raise ValueError("log-BMO check requires a locally integrable power weight")
    entries = []
    worst_far = -math.inf
    worst_near = -math.inf
    for x0 in centers:
        R0 = abs(float(x0))
        mass1 = _offcenter_ball_integral(lambda rho: np.ones_like(rho), w, R0, radius,
                                         tol=tol)
        if R0 >= 2.0 * radius:
            c_used = math.log(R0)
            bound = math.log(2.0)
            branch = "far"
        else:
            c_used = 0.0
            mass6 = _offcenter_ball_integral(lambda rho: np.ones_like(rho), w, R0,
                                             6.0 * radius, tol=tol)
            bound = math.log(3.0) * mass6 / mass1
            branch = "near"

        def osc(rho, c=c_used):
            with np.errstate(divide="ignore"):
                lg = np.where(rho > 0, np.log(np.maximum(rho, 1e-300)), 0.0)
            return np.abs(lg - c)

        kink = math.exp(c_used)
        num = _offcenter_ball_integral(osc, w, R0, radius, log_kink=kink, tol=tol)
        oscillation = num / mass1
        margin = bound - oscillation
        if branch == "far":
            worst_far = max(worst_far, oscillation - bound)
        else:
            worst_near = max(worst_near, oscillation - bound)
        entries.append({
            "center": float(x0),
            "branch": branch,
            "constant": c_used,
            "oscillation": oscillation,
            "bound": bound,
            "margin": margin,
            "passed": bool(oscillation <= bound * (1 + 1e-9) + 1e-12),
        })
    return {
        "weight_degree": w.degree,
        "entries": entries,
        "passed": all(e["passed"] for e in entries),
        "worst_margin_far": worst_far,
        "worst_margin_near": worst_near,
    }


# ---------------------------------------------------------------------------
# extremal families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    """One slot of the Lebesgue extremal family, with its exact norm."""

    function: RadialFunction
    norm: float
    exponent: float
    epsilon_k: float


def make_witness_lp(s: Scenario, eps: float) -> list[Witness]:
    """The cutoff power family driving the sharp Lebesgue lower bound.

    Slot k gets exponent -(d+alpha_k)/p_k - eps_k with eps_k = p eps / p_k and
    cutoff at |x| = 1; its norm is exactly (omega_k(S_d)/(p eps))^{1/p_k}.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    p = s.p_out
    out = []
    for w, pk_raw in zip(s.weights, s.p):
        pk = float(_as_fraction(pk_raw))
        eps_k = p * eps / pk
        gamma = -(s.d + w.degree) / pk - eps_k
        f = power_profile(gamma, inner_cutoff=1.0)
        norm = (w.sphere_integral() / (p * eps)) ** (1.0 / pk)
        out.append(Witness(function=f, norm=norm, exponent=gamma, epsilon_k=eps_k))
    return out

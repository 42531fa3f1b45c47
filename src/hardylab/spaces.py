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
closed-form is evaluated by the graded quadrature up to its own radius; only
an infinite range gets an analytic tail beyond r = 2^40 (_radial_lp).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import expr as _expr
from .expr import Expr, classify
from .kernels import Scenario
from .quad import _raise_kept, integrate_intervals
from .weights import DivergentWeightError, Weight, _row_norms, sphere_surface_area

__all__ = [
    "RadialFunction",
    "NormResult",
    "RadiusGridError",
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
    outer_cutoff R1 makes f vanish on |x| > R1 (truncations).  f is 0 at
    x = 0, where a negative power profile has no value.
    """

    profile: Expr
    inner_cutoff: float | None = None
    outer_cutoff: float | None = None

    def profile_at(self, r) -> np.ndarray:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.zeros(r.shape)
        live = r != 0.0
        if self.inner_cutoff is not None:
            live &= r >= self.inner_cutoff
        if self.outer_cutoff is not None:
            live &= r <= self.outer_cutoff
        if np.any(live):
            out[live] = _expr.evaluate(self.profile, r=r[live])
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self.profile_at(_row_norms(x))

    def power_form(self) -> tuple[float, float] | None:
        """(coeff, gamma) if the profile is exactly coeff * r^gamma."""
        return self._power_form

    @functools.cached_property
    def _power_form(self) -> tuple[float, float] | None:
        """The profile classified on first use, then kept."""
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
    is still growing at the radius-grid boundary, or a quadrature that hit
    its cell cap).  For Morrey/CMO norms the per-radius brackets are
    recorded.
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


class RadiusGridError(ValueError):
    """A radius grid R = 2^j, |j| <= J, that cannot be sampled."""


def _divergent(method: str) -> NormResult:
    return NormResult(math.inf, method, math.inf, "divergent")


# ---------------------------------------------------------------------------
# radial integrals, and the one analytic tail beyond 2^40
# ---------------------------------------------------------------------------

def _radial_integrals(fn, members, zero_exp: float | None = None,
                      zero_logs: int = 0, tol: float = 1e-10) -> list:
    """integral of fn(r, k) dr over (lo, hi) for every member k = (lo, hi,
    breakpoints) of a radius grid, all in lockstep; every hi is finite.

    fn must be row-wise: k is the array of the members its radii belong to.
    Each member is split at r = 1: (lo, 1) in r, and (1, hi) in the
    substitution r = 2^u.  zero_exp: algebraic exponent of fn at r -> 0
    (None = probe).

    Returns the members' outcomes as integrate_intervals does: each
    member's (value, error, status) in order, status 'finite',
    'unreliable' (a piece hit the quadrature's cell cap) or 'divergent',
    ending at the first divergent member or with the kept exception of the
    first one whose integration raised (see quad._raise_kept).
    """
    pieces, owner, in_log2 = [], [], []
    count = [0] * len(members)
    for k, (lo, hi, breakpoints) in enumerate(members):
        unit_hi = min(hi, 1.0)
        if lo < unit_hi:
            sing_a = (zero_exp, zero_logs) if lo == 0.0 else (0.0, 0)
            pieces.append(dict(a=lo, b=unit_hi, sing_a=sing_a, sing_b=(0.0, 0),
                               breakpoints=[b for b in breakpoints if lo < b < unit_hi]))
            owner.append(k)
            in_log2.append(False)
            count[k] += 1
        head_lo = max(lo, 1.0)
        if hi > head_lo:
            pieces.append(dict(a=math.log2(head_lo), b=math.log2(hi),
                               breakpoints=[math.log2(b) for b in breakpoints
                                            if head_lo < b < hi]))
            owner.append(k)
            in_log2.append(True)
            count[k] += 1
    owner = np.array(owner, dtype=int)
    in_log2 = np.array(in_log2, dtype=bool)
    ln2 = math.log(2.0)

    def g(x, j):
        r = np.where(in_log2[j], 2.0 ** x, x)
        v = fn(r, owner[j])
        return np.where(in_log2[j], v * r * ln2, v)

    results = iter(integrate_intervals(g, pieces, tol=tol) if pieces else ())
    out = []
    for k in range(len(members)):
        value = 0.0
        err = 0.0
        status = "finite"
        for _ in range(count[k]):
            res = next(results)
            if isinstance(res, Exception):
                return out + [res]
            if res.divergent:
                return out + [(math.inf, math.inf, "divergent")]
            value += res.value
            err += res.abs_error_estimate
            if res.status == "max-cells-reached":
                status = "unreliable"
        out.append((value, err, status))
    return out


def _analytic_tail(fn, tail_exp: float | None, T: float):
    """(value, error) of the integral of fn beyond r = T, or None if it
    diverges.  Without tail_exp the decay is probed over one octave, and
    the error bar is the whole tail: that slope is stretched over an
    infinite range."""
    fT = float(np.asarray(fn(np.array([T])))[0])
    if tail_exp is not None:
        if tail_exp >= -1.0:
            return (0.0, 0.0) if fT == 0.0 else None
        tail = -fT * T / (tail_exp + 1.0)
        return (tail, abs(tail) * 1e-12)
    # probe the local decay; treat near-flat tails as divergent
    f2 = float(np.asarray(fn(np.array([2.0 * T])))[0])
    if fT == 0.0 and f2 == 0.0:
        return (0.0, 0.0)  # integrand dead beyond T
    if fT <= 0.0 < f2:
        return None  # rising off zero: no decay to read
    if f2 <= 0.0:
        sigma = -2.0
    else:
        sigma = math.log2(f2 / fT)
    if sigma >= -1.0 - 1e-9:
        return None
    tail = -fT * T / (sigma + 1.0)
    return (tail, abs(tail))


def _radial_lp(integrand, sphere: float, p: float, lo: float, hi: float,
               breakpoints, tail, tol: float = 1e-10,
               zero_exp: float | None = None) -> NormResult:
    """(sphere * integral of integrand(r, k) over (lo, hi))^{1/p} by the
    radial engine, with its error bar.  The one place that cuts an
    infinite range: at T = max(lo, 2^40).  Up to T the range is integrated,
    and tail(T) gives (value, error) of the rest, or None if it diverges."""
    T = max(lo, _TAIL_RADIUS) if hi == math.inf else hi
    (moment, err, status), = _raise_kept(_radial_integrals(
        integrand, [(lo, T, breakpoints)], zero_exp=zero_exp, tol=tol))
    if status == "divergent":
        return _divergent("radial-quadrature")
    if hi == math.inf:
        beyond = tail(T)
        if beyond is None:
            return _divergent("radial-quadrature")
        moment += beyond[0]
        err += beyond[1]
    norm = (sphere * moment) ** (1.0 / p)
    rel = err / max(moment, 1e-300) / p
    return NormResult(norm, "radial-quadrature", error=abs(norm) * rel, status=status)


# ---------------------------------------------------------------------------
# weighted Lebesgue norm
# ---------------------------------------------------------------------------

def lp_norm(f: RadialFunction, w: Weight, p: float,
            force_quadrature: bool = False) -> NormResult:
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
        moment = _power_moment(coeff, p, p * gamma + d + alpha, lo, hi)
        if moment == math.inf:
            return _divergent("closed-form")
        return NormResult((sphere * moment) ** (1.0 / p), "closed-form")

    def integrand(r, _k):
        return np.abs(f.profile_at(r)) ** p * r ** (d + alpha - 1.0)

    tail_exp = p * pw[1] + d + alpha - 1.0 if pw is not None else None
    zero_exp = 0.0 if pw is None and lo > 0.0 else tail_exp
    return _radial_lp(integrand, sphere, p, lo, hi,
                      [b for b in (f.inner_cutoff, f.outer_cutoff) if b],
                      lambda T: _analytic_tail(lambda r: integrand(r, None), tail_exp, T),
                      zero_exp=zero_exp)


# ---------------------------------------------------------------------------
# central Morrey norm
# ---------------------------------------------------------------------------

def _power_moment(coeff: float, p: float, E: float, lo: float, hi: float) -> float:
    """integral over lo < r < hi of |coeff r^gamma|^p r^(d+alpha-1) dr in
    closed form, with E = p*gamma + d + alpha; inf if it diverges."""
    if coeff == 0.0:
        return 0.0
    if (lo == 0.0 and E <= 0.0) or (hi == math.inf and E >= 0.0):
        return math.inf
    if hi <= lo:
        return 0.0
    if E == 0.0:
        return abs(coeff) ** p * math.log(hi / lo)
    return abs(coeff) ** p * (hi ** E - lo ** E) / E


def _power_morrey_norm(coeff: float, sphere: float, dpa: float, p: float,
                       lam: float) -> float:
    """The central Morrey norm of coeff |x|^{(d+alpha) lambda} for a weight
    with w(S_d) = sphere and d + alpha = dpa: its bracket
    |coeff| ((d+alpha)/w(S_d))^lambda (1+lambda p)^{-1/p} at every radius."""
    return abs(coeff) * (dpa / sphere) ** lam * (1.0 + lam * p) ** (-1.0 / p)


def _radius_grid(sphere: float, dpa: float, J: int) -> tuple[list, list]:
    """The dyadic radii R = 2^j, |j| <= J, and the weighted mass
    w(B(0,R)) = w(S_d) R^{d+alpha}/(d+alpha) of each ball; a RadiusGridError
    if J < 1 (one radius is a sample, not a supremum) or a mass is not finite."""
    try:
        radii = [2.0 ** j for j in range(-J, J + 1)]
        masses = [sphere * R ** dpa / dpa for R in radii]
    except OverflowError:
        masses = [math.inf]
    if J < 1 or not all(map(math.isfinite, masses)):
        raise RadiusGridError(f"radius grids need J >= 1 and finite ball masses, got J = {J}")
    return radii, masses


def _brackets(masses, moments, p: float, lam: float, capped: bool):
    """Per ball of the grid, from its mass and its moment (value, error,
    status) of |g|^p: the bracket (mass^{-(1+lambda p)} moment)^{1/p} and its
    error bar; then whether a moment, or an integral before them (capped),
    hit the cell cap.  None if a moment diverged."""
    brackets, errors = [], []
    for mass, (moment, err, status) in zip(masses, moments):
        if status == "divergent":
            return None
        capped |= status == "unreliable"
        try:
            br = mass ** (-(1.0 + lam * p)) * moment
        except OverflowError:  # the mass factor passes the floats: a growing sup
            br = math.inf if moment > 0.0 else 0.0
        brackets.append(br ** (1.0 / p))
        errors.append((err / max(moment, 1e-300)) / p * brackets[-1])
    return brackets, errors, capped


def _sup_over_grid(radii, brackets, errors, capped: bool = False) -> NormResult:
    """The supremum of the brackets; 'unreliable' if it sits strictly at a
    grid boundary or if a bracket's quadrature hit its cell cap."""
    radii = tuple(radii)
    brackets = tuple(brackets)

    def growing(a, b, c):  # strictly increasing triple (rel margin)
        return c > b * (1 + 1e-12) and b > a * (1 + 1e-12)

    # a grid holds at least 3 radii (see _radius_grid)
    if not all(map(math.isfinite, brackets)) or \
       growing(brackets[2], brackets[1], brackets[0]) or \
       growing(brackets[-3], brackets[-2], brackets[-1]):
        return NormResult(math.inf, "radial-quadrature", math.inf, "divergent",
                          radii, brackets)
    i_max = int(np.argmax(brackets))
    value = brackets[i_max]
    status = "finite"
    # sup attained strictly at a grid boundary: not trustworthy
    if i_max == 0 and brackets[0] > brackets[1] * (1 + 1e-12):
        status = "unreliable"
    if i_max == len(brackets) - 1 and \
            brackets[-1] > brackets[-2] * (1 + 1e-12):
        status = "unreliable"
    if capped:
        status = "unreliable"
    return NormResult(value, "radial-quadrature", max(errors), status,
                      radii, brackets)


def central_morrey_norm(f: RadialFunction, w: Weight, p: float, lam: float,
                        J: int = _DEFAULT_J, force_quadrature: bool = False,
                        use_grid: bool = False) -> NormResult:
    """sup_R bracket(R) over the dyadic radius grid R = 2^j, |j| <= J.

    The documented nontrivial range is -1/p <= lambda < 0; the engine itself
    accepts any lambda (CMO reuses it with lambda = 0).  ``use_grid`` skips
    the closed-form shortcut so the per-radius brackets are materialized;
    ``force_quadrature`` additionally computes each ball moment numerically.
    Ball moments by quadrature (forced, or for a profile that is not a
    power) integrate the whole radius grid in lockstep, one integrand call
    per refinement round for every radius, each with the result it would
    have alone.  A moment that hits the quadrature's cell cap makes the
    norm 'unreliable'.
    """
    if not w.locally_integrable():
        raise DivergentWeightError("central Morrey norms need alpha > -d")
    sphere = w.sphere_integral()
    dpa = w.d + w.degree
    pw = f.power_form()
    if pw is not None and f.inner_cutoff is None and f.outer_cutoff is None \
            and not (force_quadrature or use_grid):
        coeff, gamma = pw
        if coeff == 0.0:
            return NormResult(0.0, "closed-form")
        if abs(gamma - dpa * lam) < 1e-14:
            return NormResult(_power_morrey_norm(coeff, sphere, dpa, p, lam), "closed-form")
        return _divergent("closed-form")

    radii, masses = _radius_grid(sphere, dpa, J)
    lo, hi = f.support()
    if pw is None or force_quadrature:
        def integrand(r, _k):
            return np.abs(f.profile_at(r)) ** p * r ** (dpa - 1.0)

        cuts = [b for b in (f.inner_cutoff, f.outer_cutoff) if b]
        moments = [(sphere * v, sphere * e, status) for v, e, status in _raise_kept(
            _radial_integrals(integrand, [(min(lo, R), min(hi, R), cuts) for R in radii]))]
    else:
        coeff, gamma = pw
        E = p * gamma + w.d + w.degree
        moments = []
        for R in radii:
            moment = sphere * _power_moment(coeff, p, E, min(lo, R), min(hi, R))
            moments.append((moment, 0.0, "finite" if moment < math.inf else "divergent"))
    brackets = _brackets(masses, moments, p, lam, False)
    if brackets is None:
        return _divergent("radial-quadrature")
    return _sup_over_grid(radii, *brackets)


# ---------------------------------------------------------------------------
# central BMO norm
# ---------------------------------------------------------------------------

def _log_oscillation_log_moment(q: float) -> float:
    """log I_q for I_q = integral_0^inf |1 - v|^q e^{-v} dv
    = e^{-1} (Gamma(q+1) + S), S = sum_k 1/(k! (q+k+1)), taken as
    lgamma(q+1) - 1 + log1p(S e^{-lgamma(q+1)}) so that no q overflows."""
    log_gamma = math.lgamma(q + 1.0)
    series = math.fsum(1.0 / (math.factorial(k) * (q + k + 1.0)) for k in range(25))
    return log_gamma - 1.0 + math.log1p(series * math.exp(-log_gamma))


def cmo_norm(b: RadialFunction, w: Weight, q: float, lam: float = 0.0,
             J: int = _DEFAULT_J) -> NormResult:
    """Central mean-oscillation norm on the dyadic radius grid.

    Per radius: the weighted mean b_{B,w} on B(0,R), then

        bracket(R) = ( w(B)^{-(1+lambda q)} int_B |b - b_{B,w}|^q w )^{1/q}.

    lambda = 0 is the plain central BMO norm.  For b = log|x| without
    cutoffs the mean is log R - 1/(d+alpha), and r = R u, v = -(d+alpha) log u
    turn the oscillation moment into the closed form

        int_B |b - b_{B,w}|^q w = w(S_d) R^{d+alpha} (d+alpha)^{-q-1} I_q,

    so bracket(R) = I_q^{1/q}/(d+alpha) w(B)^{-lambda}, with log I_q from
    _log_oscillation_log_moment: every lambda = 0 bracket is the same.

    For other symbols the means and then the oscillations integrate the
    whole radius grid in lockstep, one integrand call per refinement round
    for every radius, each with the result it would have alone.  An
    integral that hits the quadrature's cell cap makes the norm 'unreliable'.
    """
    if q <= 1:
        raise ValueError("q must be > 1")
    if not w.locally_integrable():
        raise DivergentWeightError("central BMO norms need alpha > -d")
    sphere = w.sphere_integral()
    dpa = w.d + w.degree

    pwb = b.power_form()
    if pwb is not None and pwb[1] == 0.0 and b.inner_cutoff is None \
            and b.outer_cutoff is None:
        return NormResult(0.0, "closed-form")  # constants oscillate by zero

    radii, masses = _radius_grid(sphere, dpa, J)
    if b.is_log and b.inner_cutoff is None and b.outer_cutoff is None:
        log_moment = _log_oscillation_log_moment(q)
        log_flat = log_moment / q - math.log(dpa)
        with np.errstate(over="ignore"):  # lambda != 0 only: growth, hence divergent
            brackets = np.exp(log_flat - lam * np.log(masses))
        # an ulp or so of each log term, which exp carries as a relative error
        rel = 4.0 * np.finfo(float).eps * (1.0 + abs(log_moment) / q + abs(math.log(dpa)))
        return _sup_over_grid(radii, brackets.tolist(), (rel * brackets).tolist())
    capped = False

    def signed(r, _k):
        return b.profile_at(r) * r ** (dpa - 1.0)

    mean_outcomes = _radial_integrals(signed, [(0.0, R, ()) for R in radii])
    means = []
    # up to the first divergent mean or kept exception, with no local bound to it
    for mass, (val, _, status) in zip(masses, itertools.takewhile(
            lambda res: isinstance(res, tuple) and res[2] != "divergent", mean_outcomes)):
        capped |= status == "unreliable"
        means.append(sphere * val / mass)

    mean = np.array(means)

    def osc(r, k):
        return np.abs(b.profile_at(r) - mean[k]) ** q * r ** (dpa - 1.0)

    members = []
    for R, m in zip(radii, means):
        kink = math.exp(m) if b.is_log else None
        members.append((0.0, R, [kink] if kink and 0 < kink < R else []))
    # the oscillation of each radius comes before the mean of the next
    brackets = _brackets(masses, [(sphere * v, sphere * e, status) for v, e, status
                                  in _raise_kept(_radial_integrals(osc, members))],
                         q, lam, capped)
    if brackets is None:
        return _divergent("radial-quadrature")
    _raise_kept(mean_outcomes)
    if len(means) < len(radii):  # a mean diverged
        return _divergent("radial-quadrature")
    return _sup_over_grid(radii, *brackets)


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
                             log_kink: float | None = None) -> tuple[float, str]:
    """integral over B(x0, radius) of h(|z|) w(z) dz for an isotropic power
    weight, |x0| = center_radius, via spherical-cap slicing, and its status:
    'finite', or 'unreliable' if a piece hit the quadrature's cell cap."""
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
    (value, err, status), = _raise_kept(_radial_integrals(
        lambda r, _k: integrand(r), [(lo, hi, sorted(set(breaks)))],
        zero_exp=zero_exp, zero_logs=1, tol=1e-9))
    if status == "divergent":
        raise DivergentWeightError("off-center weight integral diverged")
    return surface * value, status


def log_bmo_check(w: Weight, centers) -> dict:
    """Mean-oscillation bounds for log|x| over balls B(x_0, 1).

    For |x_0| >= 2 the constant c = log|x_0| gives oscillation <= log 2; for
    |x_0| <= 2 the constant c = 0 gives oscillation bounded by
    log 3 * w(B(x_0,6))/w(B(x_0,1)).  Doubling (power weights with
    alpha > -d) is what makes the second bound uniform.  An entry whose
    integrals hit the quadrature's cell cap is 'unreliable' and not passed.
    """
    if w.kind != "isotropic" or not w.locally_integrable():
        raise ValueError("log-BMO check requires a locally integrable power weight")
    entries = []
    worst_far = -math.inf
    worst_near = -math.inf
    for x0 in centers:
        R0 = abs(float(x0))
        statuses = []

        def ball(h, rad, kink=None):
            value, status = _offcenter_ball_integral(h, w, R0, rad, log_kink=kink)
            statuses.append(status)
            return value

        mass1 = ball(np.ones_like, 1.0)
        if R0 >= 2.0:
            c_used = math.log(R0)
            bound = math.log(2.0)
            branch = "far"
        else:
            c_used = 0.0
            bound = math.log(3.0) * ball(np.ones_like, 6.0) / mass1
            branch = "near"

        def osc(rho, c=c_used):
            with np.errstate(divide="ignore"):
                lg = np.where(rho > 0, np.log(np.maximum(rho, 1e-300)), 0.0)
            return np.abs(lg - c)

        oscillation = ball(osc, 1.0, math.exp(c_used)) / mass1
        status = "unreliable" if "unreliable" in statuses else "finite"
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
            "status": status,
            "passed": status == "finite"
                      and bool(oscillation <= bound * (1 + 1e-9) + 1e-12),
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
    for k, w in enumerate(s.weights):
        pk = s.slot_p(k)
        eps_k = p * eps / pk
        gamma = -(s.d + w.degree) / pk - eps_k
        f = power_profile(gamma, inner_cutoff=1.0)
        norm = (w.sphere_integral() / (p * eps)) ** (1.0 / pk)
        out.append(Witness(function=f, norm=norm, exponent=gamma, epsilon_k=eps_k))
    return out

"""Singularity-aware adaptive integration on the unit cube and the orthant.

Integrands are allowed algebraic face singularities t_i^{a_i} (optionally with
log factors) as long as a_i > -1.  Each axis is pre-transformed with a graded
map t = u^kappa, kappa > 1/(1+a), so the transformed integrand is bounded;
adaptive tensor Gauss-Kronrod (7, 15) panels then converge at full rate.  For
n >= 4 a seeded scrambled-Sobol estimator with replicate error bars is used
instead of tensor panels.

Divergent integrals (some a_i <= -1) are a meaningful outcome here, not a
failure: the result carries an explicit 'divergent' status.  Detection is
symbolic when the caller supplies face exponents, and otherwise empirical:
the domain is shrunk away from the faces at doubling grading depths and the
integral is declared divergent when the partial values keep growing by more
than a factor of ten.
"""

from __future__ import annotations

import functools
import heapq
import math
import statistics
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadResult",
    "SingularityHints",
    "integrate_unit_cube",
    "integrate_positive_orthant",
    "integrate_interval",
    "neumaier_sum",
]

# 15-point Kronrod nodes on [-1, 1] with the embedded 7-point Gauss rule.
_XGK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG7 = np.zeros(15)
_WG7[1::2] = [
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
]

_DEFAULT_TOLS = {1: 1e-8, 2: 1e-8, 3: 1e-6}
_QMC_TOL = 1e-3
_MAX_KAPPA = 128


@dataclass(frozen=True)
class QuadResult:
    """Outcome of one integration.

    status 'converged' guarantees rel_error_estimate <= the requested
    tolerance; status 'divergent' means the value field is meaningless
    (the integral is +/-infinite); 'max-cells-reached' carries the best
    available estimate with an honest error bar.
    """

    value: float
    abs_error_estimate: float
    rel_error_estimate: float
    status: str
    cells_used: int

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def divergent(self) -> bool:
        return self.status == "divergent"


@dataclass(frozen=True)
class SingularityHints:
    """Per-axis face behaviour of the integrand.

    zero[i] is the algebraic exponent a_i of the t_i -> 0 face (integrand
    ~ t_i^{a_i}); one[i] the exponent of the t_i -> 1 face.  None means
    unknown (the integrator probes numerically).  *_logs counts log factors
    on the corresponding face.
    """

    zero: tuple
    one: tuple
    zero_logs: tuple = ()
    one_logs: tuple = ()

    @staticmethod
    def regular(n: int) -> "SingularityHints":
        return SingularityHints(zero=(0.0,) * n, one=(0.0,) * n,
                                zero_logs=(0,) * n, one_logs=(0,) * n)

    @staticmethod
    def unknown(n: int) -> "SingularityHints":
        return SingularityHints(zero=(None,) * n, one=(None,) * n,
                                zero_logs=(0,) * n, one_logs=(0,) * n)

    def normalized(self, n: int) -> "SingularityHints":
        def pad(seq, fill):
            seq = tuple(seq) if seq else ()
            return seq + (fill,) * (n - len(seq))
        return SingularityHints(
            zero=pad(self.zero, 0.0), one=pad(self.one, 0.0),
            zero_logs=pad(self.zero_logs, 0), one_logs=pad(self.one_logs, 0),
        )


def neumaier_sum(values) -> float:
    """Compensated summation; order-independent to ~1 ulp for our panel sets."""
    s = 0.0
    comp = 0.0
    for v in values:
        t = s + v
        if abs(s) >= abs(v):
            comp += (s - t) + v
        else:
            comp += (v - t) + s
        s = t
    return s + comp


# ---------------------------------------------------------------------------
# graded axis transforms
# ---------------------------------------------------------------------------

def _kappa_for(exponent: float | None, logs: int) -> int:
    """Grading order kappa with kappa*(1+a) >= 2, so the transformed integrand
    vanishes at the face even in the presence of log factors."""
    if exponent is None:
        return 1
    if exponent >= 0.0:
        return 2 if logs > 0 else 1
    if exponent <= -1.0:
        raise ValueError("non-integrable face exponent reached the grader")
    kappa = int(math.ceil(2.0 / (1.0 + exponent)))
    return min(max(kappa, 2 if logs > 0 else 1), _MAX_KAPPA)


# graded nodes are clamped just inside the open cube: deeper points are below
# double precision and would otherwise collapse onto the face itself, turning
# a vanishing contribution into a spurious 0^negative evaluation
_FACE_FLOOR = 2.0 ** -960
_FACE_CEIL = 1.0 - 2.0 ** -52


class _AxisMap:
    """Monotone map [0,1] -> [0,1] concentrating points at graded faces."""

    def __init__(self, kappa0: int, kappa1: int):
        self.k0 = max(1, kappa0)
        self.k1 = max(1, kappa1)

    @property
    def trivial(self) -> bool:
        return self.k0 == 1 and self.k1 == 1

    def seeds(self) -> list[float]:
        return [0.5] if (self.k0 > 1 and self.k1 > 1) else []

    def forward(self, u: np.ndarray) -> np.ndarray:
        k0, k1 = self.k0, self.k1
        if k0 == 1 and k1 == 1:
            return u
        if k1 == 1:
            out = u ** k0
        elif k0 == 1:
            out = 1.0 - (1.0 - u) ** k1
        else:
            left = u <= 0.5
            out = np.empty_like(u)
            out[left] = 0.5 * (2.0 * u[left]) ** k0
            out[~left] = 1.0 - 0.5 * (2.0 * (1.0 - u[~left])) ** k1
        return np.clip(out, _FACE_FLOOR, _FACE_CEIL)

    def derivative(self, u: np.ndarray) -> np.ndarray:
        k0, k1 = self.k0, self.k1
        if k0 == 1 and k1 == 1:
            return np.ones_like(u)
        if k1 == 1:
            return k0 * u ** (k0 - 1)
        if k0 == 1:
            return k1 * (1.0 - u) ** (k1 - 1)
        left = u <= 0.5
        out = np.empty_like(u)
        out[left] = k0 * (2.0 * u[left]) ** (k0 - 1)
        out[~left] = k1 * (2.0 * (1.0 - u[~left])) ** (k1 - 1)
        return out

    def inverse(self, t: float) -> float:
        k0, k1 = self.k0, self.k1
        t = min(max(t, 0.0), 1.0)
        if k0 == 1 and k1 == 1:
            return t
        if k1 == 1:
            return t ** (1.0 / k0)
        if k0 == 1:
            return 1.0 - (1.0 - t) ** (1.0 / k1)
        if t <= 0.5:
            return 0.5 * (2.0 * t) ** (1.0 / k0)
        return 1.0 - 0.5 * (2.0 * (1.0 - t)) ** (1.0 / k1)


# ---------------------------------------------------------------------------
# face probing (used when hints are absent)
# ---------------------------------------------------------------------------

_PROBE_ANCHORS = (0.41234567, 0.57891234, 0.73456789)
_PROBE_H = tuple(2.0 ** (-k) for k in range(8, 19, 2))


def _probe_face_exponent(f, n: int, axis: int, face: int) -> float:
    """Estimate a in f ~ t_axis^a near the given face by log-log slope,
    the median over the anchors of the other coordinates (in 1-D there are
    none, so one anchor's points are all there is to probe)."""
    slopes = []
    for anchor in _PROBE_ANCHORS if n > 1 else _PROBE_ANCHORS[:1]:
        pts = np.full((len(_PROBE_H), n), anchor)
        h = np.array(_PROBE_H)
        pts[:, axis] = h if face == 0 else 1.0 - h
        try:
            with np.errstate(all="ignore"):
                vals = np.abs(np.asarray(f(pts), dtype=float))
        except Exception:
            return -2.0  # treat evaluation failure at the face as suspicious
        if not np.all(np.isfinite(vals)):
            return -2.0
        mask = vals > 1e-290
        if mask.sum() < 3:
            continue  # integrand (numerically) zero near this face
        slope, _ = np.polyfit(np.log(h[mask]), np.log(vals[mask]), 1)
        slopes.append(slope)
    if not slopes:
        return 0.0
    return float(statistics.median(slopes))


def _resolve_hints(f, n: int, hints: SingularityHints | None):
    """Fill in unknown face exponents by probing; returns (hints, suspicious)
    where suspicious flags probed exponents at or below -1."""
    if hints is None:
        hints = SingularityHints.unknown(n)
    hints = hints.normalized(n)
    zero = list(hints.zero)
    one = list(hints.one)
    suspicious = False
    def chew(a):
        # small safety margin toward harder grading, clamped to integrable
        return max(min(a - 0.05, 0.0), -0.95) if a < 0.25 else 0.0

    for i in range(n):
        if zero[i] is None:
            a = _probe_face_exponent(f, n, i, 0)
            suspicious |= a <= -0.98
            zero[i] = chew(a)
        if one[i] is None:
            a = _probe_face_exponent(f, n, i, 1)
            suspicious |= a <= -0.98
            one[i] = chew(a)
    resolved = SingularityHints(zero=tuple(zero), one=tuple(one),
                                zero_logs=hints.zero_logs, one_logs=hints.one_logs)
    return resolved, suspicious


# ---------------------------------------------------------------------------
# adaptive tensor Gauss-Kronrod core
# ---------------------------------------------------------------------------

class _Panel:
    __slots__ = ("lo", "hi", "value", "error", "key")

    def __init__(self, lo, hi, value, error, key):
        self.lo = lo
        self.hi = hi
        self.value = value
        self.error = error
        self.key = key


@functools.lru_cache(maxsize=None)
def _tensor_rule(n: int):
    grids = np.meshgrid(*([_XGK] * n), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)  # in [-1, 1]^n
    wk = np.ones(pts.shape[0])
    wg = np.ones(pts.shape[0])
    for ax in range(n):
        idx = np.meshgrid(*([np.arange(15)] * n), indexing="ij")[ax].ravel()
        wk *= _WGK[idx]
        wg *= _WG7[idx]
    return pts, wk, wg


def _eval_panel(F, n, lo, hi):
    pts01, wk, wg = _tensor_rule(n)
    lo = np.asarray(lo)
    hi = np.asarray(hi)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = mid + half * pts01
    vol = float(np.prod(half))
    with np.errstate(all="ignore"):
        vals = np.asarray(F(pts), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("non-finite integrand value inside a panel")
    vk = float(np.dot(wk, vals)) * vol
    vg = float(np.dot(wg, vals)) * vol
    err = abs(vk - vg)
    return vk, max(err, abs(vk) * 5e-16)


def _adaptive_cube_fast(F, n, tol, max_cells, seeds):
    """Adaptive refinement over [0,1]^n with O(1) running totals.

    The panel list keeps deterministic keys so the final total is recomputed
    with compensated summation in key order, making the result independent of
    refinement scheduling details.
    """
    segments = []
    for ax in range(n):
        cuts = sorted({0.0, 1.0, *(s for s in seeds[ax] if 1e-12 < s < 1 - 1e-12)})
        segments.append([(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)])

    heap: list = []
    counter = 0
    value_sum = 0.0
    error_sum = 0.0
    alive: dict[int, _Panel] = {}

    def push(lo, hi):
        nonlocal counter, value_sum, error_sum
        v, e = _eval_panel(F, n, lo, hi)
        p = _Panel(lo, hi, v, e, counter)
        alive[counter] = p
        heapq.heappush(heap, (-e, counter))
        value_sum += v
        error_sum += e
        counter += 1

    shape = [len(s) for s in segments]
    for flat in range(int(np.prod(shape))):
        idx = []
        rem = flat
        for ax in range(n):
            idx.append(rem % shape[ax])
            rem //= shape[ax]
        lo = np.array([segments[ax][idx[ax]][0] for ax in range(n)])
        hi = np.array([segments[ax][idx[ax]][1] for ax in range(n)])
        push(lo, hi)

    history: list[tuple[int, float]] = []
    next_snapshot = 32
    while True:
        if error_sum <= tol * max(abs(value_sum), 1e-300) or error_sum == 0.0:
            status = "converged"
            break
        if len(alive) >= max_cells:
            status = "max-cells-reached"
            break
        if len(alive) >= next_snapshot:
            history.append((len(alive), value_sum))
            next_snapshot *= 2
        while True:
            _, key = heapq.heappop(heap)
            if key in alive:
                break
        worst = alive.pop(key)
        value_sum -= worst.value
        error_sum -= worst.error
        widths = worst.hi - worst.lo
        ax = int(np.argmax(widths))
        mid = 0.5 * (worst.lo[ax] + worst.hi[ax])
        hi_left = worst.hi.copy()
        hi_left[ax] = mid
        lo_right = worst.lo.copy()
        lo_right[ax] = mid
        push(worst.lo.copy(), hi_left)
        push(lo_right, worst.hi.copy())

    ordered = [alive[k] for k in sorted(alive)]
    total = neumaier_sum(p.value for p in ordered)
    err = neumaier_sum(p.error for p in ordered)
    return total, abs(err), len(alive), status, history


# ---------------------------------------------------------------------------
# divergence scan
# ---------------------------------------------------------------------------

def _restricted_value(F, n: int, delta: float) -> float:
    """Integral of F over [delta, 1-delta]^n at loose tolerance."""
    lo = delta
    hi = 1.0 - delta

    def G(u):
        pts = lo + (hi - lo) * u
        return np.asarray(F(pts), dtype=float) * (hi - lo) ** n

    total, _, _, _, _ = _adaptive_cube_fast(G, n, 1e-3, 4000, [[] for _ in range(n)])
    return total


_SCAN_DEPTHS = (8, 24, 72)


def _divergence_scan(f, n: int) -> bool:
    """Shrink the domain toward the faces at increasing dyadic depths.

    Runs on the original (untransformed) integrand, in the original
    coordinates.

    Divergence is declared when the partial integrals grow by more than a
    factor of ten (algebraic blow-up), or when they keep growing at a
    non-decaying per-octave rate (log-type divergence; a convergent integral
    has per-octave increments that decay geometrically).
    """
    values = []
    for depth in _SCAN_DEPTHS:
        try:
            values.append(_restricted_value(f, n, 2.0 ** (-depth)))
        except FloatingPointError:
            return True
    v1, v2, v3 = (abs(v) for v in values)
    if v3 > 10.0 * max(v1, 1e-300) and v2 > v1:
        return True
    per12 = (v2 - v1) / (_SCAN_DEPTHS[1] - _SCAN_DEPTHS[0])
    per23 = (v3 - v2) / (_SCAN_DEPTHS[2] - _SCAN_DEPTHS[1])
    material = (v3 - v2) > 0.05 * max(v3, 1e-300)
    return per12 > 0.0 and per23 >= 0.95 * per12 and material


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def _build_transform(n, hints: SingularityHints, breakpoints):
    maps = [
        _AxisMap(_kappa_for(hints.zero[i], hints.zero_logs[i]),
                 _kappa_for(hints.one[i], hints.one_logs[i]))
        for i in range(n)
    ]
    seeds = []
    for i in range(n):
        s = list(maps[i].seeds())
        for b in (breakpoints[i] if breakpoints else []):
            s.append(maps[i].inverse(b))
        seeds.append(s)
    return maps, seeds


def integrate_unit_cube(
    f,
    n: int,
    sing: SingularityHints | None = None,
    tol: float | None = None,
    max_cells: int | None = None,
    breakpoints: list | None = None,
    seed: int = 0,
) -> QuadResult:
    """Integrate ``f`` over (0,1)^n.

    ``f`` maps an (N, n) array of interior points to an (N,) array.  ``sing``
    carries per-face exponent hints (None entries are probed numerically).
    ``breakpoints`` lists per-axis interior coordinates where the integrand is
    only piecewise smooth; initial panels are split there exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if tol is None:
        tol = _DEFAULT_TOLS.get(n, _QMC_TOL)

    # symbolic divergence: a declared non-integrable face exponent
    declared = sing.normalized(n) if sing is not None else None
    if declared is not None:
        for a in (*declared.zero, *declared.one):
            if a is not None and a <= -1.0:
                return QuadResult(math.inf, math.inf, math.inf, "divergent", 0)

    hints, suspicious = _resolve_hints(f, n, sing)
    maps, seeds = _build_transform(n, hints, breakpoints)

    def F(u):
        u = np.asarray(u, dtype=float)
        cols = [m.forward(u[:, i]) for i, m in enumerate(maps)]
        jac = np.ones(u.shape[0])
        for i, m in enumerate(maps):
            jac *= m.derivative(u[:, i])
        t = np.stack(cols, axis=1)
        return np.asarray(f(t), dtype=float) * jac

    if suspicious and _divergence_scan(f, n):
        return QuadResult(math.inf, math.inf, math.inf, "divergent", 0)

    if n >= 4:
        return _qmc_estimate(F, n, tol, seed)

    if max_cells is None:
        max_cells = 20000 if n <= 2 else 60000

    try:
        total, err, cells, status, history = _adaptive_cube_fast(F, n, tol, max_cells, seeds)
    except FloatingPointError:
        return QuadResult(math.inf, math.inf, math.inf, "divergent", 0)

    if status == "max-cells-reached":
        grew = (
            len(history) >= 3
            and abs(history[-1][1]) > 10.0 * max(abs(history[-3][1]), 1e-300)
        )
        if grew or _divergence_scan(f, n):
            return QuadResult(math.inf, math.inf, math.inf, "divergent", cells)
    rel = err / max(abs(total), 1e-300)
    return QuadResult(total, err, rel, status, cells)


def _qmc_estimate(F, n: int, tol: float, seed: int) -> QuadResult:
    from scipy.stats import qmc

    replicates = 8
    npts = 4096
    means = []
    for k in range(replicates):
        sob = qmc.Sobol(d=n, scramble=True, seed=seed * 1009 + k)
        pts = sob.random(npts)
        pts = np.clip(pts, 1e-12, 1.0 - 1e-12)
        means.append(float(np.mean(np.asarray(F(pts), dtype=float))))
    value = float(np.mean(means))
    stderr = float(np.std(means, ddof=1) / math.sqrt(replicates))
    err = 3.0 * stderr
    rel = err / max(abs(value), 1e-300)
    status = "converged" if rel <= tol else "max-cells-reached"
    return QuadResult(value, err, rel, status, replicates * npts)


def integrate_positive_orthant(
    f,
    n: int,
    sing_zero: SingularityHints | None = None,
    decay: tuple | None = None,
    tol: float | None = None,
    max_cells: int | None = None,
    seed: int = 0,
) -> QuadResult:
    """Integrate ``f`` over (0,inf)^n via t_i = u_i/(1-u_i).

    ``decay``: per-axis power-decay exponents c_i (f ~ t^{-c_i} at infinity),
    if known; they become u -> 1 face hints c_i - 2 after the jacobian.  None
    entries are probed.  Divergence at infinity surfaces as a u -> 1 face
    divergence.
    """
    zero = list((sing_zero.normalized(n).zero) if sing_zero is not None else (None,) * n)
    zero_logs = list((sing_zero.normalized(n).zero_logs) if sing_zero is not None else (0,) * n)
    one = [None if decay is None or decay[i] is None else decay[i] - 2.0 for i in range(n)]
    hints = SingularityHints(zero=tuple(zero), one=tuple(one),
                             zero_logs=tuple(zero_logs), one_logs=(0,) * n)

    def g(u):
        u = np.asarray(u, dtype=float)
        t = u / (1.0 - u)
        jac = np.prod((1.0 - u) ** -2.0, axis=1)
        return np.asarray(f(t), dtype=float) * jac

    return integrate_unit_cube(g, n, sing=hints, tol=tol, max_cells=max_cells, seed=seed)


def integrate_interval(
    f,
    a: float,
    b: float,
    sing_a: tuple | None = None,
    sing_b: tuple | None = None,
    tol: float = 1e-10,
    breakpoints: list | None = None,
    max_cells: int | None = None,
) -> QuadResult:
    """1-D convenience wrapper: integral of f over (a, b), finite endpoints.

    sing_a/sing_b are (exponent, log_count) pairs describing the integrand
    near the respective endpoint, in the local distance variable.
    """
    if not (math.isfinite(a) and math.isfinite(b) and b > a):
        raise ValueError("need finite a < b")
    width = b - a
    ea, la = sing_a if sing_a is not None else (None, 0)
    eb, lb = sing_b if sing_b is not None else (None, 0)
    hints = SingularityHints(zero=(ea,), one=(eb,), zero_logs=(la,), one_logs=(lb,))

    def g(u):
        x = a + width * u[:, 0]
        return np.asarray(f(x), dtype=float) * width

    inner = [(x - a) / width for x in (breakpoints or []) if a < x < b]
    res = integrate_unit_cube(g, 1, sing=hints, tol=tol, breakpoints=[inner],
                              max_cells=max_cells)
    return res

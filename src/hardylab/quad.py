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
than a factor of ten.  A run that hits its cell cap is divergent exactly
when that scan says so.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadResult",
    "SingularityHints",
    "TensorPoints",
    "integrate_unit_cube",
    "integrate_positive_orthant",
    "integrate_interval",
    "integrate_intervals",
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
    available estimate, and its error bar is the sum of the panels' error
    estimates, which at a cell cap can miss the true error.
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


# ---------------------------------------------------------------------------
# graded axis transforms
# ---------------------------------------------------------------------------

def _kappa_for(exponent: float, logs: int) -> int:
    """Grading order kappa with kappa*(1+a) >= 2, so the transformed integrand
    vanishes at the face even in the presence of log factors."""
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

    def seeds(self) -> list[float]:
        return [0.5] if (self.k0 > 1 and self.k1 > 1) else []

    # forward and derivative are for a map that grades a face; an identity
    # map is skipped by _graded
    def forward(self, u: np.ndarray) -> np.ndarray:
        k0, k1 = self.k0, self.k1
        if k1 == 1:
            out = u ** k0
        elif k0 == 1:
            out = 1.0 - (1.0 - u) ** k1
        else:
            # both branches are taken at every node; neither overflows for
            # kappa <= _MAX_KAPPA, as 2 * u and 2 * (1 - u) stay <= 2
            out = np.where(u <= 0.5, 0.5 * (2.0 * u) ** k0,
                           1.0 - 0.5 * (2.0 * (1.0 - u)) ** k1)
        return np.minimum(np.maximum(out, _FACE_FLOOR), _FACE_CEIL)

    def derivative(self, u: np.ndarray) -> np.ndarray:
        k0, k1 = self.k0, self.k1
        if k1 == 1:
            return k0 * u ** (k0 - 1)
        if k0 == 1:
            return k1 * (1.0 - u) ** (k1 - 1)
        return np.where(u <= 0.5, k0 * (2.0 * u) ** (k0 - 1),
                        k1 * (2.0 * (1.0 - u)) ** (k1 - 1))

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


def _probe_points(n: int, faces) -> np.ndarray:
    """The probe points of the (member, axis, face) faces, one
    (faces, anchors, len(_PROBE_H), n) array: an anchor's points step toward
    the face along its axis and hold every other coordinate at the anchor
    (in 1-D there are none, so one anchor's points are all there is to
    probe)."""
    anchors = np.array(_PROBE_ANCHORS if n > 1 else _PROBE_ANCHORS[:1])
    h = np.array(_PROBE_H)
    _, axes, sides = np.array(faces).T
    steps = np.where(sides[:, None] == 0, h, 1.0 - h)
    on_axis = axes[:, None] == np.arange(n)
    return np.where(on_axis[:, None, None, :], steps[:, None, :, None], anchors[:, None, None])


def _face_exponent(vals: np.ndarray) -> np.ndarray:
    """Estimate a in f ~ t_axis^a near each face from its probe values, a
    (faces, anchors, len(_PROBE_H)) array.  Per anchor, the least-squares
    slope of log|f| against log h over the values above 1e-290 (an anchor
    with fewer than 3 is skipped); per face, the median over its anchors,
    or 0.0 if none is left.  A face with a non-finite value (NaN also
    stands for an anchor whose evaluation raised) reads -2.0."""
    v = np.abs(vals)
    w = v > 1e-290
    used = w.sum(axis=-1)
    with np.errstate(all="ignore"):
        x = np.log(np.array(_PROBE_H))
        y = np.log(np.where(w, v, 1.0))
        dx = w * (x - (w * x).sum(axis=-1, keepdims=True) / used[..., None])
        dy = y - (w * y).sum(axis=-1, keepdims=True) / used[..., None]
        slopes = np.where(used >= 3, (dx * dy).sum(axis=-1) / (dx * dx).sum(axis=-1), np.nan)
    slopes.sort(axis=-1)  # skipped anchors (NaN) last
    count = (used >= 3).sum(axis=-1)
    rows = np.arange(len(slopes))
    median = (slopes[rows, (count - 1) // 2] + slopes[rows, count // 2]) / 2
    return np.where(np.isfinite(v).all(axis=(1, 2)), np.where(count > 0, median, 0.0), -2.0)


def _probe_family(f, n: int, faces):
    """Probe the (member, axis, face) faces of a family f(t, k); returns
    {face: exponent estimate}.  One call of f evaluates every face's probe
    points, and one fit (_face_exponent) reads every face's estimate from
    them.  If the call raises, each anchor is evaluated alone (see _alone),
    face by face in anchor order, so that an anchor that raises costs only
    its own face.  A face's first anchor that raises, or gives a non-finite
    value, settles it at -2.0, so no call follows it; the rows it leaves
    unevaluated read NaN."""
    if not faces:
        return {}
    pts = _probe_points(n, faces)
    owner = np.repeat([k for k, _, _ in faces], pts[0].size // n)
    with np.errstate(all="ignore"):
        vals = _alone(lambda: np.asarray(f(pts.reshape(-1, n), owner),
                                         dtype=float).reshape(pts.shape[:3]))
        if isinstance(vals, Exception):
            vals = np.full(pts.shape[:3], np.nan)
            for (k, _, _), block, rows in zip(faces, pts, vals):
                for anchor, row in zip(block, rows):
                    raised = _alone(lambda: np.copyto(row, np.asarray(
                        f(anchor, np.full(len(anchor), k)), dtype=float)))
                    if raised is not None or not np.isfinite(row).all():
                        break
    return dict(zip(faces, _face_exponent(vals).tolist()))


def _resolve_hints(hints: SingularityHints, estimate):
    """Fill in the unknown face exponents of normalized hints with
    estimate(axis, face); returns (hints, suspicious) where suspicious flags
    estimates at or below -1."""
    zero = list(hints.zero)
    one = list(hints.one)
    suspicious = False
    def chew(a):
        # small safety margin toward harder grading, clamped to integrable
        return max(min(a - 0.05, 0.0), -0.95) if a < 0.25 else 0.0

    for i in range(len(zero)):
        if zero[i] is None:
            a = estimate(i, 0)
            suspicious |= a <= -0.98
            zero[i] = chew(a)
        if one[i] is None:
            a = estimate(i, 1)
            suspicious |= a <= -0.98
            one[i] = chew(a)
    resolved = SingularityHints(zero=tuple(zero), one=tuple(one),
                                zero_logs=hints.zero_logs, one_logs=hints.one_logs)
    return resolved, suspicious


# ---------------------------------------------------------------------------
# adaptive tensor Gauss-Kronrod core
# ---------------------------------------------------------------------------

class TensorPoints(np.lib.mixins.NDArrayOperatorsMixin):
    """The (N, n) points of a call's tensor panels, given by the grid they
    span.

    ``integrate_unit_cube`` hands its integrand these for n = 2 and 3, as
    does the divergence scan; ``_family_panels`` is the only code that
    builds them, and the only one that builds panel points at all.
    ``axes[i]`` holds axis i's coordinates of every box, shaped to
    broadcast along axis i + 1 of ``grid`` = (boxes, 15, ..., 15), and the
    points are that grid's in C order.  ``expr.evaluate`` reads the axes
    and takes each subexpression on only the axes it depends on: it
    returns the point-by-point values, bit for bit, as an array that
    broadcasts to ``grid``, and an integrand may likewise return such an
    array in place of the (N,) values.

    The (N, n) array is built when something first reads it: np.asarray,
    indexing, a ufunc or operator, or an ndarray method or attribute.
    ``len``, ``shape`` and ``ndim`` answer from the grid.  What is derived
    from the points is a plain ndarray that carries no axes, so it is
    evaluated point by point.
    """

    ndim = 2

    def __init__(self, axes, grid: tuple):
        self.axes = axes
        self.grid = grid
        self._points = None

    @property
    def shape(self) -> tuple:
        return (math.prod(self.grid), len(self.axes))

    def __len__(self) -> int:
        return math.prod(self.grid)

    def __array__(self, dtype=None, copy=None):
        if self._points is None:
            points = np.empty(self.grid + (len(self.axes),))
            for i, a in enumerate(self.axes):
                points[..., i] = a
            self._points = points.reshape(-1, len(self.axes))
        return np.array(self._points, dtype=dtype, copy=copy)

    def __getitem__(self, index):
        return np.asarray(self)[index]

    def __getattr__(self, name):  # the ndarray's public methods and attributes
        if name.startswith("_"):  # e.g. on a copy not yet given its fields
            raise AttributeError(name)
        return getattr(np.asarray(self), name)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        def plain(args):
            return tuple(np.asarray(a) if isinstance(a, TensorPoints) else a for a in args)
        if "out" in kwargs:
            kwargs["out"] = plain(kwargs["out"])
        return getattr(ufunc, method)(*plain(inputs), **kwargs)


class _Panel:
    __slots__ = ("lo", "hi", "value", "error")

    def __init__(self, lo, hi, value, error):
        self.lo = lo
        self.hi = hi
        self.value = value
        self.error = error


@functools.lru_cache(maxsize=None)
def _tensor_rule(n: int):
    """The Kronrod and Gauss weights of the 15^n-point tensor rule, as a
    (2, 1, 15^n, 1) stack of columns, in the order of the nodes' grid (the
    first axis varies slowest)."""
    wk = np.ones(15 ** n)
    wg = np.ones(15 ** n)
    for idx in np.meshgrid(*([np.arange(15)] * n), indexing="ij"):
        wk *= _WGK[idx.ravel()]
        wg *= _WG7[idx.ravel()]
    return np.stack([wk, wg])[:, None, :, None]


# one integrand call evaluates the halves of _BATCH_POINTS // (2 * 15^n)
# splits, but of no fewer than _MIN_SPLITS: 273 splits at n = 1, 18 at
# n = 2, and 4 at n = 3, whose panels hold 3375 points (27,000 points).
# The points bound the arrays of one call.  On the benchmark's cube pool
# 4096 and 16384 points ran within noise of 8192, each doubling adding
# about 0.4 MB of peak memory, but n = 3 then made one split per call.
# The floor lets n = 3 look ahead: the pool's n = 3 constants (seed 1)
# make 418 calls instead of 1,266 on the same boxes, and a pass of the
# pool takes x0.91 of the time.  6 and 8 splits took x1.03 and x1.13 of
# the time of 4, for 0.2 and 0.4 MB more traced peak.
_BATCH_POINTS = 8192
_MIN_SPLITS = 4


def _panel_nodes(n, boxes):
    """The 15 Kronrod nodes of each (lo, hi) box along each axis, an
    (n, boxes, 15) array whose rows [:, b] span box b's tensor grid of 15^n
    nodes, and each box's half-volume."""
    lo = np.array([box[0] for box in boxes])
    hi = np.array([box[1] for box in boxes])
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid.T[:, :, None] + half.T[:, :, None] * _XGK, half.prod(axis=1)


def _panel_sums(n, vals, vols):
    """Kronrod value and error estimate of each box from its row of integrand
    values, to be called under np.errstate(all="ignore").  A box with a
    non-finite value gets None: the caller raises only if it uses that box."""
    # numpy runs this stack of (1, 15^n) @ (15^n, 1) products as one BLAS dot
    # per row and weight, the dot np.dot(w, row) takes.  One vals @ w would
    # round differently in the last bit, and a panel's value must not depend
    # on its batch.
    vk, vg = np.matmul(vals[:, None, :], _tensor_rule(n))[:, :, 0, 0] * vols
    return [(v, max(abs(v - g), abs(v) * 5e-16)) if finite else None for v, g, finite in
            zip(vk.tolist(), vg.tolist(), np.isfinite(vals).all(axis=1).tolist())]


def _halves(p: _Panel):
    """The two boxes a panel splits into: halved along its widest axis."""
    lo, hi = p.lo, p.hi
    widths = [b - a for a, b in zip(lo, hi)]
    ax = widths.index(max(widths))  # the first widest axis
    mid = 0.5 * (lo[ax] + hi[ax])
    return [(lo, hi[:ax] + (mid,) + hi[ax + 1:]), (lo[:ax] + (mid,) + lo[ax + 1:], hi)]


def _refine(n, tol, max_cells, cuts):
    """Adaptive refinement with O(1) running totals over the box whose axis
    i is cut at cuts[i], the sorted ends of its segments, the box's own ends
    included: [0,1]^n for an integral (see _build_transform), the shrunken
    cube for a divergence scan.  The start-up panels are the boxes of those
    segments, the first axis varying fastest.  It is a generator: it yields
    the (lo, hi) boxes it needs evaluated and is sent each box's
    _panel_sums, or the exception evaluating the box alone raised (see
    _lockstep).  It returns (total, err, cells, status).

    The totals are recomputed from the live panels with math.fsum, which
    rounds exactly, so they do not depend on the panels' order or on the
    refinement schedule's running sums.

    Refinement is greedy, one split at a time: the worst panel is halved
    along its widest axis.  Only the evaluation is batched: a request holds
    the halves of at most splits_per_call splits (see _BATCH_POINTS), or
    as many start-up panels.  When the worst panel's halves are not
    evaluated yet, one request asks for them together with the halves of
    the next worst panels that any converging run must split too
    (Gladwell's rule: the fewest worst panels whose errors keep the total
    above tolerance); those are kept until greedy pops their panel.
    Results are those of one split per request, provided the integrand is
    row-wise: a half that is non-finite, or whose evaluation raised,
    raises only when greedy uses it.
    """
    heap: list = []
    fresh: list = []  # the entries of `heap` whose halves are not evaluated
    kids: dict[int, list] = {}  # key -> the panel's evaluated halves
    kids_error = 0.0  # the error of the panels in kids
    counter = 0
    value_sum = 0.0
    error_sum = 0.0
    alive: dict[int, _Panel] = {}
    splits_per_call = max(_MIN_SPLITS, _BATCH_POINTS // (2 * 15 ** n))
    look_ahead = splits_per_call > 1
    recheck_at = 0  # len(alive) from which the set must be measured again

    def push(box, res):
        nonlocal counter, value_sum, error_sum
        if res is None:
            raise FloatingPointError("non-finite integrand value inside a panel")
        if isinstance(res, Exception):
            raise res  # _lockstep drops its traceback, and with it these frames
        v, e = res
        alive[counter] = _Panel(box[0], box[1], v, e)
        entry = (-e, counter)
        heapq.heappush(heap, entry)
        heapq.heappush(fresh, entry)
        value_sum += v
        error_sum += e
        counter += 1

    def must_split():
        """Pop from `fresh` the worst panel and the next worst panels of the
        Gladwell set, up to splits_per_call of them.  The panels in kids
        count first, as they are split anyway.  If the set outgrows the
        cells left, the run ends capped and greedy would not split it all:
        then only the worst panel is taken, for the rest of the run.  A split
        takes one cell and adds at most one panel to the set (two children
        for their parent), so a set that fits with s cells to spare fits for
        s/2 more splits, and is not measured again before then."""
        nonlocal look_ahead, recheck_at
        neg_err, key = heapq.heappop(fresh)
        group = [key]
        if not look_ahead:
            return group
        thr = tol * max(abs(value_sum), 1e-300)
        rest = error_sum - kids_error + neg_err
        while fresh and rest > thr and len(group) < splits_per_call:
            neg_err, k = heapq.heappop(fresh)
            group.append(k)
            rest += neg_err
        # cells left once the set's known panels are split
        spare = max_cells - len(alive) - len(kids) - len(group)
        if (spare >= 0 and rest > thr and len(fresh) > spare
                and len(alive) >= recheck_at):
            # walk the rest of `fresh` in error order: a heap of
            # (entry, index) holds the frontier of its binary tree
            frontier = [(fresh[0], 0)]
            while frontier and rest > thr and spare >= 0:
                (neg_err, _), i = heapq.heappop(frontier)
                spare -= 1
                rest += neg_err
                for j in (2 * i + 1, 2 * i + 2):
                    if j < len(fresh):
                        heapq.heappush(frontier, (fresh[j], j))
            recheck_at = len(alive) + spare // 2
        if spare < 0:
            look_ahead = False
            for k in group[1:]:
                heapq.heappush(fresh, (-alive[k].error, k))
            del group[1:]
        return group

    # the axes' segments, last axis first: product varies the last fastest
    segments = [list(zip(c, c[1:])) for c in reversed(cuts)]
    boxes = [tuple(zip(*reversed(segs))) for segs in itertools.product(*segments)]
    for start in range(0, len(boxes), 2 * splits_per_call):
        chunk = boxes[start:start + 2 * splits_per_call]
        for box, res in zip(chunk, (yield chunk)):
            push(box, res)

    while True:
        if error_sum <= tol * max(abs(value_sum), 1e-300):
            status = "converged"
            break
        if len(alive) >= max_cells:
            status = "max-cells-reached"
            break
        _, key = heapq.heappop(heap)
        if key not in kids:
            group = must_split()  # the worst panel first: it is this key
            halves = [_halves(alive[k]) for k in group]
            results = yield [box for pair in halves for box in pair]
            for i, k in enumerate(group):
                kids[k] = list(zip(halves[i], results[2 * i:2 * i + 2]))
                kids_error += alive[k].error
        worst = alive.pop(key)
        value_sum -= worst.value
        error_sum -= worst.error
        kids_error -= worst.error
        for box, res in kids.pop(key):
            push(box, res)

    total = math.fsum(p.value for p in alive.values())
    err = math.fsum(p.error for p in alive.values())
    return total, err, len(alive), status


def _kept(exc: Exception) -> Exception:
    """exc, to be kept as a member's outcome, with the tracebacks of it and
    of the exceptions it chains dropped.  A frame links to its caller, so a
    kept traceback would close a reference cycle through the frame that
    keeps it, and the panels its frames hold would wait for the garbage
    collector.  Raised again, the exception gets a new traceback there."""
    link = exc
    while link is not None:
        link.__traceback__ = None
        link = link.__context__
    return exc


def _alone(call):
    """call(), or the exception it raised, kept (see _kept)."""
    try:
        return call()
    except Exception as exc:
        return _kept(exc)


def _raise_kept(outcomes: list) -> list:
    """A family's outcome list (see integrate_intervals), or, if it ends with
    a kept exception, that exception raised.  It is popped off the list, so
    no local keeps it and its new traceback closes no cycle."""
    if outcomes and isinstance(outcomes[-1], Exception):
        raise outcomes.pop()
    return outcomes


# the most integrand points the live runs of a lockstep family may hold: the
# boxes each has had evaluated plus those it asks for.  A run past it, in
# member order, waits for the runs before it to finish (the first live run
# never waits), so the panels kept and the arrays of one call stay near
# those of a loop over the members.  Without it a grid of 61 integrals that
# all run to the cell cap held 61 of them: cmo_norm at tol 1e-15 peaked at
# 263 MB against 52 MB one radius at a time.  A log CMO grid stays below it.
_LOCKSTEP_POINTS = 8 * _BATCH_POINTS


def _lockstep(runs: dict, evaluate, budget: int) -> dict:
    """Drive refinement runs (see _refine), keyed by member, together: each
    round makes one call evaluate({member: boxes}) -> {member: sums} for the
    requests of the live runs, in member order, whose evaluated and
    requested boxes fit in budget.  If that call raises, each box of it is
    evaluated by a call of its own, evaluate({member: [box]}), and a box
    whose call raises is sent that exception in place of its sums (see
    _alone), so that a run sees only the exceptions it would see by itself,
    and only where greedy uses the box.  Returns {member: the run's result,
    or the exception it raised}.  A run that raises ends the
    runs of the members after it, which a loop over the members would not
    reach.  This is the only loop that runs _refine: a single integral is
    a family of one.  evaluate runs under np.errstate(all="ignore"), which
    is entered once for the whole drive."""
    out = {}
    asks = {}
    held = dict.fromkeys(runs, 0)  # boxes evaluated for each run
    todo, results = runs, dict.fromkeys(runs)  # sending None starts a run
    with np.errstate(all="ignore"):
        while True:
            for k in todo:  # in member order
                try:
                    asks[k] = runs[k].send(results[k])
                except StopIteration as done:
                    out[k] = done.value
                except Exception as exc:  # the member's own outcome
                    out[k] = _kept(exc)
                    for j in [j for j in asks if j > k]:
                        del asks[j]  # the runs after it are not resumed
                    break
            if not asks:
                return out
            todo = {}
            used = 0
            for k in sorted(asks):
                used += held[k] + len(asks[k])
                if todo and used > budget:
                    break  # this run and the later ones wait
                todo[k] = asks.pop(k)
                held[k] += len(todo[k])
            results = _alone(lambda: evaluate(todo))
            if isinstance(results, Exception):
                results = {k: [_alone(lambda: evaluate({k: [box]})[k][0]) for box in boxes]
                           for k, boxes in todo.items()}


# ---------------------------------------------------------------------------
# divergence scan
# ---------------------------------------------------------------------------

_SCAN_DEPTHS = (8, 24, 72)


def _divergence_scan(f, n: int) -> bool:
    """Shrink the domain toward the faces at increasing dyadic depths.

    Runs on the original (untransformed) integrand, in the original
    coordinates: _refine integrates f over [delta, 1-delta]^n itself, one
    run per depth, at loose tolerance, as one lockstep family, and f gets
    the points _family_panels builds, as integrate_unit_cube gives them.  A
    FloatingPointError at the first depth whose integral fails means
    divergent; any other exception is raised.

    Divergence is declared when the partial integrals grow by more than a
    factor of ten (algebraic blow-up), or when they keep growing at a
    non-decaying per-octave rate (log-type divergence; a convergent integral
    has per-octave increments that decay geometrically).
    """
    runs = {k: _refine(n, 1e-3, 4000, [(2.0 ** -depth, 1.0 - 2.0 ** -depth)] * n)
            for k, depth in enumerate(_SCAN_DEPTHS)}
    out = _lockstep(runs, _family_panels(lambda t, k: f(t), n,
                                         dict.fromkeys(runs, [_AxisMap(1, 1)] * n)),
                    _LOCKSTEP_POINTS // 15 ** n)
    values = []
    for k in runs:  # in depth order, as a loop over the depths would stop
        if isinstance(out[k], FloatingPointError):
            return True
        if isinstance(out[k], Exception):
            raise out.pop(k)  # no local keeps it, so its traceback closes no cycle
        values.append(out[k][0])
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
    """The axis maps of resolved hints, and each axis's cuts for _refine:
    0.0, 1.0 and, in graded coordinates, the map's midpoint seed and the
    breakpoints, less those within 1e-12 of a face."""
    maps = [
        _AxisMap(_kappa_for(hints.zero[i], hints.zero_logs[i]),
                 _kappa_for(hints.one[i], hints.one_logs[i]))
        for i in range(n)
    ]
    cuts = []
    for i, m in enumerate(maps):
        inner = m.seeds() + [m.inverse(b) for b in (breakpoints[i] if breakpoints else [])]
        cuts.append(sorted({0.0, 1.0, *(c for c in inner if 1e-12 < c < 1 - 1e-12)}))
    return maps, cuts


_DEFAULT_MAX_CELLS = {1: 20000, 2: 20000, 3: 60000}


def _divergent_result(cells: int = 0) -> QuadResult:
    return QuadResult(math.inf, math.inf, math.inf, "divergent", cells)


def _hints_for(sing: SingularityHints | None, n: int):
    """Normalized hints (every face unknown when none are given), and
    whether they declare a non-integrable face exponent."""
    hints = (sing if sing is not None else SingularityHints.unknown(n)).normalized(n)
    declared = any(a is not None and a <= -1.0 for a in (*hints.zero, *hints.one))
    return hints, declared


def _graded(maps, axes) -> list:
    """Grade each axis's coordinates axes[i] in place, and return the graded
    axes' derivatives at them, in axis order: the maps' jacobian is their
    product (see _jacobian)."""
    derivatives = []
    for m, u in zip(maps, axes):
        if (m.k0, m.k1) != (1, 1):  # an identity map moves nothing, derivative 1.0
            derivatives.append(m.derivative(u))
            u[...] = m.forward(u)
    return derivatives


def _jacobian(derivatives):
    """The product of the derivatives in order, as they broadcast."""
    return functools.reduce(np.multiply, derivatives)


def _conclude(f, n: int, run) -> QuadResult:
    """The result of a refinement run of f: a capped run is divergent
    exactly when the divergence scan of f says so."""
    total, err, cells, status = run
    if status == "max-cells-reached" and _divergence_scan(f, n):
        return _divergent_result(cells)
    rel = err / max(abs(total), 1e-300)
    return QuadResult(total, err, rel, status, cells)


def integrate_unit_cube(
    f,
    n: int,
    sing: SingularityHints | None = None,
    tol: float | None = None,
    max_cells: int | None = None,
    breakpoints: list | None = None,
) -> QuadResult:
    """Integrate ``f`` over (0,1)^n.

    ``f`` maps an (N, n) array of interior points to an (N,) array, and must
    be row-wise: a point's value may not depend on the other rows, because
    one call mixes the nodes of many panels (at n = 3, up to 8 panels of
    3375 points; see _BATCH_POINTS).  For n = 2 and 3 the points come as a
    TensorPoints: read as an array they are the (N, n) points, and ``f``
    that evaluates them per axis never has that array built and may return
    an array that broadcasts to their ``grid`` instead.  ``sing``
    carries per-face exponent hints (None entries are probed numerically).
    ``breakpoints`` lists per-axis interior coordinates where the integrand is
    only piecewise smooth; initial panels are split there exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if tol is None:
        tol = _DEFAULT_TOLS.get(n, _QMC_TOL)
    return _raise_kept(_integrate_family(lambda t, k: f(t), n, [(sing, breakpoints, max_cells)],
                                         tol, lambda k: f))[0]


# ---------------------------------------------------------------------------
# families of integrals in lockstep
# ---------------------------------------------------------------------------

def _family_panels(f, n: int, maps: dict):
    """evaluate({member: boxes}) for _lockstep: one call of the family f(t, k)
    on the graded nodes of every member's boxes.  A map acts on one axis, so
    it grades each box's 15 nodes along its axis, not the 15^n points, and
    the jacobian is the product of the axes' derivatives over the grid.
    Members whose axis maps agree are graded together, as one slice of
    boxes, so that each map keeps a scalar exponent (numpy rounds some
    scalar powers, such as squares, differently from the same power with an
    array exponent).  The product is taken once f has returned, as the
    axes broadcast, so it holds no grid-sized array while f runs; a group
    that grades no axis has none to take.

    For n >= 2 f gets a TensorPoints, which builds no (N, n) array unless
    f reads it, and may return an array that broadcasts to its grid.  A
    one-member call gets its owners as a zero-stride view."""
    groups: dict[tuple, int] = {}  # the maps' exponents -> their group
    group_of, graded = {}, set()
    for k, ms in maps.items():
        key = tuple((m.k0, m.k1) for m in ms)
        group_of[k] = groups.setdefault(key, len(groups))
        if key != ((1, 1),) * n:
            graded.add(k)

    def evaluate(asks):
        owners = sorted(asks, key=group_of.__getitem__)
        boxes = [box for k in owners for box in asks[k]]
        nodes, vols = _panel_nodes(n, boxes)
        # axis i's nodes, shaped to broadcast along axis i + 1 of the
        # (boxes, 15, ..., 15) grid of points, are graded in place
        axes = nodes if n == 1 else [a.reshape((-1,) + (1,) * i + (15,) + (1,) * (n - 1 - i))
                                     for i, a in enumerate(nodes)]
        grid = (len(boxes),) + (15,) * n
        parts = []  # (start, end, graded axes' derivatives) of each group's boxes
        if not graded.isdisjoint(asks):
            start = end = 0
            for i, k in enumerate(owners):  # a group's boxes at a time
                end += len(asks[k])
                if i + 1 == len(owners) or group_of[owners[i + 1]] != group_of[k]:
                    parts.append((start, end, _graded(maps[k], [a[start:end] for a in axes])))
                    start = end
        # in 1-D the nodes already are the points, and each is its own axis
        t = nodes.reshape(-1, 1) if n == 1 else TensorPoints(axes, grid)
        if len(owners) == 1:  # every point has the one owner: a zero-stride view
            owner = np.ndarray(len(t), int, np.array(owners), strides=(0,))
            owner.flags.writeable = False
        else:
            owner = np.array(owners).repeat([len(asks[k]) * 15 ** n for k in owners])
        vals = np.asarray(f(t, owner), dtype=float)
        if vals.shape == (len(t),):
            vals = vals.reshape(grid)
        if len(parts) == 1:  # one group, and it grades: into its new jacobian if that fits
            jac = _jacobian(parts[0][2])
            vals = np.multiply(vals, jac, out=jac if jac.shape == grid else None)
        if vals.shape != grid:  # evaluated per axis: it broadcasts to the grid
            vals = np.broadcast_to(vals, grid)
        if len(parts) > 1:  # the values times each group's jacobian
            graded_vals = np.empty(grid)
            for start, end, derivatives in parts:
                if derivatives:
                    np.multiply(vals[start:end], _jacobian(derivatives),
                                out=graded_vals[start:end])
                else:
                    graded_vals[start:end] = vals[start:end]
            vals = graded_vals
        sums = _panel_sums(n, vals.reshape(len(boxes), -1), vols)
        out = {}
        start = 0
        for k in owners:
            out[k] = sums[start:start + len(asks[k])]
            start += len(asks[k])
        return out

    return evaluate


def _integrate_family(f, n: int, members: list, tol: float, member) -> list:
    """integrate_unit_cube of each member of the row-wise family f(t, k),
    with members[k] = (sing, breakpoints, max_cells), all in lockstep;
    member(k) is member k's integrand of t alone.  The outcomes are those of
    integrate_intervals."""
    hints = [_hints_for(sing, n) for sing, _, _ in members]
    count = next((k + 1 for k, (_, declared) in enumerate(hints) if declared), len(members))
    # the faces of every member probed with one call
    estimates = _probe_family(f, n, [
        (k, i, face) for k, (h, _) in enumerate(hints[:count]) for i in range(n)
        for face in (0, 1) if (h.zero, h.one)[face][i] is None])
    decided, maps, runs = {}, {}, {}
    for k in range(count):
        h, declared = hints[k]
        if declared:
            decided[k] = _divergent_result()
            break
        h, suspicious = _resolve_hints(h, lambda axis, face, k=k: estimates[k, axis, face])
        maps[k], cuts = _build_transform(n, h, members[k][1])
        try:
            if suspicious and _divergence_scan(member(k), n):
                decided[k] = _divergent_result()
                break
            if n >= 4:
                decided[k] = _qmc_estimate(member(k), maps[k], n, tol)
                continue
        except Exception as exc:
            decided[k] = _kept(exc)
            break
        cap = members[k][2]
        runs[k] = _refine(n, tol, _DEFAULT_MAX_CELLS[n] if cap is None else cap, cuts)
    if runs:
        runs = _lockstep(runs, _family_panels(f, n, {k: maps[k] for k in runs}),
                         _LOCKSTEP_POINTS // 15 ** n)

    out = []
    for k in range(count):
        if k in decided:
            res = decided[k]
        elif isinstance(runs[k], FloatingPointError):
            res = _divergent_result()
        elif isinstance(runs[k], Exception):
            res = runs[k]
        else:
            res = _alone(lambda: _conclude(member(k), n, runs[k]))
        out.append(res)
        if isinstance(res, Exception) or res.divergent:
            break
    return out


def _qmc_estimate(f, maps, n: int, tol: float) -> QuadResult:
    """Scrambled-Sobol estimate of f over (0,1)^n, in the graded coordinates
    of maps; replicate k draws Sobol seed k."""
    from scipy.stats import qmc

    replicates = 8
    npts = 4096
    means = []
    for k in range(replicates):
        sob = qmc.Sobol(d=n, scramble=True, seed=k)
        pts = sob.random(npts)
        pts = np.clip(pts, 1e-12, 1.0 - 1e-12)
        derivatives = _graded(maps, pts.T)
        vals = np.asarray(f(pts), dtype=float)
        means.append(float(np.mean(vals * _jacobian(derivatives) if derivatives else vals)))
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
    tol: float | None = None,
    max_cells: int | None = None,
) -> QuadResult:
    """Integrate ``f`` over (0,inf)^n via t_i = u_i/(1-u_i).

    ``sing_zero`` gives the t_i -> 0 faces; the u -> 1 faces, where the
    decay at infinity lands after the jacobian, are probed.  Divergence at
    infinity surfaces as a u -> 1 face divergence.
    """
    zero = SingularityHints.unknown(n) if sing_zero is None else sing_zero.normalized(n)
    hints = SingularityHints(zero=zero.zero, one=(None,) * n, zero_logs=zero.zero_logs,
                             one_logs=(0,) * n)

    def g(u):
        u = np.asarray(u, dtype=float)
        t = u / (1.0 - u)
        jac = np.prod((1.0 - u) ** -2.0, axis=1)
        return np.asarray(f(t), dtype=float) * jac

    return integrate_unit_cube(g, n, sing=hints, tol=tol, max_cells=max_cells)


def _unit_interval(a: float, b: float, sing_a: tuple | None = None,
                   sing_b: tuple | None = None, breakpoints: list | None = None,
                   max_cells: int | None = None):
    """(width, hints, breakpoints, max_cells) of (a, b) mapped onto (0, 1)."""
    if not (math.isfinite(a) and math.isfinite(b) and b > a):
        raise ValueError("need finite a < b")
    width = b - a
    ea, la = sing_a if sing_a is not None else (None, 0)
    eb, lb = sing_b if sing_b is not None else (None, 0)
    hints = SingularityHints(zero=(ea,), one=(eb,), zero_logs=(la,), one_logs=(lb,))
    inner = [(x - a) / width for x in (breakpoints or []) if a < x < b]
    return width, hints, [inner], max_cells


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
    near the respective endpoint, in the local distance variable.  It is a
    family of one for integrate_intervals.
    """
    return _raise_kept(integrate_intervals(lambda x, k: f(x), [dict(
        a=a, b=b, sing_a=sing_a, sing_b=sing_b, breakpoints=breakpoints,
        max_cells=max_cells)], tol=tol))[0]


def integrate_intervals(f, members: list, tol: float = 1e-10) -> list:
    """integrate_interval for every member of a family of integrands, in
    lockstep.

    ``f(x, k)`` maps an (N,) array of points and the (N,) array of the
    members they belong to onto the members' integrands, and must be
    row-wise.  ``members[k]`` holds member k's keyword arguments of
    integrate_interval: ``a`` and ``b``, and optionally ``sing_a``,
    ``sing_b``, ``breakpoints`` and ``max_cells``.  One call of f probes the
    unknown faces of every member, and then each refinement round makes one
    call of f for the panels every live member asks for.  Each member keeps
    its own greedy schedule, so its result is bit for bit that of
    integrate_interval(lambda x: f(x, k), tol=tol, **members[k]).

    Returns the members' results in order, as a loop over them would give
    them: the list ends at the first divergent member, or at the first one
    whose integration raised, with the exception (without its traceback)
    in place of its result.  The live members hold at most
    _LOCKSTEP_POINTS points of evaluated panels between them; past that,
    later members wait for earlier ones.
    """
    units = [_unit_interval(**m) for m in members]
    lo = np.array([m["a"] for m in members], dtype=float)
    width = np.array([w for w, _, _, _ in units])

    def g(u, k):
        x = lo[k] + width[k] * u[:, 0]
        return np.asarray(f(x, k), dtype=float) * width[k]

    return _integrate_family(g, 1, [unit[1:] for unit in units], tol,
                             lambda k: lambda u: g(u, np.full(len(u), k)))

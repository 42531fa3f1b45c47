import math

import numpy as np
import pytest

from hardylab import quad
from hardylab.constants import compute_constant
from hardylab.expr import DomainError
from hardylab.quad import (_PROBE_ANCHORS, _PROBE_H, SingularityHints, _probe_family,
                           integrate_interval, integrate_intervals,
                           integrate_positive_orthant, integrate_unit_cube)

from conftest import diagonal_scenario


def hints1(zero, one=0.0, zero_logs=0):
    return SingularityHints(zero=(zero,), one=(one,), zero_logs=(zero_logs,),
                            one_logs=(0,))


def test_inverse_sqrt_matches_hardy_p2_integrand():
    res = integrate_unit_cube(lambda t: t[:, 0] ** -0.5, 1, sing=hints1(-0.5),
                              tol=1e-8)
    assert res.converged
    assert res.value == pytest.approx(2.0, rel=1e-8)


def test_unit_square_constant():
    res = integrate_unit_cube(lambda t: np.ones(t.shape[0]), 2,
                              sing=SingularityHints.regular(2))
    assert res.value == pytest.approx(1.0, abs=1e-14)
    assert res.cells_used == 1


def test_log_kernel_oracle():
    # int_0^1 t^a log(1/t) dt = 1/(a+1)^2 with a = -1/4
    res = integrate_unit_cube(
        lambda t: t[:, 0] ** -0.25 * np.log(1.0 / t[:, 0]), 1,
        sing=hints1(-0.25, zero_logs=1), tol=1e-10,
    )
    assert res.value == pytest.approx(16.0 / 9.0, rel=1e-9)


@pytest.mark.parametrize("a", [-0.9, -0.5, -0.1])
def test_grading_correctness(a):
    res = integrate_unit_cube(lambda t: t[:, 0] ** a, 1, sing=hints1(a), tol=1e-8)
    assert res.converged
    assert res.value == pytest.approx(1.0 / (a + 1.0), rel=1e-8)


def test_degree_seven_polynomial_is_exact_on_one_panel():
    res = integrate_unit_cube(
        lambda t: 8.0 * t[:, 0] ** 7 - 3.0 * t[:, 0] ** 2 + 1.0, 1,
        sing=SingularityHints.regular(1),
    )
    assert res.cells_used == 1
    assert res.value == pytest.approx(1.0 - 1.0 + 1.0, abs=1e-14)


def test_declared_divergence_is_symbolic():
    res = integrate_unit_cube(lambda t: t[:, 0] ** -1.0, 1, sing=hints1(-1.0))
    assert res.divergent
    assert res.cells_used == 0


def test_probed_divergence():
    res = integrate_unit_cube(lambda t: t[:, 0] ** -1.1, 1)
    assert res.divergent


def test_probed_log_type_divergence():
    # borderline exponent: blows up only logarithmically
    res = integrate_unit_cube(lambda t: t[:, 0] ** -1.0, 1)
    assert res.divergent


def test_near_critical_exponent_still_converges_unhinted():
    res = integrate_unit_cube(lambda t: t[:, 0] ** -0.95, 1)
    assert res.converged
    assert res.value == pytest.approx(20.0, rel=1e-7)


def test_probe_handles_unhinted_integrable_singularity():
    res = integrate_unit_cube(lambda t: t[:, 0] ** -0.5, 1)
    assert res.converged
    assert res.value == pytest.approx(2.0, rel=1e-7)


def test_orthant_exponential():
    res = integrate_positive_orthant(lambda t: np.exp(-t[:, 0]), 1)
    assert res.value == pytest.approx(1.0, rel=1e-9)


def test_orthant_gamma_oracle():
    res = integrate_positive_orthant(lambda t: t[:, 0] ** 0.5 * np.exp(-t[:, 0]), 1)
    assert res.value == pytest.approx(math.gamma(1.5), rel=1e-8)


def test_orthant_rational_tail():
    res = integrate_positive_orthant(lambda t: (1.0 + t[:, 0]) ** -2.0, 1)
    assert res.value == pytest.approx(1.0, rel=1e-9)


def test_orthant_divergence_at_infinity():
    res = integrate_positive_orthant(lambda t: 1.0 / (1.0 + t[:, 0]), 1)
    assert res.divergent


def test_two_dim_product_singularity():
    res = integrate_unit_cube(
        lambda t: (t[:, 0] * t[:, 1]) ** -0.25, 2,
        sing=SingularityHints(zero=(-0.25, -0.25), one=(0.0, 0.0)),
        tol=1e-8,
    )
    assert res.value == pytest.approx((4.0 / 3.0) ** 2, rel=1e-8)


def test_determinism_bit_identical():
    def f(t):
        return np.sin(3.0 * t[:, 0] * t[:, 1]) * t[:, 0] ** -0.3

    sing = SingularityHints(zero=(-0.3, 0.0), one=(0.0, 0.0))
    r1 = integrate_unit_cube(f, 2, sing=sing)
    r2 = integrate_unit_cube(f, 2, sing=sing)
    assert r1 == r2


def test_breakpoints_make_indicators_exact():
    cut = 0.3

    def f(t):
        return np.where(t[:, 0] >= cut, t[:, 0] ** -0.5, 0.0)

    res = integrate_unit_cube(f, 1, sing=hints1(0.0), breakpoints=[[cut]])
    assert res.value == pytest.approx(2.0 * (1.0 - math.sqrt(cut)), rel=1e-12)


def test_qmc_path_for_high_dimension():
    res = integrate_unit_cube(lambda t: np.prod(t, axis=1), 4, tol=5e-3)
    assert res.value == pytest.approx(1.0 / 16.0, rel=5e-3)
    r2 = integrate_unit_cube(lambda t: np.prod(t, axis=1), 4, tol=5e-3)
    assert res == r2


def test_qmc_estimate_short_of_its_tolerance_is_capped():
    # eight replicates of 4096 Sobol points reach a relative error of about
    # 1.6e-3, not 1e-6: the estimate reads capped, and its bar covers 1/16
    res = integrate_unit_cube(lambda t: np.prod(t, axis=1), 4, tol=1e-6)
    assert res.status == "max-cells-reached"
    assert res.value == 0.06244513827341304
    assert abs(res.value - 1.0 / 16.0) <= res.abs_error_estimate


def test_interval_wrapper_with_interior_breakpoint():
    res = integrate_interval(lambda x: np.abs(np.log(np.abs(x))), -1.0, 3.0,
                             breakpoints=[0.0, 1.0])
    want = 2.0 + (3.0 * math.log(3.0) - 2.0)
    assert res.value == pytest.approx(want, rel=1e-9)


def test_converged_status_respects_tolerance():
    res = integrate_unit_cube(lambda t: np.exp(t[:, 0]), 1,
                              sing=SingularityHints.regular(1), tol=1e-10)
    assert res.converged
    assert res.rel_error_estimate <= 1e-10
    assert res.value == pytest.approx(math.e - 1.0, rel=1e-12)


@pytest.mark.parametrize("face", [0, 1])
def test_probe_evaluates_a_1d_face_once(face):
    # in 1-D every anchor's points coincide, so one evaluation is enough
    seen = []

    def f(pts):
        seen.append(pts.shape)
        u = pts[:, 0] if face == 0 else 1.0 - pts[:, 0]
        return u ** -0.4 * (1.0 + u)

    slope = _probe_family(lambda t, k: f(t), 1, [(0, 0, face)])[0, 0, face]
    assert seen == [(len(_PROBE_H), 1)]
    # the old probe took the median of three equal slopes, one per anchor
    h = np.array(_PROBE_H)
    pts = (h if face == 0 else 1.0 - h)[:, None]
    one_anchor = np.polyfit(np.log(h), np.log(np.abs(f(pts))), 1)[0]
    want = float(np.median([one_anchor] * 3))
    assert abs(slope - want) <= 1e-12 * abs(want)  # the tolerance of the fit's own test


def test_probe_uses_every_anchor_in_2d():
    seen = []

    def f(pts):
        seen.append(pts.shape)
        return pts[:, 0] ** -0.4 * (1.0 + pts[:, 1])

    slope = _probe_family(lambda t, k: f(t), 2, [(0, 0, 0)])[0, 0, 0]
    assert slope == pytest.approx(-0.4, abs=1e-3)
    assert seen == [(3 * len(_PROBE_H), 2)]  # the three anchors in one call


def test_probe_falls_back_to_one_call_per_anchor():
    # the combined call raises, and so does one anchor of one face: that
    # face reads -2.0, and every other face reads as if nothing had raised
    def smooth(t, k):
        return t[:, 0] ** (-0.4 + 0.1 * k) * (1.0 + t[:, 1]) ** 2

    def raising(t, k):
        if np.any((k == 1) & (t[:, 0] < 2.0 ** -7) & (t[:, 1] == _PROBE_ANCHORS[1])):
            raise ValueError("bad anchor")
        return smooth(t, k)

    faces = [(k, axis, face) for k in (0, 1) for axis in (0, 1) for face in (0, 1)]
    want = _probe_family(smooth, 2, faces)
    got = _probe_family(raising, 2, faces)
    bad = (1, 0, 0)
    assert got[bad] == -2.0 and want[bad] != -2.0
    assert {key: got[key] for key in faces if key != bad} == \
        {key: want[key] for key in faces if key != bad}


def test_a_single_integral_probes_all_its_faces_in_one_call():
    rows = []

    def f(t):
        rows.append(len(t))
        return (t[:, 0] * t[:, 1]) ** -0.25 * (1.0 + t[:, 0])

    res = integrate_unit_cube(f, 2)  # all four faces unknown
    assert res.converged
    assert rows[0] == 4 * 3 * len(_PROBE_H)  # four faces, three anchors each
    assert all(r % 15 ** 2 == 0 for r in rows[1:])  # then only panels


def _polyfit_exponent(face):
    # the oracle: np.polyfit per anchor over the values above 1e-290, and
    # the median over the anchors that have at least 3 of them
    h = np.array(_PROBE_H)
    slopes = []
    for v in np.abs(face):
        mask = v > 1e-290
        if mask.sum() >= 3:
            slopes.append(np.polyfit(np.log(h[mask]), np.log(v[mask]), 1)[0])
    return float(np.median(slopes)) if slopes else 0.0


def test_face_fit_matches_polyfit():
    rng = np.random.default_rng(11)
    h = np.array(_PROBE_H)
    # random rows: a power of h with a random factor and noise, either sign
    a = rng.uniform(-0.95, 2.0, size=(40, 3, 1))
    faces = list(rng.uniform(0.1, 10.0, size=(40, 3, 1)) * h ** a
                 * np.exp(rng.normal(scale=0.3, size=(40, 3, len(h))))
                 * rng.choice([-1.0, 1.0], size=(40, 3, len(h))))
    faces.append(np.tile(h ** -0.7 * np.log(1.0 / h), (3, 1)))  # t^a log(1/t)
    # rows with 0, 1 and 2 values above 1e-290 are skipped: the face is the
    # median of its other anchors, or 0.0 if none is left
    few = [np.where(np.arange(len(h)) < m, h ** 0.5, 1e-300) for m in range(6)]
    faces += [np.stack([few[m], few[4], few[5]]) for m in range(3)]
    faces += [np.stack([few[m], few[3], few[5]]) for m in range(3)]
    faces += [np.stack([few[0], few[1], few[2]]), np.zeros((3, len(h)))]
    got = quad._face_exponent(np.array(faces))
    want = [_polyfit_exponent(face) for face in faces]
    assert got[-2:].tolist() == [0.0, 0.0]
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_face_fit_reads_a_non_finite_anchor_as_suspicious():
    h = np.array(_PROBE_H)
    faces = np.tile(h ** -0.3, (4, 3, 1))
    faces[1, 1, 2] = np.nan
    faces[2, 2, 0] = np.inf
    faces[3, 0] = 0.0  # a skipped anchor settles nothing
    faces[3, 1, -1] = -np.inf
    assert quad._face_exponent(faces)[1:].tolist() == [-2.0, -2.0, -2.0]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_probe_fallback_reads_the_same_dict_as_one_call(n):
    # member 0 is a power of each coordinate, member 1 is zero near every
    # face but t1 -> 1, and member 2 is non-finite at one anchor of its
    # t1 -> 0 face (the second anchor, or the only one in 1-D)
    a = np.array([-0.6, 0.4, 1.3][:n])
    bad_anchor = 0 if n == 1 else 1

    def smooth(t, k):
        v = np.prod(t ** a, axis=1) * (1.0 + np.sin(3.0 * t[:, 0]))
        v = np.where(k == 1, np.where(t[:, 0] > 0.99, 1.0 - t[:, 0], 0.0), v)
        bad = (k == 2) & (t[:, 0] < 2.0 ** -7) & \
            ((n == 1) | (t[:, -1] == _PROBE_ANCHORS[bad_anchor]))
        return np.where(bad, np.nan, v)

    calls = []

    def one_anchor_a_call(t, k):
        calls.append((k[0], len(t)))
        if len(t) > len(_PROBE_H):
            raise ValueError("more than one anchor")
        return smooth(t, k)

    faces = [(k, axis, face) for k in range(3) for axis in range(n) for face in (0, 1)]
    want = _probe_family(smooth, n, faces)
    got = _probe_family(one_anchor_a_call, n, faces)
    assert got == want
    assert want[2, 0, 0] == -2.0
    assert want[1, 0, 0] == 0.0 and want[1, 0, 1] == pytest.approx(1.0, abs=1e-3)
    assert want[0, 0, 0] == pytest.approx(-0.6, abs=1e-2)
    # one combined call, then an anchor a call; the non-finite anchor ends
    # its face's calls
    anchors = 3 if n > 1 else 1
    assert calls == [(0, len(faces) * anchors * len(_PROBE_H))] + [
        (key[0], len(_PROBE_H)) for key in faces
        for _ in range(bad_anchor + 1 if key == (2, 0, 0) else anchors)]


# ---------------------------------------------------------------------------
# batched evaluation: the same results as one split per integrand call
# ---------------------------------------------------------------------------

def _one_split_per_call(monkeypatch):
    # a budget of one split, at any n: each call evaluates two panels at
    # start-up and then the two halves of the panel greedy splits, and no
    # others
    monkeypatch.setattr(quad, "_BATCH_POINTS", 1)
    monkeypatch.setattr(quad, "_MIN_SPLITS", 1)


def _bare_run(f, n, tol, max_cells, seeds):
    """One refinement run of f on the unit cube, cut at each axis's seeds,
    ungraded, driven by quad._lockstep: its (total, err, cells, status), or
    it raises what the run raised."""
    cuts = [sorted({0.0, 1.0, *axis}) for axis in seeds]
    out = quad._lockstep({0: quad._refine(n, tol, max_cells, cuts)},
                         quad._family_panels(lambda t, k: f(t), n,
                                             {0: [quad._AxisMap(1, 1)] * n}), 0)
    if isinstance(out[0], Exception):
        raise out.pop(0)
    return out[0]


def _core_results(monkeypatch, run):
    """Every (total, err, cells, status) of a refinement run during
    run(), batched and then one split per call."""
    real = quad._refine
    seen = []

    def recording(*args):
        out = yield from real(*args)
        seen.append(repr(out))
        return out

    monkeypatch.setattr(quad, "_refine", recording)
    batched = (repr(run()), list(seen))
    seen.clear()
    _one_split_per_call(monkeypatch)
    single = (repr(run()), list(seen))
    return batched, single


def _bumpy(t):
    x = t[:, 0]
    return np.exp(3.0 * x) * np.sin(7.0 * x) + 1.0 / (1.05 - x)


@pytest.mark.parametrize("run", [
    # n = 1, seeded at breakpoints and at the graded map's midpoint
    lambda: integrate_unit_cube(
        lambda t: np.where(t[:, 0] < 0.3, 1.0, np.exp(t[:, 0])) * t[:, 0] ** -0.7,
        1, sing=SingularityHints(zero=(-0.7,), one=(-0.2,)), tol=1e-12,
        breakpoints=[[0.3, 0.77]]),
    # n = 2 with graded faces
    lambda: integrate_unit_cube(
        lambda t: t[:, 0] ** -0.6 * t[:, 1] ** -0.3 * (1.0 + t[:, 0] * t[:, 1]),
        2, sing=SingularityHints(zero=(-0.6, -0.3), one=(0.0, 0.0))),
    # n = 3, faces probed
    lambda: integrate_unit_cube(lambda t: (t[:, 0] * t[:, 1] + t[:, 2]) ** -0.5, 3),
    # capped at 8 cells, in 1-D and 2-D
    lambda: _bare_run(_bumpy, 1, 1e-14, 8, [[]]),
    lambda: integrate_unit_cube(lambda t: np.sin(40.0 * t[:, 0] * t[:, 1]), 2,
                                sing=SingularityHints.regular(2), max_cells=8),
    # capped at 300 cells by a log-divergent face
    lambda: integrate_unit_cube(
        lambda t: 1.0 / (t[:, 0] * np.log(1.0 / t[:, 0]) ** 0.9), 1,
        sing=SingularityHints.regular(1), max_cells=300),
    # divergence scans, three depths in lockstep
    lambda: quad._divergence_scan(lambda t: 1.0 / t[:, 0], 1),
    lambda: quad._divergence_scan(lambda t: (t[:, 0] * t[:, 1]) ** -0.9, 2),
    # n = 3 with graded faces
    lambda: integrate_unit_cube(
        lambda t: t[:, 0] ** -0.6 * t[:, 1] ** -0.3 * t[:, 2] ** -0.45
        * (1.0 + t[:, 0] * t[:, 1] * t[:, 2]),
        3, sing=SingularityHints(zero=(-0.6, -0.3, -0.45), one=(0.0, 0.0, 0.0))),
    # n = 3 capped at 300 cells, then its divergence scan
    lambda: integrate_unit_cube(_sin40, 3, sing=SingularityHints.regular(3), tol=1e-12,
                                max_cells=300),
    # n = 3, a batched request raises: its boxes are evaluated one a call
    lambda: _bare_run(_poisoned(_SPECULATIVE_POINT_N3, True, _sin40)[0], 3, 1e-14, 11,
                      [[]] * 3),
    lambda: quad._divergence_scan(lambda t: (t[:, 0] + t[:, 1] + t[:, 2]) ** -3.0, 3),
], ids=["n1-breakpoints", "n2-graded", "n3-probed", "n1-capped8", "n2-capped8",
        "n1-capped300", "scan-n1", "scan-n2", "n3-graded", "n3-capped300", "n3-replay",
        "scan-n3"])
def test_batched_core_is_bit_identical_to_one_split_per_call(monkeypatch, run):
    batched, single = _core_results(monkeypatch, run)
    assert batched[1]  # the adaptive core ran
    assert batched == single


def _graded_rows(f, n, maps, boxes, k):
    """The reference for member k of quad._family_panels: the (N, n) points
    of the boxes' tensor grids, graded a column at a time, the rows of
    integrand values times jacobian that its panel sums are taken of, and
    the boxes' half-volumes."""
    grid = np.stack([g.ravel() for g in np.meshgrid(*[quad._XGK] * n, indexing="ij")], axis=1)
    lo = np.array([box[0] for box in boxes])
    hi = np.array([box[1] for box in boxes])
    t = (0.5 * (hi + lo)[:, None, :] + 0.5 * (hi - lo)[:, None, :] * grid).reshape(-1, n)
    jac = np.ones(len(t))
    for i, m in enumerate(maps):
        if (m.k0, m.k1) != (1, 1):
            jac *= m.derivative(t[:, i])
            t[:, i] = m.forward(t[:, i])
    vals = f(t, np.full(len(t), k)) * jac
    return t, vals.reshape(len(boxes), -1), np.prod(0.5 * (hi - lo), axis=1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_family_panels_grade_per_axis_as_the_full_point_array(monkeypatch, n):
    rest = n - 1
    maps = {  # identity, one-face and two-face maps; members 1 and 3 share a group
        0: [(1, 1)] * n,
        1: [(7, 1)] + [(1, 1)] * rest,
        2: [(2, 5)] + [(1, 4)] * rest,
        3: [(7, 1)] + [(1, 1)] * rest,
        4: [(1, 1)] * rest + [(3, 3)],
    }
    maps = {k: [quad._AxisMap(*m) for m in ms] for k, ms in maps.items()}
    rng = np.random.default_rng(n)

    def box():
        width = 2.0 ** -rng.integers(0, 40)
        lo = tuple(float(rng.choice([0.0, 1.0 - width, rng.uniform(0.0, 1.0 - width)]))
                   for _ in range(n))
        return lo, tuple(a + width for a in lo)

    asks = {k: [box() for _ in range(1 + k % 3)] for k in (2, 0, 4, 3, 1)}
    calls, rows = [], []

    def f(t, k):
        calls.append((t.copy(), k.copy()))
        return np.exp(-t.sum(axis=1)) * (1.0 + k) + np.sqrt(t[:, -1]) / t[:, 0] ** 0.3

    real = quad._panel_sums

    def recording(n, vals, vols):
        rows.append(vals.copy())
        return real(n, vals, vols)

    monkeypatch.setattr(quad, "_panel_sums", recording)
    with np.errstate(all="ignore"):
        got = quad._family_panels(f, n, maps)(asks)
        (t, owner), = calls
        (vals,) = rows
        for k, boxes in asks.items():
            ref_t, ref_vals, ref_vols = _graded_rows(f, n, maps[k], boxes, k)
            assert np.array_equal(t[owner == k], ref_t)
            assert repr(vals[owner[::15 ** n] == k].tolist()) == repr(ref_vals.tolist())
            assert repr(got[k]) == repr(real(n, ref_vals, ref_vols))


class _MaskedAxisMap(quad._AxisMap):
    """quad._AxisMap's forward and derivative in their earlier form, with
    boolean-mask gathers and scatters and np.clip: the reference the
    np.where form must match bit for bit."""

    def forward(self, u):
        k0, k1 = self.k0, self.k1
        if k1 == 1:
            out = u ** k0
        elif k0 == 1:
            out = 1.0 - (1.0 - u) ** k1
        else:
            left = u <= 0.5
            out = np.empty_like(u)
            out[left] = 0.5 * (2.0 * u[left]) ** k0
            out[~left] = 1.0 - 0.5 * (2.0 * (1.0 - u[~left])) ** k1
        return np.clip(out, quad._FACE_FLOOR, quad._FACE_CEIL)

    def derivative(self, u):
        k0, k1 = self.k0, self.k1
        if k1 == 1:
            return k0 * u ** (k0 - 1)
        if k0 == 1:
            return k1 * (1.0 - u) ** (k1 - 1)
        left = u <= 0.5
        out = np.empty_like(u)
        out[left] = k0 * (2.0 * u[left]) ** (k0 - 1)
        out[~left] = k1 * (2.0 * (1.0 - u[~left])) ** (k1 - 1)
        return out


@pytest.mark.parametrize("k0, k1", [(3, 4), (2, 128), (128, 2), (5, 1), (1, 7), (2, 2)])
def test_axis_map_matches_the_masked_form_bit_for_bit(k0, k1):
    rng = np.random.default_rng(k0 * 1000 + k1)
    edges = [0.0, 0.5, 1.0, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
             *(2.0 ** -np.arange(1.0, 60.0)), *(1.0 - 2.0 ** -np.arange(1.0, 54.0))]
    u = np.concatenate([edges, rng.random(3000 - len(edges))])
    got, ref = quad._AxisMap(k0, k1), _MaskedAxisMap(k0, k1)
    for shaped in (u, u.reshape(-1, 15, 1), u.reshape(-1, 1, 15)):
        for method in ("forward", "derivative"):
            a, b = getattr(got, method)(shaped), getattr(ref, method)(shaped)
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), method


def _family_call(f, n, maps, asks):
    """quad._family_panels(f, n, maps)(asks), with the points and owners of
    its one call of f."""
    seen = []

    def recording(t, k):
        seen.append((t, k))
        return f(t, k)

    with np.errstate(all="ignore"):
        sums = quad._family_panels(recording, n, maps)(asks)
    (t, owner), = seen
    return sums, t, owner


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tensor_points_are_the_point_array_with_its_axes(n):
    maps = {0: [quad._AxisMap(1, 1)] * n, 1: [quad._AxisMap(3, 4)] * n}
    boxes = [((0.0,) * n, (0.5,) * n), ((0.25,) * n, (1.0,) * n)]
    _, t, owner = _family_call(lambda t, k: np.ones(len(t)), n, maps,
                               {0: boxes[:1], 1: boxes})
    assert len(t) == t.shape[0] == len(owner) == 3 * 15 ** n  # what a tracer counts
    for k, nboxes in ((0, 1), (1, 2)):
        ref_t, _, _ = _graded_rows(lambda t, k: np.ones(len(t)), n, maps[k],
                                   boxes[:nboxes], k)
        assert np.array_equal(np.asarray(t)[owner == k], ref_t)
    if n == 1:
        assert type(t) is np.ndarray
        return
    assert isinstance(t, quad.TensorPoints)
    assert t.grid == (3,) + (15,) * n and len(t.axes) == n
    for i, a in enumerate(t.axes):
        assert a.shape == (3,) + (1,) * i + (15,) + (1,) * (n - 1 - i)
        assert np.array_equal(np.broadcast_to(a, t.grid).reshape(-1), t[:, i])
    # derived arrays carry no axes, so they are evaluated point by point
    for derived in (t[:, 0], t[:5], t * 1.0, np.exp(t), t.copy(), t.reshape(-1), 0.5 + t):
        assert getattr(derived, "axes", None) is None and getattr(derived, "grid", None) is None
    assert type(t * 1.0) is type(np.exp(t[:, 0])) is np.ndarray
    assert type(t.sum()) is np.float64 and t.sum() == np.asarray(t).sum()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("graded", [False, True], ids=["no-jacobian", "graded"])
def test_family_panels_take_per_axis_values_as_the_flat_ones(n, graded):
    from hardylab.expr import evaluate, parse

    e = parse(f"t1^(-0.3) * exp(-t1) * (1 + t{n})^0.5", n)  # free of t2 for n = 3
    maps = {0: [quad._AxisMap(1, 1)] * n, 1: [quad._AxisMap(1, 1)] * n}
    if graded:  # a one-face and a two-face group next to the ungraded one
        maps[1] = [quad._AxisMap(7, 1)] + [quad._AxisMap(1, 1)] * (n - 1)
        maps[2] = [quad._AxisMap(2, 5)] + [quad._AxisMap(3, 3)] * (n - 1)
    rng = np.random.default_rng(n)

    def box():
        width = 2.0 ** -rng.integers(0, 30)
        lo = tuple(float(rng.uniform(0.0, 1.0 - width)) for _ in range(n))
        return lo, tuple(a + width for a in lo)

    asks = {k: [box() for _ in range(2 + k)] for k in maps}
    shapes = []

    def per_axis(t, k):
        vals = evaluate(e, t=t)
        shapes.append(vals.shape)
        return vals

    got, _, _ = _family_call(per_axis, n, maps, asks)
    want, _, _ = _family_call(lambda t, k: evaluate(e, t=np.asarray(t)), n, maps, asks)
    boxes = sum(map(len, asks.values()))
    assert shapes == [(boxes, 15) + (1,) * (n - 2) + (15,)]  # compact
    assert repr(got) == repr(want)
    # a compact result that is constant along an axis is broadcast, too
    half, _, _ = _family_call(lambda t, k: evaluate(e, t=t)[..., :1], n, maps, asks)
    flat, _, _ = _family_call(
        lambda t, k: np.broadcast_to(evaluate(e, t=t)[..., :1], t.grid).reshape(-1),
        n, maps, asks)
    assert repr(half) == repr(flat)


@pytest.mark.parametrize("n", [2, 3])
def test_per_axis_integrands_never_build_the_point_array(monkeypatch, n):
    from hardylab.expr import evaluate, parse

    e = parse(f"t1^(-0.3) * exp(-t1) * (1 + t{n})^0.5", n)
    maps = {0: [quad._AxisMap(7, 1)] + [quad._AxisMap(1, 1)] * (n - 1)}
    asks = {0: [((0.0,) * n, (0.5,) * n), ((0.25,) * n, (1.0,) * n)]}
    want, _, _ = _family_call(lambda t, k: evaluate(e, t=np.asarray(t)), n, maps, asks)

    def unbuilt(self, dtype=None, copy=None):
        raise AssertionError("the (N, n) point array was built")

    monkeypatch.setattr(quad.TensorPoints, "__array__", unbuilt)
    got, t, owner = _family_call(lambda t, k: evaluate(e, t=t), n, maps, asks)
    assert repr(got) == repr(want)
    # what a tracer reads, without building the array
    assert len(t) == t.shape[0] == 2 * 15 ** n and t.shape[1] == n and t.ndim == 2
    # a one-member call's owners are a read-only zero-stride view
    assert owner.strides == (0,) and len(owner) == len(t) and owner[0] == 0
    assert not owner.flags.writeable


@pytest.mark.parametrize("n, text, divergent", [
    (2, "(t1 * t2)^(-0.9)", False),
    (2, "(t1 * t2)^(-1.1)", True),
    (3, "(t1 + t2 + t3)^(-2.5)", False),
    (3, "(t1 + t2 + t3)^(-3.0)", True),
])
def test_divergence_scan_of_a_per_axis_integrand_builds_no_point_array(
        monkeypatch, n, text, divergent):
    from hardylab.expr import evaluate, parse

    e = parse(text, n)
    assert quad._divergence_scan(lambda t: evaluate(e, t=np.asarray(t)), n) is divergent

    def unbuilt(self, dtype=None, copy=None):
        raise AssertionError("the (N, n) point array was built")

    monkeypatch.setattr(quad.TensorPoints, "__array__", unbuilt)
    assert quad._divergence_scan(lambda t: evaluate(e, t=t), n) is divergent


def test_integrate_unit_cube_needs_a_dimension():
    with pytest.raises(ValueError, match=r"^n must be >= 1$"):
        integrate_unit_cube(lambda t: t[:, 0], 0)


def _panel_sums_by_row(n, vals, vols):
    """The reference for quad._panel_sums: one np.dot per row, in Python
    floats."""
    wk, wg = quad._tensor_rule(n).reshape(2, -1)
    out = []
    for row, vol in zip(vals, vols):
        if not np.isfinite(row).all():
            out.append(None)
            continue
        vk = float(np.dot(wk, row)) * vol
        vg = float(np.dot(wg, row)) * vol
        out.append((vk, max(abs(vk - vg), abs(vk) * 5e-16)))
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_panel_sums_match_a_dot_per_row(n):
    rng = np.random.default_rng(n)
    size = 15 ** n
    for rows in (1, 2, 7, quad._BATCH_POINTS // size):
        for strided in (False, True):
            # rows scaled across 1e-300..1e300, mixed magnitudes inside a row
            wide = (rng.standard_normal((rows, 2 * size))
                    * 10.0 ** rng.uniform(-292, 292, (rows, 1))
                    * 10.0 ** rng.uniform(-8, 8, (rows, 2 * size)))
            wide[-1] = 1e308  # finite values whose sums overflow

            def layout(w):  # strided rows take another BLAS kernel
                return w[:, ::2] if strided else w[:, :size]

            vols = 2.0 ** rng.uniform(-40, 0, rows)
            with np.errstate(all="ignore"):  # as under its callers
                got = quad._panel_sums(n, layout(wide), vols)
                assert repr(got) == repr(_panel_sums_by_row(n, layout(wide), vols.tolist()))
                bad = rows // 2
                wide[bad, 2 * (size // 3)] = np.nan  # a column of both layouts
                poisoned = quad._panel_sums(n, layout(wide), vols)
            assert poisoned[bad] is None
            assert repr(poisoned[:bad] + poisoned[bad + 1:]) == repr(got[:bad] + got[bad + 1:])


def test_halves_split_the_first_widest_axis():
    tied = quad._Panel((0.0, 0.25, 0.5), (0.5, 0.75, 1.0), 1.0, 1.0)
    assert quad._halves(tied) == [((0.0, 0.25, 0.5), (0.25, 0.75, 1.0)),
                                  ((0.25, 0.25, 0.5), (0.5, 0.75, 1.0))]
    tall = quad._Panel((0.0, 0.0), (0.25, 0.5), 1.0, 1.0)
    assert quad._halves(tall) == [((0.0, 0.0), (0.25, 0.25)), ((0.0, 0.25), (0.25, 0.5))]


def _poisoned(bad, raise_error, f=_bumpy):
    """f with NaN (or a DomainError) at the one point bad."""
    hits = []

    def poisoned(t):
        hit = (t == np.array(bad)).all(axis=1)
        if hit.any():
            hits.append(len(t))
            if raise_error:
                raise DomainError("poisoned point")
        return np.where(hit, np.nan, f(t))
    return poisoned, hits


# Greedy's first 7 splits under max_cells = 8 leave [0.75, 0.875] whole; its
# 8th splits it.  27/32 is the middle node of its right half, and no node of
# a panel greedy uses before then.
_SPECULATIVE_NODE = 0.84375


def _sin40(t):
    return np.sin(40.0 * t[:, 0] * t[:, 1] * t[:, 2])


# Under max_cells = 11, a batched request of _sin40 holds the halves of a
# panel greedy never splits; this is the centre of one of them, a node of
# no other box.
_SPECULATIVE_POINT_N3 = (0.625, 0.75, 0.75)


@pytest.mark.parametrize("raise_error", [False, True], ids=["nan", "domain-error"])
def test_speculative_halves_never_change_a_capped_result(monkeypatch, raise_error):
    f, hits = _poisoned(_SPECULATIVE_NODE, raise_error)
    batched = _bare_run(f, 1, 1e-14, 8, [[]])
    assert hits  # the poisoned half was evaluated ahead of greedy
    _one_split_per_call(monkeypatch)
    hits.clear()
    single = _bare_run(f, 1, 1e-14, 8, [[]])
    assert not hits
    assert repr(batched) == repr(single)
    assert batched[2:4] == (8, "max-cells-reached")


def test_a_raising_batched_request_is_replayed_at_n3(monkeypatch):
    f, hits = _poisoned(_SPECULATIVE_POINT_N3, True, _sin40)
    batched = _bare_run(f, 3, 1e-14, 11, [[]] * 3)
    assert hits  # the request that held the point raised
    _one_split_per_call(monkeypatch)
    hits.clear()
    assert repr(_bare_run(f, 3, 1e-14, 11, [[]] * 3)) == repr(batched)
    assert not hits
    assert batched[2:4] == (11, "max-cells-reached")


def _sin300(t):
    return np.sin(300.0 * t[:, 0] * t[:, 1]) + (t[:, 0] + t[:, 1]) ** 0.5


# Under tol 1e-13 and max_cells = 1500, a batched request of _sin300 holds
# the halves of a panel greedy never splits; this is the centre of one of
# them, a node of no other box.
_SPECULATIVE_POINT_N2 = (0.390625, 0.953125)


def _long_n2_run(f):
    return integrate_unit_cube(f, 2, sing=SingularityHints.regular(2), tol=1e-13,
                               max_cells=1500)


def _counted(f):
    """f, and the list of the row counts of its calls."""
    rows = []

    def counting(t):
        rows.append(len(t))
        return f(t)
    return counting, rows


def test_a_raising_request_costs_one_call_per_box_and_nothing_after(monkeypatch):
    # the request that holds the point raises: each of its boxes is then
    # evaluated alone, only the poisoned one raises, and greedy never uses
    # it, so the run goes on looking ahead with the calls of the clean run
    clean, clean_rows = _counted(_sin300)
    f, hits = _poisoned(_SPECULATIVE_POINT_N2, True, _sin300)
    poisoned, rows = _counted(f)
    want = _long_n2_run(clean)
    assert repr(_long_n2_run(poisoned)) == repr(want)
    assert want.status == "max-cells-reached"
    raising, *alone = hits
    boxes = raising // 15 ** 2
    assert boxes > 1 and alone == [15 ** 2]  # the batch, then its poisoned box alone
    assert len(rows) <= len(clean_rows) + boxes + 1
    _one_split_per_call(monkeypatch)  # greedy never reaches the point
    hits.clear()
    assert repr(_long_n2_run(f)) == repr(want)
    assert not hits


def test_a_capped_run_whose_scan_diverges_reads_divergent():
    res = integrate_unit_cube(lambda t: 1.0 / t[:, 0], 1, sing=SingularityHints.regular(1),
                              max_cells=300)
    assert res.divergent
    assert res.cells_used == 300


# Capped runs under wrong (regular) hints: the divergence scan is the only
# rule that reads them divergent.
@pytest.mark.parametrize("f, n", [
    (lambda t: t[:, 0] ** -1.3, 2),
    (lambda t: t[:, 0] ** -1.01, 1),
    pytest.param(lambda t: t[:, 0] ** -1.05, 2, marks=pytest.mark.xfail(
        strict=True, reason="the scan halves the widest axis, so a face this close to "
                            "log-divergent stalls at n = 2 (ROADMAP item 14)")),
], ids=["t1^-1.3-n2", "t^-1.01-n1", "t1^-1.05-n2"])
def test_a_capped_divergent_run_reads_what_its_scan_says(f, n):
    res = integrate_unit_cube(f, n, sing=SingularityHints.regular(n), max_cells=500)
    assert res.cells_used == 500
    assert res.status == "divergent"


@pytest.mark.xfail(strict=True, reason="the probe reads the t = 0 face as -0.792, so no "
                   "divergence scan runs and 1 + 1e-3/t reads converged 1.666 "
                   "(ROADMAP item 1, probed faces)")
def test_a_small_divergent_term_is_not_hidden_by_the_probe():
    res = integrate_unit_cube(lambda t: 1.0 + 1e-3 / t[:, 0], 1)
    assert res.status == "divergent"


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "one-split"])
def test_poison_greedy_reaches_keeps_its_outcome(monkeypatch, batched):
    if not batched:
        _one_split_per_call(monkeypatch)
    f, _ = _poisoned(_SPECULATIVE_NODE, raise_error=False)
    with pytest.raises(FloatingPointError):
        _bare_run(f, 1, 1e-14, 9, [[]])
    res = integrate_unit_cube(f, 1, sing=SingularityHints.regular(1), tol=1e-14,
                              max_cells=9)
    assert res.divergent
    f, _ = _poisoned(_SPECULATIVE_NODE, raise_error=True)
    with pytest.raises(DomainError):
        integrate_unit_cube(f, 1, sing=SingularityHints.regular(1), tol=1e-14,
                            max_cells=9)


def _scan_raises(t):
    """t^-0.99: probed as suspicious, and its divergence scan raises."""
    if (t[:, 0] < 1e-3).any():
        raise DomainError("below 1e-3")
    return t[:, 0] ** -0.99


def test_raising_integrals_leave_no_reference_cycles(no_reference_cycles):
    # an exception kept as a run's outcome is raised again with a new
    # traceback; if a frame of that traceback still held it, the frames and
    # the panels they hold would wait for the garbage collector.  The
    # exceptions of boxes greedy never uses are kept with a run's evaluated
    # halves until the run ends.
    poisoned, _ = _poisoned(_SPECULATIVE_NODE, raise_error=True)
    poisoned_n2, _ = _poisoned(_SPECULATIVE_POINT_N2, True, _sin300)
    poisoned_n3, _ = _poisoned(_SPECULATIVE_POINT_N3, True, _sin40)
    integrals = [
        lambda: integrate_unit_cube(poisoned, 1, sing=SingularityHints.regular(1),
                                    tol=1e-14, max_cells=9),  # raises where greedy reaches
        lambda: integrate_unit_cube(_scan_raises, 1),
    ]
    unraised = [  # a request raises, at a box greedy never uses
        lambda: _long_n2_run(poisoned_n2),
        lambda: _bare_run(poisoned_n3, 3, 1e-14, 11, [[]] * 3),
    ]
    raised = 0
    for _ in range(25):
        for run in integrals:
            try:
                run()
            except DomainError:
                raised += 1
    for run in unraised:
        run()
    assert raised == 50


def test_an_exception_kept_past_its_frames_holds_none_of_them(no_reference_cycles):
    # one cell, then the divergence scan raises in _conclude: the exception
    # is kept after the frames it was raised through have returned, and
    # would close a cycle through them if it kept its traceback
    for _ in range(3):
        with pytest.raises(DomainError):
            integrate_unit_cube(_scan_raises, 1, sing=SingularityHints.regular(1),
                                max_cells=1)


def _scan_depth_alone(f, n, delta):
    """One depth of the divergence scan as a one-member drive: the run of f
    over [delta, 1 - delta]^n at tolerance 1e-3, its result or what it
    raised."""
    return quad._lockstep({0: quad._refine(n, 1e-3, 4000, [(delta, 1.0 - delta)] * n)},
                          quad._family_panels(lambda t, k: f(t), n,
                                              {0: [quad._AxisMap(1, 1)] * n}), 0)[0]


@pytest.mark.parametrize("f, n, outcome", [
    (lambda t: t[:, 0] ** -0.5, 1, False),
    (lambda t: 1.0 / t[:, 0], 1, True),
    (lambda t: (t[:, 0] * t[:, 1]) ** -0.9, 2, False),
    # non-finite below 2^-30: only the deepest depth reaches it
    (lambda t: np.where(t[:, 0] < 2.0 ** -30, np.nan, t[:, 0] ** -0.9), 1, True),
    # non-finite below 2^-20: the middle depth fails first
    (lambda t: np.where(t[:, 0] < 2.0 ** -20, np.nan, t[:, 0] ** -0.9), 1, True),
    (_scan_raises, 1, DomainError),  # the middle depth raises
], ids=["convergent", "divergent", "n2", "nan-deepest", "nan-middle", "raises"])
def test_lockstep_scan_matches_one_drive_per_depth(monkeypatch, f, n, outcome):
    real = quad._lockstep
    families = []

    def recording(runs, evaluate, budget):
        out = real(runs, evaluate, budget)
        families.append({k: _outcome(res) for k, res in out.items()})
        return out

    monkeypatch.setattr(quad, "_lockstep", recording)
    if outcome is DomainError:
        with pytest.raises(DomainError):
            quad._divergence_scan(f, n)
    else:
        assert quad._divergence_scan(f, n) is outcome
    (together,) = families  # the three depths ran as one family
    alone = []  # a loop over the depths, stopping at the first that fails
    for depth in quad._SCAN_DEPTHS:
        alone.append(_scan_depth_alone(f, n, 2.0 ** -depth))
        if isinstance(alone[-1], Exception):
            break
    assert [together[k] for k in range(len(alone))] == [_outcome(r) for r in alone]


def test_batching_cuts_integrand_calls_not_points(monkeypatch):
    # the two-slot diagonal constant 16/9 by forced quadrature: a converging
    # 2-D integral of a monomial with graded faces
    real = quad._panel_nodes  # called once per integrand call on panels
    counts = []

    def counting(n, boxes):
        counts[-1][0] += 1
        counts[-1][1] += len(boxes) * 15 ** n
        return real(n, boxes)

    monkeypatch.setattr(quad, "_panel_nodes", counting)
    values = []
    for batched in (True, False):
        if not batched:
            _one_split_per_call(monkeypatch)
        counts.append([0, 0])
        c = compute_constant("lebesgue", diagonal_scenario(p=(4, 4)),
                             force_quadrature=True)
        values.append(repr(c))
    (calls, points), (calls_single, points_single) = counts
    assert values[0] == values[1]
    assert points == points_single
    assert 5 * calls <= calls_single


# ---------------------------------------------------------------------------
# families of intervals in lockstep: each member's integrate_interval result
# ---------------------------------------------------------------------------

# Greedy's last split at tol 1e-10 on (0, 1) is of [0.9375, 1]; the middle
# node of its right half is this point, a node of no panel before it.
_LAST_SPLIT_NODE = 0.984375


def _poison_last_split(raise_error):
    def f(x):
        bad = x == _LAST_SPLIT_NODE
        if raise_error and bad.any():
            raise DomainError("poisoned point")
        return np.where(bad, np.nan, np.exp(3.0 * x) * np.sin(7.0 * x) + 1.0 / (1.05 - x))
    return f


def _no_points_near_zero(x):
    if (x < 1e-3).any():
        raise DomainError("below 1e-3")
    return np.sqrt(x)


_REGULAR = dict(sing_a=(0.0, 0), sing_b=(0.0, 0))
_MEMBERS = {
    # a probed face graded at the origin
    "probed": (lambda x: x ** -0.6 * np.exp(x), dict(a=0.0, b=2.0, sing_b=(0.0, 0))),
    "breakpoints": (lambda x: np.where(x < 0.3, 1.0, np.exp(x)),
                    dict(a=0.0, b=1.0, breakpoints=[0.3, 0.77], **_REGULAR)),
    "capped": (lambda x: np.sin(40.0 * x) * np.exp(x),
               dict(a=-1.0, b=1.0, max_cells=8, **_REGULAR)),
    # probed at about -0.985: scanned, found convergent, then integrated
    "suspicious": (lambda x: x ** -0.985, dict(a=0.0, b=1.0, sing_b=(0.0, 0))),
    "nan": (_poison_last_split(False), dict(a=0.0, b=1.0, **_REGULAR)),
    "domain-error": (_poison_last_split(True), dict(a=0.0, b=1.0, **_REGULAR)),
    # raises at its probe points, so the family's one probe call raises
    # and every member probes alone; its divergence scan raises too
    "probe-raises": (_no_points_near_zero, dict(a=0.0, b=1.0, sing_b=(0.0, 0))),
}


def _outcome(res):
    if isinstance(res, Exception):
        return type(res).__name__, str(res)
    return repr(res)  # value, errors, status and cells, to the last bit


@pytest.mark.parametrize("names", [
    ["probed", "breakpoints", "capped", "suspicious"],
    ["probed", "nan", "breakpoints"],
    ["breakpoints", "domain-error", "probed"],
    ["capped", "probed", "probe-raises", "breakpoints"],
], ids=["converging", "nan-ends", "domain-error-ends", "probe-raises"])
@pytest.mark.parametrize("budget", [None, 15], ids=["all-together", "one-box-budget"])
def test_lockstep_family_matches_each_integral_alone(monkeypatch, names, budget):
    if budget is not None:  # a run past the first waits for the ones before it
        monkeypatch.setattr(quad, "_LOCKSTEP_POINTS", budget)
    funcs = [_MEMBERS[name][0] for name in names]
    members = [_MEMBERS[name][1] for name in names]
    widest = [0]  # the most members one call evaluated

    def family(x, k):
        widest[0] = max(widest[0], len(np.unique(k)))
        out = np.empty(len(x))
        for j in np.unique(k):
            out[k == j] = funcs[j](x[k == j])
        return out

    alone = []  # a loop over the members, stopping where integrate_intervals does
    for f, member in zip(funcs, members):
        try:
            alone.append(integrate_interval(f, tol=1e-10, **member))
        except DomainError as exc:
            alone.append(exc)
            break
        if alone[-1].divergent:
            break
    together = integrate_intervals(family, members, tol=1e-10)
    assert [_outcome(r) for r in together] == [_outcome(r) for r in alone]
    if budget is None:
        assert widest[0] >= 2  # members shared integrand calls

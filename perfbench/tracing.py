"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public hardylab functions in place: the defining module's
attribute, every other hardylab module that imported the same object (for
example ``hardylab.constants.classify``), or the class attribute for a
method.  Each wrapped call is a span; it adds one call and its self time
(its duration minus the time its child spans cover) to its function's
totals, so nothing per span is kept.

Counters are taken at the same boundaries: integrand points are counted only
in ``integrate_unit_cube`` (``integrate_interval`` and
``integrate_positive_orthant`` call it, so counting there too would count
points twice).
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute; "Class.method" for methods)
TARGETS = (
    ("expr.classify", "hardylab.expr", "classify"),
    ("expr.evaluate", "hardylab.expr", "evaluate"),
    ("expr.parse", "hardylab.expr", "parse"),
    ("quad.integrate_unit_cube", "hardylab.quad", "integrate_unit_cube"),
    ("quad.integrate_interval", "hardylab.quad", "integrate_interval"),
    ("operators.apply", "hardylab.operators", "apply"),
    ("constants.compute_constant", "hardylab.constants", "compute_constant"),
    ("spaces.lp_norm", "hardylab.spaces", "lp_norm"),
    ("spaces.central_morrey_norm", "hardylab.spaces", "central_morrey_norm"),
    ("spaces.cmo_norm", "hardylab.spaces", "cmo_norm"),
    ("harness.operator_radial_lp_norm", "hardylab.harness", "operator_radial_lp_norm"),
    ("harness.sharpness_sweep", "hardylab.harness", "sharpness_sweep"),
    ("harness.upper_bound_fuzz", "hardylab.harness", "upper_bound_fuzz"),
    ("harness.morrey_extremal_check", "hardylab.harness", "morrey_extremal_check"),
    ("harness.commutator_witness_check", "hardylab.harness", "commutator_witness_check"),
    ("kernels.validate", "hardylab.kernels", "KernelSpec.validate"),
    ("kernels.check_beta_condition", "hardylab.kernels", "check_beta_condition"),
    ("weights.sphere_integral", "hardylab.weights", "Weight.sphere_integral"),
    ("cli.load_scenario", "hardylab.cli", "load_scenario"),
    ("cli.write_report", "hardylab.cli", "write_report"),
)

# (metric name, unit) in the order the traced run reports them; counts and
# self times are per traced task
METRICS = (
    ("expr.classify.calls", "count/task"), ("expr.classify.self_s", "s/task"),
    ("expr.evaluate.calls", "count/task"), ("expr.evaluate.points", "count/task"),
    ("expr.evaluate.self_s", "s/task"), ("expr.parse.self_s", "s/task"),
    ("expr.domain_errors", "count/task"),
    ("quad.integrate_unit_cube.calls", "count/task"),
    ("quad.integrate_unit_cube.self_s", "s/task"),
    ("quad.integrate_interval.calls", "count/task"),
    ("quad.integrate_interval.self_s", "s/task"),
    ("quad.cells", "count/task"), ("quad.integrand_calls", "count/task"),
    ("quad.integrand_points", "count/task"), ("quad.points_per_s", "1/s"),
    ("quad.status.converged", "count/task"), ("quad.status.max-cells", "count/task"),
    ("quad.status.divergent", "count/task"), ("quad.wasted_point_share", "ratio"),
    ("operators.apply.calls", "count/task"), ("operators.apply.self_s", "s/task"),
    ("operators.apply.separable_share", "ratio"),
    ("constants.compute_constant.calls", "count/task"),
    ("constants.compute_constant.self_s", "s/task"),
    ("constants.closed_form_share", "ratio"),
    ("spaces.lp_norm.calls", "count/task"), ("spaces.lp_norm.self_s", "s/task"),
    ("spaces.central_morrey_norm.calls", "count/task"),
    ("spaces.central_morrey_norm.self_s", "s/task"),
    ("spaces.cmo_norm.calls", "count/task"), ("spaces.cmo_norm.self_s", "s/task"),
    ("spaces.closed_form_share", "ratio"),
    ("harness.operator_radial_lp_norm.calls", "count/task"),
    ("harness.operator_radial_lp_norm.self_s", "s/task"),
    ("harness.sharpness_sweep.self_s", "s/task"),
    ("harness.upper_bound_fuzz.self_s", "s/task"),
    ("harness.morrey_extremal_check.self_s", "s/task"),
    ("harness.commutator_witness_check.self_s", "s/task"),
    ("kernels.validate.calls", "count/task"), ("kernels.validate.self_s", "s/task"),
    ("kernels.check_beta_condition.self_s", "s/task"),
    ("weights.sphere_integral.calls", "count/task"),
    ("weights.sphere_integral.self_s", "s/task"),
    ("cli.load_scenario.calls", "count/task"), ("cli.load_scenario.self_s", "s/task"),
    ("cli.write_report.self_s", "s/task"), ("cli.report_bytes", "count/task"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Installs wrappers on the hardylab functions in TARGETS and collects
    per-function call counts, self time and counters.

    Calls run on one thread and every wrapper closes its span in a
    ``finally``, so spans nest strictly: a stack holds, for each open span,
    the time its direct children took, and a closing span's self time is
    its duration minus that.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._patches: list = []
        self._children: list = []
        self.stats: dict = defaultdict(lambda: [0, 0.0])
        self.counts: dict = defaultdict(float)
        self._cube_depth = 0
        self._cube_start = 0.0

    # -- spans ---------------------------------------------------------------

    def _close(self, name: str, start: float) -> None:
        duration = self.clock() - start
        entry = self.stats[name]
        entry[0] += 1
        entry[1] += duration - self._children.pop()
        if self._children:
            self._children[-1] += duration

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, label: str, fn):
        hook = getattr(self, "_hook_" + label.replace(".", "_"), None)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = tracer.clock()
            tracer._children.append(0.0)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, args, kwargs)
            finally:
                tracer._close(label, start)

        return wrapper

    def _hook_expr_evaluate(self, fn, args, kwargs):
        t = kwargs.get("t", args[1] if len(args) > 1 else None)
        r = kwargs.get("r", args[2] if len(args) > 2 else None)
        if t is not None and getattr(t, "ndim", 0) == 2:
            self.counts["expr.evaluate.points"] += t.shape[0]
        else:
            self.counts["expr.evaluate.points"] += max(1, int(getattr(r, "size", 1)))
        try:
            return fn(*args, **kwargs)
        except ValueError as exc:
            if type(exc).__name__ == "DomainError":
                self.counts["expr.domain_errors"] += 1
            raise

    def _hook_quad_integrate_unit_cube(self, fn, args, kwargs):
        own = [0, 0]  # integrand calls and points of this integration only
        if args:
            f, args = args[0], args[1:]
        else:
            f = kwargs.pop("f")

        def counted(pts):
            own[0] += 1
            own[1] += len(pts)
            return f(pts)

        outermost = self._cube_depth == 0
        if outermost:
            self._cube_start = self.clock()
        self._cube_depth += 1
        status = "raised"
        try:
            res = fn(counted, *args, **kwargs)
            status = res.status
            self.counts["quad.cells"] += res.cells_used
            return res
        finally:
            self._cube_depth -= 1
            if outermost:
                self.counts["quad.busy_s"] += self.clock() - self._cube_start
            self.counts["quad.integrand_calls"] += own[0]
            self.counts["quad.integrand_points"] += own[1]
            key = {"max-cells-reached": "max-cells"}.get(status, status)
            self.counts[f"quad.status.{key}"] += 1
            if status != "converged":
                self.counts["quad.wasted_points"] += own[1]

    def _hook_operators_apply(self, fn, args, kwargs):
        res = fn(*args, **kwargs)
        self.counts["operators.apply.results"] += 1
        self.counts["operators.apply.separable"] += res.cells_used == 0
        return res

    def _hook_constants_compute_constant(self, fn, args, kwargs):
        res = fn(*args, **kwargs)
        self.counts["constants.results"] += 1
        self.counts["constants.closed_form"] += res.method == "closed-form"
        return res

    def _spaces_hook(self, fn, args, kwargs):
        res = fn(*args, **kwargs)
        self.counts["spaces.results"] += 1
        self.counts["spaces.closed_form"] += res.method == "closed-form"
        return res

    _hook_spaces_lp_norm = _hook_spaces_central_morrey_norm = _hook_spaces_cmo_norm = _spaces_hook

    def _hook_cli_write_report(self, fn, args, kwargs):
        out = fn(*args, **kwargs)
        output = kwargs.get("output", args[1] if len(args) > 1 else None)
        if output is not None:
            self.counts["cli.report_bytes"] += os.path.getsize(output)
        return out

    # -- install -------------------------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place; the places are found on the first call."""
        if not self._patches:
            self._patches = self._find_patches()
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in reversed(self._patches):
            setattr(owner, name, original)

    def _find_patches(self) -> list:
        """(owner, attribute, original, wrapper) for every place a target is
        reachable: the class for a method, else every hardylab module that
        holds the function."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hardylab" or name.startswith("hardylab."))]
        patches = []
        for label, modname, attr in TARGETS:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                fn = cls.__dict__.get(meth) if cls is not None else None
                if fn is not None:
                    patches.append((cls, meth, fn, self._wrap(label, fn)))
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(label, fn)
            patches.extend((m, name, fn, wrapper) for m in modules
                           for name, value in list(vars(m).items()) if value is fn)
        return patches

    # -- report --------------------------------------------------------------

    def metrics(self, overhead_ratio: float, tasks: int) -> dict:
        """The per-layer metrics: counts and self times per traced task, so
        that they do not grow with how many tasks fit in the run; shares,
        rates and the overhead ratio as they are."""
        c = self.counts
        out = {}
        for label, _, _ in TARGETS:
            calls, self_s = self.stats.get(label, (0, 0.0))
            out[f"{label}.calls"] = calls / tasks
            out[f"{label}.self_s"] = self_s / tasks
        for key in ("expr.evaluate.points", "expr.domain_errors", "quad.cells",
                    "quad.integrand_calls", "quad.integrand_points",
                    "quad.status.converged", "quad.status.max-cells",
                    "quad.status.divergent", "cli.report_bytes"):
            out[key] = c[key] / tasks
        out["quad.points_per_s"] = _ratio(c["quad.integrand_points"], c["quad.busy_s"])
        out["quad.wasted_point_share"] = _ratio(c["quad.wasted_points"],
                                                c["quad.integrand_points"])
        out["operators.apply.separable_share"] = _ratio(c["operators.apply.separable"],
                                                        c["operators.apply.results"])
        out["constants.closed_form_share"] = _ratio(c["constants.closed_form"],
                                                    c["constants.results"])
        out["spaces.closed_form_share"] = _ratio(c["spaces.closed_form"], c["spaces.results"])
        out["trace.overhead_ratio"] = overhead_ratio
        return {name: {"value": out[name], "unit": unit} for name, unit in METRICS}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


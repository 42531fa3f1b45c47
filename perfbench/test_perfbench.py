"""Tests of the benchmark itself: generators, checker, span self time.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def outcome(task):
    try:
        return task.run()
    except Exception as exc:  # a raising task is an outcome to compare too
        return repr(exc)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload,count", [("fuzz", 3), ("cube", 4), ("edge", 6)])
def test_generator_is_deterministic_for_a_seed(workload, count, tmp_path):
    build = workloads.BUILDERS[workload]
    first, cycle = build(7, tmp_path)
    again, _ = build(7, tmp_path)
    other, _ = build(8, tmp_path)
    assert len(first) % cycle == 0
    assert [t.name for t in first] == [t.name for t in again]
    runs = [outcome(t) for t in first[:count]]
    assert runs == [outcome(t) for t in again[:count]]
    assert runs != [outcome(t) for t in other[:count]]


def test_suite_generator_writes_identical_files_for_a_seed(tmp_path):
    names = []
    contents = []
    for seed, where in ((7, "a"), (7, "b"), (8, "c")):
        tasks, cycle = workloads.build_suite(seed, tmp_path / where, passes=2)
        assert len(tasks) == 2 * cycle
        names.append([t.name for t in tasks])
        files = sorted((tmp_path / where / "scenarios").glob("*.json"))
        contents.append([f.read_bytes() for f in files])
    assert names[0] == names[1] and contents[0] == contents[1]
    assert contents[0] != contents[2]


def test_generated_tasks_pass_against_their_references(tmp_path):
    tasks, _ = workloads.build_suite(3, tmp_path, passes=1)
    gen = [t for t in tasks if t.family in ("suite.gen-eval", "suite.gen-norms")][:3]
    for task in gen:
        _, verdict = run.run_task(task)
        assert verdict.ok, verdict.failures
        assert verdict.digits and min(verdict.digits) > 8


# ---------------------------------------------------------------------------
# checker
# ---------------------------------------------------------------------------

def test_checker_accepts_a_value_within_its_error_bar():
    v = checks.Verdict()
    v.finite("x", 2.0 + 1e-9, 1e-8, False, 2.0, 1e-12)
    assert v.ok
    assert v.digits == [pytest.approx(-math.log10(5e-10))]


def test_checker_flags_a_perturbed_value():
    v = checks.Verdict()
    v.finite("x", 2.0 * (1 + 1e-3), 1e-8, False, 2.0, 1e-6)
    assert [k for k, _ in v.failures] == ["missed"]
    assert v.digits == [pytest.approx(3.0)]


@pytest.mark.parametrize("expect_divergent", [False, True])
def test_checker_flags_a_wrong_status(expect_divergent):
    v = checks.Verdict()
    if expect_divergent:
        v.divergent("x", False, 1.5)
    else:
        v.finite("x", float("inf"), float("inf"), True, 1.5, 1e-6)
    assert [k for k, _ in v.failures] == ["status"]
    assert v.digits == []


def test_checker_flags_a_violated_bound():
    v = checks.Verdict()
    v.bound("ratio", 1.0 + 1e-5, 1.0 + 1e-6)
    assert [k for k, _ in v.failures] == ["bound"]


def test_a_raised_exception_is_a_failed_task_not_an_abort():
    def boom():
        raise ZeroDivisionError("inside the library")

    task = workloads.Task("t", "edge.log-face", boom, lambda r: checks.Verdict())
    elapsed, verdict = run.run_task(task)
    assert elapsed >= 0.0
    assert [k for k, _ in verdict.failures] == ["raised:ZeroDivisionError"]
    assert checks.known_cause("edge.log-face", verdict) is None


def test_known_defects_match_family_and_kind_only():
    v = checks.Verdict()
    v.fail("missed", "low")
    assert checks.known_cause("edge.floor", v)
    assert checks.known_cause("cube.const-n2", v) is None
    v.fail("status", "wrong")
    assert checks.known_cause("edge.floor", v) is None


def test_tail_is_a_fixed_percentile_of_the_per_task_means():
    assert run.tail([float(i) for i in range(100, 0, -1)]) == (90.0, 10)
    ok, bad = checks.Verdict(), checks.Verdict()
    bad.fail("missed", "off")
    # task 0 ran three times, task 1 twice (failing once), task 2 once
    records = [(0, 0.001, ok), (1, 0.010, ok), (2, 0.004, ok),
               (0, 0.002, ok), (1, 0.030, bad), (0, 0.003, ok)]
    assert run.per_task_means_ms(records, 3) == pytest.approx([2.0, 20.0, 4.0])
    assert run.failing_tasks(records) == {1}


def test_each_task_is_divided_by_the_host_speed_around_it(monkeypatch):
    import hostspeed

    samples = iter([1.0, 2.0, 4.0])
    monkeypatch.setattr(hostspeed, "factor", lambda repeats=3: next(samples))
    monkeypatch.setattr(run, "SPEED_INTERVAL_S", 0.0)  # a sample before every task
    pool = [workloads.Task(name, "f", lambda: None, lambda r: checks.Verdict())
            for name in "ab"]
    # seconds=0: the loop stops once every task of the pool has run
    records, factors, _ = run.closed_loop(pool, 0.0)
    assert [r[0] for r in records] == [0, 1]
    assert factors == [1.5, 3.0]
    adjusted = run.adjusted([(0, 3.0, None), (1, 3.0, None)], factors)
    assert adjusted == [(0, 2.0, None), (1, 1.0, None)]


def test_host_factor_is_a_positive_time_ratio():
    import hostspeed

    assert hostspeed.kernel() == hostspeed.kernel()
    assert 0.0 < hostspeed.factor(1) < 100.0


# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------

def test_self_time_on_a_synthetic_nest():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 7.5, 9.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    leaf = tracer._wrap("leaf", lambda: None)
    a = tracer._wrap("a", lambda: leaf())
    b = tracer._wrap("b", lambda: None)

    def body():
        a()
        b()
        b()

    tracer._wrap("root", body)()
    # root [0, 10] holds a [1, 4] (with leaf [2, 3]), b [5, 7] and b [7.5, 9]
    assert tracer.stats["leaf"] == [1, pytest.approx(1.0)]
    assert tracer.stats["a"] == [1, pytest.approx(2.0)]
    assert tracer.stats["b"] == [2, pytest.approx(3.5)]
    assert tracer.stats["root"] == [1, pytest.approx(10.0 - 3.0 - 2.0 - 1.5)]


def test_tracer_wraps_every_alias_and_restores_them():
    import hardylab
    from hardylab import constants, expr, kernels

    original = expr.classify
    scenario = workloads.one_slot("t1^(0.25)")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert constants.classify is expr.classify is hardylab.classify
        assert constants.classify is not original
        hardylab.compute_constant("lebesgue", scenario)
    finally:
        tracer.uninstall()
    assert constants.classify is original and kernels.classify is original
    metrics = tracer.metrics(1.0, tasks=1)
    assert metrics["constants.compute_constant.calls"]["value"] == 1
    assert metrics["expr.classify.calls"]["value"] >= 1
    assert metrics["constants.closed_form_share"]["value"] == 1.0
    calls, self_s = tracer.stats["constants.compute_constant"]
    assert calls == 1 and self_s > 0.0

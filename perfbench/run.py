"""hardylab benchmark: one workload, one process, one thread, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 20 --trace 0

Workloads: fuzz, cube, edge, suite (see workloads.py and BENCHMARK.json).
A single caller runs tasks back to back: the next task starts when the
previous one returns.  Every input is drawn from --seed into a pool of at
least 100 distinct tasks, which the run repeats in order until --seconds
are up and every task has run at least once; every result is checked
against a reference.  With --trace 0 the run measures untraced and reports
the end-to-end metrics, with every time adjusted to a host of fixed speed
(hostspeed.py): the loop samples the host's speed with a fixed reference
kernel before a task whenever 0.1 s have passed since the last sample, and
each task's wall time is divided by the samples around it; set-up times
likewise.  The wall-clock figures are
printed alongside.  With --trace 1 it runs each task untraced and then
its twin (the same inputs, built a second time) with every public hardylab
layer wrapped, over whole passes of the pool, and reports the per-layer
metrics per task and the tracing overhead.

Human-readable lines go to stdout first; the last line is one JSON object
{"correct", "attempted", "failed", "metrics"}: attempted counts the pool's
distinct tasks, failed those of them that failed in any of their runs, so
both follow from the seed alone and not from how many runs fit.  The
library is imported from src/ of the checkout; without it the benchmark
exits with code 2.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("fuzz", "cube", "edge", "suite")
SETUP_SAMPLES = 7   # the worker's own set-up plus six fresh processes
SPEED_INTERVAL_S = 0.1  # least gap between two host-speed samples of the loop
# task_ms_tail is this percentile of the pool's per-task mean times.  The
# pool is fixed by the seed, so the percentile falls in the same task kind
# at any speed; with at least 100 tasks in a pool, 10 or more lie beyond it.
TAIL_PERCENTILE = 90
TAIL_BEYOND = 10    # fewest tasks beyond the tail for it to count as measured
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def build(workload: str, seed: int, workdir: Path):
    """Import hardylab and the generators, then build the inputs.  Returns
    (task pool, tasks per cycle, seconds taken): the set-up a user pays."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    tasks, cycle = workloads.BUILDERS[workload](seed, workdir)
    return tasks, cycle, time.perf_counter() - t0


def setup_in_fresh_process(args):
    """(seconds, host factor) of one set-up in a new process."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    seconds, factor = out.stdout.split()[-2:]
    return float(seconds), float(factor)


def run_task(task):
    """(seconds, verdict) for one task; an exception is a failed task."""
    t0 = time.perf_counter()
    try:
        result = task.run()
    except Exception as exc:  # the loop must survive any library failure
        elapsed = time.perf_counter() - t0
        verdict = checks.raised(exc)
    else:
        elapsed = time.perf_counter() - t0
        try:
            verdict = task.check(result)
        except Exception as exc:
            verdict = checks.Verdict()
            verdict.fail(f"check:{type(exc).__name__}", f"check failed: {exc!r}")
    return elapsed, verdict


def closed_loop(pool, seconds: float):
    """Run the pool's tasks in order, round and round, until the time is up
    and every task has run at least once, sampling the host's speed before
    a task whenever SPEED_INTERVAL_S has passed since the last sample, and
    once at the end.  Returns records (pool index, wall seconds, verdict),
    each record's host factor (the mean of the samples just before and just
    after its task), and the loop's wall time."""
    import hostspeed  # numpy is imported by now, after the thread pinning
    records, before, samples = [], [], []
    t0 = time.perf_counter()
    last = -math.inf
    i = 0
    while i < len(pool) or time.perf_counter() - t0 < seconds:
        if time.perf_counter() - last >= SPEED_INTERVAL_S:
            samples.append(hostspeed.factor())
            last = time.perf_counter()
        before.append(len(samples) - 1)
        elapsed, verdict = run_task(pool[i % len(pool)])
        records.append((i % len(pool), elapsed, verdict))
        i += 1
    loop_s = time.perf_counter() - t0
    samples.append(hostspeed.factor())
    factors = [0.5 * (samples[k] + samples[k + 1]) for k in before]
    return records, factors, loop_s


def traced_loop(pool, twins, seconds: float):
    """Whole passes of the pool until the time is up: each task runs
    untraced and then its twin runs traced, back to back, so that both
    sides of the overhead ratio meet the same state of the host, and
    neither meets state the other left on its input objects.  Returns the
    records of both runs, the tracer, the traced / untraced time and the
    number of passes."""
    from tracing import Tracer
    tracer = Tracer()
    records = []
    plain_s = traced_s = 0.0
    t0 = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - t0 < seconds:
        for i, (task, twin) in enumerate(zip(pool, twins)):
            elapsed, verdict = run_task(task)
            records.append((i, elapsed, verdict))
            plain_s += elapsed
            tracer.install()
            try:
                elapsed, verdict = run_task(twin)
            finally:
                tracer.uninstall()
            records.append((i, elapsed, verdict))
            traced_s += elapsed
        passes += 1
    return records, tracer, traced_s / plain_s, passes


def adjusted(records, factors):
    """The records with each wall time divided by its host factor."""
    return [(i, s / f, v) for (i, s, v), f in zip(records, factors)]


def per_task_means_ms(records, size: int):
    """Each pool task's mean time over its runs, in ms.  A task that
    ran four times in a run meets the host over four moments, so a swing of
    the host's speed moves the median of these means less than the median
    of single runs; every task counts once, so every run weighs the same
    mix of task kinds."""
    times = defaultdict(list)
    for i, elapsed, _ in records:
        times[i].append(elapsed)
    return [1000.0 * statistics.fmean(times[i]) for i in range(size)]


def tail(times_ms):
    """(value, tasks beyond it): the TAIL_PERCENTILE-th percentile by
    nearest rank."""
    ordered = sorted(times_ms)
    rank = max(1, math.ceil(TAIL_PERCENTILE / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def failing_tasks(records) -> set:
    """Pool indices of the tasks that failed in any of their runs."""
    return {i for i, _, verdict in records if not verdict.ok}


def summarize_failures(records, pool):
    """Lines naming every failing task with its cause, per family, and
    whether every failure is a known defect."""
    attempted = Counter(task.family for task in pool)
    failed: dict = {}
    for i, _, verdict in records:
        if not verdict.ok:
            failed.setdefault(pool[i].family, {}).setdefault(i, []).append(verdict)
    lines = []
    correct = True
    for family in sorted(failed):
        by_task = failed[family]
        lines.append(f"failed {family}: {len(by_task)} of {attempted[family]} tasks")
        for i, verdicts in by_task.items():
            cause = checks.known_cause(family, verdicts[0])
            correct &= all(checks.known_cause(family, v) for v in verdicts)
            msgs = "; ".join(m for _, m in verdicts[0].failures)
            lines.append(f"  {pool[i].name} x{len(verdicts)} "
                         f"[{'known: ' + cause if cause else 'UNEXPECTED'}] {msgs}")
    return lines, correct


def environment_line() -> str:
    import numpy
    import scipy
    return (f"environment: python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, {platform.machine()}, {os.cpu_count()} cpus")


def timings(means_ms):
    """(tasks_per_s, task_ms_p50, task_ms_tail, tasks beyond the tail):
    tasks_per_s is one pass of the pool at each task's mean time."""
    tail_ms, beyond = tail(means_ms)
    return (1000.0 * len(means_ms) / math.fsum(means_ms), statistics.median(means_ms),
            tail_ms, beyond)


def end_to_end(records, factors, loop_s, size, setups):
    """The end-to-end metrics from host-adjusted times, and report lines
    that also give the wall-clock figures.  setups holds (seconds, host
    factor) pairs."""
    per_s, p50_ms, tail_ms, beyond = timings(per_task_means_ms(adjusted(records, factors), size))
    wall = timings(per_task_means_ms(records, size))
    runs = Counter(i for i, _, _ in records)
    digits = [d for r in records for d in r[2].digits]
    failed = len(failing_tasks(records))
    fq = statistics.quantiles(factors, n=4) if len(factors) > 1 else factors * 3
    metrics = {
        "setup_s": (statistics.median(s / f for s, f in setups), "s"),
        "tasks_per_s": (per_s, "1/s"),
        "task_ms_p50": (p50_ms, "ms"),
        "task_ms_tail": (tail_ms, "ms"),
        "pass_ratio": (1.0 - failed / size, "ratio"),
        "digits_min": (min(digits) if digits else 0.0, "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    lines = [
        f"samples: {len(records)} runs of {size} distinct tasks in {loop_s:.3f} s, "
        f"{min(runs.values())} to {max(runs.values())} runs a task, {len(setups)} set-ups, "
        f"{len(digits)} exact references",
        f"fail_ratio {failed / size:.6f} ({failed} of {size} tasks failed in some run; "
        f"{sum(not r[2].ok for r in records)} of {len(records)} runs)",
        f"task_ms_p50 and task_ms_tail (p{TAIL_PERCENTILE}) over the {size} per-task means, "
        f"{beyond} beyond the tail"
        + ("" if beyond >= TAIL_BEYOND else f" (FEWER THAN {TAIL_BEYOND})"),
        f"host factor over the loop: median {statistics.median(factors):.3f}, "
        f"quartiles {fq[0]:.3f} and {fq[2]:.3f}; set-ups "
        + " ".join(f"{s:.3f}s/{f:.3f}" for s, f in setups),
        f"wall clock, unadjusted: tasks_per_s {wall[0]:.4f}, task_ms_p50 {wall[1]:.4f}, "
        f"task_ms_tail {wall[2]:.4f}, setup_s {statistics.median(s for s, _ in setups):.4f}",
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "hardylab" / "__init__.py").is_file():
        sys.stderr.write(f"hardylab sources not found under {SRC}\n")
        return 2
    # one BLAS / OpenMP thread, set before build() imports numpy; the set-up
    # processes inherit it
    os.environ.update({var: "1" for var in THREAD_VARS})

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        pool, cycle, setup_s = build(args.workload, args.seed, workdir)
        import hostspeed  # after build(), whose time covers importing numpy
        setup = (setup_s, hostspeed.factor(5))
        if args.setup_only:
            print(*map(repr, setup))
            return 0
        if args.trace:
            import workloads  # importable since build()
            twins, _ = workloads.BUILDERS[args.workload](args.seed, workdir)
        else:
            setups = [setup] + [setup_in_fresh_process(args)
                                for _ in range(SETUP_SAMPLES - 1)]
        # one task of each kind before timing, so that lazy imports
        # (scipy.stats on the first kernel validation) and first-call costs
        # are paid up front
        for task in {t.family: t for t in pool[:cycle]}.values():
            run_task(task)
        # the input pool stays alive all run; keep the collector off it
        gc.collect()
        gc.freeze()

        if args.trace:
            records, tracer, overhead, passes = traced_loop(pool, twins, args.seconds)
            metrics = tracer.metrics(overhead, passes * len(pool))
            lines = [f"traced {passes} passes of {len(pool)} tasks, each after its "
                     f"untraced twin; overhead ratio {overhead:.3f}"]
        else:
            records, factors, loop_s = closed_loop(pool, args.seconds)
            metrics, lines = end_to_end(records, factors, loop_s, len(pool), setups)

        fail_lines, correct = summarize_failures(records, pool)
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
        print(environment_line())
        for line in lines + fail_lines:
            print(line)
        print(json.dumps({"correct": correct, "attempted": len(pool),
                          "failed": len(failing_tasks(records)), "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())

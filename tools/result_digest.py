"""Digest the results of a checkout's seed-1 benchmark pools, to show that a
change left every result bit for bit as it was.

Run it once on each checkout and compare the printed lines:

    python3 tools/result_digest.py CHECKOUT [--ignore KEY ...]

It imports the library from CHECKOUT/src and the pool builders from
CHECKOUT/perfbench/workloads.py (perfbench itself is not changed), runs one
pass of each seed-1 pool (fuzz, cube, edge and suite) in one process with
one BLAS thread, and prints a sha256 per pool, then one for
`hardylab suite --no-timestamp` on the bundled scenarios.

- A task's result is hashed by its repr, and an exception by its type and
  message.
- A report the CLI wrote is hashed by its bytes without the
  `scenario_file` entry, which names where the file was, and without each
  --ignore key, at any depth: a field a change adds or removes on purpose.
  The report is parsed and written again as the CLI writes it (sorted keys,
  indent 2); a report that does not come back byte for byte is an error,
  so the round trip hides nothing but the dropped keys.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
POOLS = ("fuzz", "cube", "edge", "suite")


def _without(doc, keys):
    if isinstance(doc, dict):
        return {k: _without(v, keys) for k, v in doc.items() if k not in keys}
    if isinstance(doc, list):
        return [_without(v, keys) for v in doc]
    return doc


def _dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def report_bytes(path: Path, ignore) -> bytes:
    """The report at path without scenario_file and the ignored keys."""
    text = path.read_text()
    doc = json.loads(text)
    if _dump(doc) != text:
        raise ValueError(f"{path} is not written as the CLI writes reports")
    doc.pop("scenario_file", None)
    return _dump(_without(doc, set(ignore))).encode()


def outcome(task) -> str:
    try:
        return repr(task.run())
    except Exception as exc:  # a known defect's outcome is a result too
        return f"raised {type(exc).__name__}: {exc}"


def pool_digest(workloads, name: str, workdir: Path, ignore) -> tuple[int, str]:
    tasks, _ = workloads.BUILDERS[name](1, workdir)
    h = hashlib.sha256()
    for task in tasks:
        h.update(f"{task.name}\0{outcome(task)}\0".encode())
    for path in sorted(workdir.glob("reports/*.json")):  # the suite's reports
        h.update(path.name.encode() + b"\0" + report_bytes(path, ignore))
    return len(tasks), h.hexdigest()


def bundled_suite_digest(cli, outdir: Path, ignore) -> tuple[int, str]:
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["suite", "-o", str(outdir), "--no-timestamp"])
    h = hashlib.sha256(f"exit {code}\0".encode())
    files = sorted(outdir.glob("*.json"))
    for path in files:
        h.update(path.name.encode() + b"\0" + report_bytes(path, ignore))
    return len(files), h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", type=Path)
    ap.add_argument("--ignore", action="append", default=[], metavar="KEY",
                    help="a report key to drop wherever it occurs (repeatable)")
    args = ap.parse_args(argv)
    root = args.checkout.resolve()
    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from hardylab import cli

    with tempfile.TemporaryDirectory() as tmp:
        for name in POOLS:
            count, digest = pool_digest(workloads, name, Path(tmp) / name, args.ignore)
            print(f"{name:<14} {count:>4}  {digest}")
        count, digest = bundled_suite_digest(cli, Path(tmp) / "bundled", args.ignore)
        print(f"{'bundled-suite':<14} {count:>4}  {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

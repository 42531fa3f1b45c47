"""List the statements of a checkout's src/hardylab that no run reaches.

    python3 tools/line_coverage.py [CHECKOUT]

A sys.settrace line tracer, limited to CHECKOUT/src/hardylab, records every
line that runs in one process during three runs, those of
tools/result_digest.py plus the tests:

- tier-1, pytest on CHECKOUT/tests;
- one pass of each seed-1 benchmark pool (fuzz, cube, edge and suite);
- `hardylab suite --no-timestamp` on the bundled scenarios.

A statement is an ast.stmt other than a def, a class, an import, a
global/nonlocal declaration or a docstring.  It is reached when a line of
its header ran: the whole statement for a simple one, the lines before its
body for a compound one.  Prints, per module, the line numbers of the
statements nothing reached, then the count over all modules.  The coverage
package is not needed.
"""

import argparse
import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

SKIP = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
        ast.ImportFrom, ast.Global, ast.Nonlocal)


def statements(path: Path) -> list[tuple[int, int]]:
    """The (first, last) header lines of each counted statement of a module."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIP):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        body = [n for n in ast.iter_child_nodes(node) if isinstance(n, ast.stmt)]
        last = body[0].lineno - 1 if body else node.end_lineno
        out.append((node.lineno, max(last, node.lineno)))
    return sorted(out)


def traced_runs(root: Path) -> dict[str, set[int]]:
    """The lines of each file under root/src/hardylab that ran in the runs."""
    package = str(root / "src" / "hardylab") + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, _arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, _event, _arg):
        name = frame.f_code.co_filename
        if not name.startswith(package):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path[:0] = [str(root / "tools")]
    import result_digest  # its pools and suite runs, with one BLAS thread

    os.environ.update({var: "1" for var in result_digest.THREAD_VARS})
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    os.chdir(root)
    import pytest

    sys.settrace(hook)
    try:
        with contextlib.redirect_stdout(sys.stderr):  # stdout is for the listing
            code = pytest.main(["-q", "-p", "no:cacheprovider",
                                "--continue-on-collection-errors", "tests"])
        print(f"tier-1 exit code {int(code)}", file=sys.stderr)
        import workloads
        from hardylab import cli

        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            for name in result_digest.POOLS:
                result_digest.pool_digest(workloads, name, Path(tmp) / name, [])
            result_digest.bundled_suite_digest(cli, Path(tmp) / "bundled", [])
    finally:
        sys.settrace(None)
    return ran


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", type=Path, nargs="?", default=Path(__file__).parents[1])
    root = ap.parse_args(argv).checkout.resolve()
    ran = traced_runs(root)
    total = missed = 0
    for path in sorted((root / "src" / "hardylab").glob("*.py")):
        lines = ran.get(str(path), set())
        stmts = statements(path)
        unreached = [a for a, b in stmts if not lines.intersection(range(a, b + 1))]
        total += len(stmts)
        missed += len(unreached)
        print(f"{path.name}: {len(unreached)} of {len(stmts)} unreached"
              + (f": {', '.join(map(str, unreached))}" if unreached else ""))
    print(f"total: {missed} of {total} statements unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())

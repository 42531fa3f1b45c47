"""List the statements of a checkout's src/hardylab that no run reaches, and
the conditions whose outcome no run changes.

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
body for a compound one.

A condition is the test of an if or elif, of a conditional expression or
of a comprehension filter, or an operand of an and/or.  The modules are
imported from a rewritten syntax tree in which each condition passes
through a recorder that notes its truth and returns it unchanged; the tree
is compiled, not unparsed, so the line numbers the tracer sees are the
source's.  The truth of an operand that bool() refuses (an array, say) is
not noted, so such a condition reads as never evaluated.

Prints, per module, the line numbers of the statements nothing reached,
then the line:column and kind of each condition that was only ever true,
only ever false, or never evaluated; then the counts over all modules.
The coverage package is not needed.
"""

import argparse
import ast
import contextlib
import importlib.machinery
import io
import os
import sys
import tempfile
from pathlib import Path

SKIP = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
        ast.ImportFrom, ast.Global, ast.Nonlocal)
RECORDER = "__condition__"  # the recorder's name in each rewritten module


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


class Conditions(ast.NodeTransformer):
    """Rewrite each condition c of a module as RECORDER(site, c), and list
    the sites as (file, line, column, kind), kind one of if, ifexp, filter,
    and, or."""

    def __init__(self, path: str, sites: list):
        self.path = path
        self.sites = sites

    def wrap(self, node, kind):  # node's own conditions are rewritten already
        self.sites.append((self.path, node.lineno, node.col_offset, kind))
        call = ast.Call(ast.Name(RECORDER, ast.Load()),
                        [ast.Constant(len(self.sites) - 1), node], [])
        return ast.copy_location(call, node)

    def visit_If(self, node):
        self.generic_visit(node)
        node.test = self.wrap(node.test, "if")
        return node

    def visit_IfExp(self, node):
        self.generic_visit(node)
        node.test = self.wrap(node.test, "ifexp")
        return node

    def visit_comprehension(self, node):
        self.generic_visit(node)
        node.ifs = [self.wrap(c, "filter") for c in node.ifs]
        return node

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        kind = "and" if isinstance(node.op, ast.And) else "or"
        node.values = [self.wrap(v, kind) for v in node.values]
        return node


class RecordingLoader(importlib.machinery.SourceFileLoader):
    """Load a module from its source with every condition recorded."""

    sites: list = []  # (file, line, column, kind) per site
    outcomes: list = []  # the truths seen at each site

    def get_code(self, fullname):  # never the cached bytecode
        path = self.get_filename(fullname)
        return self.source_to_code(self.get_data(path), path)

    def source_to_code(self, data, path, *, _optimize=-1):
        tree = Conditions(path, self.sites).visit(ast.parse(data, path))
        self.outcomes.extend(set() for _ in range(len(self.sites) - len(self.outcomes)))
        return compile(ast.fix_missing_locations(tree), path, "exec", dont_inherit=True)

    def exec_module(self, module):
        module.__dict__[RECORDER] = record
        super().exec_module(module)


def record(site: int, value):
    """value, once its truth is noted for the site."""
    try:
        RecordingLoader.outcomes[site].add(bool(value))
    except Exception:  # no truth to note; a test that needs one raises anyway
        pass
    return value


class RecordingFinder:
    """Import the modules under package with a RecordingLoader."""

    def __init__(self, package: str):
        self.package = package

    def find_spec(self, fullname, path, target=None):
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is not None and (spec.origin or "").startswith(self.package):
            spec.loader = RecordingLoader(fullname, spec.origin)
        return spec


def traced_runs(root: Path) -> dict[str, set[int]]:
    """The lines of each file under root/src/hardylab that ran in the runs;
    the conditions' truths go to RecordingLoader.outcomes."""
    package = str(root / "src" / "hardylab") + os.sep
    ran: dict[str, set[int]] = {}
    sys.meta_path.insert(0, RecordingFinder(package))

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
    kinds = {"only true": {True}, "only false": {False}, "never evaluated": set()}
    one_sided = dict.fromkeys(kinds, 0)
    for path in sorted((root / "src" / "hardylab").glob("*.py")):
        lines = ran.get(str(path), set())
        stmts = statements(path)
        unreached = [a for a, b in stmts if not lines.intersection(range(a, b + 1))]
        total += len(stmts)
        missed += len(unreached)
        print(f"{path.name}: {len(unreached)} of {len(stmts)} unreached"
              + (f": {', '.join(map(str, unreached))}" if unreached else ""))
        sites = sorted(((site, seen) for site, seen in zip(RecordingLoader.sites,
                                                           RecordingLoader.outcomes)
                        if site[0] == str(path)), key=lambda pair: pair[0])
        for kind, outcome in kinds.items():
            found = [f"{line}:{col} {what}" for (_, line, col, what), seen in sites
                     if seen == outcome]
            one_sided[kind] += len(found)
            if found:
                print(f"  {kind}: {len(found)} of {len(sites)} conditions: {', '.join(found)}")
    print(f"total: {missed} of {total} statements unreached")
    print(f"total: {len(RecordingLoader.sites)} conditions, "
          + ", ".join(f"{count} {kind}" for kind, count in one_sided.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

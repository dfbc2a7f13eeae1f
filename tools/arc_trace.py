"""List every ``if`` in ``src/matent`` that only ever took one side.

Runs the test suite (``tests/``) and one pass of every benchmark op (through
``bench/worker.py``, which is imported and not changed, at workload seed 1)
in this process under ``sys.settrace``. The tracer records each jump from one
line to the next inside ``src/matent``. An ``if`` took its true side when its
test line jumped into its body, and its false side when the test jumped
anywhere else (its ``elif`` or ``else``, the next statement, or out of the
function). The report names each ``if`` with one side never taken, except:
- a side that raises, which is an error path;
- a module's ``__main__`` guard, which only a child process takes.

Work in child processes (subprocess tests, the CLI's process pool) is not
traced. ``tests/test_imports.py::test_quadrature_memory_is_linear_in_nodes``
is deselected, because the tracer's own allocations fail it. Run from
anywhere:

    python3 tools/arc_trace.py

Tracing makes the suite take 1.5 to 2 times as long. The exit status is 1
when a test or a benchmark op failed, since the trace then misses the code
that run stopped short of.
"""

from __future__ import annotations

import ast
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "matent"
MEMORY_TEST = "tests/test_imports.py::test_quadrature_memory_is_linear_in_nodes"
EXIT = -1  # the line a frame "jumps to" when it returns
NESTED = ("<genexpr>", "<listcomp>", "<dictcomp>", "<setcomp>", "<lambda>")


class ArcTracer:
    """Line-to-line jumps, per file, of every frame whose code is in ``PKG``."""

    def __init__(self) -> None:
        self.prefix = str(PKG) + "/"
        self.arcs = defaultdict(set)

    def _call(self, frame, event, arg):
        code = frame.f_code
        # a comprehension or lambda on an if's test line is a frame of its own,
        # whose return would read as the if's false side
        if not code.co_filename.startswith(self.prefix) or code.co_name in NESTED:
            return None
        add = self.arcs[code.co_filename].add
        last = None

        def local(frame, event, arg):
            nonlocal last
            if event == "line":
                if last is not None:
                    add((last, frame.f_lineno))
                last = frame.f_lineno
            elif event == "return":
                if last is not None:
                    add((last, EXIT))
                last = None
            elif event == "exception":
                last = None  # a raise inside the test is neither side
            return local

        return local

    def __enter__(self) -> "ArcTracer":
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)
        threading.settrace(None)


def _raises(block) -> bool:
    return any(isinstance(stmt, ast.Raise) for stmt in block)


def _main_guard(node: ast.If) -> bool:
    t = node.test
    return (isinstance(t, ast.Compare) and isinstance(t.left, ast.Name)
            and t.left.id == "__name__")


def _ifs(tree):
    """Each ``if`` statement with the statement after it in its block (or None)."""
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            for stmt, after in zip(block, block[1:] + [None]):
                if isinstance(stmt, ast.If):
                    yield stmt, after


def one_sided(path: Path, arcs) -> list:
    """(line, source, side never taken) of each ``if`` in ``path`` that ran
    with only one side, error paths and ``__main__`` guards left out. A false
    side without ``else`` raises when the statement after the ``if`` does."""
    source = path.read_text()
    lines = source.splitlines()
    out = []
    for node, after in _ifs(ast.parse(source)):
        if _main_guard(node):
            continue
        test = range(node.lineno, node.test.end_lineno + 1)
        body = range(node.body[0].lineno, node.body[-1].end_lineno + 1)
        exits = {b for a, b in arcs if a in test and b not in test}
        if not exits or body.start in test:  # never ran, or a one-line if
            continue
        took_true = any(b in body for b in exits)
        took_false = any(b not in body for b in exits)
        false_side = node.orelse or ([after] if after else [])
        if took_true and not took_false and not _raises(false_side):
            out.append((node.lineno, lines[node.lineno - 1].strip(), "false"))
        elif took_false and not took_true and not _raises(node.body):
            out.append((node.lineno, lines[node.lineno - 1].strip(), "true"))
    return sorted(out)


def _bench_pass() -> int:
    """One pass of every benchmark op at workload seed 1, as the worker runs
    it; the number of ops that failed."""
    sys.path.insert(0, str(ROOT / "bench"))
    import worker
    import workloads

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            out = Path(tmp) / name
            cli, cfgdir, cfgs = worker.setup(name, 1, out)
            report = worker.run_pass(cli, name, cfgdir, cfgs, out / "pass")
            for op in report["ops"]:
                print(f"bench {name}/{op['name']}: exit {op['exit']}, ok {op['ok']}")
                failed += not op["ok"]
    return failed


def main() -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    with ArcTracer() as tracer:
        code = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider",
                            "--deselect", MEMORY_TEST])
        failed_ops = _bench_pass()
    print(f"\npytest exit code {code}, {failed_ops} benchmark op(s) failed")
    found = 0
    for path in sorted(PKG.glob("*.py")):
        for line, text, side in one_sided(path, tracer.arcs.get(str(path), ())):
            found += 1
            print(f"{path.relative_to(ROOT)}:{line}: {text}  (the {side} side never ran)")
    print(f"{found} one-sided if statements outside error paths")
    return int(code != 0 or failed_ops > 0)


if __name__ == "__main__":
    sys.exit(main())

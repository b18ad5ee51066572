"""List the statements of `src/sct` that the tests never execute.

    python tools/untested_lines.py [pytest arguments]

Runs pytest on `tests/` in this process under a `sys.settrace` line
tracer that follows only frames of code in `src/sct`, then prints each
statement (as `ast` parses it; docstrings excluded) that never ran, one
per line as `path:line: source`.  Extra arguments go to pytest, e.g.
`-x` or `-k wick`.  Writes no file (no pytest cache, no bytecode) and
exits with pytest's status.  Uses only the standard library and pytest,
since no coverage package is needed; the whole suite takes ~25 s traced
on a 2-core machine.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sct"


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                ast.AsyncFunctionDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _statements(tree: ast.Module):
    """(first line, last line, node) of each statement but docstrings.  A
    compound statement spans its header only (decorators included); one
    whose header raises no line event of its own (`try`, say) counts as
    run when its first inner statement runs."""
    for parent in ast.walk(tree):
        for name in ("body", "orelse", "finalbody"):
            nodes = getattr(parent, name, None)
            for node in nodes if isinstance(nodes, list) else ():
                if _is_docstring(node, parent):
                    continue
                inner = getattr(node, "body", None)
                if isinstance(inner, list) and inner:
                    first = min([node.lineno] + [d.lineno for d in
                                                 getattr(node, "decorator_list", ())])
                    yield first, max(first, inner[0].lineno - 1), node
                else:
                    yield node.lineno, node.end_lineno, node


def _untested(path: Path, hit: set) -> list:
    source = path.read_text()
    lines = source.splitlines()
    missed = []
    for first, last, node in _statements(ast.parse(source)):
        span = set(range(first, last + 1))
        inner = getattr(node, "body", None)
        if isinstance(inner, list) and inner:
            span.add(inner[0].lineno)
        if not span & hit:
            missed.append((node.lineno, lines[node.lineno - 1].strip()))
    return sorted(set(missed))


def main(argv: list) -> int:
    prefix = str(PACKAGE) + "/"
    hits = {}  # file name -> set of line numbers that ran

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set())
        return local

    sys.dont_write_bytecode = True
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        hit = hits.get(str(path), set())
        for lineno, text in _untested(path, hit):
            print(f"{path.relative_to(ROOT)}:{lineno}: {text}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

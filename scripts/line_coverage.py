"""Line coverage of src/pintbasis under the Tier-1 suite, collected with
sys.settrace and threading.settrace (no coverage package is needed).

    python scripts/line_coverage.py

It runs the Tier-1 suite (tests/ and perfbench/tests) with pytest in this
process, with a line tracer on every frame of a module in src/pintbasis,
then prints pytest's outcome and, per module, the executable statements
that never ran, with the raise statements counted apart.  A statement ran
when a line event (or the call event of a def) fell on its header lines:
the whole of a simple statement, the lines before the body of a compound
one.  Docstrings and the bare `try:` line carry no code and are not
counted.  Code run in a subprocess is not traced.

Tracing makes the suite about 7x slower, so a test that bounds wall-clock
time can fail under it (test_round2_degree_19 bounds Round 2 at 0.2 s);
such a failure is the tracer's overhead, and the coverage is printed
either way.  Run the suite untraced to tell.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pintbasis"
sys.path.insert(0, str(ROOT / "src"))


def _statements(tree):
    """(header lines, is raise, first line) of every statement that carries
    code."""
    out = []
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody", "handlers"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            for stmt in block:
                if not isinstance(stmt, ast.stmt) or isinstance(stmt, ast.Try):
                    continue
                if (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
                        and isinstance(stmt.value.value, str)):
                    continue  # a docstring
                first = min([stmt.lineno] + [d.lineno for d in
                                             getattr(stmt, "decorator_list", ())])
                body = getattr(stmt, "body", None)
                last = body[0].lineno - 1 if body else stmt.end_lineno
                out.append((range(first, max(first, last) + 1), isinstance(stmt, ast.Raise),
                            first))
    return out


def main():
    import pytest

    ran = {}  # file name -> set of line numbers
    prefix = str(SRC)

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors",
                            str(ROOT / "tests"), str(ROOT / "perfbench" / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"\npytest exit status under tracing: {int(code)}"
          + ("" if code == 0 else
             " (a wall-clock bound that fails only under tracing is the tracer's overhead)"))
    total = never_total = raises_total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = ran.get(str(path), set())
        stmts = _statements(ast.parse(path.read_text(), filename=str(path)))
        never = sorted((first, is_raise) for span, is_raise, first in stmts
                       if not lines.intersection(span))
        raises = [first for first, is_raise in never if is_raise]
        other = [first for first, is_raise in never if not is_raise]
        total, never_total, raises_total = (total + len(stmts), never_total + len(never),
                                            raises_total + len(raises))
        print(f"{path.name}: {len(stmts) - len(never)} of {len(stmts)} statements ran; "
              f"never ran: {len(other)} other, {len(raises)} raise")
        if other:
            print(f"  other: {', '.join(map(str, other))}")
        if raises:
            print(f"  raise: {', '.join(map(str, raises))}")
    print(f"src/pintbasis: {total - never_total} of {total} statements ran; never ran: "
          f"{never_total - raises_total} other, {raises_total} raise")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())

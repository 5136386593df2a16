#!/usr/bin/env python3
"""List the statements of the library that a test run never executes.

    python scripts/reach.py                      # tier-1: pytest -q --continue-on-collection-errors
    python scripts/reach.py tests/test_convex.py -q

Runs pytest in this process under a sys.settrace line tracer that traces
only frames of src/geofrechet, then prints, per module, the statements
that never ran and the totals. A statement is an ast statement other
than a docstring or a global/nonlocal declaration; it ran when a line
event fell on one of its lines (for a compound statement, the lines of
its header up to the first line of its body). The library must not be
imported before the tracer starts, or its module-level lines are missed,
so this script imports nothing of it.

Tracing slows the run by a factor of about four, so the wall-clock gates
of the suite can fail under it; the exit code is pytest's."""
import ast
import glob
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIB = os.path.realpath(os.path.join(ROOT, "src", "geofrechet"))
TIER1 = ["-q", "--continue-on-collection-errors"]


def statements(path):
    """{first line: lines whose events count for it} for every statement
    of the module at path."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    out = {}

    def walk(body):
        for k, node in enumerate(body):
            if k == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str):
                continue  # docstring
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            inner = [getattr(node, f) for f in ("body", "orelse", "finalbody") if getattr(node, f, None)]
            inner += [h.body for h in getattr(node, "handlers", [])]
            inner += [c.body for c in getattr(node, "cases", [])]
            head_end = min(b[0].lineno for b in inner) - 1 if inner else node.end_lineno
            out[first] = range(first, max(head_end, node.lineno) + 1)
            for b in inner:
                walk(b)

    walk(tree.body)
    return out


def main(argv):
    import pytest

    hit = {}   # real path -> set of executed lines
    real = {}  # co_filename -> its real path if in the library, else None

    def local(frame, event, arg):
        if event == "line":
            hit[real[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in real:
            path = os.path.realpath(name)
            real[name] = path if os.path.dirname(path) == LIB else None
        if real[name] is None:
            return None
        hit.setdefault(real[name], set()).add(frame.f_lineno)
        return local

    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv or TIER1)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    print()
    for path in sorted(glob.glob(os.path.join(LIB, "*.py"))):
        lines = hit.get(path, set())
        stmts = sorted(statements(path).items())
        ran = [bool(lines.intersection(span)) for _, span in stmts]
        runs = []  # maximal runs of consecutive statements that never ran
        for k, (first, _) in enumerate(stmts):
            if ran[k]:
                continue
            if k and not ran[k - 1]:
                runs[-1][1] = first
            else:
                runs.append([first, first])
        never = ran.count(False)
        total += len(stmts)
        missed += never
        print(f"{os.path.relpath(path, ROOT)}: {never} of {len(stmts)} statements never ran")
        if runs:
            print("    " + ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs))
    print(f"total: {missed} of {total} statements never ran (pytest exit code {int(code)})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

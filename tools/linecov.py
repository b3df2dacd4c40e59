"""Line coverage of src/blockingsets under the tier-1 tests, standard
library only (no `coverage` package needed).

Run from anywhere; extra arguments go to pytest:

    python tools/linecov.py [pytest args ...]

The tests run in this process under a trace function (`sys.settrace` and
`threading.settrace`).  A module's executable lines are the line numbers
its code objects map instructions to (`co_lines`, recursively through
nested functions, classes and comprehensions); a line is reached when a
'call' or 'line' event fires on it.  For each module of src/blockingsets
the tool prints the executable and unreached line counts and the
unreached lines, then the totals, and exits with pytest's status.  Tracing
slows the tests down about threefold.
"""

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "blockingsets") + os.sep


def executable_lines(path: str) -> set:
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def spans(lines) -> str:
    """Sorted line numbers as comma-separated ranges: 3-5,9."""
    out, run = [], []
    for line in sorted(lines):
        if run and line == run[-1] + 1:
            run.append(line)
            continue
        if run:
            out.append(f"{run[0]}-{run[-1]}" if len(run) > 1 else f"{run[0]}")
        run = [line]
    if run:
        out.append(f"{run[0]}-{run[-1]}" if len(run) > 1 else f"{run[0]}")
    return ",".join(out)


def main(argv) -> int:
    reached = {}

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PKG):
            return None
        hits = reached.setdefault(path, set())
        hits.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local
        return local

    sys.path.insert(0, SRC)
    import pytest
    os.chdir(ROOT)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    print(f"{'module':<16}{'executable':>11}{'unreached':>10}  lines")
    for name in sorted(os.listdir(PKG)):
        if not name.endswith(".py"):
            continue
        path = PKG + name
        lines = executable_lines(path)
        unreached = lines - reached.get(path, set())
        total += len(lines)
        missed += len(unreached)
        print(f"{name:<16}{len(lines):>11}{len(unreached):>10}  "
              f"{spans(unreached)}")
    print(f"{'total':<16}{total:>11}{missed:>10}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

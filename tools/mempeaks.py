"""Time and memory of each harness check on one catalogue instance,
standard library and the package only.

    python tools/mempeaks.py cone_pg3_49

The instance is loaded from the shipped catalogue, then
`harness.run_instance` runs every check on it under `tracemalloc`.  One
row is printed per check, in run order, one per line or hyperplane scan
(`projspace._scan_lines`, `_scan_hyperplanes`), indented under the check
that ran it, and one per run of the scans' shared grouping tail
(`projspace._by_point_summary`, which calls the scan's row generator, so
most of a scan's time and memory shows in its row), indented under its
scan and named by the dimension and the regime it took, as in
`_by_point_summary dim 1 counted` (see `projspace._grouping_regime`).
One row, `point_sizes dim d`, is printed per
`TraceSummary.point_sizes` call that gathers a summary's size grid (the
one per-point array a summary keeps, read off its row source a block of
rows at a time), indented under the check that paid for it; a read of
a size grid already gathered adds no row.  A row gives
the seconds, the traced MB live before, the traced peak MB, the
traced MB live after, and the process's maxrss in MB when the row ends.
Traced sizes count only what is allocated after set-up, when tracing
starts; a row's peak includes those of the rows nested in it.  Tracing
slows the run down, so compare seconds between rows only.
"""

import os
import resource
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MB = 1 << 20


def maxrss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Spans:
    """Rows [depth, name, seconds, before, peak, after, maxrss] of wrapped
    calls, a parent's row before its children's.  `tracemalloc` keeps one
    peak, reset on entry to each call; the stack keeps the running peak of
    every open call, so that a parent's covers its children's."""

    def __init__(self):
        self.rows = []
        self.stack = []

    def wrap(self, name, fn):
        """fn, its calls recorded in rows named name, or, where name is a
        function, named by name(*args, **kwargs) as each call ends."""
        def run(*args, **kwargs):
            before, peak = tracemalloc.get_traced_memory()
            if self.stack:
                self.stack[-1] = max(self.stack[-1], peak)
            row = [len(self.stack), name]
            self.rows.append(row)
            self.stack.append(before)
            tracemalloc.reset_peak()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                after, peak = tracemalloc.get_traced_memory()
                peak = max(peak, self.stack.pop())
                if self.stack:
                    self.stack[-1] = max(self.stack[-1], peak)
                if callable(name):
                    row[1] = name(*args, **kwargs)
                row += [seconds, before, peak, after, maxrss_mb()]
        return run


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from blockingsets import catalogue, harness, projspace
    from blockingsets.errors import NotFoundError
    try:
        inst, = catalogue.load_shipped(argv)
    except NotFoundError as exc:
        print(exc, file=sys.stderr)
        return 2
    spans = Spans()
    for check_id, run in list(harness._CHECKS.items()):
        harness._CHECKS[check_id] = spans.wrap(check_id, run)
    for name in ("_scan_lines", "_scan_hyperplanes"):
        setattr(projspace, name, spans.wrap(name, getattr(projspace, name)))
    # each run of the tail chooses its regime once
    chosen, choose = [], projspace._grouping_regime
    projspace._grouping_regime = \
        lambda *args: chosen.append(choose(*args)) or chosen[-1]
    projspace._by_point_summary = spans.wrap(
        lambda space, dim, *args: f"_by_point_summary dim {dim} "
        f"{chosen.pop()}", projspace._by_point_summary)
    point_sizes = projspace.TraceSummary.point_sizes

    def read_grid(summary):
        if summary._point_sizes is not None:
            return point_sizes(summary)
        return spans.wrap(f"point_sizes dim {summary.dim}",
                          point_sizes)(summary)
    projspace.TraceSummary.point_sizes = read_grid
    print(f"{inst.name}: maxrss {maxrss_mb():.1f} MB after set-up")
    tracemalloc.start()
    try:
        harness.run_instance(inst)
    finally:
        tracemalloc.stop()
    print(f"{'span':<38}{'s':>8}{'live_before':>13}{'peak':>9}"
          f"{'live_after':>12}{'maxrss':>9}")
    for depth, name, seconds, before, peak, after, rss in spans.rows:
        print(f"{'  ' * depth + name:<38}{seconds:>8.3f}"
              f"{before / MB:>13.1f}{peak / MB:>9.1f}{after / MB:>12.1f}"
              f"{rss:>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

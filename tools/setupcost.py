"""Where the set-up of a fresh process goes, standard library only.

    python tools/setupcost.py [--root DIR] [FILE.pts ...]

Four stages are timed, each in its own fresh process, which first does
the stages before it untimed:

    interpreter + numpy    from just before the spawn to `import numpy`
    import blockingsets    the package import
    load_shipped()         `catalogue.load_shipped()`
    read_pointset          `formats.read_pointset` on each FILE (skipped
                           when no FILE is given)

The package is copied from DIR/src (the checkout holding this script by
default) into a temporary directory, without bytecode, and every process
runs with PYTHONDONTWRITEBYTECODE=1, so each one compiles the package
afresh, as on a fresh checkout.  Each stage runs REPEAT (5) times; a
row gives the median and smallest seconds, and whether `numpy.ma` was
loaded by the end of the stage.
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEAT = 5
STAGES = ("interpreter + numpy", "import blockingsets", "load_shipped()",
          "read_pointset")

# argv: stage index, spawn time, files; prints seconds and numpy.ma state
CHILD = """
import sys, time
stage, spawned, files = int(sys.argv[1]), float(sys.argv[2]), sys.argv[3:]
import numpy
start = spawned if stage == 0 else time.monotonic()
if stage >= 1:
    from blockingsets import catalogue, formats
if stage >= 2:
    start = time.monotonic()
if stage == 2:
    catalogue.load_shipped()
if stage == 3:
    for path in files:
        formats.read_pointset(path)
print(time.monotonic() - start, "numpy.ma" in sys.modules)
"""


def run_stage(stage, files, env):
    spawned = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(stage), repr(spawned), *files],
        env=env, capture_output=True, text=True, check=True)
    seconds, loaded = out.stdout.split()
    return float(seconds), loaded == "True"


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=ROOT)
    ap.add_argument("files", nargs="*")
    args = ap.parse_args(argv)
    src = os.path.join(args.root, "src", "blockingsets")
    if not os.path.isdir(src):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    files = [os.path.abspath(f) for f in args.files]
    stages = range(len(STAGES) if files else len(STAGES) - 1)
    with tempfile.TemporaryDirectory(prefix="setupcost-") as tmp:
        shutil.copytree(src, os.path.join(tmp, "blockingsets"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=tmp, PYTHONDONTWRITEBYTECODE="1")
        print(f"{'stage':<24}{'median_s':>10}{'min_s':>10}  numpy.ma")
        for stage in stages:
            runs = [run_stage(stage, files, env) for _ in range(REPEAT)]
            seconds = [s for s, _ in runs]
            loaded = "loaded" if any(m for _, m in runs) else "-"
            print(f"{STAGES[stage]:<24}{statistics.median(seconds):>10.4f}"
                  f"{min(seconds):>10.4f}  {loaded}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

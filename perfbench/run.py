"""Benchmark of the blockingsets package: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round of the workload is a fresh
Python process (perfbench/worker.py), as every `blockingsets harness`
invocation is, so no lazy cache is warm.  Rounds repeat with the same
seeded inputs until S seconds have passed; a round that has started is
always finished.  Set-up is sampled at least three times: when fewer full
rounds fit, extra processes run the set-up alone.  The last line printed
is one JSON object with the medians over rounds: the end-to-end metrics
with --trace 0, the per-layer metrics (see tracing.py) with --trace 1.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("catalogue-fast", "cone49-full", "witness-roundtrip",
             "random-spectra")
SETUP_SAMPLES = 3
DEADLINE_S = 170        # every run must end within 180 s


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def round_once(args, outdir, budget, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
           str(args.seed), str(args.trace), repr(time.monotonic()), outdir]
    if setup_only:
        cmd.append("setup")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=budget, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "blockingsets")):
        sys.exit("run from a checkout that holds src/blockingsets")
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    inputs_dir = None
    if args.workload == "random-spectra":
        import worker
        inputs_dir = worker.write_spectra_inputs(args.seed, outdir)
    start = time.monotonic()
    rounds, longest = [], 0.0
    try:
        while True:
            began = time.monotonic()
            rounds.append(round_once(args, outdir,
                                     DEADLINE_S - (began - start)))
            longest = max(longest, time.monotonic() - began)
            now = time.monotonic() - start
            if now >= args.seconds or now + longest > DEADLINE_S:
                break
        setups = [r["setup_s"] for r in rounds]
        while len(setups) < SETUP_SAMPLES and \
                time.monotonic() - start + 2 * max(setups) < DEADLINE_S:
            setups.append(round_once(
                args, outdir, DEADLINE_S - (time.monotonic() - start),
                setup_only=True)["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.exit(f"{args.workload}: {exc}")
    finally:
        if inputs_dir is not None:
            shutil.rmtree(inputs_dir, ignore_errors=True)
    failures = [f for r in rounds for f in r["failures"]]
    errors = [e for r in rounds for e in r["errors"]]
    for line in (failures + errors)[:20]:
        print(line, file=sys.stderr)
    if args.trace:
        metrics = {}
        for name in rounds[0]["per_layer"]:
            timed = name.endswith("_s")
            median = statistics.median if timed else statistics.median_low
            metrics[name] = {
                "value": median(r["per_layer"][name] for r in rounds),
                "unit": "s" if timed else "count"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(r["run_s"] for r in rounds),
                      "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
    print(f"{args.workload}: {len(rounds)} rounds, {len(setups)} set-ups",
          file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])

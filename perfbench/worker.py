"""One round of one workload, in a fresh Python process.

    python3 perfbench/worker.py WORKLOAD SEED TRACE SPAWNED OUTDIR [setup]

SPAWNED is the time.monotonic() reading taken by the parent just before
starting this process, so setup_s counts interpreter start-up, the
package import and loading the inputs.  With a trailing `setup` the round
stops once its inputs are ready.  The last line on stdout is one JSON
object: setup_s, run_s, peak_rss_mb, attempted, failed, failures (the
first few failure messages), errors (checks that are not about one
operation) and, when traced, per_layer.
"""

import json
import os
import resource
import shutil
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

import checks  # noqa: E402
import gf  # noqa: E402

# -- harness workloads ------------------------------------------------------


def setup_harness(workload, seed, outdir):
    from blockingsets import catalogue
    if workload == "cone49-full":
        return catalogue.load_shipped(["cone_pg3_49"])
    return catalogue.load_shipped()


def run_harness(workload, instances, outdir):
    from blockingsets import harness
    slow = workload == "cone49-full"
    try:
        results, skipped = harness.run_suite(
            instances, include_slow=slow, threads=os.cpu_count())
        return harness.scorecard(results, skipped), None
    except Exception as exc:      # every (instance, check) pair then fails
        return None, f"{type(exc).__name__}: {exc}"


def check_harness(workload, seed, instances, outcome):
    import blockingsets as bs
    card, error = outcome
    names = ["cone_pg3_49"] if workload == "cone49-full" else \
        list(checks.FAST)
    skipped = [] if workload == "cone49-full" else ["cone_pg3_49"]
    if card is None:
        return {(n, c): [error] for n in names for c in checks.CHECK_IDS}
    by_name = {inst.name: inst for inst in instances}
    spectra, brute = {}, {}
    gf9 = gf.Field(3, 2)
    for name in names:
        pts = by_name[name].points
        spectra[name] = {}
        for dim in sorted({1, pts.space.n - 1}):
            spectra[name][dim] = dict(bs.spectrum(pts, dim).x)
        if name in ("baer_pg2_9", "cone_pg3_9"):
            brute[name] = gf.BruteTraces(gf9, pts.space.n, pts.ranks)
    return checks.check_scorecard(card, names, skipped, spectra, brute)


# -- witness round trip ------------------------------------------------------

ROUNDTRIP = ("baer_pg2_9", "cone_pg3_49", "cone_pg3_9", "rank4_pg2_27",
             "subgeom_pg2_49", "subplane_pg3_49")


def swapped_baer():
    """Ranks of the Baer subplane PG(2,3) of PG(2,9) with the point
    (0,0,1) swapped for (0,1,x) on the secant x_0 = 0 through it."""
    gf9 = gf.Field(3, 2)
    baer = gf.ranks(gf.all_points(2, 3), 9)
    swapped = sorted(set(baer.tolist()) - {0}
                     | {int(gf.ranks(np.array([[0, 1, 3]]), 9)[0])})
    return gf9, baer, swapped


def setup_roundtrip(workload, seed, outdir):
    from blockingsets import PointSet, formats
    _, _, swapped = swapped_baer()
    return {"swapped": PointSet(formats.space_for(3, 2, 2), swapped)}


def run_roundtrip(workload, inputs, outdir):
    from blockingsets import catalogue, formats, is_linear, reconstruct
    work = tempfile.mkdtemp(prefix="roundtrip-", dir=outdir)
    outputs = {}

    def op(key, fn):
        try:
            outputs[key] = (fn(), None)
        except Exception as exc:
            outputs[key] = (None, f"{type(exc).__name__}: {exc}")
        return outputs[key][0]

    try:
        for name in ROUNDTRIP:
            inst = checks.INSTANCES[name]
            path = os.path.join(work, name + ".pts")
            w = op((name, "build"), lambda: catalogue.build_witness(name))
            op((name, "write"), lambda: formats.write_pointset(
                path, w.points, meta=catalogue.metadata(name, w)))
            got = op((name, "read"),
                     lambda: formats.read_pointset(path, with_meta=True))
            op((name, "witness"),
               lambda: formats.witness_from_dict(got[1]["witness"]))
            policy = "first" if name == "cone_pg3_49" else "all"
            op((name, "reconstruct"), lambda: reconstruct(
                got[0], inst.k, inst.p0, point_policy=policy))
        op(("swapped_baer", "is_linear"),
           lambda: is_linear(inputs["swapped"], 3))
        lines = {}
        for name in ROUNDTRIP:
            path = os.path.join(work, name + ".pts")
            if os.path.exists(path):
                with open(path, encoding="ascii") as fh:
                    lines[name] = sum(1 for _ in fh)
        return outputs, lines
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_roundtrip(workload, seed, inputs, outcome):
    outputs, lines = outcome
    fails = {key: [err] if err else [] for key, (_, err) in outputs.items()}
    gf9, baer, swapped = swapped_baer()
    fields = {(3, 2): gf9, (3, 3): gf.Field(3, 3), (7, 2): gf.Field(7, 2)}
    direct = {"baer_pg2_9": baer, "cone_pg3_9": _cone9()}
    for name in ROUNDTRIP:
        inst = checks.INSTANCES[name]
        big = fields[(inst.p, inst.t)]
        w = outputs[(name, "build")][0]
        if w is not None:
            fails[(name, "build")] += checks.check_witness(
                inst, w.rank, w.points.ranks, w.pi.rows, big,
                direct.get(name))
        got = outputs[(name, "read")][0]
        if got is not None and w is not None:
            fails[(name, "read")] += checks.check_reread(
                inst, w.points.ranks, got[0].ranks, lines.get(name))
        back = outputs[(name, "witness")][0]
        if back is not None:
            fails[(name, "witness")] += checks.check_witness(
                inst, back.rank, back.points.ranks, back.pi.rows, big,
                direct.get(name))
        res = outputs[(name, "reconstruct")][0]
        if res is not None:
            res = res if isinstance(res, list) else [res]
            count = None
            if name in direct:
                count = checks.admissible_points(
                    gf.BruteTraces(gf9, inst.n, direct[name]), inst.p0)
            elif name == "cone_pg3_49":
                count = 1
            elif name != "rank4_pg2_27":
                # every point of a subgeometry lies on p0+1 of its sublines
                count = inst.size
            fails[(name, "reconstruct")] += checks.check_reconstructions(
                inst, [(r.status, r.dim_W, r.W.rows if r.W else None)
                       for r in res],
                w.points.ranks if w is not None else [], big, count)
    found = outputs[("swapped_baer", "is_linear")][0]
    if found is not None:
        fails[("swapped_baer", "is_linear")] += checks.check_nonlinear(
            found[0] is not None, gf.BruteTraces(gf9, 2, swapped))
    return fails


def _cone9():
    """Vertex (0,0,0,1) joined to the Baer subplane of the plane x_3 = 0."""
    base = gf.all_points(2, 3)
    rows = [[0, 0, 0, 1]] + [list(b) + [d] for b in base for d in range(9)]
    return np.unique(gf.ranks(np.array(rows), 9))


# -- random spectra ----------------------------------------------------------

# (p, t, n, dims, largest subset size, antithetic pairs per round)
SPECTRA = (
    (5, 1, 4, (2,), None, 10),      # PG(4,5): planes, full incidence table
    (3, 2, 3, (1, 2), None, 10),    # PG(3,9): line and plane scans
    (7, 2, 2, (1,), None, 10),      # PG(2,49): line scans
    (3, 3, 3, (1, 2), 200, 4),      # PG(3,27): line and plane scans
)


def spectra_subsets(seed):
    """Seeded (p, t, n, dims, sorted ranks) subsets.  Sizes come in pairs
    s, top - s with s uniform on [0, top], so each size is uniform and a
    round's total work does not depend on the seed."""
    rng = np.random.default_rng(seed)
    for p, t, n, dims, top, pairs in SPECTRA:
        total = gf.theta(n, p ** t)
        top = total if top is None else top
        for _ in range(pairs):
            s = int(rng.integers(0, top + 1))
            for size in (s, top - s):
                yield p, t, n, dims, np.sort(
                    rng.choice(total, size=size, replace=False))


def spectra_dir(outdir, seed):
    return os.path.join(outdir, f"spectra-{seed}")


def write_spectra_inputs(seed, outdir):
    """The subsets as .pts files, coordinates from gf.py; written once per
    run, before its rounds."""
    directory = spectra_dir(outdir, seed)
    os.makedirs(directory, exist_ok=True)
    coords = {}
    for i, (p, t, n, _, ranks) in enumerate(spectra_subsets(seed)):
        if (n, p ** t) not in coords:
            coords[(n, p ** t)] = gf.all_points(n, p ** t)
        rows = coords[(n, p ** t)][ranks].tolist()
        with open(os.path.join(directory, f"{i:03d}.pts"), "w",
                  encoding="ascii") as fh:
            fh.write(f"pointset 1 {p} {t} {n}\n")
            fh.writelines(" ".join(map(str, r)) + "\n" for r in rows)
    return directory


def setup_spectra(workload, seed, outdir):
    from blockingsets import formats
    directory = spectra_dir(outdir, seed)
    return [(formats.read_pointset(os.path.join(directory, f"{i:03d}.pts")),
             dims) for i, (_, _, _, dims, _) in
            enumerate(spectra_subsets(seed))]


def run_spectra(workload, subsets, outdir):
    import blockingsets as bs
    outputs = []
    for pts, dims in subsets:
        for dim in dims:
            try:
                outputs.append((pts, dim, bs.spectrum(pts, dim), None))
            except Exception as exc:
                outputs.append((pts, dim, None, f"{type(exc).__name__}: {exc}"))
    return outputs


def check_spectra(workload, seed, subsets, outputs):
    written = {id(pts): ranks for (pts, _), (*_, ranks) in
               zip(subsets, spectra_subsets(seed))}
    fails = {}
    for i, (pts, dim, spec, err) in enumerate(outputs):
        key = (i, dim)
        if err:
            fails[key] = [err]
            continue
        space = pts.space
        fails[key] = checks.check_identities(space.n, space.q, dim, len(pts),
                                             spec.x)
        if (spec.dim, spec.set_size) != (dim, len(pts)):
            fails[key].append("spectrum of another set or dimension")
        if not np.array_equal(pts.ranks, written[id(pts)]):
            fails[key].append("read_pointset gave other ranks than written")
    return fails


WORKLOADS = {
    "catalogue-fast": (setup_harness, run_harness, check_harness),
    "cone49-full": (setup_harness, run_harness, check_harness),
    "witness-roundtrip": (setup_roundtrip, run_roundtrip, check_roundtrip),
    "random-spectra": (setup_spectra, run_spectra, check_spectra),
}

# per-layer metrics each workload must make fire in a traced run
_SCANS = ("projspace.line_scan_s", "projspace.line_incidences",
          "blocking.traces_of_calls", "blocking.trace_scans",
          "projspace.coords_array_s", "fields.tables_s")
_HARNESS = tuple(f"harness.{c}_s" for c in checks.CHECK_IDS) + (
    "harness.load_catalogue_s", "formats.read_pointset_s",
    "formats.witness_from_dict_s", "spreads.contexts_built",
    "spreads.context_build_s", "projspace.hyperplane_scan_s",
    "projspace.hyperplane_incidences", "linearsets.subline_meet_check_s",
    "linearsets.sublines_checked", "linearsets.subline_patterns_s",
    "linearsets.subline_pattern_builds", "blocking.secant_analysis_s",
    "reconstruct.secant_count_bounds_s", "projspace.trace_lookups",
    "projspace.trace_lookup_s") + _SCANS
FIRES = {
    "catalogue-fast": _HARNESS + ("blocking.nonsecant_mask_s",),
    "cone49-full": _HARNESS + (
        "fields.scalar_ops", "linalg.rref_calls", "linalg.rref_s",
        "projspace.subspaces_reduced", "projspace.point_ranks_calls",
        "projspace.point_ranks_s"),
    "witness-roundtrip": _SCANS + (
        "formats.write_pointset_s", "formats.read_pointset_s",
        "formats.witness_from_dict_s", "catalogue.build_witness_s",
        "spreads.contexts_built", "spreads.context_build_s",
        "spreads.transversal_lines", "spreads.transversal_line_s",
        "spreads.linear_set_s", "projspace.trace_lookups",
        "projspace.trace_lookup_s", "reconstruct.reconstruct_s",
        "reconstruct.secants_used", "linearsets.is_linear_s",
        "linearsets.subspaces_tested"),
    "random-spectra": _SCANS + (
        "formats.read_pointset_s", "projspace.hyperplane_scan_s",
        "projspace.hyperplane_incidences", "projspace.table_scan_s",
        "projspace.incidence_table_s"),
}


def main(argv):
    workload, seed, trace = argv[1], int(argv[2]), argv[3] == "1"
    spawned, outdir = float(argv[4]), argv[5]
    setup_only = argv[6:] == ["setup"]
    if not os.path.isdir(os.path.join(SRC, "blockingsets")):
        sys.exit(f"no package sources under {SRC}")
    sys.path.insert(0, SRC)
    import blockingsets
    if not os.path.abspath(blockingsets.__file__).startswith(SRC + os.sep):
        sys.exit(f"blockingsets imported from {blockingsets.__file__}")
    setup, run, check = WORKLOADS[workload]
    tracer = None
    if trace and not setup_only:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    inputs = setup(workload, seed, outdir)
    setup_s = time.monotonic() - spawned
    result = {"setup_s": setup_s}
    if not setup_only:
        start = time.perf_counter()
        outcome = run(workload, inputs, outdir)
        result["run_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        errors = []
        if tracer is not None:
            tracer.uninstall()
            result["per_layer"] = tracer.metrics()
            tracer.write(os.path.join(outdir, f"spans-{workload}.csv"))
            errors = checks.check_fired(result["per_layer"],
                                        FIRES[workload])
        fails = check(workload, seed, inputs, outcome)
        bad = sorted((str(k), v) for k, v in fails.items() if v)
        result.update(attempted=len(fails), failed=len(bad),
                      failures=[f"{k}: {'; '.join(v)}" for k, v in bad[:10]],
                      errors=errors)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)

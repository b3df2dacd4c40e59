"""Command-line interface: generate, inspect, and verify blocking sets.

Exit codes: 0 success, 1 mathematical failure or violated check, 2 usage
error, 3 I/O or parse error.  Output is canonical JSON (sorted keys,
two-space indent, decimal integers, no timestamps), so repeated runs on
the same inputs are byte-identical.  Errors print a single
machine-parsable line ``error: <kind>: <detail>`` on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import metadata as _metadata

import numpy as np

from . import catalogue, formats, harness
from .blocking import blocking_report, nonsecant_mask, secant_analysis
from .errors import (BlockingSetsError, GapViolationError, IoError,
                     NoSublineSecantError, NotASublineError,
                     NotBlockingError, NotFoundError, ParseError,
                     SpecMismatchError, XNotOnElementError)
from .fields import conway_table_version
from .linearsets import is_linear
from .projspace import project
from .reconstruct import reconstruct
from .spreads import spread_context

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2
EXIT_IO = 3

_MATH_ERRORS = (NotBlockingError, GapViolationError, NoSublineSecantError,
                NotASublineError, XNotOnElementError, SpecMismatchError)
_IO_ERRORS = (ParseError, IoError)


def version_string() -> str:
    try:
        pkg = _metadata.version("blockingsets")
    except _metadata.PackageNotFoundError:
        pkg = "unpackaged"
    return f"blockingsets {pkg} (conway-table {conway_table_version()})"


def _emit(data, out=None) -> None:
    """Canonical JSON of data to the file out, or to stdout."""
    data = harness._jsonable(data)
    if out:
        formats.write_json(out, data)
    else:
        sys.stdout.write(json.dumps(data, sort_keys=True, indent=2) + "\n")


def _subspace_rows(sub):
    return None if sub is None else [list(r) for r in sub.rows]


# -- gen ---------------------------------------------------------------------

_FAMILIES = ("cone", "random_rank_r", "redei_trace", "subgeometry")


def _family_params(args) -> dict:
    q = args.p ** args.t
    if args.family == "subgeometry":
        params = {"q": q, "p0": args.p ** args.e, "n": args.n}
        if args.m is not None:
            params["m"] = args.m
        return params
    if args.family == "redei_trace":
        return {"q": q, "p0": args.p ** args.e}
    if args.family == "cone":
        return {"q": q, "p0": args.p ** args.e, "n": args.n,
                "base_m": args.base_m}
    return {"q": q, "n": args.n, "r": args.rank, "seed": args.seed}


def cmd_gen(args) -> int:
    from .linearsets import build_family_witness
    params = _family_params(args)
    witness = build_family_witness(args.family, **params)
    meta = {
        "family": args.family,
        "params": params,
        "witness": formats.witness_to_dict(witness),
    }
    formats.write_pointset(args.out, witness.points, meta=meta)
    _emit({
        "path": args.out,
        "meta_path": formats.meta_path(args.out),
        "points": len(witness.points),
        "witness_rank": witness.rank,
    })
    return EXIT_OK


# -- check -------------------------------------------------------------------

def cmd_check(args) -> int:
    pts = formats.read_pointset(args.file)
    report = blocking_report(pts, args.k)
    _emit({
        "space": {"p": pts.space.field.p, "t": pts.space.field.t,
                  "n": pts.space.n, "q": pts.space.q},
        "set_size": report.set_size,
        "k": report.k,
        "blocking": report.is_blocking,
        "uncovered_rows": _subspace_rows(report.uncovered),
        "small": report.small,
        "exponent": report.exponent,
        "minimal": report.minimal,
        "removable_point": report.removable_point,
        "redei": report.redei,
        "redei_hyperplane_rows": _subspace_rows(report.redei_hyperplane),
        "trivial": report.trivial,
    })
    return EXIT_OK


# -- reconstruct ---------------------------------------------------------------

def _reconstruction_record(res) -> dict:
    # skipped secant lines are emitted as basis rows, like W
    diagnostics = dict(res.diagnostics, skipped=[
        _subspace_rows(s) for s in res.diagnostics["skipped"]])
    return {
        "status": res.status,
        "base_point": res.P,
        "small_point": res.x,
        "secants_used": len(res.secants_used),
        "transversals": len(res.transversals),
        "dim_W": res.dim_W,
        "W_rows": _subspace_rows(res.W),
        "image_equal": res.image_equal,
        "diagnostics": diagnostics,
    }


def cmd_reconstruct(args) -> int:
    """One JSON object for --point-policy first, a list of them (one per
    base point) for all; exit 0 only when every reconstruction is ok."""
    pts = formats.read_pointset(args.file)
    res = reconstruct(pts, args.k, args.p0, point_policy=args.point_policy)
    results = res if args.point_policy == "all" else [res]
    records = [_reconstruction_record(r) for r in results]
    _emit(records if args.point_policy == "all" else records[0])
    return EXIT_OK if all(r.success for r in results) else EXIT_MATH


# -- islinear ------------------------------------------------------------------

def cmd_islinear(args) -> int:
    pts = formats.read_pointset(args.file)
    witness, cert = is_linear(pts, args.p0, strategy=args.strategy,
                              k=args.k)
    _emit({
        "linear": witness is not None,
        "rank": None if witness is None else witness.rank,
        "witness_rows": None if witness is None
        else _subspace_rows(witness.pi),
        "certificate": cert,
    })
    return EXIT_OK if witness is not None else EXIT_MATH


# -- harness -------------------------------------------------------------------

def cmd_harness(args) -> int:
    # an empty list names '', which is unknown: a usage error, not a
    # selection of everything
    names = None if args.instances is None else args.instances.split(",")
    if args.dir:
        instances = harness.load_catalogue(args.dir, names)
    else:
        instances = catalogue.load_shipped(names)
    checks = None if args.checks is None else args.checks.split(",")
    if checks is not None:
        unknown = set(checks) - set(harness.CHECK_IDS)
        if unknown:
            raise NotFoundError(f"unknown checks {sorted(unknown)}")
    results, skipped = harness.run_suite(
        instances, include_slow=args.slow, checks=checks)
    card = harness.scorecard(results, skipped)
    _emit(card, args.out)
    return EXIT_MATH if card["summary"]["violated"] else EXIT_OK


# -- secants -------------------------------------------------------------------

def cmd_secants(args) -> int:
    pts = formats.read_pointset(args.file)
    report = secant_analysis(pts, args.k, args.p0)
    _emit({
        "p0": report.p0,
        "kappa": report.kappa,
        "set_size": len(pts),
        "secant_size_counts": {str(k): v for k, v in
                               sorted(report.secant_size_counts.items())},
        "per_point": [
            {"rank": int(r), "subline_secants": int(s),
             "secants": int(a), "tangent_spaces": int(t)}
            for r, s, a, t in zip(
                report.point_ranks, report.per_point_subline_secants,
                report.per_point_secants, report.tangent_space_counts)],
        "min_subline_secants": report.min_subline_secants(),
    })
    return EXIT_OK


# -- project -------------------------------------------------------------------

def _auto_centre(pts) -> int:
    free = np.nonzero(nonsecant_mask(pts))[0]
    if not free.size:
        raise NotFoundError("no point off the set and off all secants")
    return int(free[0])


def _auto_hyperplane(space, centre_rank):
    # the unit covector at a normalized point's lead (its first 1) misses it
    c = space.coords_of(centre_rank)
    return space.hyperplane([int(j == c.index(1)) for j in range(len(c))])


def cmd_project(args) -> int:
    pts = formats.read_pointset(args.file)
    space = pts.space
    centre = args.centre if args.centre is not None else _auto_centre(pts)
    if args.cov:
        hyper = space.hyperplane(args.cov)
    else:
        hyper = _auto_hyperplane(space, centre)
    image = project(pts, centre, hyper)
    if args.out:
        formats.write_pointset(args.out, image, meta={
            "projected_from": {"centre": centre,
                               "covector": list(space.covector_of(hyper))},
            "source_size": len(pts),
        })
    _emit({
        "centre": centre,
        "covector": list(space.covector_of(hyper)),
        "source_size": len(pts),
        "image_size": len(image),
        "out": args.out,
    })
    return EXIT_OK


# -- spread-dump -----------------------------------------------------------------

def cmd_spread_dump(args) -> int:
    space = formats.space_for(args.p, args.t, args.n)
    ctx = spread_context(space)
    data = {
        "big": {"p": args.p, "t": args.t, "n": args.n, "q": space.q},
        "small": {"p": ctx.p0, "t": 1, "n": ctx.small.n},
        "p0": ctx.p0,
        "h": ctx.h,
        "spread_elements": space.num_points,
        "element_dim": ctx.h - 1,
    }
    if args.point is not None:
        data["point"] = args.point
        data["element_ranks"] = [
            int(r) for r in ctx.element_ranks(args.point)]
        data["element_rows"] = _subspace_rows(
            ctx.spread_element(space.coords_of(args.point)))
    _emit(data)
    return EXIT_OK


# -- parser --------------------------------------------------------------------

def covector(text: str) -> list:
    """The entries of a covector c0,c1,...; argparse reports a ValueError
    as a usage error naming this function."""
    return [int(v) for v in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="blockingsets",
        description="Blocking sets in PG(n,q): generation, structure "
                    "checks, linearity reconstruction, and a bound-check "
                    "harness.")
    top.add_argument("--version", action="version",
                     version=version_string())
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a linear-set family instance")
    gen.add_argument("family", choices=_FAMILIES)
    gen.add_argument("--p", type=int, required=True, help="prime")
    gen.add_argument("--t", type=int, required=True, help="q = p^t")
    gen.add_argument("--e", type=int, default=1, help="subfield order p^e")
    gen.add_argument("--n", type=int, default=2)
    gen.add_argument("--m", type=int, default=None,
                     help="subgeometry dimension (subgeometry only)")
    gen.add_argument("--base-m", type=int, default=1, dest="base_m",
                     help="cone base dimension (cone only)")
    gen.add_argument("--rank", type=int, default=3,
                     help="witness rank (random_rank_r only)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    chk = sub.add_parser("check", help="structural report for a point set")
    chk.add_argument("file")
    chk.add_argument("--k", type=int, default=1)
    chk.set_defaults(func=cmd_check)

    rec = sub.add_parser("reconstruct",
                         help="rebuild a linearity witness from secants")
    rec.add_argument("file")
    rec.add_argument("--k", type=int, default=1)
    rec.add_argument("--p0", type=int, required=True)
    rec.add_argument("--point-policy", choices=("first", "all"),
                     default="first", dest="point_policy")
    rec.set_defaults(func=cmd_reconstruct)

    lin = sub.add_parser("islinear", help="decide linearity over GF(p0)")
    lin.add_argument("file")
    lin.add_argument("--p0", type=int, required=True)
    lin.add_argument("--k", type=int, default=None)
    lin.add_argument("--strategy",
                     choices=("reconstruct_first", "exhaustive"),
                     default="reconstruct_first")
    lin.set_defaults(func=cmd_islinear)

    har = sub.add_parser("harness",
                         help="run the bound-check suite, print a scorecard")
    har.add_argument("--dir", default=None,
                     help="instance directory (default: shipped catalogue)")
    har.add_argument("--instances", default=None,
                     help="comma-separated instance names")
    har.add_argument("--checks", default=None,
                     help="comma-separated check ids")
    har.add_argument("--slow", action="store_true",
                     help="include slow-tier instances")
    har.add_argument("--out", default=None, help="scorecard path")
    har.set_defaults(func=cmd_harness)

    sec = sub.add_parser("secants", help="per-point secant statistics")
    sec.add_argument("file")
    sec.add_argument("--k", type=int, default=1)
    sec.add_argument("--p0", type=int, required=True)
    sec.set_defaults(func=cmd_secants)

    prj = sub.add_parser("project",
                         help="project a set from a centre onto a hyperplane")
    prj.add_argument("file")
    prj.add_argument("--centre", type=int, default=None,
                     help="centre point rank (default: first point off the "
                          "set and off all secant lines)")
    prj.add_argument("--cov", default=None, type=covector,
                     help="hyperplane covector c0,c1,... (default: first "
                          "coordinate hyperplane missing the centre)")
    prj.add_argument("--out", default=None,
                     help="write the image as a point-set file")
    prj.set_defaults(func=cmd_project)

    spd = sub.add_parser("spread-dump",
                         help="field-reduction spread parameters")
    spd.add_argument("--p", type=int, required=True)
    spd.add_argument("--t", type=int, required=True)
    spd.add_argument("--n", type=int, required=True)
    spd.add_argument("--point", type=int, default=None)
    spd.set_defaults(func=cmd_spread_dump)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _IO_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_IO
    except _MATH_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MATH
    except BlockingSetsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

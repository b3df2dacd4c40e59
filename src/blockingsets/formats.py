"""Text formats for point sets, metadata sidecars and scorecards.

All files use decimal integers and a fixed ordering, so writing the same
mathematical object twice produces byte-identical output.  A point set
file starts with a header line

    pointset 1 <p> <t> <n>

followed by one point per line as n+1 space-separated element codes.
Blank lines and lines starting with '#' are ignored.  Points may be given
by any projective representative; they are normalized and sorted on load.

A sidecar ``<stem>.meta.json`` next to ``<stem>.pts`` carries claims and
hypothesis flags as canonical JSON (sorted keys, trailing newline).
"""

from __future__ import annotations

import io
import json
import os
import re

import numpy as np

from .errors import (BlockingSetsError, EmptyInputError, IoError,
                     ParseError, RangeError)
from .fields import make_field
from .projspace import PointSet, ProjectiveSpace, Subspace
from .spreads import spread_context

POINTSET_MAGIC = "pointset"
POINTSET_VERSION = 1


def meta_path(path: str) -> str:
    """Sidecar path: the .pts suffix (or any suffix) becomes .meta.json."""
    stem, _ = os.path.splitext(path)
    return stem + ".meta.json"


def space_for(p: int, t: int, n: int) -> ProjectiveSpace:
    return ProjectiveSpace(n, make_field(p, t))


def write_pointset(path: str, pts: PointSet, meta: dict | None = None):
    space = pts.space
    out = ["%s %d %d %d %d" % (POINTSET_MAGIC, POINTSET_VERSION,
                               space.field.p, space.field.t, space.n)]
    for row in pts.coords():
        out.append(" ".join(str(int(c)) for c in row))
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(out) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    if meta is not None:
        write_json(meta_path(path), meta)


def read_pointset(path: str, with_meta: bool = False):
    """The PointSet of a point set file (and its sidecar's JSON, or None,
    with_meta).  A file in the form `write_pointset` writes is read in one
    `np.loadtxt` pass; any other text, and any file with a bad code, goes
    through the line parser, which defines the format and names the first
    bad line: syntax first, then the space parameters, then the codes."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not ASCII text: {exc}") from exc
    parsed = _canonical_rows(raw)
    if parsed is None:
        header, rows = _parse_lines(path, raw)
    else:
        (header, arr), rows = parsed, None
    p, t, n = header
    try:
        space = space_for(p, t, n)
    except Exception as exc:
        raise ParseError(f"{path}: bad space parameters "
                         f"p={p} t={t} n={n}: {exc}") from exc
    if space.num_points >= 2 ** 63:
        raise ParseError(f"{path}: {space!r} has {space.num_points} points, "
                         "past int64 point ranks")
    q = space.q
    if rows is not None:
        try:
            # the reshape keeps a header-only file 2-d
            arr = np.array([row for _, row in rows],
                           dtype=np.int64).reshape(len(rows), n + 1)
        except OverflowError:
            arr = None
    # check the whole file at once; a code past int64 or a flagged row
    # sends the rows, parsed by the line parser if need be, through the
    # per-row checks, which name the first bad line in file order
    if arr is None or not (((arr >= 0) & (arr < q)).all()
                           and (arr != 0).any(axis=1).all()):
        if rows is None:
            rows = _parse_lines(path, raw)[1]
        _raise_first_bad_row(path, rows, q)
    pts = PointSet(space, space.ranks_from_rows(arr))
    if not with_meta:
        return pts
    side = meta_path(path)
    meta = read_json(side) if os.path.exists(side) else None
    return pts, meta


# the header as write_pointset writes it, a whole line
_CANONICAL_HEADER = re.compile(
    rf"{POINTSET_MAGIC} {POINTSET_VERSION} ([0-9]+) ([0-9]+) ([0-9]+)\n")


def _canonical_rows(raw: str):
    """((p, t, n), int64 rows) of a text in the form `write_pointset`
    writes, read by one `np.loadtxt`: a canonical header line, then only
    ASCII digits, spaces and newlines, some digits among them, in rows of
    n+1 codes that fit in int64.  None for any other text, which the line
    parser reads; the codes are not checked here."""
    head = _CANONICAL_HEADER.match(raw)
    if head is None:
        return None
    body = raw[head.end():]
    if not body.replace(" ", "").replace("\n", "").isdigit():
        return None
    p, t, n = (int(x) for x in head.groups())
    try:
        arr = np.loadtxt(io.StringIO(body), dtype=np.int64, ndmin=2)
    except (ValueError, OverflowError):
        return None
    if arr.shape[1] != n + 1:
        return None
    return (p, t, n), arr


def _parse_lines(path: str, raw: str):
    """The line parser, which defines the format: ((p, t, n), rows) with
    rows a list of (line number, codes), or the ParseError of the first
    line, in file order, whose syntax is bad."""
    header = None
    rows = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if header is None:
            if parts[0] != POINTSET_MAGIC:
                raise ParseError(f"{path}:{lineno}: not a point set file")
            if len(parts) != 5:
                raise ParseError(f"{path}:{lineno}: header needs "
                                 "'pointset <version> <p> <t> <n>'")
            try:
                version, p, t, n = (int(x) for x in parts[1:])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-integer header "
                                 "field") from exc
            if version != POINTSET_VERSION:
                raise ParseError(f"{path}:{lineno}: unsupported version "
                                 f"{version}")
            header = (p, t, n)
            continue
        try:
            row = [int(x) for x in parts]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-integer "
                             "coordinate") from exc
        if len(row) != header[2] + 1:
            raise ParseError(f"{path}:{lineno}: expected {header[2] + 1} "
                             f"coordinates, got {len(row)}")
        rows.append((lineno, row))
    if header is None:
        raise ParseError(f"{path}: empty file")
    return header, rows


def _raise_first_bad_row(path: str, rows, q: int):
    """Raise the ParseError of the first row, in file order, with a code
    outside 0..q-1 or no nonzero code; a row is checked for range first."""
    for lineno, row in rows:
        if any(c < 0 or c >= q for c in row):
            raise ParseError(f"{path}:{lineno}: element code outside "
                             f"0..{q - 1}")
        if not any(row):
            raise ParseError(f"{path}:{lineno}: zero vector")


def write_json(path: str, obj):
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps(obj, sort_keys=True, indent=2))
            fh.write("\n")
    except (OSError, TypeError, ValueError) as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_json(path: str):
    try:
        with open(path, "r", encoding="ascii") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def witness_to_dict(witness) -> dict:
    """Serializable form of a linear-set witness: the defining subspace is
    stored by its basis rows on the small side of the field reduction."""
    big = witness.ctx.big
    return {
        "space": {"p": big.field.p, "t": big.field.t, "n": big.n},
        "rank": witness.rank,
        "rows": [[int(c) for c in row] for row in witness.pi.rows],
    }


def required(data, key: str, kind: type, where: str):
    """data[key], which must exist and be of the given JSON kind (an int
    is never a bool here); a ParseError otherwise."""
    if not isinstance(data, dict):
        raise ParseError(f"{where}: expected a JSON object")
    if key not in data:
        raise ParseError(f"{where}: missing '{key}'")
    val = data[key]
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise ParseError(f"{where}: '{key}' must be {kind.__name__}, "
                         f"got {type(val).__name__}")
    return val


def witness_from_dict(data: dict):
    from .linearsets import build_linear_set
    sp = required(data, "space", dict, "witness")
    p, t, n = (required(sp, key, int, "witness space") for key in "ptn")
    raw = required(data, "rows", list, "witness")
    try:
        ctx = spread_context(space_for(p, t, n))
    except BlockingSetsError as exc:
        raise ParseError(f"bad witness space p={p} t={t} n={n}: "
                         f"{exc}") from exc
    width = ctx.small.n + 1
    if not raw or any(not isinstance(row, list) or len(row) != width
                      for row in raw):
        raise ParseError(f"witness basis must be rows of {width} codes")
    if any(not isinstance(c, int) or isinstance(c, bool)
           for row in raw for c in row):
        raise ParseError("witness basis codes must be integers")
    rows = tuple(tuple(row) for row in raw)
    if any(not 0 <= c < ctx.small.q for row in rows for c in row):
        raise ParseError(f"witness basis code outside 0..{ctx.small.q - 1}")
    rank = required(data, "rank", int, "witness") if "rank" in data \
        else len(rows)
    if len(rows) != rank:
        raise ParseError("witness rank disagrees with its basis rows")
    try:
        pi = Subspace(ctx.small, rows)
    except (RangeError, EmptyInputError) as exc:
        raise ParseError(f"bad witness basis: {exc}") from exc
    if pi.dim != len(rows) - 1:
        raise ParseError("witness basis rows are linearly dependent")
    return build_linear_set(ctx, pi)

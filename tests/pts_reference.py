"""The `.pts` reader as it read every file before the vectorised pass: one
line at a time, each row's codes by `int`, then the space, then the codes.
It defines the format, and tests hold `formats.read_pointset` to it: the
same ranks, or a ParseError with the same message."""

import numpy as np

from blockingsets.errors import ParseError
from blockingsets.formats import POINTSET_MAGIC, POINTSET_VERSION, space_for


def reference_read(path: str):
    """(space, sorted distinct int64 ranks) of a point set file."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not ASCII text: {exc}") from exc
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
    for lineno, row in rows:
        if any(c < 0 or c >= q for c in row):
            raise ParseError(f"{path}:{lineno}: element code outside "
                             f"0..{q - 1}")
        if not any(row):
            raise ParseError(f"{path}:{lineno}: zero vector")
    arr = np.array([row for _, row in rows],
                   dtype=np.int64).reshape(len(rows), n + 1)
    return space, np.unique(space.ranks_from_rows(arr))

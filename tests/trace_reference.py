"""References for the tests of trace summaries: the grouping of a scan's
keys, which every regime of `projspace._by_point_summary` must match, a
summary's whole by-point grid of slots, stacked from its row reads, the
point positions of chosen slots read off that grid, and the chart
positions of the points on chosen lines, decoded per incidence.  The
package reads the points of lines only through
`TraceSummary.secants_through`, which decodes one point's lines or sorts
the incidences of every line of one size; it never groups an arbitrary
selection of slots, and tests use `grouped_points` to check whole
traces."""

import numpy as np

from blockingsets import projspace
from blockingsets.projspace import ProjectiveSpace


def reference_grouping(ranks):
    """(keys, sizes, slots) of a scan's keys from one np.unique: int64
    keys and sizes, int32 slots.  Both regimes of `_by_point_summary`,
    counting (by bincounts or by the line scan's tiles) and sorting, must
    give these, whatever the key range."""
    keys, slots, sizes = np.unique(ranks.reshape(-1).astype(np.int64),
                                   return_inverse=True, return_counts=True)
    return keys, sizes, slots.astype(np.int32)


def stacked_slots(summary):
    """The (m, width) int32 grid of a summary's slots, row p holding the
    slots through the point at position p: its `slot_rows`, read in the
    package's blocks of `_SCAN_BLOCK_BYTES` / (8 * width) rows and
    stacked (one block is returned as read).  The package keeps no such
    grid; the tests read whole incidences through this."""
    m = len(summary.pts)
    rows = max(1, projspace._SCAN_BLOCK_BYTES // (8 * summary.width))
    blocks = [summary.slot_rows(r0, min(r0 + rows, m))
              for r0 in range(0, m, rows)]
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _offsets(counts):
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def grouped_points(summary, sel):
    """(points, offsets): the point positions (int32) of each slot in sel,
    each group ascending, concatenated in sel order; group i is
    points[offsets[i]:offsets[i+1]].  sel may come in any order and may
    repeat slots.

    Only the incidences of the selected slots are grouped: a slot mask
    picks them out of the by-point grid (`stacked_slots`), where a flat
    position divided by the row width is the point, and one sort of the
    keys slot * m + point lays out the distinct slots ascending."""
    sel = np.asarray(sel, dtype=np.int64).reshape(-1)
    counts = summary.sizes[sel]
    offsets = _offsets(counts)
    distinct, place = np.unique(sel, return_inverse=True)
    grid = stacked_slots(summary)
    m, width = grid.shape
    slots = grid.reshape(-1)
    chosen = np.zeros(summary.sizes.size, dtype=bool)
    chosen[distinct] = True
    hit = np.flatnonzero(chosen[slots])
    keyed = slots[hit].astype(np.int64)
    keyed *= m
    keyed += hit // width
    keyed.sort()
    keyed %= m
    # the groups of the distinct slots, picked out in sel order
    first = _offsets(summary.sizes[distinct])[:-1]
    at = np.repeat(first[place] - offsets[:-1], counts) \
        + np.arange(offsets[-1])
    return keyed[at].astype(np.int32), offsets


def reference_chart_marks(summary, sel):
    """(len(sel), q+1) bool: row i marks the chart positions (see
    `linearsets.line_param_positions`) of the set's points on line sel[i]
    of a line summary; sel ascends.  Decoded per incidence: a slot mask
    picks the selected slots out of the by-point grid (`stacked_slots`),
    a hit's place in sel gives its line and so the line's pivot columns,
    and the point's coordinates at those columns are ranked as a point
    of PG(1, q).
    `linearsets._bitmasks` packs the rows into the words that
    `TraceSummary._chart_marks` returns."""
    space = summary.space
    sel = np.asarray(sel, dtype=np.int64)
    j0, j1 = (summary.bases(sel) != 0).argmax(axis=2).T
    coords = space.coords_of_ranks(summary.pts.ranks)
    chosen = np.zeros(summary.sizes.size, dtype=bool)
    chosen[sel] = True
    place = np.cumsum(chosen) - 1
    grid = stacked_slots(summary)
    slots = grid.reshape(-1)
    hit = np.flatnonzero(chosen[slots])
    li = place[slots[hit]]
    pt = hit // grid.shape[1]
    pos = ProjectiveSpace(1, space.field).ranks_from_rows(np.stack(
        [coords[pt, j0[li]], coords[pt, j1[li]]], axis=-1))
    marks = np.zeros((sel.size, space.q + 1), dtype=bool)
    marks[li, pos] = True
    return marks

"""Trace summaries in CSR form against brute force, the grouping of every
scan, counted or not, against one np.unique, the closed-form line
and hyperplane scan kernels against the covector-building kernels they
replaced, and the one-pass transversal-line search against a
per-candidate reference loop."""

import itertools

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from blockingsets import catalogue, linalg, projspace
from blockingsets.blocking import traces_of
from blockingsets.errors import (BadParamsError, DimensionMismatchError,
                                 NotASublineError, RangeError,
                                 SpecMismatchError, XNotOnElementError)
from blockingsets.fields import make_field
from blockingsets.projspace import (PointSet, ProjectiveSpace, Subspace,
                                    span, subspace_traces)
from blockingsets.spreads import spread_context

from trace_reference import grouped_points, reference_grouping, \
    stacked_slots

# (n, p, t); PG(4,2) reaches every (point lead, direction lead) pair of
# the line kernel with up to three free digits, PG(2,8) is GF(2^3), and
# PG(4,2) and PG(5,2) have middle dimensions (2, then 2 and 3), read
# from the incidence table
SPACES = [(2, 2, 2), (3, 3, 1), (2, 3, 2), (3, 2, 2), (4, 2, 1), (2, 2, 3),
          (5, 2, 1)]


def _space(n, p, t):
    return ProjectiveSpace(n, make_field(p, t))


def _summaries(pts):
    """A summary for every dimension: the line and hyperplane scans, the
    incidence table for the middle dimensions, and dim = n."""
    return [subspace_traces(pts, dim) for dim in range(1, pts.space.n + 1)]


def _unrank_line(space, rank):
    """The canonical rows of the line of a dense rank, from the rank's
    definition: the cells of pivot columns (c1, c2), c2 descending then c1
    descending, each holding q^(free digits) lines, and within a cell the
    free digits as a base-q numeral, row 2's first, lower columns first."""
    n, q = space.n, space.q
    for c2 in range(n, 0, -1):
        for c1 in range(c2 - 1, -1, -1):
            free = [(1, c) for c in range(c2 + 1, n + 1)] \
                + [(0, c) for c in range(c1 + 1, n + 1) if c != c2]
            if rank >= q ** len(free):
                rank -= q ** len(free)
                continue
            rows = [[0] * (n + 1), [0] * (n + 1)]
            rows[0][c1] = rows[1][c2] = 1
            for r, c in reversed(free):
                rank, rows[r][c] = divmod(rank, q)
            return rows
    raise AssertionError("line rank out of range")


def _decoded_rows(summary, idx):
    """The basis of slot idx decoded from its key alone, as the summary's
    dimension defines the key, then brought to RREF by `linalg.rref`."""
    space, field, n = summary.space, summary.space.field, summary.space.n
    key = summary.keys_of([idx])[0]
    if summary.dim == n:
        rows = np.eye(n + 1, dtype=np.int64).tolist()
    elif summary.dim == 1:
        rows = _unrank_line(space, int(key))
    elif summary.dim == n - 1:
        # the hyperplane u . x = 0 of the covector of rank key
        rows = linalg.left_kernel([[c] for c in space.coords_of(int(key))],
                                  field)
    else:
        rows = next(itertools.islice(space.subspaces(summary.dim), int(key),
                                     None)).rows
    return linalg.rref(rows, field)[0]


def _scan_order(summary, pos):
    """The subspaces through the point at position pos, as canonical rows,
    in the order the scans list them.  Lines: one per point w of
    PG(n-1, q), taken in rank order, placed in the columns other than the
    point's lead.  Hyperplanes: the covectors u with u . p = 0,
    ascending."""
    space, field = summary.space, summary.space.field
    n = space.n
    p = space.coords_of(int(summary.pts.ranks[pos]))
    out = []
    if summary.dim == 1:
        lead = next(i for i, c in enumerate(p) if c)
        cols = [c for c in range(n + 1) if c != lead]
        for lam in ProjectiveSpace(n - 1, field).coords_array().tolist():
            w = [0] * (n + 1)
            for c, v in zip(cols, lam):
                w[c] = v
            out.append(Subspace(space, (p, w)).rows)
    else:
        for u in space.coords_array().tolist():
            dot = 0
            for a, b in zip(u, p):
                dot = field.add(dot, field.mul(a, b))
            if dot == 0:
                out.append(linalg.rref(
                    linalg.left_kernel([[c] for c in u], field), field)[0])
    return out


def _reference_by_subspace(summary):
    """(points, offsets): the point positions of every slot, ascending,
    from one sort of every incidence of the by-point grouping, keyed
    slot * m + point for the m points: the whole-table transpose that
    summaries once stored, kept as the reference for the gathers."""
    grid = stacked_slots(summary)
    owners, width = grid.shape
    keyed = grid.reshape(-1).astype(np.int64)
    keyed *= owners
    keyed += np.repeat(np.arange(owners, dtype=np.int32), width)
    keyed.sort()
    keyed %= owners
    starts = np.concatenate([[0], np.cumsum(summary.sizes)])
    return keyed.astype(np.int32), starts


def _reference_grouped(reference, summary, sel):
    """The groups of the slots in sel, concatenated in sel order, read off
    the transposed table, with their offsets."""
    points, starts = reference
    sel = np.asarray(sel, dtype=np.int64)
    counts = summary.sizes[sel]
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    at = np.repeat(starts[sel] - offsets[:-1], counts) \
        + np.arange(offsets[-1])
    return points[at], offsets


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_trace_summaries_match_brute_force(data):
    n, p, t = data.draw(st.sampled_from(SPACES))
    space = _space(n, p, t)
    size = data.draw(st.integers(1, min(60, space.num_points)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    pts = PointSet(space, rng.choice(space.num_points, size, replace=False))
    m = len(pts)
    for summary in _summaries(pts):
        nslots = summary.sizes.size
        # canonical bases of any selection of slots, in any order and dim
        sel = rng.choice(nslots, min(nslots, 12), replace=False)
        bases = summary.bases(sel)
        assert bases.shape == (sel.size, summary.dim + 1, space.n + 1)
        for rows, idx in zip(bases.tolist(), sel):
            assert tuple(map(tuple, rows)) == _decoded_rows(summary, idx)
        assert summary.bases(sel[:0]).shape == (0,) + bases.shape[1:]
        points, offsets = grouped_points(summary, np.arange(nslots))
        brute = []
        for idx in range(nslots):
            got = points[offsets[idx]:offsets[idx + 1]]
            want = np.intersect1d(summary.subspace_at(idx).point_ranks(),
                                  pts.ranks)
            assert np.array_equal(pts.ranks[got], want)
            assert got.size == summary.sizes[idx]
            brute.append(np.searchsorted(pts.ranks, want))
        # the size of every key, 0 off the slots, in the keys' shape
        every = np.zeros(summary.total, dtype=np.int64)
        every[summary.keys_of(np.arange(nslots))] = summary.sizes
        keys = np.arange(summary.total)[::-1]
        assert np.array_equal(summary.sizes_of(keys), every[keys])
        assert summary.sizes_of(keys[None]).shape == (1, keys.size)
        for bad in (-1, summary.total):
            with pytest.raises(RangeError):
                summary.sizes_of([0, bad])
        # a slot or point position out of range does not wrap round
        for bad in (-1, nslots):
            with pytest.raises(RangeError):
                summary.subspace_at(bad)
            for picked in ([bad], [0, bad]):
                with pytest.raises(RangeError):
                    summary.bases(picked)
        for bad in (-1, m):
            with pytest.raises(RangeError):
                summary.indices_through_point(bad)
        # every slot through a point, in the order its grouping promises
        for pos in range(m):
            through = summary.indices_through_point(pos).tolist()
            assert through == [i for i in range(nslots) if pos in brute[i]]
            if summary.dim in (1, space.n - 1):
                # the scans list the same subspaces in the same order
                rows = summary.bases(through).tolist()
                assert [tuple(map(tuple, r)) for r in rows] \
                    == _scan_order(summary, pos)
        # the per-point counts against a bincount of the brute incidences
        owners = np.repeat(np.arange(nslots), summary.sizes)
        flat = np.concatenate(brute)
        for size_arg in ({"min_size": 1}, {"min_size": 2},
                         {"exact": int(summary.sizes.max())}):
            keep = summary.sizes >= size_arg["min_size"] \
                if "min_size" in size_arg else \
                summary.sizes == size_arg["exact"]
            want = np.bincount(flat[keep[owners]], minlength=m)
            assert np.array_equal(summary.per_point_counts(**size_arg), want)
        # the size grid: the sizes of the by-point slots, one row per
        # point, read-only, in the narrowest type that holds them
        grid = summary.point_sizes()
        assert np.array_equal(grid, summary.sizes[stacked_slots(summary)])
        assert grid.dtype == _narrowest(int(summary.sizes.max()))
        assert not grid.flags.writeable and summary.point_sizes() is grid
        # the gathered groups against the whole-table transpose, for
        # selections in any order, with repeats, and empty
        reference = _reference_by_subspace(summary)
        every_third = np.flatnonzero(np.arange(nslots) % 3 == 1)
        drawn = rng.choice(nslots, min(nslots, 9))
        for sel in (every_third, every_third[::-1], drawn,
                    np.concatenate([drawn, drawn[::-1]]), every_third[:0]):
            got, offsets = grouped_points(summary, sel)
            want, want_offsets = _reference_grouped(reference, summary, sel)
            assert got.dtype == np.int32 and offsets.dtype == np.int64
            assert np.array_equal(got, want)
            assert np.array_equal(offsets, want_offsets)


def _narrowest(top):
    return next(t for t in (np.int8, np.int16, np.int32, np.int64)
                if top <= np.iinfo(t).max)


def test_point_sizes_take_the_narrowest_type():
    # the whole of PG(3,11): 1,464 points, but the lines hold 12 of them
    # (int8 sizes and grid), the planes 133 (int16) and the space all
    # 1,464 (int16)
    space = ProjectiveSpace(3, make_field(11, 1))
    pts = PointSet(space, np.arange(space.num_points))
    want = {1: (12, np.int8), 2: (133, np.int16), 3: (1464, np.int16)}
    for dim, (size, dtype) in want.items():
        summary = subspace_traces(pts, dim)
        assert summary.sizes.dtype == dtype
        grid = summary.point_sizes()
        assert grid.dtype == dtype and (grid == size).all()
        assert grid.shape == stacked_slots(summary).shape
        assert np.array_equal(summary.per_point_counts(exact=size),
                              np.full(len(pts), grid.shape[1]))
        assert not summary.per_point_counts(min_size=size + 1).any()


def _grouping_cases():
    """(points, dim, the one subspace missing the set or None): dense
    summaries of lines, hyperplanes and middle dimensions, near-dense ones
    (the whole space less the points of one subspace, x0 = 1), and a set
    too small for its space to meet every line."""
    pg43 = _space(4, 3, 1)
    whole = PointSet(pg43, np.arange(pg43.num_points))
    for dim in range(1, 5):
        yield whole, dim, None
    for inst in catalogue.load_shipped(["baer_pg2_9", "cone_pg3_9"]):
        for dim in range(1, inst.points.space.n):
            yield inst.points, dim, None
    for space in (pg43, _space(5, 2, 1), _space(2, 2, 2)):
        for dim in range(1, space.n):
            gone = space.subspace_by_index(dim, space.num_subspaces(dim) // 3)
            rest = np.setdiff1d(np.arange(space.num_points),
                                gone.point_ranks())
            yield PointSet(space, rest), dim, gone
    space = _space(3, 2, 2)
    yield PointSet(space, [3, space.num_points - 2]), 1, None


def _recorded_scans(monkeypatch):
    """The (made, total, tiled) of every scan as it reaches the grouping,
    made listing the arrays its row generator returns and tiled whether
    the scan hands the tail a tile counter of its own (passed on), listed
    as the scans run."""
    seen = []
    summarize = projspace._by_point_summary

    def recorded(space, dim, pts, ranks_of, total, *tiles):
        made = []

        def generate(r0, r1):
            made.append(ranks_of(r0, r1))
            return made[-1]
        seen.append((made, total, bool(tiles)))
        return summarize(space, dim, pts, generate, total, *tiles)

    monkeypatch.setattr(projspace, "_by_point_summary", recorded)
    return seen


def _assert_narrowest_signed(sizes, top):
    """sizes is of the smallest signed integer type that holds top."""
    assert sizes.dtype.kind == "i" and np.iinfo(sizes.dtype).max >= top
    if sizes.itemsize > 1:
        assert np.iinfo(f"int{4 * sizes.itemsize}").max < top


def _largest_trace(pts, dim):
    """The most points a dim-subspace can share with the set: all of
    them, or all of its own."""
    return min(len(pts), projspace.gaussian_binomial(dim + 1, 1,
                                                     pts.space.q))


def _counts(total, incidences, sizes_type, tiled):
    """Whether a scan over total keys groups them by counting (else by
    sorting): the choice rests on the byte size of a count array in the
    sizes' type against the sorted int32 (int64 past 2^31 keys) copy of
    the keys, and, for a scan without its own tile counter (tiled), on
    the byte size of an int64 bincount over the key range."""
    keys_bytes = 4 if total < 2 ** 31 else 8
    return np.dtype(sizes_type).itemsize * total <= keys_bytes * incidences \
        and (tiled or 8 * total <= projspace._COUNT_BYTES)


def test_dense_grouping_matches_the_table(monkeypatch):
    seen = _recorded_scans(monkeypatch)
    paths, tiled = set(), set()
    # every case at the default budget, then with no budget for a
    # bincount, so that only the line scan, with its own tile counter,
    # is counted
    cases = [(case, budget) for budget in (projspace._COUNT_BYTES, 0)
             for case in _grouping_cases()]
    for (pts, dim, gone), budget in cases:
        monkeypatch.setattr(projspace, "_COUNT_BYTES", budget)
        seen.clear()
        summary = subspace_traces(pts, dim)
        (made, total, tiles), = seen
        m = len(pts)
        npar = projspace.gaussian_binomial(pts.space.n, dim, pts.space.q)
        regime = projspace._grouping_regime(
            m * npar, total, summary.sizes.dtype,
            projspace._line_tile_counts if tiles else None)
        # every case fits in one block.  A sorted scan, or one counted by
        # bincounts, is generated once, whole; a line scan counted by its
        # own tile counter is counted as it is generated, and nothing
        # comes through its row source until its rows are read.  Every
        # read generates them again, in one block
        built = 0 if regime == "counted" and tiles else 1
        assert len(made) == built
        if built == 0:
            tiled.add(summary.x0 == 0)
        got = stacked_slots(summary)
        assert len(made) == built + 1
        ranks = made[-1]
        keys, sizes, slots = reference_grouping(ranks)
        _assert_narrowest_signed(summary.sizes, _largest_trace(pts, dim))
        assert ranks.dtype == np.int32
        assert got.dtype == np.int32 and got.shape == (m, npar)
        got_keys = summary.keys_of(np.arange(keys.size))
        assert got_keys.dtype == np.int64
        assert np.array_equal(got_keys, keys)
        assert np.array_equal(summary.sizes, sizes)
        assert np.array_equal(got.reshape(-1), slots)
        if summary.x0 == 0:
            # dense: no keys stored, and the rows read are the slots
            assert summary._keys is None
            assert np.shares_memory(got, ranks)
        else:
            assert summary._keys.dtype == np.int64
        paths.add((_counts(total, ranks.size, summary.sizes.dtype, tiles),
                   summary.x0 == 0))
        if gone is None and ranks.size >= total:
            # each such case meets every subspace; the small set cannot
            assert summary.x0 == 0
            assert summary.first_uncovered() is None
        elif gone is not None:
            # the one subspace that misses the set is the first
            assert summary.x0 == 1
            assert summary.first_uncovered() == gone
        # the per-point counts against a bincount of the incidences
        owner = np.repeat(np.arange(m), npar)
        top = int(sizes.max())
        for args, keep in (({"min_size": 2}, sizes >= 2),
                           ({"exact": top}, sizes == top)):
            want = np.bincount(owner[keep[slots]], minlength=m)
            counts = summary.per_point_counts(**args)
            assert counts.dtype == np.int64 and not counts.flags.writeable
            assert np.array_equal(counts, want)
    # the cases reach dense and sparse summaries, counted and not, and
    # dense and sparse line scans counted by their tiles
    assert paths == {(counted, dense) for counted in (False, True)
                     for dense in (False, True)}
    assert tiled == {False, True}


def _secant_cases():
    """Line summaries: every shipped instance with the points to visit
    (every point, every 50th on the slow PG(3,49) cone), then random sets
    of the test spaces and of PG(1, 9), visited whole."""
    for inst in catalogue.load_shipped():
        yield inst.points, 50 if inst.slow else 1
    rng = np.random.default_rng(14)
    for n, p, t in SPACES + [(1, 3, 2)]:
        space = _space(n, p, t)
        for size in (1, 7, min(40, space.num_points)):
            yield PointSet(space, rng.choice(space.num_points, size,
                                             replace=False)), 1


def test_secants_through_matches_reference():
    for pts, step in _secant_cases():
        lines = subspace_traces(pts, 1)
        reference = _reference_by_subspace(lines)
        m = len(pts)
        sels, grids = [], []
        for pos in range(0, m, step):
            through = lines.indices_through_point(pos)
            for size in np.unique(lines.sizes[through]).tolist() + [m + 1]:
                slots, points = lines.secants_through(pos, size)
                want = through[lines.sizes[through] == size]
                assert slots.tolist() == want.tolist()
                want_points, _ = _reference_grouped(reference, lines, want)
                assert points.dtype == np.int32
                assert points.shape == (want.size, size)
                assert np.array_equal(points.reshape(-1), want_points)
                sels.append(want)
                grids.append(points.reshape(-1))
        # the grids are the groups grouped_points gives for the same
        # slots, gathered in one call
        grouped, _ = grouped_points(lines, np.concatenate(sels))
        assert np.array_equal(np.concatenate(grids), grouped)
        for bad in (-1, m):
            with pytest.raises(RangeError):
                lines.secants_through(bad, 2)
        # sizes that no line has select no slots and an empty grid
        for size in (0, -1):
            slots, points = lines.secants_through(0, size)
            assert slots.size == 0 and points.shape == (0, 0)
    # a hyperplane summary holds no lines
    cone = catalogue.load_shipped(["cone_pg3_9"])[0].points
    with pytest.raises(DimensionMismatchError):
        subspace_traces(cone, 2).secants_through(0, 2)


def test_one_point_secants_read_only_their_row(monkeypatch):
    # the one-point form reads its point's row from the row source while
    # no size grid is built, and the answer is the one it gives once the
    # size grid is built, at every position and every trace size through
    # it.  Each row read generates its row again, the scans read in one
    # block or, at a budget of one byte, a block of one row at a time
    cone = catalogue.load_shipped(["cone_pg3_9"])[0].points
    space = _space(3, 3, 1)
    sparse = PointSet(space, np.random.default_rng(35).choice(
        space.num_points, 11, replace=False))
    for pts, budget in itertools.product((cone, sparse), (None, 1)):
        with monkeypatch.context() as patch:
            if budget is not None:
                patch.setattr(projspace, "_SCAN_BLOCK_BYTES", budget)
            lines = subspace_traces(pts, 1)
        # sizes through each position, from a summary of its own
        through = subspace_traces(pts, 1).point_sizes()
        got = {}
        for pos in range(len(pts)):
            for size in np.unique(through[pos]).tolist():
                got[pos, size] = lines.secants_through(pos, size)
        assert lines._point_sizes is None
        lines.point_sizes()
        for (pos, size), (slots, points) in got.items():
            want_slots, want_points = lines.secants_through(pos, size)
            assert slots.dtype == want_slots.dtype == np.int32
            assert np.array_equal(slots, want_slots)
            assert np.array_equal(points, want_points)
        assert lines.x0 > 0 if pts is sparse else lines.x0 == 0


def test_secants_through_positions_form_matches_one_point_calls(
        monkeypatch):
    # the positions form gives the rows of each position's one-point call,
    # grouped by owner in the order of the array (shuffled, with repeats),
    # whatever the block of positions
    rng = np.random.default_rng(3)
    for pts, step in _secant_cases():
        lines = subspace_traces(pts, 1)
        m = len(pts)
        at = rng.permutation(np.arange(0, m, step))
        at = np.concatenate([at, at[:2]])
        for size in np.unique(lines.sizes)[:3].tolist():
            singles = [lines.secants_through(int(p), size) for p in at]
            for budget in (None, 1):
                with monkeypatch.context() as patch:
                    if budget is not None:
                        patch.setattr(projspace, "_SCAN_BLOCK_BYTES", budget)
                    owner, slots, points = lines.secants_through(at, size)
                assert owner.dtype == np.int32 and slots.dtype == np.int32
                assert points.dtype == np.int32
                assert np.array_equal(owner, np.repeat(
                    np.arange(at.size), [s.size for s, _ in singles]))
                assert np.array_equal(
                    slots, np.concatenate([s for s, _ in singles]))
                assert np.array_equal(
                    points, np.concatenate([p for _, p in singles]))
        owner, slots, points = lines.secants_through(np.empty(0, int), 2)
        assert owner.size == slots.size == 0 and points.shape == (0, 2)
        with pytest.raises(RangeError):
            lines.secants_through(np.asarray([0, m]), 2)


def _pack_rows2(space, first, second):
    """The packed line keys the line scan used before its dense ranks:
    the entries of row 1 then row 2 as base-q digits, lowest place first,
    in one int64 word, or in two when q^(2n+2) >= 2^62."""
    digits = np.concatenate([first, second], axis=-1)
    width = digits.shape[-1]
    if space.q ** width < 2 ** 62:
        return digits @ space.q ** np.arange(width, dtype=np.int64)
    half = width // 2
    out = np.empty(digits.shape[:-1] + (2,), dtype=np.int64)
    out[..., 0] = digits[..., :half] @ space.q ** np.arange(half)
    out[..., 1] = digits[..., half:] @ space.q ** np.arange(width - half)
    return out


def _reference_line_keys(space, pts):
    """The packed key of every (point, line) incidence in scan order, as
    the line scan built them before its closed form: each direction w
    scattered into the non-lead columns, the canonical rows picked by
    np.where, then packed."""
    add, mul, neg, _ = space.field.tables()
    n = space.n
    coords = pts.coords()
    lead = (coords != 0).argmax(axis=1)
    params = ProjectiveSpace(n - 1, space.field).coords_array()
    m, npar = coords.shape[0], params.shape[0]
    cols = np.asarray([[c for c in range(n + 1) if c != l]
                       for l in range(n + 1)])[lead]
    w = np.zeros((m, npar, n + 1), dtype=np.int64)
    np.put_along_axis(w, cols[:, None, :].repeat(npar, axis=1),
                      params[None, :, :], axis=2)
    lw = (w != 0).argmax(axis=2)
    u = np.broadcast_to(coords[:, None, :], w.shape)
    u_at_lw = np.take_along_axis(u, lw[:, :, None], axis=2)[:, :, 0]
    a = add[u, mul[neg[u_at_lw][:, :, None], w]]
    first_is_w = (lw < lead[:, None])[:, :, None]
    keys = _pack_rows2(space, np.where(first_is_w, w, a),
                       np.where(first_is_w, a, w))
    return keys.reshape((m * npar,) + keys.shape[2:])


def _reference_covector_ranks(space, pts):
    """(m, theta(n-1)) dual ranks of the hyperplanes through each point, as
    the hyperplane scan built them before its closed form: the covectors
    sum lam_j (e_c - P_c e_lead) over c != lead, then normalized."""
    add, mul, neg, _ = space.field.tables()
    n = space.n
    coords = pts.coords()
    lead = (coords != 0).argmax(axis=1)
    params = ProjectiveSpace(n - 1, space.field).coords_array()
    m, npar = coords.shape[0], params.shape[0]
    cols = np.asarray([[c for c in range(n + 1) if c != l]
                       for l in range(n + 1)])[lead]
    bases = np.zeros((m, n, n + 1), dtype=np.int64)
    np.put_along_axis(bases, cols[:, :, None], 1, axis=2)
    pc = np.take_along_axis(coords[:, None, :].repeat(n, axis=1),
                            cols[:, :, None], axis=2)[:, :, 0]
    np.put_along_axis(bases, np.broadcast_to(lead[:, None, None], (m, n, 1)),
                      neg[pc][:, :, None], axis=2)
    acc = np.zeros((m, npar, n + 1), dtype=np.int64)
    for j in range(n):
        acc = add[acc, mul[params[None, :, j, None], bases[:, None, j, :]]]
    return ProjectiveSpace(n, space.field).ranks_from_rows(acc)


def _kernel_cases():
    for inst in catalogue.load_shipped(["cone_pg3_9", "baer_pg2_9"]):
        yield inst.points
    rng = np.random.default_rng(2024)
    for n, p, t in SPACES + [(3, 7, 1), (4, 3, 1), (2, 7, 2)]:
        space = _space(n, p, t)
        for size in (1, 7, min(150, space.num_points)):
            yield PointSet(space, rng.choice(space.num_points, size,
                                             replace=False))
    # PG(3,256): packed line keys took two words; 4.3e9 line ranks
    space = _space(3, 2, 8)
    yield PointSet(space, [0, 1, 257, space.num_points - 1,
                           int(rng.integers(space.num_points))])


def test_scan_kernels_match_reference_kernels(monkeypatch):
    seen = _recorded_scans(monkeypatch)
    paths, widths = set(), []
    for pts in _kernel_cases():
        space = pts.space
        m = len(pts)
        seen.clear()
        lines = projspace._scan_lines(space, pts)
        slots = stacked_slots(lines)
        npar = slots.shape[1]
        assert slots.shape == (m, npar)
        # the same line for every incidence, in the same order, and the
        # keys of each point's lines ascend
        bases = lines.bases(slots)
        assert np.array_equal(_pack_rows2(space, bases[:, 0], bases[:, 1]),
                              _reference_line_keys(space, pts))
        assert np.all(np.diff(lines.keys_of(slots).reshape(m, npar)) > 0)
        planes = projspace._scan_hyperplanes(space, pts)
        slots = stacked_slots(planes)
        assert slots.shape == (m, npar)
        # the same dual ranks through each point, listed ascending
        got = planes.keys_of(slots).reshape(m, npar)
        want = _reference_covector_ranks(space, pts)
        assert np.array_equal(got, np.sort(want, axis=1))
        # the line scan alone hands the tail its own tile counter
        assert [tiles for _, _, tiles in seen] == [True, False]
        paths |= {(name, _counts(summary.total, int(summary.sizes.sum()),
                                 summary.sizes.dtype, tiles))
                  for name, summary, (_, _, tiles)
                  in zip(("lines", "planes"), (lines, planes), seen)}
        # int32 ranks whenever every key fits, and int32 slots
        for (made, total, _), summary in zip(seen, (lines, planes)):
            wide = total >= 2 ** 31
            assert {ranks.dtype for ranks in made} \
                == {np.dtype(np.int64 if wide else np.int32)}
            assert stacked_slots(summary).dtype == np.int32
            _assert_narrowest_signed(summary.sizes,
                                     _largest_trace(pts, summary.dim))
        widths.append(tuple(made[0].dtype for made, _, _ in seen))
    # the cases reach both groupings of both scans
    assert paths == {(scan, counted) for scan in ("lines", "planes")
                     for counted in (False, True)}
    # only the PG(3,256) lines, 4.3e9 of them, need int64 ranks
    assert widths.count((np.int32, np.int32)) == len(widths) - 1
    assert widths[-1] == (np.int64, np.int32)


def _reference_transversal(ctx, trace, x):
    """The search as one candidate line per point y of a companion
    element: the lines whose images are exactly the trace."""
    home = int(ctx.blow_down_ranks(x))
    companion = next(int(r) for r in trace.ranks if r != home)
    lines = [span(ctx.small, x, int(y)) for y in ctx.element_ranks(companion)]
    # a line and the trace both have p0 + 1 points: the line's image is
    # the trace exactly when its sorted images are the trace's ranks
    images = np.sort(ctx.blow_down_ranks(
        np.stack([line.point_ranks() for line in lines])), axis=1)
    return [line for line, image in zip(lines, images)
            if np.array_equal(image, trace.ranks)]


@pytest.mark.parametrize("name", ["baer_pg2_9", "cone_pg3_9",
                                  "rank4_pg2_27"])
def test_transversal_line_matches_reference(name):
    inst = catalogue.load_shipped([name])[0]
    pts, p0 = inst.points, inst.p0
    ctx = spread_context(pts.space)
    lines = traces_of(pts, 1)
    secants = np.flatnonzero(lines.sizes == p0 + 1)
    assert secants.size
    points, offsets = grouped_points(lines, secants)
    for i in range(secants.size):
        trace = PointSet(pts.space,
                         pts.ranks[points[offsets[i]:offsets[i + 1]]])
        home = int(trace.ranks[i % (p0 + 1)])
        for x in ctx.element_ranks(home).tolist():
            want = _reference_transversal(ctx, trace, x)
            assert len(want) == 1
            assert ctx.transversal_line(trace, x) == want[0]


def test_transversal_line_errors():
    space = ProjectiveSpace(2, make_field(3, 2))
    ctx = spread_context(space)
    # the line x1 = 0 meets this 4-set outside any GF(3)-subline
    broken = PointSet(space, [space.rank_of(v) for v in
                              ((0, 0, 1), (1, 0, 0), (1, 0, 1), (1, 0, 3))])
    for home in broken.ranks.tolist():
        for x in ctx.element_ranks(home).tolist():
            assert _reference_transversal(ctx, broken, x) == []
            with pytest.raises(NotASublineError):
                ctx.transversal_line(broken, x)
    outside = space.rank_of((0, 1, 0))
    with pytest.raises(XNotOnElementError):
        ctx.transversal_line(broken, int(ctx.element_ranks(outside)[0]))
    x = int(ctx.element_ranks(broken.ranks[0])[0])
    with pytest.raises(BadParamsError):
        ctx.transversal_line(PointSet(space, broken.ranks[:3]), x)
    with pytest.raises(DimensionMismatchError):
        ctx.transversal_line(PointSet(ctx.small, broken.ranks), x)
    # the batch form: -1 for a row that is no subline, the same errors
    assert ctx.transversal_line([broken.ranks[::-1]], x).tolist() == [-1]
    assert ctx.transversal_line(np.empty((0, 4), int), x).size == 0
    first = int(broken.ranks[0])
    for rows in ([broken.ranks[:3]], broken.ranks,
                 [[first, first, *broken.ranks[2:]]]):
        with pytest.raises(BadParamsError):
            ctx.transversal_line(rows, x)
    for bad in (-1, space.num_points):
        with pytest.raises(RangeError):
            ctx.transversal_line([[first, *broken.ranks[2:], bad]], x)
    with pytest.raises(XNotOnElementError):
        ctx.transversal_line([broken.ranks, [*broken.ranks[1:], outside]], x)
    # one x per row: each must lie on an element of its own row, be a
    # small point, and come with exactly one row
    xs = np.asarray([x, int(ctx.element_ranks(broken.ranks[1])[0])])
    assert ctx.transversal_line([broken.ranks] * 2, xs).tolist() == [-1, -1]
    with pytest.raises(XNotOnElementError):
        ctx.transversal_line([broken.ranks, [broken.ranks[0],
                                             *broken.ranks[2:], outside]],
                             xs)
    with pytest.raises(BadParamsError):
        ctx.transversal_line([broken.ranks] * 3, xs)
    for bad in (-1, ctx.small.num_points):
        with pytest.raises(RangeError):
            ctx.transversal_line([broken.ranks] * 2, np.asarray([x, bad]))


def test_transversal_line_refuses_two_matches(baer, monkeypatch):
    ctx = baer.ctx
    lines = traces_of(baer.points, 1)
    idx = int(np.flatnonzero(lines.sizes == 4)[0])
    trace = PointSet(ctx.big,
                     baer.points.ranks[grouped_points(lines, [idx])[0]])
    x = int(ctx.element_ranks(trace.ranks[0])[0])
    line = ctx.transversal_line(trace, x)
    # the transversal meets the companion element (that of the second
    # trace point) in y; the line through x and another point of it fails
    element = ctx.element_ranks(trace.ranks[1])
    y = int(np.intersect1d(line.point_ranks(), element)[0])
    other = next(int(r) for r in element if r != y)
    home = trace.ranks[0]
    batches = ([trace.ranks], [_broken_row(ctx, trace.ranks, home),
                               trace.ranks])
    # a corrupted spread that maps the line x other like the line x y
    lam = np.arange(3)[:, None]

    def line_ranks(end):
        xv = np.asarray(ctx.small.coords_of(x))
        ev = np.asarray(ctx.small.coords_of(end))
        return ctx.small.ranks_from_rows(
            np.vstack([(xv + lam * ev) % 3, ev]))
    swap = dict(zip(line_ranks(other).tolist(),
                    ctx.blow_down_ranks(line_ranks(y)).tolist()))
    honest = ctx.big.ranks_from_rows

    def corrupted(arr, normalized=False):
        # every small -> big image ends in the big side's ranking of the
        # blown-down vector; the vector's own blow-up is its small point
        got = np.array(honest(arr, normalized))
        arr = np.asarray(arr, dtype=np.int64)
        digits = arr[..., None] // 3 ** np.arange(2) % 3
        small = ctx.small.ranks_from_rows(
            digits.reshape(arr.shape[:-1] + (-1,)))
        for a, b in swap.items():
            got[small == a] = b
        return got
    monkeypatch.setattr(ctx.big, "ranks_from_rows", corrupted)
    assert np.array_equal(ctx.blow_down_ranks(line_ranks(other)),
                          ctx.blow_down_ranks(line_ranks(y)))
    with pytest.raises(SpecMismatchError):
        ctx.transversal_line(trace, x)
    # the batch form refuses it too, also beside a good row
    for rows in batches:
        with pytest.raises(SpecMismatchError):
            ctx.transversal_line(np.asarray(rows), x)


def _broken_row(ctx, ranks, keep):
    """Collinear ranks with the last one other than keep swapped for
    another point of their big line."""
    line = span(ctx.big, *ranks[:2].tolist())
    other = np.setdiff1d(line.point_ranks(), ranks)[0]
    drop = ranks[ranks != keep][-1]
    return np.sort(np.append(ranks[ranks != drop], other))


def _per_secant_transversal(ctx, trace, x):
    """The search as it ran before the batch form, one subline at a time:
    the small rank y with x y the transversal, or -1."""
    home = int(ctx.blow_down_ranks(x))
    companion = next(int(r) for r in trace if r != home)
    add, mul, _, _ = ctx.small_field.tables()
    xv = np.asarray(ctx.small.coords_of(x), dtype=np.int64)
    yr = ctx.element_ranks(companion)
    ys = ctx.small.coords_of_ranks(yr)
    lam = np.arange(ctx.p0, dtype=np.int64)
    on_line = np.concatenate(
        [add[xv, mul[lam[None, :, None], ys[:, None, :]]],
         ys[:, None, :]], axis=1)
    images = ctx.blow_down_ranks(ctx.small.ranks_from_rows(on_line))
    images.sort(axis=1)
    matches = np.flatnonzero((images == trace).all(axis=1))
    assert matches.size <= 1
    return int(yr[matches[0]]) if matches.size else -1


@pytest.mark.parametrize("name", ["baer_pg2_9", "cone_pg3_49", "cone_pg3_9",
                                  "rank4_pg2_27", "subgeom_pg2_49",
                                  "subplane_pg3_49"])
def test_batched_transversal_search_matches_per_secant_reference(name):
    inst = catalogue.load_shipped([name])[0]
    pts, p0 = inst.points, inst.p0
    ctx = spread_context(pts.space)
    lines = traces_of(pts, 1)
    admissible = np.flatnonzero(lines.per_point_counts(exact=p0 + 1))
    every, xs, wants = [], [], []
    for pos in admissible[:3].tolist():
        through = lines.indices_through_point(pos)
        flat, _ = grouped_points(
            lines, through[lines.sizes[through] == p0 + 1])
        traces = pts.ranks[flat].reshape(-1, p0 + 1)
        x = int(ctx.element_ranks(pts.ranks[pos]).min())
        want = [_per_secant_transversal(ctx, t, x) for t in traces]
        assert max(want) >= 0
        got = ctx.transversal_line(traces, x)
        assert got.dtype == np.int64 and got.tolist() == want
        # swap a point off the base point for another of the big line:
        # p0 >= 3 points of a subline remain, and they fix it
        perturbed = np.asarray([_broken_row(ctx, t, pts.ranks[pos])
                                for t in traces])
        assert (perturbed == pts.ranks[pos]).any(axis=1).all()
        assert [_per_secant_transversal(ctx, t, x) for t in perturbed] \
            == [-1] * len(traces)
        both = ctx.transversal_line(np.concatenate([perturbed, traces]), x)
        assert both.tolist() == [-1] * len(traces) + want
        every += [perturbed, traces]
        xs.append(np.full(2 * len(traces), x))
        wants += [-1] * len(traces) + want
    # one x per row: the rows of all three base points in one call
    got = ctx.transversal_line(np.concatenate(every), np.concatenate(xs))
    assert got.tolist() == wants

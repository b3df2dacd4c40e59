"""The bounded-block kernels: the hyperplane scan, the two regimes of
the scans' grouping tail, the chart marks of the subline checks, the lift of
the large planes' lines, the batched row reduction and the whole-set
reconstruction give the same results whatever their block size, and
their traced memory stays within bounds set by the array shapes."""

import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from blockingsets import catalogue, harness, linalg, linearsets, projspace
from blockingsets.blocking import traces_of
from blockingsets.fields import make_field
from blockingsets.linearsets import (LinearSetWitness, build_family_witness,
                                     secant_linearity_check,
                                     subline_meet_check)
from blockingsets.projspace import PointSet, ProjectiveSpace, subspace_traces
from blockingsets.spreads import spread_context

from trace_reference import (reference_chart_marks, reference_grouping,
                             stacked_slots)


def _rows_budget(rows, bytes_per_entry, width):
    """A byte budget that gives blocks of `rows` rows of `width` entries;
    0 gives blocks of one row."""
    return rows * bytes_per_entry * width


def _brute_hyperplanes(pts):
    """(keys, sizes, keys through each point) of the hyperplanes meeting
    the set, from the dot product of every covector with every point: a
    hyperplane's key is the rank of its covector."""
    space = pts.space
    add, mul, _, _ = space.field.tables()
    cov, coords = space.coords_array(), pts.coords()
    dot = mul[cov[:, None, 0], coords[None, :, 0]]
    for c in range(1, space.n + 1):
        dot = add[dot, mul[cov[:, None, c], coords[None, :, c]]]
    on = dot == 0
    sizes = on.sum(axis=1)
    keys = np.flatnonzero(sizes)
    return keys, sizes[keys], on.T


@pytest.mark.parametrize("n,p,t", [(3, 2, 2), (3, 3, 2), (4, 3, 1)])
def test_hyperplane_blocks_match_brute_force(monkeypatch, n, p, t):
    space = ProjectiveSpace(n, make_field(p, t))
    npar = (space.q ** n - 1) // (space.q - 1)
    rng = np.random.default_rng(20 + n + space.q)
    for size in (1, 7, space.num_points // 3, space.num_points - 2):
        pts = PointSet(space, rng.choice(space.num_points, size,
                                         replace=False))
        keys, sizes, on = _brute_hyperplanes(pts)
        # one row, seven rows (every last-column group of more than seven
        # points is split), and the default budget
        for rows in (0, 7, None):
            if rows is not None:
                monkeypatch.setattr(projspace, "_SCAN_BLOCK_BYTES",
                                    _rows_budget(rows, 16, npar))
            summary = subspace_traces(pts, n - 1)
            monkeypatch.undo()
            slots = np.arange(summary.sizes.size)
            assert np.array_equal(summary.keys_of(slots), keys)
            assert np.array_equal(summary.sizes, sizes)
            through = stacked_slots(summary)
            assert through.shape == (size, npar)
            got = summary.keys_of(through).reshape(size, npar)
            for pos in range(size):
                assert np.array_equal(got[pos], np.flatnonzero(on[pos]))


def _grouping_cases():
    """(points, dim): dense sets (the whole space), near-dense ones (the
    whole space less the points of one subspace, x0 = 1), sparse random
    sets, wide-range ones (a few points of a space with many more keys
    than incidences), and middle dimensions from the incidence table."""
    pg33 = ProjectiveSpace(3, make_field(3, 1))
    rng = np.random.default_rng(21)
    for dim in (1, 2):
        yield PointSet(pg33, np.arange(pg33.num_points)), dim
        gone = pg33.subspace_by_index(dim, 5).point_ranks()
        yield PointSet(pg33, np.setdiff1d(np.arange(pg33.num_points),
                                          gone)), dim
        yield PointSet(pg33, rng.choice(pg33.num_points, 7,
                                        replace=False)), dim
        pg3_16 = ProjectiveSpace(3, make_field(2, 4))
        yield PointSet(pg3_16, rng.choice(pg3_16.num_points, 3,
                                          replace=False)), dim
    pg42 = ProjectiveSpace(4, make_field(2, 1))
    yield PointSet(pg42, np.arange(pg42.num_points)), 2
    yield PointSet(pg42, rng.choice(pg42.num_points, 9, replace=False)), 2


def _recording(ranks_of):
    """(generator, made): ranks_of, with each array it returns appended
    to the list made."""
    made = []

    def generate(r0, r1):
        made.append(ranks_of(r0, r1))
        return made[-1]
    return generate, made


def _check_grouping(summary, ranks, generate, made, regime, tiles):
    """The summary groups ranks as the reference does, with the dtypes
    the summaries promise; generate is the row generator it was given,
    tiles the scan's own tile counter or None, and made lists the arrays
    generate returned while the summary was built.  Every summary's row
    source is generate itself, so no summary keeps its keys: a sorted
    scan was generated once, whole, a scan counted by its own tile
    counter made nothing through it, and one counted by bincounts was
    generated a block at a time.  Rows read after the build, and after
    the sort, still match the reference.  No summary holds an (m, width)
    int32 grid, before its rows are read or after.  Returns how many
    arrays the build generated."""
    keys, sizes, slots = reference_grouping(ranks)
    m, width = ranks.shape
    space = summary.space
    top = min(m, projspace.gaussian_binomial(summary.dim + 1, 1, space.q))
    got_keys = summary.keys_of(np.arange(summary.sizes.size))
    assert got_keys.dtype == np.int64 and np.array_equal(got_keys, keys)
    assert summary.sizes.dtype == projspace._size_dtype(top)
    assert np.array_equal(summary.sizes, sizes)
    assert summary._rows is generate
    built = len(made)
    rows = max(1, projspace._SCAN_BLOCK_BYTES // (8 * width))
    if regime == "sorted":
        assert [arr.shape for arr in made] == [ranks.shape]
    else:
        assert built == (0 if tiles else -(-m // rows))
    assert not _int32_grids(summary, ranks.shape)
    got = stacked_slots(summary)
    assert got.dtype == np.int32 and got.shape == ranks.shape
    assert np.array_equal(got.reshape(-1), slots)
    assert np.array_equal(generate(0, m), ranks)
    assert not _int32_grids(summary, ranks.shape)
    if summary.x0 == 0:
        assert summary._keys is None
    else:
        assert summary._keys.dtype == np.int64
    return built


def test_grouping_regimes_match_the_reference(monkeypatch):
    seen, regimes, grouped = [], [], []
    summarize, choose = projspace._by_point_summary, projspace._grouping_regime
    tiles, runs = projspace._line_tile_counts, projspace._sorted_runs
    monkeypatch.setattr(projspace, "_by_point_summary",
                        lambda *args: seen.append(args))
    # the regime each call chose, and which grouping helper then ran
    monkeypatch.setattr(projspace, "_grouping_regime", lambda *args:
                        regimes.append(choose(*args)) or regimes[-1])
    monkeypatch.setattr(projspace, "_line_tile_counts", lambda *args:
                        grouped.append("tiles") or tiles(*args))
    monkeypatch.setattr(projspace, "_sorted_runs", lambda *args:
                        grouped.append("sorted") or runs(*args))

    def regime_run(tiled):
        (regime,) = regimes
        assert grouped == ({"counted": ["tiles"] if tiled else [],
                            "sorted": ["sorted"]}[regime])
        regimes.clear()
        grouped.clear()
        return regime

    # the hyperplanes of PG(2,7) are its lines: a scan of dim 1 that is
    # not the line scan, which must never be counted as lines
    pg27 = ProjectiveSpace(2, make_field(7, 1))
    planar = PointSet(pg27, np.random.default_rng(37).choice(
        pg27.num_points, 30, replace=False))
    cases = [(pts, dim, subspace_traces) for pts, dim in _grouping_cases()] \
        + [(planar, 1, lambda pts, dim: projspace._scan_hyperplanes(
            pts.space, pts))]
    paths = set()
    for pts, dim, scan in cases:
        seen.clear()
        scan(pts, dim)
        (space, _, _, ranks_of, total, *own), = seen
        tiled = own[0] if own else None
        assert (tiled is not None) == (scan is subspace_traces and dim == 1)
        ranks = ranks_of(0, len(pts))
        size = ranks.size
        # a scan is counted when its count array in the sizes' type is no
        # larger than a sorted copy of its ranks, and, without a tile
        # counter of its own, its int64 bincount fits the byte budget; the
        # sizes' type holds the largest trace, the set or one
        # dim-subspace
        top = min(len(pts), projspace.gaussian_binomial(dim + 1, 1, space.q))
        itemsize = np.dtype(projspace._size_dtype(top)).itemsize
        fits = itemsize * total <= ranks.itemsize * size
        # the byte rule at its edge: a bincount of exactly _COUNT_BYTES
        # is counted, one byte more is not, and a scan with its own tile
        # counter needs no budget
        for under in (True, False):
            budget = 8 * total - (not under)
            # blocks of one row (a budget of one incidence), of seven
            # incidences, a block boundary just before the last row, at
            # the end and past it, and the default
            for step in (1, 7, size - 1, size, size + 1, None):
                with monkeypatch.context() as patch:
                    patch.setattr(projspace, "_COUNT_BYTES", budget)
                    if step is not None:
                        # 8 bytes per incidence of a tail block
                        patch.setattr(projspace, "_SCAN_BLOCK_BYTES",
                                      8 * step)
                    generate, made = _recording(ranks_of)
                    summary = summarize(space, dim, pts, generate, total,
                                        *own)
                    regime = regime_run(tiled)
                    assert regime == ("counted" if fits and (
                        under or tiled) else "sorted")
                    generated = _check_grouping(summary, ranks, generate,
                                                made, regime, tiled)
                paths.add(("generated", min(generated, 2)))
            paths.add((regime, tiled is not None, summary.x0 == 0))
        # at the default budget every case is under it, and a count array
        # larger than the sorted ranks is sorted, not passed over
        summarize(space, dim, pts, ranks_of, total, *own)
        assert regime_run(tiled) == ("counted" if fits else "sorted")
        paths.add(("wide", not fits))
    # the cases reach line scans counted by their tiles, dense and
    # sparse, and sorted; other scans counted and sorted, dense and
    # sparse; builds that generate nothing, the whole scan once, and
    # many blocks; and count arrays both smaller and larger than the
    # sorted ranks.  A dense scan has at least as many incidences as
    # keys, so a dense line scan, which needs no budget, is never
    # sorted.
    assert paths == {(regime, tiled, dense)
                     for regime in ("counted", "sorted")
                     for tiled in (False, True) for dense in (False, True)
                     if not (regime == "sorted" and tiled and dense)} \
        | {("generated", made) for made in (0, 1, 2)} \
        | {("wide", False), ("wide", True)}


def _line_ranks(pts):
    """(ranks, total) of the line scan of pts: its whole row generator's
    array and the number of lines."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(projspace, "_by_point_summary",
                      lambda *args: seen.append(args))
        projspace._scan_lines(pts.space, pts)
    (_, _, _, ranks_of, total, tiles), = seen
    assert tiles is projspace._line_tile_counts
    return ranks_of(0, len(pts)), total


def _window_cases():
    """(points, small): sets of every lead pattern for the line scan's
    tile count: the plane x_0 = 0 (no point leads at column 0) and a random
    half of it, single points (leads 0 and n), whole spaces, sets of
    PG(n, 2), a random third of PG(2, 49), and the shipped cones; small
    is False for the one whose reference grouping takes seconds, which
    runs at the default block budget only."""
    rng = np.random.default_rng(33)
    for n, p, t in ((3, 5, 1), (2, 2, 2), (4, 3, 1)):
        space = ProjectiveSpace(n, make_field(p, t))
        plane = space._offsets[0]
        yield PointSet(space, np.arange(plane)), True
        yield PointSet(space, rng.choice(plane, plane // 2,
                                         replace=False)), True
    for n, p, t in ((3, 7, 1), (2, 3, 2)):
        space = ProjectiveSpace(n, make_field(p, t))
        yield PointSet(space, [0]), True
        yield PointSet(space, [space.num_points - 1]), True
    for n, p, t in ((3, 3, 1), (2, 2, 3), (5, 2, 1)):
        space = ProjectiveSpace(n, make_field(p, t))
        yield PointSet(space, np.arange(space.num_points)), True
    pg42 = ProjectiveSpace(4, make_field(2, 1))
    yield PointSet(pg42, rng.choice(pg42.num_points, 10, replace=False)), True
    pg2_49 = ProjectiveSpace(2, make_field(7, 2))
    yield PointSet(pg2_49, rng.choice(pg2_49.num_points, 817,
                                      replace=False)), True
    for inst in catalogue.load_shipped(["cone_pg3_9", "cone_pg3_49"]):
        yield inst.points, not inst.slow


def test_line_windows_match_the_reference(monkeypatch):
    # the tile count of the counted line scan, which generates the line
    # scan itself, a tile at a time, against the grouping of the scan's
    # whole array
    leads, dense = set(), set()
    for pts, small in _window_cases():
        ranks, total = _line_ranks(pts)
        keys, sizes, _ = reference_grouping(ranks)
        top = min(len(pts), pts.space.q + 1)
        sizes_type = projspace._size_dtype(top)
        leads.add(int((pts.coords() != 0).argmax(axis=1).min()))
        # one column and one row per tile (a budget of one byte), a
        # window of seven keys and tiles of seven offsets, and the
        # default budget
        for budget in (1, 56, None) if small else (None,):
            with monkeypatch.context() as patch:
                if budget is not None:
                    patch.setattr(projspace, "_SCAN_BLOCK_BYTES", budget)
                got_keys, got_sizes = projspace._line_tile_counts(
                    pts.space, pts, total, sizes_type)
            assert got_sizes.dtype == sizes_type
            assert np.array_equal(got_sizes, sizes)
            if got_keys is None:
                # dense: every line occurs, so no keys are returned
                assert np.array_equal(keys, np.arange(total))
            else:
                assert got_keys.dtype == np.int64
                assert np.array_equal(got_keys, keys)
        dense.add(got_keys is None)
    # sets with and without points of lead 0, dense and sparse
    assert {0} < leads and dense == {False, True}


def _perturbed(witness, p0, seed):
    """The witness's set with one point of a (p0+1)-secant swapped for a
    point of that line off the set, and a few random points added."""
    pts = witness.points
    lines = traces_of(pts, 1)
    line = lines.subspace_at(int(np.flatnonzero(lines.sizes == p0 + 1)[0]))
    on = [r for r in line.point_ranks().tolist() if r in pts]
    off = [r for r in line.point_ranks().tolist() if r not in pts]
    rng = np.random.default_rng(seed)
    extra = rng.choice(pts.space.num_points, 12, replace=False).tolist()
    ranks = sorted(set(pts.ranks.tolist()) - {on[0]} | {off[0]} | set(extra))
    return LinearSetWitness(witness.ctx, witness.pi,
                            PointSet(pts.space, ranks), witness.rank)


def _reports(witness, k, p0):
    return (subline_meet_check(witness, p0),
            secant_linearity_check(witness.points, k, p0))


def test_chart_mark_blocks_give_equal_reports(monkeypatch):
    cone, = catalogue.load_shipped(["cone_pg3_9"])
    subgeom = build_family_witness("subgeometry", q=49, p0=7, n=2)
    cases = [(cone.witness, 2, 3), (_perturbed(cone.witness, 3, 1), 2, 3),
             (_perturbed(subgeom, 7, 2), 1, 7)]
    reports = []
    for witness, k, p0 in cases:
        space = witness.points.space
        width = (space.q ** space.n - 1) // (space.q - 1)
        reports.append(_reports(witness, k, p0))
        for rows in (0, 7):
            # the marking pass in blocks of rows points, and the meet
            # sizes in chunks of as many bytes
            for mod in (projspace, linearsets):
                monkeypatch.setattr(mod, "_SCAN_BLOCK_BYTES",
                                    _rows_budget(rows, 64, width))
            assert _reports(witness, k, p0) == reports[-1]
            monkeypatch.undo()
    # the reports are not vacuous: the cone passes both checks, and the
    # perturbed sets fail them
    (meets, secants), (_, cone_secants), (fake_meets, fake_secants) = reports
    assert meets.ok and secants.ok and secants.secants
    assert cone_secants.failures
    assert fake_meets.violations and fake_secants.failures


def _chart_mark_sets(space, rng):
    """(dense, keyed): the space less a tenth of its points, which meets
    every line, and a q-th of its points, which misses some."""
    total = space.num_points
    dense = np.setdiff1d(np.arange(total),
                         rng.choice(total, total // 10, replace=False))
    keyed = rng.choice(total, total // space.q, replace=False)
    return PointSet(space, dense), PointSet(space, keyed)


# PG(2, 64) has 65 chart positions, two words per line
@pytest.mark.parametrize("n,p,t", [(2, 7, 2), (2, 2, 6), (3, 2, 2),
                                   (4, 3, 1), (5, 2, 1)])
def test_chart_marks_match_the_per_incidence_decode(monkeypatch, n, p, t):
    space = ProjectiveSpace(n, make_field(p, t))
    q, width = space.q, (space.q ** n - 1) // (space.q - 1)
    dense, keyed = _chart_mark_sets(space, np.random.default_rng(30 + n))
    for pts, is_dense in ((dense, True), (keyed, False)):
        lines = traces_of(pts, 1)
        assert (lines.x0 == 0) == is_dense
        # the proper secants, the median size, and every slot
        mid = int(np.median(lines.sizes))
        for lo, hi in ((2, q), (mid, mid), (1, q + 1)):
            want_sel = np.flatnonzero((lines.sizes >= lo)
                                      & (lines.sizes <= hi))
            marks = reference_chart_marks(lines, want_sel)
            assert marks.any()
            want = linearsets._bitmasks(marks)
            # one row, seven rows, and the default budget
            for rows in (0, 7, None):
                if rows is not None:
                    monkeypatch.setattr(projspace, "_SCAN_BLOCK_BYTES",
                                        _rows_budget(rows, 64, width))
                sel, words = lines._chart_marks(lo, hi)
                monkeypatch.undo()
                assert sel.dtype == np.int64
                assert np.array_equal(sel, want_sel)
                assert words.dtype == np.uint64
                assert words.shape == (sel.size, -(-(q + 1) // 64))
                assert np.array_equal(words, want)


@pytest.fixture(scope="module")
def dense_27():
    """2,000 seeded points of PG(3,27): they meet every plane, and about
    428,000 of the lines in 2 to 27 points."""
    space = ProjectiveSpace(3, make_field(3, 3))
    pts = PointSet(space, np.random.default_rng(2024).choice(
        space.num_points, 2000, replace=False))
    pts.coords()
    return pts


def _traced_peak(fn, *args):
    """(result, traced peak in bytes above what was live at the call)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_whole_set_reconstruction_memory_is_bounded(monkeypatch):
    # the cone's whole-set reconstruct under a small block budget: the
    # secant search takes a block of base points at a time, and the
    # transversal search a block of secants
    import importlib
    rc = importlib.import_module("blockingsets.reconstruct")
    cone, = catalogue.load_shipped(["cone_pg3_9"])
    pts, k, p0 = cone.points, cone.k, cone.p0
    traces_of(pts, 1).per_point_counts(exact=p0 + 1)
    rc.reconstruct(pts, k, p0, point_policy="all")
    budget = 1 << 14
    monkeypatch.setattr(projspace, "_SCAN_BLOCK_BYTES", budget)
    monkeypatch.setattr(rc, "_SCAN_BLOCK_BYTES", budget)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        results = rc.reconstruct(pts, k, p0, point_policy="all")
        kept, peak = (v - before for v in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    # what the results keep (traces, ys and the objects) is live at the
    # end; above it: a few blocks, the owner, slot and y of every secant,
    # and the uint8 stack of x and the ys with its int64 reduced rows
    through = [r.diagnostics["secants_through_P"] for r in results]
    width, cols = 1 + max(through), spread_context(pts.space).small.n + 1
    stack = len(results) * cols * (width + 8 * min(width, cols))
    bound = 4 * budget + 24 * sum(through) + stack
    assert peak - kept < bound, (peak, kept, bound)


def _held(summary):
    """The arrays a summary holds as attributes."""
    return [v for v in vars(summary).values() if isinstance(v, np.ndarray)]


def _int32_grids(summary, shape):
    """The int32 arrays of the given shape, (m, width), that a summary
    holds as attributes."""
    return [arr for arr in _held(summary)
            if arr.dtype == np.int32 and arr.shape == shape]


def test_hyperplane_scan_memory_is_bounded(dense_27):
    space = dense_27.space
    summary, peak = _traced_peak(projspace._scan_hyperplanes, space,
                                 dense_27)
    assert summary.x0 == 0 and 8 * summary.total <= projspace._COUNT_BYTES
    # until a per-point read the summary holds no array of incidence
    # length: its int32 grid would take 4 bytes per incidence
    incidences = int(summary.sizes.sum())
    kept = sum(arr.nbytes for arr in _held(summary))
    assert kept < incidences * 4 / 10, (kept, incidences)
    # two blocks of the scan, and the count: one tail block's intp copy,
    # the int64 count and one block's bincount; the int32 ranks of the
    # whole scan would not fit, nor one whole last-column group and its
    # u_z gather, nor an intp copy of the whole ranks
    bound = 3 * projspace._SCAN_BLOCK_BYTES + 16 * summary.total
    assert peak - kept < bound, (peak, kept, bound)


def _streamed_cases(dense_27):
    """(points, dim) whose counted scans span more than one block at the
    default budget: the planes of dense_27, which it meets every one of
    (dense), those of dense_27 less the points of one plane (keyed), and
    the planes of PG(4,5) from the incidence table."""
    space = dense_27.space
    plane = projspace._scan_hyperplanes(space, dense_27).subspace_at(0)
    rest = PointSet(space, np.setdiff1d(dense_27.ranks,
                                        plane.point_ranks()))
    pg45 = ProjectiveSpace(4, make_field(5, 1))
    return [(dense_27, 2), (rest, 2),
            (PointSet(pg45, np.arange(pg45.num_points)), 2)]


def test_streamed_grids_match_the_reference(monkeypatch, dense_27):
    seen = []
    summarize = projspace._by_point_summary
    dense = set()
    for pts, dim in _streamed_cases(dense_27):
        space = pts.space
        width = projspace.gaussian_binomial(space.n, dim, space.q)
        with monkeypatch.context() as patch:
            patch.setattr(projspace, "_by_point_summary",
                          lambda *args: seen.append(args) or summarize(*args))
            subspace_traces(pts, dim)
        ranks_of, total = seen.pop()[3:]
        keys, sizes, slots = reference_grouping(ranks_of(0, len(pts)))
        # one row, seven rows, and the default budget, for the count and
        # for the blocks the rows are read in
        for rows in (0, 7, None):
            with monkeypatch.context() as patch:
                if rows is not None:
                    patch.setattr(projspace, "_SCAN_BLOCK_BYTES",
                                  _rows_budget(rows, 8, width))
                summary = summarize(space, dim, pts, ranks_of, total)
                # no array of incidence length until the first read
                assert max(arr.size for arr in _held(summary)) < slots.size
                assert np.array_equal(
                    summary.keys_of(np.arange(summary.sizes.size)), keys)
                assert np.array_equal(summary.sizes, sizes)
                grid = stacked_slots(summary)
                sized = summary.point_sizes()
            assert grid.dtype == np.int32 and grid.shape == (len(pts), width)
            assert np.array_equal(grid.reshape(-1), slots)
            # the size grid is gathered once and kept, read-only; no slot
            # grid is kept beside it
            assert sized.flags.c_contiguous and not sized.flags.writeable
            assert summary.point_sizes() is sized
            assert not _int32_grids(summary, grid.shape)
            pos = len(pts) // 2
            assert np.array_equal(summary.indices_through_point(pos),
                                  grid[pos])
            assert np.array_equal(sized, summary.sizes[grid])
        dense.add(summary.x0 == 0)
    assert dense == {False, True}


def test_stacked_slots_match_the_reference(monkeypatch):
    # the tests' whole grid, stacked from `slot_rows` blocks, against the
    # reference grouping of the scan's whole array, on summaries of both
    # regimes (with no byte budget, no scan but the lines' is counted),
    # read in one block (at the default block budget every case is one)
    # and in blocks of one row (a budget of one byte), dense and sparse;
    # every summary reads its rows off the scan's generator
    seen, regimes = [], []
    summarize, choose = projspace._by_point_summary, projspace._grouping_regime
    monkeypatch.setattr(projspace, "_by_point_summary",
                        lambda *args: seen.append(args) or summarize(*args))
    monkeypatch.setattr(projspace, "_grouping_regime", lambda *args:
                        regimes.append(choose(*args)) or regimes[-1])
    reached = set()
    for pts, dim in _grouping_cases():
        for rows, count in itertools.product((None, 1), (None, 0)):
            with monkeypatch.context() as patch:
                if rows is not None:
                    patch.setattr(projspace, "_SCAN_BLOCK_BYTES", rows)
                if count is not None:
                    patch.setattr(projspace, "_COUNT_BYTES", count)
                summary = subspace_traces(pts, dim)
                ranks_of, tiles = seen[-1][3], seen[-1][5:]
                got = stacked_slots(summary)
            _, _, slots = reference_grouping(ranks_of(0, len(pts)))
            assert summary._rows is ranks_of
            assert got.dtype == np.int32
            assert got.shape == (len(pts), summary.width)
            assert np.array_equal(got.reshape(-1), slots)
            reached.add((regimes[-1], bool(tiles), rows is None,
                         summary.x0 == 0))
    # line scans counted, dense and sparse; other scans counted and
    # sorted, dense and sparse; the sorted line scan of the wide case
    assert reached == {(regime, tiled, one_block, dense)
                       for regime in ("counted", "sorted")
                       for tiled in (False, True)
                       for one_block in (False, True)
                       for dense in (False, True)
                       if not (regime == "sorted" and tiled and dense)}


def test_per_point_readers_memory_is_bounded():
    # the cone's three readers of whole rows, in the order the pipeline
    # meets them: the size grid, the chart marks of every secant, and the
    # secants through every point.  Each reads its slots off the row
    # source a block at a time, so above the size grid and what the
    # calls return there are two blocks and the two arrays of secant
    # incidences the search keeps beside its output, their slots and
    # each line's points (4 bytes each per row it returns, as every
    # position asks); an int32 slot grid, 4 bytes per incidence, does
    # not fit
    inst = catalogue.load_shipped(["cone_pg3_49"])[0]
    pts, q = inst.points, inst.points.space.q
    lines = projspace._scan_lines(pts.space, pts)
    m, width = len(pts), lines.width
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sizes = lines.point_sizes()
        marks = lines._chart_marks(2, q)
        owner, slots, points = lines.secants_through(np.arange(m),
                                                     inst.p0 + 1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sizes.dtype == np.int8 and sizes.shape == (m, width)
    returned = sum(arr.nbytes for arr in (*marks, owner, slots, points))
    bound = sizes.nbytes + returned + 8 * owner.size \
        + 2 * projspace._SCAN_BLOCK_BYTES
    assert peak < bound, (peak, bound)
    assert bound < peak + 4 * m * width
    assert not _int32_grids(lines, (m, width))


def test_keyed_streamed_grid_searches_no_keys(monkeypatch, dense_27):
    # the size grid of a keyed streamed summary gathers each key's slot
    # from a key -> slot table: no search into the stored keys runs
    seen = []
    summarize, search = projspace._by_point_summary, np.searchsorted
    _, (rest, dim), _ = _streamed_cases(dense_27)
    with monkeypatch.context() as patch:
        patch.setattr(projspace, "_by_point_summary",
                      lambda *args: seen.append(args) or summarize(*args))
        summary = subspace_traces(rest, dim)
    ranks_of = seen[-1][3]
    assert summary._point_sizes is None and summary.x0 > 0
    keys = summary._keys

    def refuse(a, v, *args, **kwargs):
        if a is keys:
            raise AssertionError("a search into the stored keys")
        return search(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", refuse)
    grid = summary.point_sizes()
    _, _, slots = reference_grouping(ranks_of(0, len(rest)))
    assert np.array_equal(grid.reshape(-1), summary.sizes[slots])


def test_sorted_spectrum_searches_no_keys(monkeypatch):
    # a keyed summary in the sorted regime (a few points of PG(3,16), far
    # more lines than incidences) makes no search into its keys while the
    # scan and its spectrum run; its rows, read afterwards, still match
    # the reference
    seen, searched = [], []
    summarize, search = projspace._by_point_summary, np.searchsorted
    space = ProjectiveSpace(3, make_field(2, 4))
    pts = PointSet(space, np.random.default_rng(30).choice(
        space.num_points, 5, replace=False))
    monkeypatch.setattr(projspace, "_by_point_summary",
                        lambda *args: seen.append(args) or summarize(*args))
    monkeypatch.setattr(np, "searchsorted", lambda a, v, *args, **kwargs:
                        searched.append(a) or search(a, v, *args, **kwargs))
    summary = subspace_traces(pts, 1)
    spectrum = summary.spectrum()
    ranks_of, total = seen[-1][3:5]
    width = projspace.gaussian_binomial(3, 1, space.q)
    # sorted: a count array over the 70,161 lines, even in int8, would
    # dwarf the sorted int32 copy of the 1,365 incidences
    assert summary.sizes.itemsize * total > 4 * len(pts) * width
    assert not any(np.shares_memory(a, summary._keys) for a in searched)
    assert summary.x0 > 0 and not _int32_grids(summary, (len(pts), width))
    keys, sizes, slots = reference_grouping(ranks_of(0, len(pts)))
    values, counts = np.unique(sizes, return_counts=True)
    assert spectrum == {0: total - keys.size,
                        **dict(zip(values.tolist(), counts.tolist()))}
    assert np.array_equal(summary.keys_of(np.arange(sizes.size)), keys)
    assert np.array_equal(stacked_slots(summary).reshape(-1), slots)


def test_first_grid_read_is_shared_between_threads(dense_27):
    summary = projspace._scan_hyperplanes(dense_27.space, dense_27)
    assert summary._point_sizes is None
    # more readers than cores, switching often: a size grid built twice
    # would reach some reader as a second object
    nthreads = 4
    start = threading.Barrier(nthreads)
    got = [None] * nthreads

    def read(i):
        start.wait(timeout=30)
        got[i] = summary.point_sizes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=read, args=(i,))
                   for i in range(nthreads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert got[0] is not None and all(grid is got[0] for grid in got)


def test_size_counts_match_unique(monkeypatch, dense_27):
    # summaries of their own: each budget counts the sizes afresh
    cone, = catalogue.load_shipped(["cone_pg3_9"])
    lines = subspace_traces(dense_27, 1)
    small = subspace_traces(cone.points, 1)
    # the sizes' type holds the largest trace, here q + 1 points of a
    # line (10 and 28): int8, though the sets have 118 and 2,000 points
    for summary, sizes_type in ((small, np.int8), (lines, np.int8)):
        assert summary.sizes.dtype == sizes_type
        vals, counts = np.unique(summary.sizes, return_counts=True)
        # blocks of one size (the small summary only: half a million
        # one-size blocks would take seconds), of seven, and the default
        for step in (1, 7, None):
            if step == 1 and summary is lines:
                continue
            with monkeypatch.context() as patch:
                if step is not None:
                    patch.setattr(projspace, "_SCAN_BLOCK_BYTES", 8 * step)
                summary._size_counts = None
                got_vals, got_counts = summary.size_counts()
            # the sizes in their own type, int16 at least, and intp
            # counts, as np.unique counts them
            assert got_vals.dtype == np.int16
            assert got_counts.dtype == counts.dtype == np.intp
            assert np.array_equal(got_vals, vals)
            assert np.array_equal(got_counts, counts)
            assert not got_vals.flags.writeable
            assert not got_counts.flags.writeable


def test_size_counts_memory_is_bounded(monkeypatch, dense_27):
    lines = subspace_traces(dense_27, 1)
    top = int(lines.sizes.max())
    assert lines.sizes.size > 500_000
    # blocks of 2^12 sizes
    monkeypatch.setattr(projspace, "_SCAN_BLOCK_BYTES", 8 << 12)
    _, peak = _traced_peak(lines.size_counts)
    # one block's intp copy and its bincount, the count and the distinct
    # sizes; a sorted copy of the sizes (1.1 MB) would not fit
    bound = projspace._SCAN_BLOCK_BYTES + 64 * (top + 1) + 4096
    assert peak < bound, (peak, bound)


def test_line_scan_memory_is_bounded(dense_27, monkeypatch):
    # the line scan's grouping tail in its sorted regime, on the scan's
    # own ranks, which are live before it starts
    space = dense_27.space
    seen = []
    summarize = projspace._by_point_summary
    with monkeypatch.context() as patch:
        patch.setattr(projspace, "_by_point_summary",
                      lambda *args: seen.append(args))
        projspace._scan_lines(space, dense_27)
    (_, dim, _, ranks_of, total, tiles), = seen
    ranks = ranks_of(0, len(dense_27))
    # the lines' int8 count array (0.55 MB) is smaller than their sorted
    # ranks, so they would be counted by their tiles: sort anyway
    monkeypatch.setattr(projspace, "_grouping_regime",
                        lambda *args: "sorted")
    # tail blocks of 2^15 incidences
    monkeypatch.setattr(projspace, "_SCAN_BLOCK_BYTES", 8 << 15)
    # the generator hands out a fresh array, the caller's to sort in
    # place, as the scans do
    summary, peak = _traced_peak(summarize, space, dim, dense_27,
                                 lambda r0, r1: ranks[r0:r1].copy(), total,
                                 tiles)
    assert ranks.dtype == np.int32 and summary.x0 > 0
    nslots = summary.sizes.size
    assert nslots > 500_000
    # one int32 copy of the ranks, generated whole and sorted in place,
    # the int64 keys and the sizes, and a few arrays of one block; a
    # second copy of the ranks beside the first, an intp copy of them,
    # or an int64 count over the key range, would not fit
    bound = ranks.size * 4 + nslots * (8 + summary.sizes.itemsize) \
        + 8 * projspace._SCAN_BLOCK_BYTES
    assert peak < bound, (peak, bound)


def test_sorted_scan_is_dropped_once_counted():
    # the 57 points of the subplane of PG(3,49) meet far fewer lines than
    # the 5.9 M that a count array would pass over, so their line scan is
    # sorted: generated once, whole (57 x 2,451 int32 keys, 0.53 MB),
    # sorted in place, counted and dropped.  What stays live after the
    # scan is what the summary holds, the set's coordinates (cached on the
    # set) and a few small objects; the scan's array does not
    inst, = catalogue.load_shipped(["subplane_pg3_49"])
    pts = inst.points
    regimes = []
    choose = projspace._grouping_regime
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(projspace, "_grouping_regime", lambda *args:
                      regimes.append(choose(*args)) or regimes[-1])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            summary = projspace._scan_lines(pts.space, pts)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert regimes == ["sorted"] and summary.x0 > 0
    scan = len(pts) * summary.width * 4
    bound = sum(arr.nbytes for arr in _held(summary)) \
        + pts.coords().nbytes + (64 << 10)
    assert held < bound < held + scan, (held, bound, scan)


def test_windowed_line_scan_memory_is_bounded(dense_27, monkeypatch):
    # the whole line scan counted by its own tile counter: in key
    # windows as it is generated, a tile at a time, with no sort
    space, m = dense_27.space, len(dense_27)
    regimes = []
    choose = projspace._grouping_regime
    monkeypatch.setattr(projspace, "_grouping_regime", lambda *args:
                        regimes.append(choose(*args)) or regimes[-1])
    # a byte budget of none, which only a bincount over the key range
    # needs (the lines' int64 one would take 4.4 MB), and windows of 2^15
    # keys and tiles of as many intp offsets
    monkeypatch.setattr(projspace, "_COUNT_BYTES", 0)
    monkeypatch.setattr(projspace, "_SCAN_BLOCK_BYTES", 8 << 15)
    summary, peak = _traced_peak(projspace._scan_lines, space, dense_27)
    assert regimes == ["counted"] and summary.x0 > 0
    count_bytes = summary.total * summary.sizes.itemsize
    # the count array in the sizes' type, what the summary holds (its
    # int64 keys and sizes) and two blocks, with a few coordinate rows
    # per point for the scan; the int32 ranks of the whole scan (6.1 MB)
    # would not fit, nor an int64 count over the key range
    bound = count_bytes + sum(a.nbytes for a in _held(summary)) \
        + 2 * projspace._SCAN_BLOCK_BYTES + 256 * m
    assert peak < bound, (peak, bound)


def test_line_scan_generation_memory_is_bounded(dense_27, monkeypatch):
    # the line ranks alone: the grouping tail generates them whole and
    # hands them back unread
    space = dense_27.space
    m, npar = len(dense_27), (space.q ** 3 - 1) // (space.q - 1)
    monkeypatch.setattr(projspace, "_by_point_summary",
                        lambda space, dim, pts, ranks_of, total, tiles:
                        ranks_of(0, len(pts)))
    ranks, peak = _traced_peak(projspace._scan_lines, space, dense_27)
    assert ranks.shape == (m, npar) and ranks.dtype == np.int32
    # the int32 ranks, the int64 temporaries of one block of rows (the
    # last broadcast add writes into the ranks) and per point a few
    # coordinate rows; the 1,919 points that lead at column 0 built whole,
    # an int64 array of 11.2 MB, would not fit
    bound = ranks.nbytes + 2 * projspace._SCAN_BLOCK_BYTES + 256 * m
    assert peak < bound, (peak, bound)


def test_subline_marks_memory_is_bounded(dense_27):
    space = dense_27.space
    base = build_family_witness("random_rank_r", q=27, n=3, r=4, seed=1)
    witness = LinearSetWitness(base.ctx, base.pi, dense_27, base.rank)
    lines = traces_of(dense_27, 1)
    linearsets.subline_patterns(space.field, 3)
    nsel = int(np.count_nonzero((lines.sizes >= 2)
                                & (lines.sizes <= space.q)))
    report, peak = _traced_peak(subline_meet_check, witness)
    assert report.ok and report.secant_lines >= nsel > 400_000
    # per selected line its marks and six int64-sized arrays (pivots,
    # bitmasks, sort order, copies); per slot a mask and its words; the
    # meet sizes of one chunk of lines, and two blocks of the marking pass;
    # a grouping of the lines' points would not fit
    bound = nsel * (space.q + 1 + 6 * 8) + 2 * lines.sizes.size \
        + 2 * linearsets._SCAN_BLOCK_BYTES \
        + 2 * projspace._SCAN_BLOCK_BYTES
    assert peak < bound, (peak, bound)


def test_large_space_profile_memory_is_bounded():
    inst = catalogue.load_shipped(["cone_pg3_49"])[0]
    a = harness.InstanceAnalysis(inst)
    # the line and plane summaries are built before the trace starts
    lines = a.lines()
    a.hyperplanes()
    profile, peak = _traced_peak(lambda: a.large_space_profile)
    q = a.space.q
    nkeys = profile["large_spaces"] * (q * q + q + 1)
    assert lines.x0 == 0 and nkeys == 139_707
    # per line of a large plane its key, its size and three masks, and
    # two int64 copies of the chosen keys (np.unique); four blocks of the
    # lift (the lift, a product and its sum; or the lift, the rank's
    # place values and their product); the 57 planes' int64 lift, 8.9 MB,
    # made three times over would not fit
    bound = nkeys * (8 + lines.sizes.itemsize + 3 + 16) \
        + 4 * projspace._SCAN_BLOCK_BYTES
    assert peak < bound, (peak, bound)


def _row_stack(field, n, rng):
    """A seeded (40, 6, n+1) stack of row sets of mixed ranks: random
    rows, zero rows, repeated rows and rows combined from two others, so
    the sets run from rank 0 to full rank."""
    q = field.q
    stack = rng.integers(0, q, size=(40, 6, n + 1))
    stack[rng.random((40, 6)) < 0.25] = 0
    stack[0] = 0
    stack[1, 1:] = stack[1, 0]
    add, mul, _, _ = field.tables()
    for i in range(2, 40, 3):
        a, b = rng.integers(1, q, size=2)
        stack[i, 2] = add[mul[a, stack[i, 0]], mul[b, stack[i, 1]]]
    return stack


@pytest.mark.parametrize("p,t", [(2, 1), (3, 1), (7, 1), (2, 2), (3, 2)])
@pytest.mark.parametrize("n", [1, 3, 6])
def test_rref_rows_match_the_scalar_rref(monkeypatch, p, t, n):
    field = make_field(p, t)
    space = ProjectiveSpace(n, field)
    stack = _row_stack(field, n, np.random.default_rng(100 * p + 10 * t + n))
    want = [linalg.rref(rows.tolist(), field) for rows in stack]
    assert {len(red) for red, _ in want} >= {0, min(6, n + 1)}
    # one set per block, seven, and the default
    for sets in (1, 7, None):
        with monkeypatch.context() as patch:
            if sets is not None:
                patch.setattr(projspace, "_SCAN_BLOCK_BYTES",
                              sets * 8 * stack[0].size)
            rows, ranks = space.rref_rows(stack.astype(np.uint8))
        assert rows.shape == (40, min(6, n + 1), n + 1)
        assert rows.dtype == np.int64 and ranks.dtype == np.int64
        for got, rank, (red, _) in zip(rows, ranks, want):
            assert rank == len(red)
            assert got[:rank].tolist() == [list(r) for r in red]
            assert not got[rank:].any()


def test_rref_rows_memory_is_bounded():
    space = ProjectiveSpace(7, make_field(7, 1))
    rng = np.random.default_rng(7)
    stack = rng.integers(0, 7, size=(6000, 40, 8), dtype=np.uint8)
    (rows, ranks), peak = _traced_peak(space.rref_rows, stack)
    assert (ranks == 8).all()
    # the reduced rows and ranks, and a few int64 arrays of one block:
    # its copy, its live sets and the table lookups of one column; an
    # int64 copy of the whole stack (15 MB) and its lookups would not fit
    bound = rows.nbytes + ranks.nbytes + 8 * projspace._SCAN_BLOCK_BYTES
    assert 8 * stack.size > bound / 2
    assert peak < bound, (peak, bound)

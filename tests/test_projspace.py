"""Projective spaces: normalization, subspaces, incidence summaries."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockingsets import linalg, projspace
from blockingsets.errors import (BadParamsError, CentreInHyperplaneError,
                                 CentreInSetError, DimensionMismatchError,
                                 EmptyInputError, NotHyperplaneError,
                                 RangeError, TooLargeError)
from blockingsets.fields import make_field
from blockingsets.projspace import (PointSet, ProjectiveSpace, Subspace,
                                    gaussian_binomial, meet, project, span,
                                    subspace_traces)


def pg(n, p, t=1):
    return ProjectiveSpace(n, make_field(p, t))


@pytest.mark.parametrize("m,r,q,value", [
    (3, 1, 3, 13),          # points of PG(2,3)
    (3, 1, 9, 91),          # points of PG(2,9)
    (4, 1, 9, 820),         # points of PG(3,9)
    (4, 2, 9, 7462),        # lines of PG(3,9)
    (4, 3, 9, 820),         # planes of PG(3,9), dual to points
    (4, 2, 49, 5887302),    # lines of PG(3,49)
    (2, 1, 5, 6),
    (5, 3, 2, 155),
])
def test_gaussian_binomial(m, r, q, value):
    assert gaussian_binomial(m, r, q) == value


def test_gaussian_binomial_symmetry():
    for m in range(1, 6):
        for r in range(m + 1):
            assert gaussian_binomial(m, r, 3) == gaussian_binomial(m, m - r, 3)


def test_point_enumeration_and_rank_roundtrip():
    space = pg(2, 3, 2)
    assert space.num_points == 91
    seen = set()
    for rank in range(space.num_points):
        coords = space.coords_of(rank)
        nz = next(c for c in coords if c)
        assert nz == 1, "representatives are left-normalized"
        assert space.rank_of(coords) == rank
        seen.add(coords)
    assert len(seen) == 91
    assert space.coords_of(0) == (0, 0, 1)


def test_normalize_scaling_invariance():
    space = pg(3, 7)
    f = space.field
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = tuple(int(x) for x in rng.integers(0, 7, size=4))
        if not any(v):
            continue
        lam = int(rng.integers(1, 7))
        w = tuple(f.mul(lam, x) for x in v)
        assert space.normalize(v) == space.normalize(w)
    with pytest.raises(EmptyInputError):
        space.normalize((0, 0, 0, 0))


def test_ranks_from_rows_matches_scalar_path():
    space = pg(2, 3, 2)
    rng = np.random.default_rng(11)
    rows = rng.integers(0, 9, size=(60, 3))
    rows[rows.sum(axis=1) == 0, 0] = 1
    bulk = space.ranks_from_rows(rows)
    for row, rank in zip(rows, bulk):
        assert space.rank_of(space.normalize(tuple(int(x) for x in row))) \
            == int(rank)
    with pytest.raises(EmptyInputError):
        space.ranks_from_rows(np.zeros((2, 3), dtype=np.int64))


def test_spaces_are_cached():
    assert pg(2, 3, 2) is pg(2, 3, 2)
    assert pg(2, 3, 2) is not pg(3, 3, 2)


def test_subspace_canonical_under_regeneration():
    space = pg(3, 3)
    rng = np.random.default_rng(3)
    base = Subspace(space, [(1, 0, 0, 2), (0, 1, 1, 0)])
    f = space.field
    for _ in range(25):
        a, b = rng.integers(0, 3, size=2)
        c, d = rng.integers(1, 3, size=2)
        r1 = [f.add(f.mul(int(c), x), f.mul(int(a), y))
              for x, y in zip(base.rows[0], base.rows[1])]
        r2 = [f.add(f.mul(int(b), x), f.mul(int(d), y))
              for x, y in zip(base.rows[0], base.rows[1])]
        again = Subspace(space, [r1, r2])
        if again.dim == base.dim:
            assert again.rows == base.rows
            assert again == base
    assert base.dim == 1
    assert len(base.point_ranks()) == 4


def test_subspace_point_ranks_count():
    space = pg(3, 3)
    for dim in range(4):
        sub = space.subspace_by_index(dim, 0)
        assert len(sub.point_ranks()) == gaussian_binomial(dim + 1, 1, 3)


def test_subspace_enumeration_bijective():
    space = pg(2, 2, 2)     # PG(2,4)
    for dim in (0, 1, 2):
        total = space.num_subspaces(dim)
        seen = set()
        for idx in range(total):
            sub = space.subspace_by_index(dim, idx)
            assert sub.dim == dim
            seen.add(sub.rows)
        assert len(seen) == total
    assert space.num_subspaces(1) == 21


def test_span_meet_dimension_formula():
    space = pg(3, 3)
    rng = np.random.default_rng(7)
    for _ in range(40):
        ra = rng.integers(0, 3, size=(2, 4))
        rb = rng.integers(0, 3, size=(2, 4))
        if not ra.any(axis=1).all() or not rb.any(axis=1).all():
            continue
        a, b = Subspace(space, ra), Subspace(space, rb)
        joined = span(space, a, b)
        cut = meet(a, b)
        lhs = (cut.dim if cut else -1) + joined.dim
        assert lhs == a.dim + b.dim
        if cut is not None:
            for r in cut.rows:
                assert a.contains(r) and b.contains(r)
    with pytest.raises(EmptyInputError):
        span(space)


def test_meet_skew_lines_is_none():
    space = pg(3, 2)
    a = Subspace(space, [(1, 0, 0, 0), (0, 1, 0, 0)])
    b = Subspace(space, [(0, 0, 1, 0), (0, 0, 0, 1)])
    assert meet(a, b) is None


def test_hyperplane_covector_roundtrip():
    space = pg(3, 3, 2)
    rng = np.random.default_rng(13)
    for _ in range(20):
        u = tuple(int(x) for x in rng.integers(0, 9, size=4))
        if not any(u):
            continue
        h = space.hyperplane(u)
        assert h.dim == 2
        v = space.covector_of(h)
        assert space.normalize(u) == space.normalize(v)
    line = Subspace(space, [(1, 0, 0, 0), (0, 1, 0, 0)])
    with pytest.raises(NotHyperplaneError):
        space.covector_of(line)


def test_pointset_set_algebra():
    space = pg(2, 3)
    a = PointSet(space, [5, 1, 3, 1])
    assert list(a.ranks) == [1, 3, 5]
    assert len(a) == 3 and 3 in a and 2 not in a
    b = PointSet(space, [3, 7])
    assert list(a.union(b).ranks) == [1, 3, 5, 7]
    assert list(a.intersection(b).ranks) == [3]
    assert list(a.difference(b).ranks) == [1, 5]
    assert a.mask().sum() == 3
    with pytest.raises(RangeError):
        PointSet(space, [13])
    assert a == PointSet(space, [5, 3, 1])
    assert a != PointSet(space, [5, 3])


def test_restriction_chart_roundtrip():
    space = pg(3, 3)
    plane = space.hyperplane((1, 2, 0, 1))
    inner = PointSet(space, plane.point_ranks())
    small, chart = inner.restrict_to(plane)
    assert chart.small.n == 2
    assert len(small) == chart.small.num_points == 13
    for rank in list(small)[:6]:
        amb = chart.to_ambient(chart.small.coords_of(rank))
        assert plane.contains(amb)
        assert chart.small.rank_of(chart.to_small(amb)) == rank
    outside = PointSet(space, [r for r in range(space.num_points)
                               if r not in inner][:3])
    with pytest.raises(BadParamsError):
        outside.restrict_to(plane)


def test_projection_injective_off_secants():
    # project a planar set from a point off its plane: bijective image
    space = pg(3, 3)
    plane = space.hyperplane((0, 0, 0, 1))
    pts = PointSet(space, plane.point_ranks()[:7])
    centre = (1, 1, 1, 1)
    target = space.hyperplane((1, 0, 0, 0))
    image = project(pts, centre, target)
    assert len(image) == len(pts)
    for r in image:
        assert target.contains(space.coords_of(r))
    with pytest.raises(CentreInSetError):
        project(pts, space.coords_of(int(pts.ranks[0])), target)
    on_plane_off_set = space.coords_of(int(plane.point_ranks()[-1]))
    with pytest.raises(CentreInHyperplaneError):
        project(pts, on_plane_off_set, plane)


def brute_force_sizes(space, pts, dim):
    mask = pts.mask()
    out = []
    for idx in range(space.num_subspaces(dim)):
        sub = space.subspace_by_index(dim, idx)
        out.append(int(mask[sub.point_ranks()].sum()))
    return sorted(out)


@pytest.mark.parametrize("dim", [1, 2])
def test_traces_match_brute_force(dim):
    space = pg(3, 2)
    rng = np.random.default_rng(29)
    ranks = rng.choice(space.num_points, size=6, replace=False)
    pts = PointSet(space, ranks)
    summary = subspace_traces(pts, dim)
    fast = sorted([0] * summary.x0 + [int(s) for s in summary.sizes])
    assert fast == brute_force_sizes(space, pts, dim)


def test_trace_summary_accessors(baer):
    pts = baer.points
    lines = subspace_traces(pts, 1)
    assert lines.total == 91
    assert lines.x0 + lines.sizes.size == 91
    spec = lines.spectrum()
    assert spec == {1: 78, 4: 13}
    assert int(lines.sizes.sum()) == 78 + 13 * 4    # incidence count
    per_point = lines.per_point_counts(exact=4)
    assert per_point.tolist() == [4] * 13
    tangents = lines.per_point_counts(min_size=1) \
        - lines.per_point_counts(min_size=2)
    assert tangents.tolist() == [6] * 13
    four = list(lines.subspaces_with_size(4))
    assert len(four) == 13
    for idx, sub in four[:4]:
        assert lines.subspace_at(idx) == sub
        got = pts.intersection(PointSet(pts.space, sub.point_ranks()))
        assert len(got) == 4
    pos0 = lines.indices_through_point(0)
    assert pos0.size == 10
    sizes = sorted(int(lines.sizes[i]) for i in pos0)
    assert sizes == [1] * 6 + [4] * 4


def test_trace_modes_agree():
    # the planes of PG(3,3) from the hyperplane scan and from the rows of
    # the incidence table, whose keys are enumeration indices in any
    # dimension (decoded here through the table's bases)
    space = pg(3, 3)
    rng = np.random.default_rng(31)
    pts = PointSet(space, rng.choice(space.num_points, size=11,
                                     replace=False))
    planes_dual = subspace_traces(pts, 2)
    planes_full = projspace._scan_full(space, pts, 2)
    a = sorted([0] * planes_dual.x0 + [int(s) for s in planes_dual.sizes])
    b = sorted([0] * planes_full.x0 + [int(s) for s in planes_full.sizes])
    assert a == b

    def plane_sets(summary, plane_at):
        assert np.all(np.diff(summary.keys) > 0)
        out = {}
        for idx in range(summary.sizes.size):
            plane = plane_at(idx)
            on = pts.ranks[summary.points_of(idx)]
            assert on.size == summary.sizes[idx]
            assert np.array_equal(
                on, np.intersect1d(plane.point_ranks(), pts.ranks))
            out[plane.rows] = tuple(on.tolist())
        return out
    assert plane_sets(planes_dual, planes_dual.subspace_at) == plane_sets(
        planes_full, lambda idx: space.subspace_by_index(
            2, int(planes_full.keys[idx])))


def _reference_line_rank(space, rows):
    """The dense rank of a canonical 2-row line basis from its definition:
    the cells of pivot columns (c1, c2), c2 descending then c1 descending,
    each holding q^(free digits) lines, then the free digits as a base-q
    numeral, row 2's first, lower columns first."""
    n, q = space.n, space.q
    c1, c2 = (next(c for c, x in enumerate(r) if x) for r in rows)
    rank = 0
    for d2 in range(n, c2, -1):
        rank += sum(q ** (2 * n - d2 - d1 - 1) for d1 in range(d2))
    for d1 in range(c2 - 1, c1, -1):
        rank += q ** (2 * n - c2 - d1 - 1)
    local = 0
    for c in range(c2 + 1, n + 1):
        local = local * q + rows[1][c]
    for c in range(c1 + 1, n + 1):
        if c != c2:
            local = local * q + rows[0][c]
    return rank + local


def _packed_line_keys(space, bases):
    """The base-q packed keys that lines had before their dense ranks:
    the entries of row 1 then row 2, lowest place first."""
    flat = np.asarray(bases).reshape(len(bases), -1)
    return flat @ space.q ** np.arange(flat.shape[1], dtype=np.int64)


def test_packed_line_keys_roundtrip():
    space = pg(3, 3, 2)
    pts = PointSet(space, np.arange(25, dtype=np.int64) * 7)
    lines = subspace_traces(pts, 1)
    sel = np.arange(min(40, lines.sizes.size))
    bulk = space.line_bases(lines.keys[sel])
    assert np.array_equal(lines.bases(sel), bulk)
    assert np.array_equal(space.line_keys(bulk), lines.keys[sel])
    for pos in sel.tolist():
        assert _reference_line_rank(space, bulk[pos].tolist()) \
            == lines.keys[pos]
        sub = lines.subspace_at(pos)
        assert Subspace(space, bulk[pos]) == sub
    # witness order is the order of the packed keys
    every = np.arange(lines.sizes.size)
    packed = _packed_line_keys(space, lines.bases(every))
    assert np.array_equal(lines.witness_order(every[::-1]),
                          np.argsort(packed))
    assert lines.witness_order(every[:0]).size == 0
    planes = subspace_traces(pts, 2)
    assert np.array_equal(planes.witness_order(every[:9][::-1]),
                          every[:9][::-1])


# PG(2,4), PG(3,3), PG(4,2), PG(2,8), PG(3,4)
LINE_SPACES = [(2, 2, 2), (3, 3, 1), (4, 2, 1), (2, 2, 3), (3, 2, 2)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_line_rank_is_invariant_under_row_operations(data):
    n, p, t = data.draw(st.sampled_from(LINE_SPACES))
    space = pg(n, p, t)
    q = space.q
    add, mul, _, _ = space.field.tables()
    vec = st.lists(st.integers(0, q - 1), min_size=n + 1, max_size=n + 1)
    a, b = np.asarray(data.draw(vec)), np.asarray(data.draw(vec))
    # two distinct points span a line
    pa = space.normalize(a) if a.any() else None
    pb = space.normalize(b) if b.any() else None
    if pa is None or pb is None or pa == pb:
        with pytest.raises((BadParamsError, EmptyInputError)):
            space.line_keys(np.stack([a, b])[None])
        return
    key = int(space.line_keys(np.stack([a, b])[None])[0])
    alpha, beta = data.draw(st.integers(1, q - 1)), \
        data.draw(st.integers(1, q - 1))
    gamma = data.draw(st.integers(0, q - 1))
    variants = [[b, a], [mul[alpha, a], mul[beta, b]],
                [a, add[b, mul[gamma, a]]], [add[a, mul[gamma, b]], b]]
    assert space.line_keys(np.asarray(variants)).tolist() == [key] * 4
    line = projspace._line_of(space, pa, pb)
    assert int(space.line_keys(np.asarray([line.rows]))[0]) == key
    assert space.line_bases([key])[0].tolist() == [list(r) for r in line.rows]
    # any rank unranks to canonical rows that rank back to it
    rank = data.draw(st.integers(0, space.num_subspaces(1) - 1))
    rows = space.line_bases([rank])
    assert Subspace(space, rows[0].tolist()).rows == \
        tuple(map(tuple, rows[0].tolist()))
    assert space.line_keys(rows).tolist() == [rank]


@pytest.mark.parametrize("n,p,t", LINE_SPACES)
def test_line_ranks_cover_every_line_once(n, p, t):
    space = pg(n, p, t)
    every = np.arange(space.num_subspaces(1))
    bases = space.line_bases(every)
    assert np.array_equal(space.line_keys(bases), every)
    enumerated = np.asarray([sub.rows for sub in space.subspaces(1)])
    assert np.array_equal(np.sort(space.line_keys(enumerated)), every)
    for bad in (-1, every.size):
        with pytest.raises(RangeError):
            space.line_bases([bad])


def test_line_ranks_refuse_more_lines_than_int64_holds():
    space = pg(31, 2)
    assert space.num_subspaces(1) < 2 ** 63 < pg(32, 2).num_subspaces(1)
    # the last line: pivots at columns 0 and 1, every free digit 1
    top = np.ones((1, 2, 32), dtype=np.int64)
    top[0, 0, 1] = top[0, 1, 0] = 0
    assert space.line_keys(top).tolist() == [space.num_subspaces(1) - 1]
    assert np.array_equal(space.line_bases([space.num_subspaces(1) - 1]), top)
    with pytest.raises(TooLargeError):
        pg(32, 2).line_keys(np.eye(2, 33, dtype=np.int64)[None])


@pytest.mark.parametrize("n,p,t", [(3, 3, 2), (3, 7, 2), (2, 3, 3)])
def test_line_keys_are_canonical(n, p, t):
    space = pg(n, p, t)
    q = space.q
    add, mul, _, _ = space.field.tables()
    rng = np.random.default_rng(q)
    stacks, want = [], []
    while len(want) < 300:
        rows = rng.integers(0, q, size=(2, n + 1))
        if rng.random() < 0.3:
            rows[:, :rng.integers(1, n + 1)] = 0    # later leading columns
        try:
            line = Subspace(space, rows.tolist())
        except EmptyInputError:
            continue
        if line.dim != 1:
            continue
        key = _reference_line_rank(space, line.rows)
        a, b = rows
        alpha, beta = (int(x) for x in rng.integers(1, q, size=2))
        gamma = int(rng.integers(0, q))
        for variant in (rows, rows[::-1], np.asarray(line.rows),
                        [mul[alpha, a], mul[beta, b]],
                        [a, add[b, mul[gamma, a]]],
                        [add[mul[alpha, a], mul[gamma, b]], b]):
            stacks.append(np.asarray(variant))
            want.append(key)
    assert np.array_equal(space.line_keys(np.stack(stacks)),
                          np.asarray(want))
    with pytest.raises(BadParamsError):
        space.line_keys(np.stack([stacks[0], [stacks[0][0]] * 2]))
    with pytest.raises(BadParamsError):
        space.line_keys(np.zeros((1, 2, n + 1), dtype=np.int64))


def test_cached_arrays_are_read_only():
    space, middle = pg(3, 3), pg(4, 2)
    pts = PointSet(space, [0, 5, 17, 30, 31])
    arrays = [pts.ranks, pts.mask(), pts.coords(), space.coords_array()]
    # lines, hyperplanes, a middle dimension (the incidence table) and
    # dim = n
    summaries = [subspace_traces(pts, 1), subspace_traces(pts, 2),
                 subspace_traces(PointSet(middle, [0, 5, 17, 30]), 2),
                 subspace_traces(pts, 3)]
    arrays.append(middle.incidence(2))
    for summary in summaries:
        groupings = summary.by_subspace() + summary.by_point()
        assert groupings[0].dtype == groupings[2].dtype == np.int32
        arrays += [summary.keys, summary.sizes, *groupings,
                   *summary.size_counts(),
                   summary.per_point_counts(min_size=1)]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 0


def _reference_incidence(space, dim, chunk_bytes=None):
    """The incidence table and bases as first built: one Subspace per
    subspace, the points of each by table passes over its basis and
    ranks_from_rows, grouped by point with a stable argsort.  With
    chunk_bytes the point rows are built a chunk of subspaces at a time,
    each chunk's buffer at most that many bytes (at least one subspace)."""
    stack = np.asarray([sub.rows for sub in space._subspaces_all(dim)],
                       dtype=np.int64)
    add, mul, _, _ = space.field.tables()
    params = ProjectiveSpace(dim, space.field).coords_array() \
        if dim >= 1 else np.ones((1, 1), dtype=np.int64)
    npar = len(params)
    step = len(stack) if chunk_bytes is None else \
        max(1, chunk_bytes // (npar * (space.n + 1) * 8))
    on = np.empty((len(stack), npar), dtype=np.int64)
    for lo in range(0, len(stack), step):
        hi = min(lo + step, len(stack))
        acc = np.zeros((hi - lo, npar, space.n + 1), dtype=np.int64)
        for j in range(dim + 1):
            acc = add[acc, mul[params[None, :, j, None],
                               stack[lo:hi, None, j, :]]]
        on[lo:hi] = space.ranks_from_rows(acc)
    through = np.argsort(on.reshape(-1), kind="stable") // npar
    return through.astype(np.int32).reshape(space.num_points, -1), stack


REFERENCE_TABLES = [
    *[(4, 2, 1, None, d) for d in range(5)],
    *[(4, 3, 1, None, d) for d in range(5)],
    *[(5, 2, 1, None, d) for d in range(6)],
    *[(3, 2, 2, None, d) for d in range(4)],       # PG(3,4)
    (4, 5, 1, None, 2),                             # the benchmark's planes
    (3, 2, 3, None, 1),                             # PG(3,8)
    (3, 3, 2, (1, 0, 1), 1),                        # GF(9) mod x^2 + 1
]


@pytest.mark.parametrize(
    "n,p,t,modulus,dim", REFERENCE_TABLES,
    ids=[f"{n}-{p}-{t}-{dim}" + ("-x2+1" if mod else "")
         for n, p, t, mod, dim in REFERENCE_TABLES])
def test_incidence_table_matches_reference_construction(
        monkeypatch, n, p, t, modulus, dim):
    space = ProjectiveSpace(n, make_field(p, t, modulus))
    monkeypatch.setattr(space, "_incidence", {})
    monkeypatch.setattr(space, "_bases", {})
    want, bases = _reference_incidence(space, dim)
    got = space.incidence(dim)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert space._bases[dim].dtype == bases.dtype
    assert np.array_equal(space._bases[dim], bases)


@pytest.mark.parametrize("budget", [1, 4096])
@pytest.mark.parametrize("n,q,dim", [(4, 2, 2), (4, 3, 2), (5, 2, 2),
                                     (5, 2, 3)])
def test_incidence_table_does_not_depend_on_the_chunk_size(
        monkeypatch, n, q, dim, budget):
    # the reference built a chunk of subspaces at a time: a budget of 1
    # byte builds one subspace at a time; 4096 bytes leaves a shorter last
    # chunk in each of these spaces; the closed form matches both
    space = pg(n, q)
    monkeypatch.setattr(space, "_incidence", {})
    monkeypatch.setattr(space, "_bases", {})
    want, bases = _reference_incidence(space, dim, chunk_bytes=budget)
    got = space.incidence(dim)
    assert got is not want and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(space._bases[dim], bases)


def test_incidence_dimension_out_of_range():
    space = pg(4, 3)
    for dim in (-1, 5):
        with pytest.raises(RangeError):
            space.incidence(dim)
        with pytest.raises(RangeError):
            space.subspace_by_index(dim, 0)


def test_subspace_index_out_of_range():
    space = pg(4, 3)
    last = space.num_subspaces(2) - 1
    assert space.subspace_by_index(2, last).dim == 2
    for idx in (-1, last + 1, 10 ** 6):
        with pytest.raises(RangeError):
            space.subspace_by_index(2, idx)


def test_subspaces_through_matches_brute_force():
    # a point (given by its rank), a line and a plane of PG(3,3); at dim 3
    # each must yield the whole space, once
    space = pg(3, 3)
    whole = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    for through, sub in ((5, span(space, 5)),
                         (space.line_through(0, 7),) * 2,
                         (space.hyperplane((1, 2, 0, 1)),) * 2):
        for dim in range(4):
            got = [s.rows for s in space.subspaces(dim, through=through)]
            want = [s.rows for s in space.subspaces(dim)
                    if all(s.contains(r) for r in sub.rows)]
            assert sorted(got) == sorted(want)
        assert [s.rows for s in space.subspaces(3, through=through)] == [
            whole]


def test_subspace_space_mismatch():
    a, b = pg(2, 3), pg(3, 3)
    with pytest.raises(DimensionMismatchError):
        span(a, Subspace(b, [(1, 0, 0, 0)]))


def test_space_needs_field_tables():
    # every field has tables: one of order 2^11 is refused when it is made
    for _ in range(2):                     # nothing half-built was kept
        with pytest.raises(RangeError):
            ProjectiveSpace(2, make_field(2, 11))


def test_normalize_rejects_codes_outside_field():
    space = pg(2, 3, 2)
    for bad in ((0, 1, 9), (0, -1, 2)):
        with pytest.raises(RangeError):
            space.normalize(bad)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_rank_coords_round_trip(data):
    """rank_of/coords_of, coords_of_ranks and ranks_from_rows agree, also on
    rows scaled by a nonzero field element."""
    space = pg(*data.draw(st.sampled_from(
        [(2, 2, 3), (3, 3, 2), (4, 3, 1), (3, 7, 2)])))
    field = space.field
    top = space.num_points - 1
    ranks = data.draw(st.lists(st.integers(0, top), min_size=1,
                               max_size=20)) + [0, top]
    scales = data.draw(st.lists(st.integers(1, space.q - 1),
                                min_size=len(ranks), max_size=len(ranks)))
    bulk = space.coords_of_ranks(ranks)
    for r, row, s in zip(ranks, bulk.tolist(), scales):
        assert tuple(row) == space.coords_of(r)
        assert space.rank_of(row) == r
        scaled = [field.mul(s, c) for c in row]
        assert space.normalize(scaled) == tuple(row)
        assert space.rank_of(scaled) == r
    assert space.ranks_from_rows(bulk, normalized=True).tolist() == ranks
    _, mul, _, _ = field.tables()
    scaled = mul[bulk, np.asarray(scales)[:, None]]
    assert np.array_equal(space.normalize_rows(scaled), bulk)
    assert space.ranks_from_rows(scaled).tolist() == ranks


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_line_through_matches_rref(data):
    space = pg(*data.draw(st.sampled_from(
        [(2, 2, 3), (3, 3, 2), (4, 3, 1), (5, 3, 1), (3, 2, 2)])))
    field = space.field
    ra = data.draw(st.integers(0, space.num_points - 1))
    rb = data.draw(st.one_of(st.just(ra),
                             st.integers(0, space.num_points - 1)))
    scale = data.draw(st.integers(1, space.q - 1))
    a = space.coords_of(ra)
    b = tuple(field.mul(scale, c) for c in space.coords_of(rb))
    if ra == rb:
        with pytest.raises(BadParamsError):
            space.line_through(a, b)
        return
    line = space.line_through(a, b)
    want = Subspace(space, (a, b))
    assert line.rows == want.rows and line.pivots == want.pivots
    assert line == space.line_through(rb, ra)


def test_coords_of_ranks_matches_coords_of():
    for space in (pg(2, 2, 2), pg(3, 3), pg(4, 2), pg(2, 7, 2)):
        ranks = np.arange(space.num_points)
        assert np.array_equal(space.coords_of_ranks(ranks),
                              space.coords_array())
        grid = space.coords_of_ranks(ranks[::-3].reshape(-1, 1))
        assert grid.shape == (ranks[::-3].size, 1, space.n + 1)
        assert grid[:, 0].tolist() == [
            list(space.coords_of(int(r))) for r in ranks[::-3]]
    with pytest.raises(RangeError):
        pg(2, 3).coords_of_ranks([13])


@pytest.mark.parametrize("n,q", [(4, 2), (4, 3), (5, 2)])
def test_subspace_by_index_matches_the_incidence_bases(n, q):
    space = pg(n, q)
    for dim in range(n + 1):
        space.incidence(dim)
        bases = space._bases[dim]
        for idx in range(space.num_subspaces(dim)):
            sub = space.subspace_by_index(dim, idx)
            assert sub.rows == tuple(map(tuple, bases[idx].tolist()))


def test_subspace_by_index_decodes_without_the_table(monkeypatch):
    # the plane table of PG(4,9) is over its caps, so only the arithmetic
    # decoding of the index can reach these planes
    space = pg(4, 3, 2)
    monkeypatch.setattr(space, "_incidence", {})
    monkeypatch.setattr(space, "_bases", {})
    with pytest.raises(TooLargeError):
        space.incidence(2)
    lo = 0
    for pivots, cells in space._cells(2):
        size = 9 ** len(cells)
        for idx, fill in ((lo, 0), (lo + size - 1, 8)):
            sub = space.subspace_by_index(2, idx)
            assert sub.dim == 2 and sub.pivots == pivots
            assert Subspace(space, sub.rows).rows == sub.rows
            assert [sub.rows[i][c] for i, c in cells] == [fill] * len(cells)
        lo += size
    assert lo == space.num_subspaces(2)
    assert space._incidence == {} and space._bases == {}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_rref_is_canonical_under_row_operations(data):
    field = make_field(*data.draw(st.sampled_from([(2, 2), (7, 1), (3, 2)])))
    q = field.q
    width = data.draw(st.integers(2, 6))
    row = st.lists(st.integers(0, q - 1), min_size=width, max_size=width)
    mat = data.draw(st.lists(row, min_size=1, max_size=5))
    want = linalg.rref(mat, field)
    i = data.draw(st.integers(0, len(mat) - 1))
    j = data.draw(st.integers(0, len(mat) - 1))
    scale = data.draw(st.integers(1, q - 1))
    coeff = data.draw(st.integers(0, q - 1))
    combo = data.draw(st.lists(st.integers(0, q - 1), min_size=len(mat),
                               max_size=len(mat)))

    def axpy(c, x, y):
        # y + c x, entrywise
        return [field.add(b, field.mul(c, a)) for a, b in zip(x, y)]
    swapped = list(mat)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    scaled = list(mat)
    scaled[i] = [field.mul(scale, a) for a in mat[i]]
    sheared = list(mat)
    if i != j:
        sheared[j] = axpy(coeff, mat[i], mat[j])
    inside = [0] * width
    for c, r in zip(combo, mat):
        inside = axpy(c, r, inside)
    for variant in (swapped, scaled, sheared, mat + [inside]):
        assert linalg.rref(variant, field) == want

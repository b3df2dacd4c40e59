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
                                    SubspaceChart, gaussian_binomial, meet,
                                    project, span, subspace_traces)

from linalg_reference import left_kernel, residual
import projspace_reference
from trace_reference import grouped_points, stacked_slots


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
    for m, q in ((-1, 3), (3, 1)):
        with pytest.raises(RangeError):
            gaussian_binomial(m, 1, q)


def test_point_enumeration_and_rank_roundtrip():
    space = pg(2, 3, 2)
    assert space.num_points == 91
    seen = set()
    for rank in range(space.num_points):
        coords = space.coords_of(rank)
        assert coords == projspace_reference.coords_of(space, rank)
        nz = next(c for c in coords if c)
        assert nz == 1, "representatives are left-normalized"
        assert space.rank_of(coords) == rank
        assert projspace_reference.rank_of(space, coords) == rank
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
        row = tuple(int(x) for x in row)
        want = projspace_reference.normalize(space, row)
        assert space.normalize(row) == want
        assert projspace_reference.rank_of(space, want) == int(rank)
        assert space.rank_of(row) == int(rank)
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


HYPERPLANE_SPACES = [(2, 3, 2, None), (3, 2, 2, None), (4, 3, 1, None),
                     (2, 3, 2, (1, 0, 1))]


@pytest.mark.parametrize(
    "n,p,t,modulus", HYPERPLANE_SPACES,
    ids=[f"{n}-{p}-{t}" + ("-x2+1" if mod else "")
         for n, p, t, mod in HYPERPLANE_SPACES])
def test_hyperplane_and_covector_match_the_kernel_reference(n, p, t,
                                                            modulus):
    # the reference: the hyperplane u . x = 0 is the left kernel of the
    # column u, and a hyperplane's covector spans the left kernel of its
    # basis columns
    space = ProjectiveSpace(n, make_field(p, t, modulus))
    field = space.field
    for u in space.coords_array().tolist():
        want = Subspace(space, left_kernel([[c] for c in u], field))
        got = space.hyperplane(u)
        assert got.rows == want.rows and got.pivots == want.pivots
        ker = left_kernel([list(col) for col in zip(*got.rows)], field)
        assert space.covector_of(got) == tuple(u) == space.normalize(ker[0])
        # any multiple of u names the same hyperplane
        scaled = [field.mul(field.q - 1, c) for c in u]
        assert space.hyperplane(scaled) == got


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


def test_mismatched_inputs_are_refused():
    space, other = pg(3, 3), pg(3, 2)
    plane = space.hyperplane((0, 0, 0, 1))
    foreign = other.hyperplane((0, 0, 0, 1))
    pts = PointSet(space, plane.point_ranks()[:7])
    line = space.line_through((1, 0, 0, 0), (0, 1, 0, 0))
    with pytest.raises(NotHyperplaneError):
        project(pts, (1, 1, 1, 1), line)
    with pytest.raises(DimensionMismatchError):
        meet(plane, foreign)
    with pytest.raises(DimensionMismatchError):
        list(space.subspaces(2, through=foreign))
    with pytest.raises(DimensionMismatchError):
        space.rref_rows(np.zeros((2, 2, 3), dtype=np.int64))
    with pytest.raises(RangeError):
        SubspaceChart(Subspace(space, [(1, 0, 0, 0)]))
    # rows of another length, of unequal lengths, no rows, and only zero
    # rows
    for rows in ([(1, 0, 0)], [(1, 0, 0, 0), (0, 1, 0)]):
        with pytest.raises(DimensionMismatchError):
            Subspace(space, rows)
    with pytest.raises(DimensionMismatchError):
        space.normalize([(1, 0), (1,)])
    for rows in ([], [(0, 0, 0, 0)] * 2):
        with pytest.raises(EmptyInputError):
            Subspace(space, rows)
    with pytest.raises(BadParamsError):
        SubspaceChart(plane).to_small((0, 0, 0, 1))


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
    four = np.flatnonzero(lines.sizes == 4)
    assert four.size == 13
    for idx in four[:4]:
        sub = lines.subspace_at(int(idx))
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
        assert np.all(np.diff(summary.keys_of(
            np.arange(summary.sizes.size))) > 0)
        out = {}
        points, offsets = grouped_points(
            summary, np.arange(summary.sizes.size))
        for idx in range(summary.sizes.size):
            plane = plane_at(idx)
            on = pts.ranks[points[offsets[idx]:offsets[idx + 1]]]
            assert on.size == summary.sizes[idx]
            assert np.array_equal(
                on, np.intersect1d(plane.point_ranks(), pts.ranks))
            out[plane.rows] = tuple(on.tolist())
        return out
    assert plane_sets(planes_dual, planes_dual.subspace_at) == plane_sets(
        planes_full, lambda idx: space.subspace_by_index(
            2, int(planes_full.keys_of([idx])[0])))


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
    bulk = space.subspace_bases(1, lines.keys_of(sel))
    assert np.array_equal(lines.bases(sel), bulk)
    assert np.array_equal(space.line_keys(bulk), lines.keys_of(sel))
    for pos in sel.tolist():
        assert _reference_line_rank(space, bulk[pos].tolist()) \
            == lines.keys_of([pos])[0]
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
    line = Subspace(space, [pa, pb])
    assert int(space.line_keys(np.asarray([line.rows]))[0]) == key
    assert space.subspace_bases(1, [key])[0].tolist() == [
        list(r) for r in line.rows]
    # any rank unranks to canonical rows that rank back to it
    rank = data.draw(st.integers(0, space.num_subspaces(1) - 1))
    rows = space.subspace_bases(1, [rank])
    assert Subspace(space, rows[0].tolist()).rows == \
        tuple(map(tuple, rows[0].tolist()))
    assert space.line_keys(rows).tolist() == [rank]


# PG(2,4), PG(3,3), PG(4,2), PG(4,3), PG(5,2): one numbering for every
# dimension
NUMBERING_SPACES = [(2, 2, 2), (3, 3, 1), (4, 2, 1), (4, 3, 1), (5, 2, 1)]


@pytest.mark.parametrize("n,p,t", LINE_SPACES + [(4, 3, 1), (5, 2, 1)])
def test_line_ranks_cover_every_line_once(n, p, t):
    space = pg(n, p, t)
    every = np.arange(space.num_subspaces(1))
    bases = space.subspace_bases(1, every)
    assert np.array_equal(space.line_keys(bases), every)
    # the enumeration lists the lines in line-rank order
    enumerated = np.asarray([sub.rows for sub in space.subspaces(1)])
    assert np.array_equal(enumerated, bases)
    assert np.array_equal(space.line_keys(enumerated), every)
    for bad in (-1, every.size):
        with pytest.raises(RangeError):
            space.subspace_bases(1, [bad])


@pytest.mark.parametrize("n,p,t", NUMBERING_SPACES)
def test_point_keys_are_point_ranks(n, p, t):
    space = pg(n, p, t)
    every = list(range(space.num_points))
    want = [space.coords_of(r) for r in every]
    assert [space.subspace_by_index(0, r).rows[0] for r in every] == want
    assert [sub.rows[0] for sub in space.subspaces(0)] == want
    assert np.array_equal(space.subspace_bases(0, every)[:, 0],
                          space.coords_array())


@pytest.mark.parametrize("n,p,t", [s for s in NUMBERING_SPACES if s[0] > 3])
def test_middle_dimension_keys_are_places_in_the_enumeration(n, p, t):
    space = pg(n, p, t)
    rng = np.random.default_rng(7)
    pts = PointSet(space, rng.choice(space.num_points,
                                     size=space.num_points // 5,
                                     replace=False))
    for dim in range(2, n - 1):
        summary = subspace_traces(pts, dim)
        sel = np.arange(summary.sizes.size)
        keys = summary.keys_of(sel)
        bases = summary.bases(sel)
        assert np.array_equal(bases, space.subspace_bases(dim, keys))
        every = list(space.subspaces(dim))
        assert [every[key].rows for key in keys.tolist()] == [
            tuple(map(tuple, rows)) for rows in bases.tolist()]
        assert [np.intersect1d(every[key].point_ranks(), pts.ranks).size
                for key in keys.tolist()] == summary.sizes.tolist()


def test_subspace_traces_refusals(monkeypatch):
    space = pg(4, 2)
    pts = PointSet(space, [0, 5, 17, 30])
    for dim in (0, space.n + 1):
        with pytest.raises(RangeError):
            subspace_traces(pts, dim)
    with pytest.raises(EmptyInputError):
        subspace_traces(PointSet(space, []), 1)
    # a middle dimension whose incidence table passes the cap is refused,
    # whether or not the table is already built
    table = space.num_subspaces(2) * gaussian_binomial(3, 1, 2)
    monkeypatch.setattr(projspace, "_INCIDENCE_CAP", table - 1)
    with pytest.raises(TooLargeError):
        subspace_traces(pts, 2)


@pytest.mark.parametrize("n,p,t", [(2, 3, 1), (3, 2, 2), (4, 2, 1)])
def test_points_of_ranks_each_basis_of_a_stack(n, p, t):
    space = pg(n, p, t)
    for dim in range(n + 1):
        keys = np.arange(0, space.num_subspaces(dim), 7)
        bases = space.subspace_bases(dim, keys)
        got = space.points_of(bases)
        assert got.shape == (keys.size,
                             gaussian_binomial(dim + 1, 1, space.q))
        for row, rows in zip(got, bases.tolist()):
            assert np.array_equal(np.sort(row),
                                  Subspace(space, rows).point_ranks())
    # any leading shape: a (2, 3) stack of lines
    bases = space.subspace_bases(1, np.arange(6)).reshape(2, 3, 2, n + 1)
    assert np.array_equal(space.points_of(bases).reshape(6, -1),
                          space.points_of(bases.reshape(6, 2, n + 1)))


@pytest.mark.parametrize("n,p,t,dim", [(3, 2, 2, 2), (3, 3, 1, 2),
                                        (4, 2, 1, 3), (4, 2, 1, 2)])
def test_lines_inside_are_the_lines_of_each_subspace(monkeypatch, n, p, t,
                                                      dim):
    space = pg(n, p, t)
    subs = list(space.subspaces(dim))
    bases = np.asarray([sub.rows for sub in subs])
    line_points = [set(Subspace(space, rows).point_ranks().tolist())
                   for rows in space.subspace_bases(
                       1, np.arange(space.num_subspaces(1))).tolist()]
    want = []
    for sub in subs:
        inside = set(sub.point_ranks().tolist())
        want.append([j for j, on in enumerate(line_points) if on <= inside])
    # column j lifts line j of PG(dim, q) through the chart, reduced
    chart = SubspaceChart(subs[-1])
    small = chart.small.subspace_bases(
        1, np.arange(chart.small.num_subspaces(1)))
    lifted = [Subspace(space, [chart.to_ambient(r) for r in rows]).rows
              for rows in small.tolist()]
    nlines = small.shape[0]
    # one subspace per block, three (no count here is a multiple of
    # three), and the default
    for per_block in (1, 3, None):
        with monkeypatch.context() as patch:
            if per_block is not None:
                patch.setattr(projspace, "_SCAN_BLOCK_BYTES",
                              per_block * 16 * (n + 1) * nlines)
            got = space.lines_inside(bases)
        assert got.shape == (len(subs), nlines) and len(subs) % 3
        assert [sorted(row) for row in got.tolist()] == want
        assert got[-1].tolist() == space.line_keys(np.asarray(lifted)).tolist()


def test_line_ranks_refuse_more_lines_than_int64_holds():
    space = pg(31, 2)
    assert space.num_subspaces(1) < 2 ** 63 < pg(32, 2).num_subspaces(1)
    # the last line: pivots at columns 0 and 1, every free digit 1
    top = np.ones((1, 2, 32), dtype=np.int64)
    top[0, 0, 1] = top[0, 1, 0] = 0
    assert space.line_keys(top).tolist() == [space.num_subspaces(1) - 1]
    assert np.array_equal(
        space.subspace_bases(1, [space.num_subspaces(1) - 1]), top)
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
        # the rows read, an int32 row of the subspaces through each point,
        # and the size grid of the same shape, the one kept
        m = len(summary.pts)
        grid = stacked_slots(summary)
        space = summary.space
        assert grid.dtype == np.int32 and grid.flags.c_contiguous
        assert grid.shape == (m, gaussian_binomial(
            space.n, summary.dim, space.q))
        assert summary.point_sizes().shape == grid.shape
        arrays += [summary.sizes, summary.point_sizes(),
                   *summary.size_counts(),
                   summary.per_point_counts(min_size=1)]
        # a row read is read-only, like every array a summary hands out
        assert not summary.slot_rows(0, m).flags.writeable
        # only a summary that misses some subspace stores its keys
        assert (summary._keys is None) == (summary.x0 == 0)
        if summary.x0:
            arrays.append(summary._keys)
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 0


def _open_parts(value, where):
    """The places in a cached result that a caller could change: every
    reachable writeable array and every container other than a tuple."""
    if isinstance(value, np.ndarray):
        return [where] if value.flags.writeable else []
    if isinstance(value, tuple):
        return [part for i, item in enumerate(value)
                for part in _open_parts(item, f"{where}[{i}]")]
    if isinstance(value, (int, str, type(None))):
        return []
    return [f"{where}: a {type(value).__name__}"]


def test_every_cached_public_result_is_closed(baer):
    from blockingsets.blocking import traces_of
    from blockingsets.linearsets import subline_patterns
    from blockingsets.spreads import spread_context
    results = []
    for p, t, sub in ((3, 2, 1), (7, 2, 1), (3, 3, 1), (2, 4, 2)):
        field = make_field(p, t)
        results += [(f"{field!r}.tables()", field.tables()),
                    (f"{field!r}.embedding({sub})", field.embedding(sub)),
                    (f"subline_patterns({field!r}, {p ** sub})",
                     subline_patterns(field, p ** sub))]
        # after a scalar op, whatever it may have cached on the spec
        field.mul(1, 1)
        results += [(f"{field!r}.{name}", value)
                     for name, value in vars(field).items()
                     if name != "_embeddings"]
    space = pg(3, 3, 2)
    ctx = spread_context(space)
    results += [(f"spread_context.{name}", getattr(ctx, name)) for name in
                ("_reps", "_place", "_blow_tables")]
    # the spread maps hand out fresh arrays: a write into one is not seen
    # by the next call
    for call in (lambda: ctx.element_ranks(5),
                 lambda: ctx.blow_up_ranks([5, 30]),
                 lambda: ctx.blow_down_ranks([0, 5, 400])):
        before = call()
        call()[...] = 0
        assert np.array_equal(call(), before)
    pts = PointSet(space, [0, 5, 17, 30, 31, 400])
    middle = PointSet(pg(4, 2), [0, 5, 17, 30])
    results += [("ranks", pts.ranks), ("mask", pts.mask()),
                ("coords", pts.coords()),
                ("coords_array", space.coords_array()),
                ("incidence", middle.space.incidence(2))]
    for summary in (traces_of(pts, 1), traces_of(pts, 2),
                    traces_of(middle, 2)):
        label = f"traces_of(dim {summary.dim})"
        results += [(f"{label}.sizes", summary.sizes),
                    (f"{label}.size_counts()", summary.size_counts()),
                    (f"{label}.slot_rows(0, m)",
                     summary.slot_rows(0, len(summary.pts))),
                    (f"{label}.point_sizes()", summary.point_sizes()),
                    (f"{label}.per_point_counts()",
                     summary.per_point_counts(min_size=1)),
                    (f"{label}.indices_through_point(0)",
                     summary.indices_through_point(0))]
    # the results of one reconstruction share their W
    from blockingsets.reconstruct import reconstruct
    shared = reconstruct(baer.points, 1, 3, point_policy="all")
    assert shared[0].W is shared[1].W
    results.append(("reconstruct(...)[0].W.point_ranks()",
                    shared[0].W.point_ranks()))
    assert [part for where, value in results
            for part in _open_parts(value, where)] == []


def test_a_write_into_a_cached_table_raises_and_leaves_verdicts(tmp_path):
    from blockingsets import blocking_report, catalogue, formats
    from blockingsets.linearsets import subline_patterns
    field = make_field(3, 2)
    add, mul, neg, inv = field.tables()
    for table in (add, mul):
        with pytest.raises(ValueError):
            table[1, [1, 2]] = table[1, [2, 1]]       # swap two entries
    for table in (neg, inv):
        with pytest.raises(ValueError):
            table[[1, 2]] = table[[2, 1]]
    mat, _ = subline_patterns(field, 3)
    with pytest.raises(ValueError):
        mat[0] = ~mat[0]
    path = str(tmp_path / "cone.pts")
    formats.write_pointset(path, catalogue.build_witness("cone_pg3_9").points)
    report = blocking_report(formats.read_pointset(path), 2)
    assert (report.is_blocking, report.minimal, report.exponent) == \
        (True, True, 1)


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
    want, bases = _reference_incidence(space, dim)
    got = space.incidence(dim)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # the table's indices decode to the reference's bases
    decoded = space.subspace_bases(dim, np.arange(space.num_subspaces(dim)))
    assert decoded.dtype == bases.dtype and np.array_equal(decoded, bases)


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
    want, bases = _reference_incidence(space, dim, chunk_bytes=budget)
    got = space.incidence(dim)
    assert got is not want and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(
        space.subspace_bases(dim, np.arange(space.num_subspaces(dim))), bases)


def test_incidence_dimension_out_of_range():
    space = pg(4, 3)
    for dim in (-1, 5):
        with pytest.raises(RangeError):
            space.incidence(dim)
        with pytest.raises(RangeError):
            space.subspace_by_index(dim, 0)
        with pytest.raises(RangeError):
            next(space.subspaces(dim))


def test_subspace_index_out_of_range():
    space = pg(4, 3)
    last = space.num_subspaces(2) - 1
    assert space.subspace_by_index(2, last).dim == 2
    for idx in (-1, last + 1, 10 ** 6):
        with pytest.raises(RangeError):
            space.subspace_by_index(2, idx)
    # the solids of PG(7,1024) number over 2^63, past int64 indices
    huge = pg(7, 2, 10)
    assert huge.num_subspaces(3) >= 2 ** 63
    with pytest.raises(TooLargeError):
        huge.subspace_by_index(3, 0)
    with pytest.raises(TooLargeError):
        huge.coords_array()


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


@pytest.mark.parametrize("n,p,t", [(3, 3, 1), (3, 2, 2), (4, 2, 1)])
def test_subspaces_through_match_the_scalar_lift(n, p, t):
    # a point, a line and (in PG(4,2)) a plane pivoting off column 0, so
    # the quotient's columns are neither the first nor the last ones
    space = pg(n, p, t)
    pad = (0,) * (n - 3)
    point = space.rank_of((0, 1, 1, 1) + pad)
    bases = [span(space, point),
             span(space, (0, 1, 1, 0) + pad, (0, 0, 0, 1) + (1,) * (n - 3))]
    if n == 4:
        bases.append(span(space, (0, 1, 0, 0, 1), (0, 0, 1, 0, 1),
                          (0, 0, 0, 1, 1)))
    assert [b.pivots for b in bases] == [(1,), (1, 3), (1, 2, 3)][:len(bases)]
    for base in bases:
        through = point if base.dim == 0 else base
        inside = set(base.point_ranks().tolist())
        for dim in range(base.dim + 1, n + 1):
            got = list(space.subspaces(dim, through=through))
            assert got == list(
                projspace_reference.subspaces_through(space, dim, base))
            assert set(got) == {
                sub for sub in space.subspaces(dim)
                if inside <= set(sub.point_ranks().tolist())}


def test_subspace_space_mismatch():
    a, b = pg(2, 3), pg(3, 3)
    with pytest.raises(DimensionMismatchError):
        span(a, Subspace(b, [(1, 0, 0, 0)]))
    # a point set of another space with the same n is refused too
    with pytest.raises(DimensionMismatchError):
        span(a, PointSet(pg(2, 5), [30, 10]))


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
    for short in ((0, 1), 1):
        with pytest.raises(DimensionMismatchError):
            space.normalize(short)


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
    assert space.ranks_from_rows(bulk).tolist() == ranks
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
    # every point of PG(2,4) and PG(3,3), one rank at a time
    for space in (pg(2, 2, 2), pg(3, 3)):
        assert space.coords_of_ranks(np.arange(space.num_points)).tolist() \
            == [list(space.coords_of(r)) for r in range(space.num_points)]
    # the first and last rank of each lead's block of PG(7,7): the q^(7-l)
    # points of lead l follow the blocks of the leads after it
    space, q = pg(7, 7), 7
    first = [(q ** (7 - lead) - 1) // (q - 1) for lead in range(8)]
    ends = first + [start + q ** (7 - lead) - 1
                    for lead, start in enumerate(first)]
    bulk = space.coords_of_ranks(ends)
    assert bulk.tolist() == [list(space.coords_of(r)) for r in ends]
    assert (bulk != 0).argmax(axis=1).tolist() == list(range(8)) * 2


@pytest.mark.parametrize("n,q", [(4, 2), (4, 3), (5, 2)])
def test_subspace_by_index_matches_the_incidence_bases(n, q):
    # the incidence table indexes the subspaces in the order of
    # `_subspaces_all`; the bulk decoder and subspace_by_index follow it
    space = pg(n, q)
    for dim in range(n + 1):
        want = [sub.rows for sub in space._subspaces_all(dim)]
        bulk = space.subspace_bases(dim, np.arange(len(want)))
        assert bulk.shape == (len(want), dim + 1, n + 1)
        assert [tuple(map(tuple, rows)) for rows in bulk.tolist()] == want
        assert [space.subspace_by_index(dim, idx).rows
                for idx in range(len(want))] == want


def test_subspace_by_index_decodes_without_the_table(monkeypatch):
    # the plane table of PG(4,9) is over its caps, so only the arithmetic
    # decoding of the index can reach these planes
    space = pg(4, 3, 2)
    monkeypatch.setattr(space, "_incidence", {})
    with pytest.raises(TooLargeError):
        space.incidence(2)
    lo, ends = 0, []
    for pivots, cells in space._cells(2):
        size = 9 ** len(cells)
        for idx, fill in ((lo, 0), (lo + size - 1, 8)):
            sub = space.subspace_by_index(2, idx)
            assert sub.dim == 2 and sub.pivots == pivots
            assert Subspace(space, sub.rows).rows == sub.rows
            assert [sub.rows[i][c] for i, c in cells] == [fill] * len(cells)
            ends.append((idx, sub.rows))
        lo += size
    assert lo == space.num_subspaces(2)
    # the bulk decoder gives the same bases at every cell boundary at once
    bulk = space.subspace_bases(2, [idx for idx, _ in ends][::-1])
    assert [tuple(map(tuple, rows)) for rows in bulk.tolist()] == [
        rows for _, rows in ends][::-1]
    for bad in ([-1], [lo], [0, lo], [lo + 10 ** 6]):
        with pytest.raises(RangeError):
            space.subspace_bases(2, bad)
    assert space._incidence == {}


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


def test_line_through_needs_no_line_rank():
    # PG(7, 2^10) has more lines than int64 holds, so lines there have no
    # rank; line_through still reduces the pair to its canonical basis
    space = pg(7, 2, 10)
    a, b = (0, 5, 1000, 3, 0, 0, 1, 2), (1, 0, 0, 0, 7, 9, 1023, 0)
    with pytest.raises(TooLargeError):
        space.line_keys([[a, b]])
    line = space.line_through(a, b)
    want = Subspace(space, [a, b])
    assert line.rows == want.rows and line.pivots == want.pivots
    rows, ranks = space.rref_rows([[a, b]])
    assert ranks.tolist() == [2]
    assert rows.tolist() == [list(map(list, want.rows))]


# -- the scalar loops the batched combination kernel replaced, kept as
# references --------------------------------------------------------------


def _ref_combine(field, coeff, rows):
    vec = [0] * len(rows[0])
    for c, row in zip(coeff, rows):
        if c:
            for j, x in enumerate(row):
                vec[j] = field.add(vec[j], field.mul(c, x))
    return tuple(vec)


def _ref_meet(a, b):
    field = a.space.field
    stacked = [list(r) for r in a.rows] + [list(r) for r in b.rows]
    ker = left_kernel(stacked, field)
    if not ker:
        return None
    return Subspace(a.space, [_ref_combine(field, combo[:len(a.rows)], a.rows)
                              for combo in ker])


def _ref_point_ranks(sub):
    params = ProjectiveSpace(sub.dim, sub.space.field)
    return sorted(sub.space.rank_of(_ref_combine(
        sub.space.field, params.coords_of(r), sub.rows))
        for r in range(params.num_points))


def _ref_project(pts, centre, hyperplane):
    space = pts.space
    field = space.field
    u = space.covector_of(hyperplane)

    def dot(x):
        acc = 0
        for a, b in zip(u, x):
            acc = field.add(acc, field.mul(a, b))
        return acc
    uc = dot(centre)
    image = []
    for r in pts:
        v = space.coords_of(r)
        ur = dot(v)
        image.append(space.rank_of(
            [field.sub(field.mul(uc, x), field.mul(ur, y))
             for x, y in zip(v, centre)]))
    return PointSet(space, image)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_combination_kernels_match_scalar_references(data):
    # q in {4, 8, 9, 25}
    p, t = data.draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (5, 2)]))
    space = pg(data.draw(st.integers(2, 3)), p, t)
    field, n = space.field, space.n

    def subspace(lo, hi):
        dim = data.draw(st.integers(lo, hi))
        idx = data.draw(st.integers(0, space.num_subspaces(dim) - 1))
        return space.subspace_by_index(dim, idx)
    a, b = subspace(1, n - 1), subspace(0, n - 1)
    assert meet(a, b) == _ref_meet(a, b)
    assert a.point_ranks().tolist() == _ref_point_ranks(a)
    chart = projspace.SubspaceChart(a)
    coeffs = data.draw(st.lists(
        st.lists(st.integers(0, field.q - 1), min_size=a.dim + 1,
                 max_size=a.dim + 1), min_size=2, max_size=6))
    want = [_ref_combine(field, c, a.rows) for c in coeffs]
    assert [chart.to_ambient(c) for c in coeffs] == want
    assert chart.lift_rows(coeffs).tolist() == [list(w) for w in want]
    # leading axes of any shape
    grid = chart.lift_rows(np.asarray(coeffs[:2])[:, None, :])
    assert grid.shape == (2, 1, n + 1)
    assert grid[:, 0].tolist() == [list(w) for w in want[:2]]
    # a projection from a centre off the set and off the hyperplane
    hyper = subspace(n - 1, n - 1)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    pts = PointSet(space, rng.choice(space.num_points, 12, replace=False))
    off = np.setdiff1d(np.arange(space.num_points),
                       np.union1d(pts.ranks, hyper.point_ranks()))
    centre = space.coords_of(int(off[data.draw(
        st.integers(0, off.size - 1))]))
    assert project(pts, centre, hyper) == _ref_project(pts, centre, hyper)
    # a point on and a point off each drawn subspace: membership against
    # the scalar residual
    for sub in (a, b, hyper):
        on = sub.point_ranks()
        off = np.setdiff1d(np.arange(space.num_points), on)
        for pool, want in ((on, True), (off, False)):
            v = space.coords_of(int(pool[data.draw(
                st.integers(0, pool.size - 1))]))
            assert (not any(residual(v, sub.rows, sub.pivots, field))) \
                == want
            assert sub.contains(v) == want


@pytest.mark.parametrize("fixture", ["baer", "cone_9"])
def test_coordinate_gather_decodes_above_the_cap(request, monkeypatch,
                                                 fixture):
    from blockingsets.blocking import traces_of
    from blockingsets.linearsets import (LinearSetWitness,
                                         line_param_positions,
                                         subline_meet_check)
    witness = request.getfixturevalue(fixture)
    space = witness.points.space
    lines = [traces_of(witness.points, 1).subspace_at(int(i))
             for i in np.flatnonzero(
                 traces_of(witness.points, 1).sizes >= 2)[:8]]
    on_lines = [line.point_ranks() for line in lines]

    def gathered():
        pts = PointSet(space, witness.points.ranks)
        fresh = LinearSetWitness(witness.ctx, witness.pi, pts, witness.rank)
        traces_of.cache_clear()
        return (pts.coords().tolist(),
                [line_param_positions(line, ranks).tolist()
                 for line, ranks in zip(lines, on_lines)],
                subline_meet_check(fresh))
    want = gathered()
    # with no space under the cap, every gather decodes ranks
    monkeypatch.setattr(projspace, "_COORDS_CAP", 0)
    assert gathered() == want
    traces_of.cache_clear()

"""Witness reconstruction from subline secants, span pairs, secant bounds."""

import itertools
import json
from collections.abc import Sequence
from fractions import Fraction

import numpy as np
import pytest

from blockingsets.cli import main as cli_main
from blockingsets.errors import (BadParamsError, NoSublineSecantError,
                                 NotBlockingError)
from blockingsets.fields import make_field
from blockingsets.formats import write_pointset
from blockingsets.linearsets import enumerate_sublines, random_rank_r_witness
from blockingsets.blocking import traces_of
from blockingsets.projspace import PointSet, ProjectiveSpace, Subspace, span
from blockingsets.reconstruct import (check_span_lemma, reconstruct,
                                      secant_count_bounds)
from blockingsets.spreads import spread_context


def test_reconstruct_baer(baer):
    res = reconstruct(baer.points, 1, 3)
    assert res.success and res.status == "ok"
    assert res.dim_W == 2 and res.image_equal
    assert res.P == int(baer.points.ranks[0])
    assert res.x == int(baer.ctx.element_ranks(res.P).min())
    assert len(res.secants_used) == 4 == len(res.transversals)
    assert res.diagnostics["secants_through_P"] == 4
    assert res.diagnostics["skipped_non_sublines"] == 0
    assert res.diagnostics["target_dim"] == 2
    assert baer.ctx.linear_set_of(res.W) == baer.points
    for trace in res.secants_used:
        assert len(trace) == 4 and res.P in trace
    for ell in res.transversals:
        assert ell.dim == 1 and res.x in ell.point_ranks()


def test_result_sequences_are_read_only(baer):
    res = reconstruct(baer.points, 1, 3)
    for seq, kind in ((res.secants_used, PointSet),
                      (res.transversals, Subspace)):
        assert isinstance(seq, Sequence) and len(seq) == 4
        items = list(seq)
        assert all(isinstance(item, kind) for item in items)
        assert seq[0] == items[0] and seq[-1] == items[3]
        assert seq[1:3] == items[1:3] and items[2] in seq
        with pytest.raises(IndexError):
            seq[4]
        with pytest.raises(TypeError):
            seq[0] = items[1]


def test_reconstruct_rank4(rank4_27):
    res = reconstruct(rank4_27.points, 1, 3)
    assert res.success and res.dim_W == 3
    assert rank4_27.ctx.linear_set_of(res.W) == rank4_27.points


def test_reconstruct_subgeometry_49(subgeom_49):
    res = reconstruct(subgeom_49.points, 1, 7)
    assert res.success and res.dim_W == 2 and res.image_equal


def test_reconstruct_cone(cone_9):
    res = reconstruct(cone_9.points, 2, 3)
    assert res.success and res.dim_W == 4
    assert res.diagnostics["target_dim"] == 4
    assert len(res.secants_used) == 36
    assert cone_9.ctx.linear_set_of(res.W) == cone_9.points


def _result_fields(res):
    return (res.P, res.x, res.W, res.dim_W, res.image_equal, res.status,
            list(res.secants_used), list(res.transversals), res.diagnostics)


def test_reconstruct_first_builds_no_grid(tmp_path):
    # "first" on the PG(3,49) cone read back from a file, as a fresh
    # process meets it: the line scan is counted in key windows as it is
    # generated, and the search reads blocks of rows and then the base
    # point's row, with no size grid; the result is that of the same
    # call once the size grid is built
    from blockingsets import catalogue
    from blockingsets.formats import read_pointset
    inst, = catalogue.load_shipped(["cone_pg3_49"])
    path = str(tmp_path / "cone.pts")
    write_pointset(path, inst.points)
    pts = read_pointset(path)
    traces_of.cache_clear()
    res = reconstruct(pts, inst.k, inst.p0, point_policy="first")
    lines = traces_of(pts, 1)
    assert lines._point_sizes is None
    assert res.success and len(res.secants_used)
    lines.point_sizes()
    assert _result_fields(reconstruct(pts, inst.k, inst.p0)) \
        == _result_fields(res)


def test_reconstruct_all_points(baer):
    results = reconstruct(baer.points, 1, 3, point_policy="all")
    assert len(results) == 13
    assert sorted(r.P for r in results) == [int(x) for x in baer.points.ranks]
    for res in results:
        assert res.success and res.image_equal
        assert baer.ctx.linear_set_of(res.W) == baer.points


def test_reconstruct_guards(baer):
    with pytest.raises(BadParamsError):
        reconstruct(baer.points, 1, 9)
    with pytest.raises(BadParamsError):
        reconstruct(baer.points, 1, 3, point_policy="median")
    with pytest.raises(BadParamsError):     # h*k = 6 > 5, the small side
        reconstruct(baer.points, 3, 3)
    space = baer.points.space
    subline = PointSet(space, baer.points.ranks[:4])
    with pytest.raises(NotBlockingError):
        reconstruct(subline, 1, 3)
    line = PointSet(space, Subspace(
        space, [(1, 0, 0), (0, 1, 0)]).point_ranks())
    with pytest.raises(NoSublineSecantError):
        reconstruct(line, 1, 3)


def _line_and_subline():
    """A blocking line of PG(2,9) plus the subline of a crossing line."""
    space = ProjectiveSpace(2, make_field(3, 2))
    ell = Subspace(space, [(1, 0, 0), (0, 1, 0)])
    m = Subspace(space, [(1, 0, 0), (0, 0, 1)])
    z = space.rank_of((1, 0, 0))
    sub = next(s for s in enumerate_sublines(m, 3) if z in s)
    return space, ell, m, z, sub


def test_reconstruct_span_too_small():
    space, ell, m, z, sub = _line_and_subline()
    extras = [int(r) for r in sub.ranks if r != z]
    pts = PointSet(space, list(ell.point_ranks()) + extras)
    res = reconstruct(pts, 1, 3)
    assert not res.success and res.status == "span too small"
    assert res.dim_W == 1 and not res.image_equal


def test_reconstruct_proper_subset(baer, tmp_path, capsys):
    # a point off the subplane adds no secant, so every base point still
    # rebuilds the subplane, whose image misses the new point
    rng = np.random.default_rng(0)
    space = baer.points.space
    extra = int(rng.choice(np.setdiff1d(np.arange(space.num_points),
                                        baer.points.ranks)))
    pts = PointSet(space, list(baer.points.ranks) + [extra])
    results = reconstruct(pts, 1, 3, point_policy="all")
    assert len(results) == 13
    for res in results:
        assert res.status == "image is a proper subset" and not res.success
        assert res.dim_W == 2 and not res.image_equal
        assert baer.ctx.linear_set_of(res.W) == baer.points
    path = str(tmp_path / "baer_plus.pts")
    write_pointset(path, pts)
    assert cli_main(["reconstruct", path, "--k", "1", "--p0", "3"]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "image is a proper subset"
    assert record["image_equal"] is False


def test_reconstruct_span_too_large_and_image_differs():
    # two rank-4 GF(2)-linear sets of PG(2,8): from most base points the
    # secants span a line, from one they span two witnesses at once, and
    # from another a plane of the wrong linear set
    a, b = (random_rank_r_witness(8, 2, 4, seed) for seed in (0, 2))
    pts = PointSet(a.points.space,
                   np.union1d(a.points.ranks, b.points.ranks))
    ctx = spread_context(pts.space)
    by_status = {}
    for res in reconstruct(pts, 1, 2, point_policy="all"):
        by_status.setdefault(res.status, []).append(res)
    assert {s: len(r) for s, r in by_status.items()} == {
        "span too small": 18, "span too large": 1, "image differs": 1}
    (large,), (differs,) = by_status["span too large"], \
        by_status["image differs"]
    assert large.dim_W > 3 and not large.image_equal
    assert differs.dim_W == 3
    image = ctx.linear_set_of(differs.W)
    assert set(image.ranks.tolist()) - set(pts.ranks.tolist())
    assert set(pts.ranks.tolist()) - set(image.ranks.tolist())


def test_reconstruct_skips_non_subline_secants():
    space, ell, m, z, sub = _line_and_subline()
    on_sub = [int(r) for r in sub.ranks if r != z]
    spoiler = next(int(r) for r in m.point_ranks()
                   if r != z and r not in sub)
    pts = PointSet(space, list(ell.point_ranks()) + on_sub[:2] + [spoiler])
    res = reconstruct(pts, 1, 3)
    assert res.status == "no secant trace is a subline"
    assert res.W is None and res.dim_W is None and not res.success
    assert res.diagnostics["skipped_non_sublines"] == 1
    assert len(res.diagnostics["skipped"]) == 1
    assert res.diagnostics["skipped"][0] == m


def test_check_span_lemma_baer(baer):
    res = reconstruct(baer.points, 1, 3)
    report = check_span_lemma(baer.points, 1, 3, res.P, res.x)
    assert report.ok and report.pairs_checked == 6
    assert report.failing_pairs == []
    # coordinate forms of P and x are accepted too
    space = baer.points.space
    report2 = check_span_lemma(baer.points, 1, 3,
                               space.coords_of(res.P),
                               baer.ctx.small.coords_of(res.x))
    assert report2.ok and report2.pairs_checked == 6


def _pairwise_span_report(pts, p0, P, x):
    """(pairs checked, failing pairs) of the span lemma as it ran before
    the pairs were batched: one scalar span per pair of transversals."""
    ctx = spread_context(pts.space)
    pos = int(np.searchsorted(pts.ranks, P))
    _, traces = traces_of(pts, 1).secants_through(pos, p0 + 1)
    ys = ctx.transversal_line(pts.ranks[traces], x)
    ys = ys[ys >= 0].tolist()
    mask = pts.mask()
    failing = []
    for i, j in itertools.combinations(range(len(ys)), 2):
        image = ctx.linear_set_of_ranks(
            span(ctx.small, x, ys[i], ys[j]).point_ranks())
        extra = image[~mask[image]]
        if extra.size:
            failing.append((i, j, extra.tolist()))
    return len(ys) * (len(ys) - 1) // 2, failing


def test_check_span_lemma_matches_pairwise_reference(cone_9):
    # the union of two rank-4 GF(2)-linear sets of PG(2,8) (see above):
    # from two of its base points some pairs of transversals span planes
    # whose linear sets leave the set
    a, b = (random_rank_r_witness(8, 2, 4, seed) for seed in (0, 2))
    union = PointSet(a.points.space,
                     np.union1d(a.points.ranks, b.points.ranks))
    failed = 0
    for pts, k, p0 in ((union, 1, 2), (cone_9.points, 2, 3)):
        results = reconstruct(pts, k, p0, point_policy="all")
        for res in results[:20]:
            report = check_span_lemma(pts, k, p0, res.P, res.x)
            checked, failing = _pairwise_span_report(pts, p0, res.P, res.x)
            assert report.pairs_checked == checked
            assert report.ok == (not failing)
            assert [(i, j, extra.tolist())
                    for i, j, extra in report.failing_pairs] == failing
            failed += len(failing)
    assert failed == 8


def test_check_span_lemma_rejects_outsider(baer):
    outside = next(r for r in range(baer.points.space.num_points)
                   if r not in baer.points)
    with pytest.raises(BadParamsError):
        check_span_lemma(baer.points, 1, 3, outside, 0)


def test_secant_bounds_baer(baer):
    report = secant_count_bounds(baer.points, 1, 3)
    assert report.ok and report.bound == Fraction(0)
    assert report.h == 2 and not report.within_hypotheses
    assert report.points_checked == 13 and report.min_observed == 4
    assert report.violations == []


def test_secant_bounds_subgeometry(subgeom_49):
    report = secant_count_bounds(subgeom_49.points, 1, 7)
    assert report.ok and report.bound == Fraction(4)
    assert report.within_hypotheses
    assert report.min_observed == 8


def test_secant_bounds_cone(cone_9):
    report = secant_count_bounds(cone_9.points, 2, 3)
    # k >= 2 formula: ((p0^(hk)-1)/(p0^h-1) - 3 p0^(hk-h-3)) (p0^(h-1) - 4 p0^(h-2)) + 1
    # = (10 - 3/3) (3 - 4) + 1 = -8, vacuous for p0 = 3 but exact
    assert report.bound == Fraction(-8)
    assert report.k == 2 and report.ok
    assert report.min_observed == 36


def test_secant_bounds_violations():
    space = ProjectiveSpace(2, make_field(7, 2))
    line = Subspace(space, [(1, 0, 0), (0, 1, 0)])
    sub = next(enumerate_sublines(line, 7))
    off = space.rank_of((0, 0, 1))
    pts = PointSet(space, list(sub.ranks) + [off])
    report = secant_count_bounds(pts, 1, 7)
    assert not report.ok and report.bound == Fraction(4)
    assert report.points_checked == 8 and report.min_observed == 1
    assert len(report.violations) == 8
    for rank, observed in report.violations:
        assert observed == 1 and rank in sub


def test_secant_bounds_param_guard(baer):
    with pytest.raises(BadParamsError):
        secant_count_bounds(baer.points, 1, 5)
    for p0 in (1, 0, -3, 6):
        with pytest.raises(BadParamsError):
            secant_count_bounds(baer.points, 1, p0)


def _reference_reconstruction(pts, k, p0):
    """The fields of every whole-set reconstruct result, rebuilt one base
    point at a time with none of the batched kernels: the (p0+1)-secants
    through P read off its by-point row and grouped by `grouped_points`,
    each transversal found by the per-candidate search of
    `_reference_transversal`, W spanned by scalar reduction and its image
    compared with the set."""
    from test_trace_storage import _reference_transversal
    from trace_reference import grouped_points, stacked_slots
    space = pts.space
    ctx = spread_context(space)
    lines = traces_of(pts, 1)
    target = space.field.t * k
    out, grid = [], stacked_slots(lines)
    for pos in range(len(pts)):
        through = grid[pos]
        sel = through[lines.sizes[through] == p0 + 1]
        if not sel.size:
            continue
        P = int(pts.ranks[pos])
        x = int(ctx.element_ranks(P).min())
        flat, offsets = grouped_points(lines, sel)
        traces = [pts.ranks[flat[offsets[i]:offsets[i + 1]]]
                  for i in range(sel.size)]
        found = [_reference_transversal(ctx, PointSet(space, t), x)
                 for t in traces]
        assert all(len(f) <= 1 for f in found)
        used = [t.tolist() for t, f in zip(traces, found) if f]
        transversals = [f[0] for f in found if f]
        skipped = [lines.subspace_at(int(s)).rows
                   for s, f in zip(sel.tolist(), found) if not f]
        W, dim, equal = None, None, False
        if not transversals:
            status = "no secant trace is a subline"
        else:
            W = span(ctx.small, *transversals)
            dim = W.dim
            image = set(ctx.linear_set_of(W).ranks.tolist())
            extra = bool(image - set(pts.ranks.tolist()))
            missing = bool(set(pts.ranks.tolist()) - image)
            equal = not (extra or missing)
            status = ("span too small" if dim < target
                      else "span too large" if dim > target
                      else "image differs" if extra and missing
                      else "image overflows the set" if extra
                      else "image is a proper subset" if missing
                      else "ok")
        out.append({
            "P": P, "x": x, "secants": used,
            "transversals": [t.rows for t in transversals],
            "W": None if W is None else W.rows, "dim_W": dim,
            "image_equal": equal, "status": status,
            "diagnostics": {"secants_through_P": int(sel.size),
                            "skipped_non_sublines": len(skipped),
                            "skipped": skipped, "target_dim": target}})
    return out


def _result_fields(res):
    diagnostics = dict(res.diagnostics)
    diagnostics["skipped"] = [s.rows for s in diagnostics["skipped"]]
    return {"P": res.P, "x": res.x,
            "secants": [s.ranks.tolist() for s in res.secants_used],
            "transversals": [t.rows for t in res.transversals],
            "W": None if res.W is None else res.W.rows, "dim_W": res.dim_W,
            "image_equal": res.image_equal, "status": res.status,
            "diagnostics": diagnostics}


def _tangent_mutant(seed):
    """The Baer subplane of PG(2,9) with three seeded points added on one
    of its tangent lines, which then holds four points of the set: from
    seed 0 that line is a 4-secant but no GF(3)-subline, so some secants
    have no transversal, and from seed 1 spans come out too small and too
    large."""
    from blockingsets import catalogue
    baer = catalogue.load_shipped(["baer_pg2_9"])[0].points
    lines = traces_of(baer, 1)
    rng = np.random.default_rng(seed)
    tangent = lines.subspace_at(int(rng.choice(
        np.flatnonzero(lines.sizes == 1))))
    off = np.setdiff1d(tangent.point_ranks(), baer.ranks)
    return PointSet(baer.space, np.union1d(
        baer.ranks, rng.choice(off, 3, replace=False)))


@pytest.mark.parametrize("name", ["baer_pg2_9", "cone_pg3_9", "rank4_pg2_27",
                                  "subgeom_pg2_49", "subplane_pg3_49",
                                  "mutant_0", "mutant_1"])
def test_whole_set_reconstruction_matches_per_point_reference(name):
    from blockingsets import catalogue
    if name.startswith("mutant"):
        pts, k, p0 = _tangent_mutant(int(name[-1])), 1, 3
    else:
        inst = catalogue.load_shipped([name])[0]
        pts, k, p0 = inst.points, inst.k, inst.p0
    want = _reference_reconstruction(pts, k, p0)
    got = [_result_fields(r)
           for r in reconstruct(pts, k, p0, point_policy="all")]
    assert got == want
    assert _result_fields(reconstruct(pts, k, p0)) == want[0]
    statuses = {w["status"] for w in want}
    if name == "mutant_0":
        # secants with no transversal, skipped and reported
        assert "no secant trace is a subline" in statuses
        assert any(w["diagnostics"]["skipped"] and w["transversals"]
                   for w in want)
    elif name == "mutant_1":
        assert {"span too small", "span too large"} <= statuses
    else:
        assert statuses == {"ok"}

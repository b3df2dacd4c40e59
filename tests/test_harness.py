"""Catalogue loading, the check suite, scorecards, counting identities."""

import concurrent.futures
import json
import shutil
import sys
from fractions import Fraction

import numpy as np
import pytest

from blockingsets import catalogue, harness
from blockingsets.blocking import gap_thresholds, traces_of
from blockingsets.errors import (IoError, NotFoundError, ParseError,
                                 TooLargeError)
from blockingsets.fields import make_field
from blockingsets.projspace import (PointSet, ProjectiveSpace, Subspace,
                                    subspace_traces)

F = Fraction

EXPECTED_POINTS = {
    "baer_pg2_9": 13,
    "cone_pg3_9": 118,
    "cone_pg3_49": 2794,
    "rank4_pg2_27": 40,
    "subgeom_pg2_49": 57,
    "subplane_pg3_49": 57,
}

# every fast-tier row: holds rows carry (bound, observed), the rest are
# not_applicable with both at None
EXPECTED_HOLDS = {
    ("baer_pg2_9", "declared_claims"): (0, 0),
    ("baer_pg2_9", "planar_secant_floor"): (F(2), 4),
    ("baer_pg2_9", "size_bound_strong"): (13, 13),
    ("baer_pg2_9", "size_bound_weak"): (F(11), 13),
    ("baer_pg2_9", "subline_meet_sizes"): (0, 0),
    ("cone_pg3_9", "declared_claims"): (0, 0),
    ("cone_pg3_9", "size_bound_strong"): (103, 118),
    ("cone_pg3_9", "size_bound_weak"): (F(99), 118),
    ("cone_pg3_9", "subline_meet_sizes"): (0, 0),
    ("rank4_pg2_27", "declared_claims"): (0, 0),
    ("rank4_pg2_27", "planar_secant_floor"): (F(-1), 9),
    ("rank4_pg2_27", "size_bound_strong"): (37, 40),
    ("rank4_pg2_27", "size_bound_weak"): (F(33), 40),
    ("rank4_pg2_27", "subline_meet_sizes"): (0, 0),
    ("subgeom_pg2_49", "declared_claims"): (0, 0),
    ("subgeom_pg2_49", "planar_secant_floor"): (F(6), 8),
    ("subgeom_pg2_49", "secant_floor"): (F(4), 8),
    ("subgeom_pg2_49", "size_bound_strong"): (57, 57),
    ("subgeom_pg2_49", "size_bound_weak"): (F(55), 57),
    ("subgeom_pg2_49", "subline_meet_sizes"): (0, 0),
    ("subgeom_pg2_49", "trace_gap"): (0, 0),
    ("subplane_pg3_49", "declared_claims"): (0, 0),
    ("subplane_pg3_49", "nonsecant_points"): (F(784620, 7), 117649),
    ("subplane_pg3_49", "secant_floor"): (F(4), 8),
    ("subplane_pg3_49", "size_bound_strong"): (57, 57),
    ("subplane_pg3_49", "size_bound_weak"): (F(55), 57),
    ("subplane_pg3_49", "subline_meet_sizes"): (0, 0),
    ("subplane_pg3_49", "trace_gap"): (0, 0),
}


@pytest.fixture(scope="module")
def fast_instances():
    return [i for i in catalogue.load_shipped() if not i.slow]


@pytest.fixture(scope="module")
def fast_results(fast_instances):
    results, skipped = harness.run_suite(fast_instances)
    assert skipped == []
    return results


# -- catalogue -------------------------------------------------------------------


def test_catalogue_names():
    assert catalogue.NAMES == tuple(sorted(EXPECTED_POINTS))
    with pytest.raises(NotFoundError):
        catalogue.entry("nope")
    with pytest.raises(NotFoundError):
        catalogue.load_shipped(["nope"])


def test_shipped_instances_verify():
    instances = catalogue.load_shipped()
    assert [i.name for i in instances] == sorted(EXPECTED_POINTS)
    for inst in instances:
        assert len(inst.points) == EXPECTED_POINTS[inst.name]
        assert inst.witness is not None
        assert inst.witness.verify()
        assert inst.witness.points == inst.points
        assert inst.claims["blocking"] and inst.claims["linear"]
        assert inst.claims["exponent"] == 1
        assert inst.slow == (inst.name == "cone_pg3_49")
        assert inst.meta["family"] in ("subgeometry", "cone", "random_rank_r")


def test_shipped_matches_rebuilt(fast_instances, baer):
    byname = {i.name: i for i in fast_instances}
    assert byname["baer_pg2_9"].points == baer.points


def test_load_instance_needs_sidecar(tmp_path):
    src = catalogue.shipped_dir() + "/baer_pg2_9.pts"
    dst = tmp_path / "naked.pts"
    shutil.copy(src, dst)
    with pytest.raises(ParseError):
        harness.load_instance(str(dst))
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ParseError):
        harness.load_catalogue(str(empty))
    with pytest.raises(IoError):
        harness.load_catalogue(str(tmp_path / "missing"))


def test_write_catalogue_roundtrip(tmp_path):
    catalogue.write_instance(str(tmp_path), "baer_pg2_9")
    inst = harness.load_instance(str(tmp_path / "baer_pg2_9.pts"))
    assert inst.name == "baer_pg2_9" and len(inst.points) == 13
    assert inst.witness.verify()
    shipped = open(catalogue.shipped_dir() + "/baer_pg2_9.pts", "rb").read()
    assert open(tmp_path / "baer_pg2_9.pts", "rb").read() == shipped


# -- suite runs ------------------------------------------------------------------


def test_fast_tier_frozen_table(fast_results):
    assert len(fast_results) == 5 * len(harness.CHECK_IDS)
    keys = [(r.instance, r.check) for r in fast_results]
    assert keys == sorted(keys)
    for r in fast_results:
        key = (r.instance, r.check)
        if key in EXPECTED_HOLDS:
            bound, observed = EXPECTED_HOLDS[key]
            assert r.verdict == harness.HOLDS, key
            assert r.bound == bound, key
            assert r.observed == observed, key
        else:
            assert r.verdict == harness.NOT_APPLICABLE, key
            assert r.bound is None and r.observed is None


def test_fast_tier_summary_counts(fast_results):
    card = harness.scorecard(fast_results)
    assert card["summary"] == {"holds": 28, "not_applicable": 42,
                               "violated": 0}
    assert card["schema"] == harness.SCORECARD_SCHEMA
    assert card["conway_table"] == "1"
    assert card["skipped_instances"] == []
    text = json.dumps(card, sort_keys=True)
    assert '"784620/7"' in text        # fractional bounds stay exact
    json.loads(text)


def test_run_suite_builds_subline_patterns_once(fast_instances):
    from blockingsets.linearsets import subline_patterns
    keys = {(i.points.space.field, i.p0) for i in fast_instances}
    subline_patterns.cache_clear()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(subline_patterns, field, p0)
                       for field, p0 in list(keys) * 4]
            for future in futures:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(old)
    info = subline_patterns.cache_info()
    assert info.currsize == len(keys)
    assert info.misses == len(keys)


def test_run_suite_check_filter(fast_instances):
    results, _ = harness.run_suite(fast_instances,
                                   checks=["size_bound_strong"])
    assert len(results) == 5
    assert all(r.check == "size_bound_strong" for r in results)


def test_run_suite_skips_slow():
    instances = catalogue.load_shipped()
    results, skipped = harness.run_suite(
        instances, include_slow=False, checks=["declared_claims"])
    assert skipped == ["cone_pg3_49"]
    assert {r.instance for r in results} == set(EXPECTED_POINTS) - \
        {"cone_pg3_49"}
    card = harness.scorecard(results, skipped)
    assert card["skipped_instances"] == ["cone_pg3_49"]


def test_run_instance_covers_all_checks(fast_instances):
    inst = next(i for i in fast_instances if i.name == "baer_pg2_9")
    results = harness.run_instance(inst)
    assert [r.check for r in results] == sorted(harness.CHECK_IDS)


# -- negative control --------------------------------------------------------------


def mutated_baer_instance():
    base = catalogue.load_shipped(["baer_pg2_9"])[0]
    lines = traces_of(base.points, 1)
    idx = int(np.nonzero(lines.sizes == 4)[0][0])
    row = lines.subspace_at(idx).point_ranks()
    on = [int(r) for r in row if r in base.points]
    off = [int(r) for r in row if r not in base.points]
    mutated = PointSet(base.points.space,
                       [int(r) for r in base.points.ranks
                        if r != on[0]] + [off[0]])
    return harness.Instance("mutant", mutated, base.k, base.p0,
                            base.claims, None, False, {})


def test_declared_claims_flags_mutant():
    inst = mutated_baer_instance()
    results, skipped = harness.run_suite([inst],
                                         checks=["declared_claims"])
    r = results[0]
    assert r.verdict == harness.VIOLATED
    claims = r.notes["claims"]
    assert not claims["blocking"]["match"]
    assert "uncovered_rows" in claims["blocking"]
    assert not claims["minimal"]["match"]
    assert not claims["linear"]["match"]
    assert r.observed == sum(1 for c in claims.values() if not c["match"])
    card = harness.scorecard(results, skipped)
    assert card["summary"]["violated"] == 1
    json.dumps(card)


def test_full_run_survives_non_blocking_instance():
    # lemma checks presume a blocking set; on a mutant they must degrade
    # to not_applicable instead of aborting the suite
    inst = mutated_baer_instance()
    results = harness.run_instance(inst)
    assert [r.check for r in results] == sorted(harness.CHECK_IDS)
    by_check = {r.check: r for r in results}
    assert by_check["declared_claims"].verdict == harness.VIOLATED
    for check_id, r in by_check.items():
        if check_id == "declared_claims":
            continue
        assert r.verdict != harness.VIOLATED
        if r.notes.get("error"):
            assert not r.hypotheses_met
            assert r.hypotheses == {"blocking": False}
            assert r.bound is None and r.observed is None
    assert any(r.notes.get("error") for r in results)
    json.dumps(harness.scorecard(results))


def test_lemma_check_to_json(fast_results):
    row = next(r for r in fast_results
               if (r.instance, r.check) == ("subplane_pg3_49",
                                            "nonsecant_points"))
    data = row.to_json()
    assert data["bound"] == "784620/7"
    assert data["observed"] == 117649
    assert data["verdict"] == "holds"


# -- counting identities ------------------------------------------------------------


def test_counting_identities_hold():
    out = harness.counting_identities(2, 2, 2, dims=(1,), trials=12, seed=3)
    assert out["all_hold"] and out["failures"] == []
    assert out["space"] == {"p": 2, "t": 2, "n": 2}
    assert out["dims"] == [1] and out["trials"] == 12


def test_counting_identities_deterministic():
    a = harness.counting_identities(3, 1, 3, dims=(1, 2), trials=8, seed=5)
    b = harness.counting_identities(3, 1, 3, dims=(1, 2), trials=8, seed=5)
    assert a == b


def _per_line_profile(a):
    """Large-space profile built one line at a time: every internal tangent
    and (p0+1)-secant is lifted through the chart and reduced by
    `Subspace`, and its RREF rows key a multiplicity dict."""
    space, p0 = a.space, a.p0
    _, upper = gap_thresholds(p0, a.h, 1)
    planes = a.hyperplanes()
    large = np.nonzero(planes.sizes * upper.denominator > upper.numerator)[0]
    secant_mult, tangent_mult, compositions = {}, {}, set()
    for idx in large:
        plane = planes.subspace_at(int(idx))
        small_pts, chart = a.pts.intersection(
            plane.point_set()).restrict_to(plane)
        inside = subspace_traces(small_pts, 1)
        comp = [0, 0, 0]
        for j, size in enumerate(inside.sizes.tolist()):
            if size == 1:
                target, slot = tangent_mult, 0
            elif size == p0 + 1:
                target, slot = secant_mult, 1
            else:
                comp[2] += size == space.q + 1
                continue
            comp[slot] += 1
            rows = [chart.to_ambient(r) for r in inside.subspace_at(j).rows]
            key = Subspace(space, rows).rows
            target[key] = target.get(key, 0) + 1
        compositions.add(tuple(comp))
    lines = a.lines()
    return {
        "large_spaces": int(large.size),
        "secants_inside_large": len(secant_mult),
        "tangents_inside_large": len(tangent_mult),
        "max_through_secant": max(secant_mult.values(), default=0),
        "max_through_tangent": max(tangent_mult.values(), default=0),
        "total_secants": int(np.count_nonzero(lines.sizes == p0 + 1)),
        "total_tangents": int(np.count_nonzero(lines.sizes == 1)),
        "compositions": sorted(compositions),
    }


def test_large_space_profile_matches_per_line_scan(fast_instances):
    cone = next(i for i in fast_instances if i.name == "cone_pg3_9")
    # p0 = 2 over GF(4) leaves no trace gap, so on random sets many large
    # planes share their tangents and 3-secants: the keys of one line met
    # from several planes must agree (both cones only reach multiplicity 1)
    space = ProjectiveSpace(3, make_field(2, 2))
    rng = np.random.default_rng(7)
    random_sets = [
        harness.Instance(f"random_pg3_4_{size}", PointSet(
            space, rng.choice(space.num_points, size=size, replace=False)),
            2, 2, {}, None, False, {})
        for size in (20, 35, 50)]
    shared = 0
    for inst in [cone] + random_sets:
        a = harness.InstanceAnalysis(inst)
        profile = a.large_space_profile
        assert profile == _per_line_profile(a), inst.name
        assert profile["large_spaces"] > 0
        shared += profile["max_through_secant"] > 1
        shared += profile["max_through_tangent"] > 1
    assert shared >= 2


def test_dual_sizes_count_points_on_each_hyperplane():
    cone, baer = (catalogue.load_shipped([name])[0]
                  for name in ("cone_pg3_9", "baer_pg2_9"))
    a = harness.InstanceAnalysis(cone)
    sizes = a.dual_sizes
    # brute force: the set's points x with u . x = 0, for every covector u
    add, mul, _, _ = a.space.field.tables()
    cov = a.dual_space.coords_array()
    pts = cone.points.coords()
    dot = np.zeros((cov.shape[0], pts.shape[0]), dtype=np.int64)
    for j in range(a.n + 1):
        dot = add[dot, mul[cov[:, None, j], pts[None, :, j]]]
    assert np.array_equal(sizes, (dot == 0).sum(axis=1))
    # in PG(2, q) the hyperplanes are lines, keyed by line rank
    with pytest.raises(TooLargeError):
        harness.InstanceAnalysis(baer).dual_sizes


@pytest.mark.parametrize("p0", [7, 11, 13, 17, 19, 23, 29, 31])
def test_codim2_candidates_cannot_exist(p0):
    # large_through_codim2 runs at n = 3, k = 2, where its candidates are
    # (p0+1)-secant lines classified small at level 0: small means a trace
    # below gap_thresholds(p0, h, 0)[0], which stays under 2 < p0 + 1
    for h in range(1, 11):
        lower, _ = gap_thresholds(p0, h, 0)
        assert lower < 2 < p0 + 1

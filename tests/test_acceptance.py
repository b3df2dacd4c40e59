"""End-to-end acceptance checks, one test per numbered criterion.

Every test asserts exact integer (or exact Fraction) values, enforces a
wall-clock budget, and prints a single PASS/FAIL line (visible with -s,
or via the per-test PASSED/FAILED line of pytest -v).  The slow tier of
criterion 6 exercises the PG(3,49) cone and runs only with --runslow.
"""

import contextlib
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from blockingsets import catalogue, harness
from blockingsets.blocking import (
    exponent,
    is_k_blocking,
    is_minimal,
    is_redei,
    is_small,
    nonsecant_mask,
    nonsecant_point_count,
    secant_analysis,
    spectrum,
    traces_of,
)
from blockingsets.cli import main as cli_main
from blockingsets.errors import NotBlockingError
from blockingsets.formats import write_pointset
from blockingsets.linearsets import (is_linear, secant_linearity_check,
                                     subline_meet_check)
from blockingsets.projspace import PointSet, project
from blockingsets.reconstruct import reconstruct

BAER_CLAIMS = {"blocking": True, "small": True, "minimal": True,
               "exponent": 1, "redei": True, "linear": True}


@contextlib.contextmanager
def criterion(num, label, budget):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {label}")
        raise
    elapsed = time.monotonic() - start
    if elapsed >= budget:
        print(f"FAIL criterion {num}: {label} "
              f"({elapsed:.2f}s, budget {budget}s)")
        raise AssertionError(
            f"criterion {num} blew its {budget}s budget: {elapsed:.2f}s")
    print(f"PASS criterion {num}: {label} ({elapsed:.2f}s)")


def swap_secant_point(pts, p0):
    """Trade one point of a (p0+1)-secant for another point of that line."""
    lines = traces_of(pts, 1)
    idx = int(np.nonzero(lines.sizes == p0 + 1)[0][0])
    line = lines.subspace_at(idx)
    on = [int(r) for r in line.point_ranks() if r in pts]
    off = [int(r) for r in line.point_ranks() if r not in pts]
    ranks = [int(r) for r in pts.ranks if r != on[0]] + [off[0]]
    return PointSet(pts.space, ranks)


def test_criterion_01_counting_identities():
    with criterion(1, "random spectra satisfy the incidence identities", 30):
        flat = harness.counting_identities(3, 2, 2, dims=(1,),
                                           trials=100, seed=0)
        solid = harness.counting_identities(3, 2, 3, dims=(1, 2),
                                            trials=100, seed=1)
        assert flat["all_hold"] and not flat["failures"]
        assert solid["all_hold"] and not solid["failures"]
        assert flat["trials"] == solid["trials"] == 100


def test_criterion_02_baer_profile(baer):
    with criterion(2, "Baer subplane of PG(2,9): full structural profile", 5):
        pts = baer.points
        assert len(pts) == 13
        spec = spectrum(pts, 1)
        assert spec.x == {1: 78, 4: 13}
        assert set(spec.x) <= {0, 1, 4}
        assert exponent(pts, 1) == 1
        assert is_minimal(pts, 1, method="direct") == (True, None)
        assert is_minimal(pts, 1, method="criterion") == (True, None)
        assert is_small(pts, 1)
        redei, hyper = is_redei(pts, 1)
        assert redei
        assert int(pts.mask()[hyper.point_ranks()].sum()) == 13 - 9
        report = secant_analysis(pts, 1, 3)
        assert report.per_point_subline_secants.tolist() == [4] * 13
        kappa = 13 - 9
        planar_floor = Fraction(9, 3) - Fraction(3 * (kappa - 1), 3) + 2
        assert planar_floor == 2
        assert report.min_subline_secants() >= planar_floor


def test_criterion_03_reconstruction(baer, rank4_27):
    with criterion(3, "reconstruction recovers the defining subspace", 60):
        res = reconstruct(baer.points, 1, 3)
        assert res.success and res.image_equal
        assert res.dim_W == 2
        assert baer.ctx.linear_set_of(res.W) == baer.points
        res27 = reconstruct(rank4_27.points, 1, 3)
        assert res27.success and res27.image_equal
        assert res27.dim_W == 3
        everyone = reconstruct(baer.points, 1, 3, point_policy="all")
        assert len(everyone) == 13
        assert all(r.success and r.image_equal for r in everyone)
        assert all(baer.ctx.linear_set_of(r.W) == baer.points
                   for r in everyone)


def test_criterion_04_gf49_subgeometry(subgeom_49):
    with criterion(4, "PG(2,7) in PG(2,49): traces, floors, recovery", 30):
        pts = subgeom_49.points
        assert len(pts) == 57
        assert 2 * len(pts) < 3 * (49 + 1)
        assert is_small(pts, 1)
        lines = traces_of(pts, 1)
        assert lines.x0 == 0
        sizes = {int(s) for s in lines.sizes}
        assert sizes == {1, 8}
        assert all(s % 7 == 1 for s in sizes)
        assert exponent(pts, 1) == 1
        assert len(pts) >= 49 + 7 - 1        # weak size floor: 55
        report = secant_analysis(pts, 1, 7)
        counts = report.per_point_subline_secants.tolist()
        assert counts == [8] * 57
        secant_floor = 7 - 3
        planar_floor = Fraction(49, 7) - Fraction(3 * (57 - 49 - 1), 7) + 2
        assert planar_floor == 6 > secant_floor
        assert min(counts) >= planar_floor
        res = reconstruct(pts, 1, 7)
        assert res.success and res.dim_W == 2


def test_criterion_05_subline_meets(baer, rank4_27):
    with criterion(5, "secant sublines meet the sets in allowed sizes", 60):
        rep = subline_meet_check(baer)
        assert rep.ok and not rep.violations
        assert rep.allowed_sizes == (0, 1, 2, 3, 4)
        assert rep.secant_lines == 13
        assert rep.sublines_checked == 13 * 30
        rep27 = subline_meet_check(rank4_27)
        assert rep27.ok and not rep27.violations
        assert rep27.allowed_sizes == (0, 1, 2, 3, 4)


def test_criterion_06_cone_fast(cone_9):
    with criterion(6, "PG(3,9) cone blocks every line, fast tier", 60):
        pts = cone_9.points
        assert len(pts) == 118
        lines = traces_of(pts, 1)
        assert lines.x0 == 0
        assert lines.sizes.size == 7462 == pts.space.num_subspaces(1)
        assert exponent(pts, 2) == 1
        inst = catalogue.load_shipped(["cone_pg3_9"])[0]
        rows = harness.run_instance(inst)
        assert all(r.verdict != harness.VIOLATED for r in rows)
        gap = next(r for r in rows if r.check == "trace_gap")
        assert gap.verdict == harness.NOT_APPLICABLE


@pytest.mark.slow
def test_criterion_06_cone_slow_tier():
    with criterion(6, "PG(3,49) cone passes the full suite, slow tier", 600):
        inst = catalogue.load_shipped(["cone_pg3_49"])[0]
        rows = harness.run_instance(inst)
        assert all(r.verdict != harness.VIOLATED for r in rows)
        got = {r.check: (r.bound, r.observed, r.verdict) for r in rows}
        F = Fraction
        assert got["declared_claims"] == (0, 0, harness.HOLDS)
        assert got["large_through_codim2"] == (F(4, 7), 0, harness.HOLDS)
        assert got["large_through_secant"] == (F(168, 103), 1, harness.HOLDS)
        assert got["large_through_tangent"] == (F(847, 664), 1, harness.HOLDS)
        assert got["nonsecant_points"] == (None, None,
                                           harness.NOT_APPLICABLE)
        assert got["planar_secant_floor"] == (None, None,
                                              harness.NOT_APPLICABLE)
        assert got["rich_tangent_config"] == (F(14), 49, harness.HOLDS)
        assert got["secant_floor"] == (F(1048, 7), 392, harness.HOLDS)
        assert got["size_bound_strong"] == (2703, 2794, harness.HOLDS)
        assert got["size_bound_weak"] == (F(2695), 2794, harness.HOLDS)
        assert got["small_trace_cap"] == (0, 0, harness.HOLDS)
        assert got["span_image_subset"] == (0, 0, harness.HOLDS)
        assert got["subline_meet_sizes"] == (0, 0, harness.HOLDS)
        assert got["trace_gap"] == (0, 0, harness.HOLDS)
        sec = next(r for r in rows if r.check == "large_through_secant")
        assert sec.notes["bound_printed"] == F(3, 7)
        assert sec.notes["printed_satisfied"] is False
        tan = next(r for r in rows if r.check == "large_through_tangent")
        assert tan.notes["bound_printed"] == F(4, 7)
        assert tan.notes["printed_satisfied"] is False


def test_criterion_07_nonsecant_region(subplane_49):
    with criterion(7, "off-plane points avoid every secant of the plane", 60):
        pts = subplane_49.points
        count = nonsecant_point_count(pts)
        assert count == 49 ** 3 == 117649
        assert Fraction(count) >= Fraction(784620, 7)   # floor 112088 4/7


def test_criterion_08_projection_policy(subplane_49):
    with criterion(8, "projection from a nonsecant centre keeps the set", 30):
        pts = subplane_49.points
        space = pts.space
        centre = int(np.nonzero(nonsecant_mask(pts))[0][0])
        assert centre == 0
        centre_coords = space.coords_of(centre)
        assert centre_coords == (0, 0, 0, 1)
        set_mask = pts.mask()
        chosen = None
        # first covector (by dual rank) off the centre and not containing
        # the whole set
        for rank in range(space.num_subspaces(0)):
            cov = space.coords_of(rank)
            hyper = space.hyperplane(cov)
            if hyper.contains(centre_coords):
                continue
            if int(set_mask[hyper.point_ranks()].sum()) < len(pts):
                chosen = (rank, cov, hyper)
                break
        rank, cov, hyper = chosen
        assert (rank, cov) == (2, (0, 0, 1, 1))
        image = project(pts, centre, hyper)
        assert len(image) == len(pts) == 57
        plane_pts, chart = image.restrict_to(hyper)
        assert (plane_pts.space.n, plane_pts.space.field.q) == (2, 49)
        blocking, _ = is_k_blocking(plane_pts, 1)
        assert blocking
        assert is_small(plane_pts, 1)
        assert is_minimal(plane_pts, 1, method="direct") == (True, None)


def test_criterion_09_mutation_detection(baer, tmp_path):
    with criterion(9, "one swapped point trips every detector", 30):
        mutated = swap_secant_point(baer.points, 3)
        assert len(mutated) == 13 and mutated != baer.points
        rep = secant_linearity_check(mutated, 1, 3)
        assert not rep.ok
        with pytest.raises(NotBlockingError):
            reconstruct(mutated, 1, 3)
        witness, _ = is_linear(mutated, 3, strategy="exhaustive")
        assert witness is None
        inst_dir = tmp_path / "mutant"
        inst_dir.mkdir()
        write_pointset(str(inst_dir / "mutant_baer.pts"), mutated,
                       meta={"name": "mutant_baer", "k": 1, "p0": 3,
                             "claims": dict(BAER_CLAIMS), "slow": False})
        card_path = tmp_path / "card.json"
        rc = cli_main(["harness", "--dir", str(inst_dir),
                       "--out", str(card_path)])
        assert rc == 1
        card = json.loads(card_path.read_text())
        assert card["summary"]["violated"] >= 1
        row = next(c for c in card["checks"]
                   if c["check"] == "declared_claims")
        assert row["verdict"] == "violated"
        blocking_claim = row["notes"]["claims"]["blocking"]
        assert not blocking_claim["match"]
        assert blocking_claim["uncovered_rows"]


def test_criterion_10_deterministic_scorecards():
    with criterion(10, "scorecards are byte-identical across runs", 60):
        fast = [i for i in catalogue.load_shipped() if not i.slow]
        texts = []
        for _ in range(3):
            results, skipped = harness.run_suite(fast)
            texts.append(json.dumps(harness.scorecard(results, skipped),
                                    sort_keys=True, indent=2))
        assert texts[0] == texts[1] == texts[2]

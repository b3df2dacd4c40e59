"""The committed --slow scorecard and reconstruct digests, and the hypothesis
gates behind the scorecard.

tests/data/scorecard_slow.json is the scorecard of `blockingsets harness
--slow`.  It is the only place where tier-1 sees the verdicts of the six
checks that apply to the PG(3,49) cone alone, so any change to a bound,
an observed value, a hypothesis or a note shows up here as a byte
difference.  Regenerate it only when a scorecard change is intended:

    blockingsets harness --slow --out tests/data/scorecard_slow.json

tests/data/reconstruct_digests.json holds the SHA-256 of the output of
`blockingsets reconstruct <catalogue .pts> --k K --p0 P0 --point-policy
POLICY` for each shipped instance, with the instance's k and p0 and the
policy named there; regenerate it the same way, with `sha256sum`.  Two
more outputs are pinned here: the whole-set reconstruction of the
PG(3,49) cone, and `islinear` on a one-digit mutation of rank4_pg2_27,
whose search exhausts rank 4.
"""

import hashlib
import json
import os
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from blockingsets import catalogue, harness
from blockingsets.blocking import traces_of
from blockingsets.cli import main as cli_main
from blockingsets.linearsets import build_family_witness
from blockingsets.projspace import PointSet
from blockingsets.reconstruct import reconstruct

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "scorecard_slow.json")
DIGESTS = os.path.join(os.path.dirname(__file__), "data",
                       "reconstruct_digests.json")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, "rb") as fh:
        return fh.read()


def test_slow_scorecard_matches_golden(tmp_path, golden):
    out = tmp_path / "slow.json"
    assert cli_main(["harness", "--slow", "--out", str(out)]) == 0
    assert out.read_bytes() == golden


def test_fast_scorecard_is_golden_without_the_cone(tmp_path, golden):
    out = tmp_path / "fast.json"
    assert cli_main(["harness", "--out", str(out)]) == 0
    fast, slow = json.loads(out.read_bytes()), json.loads(golden)
    assert fast["checks"] == [c for c in slow["checks"]
                              if c["instance"] != "cone_pg3_49"]
    assert fast["skipped_instances"] == ["cone_pg3_49"]
    assert fast["summary"] == {"holds": 28, "not_applicable": 42,
                               "violated": 0}


def test_reconstruct_outputs_match_their_digests(capsys, tmp_path):
    with open(DIGESTS, encoding="ascii") as fh:
        digests = json.load(fh)
    assert sorted(digests) == sorted(catalogue.NAMES)
    failed = []
    for name, want in sorted(digests.items()):
        e = catalogue.entry(name)
        path = os.path.join(catalogue.shipped_dir(), name + ".pts")
        assert cli_main(["reconstruct", path, "--k", str(e["k"]),
                         "--p0", str(e["p0"]), "--point-policy",
                         want["point_policy"]]) == 0
        out = capsys.readouterr().out.encode("ascii")
        if hashlib.sha256(out).hexdigest() != want["sha256"]:
            kept = tmp_path / f"{name}.json"
            kept.write_bytes(out)
            failed.append(str(kept))
    assert not failed, f"reconstruct outputs differ, kept in {failed}"


# `reconstruct cone_pg3_49.pts --k 2 --p0 7 --point-policy all`
CONE_ALL_SHA256 = \
    "c11ab10deb09055d067ffcc6288c642a4bf9fedcba223f75ac1579746419eb61"
# `islinear --p0 3` on rank4_pg2_27.pts with its line 14, "1 9 13",
# changed to "1 9 19": not linear, 3,134 subspaces tested
MUTATED_RANK4_SHA256 = \
    "0e07b9e15ae100635f358925e568424063ea66738f24c4e0d34de8f8fc6815ef"


def _stdout_digest(capsys, argv, code):
    assert cli_main(argv) == code
    return hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest()


def test_cone_whole_set_reconstruction_matches_its_digest(capsys):
    path = os.path.join(catalogue.shipped_dir(), "cone_pg3_49.pts")
    assert _stdout_digest(capsys, [
        "reconstruct", path, "--k", "2", "--p0", "7", "--point-policy",
        "all"], 0) == CONE_ALL_SHA256


def test_islinear_on_a_mutated_set_matches_its_digest(capsys, tmp_path):
    src = os.path.join(catalogue.shipped_dir(), "rank4_pg2_27.pts")
    with open(src, encoding="ascii") as fh:
        lines = fh.read().split("\n")
    assert lines[13] == "1 9 13"
    lines[13] = "1 9 19"
    path = tmp_path / "rank4_mutated.pts"
    path.write_text("\n".join(lines), encoding="ascii")
    assert _stdout_digest(capsys, ["islinear", str(path), "--p0", "3"],
                          1) == MUTATED_RANK4_SHA256


# -- hypothesis gates ----------------------------------------------------------

GATE_INSTANCES = ("baer_pg2_9", "cone_pg3_9", "rank4_pg2_27",
                  "subgeom_pg2_49")
# seeded linear sets of PG(2,q) off the catalogue, k = 1: rank-3
# GF(7)-sets of PG(2,49) (p0 = 7) and rank-4 GF(3)-sets of PG(2,27)
# (p0 = 3), by (q, rank, p0)
RANDOM_SEEDS = (1, 2, 3)
RANDOM_FAMILIES = {"random_rank3_pg2_49": (49, 3, 7),
                   "random_rank4_pg2_27": (27, 4, 3)}


def _instance(rebuilt, pts):
    _, name, k, p0 = rebuilt
    return harness.Instance(name, pts, k, p0, {}, None, False, {})


GATES = [(name, None) for name in GATE_INSTANCES] \
    + [(f"{family}_seed{seed}", seed) for family in RANDOM_FAMILIES
       for seed in RANDOM_SEEDS]


@pytest.fixture(scope="module", params=GATES, ids=[n for n, _ in GATES])
def rebuilt(request):
    """(witness, name, k, p0) of a rebuilt catalogue instance or of a
    seeded random linear set."""
    name, seed = request.param
    if seed is None:
        e = catalogue.entry(name)
        return catalogue.build_witness(name), name, e["k"], e["p0"]
    q, rank, p0 = RANDOM_FAMILIES[name.rsplit("_seed", 1)[0]]
    return build_family_witness("random_rank_r", q=q, n=2, r=rank,
                                seed=seed), name, 1, p0


def _with_point_added(pts):
    off = next(r for r in range(pts.space.num_points) if r not in pts)
    return PointSet(pts.space, list(pts.ranks) + [off]), off


def _by_check(inst):
    results = harness.run_instance(inst)
    assert [r.check for r in results] == sorted(harness.CHECK_IDS)
    assert all(r.verdict != harness.VIOLATED for r in results)
    return {r.check: r for r in results}


def test_unperturbed_instance_meets_the_gates(rebuilt):
    pts = rebuilt[0].points
    checks = _by_check(_instance(rebuilt, pts))
    assert checks["size_bound_weak"].hypotheses["k_blocking"]
    for r in checks.values():
        if "minimal" in r.hypotheses:
            assert r.hypotheses["minimal"] is True, r.check


def test_reconstruct_rebuilds_the_unperturbed_witness(rebuilt):
    witness, _, k, p0 = rebuilt
    res = reconstruct(witness.points, k, p0)
    assert res.success and res.image_equal
    assert witness.ctx.linear_set_of(res.W) == witness.points


def _assert_blocking_off(checks):
    weak = checks["size_bound_weak"]
    assert weak.hypotheses["k_blocking"] is False
    assert weak.verdict == harness.NOT_APPLICABLE
    # minimality presumes a blocking set, so the checks that list it
    # fall back to the non-blocking record
    for cid in ("secant_floor", "small_trace_cap", "span_image_subset"):
        assert checks[cid].hypotheses == {"blocking": False}
        assert checks[cid].notes["error"]


def _assert_minimal_off(checks):
    listing = [r for r in checks.values() if "minimal" in r.hypotheses]
    assert len(listing) == 9
    for r in listing:
        assert r.hypotheses["minimal"] is False, r.check
        assert r.verdict == harness.NOT_APPLICABLE


def test_dropping_a_point_turns_blocking_off(rebuilt):
    pts = rebuilt[0].points
    dropped = PointSet(pts.space, pts.ranks[1:])
    _assert_blocking_off(_by_check(_instance(rebuilt, dropped)))


def test_adding_a_point_turns_minimal_off(rebuilt):
    added, _ = _with_point_added(rebuilt[0].points)
    _assert_minimal_off(_by_check(_instance(rebuilt, added)))


@pytest.fixture(scope="module")
def cone_perturbed():
    """The checks by name of the PG(3,49) cone with its first point
    dropped and with the first point off it added, run once per session
    (about a second of harness runs): the two gates above, on the one
    instance whose p0 >= 7 checks apply."""
    e = catalogue.entry("cone_pg3_49")
    rebuilt = (catalogue.build_witness("cone_pg3_49"), "cone_pg3_49",
               e["k"], e["p0"])
    pts = rebuilt[0].points
    added, _ = _with_point_added(pts)
    return (_by_check(_instance(rebuilt, PointSet(pts.space, pts.ranks[1:]))),
            _by_check(_instance(rebuilt, added)))


def test_dropping_a_point_of_the_cone_turns_blocking_off(cone_perturbed):
    _assert_blocking_off(cone_perturbed[0])


def test_adding_a_point_to_the_cone_turns_minimal_off(cone_perturbed):
    _assert_minimal_off(cone_perturbed[1])


# -- verdicts that no catalogue instance produces ----------------------------


def test_declared_claims_name_the_removable_point():
    added, off = _with_point_added(
        catalogue.build_witness("subgeom_pg2_49").points)
    inst = harness.Instance("added", added, 1, 7,
                            {"minimal": True, "linear": True}, None, False,
                            {})
    (r,) = harness.run_instance(inst, ["declared_claims"])
    assert r.verdict == harness.VIOLATED and r.observed == 1
    claims = r.notes["claims"]
    assert claims["minimal"] == {"declared": True, "computed": False,
                                 "match": False, "removable_point": off}
    # reconstruction fails, and the 19608 small-side points of PG(2,49)
    # are too many for the exhaustive search
    assert claims["linear"] == {"declared": True, "computed": None,
                                "match": True,
                                "skipped": "search space too large"}


def test_subline_meet_sizes_flags_a_witness_off_its_set():
    w = catalogue.build_witness("subgeom_pg2_49")
    lines = traces_of(w.points, 1)
    line = lines.subspace_at(int(np.flatnonzero(lines.sizes == 8)[0]))
    on = [r for r in line.point_ranks().tolist() if r in w.points]
    off = [r for r in line.point_ranks().tolist() if r not in w.points]
    mutated = PointSet(w.points.space, [r for r in w.points.ranks.tolist()
                                        if r != on[0]] + [off[0]])
    inst = harness.Instance("mutant", mutated, 1, 7, {},
                            w._replace(points=mutated), False, {})
    (r,) = harness.run_instance(inst, ["subline_meet_sizes"])
    assert r.verdict == harness.VIOLATED
    assert r.observed == len(r.notes["violations"]) > 0


def test_tangent_checks_without_a_configuration():
    # every hypothesis of the two checks holds, but no point of the set
    # lies on a (p0+1)-secant: the tangent search comes back empty
    a = SimpleNamespace(inst=SimpleNamespace(name="stub"), n=3, k=2, p0=7,
                        p=7, trivial=False, small=True, minimal=(True, None),
                        p0_is_exponent=True, one_mod=True,
                        tangent_config=None, tangent_bound=Fraction(14))
    rich = harness._CHECKS["rich_tangent_config"](a)
    assert rich.hypotheses_met and rich.verdict == harness.VIOLATED
    assert (rich.bound, rich.observed) == (14, 0)
    assert rich.notes == {"no_point_on_a_secant": True}
    # the span check has nothing to measure, which is not a verdict
    span = harness._CHECKS["span_image_subset"](a)
    assert all(span.hypotheses.values()) and not span.hypotheses_met
    assert span.verdict == harness.NOT_APPLICABLE
    assert span.bound is None and span.observed is None
    assert span.notes == {"assumed_lower_blocking_linearity": True,
                          "no_two_qualifying_spaces": True}

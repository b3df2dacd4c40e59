"""Linear-set families, sublines, and the linearity decision procedures."""

from itertools import combinations
from math import comb

import numpy as np
import pytest

from blockingsets import linearsets
from blockingsets.blocking import is_k_blocking, is_redei, traces_of
from blockingsets.errors import (BadParamsError, RangeError, TooLargeError)
from blockingsets.fields import make_field
from blockingsets.linearsets import (
    LinearSetWitness,
    build_family,
    build_family_witness,
    build_linear_set,
    enumerate_sublines,
    is_linear,
    line_param_positions,
    secant_linearity_check,
    subline_meet_check,
    subline_patterns,
    subgeometry_witness,
)
from blockingsets.projspace import PointSet, ProjectiveSpace, Subspace
from blockingsets.spreads import spread_context

from exhaustive_reference import reference_search
from trace_reference import grouped_points


def mutate_on_secant(pts, p0):
    """Swap one point of a (p0+1)-secant for another point of that line."""
    lines = traces_of(pts, 1)
    idx = int(np.nonzero(lines.sizes == p0 + 1)[0][0])
    line = lines.subspace_at(idx)
    on = [int(r) for r in line.point_ranks() if r in pts]
    off = [int(r) for r in line.point_ranks() if r not in pts]
    ranks = [int(r) for r in pts.ranks if r != on[0]] + [off[0]]
    return PointSet(pts.space, ranks), line


# -- families ------------------------------------------------------------------


@pytest.mark.parametrize("params,size,rank", [
    (dict(q=9, p0=3, n=2), 13, 3),
    (dict(q=49, p0=7, n=2), 57, 3),
    (dict(q=49, p0=7, n=3, m=2), 57, 3),
    (dict(q=81, p0=3, n=2), 13, 3),
    (dict(q=81, p0=9, n=2), 91, 6),
])
def test_subgeometry_sizes(params, size, rank):
    witness = build_family_witness("subgeometry", **params)
    assert witness.verify()
    assert len(witness.points) == size
    assert witness.rank == rank == witness.pi.dim + 1


def test_redei_trace_family():
    witness = build_family_witness("redei_trace", q=9, p0=3)
    assert witness.verify() and len(witness.points) == 13
    ok, _ = is_k_blocking(witness.points, 1)
    assert ok and is_redei(witness.points, 1)[0]
    bigger = build_family_witness("redei_trace", q=16, p0=4)
    assert bigger.verify() and len(bigger.points) == 21
    assert is_redei(bigger.points, 1)[0]


def test_cone_family(cone_9):
    assert cone_9.verify()
    assert len(cone_9.points) == 118        # 13 generators of 9 each + vertex
    assert cone_9.rank == 5
    vertex = cone_9.points.space.rank_of((0, 0, 0, 1))
    assert vertex in cone_9.points


def test_random_rank_r_family(rank4_27):
    assert rank4_27.verify()
    assert len(rank4_27.points) == 40
    assert rank4_27.rank == 4
    again = build_family_witness("random_rank_r", q=27, n=2, r=4, seed=1)
    assert again.points == rank4_27.points
    other = build_family_witness("random_rank_r", q=27, n=2, r=4, seed=2)
    assert other.points != rank4_27.points


def test_build_family_returns_points(baer):
    pts = build_family("subgeometry", q=9, p0=3, n=2)
    assert pts == baer.points


@pytest.mark.parametrize("name,params", [
    ("nope", dict(q=9)),
    ("subgeometry", dict(q=9, p0=3, n=2, m=5)),
    ("subgeometry", dict(q=8, p0=3, n=2)),
    ("subgeometry", dict(q=9)),
    ("redei_trace", dict(q=9, p0=9)),
    ("cone", dict(q=9, p0=3, n=3, base_m=3)),
    ("random_rank_r", dict(q=27, n=2, r=99, seed=1)),
    ("subgeometry", dict(q=9, p0=6, n=2)),
    ("random_rank_r", dict(q=12, n=2, r=3, seed=1)),
    ("subgeometry", dict(q=9, p0=1, n=2)),
])
def test_family_parameter_errors(name, params):
    with pytest.raises(BadParamsError):
        build_family_witness(name, **params)


def test_witness_verify_catches_wrong_points(baer):
    fake = LinearSetWitness(baer.ctx, baer.pi,
                            PointSet(baer.points.space, baer.points.ranks[:-1]),
                            baer.rank)
    assert not fake.verify()


def test_build_linear_set_roundtrip(baer):
    rebuilt = build_linear_set(baer.ctx, baer.pi)
    assert rebuilt.points == baer.points and rebuilt.rank == baer.rank


# -- subline patterns ------------------------------------------------------------


@pytest.mark.parametrize("p,t,p0,count", [
    (3, 2, 3, 30),
    (3, 3, 3, 819),
    (7, 2, 7, 350),
    (2, 4, 4, 68),
    (2, 4, 2, 680),
    (3, 1, 3, 1),           # over the whole field: the line itself
])
def test_subline_pattern_counts(p, t, p0, count):
    field = make_field(p, t)
    mat, tuples = subline_patterns(field, p0)
    q = p ** t
    assert len(tuples) == count == mat.shape[0]
    assert mat.shape[1] == q + 1
    assert (mat.sum(axis=1) == p0 + 1).all()
    assert len({tuple(row) for row in tuples}) == count
    # every 3 points of the parameter line lie on exactly one subline
    assert count * comb(p0 + 1, 3) == comb(q + 1, 3)


def _reference_subline_patterns(field, p0):
    """The scalar loop `subline_patterns` ran before it was vectorized:
    for each triple of PG(1, q) points not yet covered, in lexicographic
    order, solve c = lam a + mu b and collect {t0 lam a + t1 mu b} over
    the subfield."""
    space = ProjectiveSpace(1, field)
    e = next(e for e in range(1, field.t + 1) if field.p ** e == p0)
    embed, _ = field.embedding(e) if e < field.t else (range(field.q), None)
    sub_codes = [int(c) for c in embed]
    covered, tuples = set(), []
    for tri in combinations(range(space.num_points), 3):
        if tri in covered:
            continue
        a, b, c = (space.coords_of(r) for r in tri)
        det = field.sub(field.mul(a[0], b[1]), field.mul(a[1], b[0]))
        lam = field.mul(field.inv(det), field.sub(
            field.mul(c[0], b[1]), field.mul(c[1], b[0])))
        mu = field.mul(field.inv(det), field.sub(
            field.mul(a[0], c[1]), field.mul(a[1], c[0])))
        u = [field.mul(lam, x) for x in a]
        v = [field.mul(mu, x) for x in b]
        out = {tri[1]}
        for t0 in sub_codes:
            if t0 == 0:
                continue
            for t1 in sub_codes:
                out.add(space.rank_of([field.add(field.mul(t0, x),
                                                 field.mul(t1, y))
                                       for x, y in zip(u, v)]))
        ranks = tuple(sorted(out))
        tuples.append(ranks)
        covered.update(combinations(ranks, 3))
    mat = np.zeros((len(tuples), space.num_points), dtype=bool)
    for i, ranks in enumerate(tuples):
        mat[i, list(ranks)] = True
    return mat, tuples


@pytest.mark.parametrize("p,t,p0,count", [
    (3, 2, 3, 30), (3, 3, 3, 819), (7, 2, 7, 350), (2, 4, 4, 68)])
def test_subline_patterns_match_reference_loop(p, t, p0, count):
    field = make_field(p, t)
    mat, tuples = subline_patterns(field, p0)
    want_mat, want = _reference_subline_patterns(field, p0)
    assert len(tuples) == count
    assert tuples == tuple(want) \
        and all(type(r) is int for t in tuples for r in t)
    assert mat.dtype == bool and np.array_equal(mat, want_mat)
    # the loop emits the sublines in lexicographic order of their tuples
    assert list(tuples) == sorted(tuples)


def test_subline_patterns_cached_and_guarded():
    field = make_field(3, 2)
    assert subline_patterns(field, 3) is subline_patterns(field, 3)
    for p0 in (9, 6, 1):
        with pytest.raises(BadParamsError):
            subline_patterns(make_field(3, 3), p0)


def test_enumerate_sublines_partition_triples():
    space = ProjectiveSpace(2, make_field(3, 2))
    line = Subspace(space, [(1, 0, 0), (0, 1, 0)])
    line_ranks = set(int(r) for r in line.point_ranks())
    sublines = list(enumerate_sublines(line, 3))
    assert len(sublines) == 30
    for sub in sublines:
        assert len(sub) == 4
        assert set(int(r) for r in sub.ranks) <= line_ranks
    keys = {tuple(sub.ranks) for sub in sublines}
    assert len(keys) == 30
    fixed = tuple(sorted(line_ranks))[:3]
    through = [s for s in sublines if all(r in s for r in fixed)]
    assert len(through) == 1


def test_enumerate_sublines_rejects_non_lines():
    space = ProjectiveSpace(3, make_field(3, 1))
    plane = Subspace(space, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    with pytest.raises(RangeError):
        next(enumerate_sublines(plane, 3))
    with pytest.raises(RangeError):
        line_param_positions(plane, [0])


def test_line_param_positions_permute_chart():
    space = ProjectiveSpace(2, make_field(7, 2))
    line = Subspace(space, [(1, 0, 3), (0, 1, 5)])
    positions = line_param_positions(line, line.point_ranks())
    assert sorted(positions) == list(range(50))


# -- subline meets ----------------------------------------------------------------


def test_subline_meet_check_baer(baer):
    report = subline_meet_check(baer)
    assert report.ok and not report.violations
    assert report.secant_lines == 13
    assert report.allowed_sizes == (0, 1, 2, 3, 4)
    assert report.sublines_checked == 13 * 30


def test_subline_meet_check_rank4(rank4_27):
    report = subline_meet_check(rank4_27)
    assert report.ok
    assert report.allowed_sizes == (0, 1, 2, 3, 4)


def test_subline_meet_check_flags_mutation(subgeom_49):
    mutated, line = mutate_on_secant(subgeom_49.points, 7)
    fake = LinearSetWitness(subgeom_49.ctx, subgeom_49.pi, mutated,
                            subgeom_49.rank)
    report = subline_meet_check(fake)
    assert not report.ok
    assert report.allowed_sizes == (0, 1, 2, 3, 8)
    mask = mutated.mask()
    for bad_line, subline, size in report.violations:
        assert size not in report.allowed_sizes
        assert int(mask[subline.ranks].sum()) == size
    assert any(bad_line == line for bad_line, _, _ in report.violations)


def test_subline_meet_check_on_a_line():
    # in PG(1, q) the trace summary holds the space itself as its one line
    wit = build_family_witness("subgeometry", q=9, p0=3, n=1)
    report = subline_meet_check(wit)
    assert report.ok and report.secant_lines == 1
    assert report.sublines_checked == 30
    assert report.allowed_sizes == (0, 1, 2, 4)
    # three points of the subline plus a fourth outside it
    space = wit.points.space
    outside = next(r for r in range(space.num_points)
                   if r not in wit.points)
    fake = LinearSetWitness(wit.ctx, wit.pi, PointSet(
        space, wit.points.ranks[:3].tolist() + [outside]), wit.rank)
    report = subline_meet_check(fake)
    assert not report.ok and report.violations
    mask = fake.points.mask()
    for _, subline, size in report.violations:
        assert size == 3 == int(mask[subline.ranks].sum())


def test_meet_sizes_are_exact_popcounts():
    rng = np.random.default_rng(3)
    for width in (1, 50, 64, 65, 130):
        lines = rng.random((40, width)) < 0.3
        bank = rng.random((25, width)) < 0.5
        bits = linearsets._bitmasks(lines)
        assert bits.shape == (40, -(-width // 64))
        got = linearsets._meet_sizes(bits, linearsets._bitmasks(bank))
        want = lines.astype(np.int64) @ bank.T.astype(np.int64)
        assert np.array_equal(got, want)


# -- secant linearity --------------------------------------------------------------


def test_secant_linearity_baer(baer):
    report = secant_linearity_check(baer.points, 1, 3)
    assert report.ok and report.secants == 13
    assert not report.within_hypotheses   # p0 = 3 < 7


def test_secant_linearity_subgeometry(subgeom_49):
    report = secant_linearity_check(subgeom_49.points, 1, 7)
    assert report.ok and report.secants == 57
    assert report.within_hypotheses


def test_secant_linearity_flags_mutation(subgeom_49):
    mutated, line = mutate_on_secant(subgeom_49.points, 7)
    report = secant_linearity_check(mutated, 1, 7)
    assert not report.ok
    assert any(f == line for f in report.failures)


def test_secant_linearity_outside_hypotheses():
    space = ProjectiveSpace(2, make_field(7, 2))
    line = Subspace(space, [(1, 0, 0), (0, 1, 0)])
    subline = next(enumerate_sublines(line, 7))
    report = secant_linearity_check(subline, 1, 7)
    assert report.ok and report.secants == 1
    assert not report.within_hypotheses   # not even a blocking set


def test_secant_linearity_on_a_line():
    # in PG(1, q) the trace summary holds the space itself as its one line,
    # and no k makes a set k-blocking
    pts = build_family("subgeometry", q=9, p0=3, n=1)
    space = pts.space
    whole = Subspace(space, [(1, 0), (0, 1)])
    report = secant_linearity_check(pts, 1, 3)
    assert report.ok and report.secants == 1 and report.failures == []
    assert not report.within_hypotheses
    # three points of the subline plus a fourth outside it
    outside = next(r for r in range(space.num_points) if r not in pts)
    fake = PointSet(space, pts.ranks[:3].tolist() + [outside])
    report = secant_linearity_check(fake, 1, 3)
    assert not report.ok and report.secants == 1
    assert report.failures == [whole]
    # a 4-set of PG(1, 9) is a GF(3)-subline exactly when some pattern is it
    _, tuples = subline_patterns(space.field, 3)
    assert tuple(pts.ranks.tolist()) in tuples
    assert tuple(fake.ranks.tolist()) not in tuples


def _packed_key(line):
    """The base-q numeral of a line's canonical basis, row 1 then row 2,
    lowest place first: the order first failures are reported in."""
    q = line.space.q
    return sum(d * q ** i for i, d in
               enumerate(c for row in line.rows for c in row))


def test_failure_lists_come_in_witness_order(rank4_27, subgeom_49):
    space = rank4_27.points.space
    pts = PointSet(space, np.random.default_rng(5).choice(
        space.num_points, 100, replace=False))
    lines = traces_of(pts, 1)
    _, tuples = subline_patterns(space.field, 3)
    failing = []
    fours = np.flatnonzero(lines.sizes == 4)
    points, offsets = grouped_points(lines, fours)
    for i, idx in enumerate(fours):
        line = lines.subspace_at(int(idx))
        trace = pts.ranks[points[offsets[i]:offsets[i + 1]]]
        if tuple(sorted(line_param_positions(line, trace).tolist())) \
                not in tuples:
            failing.append(_packed_key(line))
    report = secant_linearity_check(pts, 1, 3)
    assert len(failing) > 10
    assert [_packed_key(f) for f in report.failures] == sorted(failing)[:10]
    # every meet of a 4-point subline is allowed at rank 4, so use p0 = 7
    space = subgeom_49.points.space
    pts = PointSet(space, np.random.default_rng(5).choice(
        space.num_points, 600, replace=False))
    fake = LinearSetWitness(subgeom_49.ctx, subgeom_49.pi, pts,
                            subgeom_49.rank)
    report = subline_meet_check(fake)
    mat, _ = subline_patterns(space.field, 7)
    lines = traces_of(pts, 1)
    failing = []
    secants = np.flatnonzero((lines.sizes >= 2) & (lines.sizes <= 49))
    points, offsets = grouped_points(lines, secants)
    for i, idx in enumerate(secants):
        line = lines.subspace_at(int(idx))
        pos = line_param_positions(
            line, pts.ranks[points[offsets[i]:offsets[i + 1]]])
        if not set(mat[:, pos].sum(axis=1).tolist()) \
                <= set(report.allowed_sizes):
            failing.append(_packed_key(line))
    keys = [_packed_key(line) for line, _, _ in report.violations]
    assert len(failing) > 1 and keys[0] == min(failing)
    assert keys == sorted(keys)


# -- linearity decision -------------------------------------------------------------


def test_is_linear_reconstruct_first(baer):
    witness, cert = is_linear(baer.points, 3)
    assert witness is not None and witness.verify()
    assert witness.points == baer.points
    assert cert["strategy"] == "reconstruct_first"
    assert cert["reconstruct_attempted"] and cert["reconstruct_succeeded"]
    assert cert["rank_cap"] == 3 and cert["k"] == 1


def test_is_linear_exhaustive(baer):
    witness, cert = is_linear(baer.points, 3, strategy="exhaustive")
    assert witness is not None and witness.points == baer.points
    assert witness.rank == 3
    assert not cert["reconstruct_attempted"]
    assert cert["ranks_searched"] == [3]
    assert cert["subspaces_tested"] > 0
    assert cert["preimage_points"] == 13 * 4


def test_is_linear_rejects_mutation(baer):
    mutated, _ = mutate_on_secant(baer.points, 3)
    for strategy in ("reconstruct_first", "exhaustive"):
        witness, cert = is_linear(mutated, 3, strategy=strategy)
        assert witness is None
        assert not cert["reconstruct_succeeded"]
        assert cert["ranks_searched"] == [3]


def test_is_linear_guards(baer, subgeom_49):
    with pytest.raises(BadParamsError):
        is_linear(baer.points, 9)
    with pytest.raises(RangeError):
        is_linear(baer.points, 3, strategy="guess")
    with pytest.raises(RangeError):
        is_linear(PointSet(baer.points.space, []), 3)
    with pytest.raises(TooLargeError):
        is_linear(subgeom_49.points, 7, strategy="exhaustive")


@pytest.mark.parametrize("strategy", ["reconstruct_first", "exhaustive"])
def test_is_linear_rejects_a_k_out_of_range(baer, strategy):
    # a k passed in must lie in 1..n-1, as everywhere else
    for k in (0, 2):
        with pytest.raises(RangeError):
            is_linear(baer.points, 3, strategy=strategy, k=k)
    # a line has no k: the inferred one is refused, not read as rank cap 1
    line = subgeometry_witness(9, 3, 1)
    assert line.rank == 2 and line.verify()
    with pytest.raises(RangeError):
        is_linear(line.points, 3, strategy=strategy)


def test_is_linear_cert_keys(baer):
    _, cert = is_linear(baer.points, 3, strategy="exhaustive")
    assert set(cert) == {"strategy", "rank_cap", "k", "reconstruct_attempted",
                         "reconstruct_succeeded", "ranks_searched",
                         "subspaces_tested", "preimage_points"}


def _replaced(pts, seed):
    """The set with one seeded point swapped for a seeded point off it."""
    rng = np.random.default_rng(seed)
    space = pts.space
    drop = rng.integers(len(pts))
    new = rng.choice(np.setdiff1d(np.arange(space.num_points), pts.ranks))
    return PointSet(space, np.append(np.delete(pts.ranks, drop), new))


def _decisions(pts, monkeypatch):
    """is_linear with the batched search and with the reference search:
    (witness rows or None, certificate) each."""
    out = []
    for search in (linearsets._exhaustive_search, reference_search):
        with monkeypatch.context() as patch:
            patch.setattr(linearsets, "_exhaustive_search", search)
            witness, cert = is_linear(pts, 3, strategy="exhaustive")
        out.append((None if witness is None else witness.pi.rows, cert))
    return out


@pytest.mark.parametrize("seed", range(6))
def test_batched_search_matches_reference_on_replacements(baer, monkeypatch,
                                                          seed):
    got, want = _decisions(_replaced(baer.points, seed), monkeypatch)
    assert got == want
    assert want[0] is None and want[1]["subspaces_tested"] > 0


def test_batched_search_matches_reference_on_witnesses(baer, rank4_27,
                                                       monkeypatch):
    for inst in (baer, rank4_27):
        got, want = _decisions(inst.points, monkeypatch)
        assert got == want and want[0] is not None


def test_batched_search_stops_at_the_rank_cap(baer, monkeypatch):
    space = baer.points.space
    line = space.line_through(0, 1).point_ranks()
    off = [r for r in range(space.num_points)
           if r not in line and r not in baer.points][:2]
    # a line and two points off it: the rank-3 subspaces through a spread
    # element of the line blow down onto the whole line, inside the set
    # but not all of it, so the search turns back at the rank cap
    got, want = _decisions(PointSet(space, [*line, *off]), monkeypatch)
    assert got == want and want[0] is None
    assert want[1]["ranks_searched"] == [3]
    assert want[1]["subspaces_tested"] > 0
    # one point more than PG(2, 3) has: no rank up to the cap holds it
    got, want = _decisions(PointSet(space, [*baer.points, off[0]]),
                           monkeypatch)
    assert got == want and want[0] is None
    assert want[1]["ranks_searched"] == []
    assert want[1]["subspaces_tested"] == 0


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(2))
def test_batched_search_matches_reference_on_rank4_replacements(
        rank4_27, monkeypatch, seed):
    # the reference tests about 3,100 subspaces here, one scalar RREF
    # each: over a minute per set
    got, want = _decisions(_replaced(rank4_27.points, seed), monkeypatch)
    assert got == want and want[1]["subspaces_tested"] > 3000

"""Blocking-set predicates against brute force and hand-checked values."""

from fractions import Fraction

import numpy as np
import pytest

from blockingsets.blocking import (
    blocking_report,
    classify_small_large,
    classify_trace,
    exponent,
    gap_thresholds,
    is_k_blocking,
    is_minimal,
    is_redei,
    is_small,
    is_trivial,
    nonsecant_mask,
    nonsecant_point_count,
    secant_analysis,
    spectrum,
    tangent_counts,
    tangent_extension,
    tangent_space,
    traces_of,
)
from blockingsets.errors import (GapViolationError, NotApplicableError,
                                 NotBlockingError, NotFoundError, RangeError)
from blockingsets.fields import make_field
from blockingsets.linearsets import build_family_witness
from blockingsets.projspace import PointSet, ProjectiveSpace, Subspace, span


def brute_blocking(pts, k):
    space = pts.space
    mask = pts.mask()
    return all(bool(mask[sub.point_ranks()].any())
               for sub in space.subspaces(space.n - k))


def line_points(space, *rows):
    return PointSet(space, Subspace(space, rows).point_ranks())


# -- is_k_blocking -------------------------------------------------------------


@pytest.mark.parametrize("n,q,k,seed", [
    (2, 3, 1, 0), (2, 3, 1, 1), (2, 4, 1, 2),
    (3, 2, 1, 3), (3, 2, 2, 4), (3, 3, 2, 5),
])
def test_blocking_matches_brute_force(n, q, k, seed):
    p = 2 if q in (2, 4) else 3
    t = {2: 1, 3: 1, 4: 2}[q]
    space = ProjectiveSpace(n, make_field(p, t))
    rng = np.random.default_rng(seed)
    for size in (1, q + 1, 2 * q, space.num_points // 2):
        pts = PointSet(space, rng.choice(space.num_points, size,
                                         replace=False))
        got, witness = is_k_blocking(pts, k)
        assert got == brute_blocking(pts, k)
        if not got:
            assert witness.dim == space.n - k
            assert not pts.mask()[witness.point_ranks()].any()


# kind: how the summary of the (n-k)-spaces keys them, line ranks,
# dual ranks or enumeration indices (the incidence table)
@pytest.mark.parametrize("n,p,t,k,kind", [
    (2, 3, 2, 1, "rank"), (3, 2, 2, 2, "rank"), (4, 2, 1, 3, "rank"),
    (3, 2, 2, 1, "dual"), (4, 2, 1, 1, "dual"), (4, 2, 1, 2, "full"),
    (3, 7, 2, 2, "rank"), (3, 7, 2, 1, "dual"),
])
def test_uncovered_witness_misses_the_set(n, p, t, k, kind):
    space = ProjectiveSpace(n, make_field(p, t))
    dim = n - k
    assert kind == {n - 1: "dual", 1: "rank"}.get(dim, "full")
    rng = np.random.default_rng(n * 100 + p * 10 + k)
    sizes = (1, 4, 30) if space.num_points > 1000 else \
        (1, 4, space.num_points // 4, space.num_points // 2)
    for size in sizes:
        pts = PointSet(space, rng.choice(space.num_points, size,
                                         replace=False))
        summary = traces_of(pts, dim)
        got, witness = is_k_blocking(pts, k)
        if space.num_points <= 1000:
            assert got == brute_blocking(pts, k)
        if got:
            continue
        assert witness.dim == dim
        assert not pts.mask()[witness.point_ranks()].any()
        # the first key is found once, and later calls give the same witness
        assert summary._uncovered is not None
        assert is_k_blocking(pts, k) == (False, witness)
        # the uncovered subspace with the smallest key
        first = int(np.flatnonzero(np.isin(np.arange(summary.total),
                                           summary.keys_of(np.arange(
                                               summary.sizes.size)),
                                           invert=True))[0])
        if kind == "rank":
            key = int(space.line_keys(np.asarray([witness.rows]))[0])
        elif kind == "dual":
            key = space.rank_of(space.covector_of(witness))
        else:
            key = next(i for i in range(summary.total)
                       if space.subspace_by_index(dim, i) == witness)
        assert key == first


def test_blocking_line_and_punctured_line():
    space = ProjectiveSpace(2, make_field(3, 1))
    line = line_points(space, (1, 0, 0), (0, 1, 0))
    ok, _ = is_k_blocking(line, 1)
    assert ok
    punctured = PointSet(space, line.ranks[1:])
    ok, witness = is_k_blocking(punctured, 1)
    assert not ok
    assert not punctured.mask()[witness.point_ranks()].any()


def test_blocking_rejects_bad_k(baer):
    with pytest.raises(RangeError):
        is_k_blocking(baer.points, 0)
    with pytest.raises(RangeError):
        is_k_blocking(baer.points, 2)


def test_empty_set_is_not_blocking():
    space = ProjectiveSpace(2, make_field(2, 1))
    ok, witness = is_k_blocking(PointSet(space, []), 1)
    assert not ok and witness.dim == 1


# -- size predicates -----------------------------------------------------------


def test_small_threshold_is_strict():
    space = ProjectiveSpace(2, make_field(3, 2))
    rng = np.random.default_rng(7)
    below = PointSet(space, rng.choice(space.num_points, 14, replace=False))
    at = PointSet(space, rng.choice(space.num_points, 15, replace=False))
    assert is_small(below, 1)          # 2*14 < 3*(9+1)
    assert not is_small(at, 1)         # 2*15 == 3*(9+1), not strict


def test_trivial_detects_subspaces():
    space = ProjectiveSpace(3, make_field(2, 1))
    line = line_points(space, (1, 0, 0, 0), (0, 1, 0, 0))
    plane = PointSet(space, Subspace(
        space, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]).point_ranks())
    assert is_trivial(line, 1)
    assert is_trivial(plane, 2)
    assert not is_trivial(line, 2)
    assert not is_trivial(plane, 1)
    bent = PointSet(space, list(line.ranks[:-1]) + [space.rank_of((0, 0, 1, 0))])
    assert not is_trivial(bent, 1)


def test_exponent_values(baer, cone_9):
    assert exponent(baer.points, 1) == 1
    assert exponent(cone_9.points, 2) == 1
    space = ProjectiveSpace(2, make_field(3, 2))
    line = line_points(space, (1, 0, 0), (0, 1, 0))
    # trivial line: traces are 1 and q+1, both 1 mod 9, capped at t*k
    assert exponent(line, 1) == 2


def test_exponent_requires_blocking():
    space = ProjectiveSpace(2, make_field(3, 1))
    with pytest.raises(NotBlockingError):
        exponent(PointSet(space, [0, 1, 2]), 1)


# -- minimality ----------------------------------------------------------------


def test_minimal_both_methods_on_baer(baer):
    assert is_minimal(baer.points, 1, "direct") == (True, None)
    assert is_minimal(baer.points, 1, "criterion") == (True, None)


def test_minimal_direct_names_removable_point():
    space = ProjectiveSpace(2, make_field(3, 1))
    line = line_points(space, (1, 0, 0), (0, 1, 0))
    extra = space.rank_of((0, 0, 1))
    pts = PointSet(space, list(line.ranks) + [extra])
    ok, removable = is_minimal(pts, 1, "direct")
    assert not ok and removable == extra
    ok2, _ = is_k_blocking(pts.difference(PointSet(space, [extra])), 1)
    assert ok2


def test_minimal_criterion_gates():
    space = ProjectiveSpace(2, make_field(3, 1))
    everything = PointSet(space, np.arange(space.num_points))
    with pytest.raises(NotApplicableError):
        is_minimal(everything, 1, "criterion")     # |B| > 2 q^k
    line = line_points(space, (1, 0, 0), (0, 1, 0))
    pts = PointSet(space, list(line.ranks) + [space.rank_of((0, 0, 1))])
    with pytest.raises(NotApplicableError):
        is_minimal(pts, 1, "criterion")            # 2-secants break 1 mod p
    with pytest.raises(RangeError):
        is_minimal(line, 1, "voting")
    with pytest.raises(NotBlockingError):
        is_minimal(PointSet(space, [0, 1]), 1, "direct")


# -- Redei type ----------------------------------------------------------------


def test_redei_baer(baer):
    ok, hyper = is_redei(baer.points, 1)
    assert ok
    trace = int(baer.points.mask()[hyper.point_ranks()].sum())
    assert trace == len(baer.points) - 9


def test_redei_negative_cases():
    witness = build_family_witness("random_rank_r", q=16, n=2, r=5, seed=1)
    pts = witness.points
    assert len(pts) == 31
    sizes = traces_of(pts, 1)
    assert dict(zip(*np.unique(sizes.sizes, return_counts=True))) == \
        {1: 160, 3: 106, 7: 7}
    assert is_redei(pts, 1) == (False, None)
    # too few points for any hyperplane to leave q^k outside
    small = PointSet(pts.space, pts.ranks[:5])
    assert is_redei(small, 1) == (False, None)


# -- spectra -------------------------------------------------------------------


@pytest.mark.parametrize("n,p,t,dim,seed", [
    (2, 2, 2, 1, 0), (3, 3, 1, 1, 1), (3, 3, 1, 2, 2), (3, 2, 1, 2, 3),
])
def test_spectrum_identities_random(n, p, t, dim, seed):
    space = ProjectiveSpace(n, make_field(p, t))
    rng = np.random.default_rng(seed)
    for size in (0, 1, 5, space.num_points // 3, space.num_points):
        pts = PointSet(space, rng.choice(space.num_points, size,
                                         replace=False))
        spec = spectrum(pts, dim)
        assert spec.identities_hold()
        assert sum(spec.x.values()) == space.num_subspaces(dim)


def test_spectrum_dim0_and_range():
    space = ProjectiveSpace(2, make_field(2, 1))
    pts = PointSet(space, [0, 3])
    spec = spectrum(pts, 0)
    assert spec.x == {0: 5, 1: 2}
    assert spec.identities_hold()
    with pytest.raises(RangeError):
        spectrum(pts, 3)


def test_baer_spectrum(baer):
    assert spectrum(baer.points, 1).x == {1: 78, 4: 13}


# -- small/large gap -----------------------------------------------------------


def test_gap_thresholds_exact():
    lower, upper = gap_thresholds(7, 2, 0)
    assert lower == Fraction(402, 343)
    assert upper == Fraction(2342, 343)
    lower, upper = gap_thresholds(7, 2, 1)
    assert lower == Fraction(402, 7)
    assert upper == Fraction(2342, 7)
    # the harness reads its size cap and large-space excess from here
    for p0 in (7, 11, 13, 17, 19, 23, 29, 31):
        f = Fraction(p0)
        for h in range(1, 11):
            _, upper = gap_thresholds(p0, h, 1)
            assert upper == (f ** (h + 1) - f ** (h - 1) - f ** (h - 2)
                             - 3 * f ** (h - 3))
            for k in range(1, 4):
                hk = h * k
                assert gap_thresholds(p0, h, k)[0] == (
                    f ** hk + f ** (hk - 1) + f ** (hk - 2)
                    + 3 * f ** (hk - 3))


def test_classify_trace_sides():
    assert classify_trace(1, 7, 2, 0).side == "small"
    assert classify_trace(8, 7, 2, 0).side == "large"
    assert classify_trace(57, 7, 2, 1).side == "small"
    with pytest.raises(GapViolationError):
        classify_trace(3, 7, 2, 0)


def test_classify_small_large_on_subgeometry(subgeom_49):
    pts = subgeom_49.points
    space = pts.space
    lines = traces_of(pts, 1)
    tangent_idx = int(np.nonzero(lines.sizes == 1)[0][0])
    secant_idx = int(np.nonzero(lines.sizes == 8)[0][0])
    tangent = lines.subspace_at(tangent_idx)
    secant = lines.subspace_at(secant_idx)
    assert classify_small_large(pts, 1, 7, tangent).side == "small"
    assert classify_small_large(pts, 1, 7, secant).side == "large"
    whole = Subspace(space, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert classify_small_large(pts, 1, 7, whole).side == "small"


def test_classify_small_large_gates(baer, subgeom_49):
    with pytest.raises(NotApplicableError):
        line = traces_of(baer.points, 1).subspace_at(0)
        classify_small_large(baer.points, 1, 3, line)   # p0 < 7
    space = subgeom_49.points.space
    point = Subspace(space, [(1, 0, 0)])
    with pytest.raises(RangeError):
        classify_small_large(subgeom_49.points, 1, 7, point)
    # a line of PG(2,32) meets every line in 1 or 33 points, both 1 mod 16,
    # but 32 is no power of 16
    plane = ProjectiveSpace(2, make_field(2, 5))
    line = Subspace(plane, [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(RangeError):
        classify_small_large(PointSet(plane, line.point_ranks()), 1, 16, line)


# -- tangency ------------------------------------------------------------------


def test_tangent_counts_baer(baer):
    assert list(tangent_counts(baer.points, 1)) == [6] * 13


def test_tangent_space(baer):
    pts = baer.points
    point = pts.space.coords_of(int(pts.ranks[0]))
    line = tangent_space(pts, 1, point)
    assert line.dim == 1
    assert int(pts.mask()[line.point_ranks()].sum()) == 1
    assert pts.space.rank_of(point) in line.point_ranks()
    with pytest.raises(RangeError):
        outside = next(r for r in range(pts.space.num_points)
                       if r not in pts)
        tangent_space(pts, 1, pts.space.coords_of(outside))


def test_tangent_space_none_when_saturated():
    space = ProjectiveSpace(2, make_field(2, 1))
    everything = PointSet(space, np.arange(space.num_points))
    assert tangent_space(everything, 1, (1, 0, 0)) is None


def test_tangent_extension_finds_clean_plane():
    space = ProjectiveSpace(3, make_field(3, 1))
    line = Subspace(space, [(1, 0, 0, 0), (0, 1, 0, 0)])
    on_line = [space.rank_of(v) for v in
               ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0))]
    off = [space.rank_of(v) for v in ((0, 0, 1, 0), (0, 0, 0, 1))]
    pts = PointSet(space, on_line + off)
    plane = tangent_extension(pts, 1, line, 2)
    assert plane.dim == 2
    trace = sorted(int(r) for r in plane.point_ranks() if r in pts)
    assert trace == sorted(on_line)
    assert tangent_extension(pts, 1, line, 1) == line


def test_tangent_extension_dead_end_and_ranges():
    space = ProjectiveSpace(3, make_field(3, 1))
    line = Subspace(space, [(1, 0, 0, 0), (0, 1, 0, 0)])
    on_line = [space.rank_of(v) for v in
               ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0))]
    # one unwanted point inside each of the four planes through the line
    blockers = [space.rank_of(v) for v in
                ((0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1), (0, 0, 1, 2))]
    pts = PointSet(space, on_line + blockers)
    with pytest.raises(NotFoundError):
        tangent_extension(pts, 1, line, 2)
    with pytest.raises(RangeError):
        tangent_extension(pts, 1, line, 0)
    with pytest.raises(RangeError):
        tangent_extension(pts, 1, line, 3)
    tangent_line = Subspace(space, [(1, 0, 0, 0), (0, 1, 1, 0)])
    with pytest.raises(RangeError):
        tangent_extension(pts, 1, tangent_line, 2)
    other = ProjectiveSpace(3, make_field(2, 1))
    with pytest.raises(RangeError):
        tangent_extension(pts, 1, Subspace(other, line.rows), 2)


# -- secants -------------------------------------------------------------------


def test_secant_analysis_baer(baer):
    report = secant_analysis(baer.points, 1, 3)
    assert report.kappa == 4
    assert report.secant_size_counts == {4: 13}
    assert list(report.per_point_subline_secants) == [4] * 13
    assert list(report.per_point_secants) == [4] * 13
    assert list(report.tangent_space_counts) == [6] * 13
    assert report.min_subline_secants() == 4
    assert report.p0 == 3


def test_secant_report_counts_are_cached_read_only(baer):
    report = secant_analysis(baer.points, 1, 3)
    for counts in (report.per_point_subline_secants,
                   report.per_point_secants):
        with pytest.raises(ValueError):
            counts[0] = 0
    lines = traces_of(baer.points, 1)
    assert report.per_point_subline_secants is \
        lines.per_point_counts(exact=4)
    assert lines.per_point_counts(min_size=2) is \
        lines.per_point_counts(min_size=2)
    assert lines.per_point_counts(min_size=1) is not \
        lines.per_point_counts(min_size=2)


def test_min_subline_secants_empty():
    space = ProjectiveSpace(2, make_field(3, 1))
    report = secant_analysis(PointSet(space, [0]), 1, 3)
    assert report.min_subline_secants() is None


def test_nonsecant_matches_brute_force():
    space = ProjectiveSpace(2, make_field(2, 2))
    rng = np.random.default_rng(11)
    for size in (1, 3, 4, 6):
        pts = PointSet(space, rng.choice(space.num_points, size,
                                         replace=False))
        mask = pts.mask()
        covered = mask.copy()
        for sub in space.subspaces(1):
            ranks = sub.point_ranks()
            if int(mask[ranks].sum()) >= 2:
                covered[ranks] = True
        got = nonsecant_mask(pts)
        assert np.array_equal(got, ~covered)
        assert nonsecant_point_count(pts) == int((~covered).sum())


def test_nonsecant_baer_is_empty(baer):
    # 13 lines of 4 points cover all of PG(2,9)? no: 13*10 incidences minus
    # overlaps; count directly instead of guessing
    count = nonsecant_point_count(baer.points)
    lines = traces_of(baer.points, 1)
    covered = baer.points.mask().copy()
    for idx in np.nonzero(lines.sizes >= 2)[0]:
        covered[lines.subspace_at(int(idx)).point_ranks()] = True
    assert count == int((~covered).sum())


# -- report --------------------------------------------------------------------


def test_blocking_report_baer(baer):
    report = blocking_report(baer.points, 1)
    assert report.set_size == 13 and report.k == 1 and report.q == 9
    assert report.is_blocking and report.uncovered is None
    assert report.small and report.minimal and report.redei
    assert report.exponent == 1
    assert report.removable_point is None
    assert not report.trivial


def test_blocking_report_trivial_line():
    space = ProjectiveSpace(2, make_field(3, 2))
    line = line_points(space, (1, 0, 0), (0, 1, 0))
    report = blocking_report(line, 1)
    assert report.trivial and report.is_blocking and report.minimal
    assert report.exponent == 2


def test_blocking_report_nonblocking():
    space = ProjectiveSpace(2, make_field(3, 1))
    report = blocking_report(PointSet(space, [0, 1, 2]), 1)
    assert not report.is_blocking
    assert report.exponent == 0 and not report.minimal
    assert report.uncovered is not None

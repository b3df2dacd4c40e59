"""Field reduction: the spread model tying PG(n, p^h) to PG(h(n+1)-1, p)."""

import numpy as np
import pytest

from blockingsets.errors import (DimensionMismatchError, NotASublineError,
                                 XNotOnElementError)
from blockingsets.fields import make_field
from blockingsets.projspace import PointSet, ProjectiveSpace, Subspace, span
from blockingsets.spreads import spread_context


@pytest.fixture(scope="module")
def ctx9():
    return spread_context(ProjectiveSpace(2, make_field(3, 2)))


def test_context_cached():
    big = ProjectiveSpace(2, make_field(3, 2))
    assert spread_context(big) is spread_context(big)


def test_spread_cache_is_read_only(ctx9):
    for arr in (ctx9.big_to_small, ctx9.small_to_big,
                ctx9.element_ranks(0)):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_small_space_shape(ctx9):
    assert ctx9.p0 == 3 and ctx9.h == 2
    assert ctx9.small.n == 5 and ctx9.small.q == 3


def test_spread_partitions_small_space(ctx9):
    seen = np.zeros(ctx9.small.num_points, dtype=int)
    element_size = (3 ** 2 - 1) // (3 - 1)
    for rank in range(ctx9.big.num_points):
        ranks = ctx9.element_ranks(rank)
        assert ranks.size == element_size
        seen[ranks] += 1
    assert (seen == 1).all(), "spread elements partition the small points"


def test_element_ranks_match_spread_element(ctx9):
    for rank in (0, 1, 17, 90):
        coords = ctx9.big.coords_of(rank)
        sub = ctx9.spread_element(coords)
        assert sub.dim == ctx9.h - 1
        assert sorted(sub.point_ranks()) == sorted(ctx9.element_ranks(rank))


def test_spread_with_non_primitive_modulus():
    field = make_field(3, 2, modulus=(1, 0, 1))     # x^2 + 1: x has order 4
    assert field.primitive_element() != field.x.code
    ctx = spread_context(ProjectiveSpace(2, field))
    for rank in range(ctx.big.num_points):
        sub = ctx.spread_element(ctx.big.coords_of(rank))
        assert np.array_equal(sub.point_ranks(), ctx.element_ranks(rank))


def test_element_ranks_match_spread_element_pg3_49():
    ctx = spread_context(ProjectiveSpace(3, make_field(7, 2)))
    rng = np.random.default_rng(11)
    for rank in rng.choice(ctx.big.num_points, size=50, replace=False):
        sub = ctx.spread_element(ctx.big.coords_of(int(rank)))
        assert sub.dim == 1
        assert np.array_equal(sub.point_ranks(), ctx.element_ranks(rank))


def test_blow_up_vector_digits(ctx9):
    # code 5 over GF(9) has base-3 digits (2, 1)
    assert ctx9.blow_up_vector((5, 0, 1)) == (2, 1, 0, 0, 1, 0)


def test_blow_up_subspace_roundtrip(ctx9):
    line = Subspace(ctx9.big, [(1, 0, 0), (0, 1, 0)])
    fat = ctx9.blow_up_subspace(line)
    assert fat.dim == ctx9.h * (line.dim + 1) - 1
    image = ctx9.linear_set_of(fat)
    assert image == PointSet(ctx9.big, line.point_ranks())
    with pytest.raises(DimensionMismatchError):
        ctx9.blow_up_subspace(Subspace(ctx9.small, [(1,) + (0,) * 5]))


def test_linear_set_of_point_is_element_image(ctx9):
    for rank in (0, 3, 42):
        elem = ctx9.spread_element(ctx9.big.coords_of(rank))
        image = ctx9.linear_set_of(elem)
        assert list(image.ranks) == [rank]


def test_linear_set_rank3_size(ctx9):
    # a generic rank-3 small subspace meets at most 13 spread elements
    pi = Subspace(ctx9.small, [(1, 0, 0, 0, 0, 0),
                               (0, 0, 1, 0, 0, 0),
                               (0, 0, 0, 0, 1, 0)])
    image = ctx9.linear_set_of(pi)
    assert len(image) <= 13
    back = np.concatenate([ctx9.element_ranks(int(r)) for r in image.ranks])
    for r in pi.point_ranks():
        assert r in back


def test_transversal_line_rebuilds_subline(ctx9, baer):
    from blockingsets.blocking import traces_of
    pts = baer.points
    lines = traces_of(pts, 1)
    idx = int(np.nonzero(lines.sizes == 4)[0][0])
    trace = PointSet(ctx9.big, pts.ranks[lines.points_of(idx)])
    first = int(trace.ranks[0])
    for x in ctx9.element_ranks(first):
        ell = ctx9.transversal_line(trace, int(x))
        assert ell.dim == 1
        assert ctx9.linear_set_of(ell) == trace
    # x on the element of a point not in the subline: loud error
    outside = next(r for r in range(ctx9.big.num_points)
                   if r not in trace)
    with pytest.raises(XNotOnElementError):
        ctx9.transversal_line(trace, int(ctx9.element_ranks(outside)[0]))


def test_transversal_rejects_non_subline(ctx9):
    # 4 collinear points that are not a GF(3)-subline: take a subline and
    # swap one point for another point of the same big line
    from blockingsets.linearsets import enumerate_sublines
    line = Subspace(ctx9.big, [(1, 0, 0), (0, 1, 0)])
    sub = next(enumerate_sublines(line, 3))
    others = [r for r in line.point_ranks() if r not in sub]
    broken_ranks = list(sub.ranks[:-1]) + [others[0]]
    broken = PointSet(ctx9.big, broken_ranks)
    x = int(ctx9.element_ranks(int(broken.ranks[0]))[0])
    with pytest.raises(NotASublineError):
        ctx9.transversal_line(broken, x)


def test_mixed_space_guards(ctx9):
    other = spread_context(ProjectiveSpace(3, make_field(3, 2)))
    assert other is not ctx9
    line_small = Subspace(ctx9.small, [(1, 0, 0, 0, 0, 0),
                                       (0, 1, 0, 0, 0, 0)])
    with pytest.raises(DimensionMismatchError):
        other.linear_set_of(line_small)


def test_witness_images_match_shipped_points(baer, rank4_27, cone_9):
    for witness in (baer, rank4_27, cone_9):
        assert witness.verify()
        assert witness.ctx.linear_set_of(witness.pi) == witness.points
        assert witness.rank == witness.pi.dim + 1


def test_prime_subfield_reduction_of_gf27():
    big = ProjectiveSpace(2, make_field(3, 3))
    ctx = spread_context(big)
    assert ctx.p0 == 3 and ctx.h == 3
    assert ctx.small.n == 8
    elem = ctx.element_ranks(0)
    assert elem.size == (27 - 1) // 2

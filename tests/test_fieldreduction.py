"""Field reduction: the spread model tying PG(n, p^h) to PG(h(n+1)-1, p)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockingsets.errors import (DimensionMismatchError, NotASublineError,
                                 RangeError, SpecMismatchError,
                                 XNotOnElementError)
from blockingsets.fields import make_field
from blockingsets.projspace import PointSet, ProjectiveSpace, Subspace, span
from blockingsets.spreads import SpreadContext, spread_context

from trace_reference import grouped_points

# (p, t, n) of the big space of every shipped catalogue instance
SHIPPED = [(3, 2, 2), (3, 2, 3), (3, 3, 2), (7, 2, 2), (7, 2, 3)]


@pytest.fixture(scope="module")
def ctx9():
    return spread_context(ProjectiveSpace(2, make_field(3, 2)))


def test_context_cached():
    big = ProjectiveSpace(2, make_field(3, 2))
    assert spread_context(big) is spread_context(big)


def test_spread_cache_is_read_only(ctx9):
    for arr in (ctx9._reps, ctx9._place, *ctx9._blow_tables):
        with pytest.raises(ValueError):
            arr[0] = 0
    # the maps hand out fresh arrays: a write into one is not seen again
    for call in (lambda: ctx9.element_ranks(0),
                 lambda: ctx9.blow_up_ranks([[0, 5], [17, 90]]),
                 lambda: ctx9.blow_down_ranks([0, 7, 100, 363])):
        before = call()
        call()[...] = 0
        got = call()
        got += 1
        assert np.array_equal(call(), before)


def test_small_space_shape(ctx9):
    assert repr(ctx9) == "SpreadContext(PG(2, 9) -> PG(5, 3))"
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
    assert field.primitive_element() != field.x
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
    trace = PointSet(ctx9.big, pts.ranks[grouped_points(lines, [idx])[0]])
    first = int(trace.ranks[0])
    for x in ctx9.element_ranks(first):
        ell = ctx9.transversal_line(trace, int(x))
        assert ell.dim == 1
        assert ctx9.linear_set_of(ell) == trace
        # the canonical basis of the line x y, y the batch form's match,
        # with x given by its rank or by its coordinates
        y = int(ctx9.transversal_line(trace.ranks[None], int(x))[0])
        assert ctx9.transversal_line(
            trace.ranks[None], ctx9.small.coords_of(int(x))).tolist() == [y]
        want = Subspace(ctx9.small, [ctx9.small.coords_of(int(x)),
                                     ctx9.small.coords_of(y)])
        assert ell.rows == want.rows and ell.pivots == want.pivots
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


def test_out_of_range_ranks_are_range_errors(ctx9, baer):
    nbig, nsmall = ctx9.big.num_points, ctx9.small.num_points
    for bad in (-1, nbig, nbig + 5):
        with pytest.raises(RangeError):
            ctx9.element_ranks(bad)
    for bad in (-1, nsmall):
        with pytest.raises(RangeError):
            ctx9.linear_set_of_ranks([0, bad])
    assert ctx9.linear_set_of_ranks([]).size == 0
    line = Subspace(ctx9.big, [(1, 0, 0), (0, 1, 0)])
    for bad in (-1, nsmall):
        with pytest.raises(RangeError):
            ctx9.transversal_line(PointSet(ctx9.big, line.point_ranks()[:4]),
                                  bad)


# -- the spread maps against the generator-power construction ------------------

def _blow_up_rows(arr, p0, h):
    out = np.empty((arr.shape[0], arr.shape[1] * h), dtype=np.int64)
    for j in range(arr.shape[1]):
        c = arr[:, j]
        for i in range(h):
            out[:, j * h + i] = c % p0
            c = c // p0
    return out


def _reference_cache(ctx):
    """Both spread maps as arrays, by the generator-power construction:
    g^0 .. g^(per-1) for a generator g of GF(q)* are coset
    representatives of GF(q)*/GF(p0)*, and each scaled point is blown up,
    normalized and ranked row by row."""
    big, small = ctx.big, ctx.small
    per = ctx.points_per_element
    _, mul, _, _ = big.field.tables()
    g = big.field.primitive_element()
    scaled = big.coords_array()
    ranks = np.empty((per, big.num_points), dtype=np.int64)
    for i in range(per):
        ranks[i] = small.ranks_from_rows(_blow_up_rows(scaled, ctx.p0, ctx.h))
        scaled = mul[scaled, g]
    ranks.sort(axis=0)
    big_to_small = ranks.T
    small_to_big = np.empty(small.num_points, dtype=np.int64)
    small_to_big[big_to_small.reshape(-1)] = np.repeat(
        np.arange(big.num_points), per)
    return big_to_small, small_to_big


REFERENCE_SPACES = [(p, t, n, None) for p, t, n in SHIPPED] + [
    (7, 1, 2, None), (2, 1, 3, None),           # prime fields: h = 1
    (3, 2, 2, (1, 0, 1)),                       # x^2 + 1: x is no generator
    (2, 4, 2, None), (2, 3, 3, None), (5, 2, 2, None), (2, 2, 4, None),
    (3, 4, 2, None), (2, 6, 2, None)]


def _blocks(total, size=1 << 14):
    """The ranks 0 .. total-1 in blocks, so that no map call on the
    largest space holds more than a few MB."""
    return [np.arange(lo, min(lo + size, total))
            for lo in range(0, total, size)]


@pytest.mark.parametrize("p,t,n,modulus", REFERENCE_SPACES)
def test_spread_cache_matches_reference_construction(p, t, n, modulus):
    ctx = SpreadContext(ProjectiveSpace(n, make_field(p, t, modulus)))
    big_to_small, small_to_big = _reference_cache(ctx)
    for ranks in _blocks(ctx.big.num_points):
        assert np.array_equal(ctx.blow_up_ranks(ranks), big_to_small[ranks])
    for ranks in _blocks(ctx.small.num_points):
        assert np.array_equal(ctx.blow_down_ranks(ranks),
                              small_to_big[ranks])


# -- the spread partitions the small side, checked apart from the build --------

@pytest.mark.parametrize("p,t,n", SHIPPED)
def test_spread_partitions_small_side(p, t, n):
    ctx = spread_context(ProjectiveSpace(n, make_field(p, t)))
    per = ctx.points_per_element
    seen = np.zeros(ctx.small.num_points, dtype=np.int64)
    for ranks in _blocks(ctx.big.num_points):
        elements = ctx.blow_up_ranks(ranks)
        assert elements.shape == (ranks.size, per)
        np.add.at(seen, elements.reshape(-1), 1)
        # every point of an element maps back to it
        assert (ctx.blow_down_ranks(elements) == ranks[:, None]).all()
    # each small rank lies in exactly one element
    assert (seen == 1).all()
    # so the element map inverts the small -> big map on every small rank
    counts = np.zeros(ctx.big.num_points, dtype=np.int64)
    for ranks in _blocks(ctx.small.num_points):
        down = ctx.blow_down_ranks(ranks)
        counts += np.bincount(down, minlength=counts.size)
    assert (counts == per).all()


def test_a_repeated_element_point_is_refused_on_every_call():
    # two representatives of one coset of GF(3)* in GF(9)*: every element
    # then repeats a point, and each call of the element map says so
    ctx = SpreadContext(ProjectiveSpace(2, make_field(3, 2)))
    reps = ctx._reps.copy()
    reps[1] = 2 * reps[0] % 3
    ctx._reps = reps
    for call in (lambda: ctx.blow_up_ranks([0, 1]),
                 lambda: ctx.blow_up_ranks([0, 1]),
                 lambda: ctx.element_ranks(5)):
        with pytest.raises(SpecMismatchError, match="repeats a point"):
            call()


@pytest.mark.parametrize("p,t,n", SHIPPED)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_sampled_elements_match_spread_element(p, t, n, data):
    ctx = spread_context(ProjectiveSpace(n, make_field(p, t)))
    rank = data.draw(st.integers(0, ctx.big.num_points - 1))
    sub = ctx.spread_element(ctx.big.coords_of(rank))
    assert np.array_equal(ctx.element_ranks(rank), sub.point_ranks())

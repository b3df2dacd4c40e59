"""Recovering the small-side witness of a linear blocking set.

Given a k-blocking set B of PG(n, p^h) and one of its points P on a
(p0+1)-secant, every such secant trace through P is (for linear B) the
image of a unique small-side line through a fixed point x of the spread
element S(P).  The span W of those transversal lines has projective
dimension h*k and maps back onto B exactly when the linear structure is
really there; both facts together are the success criterion, so the
routine doubles as a counterexample detector on arbitrary input.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple, Optional

import numpy as np

from .blocking import _below, is_k_blocking, secant_analysis, traces_of
from .errors import (BadParamsError, NoSublineSecantError, NotBlockingError,
                     SpecMismatchError)
from .projspace import (PointSet, Subspace, _block_items, _canonical,
                        _coerce_coords, _frozen, sorted_unique)
from .spreads import SpreadContext, spread_context


class RowSequence(Sequence):
    """A read-only sequence over the rows of an array: item i is built
    from row i on access, so a result holds no object per row."""

    __slots__ = ("_rows", "_build")

    def __init__(self, rows: np.ndarray, build):
        self._rows = _frozen(rows)
        self._build = build

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._build(row) for row in self._rows[i]]
        return self._build(self._rows[i])

    def __repr__(self):
        return f"RowSequence({len(self)} rows)"


class ReconstructionResult(NamedTuple):
    P: int                     # base point rank (big side)
    x: int                     # chosen point rank of S(P) (small side)
    secants_used: RowSequence  # (p0+1)-secant traces, as PointSets
    transversals: RowSequence  # small-side lines through x
    W: Optional[Subspace]      # span of the transversals
    dim_W: Optional[int]
    image_equal: bool
    status: str
    diagnostics: dict

    @property
    def success(self) -> bool:
        return self.status == "ok"


def _status(dim_w: int, target: int, extra: bool, missing: bool) -> str:
    if dim_w < target:
        return "span too small"
    if dim_w > target:
        return "span too large"
    if extra and missing:
        return "image differs"
    if extra:
        return "image overflows the set"
    if missing:
        return "image is a proper subset"
    return "ok"


def _reconstruct_points(ctx: SpreadContext, pts: PointSet, k: int, p0: int,
                        positions: np.ndarray, lines) -> list:
    """One result per base point position, in order, from one pass: one
    secant search, a transversal search per block of secants, and one
    batched reduction of a zero-padded stack holding x and the ys of each
    point, y of its secant i in row 1 + i.  The points of a set often
    share their W, so each distinct W is expanded and mapped down once."""
    space, small = pts.space, ctx.small
    target = space.field.t * k
    if positions.size == 1:
        # one base point reads its own lines, not the whole grid
        slots, traces = lines.secants_through(int(positions[0]), p0 + 1)
        owner = np.zeros(slots.size, dtype=np.int32)
    else:
        owner, slots, traces = lines.secants_through(positions, p0 + 1)
    cut = np.searchsorted(owner, np.arange(positions.size + 1))
    through = np.diff(cut)
    # the ranks of an element ascend: column 0 is its lowest-rank point
    xs = ctx.blow_up_ranks(pts.ranks[positions])[:, 0]
    stack = np.zeros((positions.size, 1 + int(through.max()), small.n + 1),
                     dtype=np.min_scalar_type(small.q - 1))
    stack[:, 0] = small.coords_of_ranks(xs)
    ys = np.empty(owner.size, dtype=np.int32)   # small ranks fit int32
    step = _block_items(64 * ctx.points_per_element * (space.n + 1))
    for b in range(0, owner.size, step):
        got = ys[b:b + step] = ctx.transversal_line(
            pts.ranks[traces[b:b + step]], xs[owner[b:b + step]])
        # every transversal is the line x y, so x and the ys span them all
        at = b + np.flatnonzero(got >= 0)
        stack[owner[at], 1 + at - cut[owner[at]]] = \
            small.coords_of_ranks(ys[at])
    bases, ranks = small.rref_rows(stack)
    miss = np.flatnonzero(ys < 0)
    skipped = _canonical(space, lines.bases(slots[miss]))
    if miss.size:
        # the traces are kept as int32 point positions
        traces, ys = np.delete(traces, miss, axis=0), np.delete(ys, miss)
    missed = np.searchsorted(miss, cut)
    used, missed = (cut - missed).tolist(), missed.tolist()
    mask, spans = pts.mask(), {}
    results = []
    for i, (p_rank, x, basis, rank) in enumerate(zip(
            pts.ranks[positions].tolist(), xs.tolist(), bases,
            ranks.tolist())):
        diagnostics = {
            "secants_through_P": int(through[i]),
            "skipped_non_sublines": missed[i + 1] - missed[i],
            "skipped": skipped[missed[i]:missed[i + 1]],
            "target_dim": target,
        }
        secants = RowSequence(traces[used[i]:used[i + 1]],
                              lambda row: PointSet(space, pts.ranks[row]))
        mine = ys[used[i]:used[i + 1]]
        transversals = RowSequence(mine, lambda y, x=x: _canonical(
            small, small.rref_rows(small.coords_of_ranks([[x, y]]))[0])[0])
        if not mine.size:
            results.append(ReconstructionResult(
                p_rank, x, secants, transversals, None, None, False,
                "no secant trace is a subline", diagnostics))
            continue
        basis = basis[:rank]
        key = basis.tobytes()
        if key not in spans:
            W, = _canonical(small, basis[None])
            inside = mask[ctx.linear_set_of_ranks(W.point_ranks())]
            extra = not inside.all()
            missing = int(inside.sum()) < len(pts)
            spans[key] = (W, not (extra or missing),
                          _status(W.dim, target, extra, missing))
        W, equal, status = spans[key]
        results.append(ReconstructionResult(
            p_rank, x, secants, transversals, W, W.dim, equal, status,
            diagnostics))
    return results


def reconstruct(pts: PointSet, k: int, p0: int,
                point_policy: str = "first"):
    """Rebuild the witness from the (p0+1)-secants through one point.

    point_policy "first" uses the lowest-rank point of B lying on a
    (p0+1)-secant and returns one result; "all" returns a list with one
    result per such point.  x is always the lowest-rank point of S(P).
    The secant traces and transversals of a result are read-only
    sequences that build each PointSet or Subspace on access.  "first"
    reads blocks of by-point rows (`TraceSummary._slot_blocks`) only up
    to the first holding such a point, and then that point's row: it
    gathers no size grid.
    """
    space = pts.space
    if p0 != space.field.p:
        raise BadParamsError(
            "reconstruction runs in the prime-subfield model")
    if point_policy not in ("first", "all"):
        raise BadParamsError(f"unknown point policy {point_policy!r}")
    h = space.field.t
    ctx = spread_context(space)
    if h * k > ctx.small.n:
        raise BadParamsError(
            f"target dimension {h * k} exceeds the small side")
    blocking, witness = is_k_blocking(pts, k)
    if not blocking:
        raise NotBlockingError(f"an (n-k)-space misses the set: {witness!r}")
    lines = traces_of(pts, 1)
    if point_policy == "all":
        admissible = np.flatnonzero(lines.per_point_counts(exact=p0 + 1))
    else:
        firsts = (r0 + np.flatnonzero((lines.sizes[lines._slots_of(keys)]
                                       == p0 + 1).any(axis=1))[:1]
                  for r0, keys in lines._slot_blocks())
        admissible = next((f for f in firsts if f.size), np.empty(0, int))
    if admissible.size == 0:
        raise NoSublineSecantError(
            f"the set has no ({p0 + 1})-secant line")
    results = _reconstruct_points(ctx, pts, k, p0, admissible, lines)
    return results[0] if point_policy == "first" else results


class SpanPairReport(NamedTuple):
    ok: bool
    pairs_checked: int
    failing_pairs: list        # (i, j, extra point ranks outside B)


def check_span_lemma(pts: PointSet, k: int, p0: int, P, x) -> SpanPairReport:
    """For every pair of transversal lines through x: the linear set of
    their span stays inside B.  Failing pairs are witnesses, not errors."""
    space = pts.space
    ctx = spread_context(space)
    p_rank = space.rank_of(_coerce_coords(space, P))
    lines = traces_of(pts, 1)
    pos = int(np.searchsorted(pts.ranks, p_rank))
    if pos >= pts.ranks.size or pts.ranks[pos] != p_rank:
        raise BadParamsError("P must be a point of the set")
    xrank = ctx.small.rank_of(_coerce_coords(ctx.small, x))
    _, traces = lines.secants_through(pos, p0 + 1)
    ys = ctx.transversal_line(pts.ranks[traces], xrank)
    ys = ys[ys >= 0]
    # the pairs i < j in lexicographic order, each reduced with x
    first, second = np.triu_indices(ys.size, 1)
    small = ctx.small
    bases, ranks = small.rref_rows(small.coords_of_ranks(np.stack(
        [np.full_like(first, xrank), ys[first], ys[second]], axis=1)))
    if (ranks != 3).any():
        # distinct secants have distinct transversals through x
        raise SpecMismatchError("two transversals through x span a line")
    mask = pts.mask()
    failing = []
    # a block's int64 lift takes 8 bytes per coordinate of a plane's points
    step = _block_items(8 * (small.q ** 2 + small.q + 1) * (small.n + 1))
    for start in range(0, first.size, step):
        # the linear sets of the planes of the transversals x y_i, x y_j
        images = ctx.blow_down_ranks(
            small.points_of(bases[start:start + step]))
        for at in np.flatnonzero(~mask[images].all(axis=1)).tolist():
            image = images[at]
            failing.append((int(first[start + at]), int(second[start + at]),
                            sorted_unique(image[~mask[image]])))
    return SpanPairReport(not failing, int(first.size), failing)


class SecantBoundReport(NamedTuple):
    ok: bool
    k: int
    p0: int
    h: int
    bound: object              # exact Fraction
    within_hypotheses: bool
    points_checked: int
    min_observed: Optional[int]
    violations: list           # (point rank, observed count)


def secant_count_bounds(pts: PointSet, k: int, p0: int) -> SecantBoundReport:
    """Minimum number of (p0+1)-secants through any point that lies on at
    least one, against the exact lower-bound formula for its k.

    Violations are listed, never swallowed: each one is a potential
    refutation of the underlying statement and must surface.
    """
    from fractions import Fraction

    space = pts.space
    h = space.field.t // space.field.subfield_degree(p0)
    f = Fraction
    if k == 1:
        bound = f(p0) ** (h - 1) - 4 * f(p0) ** (h - 2) + 1
    else:
        bound = ((f(p0) ** (h * k) - 1) / (f(p0) ** h - 1)
                 - 3 * f(p0) ** (h * k - h - 3)) \
            * (f(p0) ** (h - 1) - 4 * f(p0) ** (h - 2)) + 1
    report = secant_analysis(pts, k, p0)
    counts = report.per_point_subline_secants
    on = counts > 0
    violations = [(int(pts.ranks[i]), int(counts[i]))
                  for i in np.nonzero(on & _below(counts, bound))[0]]
    return SecantBoundReport(
        ok=not violations,
        k=k, p0=p0, h=h, bound=bound,
        within_hypotheses=p0 >= 7,
        points_checked=int(on.sum()),
        min_observed=int(counts[on].min()) if on.any() else None,
        violations=violations,
    )

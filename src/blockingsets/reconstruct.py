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

import itertools
from typing import NamedTuple, Optional

import numpy as np

from .blocking import _below, is_k_blocking, secant_analysis, traces_of
from .errors import BadParamsError, NoSublineSecantError, NotBlockingError
from .fields import exact_log
from .projspace import PointSet, Subspace, _canonical, span
from .spreads import SpreadContext, spread_context


class ReconstructionResult(NamedTuple):
    P: int                     # base point rank (big side)
    x: int                     # chosen point rank of S(P) (small side)
    secants_used: list         # (p0+1)-secant traces, as PointSets
    transversals: list         # small-side lines through x
    W: Optional[Subspace]      # span of the transversals
    dim_W: Optional[int]
    image_equal: bool
    status: str
    diagnostics: dict

    @property
    def success(self) -> bool:
        return self.status == "ok"


def _status(dim_w: int, target: int, image: np.ndarray,
            want: np.ndarray) -> str:
    if dim_w < target:
        return "span too small"
    if dim_w > target:
        return "span too large"
    extra = np.setdiff1d(image, want).size
    missing = np.setdiff1d(want, image).size
    if extra and missing:
        return "image differs"
    if extra:
        return "image overflows the set"
    if missing:
        return "image is a proper subset"
    return "ok"


def _reconstruct_from(ctx: SpreadContext, pts: PointSet, k: int, p0: int,
                      pos: int, line_summary) -> ReconstructionResult:
    space, small = pts.space, ctx.small
    h = space.field.t
    p_rank = int(pts.ranks[pos])
    x = int(ctx.element_ranks(p_rank).min())
    secant_indices, flat, _ = line_summary.secants_through(pos, p0 + 1)
    traces = pts.ranks[flat].reshape(-1, p0 + 1)
    ys = ctx.transversal_line(traces, x)
    found = ys >= 0
    ys = ys[found]
    used = [PointSet(space, trace) for trace in traces[found]]
    # the transversals are the lines x y, reduced in one batch
    pairs = small.coords_of_ranks(np.stack([np.full_like(ys, x), ys], axis=1))
    transversals = _canonical(small, small.line_rows(pairs))
    skipped = [line_summary.subspace_at(int(idx))
               for idx in secant_indices[~found]]
    diagnostics = {
        "secants_through_P": len(secant_indices),
        "skipped_non_sublines": len(skipped),
        "skipped": skipped,
        "target_dim": h * k,
    }
    if not transversals:
        return ReconstructionResult(
            p_rank, x, [], [], None, None, False,
            "no secant trace is a subline", diagnostics)
    # every transversal is the line x y, so x and the ys span them all
    W = span(small, x, *ys.tolist())
    image = ctx.linear_set_of_ranks(W.point_ranks())
    status = _status(W.dim, h * k, image, pts.ranks)
    return ReconstructionResult(
        p_rank, x, used, transversals, W, W.dim,
        bool(np.array_equal(image, pts.ranks)), status, diagnostics)


def reconstruct(pts: PointSet, k: int, p0: int,
                point_policy: str = "first"):
    """Rebuild the witness from the (p0+1)-secants through one point.

    point_policy "first" uses the lowest-rank point of B lying on a
    (p0+1)-secant and returns one result; "all" returns a list with one
    result per such point.  x is always the lowest-rank point of S(P).
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
    per_point = lines.per_point_counts(exact=p0 + 1)
    admissible = np.nonzero(per_point > 0)[0]
    if admissible.size == 0:
        raise NoSublineSecantError(
            f"the set has no ({p0 + 1})-secant line")

    def run(pos: int) -> ReconstructionResult:
        return _reconstruct_from(ctx, pts, k, p0, pos, lines)

    if point_policy == "first":
        return run(int(admissible[0]))
    return [run(int(pos)) for pos in admissible]


class SpanPairReport(NamedTuple):
    ok: bool
    pairs_checked: int
    failing_pairs: list        # (i, j, extra point ranks outside B)


def check_span_lemma(pts: PointSet, k: int, p0: int, P, x) -> SpanPairReport:
    """For every pair of transversal lines through x: the linear set of
    their span stays inside B.  Failing pairs are witnesses, not errors."""
    space = pts.space
    ctx = spread_context(space)
    if isinstance(P, (int, np.integer)):
        p_rank = int(P)
    else:
        p_rank = space.rank_of(space.normalize(P))
    lines = traces_of(pts, 1)
    pos = int(np.searchsorted(pts.ranks, p_rank))
    if pos >= pts.ranks.size or pts.ranks[pos] != p_rank:
        raise BadParamsError("P must be a point of the set")
    xrank = int(x) if isinstance(x, (int, np.integer)) \
        else ctx.small.rank_of(ctx.small.normalize(x))
    _, flat, _ = lines.secants_through(pos, p0 + 1)
    ys = ctx.transversal_line(pts.ranks[flat].reshape(-1, p0 + 1), xrank)
    ys = ys[ys >= 0].tolist()
    mask = pts.mask()
    failing = []
    for i, j in itertools.combinations(range(len(ys)), 2):
        # the span of the transversals x y_i and x y_j
        image = ctx.linear_set_of_ranks(
            span(ctx.small, xrank, ys[i], ys[j]).point_ranks())
        extra = image[~mask[image]]
        if extra.size:
            failing.append((i, j, extra))
    return SpanPairReport(not failing, len(ys) * (len(ys) - 1) // 2, failing)


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
    e = exact_log(p0, space.field.p)
    if not e or space.field.t % e:
        raise BadParamsError(f"p0={p0} is not a subfield order")
    h = space.field.t // e
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

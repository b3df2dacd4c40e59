"""Predicates and statistics for k-blocking sets.

A set B blocks dimension k when every (n-k)-space of PG(n, q) meets it.  The
functions here decide blocking, smallness (|B| < 3(q^k+1)/2), minimality
(every point on a tangent (n-k)-space), the exponent (largest e with all
(n-k)-traces congruent to 1 mod p^e), Redei-type (a hyperplane holding all
but q^k points), intersection spectra with their three counting identities,
the small/large trace dichotomy for subspaces between dimensions n-k and n,
and per-point secant statistics.

Everything returns exact integers; fractional thresholds use Fraction.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    GapViolationError,
    NotApplicableError,
    NotBlockingError,
    NotFoundError,
    RangeError,
)
from .fields import exact_log
from .projspace import (
    PointSet,
    Subspace,
    TraceSummary,
    _block_items,
    _coerce_coords,
    gaussian_binomial,
    span,
    subspace_traces,
)


@functools.lru_cache(maxsize=16)
def traces_of(pts: PointSet, dim: int) -> TraceSummary:
    """Shared trace-summary cache; several predicates reuse one scan."""
    return subspace_traces(pts, dim)


def _p0_valuation(value: int, p0: int) -> int:
    if value == 0:
        return 10 ** 9
    v = 0
    while value % p0 == 0:
        value //= p0
        v += 1
    return v


def _check_k(pts: PointSet, k: int):
    n = pts.space.n
    if not 1 <= k <= n - 1:
        raise RangeError(f"k={k} out of range for {pts.space!r}")


def is_k_blocking(pts: PointSet, k: int):
    """Whether every (n-k)-space meets the set.

    Returns (True, None) or (False, witness) with an uncovered (n-k)-space.
    """
    _check_k(pts, k)
    space = pts.space
    dim = space.n - k
    if len(pts) == 0:
        first = next(space.subspaces(dim))
        return False, first
    witness = traces_of(pts, dim).first_uncovered()
    return witness is None, witness


def is_small(pts: PointSet, k: int) -> bool:
    """|B| < 3 (q^k + 1) / 2, evaluated in integers."""
    q = pts.space.q
    return 2 * len(pts) < 3 * (q ** k + 1)


def is_trivial(pts: PointSet, k: int) -> bool:
    """Whether B is exactly the point set of a k-space."""
    if len(pts) != gaussian_binomial(k + 1, 1, pts.space.q):
        return False
    sub = span(pts.space, pts)
    return sub.dim == k and np.array_equal(sub.point_ranks(), pts.ranks)


def exponent(pts: PointSet, k: int) -> int:
    """Largest e <= t with every (n-k)-trace congruent to 1 mod p^e.

    Returns 0 when even e = 1 fails; requires a blocking set.
    """
    blocking, witness = is_k_blocking(pts, k)
    if not blocking:
        raise NotBlockingError(f"an (n-k)-space misses the set: {witness!r}")
    field = pts.space.field
    summary = traces_of(pts, pts.space.n - k)
    e = min(_p0_valuation(int(s) - 1, field.p)
            for s in summary.size_counts()[0])
    return min(e, field.t * k)


def tangent_counts(pts: PointSet, k: int) -> np.ndarray:
    """Per point of B (rank order): number of (n-k)-spaces meeting B in
    that point only."""
    space = pts.space
    dim = space.n - k
    summary = traces_of(pts, dim)
    through = gaussian_binomial(space.n, dim, space.q)
    per_point = summary.per_point_counts(min_size=2)
    return through - per_point


def is_minimal(pts: PointSet, k: int, method: str = "direct"):
    """Minimality of a k-blocking set.

    direct: every point lies on a tangent (n-k)-space; on failure the
    witness is a removable point rank.  criterion: the sufficient test
    |B| <= 2 q^k plus all (n-k)-traces 1 mod p; NotApplicable outside
    that range.
    """
    _check_k(pts, k)
    blocking, witness = is_k_blocking(pts, k)
    if not blocking:
        raise NotBlockingError(f"an (n-k)-space misses the set: {witness!r}")
    if method == "direct":
        counts = tangent_counts(pts, k)
        bad = np.nonzero(counts == 0)[0]
        if bad.size:
            return False, int(pts.ranks[bad[0]])
        return True, None
    if method != "criterion":
        raise RangeError(f"unknown minimality method {method!r}")
    space = pts.space
    if len(pts) > 2 * space.q ** k:
        raise NotApplicableError(
            f"criterion needs |B| <= 2 q^k, got {len(pts)}")
    summary = traces_of(pts, space.n - k)
    if any((int(s) - 1) % space.field.p for s in summary.size_counts()[0]):
        raise NotApplicableError(
            "criterion needs all (n-k)-traces 1 mod p")
    return True, None


def is_redei(pts: PointSet, k: int):
    """Whether some hyperplane contains exactly |B| - q^k points of B."""
    _check_k(pts, k)
    space = pts.space
    target = len(pts) - space.q ** k
    if target <= 0:
        return False, None
    summary = traces_of(pts, space.n - 1)
    # in PG(2, q) the hyperplanes are lines: take the first in witness order
    hits = summary.witness_order(np.flatnonzero(summary.sizes == target))
    if hits.size:
        return True, summary.subspace_at(int(hits[0]))
    return False, None


class IntersectionSpectrum(NamedTuple):
    """Counts x[i] of dim-subspaces meeting the set in exactly i points."""

    space_n: int
    q: int
    dim: int
    set_size: int
    x: dict

    def identity_values(self):
        """LHS/RHS triples of the three incidence-counting identities:
        over all dim-subspaces, counting them, their point incidences
        with B, and their ordered point pairs in B."""
        n, q, m = self.space_n, self.q, self.set_size
        lhs = (sum(self.x.values()),
               sum(i * c for i, c in self.x.items()),
               sum(i * (i - 1) * c for i, c in self.x.items()))
        rhs = (gaussian_binomial(n + 1, self.dim + 1, q),
               m * gaussian_binomial(n, self.dim, q),
               m * (m - 1) * gaussian_binomial(n - 1, self.dim - 1, q))
        return lhs, rhs

    def identities_hold(self) -> bool:
        lhs, rhs = self.identity_values()
        return lhs == rhs


def spectrum(pts: PointSet, dim: int) -> IntersectionSpectrum:
    space = pts.space
    if not 0 <= dim <= space.n:
        raise RangeError(f"spectrum dimension {dim} out of range")
    if len(pts) == 0:
        x = {0: space.num_subspaces(dim)}
    elif dim == 0:
        x = {0: space.num_points - len(pts), 1: len(pts)}
        x = {i: c for i, c in x.items() if c}
    else:
        x = traces_of(pts, dim).spectrum()
    return IntersectionSpectrum(space.n, space.q, dim, len(pts), x)


# -- small/large dichotomy ----------------------------------------------------


def gap_thresholds(p0: int, h: int, s: int):
    """(lower, upper) of the forbidden trace gap for (n-k+s)-spaces:
    small means trace < lower, large means trace > upper."""
    f = Fraction
    lower = f(p0) ** (h * s) + f(p0) ** (h * s - 1) \
        + f(p0) ** (h * s - 2) + 3 * f(p0) ** (h * s - 3)
    upper = f(p0) ** (h * s + 1) - f(p0) ** (h * s - 1) \
        - f(p0) ** (h * s - 2) - 3 * f(p0) ** (h * s - 3)
    return lower, upper


def _above(sizes, bound: Fraction):
    """sizes > bound, for integer sizes (an int, a numpy scalar or an
    array): sizes > floor(bound), an exact integer.  The sizes may be
    narrow, so a product by the denominator could wrap."""
    return sizes > math.floor(bound)


def _below(sizes, bound: Fraction):
    """sizes < bound, for integer sizes: sizes < ceil(bound)."""
    return sizes < math.ceil(bound)


class GapClassification(NamedTuple):
    side: str
    trace: int
    lower: Fraction
    upper: Fraction


def one_mod_p0_applicable(pts: PointSet, k: int, p0: int) -> bool:
    """The dichotomy's hypothesis: p0 >= 7 and every (n-k)-trace is
    1 mod p0 (in particular nonzero)."""
    if p0 < 7:
        return False
    summary = traces_of(pts, pts.space.n - k)
    if summary.x0:
        return False
    return not any((int(s) - 1) % p0 for s in summary.size_counts()[0])


def classify_trace(trace: int, p0: int, h: int, s: int) -> GapClassification:
    lower, upper = gap_thresholds(p0, h, s)
    if trace < lower:
        return GapClassification("small", trace, lower, upper)
    if trace > upper:
        return GapClassification("large", trace, lower, upper)
    raise GapViolationError(
        f"trace {trace} falls inside the forbidden gap "
        f"({lower}, {upper}) for s={s}, p0={p0}, h={h}")


def classify_small_large(pts: PointSet, k: int, p0: int,
                         sub: Subspace) -> GapClassification:
    """Which side of the trace gap a given (n-k+s)-space falls on.

    Requires the 1 mod p0 hypothesis; a trace strictly inside the gap is
    a loud error, never a silent answer.
    """
    space = pts.space
    s = sub.dim - (space.n - k)
    if not 0 <= s <= k:
        raise RangeError(
            f"subspace dimension {sub.dim} not between n-k and n")
    if not one_mod_p0_applicable(pts, k, p0):
        raise NotApplicableError(
            "needs p0 >= 7 and all (n-k)-traces 1 mod p0")
    h = exact_log(space.q, p0)
    if h is None:
        raise RangeError(f"{space.q} is not a power of {p0}")
    trace = int(pts.mask()[sub.point_ranks()].sum())
    return classify_trace(trace, p0, h, s)


# -- tangency and secants ------------------------------------------------------


def tangent_space(pts: PointSet, k: int, point) -> Optional[Subspace]:
    """First (n-k)-space, in the order of `subspaces(n-k, through=point)`,
    meeting B only in the given point of B, or None."""
    space = pts.space
    rank = space.rank_of(_coerce_coords(space, point))
    mask = pts.mask()
    if not mask[rank]:
        raise RangeError("tangency base point must belong to the set")
    for sub in space.subspaces(space.n - k, through=rank):
        if int(mask[sub.point_ranks()].sum()) == 1:
            return sub
    return None


def tangent_extension(pts: PointSet, k: int, line: Subspace,
                      i: int) -> Subspace:
    """An i-space through the given line meeting B exactly in B-and-line.

    Depth-first search: at each level the admissible extension points are
    exactly those outside every span of (current, b) over the unwanted
    points b, so an empty candidate set at a level is a true dead end and
    triggers backtracking.
    """
    space = pts.space
    if line.space is not space:
        raise RangeError("line from a different space")
    if not 1 <= i <= space.n - k:
        raise RangeError(f"target dimension {i} out of range")
    mask = pts.mask()
    base_trace = np.asarray(
        [r for r in line.point_ranks() if mask[r]], dtype=np.int64)
    if not 1 < base_trace.size < space.q + 1:
        raise RangeError("line must meet the set in 2..q points")
    if i == line.dim:
        return line

    keep = set(int(r) for r in base_trace)
    extra = [int(r) for r in pts.ranks if int(r) not in keep]

    def search(current: Subspace) -> Optional[Subspace]:
        if current.dim == i:
            return current
        forbidden = np.zeros(space.num_points, dtype=bool)
        forbidden[current.point_ranks()] = True
        for b in extra:
            forbidden[span(space, current, b).point_ranks()] = True
        for y in np.nonzero(~forbidden)[0]:
            got = search(span(space, current, int(y)))
            if got is not None:
                return got
        return None

    found = search(line)
    if found is None:
        raise NotFoundError(
            f"no {i}-space through the line avoids the rest of the set")
    trace = np.asarray([r for r in found.point_ranks() if mask[r]])
    if not np.array_equal(trace, base_trace):  # pragma: no cover
        raise NotFoundError("extension search returned a bad witness")
    return found


class SecantReport(NamedTuple):
    """Per-point secant-line statistics of a point set."""

    point_ranks: np.ndarray
    kappa: int
    secant_size_counts: dict       # size -> number of secant lines
    per_point_subline_secants: np.ndarray  # (p0+1)-secants through each point
    per_point_secants: np.ndarray          # all >=2-secants through each point
    tangent_space_counts: np.ndarray       # tangent (n-k)-spaces per point
    p0: int

    def min_subline_secants(self, require_positive=True):
        counts = self.per_point_subline_secants
        if require_positive:
            counts = counts[counts > 0]
        return int(counts.min()) if counts.size else None


def secant_analysis(pts: PointSet, k: int, p0: int) -> SecantReport:
    _check_k(pts, k)
    space = pts.space
    space.field.subfield_degree(p0)
    lines = traces_of(pts, 1)
    spec_counts = {int(s): int(c) for s, c in zip(*lines.size_counts())
                   if int(s) >= 2}
    return SecantReport(
        point_ranks=pts.ranks,
        kappa=len(pts) - space.q ** k,
        secant_size_counts=spec_counts,
        per_point_subline_secants=lines.per_point_counts(exact=p0 + 1),
        per_point_secants=lines.per_point_counts(min_size=2),
        tangent_space_counts=tangent_counts(pts, k),
        p0=p0,
    )


def nonsecant_mask(pts: PointSet) -> np.ndarray:
    """Boolean mask over ambient ranks: neither in the set nor on any of
    its secant lines."""
    space = pts.space
    lines = traces_of(pts, 1)
    covered = pts.mask().copy()
    idx = np.nonzero(lines.sizes >= 2)[0]
    # a block's int64 lift takes 8 bytes per coordinate of its points
    step = _block_items(8 * (space.q + 1) * (space.n + 1))
    for lo in range(0, idx.size, step):
        covered[space.points_of(lines.bases(idx[lo:lo + step]))] = True
    return ~covered


def nonsecant_point_count(pts: PointSet) -> int:
    """Points neither in the set nor on any of its secant lines."""
    return int(nonsecant_mask(pts).sum())


class BlockingReport(NamedTuple):
    set_size: int
    k: int
    q: int
    is_blocking: bool
    uncovered: Optional[Subspace]
    small: bool
    exponent: int
    minimal: bool
    removable_point: Optional[int]
    redei: bool
    redei_hyperplane: Optional[Subspace]
    trivial: bool


def blocking_report(pts: PointSet, k: int) -> BlockingReport:
    """One-stop summary used by the command-line `check`."""
    _check_k(pts, k)
    blocking, uncovered = is_k_blocking(pts, k)
    small = is_small(pts, k)
    if blocking:
        e = exponent(pts, k)
        minimal, removable = is_minimal(pts, k, "direct")
    else:
        e, minimal, removable = 0, False, None
    redei, hyper = is_redei(pts, k)
    return BlockingReport(
        set_size=len(pts), k=k, q=pts.space.q,
        is_blocking=blocking, uncovered=uncovered,
        small=small, exponent=e,
        minimal=minimal, removable_point=removable,
        redei=redei, redei_hyperplane=hyper,
        trivial=is_trivial(pts, k),
    )

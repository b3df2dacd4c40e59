"""Linear point sets, known families, sublines, and the linearity decision.

A point set B of PG(n, p^h) is linear when B = B(pi) for some subspace pi
of the small side of the field-reduction spread model.  This module builds
the classical families (subgeometries, Redei-type trace sets, cones,
seeded random witnesses), enumerates the sublines of an ambient line,
checks the subline-intersection size theorem, and decides linearity either
by reconstruction or by exhaustive witness search.

The spread model lives over the prime subfield, so witness ranks here are
prime-subfield ranks and the decision procedures require p0 = p.  The
subline machinery only needs p0 = p^e with e | t and stays general.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from ._cache import locked_cache
from .blocking import _check_k, exponent, is_minimal, is_small, traces_of
from .errors import (
    BadParamsError,
    NoSublineSecantError,
    NotBlockingError,
    RangeError,
    TooLargeError,
)
from .fields import FieldSpec, exact_log, make_field
from .projspace import (
    PointSet,
    ProjectiveSpace,
    Subspace,
    _block_items,
    _frozen,
    gaussian_binomial,
    sorted_unique,
    sorted_unique_rows,
    span,
)
from .spreads import SpreadContext, spread_context

_EXHAUSTIVE_POINT_CAP = 10_000


class LinearSetWitness(NamedTuple):
    """A linear set together with the small-side subspace producing it."""

    ctx: SpreadContext
    pi: Subspace
    points: PointSet
    rank: int

    @property
    def p0(self) -> int:
        return self.ctx.p0

    def verify(self) -> bool:
        return self.ctx.linear_set_of(self.pi) == self.points


def build_linear_set(ctx: SpreadContext, pi: Subspace) -> LinearSetWitness:
    return LinearSetWitness(ctx, pi, ctx.linear_set_of(pi), pi.dim + 1)


# -- families ------------------------------------------------------------------


def _field_for(q: int, p0: int):
    """The big field GF(q) plus the embedding degree e with p0 = p^e."""
    p = _smallest_prime_factor(p0)
    e, t = exact_log(p0, p), exact_log(q, p)
    if e is None or t is None or t % e:
        raise BadParamsError(f"GF({p0}) is not a subfield of GF({q})")
    return make_field(p, t), e


def _smallest_prime_factor(m: int) -> int:
    if m < 2:
        raise BadParamsError(f"{m} is not a prime power")
    d = 2
    while d * d <= m:
        if m % d == 0:
            return d
        d += 1
    return m


def _subfield_basis_codes(field: FieldSpec, e: int) -> list:
    """Big-field codes of a prime-subfield basis of the GF(p^e) subfield."""
    embed, _ = field.embedding(e)
    return [int(embed[field.p ** j]) for j in range(e)]


def _unit_vector(length: int, pos: int, code: int) -> tuple:
    v = [0] * length
    v[pos] = code
    return tuple(v)


def subgeometry_witness(q: int, p0: int, n: int, m=None) -> LinearSetWitness:
    """Canonical PG(m, p0) inside PG(n, p0^h): points whose first m+1
    coordinates lie in the subfield and the rest vanish."""
    field, e = _field_for(q, p0)
    if m is None:
        m = n
    if not 0 <= m <= n:
        raise BadParamsError(f"subgeometry dimension {m} out of range")
    ctx = spread_context(ProjectiveSpace(n, field))
    basis = _subfield_basis_codes(field, e)
    rows = [ctx.blow_up_vector(_unit_vector(n + 1, i, c))
            for i in range(m + 1) for c in basis]
    pi = Subspace(ctx.small, rows)
    return build_linear_set(ctx, pi)


def redei_trace_witness(q: int, p0: int) -> LinearSetWitness:
    """Redei-type set in PG(2, q): directions-style witness from the
    relative trace GF(q) -> GF(p0), vectors (x, Tr(x), c)."""
    field, e = _field_for(q, p0)
    if field.t == e:
        raise BadParamsError("trace construction needs a proper subfield")
    ctx = spread_context(ProjectiveSpace(2, field))
    h = field.t // e

    def rel_trace(code: int) -> int:
        acc, w = 0, code
        for _ in range(h):
            acc = field.add(acc, w)
            for _ in range(e):
                w = field.frobenius(w)
        return acc

    rows = [ctx.blow_up_vector((field.p ** j, rel_trace(field.p ** j), 0))
            for j in range(field.t)]
    rows += [ctx.blow_up_vector((0, 0, c))
             for c in _subfield_basis_codes(field, e)]
    pi = Subspace(ctx.small, rows)
    return build_linear_set(ctx, pi)


def cone_witness(q: int, p0: int, n: int, base_m: int) -> LinearSetWitness:
    """Cone with vertex e_n over the canonical PG(base_m, p0) subgeometry
    of the hyperplane x_n = 0: small-side span of the vertex spread
    element and the base witness."""
    field, e = _field_for(q, p0)
    if not 0 <= base_m <= n - 1:
        raise BadParamsError(f"cone base dimension {base_m} out of range")
    ctx = spread_context(ProjectiveSpace(n, field))
    basis = _subfield_basis_codes(field, e)
    rows = [ctx.blow_up_vector(_unit_vector(n + 1, i, c))
            for i in range(base_m + 1) for c in basis]
    vertex = ctx.spread_element(_unit_vector(n + 1, n, 1))
    pi = span(ctx.small, Subspace(ctx.small, rows), vertex)
    return build_linear_set(ctx, pi)


def random_rank_r_witness(q: int, n: int, r: int, seed: int) -> LinearSetWitness:
    """Seeded pseudo-random rank-r small-side subspace (prime subfield)."""
    p = _smallest_prime_factor(q)
    t = exact_log(q, p)
    if t is None:
        raise BadParamsError(f"{q} is not a prime power")
    field = make_field(p, t)
    ctx = spread_context(ProjectiveSpace(n, field))
    if not 1 <= r <= ctx.small.n + 1:
        raise BadParamsError(f"rank {r} out of range for {ctx.small!r}")
    rng = np.random.default_rng(seed)
    while True:
        mat = rng.integers(0, p, size=(r, ctx.small.n + 1))
        sub = Subspace(ctx.small, mat)
        if sub.dim + 1 == r:
            return build_linear_set(ctx, sub)


_FAMILIES = {
    "subgeometry": subgeometry_witness,
    "redei_trace": redei_trace_witness,
    "cone": cone_witness,
    "random_rank_r": random_rank_r_witness,
}


def build_family_witness(name: str, **params) -> LinearSetWitness:
    try:
        builder = _FAMILIES[name]
    except KeyError:
        raise BadParamsError(
            f"unknown family {name!r}, have {sorted(_FAMILIES)}") from None
    try:
        return builder(**params)
    except TypeError as exc:
        raise BadParamsError(f"bad parameters for {name}: {exc}") from None


def build_family(name: str, **params) -> PointSet:
    return build_family_witness(name, **params).points


# -- sublines ------------------------------------------------------------------


@locked_cache(maxsize=8)
def subline_patterns(field: FieldSpec, p0: int):
    """All GF(p0)-sublines of the parameter line PG(1, q), once per field.

    Returns (bool matrix, tuple of rank tuples): row i marks the point
    ranks of subline i, and the tuples (each ascending) are in
    lexicographic order.  The result is shared, so the matrix is
    read-only.  Parameter coordinates are projective
    coordinates, and projectivities permute sublines, so the same patterns
    serve every line of every space over this field through its
    coefficient chart.

    The sublines through two points a, b are {t0 a + t1 mu b : (t0 : t1)
    in PG(1, p0)}, one for each coset mu GF(p0)* of GF(q)*.  So the
    sublines whose smallest point is a are those through a and a later
    point b, for every coset representative mu, whose smallest point
    comes out as a; one pass per a keeps the arrays small, and the
    passes come in lexicographic order.
    """
    e = field.subfield_degree(p0)
    embed, _ = field.embedding(e) if e < field.t else (
        np.arange(field.q, dtype=np.int64), None)
    # the tables read flat, at a * q + b
    add, mul, _, _ = (t.ravel() for t in field.tables())
    q = field.q
    param_space = ProjectiveSpace(1, field)
    npts = param_space.num_points
    units = embed[embed != 0]
    # the smallest code of each coset mu GF(p0)*, times q
    reps = q * sorted_unique(
        mul.take(q * np.arange(1, q)[:, None] + units).min(axis=1))
    # (t0, t1) over the points of PG(1, p0): (1, s) for s in GF(p0), (0, 1)
    t0 = np.append(np.ones(p0, dtype=np.int64), 0)
    t1 = q * np.append(embed, 1)[:, None]
    coords = param_space.coords_array()
    # (q+1, p0+1, 2), times q
    t0_a = q * mul.take(q * t0[:, None] + coords[:, None, :])
    rows = []
    for a in range(npts - 1):
        # t0 a + t1 mu b, the sums taken in place in the index array
        idx = t1 + mul.take(reps[:, None, None, None]
                            + coords[a + 1:, None, :])
        np.add(t0_a[a], mul.take(idx), out=idx)
        vecs = add.take(idx)
        ranks = np.sort(param_space._ranks(vecs), axis=-1) \
            .reshape(-1, p0 + 1)
        rows.append(sorted_unique_rows(ranks[ranks[:, 0] == a]))
    rows = np.concatenate(rows)
    mat = np.zeros((rows.shape[0], npts), dtype=bool)
    mat[np.arange(rows.shape[0])[:, None], rows] = True
    return _frozen(mat), tuple(tuple(r) for r in rows.tolist())


def line_param_positions(line: Subspace, ranks) -> np.ndarray:
    """PG(1, q) ranks of the given ambient points in the coefficient chart
    of the line (coordinates at its two pivot columns)."""
    space = line.space
    if line.dim != 1:
        raise RangeError("chart positions need a line")
    j0, j1 = line.pivots
    coords = space.coords_of_ranks(ranks)
    param = np.stack([coords[:, j0], coords[:, j1]], axis=-1)
    return ProjectiveSpace(1, space.field)._ranks(param)


def _chart_points(line: Subspace) -> np.ndarray:
    """The ambient ranks of the points of a line, indexed by their PG(1, q)
    ranks in its coefficient chart (see `line_param_positions`)."""
    ranks = line.point_ranks()
    ambient = np.empty(line.space.q + 1, dtype=np.int64)
    ambient[line_param_positions(line, ranks)] = ranks
    return ambient


def enumerate_sublines(line: Subspace, p0: int):
    """All GF(p0)-sublines of an ambient line, each once, as PointSets."""
    space = line.space
    if line.dim != 1:
        raise RangeError("subline enumeration needs a line")
    _, tuples = subline_patterns(space.field, p0)
    ambient = _chart_points(line)
    for row in tuples:
        yield PointSet(space, ambient[list(row)])


def _bitmasks(marks: np.ndarray) -> np.ndarray:
    """The rows of a bool matrix as uint64 bitmasks, one word per 64
    columns: column c is bit c % 64 of word c // 64."""
    words = -(-marks.shape[1] // 64)
    # padded to whole words after packing, a byte per 8 columns
    packed = np.zeros((marks.shape[0], 8 * words), dtype=np.uint8)
    packed[:, :-(-marks.shape[1] // 8)] = np.packbits(marks, axis=1,
                                                      bitorder="little")
    return packed.view("<u8").astype(np.uint64, copy=False)


def _meet_sizes(line_bits: np.ndarray, bank_bits: np.ndarray) -> np.ndarray:
    """(lines, patterns) popcounts of line & pattern, summed over the
    words: the meet sizes, exact integers."""
    return np.bitwise_count(
        line_bits[:, None, :] & bank_bits[None, :, :]).sum(axis=2,
                                                            dtype=np.int16)


class SublineMeetReport(NamedTuple):
    ok: bool
    secant_lines: int
    sublines_checked: int
    allowed_sizes: tuple
    violations: list          # (line Subspace, subline PointSet, size)


def _meet_violation(space, line, tuples, pattern_idx, size, violations):
    violations.append((line, PointSet(
        space, _chart_points(line)[list(tuples[pattern_idx])]), size))


def subline_meet_check(witness: LinearSetWitness,
                       p0: Optional[int] = None) -> SublineMeetReport:
    """Every subline of every secant line must meet the set in
    0..rank or p0+1 points; any other size is reported."""
    if p0 is None:
        p0 = witness.p0
    pts = witness.points
    space = pts.space
    mat, tuples = subline_patterns(space.field, p0)
    allowed = tuple(sorted(set(range(witness.rank + 1)) | {p0 + 1}))
    lines = traces_of(pts, 1)
    # a full line meets each of its own sublines in exactly p0+1 points,
    # which is always allowed, so only proper secants need scanning
    sel, line_bits = lines._chart_marks(2, space.q)
    vals, counts = lines.size_counts()
    nlines = int(counts[vals >= 2].sum())
    checked = int(counts[vals == space.q + 1].sum()) * len(tuples)
    violations = []
    is_allowed = np.zeros(space.q + 2, dtype=bool)
    is_allowed[list(allowed)] = True
    if sel.size:
        bank_bits = _bitmasks(mat)
        # lines with the same chart positions meet the sublines alike, so
        # each distinct mask is counted once
        distinct, which = sorted_unique_rows(line_bits, return_inverse=True)
        bad = np.empty(distinct.shape[0], dtype=bool)
        # the uint64 words of one chunk's line & pattern
        chunk = _block_items(8 * bank_bits.size)
        for lo in range(0, distinct.shape[0], chunk):
            sizes = _meet_sizes(distinct[lo:lo + chunk], bank_bits)
            bad[lo:lo + chunk] = ~is_allowed[sizes].all(axis=1)
        checked += sel.size * len(tuples)
        # the failing lines in witness order
        for li in np.searchsorted(sel, lines.witness_order(sel[bad[which]])):
            if len(violations) >= 10:
                break
            sizes = _meet_sizes(line_bits[li:li + 1], bank_bits)[0]
            for bi in np.flatnonzero(~is_allowed[sizes]):
                if len(violations) >= 10:
                    break
                _meet_violation(space, lines.subspace_at(int(sel[li])),
                                tuples, int(bi), int(sizes[bi]), violations)
    return SublineMeetReport(not violations, nlines, checked,
                             allowed, violations)


class SecantLinearityReport(NamedTuple):
    ok: bool
    secants: int
    within_hypotheses: bool
    failures: list            # line Subspaces whose trace is not a subline


def secant_linearity_check(pts: PointSet, k: int,
                           p0: int) -> SecantLinearityReport:
    """Whether every (p0+1)-secant line meets the set in a subline.

    The supporting theorem assumes a small minimal blocking set whose
    exponent matches p0 >= 7; outside that range the check still runs and
    the flag records it as exploratory.  PG(1, q) has no k-blocking sets
    (1 <= k <= n-1), so there every set is outside that range.
    """
    space = pts.space
    within = False
    if space.n > 1:
        try:
            e = exponent(pts, k)
            within = p0 >= 7 and is_small(pts, k) \
                and is_minimal(pts, k, "direct")[0] \
                and p0 == space.field.p ** e
        except NotBlockingError:
            pass
    mat, _ = subline_patterns(space.field, p0)
    lines = traces_of(pts, 1)
    sel, words = lines._chart_marks(p0 + 1, p0 + 1)
    count = int(sel.size)
    # a trace is a subline when its chart bits are those of a pattern: a
    # row of words, read as one opaque item, is in the patterns' rows;
    # both sides of the test are distinct items
    row = np.dtype((np.void, words.itemsize * words.shape[1]))
    items, back = sorted_unique_rows(words, return_inverse=True)
    bad = sel[~np.isin(items.view(row).reshape(-1),
                       _bitmasks(mat).view(row).reshape(-1),
                       assume_unique=True)[back]]
    failures = [lines.subspace_at(int(i))
                for i in lines.witness_order(bad)[:10]]
    return SecantLinearityReport(not failures, count, within, failures)


# -- linearity decision ----------------------------------------------------------


def _infer_k(pts: PointSet) -> int:
    """Smallest k for which the set is below the smallness threshold, else
    n - 1 (0 on a line, which has no k); its theory caps the witness rank."""
    q, n = pts.space.q, pts.space.n
    for k in range(1, n):
        if 2 * len(pts) < 3 * (q ** k + 1):
            return k
    return n - 1


def is_linear(pts: PointSet, p0: int, strategy: str = "reconstruct_first",
              k: Optional[int] = None):
    """Decide whether the set is a linear set over the prime subfield.

    Returns (witness or None, certificate).  The certificate documents the
    searched ranks, the rank cap h*k+1, and the reconstruction outcome, so
    a None answer states exactly what was exhausted.
    """
    space = pts.space
    if len(pts) == 0:
        raise RangeError("empty point set")
    if p0 != space.field.p:
        raise BadParamsError(
            "linearity decision runs in the prime-subfield model")
    if strategy not in ("reconstruct_first", "exhaustive"):
        raise RangeError(f"unknown strategy {strategy!r}")
    ctx = spread_context(space)
    h = space.field.t
    if k is None:
        k = _infer_k(pts)
    _check_k(pts, k)
    cap = min(h * k + 1, ctx.small.n + 1)
    cert = {"strategy": strategy, "rank_cap": cap, "k": k,
            "reconstruct_attempted": False, "reconstruct_succeeded": False,
            "ranks_searched": [], "subspaces_tested": 0,
            "preimage_points": 0}

    if strategy == "reconstruct_first":
        from .reconstruct import reconstruct as _reconstruct
        cert["reconstruct_attempted"] = True
        try:
            res = _reconstruct(pts, k, p0)
            if res.success:
                cert["reconstruct_succeeded"] = True
                return build_linear_set(ctx, res.W), cert
        except (NotBlockingError, NoSublineSecantError):
            pass

    witness, tested, searched = _exhaustive_search(ctx, pts, cap)
    cert["ranks_searched"] = searched
    cert["subspaces_tested"] = tested
    cert["preimage_points"] = int(_preimage_ranks(ctx, pts).size)
    return witness, cert


def _preimage_ranks(ctx: SpreadContext, pts: PointSet) -> np.ndarray:
    return np.sort(ctx.blow_up_ranks(pts.ranks).reshape(-1))


def _exhaustive_search(ctx: SpreadContext, pts: PointSet, cap: int):
    """Depth-first search over small-side subspaces all of whose points
    blow down into the set, each generated once via its canonical
    min-point basis chain; returns (witness or None, tested, ranks).

    A node is a subspace W, held as the list of its vectors (0 included)
    and the ranks of its points.  The points of span(W, y) off W are the
    y + w, w in W, so every candidate y of a node is tested in one table
    pass: it extends the chain when y is the least of them and all of
    them lie in the preimage.  Only the witness becomes a Subspace."""
    small = ctx.small
    if small.num_points > _EXHAUSTIVE_POINT_CAP:
        raise TooLargeError(
            f"exhaustive search refused: {small.num_points} small-side "
            f"points exceed {_EXHAUSTIVE_POINT_CAP}")
    target = pts.ranks
    r_min = 1
    while gaussian_binomial(r_min, 1, ctx.p0) < len(pts):
        r_min += 1
    if r_min > cap:
        return None, 0, []
    pre = _preimage_ranks(ctx, pts)
    pre_mask = np.zeros(small.num_points, dtype=bool)
    pre_mask[pre] = True
    pre_coords = small.coords_of_ranks(pre)
    # the tables read flat, at a * q + b
    add, mul, _, _ = (t.ravel() for t in small.field.tables())
    q = small.q
    scalars = q * np.arange(q, dtype=np.int64)[:, None, None]
    tested = 0

    def extend(vectors, span_ranks, depth):
        nonlocal tested
        if depth >= r_min and np.array_equal(
                ctx.linear_set_of_ranks(span_ranks), target):
            return Subspace(small, small.coords_of_ranks(chain).tolist())
        if depth == cap:
            return None
        span_mask = np.zeros(small.num_points, dtype=bool)
        span_mask[span_ranks] = True
        floor = chain[-1] if chain else -1
        cand = np.flatnonzero(~span_mask[pre] & (pre > floor))
        step = _block_items(8 * vectors.size)
        for start in range(0, cand.size, step):
            at = cand[start:start + step]
            off = small._ranks(
                add.take(q * pre_coords[at, None, :] + vectors[None, :, :]))
            ok = (off.min(axis=1) == pre[at]) & pre_mask[off].all(axis=1)
            for a in np.flatnonzero(ok).tolist():
                tested += 1
                chain.append(int(pre[at[a]]))
                # the vectors c*y + w of span(W, y), c in GF(q)
                grown = add.take(q * mul.take(scalars + pre_coords[at[a]])
                                 + vectors[None])
                got = extend(grown.reshape(-1, small.n + 1),
                             np.concatenate([span_ranks, off[a]]), depth + 1)
                chain.pop()
                if got is not None:
                    return got
        return None

    chain = []
    found = extend(np.zeros((1, small.n + 1), dtype=np.int64),
                   np.empty(0, dtype=np.int64), 0)
    witness = build_linear_set(ctx, found) if found is not None else None
    return witness, tested, list(range(r_min, cap + 1))

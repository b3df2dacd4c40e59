"""Projective spaces PG(n, q) with explicit point ranks.

A point is a nonzero coordinate vector over GF(q) up to scalars; we store the
normalized representative (first nonzero coordinate equal to 1) as a tuple of
element codes.  Points are numbered by rank: vectors with more leading zeros
come first, and within a block with fixed leading position the tail digits
are ordered as ascending base-q numerals.  Rank 0 is (0, ..., 0, 1) and the
last rank is (1, q-1, ..., q-1).

Subspaces are kept as reduced row echelon bases, which makes the basis a
canonical key for the subspace.  The heavy counting work (traces of a
point set against all dim-subspaces) runs on the field's lookup tables as
numpy arrays, and the scalar field operations behind RREF, normalization
and charts read them too.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

from . import linalg
from .errors import (
    BadParamsError,
    CentreInHyperplaneError,
    CentreInSetError,
    DimensionMismatchError,
    EmptyInputError,
    NotHyperplaneError,
    RangeError,
    TooLargeError,
)

# caps for materializing full enumerations, in array entries
_COORDS_CAP = 60_000_000
_INCIDENCE_CAP = 40_000_000
_INCIDENCE_SUBSPACE_CAP = 400_000
# per-point scans count keys whose range is at most this many incidences
_COUNT_RANGE = 8
# lazy trace orderings and per-point counts are built once, whole
_TRACE_LOCK = threading.RLock()


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark an array read-only, so a cached result cannot be changed by a
    caller; returns the array."""
    arr.flags.writeable = False
    return arr


def gaussian_binomial(m: int, r: int, q: int) -> int:
    """Number of r-dim subspaces of an m-dim vector space over GF(q)."""
    if m < 0 or q < 2:
        raise RangeError(f"bad gaussian binomial arguments m={m}, q={q}")
    if r < 0 or r > m:
        return 0
    out = 1
    for i in range(r):
        out = out * (q ** (m - i) - 1) // (q ** (i + 1) - 1)
    return out


class ProjectiveSpace:
    """PG(n, q) for a FieldSpec.  Instances are shared per (n, field)."""

    _registry: dict = {}

    def __new__(cls, n, field):
        key = (n, field)
        inst = cls._registry.get(key)
        if inst is None:
            inst = super().__new__(cls)
            cls._registry[key] = inst
        return inst

    def __init__(self, n: int, field):
        if getattr(self, "_ready", False):
            return
        if n < 1:
            raise RangeError(f"projective dimension must be >= 1, got {n}")
        self.n = n
        self.field = field
        self.q = field.q
        self.num_points = (self.q ** (n + 1) - 1) // (self.q - 1)
        # _offsets[i] = rank of the first point with leading position i
        self._offsets = tuple((self.q ** (n - i) - 1) // (self.q - 1)
                              for i in range(n + 1))
        self._powers = tuple(self.q ** (n - j) for j in range(n + 1))
        self._coords = None
        self._incidence = {}
        self._bases = {}
        self._lines = None
        self._ready = True

    def __repr__(self):
        return f"PG({self.n}, {self.q})"

    # -- scalar point coding ------------------------------------------------

    def normalize(self, coords):
        v = tuple(int(c) for c in coords)
        if len(v) != self.n + 1:
            raise DimensionMismatchError(
                f"expected {self.n + 1} coordinates, got {len(v)}")
        if min(v) < 0 or max(v) >= self.q:
            raise RangeError(f"element code outside 0..{self.q - 1} in {v}")
        lead = next((i for i, c in enumerate(v) if c), None)
        if lead is None:
            raise EmptyInputError("the zero vector is not a projective point")
        if v[lead] == 1:
            return v
        inv = self.field.inv(v[lead])
        return tuple(self.field.mul(inv, c) for c in v)

    def rank_of(self, coords) -> int:
        v = self.normalize(coords)
        lead = next(i for i, c in enumerate(v) if c)
        tail = 0
        for j in range(lead + 1, self.n + 1):
            tail = tail * self.q + v[j]
        return self._offsets[lead] + tail

    def coords_of(self, rank: int) -> tuple:
        if not 0 <= rank < self.num_points:
            raise RangeError(f"point rank {rank} out of range for {self!r}")
        lead = next(i for i in range(self.n + 1) if self._offsets[i] <= rank)
        tail = rank - self._offsets[lead]
        v = [0] * (self.n + 1)
        v[lead] = 1
        for j in range(self.n, lead, -1):
            tail, v[j] = divmod(tail, self.q)
        return tuple(v)

    # -- batched point coding -----------------------------------------------

    def normalize_rows(self, arr: np.ndarray) -> np.ndarray:
        """Normalize each row of an (m, n+1) array of element codes."""
        _, mul, _, inv = self.field.tables()
        arr = np.asarray(arr, dtype=np.int64)
        lead = (arr != 0).argmax(axis=-1)
        lv = np.take_along_axis(arr, lead[..., None], axis=-1)
        if not lv.all():
            raise EmptyInputError("zero vector in point batch")
        return mul[arr, inv[lv]]

    def ranks_from_rows(self, arr: np.ndarray, normalized=False) -> np.ndarray:
        arr = np.asarray(arr, dtype=np.int64)
        if not normalized:
            arr = self.normalize_rows(arr)
        lead = (arr != 0).argmax(axis=-1)
        offs = np.asarray(self._offsets, dtype=np.int64)
        powers = np.asarray(self._powers, dtype=np.int64)
        full = arr @ powers
        return offs[lead] + full - powers[lead]

    def coords_of_ranks(self, ranks) -> np.ndarray:
        """Normalized coordinates of an array of point ranks, shape
        ranks.shape + (n+1,): `coords_of` in bulk."""
        ranks = np.asarray(ranks, dtype=np.int64)
        offs = np.asarray(self._offsets, dtype=np.int64)
        if ranks.size and (ranks.min() < 0 or ranks.max() >= self.num_points):
            raise RangeError(f"point rank out of range for {self!r}")
        # the offsets descend, so the lead is the number of them above rank
        lead = (ranks[..., None] < offs).sum(axis=-1)
        tail = ranks - offs[lead]
        # tail < q^(n-lead): its digits vanish at and before the lead
        powers = np.asarray(self._powers, dtype=np.int64)
        digits = (tail[..., None] // powers) % self.q
        return np.where(np.arange(self.n + 1) == lead[..., None], 1, digits)

    def coords_array(self) -> np.ndarray:
        """All normalized points in rank order, shape (num_points, n+1)."""
        if self._coords is None:
            if self.num_points * (self.n + 1) > _COORDS_CAP:
                raise TooLargeError(
                    f"{self!r} has {self.num_points} points, "
                    "too many to materialize")
            q, n = self.q, self.n
            blocks = []
            for lead in range(n, -1, -1):
                size = q ** (n - lead)
                block = np.zeros((size, n + 1), dtype=np.int64)
                block[:, lead] = 1
                ar = np.arange(size, dtype=np.int64)
                for j in range(lead + 1, n + 1):
                    block[:, j] = (ar // q ** (n - j)) % q
                blocks.append(block)
            self._coords = _frozen(np.concatenate(blocks, axis=0))
        return self._coords

    # -- subspace enumeration -----------------------------------------------

    def num_subspaces(self, dim: int) -> int:
        return gaussian_binomial(self.n + 1, dim + 1, self.q)

    def subspaces(self, dim: int, through=None):
        """Yield all dim-subspaces, optionally only those containing
        `through` (a point rank, coordinates, or Subspace).

        The order is deterministic: pivot column sets ascending, free
        entries as ascending base-q odometers.
        """
        if not 0 <= dim <= self.n:
            raise RangeError(f"subspace dimension {dim} out of range")
        if through is None:
            yield from self._subspaces_all(dim)
            return
        base = _coerce_subspace(self, through)
        if dim == self.n:
            yield from self._subspaces_all(dim)
            return
        if base.dim > dim:
            return
        if base.dim == dim:
            yield base
            return
        s = base.dim + 1
        comp = [c for c in range(self.n + 1) if c not in base.pivots]
        # s <= dim < n, so the quotient is a space PG(n-s, q) with n-s >= 1
        quot = ProjectiveSpace(self.n - s, self.field)
        r_extra = dim + 1 - s
        for small in quot._subspaces_all(r_extra - 1):
            lifted = []
            for row in small.rows:
                amb = [0] * (self.n + 1)
                for c, val in zip(comp, row):
                    amb[c] = val
                lifted.append(tuple(amb))
            yield Subspace(self, base.rows + tuple(lifted))

    def _cells(self, dim: int):
        """The RREF cells of the dim-subspaces, in enumeration order: each
        pivot column set (ascending) with its free cells (row, column),
        row-major.  A cell lists its subspaces as a base-q odometer over
        the free entries, the first free cell most significant."""
        r, m = dim + 1, self.n + 1
        for pivots in itertools.combinations(range(m), r):
            yield pivots, [(i, c) for i in range(r)
                           for c in range(pivots[i] + 1, m)
                           if c not in pivots]

    def _subspaces_all(self, dim: int):
        for pivots, cells in self._cells(dim):
            for values in itertools.product(range(self.q), repeat=len(cells)):
                yield self._cell_subspace(pivots, cells, values)

    def _cell_subspace(self, pivots, cells, values) -> "Subspace":
        """The subspace of a cell with the given free entries."""
        rows = [[0] * (self.n + 1) for _ in pivots]
        for i, p in enumerate(pivots):
            rows[i][p] = 1
        for (i, c), val in zip(cells, values):
            rows[i][c] = val
        return Subspace(self, rows, pivots, canonical=True)

    def line_through(self, a, b) -> "Subspace":
        return _line_of(self, _coerce_coords(self, a), _coerce_coords(self, b))

    def hyperplane(self, covector) -> "Subspace":
        u = self.normalize(covector)
        col = [[c] for c in u]
        rows = linalg.left_kernel(col, self.field)
        return Subspace(self, rows)

    def covector_of(self, sub: "Subspace") -> tuple:
        if sub.dim != self.n - 1:
            raise NotHyperplaneError(
                f"dimension {sub.dim} subspace is not a hyperplane of {self!r}")
        ker = linalg.left_kernel(
            [list(col) for col in zip(*sub.rows)], self.field)
        return self.normalize(ker[0])

    # -- cached incidence (small spaces only) --------------------------------

    def _incidence_ok(self, dim: int) -> bool:
        ns = self.num_subspaces(dim)
        per = gaussian_binomial(dim + 1, 1, self.q)
        return ns <= _INCIDENCE_SUBSPACE_CAP and ns * per <= _INCIDENCE_CAP

    def incidence(self, dim: int) -> np.ndarray:
        """The dim-subspaces through each point, shape (num_points, theta),
        theta the number through any one point: row r lists the indices
        (places in `subspaces(dim)` order) of those through point r,
        ascending.  Built once per dim, with the canonical bases of all
        dim-subspaces, which decode an index.

        The build goes one RREF cell (see `_cells`) at a time, with no
        row normalized.  For a normalized point a of PG(dim, q) and a
        canonical basis B, a B is normalized: it holds a_i at pivot p_i,
        so its lead is the pivot of a's lead row, and zeros before it.  Its
        rank is then a per-cell vector over a (pivot columns and lead),
        plus one term per free column c, whose digit is the sum of
        a_i B[i, c] over the rows i pivoting before c: a table over the
        grid axes of those free entries, broadcast into the cell's ranks."""
        got = self._incidence.get(dim)
        if got is not None:
            return got
        if not 0 <= dim <= self.n:
            raise RangeError(f"subspace dimension {dim} out of range")
        if not self._incidence_ok(dim):
            raise TooLargeError(
                f"incidence table for dim {dim} of {self!r} is too large")
        q, r = self.q, dim + 1
        add, mul, _, _ = self.field.tables()
        params = ProjectiveSpace(dim, self.field).coords_array() \
            if dim >= 1 else np.ones((1, 1), dtype=np.int64)
        npar = params.shape[0]
        lead = (params != 0).argmax(axis=1)
        offs = np.asarray(self._offsets, dtype=np.int64)
        powers = np.asarray(self._powers, dtype=np.int64)
        digits = np.arange(q)[:, None]
        ns = self.num_subspaces(dim)
        stack = np.zeros((ns, r, self.n + 1), dtype=np.int64)
        # on[i] holds the point ranks of subspace i
        on = np.empty((ns, npar), dtype=np.int32)
        lo = 0
        for pivots, cells in self._cells(dim):
            k = len(cells)
            piv = np.asarray(pivots)
            bases = stack[lo:lo + q ** k]
            bases[:, np.arange(r), piv] = 1
            grid = np.arange(q ** k)
            for place, (i, c) in enumerate(cells):
                bases[:, i, c] = grid // q ** (k - 1 - place) % q
            ranks = on[lo:lo + q ** k].reshape((q,) * k + (npar,))
            ranks[...] = params @ powers[piv] + (offs - powers)[piv[lead]]
            columns = {}
            for place, (i, c) in enumerate(cells):
                columns.setdefault(c, []).append((place, i))
            for c, entries in columns.items():
                # the digit at c over the free entries of column c, one
                # grid axis per row, in row order as in the grid: row i
                # adds a_i x for its entry x
                digit = np.zeros((npar,), dtype=np.int64)
                shape = [1] * k + [npar]
                for place, i in entries:
                    digit = add[digit[..., None, :], mul[digits, params[:, i]]]
                    shape[place] = q
                ranks += (digit * powers[c]).astype(np.int32).reshape(shape)
            lo += q ** k
        self._bases[dim] = _frozen(stack)
        # every point lies on theta subspaces, so a stable sort by point
        # splits the flat positions into equal rows, each ascending, and
        # a flat position divided by npar is its subspace
        through = np.argsort(on.reshape(-1), kind="stable")
        del on
        through //= npar
        out = _frozen(through.astype(np.int32).reshape(self.num_points, -1))
        self._incidence[dim] = out
        return out

    def subspace_by_index(self, dim: int, idx: int) -> "Subspace":
        """The dim-subspace at place idx of the `subspaces(dim)` order,
        decoded arithmetically: each cell of `_cells` holds q**(free cells)
        subspaces, and a place within a cell is the base-q numeral of the
        free entries."""
        if not 0 <= dim <= self.n:
            raise RangeError(f"subspace dimension {dim} out of range")
        idx = int(idx)
        if not 0 <= idx < self.num_subspaces(dim):
            raise RangeError(
                f"subspace index {idx} out of range for dim {dim}")
        for pivots, cells in self._cells(dim):
            size = self.q ** len(cells)
            if idx < size:
                break
            idx -= size
        values = np.unravel_index(idx, (self.q,) * len(cells))
        return self._cell_subspace(pivots, cells, [int(v) for v in values])

    # -- dense line ranks ------------------------------------------------------

    def _line_cells(self) -> tuple:
        """Tables of the dense line rank, built once.  A line's canonical
        basis pivots at columns c1 < c2, its cell; the cells come by c2
        descending, then c1 descending.  The rank is the cell's offset (the
        lines in the cells before it) plus the base-q numeral of the free
        digits: row 2's, then row 1's, lower columns more significant.
        Returns offsets[c1, c2], weights[c1, c2, r, c] (the place value of
        row r, column c; 0 where no digit is free) and the cells in order."""
        if self._lines is None:
            n, q = self.n, self.q
            if self.num_subspaces(1) >= 2 ** 63:
                raise TooLargeError(f"line ranks of {self!r} exceed int64")
            offsets = np.zeros((n + 1, n + 1), dtype=np.int64)
            weights = np.zeros((n + 1, n + 1, 2, n + 1), dtype=np.int64)
            cells, start = [], 0
            for c2 in range(n, 0, -1):
                for c1 in range(c2 - 1, -1, -1):
                    free = [(1, c) for c in range(c2 + 1, n + 1)] \
                        + [(0, c) for c in range(c1 + 1, n + 1) if c != c2]
                    for place, (r, c) in enumerate(reversed(free)):
                        weights[c1, c2, r, c] = q ** place
                    offsets[c1, c2] = start
                    start += q ** len(free)
                    cells.append((c1, c2))
            self._lines = (_frozen(offsets), _frozen(weights),
                           _frozen(np.asarray(cells, dtype=np.int64)))
        return self._lines

    def line_keys(self, stack: np.ndarray) -> np.ndarray:
        """Dense ranks of the lines spanned by the row pairs of an
        (N, 2, n+1) stack: each pair is brought to the canonical 2-row RREF
        that `Subspace` would hold, then ranked as in `_line_cells`."""
        add, mul, neg, inv = self.field.tables()
        stack = np.asarray(stack, dtype=np.int64)
        a, b = stack[:, 0], stack[:, 1]
        la = (a != 0).argmax(axis=1)
        lb = (b != 0).argmax(axis=1)
        # the row leading further left (the first one on ties) pivots first
        swap = (lb < la)[:, None]
        a, b = np.where(swap, b, a), np.where(swap, a, b)
        at = np.arange(stack.shape[0])
        c1 = np.minimum(la, lb)
        piv = a[at, c1]
        first = mul[a, inv[piv][:, None]]
        second = add[b, neg[mul[b[at, c1][:, None], first]]]
        c2 = (second != 0).argmax(axis=1)
        piv2 = second[at, c2]
        if not (piv.all() and piv2.all()):
            raise BadParamsError("row pairs that do not span a line")
        second = mul[second, inv[piv2][:, None]]
        first = add[first, neg[mul[first[at, c2][:, None], second]]]
        offsets, weights, _ = self._line_cells()
        w = weights[c1, c2]
        return offsets[c1, c2] + (first * w[:, 0]).sum(axis=1) \
            + (second * w[:, 1]).sum(axis=1)

    def line_bases(self, ranks) -> np.ndarray:
        """Canonical 2-row bases, shape (N, 2, n+1), of an array of dense
        line ranks: the inverse of `line_keys` on canonical bases."""
        offsets, weights, cells = self._line_cells()
        ranks = np.asarray(ranks, dtype=np.int64).reshape(-1)
        if ranks.size and (ranks.min() < 0
                           or ranks.max() >= self.num_subspaces(1)):
            raise RangeError(f"line rank out of range for {self!r}")
        starts = offsets[cells[:, 0], cells[:, 1]]
        cell = np.searchsorted(starts, ranks, side="right") - 1
        c1, c2 = cells[cell, 0], cells[cell, 1]
        w = weights[c1, c2]
        local = (ranks - starts[cell])[:, None, None]
        rows = np.where(w > 0, local // np.maximum(w, 1) % self.q, 0)
        at = np.arange(ranks.size)
        rows[at, 0, c1] = 1
        rows[at, 1, c2] = 1
        return rows


def _coerce_coords(space, item) -> tuple:
    if isinstance(item, (int, np.integer)):
        return space.coords_of(int(item))
    return space.normalize(item)


def _line_of(space, pa: tuple, pb: tuple) -> "Subspace":
    """The line through two normalized points (tuples of codes), reduced
    straight to the canonical 2-row basis that `Subspace` would hold."""
    field = space.field
    # a normalized point's first 1 is its lead
    la, lb = pa.index(1), pb.index(1)
    if lb < la:
        pa, pb, la = pb, pa, lb
    if pb[la]:
        pb = [field.sub(y, x) for x, y in zip(pa, pb)]
    lb = next((i for i, c in enumerate(pb) if c), None)
    if lb is None:
        raise BadParamsError("the two points coincide")
    if pb[lb] != 1:
        scale = field.inv(pb[lb])
        pb = [field.mul(scale, y) for y in pb]
    if pa[lb]:
        pa = [field.sub(x, field.mul(pa[lb], y)) for x, y in zip(pa, pb)]
    return Subspace(space, (pa, pb), (la, lb), canonical=True)


def _coerce_subspace(space, item) -> "Subspace":
    if isinstance(item, Subspace):
        if item.space is not space:
            raise DimensionMismatchError("subspace from a different space")
        return item
    return Subspace(space, (_coerce_coords(space, item),))


class Subspace:
    """A projective subspace held as its canonical RREF basis."""

    __slots__ = ("space", "rows", "pivots", "_ranks")

    def __init__(self, space, rows, pivots=None, *, canonical=False):
        self.space = space
        if canonical:
            self.rows = tuple(tuple(r) for r in rows)
            self.pivots = tuple(pivots)
        else:
            red, piv = linalg.rref(rows, space.field)
            if not red:
                raise EmptyInputError("subspace needs at least one point")
            if len(red[0]) != space.n + 1:
                raise DimensionMismatchError(
                    f"rows of length {len(red[0])} in {space!r}")
            self.rows = red
            self.pivots = piv
        self._ranks = None

    @property
    def dim(self) -> int:
        return len(self.rows) - 1

    def contains(self, item) -> bool:
        v = _coerce_coords(self.space, item)
        return linalg.in_row_space(v, self.rows, self.pivots,
                                   self.space.field)

    __contains__ = contains

    def point_ranks(self) -> np.ndarray:
        """Sorted ranks of all points on the subspace."""
        if self._ranks is not None:
            return self._ranks
        space = self.space
        if self.dim == 0:
            ranks = np.asarray([space.rank_of(self.rows[0])], dtype=np.int64)
        else:
            add, mul, _, _ = space.field.tables()
            params = ProjectiveSpace(self.dim, space.field).coords_array()
            basis = np.asarray(self.rows, dtype=np.int64)
            acc = np.zeros((params.shape[0], space.n + 1), dtype=np.int64)
            for j in range(len(self.rows)):
                acc = add[acc, mul[params[:, j, None], basis[None, j, :]]]
            ranks = np.sort(space.ranks_from_rows(acc, normalized=False))
        self._ranks = ranks
        return ranks

    def point_set(self) -> "PointSet":
        return PointSet(self.space, self.point_ranks())

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.space is other.space
                and self.rows == other.rows)

    def __hash__(self):
        return hash((id(self.space), self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, rows={[list(r) for r in self.rows]})"


def span(space, *items) -> Subspace:
    """Smallest subspace containing the given points and subspaces."""
    rows = []
    for item in items:
        if isinstance(item, Subspace):
            if item.space is not space:
                raise DimensionMismatchError("subspace from a different space")
            rows.extend(item.rows)
        elif isinstance(item, PointSet):
            rows.extend(space.coords_of(r) for r in item)
        else:
            rows.append(_coerce_coords(space, item))
    if not rows:
        raise EmptyInputError("span of nothing")
    return Subspace(space, rows)


def meet(a: Subspace, b: Subspace):
    """Intersection of two subspaces, or None when it is empty."""
    if a.space is not b.space:
        raise DimensionMismatchError("subspaces from different spaces")
    field = a.space.field
    stacked = [list(r) for r in a.rows] + [list(r) for r in b.rows]
    ker = linalg.left_kernel(stacked, field)
    if not ker:
        return None
    na = len(a.rows)
    rows = []
    for combo in ker:
        vec = [0] * (a.space.n + 1)
        for s in range(na):
            c = combo[s]
            if c:
                for j, x in enumerate(a.rows[s]):
                    vec[j] = field.add(vec[j], field.mul(c, x))
        rows.append(vec)
    return Subspace(a.space, rows)


class PointSet:
    """An immutable set of points of one space, stored as sorted ranks."""

    __slots__ = ("space", "ranks", "_mask", "_coords")

    def __init__(self, space, ranks):
        self.space = space
        arr = np.unique(np.asarray(list(ranks) if not isinstance(
            ranks, np.ndarray) else ranks, dtype=np.int64))
        if arr.size and (arr[0] < 0 or arr[-1] >= space.num_points):
            raise RangeError("point rank out of range")
        self.ranks = _frozen(arr)
        self._mask = None
        self._coords = None

    def __len__(self):
        return int(self.ranks.size)

    def __iter__(self):
        return iter(int(r) for r in self.ranks)

    def __contains__(self, rank):
        i = np.searchsorted(self.ranks, int(rank))
        return i < self.ranks.size and self.ranks[i] == int(rank)

    def __eq__(self, other):
        return (isinstance(other, PointSet) and self.space is other.space
                and self.ranks.size == other.ranks.size
                and bool(np.all(self.ranks == other.ranks)))

    def __hash__(self):
        return hash((id(self.space), self.ranks.tobytes()))

    def __repr__(self):
        return f"PointSet({len(self)} points of {self.space!r})"

    def mask(self) -> np.ndarray:
        if self._mask is None:
            m = np.zeros(self.space.num_points, dtype=bool)
            m[self.ranks] = True
            self._mask = _frozen(m)
        return self._mask

    def coords(self) -> np.ndarray:
        if self._coords is None:
            if self.space.num_points * (self.space.n + 1) <= _COORDS_CAP:
                self._coords = self.space.coords_array()[self.ranks]
            else:
                self._coords = np.asarray(
                    [self.space.coords_of(int(r)) for r in self.ranks],
                    dtype=np.int64)
            _frozen(self._coords)
        return self._coords

    def union(self, other: "PointSet") -> "PointSet":
        return PointSet(self.space, np.union1d(self.ranks, other.ranks))

    def difference(self, other: "PointSet") -> "PointSet":
        return PointSet(self.space, np.setdiff1d(self.ranks, other.ranks))

    def intersection(self, other: "PointSet") -> "PointSet":
        return PointSet(self.space, np.intersect1d(self.ranks, other.ranks))

    def restrict_to(self, sub: Subspace):
        """Coordinates of the points inside `sub`, as a set of the small
        space PG(sub.dim, q) plus the chart used for the identification."""
        chart = SubspaceChart(sub)
        return chart.restrict(self), chart


class SubspaceChart:
    """Identification of a subspace with a standalone PG(dim, q).

    Small-space coordinates of an ambient point are its combination
    coefficients over the RREF basis rows, which are read off at the pivot
    columns.
    """

    def __init__(self, sub: Subspace):
        self.subspace = sub
        self.ambient = sub.space
        if sub.dim < 1:
            raise RangeError("chart needs a subspace of dimension >= 1")
        self.small = ProjectiveSpace(sub.dim, sub.space.field)

    def to_small(self, item) -> tuple:
        v = _coerce_coords(self.ambient, item)
        coeff = tuple(v[p] for p in self.subspace.pivots)
        if self.to_ambient(coeff) != tuple(v):
            raise BadParamsError("point lies outside the chart subspace")
        return self.small.normalize(coeff)

    def to_ambient(self, coeff) -> tuple:
        field = self.ambient.field
        vec = [0] * (self.ambient.n + 1)
        for c, row in zip(coeff, self.subspace.rows):
            if c:
                for j, x in enumerate(row):
                    vec[j] = field.add(vec[j], field.mul(c, x))
        return tuple(vec)

    def restrict(self, pts: PointSet) -> PointSet:
        sub_ranks = self.subspace.point_ranks()
        inside = np.intersect1d(pts.ranks, sub_ranks)
        if inside.size != pts.ranks.size:
            raise BadParamsError(
                f"{pts.ranks.size - inside.size} points lie outside "
                "the chart subspace")
        coords = self.ambient.coords_array()[inside]
        coeff = coords[:, list(self.subspace.pivots)]
        return PointSet(self.small, self.small.ranks_from_rows(coeff))

    def lift_rows(self, coeff: np.ndarray) -> np.ndarray:
        """Ambient vectors of an array of small-space coordinate rows (last
        axis dim+1, any leading shape): the same linear map as
        `to_ambient`, applied with the field tables."""
        add, mul, _, _ = self.ambient.field.tables()
        coeff = np.asarray(coeff, dtype=np.int64)
        basis = np.asarray(self.subspace.rows, dtype=np.int64)
        acc = np.zeros(coeff.shape[:-1] + (self.ambient.n + 1,),
                       dtype=np.int64)
        for j in range(basis.shape[0]):
            acc = add[acc, mul[coeff[..., j, None], basis[j]]]
        return acc


def project(pts: PointSet, centre, hyperplane: Subspace) -> PointSet:
    """Project a point set from a centre point onto a hyperplane.

    The image of R is the intersection of the line (centre R) with the
    hyperplane; it is computed as (u.centre) R - (u.R) centre for the
    hyperplane covector u.  The centre must avoid both the set and the
    hyperplane.  The image lives in the ambient space (on the hyperplane);
    restrict with a chart when small coordinates are wanted.
    """
    space = pts.space
    c = _coerce_coords(space, centre)
    if hyperplane.dim != space.n - 1:
        raise NotHyperplaneError(
            f"projection target has dimension {hyperplane.dim}, "
            f"expected {space.n - 1}")
    crank = space.rank_of(c)
    if crank in pts:
        raise CentreInSetError("projection centre lies in the point set")
    if hyperplane.contains(c):
        raise CentreInHyperplaneError(
            "projection centre lies on the target hyperplane")
    field = space.field
    u = space.covector_of(hyperplane)
    uc = 0
    for a, b in zip(u, c):
        uc = field.add(uc, field.mul(a, b))
    add, mul, neg, _ = field.tables()
    coords = pts.coords()
    uv = np.asarray(u, dtype=np.int64)
    ur = np.zeros(coords.shape[0], dtype=np.int64)
    for j in range(space.n + 1):
        ur = add[ur, mul[coords[:, j], uv[j]]]
    cv = np.asarray(c, dtype=np.int64)
    img = add[mul[coords, uc], mul[neg[ur][:, None], cv[None, :]]]
    return PointSet(space, space.ranks_from_rows(img))


def _offsets(counts) -> np.ndarray:
    """CSR offsets of groups of the given sizes: group i of the flat array
    is flat[out[i]:out[i+1]]."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _transpose(flat, offsets, counts) -> tuple:
    """The other grouping of a CSR incidence array, whose groups have the
    sizes `counts`: for each member, the owners whose groups list it,
    ascending.  It sorts the keys member * owners + owner, all distinct."""
    owners = offsets.size - 1
    keyed = flat.astype(np.int64)
    keyed *= owners
    keyed += np.repeat(np.arange(owners, dtype=np.int32), np.diff(offsets))
    keyed.sort()
    keyed %= owners
    return _frozen(keyed.astype(np.int32)), _frozen(_offsets(counts))


class TraceSummary:
    """Intersection counts of one point set against all dim-subspaces.

    Only subspaces that meet the set are held explicitly: slot i has a key
    and a size, everything else is the x_0 count.  A key is a dense index
    in range(total), and the keys ascend.  The dimension says which index,
    tested in the order `subspace_traces` picks its scan:

    - dim = n: the single key 0 of the whole space,
    - dim = 1: the dense line rank: pivot cells (c1, c2) by c2 descending,
      then c1 descending, then the free digits as a base-q numeral (see
      `ProjectiveSpace._line_cells`),
    - dim = n-1: the point rank of the covector in the dual space,
    - otherwise: the index in the space's enumeration order (see
      `ProjectiveSpace.incidence`).

    Every scan lists, for each point of the set, the keys of the
    dim-subspaces through it, ascending, and `_by_point_summary` groups
    those incidences by counting: a bincount over the key range gives the
    sizes, its nonzero entries the keys, and the same array then becomes
    the key -> slot table.  When the key range is much larger than the
    incidence count (a small set in a large space), one sort does it
    without a range-sized array.

    Only this class reads keys: `bases` turns any selection of slots into
    canonical RREF basis rows, `first_uncovered` unranks the first missing
    key, and `witness_order` orders line slots by their bases.  The
    incidences between slots and points
    (a point is its position in the set's rank order) are kept in CSR
    form, "compressed sparse row": one flat int32 array grouped by owner
    plus int64 offsets, group i being flat[offsets[i]:offsets[i+1]].  There
    are two groupings:

    - by point (`by_point`, `indices_through_point`): the slots through
      each point, ascending, which is the scan order; every scan yields it.
    - by subspace (`by_subspace`, `points_of`): the point positions of each
      slot, ascending; the offsets are the running sums of the sizes.  It
      is built on first use under a lock, by one sort of the other.

    All arrays are read-only: summaries are cached per point set and
    shared.
    """

    def __init__(self, space, dim, point_ranks, keys, sizes,
                 point_subspaces, point_offsets):
        self.space = space
        self.dim = dim
        self.point_ranks = point_ranks
        self.total = space.num_subspaces(dim)
        self.keys = _frozen(keys)
        self.sizes = _frozen(sizes)
        self._by_point = (_frozen(point_subspaces), _frozen(point_offsets))
        self._by_subspace = None
        self._counts = {}
        self._size_counts = None
        self._uncovered = None

    @property
    def x0(self) -> int:
        return self.total - int(self.sizes.size)

    def size_counts(self) -> tuple:
        """(sizes, counts): the distinct trace sizes of the slots,
        ascending, and how many slots have each.  Computed once; the
        arrays are read-only."""
        if self._size_counts is None:
            with _TRACE_LOCK:
                if self._size_counts is None:
                    vals, cnts = np.unique(self.sizes, return_counts=True)
                    self._size_counts = (_frozen(vals), _frozen(cnts))
        return self._size_counts

    def spectrum(self) -> dict:
        """Counts {trace size: number of dim-subspaces}, including 0."""
        out = {}
        if self.x0:
            out[0] = self.x0
        for v, c in zip(*self.size_counts()):
            out[int(v)] = int(c)
        return out

    def by_subspace(self) -> tuple:
        """(points, offsets): the point positions of slot i are
        points[offsets[i]:offsets[i+1]], ascending."""
        if self._by_subspace is None:
            with _TRACE_LOCK:
                if self._by_subspace is None:
                    self._by_subspace = _transpose(*self._by_point,
                                                   self.sizes)
        return self._by_subspace

    def by_point(self) -> tuple:
        """(slots, offsets): the slots through the point at position p are
        slots[offsets[p]:offsets[p+1]], ascending."""
        return self._by_point

    def _check_slot(self, idx: int):
        if not 0 <= idx < self.sizes.size:
            raise RangeError(f"trace slot {idx} out of range")

    def _check_slots(self, sel: np.ndarray):
        if sel.size and not 0 <= sel.min() <= sel.max() < self.sizes.size:
            raise RangeError("trace slot out of range")

    def points_of(self, idx: int) -> np.ndarray:
        """Positions of the set's points on slot idx, ascending."""
        self._check_slot(idx)
        points, offsets = self.by_subspace()
        return points[offsets[idx]:offsets[idx + 1]]

    def grouped_points(self, sel: np.ndarray) -> tuple:
        """Point positions of each slot in sel, concatenated in sel order,
        and offsets: group i is out[offsets[i]:offsets[i+1]]."""
        points, starts = self.by_subspace()
        sel = np.asarray(sel, dtype=np.int64)
        self._check_slots(sel)
        counts = self.sizes[sel]
        offsets = _offsets(counts)
        at = np.repeat(starts[sel] - offsets[:-1], counts) \
            + np.arange(offsets[-1])
        return points[at], offsets

    def indices_through_point(self, pt_pos: int) -> np.ndarray:
        if not 0 <= pt_pos < self.point_ranks.size:
            raise RangeError(f"point position {pt_pos} out of range")
        slots, offsets = self.by_point()
        return slots[offsets[pt_pos]:offsets[pt_pos + 1]]

    def per_point_counts(self, min_size=2, exact=None) -> np.ndarray:
        """For each point of the set (in rank order): how many dim-subspaces
        through it have trace >= min_size (or == exact).  Cached per
        arguments; the result is read-only."""
        got = self._counts.get((min_size, exact))
        if got is None:
            with _TRACE_LOCK:
                got = self._counts.get((min_size, exact))
                if got is None:
                    keep = self.sizes == exact if exact is not None \
                        else self.sizes >= min_size
                    slots, offsets = self.by_point()
                    # every point lies on a slot, so no group is empty
                    got = _frozen(np.add.reduceat(
                        keep[slots], offsets[:-1], dtype=np.int64))
                    self._counts[(min_size, exact)] = got
        return got

    def bases(self, sel) -> np.ndarray:
        """Canonical RREF bases of the slots in sel (an index array), shape
        (len(sel), dim+1, n+1), the rows `Subspace` would hold."""
        sel = np.asarray(sel, dtype=np.int64).reshape(-1)
        self._check_slots(sel)
        return self._decode(self.keys[sel])

    def _decode(self, keys: np.ndarray) -> np.ndarray:
        space, n, dim = self.space, self.space.n, self.dim
        if dim == n:
            return np.repeat(np.eye(n + 1, dtype=np.int64)[None], keys.size,
                             axis=0)
        if dim == 1:
            return space.line_bases(keys)
        if dim != n - 1:
            # a middle dimension: the index into the incidence table
            return space._bases[dim][keys]
        # u . x = 0 has the basis e_j - (u_j / u_z) e_z, j != z, with z the
        # last nonzero column of u: row j pivots at j, and no row at z
        _, mul, neg, inv = space.field.tables()
        u = space.coords_of_ranks(keys)
        z = n - (u[:, ::-1] != 0).argmax(axis=1)
        at = np.arange(keys.size)
        rows = np.repeat(np.eye(n + 1, dtype=np.int64)[None], keys.size,
                         axis=0)
        rows[at[:, None], np.arange(n + 1), z[:, None]] = \
            neg[mul[u, inv[u[at, z]][:, None]]]
        return rows[np.arange(n + 1) != z[:, None]].reshape(keys.size, n, n + 1)

    def _subspace(self, rows: np.ndarray) -> Subspace:
        return Subspace(self.space, rows.tolist(),
                        (rows != 0).argmax(axis=1).tolist(), canonical=True)

    def subspace_at(self, idx: int) -> Subspace:
        self._check_slot(idx)
        return self._subspace(self._decode(self.keys[idx:idx + 1])[0])

    def first_uncovered(self):
        """The dim-subspace with the smallest key among those that miss
        the set, or None when every one meets it.  The keys are dense and
        ascend, so keys[i] - i never falls and that key is the first i
        where it is positive.  The key is found once per summary."""
        if self._uncovered is None:
            with _TRACE_LOCK:
                if self._uncovered is None:
                    self._uncovered = int(np.searchsorted(
                        self.keys - np.arange(self.keys.size), 0,
                        side="right"))
        key = self._uncovered
        if key >= self.total:
            return None
        return self._subspace(self._decode(np.asarray([key]))[0])

    def witness_order(self, sel) -> np.ndarray:
        """The slots in sel in the order searches for a first witness visit
        them: for lines, that of the base-q numerals whose digits, lowest
        place first, are the basis rows (row 2's last column most
        significant); for other summaries, sel as given."""
        sel = np.asarray(sel, dtype=np.int64).reshape(-1)
        if self.dim != 1:
            return sel
        digits = self.bases(sel).reshape(sel.size, 2 * (self.space.n + 1))
        return sel[np.lexsort(digits.T)]

    def subspaces_with_size(self, size: int):
        for idx in np.nonzero(self.sizes == size)[0]:
            yield int(idx), self.subspace_at(int(idx))


def _scan_lines(space, pts: PointSet) -> TraceSummary:
    """Traces of all lines meeting the set, by enumerating per point the
    lines through it (each meeting line is hit once per contained point).

    The lines through P are P w for the points w of PG(n-1, q) placed in
    the columns other than P's lead l, taken in rank order.  That order
    lists each lead of w as a C-order grid of its free digits, and such a
    block lies in one cell of the line rank (see `_line_cells`): with lw
    the lead of w, the basis is (w, P) in cell (lw, l) when lw < l, and
    (P - P_lw w, w) in cell (l, lw) when lw > l, whose first row holds
    P_c - P_lw w_c in each column c > lw.  So each block's ranks are the
    cell's offset plus broadcast adds of per-point q-vectors.  The blocks
    come in cell order, and w's digits are the most significant that vary
    within one, so each point's ranks ascend."""
    add, mul, neg, _ = space.field.tables()
    n, q = space.n, space.q
    m = len(pts)
    coords = pts.coords()
    lead = (coords != 0).argmax(axis=1)
    npar = (q ** n - 1) // (q - 1)
    offsets, weights, _ = space._line_cells()
    digits = np.arange(q, dtype=np.int64)
    ranks = np.empty((m, npar), dtype=np.int64)
    for l in range(n + 1):
        # the ranks ascend, so the points of one lead are contiguous
        rows = np.flatnonzero(lead == l)
        if not rows.size:
            continue
        grp = slice(rows[0], rows[-1] + 1)
        p = coords[grp]
        start = 0
        for j in range(n - 1, -1, -1):
            size = q ** (n - 1 - j)
            out = ranks[grp, start:start + size]
            start += size
            if j < l:
                # rows (w, P): the free digits of w sit in the first row
                weight = weights[j, l]
                grid = np.zeros(1, dtype=np.int64)
                for c in range(j + 1, n + 1):
                    if c != l:
                        grid = (grid[:, None]
                                + digits * weight[0, c]).reshape(-1)
                np.add((p @ weight[1] + offsets[j, l])[:, None], grid,
                       out=out)
            else:
                # rows (P - P_lw w, w) with lw = j + 1
                lw = j + 1
                weight = weights[l, lw]
                acc = (p[:, :lw] @ weight[0, :lw] + offsets[l, lw])[:, None]
                scale = mul[neg[p[:, lw]][:, None], digits]
                for c in range(lw + 1, n + 1):
                    term = add[p[:, c, None], scale] * weight[0, c] \
                        + digits * weight[1, c]
                    acc = (acc[:, :, None] + term[:, None, :]) \
                        .reshape(p.shape[0], -1)
                out[...] = acc
    return _by_point_summary(space, 1, pts, ranks,
                             space.num_subspaces(1))


def _scan_hyperplanes(space, pts: PointSet) -> TraceSummary:
    """Traces of all hyperplanes meeting the set, via the covectors through
    each point (a hyperplane through s points contributes s incidences).

    With z the last nonzero column of P, the covectors u with u . P = 0
    have the RREF basis e_j - (P_j / P_z) e_z, j != z, and the combinations
    a B for the points a of PG(n-1, q) are already normalized: u equals a
    in the columns other than z, and u_z = -sum over j < z of a_j P_j / P_z.
    So a dual rank is the rank of a placed around column z, a constant per
    (z, a), plus u_z q^(n-z).  Over a lead block of a, u_z depends only on
    the free digits before column z, so it is one outer add over them."""
    add, mul, neg, inv = space.field.tables()
    n, q = space.n, space.q
    m = len(pts)
    coords = pts.coords()
    last = n - (coords[:, ::-1] != 0).argmax(axis=1)
    dual = ProjectiveSpace(n, space.field)
    params = ProjectiveSpace(n - 1, space.field).coords_array()
    npar = params.shape[0]
    digits = np.arange(q, dtype=np.int64)
    ranks = np.empty((m, npar), dtype=np.int64)
    for z in range(n + 1):
        rows = np.flatnonzero(last == z)
        if not rows.size:
            continue
        placed = np.insert(params, z, 0, axis=1)
        base = dual.ranks_from_rows(placed, normalized=True)
        p = coords[rows]
        # coef[:, i] = -P_i / P_z: a_i's share of u_z, for i < z
        coef = neg[mul[p[:, :z], inv[p[:, z]][:, None]]]
        start = 0
        for i0 in range(n - 1, -1, -1):
            size = q ** (n - 1 - i0)
            block = slice(start, start + size)
            start += size
            if i0 >= z:
                ranks[rows, block] = base[block]
                continue
            # u_z over the digits i0 < i < z of a (a_i0 = 1); the later
            # digits repeat each value q^(n-z) times
            uz = coef[:, i0, None]
            for i in range(i0 + 1, z):
                uz = add[uz[:, :, None],
                         mul[digits, coef[:, i, None]][:, None, :]] \
                    .reshape(rows.size, -1)
            ranks[rows, block] = (base[block].reshape(-1, q ** (n - z))
                                  + uz[:, :, None] * q ** (n - z)) \
                .reshape(rows.size, size)
    # each point's ranks ascend: the rank orders covectors by their columns
    # lexicographically, u_z is a function of the columns before z, and
    # PG(n-1, q) lists a in the lexicographic order of the other columns
    return _by_point_summary(space, n - 1, pts, ranks,
                             dual.num_points)


def _by_point_summary(space, dim, pts, ranks, total) -> TraceSummary:
    """The summary of a per-point scan: row p of the (m, npar) array ranks
    holds the dense keys in range(total) of the dim-subspaces through the
    point at position p, ascending.  The incidences are grouped by
    counting the keys; when their range is much larger than their number,
    by one sort instead."""
    m, npar = ranks.shape
    flat = ranks.reshape(-1)
    if total <= _COUNT_RANGE * flat.size:
        counts = np.bincount(flat, minlength=total)
        keys = np.flatnonzero(counts)
        sizes = counts[keys]
        # the counts are spent: their buffer becomes the key -> slot table
        table = counts.view(np.int32)[:total]
        table[keys] = np.arange(keys.size, dtype=np.int32)
        slots = table[flat]
    else:
        keys, slots, sizes = np.unique(flat, return_inverse=True,
                                       return_counts=True)
        slots = slots.astype(np.int32)
    return TraceSummary(space, dim, pts.ranks, keys, sizes, slots,
                        np.arange(m + 1, dtype=np.int64) * npar)


def _scan_full(space, pts: PointSet, dim: int) -> TraceSummary:
    """Traces of all dim-subspaces meeting the set, read off the rows of
    the cached incidence table at the set's points (middle dimensions)."""
    return _by_point_summary(space, dim, pts, space.incidence(dim)[pts.ranks],
                             space.num_subspaces(dim))


def subspace_traces(pts: PointSet, dim: int) -> TraceSummary:
    """Trace summary of the set against every dim-subspace of its space.

    Lines and hyperplanes come from the per-point scans, the middle
    dimensions from the rows of the cached incidence table, which only
    small spaces have: middle dimensions of large spaces are out of scope.
    """
    space = pts.space
    if not 1 <= dim <= space.n:
        raise RangeError(f"trace dimension {dim} out of range for {space!r}")
    if len(pts) == 0:
        raise EmptyInputError("trace scan of an empty point set")
    if dim == space.n:
        # every point lies on the one subspace, key 0
        return _by_point_summary(space, dim, pts, np.zeros(
            (len(pts), 1), dtype=np.int64), 1)
    if dim == 1:
        return _scan_lines(space, pts)
    if dim == space.n - 1:
        return _scan_hyperplanes(space, pts)
    if space._incidence_ok(dim):
        return _scan_full(space, pts, dim)
    raise TooLargeError(
        f"no feasible scan for dim {dim} traces in {space!r}")

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
# bytes of one int64 array over a key range: a per-point scan without its
# own tile counter counts a block's keys by a bincount over the range only
# within it, and sorts them otherwise (see `_grouping_regime`)
_COUNT_BYTES = 1 << 23
# bytes of one block of a blocked kernel's temporaries: each kernel, in
# this module or another, takes `_block_items(its bytes per item)` items
# per block, the grouping tail and the passes over the by-point size grid
# 8 bytes per entry (a bincount's intp copy of its incidences)
_SCAN_BLOCK_BYTES = 1 << 21
# lazy per-summary results (size and per-point counts, the by-point size
# grid, the first uncovered key) are built once, whole, and a summary's
# rows are generated under it
_TRACE_LOCK = threading.RLock()


def _block_items(item_bytes: int) -> int:
    """Items per block of a kernel whose items take item_bytes bytes of
    temporaries each, the budget read at call time: its one owner."""
    return max(1, _SCAN_BLOCK_BYTES // item_bytes)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark an array read-only, so a cached result cannot be changed by a
    caller; returns the array."""
    arr.flags.writeable = False
    return arr


def sorted_unique(values) -> np.ndarray:
    """The distinct entries of an array, flattened, ascending and in a new
    array: `np.unique`'s result without the `numpy.ma` import that its
    first plain call in a process pays."""
    arr = np.sort(np.ravel(values))
    keep = np.ones(arr.size, dtype=bool)
    np.not_equal(arr[1:], arr[:-1], out=keep[1:])
    return arr[keep]


def sorted_unique_rows(rows, return_inverse: bool = False):
    """The distinct rows of a 2-d array in lexicographic order, as
    `np.unique(rows, axis=0)` gives them but without its `numpy.ma`
    import; with return_inverse, also the index of each row's distinct
    row."""
    rows = np.asarray(rows)
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    fresh = np.ones(len(ranked), dtype=bool)
    fresh[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    if not return_inverse:
        return ranked[fresh]
    inverse = np.empty(len(ranked), dtype=np.int64)
    inverse[order] = np.cumsum(fresh) - 1
    return ranked[fresh], inverse


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
        self._index_cells = {}
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
        return self._normalized(arr)[0]

    def _normalized(self, arr) -> tuple:
        """(rows, leads): the normalized rows of an array of element codes
        (last axis n+1) and the lead column of each."""
        _, mul, _, inv = self.field.tables()
        arr = np.asarray(arr, dtype=np.int64)
        lead = (arr != 0).argmax(axis=-1)
        lv = np.take_along_axis(arr, lead[..., None], axis=-1)
        if not lv.all():
            raise EmptyInputError("zero vector in point batch")
        return mul.ravel().take(arr * self.q + inv.take(lv)), lead

    def ranks_from_rows(self, arr: np.ndarray, normalized=False) -> np.ndarray:
        if normalized:
            arr = np.asarray(arr, dtype=np.int64)
            lead = (arr != 0).argmax(axis=-1)
        else:
            arr, lead = self._normalized(arr)
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
        lead = offs.size - np.searchsorted(offs[::-1], ranks, side="right")
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

        Without `through`, the order is that of the keys (see `_cells`):
        the subspace at place i has key i, so points come in rank order and
        lines in line-rank order.  With it, the order is that of the
        quotient space's subspaces.
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
        """The RREF cells of the dim-subspaces, lazily, in the order of
        their keys: each pivot column set with its free entries (row,
        column).  The pivot sets come by last pivot descending, then the
        one before it, and so on; a cell lists its subspaces as a base-q
        odometer over its free entries, last row first, columns ascending,
        the first entry most significant.

        The key of a dim-subspace is its place in this order, one dense
        numbering for every dimension: the point rank for points, the line
        rank for lines, 0 for the whole space.  `subspace_bases` decodes
        keys, `line_keys` ranks lines, and trace summaries key every
        dimension by it but the hyperplanes of a space with n >= 3, which
        they key by dual point rank."""
        r, m = dim + 1, self.n + 1
        for comb in itertools.combinations(range(m), r):
            pivots = tuple(self.n - c for c in reversed(comb))
            yield pivots, [(i, c) for i in reversed(range(r))
                           for c in range(pivots[i] + 1, m)
                           if c not in pivots]

    def _subspaces_all(self, dim: int):
        for pivots, cells in self._cells(dim):
            for values in itertools.product(range(self.q), repeat=len(cells)):
                rows = [[0] * (self.n + 1) for _ in pivots]
                for i, p in enumerate(pivots):
                    rows[i][p] = 1
                for (i, c), val in zip(cells, values):
                    rows[i][c] = val
                yield Subspace(self, rows, pivots, canonical=True)

    def line_through(self, a, b) -> "Subspace":
        pair = [_coerce_coords(self, a), _coerce_coords(self, b)]
        rows, ranks = self.rref_rows([pair])
        if ranks[0] != 2:
            raise BadParamsError("the two points do not span a line")
        return _canonical(self, rows)[0]

    def hyperplane(self, covector) -> "Subspace":
        u = np.asarray([self.normalize(covector)], dtype=np.int64)
        return _canonical(self, self._hyperplane_rows(u))[0]

    def covector_of(self, sub: "Subspace") -> tuple:
        """The normalized covector u of a hyperplane, u . x = 0 on it, read
        off its canonical basis by `_covector_rows`."""
        if sub.dim != self.n - 1:
            raise NotHyperplaneError(
                f"dimension {sub.dim} subspace is not a hyperplane of {self!r}")
        return tuple(self._covector_rows([sub.rows])[0].tolist())

    def _covector_rows(self, rows) -> np.ndarray:
        """Normalized covectors, shape (N, n+1), of an (N, n, n+1) stack of
        canonical hyperplane bases, the inverse of `_hyperplane_rows`: 1 at
        the one column z without a pivot, and -row[z] at the pivot of each
        row."""
        n = self.n
        _, _, neg, _ = self.field.tables()
        rows = np.asarray(rows, dtype=np.int64)
        at = np.arange(rows.shape[0])[:, None]
        pivots = (rows != 0).argmax(axis=2)
        # the pivots are n of the columns 0..n, so z is the one left over
        z = n * (n + 1) // 2 - pivots.sum(axis=1)
        u = np.zeros((rows.shape[0], n + 1), dtype=np.int64)
        u[at[:, 0], z] = 1
        u[at, pivots] = neg[rows[at, np.arange(n), z[:, None]]]
        return self.normalize_rows(u)

    def _hyperplane_rows(self, u: np.ndarray) -> np.ndarray:
        """Canonical bases, shape (N, n, n+1), of the hyperplanes u . x = 0
        of an (N, n+1) array of covectors.  With z the last nonzero column
        of u, the basis is e_j - (u_j / u_z) e_z for j != z: row j pivots
        at j, and no row at z."""
        n = self.n
        _, mul, neg, inv = self.field.tables()
        z = n - (u[:, ::-1] != 0).argmax(axis=1)
        at = np.arange(u.shape[0])
        rows = np.repeat(np.eye(n + 1, dtype=np.int64)[None], u.shape[0],
                         axis=0)
        ratio = mul.ravel().take(u * self.q + inv[u[at, z]][:, None])
        rows[at[:, None], np.arange(n + 1), z[:, None]] = neg[ratio]
        return rows[np.arange(n + 1) != z[:, None]].reshape(-1, n, n + 1)

    # -- cached incidence (small spaces only) --------------------------------

    def _incidence_ok(self, dim: int) -> bool:
        ns = self.num_subspaces(dim)
        per = gaussian_binomial(dim + 1, 1, self.q)
        return ns <= _INCIDENCE_SUBSPACE_CAP and ns * per <= _INCIDENCE_CAP

    def incidence(self, dim: int) -> np.ndarray:
        """The dim-subspaces through each point, shape (num_points, theta),
        theta the number through any one point: row r lists the keys
        (places in `subspaces(dim)` order, see `_cells`) of those through
        point r, ascending.  Built once per dim; `subspace_bases` decodes
        a key.

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
        q = self.q
        add, mul, _, _ = (t.ravel() for t in self.field.tables())
        params = ProjectiveSpace(dim, self.field).coords_array() \
            if dim >= 1 else np.ones((1, 1), dtype=np.int64)
        npar = params.shape[0]
        lead = (params != 0).argmax(axis=1)
        offs = np.asarray(self._offsets, dtype=np.int64)
        powers = np.asarray(self._powers, dtype=np.int64)
        digits = np.arange(q)[:, None]
        # on[i] holds the point ranks of subspace i
        on = np.empty((self.num_subspaces(dim), npar), dtype=np.int32)
        lo = 0
        for pivots, cells in self._cells(dim):
            k = len(cells)
            piv = np.asarray(pivots)
            ranks = on[lo:lo + q ** k].reshape((q,) * k + (npar,))
            ranks[...] = params @ powers[piv] + (offs - powers)[piv[lead]]
            columns = {}
            for place, (i, c) in enumerate(cells):
                columns.setdefault(c, []).append((place, i))
            for c, entries in columns.items():
                # the digit at c over the free entries of column c, one
                # grid axis per entry, in grid order: row i adds a_i x for
                # its entry x
                digit = np.zeros((npar,), dtype=np.int64)
                shape = [1] * k + [npar]
                for place, i in entries:
                    digit = add.take(digit[..., None, :] * q
                                     + mul.take(digits * q + params[:, i]))
                    shape[place] = q
                ranks += (digit * powers[c]).astype(np.int32).reshape(shape)
            lo += q ** k
        # every point lies on theta subspaces, so a stable sort by point
        # splits the flat positions into equal rows, each ascending, and
        # a flat position divided by npar is its subspace; in the smallest
        # type that holds a rank, numpy sorts stably by radix (16 bits or
        # fewer), in O(incidences)
        through = np.argsort(
            on.reshape(-1).astype(np.min_scalar_type(self.num_points - 1)),
            kind="stable")
        del on
        through //= npar
        out = _frozen(through.astype(np.int32).reshape(self.num_points, -1))
        self._incidence[dim] = out
        return out

    def subspace_by_index(self, dim: int, idx: int) -> "Subspace":
        """The dim-subspace with key idx, at place idx of the
        `subspaces(dim)` order."""
        return _canonical(self, self.subspace_bases(dim, [int(idx)]))[0]

    def subspace_bases(self, dim: int, keys) -> np.ndarray:
        """Canonical bases, shape (N, dim+1, n+1), of an array of
        dim-subspace keys (see `_cells`): a key lies in the last cell whose
        first key is at most it, and its free entries are the base-q
        digits of its place in that cell."""
        if not 0 <= dim <= self.n:
            raise RangeError(f"subspace dimension {dim} out of range")
        starts, pivots, weights = self._cell_table(dim)
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        if keys.size and not 0 <= keys.min() <= keys.max() \
                < self.num_subspaces(dim):
            raise RangeError(f"dim {dim} subspace key out of range for "
                             f"{self!r}")
        which = np.searchsorted(starts, keys, side="right") - 1
        w = weights[which]
        local = (keys - starts[which])[:, None, None]
        rows = np.where(w > 0, local // np.maximum(w, 1) % self.q, 0)
        rows[np.arange(keys.size)[:, None], np.arange(dim + 1),
             pivots[which]] = 1
        return rows

    def _cell_table(self, dim: int) -> tuple:
        """(starts, pivots, weights): per cell of `_cells(dim)`, its first
        key, its pivot columns, and the place value of each free entry at
        its (row, column), 0 elsewhere.  Built once per dim."""
        if dim not in self._index_cells:
            if self.num_subspaces(dim) >= 2 ** 63:
                raise TooLargeError(
                    f"dim {dim} subspace keys of {self!r} exceed int64")
            cells = list(self._cells(dim))
            weights = np.zeros((len(cells), dim + 1, self.n + 1),
                               dtype=np.int64)
            for w, (_, free) in enumerate(cells):
                for place, (i, c) in enumerate(reversed(free)):
                    weights[w, i, c] = self.q ** place
            sizes = [self.q ** len(free) for _, free in cells]
            self._index_cells[dim] = (
                _frozen(np.cumsum(sizes) - sizes),
                _frozen(np.asarray([piv for piv, _ in cells])),
                _frozen(weights))
        return self._index_cells[dim]

    def _line_cell_at(self) -> np.ndarray:
        """The (n+1, n+1) lookup from the pivot columns (c1, c2) of a line
        to its cell's place in `_cell_table(1)`."""
        _, pivots, _ = self._cell_table(1)
        at = np.zeros((self.n + 1, self.n + 1), dtype=np.intp)
        at[pivots[:, 0], pivots[:, 1]] = np.arange(pivots.shape[0])
        return at

    def rref_rows(self, stack) -> tuple:
        """Batched row reduction of an (N, R, n+1) stack of row sets, any
        integer dtype, zero rows allowed: `_rref`'s (rows, ranks), where
        rows[i, :ranks[i]] is the canonical RREF basis of set i, the rows
        `Subspace` would hold."""
        stack = np.asarray(stack)
        if stack.ndim != 3 or stack.shape[2] != self.n + 1:
            raise DimensionMismatchError(
                f"expected a stack of rows of length {self.n + 1}, got "
                f"shape {stack.shape}")
        return _rref(self.field, stack)

    def line_keys(self, stack) -> np.ndarray:
        """Line ranks, the keys of `_cells(1)`, of the lines spanned by the
        row pairs of an (N, 2, n+1) stack: their canonical bases
        (`rref_rows`), ranked by `_rank_line_rows`."""
        rows, ranks = self.rref_rows(stack)
        if (ranks != 2).any():
            raise BadParamsError("row pairs that do not span a line")
        return self._rank_line_rows(rows)

    def _rank_line_rows(self, rows) -> np.ndarray:
        """Line ranks of an (N, 2, n+1) stack of canonical line bases: the
        first key of the cell of their pivot columns plus the numeral of
        their free digits.  The rows are not reduced."""
        starts, _, weights = self._cell_table(1)
        which = self._line_cell_at()[tuple((rows != 0).argmax(axis=2).T)]
        return starts[which] + (rows * weights[which]).sum(axis=(1, 2))

    def points_of(self, bases) -> np.ndarray:
        """Point ranks, shape (..., theta), of a stack of canonical RREF
        bases of d-subspaces, shape (..., d+1, n+1), column j by point j
        of PG(d, q): normalized coefficients give a normalized combination
        of a canonical basis, which is ranked as it is."""
        bases = np.asarray(bases, dtype=np.int64)
        d = bases.shape[-2] - 1
        params = ProjectiveSpace(d, self.field).coords_array() if d \
            else np.ones((1, 1), dtype=np.int64)
        return self.ranks_from_rows(_combine(
            self.field, params, bases[..., None, :, :]), normalized=True)

    def lines_inside(self, bases) -> np.ndarray:
        """Line ranks, shape (N, L), of the lines inside each of N
        subspaces of one dimension d >= 1 given by their canonical bases,
        an (N, d+1, n+1) stack: column j is the lift of line j of PG(d, q),
        in rank order, so L is the number of lines of PG(d, q).

        Each line's canonical basis is lifted through each subspace's with
        the field tables, a block of subspaces at a time whose int64 lift
        takes at most _SCAN_BLOCK_BYTES (one subspace at least).  A lifted
        row pivots at the subspace's pivot column of the line row's pivot,
        where the other lifted row is zero (the subspace's basis is a unit
        vector at its pivot columns, the line's zero at the other row's
        pivot), so the lift is itself canonical and is ranked unreduced."""
        bases = np.asarray(bases, dtype=np.int64)
        num, height, width = bases.shape
        small = ProjectiveSpace(height - 1, self.field)
        coeff = small.subspace_bases(1, np.arange(small.num_subspaces(1)))
        out = np.empty((num, coeff.shape[0]), dtype=np.int64)
        step = _block_items(8 * coeff.shape[0] * 2 * width)
        for start in range(0, num, step):
            # one expression, so no block's lift outlives its ranking
            out[start:start + step] = self._rank_line_rows(_combine(
                self.field, coeff, bases[start:start + step, None, None])
                .reshape(-1, 2, width)).reshape(-1, coeff.shape[0])
        return out


def _coerce_coords(space, item) -> tuple:
    if isinstance(item, (int, np.integer)):
        return space.coords_of(int(item))
    return space.normalize(item)


def _canonical(space, stack) -> list:
    """The Subspaces of a stack of canonical RREF bases, shape
    (N, d+1, n+1), built without a row reduction."""
    pivots = (stack != 0).argmax(axis=2).tolist()
    return [Subspace(space, rows, piv, canonical=True)
            for rows, piv in zip(stack.tolist(), pivots)]


def _rref(field, stack) -> tuple:
    """Batched row reduction over the field of an (N, R, m) stack of row
    sets, any row width m, any integer dtype, zero rows allowed: (rows,
    ranks), rows of shape (N, min(R, m), m) holding in rows[i, :ranks[i]]
    the RREF of set i (pivot entries 1, zeros above and below each
    pivot) and zeros below it.  The sets are reduced in blocks whose
    int64 copy takes at most _SCAN_BLOCK_BYTES (one set at least),
    column by column: each set whose unreduced rows have an entry in the
    column takes the first such row as its next pivot.  The tables are
    read flat, at a * q + b, as in `_combine`."""
    stack = np.asarray(stack)
    num, height, width = stack.shape
    add, mul, neg, inv = (t.ravel() for t in field.tables())
    q = field.q
    keep = min(height, width)
    rows = np.zeros((num, keep, width), dtype=np.int64)
    ranks = np.zeros(num, dtype=np.int64)
    step = _block_items(8 * max(height, 1) * width)
    for start in range(0, num, step):
        block = stack[start:start + step].astype(np.int64)
        rank = ranks[start:start + step]
        for c in range(width):
            cand = (block[:, :, c] != 0) \
                & (np.arange(height) >= rank[:, None])
            sel = cand.argmax(axis=1)
            live = np.flatnonzero(cand.any(axis=1))
            if not live.size:
                continue
            r, s = rank[live], sel[live]
            pivot = block[live, s]
            pivot = mul.take(pivot * q + inv.take(pivot[:, c])[:, None])
            block[live, s] = block[live, r]
            block[live, r] = pivot
            # clear column c off the pivot row; the columns before c are
            # zero on the pivot row, so only c onwards change
            coeff = block[live, :, c]
            coeff[np.arange(live.size), r] = 0
            block[live, :, c:] = add.take(
                block[live, :, c:] * q + mul.take(
                    coeff[:, :, None] * q + neg.take(pivot[:, None, c:])))
            rank[live] += 1
        rows[start:start + step] = block[:, :keep]
    return rows, ranks


def _combine(field, coeff, basis) -> np.ndarray:
    """The GF(q)-combinations sum_j coeff[..., j] basis[..., j, :], with
    the field tables; the leading axes of coeff and basis broadcast.  The
    tables are read flat, at a * q + b, with one `take` per lookup, which
    costs a fraction of 2-D fancy indexing; the index and sum buffers are
    reused from one term to the next."""
    add, mul, _, _ = field.tables()
    add, mul, q = add.ravel(), mul.ravel(), field.q
    coeff = np.asarray(coeff, dtype=np.int64) * q
    basis = np.asarray(basis, dtype=np.int64)
    idx = coeff[..., 0, None] + basis[..., 0, :]
    acc = mul.take(idx)
    for j in range(1, coeff.shape[-1]):
        np.add(coeff[..., j, None], basis[..., j, :], out=idx)
        acc *= q
        acc += mul.take(idx)
        add.take(acc, out=idx)
        acc, idx = idx, acc
    return acc


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
        """Whether the point's coordinates add no rank to the basis."""
        v = _coerce_coords(self.space, item)
        _, rank = _rref(self.space.field, [self.rows + (v,)])
        return int(rank[0]) == len(self.rows)

    __contains__ = contains

    def point_ranks(self) -> np.ndarray:
        """Sorted ranks of all points on the subspace; read-only, as a
        subspace may be shared."""
        if self._ranks is None:
            self._ranks = _frozen(np.sort(self.space.points_of(self.rows)))
        return self._ranks

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
        if isinstance(item, (Subspace, PointSet)) and item.space is not space:
            raise DimensionMismatchError(f"{item!r} from a different space")
        if isinstance(item, Subspace):
            rows.extend(item.rows)
        elif isinstance(item, PointSet):
            rows.extend(item.coords().tolist())
        else:
            rows.append(_coerce_coords(space, item))
    if not rows:
        raise EmptyInputError("span of nothing")
    return Subspace(space, rows)


def meet(a: Subspace, b: Subspace):
    """Intersection of two subspaces, or None when it is empty.  The left
    kernel of M = [a.rows; b.rows] is the rows of the RREF of [M | I] that
    vanish on M; their first len(a.rows) entries combine a's rows into
    independent points of the meet, as both bases are independent."""
    if a.space is not b.space:
        raise DimensionMismatchError("subspaces from different spaces")
    field, m, k = a.space.field, a.space.n + 1, len(a.rows) + len(b.rows)
    aug = np.hstack([a.rows + b.rows, np.eye(k, dtype=np.int64)])
    rows = _rref(field, [aug])[0][0]
    ker = rows[~rows[:, :m].any(axis=1), m:m + len(a.rows)]
    if not ker.size:
        return None
    return Subspace(a.space, _combine(field, ker, a.rows).tolist())


class PointSet:
    """An immutable set of points of one space, stored as sorted ranks."""

    __slots__ = ("space", "ranks", "_mask", "_coords")

    def __init__(self, space, ranks):
        self.space = space
        arr = sorted_unique(np.asarray(list(ranks) if not isinstance(
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
            self._coords = _frozen(self.space.coords_of_ranks(self.ranks))
        return self._coords

    def union(self, other: "PointSet") -> "PointSet":
        return PointSet(self.space, np.concatenate((self.ranks, other.ranks)))

    def difference(self, other: "PointSet") -> "PointSet":
        return PointSet(self.space, self.ranks[~np.isin(
            self.ranks, other.ranks, assume_unique=True)])

    def intersection(self, other: "PointSet") -> "PointSet":
        return PointSet(self.space, self.ranks[np.isin(
            self.ranks, other.ranks, assume_unique=True)])

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
        return tuple(self.lift_rows(coeff).tolist())

    def restrict(self, pts: PointSet) -> PointSet:
        inside = pts.ranks[np.isin(pts.ranks, self.subspace.point_ranks(),
                                   assume_unique=True)]
        if inside.size != pts.ranks.size:
            raise BadParamsError(
                f"{pts.ranks.size - inside.size} points lie outside "
                "the chart subspace")
        coords = self.ambient.coords_of_ranks(inside)
        coeff = coords[:, list(self.subspace.pivots)]
        return PointSet(self.small, self.small.ranks_from_rows(coeff))

    def lift_rows(self, coeff: np.ndarray) -> np.ndarray:
        """Ambient vectors of an array of small-space coordinate rows (last
        axis dim+1, any leading shape): the same linear map as
        `to_ambient`, applied with the field tables."""
        return _combine(self.ambient.field, coeff, self.subspace.rows)


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
    u = np.asarray(space.covector_of(hyperplane), dtype=np.int64)[:, None]
    coords = pts.coords()
    # the dot products u.centre and u.R, as combinations of u's entries
    uc = int(_combine(field, c, u)[0])
    ur = _combine(field, coords, u)[:, 0]
    # the image uc R + (-ur) centre, one combination per point
    coeff = np.stack([np.full_like(ur, uc), field.tables()[2][ur]], axis=1)
    basis = np.stack([coords, np.broadcast_to(c, coords.shape)], axis=1)
    img = _combine(field, coeff, basis)
    return PointSet(space, space.ranks_from_rows(img))


class TraceSummary:
    """Intersection counts of one point set against all dim-subspaces.

    Only subspaces that meet the set are held explicitly: slot i has a key
    and a size, everything else is the x_0 count.  A key is a dense index
    in range(total), and the keys ascend: the dual point rank of the
    covector for the hyperplanes of a space with n >= 3, and otherwise the
    place in the `subspaces(dim)` order (see `ProjectiveSpace._cells`),
    which `subspace_bases` decodes: the line rank for lines, 0 for dim = n.

    Every scan hands `_by_point_summary` a row generator of the keys of
    the dim-subspaces through each point, ascending (int32 whenever every
    key fits), and the tail counts them into keys and sizes.  When every
    key occurs (as a blocking set meets the subspaces of its scan), the
    summary is dense: a slot is its key and no keys are stored.
    Otherwise the keys that occur are stored (int64) and the slots are
    their places among them (int32).  The sizes are held in the smallest
    signed type that holds the largest trace, min(m, points of a
    dim-subspace) (int8 for the lines of PG(n, q), q < 127), so the
    difference of two never wraps; compare them with exact integers.

    Keys are read through `keys_of` alone: `bases` turns any selection of
    slots into canonical RREF basis rows, `first_uncovered` unranks the
    first missing key, and `witness_order` orders line slots by their
    bases.  Every scan gives each point the same number of slots, its
    width, so the incidences (a point is its position in the set's rank
    order) form an (m, width) grid of int32 slots, row p holding the
    slots through the point at position p, ascending; no summary keeps
    it.  A summary holds its keys, sizes and one row source, the scan's
    row generator itself: rows(r0, r1) generates the keys through the
    points at positions r0..r1 afresh on each call.  `slot_rows` reads a
    few rows off it, and every reader of all the rows (`point_sizes`,
    `_chart_marks`, the array form of `secants_through`) reads them a
    block at a time (`_slot_blocks`), generating the scan again on each
    pass.  The sizes of the slots, gathered once into an (m, width) grid
    (`point_sizes`), serve every per-point count and the subline checks.
    The points' coordinates are those the set `pts` caches; the points on
    the lines through a point are found per call (`secants_through`).
    All stored arrays are read-only: summaries are cached and shared.
    """

    def __init__(self, pts, dim, keys, sizes, rows):
        self.pts = pts
        self.space = pts.space
        self.dim = dim
        self.total = self.space.num_subspaces(dim)
        self.width = gaussian_binomial(self.space.n, dim, self.space.q)
        # None on a dense summary, whose slots are its keys
        self._keys = None if keys is None else _frozen(keys)
        self.sizes = _frozen(sizes)
        self._rows = rows
        self._counts = {}
        self._point_sizes = None
        self._size_counts = None
        self._uncovered = None

    @property
    def x0(self) -> int:
        return self.total - int(self.sizes.size)

    def size_counts(self) -> tuple:
        """(sizes, counts): the distinct trace sizes of the slots,
        ascending (in the sizes' type, int16 at least), and how many slots
        have each (intp).  Computed once, a bincount over each block of
        `_SCAN_BLOCK_BYTES` / 8 sizes (every size is at least 1); the
        arrays are read-only."""
        if self._size_counts is None:
            with _TRACE_LOCK:
                if self._size_counts is None:
                    sizes, step = self.sizes, _block_items(8)
                    cnts = np.zeros(int(sizes.max()) + 1, dtype=np.intp)
                    for b in range(0, sizes.size, step):
                        cnts += np.bincount(sizes[b:b + step],
                                            minlength=cnts.size)
                    vals = np.flatnonzero(cnts).astype(
                        np.promote_types(sizes.dtype, np.int16))
                    self._size_counts = (_frozen(vals), _frozen(cnts[vals]))
        return self._size_counts

    def spectrum(self) -> dict:
        """Counts {trace size: number of dim-subspaces}, including 0."""
        out = {}
        if self.x0:
            out[0] = self.x0
        for v, c in zip(*self.size_counts()):
            out[int(v)] = int(c)
        return out

    def slot_rows(self, r0: int, r1: int) -> np.ndarray:
        """The int32 slots through the points at positions r0..r1, read
        off the row source under the summary lock; read-only."""
        if not 0 <= r0 < r1 <= len(self.pts):
            raise RangeError(f"point positions {r0}..{r1} out of range")
        with _TRACE_LOCK:
            keys = self._rows(r0, r1)
        return _frozen(self._slots_of(keys))

    def _slots_of(self, keys) -> np.ndarray:
        """The int32 slots of keys that occur: on a dense summary the
        keys themselves, else their places among the stored keys, one
        search."""
        if self._keys is None:
            return keys.astype(np.int32, copy=False)
        return np.searchsorted(self._keys, keys).astype(np.int32)

    def _slot_blocks(self):
        """Yield (r0, keys) over the whole set: the keys through the rows
        r0.. of each block of `_SCAN_BLOCK_BYTES` / (8 * width) rows (one
        at least), read off the row source under the summary lock, so
        that a reader maps only the keys it reads to slots
        (`_slots_of`)."""
        m = len(self.pts)
        rows = _block_items(8 * self.width)
        for r0 in range(0, m, rows):
            with _TRACE_LOCK:
                block = self._rows(r0, min(r0 + rows, m))
            yield r0, block

    def _check_slots(self, sel: np.ndarray):
        if sel.size and not 0 <= sel.min() <= sel.max() < self.sizes.size:
            raise RangeError("trace slot out of range")

    def secants_through(self, pos, size) -> tuple:
        """(slots, points) for the lines through the point at position pos
        whose traces have `size` points: the slots ascending (the scan
        order), and a (len(slots), size) int32 grid whose row i holds the
        point positions on line slots[i], ascending; for an array of
        positions, (owner, slots, points), the rows grouped by owner (the
        int32 index into pos) ascending.  Line summaries only.

        A bounded block at a time: one point reads its own row
        (`slot_rows`), decodes its lines (`bases`) and ranks their points
        (`points_of`); the array form finds the chosen lines' incidences
        in `point_sizes`, reads their keys off the row source a block of
        rows at a time (`_slot_blocks`) and maps only those to slots, and
        one stable argsort of their slots lists each line's points
        once."""
        if self.dim != 1:
            raise DimensionMismatchError(
                f"secants through a point need a line summary, not dim "
                f"{self.dim}")
        at = np.asarray(pos, dtype=np.int64).reshape(-1)
        space, m, width = self.space, len(self.pts), max(size, 0)
        if at.size and not 0 <= at.min() <= at.max() < m:
            raise RangeError(f"point position {pos} out of range")
        if np.ndim(pos) == 0:
            row = self.slot_rows(int(pos), int(pos) + 1)[0]
            slots = row[self.sizes[row] == size]
            points = np.empty((slots.size, width), dtype=np.int32)
            step = _block_items(8 * (space.q + 1) * (space.n + 1))
            for b in range(0, slots.size, step):
                on = np.sort(space.points_of(self.bases(slots[b:b + step])))
                points[b:b + step] = np.searchsorted(
                    self.pts.ranks, on[self.pts.mask()[on]]).reshape(-1, width)
            return slots, points
        per = max(width, 1)
        sizes, count, on = self.point_sizes(), np.empty(m, np.int64), []
        for r0, keys in self._slot_blocks():
            hit = sizes[r0:r0 + len(keys)] == size
            count[r0:r0 + len(keys)] = np.count_nonzero(hit, axis=1)
            on.append(self._slots_of(keys[hit]))
        on = np.concatenate(on)
        order = np.argsort(on, kind="stable")
        lines = on[order[::per]]
        members = np.repeat(np.arange(m, dtype=np.int32), count)[order] \
            .reshape(lines.size, width)
        del order
        # row r, of owner a, is incidence r + skip[a], one of point at[a]
        want = count[at]
        owner = np.repeat(np.arange(at.size, dtype=np.int32), want)
        skip = (np.cumsum(count) - count)[at] - (np.cumsum(want) - want)
        slots = np.empty(owner.size, dtype=np.int32)
        points = np.empty((owner.size, width), dtype=np.int32)
        step = _block_items(8 * (width + 3))
        for b in range(0, owner.size, step):
            got = slots[b:b + step] = on[skip[owner[b:b + step]] + np.arange(
                b, min(b + step, owner.size))]
            points[b:b + step] = members[np.searchsorted(lines, got)]
        return owner, slots, points

    def _sized_slots(self, lo: int, hi: int) -> np.ndarray:
        """The slots whose traces have lo..hi points, ascending (int64),
        found a block of `_SCAN_BLOCK_BYTES` / 8 slots at a time."""
        sizes, step = self.sizes, _block_items(8)
        found = [np.flatnonzero((sizes[b:b + step] >= lo)
                                & (sizes[b:b + step] <= hi)) + b
                 for b in range(0, sizes.size, step)]
        return np.concatenate(found)

    def _chart_marks(self, lo: int, hi: int) -> tuple:
        """(sel, words) for the lines of a line summary whose traces have
        lo..hi points: their slots, ascending, and a (len(sel), w) uint64
        array, w = ceil((q+1) / 64), whose row i has bit c % 64 of word
        c // 64 set for each chart position c (the PG(1, q) rank of the
        coordinates at the line's two pivot columns) of the set's points
        on line sel[i]: the layout of `linearsets._bitmasks`.

        One pass over the rows, read off the row source a block at a
        time (`_slot_blocks`): a compare of the block's sizes
        (`point_sizes`) finds the incidences of the selected lines, and,
        a bounded run of them at a time (64 bytes of temporaries per
        incidence, a row's worth at least), a hit's slot gives its row,
        and `np.add.at` sets its bit (an exact OR: a point lies on a
        line once).  P's chart position per column block is read off
        `_scan_lines`' layout."""
        space = self.space
        n, q = space.n, space.q
        grid, width = self.point_sizes(), self.width
        sel = self._sized_slots(lo, hi)
        # a selected slot's place in sel: the place of the first selected
        # slot of its 64-slot word, plus a masked popcount of the word
        word = sel >> 6
        bits = np.left_shift(np.uint64(1), (sel & 63).astype(np.uint64))
        first = np.flatnonzero(np.diff(word, prepend=-1))
        taken = np.zeros(-(-self.sizes.size // 64), dtype=np.uint64)
        below = np.zeros(taken.size, dtype=np.int64)
        if sel.size:
            taken[word[first]] = np.bitwise_or.reduceat(bits, first)
            below[word[first]] = first
        del word, bits, first
        # the word and bit of P's chart position on the lines of column
        # block j, at p * n + j, and block[c]: the column block of column
        # c, blocks j = n-1, ..., 0
        coords = self.pts.coords()
        lead = (coords != 0).argmax(axis=1)
        j = np.arange(n)
        chart = np.where(j < lead[:, None], 0, 1 + coords[:, 1:]).reshape(-1)
        nwords = -(-(q + 1) // 64)
        at_word = chart >> 6
        at_bit = np.left_shift(np.uint64(1), (chart & 63).astype(np.uint64))
        block = np.repeat(j[::-1], q ** j)
        # a run of hits as long as a block of rows at 64 bytes per entry
        step = width * _block_items(64 * width)
        words = np.zeros((sel.size, nwords), dtype=np.uint64)
        for r0, keys in self._slot_blocks():
            sizes = grid[r0:r0 + len(keys)]
            hits = np.flatnonzero((sizes >= lo) & (sizes <= hi))
            for h0 in range(0, hits.size, step):
                hit = hits[h0:h0 + step]
                at = self._slots_of(keys.reshape(-1)[hit]).astype(np.int64)
                low = (np.uint64(1) << (at & 63).astype(np.uint64)) \
                    - np.uint64(1)
                at >>= 6
                li = below[at] + np.bitwise_count(taken[at] & low)
                pt, col = np.divmod(hit, width)
                cell = (pt + r0) * n + block[col]
                np.add.at(words.reshape(-1), li * nwords + at_word[cell],
                          at_bit[cell])
        return sel, words

    def indices_through_point(self, pt_pos: int) -> np.ndarray:
        return self.slot_rows(pt_pos, pt_pos + 1)[0]

    def point_sizes(self) -> np.ndarray:
        """The (points, width) grid of the trace sizes of the slots through
        each point, row p those of `slot_rows(p, p + 1)`, in the narrowest
        signed type that holds the largest size; read-only.  Gathered
        once, a block of rows at a time (`_slot_blocks`), from a copy of
        the sizes in that type, which stays closer to the cache."""
        if self._point_sizes is None:
            with _TRACE_LOCK:
                if self._point_sizes is None:
                    narrow = self.sizes.astype(
                        _size_dtype(int(self.sizes.max())), copy=False)
                    grid = np.empty((len(self.pts), self.width),
                                    dtype=narrow.dtype)
                    for r0, keys in self._slot_blocks():
                        np.take(narrow, self._slots_of(keys),
                                out=grid[r0:r0 + len(keys)])
                    del narrow
                    self._point_sizes = _frozen(grid)
        return self._point_sizes

    def per_point_counts(self, min_size=2, exact=None) -> np.ndarray:
        """For each point of the set (in rank order): how many dim-subspaces
        through it have trace >= min_size (or == exact), counted along the
        rows of `point_sizes`, a block of `_SCAN_BLOCK_BYTES` / 8 entries
        at a time.  Cached per arguments; the result is read-only."""
        got = self._counts.get((min_size, exact))
        if got is None:
            with _TRACE_LOCK:
                got = self._counts.get((min_size, exact))
                if got is None:
                    grid = self.point_sizes()
                    got = np.empty(grid.shape[0], dtype=np.int64)
                    step = _block_items(8 * grid.shape[1])
                    for r in range(0, grid.shape[0], step):
                        block = grid[r:r + step]
                        keep = block == exact if exact is not None \
                            else block >= min_size
                        np.sum(keep, axis=1, out=got[r:r + step])
                    self._counts[(min_size, exact)] = _frozen(got)
        return got

    def keys_of(self, sel) -> np.ndarray:
        """The keys (int64) of the slots in sel (an index array); on a
        dense summary a slot is its key."""
        sel = np.asarray(sel, dtype=np.int64).reshape(-1)
        self._check_slots(sel)
        return sel if self._keys is None else self._keys[sel]

    def sizes_of(self, keys) -> np.ndarray:
        """Trace sizes of an array of keys in range(total), any shape: a
        key that no slot holds (a subspace missing the set) has size 0.  On
        a dense summary a key is its slot; otherwise one searchsorted into
        the stored keys finds it."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size and not 0 <= keys.min() <= keys.max() < self.total:
            raise RangeError("subspace key out of range")
        if self._keys is None:
            return self.sizes[keys]
        at = np.searchsorted(self._keys, keys)
        hit = at < self._keys.size
        hit[hit] = self._keys[at[hit]] == keys[hit]
        out = np.zeros(keys.shape, dtype=self.sizes.dtype)
        out[hit] = self.sizes[at[hit]]
        return out

    def bases(self, sel) -> np.ndarray:
        """Canonical RREF bases of the slots in sel (an index array), shape
        (len(sel), dim+1, n+1), the rows `Subspace` would hold."""
        return self._decode(self.keys_of(sel))

    def _decode(self, keys: np.ndarray) -> np.ndarray:
        space, dim = self.space, self.dim
        if dim == space.n - 1 > 1:
            return space._hyperplane_rows(space.coords_of_ranks(keys))
        return space.subspace_bases(dim, keys)

    def subspace_at(self, idx: int) -> Subspace:
        return _canonical(self.space, self.bases([idx]))[0]

    def first_uncovered(self):
        """The dim-subspace with the smallest key among those that miss
        the set, or None when every one meets it (x0 = 0).  The keys are
        dense and ascend, so keys[i] - i never falls and that key is the
        first i where it is positive; with x0 > 0 fewer than `total` keys
        occur, so it is below `total`.  The key is found once per
        summary."""
        if not self.x0:
            return None
        if self._uncovered is None:
            with _TRACE_LOCK:
                if self._uncovered is None:
                    at = np.arange(self.sizes.size)
                    self._uncovered = int(np.searchsorted(
                        self.keys_of(at) - at, 0, side="right"))
        return _canonical(self.space,
                          self._decode(np.asarray([self._uncovered])))[0]

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


def _scan_lines(space, pts: PointSet) -> TraceSummary:
    """Traces of all lines meeting the set, by enumerating per point the
    lines through it (each meeting line is hit once per contained point),
    keyed by line rank, the place in the `subspaces(1)` order.  The lines
    through P are P w for the points w of PG(n-1, q) placed in the columns
    other than P's lead l, in rank order, which lists each lead lw of w as
    a C-order grid of its free digits, in one cell of `_cells(1)`: the
    basis is (w, P) in cell (lw, l) when lw < l, and (P - P_lw w, w) in
    cell (l, lw) when lw > l.  The blocks come in cell order, and w's
    digits are the most significant that vary within one, so each point's
    ranks ascend.

    Layout contract, which `TraceSummary._chart_marks` and the tile count
    `_line_tile_counts` read: P's row lists the column blocks j = n-1,
    ..., 0 of q^(n-1-j) entries each, block j holding the lines P w with
    lead(w) = j (in PG(n-1, q)'s columns).  In the coefficient chart of
    such a line (P's coordinates at its two pivot columns) P is the
    PG(1, q) point (0 : 1), rank 0, when j < l, and (1 : P_(j+1)), rank
    1 + P_(j+1), when j >= l.  The keys follow from the cell's odometer,
    whose first row's digits are the least significant:

    - (a) runs: for j < l, P is the line's second basis row, and block j
      holds one run of q^(n-1-j) consecutive keys, P's numeral in cell
      (j, l) times q^(n-1-j) on from the cell's first key;
    - (b) windows: for j >= l, column c of block j holds a line of cell
      (l, j+1) whose key lies in [starts + c R, starts + (c+1) R), with
      starts that cell's first key and R = q^(n-l-1); every point of
      lead l on a line sees it in the same column, that of w's digits.

    The scan is a row generator over the point positions r0..r1 on the
    kernels the tile count shares, `_line_runs` and `_line_tiles`, whose
    one tile is a whole block j >= l of a block of rows with at most
    _SCAN_BLOCK_BYTES of temporaries (one row at least).  The scan hands
    the tail that tile count, `_line_tile_counts`, as its own counter."""
    n, q, coords = space.n, space.q, pts.coords()
    lead = (coords != 0).argmax(axis=1)
    npar, total = (q ** n - 1) // (q - 1), space.num_subspaces(1)
    dtype = _rank_dtype(total)

    def ranks_of(r0, r1):
        ranks = np.empty((r1 - r0, npar), dtype=dtype)
        for l in range(n + 1):
            # the ranks ascend, so the points of one lead are contiguous
            rows = np.flatnonzero(lead[r0:r1] == l)
            if not rows.size:
                continue
            grp = slice(rows[0], rows[-1] + 1)
            p = coords[r0:r1][grp]
            start = 0
            for j in range(n - 1, -1, -1):
                size = q ** (n - 1 - j)
                out = ranks[grp, start:start + size]
                start += size
                if j < l:
                    np.add(_line_runs(space, p, l, j).astype(dtype)[:, None],
                           np.arange(size, dtype=dtype), out=out)
                    continue
                step = _block_items(8 * size)
                for b in range(0, p.shape[0], step):
                    next(_line_tiles(space, p[b:b + step], l, j, n - 1 - j,
                                     out[b:b + step]))
        return ranks

    return _by_point_summary(space, 1, pts, ranks_of, total,
                             _line_tile_counts)


def _line_runs(space, p, l, j) -> np.ndarray:
    """The first keys (int64) of block j < l's runs (fact (a)), rows p."""
    starts, _, weights = space._cell_table(1)
    at = space._line_cell_at()[j, l]
    return p @ weights[at, 1] + starts[at]


def _line_tiles(space, p, l, j, t, out):
    """Write the keys of block j >= l of the rows p, all of lead l, into
    out, a (len(p), q^t) array in the rank dtype, a tile at a time, and
    yield after each the first key of its window (fact (b)): tile b holds
    the block's columns b q^t .. (b+1) q^t - 1.  The first basis row holds
    P_c - P_lw w_c at each c > lw = j + 1, so a key is a per-row constant
    plus a term per digit w_c: a tile gathers those of its fixed digits
    and broadcasts the last t as per-row q-vectors, in out's dtype (the
    partial sums of a key are at most the key); the tables are read flat,
    as in `_combine`."""
    add, mul, neg, _ = (a.ravel() for a in space.field.tables())
    n, q, lw = space.n, space.q, j + 1
    starts, _, weights = space._cell_table(1)
    at = space._line_cell_at()[l, lw]
    w0, w1 = weights[at]
    digits = np.arange(q, dtype=np.int64)
    scale = neg.take(p[:, lw]) * q      # -P_lw, a row of the flat tables
    base = p[:, :lw] @ w0[:lw] + starts[at]
    shift = mul.take(scale[:, None] + digits) if t else None
    # a tile of one column (t = 0) adds no digit to its constants
    lasts = [(add.take(p[:, c, None] * q + shift) * w0[c]
              + digits * w1[c]).astype(out.dtype)
             for c in range(n - t + 1, n + 1)] \
        or [np.zeros((len(p), 1), out.dtype)]
    for b in range(q ** (n - lw - t)):
        acc = base.copy()
        # b's digits, at columns lw+1..n-t, the first most significant
        for c in range(lw + 1, n - t + 1):
            d = b // q ** (n - t - c) % q
            acc += add.take(p[:, c] * q + mul.take(scale + d)) * w0[c] \
                + d * w1[c]
        acc = acc.astype(out.dtype)[:, None]
        for last in lasts[:-1]:
            acc = (acc[:, :, None] + last[:, None, :]).reshape(len(p), -1)
        # a view: only the contiguous last axis is split
        np.add(acc[:, :, None], lasts[-1][:, None, :],
               out=out.reshape(len(p), -1, lasts[-1].shape[1]))
        yield int(starts[at]) + b * q ** (t + n - l - 1)


def _scan_hyperplanes(space, pts: PointSet) -> TraceSummary:
    """Traces of all hyperplanes meeting the set, via the covectors through
    each point (a hyperplane through s points contributes s incidences).

    With z the last nonzero column of P, the covectors u with u . P = 0
    have the RREF basis e_j - (P_j / P_z) e_z, j != z, and the combinations
    a B for the points a of PG(n-1, q) are already normalized: u equals a
    in the columns other than z, and u_z = -sum over j < z of a_j P_j / P_z.
    So a dual rank is the rank of a placed around column z, a constant per
    (z, a), plus u_z q^(n-z).  Over a lead block of a, u_z depends only on
    the free digits before column z, so it is one outer add over them.
    The scan is a row generator over the point positions r0..r1, which
    builds the points of each z a bounded block of rows at a time, each
    block in its own buffer, copied into place once.  The tables are read
    flat, at a * q + b, as in `_combine`."""
    add, mul, neg, inv = (t.ravel() for t in space.field.tables())
    n, q = space.n, space.q
    coords = pts.coords()
    last = n - (coords[:, ::-1] != 0).argmax(axis=1)
    dual = ProjectiveSpace(n, space.field)
    params = ProjectiveSpace(n - 1, space.field).coords_array()
    npar = params.shape[0]
    digits = np.arange(q, dtype=np.int64)
    dtype = _rank_dtype(dual.num_points)
    # per last column z of the set, the dual ranks of a placed around z
    bases = {z: dual.ranks_from_rows(np.insert(params, z, 0, axis=1),
                                     normalized=True).astype(dtype)
             for z in sorted_unique(last).tolist()}
    # a u_z lookup's flat int64 index and its int64 result are live at
    # once, 16 bytes per entry of a block
    step = _block_items(16 * npar)

    def ranks_of(r0, r1):
        ranks = np.empty((r1 - r0, npar), dtype=dtype)
        for z, base in bases.items():
            group = np.flatnonzero(last[r0:r1] == z)
            for g0 in range(0, group.size, step):
                rows = group[g0:g0 + step]
                p = coords[r0 + rows]
                # coef[:, i] = -P_i / P_z: a_i's share of u_z, for i < z
                coef = neg.take(mul.take(p[:, :z] * q
                                         + inv.take(p[:, z])[:, None]))
                buf = np.empty((rows.size, npar), dtype=dtype)
                start = 0
                for i0 in range(n - 1, -1, -1):
                    size = q ** (n - 1 - i0)
                    block = slice(start, start + size)
                    start += size
                    if i0 >= z:
                        buf[:, block] = base[block]
                        continue
                    # u_z over the digits i0 < i < z of a (a_i0 = 1); the
                    # later digits repeat each value q^(n-z) times
                    uz = coef[:, i0, None]
                    for i in range(i0 + 1, z):
                        uz = add.take(uz[:, :, None] * q + mul.take(
                            digits * q + coef[:, i, None])[:, None, :]) \
                            .reshape(rows.size, -1)
                    if z < n:
                        uz = uz * q ** (n - z)
                    # a view: only the block's contiguous last axis is split
                    np.add(uz[:, :, None],
                           base[block].reshape(-1, q ** (n - z)),
                           out=buf[:, block].reshape(rows.size, -1,
                                                     q ** (n - z)))
                ranks[rows] = buf
        return ranks

    # each point's ranks ascend: the rank orders covectors by their columns
    # lexicographically, u_z is a function of the columns before z, and
    # PG(n-1, q) lists a in the lexicographic order of the other columns
    return _by_point_summary(space, n - 1, pts, ranks_of, dual.num_points)


def _rank_dtype(total: int):
    """The dtype of a scan's keys in range(total): int32 whenever they fit."""
    return np.int32 if total < 2 ** 31 else np.int64


def _size_dtype(m: int):
    """The smallest signed integer type that holds m, the largest trace
    size of a summary; signed, so that a difference cannot wrap."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64)
                if m <= np.iinfo(t).max)


def _by_point_summary(space, dim, pts, ranks_of, total,
                      tiles=None) -> TraceSummary:
    """The summary of a per-point scan, given as its row generator:
    ranks_of(r0, r1), 0 <= r0 < r1 <= m, returns a fresh (r1 - r0, width)
    array, the caller's to change, whose row p - r0 holds the dense keys
    in range(total) of the dim-subspaces through the point at position
    p, ascending.  A block is `_SCAN_BLOCK_BYTES` / (8 * width) rows, one
    at least.  The sizes take the smallest signed type that holds
    min(m, points of a dim-subspace).  The tail only counts, and hands
    the summary its keys (none when every key occurs: a slot is then its
    key), sizes and ranks_of, its one row source, off which the
    summary's readers generate every row they need.  Two regimes, named
    by `_grouping_regime`:

    - "counted": one count over the key range in the sizes' type, by the
      scan's own tile counter, tiles(space, pts, total, sizes_type) ->
      (keys, sizes), where it has one (`_line_tile_counts`), and
      otherwise a bincount of each generated block added into it; its
      nonzero entries are the keys;
    - "sorted": the whole scan is generated once, sorted in place, its
      runs counted block by block straight into the sizes, and dropped."""
    m = len(pts)
    width = gaussian_binomial(space.n, dim, space.q)
    sizes_type = _size_dtype(min(m, gaussian_binomial(dim + 1, 1, space.q)))
    if _grouping_regime(m * width, total, sizes_type, tiles) == "sorted":
        srt = ranks_of(0, m).reshape(-1)
        srt.sort()
        keys, sizes = _sorted_runs(srt, total, sizes_type)
    elif tiles is not None:
        keys, sizes = tiles(space, pts, total, sizes_type)
    else:
        rows = _block_items(8 * width)
        counts = np.zeros(total, dtype=sizes_type)
        # one intp buffer holds each block's bincount input in turn
        flat = np.empty(min(m, rows) * width, dtype=np.intp)
        for r0 in range(0, m, rows):
            block = flat[:(min(r0 + rows, m) - r0) * width]
            np.copyto(block, ranks_of(r0, min(r0 + rows, m)).reshape(-1))
            counts += np.bincount(block, minlength=total)
        keys, sizes = _counted_keys(counts)
    return TraceSummary(pts, dim, keys, sizes, ranks_of)


def _grouping_regime(incidences, total, sizes_type, tiles) -> str:
    """How `_by_point_summary` groups a scan's incidences over total keys:
    "counted" when a count array over the key range in the sizes' type is
    no larger than the sorted copy of the keys it replaces (int32, int64
    when the keys need it) and, for a scan without its own tile counter,
    the int64 bincount of a block, 8 * total bytes, is at most
    `_COUNT_BYTES`; "sorted" otherwise (a key range too large to pass
    over, or a small set whose incidences such a pass would dwarf)."""
    if np.dtype(sizes_type).itemsize * total \
            <= np.dtype(_rank_dtype(total)).itemsize * incidences \
            and (tiles is not None or 8 * total <= _COUNT_BYTES):
        return "counted"
    return "sorted"


def _counted_keys(counts) -> tuple:
    """(keys, sizes) of a count over the whole key range: the keys of the
    nonzero counts (int64), None when every key occurs, and their counts
    (counts itself when every key occurs)."""
    if np.count_nonzero(counts) == counts.size:
        return None, counts
    keys = np.flatnonzero(counts)
    return keys, counts[keys]


def _line_tile_counts(space, pts, total, sizes_type) -> tuple:
    """(keys, sizes) of the line scan of pts, counted into one count in
    sizes_type as it is generated, with no sort and nothing of incidence
    length kept, by facts (a) and (b) of `_scan_lines`: a run adds 1 to a
    slice, and a tile (`_line_tiles`) of q^t whole trailing-digit columns
    of lead l's rows, t the largest whose window of q^t q^(n-l-1) keys
    holds at most `_SCAN_BLOCK_BYTES` / 8 (0 at least), goes into one
    reused buffer and is counted at once, one bincount added into its
    window; fewer rows make a tile only if its intp offsets need it."""
    n, q, coords = space.n, space.q, pts.coords()
    lead = (coords != 0).argmax(axis=1)
    counts = np.zeros(total, dtype=sizes_type)
    keys_per = _block_items(8)
    for l in range(n + 1):
        p = coords[lead == l]
        if not len(p):
            continue
        for j in range(n - 1, -1, -1):
            size = q ** (n - 1 - j)
            if j < l:
                for first in _line_runs(space, p, l, j).tolist():
                    counts[first:first + size] += 1
                continue
            span = q ** (n - l - 1)
            t = max([0] + [t for t in range(1, n - j)
                           if q ** t * span <= keys_per])
            cols, step = q ** t, max(1, keys_per // q ** t)
            buf = np.empty((min(step, len(p)), cols), _rank_dtype(total))
            offsets = np.empty(buf.shape, dtype=np.intp)
            for r0 in range(0, len(p), step):
                tile, out = buf[:len(p) - r0], offsets[:len(p) - r0]
                for lo in _line_tiles(space, p[r0:r0 + step], l, j, t, tile):
                    window = counts[lo:lo + cols * span]
                    np.subtract(tile, lo, out=out, dtype=np.intp)
                    window += np.bincount(out.reshape(-1),
                                          minlength=window.size)
    return _counted_keys(counts)


def _sorted_runs(srt, total, sizes_type) -> tuple:
    """(keys, sizes) of the runs of the sorted keys srt: the distinct keys
    (int64), None when they are the whole of range(total), and the length
    of each run in sizes_type.  Two passes of `_SCAN_BLOCK_BYTES` / 8
    entries each: one counts the runs, one fills the arrays."""
    step = _block_items(8)

    def boundaries(b):
        # the positions i > 0 in the block at b where a new run starts
        lo, hi = max(b, 1), min(b + step, srt.size)
        out = np.flatnonzero(srt[lo:hi] != srt[lo - 1:hi - 1])
        out += lo
        return out

    blocks = range(0, srt.size, step)
    nkeys = 1 + sum(boundaries(b).size for b in blocks)
    keys = None if nkeys == total else np.empty(nkeys, dtype=np.int64)
    sizes = np.empty(nkeys, dtype=sizes_type)
    if keys is not None:
        keys[0] = srt[0]
    # run j starts at the boundary before it (0 for the first) and ends at
    # its own boundary (the end of srt for the last)
    j, start = 0, 0
    for b in blocks:
        ends = boundaries(b)
        if ends.size:
            if keys is not None:
                keys[j + 1:j + 1 + ends.size] = srt[ends]
            sizes[j] = ends[0] - start
            np.subtract(ends[1:], ends[:-1],
                        out=sizes[j + 1:j + ends.size], casting="unsafe")
            j, start = j + ends.size, ends[-1]
        # one block's boundaries are live at a time
        del ends
    sizes[j] = srt.size - start
    return keys, sizes


def _scan_full(space, pts: PointSet, dim: int) -> TraceSummary:
    """Traces of all dim-subspaces meeting the set, read off the rows of
    the cached incidence table at the set's points (middle dimensions),
    gathered a block of rows per call of the row generator."""
    table = space.incidence(dim)
    return _by_point_summary(space, dim, pts,
                             lambda r0, r1: table[pts.ranks[r0:r1]],
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
        return _by_point_summary(space, dim, pts, lambda r0, r1: np.zeros(
            (r1 - r0, 1), dtype=np.int32), 1)
    if dim == 1:
        return _scan_lines(space, pts)
    if dim == space.n - 1:
        return _scan_hyperplanes(space, pts)
    if space._incidence_ok(dim):
        return _scan_full(space, pts, dim)
    raise TooLargeError(
        f"no feasible scan for dim {dim} traces in {space!r}")

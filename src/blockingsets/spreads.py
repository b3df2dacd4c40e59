"""Field reduction between PG(n, p^h) and PG(h(n+1)-1, p).

A point of the big space, i.e. a line of GF(p^h)^(n+1), becomes an
(h-1)-dimensional projective subspace of the small space once every big
coordinate is expanded into its h polynomial-basis coefficients (which are
exactly the base-p digits of the element code).  The family of all these
subspaces is a spread: it partitions the small-side points.  Going the other
way, a small-side subspace pi picks out the big-side point set of all spread
elements it touches.

The spread is cached eagerly as two integer arrays (big rank -> sorted small
ranks of its element, small rank -> big rank), since those lookups sit inside
the reconstruction inner loop.  They are built in closed form: the element of
a normalized big point v is {lambda*v}, lambda running over the codes whose
first nonzero base-p digit is 1 (one per coset of GF(p)* in GF(p^h)*), and
each such lambda*v blows up to an already normalized small row.  So each
representative costs one flat table lookup per big column, in a table of
the representatives' scaled digit numerals composed once, with no row
normalization (Lavrauw-Van de Voorde, Field reduction and linear sets in
finite geometry, 2015).  A point rank outside the space is a RangeError.
"""

from __future__ import annotations

import numpy as np

from ._cache import locked_cache
from .errors import (
    BadParamsError,
    DimensionMismatchError,
    NotASublineError,
    RangeError,
    SpecMismatchError,
    TooLargeError,
    XNotOnElementError,
)
from .projspace import (
    PointSet,
    ProjectiveSpace,
    Subspace,
    _canonical,
    _coerce_coords,
    sorted_unique,
)

_SMALL_SIDE_CAP = 4_000_000


class SpreadContext:
    """The spread correspondence for one big space PG(n, p^h)."""

    def __init__(self, big: ProjectiveSpace):
        field = big.field
        self.big = big
        self.p0 = field.p
        self.h = field.t
        self.small_field = field.subfield(1) if field.t > 1 else field
        self.small = ProjectiveSpace(self.h * (big.n + 1) - 1,
                                     self.small_field)
        if self.small.num_points > _SMALL_SIDE_CAP:
            raise TooLargeError(
                f"small side has {self.small.num_points} points, "
                f"cap is {_SMALL_SIDE_CAP}")
        self.points_per_element = (self.p0 ** self.h - 1) // (self.p0 - 1)
        self._build_cache()

    def __repr__(self):
        return f"SpreadContext({self.big!r} -> {self.small!r})"

    # -- coordinate maps ------------------------------------------------------

    def blow_up_vector(self, big_coords) -> tuple:
        """Expand each GF(p^h) coordinate into its h base-p digits."""
        p0, h = self.p0, self.h
        out = []
        for c in big_coords:
            c = int(c)
            for _ in range(h):
                c, d = divmod(c, p0)
                out.append(d)
        return tuple(out)

    def _element_rows(self, v) -> list:
        """The blow-ups of v, x v, ..., x^(h-1) v: h small-side rows that
        span the spread element of the big vector v."""
        field = self.big.field
        xcode = field.x if self.h > 1 else 1
        rows = []
        for _ in range(self.h):
            rows.append(self.blow_up_vector(v))
            v = tuple(field.mul(xcode, c) for c in v)
        return rows

    # -- cache ----------------------------------------------------------------

    def _build_cache(self):
        # The element of a big point v holds the small points of lambda*v,
        # lambda in GF(q)*, and lambda matters only modulo GF(p0)*.  Scaling
        # by GF(p0)* scales every base-p0 digit alike, so the codes whose
        # first nonzero digit (least significant first) is 1 are one
        # representative per coset.  With v normalized, lambda*v blows up to
        # an already normalized small row: zero before small column
        # h*lead(v), then the digits of lambda.  Its small lead is
        # h*lead(v) + first_nonzero_digit(lambda), and its rank is
        # weight[lambda*v] @ block + offs[lead] - powers[lead], where
        # weight[c] reads c's digits as a base-p0 numeral in small-column
        # order and block[j] = p0^(h(n-j)) is the place of big column j.
        # Composed once, placed[j, i, c] = weight[reps[i] * c] * block[j]:
        # each representative's rank is one flat take per big column.
        # `_blown_ranks` is the same rank for any nonzero big vector.
        big, small = self.big, self.small
        p0, h, n = self.p0, self.h, big.n
        nbig = big.num_points
        per = self.points_per_element
        _, mul, _, inv = big.field.tables()
        codes = np.arange(big.q, dtype=np.int64)
        digits = codes[:, None] // p0 ** np.arange(h) % p0
        weight = digits @ p0 ** np.arange(h - 1, -1, -1)
        first = (digits != 0).argmax(axis=1)
        reps = np.flatnonzero(digits[codes, first] == 1)
        if reps.size != per:
            raise SpecMismatchError(
                f"spread cache: {reps.size} coset representatives, "
                f"expected {per}")
        coords = big.coords_array()
        big_lead = h * (coords != 0).argmax(axis=1)
        block = p0 ** (h * (n - np.arange(n + 1, dtype=np.int64)))
        offs = np.asarray(small._offsets, dtype=np.int64)
        powers = np.asarray(small._powers, dtype=np.int64)
        start = offs - powers
        # the inverse in GF(p0) of each code's first nonzero digit
        unit = inv[digits[codes, first]]
        self._blow_tables = (weight, first, unit, block, start)
        self._reps = reps
        placed = weight[mul[reps]] * block[:, None, None]
        columns = np.ascontiguousarray(coords.T)
        # small ranks are below _SMALL_SIDE_CAP: int32 holds them
        ranks = np.empty((nbig, per), dtype=np.int32)
        for i, lam in enumerate(reps):
            acc = start[big_lead + first[lam]]
            for j in range(n + 1):
                acc += placed[j, i].take(columns[j])
            ranks[:, i] = acc
        del columns, acc
        ranks.sort(axis=1)
        if not (ranks[:, 1:] != ranks[:, :-1]).all():
            raise SpecMismatchError("spread cache: an element repeats a point")
        self.big_to_small = ranks
        flat = ranks.reshape(-1)
        if flat.size != small.num_points:
            raise SpecMismatchError("spread does not cover the small side")
        s2b = np.full(small.num_points, -1, dtype=np.int32)
        s2b[flat] = np.repeat(np.arange(nbig, dtype=np.int32), per)
        if (s2b < 0).any():
            raise SpecMismatchError("spread does not partition the small side")
        self.small_to_big = s2b
        # shared per space through spread_context: keep them read-only
        for arr in (self.big_to_small, s2b, reps, *self._blow_tables):
            arr.flags.writeable = False

    def _blown_ranks(self, vecs) -> np.ndarray:
        """Small ranks of the blow-ups of an array of nonzero big vectors
        (last axis n+1, not necessarily normalized).  The blow-up of w
        leads at small column h*lead(w) + first[c], c = w[lead(w)], with
        c's first nonzero digit there; w scaled by that digit's inverse in
        GF(p0) blows up to the normalized row, ranked as in
        _build_cache, every table read flat."""
        mul = self.big.field.tables()[1].ravel()
        weight, first, unit, block, start = self._blow_tables
        lead = (vecs != 0).argmax(axis=-1)
        c = np.take_along_axis(vecs, lead[..., None], axis=-1)
        return weight.take(mul.take(vecs * self.big.q + unit.take(c))) \
            @ block + start.take(self.h * lead + first.take(c[..., 0]))

    # -- spread queries --------------------------------------------------------

    def element_ranks(self, big_rank: int) -> np.ndarray:
        # numpy would wrap a negative rank round to the end of the cache
        r = int(big_rank)
        if not 0 <= r < self.big.num_points:
            raise RangeError(f"point rank {r} out of range for {self.big!r}")
        return self.big_to_small[r]

    def spread_element(self, point) -> Subspace:
        """S(P): the small-side (h-1)-space of a big-side point."""
        sub = Subspace(self.small,
                       self._element_rows(_coerce_coords(self.big, point)))
        if sub.dim != self.h - 1:
            raise SpecMismatchError("spread element has the wrong dimension")
        return sub

    def linear_set_of(self, pi: Subspace) -> PointSet:
        """B(pi): big-side points whose spread elements meet pi."""
        if pi.space is not self.small:
            raise DimensionMismatchError("subspace not on the small side")
        return PointSet(self.big, self.small_to_big[pi.point_ranks()])

    def linear_set_of_ranks(self, small_ranks) -> np.ndarray:
        ranks = np.asarray(small_ranks, dtype=np.int64)
        if ranks.size and (ranks.min() < 0
                           or ranks.max() >= self.small.num_points):
            raise RangeError(f"point rank out of range for {self.small!r}")
        return sorted_unique(self.small_to_big[ranks])

    def blow_up_subspace(self, sub: Subspace) -> Subspace:
        """S(H): the span of the spread elements of the points of H,
        projective dimension h(dim H + 1) - 1."""
        if sub.space is not self.big:
            raise DimensionMismatchError("subspace not on the big side")
        out = Subspace(self.small, [row for v in sub.rows
                                    for row in self._element_rows(v)])
        if out.dim != self.h * (sub.dim + 1) - 1:
            raise SpecMismatchError("blown-up subspace has the wrong dimension")
        return out

    def transversal_line(self, sublines, x):
        """The small-side lines through x mapping onto (p+1)-point
        big-side sublines.  Single form: `sublines` is one PointSet, and
        the call returns its transversal line or raises NotASublineError.
        Batch form: `sublines` is an (m, p+1) array of big point ranks, one
        subline per row, x is one small point or an int array of m ranks,
        one per row, and the call returns m small ranks as int64: the
        point y of the row's companion element with xy the transversal, or
        -1 where the row is not a subline.

        Each row's x must lie on the spread element of a point of the row.
        The candidates for a row are the lines xy, y on its companion
        element (that of its first point off x's element), all rows in one
        pass (about 64 bytes per row, element point and big coordinate):
        the candidates whose point x + y maps onto the row survive, and a
        survivor matches when the images of its points x + lambda*y
        (lambda in GF(p0)) and y, x's being home and y's the companion,
        are the row.  A subline has exactly one transversal through each
        point of its elements, so two matches on a row are inconsistent.
        """
        p0, nbig = self.p0, self.big.num_points
        single = isinstance(sublines, PointSet)
        if single:
            if sublines.space is not self.big:
                raise DimensionMismatchError("subline not on the big side")
            rows = sublines.ranks[None, :]
        else:
            rows = np.asarray(sublines, dtype=np.int64)
            if rows.ndim != 2:
                raise BadParamsError("expected one subline per row")
            rows = np.sort(rows, axis=1)
        if rows.shape[1] != p0 + 1:
            raise BadParamsError(
                f"expected {p0 + 1} points, got {rows.shape[1]}")
        if (rows[:, 1:] == rows[:, :-1]).any():
            raise BadParamsError("a subline repeats a point")
        if rows.size and not 0 <= rows.min() <= rows.max() < nbig:
            raise RangeError(f"point rank out of range for {self.big!r}")
        if not isinstance(x, (int, np.integer)) \
                and (single or not isinstance(x, np.ndarray)):
            x = self.small.rank_of(_coerce_coords(self.small, x))
        xrank = np.asarray(x, dtype=np.int64)
        if xrank.ndim and xrank.shape != rows.shape[:1]:
            raise BadParamsError("expected one x per subline")
        # a rank out of range is a RangeError here, before any lookup
        xv = self.small.coords_of_ranks(xrank)
        home = np.broadcast_to(self.small_to_big[xrank], rows.shape[:1])
        at_home = rows == home[:, None]
        if not at_home.any(axis=1).all():
            raise XNotOnElementError(
                "x does not lie on a spread element of the subline")
        # rows ascend, so the first point off home is column 0 or 1
        companion = np.where(at_home[:, 0], rows[:, 1], rows[:, 0])
        # the search runs on big vectors: blowing up is GF(p0)-linear, x
        # blows up from X, and the points of the companion element from
        # lambda*v, v the companion and lambda the coset representatives,
        # so x + mu*y blows up from X + mu*Y (X held times q, its row of
        # the flat add table); each point still maps back through small_to_big
        add, mul, _, _ = self.big.field.tables()
        add, mul, q = add.ravel(), mul.ravel(), self.big.q
        X = np.broadcast_to(xv, (len(rows), xv.shape[-1])).reshape(
            len(rows), self.big.n + 1, self.h) @ (q * p0 ** np.arange(self.h))
        Y = mul.take(q * self._reps[:, None]
                     + self.big.coords_of_ranks(companion)[:, None, :])
        # a line xy matches only if the image of x + y lies on the row:
        # test that one point of every candidate first, then the rest of
        # the line of each survivor (row i, candidate j): x maps to home
        # and y to the companion, so the points x + lambda*y, lambda = 2
        # .. p0-1, are left
        mid = self.small_to_big.take(self._blown_ranks(
            add.take(X[:, None] + Y)))
        i, j = np.nonzero((mid[:, :, None] == rows[:, None, :]).any(axis=2))
        lam = q * np.arange(2, p0, dtype=np.int64)[:, None]
        rest = add.take(X[i][:, None] + mul.take(lam + Y[i, j][:, None, :]))
        images = np.concatenate([
            np.stack([home[i], companion[i], mid[i, j]], axis=1),
            self.small_to_big.take(self._blown_ranks(rest))], axis=1)
        images.sort(axis=1)
        hit = (images == rows[i]).all(axis=1)
        if (np.bincount(i[hit], minlength=len(rows)) > 1).any():
            # distinct points of the companion element give distinct lines
            raise SpecMismatchError("two transversal lines through one point")
        found = np.full(len(rows), -1, dtype=np.int64)
        found[i[hit]] = self._blown_ranks(Y[i[hit], j[hit]])
        if not single:
            return found
        if found[0] < 0:
            raise NotASublineError(
                "the given points are not the image of a line")
        pair = self.small.coords_of_ranks([[xrank, found[0]]])
        return _canonical(self.small, self.small.rref_rows(pair)[0])[0]


@locked_cache(maxsize=8)
def spread_context(big: ProjectiveSpace) -> SpreadContext:
    """Shared per-space context; the cache is built once per big space."""
    return SpreadContext(big)

"""Field reduction between PG(n, p^h) and PG(h(n+1)-1, p).

A point of the big space, i.e. a line of GF(p^h)^(n+1), becomes an
(h-1)-dimensional projective subspace of the small space once every big
coordinate is expanded into its h polynomial-basis coefficients (which are
exactly the base-p digits of the element code).  The family of all these
subspaces is a spread: it partitions the small-side points.  Going the other
way, a small-side subspace pi picks out the big-side point set of all spread
elements it touches.

Both directions of the spread are closed forms, evaluated on arrays of
ranks with no table of the spread.  A small point maps to the big point
whose coordinates are its blocks of h digits read as GF(p^h) codes.  The
element of a normalized big point v is {lambda*v}, lambda running over
the codes whose first nonzero base-p digit is 1 (one per coset of GF(p)*
in GF(p^h)*), and each lambda*v blows up to a small row ranked from flat
tables of the codes' digits, with no row reduction (Lavrauw-Van de Voorde,
Field reduction and linear sets in finite geometry, 2015).  A point rank
outside the space is a RangeError.
"""

from __future__ import annotations

import numpy as np

from ._cache import locked_cache
from .errors import (
    BadParamsError,
    DimensionMismatchError,
    NotASublineError,
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

# No table of the spread is kept, so the cap bounds none: it bounds the
# (p^h - 1)/(p - 1) points of an element, and keeps every small rank
# within the int32 that reconstruct stores the ys in.
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
        """Expand each GF(p^h) coordinate into its h base-p digits: the
        inverse of `_blown_down`."""
        return tuple((self.big.field.check_codes(big_coords)[:, None]
                      // self._place % self.p0).ravel().tolist())

    def _element_rows(self, v) -> list:
        """The blow-ups of v, x v, ..., x^(h-1) v: h small-side rows that
        span the spread element of the big vector v."""
        field = self.big.field
        mul = field.tables()[1].ravel()
        rows = [np.asarray(v, dtype=np.int64)]
        for _ in range(self.h - 1):
            rows.append(mul.take(field.q * field.x + rows[-1]))
        return [self.blow_up_vector(row) for row in rows]

    # -- the two maps ----------------------------------------------------------

    def _build_cache(self):
        # The element of a big point v holds the small points of lambda*v,
        # lambda in GF(q)*, and lambda matters only modulo GF(p0)*.  Scaling
        # by GF(p0)* scales every base-p0 digit alike, so the codes whose
        # first nonzero digit (least significant first) is 1 are one
        # representative per coset.  The blow-up of a nonzero big vector w,
        # scaled by the inverse in GF(p0) of the first nonzero digit of
        # c = w[lead(w)], is a normalized small row: zero before small
        # column h*lead(w) + first[c], then the digits.  Its rank is
        # weight[w'] @ block + start[h*lead(w) + first[c]], where weight[c]
        # reads c's digits as a base-p0 numeral in small-column order,
        # block[j] = p0^(h(n-j)) is the place of big column j and start is
        # the small side's offsets less its powers.  Only these O(q)
        # tables are kept; the maps evaluate them per call.
        small = self.small
        p0, h, n = self.p0, self.h, self.big.n
        inv = self.big.field.tables()[3]
        codes = np.arange(self.big.q, dtype=np.int64)
        self._place = p0 ** np.arange(h, dtype=np.int64)
        digits = codes[:, None] // self._place % p0
        weight = digits @ self._place[::-1]
        first = (digits != 0).argmax(axis=1)
        reps = np.flatnonzero(digits[codes, first] == 1)
        if reps.size != self.points_per_element:
            raise SpecMismatchError(
                f"spread cache: {reps.size} coset representatives, "
                f"expected {self.points_per_element}")
        block = p0 ** (h * (n - np.arange(n + 1, dtype=np.int64)))
        start = np.asarray(small._offsets, dtype=np.int64) \
            - np.asarray(small._powers, dtype=np.int64)
        # the inverse in GF(p0) of each code's first nonzero digit
        unit = inv[digits[codes, first]]
        self._blow_tables = (weight, first, unit, block, start)
        self._reps = reps
        # shared per space through spread_context: keep them read-only
        for arr in (reps, self._place, *self._blow_tables):
            arr.flags.writeable = False

    def _blown_ranks(self, vecs) -> np.ndarray:
        """Small ranks of the blow-ups of an array of nonzero big vectors
        (last axis n+1, not necessarily normalized), every table read
        flat, as set out in _build_cache."""
        mul = self.big.field.tables()[1].ravel()
        weight, first, unit, block, start = self._blow_tables
        lead = (vecs != 0).argmax(axis=-1)
        c = np.take_along_axis(vecs, lead[..., None], axis=-1)
        return weight.take(mul.take(vecs * self.big.q + unit.take(c))) \
            @ block + start.take(self.h * lead + first.take(c[..., 0]))

    def _blown_down(self, small_rows) -> np.ndarray:
        """The big vectors (GF(q) codes, not normalized) whose blow-ups
        are an array of small rows: each block of h digits read as one
        code."""
        return small_rows.reshape(small_rows.shape[:-1]
                                  + (self.big.n + 1, self.h)) @ self._place

    def blow_up_ranks(self, big_ranks) -> np.ndarray:
        """The ascending small ranks of the spread element of each big
        rank, shape big_ranks.shape + (points_per_element,): the blow-ups
        of lambda*v, v the normalized point and lambda the coset
        representatives.  A fresh array per call."""
        mul = self.big.field.tables()[1].ravel()
        coords = self.big.coords_of_ranks(big_ranks)
        ranks = self._blown_ranks(mul.take(
            self.big.q * self._reps[:, None] + coords[..., None, :]))
        ranks.sort(axis=-1)
        if (ranks[..., 1:] == ranks[..., :-1]).any():
            raise SpecMismatchError("spread map: an element repeats a point")
        return ranks

    def blow_down_ranks(self, small_ranks) -> np.ndarray:
        """The big rank of the spread element holding each small rank, in
        the shape of small_ranks.  A fresh array per call."""
        return self.big._ranks(
            self._blown_down(self.small.coords_of_ranks(small_ranks)))

    # -- spread queries --------------------------------------------------------

    def element_ranks(self, big_rank: int) -> np.ndarray:
        return self.blow_up_ranks(big_rank)

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
        return PointSet(self.big, self.blow_down_ranks(pi.point_ranks()))

    def linear_set_of_ranks(self, small_ranks) -> np.ndarray:
        return sorted_unique(self.blow_down_ranks(small_ranks))

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
        p0 = self.p0
        single = isinstance(sublines, PointSet)
        if single:
            if sublines.space is not self.big:
                raise DimensionMismatchError("subline not on the big side")
            rows = sublines.ranks[None, :]
        else:
            rows = np.asarray(self.big.check_ranks(sublines), dtype=np.int64)
            if rows.ndim != 2:
                raise BadParamsError("expected one subline per row")
            rows = np.sort(rows, axis=1)
        if rows.shape[1] != p0 + 1:
            raise BadParamsError(
                f"expected {p0 + 1} points, got {rows.shape[1]}")
        if (rows[:, 1:] == rows[:, :-1]).any():
            raise BadParamsError("a subline repeats a point")
        if not isinstance(x, (int, np.integer)) \
                and (single or not isinstance(x, np.ndarray)):
            x = self.small.rank_of(x)
        xrank = np.asarray(self.small.check_ranks(x), dtype=np.int64)
        if xrank.ndim and xrank.shape != rows.shape[:1]:
            raise BadParamsError("expected one x per subline")
        codes = self._blown_down(self.small.coords_of_ranks(xrank))
        home = np.broadcast_to(self.big._ranks(codes), rows.shape[:1])
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
        # the flat add table), whose big rank is its image
        add, mul, _, _ = self.big.field.tables()
        add, mul, q = add.ravel(), mul.ravel(), self.big.q
        X = q * np.broadcast_to(codes, (len(rows), self.big.n + 1))
        Y = mul.take(q * self._reps[:, None]
                     + self.big.coords_of_ranks(companion)[:, None, :])
        # a line xy matches only if the image of x + y lies on the row:
        # test that one point of every candidate first, then the rest of
        # the line of each survivor (row i, candidate j): x maps to home
        # and y to the companion, so the points x + lambda*y, lambda = 2
        # .. p0-1, are left
        mid = self.big._ranks(add.take(X[:, None] + Y))
        i, j = np.nonzero((mid[:, :, None] == rows[:, None, :]).any(axis=2))
        lam = q * np.arange(2, p0, dtype=np.int64)[:, None]
        rest = add.take(X[i][:, None] + mul.take(lam + Y[i, j][:, None, :]))
        images = np.concatenate([
            np.stack([home[i], companion[i], mid[i, j]], axis=1),
            self.big._ranks(rest)], axis=1)
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

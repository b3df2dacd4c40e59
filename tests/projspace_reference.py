"""Scalar references for `ProjectiveSpace`'s point coding and for the
quotient lift of `subspaces(dim, through=base)`.  They run one field
operation or one digit at a time on the scalar `FieldSpec` ops and on
`Subspace(rows)`'s scalar RREF, independently of the batched kernels that
the package's own `normalize`, `rank_of`, `coords_of` and `subspaces`
call."""

from blockingsets.projspace import ProjectiveSpace, Subspace


def _first_point_of(space, lead: int) -> int:
    """The rank of the first point whose first nonzero coordinate is at
    position lead: the points with more leading zeros come before it."""
    q, n = space.q, space.n
    return (q ** (n - lead) - 1) // (q - 1)


def normalize(space, coords) -> tuple:
    """coords scaled so that the first nonzero coordinate is 1."""
    v = tuple(int(c) for c in coords)
    lead = next(i for i, c in enumerate(v) if c)
    inv = space.field.inv(v[lead])
    return tuple(space.field.mul(inv, c) for c in v)


def rank_of(space, coords) -> int:
    """The rank of a point: the first rank of its lead position plus the
    coordinates after the lead read as a base-q numeral."""
    v = normalize(space, coords)
    lead = next(i for i, c in enumerate(v) if c)
    tail = 0
    for j in range(lead + 1, space.n + 1):
        tail = tail * space.q + v[j]
    return _first_point_of(space, lead) + tail


def coords_of(space, rank: int) -> tuple:
    """The normalized coordinates of the point with the given rank."""
    lead = next(i for i in range(space.n + 1)
                if _first_point_of(space, i) <= rank)
    tail = rank - _first_point_of(space, lead)
    v = [0] * (space.n + 1)
    v[lead] = 1
    for j in range(space.n, lead, -1):
        tail, v[j] = divmod(tail, space.q)
    return tuple(v)


def subspaces_through(space, dim: int, base: Subspace):
    """The dim-subspaces through base, dim > base.dim, in the order of the
    quotient space's subspaces: each quotient basis written into the
    columns off base's pivots, then reduced with base's rows by
    `Subspace(rows)`, one subspace at a time."""
    s = base.dim + 1
    comp = [c for c in range(space.n + 1) if c not in base.pivots]
    quot = ProjectiveSpace(space.n - s, space.field)
    for small in quot._subspaces_all(dim - s):
        lifted = []
        for row in small.rows:
            amb = [0] * (space.n + 1)
            for c, val in zip(comp, row):
                amb[c] = val
            lifted.append(tuple(amb))
        yield Subspace(space, base.rows + tuple(lifted))

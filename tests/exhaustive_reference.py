"""The reference for `linearsets._exhaustive_search`: the search as it ran
before its nodes were batched, one `Subspace` (a scalar RREF plus its
point ranks) per candidate point of every node.  The batched search must
return the same witness, count of tested subspaces and searched ranks."""

import numpy as np

from blockingsets.linearsets import _preimage_ranks, build_linear_set
from blockingsets.projspace import Subspace, gaussian_binomial


def reference_search(ctx, pts, cap):
    """(witness or None, tested, ranks), one candidate at a time."""
    small = ctx.small
    target = pts.ranks
    r_min = 1
    while gaussian_binomial(r_min, 1, ctx.p0) < len(pts):
        r_min += 1
    if r_min > cap:
        return None, 0, []
    pre_mask = np.zeros(small.num_points, dtype=bool)
    pre_mask[_preimage_ranks(ctx, pts)] = True
    tested = 0

    def image_equals(span_ranks) -> bool:
        return np.array_equal(ctx.linear_set_of_ranks(span_ranks), target)

    def extend(rows, span_ranks, depth):
        nonlocal tested
        if depth >= r_min and image_equals(span_ranks):
            return Subspace(small, rows)
        if depth == cap:
            return None
        span_mask = np.zeros(small.num_points, dtype=bool)
        span_mask[span_ranks] = True
        floor = -1 if depth == 0 else chain[-1]
        for y in np.nonzero(pre_mask & ~span_mask)[0]:
            y = int(y)
            if y <= floor:
                continue
            cand = Subspace(small, rows + [small.coords_of(y)])
            cand_ranks = cand.point_ranks()
            new = cand_ranks[~span_mask[cand_ranks]]
            if new.min() != y or not pre_mask[new].all():
                continue
            tested += 1
            chain.append(y)
            got = extend(list(cand.rows), cand_ranks, depth + 1)
            chain.pop()
            if got is not None:
                return got
        return None

    chain = []
    found = extend([], np.empty(0, dtype=np.int64), 0)
    witness = build_linear_set(ctx, found) if found is not None else None
    return witness, tested, list(range(r_min, cap + 1))

"""The paper's reduction, down half (arXiv 1201.3300 reduces every n to
one n >= 2k): projecting a small minimal k-blocking set of PG(n, q),
n > 2k, from a point on no secant line onto a hyperplane keeps its size,
and the image is again a small minimal k-blocking set, linear when the
set is.  A chain of such steps down to n = 2k is a metamorphic check of
every verdict the package gives: blocking, smallness, minimality, the
exponent, linearity and the reconstructed witness must agree between a
set and its image.  Each step projects from the lowest point on no
secant (`cli._auto_centre`) onto the CLI's hyperplane for that centre
(`cli._auto_hyperplane`) and restricts the image to it, as
`blockingsets project` does."""

import numpy as np
import pytest

from blockingsets import catalogue
from blockingsets.blocking import blocking_report
from blockingsets.cli import _auto_centre, _auto_hyperplane
from blockingsets.linearsets import is_linear, subgeometry_witness
from blockingsets.projspace import PointSet, project
from blockingsets.reconstruct import reconstruct


def _verdicts(pts, k, p0):
    """(blocking, small, minimal, exponent, linear, reconstruct status,
    dim_W) of a set."""
    report = blocking_report(pts, k)
    witness, _ = is_linear(pts, p0)
    res = reconstruct(pts, k, p0)
    return (report.is_blocking, report.small, report.minimal,
            report.exponent, witness is not None, res.status, res.dim_W)


def _down_chain(pts, k):
    """The sets of the down chain from pts, pts first, to n = 2k."""
    chain = [pts]
    while chain[-1].space.n > 2 * k:
        cur = chain[-1]
        centre = _auto_centre(cur)
        hyper = _auto_hyperplane(cur.space, centre)
        image, _ = project(cur, centre, hyper).restrict_to(hyper)
        chain.append(image)
    return chain


def _moved(pts, seed):
    """The image of pts under the seeded collineation x -> x L U, L unit
    lower and U unit upper triangular (so invertible), on the field
    tables.  The shipped sets sit in the first coordinates, where the
    lowest centre on no secant is (0, ..., 0, 1) and a projection only
    drops a zero coordinate; a moved set puts the set, the centre and
    the hyperplane in general position."""
    space = pts.space
    add, mul, _, _ = space.field.tables()
    rng = np.random.default_rng(seed)
    x = pts.coords().astype(np.int64)
    for triangle in (np.tril, np.triu):
        a = triangle(rng.integers(space.q, size=(space.n + 1,) * 2))
        np.fill_diagonal(a, 1)
        y = mul[x[:, :1], a[0]]
        for i in range(1, space.n + 1):
            y = add[y, mul[x[:, i:i + 1], a[i]]]
        x = y
    return PointSet(space, space.ranks_from_rows(x))


def _subplane_pg3_49():
    inst, = catalogue.load_shipped(["subplane_pg3_49"])
    return inst.points, inst.k, inst.p0


def _pg2_3_in_pg5_9():
    # PG(2,3) in PG(5,9): k = 1, three steps; n = 2k fails the theorem's
    # p0 >= 7, but a projection of a linear set is still linear
    return subgeometry_witness(9, 3, 5, m=2).points, 1, 3


@pytest.mark.parametrize("start,steps", [(_subplane_pg3_49, 1),
                                         (_pg2_3_in_pg5_9, 3)],
                         ids=["subplane_pg3_49", "pg2_3_in_pg5_9"])
@pytest.mark.parametrize("seed", [None, 36], ids=["shipped", "moved"])
def test_down_chain_keeps_every_verdict(start, steps, seed):
    pts, k, p0 = start()
    want = _verdicts(pts, k, p0)
    assert want[:5] == (True, True, True, 1, True) and want[5] == "ok"
    if seed is not None:
        pts = _moved(pts, seed)
        assert len(pts) == len(start()[0])
        assert _verdicts(pts, k, p0) == want
    chain = _down_chain(pts, k)
    assert [s.space.n for s in chain] \
        == list(range(pts.space.n, pts.space.n - steps - 1, -1))
    assert chain[-1].space.n == 2 * k
    for before, after in zip(chain, chain[1:]):
        assert len(after) == len(before)
        assert _verdicts(after, k, p0) == _verdicts(before, k, p0)

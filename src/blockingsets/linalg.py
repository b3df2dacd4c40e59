"""Exact scalar row reduction over a FieldSpec, for `Subspace(rows)`.

Every other row operation of the package (`meet`, `Subspace.contains`,
`ProjectiveSpace.rref_rows`) reduces batched on the flat field tables
(`projspace._rref`).  `rref` alone stays scalar, and is what
`Subspace(rows)` and `span` call: the benchmark's layer counters
(`linalg.rref_calls`, `linalg.rref_s`) are read off this function, and
perfbench's FIRES table requires both to fire on `cone49-full`.  Once
perfbench reads the package's own counters (ROADMAP item 5b),
`Subspace(rows)` can reduce with `_rref` too and this module can go.

Matrices are sequences of rows; a row is a sequence of integer element
codes.  Each scalar field operation is a lookup in the field's tables.
"""

from __future__ import annotations


def rref(mat, field):
    """Reduced row echelon form.

    Returns (rows, pivots): the nonzero rows as tuples and the pivot column
    of each row.  Rows come out with pivot entry 1 and zeros above and below
    each pivot, so the result is a canonical basis of the row space.
    """
    rows = [list(r) for r in mat]
    if not rows:
        return (), ()
    m = len(rows[0])
    pivots = []
    r = 0
    for col in range(m):
        sel = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = field.inv(rows[r][col])
        if inv != 1:
            rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [field.sub(x, field.mul(c, y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)

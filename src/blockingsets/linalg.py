"""Exact row reduction over a FieldSpec.

Matrices are sequences of rows; a row is a sequence of integer element codes.
Everything here is scalar pure Python: matrices in this package stay tiny
(at most a few dozen rows), the bulk work happens in the batched numpy scans
of the projspace module.  Each scalar field operation is a lookup in the
field's tables (every field has them: q <= 1024).
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


def reduce_vector(vec, rows, pivots, field):
    """Residual of vec after elimination against RREF rows."""
    v = list(vec)
    for row, piv in zip(rows, pivots):
        c = v[piv]
        if c:
            for j in range(len(v)):
                v[j] = field.sub(v[j], field.mul(c, row[j]))
    return v


def in_row_space(vec, rows, pivots, field) -> bool:
    return not any(reduce_vector(vec, rows, pivots, field))


def left_kernel(mat, field):
    """Basis (RREF) of {c : c . mat = 0} via reduction of [mat | I]."""
    k = len(mat)
    m = len(mat[0]) if k else 0
    aug = [list(mat[i]) + [1 if j == i else 0 for j in range(k)]
           for i in range(k)]
    rows, _ = rref(aug, field)
    out = [row[m:] for row in rows if not any(row[:m])]
    return rref(out, field)[0]


"""Scalar references for the package's batched row operations: the
residual of a vector against RREF rows, which decides
`Subspace.contains`, and the left kernel of a matrix, which decides
`meet`, the hyperplane of a covector and the covector of a hyperplane.
Both run one field operation at a time on the scalar `FieldSpec` ops,
independently of the flat-table kernels of `projspace`."""

from blockingsets import linalg


def residual(vec, rows, pivots, field) -> list:
    """The residual of vec after elimination against RREF rows with the
    given pivots: all zero exactly when vec lies in their row space."""
    v = list(vec)
    for row, piv in zip(rows, pivots):
        c = v[piv]
        if c:
            for j in range(len(v)):
                v[j] = field.sub(v[j], field.mul(c, row[j]))
    return v


def left_kernel(mat, field) -> tuple:
    """Basis (RREF) of {c : c . mat = 0}, via the reduction of
    [mat | I]."""
    k = len(mat)
    m = len(mat[0]) if k else 0
    aug = [list(mat[i]) + [1 if j == i else 0 for j in range(k)]
           for i in range(k)]
    rows, _ = linalg.rref(aug, field)
    out = [row[m:] for row in rows if not any(row[:m])]
    return linalg.rref(out, field)[0]

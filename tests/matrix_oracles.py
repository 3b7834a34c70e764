"""Dense matrix and bilinear-form products the tests use as independent oracles.

The package has no caller for them, so they live with the tests: each is
written out in the plainest way, entry by entry.
"""

from siegelalg.errors import ValidationError
from siegelalg.linalg import GR_ZERO, GaussianRational, Matrix


def conj_transpose(m: Matrix) -> Matrix:
    return Matrix(
        m.ncols, m.nrows,
        tuple(tuple(m.entries[i][j].conjugate() for i in range(m.nrows)) for j in range(m.ncols)),
    )


def add(a: Matrix, b: Matrix) -> Matrix:
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise ValidationError("shape mismatch")
    return Matrix(
        a.nrows, a.ncols,
        tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(a.entries, b.entries)),
    )


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.ncols != b.nrows:
        raise ValidationError(f"cannot multiply {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols}")
    rows = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = GR_ZERO
            for t in range(a.ncols):
                acc = acc + a.entries[i][t] * b.entries[t][j]
            row.append(acc)
        rows.append(tuple(row))
    return Matrix(a.nrows, b.ncols, tuple(rows))


def apply(m: Matrix, v) -> tuple[GaussianRational, ...]:
    """Matrix-vector product."""
    if len(v) != m.ncols:
        raise ValidationError("vector length mismatch")
    vv = [GaussianRational.of(x) for x in v]
    out = []
    for i in range(m.nrows):
        acc = GR_ZERO
        for t in range(m.ncols):
            acc = acc + m.entries[i][t] * vv[t]
        out.append(acc)
    return tuple(out)


def is_zero(m: Matrix) -> bool:
    return all(x.is_zero() for row in m.entries for x in row)


def bilinear_apply(coeffs, u, v) -> tuple[GaussianRational, ...]:
    """value_l = sum_{i,j} coeffs[l][i][j] u_i v_j, for a coefficient tensor of a solver."""
    uu = [GaussianRational.of(x) for x in u]
    vv = [GaussianRational.of(x) for x in v]
    out = []
    for plane in coeffs:
        acc = GR_ZERO
        for i, row in enumerate(plane):
            for j, c in enumerate(row):
                acc = acc + c * uu[i] * vv[j]
        out.append(acc)
    return tuple(out)

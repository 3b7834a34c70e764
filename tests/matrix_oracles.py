"""Dense matrix and bilinear-form products, and a polynomial-matrix rank, that the tests
use as independent oracles.

The package has no caller for them, so they live with the tests: each is
written out in the plainest way, entry by entry.
"""

from siegelalg.errors import ValidationError
from siegelalg.linalg import GR_ZERO, GaussianRational, Matrix
from siegelalg.poly import Polynomial


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


def _leading(p):
    return p.terms[-1]


def polynomial_divide_exact(p, divisor):
    """Reference exact quotient in ``Polynomial`` arithmetic; a remainder raises."""
    rem, quot = p, {}
    dm, dc = _leading(divisor)
    while not rem.is_zero():
        rm, rc = _leading(rem)
        qm = tuple(a - b for a, b in zip(rm, dm))
        if any(e < 0 for e in qm):
            raise ValidationError("inexact polynomial division")
        qc = rc / dc
        quot[qm] = quot.get(qm, GR_ZERO) + qc
        rem = rem - Polynomial(p.nvars, ((qm, qc),)) * divisor
    return Polynomial.from_dict(p.nvars, quot)


def polynomial_generic_rank(rows, nvars):
    """Reference: Bareiss elimination on ``Polynomial`` entries, as ``generic_rank`` did before it
    moved to integer polynomials. Same pivot rule: minimal total degree, then topmost row."""
    rows = [list(row) for row in rows]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    prev = Polynomial.constant(nvars, 1)
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        best = None
        for i in range(r, nrows):
            if rows[i][c].is_zero():
                continue
            if best is None or rows[i][c].total_degree() < rows[best][c].total_degree():
                best = i
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                num = piv * rows[i][j] - rows[i][c] * rows[r][j]
                rows[i][j] = polynomial_divide_exact(num, prev)
            rows[i][c] = Polynomial.zero(nvars)
        prev = piv
        r += 1
    return r

"""Dense matrix and bilinear-form products, the value of a Hermitian family, dense Gauss-Jordan
elimination and the skew space it solves for, polynomial arithmetic and a polynomial-matrix
rank, that the tests use as independent oracles.

The package has no caller for them, so they live with the tests: each is
written out in the plainest way, entry by entry. A polynomial here is a dict
{monomial: GaussianRational} with no zero coefficient.
"""

from fractions import Fraction

from siegelalg.errors import ValidationError
from siegelalg.linalg import GR_I, GR_ONE, GR_ZERO, GaussianRational, Matrix
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


def evaluate(family, w, w2=None) -> tuple[GaussianRational, ...]:
    """The vector H(w, w2) of a ``HermitianFamily``, anti-linear in w; w2 defaults to w."""
    left = [GaussianRational.of(x).conjugate() for x in w]
    right = [GaussianRational.of(x) for x in (w2 if w2 is not None else w)]
    m = family.m
    if len(left) != m or len(right) != m:
        raise ValidationError("argument length must equal m")
    out = []
    for comp in family.components:
        acc = GR_ZERO
        for i in range(m):
            for j in range(m):
                acc = acc + left[i] * comp.entry(i, j) * right[j]
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


def dense_rref(rows, ncols, one):
    """Reference Gauss-Jordan on dense rows: the first nonzero row from the top pivots."""
    zero = one - one
    rows = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != zero), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = one / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != zero:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def skew_basis(form) -> list[Matrix]:
    """A basis of {B : B* H_j + H_j B = 0 for every j}, the matrices associated to A = 0.

    B is realified as B[t][u] = x[2(tm + u)] + i x[2(tm + u) + 1], and entry
    (u, v) of B* H_j + H_j B, sum_t conj(B[t][u]) H_j[t][v] + H_j[u][t] B[t][v],
    gives one row for its real part and one for its imaginary part. The kernel
    is read off ``dense_rref``: one vector per free column.
    """
    m = form.m
    ncols = 2 * m * m
    rows = []
    for h in form.components:
        for u in range(m):
            for v in range(m):
                coeffs = [GR_ZERO] * ncols
                for t in range(m):
                    col = 2 * (t * m + u)  # conj(B[t][u]) = x[col] - i x[col + 1]
                    coeffs[col] += h.entries[t][v]
                    coeffs[col + 1] -= GR_I * h.entries[t][v]
                    col = 2 * (t * m + v)  # B[t][v] = x[col] + i x[col + 1]
                    coeffs[col] += h.entries[u][t]
                    coeffs[col + 1] += GR_I * h.entries[u][t]
                rows += [[c.re for c in coeffs], [c.im for c in coeffs]]
    reduced, pivots = dense_rref(rows, ncols, Fraction(1))
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(int(c == free)) for c in range(ncols)]
        for row, p in zip(reduced, pivots):
            x[p] = -row[free]
        basis.append(Matrix.from_rows([
            [GaussianRational(x[2 * (t * m + u)], x[2 * (t * m + u) + 1]) for u in range(m)]
            for t in range(m)
        ]))
    return basis


def coefficients(p: Polynomial) -> dict:
    """The terms of ``p`` as {monomial: GaussianRational}."""
    return {m: GaussianRational(Fraction(re), Fraction(im)) for m, re, im in p.terms}


def polynomial(nvars, coeffs) -> Polynomial:
    """The ``Polynomial`` with the coefficients {monomial: number or GaussianRational}."""
    coeffs = {m: GaussianRational.of(c) for m, c in coeffs.items()}
    return Polynomial.from_parts(
        nvars, {m: c.re for m, c in coeffs.items()}, {m: c.im for m, c in coeffs.items()}
    )


def variable(nvars, i) -> dict:
    return {tuple(int(j == i) for j in range(nvars)): GR_ONE}


def poly_add(*ps) -> dict:
    out = {}
    for p in ps:
        for m, c in p.items():
            out[m] = out.get(m, GR_ZERO) + c
    return {m: c for m, c in out.items() if c}


def poly_mul(p, q) -> dict:
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, GR_ZERO) + GaussianRational.of(c1) * c2
    return {m: c for m, c in out.items() if c}


def poly_scale(p, c) -> dict:
    out = {m: GaussianRational.of(x) * c for m, x in p.items()}
    return {m: x for m, x in out.items() if x}


def degree(p) -> int:
    """Total degree; the zero polynomial has degree -1."""
    return max(map(sum, p), default=-1)


def _leading(p):
    # graded lex, earlier variables heavier
    m = max(p, key=lambda mono: (sum(mono), tuple(-e for e in mono)))
    return m, p[m]


def polynomial_divide_exact(p, divisor):
    """Reference exact quotient of two polynomials; a remainder raises."""
    rem, quot = p, {}
    dm, dc = _leading(divisor)
    while rem:
        rm, rc = _leading(rem)
        qm = tuple(a - b for a, b in zip(rm, dm))
        if any(e < 0 for e in qm):
            raise ValidationError("inexact polynomial division")
        qc = rc / dc
        quot = poly_add(quot, {qm: qc})
        rem = poly_add(rem, poly_mul({qm: -qc}, divisor))
    return quot


def polynomial_generic_rank(rows, nvars):
    """Reference: Bareiss elimination on polynomial entries, as ``generic_rank`` did before it
    moved to integer polynomials. Same pivot rule: minimal total degree, then topmost row.

    The entries are {monomial: number or GaussianRational} dicts.
    """
    rows = [[poly_scale(p, GR_ONE) for p in row] for row in rows]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    prev = {(0,) * nvars: GR_ONE}
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        best = None
        for i in range(r, nrows):
            if not rows[i][c]:
                continue
            if best is None or degree(rows[i][c]) < degree(rows[best][c]):
                best = i
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                num = poly_add(
                    poly_mul(piv, rows[i][j]), poly_scale(poly_mul(rows[i][c], rows[r][j]), -1)
                )
                rows[i][j] = polynomial_divide_exact(num, prev)
            rows[i][c] = {}
        prev = piv
        r += 1
    return r

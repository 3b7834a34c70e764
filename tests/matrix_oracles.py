"""Dense matrix and bilinear-form products, the value and the nonzero entries of a Hermitian
family, dense Gauss-Jordan elimination and the skew space it solves for, polynomial arithmetic
and a polynomial-matrix rank, that the tests use as independent oracles.

The package has no caller for them, so they live with the tests: each is
written out in the plainest way, entry by entry. A matrix is nested rows, as
the package holds one (``ComplexRows``); ``as_rows`` makes one from nested
sequences of scalars. A polynomial here is a dict {monomial: GaussianRational}
with no zero coefficient.
"""

from fractions import Fraction

from siegelalg.errors import ValidationError
from siegelalg.linalg import GR_I, GR_ONE, GR_ZERO, GaussianRational, span_rank
from siegelalg.poly import Polynomial


def as_rows(m) -> tuple[tuple[GaussianRational, ...], ...]:
    """The nested sequence ``m`` of scalars as nested tuples of ``GaussianRational``s."""
    return tuple(tuple(GaussianRational.of(x) for x in row) for row in m)


def dense(basis) -> tuple:
    """A solver's basis with each part of each element as nested tuples, to index."""
    return tuple(tuple(part.dense() for part in element) for element in basis)


def identity(n: int) -> tuple[tuple[GaussianRational, ...], ...]:
    return tuple(tuple(GR_ONE if i == j else GR_ZERO for j in range(n)) for i in range(n))


def zeros(nrows: int, ncols: int) -> tuple[tuple[GaussianRational, ...], ...]:
    return ((GR_ZERO,) * ncols,) * nrows


def _ncols(m) -> int:
    return len(m[0]) if m else 0


def rank(m) -> int:
    """The rank of the matrix ``m``, through ``span_rank``."""
    return span_rank(m, _ncols(m))


def conj_transpose(m):
    return tuple(
        tuple(m[i][j].conjugate() for i in range(len(m))) for j in range(_ncols(m))
    )


def add(a, b):
    if (len(a), _ncols(a)) != (len(b), _ncols(b)):
        raise ValidationError("shape mismatch")
    return tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(a, b))


def matmul(a, b):
    if _ncols(a) != len(b):
        raise ValidationError(
            f"cannot multiply {len(a)}x{_ncols(a)} by {len(b)}x{_ncols(b)}"
        )
    out = []
    for i in range(len(a)):
        row = []
        for j in range(_ncols(b)):
            acc = GR_ZERO
            for t in range(len(b)):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def apply(m, v) -> tuple[GaussianRational, ...]:
    """Matrix-vector product."""
    if len(v) != _ncols(m):
        raise ValidationError("vector length mismatch")
    vv = [GaussianRational.of(x) for x in v]
    out = []
    for row in m:
        acc = GR_ZERO
        for x, y in zip(row, vv):
            acc = acc + x * y
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
                acc = acc + left[i] * comp[i][j] * right[j]
        out.append(acc)
    return tuple(out)


def nonzero_table(family):
    """The nonzero entries of a ``HermitianFamily`` by a dense scan of its components.

    Returns (row, col, at): row[j][u] lists the pairs (v, H_j[u][v]) and
    col[j][v] the pairs (u, H_j[u][v]), and at[u][v] lists the pairs
    (j, H_j[u][v]), each in index order.
    """
    hs = family.components
    m = range(family.m)
    row = [[[(v, h[u][v]) for v in m if not h[u][v].is_zero()] for u in m] for h in hs]
    col = [[[(u, h[u][v]) for u in m if not h[u][v].is_zero()] for v in m] for h in hs]
    at = [[[(j, h[u][v]) for j, h in enumerate(hs) if not h[u][v].is_zero()] for v in m] for u in m]
    return row, col, at


def is_zero(m) -> bool:
    return all(x.is_zero() for row in m for x in row)


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


def skew_basis(form) -> list[tuple[tuple[GaussianRational, ...], ...]]:
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
                    coeffs[col] += h[t][v]
                    coeffs[col + 1] -= GR_I * h[t][v]
                    col = 2 * (t * m + v)  # B[t][v] = x[col] + i x[col + 1]
                    coeffs[col] += h[u][t]
                    coeffs[col + 1] += GR_I * h[u][t]
                rows += [[c.re for c in coeffs], [c.im for c in coeffs]]
    reduced, pivots = dense_rref(rows, ncols, Fraction(1))
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(int(c == free)) for c in range(ncols)]
        for row, p in zip(reduced, pivots):
            x[p] = -row[free]
        basis.append(tuple(
            tuple(GaussianRational(x[2 * (t * m + u)], x[2 * (t * m + u) + 1]) for u in range(m))
            for t in range(m)
        ))
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

"""Exact scalars, matrices and sparse Gauss-Jordan elimination.

Every quantity in this package is either a rational number (``fractions.Fraction``)
or a Gaussian rational (complex number with rational real and imaginary parts).
No floating point is used anywhere: ranks and nullspace dimensions are the
answers, so a single rounding error could flip a result.

Real data (cone algebras, the A-parts of weight-0 pairs, the forms a of
weight 1) is kept as ``RealRows``, plain nested tuples of ``Fraction``;
``Matrix`` holds complex data.

All elimination goes through ``sparse_rref``, whose rows store only their
nonzero entries; ``Matrix.rref`` is a dense view of its result.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, TypeVar, Union

from .errors import ValidationError
from .frozen import Frozen

Scalar = Union[int, Fraction, "GaussianRational"]
RealRows = tuple[tuple[Fraction, ...], ...]


def _frac(x: Union[int, Fraction]) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class GaussianRational(Frozen):
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    # the generic ``Frozen`` methods, written out: a run builds tens of thousands of these
    def __init__(self, re: Fraction, im: Fraction) -> None:
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __eq__(self, other: object):
        if other.__class__ is not GaussianRational:
            return NotImplemented
        return (self.re, self.im) == (other.re, other.im)

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    @staticmethod
    def of(x: Scalar) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(_frac(x), Fraction(0))

    def __add__(self, other: Scalar) -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: Scalar) -> "GaussianRational":
        return GaussianRational.of(other) - self

    def __mul__(self, other: Scalar) -> "GaussianRational":
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re * other, self.im * other)
        o = GaussianRational.of(other)
        if self.im or o.im:
            return GaussianRational(
                self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
            )
        return GaussianRational(self.re * o.re, self.im)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "GaussianRational":
        o = GaussianRational.of(other)
        d = o.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return self * GaussianRational(o.re / d, -o.im / d)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


GR_ZERO = GaussianRational(Fraction(0), Fraction(0))
GR_ONE = GaussianRational(Fraction(1), Fraction(0))
GR_I = GaussianRational(Fraction(0), Fraction(1))


def gr(re: Union[int, Fraction] = 0, im: Union[int, Fraction] = 0) -> GaussianRational:
    """Shorthand constructor for Gaussian rationals."""
    return GaussianRational(_frac(re), _frac(im))


def coordinate_units(m: int) -> list[tuple[int, GaussianRational]]:
    """e_1, i*e_1, e_2, i*e_2, ...: the coordinate vectors of C^m and their i-multiples.

    Each vector is given by its one nonzero entry, as the pair (position,
    entry). Together they form a basis of C^m over the reals, so a real-linear
    identity in a vector of C^m holds everywhere once it holds on these.
    """
    return [(u, unit) for u in range(m) for unit in (GR_ONE, GR_I)]


class RrefResult(Frozen):
    matrix: "Matrix"
    rank: int
    pivots: tuple[int, ...]


class Matrix(Frozen):
    """Immutable dense matrix with Gaussian-rational entries.

    Matrices of any shape are allowed, including zero rows or columns, which
    occur naturally for tube domains (empty Hermitian families).
    """

    nrows: int
    ncols: int
    entries: tuple[tuple[GaussianRational, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.nrows:
            raise ValidationError("row count mismatch")
        for row in self.entries:
            if len(row) != self.ncols:
                raise ValidationError("column count mismatch")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]]) -> "Matrix":
        """Build a matrix from nested sequences."""
        ent = tuple(tuple(GaussianRational.of(x) for x in row) for row in rows)
        nrows = len(ent)
        ncols = len(ent[0]) if nrows else 0
        return Matrix(nrows, ncols, ent)

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "Matrix":
        return Matrix(nrows, ncols, tuple(tuple(GR_ZERO for _ in range(ncols)) for _ in range(nrows)))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(
            n, n,
            tuple(tuple(GR_ONE if i == j else GR_ZERO for j in range(n)) for i in range(n)),
        )

    def entry(self, i: int, j: int) -> GaussianRational:
        return self.entries[i][j]

    def row(self, i: int) -> tuple[GaussianRational, ...]:
        return self.entries[i]

    def _sparse_rows(self) -> list[dict[int, GaussianRational]]:
        """The rows as ``{column: nonzero entry}``, the input of ``sparse_rref``."""
        return [{j: x for j, x in enumerate(row) if not x.is_zero()} for row in self.entries]

    def rref(self) -> RrefResult:
        """Reduced row echelon form over the exact scalar field.

        Zero rows are moved to the bottom. The reduced form of a matrix is
        unique, so the result does not depend on how ``sparse_rref`` picks
        its pivot rows.
        """
        reduced, pivots = sparse_rref(self._sparse_rows(), GR_ONE)
        zero_row = (GR_ZERO,) * self.ncols
        entries = tuple(
            tuple(row.get(j, GR_ZERO) for j in range(self.ncols)) for row in reduced
        ) + (zero_row,) * (self.nrows - len(reduced))
        return RrefResult(Matrix(self.nrows, self.ncols, entries), len(pivots), tuple(pivots))

    def rank(self) -> int:
        return self.rref().rank

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(x) for x in row) for row in self.entries) + "]"


S = TypeVar("S", Fraction, GaussianRational)


def sparse_rref(rows: Sequence[dict[int, S]], one: S) -> tuple[list[dict[int, S]], list[int]]:
    """Exact Gauss-Jordan elimination of sparse rows ``{column: nonzero scalar}``.

    Columns are taken left to right. In each, the shortest remaining row with
    a nonzero there becomes the pivot row; it is scaled to a leading one and
    the column is cleared from every other row, above and below. Only
    nonzeros are stored and updated. Returns the nonzero reduced rows in pivot
    order with their pivot columns. The input rows are not modified.

    ``one`` is the scalar type's unit. Zeros are recognised as ``one - one``,
    because a ``GaussianRational`` never compares equal to ``0``.
    """
    zero = one - one
    pending = [dict(row) for row in rows if row]
    reduced: list[dict[int, S]] = []
    pivots: list[int] = []
    for c in sorted(set().union(*pending)):
        best = -1
        for i, row in enumerate(pending):
            if c in row and (best < 0 or len(row) < len(pending[best])):
                best = i
        if best < 0:
            continue
        prow = pending[best]
        pending[best] = pending[-1]
        pending.pop()
        p = prow[c]
        if p != one:
            inv = one / p
            prow = {j: x * inv for j, x in prow.items()}
        for row in reduced + pending:
            f = row.get(c)
            if f is None:
                continue
            for j, x in prow.items():
                y = row.get(j)
                if y is None:
                    row[j] = -(f * x)
                else:
                    y = y - f * x
                    if y == zero:
                        del row[j]
                    else:
                        row[j] = y
        pending = [row for row in pending if row]
        reduced.append(prow)
        pivots.append(c)
    return reduced, pivots


def sparse_nullspace(rows: Sequence[dict[int, S]], ncols: int, one: S) -> list[list[S]]:
    """Basis of the right kernel of sparse rows over ``ncols`` columns.

    Deterministic: each free column, taken in column order, is set to one in
    turn and the pivot unknowns are read off the reduced rows. The count
    always equals ``ncols - rank``.
    """
    zero = one - one
    reduced, pivots = sparse_rref(rows, one)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [zero] * ncols
        v[f] = one
        for row, p in zip(reduced, pivots):
            x = row.get(f)
            if x is not None:
                v[p] = -x
        basis.append(v)
    return basis


def span_rank(vectors: Sequence[Sequence[Scalar]], width: int) -> int:
    """Rank of the span of the given coefficient vectors."""
    if not vectors:
        return 0
    m = Matrix.from_rows(vectors)
    if m.ncols != width:
        raise ValidationError("vector width mismatch")
    return m.rank()


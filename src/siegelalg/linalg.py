"""Exact scalars, matrices and sparse Gauss-Jordan elimination.

Every quantity in this package is either a rational number (``fractions.Fraction``)
or a Gaussian rational (complex number with rational real and imaginary parts).
No floating point is used anywhere: ranks and nullspace dimensions are the
answers, so a single rounding error could flip a result.

Data is plain nested tuples: real data (cone algebras, the A-parts of
weight-0 pairs, the forms a of weight 1) as ``RealRows`` of ``Fraction``s,
and every complex matrix (the components of a Hermitian family, B and Phi)
as ``ComplexRows`` of ``GaussianRational``s. ``Matrix`` is only the input
of ``span_rank``, which ranks it with ``Matrix.rref``.

All elimination goes through one integer kernel, ``_integer_rref``, whose
rows store only their nonzero entries. It eliminates fraction-free (Bareiss
1968): each row is kept primitive, scaled to integers with no common factor,
so every step is ``int`` arithmetic, and a ``Fraction`` is built only for the
entries of a result. A real row may hold ``int``s as well as ``Fraction``s:
the graded solvers assemble their systems over the integers wherever their
inputs are integral, and such a row costs one gcd pass to enter the kernel.
An index from each column to the rows holding it confines a pivot's work to
those rows.

Elimination is real. ``sparse_rref`` divides the reduced rows by their pivot
entries. Kernel vectors are sparse as well: ``sparse_nullspace`` reads each
one off the integer reduced rows as ``{column: nonzero Fraction}``, one
``Fraction`` per nonzero, so its readers visit only the columns present.
Complex rows enter only through ``_realified``, which writes a row a as the
real rows a and i*a over interleaved (re, im) columns 2j, 2j + 1, the layout
of the graded solvers' complex unknowns, and leave only through
``_complex_row``, the one reader of that layout. Both have the same two
callers: ``Matrix.rref``, a dense complex view of the real reduced rows, and
the common-kernel check of ``hermitian.is_omega_hermitian``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Any, Sequence, Union

from .errors import ValidationError
from .frozen import Frozen

Scalar = Union[int, Fraction, "GaussianRational"]
RealRows = tuple[tuple[Fraction, ...], ...]
ComplexRows = tuple[tuple["GaussianRational", ...], ...]


def _frac(x: Union[int, Fraction]) -> Fraction:
    """A caller's rational as a ``Fraction``: an ``int`` (not a ``bool``) or a ``Fraction``.

    The one reader of rational data in the library: every constructor and
    query that takes a rational reads it here, so a float, a string, a
    boolean or ``None`` ends in the same ``ValidationError`` everywhere. Text
    is read by ``serialize.fraction_from_json`` first. Integers (sizes,
    indices, counts) have their own reader, ``_int``.
    """
    if isinstance(x, Fraction):
        return x
    if x.__class__ is int:
        return Fraction(x)
    raise ValidationError(f"entries must be rationals (int or Fraction), got {type(x).__name__}")


def _int(x: int, what: str) -> int:
    """A caller's size, index or count, named ``what`` in the error: an ``int``, not a ``bool``.

    The one reader of integer data, the counterpart of ``_frac``. A value
    beyond ``sys.maxsize``, the most items a list can hold, is refused here
    rather than in an ``OverflowError`` where it meets a list.
    """
    if x.__class__ is not int:
        raise ValidationError(f"{what} must be an integer, got {x!r}")
    if abs(x) > sys.maxsize:
        raise ValidationError(f"{what} is too large: {x}")
    return x


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


# A real part or row entry: an ``int`` where its denominator is 1, a ``Fraction`` otherwise.
Exact = Union[int, Fraction]


def _exact(x: Scalar) -> Scalar:
    """``x`` with each rational part whose denominator is 1 read as an ``int``.

    The exact kernels (assembly, brackets) compute on such parts: ``int``
    arithmetic where the data is integral, a ``Fraction`` only where it is not.
    """
    if x.__class__ is GaussianRational:
        return GaussianRational(_exact(x.re), _exact(x.im))
    return x.numerator if x.denominator == 1 else x


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
    The entries are in the exact kernels' form (``_exact``): ``int`` parts.
    """
    one, i = GaussianRational(1, 0), GaussianRational(0, 1)
    return [(u, unit) for u in range(m) for unit in (one, i)]


class RrefResult(Frozen):
    matrix: "Matrix"
    rank: int
    pivots: tuple[int, ...]


class Matrix(Frozen):
    """Immutable dense matrix with Gaussian-rational entries: the input of ``span_rank``.

    Matrices of any shape are allowed, including zero rows or columns.
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

    def rref(self) -> RrefResult:
        """Reduced row echelon form over the Gaussian rationals.

        Zero rows are moved to the bottom. The rows are realified
        (``_realified``) and eliminated as real rows; the real reduced rows
        whose pivot is an re column 2j are the realified complex reduced rows,
        read back by ``_complex_row``, and the others are dropped. The reduced
        form of a matrix is unique, so the result does not depend on how
        ``sparse_rref`` picks its pivot rows.
        """
        rows = [r for row in self.entries for r in _realified(dict(enumerate(row)))]
        reduced, pivots = sparse_rref(rows)
        entries = tuple(
            _complex_row(row, self.ncols) for row, c in zip(reduced, pivots) if c % 2 == 0
        )
        pivots = tuple(c // 2 for c in pivots if c % 2 == 0)
        entries += ((GR_ZERO,) * self.ncols,) * (self.nrows - len(pivots))
        return RrefResult(Matrix(self.nrows, self.ncols, entries), len(pivots), pivots)

    def rank(self) -> int:
        return self.rref().rank


def sparse_rref(rows: Sequence[dict[Any, Exact]]) -> tuple[list[dict[Any, Fraction]], list[Any]]:
    """Exact Gauss-Jordan elimination of real sparse rows ``{column: nonzero int or Fraction}``.

    Returns the nonzero rows of the reduced row echelon form in pivot order,
    with their pivot columns; the form is unique, so neither depends on the
    order of elimination. Every result entry is a ``Fraction``, also for a
    row of ``int``s. The input rows are not modified.

    The work is done on integers. A rational row is scaled by the lcm of its
    denominators and divided by the gcd of its entries; an all-``int`` row
    (the graded solvers' rows over integral inputs) is only divided. Each
    reduced row is divided by its pivot entry only at the end, so
    ``Fraction``s are built only for the entries of the result.
    """
    reduced = _integer_rref([_primitive(row) for row in rows if row])
    pivots = [c for c, _ in reduced]
    return [{j: Fraction(x, row[c]) for j, x in row.items()} for c, row in reduced], pivots


def _realified(row: dict[int, GaussianRational]) -> tuple[dict[int, Exact], dict[int, Exact]]:
    """The complex row a as the real rows a and i*a over interleaved (re, im) columns 2j, 2j + 1.

    Zero entries write nothing. The two rows
    span the realified complex span of a, so the real reduced rows of
    realified rows whose pivot is an re column are the realified complex
    reduced rows. Their real kernel is the realified *conjugate* of the
    complex kernel: they kill z = x + iy exactly when sum_j conj(a_j) z_j = 0.
    """
    a: dict[int, Exact] = {}
    ia: dict[int, Exact] = {}
    for j, z in row.items():
        if z.re:
            a[2 * j] = ia[2 * j + 1] = z.re
        if z.im:
            a[2 * j + 1] = z.im
            ia[2 * j] = -z.im
    return a, ia


def _complex_row(row: dict[int, Fraction], m: int) -> tuple[GaussianRational, ...]:
    """The m complex entries of a real row over ``_realified``'s columns: (re, im) at 2j, 2j + 1."""
    zero = Fraction(0)
    return tuple(GaussianRational(row.get(2 * j, zero), row.get(2 * j + 1, zero))
                 for j in range(m))


def _primitive(row: dict[Any, Exact]) -> dict[Any, int]:
    """The nonzero row as integers with no common factor, up to sign, in a new dict.

    An all-``int`` row takes one gcd pass; a row with a ``Fraction`` is first
    scaled by the lcm of its denominators. The result is always a copy,
    because ``_integer_rref`` edits its rows in place.
    """
    try:
        g = gcd(*row.values())
    except TypeError:  # a Fraction entry
        scale = lcm(*(x.denominator for x in row.values()))
        row = {j: x.numerator * (scale // x.denominator) for j, x in row.items()}
        g = gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g != 1 else dict(row)


def _integer_rref(rows: list[dict[Any, int]]) -> list[tuple[Any, dict[Any, int]]]:
    """Fraction-free Gauss-Jordan on primitive integer rows: (pivot column, row) in pivot order.

    ``holders`` maps each column still to come to the ids of the rows with a
    nonzero there, kept up to date on fill-in and cancellation, so a column's
    work visits only its holders. The pivot row is the shortest holder that
    is not a pivot row yet (the lowest id on ties). Another holder with entry
    f is cleared with the pivot entry a as (a/g) row - (f/g) pivot row,
    g = gcd(a, f), and divided by the gcd of its entries. A reduced row is
    zero in every other pivot column.
    """
    holders: dict[Any, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    used = [False] * len(rows)
    order = []
    for c in sorted(holders):
        ids = holders.pop(c)
        candidates = [(len(rows[i]), i) for i in ids if not used[i]]
        if not candidates:
            continue
        best = min(candidates)[1]
        used[best] = True
        prow = rows[best]
        a = prow[c]
        for i in ids:
            if i == best:
                continue
            row = rows[i]
            g = gcd(a, row[c])
            s, t = a // g, row[c] // g
            if s != 1:
                row = rows[i] = {j: s * x for j, x in row.items()}
            for j, x in prow.items():
                y = row.get(j)
                if y is None:
                    row[j] = -t * x
                    h = holders.get(j)
                    if h is not None:
                        h.add(i)
                elif y := y - t * x:
                    row[j] = y
                else:
                    del row[j]
                    h = holders.get(j)
                    if h is not None:
                        h.discard(i)
            if row:
                g = gcd(*row.values())
                if g != 1:
                    rows[i] = {j: x // g for j, x in row.items()}
        order.append((c, best))
    return [(c, rows[i]) for c, i in order]


def sparse_nullspace(rows: Sequence[dict[int, Exact]], ncols: int) -> list[dict[int, Fraction]]:
    """Basis of the right kernel of real sparse rows over ``ncols`` columns, as sparse vectors.

    Deterministic: each free column, taken in column order, is set to one in
    turn and the pivot unknowns are read off the reduced rows. A vector is
    ``{column: nonzero Fraction}``: its free column, then the pivot column of
    each reduced row that holds the free column. The count always equals
    ``ncols - rank``. The entries are read straight off the integer reduced
    rows, one ``Fraction(-x, pivot entry)`` per nonzero x off the pivot.
    """
    reduced = _integer_rref([_primitive(row) for row in rows if row])
    pivot_set = {p for p, _ in reduced}
    basis = {f: {f: Fraction(1)} for f in range(ncols) if f not in pivot_set}
    for p, row in reduced:
        a = row[p]
        for j, x in row.items():
            if j != p:  # a reduced row is zero in every other pivot column
                basis[j][p] = Fraction(-x, a)
    return list(basis.values())


def span_rank(vectors: Sequence[Sequence[Scalar]], width: int) -> int:
    """Rank of the span of the given coefficient vectors."""
    if not vectors:
        return 0
    m = Matrix.from_rows(vectors)
    if m.ncols != width:
        raise ValidationError("vector width mismatch")
    return m.rank()


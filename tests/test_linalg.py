"""Exact scalar and matrix arithmetic."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelalg.errors import ValidationError
from siegelalg.linalg import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Matrix,
    _realified,
    gr,
    sparse_nullspace,
    sparse_rref,
    span_rank,
)
from matrix_oracles import apply, as_rows, conj_transpose, dense_rref, identity, matmul, rank, zeros


class TestGaussianRational:
    def test_arithmetic_exact(self):
        a = gr(Fraction(1, 3), Fraction(1, 2))
        b = gr(Fraction(2, 3), Fraction(-1, 2))
        assert a + b == gr(1, 0)
        assert (a * b).re == Fraction(2, 9) + Fraction(1, 4)
        assert a - a == gr(0, 0)

    def test_division_roundtrip(self):
        a = gr(Fraction(3, 7), Fraction(-5, 2))
        b = gr(Fraction(1, 4), Fraction(2, 3))
        assert (a / b) * b == a

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            gr(1) / gr(0)

    def test_conjugation_involution(self):
        a = gr(Fraction(2, 5), Fraction(-7, 3))
        assert a.conjugate().conjugate() == a

    def test_abs2_nonnegative_and_zero_iff_zero(self):
        assert gr(0, 0).abs2() == 0
        z = gr(Fraction(-1, 2), Fraction(1, 3))
        assert z.abs2() == Fraction(1, 4) + Fraction(1, 9)
        assert z.abs2() > 0

    def test_coercion(self):
        assert gr(1, 2) * 2 == gr(2, 4)
        assert 1 + gr(0, 1) == gr(1, 1)
        assert GR_I * GR_I == gr(-1)


PARTS = st.sampled_from([Fraction(0), Fraction(1), Fraction(-2)]) | st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
OPERANDS = st.one_of(st.integers(-3, 3), PARTS, st.builds(GaussianRational, PARTS, PARTS))


@given(st.builds(GaussianRational, PARTS, PARTS), OPERANDS)
@settings(derandomize=True, max_examples=300, deadline=None)
def test_product_matches_the_four_product_formula(z, y):
    """The real-factor shortcuts of ``*`` agree with (a + bi)(c + di) in full, in both orders."""
    w = GaussianRational.of(y)
    expected = (z.re * w.re - z.im * w.im, z.re * w.im + z.im * w.re)
    for product in (z * y, y * z):
        assert type(product) is GaussianRational
        assert (product.re, product.im) == expected
        assert type(product.re) is Fraction and type(product.im) is Fraction


class TestRref:
    def test_identity(self):
        res = Matrix.from_rows(identity(3)).rref()
        assert res.rank == 3
        assert res.pivots == (0, 1, 2)

    def test_zero_matrix(self):
        res = Matrix.from_rows(zeros(2, 2)).rref()
        assert res.rank == 0
        assert res.pivots == ()

    def test_dependent_rows(self):
        m = Matrix.from_rows([[1, 2], [2, 4]])
        res = m.rref()
        assert res.rank == 1
        assert res.pivots == (0,)

    def test_idempotent(self):
        m = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        once = m.rref().matrix
        assert once.rref().matrix == once


def dense(vectors, ncols, zero):
    """Sparse kernel vectors ``{column: nonzero scalar}`` as dense tuples over ``ncols`` columns."""
    assert all(0 <= j < ncols and x != zero for v in vectors for j, x in v.items())
    return [tuple(v.get(j, zero) for j in range(ncols)) for v in vectors]


def complex_kernel(rows, ncols):
    """The complex kernel of sparse Gaussian rows, taken through their realified rows.

    The realified rows kill exactly the conjugates of the complex kernel, so
    each real kernel vector whose free column is an re column 2f (its first
    key) is read back conjugated; with f set to one it is the complex vector
    of free column f.
    """
    real = [r for row in rows for r in _realified(row)]
    zero = Fraction(0)
    return [
        {j: GaussianRational(v.get(2 * j, zero), -v.get(2 * j + 1, zero))
         for j in {c // 2 for c in v}}
        for v in sparse_nullspace(real, 2 * ncols) if next(iter(v)) % 2 == 0
    ]


def nullspace(m, ncols):
    """The kernel of the rows ``m`` over ``ncols`` columns, through its realified rows, each basis
    vector a dense tuple."""
    rows = [{j: x for j, x in enumerate(row) if x} for row in m]
    return dense(complex_kernel(rows, ncols), ncols, GR_ZERO)


class TestNullspace:
    def test_identity_has_trivial_kernel(self):
        assert nullspace(identity(2), 2) == []

    def test_single_equation(self):
        m = as_rows([[1, -1]])
        (v,) = nullspace(m, 2)
        assert v == (GR_ONE, GR_ONE)

    def test_rank_one(self):
        m = as_rows([[1, 2], [2, 4]])
        (v,) = nullspace(m, 2)
        # free column 1 set to one
        assert v == (gr(-2), GR_ONE)

    def test_zero_rows_matrix(self):
        m = zeros(0, 3)
        basis = nullspace(m, 3)
        assert len(basis) == 3


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def small_matrices(draw):
    nrows = draw(st.integers(min_value=1, max_value=4))
    ncols = draw(st.integers(min_value=1, max_value=4))
    rows = [
        [draw(small_fractions) for _ in range(ncols)] for _ in range(nrows)
    ]
    return as_rows(rows)


@given(small_matrices())
@settings(derandomize=True, max_examples=60, deadline=None)
def test_rank_nullity(m):
    assert rank(m) + len(nullspace(m, len(m[0]))) == len(m[0])


@given(small_matrices())
@settings(derandomize=True, max_examples=60, deadline=None)
def test_nullspace_vectors_annihilated(m):
    for v in nullspace(m, len(m[0])):
        assert all(x.is_zero() for x in apply(m, v))


@given(small_matrices(), st.randoms(use_true_random=False))
@settings(derandomize=True, max_examples=40, deadline=None)
def test_row_permutation_invariance(m, rnd):
    permuted = list(m)
    rnd.shuffle(permuted)
    assert rank(permuted) == rank(m)
    assert len(nullspace(permuted, len(m[0]))) == len(nullspace(m, len(m[0])))


@given(small_matrices())
@settings(derandomize=True, max_examples=40, deadline=None)
def test_rref_idempotence(m):
    reduced = Matrix.from_rows(m).rref().matrix
    assert reduced.rref().matrix == reduced


# Mostly zeros, as in the solver systems.
sparse_fractions = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), small_fractions)
sparse_gaussians = st.builds(GaussianRational, sparse_fractions, sparse_fractions)


@st.composite
def kernel_inputs(draw, entries, zero):
    """(ncols, rows) of any shape, including 0 x n and n x 0, with zero and duplicate rows."""
    ncols = draw(st.integers(min_value=0, max_value=6))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=6))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        extra = list(draw(st.sampled_from(rows))) if rows and draw(st.booleans()) else [zero] * ncols
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), extra)
    return ncols, rows


@st.composite
def invertible_inputs(draw, entries, one):
    """(n, rows) of a full-rank n x n matrix: unit lower times invertible upper triangular."""
    zero = one - one
    n = draw(st.integers(min_value=1, max_value=5))
    pivot = entries.filter(lambda x: x != zero)
    lower = [[one if i == j else draw(entries) if j < i else zero for j in range(n)] for i in range(n)]
    upper = [[draw(pivot) if i == j else draw(entries) if j > i else zero for j in range(n)]
             for i in range(n)]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero
            for t in range(n):
                acc = acc + lower[i][t] * upper[t][j]
            row.append(acc)
        rows.append(row)
    return n, rows


def _check_against_reference(ncols, rows, one):
    zero = one - one
    expected, pivots = dense_rref(rows, ncols, one)
    sparse = [{j: x for j, x in enumerate(row) if x != zero} for row in rows]
    before = [dict(row) for row in sparse]
    matrix = Matrix(
        len(rows), ncols, tuple(tuple(GaussianRational.of(x) for x in row) for row in rows)
    )
    if isinstance(one, Fraction):
        reduced, got_pivots = sparse_rref(sparse)
        nullspace = sparse_nullspace(sparse, ncols)
    else:  # complex rows are eliminated through their realified rows
        res = matrix.rref()
        reduced = [{j: x for j, x in enumerate(row) if x} for row in res.matrix.entries[: res.rank]]
        got_pivots = list(res.pivots)
        nullspace = complex_kernel(sparse, ncols)
    assert sparse == before
    assert got_pivots == pivots
    assert [[row.get(j, zero) for j in range(ncols)] for row in reduced] == expected[: len(pivots)]
    assert all(x != zero for row in reduced for x in row.values())
    assert len(nullspace) == ncols - len(pivots)
    # the reference kernel: each free column set to one, the pivots read off the dense form
    reference = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [zero] * ncols
        v[f] = one
        for r, p in enumerate(pivots):
            v[p] = -expected[r][f]
        reference.append(tuple(v))
    assert dense(nullspace, ncols, zero) == reference

    if isinstance(one, Fraction):
        # each row scaled to ints, as the solvers assemble integral systems, enters the
        # kernel as it is: the results equal those for the same rows as Fractions
        ints = [{j: int(x * lcm(*(y.denominator for y in row.values()))) for j, x in row.items()}
                for row in sparse]
        as_fractions = [{j: Fraction(x) for j, x in row.items()} for row in ints]
        assert all(type(x) is int for row in ints for x in row.values())
        assert sparse_rref(ints) == sparse_rref(as_fractions) == (reduced, got_pivots)
        int_nullspace = sparse_nullspace(ints, ncols)
        assert int_nullspace == sparse_nullspace(as_fractions, ncols) == nullspace
        assert all(type(x) is Fraction for row in sparse_rref(ints)[0] for x in row.values())
        assert all(type(x) is Fraction for v in int_nullspace for x in v.values())

    res = matrix.rref()
    assert res.rank == len(pivots)
    assert res.pivots == tuple(pivots)
    assert res.matrix.entries == tuple(
        tuple(GaussianRational.of(x) for x in row) for row in expected
    )
    return len(pivots)


@given(kernel_inputs(sparse_fractions, Fraction(0)))
@settings(derandomize=True, max_examples=100, deadline=None)
def test_kernel_matches_dense_reference_rational(case):
    _check_against_reference(*case, Fraction(1))


@given(kernel_inputs(sparse_gaussians, GR_ZERO))
@settings(derandomize=True, max_examples=100, deadline=None)
def test_kernel_matches_dense_reference_gaussian(case):
    _check_against_reference(*case, GR_ONE)


@given(st.one_of(
    invertible_inputs(sparse_fractions, Fraction(1)).map(lambda c: (*c, Fraction(1))),
    invertible_inputs(sparse_gaussians, GR_ONE).map(lambda c: (*c, GR_ONE)),
))
@settings(derandomize=True, max_examples=50, deadline=None)
def test_kernel_full_rank_square(case):
    n, rows, one = case
    assert _check_against_reference(n, rows, one) == n


# Entries as wide as 64 bits, with a different denominator in almost every entry.
wide_fractions = st.builds(Fraction, st.integers(-2**64, 2**64), st.integers(1, 2**64))
wide_sparse = st.one_of(st.just(Fraction(0)), wide_fractions)
wide_gaussians = st.builds(GaussianRational, wide_sparse, wide_fractions.filter(bool))
REAL_COEFFS = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(-7, 3)])
GAUSSIAN_COEFFS = REAL_COEFFS | st.sampled_from([GR_I, gr(Fraction(2, 5), -3)])


@st.composite
def wide_inputs(draw, entries, coeffs):
    """(ncols, rows) up to 12 x 14: drawn rows, then copies and combinations of them.

    A combination s*a + t*b of two drawn rows cancels to zero in elimination;
    with s = 1, t = 0 it is a duplicate row.
    """
    ncols = draw(st.integers(min_value=1, max_value=14))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=1, max_size=8))
    base = list(rows)
    for _ in range(draw(st.integers(min_value=0, max_value=12 - len(base)))):
        a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
        s, t = draw(coeffs), draw(coeffs)
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))),
                    [x * s + y * t for x, y in zip(a, b)])
    return ncols, rows


def _check_typed(ncols, rows, one):
    """``_check_against_reference``, and every result entry has the type of ``one``, with
    ``Fraction`` parts for a ``GaussianRational``."""
    rank = _check_against_reference(ncols, rows, one)
    zero = one - one
    if isinstance(one, Fraction):
        reduced, _ = sparse_rref([{j: x for j, x in enumerate(row) if x != zero} for row in rows])
        entries = [x for row in reduced for x in row.values()]
    else:
        entries = [x for row in Matrix.from_rows(rows).rref().matrix.entries for x in row]
        assert all(type(x.re) is Fraction and type(x.im) is Fraction for x in entries)
    assert all(type(x) is type(one) for x in entries)
    return rank


@given(wide_inputs(wide_sparse, REAL_COEFFS))
@settings(derandomize=True, max_examples=60, deadline=None)
def test_kernel_matches_dense_reference_wide_rational(case):
    _check_typed(*case, Fraction(1))


@given(wide_inputs(wide_gaussians, GAUSSIAN_COEFFS))
@settings(derandomize=True, max_examples=40, deadline=None)
def test_kernel_matches_dense_reference_wide_gaussian(case):
    _check_typed(*case, GR_ONE)


def test_kernel_negative_pivots():
    """Negative leading entries, a scaled duplicate and a row that cancels to zero."""
    rows = [
        [Fraction(-2), Fraction(4), Fraction(-6)],
        [Fraction(-3, 7), Fraction(0), Fraction(9, 5)],
        [Fraction(1), Fraction(-2), Fraction(3)],
        [Fraction(-17, 7), Fraction(4), Fraction(-21, 5)],
    ]
    assert _check_typed(3, rows, Fraction(1)) == 2
    complex_rows = [[GaussianRational.of(x) * gr(-1, 2) for x in row] for row in rows]
    assert _check_typed(3, complex_rows, GR_ONE) == 2


class TestMatrixStructure:
    def test_matmul_and_conj_transpose(self):
        a = ((gr(0, 1), gr(1)),)
        assert conj_transpose(a)[0][0] == gr(0, -1)
        prod = matmul(a, conj_transpose(a))
        assert prod[0][0] == gr(2)


@pytest.mark.parametrize("make, message", [
    (lambda: Matrix(1, 1, ()), "row count mismatch"),
    (lambda: Matrix(1, 2, ((GR_ONE,),)), "column count mismatch"),
    (lambda: span_rank([[1, 2]], 3), "vector width mismatch"),
])
def test_shape_errors_are_named(make, message):
    with pytest.raises(ValidationError) as exc:
        make()
    assert str(exc.value) == message

"""Polynomials as exact parts, and fraction-free generic rank."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelalg.errors import ValidationError
from siegelalg.hermitian import _Lcg
from siegelalg.linalg import GR_ZERO, GaussianRational, _exact
from siegelalg.poly import Polynomial, _divide_exact, generic_rank

from matrix_oracles import poly_add, poly_mul, poly_scale, polynomial_generic_rank, rank, variable


def x(i, n=2):
    """The variable x_i as a real polynomial."""
    return {tuple(int(j == i) for j in range(n)): 1}


def evaluate(rows, point):
    """The matrix of values of ``rows`` at ``point``: the pointwise oracle for generic rank."""
    pt = [GaussianRational.of(v) for v in point]

    def value(p):
        total = GR_ZERO
        for mono, c in p.items():
            c = GaussianRational.of(c)
            for v, e in zip(pt, mono):
                for _ in range(e):
                    c = c * v
            total = total + c
        return total

    return [[value(p) for p in row] for row in rows]


class TestPolynomial:
    def test_from_parts_drops_cancelled_terms_and_sorts(self):
        p = Polynomial.from_parts(
            2,
            {(1, 1): 2, (0, 0): 0, (0, 1): Fraction(0), (1, 0): Fraction(-1, 2)},
            {(0, 1): 5, (0, 0): Fraction(0), (2, 0): 0},
        )
        assert p.terms == (((1, 0), Fraction(-1, 2), 0), ((0, 1), 0, 5), ((1, 1), 2, 0))
        assert Polynomial.from_parts(2, {(1, 0): 0}, {(1, 0): Fraction(0)}).is_zero()

    # the exact division of generic_rank's Bareiss steps, on integer polynomials
    def test_exact_division(self):
        # (x + y)(x - y) / (x + y), and 6xy / (-3y)
        assert _divide_exact({(2, 0): 1, (0, 2): -1}, {(1, 0): 1, (0, 1): 1}) == {
            (1, 0): 1, (0, 1): -1,
        }
        assert _divide_exact({(1, 1): 6}, {(0, 1): -3}) == {(1, 0): -2}

    def test_inexact_division_raises(self):
        with pytest.raises(ValidationError):
            _divide_exact({(1, 0): 1, (0, 0): 1}, {(0, 1): 1})  # (x + 1) / y
        with pytest.raises(ValidationError):
            _divide_exact({(1, 0): 3}, {(0, 0): 2})  # 3x / 2 is not integral
        with pytest.raises(ValidationError):
            _divide_exact({(2, 0): 1, (0, 0): 1}, {(1, 0): 1, (0, 0): 1})  # (x^2 + 1) / (x + 1)

    def test_format_deterministic(self):
        p = Polynomial.from_parts(2, {(1, 1): 2, (2, 0): 1, (0, 0): Fraction(-1, 2)}, {})
        assert p.format(["z1", "w1"]) == "-1/2 + z1^2 + 2*z1*w1"


class TestGenericRank:
    def test_diagonal_indeterminates(self):
        m = [
            [x(0), {}],
            [{}, x(1)],
        ]
        assert generic_rank(m, 2) == 2

    def test_repeated_row(self):
        row = [x(0), x(1)]
        m = [row, row]
        assert generic_rank(m, 2) == 1

    @pytest.mark.parametrize("rows", [[[x(0)], [x(0), x(1)]], [[x(0), x(1)], [x(0)]]],
                             ids=["short-first", "long-first"])
    def test_ragged_rows_are_refused(self, rows):
        with pytest.raises(ValidationError, match="column count mismatch"):
            generic_rank(rows, 2)

    def test_scalar_action_row(self):
        # evaluation row of the scalar subalgebra acting on R^2
        m = [[x(0), x(1)]]
        assert generic_rank(m, 2) == 1

    def test_matches_max_rank_over_sampled_points(self):
        # oracle: generic rank equals the maximum pointwise rank over
        # random rational interior points of the positive quadrant
        m = [[x(0), x(1)]]
        rng = _Lcg(7)
        best = 0
        for _ in range(20):
            pt = [abs(rng.next_fraction()) + 1, abs(rng.next_fraction()) + 1]
            best = max(best, rank(evaluate(m, pt)))
        assert generic_rank(m, 2) == best == 1

    def test_generic_rank_dominates_pointwise(self):
        m = [[x(0), x(1)], [x(1), x(0)]]
        g = generic_rank(m, 2)
        rng = _Lcg(3)
        for _ in range(10):
            pt = [rng.next_fraction(), rng.next_fraction()]
            assert rank(evaluate(m, pt)) <= g

    def test_rank_deficient_square(self):
        # rows proportional over the function field
        m = [
            [{(2, 0): 1}, {(1, 1): 1}],
            [{(1, 1): 1}, {(0, 2): 1}],
        ]
        assert generic_rank(m, 2) == 1


@st.composite
def linear_form_rows(draw):
    """Rows of k real linear forms in k indeterminates, k <= 4, with exact coefficients.

    A coefficient is an ``int`` where its denominator is 1, a ``Fraction`` otherwise.
    """
    k = draw(st.integers(1, 4))
    units = [tuple(int(i == l) for i in range(k)) for l in range(k)]
    coeff = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3])).map(_exact)
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = []
        for _ in range(k):
            # sparse forms, so that rank deficiency and zero pivots occur
            support = draw(st.lists(st.integers(0, k - 1), max_size=2))
            row.append({units[l]: draw(coeff) for l in support})
        rows.append(row)
    if draw(st.booleans()):
        # a combination of the first rows, with a nonconstant coefficient
        a, b = draw(coeff), draw(st.integers(0, k - 1))
        combined = [
            poly_add(poly_scale(p, a), poly_mul(q, variable(k, b))) for p, q in zip(rows[0], rows[-1])
        ]
        rows.append([{m: _exact(c.re) for m, c in p.items()} for p in combined])
    return k, rows


@given(case=linear_form_rows())
@settings(derandomize=True, max_examples=40, deadline=None)
def test_generic_rank_matches_polynomial_reference(case):
    k, rows = case
    expected = polynomial_generic_rank(rows, k)
    assert generic_rank(rows, k) == expected
    # the same rows as ``Fraction`` dicts
    as_fractions = [[{m: Fraction(c) for m, c in p.items()} for p in row] for row in rows]
    assert generic_rank(as_fractions, k) == expected

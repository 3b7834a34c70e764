"""Polynomial arithmetic and fraction-free generic rank."""

from fractions import Fraction

import pytest

from siegelalg.errors import ValidationError
from siegelalg.hermitian import _Lcg
from siegelalg.linalg import GR_ZERO, GaussianRational, Matrix, gr
from siegelalg.poly import Polynomial, generic_rank


def x(i, n=2):
    return Polynomial.variable(n, i)


def evaluate(rows, point):
    """The matrix of values of ``rows`` at ``point``: the pointwise oracle for generic rank."""
    pt = [GaussianRational.of(v) for v in point]

    def value(p):
        total = GR_ZERO
        for mono, c in p.terms:
            for v, e in zip(pt, mono):
                for _ in range(e):
                    c = c * v
            total = total + c
        return total

    return Matrix.from_rows([[value(p) for p in row] for row in rows])


class TestPolynomial:
    def test_add_mul(self):
        p = x(0) + x(1)
        q = x(0) - x(1)
        assert (p * q).as_dict() == {(2, 0): gr(1), (0, 2): gr(-1)}

    def test_degree_tracking(self):
        assert Polynomial.zero(2).total_degree() == -1
        assert Polynomial.constant(2, 5).total_degree() == 0
        assert (x(0) * x(1) * x(1)).total_degree() == 3

    def test_exact_division(self):
        p = (x(0) + x(1)) * (x(0) - x(1))
        assert p.divide_exact(x(0) + x(1)) == x(0) - x(1)

    def test_inexact_division_raises(self):
        with pytest.raises(ValidationError):
            (x(0) + Polynomial.constant(2, 1)).divide_exact(x(1))

    def test_format_deterministic(self):
        p = x(0) * x(0) + x(0) * x(1) * 2 - Polynomial.constant(2, Fraction(1, 2))
        assert p.format(["z1", "w1"]) == "-1/2 + z1^2 + 2*z1*w1"


class TestGenericRank:
    def test_diagonal_indeterminates(self):
        m = [
            [x(0), Polynomial.zero(2)],
            [Polynomial.zero(2), x(1)],
        ]
        assert generic_rank(m, 2) == 2

    def test_repeated_row(self):
        row = [x(0), x(1)]
        m = [row, row]
        assert generic_rank(m, 2) == 1

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
            best = max(best, evaluate(m, pt).rank())
        assert generic_rank(m, 2) == best == 1

    def test_generic_rank_dominates_pointwise(self):
        m = [[x(0), x(1)], [x(1), x(0)]]
        g = generic_rank(m, 2)
        rng = _Lcg(3)
        for _ in range(10):
            pt = [rng.next_fraction(), rng.next_fraction()]
            assert evaluate(m, pt).rank() <= g

    def test_rank_deficient_square(self):
        # rows proportional over the function field
        m = [
            [x(0) * x(0), x(0) * x(1)],
            [x(0) * x(1), x(1) * x(1)],
        ]
        assert generic_rank(m, 2) == 1

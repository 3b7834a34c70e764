"""Exact bound-chain evaluation and the eigenvalue-pattern skew count."""

from fractions import Fraction

import pytest

from siegelalg.bounds import (
    SWEEP_MAX,
    bound_chain,
    closed_form_bound,
    closed_form_sweep,
    s_from_multiplicities,
)
from siegelalg.cones import catalog_cone
from siegelalg.errors import ValidationError
from siegelalg.graded import SiegelDomainSpec, solve_L
from siegelalg.hermitian import HermitianFamily
from siegelalg.linalg import Matrix


class TestBoundChain:
    def test_first_branch_value(self):
        # k=2, n=4 family with vanishing upper components but g1 capped at k
        report = bound_chain(4, 2, s=2, dim_g_omega=2, dim_g_half=0, dim_g_1=2)
        assert report.component_bound == 12

    def test_second_branch_value(self):
        report = bound_chain(5, 2, s=5, dim_g_omega=2, dim_g_half=0, dim_g_1=2)
        assert report.component_bound == 17

    def test_lorentz_branch_value(self):
        report = bound_chain(4, 3, s=1, dim_g_omega=4, dim_g_half=0, dim_g_1=3)
        assert report.component_bound == 13

    def test_closed_form_value(self):
        # oracle: direct rational evaluation 27/2 - 3*21/2 + 33
        assert closed_form_bound(4, 3) == Fraction(27, 2) - Fraction(63, 2) + 33 == 15

    def test_chain_is_monotone_under_caps(self):
        m = 5 - 2
        report = bound_chain(5, 2, s=4, dim_g_omega=2, dim_g_half=2 * m, dim_g_1=2)
        assert report.component_bound <= report.graded_cap_bound
        assert report.graded_cap_bound <= report.skew_cap_bound
        assert report.skew_cap_bound <= report.closed_form_bound

    def test_domain_violations(self):
        with pytest.raises(ValidationError):
            bound_chain(2, 3, 0, 1, 0, 0)
        with pytest.raises(ValidationError):
            bound_chain(4, 2, -1, 1, 0, 0)


class TestSweep:
    def test_margin_at_five_three(self):
        # oracle: 3*9/2 - 3*25/2 + 46 = 22, one below the target 23
        entries = {(e.n, e.k): e for e in closed_form_sweep(6)}
        assert entries[(5, 3)].bound == 22
        assert entries[(5, 3)].margin == -1

    def test_all_margins_negative_to_sixteen(self):
        entries = closed_form_sweep(16)
        assert all(e.margin < 0 for e in entries)
        assert {(e.n, e.k) for e in entries} == {
            (n, k) for n in range(5, 17) for k in range(3, n + 1)
        }

    def test_small_n_not_swept(self):
        assert all(e.n >= 5 for e in closed_form_sweep(7))
        with pytest.raises(ValidationError):
            closed_form_sweep(4)

    def test_sweep_stops_at_limit(self):
        assert closed_form_sweep(SWEEP_MAX)[-1].n == SWEEP_MAX
        with pytest.raises(ValidationError):
            closed_form_sweep(SWEEP_MAX + 1)


class TestSkewCount:
    @pytest.mark.parametrize(
        "n,mults,expect",
        [
            (4, (1, 1), 2),
            (5, (1, 2), 5),
            (5, (3,), 9),
            (6, (1, 1, 2), 6),
        ],
    )
    def test_values(self, n, mults, expect):
        assert s_from_multiplicities(n, mults) == expect

    def test_invalid_partition(self):
        with pytest.raises(ValidationError):
            s_from_multiplicities(4, (1, 2))
        with pytest.raises(ValidationError):
            s_from_multiplicities(4, (0, 2))

    def _partitions(self, total):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in self._partitions(total - first):
                if not rest or rest[0] >= first:
                    yield (first,) + rest

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_oracle_equivalence_with_solver(self, n):
        # formula vs exact kernel computation for (identity, diagonal) families
        cone = catalog_cone("omega1")
        for mults in self._partitions(n - 2):
            eigs = []
            for value, mult in enumerate(mults, start=1):
                eigs.extend([value] * mult)
            second = Matrix.from_rows(
                [[eigs[i] if i == j else 0 for j in range(n - 2)] for i in range(n - 2)]
            )
            fam = HermitianFamily(
                [Matrix.from_rows([[1 if i == j else 0 for j in range(n - 2)] for i in range(n - 2)]), second]
            )
            spec = SiegelDomainSpec(n, 2, cone, fam)
            assert solve_L(spec) == s_from_multiplicities(n, mults)

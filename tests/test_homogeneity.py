"""Orbit-rank analysis of the cone action."""

from fractions import Fraction

import pytest

from siegelalg import catalog
from siegelalg.cones import catalog_cone, classify_point, Region
from siegelalg.graded import SiegelDomainSpec, a_part_basis, solve_g0
from siegelalg.hermitian import HermitianFamily, _Lcg
from siegelalg.homogeneity import (
    GENERICALLY_OPEN_ORBITS,
    NOT_TRANSITIVE,
    generic_orbit_rank,
    homogeneity_verdict,
)
from matrix_oracles import (
    as_rows, identity, poly_add, poly_scale, polynomial_generic_rank, rank, variable, zeros,
)


def diag(*vals):
    n = len(vals)
    return as_rows([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])


def fam(*comps):
    return HermitianFamily(comps)


def d2_spec(n=4):
    return SiegelDomainSpec(
        n, 2, catalog_cone("omega1"), fam(identity(n - 2), identity(n - 2))
    )


def d1_spec(n=4):
    return SiegelDomainSpec(
        n, 2, catalog_cone("omega1"), fam(identity(n - 2), zeros(n - 2, n - 2))
    )


def d6_spec(v):
    return SiegelDomainSpec(4, 3, catalog_cone("omega3"), fam(diag(v[0]), diag(v[1]), diag(v[2])))


def d5_spec(v):
    return SiegelDomainSpec(4, 3, catalog_cone("omega2"), fam(diag(v[0]), diag(v[1]), diag(v[2])))


def a_parts(spec):
    return a_part_basis(solve_g0(spec))


def verdict_of(spec):
    return homogeneity_verdict(spec, solve_g0(spec))


def real_diag(*vals):
    return tuple(tuple(Fraction(x if i == j else 0) for j in range(len(vals))) for i, x in enumerate(vals))


IDENTITY2 = real_diag(1, 1)


class TestAPart:
    def test_d2_scalars(self):
        basis = a_parts(d2_spec())
        assert len(basis) == 1
        # canonical representative is the identity direction
        assert basis[0] == IDENTITY2

    def test_d1_diagonal(self):
        # oracle: project the weight-0 pairs; both diagonal directions survive
        basis = a_parts(d1_spec())
        assert len(basis) == 2

    def test_d6_dimension(self):
        assert len(a_parts(d6_spec((1, 1, 0)))) == 3

    def test_no_pairs_no_basis(self):
        assert a_part_basis(()) == ()


class TestGenericRank:
    def test_scalars_rank_one(self):
        assert generic_orbit_rank((IDENTITY2,), 2) == 1

    def test_diagonal_full(self):
        basis = (real_diag(1, 0), real_diag(0, 1))
        assert generic_orbit_rank(basis, 2) == 2

    def test_shared_eigenvalue_block(self):
        # diagonal matrices with the first two entries tied: rank 2 < 3
        basis = (real_diag(1, 1, 0), real_diag(0, 0, 1))
        assert generic_orbit_rank(basis, 3) == 2

    def _sampled_maximum(self, spec, basis):
        rng = _Lcg(13)
        best = 0
        found = 0
        while found < 10:
            raw = [abs(rng.next_fraction()) + Fraction(1, 4) for _ in range(spec.k)]
            # push toward the cone axis so Lorentzian cones get interior points
            point = [raw[0] + sum(raw[1:], Fraction(0))] + raw[1:]
            if classify_point(spec.cone, point) is not Region.INTERIOR:
                continue
            found += 1
            rows = [[sum(aij * xj for aij, xj in zip(row, point)) for row in a] for a in basis]
            best = max(best, rank(rows))
        return best

    def test_rank_matches_sampled_maximum(self):
        spec = d1_spec()
        basis = a_parts(spec)
        symbolic = generic_orbit_rank(basis, spec.k)
        assert symbolic == self._sampled_maximum(spec, basis) == spec.k

    def test_rank_matches_sampled_maximum_across_catalog(self):
        specs = [
            d2_spec(),
            d5_spec((1, 0, 0)),
            d5_spec((1, 1, 0)),
            d6_spec((1, 1, 0)),
            d6_spec((2, 1, 0)),
        ]
        for spec in specs:
            basis = a_parts(spec)
            assert generic_orbit_rank(basis, spec.k) == self._sampled_maximum(spec, basis)


def orbit_rows(a_basis, k):
    """The rows A_i x of ``generic_orbit_rank``, built in the oracles' polynomial arithmetic."""
    rows = []
    for a in a_basis:
        row = []
        for j in range(k):
            p = {}
            for l in range(k):
                p = poly_add(p, poly_scale(variable(k, l), a[j][l]))
            row.append(p)
        rows.append(row)
    return rows


CANDIDATES = sorted(
    {d for n in range(2, 6) for d in catalog._candidate_ids(n)}, key=lambda d: d.label
)


@pytest.mark.parametrize("domain", CANDIDATES, ids=lambda d: d.label)
def test_orbit_rank_matches_polynomial_reference(domain):
    spec = catalog.build(domain)
    basis = a_part_basis(solve_g0(spec))
    expected = polynomial_generic_rank(orbit_rows(basis, spec.k), spec.k) if basis else 0
    assert generic_orbit_rank(basis, spec.k) == expected


class TestVerdicts:
    def test_d2_not_transitive(self):
        verdict = verdict_of(d2_spec())
        assert verdict.verdict == NOT_TRANSITIVE
        assert verdict.a_part_dim == 1
        assert verdict.generic_rank == 1

    def test_d1_open_orbits(self):
        assert verdict_of(d1_spec()).verdict == GENERICALLY_OPEN_ORBITS

    def test_d6_interior_vector_not_transitive(self):
        verdict = verdict_of(d6_spec((2, 1, 0)))
        assert verdict.verdict == NOT_TRANSITIVE

    def test_d6_boundary_vector_open_orbits(self):
        assert verdict_of(d6_spec((1, 1, 0))).verdict == GENERICALLY_OPEN_ORBITS

    def test_d5_multi_entry_not_transitive(self):
        for v in ((1, 1, 0), (1, 1, 1)):
            assert verdict_of(d5_spec(v)).verdict == NOT_TRANSITIVE

    def test_d5_single_entry_open_orbits(self):
        for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            assert verdict_of(d5_spec(v)).verdict == GENERICALLY_OPEN_ORBITS

    def test_scalar_only_action(self):
        # a scalar-only linear part can never act transitively for k >= 2
        verdict = verdict_of(d2_spec(5))
        assert verdict.a_part_dim == 1
        assert verdict.verdict == NOT_TRANSITIVE

    def test_note_is_honest_about_open_orbits(self):
        verdict = verdict_of(d1_spec())
        assert "not by itself" in verdict.note

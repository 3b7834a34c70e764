"""Hermitian families, exact negative directions, and cone compatibility."""

import pytest

from siegelalg.cones import Region, catalog_cone, classify_point
from siegelalg.errors import ValidationError
from siegelalg.hermitian import (
    COUNTEREXAMPLE,
    VERIFIED_EXACT,
    VERIFIED_ON_SAMPLES,
    HermitianFamily,
    _Lcg,
    evaluate,
    is_omega_hermitian,
    negative_direction,
    validate,
)
from siegelalg.linalg import Matrix, gr


def diag(*vals):
    n = len(vals)
    return Matrix.from_rows([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])


def family(*components):
    return HermitianFamily.from_matrices(list(components))


def real_value(fam, w):
    """H(w, w) as a real vector; its imaginary parts vanish for a Hermitian family."""
    values = evaluate(fam, w)
    assert all(v.im == 0 for v in values)
    return tuple(v.re for v in values)


D6_FORM = family(diag(1), diag(1), diag(0))


class TestValidate:
    def test_ok(self):
        assert validate(family(diag(1, 0), diag(1, 1))) == []

    def test_non_hermitian_reported(self):
        bad = Matrix.from_rows([[gr(0), gr(1)], [gr(0), gr(0)]])
        violations = validate(family(bad))
        assert [(v.component, v.position) for v in violations] == [(0, (1, 0))]

    def test_empty_family_ok(self):
        assert validate(HermitianFamily(2, 0, (Matrix.zeros(0, 0), Matrix.zeros(0, 0)))) == []


class TestPsd:
    def test_psd_cases(self):
        assert negative_direction(diag(1, 0)) is None
        assert negative_direction(diag(0, 0)) is None
        assert negative_direction(diag(2, 1)) is None
        m = diag(1, -1)
        value = evaluate(family(m), negative_direction(m))[0]
        assert value.im == 0 and value.re < 0

    def test_complex_case(self):
        m = Matrix.from_rows([[gr(1), gr(0, 2)], [gr(0, -2), gr(1)]])
        w = negative_direction(m)
        value = evaluate(family(m), w)[0]
        assert value.im == 0 and value.re < 0

    def test_negative_direction_none_for_psd(self):
        assert negative_direction(diag(3, 0)) is None

    def test_negative_direction_zero_diagonal(self):
        m = Matrix.from_rows([[gr(0), gr(1)], [gr(1), gr(0)]])
        w = negative_direction(m)
        value = evaluate(family(m), w)[0]
        assert value.re < 0


class TestOmegaHermitian:
    def test_orthant_exact(self):
        verdict = is_omega_hermitian(family(diag(1, 0), diag(1, 1)), catalog_cone("omega1"))
        assert verdict.kind == VERIFIED_EXACT

    def test_orthant_exact_brute_grid_oracle(self):
        # independent check on a small direction grid
        fam = family(diag(1, 0), diag(1, 1))
        cone = catalog_cone("omega1")
        for w in ([1, 0], [0, 1], [1, 1], [1, -1]):
            value = real_value(fam, w)
            assert any(v != 0 for v in value)
            assert classify_point(cone, value) in (Region.INTERIOR, Region.BOUNDARY)

    def test_orthant_counterexample(self):
        verdict = is_omega_hermitian(family(diag(1, -1), diag(1, 1)), catalog_cone("omega1"))
        assert verdict.kind == COUNTEREXAMPLE
        value = real_value(family(diag(1, -1), diag(1, 1)), verdict.witness)
        assert value[0] < 0

    def test_common_kernel_counterexample(self):
        verdict = is_omega_hermitian(family(diag(1, 0), diag(1, 0)), catalog_cone("omega1"))
        assert verdict.kind == COUNTEREXAMPLE
        assert real_value(family(diag(1, 0), diag(1, 0)), verdict.witness) == (0, 0)

    def test_lorentz_boundary_family_verified_on_samples(self):
        verdict = is_omega_hermitian(D6_FORM, catalog_cone("omega3"), samples=16, seed=0)
        assert verdict.kind == VERIFIED_ON_SAMPLES
        assert verdict.samples >= 16

    def test_lorentz_counterexample(self):
        bad = family(diag(0), diag(1), diag(0))
        verdict = is_omega_hermitian(bad, catalog_cone("omega3"), samples=8, seed=0)
        assert verdict.kind == COUNTEREXAMPLE

    def test_tube_vacuous(self):
        empty = HermitianFamily(3, 0, tuple(Matrix.zeros(0, 0) for _ in range(3)))
        assert is_omega_hermitian(empty, catalog_cone("omega3")).kind == VERIFIED_EXACT

    def test_determinism(self):
        v1 = is_omega_hermitian(D6_FORM, catalog_cone("omega3"), samples=12, seed=5)
        v2 = is_omega_hermitian(D6_FORM, catalog_cone("omega3"), samples=12, seed=5)
        assert v1 == v2

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            is_omega_hermitian(family(diag(1)), catalog_cone("omega1"))

    def test_verified_exact_families_land_in_closure(self):
        fam = family(diag(1, 0), diag(1, 1))
        cone = catalog_cone("omega1")
        assert is_omega_hermitian(fam, cone).kind == VERIFIED_EXACT
        rng = _Lcg(11)
        checked = 0
        while checked < 50:
            w = rng.next_vector(2)
            if all(x.is_zero() for x in w):
                continue
            value = real_value(fam, w)
            assert any(v != 0 for v in value)
            assert classify_point(cone, value) in (Region.INTERIOR, Region.BOUNDARY)
            checked += 1

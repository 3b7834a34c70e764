"""Cone catalog, membership, and the isotropy dimension bound."""

from fractions import Fraction

import pytest

from siegelalg.cones import (
    CATALOG_IDS,
    ConeSpec,
    LorentzFactor,
    PolyhedralFactor,
    Region,
    catalog_cone,
    classify_point,
    half_line,
    in_g_omega,
    isotropy_bound,
    lorentz,
    orthant,
    product,
)
from siegelalg.errors import ValidationError
from siegelalg.linalg import gr
from matrix_oracles import rank

EXPECTED_DIMS = {
    "omega1": 2,
    "omega2": 3,
    "omega3": 4,
    "omega4": 4,
    "omega5": 5,
    "omega6": 7,
}


class TestCatalog:
    @pytest.mark.parametrize("cone_id,dim", sorted(EXPECTED_DIMS.items()))
    def test_dims(self, cone_id, dim):
        assert catalog_cone(cone_id).dim_g == dim

    def test_unknown_id(self):
        with pytest.raises(ValidationError):
            catalog_cone("omega9")

    @pytest.mark.parametrize("cone_id", CATALOG_IDS)
    def test_annihilator_counts(self, cone_id):
        cone = catalog_cone(cone_id)
        assert len(cone.annihilator_terms) == cone.k * cone.k - cone.dim_g

    @pytest.mark.parametrize("cone_id", CATALOG_IDS)
    def test_basis_plus_annihilators_fill_matrix_space(self, cone_id):
        cone = catalog_cone(cone_id)
        rows = [[x for row in m for x in row] for m in cone.g_basis]
        for a in cone.annihilator_terms:
            dense = [0] * (cone.k * cone.k)
            for j, l, x in a:
                dense[j * cone.k + l] = x
            rows.append(dense)
        assert rank(rows) == cone.k * cone.k

    @pytest.mark.parametrize("cone_id", CATALOG_IDS)
    def test_flow_smoke_check(self, cone_id):
        # first-order check that each generator is tangent to the cone:
        # (I + tA) x stays interior for small rational t
        cone = catalog_cone(cone_id)
        x = cone.interior_point
        for a in cone.g_basis:
            for t in (Fraction(1, 8), Fraction(-1, 8), Fraction(1, 16), Fraction(-1, 16)):
                moved = [xi + t * sum(aij * xj for aij, xj in zip(row, x)) for xi, row in zip(x, a)]
                assert classify_point(cone, moved) is Region.INTERIOR


class TestBuilders:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_lorentz_algebra_attains_the_isotropy_bound(self, d):
        cone = lorentz(d)
        assert (cone.name, cone.k, cone.dim_g) == (f"lorentz{d}", d, isotropy_bound(d))

    def test_lorentz_basis_order(self):
        # identity, the boosts (0, j), then the rotations (i, j) with i < j
        basis = lorentz(4).g_basis
        assert basis[0] == tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        for m, (i, j) in zip(basis[1:], pairs, strict=True):
            nonzero = {(r, c): x for r, row in enumerate(m) for c, x in enumerate(row) if x}
            assert nonzero == {(i, j): 1, (j, i): 1 if i == 0 else -1}

    @pytest.mark.parametrize("cone_id,built", [
        ("omega1", lambda: orthant(2)),
        ("omega2", lambda: orthant(3)),
        ("omega3", lambda: lorentz(3)),
        ("omega4", lambda: orthant(4)),
        ("omega5", lambda: product(lorentz(3), half_line())),
        ("omega6", lambda: lorentz(4)),
    ])
    def test_catalog_cones_are_the_builders_under_their_ids(self, cone_id, built):
        cone, catalogued = built(), catalog_cone(cone_id)
        assert catalogued.name == cone_id
        assert (cone.k, cone.g_basis, cone.interior_point, cone.boundary, cone.annihilator_terms) == (
            catalogued.k, catalogued.g_basis, catalogued.interior_point,
            catalogued.boundary, catalogued.annihilator_terms,
        )

    def test_product_blocks(self):
        cone = product(half_line(), lorentz(3))
        assert cone.name == "rayxlorentz3"
        assert cone.dim_g == 1 + 4
        assert cone.interior_point == (1, 1, 0, 0)
        assert cone.boundary == (
            PolyhedralFactor(((Fraction(1), Fraction(0), Fraction(0), Fraction(0)),)),
            LorentzFactor((1, 2, 3)),
        )
        assert all(m[0][j] == m[j][0] == 0 for m in cone.g_basis[1:] for j in range(4))

    def test_product_associative(self):
        a, b, c = half_line(), lorentz(3), orthant(2)
        assert product(product(a, b), c) == product(a, product(b, c)) == product(a, b, c)


class TestIsotropyBound:
    @pytest.mark.parametrize("k,expect", [(2, 2), (3, 4), (4, 7)])
    def test_values(self, k, expect):
        assert isotropy_bound(k) == expect

    def test_bound_respected_with_known_equality_cases(self):
        for cone_id, dim in EXPECTED_DIMS.items():
            cone = catalog_cone(cone_id)
            assert dim <= isotropy_bound(cone.k)
        assert catalog_cone("omega3").dim_g == isotropy_bound(3)
        assert catalog_cone("omega6").dim_g == isotropy_bound(4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            isotropy_bound(0)


class TestMembership:
    def test_diagonal_in_orthant_algebra(self):
        cone = catalog_cone("omega1")
        assert in_g_omega(cone, ((1, 0), (0, 5)))

    def test_offdiagonal_excluded(self):
        cone = catalog_cone("omega1")
        assert not in_g_omega(cone, ((0, 1), (0, 0)))

    def test_lorentz3_generator_shape(self):
        cone = catalog_cone("omega3")
        member = ((0, 1, 0), (1, 0, 0), (0, 0, 0))
        assert in_g_omega(cone, member)
        assert not in_g_omega(cone, ((0, 1, 0), (-1, 0, 0), (0, 0, 0)))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValidationError, match="wrong shape"):
            in_g_omega(catalog_cone("omega1"), ((1, 0),))


class TestClosure:
    def test_orthant_interior(self):
        assert classify_point(catalog_cone("omega1"), [1, 1]) is Region.INTERIOR

    def test_lorentz_boundary(self):
        assert classify_point(catalog_cone("omega3"), [1, 1, 0]) is Region.BOUNDARY

    def test_lorentz_outside(self):
        assert classify_point(catalog_cone("omega3"), [0, 1, 0]) is Region.OUTSIDE

    def test_mixed_cone(self):
        omega5 = catalog_cone("omega5")
        assert classify_point(omega5, [1, 0, 0, 1]) is Region.INTERIOR
        assert classify_point(omega5, [1, 0, 0, 0]) is Region.BOUNDARY
        assert classify_point(omega5, [1, 2, 0, 1]) is Region.OUTSIDE

    def test_origin_is_boundary(self):
        assert classify_point(catalog_cone("omega3"), [0, 0, 0]) is Region.BOUNDARY

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            classify_point(catalog_cone("omega1"), [1, 2, 3])


def _quadrant_with(g_basis):
    return ConeSpec(
        name="bad",
        k=2,
        g_basis=g_basis,
        interior_point=(Fraction(1), Fraction(1)),
        boundary=(PolyhedralFactor(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))),),
    )


E00, E11, IDENTITY = ((1, 0), (0, 0)), ((0, 0), (0, 1)), ((1, 0), (0, 1))


class TestValidation:
    def test_scalars_required(self):
        with pytest.raises(ValidationError, match="must contain the scalar matrices in its span"):
            _quadrant_with((E00,))

    @pytest.mark.parametrize("g_basis", [
        (),
        (IDENTITY, E00, E11),
        (IDENTITY, IDENTITY),
        # also lacks the scalars: the dependence is reported first
        (E00, ((2, 0), (0, 0))),
    ], ids=["empty", "dependent", "repeated", "dependent-without-scalars"])
    def test_dependent_or_empty_basis_rejected(self, g_basis):
        with pytest.raises(ValidationError, match="g_basis is linearly dependent or empty"):
            _quadrant_with(g_basis)

    def test_non_string_name_refused(self):
        # with the document reader's text: a cone ``spec_to_json`` writes is one it reads back
        with pytest.raises(ValidationError, match="^cone 'name' must be a string, got 5$"):
            orthant(2, name=5)

    def test_interior_point_checked(self):
        with pytest.raises(ValidationError):
            ConeSpec(
                name="bad",
                k=1,
                g_basis=(((1,),),),
                interior_point=(Fraction(-1),),
                boundary=(PolyhedralFactor(((Fraction(1),),)),),
            )

    def test_cone_containing_a_line_rejected(self):
        # a half plane: the one functional leaves the direction e_1 free
        with pytest.raises(ValidationError, match="contains a line"):
            ConeSpec(
                name="half-plane",
                k=2,
                g_basis=(((1, 0), (0, 1)),),
                interior_point=(Fraction(1), Fraction(0)),
                boundary=(PolyhedralFactor(((Fraction(1), Fraction(0)),)),),
            )

    def test_int_entries_become_fractions(self):
        cone = ConeSpec(
            name="ray",
            k=1,
            g_basis=(((2,),),),
            interior_point=(Fraction(1),),
            boundary=(PolyhedralFactor(((Fraction(1),),)),),
        )
        assert cone.g_basis == (((Fraction(2),),),)
        assert type(cone.g_basis[0][0][0]) is Fraction

    @pytest.mark.parametrize("entry", [gr(1, 1), gr(1), 1.0, True, "1"])
    def test_non_rational_entries_rejected(self, entry):
        with pytest.raises(ValidationError, match="must be rationals"):
            ConeSpec(
                name="ray",
                k=1,
                g_basis=(((entry,),),),
                interior_point=(Fraction(1),),
                boundary=(PolyhedralFactor(((Fraction(1),),)),),
            )

    def test_misshapen_basis_rejected(self):
        with pytest.raises(ValidationError, match="k x k"):
            ConeSpec(
                name="ray",
                k=1,
                g_basis=(((1, 0),),),
                interior_point=(Fraction(1),),
                boundary=(PolyhedralFactor(((Fraction(1),),)),),
            )

    def test_orthant_one_is_half_line(self):
        assert orthant(1).k == half_line().k == 1


def test_cone_of_dimension_zero_built_directly_is_refused():
    with pytest.raises(ValidationError) as exc:
        ConeSpec("empty", 0, (), (), ())
    assert str(exc.value) == "cone dimension must be at least 1"

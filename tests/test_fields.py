"""Vector-field materialization, brackets, and the grading check."""

import hashlib
from fractions import Fraction

import pytest

from siegelalg import catalog
from siegelalg.cones import catalog_cone, half_line
from siegelalg.fields import (
    PolyVectorField,
    bracket,
    check_grading,
    euler_field,
    in_real_span,
    jacobi_defect,
    materialize,
)
from siegelalg.graded import SiegelDomainSpec, solve_all
from siegelalg.hermitian import HermitianFamily
from siegelalg.linalg import Matrix, from_real_rows


def diag(*vals):
    n = len(vals)
    return from_real_rows([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])


def ball(n):
    return SiegelDomainSpec(
        n, 1, half_line(), HermitianFamily.from_matrices([Matrix.identity(n - 1)])
    )


def d6_spec():
    return SiegelDomainSpec(
        4, 3, catalog_cone("omega3"),
        HermitianFamily.from_matrices([diag(1), diag(1), diag(0)]),
    )


def tube_omega3():
    return SiegelDomainSpec(
        3, 3, catalog_cone("omega3"),
        HermitianFamily(3, 0, tuple(Matrix.zeros(0, 0) for _ in range(3))),
    )


class TestEulerField:
    def test_ball_shape(self):
        f = euler_field(ball(2))
        assert f.format(["z1", "w1"]) == "(z1, 1/2*w1)"

    def test_tube_shape(self):
        f = euler_field(tube_omega3())
        assert str(f) == "(z1, z2, z3)"

    def test_mixed(self):
        spec = SiegelDomainSpec(
            5, 2, catalog_cone("omega1"),
            HermitianFamily.from_matrices([Matrix.identity(3), Matrix.zeros(3, 3)]),
        )
        f = euler_field(spec)
        assert f.format(["z1", "z2", "w1", "w2", "w3"]) == "(z1, z2, 1/2*w1, 1/2*w2, 1/2*w3)"


class TestMaterialize:
    def test_counts_match_dims(self):
        for spec in (ball(3), d6_spec(), tube_omega3()):
            sols = solve_all(spec)
            fields = materialize(spec, sols)
            per_grade = {}
            for f in fields:
                per_grade[f.grade] = per_grade.get(f.grade, 0) + 1
            assert per_grade.get(Fraction(-1), 0) == sols.dims.d_m1
            assert per_grade.get(Fraction(-1, 2), 0) == sols.dims.d_mhalf
            assert per_grade.get(Fraction(0), 0) == sols.dims.d_0
            assert per_grade.get(Fraction(1, 2), 0) == sols.dims.d_half
            assert per_grade.get(Fraction(1), 0) == sols.dims.d_1

    def test_ball_translation(self):
        spec = ball(2)
        fields = materialize(spec, solve_all(spec))
        assert fields[0].format(["z1", "w1"]) == "(1, 0)"

    def test_d6_minus_half_shape(self):
        spec = d6_spec()
        fields = [f for f in materialize(spec, solve_all(spec)) if f.grade == Fraction(-1, 2)]
        assert len(fields) == 2
        # b = 1: z-parts 2i*w in the first two slots, w-part the constant 1
        names = ["z1", "z2", "z3", "w1"]
        assert fields[0].format(names) == "(2i*w1, 2i*w1, 0, 1)"
        assert fields[1].format(names) == "(2*w1, 2*w1, 0, 1i)"

    def test_d6_weight_one_field(self):
        spec = d6_spec()
        ones = [f for f in materialize(spec, solve_all(spec)) if f.grade == Fraction(1)]
        assert len(ones) == 1
        f = ones[0]
        # w-component vanishes; z-components are the quadratic family up to scale
        assert f.components[3].is_zero()
        x1sq = f.components[0].coefficient((2, 0, 0, 0))
        assert not x1sq.is_zero()
        # component 1 proportional to (z1 - z2)^2 + z3^2
        p = f.components[0]
        assert p.coefficient((0, 2, 0, 0)) == x1sq
        assert p.coefficient((1, 1, 0, 0)) == -(x1sq + x1sq)
        assert p.coefficient((0, 0, 2, 0)) == x1sq


# sha256 of the formatted generators, one "label grade field" line each,
# recorded before materialize was rewritten on term lists
MATERIALIZE_SHA256 = {
    "ball3": ("661cd583543f484b0979ede72e25dc99dbcc48f7c45bff67067fa6c0fc78c86c", catalog.ball(3)),
    "d6_110": ("cf5552c95dd3956093e93f4ba5e153f5272defa028fcb87c503f84c6a916e235",
               catalog.d6((1, 1, 0))),
    "d6_210": ("2e87955e9f4c4ce94657d133035dfbad43d37da5cdec23077b9315fb4060920b",
               catalog.d6((2, 1, 0))),
    "ballproduct2_2": ("d788092bfb7fd9f253b1258405c886bfeb5124e58bac112c6aa1e4045f476d3d",
                       catalog.ball_product(2, 2)),
    "d3_1011": ("44762419fdcbd1c31502ddd48319fb50c82dda99c7193b4ede6e87d6aafba9dc",
                catalog.d3(1, 0, 1, 1)),
}


@pytest.mark.parametrize("name", sorted(MATERIALIZE_SHA256))
def test_materialize_output_is_pinned(name):
    digest, domain = MATERIALIZE_SHA256[name]
    spec = catalog.build(domain)
    names = [f"z{i + 1}" for i in range(spec.k)] + [f"w{i + 1}" for i in range(spec.m)]
    text = "\n".join(
        f"{f.label} {f.grade} {f.format(names)}" for f in materialize(spec, solve_all(spec))
    )
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestBracket:
    def test_translation_eigenrelation(self):
        spec = ball(2)
        euler = euler_field(spec)
        f = materialize(spec, solve_all(spec))[0]
        assert (bracket(euler, f) - f.scale(Fraction(-1))).is_zero()

    def test_self_bracket_zero(self):
        spec = d6_spec()
        for f in materialize(spec, solve_all(spec)):
            assert bracket(f, f).is_zero()

    def test_antisymmetry(self):
        spec = d6_spec()
        fields = materialize(spec, solve_all(spec))
        for x in fields[:4]:
            for y in fields[4:8]:
                lhs = bracket(x, y)
                rhs = bracket(y, x)
                assert all(
                    (a + b).is_zero() for a, b in zip(lhs.components, rhs.components)
                )

    def test_d6_weight_one_eigenrelation(self):
        # oracle: direct polynomial differentiation gives eigenvalue one
        spec = d6_spec()
        euler = euler_field(spec)
        (f,) = [x for x in materialize(spec, solve_all(spec)) if x.grade == Fraction(1)]
        assert (bracket(euler, f) - f.scale(Fraction(1))).is_zero()


class TestCheckGrading:
    def test_d6_generators_pass(self):
        spec = d6_spec()
        report = check_grading(spec, materialize(spec, solve_all(spec)))
        assert report.passed
        assert report.failures == ()
        assert report.eigen_checked == 10

    def test_ball_generators_pass(self):
        spec = ball(2)
        report = check_grading(spec, materialize(spec, solve_all(spec)))
        assert report.passed

    def test_mislabeled_field_named(self):
        spec = ball(2)
        fields = list(materialize(spec, solve_all(spec)))
        broken = PolyVectorField(
            fields[0].n, fields[0].components, Fraction(1), "mislabeled"
        )
        report = check_grading(spec, fields + [broken])
        assert not report.passed
        assert any("mislabeled" in msg for msg in report.failures)

    def test_cross_grade_closure_ball(self):
        spec = ball(2)
        fields = materialize(spec, solve_all(spec))
        minus_one = [f for f in fields if f.grade == Fraction(-1)]
        ones = [f for f in fields if f.grade == Fraction(1)]
        zeros = [f for f in fields if f.grade == Fraction(0)]
        assert in_real_span(zeros, bracket(minus_one[0], ones[0]))


class TestJacobi:
    def test_d6_triples(self):
        spec = d6_spec()
        fields = materialize(spec, solve_all(spec))
        # exact polynomial identity on a spread of triples
        for i in range(0, len(fields), 3):
            for j in range(i + 1, len(fields), 2):
                for l in range(j + 1, len(fields)):
                    assert jacobi_defect(fields[i], fields[j], fields[l]).is_zero()

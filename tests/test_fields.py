"""Vector-field materialization, brackets, and the grading check."""

import hashlib
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelalg import catalog, fields as fields_module
from siegelalg.cones import catalog_cone, half_line
from siegelalg.errors import ValidationError
from siegelalg.fields import (
    GRADES,
    GradingReport,
    PolyVectorField,
    bracket,
    bracket_identities_hold,
    check_grading,
    euler_field,
    materialize,
)
from siegelalg.graded import GradedSolutions, SiegelDomainSpec, SparseArray, solve_all
from siegelalg.hermitian import HermitianFamily
from siegelalg.linalg import GR_I, GR_ZERO, GaussianRational, gr
from siegelalg.poly import Polynomial

from matrix_oracles import (
    as_rows, coefficients, degree, identity, poly_add, poly_mul, poly_scale, polynomial, rank, zeros,
)


def diag(*vals):
    n = len(vals)
    return as_rows([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])


def ball(n):
    return SiegelDomainSpec(
        n, 1, half_line(), HermitianFamily([identity(n - 1)])
    )


def d6_spec():
    return SiegelDomainSpec(
        4, 3, catalog_cone("omega3"),
        HermitianFamily([diag(1), diag(1), diag(0)]),
    )


def tube_omega3():
    return SiegelDomainSpec(
        3, 3, catalog_cone("omega3"),
        HermitianFamily([()] * 3),
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
            HermitianFamily([identity(3), zeros(3, 3)]),
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

    @pytest.mark.parametrize("part, array", [
        (0, SparseArray((1, 1), Fraction(0), {1: Fraction(1)})),
        (1, SparseArray((2, 2), GR_ZERO, {-1: GR_I})),
        (1, SparseArray((4,), GR_ZERO, {})),
        (0, None),
    ], ids=["A-entry-past-the-end", "B-negative-index", "B-wrong-shape", "not-an-array"])
    def test_refuses_an_array_off_its_part(self, part, array):
        """An element array of the wrong shape or with an entry index outside it is refused;
        ``indexed()`` would have wrapped the index into the shape."""
        spec = ball(3)
        sols = solve_all(spec)
        element = list(sols.g0[0])
        element[part] = array
        bad = GradedSolutions(((*element,), *sols.g0[1:]), sols.s, sols.g_half, sols.g_one,
                              sols.dims)
        with pytest.raises(ValidationError) as exc:
            materialize(spec, bad)
        assert str(exc.value) == ("g0 must hold pairs of SparseArrays of shapes (1, 1) and (2, 2), "
                                  "with every entry inside its shape")

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
        p = coefficients(f.components[0])
        x1sq = p.get((2, 0, 0, 0), GR_ZERO)
        assert not x1sq.is_zero()
        # component 1 proportional to (z1 - z2)^2 + z3^2
        assert p.get((0, 2, 0, 0), GR_ZERO) == x1sq
        assert p.get((1, 1, 0, 0), GR_ZERO) == -(x1sq + x1sq)
        assert p.get((0, 0, 2, 0), GR_ZERO) == x1sq


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
        # [euler, f] - (-1) f
        assert combination([bracket(euler, f), f], [1, 1]).is_zero()

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
                    not poly_add(coefficients(a), coefficients(b))
                    for a, b in zip(lhs.components, rhs.components)
                )

    def test_d6_weight_one_eigenrelation(self):
        # oracle: direct polynomial differentiation gives eigenvalue one
        spec = d6_spec()
        euler = euler_field(spec)
        (f,) = [x for x in materialize(spec, solve_all(spec)) if x.grade == Fraction(1)]
        assert combination([bracket(euler, f), f], [1, -1]).is_zero()


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

    def test_cross_grade_closure_ball(self, monkeypatch):
        spec = ball(2)
        fields = materialize(spec, solve_all(spec))
        minus_one = [f for f in fields if f.grade == Fraction(-1)]
        ones = [f for f in fields if f.grade == Fraction(1)]
        zeros = [f for f in fields if f.grade == Fraction(0)]
        group = [minus_one[0], ones[0], *zeros]
        # [g-1, g1] is a nonzero real combination of the weight-0 fields alone
        constants = fields_module._structure_constants(group, [(0, 1)])[0, 1]
        assert constants and all(group[p].grade == 0 for p in constants)
        assert check_grading(spec, group).passed
        escapes = (f"[{minus_one[0].label}, {ones[0].label}] escapes the weight-0 span",)
        assert check_grading(spec, group[:2]).failures == escapes
        # a weight-1 field lies in the real span of all the fields, not in the weight-0 one
        real_bracket = bracket
        monkeypatch.setattr(fields_module, "bracket", lambda x, y: (
            y if (x, y) == (minus_one[0], ones[0]) else real_bracket(x, y)
        ))
        assert fields_module._structure_constants(group, [(0, 1)]) == {(0, 1): {1: 1}}
        assert check_grading(spec, group).failures == escapes

    def test_imaginary_multiple_escapes_a_real_span(self):
        # [dw, i w dw] = i dw lies in the complex span of dw, not in its real span
        spec = catalog.build(catalog.ball(2))
        zero = Polynomial.from_parts(2, {}, {})
        one = Polynomial.from_parts(2, {(0, 0): 1}, {})
        i_w = Polynomial.from_parts(2, {}, {(0, 1): 1})
        dw = PolyVectorField(2, (zero, one), Fraction(-1, 2), "dw")
        i_w_dw = PolyVectorField(2, (zero, i_w), Fraction(0), "i w dw")
        report = check_grading(spec, [dw, i_w_dw])
        assert not report.passed
        assert report.failures == ("[dw, i w dw] escapes the weight--1/2 span",)


def dense_in_real_span(basis, candidate):
    """Reference membership: dense realified coefficient vectors and two ranks.

    This is the method ``check_grading`` used before it read a table of structure constants.
    """
    if candidate.is_zero():
        return True
    if not basis:
        return False
    keys = sorted({
        (c, mono) for f in list(basis) + [candidate]
        for c, p in enumerate(f.components) for mono, _, _ in p.terms
    })

    def vector(f):
        out = []
        for c, mono in keys:
            coeff = coefficients(f.components[c]).get(mono, GR_ZERO)
            out += [coeff.re, coeff.im]
        return out

    rows = [vector(f) for f in basis]
    return rank(rows + [vector(candidate)]) == rank(rows)


GRADING_DOMAINS = {
    "ball3": catalog.ball(3),
    "ballproduct2_2": catalog.ball_product(2, 2),
    "d6_110": catalog.d6((1, 1, 0)),
}
_GENERATORS = {}


def generators_by_grade(name):
    if name not in _GENERATORS:
        spec = catalog.build(GRADING_DOMAINS[name])
        by_grade = {}
        for f in materialize(spec, solve_all(spec)):
            by_grade.setdefault(f.grade, []).append(f)
        _GENERATORS[name] = by_grade
    return _GENERATORS[name]


def combination(fields, coeffs):
    """The field sum c * f over the ``fields`` and ``coeffs``, in the oracles' arithmetic."""
    n = fields[0].n
    return PolyVectorField(n, tuple(
        polynomial(n, poly_add(*(
            poly_scale(coefficients(f.components[i]), c) for f, c in zip(fields, coeffs)
        )))
        for i in range(n)
    ))


@given(data=st.data())
@settings(derandomize=True, max_examples=80, deadline=None)
def test_span_membership_matches_dense_reference(data):
    """The table's membership step decides as the dense method does; its constants rebuild."""
    by_grade = generators_by_grade(data.draw(st.sampled_from(sorted(GRADING_DOMAINS))))
    grade = data.draw(st.sampled_from(sorted(by_grade)))
    group = by_grade[grade]
    coeffs = data.draw(st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        min_size=len(group), max_size=len(group),
    ))
    candidate = combination(group, coeffs)
    kind = data.draw(st.sampled_from(["combination", "times i", "plus another grade"]))
    if kind == "times i":
        candidate = combination([candidate], [GR_I])
    elif kind == "plus another grade":
        others = [f for g in sorted(by_grade) if g != grade for f in by_grade[g]]
        candidate = combination([candidate, data.draw(st.sampled_from(others))], [1, 1])
    expected = dense_in_real_span(group, candidate)
    with pytest.MonkeyPatch.context() as patch:
        # the table's one pair brackets to the candidate
        patch.setattr(fields_module, "bracket", lambda x, y: candidate)
        constants = fields_module._structure_constants(group, [(0, 0)])[0, 0]
    assert (constants is not None) == expected
    if constants is not None:
        rebuilt = combination(
            [group[0]] + [group[p] for p in constants], [0] + list(constants.values())
        )
        assert rebuilt.components == candidate.components
    if kind == "combination":
        assert expected
    if kind == "plus another grade":
        # eigenvectors of the Euler field for distinct weights are independent
        assert not expected


def grading_oracle(spec, fields):
    """``check_grading`` by the Euler bracket and dense membership in each weight's span."""
    euler = euler_field(spec)
    graded = [f for f in fields if f.grade is not None]
    failures = [
        f"eigenvalue relation fails for {f.label or 'unlabeled field'}"
        for f in graded if not combination([bracket(euler, f), f], [1, -f.grade]).is_zero()
    ]
    by_grade = {}
    for f in graded:
        by_grade.setdefault(f.grade, []).append(f)
    for f1, f2 in combinations(sorted(graded, key=lambda f: f.grade), 2):
        weight, b = f1.grade + f2.grade, bracket(f1, f2)
        if weight not in GRADES:
            if not b.is_zero():
                failures.append(f"[{f1.label}, {f2.label}] is nonzero at weight {weight}")
        elif not dense_in_real_span(by_grade.get(weight, []), b):
            failures.append(f"[{f1.label}, {f2.label}] escapes the weight-{weight} span")
    count = len(graded)
    return GradingReport(not failures, tuple(failures), count, count * (count - 1) // 2)


def scaled_term(f, component, scale):
    """``f`` with the first term of one component times the Gaussian rational ``scale``."""
    (mono, re, im), *rest = f.components[component].terms
    z = GaussianRational.of(scale)
    parts = ({m: r for m, r, _ in rest}, {m: i for m, _, i in rest})
    parts[0][mono], parts[1][mono] = re * z.re - im * z.im, re * z.im + im * z.re
    scaled = Polynomial.from_parts(f.n, *parts)
    components = f.components[:component] + (scaled,) + f.components[component + 1:]
    return PolyVectorField(f.n, components, f.grade, f.label)


@given(data=st.data())
@settings(derandomize=True, max_examples=40, deadline=None)
def test_check_grading_matches_the_dense_oracle(data):
    """On subsets of generators with a scaled coefficient, a duplicate or a zero field, the
    table decides each pair as dense membership in its weight's span does."""
    name = data.draw(st.sampled_from(sorted(GRADING_DOMAINS)))
    spec = catalog.build(GRADING_DOMAINS[name])
    generators = [f for group in generators_by_grade(name).values() for f in group]
    indices = data.draw(st.lists(
        st.integers(0, len(generators) - 1), min_size=1, max_size=8, unique=True,
    ))
    fields = [generators[i] for i in indices]
    for kind in data.draw(st.lists(
        st.sampled_from(["scaled coefficient", "duplicated field", "zero field"]), max_size=2,
    )):
        at = data.draw(st.integers(0, len(fields) - 1))
        f = fields[at]
        if kind == "scaled coefficient" and not f.is_zero():
            component = data.draw(st.sampled_from(
                [c for c, p in enumerate(f.components) if p.terms]
            ))
            scale = data.draw(st.sampled_from([2, -1, Fraction(1, 3), GR_I, gr(1, -2)]))
            fields[at] = scaled_term(f, component, scale)
        elif kind == "duplicated field":
            fields.insert(data.draw(st.integers(0, len(fields))), f)
        elif kind == "zero field":
            zero = PolyVectorField(f.n, (Polynomial(f.n, ()),) * f.n,
                                   data.draw(st.sampled_from(GRADES)), "zero")
            fields.insert(at, zero)
    assert check_grading(spec, fields) == grading_oracle(spec, fields)


def _diff(p, u):
    coeffs = {}
    for mono, c in coefficients(p).items():
        if mono[u]:
            lowered = mono[:u] + (mono[u] - 1,) + mono[u + 1:]
            coeffs = poly_add(coeffs, {lowered: c * mono[u]})
    return coeffs


def _derive(x, y):
    """X(Y): the field with components sum_u x_u d(y_c)/du, in the oracles' arithmetic."""
    n = x.n
    comps = []
    for c in range(n):
        acc = poly_add(*(
            poly_mul(coefficients(x.components[u]), _diff(y.components[c], u)) for u in range(n)
        ))
        comps.append(polynomial(n, acc))
    return PolyVectorField(n, tuple(comps))


def reference_bracket(x, y):
    """[X, Y] = X(Y) - Y(X) by differentiating and multiplying polynomials."""
    grade = None
    if x.grade is not None and y.grade is not None:
        grade = x.grade + y.grade
    diff = combination([_derive(x, y), _derive(y, x)], [1, -1])
    return PolyVectorField(x.n, diff.components, grade if grade in GRADES else None)


COEFFICIENTS = st.builds(
    lambda a, b, d: gr(Fraction(a, d), Fraction(b, d)),
    st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3),
)


@st.composite
def vector_fields(draw, n):
    """Fields of degree at most three; empty term lists give zero components."""
    terms = st.lists(
        st.tuples(st.lists(st.integers(0, n - 1), max_size=3), COEFFICIENTS), max_size=4
    )
    comps = []
    for _ in range(n):
        coeffs = {}
        for variables, c in draw(terms):
            mono = tuple(variables.count(v) for v in range(n))
            coeffs[mono] = coeffs.get(mono, GR_ZERO) + c
        comps.append(polynomial(n, coeffs))
    grade = draw(st.sampled_from(GRADES + (None, Fraction(-2), Fraction(3, 2))))
    return PolyVectorField(n, tuple(comps), grade)


@given(data=st.data())
@settings(derandomize=True, max_examples=100, deadline=None)
def test_bracket_matches_reference_formula(data):
    n = data.draw(st.integers(1, 4))
    x = data.draw(vector_fields(n))
    y = data.draw(vector_fields(n))
    for a, b in ((x, y), (y, x)):
        expected = reference_bracket(a, b)
        got = bracket(a, b)
        assert got.components == expected.components
        # == cannot tell the part types apart: Fraction(1) == 1 == 1.0
        for p in got.components:
            for _, re, im in p.terms:
                assert {type(re), type(im)} <= {int, Fraction}
        assert got.grade == expected.grade


def test_bracket_matches_reference_on_d6_generators():
    spec = d6_spec()
    fields = materialize(spec, solve_all(spec))
    for x in fields:
        for y in fields:
            assert bracket(x, y) == reference_bracket(x, y)


def test_bracket_with_zero_operand_matches_reference():
    """A zero operand short-cuts to the zero field; the grade still sums."""
    spec = d6_spec()
    operands = [euler_field(spec)] + list(materialize(spec, solve_all(spec)))
    for grade in GRADES + (None, Fraction(-2)):
        zero = PolyVectorField(4, (Polynomial(4, ()),) * 4, grade)
        for x in operands + [zero]:
            for a, b in ((x, zero), (zero, x)):
                got = bracket(a, b)
                assert got == reference_bracket(a, b)
                assert got.is_zero()


def test_fields_compare_and_hash_alike_whatever_their_part_types():
    """Parts are ints or Fractions, mixed; a field built from either compares and hashes by value."""
    spec = d6_spec()
    for f in (euler_field(spec),) + materialize(spec, solve_all(spec)):
        as_fractions = PolyVectorField(f.n, tuple(
            Polynomial(p.nvars, tuple((m, Fraction(re), Fraction(im)) for m, re, im in p.terms))
            for p in f.components
        ), f.grade, f.label)
        assert as_fractions == f and hash(as_fractions) == hash(f)
    ints = PolyVectorField(2, (
        Polynomial.from_parts(2, {(1, 0): 1, (0, 0): -2}, {(0, 1): 3}),
        Polynomial.from_parts(2, {}, {(0, 0): 1}),
    ))
    fractions = PolyVectorField(2, (
        Polynomial.from_parts(2, {(1, 0): Fraction(1), (0, 0): Fraction(-2)}, {(0, 1): Fraction(3)}),
        Polynomial.from_parts(2, {}, {(0, 0): Fraction(1)}),
    ))
    assert ints == fractions and hash(ints) == hash(fractions)
    assert {ints: "found"}[fractions] == "found"


class TestJacobi:
    def test_d6_triples(self):
        spec = d6_spec()
        assert bracket_identities_hold(materialize(spec, solve_all(spec)))

    def test_one_sided_bracket_fails(self, monkeypatch):
        # X(Y) alone is not antisymmetric
        spec = d6_spec()
        fields = materialize(spec, solve_all(spec))
        monkeypatch.setattr(fields_module, "bracket", _derive)
        assert not bracket_identities_hold(fields)

    def test_antisymmetric_non_lie_bracket_fails(self, monkeypatch):
        # a weight symmetric in X and Y keeps antisymmetry but breaks Jacobi
        spec = d6_spec()
        fields = materialize(spec, solve_all(spec))

        def field_degree(f):
            return max(degree(coefficients(p)) for p in f.components)

        def weighted(x, y):
            return combination([bracket(x, y)], [1 + field_degree(x) * field_degree(y)])

        for x in fields:
            for y in fields:
                assert weighted(x, y).components == combination([weighted(y, x)], [-1]).components
        monkeypatch.setattr(fields_module, "bracket", weighted)
        assert not bracket_identities_hold(fields)

    def test_dropped_second_half_fails(self, monkeypatch):
        # an _apply that skips the -Y(X) half brackets as X(Y) alone
        spec = d6_spec()
        fields = materialize(spec, solve_all(spec))
        apply = fields_module._apply

        def first_half_only(re, im, x, p, sign):
            if sign > 0:
                apply(re, im, x, p, sign)

        monkeypatch.setattr(fields_module, "_apply", first_half_only)
        assert not bracket_identities_hold(fields)


def test_flipped_second_apply_fails(monkeypatch):
    # flipping the sign of _apply's second call brackets as X(Y) + Y(X)
    spec = d6_spec()
    fields = materialize(spec, solve_all(spec))
    apply = fields_module._apply

    def second_call_flipped(re, im, x, p, sign):
        apply(re, im, x, p, abs(sign))

    monkeypatch.setattr(fields_module, "_apply", second_call_flipped)
    assert not bracket_identities_hold(fields)


@pytest.mark.parametrize("domain", [catalog.d6((1, 1, 0)), catalog.ball(3)])
def test_structure_constants_rebuild_each_bracket(domain):
    """sum_p c_ij^p f_p is [f_i, f_j] exactly, on every ordered pair of distinct generators."""
    spec = catalog.build(domain)
    fields = materialize(spec, solve_all(spec))
    table = fields_module._structure_constants(fields, permutations(range(len(fields)), 2))
    assert len(table) == len(fields) * (len(fields) - 1)
    assert None not in table.values()
    for (i, j), constants in table.items():
        rebuilt = combination(
            [fields[i]] + [fields[p] for p in constants], [0] + list(constants.values())
        )
        assert rebuilt.components == bracket(fields[i], fields[j]).components


def _line_field(*coeffs):
    """The field sum_e coeffs[e] z^e d/dz on C^1."""
    return PolyVectorField(1, (Polynomial.from_parts(1, {(e,): c for e, c in enumerate(coeffs)}, {}),))


def test_bracket_table_asserts_closure():
    # [d/dz, z^2 d/dz] = 2z d/dz is not a real combination of the two
    dz, z2_dz = _line_field(1), _line_field(0, 0, 1)
    assert fields_module._structure_constants([dz, z2_dz], [(0, 1), (1, 0)]) == {
        (0, 1): None, (1, 0): None,
    }
    assert not bracket_identities_hold([dz, z2_dz])
    # with z d/dz they span sl2, also when a multiple of d/dz is listed twice
    assert bracket_identities_hold([dz, _line_field(0, 1), z2_dz])
    assert bracket_identities_hold([dz, _line_field(2), _line_field(0, 1), z2_dz])


def test_one_sided_bracket_of_two_fields_fails_antisymmetry(monkeypatch):
    # X(Y) keeps [d/dz, z d/dz] in the span, but Y(X) = 0 is not its negative; no triple exists
    fields = [_line_field(1), _line_field(0, 1)]
    assert bracket_identities_hold(fields)
    monkeypatch.setattr(fields_module, "bracket", _derive)
    assert fields_module._structure_constants(fields, [(0, 1), (1, 0)]) == {
        (0, 1): {0: 1}, (1, 0): {},
    }
    assert not bracket_identities_hold(fields)


def test_verify_paper_bracket_count(monkeypatch):
    """The grading checks and the bracket table of verify-paper make exactly this many brackets."""
    calls = []
    bracket_once = fields_module.bracket

    def counted(x, y):
        calls.append((x, y))
        return bracket_once(x, y)

    monkeypatch.setattr(fields_module, "bracket", counted)
    assert catalog.verify_paper().failed == 0
    assert len(calls) == 240


def test_verify_paper_field_elimination_count(monkeypatch):
    """One table per grading check and one for the bracket identities: three eliminations."""
    calls = []
    rref_once = fields_module.sparse_rref

    def counted(rows):
        calls.append(len(rows))
        return rref_once(rows)

    monkeypatch.setattr(fields_module, "sparse_rref", counted)
    assert catalog.verify_paper().failed == 0
    assert calls == [15, 10, 10]  # B3's generators, then D6(1,1,0)'s twice


@pytest.mark.parametrize("name", sorted(GRADING_DOMAINS))
def test_eigen_relation_by_weight_matches_the_bracket(name):
    """Read off the terms, [euler, X] = nu X holds exactly when the bracket says so."""
    spec = catalog.build(GRADING_DOMAINS[name])
    euler = euler_field(spec)
    for f in [f for group in generators_by_grade(name).values() for f in group]:
        for grade in GRADES:
            relabeled = PolyVectorField(f.n, f.components, grade, f.label)
            holds = combination([bracket(euler, relabeled), relabeled], [1, -grade]).is_zero()
            assert holds == (grade == f.grade)
            expected = () if holds else (f"eigenvalue relation fails for {f.label}",)
            assert check_grading(spec, [relabeled]).failures == expected


def test_check_grading_refuses_a_field_on_another_space():
    spec = catalog.build(catalog.ball(2))
    field = PolyVectorField(3, (Polynomial(3, ()),) * 3, Fraction(0), "on C^3")
    with pytest.raises(ValidationError) as exc:
        check_grading(spec, [field])
    assert str(exc.value) == "fields live on different spaces"


def test_bracket_outside_the_weights_must_vanish():
    # [z dw, z^2 dz] = -z^2 dw has weight 1/2 + 1 = 3/2, outside the grading
    spec = catalog.build(catalog.ball(2))

    def monomial(*exponents):
        return Polynomial.from_parts(2, {exponents: 1}, {})

    zero = Polynomial.from_parts(2, {}, {})
    z_dw = PolyVectorField(2, (zero, monomial(1, 0)), Fraction(1, 2), "z dw")
    z2_dz = PolyVectorField(2, (monomial(2, 0), zero), Fraction(1), "z^2 dz")
    report = check_grading(spec, [z2_dz, z_dw])
    assert report.failures == ("[z dw, z^2 dz] is nonzero at weight 3/2",)
    # [dz, dw] = 0 has weight -3/2 and passes
    dz = PolyVectorField(2, (monomial(0, 0), zero), Fraction(-1), "dz")
    dw = PolyVectorField(2, (zero, monomial(0, 0)), Fraction(-1, 2), "dw")
    assert check_grading(spec, [dz, dw]).passed


def test_doubled_coefficient_escapes_the_grading():
    spec = d6_spec()
    fields = list(materialize(spec, solve_all(spec)))
    (idx,) = [i for i, f in enumerate(fields) if f.grade == Fraction(1)]
    f = fields[idx]
    comp = f.components[0]
    (mono, re, im), *rest = comp.terms
    doubled = Polynomial(comp.nvars, ((mono, re + re, im + im), *rest))
    fields[idx] = PolyVectorField(f.n, (doubled,) + f.components[1:], f.grade, f.label)
    report = check_grading(spec, fields)
    assert not report.passed
    assert any("escapes" in msg for msg in report.failures)


@pytest.mark.parametrize("make, message", [
    (lambda: PolyVectorField(2, (Polynomial(2, ()),)), "need one component per coordinate"),
    (lambda: PolyVectorField(1, (Polynomial(2, ()),)), "component variable count mismatch"),
    (lambda: bracket(PolyVectorField(1, (Polynomial(1, ()),)),
                     PolyVectorField(2, (Polynomial(2, ()),) * 2)),
     "fields live on different spaces"),
])
def test_field_shape_errors_are_named(make, message):
    with pytest.raises(ValidationError) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize("spec_n, sols_n", [(2, 3), (3, 2)])
def test_materialize_refuses_solutions_of_another_shape(spec_n, sols_n):
    spec = catalog.build(catalog.ball(spec_n))
    sols = solve_all(catalog.build(catalog.ball(sols_n)))
    with pytest.raises(ValidationError) as exc:
        materialize(spec, sols)
    assert str(exc.value) == "solutions are not of this domain's shape"

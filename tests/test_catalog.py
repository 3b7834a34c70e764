"""Domain builders, classification tables, and the verification driver."""

import functools
from fractions import Fraction
from types import SimpleNamespace

import pytest

from siegelalg import catalog
from siegelalg.catalog import (
    DomainId,
    analyze,
    ball,
    ball_product,
    build,
    classify,
    d1,
    d2,
    d3,
    d4,
    d5,
    d6,
    product,
    t3,
    t4,
    tube,
    verify_paper,
)
from siegelalg.cones import ConeSpec, catalog_cone
from siegelalg.errors import ValidationError
from siegelalg.graded import graded_dims
from siegelalg.hermitian import COUNTEREXAMPLE, is_omega_hermitian
from siegelalg.homogeneity import GENERICALLY_OPEN_ORBITS
from siegelalg.linalg import GR_ZERO, gr
from matrix_oracles import conj_transpose


class TestBuild:
    def test_ball_realization(self):
        spec = build(ball(4))
        assert (spec.n, spec.k, spec.m) == (4, 1, 3)
        assert spec.form.components[0] == conj_transpose(spec.form.components[0])

    def test_d6_realization(self):
        spec = build(d6((1, 1, 0)))
        assert (spec.n, spec.k, spec.m) == (4, 3, 1)
        assert spec.cone.name == "omega3"

    def test_ball_product_blocks(self):
        spec = build(ball_product(3, 2))
        assert (spec.n, spec.k, spec.m) == (5, 2, 3)
        # first factor occupies the first two w-coordinates
        assert [spec.form.components[0][i][i].re for i in range(3)] == [1, 1, 0]
        assert [spec.form.components[1][i][i].re for i in range(3)] == [0, 0, 1]

    def test_ball_product_oracle_total(self):
        # oracle: d(B^3 x B^2) = 15 + 8
        assert graded_dims(build(ball_product(3, 2))).total == 23

    def test_single_factor_product_is_ball(self):
        assert build(ball_product(3)) == build(ball(3))

    def test_tube_aliases(self):
        assert build(t3()) == build(tube("omega3"))
        assert build(t4()) == build(tube("omega6"))

    @pytest.mark.parametrize(
        "bad",
        [
            d3(1, 0, 0, 0),       # determinant zero
            d3(1, 2, 1, 2),       # determinant zero
            d3(-1, 0, 1, 1),      # negative parameter
            d5((0, 0, 0)),        # zero vector
            d6((0, 1, 0)),        # v1 not positive
            d6((1, 1, 1)),        # outside the closed cone
            ball(0),
            d1(2),
        ],
    )
    def test_invalid_parameters(self, bad):
        with pytest.raises(ValidationError):
            build(bad)

    @pytest.mark.parametrize("domain, message", [
        (lambda: DomainId("ball", n=2.0), "ball dimension must be an integer, got 2.0"),
        (lambda: DomainId("ball"), "ball dimension must be an integer, got None"),
        (lambda: DomainId("ball-product", factors=(2, True)),
         "a ball factor must be an integer, got True"),
        (lambda: build(DomainId("ball-product")), "ball factors must be positive"),
        (lambda: DomainId("d1", n=True), "n must be an integer, got True"),
        (lambda: DomainId("d2"), "n must be an integer, got None"),
        (lambda: DomainId("d3", params=(1.0, 0, 1, 1)), "entries must be rationals"),
        (lambda: build(DomainId("d3")), "need 4 parameters, got 0"),
        (lambda: build(DomainId("d4", params=(1, 0, 1))), "need 4 parameters, got 3"),
        (lambda: DomainId("d5", v=(1, False, 0)), "entries must be rationals"),
        (lambda: build(DomainId("d5")), "need a nonzero nonnegative 3-vector"),
        (lambda: DomainId("d6", v=(1, 1, 0.5)), "entries must be rationals"),
        (lambda: build(DomainId("d6")), "need a 3-vector, got 0 entries"),
        (lambda: build(DomainId("tube")), "a cone id must be a string, got None"),
        (lambda: d5(5), "v must be a list or tuple, got 5"),
        (lambda: DomainId("ball-product", factors=3), "factors must be a list or tuple, got 3"),
        (lambda: DomainId("d3", n=4, params=7), "params must be a list or tuple, got 7"),
    ], ids=["ball-float", "ball-missing", "ballproduct-bool", "ballproduct-missing", "d1-bool",
            "d2-missing", "d3-float", "d3-missing", "d4-short", "d5-bool", "d5-missing", "d6-float",
            "d6-missing", "tube-missing", "d5-scalar", "ballproduct-scalar", "d3-scalar"])
    def test_an_id_built_directly_is_read_as_the_builders_read_it(self, domain, message):
        with pytest.raises(ValidationError) as exc:
            domain()
        assert str(exc.value).startswith(message)

    def test_unknown_tube_cone(self):
        with pytest.raises(ValidationError):
            build(tube("omega7"))

    @pytest.mark.parametrize("domain, cone_id, rows", [
        (d3(1, 0, 1, 1), "omega1", [[[1, 0], [0, 0]], [[1, 0], [0, 1]]]),
        (d4(2, Fraction(1, 2), 0, 3), "omega1", [
            [[2, 0, 0], [0, Fraction(1, 2), 0], [0, 0, Fraction(1, 2)]],
            [[0, 0, 0], [0, 3, 0], [0, 0, 3]],
        ]),
        (d5((1, 2, 0)), "omega2", [[[1]], [[2]], [[0]]]),
        (tube("omega1"), "omega1", [[]] * 2),
        (tube("omega2"), "omega2", [[]] * 3),
        (tube("omega4"), "omega4", [[]] * 4),
        (tube("omega5"), "omega5", [[]] * 4),
    ], ids=["d3", "d4", "d5", "tube-omega1", "tube-omega2", "tube-omega4", "tube-omega5"])
    def test_named_family_is_its_cone_with_diagonal_components(self, domain, cone_id, rows):
        spec = build(domain)
        m, k = len(rows[0]), len(rows)
        assert spec.cone == catalog_cone(cone_id)
        assert (spec.n, spec.k, spec.m) == (m + k, k, m)
        assert spec.form.components == tuple(
            tuple(tuple(gr(x) for x in row) for row in comp) for comp in rows
        )
        # the off-diagonal zeros are the one shared zero
        assert all(comp[i][j] is GR_ZERO
                   for comp in spec.form.components for i in range(m) for j in range(m) if i != j)

    def test_builds_are_compatible_with_their_cones(self):
        domains = [
            ball(3), ball_product(2, 1, 1), d1(4), d2(4),
            d3(1, 0, 1, 1), d4(1, 1, 0, 1), d5((1, 0, 0)), d6((1, 1, 0)),
            t3(), t4(),
        ]
        for domain in domains:
            spec = build(domain)
            assert is_omega_hermitian(spec.form, spec.cone).kind != COUNTEREXAMPLE


PIECES = ("d_m1", "d_mhalf", "d_0", "d_half", "d_1")


class TestProduct:
    @pytest.mark.parametrize("factors,total", [
        ((d2(4), ball(2)), 19),
        ((d5((1, 1, 0)), ball(1)), 12),
        ((d6((2, 1, 0)), ball(2)), 16),
        ((d6((1, 1, 0)), ball(1)), 13),
        ((t3(), ball(2)), 18),
        ((ball(3), ball(2)), 23),
    ])
    def test_every_graded_piece_adds_up(self, factors, total):
        parts = [graded_dims(build(f)) for f in factors]
        whole = graded_dims(product(*(build(f) for f in factors)))
        for piece in PIECES:
            assert getattr(whole, piece) == sum(getattr(p, piece) for p in parts)
        assert whole.total == total

    def test_associative(self):
        a, b, c = build(d6((1, 1, 0))), build(ball(2)), build(tube("omega1"))
        assert product(product(a, b), c) == product(a, product(b, c)) == product(a, b, c)

    def test_ball_product_is_the_product_of_balls(self):
        assert build(ball_product(2, 1, 1)) == product(build(ball_product(2, 1)), build(ball(1)))

    def test_one_factor_is_that_factor(self):
        spec = build(d6((1, 1, 0)))
        assert product(spec) is spec

    def test_family_is_block_diagonal(self):
        spec = product(build(d6((1, 1, 0))), build(ball(3)))
        assert (spec.n, spec.k, spec.m) == (7, 4, 3)
        assert spec.cone.name == "omega3xray"
        diagonals = [[h[i][i].re for i in range(3)] for h in spec.form.components]
        assert diagonals == [[1, 0, 0], [1, 0, 0], [0, 0, 0], [0, 1, 1]]
        assert all(
            h[i][j].is_zero()
            for h in spec.form.components for i in range(3) for j in range(3) if i != j
        )


class TestLabels:
    def test_ball_product_label(self):
        assert ball_product(2, 1, 1).label == "B2xB1xB1"

    def test_tube_labels(self):
        assert t3().label == "T3"
        assert tube("omega5").label == "B1xT3"

    @pytest.mark.parametrize("cone_id", ["OMEGA3", " omega3", "Omega3\t", " OMEGA3 "])
    def test_tube_ids_differing_in_case_or_spaces_are_one_domain(self, cone_id):
        assert tube(cone_id) == tube("omega3") == t3()
        assert tube(cone_id).label == "T3"
        assert tube(cone_id.replace("3", "7")).label == "Tube(omega7)"

    def test_parameter_labels(self):
        assert d6((1, 1, 0)).label == "D6(1,1,0)"
        assert d3(1, 0, 1, 1).label == "D3(1,0,1,1)"


class TestAnalyze:
    def test_totals_respect_bounds(self):
        for domain in (ball(3), d6((1, 1, 0)), ball_product(2, 2), t4()):
            report = analyze(domain)
            total = report.dims.total
            assert total <= report.bounds.component_bound
            assert total <= report.bounds.graded_cap_bound
            assert total <= report.bounds.skew_cap_bound
            assert total <= report.bounds.closed_form_bound

    def test_d1_report(self):
        report = analyze(d1(4))
        assert report.dims.total == 18
        assert report.homogeneity.verdict == "generically-open-orbits"


class TestClassify:
    def test_n2(self):
        assert dict(classify(2).homogeneous) == {"B2": 8, "B1xB1": 6}

    def test_n3(self):
        assert dict(classify(3).homogeneous) == {
            "B3": 15, "B2xB1": 11, "B1xB1xB1": 9, "T3": 10
        }

    def test_n4_survivors(self):
        report = classify(4)
        assert report.survivors_at_target == ("B2xB1xB1",)
        table = dict(report.homogeneous)
        assert table["B2xB1xB1"] == 14
        assert table["T4"] == 15
        assert table["B2xB2"] == 16

    def test_n5_survivors(self):
        report = classify(5)
        assert report.survivors_at_target == ("B3xB2",)
        assert any(e.status == "pruned-by-bound" and e.margin < 0 for e in report.entries)

    def test_pruned_candidates_are_not_transitive(self):
        report = classify(4)
        pruned = [e for e in report.entries if e.status == "pruned-not-transitive"]
        assert {e.label for e in pruned} == {
            "D2(n=4)", "D3(1,0,1,1)", "D3(1,1,0,1)",
            "D5(1,1,0)", "D5(1,1,1)", "D6(2,1,0)",
        }

    def test_factor_permutation_invariance(self):
        a = graded_dims(build(ball_product(2, 1, 1)))
        b = graded_dims(build(ball_product(1, 2, 1)))
        c = graded_dims(build(ball_product(1, 1, 2)))
        assert a.total == b.total == c.total
        assert a.d_0 == b.d_0 == c.d_0

    def test_reads_reports_through_its_analyzer(self):
        # verify_paper hands _classify a lookup that analyzes each domain once
        lookup = functools.cache(analyze)
        for n in range(2, 6):
            assert classify(n) == catalog._classify(n, analyze) == catalog._classify(n, lookup)

    @pytest.mark.xfail(raises=AssertionError, reason=(
        "a row is marked homogeneous on generically open orbits, which do not prove transitivity"))
    def test_every_homogeneous_row_is_proved_transitive(self):
        reports = {}

        def record(domain):
            reports[domain.label] = analyze(domain)
            return reports[domain.label]

        for n in range(2, 6):
            for label, _ in catalog._classify(n, record).homogeneous:
                assert reports[label].homogeneity.verdict != GENERICALLY_OPEN_ORBITS, label

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            classify(6)
        with pytest.raises(ValidationError):
            classify(1)


class TestVerifyPaper:
    def test_fresh_build_all_pass(self):
        report = verify_paper()
        assert report.failed == 0
        assert report.passed == len(report.checks)

    def test_each_domain_analyzed_once(self, monkeypatch):
        # every solution a check reads comes from its domain's report
        built, verdicts, solved = [], [], []
        build_original, verdict_original = catalog.build, catalog.homogeneity_verdict
        solve_original = catalog.solve_all

        def counted_build(domain):
            built.append(domain)
            return build_original(domain)

        def counted_verdict(spec, g0):
            verdicts.append(spec)
            return verdict_original(spec, g0)

        def counted_solve(spec):
            solved.append(spec)
            return solve_original(spec)

        monkeypatch.setattr(catalog, "build", counted_build)
        monkeypatch.setattr(catalog, "homogeneity_verdict", counted_verdict)
        monkeypatch.setattr(catalog, "solve_all", counted_solve)
        assert verify_paper().ok
        assert len(set(built)) == 32
        assert len(built) == len(verdicts) == len(solved) == 32

    def test_perturbed_expectation_fails_alone(self, monkeypatch):
        monkeypatch.setattr(catalog, "_d6_basis_matches", lambda sols: False)
        report = verify_paper()
        assert [c.name for c in report.failures()] == ["d6_g1_matches_known_basis"]

    def test_truncated_cone_fails_many(self, monkeypatch):
        def truncated(cone_id):
            cone = catalog_cone(cone_id)
            if cone_id == "omega3":
                return ConeSpec(
                    cone.name, cone.k, cone.g_basis[:3],
                    cone.interior_point, cone.boundary,
                )
            return cone

        monkeypatch.setattr(catalog, "catalog_cone", truncated)
        report = verify_paper()
        failed = {c.name for c in report.failures()}
        assert len(failed) > 1
        assert "cone_dim_omega3" in failed
        assert "t3_total" in failed


def _g_one(*elements):
    return SimpleNamespace(g_one=elements)


def _map_tensor(t, f):
    return tuple(tuple(tuple(f((l, i, j), x) for j, x in enumerate(row)) for i, row in enumerate(plane))
                 for l, plane in enumerate(t))


class TestD6Reference:
    """``_d6_basis_matches``: g_1 is one (a, 0), a a nonzero multiple of the known quadratic form."""

    @pytest.fixture(scope="class")
    def sols(self):
        return analyze(d6((1, 1, 0))).sols

    def test_the_computed_basis_matches(self, sols):
        assert catalog._d6_basis_matches(sols)

    def test_a_rescaled_form_matches(self, sols):
        ((a, b),) = sols.g_one
        scaled = _map_tensor(a, lambda key, x: x * Fraction(-7, 3))
        assert catalog._d6_basis_matches(_g_one((scaled, b)))

    # two coefficients of the known form and one outside its support, all in the upper triangle
    @pytest.mark.parametrize("key", [(0, 0, 0), (2, 1, 2), (1, 1, 2)])
    def test_one_perturbed_coefficient_fails(self, sols, key):
        ((a, b),) = sols.g_one
        perturbed = _map_tensor(a, lambda at, x: x + 1 if at == key else x)
        assert not catalog._d6_basis_matches(_g_one((perturbed, b)))

    def test_a_nonzero_b_fails(self, sols):
        ((a, b),) = sols.g_one
        bumped = _map_tensor(b, lambda at, x: x + 1 if at == (0, 0, 0) else x)
        assert not catalog._d6_basis_matches(_g_one((a, bumped)))

    def test_two_elements_fail(self, sols):
        ((a, b),) = sols.g_one
        assert not catalog._d6_basis_matches(_g_one((a, b), (a, b)))

    def test_a_zero_form_fails(self, sols):
        ((a, b),) = sols.g_one
        zero = _map_tensor(a, lambda at, x: 0 * x)
        assert not catalog._d6_basis_matches(_g_one((zero, b)))

"""Acceptance battery: every published number this package must reproduce.

One test per criterion; each prints a single pass line on success (run with
``pytest -s tests/test_acceptance.py`` to see them). All comparisons are
exact: the computed values are integers or rationals, never floats.
"""

import pytest

from siegelalg.bounds import bound_chain, closed_form_sweep, s_from_multiplicities
from siegelalg.catalog import (
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
    t3,
    t4,
    tube,
    verify_paper,
)
from siegelalg.cones import catalog_cone, isotropy_bound
from siegelalg.fields import bracket_identities_hold, check_grading, materialize
from siegelalg.graded import SiegelDomainSpec, solve_all, solve_L
from siegelalg.hermitian import HermitianFamily
from siegelalg.homogeneity import (
    GENERICALLY_OPEN_ORBITS,
    NOT_TRANSITIVE,
    homogeneity_verdict,
)


def report(line: str) -> None:
    print(f"[PASS] {line}")


def test_criterion_01_cone_catalog_dims():
    dims = [catalog_cone(f"omega{i}").dim_g for i in range(1, 7)]
    assert dims == [2, 3, 4, 4, 5, 7]
    report("criterion 1: catalog cone algebra dimensions (2, 3, 4, 4, 5, 7)")


def test_criterion_02_isotropy_bound():
    assert [isotropy_bound(k) for k in (2, 3, 4)] == [2, 4, 7]
    for i in range(1, 7):
        cone = catalog_cone(f"omega{i}")
        assert cone.dim_g <= isotropy_bound(cone.k)
    assert catalog_cone("omega3").dim_g == isotropy_bound(3)
    assert catalog_cone("omega6").dim_g == isotropy_bound(4)
    # the cap is also attained at k = 2 by the quadrant cone
    assert catalog_cone("omega1").dim_g == isotropy_bound(2)
    report("criterion 2: isotropy bound values 2, 4, 7; cap respected; attained by omega3, omega6")


def test_criterion_03_ball_maximal_dimension():
    totals = {n: analyze(ball(n)).dims.total for n in (2, 3, 4, 5)}
    assert totals == {2: 8, 3: 15, 4: 24, 5: 35}
    assert all(totals[n] == n * n + 2 * n for n in totals)
    report("criterion 3: ball totals n^2 + 2n for n = 2..5")


def test_criterion_04_tube_totals():
    totals = [
        analyze(tube("omega2")).dims.total,
        analyze(t3()).dims.total,
        analyze(tube("omega4")).dims.total,
        analyze(tube("omega5")).dims.total,
        analyze(t4()).dims.total,
    ]
    assert totals == [9, 10, 12, 13, 15]
    report("criterion 4: tube totals 9, 10, 12, 13, 15")


def test_criterion_05_d1_total():
    assert analyze(d1(4)).dims.total == 18 == 4 * 4 + 2
    report("criterion 5: D1 at n=4 has total 18 = n^2 + 2")


def test_criterion_06_d2_not_transitive():
    verdict = analyze(d2(4)).homogeneity
    assert verdict.verdict == NOT_TRANSITIVE
    assert verdict.a_part_dim == 1
    report("criterion 6: D2 verdict not-transitive with one-dimensional linear part")


def test_criterion_07_d3_vanishing():
    for params in ((1, 0, 1, 1), (1, 1, 0, 1)):
        r = analyze(d3(*params))
        assert (r.dims.d_half, r.dims.d_1) == (0, 0)
        assert r.dims.total <= 10
    report("criterion 7: D3 branches have vanishing upper components, total <= 10")


def test_criterion_08_d4_totals():
    assert analyze(d4(1, 0, 0, 1)).dims.total == 23
    for params in ((1, 0, 1, 1), (1, 1, 0, 1)):
        r = analyze(d4(*params))
        assert (r.dims.d_half, r.dims.d_1) == (0, 0)
        assert r.dims.total <= 15
    report("criterion 8: D4 separable case 23; mixed branches vanish above, total <= 15")


def test_criterion_09_d5():
    for j in range(3):
        v = tuple(1 if i == j else 0 for i in range(3))
        assert analyze(d5(v)).dims.total == 14
    for v in ((1, 1, 0), (1, 1, 1)):
        assert analyze(d5(v)).homogeneity.verdict == NOT_TRANSITIVE
    report("criterion 9: D5 axis cases total 14; multi-entry cases not transitive")


def test_criterion_10_d6():
    r = analyze(d6((1, 1, 0)))
    sols = solve_all(r.spec)
    assert sols.s == 1
    assert r.dims.d_0 == 4
    assert r.dims.d_half == 0
    assert r.dims.d_1 == 1
    assert r.dims.total == 10
    ((a, b),) = sols.g_one
    assert a.shape == (3, 3, 3) and b.shape == (1, 3, 1) and not b.entries
    known = {
        (0, 0, 0): 1, (0, 0, 1): -1, (0, 1, 1): 1, (0, 2, 2): 1,
        (1, 0, 0): -1, (1, 0, 1): 1, (1, 1, 1): -1, (1, 2, 2): 1,
        (2, 0, 2): 1, (2, 1, 2): -1,
    }
    scale = a.entries.get(0, 0)  # a[0][0][0]
    assert scale != 0
    for l in range(3):
        for i in range(3):
            for j in range(i, 3):
                assert a.entries.get((l * 3 + i) * 3 + j, 0) == scale * known.get((l, i, j), 0)
    assert analyze(d6((2, 1, 0))).homogeneity.verdict == NOT_TRANSITIVE
    report("criterion 10: D6 profile (s=1, g0=4, g1/2=0, g1=1 on the known quadratic, total 10);"
           " interior direction not transitive")


def _partitions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _partitions(total - first):
            if not rest or rest[0] >= first:
                yield (first,) + rest


def test_criterion_11_skew_count_oracle_equivalence():
    quadrant = catalog_cone("omega1")
    checked = 0
    for n in (4, 5, 6):
        for mults in _partitions(n - 2):
            eigs = []
            for value, mult in enumerate(mults, start=1):
                eigs.extend([value] * mult)
            fam = HermitianFamily(
                [
                    [[1 if i == j else 0 for j in range(n - 2)] for i in range(n - 2)],
                    [[eigs[i] if i == j else 0 for j in range(n - 2)] for i in range(n - 2)],
                ]
            )
            spec = SiegelDomainSpec(n, 2, quadrant, fam)
            assert solve_L(spec) == s_from_multiplicities(n, mults)
            checked += 1
    assert checked == 2 + 3 + 5
    report(f"criterion 11: skew-space formula matches the solver on {checked} eigenvalue patterns")


def test_criterion_12_high_cone_sweep():
    entries = closed_form_sweep(16)
    assert {(e.n, e.k) for e in entries} == {
        (n, k) for n in range(5, 17) for k in range(3, n + 1)
    }
    assert all(e.margin < 0 for e in entries)
    report("criterion 12: closed-form margins strictly negative for 5 <= n <= 16, k >= 3")


def test_criterion_13_bound_chain_soundness():
    domains = [
        ball(2), ball(3), ball(4),
        tube("omega1"), tube("omega2"), t3(), tube("omega4"), tube("omega5"), t4(),
        d1(4), d2(4), d3(1, 0, 1, 1), d3(1, 1, 0, 1),
        d4(1, 0, 0, 1), d4(1, 0, 1, 1), d4(1, 1, 0, 1),
        d5((1, 0, 0)), d5((1, 1, 0)), d5((1, 1, 1)),
        d6((1, 1, 0)), d6((2, 1, 0)),
        ball_product(2, 1), ball_product(3, 2), ball_product(2, 1, 1),
    ]
    for domain in domains:
        r = analyze(domain)
        for bound in (
            r.bounds.component_bound,
            r.bounds.graded_cap_bound,
            r.bounds.skew_cap_bound,
            r.bounds.closed_form_bound,
        ):
            assert r.dims.total <= bound
        assert r.dims.d_half <= 2 * r.spec.m
        assert r.dims.d_1 <= r.spec.k
        assert r.sols.s <= r.spec.m * r.spec.m
    assert bound_chain(4, 2, 2, 2, 0, 2).component_bound == 12
    assert bound_chain(5, 2, 5, 2, 0, 2).component_bound == 17
    assert bound_chain(4, 3, 1, 4, 0, 3).component_bound == 13
    report("criterion 13: exact totals satisfy the whole bound chain; branch bounds 12, 17, 13")


def test_criterion_14_grading_property_suite():
    for domain in (ball(3), d6((1, 1, 0))):
        spec = build(domain)
        fields = materialize(spec, solve_all(spec))
        grading = check_grading(spec, fields)
        assert grading.passed, grading.failures
    spec = build(d6((1, 1, 0)))
    fields = materialize(spec, solve_all(spec))
    assert len(fields) == 10
    assert bracket_identities_hold(fields)
    report("criterion 14: eigenvalue relations and bracket closure on Ball(3) and D6;"
           " antisymmetry and the Jacobi identity on all 120 D6 triples")


def test_criterion_15_classification_tables():
    assert dict(classify(2).homogeneous) == {"B2": 8, "B1xB1": 6}
    assert dict(classify(3).homogeneous) == {
        "B3": 15, "B2xB1": 11, "B1xB1xB1": 9, "T3": 10
    }
    assert classify(4).survivors_at_target == ("B2xB1xB1",)
    assert classify(5).survivors_at_target == ("B3xB2",)
    report("criterion 15: classification lists for n = 2, 3 and survivor sets for n = 4, 5")


def test_verification_driver_aggregates_all_criteria():
    result = verify_paper()
    assert result.failed == 0, [c.name for c in result.failures()]
    report(f"verification driver: {result.passed} checks, all passing")

"""Builders for the named domain families, classification, and verification.

Every domain analyzed here is a Siegel presentation: a cone from the built-in
catalog plus an explicit Hermitian family. A named family is a catalog cone
plus diagonal components, so one constructor builds them all from the cone and
the diagonals: the ball is the ray with the identity, D1-D4 the quadrant with
two diagonals, D5 and D6 the orthant and Lorentz cone with one entry per
component, and a tube has empty ones. ``product`` composes presentations
(product cone, block-diagonal family), and a ball product is the product of
its balls. A ``DomainId`` carries a family's defining parameters.

The classification driver enumerates this fixed candidate list, not all
homogeneous cones and forms; the report says so in its note field.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .bounds import BoundReport, bound_chain, closed_form_bound, closed_form_sweep, s_from_multiplicities
from . import cones
from .cones import CATALOG_IDS, ConeSpec, _built_catalog_cone, catalog_cone, cone_key, isotropy_bound
from .errors import ValidationError
from .frozen import Frozen
from .fields import bracket_identities_hold, check_grading, materialize
from .graded import GradedDims, GradedSolutions, SiegelDomainSpec, solve_all, solve_L
from .hermitian import COUNTEREXAMPLE, HermitianFamily, is_omega_hermitian
from .homogeneity import NOT_TRANSITIVE, HomogeneityVerdict, homogeneity_verdict
from .linalg import GR_ZERO, Scalar, _frac, _int


_TUBE_LABELS = {
    "omega1": "B1xB1",
    "omega2": "B1xB1xB1",
    "omega3": "T3",
    "omega4": "B1xB1xB1xB1",
    "omega5": "B1xT3",
    "omega6": "T4",
}
_KINDS = ("ball", "ball-product", "d1", "d2", "d3", "d4", "d5", "d6", "tube")


class DomainId(Frozen):
    kind: str
    n: Optional[int] = None
    factors: Optional[tuple[int, ...]] = None
    v: Optional[tuple[Fraction, ...]] = None
    params: Optional[tuple[Fraction, Fraction, Fraction, Fraction]] = None
    cone_id: Optional[str] = None

    def __post_init__(self) -> None:
        # every field is read here, so an id built directly is checked as the builders' are
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown domain kind {self.kind!r}")
        if self.cone_id is not None or self.kind == "tube":
            object.__setattr__(self, "cone_id", cone_key(self.cone_id))
        if self.n is not None or self.kind in ("ball", "d1", "d2"):
            object.__setattr__(self, "n", _int(self.n, "ball dimension" if self.kind == "ball" else "n"))
        readers = (("factors", lambda p: _int(p, "a ball factor")), ("v", _frac), ("params", _frac))
        for name, read in readers:
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, (list, tuple)):
                raise ValidationError(f"{name} must be a list or tuple, got {value!r}")
            object.__setattr__(self, name, tuple(map(read, value)))

    @property
    def label(self) -> str:
        if self.kind == "ball":
            return f"B{self.n}"
        if self.kind == "ball-product":
            return "x".join(f"B{p}" for p in self.factors)
        if self.kind in ("d1", "d2"):
            return f"{self.kind.upper()}(n={self.n})"
        if self.kind in ("d3", "d4"):
            return f"{self.kind.upper()}({','.join(str(x) for x in self.params)})"
        if self.kind in ("d5", "d6"):
            return f"{self.kind.upper()}({','.join(str(x) for x in self.v)})"
        return _TUBE_LABELS.get(self.cone_id, f"Tube({self.cone_id})")


def ball(n: int) -> DomainId:
    return DomainId("ball", n=n)


def ball_product(*factors: int) -> DomainId:
    return DomainId("ball-product", factors=factors)


def d1(n: int) -> DomainId:
    return DomainId("d1", n=n)


def d2(n: int) -> DomainId:
    return DomainId("d2", n=n)


def d3(alpha, beta, gamma, delta) -> DomainId:
    return DomainId("d3", n=4, params=(alpha, beta, gamma, delta))


def d4(alpha, beta, gamma, delta) -> DomainId:
    return DomainId("d4", n=5, params=(alpha, beta, gamma, delta))


def d5(v: Sequence[Union[int, Fraction]]) -> DomainId:
    return DomainId("d5", n=4, v=v)


def d6(v: Sequence[Union[int, Fraction]]) -> DomainId:
    return DomainId("d6", n=4, v=v)


def t3() -> DomainId:
    return DomainId("tube", cone_id="omega3")


def t4() -> DomainId:
    return DomainId("tube", cone_id="omega6")


def tube(cone_id: str) -> DomainId:
    """The tube over a catalog cone; the id is read as ``catalog_cone`` reads it."""
    return DomainId("tube", cone_id=cone_id)


def _diagonal(cone: ConeSpec, diagonals: Sequence[Sequence[Scalar]]) -> SiegelDomainSpec:
    """The domain over ``cone`` whose j-th Hermitian component is diagonal with entries
    ``diagonals[j]``; m is their length, so ``[()] * cone.k`` gives the tube."""
    m = len(diagonals[0])
    comps = [[[d[i] if i == j else GR_ZERO for j in range(m)] for i in range(m)] for d in diagonals]
    return SiegelDomainSpec(m + cone.k, cone.k, cone, HermitianFamily(comps))


def _ball(n: int) -> SiegelDomainSpec:
    """The unit ball of C^n over the ray, with H = the identity on C^(n-1)."""
    if n < 1:
        raise ValidationError("ball dimension must be at least 1")
    return _diagonal(_built_catalog_cone("ray"), [[1] * (n - 1)])


def product(*specs: SiegelDomainSpec) -> SiegelDomainSpec:
    """The product domain: the product cone and the block-diagonal Hermitian family.

    Each factor's components act on that factor's block of w coordinates and
    are zero elsewhere; components and blocks follow the factor order. A
    product of one factor is that factor.
    """
    if len(specs) == 1:
        return specs[0]
    m = sum(spec.m for spec in specs)
    comps, offset = [], 0
    for spec in specs:
        for h in spec.form.components:
            rows = [[GR_ZERO] * m for _ in range(m)]
            for i, row in enumerate(h):
                rows[offset + i][offset:offset + spec.m] = row
            comps.append(rows)
        offset += spec.m
    cone = cones.product(*(spec.cone for spec in specs))
    return SiegelDomainSpec(m + cone.k, cone.k, cone, HermitianFamily(comps))


def build(domain: DomainId) -> SiegelDomainSpec:
    """Siegel presentation of a named domain, a catalog cone with diagonal components; validates
    the parameters."""
    kind = domain.kind
    if kind == "ball":
        return _ball(domain.n)
    if kind == "ball-product":
        factors = domain.factors
        if not factors or any(p < 1 for p in factors):
            raise ValidationError("ball factors must be positive")
        return product(*map(_ball, factors))
    if kind in ("d1", "d2"):
        n = domain.n
        if n < 3:
            raise ValidationError("need n >= 3 for the quadrant families")
        return _diagonal(catalog_cone("omega1"), [[1] * (n - 2), [int(kind == "d2")] * (n - 2)])
    if kind in ("d3", "d4"):
        params = domain.params or ()
        if len(params) != 4:
            raise ValidationError(f"need 4 parameters, got {len(params)}")
        alpha, beta, gamma, delta = params
        if min(params) < 0:
            raise ValidationError("parameters must be nonnegative")
        if alpha * delta - beta * gamma == 0:
            raise ValidationError("parameter determinant must be nonzero")
        r = 1 if kind == "d3" else 2
        return _diagonal(catalog_cone("omega1"), [[alpha] + [beta] * r, [gamma] + [delta] * r])
    if kind in ("d5", "d6"):
        v = domain.v or ()
        if kind == "d5" and (len(v) != 3 or min(v) < 0 or all(x == 0 for x in v)):
            raise ValidationError("need a nonzero nonnegative 3-vector")
        if len(v) != 3:
            raise ValidationError(f"need a 3-vector, got {len(v)} entries")
        if kind == "d6" and (v[0] <= 0 or v[0] * v[0] < v[1] * v[1] + v[2] * v[2]):
            raise ValidationError("need v1 > 0 and v1^2 >= v2^2 + v3^2")
        return _diagonal(catalog_cone("omega2" if kind == "d5" else "omega3"), [[x] for x in v])
    cone = catalog_cone(domain.cone_id)  # a tube
    return _diagonal(cone, [()] * cone.k)


class DomainReport(Frozen):
    label: str
    spec: SiegelDomainSpec
    sols: GradedSolutions
    bounds: BoundReport
    homogeneity: HomogeneityVerdict

    @property
    def dims(self) -> GradedDims:
        return self.sols.dims


def analyze(domain: DomainId) -> DomainReport:
    spec = build(domain)
    sols = solve_all(spec)
    bounds = bound_chain(
        spec.n, spec.k, sols.s, spec.cone.dim_g, sols.dims.d_half, sols.dims.d_1
    )
    return DomainReport(domain.label, spec, sols, bounds, homogeneity_verdict(spec, sols.g0))


# how a driver obtains the report of a domain: ``analyze`` itself, or a lookup
# that analyzes each domain once
Analyzer = Callable[[DomainId], DomainReport]


# ---------------------------------------------------------------------------
# classification

class CandidateEntry(Frozen):
    label: str
    k: int
    status: str   # "homogeneous" | "pruned-not-transitive" | "pruned-by-bound"
    total: Optional[int] = None
    margin: Optional[Fraction] = None


class ClassifyReport(Frozen):
    n: int
    target: int
    note: str
    entries: tuple[CandidateEntry, ...]
    homogeneous: tuple[tuple[str, int], ...]
    survivors_at_target: tuple[str, ...]


def _candidate_ids(n: int) -> list[DomainId]:
    out = [ball(n)]
    if n == 2:
        out.append(tube("omega1"))
        return out
    # cone dimension two
    out.append(ball_product(n - 1, 1))
    out.append(d2(n))
    if n == 4:
        out.extend([ball_product(2, 2), d3(1, 0, 1, 1), d3(1, 1, 0, 1)])
    if n == 5:
        out.extend([ball_product(3, 2), d4(1, 0, 1, 1), d4(1, 1, 0, 1)])
    # cone dimension three and four (absent or pruned for n >= 5)
    if n == 3:
        out.extend([tube("omega2"), t3()])
    if n == 4:
        out.extend(
            [
                ball_product(2, 1, 1),
                d5((1, 1, 0)),
                d5((1, 1, 1)),
                d6((1, 1, 0)),
                d6((2, 1, 0)),
                tube("omega4"),
                tube("omega5"),
                t4(),
            ]
        )
    return out


def classify(n: int) -> ClassifyReport:
    """Candidate table for homogeneous domains of dimension n, 2 <= n <= 5.

    Follows the catalog case split: one candidate family per cone and
    eigenvalue pattern, with high cone dimensions removed by the closed-form
    bound when n >= 5. Survivors at the target are the homogeneous entries
    whose exact total equals n^2 - 2.
    """
    return _classify(_int(n, "n"), analyze)


def _classify(n: int, analyze: Analyzer) -> ClassifyReport:
    """``classify(n)``, with every candidate's report taken from ``analyze``."""
    if not 2 <= n <= 5:
        raise ValidationError("classification supports 2 <= n <= 5")
    target = n * n - 2
    entries: list[CandidateEntry] = []
    homogeneous: list[tuple[str, int]] = []
    for domain in _candidate_ids(n):
        report = analyze(domain)
        if report.homogeneity.verdict == NOT_TRANSITIVE:
            entries.append(
                CandidateEntry(domain.label, report.spec.k, "pruned-not-transitive")
            )
            continue
        entries.append(
            CandidateEntry(domain.label, report.spec.k, "homogeneous", report.dims.total)
        )
        homogeneous.append((domain.label, report.dims.total))
    if n >= 5:
        for k in range(3, n + 1):
            margin = closed_form_bound(n, k) - target
            entries.append(
                CandidateEntry(f"(any domain with k={k})", k, "pruned-by-bound", margin=margin)
            )
    survivors = tuple(label for label, total in homogeneous if total == target)
    return ClassifyReport(
        n=n,
        target=target,
        note=(
            "candidates enumerated from the built-in catalog families only; "
            "this reproduces the known case analysis, not a search over all cones"
        ),
        entries=tuple(entries),
        homogeneous=tuple(homogeneous),
        survivors_at_target=survivors,
    )


# ---------------------------------------------------------------------------
# the verification driver

D6_KNOWN_QUADRATIC = {
    (0, 0, 0): Fraction(1), (0, 0, 1): Fraction(-1), (0, 1, 1): Fraction(1),
    (0, 2, 2): Fraction(1),
    (1, 0, 0): Fraction(-1), (1, 0, 1): Fraction(1), (1, 1, 1): Fraction(-1),
    (1, 2, 2): Fraction(1),
    (2, 0, 2): Fraction(1), (2, 1, 2): Fraction(-1),
}


class CheckResult(Frozen):
    name: str
    expected: object
    computed: object
    passed: bool


class VerifyReport(Frozen):
    checks: tuple[CheckResult, ...]
    passed: int
    failed: int

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _d6_basis_matches(sols) -> bool:
    """Whether g_1 is one element (a, 0) with a a nonzero multiple of ``D6_KNOWN_QUADRATIC``."""
    if len(sols.g_one) != 1:
        return False
    ((a, b),) = sols.g_one
    upper = {index: x for index, x in a.indexed() if index[2] >= index[1]}
    return (
        not b.entries
        and upper.keys() == D6_KNOWN_QUADRATIC.keys()
        and len({upper[key] / x for key, x in D6_KNOWN_QUADRATIC.items()}) == 1
    )


def _partitions(total: int):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _partitions(total - first):
            if not rest or rest[0] >= first:
                yield (first,) + rest


def _skew_formula_agrees() -> bool:
    quadrant = catalog_cone("omega1")
    for n in (4, 5, 6):
        for mults in _partitions(n - 2):
            eigs = [value for value, mult in enumerate(mults, start=1) for _ in range(mult)]
            if solve_L(_diagonal(quadrant, [[1] * (n - 2), eigs])) != s_from_multiplicities(n, mults):
                return False
    return True


def _bound_chain_sound(analyze: Analyzer) -> bool:
    domains = [
        ball(2), ball(3), ball(4),
        tube("omega1"), tube("omega2"), t3(), tube("omega4"), tube("omega5"), t4(),
        d1(4), d2(4),
        d3(1, 0, 1, 1), d3(1, 1, 0, 1),
        d4(1, 0, 0, 1), d4(1, 0, 1, 1), d4(1, 1, 0, 1),
        d5((1, 0, 0)), d5((1, 1, 0)), d5((1, 1, 1)),
        d6((1, 1, 0)), d6((2, 1, 0)),
        ball_product(2, 1), ball_product(3, 2), ball_product(2, 1, 1),
    ]
    for domain in domains:
        report = analyze(domain)
        total = report.dims.total
        b = report.bounds
        if not (
            total <= b.component_bound
            and total <= b.graded_cap_bound
            and total <= b.skew_cap_bound
            and total <= b.closed_form_bound
        ):
            return False
        if report.dims.d_half > 2 * report.spec.m or report.dims.d_1 > report.spec.k:
            return False
        if report.sols.s > report.spec.m * report.spec.m:
            return False
        if is_omega_hermitian(report.spec.form, report.spec.cone).kind == COUNTEREXAMPLE:
            return False
    return True


def verify_paper() -> VerifyReport:
    """Run the complete acceptance battery: each check's expected value against the computed one.

    Each check is one ``check(name, expected, computed)`` call, and the checks
    are reported in call order. Each domain is analyzed once per run: every
    check, the bound-chain sweep and the four classification tables read
    their reports, solutions included, through one table local to this call.
    """
    report = functools.cache(analyze)
    checks: list[CheckResult] = []

    def check(name: str, expected: object, computed: object) -> None:
        checks.append(CheckResult(name, expected, computed, computed == expected))

    catalog_cones = {cone_id: catalog_cone(cone_id) for cone_id in CATALOG_IDS}
    check("cone_dim_omega1", 2, catalog_cones["omega1"].dim_g)
    check("cone_dim_omega2", 3, catalog_cones["omega2"].dim_g)
    check("cone_dim_omega3", 4, catalog_cones["omega3"].dim_g)
    check("cone_dim_omega4", 4, catalog_cones["omega4"].dim_g)
    check("cone_dim_omega5", 5, catalog_cones["omega5"].dim_g)
    check("cone_dim_omega6", 7, catalog_cones["omega6"].dim_g)
    check("isotropy_bound_k2", Fraction(2), isotropy_bound(2))
    check("isotropy_bound_k3", Fraction(4), isotropy_bound(3))
    check("isotropy_bound_k4", Fraction(7), isotropy_bound(4))
    check("isotropy_cap_respected", True, all(
        cone.dim_g <= isotropy_bound(cone.k) for cone in catalog_cones.values()
    ))
    # the cap is attained at k=2 as well: dim g(omega1) = 2 = bound(2)
    check("isotropy_equality_cases", ["omega1", "omega3", "omega6"], [
        cone_id for cone_id, cone in catalog_cones.items() if cone.dim_g == isotropy_bound(cone.k)
    ])

    check("ball_total_n2", 8, report(ball(2)).dims.total)
    check("ball_total_n3", 15, report(ball(3)).dims.total)
    check("ball_total_n4", 24, report(ball(4)).dims.total)
    check("ball_total_n5", 35, report(ball(5)).dims.total)
    check("tube_total_omega2", 9, report(tube("omega2")).dims.total)
    check("t3_total", 10, report(t3()).dims.total)
    check("tube_total_omega4", 12, report(tube("omega4")).dims.total)
    check("tube_total_omega5", 13, report(tube("omega5")).dims.total)
    check("t4_total", 15, report(t4()).dims.total)

    check("d1_total_n4", 18, report(d1(4)).dims.total)
    d2_verdict = report(d2(4)).homogeneity
    check("d2_verdict", NOT_TRANSITIVE, d2_verdict.verdict)
    check("d2_a_part_dim", 1, d2_verdict.a_part_dim)

    d3_1011, d3_1101 = report(d3(1, 0, 1, 1)).dims, report(d3(1, 1, 0, 1)).dims
    check("d3_1011_ghalf", 0, d3_1011.d_half)
    check("d3_1011_g1", 0, d3_1011.d_1)
    check("d3_1101_ghalf", 0, d3_1101.d_half)
    check("d3_1101_g1", 0, d3_1101.d_1)
    check("d3_totals_within_branch_bound", True, d3_1011.total <= 10 and d3_1101.total <= 10)
    check("d4_separable_total", 23, report(d4(1, 0, 0, 1)).dims.total)
    d4_1011, d4_1101 = report(d4(1, 0, 1, 1)).dims, report(d4(1, 1, 0, 1)).dims
    check("d4_1011_ghalf", 0, d4_1011.d_half)
    check("d4_1011_g1", 0, d4_1011.d_1)
    check("d4_1101_ghalf", 0, d4_1101.d_half)
    check("d4_1101_g1", 0, d4_1101.d_1)
    check("d4_totals_within_branch_bound", True, d4_1011.total <= 15 and d4_1101.total <= 15)

    check("d5_axis_totals", [14, 14, 14], [
        report(d5(tuple(1 if i == j else 0 for i in range(3)))).dims.total
        for j in range(3)
    ])
    check("d5_multi_verdicts", [NOT_TRANSITIVE, NOT_TRANSITIVE], [
        report(d5(v)).homogeneity.verdict for v in ((1, 1, 0), (1, 1, 1))
    ])

    d6_report = report(d6((1, 1, 0)))
    check("d6_s", 1, d6_report.sols.s)
    check("d6_g0", 4, d6_report.dims.d_0)
    check("d6_ghalf", 0, d6_report.dims.d_half)
    check("d6_g1", 1, d6_report.dims.d_1)
    check("d6_g1_matches_known_basis", True, _d6_basis_matches(d6_report.sols))
    check("d6_total", 10, d6_report.dims.total)
    check("d6_interior_verdict", NOT_TRANSITIVE, report(d6((2, 1, 0))).homogeneity.verdict)

    check("skew_count_formula_matches_solver", True, _skew_formula_agrees())
    check("high_cone_margins_all_negative", True, all(
        e.margin < 0 for e in closed_form_sweep(16)
    ))
    check("d3_branch_bound", Fraction(12), bound_chain(4, 2, 2, 2, 0, 2).component_bound)
    check("d4_branch_bound", Fraction(17), bound_chain(5, 2, 5, 2, 0, 2).component_bound)
    check("d6_branch_bound", Fraction(13), bound_chain(4, 3, 1, 4, 0, 3).component_bound)
    check("bound_chain_sound_on_catalog", True, _bound_chain_sound(report))

    ball3 = report(ball(3))
    ball3_fields = materialize(ball3.spec, ball3.sols)
    check("grading_ball3", True, check_grading(ball3.spec, ball3_fields).passed)
    d6_fields = materialize(d6_report.spec, d6_report.sols)
    check("grading_d6", True, check_grading(d6_report.spec, d6_fields).passed)
    check("bracket_identities_d6", True, bracket_identities_hold(d6_fields))

    check("classify_n2", {"B2": 8, "B1xB1": 6}, dict(_classify(2, report).homogeneous))
    check("classify_n3", {"B3": 15, "B2xB1": 11, "B1xB1xB1": 9, "T3": 10},
          dict(_classify(3, report).homogeneous))
    check("classify_n4_survivors", ["B2xB1xB1"], list(_classify(4, report).survivors_at_target))
    check("classify_n5_survivors", ["B3xB2"], list(_classify(5, report).survivors_at_target))

    passed = sum(1 for c in checks if c.passed)
    return VerifyReport(tuple(checks), passed, len(checks) - passed)

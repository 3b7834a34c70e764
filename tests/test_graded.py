"""Graded component solvers against hand-checkable and published values."""

import hashlib
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from siegelalg import catalog, graded
from siegelalg.cones import (
    CATALOG_IDS, PolyhedralFactor, catalog_cone, half_line, in_g_omega, lorentz,
)
from siegelalg.errors import ValidationError
from siegelalg.graded import (
    SiegelDomainSpec,
    a_part_basis,
    graded_dims,
    solve_all,
    solve_g0,
    solve_g_half,
    solve_g1,
    solve_L,
)
from siegelalg.hermitian import HermitianFamily
from siegelalg.homogeneity import homogeneity_verdict
from siegelalg.linalg import GR_I, GR_ONE, GR_ZERO, GaussianRational, gr
from siegelalg.serialize import (
    cone_from_json,
    format_json,
    load_domain_spec,
    solutions_bases_to_json,
    to_json,
)
from matrix_oracles import (
    add, apply, as_rows, bilinear_apply, conj_transpose, dense, dense_rref, evaluate, identity,
    is_zero, matmul, rank, skew_basis,
)
from test_golden_bases import DENSE_SPECS

TWO_I = GR_I + GR_I


def diag(*vals):
    n = len(vals)
    return as_rows([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])


def fam(*comps):
    return HermitianFamily(comps)


def empty_fam(k):
    return HermitianFamily([()] * k)


def ball(n):
    return SiegelDomainSpec(n, 1, half_line(), fam(identity(n - 1)))


def tube(cone_id):
    cone = catalog_cone(cone_id)
    return SiegelDomainSpec(cone.k, cone.k, cone, empty_fam(cone.k))


def d6_spec(v=(1, 1, 0)):
    return SiegelDomainSpec(4, 3, catalog_cone("omega3"), fam(diag(v[0]), diag(v[1]), diag(v[2])))


def d3_spec(a, b, g, d):
    return SiegelDomainSpec(4, 2, catalog_cone("omega1"), fam(diag(a, b), diag(g, d)))


def d4_spec(a, b, g, d):
    return SiegelDomainSpec(5, 2, catalog_cone("omega1"), fam(diag(a, b, b), diag(g, d, d)))


def complex_basis(m):
    vecs = []
    for i in range(m):
        e = [GR_ZERO] * m
        e[i] = GR_ONE
        vecs.append(tuple(e))
        ie = [GR_ZERO] * m
        ie[i] = GR_I
        vecs.append(tuple(ie))
    return vecs


def check_associated(spec, a_mat, b_mat):
    """Independent check of A H(w,w') = H(Bw,w') + H(w,Bw') on basis pairs."""
    m = spec.m
    a, b = as_rows(a_mat), as_rows(b_mat)
    for w in complex_basis(m):
        for wp in complex_basis(m):
            hval = evaluate(spec.form, w, wp)
            lhs = apply(a, hval)
            bw = apply(b, w)
            bwp = apply(b, wp)
            rhs = tuple(
                x + y
                for x, y in zip(evaluate(spec.form, bw, wp), evaluate(spec.form, w, bwp))
            )
            assert lhs == rhs


class TestSpecValidation:
    def test_k_range(self):
        with pytest.raises(ValidationError):
            SiegelDomainSpec(2, 3, catalog_cone("omega2"), empty_fam(3))

    def test_cone_dim_must_match(self):
        with pytest.raises(ValidationError):
            SiegelDomainSpec(4, 3, catalog_cone("omega1"), fam(diag(1), diag(1), diag(0)))

    def test_family_must_be_hermitian(self):
        bad = [[gr(0), gr(1)], [gr(0), gr(0)]]
        with pytest.raises(ValidationError):
            SiegelDomainSpec(4, 2, catalog_cone("omega1"), fam(bad, identity(2)))


class TestG0:
    def test_ball_dimension_and_oracle(self):
        # hand parametrization: scalar A = t, B = t/2 + i tau, two parameters
        spec = ball(2)
        sol = solve_g0(spec)
        assert len(sol) == 2
        for a_mat, b_mat in dense(sol):
            check_associated(spec, a_mat, b_mat)

    def test_d6(self):
        assert len(solve_g0(d6_spec())) == 4

    def test_tube_equals_cone_algebra(self):
        sol = solve_g0(tube("omega3"))
        assert len(sol) == catalog_cone("omega3").dim_g

    def test_basis_pairs_satisfy_association(self):
        spec = d3_spec(1, 0, 1, 1)
        for a_mat, b_mat in dense(solve_g0(spec)):
            check_associated(spec, a_mat, b_mat)
            assert in_g_omega(spec.cone, a_mat)


class TestSkewSpace:
    def test_two_distinct_eigenvalues(self):
        spec = SiegelDomainSpec(4, 2, catalog_cone("omega1"), fam(identity(2), diag(1, 2)))
        assert solve_L(spec) == 2

    def test_repeated_eigenvalue_block(self):
        spec = SiegelDomainSpec(5, 2, catalog_cone("omega1"), fam(identity(3), diag(1, 2, 2)))
        assert solve_L(spec) == 5

    def test_d6(self):
        assert solve_L(d6_spec()) == 1

    def test_basis_is_skew_for_all_components(self):
        # the oracle's basis, which the s of every test below is compared with
        for spec in (d6_spec(), d3_spec(1, 0, 1, 1), ball(3)):
            basis = skew_basis(spec.form)
            assert len(basis) == solve_L(spec) > 0
            for b_mat in basis:
                for comp in spec.form.components:
                    assert is_zero(add(matmul(conj_transpose(b_mat), comp), matmul(comp, b_mat)))

    def test_tube_s_zero(self):
        assert solve_L(tube("omega4")) == 0


class TestGHalf:
    @pytest.mark.parametrize("params", [(1, 0, 1, 1), (1, 1, 0, 1)])
    def test_d3_vanishes(self, params):
        assert len(solve_g_half(d3_spec(*params))) == 0

    @pytest.mark.parametrize("params", [(1, 0, 1, 1), (1, 1, 0, 1)])
    def test_d4_vanishes(self, params):
        assert len(solve_g_half(d4_spec(*params))) == 0

    def test_d6_vanishes(self):
        assert len(solve_g_half(d6_spec())) == 0

    def test_ball3_saturates(self):
        # oracle: classical total 15 minus the other components 1+4+5+1
        spec = ball(3)
        sols = solve_all(spec)
        other = spec.k + 2 * spec.m + len(sols.g0) + len(sols.g_one)
        assert len(sols.g_half) == 15 - other == 4

    def test_tube_dim_zero(self):
        assert len(solve_g_half(tube("omega2"))) == 0

    def test_compatibility_identity_on_samples(self):
        # independent check of H(w, c(w',w')) = 2i H(Phi(H(w',w)), w')
        spec = ball(3)
        sol = solve_g_half(spec)
        assert len(sol) > 0
        samples = complex_basis(spec.m) + [
            (gr(Fraction(1, 2), 1), gr(2, Fraction(-1, 3))),
            (gr(-1, 1), gr(Fraction(3, 5))),
        ]
        for phi, c in dense(sol):
            for w in samples:
                for wp in samples:
                    lhs = evaluate(spec.form, w, bilinear_apply(c, wp, wp))
                    inner = evaluate(spec.form, wp, w)
                    phi_val = apply(phi, inner)
                    rhs = tuple(x * TWO_I for x in evaluate(spec.form, phi_val, wp))
                    assert lhs == rhs

    def test_c_is_a_symmetric_tensor(self):
        for _, c in dense(solve_g_half(ball(3))):
            assert all(c[l][i][j] == c[l][j][i] for l, i, j in product(range(2), repeat=3))

    def test_membership_of_induced_maps(self):
        spec = ball(3)
        for phi, _ in dense(solve_g_half(spec)):
            for w0 in complex_basis(spec.m):
                rows = []
                for j in range(spec.k):
                    row = []
                    for l in range(spec.k):
                        col = [phi[v][l] for v in range(spec.m)]
                        val = evaluate(spec.form, w0, col)[j]
                        row.append(val.im)
                    rows.append(row)
                assert in_g_omega(spec.cone, rows)


class TestGOne:
    def test_d6_dimension_and_shape(self):
        sol = solve_g1(d6_spec())
        assert len(sol) == 1
        ((a, b),) = dense(sol)
        assert not any(x for plane in b for row in plane for x in row)
        # proportional to ((x1-x2)^2 + x3^2, -(x1-x2)^2 + x3^2, 2(x1-x2)x3)
        target = {
            (0, 0, 0): 1, (0, 0, 1): -1, (0, 1, 1): 1, (0, 2, 2): 1,
            (1, 0, 0): -1, (1, 0, 1): 1, (1, 1, 1): -1, (1, 2, 2): 1,
            (2, 0, 2): 1, (2, 1, 2): -1,
        }
        scale = a[0][0][0]
        assert scale != 0
        for l in range(3):
            for i in range(3):
                for j in range(i, 3):
                    expect = scale * target.get((l, i, j), 0)
                    assert a[l][i][j] == expect

    @pytest.mark.parametrize("params", [(1, 0, 1, 1), (1, 1, 0, 1)])
    def test_d3_vanishes(self, params):
        assert len(solve_g1(d3_spec(*params))) == 0

    @pytest.mark.parametrize("params", [(1, 0, 1, 1), (1, 1, 0, 1)])
    def test_d4_vanishes(self, params):
        assert len(solve_g1(d4_spec(*params))) == 0

    def test_tube_orthant_diagonal_squares(self):
        # oracle: diagonality of x -> a(x0, x) forces a_l = c_l x_l^2
        sol = solve_g1(tube("omega2"))
        assert len(sol) == 3
        for a, _ in dense(sol):
            for l in range(3):
                for i in range(3):
                    for j in range(i, 3):
                        if not (i == j == l):
                            assert a[l][i][j] == 0

    def test_ball_dimension(self):
        assert len(solve_g1(ball(4))) == 1

    def test_d6_element_satisfies_defining_identities(self):
        spec = d6_spec()
        a, _ = dense(solve_g1(spec))[0]
        # membership of x -> a(x0, x) for coordinate x0
        for t in range(spec.k):
            x0 = [1 if i == t else 0 for i in range(spec.k)]
            rows = [
                [bilinear_apply(a, x0, [1 if p == jj else 0 for p in range(spec.k)])[l].re
                 for jj in range(spec.k)]
                for l in range(spec.k)
            ]
            assert in_g_omega(spec.cone, rows)
        # with b = 0 the association forces a(x0, .) to kill every H(w, w')
        for t in range(spec.k):
            x0 = [1 if i == t else 0 for i in range(spec.k)]
            for w in complex_basis(spec.m):
                for wp in complex_basis(spec.m):
                    hval = evaluate(spec.form, w, wp)
                    a_rows = as_rows(
                        [
                            [bilinear_apply(a, x0, [1 if p == jj else 0 for p in range(spec.k)])[l].re
                             for jj in range(spec.k)]
                            for l in range(spec.k)
                        ]
                    )
                    assert all(x.is_zero() for x in apply(a_rows, hval))


class TestGradedDims:
    def test_d6_full_profile(self):
        dims = graded_dims(d6_spec())
        assert (dims.d_m1, dims.d_mhalf, dims.d_0, dims.d_half, dims.d_1) == (3, 2, 4, 0, 1)
        assert dims.total == 10

    def test_d4_separable_case(self):
        assert graded_dims(d4_spec(1, 0, 0, 1)).total == 23

    def test_tube_totals(self):
        assert graded_dims(tube("omega3")).total == 10
        assert graded_dims(tube("omega6")).total == 15

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
    def test_lorentz_tube_totals(self, d):
        # the tube over lorentz(d) is the Cartan domain of type IV: dim so(d, 2)
        spec = SiegelDomainSpec(d, d, lorentz(d), empty_fam(d))
        assert graded_dims(spec).total == (d + 1) * (d + 2) // 2

    @pytest.mark.parametrize("n", [2, 3, 4, 10])
    def test_ball_maximal(self, n):
        assert graded_dims(ball(n)).total == n * n + 2 * n

    def test_projection_kernel_is_skew_space(self):
        # rank-nullity: dim g0 = s + dim of the A-part image, s from the direct skew solve
        for spec in (d6_spec(), d3_spec(1, 0, 1, 1), ball(3), tube("omega5")):
            sols = solve_all(spec)
            a_rows = [[x for row in a for x in row] for a, _ in dense(sols.g0)]
            a_rank = rank(a_rows)
            assert len(sols.g0) == len(skew_basis(spec.form)) + a_rank == sols.s + a_rank

    def test_structural_caps(self):
        for spec in (d6_spec(), ball(4), d4_spec(1, 0, 0, 1), tube("omega4")):
            dims = graded_dims(spec)
            s = solve_L(spec)
            assert dims.d_half <= 2 * spec.m
            assert dims.d_1 <= spec.k
            assert dims.d_0 <= s + spec.cone.dim_g
            assert s <= spec.m * spec.m

    def test_determinism(self):
        spec = d6_spec()
        assert solve_all(spec) == solve_all(spec)

    def test_m_zero_forces_vanishing(self):
        for cone_id in ("omega2", "omega3"):
            spec = tube(cone_id)
            assert len(solve_g_half(spec)) == 0
            assert solve_L(spec) == 0

    @pytest.mark.parametrize("scales", [(2, 1), (1, 3), (Fraction(1, 2), 5)])
    def test_rescaling_equivariance(self, scales):
        # conjugating the family by a diagonal rescaling of w preserves dims
        base = d3_spec(1, 0, 1, 1)
        t = diag(*scales)
        rescaled = fam(*(matmul(matmul(conj_transpose(t), comp), t) for comp in base.form.components))
        spec = SiegelDomainSpec(4, 2, catalog_cone("omega1"), rescaled)
        assert graded_dims(spec) == graded_dims(base)

    @pytest.mark.parametrize("scales", [(2, 1, 1), (1, 2, 3)])
    def test_rescaling_equivariance_d4(self, scales):
        base = d4_spec(1, 1, 0, 1)
        t = diag(*scales)
        rescaled = fam(*(matmul(matmul(conj_transpose(t), comp), t) for comp in base.form.components))
        spec = SiegelDomainSpec(5, 2, catalog_cone("omega1"), rescaled)
        assert graded_dims(spec) == graded_dims(base)


RESIDUAL_DOMAINS = {
    "ball3": catalog.ball(3),
    "ballproduct2_2": catalog.ball_product(2, 2),
    "d6_110": catalog.d6((1, 1, 0)),
    "t4": catalog.t4(),
    "d1_4": catalog.d1(4),
}

# Domains whose H has entries with a denominator other than 1.
RATIONAL_DOMAINS = {
    "d3_half_0_third_1": catalog.d3(Fraction(1, 2), 0, Fraction(1, 3), 1),
}
SOLVER_DOMAINS = {**RESIDUAL_DOMAINS, **RATIONAL_DOMAINS}


def _assembled(solver, spec) -> int:
    """How many systems ``solver`` assembles for ``spec``: none for ``solve_L``, which reads s
    off the weight-0 basis, none for ``solve_g_half`` when m = 0, one otherwise."""
    return int(solver is not solve_L and not (solver is solve_g_half and spec.m == 0))


@pytest.mark.parametrize("name", sorted(RESIDUAL_DOMAINS) + sorted(RATIONAL_DOMAINS))
@pytest.mark.parametrize("solver", [solve_g0, solve_L, solve_g_half, solve_g1],
                         ids=lambda f: f.__name__)
def test_solutions_satisfy_assembled_rows_exactly(name, solver, monkeypatch):
    """Every basis vector annihilates every assembled row; the count is n - rank.

    ``solve_L`` assembles no row: it reads s off the cached weight-0 basis.

    Rows hold exact nonzero scalars: on the integral ``RESIDUAL_DOMAINS``
    (Gaussian-integer H over an integer cone) only ``int``s, so the rows reach
    ``sparse_rref`` integral; on the ``RATIONAL_DOMAINS`` ``int``s where the
    inputs are integral and ``Fraction``s elsewhere, both present. No other
    type (a ``Fraction`` with denominator 1 left unconverted on an integral
    domain, a ``GaussianRational``) may reach a row.
    """
    systems = []
    solutions = graded._System.solutions

    def recording(self):
        basis = solutions(self)
        systems.append((self.n, list(self.rows), basis))
        return basis

    spec = catalog.build(SOLVER_DOMAINS[name])
    solve_g0(spec)  # cached first: solve_L reads it
    monkeypatch.setattr(graded._System, "solutions", recording)
    solver.__wrapped__(spec)
    assert len(systems) == _assembled(solver, spec)
    for n, rows, basis in systems:
        types = {type(c) for row in rows for c in row.values()}
        if name in RESIDUAL_DOMAINS:
            assert types <= {int}  # empty for the tube t4's g0 and L: m = 0
        else:
            assert types == {int, Fraction}
        assert all(c != 0 for row in rows for c in row.values())
        for v in basis:
            assert all(0 <= j < n and x != 0 for j, x in v.items())  # sparse: nonzeros only
            for row in rows:
                assert sum((c * v.get(j, 0) for j, c in row.items()), Fraction(0)) == 0
        dense = [[row.get(j, Fraction(0)) for j in range(n)] for row in rows]
        _, pivots = dense_rref(dense, n, Fraction(1))
        assert len(basis) == n - len(pivots)
        dense_basis = [[v.get(j, Fraction(0)) for j in range(n)] for v in basis]
        _, basis_pivots = dense_rref(dense_basis, n, Fraction(1))
        assert len(basis_pivots) == len(basis)


LAYOUT_SHAPES = {
    solve_g0: lambda spec: [("real", (spec.cone.dim_g,)), ("complex", (spec.m, spec.m))],
    solve_L: lambda spec: [],
    solve_g_half: lambda spec: [
        ("complex", (spec.m, spec.k)),
        ("complex", (spec.m, spec.m * (spec.m + 1) // 2)),
    ],
    solve_g1: lambda spec: [
        ("real", (spec.k, spec.k * (spec.k + 1) // 2)),
        ("complex", (spec.m, spec.k, spec.m)),
    ],
}


def _entries(values, index=()):
    if isinstance(values, tuple):
        for i, v in enumerate(values):
            yield from _entries(v, index + (i,))
    else:
        yield index, values


@pytest.mark.parametrize("name", sorted(RESIDUAL_DOMAINS))
@pytest.mark.parametrize("solver", [solve_g0, solve_L, solve_g_half, solve_g1],
                         ids=lambda f: f.__name__)
def test_layout_round_trip(name, solver, monkeypatch):
    """Each column is exactly one entry's re or im part, and the blocks tile the system.

    ``solve_L`` declares no unknowns and assembles no system.
    """
    sizes = []

    def recording(self):
        sizes.append(self.n)
        return []

    spec = catalog.build(RESIDUAL_DOMAINS[name])
    solve_g0(spec)  # cached first: solve_L reads it, and the recording solve returns no basis
    monkeypatch.setattr(graded._System, "solutions", recording)
    solver.__wrapped__(spec)
    system = graded._System()
    blocks = [getattr(system, kind)(*shape) for kind, shape in LAYOUT_SHAPES[solver](spec)]
    assert sizes == [system.n] * _assembled(solver, spec)
    stops = [0] + [b.stop for b in blocks]
    assert [b.start for b in blocks] == stops[:-1]
    assert stops[-1] == system.n
    for col in range(system.n):
        sol = {col: Fraction(1)}  # the sparse vector with one unit entry
        hits = [
            (block, index, value)
            for block in blocks
            for index, value in _entries(block.array(sol).dense())
            if value
        ]
        assert len(hits) == 1
        block, index, value = hits[0]
        re_col = col if value in (1, GR_ONE) else col - 1
        if block.width == 1:
            assert type(value) is Fraction and value == 1
        else:
            assert value in (GR_ONE, GR_I)
        assert block[index].re == {re_col: 1}
        assert block[index].im == ({} if block.width == 1 else {re_col + 1: 1})


def _all_fractions(value):
    entries = [x for _, x in _entries(value)]
    return bool(entries) and all(type(x) is Fraction for x in entries)


CUSTOM_QUADRANT = {
    "k": 2,
    "g_basis": [[["1", "0"], ["0", "0"]], [[{"re": "0"}, "0"], ["0", {"re": "1", "im": "0"}]]],
    "interior_point": ["1", "1"],
    "boundary": [{"kind": "polyhedral", "functionals": [["1", "0"], ["0", "1"]]}],
}


@pytest.mark.parametrize("cone_id", list(CATALOG_IDS) + ["custom"])
def test_cone_data_is_fraction(cone_id):
    """A cone's basis, interior point and functionals are plain Fractions, never ints or Gaussian
    rationals; an annihilator coefficient is an int exactly where its denominator is 1."""
    cone = cone_from_json(CUSTOM_QUADRANT) if cone_id == "custom" else catalog_cone(cone_id)
    assert _all_fractions(cone.g_basis)
    assert _all_fractions(cone.interior_point)
    functionals = [f for factor in cone.boundary if isinstance(factor, PolyhedralFactor)
                   for f in factor.functionals]
    assert all(type(x) is Fraction for f in functionals for x in f)
    coefficients = [x for a in cone.annihilator_terms for _, _, x in a]
    assert all(type(x) is (int if x.denominator == 1 else Fraction) for x in coefficients)


@pytest.mark.parametrize("name", ["ball3", "ballproduct2_2", "d6_110", "t4"])
def test_real_solver_data_is_fraction(name):
    """Every A of g0, every a of g1 and the A-part basis are plain Fractions."""
    spec = catalog.build(RESIDUAL_DOMAINS[name])
    sols = solve_all(spec)
    assert sols.g0 and sols.g_one
    for a_mat, _ in dense(sols.g0):
        assert len(a_mat) == spec.k and _all_fractions(a_mat)
    for a, b in dense(sols.g_one):
        assert _all_fractions(a)
        assert all(type(x) is GaussianRational for _, x in _entries(b))
    basis = a_part_basis(sols.g0)
    assert basis and all(_all_fractions(a) for a in basis)


def _json_leaves(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for v in value:
            yield from _json_leaves(v)
    else:
        yield value


def _boundary_spec(name):
    if name.startswith("dense:"):
        spec, _ = load_domain_spec(DENSE_SPECS[name.removeprefix("dense:")][0])
        return spec
    return catalog.build(SOLVER_DOMAINS[name])


@pytest.mark.parametrize(
    "name", sorted(RESIDUAL_DOMAINS) + sorted(RATIONAL_DOMAINS) + ["dense:ballproduct2_2"]
)
def test_no_int_leaves_the_assembly(name):
    """Solver outputs hold only ``Fraction``s, and ``GaussianRational``s of ``Fraction`` parts.

    Rows are assembled over ``int``s where the inputs are integral, and
    ``sparse_rref`` builds its result entries as ``Fraction``s. An ``int``
    that got through would be emitted by ``to_json`` as a bare JSON number
    (``2``) instead of a string (``"2"``), so every emitted leaf is a string.
    """
    sols = solve_all(_boundary_spec(name))
    scalars = [x for _, x in _entries(tuple(map(dense, (sols.g0, sols.g_half, sols.g_one))))]
    assert scalars
    for x in scalars:
        if type(x) is GaussianRational:
            assert type(x.re) is Fraction and type(x.im) is Fraction
        else:
            assert type(x) is Fraction
    leaves = list(_json_leaves(to_json(solutions_bases_to_json(sols))))
    assert leaves and all(type(x) is str for x in leaves)


# every classify candidate for n = 2..5, D1(4) and two domains with rational H; with
# D4(1,0,0,1) and D5(1,0,0) these hold every domain of catalog._bound_chain_sound
INVARIANT_DOMAINS = list(dict.fromkeys(
    [domain for n in range(2, 6) for domain in catalog._candidate_ids(n)]
    + [catalog.d1(4), *RATIONAL_DOMAINS.values()]
    + [catalog.d6((Fraction(3, 2), Fraction(1, 2), Fraction(1, 3)))]
    + [catalog.d4(1, 0, 0, 1), catalog.d5((1, 0, 0))]
))


@pytest.mark.parametrize("domain", INVARIANT_DOMAINS, ids=lambda d: d.label)
def test_skew_part_is_the_kernel_of_the_a_part(domain):
    """L is the kernel of (A, B) -> A on g0: s = dim g0 - dim of the span of the A-parts
    equals the dimension of the direct solve of B* H_j + H_j B = 0 (``skew_basis``)."""
    spec = catalog.build(domain)
    sols = solve_all(spec)
    assert solve_L(spec) == sols.s == len(skew_basis(spec.form))


def test_solver_caches_keep_one_domain():
    solve_all(catalog.build(catalog.ball(3)))
    solve_all(catalog.build(catalog.d6((1, 1, 0))))
    for solver in (solve_g0, solve_L, solve_g_half, solve_g1):
        assert solver.cache_info().currsize == 1


# (columns, rows, nonzeros) of each system that solve_g0, solve_g_half and solve_g1 solve, in
# that order; the tube over omega5 has m = 0, so solve_g_half assembles none there
SYSTEM_SHAPES = {
    "ball6": (catalog.ball(6), [(51, 25, 50), (160, 150, 200), (51, 431, 540)]),
    "ballproduct3_3": (catalog.ball_product(3, 3), [(34, 24, 32), (96, 104, 120), (70, 322, 360)]),
    "d6_110": (catalog.d6((1, 1, 0)), [(6, 3, 8), (8, 14, 26), (24, 39, 75)]),
    "d4_third_2sevenths_5halves_ninth": (
        catalog.d4(Fraction(1, 3), Fraction(2, 7), Fraction(5, 2), Fraction(1, 9)),
        [(20, 18, 36), (48, 84, 156), (42, 228, 526)],
    ),
    "tube_omega5": (catalog.tube("omega5"), [(5, 0, 0), (40, 44, 64)]),
}


@pytest.mark.parametrize("name", sorted(SYSTEM_SHAPES))
def test_assembled_system_shapes(name, monkeypatch):
    """The solvers emit exactly these rows: a row dropped, repeated or split moves a count even
    where the bases stay the same."""
    domain, expected = SYSTEM_SHAPES[name]
    shapes = []
    solutions = graded._System.solutions

    def recording(self):
        shapes.append((self.n, len(self.rows), sum(map(len, self.rows))))
        return solutions(self)

    for solver in (solve_g0, solve_L, solve_g_half, solve_g1):
        solver.cache_clear()  # each system is assembled here, whatever ran before
    monkeypatch.setattr(graded._System, "solutions", recording)
    solve_all(catalog.build(domain))
    assert shapes == expected


SMALL_FRACTIONS = st.fractions(min_value=-4, max_value=4, max_denominator=3)
SPARSE_ROWS = st.dictionaries(st.integers(0, 6), SMALL_FRACTIONS, max_size=5)
FACTORS = st.one_of(
    st.sampled_from([0, 1, -1, Fraction(1), Fraction(-1), GR_ONE, -GR_ONE, gr(Fraction(1, 2))]),
    st.integers(-3, 3),
    SMALL_FRACTIONS,
    st.builds(GaussianRational, SMALL_FRACTIONS, SMALL_FRACTIONS),
)


def _as_gaussian(lin):
    """The expression as {unknown: nonzero Gaussian coefficient}."""
    out = {}
    for j in set(lin.re) | set(lin.im):
        c = GaussianRational(Fraction(lin.re.get(j, 0)), Fraction(lin.im.get(j, 0)))
        if not c.is_zero():
            out[j] = c
    return out


@given(acc_re=SPARSE_ROWS, acc_im=SPARSE_ROWS, other_re=SPARSE_ROWS, other_im=SPARSE_ROWS,
       factors=st.lists(FACTORS, max_size=3))
@settings(derandomize=True, max_examples=100, deadline=None)
def test_lin_add_matches_gaussian_reference(acc_re, acc_im, other_re, other_im, factors):
    """acc.add(other, *factors) is acc + (product of factors) * other, computed with Gaussian rationals."""
    acc = graded._Lin(dict(acc_re), dict(acc_im))
    other = graded._Lin(dict(other_re), dict(other_im))
    scale = GR_ONE
    for f in factors:
        scale = scale * GaussianRational.of(f)
    expected = _as_gaussian(acc)
    for j, x in _as_gaussian(other).items():
        expected[j] = expected.get(j, GR_ZERO) + scale * x
    acc.add(other, *factors)
    assert _as_gaussian(acc) == {j: c for j, c in expected.items() if not c.is_zero()}
    assert all(type(c) is Fraction for c in [*acc.re.values(), *acc.im.values()])
    assert (other.re, other.im) == (other_re, other_im)
    if any(GaussianRational.of(f).is_zero() for f in factors):
        assert (acc.re, acc.im) == (acc_re, acc_im)


@st.composite
def invertible_gaussian(draw, m):
    entry = st.builds(gr, st.integers(-2, 2), st.integers(-2, 2))
    p = draw(st.lists(
        st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m
    ))
    assume(rank(p) == m)
    return p


COORDINATE_CHANGE_DOMAINS = {
    "ball3": catalog.ball(3),
    "ballproduct2_2": catalog.ball_product(2, 2),
    "d6_110": catalog.d6((1, 1, 0)),
}


@pytest.mark.parametrize("name", sorted(COORDINATE_CHANGE_DOMAINS))
@given(data=st.data())
@settings(derandomize=True, max_examples=4, deadline=None)
def test_w_coordinate_change_invariance(name, data):
    """H_j -> P* H_j P for invertible P is a biholomorphism: dims and s are unchanged."""
    base = catalog.build(COORDINATE_CHANGE_DOMAINS[name])
    p = data.draw(invertible_gaussian(base.m))
    moved = fam(*(matmul(matmul(conj_transpose(p), h), p) for h in base.form.components))
    spec = SiegelDomainSpec(base.n, base.k, base.cone, moved)
    assert graded_dims(spec) == graded_dims(base)
    assert solve_L(spec) == solve_L(base) == len(skew_basis(spec.form))


def _orthant_maps(k):
    """Each permutation of the k axes followed by the scaling diag(1, 2, 1/3), cut to k."""
    scales = (1, 2, Fraction(1, 3))[:k]
    return [
        ("perm" + "".join(map(str, sigma)),
         [[scales[j] if sigma[j] == l else 0 for l in range(k)] for j in range(k)])
        for sigma in permutations(range(k))
    ]


# Lorentz maps of omega3 (x0 the axis): a boost from the triple (3, 4, 5) and a rotation
LORENTZ_MAPS = [
    ("boost", [[Fraction(5, 3), Fraction(4, 3), 0], [Fraction(4, 3), Fraction(5, 3), 0], [0, 0, 1]]),
    ("rotation", [[1, 0, 0], [0, Fraction(3, 5), Fraction(-4, 5)], [0, Fraction(4, 5), Fraction(3, 5)]]),
]
CONE_AUTOMORPHISM_CASES = [
    (domain, name, g)
    for domain, k in [(catalog.d5((1, 1, 1)), 3), (catalog.d3(1, 0, 1, 1), 2),
                      (catalog.d2(4), 2), (catalog.ball_product(2, 2), 2)]
    for name, g in _orthant_maps(k)
] + [
    (catalog.d6(v), name, g)
    for v in [(1, 1, 0), (2, 1, 0), (Fraction(3, 2), Fraction(1, 2), Fraction(1, 3))]
    for name, g in LORENTZ_MAPS
]


@pytest.mark.parametrize(
    "domain, g",
    [(d, g) for d, _, g in CONE_AUTOMORPHISM_CASES],
    ids=[f"{d.label}-{name}" for d, name, _ in CONE_AUTOMORPHISM_CASES],
)
def test_cone_automorphism_invariance(domain, g):
    """z -> g z for g in Aut(Omega) is a biholomorphism onto the domain over the same cone with
    H'_j = sum_l g_jl H_l, so dims and s are unchanged."""
    base = catalog.build(domain)
    comps = base.form.components
    moved = fam(*(
        [
            [sum((g[j][l] * h[a][b] for l, h in enumerate(comps)), GR_ZERO)
             for b in range(base.m)]
            for a in range(base.m)
        ]
        for j in range(base.k)
    ))
    spec = SiegelDomainSpec(base.n, base.k, base.cone, moved)
    assert moved != base.form
    assert graded_dims(spec) == graded_dims(base)
    assert solve_L(spec) == solve_L(base) == len(skew_basis(spec.form))


def _moved(domain, p):
    """The domain after the w-coordinate change H_j -> P* H_j P."""
    base = catalog.build(domain)
    comps = [matmul(matmul(conj_transpose(p), h), p) for h in base.form.components]
    return SiegelDomainSpec(base.n, base.k, base.cone, fam(*comps))


# dense Gaussian-integer coordinate changes: every entry of every moved H_j is read
P1 = ((gr(1, 1),),)
P2 = ((GR_ONE, GR_I), (gr(1, 1), gr(-1)))
DENSE_CHANGES = {
    "ball3": (catalog.ball(3), P2),
    "d1_4": (catalog.d1(4), P2),
    "d6_110": (catalog.d6((1, 1, 0)), P1),
}
IDENTITY_DOMAINS = sorted(SOLVER_DOMAINS) + [f"dense:{name}" for name in sorted(DENSE_CHANGES)]


# Every golden family is integral, so these pin bases no golden reaches: the sha256 of
# format_json(solutions_bases_to_json(solve_all(spec))) for fractional families, the last
# after H -> P* H P with a fractional Gaussian P.
P_FRACTIONAL = ((GR_ONE, gr(Fraction(1, 2), Fraction(1, 3))), (GR_ZERO, gr(Fraction(2, 3))))
FRACTIONAL_BASES = {
    "d3_half_third_2_5sevenths": (
        lambda: catalog.build(catalog.d3(Fraction(1, 2), Fraction(1, 3), 2, Fraction(5, 7))),
        "02e81d7c26b9d0e0a9c2c246c379bf1efe59561212eeb63ef0a03e1a0cc96c55",
    ),
    "d4_third_2sevenths_5halves_ninth": (
        lambda: catalog.build(
            catalog.d4(Fraction(1, 3), Fraction(2, 7), Fraction(5, 2), Fraction(1, 9))
        ),
        "ed7fa6196d6db89479bd8efa06e7ab44d5509e69d40b979ad5b379352f83dcaf",
    ),
    "d6_3halves_half_third": (
        lambda: catalog.build(catalog.d6((Fraction(3, 2), Fraction(1, 2), Fraction(1, 3)))),
        "fe5b3094968636f15a98f43a4ef94681b1773076ee147365c4bd5f7d10555311",
    ),
    "ball3_fractional_change": (
        lambda: _moved(catalog.ball(3), P_FRACTIONAL),
        "b19a1e2f353631bc69ccc817bade7e3e31bd3b360515ad7ab0f79fc6717df572",
    ),
}


@pytest.mark.parametrize("name", sorted(FRACTIONAL_BASES))
def test_fractional_bases_are_byte_identical(name):
    build, digest = FRACTIONAL_BASES[name]
    text = format_json(solutions_bases_to_json(solve_all(build())))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _identity_spec(name):
    if name.startswith("dense:"):
        return _moved(*DENSE_CHANGES[name.removeprefix("dense:")])
    return catalog.build(SOLVER_DOMAINS[name])


def _unit(k, t):
    return [1 if i == t else 0 for i in range(k)]


@pytest.mark.parametrize("name", IDENTITY_DOMAINS)
def test_g0_association_holds_at_every_pair_of_units(name):
    """A H(w, w') = H(Bw, w') + H(w, Bw') for every (w, w') of the coordinate set, in both
    orders, though the solver emits the association only for entries u <= v."""
    spec = _identity_spec(name)
    sols = solve_all(spec)
    assert sols.g0
    for a_mat, b_mat in dense(sols.g0):
        check_associated(spec, a_mat, b_mat)
        assert in_g_omega(spec.cone, a_mat)


@pytest.mark.parametrize("name", IDENTITY_DOMAINS)
def test_g1_identities_hold_at_every_pair_of_units(name):
    """For every (a, b) of g1: w -> b(e_t, w)/2 is associated to a(e_t, .) at every pair of
    units, and x -> Im H(w1, b(x, w0)) is in g(Omega) for all four kinds of unit pairs
    (w0, w1), though the solver instantiates w1 = e_u only."""
    spec = _identity_spec(name)
    k, m = spec.k, spec.m
    sols = solve_all(spec)
    assert sols.g_one or name.startswith("d3")
    for a, b in dense(sols.g_one):
        for t in range(k):
            a_t = [[a[l][t][j] for j in range(k)] for l in range(k)]
            b_t = [[b[l][t][p] / 2 for p in range(m)] for l in range(m)]
            check_associated(spec, a_t, b_t)
        for w0 in complex_basis(m):
            b_w0 = [bilinear_apply(b, _unit(k, t), w0) for t in range(k)]  # b(e_t, w0)
            for w1 in complex_basis(m):
                values = [evaluate(spec.form, w1, col) for col in b_w0]
                rows = [[values[t][j].im for t in range(k)] for j in range(k)]
                assert in_g_omega(spec.cone, rows)


@pytest.mark.parametrize("width", [1, 2], ids=["real", "complex"])
def test_symmetric_block_round_trip(width):
    """Each column of a block of symmetric forms is one unknown (l, i, j), i <= j, in that
    order; its unit vector sets entry (l, i, j) and, off the diagonal, the mirror (l, j, i)."""
    forms, n = 2, 3
    system = graded._System()
    system.real(2)  # an earlier block, so the forms do not start at column 0
    block = system.symmetric(forms, n, width)
    unknowns = [(l, i, j) for l in range(forms) for i in range(n) for j in range(i, n)]
    assert (block.start, block.stop, system.n) == (2, 2 + width * len(unknowns), block.stop)
    for col in range(block.start, block.stop):
        u, part = divmod(col - block.start, width)
        l, i, j = unknowns[u]
        hits = {index: value for index, value in _entries(block.array({col: Fraction(1)}).dense())
                if value}
        assert set(hits) == {(l, i, j), (l, j, i)}
        if width == 1:
            assert all(type(v) is Fraction and v == 1 for v in hits.values())
        else:
            assert set(hits.values()) == {(GR_ONE, GR_I)[part]}
        assert block[l, i, j] is block[l, j, i]
        re_col = col - part
        assert block[l, i, j].re == {re_col: 1}
        assert block[l, i, j].im == ({} if width == 1 else {re_col + 1: 1})


def _a_part(shape, entries=None):
    return (graded.SparseArray(shape, Fraction(0), entries or {}), graded.SparseArray((1, 1), GR_ZERO, {}))


NOT_SOLVE_G0 = "g0 must hold pairs (A, B) of SparseArrays, as solve_g0 returns"
NOT_SQUARE = "A-parts must be square matrices of one size"


@pytest.mark.parametrize("g0, message", [
    # dense nested tuples, as a basis element was indexed before: not solve_g0's form
    ([(((Fraction(1), Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))), ())], NOT_SOLVE_G0),
    ([(((Fraction(1),),), ()), (((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))), ())],
     NOT_SOLVE_G0),
    ([_a_part((2, 2))[0]], NOT_SOLVE_G0),
    ([(*_a_part((2, 2)), None)], NOT_SOLVE_G0),
    ([_a_part((2, 2)), [*_a_part((2, 2))]], NOT_SOLVE_G0),
    ([_a_part((2, 3), {0: Fraction(1)})], NOT_SQUARE),
    ([_a_part((1, 1)), _a_part((2, 2), {3: Fraction(1)})], NOT_SQUARE),
    ([_a_part((4,), {0: Fraction(1)})], NOT_SQUARE),
    ([_a_part(())], NOT_SQUARE),
], ids=["ragged", "two-sizes", "bare-array", "triple", "list-pair", "sparse-not-square",
        "sparse-two-sizes", "sparse-vector", "sparse-scalar"])
def test_a_part_basis_refuses_a_parts_that_are_not_square_of_one_size(g0, message):
    """``a_part_basis`` reads ``solve_g0``'s pairs of ``SparseArray``s with k x k A-parts
    only; any other ``g0`` is refused, also through ``homogeneity_verdict``."""
    with pytest.raises(ValidationError) as exc:
        a_part_basis(g0)
    assert str(exc.value) == message
    with pytest.raises(ValidationError) as exc:
        homogeneity_verdict(catalog.build(catalog.ball(2)), g0)
    assert str(exc.value) == message


def test_spec_refuses_a_family_of_the_wrong_shape():
    with pytest.raises(ValidationError) as exc:
        SiegelDomainSpec(3, 1, half_line(), HermitianFamily([((1,),)]))
    assert str(exc.value) == "Hermitian family must have k components on C^(n-k)"

"""Hermitian families, exact negative directions, and cone compatibility."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from siegelalg import catalog
from siegelalg.cones import Region, catalog_cone, classify_point
from siegelalg.errors import ValidationError
from siegelalg.hermitian import (
    COUNTEREXAMPLE,
    VERIFIED_EXACT,
    VERIFIED_ON_SAMPLES,
    HermitianFamily,
    OmegaHermitianVerdict,
    _basis_like_vectors,
    _Lcg,
    is_omega_hermitian,
    negative_direction,
)
from siegelalg.linalg import GR_I, GR_ONE, GR_ZERO, GaussianRational, gr
from matrix_oracles import (
    apply, as_rows, conj_transpose, dense_rref, evaluate, identity, matmul, nonzero_table, rank, zeros,
)


def diag(*vals):
    n = len(vals)
    return as_rows([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])


def family(*components):
    return HermitianFamily(components)


def real_value(fam, w):
    """H(w, w) as a real vector; its imaginary parts vanish for a Hermitian family."""
    values = evaluate(fam, w)
    assert all(v.im == 0 for v in values)
    return tuple(v.re for v in values)


D6_FORM = family(diag(1), diag(1), diag(0))
# compatible with omega3, on its boundary where w1 or w2 vanishes:
# H(w, w) = (|w1|^2 + |w2|^2, |w1|^2 - |w2|^2, 0)
LORENTZ_M2_FORM = family(diag(1, 1), diag(1, -1), diag(0, 0))
# incompatible with omega3, but no basis-like vector shows it: the first witness is a drawn one
_H_DRAWN = gr(Fraction(17, 20), Fraction(17, 20))
DRAWN_WITNESS_FORM = family(diag(1, 1), diag(1, -1), [[0, _H_DRAWN], [_H_DRAWN.conjugate(), 0]])

# a point on the boundary of each catalog cone, for the m = 1 check
M1_BOUNDARY = {
    "omega1": (1, 0), "omega2": (1, 0, 0), "omega3": (1, 1, 0), "omega4": (1, 0, 0, 0),
    "omega5": (1, 1, 0, 1), "omega6": (1, 1, 0, 0),
}


class TestValidate:
    """Construction checks that the components are square of one size and Hermitian."""

    def test_ok(self):
        fam = family(diag(1, 0), diag(1, 1))
        assert (fam.k, fam.m, fam.components) == (2, 2, (diag(1, 0), diag(1, 1)))
        assert fam == HermitianFamily([diag(1, 0), diag(1, 1)])

    def test_non_hermitian_reported(self):
        bad = [[gr(0), gr(1)], [gr(0), gr(0)]]
        with pytest.raises(ValidationError) as err:
            family(bad)
        assert str(err.value) == "family is not Hermitian: component 0 at (1, 0)"

    def test_every_bad_cell_named_in_order(self):
        # component 1 has a non-real diagonal entry and an asymmetric pair; component 0 is fine
        bad = [[gr(0, 1), gr(2)], [gr(3), gr(0)]]
        with pytest.raises(ValidationError) as err:
            family(diag(1, 1), bad)
        assert str(err.value) == (
            "family is not Hermitian: component 1 at (0, 0), component 1 at (1, 0)"
        )

    @pytest.mark.parametrize("components", [
        (zeros(2, 3),),
        (diag(1, 1), diag(1)),
        ([[1, 0], [0]],),
        ([[1], [0, 1]],),
        ([[1], [0]],),
        ([[1, 0], [0, 1]], [[1, 0], [0, 1, 0]]),
    ], ids=["not_square", "sizes_differ", "short_row", "short_first_row", "tall", "second_ragged"])
    def test_components_must_be_square_of_one_size(self, components):
        with pytest.raises(ValidationError, match="components must be m x m"):
            HermitianFamily(components)

    def test_empty_family_ok(self):
        fam = HermitianFamily(((), ()))
        assert (fam.k, fam.m) == (2, 0)


class TestInputContract:
    """Components are nested sequences of scalars, stored once as nested tuples of
    ``GaussianRational``s."""

    def test_sequence_and_scalar_types_do_not_matter(self):
        half = Fraction(1, 2)
        variants = [
            HermitianFamily([[[1, 0], [0, half]], [[2, gr(0, 1)], [gr(0, -1), 0]]]),
            HermitianFamily((((1, 0), (0, half)), ((2, gr(0, 1)), (gr(0, -1), 0)))),
            HermitianFamily([
                [[Fraction(1), Fraction(0)], [Fraction(0), half]],
                [[Fraction(2), gr(0, 1)], [gr(0, -1), Fraction(0)]],
            ]),
            HermitianFamily([
                [[gr(1), gr(0)], [gr(0), gr(half)]],
                [[gr(2), gr(0, 1)], [gr(0, -1), gr(0)]],
            ]),
        ]
        first = variants[0]
        assert all(v == first and hash(v) == hash(first) for v in variants)
        assert all(v.row == first.row and v.at == first.at for v in variants)

    def test_components_are_nested_tuples_of_gaussian_rationals(self):
        half = Fraction(1, 2)
        fam = HermitianFamily([[[1, half], [half, gr(3)]], [[0, 0], [0, 1]]])
        assert type(fam.components) is tuple
        assert all(type(comp) is tuple for comp in fam.components)
        assert all(type(row) is tuple for comp in fam.components for row in comp)
        assert all(
            type(x) is GaussianRational for comp in fam.components for row in comp for x in row
        )
        assert fam.components == (
            ((gr(1), gr(half)), (gr(half), gr(3))),
            ((gr(0), gr(0)), (gr(0), gr(1))),
        )

    @pytest.mark.parametrize("empty", [(), []], ids=["tuple", "list"])
    def test_empty_components_give_m_zero(self, empty):
        fam = HermitianFamily([empty] * 3)
        assert (fam.k, fam.m, fam.components) == (3, 0, ((),) * 3)


PARTS = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def sparse_families(draw):
    """Hermitian families with zero and non-integer Gaussian entries, some zero components, and
    m = 0 among the sizes."""
    k, m = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    comps = []
    for _ in range(k):
        rows = [[GR_ZERO] * m for _ in range(m)]
        if draw(st.booleans()):  # else the zero component
            for a in range(m):
                rows[a][a] = gr(draw(PARTS))
                for b in range(a + 1, m):
                    rows[a][b] = gr(draw(PARTS), draw(PARTS))
                    rows[b][a] = rows[a][b].conjugate()
        comps.append(tuple(map(tuple, rows)))
    return HermitianFamily(comps)


def _exact_parts(x):
    """Whether each part of ``x`` is an ``int`` where its denominator is 1, else a ``Fraction``."""
    return all(type(p) is (int if p.denominator == 1 else Fraction) for p in (x.re, x.im))


@given(fam=sparse_families())
@settings(derandomize=True, max_examples=80, deadline=None)
def test_nonzero_table_matches_a_dense_scan(fam):
    """``row``, ``col`` and ``at`` list the nonzero entries in index order, with their values read
    by ``_exact``; they are not fields, so a family built from distinct but equal matrices is
    equal, hashes alike, and its repr shows only the components. An empty component is the
    one empty tuple, so only the others are distinct objects."""
    assert (fam.row, fam.col, fam.at) == nonzero_table(fam)
    assert all(_exact_parts(h) for table in (fam.row, fam.col) for rows in table
               for pairs in rows for _, h in pairs)
    assert all(_exact_parts(h) for cells in fam.at for pairs in cells for _, h in pairs)
    twin = HermitianFamily([[list(row) for row in comp] for comp in fam.components])
    assert all(a is not b for a, b in zip(twin.components, fam.components) if a)
    assert twin == fam and hash(twin) == hash(fam)
    assert repr(twin) == repr(fam) == f"HermitianFamily(components={fam.components!r})"


class TestPsd:
    def test_psd_cases(self):
        assert negative_direction(diag(1, 0)) is None
        assert negative_direction(diag(0, 0)) is None
        assert negative_direction(diag(2, 1)) is None
        m = diag(1, -1)
        value = evaluate(family(m), negative_direction(m))[0]
        assert value.im == 0 and value.re < 0

    def test_complex_case(self):
        m = [[gr(1), gr(0, 2)], [gr(0, -2), gr(1)]]
        w = negative_direction(m)
        value = evaluate(family(m), w)[0]
        assert value.im == 0 and value.re < 0

    @pytest.mark.parametrize("m", [[[gr(-1)], [gr(0)]], [[gr(1), gr(2)], [gr(2)]]],
                             ids=["2x1", "ragged"])
    def test_non_square_is_refused(self, m):
        with pytest.raises(ValidationError, match="matrix must be square"):
            negative_direction(m)

    def test_negative_direction_none_for_psd(self):
        assert negative_direction(diag(3, 0)) is None

    def test_negative_direction_zero_diagonal(self):
        m = [[gr(0), gr(1)], [gr(1), gr(0)]]
        w = negative_direction(m)
        value = evaluate(family(m), w)[0]
        assert value.re < 0


def pairing_negative_direction(m):
    """Reference: the congruence diagonalization that recomputes every pairing from M.

    This is how ``negative_direction`` worked before it kept the Gram matrix.
    """
    d = len(m)
    basis = [list(row) for row in identity(d)]

    def pairing(u, v):
        acc = GR_ZERO
        for i in range(d):
            for j in range(d):
                acc = acc + u[i].conjugate() * m[i][j] * v[j]
        return acc

    remaining = basis
    while remaining:
        pivot_idx = None
        for i, b in enumerate(remaining):
            val = pairing(b, b)
            if val.re != 0:
                pivot_idx = i
                break
        if pivot_idx is None:
            fixed = False
            for i in range(len(remaining)):
                for j in range(i + 1, len(remaining)):
                    g = pairing(remaining[i], remaining[j])
                    if g.is_zero():
                        continue
                    if g.re != 0:
                        remaining[i] = [a + b for a, b in zip(remaining[i], remaining[j])]
                    else:
                        remaining[i] = [a + GR_I * b for a, b in zip(remaining[i], remaining[j])]
                    fixed = True
                    break
                if fixed:
                    break
            if not fixed:
                return None
            continue
        piv = remaining.pop(pivot_idx)
        val = pairing(piv, piv)
        if val.re < 0:
            return tuple(piv)
        reduced = []
        for b in remaining:
            t = pairing(piv, b) / val
            reduced.append([bb - t * pp for bb, pp in zip(b, piv)])
        remaining = reduced
    return None


SMALL = st.integers(-2, 2)
GAUSSIAN = st.builds(gr, SMALL, SMALL)


@st.composite
def hermitian_matrices(draw):
    """Hermitian d x d matrices, d <= 4: general, zero-diagonal, singular or PSD.

    A zero diagonal with imaginary off-diagonal entries needs the rotation by i.
    """
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["general", "zero diagonal", "imaginary", "singular", "psd"]))
    scale = Fraction(1, draw(st.integers(1, 3)))
    if kind in ("general", "zero diagonal", "imaginary"):
        rows = [[GR_ZERO] * d for _ in range(d)]
        for i in range(d):
            if kind == "general":
                rows[i][i] = gr(draw(SMALL) * scale)
            for j in range(i + 1, d):
                if kind == "imaginary":
                    rows[i][j] = gr(0, draw(SMALL) * scale)
                else:
                    rows[i][j] = draw(GAUSSIAN) * scale
                rows[j][i] = rows[i][j].conjugate()
        return tuple(map(tuple, rows))
    # C^* D C with D real diagonal: rank at most r, PSD when D >= 0
    r = draw(st.integers(1, d - 1)) if kind == "singular" and d > 1 else draw(st.integers(1, d))
    scales = st.integers(0, 2) if kind == "psd" else st.integers(-2, 2)
    diag_d = [draw(scales) for _ in range(r)]
    c = [[draw(GAUSSIAN) * scale for _ in range(d)] for _ in range(r)]
    return tuple(
        tuple(sum((c[p][i].conjugate() * diag_d[p] * c[p][j] for p in range(r)), GR_ZERO)
              for j in range(d))
        for i in range(d)
    )


@given(m=hermitian_matrices())
@settings(derandomize=True, max_examples=60, deadline=None)
def test_negative_direction_matches_pairing_reference(m):
    w = negative_direction(m)
    assert w == pairing_negative_direction(m)
    if w is not None:
        assert all(type(x.re) is Fraction and type(x.im) is Fraction for x in w)
        value = evaluate(family(m), w)[0]
        assert value.im == 0 and value.re < 0


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
        # the six basis-like vectors of C^2, then 32 drawn vectors
        verdict = is_omega_hermitian(LORENTZ_M2_FORM, catalog_cone("omega3"))
        assert (verdict.kind, verdict.samples) == (VERIFIED_ON_SAMPLES, 38)

    @pytest.mark.parametrize("cone_id, h, region", [
        (cone_id, h, region)
        for cone_id, boundary in M1_BOUNDARY.items()
        for h, region in [
            (catalog_cone(cone_id).interior_point, Region.INTERIOR),
            (boundary, Region.BOUNDARY),
            (tuple(-x for x in catalog_cone(cone_id).interior_point), Region.OUTSIDE),
            ((0,) * len(boundary), Region.BOUNDARY),
        ]
    ])
    def test_m1_is_exact_on_every_catalog_cone(self, cone_id, h, region):
        """At m = 1, H(w, w) = |w|^2 h: compatible exactly when h is nonzero and not outside."""
        cone = catalog_cone(cone_id)
        assert classify_point(cone, h) is region
        verdict = is_omega_hermitian(family(*(diag(x) for x in h)), cone)
        if any(h) and region is not Region.OUTSIDE:
            assert verdict == OmegaHermitianVerdict(VERIFIED_EXACT)
        else:
            assert verdict == OmegaHermitianVerdict(COUNTEREXAMPLE, witness=(GR_ONE,))

    def test_lorentz_counterexample_drawn_from_the_random_samples(self):
        verdict = is_omega_hermitian(DRAWN_WITNESS_FORM, catalog_cone("omega3"))
        witness = (gr(-2, Fraction(-3, 7)), gr(Fraction(3, 4), Fraction(-1, 2)))
        assert verdict == OmegaHermitianVerdict(COUNTEREXAMPLE, witness=witness)
        assert witness not in _basis_like_vectors(2)
        assert classify_point(catalog_cone("omega3"),
                              real_value(DRAWN_WITNESS_FORM, witness)) is Region.OUTSIDE

    def test_lorentz_counterexample(self):
        bad = family(diag(0), diag(1), diag(0))
        verdict = is_omega_hermitian(bad, catalog_cone("omega3"))
        assert verdict.kind == COUNTEREXAMPLE

    def test_tube_vacuous(self):
        empty = HermitianFamily([()] * 3)
        assert is_omega_hermitian(empty, catalog_cone("omega3")).kind == VERIFIED_EXACT

    def test_determinism(self):
        v1 = is_omega_hermitian(LORENTZ_M2_FORM, catalog_cone("omega3"))
        v2 = is_omega_hermitian(LORENTZ_M2_FORM, catalog_cone("omega3"))
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


@st.composite
def singular_families(draw):
    """(family, cone): H_j = P* D_j P over an orthant, with P an invertible Gaussian-integer matrix
    and D_j >= 0 diagonal with a common zero, so every H_j is PSD and they share a kernel; at
    least one entry of the family is not real."""
    cone = catalog_cone(draw(st.sampled_from(["omega1", "omega2", "omega4"])))
    m = draw(st.integers(2, 3))
    parts = st.integers(-2, 2)
    p = [[gr(draw(parts), draw(parts)) for _ in range(m)] for _ in range(m)]
    assume(rank(p) == m)
    zero_at = draw(st.integers(0, m - 1))
    components = [
        matmul(conj_transpose(p), matmul(diag(*[0 if i == zero_at else draw(st.integers(0, 3))
                                                for i in range(m)]), p))
        for _ in range(cone.k)
    ]
    assume(any(x.im for comp in components for row in comp for x in row))
    return HermitianFamily(components), cone


@given(case=singular_families())
@settings(derandomize=True, max_examples=60, deadline=None)
def test_common_kernel_witness_is_the_first_kernel_vector(case):
    """The witness of a common kernel is its first vector as ``dense_rref`` reads it off the
    stacked rows of the H_j (first free column set to one), and every H_j kills it. The check
    takes the kernel through realified rows, whose kernel is the conjugate one."""
    fam, cone = case
    verdict = is_omega_hermitian(fam, cone)
    assert verdict.kind == COUNTEREXAMPLE
    m = fam.m
    rows = [row for comp in fam.components for row in comp]
    reduced, pivots = dense_rref(rows, m, GR_ONE)
    free = next(j for j in range(m) if j not in pivots)
    expected = [GR_ZERO] * m
    expected[free] = GR_ONE
    for r, p in enumerate(pivots):
        expected[p] = -reduced[r][free]
    assert verdict.witness == tuple(expected)
    assert all(not x for comp in fam.components for x in apply(comp, verdict.witness))


# the catalog families over omega3 (Lorentz), a dense one with a denominator in each entry, and
# one whose first witness is a drawn sample
_H = gr(4, 3) * Fraction(10001, 50000)
LORENTZ_FAMILIES = {
    **{
        domain.label: catalog.build(domain).form
        for domain in (catalog.d6((1, 1, 0)), catalog.d6((2, 1, 0)),
                       catalog.d6((Fraction(3, 2), Fraction(1, 2), Fraction(1, 3))))
    },
    "dense": family(diag(1, 1), diag(1, -1), [[0, _H], [_H.conjugate(), 0]]),
    "drawn-witness": DRAWN_WITNESS_FORM,
}


@pytest.mark.parametrize("name", sorted(LORENTZ_FAMILIES))
def test_sampled_check_agrees_with_a_real_value_oracle(name):
    """The verdict is a counterexample at the first sample whose ``real_value`` is zero or outside
    the cone, trying the basis-like vectors and then ``_Lcg(0)``'s nonzero draws, and otherwise
    verified on that many samples. At m = 1 the check is exact: H(w, w) = |w|^2 h, so its first
    sample, e_1, decides it."""
    fam, cone = LORENTZ_FAMILIES[name], catalog_cone("omega3")
    rng = _Lcg(0)
    samples = _basis_like_vectors(fam.m) + [w for w in (rng.next_vector(fam.m) for _ in range(32))
                                            if any(w)]
    passed = (OmegaHermitianVerdict(VERIFIED_EXACT) if fam.m == 1
              else OmegaHermitianVerdict(VERIFIED_ON_SAMPLES, samples=len(samples)))
    expected = next(
        (OmegaHermitianVerdict(COUNTEREXAMPLE, witness=w) for w in samples
         if not any(real_value(fam, w)) or classify_point(cone, real_value(fam, w)) is Region.OUTSIDE),
        passed,
    )
    assert is_omega_hermitian(fam, cone) == expected


def test_negative_direction_refuses_a_non_hermitian_matrix():
    # w = (1, -1) gives conj(w)^T M w = -1, which a reading of M as Hermitian misses
    with pytest.raises(ValidationError) as exc:
        negative_direction([[gr(1), gr(3)], [gr(0), gr(1)]])
    assert str(exc.value) == "matrix must be Hermitian"


def test_negative_direction_reads_rational_entries():
    assert negative_direction([[1]]) is None
    assert negative_direction([[Fraction(-1, 2)]]) == (GR_ONE,)

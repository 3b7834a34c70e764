"""One reader for a caller's rational data, at every constructor and query.

An ``int`` (not a ``bool``) or a ``Fraction`` is accepted and stored as a
``Fraction``; anything else (a float, a string, a boolean, ``None``, or a
``GaussianRational`` where the data is real) is a ``ValidationError``. A cone
and a family built from accepted inputs survive ``spec_to_json`` and
``load_domain_spec`` exactly, and the document writes every rational as a
string.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelalg.catalog import d3, d4, d5, d6
from siegelalg.cones import (
    ConeSpec,
    LorentzFactor,
    PolyhedralFactor,
    classify_point,
    half_line,
    in_g_omega,
    lorentz,
    product,
)
from siegelalg.errors import ValidationError
from siegelalg.graded import SiegelDomainSpec
from siegelalg.hermitian import HermitianFamily
from siegelalg.linalg import GaussianRational, gr
from siegelalg.serialize import load_domain_spec, spec_to_json


def _ray(g=1, point=1, functional=1) -> ConeSpec:
    return ConeSpec("ray", 1, (((g,),),), (point,), (PolyhedralFactor(((functional,),)),))


SITES = {
    "HermitianFamily": lambda x: HermitianFamily([[[x]]]),
    "ConeSpec.g_basis": lambda x: _ray(g=x),
    "ConeSpec.interior_point": lambda x: _ray(point=x),
    "ConeSpec.functionals": lambda x: _ray(functional=x),
    "classify_point": lambda x: classify_point(half_line(), (x,)),
    "in_g_omega": lambda x: in_g_omega(half_line(), ((x,),)),
    "gr.re": lambda x: gr(x),
    "gr.im": lambda x: gr(0, x),
    "d3": lambda x: d3(x, 0, 1, 1),
    "d4": lambda x: d4(1, 0, 1, x),
    "d5": lambda x: d5((1, x, 0)),
    "d6": lambda x: d6((1, 1, x)),
}
NOT_RATIONAL = [1.5, "1", True, None]
# a Gaussian rational is complex data: refused wherever the data is real
CASES = [
    (site, value)
    for site in SITES
    for value in NOT_RATIONAL + ([] if site == "HermitianFamily" else [gr(1)])
]


@pytest.mark.parametrize(
    "site, value", CASES, ids=[f"{site}-{type(value).__name__}" for site, value in CASES]
)
def test_non_rational_input_is_a_validation_error(site, value):
    with pytest.raises(ValidationError, match="must be rationals"):
        SITES[site](value)


def test_int_inputs_are_stored_as_fractions():
    cone = _ray(g=2, point=3, functional=4)
    stored = [cone.g_basis[0][0][0], cone.interior_point[0], cone.boundary[0].functionals[0][0]]
    stored += [*d3(1, 0, 1, 1).params, *d4(1, 0, 1, 1).params, *d5((1, 1, 0)).v, *d6((2, 1, 0)).v]
    one = HermitianFamily([[[1]]]).components[0][0][0]
    stored += [one.re, one.im, gr(1, 2).re, gr(1, 2).im]
    assert all(type(x) is Fraction for x in stored)
    assert cone == ConeSpec("ray", 1, (((Fraction(2),),),), (Fraction(3),),
                            (PolyhedralFactor(((Fraction(4),),)),))
    assert in_g_omega(half_line(), ((7,),))


RATIONALS = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=5))
POSITIVE = st.one_of(st.integers(1, 4), st.fractions(Fraction(1, 5), 4, max_denominator=5))
NONNEGATIVE = st.one_of(st.integers(0, 4), st.fractions(0, 4, max_denominator=5))


@st.composite
def orthant_cones(draw) -> ConeSpec:
    """A positive orthant with a scaled basis, interior point and functionals."""
    k = draw(st.integers(1, 3))

    def unit(i: int, x) -> tuple:
        return tuple(x if j == i else 0 for j in range(k))

    return ConeSpec(
        name=draw(st.sampled_from(["custom", "omega1", "q"])),
        k=k,
        g_basis=tuple(
            tuple(unit(i, draw(RATIONALS.filter(bool))) if r == i else unit(i, 0) for r in range(k))
            for i in range(k)
        ),
        interior_point=tuple(draw(POSITIVE) for _ in range(k)),
        boundary=(PolyhedralFactor(tuple(unit(i, draw(POSITIVE)) for i in range(k))),),
    )


@st.composite
def lorentz_cones(draw) -> ConeSpec:
    """A Lorentz cone with int basis entries and an off-axis interior point."""
    d = draw(st.integers(2, 3))
    tail = [draw(RATIONALS) for _ in range(d - 1)]
    return ConeSpec(
        name="lorentz",
        k=d,
        g_basis=tuple(tuple(tuple(int(x) for x in row) for row in m) for m in lorentz(d).g_basis),
        interior_point=(1 + sum(abs(x) for x in tail), *tail),
        boundary=(LorentzFactor(tuple(range(d))),),
    )


CONES = st.one_of(
    orthant_cones(),
    lorentz_cones(),
    st.tuples(lorentz_cones(), orthant_cones()).map(lambda pair: product(*pair)),
)


@st.composite
def _psd(draw, m: int, definite: bool) -> list[list]:
    """A diagonally dominant Hermitian m x m matrix: positive semidefinite, definite if asked."""
    off = draw(st.tuples(RATIONALS, RATIONALS)) if m == 2 else (0, 0)
    bound = abs(off[0]) + abs(off[1])
    diag = [bound + draw(POSITIVE if definite else NONNEGATIVE) for _ in range(m)]
    rows = [[diag[u] if u == v else 0 for v in range(m)] for u in range(m)]
    if m == 2:
        rows[0][1], rows[1][0] = gr(*off), gr(off[0], -off[1])
    wrap = draw(st.booleans())  # a real entry may also come as a GaussianRational
    return [[gr(x) if wrap and not isinstance(x, GaussianRational) else x for x in row]
            for row in rows]


@st.composite
def domains(draw) -> SiegelDomainSpec:
    """A domain whose family maps into the closed cone: each Lorentz head and each orthant
    coordinate gets a PSD component, definite on the first, and a Lorentz tail a zero one."""
    cone = draw(CONES)
    m = draw(st.integers(0, 2))
    tails = {c for f in cone.boundary if isinstance(f, LorentzFactor) for c in f.coords[1:]}
    comps = [
        [[0] * m for _ in range(m)] if j in tails else draw(_psd(m, definite=j == 0))
        for j in range(cone.k)
    ]
    return SiegelDomainSpec(cone.k + m, cone.k, cone, HermitianFamily(comps))


def _leaves(doc, key=None):
    """(key, leaf) for every leaf of a JSON document, with the key of its innermost object."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _leaves(v, k)
    elif isinstance(doc, list):
        for v in doc:
            yield from _leaves(v, key)
    else:
        yield key, doc


@given(spec=domains())
@settings(derandomize=True, max_examples=60, deadline=None)
def test_spec_document_round_trips_with_string_rationals(spec):
    doc = spec_to_json(spec)
    assert load_domain_spec(doc)[0] == spec
    for key, leaf in _leaves(doc):  # integer parameters are numbers; all else is text
        assert type(leaf) is (int if key in ("n", "k", "coords") else str), (key, leaf)

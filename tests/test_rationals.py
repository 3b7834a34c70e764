"""One reader for a caller's rational data, one for its integers and one for a cone id.

An ``int`` (not a ``bool``) or a ``Fraction`` is accepted and stored as a
``Fraction``; anything else (a float, a string, a boolean, ``None``, or a
``GaussianRational`` where the data is real) is a ``ValidationError``. An
integer (a size, an index or a count) must be an ``int`` that is not a
``bool``, of at most ``sys.maxsize``, and a cone id a string. A cone
and a family built from accepted inputs survive ``spec_to_json`` and
``load_domain_spec`` exactly, and the document writes every rational as a
string.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelalg.bounds import (
    bound_chain,
    closed_form_bound,
    closed_form_sweep,
    s_from_multiplicities,
)
from siegelalg.catalog import ball, ball_product, classify, d1, d2, d3, d4, d5, d6, tube
from siegelalg.cones import (
    ConeSpec,
    LorentzFactor,
    PolyhedralFactor,
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
from siegelalg.graded import SiegelDomainSpec
from siegelalg.hermitian import HermitianFamily
from siegelalg.homogeneity import generic_orbit_rank
from siegelalg.linalg import GR_ZERO, GaussianRational, gr
from siegelalg.poly import generic_rank
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


def _ball_document(n=2, k=1, cone_k=1) -> dict:
    """The ball of C^2 over the ray, as a document."""
    cone = {"k": cone_k, "g_basis": [[["1"]]], "interior_point": ["1"],
            "boundary": {"factors": [{"kind": "polyhedral", "functionals": [["1"]]}]}}
    return {"n": n, "k": k, "cone": cone, "H": [[["1"]]]}


def _tube_document(coord) -> dict:
    """The tube over lorentz(2), as a document whose Lorentz factor has coordinates (coord, 1)."""
    cone = {"k": 2, "g_basis": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]],
            "interior_point": ["1", "0"],
            "boundary": {"factors": [{"kind": "lorentz", "coords": [coord, 1]}]}}
    return {"n": 2, "k": 2, "cone": cone, "H": [[], []]}


# n, k, s, dim g(Omega), dim g_1/2 and dim g_1 of D6(1,1,0)
D6_COUNTS = (4, 3, 1, 4, 0, 3)


def _bound_chain_with(i: int):
    """``bound_chain`` on D6(1,1,0)'s counts with count ``i`` replaced by the argument."""
    return lambda x: bound_chain(*D6_COUNTS[:i], x, *D6_COUNTS[i + 1:])


# every call that takes a caller's integer, with that integer as ``x``
INT_SITES = {
    "ConeSpec.k": lambda x: ConeSpec("ray", x, (((1,),),), (1,), (PolyhedralFactor(((1,),)),)),
    "ConeSpec.coords": lambda x: ConeSpec(
        "l", 2, lorentz(2).g_basis, (1, 0), (LorentzFactor((x, 1)),)
    ),
    "orthant": lambda x: orthant(x),
    "lorentz": lambda x: lorentz(x),
    "isotropy_bound": lambda x: isotropy_bound(x),
    "SiegelDomainSpec.n": lambda x: SiegelDomainSpec(x, 1, half_line(), HermitianFamily([[[1]]])),
    "SiegelDomainSpec.k": lambda x: SiegelDomainSpec(2, x, half_line(), HermitianFamily([[[1]]])),
    "ball": lambda x: ball(x),
    "ball_product": lambda x: ball_product(1, x),
    "d1": lambda x: d1(x),
    "d2": lambda x: d2(x),
    "classify": lambda x: classify(x),
    "closed_form_bound.n": lambda x: closed_form_bound(x, 1),
    "closed_form_bound.k": lambda x: closed_form_bound(5, x),
    **{
        f"bound_chain.{name}": _bound_chain_with(i)
        for i, name in enumerate(["n", "k", "s", "dim_g_omega", "dim_g_half", "dim_g_1"])
    },
    "closed_form_sweep": lambda x: closed_form_sweep(x),
    "s_from_multiplicities.n": lambda x: s_from_multiplicities(x, (1, 1)),
    "s_from_multiplicities.multiplicity": lambda x: s_from_multiplicities(4, (1, x)),
    "generic_orbit_rank": lambda x: generic_orbit_rank((), x),
    "generic_rank": lambda x: generic_rank([], x),
    "load_domain_spec.n": lambda x: load_domain_spec(_ball_document(n=x)),
    "load_domain_spec.k": lambda x: load_domain_spec(_ball_document(k=x)),
    "load_domain_spec.cone.k": lambda x: load_domain_spec(_ball_document(cone_k=x)),
    "load_domain_spec.coords": lambda x: load_domain_spec(_tube_document(x)),
}
NOT_INTEGER = {"float": 2.0, "bool": True, "str": "2", "None": None, "Fraction": Fraction(2),
               "huge": 10**20, "-huge": -10**20}


@pytest.mark.parametrize("value", NOT_INTEGER.values(), ids=NOT_INTEGER)
@pytest.mark.parametrize("site", INT_SITES)
def test_non_integer_input_is_a_validation_error(site, value):
    with pytest.raises(ValidationError, match="must be an integer|is too large"):
        INT_SITES[site](value)


def test_integers_up_to_a_list_size_are_accepted():
    big = sys.maxsize
    assert isotropy_bound(big) == Fraction(big * (big - 1), 2) + 1
    assert closed_form_bound(big, big) == Fraction(big * big + 3 * big, 2) + 1
    with pytest.raises(ValidationError, match=f"^k is too large: {big + 1}$"):
        closed_form_bound(big, big + 1)


@pytest.mark.parametrize("cone_id", [3, None, b"omega3"])
@pytest.mark.parametrize("site", [catalog_cone, tube])
def test_non_string_cone_id_is_a_validation_error(site, cone_id):
    with pytest.raises(ValidationError, match="a cone id must be a string"):
        site(cone_id)


@pytest.mark.parametrize("part", [1.5, True, "1", None], ids=["float", "bool", "str", "None"])
@pytest.mark.parametrize("where", ["re", "im"])
def test_gaussian_entry_with_a_non_rational_part_is_a_validation_error(where, part):
    parts = (part, Fraction(0)) if where == "re" else (Fraction(0), part)
    with pytest.raises(ValidationError, match="must be rationals"):
        HermitianFamily([[[GaussianRational(*parts)]]])


def test_int_part_gaussian_entries_are_stored_as_fractions():
    rows = [[(2, 0), (1, -1)], [(1, 1), (3, 0)]]
    ints = HermitianFamily([[[GaussianRational(re, im) for re, im in row] for row in rows]])
    fractions = HermitianFamily([[[gr(re, im) for re, im in row] for row in rows]])
    assert ints == fractions and hash(ints) == hash(fractions)
    assert all(type(part) is Fraction
               for row in ints.components[0] for x in row for part in (x.re, x.im))
    entry = fractions.components[0][0][1]  # Fraction parts: kept as it is
    kept = HermitianFamily([[[GR_ZERO, entry], [entry.conjugate(), GR_ZERO]]])
    assert kept.components[0][0][1] is entry


def test_lorentz_coordinates_are_stored_as_a_tuple():
    listed = ConeSpec("l", 2, lorentz(2).g_basis, (1, 0), (LorentzFactor([0, 1]),))
    assert listed == lorentz(2, name="l") and hash(listed) == hash(lorentz(2, name="l"))


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

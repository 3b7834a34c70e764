"""JSON round trips for rationals, cones, families, and domain documents."""

import json
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siegelalg.catalog import ball, build, d1, d6, product
from siegelalg.cones import ConeSpec, catalog_cone
from siegelalg.errors import ValidationError
from siegelalg.graded import SiegelDomainSpec, graded_dims
from siegelalg.hermitian import VERIFIED_EXACT, VERIFIED_ON_SAMPLES
from siegelalg.linalg import GaussianRational, gr
from siegelalg.serialize import (
    cone_from_json,
    cone_to_json,
    format_json,
    fraction_from_json,
    gaussian_from_json,
    load_domain_spec,
    spec_to_json,
    to_json,
)


class TestScalars:
    def test_fraction_strings(self):
        assert to_json(Fraction(3, 2)) == "3/2"
        assert to_json(Fraction(-4)) == "-4"
        assert fraction_from_json("3/2") == Fraction(3, 2)
        assert fraction_from_json(7) == 7
        assert fraction_from_json("-5") == -5

    def test_fraction_rejects_floats_and_junk(self):
        with pytest.raises(ValidationError):
            fraction_from_json(1.5)
        with pytest.raises(ValidationError):
            fraction_from_json("three halves")
        with pytest.raises(ValidationError):
            fraction_from_json("1/0")

    @pytest.mark.parametrize("literal, value", [
        ("4e400", 4 * 10**400),
        ("1e-4299", Fraction(1, 10**4299)),
        ("5e-4300", Fraction(1, 2 * 10**4299)),  # 4300 digits once reduced
        ("0e30000000", 0),
        ("-0.00e-99999999", 0),
        (" 1.5E2 ", 150),
    ])
    def test_literals_that_print_are_read(self, literal, value):
        assert fraction_from_json(literal) == value

    @pytest.mark.parametrize("literal", [
        "1e5000", "-1e-4300", "1e30000000", "2.5e-30000000", "1" + "0" * 4300 + "/3",
        "1e" + "9" * 5000, "0/5e30000000", "1/2e30000000", "x e30000000",
    ])
    def test_oversized_or_malformed_exponents_are_refused_at_once(self, literal):
        start = time.perf_counter()
        with pytest.raises(ValidationError, match="rational literal"):
            fraction_from_json(literal)
        assert time.perf_counter() - start < 1

    def test_gaussian_roundtrip(self):
        z = gr(Fraction(1, 3), Fraction(-2, 7))
        assert to_json(z) == {"re": "1/3", "im": "-2/7"}
        assert gaussian_from_json(to_json(z)) == z
        assert gaussian_from_json("5") == gr(5)
        assert gaussian_from_json({"im": "1/2"}) == gr(0, Fraction(1, 2))

    def test_nested_values(self):
        m = ((gr(1), gr(0, Fraction(1, 2))),)
        doc = {"m": m, "t": (Fraction(1, 2), [True, None, "x", 3])}
        assert to_json(doc) == {
            "m": [[{"re": "1", "im": "0"}, {"re": "0", "im": "1/2"}]],
            "t": ["1/2", [True, None, "x", 3]],
        }
        real_rows = (((Fraction(1), Fraction(0)),), ((Fraction(2),),))
        assert to_json(real_rows) == [[["1", "0"]], [["2"]]]

    @pytest.mark.parametrize("value", [{}, {"re": "1", "imag": "2"}, {"real": "1"}])
    def test_gaussian_rejects_unknown_or_missing_keys(self, value):
        with pytest.raises(ValidationError):
            gaussian_from_json(value)


class TestCones:
    def test_catalog_reference(self):
        assert cone_from_json("omega3").name == "omega3"
        assert cone_from_json({"cone": "omega1"}).k == 2

    def test_custom_roundtrip(self):
        cone = catalog_cone("omega5")
        doc = cone_to_json(cone)
        rebuilt = cone_from_json(doc)
        assert rebuilt.k == cone.k
        assert rebuilt.g_basis == cone.g_basis
        assert rebuilt.boundary == cone.boundary

    def test_unknown_id(self):
        with pytest.raises(ValidationError):
            cone_from_json("omega0")


def _ray_ball3_document() -> dict:
    """B3 over the ray, the ray written out as a custom cone document."""
    return {
        "n": 3,
        "k": 1,
        "cone": {
            "k": 1,
            "g_basis": [[["1"]]],
            "interior_point": ["1"],
            "boundary": {"factors": [{"kind": "polyhedral", "functionals": [["1"]]}]},
        },
        "H": [[["1", "0"], ["0", "1"]]],
    }


def _on_cone(spec, cone):
    return SiegelDomainSpec(spec.n, spec.k, cone, spec.form)


class TestDomainDocuments:
    def test_d6_roundtrip_preserves_dims(self):
        spec = build(d6((1, 1, 0)))
        doc = spec_to_json(spec)
        reloaded, _ = load_domain_spec(doc)
        assert reloaded == spec
        assert graded_dims(reloaded) == graded_dims(spec)

    def test_d6_inline_document(self):
        doc = {
            "n": 4,
            "k": 3,
            "cone": "omega3",
            "H": [[["1"]], [["1"]], [["0"]]],
        }
        spec, _ = load_domain_spec(doc)
        assert (spec.k, spec.m) == (3, 1)

    def test_catalog_cone_is_written_as_its_id(self):
        assert spec_to_json(build(d6((1, 1, 0))))["cone"] == "omega3"

    def test_cone_named_like_a_catalog_id_stays_custom(self):
        # three of omega3's four generators, under omega3's name
        omega3 = catalog_cone("omega3")
        cone = ConeSpec("omega3", 3, omega3.g_basis[:3], omega3.interior_point, omega3.boundary)
        spec = _on_cone(build(d6((1, 1, 0))), cone)
        doc = spec_to_json(spec)
        assert doc["cone"]["name"] == "omega3"
        reloaded, _ = load_domain_spec(doc)
        assert reloaded == spec
        assert graded_dims(reloaded).total == graded_dims(spec).total == 8

    def test_cone_named_omega_outside_the_catalog_reloads(self):
        omega3 = catalog_cone("omega3")
        cone = ConeSpec("omegaX", 3, omega3.g_basis, omega3.interior_point, omega3.boundary)
        spec = _on_cone(build(d6((1, 1, 0))), cone)
        reloaded, _ = load_domain_spec(spec_to_json(spec))
        assert reloaded == spec

    def test_product_roundtrip(self):
        spec = product(build(d6((1, 1, 0))), build(ball(1)))
        doc = spec_to_json(spec)
        assert doc["cone"]["name"] == "omega3xray"
        reloaded, _ = load_domain_spec(doc)
        assert reloaded == spec
        assert graded_dims(reloaded).total == 13

    def test_verdict_says_whether_the_check_was_sampled(self):
        h = [[["1", "0"], ["0", "1"]], [["1", "0"], ["0", "-1"]], [["0", "0"], ["0", "0"]]]
        _, lorentz = load_domain_spec({"n": 5, "k": 3, "cone": "omega3", "H": h})
        assert (lorentz.kind, lorentz.samples) == (VERIFIED_ON_SAMPLES, 38)
        assert "38 sampled vectors" in lorentz.note
        for domain in (d6((1, 1, 0)), d1(4)):  # m = 1 over a Lorentz cone; a quadrant
            _, exact = load_domain_spec(spec_to_json(build(domain)))
            assert exact.kind == VERIFIED_EXACT and exact.note is None

    def test_missing_keys(self):
        with pytest.raises(ValidationError):
            load_domain_spec({"n": 4, "k": 3})

    @pytest.mark.parametrize("what,part", [
        ("domain document", lambda doc: doc),
        ("cone document", lambda doc: doc["cone"]),
        ("boundary", lambda doc: doc["cone"]["boundary"]),
        ("polyhedral factor", lambda doc: doc["cone"]["boundary"]["factors"][0]),
    ])
    def test_unknown_keys_are_named(self, what, part):
        doc = _ray_ball3_document()
        part(doc)["extra"] = 1
        with pytest.raises(ValidationError) as err:
            load_domain_spec(doc)
        assert str(err.value) == f"{what} has unknown keys: ['extra']"

    def test_misspelled_cone_name_is_rejected(self):
        doc = _ray_ball3_document()
        doc["cone"]["nmae"] = "ray"
        with pytest.raises(ValidationError) as err:
            load_domain_spec(doc)
        assert "'nmae'" in str(err.value)

    def test_cone_name_is_optional(self):
        doc = _ray_ball3_document()
        assert load_domain_spec(doc)[0].cone.name == "custom"
        doc["cone"]["name"] = "ray"
        assert load_domain_spec(doc)[0].cone.name == "ray"

    def test_non_hermitian_entry_named(self):
        doc = {
            "n": 3,
            "k": 1,
            "cone": {
                "k": 1,
                "g_basis": [[["1"]]],
                "interior_point": ["1"],
                "boundary": {"factors": [{"kind": "polyhedral", "functionals": [["1"]]}]},
            },
            "H": [
                [
                    [{"re": "0"}, {"re": "1"}],
                    [{"re": "0"}, {"re": "0"}],
                ]
            ],
        }
        with pytest.raises(ValidationError) as err:
            load_domain_spec(doc)
        assert "Hermitian" in str(err.value)

    @pytest.mark.parametrize("key", ["n", "k"])
    @pytest.mark.parametrize("value", [4.9, 3.0, True, "4", None])
    def test_dimensions_must_be_integers(self, key, value):
        doc = {"n": 4, "k": 3, "cone": "omega3", "H": [[["1"]], [["1"]], [["0"]]]}
        doc[key] = value
        with pytest.raises(ValidationError) as err:
            load_domain_spec(doc)
        assert repr(key) in str(err.value)

    def test_k_larger_than_n(self):
        doc = {"n": 2, "k": 3, "cone": "omega2", "H": [[], [], []]}
        with pytest.raises(ValidationError):
            load_domain_spec(doc)

    def test_incompatible_family_names_witness(self):
        doc = {
            "n": 4,
            "k": 2,
            "cone": "omega1",
            "H": [
                [["1", "0"], ["0", "-1"]],
                [["1", "0"], ["0", "1"]],
            ],
        }
        with pytest.raises(ValidationError) as err:
            load_domain_spec(doc)
        assert "w = (" in str(err.value)


# Strings drawn from quotes, backslashes, control characters and non-ASCII
# letters as well as plain ones: everything json.dumps escapes.
JSON_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001d11e'),
    st.characters(),
), max_size=8)
JSON_LEAVES = st.one_of(JSON_TEXT, st.integers(), st.booleans(), st.none())
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=10,
)


@given(value=JSON_VALUES)
@example(value={"": [], "a": {}, "b": [[], {}, "", 0, None, True]})
@settings(derandomize=True, max_examples=100, deadline=None)
def test_format_json_matches_json_dumps(value):
    assert format_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("key", [1, None, True, ("a",)])
def test_format_json_rejects_non_string_keys(key):
    with pytest.raises(TypeError):
        format_json({"ok": [{key: 1}]})


def _reference_to_json(value):
    """The former tree-copying encoder, kept here as the reference for ``format_json``."""
    cls = type(value)
    if cls is Fraction:
        return str(value)
    if cls is GaussianRational:
        return {"re": str(value.re), "im": str(value.im)}
    if cls is dict:
        return {key: _reference_to_json(v) for key, v in value.items()}
    if cls in (list, tuple):
        return [_reference_to_json(v) for v in value]
    return value


FRACTIONS = st.fractions(max_denominator=50)
GAUSSIANS = st.builds(GaussianRational, FRACTIONS, FRACTIONS)
MATRICES = st.integers(1, 3).flatmap(
    lambda cols: st.lists(st.lists(GAUSSIANS, min_size=cols, max_size=cols), min_size=1, max_size=3)
).map(lambda rows: tuple(map(tuple, rows)))
EXACT_LEAVES = st.one_of(
    FRACTIONS, GAUSSIANS, MATRICES, st.integers(), st.booleans(), st.none(), JSON_TEXT,
)
EXACT_VALUES = st.recursive(
    EXACT_LEAVES,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(JSON_TEXT, inner, max_size=4)
    ),
    max_leaves=12,
)


@given(value=EXACT_VALUES)
@example(value={"m": (), "t": (), "z": gr(0), "q": (Fraction(-1, 3),)})
@settings(derandomize=True, max_examples=150, deadline=None)
def test_format_json_encodes_exact_values_as_the_reference(value):
    assert format_json(value) == json.dumps(_reference_to_json(value), indent=2)
    assert to_json(value) == _reference_to_json(value)


def test_unknown_boundary_kind_is_named():
    doc = cone_to_json(catalog_cone("omega1"))
    doc["boundary"]["factors"][0]["kind"] = "cubic"
    with pytest.raises(ValidationError) as exc:
        cone_from_json(doc)
    assert str(exc.value) == "unknown boundary kind 'cubic'"


def test_domain_document_must_be_an_object():
    with pytest.raises(ValidationError) as exc:
        load_domain_spec([])
    assert str(exc.value) == "domain document must be an object"

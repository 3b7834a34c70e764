"""End-to-end command-line behavior via in-process dispatch."""

import contextlib
import copy
import io
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelalg.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDims:
    def test_d6_json(self, capsys):
        code, out, err = run_cli(
            capsys, "dims", "--domain", "d6", "--v", "1,1,0", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["dims"]["total"] == 10
        assert doc["dims"]["g_1"] == 1
        assert doc["s"] == 1

    def test_ball_table(self, capsys):
        code, out, _ = run_cli(capsys, "dims", "--domain", "ball", "--n", "3")
        assert code == 0
        assert "total=15" in out

    def test_emit_bases_gated(self, capsys):
        code, out, _ = run_cli(
            capsys, "dims", "--domain", "d6", "--v", "1,1,0", "--format", "json"
        )
        assert "bases" not in json.loads(out)
        code, out, _ = run_cli(
            capsys,
            "dims", "--domain", "d6", "--v", "1,1,0", "--format", "json", "--emit-bases",
        )
        doc = json.loads(out)
        assert len(doc["bases"]["g_1"]) == 1
        assert doc["bases"]["g_1"][0]["b"] == [[[{"re": "0", "im": "0"}]] * 3]

    def test_table_and_json_agree(self, capsys):
        _, table_out, _ = run_cli(capsys, "dims", "--domain", "t3")
        _, json_out, _ = run_cli(capsys, "dims", "--domain", "t3", "--format", "json")
        doc = json.loads(json_out)
        assert f"total={doc['dims']['total']}" in table_out

    def test_bad_domain(self, capsys):
        code, _, err = run_cli(capsys, "dims", "--domain", "d9")
        assert code == 2
        assert "error" in err

    def test_missing_parameters(self, capsys):
        code, _, err = run_cli(capsys, "dims", "--domain", "d6")
        assert code == 2
        assert "--v" in err

    @pytest.mark.parametrize("domain", ["d3", "d4"])
    @pytest.mark.parametrize("bad", ["x", "1/0", "1.5.2"])
    def test_bad_rational_parameter(self, capsys, domain, bad):
        code, out, err = run_cli(
            capsys, "dims", "--domain", domain,
            "--alpha", bad, "--beta", "1", "--gamma", "0", "--delta", "1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSpecFile:
    def test_roundtrip_custom_document(self, capsys, tmp_path):
        doc = {
            "n": 4,
            "k": 3,
            "cone": "omega3",
            "H": [[["1"]], [["1"]], [["0"]]],
        }
        path = tmp_path / "domain.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "dims", "--spec", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["dims"]["total"] == 10

    def test_incompatible_family_rejected_with_witness(self, capsys, tmp_path):
        doc = {
            "n": 4,
            "k": 2,
            "cone": "omega1",
            "H": [
                [["1", "0"], ["0", "-1"]],
                [["1", "0"], ["0", "1"]],
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "dims", "--spec", str(path))
        assert code == 2
        assert "w = (" in err

    def test_k_exceeding_n(self, capsys, tmp_path):
        doc = {"n": 2, "k": 3, "cone": "omega2", "H": [[], [], []]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "dims", "--spec", str(path))
        assert code == 2

    @pytest.mark.parametrize("family", [
        [[[{"re": "1", "imag": "2"}]], [["1"]], [["0"]]],
        [[["1"]], [["1"]], [[{}]]],
    ], ids=["misspelled_im", "no_parts"])
    def test_malformed_complex_entry(self, capsys, tmp_path, family):
        doc = {"n": 4, "k": 3, "cone": "omega3", "H": family}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "dims", "--spec", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("samples", ["100000000", "-7"])
    def test_samples_out_of_range_refused_at_once(self, capsys, tmp_path, samples):
        doc = {"n": 4, "k": 3, "cone": "omega3", "H": [[["1"]], [["1"]], [["0"]]]}
        path = tmp_path / "domain.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "dims", "--spec", str(path), "--samples", samples)
        assert time.perf_counter() - start < 2
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "10000" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "dims", "--spec", str(path))
        assert code == 2
        assert "JSON" in err

    @pytest.mark.parametrize("kind", ["directory", "not_utf8", "deeply_nested"])
    def test_unreadable_spec_file(self, capsys, tmp_path, kind):
        path = tmp_path / "domain.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b"\xff\xfe{}")
        else:
            path.write_text("[" * 100000)
        code, out, err = run_cli(capsys, "dims", "--spec", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


LORENTZ3_CONE = {
    "k": 3,
    "g_basis": [
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
        [["0", "0", "1"], ["0", "0", "0"], ["1", "0", "0"]],
        [["0", "0", "0"], ["0", "0", "1"], ["0", "-1", "0"]],
    ],
    "interior_point": ["1", "0", "0"],
    "boundary": {"factors": [{"kind": "lorentz", "coords": [0, 1, 2]}]},
}


def _with_factors(*factors):
    return {**LORENTZ3_CONE, "boundary": {"factors": list(factors)}}


def _without(key):
    return {k: v for k, v in LORENTZ3_CONE.items() if k != key}


def _with_g_basis(entry):
    """LORENTZ3_CONE with every g_basis entry x replaced by ``entry(x)``."""
    basis = [[[entry(x) for x in row] for row in m] for m in LORENTZ3_CONE["g_basis"]]
    return {**LORENTZ3_CONE, "g_basis": basis}


MALFORMED_CONES = {
    "float_k": {**LORENTZ3_CONE, "k": 3.7},
    "float_coordinate": _with_factors({"kind": "lorentz", "coords": [0, 1.9, 2]}),
    "string_coordinates": _with_factors({"kind": "lorentz", "coords": "012"}),
    "coordinate_out_of_range": _with_factors({"kind": "lorentz", "coords": [0, 1, 5]}),
    "negative_coordinate": _with_factors({"kind": "lorentz", "coords": [0, -1, 2]}),
    "single_coordinate": _with_factors({"kind": "lorentz", "coords": [0]}),
    "repeated_coordinate": _with_factors({"kind": "lorentz", "coords": [0, 2, 2]}),
    "short_functional": _with_factors(
        {"kind": "lorentz", "coords": [0, 1, 2]},
        {"kind": "polyhedral", "functionals": [["1", "0"]]},
    ),
    "missing_functionals": _with_factors({"kind": "polyhedral"}),
    "missing_k": _without("k"),
    "missing_g_basis": _without("g_basis"),
    "missing_interior_point": _without("interior_point"),
    "missing_boundary": _without("boundary"),
    "factors_not_a_list": {**LORENTZ3_CONE, "boundary": {"factors": 0}},
    # cones that contain a line
    "no_factors": _with_factors(),
    "functionless_polyhedral": _with_factors({"kind": "polyhedral", "functionals": []}),
    "lorentz_on_two_of_three": _with_factors({"kind": "lorentz", "coords": [0, 1]}),
    # unknown keys, at every level of a cone document
    "unknown_cone_key": {**LORENTZ3_CONE, "extra": 1},
    "misspelled_name": {**LORENTZ3_CONE, "nmae": "lorentz3"},
    "unknown_boundary_key": {
        **LORENTZ3_CONE, "boundary": {**LORENTZ3_CONE["boundary"], "extra": 1},
    },
    "unknown_factor_key": _with_factors({"kind": "lorentz", "coords": [0, 1, 2], "extra": 1}),
    # g(Omega) is real: an imaginary entry is refused where the document is read
    "complex_g_basis_entry": {**LORENTZ3_CONE, "g_basis": [
        LORENTZ3_CONE["g_basis"][0],
        [["0", {"re": "0", "im": "1"}, "0"], ["1", "0", "0"], ["0", "0", "0"]],
        *LORENTZ3_CONE["g_basis"][2:],
    ]},
}


class TestCustomCone:
    def _run(self, capsys, tmp_path, cone):
        doc = {"n": 4, "k": 3, "cone": cone, "H": [[["1"]], [["1"]], [["0"]]]}
        path = tmp_path / "domain.json"
        path.write_text(json.dumps(doc))
        return run_cli(capsys, "dims", "--spec", str(path))

    def test_valid_custom_cone(self, capsys, tmp_path):
        code, out, _ = self._run(capsys, tmp_path, LORENTZ3_CONE)
        assert code == 0
        assert "total=10 s=1" in out

    def test_entries_as_complex_objects_with_zero_imaginary_part(self, capsys, tmp_path):
        code, out, _ = self._run(capsys, tmp_path, _with_g_basis(lambda x: {"re": x}))
        assert code == 0
        assert "total=10 s=1" in out

    @pytest.mark.parametrize("name", sorted(MALFORMED_CONES))
    def test_malformed_cone_is_one_error_line(self, capsys, tmp_path, name):
        code, out, err = self._run(capsys, tmp_path, MALFORMED_CONES[name])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unknown_domain_key_is_named(self, capsys, tmp_path):
        doc = {"n": 4, "k": 3, "cone": "omega3", "H": [[["1"]], [["1"]], [["0"]]], "h": []}
        path = tmp_path / "domain.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "dims", "--spec", str(path))
        assert (code, out) == (2, "")
        assert err == "error: domain document has unknown keys: ['h']\n"


class TestSampledNote:
    """A sampled cone check is noted once on stderr; stdout and the exit code do not change."""

    LORENTZ_DOC = {"n": 4, "k": 3, "cone": "omega3", "H": [[["1"]], [["1"]], [["0"]]]}
    QUADRANT_DOC = {
        "n": 4, "k": 2, "cone": "omega1",
        "H": [[["1", "0"], ["0", "1"]], [["1", "0"], ["0", "2"]]],
    }

    def _run_spec(self, capsys, tmp_path, command, doc):
        path = tmp_path / "domain.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, "--spec", str(path))
        return code, out.replace(f"custom({path})", "LABEL"), err

    def _run_domain(self, capsys, command, label, *flags):
        code, out, err = run_cli(capsys, command, *flags)
        return code, out.replace(label, "LABEL"), err

    @pytest.mark.parametrize("command", ["dims", "homogeneity"])
    def test_lorentz_spec_gets_one_note(self, capsys, tmp_path, command):
        code, out, err = self._run_spec(capsys, tmp_path, command, self.LORENTZ_DOC)
        assert err == "note: cone compatibility was checked on 34 sampled vectors, not proved\n"
        assert (code, out, "") == self._run_domain(
            capsys, command, "D6(1,1,0)", "--domain", "d6", "--v", "1,1,0"
        )

    @pytest.mark.parametrize("command", ["dims", "homogeneity"])
    def test_polyhedral_spec_gets_none(self, capsys, tmp_path, command):
        code, out, err = self._run_spec(capsys, tmp_path, command, self.QUADRANT_DOC)
        assert (code, out, err) == self._run_domain(
            capsys, command, "D3(1,1,1,2)",
            "--domain", "d3", "--alpha", "1", "--beta", "1", "--gamma", "1", "--delta", "2",
        )
        assert err == ""


class TestHomogeneity:
    def test_not_transitive_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "homogeneity", "--domain", "d2", "--n", "4", "--format", "json"
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "not-transitive"
        assert doc["a_part_dim"] == 1

    def test_open_orbits_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "homogeneity", "--domain", "d6", "--v", "1,1,0", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "generically-open-orbits"


class TestBounds:
    def test_chain_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bounds", "--n", "4", "--k", "3", "--s", "1", "--dim-g-omega", "4",
            "--g-one", "3", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["component_bound"] == "13"

    def test_sweep_table(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--sweep", "6")
        assert code == 0
        assert "margin" in out

    def test_sweep_json_margins_negative(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--sweep", "8", "--format", "json")
        assert code == 0
        margins = json.loads(out)["margins"]
        assert all(m["margin"].startswith("-") for m in margins)

    def test_missing_arguments(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--n", "4")
        assert code == 2

    def test_huge_sweep_refused_at_once(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--sweep", "100000000000")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestConeInfo:
    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "cone-info", "--cone", "omega6", "--format", "json")
        doc = json.loads(out)
        assert doc["dim_g"] == 7
        assert doc["isotropy_bound"] == "7"

    def test_emit_bases(self, capsys):
        code, out, _ = run_cli(
            capsys, "cone-info", "--cone", "omega1", "--format", "json", "--emit-bases"
        )
        doc = json.loads(out)
        assert doc["g_basis"] == [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]]


class TestClassify:
    def test_table_contains_survivor(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--n", "4")
        assert code == 0
        assert "B2xB1xB1" in out
        assert "14" in out

    def test_json_structure(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--n", "3", "--format", "json")
        doc = json.loads(out)
        assert doc["target"] == 7
        totals = {e["label"]: e["total"] for e in doc["homogeneous"]}
        assert totals == {"B3": 15, "B2xB1": 11, "B1xB1xB1": 9, "T3": 10}

    def test_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--n", "9")
        assert code == 2


class TestVerifyPaper:
    def test_all_pass_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["failed"] == 0
        assert all(c["status"] == "pass" for c in doc["checks"])


CUSTOM_ORTHANT = {
    "k": 2,
    "g_basis": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
    "interior_point": ["1", "1"],
    "boundary": {"factors": [{"kind": "polyhedral", "functionals": [["1", "0"], ["0", "1"]]}]},
}

FUZZ_DOCUMENTS = (
    {"n": 4, "k": 3, "cone": "omega3", "H": [[["1"]], [["1"]], [["0"]]]},
    {"n": 4, "k": 2, "cone": "omega1", "H": [[["1", "0"], ["0", "1"]], [["1", "0"], ["0", "2"]]]},
    {"n": 3, "k": 2, "cone": CUSTOM_ORTHANT, "H": [[["1"]], [["1"]]]},
    {"n": 4, "k": 3, "cone": LORENTZ3_CONE, "H": [[["1"]], [["1"]], [[{"re": "0"}]]]},
)

JUNK = (None, [], {}, -1, 0, 10**6, "x", "", 1.5, True, "1/0", [[]])


def _nodes(doc):
    """(container, key) for every node below ``doc``."""
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield doc, key
        yield from _nodes(value)


@st.composite
def mutated_documents(draw):
    """A fuzz document with one to three nodes replaced by junk or deleted."""
    # a seeded Random picks nodes uniformly; sampled_from over the nodes rarely reached deep keys
    rnd = draw(st.randoms(use_true_random=True))
    doc = copy.deepcopy(rnd.choice(FUZZ_DOCUMENTS))
    for _ in range(rnd.randint(1, 3)):
        parent, key = rnd.choice(list(_nodes(doc)))
        if isinstance(parent, dict) and rnd.random() < 0.5:
            del parent[key]
        else:
            parent[key] = copy.deepcopy(rnd.choice(JUNK))
    return doc


@given(doc=mutated_documents(), command=st.sampled_from(["dims", "homogeneity"]))
@settings(derandomize=True, max_examples=150, deadline=None)
def test_mutated_spec_documents_end_cleanly(tmp_path_factory, doc, command):
    """Junk values and missing keys end in exit 0, 1 or 2, never in an escaped exception."""
    path = tmp_path_factory.mktemp("fuzz") / "domain.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--spec", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1

"""End-to-end command-line behavior via in-process dispatch."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siegelalg import cli, serialize
from siegelalg.cli import main
from siegelalg.hermitian import VERIFIED_EXACT, OmegaHermitianVerdict


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
        # the range of k is checked before H is read with shape (n - k) x (n - k)
        doc = {"n": 2, "k": 3, "cone": "omega2", "H": [[], [], []]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "dims", "--spec", str(path))
        assert code == 2
        assert (out, err) == ("", "error: need 1 <= k <= n\n")

    @pytest.mark.parametrize("command", [["dims"], ["dims", "--format", "json"], ["homogeneity"]])
    def test_common_kernel_witness_is_read_back_conjugated(self, capsys, tmp_path, command):
        # H_2 = 3 H_1 and H_1 = [[1, i], [-i, 1]] is PSD with kernel spanned by (-i, 1);
        # the realified rows kill its conjugate (i, 1), so a read without conjugation is wrong
        h1 = [["1", {"im": "1"}], [{"im": "-1"}, "1"]]
        h2 = [["3", {"im": "3"}], [{"im": "-3"}, "3"]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 4, "k": 2, "cone": "omega1", "H": [h1, h2]}))
        code, out, err = run_cli(capsys, *command, "--spec", str(path))
        assert (code, out) == (2, "")
        assert err == ("error: family is not compatible with the cone: H(w,w) leaves the closed "
                       "cone minus zero at w = (-1i, 1)\n")

    @pytest.mark.parametrize("n, k", [(2, 0), (0, 0), (3, -1)])
    def test_k_below_one(self, capsys, tmp_path, n, k):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": n, "k": k, "cone": "omega2", "H": []}))
        code, out, err = run_cli(capsys, "dims", "--spec", str(path))
        assert code == 2
        assert (out, err) == ("", "error: need 1 <= k <= n\n")

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


RAY_CONE = {
    "k": 1,
    "g_basis": [[["1"]]],
    "interior_point": ["1"],
    "boundary": {"kind": "polyhedral", "functionals": [["1"]]},
}


class TestDocumentsReadAlike:
    """Each document and literal is read the same way on every supported Python version."""

    def _run(self, capsys, tmp_path, cone, entry="1"):
        doc = {"n": 3, "k": 1, "cone": cone, "H": [[[entry, "0"], ["0", "1"]]]}
        path = tmp_path / "domain.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "dims", "--spec", str(path))
        assert (code, out) == (2, "")
        return err

    def test_cone_dimension_checked_before_g_basis(self, capsys, tmp_path):
        err = self._run(capsys, tmp_path, {**RAY_CONE, "k": -1, "g_basis": [[]]})
        assert err == "error: cone dimension must be at least 1\n"

    @pytest.mark.parametrize("name", [{"a": 1}, 3, None, ["ray"]])
    def test_cone_name_must_be_a_string(self, capsys, tmp_path, name):
        err = self._run(capsys, tmp_path, {**RAY_CONE, "name": name})
        assert err == f"error: cone 'name' must be a string, got {name!r}\n"

    @pytest.mark.parametrize("literal", ["1_0", "1_0/3", "0.5_0", "1e1_0", "_1"])
    def test_underscore_literal_refused_in_a_document(self, capsys, tmp_path, literal):
        err = self._run(capsys, tmp_path, RAY_CONE, entry=literal)
        assert err == f"error: bad rational literal {literal!r}\n"

    @pytest.mark.parametrize("entry, accepted", [
        (None, "expected an integer or a string like '-3/4'"),
        (["1"], "expected an integer or a string like '-3/4'"),
        (1.5, "floats are not accepted"),
    ])
    def test_a_value_that_is_no_rational_says_what_is_accepted(self, capsys, tmp_path, entry,
                                                                accepted):
        err = self._run(capsys, tmp_path, {**RAY_CONE, "interior_point": [entry]})
        assert err == f"error: bad rational value {entry!r} ({accepted})\n"

    @pytest.mark.parametrize("entry", [None, ["1", "2"]], ids=["null", "list"])
    def test_a_value_that_is_no_complex_entry_says_what_is_accepted(self, capsys, tmp_path,
                                                                     entry):
        err = self._run(capsys, tmp_path, RAY_CONE, entry=entry)
        assert err == (f"error: bad complex value {entry!r} (expected an integer, a string like "
                       """'-3/4' or an object like {"re": "1/2", "im": "-3"})\n""")

    def test_a_cone_that_is_neither_id_nor_object_is_named(self, capsys, tmp_path):
        err = self._run(capsys, tmp_path, {"cone": 5})
        assert err == "error: cone must be a catalog id or an object, got 5\n"

    def test_underscore_literal_refused_in_a_flag(self, capsys):
        code, out, err = run_cli(capsys, "dims", "--domain", "d6", "--v", "1_0,1,0")
        assert (code, out) == (2, "")
        assert err == "error: bad rational literal '1_0'\n"


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


class TestFalseOutputs:
    """Documents that still give a false output with exit 0. Each test asserts the right outcome,
    exit 2 with one `error:` line, and is expected to fail until the defect is mended."""

    def _assert_refused(self, capsys, tmp_path, doc):
        path = tmp_path / "domain.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "dims", "--spec", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.xfail(raises=AssertionError, reason=(
        "the sampled cone check misses w = (1, (4 - 3i)/5), where H(w, w) leaves the cone"))
    def test_lorentz_family_outside_the_cone_is_refused(self, capsys, tmp_path):
        # H2 = [[0, h], [conj(h), 0]] with h = (10001/10000)(4 + 3i)/5
        h = {"re": "10001/12500", "im": "30003/50000"}
        doc = {
            "n": 5, "k": 3, "cone": "omega3",
            "H": [[["1", "0"], ["0", "1"]], [["1", "0"], ["0", "-1"]],
                  [["0", h], [{**h, "im": "-30003/50000"}, "0"]]],
        }
        self._assert_refused(capsys, tmp_path, doc)

    @pytest.mark.xfail(raises=AssertionError, reason=(
        "a g_basis smaller than the cone's algebra is trusted: total=7, not 10"))
    def test_g_basis_missing_generators_is_refused(self, capsys, tmp_path):
        identity = LORENTZ3_CONE["g_basis"][0]
        doc = {"n": 4, "k": 3, "cone": {**LORENTZ3_CONE, "g_basis": [identity]},
               "H": [[["1"]], [["1"]], [["0"]]]}
        self._assert_refused(capsys, tmp_path, doc)

    @pytest.mark.xfail(raises=AssertionError, reason=(
        "a g_basis larger than the cone's algebra is trusted: total=14, not 10"))
    def test_g_basis_outside_the_cone_algebra_is_refused(self, capsys, tmp_path):
        e01 = [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]]
        cone = {**LORENTZ3_CONE, "g_basis": LORENTZ3_CONE["g_basis"] + [e01]}
        self._assert_refused(capsys, tmp_path, {"n": 3, "k": 3, "cone": cone, "H": [[], [], []]})


class TestSampledNote:
    """A sampled cone check is noted once on stderr; stdout and the exit code do not change."""

    # sampled: m = 2 over a Lorentz cone
    LORENTZ_DOC = {
        "n": 5, "k": 3, "cone": "omega3",
        "H": [[["1", "0"], ["0", "1"]], [["1", "0"], ["0", "-1"]], [["0", "0"], ["0", "0"]]],
    }
    # exact: m = 1 over every cone
    D6_DOC = {"n": 4, "k": 3, "cone": "omega3", "H": [[["1"]], [["1"]], [["0"]]]}
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
    def test_lorentz_spec_gets_one_note(self, capsys, tmp_path, monkeypatch, command):
        code, out, err = self._run_spec(capsys, tmp_path, command, self.LORENTZ_DOC)
        assert err == "note: cone compatibility was checked on 38 sampled vectors, not proved\n"
        # the same run with the check taken as exact: no note, and nothing else changes
        monkeypatch.setattr(
            serialize, "is_omega_hermitian", lambda *_: OmegaHermitianVerdict(VERIFIED_EXACT)
        )
        assert (code, out, "") == self._run_spec(capsys, tmp_path, command, self.LORENTZ_DOC)

    @pytest.mark.parametrize("command", ["dims", "homogeneity"])
    def test_m1_lorentz_spec_gets_none(self, capsys, tmp_path, command):
        code, out, err = self._run_spec(capsys, tmp_path, command, self.D6_DOC)
        assert (code, out, err) == self._run_domain(
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


def _spec_file(tmp_path, doc, text=None):
    path = tmp_path / "domain.json"
    path.write_text(text if text is not None else json.dumps(doc))
    return str(path)


_I2 = [["1", "0"], ["0", "1"]]


def _quadrant_doc(h1):
    return {"n": 4, "k": 2, "cone": "omega1", "H": [h1, _I2]}


def _ragged_g_basis_doc():
    basis = list(LORENTZ3_CONE["g_basis"])
    basis[1] = [["0", "1", "0"], ["1", "0"], ["0", "0", "0"]]
    cone = {**LORENTZ3_CONE, "g_basis": basis}
    return {"n": 4, "k": 3, "cone": cone, "H": [[["1"]], [["1"]], [["0"]]]}


# a matrix is refused for its first fault in this order: rows that are not lists, a bad
# literal, rows of different lengths, then a shape other than the expected one
MATRIX_READER_ERRORS = {
    "h_row_wrong_length": (_quadrant_doc([["1", "0"], ["0"]]), "column count mismatch"),
    "h_wrong_shape": (
        _quadrant_doc([["1", "0", "0"], ["0", "1", "0"]]), "matrix shape 2x3 != expected (2, 2)"
    ),
    "h_rows_not_lists": (_quadrant_doc(["1", "2"]), "matrix must be a list of rows"),
    "ragged_g_basis": (_ragged_g_basis_doc(), "column count mismatch"),
    "rows_not_lists_before_bad_literal": (
        _quadrant_doc([["1/0", "0"], "0"]), "matrix must be a list of rows"
    ),
    "bad_literal_before_row_length": (
        _quadrant_doc([["1", "0"], ["1/0"]]), "bad rational literal '1/0'"
    ),
    "row_length_before_shape": (_quadrant_doc([["1", "0", "0"], ["0"]]), "column count mismatch"),
}


@pytest.mark.parametrize("name", sorted(MATRIX_READER_ERRORS))
def test_matrix_reader_errors_are_one_exact_line(capsys, tmp_path, name):
    doc, message = MATRIX_READER_ERRORS[name]
    code, out, err = run_cli(capsys, "dims", "--spec", _spec_file(tmp_path, doc))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _witness_past_the_digit_limit():
    """H_1 = L D L* over the quadrant with D = diag(1, 1, 1, -1) and L unit lower bidiagonal with
    subdiagonal 10**1500: its negative direction (10**4500, -10**3000, 10**1500, 1) has an entry
    too long to print, while every entry of H_1 prints."""
    h = 10**1500
    lower = [[1 if i == j else h if i == j + 1 else 0 for j in range(4)] for i in range(4)]
    signs = (1, 1, 1, -1)
    h1 = [[str(sum(lower[i][t] * signs[t] * lower[j][t] for t in range(4))) for j in range(4)]
          for i in range(4)]
    identity = [[str(int(i == j)) for j in range(4)] for i in range(4)]
    return {"n": 6, "k": 2, "cone": "omega1", "H": [h1, identity]}


OVERSIZED = {
    "d6-v": lambda tmp: ["dims", "--domain", "d6", "--v", "1e5000,0,0"],
    "d3-alpha": lambda tmp: ["dims", "--domain", "d3", "--alpha", "1e5000", "--beta", "0",
                             "--gamma", "0", "--delta", "1"],
    "d3-alpha-slow": lambda tmp: ["dims", "--domain", "d3", "--alpha", "1e30000000", "--beta",
                                  "0", "--gamma", "0", "--delta", "1"],
    "spec-literal": lambda tmp: ["dims", "--spec", _spec_file(tmp, {
        "n": 4, "k": 2, "cone": "omega1",
        "H": [[["1", "1e5000"], ["1e5000", "1"]], [["1", "0"], ["0", "1"]]],
    })],
    "spec-json-int": lambda tmp: ["dims", "--spec", _spec_file(
        tmp, None, '{"n": 4, "k": 2, "cone": "omega1", "H": [[[1, ' + "1" * 5000 + ']]]}'
    )],
    "spec-witness": lambda tmp: ["dims", "--spec", _spec_file(tmp, _witness_past_the_digit_limit())],
}


@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_oversized_values_are_one_error_line(capsys, tmp_path, name):
    """Literals and witnesses past the int-to-str digit limit exit 2 at once, never raising."""
    argv = OVERSIZED[name](tmp_path)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_bases_too_long_to_print_are_one_error_line(capsys, tmp_path, fmt):
    """Bases with a number past the int-to-str digit limit end in one error line and print
    nothing, in both formats: the bases are formatted before anything is written."""
    a, b = str(10**4000 + 1), "3" * 4000  # each within the literal limit
    path = _spec_file(tmp_path, {"n": 3, "k": 1, "cone": RAY_CONE, "H": [[[a, "1"], ["1", b]]]})
    code, out, err = run_cli(capsys, "dims", "--spec", path, "--emit-bases", "--format", fmt)
    assert (code, out) == (2, "")
    assert err == ("error: a result has a number with more than 4300 digits, the most that "
                   "Python prints an int with\n")


def test_large_literals_that_print_still_work(capsys):
    code, out, _ = run_cli(capsys, "dims", "--domain", "d3", "--alpha", "4e400", "--beta", "0",
                           "--gamma", "1", "--delta", "4e400")
    assert code == 0
    assert "total=9 s=2" in out


LITERALS = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["1/2", "-2/3", "3/0", "1/0", "", " ", "x", "1.5", "-0.25", ".5", "2e3",
                     "1e-2", "4e400", "1e5000", "1e-5000", "1e30000000", "0e30000000", "1e",
                     "1,2", "nan", "inf"]),
)
DOMAIN_FLAGS = {
    "--n": st.integers(-1, 4).map(str) | st.just("x"),
    "--factors": st.lists(st.integers(0, 2).map(str), min_size=1, max_size=3).map(",".join)
    | LITERALS,
    "--v": st.lists(LITERALS, min_size=1, max_size=4).map(",".join),
    "--alpha": LITERALS,
    "--beta": LITERALS,
    "--gamma": LITERALS,
    "--delta": LITERALS,
    "--cone": st.sampled_from(["omega1", "omega3", "omega5", "omega9", "", "ray"]),
}
PARAMETERS = ["--alpha", "--beta", "--gamma", "--delta"]
# the flags each domain needs; "d9" is no domain
DOMAINS = {
    "ball": ["--n"], "ballproduct": ["--factors"], "d1": ["--n"], "d2": ["--n"],
    "d3": PARAMETERS, "d4": PARAMETERS, "d5": ["--v"], "d6": ["--v"],
    "t3": [], "t4": [], "tube": ["--cone"], "d9": [],
}
# flags the domain commands no longer take; the parser refuses them
REMOVED_FLAGS = ["--samples=5", "--seed=1"]
BOUNDS_FLAGS = {
    flag: st.integers(-2, 6).map(str)
    for flag in ("--n", "--k", "--s", "--dim-g-omega", "--g-half", "--g-one")
}


def _flags(draw, strategies, required):
    """The required flags, the first of them sometimes left out, and up to two others."""
    flags = list(required)
    if flags and draw(st.integers(0, 4)) == 0:
        flags.pop(0)
    flags += draw(st.lists(st.sampled_from(sorted(set(strategies) - set(required))),
                           unique=True, max_size=2))
    return [f"{flag}={draw(strategies[flag])}" for flag in flags]


@st.composite
def cli_argv(draw):
    """An argv for one of the commands that read flags; the parser refuses some of them.

    The refused ones carry a non-integer ``--n``, lack ``classify``'s required
    ``--n``, or carry a removed flag; ``dims`` and ``homogeneity`` also refuse a
    domain flag that the domain does not read.
    """
    command = draw(st.sampled_from(["dims", "homogeneity", "classify", "bounds", "cone-info"]))
    argv = [command]
    if command in ("dims", "homogeneity"):
        domain = draw(st.sampled_from(sorted(DOMAINS)))
        argv += [f"--domain={domain}"] + _flags(draw, DOMAIN_FLAGS, DOMAINS[domain])
        if draw(st.integers(0, 9)) == 0:
            argv.append(draw(st.sampled_from(REMOVED_FLAGS)))
    elif command == "classify":
        if draw(st.integers(0, 4)):
            argv.append(f"--n={draw(st.integers(-1, 6))}")
    elif command == "bounds":
        if draw(st.booleans()):
            argv.append(f"--sweep={draw(st.integers(-1, 8))}")
        else:
            argv += _flags(draw, BOUNDS_FLAGS, ["--n", "--k", "--s", "--dim-g-omega"])
    else:
        argv.append(f"--cone={draw(DOMAIN_FLAGS['--cone'])}")
        if draw(st.booleans()):
            argv.append("--emit-bases")
    if draw(st.booleans()):
        argv.append("--format=json")
    return argv


@given(argv=cli_argv())
@example(argv=["dims", "--domain=d6", "--v=1e5000,0,0"])
@example(argv=["dims", "--domain=d3", "--alpha=1e5000", "--beta=0", "--gamma=0", "--delta=1"])
@example(argv=["dims", "--domain=d3", "--alpha=1e30000000", "--beta=0", "--gamma=0", "--delta=1"])
@example(argv=["homogeneity", "--domain=d5", "--v=1/0,1,"])
@example(argv=["dims", "--domain=ball", "--n=99999999999999999999"])
@example(argv=["dims", "--domain=ballproduct", "--factors=2,99999999999999999999"])
@example(argv=["dims", "--domain=d1", "--n=99999999999999999999"])
@example(argv=["dims", "--domain=ball", f"--n={sys.maxsize}"])
@example(argv=["dims", "--domain=d1", f"--n={sys.maxsize}"])
@example(argv=["dims", "--domain=ballproduct", f"--factors=2,{sys.maxsize}"])
@settings(derandomize=True, max_examples=120, deadline=None)
def test_generated_flags_end_cleanly(argv):
    """Any flag values end in exit 0, 1 or 2; exit 2 prints one `error:` line and nothing else."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


@pytest.mark.parametrize("argv, message", [
    (["dims", "--domain", "ball", "--n", "x"], "argument --n: invalid int value: 'x'"),
    (["classify"], "the following arguments are required: --n"),
    ([], "the following arguments are required: command"),
    (["dims", "--domain", "ball", "--n", "3", "--samples", "5"], "unrecognized arguments: --samples 5"),
    (["homogeneity", "--domain", "t3", "--seed", "1"], "unrecognized arguments: --seed 1"),
    (["dims", "--domain", "t3", "--format", "xml"],
     "argument --format: invalid choice: 'xml' (choose from 'table', 'json')"),
])
def test_refused_arguments_are_one_error_line(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_a_cold_command_loads_neither_argparse_nor_gettext():
    """``python -m siegelalg`` reads its flags from ``COMMANDS``: importing argparse, and the
    gettext and locale it pulls in, would cost every cold command-line call a few ms."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = (
        "import atexit, runpy, sys; before = set(sys.modules); atexit.register(lambda: print("
        "sorted({'argparse', 'gettext'} & (set(sys.modules) - before)), file=sys.stderr)); "
        "sys.argv = ['siegelalg', 'dims', '--domain', 'ball', '--n', '2']; "
        "runpy.run_module('siegelalg', run_name='__main__', alter_sys=True)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout, out.stderr) == (0, B2_TABLE, "[]\n")


T3_TABLE = "domain T3: n=3 k=3\ng_-1=3 g_-1/2=0 g_0=4 g_1/2=0 g_1=3 total=10 s=0\n"
B2_TABLE = "domain B2: n=2 k=1\ng_-1=1 g_-1/2=2 g_0=2 g_1/2=2 g_1=1 total=8 s=1\n"
OMEGA1_TABLE = ("cone omega1: k=2 dim g=2 isotropy bound=2\ninterior point: (1, 1)\n"
                "annihilators: 2\ng_basis[0]: [1, 0; 0, 0]\ng_basis[1]: [0, 0; 0, 1]\n")
COMMAND_CHOICES = "'cone-info', 'dims', 'homogeneity', 'bounds', 'classify', 'verify-paper'"
D3_FLAGS = ["--beta", "1", "--gamma", "0", "--delta", "1"]

# (argv, exit code, stdout, stderr), as the argparse-based parser gave them; a --help run
# exits 0 and only the start of its usage line is compared, since argparse wrapped the rest
# to the terminal's width
ARGUMENT_PARITY = {
    "missing_value": (["dims", "--domain"], 2, "",
                      "error: argument --domain: expected one argument\n"),
    "value_missing_before_a_flag": (["classify", "--n=3", "--n", "-1e3"], 2, "",
                                    "error: argument --n: expected one argument\n"),
    "ambiguous_prefix": (["dims", "--d", "ball"], 2, "",
                         "error: ambiguous option: --d could match --domain, --delta\n"),
    "abbreviation": (["dims", "--dom", "t3"], 0, T3_TABLE, ""),
    "abbreviation_with_equals": (["dims", "--dom=t3", "--form", "table"], 0, T3_TABLE, ""),
    "abbreviated_switch": (["cone-info", "--cone", "omega1", "--emit"], 0, OMEGA1_TABLE, ""),
    "repeated_flag": (["dims", "--domain", "ball", "--n", "5", "--n", "2"], 0, B2_TABLE, ""),
    "switch_with_value": (["dims", "--domain", "t3", "--emit-bases=1"], 2, "",
                          "error: argument --emit-bases: ignored explicit argument '1'\n"),
    "negative_fraction_as_next_token": (["dims", "--domain", "d3", "--alpha", "-1/2", *D3_FLAGS],
                                        2, "", "error: argument --alpha: expected one argument\n"),
    "negative_fraction_after_equals": (["dims", "--domain", "d3", "--alpha=-1/2", *D3_FLAGS],
                                       2, "", "error: parameters must be nonnegative\n"),
    "negative_int": (["bounds", "--n", "-1", "--k", "1", "--s", "0", "--dim-g-omega", "1"],
                     2, "", "error: need 1 <= k <= n\n"),
    "unknown_command": (["frobnicate"], 2, "",
                        f"error: argument command: invalid choice: 'frobnicate' "
                        f"(choose from {COMMAND_CHOICES})\n"),
    "flag_before_command": (["--n", "3", "dims"], 2, "",
                            f"error: argument command: invalid choice: '3' "
                            f"(choose from {COMMAND_CHOICES})\n"),
    "required_before_unrecognized": (["--foo", "classify"], 2, "",
                                     "error: the following arguments are required: --n\n"),
    "stray_positional": (["dims", "--domain", "t3", "stray"], 2, "",
                         "error: unrecognized arguments: stray\n"),
    "stray_negative_number": (["dims", "--domain", "t3", "-5"], 2, "",
                              "error: unrecognized arguments: -5\n"),
    "after_double_dash": (["dims", "--domain", "t3", "--", "x"], 2, "",
                          "error: unrecognized arguments: -- x\n"),
    "foreign_flag": (["verify-paper", "--domain", "t3"], 2, "",
                     "error: unrecognized arguments: --domain t3\n"),
    "help_given_a_value": (["dims", "--help=1"], 2, "",
                           "error: argument -h/--help: ignored explicit argument '1'\n"),
    "one_dash_help_run_on": (["-help"], 2, "",
                             "error: argument -h/--help: ignored explicit argument 'elp'\n"),
    "lone_double_dash": (["--"], 2, "", "error: the following arguments are required: command\n"),
    "double_dash_as_command": (["--", "dims"], 2, "",
                               f"error: argument command: invalid choice: '--' "
                               f"(choose from {COMMAND_CHOICES})\n"),
    "top_level_help": (["-h"], 0, "usage: siegelalg [-h]", ""),
    "top_level_long_help": (["--help"], 0, "usage: siegelalg [-h]", ""),
    "command_help": (["dims", "-h"], 0, "usage: siegelalg dims [-h]", ""),
    "abbreviated_command_help": (["verify-paper", "--he"], 0, "usage: siegelalg verify-paper [-h]",
                                 ""),
}


@pytest.mark.parametrize("name", list(ARGUMENT_PARITY))
def test_arguments_are_read_as_argparse_read_them(capsys, name):
    argv, code, out, err = ARGUMENT_PARITY[name]
    if out.startswith("usage:"):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.err) == (code, err)
        assert captured.out.splitlines()[0].startswith(out)
    else:
        assert run_cli(capsys, *argv) == (code, out, err)


HUGE = "99999999999999999999"  # more than sys.maxsize, the largest size the library reads


@pytest.mark.parametrize("argv, message", [
    (["dims", "--domain", "ball", "--n", HUGE], f"ball dimension is too large: {HUGE}"),
    (["dims", "--domain", "ballproduct", "--factors", f"2,{HUGE}"],
     f"a ball factor is too large: {HUGE}"),
    (["dims", "--domain", "d1", "--n", HUGE], f"n is too large: {HUGE}"),
])
def test_integers_too_large_for_a_list_are_one_error_line(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_a_domain_too_large_to_hold_is_one_error_line(capsys):
    # CPython refuses a list of sys.maxsize items before allocating any of it
    argv = ["dims", "--domain", "ball", "--n", str(sys.maxsize)]
    assert run_cli(capsys, *argv) == (2, "", "error: out of memory\n")


@pytest.mark.parametrize("v", ["1,1", "1,1,0,0"])
def test_d6_vector_of_the_wrong_length_is_named(capsys, v):
    message = f"need a 3-vector, got {len(v.split(','))} entries"
    assert run_cli(capsys, "dims", "--domain", "d6", "--v", v) == (2, "", f"error: {message}\n")


def test_help_still_prints_usage_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dims", "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert out.startswith("usage: siegelalg dims [-h]") and "--spec SPEC" in out


@pytest.mark.parametrize("cone", ["OMEGA3", " omega3"])
def test_tube_cone_id_is_read_as_the_catalog_reads_it(capsys, cone):
    code, out, err = run_cli(capsys, "dims", "--domain", "tube", "--cone", cone)
    assert (code, err) == (0, "")
    assert out.startswith("domain T3: n=3 k=3\n")


@pytest.mark.parametrize("argv, message", [
    (["dims", "--domain", "ball"], "ball needs --n"),
    (["dims", "--domain", "ballproduct"], "ballproduct needs --factors, e.g. --factors 2,1,1"),
    (["dims", "--domain", "ballproduct", "--factors", "2,x"], "bad factor list '2,x'"),
    (["dims", "--domain", "d1"], "d1 needs --n"),
    (["dims", "--domain", "d3", "--alpha", "1"], "d3 needs --alpha --beta --gamma --delta"),
    (["dims", "--domain", "tube"], "tube needs --cone, e.g. --cone omega4"),
    (["dims"], "provide either --domain or --spec FILE"),
])
def test_missing_or_bad_domain_flags_are_one_error_line(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["dims", "homogeneity"])
@pytest.mark.parametrize("order", ["spec-first", "domain-first"])
def test_spec_and_domain_together_are_one_error_line(capsys, tmp_path, command, order):
    """A --spec document that reads fine and a catalog --domain are refused together, in
    either order, before the document is read; alone, each runs."""
    spec = ["--spec", _spec_file(tmp_path, _quadrant_doc(_I2))]
    domain = ["--domain", "ball", "--n", "7"]
    argv = [command, *(spec + domain if order == "spec-first" else domain + spec)]
    both = (2, "", "error: provide either --domain or --spec FILE, not both\n")
    assert run_cli(capsys, *argv) == both
    missing = str(tmp_path / "missing.json")
    assert run_cli(capsys, command, "--spec", missing, *domain) == both
    assert run_cli(capsys, command, *spec)[0] in (0, 1)
    assert run_cli(capsys, command, *domain)[0] == 0


@pytest.mark.parametrize("command", ["dims", "homogeneity"])
@pytest.mark.parametrize("argv, message", [
    (["--domain", "t3", "--n", "5"], "t3 takes no --n"),
    (["--domain", "ball", "--n", "2", "--v", "1,1,0", "--cone", "omega3"],
     "ball takes no --v, --cone"),
    (["--domain", "d6", "--v", "1,1,0", "--alpha", "1"], "d6 takes no --alpha"),
    (["--domain", "tube", "--cone", "omega3", "--factors", "2,1"], "tube takes no --factors"),
])
def test_a_domain_flag_the_domain_does_not_read_is_refused(capsys, command, argv, message):
    assert run_cli(capsys, command, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["dims", "homogeneity"])
@pytest.mark.parametrize("flag", ["--n", "--factors", "--v", "--alpha", "--beta", "--gamma",
                                  "--delta", "--cone"])
def test_a_domain_flag_with_spec_is_refused(capsys, tmp_path, command, flag):
    spec = ["--spec", _spec_file(tmp_path, _quadrant_doc(_I2))]
    assert run_cli(capsys, command, *spec, flag, "7") == (2, "", f"error: --spec takes no {flag}\n")
    assert run_cli(capsys, command, *spec)[0] in (0, 1)

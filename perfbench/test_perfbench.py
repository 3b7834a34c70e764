"""Tests of the benchmark harness itself: a tiny workload, generator determinism,
and that a wrong golden output counts as a failed operation."""

import json
import random
from fractions import Fraction

import pytest

import gen_specs
import run as harness


def _result(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_smoke_workload_end_to_end(capsys):
    assert harness.main(["--workload", "smoke", "--seconds", "0", "--trace", "0"]) == 0
    result = _result(capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(harness.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_times_are_scaled_by_the_run_reference():
    result = harness.measure("smoke", harness.DEFAULT_SEED, 0, trace=False)
    detail = result["detail"]
    assert detail["reference"] == 3 * harness.SETUP_PROBES + 1
    scale = harness.REFERENCE_NOMINAL_S / detail["reference_s"]
    for name, measured in detail["measured_s"].items():
        assert result["metrics"][name]["value"] == pytest.approx(measured * scale)


def test_smoke_workload_traced_sees_every_expected_layer(capsys):
    assert harness.main(["--workload", "smoke", "--trace", "1"]) == 0
    metrics = _result(capsys)["metrics"]
    assert metrics["catalog.build_calls"]["value"] == 1
    assert metrics["serialize.bases_json_calls"]["value"] == 1
    assert metrics["linalg.rref_calls"]["value"] > 0
    assert metrics["graded.solve_g1.calls"]["value"] == 1
    assert metrics["graded.self_s"]["value"] > 0


def test_wrong_golden_counts_as_failed_operation(capsys, tmp_path, monkeypatch):
    golden = harness.load_golden()
    golden["ball3"] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    monkeypatch.setattr(harness, "GOLDEN_PATH", path)
    assert harness.main(["--workload", "smoke", "--seconds", "0", "--trace", "0"]) == 1
    result = _result(capsys)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1


def test_generator_same_seed_same_bytes(tmp_path):
    first, second, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    gen_specs.generate(7, first)
    gen_specs.generate(7, second)
    gen_specs.generate(8, other)
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert all((first / n).read_bytes() == (second / n).read_bytes() for n in names)
    assert any((first / n).read_bytes() != (other / n).read_bytes() for n in names)


def _gaussian_matrix(rows):
    return [[(Fraction(re), Fraction(im)) for re, im in row] for row in rows]


def test_generator_rejects_singular_matrices():
    assert gen_specs._is_singular(_gaussian_matrix([[(1, 0), (1, 1)], [(1, -1), (2, 0)]]))
    assert not gen_specs._is_singular(_gaussian_matrix([[(1, 0), (0, 1)], [(0, 1), (1, 0)]]))


@pytest.mark.parametrize("name", gen_specs.PASS)
def test_generated_family_is_a_congruence(name):
    _, _, _, comps, _, _ = gen_specs.SOURCES[name]
    p = gen_specs.random_invertible(random.Random(1), len(comps[0]))
    for h in comps:
        out = gen_specs.congruence(h, p)
        size = len(out)
        # Hermitian, and the trace is sum_j h_jj |column j of P|^2 as expected.
        assert all(out[i][j] == gen_specs._conj(out[j][i]) for i in range(size) for j in range(size))
        want = sum(Fraction(h[j][j]) * sum(p[l][j][0] ** 2 + p[l][j][1] ** 2 for l in range(size))
                   for j in range(size))
        assert sum(out[i][i][0] for i in range(size)) == want

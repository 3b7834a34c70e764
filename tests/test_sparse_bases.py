"""Bases stay sparse until a reader needs them dense.

The solvers return a ``graded.Basis``: the kernel vectors with the solver's
block layout. Its dense elements are checked here against a reference
unpacking written from the layout alone, and the ``--emit-bases`` text,
written from the present entries, against the text of those dense elements.
"""

import importlib.util
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from siegelalg import catalog, cli, graded
from siegelalg.catalog import verify_paper
from siegelalg.graded import solve_g0, solve_g1, solve_g_half
from siegelalg.linalg import GR_ZERO, GaussianRational
from siegelalg.serialize import format_json, load_domain_spec, solutions_bases_to_json

_GEN_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "gen_specs.py"
_spec = importlib.util.spec_from_file_location("gen_specs", _GEN_PATH)
gen_specs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_specs)

# the catalog families pinned in tests/test_golden_bases.py, as CLI domain flags
CATALOG = {
    "ball2": ("--domain", "ball", "--n", "2"),
    "ball3": ("--domain", "ball", "--n", "3"),
    "ball4": ("--domain", "ball", "--n", "4"),
    "ballproduct2_2": ("--domain", "ballproduct", "--factors", "2,2"),
    "d1_4": ("--domain", "d1", "--n", "4"),
    "d2_3": ("--domain", "d2", "--n", "3"),
    "d6_110": ("--domain", "d6", "--v", "1,1,0"),
    "t3": ("--domain", "t3"),
    "t4": ("--domain", "t4"),
}
# the seed-0 documents of the dense-specs benchmark workload
DENSE_SPECS = [f"{name}.{v}.json" for v in range(gen_specs.VARIANTS) for name in gen_specs.PASS]


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("specs")
    gen_specs.generate(0, out)
    return out


def _flags(name, spec_dir):
    return CATALOG[name] if name in CATALOG else ("--spec", str(spec_dir / name))


def _spec(name, spec_dir):
    if name in CATALOG:
        spec, _ = cli._load_spec(cli.build_parser().parse_args(["dims", *CATALOG[name]]))
        return spec
    spec, _ = load_domain_spec(json.loads((spec_dir / name).read_text(encoding="utf-8")))
    return spec


def _reference_block(block, sol):
    """The block's entries in ``sol`` as nested tuples, column by column: column c is the re
    (or, in a complex block, also the im) part of unknown u, which sets every entry it stands
    for (both mirror entries of a symmetric form)."""
    zero = Fraction(0) if block.width == 1 else GR_ZERO
    size = 1
    for d in block.shape:
        size *= d
    flat = [zero] * size
    for col in range(block.start, block.stop):
        if col not in sol:
            continue
        u, part = divmod(col - block.start, block.width)
        cells = (u,) if block._cells is None else block._cells[u]
        for i in cells:
            if block.width == 1:
                flat[i] = sol[col]
            elif part == 0:
                flat[i] = GaussianRational(sol[col], flat[i].im)
            else:
                flat[i] = GaussianRational(flat[i].re, sol[col])
    return _nest(flat, block.shape)


def _nest(flat, shape):
    if len(shape) == 1:
        return tuple(flat)
    step = len(flat) // shape[0] if shape[0] else 0
    return tuple(_nest(flat[g * step:(g + 1) * step], shape[1:]) for g in range(shape[0]))


def _reference_a(spec, coords, sol):
    """A = sum_p x_p g_p over every p and every entry, x_p read from the coordinate block."""
    k = spec.k
    a = [[Fraction(0)] * k for _ in range(k)]
    for p, g in enumerate(spec.cone.g_basis):
        x = sol.get(coords.start + p, Fraction(0))
        for j in range(k):
            for l in range(k):
                a[j][l] += x * g[j][l]
    return tuple(map(tuple, a))


def _reference(spec, basis):
    elements = []
    for sol in basis.vectors:
        element = []
        for part in basis.parts:
            if isinstance(part, graded._Layout):
                element.append(_reference_block(part, sol))
            else:
                element.append(_reference_a(spec, part.coords, sol))
        elements.append(tuple(element))
    return tuple(elements)


def _dense_doc(spec, g0, g_half, g_one):
    return {
        "g_0": [{"A": a, "B": b} for a, b in _reference(spec, g0)],
        "g_half": [{"phi": phi, "c": c} for phi, c in _reference(spec, g_half)],
        "g_1": [{"a": a, "b": b} for a, b in _reference(spec, g_one)],
    }


def test_the_dense_specs_are_fifteen():
    assert len(DENSE_SPECS) == 15


@pytest.mark.parametrize("name", [*CATALOG, *DENSE_SPECS])
def test_dense_view_equals_the_reference_unpacking(name, spec_dir):
    """``tuple(solve_*(spec))``, and each indexed element, is the reference unpacking of the
    same sparse vectors; the bases text is that of the reference elements, byte for byte."""
    spec = _spec(name, spec_dir)
    bases = [solve_g0(spec), solve_g_half(spec), solve_g1(spec)]
    for basis in bases:
        assert isinstance(basis, graded.Basis)
        reference = _reference(spec, basis)
        assert tuple(basis) == reference
        assert [basis[i] for i in range(len(basis))] == list(reference)
        assert basis[:] == reference
        assert len(basis) == len(reference)
    sols = graded.solve_all(spec)
    assert format_json(solutions_bases_to_json(sols)) == format_json(_dense_doc(spec, *bases))


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("name", [*CATALOG, *DENSE_SPECS])
def test_emitted_bases_equal_the_text_of_the_dense_elements(name, fmt, spec_dir, monkeypatch,
                                                            capsys):
    """``dims --emit-bases`` prints the same bytes when the CLI is handed the reference dense
    elements instead of the sparse arrays, in both formats: the bases sit at another
    indentation in a JSON document than in the table."""
    argv = ["dims", *_flags(name, spec_dir), "--emit-bases", "--format", fmt]
    assert cli.main(argv) == 0
    sparse = capsys.readouterr().out
    spec = _spec(name, spec_dir)
    monkeypatch.setattr(cli, "solutions_bases_to_json",
                        lambda sols: _dense_doc(spec, sols.g0, sols.g_half, sols.g_one))
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == sparse


@pytest.mark.parametrize("shape, zero, entries", [
    ((3,), Fraction(0), {1: Fraction(-3, 4)}),
    ((2, 3), GR_ZERO, {0: GaussianRational(Fraction(1), Fraction(0)),
                       5: GaussianRational(Fraction(0), Fraction(2, 3))}),
    ((2, 2, 2), Fraction(0), {}),
    ((2, 0), GR_ZERO, {}),
    ((0, 3), Fraction(0), {}),
    ((0,), GR_ZERO, {}),
], ids=["row", "complex-matrix", "all-zero", "empty-rows", "no-rows", "empty"])
def test_a_sparse_array_is_written_as_its_dense_tuples(shape, zero, entries):
    array = graded.SparseArray(shape, zero, entries)
    for doc in (array, {"x": [array, {"y": array}]}):
        dense = array.dense() if doc is array else {"x": [array.dense(), {"y": array.dense()}]}
        assert format_json(doc) == format_json(dense)


def test_bases_compare_by_their_sparse_content():
    spec = catalog.build(catalog.ball(3))
    first = solve_g_half(spec)
    solve_g_half.cache_clear()
    again = solve_g_half(spec)
    assert first is not again
    assert first == again and hash(first) == hash(again)
    assert first != solve_g1(spec)
    assert graded.solve_all(spec) == graded.GradedSolutions(
        solve_g0(spec), graded.solve_L(spec), again, solve_g1(spec), graded.graded_dims(spec))


@pytest.fixture
def dense_builds(monkeypatch):
    """Every basis whose dense element is built, once per element built."""
    built = []
    element = graded.Basis._element

    def counted(self, sol):
        built.append(self)
        return element(self, sol)

    monkeypatch.setattr(graded.Basis, "_element", counted)
    return built


@pytest.mark.parametrize("emit", [(), ("--emit-bases",)], ids=["dims", "emit-bases"])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_dims_builds_no_dense_element(dense_builds, capsys, emit, fmt):
    for solver in (solve_g0, solve_g_half, solve_g1):
        solver.cache_clear()
    assert cli.main(["dims", "--domain", "ball", "--n", "4", *emit, "--format", fmt]) == 0
    assert cli.main(["homogeneity", "--domain", "d6", "--v", "1,1,0"]) == 0
    capsys.readouterr()
    assert dense_builds == []


def test_verify_paper_builds_dense_elements_only_where_it_reads_fields(dense_builds,
                                                                       monkeypatch):
    """Dense elements are built only for the two domains whose fields ``verify_paper``
    materializes, B3 and D6(1,1,0), each element once, plus D6's one g1 element once more for
    ``_d6_basis_matches``; every other domain's bases stay sparse."""
    reports = {}
    solve_all = catalog.solve_all

    def recorded(spec):
        sols = solve_all(spec)
        reports.setdefault(spec, sols)
        return sols

    monkeypatch.setattr(catalog, "solve_all", recorded)
    assert verify_paper().ok
    b3 = reports[catalog.build(catalog.ball(3))]
    d6 = reports[catalog.build(catalog.d6((1, 1, 0)))]
    expected = Counter()
    for sols in (b3, d6):
        for basis in (sols.g0, sols.g_half, sols.g_one):
            expected[id(basis)] += len(basis)
    expected[id(d6.g_one)] += 1
    assert len(b3.g_half) and len(b3.g_one) and len(d6.g_one) == 1
    assert Counter(map(id, dense_builds)) == expected

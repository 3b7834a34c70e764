"""Bases stay sparse until a reader needs them dense.

The solvers return one element per kernel vector, each a ``graded.SparseArray``
per part. Their dense tuples are checked here against a reference unpacking
written from the raw kernel vectors and blocks alone, and the ``--emit-bases``
text, written from the present entries, against the text of the reference
elements.
"""

import importlib.util
import json
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

from siegelalg import catalog, cli, graded
from siegelalg.catalog import verify_paper
from siegelalg.graded import solve_g0, solve_g1, solve_g_half
from siegelalg.linalg import GR_ZERO, GaussianRational
from siegelalg.serialize import format_json, load_domain_spec, solutions_bases_to_json
from matrix_oracles import dense

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
        spec, _ = cli._load_spec(cli.parse_args(["dims", *CATALOG[name]]))
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


SOLVERS = (solve_g0, solve_g_half, solve_g1)


def _solved_with_references(spec):
    """Each solver's basis of ``spec``, solved afresh, with the reference unpacking of the
    kernel vectors and blocks of its system, captured as the solve makes them."""
    blocks, systems = [], []
    block, solutions = graded._System._block, graded._System.solutions

    def recording_block(self, *args):
        blocks.append(block(self, *args))
        return blocks[-1]

    def recording_solutions(self):
        vectors = solutions(self)
        systems.append((vectors, list(blocks)))
        return vectors

    results = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graded._System, "_block", recording_block)
        mp.setattr(graded._System, "solutions", recording_solutions)
        for solver in SOLVERS:
            blocks.clear()
            systems.clear()
            basis = solver.__wrapped__(spec)
            vectors, parts = systems[0] if systems else ((), ())  # g_half has no system at m = 0
            results.append((basis, tuple(
                tuple(_reference_a(spec, part, sol) if solver is solve_g0 and p == 0
                      else _reference_block(part, sol) for p, part in enumerate(parts))
                for sol in vectors
            )))
    return results


def _dense_doc(g0, g_half, g_one):
    return {
        "g_0": [{"A": a, "B": b} for a, b in g0],
        "g_half": [{"phi": phi, "c": c} for phi, c in g_half],
        "g_1": [{"a": a, "b": b} for a, b in g_one],
    }


def test_the_dense_specs_are_fifteen():
    assert len(DENSE_SPECS) == 15


@pytest.mark.parametrize("name", [*CATALOG, *DENSE_SPECS])
def test_dense_view_equals_the_reference_unpacking(name, spec_dir):
    """Each solver's elements, made dense, are the reference unpacking of the kernel vectors of
    its system; the bases text is that of the reference elements, byte for byte."""
    spec = _spec(name, spec_dir)
    solved = _solved_with_references(spec)
    for solver, (basis, reference) in zip(SOLVERS, solved):
        assert type(basis) is tuple and basis == solver(spec)
        assert dense(basis) == reference
    sols = graded.solve_all(spec)
    assert format_json(solutions_bases_to_json(sols)) == format_json(
        _dense_doc(*(reference for _, reference in solved)))


# the part shapes of (A, B), (phi, c) and (a, b), and whether each part is real
PART_SHAPES = {
    solve_g0: lambda k, m: [((k, k), True), ((m, m), False)],
    solve_g_half: lambda k, m: [((m, k), False), ((m, m, m), False)],
    solve_g1: lambda k, m: [((k, k, k), True), ((m, k, m), False)],
}


@pytest.mark.parametrize("name", [*CATALOG, *DENSE_SPECS])
def test_every_part_has_its_shape_and_no_zero_entry(name, spec_dir):
    """Every ``SparseArray`` the solvers return has its part's shape and zero, and holds only
    nonzero entries inside it: so two parts are equal by their entries exactly when their
    ``dense()`` tuples are."""
    spec = _spec(name, spec_dir)
    parts = 0
    for solver in SOLVERS:
        for element in solver(spec):
            shapes = PART_SHAPES[solver](spec.k, spec.m)
            assert type(element) is tuple and len(element) == len(shapes)
            for array, (shape, real) in zip(element, shapes):
                assert type(array) is graded.SparseArray and array.shape == shape
                assert type(array.zero) is (Fraction if real else GaussianRational)
                assert not array.zero
                assert all(0 <= i < prod(shape) and x for i, x in array.entries.items())
                assert all(type(x) is (Fraction if real else GaussianRational)
                           for x in array.entries.values())
                parts += 1
    assert parts


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
    doc = _dense_doc(*(reference for _, reference in _solved_with_references(_spec(name, spec_dir))))
    monkeypatch.setattr(cli, "solutions_bases_to_json", lambda sols: doc)
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
    assert first is not again and first[0][0] is not again[0][0]
    assert first == again and hash(first) == hash(again)
    assert first != solve_g1(spec)
    assert graded.solve_all(spec) == graded.GradedSolutions(
        solve_g0(spec), graded.solve_L(spec), again, solve_g1(spec), graded.graded_dims(spec))
    array = graded.SparseArray((2, 2), Fraction(0), {1: Fraction(1)})
    assert array == graded.SparseArray((2, 2), Fraction(0), {1: Fraction(1)})
    assert hash(array) == hash(graded.SparseArray((2, 2), Fraction(0), {1: Fraction(1)}))
    assert array != graded.SparseArray((4,), Fraction(0), {1: Fraction(1)})
    assert array != graded.SparseArray((2, 2), Fraction(0), {2: Fraction(1)})
    assert array != graded.SparseArray((2, 2), Fraction(0), {1: Fraction(2)})


@pytest.fixture
def dense_builds(monkeypatch):
    """Every ``SparseArray`` whose ``dense()`` is called, once per call."""
    built = []
    dense_of = graded.SparseArray.dense

    def counted(self):
        built.append(self)
        return dense_of(self)

    monkeypatch.setattr(graded.SparseArray, "dense", counted)
    return built


@pytest.mark.parametrize("emit", [(), ("--emit-bases",)], ids=["dims", "emit-bases"])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_dims_builds_no_dense_element(dense_builds, capsys, emit, fmt):
    for solver in SOLVERS:
        solver.cache_clear()
    assert cli.main(["dims", "--domain", "ball", "--n", "4", *emit, "--format", fmt]) == 0
    assert cli.main(["homogeneity", "--domain", "d6", "--v", "1,1,0"]) == 0
    capsys.readouterr()
    assert dense_builds == []


def test_verify_paper_builds_no_dense_element(dense_builds):
    """``verify_paper`` reads every basis from its present entries, also where it materializes
    fields (B3 and D6(1,1,0)) and matches D6's g1 element."""
    for solver in SOLVERS:
        solver.cache_clear()
    assert verify_paper().ok
    assert dense_builds == []

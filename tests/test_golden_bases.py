"""CLI outputs, byte for byte.

Each value is the sha256 of the stdout of ``python -m siegelalg ARGV``. The
``dims --emit-bases --format json`` entries were recorded with the dense
elimination that preceded ``linalg.sparse_rref``: a reduced row echelon form
is unique, so no change of elimination order may move these bytes. The other
entries were recorded before the JSON encoding moved into ``serialize.to_json``.
All of them were recorded with ``json.dumps(..., indent=2)``, which
``serialize.format_json`` has since replaced.

Every catalog family is diagonal and real, so the ``DENSE_SPECS`` pins are
the ones that read a conjugated or transposed entry of H: two catalog domains
after a dense Gaussian change of w-coordinates, recorded with the solvers that
still walked every entry of each H_j.
"""

import hashlib
import json

import pytest

from siegelalg.cli import main


BASES_JSON = ("--emit-bases", "--format", "json")


def _bases(*domain):
    return ("dims", "--domain", *domain, *BASES_JSON)


GOLDEN = {
    _bases("ball", "--n", "2"): "d4877059146313080b43a60888676c35721334bae346e925fec2cb9b74bc7ebe",
    _bases("ball", "--n", "3"): "aeb17db766a825c0366bf425a65b1ba097e6ea154c3c7298d3f903962f11d9e7",
    _bases("ball", "--n", "4"): "0b05e7bbb59fa66930845306b7572e28029d760728a36f0acc777ad028308de1",
    _bases("ballproduct", "--factors", "2,2"):
        "e8cca878283e898f995c4911bf8be710e492b01e82de77dfe5ae539c8f3ef5f5",
    _bases("d1", "--n", "4"): "e645c839592d66d7498795285f2a8cbae6a57cd5dab9dd579a5e6126045df5ea",
    _bases("d2", "--n", "3"): "96afe9e9c996fe176cbfbed201e579b2e69647e4ea804f788db7bca8fd1b322d",
    _bases("d6", "--v", "1,1,0"): "426a5c6e5d814c9d1c97ae9248b66e2564827349798c0ae499ae79e922dea380",
    _bases("t3"): "0ac87cc779844cb15266bfe295410ae3b14019cc8d2840025dc8f499596d7bc8",
    _bases("t4"): "998cebe4cd7e045baac5a6899bfb0a5e1843eed38b446a3387289d40b6aee613",
    ("dims", "--domain", "d6", "--v", "1,1,0", "--emit-bases"):
        "551fbaba3edb8108780944e9b8109a190fcab8b3ecc5a6c64aa4bc6097f4f92f",
    ("verify-paper",): "ed00af72dfded8c0240cd4097c9d00c99fd0e99dcf72a4c92bfdd20e1bec9355",
    ("verify-paper", "--format", "json"):
        "0eedaae637a98e9e5ed674716bac12236dfcb0f0eea0a099759275a615012ced",
    ("classify", "--n", "3"): "a3515f0e07bb0a0f6204f55fb6110e75a4416ef171474d0682b12a4f31a2854f",
    ("classify", "--n", "3", "--format", "json"):
        "e9b7bbc6db1cb3f66d3a1fb083f9b9e9b774807dc409fdbe565ebbc753a3f896",
    ("classify", "--n", "5"): "279997e0f6a312b0942a6c1e9cfa757e24bb71fc293ab84dab7ccb81f51c5893",
    ("classify", "--n", "5", "--format", "json"):
        "e2b00925b9c8ad972afe350b277e45916aac75537db8598833dbf7de2fa4ded1",
    ("cone-info", "--cone", "omega5", "--emit-bases"):
        "fc1ca6ab23c49fa7b2d9b8d81baef80d9fb96008cd57d56168b28c1aa2b57766",
    ("cone-info", "--cone", "omega5", "--emit-bases", "--format", "json"):
        "8b313928d20fd98e8d810690403d919ea0ed31f4d83990e40f63bacae3c0993d",
    ("bounds", "--sweep", "8", "--format", "json"):
        "93ae9e2d21b4dadad9c2d62de90f8f6329cb48cc7da94e8147dd43be55f4de65",
    ("bounds", "--n", "5", "--k", "2", "--s", "5", "--dim-g-omega", "2",
     "--g-half", "1", "--g-one", "3", "--format", "json"):
        "36be59ccbc614eea162f7892c79790246abaafb267faa80f95bcc9c7071f5535",
    ("homogeneity", "--domain", "d6", "--v", "1,1,0", "--format", "json"):
        "bb7dc5d0da41d5ab523e0a465a23582097d0118a7ab0f13d96b4c32a0cfa60b2",
}


BASES = [argv for argv in GOLDEN if argv[:2] == ("dims", "--domain") and argv[-3:] == BASES_JSON]


def _check(argv, capsys):
    assert main(list(argv)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GOLDEN[argv]


@pytest.mark.parametrize("argv", BASES, ids=lambda argv: " ".join(argv[2:-3]))
def test_emitted_bases_are_byte_identical(argv, capsys):
    _check(argv, capsys)


@pytest.mark.parametrize("argv", [argv for argv in GOLDEN if argv not in BASES], ids=" ".join)
def test_output_is_byte_identical(argv, capsys):
    _check(argv, capsys)


def _c(re, im=0):
    return {"re": str(re), "im": str(im)}


# ball(3) and ball_product(2, 2) after H_j -> P* H_j P with P = [[1, i], [1 + i, -1]].
DENSE_SPECS = {
    "ball3": (
        {
            "n": 3,
            "k": 1,
            "cone": {"name": "ray", "k": 1, "g_basis": [[["1"]]], "interior_point": ["1"],
                     "boundary": {"factors": [{"kind": "polyhedral", "functionals": [["1"]]}]}},
            "H": [[[_c(3), _c(-1, 2)], [_c(-1, -2), _c(2)]]],
        },
        "f712ecb84365fcbbb10a8f10d298cc3badfed4f4d99dbd73aeccd6c7e0e69c46",
    ),
    "ballproduct2_2": (
        {
            "n": 4,
            "k": 2,
            "cone": "omega1",
            "H": [
                [[_c(1), _c(0, 1)], [_c(0, -1), _c(1)]],
                [[_c(2), _c(-1, 1)], [_c(-1, -1), _c(1)]],
            ],
        },
        "63fb6f11f25c6fc242a3959b80dad92608f6020bb588e413bff41313ca1db43c",
    ),
}


@pytest.mark.parametrize("name", sorted(DENSE_SPECS))
def test_dense_complex_bases_are_byte_identical(name, tmp_path, monkeypatch, capsys):
    doc, digest = DENSE_SPECS[name]
    (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # the output's label is the path as given
    assert main(["dims", "--spec", f"{name}.json", *BASES_JSON]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

"""Emitted bases of small catalog domains, byte for byte.

Each value is the sha256 of the stdout of
``python -m siegelalg dims --domain ARGS --emit-bases --format json``,
recorded with the dense elimination that preceded ``linalg.sparse_rref``.
A reduced row echelon form is unique, so no change of elimination order
may move these bytes.
"""

import hashlib

import pytest

from siegelalg.cli import main

GOLDEN = {
    ("ball", "--n", "2"): "d4877059146313080b43a60888676c35721334bae346e925fec2cb9b74bc7ebe",
    ("ball", "--n", "3"): "aeb17db766a825c0366bf425a65b1ba097e6ea154c3c7298d3f903962f11d9e7",
    ("ball", "--n", "4"): "0b05e7bbb59fa66930845306b7572e28029d760728a36f0acc777ad028308de1",
    ("ballproduct", "--factors", "2,2"):
        "e8cca878283e898f995c4911bf8be710e492b01e82de77dfe5ae539c8f3ef5f5",
    ("d1", "--n", "4"): "e645c839592d66d7498795285f2a8cbae6a57cd5dab9dd579a5e6126045df5ea",
    ("d2", "--n", "3"): "96afe9e9c996fe176cbfbed201e579b2e69647e4ea804f788db7bca8fd1b322d",
    ("d6", "--v", "1,1,0"): "426a5c6e5d814c9d1c97ae9248b66e2564827349798c0ae499ae79e922dea380",
    ("t3",): "0ac87cc779844cb15266bfe295410ae3b14019cc8d2840025dc8f499596d7bc8",
    ("t4",): "998cebe4cd7e045baac5a6899bfb0a5e1843eed38b446a3387289d40b6aee613",
}


@pytest.mark.parametrize("args", list(GOLDEN), ids=" ".join)
def test_emitted_bases_are_byte_identical(args, capsys):
    assert main(["dims", "--domain", *args, "--emit-bases", "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GOLDEN[args]

"""Seeded generator for the dense-specs workload.

Each document is a catalog domain after a random w-coordinate change
H_j -> P* H_j P with an invertible Gaussian-integer matrix P. A biholomorphic
change of coordinates leaves every graded dimension unchanged, so the expected
dimensions are those of the source domain, fixed below as integers.

The generator uses only ``fractions.Fraction`` and never imports ``siegelalg``,
so a change to the package cannot change the inputs it is measured on.

    python3 perfbench/gen_specs.py --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction
from pathlib import Path

# Nonzero Gaussian integers with parts in {-1, 0, 1}: small entries keep the
# coefficient growth of elimination bounded, nonzero ones keep every row dense.
_ENTRIES = tuple(
    (Fraction(re), Fraction(im))
    for re in (-1, 0, 1)
    for im in (-1, 0, 1)
    if (re, im) != (0, 0)
)

# The ray, written out as a full custom cone description (it has no catalog id).
_RAY = {
    "name": "ray",
    "k": 1,
    "g_basis": [[["1"]]],
    "interior_point": ["1"],
    "boundary": {"factors": [{"kind": "polyhedral", "functionals": [["1"]]}]},
}


def _diag(values):
    size = len(values)
    return [[values[i] if i == j else 0 for j in range(size)] for i in range(size)]


# name -> (n, k, cone, diagonal Hermitian components, expected dims, s)
# Dimensions are those the catalog domain of the same name has at the seed
# commit; ``s`` is the dimension of the skew part of g_0.
SOURCES = {
    "ball3": (3, 1, _RAY, [_diag([1, 1])],
              {"g_m1": 1, "g_mhalf": 4, "g_0": 5, "g_half": 4, "g_1": 1, "total": 15}, 4),
    "ball4": (4, 1, _RAY, [_diag([1, 1, 1])],
              {"g_m1": 1, "g_mhalf": 6, "g_0": 10, "g_half": 6, "g_1": 1, "total": 24}, 9),
    "ballproduct2_2": (4, 2, "omega1", [_diag([1, 0]), _diag([0, 1])],
                       {"g_m1": 2, "g_mhalf": 4, "g_0": 4, "g_half": 4, "g_1": 2, "total": 16}, 2),
    "d1_4": (4, 2, "omega1", [_diag([1, 1]), _diag([0, 0])],
             {"g_m1": 2, "g_mhalf": 4, "g_0": 6, "g_half": 4, "g_1": 2, "total": 18}, 4),
    "d6_110": (4, 3, "omega3", [_diag([1]), _diag([1]), _diag([0])],
               {"g_m1": 3, "g_mhalf": 2, "g_0": 4, "g_half": 0, "g_1": 1, "total": 10}, 1),
}

# One workload pass: VARIANTS independent coordinate changes of each source.
# Several mid-sized documents rather than one large one keep the pass time
# from depending much on which matrices a seed happens to draw; few enough
# that a pass (about 12 s) repeats three times in a 40-second run.
PASS = ("ball3", "ball4", "ballproduct2_2", "d1_4", "d6_110")
VARIANTS = 3


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _sum(terms):
    acc = (Fraction(0), Fraction(0))
    for t in terms:
        acc = _add(acc, t)
    return acc


def _conj(a):
    return (a[0], -a[1])


def _inv(a):
    d = a[0] * a[0] + a[1] * a[1]
    return (a[0] / d, -a[1] / d)


def _is_singular(p) -> bool:
    """Exact Gaussian elimination over Q(i)."""
    rows = [list(r) for r in p]
    size = len(rows)
    for c in range(size):
        pivot = next((i for i in range(c, size) if rows[i][c] != (0, 0)), None)
        if pivot is None:
            return True
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = _inv(rows[c][c])
        for i in range(c + 1, size):
            f = _mul(rows[i][c], inv)
            rows[i] = [_add(x, _mul((-f[0], -f[1]), y)) for x, y in zip(rows[i], rows[c])]
    return False


def random_invertible(rng: random.Random, size: int):
    """A dense size x size Gaussian-integer matrix; singular draws are rejected."""
    while True:
        p = [[rng.choice(_ENTRIES) for _ in range(size)] for _ in range(size)]
        if not _is_singular(p):
            return p


def congruence(h, p):
    """P* H P for a real diagonal (or any square) H given as nested numbers."""
    size = len(p)
    hc = [[(Fraction(x), Fraction(0)) for x in row] for row in h]
    hp = [
        [
            _sum(_mul(hc[i][l], p[l][j]) for l in range(size))
            for j in range(size)
        ]
        for i in range(size)
    ]
    return [
        [
            _sum(_mul(_conj(p[l][i]), hp[l][j]) for l in range(size))
            for j in range(size)
        ]
        for i in range(size)
    ]


def _entry_json(z) -> dict:
    return {"re": str(z[0]), "im": str(z[1])}


def document(name: str, rng: random.Random) -> dict:
    n, k, cone, comps, _, _ = SOURCES[name]
    p = random_invertible(rng, n - k)
    return {
        "n": n,
        "k": k,
        "cone": cone,
        "H": [[[_entry_json(z) for z in row] for row in congruence(h, p)] for h in comps],
    }


def generate(seed: int, out: Path) -> list[dict]:
    """Write ``VARIANTS`` documents per source in ``PASS`` plus ``manifest.json``.

    Returns the manifest: for each document its file name, source domain,
    expected dimensions and expected ``s``.
    """
    rng = random.Random(seed)
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for variant in range(VARIANTS):
        for name in PASS:
            path = out / f"{name}.{variant}.json"
            path.write_text(json.dumps(document(name, rng), indent=1) + "\n", encoding="utf-8")
            _, _, _, _, dims, s = SOURCES[name]
            manifest.append({"file": path.name, "source": name, "dims": dims, "s": s})
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    generate(args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""A fixed stdlib task that times the machine, not siegelalg.

    python3 perfbench/reference.py

Exact Gauss-Jordan elimination of a seeded rational matrix, with
``fractions.Fraction`` in pure Python: the kind of work the workloads do, in
a fresh interpreter as each workload item runs, and with no siegelalg code,
so that no change to the package moves its time.
"""

import random
from fractions import Fraction

SEED = 20170908
SIZE = 16


def eliminate(size: int = SIZE) -> int:
    """Reduce the matrix to row echelon form; return its rank."""
    rng = random.Random(SEED)
    rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(size + 2)]
            for _ in range(size)]
    rank = 0
    for col in range(size + 2):
        pivot = next((i for i in range(rank, size) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(size):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


if __name__ == "__main__":
    eliminate()

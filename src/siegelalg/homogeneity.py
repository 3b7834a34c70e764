"""Infinitesimal transitivity of the cone action of the affine automorphisms.

The matrices A appearing in the weight-0 component generate the linear part
of the affine automorphism group acting on the cone. Stacking the vectors
A_i x for symbolic x gives a polynomial matrix whose generic rank bounds the
orbit dimension everywhere:

* generic rank below k proves there is no open orbit anywhere, hence the
  action cannot be transitive on the cone;
* generic rank k only shows orbits are open off a proper subvariety, which
  is not a transitivity proof; the verdict taxonomy keeps the distinction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ValidationError
from .graded import SiegelDomainSpec, solve_g0
from .linalg import Matrix, from_real_rows
from .poly import Polynomial, PolyMatrix, generic_rank

NOT_TRANSITIVE = "not-transitive"
GENERICALLY_OPEN_ORBITS = "generically-open-orbits"


@dataclass(frozen=True)
class HomogeneityVerdict:
    a_part_dim: int
    generic_rank: int
    k: int
    verdict: str
    note: str

    def as_dict(self) -> dict:
        return {
            "a_part_dim": self.a_part_dim,
            "generic_rank": self.generic_rank,
            "verdict": self.verdict,
            "note": self.note,
        }


def a_part_basis(spec: SiegelDomainSpec) -> tuple[Matrix, ...]:
    """Canonical basis of the span of the A-components of the weight-0 pairs.

    Canonicalized through row reduction of the vectorized matrices, so the
    result is deterministic and independent of the pairing with B.
    """
    k = spec.k
    rows = [[x.re for x in a.vectorize()] for a, _ in solve_g0(spec)]
    if not rows:
        return ()
    reduced = from_real_rows(rows).rref()
    basis = []
    for r in range(reduced.rank):
        vec = reduced.matrix.row(r)
        basis.append(
            from_real_rows(
                [[vec[i * k + j].re for j in range(k)] for i in range(k)]
            )
        )
    return tuple(basis)


def generic_orbit_rank(a_basis: Sequence[Matrix], k: int) -> int:
    """Generic rank of the orbit-direction matrix with rows A_i x, x symbolic."""
    if not a_basis:
        return 0
    rows = []
    for a in a_basis:
        if (a.nrows, a.ncols) != (k, k):
            raise ValidationError("basis matrices must be k x k")
        row = []
        for j in range(k):
            p = Polynomial.zero(k)
            for l in range(k):
                c = a.entry(j, l)
                if not c.is_zero():
                    p = p + Polynomial.variable(k, l) * c
            row.append(p)
        rows.append(row)
    return generic_rank(PolyMatrix.from_rows(k, rows))


def homogeneity_verdict(spec: SiegelDomainSpec) -> HomogeneityVerdict:
    basis = a_part_basis(spec)
    rank = generic_orbit_rank(basis, spec.k)
    if rank < spec.k:
        verdict = NOT_TRANSITIVE
        note = (
            f"orbit directions span at most {rank} < {spec.k} dimensions at every "
            "point, so the linear part of the affine group is not transitive on the cone"
        )
    else:
        verdict = GENERICALLY_OPEN_ORBITS
        note = (
            "orbits are open off a proper subvariety; this does not by itself "
            "prove transitivity on the whole cone"
        )
    return HomogeneityVerdict(len(basis), rank, spec.k, verdict, note)

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

from typing import Sequence

from .errors import ValidationError
from .frozen import Frozen
from .graded import SiegelDomainSpec, a_part_basis
from .linalg import ComplexRows, RealRows
from .poly import generic_rank

NOT_TRANSITIVE = "not-transitive"
GENERICALLY_OPEN_ORBITS = "generically-open-orbits"


class HomogeneityVerdict(Frozen):
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


def generic_orbit_rank(a_basis: Sequence[RealRows], k: int) -> int:
    """Generic rank of the orbit-direction matrix with rows A_i x, x symbolic."""
    if not a_basis:
        return 0
    units = [tuple(int(i == l) for i in range(k)) for l in range(k)]
    rows = []
    for a in a_basis:
        if len(a) != k or any(len(r) != k for r in a):
            raise ValidationError("basis matrices must be k x k")
        rows.append([{u: x for u, x in zip(units, a[j]) if x} for j in range(k)])
    return generic_rank(rows, k)


def homogeneity_verdict(
    spec: SiegelDomainSpec, g0: Sequence[tuple[RealRows, ComplexRows]]
) -> HomogeneityVerdict:
    """The verdict for ``spec`` from its weight-0 pairs ``g0`` (``solve_g0(spec)``)."""
    basis = a_part_basis(g0)
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

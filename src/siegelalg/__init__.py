"""Exact computation of graded automorphism algebras of Siegel domains.

The package computes, in exact rational arithmetic, the five graded
components of the holomorphic automorphism algebra of a Siegel domain of the
second kind, the associated dimension-bound chain, and infinitesimal
transitivity verdicts for the cone action, together with a catalog of the
classical low-dimensional domain families and a verification driver for
their published dimension table.
"""

from .bounds import (
    BoundReport,
    bound_chain,
    closed_form_bound,
    closed_form_sweep,
    s_from_multiplicities,
)
from .catalog import (
    DomainId,
    DomainReport,
    analyze,
    ball,
    ball_product,
    build,
    classify,
    d1,
    d2,
    d3,
    d4,
    d5,
    d6,
    product,
    t3,
    t4,
    tube,
    verify_paper,
)
from .cones import (
    ConeSpec,
    Region,
    catalog_cone,
    in_g_omega,
    isotropy_bound,
)
from .errors import ValidationError
from .fields import (
    PolyVectorField,
    bracket,
    check_grading,
    euler_field,
    materialize,
)
from .graded import (
    GradedDims,
    GradedSolutions,
    SiegelDomainSpec,
    a_part_basis,
    graded_dims,
    solve_all,
    solve_g0,
    solve_g1,
    solve_g_half,
    solve_L,
)
from .hermitian import HermitianFamily, is_omega_hermitian
from .homogeneity import (
    GENERICALLY_OPEN_ORBITS,
    NOT_TRANSITIVE,
    HomogeneityVerdict,
    generic_orbit_rank,
    homogeneity_verdict,
)
from .linalg import GaussianRational, gr
from .poly import Polynomial, generic_rank
from .serialize import load_domain_spec, spec_to_json

__all__ = [
    "BoundReport",
    "ConeSpec",
    "DomainId",
    "DomainReport",
    "GENERICALLY_OPEN_ORBITS",
    "GaussianRational",
    "GradedDims",
    "GradedSolutions",
    "HermitianFamily",
    "HomogeneityVerdict",
    "NOT_TRANSITIVE",
    "PolyVectorField",
    "Polynomial",
    "Region",
    "SiegelDomainSpec",
    "ValidationError",
    "a_part_basis",
    "analyze",
    "ball",
    "ball_product",
    "bound_chain",
    "bracket",
    "build",
    "catalog_cone",
    "check_grading",
    "classify",
    "closed_form_bound",
    "closed_form_sweep",
    "d1",
    "d2",
    "d3",
    "d4",
    "d5",
    "d6",
    "euler_field",
    "generic_orbit_rank",
    "generic_rank",
    "gr",
    "graded_dims",
    "homogeneity_verdict",
    "in_g_omega",
    "is_omega_hermitian",
    "isotropy_bound",
    "load_domain_spec",
    "materialize",
    "product",
    "s_from_multiplicities",
    "solve_L",
    "solve_all",
    "solve_g0",
    "solve_g1",
    "solve_g_half",
    "spec_to_json",
    "t3",
    "t4",
    "tube",
    "verify_paper",
]

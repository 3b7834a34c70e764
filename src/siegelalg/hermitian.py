"""Vector-valued Hermitian form families and the cone-compatibility check.

A family holds k Hermitian m x m matrices H_1..H_k, each as ``ComplexRows``:
m rows of m ``GaussianRational``s. The form evaluates as
H(w, w')_j = conj(w)^T H_j w', anti-linear in the first slot. The family
tables its nonzero entries once, when it is built, and every computation on
it (the graded solvers, the checks here, the field realization) reads that
table, so no reader visits a zero entry. The family is compatible with a cone
when H(w, w) lies in the closed cone minus the origin for every nonzero w.

Positive semidefiniteness is decided exactly by congruence diagonalization
(``negative_direction``): the diagonal values of the reduced form are exact
rationals, and a negative one comes with its vector as a witness. No
eigenvalues or square roots are ever computed. The reduction keeps the Gram
matrix of the remaining vectors and updates it in place, by Schur complement
when a pivot is split off and by the same rotation as the vectors when the
diagonal vanishes, so a d x d form costs O(d^3) exact operations and no
pairing is ever recomputed.

Over a polyhedral cone the components must also have no common kernel.
That check is real: the rows of every H_j are realified (``linalg._realified``)
and their real kernel is taken over 2m interleaved (re, im) columns. Those
rows kill exactly the conjugates of the common complex kernel, so the first
kernel vector, whose free column is an re column, is read back
(``linalg._complex_row``) and conjugated as the witness.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .cones import ConeSpec, LorentzFactor, Region, classify_point
from .errors import ValidationError
from .frozen import Frozen
from .linalg import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    ComplexRows,
    GaussianRational,
    Scalar,
    _complex_row,
    _exact,
    _frac,
    _realified,
    coordinate_units,
    sparse_nullspace,
)

VERIFIED_EXACT = "verified-exact"
VERIFIED_ON_SAMPLES = "verified-on-samples"
COUNTEREXAMPLE = "counterexample"

# random vectors the sampled cone check tries after the basis-like ones
_SAMPLES = 32


class HermitianFamily(Frozen):
    """k Hermitian m x m matrices; k and m are read from the components.

    The components are given as nested sequences of scalars (``int``,
    ``Fraction`` or ``GaussianRational``, whose parts are read by ``_frac``
    too; any other entry or part is a ``ValidationError``) and stored as
    ``ComplexRows`` of ``Fraction`` parts.
    Construction checks that they are square of one size and Hermitian, and
    names every cell (j, i), j >= i, that differs from the conjugate of its
    mirror. The same pass tables the nonzero entries, read by ``_exact``, as
    three attributes that are not fields: ``row[j][u]`` lists the pairs
    (v, H_j[u][v]) and ``col[j][v]`` the pairs (u, H_j[u][v]), both in index
    order, and ``at[u][v]`` lists the pairs (j, H_j[u][v]).
    """

    components: tuple[ComplexRows, ...]

    def __post_init__(self) -> None:
        comps = tuple(tuple(tuple(map(_entry, r)) for r in c) for c in self.components)
        object.__setattr__(self, "components", comps)
        m = len(comps[0]) if comps else 0
        if any(len(c) != m or any(len(r) != m for r in c) for c in comps):
            raise ValidationError("components must be m x m")
        row = [[[] for _ in range(m)] for _ in comps]
        col = [[[] for _ in range(m)] for _ in comps]
        at = [[[] for _ in range(m)] for _ in range(m)]
        bad = []
        for j, comp in enumerate(comps):
            for u, entries in enumerate(comp):
                for v, h in enumerate(entries):
                    if v >= u and h != comp[v][u].conjugate():
                        bad.append(f"component {j} at {(v, u)}")
                    if h:
                        h = _exact(h)
                        row[j][u].append((v, h))
                        col[j][v].append((u, h))
                        at[u][v].append((j, h))
        if bad:
            raise ValidationError(f"family is not Hermitian: {', '.join(bad)}")
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "col", col)
        object.__setattr__(self, "at", at)

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def m(self) -> int:
        return len(self.components[0]) if self.components else 0


def _entry(x: Scalar) -> GaussianRational:
    """A family entry with ``Fraction`` parts, a ``GaussianRational``'s read by ``_frac``."""
    if x.__class__ is not GaussianRational:
        return GaussianRational.of(x)
    re, im = _frac(x.re), _frac(x.im)
    return x if re is x.re and im is x.im else GaussianRational(re, im)


def negative_direction(m: ComplexRows) -> Optional[tuple[GaussianRational, ...]]:
    """A vector w with conj(w)^T M w < 0, or None when the Hermitian M is PSD.

    Found by exact congruence diagonalization (no square roots): repeatedly
    pick a basis vector with nonzero self-pairing, split the rest off, and
    read the signs of the diagonal values. The Gram matrix of the remaining
    vectors, gram[a][b] = pairing(b_a, b_b), starts as M (the vectors start
    as the unit vectors) and follows each step: splitting off pivot p is its
    Schur complement, gram[a][b] - gram[a][p] gram[p][b] / gram[p][p], and
    adding s b_j to b_i adds conj(s) times row j to row i and then s times
    column j to column i. That is O(d^2) work per step instead of O(d^2)
    pairings, each O(d^2).
    """
    d = len(m)
    if any(len(row) != d for row in m):
        raise ValidationError("matrix must be square")
    vectors = [[GR_ONE if i == j else GR_ZERO for j in range(d)] for i in range(d)]
    gram = [list(row) for row in m]
    while vectors:
        p = next((i for i, row in enumerate(gram) if row[i].re), None)
        if p is None:
            # all self-pairings vanish: either the form is zero here or some
            # off-diagonal pairing can be rotated onto the diagonal
            pair = next(
                ((i, j) for i in range(len(gram)) for j in range(i + 1, len(gram)) if gram[i][j]),
                None,
            )
            if pair is None:
                return None
            i, j = pair
            s = GR_ONE if gram[i][j].re else GR_I
            vectors[i] = [a + s * b for a, b in zip(vectors[i], vectors[j])]
            sbar = s.conjugate()
            gram[i] = [a + sbar * b for a, b in zip(gram[i], gram[j])]
            for row in gram:
                row[i] = row[i] + s * row[j]
            continue
        piv = vectors.pop(p)
        prow = gram.pop(p)
        val = prow.pop(p)
        if val.re < 0:
            return tuple(piv)
        for a, row in enumerate(gram):
            g = row.pop(p)
            if g:  # else b_a is orthogonal to the pivot and stays as it is
                t = prow[a] / val
                vectors[a] = [bb - t * pp for bb, pp in zip(vectors[a], piv)]
                f = g / val
                row[:] = [x - f * y for x, y in zip(row, prow)]
    return None


class OmegaHermitianVerdict(Frozen):
    kind: str
    samples: int = 0
    witness: Optional[tuple[GaussianRational, ...]] = None

    def is_counterexample(self) -> bool:
        return self.kind == COUNTEREXAMPLE

    @property
    def note(self) -> Optional[str]:
        """The caveat a sampled verdict must be shown with; None for an exact one."""
        if self.kind != VERIFIED_ON_SAMPLES:
            return None
        return f"cone compatibility was checked on {self.samples} sampled vectors, not proved"


class _Lcg:
    """Deterministic linear congruential stream; reproducible across runs."""

    def __init__(self, seed: int) -> None:
        self.state = (seed * 2654435761 + 1) % (1 << 31)

    def next_int(self, lo: int, hi: int) -> int:
        self.state = (1103515245 * self.state + 12345) % (1 << 31)
        return lo + self.state % (hi - lo + 1)

    def next_fraction(self) -> Fraction:
        return Fraction(self.next_int(-16, 16), self.next_int(1, 16))

    def next_vector(self, m: int) -> tuple[GaussianRational, ...]:
        return tuple(
            GaussianRational(self.next_fraction(), self.next_fraction()) for _ in range(m)
        )


def _basis_like_vectors(m: int) -> list[tuple[GaussianRational, ...]]:
    """The coordinate units e_u, i e_u, then e_i + e_u and e_i + i e_u for i < u."""
    units = coordinate_units(m)
    entries = [[unit] for unit in units]
    entries += [[(i, GR_ONE), (u, unit)] for i in range(m) for u, unit in units if u > i]
    vecs = []
    for pairs in entries:
        v = [GR_ZERO] * m
        for u, x in pairs:
            v[u] = x
        vecs.append(tuple(v))
    return vecs


def is_omega_hermitian(family: HermitianFamily, cone: ConeSpec) -> OmegaHermitianVerdict:
    """Decide (or sample-check) membership of H(w,w) in the closed cone minus zero.

    For m = 1 the check is exact over every cone: H(w, w) = |w|^2 h, so one
    ``classify_point`` of h decides it, with the witness w = (1). For purely
    polyhedral cones it is exact as well: each boundary functional pulls the
    family back to a single Hermitian matrix that must be PSD, and the
    components must have no common kernel. For m >= 2, cones with a Lorentzian
    factor are checked on a fixed sample set instead, and the verdict says so;
    sampling cannot prove the universal statement. The samples are the
    basis-like vectors and then ``_SAMPLES`` nonzero vectors drawn from
    ``_Lcg(0)``. For each, H(w, w) is summed exactly over the family's nonzero
    table and tested with ``classify_point``; a witness is the sample itself.
    """
    if family.k != cone.k:
        raise ValidationError("family and cone dimensions differ")
    if family.m == 0:
        return OmegaHermitianVerdict(VERIFIED_EXACT)
    if family.m == 1:  # H(w, w) = |w|^2 h, with h the real 1 x 1 components
        h = tuple(c[0][0].re for c in family.components)
        if any(h) and classify_point(cone, h) is not Region.OUTSIDE:
            return OmegaHermitianVerdict(VERIFIED_EXACT)
        return OmegaHermitianVerdict(COUNTEREXAMPLE, witness=(GR_ONE,))
    polyhedral = all(not isinstance(f, LorentzFactor) for f in cone.boundary)
    if polyhedral:
        m = family.m
        for factor in cone.boundary:
            for functional in factor.functionals:
                combo = [
                    [sum((h * functional[j] for j, h in family.at[u][v] if functional[j]), GR_ZERO)
                     for v in range(m)]
                    for u in range(m)
                ]
                witness = negative_direction(combo)
                if witness is not None:
                    return OmegaHermitianVerdict(COUNTEREXAMPLE, witness=witness)
        stacked = [r for rows in family.row for row in rows for r in _realified(dict(row))]
        kernel = sparse_nullspace(stacked, 2 * m)
        if kernel:  # the conjugate of a common kernel vector, with an re free column set to one
            witness = tuple(x.conjugate() for x in _complex_row(kernel[0], m))
            return OmegaHermitianVerdict(COUNTEREXAMPLE, witness=witness)
        return OmegaHermitianVerdict(VERIFIED_EXACT)
    rng = _Lcg(0)
    candidates = _basis_like_vectors(family.m)
    for _ in range(_SAMPLES):
        v = rng.next_vector(family.m)
        if any(v):
            candidates.append(v)
    for w in candidates:
        # H(w, w) is real, the family being Hermitian
        value = tuple(
            sum((w[u].conjugate() * h * w[v] for u, row in enumerate(rows) for v, h in row),
                GR_ZERO).re
            for rows in family.row
        )
        if not any(value) or classify_point(cone, value) is Region.OUTSIDE:
            return OmegaHermitianVerdict(COUNTEREXAMPLE, witness=w)
    return OmegaHermitianVerdict(VERIFIED_ON_SAMPLES, samples=len(candidates))

"""Open convex cones with their linear-automorphism Lie algebras.

A cone is described by a basis of the Lie algebra g(Omega) of its linear
automorphism group, an interior point, and an exact boundary description
(product of polyhedral and Lorentzian factors). The catalog covers the
homogeneous cones without lines in dimensions up to four, and is built from
three builders: ``orthant(k)``, ``lorentz(d)`` and ``product(*cones)``. The
orthants are omega1, omega2 and omega4, the Lorentz cones lorentz(3) and
lorentz(4) are omega3 and omega6, and omega5 is lorentz(3) x ray.

g(Omega) is a real Lie algebra, so its basis matrices are ``RealRows``: k
rows of k ``Fraction``s. ``ConeSpec`` converts int entries to ``Fraction``
and rejects any other entry type; every consumer downstream reads plain
rationals.

Custom cones are accepted with a user-supplied basis and are trusted: checking
that a given basis really spans the full automorphism algebra of the cone is
out of scope (the basis is taken as input data).
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

from .errors import ValidationError
from .frozen import Frozen
from .linalg import RealRows, _exact, sparse_nullspace, span_rank


class Region(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


class PolyhedralFactor(Frozen):
    """Intersection of strict half spaces: all functionals positive."""

    functionals: tuple[tuple[Fraction, ...], ...]

    def classify(self, x: Sequence[Fraction]) -> Region:
        strict = True
        for f in self.functionals:
            v = sum(a * b for a, b in zip(f, x))
            if v < 0:
                return Region.OUTSIDE
            if v == 0:
                strict = False
        return Region.INTERIOR if strict else Region.BOUNDARY

    def shifted(self, offset: int, k: int) -> "PolyhedralFactor":
        """This factor on coordinates ``offset``, ``offset + 1``, ... of R^k."""
        pad = (Fraction(0),)
        return PolyhedralFactor(
            tuple(pad * offset + f + pad * (k - offset - len(f)) for f in self.functionals)
        )


class LorentzFactor(Frozen):
    """x[c0]^2 - sum of squares over the other coords positive, x[c0] positive."""

    coords: tuple[int, ...]

    def classify(self, x: Sequence[Fraction]) -> Region:
        head = x[self.coords[0]]
        q = head * head
        for c in self.coords[1:]:
            q -= x[c] * x[c]
        if q < 0 or head < 0:
            return Region.OUTSIDE
        if q > 0 and head > 0:
            return Region.INTERIOR
        return Region.BOUNDARY

    def shifted(self, offset: int, k: int) -> "LorentzFactor":
        """This factor on coordinates ``offset``, ``offset + 1``, ... of R^k."""
        return LorentzFactor(tuple(c + offset for c in self.coords))


BoundaryFactor = Union[PolyhedralFactor, LorentzFactor]


def _frac_vec(v: Sequence[Union[int, Fraction]]) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in v)


def _real_rows(m: Sequence[Sequence[Union[int, Fraction]]], k: int) -> RealRows:
    """``m`` as k rows of k ``Fraction``s; an entry that is not an int or a Fraction is rejected."""
    if len(m) != k or any(len(row) != k for row in m):
        raise ValidationError("g_basis matrices must be k x k")
    if any(isinstance(x, bool) or not isinstance(x, (int, Fraction)) for row in m for x in row):
        raise ValidationError("g_basis entries must be rationals")
    return tuple(tuple(Fraction(x) for x in row) for row in m)


class ConeSpec(Frozen):
    """A cone and a basis of g(Omega), validated on construction.

    Construction also sets two attributes that are not fields.
    ``annihilators`` holds the functionals on vectorized k x k matrices
    whose common kernel is the span of ``g_basis``, one basis of the kernel
    that the validation computes. ``annihilator_terms`` holds the same
    functionals as their nonzero coefficients (j, l, x) on the entries
    (j, l), in index order and read by ``_exact``: the graded solvers'
    table.
    """

    name: str
    k: int
    g_basis: tuple[RealRows, ...]
    interior_point: tuple[Fraction, ...]
    boundary: tuple[BoundaryFactor, ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValidationError("cone dimension must be at least 1")
        if len(self.interior_point) != self.k:
            raise ValidationError("interior point has wrong length")
        # the lineality space of the closed cone is the common kernel of these rows
        normals = []
        for factor in self.boundary:
            if isinstance(factor, LorentzFactor):
                coords = factor.coords
                if len(coords) < 2 or len(set(coords) & set(range(self.k))) != len(coords):
                    raise ValidationError(
                        f"Lorentz coordinates {list(coords)} must be at least two "
                        f"distinct indices in 0..{self.k - 1}"
                    )
                normals += [[int(i == c) for i in range(self.k)] for c in coords]
            elif any(len(f) != self.k for f in factor.functionals):
                raise ValidationError(f"polyhedral functionals must have length {self.k}")
            else:
                normals += factor.functionals
        rank = span_rank(normals, self.k)
        if rank != self.k:
            raise ValidationError(f"the cone contains a line: its boundary rows have rank {rank}")
        object.__setattr__(self, "g_basis", tuple(_real_rows(m, self.k) for m in self.g_basis))
        # one elimination: the kernel of the vectorized basis has k^2 - dim vectors iff the basis
        # is independent, only traceless ones iff it spans the scalars, and is g(Omega)'s annihilators
        width = self.k * self.k
        sparse = [{i * self.k + j: x for i, row in enumerate(m) for j, x in enumerate(row) if x}
                  for m in self.g_basis]
        kernel = sparse_nullspace(sparse, width)
        if not sparse or len(kernel) != width - len(sparse):
            raise ValidationError("g_basis is linearly dependent or empty")
        if any(sum(a.get(i * self.k + i, 0) for i in range(self.k)) for a in kernel):
            raise ValidationError("g_basis must contain the scalar matrices in its span")
        zero = Fraction(0)
        object.__setattr__(
            self, "annihilators", tuple(tuple(a.get(i, zero) for i in range(width)) for a in kernel)
        )
        object.__setattr__(self, "annihilator_terms", tuple(
            tuple((*divmod(i, self.k), _exact(a[i])) for i in sorted(a)) for a in kernel
        ))
        if classify_point(self, self.interior_point) is not Region.INTERIOR:
            raise ValidationError("interior point is not interior")

    @property
    def dim_g(self) -> int:
        return len(self.g_basis)


def classify_point(cone: ConeSpec, x: Sequence[Union[int, Fraction]]) -> Region:
    """Exact location of a point relative to the closed cone.

    The cone is a product of its boundary factors, so the point is interior
    exactly when it is interior for all factors, and on the boundary when it
    lies in every closure while touching at least one factor boundary.
    """
    if len(x) != cone.k:
        raise ValidationError("point has wrong dimension")
    xx = _frac_vec(x)
    regions = [f.classify(xx) for f in cone.boundary]
    if any(r is Region.OUTSIDE for r in regions):
        return Region.OUTSIDE
    if all(r is Region.INTERIOR for r in regions):
        return Region.INTERIOR
    return Region.BOUNDARY


def in_g_omega(cone: ConeSpec, m: RealRows) -> bool:
    """Whether the real k x k matrix ``m`` lies in g(Omega)."""
    if len(m) != cone.k or any(len(row) != cone.k for row in m):
        raise ValidationError("matrix has wrong shape")
    vec = [x for row in m for x in row]
    return all(
        sum(c * x for c, x in zip(a, vec)) == 0 for a in cone.annihilators
    )


def isotropy_bound(k: int) -> Fraction:
    """Dimension cap for g(Omega) of a k-dimensional cone without lines."""
    if k < 1:
        raise ValidationError("k must be at least 1")
    return Fraction(k * k, 2) - Fraction(k, 2) + 1


def _unit(k: int, i: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(k))


def _matrix(k: int, entries: dict[tuple[int, int], Union[int, Fraction]]) -> tuple:
    """The k x k matrix with the given nonzero entries; ``ConeSpec`` makes them ``Fraction``s."""
    return tuple(tuple(entries.get((i, j), 0) for j in range(k)) for i in range(k))


def _identity(k: int) -> tuple[tuple[int, ...], ...]:
    return _matrix(k, {(i, i): 1 for i in range(k)})


def half_line() -> ConeSpec:
    """The positive ray in R^1; automorphisms are the positive scalars."""
    return orthant(1, name="ray")


def orthant(k: int, name: Optional[str] = None) -> ConeSpec:
    """Positive orthant in R^k; its automorphism algebra is the diagonal matrices."""
    return ConeSpec(
        name=name or f"orthant{k}",
        k=k,
        g_basis=tuple(_matrix(k, {(i, i): 1}) for i in range(k)),
        interior_point=tuple(Fraction(1) for _ in range(k)),
        boundary=(PolyhedralFactor(tuple(_unit(k, i) for i in range(k))),),
    )


def lorentz(d: int, name: Optional[str] = None) -> ConeSpec:
    """The d-dimensional Lorentz cone; its algebra is the scalars plus so(1, d-1).

    Basis order: the identity, the boosts (0, j), then the rotations (i, j)
    with i < j.
    """
    gens = [_identity(d)]
    gens += [_matrix(d, {(0, j): 1, (j, 0): 1}) for j in range(1, d)]
    gens += [_matrix(d, {(i, j): 1, (j, i): -1}) for i in range(1, d) for j in range(i + 1, d)]
    return ConeSpec(
        name=name or f"lorentz{d}",
        k=d,
        g_basis=tuple(gens),
        interior_point=_unit(d, 0),
        boundary=(LorentzFactor(tuple(range(d))),),
    )


def product(*cones: ConeSpec, name: Optional[str] = None) -> ConeSpec:
    """The product cone; its algebra is the direct sum of the factors' algebras.

    The basis is block-diagonal in factor order, the interior points are
    concatenated, and each factor's boundary keeps its order on the factor's
    shifted coordinates. The default name joins the factor names with "x".
    """
    k = sum(c.k for c in cones)
    gens, interior, boundary = [], [], []
    offset = 0
    for c in cones:
        gens += [
            _matrix(k, {
                (offset + i, offset + j): x for i, row in enumerate(m) for j, x in enumerate(row) if x
            })
            for m in c.g_basis
        ]
        interior += c.interior_point
        boundary += [f.shifted(offset, k) for f in c.boundary]
        offset += c.k
    return ConeSpec(
        name=name or "x".join(c.name for c in cones),
        k=k,
        g_basis=tuple(gens),
        interior_point=tuple(interior),
        boundary=tuple(boundary),
    )


# the ray is built once like the catalog cones, for the balls, but is not a catalog id
_CATALOG = {
    "omega1": lambda: orthant(2, name="omega1"),
    "omega2": lambda: orthant(3, name="omega2"),
    "omega3": lambda: lorentz(3, name="omega3"),
    "omega4": lambda: orthant(4, name="omega4"),
    "omega5": lambda: product(catalog_cone("omega3"), _built_catalog_cone("ray"), name="omega5"),
    "omega6": lambda: lorentz(4, name="omega6"),
    "ray": half_line,
}

CATALOG_IDS = tuple(sorted(set(_CATALOG) - {"ray"}))


def catalog_cone(cone_id: str) -> ConeSpec:
    key = cone_id.strip().lower()
    if key not in CATALOG_IDS:
        raise ValidationError(
            f"unknown catalog cone {cone_id!r}; expected one of {', '.join(CATALOG_IDS)}"
        )
    return _built_catalog_cone(key)


@lru_cache(maxsize=None)
def _built_catalog_cone(key: str) -> ConeSpec:
    """Each catalog cone, and the ray, is built and validated once; cones are immutable."""
    return _CATALOG[key]()

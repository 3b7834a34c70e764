"""Graded components of the automorphism algebra of a Siegel domain.

The automorphism algebra of S(Omega, H) splits into five eigenspaces of the
Euler field, with weights -1, -1/2, 0, 1/2, 1. The weight -1 and -1/2 pieces
are free (dimensions k and 2(n-k)); the other three are cut out by linear
conditions on matrix and bilinear-form coefficients:

* weight 0: pairs (A, B) with A in g(Omega) and A H(w,w') = H(Bw,w') + H(w,Bw')
  for all w, w' (B is "associated" to A);
* weight 1/2: a C-linear map Phi and a symmetric C-bilinear c, with the map
  x -> Im H(w0, Phi x) landing in g(Omega) for every w0 and a compatibility
  identity linking c to Phi;
* weight 1: a symmetric real bilinear a and a C-bilinear b subject to cone
  membership, association, a trace-reality condition, and a three-argument
  symmetry identity.

All universally quantified conditions here are polynomial of known multidegree
in the quantified vectors, so instantiating at coordinate vectors (and their
i-multiples) plus coefficient matching is exact, never a sampling argument.
Unknowns are realified (a complex unknown is its ordered pair of real parts);
each solver assembles one rational linear system and reads the answer off an
exact nullspace. Bases are therefore reproducible byte for byte.

Column order: a solver takes its unknowns from one ``_Layout`` as blocks, in
the order it declares them. Each block is row-major, and a complex entry takes
its real and imaginary parts in adjacent columns, real first. The order fixes
which unknowns are free in the nullspace, and with it every basis vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Sequence

from .cones import ConeSpec
from .errors import ValidationError
from .hermitian import HermitianFamily, validate
from .linalg import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Matrix,
    Scalar,
    coordinate_vectors,
    sparse_nullspace,
)


@dataclass(frozen=True)
class SiegelDomainSpec:
    """The pair (cone, Hermitian family) plus the dimensions (n, k)."""

    n: int
    k: int
    cone: ConeSpec
    form: HermitianFamily

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n:
            raise ValidationError("need 1 <= k <= n")
        if self.cone.k != self.k:
            raise ValidationError("cone dimension must equal k")
        if self.form.k != self.k or self.form.m != self.n - self.k:
            raise ValidationError("Hermitian family must have k components on C^(n-k)")
        bad = validate(self.form)
        if bad:
            where = ", ".join(f"component {v.component} at {v.position}" for v in bad)
            raise ValidationError(f"family is not Hermitian: {where}")

    @property
    def m(self) -> int:
        return self.n - self.k


# ---------------------------------------------------------------------------
# linear expressions in real unknowns

class _Lin:
    """Complex-linear expression in real unknowns: ``{unknown index: nonzero coefficient}``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, GaussianRational] | None = None) -> None:
        self.coeffs = {} if coeffs is None else coeffs

    def __add__(self, other: "_Lin") -> "_Lin":
        out = dict(self.coeffs)
        for j, b in other.coeffs.items():
            a = out.get(j)
            if a is None:
                out[j] = b
            else:
                total = a + b
                if total.is_zero():
                    del out[j]
                else:
                    out[j] = total
        return _Lin(out)

    def __sub__(self, other: "_Lin") -> "_Lin":
        return self + _Lin({j: -a for j, a in other.coeffs.items()})

    def scaled(self, c: Scalar) -> "_Lin":
        cc = GaussianRational.of(c)
        if cc.is_zero():
            return _Lin()
        return _Lin({j: a * cc for j, a in self.coeffs.items()})

    def conj(self) -> "_Lin":
        # valid because the unknowns are real
        return _Lin({j: a.conjugate() for j, a in self.coeffs.items()})

    def im_part(self) -> "_Lin":
        return _Lin({j: GaussianRational(a.im, Fraction(0)) for j, a in self.coeffs.items() if a.im})


class _System:
    """Homogeneous real linear system, collected as sparse rows ``{unknown: Fraction}``."""

    def __init__(self, nunknowns: int) -> None:
        self.n = nunknowns
        self.rows: list[dict[int, Fraction]] = []

    def require_zero(self, expr: _Lin) -> None:
        self.require_real_zero(expr)
        self._add_row({j: c.im for j, c in expr.coeffs.items() if c.im})

    def require_real_zero(self, expr: _Lin) -> None:
        self._add_row({j: c.re for j, c in expr.coeffs.items() if c.re})

    def _add_row(self, row: dict[int, Fraction]) -> None:
        if row:
            self.rows.append(row)

    def solutions(self) -> list[list[Fraction]]:
        """Nullspace basis, one vector per free unknown in index order."""
        return sparse_nullspace(self.rows, self.n, Fraction(1))


class _Block:
    """A row-major array of unknowns in consecutive columns from ``start``.

    ``width`` is 1 for real entries and 2 for complex ones, whose (re, im)
    parts sit in adjacent columns.
    """

    __slots__ = ("start", "shape", "width", "stop", "_lins")

    def __init__(self, start: int, shape: tuple[int, ...], width: int) -> None:
        self.start, self.shape, self.width = start, shape, width
        # built once and shared: no _Lin operation mutates its operands
        self._lins = {}
        for flat, index in enumerate(product(*map(range, shape))):
            col = start + width * flat
            self._lins[index] = _Lin({col: GR_ONE} if width == 1 else {col: GR_ONE, col + 1: GR_I})
        self.stop = start + width * len(self._lins)

    def __getitem__(self, index: int | tuple[int, ...]) -> _Lin:
        return self._lins[index if isinstance(index, tuple) else (index,)]

    def values(self, sol: Sequence[Fraction]):
        """The entries in a solution vector, as nested tuples of Gaussian rationals."""
        w, zero = self.width, Fraction(0)

        def read(axis: int, flat: int):
            d = self.shape[axis]
            if axis + 1 < len(self.shape):
                return tuple(read(axis + 1, flat * d + i) for i in range(d))
            col = self.start + w * flat * d
            return tuple(
                GaussianRational(sol[c], sol[c + 1] if w == 2 else zero)
                for c in range(col, col + w * d, w)
            )

        return read(0, 0)


class _Layout:
    """Hands out blocks of unknowns in declaration order; ``n`` counts the columns so far."""

    def __init__(self) -> None:
        self.n = 0

    def real(self, *shape: int) -> _Block:
        return self._block(shape, 1)

    def complex(self, *shape: int) -> _Block:
        return self._block(shape, 2)

    def _block(self, shape: tuple[int, ...], width: int) -> _Block:
        block = _Block(self.n, shape, width)
        self.n = block.stop
        return block


def _sym_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


# ---------------------------------------------------------------------------
# solution containers

@dataclass(frozen=True)
class SymBilinear:
    """Symmetric bilinear form coefficients, packed over index pairs i <= j.

    The quadratic evaluation uses the doubled off-diagonal convention:
    value_l(u, u) = sum_i c[l,ii] u_i^2 + 2 sum_{i<j} c[l,ij] u_i u_j.
    """

    out_dim: int
    in_dim: int
    coeffs: tuple[tuple[GaussianRational, ...], ...]

    def coefficient(self, l: int, i: int, j: int) -> GaussianRational:
        if i > j:
            i, j = j, i
        return self.coeffs[l][_sym_pairs(self.in_dim).index((i, j))]

    def apply(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> tuple[GaussianRational, ...]:
        uu = [GaussianRational.of(x) for x in u]
        vv = [GaussianRational.of(x) for x in v]
        out = []
        for l in range(self.out_dim):
            acc = GR_ZERO
            for idx, (i, j) in enumerate(_sym_pairs(self.in_dim)):
                c = self.coeffs[l][idx]
                if i == j:
                    acc = acc + c * uu[i] * vv[i]
                else:
                    acc = acc + c * (uu[i] * vv[j] + uu[j] * vv[i])
            out.append(acc)
        return tuple(out)

    def quad(self, u: Sequence[Scalar]) -> tuple[GaussianRational, ...]:
        return self.apply(u, u)

    def is_zero(self) -> bool:
        return all(c.is_zero() for row in self.coeffs for c in row)


@dataclass(frozen=True)
class Bilinear:
    """Plain bilinear coefficients value_l = sum_{i,j} c[l][i][j] u_i v_j."""

    out_dim: int
    left_dim: int
    right_dim: int
    coeffs: tuple[tuple[tuple[GaussianRational, ...], ...], ...]

    def coefficient(self, l: int, i: int, j: int) -> GaussianRational:
        return self.coeffs[l][i][j]

    def apply(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> tuple[GaussianRational, ...]:
        uu = [GaussianRational.of(x) for x in u]
        vv = [GaussianRational.of(x) for x in v]
        out = []
        for l in range(self.out_dim):
            acc = GR_ZERO
            for i in range(self.left_dim):
                for j in range(self.right_dim):
                    acc = acc + self.coeffs[l][i][j] * uu[i] * vv[j]
            out.append(acc)
        return tuple(out)

    def is_zero(self) -> bool:
        return all(c.is_zero() for plane in self.coeffs for row in plane for c in row)


@dataclass(frozen=True)
class G0Solution:
    basis: tuple[tuple[Matrix, Matrix], ...]
    dim: int


@dataclass(frozen=True)
class LSolution:
    basis: tuple[Matrix, ...]
    s: int


@dataclass(frozen=True)
class GHalfElement:
    phi: Matrix          # m x k, the C-linear map on the z-block
    c: SymBilinear       # symmetric C-bilinear on the w-block


@dataclass(frozen=True)
class GHalfSolution:
    basis: tuple[GHalfElement, ...]
    dim: int


@dataclass(frozen=True)
class GOneElement:
    a: SymBilinear       # symmetric real bilinear on the z-block
    b: Bilinear          # C-bilinear mixing z and w


@dataclass(frozen=True)
class GOneSolution:
    basis: tuple[GOneElement, ...]
    dim: int


@dataclass(frozen=True)
class GradedDims:
    d_m1: int
    d_mhalf: int
    d_0: int
    d_half: int
    d_1: int
    total: int

    def as_dict(self) -> dict:
        return {
            "g_m1": self.d_m1,
            "g_mhalf": self.d_mhalf,
            "g_0": self.d_0,
            "g_half": self.d_half,
            "g_1": self.d_1,
            "total": self.total,
        }


# ---------------------------------------------------------------------------
# shared constraint: B associated to A

def _emit_association(
    system: _System,
    components: Sequence[Matrix],
    a_rows: list[list[_Lin]],
    b_entries: _Block | dict[tuple[int, int], _Lin],
    m: int,
) -> None:
    """Rows for sum_l A[j][l] H_l = B^* H_j + H_j B for every j; ``b_entries[t, u]`` is B[t][u]."""
    k = len(components)
    for j in range(k):
        hj = components[j]
        for u in range(m):
            for v in range(m):
                lhs = _Lin()
                for l in range(k):
                    coeff = components[l].entry(u, v)
                    if not coeff.is_zero():
                        lhs = lhs + a_rows[j][l].scaled(coeff)
                rhs = _Lin()
                for t in range(m):
                    c1 = hj.entry(t, v)
                    if not c1.is_zero():
                        rhs = rhs + b_entries[t, u].conj().scaled(c1)
                    c2 = hj.entry(u, t)
                    if not c2.is_zero():
                        rhs = rhs + b_entries[t, v].scaled(c2)
                system.require_zero(lhs - rhs)


def _annihilator_rows(
    system: _System, cone: ConeSpec, entry_grid: list[list[_Lin]]
) -> None:
    """Rows forcing a real k x k expression matrix into g(Omega)."""
    k = cone.k
    for functional in cone.annihilators:
        acc = _Lin()
        for j in range(k):
            for l in range(k):
                coeff = functional[j * k + l]
                if coeff != 0:
                    acc = acc + entry_grid[j][l].scaled(coeff)
        system.require_real_zero(acc)


# ---------------------------------------------------------------------------
# solvers

@lru_cache(maxsize=None)
def solve_g0(spec: SiegelDomainSpec) -> G0Solution:
    """Pairs (A, B): A in g(Omega) with B associated to A.

    A is parametrized in cone coordinates, which builds the cone membership
    into the unknowns; the association identity is matched entry by entry.
    All solvers cache on the (immutable) domain, so repeated analyses of one
    domain cost one solve.
    """
    k, m = spec.k, spec.m
    gbasis = spec.cone.g_basis
    layout = _Layout()
    coords = layout.real(len(gbasis))
    b = layout.complex(m, m)
    system = _System(layout.n)

    a_rows = [
        [
            sum((coords[p].scaled(g.entry(j, l)) for p, g in enumerate(gbasis)), _Lin())
            for l in range(k)
        ]
        for j in range(k)
    ]
    _emit_association(system, spec.form.components, a_rows, b, m)

    basis = []
    for sol in system.solutions():
        a_mat = Matrix.zeros(k, k)
        for g, x in zip(gbasis, coords.values(sol)):
            a_mat = a_mat + g.scale(x)
        basis.append((a_mat, Matrix.from_rows(b.values(sol))))
    return G0Solution(tuple(basis), len(basis))


@lru_cache(maxsize=None)
def solve_L(spec: SiegelDomainSpec) -> LSolution:
    """Matrices skew-Hermitian with respect to every component of the family."""
    k, m = spec.k, spec.m
    layout = _Layout()
    b = layout.complex(m, m)
    system = _System(layout.n)
    a_rows = [[_Lin() for _ in range(k)] for _ in range(k)]
    _emit_association(system, spec.form.components, a_rows, b, m)
    basis = tuple(Matrix.from_rows(b.values(sol)) for sol in system.solutions())
    return LSolution(basis, len(basis))


@lru_cache(maxsize=None)
def solve_g_half(spec: SiegelDomainSpec) -> GHalfSolution:
    """The weight-1/2 component: pairs (Phi, c).

    Membership of the induced real maps is instantiated at coordinate vectors
    and their i-multiples (the dependence is real-linear); the compatibility
    identity between c and Phi is matched on monomial coefficients, which is
    exact because both sides are polynomial in conj(w) and w' only.
    """
    k, m = spec.k, spec.m
    if m == 0:
        return GHalfSolution((), 0)
    components = spec.form.components
    pairs = _sym_pairs(m)
    pair_index = {p: idx for idx, p in enumerate(pairs)}
    layout = _Layout()
    phi = layout.complex(m, k)
    c = layout.complex(m, len(pairs))
    system = _System(layout.n)

    # cone membership of [x -> Im H(w0, Phi x)] for w0 in the coordinate set
    for w0 in coordinate_vectors(m):
        grid = []
        for j in range(k):
            row = []
            for l in range(k):
                acc = _Lin()
                for v in range(m):
                    wc = w0[v].conjugate()
                    if wc.is_zero():
                        continue
                    for vp in range(m):
                        coeff = wc * components[j].entry(v, vp)
                        if not coeff.is_zero():
                            acc = acc + phi[vp, l].scaled(coeff)
                row.append(acc.im_part())
            grid.append(row)
        _annihilator_rows(system, spec.cone, grid)

    # compatibility of c with Phi: match coefficients of conj(w)_u w'_i w'_j
    two_i = GR_I + GR_I
    for j in range(k):
        hj = components[j]
        phibar_h = [
            [
                sum(
                    (phi[v, t].conj().scaled(hj.entry(v, l)) for v in range(m)),
                    _Lin(),
                )
                for l in range(m)
            ]
            for t in range(k)
        ]
        for u in range(m):
            for (i, jp) in pairs:
                mult = 1 if i == jp else 2
                lhs = _Lin()
                for l in range(m):
                    coeff = hj.entry(u, l)
                    if not coeff.is_zero():
                        lhs = lhs + c[l, pair_index[(i, jp)]].scaled(coeff * mult)
                rhs = _Lin()
                for t in range(k):
                    ht = components[t]
                    c1 = ht.entry(u, i)
                    if not c1.is_zero():
                        rhs = rhs + phibar_h[t][jp].scaled(c1)
                    if i != jp:
                        c2 = ht.entry(u, jp)
                        if not c2.is_zero():
                            rhs = rhs + phibar_h[t][i].scaled(c2)
                system.require_zero(lhs - rhs.scaled(two_i))

    basis = tuple(
        GHalfElement(Matrix.from_rows(phi.values(sol)), SymBilinear(m, m, c.values(sol)))
        for sol in system.solutions()
    )
    return GHalfSolution(basis, len(basis))


@lru_cache(maxsize=None)
def solve_g1(spec: SiegelDomainSpec) -> GOneSolution:
    """The weight-1 component: pairs (a, b).

    Four condition families: cone membership of x -> a(x0, x); association of
    the half-coefficient maps w -> b(x0, w)/2; reality of their traces; cone
    membership of the mixed maps built from b; and the three-argument symmetry
    identity, matched on monomial coefficients.
    """
    k, m = spec.k, spec.m
    components = spec.form.components
    spairs = _sym_pairs(k)
    spair_index = {p: idx for idx, p in enumerate(spairs)}
    layout = _Layout()
    a = layout.real(k, len(spairs))
    b = layout.complex(m, k, m)
    system = _System(layout.n)

    def a_lin(l: int, i: int, j: int) -> _Lin:
        return a[l, spair_index[(min(i, j), max(i, j))]]

    half = Fraction(1, 2)
    for t in range(k):
        # membership of x -> a(e_t, x)
        grid = [[a_lin(l, t, j) for j in range(k)] for l in range(k)]
        _annihilator_rows(system, spec.cone, grid)
        if m:
            # association of w -> b(e_t, w)/2 to a(e_t, .)
            a_rows = [[a_lin(j, t, l) for l in range(k)] for j in range(k)]
            b_entries = {(lp, p): b[lp, t, p].scaled(half) for lp in range(m) for p in range(m)}
            _emit_association(system, components, a_rows, b_entries, m)
            # reality of the trace
            trace = _Lin()
            for l in range(m):
                trace = trace + b[l, t, l]
            system.require_real_zero(trace.im_part())

    if m:
        # membership of x -> Im H(w1, b(x, w0)) for coordinate pairs (w0, w1)
        vectors = coordinate_vectors(m)
        for w0 in vectors:
            for w1 in vectors:
                grid = []
                for j in range(k):
                    row = []
                    for t in range(k):
                        acc = _Lin()
                        for v in range(m):
                            wc = w1[v].conjugate()
                            if wc.is_zero():
                                continue
                            for l in range(m):
                                coeff = wc * components[j].entry(v, l)
                                if coeff.is_zero():
                                    continue
                                for p in range(m):
                                    if not w0[p].is_zero():
                                        acc = acc + b[l, t, p].scaled(coeff * w0[p])
                        row.append(acc.im_part())
                    grid.append(row)
                _annihilator_rows(system, spec.cone, grid)

        # three-argument symmetry, matched on conj(w)_u conj(w')_v w''_i w''_j
        wpairs = _sym_pairs(m)
        for j in range(k):
            hj = components[j]
            for u in range(m):
                for v in range(m):
                    for (i, jp) in wpairs:
                        lhs = _Lin()
                        for l in range(m):
                            cjl = hj.entry(u, l)
                            if cjl.is_zero():
                                continue
                            for t in range(k):
                                ht = components[t]
                                c1 = ht.entry(v, i)
                                if not c1.is_zero():
                                    lhs = lhs + b[l, t, jp].scaled(cjl * c1)
                                if i != jp:
                                    c2 = ht.entry(v, jp)
                                    if not c2.is_zero():
                                        lhs = lhs + b[l, t, i].scaled(cjl * c2)
                        rhs = _Lin()
                        for l in range(m):
                            for t in range(k):
                                ht = components[t]
                                c1 = ht.entry(u, i) * hj.entry(l, jp)
                                if not c1.is_zero():
                                    rhs = rhs + b[l, t, v].conj().scaled(c1)
                                if i != jp:
                                    c2 = ht.entry(u, jp) * hj.entry(l, i)
                                    if not c2.is_zero():
                                        rhs = rhs + b[l, t, v].conj().scaled(c2)
                        system.require_zero(lhs - rhs)

    basis = tuple(
        GOneElement(SymBilinear(k, k, a.values(sol)), Bilinear(m, k, m, b.values(sol)))
        for sol in system.solutions()
    )
    return GOneSolution(basis, len(basis))


@dataclass(frozen=True)
class GradedSolutions:
    g0: G0Solution
    skew: LSolution
    g_half: GHalfSolution
    g_one: GOneSolution
    dims: GradedDims


def graded_dims(spec: SiegelDomainSpec) -> GradedDims:
    return solve_all(spec).dims


def solve_all(spec: SiegelDomainSpec) -> GradedSolutions:
    g0 = solve_g0(spec)
    skew = solve_L(spec)
    g_half = solve_g_half(spec)
    g_one = solve_g1(spec)
    d_m1 = spec.k
    d_mhalf = 2 * spec.m
    dims = GradedDims(
        d_m1,
        d_mhalf,
        g0.dim,
        g_half.dim,
        g_one.dim,
        d_m1 + d_mhalf + g0.dim + g_half.dim + g_one.dim,
    )
    return GradedSolutions(g0, skew, g_half, g_one, dims)

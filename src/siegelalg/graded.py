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
exact nullspace. Bases are therefore reproducible byte for byte. L, the matrices
associated to A = 0, is the kernel of (A, B) -> A on g_0, so ``solve_L`` reads
s = dim L off the weight-0 basis, and only g_0 and g_1 assemble the association.

Column order: a solver takes its unknowns from its ``_System`` as blocks, in
the order it declares them. Each block is row-major, and a complex entry takes
its real and imaginary parts in adjacent columns, real first. The order fixes
which unknowns are free in the nullspace, and with it every basis vector.

Work in proportion to the nonzeros: each solver tables the nonzero entries of
H_1..H_k once (``_Nonzeros``), and every sum over an index of some H_j runs
over that table instead of testing each entry. A coordinate vector is read as
its one nonzero entry (``coordinate_units``).

Each identity is accumulated once, into one ``_Lin``: ``expr.add(x, *factors)``
adds the product of the factors times ``x`` to ``expr`` in place. The factors
are folded in one pass that stops at a zero factor. A unit factor (1 or -1,
also as a ``GaussianRational`` with zero imaginary part) costs no
multiplication, so a product of units copies or negates ``x``'s entries. Only
the accumulator changes: a block's entries are shared by every identity that
reads them, so ``add`` never modifies its argument.

Rows hold exact nonzero ``int``s where the inputs are integral and
``Fraction``s otherwise: the unknowns carry the unit ``1``, and each solver
reads its inputs (H's entries, the cone's basis and annihilators, the
coordinate units) through ``_exact``, which turns a rational with denominator 1
into an ``int``. So the rows of a Gaussian-integer H over an integer cone reach
``sparse_rref`` integral, as its kernel works. No ``int`` leaves the assembly:
``sparse_rref`` builds every result entry as a ``Fraction``. The g1 association
is assembled for w -> b(e_t, w) and 2 a(e_t, .), rather than for b/2 and a: the
rows are scaled by 2, so the row space and the bases are the same.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Sequence

from .cones import ConeSpec
from .errors import ValidationError
from .frozen import Frozen
from .hermitian import HermitianFamily, validate
from .linalg import (
    GR_ZERO,
    Exact,
    GaussianRational,
    Matrix,
    RealRows,
    Scalar,
    _exact,
    coordinate_units,
    sparse_nullspace,
    sparse_rref,
)


class SiegelDomainSpec(Frozen):
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
    """Complex-linear expression in real unknowns, as two real sparse rows.

    ``re`` and ``im`` map an unknown's column to the real and imaginary parts
    of its coefficient. Entries that cancel may stay behind as zeros.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: dict[int, Exact] | None = None,
                 im: dict[int, Exact] | None = None) -> None:
        self.re = {} if re is None else re
        self.im = {} if im is None else im

    def add(self, other: "_Lin", *factors: Scalar) -> None:
        """Add (product of ``factors``) * ``other`` to ``self``; ``other`` is not changed."""
        # the product cr + i*ci stays the int 1 or -1 while every factor is a unit
        cr, ci = 1, 0
        for f in factors:
            if f.__class__ is GaussianRational:
                if f.im:
                    if ci:
                        cr, ci = cr * f.re - ci * f.im, cr * f.im + ci * f.re
                    else:
                        cr, ci = cr * f.re, cr * f.im
                    continue
                f = f.re
            if f == 1:
                continue
            if f == -1:
                cr, ci = -cr, -ci
            elif not f:
                return
            else:
                cr, ci = cr * f, ci * f if ci else 0
        if cr:
            _axpy(self.re, cr, other.re)
            _axpy(self.im, cr, other.im)
        if ci:
            _axpy(self.im, ci, other.re)
            _axpy(self.re, -ci, other.im)

    def conj(self) -> "_Lin":
        # valid because the unknowns are real
        return _Lin(dict(self.re), {j: -c for j, c in self.im.items()})


def _axpy(row: dict[int, Exact], c: Exact, other: dict[int, Exact]) -> None:
    """``row += c * other``; for c = 1 or -1 the entries of ``other`` are copied or negated."""
    for j, x in other.items():
        if c != 1:
            x = -x if c == -1 else c * x
        y = row.get(j)
        row[j] = x if y is None else y + x


class _System:
    """Homogeneous real linear system, collected as sparse rows ``{unknown: int or Fraction}``.

    ``real`` and ``complex`` hand out blocks of unknowns in declaration order;
    ``n`` counts the columns so far.
    """

    def __init__(self) -> None:
        self.n = 0
        self.rows: list[dict[int, Exact]] = []

    def real(self, *shape: int) -> _Block:
        return self._block(shape, 1)

    def complex(self, *shape: int) -> _Block:
        return self._block(shape, 2)

    def _block(self, shape: tuple[int, ...], width: int) -> _Block:
        block = _Block(self.n, shape, width)
        self.n = block.stop
        return block

    def require_zero(self, expr: _Lin) -> None:
        self.require_real_zero(expr.re)
        self.require_real_zero(expr.im)

    def require_real_zero(self, row: dict[int, Exact]) -> None:
        row = {j: c for j, c in row.items() if c}
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
        # built once and shared: _Lin.add changes only its accumulator
        self._lins = {}
        for flat, index in enumerate(product(*map(range, shape))):
            col = start + width * flat
            self._lins[index] = _Lin({col: 1}, {col + 1: 1} if width == 2 else {})
        self.stop = start + width * len(self._lins)

    def __getitem__(self, index: int | tuple[int, ...]) -> _Lin:
        return self._lins[index if isinstance(index, tuple) else (index,)]

    def values(self, sol: Sequence[Fraction]):
        """The entries in a solution vector, as nested tuples.

        A real block reads plain ``Fraction``s; a complex block reads each
        adjacent (re, im) column pair as one ``GaussianRational``, a pair of
        zeros as the shared ``GR_ZERO``.
        """
        w = self.width

        def read(axis: int, flat: int):
            d = self.shape[axis]
            if axis + 1 < len(self.shape):
                return tuple(read(axis + 1, flat * d + i) for i in range(d))
            col = self.start + w * flat * d
            if w == 1:
                return tuple(sol[col:col + d])
            return tuple(
                GaussianRational(sol[c], sol[c + 1]) if sol[c] or sol[c + 1] else GR_ZERO
                for c in range(col, col + 2 * d, 2)
            )

        return read(0, 0)


class _Nonzeros:
    """The nonzero entries of H_1..H_k, tabled once per solver call, read by ``_exact``.

    ``row[j][u]`` lists the pairs (v, H_j[u][v]) and ``col[j][v]`` the pairs
    (u, H_j[u][v]); ``at[u][v]`` lists the pairs (j, H_j[u][v]). Each H_j is
    Hermitian (``SiegelDomainSpec`` validates it), so a column is the
    conjugated row of the same index.
    """

    __slots__ = ("row", "col", "at")

    def __init__(self, form: HermitianFamily) -> None:
        m = form.m
        self.row = [
            [[(v, _exact(h)) for v, h in enumerate(hj.row(u)) if h] for u in range(m)]
            for hj in form.components
        ]
        self.col = [
            [[(u, h.conjugate()) for u, h in rows[v]] for v in range(m)] for rows in self.row
        ]
        self.at = [[[] for _ in range(m)] for _ in range(m)]
        for j, rows in enumerate(self.row):
            for u, entries in enumerate(rows):
                for v, h in entries:
                    self.at[u][v].append((j, h))


def _sym_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


# ---------------------------------------------------------------------------
# basis elements

# Coefficients c[l][i][j] of a bilinear form, value_l(u, v) = sum_{i,j} c[l][i][j] u_i v_j:
# ``Fraction``s for a real form (``a`` of g1), ``GaussianRational``s for a complex one.
Tensor = tuple[tuple[tuple[Scalar, ...], ...], ...]


def _symmetric(packed: tuple[tuple[Scalar, ...], ...], n: int) -> Tensor:
    """The symmetric form whose coefficients ``packed[l]`` run over the pairs i <= j.

    Both c[l][i][j] and c[l][j][i] hold the pair's coefficient, so a sum over
    all (i, j) counts an off-diagonal coefficient twice:
    value_l(u, u) = sum_i c[l,ii] u_i^2 + 2 sum_{i<j} c[l,ij] u_i u_j.
    """
    index = {pair: idx for idx, pair in enumerate(_sym_pairs(n))}
    return tuple(
        tuple(tuple(row[index[min(i, j), max(i, j)]] for j in range(n)) for i in range(n))
        for row in packed
    )


class GradedDims(Frozen):
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
# shared constraints

def _emit_association(
    system: _System,
    nz: _Nonzeros,
    a_rows: list[list[_Lin]],
    b_entries: _Block | dict[tuple[int, int], _Lin],
    m: int,
) -> None:
    """Rows for B^* H_j + H_j B = sum_l A[j][l] H_l for every j; ``b_entries[t, u]`` is B[t][u]."""
    b_bar = {(t, u): b_entries[t, u].conj() for t in range(m) for u in range(m)}
    for j, (rows, cols) in enumerate(zip(nz.row, nz.col)):
        for u in range(m):
            for v in range(m):
                expr = _Lin()
                for t, h in cols[v]:  # H_j[t][v]
                    expr.add(b_bar[t, u], h)
                for t, h in rows[u]:  # H_j[u][t]
                    expr.add(b_entries[t, v], h)
                for l, h in nz.at[u][v]:  # H_l[u][v]
                    expr.add(a_rows[j][l], h, -1)
                system.require_zero(expr)


def _annihilators(cone: ConeSpec) -> list[list[Exact]]:
    """The functionals on gl(k, R) that cut out g(Omega), tabled once per solver call."""
    return [[_exact(x) for x in functional] for functional in cone.annihilators]


def _units(m: int) -> list[tuple[int, GaussianRational]]:
    """``coordinate_units(m)``, read by ``_exact``."""
    return [(u, _exact(unit)) for u, unit in coordinate_units(m)]


def _annihilator_rows(
    system: _System, annihilators: list[list[Exact]], grid: list[list[_Lin]]
) -> None:
    """Rows forcing the real k x k matrix whose entries are the ``re`` rows of ``grid`` into g(Omega)."""
    k = len(grid)
    for functional in annihilators:
        acc = _Lin()
        for j in range(k):
            for l in range(k):
                acc.add(grid[j][l], functional[j * k + l])
        system.require_real_zero(acc.re)


def _pairing_rows(
    system: _System,
    annihilators: list[list[Exact]],
    nz: _Nonzeros,
    u: int,
    unit: GaussianRational,
    x_map: _Block | dict[tuple[int, int], _Lin],
) -> None:
    """Rows putting x -> Im H(w, X x) in g(Omega) for w = unit * e_u; ``x_map[v, l]`` is X[v][l].

    There are none when g(Omega) is all of gl(k, R) (no annihilators), as for
    the ray of every ball.
    """
    if not annihilators:
        return
    unit_bar = unit.conjugate()
    k = len(nz.row)  # one table per H_j
    grid = []
    for rows in nz.row:
        row = []
        for l in range(k):
            acc = _Lin()
            for vp, h in rows[u]:  # H_j[u][vp]
                acc.add(x_map[vp, l], unit_bar, h)
            row.append(_Lin(acc.im))  # the imaginary part, as a real expression
        grid.append(row)
    _annihilator_rows(system, annihilators, grid)


# ---------------------------------------------------------------------------
# solvers

@lru_cache(maxsize=None)
def solve_g0(spec: SiegelDomainSpec) -> tuple[tuple[RealRows, Matrix], ...]:
    """A basis of pairs (A, B): A in g(Omega) with B associated to A.

    A is real, so it is ``RealRows``; B is a complex ``Matrix``. A is
    parametrized in cone coordinates, which builds the cone membership
    into the unknowns; the association identity is matched entry by entry.
    All solvers cache on the (immutable) domain, so a repeated ``solve_all``
    of one domain costs one solve. ``catalog.verify_paper`` solves each
    domain once and reads every solution from that domain's report.
    """
    k, m = spec.k, spec.m
    gbasis = spec.cone.g_basis
    system = _System()
    coords = system.real(len(gbasis))
    b = system.complex(m, m)

    a_rows = [[_Lin() for _ in range(k)] for _ in range(k)]
    for p, g in enumerate(gbasis):
        for j in range(k):
            for l in range(k):
                a_rows[j][l].add(coords[p], _exact(g[j][l]))
    _emit_association(system, _Nonzeros(spec.form), a_rows, b, m)

    # A = sum_p x_p g_p, summed over the nonzero x_p and the nonzero entries of g_p
    g_entries = [
        [(j, l, x) for j, row in enumerate(g) for l, x in enumerate(row) if x] for g in gbasis
    ]
    basis = []
    for sol in system.solutions():
        a_mat = [[Fraction(0)] * k for _ in range(k)]
        for xp, entries in zip(coords.values(sol), g_entries):
            if xp:
                for j, l, x in entries:
                    a_mat[j][l] += xp * x
        basis.append((tuple(map(tuple, a_mat)), Matrix.from_rows(b.values(sol))))
    return tuple(basis)


def a_part_basis(g0: Sequence[tuple[RealRows, Matrix]]) -> tuple[RealRows, ...]:
    """Canonical basis of the span of the A-parts of ``g0``: the reduced rows of the vectorized
    matrices, so it does not depend on the pairing with B."""
    if not g0:
        return ()
    k = len(g0[0][0])
    rows = [{i * k + j: x for i, row in enumerate(a) for j, x in enumerate(row) if x} for a, _ in g0]
    reduced, _ = sparse_rref(rows, Fraction(1))
    zero = Fraction(0)
    return tuple(
        tuple(tuple(r.get(i * k + j, zero) for j in range(k)) for i in range(k))
        for r in reduced
    )


@lru_cache(maxsize=None)
def solve_L(spec: SiegelDomainSpec) -> int:
    """s = dim L, L = {B associated to A = 0}, the kernel of (A, B) -> A on g_0; cached only
    because the benchmark tracer reads ``cache_info()`` of every solver."""
    g0 = solve_g0(spec)
    return len(g0) - len(a_part_basis(g0))


@lru_cache(maxsize=None)
def solve_g_half(spec: SiegelDomainSpec) -> tuple[tuple[Matrix, Tensor], ...]:
    """A basis of the weight-1/2 component: pairs (Phi, c).

    Phi is the m x k C-linear map on the z-block, a ``Matrix``; c is the
    symmetric C-bilinear form on the w-block, a ``Tensor`` indexed c[l][i][j].

    Membership of the induced real maps is instantiated at coordinate vectors
    and their i-multiples (the dependence is real-linear); the compatibility
    identity between c and Phi is matched on monomial coefficients, which is
    exact because both sides are polynomial in conj(w) and w' only.
    """
    k, m = spec.k, spec.m
    if m == 0:
        return ()
    nz = _Nonzeros(spec.form)
    annihilators = _annihilators(spec.cone)
    pairs = _sym_pairs(m)
    system = _System()
    phi = system.complex(m, k)
    c = system.complex(m, len(pairs))

    # cone membership of [x -> Im H(w0, Phi x)] for w0 in the coordinate set
    for u, unit in _units(m):
        _pairing_rows(system, annihilators, nz, u, unit, phi)

    # compatibility of c with Phi: match coefficients of conj(w)_u w'_i w'_j
    minus_two_i = _exact(GaussianRational(Fraction(0), Fraction(-2)))
    phi_bar = {(v, t): phi[v, t].conj() for v in range(m) for t in range(k)}
    for rows, cols in zip(nz.row, nz.col):
        # phibar_h[t, l] = sum_v conj(Phi[v][t]) H_j[v][l]
        phibar_h = {key: _Lin() for key in product(range(k), range(m))}
        for (t, l), entry in phibar_h.items():
            for v, h in cols[l]:
                entry.add(phi_bar[v, t], h)
        for u in range(m):
            for idx, (i, jp) in enumerate(pairs):
                expr = _Lin()
                for l, h in rows[u]:  # H_j[u][l]
                    expr.add(c[l, idx], h, 1 if i == jp else 2)
                # the terms for (i, jp) and, off the diagonal, their mirror (jp, i)
                for i1, i2 in ((i, jp), (jp, i)) if i != jp else ((i, jp),):
                    for t, h in nz.at[u][i1]:  # H_t[u][i1]
                        expr.add(phibar_h[t, i2], h, minus_two_i)
                system.require_zero(expr)

    return tuple(
        (Matrix.from_rows(phi.values(sol)), _symmetric(c.values(sol), m))
        for sol in system.solutions()
    )


@lru_cache(maxsize=None)
def solve_g1(spec: SiegelDomainSpec) -> tuple[tuple[Tensor, Tensor], ...]:
    """A basis of the weight-1 component: pairs (a, b).

    a is the symmetric real bilinear form on the z-block (``Fraction``
    coefficients a[l][i][j]); b is the C-bilinear form b[l][t][p] taking z_t
    and w_p to the w-block.

    Four condition families: cone membership of x -> a(x0, x); association of
    the half-coefficient maps w -> b(x0, w)/2 to a(x0, .), assembled as that
    of b(x0, .) to 2 a(x0, .); reality of their traces; cone membership of the
    mixed maps built from b; and the three-argument symmetry identity, matched
    on monomial coefficients.
    """
    k, m = spec.k, spec.m
    nz = _Nonzeros(spec.form)
    annihilators = _annihilators(spec.cone)
    spairs = _sym_pairs(k)
    spair_index = {p: idx for idx, p in enumerate(spairs)}
    system = _System()
    a = system.real(k, len(spairs))
    b = system.complex(m, k, m)

    def a_lin(l: int, i: int, j: int) -> _Lin:
        return a[l, spair_index[(min(i, j), max(i, j))]]

    for t in range(k):
        # membership of x -> a(e_t, x)
        grid = [[a_lin(l, t, j) for j in range(k)] for l in range(k)]
        _annihilator_rows(system, annihilators, grid)
        if m:
            # association of w -> b(e_t, w)/2 to a(e_t, .), each row doubled:
            # w -> b(e_t, w) associated to 2 a(e_t, .)
            a_rows = [[_Lin() for _ in range(k)] for _ in range(k)]
            for j in range(k):
                for l in range(k):
                    a_rows[j][l].add(a_lin(j, t, l), 2)
            b_t = {(lp, p): b[lp, t, p] for lp, p in product(range(m), repeat=2)}
            _emit_association(system, nz, a_rows, b_t, m)
            # reality of the trace
            trace = _Lin()
            for l in range(m):
                trace.add(b[l, t, l])
            system.require_real_zero(trace.im)

    if m:
        # membership of x -> Im H(w1, b(x, w0)) for coordinate pairs (w0, w1)
        units = _units(m)
        for p, unit in units:
            # b_w0[l, t] = b(e_t, w0)_l for w0 = unit * e_p
            b_w0 = {key: _Lin() for key in product(range(m), range(k))}
            for (l, t), entry in b_w0.items():
                entry.add(b[l, t, p], unit)
            for u, unit1 in units:
                _pairing_rows(system, annihilators, nz, u, unit1, b_w0)

        # three-argument symmetry, matched on conj(w)_u conj(w')_v w''_i w''_j
        b_bar = {key: b[key].conj() for key in product(range(m), range(k), range(m))}
        for rows, cols in zip(nz.row, nz.col):
            for u in range(m):
                for v in range(m):
                    for (i, jp) in _sym_pairs(m):
                        expr = _Lin()
                        # the terms for (i, jp) and, off the diagonal, their mirror (jp, i)
                        for i1, i2 in ((i, jp), (jp, i)) if i != jp else ((i, jp),):
                            for l, h in rows[u]:  # H_j[u][l]
                                for t, g in nz.at[v][i1]:  # H_t[v][i1]
                                    expr.add(b[l, t, i2], h, g)
                            for t, g in nz.at[u][i1]:  # H_t[u][i1]
                                for l, h in cols[i2]:  # H_j[l][i2]
                                    expr.add(b_bar[l, t, v], g, h, -1)
                        system.require_zero(expr)

    return tuple(
        (_symmetric(a.values(sol), k), b.values(sol))
        for sol in system.solutions()
    )


class GradedSolutions(Frozen):
    """The bases of g_0, g_1/2 and g_1, and s = dim L, the skew-Hermitian part of g_0."""

    g0: tuple[tuple[RealRows, Matrix], ...]
    s: int
    g_half: tuple[tuple[Matrix, Tensor], ...]
    g_one: tuple[tuple[Tensor, Tensor], ...]
    dims: GradedDims


def graded_dims(spec: SiegelDomainSpec) -> GradedDims:
    return solve_all(spec).dims


def solve_all(spec: SiegelDomainSpec) -> GradedSolutions:
    g0 = solve_g0(spec)
    s = solve_L(spec)
    g_half = solve_g_half(spec)
    g_one = solve_g1(spec)
    d_m1 = spec.k
    d_mhalf = 2 * spec.m
    dims = GradedDims(
        d_m1,
        d_mhalf,
        len(g0),
        len(g_half),
        len(g_one),
        d_m1 + d_mhalf + len(g0) + len(g_half) + len(g_one),
    )
    return GradedSolutions(g0, s, g_half, g_one, dims)

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
Instances that only repeat the rows of others are left out. The association
identity B^* H_j + H_j B = sum_l A_jl H_l is an equation between Hermitian
matrices, so entry (v, u) is the conjugate of entry (u, v): the entries
u <= v suffice, and a diagonal entry has only a real part. In g1's mixed
membership, Im H(w1, b(x, w0)) is sesquilinear in (w1, w0), so
H(i e_u, b(x, w0)) = -H(e_u, b(x, i w0)): with w0 over both units of e_p,
w1 = e_u alone gives every row up to sign.
Unknowns are realified (a complex unknown is its ordered pair of real parts);
each solver assembles one rational linear system and reads the answer off an
exact nullspace. Bases are therefore reproducible byte for byte. L, the matrices
associated to A = 0, is the kernel of (A, B) -> A on g_0, so ``solve_L`` reads
s = dim L off the weight-0 basis, and only g_0 and g_1 assemble the association.

Column order: a solver takes its unknowns from its ``_System`` as blocks, in
the order it declares them. Each block is row-major, and a complex entry takes
its real and imaginary parts in adjacent columns, real first. A block of
symmetric forms (c of g1/2, a of g1) has one unknown per entry (l, i, j) with
i <= j, in that order, and entry (l, j, i) reads the same unknown. The order
fixes which unknowns are free in the nullspace, and with it every basis vector.

Work in proportion to the nonzeros: every sum over an index of some H_j runs
over the family's table of nonzero entries (``row``, ``col`` and ``at`` of
``HermitianFamily``, built once with the family), and every sum over a
functional over the nonzero coefficients of the cone's annihilators, tabled
once with the cone (``ConeSpec.annihilator_terms``). Neither tests each
entry. g1's three-argument identity adds each term to the row of its tuple,
so a tuple with no term has no row. A coordinate vector is read as its one
nonzero entry (``coordinate_units``). The nullspace vectors are sparse, and a
solver returns a tuple with one element per vector: one ``SparseArray`` per
part, read from the vector's present columns when the solve ends. Readers
read the present entries; ``dense()`` builds the nested tuples.

Each identity is accumulated once, into one ``_Lin``: ``expr.add(x, *factors)``
adds the product of the factors, folded into one complex coefficient, times
``x`` to ``expr`` in place; a coefficient of 1 or -1 copies or negates ``x``'s
entries. Only the accumulator changes: a block's entries are shared by every
identity that reads them, so ``add`` never modifies its argument.

Rows hold exact nonzero ``int``s where the inputs are integral and
``Fraction``s otherwise: the unknowns carry the unit ``1``, and every input
(H's entries in the family's table, the cone's basis and annihilator
table) is read through ``_exact``, which turns a rational with denominator 1
into an ``int``; ``coordinate_units`` gives its units in that form. So the
rows of a Gaussian-integer H over an integer cone reach ``sparse_rref``
integral, as its kernel works. No ``int`` leaves the assembly:
``sparse_rref`` builds every result entry as a ``Fraction``. The g1
association is assembled for w -> b(e_t, w) and 2 a(e_t, .), rather than for
b/2 and a: the rows are scaled by 2, so the row space and the bases are the
same.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import prod

from .cones import ConeSpec
from .errors import ValidationError
from .frozen import Frozen
from .hermitian import HermitianFamily
from .linalg import (
    GR_ZERO,
    Exact,
    GaussianRational,
    RealRows,
    Scalar,
    _exact,
    _int,
    coordinate_units,
    sparse_nullspace,
    sparse_rref,
)

_ZERO = Fraction(0)


class SiegelDomainSpec(Frozen):
    """The pair (cone, Hermitian family) plus the dimensions (n, k)."""

    n: int
    k: int
    cone: ConeSpec
    form: HermitianFamily

    def __post_init__(self) -> None:
        n, k = _int(self.n, "n"), _int(self.k, "k")
        if not 1 <= k <= n:
            raise ValidationError("need 1 <= k <= n")
        if self.cone.k != self.k:
            raise ValidationError("cone dimension must equal k")
        if self.form.k != self.k or self.form.m != self.n - self.k:
            raise ValidationError("Hermitian family must have k components on C^(n-k)")

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
        """Add (product of ``factors``) * ``other`` to ``self``; ``other`` is not changed.

        The factors fold into one coefficient cr + i*ci. A real factor, also a
        ``GaussianRational`` with zero imaginary part, leaves a zero ci the ``int`` 0.
        """
        cr, ci = 1, 0
        for f in factors:
            if f.__class__ is GaussianRational:
                if f.im:
                    cr, ci = cr * f.re - ci * f.im, cr * f.im + ci * f.re
                    continue
                f = f.re
            if f != 1:
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

    ``real``, ``complex`` and ``symmetric`` hand out blocks of unknowns in
    declaration order; ``n`` counts the columns so far.
    """

    def __init__(self) -> None:
        self.n = 0
        self.rows: list[dict[int, Exact]] = []

    def real(self, *shape: int) -> _Block:
        return self._block(shape, 1, None)

    def complex(self, *shape: int) -> _Block:
        return self._block(shape, 2, None)

    def symmetric(self, forms: int, n: int, width: int) -> _Block:
        """``forms`` symmetric n x n forms, one unknown per entry (l, i, j) with i <= j, in that
        order; off the diagonal it is also entry (l, j, i)."""
        return self._block((forms, n, n), width, [
            ((l * n + i) * n + j, (l * n + j) * n + i) if i < j else ((l * n + i) * n + i,)
            for l in range(forms)
            for i, j in combinations_with_replacement(range(n), 2)
        ])

    def _block(self, shape: tuple[int, ...], width: int,
               cells: list[tuple[int, ...]] | None) -> _Block:
        block = _Block(self.n, shape, width, cells)
        self.n = block.stop
        return block

    def require_zero(self, expr: _Lin) -> None:
        self.require_real_zero(expr.re)
        self.require_real_zero(expr.im)

    def require_real_zero(self, row: dict[int, Exact]) -> None:
        row = {j: c for j, c in row.items() if c}
        if row:
            self.rows.append(row)

    def solutions(self) -> list[dict[int, Fraction]]:
        """Nullspace basis, one sparse vector per free unknown in index order."""
        return sparse_nullspace(self.rows, self.n)


class _Block:
    """An array of ``shape`` whose unknowns sit in consecutive columns from ``start``.

    ``width`` is 1 for real entries and 2 for complex ones, whose (re, im)
    parts sit in adjacent columns. In a plain block (``cells`` None) each
    entry is an unknown, row-major; otherwise ``cells[u]`` lists the row-major
    indexes of the entries that the u-th unknown stands for. Indexing gives an
    entry's ``_Lin``, for assembling rows.
    """

    __slots__ = ("start", "shape", "width", "stop", "_cells", "_lins")

    def __init__(self, start: int, shape: tuple[int, ...], width: int,
                 cells: list[tuple[int, ...]] | None) -> None:
        self.start, self.shape, self.width, self._cells = start, shape, width, cells
        self.stop = start + width * (prod(shape) if cells is None else len(cells))
        indexes = list(product(*map(range, shape)))
        units = [(flat,) for flat in range(len(indexes))] if cells is None else cells
        # built once and shared: _Lin.add changes only its accumulator
        self._lins = {}
        for u, flats in enumerate(units):
            col = start + width * u
            lin = _Lin({col: 1}, {col + 1: 1} if width == 2 else {})
            for flat in flats:
                self._lins[indexes[flat]] = lin

    def __getitem__(self, index: int | tuple[int, ...]) -> _Lin:
        return self._lins[index if isinstance(index, tuple) else (index,)]

    def present(self, sol: dict[int, Fraction]) -> list[tuple[int, Scalar]]:
        """The (unknown, value) of each unknown present in the sparse solution vector ``sol``.

        A real block reads plain ``Fraction``s; a complex block reads each
        (re, im) column pair with a column present as one ``GaussianRational``.
        """
        start, stop = self.start, self.stop
        if self.width == 1:
            return [(c - start, x) for c, x in sol.items() if start <= c < stop]
        parts: dict[int, list[Fraction]] = {}
        for c, x in sol.items():
            if start <= c < stop:
                u, part = divmod(c - start, 2)
                parts.setdefault(u, [_ZERO, _ZERO])[part] = x
        return [(u, GaussianRational(re, im)) for u, (re, im) in parts.items()]

    def array(self, sol: dict[int, Fraction]) -> SparseArray:
        """The entries in a sparse solution vector, as a ``SparseArray`` of the block's shape.

        Only the present columns are read. An unknown standing for several
        entries, as in a symmetric block, sets each of them.
        """
        entries = self.present(sol)
        if self._cells is not None:
            entries = [(i, x) for u, x in entries for i in self._cells[u]]
        return SparseArray(self.shape, _ZERO if self.width == 1 else GR_ZERO, dict(entries))


class _ConeMatrix:
    """The real k x k matrix A = sum_p x_p g_p of a weight-0 solution, from its cone
    coordinates x_p in ``coords`` and the cone's basis ``g_p``: a part of g_0's basis beside B."""

    __slots__ = ("coords", "shape", "terms")

    def __init__(self, coords: _Block, gbasis: Sequence[RealRows], k: int) -> None:
        self.coords, self.shape = coords, (k, k)
        # the nonzero entries of each g_p, by row-major index
        self.terms = tuple(
            tuple((j * k + l, x) for j, row in enumerate(g) for l, x in enumerate(row) if x)
            for g in gbasis
        )

    def array(self, sol: dict[int, Fraction]) -> SparseArray:
        """A, summed over the nonzero x_p and the nonzero entries of g_p; entries that cancel
        are left out."""
        entries: dict[int, Fraction] = {}
        for p, xp in self.coords.present(sol):
            for i, x in self.terms[p]:
                entries[i] = entries.get(i, _ZERO) + xp * x
        return SparseArray(self.shape, _ZERO, {i: x for i, x in entries.items() if x})


class SparseArray:
    """An array of ``shape`` held by its present entries.

    ``entries`` maps the row-major index of each present entry to its value;
    every other entry is ``zero``, the shared ``Fraction`` 0 of a real array or
    ``GR_ZERO`` of a complex one. A solver's array holds no zero entry, so two
    arrays are equal when their shapes, zeros and entries are.
    ``serialize.json_pieces`` writes it as the nested lists of ``dense()``
    without building them.
    """

    __slots__ = ("shape", "zero", "entries")

    def __init__(self, shape: tuple[int, ...], zero: Scalar, entries: dict[int, Scalar]) -> None:
        self.shape, self.zero, self.entries = shape, zero, entries

    def indexed(self):
        """(index tuple, value) of each present entry."""
        for flat, x in self.entries.items():
            index = []
            for d in reversed(self.shape):
                flat, i = divmod(flat, d)
                index.append(i)
            yield tuple(reversed(index)), x

    def dense(self):
        """The array as nested tuples."""
        flat = [self.zero] * prod(self.shape)
        for i, x in self.entries.items():
            flat[i] = x
        for axis in range(len(self.shape) - 1, 0, -1):
            d = self.shape[axis]
            flat = [tuple(flat[g * d:g * d + d]) for g in range(prod(self.shape[:axis]))]
        return tuple(flat)

    def __eq__(self, other: object):
        if other.__class__ is not SparseArray:
            return NotImplemented
        return (self.shape, self.zero, self.entries) == (other.shape, other.zero, other.entries)

    def __hash__(self) -> int:
        return hash((self.shape, self.zero, frozenset(self.entries.items())))

    def __repr__(self) -> str:
        return f"SparseArray({self.shape!r}, {self.entries!r})"


# a solver's basis: one element per kernel vector, one array per part
Basis = tuple[tuple[SparseArray, SparseArray], ...]


def _basis(system: _System, *parts: _Block | _ConeMatrix) -> Basis:
    """One element per kernel vector of ``system``, each one ``SparseArray`` per part."""
    return tuple(tuple(part.array(sol) for part in parts) for sol in system.solutions())


# ---------------------------------------------------------------------------
# basis elements

# The ``dense()`` of a bilinear form's ``SparseArray``: its coefficients c[l][i][j], with
# value_l(u, v) = sum_{i,j} c[l][i][j] u_i v_j;
# ``Fraction``s for a real form (``a`` of g1), ``GaussianRational``s for a complex one.
# A symmetric form has c[l][i][j] = c[l][j][i]: a sum over all (i, j) counts each i != j twice.
Tensor = tuple[tuple[tuple[Scalar, ...], ...], ...]


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
    form: HermitianFamily,
    a_rows: list[list[_Lin]],
    scale: int,
    b_entries: _Block | dict[tuple[int, int], _Lin],
    m: int,
) -> None:
    """Rows for B^* H_j + H_j B = scale * sum_l A[j][l] H_l; ``b_entries[t, u]`` is B[t][u].

    Both sides are Hermitian, so entry (v, u) is the conjugate of entry (u, v):
    the rows are those of the entries u <= v, and only the real part of a
    diagonal entry (its imaginary part vanishes identically).
    """
    b_bar = {(t, u): b_entries[t, u].conj() for t in range(m) for u in range(m)}
    for j, (rows, cols) in enumerate(zip(form.row, form.col)):
        for u in range(m):
            for v in range(u, m):
                expr = _Lin()
                for t, h in cols[v]:  # H_j[t][v]
                    expr.add(b_bar[t, u], h)
                for t, h in rows[u]:  # H_j[u][t]
                    expr.add(b_entries[t, v], h)
                for l, h in form.at[u][v]:  # H_l[u][v]
                    expr.add(a_rows[j][l], h, -scale)
                if u == v:
                    system.require_real_zero(expr.re)
                else:
                    system.require_zero(expr)


def _annihilator_rows(
    system: _System,
    annihilators: Sequence[Sequence[tuple[int, int, Exact]]],
    grid: dict[tuple[int, int], _Lin],
) -> None:
    """Rows forcing the real k x k matrix whose (j, l) entry is the ``re`` row of ``grid[j, l]``
    into g(Omega)."""
    for functional in annihilators:
        acc = _Lin()
        for j, l, x in functional:
            acc.add(grid[j, l], x)
        system.require_real_zero(acc.re)


def _pairing_rows(
    system: _System,
    annihilators: Sequence[Sequence[tuple[int, int, Exact]]],
    form: HermitianFamily,
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
    grid = {}
    for j, rows in enumerate(form.row):
        for l in range(form.k):
            acc = _Lin()
            for vp, h in rows[u]:  # H_j[u][vp]
                acc.add(x_map[vp, l], unit_bar, h)
            grid[j, l] = _Lin(acc.im)  # the imaginary part, as a real expression
    _annihilator_rows(system, annihilators, grid)


# ---------------------------------------------------------------------------
# solvers

@lru_cache(maxsize=1)
def solve_g0(spec: SiegelDomainSpec) -> Basis:
    """A basis of pairs (A, B): A in g(Omega) with B associated to A.

    A is a real k x k ``SparseArray`` and B a complex m x m one. A is
    parametrized in cone coordinates, which builds the cone membership
    into the unknowns; the association identity is matched entry by entry.
    Each solver keeps the result for its last (immutable) domain only, so
    ``solve_L`` inside ``solve_all`` reads this basis without a second solve
    and no earlier domain's bases stay in memory. ``catalog.verify_paper``
    solves each domain once and reads every solution from that domain's report.
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
    _emit_association(system, spec.form, a_rows, 1, b, m)
    return _basis(system, _ConeMatrix(coords, gbasis, k), b)


def a_part_basis(g0: Basis) -> tuple[RealRows, ...]:
    """Canonical basis of the span of the A-parts of ``g0`` (``solve_g0``'s pairs (A, B)): the
    reduced rows of the vectorized matrices, so it does not depend on the pairing with B. Only
    the A-parts' present entries are read; they must be ``SparseArray``s, k x k for one k."""
    if not g0:
        return ()
    a_parts = [pair[0] if isinstance(pair, tuple) and len(pair) == 2 else None for pair in g0]
    if any(a.__class__ is not SparseArray for a in a_parts):
        raise ValidationError("g0 must hold pairs (A, B) of SparseArrays, as solve_g0 returns")
    k = a_parts[0].shape[0] if a_parts[0].shape else -1
    if any(a.shape != (k, k) for a in a_parts):
        raise ValidationError("A-parts must be square matrices of one size")
    reduced, _ = sparse_rref([a.entries for a in a_parts])
    return tuple(
        tuple(tuple(r.get(i * k + j, _ZERO) for j in range(k)) for i in range(k))
        for r in reduced
    )


@lru_cache(maxsize=1)
def solve_L(spec: SiegelDomainSpec) -> int:
    """s = dim L, L = {B associated to A = 0}, the kernel of (A, B) -> A on g_0; cached only
    because the benchmark tracer reads ``cache_info()`` of every solver."""
    g0 = solve_g0(spec)
    return len(g0) - len(a_part_basis(g0))


@lru_cache(maxsize=1)
def solve_g_half(spec: SiegelDomainSpec) -> Basis:
    """A basis of the weight-1/2 component: pairs (Phi, c).

    Phi is the m x k C-linear map on the z-block; c is the symmetric C-bilinear
    form on the w-block, an (m, m, m) array indexed [l, i, j] (its ``dense()`` is
    a ``Tensor``). Both are complex ``SparseArray``s.

    Membership of the induced real maps is instantiated at coordinate vectors
    and their i-multiples (the dependence is real-linear); the compatibility
    identity between c and Phi is matched on monomial coefficients, which is
    exact because both sides are polynomial in conj(w) and w' only.
    """
    k, m = spec.k, spec.m
    if m == 0:
        return ()
    form = spec.form
    annihilators = spec.cone.annihilator_terms
    system = _System()
    phi = system.complex(m, k)
    c = system.symmetric(m, m, 2)

    # cone membership of [x -> Im H(w0, Phi x)] for w0 in the coordinate set
    for u, unit in coordinate_units(m):
        _pairing_rows(system, annihilators, form, u, unit, phi)

    # compatibility of c with Phi: match coefficients of conj(w)_u w'_i w'_j
    minus_two_i = _exact(GaussianRational(Fraction(0), Fraction(-2)))
    phi_bar = {(v, t): phi[v, t].conj() for v in range(m) for t in range(k)}
    for rows, cols in zip(form.row, form.col):
        # phibar_h[t, l] = sum_v conj(Phi[v][t]) H_j[v][l]
        phibar_h = {key: _Lin() for key in product(range(k), range(m))}
        for (t, l), entry in phibar_h.items():
            for v, h in cols[l]:
                entry.add(phi_bar[v, t], h)
        for u in range(m):
            for i, jp in combinations_with_replacement(range(m), 2):
                expr = _Lin()
                for l, h in rows[u]:  # H_j[u][l]
                    expr.add(c[l, i, jp], h, 1 if i == jp else 2)
                # the terms for (i, jp) and, off the diagonal, their mirror (jp, i)
                for i1, i2 in ((i, jp), (jp, i)) if i != jp else ((i, jp),):
                    for t, h in form.at[u][i1]:  # H_t[u][i1]
                        expr.add(phibar_h[t, i2], h, minus_two_i)
                system.require_zero(expr)

    return _basis(system, phi, c)


@lru_cache(maxsize=1)
def solve_g1(spec: SiegelDomainSpec) -> Basis:
    """A basis of the weight-1 component: pairs (a, b).

    a is the symmetric real bilinear form on the z-block, a real (k, k, k)
    ``SparseArray`` indexed [l, i, j]; b is the C-bilinear form, a complex (m, k, m)
    one indexed [l, t, p], taking z_t and w_p to the w-block.

    Four condition families: cone membership of x -> a(x0, x); association of
    the half-coefficient maps w -> b(x0, w)/2 to a(x0, .), assembled as that
    of b(x0, .) to 2 a(x0, .); reality of their traces; cone membership of the
    mixed maps built from b; and the three-argument symmetry identity, matched
    on monomial coefficients.
    """
    k, m = spec.k, spec.m
    form = spec.form
    annihilators = spec.cone.annihilator_terms
    system = _System()
    a = system.symmetric(k, k, 1)
    b = system.complex(m, k, m)

    for t in range(k):
        # membership of x -> a(e_t, x)
        grid = {(l, j): a[l, t, j] for l, j in product(range(k), repeat=2)}
        _annihilator_rows(system, annihilators, grid)
        if m:
            # association of w -> b(e_t, w)/2 to a(e_t, .), each row doubled:
            # w -> b(e_t, w) associated to 2 a(e_t, .)
            a_t = [[a[j, t, l] for l in range(k)] for j in range(k)]
            b_t = {(lp, p): b[lp, t, p] for lp, p in product(range(m), repeat=2)}
            _emit_association(system, form, a_t, 2, b_t, m)
            # reality of the trace
            trace = _Lin()
            for l in range(m):
                trace.add(b[l, t, l])
            system.require_real_zero(trace.im)

    if m:
        # membership of x -> Im H(e_u, b(x, w0)) for w0 = unit * e_p in the coordinate set:
        # Im H(e_u, b(x, unit * e_p)) = Im H(conj(unit) * e_u, b(x, e_p))
        for p, unit in coordinate_units(m):
            b_p = {(l, t): b[l, t, p] for l, t in product(range(m), range(k))}
            for u in range(m):
                _pairing_rows(system, annihilators, form, u, unit.conjugate(), b_p)

        # three-argument symmetry, matched on conj(w)_u conj(w')_v w''_i w''_j for i <= j: each
        # term is added to the row of its tuple, where i1 and i2 are i and j in either order.
        # The rows are emitted per (u, v), not per u: with a whole u's accumulators alive, the
        # garbage collector rescanned the heap more often, and ball(48)'s g1 ran up to 1/3 longer.
        b_bar = {key: b[key].conj() for key in product(range(m), range(k), range(m))}
        at_terms = [[(i1, t, g) for i1 in range(m) for t, g in form.at[v][i1]] for v in range(m)]
        for rows, cols in zip(form.row, form.col):
            for u, v in product(range(m), repeat=2):
                exprs = defaultdict(_Lin)
                for l, h in rows[u]:  # H_j[u][l]
                    for i1, t, g in at_terms[v]:  # H_t[v][i1]
                        for i2 in range(m):
                            exprs[min(i1, i2), max(i1, i2)].add(b[l, t, i2], h, g)
                for i1, t, g in at_terms[u]:  # H_t[u][i1]
                    for i2 in range(m):
                        for l, h in cols[i2]:  # H_j[l][i2]
                            exprs[min(i1, i2), max(i1, i2)].add(b_bar[l, t, v], g, h, -1)
                for key in sorted(exprs):
                    system.require_zero(exprs[key])

    return _basis(system, a, b)


class GradedSolutions(Frozen):
    """The bases of g_0, g_1/2 and g_1 (as the solvers return them), and s = dim L, the
    skew-Hermitian part of g_0."""

    g0: Basis
    s: int
    g_half: Basis
    g_one: Basis
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

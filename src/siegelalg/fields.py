"""Polynomial vector fields realizing the graded components, with exact brackets.

Fields live on C^n with coordinates z_1..z_k, w_1..w_m; every component is a
polynomial of total degree at most two with Gaussian-rational coefficients.
The Euler field weights z by one and w by one half, and each materialized
generator is an exact eigenvector of its adjoint action.

A bracket is accumulated term by term, with no polynomial arithmetic: for each
component c, every term of y_c with exponent e > 0 in variable u, paired with
every term of x_u, adds the product of the two coefficients times e at the
monomial m_x + m_y - e_u; the same walk over x_c, with x and y swapped and the
sign flipped, subtracts Y(x_c). The walk reads each polynomial's terms as
exact (re, im) parts, the real and imaginary parts of the result accumulate
in two dicts, and a zero part costs no product. Each component is then built
once by ``Polynomial.from_parts``, already in canonical order. A zero
operand gives the zero field at once (with the summed grade).

An identity between fields is decided in exact real coordinates: ``_vanishes``
adds the fields' coefficients, each times its scalar, into one dict. It
checks each eigenvalue relation of ``check_grading`` and each antisymmetry
and Jacobi sum of ``bracket_identities_hold``, which brackets each ordered
pair once. ``check_grading`` eliminates each weight's span once and decides
whether a bracket lies in it with one reduction pass against the reduced rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import ValidationError
from .frozen import Frozen
from .graded import GradedSolutions, SiegelDomainSpec
from .linalg import GR_I, Exact, GaussianRational, _exact, coordinate_units, sparse_rref
from .poly import Polynomial

GRADES = (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1))


class PolyVectorField(Frozen):
    n: int
    components: tuple[Polynomial, ...]
    grade: Optional[Fraction] = None
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.components) != self.n:
            raise ValidationError("need one component per coordinate")
        for p in self.components:
            if p.nvars != self.n:
                raise ValidationError("component variable count mismatch")

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.components)

    def format(self, names: Sequence[str]) -> str:
        return "(" + ", ".join(p.format(names) for p in self.components) + ")"

    def __str__(self) -> str:
        return self.format(_default_names(self.n, self.n))


def _default_names(n: int, k: int) -> list[str]:
    return [f"z{i+1}" for i in range(k)] + [f"w{i+1}" for i in range(n - k)]


def euler_field(spec: SiegelDomainSpec) -> PolyVectorField:
    """z . d/dz + (1/2) w . d/dw, the grading field."""
    n, k = spec.n, spec.k
    comps = []
    for i in range(n):
        mono = tuple(int(j == i) for j in range(n))
        comps.append(Polynomial(n, ((mono, 1 if i < k else Fraction(1, 2), 0),)))
    return PolyVectorField(n, tuple(comps), Fraction(0), "euler")


def _field(n: int, terms, grade: Fraction, label: str) -> PolyVectorField:
    """The field whose ``terms`` are (component, coefficient, variable...); equal monomials add up."""
    re: list[dict] = [{} for _ in range(n)]
    im: list[dict] = [{} for _ in range(n)]
    for component, coeff, *variables in terms:
        mono = [0] * n
        for x in variables:
            mono[x] += 1
        key = tuple(mono)
        c = GaussianRational.of(coeff)
        re[component][key] = re[component].get(key, 0) + _exact(c.re)
        im[component][key] = im[component].get(key, 0) + _exact(c.im)
    return PolyVectorField(
        n, tuple(Polynomial.from_parts(n, r, i) for r, i in zip(re, im)), grade, label
    )


def materialize(spec: SiegelDomainSpec, sols: GradedSolutions) -> tuple[PolyVectorField, ...]:
    """Explicit generators for all five graded components, in weight order.

    Symmetric forms are summed over all index pairs (i, j), so an off-diagonal
    coefficient enters twice: the doubled convention of ``graded.Tensor``.
    ``sols`` whose k or m differ from ``spec``'s are refused; solutions of
    another domain of the same k and m are not caught.
    """
    n, k, m = spec.n, spec.k, spec.m
    if (sols.dims.d_m1, sols.dims.d_mhalf) != (k, 2 * m):
        raise ValidationError("solutions are not of this domain's shape")
    h_rows = spec.form.row
    two_i = GR_I + GR_I
    fields: list[PolyVectorField] = []

    # weight -1: constant translations of the z-block
    for t in range(k):
        fields.append(_field(n, [(t, 1)], Fraction(-1), f"g-1[{t}]"))

    # weight -1/2: 2i H(b, w) . d/dz + b . d/dw over the coordinate units b,
    # each nonzero only at its coordinate u
    for idx, (u, unit) in enumerate(coordinate_units(m)):
        terms = [
            (t, two_i * unit.conjugate() * h, k + l)
            for t, rows in enumerate(h_rows) for l, h in rows[u]
        ]
        terms.append((k + u, unit))
        fields.append(_field(n, terms, Fraction(-1, 2), f"g-1/2[{idx}]"))

    # weight 0: (Az) . d/dz + (Bw) . d/dw
    for idx, (a_mat, b_mat) in enumerate(sols.g0):
        terms = [(t, a_mat[t][l], l) for t in range(k) for l in range(k)]
        terms += [(k + l, b_mat[l][p], k + p) for l in range(m) for p in range(m)]
        fields.append(_field(n, terms, Fraction(0), f"g0[{idx}]"))

    # weight 1/2: 2i H(Phi(conj z), w) . d/dz + (Phi z + c(w,w)) . d/dw
    for idx, (phi, c) in enumerate(sols.g_half):
        terms = [
            (t, two_i * phi[v][i].conjugate() * h, i, k + l)
            for t, rows in enumerate(h_rows) for i in range(k) for v in range(m) for l, h in rows[v]
        ]
        terms += [(k + l, phi[l][t], t) for l in range(m) for t in range(k)]
        terms += [
            (k + l, c[l][i][j], k + i, k + j)
            for l in range(m) for i in range(m) for j in range(m)
        ]
        fields.append(_field(n, terms, Fraction(1, 2), f"g1/2[{idx}]"))

    # weight 1: a(z,z) . d/dz + b(z,w) . d/dw
    for idx, (a, b) in enumerate(sols.g_one):
        terms = [
            (l, a[l][i][j], i, j)
            for l in range(k) for i in range(k) for j in range(k)
        ]
        terms += [
            (k + l, b[l][t][p], t, k + p)
            for l in range(m) for t in range(k) for p in range(m)
        ]
        fields.append(_field(n, terms, Fraction(1), f"g1[{idx}]"))

    return tuple(fields)


def _apply(re: dict, im: dict, x: PolyVectorField, p: Polynomial, sign: int) -> None:
    """Add sign * X(p) = sign * sum_u x_u dp/du into ``re`` and ``im``, keyed by monomial.

    Both are read through their exact parts; a zero part adds nothing.
    """
    for mono, cr, ci in p.terms:
        for u, e in enumerate(mono):
            if not e:
                continue
            lowered = mono[:u] + (e - 1,) + mono[u + 1:]
            pr, pi = sign * e * cr, sign * e * ci
            for xm, xr, xi in x.components[u].terms:
                key = tuple(a + b for a, b in zip(xm, lowered))
                if xr:
                    if pr:
                        re[key] = re.get(key, 0) + xr * pr
                    if pi:
                        im[key] = im.get(key, 0) + xr * pi
                if xi:
                    if pi:
                        re[key] = re.get(key, 0) - xi * pi
                    if pr:
                        im[key] = im.get(key, 0) + xi * pr


def bracket(x: PolyVectorField, y: PolyVectorField) -> PolyVectorField:
    """Holomorphic vector-field bracket [X, Y] = X(Y) - Y(X), exact."""
    if x.n != y.n:
        raise ValidationError("fields live on different spaces")
    n = x.n
    grade = None
    if x.grade is not None and y.grade is not None:
        grade = x.grade + y.grade
        if grade not in GRADES:
            grade = None
    if x.is_zero() or y.is_zero():
        return PolyVectorField(n, (Polynomial(n, ()),) * n, grade, "")
    comps = []
    for c in range(n):
        re: dict = {}
        im: dict = {}
        _apply(re, im, x, y.components[c], 1)
        _apply(re, im, y, x.components[c], -1)
        comps.append(Polynomial.from_parts(n, re, im))
    return PolyVectorField(n, tuple(comps), grade, "")


def _real_coordinates(f: PolyVectorField) -> dict[tuple, Exact]:
    """The field as a sparse real row keyed by (component, monomial, part), with exact entries.

    Part 0 holds the real and part 1 the imaginary part of a coefficient.
    """
    row = {}
    for c, p in enumerate(f.components):
        for mono, re, im in p.terms:
            if re:
                row[c, mono, 0] = re
            if im:
                row[c, mono, 1] = im
    return row


def _vanishes(*terms: tuple[Exact, PolyVectorField]) -> bool:
    """Whether the sum of c * f over the (c, f) in ``terms``, c real, is zero in real coordinates."""
    total: dict = {}
    for c, f in terms:
        for key, x in _real_coordinates(f).items():
            total[key] = total.get(key, 0) + c * x
    return not any(total.values())


Span = list[tuple[tuple, dict[tuple, Fraction]]]


def _real_span(fields: Sequence[PolyVectorField]) -> Span:
    """The real span of ``fields`` as (pivot, reduced row) pairs; their count is its dimension."""
    reduced, pivots = sparse_rref([_real_coordinates(f) for f in fields])
    return list(zip(pivots, reduced))


def _escapes(span: Span, f: PolyVectorField) -> bool:
    """Whether ``f`` lies outside the real span whose reduced rows are ``span``.

    One pass: each reduced row is 1 at its pivot and 0 at the other pivots,
    so subtracting f's pivot entry times each row, in any order, leaves the
    part of f outside the span, which is zero exactly when f is inside.
    """
    v = _real_coordinates(f)
    for pivot, row in span:
        t = v.get(pivot)
        if t:
            for key, x in row.items():
                y = v.get(key, 0) - t * x
                if y:
                    v[key] = y
                else:
                    del v[key]
    return bool(v)


class GradingReport(Frozen):
    passed: bool
    failures: tuple[str, ...]
    eigen_checked: int
    pairs_checked: int


def check_grading(spec: SiegelDomainSpec, fields: Sequence[PolyVectorField]) -> GradingReport:
    """Verify the eigenvalue relations and bracket closure of a generator set.

    Each labeled field X of weight nu must satisfy [euler, X] = nu X exactly,
    and the bracket of two generators must land in the real span of the
    generators of the summed weight whenever that weight is one of the five;
    brackets falling outside the weight range are not checked. Each weight's
    span is eliminated once, and every bracket is reduced against it.
    """
    euler = euler_field(spec)
    failures = []
    graded = [f for f in fields if f.grade is not None]
    eigen = 0
    for f in graded:
        eigen += 1
        if not _vanishes((1, bracket(euler, f)), (-f.grade, f)):
            failures.append(f"eigenvalue relation fails for {f.label or 'unlabeled field'}")
    by_grade: dict[Fraction, list[PolyVectorField]] = {}
    for f in graded:
        by_grade.setdefault(f.grade, []).append(f)
    spans = {grade: _real_span(group) for grade, group in by_grade.items()}
    pairs = 0
    items = sorted(by_grade.items())
    for gi, (mu, group_mu) in enumerate(items):
        for nu, group_nu in items[gi:]:
            target_grade = mu + nu
            if target_grade not in GRADES:
                continue
            target = spans.get(target_grade, [])
            for f1 in group_mu:
                for f2 in group_nu:
                    if f1 is f2:
                        continue
                    pairs += 1
                    if _escapes(target, bracket(f1, f2)):
                        failures.append(
                            f"[{f1.label}, {f2.label}] escapes the weight-{target_grade} span"
                        )
    return GradingReport(not failures, tuple(failures), eigen, pairs)


def bracket_identities_hold(fields: Sequence[PolyVectorField]) -> bool:
    """Antisymmetry on every ordered pair of distinct fields and Jacobi on every triple.

    The ordered pair brackets are computed once; each Jacobi sum
    [x,[y,z]] + [y,[z,x]] + [z,[x,y]] takes its inner brackets from that table.
    Each antisymmetry and Jacobi sum is decided by ``_vanishes``.
    """
    count = len(fields)
    table = {
        (i, j): bracket(fields[i], fields[j])
        for i in range(count) for j in range(count) if i != j
    }
    for i in range(count):
        for j in range(i + 1, count):
            if not _vanishes((1, table[i, j]), (1, table[j, i])):
                return False
    for i in range(count):
        for j in range(i + 1, count):
            for l in range(j + 1, count):
                if not _vanishes(
                    (1, bracket(fields[i], table[j, l])),
                    (1, bracket(fields[j], table[l, i])),
                    (1, bracket(fields[l], table[i, j])),
                ):
                    return False
    return True

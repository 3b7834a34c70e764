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
in two dicts, and a zero part or an empty component costs nothing. Each
nonzero component is then built once by ``Polynomial.from_parts``, already
in canonical order.

Identities between fields are decided in exact real coordinates, on one
table of structure constants: ``_structure_constants`` eliminates the fields
once and writes each bracket it is given in their basis by one reduction
pass, or finds that it leaves their real span. ``check_grading`` reads each
eigenvalue relation off the weighted degrees of a field's terms, with no
bracket, and asks the table for each unordered pair of summed weight -1..1;
``bracket_identities_hold`` asks it for each ordered pair and checks closure,
antisymmetry and Jacobi on the constants.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from operator import add, mul
from typing import Iterable, Optional, Sequence

from .errors import ValidationError
from .frozen import Frozen
from .graded import GradedSolutions, SiegelDomainSpec, SparseArray
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

    Each field is built from the present entries of its basis element's
    ``SparseArray``s. Symmetric forms are summed over all index pairs (i, j),
    and hold both mirror entries, so an off-diagonal coefficient enters twice:
    the doubled convention of ``graded.Tensor``.
    ``sols`` whose k or m differ from ``spec``'s are refused, and so is an
    element that is not a pair of ``SparseArray``s of its parts' shapes with
    every entry inside; solutions of another domain of the same k and m are
    not caught.
    """
    n, k, m = spec.n, spec.k, spec.m
    if (sols.dims.d_m1, sols.dims.d_mhalf) != (k, 2 * m):
        raise ValidationError("solutions are not of this domain's shape")
    for name, basis, shapes in (("g0", sols.g0, ((k, k), (m, m))),
                                ("g_half", sols.g_half, ((m, k), (m, m, m))),
                                ("g_one", sols.g_one, ((k, k, k), (m, k, m)))):
        if not all(element.__class__ is tuple and len(element) == 2 and all(
                a.__class__ is SparseArray and a.shape == shape and a.in_bounds()
                for a, shape in zip(element, shapes)) for element in basis):
            raise ValidationError(f"{name} must hold pairs of SparseArrays of shapes {shapes[0]} "
                                  f"and {shapes[1]}, with every entry inside its shape")
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
        terms = [(t, x, l) for (t, l), x in a_mat.indexed()]
        terms += [(k + l, x, k + p) for (l, p), x in b_mat.indexed()]
        fields.append(_field(n, terms, Fraction(0), f"g0[{idx}]"))

    # weight 1/2: 2i H(Phi(conj z), w) . d/dz + (Phi z + c(w,w)) . d/dw
    for idx, (phi, c) in enumerate(sols.g_half):
        phi_entries = list(phi.indexed())
        terms = [
            (t, two_i * x.conjugate() * h, i, k + l)
            for (v, i), x in phi_entries for t, rows in enumerate(h_rows) for l, h in rows[v]
        ]
        terms += [(k + l, x, t) for (l, t), x in phi_entries]
        terms += [(k + l, x, k + i, k + j) for (l, i, j), x in c.indexed()]
        fields.append(_field(n, terms, Fraction(1, 2), f"g1/2[{idx}]"))

    # weight 1: a(z,z) . d/dz + b(z,w) . d/dw
    for idx, (a, b) in enumerate(sols.g_one):
        terms = [(l, x, i, j) for (l, i, j), x in a.indexed()]
        terms += [(k + l, x, t, k + p) for (l, t, p), x in b.indexed()]
        fields.append(_field(n, terms, Fraction(1), f"g1[{idx}]"))

    return tuple(fields)


def _apply(re: dict, im: dict, x: PolyVectorField, p: Polynomial, sign: int) -> None:
    """Add sign * X(p) = sign * sum_u x_u dp/du into ``re`` and ``im``, keyed by monomial.

    Both are read through their exact parts; a zero part adds nothing.
    """
    for mono, cr, ci in p.terms:
        for u, e in enumerate(mono):
            if not (e and (xterms := x.components[u].terms)):
                continue
            lowered = mono[:u] + (e - 1,) + mono[u + 1:]
            pr, pi = sign * e * cr, sign * e * ci
            for xm, xr, xi in xterms:
                key = tuple(map(add, xm, lowered))
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
    comps = []
    for xc, yc in zip(x.components, y.components):
        re: dict = {}
        im: dict = {}
        if yc.terms:
            _apply(re, im, x, yc, 1)
        if xc.terms:
            _apply(re, im, y, xc, -1)
        comps.append(Polynomial.from_parts(n, re, im) if re or im else Polynomial(n, ()))
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


def _reduce(span: list[tuple[tuple, dict[tuple, Exact]]], v: dict) -> dict:
    """The part of the real row ``v`` outside the span whose (pivot, reduced row) pairs are ``span``.

    One pass: each reduced row is 1 at its pivot and 0 at the other pivots,
    so subtracting v's pivot entry times each row, in any order, leaves the
    part of v outside the span, which is empty exactly when v is inside.
    """
    for pivot, row in span:
        t = v.get(pivot)
        if t:
            for key, x in row.items():
                y = v.get(key, 0) - t * x
                if y:
                    v[key] = y
                else:
                    del v[key]
    return v


class GradingReport(Frozen):
    passed: bool
    failures: tuple[str, ...]
    eigen_checked: int
    pairs_checked: int


def check_grading(spec: SiegelDomainSpec, fields: Sequence[PolyVectorField]) -> GradingReport:
    """Verify the eigenvalue relations and bracket closure of a generator set.

    Each labeled field X of weight nu must satisfy [euler, X] = nu X exactly.
    With wt weighing each variable by its Euler coefficient (z by 1, w by 1/2),
    the Euler field scales a term of component c and monomial m by
    wt(m) - wt(c), so the relation is read off the terms: each must have
    wt(m) = wt(c) + nu. Each unordered pair of generators is bracketed once.
    When the summed weight is one of the five, the bracket's constants in one
    table over all generators (``_structure_constants``) must exist and sit on
    generators of that weight; generators of distinct weights that pass their
    relations sit on disjoint real coordinates, so this is membership in the
    real span of that weight's generators. Otherwise the bracket must vanish.
    """
    # the Euler field's coefficients, doubled to integers: z weighs 2 and w 1
    weights = [int(2 * p.terms[0][1]) for p in euler_field(spec).components]
    failures = []
    graded = [f for f in fields if f.grade is not None]
    for f in graded:
        if f.n != spec.n:
            raise ValidationError("fields live on different spaces")
        shift = 2 * f.grade
        if any(
            sum(map(mul, weights, mono)) - weights[c] != shift
            for c, p in enumerate(f.components) for mono, _, _ in p.terms
        ):
            failures.append(f"eigenvalue relation fails for {f.label or 'unlabeled field'}")
    ordered = sorted(graded, key=lambda f: f.grade)
    pairs = list(combinations(range(len(ordered)), 2))
    in_range = [(i, j) for i, j in pairs if ordered[i].grade + ordered[j].grade in GRADES]
    table = _structure_constants(ordered, in_range)
    for i, j in pairs:
        f1, f2 = ordered[i], ordered[j]
        target_grade = f1.grade + f2.grade
        if target_grade not in GRADES:
            if not bracket(f1, f2).is_zero():
                failures.append(f"[{f1.label}, {f2.label}] is nonzero at weight {target_grade}")
        elif (c := table[i, j]) is None or any(ordered[p].grade != target_grade for p in c):
            failures.append(f"[{f1.label}, {f2.label}] escapes the weight-{target_grade} span")
    return GradingReport(not failures, tuple(failures), len(graded), len(pairs))


def _structure_constants(
    fields: Sequence[PolyVectorField], pairs: Iterable[tuple[int, int]]
) -> dict[tuple[int, int], Optional[dict[int, Exact]]]:
    """{(i, j): {p: c_ij^p}} with [f_i, f_j] = sum_p c_ij^p f_p, or None if the bracket escapes.

    Each of ``pairs`` is bracketed once. One elimination takes each field's
    real coordinates with -1 in a tag column (n, p), which sorts after every
    coordinate column; reducing a bracket against it leaves its part outside
    the real span in the coordinate columns and its constants in the tag
    columns. On dependent fields the constants are zero at the relations'
    pivots, so a combination of them is zero exactly when its field is.
    """
    rows = [{**_real_coordinates(f), (f.n, p): -1} for p, f in enumerate(fields)]
    reduced, pivots = sparse_rref(rows)
    span = [  # integral entries as ``int``s, cheaper to multiply in ``_reduce``
        (c, {j: x.numerator if x.denominator == 1 else x for j, x in row.items()})
        for c, row in zip(pivots, reduced)
    ]
    constants = {}
    for i, j in pairs:
        v = _reduce(span, _real_coordinates(bracket(fields[i], fields[j])))
        # a (component, monomial, part) column left over: the bracket escapes
        constants[i, j] = None if any(len(key) == 3 for key in v) else {p: x for (_, p), x in v.items()}
    return constants


def bracket_identities_hold(fields: Sequence[PolyVectorField]) -> bool:
    """Closure, antisymmetry and the Jacobi identity for the brackets of ``fields``.

    The brackets are read as structure constants (``_structure_constants``),
    so a bracket outside the real span of ``fields`` gives False: closure is
    asserted too. Antisymmetry is c_ij = -c_ji on every pair, with both
    orders bracketed. Jacobi is sum_p c_jl^p c_ip^q + c_li^p c_jp^q +
    c_ij^p c_lp^q = 0 for every q and every triple i < j < l, with c_ii = 0.
    Given closure, this is the identity [x,[y,z]] + [y,[z,x]] + [z,[x,y]] = 0
    of the fields, by bilinearity.
    """
    c = _structure_constants(fields, permutations(range(len(fields)), 2))
    if None in c.values():
        return False
    if any(c[i, j] != {p: -x for p, x in c[j, i].items()} for i, j in c if i < j):
        return False
    for i, j, l in combinations(range(len(fields)), 3):
        total: dict = {}
        for a, b, d in ((i, j, l), (j, l, i), (l, i, j)):
            for p, x in c[b, d].items():
                for q, y in c.get((a, p), {}).items():
                    total[q] = total.get(q, 0) + x * y
        if any(total.values()):
            return False
    return True

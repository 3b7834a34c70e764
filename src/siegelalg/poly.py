"""Multivariate polynomials over the Gaussian rationals, and generic rank.

Polynomials carry a fixed variable count; monomials are exponent tuples. The
ordering used everywhere (printing, leading terms, pivot selection) is graded
lexicographic with earlier variables heavier.

The exact kernels read a polynomial through ``exact_terms``: each
coefficient's real and imaginary parts, an ``int`` where the denominator is 1,
computed once per polynomial. ``from_parts`` is the way back: it builds the
canonical polynomial from such parts, already sorted, and keeps them as its
``exact_terms``.

``generic_rank`` takes rows of polynomials with real coefficients (a nonreal
one raises ``ValidationError``). It scales each row to integers and runs
fraction-free Bareiss elimination (Bareiss 1968) over integer polynomials,
``{monomial: int}`` dicts, so no ``Fraction`` or ``GaussianRational`` is
built; an exact division that leaves a remainder raises ``ValidationError``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence, Union

from .errors import ValidationError
from .frozen import Frozen
from .linalg import GR_ONE, GR_ZERO, GaussianRational, Scalar, _exact

Monomial = tuple[int, ...]
Exact = Union[int, Fraction]
IntPoly = dict[Monomial, int]


def _mono_key(mono: Monomial) -> tuple:
    # graded lex: lower total degree first, then lexicographic
    return (sum(mono), tuple(-e for e in mono))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def _fraction(x: Exact) -> Fraction:
    return x if x.__class__ is Fraction else Fraction(x)


class Polynomial(Frozen):
    nvars: int
    terms: tuple[tuple[Monomial, GaussianRational], ...]  # sorted, no zero coefficients

    # the generic ``Frozen.__init__``, written out: a run builds thousands of these
    def __init__(self, nvars: int, terms: tuple[tuple[Monomial, GaussianRational], ...]) -> None:
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def from_dict(nvars: int, coeffs: Mapping[Monomial, Scalar]) -> "Polynomial":
        cleaned: dict[Monomial, GaussianRational] = {}
        for mono, c in coeffs.items():
            if len(mono) != nvars:
                raise ValidationError("monomial arity mismatch")
            cc = GaussianRational.of(c)
            if not cc.is_zero():
                cleaned[tuple(mono)] = cc
        ordered = tuple(sorted(cleaned.items(), key=lambda kv: _mono_key(kv[0])))
        return Polynomial(nvars, ordered)

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars, ())

    @staticmethod
    def constant(nvars: int, c: Scalar) -> "Polynomial":
        return Polynomial.from_dict(nvars, {tuple([0] * nvars): c})

    @staticmethod
    def variable(nvars: int, i: int) -> "Polynomial":
        if not 0 <= i < nvars:
            raise ValidationError("variable index out of range")
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return Polynomial(nvars, ((mono, GR_ONE),))

    @staticmethod
    def from_parts(
        nvars: int, re: Mapping[Monomial, Exact], im: Mapping[Monomial, Exact]
    ) -> "Polynomial":
        """The polynomial with coefficient re[m] + i im[m] at each monomial m (0 where absent).

        The parts are exact (``int``s or ``Fraction``s); zero terms are dropped
        and the rest built in canonical order, with the parts kept as the
        result's ``exact_terms``.
        """
        terms = []
        parts = []
        for mono in sorted(re.keys() | im.keys(), key=_mono_key):
            r, i = re.get(mono, 0), im.get(mono, 0)
            if r or i:
                terms.append((mono, GaussianRational(_fraction(r), _fraction(i))))
                parts.append((mono, r, i))
        p = Polynomial(nvars, tuple(terms))
        object.__setattr__(p, "_exact_terms", tuple(parts))
        return p

    def exact_terms(self) -> tuple[tuple[Monomial, Exact, Exact], ...]:
        """The terms as (monomial, re, im) with exact parts; computed once.

        Each part is read by ``_exact`` (an ``int`` where its denominator is 1),
        unless the polynomial was built by ``from_parts`` from parts at hand.
        """
        parts = self.__dict__.get("_exact_terms")
        if parts is None:
            parts = tuple((m, _exact(c.re), _exact(c.im)) for m, c in self.terms)
            object.__setattr__(self, "_exact_terms", parts)
        return parts

    def as_dict(self) -> dict[Monomial, GaussianRational]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Degree of the zero polynomial is reported as -1."""
        if not self.terms:
            return -1
        return max(sum(m) for m, _ in self.terms)

    def coefficient(self, mono: Monomial) -> GaussianRational:
        for m, c in self.terms:
            if m == tuple(mono):
                return c
        return GR_ZERO

    def _combine(self, other: "Polynomial", sign: int) -> "Polynomial":
        if self.nvars != other.nvars:
            raise ValidationError("variable count mismatch")
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, GR_ZERO) + (c if sign > 0 else -c)
        return Polynomial.from_dict(self.nvars, acc)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, +1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, -1)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, tuple((m, -c) for m, c in self.terms))

    def __mul__(self, other: Union["Polynomial", int, Fraction, GaussianRational]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            cc = GaussianRational.of(other)
            if cc.is_zero():
                return Polynomial.zero(self.nvars)
            return Polynomial(self.nvars, tuple((m, c * cc) for m, c in self.terms))
        if self.nvars != other.nvars:
            raise ValidationError("variable count mismatch")
        acc: dict[Monomial, GaussianRational] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = _mono_mul(m1, m2)
                acc[m] = acc.get(m, GR_ZERO) + c1 * c2
        return Polynomial.from_dict(self.nvars, acc)

    __rmul__ = __mul__

    def format(self, names: Sequence[str]) -> str:
        if len(names) != self.nvars:
            raise ValidationError("name count mismatch")
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.terms:
            factors = []
            for name, e in zip(names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            cs = str(c)
            if body:
                if c == GR_ONE:
                    parts.append(body)
                elif c == -GR_ONE:
                    parts.append(f"-{body}")
                else:
                    wrapped = f"({cs})" if ("+" in cs[1:] or "-" in cs[1:]) else cs
                    parts.append(f"{wrapped}*{body}")
            else:
                parts.append(cs)
        out = parts[0]
        for p in parts[1:]:
            out += f" + {p}" if not p.startswith("-") else f" - {p[1:]}"
        return out

    def __str__(self) -> str:
        return self.format([f"x{i+1}" for i in range(self.nvars)])


def _int_row(row: Sequence[Polynomial], nvars: int) -> list[IntPoly]:
    """The row of real polynomials times the lcm of its denominators, as integer polynomials."""
    for p in row:
        if p.nvars != nvars:
            raise ValidationError("variable count mismatch")
        if any(c.im for _, c in p.terms):
            raise ValidationError("generic rank needs real coefficients")
    scale = lcm(*(c.re.denominator for p in row for _, c in p.terms))
    return [{m: c.re.numerator * (scale // c.re.denominator) for m, c in p.terms} for p in row]


def _degree(p: IntPoly) -> int:
    return max(map(sum, p))


def _mul_into(acc: IntPoly, p: IntPoly, q: IntPoly, sign: int) -> None:
    """Add sign * p * q into ``acc``, dropping the terms that cancel."""
    for m1, c1 in p.items():
        c1 *= sign
        for m2, c2 in q.items():
            m = _mono_mul(m1, m2)
            c = acc.get(m, 0) + c1 * c2
            if c:
                acc[m] = c
            else:
                del acc[m]


def _divide_exact(num: IntPoly, den: IntPoly) -> IntPoly:
    """The quotient num / den in integer polynomials, by long division on leading terms.

    A remainder raises ``ValidationError``.
    """
    dm = max(den, key=_mono_key)
    dc = den[dm]
    rem = dict(num)
    quot = {}
    while rem:
        rm = max(rem, key=_mono_key)
        q, r = divmod(rem[rm], dc)
        qm = tuple(a - b for a, b in zip(rm, dm))
        if r or any(e < 0 for e in qm):
            raise ValidationError("inexact polynomial division")
        quot[qm] = q
        _mul_into(rem, {qm: q}, den, -1)
    return quot


def generic_rank(rows: Sequence[Sequence[Polynomial]], nvars: int) -> int:
    """Rank of the matrix ``rows`` over the rational functions in ``nvars`` indeterminates.

    The entries must have real coefficients. Each row is scaled to integers,
    which leaves the rank unchanged, and eliminated fraction-free (Bareiss):
    every division is by the previous pivot and is exact, so intermediate
    entries stay integer polynomials. Pivot choice within the current column
    prefers minimal total degree, then the topmost row, which keeps growth
    small and the procedure deterministic. The result equals the maximal rank
    of any rational-point evaluation.
    """
    mat = [_int_row(row, nvars) for row in rows]
    nrows, ncols = len(mat), len(mat[0]) if mat else 0
    prev = None
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        best = None
        for i in range(r, nrows):
            if mat[i][c] and (best is None or _degree(mat[i][c]) < _degree(mat[best][c])):
                best = i
        if best is None:
            continue
        mat[r], mat[best] = mat[best], mat[r]
        top = mat[r]
        piv = top[c]
        for row in mat[r + 1:]:
            f = row[c]
            for j in range(c + 1, ncols):
                num: IntPoly = {}
                _mul_into(num, piv, row[j], 1)
                _mul_into(num, f, top[j], -1)
                row[j] = num if prev is None else _divide_exact(num, prev)
            row[c] = {}
        prev = piv
        r += 1
    return r

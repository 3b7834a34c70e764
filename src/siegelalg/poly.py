"""Multivariate polynomials over the Gaussian rationals, and generic rank.

Polynomials carry a fixed variable count; monomials are exponent tuples. The
ordering used everywhere (printing, leading terms, pivot selection) is graded
lexicographic with earlier variables heavier.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence, Union

from .errors import ValidationError
from .frozen import Frozen
from .linalg import GR_ONE, GR_ZERO, GaussianRational, Scalar

Monomial = tuple[int, ...]


def _mono_key(mono: Monomial) -> tuple:
    # graded lex: lower total degree first, then lexicographic
    return (sum(mono), tuple(-e for e in mono))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


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

    def leading(self) -> tuple[Monomial, GaussianRational]:
        if not self.terms:
            raise ValidationError("zero polynomial has no leading term")
        return self.terms[-1]

    def divide_exact(self, divisor: "Polynomial") -> "Polynomial":
        """Exact quotient; raises if the divisor does not divide evenly."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = self
        quot: dict[Monomial, GaussianRational] = {}
        dm, dc = divisor.leading()
        while not rem.is_zero():
            rm, rc = rem.leading()
            qm = tuple(a - b for a, b in zip(rm, dm))
            if any(e < 0 for e in qm):
                raise ValidationError("inexact polynomial division")
            qc = rc / dc
            quot[qm] = quot.get(qm, GR_ZERO) + qc
            rem = rem - Polynomial(self.nvars, ((qm, qc),)) * divisor
        return Polynomial.from_dict(self.nvars, quot)

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


def generic_rank(rows: Sequence[Sequence[Polynomial]], nvars: int) -> int:
    """Rank of the matrix ``rows`` over the rational functions in ``nvars`` indeterminates.

    Computed by fraction-free (Bareiss-style) elimination: every division is by
    the previous pivot and is exact, so intermediate entries stay polynomial.
    Pivot choice within the current column prefers minimal total degree, then
    the topmost row, which keeps growth small and the procedure deterministic.
    The result equals the maximal rank of any rational-point evaluation.
    """
    rows = [list(row) for row in rows]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    prev = Polynomial.constant(nvars, 1)
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        best = None
        for i in range(r, nrows):
            if rows[i][c].is_zero():
                continue
            deg = rows[i][c].total_degree()
            if best is None or deg < rows[best][c].total_degree():
                best = i
        if best is None:
            continue
        if best != r:
            rows[r], rows[best] = rows[best], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                num = piv * rows[i][j] - rows[i][c] * rows[r][j]
                rows[i][j] = num.divide_exact(prev)
            rows[i][c] = Polynomial.zero(nvars)
        prev = piv
        r += 1
    return r

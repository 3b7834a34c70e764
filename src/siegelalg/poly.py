"""Multivariate polynomials over the Gaussian rationals, and generic rank.

Polynomials carry a fixed variable count; monomials are exponent tuples. The
ordering used everywhere (printing, leading terms, pivot selection) is graded
lexicographic with earlier variables heavier.

A polynomial is held as the exact parts of its coefficients: each term is
(monomial, re, im), each part an ``int`` or a ``Fraction``, and the kernels
read them as they are. ``from_parts`` builds the canonical polynomial from
such parts. Equality and hashing do not depend on a part's type, since
``Fraction(1) == 1`` and the two hash alike.

``generic_rank`` takes rows of real polynomials, ``{monomial: int |
Fraction}`` dicts. It scales each row to integers and runs fraction-free
Bareiss elimination (Bareiss 1968) over integer polynomials,
``{monomial: int}`` dicts, so no ``Fraction`` is built; an exact division
that leaves a remainder raises ``ValidationError``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .errors import ValidationError
from .frozen import Frozen
from .linalg import GaussianRational, _int

Monomial = tuple[int, ...]
Term = tuple[Monomial, int | Fraction, int | Fraction]  # (monomial, re, im)
IntPoly = dict[Monomial, int]


def _mono_key(mono: Monomial) -> tuple:
    # graded lex: lower total degree first, then lexicographic
    return (sum(mono), tuple(-e for e in mono))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


class Polynomial(Frozen):
    nvars: int
    terms: tuple[Term, ...]  # sorted, no term with both parts zero

    # the generic ``Frozen.__init__``, written out: a run builds thousands of these
    def __init__(self, nvars: int, terms: tuple[Term, ...]) -> None:
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def from_parts(
        nvars: int, re: Mapping[Monomial, int | Fraction], im: Mapping[Monomial, int | Fraction]
    ) -> "Polynomial":
        """The polynomial with coefficient re[m] + i im[m] at each monomial m (0 where absent).

        The parts are kept as given; terms whose parts are both zero are
        dropped and the rest put in canonical order.
        """
        terms = []
        for mono in sorted(re.keys() | im.keys(), key=_mono_key):
            r, i = re.get(mono, 0), im.get(mono, 0)
            if r or i:
                terms.append((mono, r, i))
        return Polynomial(nvars, tuple(terms))

    def is_zero(self) -> bool:
        return not self.terms

    def format(self, names: Sequence[str]) -> str:
        if len(names) != self.nvars:
            raise ValidationError("name count mismatch")
        if not self.terms:
            return "0"
        parts = []
        for m, re, im in self.terms:
            factors = []
            for name, e in zip(names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            cs = str(GaussianRational(re, im))
            if body:
                if re == 1 and not im:
                    parts.append(body)
                elif re == -1 and not im:
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


def _int_row(row: Sequence[Mapping[Monomial, int | Fraction]], nvars: int) -> list[IntPoly]:
    """The row of real polynomials times the lcm of its denominators, as integer polynomials."""
    if any(len(m) != nvars for p in row for m in p):
        raise ValidationError("variable count mismatch")
    scale = lcm(*(c.denominator for p in row for c in p.values()))
    return [{m: c.numerator * (scale // c.denominator) for m, c in p.items() if c} for p in row]


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


def generic_rank(rows: Sequence[Sequence[Mapping[Monomial, int | Fraction]]], nvars: int) -> int:
    """Rank of the matrix ``rows`` over the rational functions in ``nvars`` indeterminates.

    The entries are real polynomials, ``{monomial: int | Fraction}``. Each
    row is scaled to integers, which leaves the rank unchanged, and
    eliminated fraction-free (Bareiss): every division is by the previous
    pivot and is exact, so intermediate entries stay integer polynomials.
    Pivot choice within the current column prefers minimal total degree, then
    the topmost row, which keeps growth small and the procedure
    deterministic. The result equals the maximal rank of any rational-point
    evaluation.
    """
    nvars = _int(nvars, "nvars")
    mat = [_int_row(row, nvars) for row in rows]
    nrows, ncols = len(mat), len(mat[0]) if mat else 0
    if any(len(row) != ncols for row in mat):
        raise ValidationError("column count mismatch")
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

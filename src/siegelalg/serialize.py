"""JSON encoding and decoding for domain inputs and reports.

Rationals travel as strings "p/q" (bare "p" when the denominator is one);
complex entries as {"re": "p/q", "im": "r/s"}. No floats anywhere.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import prod
from typing import Union

from .cones import (
    CATALOG_IDS,
    ConeSpec,
    LorentzFactor,
    PolyhedralFactor,
    catalog_cone,
)
from .errors import ValidationError
from .graded import GradedSolutions, SiegelDomainSpec, SparseArray
from .hermitian import HermitianFamily, OmegaHermitianVerdict, is_omega_hermitian
from .linalg import ComplexRows, GaussianRational, RealRows, _int


def to_json(value):
    """``value`` as a JSON document: the parse of ``format_json(value)``, the one writer."""
    return json.loads(format_json(value))


def format_json(value) -> str:
    """The text of ``json.dumps(value, indent=2)`` with exact values encoded: ``json_pieces`` joined."""
    return "".join(json_pieces(value))


def json_pieces(value) -> list[str]:
    """The text of ``format_json(value)`` as a list of pieces, built in one pass.

    Values are encoded where they are met, by exact class: a ``Fraction`` as
    "p/q" (bare "p" for an integer), a ``GaussianRational`` as {"re", "im"},
    a tuple as a list. Complex data (``ComplexRows``, such as the
    components of a Hermitian family) is nested tuples of
    ``GaussianRational``s, and real data (``RealRows``, such as a cone's
    basis) nested tuples of ``Fraction``s, so each becomes nested lists of
    those encodings; an ``int`` is a JSON number. Dicts and lists
    (subclasses too) are laid out here and strings escaped to ASCII as
    ``json.dumps`` does; other leaves go through ``json.dumps``. Keys must be
    strings. The standard library's indenting encoder runs one generator per
    container; this appends to one list of pieces instead. A tuple or list
    writes its ``Fraction`` and ``GaussianRational`` entries in its own loop,
    and makes the text of a zero ``GaussianRational`` once. A
    ``graded.SparseArray`` (a part of a basis element, such as B, Phi or the
    form a of g1, from ``solutions_bases_to_json``) is written as the nested
    lists of its dense tuples, from its present entries only: a row with none is one zero-row
    text, made once per array. A writer passes the pieces to ``writelines``,
    so the text is never held twice.

    A number with more digits than Python prints an int with
    (``sys.get_int_max_str_digits()``) is refused with a ``ValidationError``;
    every piece is built before the caller writes any of them.
    """
    out: list[str] = []
    try:
        _format(value, "", "\n", out)
    except ValueError as exc:  # str() of an int past the digit limit
        raise ValidationError(
            f"a result has a number with more than {sys.get_int_max_str_digits()} digits, "
            "the most that Python prints an int with"
        ) from exc
    return out


def _format(value, prefix: str, newline: str, out: list[str]) -> None:
    """Append ``prefix`` and then ``value``, whose lines start with ``newline``."""
    cls = type(value)
    if cls is Fraction:
        out.append(f'{prefix}"{value}"')
    elif cls is GaussianRational:
        out.append(prefix + _gaussian(value, newline))
    elif cls is SparseArray:
        _format_array(value, prefix, newline, out)
    elif isinstance(value, str):
        out.append(prefix + encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            out.append(prefix + "{}")
            return
        inner = newline + "  "
        sep = prefix + "{" + inner
        for key, v in value.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {type(key).__name__}")
            _format(v, f"{sep}{encode_basestring_ascii(key)}: ", inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif cls is tuple or isinstance(value, list):
        if not value:
            out.append(prefix + "[]")
            return
        inner = newline + "  "
        sep = prefix + "[" + inner
        zero = None  # the text of a zero GaussianRational at this indentation, made once
        for v in value:
            vcls = type(v)
            if vcls is Fraction:  # leaves are written here, without a call each
                out.append(f'{sep}"{v}"')
            elif vcls is GaussianRational:
                if v:
                    out.append(sep + _gaussian(v, inner))
                else:
                    zero = zero or _gaussian(v, inner)
                    out.append(sep + zero)
            else:
                _format(v, sep, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(prefix + json.dumps(value))


def _format_array(array: SparseArray, prefix: str, newline: str, out: list[str]) -> None:
    """Append ``prefix`` and then ``array`` as the nested lists of ``array.dense()``.

    Each innermost row is written from its present entries; a row with none
    is the text of a zero row, made once per array (its rows all have one
    length and one indentation). An array with a zero dimension is written
    from ``dense()``, which is then empty nested tuples.
    """
    if not prod(array.shape):
        _format(array.dense(), prefix, newline, out)
        return
    *outer, d = array.shape
    row_newline = newline + "  " * len(outer)
    inner = row_newline + "  "
    rows: dict[int, list[tuple[int, object]]] = {}
    for flat, x in array.entries.items():
        g, i = divmod(flat, d)
        rows.setdefault(g, []).append((i, x))

    def text(x) -> str:
        return f'"{x}"' if x.__class__ is Fraction else _gaussian(x, inner)

    zero = text(array.zero)
    sep = "," + inner
    zero_row = f"[{inner}{sep.join([zero] * d)}{row_newline}]"

    def walk(level: int, g: int, prefix: str, newline: str) -> None:
        # the list at outer indexes that number g in row-major order, at depth ``level``
        if level == len(outer):
            row = rows.get(g)
            if row is None:
                out.append(prefix + zero_row)
                return
            texts = [zero] * d
            for i, x in row:
                texts[i] = text(x)
            out.append(f"{prefix}[{inner}{sep.join(texts)}{row_newline}]")
            return
        nested = newline + "  "
        head = prefix + "[" + nested
        for j in range(outer[level]):
            walk(level + 1, g * outer[level] + j, head, nested)
            head = "," + nested
        out.append(newline + "]")

    walk(0, 0, prefix, newline)


def _gaussian(value: GaussianRational, newline: str) -> str:
    """The text of a ``GaussianRational``, whose lines start with ``newline``."""
    inner = newline + "  "
    return f'{{{inner}"re": "{value.re}",{inner}"im": "{value.im}"{newline}}}'


def fraction_from_json(value: Union[str, int]) -> Fraction:
    """An int, or a literal such as "-3/4", "0.5" or "2e3". A literal is refused if it groups
    digits with "_" (``Fraction`` accepts that only on some Python versions), or if its value has
    more digits than an int prints with, and a large exponent before 10**exponent is expanded."""
    if isinstance(value, bool):
        raise ValidationError("expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "_" in value:
            raise ValidationError(f"bad rational literal {value!r}")
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        # (mantissa, exponent) of a decimal literal; ``Fraction`` checks the syntax
        match = re.fullmatch(r"(\s*[-+]?\d*\.?\d*)e([-+]?\d+)\s*", value, re.IGNORECASE)
        try:  # a nonzero mantissa times 10**e has at least |e| - len(mantissa) digits
            huge = match is not None and abs(int(match[2])) > limit + len(match[1])
            q = Fraction(match[1] if huge else value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad rational literal {value!r}") from exc
        big = max(abs(q.numerator), q.denominator)
        if q and huge or big.bit_length() > 3 * limit and big >= 10**limit:  # 8**limit < 10**limit
            raise ValidationError(f"rational literal {value!r} has more than {limit} digits")
        return q
    if isinstance(value, float):
        raise ValidationError(f"bad rational value {value!r} (floats are not accepted)")
    raise ValidationError(f"bad rational value {value!r} (expected an integer or a string like '-3/4')")


def gaussian_from_json(value) -> GaussianRational:
    """A rational as ``fraction_from_json`` reads it, or an object {"re": ..., "im": ...}."""
    if isinstance(value, dict):
        if not value or set(value) - {"re", "im"}:
            raise ValidationError(f"complex entry {value!r} needs 're' and/or 'im' and no other key")
        re = fraction_from_json(value.get("re", 0))
        im = fraction_from_json(value.get("im", 0))
        return GaussianRational(re, im)
    if not isinstance(value, (int, str, float)):  # a bool or float: the rational reader's text
        raise ValidationError(
            f"bad complex value {value!r} (expected an integer, a string like '-3/4' "
            'or an object like {"re": "1/2", "im": "-3"})'
        )
    return GaussianRational(fraction_from_json(value), Fraction(0))


def matrix_from_json(rows, expect_shape: tuple[int, int]) -> ComplexRows:
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise ValidationError("matrix must be a list of rows")
    m = tuple(tuple(gaussian_from_json(x) for x in row) for row in rows)
    ncols = len(m[0]) if m else 0
    if any(len(row) != ncols for row in m):
        raise ValidationError("column count mismatch")
    if (len(m), ncols) != expect_shape:
        raise ValidationError(f"matrix shape {len(m)}x{ncols} != expected {expect_shape}")
    return m


def _factor_to_json(factor) -> dict:
    if isinstance(factor, LorentzFactor):
        return {"kind": "lorentz", "coords": factor.coords}
    return {"kind": "polyhedral", "functionals": factor.functionals}


def _factor_from_json(doc) -> Union[PolyhedralFactor, LorentzFactor]:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValidationError("boundary factor must carry a 'kind'")
    if doc["kind"] == "lorentz":
        _require_keys(doc, {"kind", "coords"}, "lorentz factor")
        coords = _list_value(doc["coords"], "'coords'")
        return LorentzFactor(tuple(_int(c, "a Lorentz coordinate") for c in coords))
    if doc["kind"] == "polyhedral":
        _require_keys(doc, {"kind", "functionals"}, "polyhedral factor")
        functionals = _list_value(doc["functionals"], "'functionals'")
        return PolyhedralFactor(
            tuple(
                tuple(fraction_from_json(x) for x in _list_value(f, "a functional"))
                for f in functionals
            )
        )
    raise ValidationError(f"unknown boundary kind {doc['kind']!r}")


def cone_to_json(cone: ConeSpec) -> dict:
    return to_json({
        "name": cone.name,
        "k": cone.k,
        "g_basis": cone.g_basis,
        "interior_point": cone.interior_point,
        "boundary": {"factors": [_factor_to_json(f) for f in cone.boundary]},
    })


def _real_rows_from_json(rows, k: int) -> RealRows:
    """A real k x k matrix; an entry with a nonzero imaginary part is rejected here."""
    m = matrix_from_json(rows, (k, k))
    if any(x.im for row in m for x in row):
        raise ValidationError("g_basis matrices must be real")
    return tuple(tuple(x.re for x in row) for row in m)


def cone_from_json(doc) -> ConeSpec:
    """Catalog id string or a full custom description."""
    if isinstance(doc, str):
        return catalog_cone(doc)
    if not isinstance(doc, dict):
        raise ValidationError(f"cone must be a catalog id or an object, got {doc!r}")
    if set(doc) == {"cone"}:
        return cone_from_json(doc["cone"])
    _require_keys(doc, {"k", "g_basis", "interior_point", "boundary"}, "cone document", ("name",))
    name = doc.get("name", "custom")  # ConeSpec refuses a non-string
    k = _int(doc["k"], "'k'")
    if k < 1:  # before g_basis is read with shape k x k
        raise ValidationError("cone dimension must be at least 1")
    g_basis = tuple(
        _real_rows_from_json(rows, k) for rows in _list_value(doc["g_basis"], "'g_basis'")
    )
    interior = tuple(
        fraction_from_json(x) for x in _list_value(doc["interior_point"], "'interior_point'")
    )
    boundary = doc["boundary"]
    if isinstance(boundary, dict) and "factors" in boundary:
        _require_keys(boundary, {"factors"}, "boundary")
        boundary = _list_value(boundary["factors"], "'factors'")
    factors = tuple(map(_factor_from_json, boundary if isinstance(boundary, list) else [boundary]))
    return ConeSpec(
        name=name,
        k=k,
        g_basis=g_basis,
        interior_point=interior,
        boundary=factors,
    )


def family_from_json(doc, k: int, m: int) -> HermitianFamily:
    if not isinstance(doc, list) or len(doc) != k:
        raise ValidationError(f"'H' must be a list of {k} matrices")
    comps = tuple(matrix_from_json(rows, (m, m)) for rows in doc)
    return HermitianFamily(comps)


def spec_to_json(spec: SiegelDomainSpec) -> dict:
    """The domain document of ``spec``; its cone is a catalog id only when it is that catalog cone."""
    cone = spec.cone
    in_catalog = cone.name in CATALOG_IDS and cone == catalog_cone(cone.name)
    return to_json({
        "n": spec.n,
        "k": spec.k,
        "cone": cone.name if in_catalog else cone_to_json(cone),
        "H": spec.form.components,
    })


def _require_keys(doc: dict, keys: set[str], what: str, optional: tuple[str, ...] = ()) -> None:
    """``doc`` has every key of ``keys`` and no key outside ``keys`` and ``optional``."""
    missing = keys - set(doc)
    if missing:
        raise ValidationError(f"{what} missing keys: {sorted(missing)}")
    unknown = set(doc).difference(keys, optional)
    if unknown:
        raise ValidationError(f"{what} has unknown keys: {sorted(unknown)}")


def _list_value(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a list, got {value!r}")
    return value


def load_domain_spec(doc: dict) -> tuple[SiegelDomainSpec, OmegaHermitianVerdict]:
    """Parse and fully validate a domain document {"n", "k", "cone", "H"}.

    Structural invariants raise immediately; a cone-compatibility
    counterexample for the Hermitian family is also a validation error and
    names the witness vector. Otherwise the spec is returned with the
    compatibility verdict, which says whether the check was exact or sampled.
    """
    if not isinstance(doc, dict):
        raise ValidationError("domain document must be an object")
    _require_keys(doc, {"n", "k", "cone", "H"}, "domain document")
    n, k = _int(doc["n"], "'n'"), _int(doc["k"], "'k'")
    if not 1 <= k <= n:  # before H is read with shape (n - k) x (n - k)
        raise ValidationError("need 1 <= k <= n")
    cone = cone_from_json(doc["cone"])
    family = family_from_json(doc["H"], k, n - k)
    spec = SiegelDomainSpec(n, k, cone, family)
    verdict = is_omega_hermitian(family, cone)
    if verdict.is_counterexample():
        try:
            where = "at w = (" + ", ".join(str(x) for x in verdict.witness) + ")"
        except ValueError:  # an entry with more digits than an int may print with
            where = "at a w whose entries are too long to print"
        raise ValidationError(
            f"family is not compatible with the cone: H(w,w) leaves the closed "
            f"cone minus zero {where}"
        )
    return spec, verdict


def solutions_bases_to_json(sols: GradedSolutions) -> dict:
    """Explicit generator data for ``format_json``, gated behind a CLI flag to keep reports small.

    Each part of a basis element is a ``SparseArray``, which the writer lays
    out as its dense nested lists without building them.
    """
    return {
        "g_0": [{"A": a, "B": b} for a, b in sols.g0],
        "g_half": [{"phi": phi, "c": c} for phi, c in sols.g_half],
        "g_1": [{"a": a, "b": b} for a, b in sols.g_one],
    }

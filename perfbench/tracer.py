"""Per-layer spans for the traced benchmark run, recorded from outside the package.

``install()`` wraps the public entry point of each layer, or the class
attribute for methods, and returns a ``Recorder`` whose ``report()`` is written
as JSON when the child exits. Nothing in ``siegelalg`` is edited.

A module that did ``from .graded import solve_g0`` holds its own reference,
so every ``siegelalg`` module attribute bound to the original function is
replaced, not only the defining one. ``catalog.build`` takes ``catalog_cone``
as a default argument, a binding no patch can reach, so cones are counted at
``ConeSpec`` construction instead. The four graded solvers are
``functools.lru_cache`` objects: their hits and misses are read from the
original cached objects, and a wrapper that saw fewer calls than the cache
means a binding site was missed.
"""

from __future__ import annotations

import sys
import time

from siegelalg import catalog, cones, fields, graded, hermitian, homogeneity, linalg, poly, serialize

# span name -> (owner, attribute name)
SPANS = {
    "cones.spec_build": (cones.ConeSpec, "__post_init__"),
    "catalog.build": (catalog, "build"),
    "graded.solve_all": (graded, "solve_all"),
    "homogeneity.verdict": (homogeneity, "homogeneity_verdict"),
    "poly.generic_rank": (poly, "generic_rank"),
    "fields.materialize": (fields, "materialize"),
    "fields.check_grading": (fields, "check_grading"),
    "fields.bracket": (fields, "bracket"),
    "hermitian.compat_check": (hermitian, "is_omega_hermitian"),
    "serialize.load_spec": (serialize, "load_domain_spec"),
    "serialize.bases_json": (serialize, "solutions_bases_to_json"),
}
SOLVERS = ("solve_g0", "solve_L", "solve_g_half", "solve_g1")


def _rebind(original, replacement) -> int:
    """Point every siegelalg module attribute that is ``original`` at ``replacement``."""
    count = 0
    for name, module in list(sys.modules.items()):
        if name != "siegelalg" and not name.startswith("siegelalg."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


def _max_bits(matrix) -> int:
    bits = 0
    for row in matrix.entries:
        for x in row:
            for part in (x.re, x.im):
                if part:
                    bits = max(bits, part.numerator.bit_length(), part.denominator.bit_length())
    return bits


class Recorder:
    """Call counts and inclusive seconds per span, plus solver and rref statistics.

    Times are counted at the outermost frame of each span only, so recursion
    (``catalog.build`` on a one-factor product, nested brackets) is not counted twice.
    """

    def __init__(self) -> None:
        self.calls = {name: 0 for name in SPANS}
        self.seconds = {name: 0.0 for name in SPANS}
        self._depth = {name: 0 for name in SPANS}
        self.solver_calls = {name: 0 for name in SOLVERS}
        self.solver_s = 0.0
        self.rref_in_solver_s = 0.0
        self._solver_depth = 0
        self.rref = {"calls": 0, "s": 0.0, "rows": 0, "rank": 0, "cells": 0, "nonzeros": 0,
                     "rows_max": 0, "cols_max": 0, "max_bits": 0}
        self._cached = {}

    def span(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if self._depth[name]:
                return fn(*args, **kwargs)
            self._depth[name] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - start
                self._depth[name] -= 1
        return wrapper

    def solver(self, name, fn):
        def wrapper(spec):
            self.solver_calls[name] += 1
            if self._solver_depth:
                return fn(spec)
            self._solver_depth += 1
            start = time.perf_counter()
            try:
                return fn(spec)
            finally:
                self.solver_s += time.perf_counter() - start
                self._solver_depth -= 1
        return wrapper

    def rref_wrapper(self, fn):
        def rref(matrix):
            start = time.perf_counter()
            result = fn(matrix)
            elapsed = time.perf_counter() - start
            st = self.rref
            st["calls"] += 1
            st["s"] += elapsed
            if self._solver_depth:
                self.rref_in_solver_s += elapsed
            st["rows"] += matrix.nrows
            st["rank"] += result.rank
            st["cells"] += matrix.nrows * matrix.ncols
            st["nonzeros"] += sum(1 for row in matrix.entries for x in row if x.re or x.im)
            st["rows_max"] = max(st["rows_max"], matrix.nrows)
            st["cols_max"] = max(st["cols_max"], matrix.ncols)
            st["max_bits"] = max(st["max_bits"], _max_bits(result.matrix))
            return result
        return rref

    def report(self) -> dict:
        solvers = {}
        for name, fn in self._cached.items():
            info = fn.cache_info()
            solvers[name] = {"wrapped_calls": self.solver_calls[name],
                             "hits": info.hits, "misses": info.misses}
        return {
            "spans": {name: {"calls": self.calls[name], "s": self.seconds[name]} for name in SPANS},
            "solvers": solvers,
            "solver_s": self.solver_s,
            "rref_in_solver_s": self.rref_in_solver_s,
            "rref": dict(self.rref),
        }


def install() -> Recorder:
    """Wrap every traced layer in this process and return the recorder."""
    rec = Recorder()
    for name, (owner, attr) in SPANS.items():
        original = getattr(owner, attr)
        wrapped = rec.span(name, original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
        elif not _rebind(original, wrapped):
            raise RuntimeError(f"no binding found for {name}")
    for name in SOLVERS:
        original = getattr(graded, name)
        rec._cached[name] = original
        _rebind(original, rec.solver(name, original))
    linalg.Matrix.rref = rec.rref_wrapper(linalg.Matrix.rref)
    return rec

"""Command-line interface.

Results go to stdout, diagnostics to stderr. Exit codes: 0 on success (and on
all checks passing), 1 on check failures or a not-transitive verdict from the
homogeneity command, 2 on malformed input or invariant violations, reported as
one ``error:`` line on stderr (bad arguments too).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog
from .bounds import SWEEP_MAX, bound_chain, closed_form_sweep
from .cones import catalog_cone, isotropy_bound
from .errors import ValidationError
from .graded import solve_all, solve_g0
from .homogeneity import NOT_TRANSITIVE, homogeneity_verdict
from .serialize import fraction_from_json, json_pieces, load_domain_spec, solutions_bases_to_json


def _write_json(pieces: list[str]) -> None:
    """Write the pieces of a JSON text (``json_pieces``) and a newline, never joined into one text."""
    sys.stdout.writelines(pieces)
    sys.stdout.write("\n")


def _emit_json(doc) -> None:
    _write_json(json_pieces(doc))


def _parse_factors(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad factor list {text!r}") from exc


def _domain_from_args(args) -> catalog.DomainId:
    kind = (args.domain or "").strip().lower().replace("-", "").replace("_", "")
    if kind == "ball":
        if args.n is None:
            raise ValidationError("ball needs --n")
        return catalog.ball(args.n)
    if kind == "ballproduct":
        if not args.factors:
            raise ValidationError("ballproduct needs --factors, e.g. --factors 2,1,1")
        return catalog.ball_product(*_parse_factors(args.factors))
    if kind in ("d1", "d2"):
        if args.n is None:
            raise ValidationError(f"{kind} needs --n")
        return catalog.d1(args.n) if kind == "d1" else catalog.d2(args.n)
    if kind in ("d3", "d4"):
        params = [args.alpha, args.beta, args.gamma, args.delta]
        if any(p is None for p in params):
            raise ValidationError(f"{kind} needs --alpha --beta --gamma --delta")
        values = [fraction_from_json(p) for p in params]
        return catalog.d3(*values) if kind == "d3" else catalog.d4(*values)
    if kind in ("d5", "d6"):
        if not args.v:
            raise ValidationError(f"{kind} needs --v, e.g. --v 1,1,0")
        v = tuple(map(fraction_from_json, args.v.split(",")))
        return catalog.d5(v) if kind == "d5" else catalog.d6(v)
    if kind == "t3":
        return catalog.t3()
    if kind == "t4":
        return catalog.t4()
    if kind == "tube":
        if not args.cone:
            raise ValidationError("tube needs --cone, e.g. --cone omega4")
        return catalog.tube(args.cone)
    raise ValidationError(
        f"unknown domain {args.domain!r}; expected ball, ballproduct, d1..d6, t3, t4 or tube"
    )


def _load_spec(args):
    """Domain from --spec JSON or from --domain flags; returns (spec, label).

    A --spec document whose cone check was sampled gets a one-line note on stderr.
    """
    if getattr(args, "spec", None):
        with open(args.spec, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"malformed JSON: {exc}") from exc
            except (ValueError, RecursionError) as exc:  # undecodable bytes, an int past the digit limit
                raise ValidationError(f"cannot read {args.spec}: {exc}") from exc
        spec, compat = load_domain_spec(doc)
        if compat.note:
            print(f"note: {compat.note}", file=sys.stderr)
        return spec, f"custom({args.spec})"
    if not getattr(args, "domain", None):
        raise ValidationError("provide either --domain or --spec FILE")
    domain = _domain_from_args(args)
    return catalog.build(domain), domain.label


def _cmd_cone_info(args) -> int:
    cone = catalog_cone(args.cone)
    doc = {
        "name": cone.name,
        "k": cone.k,
        "dim_g": cone.dim_g,
        "isotropy_bound": isotropy_bound(cone.k),
        "interior_point": cone.interior_point,
        "annihilator_count": len(cone.annihilators),
    }
    if args.emit_bases:
        doc["g_basis"] = cone.g_basis
    if args.format == "json":
        _emit_json(doc)
    else:
        print(f"cone {cone.name}: k={cone.k} dim g={cone.dim_g} "
              f"isotropy bound={isotropy_bound(cone.k)}")
        print(f"interior point: ({', '.join(map(str, cone.interior_point))})")
        print(f"annihilators: {len(cone.annihilators)}")
        if args.emit_bases:
            for i, m in enumerate(cone.g_basis):
                print(f"g_basis[{i}]: [" + "; ".join(", ".join(map(str, r)) for r in m) + "]")
    return 0


def _cmd_dims(args) -> int:
    spec, label = _load_spec(args)
    sols = solve_all(spec)
    doc = {
        "domain": label,
        "n": spec.n,
        "k": spec.k,
        "dims": sols.dims.as_dict(),
        "s": sols.s,
    }
    if args.emit_bases:
        doc["bases"] = solutions_bases_to_json(sols)
    if args.format == "json":
        _emit_json(doc)
        return 0
    # formatted before anything is printed, so a value too long to print leaves stdout empty
    bases = json_pieces(doc["bases"]) if args.emit_bases else None
    d = sols.dims
    print(f"domain {label}: n={spec.n} k={spec.k}")
    print(
        f"g_-1={d.d_m1} g_-1/2={d.d_mhalf} g_0={d.d_0} "
        f"g_1/2={d.d_half} g_1={d.d_1} total={d.total} s={sols.s}"
    )
    if bases is not None:
        _write_json(bases)
    return 0


def _cmd_homogeneity(args) -> int:
    spec, label = _load_spec(args)
    verdict = homogeneity_verdict(spec, solve_g0(spec))
    doc = {"domain": label, **verdict.as_dict()}
    if args.format == "json":
        _emit_json(doc)
    else:
        print(f"domain {label}: verdict={verdict.verdict} "
              f"a_part_dim={verdict.a_part_dim} generic_rank={verdict.generic_rank}")
        print(f"note: {verdict.note}")
    return 1 if verdict.verdict == NOT_TRANSITIVE else 0


def _cmd_bounds(args) -> int:
    if args.sweep is not None:
        entries = closed_form_sweep(args.sweep)
        if args.format == "json":
            _emit_json({"margins": [e.as_dict() for e in entries]})
        else:
            print("n  k  bound      margin")
            for e in entries:
                print(f"{e.n:<2} {e.k:<2} {str(e.bound):<10} {e.margin}")
        return 0
    required = [args.n, args.k, args.s, args.dim_g_omega]
    if any(x is None for x in required):
        raise ValidationError("bounds needs --n --k --s --dim-g-omega (or --sweep N)")
    report = bound_chain(
        args.n, args.k, args.s, args.dim_g_omega, args.g_half or 0, args.g_one or 0
    )
    if args.format == "json":
        _emit_json(report.as_dict())
    else:
        print(f"n={report.n} k={report.k} s={report.s} dim g(cone)={report.dim_g_omega}")
        print(f"component bound:   {report.component_bound}")
        print(f"graded cap bound:  {report.graded_cap_bound}")
        print(f"skew cap bound:    {report.skew_cap_bound}")
        print(f"closed form bound: {report.closed_form_bound}")
    return 0


def _cmd_classify(args) -> int:
    report = catalog.classify(args.n)
    if args.format == "json":
        _emit_json(
            {
                "n": report.n,
                "target": report.target,
                "note": report.note,
                "entries": [e.as_dict() for e in report.entries],
                "homogeneous": [
                    {"label": label, "total": total} for label, total in report.homogeneous
                ],
                "survivors_at_target": list(report.survivors_at_target),
            }
        )
    else:
        print(f"n={report.n} target={report.target}")
        print(f"note: {report.note}")
        print(f"{'label':<22} {'k':<3} {'status':<24} d")
        for e in report.entries:
            extra = e.total if e.total is not None else (
                f"margin {e.margin}" if e.margin is not None else ""
            )
            print(f"{e.label:<22} {e.k:<3} {e.status:<24} {extra}")
        survivors = ", ".join(report.survivors_at_target) or "(none)"
        print(f"survivors at n^2-2: {survivors}")
    return 0


def _cmd_verify_paper(args) -> int:
    report = catalog.verify_paper()
    if args.format == "json":
        _emit_json(
            {
                "checks": [
                    {
                        "name": c.name,
                        "expected": c.expected,
                        "computed": c.computed,
                        "status": "pass" if c.passed else "fail",
                    }
                    for c in report.checks
                ],
                "summary": {"passed": report.passed, "failed": report.failed},
            }
        )
    else:
        for c in report.checks:
            if c.passed:
                print(f"[PASS] {c.name}: {c.computed}")
            else:
                print(f"[FAIL] {c.name}: expected {c.expected}, computed {c.computed}")
        print(f"summary: {report.passed} passed, {report.failed} failed")
    return 0 if report.ok else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises its errors, so ``main`` reports them as one line.

    Subparsers are made with the parser's own class, so theirs are raised too.
    """

    def error(self, message: str):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="siegelalg",
        description=(
            "Exact graded automorphism algebras of Siegel domains: component "
            "dimensions, bounds, cone-transitivity verdicts, and classification tables."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--domain", help="catalog domain, e.g. ball, d6, t3, ballproduct")
        p.add_argument("--spec", help="path to a JSON domain document")
        p.add_argument("--n", type=int, help="dimension parameter for ball/d1/d2")
        p.add_argument("--factors", help="ball product factors, e.g. 2,1,1")
        p.add_argument("--v", help="parameter vector for d5/d6, e.g. 1,1,0")
        p.add_argument("--alpha")
        p.add_argument("--beta")
        p.add_argument("--gamma")
        p.add_argument("--delta")
        p.add_argument("--cone", help="cone id for tube domains, e.g. omega4")

    p_cone = sub.add_parser("cone-info", help="catalog cone summary")
    p_cone.add_argument("--cone", required=True)
    p_cone.add_argument("--emit-bases", action="store_true")
    p_cone.add_argument("--format", choices=("table", "json"), default="table")
    p_cone.set_defaults(func=_cmd_cone_info)

    p_dims = sub.add_parser("dims", help="graded component dimensions")
    add_common(p_dims)
    p_dims.add_argument("--emit-bases", action="store_true")
    p_dims.set_defaults(func=_cmd_dims)

    p_hom = sub.add_parser("homogeneity", help="cone-transitivity verdict")
    add_common(p_hom)
    p_hom.set_defaults(func=_cmd_homogeneity)

    p_bounds = sub.add_parser("bounds", help="dimension bound chain or margin sweep")
    p_bounds.add_argument("--format", choices=("table", "json"), default="table")
    p_bounds.add_argument(
        "--sweep", type=int, help=f"sweep margins up to this n (5 to {SWEEP_MAX})"
    )
    p_bounds.add_argument("--n", type=int)
    p_bounds.add_argument("--k", type=int)
    p_bounds.add_argument("--s", type=int)
    p_bounds.add_argument("--dim-g-omega", type=int, dest="dim_g_omega")
    p_bounds.add_argument("--g-half", type=int, dest="g_half")
    p_bounds.add_argument("--g-one", type=int, dest="g_one")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_classify = sub.add_parser("classify", help="candidate table for 2 <= n <= 5")
    p_classify.add_argument("--n", type=int, required=True)
    p_classify.add_argument("--format", choices=("table", "json"), default="table")
    p_classify.set_defaults(func=_cmd_classify)

    p_verify = sub.add_parser("verify-paper", help="run the full acceptance battery")
    p_verify.add_argument("--format", choices=("table", "json"), default="table")
    p_verify.set_defaults(func=_cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

``parse_args`` reads a command line by the flag table ``COMMANDS``. Results go to
stdout, diagnostics to stderr. Exit codes: 0 on success (and on all checks
passing), 1 on check failures or a not-transitive verdict from the homogeneity
command, 2 on malformed input, invariant violations or a domain too large to
hold in memory, reported as one ``error:`` line on stderr (bad arguments too).
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

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


_PARAMETERS = ("--alpha", "--beta", "--gamma", "--delta")
# the flags each catalog kind of --domain reads
_READS = {"ball": ("--n",), "ballproduct": ("--factors",), "d1": ("--n",), "d2": ("--n",),
          "d3": _PARAMETERS, "d4": _PARAMETERS, "d5": ("--v",), "d6": ("--v",), "t3": (), "t4": (),
          "tube": ("--cone",)}


def _refuse_unread(args, reader: str, reads) -> None:
    """Refuse the flags given that refine --domain and that ``reader`` does not read."""
    unread = [flag for flag in _DOMAIN_FLAGS if flag not in ("--domain", "--spec", *reads)
              and getattr(args, flag[2:]) is not None]
    if unread:
        raise ValidationError(f"{reader} takes no {', '.join(unread)}")


def _domain_from_args(args) -> catalog.DomainId:
    kind = (args.domain or "").strip().lower().replace("-", "").replace("_", "")
    if kind not in _READS:
        raise ValidationError(
            f"unknown domain {args.domain!r}; expected ball, ballproduct, d1..d6, t3, t4 or tube"
        )
    _refuse_unread(args, kind, _READS[kind])
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
    if not args.cone:
        raise ValidationError("tube needs --cone, e.g. --cone omega4")
    return catalog.tube(args.cone)


def _load_spec(args):
    """Domain from --spec JSON or from --domain flags; returns (spec, label).

    A --spec document whose cone check was sampled gets a one-line note on stderr.
    """
    if args.spec and args.domain:
        raise ValidationError("provide either --domain or --spec FILE, not both")
    if args.spec:
        _refuse_unread(args, "--spec", ())
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
    if not args.domain:
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
        "annihilator_count": len(cone.annihilator_terms),
    }
    if args.emit_bases:
        doc["g_basis"] = cone.g_basis
    if args.format == "json":
        _emit_json(doc)
    else:
        print(f"cone {cone.name}: k={cone.k} dim g={cone.dim_g} "
              f"isotropy bound={isotropy_bound(cone.k)}")
        print(f"interior point: ({', '.join(map(str, cone.interior_point))})")
        print(f"annihilators: {len(cone.annihilator_terms)}")
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


_FORMAT = {"--format": (("table", "json"), "")}
# the flags of dims and homogeneity that pick the domain: --spec, or --domain and the others
_DOMAIN_FLAGS = {
    "--domain": (str, "catalog domain, e.g. ball, d6, t3, ballproduct"),
    "--spec": (str, "path to a JSON domain document"),
    "--n": (int, "dimension parameter for ball/d1/d2"),
    "--factors": (str, "ball product factors, e.g. 2,1,1"),
    "--v": (str, "parameter vector for d5/d6, e.g. 1,1,0"),
    **dict.fromkeys(_PARAMETERS, (str, "")), "--cone": (str, "cone id for tube domains, e.g. omega4"),
}
# command: (handler, help line, {flag: (kind, help)}, required flags); a kind is int, str, bool
# (a switch) or a tuple of choices, the first of them the default
COMMANDS = {
    "cone-info": (_cmd_cone_info, "catalog cone summary",
                  {"--cone": (str, ""), "--emit-bases": (bool, ""), **_FORMAT}, ("--cone",)),
    "dims": (_cmd_dims, "graded component dimensions",
             {**_FORMAT, **_DOMAIN_FLAGS, "--emit-bases": (bool, "")}, ()),
    "homogeneity": (_cmd_homogeneity, "cone-transitivity verdict", {**_FORMAT, **_DOMAIN_FLAGS}, ()),
    "bounds": (_cmd_bounds, "dimension bound chain or margin sweep", {
        **_FORMAT, "--sweep": (int, f"sweep margins up to this n (5 to {SWEEP_MAX})"),
        **dict.fromkeys(("--n", "--k", "--s", "--dim-g-omega", "--g-half", "--g-one"), (int, ""))},
        ()),
    "classify": (_cmd_classify, "candidate table for 2 <= n <= 5",
                 {"--n": (int, ""), **_FORMAT}, ("--n",)),
    "verify-paper": (_cmd_verify_paper, "run the full acceptance battery", _FORMAT, ()),
}
_HELP = ("-h", "--help")


def _flag(token: str, names) -> tuple[str | None, str | None]:
    """The flag of ``names`` that ``token`` names or abbreviates ("" if none does, None if it is a
    value such as a negative number) and the value after its ``=`` (None if it has none)."""
    if token[:1] != "-" or token in ("-", "--"):
        return None, None
    name, eq, value = token.partition("=")
    if name not in names and token[1] != "-":  # one dash: "-hx" is -h given "x"
        name, eq, value = token[:2], "=", token[2:]
    matches = [name] if name in names else [f for f in names if name[1] == "-" and f.startswith(name)]
    if len(matches) > 1:
        raise ValidationError(f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], value if eq else None
    return None if " " in token or re.match(r"^-\d+$|^-\d*\.\d+$", token) else "", None


def _print_help(command: str | None, value: str | None) -> None:
    """Print the usage line, then each command, or each flag of ``command``, with its help; exit 0.
    A help flag given a value (``--help=x``) is refused instead."""
    if value is not None:
        raise ValidationError(f"argument -h/--help: ignored explicit argument {value!r}")
    if command is None:
        usage = f"[-h] {{{','.join(COMMANDS)}}} ..."
        rows = {name: entry[1] for name, entry in COMMANDS.items()}
    else:
        flags, required = COMMANDS[command][2:]
        rows = {flag if kind is bool else f"{flag} {{{','.join(kind)}}}" if isinstance(kind, tuple)
                else f"{flag} {flag[2:].upper().replace('-', '_')}": text
                for flag, (kind, text) in flags.items()}
        usage = " ".join([command, "[-h]", *(row if row.split()[0] in required else f"[{row}]"
                                             for row in rows)])
    print(f"usage: siegelalg {usage}\n")
    for left, right in {"-h, --help": "show this help message and exit", **rows}.items():
        print(f"  {left:<22}  {right}".rstrip())
    raise SystemExit(0)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The namespace the handlers read, by the standard library parser's rules and messages: a
    refused argument raises one ``ValidationError``; ``-h`` or ``--help`` prints usage and raises
    ``SystemExit(0)``."""
    # the command is the first value; a help flag before it prints help, other flags are strays
    at = next((i for i, token in enumerate(argv) if _flag(token, _HELP)[0] != ""), len(argv))
    name, value = _flag(argv[at], _HELP) if at < len(argv) else (None, None)
    if name:
        _print_help(None, value)
    if argv[at:] in ([], ["--"]):  # a last "--" is no command
        raise ValidationError("the following arguments are required: command")
    if (command := argv[at]) not in COMMANDS:
        raise ValidationError(f"argument command: invalid choice: {command!r} "
                              f"(choose from {', '.join(map(repr, COMMANDS))})")
    flags, required = COMMANDS[command][2:]
    tokens, unread = [*argv[at + 1:], "--"], list(argv[:at])  # unread: unknown flags, strays
    cut = tokens.index("--")  # "--" and every token after it are strays
    # each token is classified before any is read, so an ambiguous one is refused first
    read = iter([(token, *_flag(token, (*_HELP, *flags))) for token in tokens[:cut]])
    values = {flag: kind[0] if isinstance(kind, tuple) else False if kind is bool else None
              for flag, (kind, _) in flags.items()}
    for token, name, value in read:
        if name in _HELP:
            _print_help(command, value)
        if not name:
            unread.append(token)
            continue
        if (kind := flags[name][0]) is bool and value is not None:
            raise ValidationError(f"argument {name}: ignored explicit argument {value!r}")
        if kind is not bool and value is None:
            value, after, _ = next(read, ("", "", None))  # a flag that follows is no value
            if after is not None:
                raise ValidationError(f"argument {name}: expected one argument")
        try:
            values[name] = True if kind is bool else int(value) if kind is int else value
        except ValueError:
            raise ValidationError(f"argument {name}: invalid int value: {value!r}") from None
        if isinstance(kind, tuple) and value not in kind:
            raise ValidationError(f"argument {name}: invalid choice: {value!r} "
                                  f"(choose from {', '.join(map(repr, kind))})")
    if missing := [flag for flag in required if values[flag] is None]:
        raise ValidationError(f"the following arguments are required: {', '.join(missing)}")
    if unread := unread + tokens[cut:-1]:
        raise ValidationError(f"unrecognized arguments: {' '.join(unread)}")
    return SimpleNamespace(command=command,
                           **{flag[2:].replace("-", "_"): x for flag, x in values.items()})


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        return COMMANDS[args.command][0](args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a domain too large to hold, refused by the allocator
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Exit codes: 0 when the requested check holds (or the command has nothing to
check), 1 when an identity is violated (both sides and a witness are
printed), 2 on parse errors, bad inputs, or hypothesis failures.

Input paths are resolved relative to the working directory first, then
against EULERCC_FIXTURE_DIR when set.
"""

from __future__ import annotations

import argparse
import os
import sys

from .charcycle import CharacteristicCycle
from .complexes import EmbeddedComplex, validate
from .constructible import dual, euler_integral
from .errors import (
    DegeneracyError,
    HypothesisViolationError,
    InputError,
    NonConvergenceError,
    UnstableLevelError,
)
from .fixtures import builtin_fixtures, fixture_by_name
from .intersect import (
    TheoremReport,
    boundary_estimate_check,
    global_index,
    local_index,
    verify_theorem1,
)
from .io import (
    dumps,
    emit_affine,
    emit_complex,
    emit_constructible,
    load_json,
    parse_affine,
    parse_complex,
    parse_constructible,
    parse_rational,
    simplex_key,
)
from .linalg import format_rational
from .subdivision import barycentric_subdivide

FIXTURE_DIR_ENV = "EULERCC_FIXTURE_DIR"


def _resolve(path: str) -> str:
    if os.path.exists(path) or os.path.isabs(path):
        return path
    base = os.environ.get(FIXTURE_DIR_ENV)
    if base:
        candidate = os.path.join(base, path)
        if os.path.exists(candidate):
            return candidate
    return path


def _load_complex(args) -> EmbeddedComplex:
    return parse_complex(load_json(_resolve(args.complex)))


def _load_alpha(args, cx: EmbeddedComplex):
    return parse_constructible(load_json(_resolve(args.alpha)), cx)


def _load_function(path: str, cx: EmbeddedComplex):
    return parse_affine(load_json(_resolve(path)), cx.ambient_dim)


def _emit(args, payload: dict, human: str) -> None:
    if args.output == "json":
        sys.stdout.write(dumps(payload))
    else:
        print(human)


def _report_exit(args, report: TheoremReport) -> int:
    payload = {
        "command": report.name,
        "report": report,
    }
    verdict = "HOLDS" if report.holds else "VIOLATED"
    human = f"{report.name}: {verdict}  lhs = {report.lhs}  rhs = {report.rhs}"
    if not report.holds:
        human += "\nwitness:\n" + dumps(report.artifacts).rstrip("\n")
    _emit(args, payload, human)
    return 0 if report.holds else 1


def _cmd_validate(args) -> int:
    cx = _load_complex(args)
    violations = validate(cx)
    payload = {
        "command": "validate",
        "valid": not violations,
        "violations": [
            {"kind": v.kind, "simplices": v.simplices, "detail": v.detail}
            for v in violations
        ],
    }
    if violations:
        lines = [f"{v.kind}: {v.detail} at {list(v.simplices)}" for v in violations]
        _emit(args, payload, "invalid\n" + "\n".join(lines))
        return 2
    _emit(args, payload, "valid")
    return 0


def _cmd_euler(args) -> int:
    cx = _load_complex(args)
    alpha = _load_alpha(args, cx)
    value = euler_integral(alpha)
    _emit(args, {"command": "euler", "value": value}, str(value))
    return 0


def _cmd_dual(args) -> int:
    cx = _load_complex(args)
    alpha = _load_alpha(args, cx)
    result = dual(alpha)
    payload = {"command": "dual", "result": emit_constructible(result)}
    human = "\n".join(
        f"{simplex_key(s)}: {result.value(s)}"
        for s in cx.simplices_sorted()
        if result.value(s)
    )
    _emit(args, payload, human if human else "0")
    return 0


def _cmd_cc(args) -> int:
    cx = _load_complex(args)
    alpha = _load_alpha(args, cx)
    cc = CharacteristicCycle(alpha)
    strata: dict[str, list[dict]] = {}
    support: list[str] = []
    for s in cx.simplices_sorted():
        rows = []
        any_nonzero = False
        for chamber, mult in cc.chamber_multiplicities(s):
            rows.append(
                {
                    "sign_vector": [[vid, sign] for vid, sign in chamber.sign_vector],
                    "witness": chamber.witness,
                    "multiplicity": mult,
                }
            )
            any_nonzero = any_nonzero or mult != 0
        strata[simplex_key(s)] = rows
        if any_nonzero:
            support.append(simplex_key(s))
    payload = {"command": "cc", "strata": strata, "support": support}
    lines = []
    for key in sorted(strata):
        rows = strata[key]
        nonzero = sum(1 for r in rows if r["multiplicity"])
        lines.append(f"stratum {key}: {len(rows)} chambers, {nonzero} nonzero")
    lines.append("support: " + ("; ".join(support) if support else "(empty)"))
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_global_index(args) -> int:
    cx = _load_complex(args)
    alpha = _load_alpha(args, cx)
    return _report_exit(args, global_index(alpha, seed=args.seed))


def _cmd_local_index(args) -> int:
    cx = _load_complex(args)
    alpha = _load_alpha(args, cx)
    return _report_exit(args, local_index(alpha, args.vertex, seed=args.seed))


def _cmd_theorem1(args) -> int:
    cx = _load_complex(args)
    alpha = _load_alpha(args, cx)
    func = _load_function(args.f, cx)
    return _report_exit(args, verify_theorem1(alpha, func, seed=args.seed))


def _cmd_boundary_estimate(args) -> int:
    cx = _load_complex(args)
    alpha = _load_alpha(args, cx)
    func = _load_function(args.g, cx)
    report = boundary_estimate_check(
        alpha, func, parse_rational(args.delta), args.side
    )
    return _report_exit(args, report)


def _cmd_subdivide(args) -> int:
    cx = _load_complex(args)
    result = barycentric_subdivide(cx, args.times)
    payload = {"command": "subdivide", "complex": emit_complex(result.complex)}
    human = (
        f"{len(result.complex.simplices)} simplices, "
        f"{len(result.complex.vertices)} vertices"
    )
    _emit(args, payload, human)
    return 0


def _cmd_fixtures(args) -> int:
    if args.action == "list":
        names = [fx.name for fx in builtin_fixtures()]
        _emit(args, {"command": "fixtures", "names": names}, "\n".join(names))
        return 0
    # dump
    if not args.name:
        raise InputError("fixtures dump requires --name")
    fx = fixture_by_name(args.name)
    payload = {
        "command": "fixtures",
        "name": fx.name,
        "complex": emit_complex(fx.complex),
        "functions": {k: emit_constructible(v) for k, v in fx.functions.items()},
        "morse_inputs": {k: emit_affine(v) for k, v in fx.morse_inputs.items()},
        "cut_function": fx.cut_function,
        "cut_levels": [format_rational(c) for c in fx.cut_levels],
    }
    if args.dir:
        os.makedirs(args.dir, exist_ok=True)
        written = []

        def _write(name: str, obj) -> None:
            path = os.path.join(args.dir, name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(dumps(obj))
            written.append(path)

        _write(f"{fx.name}.complex.json", emit_complex(fx.complex))
        for k, v in fx.functions.items():
            _write(f"{fx.name}.alpha.{k}.json", emit_constructible(v))
        for k, v in fx.morse_inputs.items():
            _write(f"{fx.name}.f.{k}.json", emit_affine(v))
        _emit(
            args,
            {"command": "fixtures", "written": written},
            "\n".join(written),
        )
        return 0
    _emit(args, payload, dumps(payload).rstrip("\n"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulercc",
        description="Exact Euler-calculus and characteristic-cycle verifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, **help_kw):
        p = sub.add_parser(name, **help_kw)
        p.set_defaults(handler=handler)
        p.add_argument(
            "--output", choices=("human", "json"), default="human",
            help="report format (default human)",
        )
        return p

    p = add("validate", _cmd_validate, help="check a complex for well-formedness")
    p.add_argument("--complex", required=True)

    p = add("euler", _cmd_euler, help="Euler integral of a constructible function")
    p.add_argument("--complex", required=True)
    p.add_argument("--alpha", required=True)

    p = add("dual", _cmd_dual, help="Verdier dual of a constructible function")
    p.add_argument("--complex", required=True)
    p.add_argument("--alpha", required=True)

    p = add("cc", _cmd_cc, help="characteristic-cycle chambers and multiplicities")
    p.add_argument("--complex", required=True)
    p.add_argument("--alpha", required=True)

    p = add("global-index", _cmd_global_index, help="Morse count against the Euler integral")
    p.add_argument("--complex", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = add("local-index", _cmd_local_index, help="recover a stalk value by local Morse counting")
    p.add_argument("--complex", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = add("theorem1", _cmd_theorem1, help="intersection identity for one level function")
    p.add_argument("--complex", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--f", required=True, help="affine level function (JSON)")
    p.add_argument("--seed", type=int, default=0)

    p = add("boundary-estimate", _cmd_boundary_estimate,
            help="support bound for half-space extensions")
    p.add_argument("--complex", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--g", required=True, help="affine cut function (JSON)")
    p.add_argument("--delta", required=True, help="cut level, rational")
    p.add_argument("--side", choices=("shriek", "star"), default="shriek",
                   help="which extension across the cut to bound")

    p = add("subdivide", _cmd_subdivide, help="barycentric subdivision")
    p.add_argument("--complex", required=True)
    p.add_argument("--times", type=int, default=1)

    p = add("fixtures", _cmd_fixtures, help="list or dump builtin fixtures")
    p.add_argument("action", choices=("list", "dump"))
    p.add_argument("--name")
    p.add_argument("--dir", help="write files into this directory instead of stdout")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisViolationError as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        if exc.witness is not None:
            sys.stderr.write(dumps({"witness": exc.witness}))
        return 2
    except (DegeneracyError, UnstableLevelError) as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        witness = getattr(exc, "witness", None)
        if witness is not None:
            sys.stderr.write(dumps({"witness": witness}))
        return 2
    except NonConvergenceError as exc:
        print(f"no stable answer: {exc}", file=sys.stderr)
        if exc.trace is not None:
            sys.stderr.write(dumps({"trace": exc.trace}))
        return 2


if __name__ == "__main__":
    sys.exit(main())

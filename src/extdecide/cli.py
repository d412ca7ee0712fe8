"""Command-line front end.

Commands: `diff build`, `diff check`, `tower verify`, `decide`, `gen`.

Every invocation that reaches a command emits exactly one JSON report on
stdout; a human-readable summary goes to stderr (suppress it with
--quiet, or silence stderr entirely with --json-only).  No color is ever
emitted, so NO_COLOR needs no special handling.

Exit codes: 0 success/verified, 1 semantic failure (violations, verdict
disagreement), 2 input error (bad arguments or unparseable files),
3 unsupported-mode refusal (e.g. --oracle on an infinite ground group).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from sympy import isprime

from . import fileformat as ff
from .decide import (
    GenParams,
    OracleUnavailableError,
    brute_force,
    generate_instance,
    validate_instance,
)
from .decide import decide as run_decide
from .diffcalc import build_diff_operator, check_congruence, random_algebra, random_map
from .abelian import FgAbGroup
from .tower import build_ladder, verify_ladder

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3


def _integer(accept, message: str):
    """argparse type: an integer that passes accept, else message with
    the value in place of {}."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if not accept(value):
            raise argparse.ArgumentTypeError(message.format(value))
        return value

    return parse


_prime = _integer(isprime, "{} is not prime")
_positive = _integer(lambda v: v >= 1, "value must be >= 1")
_non_negative = _integer(lambda v: v >= 0, "value must be >= 0")


def _add_output_flags(parser):
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the stderr summary"
    )
    parser.add_argument(
        "--json-only", action="store_true", help="write nothing to stderr"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extdecide",
        description="difference operators, tower actions and extension decisions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    diff = sub.add_parser("diff", help="difference-operator commands")
    diff_sub = diff.add_subparsers(dest="subcommand", required=True)

    build = diff_sub.add_parser("build", help="build a reduction operator")
    build.add_argument("--p", type=_prime, required=True, help="prime base")
    build.add_argument("--m", type=_positive, required=True, help="modulus exponent")
    build.add_argument("--l0", type=_positive, required=True, help="minimum order")
    build.add_argument("--out", type=Path, help="write the operator file here")
    _add_output_flags(build)
    build.set_defaults(handler=cmd_diff_build)

    check = diff_sub.add_parser("check", help="audit an operator's congruence")
    check.add_argument("--operator", type=Path, help="operator file to audit")
    check.add_argument("--p", type=_prime, help="prime base (without a file)")
    check.add_argument("--m", type=_positive, help="modulus exponent")
    check.add_argument("--l0", type=_positive, help="minimum order")
    check.add_argument("--trials", type=_non_negative, default=50)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--max-s", type=_positive, default=6)
    check.add_argument("--max-t", type=_positive, default=6)
    _add_output_flags(check)
    check.set_defaults(handler=cmd_diff_check)

    tower = sub.add_parser("tower", help="tower commands")
    tower_sub = tower.add_subparsers(dest="subcommand", required=True)
    verify = tower_sub.add_parser("verify", help="build and audit the action ladder")
    verify.add_argument("file", type=Path, help="tower file")
    verify.add_argument("--l0", type=_positive, default=2, help="minimum order")
    verify.add_argument(
        "--dump-ladder", type=Path, help="write the ladder audit export here"
    )
    _add_output_flags(verify)
    verify.set_defaults(handler=cmd_tower_verify)

    dec = sub.add_parser("decide", help="run the decision procedure")
    dec.add_argument("file", type=Path, help="instance file")
    dec.add_argument(
        "--oracle", action="store_true",
        help="also run the exhaustive oracle and compare",
    )
    _add_output_flags(dec)
    dec.set_defaults(handler=cmd_decide)

    gen = sub.add_parser("gen", help="generate a random valid instance file")
    gen.add_argument("--out", type=Path, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--theta", type=_positive)
    gen.add_argument("--desired", choices=["YES", "NO"])
    gen.add_argument("--max-rank", type=_positive, default=2)
    gen.add_argument("--max-classes", type=_positive, default=4096)
    _add_output_flags(gen)
    gen.set_defaults(handler=cmd_gen)

    return parser


def _read_json(path: Path):
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ff.FileFormatError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw.decode("utf-8")), ff.digest(raw)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ff.FileFormatError(f"{path}: {exc}") from exc


def cmd_diff_build(args, report):
    op = build_diff_operator(args.p, args.m, args.l0)
    report["result"] = {"operator": ff.dump_operator(op)}
    if args.out:
        text = ff.canonical_json(ff.dump_operator(op))
        args.out.write_text(text)
        report["output"] = {"path": str(args.out), "digest": ff.digest(text.encode())}
    terms = " + ".join(f"{c}*D[{s}]" for c, s in op.terms)
    summary = [
        f"operator mod {op.q}: order {op.order}, theta {op.theta}",
        f"terms: {terms}",
    ]
    return EXIT_OK, summary


def cmd_diff_check(args, report):
    if args.operator:
        data, input_digest = _read_json(args.operator)
        op = ff.load_operator(data)
        report["input_digest"] = input_digest
    else:
        if args.p is None or args.m is None or args.l0 is None:
            raise ff.FileFormatError(
                "either --operator or all of --p/--m/--l0 are required"
            )
        op = build_diff_operator(args.p, args.m, args.l0)
    report["seed"] = args.seed
    rng = random.Random(args.seed)
    q = op.q
    targets = (FgAbGroup((q,)), FgAbGroup((q, q)), FgAbGroup((2 * q,)))
    checks = 0
    violations = []
    if args.trials == 0:
        report["warnings"].append("zero trials requested: nothing was checked")
    for trial in range(args.trials):
        algebra = random_algebra(rng, args.max_s, args.max_t)
        f = random_map(rng, algebra, targets[trial % len(targets)])
        result = check_congruence(op, f)
        checks += result.checks
        for x, y, residual in result.violations:
            violations.append(
                {"trial": trial, "x": x, "y": y,
                 "residual": [int(c) for c in residual.coords]}
            )
    report["result"] = {
        "operator": ff.dump_operator(op),
        "trials": args.trials,
        "violations": violations[:20],
        "violations_total": len(violations),
    }
    report["counters"]["checks"] = checks
    summary = [
        f"congruence mod {op.q} at theta {op.theta}: "
        f"{checks} pairs checked over {args.trials} trials, "
        f"{len(violations)} violations"
    ]
    return (EXIT_OK if not violations else EXIT_SEMANTIC), summary


def cmd_tower_verify(args, report):
    data, input_digest = _read_json(args.file)
    report["input_digest"] = input_digest
    tower = ff.load_tower(data)
    ladder = build_ladder(tower, min_order=args.l0)
    audit = verify_ladder(tower, ladder)
    report["result"] = {
        "stages": list(tower.sizes),
        "thetas": [ff._enc_int(t) for t in ladder.thetas],
        "common_theta": ff._enc_int(ladder.common_theta),
        "violations": [list(map(str, v)) for v in audit.violations[:20]],
        "violations_total": len(audit.violations),
    }
    report["counters"]["checks"] = audit.checks
    if args.dump_ladder:
        text = ff.canonical_json(ff.dump_ladder(ladder))
        args.dump_ladder.write_text(text)
        report["output"] = {
            "path": str(args.dump_ladder), "digest": ff.digest(text.encode())
        }
    summary = [
        f"stages {list(tower.sizes)}, scales {list(ladder.thetas)} "
        f"(common {ladder.common_theta})",
        f"{audit.checks} checks, {len(audit.violations)} violations",
    ]
    return (EXIT_OK if audit.ok else EXIT_SEMANTIC), summary


def _verdict_dict(verdict) -> dict:
    return {
        "answer": verdict.answer,
        "witness": ff._enc_id(verdict.witness) if verdict.witness is not None else None,
        "base_solution": (
            [ff._enc_int(c) for c in verdict.base_solution.coords]
            if verdict.base_solution is not None
            else None
        ),
        "rep_count": verdict.rep_count,
    }


def cmd_decide(args, report):
    data, input_digest = _read_json(args.file)
    report["input_digest"] = input_digest
    inst = ff.load_instance(data)
    audit = validate_instance(inst)
    report["counters"]["checks"] = audit.checks
    if not audit.ok:
        report["result"] = {
            "validation": {
                "violations": [list(map(str, v)) for v in audit.violations[:20]],
                "violations_total": len(audit.violations),
            }
        }
        return EXIT_SEMANTIC, [
            f"instance invalid: {len(audit.violations)} violations"
        ]
    verdict = run_decide(inst)
    result = {"verdict": _verdict_dict(verdict), "validation": {"violations_total": 0}}
    summary = [
        f"answer {verdict.answer}"
        + (f", witness {verdict.witness}" if verdict.answer == "YES" else "")
        + f", {verdict.rep_count} representatives scanned"
    ]
    code = EXIT_OK
    if args.oracle:
        try:
            oracle = brute_force(inst)
        except OracleUnavailableError as exc:
            report["result"] = result
            report["warnings"].append(str(exc))
            return EXIT_UNSUPPORTED, summary + [f"oracle refused: {exc}"]
        result["oracle"] = _verdict_dict(oracle)
        agrees = oracle.answer == verdict.answer
        result["oracle_agrees"] = agrees
        summary.append(f"oracle answer {oracle.answer} ({'agrees' if agrees else 'DISAGREES'})")
        if not agrees:
            code = EXIT_SEMANTIC
    report["result"] = result
    return code, summary


def cmd_gen(args, report):
    report["seed"] = args.seed
    params = GenParams(max_rank=args.max_rank, max_classes=args.max_classes)
    try:
        inst = generate_instance(
            args.seed, theta=args.theta, desired=args.desired, params=params
        )
    except ValueError as exc:
        raise ff.FileFormatError(str(exc)) from exc
    audit = validate_instance(inst)
    if not audit.ok:
        raise AssertionError(
            f"generator produced an invalid instance: {audit.violations[:3]}"
        )
    text = ff.canonical_json(ff.dump_instance(inst))
    args.out.write_text(text)
    report["result"] = {
        "path": str(args.out),
        "digest": ff.digest(text.encode()),
        "theta": ff._enc_int(inst.theta),
        "classes_x": len(inst.x_classes),
        "classes_a": len(inst.a_classes),
        "desired": args.desired,
    }
    report["counters"]["checks"] = audit.checks
    summary = [
        f"wrote {args.out}: theta {inst.theta}, "
        f"{len(inst.x_classes)} x-classes, {len(inst.a_classes)} a-classes"
    ]
    return EXIT_OK, summary


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command + (
        f" {args.subcommand}" if getattr(args, "subcommand", None) else ""
    )
    report = {
        "format_version": ff.FORMAT_VERSION,
        "command": command,
        "input_digest": None,
        "seed": None,
        "result": None,
        "counters": {"checks": 0, "duration_s": 0.0},
        "warnings": [],
    }
    started = time.perf_counter()
    try:
        code, summary = args.handler(args, report)
    except ff.FileFormatError as exc:
        report["error"] = str(exc)
        code, summary = EXIT_INPUT, [f"input error: {exc}"]
    except OracleUnavailableError as exc:
        report["error"] = str(exc)
        code, summary = EXIT_UNSUPPORTED, [f"unsupported: {exc}"]
    except OSError as exc:
        report["error"] = str(exc)
        code, summary = EXIT_INPUT, [f"i/o error: {exc}"]
    report["counters"]["duration_s"] = round(time.perf_counter() - started, 6)
    sys.stdout.write(ff.canonical_json(report))
    if not args.json_only:
        lines = [] if args.quiet else list(summary)
        lines += [f"warning: {w}" for w in report["warnings"]]
        for line in lines:
            sys.stderr.write(line + "\n")
    return code


def entry() -> None:
    sys.exit(main())

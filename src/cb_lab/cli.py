"""Command-line surface: generate, check-cb, cover, verify-conjecture, matroid, search.

Every subcommand is a thin adapter over the library and returns the same
results as direct calls.  Exit codes: 0 success / verdict true, 1 asserted
verdict false, 2 usage error, 3 search budget exceeded.  All randomness
flows from the explicit --seed; --json switches stdout to machine-readable
JSON.  The environment variable CB_LAB_NODE_BUDGET overrides the default
search budget.
"""

from __future__ import annotations

import argparse
import json
import sys

from .campaign import CampaignSpec, counterexample_search, exhaustive_lower_bound, replay_record, run_campaign
from .cb import is_cb
from .cover import exists_cover, min_cover
from .errors import BudgetExceededError, CbLabError
from .fields import FieldSpec
from .generators import FAMILIES, GenSpec, generate
from .matroid import Matroid, exists_flat_cover, is_mcb
from .projective import PointSet

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _parse_field(text: str) -> FieldSpec:
    if text.upper() in ("Q", "RATIONAL"):
        return FieldSpec.rational()
    return FieldSpec.prime(int(text))


def _parse_params(text: str) -> dict:
    params = {}
    if not text:
        return params
    for item in text.split(","):
        key, _, val = item.partition("=")
        if not _:
            raise ValueError(f"bad --params entry {item!r}, expected key=value")
        if ":" in val:
            params[key.strip()] = [int(x) for x in val.split(":")]
        else:
            params[key.strip()] = int(val)
    return params


def _load_points(path: str) -> PointSet:
    with open(path) as fh:
        return PointSet.from_json(json.load(fh))


def _emit(obj, as_json: bool, text_lines):
    if as_json:
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_generate(args) -> int:
    if args.spec:
        with open(args.spec) as fh:
            spec = GenSpec.from_json(json.load(fh))
    else:
        if not args.family:
            print("error: --family or --spec required", file=sys.stderr)
            return EXIT_USAGE
        spec = GenSpec.make(
            args.family, _parse_params(args.params or ""),
            _parse_field(args.field), args.seed,
        )
    gamma, _cfg = generate(spec)
    payload = gamma.to_json()
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
    _emit(payload, args.json or not args.output,
          [f"wrote {len(gamma)} points to {args.output}"] if args.output else [])
    return EXIT_OK


def _cmd_check_cb(args) -> int:
    gamma = _load_points(args.input)
    report = is_cb(gamma, args.r)
    obj = report.to_json(gamma.field)
    lines = [f"CB({args.r}): {'true' if report.verdict else 'false'}"]
    if report.witness is not None:
        lines.append(f"witness omits point {report.witness.omitted_point_index}")
        lines.append(f"witness form coefficients: {obj['witness']['form']}")
    _emit(obj, args.json, lines)
    return EXIT_OK if report.verdict else EXIT_FALSE


def _cmd_cover(args) -> int:
    gamma = _load_points(args.input)
    if args.min:
        res = min_cover(gamma)
    else:
        res = exists_cover(gamma, args.dim, args.max_length or args.dim)
    obj = res.to_json()
    lines = [
        f"cover found: {res.found}"
        + (f" (dim {res.dim}, length {res.length})" if res.found else ""),
        f"nodes explored: {res.nodes_explored}",
    ]
    _emit(obj, args.json, lines)
    return EXIT_OK if res.found else EXIT_FALSE


def _cmd_verify_conjecture(args) -> int:
    if args.replay:
        with open(args.replay) as fh:
            record = json.load(fh)
        out = replay_record(record)
        _emit(out, args.json, [f"replay matches: {out['matches']}"])
        return EXIT_OK if out["matches"] else EXIT_FALSE
    spec = CampaignSpec(
        target="conjecture", d_values=(args.d,), r_values=tuple(args.r),
        field=_parse_field(args.field), trials=args.trials, seed=args.seed,
    )
    report = run_campaign(spec)
    obj = report.to_json()
    nviol = len(report.violations)
    _emit(obj, args.json, [
        f"trials: {len(report.records)}",
        f"violations: {nviol}",
    ])
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report.dumps())
    return EXIT_OK if nviol == 0 else EXIT_FALSE


def _cmd_matroid(args) -> int:
    gamma = _load_points(args.input)
    m = Matroid.from_points(gamma)
    code = EXIT_OK
    obj = {}
    lines = []
    if args.mcb is not None:
        rep = is_mcb(m, args.mcb)
        obj["mcb"] = rep.to_json()
        lines.append(f"MCB({args.mcb}): {'true' if rep.verdict else 'false'}")
        if not rep.verdict:
            code = EXIT_FALSE
    if args.flat_cover:
        dims = [int(x) for x in args.flat_cover.split(",")]
        got = exists_flat_cover(m, dims)
        obj["flat_cover"] = got
        lines.append(f"flat cover {dims}: {'found ' + str(got) if got else 'none'}")
        if got is None:
            code = EXIT_FALSE
    if not obj:
        print("error: need --mcb and/or --flat-cover", file=sys.stderr)
        return EXIT_USAGE
    _emit(obj, args.json, lines)
    return code


def _cmd_search(args) -> int:
    field = _parse_field(args.field)
    if args.mode == "lower-bound":
        report = exhaustive_lower_bound(field, args.ambient, args.r)
    else:
        if args.d is None or args.size_cap is None:
            print("error: counterexample mode needs --d and --size-cap", file=sys.stderr)
            return EXIT_USAGE
        report = counterexample_search(field, args.ambient, args.r, args.d, args.size_cap)
    obj = report.to_json()
    nviol = len(report.violations)
    _emit(obj, args.json, [
        f"subsets examined: {sum(r.get('subsets', 0) for r in report.records)}",
        f"violations: {nviol}",
    ])
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report.dumps())
    return EXIT_OK if nviol == 0 else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cb-lab",
        description="Exact Cayley-Bacharach experiments: CB(r) verdicts, "
        "plane-configuration covers, matroid analogs, verification campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate an example-family point set")
    g.add_argument("--family", choices=tuple(FAMILIES))
    g.add_argument("--params", help="comma list key=value (lists as a:b:c)")
    g.add_argument("--field", default="101", help="prime p or Q")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--spec", help="GenSpec JSON file (overrides the flags)")
    g.add_argument("-o", "--output")
    g.add_argument("--json", action="store_true")
    g.set_defaults(func=_cmd_generate)

    c = sub.add_parser("check-cb", help="decide CB(r) for a point set")
    c.add_argument("-i", "--input", required=True)
    c.add_argument("--r", type=int, required=True)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_check_cb)

    v = sub.add_parser("cover", help="search for a plane-configuration cover")
    v.add_argument("-i", "--input", required=True)
    v.add_argument("--dim", type=int)
    v.add_argument("--max-length", type=int)
    v.add_argument("--min", action="store_true", help="minimal (dim, length) cover")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=_cmd_cover)

    j = sub.add_parser("verify-conjecture", help="run a covering-conjecture campaign")
    j.add_argument("--d", type=int)
    j.add_argument("--r", type=int, action="append")
    j.add_argument("--trials", type=int, default=20)
    j.add_argument("--seed", type=int, default=0)
    j.add_argument("--field", default="101")
    j.add_argument("--replay", help="re-verify a single record JSON file")
    j.add_argument("-o", "--output")
    j.add_argument("--json", action="store_true")
    j.set_defaults(func=_cmd_verify_conjecture)

    m = sub.add_parser("matroid", help="matroid CB condition and flat covers")
    m.add_argument("-i", "--input", required=True)
    m.add_argument("--mcb", type=int)
    m.add_argument("--flat-cover", help="comma list of flat dimensions")
    m.add_argument("--json", action="store_true")
    m.set_defaults(func=_cmd_matroid)

    s = sub.add_parser("search", help="exhaustive lower-bound / counterexample scans")
    s.add_argument("--mode", choices=("lower-bound", "counterexample"), required=True)
    s.add_argument("--field", required=True)
    s.add_argument("--ambient", type=int, required=True)
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--d", type=int)
    s.add_argument("--size-cap", type=int)
    s.add_argument("-o", "--output")
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.command == "verify-conjecture" and not args.replay:
        if args.d is None or not args.r:
            print("error: --d and --r required (or --replay)", file=sys.stderr)
            return EXIT_USAGE
    if args.command == "cover" and not args.min and args.dim is None:
        print("error: --dim required unless --min", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (CbLabError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

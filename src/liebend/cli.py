"""Command-line front end.

Subcommands:
    reproduce sec53                      the sl(5,R) partition table
    reproduce sec6 --p P --q Q           the su(p,q) family table
    bend --preset NAME | --plan FILE     bending pipeline with certificate
    check --family ... --ah FILE         user-supplied properness screening

Exit codes: 0 all verdicts match expectations, 1 mismatch or failed
certificate, 2 input error.
"""

import argparse
import json
import sys

from . import config as config_mod
from . import serialize
from .algebra import PARAM_NAMES, make_algebra
from .errors import LieBendError
from .report import (PRESETS, cmd_bend, cmd_check, cmd_reproduce_sec53,
                     cmd_reproduce_sec6, compare_to_golden, load_golden)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2


def _add_output(parser):
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="as_json", action="store_true")
    fmt.add_argument("--text", dest="as_json", action="store_false")
    parser.set_defaults(as_json=True)
    parser.add_argument("--timings", action="store_true",
                        help="include wall-clock timings (non-canonical output)")
    parser.add_argument("--out", help="write the report here")


def _number(text):
    try:
        return float(text)
    except ValueError:
        return text  # Config rejects it, naming the key


def _build_config(args):
    overrides = {}
    if args.tol is not None:
        overrides["membership_rtol"] = args.tol
    if args.t_grid is not None:
        overrides["t_grid"] = [_number(x) for x in args.t_grid.split(",")]
    return config_mod.load(args.config, **overrides)


def _emit(report, args):
    payload = report.to_json(args.timings) if args.as_json else report.to_text(args.timings)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _golden_verdict(report, golden_name, prefix=""):
    """Compare the report with every golden row whose id starts with the
    prefix: a row the report lacks is a mismatch too."""
    golden = load_golden(golden_name)
    rows = {k: v for k, v in golden.items() if k.startswith(prefix)}
    ok, mismatches = compare_to_golden(report, rows)
    if not ok:
        sys.stderr.write("golden mismatches:\n" + serialize.dumps(mismatches) + "\n")
    return EXIT_OK if ok else EXIT_MISMATCH


# check's family parameters: --n for sl, --p and --q for su
_CHECK_PARAMS = sorted({k for names in PARAM_NAMES.values() for k in names})


def _build_parser():
    """The argument parser; `_PARSER`, built once when the module is
    imported, serves every main call."""
    parser = argparse.ArgumentParser(prog="liebend")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rep = sub.add_parser("reproduce", help="reproduce a worked-example table")
    rep_sub = p_rep.add_subparsers(dest="table", required=True)
    p53 = rep_sub.add_parser("sec53")
    p53.add_argument("--witness", action="store_true", help="add orbit members' Weyl witnesses")
    _add_output(p53)
    p6 = rep_sub.add_parser("sec6")
    p6.add_argument("--p", type=int, required=True)
    p6.add_argument("--q", type=int, required=True)
    _add_output(p6)

    p_bend = sub.add_parser("bend", help="run the bending pipeline")
    src = p_bend.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=sorted(PRESETS))
    src.add_argument("--plan", help="plan JSON file")
    # the float lane's settings: bend alone reads them
    p_bend.add_argument("--tol", type=float, help="membership tolerance override")
    p_bend.add_argument("--t-grid", help="comma-separated bending parameters to try in order")
    p_bend.add_argument("--config", help="JSON config file")
    _add_output(p_bend)

    p_check = sub.add_parser("check", help="properness screening for a subalgebra")
    p_check.add_argument("--family", choices=sorted(PARAM_NAMES), required=True)
    for name in _CHECK_PARAMS:
        p_check.add_argument(f"--{name}", type=int)
    p_check.add_argument("--ah", required=True,
                         help="JSON file: list of rows of exact rationals")
    _add_output(p_check)
    return parser


_PARSER = _build_parser()


def main(argv=None):
    parser = _PARSER
    args = parser.parse_args(argv)
    try:
        # the exact lane reads no setting: its commands run at the default
        cfg = _build_config(args) if args.command == "bend" else config_mod.DEFAULT
        if args.command == "reproduce" and args.table == "sec53":
            report = cmd_reproduce_sec53(cfg, witness=args.witness)
            _emit(report, args)
            return _golden_verdict(report, "golden_sec53.json")
        if args.command == "reproduce" and args.table == "sec6":
            report = cmd_reproduce_sec6(args.p, args.q, cfg)
            _emit(report, args)
            p, q = make_algebra("su", args.p, args.q).params
            return _golden_verdict(report, "golden_sec6.json", f"sec6/su({p},{q})/")
        if args.command == "bend":
            if args.plan:
                with open(args.plan) as fh:
                    plan_spec = json.load(fh)
            else:
                plan_spec = args.preset
            report = cmd_bend(plan_spec, cfg)
            _emit(report, args)
            cert = next(c for c in report.checks if c.check_id == "bend/certificate")
            return EXIT_OK if cert.verdict["verdict"] == "PASS" else EXIT_MISMATCH
        if args.command == "check":
            names = PARAM_NAMES[args.family]
            if any(getattr(args, k) is None for k in names):
                parser.error(f"--family {args.family} needs "
                             + " and ".join(f"--{k}" for k in names))
            extra = [k for k in _CHECK_PARAMS if k not in names and getattr(args, k) is not None]
            if extra:
                parser.error(f"--family {args.family} does not take "
                             + " or ".join(f"--{k}" for k in extra))
            family_spec = {"family": args.family, **{k: getattr(args, k) for k in names}}
            with open(args.ah) as fh:
                rows = json.load(fh)
            report = cmd_check(family_spec, rows, cfg)
            _emit(report, args)
            return EXIT_OK
    except (LieBendError, OSError, json.JSONDecodeError) as ex:
        sys.stderr.write(f"input error: {ex}\n")
        return EXIT_INPUT
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

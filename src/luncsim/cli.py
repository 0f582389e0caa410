"""Command line front end.

Exit codes: 0 clean run, 2 the chain ended halted, 3 an invariant check
failed, 4 unreadable genesis/scenario input, 1 anything unexpected.
Set LUNCSIM_LOG=debug for per-block chatter.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .errors import ChainHalted, InvariantViolation, ParseError, SimError
from .fees import NATIVE_DENOMS, estimate_fee
from .genesis import build_state, load_genesis_file
from .inputs import fraction, integer
from .report import write_reports
from .scenario import load_scenario_file, parse_scenario
from .simulator import run_scenario
from .treasury import DEFAULT_TAX_CAP
from . import scenarios

log = logging.getLogger("luncsim")


def _setup_logging() -> None:
    level_name = os.environ.get("LUNCSIM_LOG", "warning").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="luncsim",
        description="Deterministic replay of Luna Classic emergency mechanisms.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="accepted for interface parity; runs are "
                             "deterministic so the value changes nothing")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a genesis + scenario pair")
    p_run.add_argument("--genesis", required=True)
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--out", default=None,
                       help="directory for blocks.csv and summary.json")
    p_run.add_argument("--strict-halt", action="store_true",
                       help="treat the first halt as terminal")

    p_replay = sub.add_parser("replay", help="run a bundled scenario by name")
    p_replay.add_argument("name", nargs="?", default=None)
    p_replay.add_argument("--list", action="store_true",
                          help="list bundled scenario names and exit")
    p_replay.add_argument("--out", default=None)
    p_replay.add_argument("--strict-halt", action="store_true")

    p_fee = sub.add_parser("estimate-fee",
                           help="quote the burn tax for a transfer amount")
    p_fee.add_argument("--amount", required=True,
                       help="principal in micro units")
    p_fee.add_argument("--denom", default="uluna")
    p_fee.add_argument("--gas", default=0,
                       help="flat gas fee in micro units")
    p_fee.add_argument("--rate", default="0.012",
                       help="tax rate as a decimal or p/q fraction")
    p_fee.add_argument("--cap", default=DEFAULT_TAX_CAP,
                       help="per-denom tax ceiling in micro units")
    return parser


def _execute(state, scenario_cfg, strict_halt: bool, out_dir):
    scn = parse_scenario(scenario_cfg)
    if strict_halt:
        scn.strict_halt = True
    result = run_scenario(state, scn)
    if out_dir:
        summary = write_reports(out_dir, result)
        log.info("reports written to %s", out_dir)
    else:
        from .report import build_summary
        summary = build_summary(result)
    json.dump(summary, sys.stdout, indent=2)
    sys.stdout.write("\n")
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 2 if result.terminal_halted else 0


def _cmd_run(args) -> int:
    genesis_cfg = load_genesis_file(args.genesis)
    scenario_cfg = load_scenario_file(args.scenario)
    state = build_state(genesis_cfg)
    return _execute(state, scenario_cfg, args.strict_halt, args.out)


def _cmd_replay(args) -> int:
    if args.list:
        for name in sorted(scenarios.BUILDERS):
            print(name)
        return 0
    if args.name is None:
        print("error: give a scenario name or --list", file=sys.stderr)
        return 4
    try:
        genesis_cfg, scenario_cfg = scenarios.build(args.name)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "genesis.json"), "w") as fh:
            json.dump(genesis_cfg, fh, indent=2)
        with open(os.path.join(args.out, "scenario.json"), "w") as fh:
            json.dump(scenario_cfg, fh, indent=2)
    state = build_state(genesis_cfg)
    return _execute(state, scenario_cfg, args.strict_halt, args.out)


def _cmd_estimate_fee(args) -> int:
    if args.denom not in NATIVE_DENOMS:
        raise ParseError(f"--denom must be one of {sorted(NATIVE_DENOMS)}, got {args.denom!r}")
    quote = estimate_fee(integer(args.amount, "--amount", low=0), args.denom,
                         integer(args.gas, "--gas", low=0),
                         fraction(args.rate, "--rate", 0, 1),
                         integer(args.cap, "--cap", low=0))
    json.dump(quote.as_dict(), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "replay":
            return _cmd_replay(args)
        if args.command == "estimate-fee":
            return _cmd_estimate_fee(args)
        parser.error(f"unknown command {args.command!r}")
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except ChainHalted as exc:
        print(f"halted: {exc}", file=sys.stderr)
        return 2
    except (SimError, ValueError, KeyError, OSError) as exc:
        log.debug("unexpected failure", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

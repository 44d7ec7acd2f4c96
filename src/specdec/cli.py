"""Command-line harness: sweep, compare and check subcommands.

Exit codes: 0 success, 2 configuration error, 3 runtime or capacity error.
Identical config and seed produce byte-identical reports regardless of --jobs.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .errors import ConfigError, SpecdecError
from .experiments import (
    config_int,
    emit_matrix,
    emit_report,
    load_config,
    run_check,
    run_compare,
    run_sweep,
)


def _add_config(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="experiment config (JSON)")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--jobs", type=int, default=1, help="parallel grid points")


def _add_report(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--format", choices=("csv", "jsonl"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="specdec")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="grid over strategy parameters")
    _add_config(sweep)
    _add_report(sweep)
    sweep.add_argument("--matrix", action="store_true", help="also emit an (L_d x L_i) matrix")

    compare = sub.add_parser("compare", help="vanilla vs selfspec vs hierarchical")
    _add_config(compare)
    _add_report(compare)

    check = sub.add_parser("check", help="recompute state at every boundary of each grid point")
    _add_config(check)
    return parser


def _cmd_report(args) -> int:
    """sweep or compare: write the grid's report, and for sweep --matrix its matrix."""
    config = load_config(args.config, args.seed)
    rows = (run_sweep if args.command == "sweep" else run_compare)(config, jobs=args.jobs)
    out, matrix = Path(args.out), None
    try:
        path = emit_report(rows, out / f"{args.command}.{args.format}", args.format)
        if getattr(args, "matrix", False):
            matrix = emit_matrix(rows, out / "matrix.txt", rows[0]["L_f"])
    except OSError as exc:
        raise ConfigError(f"--out cannot be written: {exc}") from None
    print(f"wrote {len(rows)} rows to {path}")
    if matrix:
        print(f"wrote matrix to {matrix}")
    return 0


def _cmd_check(args) -> int:
    config = load_config(args.config, args.seed)
    boundaries, prompts, points, worst = run_check(config, jobs=args.jobs)
    print(
        f"checked {boundaries} verification boundaries over {prompts} prompts "
        f"at {points} grid points; max discrepancy {worst:.3e}"
    )
    if worst != 0.0:
        print("state recompute mismatch detected", file=sys.stderr)
        return 3
    return 0


_COMMANDS = {"sweep": _cmd_report, "compare": _cmd_report, "check": _cmd_check}


def _check_out(out: str) -> None:
    """`--out` must be a directory or a path that can become one: below its
    nearest existing directory, every name fits that directory's file system."""
    path = Path(out)
    # os.path.exists, unlike Path.exists, is False for a name too long to look up.
    nearest = next(p for p in (path, *path.parents) if os.path.exists(p))
    if not nearest.is_dir():
        raise ConfigError(f"--out {out} cannot be a directory: {nearest} is a file")
    name_max = os.pathconf(nearest, "PC_NAME_MAX")
    if any(len(os.fsencode(name)) > name_max for name in path.relative_to(nearest).parts):
        raise ConfigError(f"--out {out} cannot be a directory: a name is over {name_max} bytes")


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "out" in args:
            _check_out(args.out)
        config_int(args.jobs, "--jobs", minimum=1)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SpecdecError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

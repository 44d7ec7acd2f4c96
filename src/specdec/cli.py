"""Command-line harness: sweep, ablate, compare and check subcommands.

Exit codes: 0 success, 2 configuration error, 3 runtime or capacity error.
Identical config and seed produce byte-identical reports regardless of --jobs.
"""
from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .errors import ConfigError, SpecdecError
from .experiments import (
    config_int,
    emit_matrix,
    emit_report,
    load_config,
    run_ablation,
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

    ablate = sub.add_parser("ablate", help="vary N_d or N_i with defaults elsewhere")
    _add_config(ablate)
    _add_report(ablate)
    ablate.add_argument("--parameter", choices=("N_d", "N_i"), required=True)
    ablate.add_argument(
        "--values", default="", help="comma-separated values; empty emits an empty table"
    )

    compare = sub.add_parser("compare", help="vanilla vs selfspec vs hierarchical")
    _add_config(compare)
    _add_report(compare)

    check = sub.add_parser("check", help="recompute state at every boundary of each grid point")
    _add_config(check)
    return parser


def _write(rows, args, name: str) -> Path:
    out = Path(args.out) / f"{name}.{args.format}"
    emit_report(rows, out, fmt=args.format)
    return out


def _cmd_sweep(args) -> int:
    config = load_config(args.config, args.seed)
    rows = run_sweep(config, jobs=args.jobs)
    path = _write(rows, args, "sweep")
    print(f"wrote {len(rows)} rows to {path}")
    if args.matrix:
        matrix_path = Path(args.out) / "matrix.txt"
        emit_matrix(rows, matrix_path, rows[0]["L_f"])
        print(f"wrote matrix to {matrix_path}")
    return 0


def _cmd_ablate(args) -> int:
    config = load_config(args.config, args.seed)
    values = [config_int(v, "--values", minimum=1) for v in args.values.split(",") if v.strip()]
    rows = run_ablation(config, args.parameter, values, jobs=args.jobs)
    path = _write(rows, args, f"ablate_{args.parameter}")
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _cmd_compare(args) -> int:
    config = load_config(args.config, args.seed)
    rows = run_compare(config, jobs=args.jobs)
    path = _write(rows, args, "compare")
    print(f"wrote {len(rows)} rows to {path}")
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


_COMMANDS = {
    "sweep": _cmd_sweep,
    "ablate": _cmd_ablate,
    "compare": _cmd_compare,
    "check": _cmd_check,
}


def _check_out(out: str) -> None:
    """`--out` must be a directory or a path that can become one."""
    path = Path(out)
    nearest = next(p for p in (path, *path.parents) if p.exists())
    if not nearest.is_dir():
        raise ConfigError(f"--out {out} cannot be a directory: {nearest} is a file")


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

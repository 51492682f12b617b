"""Batch command line: single runs, parameter sweeps, trajectory export.

`run --trace FILE` with the same seed and config as the `trace` export that
wrote FILE reproduces the seeded run's report byte for byte.

Exit codes: 0 success, 1 configuration error, 2 runtime error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .errors import ConfigError
from .harness import AXES, emit_csv, run, sweep
from .mobility import generate_trace, read_trace, write_trace
from .scenario import build_scenario, load_config_file, parse_finite


def _parse_seeds(spec: str) -> list[int]:
    try:
        if ".." in spec:
            lo, _, hi = spec.partition("..")
            return list(range(int(lo), int(hi) + 1))
        return [int(s) for s in spec.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"--seeds {spec!r}: {exc}") from None


def _parse_values(spec: str) -> list[float]:
    try:
        return [parse_finite(s) for s in spec.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"--values {spec!r}: {exc}") from None


def _load_scenario(args):
    flags = {"method": getattr(args, "method", None), "seed": getattr(args, "seed", None),
             "max_slots": getattr(args, "slots", None)}
    values = load_config_file(args.config) if args.config else {}
    try:
        return build_scenario(values, **flags)
    except ConfigError as exc:
        build_scenario(**flags)  # raises if the flags alone are at fault
        raise ConfigError(f"{args.config}: {exc}") from None


def _cmd_run(args) -> int:
    cfg = _load_scenario(args)
    trace = read_trace(args.trace, cfg.field) if args.trace is not None else None
    report = run(cfg, trace=trace)
    emit_csv([report], args.out)
    print(f"{cfg.method} seed={cfg.seed}: energy={report.total_energy_j:.6g} J, "
          f"mean active={report.mean_active_nodes:.3g}, "
          f"lost={report.lost_episodes} -> {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_scenario(args)
    reports = sweep(cfg, args.axis, _parse_values(args.values),
                    _parse_seeds(args.seeds))
    if not reports:
        raise ConfigError("sweep produced no runs (all axis values skipped?)")
    rows = emit_csv(reports, args.out)
    print(f"{len(reports)} reports ({rows} lines) -> {args.out}")
    return 0


def _cmd_trace(args) -> int:
    cfg = _load_scenario(args)
    rows = generate_trace(cfg.mobility, cfg.field, cfg.max_slots)
    write_trace(args.out, rows)
    print(f"{len(rows)} trajectory rows -> {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsn-track-sim",
        description="Slotted target-tracking simulator with an all-active baseline.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario")
    p_run.add_argument("--config", help="flat key = value config file")
    p_run.add_argument("--method", choices=("proposed", "baseline"))
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--slots", type=int)
    p_run.add_argument("--trace", metavar="FILE",
                       help="replay a trajectory CSV written by `wsn-track-sim "
                            "trace` instead of deriving one from the seed; the "
                            "run covers min(--slots, rows in FILE) slots, as "
                            "the report's slots column records")
    p_run.add_argument("--out", default="report.csv")
    p_run.set_defaults(handler=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="paired runs along one parameter axis")
    p_sweep.add_argument("--config")
    p_sweep.add_argument("--axis", required=True, choices=AXES)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values, e.g. 50,55,60")
    p_sweep.add_argument("--seeds", default="0",
                         help="comma list or inclusive range, e.g. 0..9")
    p_sweep.add_argument("--out", default="sweep.csv")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_trace = sub.add_parser("trace", help="export a target trajectory CSV")
    p_trace.add_argument("--config")
    p_trace.add_argument("--seed", type=int)
    p_trace.add_argument("--slots", type=int)
    p_trace.add_argument("--out", default="trace.csv")
    p_trace.set_defaults(handler=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

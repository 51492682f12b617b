"""Benchmark of the simulator: host time per simulated slot, sweep wall time,
set-up time and memory, with per-layer timing from a separate traced pass.

    python3 bench/run.py --workload sweep-n250 --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 35

One workload runs in this process, single-threaded, as a closed loop of
passes while another pass is likely to end within `--seconds`. Every pass
covers the same four sweep seeds, chosen by `--seed`. With `--trace 0` the
passes alternate between `harness.sweep` (baseline first) and direct
`run`/`bench_run` calls (proposed first) and the end-to-end metrics are
printed; with `--trace 1` untraced and traced sweep passes alternate and the
per-layer metrics are printed. `--workload all` runs every workload in both modes, each in a fresh
process. The last line of output is one JSON object; a per-run result file
with its context goes to bench/results/. The exit code is 0 only when every
run was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def load_simulator() -> None:
    """Put the checkout's own simulator first on the path, or stop."""
    if not (SRC / "wsn_track_sim" / "__init__.py").is_file():
        sys.exit(f"bench: no simulator source at {SRC}")
    sys.path.insert(0, str(SRC))


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its result: metrics, counts and context."""
    from workloads import (WORKLOADS, BenchError, declared_metrics, end_to_end,
                           load_digests, pass_seeds, per_layer, run_passes)

    wl = WORKLOADS[name]
    seeds = pass_seeds(seed)
    kinds = ("sweep", "traced") if trace else ("sweep", "direct")
    passes = run_passes(wl, seeds, seconds, kinds, load_digests(name))
    samples = per_layer(wl, passes) if trace else end_to_end(passes, peak_rss_mb())
    specs = declared_metrics("per_layer" if trace else "end_to_end")
    missing = [m["name"] for m in specs if not samples.get(m["name"])]
    if missing:
        raise BenchError(f"no sample of {', '.join(missing)}: no pass completed, or "
                         "BENCHMARK.json declares a metric the benchmark does not measure")
    attempted = wl.runs_per_pass() * len(passes)
    failed = sum(p.failed for p in passes)
    return {
        "workload": name,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": {m["name"]: {"value": statistics.median(samples[m["name"]]),
                                "unit": m["unit"]} for m in specs},
        "samples": {m["name"]: samples[m["name"]] for m in specs},
        "context": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "src_lines": src_lines(),
            "base_seed": seed,
            "pass_seeds": list(seeds),
            "passes": {kind: sum(1 for p in passes if p.kind == kind) for kind in kinds},
            "seconds": seconds,
        },
    }


def print_result(result: dict) -> None:
    ctx = result["context"]
    print(f"{result['workload']} trace={result['trace']} base_seed={ctx['base_seed']} "
          f"pass_seeds={ctx['pass_seeds']} passes={ctx['passes']} "
          f"python={ctx['python']} nproc={ctx['nproc']} src_lines={ctx['src_lines']}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']:6s} "
              f"median of {len(result['samples'][name])}")
    print(f"  {'failed_frac':32s} {result['failed_frac']:>16.6g} ratio  "
          f"{result['failed']} of {result['attempted']} runs")


def write_result(result: dict) -> Path:
    from workloads import OUT_DIR

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / (f"{result['workload']}-seed{result['context']['base_seed']}"
                      f"-trace{result['trace']}.json")
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return path


def run_all(seed: int, seconds: float) -> int:
    """Every workload in both modes, each in a fresh process."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=seconds + 150, check=False)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 and not lines[-1:]:
                combined["correct"] = False
                continue
            part = json.loads(lines[-1])
            combined["correct"] &= part["correct"] and proc.returncode == 0
            combined["attempted"] += part["attempted"]
            combined["failed"] += part["failed"]
            for key, value in part["metrics"].items():
                combined["metrics"][f"{name}:{key}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_simulator()
    from workloads import WORKLOADS, BenchError

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected all or one of {', '.join(WORKLOADS)}")
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print_result(result)
    print(f"  result file: {write_result(result).relative_to(HERE.parent)}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

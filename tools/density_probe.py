"""Constant-density probe: host µs per slot of `run()` as the field grows.

    python3 tools/density_probe.py SRC [SRC ...]

The field's side grows as √N at `track-n4000`'s density (4 000 nodes on
500 m × 500 m), so the awake set of a tracked slot stays about the same
while N grows. Each SRC is a checkout's `src` directory. Its `wsn_track_sim`
package is loaded under a name of its own, so that several checkouts are
timed in one process; the checkouts alternate run by run. Deploy and trace
run outside the timing. Each (N, seed, method) run is timed REPEATS times,
each on a fresh field, and the best timing counts.

Prints one JSON object: per SRC (keyed by the path as given) and N, the mean
over the seeds of µs per slot for each method, and the range over the seeds
of the proposed method's mean awake nodes per tracked slot.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

DENSITY = 4000 / (500.0 * 500.0)  # nodes per m², as in track-n4000
# ROADMAP item 9's table, fixed so that the bare command reproduces it: field
# sizes from a quarter to 16 times track-n4000's N, item 9's four seeds, 50-slot
# runs, and the best of 6 timings, so that one slow run on a shared host does
# not set a row.
SIZES = (1000, 4000, 16000, 64000)
SEEDS = (8, 15, 17, 32)
SLOTS = 50
REPEATS = 6


def load(src: str, name: str):
    """The `wsn_track_sim` package under `src`, imported as `name`."""
    init = Path(src).resolve() / "wsn_track_sim" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def timed_run(sim, cfg, trace) -> tuple[float, object]:
    """Seconds of one `run()` on a freshly deployed field, and its report."""
    field = sim.deploy(cfg.field, cfg.mode_costs.initial_energy)
    t0 = time.perf_counter()
    report = sim.run(cfg, trace=trace, field=field)
    return time.perf_counter() - t0, report


def probe(sims) -> list[dict]:
    """One table of rows by N per package in `sims`, in their order."""
    best = {(k, n, seed, m): math.inf for k in range(len(sims)) for n in SIZES
            for seed in SEEDS for m in ("proposed", "baseline")}
    awake: dict[tuple[int, int, int], float] = {}
    turn = 0
    for n in SIZES:
        side = math.sqrt(n / DENSITY)
        for seed in SEEDS:
            for _ in range(REPEATS):
                order = range(len(sims)) if turn % 2 == 0 else reversed(range(len(sims)))
                turn += 1
                for k in order:
                    sim = sims[k]
                    base = sim.default_scenario(max_slots=SLOTS)
                    cfg = sim.with_seed(replace(base, field=replace(
                        base.field, n_nodes=n, area_width=side, area_height=side)), seed)
                    trace = sim.generate_trace(cfg.mobility, cfg.field, cfg.max_slots)
                    for method in ("proposed", "baseline"):
                        s, report = timed_run(sim, replace(cfg, method=method), trace)
                        best[k, n, seed, method] = min(best[k, n, seed, method], s)
                        if method == "proposed":
                            tracked = [a for a, t in zip(report.per_slot_awake,
                                                         report.per_slot_tracking) if t]
                            awake[k, n, seed] = statistics.fmean(tracked) if tracked else 0.0
    table = []
    for k in range(len(sims)):
        rows = {}
        for n in SIZES:
            rows[n] = {
                "side_m": round(math.sqrt(n / DENSITY), 1),
                **{f"{m}_us_per_slot": round(1e6 * statistics.fmean(
                    best[k, n, seed, m] for seed in SEEDS) / SLOTS, 1)
                   for m in ("proposed", "baseline")},
                "proposed_awake_per_tracked_slot": [
                    round(min(awake[k, n, s] for s in SEEDS), 1),
                    round(max(awake[k, n, s] for s in SEEDS), 1)],
            }
        table.append(rows)
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="+", help="a checkout's src directory")
    args = parser.parse_args(argv)
    sims = [load(src, f"sim{k}") for k, src in enumerate(args.src)]
    table = probe(sims)
    print(json.dumps({"n": SIZES, "seeds": SEEDS, "slots": SLOTS, "repeats": REPEATS,
                      "python": sys.version.split()[0],
                      "table": dict(zip(args.src, table))}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

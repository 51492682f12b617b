"""Benchmark workloads of the simulator, the passes that run them, and their metrics.

A pass is one closed-loop run of a workload through the public API: either
one `harness.sweep` per base configuration, or the same runs as direct
`run`/`bench_run` calls with the proposed method first, so that the method
order alternates between passes. Every pass of a run covers the same few
sweep seeds, which the benchmark's base seed selects from a pool, and each
seed's reports are checked against the CSV digest recorded for that seed in
`digests.json`.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from wsn_track_sim import harness, mobility, scenario

from spans import Span, Target, Tracer, installed, self_times

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"
DIGESTS = HERE / "digests.json"
OUT_DIR = HERE / "results"

POOL = 64                 # sweep seeds 0..POOL-1 have a recorded digest
SEEDS_PER_PASS = 4        # pool seeds a pass covers
CONSERVATION_TOL = 1e-12
METHODS = ("proposed", "baseline")
TRACK_SLOTS = 50          # track-n4000: the proposed method tracks in ~every slot


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a trustworthy result."""


# -- what is wrapped ----------------------------------------------------------

def _run_note(args):
    return lambda report: (report.method, report.slots)


def _debits_note(args):
    ledger = args[0]
    before = len(ledger.debits)
    return lambda _result: len(ledger.debits) - before


def _rounds(outcomes) -> tuple[int, int, int]:
    """(rounds, collided rounds, rounds that delivered a frame)."""
    return (len(outcomes), sum(1 for o in outcomes if o.collided),
            sum(1 for o in outcomes if o.delivered))


def _window_note(args):
    return lambda result: _rounds(result[0])


def _drain_note(args):
    return _rounds


def _t(name, attr=None, **kw) -> Target:
    layer, func = name.split(".")
    return Target(name, f"wsn_track_sim.{layer}", attr or func, **kw)


SETUP = ("field.deploy", "mobility.generate_trace")
RUNS = ("harness.run", "harness.bench_run")

# timed in every pass: set-up and the run calls behind slot_us
TIMED = (
    _t("field.deploy"),
    _t("mobility.generate_trace"),
    _t("harness.run", note=_run_note, collect=True),
    _t("harness.bench_run", note=_run_note, collect=True),
)

# the traced pass adds one span per layer function
LAYERS = TIMED + (
    _t("harness.baseline_step", "_baseline_step"),
    _t("protocol.tracking_step"),
    _t("protocol.wake_set"),
    _t("field.detectors_of"),
    _t("field.neighbors_of"),
    _t("field.k_closest"),
    _t("mac.data_window", "MacService.data_window", note=_window_note),
    _t("mac.drain_queue", note=_drain_note),
    _t("energy.settle_slot", note=_debits_note),
    _t("energy.settle_radio", note=_debits_note),
    _t("energy.reconcile", "debit_counts_by_reason"),
)

TRACKING_LAYERS = frozenset((
    "field.deploy", "mobility.generate_trace", "harness.run",
    "harness.baseline_step", "protocol.tracking_step", "protocol.wake_set",
    "field.detectors_of", "field.neighbors_of", "field.k_closest",
    "mac.data_window", "energy.settle_slot", "energy.reconcile"))
MAC_LAYERS = frozenset((
    "field.deploy", "field.neighbors_of", "harness.bench_run",
    "mac.drain_queue", "energy.settle_radio"))


# -- workloads ----------------------------------------------------------------

# The axes as harness.sweep applies them. The benchmark drives the simulator
# only through its public API, and harness._apply_axis is private.
def _comm_radius(cfg, value):
    return replace(cfg, field=replace(cfg.field, r_c=float(value)))


def _node_count(cfg, value):
    return replace(cfg, field=replace(cfg.field, n_nodes=int(value)))


def _data_rate(cfg, value):
    return replace(cfg, slots=replace(cfg.slots, data_rate=float(value)))


def _paper_default():
    return (scenario.default_scenario(),)


def _short_horizon():
    return (scenario.default_scenario(max_slots=TRACK_SLOTS),)


def _ack_crc_on_off():
    base = scenario.default_scenario()
    return tuple(replace(base, slots=replace(base.slots, ack_enabled=on, crc_enabled=on))
                 for on in (True, False))


@dataclass(frozen=True)
class Workload:
    """A paired sweep; BENCHMARK.json says why each one is in the benchmark."""

    name: str
    axis: str
    values: tuple[str, ...]  # as the CSV's axis_value column prints them
    apply: Callable          # the axis, as harness.sweep applies it
    bases: Callable          # () -> base configurations, one sweep each
    exercises: frozenset[str]   # layer functions that must record calls

    def runs_per_pass(self) -> int:
        return len(self.bases()) * len(self.values) * len(METHODS) * SEEDS_PER_PASS


WORKLOADS = {w.name: w for w in (
    Workload("sweep-n250",
             "comm-radius", ("50", "55", "60"), _comm_radius, _paper_default,
             TRACKING_LAYERS),
    Workload("track-n4000",
             "node-count", ("4000",), _node_count, _short_horizon,
             TRACKING_LAYERS),
    # one data rate: every rate gives the same contention rounds, so the
    # same host work
    Workload("mac-bench",
             "data-rate", ("8000000",), _data_rate, _ack_crc_on_off,
             MAC_LAYERS),
)}


def pass_seeds(base_seed: int) -> tuple[int, ...]:
    """The pool seeds a base seed selects. Every pass of a run covers all of
    them, so each pass measures the same mix of lost and tracked targets."""
    return tuple(sorted(random.Random(base_seed).sample(range(POOL), SEEDS_PER_PASS)))


# -- passes -------------------------------------------------------------------

def sweep_pass(wl: Workload, seeds) -> list:
    reports = []
    for base in wl.bases():
        reports += harness.sweep(base, wl.axis, list(wl.values), list(seeds))
    return reports


def direct_pass(wl: Workload, seeds) -> list:
    """The sweep's runs as direct calls, proposed first; returned in sweep order."""
    reports = []
    for base in wl.bases():
        for value in wl.values:
            for seed in seeds:
                scfg = scenario.with_seed(wl.apply(base, value), seed)
                if wl.axis == "data-rate":
                    by = {m: harness.bench_run(replace(scfg, method=m)) for m in METHODS}
                else:
                    trace = mobility.generate_trace(scfg.mobility, scfg.field,
                                                    scfg.max_slots)
                    by = {m: harness.run(replace(scfg, method=m), trace=trace)
                          for m in METHODS}
                for r in by.values():
                    r.axis_name, r.axis_value = wl.axis, value
                reports += [by["baseline"], by["proposed"]]
    return reports


def by_seed(reports) -> dict[int, list]:
    """Reports grouped by seed, each group in sweep order."""
    groups: dict[int, list] = defaultdict(list)
    for r in reports:
        groups[r.seed].append(r)
    return dict(groups)


def csv_digest(reports) -> str:
    """SHA-256 of the bytes `emit_csv` writes for the reports."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "report.csv"
    harness.emit_csv(reports, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def seed_digests(reports) -> dict[int, str]:
    """The CSV digest of each seed's reports: what a one-seed sweep would write."""
    return {seed: csv_digest(group) for seed, group in by_seed(reports).items()}


def load_digests(name: str) -> dict[int, str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return {int(k): v for k, v in json.load(fh)[name].items()}


def count_failed(reports, digests: dict[int, str], expected: dict[int, str],
                 attempted: int) -> int:
    """Runs that are missing, inexact or unreconciled; all runs of a seed whose
    CSV digest differs from the recorded one."""
    ok = sum(1 for seed, group in by_seed(reports).items()
             if digests[seed] == expected.get(seed)
             for r in group
             if r.conservation_rel_err <= CONSERVATION_TOL and r.radio_reconciled)
    return attempted - ok


@dataclass
class Pass:
    """What the metrics need of one pass; its reports are dropped once checked,
    so that the memory a run holds does not grow with its number of passes."""

    kind: str                 # "sweep", "direct" or "traced"
    wall: float = math.nan    # seconds, collections excluded
    spans: list[Span] = field(default_factory=list)
    digests: dict[int, str] = field(default_factory=dict)
    failed: int = 0
    raised: bool = False
    awake_per_slot: float = 0.0   # the proposed method's, over its tracking runs
    detect_frac: float = 0.0


def run_pass(wl: Workload, kind: str, seeds, expected: dict[int, str]) -> Pass:
    """One pass under the wrappers its kind needs; exceptions count as failures."""
    tracer = Tracer()
    p = Pass(kind)
    try:
        with installed(tracer, LAYERS if kind == "traced" else TIMED):
            try:
                gc.collect()
                t0 = time.perf_counter()
                reports = (direct_pass if kind == "direct" else sweep_pass)(wl, seeds)
                p.wall = time.perf_counter() - t0 - tracer.gc_s
            except Exception:  # noqa: BLE001 - a raising run is a failed run
                traceback.print_exc()
                p.raised = True
    except AttributeError as exc:  # from install(): the runs' errors are caught above
        raise BenchError(f"cannot wrap a layer function ({exc}); "
                         "was it moved or renamed?") from None
    if p.raised:
        p.failed = wl.runs_per_pass()
        return p
    p.spans = tracer.spans
    p.digests = seed_digests(reports)
    p.failed = count_failed(reports, p.digests, expected, wl.runs_per_pass())
    tracking = [r for r in reports if r.method == "proposed" and r.per_slot_awake]
    if tracking:
        p.awake_per_slot = (sum(sum(r.per_slot_awake) for r in tracking)
                            / sum(r.slots for r in tracking))
        p.detect_frac = statistics.fmean(r.detection_fraction for r in tracking)
    return p


def run_passes(wl: Workload, seeds, seconds: float, kinds: tuple[str, ...],
               expected: dict[int, str]) -> list[Pass]:
    """Cycle through `kinds` while another pass is likely to end within
    `seconds`, and until each kind ran once. A traced pass must reproduce the
    digests of the first untraced pass."""
    passes: list[Pass] = []
    took: list[float] = []
    ref: dict[int, str] | None = None
    deadline = time.perf_counter() + seconds
    while (len(passes) < len(kinds)
           or time.perf_counter() + statistics.median(took) < deadline):
        t0 = time.perf_counter()
        p = run_pass(wl, kinds[len(passes) % len(kinds)], seeds, expected)
        took.append(time.perf_counter() - t0)
        if not p.raised:
            if p.kind != "traced" and ref is None:
                ref = p.digests
            if p.kind == "traced" and ref is not None and p.digests != ref:
                raise BenchError(f"tracing changed the report digest of {wl.name}")
        passes.append(p)
    return passes


# -- metrics ------------------------------------------------------------------

def declared_metrics(section: str) -> list[dict]:
    """The metrics BENCHMARK.json declares in `section`, in its order."""
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))[section]


def _slot_us(p: Pass, method: str) -> float:
    runs = [s for s in p.spans if s.name in RUNS and s.note[0] == method]
    return 1e6 * math.fsum(s.duration for s in runs) / sum(s.note[1] for s in runs)


def end_to_end(passes: list[Pass], peak_rss_mb: float) -> dict[str, list[float]]:
    """Samples of every end-to-end metric, one per pass that completed. A
    pass's slot_us is total time over total slots of all its seeds."""
    done = [p for p in passes if not p.raised]
    return {
        "slot_us.proposed": [_slot_us(p, "proposed") for p in done],
        "slot_us.baseline": [_slot_us(p, "baseline") for p in done],
        "sweep_s": [p.wall for p in done if p.kind == "sweep"],
        "setup_s": [math.fsum(s.duration for s in p.spans if s.name in SETUP)
                    for p in done],
        "peak_rss_mb": [peak_rss_mb],
    }


def layer_values(p: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass: calls, inclusive and self time of
    every wrapped function, plus the counts its notes carry."""
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    excl: dict[str, float] = defaultdict(float)
    notes: dict[str, list] = defaultdict(list)
    for span, own in zip(p.spans, self_times(p.spans)):
        calls[span.name] += 1
        incl[span.name] += span.duration
        excl[span.name] += own
        if span.note is not None:
            notes[span.name].append(span.note)
    mac = [n for key in ("mac.data_window", "mac.drain_queue") for n in notes[key]]
    rounds = sum(n[0] for n in mac)
    out = {}
    for t in LAYERS:
        out[f"{t.name}.calls"] = calls[t.name]
        out[f"{t.name}.s"] = incl[t.name]
        out[f"{t.name}.self_s"] = excl[t.name]
    out.update({
        "energy.debits": sum(notes["energy.settle_slot"]) + sum(notes["energy.settle_radio"]),
        "mac.rounds": rounds,
        "mac.collided_rounds": sum(n[1] for n in mac),
        "mac.round_yield": sum(n[2] for n in mac) / rounds if rounds else 0.0,
        "protocol.awake_per_slot": p.awake_per_slot,
        "protocol.detect_frac": p.detect_frac,
    })
    return out


def per_layer(wl: Workload, passes: list[Pass]) -> dict[str, list[float]]:
    """Samples of every per-layer metric, one per traced pass that completed."""
    traced = [p for p in passes if p.kind == "traced" and not p.raised]
    untraced = [p.wall for p in passes if p.kind == "sweep" and not p.raised]
    if not traced or not untraced:
        return {}
    for p in traced:
        idle = sorted(n for n in wl.exercises
                      if not any(s.name == n for s in p.spans))
        if idle:
            raise BenchError(f"{', '.join(idle)} recorded no calls on {wl.name}; "
                             "was the function moved or renamed?")
    samples = defaultdict(list)
    for p in traced:
        for name, value in layer_values(p).items():
            samples[name].append(value)
    base = statistics.median(untraced)
    samples["trace.overhead_frac"] = [p.wall / base - 1 for p in traced]
    return dict(samples)

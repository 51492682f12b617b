"""Run orchestration: the slot loop, the all-active baseline, sweeps, reports.

A run binds one deployed field, one target trajectory, one MAC stream and one
energy ledger, then walks max_slots slots, each adding one `SlotRecord` of
scalars; the pure `_fold` derives the report's per-slot figures from the
records, and `_deliveries` counts delivered frames for runs and benches alike.
The run owns the field's schedule: it has the whole field detect before slot
0, and in each slot it installs the schedule that the step returns before
the ledger settles the slot body's, so a node that dies in a slot is asleep
from the next one on.
Paired comparisons feed the same trajectory and field layout to both methods
so differences come only from the activation strategy; each run deploys a
field of its own, with fresh battery levels, onto that layout. A sweep goes
seed by seed and keeps a seed's trajectory, and deploy() its layout, for
every axis value that leaves them unchanged.
"""

from __future__ import annotations

import csv
import functools
import logging
import math
import random
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field as dc_field, replace
from itertools import repeat
from typing import NamedTuple

from .energy import (FJ, EnergyLedger, MetricCounters, debit_counts_by_reason, delay,
                     mean_delay, pdr, settle_radio, settle_slot, throughput)
from .errors import ConfigError
from .field import NodeField, NodeMode, Point, deploy, detectors_of, neighbors_of
from .mac import Frame, FrameKind, MacService, SlotOutcome, drain_queue
from .mobility import TraceRow, generate_trace
from .protocol import Episode, StepResult, TrackerState, tracking_step
from .scenario import ScenarioConfig, config_digest, derive_seed, mac_seed, with_seed

log = logging.getLogger(__name__)

CSV_COLUMNS = [
    "method", "seed", "axis_name", "axis_value", "n_nodes", "r_s_m", "r_c_m",
    "slots", "total_energy_j", "mean_active_nodes", "max_active_nodes", "pdr",
    "throughput_bps", "mean_delay_s", "lost_episodes", "detection_fraction",
    "config_digest",
]


@dataclass
class RunReport:
    method: str
    seed: int
    n_nodes: int
    r_s_m: float
    r_c_m: float
    slots: int
    total_energy_j: float
    mean_active_nodes: float
    max_active_nodes: int
    pdr: float | None
    throughput_bps: float
    mean_delay_s: float
    lost_episodes: int
    tracked_slots: int
    detection_fraction: float
    config_digest: str
    axis_name: str = ""
    axis_value: str = ""
    # in-memory diagnostics, not serialized to CSV; the joules of each slot
    # (run) or MAC round (bench) as packed C doubles: 8 B an entry, where a
    # list of floats takes 32 B
    per_step_energy: array = dc_field(default_factory=functools.partial(array, "d"),
                                      repr=False)
    per_slot_awake: list[int] = dc_field(default_factory=list, repr=False)
    per_slot_tracking: list[bool] = dc_field(default_factory=list, repr=False)
    conservation_rel_err: float = 0.0
    radio_reconciled: bool = True  # bench_run reports leave it at this default


class SlotRecord(NamedTuple):
    """One slot of `run()` in scalars only: no MAC outcome outlives its slot."""

    joules: float    # ledger energy spent in the slot
    awake: int       # nodes awake in the slot body
    tracking: bool   # the tracker was TRACKING at the slot's start
    lost: bool       # ... and LOST at its end
    covered: bool    # a node, dead or alive, lies within r_s of the target
    detected: bool   # an awake node detected the target


def _baseline_step(tracker: TrackerState, field: NodeField, target_pos: Point,
                   mac: MacService, slot: int) -> StepResult:
    """One all-active slot: everyone senses, detectors report to the lowest id.

    The tracker only records acquisition: TRACKING from the first detection on.
    """
    cfg = mac.cfg
    dets = detectors_of(field, target_pos)
    outcomes = []
    frames_sent = 0
    if len(dets) >= 2:
        sink = min(dets)
        queues = {d: deque([Frame(d, sink, FrameKind.DATA_PAYLOAD,
                                  cfg.data_packet_bits, slot)])
                  for d in sorted(dets) if d != sink}
        frames_sent = len(queues)
        outcomes, _dropped = mac.data_window(queues, slot)
    if dets and tracker.episode is not Episode.TRACKING:
        tracker = TrackerState(episode=Episode.TRACKING)
    return StepResult(tracker=tracker, common=NodeMode.DETECT, modes={},
                      outcomes=outcomes, woken=set(), detectors=dets,
                      frames_sent=frames_sent)


def run(cfg: ScenarioConfig, *, trace: list[TraceRow] | None = None,
        field: NodeField | None = None) -> RunReport:
    """Execute one scenario and aggregate its report.

    `trace` serves paired comparisons, and both `trace` and `field` serve
    constructed scenarios; left unset, each is derived from the scenario's
    seeds. A given field must have been built for `cfg.field`, since the
    report and the coverage test read that config.
    """
    if field is None:
        field = deploy(cfg.field, cfg.mode_costs.initial_energy)
    elif field.config != cfg.field:
        raise ConfigError(f"field built for {field.config}, but the scenario's is {cfg.field}")
    if trace is None:
        trace = generate_trace(cfg.mobility, cfg.field, cfg.max_slots)
    n_slots = min(cfg.max_slots, len(trace))
    if n_slots < 1:
        raise ConfigError("nothing to run: empty trajectory")

    ledger = EnergyLedger(field, cfg.mode_costs, cfg.radio)
    initial_energy = ledger.total_remaining()
    mac = MacService(cfg.slots, random.Random(mac_seed(cfg)))
    counters = MetricCounters()
    if cfg.method == "proposed":
        step = functools.partial(tracking_step, alpha=cfg.alpha,
                                 radius_floor_frac=cfg.radius_floor_frac,
                                 speed_prior=cfg.mobility.v_max)
    else:
        step = _baseline_step

    tracker = TrackerState()
    records: list[SlotRecord] = []
    radio_ops: Counter = Counter()  # (op, node) per radio record; a broadcast adds a tx and its rxs
    field.common, field.modes = NodeMode.DETECT, {}  # acquisition: the whole field senses
    sleep = NodeMode.SLEEP
    new = tuple.__new__  # builds a SlotRecord without the generated __new__'s argument handling

    for k in range(n_slots):
        target_pos = Point(tx := trace[k].x, ty := trace[k].y)
        tracking_now = tracker.episode is Episode.TRACKING
        common, modes = field.common, field.modes  # the slot body's schedule
        n_awake = len(modes) if common is sleep else field.n_alive
        res = step(tracker, field, target_pos, mac, k)
        tracker = res.tracker
        field.common, field.modes = res.common, res.modes

        before = ledger.e_sx_total
        settle_slot(ledger, res.outcomes, modes, res.woken, k, common=common)

        counters.sent_pckt += res.frames_sent
        if res.outcomes:
            _deliveries(counters, res.outcomes, cfg.slots.slot_duration)
            radio_ops.update([rec[:2] for out in res.outcomes for rec in out.records])
            for out in res.outcomes:
                for b in out.broadcasts:
                    radio_ops["tx", b.node] += 1
                    radio_ops.update(zip(repeat("rx"), b.receivers))
        # a detector covers the target; so may a dead node (near() includes them)
        covered = bool(res.detectors) or any(math.hypot(x - tx, y - ty) <= cfg.field.r_s
                                             for _, x, y in field.near(target_pos, cfg.field.r_s))
        records.append(new(SlotRecord, (
            (ledger.e_sx_total - before) / FJ, n_awake, tracking_now,
            tracking_now and tracker.episode is Episode.LOST, covered, bool(res.detectors))))
    counters.elapsed = n_slots * cfg.slots.slot_duration

    return _report(
        cfg, ledger, initial_energy, counters, **_fold(records),
        throughput_bps=(throughput(counters) / field.n_alive) if field.n_alive else 0.0,
        radio_reconciled=all(Counter({nid: n for (o, nid), n in radio_ops.items() if o == op})
                             == debit_counts_by_reason(ledger, op) for op in ("tx", "rx")),
    )


def _fold(records: list[SlotRecord]) -> dict:
    """The report fields that a run derives from its slot records."""
    tracked_awake = [r.awake for r in records if r.tracking]
    covered = [r.detected for r in records if r.covered]
    return dict(
        slots=len(records),
        mean_active_nodes=(sum(tracked_awake) / len(tracked_awake)) if tracked_awake else 0.0,
        max_active_nodes=max(tracked_awake, default=0),
        lost_episodes=sum(r.lost for r in records),
        tracked_slots=len(tracked_awake),
        detection_fraction=(sum(covered) / len(covered)) if covered else 0.0,
        per_step_energy=array("d", [r.joules for r in records]),
        per_slot_awake=[r.awake for r in records],
        per_slot_tracking=[r.tracking for r in records],
    )


def _deliveries(counters: MetricCounters, outcomes: list[SlotOutcome],
                slot_duration: float) -> None:
    """Count the frames `outcomes` delivered, their bits, and each one's delay
    in slots from its first send (its enqueue slot if it has none), times T."""
    for out in outcomes:
        for fr, delivery_slot in out.delivered:
            counters.recv_pckt += 1
            counters.bits_received += fr.bits
            t_s = fr.ts_slot if fr.ts_slot is not None else fr.enqueued_slot
            counters.delays.append(delay(t_s, delivery_slot) * slot_duration)


def _report(cfg: ScenarioConfig, ledger: EnergyLedger, initial_energy: int,
            counters: MetricCounters, **fields) -> RunReport:
    """A report whose config, energy, PDR, delay and conservation fields are
    derived alike for every run, from the ledger's fJ; `fields` holds the rest."""
    final_energy = ledger.total_remaining()
    applied = sum(ledger.platform) + sum(ledger.debits.amounts)
    return RunReport(
        method=cfg.method,
        seed=cfg.seed,
        n_nodes=cfg.field.n_nodes,
        r_s_m=cfg.field.r_s,
        r_c_m=cfg.field.r_c,
        total_energy_j=ledger.e_sx_total / FJ,  # int / int: correctly rounded
        pdr=pdr(counters),
        mean_delay_s=mean_delay(counters),
        config_digest=config_digest(cfg),
        conservation_rel_err=abs(initial_energy - final_energy - applied) / initial_energy,
        **fields,
    )


def paired_runs(cfg: ScenarioConfig, seed: int) -> tuple[RunReport, RunReport]:
    """(proposed, baseline) reports over the identical trajectory and layout,
    run in that order: one trajectory built for the pair, and the layout that
    deploy() draws for the proposed run, which the baseline reuses."""
    scfg = with_seed(cfg, seed)
    return _pair(scfg, generate_trace(scfg.mobility, scfg.field, scfg.max_slots))


def _pair(scfg: ScenarioConfig, trace: list[TraceRow]) -> tuple[RunReport, RunReport]:
    """(proposed, baseline) reports of a seeded scenario over `trace`."""
    return (run(replace(scfg, method="proposed"), trace=trace),
            run(replace(scfg, method="baseline"), trace=trace))


def _trace_key(scfg: ScenarioConfig) -> tuple:
    """Every input of generate_trace: equal keys give equal trajectories."""
    f = scfg.field
    return scfg.mobility, f.area_width, f.area_height, f.r_s, scfg.max_slots


# -- throughput bench ---------------------------------------------------------

BENCH_CHUNK = 64  # MAC rounds that bench_run drains and settles at a time


def _bench_endpoints(field: NodeField, n_background: int):
    """Origin/destination pair plus nearby background reporters."""
    for i in range(field.config.n_nodes):
        nbrs = neighbors_of(field, i)
        if not nbrs:
            continue
        ranked = sorted(nbrs, key=lambda t: (nbrs[t], t))
        return i, ranked[0], ranked[1:1 + n_background]
    raise ConfigError("no node has a neighbor in range; cannot run the bench")


def bench_run(cfg: ScenarioConfig) -> RunReport:
    """Bulk transfer of bench_packets data frames between one origin/destination.

    Proposed: the origin contends alone (everyone else sleeps). Baseline: the
    all-active neighborhood keeps reporting, so background senders share the
    channel and collide with the flow. Throughput is measured over channel
    airtime, so collision waste and ACK/CRC overhead both depress it.

    Unlike `run()`, the bench does not reconcile radio records with the ledger:
    counting the MAC's records and scanning the log for tx and rx would add
    about 9-12% to a baseline bench run's host time. The airtime is the tx
    bits that settle_radio tallies while it charges them.

    It drains and settles BENCH_CHUNK rounds at a time: one whole drain's
    outcomes, alive at once, would set the bench's peak memory and its GC
    time. The chunks make one drain's rounds (`drain_queue`); the MAC reads no
    battery. A chunk of 64 rounds allocates about 500 objects that the
    collector tracks, fewer than CPython's gen-0 threshold of 700, so its
    outcomes die before a collection promotes them into older generations
    that later collections traverse again. What outlives a chunk holds no
    tracked object per round: the ledger's packed debit log (about 25 B a
    radio record) and each round's joules (one C double, 8 B). Timed with
    `gc.callbacks` over the 16 `bench_run` calls of a `mac-bench` pass
    (Python 3.11), collections take about 1% of the bench's time, against
    15-20% with 512-round chunks and a log of tuples.
    """
    field = deploy(cfg.field, cfg.mode_costs.initial_energy)
    rng = random.Random(derive_seed(cfg.seed, f"bench:{cfg.method}"))
    origin, dest, background = _bench_endpoints(field, cfg.bench_background_senders)
    bits = cfg.slots.data_packet_bits

    def workload(src: int) -> deque:
        return deque(Frame(src, dest, FrameKind.DATA_PAYLOAD, bits, 0)
                     for _ in range(cfg.bench_packets))

    queues = {origin: workload(origin)}
    if cfg.method == "baseline":
        for b in background:
            queues[b] = workload(b)
    senders = sorted(queues)
    enqueued = sum(len(q) for q in queues.values())

    ledger = EnergyLedger(field, cfg.mode_costs, cfg.radio)
    initial_energy = ledger.total_remaining()
    counters = MetricCounters(sent_pckt=enqueued)
    per_step, tx_bits = array("d"), 0
    budget = enqueued * (cfg.slots.max_retries + 2) * 8
    while len(per_step) < budget:
        ask = min(BENCH_CHUNK, budget - len(per_step))
        outcomes = drain_queue(queues, ask, cfg.slots, rng, start_slot=len(per_step))
        joules, sent = settle_radio(ledger, outcomes)
        per_step.extend(joules)
        tx_bits += sent
        _deliveries(counters, outcomes, cfg.slots.slot_duration)
        if len(outcomes) < ask:  # the queues ran empty
            break
    counters.elapsed = tx_bits / cfg.slots.data_rate

    return _report(
        cfg, ledger, initial_energy, counters,
        slots=len(per_step),
        mean_active_nodes=float(len(senders) + 1),
        max_active_nodes=len(senders) + 1,
        # flow throughput over channel-busy time (the bench's counter sits at
        # the destination; per-node averaging is a tracking-run concept)
        throughput_bps=throughput(counters) if counters.elapsed > 0 else 0.0,
        lost_episodes=0,
        tracked_slots=len(per_step),
        detection_fraction=0.0,
        per_step_energy=per_step,
    )


# -- sweeps -------------------------------------------------------------------

AXES = ("comm-radius", "node-count", "data-rate", "throughput-bench")


def _apply_axis(cfg: ScenarioConfig, axis: str, value) -> ScenarioConfig:
    if axis == "comm-radius":
        return replace(cfg, field=replace(cfg.field, r_c=float(value)))
    if axis == "node-count":
        if not float(value).is_integer():
            raise ConfigError(f"node count must be a whole number, got {value!r}")
        return replace(cfg, field=replace(cfg.field, n_nodes=int(value)))
    return replace(cfg, slots=replace(cfg.slots, data_rate=float(value)))  # data-rate


def sweep(base: ScenarioConfig, axis: str, values, seeds) -> list[RunReport]:
    """Paired runs per (axis value, seed), the baseline's report first.

    Values that violate the config invariants are skipped with a warning
    each, before any run. Then the runs go seed by seed, each seed through
    every value in turn; the reports come back in (value, seed) order. The
    tracking axes run each pair as `paired_runs` does, but keep a trajectory
    for the next value while every input of generate_trace (mobility config,
    area, r_s, max_slots) stays the same: a comm-radius or node-count sweep
    builds one per seed, and a comm-radius sweep draws one layout per seed,
    as r_c is not in deploy()'s key. The data-rate axis (alias
    `throughput-bench`) runs the throughput bench instead, baseline first.
    `values` and `seeds` are each read once, so any iterable serves.
    """
    if axis == "throughput-bench":
        axis = "data-rate"
    if axis not in AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {AXES}")
    configs: list[tuple[str, ScenarioConfig]] = []
    for value in values:
        try:
            configs.append((_fmt_value(value), _apply_axis(base, axis, value)))
        except ConfigError as exc:
            log.warning("skipping %s=%s: %s", axis, value, exc)
    by_value: list[list[RunReport]] = [[] for _ in configs]
    key = trace = None
    for seed in seeds:
        for (label, cfg_v), reports in zip(configs, by_value):
            scfg = with_seed(cfg_v, seed)
            if axis == "data-rate":
                pair = [bench_run(replace(scfg, method=m)) for m in ("baseline", "proposed")]
            else:
                if (k := _trace_key(scfg)) != key:
                    key, trace = k, generate_trace(scfg.mobility, scfg.field, scfg.max_slots)
                pair = _pair(scfg, trace)[::-1]  # baseline first
            for report in pair:
                report.axis_name, report.axis_value = axis, label
            reports.extend(pair)
    return [r for reports in by_value for r in reports]


# -- CSV ----------------------------------------------------------------------

def _fmt_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".9g")
    return str(v)


def emit_csv(reports: list[RunReport], path: str) -> int:
    """Write reports in the documented column order; returns lines written."""
    if not reports:
        raise ValueError("no reports to write")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in reports:
            writer.writerow([_fmt_value(getattr(r, col)) for col in CSV_COLUMNS])
    return len(reports) + 1

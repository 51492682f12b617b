"""Run orchestration: the slot loop, the all-active baseline, sweeps, reports.

A run binds one deployed field, one target trajectory, one MAC stream and one
energy ledger, then walks max_slots slots. Paired comparisons feed the same
trajectory and field layout to both methods so differences come only from the
activation strategy; each run deploys its own nodes onto that layout.
"""

from __future__ import annotations

import csv
import functools
import logging
import math
import operator
import random
from collections import Counter, deque
from dataclasses import dataclass, field as dc_field, replace

from .energy import (EnergyLedger, MetricCounters, debit_counts_by_reason,
                     mean_delay, pdr, settle_radio, settle_slot, throughput)
from .errors import ConfigError
from .field import NodeField, NodeMode, Point, deploy, detectors_of, distance, neighbors_of
from .mac import Frame, FrameKind, MacService, drain_queue
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
    # in-memory diagnostics, not serialized to CSV
    per_step_energy: list[float] = dc_field(default_factory=list, repr=False)
    per_slot_awake: list[int] = dc_field(default_factory=list, repr=False)
    per_slot_tracking: list[bool] = dc_field(default_factory=list, repr=False)
    conservation_rel_err: float = 0.0
    radio_reconciled: bool = True


def _baseline_step(tracker: TrackerState, field: NodeField, target_pos: Point,
                   mac: MacService, slot: int) -> StepResult:
    """One all-active slot: everyone senses, detectors report to the lowest id.

    The tracker only records acquisition: TRACKING from the first detection on.
    """
    cfg = mac.cfg
    if len(field.awake) < field.n_alive:
        field.set_modes([n.id for n in field.alive_nodes()], NodeMode.DETECT)
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
    if dets:
        tracker = TrackerState(episode=Episode.TRACKING)
    return StepResult(tracker=tracker, common=NodeMode.DETECT, slot_modes={},
                      n_awake=field.n_alive, outcomes=outcomes, woken=set(),
                      detectors=dets, wake_targets=set(), frames_sent=frames_sent)


def run(cfg: ScenarioConfig, *, trace: list[TraceRow] | None = None,
        field: NodeField | None = None) -> RunReport:
    """Execute one scenario and aggregate its report.

    `trace` and `field` exist for paired comparisons and constructed test
    scenarios; left unset, both are derived from the scenario's seeds.
    """
    if field is None:
        field = deploy(cfg.field, cfg.mode_costs.initial_energy)
    if trace is None:
        trace = generate_trace(cfg.mobility, cfg.field, cfg.max_slots)
    n_slots = min(cfg.max_slots, len(trace))
    if n_slots < 1:
        raise ConfigError("nothing to run: empty trajectory")

    ledger = EnergyLedger(field, wake_cost=cfg.mode_costs.wake_cost)
    initial_energy = ledger.total_remaining()
    mac = MacService(cfg.slots, random.Random(mac_seed(cfg)))
    counters = MetricCounters()
    slot_seconds = cfg.slots.slot_duration
    if cfg.method == "proposed":
        step = functools.partial(tracking_step, alpha=cfg.alpha,
                                 radius_floor_frac=cfg.radius_floor_frac,
                                 speed_prior=cfg.mobility.v_max)
    else:
        step = _baseline_step

    tracker = TrackerState()
    per_step: list[float] = []
    per_awake: list[int] = []
    per_tracking: list[bool] = []
    lost = 0
    covered_slots = 0
    detected_slots = 0
    radio_ops: Counter = Counter()  # (op, node) of each MAC radio record

    for k in range(n_slots):
        target_pos = Point(trace[k].x, trace[k].y)
        tracking_now = tracker.episode is Episode.TRACKING
        res = step(tracker, field, target_pos, mac, k)
        tracker = res.tracker
        lost += tracking_now and tracker.episode is Episode.LOST

        before = ledger.e_sx_total
        settle_slot(ledger, field, res.outcomes, cfg.radio, cfg.mode_costs,
                    res.slot_modes, res.woken, k, common=res.common)
        per_step.append(ledger.e_sx_total - before)

        per_awake.append(res.n_awake)
        per_tracking.append(tracking_now)

        counters.sent_pckt += res.frames_sent
        for out in res.outcomes:
            radio_ops.update(map(operator.itemgetter(0, 1), out.records))
            for fr, delivery_slot in out.delivered:
                if fr.kind is not FrameKind.WAKE_MESSAGE:
                    counters.recv_pckt += 1
                    counters.bits_received += fr.bits
                    t_s = (fr.ts_slot if fr.ts_slot is not None
                           else fr.enqueued_slot) * slot_seconds
                    counters.delays.append(delivery_slot * slot_seconds - t_s)
        counters.elapsed += slot_seconds

        # a detector covers the target; so may a dead node (near() includes them)
        if res.detectors or any(distance(n.pos, target_pos) <= cfg.field.r_s
                                for n in field.near(target_pos, cfg.field.r_s)):
            covered_slots += 1
            detected_slots += bool(res.detectors)

    reconciled = all(Counter({nid: n for (o, nid), n in radio_ops.items() if o == op})
                     == debit_counts_by_reason(ledger, op) for op in ("tx", "rx"))

    tracked = sum(per_tracking)
    tracked_awake = [a for a, t in zip(per_awake, per_tracking) if t]

    return _report(
        cfg, ledger, initial_energy, counters,
        slots=n_slots,
        mean_active_nodes=(sum(tracked_awake) / tracked) if tracked else 0.0,
        max_active_nodes=max(tracked_awake, default=0),
        throughput_bps=(throughput(counters) / field.n_alive) if field.n_alive else 0.0,
        lost_episodes=lost,
        tracked_slots=tracked,
        detection_fraction=(detected_slots / covered_slots) if covered_slots else 0.0,
        per_step_energy=per_step,
        per_slot_awake=per_awake,
        per_slot_tracking=per_tracking,
        radio_reconciled=reconciled,
    )


def _report(cfg: ScenarioConfig, ledger: EnergyLedger, initial_energy: float,
            counters: MetricCounters, **fields) -> RunReport:
    """A report whose config, energy, PDR, delay and conservation fields are
    derived alike for every run; `fields` holds the rest."""
    final_energy = ledger.total_remaining()
    applied = math.fsum(d[3] for d in ledger.debits)
    return RunReport(
        method=cfg.method,
        seed=cfg.seed,
        n_nodes=cfg.field.n_nodes,
        r_s_m=cfg.field.r_s,
        r_c_m=cfg.field.r_c,
        total_energy_j=ledger.e_sx_total,
        pdr=pdr(counters),
        mean_delay_s=mean_delay(counters),
        config_digest=config_digest(cfg),
        conservation_rel_err=abs(initial_energy - final_energy - applied) / initial_energy,
        **fields,
    )


def paired_runs(cfg: ScenarioConfig, seed: int) -> tuple[RunReport, RunReport]:
    """(proposed, baseline) reports over the identical trajectory and layout;
    deploy() draws the layout for the proposed run, and the baseline reuses it."""
    scfg = with_seed(cfg, seed)
    trace = generate_trace(scfg.mobility, scfg.field, scfg.max_slots)
    rp = run(replace(scfg, method="proposed"), trace=trace)
    rb = run(replace(scfg, method="baseline"), trace=trace)
    return rp, rb


# -- throughput bench ---------------------------------------------------------

def _bench_endpoints(field: NodeField, n_background: int):
    """Origin/destination pair plus nearby background reporters."""
    for node in field.nodes:
        nbrs = neighbors_of(field, node.id)
        if not nbrs:
            continue
        ranked = sorted(nbrs, key=lambda t: (distance(field.node(t).pos, node.pos), t))
        return node.id, ranked[0], ranked[1:1 + n_background]
    raise ConfigError("no node has a neighbor in range; cannot run the bench")


def bench_run(cfg: ScenarioConfig) -> RunReport:
    """Bulk transfer of bench_packets data frames between one origin/destination.

    Proposed: the origin contends alone (everyone else sleeps). Baseline: the
    all-active neighborhood keeps reporting, so background senders share the
    channel and collide with the flow. Throughput is measured over channel
    airtime, so collision waste and ACK/CRC overhead both depress it.
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

    budget = enqueued * (cfg.slots.max_retries + 2) * 8
    outcomes = drain_queue(queues, budget, cfg.slots, rng)

    ledger = EnergyLedger(field, wake_cost=cfg.mode_costs.wake_cost)
    initial_energy = ledger.total_remaining()
    per_step = settle_radio(ledger, field, outcomes, cfg.radio)

    counters = MetricCounters(sent_pckt=enqueued)
    airtime_bits = 0
    for out in outcomes:
        airtime_bits += out.airtime_bits()
        for fr, delivery_slot in out.delivered:
            counters.recv_pckt += 1
            counters.bits_received += fr.bits
            t_s = fr.ts_slot if fr.ts_slot is not None else fr.enqueued_slot
            counters.delays.append((delivery_slot - t_s) * cfg.slots.slot_duration)
    counters.elapsed = airtime_bits / cfg.slots.data_rate

    return _report(
        cfg, ledger, initial_energy, counters,
        slots=len(outcomes),
        mean_active_nodes=float(len(senders) + 1),
        max_active_nodes=len(senders) + 1,
        # flow throughput over channel-busy time (the bench's counter sits at
        # the destination; per-node averaging is a tracking-run concept)
        throughput_bps=throughput(counters) if counters.elapsed > 0 else 0.0,
        lost_episodes=0,
        tracked_slots=len(outcomes),
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

    Tracking axes share one trajectory per seed (`paired_runs`); the
    data-rate axis (alias `throughput-bench`) runs the throughput bench
    instead of the tracking loop. Axis values that violate the config
    invariants are skipped with a warning.
    """
    if axis == "throughput-bench":
        axis = "data-rate"
    if axis not in AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {AXES}")
    reports: list[RunReport] = []
    for value in values:
        try:
            cfg_v = _apply_axis(base, axis, value)
        except ConfigError as exc:
            log.warning("skipping %s=%s: %s", axis, value, exc)
            continue
        for seed in seeds:
            if axis == "data-rate":
                pair = [bench_run(replace(with_seed(cfg_v, seed), method=m))
                        for m in ("baseline", "proposed")]
            else:
                pair = paired_runs(cfg_v, seed)[::-1]  # baseline first
            for report in pair:
                report.axis_name = axis
                report.axis_value = _fmt_value(value)
            reports.extend(pair)
    return reports


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

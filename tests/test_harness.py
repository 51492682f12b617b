"""Run loop, baseline comparator, sweeps, and CSV reporting."""

import csv
import hashlib
import json
import logging
import math
import pickle
import random
import sys
from array import array
from collections import deque
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from wsn_track_sim import (ConfigError, Episode, Frame, FrameKind,
                           MacService, MetricCounters, NodeField, NodeMode, Point,
                           SlotOutcome, TrackerState, default_scenario, deploy,
                           detectors_of, emit_csv, generate_trace, layout_of, run,
                           sweep)
from wsn_track_sim import field as field_module, harness
from wsn_track_sim.energy import (FJ, EnergyLedger, _charge_outcomes, settle_radio,
                                  settle_slot, throughput)
from wsn_track_sim.harness import CSV_COLUMNS, bench_run, paired_runs
from wsn_track_sim.mac import drain_queue
from wsn_track_sim.mobility import TraceRow
from wsn_track_sim.scenario import derive_seed, with_seed


def small_cfg(seed=0, slots=60, n_nodes=80):
    cfg = default_scenario(seed=seed, max_slots=slots)
    return with_seed(replace(cfg, field=replace(cfg.field, n_nodes=n_nodes)), seed)


def strip_field(n_nodes=250, xmin=300.0):
    """All nodes bunched away from the origin so a target at (0,0) is unseen,
    for the field config of `default_scenario(seed=0)`."""
    cfg = replace(default_scenario(seed=0).field, n_nodes=n_nodes)
    step = 190.0 / max(n_nodes - 1, 1)
    points = [Point(xmin + i * step * 0.9, 300.0 + (i % 40)) for i in range(n_nodes)]
    return NodeField(cfg, layout_of(points, cfg.r_s), 5 * FJ)


class TestRun:
    def test_single_slot_report(self):
        cfg = default_scenario(seed=0, max_slots=1)
        report = run(cfg)
        assert report.slots == 1
        assert len(report.per_step_energy) == 1
        assert report.total_energy_j > 0

    def test_zero_slots_rejected(self):
        with pytest.raises(ConfigError):
            default_scenario(seed=0, max_slots=0)

    @pytest.mark.parametrize("change", [dict(n_nodes=20), dict(r_s=20.0), dict(seed=1)])
    def test_a_field_built_for_another_config_is_rejected(self, change):
        # the report states cfg.field's n_nodes and the coverage test reads its r_s
        cfg = default_scenario(seed=0, max_slots=5)
        field = deploy(replace(cfg.field, **change))
        with pytest.raises(ConfigError, match="field built for"):
            run(cfg, field=field)
        assert run(cfg, field=deploy(cfg.field)) == run(cfg)

    def test_defaults_complete_and_sleep_pays_off(self):
        report = run(small_cfg(seed=0, slots=120))
        assert report.total_energy_j > 0
        assert report.mean_active_nodes < report.n_nodes
        assert report.conservation_rel_err <= 1e-12
        assert report.radio_reconciled

    def test_per_step_energy_reconciles(self):
        report = run(small_cfg(seed=1, slots=100))
        assert math.fsum(report.per_step_energy) == pytest.approx(
            report.total_energy_j, rel=1e-9)
        assert all(step >= 0 for step in report.per_step_energy)

    def test_mean_active_consistency(self):
        report = run(small_cfg(seed=2, slots=150))
        awake_tracked = [a for a, t in zip(report.per_slot_awake,
                                           report.per_slot_tracking) if t]
        assert report.tracked_slots == len(awake_tracked)
        if report.tracked_slots:
            assert report.mean_active_nodes * report.tracked_slots == \
                pytest.approx(sum(awake_tracked), rel=1e-12)
            assert report.max_active_nodes == max(awake_tracked)

    def test_detection_fraction_in_range(self):
        report = run(small_cfg(seed=3, slots=100))
        assert 0.0 <= report.detection_fraction <= 1.0

    def test_lost_episodes_count_tracking_to_not_tracking(self):
        # the proposed tracker loses the target exactly when it leaves
        # TRACKING; the baseline never does
        for seed in range(10):
            rp, rb = paired_runs(default_scenario(), seed)
            t = rp.per_slot_tracking
            losses = sum(1 for k in range(len(t) - 1) if t[k] and not t[k + 1])
            assert rp.lost_episodes == losses, f"seed {seed}"
            assert rb.lost_episodes == 0, f"seed {seed}"

    def test_a_radio_record_left_uncharged_breaks_reconciliation(self, monkeypatch):
        # the ledger's counts come from charging, the MAC's from the outcomes:
        # charging one rx record fewer must show
        skipped = []

        def skip_first_rx(ledger, outcomes):
            outcomes = list(outcomes)
            for i, out in enumerate(outcomes):
                rx = [r for r in out.records if r.op == "rx"]
                if rx and not skipped:
                    skipped.append(rx[0])
                    outcomes[i] = replace(out, records=[r for r in out.records
                                                        if r is not rx[0]])
            return _charge_outcomes(ledger, outcomes)

        monkeypatch.setattr("wsn_track_sim.energy._charge_outcomes", skip_first_rx)
        report = run(small_cfg(seed=0, slots=120))
        assert skipped and not report.radio_reconciled

    def test_a_broadcast_receiver_left_uncharged_breaks_reconciliation(self, monkeypatch):
        # the MAC side counts a broadcast's receivers from the broadcast:
        # charging one receiver fewer must show
        skipped = []

        def skip_first_receiver(ledger, outcomes):
            outcomes = list(outcomes)
            for i, out in enumerate(outcomes):
                for k, b in enumerate(out.broadcasts):
                    if len(b.receivers) > 1 and not skipped:
                        skipped.append(b.receivers[0])
                        kept = b._replace(receivers=b.receivers[1:])
                        outcomes[i] = replace(out, broadcasts=(
                            *out.broadcasts[:k], kept, *out.broadcasts[k + 1:]))
            return _charge_outcomes(ledger, outcomes)

        monkeypatch.setattr("wsn_track_sim.energy._charge_outcomes", skip_first_receiver)
        report = run(small_cfg(seed=0, slots=120))
        assert skipped and not report.radio_reconciled
        assert report.conservation_rel_err == 0.0  # the ledger itself stays exact


def exact(v):
    """`v` with every float as float.hex, in dicts, lists and packed arrays
    too, element by element; an array keeps its typecode, so a change of
    representation shows."""
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, array):
        return v.typecode, [x.hex() for x in v]
    if isinstance(v, dict):
        return {k: exact(x) for k, x in v.items()}
    return [exact(x) for x in v] if isinstance(v, list) else v


def reference_fold(records):
    """The per-slot accumulation `run()` did before slot records: the oracle
    for `_fold`."""
    per_step, per_awake, per_tracking = [], [], []
    lost = covered_slots = detected_slots = 0
    for joules, awake, tracking, lost_now, covered, detected in records:
        lost += lost_now
        per_step.append(joules)
        per_awake.append(awake)
        per_tracking.append(tracking)
        if covered:
            covered_slots += 1
            detected_slots += detected
    tracked = sum(per_tracking)
    tracked_awake = [a for a, t in zip(per_awake, per_tracking) if t]
    return dict(
        slots=len(records),
        mean_active_nodes=(sum(tracked_awake) / tracked) if tracked else 0.0,
        max_active_nodes=max(tracked_awake, default=0),
        lost_episodes=lost,
        tracked_slots=tracked,
        detection_fraction=(detected_slots / covered_slots) if covered_slots else 0.0,
        per_step_energy=array("d", per_step),
        per_slot_awake=per_awake,
        per_slot_tracking=per_tracking,
    )


# a loss needs tracking at the slot's start, a detection needs coverage
slot_records = st.builds(
    lambda j, a, t, lost, c, d: harness.SlotRecord(j, a, t, t and lost, c, c and d),
    st.floats(0.0, 10.0), st.integers(0, 4000), st.booleans(), st.booleans(),
    st.booleans(), st.booleans())


class TestFold:
    @given(st.lists(slot_records, max_size=60))
    @example([])
    @example([harness.SlotRecord(0.5, 3, False, False, False, False)] * 4)
    def test_fold_equals_the_accumulation_loop(self, records):
        assert exact(harness._fold(records)) == exact(reference_fold(records))

    def test_deliveries_delay_is_slots_times_t(self):
        # the first send stands for T_s; a frame that never reached the air
        # (ts_slot None) falls back to its enqueue slot
        sent = Frame(1, 2, FrameKind.DATA_PAYLOAD, 512, enqueued_slot=0, ts_slot=1)
        unsent = Frame(3, 4, FrameKind.DATA_PAYLOAD, 256, enqueued_slot=2)
        out = SlotOutcome(slot=2, delivered=[(sent, 3), (unsent, 3)])
        counters = MetricCounters()
        harness._deliveries(counters, [out], 0.1)
        assert counters.recv_pckt == 2 and counters.bits_received == 768
        # (3 - 1) * 0.1 == 0.2, where 3 * 0.1 - 1 * 0.1 == 0.20000000000000004
        assert counters.delays == [(3 - 1) * 0.1, (3 - 2) * 0.1]


class TestBaseline:
    def test_one_slot_no_detection_costs_pure_sensing(self):
        field = strip_field()
        cfg = default_scenario(seed=0, max_slots=1)
        trace = [TraceRow(0, 0.0, 0.0, 10.0)]
        report = run(replace(cfg, method="baseline"), trace=trace, field=field)
        assert report.total_energy_j == pytest.approx(250 * 0.012, rel=1e-9)
        assert report.pdr is None  # nothing was ever sent

    def test_all_alive_nodes_awake_every_slot(self):
        cfg = small_cfg(seed=4, slots=80)
        report = run(replace(cfg, method="baseline"))
        # no node dies in 80 slots, so the awake count is the node count
        assert report.per_slot_awake == [80] * 80

    def test_step_returns_the_all_active_schedule(self):
        cfg = small_cfg(seed=0, slots=1)
        field = deploy(cfg.field, cfg.mode_costs.initial_energy)
        mac = MacService(cfg.slots, random.Random(0))
        for target in (Point(-1000.0, -1000.0), field.pos(0)):
            res = harness._baseline_step(TrackerState(), field, target, mac, 0)
            assert res.common is NodeMode.DETECT and res.modes == {}
            assert not res.woken and not any(out.broadcasts for out in res.outcomes)

    def test_step_tracks_from_the_first_detection_on(self):
        cfg = small_cfg(seed=0, slots=3)
        field = deploy(cfg.field, cfg.mode_costs.initial_energy)
        mac = MacService(cfg.slots, random.Random(0))
        unseen, seen = Point(-1000.0, -1000.0), field.pos(0)
        res = harness._baseline_step(TrackerState(), field, unseen, mac, 0)
        assert not res.detectors and res.tracker.episode is Episode.IDLE
        res = harness._baseline_step(res.tracker, field, seen, mac, 1)
        assert res.detectors and res.tracker.episode is Episode.TRACKING
        res = harness._baseline_step(res.tracker, field, unseen, mac, 2)
        assert not res.detectors and res.tracker.episode is Episode.TRACKING

    def test_tracking_after_the_first_detected_slot(self):
        cfg = replace(small_cfg(seed=0, slots=120), method="baseline")
        field = deploy(cfg.field, cfg.mode_costs.initial_energy)
        trace = generate_trace(cfg.mobility, cfg.field, cfg.max_slots)
        seen = [bool(detectors_of(field, Point(row.x, row.y))) for row in trace]
        first = seen.index(True)
        assert first > 0 and not all(seen[first:])  # acquisition, then empty slots
        report = run(cfg)
        assert report.per_slot_awake == [80] * 120  # no death: the fresh field's detectors hold
        assert report.per_slot_tracking == [any(seen[:k]) for k in range(120)]

    def test_paired_energy_direction(self):
        for seed in (0, 1):
            rp, rb = paired_runs(default_scenario(max_slots=120), seed)
            assert rp.total_energy_j < rb.total_energy_j

    def test_paired_awake_dominance(self):
        rp, rb = paired_runs(default_scenario(max_slots=120), 3)
        for ap, ab, tp, tb in zip(rp.per_slot_awake, rb.per_slot_awake,
                                  rp.per_slot_tracking, rb.per_slot_tracking):
            if tp and tb:
                assert ap <= ab


class TestSweep:
    def test_comm_radius_sweep_shape(self):
        cfg = small_cfg(slots=25, n_nodes=60)
        reports = sweep(cfg, "comm-radius", [50.0, 55.0, 60.0], range(5))
        assert len(reports) == 30
        key = [(r.axis_value, r.seed, r.method) for r in reports]
        assert key == sorted(key, key=lambda t: (float(t[0]), t[1], t[2]))
        assert all(r.axis_name == "comm-radius" for r in reports)

    def test_invalid_axis_value_skipped(self, caplog):
        cfg = small_cfg(slots=10)
        with caplog.at_level(logging.WARNING):
            reports = sweep(cfg, "comm-radius", [40.0, 50.0], [0])
        assert len(reports) == 2  # the 40 m value violates r_c >= 2*r_s
        assert any("skipping" in rec.message for rec in caplog.records)
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            reports = sweep(cfg, "node-count", [60.5, 60.0], [0])
        assert [r.axis_value for r in reports] == ["60", "60"]  # no partial node
        assert any("skipping node-count=60.5" in rec.message for rec in caplog.records)

    def test_empty_seeds(self):
        assert sweep(small_cfg(slots=10), "node-count", [50], []) == []

    def test_unknown_axis(self):
        with pytest.raises(ConfigError):
            sweep(small_cfg(slots=10), "frequency", [1], [0])

    def test_paired_runs_share_trajectory(self):
        cfg = small_cfg(slots=40)
        reports = sweep(cfg, "node-count", [60], [7])
        rb, rp = reports
        assert {rb.method, rp.method} == {"baseline", "proposed"}
        assert rb.seed == rp.seed == 7

    @pytest.mark.parametrize("axis,values,seeds", [
        ("comm-radius", [50.0, 40.0, 60.0, 55], [3, 0, 3]),  # 40 m < 2 * r_s
        ("node-count", [60, 60.5, 80], [1, 2, 1]),
        ("data-rate", [8e6, 0.0, 2e6], [0, 0]),
    ])
    def test_equals_the_per_value_loop(self, tmp_path, caplog, axis, values, seeds):
        """Seed by seed, sweep writes the reports of a loop of paired_runs or
        bench_run over values, then seeds, in its order and to the byte, and
        warns once for the one invalid value. It reads `values` and `seeds`
        once each, so one-shot iterators lose no run."""
        cfg = replace(small_cfg(slots=30, n_nodes=60), bench_packets=60)
        with caplog.at_level(logging.WARNING):
            reports = sweep(cfg, axis, (v for v in values), iter(seeds))
        assert len([rec for rec in caplog.records if "skipping" in rec.message]) == 1
        reference = per_value_sweep(cfg, axis, values, seeds)
        assert ([(r.method, r.seed, r.axis_name, r.axis_value) for r in reports]
                == [(r.method, r.seed, r.axis_name, r.axis_value) for r in reference])
        assert len(reports) == 2 * (len(values) - 1) * len(seeds)
        assert csv_sha256(reports, tmp_path) == csv_sha256(reference, tmp_path)

    @pytest.mark.parametrize("axis,values,traces,draws", [
        ("comm-radius", [50.0, 55.0, 60.0], 2, 2),
        ("node-count", [60, 70, 80], 2, 6),
        ("data-rate", [8e6, 4e6, 2e6], 0, 2),
    ])
    def test_each_seed_builds_its_trajectory_and_layout_once(self, monkeypatch, axis,
                                                             values, traces, draws):
        """Trajectories and layouts that differ only in r_c, n_nodes or the data
        rate are not built again for the next value of a seed."""
        calls = {"generate_trace": 0, "layout_of": 0}

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(harness, "generate_trace")
        counted(field_module, "layout_of")
        field_module._drawn_layout.cache_clear()
        cfg = replace(small_cfg(slots=20, n_nodes=60), bench_packets=30)
        assert len(sweep(cfg, axis, values, [0, 1])) == 12
        assert calls == {"generate_trace": traces, "layout_of": draws}

    def test_data_rate_axis_runs_bench(self):
        cfg = replace(small_cfg(slots=10), bench_packets=150)
        reports = sweep(cfg, "data-rate", [8e6], [0])
        assert len(reports) == 2
        prop = next(r for r in reports if r.method == "proposed")
        base = next(r for r in reports if r.method == "baseline")
        assert prop.throughput_bps >= base.throughput_bps
        assert prop.pdr == 1.0


def per_value_sweep(base, axis, values, seeds):
    """A sweep as a loop of paired_runs or bench_run over the valid values,
    then the seeds, baseline first: the reference for sweep's reports."""
    reports = []
    for value in values:
        try:
            cfg_v = harness._apply_axis(base, axis, value)
        except ConfigError:
            continue
        for seed in seeds:
            if axis == "data-rate":
                pair = [bench_run(replace(with_seed(cfg_v, seed), method=m))
                        for m in ("baseline", "proposed")]
            else:
                pair = paired_runs(cfg_v, seed)[::-1]
            for r in pair:
                r.axis_name, r.axis_value = axis, harness._fmt_value(value)
            reports += pair
    return reports


def whole_drain_bench(cfg):
    """The throughput bench as one drain of the whole budget and one
    settle_radio over all its rounds: the reference for bench_run's chunks.
    Returns the report and the number of frames left queued."""
    field = deploy(cfg.field, cfg.mode_costs.initial_energy)
    rng = random.Random(derive_seed(cfg.seed, f"bench:{cfg.method}"))
    origin, dest, background = harness._bench_endpoints(field, cfg.bench_background_senders)
    senders = [origin, *background] if cfg.method == "baseline" else [origin]
    queues = {s: deque(Frame(s, dest, FrameKind.DATA_PAYLOAD, cfg.slots.data_packet_bits, 0)
                       for _ in range(cfg.bench_packets)) for s in senders}
    enqueued = len(senders) * cfg.bench_packets
    outcomes = drain_queue(queues, enqueued * (cfg.slots.max_retries + 2) * 8, cfg.slots, rng)
    ledger = EnergyLedger(field, cfg.mode_costs, cfg.radio)
    initial_energy = ledger.total_remaining()
    per_step, tx_bits = settle_radio(ledger, outcomes)
    counters = MetricCounters(sent_pckt=enqueued)
    harness._deliveries(counters, outcomes, cfg.slots.slot_duration)
    counters.elapsed = tx_bits / cfg.slots.data_rate
    report = harness._report(
        cfg, ledger, initial_energy, counters, slots=len(outcomes),
        mean_active_nodes=float(len(senders) + 1), max_active_nodes=len(senders) + 1,
        throughput_bps=throughput(counters) if counters.elapsed > 0 else 0.0,
        lost_episodes=0, tracked_slots=len(outcomes), detection_fraction=0.0,
        per_step_energy=array("d", per_step))
    return report, sum(len(q) for q in queues.values())


def exact_fields(report):
    """Every field of a report, as `exact` states it."""
    return exact({f.name: getattr(report, f.name) for f in fields(report)})


class TestBenchRun:
    # (baseline, proposed) throughput_bps as float.hex, recorded when the
    # airtime was summed over each outcome's tx records
    THROUGHPUT = {
        (0, True): ("0x1.c73765ef31de4p+19", "0x1.b2071c71c71c7p+22"),
        (0, False): ("0x1.e7374ea5d7bdcp+19", "0x1.e848000000000p+22"),
        (7, True): ("0x1.cf74db8072ee7p+19", "0x1.b2071c71c71c7p+22"),
        (7, False): ("0x1.f019eb36a1b61p+19", "0x1.e848000000000p+22"),
    }

    @pytest.mark.parametrize("seed,ack_crc", sorted(THROUGHPUT))
    def test_throughput_matches_recorded(self, seed, ack_crc):
        base = default_scenario()
        cfg = replace(with_seed(base, seed), slots=replace(
            base.slots, ack_enabled=ack_crc, crc_enabled=ack_crc))
        assert tuple(bench_run(replace(cfg, method=m)).throughput_bps.hex()
                     for m in ("baseline", "proposed")) == self.THROUGHPUT[(seed, ack_crc)]

    @pytest.mark.parametrize("chunk", [1, 7, None])
    @pytest.mark.parametrize("method,ack_crc,slot_kw", [
        ("baseline", True, {}),
        ("baseline", False, {}),
        ("proposed", True, {}),
        # the budget runs out with frames still queued
        ("baseline", True, {"p_persist": 0.01, "max_retries": 0}),
    ])
    def test_chunks_equal_one_drain(self, monkeypatch, chunk, method, ack_crc, slot_kw):
        """Drained and settled in chunks, the bench reports what one whole
        drain and one settle_radio report, and no settle_radio call holds
        more than one chunk of rounds."""
        if chunk is not None:
            monkeypatch.setattr(harness, "BENCH_CHUNK", chunk)
        base = default_scenario(seed=3)
        cfg = replace(with_seed(base, 3), method=method, bench_packets=40 if slot_kw else 300,
                      slots=replace(base.slots, ack_enabled=ack_crc, crc_enabled=ack_crc,
                                    **slot_kw))
        sizes = []

        def settle(ledger, outcomes):
            sizes.append(len(outcomes))
            return settle_radio(ledger, outcomes)

        monkeypatch.setattr(harness, "settle_radio", settle)
        report = bench_run(cfg)
        ref, left = whole_drain_bench(cfg)
        assert exact_fields(report) == exact_fields(ref)
        assert max(sizes) <= harness.BENCH_CHUNK < report.slots
        assert (left > 0) == bool(slot_kw)


def small_report(kind):
    """A small report of a kind: "run", or "bench-" and a method; the bench's
    rounds span several chunks."""
    if kind == "run":
        return run(small_cfg(seed=1, slots=40))
    method = kind.removeprefix("bench-")
    return bench_run(replace(default_scenario(seed=3), method=method, bench_packets=300))


KINDS = ["run", "bench-baseline", "bench-proposed"]


class TestPackedEnergy:
    """`per_step_energy` holds each slot's or MAC round's joules as one C double."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_8_bytes_a_step(self, kind):
        report = small_report(kind)
        series = report.per_step_energy
        assert type(series) is array and series.typecode == "d"
        assert len(series) == report.slots
        assert sys.getsizeof(series) <= 9 * report.slots + 128
        assert kind == "run" or report.slots > harness.BENCH_CHUNK

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_report_survives_pickling(self, kind):
        # a process pool hands reports back pickled
        report = small_report(kind)
        back = pickle.loads(pickle.dumps(report))
        assert back == report and exact_fields(back) == exact_fields(report)


class TestWhatTheBenchReads:
    """What the benchmark's notes and memory figures rest on."""

    @pytest.mark.parametrize("method", ["baseline", "proposed"])
    def test_the_log_grows_by_one_record_per_radio_record(self, monkeypatch, method):
        grown, received, ledgers = [], [], set()

        def settle(ledger, outcomes):
            before = len(ledger.debits)
            result = settle_radio(ledger, outcomes)
            grown.append(len(ledger.debits) - before)
            received.append(sum(len(out.records) for out in outcomes))
            ledgers.add(ledger)
            return result

        monkeypatch.setattr(harness, "settle_radio", settle)
        bench_run(replace(default_scenario(seed=3), method=method, bench_packets=300))
        (ledger,) = ledgers
        assert grown == received and len(grown) > 1
        assert len(ledger.debits) == sum(received)

    def test_a_frame_has_no_dict_and_pickles(self):
        frame = Frame(3, 4, FrameKind.DATA_PAYLOAD, 512, 7, retries=2, ts_slot=9)
        assert not hasattr(frame, "__dict__")
        with pytest.raises(AttributeError):
            frame.note = "x"
        assert pickle.loads(pickle.dumps(frame)) == frame


class TestEmitCsv:
    def test_header_plus_rows(self, tmp_path):
        reports = sweep(small_cfg(slots=10, n_nodes=60), "comm-radius",
                        [50.0, 55.0, 60.0], range(5))
        path = tmp_path / "sweep.csv"
        assert emit_csv(reports, str(path)) == 31
        lines = path.read_text().splitlines()
        assert len(lines) == 31
        assert lines[0] == ",".join(CSV_COLUMNS)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], str(tmp_path / "x.csv"))

    def test_round_trip(self, tmp_path):
        reports = sweep(small_cfg(slots=30, n_nodes=60), "node-count", [60], [0, 1])
        path = tmp_path / "r.csv"
        emit_csv(reports, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(reports)
        for row, rep in zip(rows, reports):
            assert row["method"] == rep.method
            assert int(row["seed"]) == rep.seed
            assert float(row["total_energy_j"]) == pytest.approx(
                rep.total_energy_j, rel=1e-8)  # 9 significant digits
            assert float(row["mean_active_nodes"]) == pytest.approx(
                rep.mean_active_nodes, rel=1e-8)
            if rep.pdr is None:
                assert row["pdr"] == ""
            else:
                assert float(row["pdr"]) == pytest.approx(rep.pdr, rel=1e-8)

    def test_identical_config_identical_bytes(self, tmp_path):
        cfg = small_cfg(seed=5, slots=50)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv([run(cfg)], str(a))
        emit_csv([run(cfg)], str(b))
        assert a.read_bytes() == b.read_bytes()


class TestGoldenReports:
    """Pool seed 0 of each benchmark workload, run as the benchmark's sweep
    pass runs it, must write the report bytes recorded in bench/digests.json."""

    DIGESTS = Path(__file__).resolve().parent.parent / "bench" / "digests.json"

    @staticmethod
    def _bases(workload):
        if workload == "track-n4000":
            return [default_scenario(max_slots=50)]
        base = default_scenario()
        if workload == "mac-bench":
            return [replace(base, slots=replace(base.slots, ack_enabled=on,
                                                crc_enabled=on))
                    for on in (True, False)]
        return [base]

    @pytest.mark.parametrize("workload,axis,values", [
        ("sweep-n250", "comm-radius", ["50", "55", "60"]),
        ("track-n4000", "node-count", ["4000"]),
        ("mac-bench", "data-rate", ["8000000"]),
    ])
    def test_seed0_csv_matches_recorded_digest(self, tmp_path, workload, axis, values):
        self._check(tmp_path, workload, axis, values, 0)

    # the grid index and the awake-only mode pass save the most at N = 4000
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_track_n4000_csv_matches_recorded_digest(self, tmp_path, seed):
        self._check(tmp_path, "track-n4000", "node-count", ["4000"], seed)

    def _check(self, tmp_path, workload, axis, values, seed):
        reports = []
        for base in self._bases(workload):
            reports += sweep(base, axis, values, [seed])
        path = tmp_path / "report.csv"
        emit_csv(reports, str(path))
        recorded = json.loads(self.DIGESTS.read_text(encoding="utf-8"))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == recorded[workload][str(seed)]


def csv_sha256(reports, tmp_path):
    path = tmp_path / "report.csv"
    emit_csv(reports, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSweepGoldens:
    """Report digests of sweeps that bench/digests.json does not cover,
    recorded before sleepers were charged lazily."""

    def test_c02_node_count_axis(self, tmp_path):
        reports = sweep(default_scenario(), "node-count", [100, 150, 200, 250], [0, 1, 2, 3])
        assert csv_sha256(reports, tmp_path) == (
            "94719e75399eb3d2b3174000b3685944bd24d4284d283010284297e799bb131a")

    def test_low_battery_sleepers_run_dry(self, tmp_path):
        base = default_scenario()
        low = replace(base, mode_costs=replace(base.mode_costs, initial_energy=0.1))
        reports = sweep(low, "comm-radius", [50, 60], [0, 1, 2, 3])
        assert csv_sha256(reports, tmp_path) == (
            "41a4fd039a4fc8206641d35de9a449070703204644416b201581c77189ac51cc")


small_runs = st.builds(
    lambda method, seed, n_nodes, energy: replace(
        small_cfg(seed=seed, slots=200, n_nodes=n_nodes), method=method,
        mode_costs=replace(default_scenario().mode_costs, initial_energy=energy)),
    st.sampled_from(["proposed", "baseline"]), st.integers(0, 2**16),
    st.sampled_from([80, 250]), st.sampled_from([5.0, 0.3, 0.05]))


@settings(max_examples=16, deadline=None)
@given(small_runs)
def test_a_step_leaves_the_schedule_and_the_nodes_unchanged(cfg):
    """A step reads the slot body's schedule and returns the next one in a
    fresh dict: the field keeps its common mode, its very map with the same
    contents, and every alive flag."""
    calls = []

    def guarded(step):
        def call(tracker, field, *args, **kwargs):
            common, modes, contents = field.common, field.modes, dict(field.modes)
            alive = list(field.alive)
            res = step(tracker, field, *args, **kwargs)
            assert field.common is common and field.modes is modes and modes == contents
            assert field.alive == alive
            assert res.modes is not modes
            calls.append(res)
            return res
        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "tracking_step", guarded(harness.tracking_step))
        mp.setattr(harness, "_baseline_step", guarded(harness._baseline_step))
        report = run(cfg)
    assert len(calls) == report.slots


def schedule_checked(scanned):
    """A `settle_slot` that checks the schedule around each call and appends
    a scan of the slot body's awake count to `scanned`. After each call, a
    node is alive exactly when the level it would have after paying what it
    owes is above zero: no lazy node passes its horizon."""
    def checked(ledger, outcomes, slot_modes, woken, slot, *, common):
        # the ledger logs an outcome's records at the outcome's own slot
        assert all(out.slot == slot for out in outcomes)
        field = ledger.field
        alive = field.alive
        assert all(alive[i] for i in slot_modes)
        scanned.append(sum(a and slot_modes.get(i, common) is not NodeMode.SLEEP
                           for i, a in enumerate(alive)))
        settle_slot(ledger, outcomes, slot_modes, woken, slot, common=common)
        assert all(alive[i] and m is not NodeMode.SLEEP and m is not field.common
                   for i, m in field.modes.items())
        assert field.n_alive == sum(alive)
        owed = [(ledger._through - paid) * ledger._cost for paid in ledger._paid]
        assert all(level - due > 0 if a else level == 0
                   for a, level, due in zip(alive, field.level, owed))
    return checked


@settings(max_examples=16, deadline=None)
@given(small_runs)
def test_schedule_after_every_slot_holds_alive_exceptions_only(cfg):
    """After every slot of run(), each id in `field.modes` is an alive node in
    neither sleep nor the common mode, and `per_slot_awake` equals a scan of
    the slot body's schedule. After the run's final flush, a node is alive
    exactly when its level is above zero: deaths come only from the clamp at
    zero, and no lazy node outlives its battery."""
    scanned = []
    field = deploy(cfg.field, cfg.mode_costs.initial_energy)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "settle_slot", schedule_checked(scanned))
        report = run(cfg, field=field)
    assert report.per_slot_awake == scanned and len(scanned) == 200
    assert all(alive == (level > 0) for alive, level in zip(field.alive, field.level))
    assert field.n_alive == field.alive.count(True)


@pytest.mark.parametrize("method", ["proposed", "baseline"])
@pytest.mark.parametrize("energy", [5.0, 0.05])
def test_awake_set_matches_modes_after_every_slot(monkeypatch, method, energy):
    """The same checks on three fixed 200-slot runs per method and battery,
    one with full batteries and one where nodes run dry."""
    for seed in range(3):
        scanned = []
        monkeypatch.setattr(harness, "settle_slot", schedule_checked(scanned))
        cfg = small_cfg(seed=seed, slots=200)
        cfg = replace(cfg, method=method,
                      mode_costs=replace(cfg.mode_costs, initial_energy=energy))
        report = run(cfg)
        assert report.per_slot_awake == scanned and len(scanned) == 200

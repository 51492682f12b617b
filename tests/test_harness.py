"""Run loop, baseline comparator, sweeps, and CSV reporting."""

import csv
import hashlib
import json
import logging
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

from wsn_track_sim import (ConfigError, Episode, FieldConfig, MacService, NodeField,
                           NodeMode, Point, SensorNode, TrackerState, default_scenario,
                           deploy, detectors_of, emit_csv, generate_trace, run, sweep)
from wsn_track_sim import harness
from wsn_track_sim.energy import settle_slot
from wsn_track_sim.harness import CSV_COLUMNS, paired_runs
from wsn_track_sim.mobility import TraceRow
from wsn_track_sim.scenario import with_seed


def small_cfg(seed=0, slots=60, n_nodes=80):
    cfg = default_scenario(seed=seed, max_slots=slots)
    return with_seed(replace(cfg, field=replace(cfg.field, n_nodes=n_nodes)), seed)


def strip_field(n_nodes=250, xmin=300.0):
    """All nodes bunched away from the origin so a target at (0,0) is unseen."""
    cfg = FieldConfig(n_nodes=n_nodes, seed=0)
    step = 190.0 / max(n_nodes - 1, 1)
    nodes = [SensorNode(id=i, pos=Point(xmin + i * step * 0.9, 300.0 + (i % 40)),
                        remaining_energy=5.0) for i in range(n_nodes)]
    return NodeField(nodes, cfg)


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

    def test_step_tracks_from_the_first_detection_on(self):
        cfg = small_cfg(seed=0, slots=3)
        field = deploy(cfg.field, cfg.mode_costs.initial_energy)
        mac = MacService(cfg.slots, random.Random(0))
        unseen, seen = Point(-1000.0, -1000.0), field.nodes[0].pos
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

    def test_data_rate_axis_runs_bench(self):
        cfg = replace(small_cfg(slots=10), bench_packets=150)
        reports = sweep(cfg, "data-rate", [8e6], [0])
        assert len(reports) == 2
        prop = next(r for r in reports if r.method == "proposed")
        base = next(r for r in reports if r.method == "baseline")
        assert prop.throughput_bps >= base.throughput_bps
        assert prop.pdr == 1.0


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


@pytest.mark.parametrize("method", ["proposed", "baseline"])
@pytest.mark.parametrize("energy", [5.0, 0.05])
def test_awake_set_matches_modes_after_every_slot(monkeypatch, method, energy):
    settled = []

    def checked(ledger, field, *args, **kwargs):
        settle_slot(ledger, field, *args, **kwargs)
        assert field.awake == {n.id for n in field.nodes if n.mode is not NodeMode.SLEEP}
        assert field.n_alive == sum(n.alive for n in field.nodes)
        settled.append(len(field.awake))

    monkeypatch.setattr(harness, "settle_slot", checked)
    for seed in range(3):
        cfg = small_cfg(seed=seed, slots=200)
        cfg = replace(cfg, method=method,
                      mode_costs=replace(cfg.mode_costs, initial_energy=energy))
        run(cfg)
    assert len(settled) == 600

"""Acceptance gate: directional reproduction of every claimed comparison plus
property suites, one test per criterion. Run with -v for per-criterion lines.
"""

import math
import random
import time
from dataclasses import replace

import pytest

from wsn_track_sim import (FieldConfig, MobilityConfig, NodeField, NodeMode,
                           Point, default_scenario, elect_representative,
                           generate_trace, k_closest, layout_of, run, wake_set)
from wsn_track_sim.cli import main as cli_main
from wsn_track_sim.energy import FJ, debit_counts_by_reason
from wsn_track_sim.field import deploy, detectors_of, neighbors_of
from wsn_track_sim.harness import bench_run, paired_runs
from wsn_track_sim.mobility import observed_speed
from wsn_track_sim.protocol import PredictedRegion, predicted_region
from wsn_track_sim.scenario import with_seed

SEEDS_10 = range(10)
COMM_RADII = (50.0, 55.0, 60.0)
NODE_COUNTS = (100, 150, 200, 250)
DATA_RATES_MBPS = (8e6, 16e6, 24e6, 32e6)  # 1..4 MB/s in bits/s
BENCH_SEEDS = range(3)


def report_line(name, ok=True):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def paired_by_radius():
    """Paired runs on Table-defaults for r_c in {50,55,60}, seeds 0..9."""
    base = default_scenario()
    results = {}
    for r_c in COMM_RADII:
        cfg = replace(base, field=replace(base.field, r_c=r_c))
        for seed in SEEDS_10:
            start = time.perf_counter()
            results[(r_c, seed)] = paired_runs(cfg, seed) + (
                time.perf_counter() - start,)
    return results


@pytest.fixture(scope="module")
def paired_by_node_count():
    base = default_scenario()
    results = {}
    for n in NODE_COUNTS:
        cfg = replace(base, field=replace(base.field, n_nodes=n))
        for seed in range(5):
            results[(n, seed)] = paired_runs(cfg, seed)
    return results


@pytest.fixture(scope="module")
def bench_reports():
    """throughput-bench preset: rate x seed x method x (ack/crc on, off)."""
    base = default_scenario()
    results = {}
    for rate in DATA_RATES_MBPS:
        for seed in BENCH_SEEDS:
            for overhead in (True, False):
                cfg = replace(base, slots=replace(base.slots, data_rate=rate,
                                                  ack_enabled=overhead,
                                                  crc_enabled=overhead))
                cfg = with_seed(cfg, seed)
                for method in ("proposed", "baseline"):
                    results[(rate, seed, method, overhead)] = bench_run(
                        replace(cfg, method=method))
    return results


def test_c01_energy_superiority(paired_by_radius):
    """Criterion 1: total energy strictly lower for every r_c and seed; <10 s/pair."""
    for (r_c, seed), (rp, rb, elapsed) in paired_by_radius.items():
        assert rp.total_energy_j < rb.total_energy_j, \
            f"r_c={r_c} seed={seed}: {rp.total_energy_j} !< {rb.total_energy_j}"
        assert elapsed < 10.0, f"paired run took {elapsed:.1f} s"
    report_line("C1 energy-superiority (Figs. 8/11 direction)")


def test_c02_node_count_scaling(paired_by_node_count):
    """Criterion 2: energy growth from 100 to 250 nodes is flatter than baseline."""
    for seed in range(5):
        slope_p = (paired_by_node_count[(250, seed)][0].total_energy_j
                   - paired_by_node_count[(100, seed)][0].total_energy_j)
        slope_b = (paired_by_node_count[(250, seed)][1].total_energy_j
                   - paired_by_node_count[(100, seed)][1].total_energy_j)
        assert slope_p < slope_b, f"seed {seed}: {slope_p} !< {slope_b}"
    report_line("C2 node-count scaling (Fig. 9 direction)")


def test_c03_involved_nodes(paired_by_radius):
    """Criterion 3: awake dominance per tracking slot and mean active < N/4."""
    any_tracked = 0
    for seed in SEEDS_10:
        rp, rb, _ = paired_by_radius[(50.0, seed)]
        for awake_p, awake_b, track_p, track_b in zip(
                rp.per_slot_awake, rb.per_slot_awake,
                rp.per_slot_tracking, rb.per_slot_tracking):
            if track_p and track_b:
                assert awake_p <= awake_b
        assert rp.mean_active_nodes < 0.25 * rp.n_nodes, \
            f"seed {seed}: mean {rp.mean_active_nodes}"
        any_tracked += rp.tracked_slots
    assert any_tracked > 0
    report_line("C3 involved-node count (Fig. 10 direction)")


def test_c04_throughput_direction(bench_reports):
    """Criterion 4: proposed >= baseline at every rate/seed; overhead off >= on."""
    for rate in DATA_RATES_MBPS:
        for seed in BENCH_SEEDS:
            for overhead in (True, False):
                thr_p = bench_reports[(rate, seed, "proposed", overhead)].throughput_bps
                thr_b = bench_reports[(rate, seed, "baseline", overhead)].throughput_bps
                assert thr_p >= thr_b, f"rate={rate} seed={seed} ovh={overhead}"
            for method in ("proposed", "baseline"):
                thr_on = bench_reports[(rate, seed, method, True)].throughput_bps
                thr_off = bench_reports[(rate, seed, method, False)].throughput_bps
                assert thr_off >= thr_on, f"rate={rate} seed={seed} {method}"
    report_line("C4 throughput direction (Fig. 12)")


def test_c05_proposition_containment():
    """Criterion 5: exact-estimate containment in 100% of constant-velocity
    slots (>=5000), displacement <= r_s in 100% of all slots (>=10000)."""
    fc = FieldConfig()
    rows = generate_trace(MobilityConfig(seed=101), fc, 12_000)

    for a, b in zip(rows, rows[1:]):
        step = math.hypot(b.x - a.x, b.y - a.y)
        assert step <= fc.r_s * (1 + 1e-12)

    segment_slots = 0
    for a, b, c in zip(rows, rows[1:], rows[2:]):
        if not (a.speed == b.speed == c.speed):
            continue
        est_speed = observed_speed(Point(a.x, a.y), Point(b.x, b.y), 1.0)
        region = predicted_region(Point(b.x, b.y), est_speed, 1.0, fc.r_s,
                                  alpha=1.0)
        assert region.contains(Point(c.x, c.y)), f"slot {b.slot}"
        segment_slots += 1
    assert segment_slots >= 5000
    report_line("C5 proposition containment (predicted circle)")


def test_c06_oracle_equivalence():
    """Criterion 6: range queries and election match brute force exactly."""
    rng = random.Random(2025)
    field = deploy(FieldConfig(seed=77), 5.0)
    for i in range(field.config.n_nodes):
        if rng.random() < 0.05:
            field.kill(i)
    positions = {i: (field.pos(i).x, field.pos(i).y) for i in range(field.config.n_nodes)}
    alive = {i for i, a in enumerate(field.alive) if a}

    def dist(a, b):
        return math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2)

    for _ in range(1000):
        p = (rng.uniform(0, 500), rng.uniform(0, 500))
        point = Point(*p)

        brute = {i for i in alive if dist(positions[i], p) <= 25.0}
        assert detectors_of(field, point) == brute

        nid = rng.choice(sorted(alive))
        brute_n = {i for i in alive
                   if i != nid and dist(positions[i], positions[nid]) <= 50.0}
        assert neighbors_of(field, nid).keys() == brute_n

        radius = rng.uniform(0, 25)
        region = PredictedRegion(point, radius)
        brute_w = {i for i in alive if dist(positions[i], p) <= radius + 25.0}
        assert wake_set(field, region) == brute_w

        cands = set(rng.sample(sorted(alive), rng.randint(1, 25)))
        ranked = sorted(cands, key=lambda i: (dist(positions[i], p), i))
        assert k_closest(field, point, 2, cands) == ranked[:2]
        assert elect_representative(cands) == min(cands)
    report_line("C6 oracle equivalence (1000 random instances)")


def test_c07_ledger_conservation(paired_by_radius, bench_reports):
    """Criterion 7: conservation to 1e-12 relative; MAC and ledger counts agree."""
    for rp, rb, _ in paired_by_radius.values():
        assert rp.conservation_rel_err <= 1e-12
        assert rb.conservation_rel_err <= 1e-12
        assert rp.radio_reconciled and rb.radio_reconciled
    for report in bench_reports.values():
        assert report.conservation_rel_err <= 1e-12

    # explicit N_t/N_r cross-check on a fresh instrumented run
    from collections import Counter
    from wsn_track_sim.energy import EnergyLedger, settle_slot
    from wsn_track_sim.mac import MacService, SlotConfig
    from wsn_track_sim.protocol import TrackerState, tracking_step

    cfg = with_seed(default_scenario(max_slots=120), 3)
    field = deploy(cfg.field, cfg.mode_costs.initial_energy)
    trace = generate_trace(cfg.mobility, cfg.field, 120)
    ledger = EnergyLedger(field, cfg.mode_costs, cfg.radio)
    mac = MacService(cfg.slots, random.Random(9))
    tracker = TrackerState()
    tx_mac, rx_mac = Counter(), Counter()
    # run()'s order: the whole field detects before slot 0; each slot installs
    # the step's schedule, then settles the slot body's
    field.common, field.modes = NodeMode.DETECT, {}
    for k, row in enumerate(trace):
        common, modes = field.common, field.modes
        res = tracking_step(tracker, field, Point(row.x, row.y), mac, k,
                            speed_prior=cfg.mobility.v_max)
        tracker = res.tracker
        field.common, field.modes = res.common, res.modes
        for out in res.outcomes:
            tx_mac.update(r.node for r in out.records if r.op == "tx")
            rx_mac.update(r.node for r in out.records if r.op == "rx")
        settle_slot(ledger, res.outcomes, modes, res.woken, k, common=common)
    assert tx_mac == debit_counts_by_reason(ledger, "tx")
    assert rx_mac == debit_counts_by_reason(ledger, "rx")
    assert sum(tx_mac.values()) > 0
    report_line("C7 energy-ledger conservation and N_t/N_r reconciliation")


def test_c08_metric_fixtures():
    """Criterion 8: the three metric formulas reproduce hand-computed values."""
    from wsn_track_sim import MetricCounters, delay, pdr, throughput

    assert throughput(MetricCounters(bits_received=1_536_000,
                                     elapsed=1.536)) == 1_000_000.0
    assert pdr(MetricCounters(sent_pckt=3000, recv_pckt=2900)) == 2900 / 3000
    assert round(pdr(MetricCounters(sent_pckt=3000, recv_pckt=2900)), 4) == 0.9667
    assert delay(2.3, 2.5) == pytest.approx(0.2, rel=1e-12)
    assert delay(0.0, 2.0) == 2.0  # one-retry frame at T = 1 s
    report_line("C8 metric fixtures (throughput, PDR, delay)")


def test_c09_determinism(tmp_path):
    """Criterion 9: identical invocations produce byte-identical report CSV."""
    conf = tmp_path / "sim.conf"
    conf.write_text("run.max_slots = 80\nrun.seed = 5\n")
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["run", "--config", str(conf), "--out", str(out_a)]) == 0
    assert cli_main(["run", "--config", str(conf), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    report_line("C9 determinism (byte-identical reports)")


def test_c10_loss_handling():
    """Criterion 10: a coverage hole on the path yields a lost episode and an
    empty awake set at the loss slot."""
    n = 20
    positions = [(5.0 + 10.0 * i, 100.0) for i in range(n)]  # covered to x=220
    cfg = replace(default_scenario(max_slots=20),
                  field=replace(default_scenario().field, n_nodes=n))
    fc = cfg.field
    field = NodeField(fc, layout_of([Point(*p) for p in positions], fc.r_s), 5 * FJ)
    from wsn_track_sim.mobility import TraceRow
    trace = [TraceRow(k, 20.0 * k, 100.0, 20.0) for k in range(20)]

    report = run(cfg, trace=trace, field=field)
    assert report.lost_episodes >= 1
    tracking = report.per_slot_tracking
    loss_slot = next(k for k in range(len(tracking) - 1)
                     if tracking[k] and not tracking[k + 1])
    assert report.per_slot_awake[loss_slot + 1] == 0  # nobody awake afterwards
    assert field.common is NodeMode.SLEEP and not field.modes
    report_line("C10 loss handling (coverage hole)")

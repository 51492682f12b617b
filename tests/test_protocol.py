"""Tracking state machine: election, estimation, prediction, wake sets, steps."""

import math
import random

import pytest

from wsn_track_sim import (ClosestPair, Episode, FieldConfig,
                           MobilityConfig, NodeField, NodeMode, Point,
                           SensorNode, StateError, TrackerState,
                           elect_representative, estimate_position,
                           generate_trace, predicted_region, tracking_step,
                           wake_set)
from wsn_track_sim import protocol
from wsn_track_sim.mac import MacService, SlotConfig
from wsn_track_sim.mobility import observed_speed


def make_field(positions, r_s=25.0, r_c=50.0, area=1000.0, energy=5.0):
    cfg = FieldConfig(area_width=area, area_height=area,
                      n_nodes=len(positions), r_s=r_s, r_c=r_c, seed=0)
    nodes = [SensorNode(id=i, pos=Point(*p), remaining_energy=energy)
             for i, p in enumerate(positions)]
    return NodeField(nodes, cfg)


def mac(p_persist=1.0, seed=0):
    return MacService(SlotConfig(p_persist=p_persist), random.Random(seed))


class NeverTransmitRng:
    def random(self):
        return 0.99  # above any p_persist < 0.99


class TestElection:
    def test_minimum(self):
        assert elect_representative({7, 3, 12}) == 3

    def test_singleton(self):
        assert elect_representative({42}) == 42

    def test_empty_rejected(self):
        with pytest.raises(StateError):
            elect_representative(set())

    def test_matches_exhaustive_min(self):
        rng = random.Random(11)
        for _ in range(1000):
            ids = {rng.randrange(10_000) for _ in range(rng.randint(1, 40))}
            best = None
            for i in ids:  # exhaustive scan
                if best is None or i < best:
                    best = i
            assert elect_representative(ids) == best


class TestEstimatePosition:
    def test_symmetric_midpoint(self):
        field = make_field([(0, 0), (10, 0)])
        pair = ClosestPair(0, 5.0, 1, 5.0)
        assert estimate_position(field, pair) == Point(5.0, 0.0)

    def test_collocated_with_closer_anchor(self):
        field = make_field([(0, 0), (10, 0)])
        pair = ClosestPair(0, 0.0, 1, 10.0)
        assert estimate_position(field, pair) == Point(0.0, 0.0)

    def test_single_anchor(self):
        field = make_field([(3, 4), (80, 80)])
        assert estimate_position(field, ClosestPair(0, 7.0)) == Point(3, 4)

    def test_zero_ranges(self):
        field = make_field([(1, 2), (9, 9)])
        assert estimate_position(field, ClosestPair(0, 0.0, 1, 0.0)) == Point(1, 2)

    def test_error_bounded_by_range_sum(self):
        rng = random.Random(31)
        for _ in range(1000):
            target = Point(rng.uniform(100, 900), rng.uniform(100, 900))
            a = Point(target.x + rng.uniform(-25, 25), target.y + rng.uniform(-25, 25))
            b = Point(target.x + rng.uniform(-25, 25), target.y + rng.uniform(-25, 25))
            d_a = math.hypot(a.x - target.x, a.y - target.y)
            d_b = math.hypot(b.x - target.x, b.y - target.y)
            field = make_field([(a.x, a.y), (b.x, b.y)])
            if d_a <= d_b:
                pair = ClosestPair(0, d_a, 1, d_b)
            else:
                pair = ClosestPair(1, d_b, 0, d_a)
            est = estimate_position(field, pair)
            err = math.hypot(est.x - target.x, est.y - target.y)
            assert err <= d_a + d_b + 1e-9

    def test_pair_ordering_enforced(self):
        with pytest.raises(ValueError):
            ClosestPair(0, 9.0, 1, 5.0)
        with pytest.raises(ValueError):
            ClosestPair(0, 1.0, 0, 2.0)


class TestPredictedRegion:
    def test_max_speed_hits_cap(self):
        region = predicted_region(Point(0, 0), 25.0, 1.0, 25.0, alpha=1.0)
        assert region.radius == 25.0

    def test_stationary_gets_floor(self):
        region = predicted_region(Point(0, 0), 0.0, 1.0, 25.0)
        assert region.radius == 2.5

    def test_alpha_scaling_and_clamp(self):
        assert predicted_region(Point(0, 0), 20, 1.0, 25, alpha=1.0).radius == 20.0
        assert predicted_region(Point(0, 0), 20, 1.0, 25, alpha=1.5).radius == 25.0

    def test_rejects_negative_speed(self):
        with pytest.raises(ValueError):
            predicted_region(Point(0, 0), -1.0, 1.0, 25.0)

    def test_contains_boundary(self):
        region = predicted_region(Point(0, 0), 10.0, 1.0, 25.0, alpha=1.0)
        assert region.contains(Point(10.0, 0.0))
        assert not region.contains(Point(10.1, 0.0))


class TestWakeSet:
    def test_boundary_inclusive(self):
        field = make_field([(35.0, 0.0), (35.001, 0.001)])
        from wsn_track_sim.protocol import PredictedRegion
        region = PredictedRegion(Point(0, 0), 10.0)  # reach = 10 + 25 = 35
        assert 0 in wake_set(field, region)
        assert 1 not in wake_set(field, region)

    def test_matches_exhaustive_scan(self):
        from wsn_track_sim.protocol import PredictedRegion
        rng = random.Random(13)
        positions = [(rng.uniform(0, 500), rng.uniform(0, 500)) for _ in range(150)]
        field = make_field(positions)
        field.nodes[10].alive = False
        for _ in range(500):
            region = PredictedRegion(Point(rng.uniform(0, 500), rng.uniform(0, 500)),
                                     rng.uniform(0, 25))
            expected = set()
            for n in field.nodes:
                d = math.sqrt((n.pos.x - region.center.x) ** 2
                              + (n.pos.y - region.center.y) ** 2)
                if n.alive and d <= region.radius + 25.0:
                    expected.add(n.id)
            assert wake_set(field, region) == expected


class TestTrackingStep:
    def test_singleton_field_episode(self):
        field = make_field([(100, 100)])
        res = tracking_step(TrackerState(), field, Point(100, 110), mac(), 0,
                            speed_prior=20.0)
        assert res.tracker.episode is Episode.TRACKING
        assert res.tracker.representative == 0
        assert res.tracker.closest == ClosestPair(0, 10.0)
        assert res.tracker.est_pos == Point(100, 100)
        assert res.frames_sent == 0  # no second node to notify
        assert field.nodes[0].mode is NodeMode.MONITOR

    def test_acquisition_wakes_whole_field(self):
        field = make_field([(0, 0), (400, 400), (800, 800)])
        res = tracking_step(TrackerState(), field, Point(600, 600), mac(), 0)
        # nobody in range: still idle, everybody keeps sensing
        assert res.tracker.episode is Episode.IDLE
        assert res.common is NodeMode.DETECT
        assert res.slot_modes == {}
        assert res.n_awake == 3
        assert all(n.mode is NodeMode.DETECT for n in field.nodes)

    def test_loss_sleeps_everyone(self):
        field = make_field([(0, 0), (30, 0), (60, 0)])
        first = tracking_step(TrackerState(), field, Point(15, 0), mac(), 0)
        assert first.tracker.episode is Episode.TRACKING
        res = tracking_step(first.tracker, field, Point(500, 500), mac(), 1)
        assert res.tracker.episode is Episode.LOST
        assert all(n.mode is NodeMode.SLEEP for n in field.nodes)

    def test_lost_step_with_nobody_awake_detects_nothing(self, monkeypatch):
        # node 1 is alive and covers the target, but sleeps; with nobody
        # awake the step runs no range query
        field = make_field([(0, 0), (100, 0)])

        def no_query(*args):
            raise AssertionError("range query in a slot with nobody awake")

        monkeypatch.setattr(protocol, "detectors_of", no_query)
        res = tracking_step(TrackerState(episode=Episode.LOST), field,
                            Point(100, 10), mac(), 7)
        assert res.tracker.episode is Episode.LOST
        assert res.detectors == set() and res.n_awake == 0
        assert field.nodes[1].alive and field.nodes[1].mode is NodeMode.SLEEP

    def test_notice_failure_skips_wake_messages(self):
        # representative (lowest id) is not in the closest pair; the notice
        # never gets through, so nobody broadcasts wake calls
        field = make_field([(24, 0), (2, 0), (4, 0), (200, 0), (210, 0)])
        dead_mac = MacService(SlotConfig(p_persist=0.5), NeverTransmitRng())
        res = tracking_step(TrackerState(), field, Point(0, 0), dead_mac, 0)
        assert res.tracker.representative == 0
        assert res.tracker.closest.ids() == (1, 2)
        assert res.wake_targets == set()
        assert not any(out.delivered for out in res.outcomes)
        assert res.frames_sent == 1  # counted as sent, never delivered
        # detectors stay awake as monitors; pair kept awake; rest sleep
        assert field.nodes[0].mode is NodeMode.MONITOR
        assert field.nodes[3].mode is NodeMode.SLEEP

    def test_wake_cost_only_for_sleepers(self):
        # node 2 is already awake: it hears the wake call but pays no wake-up
        # cost; node 3 sleeps at 35 m and gets woken (region 15 + r_s 25 = 40)
        field = make_field([(0, 0), (10, 0), (30, 0), (40, 0)])
        for n in field.nodes[:3]:
            field.set_mode(n, NodeMode.DETECT)
        tracker = TrackerState(episode=Episode.TRACKING, est_pos=Point(15, 0),
                               est_speed=10.0, closest=ClosestPair(0, 5.0, 1, 5.0))
        res = tracking_step(tracker, field, Point(5, 0), mac(), 1)
        assert res.tracker.est_pos == Point(5, 0)
        assert res.tracker.est_speed == 10.0
        assert res.wake_targets == {2, 3}
        assert res.woken == {3}
        assert field.nodes[2].mode is NodeMode.MONITOR  # it detects the target


def awake_during(res, field):
    """Nodes awake in the slot body: the map's nodes not asleep, plus every
    other alive node when the slot's common mode is not sleep."""
    awake = {nid for nid, m in res.slot_modes.items() if m is not NodeMode.SLEEP}
    if res.common is not NodeMode.SLEEP:
        awake |= {n.id for n in field.alive_nodes() if n.id not in res.slot_modes}
    assert len(awake) == res.n_awake
    return awake


def reference_schedule(positions, r_s, r_c, trace, alpha, floor, prior):
    """Straight-line reimplementation of the per-slot rules for cross-checking.

    Assumes an ideal MAC (the notice always arrives) and immortal nodes.
    Returns one (episode, awake-during-slot, detectors, representative) tuple
    per slot.
    """
    def dist(a, b):
        return math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2)

    awake = set()
    episode = "idle"
    est_prev = None
    prev_pair_was_full = False
    rows = []
    for tgt in trace:
        if episode == "idle":
            awake = set(positions)
        during = set(awake)
        dets = {i for i in during if dist(positions[i], tgt) <= r_s}
        if not dets:
            if episode == "tracking":
                episode = "lost"
                awake = set()
            rows.append((episode, during, dets, None))
            continue
        rep = min(dets)
        ranked = sorted(dets, key=lambda i: (dist(positions[i], tgt), i))
        pair = ranked[:2]
        if len(pair) == 2:
            i, j = pair
            di, dj = dist(positions[i], tgt), dist(positions[j], tgt)
            total = di + dj
            if total == 0:
                est = positions[i]
            else:
                est = (positions[i][0] * dj / total + positions[j][0] * di / total,
                       positions[i][1] * dj / total + positions[j][1] * di / total)
        else:
            est = positions[pair[0]]
        if (episode == "tracking" and est_prev is not None
                and prev_pair_was_full and len(pair) == 2):
            speed = dist(est_prev, est)
        else:
            speed = prior
        radius = min(max(alpha * speed, floor * r_s), r_s)
        wset = {i for i in positions if dist(positions[i], est) <= radius + r_s}
        recipients = set()
        for s in pair:
            nbrs = {i for i in positions
                    if i != s and dist(positions[i], positions[s]) <= r_c}
            recipients |= (wset & nbrs) - set(pair)
        awake = dets | recipients | set(pair)
        episode = "tracking"
        est_prev = est
        prev_pair_was_full = len(pair) == 2
        rows.append((episode, during, dets, rep))
    return rows


class TestAgainstReferenceSchedule:
    def test_ten_node_twenty_slot_walkthrough(self):
        positions = {i: (20.0 + 20.0 * i, 50.0) for i in range(10)}
        trace = [(10.0 + 15.0 * k, 50.0) for k in range(20)]
        r_s, r_c, alpha, floor, prior = 25.0, 55.0, 1.5, 0.1, 20.0

        field = make_field([positions[i] for i in range(10)], r_s=r_s, r_c=r_c)
        service = mac(p_persist=1.0)  # ideal channel: notice always lands
        tracker = TrackerState()
        expected = reference_schedule(positions, r_s, r_c, trace, alpha, floor, prior)

        saw_tracking = saw_loss = False
        for k, (x, y) in enumerate(trace):
            res = tracking_step(tracker, field, Point(x, y), service, k,
                                alpha=alpha, radius_floor_frac=floor,
                                speed_prior=prior)
            tracker = res.tracker
            ep, during, dets, rep = expected[k]
            assert tracker.episode.value == ep, f"slot {k}"
            assert awake_during(res, field) == during, f"slot {k}"
            assert res.detectors == dets, f"slot {k}"
            if rep is not None:
                assert tracker.representative == rep, f"slot {k}"
                assert rep == min(dets)
            saw_tracking |= ep == "tracking"
            saw_loss |= ep == "lost"
        assert saw_tracking and saw_loss  # the fixture exercises both paths


class TestInvariants:
    def test_awake_subset_and_representative_rule(self):
        fc = FieldConfig(n_nodes=120, seed=21)
        from wsn_track_sim.field import deploy
        field = deploy(fc, 100.0)  # plenty of battery: isolate scheduling
        trace = generate_trace(MobilityConfig(seed=21), fc, 400)
        service = mac(p_persist=1.0, seed=2)
        tracker = TrackerState()
        prev = None  # (detectors, wake recipients, pair)
        for k, row in enumerate(trace):
            res = tracking_step(tracker, field, Point(row.x, row.y), service, k,
                                speed_prior=20.0)
            tracker = res.tracker
            awake = awake_during(res, field)
            if prev is not None and tracker.episode is Episode.TRACKING:
                dets_prev, wake_prev, pair_prev = prev
                assert awake <= dets_prev | wake_prev | pair_prev
            if res.detectors:
                assert tracker.representative == min(res.detectors)
            if tracker.episode is Episode.LOST:
                assert all(n.mode is NodeMode.SLEEP for n in field.alive_nodes())
                break
            pair_ids = set(tracker.closest.ids()) if tracker.closest else set()
            prev = (set(res.detectors), set(res.wake_targets), pair_ids)

    def test_containment_on_constant_velocity_segments(self):
        fc = FieldConfig()
        rows = generate_trace(MobilityConfig(seed=3), fc, 3000)
        checked = 0
        for a, b, c in zip(rows, rows[1:], rows[2:]):
            if not (a.speed == b.speed == c.speed):
                continue
            est_speed = observed_speed(Point(a.x, a.y), Point(b.x, b.y), 1.0)
            region = predicted_region(Point(b.x, b.y), est_speed, 1.0, fc.r_s,
                                      alpha=1.0)
            assert region.contains(Point(c.x, c.y))
            checked += 1
        assert checked > 1000

"""Random-waypoint motion: bounds, kinematics, determinism, trace round-trips."""

import math
import os
import random
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from wsn_track_sim import (ConfigError, FieldConfig, MobilityConfig, Point,
                           TargetState, TraceRow, distance, generate_trace,
                           observed_speed, read_trace, spawn_target, write_trace)
from wsn_track_sim.mobility import _draw_leg, validate_mobility

FC = FieldConfig()  # 500x500, r_s 25


class TestMobilityConfig:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["slot_duration", "v_max", "v_min"])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ConfigError, match="must be finite"):
            MobilityConfig(**{name: value})

    @pytest.mark.parametrize("x, y", [(0.0, 0.0), (500.0, 500.0), (0.0, 500.0),
                                      (500.0, 0.0), (250.0, 0.0), (500.0, 137.5)])
    def test_entry_on_the_boundary_accepted(self, x, y):
        mc = MobilityConfig(entry_point=Point(x, y))
        validate_mobility(mc, FC)
        assert spawn_target(mc, FC).pos == Point(x, y)
        row = generate_trace(mc, FC, 3)[0]
        assert (row.x, row.y) == (x, y)

    @pytest.mark.parametrize("x, y", [(-10.0, -10.0), (-1e-9, 250.0), (250.0, -5e-324),
                                      (math.nextafter(500.0, 1e3), 250.0), (250.0, 600.0)])
    def test_entry_outside_the_field_rejected(self, x, y):
        mc = MobilityConfig(entry_point=Point(x, y))
        for check in (lambda: validate_mobility(mc, FC), lambda: spawn_target(mc, FC),
                      lambda: generate_trace(mc, FC, 3)):
            with pytest.raises(ConfigError, match="entry point .* is outside the field"):
                check()


class TestSpawn:
    def test_fixed_entry(self):
        mc = MobilityConfig(entry_point=Point(0, 250), seed=1)
        ts = spawn_target(mc, FC)
        assert ts.pos == Point(0, 250)
        assert ts.slot_index == 0

    def test_speed_at_bound_accepted(self):
        mc = MobilityConfig(v_min=20, v_max=20, slot_duration=1.0, seed=0)
        ts = spawn_target(mc, FC)
        assert ts.speed == 20.0  # 20 <= r_s/T = 25

    def test_speed_above_bound_rejected(self):
        mc = MobilityConfig(v_min=30, v_max=30, slot_duration=1.0, seed=0)
        with pytest.raises(ConfigError):
            spawn_target(mc, FC)

    def test_random_edge_entry_is_on_boundary(self):
        for seed in range(30):
            ts = spawn_target(MobilityConfig(seed=seed), FC)
            on_edge = (ts.pos.x in (0.0, 500.0)) or (ts.pos.y in (0.0, 500.0))
            assert on_edge

    def test_waypoint_inside_area(self):
        ts = spawn_target(MobilityConfig(seed=3), FC)
        assert 0 <= ts.waypoint.x <= 500 and 0 <= ts.waypoint.y <= 500


class TestStep:
    def test_straight_line(self):
        mc = MobilityConfig(seed=0)
        ts = TargetState(pos=Point(0, 0), waypoint=Point(100, 0), speed=20.0)
        nxt = step_target(ts, mc, FC, random.Random(0))
        assert nxt.pos == Point(20.0, 0.0)
        assert nxt.slot_index == 1
        assert nxt.waypoint == ts.waypoint and nxt.speed == ts.speed

    def test_arrival_redraws(self):
        mc = MobilityConfig(seed=0)
        ts = TargetState(pos=Point(0, 0), waypoint=Point(10, 0), speed=20.0)
        nxt = step_target(ts, mc, FC, random.Random(5))
        assert nxt.pos == Point(10.0, 0.0)
        assert nxt.waypoint != ts.waypoint
        assert MobilityConfig().v_min <= nxt.speed <= MobilityConfig().v_max

    def test_displacement_bound_over_trace(self):
        rows = generate_trace(MobilityConfig(seed=17), FC, 12_000)
        for a, b in zip(rows, rows[1:]):
            step = distance(Point(a.x, a.y), Point(b.x, b.y))
            assert step <= FC.r_s + 1e-9
            assert step <= a.speed * 1.0 + 1e-9


def step_target(ts: TargetState, mc: MobilityConfig, fc: FieldConfig,
                rng: random.Random) -> TargetState:
    """Advance one slot toward the waypoint; redraw waypoint/speed on arrival.

    The per-slot displacement is min(speed*T, remaining distance), so it never
    exceeds speed*T and in particular never exceeds r_s. This is the
    single-step rule; generate_trace repeats it on floats, and the tests check
    that loop against spawn_target followed by this step.
    """
    step = ts.speed * mc.slot_duration
    remaining = distance(ts.pos, ts.waypoint)
    if remaining <= step:
        # Arrive exactly at the waypoint, then pick the next leg (no pause).
        new_pos = ts.waypoint
        wx, wy, speed = _draw_leg(mc, fc, rng)
        waypoint = Point(wx, wy)
    else:
        f = step / remaining
        new_pos = Point(ts.pos.x + (ts.waypoint.x - ts.pos.x) * f,
                        ts.pos.y + (ts.waypoint.y - ts.pos.y) * f)
        waypoint = ts.waypoint
        speed = ts.speed
    return TargetState(pos=new_pos, waypoint=waypoint, speed=speed,
                       slot_index=ts.slot_index + 1)


def reference_trace(mc, fc, n_slots):
    """spawn_target followed by a step_target loop, one state per slot."""
    rng = random.Random(mc.seed)
    ts = spawn_target(mc, fc, rng)
    states = [ts]
    for _ in range(n_slots - 1):
        ts = step_target(ts, mc, fc, rng)
        states.append(ts)
    return [(s.slot_index, s.pos.x.hex(), s.pos.y.hex(), s.speed.hex()) for s in states]


@st.composite
def trace_cases(draw):
    """Fields from a few metres across, where the target reaches a waypoint
    almost every slot, up to a kilometre; equal or distinct speed bounds; slots
    of any length; random-edge or fixed entry points; 1-400 slots."""
    w, h = draw(st.floats(2.0, 1000.0)), draw(st.floats(2.0, 1000.0))
    v_min = draw(st.floats(0.1, 30.0))
    v_max = draw(st.one_of(st.just(v_min), st.floats(v_min, 3 * v_min)))
    t = draw(st.one_of(st.just(1.0), st.floats(0.05, 10.0)))
    r_s = v_max * t * draw(st.floats(1.01, 2.0))  # within the bound, clear of rounding
    entry = draw(st.one_of(st.none(), st.builds(Point, st.floats(0.0, w), st.floats(0.0, h))))
    mc = MobilityConfig(v_min=v_min, v_max=v_max, slot_duration=t,
                        seed=draw(st.integers(0, 2**32)), entry_point=entry)
    fc = FieldConfig(area_width=w, area_height=h, r_s=r_s, r_c=2 * r_s)
    return mc, fc, draw(st.integers(1, 400))


class TestTraceMatchesStepTarget:
    @settings(max_examples=200, deadline=None)
    @given(trace_cases())
    def test_loop_equals_spawn_and_steps(self, case):
        mc, fc, n_slots = case
        rows = generate_trace(mc, fc, n_slots)
        assert all(type(r) is TraceRow for r in rows)
        assert ([(r.slot, r.x.hex(), r.y.hex(), r.speed.hex()) for r in rows]
                == reference_trace(mc, fc, n_slots))

    def test_arrivals_in_a_small_field(self):
        # a 3 m field at 2-4 m/s: most slots end on a waypoint
        mc = MobilityConfig(v_min=2.0, v_max=4.0, seed=8)
        fc = FieldConfig(area_width=3.0, area_height=3.0, r_s=5.0, r_c=10.0)
        rows = generate_trace(mc, fc, 200)
        legs = sum(a.speed != b.speed for a, b in zip(rows, rows[1:]))
        assert legs > 100
        assert ([(r.slot, r.x.hex(), r.y.hex(), r.speed.hex()) for r in rows]
                == reference_trace(mc, fc, 200))


class TestObservedSpeed:
    def test_simple(self):
        assert observed_speed(Point(0, 0), Point(20, 0), 1.0) == 20.0

    def test_stationary(self):
        assert observed_speed(Point(5, 5), Point(5, 5), 1.0) == 0.0

    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            observed_speed(Point(0, 0), Point(1, 0), 0.0)

    def test_bounded_along_trace(self):
        rows = generate_trace(MobilityConfig(seed=23), FC, 10_000)
        cap = FC.r_s / 1.0
        for a, b in zip(rows, rows[1:]):
            assert observed_speed(Point(a.x, a.y), Point(b.x, b.y), 1.0) <= cap + 1e-9


class TestTrace:
    def test_equal_seeds_identical(self):
        a = generate_trace(MobilityConfig(seed=5), FC, 300)
        b = generate_trace(MobilityConfig(seed=5), FC, 300)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_trace(MobilityConfig(seed=5), FC, 50)
        b = generate_trace(MobilityConfig(seed=6), FC, 50)
        assert a != b

    def test_piecewise_linear_legs(self):
        # between waypoint arrivals the observed speed equals the leg speed
        rows = generate_trace(MobilityConfig(seed=9), FC, 2000)
        for a, b, c in zip(rows, rows[1:], rows[2:]):
            if a.speed == b.speed == c.speed:
                v1 = observed_speed(Point(a.x, a.y), Point(b.x, b.y), 1.0)
                assert v1 == pytest.approx(a.speed, rel=1e-9)

    def test_csv_round_trip(self, tmp_path):
        rows = generate_trace(MobilityConfig(seed=2), FC, 120)
        path = tmp_path / "trace.csv"
        lines = write_trace(str(path), rows)
        assert lines == 121
        assert read_trace(str(path)) == rows

    @pytest.mark.parametrize("body, message", [
        ("0,1.0,2.0,5.0\n2,1.0,2.0,5.0\n", "line 3: slot 2, expected 1"),
        ("1,1.0,2.0,5.0\n0,1.0,2.0,5.0\n", "line 2: slot 1, expected 0"),
        ("0,1.0,2.0\n", "line 2: expected 4 fields, got 3"),
        ("0,1.0,nan,5.0\n", "line 2: non-finite value"),
        ("0.5,1.0,2.0,5.0\n", "line 2: invalid literal"),
    ], ids=["gap", "out-of-order", "short-row", "nan", "fractional-slot"])
    def test_read_trace_rejects_malformed_rows(self, tmp_path, body, message):
        path = tmp_path / "trace.csv"
        path.write_text("slot,x,y,speed\n" + body)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}, {message}"):
            read_trace(str(path))

    def test_read_trace_rejects_empty_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("")
        with pytest.raises(ConfigError, match="header must be slot,x,y,speed"):
            read_trace(str(path))


@st.composite
def traces_at_the_bound(draw):
    """A generated trajectory whose top speed is exactly r_s / T, so that a
    full-speed slot moves r_s up to rounding, in a field of any size."""
    r_s = draw(st.floats(0.5, 60.0))
    t = draw(st.one_of(st.just(1.0), st.floats(0.05, 10.0)))
    v_max = r_s / t
    v_min = v_max * draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0)))
    mc = MobilityConfig(v_min=v_min, v_max=v_max, slot_duration=t,
                        seed=draw(st.integers(0, 2**32)))
    fc = FieldConfig(area_width=draw(st.floats(2.0, 1000.0)),
                     area_height=draw(st.floats(2.0, 1000.0)), r_s=r_s, r_c=2 * r_s)
    return mc, fc, draw(st.integers(2, 400))


class TestTraceDisplacementBound:
    @settings(max_examples=100, deadline=None)
    @given(traces_at_the_bound())
    def test_every_generated_trace_loads(self, case):
        mc, fc, n_slots = case
        rows = generate_trace(mc, fc, n_slots)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.csv")
            write_trace(path, rows)
            assert read_trace(path, fc) == rows

    @pytest.mark.parametrize("x, y, ok", [
        (35.0, 10.0, True),                      # exactly r_s = 25
        (25.0, 30.0, True),                      # a 15-20-25 triangle
        (35.0 + 2e-8, 10.0, True),               # inside the 2.5e-8 m slack
        (35.0 + 3e-8, 10.0, False),
        (400.0, 400.0, False),
    ])
    def test_a_row_beyond_r_s_from_the_previous_is_rejected(self, tmp_path, x, y, ok):
        path = tmp_path / "trace.csv"
        path.write_text(f"slot,x,y,speed\n0,10.0,10.0,5.0\n1,{x!r},{y!r},5.0\n2,{x!r},{y!r},5.0\n")
        assert len(read_trace(str(path))) == 3  # without an area, no bound applies
        if ok:
            assert len(read_trace(str(path), FC)) == 3
        else:
            with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}, line 3: "
                               "moves more than r_s = 25.0 m"):
                read_trace(str(path), FC)

"""Random-waypoint motion for the single tracked target.

The target enters on the area boundary (or at a fixed point), walks straight
toward a uniformly drawn interior waypoint at a uniformly drawn speed, and
redraws waypoint and speed on arrival with no pause. Speeds are capped at
r_s / T so the target can never outrun a sensing disk in one slot.
A trajectory is a list of plain (slot, x, y, speed) records.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigError
from .field import FieldConfig, Point, distance


@dataclass(frozen=True)
class MobilityConfig:
    v_min: float = 5.0          # m/s
    v_max: float = 20.0         # m/s; default leaves 20% prediction margin under r_s/T
    slot_duration: float = 1.0  # seconds per slot
    seed: int = 0
    entry_point: Point | None = None  # None: uniform point on a random edge

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.v_min, self.v_max, self.slot_duration))):
            raise ConfigError("speeds and slot duration must be finite")
        if self.slot_duration <= 0:
            raise ConfigError("slot duration must be positive")
        if not (0 < self.v_min <= self.v_max):
            raise ConfigError("need 0 < v_min <= v_max")


def validate_mobility(mc: MobilityConfig, fc: FieldConfig) -> None:
    """Reject speeds beyond the per-slot displacement bound and entry points off the field."""
    cap = fc.r_s / mc.slot_duration
    if mc.v_max > cap:
        raise ConfigError(
            f"v_max {mc.v_max} m/s exceeds r_s/T = {cap} m/s; the tracker's "
            "displacement bound would not hold"
        )
    p = mc.entry_point
    if p is not None and not (0 <= p.x <= fc.area_width and 0 <= p.y <= fc.area_height):
        raise ConfigError(f"entry point ({p.x}, {p.y}) is outside the field")


@dataclass(frozen=True)
class TargetState:
    pos: Point
    waypoint: Point
    speed: float      # m/s, constant until the waypoint is reached
    slot_index: int = 0


def _draw_leg(mc: MobilityConfig, fc: FieldConfig,
              rng: random.Random) -> tuple[float, float, float]:
    """The next leg's waypoint x, y and speed, drawn in that order."""
    return (rng.uniform(0.0, fc.area_width), rng.uniform(0.0, fc.area_height),
            rng.uniform(mc.v_min, mc.v_max))


def _draw_entry(fc: FieldConfig, rng: random.Random) -> Point:
    edge = rng.randrange(4)
    if edge == 0:
        return Point(rng.uniform(0.0, fc.area_width), 0.0)
    if edge == 1:
        return Point(rng.uniform(0.0, fc.area_width), fc.area_height)
    if edge == 2:
        return Point(0.0, rng.uniform(0.0, fc.area_height))
    return Point(fc.area_width, rng.uniform(0.0, fc.area_height))


def spawn_target(mc: MobilityConfig, fc: FieldConfig,
                 rng: random.Random | None = None) -> TargetState:
    """Place the target on its entry point with a first waypoint and speed."""
    validate_mobility(mc, fc)
    if rng is None:
        rng = random.Random(mc.seed)
    pos = mc.entry_point if mc.entry_point is not None else _draw_entry(fc, rng)
    wx, wy, speed = _draw_leg(mc, fc, rng)
    return TargetState(pos=pos, waypoint=Point(wx, wy), speed=speed, slot_index=0)


def observed_speed(prev: Point, curr: Point, slot_duration: float) -> float:
    """Speed implied by two consecutive positions one slot apart."""
    if slot_duration <= 0:
        raise ValueError("slot duration must be positive")
    return distance(prev, curr) / slot_duration


class TraceRow(NamedTuple):
    """Target state at the start of a slot; speed is the leg speed in effect.

    A plain record, as a trajectory holds one per slot.
    """

    slot: int
    x: float
    y: float
    speed: float


def generate_trace(mc: MobilityConfig, fc: FieldConfig, n_slots: int) -> list[TraceRow]:
    """Full trajectory for a run: one row per slot, reproducible from mc.seed.

    The one loop of the module's motion rule, on local floats without a state
    per slot: a slot moves the target min(speed*T, remaining distance), so at
    most r_s. Every row equals spawn_target followed by the tests' one-step
    reference, `step_target`, bit for bit.
    """
    if n_slots < 1:
        raise ConfigError("need at least one slot")
    rng = random.Random(mc.seed)
    ts = spawn_target(mc, fc, rng)
    x, y, wx, wy, speed = ts.pos.x, ts.pos.y, ts.waypoint.x, ts.waypoint.y, ts.speed
    t, hypot, new = mc.slot_duration, math.hypot, tuple.__new__
    rows = [TraceRow(0, x, y, speed)]
    for slot in range(1, n_slots):
        step = speed * t
        remaining = hypot(x - wx, y - wy)
        if remaining <= step:
            x, y = wx, wy
            wx, wy, speed = _draw_leg(mc, fc, rng)
        else:
            f = step / remaining
            x, y = x + (wx - x) * f, y + (wy - y) * f
        rows.append(new(TraceRow, (slot, x, y, speed)))  # TraceRow() costs 3x more
    return rows


_TRACE_HEADER = ["slot", "x", "y", "speed"]


def write_trace(path: str, rows: list[TraceRow]) -> int:
    """Write a trajectory CSV (slot,x,y,speed). Returns lines written."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TRACE_HEADER)
        for r in rows:
            # repr round-trips floats exactly, so a re-imported trace replays
            # the identical motion for paired method comparisons
            writer.writerow([r.slot, repr(r.x), repr(r.y), repr(r.speed)])
    return len(rows) + 1


def read_trace(path: str, area: FieldConfig | None = None) -> list[TraceRow]:
    """Read a trajectory CSV written by `write_trace`.

    Raises ConfigError, naming the file and line, for text that is not UTF-8,
    a header other than slot,x,y,speed, a row that is not four fields parsing
    as numbers (the slot an int, the rest finite floats), slots not numbered
    0, 1, 2, ... in file order (a run replays rows by position), or, given an
    `area`, a position outside [0, area_width] x [0, area_height] or more than
    r_s from the previous row: the tracker's displacement bound, which
    validate_mobility holds a generated trajectory to, with the float slack
    that PredictedRegion.contains allows. Blank lines are skipped.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header != _TRACE_HEADER:
        raise ConfigError(f"{path}: header must be {','.join(_TRACE_HEADER)}, "
                          f"got {','.join(header) if header else 'nothing'}")
    rows: list[TraceRow] = []
    for fields in reader:
        if not fields:
            continue
        where = f"{path}, line {reader.line_num}"
        if len(fields) != len(_TRACE_HEADER):
            raise ConfigError(f"{where}: expected {len(_TRACE_HEADER)} "
                              f"fields, got {len(fields)}")
        try:
            row = TraceRow(int(fields[0]), float(fields[1]),
                           float(fields[2]), float(fields[3]))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        if not all(math.isfinite(v) for v in (row.x, row.y, row.speed)):
            raise ConfigError(f"{where}: non-finite value")
        if row.slot != len(rows):
            raise ConfigError(f"{where}: slot {row.slot}, expected {len(rows)} "
                              "(slots run 0, 1, 2, ... in file order)")
        if area is not None and not (0 <= row.x <= area.area_width
                                     and 0 <= row.y <= area.area_height):
            raise ConfigError(f"{where}: ({row.x}, {row.y}) is outside the "
                              f"{area.area_width} m x {area.area_height} m field")
        if area is not None and rows and math.hypot(row.x - rows[-1].x, row.y - rows[-1].y) > (
                area.r_s + 1e-9 * max(area.r_s, 1.0)):
            raise ConfigError(f"{where}: moves more than r_s = {area.r_s} m from the "
                              "previous row; the tracker's displacement bound would not hold")
        rows.append(row)
    return rows

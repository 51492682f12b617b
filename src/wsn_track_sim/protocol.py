"""Per-slot tracking state machine.

Each slot: awake nodes sense; detectors elect the lowest-id representative
and rank the two closest nodes; the representative pushes an observation
notice through the MAC to the pair; the pair broadcast wake messages into the
predicted region; everyone not needed goes back to sleep. An empty detector
set while tracking means the target is lost and the whole field sleeps.
A step reports only through its StepResult and new TrackerState (no event
log); on a loss, the previous tracker's `closest` holds the pair that lost it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .errors import StateError
from .field import (NodeField, NodeMode, Point, detectors_of, distance,
                    k_closest, neighbors_of)
from .mac import Frame, FrameKind, MacService, SlotOutcome, on_air_bits
from .mobility import observed_speed


class Episode(Enum):
    IDLE = "idle"          # target not yet acquired; whole field senses
    TRACKING = "tracking"
    LOST = "lost"


@dataclass(frozen=True)
class PredictedRegion:
    """Where the target can be next slot: a disk around the position estimate."""

    center: Point
    radius: float

    def contains(self, p: Point) -> bool:
        # boundary-inclusive with a hair of float slack: a target moving at
        # exactly radius/T per slot lands on the rim
        return distance(self.center, p) <= self.radius + 1e-9 * max(self.radius, 1.0)


@dataclass(frozen=True)
class ClosestPair:
    """The one or two detectors nearest the target, with their ranges."""

    i: int
    d_i: float
    j: int | None = None
    d_j: float | None = None

    def __post_init__(self) -> None:
        if self.j is not None:
            if self.j == self.i:
                raise ValueError("pair members must differ")
            if self.d_j is None or self.d_j < self.d_i:
                raise ValueError("pair must be ordered d_i <= d_j")

    def ids(self) -> tuple[int, ...]:
        return (self.i,) if self.j is None else (self.i, self.j)


@dataclass(frozen=True)
class TrackerState:
    episode: Episode = Episode.IDLE
    representative: int | None = None
    closest: ClosestPair | None = None
    predicted: PredictedRegion | None = None
    est_pos: Point | None = None
    est_speed: float = 0.0


def elect_representative(detectors) -> int:
    """Lowest id among the detectors."""
    if not detectors:
        raise StateError("cannot elect a representative from an empty detector set")
    return min(detectors)


def estimate_position(field: NodeField, pair: ClosestPair) -> Point:
    """Locate the target from the two nearest detectors and their ranges.

    Interpolates between the anchors with weights inverse to their ranges
    (the closer node pulls harder); a single anchor or two zero ranges give
    the anchor position itself.
    """
    a = field.node(pair.i).pos
    if pair.j is None:
        return a
    b = field.node(pair.j).pos
    total = pair.d_i + pair.d_j
    if total == 0:
        return a
    w_a = pair.d_j / total
    w_b = pair.d_i / total
    return Point(a.x * w_a + b.x * w_b, a.y * w_a + b.y * w_b)


def predicted_region(est_pos: Point, est_speed: float, slot_duration: float,
                     r_s: float, alpha: float = 1.5,
                     floor_frac: float = 0.1) -> PredictedRegion:
    """Disk the target can reach next slot: radius alpha*speed*T, floored and capped.

    The cap at r_s is tight because the target's speed never exceeds r_s/T;
    the floor keeps a stationary target inside a usable region.
    """
    if est_speed < 0:
        raise ValueError("speed estimate must be non-negative")
    radius = min(max(alpha * est_speed * slot_duration, floor_frac * r_s), r_s)
    return PredictedRegion(center=est_pos, radius=radius)


def wake_set(field: NodeField, region: PredictedRegion) -> set[int]:
    """Alive nodes whose sensing disk intersects the region (inclusive).

    These are exactly the nodes that could sense the target anywhere inside
    the predicted disk.
    """
    reach = region.radius + field.config.r_s
    return {n.id for n in field.near(region.center, reach)
            if n.alive and distance(n.pos, region.center) <= reach}


@dataclass
class StepResult:
    tracker: TrackerState
    common: NodeMode                  # slot-body mode of every alive node outside slot_modes
    slot_modes: dict[int, NodeMode]   # slot-body mode of each node not in `common`
    n_awake: int               # nodes awake during the slot body
    outcomes: list[SlotOutcome]
    woken: set[int]            # pulled out of sleep by a wake message (one-shot cost)
    detectors: set[int]
    wake_targets: set[int]     # nodes that actually received a wake message
    frames_sent: int = 0


def tracking_step(tracker: TrackerState, field: NodeField,
                  true_target: Point, mac: MacService, slot: int, *,
                  alpha: float = 1.5, radius_floor_frac: float = 0.1,
                  speed_prior: float | None = None) -> StepResult:
    """Advance the protocol by one slot; mutates node modes to their end-of-slot values.

    `true_target` is ground truth: nodes only see it through in-range sensing
    and the ranges their sensors measure.
    """
    cfg = mac.cfg
    outcomes: list[SlotOutcome] = []
    r_s = field.config.r_s

    # acquisition: until the target is first seen, the whole field senses
    if tracker.episode is Episode.IDLE:
        if len(field.awake) < field.n_alive:
            field.set_modes([n.id for n in field.alive_nodes()], NodeMode.DETECT)
        common, slot_modes, n_awake = NodeMode.DETECT, {}, field.n_alive
    else:
        slot_modes = {nid: field.node(nid).mode for nid in field.awake}
        common, n_awake = NodeMode.SLEEP, len(slot_modes)
    # until the end-of-slot schedule, field.awake holds the slot-body awake set;
    # with nobody awake (a lost target) there is nobody to detect it
    dets = detectors_of(field, true_target) & field.awake if field.awake else set()

    if not dets:
        if tracker.episode is Episode.TRACKING:
            # nobody reported: the previous pair conclude the target is gone
            field.set_modes(field.awake, NodeMode.SLEEP)
            return StepResult(TrackerState(episode=Episode.LOST), common,
                              slot_modes, n_awake, outcomes, set(), set(), set())
        # Idle keeps sensing; Lost stays dormant
        return StepResult(tracker, common, slot_modes, n_awake, outcomes,
                          set(), set(), set())

    # --- detection succeeded: elect, rank, estimate, predict ---
    rep = elect_representative(dets)
    order = k_closest(field, true_target, 2, dets)
    i = order[0]
    j = order[1] if len(order) > 1 else None
    d_i = distance(field.node(i).pos, true_target)
    d_j = distance(field.node(j).pos, true_target) if j is not None else None
    pair = ClosestPair(i, d_i, j, d_j)

    est = estimate_position(field, pair)
    # speed from consecutive fixes is only meaningful when both fixes were
    # two-anchor interpolations; a single-anchor fix sits on the anchor itself
    # and would fake a stationary target
    prev_two_anchor = tracker.closest is not None and tracker.closest.j is not None
    if (tracker.episode is Episode.TRACKING and tracker.est_pos is not None
            and prev_two_anchor and pair.j is not None):
        est_speed = observed_speed(tracker.est_pos, est, cfg.slot_duration)
    else:
        # first tracking slot or degenerate fix: assume the worst the bound allows
        est_speed = speed_prior if speed_prior is not None else r_s / cfg.slot_duration
    region = predicted_region(est, est_speed, cfg.slot_duration, r_s,
                              alpha, radius_floor_frac)
    wset = wake_set(field, region)

    # observation notice: one data transmission from the representative to the
    # nearest pair member; the other pair member overhears the same frame
    recipients = [nid for nid in pair.ids() if nid != rep]
    frames_sent = 0
    notice_ok = True
    if recipients:
        frame = Frame(rep, recipients[0], FrameKind.OBSERVATION_NOTICE,
                      cfg.data_packet_bits, slot)
        frames_sent = 1
        window_outs, _dropped = mac.data_window({rep: deque([frame])}, slot)
        outcomes.extend(window_outs)
        notice_out = next((out for out in window_outs
                           if any(f is frame for f, _ in out.delivered)), None)
        notice_ok = notice_out is not None
        if notice_ok:
            for extra in recipients[1:]:
                notice_out.add_rx(extra, rep, on_air_bits(frame, cfg))

    # wake messages: informed pair members broadcast into the predicted region
    senders = [nid for nid in pair.ids() if notice_ok or nid == rep]
    listeners = wset.difference(senders)
    wake_targets: set[int] = set()
    control = SlotOutcome(slot=slot)
    for s in senders:
        targets = sorted(neighbors_of(field, s, among=listeners))
        if not targets:
            continue
        pos = field.node(s).pos
        _, far = max((distance(field.node(t).pos, pos), t) for t in targets)
        control.add_tx(s, far, cfg.control_packet_bits)
        for t in targets:
            control.add_rx(t, s, cfg.control_packet_bits)
        wake_targets.update(targets)
    if control.records:
        outcomes.append(control)

    # end-of-slot schedule: detectors (the pair among them) monitor, wake
    # recipients detect, every other awake node sleeps. A recipient outside
    # field.awake slept through the slot body, so the message woke it; no
    # detector did.
    keep_awake = dets | wake_targets
    woken = wake_targets - field.awake
    field.set_modes(field.awake - keep_awake, NodeMode.SLEEP)
    field.set_modes(keep_awake - dets, NodeMode.DETECT)
    field.set_modes(dets, NodeMode.MONITOR)

    new_tracker = TrackerState(episode=Episode.TRACKING,
                               representative=rep, closest=pair,
                               predicted=region, est_pos=est,
                               est_speed=est_speed)
    return StepResult(new_tracker, common, slot_modes, n_awake, outcomes,
                      woken, dets, wake_targets, frames_sent)

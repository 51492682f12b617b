"""Slotted medium access: p-persistent contention, transmission, ACK accounting.

Each slot opens with channel sensing, carries at most one data transmission
per contention round, and closes with an ACK window when ACKs are enabled.
Collisions are detected through the missing ACK; collided frames burn their
transmit energy and retry. All senders that share a slot are treated as one
contention domain: in this protocol every concurrent sender sits within
communication range of the same receiver neighborhood (r_c >= 2*r_s keeps
co-detectors mutually in range), so spatial reuse never arises.

A drain or data window keeps the ascending list of ids whose queues hold
frames, builds it once, and drops an id when its queue empties; every round
draws once per id of that list, in ascending id order, so its outcome is
reproducible.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field as dc_field
from typing import Iterable, NamedTuple

from .errors import ConfigError, MacError


@dataclass(frozen=True)
class SlotConfig:
    slot_duration: float = 1.0
    data_packet_bits: int = 512
    control_packet_bits: int = 32
    data_rate: float = 8_000_000.0  # bits/second (1 MB/s)
    p_persist: float = 0.5
    max_retries: int = 5
    ack_enabled: bool = True
    crc_enabled: bool = True
    crc_bits: int = 32
    sense_fraction: float = 0.05  # share of the slot spent sensing the channel

    def __post_init__(self) -> None:
        if not (0 < self.slot_duration < math.inf and 0 < self.data_rate < math.inf):
            raise ConfigError("slot duration and data rate must be positive and finite")
        if self.data_packet_bits <= 0 or self.control_packet_bits <= 0:
            raise ConfigError("packet sizes must be positive")
        if not (0 < self.p_persist <= 1):
            raise ConfigError("p_persist must lie in (0, 1]")
        if self.max_retries < 0 or self.crc_bits < 0:
            raise ConfigError("max_retries and crc_bits must be non-negative")
        if not (0 <= self.sense_fraction < 1):
            raise ConfigError("sense fraction must lie in [0, 1)")
        air = self.data_packet_bits + (self.crc_bits if self.crc_enabled else 0)
        busy = (self.sense_fraction * self.slot_duration
                + air / self.data_rate
                + (self.control_packet_bits / self.data_rate if self.ack_enabled else 0))
        if busy > self.slot_duration:
            raise ConfigError(
                f"slot budget exceeded: sensing + data + ACK need {busy:.6f} s "
                f"but the slot lasts {self.slot_duration} s"
            )

    def data_window_seconds(self) -> float:
        ack = self.control_packet_bits / self.data_rate if self.ack_enabled else 0.0
        return self.slot_duration * (1 - self.sense_fraction) - ack


@dataclass(slots=True)
class Frame:
    src: int
    dst: int
    bits: int
    enqueued_slot: int
    retries: int = 0
    ts_slot: int | None = None  # slot of the first send attempt (T_s basis)

    def __post_init__(self) -> None:
        if self.bits <= 0:
            raise ConfigError("frame must carry at least one bit")
        if self.src == self.dst:
            raise ConfigError("frame source and destination must differ")


def on_air_bits(frame: Frame, cfg: SlotConfig) -> int:
    """Bits actually radiated: payload plus CRC when enabled. Every frame rides
    the data window; wake messages are broadcasts, not frames."""
    if cfg.crc_enabled:
        return frame.bits + cfg.crc_bits
    return frame.bits


class RadioOp(NamedTuple):
    """One radio action: `node` transmits to / receives from `peer`."""

    op: str  # "tx" or "rx"
    node: int
    peer: int
    bits: int


class Broadcast(NamedTuple):
    """One message that `node` transmits once and every id of `receivers`
    receives: one tx, charged at the distance to `peer`, the farthest
    receiver, plus one rx per receiver. `receivers` is a non-empty tuple of
    ascending ids, without `node`."""

    node: int
    peer: int
    receivers: tuple[int, ...]
    bits: int


# builds a RadioOp from a 4-tuple without the generated __new__'s argument handling
_new = tuple.__new__


@dataclass(slots=True)
class SlotOutcome:
    """What happened on the channel during one contention round, or in a
    slot's control exchange: the radio operations of a frame, an ACK or a
    collision are `records`, one RadioOp each; a wake message is one entry of
    `broadcasts`, which a contention round leaves empty. The ledger charges
    the records first, then each broadcast's tx and its receivers' rx."""

    slot: int
    winner: int | None = None
    collided: set[int] = dc_field(default_factory=set)
    delivered: list[tuple[Frame, int]] = dc_field(default_factory=list)
    records: list[RadioOp] = dc_field(default_factory=list)
    broadcasts: tuple[Broadcast, ...] = ()

    def add_rx(self, node: int, peer: int, bits: int) -> None:
        self.records.append(_new(RadioOp, ("rx", node, peer, bits)))


def _draw(ready: list[int], slot: int, p: float,
          rng: random.Random) -> tuple[SlotOutcome, list[int]]:
    """One p-persistent round's draws, one per id of `ready` in list order:
    the round's outcome (one sender wins, two or more collide, none leaves the
    round idle) and the ids that transmitted."""
    draw = rng.random
    sent = [nid for nid in ready if draw() < p]
    if len(sent) == 1:
        return SlotOutcome(slot, sent[0]), sent
    if sent:
        return SlotOutcome(slot, None, set(sent)), sent
    return SlotOutcome(slot), sent


def transmit(frame: Frame, outcome: SlotOutcome, cfg: SlotConfig,
             slot: int) -> SlotOutcome:
    """Send the winner's frame and, when enabled, its end-of-slot ACK.

    The frame is in the receiver's hands at the slot boundary, so the recorded
    delivery slot is `slot + 1` (a frame that collides in its enqueue slot and
    wins the next one is delivered at enqueued_slot + 2).
    """
    src, dst = frame.src, frame.dst
    if outcome.winner != src:
        raise MacError(f"node {src} transmitted without winning slot {slot}")
    air = on_air_bits(frame, cfg)
    if air / cfg.data_rate > cfg.data_window_seconds():
        raise ConfigError(
            f"{air}-bit frame does not fit the {cfg.data_window_seconds():.6f} s data window"
        )
    records = outcome.records
    records.append(_new(RadioOp, ("tx", src, dst, air)))
    records.append(_new(RadioOp, ("rx", dst, src, air)))
    outcome.delivered.append((frame, slot + 1))
    if cfg.ack_enabled:
        ack = cfg.control_packet_bits
        records.append(_new(RadioOp, ("tx", dst, src, ack)))
        records.append(_new(RadioOp, ("rx", src, dst, ack)))
    return outcome


Queues = dict[int, deque]


def _round(queues: Queues, ready: list[int], slot: int, cfg: SlotConfig,
           rng: random.Random, dropped: list[Frame]) -> SlotOutcome:
    """One contention round over `ready`, the ascending ids of the non-empty
    queues; an id leaves `ready` when its queue empties."""
    for nid in ready:
        head = queues[nid][0]
        if head.ts_slot is None:
            head.ts_slot = slot  # the frame reaches the air interface here
    out, sent = _draw(ready, slot, cfg.p_persist, rng)
    if out.winner is not None:
        q = queues[out.winner]
        transmit(q.popleft(), out, cfg, slot)
        if not q:
            ready.remove(out.winner)
    elif sent:
        records = out.records
        for nid in sent:
            q = queues[nid]
            frame = q[0]
            # collided energy is spent
            records.append(_new(RadioOp, ("tx", nid, frame.dst, on_air_bits(frame, cfg))))
            frame.retries += 1
            if frame.retries > cfg.max_retries:
                dropped.append(q.popleft())
                if not q:
                    ready.remove(nid)
    return out


def _rounds(queues: Queues, slots: Iterable[int], cfg: SlotConfig,
            rng: random.Random, dropped: list[Frame]) -> list[SlotOutcome]:
    """One contention round at each of `slots` in turn, until every queue is empty."""
    outcomes: list[SlotOutcome] = []
    ready = sorted(nid for nid, q in queues.items() if q)
    for slot in slots:
        if not ready:
            break
        outcomes.append(_round(queues, ready, slot, cfg, rng, dropped))
    return outcomes


def drain_queue(queues: Queues, budget: int, cfg: SlotConfig,
                rng: random.Random, start_slot: int = 0) -> list[SlotOutcome]:
    """Run slots until all queues empty or the budget runs out.

    Collided frames retry in later slots up to max_retries, then drop.
    Delivered + dropped + still queued always equals enqueued.

    Consecutive calls on the same queues and rng, `start_slot` going on from the
    last call's rounds, make one call's rounds: frames keep retries and ts_slot.
    """
    return _rounds(queues, range(start_slot, start_slot + budget), cfg, rng, [])


class MacService:
    """Per-run MAC state: the slot configuration, its contention RNG, and
    `offered`, the count of frames that data_window() was handed, whatever
    became of them: a run's PDR denominator."""

    def __init__(self, cfg: SlotConfig, rng: random.Random):
        self.cfg = cfg
        self.rng = rng
        self.offered = 0

    def data_window(self, queues: Queues, slot: int) -> tuple[list[SlotOutcome], list[Frame]]:
        """One slot's data window: bounded re-sensing rounds, leftovers drop.

        The window re-runs contention up to max_retries + 1 times within the
        same slot; frames still queued when it closes are stale and dropped
        (they count as sent but not received).
        """
        self.offered += sum(map(len, queues.values()))
        dropped: list[Frame] = []
        outcomes = _rounds(queues, [slot] * (self.cfg.max_retries + 1), self.cfg,
                           self.rng, dropped)
        for q in queues.values():
            dropped.extend(q)
            q.clear()
        return outcomes, dropped

"""Slotted MAC: contention statistics, transmission accounting, queue draining."""

import math
import random
from collections import Counter, deque

import pytest
from hypothesis import given, settings, strategies as st

from wsn_track_sim import (ConfigError, Frame, FrameKind, MacError, MacService,
                           SlotConfig, SlotOutcome, drain_queue, transmit)
from wsn_track_sim.mac import on_air_bits


class ScriptedRng:
    """Replays a fixed sequence of uniform draws."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.i = 0

    def random(self):
        v = self.draws[self.i]
        self.i += 1
        return v


def data_frame(src=1, dst=2, bits=512, slot=0):
    return Frame(src, dst, FrameKind.DATA_PAYLOAD, bits, slot)


def op_counts(out, op):
    """How many radio records of `op` ("tx" or "rx") each node has in an outcome."""
    return Counter(r.node for r in out.records if r.op == op)


class TestSlotConfig:
    def test_defaults_fit_slot(self):
        SlotConfig()

    def test_rejects_overfull_slot(self):
        # 544 data bits + 32 ACK bits at 500 bit/s exceed a 1 s slot
        with pytest.raises(ConfigError):
            SlotConfig(data_rate=500.0)

    @pytest.mark.parametrize("key", ["slot_duration", "data_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_timing(self, key, value):
        # a NaN data window would let every frame pass transmit's fit check
        with pytest.raises(ConfigError):
            SlotConfig(**{key: value})

    def test_rejects_bad_persistence(self):
        with pytest.raises(ConfigError):
            SlotConfig(p_persist=0.0)
        with pytest.raises(ConfigError):
            SlotConfig(p_persist=1.5)

    def test_crc_toggle_changes_airtime(self):
        frame = data_frame()
        assert on_air_bits(frame, SlotConfig(crc_enabled=True)) == 544
        assert on_air_bits(frame, SlotConfig(crc_enabled=False)) == 512


class TestContend:
    def test_single_contender_certain(self):
        [out] = drain_queue({4: deque([data_frame(src=4)])}, 1,
                            SlotConfig(p_persist=1.0), random.Random(0))
        assert out.winner == 4 and not out.collided

    def test_two_contender_success_probability(self):
        # analytic slotted contention: P(exactly one of two transmits) = 2*p*(1-p)
        cfg = SlotConfig(p_persist=0.5)
        rng = random.Random(2024)
        wins = sum(drain_queue({1: deque([data_frame(src=1, dst=3)]),
                                2: deque([data_frame(src=2, dst=3)])},
                               1, cfg, rng)[0].winner is not None
                   for _ in range(10_000))
        assert wins / 10_000 == pytest.approx(0.5, abs=0.02)


class TestTransmit:
    def test_counts_with_ack(self):
        cfg = SlotConfig()
        out = SlotOutcome(5, winner=1)
        frame = data_frame(src=1, dst=2, slot=5)
        transmit(frame, out, cfg, 5)
        assert out.delivered == [(frame, 6)]
        assert op_counts(out, "tx") == {1: 1, 2: 1}  # data out, ACK back
        assert op_counts(out, "rx") == {2: 1, 1: 1}

    def test_no_ack_when_disabled(self):
        cfg = SlotConfig(ack_enabled=False)
        out = SlotOutcome(0, winner=1)
        transmit(data_frame(), out, cfg, 0)
        assert op_counts(out, "tx") == {1: 1}
        assert op_counts(out, "rx") == {2: 1}

    def test_winner_mismatch_rejected(self):
        out = SlotOutcome(0, winner=3)
        with pytest.raises(MacError):
            transmit(data_frame(src=1), out, SlotConfig(), 0)

    def test_oversized_frame_rejected(self):
        out = SlotOutcome(0, winner=1)
        too_big = data_frame(bits=8_000_000)
        with pytest.raises(ConfigError):
            transmit(too_big, out, SlotConfig(), 0)


class TestDrainQueue:
    def test_uncontended_channel(self):
        cfg = SlotConfig(p_persist=1.0)
        frames = [data_frame(src=1, dst=2, slot=0) for _ in range(3000)]
        queues = {1: deque(frames)}
        outs = drain_queue(queues, 10_000, cfg, random.Random(0))
        assert len(outs) == 3000
        delivered = [f for o in outs for f, _ in o.delivered]
        assert len(delivered) == 3000  # PDR 1.0

    def test_collision_then_success_delivery_slot(self):
        # both transmit in the enqueue slot, node 1 wins the next: T_d basis e+2
        cfg = SlotConfig(p_persist=0.5)
        f1, f2 = data_frame(src=1, dst=9), data_frame(src=2, dst=9)
        queues = {1: deque([f1]), 2: deque([f2])}
        rng = ScriptedRng([0.1, 0.1, 0.1, 0.9, 0.1])
        outs = drain_queue(queues, 10, cfg, rng)
        assert outs[0].collided == {1, 2} and outs[0].winner is None
        assert outs[1].winner == 1
        assert outs[1].delivered == [(f1, 2)]
        assert f1.enqueued_slot + 2 == 2
        assert f1.retries == 1 and f1.retries <= cfg.max_retries
        assert outs[2].winner == 2

    def test_two_sender_expected_duration(self):
        # analytic: ~0.5 deliveries per slot, so two 3000-frame queues need
        # about 2*3000/0.5 = 12000 slots (drops land within the 5% band)
        cfg = SlotConfig(p_persist=0.5)
        queues = {1: deque(data_frame(src=1, dst=3) for _ in range(3000)),
                  2: deque(data_frame(src=2, dst=3) for _ in range(3000))}
        outs = drain_queue(queues, 100_000, cfg, random.Random(42))
        assert not any(queues.values())
        assert len(outs) == pytest.approx(12_000, rel=0.05)

    def test_drop_at_zero_retries(self):
        cfg = SlotConfig(p_persist=0.5, max_retries=0)
        f1, f2 = data_frame(src=1, dst=9), data_frame(src=2, dst=9)
        queues = {1: deque([f1]), 2: deque([f2])}
        outs = drain_queue(queues, 10, cfg, ScriptedRng([0.1, 0.1]))
        assert len(outs) == 1 and outs[0].collided == {1, 2}
        assert not any(queues.values())  # both dropped, sent but never received
        assert not outs[0].delivered

    def test_conservation(self):
        cfg = SlotConfig(p_persist=0.4, max_retries=2)
        queues = {i: deque(data_frame(src=i, dst=99) for _ in range(200))
                  for i in range(1, 5)}
        frames = [f for q in queues.values() for f in q]
        outs = drain_queue(queues, 50_000, cfg, random.Random(9))
        delivered = [f for o in outs for f, _ in o.delivered]
        tx_attempts = sum(1 for o in outs for r in o.records
                          if r.op == "tx" and r.bits > cfg.control_packet_bits)
        assert not any(queues.values())
        dropped = [f for f in frames if f.retries > cfg.max_retries]
        assert dropped and delivered
        assert sorted(map(id, delivered + dropped)) == sorted(map(id, frames))
        assert tx_attempts >= len(delivered)  # every delivery was transmitted

    @settings(max_examples=200, deadline=None)
    @given(sizes=st.lists(st.integers(0, 6), min_size=1, max_size=5),
           budget=st.integers(0, 30), max_retries=st.integers(0, 3),
           p_persist=st.floats(0.05, 1.0), seed=st.integers(0, 2**32))
    def test_every_frame_delivered_dropped_or_queued(self, sizes, budget, max_retries,
                                                     p_persist, seed):
        cfg = SlotConfig(p_persist=p_persist, max_retries=max_retries)
        queues = {src: deque(data_frame(src=src, dst=99) for _ in range(n))
                  for src, n in enumerate(sizes, start=1)}
        frames = [f for q in queues.values() for f in q]
        outs = drain_queue(queues, budget, cfg, random.Random(seed))
        assert len(outs) <= budget
        delivered = [f for o in outs for f, _ in o.delivered]
        dropped = [f for f in frames if f.retries > cfg.max_retries]
        queued = [f for q in queues.values() for f in q]
        assert sorted(map(id, delivered + dropped + queued)) == sorted(map(id, frames))

    def test_determinism(self):
        cfg = SlotConfig()

        def go():
            queues = {1: deque(data_frame(src=1, dst=3) for _ in range(50)),
                      2: deque(data_frame(src=2, dst=3) for _ in range(50))}
            return drain_queue(queues, 5000, cfg, random.Random(7))

        a, b = go(), go()
        assert [(o.slot, o.winner, sorted(o.collided), o.records) for o in a] == \
               [(o.slot, o.winner, sorted(o.collided), o.records) for o in b]

    def test_less_overhead_means_more_throughput(self):
        # identical contention pattern; dropping ACK+CRC strictly shrinks airtime
        def measure(ack, crc):
            cfg = SlotConfig(p_persist=0.5, ack_enabled=ack, crc_enabled=crc)
            queues = {1: deque(data_frame(src=1, dst=3) for _ in range(500)),
                      2: deque(data_frame(src=2, dst=3) for _ in range(500))}
            outs = drain_queue(queues, 50_000, cfg, random.Random(3))
            bits = sum(f.bits for o in outs for f, _ in o.delivered)
            air = sum(r.bits for o in outs for r in o.records if r.op == "tx")
            return bits / (air / cfg.data_rate)

        assert measure(False, False) > measure(True, True)


class TestDataWindow:
    def test_leftovers_drop_when_window_closes(self):
        cfg = SlotConfig(p_persist=0.5, max_retries=1)  # 2 rounds per window
        f1, f2, f3 = (data_frame(src=s, dst=9) for s in (1, 2, 3))
        queues = {1: deque([f1]), 2: deque([f2]), 3: deque([f3])}
        rng = ScriptedRng([0.9, 0.9, 0.9, 0.9, 0.9, 0.9])  # nobody ever transmits
        outs, dropped = MacService(cfg, rng).data_window(queues, 4)
        assert len(outs) == 2
        assert {f.src for f in dropped} == {1, 2, 3}
        assert not any(queues.values())

    def test_single_sender_usually_delivers(self):
        cfg = SlotConfig(p_persist=0.5, max_retries=5)
        frame = data_frame(src=1, dst=2, slot=7)
        outs, dropped = MacService(cfg, random.Random(0)).data_window({1: deque([frame])}, 7)
        assert not dropped
        delivered = [f for o in outs for f, _ in o.delivered]
        assert delivered == [frame]
        # within-slot retries still complete at the same slot boundary
        assert all(slot == 8 for o in outs for _, slot in o.delivered)


class CountingRng:
    """A seeded uniform stream that counts its draws."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.rng.random()


def reference_round(queues, slot, cfg, rng, dropped):
    """One round rebuilt from the queues, with its own draws and transmit(), as
    the MAC ran it before a drain kept its list of ready ids: the oracle."""
    ready = [nid for nid, q in queues.items() if q]
    for nid in ready:
        head = queues[nid][0]
        if head.ts_slot is None:
            head.ts_slot = slot
    sent = [nid for nid in sorted(ready) if rng.random() < cfg.p_persist]
    out = SlotOutcome(slot)
    if len(sent) == 1:
        out.winner = sent[0]
    else:
        out.collided = set(sent)
    for nid in sorted(out.collided):
        frame = queues[nid][0]
        out.add_tx(nid, frame.dst, on_air_bits(frame, cfg))
        frame.retries += 1
        if frame.retries > cfg.max_retries:
            queues[nid].popleft()
            dropped.append(frame)
    if out.winner is not None:
        transmit(queues[out.winner].popleft(), out, cfg, slot)
    return out


def reference_drain(queues, budget, cfg, rng, start_slot):
    outcomes, dropped = [], []
    slot = start_slot
    while budget > 0 and any(queues.values()):
        outcomes.append(reference_round(queues, slot, cfg, rng, dropped))
        slot += 1
        budget -= 1
    return outcomes


def reference_window(queues, slot, cfg, rng):
    outcomes, dropped = [], []
    for _ in range(cfg.max_retries + 1):
        if not any(queues.values()):
            break
        outcomes.append(reference_round(queues, slot, cfg, rng, dropped))
    for q in queues.values():
        while q:
            dropped.append(q.popleft())
    return outcomes, dropped


@st.composite
def queue_sets(draw):
    """Queues in random key order, some empty, with frames of random size and
    destination; a few frames arrive already stamped with a first send slot."""
    ids = draw(st.lists(st.integers(0, 40), unique=True, min_size=1, max_size=6))
    spec = {nid: [(draw(st.integers(41, 44)), draw(st.integers(1, 2048)),
                   draw(st.none() | st.integers(0, 5)))
                  for _ in range(draw(st.integers(0, 5)))]
            for nid in ids}
    return spec


def build_queues(spec):
    """Fresh queues for `spec`, plus every frame in spec order."""
    queues = {nid: deque() for nid in spec}
    for nid, frames in spec.items():
        for dst, bits, ts in frames:
            frame = data_frame(src=nid, dst=dst, bits=bits)
            frame.ts_slot = ts
            queues[nid].append(frame)
    return queues, [f for q in queues.values() for f in q]


def observed(outcomes, frames, queues, rng):
    """Everything a drain leaves behind, with frames named by spec position."""
    name = {id(f): i for i, f in enumerate(frames)}
    return ([(o.slot, o.winner, o.collided, o.records,
              [(name[id(f)], at) for f, at in o.delivered]) for o in outcomes],
            [(f.retries, f.ts_slot) for f in frames],
            {nid: [name[id(f)] for f in q] for nid, q in queues.items()},
            rng.draws)


class TestDrainMatchesReference:
    """The drain and the data window, which keep their ready ids across
    rounds, against rounds rebuilt from the queues each time."""

    configs = st.builds(SlotConfig, p_persist=st.floats(0.05, 1.0),
                        max_retries=st.integers(0, 3), ack_enabled=st.booleans(),
                        crc_enabled=st.booleans())

    @settings(max_examples=300, deadline=None)
    @given(spec=queue_sets(), cfg=configs, budget=st.integers(0, 40),
           start_slot=st.integers(0, 1000), seed=st.integers(0, 2**32),
           chunks=st.lists(st.integers(1, 12), max_size=4))
    def test_drain_queue(self, spec, cfg, budget, start_slot, seed, chunks):
        """The budget drained in consecutive calls of `chunks` rounds and then
        the rest, split as bench_run splits it: each call starts where the
        last one's rounds ended, and a call that returns fewer rounds than it
        asked for ends the drain. No chunks is one call."""
        queues, frames = build_queues(spec)
        rng = CountingRng(seed)
        outs = []
        for chunk in [*chunks, budget]:
            ask = min(chunk, budget - len(outs))
            got = drain_queue(queues, ask, cfg, rng, start_slot + len(outs))
            outs += got
            if len(got) < ask:
                break
        ref_queues, ref_frames = build_queues(spec)
        ref_rng = CountingRng(seed)
        ref = reference_drain(ref_queues, budget, cfg, ref_rng, start_slot)
        assert (observed(outs, frames, queues, rng)
                == observed(ref, ref_frames, ref_queues, ref_rng))

    @settings(max_examples=300, deadline=None)
    @given(spec=queue_sets(), cfg=configs, slot=st.integers(0, 1000),
           seed=st.integers(0, 2**32))
    def test_data_window(self, spec, cfg, slot, seed):
        queues, frames = build_queues(spec)
        rng = CountingRng(seed)
        outs, dropped = MacService(cfg, rng).data_window(queues, slot)
        ref_queues, ref_frames = build_queues(spec)
        ref_rng = CountingRng(seed)
        ref, ref_dropped = reference_window(ref_queues, slot, cfg, ref_rng)
        assert (observed(outs, frames, queues, rng)
                == observed(ref, ref_frames, ref_queues, ref_rng))
        assert ([frames.index(f) for f in dropped]
                == [ref_frames.index(f) for f in ref_dropped])

"""Energy model and metric formulas against hand-computed fixtures."""

import math
import random
import sys
from collections import Counter, deque
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from wsn_track_sim import (EnergyLedger, FieldConfig, MetricCounters,
                           ModeCosts, NodeField, NodeMode, Point, RadioModel,
                           default_scenario, delay, deploy, distance, layout_of,
                           pdr, run, rx_energy, settle_slot, throughput, tx_energy)
from wsn_track_sim import harness
from wsn_track_sim.energy import FJ, DebitLog, debit_counts_by_reason, fj, settle_radio
from wsn_track_sim.errors import ConfigError
from wsn_track_sim.mac import Frame, FrameKind, SlotConfig, SlotOutcome, drain_queue
from wsn_track_sim.scenario import with_seed

RM = RadioModel()  # e_elect 50e-9, e_amp 0.0013e-12
COSTS = ModeCosts()
SLEEP, DETECT = NodeMode.SLEEP, NodeMode.DETECT


def small_field(positions, energy=5 * FJ, r_s=25.0, r_c=100.0):
    cfg = FieldConfig(area_width=500, area_height=500, n_nodes=len(positions),
                      r_s=r_s, r_c=r_c, seed=0)
    return NodeField(cfg, layout_of([Point(*p) for p in positions], r_s), energy)


class TestRadioFormulas:
    def test_tx_zero_distance(self):
        assert tx_energy(512, 0.0, RM) == pytest.approx(2.56e-5, rel=1e-12)

    def test_tx_single_bit(self):
        assert tx_energy(1, 0.0, RM) == pytest.approx(50e-9, rel=1e-12)

    def test_tx_with_amplifier_term(self):
        expected = 512 * 50e-9 + 512 * 0.0013e-12 * 50.0 ** 2
        assert tx_energy(512, 50.0, RM) == pytest.approx(expected, rel=1e-12)
        assert tx_energy(512, 50.0, RM) == pytest.approx(2.5601664e-5, rel=1e-9)

    def test_rx_values(self):
        assert rx_energy(512, RM) == pytest.approx(2.56e-5, rel=1e-12)
        assert rx_energy(32, RM) == pytest.approx(1.6e-6, rel=1e-12)

    def test_zero_bits_rejected(self):
        with pytest.raises(ValueError):
            tx_energy(0, 1.0, RM)
        with pytest.raises(ValueError):
            rx_energy(0, RM)

    def test_rx_never_above_tx(self):
        rng = random.Random(4)
        for _ in range(200):
            bits = rng.randint(1, 4096)
            d = rng.uniform(0, 200)
            assert rx_energy(bits, RM) <= tx_energy(bits, d, RM)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["e_elect", "e_amp", "e_tx_fixed", "e_rx_fixed"])
    def test_radio_constants_must_be_finite(self, name, value):
        with pytest.raises(ConfigError):
            RadioModel(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["sleep_per_slot", "sense_per_slot", "comm_per_slot",
                                      "initial_energy", "wake_cost"])
    def test_mode_costs_must_be_finite(self, name, value):
        with pytest.raises(ConfigError):
            ModeCosts(**{name: value})

    @pytest.mark.parametrize("name", ["sleep_per_slot", "sense_per_slot", "comm_per_slot",
                                      "initial_energy", "wake_cost"])
    def test_mode_costs_must_be_finite_in_fj(self, name):
        # 1e300 J is finite, but 1e300 * 1e15 fJ is not, so fj() could not count it
        with pytest.raises(ConfigError, match="fJ"):
            ModeCosts(**{name: 1e300})

    @pytest.mark.parametrize("energy", [4e-16, 1e-20, 0.0, -1.0])
    def test_initial_energy_must_round_to_one_fj_or_more(self, energy):
        with pytest.raises(ConfigError, match="1 fJ"):
            ModeCosts(initial_energy=energy)

    def test_one_fj_of_initial_energy_is_enough(self):
        assert fj(ModeCosts(initial_energy=6e-16).initial_energy) == 1

    def test_mode_cost_ordering(self):
        costs = ModeCosts()
        assert costs.sleep_per_slot < costs.sense_per_slot < costs.comm_per_slot
        with pytest.raises(ConfigError):
            ModeCosts(sense_per_slot=0.05)  # sense above comm


class TestLedger:
    def test_simple_debit(self):
        field = small_field([(0, 0)])
        ledger = EnergyLedger(field, COSTS, RM)
        ledger.debit(0, fj(0.012), "sense", 0)
        ledger.flush()
        assert field.level[0] == fj(4.988) == 5 * FJ - 12 * 10**12
        assert field.alive[0]

    def test_overdraw_clamps_and_kills(self):
        field = small_field([(0, 0)], energy=fj(0.001))
        field.modes[0] = NodeMode.DETECT
        ledger = EnergyLedger(field, COSTS, RM)
        applied = ledger.debit(0, fj(0.012), "sense", 0)
        assert applied == fj(0.001)
        ledger.flush()
        assert field.level[0] == 0
        assert not field.alive[0]
        assert field.modes == {}  # dead, so out of the schedule
        assert ledger.debits[-1] == (0, 0, "sense", fj(0.001))

    def test_debiting_a_dead_node_keeps_the_alive_count(self):
        field = small_field([(0, 0), (10, 0)], energy=fj(0.001))
        ledger = EnergyLedger(field, COSTS, RM)
        ledger.debit(0, fj(0.012), "sense", 0)
        assert field.n_alive == 1
        for reason in ("rx", "tx"):  # radio records can re-debit a dead node
            assert ledger.debit(0, fj(0.5), reason, 0) == 0
            assert field.n_alive == 1
        assert field.modes == {}

    def test_unknown_node(self):
        field = small_field([(0, 0), (10, 0)])
        ledger = EnergyLedger(field, COSTS, RM)
        for nid in (42, 2, -1):  # -1 must not reach the last node
            with pytest.raises(KeyError):
                ledger.debit(nid, fj(0.1), "sense", 0)
        assert field.level == [5 * FJ] * 2 and not ledger.debits

    @pytest.mark.parametrize("record", [("tx", -1, 0), ("tx", 2, 0), ("tx", 0, -1),
                                        ("tx", 0, 2), ("rx", -1, 0), ("rx", 2, 0)])
    def test_unknown_node_in_a_radio_record(self, record):
        ledger = EnergyLedger(small_field([(0, 0), (10, 0)]), COSTS, RM)
        op, node, peer = record
        out = SlotOutcome(slot=0)
        (out.add_tx if op == "tx" else out.add_rx)(node, peer, 32)
        with pytest.raises(KeyError):
            settle_radio(ledger, [out])

    def test_negative_amount_rejected(self):
        ledger = EnergyLedger(small_field([(0, 0)]), COSTS, RM)
        with pytest.raises(ValueError):
            ledger.debit(0, -fj(0.1), "sense", 0)

    def test_nan_amount_rejected(self):
        field = small_field([(0, 0)])
        ledger = EnergyLedger(field, COSTS, RM)
        with pytest.raises(ValueError):
            ledger.debit(0, math.nan, "tx", 0)
        assert field.level[0] == 5 * FJ and not ledger.debits

    @pytest.mark.parametrize("amount", [0.012, 1.2e13, 0.0, math.inf, True])
    def test_amount_that_is_not_an_int_of_fj_rejected(self, amount):
        # joules passed where fJ belong would charge 0.012 fJ: refuse, change nothing
        field = small_field([(0, 0)])
        ledger = EnergyLedger(field, COSTS, RM)
        with pytest.raises(ValueError):
            ledger.debit(0, amount, "sense", 0)
        assert field.level[0] == 5 * FJ and not ledger.debits

    def test_total_before_any_settle_reads_the_initial_levels(self):
        levels = [5 * FJ, fj(0.1), fj(1e-3), fj(3.3), fj(2.0 / 3)]
        field = small_field([(10.0 * i, 0.0) for i in range(len(levels))])
        field.level[:] = levels
        ledger = EnergyLedger(field, COSTS, RM)
        assert ledger.total_remaining() == sum(levels)
        ledger.flush()
        assert list(ledger.debits) == []
        assert field.level == levels and field.alive == [True] * len(levels)
        assert field.common is SLEEP and field.modes == {}

    def test_replay_sum_oracle(self):
        # replaying the debit log reproduces the ledger exactly
        field = small_field([(i * 30.0, 0.0) for i in range(5)], r_c=300)
        ledger = EnergyLedger(field, COSTS, RM)
        rng = random.Random(77)
        for k in range(1000):
            ledger.debit(rng.randrange(5), fj(rng.uniform(0, 0.02)), "x", k)
        replay_total = 0
        replay_level = {i: 5 * FJ for i in range(5)}
        for _, node_id, _, applied in ledger.debits:
            replay_total += applied
            replay_level[node_id] -= applied
        ledger.flush()
        for i in range(5):
            assert max(replay_level[i], 0) == field.level[i]
        assert replay_total == ledger.e_sx_total

    def test_monotone_levels(self):
        field = small_field([(0, 0), (10, 0)])
        ledger = EnergyLedger(field, COSTS, RM)
        rng = random.Random(5)
        last = {0: 5 * FJ, 1: 5 * FJ}
        for k in range(500):
            nid = rng.randrange(2)
            ledger.debit(nid, fj(rng.uniform(0, 0.05)), "x", k)
            ledger.flush()
            assert field.level[nid] <= last[nid]
            last[nid] = field.level[nid]


@st.composite
def debit_calls(draw):
    """debit() calls on a 4-node field whose batteries hold more fJ than an
    int64 can count, so that amounts beyond 2**63 are logged and nodes die:
    (node, amount, reason, slot) each, slots across the whole int64 range."""
    reasons = st.sampled_from(["tx", "rx", "wake", "sense", "x", "", "é"])
    return draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2**66), reasons,
                                   st.integers(-2**63, 2**63 - 1)),
                         max_size=60))


class TestDebitLog:
    """The ledger's log as packed columns reads as the list of its records."""

    @settings(max_examples=100, deadline=None)
    @given(debit_calls())
    def test_reads_as_the_list_of_appended_records(self, calls):
        ledger = EnergyLedger(small_field([(i * 10.0, 0.0) for i in range(4)],
                                          energy=2**66), COSTS, RM)
        appended = [(slot, node, reason, ledger.debit(node, amount, reason, slot))
                    for node, amount, reason, slot in calls]
        log = ledger.debits
        assert type(log) is DebitLog
        assert list(log) == appended
        assert all(type(d) is tuple for d in log)
        assert len(log) == len(appended) and bool(log) == bool(appended)
        for i in range(-len(appended), len(appended)):
            assert log[i] == appended[i]
        for i in (len(appended), -len(appended) - 1):
            with pytest.raises(IndexError):
                log[i]
        assert sum(log.amounts) == ledger.e_sx_total == sum(d[3] for d in appended)

    @settings(max_examples=60, deadline=None)
    @given(debit_calls(), st.lists(st.tuples(st.sampled_from(["tx", "rx"]),
                                             st.integers(0, 3), st.integers(1, 4096)),
                                   max_size=20))
    def test_counts_by_reason_equal_a_count_over_the_records(self, calls, radio):
        """Radio records and direct debits mixed: each reason's counts per
        node, and a reason that is in no record, equal a brute-force count."""
        ledger = EnergyLedger(small_field([(i * 10.0, 0.0) for i in range(4)]), COSTS, RM)
        out = SlotOutcome(slot=3)
        for op, node, bits in radio:
            (out.add_tx if op == "tx" else out.add_rx)(node, (node + 1) % 4, bits)
        half = len(calls) // 2
        for node, amount, reason, slot in calls[:half]:
            ledger.debit(node, amount, reason, slot)
        settle_radio(ledger, [out])
        for node, amount, reason, slot in calls[half:]:
            ledger.debit(node, amount, reason, slot)
        records = list(ledger.debits)
        for reason in {d[2] for d in records} | {"tx", "rx", "absent"}:
            assert debit_counts_by_reason(ledger, reason) == Counter(
                node for _, node, why, _ in records if why == reason)

    def test_a_257th_reason_is_refused_before_any_charge(self):
        field = small_field([(0, 0), (10, 0)])
        ledger = EnergyLedger(field, COSTS, RM)
        for k in range(256):
            ledger.debit(k % 2, 1, f"r{k}", k)
        before = (list(field.level), list(ledger.debits), ledger.e_sx_total)
        with pytest.raises(ValueError, match="256 distinct reasons"):
            ledger.debit(0, 1, "r256", 256)
        out = SlotOutcome(slot=256)
        out.add_tx(0, 1, 512)
        with pytest.raises(ValueError, match="256 distinct reasons"):
            settle_radio(ledger, [out])  # "tx" would be the 257th reason too
        assert (field.level, list(ledger.debits), ledger.e_sx_total) == before
        ledger.debit(1, 5, "r7", 256)  # a known reason still logs
        assert ledger.debits[-1] == (256, 1, "r7", 5) and len(ledger.debits) == 257

    @pytest.mark.parametrize("slot", [1.5, "3", None, 2**63, -2**63 - 1])
    def test_a_slot_the_log_cannot_hold_is_refused_before_any_charge(self, slot):
        field = small_field([(0, 0), (10, 0)])
        ledger = EnergyLedger(field, COSTS, RM)
        ledger.debit(0, fj(0.01), "sense", 0)
        before = (list(field.level), list(ledger.debits), ledger.e_sx_total)
        with pytest.raises((TypeError, OverflowError)):
            ledger.debit(1, fj(0.01), "sense", slot)
        assert (field.level, list(ledger.debits), ledger.e_sx_total) == before

    def test_a_bench_log_takes_at_most_30_bytes_a_record(self):
        """A baseline bench's log: its columns take at most 30 B a record, and
        its amounts are the ledger's memoised cost ints, not an int each."""
        ledgers = []

        class Recorded(EnergyLedger):
            def __init__(self, *args):
                super().__init__(*args)
                ledgers.append(self)

        cfg = replace(default_scenario(seed=3), method="baseline", bench_packets=300)
        with mock.patch.object(harness, "EnergyLedger", Recorded):
            harness.bench_run(cfg)
        (ledger,) = ledgers
        log = ledger.debits
        columns = (log.slots, log.nodes, log.codes, log.amounts)
        assert all(len(c) == len(log) for c in columns) and len(log) > 4000
        assert sum(map(sys.getsizeof, columns)) <= 30 * len(log)
        memos = {id(a) for a in (*ledger._tx_costs.values(), *ledger._rx_costs.values())}
        assert {id(a) for a in log.amounts} <= memos


class TestSettleSlot:
    def test_all_sleep_slot(self):
        field = small_field([(i % 25 * 20.0, i // 25 * 20.0) for i in range(250)])
        ledger = EnergyLedger(field, COSTS, RM)
        modes = dict.fromkeys(range(250), NodeMode.SLEEP)
        settle_slot(ledger, [], modes, slot=0, common=SLEEP)
        assert ledger.e_sx_total == 250 * fj(0.00027)

    def test_one_monitor_rest_sleeping(self):
        field = small_field([(i * 2.0, 0.0) for i in range(250)])
        ledger = EnergyLedger(field, COSTS, RM)
        modes = dict.fromkeys(range(250), NodeMode.SLEEP)
        modes[0] = NodeMode.MONITOR
        settle_slot(ledger, [], modes, slot=3, common=SLEEP)
        assert ledger.platform == [249 * fj(0.00027), 0, fj(0.0378)]
        assert list(ledger.debits) == []
        ledger.flush()
        assert field.level[0] == 5 * FJ - fj(0.0378)
        assert field.level[1:] == [5 * FJ - fj(0.00027)] * 249

    def test_three_node_two_slot_hand_trace(self):
        # node 0 at origin, node 1 at distance exactly 50, node 2 far away
        field = small_field([(0, 0), (30, 40), (100, 0)])
        ledger = EnergyLedger(field, ModeCosts(wake_cost=0.001), RM)
        e_el, e_amp = 50e-9, 0.0013e-12

        # slot 0: 0 monitors and sends a 544-bit frame to 1 (ACKed with 32 bits),
        # 1 senses, 2 sleeps but is woken by a wake message
        out = SlotOutcome(slot=0)
        out.add_tx(0, 1, 544)
        out.add_rx(1, 0, 544)
        out.add_tx(1, 0, 32)
        out.add_rx(0, 1, 32)
        modes0 = {0: NodeMode.MONITOR, 1: NodeMode.DETECT, 2: NodeMode.SLEEP}
        settle_slot(ledger, [out], modes0, woken={2}, slot=0, common=SLEEP)

        # slot 1: roles rotate, no traffic
        modes1 = {0: NodeMode.SLEEP, 1: NodeMode.MONITOR, 2: NodeMode.DETECT}
        settle_slot(ledger, [], modes1, slot=1, common=SLEEP)

        # each charge rounded to whole fJ, as the ledger takes it in
        hand_node0 = (fj(0.0378)                                   # monitor slot 0
                      + fj(544 * e_el + 544 * e_amp * 50.0 ** 2)   # data out
                      + fj(32 * e_el)                              # ACK in
                      + fj(0.00027))                               # sleep slot 1
        hand_node1 = (fj(0.012)                                    # sense slot 0
                      + fj(544 * e_el)                             # data in
                      + fj(32 * e_el + 32 * e_amp * 50.0 ** 2)     # ACK out
                      + fj(0.0378))                                # monitor slot 1
        hand_node2 = fj(0.00027) + fj(0.001) + fj(0.012)           # sleep, wake-up, sense

        ledger.flush()
        assert 5 * FJ - field.level[0] == hand_node0
        assert 5 * FJ - field.level[1] == hand_node1
        assert 5 * FJ - field.level[2] == hand_node2
        assert ledger.e_sx_total == hand_node0 + hand_node1 + hand_node2
        # two slots of each mode; the log holds the four radio records and the wake-up
        assert ledger.platform == [2 * fj(0.00027), 2 * fj(0.012), 2 * fj(0.0378)]
        assert [d[1:3] for d in ledger.debits] == [(0, "tx"), (1, "rx"), (1, "tx"),
                                                   (0, "rx"), (2, "wake")]

    def test_dead_nodes_pay_nothing(self):
        # ten nodes, so that the two slots with empty maps settle lazily and
        # charge the unvisited nodes by n_alive
        field = small_field([(10 * i, 0) for i in range(10)])
        field.kill(1)
        field.level[1] = 0
        ledger = EnergyLedger(field, COSTS, RM)
        initial = ledger.total_remaining()
        modes = {0: NodeMode.DETECT, 1: NodeMode.DETECT}
        settle_slot(ledger, [], modes, slot=0, common=SLEEP)
        assert ledger.e_sx_total == fj(0.012) + 8 * fj(COSTS.sleep_per_slot)
        for slot in (1, 2):
            settle_slot(ledger, [], {}, slot=slot, common=SLEEP)
        spent = initial - ledger.total_remaining()
        assert spent == ledger.e_sx_total == sum(ledger.platform)
        assert field.level[1] == 0 and list(ledger.debits) == []

    @pytest.mark.parametrize("walk", [False, True], ids=["lazy", "walk"])
    @pytest.mark.parametrize("bad", [-1, 3])
    def test_a_map_id_outside_the_field_raises_before_any_charge(self, bad, walk):
        # -1 must not wrap to node 2, and 3 must not be skipped by a walk
        field = small_field([(0, 0), (30, 40), (100, 0)])
        ledger = EnergyLedger(field, COSTS, RM)
        settle_slot(ledger, [], {}, slot=0, common=SLEEP)  # a walk: the first slot
        before = (list(field.level), list(field.alive), list(ledger.platform),
                  list(ledger.debits), ledger.e_sx_total)
        # slot 1 keeps the common mode, so it is lazy; DETECT makes it a walk
        with pytest.raises(KeyError, match=f"unknown node id {bad}"):
            settle_slot(ledger, [], {0: NodeMode.MONITOR, bad: NodeMode.MONITOR},
                        slot=1, common=DETECT if walk else SLEEP)
        assert (field.level, field.alive, ledger.platform, list(ledger.debits),
                ledger.e_sx_total) == before


def reference_settle(ledger, outcomes, slot_modes, woken=(), slot=0, common=SLEEP):
    """Per-node debit() settlement: one log record per charge, platform
    charges included, which settle_slot books as sums instead. An alive
    node absent from `slot_modes` spent the slot in `common`. Every charge
    is fj() of its cost in joules."""
    field, costs, rm = ledger.field, ledger.costs, ledger.radio
    per_mode = {NodeMode.SLEEP: (fj(costs.sleep_per_slot), "sleep"),
                NodeMode.DETECT: (fj(costs.sense_per_slot), "sense"),
                NodeMode.MONITOR: (fj(costs.comm_per_slot), "comm")}
    for i, alive in enumerate(field.alive):
        if alive:
            ledger.debit(i, *per_mode[slot_modes.get(i, common)], slot)
    for out in outcomes:
        for rec in out.records:
            if rec.op == "tx":
                d = distance(field.pos(rec.node), field.pos(rec.peer))
                ledger.debit(rec.node, fj(tx_energy(rec.bits, d, rm)), "tx", slot)
            else:
                ledger.debit(rec.node, fj(rx_energy(rec.bits, rm)), "rx", slot)
    for node_id in sorted(woken):
        ledger.debit(node_id, fj(costs.wake_cost), "wake", slot)


def reference_radio(ledger, outcomes):
    """Each radio record through debit() at its outcome's slot, one outcome
    at a time: the joules each outcome drew and the bits transmitted."""
    field, rm = ledger.field, ledger.radio
    per_outcome = []
    for out in outcomes:
        before = ledger.e_sx_total
        for rec in out.records:
            if rec.op == "tx":
                d = distance(field.pos(rec.node), field.pos(rec.peer))
                ledger.debit(rec.node, fj(tx_energy(rec.bits, d, rm)), "tx", out.slot)
            else:
                ledger.debit(rec.node, fj(rx_energy(rec.bits, rm)), "rx", out.slot)
        per_outcome.append((ledger.e_sx_total - before) / FJ)
    return per_outcome, sum(r.bits for out in outcomes for r in out.records if r.op == "tx")


class TestSettleRadio:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 100)), min_size=2, max_size=5),
           st.lists(st.floats(0.0002, 0.02), min_size=5, max_size=5),
           st.lists(st.integers(0, 40), min_size=1, max_size=4),
           st.booleans(), st.booleans(), st.integers(0, 2**32))
    def test_one_walk_equals_a_debit_per_record(self, positions, energies, sizes,
                                                ack, crc, seed):
        """A drain's records, some of them repeated (tx) triples and some
        charged to nodes whose batteries run dry, charged in one walk: every
        outcome's joules, the tx bits, the log, levels and deaths equal a
        debit() per record."""
        n = len(positions)
        cfg = SlotConfig(p_persist=0.6, max_retries=2, ack_enabled=ack, crc_enabled=crc)
        queues = {src: deque(Frame(src, (src + 1) % n, FrameKind.DATA_PAYLOAD, 512, 0)
                             for _ in range(k))
                  for src, k in enumerate(sizes[:n - 1])}
        outcomes = drain_queue(queues, 500, cfg, random.Random(seed))
        fields = [small_field(positions) for _ in range(2)]
        for f in fields:
            f.level[:] = [fj(e) for e in energies[:len(f.level)]]
        new, ref = (EnergyLedger(f, COSTS, RM) for f in fields)
        per_outcome, bits = settle_radio(new, outcomes)
        ref_per_outcome, ref_bits = reference_radio(ref, outcomes)
        assert per_outcome == ref_per_outcome
        assert bits == ref_bits
        assert list(new.debits) == list(ref.debits)
        assert new.e_sx_total == ref.e_sx_total
        assert (fields[0].level, fields[0].alive) == (fields[1].level, fields[1].alive)


    def test_rx_costs_are_kept_per_size_and_per_ledger(self):
        """rx records alternating between a data frame's and an ACK's size,
        under radios with a per-packet rx overhead: each is charged exactly
        fj(rx_energy(bits, radio)) of its own ledger's radio, with the two
        ledgers' charges interleaved."""
        radios = (RadioModel(e_rx_fixed=3e-7), RadioModel(e_elect=60e-9, e_rx_fixed=1e-6))
        assert fj(rx_energy(544, radios[0])) != fj(rx_energy(544, radios[1]))
        ledgers = [EnergyLedger(small_field([(i * 10.0, 0.0) for i in range(4)]), COSTS, rm)
                   for rm in radios]
        sizes = [544, 32, 544, 32, 32, 544]
        for slot in range(5):
            out = SlotOutcome(slot=slot)
            for k, bits in enumerate(sizes):
                out.add_rx(1 + (slot + k) % 3, 0, bits)
            for ledger in ledgers:
                settle_slot(ledger, [out], {}, slot=slot, common=SLEEP)
        for ledger, rm in zip(ledgers, radios):
            rx = [d for d in ledger.debits if d[2] == "rx"]
            assert [d[3] for d in rx] == [fj(rx_energy(bits, rm)) for bits in sizes] * 5
            assert ledger._rx_costs == {bits: fj(rx_energy(bits, rm)) for bits in (544, 32)}

    def test_a_charge_beyond_float_range_drains_the_sender(self):
        # 1e295 J/bit * 512 bits is finite in J but not in fJ; the charge
        # applies the whole level, as any charge above it does
        field = small_field([(0, 0), (10, 0)])
        ledger = EnergyLedger(field, COSTS, RadioModel(e_elect=1e295))
        out = SlotOutcome(slot=0)
        out.add_tx(0, 1, 512)
        per_outcome, bits = settle_radio(ledger, [out])
        assert list(ledger.debits) == [(0, 0, "tx", 5 * FJ)] and per_outcome == [5.0]
        assert not field.alive[0] and field.alive[1] and bits == 512


@st.composite
def settlement_runs(draw):
    """A small field with batteries that run dry, and a run of slots for it."""
    n = draw(st.integers(1, 6))
    positions = draw(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 100)),
                              min_size=n, max_size=n))
    energies = draw(st.lists(st.floats(0.0005, 0.08), min_size=n, max_size=n))
    ids = st.integers(0, n - 1)
    slot = draw(st.integers(0, 10_000))
    slots = []
    for _ in range(draw(st.integers(1, 12))):
        slot += draw(st.sampled_from([1, 1, 1, 0, 2]))  # mostly consecutive
        modes = draw(st.dictionaries(ids, st.sampled_from(list(NodeMode))))
        out = SlotOutcome(slot=slot)
        for op, node, peer, bits in draw(st.lists(st.tuples(
                st.sampled_from(["tx", "rx"]), ids, ids, st.integers(1, 4096)),
                max_size=4)):
            (out.add_tx if op == "tx" else out.add_rx)(node, peer, bits)
        slots.append((slot, modes, [out], draw(st.sets(ids, max_size=2))))
    return positions, energies, draw(st.floats(0, 0.01)), slots


class TestSettlementMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(settlement_runs())
    def test_bit_identical_to_per_node_debits(self, run):
        positions, energies, wake_cost, slots = run
        fields = [small_field(positions) for _ in range(2)]
        for f in fields:
            f.level[:] = [fj(e) for e in energies[:len(f.level)]]
            f.modes = dict.fromkeys(range(len(f.level)), NodeMode.MONITOR)
        new, ref = (EnergyLedger(f, ModeCosts(wake_cost=wake_cost), RM) for f in fields)
        initial = sum(map(fj, energies))
        for slot, modes, outcomes, woken in slots:
            settle_slot(new, outcomes, modes, woken, slot, common=SLEEP)
            reference_settle(ref, outcomes, modes, woken, slot)
            assert new.e_sx_total == ref.e_sx_total
            new.flush()
            assert (fields[0].level, fields[0].alive) == (fields[1].level, fields[1].alive)
            assert fields[0].modes == fields[1].modes
            for reason in ("tx", "rx"):
                assert (debit_counts_by_reason(new, reason)
                        == debit_counts_by_reason(ref, reason))
            assert (new.platform, list(new.debits)) == split_log(ref.debits)
            assert sum(new.platform) + sum(d[3] for d in new.debits) == (
                initial - new.total_remaining())

    def test_platform_sums_by_the_mode_of_each_slot(self):
        field = small_field([(0, 0), (10, 0)])
        ledger = EnergyLedger(field, COSTS, RM)
        for slot, mode in enumerate([NodeMode.SLEEP] * 3 + [NodeMode.DETECT] * 2):
            settle_slot(ledger, [], {0: mode, 1: NodeMode.SLEEP}, slot=slot, common=SLEEP)
        settle_slot(ledger, [], {0: NodeMode.DETECT}, slot=6, common=SLEEP)
        s, d = fj(COSTS.sleep_per_slot), fj(COSTS.sense_per_slot)
        # sleep: node 0 in slots 0-2, node 1 in 0-4 and 6; sense: node 0 in 3, 4 and 6
        assert ledger.platform == [9 * s, 3 * d, 0]
        assert list(ledger.debits) == []
        assert field.level == [5 * FJ - 3 * s - 3 * d, 5 * FJ - 6 * s]


PLATFORM = ("sleep", "sense", "comm")


def split_log(log):
    """A per-node debit() log as the ledger keeps it: the platform records'
    amounts summed by reason, in PLATFORM order, and every other record, in
    order."""
    records = list(log)
    sums = [sum(d[3] for d in records if d[2] == why) for why in PLATFORM]
    return sums, [d for d in records if d[2] not in PLATFORM]


@st.composite
def lazy_settlement_runs(draw):
    """A field of 20-120 nodes with at most two outside the common mode per
    slot, so that settle_slot visits only those; the common mode is sleep or
    detect and now and then switches; batteries that last 1-100 slots of
    sleep, or of sensing when scaled by 40, so that nodes die; one table of
    mode costs for the whole run."""
    n = draw(st.integers(20, 120))
    positions = [(float(i % 11 * 9), float(i // 11 * 9)) for i in range(n)]
    scale = draw(st.sampled_from([1, 40]))
    energies = [fj(scale * e) for e in draw(st.lists(st.floats(0.0003, 0.03),
                                                     min_size=n, max_size=n))]
    ids = st.integers(0, n - 1)
    slot = draw(st.integers(0, 1000))
    common = draw(st.sampled_from([SLEEP, DETECT]))
    # with sleep and sense at one cost, only the common mode tells the runs apart
    costs = draw(st.sampled_from([ModeCosts(), ModeCosts(sleep_per_slot=0.012),
                                  ModeCosts(sleep_per_slot=0.0004),
                                  ModeCosts(sense_per_slot=0.013)]))
    slots = []
    for _ in range(draw(st.integers(20, 50))):
        slot += draw(st.sampled_from([1] * 12 + [0, 2, 5]))  # a few gaps
        if draw(st.integers(0, 9)) == 0:
            common = DETECT if common is SLEEP else SLEEP
        others = [m for m in NodeMode if m is not common]
        modes = draw(st.dictionaries(ids, st.sampled_from(others), max_size=2))
        out = SlotOutcome(slot=slot)
        for op, node, peer, bits in draw(st.lists(st.tuples(
                st.sampled_from(["tx", "rx"]), ids, ids, st.integers(1, 4096)),
                max_size=2)):
            (out.add_tx if op == "tx" else out.add_rx)(node, peer, bits)
        slots.append((slot, common, modes, [out], draw(st.sets(ids, max_size=1)),
                      draw(st.booleans())))
    return positions, energies, costs, slots


class TestLazySettlement:
    @settings(max_examples=40, deadline=None)
    @given(lazy_settlement_runs())
    def test_matches_per_node_debits(self, run):
        positions, energies, costs, slots = run
        fields = [small_field(positions) for _ in range(2)]
        for f in fields:
            f.level[:] = energies
        new, ref = (EnergyLedger(f, costs, RM) for f in fields)
        for slot, common, modes, outcomes, woken, check in slots:
            settle_slot(new, outcomes, modes, woken, slot, common=common)
            reference_settle(ref, outcomes, modes, woken, slot, common)
            assert new.e_sx_total == ref.e_sx_total
            alive = sum(fields[1].alive)
            assert fields[0].n_alive == fields[1].n_alive == alive
            if check:
                new.flush()
                assert ((fields[0].level, fields[0].alive)
                        == (fields[1].level, fields[1].alive))
                assert (new.platform, list(new.debits)) == split_log(ref.debits)
        assert new.total_remaining() == ref.total_remaining()
        assert (new.platform, list(new.debits)) == split_log(ref.debits)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(30, 90), st.sampled_from([0.004, 0.02, 5.0]),
           st.lists(st.tuples(st.sets(st.integers(0, 89), max_size=3),
                              st.sets(st.integers(0, 89), min_size=10),
                              st.sampled_from([32, 512, 16384])),
                    min_size=2, max_size=20))
    def test_rx_to_many_lazy_sleepers(self, n, energy, slots):
        """Radio records reach many lazy sleepers that share a level and an
        owed count, so _charge_outcomes catches them up; with large frames, a
        late rx can also kill a node. Every level, record and total must equal
        per-node debit() settlement."""
        fields = [small_field([(i * 5.0, 0.0) for i in range(n)], energy=fj(energy))
                  for _ in range(2)]
        new, ref = (EnergyLedger(f, COSTS, RM) for f in fields)
        for slot, (awake, listeners, bits) in enumerate(slots):
            modes = {i: NodeMode.MONITOR for i in awake if i < n}
            sender = min(modes, default=0)
            out = SlotOutcome(slot=slot)
            for t in sorted(listeners):
                if t < n and t != sender:
                    out.add_tx(sender, t, bits)
                    out.add_rx(t, sender, bits)
                    out.add_rx(t, sender, bits)
            settle_slot(new, [out], modes, (), slot, common=SLEEP)
            reference_settle(ref, [out], modes, (), slot)
            assert new.e_sx_total == ref.e_sx_total
            assert fields[0].n_alive == fields[1].n_alive
        new.flush()
        assert (fields[0].level, fields[0].alive) == (fields[1].level, fields[1].alive)
        assert (new.platform, list(new.debits)) == split_log(ref.debits)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(30, 90), st.sampled_from([SLEEP, DETECT]), st.floats(8.0, 60.0),
           st.data())
    def test_cohort_dies_in_the_horizon_walk(self, n, common, slots_of_charge, data):
        """A cohort of lazy nodes shares a level and an owed count until the
        death horizon forces a full walk, which catches them up. The horizon
        is exact, so that walk is the slot in which the whole cohort dies:
        the nodes it puts in MONITOR and the rest alike. Every level, record
        and total must equal per-node debit() settlement."""
        c = fj(COSTS.sleep_per_slot if common is SLEEP else COSTS.sense_per_slot)
        level = round(c * slots_of_charge)  # the lowest level in the field
        cohort = data.draw(st.sets(st.integers(0, n - 1), min_size=n // 2))
        others = sorted(set(range(n)) - cohort)
        energies = [level if i in cohort else 5 * FJ for i in range(n)]
        fields = [small_field([(i * 5.0, 0.0) for i in range(n)]) for _ in range(2)]
        for f in fields:
            f.level[:] = energies
        new, ref = (EnergyLedger(f, COSTS, RM) for f in fields)
        walked_at = after = None
        slot = 0
        while after is None or slot < after:
            if walked_at is None and slot > max(new._horizon, 0):  # slot 0 walks anyway
                walked_at, after = slot, slot + 4
                kill = data.draw(st.sets(st.sampled_from(sorted(cohort)), min_size=1))
                modes = {i: NodeMode.MONITOR for i in kill}
            else:
                modes = {i: NodeMode.MONITOR for i in data.draw(
                    st.sets(st.sampled_from(others), max_size=2))} if others else {}
            alive = fields[0].n_alive
            settle_slot(new, [], modes, (), slot, common=common)
            reference_settle(ref, [], modes, (), slot, common)
            assert new.e_sx_total == ref.e_sx_total
            assert fields[0].n_alive == fields[1].n_alive
            if slot == walked_at:
                assert fields[0].n_alive == alive - len(cohort)
                assert walked_at == -(-level // c) - 1  # the slot of its last charge
            elif walked_at is None:
                assert fields[0].n_alive == alive  # no cohort node dies before the walk
            slot += 1
        assert walked_at > 4  # the cohort owed several slots
        new.flush()
        assert (fields[0].level, fields[0].alive) == (fields[1].level, fields[1].alive)
        assert (new.platform, list(new.debits)) == split_log(ref.debits)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(20, 90), st.integers(3, 40), st.data())
    def test_empty_maps_after_a_radio_death(self, n, n_slots, data):
        """All-active slots, as the baseline settles them: the whole field
        senses, both maps stay empty, and a radio charge kills a node now and
        then, so that a lazy slot directly follows a death. The nodes no
        radio record reaches are never visited after slot 0; every total,
        death slot, level, platform sum and record equals per-node debit()
        settlement."""
        fields = [small_field([(i * 5.0, 0.0) for i in range(n)]) for _ in range(2)]
        new, ref = (EnergyLedger(f, COSTS, RM) for f in fields)
        kills = data.draw(st.lists(st.tuples(st.integers(1, n_slots - 2), st.integers(0, n - 1)),
                                   min_size=1, max_size=4))
        touched = set()
        for slot in range(n_slots):
            out = SlotOutcome(slot=slot)
            for at, victim in kills:
                if at == slot:
                    out.add_tx(victim, (victim + 1) % n, 10**9)  # 50 J: more than a battery
                    touched.add(victim)
            for t in data.draw(st.sets(st.integers(0, n - 1), max_size=2)):
                out.add_rx(t, (t + 1) % n, 544)
                touched.add(t)
            settle_slot(new, [out], {}, (), slot, common=DETECT)
            reference_settle(ref, [out], {}, (), slot, DETECT)
            assert new.e_sx_total == ref.e_sx_total
            assert fields[0].alive == fields[1].alive
            assert fields[0].n_alive == fields[1].n_alive
            assert new._through == slot and new._common is DETECT
        assert fields[0].n_alive == n - len({victim for _, victim in kills})
        assert all(new._paid[i] == 0 for i in range(n) if i not in touched)
        new.flush()
        assert fields[0].level == fields[1].level
        assert (new.platform, list(new.debits)) == split_log(ref.debits)
        assert new.e_sx_total == sum(new.platform) + sum(d[3] for d in new.debits)

    def test_sleepers_pay_when_read(self):
        field = small_field([(i * 5.0, 0.0) for i in range(40)])
        ledger = EnergyLedger(field, COSTS, RM)
        for slot in range(10):
            settle_slot(ledger, [], {0: NodeMode.DETECT}, slot=slot, common=SLEEP)
        # slot 0 walked every node; slots 1-9 visited node 0 only
        s, d = fj(0.00027), fj(0.012)
        assert field.level[7] == 5 * FJ - s
        assert ledger.platform == [39 * s, 10 * d, 0]
        ledger.flush()
        assert field.level[7] == 5 * FJ - 10 * s
        assert ledger.platform == [390 * s, 10 * d, 0]
        assert sum(ledger.platform) == ledger.e_sx_total

    def test_a_node_that_leaves_the_map_pays_the_common_cost(self):
        """Node 4 monitors in slot 1 only; no later slot visits it, yet it
        owes exactly the common cost of each slot since."""
        field = small_field([(i * 5.0, 0.0) for i in range(10)])
        ledger = EnergyLedger(field, COSTS, RM)
        settle_slot(ledger, [], {}, slot=0, common=SLEEP)  # the first slot walks
        settle_slot(ledger, [], {4: NodeMode.MONITOR}, slot=1, common=SLEEP)
        s, m = fj(0.00027), fj(0.0378)
        for slot in range(2, 6):
            settle_slot(ledger, [], {}, slot=slot, common=SLEEP)
            assert ledger._paid[4] == 1
            assert field.level[4] == 5 * FJ - s - m
        assert ledger.e_sx_total == 59 * s + m
        ledger.flush()
        assert field.level[4] == 5 * FJ - 5 * s - m
        assert ledger.platform == [59 * s, 0, m] and list(ledger.debits) == []

    def test_detecting_field_pays_when_read(self):
        field = small_field([(i * 5.0, 0.0) for i in range(40)])
        ledger = EnergyLedger(field, COSTS, RM)
        for slot in range(10):
            settle_slot(ledger, [], {}, slot=slot, common=DETECT)
        assert ledger.e_sx_total == 400 * fj(0.012)
        assert field.level[7] == 5 * FJ - fj(0.012)  # only slot 0 walked it
        assert ledger.platform == [0, 40 * fj(0.012), 0]
        ledger.flush()
        assert field.level[7] == 5 * FJ - 10 * fj(0.012)
        assert ledger.platform == [0, 400 * fj(0.012), 0] and list(ledger.debits) == []

    @settings(max_examples=40, deadline=None)
    @given(st.integers(30, 90), st.sampled_from([SLEEP, DETECT]),
           st.lists(st.sampled_from([0.02, 0.5, 5.0]), min_size=90, max_size=90),
           st.lists(st.sets(st.integers(0, 89), max_size=3), min_size=2, max_size=30))
    def test_flush_equals_catch_up_per_node(self, n, common, energies, awake_sets):
        """Many nodes share a level and an owed count; flush() must equal
        catching each node up on its own."""
        fields = [small_field([(i * 5.0, 0.0) for i in range(n)]) for _ in range(2)]
        for f in fields:
            f.level[:] = [fj(e) for e in energies[:len(f.level)]]
        ledgers = [EnergyLedger(f, COSTS, RM) for f in fields]
        for slot, awake in enumerate(awake_sets):
            modes = {i: NodeMode.MONITOR for i in awake if i < n}
            for ledger in ledgers:
                settle_slot(ledger, [], modes, slot=slot, common=common)
        ledgers[0].flush()
        for i in range(n):
            ledgers[1]._catch_up(i)
        assert fields[0].level == fields[1].level
        assert ledgers[0].platform == ledgers[1].platform
        assert list(ledgers[0].debits) == list(ledgers[1].debits)


class TestExactHorizon:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([SLEEP, DETECT]), st.integers(1, 10**9), st.data())
    def test_a_lazy_node_dies_in_slot_through_plus_ceil_level_over_cost(self, common, c, data):
        """A node left at level L by a full walk through slot 0 stays lazy and
        alive while the common mode costs c > 0 per slot, and dies in slot
        ceil(L / c), whose walk is the first one since slot 0."""
        level = data.draw(st.integers(1, 200 * c))
        costs = ModeCosts(sleep_per_slot=c / FJ, sense_per_slot=c / FJ)
        assert fj(costs.sleep_per_slot) == c
        field = small_field([(i * 5.0, 0.0) for i in range(8)], energy=10**18)
        field.level[3] = level + c  # pays c in slot 0
        ledger = EnergyLedger(field, costs, RM)
        death = -(-level // c)
        for slot in range(death):
            settle_slot(ledger, [], {}, slot=slot, common=common)
            assert field.n_alive == 8
            assert ledger._paid[0] == 0  # node 0 not visited since slot 0: no walk
        settle_slot(ledger, [], {}, slot=death, common=common)
        assert not field.alive[3] and field.n_alive == 7
        assert ledger._paid[0] == death
        assert ledger.total_remaining() == 7 * 10**18 - ledger.e_sx_total + level + c
        # the common mode's sum holds every fJ drawn, node 3's whole battery too
        assert ledger.platform[0 if common is SLEEP else 1] == ledger.e_sx_total
        assert list(ledger.debits) == [] and field.level[3] == 0

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([SLEEP, DETECT]), st.sampled_from([0.0, 1e-16, 4.9e-16]),
           st.integers(1, 10), st.integers(2, 80))
    def test_a_cost_of_zero_never_forces_a_walk(self, common, cost, level, n_slots):
        """A common mode that costs 0 fJ (0 J, or less than half a fJ) sets no
        death horizon, however low the levels."""
        costs = ModeCosts(sleep_per_slot=cost, sense_per_slot=cost)
        field = small_field([(i * 5.0, 0.0) for i in range(8)], energy=level)
        ledger = EnergyLedger(field, costs, RM)
        for slot in range(n_slots):
            settle_slot(ledger, [], {}, slot=slot, common=common)
        assert ledger._horizon == math.inf
        assert ledger._paid == [0] * 8  # only slot 0 walked
        assert ledger.total_remaining() == 8 * level and ledger.e_sx_total == 0
        assert field.n_alive == 8


@st.composite
def small_scenarios(draw):
    """A run of either method on a small field whose batteries last a few to
    some tens of slots of sensing, so that nodes die."""
    cfg = default_scenario(seed=draw(st.integers(0, 2**16)),
                           method=draw(st.sampled_from(["proposed", "baseline"])),
                           max_slots=draw(st.integers(5, 60)))
    side = draw(st.floats(60.0, 250.0))
    cfg = replace(cfg, field=replace(cfg.field, n_nodes=draw(st.integers(3, 60)),
                                     area_width=side, area_height=side),
                  mode_costs=replace(cfg.mode_costs,
                                     initial_energy=draw(st.floats(0.005, 0.5))))
    return with_seed(cfg, cfg.seed)


class TestExactConservation:
    @settings(max_examples=40, deadline=None)
    @given(small_scenarios())
    def test_initial_minus_final_is_the_sum_of_the_log(self, cfg):
        """Whole runs, lazy charging and deaths included: the fJ drawn from
        the batteries are exactly the fJ in the platform sums and the log,
        and the report says so."""
        ledgers = []

        class Recorded(EnergyLedger):
            def __init__(self, *args):
                super().__init__(*args)
                ledgers.append(self)

        field = deploy(cfg.field, cfg.mode_costs.initial_energy)
        with mock.patch.object(harness, "EnergyLedger", Recorded):
            report = run(cfg, field=field)
        (ledger,) = ledgers
        initial = cfg.field.n_nodes * fj(cfg.mode_costs.initial_energy)
        final = sum(field.level)  # run() flushed them
        assert (initial - final == sum(ledger.platform) + sum(d[3] for d in ledger.debits)
                == ledger.e_sx_total)
        assert all(type(d) is tuple for d in ledger.debits)
        assert report.conservation_rel_err == 0.0
        assert report.total_energy_j == ledger.e_sx_total / FJ
        assert field.n_alive == sum(level > 0 for level in field.level)


class TestMetrics:
    def test_throughput_fixture(self):
        mc = MetricCounters(bits_received=1_536_000, elapsed=1.536)
        assert throughput(mc) == 1_000_000.0

    def test_throughput_zero_bits(self):
        assert throughput(MetricCounters(bits_received=0, elapsed=2.0)) == 0.0

    def test_throughput_rejects_zero_time(self):
        with pytest.raises(ValueError):
            throughput(MetricCounters(bits_received=10, elapsed=0.0))

    def test_delay_fixture(self):
        assert delay(2.3, 2.5) == pytest.approx(0.2, rel=1e-12)
        assert delay(4.0, 4.0) == 0.0

    def test_delay_causality(self):
        with pytest.raises(ValueError):
            delay(2.5, 2.3)

    def test_pdr_fixture(self):
        mc = MetricCounters(sent_pckt=3000, recv_pckt=2900)
        assert pdr(mc) == 2900 / 3000
        assert round(pdr(mc), 4) == 0.9667

    def test_pdr_zero_received(self):
        assert pdr(MetricCounters(sent_pckt=10, recv_pckt=0)) == 0.0

    def test_pdr_absent_when_nothing_sent(self):
        assert pdr(MetricCounters()) is None

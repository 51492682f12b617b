"""Energy model and metric formulas against hand-computed fixtures."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from wsn_track_sim import (EnergyLedger, FieldConfig, MetricCounters,
                           ModeCosts, NodeField, NodeMode, Point, RadioModel,
                           SensorNode, delay, distance, pdr, rx_energy,
                           settle_slot, throughput, tx_energy)
from wsn_track_sim.energy import _repeat_add, debit_counts_by_reason
from wsn_track_sim.errors import ConfigError
from wsn_track_sim.mac import SlotOutcome

RM = RadioModel()  # e_elect 50e-9, e_amp 0.0013e-12
SLEEP, DETECT = NodeMode.SLEEP, NodeMode.DETECT


def small_field(positions, energy=5.0, r_s=25.0, r_c=100.0):
    cfg = FieldConfig(area_width=500, area_height=500, n_nodes=len(positions),
                      r_s=r_s, r_c=r_c, seed=0)
    nodes = [SensorNode(id=i, pos=Point(*p), remaining_energy=energy)
             for i, p in enumerate(positions)]
    return NodeField(nodes, cfg)


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

    def test_mode_cost_ordering(self):
        costs = ModeCosts()
        assert costs.sleep_per_slot < costs.sense_per_slot < costs.comm_per_slot
        with pytest.raises(ConfigError):
            ModeCosts(sense_per_slot=0.05)  # sense above comm


class TestLedger:
    def test_simple_debit(self):
        field = small_field([(0, 0)])
        ledger = EnergyLedger(field)
        ledger.debit(0, 0.012, "sense", 0)
        assert ledger.remaining(0) == pytest.approx(4.988, rel=1e-12)
        assert field.nodes[0].alive

    def test_overdraw_clamps_and_kills(self):
        field = small_field([(0, 0)], energy=0.001)
        ledger = EnergyLedger(field)
        applied = ledger.debit(0, 0.012, "sense", 0)
        assert applied == 0.001
        assert ledger.remaining(0) == 0.0
        assert not field.nodes[0].alive
        assert field.nodes[0].mode is NodeMode.SLEEP
        assert ledger.debits[-1] == (0, 0, "sense", 0.001)

    def test_debiting_a_dead_node_keeps_the_alive_count(self):
        field = small_field([(0, 0), (10, 0)], energy=0.001)
        ledger = EnergyLedger(field)
        ledger.debit(0, 0.012, "sense", 0)
        assert field.n_alive == 1
        for reason in ("rx", "tx"):  # radio records can re-debit a dead node
            assert ledger.debit(0, 0.5, reason, 0) == 0.0
            assert field.n_alive == 1
        assert field.awake == set()

    def test_unknown_node(self):
        ledger = EnergyLedger(small_field([(0, 0)]))
        with pytest.raises(KeyError):
            ledger.debit(42, 0.1, "sense", 0)

    def test_negative_amount_rejected(self):
        ledger = EnergyLedger(small_field([(0, 0)]))
        with pytest.raises(ValueError):
            ledger.debit(0, -0.1, "sense", 0)

    def test_nan_amount_rejected(self):
        ledger = EnergyLedger(small_field([(0, 0)]))
        with pytest.raises(ValueError):
            ledger.debit(0, math.nan, "tx", 0)
        assert ledger.per_node[0] == 5.0 and not ledger.debits

    def test_total_before_any_settle_reads_the_initial_levels(self):
        levels = [5.0, 0.1, 1e-3, 3.3, 2.0 / 3]
        cfg = FieldConfig(n_nodes=len(levels), seed=0)
        field = NodeField([SensorNode(id=i, pos=Point(10.0 * i, 0.0), remaining_energy=e)
                           for i, e in enumerate(levels)], cfg)
        ledger = EnergyLedger(field)
        assert ledger.total_remaining() == math.fsum(levels)
        ledger.flush()
        assert ledger.debits == []
        assert ledger.per_node == dict(enumerate(levels))
        assert [(n.mode, n.remaining_energy, n.alive) for n in field] == [
            (NodeMode.SLEEP, e, True) for e in levels]

    def test_replay_sum_oracle(self):
        # replaying the debit log with the same operation order reproduces the
        # ledger bit for bit
        field = small_field([(i * 30.0, 0.0) for i in range(5)], r_c=300)
        ledger = EnergyLedger(field)
        rng = random.Random(77)
        for k in range(1000):
            ledger.debit(rng.randrange(5), rng.uniform(0, 0.02), "x", k)
        replay_total = 0.0
        replay_level = {i: 5.0 for i in range(5)}
        for _, node_id, _, applied in ledger.debits:
            replay_total += applied
            replay_level[node_id] -= applied
        for i in range(5):
            assert max(replay_level[i], 0.0) == pytest.approx(
                ledger.remaining(i), abs=1e-15)
        assert replay_total == ledger.e_sx_total

    def test_monotone_levels(self):
        field = small_field([(0, 0), (10, 0)])
        ledger = EnergyLedger(field)
        rng = random.Random(5)
        last = {0: 5.0, 1: 5.0}
        for k in range(500):
            nid = rng.randrange(2)
            ledger.debit(nid, rng.uniform(0, 0.05), "x", k)
            assert ledger.remaining(nid) <= last[nid]
            last[nid] = ledger.remaining(nid)


class TestSettleSlot:
    def test_all_sleep_slot(self):
        field = small_field([(i % 25 * 20.0, i // 25 * 20.0) for i in range(250)])
        ledger = EnergyLedger(field)
        modes = {n.id: NodeMode.SLEEP for n in field.nodes}
        settle_slot(ledger, field, [], RM, ModeCosts(), modes, slot=0, common=SLEEP)
        assert ledger.e_sx_total == pytest.approx(250 * 0.00027, rel=1e-9)

    def test_one_monitor_rest_sleeping(self):
        field = small_field([(i * 2.0, 0.0) for i in range(250)])
        ledger = EnergyLedger(field)
        modes = {n.id: NodeMode.SLEEP for n in field.nodes}
        modes[0] = NodeMode.MONITOR
        settle_slot(ledger, field, [], RM, ModeCosts(), modes, slot=3, common=SLEEP)
        per_node = {nid: amt for _, nid, _, amt in ledger.debits}
        assert per_node[0] == 0.0378
        assert all(per_node[i] == 0.00027 for i in range(1, 250))

    def test_three_node_two_slot_hand_trace(self):
        # node 0 at origin, node 1 at distance exactly 50, node 2 far away
        field = small_field([(0, 0), (30, 40), (100, 0)])
        ledger = EnergyLedger(field, wake_cost=0.001)
        costs = ModeCosts()
        e_el, e_amp = 50e-9, 0.0013e-12

        # slot 0: 0 monitors and sends a 544-bit frame to 1 (ACKed with 32 bits),
        # 1 senses, 2 sleeps but is woken by a wake message
        out = SlotOutcome(slot=0)
        out.add_tx(0, 1, 544)
        out.add_rx(1, 0, 544)
        out.add_tx(1, 0, 32)
        out.add_rx(0, 1, 32)
        modes0 = {0: NodeMode.MONITOR, 1: NodeMode.DETECT, 2: NodeMode.SLEEP}
        settle_slot(ledger, field, [out], RM, costs, modes0, woken={2}, slot=0,
                    common=SLEEP)

        # slot 1: roles rotate, no traffic
        modes1 = {0: NodeMode.SLEEP, 1: NodeMode.MONITOR, 2: NodeMode.DETECT}
        settle_slot(ledger, field, [], RM, costs, modes1, slot=1, common=SLEEP)

        hand_node0 = (0.0378                                   # monitor slot 0
                      + 544 * e_el + 544 * e_amp * 50.0 ** 2   # data out
                      + 32 * e_el                              # ACK in
                      + 0.00027)                               # sleep slot 1
        hand_node1 = (0.012                                    # sense slot 0
                      + 544 * e_el                             # data in
                      + 32 * e_el + 32 * e_amp * 50.0 ** 2     # ACK out
                      + 0.0378)                                # monitor slot 1
        hand_node2 = 0.00027 + 0.001 + 0.012                   # sleep, wake-up, sense

        assert 5.0 - ledger.remaining(0) == pytest.approx(hand_node0, rel=1e-12)
        assert 5.0 - ledger.remaining(1) == pytest.approx(hand_node1, rel=1e-12)
        assert 5.0 - ledger.remaining(2) == pytest.approx(hand_node2, rel=1e-12)
        assert ledger.e_sx_total == pytest.approx(
            hand_node0 + hand_node1 + hand_node2, rel=1e-12)

    def test_dead_nodes_pay_nothing(self):
        field = small_field([(0, 0), (10, 0)])
        field.nodes[1].alive = False
        field.nodes[1].remaining_energy = 0.0
        ledger = EnergyLedger(field)
        ledger.per_node[1] = 0.0
        modes = {0: NodeMode.DETECT, 1: NodeMode.DETECT}
        settle_slot(ledger, field, [], RM, ModeCosts(), modes, slot=0, common=SLEEP)
        assert ledger.e_sx_total == 0.012


def reference_settle(ledger, field, outcomes, rm, costs, slot_modes,
                     woken=(), slot=0, common=SLEEP):
    """Per-node debit() settlement: one log record per charge, as settle_slot
    did before it booked platform costs inline as runs of slots. An alive
    node absent from `slot_modes` spent the slot in `common`."""
    per_mode = {NodeMode.SLEEP: (costs.sleep_per_slot, "sleep"),
                NodeMode.DETECT: (costs.sense_per_slot, "sense"),
                NodeMode.MONITOR: (costs.comm_per_slot, "comm")}
    for node in field.nodes:
        if node.alive:
            ledger.debit(node.id, *per_mode[slot_modes.get(node.id, common)], slot)
    for out in outcomes:
        for rec in out.records:
            if rec.op == "tx":
                d = distance(field.node(rec.node).pos, field.node(rec.peer).pos)
                ledger.debit(rec.node, tx_energy(rec.bits, d, rm), "tx", slot)
            else:
                ledger.debit(rec.node, rx_energy(rec.bits, rm), "rx", slot)
    for node_id in sorted(woken):
        ledger.debit(node_id, ledger.e_ix, "wake", slot)


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
        costs = ModeCosts()
        fields = [small_field(positions) for _ in range(2)]
        for f in fields:
            for node, e in zip(f.nodes, energies):
                node.remaining_energy, node.mode = e, NodeMode.MONITOR
        new, ref = (EnergyLedger(f, wake_cost=wake_cost) for f in fields)
        initial = math.fsum(energies)
        for slot, modes, outcomes, woken in slots:
            settle_slot(new, fields[0], outcomes, RM, costs, modes, woken, slot,
                        common=SLEEP)
            reference_settle(ref, fields[1], outcomes, RM, costs, modes, woken, slot)
            assert new.e_sx_total == ref.e_sx_total
            new.flush()
            assert new.per_node == ref.per_node
            assert ([(n.remaining_energy, n.alive, n.mode) for n in fields[0].nodes]
                    == [(n.remaining_energy, n.alive, n.mode) for n in fields[1].nodes])
            for reason in ("tx", "rx"):
                assert (debit_counts_by_reason(new, reason)
                        == debit_counts_by_reason(ref, reason))
            applied = math.fsum(d[3] for d in new.debits)
            assert applied == pytest.approx(initial - new.total_remaining(), abs=1e-12)
        assert len(new.debits) <= len(ref.debits)

    def test_runs_of_one_mode_share_a_record(self):
        field = small_field([(0, 0), (10, 0)])
        ledger = EnergyLedger(field)
        costs = ModeCosts()
        for slot, mode in enumerate([NodeMode.SLEEP] * 3 + [NodeMode.DETECT] * 2):
            settle_slot(ledger, field, [], RM, costs, {0: mode, 1: NodeMode.SLEEP},
                        slot=slot, common=SLEEP)
        settle_slot(ledger, field, [], RM, costs, {0: NodeMode.DETECT}, slot=6,
                    common=SLEEP)
        assert [tuple(d[:3]) for d in ledger.debits] == [
            (0, 0, "sleep"), (0, 1, "sleep"), (3, 0, "sense"), (6, 0, "sense"),
            (6, 1, "sleep")]
        assert ledger.debits[1][3] == pytest.approx(5 * costs.sleep_per_slot)


def naive_add(t, c, k):
    for _ in range(k):
        t += c
    return t


@st.composite
def repeated_additions(draw):
    """(t, c, k) with t on binade edges or at 0, and c a multiple of the grid
    spacing of t that falls on rounding ties, or 0, or of either sign."""
    e = draw(st.integers(-40, 12))
    t = draw(st.one_of(
        st.just(0.0),
        st.floats(-1e4, 1e4),
        st.builds(lambda j, sign: sign * (2.0 ** e + j * 2.0 ** (e - 52)),
                  st.integers(-6, 6), st.sampled_from([1, -1]))))
    spacing = math.ulp(t) if t else 2.0 ** (e - 52)
    c = draw(st.one_of(
        st.just(0.0),
        st.floats(-3.0, 3.0),
        st.sampled_from([0.00027, 0.012, 0.0378, -0.00027, -0.012, -0.0378]),
        st.builds(lambda m, sign: sign * m * spacing,
                  st.sampled_from([0.25, 0.5, 0.75, 1, 1.5, 2.5, 3, 1000.5]),
                  st.sampled_from([1, -1])),
        st.builds(lambda j, sign: sign * 3 * 2.0 ** -j,
                  st.integers(1, 60), st.sampled_from([1, -1]))))
    return t, c, draw(st.integers(0, 3000))


class TestRepeatAdd:
    @settings(max_examples=500, deadline=None)
    @given(repeated_additions())
    def test_equals_the_loop(self, case):
        t, c, k = case
        assert _repeat_add(t, c, k).hex() == naive_add(t, c, k).hex()

    @pytest.mark.parametrize("t,c,k", [
        (0.0, -0.04742259023270237, 17),  # lands in a binade from a finer grid
        (5.0, -0.00027, 18_518),          # a full battery asleep to empty
        (1.0, 3 * 2.0 ** -54, 5000),      # a tie at the grid of [1, 2)
        (1.0, 2.0 ** -54, 5000),          # half a grid step: t stays put
        (-0.5, 0.3, 40),                  # crosses zero
        (5.0, -0.00027, 40),              # the longest run of plain additions
        (1.0, -0.012, 41),                # the shortest run through the binade walk
        (1.0, -0.012, 42),                # ... which ends below the binade's edge
    ])
    def test_examples(self, t, c, k):
        assert _repeat_add(t, c, k).hex() == naive_add(t, c, k).hex()


PLATFORM = ("sleep", "sense", "comm")


def merged_runs(log):
    """A per-slot log with each node's platform records merged into runs of
    consecutive slots of one reason, amounts summed in slot order."""
    merged, last = [], {}
    for slot, nid, why, amount in log:
        run = last.get(nid)
        if why in PLATFORM and run and run[0][2] == why and run[1] == slot - 1:
            run[0][3] += amount
            run[1] = slot
            continue
        record = [slot, nid, why, amount]
        if why in PLATFORM:
            last[nid] = [record, slot]
        merged.append(record)
    return [tuple(r) for r in merged]


@st.composite
def lazy_settlement_runs(draw):
    """A field of 20-120 nodes with at most two outside the common mode per
    slot, so that settle_slot visits only those; the common mode is sleep or
    detect and now and then switches; batteries that last 1-100 slots of
    sleep, or of sensing when scaled by 40, so that nodes die."""
    n = draw(st.integers(20, 120))
    positions = [(float(i % 11 * 9), float(i // 11 * 9)) for i in range(n)]
    scale = draw(st.sampled_from([1, 40]))
    energies = [scale * e for e in draw(st.lists(st.floats(0.0003, 0.03),
                                                 min_size=n, max_size=n))]
    ids = st.integers(0, n - 1)
    slot = draw(st.integers(0, 1000))
    common = draw(st.sampled_from([SLEEP, DETECT]))
    # with sleep and sense at one cost, only the common mode tells the runs apart
    usual = draw(st.sampled_from([ModeCosts(), ModeCosts(sleep_per_slot=0.012)]))
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
        costs = draw(st.sampled_from([usual] * 15 + [ModeCosts(sleep_per_slot=0.0004),
                                                     ModeCosts(sense_per_slot=0.013)]))
        slots.append((slot, common, modes, [out], draw(st.sets(ids, max_size=1)), costs,
                      draw(st.booleans())))
    return positions, energies, slots


class TestLazySettlement:
    @settings(max_examples=40, deadline=None)
    @given(lazy_settlement_runs())
    def test_matches_per_node_debits(self, run):
        positions, energies, slots = run
        fields = [small_field(positions) for _ in range(2)]
        for f in fields:
            for node, e in zip(f.nodes, energies):
                node.remaining_energy = e
        new, ref = (EnergyLedger(f) for f in fields)
        for slot, common, modes, outcomes, woken, costs, check in slots:
            settle_slot(new, fields[0], outcomes, RM, costs, modes, woken, slot,
                        common=common)
            reference_settle(ref, fields[1], outcomes, RM, costs, modes, woken, slot,
                             common)
            assert new.e_sx_total == ref.e_sx_total
            alive = sum(n.alive for n in fields[1].nodes)
            assert fields[0].n_alive == fields[1].n_alive == alive
            if check:
                new.flush()
                assert new.per_node == ref.per_node
                assert ([(n.remaining_energy, n.alive, n.mode) for n in fields[0].nodes]
                        == [(n.remaining_energy, n.alive, n.mode) for n in fields[1].nodes])
                assert [tuple(d) for d in new.debits] == merged_runs(ref.debits)
        assert new.total_remaining() == ref.total_remaining()
        assert [tuple(d) for d in new.debits] == merged_runs(ref.debits)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(30, 90), st.sampled_from([0.004, 0.02, 5.0]),
           st.lists(st.tuples(st.sets(st.integers(0, 89), max_size=3),
                              st.sets(st.integers(0, 89), min_size=10),
                              st.sampled_from([32, 512, 16384])),
                    min_size=2, max_size=20))
    def test_rx_to_many_lazy_sleepers(self, n, energy, slots):
        """Radio records reach many lazy sleepers that share a level and an
        owed count, so _charge_outcome catches them up through its memo; with
        large frames, a late rx can also kill a node. Every level, record and
        total must equal per-node debit() settlement bit for bit."""
        fields = [small_field([(i * 5.0, 0.0) for i in range(n)], energy=energy)
                  for _ in range(2)]
        new, ref = (EnergyLedger(f) for f in fields)
        for slot, (awake, listeners, bits) in enumerate(slots):
            modes = {i: NodeMode.MONITOR for i in awake if i < n}
            sender = min(modes, default=0)
            out = SlotOutcome(slot=slot)
            for t in sorted(listeners):
                if t < n and t != sender:
                    out.add_tx(sender, t, bits)
                    out.add_rx(t, sender, bits)
                    out.add_rx(t, sender, bits)
            settle_slot(new, fields[0], [out], RM, ModeCosts(), modes, (), slot,
                        common=SLEEP)
            reference_settle(ref, fields[1], [out], RM, ModeCosts(), modes, (), slot)
            assert new.e_sx_total.hex() == ref.e_sx_total.hex()
            assert fields[0].n_alive == fields[1].n_alive
        new.flush()
        assert ([v.hex() for v in new.per_node.values()]
                == [v.hex() for v in ref.per_node.values()])
        assert ([(n.alive, n.mode) for n in fields[0].nodes]
                == [(n.alive, n.mode) for n in fields[1].nodes])
        assert ([(*d[:3], d[3].hex()) for d in new.debits]
                == [(*d[:3], d[3].hex()) for d in merged_runs(ref.debits)])

    def test_sleepers_pay_when_read(self):
        field = small_field([(i * 5.0, 0.0) for i in range(40)])
        ledger = EnergyLedger(field)
        for slot in range(10):
            settle_slot(ledger, field, [], RM, ModeCosts(), {0: NodeMode.DETECT},
                        slot=slot, common=SLEEP)
        # slot 0 walked every node; slots 1-9 visited node 0 only
        assert field.nodes[7].remaining_energy == 5.0 - 0.00027
        assert ledger.remaining(7) == naive_add(5.0, -0.00027, 10)
        assert field.nodes[7].remaining_energy == ledger.remaining(7)

    def test_detecting_field_pays_when_read(self):
        field = small_field([(i * 5.0, 0.0) for i in range(40)])
        ledger = EnergyLedger(field)
        for slot in range(10):
            settle_slot(ledger, field, [], RM, ModeCosts(), {}, slot=slot, common=DETECT)
        assert ledger.e_sx_total == naive_add(0.0, 0.012, 400)
        assert field.nodes[7].remaining_energy == 5.0 - 0.012  # only slot 0 walked it
        assert ledger.remaining(7) == naive_add(5.0, -0.012, 10)
        ledger.flush()
        assert ledger.debits == [[0, i, "sense", naive_add(0.0, 0.012, 10)]
                                 for i in range(40)]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(30, 90), st.sampled_from([SLEEP, DETECT]),
           st.lists(st.sampled_from([0.02, 0.5, 5.0]), min_size=90, max_size=90),
           st.lists(st.sets(st.integers(0, 89), max_size=3), min_size=2, max_size=30))
    def test_flush_equals_catch_up_per_node(self, n, common, energies, awake_sets):
        """Many nodes share a level and an owed count; the memoised flush()
        must equal catching each node up on its own, bit for bit."""
        fields = [small_field([(i * 5.0, 0.0) for i in range(n)]) for _ in range(2)]
        for f in fields:
            for node, e in zip(f.nodes, energies):
                node.remaining_energy = e
        ledgers = [EnergyLedger(f) for f in fields]
        for slot, awake in enumerate(awake_sets):
            modes = {i: NodeMode.MONITOR for i in awake if i < n}
            for ledger, f in zip(ledgers, fields):
                settle_slot(ledger, f, [], RM, ModeCosts(), modes, slot=slot, common=common)
        ledgers[0].flush()
        for node in fields[1].nodes:
            ledgers[1]._catch_up(node)
        flushed, one_by_one = ([v.hex() for v in ledger.per_node.values()] for ledger in ledgers)
        assert flushed == one_by_one
        assert ([n.remaining_energy.hex() for n in fields[0].nodes]
                == [n.remaining_energy.hex() for n in fields[1].nodes])
        assert ([(*d[:3], d[3].hex()) for d in ledgers[0].debits]
                == [(*d[:3], d[3].hex()) for d in ledgers[1].debits])


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

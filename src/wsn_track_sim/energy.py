"""Energy accounting and run metrics.

Radio costs use the first-order model (electronics + d^2 amplifier term);
platform costs are flat per-slot amounts per mode. A ledger is bound to one
run's field, mode costs and radio model when it is built, so the settle
functions take only the slot's outcomes and modes; battery levels live on the
nodes, whose ids are their positions in the field. Every joule leaves a node
through debit()'s clamp at zero, which kills the node; settle_slot repeats its
float operations inline for platform costs, _charge_outcomes for the radio
records of a slot's or a whole drain's outcomes.
The append-only log holds one record per run of same-mode slots of a node plus
one per radio or wake debit, so conservation checks can fsum it and tx/rx
records reconcile with the MAC.

Each slot has a common mode, the one mode of every alive node outside the
slot's mode map: sleep while the proposed method tracks, detect while the
whole field senses. A node that stays in the common mode from one slot to the
next is charged lazily: the network total still takes the mode's cost in
every slot, in field order, but the node's level and its open record catch
up only when something reads or debits them. `_repeat_add` replays those k
float additions exactly, so every level, record and total equals a per-slot
charge of every node bit for bit.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import astuple, dataclass, field as dc_field
from itertools import accumulate
from statistics import fmean

from .errors import ConfigError
from .field import NodeField, NodeMode, distance


@dataclass(frozen=True)
class RadioModel:
    """First-order radio constants (joules)."""

    e_elect: float = 50e-9       # J/bit, electronics
    e_amp: float = 0.0013e-12    # J/bit/m^2, amplifier
    e_tx_fixed: float = 0.0      # optional per-packet overhead, transmit side
    e_rx_fixed: float = 0.0      # optional per-packet overhead, receive side

    def __post_init__(self) -> None:
        if not all(0 <= v < math.inf for v in astuple(self)):  # also rejects NaN
            raise ConfigError("radio energy constants must be finite and non-negative")


@dataclass(frozen=True)
class ModeCosts:
    """Flat per-slot platform costs per mode, plus battery parameters."""

    sleep_per_slot: float = 0.00027
    sense_per_slot: float = 0.012
    comm_per_slot: float = 0.0378
    initial_energy: float = 5.0
    wake_cost: float = 0.001  # one-shot cost when a wake message pulls a node out of sleep

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, astuple(self))):
            raise ConfigError("mode costs and battery parameters must be finite")
        if not (0 <= self.sleep_per_slot <= self.sense_per_slot <= self.comm_per_slot):
            raise ConfigError("mode costs must satisfy sleep <= sense <= comm")
        if self.initial_energy <= 0:
            raise ConfigError("initial energy must be positive")
        if self.wake_cost < 0:
            raise ConfigError("wake cost must be non-negative")


def tx_energy(bits: int, dist: float, rm: RadioModel) -> float:
    """Energy to transmit `bits` over `dist` meters."""
    if bits <= 0:
        raise ValueError("bits must be positive")
    if dist < 0:
        raise ValueError("distance must be non-negative")
    return rm.e_elect * bits + rm.e_amp * bits * dist * dist + rm.e_tx_fixed


def rx_energy(bits: int, rm: RadioModel) -> float:
    """Energy to receive `bits` (distance-independent)."""
    if bits <= 0:
        raise ValueError("bits must be positive")
    return rm.e_elect * bits + rm.e_rx_fixed


def _repeat_add(t: float, c: float, k: int) -> float:
    """What `for _ in range(k): t += c` returns, bit for bit, for c of either sign.

    Inside one binade [lo, 2·lo) of |t| the float grid has one spacing. Once a
    step from inside the binade has landed inside it, every later step adds
    the same increment d, even when c falls on a rounding tie (the landing
    rounded to even). So the steps that keep clear of the binade's edges are
    one exact t + n·d; the others are taken one at a time.
    """
    while k > 40:
        s = t + c
        t = s + c
        k -= 2
        d = (t + c) - t
        if d == 0:
            return t  # t + c rounds back to t: every later step does too
        a = abs(t)
        lo = math.ldexp(0.5, math.frexp(a)[1])
        if not lo <= abs(s) < 2 * lo:
            continue
        room = a - abs(c) - lo if (c > 0) != (t > 0) else 2 * lo - a - abs(c)
        n = min(k, int((room - 4 * math.ulp(lo)) / abs(d)) - 1)
        if n > 0:
            t += n * d
            k -= n
    for _ in range(k):
        t += c
    return t


def _safe_slots(level: float, cost: float) -> int:
    """Slots a node at `level` can pay `cost` per slot without dying, less a
    margin: each float step takes at most cost + ulp(level) / 2."""
    return int(level / (cost + math.ulp(level))) - 2


class EnergyLedger:
    """Battery bookkeeping of one run with an append-only interval debit log.

    A ledger is bound to its field, mode costs and radio model when it is
    built. Levels live on the SensorNode objects and nowhere else: the ledger
    writes each charge to `remaining_energy`, and a node whose battery clamps
    to zero is marked dead and dropped to sleep.

    A log record is `(first_slot, node, reason, applied_J)`. A platform record
    ("sleep", "sense", "comm") covers one node's run of consecutive slots in
    one mode; it is a list, because its applied amount grows in place while
    the run lasts. Every other debit ("tx", "rx", "wake", or a direct debit()
    call) is a tuple of its own, so radio records count one per MAC operation.
    The applied amounts sum to the energy drawn.

    A node in the common mode that settle_slot did not visit still owes that
    mode's charges since its run's last slot. remaining(), debit() and a visit
    collect them from one node; flush() and total_remaining() from every node.
    Read `SensorNode.remaining_energy` or an open platform record's amount
    directly only after flush().
    """

    def __init__(self, field: NodeField, costs: ModeCosts, radio: RadioModel):
        self.field, self.costs, self.radio = field, costs, radio
        # per-slot platform charge of each mode: (joules, debit reason)
        self._charges = {NodeMode.SLEEP: (costs.sleep_per_slot, "sleep"),
                         NodeMode.DETECT: (costs.sense_per_slot, "sense"),
                         NodeMode.MONITOR: (costs.comm_per_slot, "comm")}
        self.debits: list[tuple | list] = []
        self.e_sx_total = 0.0  # running network total; == sum of applied debits
        # per node id: [record, last slot, mode] of its latest platform record
        self._runs = [[None, -1, None] for _ in field.nodes]
        self._through = -1        # last settled slot
        self._common = None       # the common mode of the lazy nodes
        self._cost = None         # its per-slot cost, which the lazy nodes owe
        self._horizon = -1        # last slot in which no lazy node can die
        self._last_awake = ()     # ids in the last settled slot's mode map
        self._alive_before = None  # alive nodes before each index; None after a death
        self._tx_costs: dict = {}  # tx record -> joules; positions and radio are fixed

    def _catch_up(self, node, add=_repeat_add) -> None:
        """Charge a lazy node the common-mode slots it owes since its run's last slot."""
        run = self._runs[node.id]
        owed = self._through - run[1]
        if owed > 0 and node.alive:
            node.remaining_energy = add(node.remaining_energy, -self._cost, owed)
            run[0][3] = add(run[0][3], self._cost, owed)
            run[1] = self._through

    def flush(self) -> None:
        """Bring every node's level and open record up to the last settled slot.

        Most lazy nodes share their level, record amount and owed count, so
        one call replays each distinct (value, owed count) once.
        """
        if self._cost is None:  # no slot settled yet: nothing is owed
            return
        add = functools.lru_cache(maxsize=None)(_repeat_add)
        for node in self.field.nodes:
            self._catch_up(node, add)

    def remaining(self, node_id: int) -> float:
        node = self.field.node(node_id)
        self._catch_up(node)
        return node.remaining_energy

    def total_remaining(self) -> float:
        self.flush()
        return math.fsum(n.remaining_energy for n in self.field.nodes)

    def debit(self, node_id: int, amount: float, reason: str, slot: int) -> float:
        """Draw `amount` joules from a node, clamped at zero. Returns the applied amount."""
        if not amount >= 0:  # also catches NaN
            raise ValueError(f"debit amount must be non-negative, got {amount!r}")
        node = self.field.node(node_id)
        cost = self._cost  # None until a slot is settled: no lazy nodes
        if cost is not None and self._runs[node_id][1] < self._through:
            self._catch_up(node)
        current = node.remaining_energy
        applied = amount if amount <= current else current
        new_level = current - applied
        if new_level <= 0:
            new_level = 0.0
            self.field.kill(node)
            self._alive_before = None
        elif cost is not None:
            self._horizon = min(self._horizon, self._through + _safe_slots(new_level, cost))
        node.remaining_energy = new_level
        self.debits.append((slot, node_id, reason, applied))
        self.e_sx_total += applied
        return applied


def _charge_outcomes(ledger: EnergyLedger, outcomes, slot: int | None = None
                     ) -> tuple[list[float], int]:
    """Debit the radio records of `outcomes`, one log record per operation at
    `slot` (each outcome's own slot when None), with debit()'s float
    operations inline. Returns the joules each outcome drew and the bits
    transmitted.

    A tx record's cost depends only on (node, peer, bits) on a static field,
    so the ledger keeps it per tx record. Lazy nodes, many of which share a
    level and owed count, catch up through one memo made at the first of them.
    """
    field, rm, log, runs = ledger.field, ledger.radio, ledger.debits, ledger._runs
    nodes, tx_costs = field.nodes, ledger._tx_costs
    n_nodes = len(nodes)
    cost, through, total = ledger._cost, ledger._through, ledger.e_sx_total
    add, low = None, math.inf
    rx_bits = rx_amount = None
    per_outcome = []
    sent = 0
    for out in outcomes:
        at = out.slot if slot is None else slot
        before = total
        for rec in out.records:
            op, nid, peer, bits = rec
            # a plain index would wrap -1 to the last node; node() raises KeyError
            node = nodes[nid] if 0 <= nid < n_nodes else field.node(nid)
            if op == "tx":
                amount = tx_costs.get(rec)
                if amount is None:
                    amount = tx_costs[rec] = tx_energy(
                        bits, distance(node.pos, field.node(peer).pos), rm)
                sent += bits
            else:
                if bits != rx_bits:
                    rx_bits, rx_amount = bits, rx_energy(bits, rm)
                amount = rx_amount
            if cost is not None and runs[nid][1] < through:
                if add is None:
                    add = functools.lru_cache(maxsize=None)(_repeat_add)
                ledger._catch_up(node, add)
            current = node.remaining_energy
            applied = amount if amount <= current else current
            level = current - applied
            if level <= 0:
                level = 0.0
                field.kill(node)
                ledger._alive_before = None
            elif level < low:
                low = level
            node.remaining_energy = level
            log.append((at, nid, op, applied))
            total += applied
        per_outcome.append(total - before)
    ledger.e_sx_total = total
    if cost is not None and low < math.inf:
        ledger._horizon = min(ledger._horizon, through + _safe_slots(low, cost))
    return per_outcome, sent


def settle_slot(ledger: EnergyLedger, outcomes, slot_modes: dict[int, NodeMode],
                woken=(), slot: int = 0, *, common: NodeMode) -> None:
    """Charge one slot: platform cost per mode, radio cost per frame, wake-up costs.

    `slot_modes` holds the slot-body mode of each node not in the slot's
    `common` mode; every other alive node spent the slot body in `common`.
    `woken` lists nodes pulled out of sleep by a wake message this slot.
    Platform costs are charged inline, in field order, with debit()'s float
    operations, so levels, deaths and totals match a per-node debit() loop bit
    for bit. Radio charges follow the MAC outcome records, so the ledger's
    tx/rx debit counts reconcile exactly with the MAC's own counters.

    Only the nodes in this slot's or the last slot's map are visited; the
    total takes the common mode's cost of the alive nodes between them with
    `_repeat_add`, and those nodes pay later (see EnergyLedger). Every node is
    visited instead after a skipped slot, a change of common mode, past the
    slot in which a lazy node could die, or when the maps hold a quarter of
    the field or more, where sorting them costs more than the walk.
    """
    sleep, detect = NodeMode.SLEEP, NodeMode.DETECT
    charges = ledger._charges
    asleep, sensing, monitoring = charges[sleep], charges[detect], charges[NodeMode.MONITOR]
    field, log, runs = ledger.field, ledger.debits, ledger._runs
    nodes, c = field.nodes, charges[common][0]
    total, through = ledger.e_sx_total, ledger._through
    prev = slot - 1
    lazy = (prev == through and common is ledger._common and slot <= ledger._horizon
            and 4 * (len(slot_modes) + len(ledger._last_awake)) < len(nodes))
    if lazy:
        order = sorted({*slot_modes, *ledger._last_awake})
        before = ledger._alive_before
        if before is None:
            before = ledger._alive_before = list(accumulate(
                (n.alive for n in nodes), initial=0))
        add = _repeat_add
    else:
        order = range(len(nodes))
        # the lazy nodes it catches up mostly share a level and an owed count,
        # so it replays each distinct (value, owed count) once, as flush() does
        add = functools.lru_cache(maxsize=None)(_repeat_add)
    low = math.inf  # lowest level a visited node keeps
    gap_from = 0
    for i in order:
        if lazy and i > gap_from:  # alive lazy nodes between two visited nodes
            total = _repeat_add(total, c, before[i] - before[gap_from])
        gap_from = i + 1
        node = nodes[i]
        if not node.alive:
            continue
        run = runs[i]
        if run[1] < through:
            ledger._catch_up(node, add)
        mode = slot_modes.get(i, common)
        charge = asleep if mode is sleep else sensing if mode is detect else monitoring
        amount = charge[0]
        current = node.remaining_energy
        applied = amount if amount <= current else current
        level = current - applied
        if level <= 0:
            level = 0.0
            field.kill(node)
            ledger._alive_before = None
        elif level < low:
            low = level
        node.remaining_energy = level
        total += applied
        if run[1] == prev and run[2] is mode:
            run[0][3] += applied
        else:
            run[0], run[2] = [slot, i, charge[1], applied], mode
            log.append(run[0])
        run[1] = slot
    if lazy:
        total = _repeat_add(total, c, before[-1] - before[gap_from])
    ledger.e_sx_total = total
    # after a full walk, every alive node is at its level now; none is left
    # alive when `low` stayed infinite
    horizon = slot + _safe_slots(low, c) if low < math.inf else math.inf
    ledger._horizon = min(ledger._horizon, horizon) if lazy else horizon
    ledger._through, ledger._common, ledger._cost = slot, common, c
    ledger._last_awake = tuple(slot_modes)
    _charge_outcomes(ledger, outcomes, slot)
    for node_id in sorted(woken):
        ledger.debit(node_id, ledger.costs.wake_cost, "wake", slot)


def settle_radio(ledger: EnergyLedger, outcomes) -> tuple[list[float], int]:
    """Charge only the radio records of each outcome, at its own slot; returns
    the joules each outcome drew and the bits transmitted in all of them.

    Used by the throughput bench, which measures the MAC in isolation and does
    not advance the platform's per-slot mode costs.
    """
    return _charge_outcomes(ledger, outcomes)


def debit_counts_by_reason(ledger: EnergyLedger, reason: str) -> Counter:
    """How many debits of a given reason each node accrued (for reconciliation)."""
    return Counter(node_id for _, node_id, why, _ in ledger.debits if why == reason)


@dataclass
class MetricCounters:
    """Raw material for the three run metrics."""

    bits_received: int = 0
    elapsed: float = 0.0          # seconds; wall time for runs, airtime for the bench
    sent_pckt: int = 0
    recv_pckt: int = 0
    delays: list[float] = dc_field(default_factory=list)


def throughput(mc: MetricCounters) -> float:
    """Received bits per second over the elapsed time."""
    if mc.elapsed <= 0:
        raise ValueError("elapsed time must be positive")
    return mc.bits_received / mc.elapsed


def delay(t_s: float, t_d: float) -> float:
    """End-to-end delay of one packet: receive time minus send time."""
    if t_d < t_s:
        raise ValueError(f"delivery at {t_d} precedes send at {t_s}")
    return t_d - t_s


def pdr(mc: MetricCounters):
    """Packet delivery ratio, or None when nothing was sent."""
    if mc.sent_pckt == 0:
        return None
    return mc.recv_pckt / mc.sent_pckt


def mean_delay(mc: MetricCounters) -> float:
    return fmean(mc.delays) if mc.delays else 0.0

"""Energy accounting and run metrics.

Radio costs use the first-order model (electronics + d^2 amplifier term);
platform costs are flat per-slot amounts per mode. Both are stated in joules,
but the ledger counts whole femtojoules (fJ): `fj()` rounds each cost once,
where a ledger takes it in, so levels, log amounts and totals are exact ints,
and reports divide by the int `FJ` to state joules. A ledger is bound to one
run's field, mode costs and radio model when it is built, so the settle
functions take only the slot's outcomes and modes; battery levels live in the
field's `level` column, indexed by node id. Every fJ leaves a node
through debit()'s clamp at zero, which kills the node; settle_slot repeats its
operations inline for platform costs, _charge_outcomes for the radio records
and broadcasts of a slot's or a whole drain's outcomes.
Platform costs add up in three sums, by the mode of the slots they pay for
(sleep, sense, comm); the append-only log holds one record per radio, wake or
direct debit, a broadcast's tx and each of its receivers' rx too, so tx/rx
records reconcile with the MAC. A wake-up is read off the wake messages
themselves: settle_slot charges `wake_cost` once to each receiver of the
slot's broadcasts whose slot-body mode is sleep, so no step reports whom it
woke. Conservation checks add the sums to the log's amounts. The log is
packed columns (`DebitLog`), about 25 bytes a record and no object that the
garbage collector traverses.

Each slot has a common mode, the one mode of every alive node outside the
slot's mode map: sleep while the proposed method tracks, detect while the
whole field senses. A node that stays in the common mode from one slot to the
next is charged lazily: the network total still takes the mode's cost in
every slot, but the node's level and the mode's sum catch up, by the cost
times the slots owed, only when something reads or debits the node. Sums of
ints are exact, so every level, sum and total equals a per-slot charge of
every node. A lazy slot visits only the nodes outside the common mode in it;
with none, as in every all-active slot and every dormant slot after a loss,
its platform charge is the cost times the alive count, O(1) in N. The first
slot and a slot that changes the common mode are lazy too: flush() settles
the old mode's debt in one bulk pass, without a Python loop over the nodes.
Only a slot after a skipped one, and a slot in which a lazy node could die,
walk every node, one by one.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import astuple, dataclass, field as dc_field
from itertools import compress, repeat
from operator import sub
from statistics import fmean

from .errors import ConfigError
from .field import FJ, NodeField, NodeMode, distance, fj  # fJ: the unit of node levels


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
    """Flat per-slot platform costs per mode, plus battery parameters (joules)."""

    sleep_per_slot: float = 0.00027
    sense_per_slot: float = 0.012
    comm_per_slot: float = 0.0378
    initial_energy: float = 5.0
    wake_cost: float = 0.001  # one-shot cost when a wake message pulls a node out of sleep

    def __post_init__(self) -> None:
        if not all(math.isfinite(v * FJ) for v in astuple(self)):  # also rejects NaN
            raise ConfigError("mode costs and battery parameters must be finite, in fJ too")
        if not (0 <= self.sleep_per_slot <= self.sense_per_slot <= self.comm_per_slot):
            raise ConfigError("mode costs must satisfy sleep <= sense <= comm")
        if fj(self.initial_energy) < 1:
            raise ConfigError("initial energy must be at least 1 fJ")
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


def _safe_slots(level: int, cost: int) -> int | float:
    """Slots a node at `level` can pay `cost` per slot without dying: it dies
    in the slot after them, or never when the cost is 0."""
    return (level - 1) // cost if cost else math.inf


class DebitLog:
    """The ledger's append-only log of `(slot, node, reason, applied_fJ)`
    records as packed columns, about 25 B a record where a tuple in a list
    takes about 90: `slots` and `nodes` (int64), `codes` (a byte indexing
    `reasons`) and `amounts` (Python ints, exact at any battery size and
    shared with the ledger's cost memos). `len()`, iteration in append order
    and int indexing, negative too, read it as a sequence of those tuples.
    """

    __slots__ = ("slots", "nodes", "codes", "amounts", "reasons", "_code")

    def __init__(self) -> None:
        self.slots = array("q")
        self.nodes = array("q")
        self.codes = bytearray()
        self.amounts: list[int] = []
        self.reasons: list[str] = []     # code -> reason
        self._code: dict[str, int] = {}  # reason -> code

    def code_of(self, reason: str) -> int:
        """The code of `reason`, given it on first use; a 257th distinct
        reason raises ValueError, since a code is one byte."""
        code = self._code.get(reason)
        if code is None:
            code = len(self.reasons)
            if code > 255:
                raise ValueError(f"a debit log holds at most 256 distinct reasons; "
                                 f"{reason!r} would be the 257th")
            self._code[reason] = code
            self.reasons.append(reason)
        return code

    def __len__(self) -> int:
        return len(self.amounts)

    def __iter__(self):
        return zip(self.slots, self.nodes, map(self.reasons.__getitem__, self.codes),
                   self.amounts)

    def __getitem__(self, i: int) -> tuple:
        return self.slots[i], self.nodes[i], self.reasons[self.codes[i]], self.amounts[i]


class EnergyLedger:
    """Battery bookkeeping of one run, in whole fJ: platform sums and an
    append-only debit log.

    A ledger is bound to its field, mode costs and radio model when it is
    built, and rounds its mode costs to fJ there. Levels live in the field's
    `level` column and nowhere else: the ledger writes each charge there, and
    a node whose battery clamps to zero is killed, which drops it from the
    schedule. Every level, amount and total is an int of fJ;
    callers that report joules divide by `FJ`.

    `platform` holds the fJ that settle_slot drew in sleep, sense and comm
    slots, in that order. The log, `debits`, a `DebitLog`, holds one
    `(slot, node, reason, applied_fJ)` record per other debit: "tx", "rx",
    "wake", or a direct debit() call, so `len(debits)` counts one per MAC
    radio operation (a broadcast's tx, and its rx at each receiver), wake-up
    and direct debit. The fJ of a reason are its platform sum, if it has
    one, plus its log amounts, and `sum(platform)` plus `sum(debits.amounts)`
    is the energy drawn, `e_sx_total`.

    A node in the common mode that settle_slot did not visit still owes that
    mode's charges since the last slot it paid for. debit() and a visit
    collect them from one node; flush() and total_remaining() from every node,
    in bulk, and so does settle_slot when the common mode changes. Only a
    walk (after a skipped slot, or past the death horizon) visits every node
    in a Python loop. Read `field.level` or `platform` directly only after
    flush().
    """

    def __init__(self, field: NodeField, costs: ModeCosts, radio: RadioModel):
        self.field, self.costs, self.radio = field, costs, radio
        # each mode's per-slot platform charge, (fJ, index in `platform`), after
        # its mode (monitor's last): settle_slot picks one by `is` tests, which
        # cost less than a NodeMode-keyed lookup's hash
        self._charges = (NodeMode.SLEEP, (fj(costs.sleep_per_slot), 0),
                         NodeMode.DETECT, (fj(costs.sense_per_slot), 1),
                         (fj(costs.comm_per_slot), 2))
        self._wake = fj(costs.wake_cost)
        self.platform = [0, 0, 0]  # fJ drawn in sleep, sense and comm slots
        self.debits = DebitLog()
        self.e_sx_total = 0  # running network total, fJ; see the class docstring
        self._paid = [-1] * len(field.level)  # per node id: the last slot it paid for
        self._through = -1        # last settled slot
        self._common = None       # the common mode of the lazy nodes
        self._cost = None         # its per-slot cost, which the lazy nodes owe,
        self._at = None           # and its index in `platform`
        self._horizon = -1        # last slot in which no lazy node can die
        self._tx_costs: dict = {}  # tx record -> fJ; positions and radio are fixed
        self._rx_costs: dict = {}  # rx bits -> fJ

    def _catch_up(self, node_id: int) -> None:
        """Charge a lazy node the common-mode slots it owes since the last one it paid for."""
        owed = self._through - self._paid[node_id]
        if owed > 0 and self.field.alive[node_id]:
            charge = owed * self._cost
            self.field.level[node_id] -= charge
            self.platform[self._at] += charge
            self._paid[node_id] = self._through

    def flush(self) -> None:
        """Bring every node's level, and `platform`, up to the last settled slot.

        One bulk pass, as _catch_up() of every node would: a list of each
        alive node's charge, the levels reduced node by node through
        map(sub, ...), the charges' sum added to the common mode's platform
        sum, and each alive node marked paid through that slot. No lazy node
        owes its whole level (see settle_slot's death horizon), so none dies.
        """
        cost, through, paid, field = self._cost, self._through, self._paid, self.field
        if cost is None:  # no slot settled yet: nothing is owed
            return
        charges = [(through - p) * cost if a else 0 for p, a in zip(paid, field.alive)]
        field.level[:] = map(sub, field.level, charges)
        self.platform[self._at] += sum(charges)
        paid[:] = [through if a else p for p, a in zip(paid, field.alive)]

    def total_remaining(self) -> int:
        self.flush()
        return sum(self.field.level)

    def debit(self, node_id: int, amount: int, reason: str, slot: int) -> int:
        """Draw `amount` fJ from a node, clamped at zero. Returns the applied
        amount. A record the log cannot take raises before any charge."""
        if type(amount) is not int or amount < 0:  # a float, joules or fJ, is an error
            raise ValueError(f"debit amount must be a non-negative int of fJ, got {amount!r}")
        field, log = self.field, self.debits
        field.pos(node_id)  # the range check
        code = log.code_of(reason)
        log.slots.append(slot)  # the one column append that can fail: first
        cost = self._cost  # None until a slot is settled: no lazy nodes
        if cost is not None and self._paid[node_id] < self._through:
            self._catch_up(node_id)
        current = field.level[node_id]
        applied = amount if amount <= current else current
        new_level = current - applied
        if new_level <= 0:
            new_level = 0
            field.kill(node_id)
        elif cost is not None:
            self._horizon = min(self._horizon, self._through + _safe_slots(new_level, cost))
        field.level[node_id] = new_level
        log.nodes.append(node_id)
        log.codes.append(code)
        log.amounts.append(applied)
        self.e_sx_total += applied
        return applied


def _charge_outcomes(ledger: EnergyLedger, outcomes) -> tuple[list[float], int]:
    """Debit the radio records and broadcasts of `outcomes`, one log record
    per operation at its outcome's slot, with debit()'s operations inline.
    Returns the joules each outcome drew and the bits transmitted.

    A tx's cost depends only on (node, peer, bits) on a static field, an
    rx's only on its bits, so the ledger rounds each to fJ once and keeps
    it. A tx's ids pass pos()'s range check when its cost is first rounded,
    an rx record's node at every record, and a broadcast's receivers through
    their smallest and largest id, before the broadcast charges anything.
    Every record that is not a tx is charged and logged as an rx. A
    broadcast logs its tx, then one rx per receiver in its order, as the
    equivalent records would, but extends the log's columns once for its
    receivers and looks their cost up once.
    """
    field, rm, log, paid = ledger.field, ledger.radio, ledger.debits, ledger._paid
    levels, tx_costs, rx_costs, pos = field.level, ledger._tx_costs, ledger._rx_costs, field.pos
    cost, through, total = ledger._cost, ledger._through, ledger.e_sx_total
    tx, rx = log.code_of("tx"), log.code_of("rx")  # once a call, before any charge
    add_slot, add_node = log.slots.append, log.nodes.append
    add_code, add_amount = log.codes.append, log.amounts.append
    low = math.inf
    per_outcome = []
    sent = 0
    for out in outcomes:
        at = out.slot
        before = total
        for rec in out.records:
            op, nid, peer, bits = rec
            if op == "tx":
                amount = tx_costs.get(rec)
                if amount is None:
                    amount = tx_costs[rec] = fj(tx_energy(
                        bits, distance(pos(nid), pos(peer)), rm))
                sent += bits
                code = tx
            else:
                pos(nid)  # the range check
                amount = rx_costs.get(bits)
                if amount is None:
                    amount = rx_costs[bits] = fj(rx_energy(bits, rm))
                code = rx
            add_slot(at)  # the one column append that can fail: before the charge
            if cost is not None and paid[nid] < through:
                ledger._catch_up(nid)
            current = levels[nid]
            applied = amount if amount <= current else current
            level = current - applied
            if level <= 0:
                level = 0
                field.kill(nid)
            elif level < low:
                low = level
            levels[nid] = level
            add_node(nid)
            add_code(code)
            add_amount(applied)
            total += applied
        if out.broadcasts:  # a contention round has none
            for node, peer, receivers, bits in out.broadcasts:
                pos(min(receivers))  # the range check of every receiver
                pos(max(receivers))
                key = ("tx", node, peer, bits)  # the memo key of the equal tx record
                amount = tx_costs.get(key)
                if amount is None:
                    amount = tx_costs[key] = fj(tx_energy(
                        bits, distance(pos(node), pos(peer)), rm))
                rx_amount = rx_costs.get(bits)
                if rx_amount is None:
                    rx_amount = rx_costs[bits] = fj(rx_energy(bits, rm))
                sent += bits
                add_slot(at)  # the one column append that can fail: before any charge
                log.slots.extend(repeat(at, len(receivers)))
                add_node(node)
                log.nodes.extend(receivers)
                add_code(tx)
                log.codes.extend(repeat(rx, len(receivers)))
                for nid in (node, *receivers):
                    if cost is not None and paid[nid] < through:
                        ledger._catch_up(nid)
                    current = levels[nid]
                    applied = amount if amount <= current else current
                    level = current - applied
                    if level <= 0:
                        level = 0
                        field.kill(nid)
                    elif level < low:
                        low = level
                    levels[nid] = level
                    add_amount(applied)
                    total += applied
                    amount = rx_amount  # the sender's tx first, then every receiver's rx
        per_outcome.append((total - before) / FJ)
    ledger.e_sx_total = total
    if cost is not None and low < math.inf:
        ledger._horizon = min(ledger._horizon, through + _safe_slots(low, cost))
    return per_outcome, sent


def settle_slot(ledger: EnergyLedger, outcomes, slot_modes: dict[int, NodeMode],
                slot: int, *, common: NodeMode) -> None:
    """Charge one slot: platform cost per mode, radio cost per frame, wake-up costs.

    `slot_modes` holds the slot-body mode of each node not in the slot's
    `common` mode; every other alive node spent the slot body in `common`.
    A map id outside 0..n-1 raises pos()'s KeyError before anything is charged.
    Platform costs are charged inline, with debit()'s operations, to the
    levels and to `ledger.platform`, so levels, deaths and totals match a
    per-node debit() loop.
    Radio charges follow the MAC outcomes' records and broadcasts, logged at
    each outcome's slot, which is this one, so the ledger's tx/rx debit
    counts reconcile exactly with the MAC's own counters.
    Wake-ups come last: every receiver of the outcomes' broadcasts whose
    slot-body mode, `slot_modes.get(r, common)`, is sleep pays `wake_cost`
    once, in ascending id order, as a "wake" debit(); one that died earlier
    in the slot logs it at 0 fJ.

    Only the nodes in this slot's map are visited; the total takes the common
    mode's cost times the alive nodes not visited, and those nodes pay later
    (see EnergyLedger), a node that left the map since its last visit too.
    With the map empty, as in every all-active slot and every dormant slot
    after a loss, that is the whole platform charge: O(1), whatever the
    field's size. At the first slot and at a change of common mode, flush()
    first settles what every node owes at the old mode's cost, in bulk, so
    that the cost a lazy node owes never changes, and the death horizon
    restarts from the lowest alive level. Every node is visited, in a Python
    loop, only after a skipped slot and in a slot in which a lazy node could
    die.
    """
    sleep, asleep, detect, sensing, monitoring = ledger._charges
    c, at = asleep if common is sleep else sensing if common is detect else monitoring
    field, platform, paid = ledger.field, ledger.platform, ledger._paid
    if slot_modes:  # the range check of the map's ids, before any charge
        field.pos(min(slot_modes))
        field.pos(max(slot_modes))
    levels, alive, through = field.level, field.alive, ledger._through
    lazy = slot - 1 == through
    if lazy and common is not ledger._common:  # the first slot, or a new common mode
        ledger.flush()  # every alive node pays the old mode through `through`
        low = min(compress(levels, alive), default=math.inf)
        ledger._horizon = through + _safe_slots(low, c) if low < math.inf else math.inf
        ledger._common, ledger._cost, ledger._at = common, c, at
    lazy = lazy and slot <= ledger._horizon
    total = ledger.e_sx_total
    unvisited = field.n_alive  # alive nodes the walk below does not visit
    low = math.inf  # lowest level a visited node keeps
    for i in tuple(slot_modes) if lazy else range(len(levels)):  # a kill() may edit the map
        if not alive[i]:
            continue
        unvisited -= 1
        if paid[i] < through:
            ledger._catch_up(i)
        mode = slot_modes.get(i, common)
        amount, k = asleep if mode is sleep else sensing if mode is detect else monitoring
        current = levels[i]
        applied = amount if amount <= current else current
        level = current - applied
        if level <= 0:
            level = 0
            field.kill(i)
        elif level < low:
            low = level
        levels[i] = level
        platform[k] += applied
        total += applied
        paid[i] = slot
    if lazy:
        total += c * unvisited
    ledger.e_sx_total = total
    # after a full walk, every alive node is at its level now; none is left
    # alive when `low` stayed infinite
    horizon = slot + _safe_slots(low, c) if low < math.inf else math.inf
    ledger._horizon = min(ledger._horizon, horizon) if lazy else horizon
    ledger._through, ledger._common, ledger._cost, ledger._at = slot, common, c, at
    if outcomes:
        _charge_outcomes(ledger, outcomes)
        woken = {r for out in outcomes for b in out.broadcasts for r in b.receivers
                 if slot_modes.get(r, common) is sleep}
        for node_id in sorted(woken):
            ledger.debit(node_id, ledger._wake, "wake", slot)


def settle_radio(ledger: EnergyLedger, outcomes) -> tuple[list[float], int]:
    """Charge only the radio records of each outcome, at its own slot; returns
    the joules each outcome drew and the bits transmitted in all of them.

    Used by the throughput bench, which measures the MAC in isolation and does
    not advance the platform's per-slot mode costs.
    """
    return _charge_outcomes(ledger, outcomes)


def debit_counts_by_reason(ledger: EnergyLedger, reason: str) -> Counter:
    """How many debits of a given reason each node accrued (for reconciliation)."""
    log = ledger.debits
    code = log._code.get(reason)
    if code is None:
        return Counter()
    mask = bytearray(256)  # code -> 1 for the reason's code, 0 for every other
    mask[code] = 1
    return Counter(compress(log.nodes, log.codes.translate(mask)))


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

"""Sensor field model: geometry, node state, random deployment, range queries.

Nodes are static once deployed; only the tracked target moves. All range
checks are boundary-inclusive (<=) so that brute-force oracles are exact.
Range queries narrow the candidates with a uniform grid of cells of side r_s,
then apply the same `distance(...) <= r` test as a scan of all nodes, so they
return exactly the scan's result at a cost that follows the nodes near the
query point, not the field size. deploy() draws positions and grid once while
its config repeats, as in a paired comparison, and builds fresh nodes each call.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Collection, Iterable, Iterator

from .errors import ConfigError


@dataclass(frozen=True)
class Point:
    """A position in the plane, meters."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates ({self.x}, {self.y})")


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points, meters."""
    return math.hypot(a.x - b.x, a.y - b.y)


class NodeMode(Enum):
    SLEEP = "sleep"      # no sensing; radio idle-listens for wake messages
    DETECT = "detect"    # actively sensing for the target
    MONITOR = "monitor"  # sensed the target, exchanging tracking messages


@dataclass
class SensorNode:
    """One sensor: fixed position, current mode, remaining battery."""

    id: int
    pos: Point
    mode: NodeMode = NodeMode.SLEEP
    remaining_energy: float = 0.0
    alive: bool = True


@dataclass(frozen=True)
class FieldConfig:
    """Deployment parameters. Defaults follow the standard evaluation setup."""

    area_width: float = 500.0
    area_height: float = 500.0
    n_nodes: int = 250
    r_s: float = 25.0   # sensing radius, meters
    r_c: float = 50.0   # communication radius, meters
    seed: int = 0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite,
                       (self.area_width, self.area_height, self.r_s, self.r_c))):
            raise ConfigError("field dimensions and radii must be finite")
        if self.area_width <= 0 or self.area_height <= 0:
            raise ConfigError("area dimensions must be positive")
        if self.n_nodes < 1:
            raise ConfigError("at least one node is required")
        if self.r_s <= 0:
            raise ConfigError("sensing radius must be positive")
        if self.r_c < 2 * self.r_s:
            raise ConfigError(
                f"communication radius {self.r_c} m violates r_c >= 2*r_s "
                f"(r_s = {self.r_s} m)"
            )


def _grid(positions: Iterable[Point], side: float) -> tuple:
    """(cell, ascending indices into `positions`) of each occupied cell."""
    cells: dict[tuple[int, int], list[int]] = {}
    for i, p in enumerate(positions):
        cells.setdefault((math.floor(p.x / side), math.floor(p.y / side)), []).append(i)
    return tuple((key, tuple(cell)) for key, cell in cells.items())


class NodeField:
    """A deployed field: ordered node list plus the config that produced it.

    `awake` holds the ids of the nodes not asleep and `n_alive` counts the
    alive nodes. They stay exact as long as every mode change goes through
    set_mode() or set_modes() and every death through kill(), so that a slot
    can visit its awake nodes, or learn that every alive node is awake,
    without a scan. Range queries use a grid of the nodes, alive or dead,
    which deploy() hands over and a field built directly bins on first use.
    """

    def __init__(self, nodes: Iterable[SensorNode], config: FieldConfig):
        self.nodes: list[SensorNode] = list(nodes)
        self.config = config
        self._by_id = {n.id: n for n in self.nodes}
        if len(self._by_id) != len(self.nodes):
            raise ConfigError("duplicate node ids in field")
        sleep = NodeMode.SLEEP  # a local: the class attribute lookup costs more than the test
        self.awake: set[int] = {n.id for n in self.nodes if n.mode is not sleep}
        self.n_alive = sum(n.alive for n in self.nodes)

    def set_mode(self, node: SensorNode, mode: NodeMode) -> None:
        node.mode = mode
        if mode is NodeMode.SLEEP:
            self.awake.discard(node.id)
        else:
            self.awake.add(node.id)

    def set_modes(self, ids: Collection[int], mode: NodeMode) -> None:
        """set_mode() for each node id in `ids`, with one update of `awake`."""
        by_id = self._by_id
        for nid in ids:
            by_id[nid].mode = mode
        if mode is NodeMode.SLEEP:
            self.awake.difference_update(ids)
        else:
            self.awake.update(ids)

    def kill(self, node: SensorNode) -> None:
        """Mark a node dead and asleep; killing a dead node changes nothing."""
        if node.alive:
            node.alive = False
            self.n_alive -= 1
        self.set_mode(node, NodeMode.SLEEP)

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[SensorNode]:
        return iter(self.nodes)

    def node(self, node_id: int) -> SensorNode:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise KeyError(f"unknown node id {node_id}") from None

    def alive_nodes(self) -> list[SensorNode]:
        return [n for n in self.nodes if n.alive]

    @functools.cached_property
    def _cells(self) -> dict[tuple[int, int], list[SensorNode]]:
        """Every node, alive or dead, binned by (floor(x / r_s), floor(y / r_s));
        built on the first query unless deploy() set it."""
        return self._bind(_grid([n.pos for n in self.nodes], self.config.r_s))

    def _bind(self, grid: tuple) -> dict[tuple[int, int], list[SensorNode]]:
        """An index grid's cells as lists of this field's own nodes."""
        nodes = self.nodes
        return {key: [nodes[i] for i in cell] for key, cell in grid}

    def near(self, p: Point, r: float) -> list[SensorNode]:
        """A superset of the nodes, alive or dead, within r of p.

        The nodes of every grid cell that meets the square [p - m, p + m]²,
        where m exceeds r by far more than `distance` can round, or all nodes
        when that square spans more cells than there are nodes.
        """
        side = self.config.r_s
        m = r + 1e-9 * (abs(p.x) + abs(p.y) + r)
        i_lo, i_hi = math.floor((p.x - m) / side), math.floor((p.x + m) / side)
        j_lo, j_hi = math.floor((p.y - m) / side), math.floor((p.y + m) / side)
        if (i_hi - i_lo + 1) * (j_hi - j_lo + 1) > len(self.nodes):
            return self.nodes
        cells = self._cells
        found: list[SensorNode] = []
        for i in range(i_lo, i_hi + 1):
            for j in range(j_lo, j_hi + 1):
                found += cells.get((i, j), ())
        return found


@functools.lru_cache(maxsize=1)
def _layout(config: FieldConfig) -> tuple[tuple[Point, ...], tuple]:
    """A config's positions and grid, immutable: its fields share nothing mutable."""
    rng = random.Random(config.seed)
    w, h = config.area_width, config.area_height
    points = tuple(Point(rng.uniform(0.0, w), rng.uniform(0.0, h))
                   for _ in range(config.n_nodes))
    return points, _grid(points, config.r_s)


def deploy(config: FieldConfig, initial_energy: float = 5.0) -> NodeField:
    """Place nodes uniformly at random inside the area.

    Ids are assigned 0..n-1 in draw order, everyone starts asleep with a full
    battery. Same config and seed reproduce the exact same field, from one
    cached layout while the config repeats, with nodes of its own.
    """
    if initial_energy <= 0:
        raise ConfigError("initial energy must be positive")
    points, grid = _layout(config)
    field = NodeField([SensorNode(i, p, NodeMode.SLEEP, initial_energy, True)
                       for i, p in enumerate(points)], config)
    field._cells = field._bind(grid)
    return field


def detectors_of(field: NodeField, target_pos: Point) -> set[int]:
    """Ids of alive nodes whose sensing disk contains the target (inclusive)."""
    r_s = field.config.r_s
    return {n.id for n in field.near(target_pos, r_s)
            if n.alive and distance(n.pos, target_pos) <= r_s}


def neighbors_of(field: NodeField, node_id: int,
                 among: Iterable[int] | None = None) -> set[int]:
    """Ids of alive nodes within communication range of `node_id` (exclusive of
    itself); only those in `among`, when given, which then replaces the grid."""
    center = field.node(node_id).pos
    r_c = field.config.r_c
    pool = (field.near(center, r_c) if among is None
            else map(field._by_id.__getitem__, among))
    return {n.id for n in pool
            if n.alive and n.id != node_id and distance(n.pos, center) <= r_c}


def k_closest(field: NodeField, p: Point, k: int,
              candidates: Iterable[int]) -> list[int]:
    """The k candidate ids nearest to p, ascending by distance, ties by id.

    Fewer than k candidates returns all of them sorted; an empty candidate
    set returns an empty list (callers treat that as a lost target).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked = sorted((distance(field.node(i).pos, p), i) for i in set(candidates))
    return [i for _, i in ranked[:k]]

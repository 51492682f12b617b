"""Sensor field model: geometry, node state, random deployment, range queries.

Nodes are static once deployed; only the tracked target moves. All range
checks are boundary-inclusive (<=) so that brute-force oracles are exact.
A field stands on a layout: the nodes' positions, their immutable (id, x, y)
entries and a uniform grid of those entries in cells of side r_s. Range
queries test the entries with the float expression of `distance(...) <= r`,
so they return exactly a scan's result at a cost that follows the nodes near
the query point, not the field size. Queries within r_s, as detectors_of and
a run's coverage test make, read the entries of the 3x3 cells around the
query point as one block, concatenated on first use and kept in the layout.
deploy() draws a layout once while its key repeats, as in a paired
comparison or a sweep over r_c, and builds a fresh field on it each call.
The key is what positions and the grid depend on: (area_width, area_height,
n_nodes, r_s, seed). r_c is not in it: a field reads r_c from its own config.
A node is its id, 0..n-1: its position lives in the layout, and its battery
level and alive flag in the field's columns, indexed by id.
A field's sleep schedule is one common mode plus a map of the alive nodes in
another mode (`NodeField.common`, `NodeField.modes`); a node holds no mode.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

from .errors import ConfigError

Entry = tuple[int, float, float]  # (id, x, y) of a node; range queries read these

FJ = 10**15  # femtojoules per joule: battery levels count whole fJ


def fj(joules: float) -> int:
    """`joules` as the nearest whole number of femtojoules. A charge too large
    for a float in fJ, such as a frame under an absurd radio constant, counts
    as the largest float: more than any battery that ModeCosts accepts."""
    return round(min(joules * FJ, sys.float_info.max))


@dataclass(frozen=True, slots=True)
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


def _grid(entries: Iterable[Entry], side: float) -> dict[tuple[int, int], tuple[Entry, ...]]:
    """The entries binned by (floor(x / side), floor(y / side)), in input order."""
    cells: defaultdict[tuple[int, int], list[Entry]] = defaultdict(list)
    floor = math.floor
    for e in entries:
        cells[floor(e[1] / side), floor(e[2] / side)].append(e)
    return {key: tuple(cell) for key, cell in cells.items()}


class Layout(NamedTuple):
    """Where a field's nodes stand, shared by every field built on it: node
    i's position, its (id, x, y) entry, the entries binned by
    (floor(x / side), floor(y / side)), the entries of 3x3 cells keyed by
    the lowest cell, each block added by the first query that reads it (see
    NodeField.near), and the cell side. Only the blocks grow."""

    points: tuple[Point, ...]
    entries: tuple[Entry, ...]
    cells: dict[tuple[int, int], tuple[Entry, ...]]
    blocks: dict[tuple[int, int], tuple[Entry, ...]]
    side: float


def layout_of(points: Iterable[Point], r_s: float) -> Layout:
    """The layout in which node i stands at the i-th point, on cells of side r_s."""
    points = tuple(points)
    entries = tuple([(i, p.x, p.y) for i, p in enumerate(points)])
    return Layout(points, entries, _grid(entries, r_s), {}, r_s)


class NodeField:
    """A deployed field: per-node columns, sleep schedule, and the config that
    produced it.

    Node i stands at the i-th point of `layout`, which must hold the config's
    n_nodes points. The field keeps two columns indexed by id: `level`, each
    node's battery in whole fJ (see fj), and `alive`. The constructor starts
    every node alive, asleep, at `level` fJ. pos() is the one range check of a
    node id: an id outside 0..n-1 raises KeyError there, where a plain index
    would wrap -1 to the last node. Range queries read the layout's entries,
    grid and blocks, whose cell side must be the config's r_s.

    The schedule is `common`, the mode of every alive node outside `modes`,
    and `modes`, which maps each alive node in another mode to that mode;
    a dead node is in neither. Nodes are awake where the mode is not SLEEP,
    so a slot visits its awake nodes, or learns that every alive node is
    awake, without a scan. `n_alive` counts the alive nodes; it, `alive` and
    `modes` stay exact as long as every death goes through kill().
    """

    def __init__(self, config: FieldConfig, layout: Layout, level: int):
        if type(level) is not int or level < 1:  # a level in joules, say
            raise ConfigError(f"initial level {level!r} is not an int of at least 1 fJ")
        if layout.side != config.r_s:
            raise ConfigError(f"layout binned at {layout.side} m, but r_s is {config.r_s} m")
        n = len(layout.points)
        if n != config.n_nodes:
            raise ConfigError(f"layout of {n} points, but n_nodes is {config.n_nodes}")
        self.config = config
        self.level: list[int] = [level] * n
        self.alive: list[bool] = [True] * n
        self.common = NodeMode.SLEEP
        self.modes: dict[int, NodeMode] = {}
        self.n_alive = n
        self._points, self._entries = layout.points, layout.entries
        self._cells, self._blocks = layout.cells, layout.blocks

    def pos(self, node_id: int) -> Point:
        """Where node `node_id` stands; KeyError for an id outside 0..n-1."""
        if node_id >= 0:  # a plain index would wrap -1 to the last node
            try:
                return self._points[node_id]
            except IndexError:  # cheaper than a length test on every call
                pass
        raise KeyError(f"unknown node id {node_id}")

    def kill(self, node_id: int) -> None:
        """Mark a node dead and drop it from the schedule; killing a dead
        node changes nothing."""
        self.pos(node_id)  # the range check
        if self.alive[node_id]:
            self.alive[node_id] = False
            self.n_alive -= 1
            self.modes.pop(node_id, None)

    def near(self, p: Point, r: float) -> Iterable[Entry]:
        """A superset of the entries of the nodes, alive or dead, within r of p.

        The entries of every grid cell that meets the square [p - m, p + m]²,
        where m exceeds r by far more than `distance` can round, or all
        entries when that square spans more cells than there are nodes. With
        r = r_s the square meets 3x3 cells, except within a hair of a cell
        boundary, and those cells' entries come from a cached block, dead
        nodes' included, in the order of the cell loop; every other query
        collects them cell by cell.
        """
        side = self.config.r_s
        m = r + 1e-9 * (abs(p.x) + abs(p.y) + r)
        i_lo, i_hi = math.floor((p.x - m) / side), math.floor((p.x + m) / side)
        j_lo, j_hi = math.floor((p.y - m) / side), math.floor((p.y + m) / side)
        block = r == side and i_hi - i_lo == 2 == j_hi - j_lo
        if block and (found := self._blocks.get((i_lo, j_lo))) is not None:
            return found
        if (i_hi - i_lo + 1) * (j_hi - j_lo + 1) > len(self._entries):
            return self._entries
        cells = self._cells
        found = []
        for i in range(i_lo, i_hi + 1):
            for j in range(j_lo, j_hi + 1):
                found += cells.get((i, j), ())
        if block:
            found = self._blocks[i_lo, j_lo] = tuple(found)
        return found


def _layout(config: FieldConfig) -> Layout:
    """A config's layout, shared by the fields of every config with its key."""
    return _drawn_layout(config.area_width, config.area_height, config.n_nodes,
                         config.r_s, config.seed)


@functools.lru_cache(maxsize=1)  # one N = 4 000 layout holds about 0.9 MB
def _drawn_layout(w: float, h: float, n_nodes: int, r_s: float, seed: int) -> Layout:
    """n_nodes points drawn uniformly in the w x h area, binned at r_s."""
    draw = random.Random(seed).random
    new, set_x, set_y, points = object.__new__, Point.x.__set__, Point.y.__set__, []
    for _ in range(n_nodes):
        p = new(Point)  # finite, so the slots are set directly, without __post_init__'s check
        # w * random() is uniform(0.0, w) bit for bit, and x is drawn before y
        set_x(p, w * draw())
        set_y(p, h * draw())
        points.append(p)
    return layout_of(points, r_s)


def deploy(config: FieldConfig, initial_energy: float = 5.0) -> NodeField:
    """Place nodes uniformly at random inside the area.

    Ids are assigned 0..n-1 in draw order, everyone starts asleep with a full
    battery of `initial_energy` joules, which each node holds as fj() of it.
    Same config and seed reproduce the exact same field: fresh columns on one
    layout, cached while its key (area_width, area_height, n_nodes, r_s, seed)
    repeats, so configs that differ only in r_c share it.
    """
    level = fj(initial_energy) if math.isfinite(initial_energy * FJ) else 0
    return NodeField(config, _layout(config), level)


def detectors_of(field: NodeField, target_pos: Point) -> set[int]:
    """Ids of alive nodes whose sensing disk contains the target (inclusive)."""
    r_s, px, py, alive = field.config.r_s, target_pos.x, target_pos.y, field.alive
    return {i for i, x, y in field.near(target_pos, r_s)
            if math.hypot(x - px, y - py) <= r_s and alive[i]}


def neighbors_of(field: NodeField, node_id: int,
                 among: Iterable[int] | None = None) -> dict[int, float]:
    """{id: distance from `node_id`} of the alive nodes within its communication
    range, itself excluded; only those in `among`, when given, which then
    replaces the grid. Every id passes pos()'s range check."""
    pos = field.pos
    center = pos(node_id)
    cx, cy, r_c, alive = center.x, center.y, field.config.r_c, field.alive
    pool = (field.near(center, r_c) if among is None
            else [(i, (p := pos(i)).x, p.y) for i in among])
    return {i: d for i, x, y in pool
            if (d := math.hypot(x - cx, y - cy)) <= r_c and i != node_id and alive[i]}


def k_closest(field: NodeField, p: Point, k: int,
              candidates: Iterable[int]) -> list[int]:
    """The k candidate ids nearest to p, ascending by distance, ties by id.

    Fewer than k candidates returns all of them sorted; an empty candidate
    set returns an empty list (callers treat that as a lost target).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked = sorted((distance(field.pos(i), p), i) for i in set(candidates))
    return [i for _, i in ranked[:k]]

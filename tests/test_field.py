"""Field geometry, deployment, and range-query tests against brute-force oracles."""

import math
import random
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import example, given, settings, strategies as st

from wsn_track_sim import (ConfigError, FieldConfig, NodeField, NodeMode,
                           Point, deploy, detectors_of, distance,
                           k_closest, layout_of, neighbors_of)
from wsn_track_sim.field import FJ, _drawn_layout, _layout, fj
from wsn_track_sim.protocol import PredictedRegion, wake_set


def make_field(positions, r_s=25.0, r_c=50.0, area=500.0, energy=5 * FJ):
    cfg = FieldConfig(area_width=area, area_height=area,
                      n_nodes=len(positions), r_s=r_s, r_c=r_c, seed=0)
    return NodeField(cfg, layout_of([Point(x, y) for x, y in positions], r_s), energy)


class TestFieldConfig:
    def test_rejects_small_comm_radius(self):
        with pytest.raises(ConfigError):
            FieldConfig(r_s=25, r_c=49.999)

    def test_accepts_exact_double(self):
        FieldConfig(r_s=25, r_c=50)

    def test_rejects_zero_area(self):
        with pytest.raises(ConfigError):
            FieldConfig(area_width=0)

    def test_rejects_zero_nodes(self):
        with pytest.raises(ConfigError):
            FieldConfig(n_nodes=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["area_width", "area_height", "r_s", "r_c"])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ConfigError):
            FieldConfig(**{name: value})


class TestDeploy:
    def test_table_defaults(self):
        field = deploy(FieldConfig(seed=7), initial_energy=5.0)
        assert len(field.level) == len(field.alive) == 250
        for i in range(250):
            p = field.pos(i)
            assert 0 <= p.x <= 500 and 0 <= p.y <= 500
            assert field.level[i] == 5 * FJ and type(field.level[i]) is int
            assert field.alive[i] is True
        assert field.common is NodeMode.SLEEP and field.modes == {}

    def test_single_node(self):
        field = deploy(FieldConfig(n_nodes=1, seed=0))
        assert field.level == [5 * FJ] and field.alive == [True]
        assert field.pos(0) == _layout(field.config).points[0]

    def test_same_seed_reproduces(self):
        a = deploy(FieldConfig(seed=42))
        b = deploy(FieldConfig(seed=42))
        assert ([(a.pos(i).x, a.pos(i).y) for i in range(250)]
                == [(b.pos(i).x, b.pos(i).y) for i in range(250)])

    def test_different_seed_differs(self):
        a = deploy(FieldConfig(seed=1))
        b = deploy(FieldConfig(seed=2))
        assert any(a.pos(i) != b.pos(i) for i in range(250))

    @pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf, 1e300, 0.0,
                                        -1.0, 4e-16])
    def test_rejects_a_level_of_no_whole_fj(self, energy):
        # 1e300 J overflows to inf fJ; 4e-16 J rounds to 0 fJ
        with pytest.raises(ConfigError):
            deploy(FieldConfig(n_nodes=3, seed=0), energy)

    def test_smallest_level_is_one_fj(self):
        assert deploy(FieldConfig(n_nodes=2), 6e-16).level == [1, 1]


class TestNodeField:
    @pytest.mark.parametrize("level", [5.0, 5e15, math.nan, None, 0, True])
    def test_rejects_a_level_that_is_not_an_int_of_fj(self, level):
        # a level in joules must not pass for 5 fJ, nor an empty battery for a live node
        cfg = FieldConfig(n_nodes=2)
        with pytest.raises(ConfigError, match="initial level"):
            NodeField(cfg, layout_of([Point(0.0, 0.0), Point(1.0, 0.0)], cfg.r_s), level)

    def test_rejects_a_layout_binned_at_another_side(self):
        # its grid would answer range queries from cells of the wrong size
        points = [Point(0.0, 0.0), Point(30.0, 0.0)]
        with pytest.raises(ConfigError, match="layout binned at 60.0 m"):
            NodeField(FieldConfig(n_nodes=2, r_s=25.0), layout_of(points, 60.0), FJ)

    def test_rejects_a_layout_of_another_node_count(self):
        # 20 nodes under a config of 5 would disagree with every report of N
        points = [Point(10.0 * i, 0.0) for i in range(20)]
        with pytest.raises(ConfigError, match="layout of 20 points, but n_nodes is 5"):
            NodeField(FieldConfig(n_nodes=5), layout_of(points, 25.0), FJ)

    def test_kill_drops_the_node_from_the_schedule(self):
        field = make_field([(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)])
        field.modes = {0: NodeMode.MONITOR, 1: NodeMode.DETECT}
        field.kill(0)
        field.kill(2)
        assert field.modes == {1: NodeMode.DETECT} and field.common is NodeMode.SLEEP
        assert field.n_alive == 1 and field.alive == [False, True, False]
        field.kill(0)  # killing a dead node changes nothing
        assert field.modes == {1: NodeMode.DETECT} and field.n_alive == 1
        assert field.alive == [False, True, False]


def reference_deploy(config, initial_energy):
    """deploy() as a per-node loop that draws every position afresh: each
    node's (id, position, level, alive), the level `initial_energy` joules
    as whole fJ."""
    rng = random.Random(config.seed)
    nodes = []
    for i in range(config.n_nodes):
        pos = Point(rng.uniform(0.0, config.area_width),
                    rng.uniform(0.0, config.area_height))
        nodes.append((i, pos, fj(initial_energy), True))
    return nodes


def reference_cells(nodes, side):
    """Node ids binned by (floor(x / side), floor(y / side)), in field order."""
    cells = {}
    for i, pos, _, _ in nodes:
        key = (math.floor(pos.x / side), math.floor(pos.y / side))
        cells.setdefault(key, []).append(i)
    return cells


def entry_ids(cells):
    """A grid's cells as lists of the ids of their entries."""
    return {key: [i for i, _, _ in cell] for key, cell in cells.items()}


def node_state(nodes):
    """(id, position, level, alive) rows, as reference_deploy gives them, bit for bit."""
    return [(i, pos.x.hex(), pos.y.hex(), level, type(level), type(alive), alive)
            for i, pos, level, alive in nodes]


def field_state(field):
    """A field's columns as node_state rows."""
    return node_state((i, field.pos(i), level, alive)
                      for i, (level, alive) in enumerate(zip(field.level, field.alive)))


@st.composite
def field_configs(draw):
    r_s = draw(st.floats(0.5, 60.0))
    return FieldConfig(area_width=draw(st.floats(1.0, 1000.0)),
                       area_height=draw(st.floats(1.0, 1000.0)),
                       n_nodes=draw(st.integers(1, 80)), r_s=r_s,
                       r_c=r_s * draw(st.floats(2.0, 5.0)),
                       seed=draw(st.integers(0, 2**32)))


def layout_key(cfg):
    """What a field's positions and grid depend on: the layout cache's key."""
    return cfg.area_width, cfg.area_height, cfg.n_nodes, cfg.r_s, cfg.seed


class TestLayoutCache:
    @settings(max_examples=100, deadline=None)
    @given(field_configs(), field_configs(), st.floats(1e-3, 10.0))
    @example(FieldConfig(10.0, 10.0, 5, 1.0, 2.0, 3), FieldConfig(10.0, 10.0, 5, 1.0, 4.0, 3), 1.0)
    def test_deploy_equals_the_per_node_loop(self, a, b, energy):
        """A hit (a twice), an eviction (b, or a hit where b's key is a's) and a
        redraw (a again) all give the loop's nodes and grid."""
        _drawn_layout.cache_clear()
        for cfg in (a, a, b, a):
            field = deploy(cfg, energy)
            reference = reference_deploy(cfg, energy)
            assert field_state(field) == node_state(reference)
            assert ([(i, x.hex(), y.hex()) for i, x, y in field._entries]
                    == [(i, pos.x.hex(), pos.y.hex()) for i, pos, _, _ in reference])
            assert entry_ids(field._cells) == reference_cells(reference, cfg.r_s)
            assert all(e is field._entries[e[0]] for cell in field._cells.values() for e in cell)
            assert field.common is NodeMode.SLEEP and field.modes == {}
            assert field.n_alive == cfg.n_nodes
        info = _drawn_layout.cache_info()
        assert (info.hits, info.misses) == ((1, 3) if layout_key(a) != layout_key(b) else (3, 1))
        assert info.currsize == 1

    @settings(max_examples=60, deadline=None)
    @given(field_configs(), st.floats(2.0, 5.0), st.data())
    def test_configs_that_differ_only_in_r_c_share_one_layout(self, a, factor, data):
        """The cache key leaves r_c out, and each field still answers at its own r_c."""
        b = replace(a, r_c=a.r_s * factor)
        _drawn_layout.cache_clear()
        fa, fb = deploy(a), deploy(b)
        assert fa._entries is fb._entries and fa._cells is fb._cells
        assert fa._blocks is fb._blocks
        assert _drawn_layout.cache_info().misses == 1
        assert (fa.config.r_c, fb.config.r_c) == (a.r_c, b.r_c)
        i = data.draw(st.integers(0, a.n_nodes - 1))
        for field in (fa, fb):
            assert (neighbors_of(field, i).keys()
                    == scan(field, field.pos(i), field.config.r_c) - {i})

    def test_fields_of_one_config_share_nothing_mutable(self):
        """They share only the layout's points, entries, grid and blocks, which
        hold tuples and which no mutation of a field or its columns writes: a
        query adds a block of entries of all nodes, dead or alive."""
        cfg = FieldConfig(n_nodes=300, seed=3)
        one, two = deploy(cfg), deploy(cfg)
        untouched = field_state(two)
        grid = {key: list(cell) for key, cell in two._cells.items()}
        assert one.level is not two.level and one.alive is not two.alive
        assert one.modes is not two.modes
        one.common = NodeMode.DETECT
        one.modes.update({3: NodeMode.MONITOR, 4: NodeMode.MONITOR})
        one.kill(1)
        one.level[2] = fj(1.25)
        assert field_state(two) == untouched
        assert two.common is NodeMode.SLEEP and two.modes == {} and two.n_alive == 300
        rng = random.Random(11)
        for field in (one, two):
            assert field._cells is two._cells and field._entries is two._entries
            assert field._blocks is two._blocks
            for _ in range(100):
                p = Point(rng.uniform(-50, 550), rng.uniform(-50, 550))
                r = rng.choice((rng.uniform(0.0, 60.0), cfg.r_s))  # r_s reads blocks
                found = field.near(p, r)
                assert all(type(e) is tuple for e in found)
                assert ({i for i, x, y in found if math.hypot(x - p.x, y - p.y) <= r}
                        == {i for i in range(300) if distance(field.pos(i), p) <= r})
        assert {key: list(cell) for key, cell in one._cells.items()} == grid
        assert ([(one.pos(i).x, one.pos(i).y) for i in range(300)]
                == [(x, y) for _, x, y in one._entries])
        assert two._blocks and all(type(b) is tuple for b in two._blocks.values())


class TestDistance:
    def test_identity(self):
        assert distance(Point(0, 0), Point(0, 0)) == 0.0

    def test_pythagorean_triple(self):
        assert distance(Point(0, 0), Point(3, 4)) == 5.0

    def test_matches_sqrt_recomputation(self):
        rng = random.Random(123)
        for _ in range(1000):
            a = Point(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
            b = Point(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
            expected = math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2)
            assert distance(a, b) == pytest.approx(expected, rel=1e-12)
            assert distance(a, b) == distance(b, a)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Point(float("nan"), 0)


class TestDetectors:
    def test_inside(self):
        field = make_field([(100, 100)])
        assert detectors_of(field, Point(100, 124)) == {0}

    def test_boundary_inclusive(self):
        field = make_field([(100, 100)])
        assert detectors_of(field, Point(100, 125.0)) == {0}
        assert detectors_of(field, Point(100, 125.001)) == set()

    def test_dead_nodes_never_detect(self):
        field = make_field([(100, 100)])
        field.kill(0)
        assert detectors_of(field, Point(100, 100)) == set()

    def test_matches_exhaustive_scan(self):
        rng = random.Random(7)
        field = deploy(FieldConfig(seed=5))
        for i in range(250):
            if rng.random() < 0.1:
                field.kill(i)
        for _ in range(500):
            target = Point(rng.uniform(0, 500), rng.uniform(0, 500))
            expected = set()
            for i in range(250):  # independent inclusive-disk scan
                p = field.pos(i)
                if field.alive[i] and math.sqrt((p.x - target.x) ** 2
                                                + (p.y - target.y) ** 2) <= 25.0:
                    expected.add(i)
            assert detectors_of(field, target) == expected


class TestNeighbors:
    def test_mutual_in_range(self):
        field = make_field([(0, 0), (49, 0)])
        assert neighbors_of(field, 0) == {1: 49.0}
        assert neighbors_of(field, 1) == {0: 49.0}

    def test_isolated(self):
        field = make_field([(0, 0), (400, 400)])
        assert neighbors_of(field, 0) == {}

    def test_unknown_id(self):
        field = make_field([(0, 0)])
        with pytest.raises(KeyError):
            neighbors_of(field, 99)

    @pytest.mark.parametrize("nid", [2, -1])
    def test_id_outside_the_list(self, nid):
        # ids index the columns, but -1 must not reach the last node
        field = make_field([(0, 0), (10, 0)])
        for query in (field.pos, field.kill, lambda i: neighbors_of(field, 0, among=[i]),
                      lambda i: neighbors_of(field, 0, among=[1, i])):
            with pytest.raises(KeyError, match="unknown node id"):
                query(nid)
        assert field.alive == [True, True] and field.n_alive == 2

    def test_matches_pairwise_scan(self):
        field = deploy(FieldConfig(n_nodes=120, seed=11))
        field.kill(17)
        for nid in range(120):
            if not field.alive[nid]:
                continue
            me = field.pos(nid)
            expected = {i for i in range(120)
                        if field.alive[i] and i != nid
                        and math.hypot(field.pos(i).x - me.x, field.pos(i).y - me.y) <= 50.0}
            found = neighbors_of(field, nid)
            assert found.keys() == expected
            assert all(d == distance(field.pos(t), me) for t, d in found.items())


class TestKClosest:
    def test_simple_order(self):
        field = make_field([(0, 0), (3, 0), (10, 0)])
        assert k_closest(field, Point(1, 0), 2, {0, 1, 2}) == [0, 1]

    def test_tie_broken_by_id(self):
        # ids 5 and 2 equidistant from the query point
        positions = [(i * 60.0, 0.0) for i in range(6)]
        positions[5] = (10.0, 0.0)
        positions[2] = (-10.0, 0.0)
        field = make_field(positions, area=1000)
        assert k_closest(field, Point(0, 0), 2, {5, 2}) == [2, 5]

    def test_fewer_candidates_than_k(self):
        field = make_field([(0, 0), (5, 0)])
        assert k_closest(field, Point(0, 0), 5, {0, 1}) == [0, 1]

    def test_empty_candidates(self):
        field = make_field([(0, 0)])
        assert k_closest(field, Point(0, 0), 2, set()) == []

    def test_rejects_bad_k(self):
        field = make_field([(0, 0)])
        with pytest.raises(ValueError):
            k_closest(field, Point(0, 0), 0, {0})

    def test_matches_full_sort(self):
        rng = random.Random(99)
        field = deploy(FieldConfig(n_nodes=80, seed=3))
        ids = list(range(80))
        for _ in range(1000):
            p = Point(rng.uniform(0, 500), rng.uniform(0, 500))
            cands = set(rng.sample(ids, rng.randint(1, 30)))
            ranked = sorted(cands, key=lambda i: (math.hypot(
                field.pos(i).x - p.x, field.pos(i).y - p.y), i))
            assert k_closest(field, p, 2, cands) == ranked[:2]

    def test_stable_under_candidate_permutation(self):
        field = deploy(FieldConfig(n_nodes=40, seed=8))
        p = Point(250, 250)
        cands = list(range(40))
        base = k_closest(field, p, 2, cands)
        rng = random.Random(1)
        for _ in range(20):
            rng.shuffle(cands)
            assert k_closest(field, p, 2, cands) == base


def scan(field, p, r):
    """Linear-scan oracle: the range query as it reads without the grid index."""
    return {i for i, alive in enumerate(field.alive) if alive and distance(field.pos(i), p) <= r}


@st.composite
def fields_with_query(draw):
    """A small field, a query point that may lie outside it, and a wake radius.

    Besides uniform positions, nodes sit on the far edges and at exactly each
    query radius along the axes from the query point and from node 0, and one
    float further out, where a grid cell bound that rounded the wrong way
    would drop them. The query point may sit on a multiple of r_s, where the
    window within r_s is 4 cells wide and holds a node in its fourth column.
    """
    r_s = draw(st.sampled_from([1.0, 7.5, 25.0]) | st.floats(0.5, 60.0))
    r_c = r_s * draw(st.sampled_from([2.0, 3.0]) | st.floats(2.0, 12.0))
    w = r_s * draw(st.integers(1, 10) | st.floats(0.5, 10.0))
    h = r_s * draw(st.integers(1, 10) | st.floats(0.5, 10.0))

    def coord(hi):
        return (st.floats(0.0, hi) | st.sampled_from([0.0, hi])
                | st.integers(0, int(hi)).map(float))

    def multiple(hi):
        return st.integers(-1, math.ceil(hi / r_s) + 1).map(lambda k: k * r_s)

    q = Point(draw(st.floats(-w, 2 * w) | st.integers(int(-w), int(2 * w)).map(float)
                   | multiple(w)),
              draw(st.floats(-h, 2 * h) | st.integers(int(-h), int(2 * h)).map(float)
                   | multiple(h)))
    radius = draw(st.floats(0.0, r_s) | st.sampled_from([0.0, r_s]))
    positions = draw(st.lists(st.tuples(coord(w), coord(h)), min_size=1, max_size=60))
    positions += [(w, draw(coord(h))), (draw(coord(w)), h), (w, h)]
    x0, y0 = positions[0]
    for cx, cy, r in ((q.x, q.y, r_s), (q.x, q.y, radius + r_s), (x0, y0, r_c)):
        for x, y in ((cx + r, cy), (cx - r, cy), (cx, cy + r), (cx, cy - r)):
            positions += [(x, y), (math.nextafter(x, x - cx), math.nextafter(y, y - cy))]
    dead = draw(st.lists(st.booleans(), min_size=len(positions),
                         max_size=len(positions)))
    cfg = FieldConfig(area_width=w, area_height=h, n_nodes=len(positions),
                      r_s=r_s, r_c=r_c, seed=0)
    field = NodeField(cfg, layout_of([Point(x, y) for x, y in positions], r_s), FJ)
    for i, d in enumerate(dead):
        if d:
            field.kill(i)
    return field, q, radius


# hypot(-1.0000000000000002 - 1.0, 0) rounds to r_c = 2.0, so node 1 is a
# neighbour of node 0 although its x lies below 1.0 - r_c, in the cell left of
# the one holding that bound; the 40 filler nodes keep the query on the grid
# path rather than the all-nodes fallback
ROUNDED_IN = (make_field([(1.0, 0.0), (-1.0000000000000002, 0.0)] + [(0.5, 0.0)] * 40,
                         r_s=1.0, r_c=2.0, area=4.0),
              Point(1.0, 0.0), 0.5)


class TestGridMatchesLinearScan:
    @settings(max_examples=300, deadline=None)
    @example(ROUNDED_IN)
    @given(fields_with_query())
    def test_queries_equal_the_scan(self, case):
        field, q, radius = case
        r_s, r_c = field.config.r_s, field.config.r_c
        assert detectors_of(field, q) == scan(field, q, r_s)
        assert wake_set(field, PredictedRegion(q, radius)) == scan(field, q, radius + r_s)
        points = [field.pos(i) for i in range(field.config.n_nodes)]
        for i, alive in enumerate(field.alive):
            if alive:
                assert neighbors_of(field, i).keys() == scan(field, points[i], r_c) - {i}
        # the coverage test as harness.run writes it: dead nodes count too,
        # also in a field whose nodes all died before any query built a block
        covered = any(distance(p, q) <= r_s for p in points)
        dead = NodeField(field.config, layout_of(points, r_s), FJ)
        for i in range(len(points)):
            dead.kill(i)
        for f in (field, dead):
            found = f.near(q, r_s)
            assert all((x, y) == (f.pos(i).x, f.pos(i).y) for i, x, y in found)
            assert any(math.hypot(x - q.x, y - q.y) <= r_s for _, x, y in found) == covered
        assert detectors_of(dead, q) == set()

    @settings(max_examples=200, deadline=None)
    @given(fields_with_query(), st.data())
    def test_cached_blocks_equal_the_scan(self, case, data):
        """The queries within r_s that read cached 3x3-cell blocks, each run
        cold and then warm, on two fields of one config, with nodes killed
        between the rounds. Half a cell below and left of the query point,
        the window is 3x3 cells with the same lowest cell as the query
        point's own window, which is 4 cells wide when it sits on a
        multiple of r_s."""
        field, q, _ = case
        r_s = field.config.r_s
        n = field.config.n_nodes
        twin = NodeField(field.config, layout_of(map(field.pos, range(n)), r_s), FJ)
        for i, alive in enumerate(field.alive):
            if not alive:
                twin.kill(i)
        points = [Point(q.x - r_s / 2, q.y - r_s / 2), q, Point(q.x + r_s / 2, q.y),
                  Point(q.x, q.y - r_s)]
        ids = st.integers(0, n - 1)
        for f in (field, twin, field):
            for _ in range(2):
                for p in points:
                    assert detectors_of(f, p) == scan(f, p, r_s)
                    found = f.near(p, r_s)
                    assert (any(math.hypot(x - p.x, y - p.y) <= r_s for _, x, y in found)
                            == any(distance(f.pos(i), p) <= r_s for i in range(n)))
                for nid in data.draw(st.lists(ids, max_size=4)):
                    f.kill(nid)
        assert field._blocks is not twin._blocks

    @settings(max_examples=40, deadline=None)
    @given(field_configs(), st.data())
    def test_deployed_fields_read_blocks_of_all_nodes(self, cfg, data):
        """Two fields deployed from one config share its blocks: one loses
        nodes before either queries, on cell corners, half a cell inside them
        and anywhere in the field, cold and then warm; both still match their
        scans."""
        one, two = deploy(cfg), deploy(cfg)
        assert one._blocks is two._blocks
        r_s = cfg.r_s
        corner = st.builds(Point, st.integers(0, math.ceil(cfg.area_width / r_s)).map(
            lambda k: k * r_s), st.integers(0, math.ceil(cfg.area_height / r_s)).map(
            lambda k: k * r_s))
        points = data.draw(st.lists(corner | corner.map(
            lambda p: Point(p.x + r_s / 2, p.y + r_s / 2)) | st.builds(
            Point, st.floats(0.0, cfg.area_width), st.floats(0.0, cfg.area_height)),
            min_size=1, max_size=12))
        for nid in data.draw(st.sets(st.integers(0, cfg.n_nodes - 1), max_size=cfg.n_nodes)):
            one.kill(nid)
        for f in (one, two, one, two):
            for p in points:
                assert detectors_of(f, p) == scan(f, p, r_s)
                assert ({i for i, x, y in f.near(p, r_s) if math.hypot(x - p.x, y - p.y) <= r_s}
                        == {i for i in range(cfg.n_nodes) if distance(f.pos(i), p) <= r_s})

    @settings(max_examples=150, deadline=None)
    @given(fields_with_query(), st.data())
    def test_neighbors_among_a_subset_equal_the_scan(self, case, data):
        field, _, _ = case
        r_c = field.config.r_c
        among = data.draw(st.sets(st.sampled_from(range(field.config.n_nodes))))
        for i, alive in enumerate(field.alive):
            if alive:
                assert (neighbors_of(field, i, among=among).keys()
                        == (scan(field, field.pos(i), r_c) - {i}) & among)


class TestEntryGrid:
    @settings(max_examples=60, deadline=None)
    @given(field_configs())
    def test_deployed_fields_hold_the_layout_grid(self, cfg):
        """Every field of a config holds the layout's entries and grid
        themselves, made of tuples only, equal to what layout_of bins over
        the same points."""
        fields = [deploy(cfg) for _ in range(3)]
        points, entries, grid, blocks, side = _layout(cfg)
        assert side == cfg.r_s
        assert all(f._entries is entries and f._cells is grid and f._blocks is blocks
                   for f in fields)
        assert type(entries) is tuple and all(type(e) is tuple for e in entries)
        assert all(type(key) is tuple and type(cell) is tuple
                   and all(type(e) is tuple for e in cell) for key, cell in grid.items())
        direct = layout_of([pos for _, pos, _, _ in reference_deploy(cfg, 1.0)], cfg.r_s)
        assert direct.points == points and direct.entries == entries
        assert direct.cells == grid and list(direct.cells) == list(grid)

    @settings(max_examples=60, deadline=None)
    @given(field_configs(), st.data())
    def test_deployed_state_equals_a_scan(self, cfg, data):
        """deploy() sets `n_alive` without scanning; after deaths it equals
        the scan, and the schedule's map holds only the alive nodes."""
        field = deploy(cfg)
        ids = st.integers(0, cfg.n_nodes - 1)
        scheduled = data.draw(st.lists(ids, max_size=5))
        field.modes = dict.fromkeys(scheduled, NodeMode.MONITOR)
        for nid in data.draw(st.lists(ids, max_size=3)):
            field.kill(nid)
        assert set(field.modes) == {nid for nid in scheduled if field.alive[nid]}
        assert field.n_alive == sum(field.alive)

    @settings(max_examples=100, deadline=None)
    @given(field_configs())
    def test_layout_points_equal_checked_points(self, cfg):
        points, entries, *_ = _layout(cfg)
        for p, (_, x, y) in zip(points, entries):
            q = Point(x, y)
            assert type(p) is Point and (p.x, p.y) == (x, y)
            assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
        with pytest.raises(FrozenInstanceError):
            points[0].x = 0.0

    @settings(max_examples=150, deadline=None)
    @given(fields_with_query(), st.data())
    def test_neighbor_distances_equal_distance_bit_for_bit(self, case, data):
        field, _, _ = case
        among = data.draw(st.sets(st.sampled_from(range(field.config.n_nodes))))
        for i, alive in enumerate(field.alive):
            if alive:
                for pool in (None, among):
                    for t, d in neighbors_of(field, i, among=pool).items():
                        assert d.hex() == distance(field.pos(t), field.pos(i)).hex()

"""Field geometry, deployment, and range-query tests against brute-force oracles."""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from wsn_track_sim import (ConfigError, FieldConfig, NodeField, NodeMode,
                           Point, SensorNode, deploy, detectors_of, distance,
                           k_closest, neighbors_of)
from wsn_track_sim.field import _layout
from wsn_track_sim.protocol import PredictedRegion, wake_set


def make_field(positions, r_s=25.0, r_c=50.0, area=500.0, energy=5.0):
    cfg = FieldConfig(area_width=area, area_height=area,
                      n_nodes=len(positions), r_s=r_s, r_c=r_c, seed=0)
    nodes = [SensorNode(id=i, pos=Point(x, y), remaining_energy=energy)
             for i, (x, y) in enumerate(positions)]
    return NodeField(nodes, cfg)


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
        assert len(field) == 250
        for n in field:
            assert 0 <= n.pos.x <= 500 and 0 <= n.pos.y <= 500
            assert n.mode is NodeMode.SLEEP
            assert n.remaining_energy == 5.0
            assert n.alive
        assert [n.id for n in field] == list(range(250))

    def test_single_node(self):
        field = deploy(FieldConfig(n_nodes=1, seed=0))
        assert len(field) == 1 and field.nodes[0].id == 0

    def test_same_seed_reproduces(self):
        a = deploy(FieldConfig(seed=42))
        b = deploy(FieldConfig(seed=42))
        assert [(n.pos.x, n.pos.y) for n in a] == [(n.pos.x, n.pos.y) for n in b]

    def test_different_seed_differs(self):
        a = deploy(FieldConfig(seed=1))
        b = deploy(FieldConfig(seed=2))
        assert any(x.pos != y.pos for x, y in zip(a, b))


def reference_deploy(config, initial_energy):
    """deploy() as a per-node loop that draws every position afresh."""
    rng = random.Random(config.seed)
    nodes = []
    for i in range(config.n_nodes):
        pos = Point(rng.uniform(0.0, config.area_width),
                    rng.uniform(0.0, config.area_height))
        nodes.append(SensorNode(id=i, pos=pos, mode=NodeMode.SLEEP,
                                remaining_energy=initial_energy, alive=True))
    return nodes


def reference_cells(nodes, side):
    """Node ids binned by (floor(x / side), floor(y / side)), in field order."""
    cells = {}
    for n in nodes:
        key = (math.floor(n.pos.x / side), math.floor(n.pos.y / side))
        cells.setdefault(key, []).append(n.id)
    return cells


def node_state(nodes):
    return [(n.id, n.pos.x.hex(), n.pos.y.hex(), n.mode, n.remaining_energy.hex(), n.alive)
            for n in nodes]


@st.composite
def field_configs(draw):
    r_s = draw(st.floats(0.5, 60.0))
    return FieldConfig(area_width=draw(st.floats(1.0, 1000.0)),
                       area_height=draw(st.floats(1.0, 1000.0)),
                       n_nodes=draw(st.integers(1, 80)), r_s=r_s,
                       r_c=r_s * draw(st.floats(2.0, 5.0)),
                       seed=draw(st.integers(0, 2**32)))


class TestLayoutCache:
    @settings(max_examples=100, deadline=None)
    @given(field_configs(), field_configs(), st.floats(1e-3, 10.0))
    def test_deploy_equals_the_per_node_loop(self, a, b, energy):
        """A hit (a twice), an eviction (b) and a redraw (a again) all give the
        loop's nodes and grid."""
        _layout.cache_clear()
        for cfg in (a, a, b, a):
            field = deploy(cfg, energy)
            reference = reference_deploy(cfg, energy)
            assert node_state(field) == node_state(reference)
            assert ({key: [n.id for n in cell] for key, cell in field._cells.items()}
                    == reference_cells(reference, cfg.r_s))
            assert field.awake == set() and field.n_alive == cfg.n_nodes
        info = _layout.cache_info()
        assert (info.hits, info.misses) == ((1, 3) if a != b else (3, 1))
        assert info.currsize == 1

    def test_fields_of_one_config_share_nothing_mutable(self):
        cfg = FieldConfig(n_nodes=300, seed=3)
        one, two = deploy(cfg), deploy(cfg)
        untouched = node_state(two)
        one.set_mode(one.nodes[0], NodeMode.DETECT)
        one.set_modes([3, 4], NodeMode.MONITOR)
        one.kill(one.nodes[1])
        one.nodes[2].remaining_energy = 1.25
        assert node_state(two) == untouched
        assert two.awake == set() and two.n_alive == 300
        rng = random.Random(11)
        for field in (one, two):
            own = {id(n) for n in field.nodes}
            for _ in range(100):
                p = Point(rng.uniform(-50, 550), rng.uniform(-50, 550))
                r = rng.uniform(0.0, 60.0)
                found = field.near(p, r)
                assert all(id(n) in own for n in found)
                assert ({n.id for n in found if distance(n.pos, p) <= r}
                        == {n.id for n in field.nodes if distance(n.pos, p) <= r})


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
        field.nodes[0].alive = False
        assert detectors_of(field, Point(100, 100)) == set()

    def test_matches_exhaustive_scan(self):
        rng = random.Random(7)
        field = deploy(FieldConfig(seed=5))
        for n in field:
            if rng.random() < 0.1:
                n.alive = False
        for _ in range(500):
            target = Point(rng.uniform(0, 500), rng.uniform(0, 500))
            expected = set()
            for n in field.nodes:  # independent inclusive-disk scan
                if n.alive and math.sqrt((n.pos.x - target.x) ** 2
                                         + (n.pos.y - target.y) ** 2) <= 25.0:
                    expected.add(n.id)
            assert detectors_of(field, target) == expected


class TestNeighbors:
    def test_mutual_in_range(self):
        field = make_field([(0, 0), (49, 0)])
        assert neighbors_of(field, 0) == {1}
        assert neighbors_of(field, 1) == {0}

    def test_isolated(self):
        field = make_field([(0, 0), (400, 400)])
        assert neighbors_of(field, 0) == set()

    def test_unknown_id(self):
        field = make_field([(0, 0)])
        with pytest.raises(KeyError):
            neighbors_of(field, 99)

    def test_matches_pairwise_scan(self):
        field = deploy(FieldConfig(n_nodes=120, seed=11))
        field.nodes[17].alive = False
        for nid in range(120):
            if not field.nodes[nid].alive:
                continue
            me = field.nodes[nid].pos
            expected = {n.id for n in field.nodes
                        if n.alive and n.id != nid
                        and math.hypot(n.pos.x - me.x, n.pos.y - me.y) <= 50.0}
            assert neighbors_of(field, nid) == expected


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
        ids = [n.id for n in field]
        for _ in range(1000):
            p = Point(rng.uniform(0, 500), rng.uniform(0, 500))
            cands = set(rng.sample(ids, rng.randint(1, 30)))
            ranked = sorted(cands, key=lambda i: (math.hypot(
                field.node(i).pos.x - p.x, field.node(i).pos.y - p.y), i))
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
    return {n.id for n in field.nodes if n.alive and distance(n.pos, p) <= r}


@st.composite
def fields_with_query(draw):
    """A small field, a query point that may lie outside it, and a wake radius.

    Besides uniform positions, nodes sit on the far edges and at exactly each
    query radius along the axes from the query point and from node 0, and one
    float further out, where a grid cell bound that rounded the wrong way
    would drop them.
    """
    r_s = draw(st.sampled_from([1.0, 7.5, 25.0]) | st.floats(0.5, 60.0))
    r_c = r_s * draw(st.sampled_from([2.0, 3.0]) | st.floats(2.0, 12.0))
    w = r_s * draw(st.integers(1, 10) | st.floats(0.5, 10.0))
    h = r_s * draw(st.integers(1, 10) | st.floats(0.5, 10.0))

    def coord(hi):
        return (st.floats(0.0, hi) | st.sampled_from([0.0, hi])
                | st.integers(0, int(hi)).map(float))

    q = Point(draw(st.floats(-w, 2 * w) | st.integers(int(-w), int(2 * w)).map(float)),
              draw(st.floats(-h, 2 * h) | st.integers(int(-h), int(2 * h)).map(float)))
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
    field = NodeField([SensorNode(id=i, pos=Point(x, y), remaining_energy=1.0,
                                  alive=not d)
                       for i, ((x, y), d) in enumerate(zip(positions, dead))], cfg)
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
        for n in field.nodes:
            if n.alive:
                assert neighbors_of(field, n.id) == scan(field, n.pos, r_c) - {n.id}
        # the coverage test as harness.run writes it: dead nodes count too,
        # also in a field whose nodes were all dead before its grid was built
        covered = any(distance(n.pos, q) <= r_s for n in field.nodes)
        dead = NodeField([SensorNode(id=n.id, pos=n.pos, alive=False)
                          for n in field.nodes], field.config)
        for f in (field, dead):
            assert any(distance(n.pos, q) <= r_s for n in f.near(q, r_s)) == covered
        assert detectors_of(dead, q) == set()

    @settings(max_examples=150, deadline=None)
    @given(fields_with_query(), st.data())
    def test_neighbors_among_a_subset_equal_the_scan(self, case, data):
        field, _, _ = case
        r_c = field.config.r_c
        among = data.draw(st.sets(st.sampled_from([n.id for n in field.nodes])))
        for n in field.nodes:
            if n.alive:
                assert (neighbors_of(field, n.id, among=among)
                        == (scan(field, n.pos, r_c) - {n.id}) & among)

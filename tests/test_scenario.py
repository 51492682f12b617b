"""Configuration assembly, file parsing, seed substreams, digests."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from wsn_track_sim import (ConfigError, FieldConfig, MobilityConfig, ModeCosts,
                           Point, RadioModel, ScenarioConfig, SlotConfig,
                           build_scenario, config_digest, default_scenario)
from wsn_track_sim.scenario import (_KEY_TABLE, METHODS, derive_seed, mac_seed,
                                    parse_config_text, resolved_items, with_seed)

SAMPLE = """
# comment line
field.n_nodes = 100
field.r_c = 55

slot.data_rate = 16000000
run.method = baseline
run.seed = 9
"""


class TestParsing:
    def test_sample_values(self):
        values = parse_config_text(SAMPLE)
        assert values["field.n_nodes"] == "100"
        assert values["run.method"] == "baseline"

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("field.bogus = 3")

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config_text("field.n_nodes 100")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError):
            build_scenario({"field.n_nodes": "many"})

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ConfigError, match=r"line 3: 'field.r_c' .* line 1"):
            parse_config_text("field.r_c = 50\nfield.n_nodes = 100\nfield.r_c = 60")


class TestBuild:
    def test_defaults(self):
        cfg = default_scenario()
        assert cfg.field.n_nodes == 250
        assert cfg.field.r_s == 25.0 and cfg.field.r_c == 50.0
        assert cfg.mode_costs.initial_energy == 5.0
        assert cfg.slots.data_packet_bits == 512
        assert cfg.slots.control_packet_bits == 32
        assert cfg.max_slots == 500

    @pytest.mark.parametrize("seed, method, max_slots",
                             [(0, "proposed", 500), (3, "baseline", 20), (17, "proposed", 1)])
    def test_default_is_the_empty_config_file(self, seed, method, max_slots):
        """default_scenario equals build_scenario with no file values, and both
        equal the scenario assembled from each config's defaults."""
        cfg = default_scenario(seed=seed, method=method, max_slots=max_slots)
        built = build_scenario(method=method, seed=seed, max_slots=max_slots)
        assembled = with_seed(ScenarioConfig(
            field=FieldConfig(), mobility=MobilityConfig(), slots=SlotConfig(),
            radio=RadioModel(), mode_costs=ModeCosts(), method=method,
            max_slots=max_slots, seed=seed), seed)
        assert cfg == built == assembled
        assert config_digest(cfg) == config_digest(built) == config_digest(assembled)

    def test_file_values_applied(self):
        cfg = build_scenario(parse_config_text(SAMPLE))
        assert cfg.field.n_nodes == 100
        assert cfg.field.r_c == 55.0
        assert cfg.slots.data_rate == 16_000_000.0
        assert cfg.method == "baseline"
        assert cfg.seed == 9

    def test_cli_overrides_beat_file(self):
        cfg = build_scenario(parse_config_text(SAMPLE), method="proposed",
                             seed=3, max_slots=42)
        assert cfg.method == "proposed"
        assert cfg.seed == 3 and cfg.max_slots == 42

    def test_invalid_combination_rejected(self):
        with pytest.raises(ConfigError):
            build_scenario({"field.r_c": "30"})  # violates r_c >= 2*r_s
        with pytest.raises(ConfigError):
            build_scenario({"mobility.v_max": "40"})  # violates v <= r_s/T
        with pytest.raises(ConfigError):
            build_scenario({"run.max_slots": "0"})
        with pytest.raises(ConfigError):
            build_scenario({"run.method": "magic"})

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 0.0, -1.5])
    def test_alpha_must_be_finite_and_positive(self, alpha):
        # a NaN alpha used to build and then fail in the first tracked slot
        with pytest.raises(ConfigError, match="alpha"):
            replace(default_scenario(max_slots=20), alpha=alpha)

    def test_entry_point_parsing(self):
        cfg = build_scenario({"mobility.entry": "0,250"})
        assert cfg.mobility.entry_point.x == 0.0
        assert cfg.mobility.entry_point.y == 250.0
        cfg2 = build_scenario({"mobility.entry": "random-edge"})
        assert cfg2.mobility.entry_point is None

    def test_slot_duration_propagates_to_mobility(self):
        cfg = build_scenario({"slot.duration": "2.0", "mobility.v_max": "10"})
        assert cfg.mobility.slot_duration == 2.0
        assert cfg.slots.slot_duration == 2.0


class TestSeeding:
    def test_substreams_differ(self):
        assert derive_seed(0, "field") != derive_seed(0, "mobility")
        assert derive_seed(0, "field") != derive_seed(1, "field")

    def test_with_seed_rekeys_everything(self):
        a = with_seed(default_scenario(), 1)
        b = with_seed(default_scenario(), 2)
        assert a.field.seed != b.field.seed
        assert a.mobility.seed != b.mobility.seed
        assert mac_seed(a) != mac_seed(b)

    def test_with_seed_deterministic(self):
        assert with_seed(default_scenario(), 5) == with_seed(default_scenario(), 5)


class TestDigest:
    def test_stable(self):
        cfg = default_scenario(seed=4)
        assert config_digest(cfg) == config_digest(cfg)
        assert len(config_digest(cfg)) == 12

    def test_sensitive_to_values(self):
        a = default_scenario(seed=4)
        b = build_scenario({"field.r_c": "55"}, seed=4)
        assert config_digest(a) != config_digest(b)

    def test_prng_recorded(self):
        keys = dict(resolved_items(default_scenario()))
        assert keys["prng"] == "mt19937"


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def valid_scenarios(draw):
    """Scenarios that pass every config invariant, built without the file path."""
    r_s = draw(floats(0.5, 100.0))
    field = FieldConfig(area_width=draw(floats(1.0, 1e4)), area_height=draw(floats(1.0, 1e4)),
                        n_nodes=draw(st.integers(1, 5000)), r_s=r_s,
                        r_c=r_s * draw(st.just(2.0) | floats(2.0, 6.0)))
    duration = draw(st.just(1.0) | floats(0.1, 10.0))
    v_max = r_s / duration * draw(st.just(1.0) | floats(0.01, 1.0))
    entry = draw(st.none() | st.builds(Point, floats(0.0, field.area_width),
                                       floats(0.0, field.area_height)))
    mobility = MobilityConfig(v_min=v_max * draw(floats(0.01, 1.0)), v_max=v_max,
                              slot_duration=duration, entry_point=entry)
    slots = SlotConfig(slot_duration=duration, data_packet_bits=draw(st.integers(1, 4096)),
                       control_packet_bits=draw(st.integers(1, 512)),
                       data_rate=draw(floats(1e5, 1e8)), p_persist=draw(floats(0.01, 1.0)),
                       max_retries=draw(st.integers(0, 10)), ack_enabled=draw(st.booleans()),
                       crc_enabled=draw(st.booleans()), crc_bits=draw(st.integers(0, 64)),
                       sense_fraction=draw(floats(0.0, 0.5)))
    radio = RadioModel(*(draw(floats(0.0, 1e-6)) for _ in range(4)))
    sleep, sense, comm = sorted(draw(floats(0.0, 0.1)) for _ in range(3))
    costs = ModeCosts(sleep, sense, comm, initial_energy=draw(floats(1e-3, 100.0)),
                      wake_cost=draw(floats(0.0, 0.01)))
    cfg = ScenarioConfig(field=field, mobility=mobility, slots=slots, radio=radio,
                         mode_costs=costs, method=draw(st.sampled_from(METHODS)),
                         max_slots=draw(st.integers(1, 10_000)),
                         alpha=draw(floats(0.01, 10.0)),
                         radius_floor_frac=draw(floats(1e-3, 1.0)),
                         seed=draw(st.integers(0, 2**63)),
                         bench_packets=draw(st.integers(1, 10_000)),
                         bench_background_senders=draw(st.integers(0, 10)))
    return with_seed(cfg, cfg.seed)


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(valid_scenarios())
    def test_resolved_items_rebuild_the_scenario(self, cfg):
        items = resolved_items(cfg)
        assert {k for k, _ in items} == set(_KEY_TABLE) | {"prng"}
        text = "\n".join(f"{k} = {v}" for k, v in items if k != "prng")
        rebuilt = build_scenario(parse_config_text(text))
        assert config_digest(rebuilt) == config_digest(cfg)
        assert rebuilt == cfg

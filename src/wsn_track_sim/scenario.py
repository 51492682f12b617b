"""Scenario assembly: defaults, flat config files, seed substreams, digests.

Config files are flat UTF-8 ``key = value`` text with dotted keys; CLI flags
override file values. Every run embeds a short digest of the fully resolved
configuration (including the PRNG identity) so a report row can be traced
back to the exact inputs that produced it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

from .energy import ModeCosts, RadioModel
from .errors import ConfigError
from .field import FieldConfig, Point
from .mac import SlotConfig
from .mobility import MobilityConfig, validate_mobility

PRNG_NAME = "mt19937"  # python random.Random; substream seeds derived via sha256

METHODS = ("proposed", "baseline")


def derive_seed(master: int, label: str) -> int:
    """Stable 64-bit substream seed for (master seed, purpose label)."""
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class ScenarioConfig:
    field: FieldConfig
    mobility: MobilityConfig
    slots: SlotConfig
    radio: RadioModel
    mode_costs: ModeCosts
    method: str = "proposed"
    max_slots: int = 500
    alpha: float = 1.5             # prediction radius multiplier
    radius_floor_frac: float = 0.1
    seed: int = 0
    bench_packets: int = 3000
    bench_background_senders: int = 3

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.max_slots < 1:
            raise ConfigError("max_slots must be >= 1")
        if not 0 < self.alpha < math.inf:  # also rejects NaN
            raise ConfigError("alpha must be finite and positive")
        if not (0 < self.radius_floor_frac <= 1):
            raise ConfigError("radius floor fraction must lie in (0, 1]")
        if self.bench_packets < 1 or self.bench_background_senders < 0:
            raise ConfigError("bench parameters out of range")
        if self.mobility.slot_duration != self.slots.slot_duration:
            raise ConfigError("mobility and MAC slot durations must agree")
        validate_mobility(self.mobility, self.field)


def default_scenario(seed: int = 0, method: str = "proposed",
                     max_slots: int = 500) -> ScenarioConfig:
    cfg = ScenarioConfig(field=FieldConfig(), mobility=MobilityConfig(),
                         slots=SlotConfig(), radio=RadioModel(),
                         mode_costs=ModeCosts(), method=method,
                         max_slots=max_slots, seed=seed)
    return with_seed(cfg, seed)


def with_seed(cfg: ScenarioConfig, seed: int) -> ScenarioConfig:
    """Re-key every random substream of a scenario from one master seed."""
    return replace(cfg,
                   seed=seed,
                   field=replace(cfg.field, seed=derive_seed(seed, "field")),
                   mobility=replace(cfg.mobility, seed=derive_seed(seed, "mobility")))


def mac_seed(cfg: ScenarioConfig) -> int:
    return derive_seed(cfg.seed, f"mac:{cfg.method}")


# -- flat key = value files --------------------------------------------------

def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def parse_finite(raw: str) -> float:
    """A float that is neither NaN nor infinite."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_entry(raw: str):
    if raw.strip().lower() in ("random-edge", "random_edge"):
        return None
    parts = raw.split(",")
    if len(parts) != 2:
        raise ConfigError(f"entry point must be 'random-edge' or 'x,y', got {raw!r}")
    return Point(parse_finite(parts[0]), parse_finite(parts[1]))


# key -> (section: the ScenarioConfig attribute, None for the scenario itself;
#         field name; parser)
_KEY_TABLE = {
    "field.area_width": ("field", "area_width", parse_finite),
    "field.area_height": ("field", "area_height", parse_finite),
    "field.n_nodes": ("field", "n_nodes", int),
    "field.r_s": ("field", "r_s", parse_finite),
    "field.r_c": ("field", "r_c", parse_finite),
    "mobility.v_min": ("mobility", "v_min", parse_finite),
    "mobility.v_max": ("mobility", "v_max", parse_finite),
    "mobility.entry": ("mobility", "entry_point", _parse_entry),
    "slot.duration": ("slots", "slot_duration", parse_finite),
    "slot.data_packet_bits": ("slots", "data_packet_bits", int),
    "slot.control_packet_bits": ("slots", "control_packet_bits", int),
    "slot.data_rate": ("slots", "data_rate", parse_finite),
    "slot.p_persist": ("slots", "p_persist", parse_finite),
    "slot.max_retries": ("slots", "max_retries", int),
    "slot.ack_enabled": ("slots", "ack_enabled", _parse_bool),
    "slot.crc_enabled": ("slots", "crc_enabled", _parse_bool),
    "slot.crc_bits": ("slots", "crc_bits", int),
    "slot.sense_fraction": ("slots", "sense_fraction", parse_finite),
    "radio.e_elect": ("radio", "e_elect", parse_finite),
    "radio.e_amp": ("radio", "e_amp", parse_finite),
    "radio.e_tx_fixed": ("radio", "e_tx_fixed", parse_finite),
    "radio.e_rx_fixed": ("radio", "e_rx_fixed", parse_finite),
    "energy.sleep_per_slot": ("mode_costs", "sleep_per_slot", parse_finite),
    "energy.sense_per_slot": ("mode_costs", "sense_per_slot", parse_finite),
    "energy.comm_per_slot": ("mode_costs", "comm_per_slot", parse_finite),
    "energy.initial": ("mode_costs", "initial_energy", parse_finite),
    "energy.wake_cost": ("mode_costs", "wake_cost", parse_finite),
    "protocol.alpha": (None, "alpha", parse_finite),
    "protocol.radius_floor_frac": (None, "radius_floor_frac", parse_finite),
    "bench.packets": (None, "bench_packets", int),
    "bench.background_senders": (None, "bench_background_senders", int),
    "run.method": (None, "method", str),
    "run.max_slots": (None, "max_slots", int),
    "run.seed": (None, "seed", int),
}


def parse_config_text(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEY_TABLE:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in lines:
            raise ConfigError(f"line {lineno}: {key!r} is already set on line {lines[key]}")
        values[key], lines[key] = value.strip(), lineno
    return values


def load_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def build_scenario(values: dict[str, str] | None = None, *,
                   method: str | None = None, seed: int | None = None,
                   max_slots: int | None = None) -> ScenarioConfig:
    """Assemble a ScenarioConfig from file values plus explicit overrides."""
    sections: dict[str | None, dict] = {sec: {} for sec, _, _ in _KEY_TABLE.values()}
    for key, raw in (values or {}).items():
        section, name, parse = _KEY_TABLE[key]
        try:
            sections[section][name] = parse(raw)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None

    scen = sections[None]
    if method is not None:
        scen["method"] = method
    if seed is not None:
        scen["seed"] = seed
    if max_slots is not None:
        scen["max_slots"] = max_slots

    duration = sections["slots"].get("slot_duration", 1.0)
    cfg = ScenarioConfig(
        field=FieldConfig(**sections["field"]),
        mobility=MobilityConfig(slot_duration=duration, **sections["mobility"]),
        slots=SlotConfig(**sections["slots"]),
        radio=RadioModel(**sections["radio"]),
        mode_costs=ModeCosts(**sections["mode_costs"]),
        **scen,
    )
    return with_seed(cfg, cfg.seed)


def resolved_items(cfg: ScenarioConfig) -> list[tuple[str, str]]:
    """Canonical (key, value) lines for the fully resolved configuration."""
    items = [("prng", PRNG_NAME)]
    for key, (section, name, _) in _KEY_TABLE.items():
        value = getattr(cfg if section is None else getattr(cfg, section), name)
        if key == "mobility.entry":
            value = "random-edge" if value is None else f"{value.x},{value.y}"
        items.append((key, str(value)))
    return sorted(items)


def config_digest(cfg: ScenarioConfig) -> str:
    text = "\n".join(f"{k} = {v}" for k, v in resolved_items(cfg))
    return hashlib.sha256(text.encode()).hexdigest()[:12]

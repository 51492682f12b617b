"""Slotted simulator for prediction-based target tracking in sensor fields."""

from .energy import (EnergyLedger, MetricCounters, ModeCosts, RadioModel,
                     delay, pdr, rx_energy, settle_slot, throughput, tx_energy)
from .errors import ConfigError, MacError, StateError
from .field import (FieldConfig, NodeField, NodeMode, Point, deploy, detectors_of,
                    distance, k_closest, layout_of, neighbors_of)
from .harness import RunReport, bench_run, emit_csv, paired_runs, run, sweep
from .mac import (Frame, FrameKind, MacService, SlotConfig, SlotOutcome,
                  drain_queue, transmit)
from .mobility import (MobilityConfig, TargetState, TraceRow, generate_trace,
                       observed_speed, read_trace, spawn_target, write_trace)
from .protocol import (ClosestPair, Episode, PredictedRegion, TrackerState,
                       elect_representative, estimate_position,
                       predicted_region, tracking_step, wake_set)
from .scenario import (ScenarioConfig, build_scenario, config_digest,
                       default_scenario, load_config_file, with_seed)

__version__ = "0.1.0"

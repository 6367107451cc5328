"""Deterministic electro-thermal model of an EV traction battery and charger.

A 2RC equivalent-circuit cell model, a lumped pack thermal model with liquid
cooling, superposed calendar/cycle aging with rainflow cycle counting, an
IEC 61851-1 style charge controller with measured ramp dynamics and
efficiency, and a fixed-timestep engine that couples them under a pluggable
charge strategy and scales the cell 93 in series to the pack.
"""

from .aging import AgingState, EolStatus, eol_check
from .bms import BmsLimits, gate_current, usable_capacity
from .charger import ChargerConfig, ChargerMode, quantize_setpoint
from .ecm import EcmState, operating_point, rest_voltage, step_ecm
from .engine import (
    StrategyObservation,
    Trajectory,
    ValidationMetrics,
    compute_metrics,
    emit_report,
    run_scenario,
)
from .params import (
    CellParameterSet,
    ParamGrid,
    default_data_dir,
    load_parameter_set,
    validate_parameter_set,
)
from .scenario import ScenarioConfig, ScenarioProfile, SegmentKind, load_config
from .thermal import ThermalMode, ThermalParams, step_thermal

__version__ = "0.1.0"

__all__ = [
    "AgingState",
    "BmsLimits",
    "CellParameterSet",
    "ChargerConfig",
    "ChargerMode",
    "EcmState",
    "EolStatus",
    "ParamGrid",
    "ScenarioConfig",
    "ScenarioProfile",
    "SegmentKind",
    "StrategyObservation",
    "ThermalMode",
    "ThermalParams",
    "Trajectory",
    "ValidationMetrics",
    "compute_metrics",
    "default_data_dir",
    "emit_report",
    "eol_check",
    "gate_current",
    "load_config",
    "load_parameter_set",
    "operating_point",
    "quantize_setpoint",
    "rest_voltage",
    "run_scenario",
    "step_ecm",
    "step_thermal",
    "usable_capacity",
    "validate_parameter_set",
    "__version__",
]

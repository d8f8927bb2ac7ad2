"""The package's public surface: its exports and what every module's `__all__` names."""

import dataclasses
import importlib
import pkgutil
import types

import mpode
from mpode.integrate import Trajectory

EXPORTS = [
    "BFLOAT16", "BackwardTrace", "ErrorRow", "ExhaustedRescale", "ExperimentConfig",
    "FLOAT16", "FLOAT32", "FLOAT64", "FORMATS", "FloatFormat", "Gradients", "LinearField",
    "MlpField", "NonFiniteAccumulator", "NonFiniteState", "Objective", "Params",
    "PolyDecayField", "RangeMonitor", "RunningCost", "ScalingPolicy", "Scheme", "TimeGrid",
    "Trajectory", "VelocityField", "analytic_gradient", "analytic_solution", "backward",
    "decay_benchmark", "fd_gradient", "format_float", "forward", "get_format",
    "objective_value", "quantize", "run_sgd_demo", "run_solve", "run_sweep", "run_table",
    "sgd_step",
]


def test_package_exports_each_object_once():
    assert mpode.__all__ == EXPORTS
    assert len(set(mpode.__all__)) == len(mpode.__all__)
    assert not [n for n in mpode.__all__ if isinstance(getattr(mpode, n), types.ModuleType)]


def test_every_module_all_entry_resolves():
    for info in pkgutil.iter_modules(mpode.__path__):
        module = importlib.import_module(f"mpode.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], info.name


def test_trajectory_fields():
    assert [f.name for f in dataclasses.fields(Trajectory)] == ["grid", "states", "final_hp"]

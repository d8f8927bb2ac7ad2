"""Mixed-precision explicit ODE solvers with a dynamically scaled adjoint.

The forward pass integrates with low-precision field evaluations and a
high-precision state accumulator; the backward pass recomputes increments
step by step and keeps the adjoint in range with a per-step power-of-two
scale factor.  All narrow arithmetic is software-emulated and bit-exact.
"""
from types import ModuleType as _ModuleType

from .adjoint import (
    BackwardTrace,
    ExhaustedRescale,
    Gradients,
    NonFiniteAccumulator,
    Objective,
    RunningCost,
    ScalingPolicy,
    backward,
    objective_value,
    sgd_step,
)
from .dynamics import LinearField, MlpField, Params, PolyDecayField, VelocityField
from .integrate import NonFiniteState, Scheme, TimeGrid, Trajectory, format_float, forward
from .oracles import analytic_gradient, analytic_solution, fd_gradient
from .precision import (
    BFLOAT16,
    FLOAT16,
    FLOAT32,
    FLOAT64,
    FORMATS,
    FloatFormat,
    RangeMonitor,
    get_format,
    quantize,
)
from .runners import (
    ErrorRow,
    ExperimentConfig,
    decay_benchmark,
    run_sgd_demo,
    run_solve,
    run_sweep,
    run_table,
)

# Every public name imported above, sorted; the submodules are not exports.
__all__ = sorted(
    name for name, obj in globals().items()
    if not name.startswith("_") and not isinstance(obj, _ModuleType)
)

__version__ = "0.1.0"

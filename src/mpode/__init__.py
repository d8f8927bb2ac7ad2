"""Mixed-precision explicit ODE solvers with a dynamically scaled adjoint.

The forward pass integrates with low-precision field evaluations and a
high-precision state accumulator; the backward pass recomputes increments
step by step and keeps the adjoint in range with a per-step power-of-two
scale factor.  All narrow arithmetic is software-emulated and bit-exact.
"""
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
from .dynamics import (
    LinearField,
    MlpField,
    Params,
    PolyDecayField,
    VelocityField,
    load_weights,
    save_weights,
)
from .integrate import (
    NonFiniteState,
    Scheme,
    TimeGrid,
    Trajectory,
    format_float,
    forward,
)
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

__all__ = [
    "BFLOAT16",
    "BackwardTrace",
    "ErrorRow",
    "ExhaustedRescale",
    "ExperimentConfig",
    "FLOAT16",
    "FLOAT32",
    "FLOAT64",
    "FORMATS",
    "FloatFormat",
    "Gradients",
    "LinearField",
    "MlpField",
    "NonFiniteAccumulator",
    "NonFiniteState",
    "Objective",
    "Params",
    "PolyDecayField",
    "RangeMonitor",
    "RunningCost",
    "ScalingPolicy",
    "Scheme",
    "TimeGrid",
    "Trajectory",
    "VelocityField",
    "analytic_gradient",
    "analytic_solution",
    "backward",
    "decay_benchmark",
    "fd_gradient",
    "format_float",
    "forward",
    "get_format",
    "load_weights",
    "objective_value",
    "quantize",
    "run_sgd_demo",
    "run_solve",
    "run_sweep",
    "run_table",
    "save_weights",
    "sgd_step",
]

__version__ = "0.1.0"

"""Experiment runners: benchmark table, step-count sweeps, SGD demo, solve.

Every runner consumes an ExperimentConfig and emits deterministic CSV, so
each reported row can be reproduced by calling forward/backward directly
with the row's parameters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adjoint import (
    ExhaustedRescale,
    Gradients,
    NonFiniteAccumulator,
    Objective,
    ScalingPolicy,
    backward,
    sgd_step,
)
from .dynamics import LinearField, MlpField, Params, PolyDecayField, VelocityField
from .integrate import NonFiniteState, Scheme, TimeGrid, Trajectory, format_float, forward
from .oracles import analytic_gradient, analytic_solution
from .precision import FLOAT32, FLOAT64, FloatFormat, get_format

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "ErrorRow",
    "SWEEP_PRESETS",
    "decay_benchmark",
    "parse_config",
    "write_error_rows",
    "run_table",
    "run_sweep",
    "run_sgd_demo",
    "run_solve",
    "SolveFailed",
]

TABLE_FORMATS = ("float32", "float16", "bfloat16")
TABLE_POLICIES = ("none", "dynamic")
# ExperimentConfig fields of the step-count sweep's two problems, by field.
SWEEP_PRESETS = {
    "polydecay": dict(field="polydecay", theta=(0.4, -1.1, 0.9), x0=(1.0,), t_final=2.0),
    "mlp": dict(field="mlp", widths=(2, 8, 8, 2), t_final=1.0),
}


class ConfigError(ValueError):
    """A config value that cannot describe a run; the message names its key."""

    def __init__(self, key: str, reason: str):
        super().__init__(f"{key}: {reason}")


def _positive_int(key: str, value) -> int:
    """A positive integer given as a JSON number or a decimal string."""
    try:
        n = int(value)
        exact = not isinstance(value, bool) and n == float(value)
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact or n <= 0:
        raise ConfigError(key, f"expected a positive integer, got {value!r}")
    return n


def _numbers(key: str, value, size: int | None = None) -> np.ndarray:
    """A float64 array of finite numbers; a list of `size` of them if given."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        arr = None
    if arr is None or not np.isfinite(arr).all():
        raise ConfigError(key, f"expected finite numbers, got {value!r}")
    if size is not None and arr.shape != (size,):
        raise ConfigError(key, f"expected a list of length {size}, got {value!r}")
    return arr


def _named(key: str, parse, value):
    """The object a name selects, e.g. `get_format` of a `fmt` value."""
    if not isinstance(value, str):
        raise ConfigError(key, f"expected a name, got {value!r}")
    try:
        return parse(value)
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from None


def _grid(t_final, n: int) -> TimeGrid:
    number = isinstance(t_final, (int, float)) and not isinstance(t_final, bool)
    if not (number and 0 < t_final < math.inf):
        raise ConfigError("t_final", f"expected a positive finite number, got {t_final!r}")
    return TimeGrid.uniform(t_final, n)


@dataclass
class ExperimentConfig:
    """Flat description of one experiment; parsed from `key = value` files."""

    scheme: str = "rk4"
    n: object = 400  # int, or list of ints for sweeps
    fmt: str = "float16"
    policy: str = "dynamic"
    field: str = "polydecay"  # polydecay | linear | mlp
    theta: object = None  # field parameters; None -> per-field default
    x0: object = None  # initial state; None -> per-field default
    t_final: float = 2.65
    widths: object = (2, 16, 16, 2)  # mlp only
    a_matrix: object = None  # linear only
    seed: int = 0
    steps: int = 500  # sgd demo only
    lr: float = 0.05  # sgd demo only
    weight_decay: float = 0.0  # sgd demo only
    loss_scale: float = 2.0**16  # sgd demo only
    batch: int = 4  # sgd demo only
    out: str | None = None

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        return cls(**parse_config(Path(path).read_text()))

    def n_list(self) -> list[int]:
        ns = self.n if isinstance(self.n, (list, tuple)) else [self.n]
        if not ns:
            raise ConfigError("n", "expected at least one step count")
        return [_positive_int("n", v) for v in ns]


def parse_config(text: str) -> dict:
    """Parse `key = value` lines; values are JSON fragments, else strings.

    Blank lines and lines starting with `#` are skipped. Keys must be
    ExperimentConfig fields; a malformed line raises ConfigError naming it.
    """
    known = set(ExperimentConfig.__dataclass_fields__)
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected `key = value`, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}", f"unknown config key {key!r}")
        value = value.strip()
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


@dataclass
class ErrorRow:
    """One benchmark cell: relative errors of the state and loss gradients."""

    fmt: str
    policy: str
    n: int
    re_y: float
    re_dy0: float
    re_dtheta1: float
    re_dtheta2: float
    re_dtheta3: float
    status: str = "ok"

    HEADER = "fmt,policy,n,re_y,re_dy0,re_dtheta1,re_dtheta2,re_dtheta3,status"

    def to_csv_line(self) -> str:
        values = [self.re_y, self.re_dy0, self.re_dtheta1, self.re_dtheta2, self.re_dtheta3]
        cells = [self.fmt, self.policy, str(self.n)]
        cells += [format_float(v) for v in values]
        cells.append(self.status)
        return ",".join(cells)


def write_error_rows(rows: list[ErrorRow], path: str | Path) -> None:
    lines = [ErrorRow.HEADER] + [r.to_csv_line() for r in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def decay_benchmark() -> tuple[PolyDecayField, Params, np.ndarray, float]:
    """The range-stress decay problem: spans nearly all of float16's range."""
    theta = np.array([8.0, -11.0, 2.0**-16])
    x = np.array([65504.0 / 180.0])
    return PolyDecayField(), Params(theta), x, 2.65


def _terminal_objective() -> Objective:
    return Objective(
        terminal=lambda y: 0.5 * float(np.dot(y, y)),
        terminal_grad=lambda y: np.asarray(y, dtype=np.float64),
    )


def _high_format(fmt_low: FloatFormat) -> FloatFormat:
    return FLOAT64 if fmt_low is FLOAT64 else FLOAT32


def _rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    got = np.asarray(got, dtype=np.float64).reshape(-1)
    ref = np.asarray(ref, dtype=np.float64).reshape(-1)
    denom = float(np.max(np.abs(ref), initial=0.0))
    if denom == 0.0:
        return 0.0 if float(np.max(np.abs(got), initial=0.0)) == 0.0 else float("inf")
    return float(np.max(np.abs(got - ref))) / denom


def build_field(config: ExperimentConfig) -> tuple[VelocityField, Params | None, np.ndarray]:
    """Field, parameters, and initial state described by a config.

    A value that cannot describe them raises ConfigError naming its key.
    """
    name = config.field.lower() if isinstance(config.field, str) else None
    if name == "polydecay":
        field, params, x, _ = decay_benchmark()
        if config.theta is not None:
            params = Params(_numbers("theta", config.theta, field.dim_params))
        if config.x0 is not None:
            x = _numbers("x0", config.x0, field.dim_state)
        return field, params, x
    if name == "linear":
        a = _numbers("a_matrix", [[-1.0]] if config.a_matrix is None else config.a_matrix)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ConfigError("a_matrix", f"expected a square matrix, got shape {a.shape}")
        field = LinearField(a)
        x = np.ones(field.dim_state)
        if config.x0 is not None:
            x = _numbers("x0", config.x0, field.dim_state)
        return field, None, x
    if name == "mlp":
        widths = config.widths
        if not isinstance(widths, (list, tuple)):
            raise ConfigError("widths", f"expected a list of layer widths, got {widths!r}")
        widths = tuple(_positive_int("widths", w) for w in widths)
        if len(widths) < 2 or widths[0] != widths[-1]:
            reason = f"expected at least two, the last equal to the first, got {list(widths)}"
            raise ConfigError("widths", reason)
        field = MlpField(widths)
        params = (
            Params(_numbers("theta", config.theta, field.dim_params))
            if config.theta is not None
            else field.init_params(config.seed)
        )
        rng = np.random.default_rng(config.seed)
        x = (
            _numbers("x0", config.x0, field.dim_state)
            if config.x0 is not None
            else rng.standard_normal(field.dim_state)
        )
        return field, params, x
    raise ConfigError("field", f"expected polydecay, linear or mlp, got {config.field!r}")


def _solve(
    scheme: Scheme,
    field: VelocityField,
    params: Params | None,
    x: np.ndarray,
    grid: TimeGrid,
    fmt_low: FloatFormat,
    policy: ScalingPolicy,
) -> tuple[Trajectory, Gradients | None, str]:
    """One forward+backward run; a failed or non-finite outcome becomes a status.

    Returns what was computed: after `non-finite-state-at-<i>` the
    trajectory ends at the first non-finite state and there are no
    gradients, after `exhausted-rescale-at-<i>` and
    `non-finite-accumulator-at-<i>` there are no gradients, and
    `non-finite-gradient` keeps the gradients that backward returned.
    """
    fmt_high = _high_format(fmt_low)
    try:
        traj = forward(scheme, field, x, grid, params, fmt_low, fmt_high)
    except NonFiniteState as exc:
        return exc.trajectory, None, f"non-finite-state-at-{exc.step}"
    objective = _terminal_objective()
    try:
        grads = backward(scheme, field, traj, params, objective, policy, fmt_low, fmt_high)
    except ExhaustedRescale as exc:
        return traj, None, f"exhausted-rescale-at-{exc.step}"
    except NonFiniteAccumulator as exc:
        return traj, None, f"non-finite-accumulator-at-{exc.step}"
    if not (np.isfinite(grads.d_x).all() and np.isfinite(grads.d_theta).all()):
        return traj, grads, "non-finite-gradient"
    return traj, grads, "ok"


def _run_cell(
    scheme: Scheme,
    field: VelocityField,
    params: Params | None,
    x: np.ndarray,
    grid: TimeGrid,
    fmt_low: FloatFormat,
    policy: ScalingPolicy,
) -> tuple[np.ndarray, Gradients | None, str]:
    """Terminal state, gradients (None unless `ok`) and status of one run.

    The reported terminal state is the high-precision accumulator: state
    accuracy is a property of the accumulated solution, while the stored
    low-precision copy only adds one storage rounding on top of it.  A
    forward blow-up reports an infinite state.
    """
    traj, grads, status = _solve(scheme, field, params, x, grid, fmt_low, policy)
    if status.startswith("non-finite-state-at-"):
        return np.full(field.dim_state, np.inf), None, status
    return traj.final_hp, grads if status == "ok" else None, status


def _error_row(fmt: str, policy: str, n: int, cell: tuple, refs: tuple) -> ErrorRow:
    """Error row of one `_run_cell` result against (y, d_x, d_theta) references.

    A failed cell (no gradients) gets inf gradient errors. Three-parameter
    fields get one d_theta error per component; any other size gets the
    normwise error repeated in all three theta columns.
    """
    y, grads, status = cell
    y_ref, dx_ref, dtheta_ref = refs
    re_y = _rel_err(y, y_ref)
    if grads is None:
        return ErrorRow(fmt, policy, n, re_y, *[float("inf")] * 4, status=status)
    if len(dtheta_ref) == 3:
        re_th = [_rel_err(grads.d_theta[j : j + 1], dtheta_ref[j : j + 1]) for j in range(3)]
    else:
        re_th = [_rel_err(grads.d_theta, dtheta_ref)] * 3
    return ErrorRow(fmt, policy, n, re_y, _rel_err(grads.d_x, dx_ref), *re_th, status=status)


def run_table(config: ExperimentConfig) -> list[ErrorRow]:
    """Relative errors of the decay benchmark across formats and policies.

    Rows are ordered (float32, float16, bfloat16) x (none, dynamic). A failed
    backward yields infinite gradient-error entries and a non-ok status.
    """
    field, params, x, t_final = decay_benchmark()
    n = _positive_int("n", config.n)
    scheme = _named("scheme", Scheme.from_name, config.scheme)
    grid = TimeGrid.uniform(t_final, n)
    y_ref = analytic_solution(t_final, float(x[0]), params.master)
    refs = (y_ref, *analytic_gradient(t_final, float(x[0]), params.master))

    rows = []
    for fmt_name in TABLE_FORMATS:
        for policy_name in TABLE_POLICIES:
            fmt = get_format(fmt_name)
            policy = ScalingPolicy.from_name(policy_name)
            cell = _run_cell(scheme, field, params, x, grid, fmt, policy)
            rows.append(_error_row(fmt_name, policy_name, n, cell, refs))
    if config.out:
        write_error_rows(rows, config.out)
    return rows


def run_sweep(config: ExperimentConfig) -> list[ErrorRow]:
    """Relative errors vs the float64 same-scheme reference across step counts.

    The reference integrates independently in float64 on the same grid; its
    rounding is the identity, so it is the exact-arithmetic discrete scheme.
    For fields with more than three parameters the d_theta error is normwise
    and fills all three theta columns.
    """
    field, params, x = build_field(config)
    scheme = _named("scheme", Scheme.from_name, config.scheme)
    fmt = _named("fmt", get_format, config.fmt)
    policy = _named("policy", ScalingPolicy.from_name, config.policy)
    objective = _terminal_objective()

    rows = []
    for n in config.n_list():
        grid = _grid(config.t_final, n)
        traj_ref = forward(scheme, field, x, grid, params, FLOAT64, FLOAT64)
        grads_ref = backward(
            scheme, field, traj_ref, params, objective, ScalingPolicy.unscaled(), FLOAT64, FLOAT64
        )
        cell = _run_cell(scheme, field, params, x, grid, fmt, policy)
        refs = (traj_ref.final_hp, grads_ref.d_x, grads_ref.d_theta)
        rows.append(_error_row(config.fmt, config.policy, n, cell, refs))
    if config.out:
        write_error_rows(rows, config.out)
    return rows


@dataclass
class SgdDemoResult:
    """Loss trace of one training run plus the float64-evaluated final loss."""

    rows: list[tuple[int, float, float, bool]]  # (iteration, loss, loss_scale, accepted)
    final_loss: float
    params: Params

    def to_csv(self) -> str:
        lines = ["iteration,loss,loss_scale,accepted"]
        for it, loss, scale, accepted in self.rows:
            lines.append(
                f"{it},{format_float(loss)},{format_float(scale)},{int(accepted)}"
            )
        return "\n".join(lines) + "\n"


def _spiral_teacher() -> LinearField:
    # Mild rotation plus contraction; trajectories stay O(1) over T = 1.
    return LinearField(np.array([[-0.2, 1.0], [-1.0, -0.2]]))


def run_sgd_demo(config: ExperimentConfig) -> SgdDemoResult:
    """Train an MLP field to match a linear teacher's terminal states.

    The teacher's targets are float64 integrations on the same grid, so the
    task is exactly representable by the discrete training objective. The
    training pass runs in config.fmt with loss scaling and the UnscaledSafe
    backward; the reported loss is always evaluated in float64 on the master
    weights.
    """
    fmt_low = get_format(config.fmt)
    scheme = Scheme.EULER
    n_steps = 16
    grid = TimeGrid.uniform(1.0, n_steps)
    teacher = _spiral_teacher()
    student = MlpField(tuple(int(w) for w in config.widths))
    params = student.init_params(config.seed)
    rng = np.random.default_rng(config.seed + 1)
    policy = ScalingPolicy.unscaled_safe()

    def teacher_target(x0: np.ndarray) -> np.ndarray:
        traj = forward(scheme, teacher, x0, grid, None, FLOAT64, FLOAT64)
        return traj.states[-1].copy()

    def batch_loss(p: Params, xs, targets) -> float:
        total = 0.0
        for x0, target in zip(xs, targets):
            traj = forward(scheme, student, x0, grid, p, FLOAT64, FLOAT64)
            total += 0.5 * float(np.sum((traj.states[-1] - target) ** 2))
        return total / len(xs)

    def scaled_batch_grad(p: Params, scale: float, fmt: FloatFormat, xs, targets) -> np.ndarray:
        total = np.zeros(student.dim_params)
        for x0, target in zip(xs, targets):
            objective = Objective(
                terminal=lambda y, t=target: scale * 0.5 * float(np.sum((y - t) ** 2)),
                terminal_grad=lambda y, t=target: scale * (np.asarray(y, dtype=np.float64) - t),
            )
            try:
                traj = forward(scheme, student, x0, grid, p, fmt, _high_format(fmt))
            except NonFiniteState:
                return np.full(student.dim_params, np.inf)
            grads = backward(
                scheme, student, traj, p, objective, policy, fmt, _high_format(fmt)
            )
            total = total + grads.d_theta
        return total / len(xs)

    # Fixed probe set, independent of the training stream: final_loss is
    # deterministic and comparable across formats run with the same seed.
    probe_rng = np.random.default_rng(config.seed + 2)
    probe_xs = [probe_rng.standard_normal(student.dim_state) for _ in range(16)]
    probe_targets = [teacher_target(x0) for x0 in probe_xs]

    rows = []
    loss_scale = float(config.loss_scale)
    streak = 0
    for it in range(int(config.steps)):
        xs = [rng.standard_normal(student.dim_state) for _ in range(int(config.batch))]
        targets = [teacher_target(x0) for x0 in xs]
        loss = batch_loss(params, xs, targets)
        result = sgd_step(
            params,
            lambda p, s, f: scaled_batch_grad(p, s, f, xs, targets),
            lr=float(config.lr),
            loss_scale=loss_scale,
            weight_decay=float(config.weight_decay),
            fmt_low=fmt_low,
            streak=streak,
        )
        params, loss_scale, streak = result.params, result.loss_scale, result.streak
        rows.append((it, loss, loss_scale, result.accepted))
    final_loss = batch_loss(params, probe_xs, probe_targets)
    result = SgdDemoResult(rows, final_loss, params)
    if config.out:
        Path(config.out).write_text(result.to_csv())
    return result


class SolveFailed(RuntimeError):
    """`run_solve` ended in a failure `status`, after writing `paths`."""

    def __init__(self, status: str, paths: tuple[Path, ...]):
        super().__init__(status)
        self.status = status
        self.paths = paths


def run_solve(config: ExperimentConfig) -> tuple[Path, Path] | None:
    """Generic forward/backward run; writes trajectory and gradients CSVs.

    With out = `<stem>` the files are `<stem>_trajectory.csv` and
    `<stem>_gradients.csv`. Returns the written paths, or None if out unset.
    A run whose status is not `ok` (see `_solve`) writes what it computed,
    a partial trajectory and no gradients file if backward raised, then
    raises SolveFailed with the status and the paths written.
    """
    field, params, x = build_field(config)
    scheme = _named("scheme", Scheme.from_name, config.scheme)
    fmt_low = _named("fmt", get_format, config.fmt)
    policy = _named("policy", ScalingPolicy.from_name, config.policy)
    grid = _grid(config.t_final, _positive_int("n", config.n))
    traj, grads, status = _solve(scheme, field, params, x, grid, fmt_low, policy)
    paths: tuple[Path, ...] = ()
    if config.out:
        stem = Path(config.out)
        paths = (stem.with_name(stem.name + "_trajectory.csv"),)
        traj.to_csv(paths[0])
        if grads is not None:
            paths += (stem.with_name(stem.name + "_gradients.csv"),)
            grads.to_csv(paths[1])
    if status != "ok":
        raise SolveFailed(status, paths)
    return paths or None

"""Experiment runners: benchmark table, step-count sweeps, SGD demo, solve.

Every runner consumes an ExperimentConfig and emits deterministic CSV, so
each reported row can be reproduced by calling forward/backward directly
with the row's parameters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adjoint import (
    ExhaustedRescale,
    Gradients,
    Objective,
    ScalingPolicy,
    backward,
    sgd_step,
)
from .dynamics import LinearField, MlpField, Params, PolyDecayField, VelocityField
from .integrate import NonFiniteState, Scheme, TimeGrid, format_float, forward
from .oracles import analytic_gradient, analytic_solution
from .precision import FLOAT32, FLOAT64, FloatFormat, get_format

__all__ = [
    "ExperimentConfig",
    "ErrorRow",
    "SWEEP_PRESETS",
    "decay_benchmark",
    "parse_config",
    "write_error_rows",
    "run_table",
    "run_sweep",
    "run_sgd_demo",
    "run_solve",
]

TABLE_FORMATS = ("float32", "float16", "bfloat16")
TABLE_POLICIES = ("none", "dynamic")
# ExperimentConfig fields of the step-count sweep's two problems, by field.
SWEEP_PRESETS = {
    "polydecay": dict(field="polydecay", theta=(0.4, -1.1, 0.9), x0=(1.0,), t_final=2.0),
    "mlp": dict(field="mlp", widths=(2, 8, 8, 2), t_final=1.0),
}


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
        return [int(v) for v in ns]


def parse_config(text: str) -> dict:
    """Parse `key = value` lines; values are JSON fragments, else strings.

    Blank lines and lines starting with `#` are skipped. Keys must be
    ExperimentConfig fields.
    """
    known = set(ExperimentConfig.__dataclass_fields__)
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in known:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
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
    """Field, parameters, and initial state described by a config."""
    name = config.field.lower()
    if name == "polydecay":
        field, params, x, _ = decay_benchmark()
        if config.theta is not None:
            params = Params(np.asarray(config.theta, dtype=np.float64))
        if config.x0 is not None:
            x = np.asarray(config.x0, dtype=np.float64)
        return field, params, x
    if name == "linear":
        a = np.asarray(config.a_matrix if config.a_matrix is not None else [[-1.0]], dtype=np.float64)
        field = LinearField(a)
        x = np.asarray(config.x0 if config.x0 is not None else np.ones(field.dim_state), dtype=np.float64)
        return field, None, x
    if name == "mlp":
        field = MlpField(tuple(int(w) for w in config.widths))
        params = (
            Params(np.asarray(config.theta, dtype=np.float64))
            if config.theta is not None
            else field.init_params(config.seed)
        )
        rng = np.random.default_rng(config.seed)
        x = np.asarray(
            config.x0 if config.x0 is not None else rng.standard_normal(field.dim_state),
            dtype=np.float64,
        )
        return field, params, x
    raise ValueError(f"unknown field {config.field!r}")


def _run_cell(
    scheme: Scheme,
    field: VelocityField,
    params: Params | None,
    x: np.ndarray,
    grid: TimeGrid,
    fmt_low: FloatFormat,
    policy: ScalingPolicy,
) -> tuple[np.ndarray, Gradients | None, str]:
    """One forward+backward run; failed or non-finite outcomes become a status.

    The reported terminal state is the high-precision accumulator: state
    accuracy is a property of the accumulated solution, while the stored
    low-precision copy only adds one storage rounding on top of it.
    """
    fmt_high = _high_format(fmt_low)
    objective = _terminal_objective()
    try:
        traj = forward(scheme, field, x, grid, params, fmt_low, fmt_high)
    except NonFiniteState as exc:
        return np.full(field.dim_state, np.inf), None, f"non-finite-state-at-{exc.step}"
    try:
        grads = backward(scheme, field, traj, params, objective, policy, fmt_low, fmt_high)
    except ExhaustedRescale as exc:
        return traj.final_hp, None, f"exhausted-rescale-at-{exc.step}"
    if not (np.isfinite(grads.d_x).all() and np.isfinite(grads.d_theta).all()):
        return traj.final_hp, None, "non-finite-gradient"
    return traj.final_hp, grads, "ok"


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
    n = int(config.n)
    scheme = Scheme.from_name(config.scheme)
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
    scheme = Scheme.from_name(config.scheme)
    fmt = get_format(config.fmt)
    policy = ScalingPolicy.from_name(config.policy)
    objective = _terminal_objective()

    rows = []
    for n in config.n_list():
        grid = TimeGrid.uniform(config.t_final, n)
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


def run_solve(config: ExperimentConfig) -> tuple[Path, Path] | None:
    """Generic forward/backward run; writes trajectory and gradients CSVs.

    With out = `<stem>` the files are `<stem>_trajectory.csv` and
    `<stem>_gradients.csv`. Returns the written paths, or None if out unset.
    """
    field, params, x = build_field(config)
    scheme = Scheme.from_name(config.scheme)
    fmt_low = get_format(config.fmt)
    fmt_high = _high_format(fmt_low)
    policy = ScalingPolicy.from_name(config.policy)
    grid = TimeGrid.uniform(config.t_final, int(config.n))
    traj = forward(scheme, field, x, grid, params, fmt_low, fmt_high)
    grads = backward(
        scheme, field, traj, params, _terminal_objective(), policy, fmt_low, fmt_high
    )
    if not config.out:
        return None
    stem = Path(config.out)
    traj_path = stem.with_name(stem.name + "_trajectory.csv")
    grad_path = stem.with_name(stem.name + "_gradients.csv")
    traj.to_csv(traj_path)
    grads.to_csv(grad_path)
    return traj_path, grad_path

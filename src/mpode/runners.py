"""Experiment runners: benchmark table, step-count sweeps, SGD demo, solve.

Every runner consumes an ExperimentConfig and emits deterministic CSV, so
each reported row can be reproduced by calling forward/backward directly
with the row's parameters.  An `out` whose directory is missing or a file
raises the error that writing it would, before the first solve.
"""

from __future__ import annotations

import errno
import json
import math
import os
import stat
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adjoint import (
    ExhaustedRescale,
    Gradients,
    NonFiniteAccumulator,
    Objective,
    ScalingPolicy,
    _lockstep,
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


# Readers of config values: each turns a value into what the runners use or
# raises ValueError with the reason, and `ExperimentConfig.resolve` names
# the key.


def _integer(value, minimum: int = 1) -> int:
    """An integer >= `minimum` (1 or 0), given as a JSON number or a decimal string."""
    try:
        n = int(value)
        exact = not isinstance(value, bool) and n == float(value)
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact or n < minimum:
        kind = "positive" if minimum > 0 else "non-negative"
        raise ValueError(f"expected a {kind} integer, got {value!r}")
    return n


def _finite(value, positive: bool = True) -> float:
    """A finite JSON number, > 0, or >= 0 unless `positive`."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        x = float(value) if number else math.nan
    except OverflowError:  # an integer beyond float64
        x = math.nan
    if not (math.isfinite(x) and (x > 0.0 if positive else x >= 0.0)):
        kind = "positive" if positive else "non-negative"
        raise ValueError(f"expected a {kind} finite number, got {value!r}")
    return x


def _numbers(value, size: int | None = None) -> np.ndarray:
    """A float64 array of finite numbers; a list of `size` of them if given."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        arr = None
    if arr is None or not np.isfinite(arr).all():
        raise ValueError(f"expected finite numbers, got {value!r}")
    if size is not None and arr.shape != (size,):
        raise ValueError(f"expected a list of length {size}, got {value!r}")
    return arr


def _named(parse):
    """A reader of the object a name selects, e.g. `_named(get_format)` for `fmt`."""

    def read(value):
        if not isinstance(value, str):
            raise ValueError(f"expected a name, got {value!r}")
        return parse(value)

    return read


def _field_name(value) -> str:
    name = value.lower() if isinstance(value, str) else None
    if name not in ("polydecay", "linear", "mlp"):
        raise ValueError(f"expected polydecay, linear or mlp, got {value!r}")
    return name


def _step_counts(value, many: bool = False):
    """One step count, or with `many` a non-empty list (a number is a list of one)."""
    if not many:
        return _integer(value)
    ns = value if isinstance(value, (list, tuple)) else [value]
    if not ns:
        raise ValueError("expected at least one step count")
    return [_integer(v) for v in ns]


def _grid(t_final, n: int) -> TimeGrid:
    """The uniform grid of `n` steps over [0, t_final]."""
    return TimeGrid.uniform(_finite(t_final), n)


def _square(value) -> np.ndarray:
    a = _numbers(value)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _mlp(widths) -> MlpField:
    if not isinstance(widths, (list, tuple)):
        raise ValueError(f"expected a list of layer widths, got {widths!r}")
    widths = tuple(_integer(w) for w in widths)
    if len(widths) < 2 or widths[0] != widths[-1]:
        raise ValueError(f"expected at least two, the last equal to the first, got {list(widths)}")
    return MlpField(widths)


_READERS = {
    "scheme": _named(Scheme.from_name),
    "fmt": _named(get_format),
    "policy": _named(ScalingPolicy.from_name),
    "field": _field_name,
    "n": _step_counts,
    "t_final": _grid,
    "theta": _numbers,
    "x0": _numbers,
    "a_matrix": _square,
    "widths": _mlp,
    "seed": lambda value: _integer(value, minimum=0),
    "steps": _integer,
    "batch": _integer,
    "lr": _finite,
    "loss_scale": _finite,
    "weight_decay": lambda value: _finite(value, positive=False),
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

    def resolve(self, key: str, *context):
        """The value of `key` as the runners use it; the one config check.

        `fmt`, `scheme` and `policy` give the objects they name, `widths`
        an MlpField, `t_final` the uniform TimeGrid of `context[0]` steps,
        `n` a step count (a list of them if `context[0]` is true), and
        `theta` and `x0` an array of `context[0]` numbers.  A value that
        cannot describe a run raises ConfigError naming `key`.
        """
        try:
            return _READERS[key](getattr(self, key), *context)
        except ValueError as exc:
            raise ConfigError(key, str(exc)) from None

    def n_list(self) -> list[int]:
        """The step counts of a sweep: `n` as a list (a number is a list of one)."""
        return self.resolve("n", True)


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


def _check_out(path: str | Path | None) -> None:
    """Raise the FileNotFoundError or NotADirectoryError that writing `path`
    would, if it is set and its directory is missing or not a directory;
    the runners call it before their first solve."""
    if not path:
        return
    try:
        mode = os.stat(Path(path).parent).st_mode
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    if not stat.S_ISDIR(mode):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(path))


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
    name = config.resolve("field")
    if name == "polydecay":
        field, params, x, _ = decay_benchmark()
    elif name == "linear":
        field = LinearField([[-1.0]] if config.a_matrix is None else config.resolve("a_matrix"))
        params, x = None, np.ones(field.dim_state)
    else:
        field = config.resolve("widths")
        seed = config.resolve("seed")
        params = field.init_params(seed)
        x = np.random.default_rng(seed).standard_normal(field.dim_state)
    if config.theta is not None and params is not None:
        params = Params(config.resolve("theta", field.dim_params))
    if config.x0 is not None:
        x = config.resolve("x0", field.dim_state)
    return field, params, x


def _solve(
    scheme: Scheme,
    field: VelocityField,
    params: Params | None,
    x: np.ndarray,
    grid: TimeGrid,
    fmt_low: FloatFormat,
    policies: list[ScalingPolicy],
) -> list[tuple[Trajectory, Gradients | None, str]]:
    """One forward, then one reverse sweep for all policies; each outcome gets a status.

    The forward does not depend on the policy, and backward leaves the
    trajectory as it found it, so every policy pulls back the same one.
    The policies sweep it in lockstep (`adjoint._lockstep`), sharing each
    step's tape, at the field evaluations of one backward.
    Returns one (trajectory, gradients, status) per policy, holding what
    was computed: after `non-finite-state-at-<i>` (every policy) the
    trajectory ends at the first non-finite state and there are no
    gradients, after `exhausted-rescale-at-<i>` and
    `non-finite-accumulator-at-<i>` there are no gradients, and
    `non-finite-gradient` keeps the gradients that backward returned.
    """
    try:
        traj = forward(scheme, field, x, grid, params, fmt_low, _high_format(fmt_low))
    except NonFiniteState as exc:
        return [(exc.trajectory, None, f"non-finite-state-at-{exc.step}")] * len(policies)
    outcomes = []
    for out in _lockstep(
        scheme, field, traj, params, _terminal_objective(), policies, fmt_low, _high_format(fmt_low)
    ):
        if isinstance(out, Exception):
            kind = "exhausted-rescale" if isinstance(out, ExhaustedRescale) else "non-finite-accumulator"
            outcomes.append((traj, None, f"{kind}-at-{out.step}"))
        else:
            finite = all(np.isfinite(g).all() for g in (out.d_x, out.d_theta, out.d_t))
            outcomes.append((traj, out, "ok" if finite else "non-finite-gradient"))
    return outcomes


def _error_row(fmt: str, policy: str, n: int, outcome: tuple, refs: tuple) -> ErrorRow:
    """Error row of one `_solve` outcome against (y, d_x, d_theta) references.

    The state error is that of the high-precision terminal accumulator:
    state accuracy is a property of the accumulated solution, while the
    stored low-precision copy only adds one storage rounding on top of it.
    A forward blow-up counts as an infinite state.  A cell that is not `ok`
    gets inf gradient errors.  Three-parameter fields get one d_theta error
    per component; any other size gets the normwise error repeated in all
    three theta columns.
    """
    traj, grads, status = outcome
    y_ref, dx_ref, dtheta_ref = refs
    blowup = status.startswith("non-finite-state-at-")
    re_y = math.inf if blowup else _rel_err(traj.final_hp, y_ref)
    if status != "ok":
        return ErrorRow(fmt, policy, n, re_y, *[math.inf] * 4, status=status)
    if len(dtheta_ref) == 3:
        re_th = [_rel_err(grads.d_theta[j : j + 1], dtheta_ref[j : j + 1]) for j in range(3)]
    else:
        re_th = [_rel_err(grads.d_theta, dtheta_ref)] * 3
    return ErrorRow(fmt, policy, n, re_y, _rel_err(grads.d_x, dx_ref), *re_th, status=status)


def run_table(config: ExperimentConfig) -> list[ErrorRow]:
    """Relative errors of the decay benchmark across formats and policies.

    Rows are ordered (float32, float16, bfloat16) x (none, dynamic). Each
    format runs one forward and one reverse sweep for both policies
    (`_solve`). A failed backward yields infinite gradient-error entries
    and a non-ok status.
    """
    field, params, x, t_final = decay_benchmark()
    n, scheme = config.resolve("n"), config.resolve("scheme")
    grid = TimeGrid.uniform(t_final, n)
    y_ref = analytic_solution(t_final, float(x[0]), params.master)
    refs = (y_ref, *analytic_gradient(t_final, float(x[0]), params.master))
    policies = [ScalingPolicy.from_name(name) for name in TABLE_POLICIES]
    _check_out(config.out)

    rows = []
    for fmt_name in TABLE_FORMATS:
        outcomes = _solve(scheme, field, params, x, grid, get_format(fmt_name), policies)
        for policy_name, outcome in zip(TABLE_POLICIES, outcomes):
            rows.append(_error_row(fmt_name, policy_name, n, outcome, refs))
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
    scheme, fmt, policy = map(config.resolve, ("scheme", "fmt", "policy"))
    objective = _terminal_objective()
    ns = config.n_list()
    _check_out(config.out)

    rows = []
    for n in ns:
        grid = config.resolve("t_final", n)
        traj_ref = forward(scheme, field, x, grid, params, FLOAT64, FLOAT64)
        grads_ref = backward(
            scheme, field, traj_ref, params, objective, ScalingPolicy.unscaled(), FLOAT64, FLOAT64
        )
        [outcome] = _solve(scheme, field, params, x, grid, fmt, [policy])
        refs = (traj_ref.final_hp, grads_ref.d_x, grads_ref.d_theta)
        rows.append(_error_row(config.fmt, config.policy, n, outcome, refs))
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


# Rows of one float64 solve in the SGD demo, so the teacher's and the losses'
# memory does not grow with `steps`: a block holds the whole minibatches that
# fit with the 16 probes; 30 minibatches of 4 fit in one.
TEACHER_BLOCK_ROWS = 512


def run_sgd_demo(config: ExperimentConfig) -> SgdDemoResult:
    """Train an MLP field to match a linear teacher's terminal states.

    The teacher's targets are float64 integrations on the same grid, so the
    task is exactly representable by the discrete training objective. The
    training pass runs in config.fmt with loss scaling and the UnscaledSafe
    backward; the reported loss is always evaluated in float64 on the master
    weights.  Neither the teacher nor the losses feed training, so the demo
    runs in blocks of as many whole minibatches as fit in TEACHER_BLOCK_ROWS
    rows with the probe set (at least one).  A block draws its minibatches
    from the training stream in order and solves their targets in one
    float64 forward (the first block with the probe set's), trains each
    minibatch in one batched forward and one backward, then solves its
    losses in one float64 forward with one parameter set per row (the last
    block adds the probe set at the final weights for final_loss).  Every
    row is bit-identical to its own solve, and each loss sums its rows in
    order; a loss too large for float64 is inf.
    A bad config value raises ConfigError, and an `out` whose directory
    is missing or a file the error writing it would, before anything runs.  A float64 loss
    solve that blows up (a learning rate so large that the weights do)
    raises NonFiniteState when its block is solved.
    """
    keys = ("fmt", "widths", "seed", "steps", "batch", "lr", "loss_scale", "weight_decay")
    fmt_low, student, seed, steps, batch, lr, loss_scale, weight_decay = map(config.resolve, keys)
    _check_out(config.out)
    scheme = Scheme.EULER
    n_steps = 16
    grid = TimeGrid.uniform(1.0, n_steps)
    teacher = _spiral_teacher()
    params = student.init_params(seed)
    rng = np.random.default_rng(seed + 1)
    policy = ScalingPolicy.unscaled_safe()

    def terminal_states(field: VelocityField, xs: np.ndarray, weights) -> np.ndarray:
        return forward(scheme, field, xs, grid, weights, FLOAT64, FLOAT64).states[-1]

    def scaled_batch_grad(p: Params, scale: float, fmt: FloatFormat, xs, targets) -> np.ndarray:
        objective = Objective(
            terminal=lambda y: scale * 0.5 * float(np.sum((y - targets) ** 2)),
            terminal_grad=lambda y: scale * (np.asarray(y, dtype=np.float64) - targets),
        )
        try:
            traj = forward(scheme, student, xs, grid, p, fmt, _high_format(fmt))
        except NonFiniteState:
            return np.full(student.dim_params, np.inf)
        grads = backward(scheme, student, traj, p, objective, policy, fmt, _high_format(fmt))
        # Rows sum left to right in float64, as separate solves would.
        total = np.zeros(student.dim_params)
        for row in grads.d_theta:
            total = total + row
        return total / len(xs)

    # Fixed probe set, independent of the training stream: final_loss is
    # deterministic and comparable across formats run with the same seed.
    # `rng` feeds only the minibatches, so drawing a block ahead keeps its order.
    probe_xs = np.random.default_rng(seed + 2).standard_normal((16, student.dim_state))
    per_block = max(1, (TEACHER_BLOCK_ROWS - len(probe_xs)) // batch)
    losses = []  # the float64 loss of each iteration, then final_loss
    trained = []  # (loss_scale, accepted) after each iteration
    streak = 0
    for start in range(0, steps, per_block):
        count = min(per_block, steps - start)
        xs = rng.standard_normal((count * batch, student.dim_state))
        targets = terminal_states(teacher, np.concatenate([probe_xs, xs]) if start == 0 else xs, None)
        if start == 0:
            probe_targets, targets = targets[: len(probe_xs)], targets[len(probe_xs) :]
        weights = []  # the master weights of each row's loss
        for j in range(0, len(xs), batch):
            minibatch = slice(j, j + batch)
            weights += [params] * batch
            result = sgd_step(
                params,
                lambda p, s, f: scaled_batch_grad(p, s, f, xs[minibatch], targets[minibatch]),
                lr=lr,
                loss_scale=loss_scale,
                weight_decay=weight_decay,
                fmt_low=fmt_low,
                streak=streak,
            )
            params, loss_scale, streak = result.params, result.loss_scale, result.streak
            trained.append((loss_scale, result.accepted))
        sizes = [batch] * count
        if start + count == steps:
            xs, targets = np.concatenate([xs, probe_xs]), np.concatenate([targets, probe_targets])
            weights += [params] * len(probe_xs)
            sizes.append(len(probe_xs))
        final = terminal_states(student, xs, weights)
        pos = 0
        with np.errstate(over="ignore"):  # a diverged run's loss is inf
            for size in sizes:
                total = 0.0
                for y, target in zip(final[pos : pos + size], targets[pos : pos + size]):
                    total += 0.5 * float(np.sum((y - target) ** 2))
                losses.append(total / size)
                pos += size
    *trace, final_loss = losses
    rows = [(it, loss, *after) for it, (loss, after) in enumerate(zip(trace, trained))]
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
    scheme, fmt_low, policy, n = map(config.resolve, ("scheme", "fmt", "policy", "n"))
    grid = config.resolve("t_final", n)
    if config.out:
        stem = Path(config.out)
        traj_path = stem.with_name(stem.name + "_trajectory.csv")
        _check_out(traj_path)
    [(traj, grads, status)] = _solve(scheme, field, params, x, grid, fmt_low, [policy])
    paths: tuple[Path, ...] = ()
    if config.out:
        paths = (traj_path,)
        traj.to_csv(traj_path)
        if grads is not None:
            paths += (stem.with_name(stem.name + "_gradients.csv"),)
            grads.to_csv(paths[1])
    if status != "ok":
        raise SolveFailed(status, paths)
    return paths or None

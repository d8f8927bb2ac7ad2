"""Discrete adjoint of the mixed-precision forward pass.

The backward pass walks the stored low-precision states in reverse,
recomputes each step's increment in low precision, and pulls the adjoint
back through it.  The adjoint, parameter, and time-gradient accumulators
live in high precision; only the covector handed to the reverse sweep is
quantized, after multiplication by a per-step power-of-two scale S.

Every policy runs the same attempt loop per step on the step's tape, built
once for all policies that sweep together: pull back quantize(S * a).
Under `none` and `safe` S stays 1.0 (quantize(1.0 * a) is bit for bit
quantize(a)) and the first attempt is final; `safe` then returns an
all-infinite d_theta if that pullback was non-finite, the skip-step signal
of loss-scaled training.  Under `dynamic`:
  * S starts at 2**floor(log2(1 / (u_low * ||a||_inf)));
  * on a non-finite pullback, halve S and retry on the same tape (no field
    re-evaluation), at most k_max attempts and never below s_floor;
  * after a step that needed no rescue, double S for the next step while
    ||a||_inf stays at most 1/(2*u_low), checked after the update;
  * S never exceeds the largest power of two for which the grid's smallest
    step over S is a normal float64 (nor 2**1023).
Every contribution is divided by the scale used, so the scale never changes
the represented gradient, only which region of the format it flows through.
Power-of-two scaling is exact while no quantization leaves the normal range,
which is what makes the whole scheme bit-reproducible.

A batched trajectory (states `(n + 1, B, dim)`) runs one reverse sweep for
all rows: the adjoint a and d_x are `(B, dim)`, d_theta is `(B, n_params)`
and d_t is `(n + 1, B)`, and each row is bit-identical to its own sweep.
Under `safe`, a non-finite pullback in any row makes the whole batch's
d_theta infinite.  `dynamic` takes one row: its scale, its rescues and their
retries belong to a single adjoint, so B > 1 raises ValueError.

A trajectory of one-component states (`states.shape[1:] == (1,)`) sweeps
on Python floats, as `integrate.forward` does: the stage inputs are the
stored rows' values as floats, and the adjoint a, the covector and the
step cotangents, a field's tuple of parameter cotangents included, are
floats, as are a running cost's partials.  The parameter accumulator is a
tuple of floats and the time gradient a list of floats, both made arrays
on return.  Any unbatched sweep keeps its time gradient as a list of
floats: `dot` of two vectors, and each field's `dt` for one state, are
floats.  Array values may mix in and round alike; a field's array
`dtheta` is summed into the tuple one float at a time (`_add_dtheta`).
`d_x` keeps its `(1,)` shape.

Each step's high-precision update, the step's commit, is written once as
op-program source (`_commit_source`, see `precision.OpProgram`): Phi^T a,
the two time-gradient updates, a running cost's terms, the adjoint and
the parameter sums.  It compiles in the two forms of the step code
(`integrate`), chosen once per solve: a one-component sweep whose step
tapes are fused runs the float form, with the rounding inline, Phi^T a
as one rounded product and the parameter sums unrolled; every other
sweep runs the generic form, whose `quantize`, `dot` and `_add_dtheta`
calls take arrays and batches.  The covector rounding before each
pullback stays a `quantize` call.
"""
from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .dynamics import Params, VelocityField
from .integrate import (
    Scheme, Trajectory, _add_dtheta, _all_finite, _names, _theta_low, build_step_tape, format_float,
)
from .precision import FloatFormat, OpProgram, RangeMonitor, dot, quantize

__all__ = [
    "RunningCost",
    "Objective",
    "trapezoid_weights",
    "ScalingPolicy",
    "Gradients",
    "BackwardTrace",
    "ExhaustedRescale",
    "NonFiniteAccumulator",
    "init_scale",
    "backward",
    "objective_value",
    "sgd_step",
]


@dataclass
class RunningCost:
    """Integrand R(t, y, theta) with the partials the backward pass needs."""

    value: Callable[[float, np.ndarray, np.ndarray], float]
    grad_y: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    grad_theta: Callable[[float, np.ndarray, np.ndarray], np.ndarray] | None = None


@dataclass
class Objective:
    """L = sum_i w_i R(t_i, y_i, theta) + C(y_N) on the discrete trajectory.

    The weights w_i are trapezoid quadrature on the grid, and the terminal
    cost is evaluated on the stored low-precision y_N.
    """

    terminal: Callable[[np.ndarray], float]
    terminal_grad: Callable[[np.ndarray], np.ndarray]
    running: RunningCost | None = None


def trapezoid_weights(grid) -> np.ndarray:
    h = np.diff(grid.t)
    w = np.zeros(grid.t.size)
    w[0] = 0.5 * h[0]
    w[-1] = 0.5 * h[-1]
    w[1:-1] = 0.5 * (h[:-1] + h[1:])
    return w


class PolicyKind(enum.Enum):
    UNSCALED = "none"
    UNSCALED_SAFE = "safe"
    DYNAMIC = "dynamic"


@dataclass(frozen=True)
class ScalingPolicy:
    kind: PolicyKind
    k_max: int = 24
    s_floor: float = 2.0**-24

    def __post_init__(self) -> None:
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        f, _ = math.frexp(self.s_floor)
        if self.s_floor <= 0.0 or f != 0.5:
            raise ValueError("s_floor must be a positive power of two")

    @classmethod
    def unscaled(cls) -> "ScalingPolicy":
        return cls(PolicyKind.UNSCALED)

    @classmethod
    def unscaled_safe(cls) -> "ScalingPolicy":
        return cls(PolicyKind.UNSCALED_SAFE)

    @classmethod
    def dynamic(cls, k_max: int = 24, s_floor: float = 2.0**-24) -> "ScalingPolicy":
        return cls(PolicyKind.DYNAMIC, k_max, s_floor)

    @classmethod
    def from_name(cls, name: str) -> "ScalingPolicy":
        return cls(PolicyKind(name.lower()))


@dataclass
class Gradients:
    """d_x: gradient wrt the initial state; d_t: per-node time gradient.

    Shapes are `(dim,)`, `(n_params,)` and `(n + 1,)`, or `(B, dim)`,
    `(B, n_params)` and `(n + 1, B)` for a batch.
    """

    d_x: np.ndarray
    d_theta: np.ndarray
    d_t: np.ndarray

    def __post_init__(self) -> None:
        # Every NaN as `np.nan`: which sign an op of two NaNs gives depends on
        # the interpreter's state (`mpode.precision`), not on the sweep.
        for name, value in (("d_x", self.d_x), ("d_theta", self.d_theta), ("d_t", self.d_t)):
            setattr(self, name, np.where(np.isnan(value), np.nan, value))

    def to_csv(self, path: str | Path) -> None:
        """One line per component; batched gradients raise ValueError."""
        if self.d_x.ndim != 1:
            raise ValueError(f"to_csv writes one gradient, not a batch of {self.d_x.shape[0]}")
        lines = ["component,value"]
        for name, vec in (("d_x", self.d_x), ("d_theta", self.d_theta), ("d_t", self.d_t)):
            for j, v in enumerate(vec):
                lines.append(f"{name}[{j}],{format_float(v)}")
        Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class BackwardTrace:
    """Per-step instrumentation filled in by `backward` when passed in."""

    scales: list[float] = dataclass_field(default_factory=list)
    rescale_counts: list[int] = dataclass_field(default_factory=list)
    doublings: int = 0

    @property
    def total_rescales(self) -> int:
        return sum(self.rescale_counts)


class ExhaustedRescale(RuntimeError):
    """Rescue halving at `step` ran out of attempts or hit the scale floor."""

    def __init__(self, step: int):
        super().__init__(f"rescale attempts exhausted at step {step}")
        self.step = step


class NonFiniteAccumulator(RuntimeError):
    """A high-precision accumulator picked up an infinity or NaN at `step`."""

    def __init__(self, step: int):
        super().__init__(f"non-finite adjoint accumulator at step {step}")
        self.step = step


def _max_abs(a) -> float:
    """||a||_inf of a float or an array; 0.0 for an empty array."""
    return abs(a) if isinstance(a, float) else float(np.max(np.abs(a), initial=0.0))


def init_scale(a: float | np.ndarray, fmt: FloatFormat) -> float:
    """Largest power of two with scale * ||a||_inf <= 1 / u_low, at most 2**1023.

    Returns 1.0 for a zero adjoint.  Below the cap the result satisfies
    scale * ||a||_inf in (1/(2u), 1/u].  The exponent comes from ||a||_inf
    itself, 1/u being 2**(mantissa_bits + 1), so a subnormal norm neither
    underflows u * ||a||_inf nor overflows the scale.
    """
    norm = _max_abs(a)
    if norm == 0.0:
        return 1.0
    if not math.isfinite(norm):
        raise ValueError("adjoint seed is not finite")
    f, e = math.frexp(norm)
    return math.ldexp(1.0, min(fmt.mantissa_bits + (2 if f == 0.5 else 1) - e, 1023))


def backward(
    scheme: Scheme,
    field: VelocityField,
    traj: Trajectory,
    params: Params | Sequence[Params] | None,
    objective: Objective,
    policy: ScalingPolicy,
    fmt_low: FloatFormat,
    fmt_high: FloatFormat,
    monitor: RangeMonitor | None = None,
    trace: BackwardTrace | None = None,
    scale_multiplier: float = 1.0,
) -> Gradients:
    """Reverse sweep over a stored trajectory, one row or a batch.

    Batched shapes are in the module docstring.  `params` is one `Params`
    shared by every row, or for a batched trajectory a sequence of B, one
    per row, as in `integrate.forward`; any other count, a sequence for an
    unbatched trajectory, and `dynamic` with a batch of more than one row
    raise ValueError before any work.  Exactly
    n_steps * scheme.stages field evaluations are performed for any number
    of policies (`_lockstep`) and rescale attempts: they share the tapes.
    `scale_multiplier` (a power of two) shifts the whole scale sequence and
    exists for bit-exactness instrumentation.  Rescue probes push
    non-finite values through the arithmetic on purpose and blow-ups are
    detected explicitly, so numpy's FP warnings are silenced for the sweep.
    """
    [out] = _lockstep(
        scheme, field, traj, params, objective, [policy], fmt_low, fmt_high, monitor, [trace], scale_multiplier
    )
    if isinstance(out, Exception):
        raise out
    return out


@np.errstate(invalid="ignore", over="ignore")
def _lockstep(
    scheme, field, traj, params, objective, policies, fmt_low, fmt_high,
    monitor=None, traces=None, scale_multiplier=1.0,
) -> list[Gradients | ExhaustedRescale | NonFiniteAccumulator]:
    """`backward` of each policy, sweeping all of them over one tape per step; a
    policy's ExhaustedRescale or NonFiniteAccumulator is its outcome, a ValueError raises."""
    theta_low = _theta_low(params, traj.states.shape[1:], fmt_low)
    t = traj.grid.t
    ys = traj.states[:, 0].tolist() if traj.states.shape[1:] == (1,) else traj.states
    sweeps = [
        _sweep(field, traj, theta_low, objective, policy, fmt_low, fmt_high, monitor, trace, scale_multiplier)
        for policy, trace in zip(policies, traces or [None] * len(policies))
    ]
    outcomes, live, step = [None] * len(sweeps), list(range(len(sweeps))), None
    # Round i sends step i's tape to every live sweep; round n starts them.
    for i in range(traj.grid.n_steps, -1, -1):
        ended = False
        for k in live:
            try:
                sweeps[k].send(step)
            except StopIteration as stop:
                outcomes[k], ended = stop.value, True
            except (ExhaustedRescale, NonFiniteAccumulator) as exc:
                outcomes[k], ended = exc, True
        if ended:
            live = [k for k in live if outcomes[k] is None]
            if not live:  # at the latest once step 0 is swept
                return outcomes
        h = quantize(float(t[i]) - float(t[i - 1]), fmt_high)
        step = h, build_step_tape(scheme, field, ys[i - 1], float(t[i - 1]), h, theta_low, fmt_low, monitor)


def _commit_source(n_params: int, fused: bool) -> str:
    """Op-program source of one step's high-precision commit, `commit`.

    It returns the updated adjoint, parameter accumulator and time
    gradients of nodes i and i + 1 from the step's increment `dy`, its
    pullback `vjp`, hs = h / S, and a running cost's rounded partials `ry`
    and `rth` (None without them) with their node weight `w`.  `fused`
    gives the float form: every value is a float, `Phi^T a` is the rounded
    product `Q(dy * a)`, and the accumulator `g`, `dtheta` and `rth` are
    tuples of `n_params` floats summed one by one.  Otherwise the generic
    form: `Phi^T a` is a `dot`, and `_add_dtheta` sums the parameter
    cotangents whatever their kind.
    """
    src = [
        "def commit(a, g, tg0, tg1, dy, vjp, hs, ry, rth, w, fmt, monitor=None):",
        "    da, dt, dh, dtheta = vjp",
        "    phi_a = Q(dy * a)" if fused else "    phi_a = dot(dy, a, fmt, monitor)",
        "    u = Q(hs * (dt - dh))",
        "    tg0 = Q(tg0 + u)",
        "    tg0 = Q(tg0 - phi_a)",
        "    u = Q(hs * dh)",
        "    tg1 = Q(tg1 + u)",
        "    tg1 = Q(tg1 + phi_a)",
        "    if ry is not None:",
        "        u = Q(w * ry)",
        "        a = Q(a + u)",
        "    u = Q(hs * da)",
        "    a = Q(a + u)",
    ]
    if not fused:
        if n_params:
            src.append("    g = _add_dtheta(g, dtheta, fmt, monitor, hs)")
        src += ["    if rth is not None:", "        g = _add_dtheta(g, rth, fmt, monitor, w)"]
    elif n_params:
        es, qs = _names("e", n_params), _names("q", n_params)
        src += [f"    {es} = g", f"    {qs} = dtheta"]
        for m in range(n_params):
            src += [f"    q{m} = Q(hs * q{m})", f"    e{m} = Q(e{m} + q{m})"]
        src += ["    if rth is not None:", f"        {qs} = rth"]
        for m in range(n_params):
            src += [f"        q{m} = Q(w * q{m})", f"        e{m} = Q(e{m} + q{m})"]
        src.append(f"    g = ({es})")
    src.append("    return a, g, tg0, tg1")
    return "\n".join(src)


@functools.cache
def _commit_program(n_params: int, fused: bool) -> OpProgram:
    """The commit's op program: the float form for `n_params` parameters, or
    the generic form (`n_params` 0 or 1: without or with parameter sums),
    whose `compile()` reads this module's `quantize`, `dot` and `_add_dtheta`."""
    return OpProgram(f"commit{n_params}", _commit_source(n_params, fused), module=sys.modules[__name__])


def _sweep(field, traj, theta_low, objective, policy, fmt_low, fmt_high, monitor, trace, scale_multiplier):
    """One policy's part of `backward`: a generator sent each step's
    (h, tape), last step first, that returns the Gradients."""
    dynamic = policy.kind is PolicyKind.DYNAMIC
    safe = policy.kind is PolicyKind.UNSCALED_SAFE
    states = traj.states
    lead = states.shape[1:-1]  # (B,) for a batch
    if dynamic and states.ndim == 3 and states.shape[1] > 1:
        raise ValueError(f"the dynamic policy takes one row, got a batch of {states.shape[1]}")
    t = traj.grid.t
    n = traj.grid.n_steps
    w = trapezoid_weights(traj.grid).tolist()

    a = np.asarray(objective.terminal_grad(states[n]), dtype=np.float64).reshape(states[n].shape)
    # A one-component state sweeps on floats (module docstring): the
    # adjoint, and a running cost's partials, are floats.
    one = states.shape[1:] == (1,)
    a = quantize(float(a[0]) if one else a, fmt_high)
    # Made arrays on return; a one-component sweep accumulates floats, and
    # every unbatched one sums its time gradient on floats.
    g = (0.0,) * field.dim_params if one else np.zeros((*lead, field.dim_params))
    tgrad = np.zeros((n + 1, *lead)) if lead else [0.0] * (n + 1)
    running = objective.running

    def cost_partial(fn, i, to_float):
        """A running cost's partial at node i in fmt_high; one float or a tuple on the float path."""
        r = quantize(np.asarray(fn(float(t[i]), states[i], theta_low), dtype=np.float64), fmt_high)
        if not one:
            return r
        return r.item() if to_float else tuple(r.tolist())

    if running is not None:
        a = quantize(a + quantize(w[n] * cost_partial(running.grad_y, n, True), fmt_high), fmt_high)
        if running.grad_theta is not None:
            # The seed replaces the zero accumulator, so a -0.0 keeps its sign.
            rth = cost_partial(running.grad_theta, n, False)
            if one:
                g = tuple([quantize(w[n] * q, fmt_high) for q in rth])
            else:
                g = np.broadcast_to(quantize(w[n] * rth, fmt_high), g.shape).copy()

    if dynamic and not _all_finite(a):
        raise NonFiniteAccumulator(n)

    f, _ = math.frexp(scale_multiplier)
    if scale_multiplier <= 0.0 or f != 0.5:
        raise ValueError("scale_multiplier must be a positive power of two")
    scale = 1.0
    if dynamic:
        # The scale stays at most the largest power of two that keeps the
        # grid's smallest step over it a normal float64, so h / scale is
        # exact; a float64 low format overflows nothing first, and doubling
        # without a bound would reach inf.
        _, h_exp = math.frexp(float(np.min(np.diff(t))))  # the smallest step is >= 2**(h_exp - 1)
        max_exp = min(h_exp - 1 + 1022, 1023)  # and over 2**max_exp it is >= 2**-1022
        max_scale = math.ldexp(1.0, max_exp)
        scale = min(init_scale(a, fmt_low) * scale_multiplier, max_scale)

    # The float form of the commit where the step tapes are fused
    # (`integrate._stages`), the generic form for every other sweep.
    fused = one and type(field)._float_program() is not None
    program = _commit_program(field.dim_params if fused else min(field.dim_params, 1), fused)
    commit = (program.compile(fmt_high) if fused else program.compile()).commit
    for i in range(n - 1, -1, -1):
        h, tape = yield
        # Under none/safe the scale stays 1.0, so the covector is a's own
        # rounding and the first pullback is final.
        for attempts in range(1, policy.k_max + 1):
            v = tape.pullback(quantize(scale * a, fmt_low, monitor), monitor)
            if not dynamic or v.finite():
                break
            scale = 0.5 * scale
            if scale < policy.s_floor:
                raise ExhaustedRescale(i)
        else:
            raise ExhaustedRescale(i)
        if safe and not v.finite():
            d_theta = np.full((*lead, field.dim_params), np.inf)
            return Gradients(np.reshape(a, states.shape[1:]), d_theta, np.asarray(tgrad))
        if dynamic and trace is not None:
            trace.scales.append(scale)
            trace.rescale_counts.append(attempts - 1)

        # High-precision accumulation (`commit`); Phi^T a uses the pre-update
        # adjoint and the recomputed increment, as a rounded high-precision dot.
        # h/scale and dt-dh stay in the float64 carrier (both exact there);
        # rounding them into fmt_high first can hit subnormals or overflow
        # once the scale has grown large, so each contribution is formed
        # exactly and rounded once on the way into the accumulator.
        ry = rth = None
        if running is not None:
            ry = cost_partial(running.grad_y, i, True)
            if running.grad_theta is not None:
                rth = cost_partial(running.grad_theta, i, False)
        a, g, tgrad[i], tgrad[i + 1] = commit(
            a, g, tgrad[i], tgrad[i + 1], tape.increment, v, float(h) / scale, ry, rth, w[i], fmt_high
        )

        if dynamic:
            if not all(map(_all_finite, (a, g, tgrad[i], tgrad[i + 1]))):
                raise NonFiniteAccumulator(i)
            # Doubling check runs on the freshly updated adjoint.
            if attempts == 1 and scale < max_scale and _max_abs(a) <= 1.0 / (2.0 * fmt_low.unit_roundoff):
                scale = 2.0 * scale
                if trace is not None:
                    trace.doublings += 1

    if trace is not None:
        trace.scales.reverse()
        trace.rescale_counts.reverse()
    return Gradients(np.reshape(a, states.shape[1:]), np.asarray(g), np.asarray(tgrad))


def objective_value(objective: Objective, traj: Trajectory, theta: np.ndarray) -> float:
    """Discrete objective on a stored trajectory, in plain float64."""
    val = float(objective.terminal(traj.states[-1]))
    if objective.running is not None:
        w = trapezoid_weights(traj.grid)
        for i, ti in enumerate(traj.grid.t):
            val += float(w[i]) * float(objective.running.value(float(ti), traj.states[i], theta))
    return val


# Rejected steps stop halving the loss scale here, so a long run of
# non-finite gradients can never drive it to 0 and the next update to grad/0.
MIN_LOSS_SCALE = 2.0**-24


@dataclass
class SgdResult:
    params: Params
    loss_scale: float
    accepted: bool
    streak: int


def sgd_step(
    params: Params,
    grad_fn: Callable[[Params, float, FloatFormat], np.ndarray],
    lr: float,
    loss_scale: float,
    weight_decay: float,
    fmt_low: FloatFormat,
    streak: int = 0,
    growth_window: int = 2000,
) -> SgdResult:
    """One loss-scaled SGD update on the master weights.

    grad_fn(params, loss_scale, fmt_low) returns the gradient of the scaled
    loss computed with quantized weights.  A non-finite gradient rejects the
    step and halves the scale, but not below MIN_LOSS_SCALE; `growth_window`
    consecutive accepted steps double it and reset the streak.
    """
    grad = np.asarray(grad_fn(params, loss_scale, fmt_low), dtype=np.float64)
    if not np.all(np.isfinite(grad)):
        return SgdResult(params, max(0.5 * loss_scale, MIN_LOSS_SCALE), False, 0)
    update = grad / loss_scale + weight_decay * params.master
    new = Params(params.master - lr * update)
    streak += 1
    if streak >= growth_window:
        return SgdResult(new, 2.0 * loss_scale, True, 0)
    return SgdResult(new, loss_scale, True, streak)

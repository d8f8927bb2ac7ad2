"""Fixed-step explicit Runge-Kutta integration with a split-precision state.

The field is evaluated in the low format; the state advances in the high
format (`y += h * dy`, both ops correctly rounded there) and a low-precision
copy of every state is stored.  The stored copies are what the increment
recomputation in the backward pass consumes, so they are the contract: the
high-precision terminal state is exposed separately as a diagnostic.

Each scheme is a Butcher tableau, held as data (Hairer, Norsett & Wanner,
Solving ODEs I, sec. II.1).  One stage routine runs a tableau for both the
forward increment and the backward step tape, so the recomputed increment
is bit-identical to the forward one by construction; the tape's pullback
is derived from the same tableau (Griewank & Walther, Evaluating
Derivatives, ch. 3).

A minibatch runs as one solve.  The initial state is `(dim,)` or `(B, dim)`
with a leading batch axis; the stored states are then `(n + 1, dim)` or
`(n + 1, B, dim)`, and every stage value and step cotangent carries the same
leading axis.  Each rounded op works elementwise, and `dot` sums along the
last axis only, so every row of a batch is bit-identical to its run alone.
Time and step size are shared by all rows.  The parameters are too, or,
given as a sequence of `Params` (`forward` and `adjoint.backward`), each
row has its own: the rounded copies stack to `(B, n_params)`, which a
field that takes them (`MlpField`) splits along the last axis, so each row
is again bit-identical to its run alone with its own parameters.

A state with one component (`x.shape == (1,)`, not a batch of one) runs on
Python floats: `forward` carries the high-precision state and the stage
inputs as floats, and only the stored `states` rows are arrays.  A rounded
`mul` costs 8-14 times more on a 1-element array than on a float, and the
two round alike, so the results, the monitor counts and the op sequence
are those of the `(1,)` array.  The path is chosen from the input's shape
alone, here and in `adjoint.backward`; `final_hp` keeps its `(1,)` shape.
The step tape's pullback then sums floats too, and a field's tuple of
parameter cotangents one float at a time, in stage order.  A field may
hand back arrays for float inputs; the two forms mix freely.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .dynamics import Params, VelocityField
from .precision import _SMALL, FloatFormat, RangeMonitor, add, dot, mul, quantize, sub

__all__ = [
    "Scheme",
    "TimeGrid",
    "Trajectory",
    "NonFiniteState",
    "increment",
    "forward",
    "build_step_tape",
    "format_float",
]


def format_float(v: float) -> str:
    """17 significant digits: enough to round-trip any float64 exactly."""
    return format(float(v), ".17g")


class Scheme(enum.Enum):
    EULER = "euler"
    RK4 = "rk4"

    @property
    def stages(self) -> int:
        return _TABLEAUX[self].stages

    @classmethod
    def from_name(cls, name: str) -> "Scheme":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown scheme {name!r}, expected euler or rk4") from None


class _Tableau:
    """Explicit Butcher tableau (a, b, c) and the index lists its loops walk.

    Stage i evaluates the field at t + c_i h and y + sum_j a_ij h k_j; the
    increment is sum_i b_i k_i.  Zero entries emit no rounded op, and a unit
    weight or time-gradient coefficient emits no multiply, so the tableau
    form runs exactly the op sequence of the scheme written out by hand.
    """

    def __init__(self, a, b, c) -> None:
        self.stages = len(b)
        # Nonzero a_ij of each stage row: the terms of the stage input.
        rows = [[(j, v) for j, v in enumerate(row) if v] for row in a]
        # Distinct non-unit weights in order of first appearance, and each
        # stage's slot among them (None for a unit weight): the reverse
        # sweep forms each distinct b * cotangent product once.
        self.weights = tuple(dict.fromkeys(v for v in b if v != 1.0))
        self._rounded = {}  # format -> weights rounded to it
        slots = [None if v == 1.0 else self.weights.index(v) for v in b]
        self.forward = tuple(zip(c, rows, slots))
        # Reverse sweep, last stage first: each stage j's weight slot and the
        # later stages i, with their a_ij, whose input read k_j.
        self.reverse = tuple(
            (j, slots[j], [(i, v) for i, row in enumerate(rows) for jj, v in row if jj == j])
            for j in reversed(range(self.stages))
        )
        # Terms of d(increment)/dh in summation order: per stage i, c_i * dt_i
        # (j is None), then a_ij * <k_j, da_i>.
        self.dh_terms = tuple(
            (i, j, v) for i, (ci, row) in enumerate(zip(c, rows)) for j, v in [(None, ci), *row] if v
        )

    def rounded_weights(self, fmt: FloatFormat) -> tuple:
        """`weights` rounded to `fmt`, rounded on the first call only."""
        out = self._rounded.get(fmt)
        if out is None:
            out = self._rounded[fmt] = tuple(quantize(v, fmt) for v in self.weights)
        return out


_TABLEAUX = {
    Scheme.EULER: _Tableau(a=[[]], b=[1.0], c=[0.0]),
    Scheme.RK4: _Tableau(
        a=[[], [0.5], [0.0, 0.5], [0.0, 0.0, 1.0]],
        b=[1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0],
        c=[0.0, 0.5, 0.5, 1.0],
    ),
}


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing node times, starting at t0 >= 0."""

    t: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=np.float64)
        object.__setattr__(self, "t", t)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("grid needs at least two nodes")
        if t[0] < 0.0 or not np.all(np.diff(t) > 0.0):
            raise ValueError("grid must be strictly increasing with t[0] >= 0")

    @property
    def n_steps(self) -> int:
        return self.t.size - 1

    @classmethod
    def uniform(cls, t_final: float, n_steps: int, t_start: float = 0.0) -> "TimeGrid":
        return cls(np.linspace(t_start, t_final, n_steps + 1))


@dataclass
class Trajectory:
    grid: TimeGrid
    states: np.ndarray  # (n_steps + 1, [B,] dim) low-precision stored states
    final_hp: np.ndarray  # ([B,] dim) high-precision accumulator at the last node

    def to_csv(self, path: str | Path) -> None:
        """One line per node; a batched trajectory raises ValueError."""
        if self.states.ndim != 2:
            raise ValueError(f"to_csv writes one trajectory, not a batch of {self.states.shape[1]}")
        dim = self.states.shape[1]
        lines = ["i,t," + ",".join(f"y{j}" for j in range(dim))]
        for i, t in enumerate(self.grid.t[: self.states.shape[0]]):
            vals = ",".join(format_float(v) for v in self.states[i])
            lines.append(f"{i},{format_float(t)},{vals}")
        Path(path).write_text("\n".join(lines) + "\n")


class NonFiniteState(RuntimeError):
    """A stored state picked up an infinity or NaN at `step`."""

    def __init__(self, step: int, trajectory: Trajectory):
        super().__init__(f"non-finite state after step {step}")
        self.step = step
        self.trajectory = trajectory


def _all_finite(x) -> bool:
    """Every value of a number, an array or a tuple of floats is finite;
    all but arrays of over `_SMALL` elements are checked in plain Python,
    where `np.isfinite(x).all()` costs ~2 us."""
    if isinstance(x, (float, int)):
        return math.isfinite(x)
    if isinstance(x, np.ndarray):
        if x.size <= _SMALL:
            return all(map(math.isfinite, x.ravel().tolist()))
        return bool(np.isfinite(x).all())
    return all(map(math.isfinite, x))


def _add_dtheta(acc, d, fmt, monitor=None, scale=None):
    """`acc + d`, or `acc + scale * d`, every op rounded to `fmt`; a tuple
    `d` (a one-component field's `dtheta`) is summed one float at a time."""
    if type(d) is tuple:
        if scale is not None:
            d = [mul(scale, q, fmt, monitor) for q in d]
        return tuple([add(p, q, fmt, monitor) for p, q in zip(acc, d)])
    return add(acc, d if scale is None else mul(scale, d, fmt, monitor), fmt, monitor)


def _theta_low(params, shape: tuple, fmt: FloatFormat) -> np.ndarray:
    """The rounded parameters of a solve whose state has `shape`.

    One `Params` (or None, no parameters) is shared by every row and gives
    `(n_params,)`.  A sequence of B gives `(B, n_params)`, one row per row
    of a `(B, dim)` batch; a count that is not B, or a state that is not a
    batch, raises ValueError.
    """
    if params is None:
        return np.zeros(0)
    if isinstance(params, Params):
        return params.low(fmt)
    params = list(params)
    if len(shape) != 2 or len(params) != shape[0]:
        raise ValueError(
            f"{len(params)} parameter sets for a state of shape {shape}: "
            "per-row parameters take one per row of a (B, dim) batch"
        )
    return quantize(np.stack([p.master for p in params]), fmt)


def _stages(tab, field, y, t, h, theta_low, fmt, monitor):
    """Run a tableau once; returns the increment, stages, pullbacks and weights.

    Butcher weights live in the computation format, like every other
    operand of the stage arithmetic, and are applied per stage before
    accumulating so partial sums stay on the order of |dy| itself.
    Summing raw stages first peaks near 6|dy| for RK4 and can overflow a
    narrow format even when every stage and every state is in range.
    """
    weights = tab.rounded_weights(fmt)
    ks, pulls = [], []
    dy = None
    for c, row, slot in tab.forward:
        u = y
        for j, a in row:
            u = add(u, mul(a * h, ks[j], fmt, monitor), fmt, monitor)
        k, pull = field.linearize(t + c * h if c else t, u, theta_low, fmt, monitor)
        ks.append(k)
        pulls.append(pull)
        term = k if slot is None else mul(weights[slot], k, fmt, monitor)
        dy = term if dy is None else add(dy, term, fmt, monitor)
    return dy, ks, pulls, weights


def increment(
    scheme: Scheme,
    field: VelocityField,
    y: float | np.ndarray,
    t: float,
    h: float,
    theta_low: np.ndarray,
    fmt: FloatFormat,
    monitor: RangeMonitor | None = None,
) -> float | np.ndarray:
    """One increment dy with every primitive rounded in `fmt`.

    t and h arrive in high precision; they are rounded only where they meet
    low-precision values (the a_ij h k_j products and the field's own use of
    t).  The c_i h and a_ij h products stay in the carrier, where the halves
    and ones of Euler and RK4 make them exact.
    """
    return _stages(_TABLEAUX[scheme], field, y, t, h, theta_low, fmt, monitor)[0]


@np.errstate(invalid="ignore", over="ignore")
def forward(
    scheme: Scheme,
    field: VelocityField,
    x: np.ndarray,
    grid: TimeGrid,
    params: Params | Sequence[Params] | None,
    fmt_low: FloatFormat,
    fmt_high: FloatFormat,
    monitor: RangeMonitor | None = None,
) -> Trajectory:
    """Integrate from x over the grid; raises NonFiniteState on blow-up.

    x is one state `(dim,)` or a batch `(B, dim)`; a non-finite value in any
    row stops the whole batch.  The exception carries the partial
    trajectory for inspection.  `params` is one `Params` shared by every
    row, or for a batch a sequence of B, one per row; any other count, or
    a sequence for one state, raises ValueError before any work.  Overflow
    to inf is the documented rounding behaviour and blow-up is detected
    explicitly, so numpy's FP warnings are silenced for the whole solve,
    the parameter rounding included.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        x = x.reshape(-1)
    if x.shape[-1] != field.dim_state or x.size == 0:
        raise ValueError(
            f"initial state has shape {x.shape}, field wants ({field.dim_state},) or (B, {field.dim_state})"
        )
    theta_low = _theta_low(params, x.shape, fmt_low)
    t = grid.t
    n = grid.n_steps
    # A one-component state runs as a float (module docstring); only the
    # stored rows are arrays.
    y = quantize(float(x[0]) if x.shape == (1,) else x, fmt_high)
    y_low = quantize(y, fmt_low)
    states = np.empty((n + 1, *x.shape))
    states[0] = y_low
    for i in range(n):
        h = sub(float(t[i + 1]), float(t[i]), fmt_high)
        dy = increment(scheme, field, y_low, float(t[i]), h, theta_low, fmt_low, monitor)
        dy_h = quantize(dy, fmt_high)
        y = add(y, mul(h, dy_h, fmt_high), fmt_high)
        y_low = quantize(y, fmt_low)
        states[i + 1] = y_low
        if not _all_finite(y_low):
            partial = Trajectory(TimeGrid(t[: i + 2]), states[: i + 2].copy(), np.reshape(y, x.shape))
            raise NonFiniteState(i, partial)
    return Trajectory(grid, states, np.reshape(y, x.shape))


class StepVjp(NamedTuple):
    """Cotangents of one increment map: covector times d(increment)/d(input).

    For a batch, da is `(B, dim)`, dtheta `(B, n_params)`, and dt and dh
    are `(B,)`, or a float where the value is shared by every row.  da is
    a float, and dtheta a tuple of floats, where the field returned one (a
    one-component state).
    """

    da: float | np.ndarray
    dt: float | np.ndarray
    dh: float | np.ndarray
    dtheta: np.ndarray | tuple[float, ...]

    def finite(self) -> bool:
        """Every value of every row is finite."""
        return all(map(_all_finite, self))


@dataclass
class StepTape:
    """Recorded stage values of one step, reusable across cotangents.

    `pullback(cotangent, monitor=None)` takes a float64 array shaped like
    the step's state, or a float for a one-component state, and applies
    the reverse sweep without re-evaluating the field, so a rescale loop
    can retry with a halved cotangent at no field-eval cost.
    """

    increment: float | np.ndarray
    pullback: Callable[..., StepVjp]


def build_step_tape(
    scheme: Scheme,
    field: VelocityField,
    y: float | np.ndarray,
    t: float,
    h: float,
    theta_low: np.ndarray,
    fmt: FloatFormat,
    monitor: RangeMonitor | None = None,
) -> StepTape:
    """Evaluate one step's stages once and capture their pullbacks.

    The recomputed increment is bit-identical to `increment(...)`: both run
    the same stage routine.  The pullback is the reverse sweep of that
    routine.  Stage j's cotangent is b_j * cotangent plus a_ij h times the
    input cotangent of each later stage i that read k_j; the input, time,
    step and parameter cotangents of all stages are then summed in stage
    order.
    """
    tab = _TABLEAUX[scheme]
    dy, ks, pulls, weights = _stages(tab, field, y, t, h, theta_low, fmt, monitor)

    def pullback(cotangent, monitor=None) -> StepVjp:
        scaled = []
        for w in weights:
            scaled.append(mul(w, cotangent, fmt, monitor))
        gs = [None] * tab.stages
        for j, slot, consumers in tab.reverse:
            kbar = cotangent if slot is None else scaled[slot]
            for i, a in consumers:
                kbar = add(kbar, mul(a * h, gs[i].da, fmt, monitor), fmt, monitor)
            gs[j] = pulls[j](kbar, monitor)
        da, dt, dtheta = gs[0]
        for g in gs[1:]:
            da = add(da, g.da, fmt, monitor)
            dt = add(dt, g.dt, fmt, monitor)
            if field.dim_params:
                dtheta = _add_dtheta(dtheta, g.dtheta, fmt, monitor)
        dh = None
        for i, j, coef in tab.dh_terms:
            v = gs[i].dt if j is None else dot(ks[j], gs[i].da, fmt, monitor)
            if coef != 1.0:
                v = mul(coef, v, fmt, monitor)
            dh = v if dh is None else add(dh, v, fmt, monitor)
        return StepVjp(da, dt, 0.0 if dh is None else dh, dtheta)

    return StepTape(dy, pullback)

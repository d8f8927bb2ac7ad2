"""Whole solves against an independent rounder, bit for bit.

The rounding tests pin `quantize` and `dot` on synthetic inputs; a solve
mixes their fast paths (the split rounder and its slow path, native casts,
the native-dtype accumulate, bfloat16's per-float loop, the generated op
code) in whatever order its values call for.  Here `forward` and
`backward` run twice: as they are, and with every rounding done by
`_oracles.round_to_format` (integer significand arithmetic, no numpy) and
every `dot` a plain left-to-right loop that rounds each product and partial
sum.  The oracle side compiles the generated op programs with the oracle as
their rounder, so it never runs the inline split, and replaces `quantize`,
`dot` and `tanh` in the solve modules.  States, gradients, monitor counts
and the dynamic scales must agree to the byte.  An oracle that flushes
values below 2**-13 to zero must make every case differ, so the comparison
can see a wrong rounding.
"""
import collections
import functools
import math

import numpy as np
import pytest

from mpode import adjoint, dynamics, integrate
from mpode.adjoint import BackwardTrace, Objective, RunningCost, ScalingPolicy, backward, sgd_step
from mpode.dynamics import MlpField
from mpode.integrate import NonFiniteState, Scheme, TimeGrid, forward
from mpode.precision import BFLOAT16, FLOAT16, FLOAT32, FLOAT64, RangeMonitor
from mpode.runners import decay_benchmark

from _oracles import round_to_format
from test_adjoint import compile_ops_with


# round_to_format's results by format name and value.  A solve's backward
# recomputes its forward's stages, and a case's policies share its forward,
# so many roundings repeat.  Zeros and NaNs, which a dict cannot tell apart
# by sign, are not kept.
_ROUNDED: dict = collections.defaultdict(dict)


def oracle_ops(flush=0.0):
    """`quantize`, `dot` and `tanh` built on `round_to_format`; a nonzero
    `flush` sends every rounded magnitude below it to zero (a broken
    oracle).  The monitor counts follow `RangeMonitor`'s rules."""

    def round_one(x, fmt, monitor):
        if fmt.mantissa_bits == 52:  # float64 rounds nothing and counts nothing
            return x
        rounded = _ROUNDED[fmt.name]
        out = rounded.get(x)
        if out is None or x == 0.0:
            out = math.copysign(round_to_format(x, fmt.mantissa_bits, fmt.exponent_bits), x)
            if x == x and x != 0.0:
                rounded[x] = out
        if flush and abs(out) < flush:
            out = math.copysign(0.0, out)
        if monitor is not None and not fmt.min_normal <= abs(out) <= fmt.max_finite:
            if math.isinf(out) and math.isfinite(x):
                monitor.overflows += 1
            elif abs(out) < fmt.min_normal and (out != 0.0 or (x != 0.0 and math.isfinite(x))):
                monitor.underflows += 1
        return out

    def quantize(x, fmt, monitor=None):
        if isinstance(x, (float, int)):
            return round_one(float(x), fmt, monitor)
        x = np.asarray(x, dtype=np.float64)
        return np.array([round_one(v, fmt, monitor) for v in x.ravel().tolist()]).reshape(x.shape)

    def dot(a, b, fmt, monitor=None):
        if isinstance(a, float) and isinstance(b, float):
            return quantize(a * b, fmt, monitor)
        p = quantize(np.atleast_1d(np.multiply(a, b, dtype=np.float64)), fmt, monitor)
        acc = p[..., 0]
        for j in range(1, p.shape[-1]):
            acc = quantize(acc + p[..., j], fmt, monitor)
        return float(acc) if np.ndim(acc) == 0 else acc

    def tanh(a, fmt, monitor=None):
        return quantize(np.tanh(np.asarray(a, dtype=np.float64)), fmt, monitor)

    return quantize, dot, tanh


def terminal_objective(target=0.0, scale=1.0):
    return Objective(
        terminal=lambda y: 0.5 * float(np.sum((y - target) ** 2)),
        terminal_grad=lambda y: scale * (np.asarray(y, dtype=np.float64) - target),
    )


def solve(scheme, field, params, x, grid, fmt, high, policy, objective):
    """Yield the outputs of one forward and backward, forward first."""
    fwd_mon, bwd_mon, trace = RangeMonitor(), RangeMonitor(), BackwardTrace()
    traj = forward(scheme, field, x, grid, params, fmt, high, fwd_mon)
    yield "states", traj.states.tobytes() + traj.final_hp.tobytes()
    yield "forward counts", (fwd_mon.underflows, fwd_mon.overflows)
    grads = backward(
        scheme, field, traj, params, objective, ScalingPolicy.from_name(policy), fmt, high, bwd_mon, trace
    )
    for name in ("d_x", "d_theta", "d_t"):
        yield name, getattr(grads, name).tobytes()
    yield "backward counts", (bwd_mon.underflows, bwd_mon.overflows)
    yield "scales", (trace.scales, trace.rescale_counts, trace.doublings)


def decay(scheme, fmt, policy, high=FLOAT32, running=False):
    field, params, x, t_final = decay_benchmark()
    objective = terminal_objective()
    if running:
        objective.running = RunningCost(
            value=lambda t, y, th: 0.5 * float(np.dot(y, y)),
            grad_y=lambda t, y, th: np.asarray(y, dtype=np.float64)[..., 0],
            grad_theta=lambda t, y, th: np.asarray(th, dtype=np.float64),
        )
    return solve(scheme, field, params, x, TimeGrid.uniform(t_final, 400), fmt, high, policy, objective)


def mlp(fmt, policy, rows=None):
    field = MlpField((2, 8, 8, 2))
    x = np.array([0.5, -0.25]) if rows is None else np.random.default_rng(5).standard_normal((rows, 2))
    grid = TimeGrid.uniform(1.0, 64 if rows is None else 16)
    return solve(Scheme.RK4, field, field.init_params(0), x, grid, fmt, FLOAT32, policy, terminal_objective())


def sgd():
    """One loss-scaled SGD step on a float16 batch of four."""
    field = MlpField((2, 8, 2))
    rng = np.random.default_rng(9)
    xs, targets = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
    grid = TimeGrid.uniform(1.0, 16)

    def grad_fn(params, loss_scale, fmt):
        traj = forward(Scheme.RK4, field, xs, grid, params, fmt, FLOAT32)
        grads = backward(
            Scheme.RK4, field, traj, params, terminal_objective(targets, loss_scale),
            ScalingPolicy.unscaled_safe(), fmt, FLOAT32,
        )
        return grads.d_theta.sum(axis=0)

    out = sgd_step(field.init_params(0), grad_fn, 0.05, 1.0, 1e-4, FLOAT16)
    yield "params", out.params.master.tobytes()
    yield "step", (out.loss_scale, out.accepted, out.streak)


CASES = {
    **{
        f"decay-{scheme.value}-{fmt}-{policy}": functools.partial(decay, scheme, fmt, policy)
        for scheme in (Scheme.RK4, Scheme.EULER)
        for fmt in (FLOAT16, BFLOAT16)
        for policy in ("none", "dynamic")
    },
    **{f"mlp-rk4-{fmt}-{policy}": functools.partial(mlp, fmt, policy)
       for fmt in (FLOAT16, BFLOAT16) for policy in ("none", "dynamic")},
    "decay-rk4-float32-dynamic": functools.partial(decay, Scheme.RK4, FLOAT32, "dynamic", FLOAT64),
    "decay-rk4-float16-dynamic-running": functools.partial(decay, Scheme.RK4, FLOAT16, "dynamic", running=True),
    "mlp-rk4-float16-none-batch3": functools.partial(mlp, FLOAT16, "none", 3),
    "sgd-step-float16": sgd,
}


def outputs(case):
    """The outputs of `case` in order; an exception ends them."""
    try:
        yield from CASES[case]()
    except NonFiniteState as exc:
        yield "raised", (type(exc).__name__, exc.step)


@functools.lru_cache(maxsize=None)
def production(case):
    return list(outputs(case))


def with_oracle(monkeypatch, flush=0.0):
    """Route every rounding of a solve through the oracle ops."""
    quantize, dot, tanh = oracle_ops(flush)
    compile_ops_with(monkeypatch, quantize)
    for module in (dynamics, integrate, adjoint):
        monkeypatch.setattr(module, "quantize", quantize)
        monkeypatch.setattr(module, "dot", dot)
    monkeypatch.setattr(dynamics, "tanh", tanh)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", list(CASES))
def test_solve_matches_the_oracle_solve(case, monkeypatch):
    want = production(case)
    with_oracle(monkeypatch)
    got = list(outputs(case))
    assert [name for name, _ in got] == [name for name, _ in want]
    for (name, value), (_, expected) in zip(got, want):
        assert value == expected, (case, name)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", list(CASES))
def test_a_broken_oracle_differs(case, monkeypatch):
    want = production(case)
    with_oracle(monkeypatch, flush=2.0**-13)
    for (name, value), (_, expected) in zip(outputs(case), want):
        if value != expected:
            return
    pytest.fail(f"{case}: an oracle that flushes below 2**-13 gave the production outputs")

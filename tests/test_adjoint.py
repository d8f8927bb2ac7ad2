"""Backward-pass tests: scale management, accumulators, and update rule."""

import collections
import math
import operator
import sys
import time
import types
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpode import adjoint, dynamics, integrate, precision
from mpode.adjoint import (
    BackwardTrace,
    ExhaustedRescale,
    NonFiniteAccumulator,
    Objective,
    RunningCost,
    ScalingPolicy,
    backward,
    init_scale,
    MIN_LOSS_SCALE,
    objective_value,
    sgd_step,
    trapezoid_weights,
)
from mpode.dynamics import FieldVjp, LinearField, MlpField, Params, PolyDecayField, VelocityField
from mpode.integrate import NonFiniteState, Scheme, TimeGrid, forward
from mpode.oracles import fd_gradient
from mpode.precision import BFLOAT16, FLOAT16, FLOAT32, FLOAT64, OpProgram, RangeMonitor, get_format
from mpode.runners import decay_benchmark

from test_integrate import batch_problem, high_format, per_row_problem


def terminal_objective(factor=1.0):
    return Objective(
        terminal=lambda y: 0.5 * factor * float(np.dot(y, y)),
        terminal_grad=lambda y: factor * np.asarray(y, dtype=np.float64),
    )


def quadratic_running():
    return RunningCost(
        value=lambda t, y, th: 0.5 * float(np.dot(y, y)),
        grad_y=lambda t, y, th: np.asarray(y, dtype=np.float64),
    )


def mild_problem(n=32):
    field = PolyDecayField()
    params = Params([0.4, -1.1, 0.9])
    x = np.array([1.0])
    grid = TimeGrid.uniform(2.0, n)
    return field, params, x, grid


class TestInitScale:
    def test_unit_adjoint(self):
        # ||a|| = 1 in float16: the scale lifts it to exactly 1/u = 2^11
        assert init_scale(np.array([1.0]), FLOAT16) == 2.0**11

    def test_non_power_norm(self):
        s = init_scale(np.array([3.0]), FLOAT16)
        assert s == 2.0**9
        assert 2.0**10 < s * 3.0 <= 2.0**11

    def test_zero_adjoint(self):
        assert init_scale(np.zeros(3), FLOAT16) == 1.0

    def test_tiny_adjoint_gets_huge_scale(self):
        assert init_scale(np.array([2.0**-20]), FLOAT16) == 2.0**31

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            init_scale(np.array([np.inf]), FLOAT16)

    def test_subnormal_norms_get_the_capped_scale(self):
        # u * ||a|| underflows float64 for these norms, and 1 / (u * ||a||)
        # would pass float64's largest power of two.
        assert init_scale(5e-324, FLOAT16) == 2.0**1023
        assert init_scale(1e-300, FLOAT64) == 2.0**1023
        assert init_scale(2.0**-960, FLOAT64) == 2.0**1013  # just below the cap

    @given(
        st.floats(min_value=5e-324, max_value=1e300),
        st.sampled_from(["float16", "bfloat16", "float32", "float64"]),
    )
    def test_scale_is_a_finite_power_of_two_at_every_norm(self, norm, name):
        fmt = get_format(name)
        s = init_scale(norm, fmt)
        assert math.frexp(s)[0] == 0.5 and s <= 2.0**1023
        u = fmt.unit_roundoff
        assert s * norm <= 1.0 / u and (s == 2.0**1023 or 1.0 / (2.0 * u) < s * norm)

    @given(
        st.floats(min_value=1e-30, max_value=1e30),
        st.sampled_from(["float16", "bfloat16"]),
    )
    def test_scale_lands_in_half_open_band(self, norm, name):
        fmt = get_format(name)
        s = init_scale(np.array([norm]), fmt)
        f, _ = math.frexp(s)
        assert f == 0.5  # power of two
        u = fmt.unit_roundoff
        assert 1.0 / (2.0 * u) < s * norm <= 1.0 / u


class TestTrapezoid:
    def test_uniform_weights(self):
        w = trapezoid_weights(TimeGrid.uniform(1.0, 4))
        assert np.allclose(w, [0.125, 0.25, 0.25, 0.25, 0.125])
        assert w.sum() == pytest.approx(1.0)


class TestBackwardFloat64:
    def test_zero_field_passes_terminal_gradient_through(self):
        field = LinearField([[0.0]])
        x = np.array([2.5])
        traj = forward(Scheme.RK4, field, x, TimeGrid.uniform(1.0, 8), None, FLOAT16, FLOAT32)
        g = backward(
            Scheme.RK4, field, traj, None, terminal_objective(), ScalingPolicy.unscaled(),
            FLOAT16, FLOAT32,
        )
        assert g.d_x[0] == traj.states[-1][0]  # increment is zero everywhere
        assert not g.d_t.any()

    def test_euler_linear_closed_form(self):
        a_mat = np.array([[-0.3, 0.2], [0.1, -0.4]])
        field = LinearField(a_mat)
        x = np.array([1.0, -0.5])
        grid = TimeGrid.uniform(1.0, 20)
        traj = forward(Scheme.EULER, field, x, grid, None, FLOAT64, FLOAT64)
        g = backward(
            Scheme.EULER, field, traj, None, terminal_objective(), ScalingPolicy.unscaled(),
            FLOAT64, FLOAT64,
        )
        h = 1.0 / 20.0
        ref = traj.states[-1].copy()
        for _ in range(20):
            ref = ref + h * (a_mat.T @ ref)
        assert np.allclose(g.d_x, ref, rtol=1e-12)

    @pytest.mark.parametrize("scheme", [Scheme.EULER, Scheme.RK4], ids=["euler", "rk4"])
    @pytest.mark.parametrize("with_running", [False, True], ids=["terminal", "running"])
    def test_matches_finite_differences(self, scheme, with_running):
        field, params, x, grid = mild_problem(n=25)
        obj = terminal_objective()
        if with_running:
            obj = Objective(
                terminal=obj.terminal, terminal_grad=obj.terminal_grad, running=quadratic_running()
            )
        traj = forward(scheme, field, x, grid, params, FLOAT64, FLOAT64)
        g = backward(
            scheme, field, traj, params, obj, ScalingPolicy.unscaled(), FLOAT64, FLOAT64
        )
        d_x_fd, d_theta_fd = fd_gradient(scheme, field, x, grid, params, obj)
        assert np.allclose(g.d_x, d_x_fd, rtol=1e-6, atol=1e-10)
        assert np.allclose(g.d_theta, d_theta_fd, rtol=1e-6, atol=1e-10)

    def test_mlp_matches_finite_differences(self):
        field = MlpField((2, 4, 4, 2))
        params = field.init_params(1)
        x = np.array([0.6, -0.4])
        grid = TimeGrid.uniform(1.0, 10)
        traj = forward(Scheme.EULER, field, x, grid, params, FLOAT64, FLOAT64)
        g = backward(
            Scheme.EULER, field, traj, params, terminal_objective(), ScalingPolicy.unscaled(),
            FLOAT64, FLOAT64,
        )
        d_x_fd, d_theta_fd = fd_gradient(Scheme.EULER, field, x, grid, params, terminal_objective())
        assert np.allclose(g.d_x, d_x_fd, rtol=1e-6, atol=1e-9)
        assert np.allclose(g.d_theta, d_theta_fd, rtol=2e-6, atol=1e-8)

    def test_time_gradient_sums_to_shift_derivative(self):
        # moving every node together by s only changes the field's explicit
        # time dependence, so sum(d_t) = dL/ds; start above zero so the
        # shifted grids stay valid
        field, params = PolyDecayField(), Params([0.4, -1.1, 0.9])
        x = np.array([1.0])
        grid = TimeGrid(np.linspace(0.5, 2.0, 17))
        traj = forward(Scheme.RK4, field, x, grid, params, FLOAT64, FLOAT64)
        g = backward(
            Scheme.RK4, field, traj, params, terminal_objective(), ScalingPolicy.unscaled(),
            FLOAT64, FLOAT64,
        )
        eps = 1e-6
        shifted = [
            forward(
                Scheme.RK4, field, x, TimeGrid(grid.t + s), params, FLOAT64, FLOAT64
            ) for s in (eps, -eps)
        ]
        fd = (
            objective_value(terminal_objective(), shifted[0], params.master)
            - objective_value(terminal_objective(), shifted[1], params.master)
        ) / (2 * eps)
        assert np.isclose(g.d_t.sum(), fd, rtol=1e-5, atol=1e-10)

    @pytest.mark.parametrize("scheme", [Scheme.EULER, Scheme.RK4], ids=["euler", "rk4"])
    @pytest.mark.parametrize("field_name", ["polydecay", "mlp"])
    def test_each_time_gradient_matches_finite_differences(self, scheme, field_name):
        # Moving node i alone lengthens one step and shortens the next, so
        # d_t[i] carries the step-size cotangents (StepVjp.dh) of both; they
        # cancel in sum(d_t), which is all the shift test above sees.  RK4's
        # d_t scales with its local error, so the grid is coarse enough for
        # finite differences to resolve it.
        if field_name == "polydecay":
            field, params, x, grid = mild_problem(n=4)
        else:
            field = MlpField((2, 4, 4, 2))
            params = field.init_params(1)
            x = np.array([0.6, -0.4])
            grid = TimeGrid.uniform(1.0, 4)
        traj = forward(scheme, field, x, grid, params, FLOAT64, FLOAT64)
        g = backward(
            scheme, field, traj, params, terminal_objective(), ScalingPolicy.unscaled(),
            FLOAT64, FLOAT64,
        )
        eps = 1e-4
        fd = np.zeros(grid.n_steps - 1)
        for i in range(1, grid.n_steps):
            vals = []
            for s in (eps, -eps):
                t = grid.t.copy()
                t[i] += s
                moved = forward(scheme, field, x, TimeGrid(t), params, FLOAT64, FLOAT64)
                vals.append(objective_value(terminal_objective(), moved, params.master))
            fd[i - 1] = (vals[0] - vals[1]) / (2 * eps)
        assert np.allclose(g.d_t[1:-1], fd, rtol=1e-4, atol=0.0)


class TestScalingEquivalence:
    # With the terminal covector above 1/(2u) the doubling rule never fires,
    # so the whole run keeps one scale, far from both range boundaries: no
    # rescues, clean monitor, and power-of-two covariance is exact.

    def test_dynamic_equals_unscaled_bitwise_when_clean(self):
        field, params, x, grid = mild_problem()
        traj = forward(Scheme.RK4, field, x, grid, params, FLOAT16, FLOAT32)
        mon = RangeMonitor()
        g_dyn = backward(
            Scheme.RK4, field, traj, params, terminal_objective(factor=5000.0),
            ScalingPolicy.dynamic(), FLOAT16, FLOAT32, monitor=mon,
        )
        g_none = backward(
            Scheme.RK4, field, traj, params, terminal_objective(factor=5000.0),
            ScalingPolicy.unscaled(), FLOAT16, FLOAT32,
        )
        assert mon.clean
        assert np.array_equal(g_dyn.d_x, g_none.d_x)
        assert np.array_equal(g_dyn.d_theta, g_none.d_theta)
        assert np.array_equal(g_dyn.d_t, g_none.d_t)

    def test_doubled_scale_is_bit_identical(self):
        field, params, x, grid = mild_problem()
        traj = forward(Scheme.RK4, field, x, grid, params, FLOAT16, FLOAT32)
        results = []
        for mult in (1.0, 2.0):
            mon = RangeMonitor()
            trace = BackwardTrace()
            g = backward(
                Scheme.RK4, field, traj, params, terminal_objective(factor=5000.0),
                ScalingPolicy.dynamic(), FLOAT16, FLOAT32, monitor=mon, trace=trace,
                scale_multiplier=mult,
            )
            assert mon.clean
            assert trace.total_rescales == 0
            results.append(g)
        assert np.array_equal(results[0].d_x, results[1].d_x)
        assert np.array_equal(results[0].d_theta, results[1].d_theta)
        assert np.array_equal(results[0].d_t, results[1].d_t)

    def test_multiplier_must_be_power_of_two(self):
        field, params, x, grid = mild_problem(n=4)
        traj = forward(Scheme.EULER, field, x, grid, params, FLOAT16, FLOAT32)
        with pytest.raises(ValueError):
            backward(
                Scheme.EULER, field, traj, params, terminal_objective(),
                ScalingPolicy.dynamic(), FLOAT16, FLOAT32, scale_multiplier=3.0,
            )

    def test_trace_records_scales_in_forward_order(self):
        field, params, x, grid = mild_problem(n=8)
        traj = forward(Scheme.RK4, field, x, grid, params, FLOAT16, FLOAT32)
        trace = BackwardTrace()
        backward(
            Scheme.RK4, field, traj, params, terminal_objective(), ScalingPolicy.dynamic(),
            FLOAT16, FLOAT32, trace=trace,
        )
        assert len(trace.scales) == 8
        assert len(trace.rescale_counts) == 8
        assert all(s > 0 and math.frexp(s)[0] == 0.5 for s in trace.scales)


class TestOverflowHandling:
    def overflow_setup(self):
        # the terminal covector alone exceeds float16 range, so the unscaled
        # sweep starts from an infinite quantized cotangent while the
        # trajectory itself is tame
        field, params, x, grid = mild_problem(n=16)
        traj = forward(Scheme.RK4, field, x, grid, params, FLOAT16, FLOAT32)
        return field, params, traj, terminal_objective(factor=300000.0)

    def test_unscaled_safe_returns_all_inf(self):
        field, params, traj, obj = self.overflow_setup()
        g = backward(
            Scheme.RK4, field, traj, params, obj, ScalingPolicy.unscaled_safe(),
            FLOAT16, FLOAT32,
        )
        assert np.all(np.isinf(g.d_theta))

    def test_dynamic_stays_finite_on_same_problem(self):
        field, params, traj, obj = self.overflow_setup()
        g = backward(
            Scheme.RK4, field, traj, params, obj, ScalingPolicy.dynamic(), FLOAT16, FLOAT32
        )
        assert np.all(np.isfinite(g.d_theta)) and np.all(np.isfinite(g.d_x))
        # the safe-policy gradient direction survives scaling: compare with
        # the plain float64 gradient of the same scaled objective
        ref = backward(
            Scheme.RK4, field, traj, params, obj, ScalingPolicy.unscaled(), FLOAT64, FLOAT64
        )
        assert np.allclose(g.d_theta, ref.d_theta, rtol=0.05)

    def test_rescue_reuses_tape_field_evals(self):
        field, params, x, grid = mild_problem(n=12)
        traj = forward(Scheme.RK4, field, x, grid, params, FLOAT16, FLOAT32)
        field.eval_count = 0
        trace = BackwardTrace()
        backward(
            Scheme.RK4, field, traj, params, terminal_objective(), ScalingPolicy.dynamic(),
            FLOAT16, FLOAT32, trace=trace, scale_multiplier=2.0**14,
        )
        assert trace.total_rescales > 0  # the inflated scale forced rescues
        assert field.eval_count == 12 * 4  # and none of them re-evaluated


    @pytest.mark.parametrize("policy", [ScalingPolicy.unscaled(), ScalingPolicy.dynamic()],
                             ids=lambda p: p.kind.value)
    @pytest.mark.parametrize("dim", [1, 2])
    def test_overflowing_solve_warns_nothing(self, policy, dim):
        # `quantize` lets numpy's overflow warnings reach direct callers
        # (its docstring says which paths); forward and backward silence
        # them, on the float path (dim 1) and the array path (dim 2) alike.
        if dim == 1:
            field, params, x = PolyDecayField(), Params([0.4, -1.1, 0.9]), np.array([1.0])
            bad_params, bad_x = Params([1e6, 0.0, 0.0]), x
        else:
            field, params, x = LinearField([[-0.2, 1.0], [-1.0, -0.2]]), None, np.array([1.0, -1.0])
            bad_params, bad_x = None, np.array([6e4, 6e4])
        grid = TimeGrid.uniform(1.0, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState):
                forward(Scheme.RK4, field, bad_x, grid, bad_params, FLOAT16, FLOAT32)
            traj = forward(Scheme.RK4, field, x, grid, params, FLOAT16, FLOAT32)
            g = backward(Scheme.RK4, field, traj, params, terminal_objective(factor=300000.0),
                         policy, FLOAT16, FLOAT32)
        finite = np.all(np.isfinite(g.d_x))
        assert finite == (policy.kind is not adjoint.PolicyKind.UNSCALED)


class TestRangeCounts:
    """RangeMonitor counts of the forward and backward sweeps on the decay
    benchmark, and proof that attaching a monitor changes no result.

    RK4, N = 400, high format float32.  The monitor sees every quantization
    of the sweep, rescue probes included, so under `dynamic` the overflows
    are mostly discarded probes.
    """

    @pytest.fixture(scope="class")
    def trajectories(self):
        field, params, x, t_final = decay_benchmark()
        grid = TimeGrid.uniform(t_final, 400)
        return {
            fmt.name: (field, params, forward(Scheme.RK4, field, x, grid, params, fmt, FLOAT32))
            for fmt in (FLOAT16, BFLOAT16)
        }

    @pytest.mark.parametrize(
        "fmt, policy, counts",
        [
            ("float16", "none", (3301, 0, 0, 0)),
            ("float16", "safe", (3301, 0, 0, 0)),
            ("float16", "dynamic", (30, 379, 196, 205)),
            ("bfloat16", "none", (0, 0, 0, 0)),
            ("bfloat16", "dynamic", (0, 303, 139, 263)),
        ],
    )
    def test_counts_are_pinned(self, trajectories, fmt, policy, counts):
        field, params, traj = trajectories[fmt]
        monitor, trace = RangeMonitor(), BackwardTrace()
        args = (
            Scheme.RK4, field, traj, params, terminal_objective(),
            ScalingPolicy.from_name(policy), get_format(fmt), FLOAT32,
        )
        watched = backward(*args, monitor, trace)
        got = (monitor.underflows, monitor.overflows, trace.total_rescales, trace.doublings)
        assert got == counts
        plain = backward(*args)
        for name in ("d_x", "d_theta", "d_t"):
            assert getattr(watched, name).tobytes() == getattr(plain, name).tobytes()

    @pytest.mark.parametrize("fmt, counts", [("float16", (8, 0)), ("bfloat16", (0, 0))])
    def test_forward_counts_are_pinned(self, trajectories, fmt, counts):
        field, params, plain = trajectories[fmt]
        monitor = RangeMonitor()
        x = decay_benchmark()[2]
        watched = forward(Scheme.RK4, field, x, plain.grid, params, get_format(fmt), FLOAT32, monitor)
        assert (monitor.underflows, monitor.overflows) == counts
        assert watched.states.tobytes() == plain.states.tobytes()
        assert watched.final_hp.tobytes() == plain.final_hp.tobytes()


class TestBatch:
    """One batched reverse sweep against each row's own sweep, bit for bit."""

    @pytest.mark.parametrize("batch", [1, 3, 16])
    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    @pytest.mark.parametrize("field_name", ["linear", "mlp"])
    @pytest.mark.parametrize("fmt", [FLOAT16, BFLOAT16, FLOAT32, FLOAT64], ids=str)
    @pytest.mark.parametrize("policy", ["none", "safe"])
    def test_each_row_is_its_own_backward(self, batch, scheme, field_name, fmt, policy):
        field, params, xs = batch_problem(field_name, batch)
        grid = TimeGrid.uniform(1.0, 6)
        args = (terminal_objective(), ScalingPolicy.from_name(policy), fmt, high_format(fmt))
        traj = forward(scheme, field, xs, grid, params, fmt, high_format(fmt))
        mon = RangeMonitor()
        grads = backward(scheme, field, traj, params, *args, mon)
        assert grads.d_x.shape == (batch, 2)
        assert grads.d_theta.shape == (batch, field.dim_params)
        assert grads.d_t.shape == (7, batch)
        counts = [0, 0]
        for r, x in enumerate(xs):
            alone = forward(scheme, field, x, grid, params, fmt, high_format(fmt))
            row_mon = RangeMonitor()
            want = backward(scheme, field, alone, params, *args, row_mon)
            assert grads.d_x[r].tobytes() == want.d_x.tobytes()
            assert grads.d_theta[r].tobytes() == want.d_theta.tobytes()
            assert grads.d_t[:, r].tobytes() == want.d_t.tobytes()
            counts[0] += row_mon.underflows
            counts[1] += row_mon.overflows
        assert np.isfinite(grads.d_theta).all()  # so `safe` took no early exit
        assert [mon.underflows, mon.overflows] == counts
        if fmt is FLOAT16 and batch > 1:
            assert counts[0] > 0  # the count comparison saw range events

    @pytest.mark.parametrize("field_name", ["linear", "mlp"])
    @pytest.mark.parametrize("fmt", [FLOAT16, FLOAT64], ids=str)
    def test_grad_theta_running_cost_keeps_the_batch_axis(self, field_name, fmt):
        # `grad_theta` returns the shared parameters' shape, (n_params,);
        # d_theta is still (B, n_params), an empty one for a LinearField.
        field, params, xs = batch_problem(field_name, 3)
        grid = TimeGrid.uniform(1.0, 6)
        objective = terminal_objective()
        objective.running = RunningCost(
            value=lambda t, y, th: 0.5 * float(np.sum(y * y) + np.dot(th, th)),
            grad_y=lambda t, y, th: np.asarray(y, dtype=np.float64),
            grad_theta=lambda t, y, th: np.asarray(th, dtype=np.float64),
        )
        args = (objective, ScalingPolicy.unscaled(), fmt, high_format(fmt))
        traj = forward(Scheme.RK4, field, xs, grid, params, fmt, high_format(fmt))
        grads = backward(Scheme.RK4, field, traj, params, *args)
        assert grads.d_theta.shape == (3, field.dim_params)
        for r, x in enumerate(xs):
            alone = forward(Scheme.RK4, field, x, grid, params, fmt, high_format(fmt))
            want = backward(Scheme.RK4, field, alone, params, *args)
            assert want.d_theta.shape == (field.dim_params,)
            assert grads.d_x[r].tobytes() == want.d_x.tobytes()
            assert grads.d_theta[r].tobytes() == want.d_theta.tobytes()
            assert grads.d_t[:, r].tobytes() == want.d_t.tobytes()

    def test_batch_of_one_under_dynamic(self):
        field, params, xs = batch_problem("mlp", 1)
        grid = TimeGrid.uniform(1.0, 6)
        args = (terminal_objective(1e4), ScalingPolicy.dynamic(), FLOAT16, FLOAT32)
        batched, alone = BackwardTrace(), BackwardTrace()
        traj = forward(Scheme.RK4, field, xs, grid, params, FLOAT16, FLOAT32)
        grads = backward(Scheme.RK4, field, traj, params, *args, trace=batched)
        traj = forward(Scheme.RK4, field, xs[0], grid, params, FLOAT16, FLOAT32)
        want = backward(Scheme.RK4, field, traj, params, *args, trace=alone)
        assert grads.d_x[0].tobytes() == want.d_x.tobytes()
        assert grads.d_theta[0].tobytes() == want.d_theta.tobytes()
        assert grads.d_t[:, 0].tobytes() == want.d_t.tobytes()
        assert batched.scales == alone.scales and batched.doublings == alone.doublings

    def test_dynamic_rejects_a_batch_before_any_work(self):
        field, params, xs = batch_problem("mlp", 3)
        traj = forward(Scheme.EULER, field, xs, TimeGrid.uniform(1.0, 4), params, FLOAT16, FLOAT32)
        evals = field.eval_count
        with pytest.raises(ValueError, match="batch of 3"):
            backward(
                Scheme.EULER, field, traj, params, terminal_objective(),
                ScalingPolicy.dynamic(), FLOAT16, FLOAT32,
            )
        assert field.eval_count == evals

    def test_safe_non_finite_row_fails_the_whole_batch(self):
        # Row 1's adjoint overflows float16 while the other rows' stay small.
        field, params, xs = batch_problem("mlp", 3)
        grid = TimeGrid.uniform(1.0, 4)
        boost = np.array([[1.0], [1e6], [1.0]])
        objective = Objective(terminal=lambda y: 0.0, terminal_grad=lambda y: boost * y)
        args = (objective, ScalingPolicy.unscaled_safe(), FLOAT16, FLOAT32)
        traj = forward(Scheme.EULER, field, xs, grid, params, FLOAT16, FLOAT32)
        grads = backward(Scheme.EULER, field, traj, params, *args)
        assert grads.d_theta.shape == (3, field.dim_params)
        assert np.isposinf(grads.d_theta).all()
        row0 = Objective(terminal=lambda y: 0.0, terminal_grad=lambda y: y)
        alone = forward(Scheme.EULER, field, xs[0], grid, params, FLOAT16, FLOAT32)
        want = backward(Scheme.EULER, field, alone, params, row0, *args[1:])
        assert np.isfinite(want.d_theta).all()

    def test_batched_gradients_csv_raises(self, tmp_path):
        field, params, xs = batch_problem("linear", 2)
        traj = forward(Scheme.EULER, field, xs, TimeGrid.uniform(1.0, 2), params, FLOAT64, FLOAT64)
        grads = backward(
            Scheme.EULER, field, traj, params, terminal_objective(),
            ScalingPolicy.unscaled(), FLOAT64, FLOAT64,
        )
        with pytest.raises(ValueError, match="batch of 2"):
            grads.to_csv(tmp_path / "g.csv")
        assert not (tmp_path / "g.csv").exists()


class TestPerRowParams:
    """A batched sweep with one Params per row against each row's own sweep."""

    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    @pytest.mark.parametrize("fmt", [FLOAT16, BFLOAT16, FLOAT64], ids=str)
    @pytest.mark.parametrize("policy", ["none", "safe"])
    def test_each_row_is_its_own_backward(self, scheme, fmt, policy):
        field, params, xs = per_row_problem(3)
        grid = TimeGrid.uniform(1.0, 6)
        args = (terminal_objective(), ScalingPolicy.from_name(policy), fmt, high_format(fmt))
        traj = forward(scheme, field, xs, grid, params, fmt, high_format(fmt))
        grads = backward(scheme, field, traj, params, *args)
        assert grads.d_theta.shape == (3, field.dim_params)
        for r, x in enumerate(xs):
            alone = forward(scheme, field, x, grid, params[r], fmt, high_format(fmt))
            want = backward(scheme, field, alone, params[r], *args)
            assert grads.d_x[r].tobytes() == want.d_x.tobytes()
            assert grads.d_theta[r].tobytes() == want.d_theta.tobytes()
            assert grads.d_t[:, r].tobytes() == want.d_t.tobytes()
        assert np.isfinite(grads.d_theta).all()  # so `safe` took no early exit

    @pytest.mark.parametrize(
        "rows, count", [(3, 2), (3, 4), (None, 2)], ids=["too-few", "too-many", "one-state"]
    )
    def test_count_checked_before_any_work(self, rows, count):
        field, params, xs = per_row_problem(4)
        x = xs[0] if rows is None else xs[:rows]
        traj = forward(Scheme.EULER, field, x, TimeGrid.uniform(1.0, 2), params[0], FLOAT16, FLOAT32)
        evals = field.eval_count
        with pytest.raises(ValueError, match="per-row parameters take one per row"):
            backward(
                Scheme.EULER, field, traj, params[:count], terminal_objective(),
                ScalingPolicy.unscaled(), FLOAT16, FLOAT32,
            )
        assert field.eval_count == evals


class ArrayDthetaPolyDecay(PolyDecayField):
    """`PolyDecayField` whose float pullback hands back `dtheta` as an
    array, the form the step tape and `backward` sum with array ops."""

    def _linearize(self, t, y, theta, fmt, monitor):
        f, pull = super()._linearize(t, y, theta, fmt, monitor)

        def array_pull(cotangent, monitor=None):
            v = pull(cotangent, monitor)
            return v._replace(dtheta=np.array(v.dtheta))

        return f, array_pull


def theta_running():
    """0.5 * (y.y + theta.theta), with `grad_theta`.  Its `grad_y` drops the
    state axis of a one-component state, so a float adjoint stays a float."""
    return RunningCost(
        value=lambda t, y, th: 0.5 * float(np.dot(y, y) + np.dot(th, th)),
        grad_y=lambda t, y, th: np.asarray(y, dtype=np.float64)[..., 0],
        grad_theta=lambda t, y, th: np.asarray(th, dtype=np.float64),
    )


def one_component_runs(field_name):
    """Two solves that must round alike, as (field, params, x), their grid
    and their terminal factor.  A `(1,)` state solves on floats and its
    batch of one `(1, 1)` on arrays.  `PolyDecayField` takes no batch: its
    float path is set against `ArrayDthetaPolyDecay`'s on the decay
    benchmark, whose float16 solves overflow and rescue."""
    if field_name == "polydecay":
        _, params, x, t_final = decay_benchmark()
        runs = [(PolyDecayField(), params, x), (ArrayDthetaPolyDecay(), params, x)]
        return runs, TimeGrid.uniform(t_final, 24), 1.0
    x = np.array([3e-6])
    if field_name == "linear":
        field, params = LinearField([[-1.0]]), None
    else:
        field = MlpField((1, 4, 1))
        params = field.init_params(0)
    return [(field, params, x), (field, params, x[None])], TimeGrid.uniform(1.0, 6), 1e4


class StateTypeProgram(OpProgram):
    """A copy of an op program whose compiled `forward` records the type of
    the state of each call in `seen`."""

    def __init__(self, program, seen):
        super().__init__(program.name, program.source)
        self.seen = seen

    def compile(self, fmt=None, rounder=None):
        ops = super().compile(fmt, rounder)
        forward = ops.forward

        def spy(t, y, *args):
            self.seen.append(type(y))
            return forward(t, y, *args)

        return types.SimpleNamespace(forward=spy, pullback=ops.pullback)


def state_types(field, monkeypatch):
    """Record the type of the state each evaluation of `field` receives: at
    its compiled op program where its class has one, which a one-component
    solve calls without `linearize`, else at each `linearize` call."""
    seen = []
    program = type(field).program
    if program is not None:
        monkeypatch.setattr(type(field), "program", StateTypeProgram(program, seen))
        return seen
    linearize = field.linearize

    def spy(t, y, *args):
        seen.append(type(y))
        return linearize(t, y, *args)

    field.linearize = spy
    return seen


def compile_ops_with(monkeypatch, rounder):
    """Compile every op program's ops in a format as `rounder(expr, fmt,
    monitor)` calls, the generated code's one seam for a test rounder."""
    compile_ops = OpProgram.compile

    def compile_with(self, fmt=None, _=None):
        return compile_ops(self, fmt, None if fmt is None else rounder)

    monkeypatch.setattr(OpProgram, "compile", compile_with)


def quantize_operand_types(monkeypatch):
    """Record the input type of every `quantize` call the solve modules make
    for a rounded op: all but the roundings of the parameters (`Params.low`)
    and of a running cost's partials (`cost_partial`), which take arrays."""
    seen = []

    def spy(x, *args):
        if sys._getframe(1).f_code.co_name not in ("low", "cost_partial"):
            seen.append(type(x))
        return precision.quantize(x, *args)

    for module in (dynamics, integrate, adjoint):
        monkeypatch.setattr(module, "quantize", spy)
    return seen


RUNNING_COSTS = {"terminal": lambda: None, "running": quadratic_running, "grad_theta": theta_running}


class TestOneComponentFloatPath:
    """A `(1,)` state solves on floats; its batch of one `(1, 1)` on arrays,
    and a `PolyDecayField` state with `dtheta` summed as arrays.  Both must
    round every op alike: same bits, same monitor counts, same rescues."""

    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    @pytest.mark.parametrize("field_name", ["linear", "mlp", "polydecay"])
    @pytest.mark.parametrize("fmt", [FLOAT16, BFLOAT16, FLOAT32], ids=str)
    @pytest.mark.parametrize("policy", ["none", "safe", "dynamic"])
    @pytest.mark.parametrize("running", list(RUNNING_COSTS))
    def test_float_path_matches_batch_of_one(self, monkeypatch, scheme, field_name, fmt, policy, running):
        runs, grid, factor = one_component_runs(field_name)
        objective = terminal_objective(factor)
        objective.running = RUNNING_COSTS[running]()
        args = (objective, ScalingPolicy.from_name(policy), fmt, FLOAT32)
        operands = quantize_operand_types(monkeypatch)
        results = []
        for k, (field, params, x) in enumerate(runs):
            seen = state_types(field, monkeypatch)
            fwd_mon, bwd_mon, trace = RangeMonitor(), RangeMonitor(), BackwardTrace()
            traj = forward(scheme, field, x, grid, params, fmt, FLOAT32, fwd_mon)
            forward_seen = seen[:]
            operands.clear()
            grads = backward(scheme, field, traj, params, *args, bwd_mon, trace)
            if field_name == "polydecay" and k == 0:
                # Every value of its sweep, a running cost's partials
                # included, is a float: no rounded op gets an array.
                assert operands and np.ndarray not in operands, running
            assert seen[0] is seen[len(forward_seen)] is (float if x.ndim == 1 else np.ndarray)
            assert grads.d_x.shape == x.shape and traj.final_hp.shape == x.shape
            assert grads.d_theta.dtype == np.float64
            results.append((traj, grads, fwd_mon, bwd_mon, trace))
        (traj, grads, fwd_mon, bwd_mon, trace), (btraj, bgrads, bfwd_mon, bbwd_mon, btrace) = results
        assert traj.states.tobytes() == btraj.states.tobytes()
        assert traj.final_hp.tobytes() == btraj.final_hp.tobytes()
        assert grads.d_theta.shape == (runs[0][0].dim_params,)
        for name in ("d_x", "d_theta", "d_t"):
            # The polydecay float16 `none` sweeps with a running cost make
            # NaNs of both signs, which `Gradients` holds as `np.nan`.
            assert getattr(grads, name).tobytes() == getattr(bgrads, name).tobytes(), name
        assert (fwd_mon.underflows, fwd_mon.overflows) == (bfwd_mon.underflows, bfwd_mon.overflows)
        assert (bwd_mon.underflows, bwd_mon.overflows) == (bbwd_mon.underflows, bbwd_mon.overflows)
        assert (trace.scales, trace.rescale_counts, trace.doublings) == (
            btrace.scales, btrace.rescale_counts, btrace.doublings
        )
        if fmt is FLOAT16:
            assert fwd_mon.underflows > 0  # the count comparisons saw range events
            if field_name == "polydecay" and policy == "dynamic":
                assert trace.total_rescales > 0 and bwd_mon.overflows > 0

    @pytest.mark.parametrize("running", ["terminal", "grad_theta"])
    def test_mlp_parameter_accumulator_stays_on_floats(self, monkeypatch, running):
        # `MlpField` hands back an array `dtheta` for a float state; the
        # sweep's parameter accumulator still sums it one float at a time,
        # so no rounded op of the accumulator sees a tuple and an array.
        [(field, params, x), (_, _, bx)], grid, factor = one_component_runs("mlp")
        objective = terminal_objective(factor)
        objective.running = RUNNING_COSTS[running]()
        rest = (params, objective, ScalingPolicy.dynamic(), FLOAT16, FLOAT32)
        btraj = forward(Scheme.RK4, field, bx, grid, params, FLOAT16, FLOAT32)
        bgrads = backward(Scheme.RK4, field, btraj, *rest)
        sums, operands, depth = [], [], []
        add_dtheta, real = adjoint._add_dtheta, precision.quantize

        def sweep_add(acc, d, *args):
            depth.append(1)
            try:
                out = add_dtheta(acc, d, *args)
            finally:
                depth.pop()
            sums.append(out)
            return out

        def spy(x, *args):
            if depth:
                operands.append(type(x))
            return real(x, *args)

        monkeypatch.setattr(adjoint, "_add_dtheta", sweep_add)
        monkeypatch.setattr(integrate, "quantize", spy)
        traj = forward(Scheme.RK4, field, x, grid, params, FLOAT16, FLOAT32)
        grads = backward(Scheme.RK4, field, traj, *rest)
        assert len(sums) == grid.n_steps * (2 if running == "grad_theta" else 1)
        assert all(type(g) is tuple and {type(q) for q in g} == {float} for g in sums)
        assert operands and set(operands) == {float}
        assert grads.d_theta.tobytes() == bgrads.d_theta[0].tobytes()
        assert grads.d_x.tobytes() == bgrads.d_x[0].tobytes() and grads.d_t.tobytes() == bgrads.d_t[:, 0].tobytes()


class TestLockstep:
    """Several policies' reverse sweeps over one step tape per step: each
    outcome is that policy's own `backward`, bit for bit, and the whole
    sweep evaluates the field as often as one `backward` does."""

    def check(self, scheme, field, traj, params, objective, policies, fmt, high=FLOAT32):
        traces = [BackwardTrace() for _ in policies]
        evals = field.eval_count
        outcomes = adjoint._lockstep(
            scheme, field, traj, params, objective, policies, fmt, high, traces=traces
        )
        assert field.eval_count - evals == traj.grid.n_steps * scheme.stages
        for policy, trace, got in zip(policies, traces, outcomes):
            alone = BackwardTrace()
            try:
                want = backward(scheme, field, traj, params, objective, policy, fmt, high, trace=alone)
            except (ExhaustedRescale, NonFiniteAccumulator) as exc:
                want = exc
            if isinstance(want, Exception):
                assert (type(got), got.step) == (type(want), want.step)
            else:
                for name in ("d_x", "d_theta", "d_t"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert (trace.scales, trace.rescale_counts, trace.doublings) == (
                alone.scales, alone.rescale_counts, alone.doublings
            )
        return outcomes, traces

    @pytest.mark.parametrize("fmt", [FLOAT16, BFLOAT16], ids=str)
    def test_decay_benchmark_policies(self, fmt):
        field, params, x, t_final = decay_benchmark()
        traj = forward(Scheme.RK4, field, x, TimeGrid.uniform(t_final, 150), params, fmt, FLOAT32)
        policies = [ScalingPolicy.from_name(p) for p in ("none", "safe", "dynamic")]
        policies.append(ScalingPolicy.dynamic(k_max=1))  # cannot rescue, so it drops out
        outcomes, traces = self.check(Scheme.RK4, field, traj, params, terminal_objective(), policies, fmt)
        assert traces[2].total_rescales > 0
        assert isinstance(outcomes[3], ExhaustedRescale)

    @pytest.mark.parametrize("fmt", [FLOAT16, FLOAT64], ids=str)
    def test_batched_mlp(self, fmt):
        field, params, xs = batch_problem("mlp", 3)
        traj = forward(Scheme.RK4, field, xs, TimeGrid.uniform(1.0, 6), params, fmt, high_format(fmt))
        policies = [ScalingPolicy.unscaled(), ScalingPolicy.unscaled_safe()]
        self.check(Scheme.RK4, field, traj, params, terminal_objective(), policies, fmt, high_format(fmt))

    def test_safe_returns_early_and_the_others_go_on(self):
        # As in TestOverflowHandling: the terminal covector overflows float16.
        field, params, x, grid = mild_problem(n=16)
        traj = forward(Scheme.RK4, field, x, grid, params, FLOAT16, FLOAT32)
        policies = [ScalingPolicy.from_name(p) for p in ("safe", "none", "dynamic")]
        outcomes, _ = self.check(
            Scheme.RK4, field, traj, params, terminal_objective(300000.0), policies, FLOAT16
        )
        assert np.isinf(outcomes[0].d_theta).all()
        assert np.isfinite(outcomes[2].d_x).all() and np.isfinite(outcomes[2].d_theta).all()

    @pytest.mark.parametrize("batched_sweeps", [2, 5, 40, 80])
    def test_nan_signs_do_not_depend_on_earlier_sweeps(self, batched_sweeps):
        # Batched sweeps first run the sweep's sums on arrays, which changes
        # how the interpreter runs those lines on floats next; the none
        # sweep adds NaNs of both signs, and its lockstep and lone results
        # must still agree bit for bit.
        field, params, xs = batch_problem("linear", 3)
        traj = forward(Scheme.EULER, field, xs, TimeGrid.uniform(1.0, 4), params, FLOAT16, FLOAT32)
        for _ in range(batched_sweeps):
            backward(Scheme.EULER, field, traj, params, terminal_objective(), ScalingPolicy.unscaled(), FLOAT16, FLOAT32)
        self.test_safe_returns_early_and_the_others_go_on()

    def test_value_error_before_any_work(self):
        field, params, xs = batch_problem("mlp", 3)
        traj = forward(Scheme.EULER, field, xs, TimeGrid.uniform(1.0, 4), params, FLOAT16, FLOAT32)
        evals = field.eval_count
        with pytest.raises(ValueError, match="batch of 3"):
            adjoint._lockstep(
                Scheme.EULER, field, traj, params, terminal_objective(),
                [ScalingPolicy.unscaled(), ScalingPolicy.dynamic()], FLOAT16, FLOAT32,
            )
        assert field.eval_count == evals


def test_bfloat16_mlp_step_costs_at_most_six_float16_steps():
    # bfloat16 has no native dtype, so its arrays of up to 8 elements round
    # in Python one float at a time; rounding them in numpy's frexp/ldexp
    # code made a 2-8-8-2 RK4 step 6.7 to 7.9 times a float16 one, against
    # 3.5 to 4.9 times here (best of 5 runs each, interleaved).
    field = MlpField((2, 8, 8, 2))
    params = field.init_params(0)
    grid = TimeGrid.uniform(1.0, 16)
    best = {BFLOAT16: math.inf, FLOAT16: math.inf}
    for _ in range(5):
        for fmt in best:
            start = time.process_time()
            traj = forward(Scheme.RK4, field, np.array([0.5, -0.25]), grid, params, fmt, FLOAT32)
            backward(Scheme.RK4, field, traj, params, terminal_objective(), ScalingPolicy.unscaled(), fmt, FLOAT32)
            best[fmt] = min(best[fmt], time.process_time() - start)
    assert best[BFLOAT16] <= 6.0 * best[FLOAT16], best


class TestRoundingCallCount:
    @pytest.mark.parametrize("monitored", [False, True], ids=["unmonitored", "monitored"])
    def test_mlp_euler_step_quantize_calls(self, monkeypatch, monitored):
        # Exact on any host.  A float16 dot of arrays rounds its products
        # and partial sums by native casts without calling quantize, with or
        # without a monitor.  A monitor range-checks both at once and
        # observes each of the two with one call only when a value is
        # outside the normal range, zeros included.  Here only the first
        # layer's forward dot does, in the forward and in the backward's
        # recomputation: its t = 0 column gives zero products.
        # A per-column rounding loop in dot would add a call per input
        # column of every layer.  Every other rounded op is one quantize
        # call, float or array: the step size h (once in each pass) and the
        # backward's five time-gradient roundings each count one.  A float
        # in the normal range, or a zero such as h * dh or the time t = 0,
        # returns before the monitor.  The field's `dt` and the
        # time-gradient accumulator are Python floats in an unbatched
        # sweep, so those sums take the float path.
        calls, observed = [], []
        real, real_observe = precision.quantize, RangeMonitor.observe

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        def counting_observe(self, *args):
            observed.append(1)
            return real_observe(self, *args)

        for module in (precision, dynamics, integrate, adjoint):
            monkeypatch.setattr(module, "quantize", counting)
        monkeypatch.setattr(RangeMonitor, "observe", counting_observe)
        monitor = RangeMonitor() if monitored else None
        field = MlpField((2, 16, 16, 2))
        params = field.init_params(0)
        grid = TimeGrid.uniform(1.0, 1)
        traj = forward(
            Scheme.EULER, field, np.array([0.5, -0.25]), grid, params, FLOAT16, FLOAT32, monitor=monitor
        )
        assert (len(calls), len(observed)) == ((14, 7) if monitored else (14, 0))
        backward(
            Scheme.EULER, field, traj, params, terminal_objective(),
            ScalingPolicy.unscaled(), FLOAT16, FLOAT32, monitor=monitor,
        )
        assert (len(calls), len(observed)) == ((43, 24) if monitored else (43, 0))

    def test_unbatched_mlp_backward_hands_quantize_no_numpy_scalars(self, monkeypatch):
        # An unbatched multi-component sweep sums the field's `dt` and its
        # time gradient as Python floats, so no np.float64 scalar misses
        # the float ops' fast path and reaches quantize; the gradients are
        # those of the same row swept as a batch of one, on arrays.
        types = []
        real = precision.quantize

        def spy(x, *args, **kwargs):
            types.append(type(x))
            return real(x, *args, **kwargs)

        for module in (precision, dynamics, integrate, adjoint):
            monkeypatch.setattr(module, "quantize", spy)
        field = MlpField((2, 16, 16, 2))
        params = field.init_params(0)
        grid = TimeGrid.uniform(1.0, 8)
        rest = (params, terminal_objective(), ScalingPolicy.unscaled(), FLOAT16, FLOAT32)
        x = np.array([0.5, -0.25])
        traj = forward(Scheme.RK4, field, x, grid, params, FLOAT16, FLOAT32)
        types.clear()
        grads = backward(Scheme.RK4, field, traj, *rest)
        assert types and np.float64 not in types
        btraj = forward(Scheme.RK4, field, x[None], grid, params, FLOAT16, FLOAT32)
        bgrads = backward(Scheme.RK4, field, btraj, *rest)
        assert grads.d_x.tobytes() == bgrads.d_x[0].tobytes()
        assert grads.d_theta.tobytes() == bgrads.d_theta[0].tobytes()
        assert grads.d_t.tobytes() == bgrads.d_t[:, 0].tobytes()

    def test_polydecay_rk4_step_observes_only_roundings_out_of_range(self, monkeypatch):
        # A one-component step runs on floats, the pullback's parameter
        # cotangents included, so no monitored op gets an array: a rounded
        # float whose exact value is in [min_normal, max_finite], is zero,
        # inf or NaN never reaches the monitor, and every other one (a
        # finite nonzero value out of range) reaches it once.
        # The step's generated ops are compiled to call a tallying
        # `quantize` with their exact value, and each monitored op that the
        # modules call is wrapped to redo it; then the generated code with
        # its inline rounding must observe exactly as often.
        exact = {"quantize": (1, lambda x: x), "add": (2, operator.add), "sub": (2, operator.sub),
                 "mul": (2, operator.mul), "dot": (2, operator.mul)}
        tally = {"inside": 0, "zero": 0, "outside": 0, "inf or nan": 0, "arrays": 0}
        observed = []
        real_observe = RangeMonitor.observe

        def counting_observe(self, *args):
            observed.append(1)
            return real_observe(self, *args)

        def tallying(name, fn):
            arity, value = exact[name]

            def op(*args):
                fmt, monitor = (*args[arity:], None)[:2]
                if monitor is not None:
                    x = value(*args[:arity])
                    if type(x) is not float:
                        tally["arrays"] += 1
                    elif x == 0.0:
                        tally["zero"] += 1
                    elif x - x != 0.0:
                        tally["inf or nan"] += 1
                    else:
                        tally["inside" if fmt.min_normal <= abs(x) <= fmt.max_finite else "outside"] += 1
                return fn(*args)
            return op

        def solve():
            field, params, x, _ = decay_benchmark()
            monitor = RangeMonitor()
            traj = forward(Scheme.RK4, field, x, TimeGrid.uniform(0.5, 1), params, FLOAT16, FLOAT32, monitor)
            grads = backward(
                Scheme.RK4, field, traj, params, terminal_objective(),
                ScalingPolicy.dynamic(), FLOAT16, FLOAT32, monitor=monitor,
            )
            return traj.states.tobytes(), grads.d_theta.tobytes(), monitor.underflows, monitor.overflows

        monkeypatch.setattr(RangeMonitor, "observe", counting_observe)
        inline = solve()
        inline_observed = len(observed)
        with monkeypatch.context() as patch:
            compile_ops_with(patch, tallying("quantize", precision.quantize))
            for module in (dynamics, integrate, adjoint):
                for name in exact:
                    if hasattr(module, name):
                        patch.setattr(module, name, tallying(name, getattr(precision, name)))
            observed.clear()
            assert solve() == inline
        assert tally["inside"] > tally["outside"] > 0 and tally["zero"] > 0 and tally["arrays"] == 0, tally
        assert tally["inf or nan"] > 0, tally
        assert len(observed) == tally["outside"] == inline_observed, tally

    def test_polydecay_float_solve_leaves_only_the_designed_quantize_calls(self, monkeypatch):
        # A one-component float16 solve runs its rounded float ops in
        # generated code: the step, the forward's high-precision update and
        # the sweep's commit.  What the solve modules still call `quantize`
        # for is the rounding of each step size h, the forward's initial
        # and per-step low-precision copies of the state, and the sweep's
        # seed adjoint and one covector per pullback attempt.  A fall back
        # to one call per op would add several per step.
        field, params, x, t_final = decay_benchmark()
        n = 24
        grid = TimeGrid.uniform(t_final, n)
        policy = ScalingPolicy.dynamic()
        calls = collections.Counter()

        def solve():
            monitor, trace = RangeMonitor(), BackwardTrace()
            traj = forward(Scheme.RK4, field, x, grid, params, FLOAT16, FLOAT32, monitor)
            forward_calls = dict(calls)
            calls.clear()
            backward(Scheme.RK4, field, traj, params, terminal_objective(), policy, FLOAT16, FLOAT32,
                     monitor, trace)
            return forward_calls, trace, monitor

        solve()  # rounds and caches the Butcher weights

        def spy(x, *args):
            calls[sys._getframe(1).f_code.co_name] += 1
            return precision.quantize(x, *args)

        for module in (integrate, adjoint):
            monkeypatch.setattr(module, "quantize", spy)
        forward_calls, trace, monitor = solve()
        assert trace.total_rescales > 0 and monitor.overflows > 0 and monitor.underflows > 0
        assert forward_calls == {"forward": 2 + 2 * n}
        assert dict(calls) == {"_lockstep": n, "_sweep": 1 + n + trace.total_rescales}


class AlwaysInfVjpField(VelocityField):
    """Pullback emits inf regardless of the cotangent: rescaling cannot help."""

    dim_state = 1
    dim_params = 1

    def _linearize(self, t, y, theta, fmt, monitor):
        def pull(cotangent, monitor=None):
            return FieldVjp(np.array([np.inf]), 0.0, np.array([np.inf]))

        return np.zeros(1), pull


class TestFailureModes:
    def make_traj(self, field):
        return forward(
            Scheme.EULER, field, np.array([1.0]), TimeGrid.uniform(1.0, 4),
            Params([0.0]), FLOAT16, FLOAT32,
        )

    def test_exhausted_rescale_by_attempt_budget(self):
        field = AlwaysInfVjpField()
        traj = self.make_traj(field)
        with pytest.raises(ExhaustedRescale) as info:
            backward(
                Scheme.EULER, field, traj, Params([0.0]), terminal_objective(),
                ScalingPolicy.dynamic(k_max=3), FLOAT16, FLOAT32,
            )
        assert info.value.step == 3

    def test_exhausted_rescale_by_scale_floor(self):
        field = AlwaysInfVjpField()
        traj = self.make_traj(field)
        with pytest.raises(ExhaustedRescale):
            backward(
                Scheme.EULER, field, traj, Params([0.0]), terminal_objective(),
                ScalingPolicy.dynamic(k_max=50, s_floor=2.0**4), FLOAT16, FLOAT32,
            )

    def test_non_finite_terminal_gradient_raises_under_dynamic(self):
        field, params, x, grid = mild_problem(n=4)
        traj = forward(Scheme.EULER, field, x, grid, params, FLOAT16, FLOAT32)
        obj = Objective(terminal=lambda y: np.inf, terminal_grad=lambda y: np.array([np.inf]))
        with pytest.raises(NonFiniteAccumulator) as info:
            backward(
                Scheme.EULER, field, traj, params, obj, ScalingPolicy.dynamic(),
                FLOAT16, FLOAT32,
            )
        assert info.value.step == 4

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ScalingPolicy.dynamic(k_max=0)
        with pytest.raises(ValueError):
            ScalingPolicy.dynamic(s_floor=0.75)
        with pytest.raises(ValueError):
            ScalingPolicy.from_name("adaptive")


class TestObjectiveValue:
    def test_terminal_only(self):
        field, params, x, grid = mild_problem(n=8)
        traj = forward(Scheme.RK4, field, x, grid, params, FLOAT64, FLOAT64)
        val = objective_value(terminal_objective(), traj, params.master)
        assert val == 0.5 * float(traj.states[-1] @ traj.states[-1])

    def test_running_cost_trapezoid(self):
        field, params, x, grid = mild_problem(n=8)
        traj = forward(Scheme.RK4, field, x, grid, params, FLOAT64, FLOAT64)
        obj = Objective(
            terminal=lambda y: 0.0, terminal_grad=lambda y: np.zeros(1),
            running=quadratic_running(),
        )
        w = trapezoid_weights(grid)
        want = sum(
            float(w[i]) * 0.5 * float(traj.states[i] @ traj.states[i])
            for i in range(len(w))
        )
        assert objective_value(obj, traj, params.master) == pytest.approx(want, rel=1e-15)


class TestSgdStep:
    def test_weight_decay_only(self):
        params = Params([1.0, -2.0])
        out = sgd_step(
            params, lambda p, s, f: np.zeros(2), lr=0.1, loss_scale=256.0,
            weight_decay=0.5, fmt_low=FLOAT16,
        )
        assert out.accepted and out.loss_scale == 256.0 and out.streak == 1
        assert np.allclose(out.params.master, [1.0 - 0.05, -2.0 + 0.1])

    def test_gradient_descaled_by_loss_scale(self):
        params = Params([0.0])
        out = sgd_step(
            params, lambda p, s, f: np.array([s * 2.0]), lr=0.5, loss_scale=1024.0,
            weight_decay=0.0, fmt_low=FLOAT16,
        )
        assert out.params.master[0] == -1.0  # lr * (scaled grad / scale)

    def test_non_finite_gradient_rejects_and_halves(self):
        params = Params([1.0])
        out = sgd_step(
            params, lambda p, s, f: np.array([np.inf]), lr=0.1, loss_scale=1024.0,
            weight_decay=0.0, fmt_low=FLOAT16, streak=7,
        )
        assert not out.accepted
        assert out.loss_scale == 512.0
        assert out.streak == 0
        assert np.array_equal(out.params.master, params.master)

    def test_loss_scale_stops_at_floor(self):
        # 1,091 halvings from 2**16 would reach 0.0 and make the next update grad / 0.
        params = Params([1.0, -2.0])
        state = sgd_step(
            params, lambda p, s, f: np.array([np.inf, 0.0]), lr=0.1, loss_scale=2.0**16,
            weight_decay=0.0, fmt_low=FLOAT16,
        )
        for _ in range(1_099):
            state = sgd_step(
                state.params, lambda p, s, f: np.array([np.inf, 0.0]), lr=0.1,
                loss_scale=state.loss_scale, weight_decay=0.0, fmt_low=FLOAT16,
            )
            assert not state.accepted
        assert state.loss_scale == MIN_LOSS_SCALE > 0.0
        assert np.array_equal(state.params.master, params.master)
        out = sgd_step(
            state.params, lambda p, s, f: np.array([s, -s]), lr=0.1,
            loss_scale=state.loss_scale, weight_decay=0.0, fmt_low=FLOAT16,
        )
        assert out.accepted and np.isfinite(out.params.master).all()
        assert np.array_equal(out.params.master, [1.0 - 0.1, -2.0 + 0.1])

    def test_growth_window_doubles(self):
        params = Params([0.0])
        out = sgd_step(
            params, lambda p, s, f: np.zeros(1), lr=0.1, loss_scale=64.0,
            weight_decay=0.0, fmt_low=FLOAT16, streak=4, growth_window=5,
        )
        assert out.accepted and out.loss_scale == 128.0 and out.streak == 0

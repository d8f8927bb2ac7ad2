"""Experiment-layer tests: oracles, runners, config files, CSV, CLI."""

import json
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from mpode import adjoint, runners
from mpode.adjoint import (
    ExhaustedRescale,
    NonFiniteAccumulator,
    Objective,
    ScalingPolicy,
    backward,
    sgd_step,
)
from mpode.cli import main
from mpode.dynamics import LinearField, MlpField, Params, PolyDecayField
from mpode.integrate import NonFiniteState, Scheme, TimeGrid, forward
from mpode.precision import FLOAT16, FLOAT32, FLOAT64, get_format
from mpode.oracles import analytic_gradient, analytic_solution, fd_gradient
from mpode.runners import (
    ErrorRow,
    ExperimentConfig,
    SolveFailed,
    build_field,
    decay_benchmark,
    parse_config,
    run_sgd_demo,
    run_solve,
    run_sweep,
    run_table,
    write_error_rows,
)

BENCH_THETA = np.array([8.0, -11.0, 2.0**-16])
BENCH_X = 65504.0 / 180.0
BENCH_T = 2.65


def terminal_objective():
    return Objective(
        terminal=lambda y: 0.5 * float(np.dot(y, y)),
        terminal_grad=lambda y: np.asarray(y, dtype=np.float64),
    )


def fail_sweeps(monkeypatch, exc, fails):
    """Make each policy sweep that `fails(policy, fmt_low)` picks raise `exc`
    at step `exc.step` of the shared reverse sweep, after the steps before it."""
    real = adjoint._sweep

    def sweep(field, traj, theta_low, objective, policy, fmt_low, *rest):
        inner = real(field, traj, theta_low, objective, policy, fmt_low, *rest)
        if not fails(policy, fmt_low):
            return (yield from inner)
        next(inner)
        for _ in range(traj.grid.n_steps - 1 - exc.step):
            inner.send((yield))
        yield
        raise exc

    monkeypatch.setattr(adjoint, "_sweep", sweep)


class TestAnalyticOracles:
    def test_solution_value(self):
        y = analytic_solution(BENCH_T, BENCH_X, BENCH_THETA)
        assert np.isclose(y, 0.00606605098390623, rtol=1e-12)

    def test_solution_at_zero_time_is_x(self):
        assert analytic_solution(0.0, BENCH_X, BENCH_THETA) == BENCH_X

    def test_gradient_values(self):
        d_x, d_theta = analytic_gradient(BENCH_T, BENCH_X, BENCH_THETA)
        assert np.isclose(d_x, 1.0111528177031866e-07, rtol=1e-12)
        want = [-0.00022825929910394875, -0.00012920337685129175, -9.751198252927679e-05]
        assert np.allclose(d_theta, want, rtol=1e-12)

    def test_gradient_at_zero_state(self):
        d_x, d_theta = analytic_gradient(BENCH_T, 0.0, BENCH_THETA)
        assert d_x == 0.0 and not d_theta.any()

    def test_discrete_float64_gradient_matches_analytic(self):
        # the gap between the N=400 discrete gradient and the continuous one
        # is the RK4 discretization floor (about 7e-5 relative here); format
        # errors in the table sit on top of exactly this floor
        field, params, x = decay_benchmark()[:3]
        grid = TimeGrid.uniform(BENCH_T, 400)
        d_x_fd, d_theta_fd = fd_gradient(
            Scheme.RK4, field, x, grid, params, terminal_objective()
        )
        d_x, d_theta = analytic_gradient(BENCH_T, float(x[0]), params.master)
        assert np.isclose(d_x_fd[0], d_x, rtol=2e-4)
        assert np.allclose(d_theta_fd, d_theta, rtol=2e-4)


class TestFdGradient:
    def test_zero_field_gives_identity_gradient(self):
        from mpode.dynamics import LinearField

        field = LinearField([[0.0]])
        x = np.array([1.75])
        d_x_fd, _ = fd_gradient(
            Scheme.RK4, field, x, TimeGrid.uniform(1.0, 6), None, terminal_objective()
        )
        assert np.isclose(d_x_fd[0], x[0], rtol=1e-9)

    def test_linear_euler_matches_closed_form(self):
        from mpode.dynamics import LinearField

        a = -0.5
        field = LinearField([[a]])
        x = np.array([1.2])
        grid = TimeGrid.uniform(1.0, 10)
        d_x_fd, _ = fd_gradient(Scheme.EULER, field, x, grid, None, terminal_objective())
        h = 0.1
        y_n = x[0] * (1.0 + h * a) ** 10
        want = y_n * (1.0 + h * a) ** 10
        assert np.isclose(d_x_fd[0], want, rtol=1e-7)

    def test_mlp_rk4_matches_backward(self):
        from mpode.adjoint import ScalingPolicy, backward
        from mpode.dynamics import MlpField
        from mpode.integrate import forward
        from mpode.precision import FLOAT64

        field = MlpField((2, 4, 4, 2))
        params = field.init_params(6)
        x = np.array([0.4, -0.3])
        grid = TimeGrid.uniform(1.0, 8)
        d_x_fd, d_theta_fd = fd_gradient(
            Scheme.RK4, field, x, grid, params, terminal_objective()
        )
        traj = forward(Scheme.RK4, field, x, grid, params, FLOAT64, FLOAT64)
        g = backward(
            Scheme.RK4, field, traj, params, terminal_objective(),
            ScalingPolicy.unscaled(), FLOAT64, FLOAT64,
        )
        assert np.allclose(g.d_x, d_x_fd, rtol=1e-6, atol=1e-10)
        assert np.allclose(g.d_theta, d_theta_fd, rtol=1e-6, atol=1e-8)

    def test_fd_gradient_validates_eps(self):
        field, params, x = decay_benchmark()[:3]
        with pytest.raises(ValueError):
            fd_gradient(
                Scheme.RK4, field, x, TimeGrid.uniform(1.0, 4), params,
                terminal_objective(), eps=0.0,
            )


class TestParseConfig:
    def test_json_values_with_string_fallback(self):
        text = """
        # a comment
        scheme = "euler"
        n = [64, 128]
        lr = 0.05
        fmt = float16
        out = results.csv
        """
        out = parse_config(text)
        assert out == {
            "scheme": "euler", "n": [64, 128], "lr": 0.05,
            "fmt": "float16", "out": "results.csv",
        }

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config("stepss = 3")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            parse_config("scheme euler")

    def test_from_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text('field = "polydecay"\nn = 32\nfmt = "bfloat16"\n')
        config = ExperimentConfig.from_file(p)
        assert config.field == "polydecay" and config.n == 32 and config.fmt == "bfloat16"
        assert config.scheme == "rk4"  # defaults survive

    def test_n_list_normalizes(self):
        assert ExperimentConfig(n=64).n_list() == [64]
        assert ExperimentConfig(n=[64, 128]).n_list() == [64, 128]


class TestBuildField:
    def test_default_polydecay_is_benchmark(self):
        field, params, x = build_field(ExperimentConfig())
        assert isinstance(field, PolyDecayField)
        assert np.array_equal(params.master, BENCH_THETA)
        assert x[0] == BENCH_X

    def test_polydecay_defaults_are_benchmark_at_any_t_final(self):
        field, params, x = build_field(ExperimentConfig(x0=[2.0], t_final=1.0))
        assert np.array_equal(params.master, BENCH_THETA) and x.tolist() == [2.0]
        field, params, x = build_field(ExperimentConfig(theta=[0.4, -1.1, 0.9], t_final=1.0))
        assert params.master.tolist() == [0.4, -1.1, 0.9] and x[0] == BENCH_X

    def test_mlp_with_seeded_init(self):
        config = ExperimentConfig(field="mlp", widths=[2, 4, 4, 2], seed=3)
        field, params, x = build_field(config)
        assert field.dim_params == len(params)
        field2, params2, x2 = build_field(config)
        assert np.array_equal(params.master, params2.master)
        assert np.array_equal(x, x2)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            build_field(ExperimentConfig(field="pendulum"))


@pytest.fixture(scope="module")
def rows():
    return run_table(ExperimentConfig(n=400, scheme="rk4"))


class TestRunTable:

    def test_row_order(self, rows):
        assert [(r.fmt, r.policy) for r in rows] == [
            ("float32", "none"), ("float32", "dynamic"),
            ("float16", "none"), ("float16", "dynamic"),
            ("bfloat16", "none"), ("bfloat16", "dynamic"),
        ]
        assert all(r.status == "ok" and r.n == 400 for r in rows)

    def test_float16_rows_are_pinned(self, rows):
        # bit-exact emulation makes every cell reproducible to the digit
        assert rows[2].to_csv_line() == (
            "float16,none,400,0.0017751712804568681,0.14599550375616402,"
            "0.46079059620430518,0.59681036210488614,0.77258470403324064,ok"
        )
        assert rows[3].to_csv_line() == (
            "float16,dynamic,400,0.0017751712804568681,0.0047589477644606349,"
            "0.0042267626489253148,0.0042588637480265191,0.0045641263990448613,ok"
        )

    def test_float32_policies_agree_bitwise(self, rows):
        assert rows[0].to_csv_line().split(",")[3:] == rows[1].to_csv_line().split(",")[3:]
        assert rows[0].re_y < 2e-4 and rows[0].re_dy0 < 5e-4

    def test_bfloat16_policies_agree_bitwise(self, rows):
        assert rows[4].to_csv_line().split(",")[3:] == rows[5].to_csv_line().split(",")[3:]

    def test_csv_byte_deterministic(self, tmp_path, rows):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_error_rows(rows, p1)
        write_error_rows(run_table(ExperimentConfig(n=400, scheme="rk4")), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().splitlines()[0] == ErrorRow.HEADER


class TestSharedForward:
    """run_table runs one forward per format and one reverse sweep that
    pulls both policies back through it over shared step tapes; a failure
    still lands on the rows it belongs to."""

    N = 40

    @pytest.fixture(scope="class")
    def plain_rows(self):
        return run_table(ExperimentConfig(n=self.N, scheme="rk4"))

    @pytest.mark.parametrize("fmt", ["float64", "float32", "float16", "bfloat16"])
    def test_backward_leaves_trajectory_unchanged(self, fmt):
        # float64 quantize returns its input, so the adjoint seed can alias
        # the last stored state; no policy may write through it.
        field, params, x, t_final = decay_benchmark()
        low = get_format(fmt)
        high = FLOAT64 if low is FLOAT64 else FLOAT32
        traj = forward(Scheme.RK4, field, x, TimeGrid.uniform(t_final, self.N), params, low, high)
        states, final_hp = traj.states.tobytes(), traj.final_hp.tobytes()
        for policy in ("none", "safe", "dynamic"):
            backward(
                Scheme.RK4, field, traj, params, terminal_objective(),
                ScalingPolicy.from_name(policy), low, high,
            )
            assert traj.states.tobytes() == states and traj.final_hp.tobytes() == final_hp

    def test_one_forward_per_format(self, monkeypatch, plain_rows):
        calls = []
        real = runners.forward

        def counting(*args, **kwargs):
            calls.append(args[5].name)
            return real(*args, **kwargs)

        monkeypatch.setattr(runners, "forward", counting)
        rows = run_table(ExperimentConfig(n=self.N, scheme="rk4"))
        assert calls == list(runners.TABLE_FORMATS)
        assert [r.to_csv_line() for r in rows] == [r.to_csv_line() for r in plain_rows]

    def test_forward_blowup_fails_both_policies(self, monkeypatch, plain_rows):
        real = runners.forward

        def blowing_up(scheme, field, x, grid, params, fmt_low, fmt_high):
            traj = real(scheme, field, x, grid, params, fmt_low, fmt_high)
            if fmt_low.name == "float16":
                raise NonFiniteState(7, traj)
            return traj

        monkeypatch.setattr(runners, "forward", blowing_up)
        rows = run_table(ExperimentConfig(n=self.N, scheme="rk4"))
        for row, plain in zip(rows, plain_rows):
            if row.fmt == "float16":
                assert row.status == "non-finite-state-at-7"
                errors = [row.re_y, row.re_dy0, row.re_dtheta1, row.re_dtheta2, row.re_dtheta3]
                assert all(math.isinf(e) for e in errors)
            else:
                assert row.to_csv_line() == plain.to_csv_line()

    @pytest.mark.parametrize(
        "exc, status",
        [(ExhaustedRescale(5), "exhausted-rescale-at-5"),
         (NonFiniteAccumulator(2), "non-finite-accumulator-at-2")],
    )
    def test_backward_failure_fails_one_policy(self, monkeypatch, plain_rows, exc, status):
        fail_sweeps(
            monkeypatch, exc,
            lambda policy, fmt_low: fmt_low.name == "float16" and policy.kind.value == "dynamic",
        )
        rows = run_table(ExperimentConfig(n=self.N, scheme="rk4"))
        for row, plain in zip(rows, plain_rows):
            if (row.fmt, row.policy) == ("float16", "dynamic"):
                assert row.status == status and row.re_y == plain.re_y
                errors = [row.re_dy0, row.re_dtheta1, row.re_dtheta2, row.re_dtheta3]
                assert all(math.isinf(e) for e in errors)
            else:
                assert row.to_csv_line() == plain.to_csv_line()

    def test_exhausted_rescale_fails_only_its_policy(self):
        # Unmocked: one attempt per step cannot rescue the float16 decay
        # benchmark, while `none` sweeps on over the same step tapes.
        field, params, x, t_final = decay_benchmark()
        grid = TimeGrid.uniform(t_final, self.N)
        policies = [ScalingPolicy.unscaled(), ScalingPolicy.dynamic(k_max=1)]
        (traj, grads, status), failed = runners._solve(Scheme.RK4, field, params, x, grid, FLOAT16, policies)
        assert failed[0] is traj and failed[1:] == (None, "exhausted-rescale-at-36")
        assert status == "ok"
        want = backward(Scheme.RK4, field, traj, params, terminal_objective(), policies[0], FLOAT16, FLOAT32)
        for name in ("d_x", "d_theta", "d_t"):
            assert getattr(grads, name).tobytes() == getattr(want, name).tobytes(), name


class TestRunSweep:
    def test_float64_self_comparison_is_exact(self):
        config = ExperimentConfig(
            field="polydecay", theta=[0.4, -1.1, 0.9], x0=[1.0], t_final=2.0,
            n=[16, 32], scheme="rk4", fmt="float64", policy="none",
        )
        for row in run_sweep(config):
            assert row.re_y <= 1e-12 and row.re_dy0 <= 1e-12
            assert max(row.re_dtheta1, row.re_dtheta2, row.re_dtheta3) <= 1e-12

    def test_mlp_normwise_theta_columns(self):
        config = ExperimentConfig(
            field="mlp", widths=[2, 4, 4, 2], t_final=1.0, seed=0,
            n=[8], scheme="euler", fmt="float16", policy="dynamic",
        )
        row = run_sweep(config)[0]
        assert row.re_dtheta1 == row.re_dtheta2 == row.re_dtheta3
        assert 0.0 < row.re_dtheta1 < 0.2

    def test_field_without_parameters(self):
        config = ExperimentConfig(
            field="linear", a_matrix=[[-1.0]], scheme="euler", fmt="float16",
            policy="dynamic", n=[8],
        )
        row = run_sweep(config)[0]
        assert row.status == "ok"
        assert 0.0 < row.re_y < 1e-3 and 0.0 < row.re_dy0 < 1e-3
        assert row.re_dtheta1 == row.re_dtheta2 == row.re_dtheta3 == 0.0

    @pytest.mark.parametrize(
        "policy, status", [("none", "non-finite-gradient"), ("safe", "non-finite-gradient"),
                           ("dynamic", "ok")],
    )
    def test_non_finite_gradient_is_not_ok(self, policy, status):
        # growth e^(4t) on a float16 solve: the unscaled adjoint sweep overflows
        config = ExperimentConfig(
            field="polydecay", theta=[0.0, 0.0, -4.0], x0=[1.0], t_final=2.0,
            n=[64], scheme="rk4", fmt="float16", policy=policy,
        )
        row = run_sweep(config)[0]
        assert row.status == status
        gerrs = [row.re_dy0, row.re_dtheta1, row.re_dtheta2, row.re_dtheta3]
        assert all(math.isinf(e) for e in gerrs) == (status != "ok")
        assert math.isfinite(row.re_y)

    def test_float64_dynamic_scale_stays_finite(self):
        # A float64 low format overflows nothing, so the scale doubles after
        # every step up to its cap; without one it ran to inf and every
        # pullback failed (exhausted-rescale at N = 1024 and 2048).
        config = ExperimentConfig(
            **runners.SWEEP_PRESETS["polydecay"], n=[512, 1024, 2048], fmt="float64", policy="dynamic",
        )
        for row in run_sweep(config):
            assert row.status == "ok", row
            assert row.re_y == row.re_dy0 == row.re_dtheta1 == row.re_dtheta2 == row.re_dtheta3 == 0.0

    def test_forward_blowup_becomes_status_row(self):
        config = ExperimentConfig(
            field="linear", a_matrix=[[30.0]], x0=[10000.0], t_final=1.0,
            n=[4], scheme="euler", fmt="float16", policy="none",
        )
        row = run_sweep(config)[0]
        assert row.status == "non-finite-state-at-0"
        assert math.isinf(row.re_y) and math.isinf(row.re_dtheta1)


class TestRunSgdDemo:
    def test_deterministic_and_well_formed(self, tmp_path):
        out = tmp_path / "sgd.csv"
        r1 = run_sgd_demo(ExperimentConfig(fmt="float16", seed=3, steps=4, out=out))
        r2 = run_sgd_demo(ExperimentConfig(fmt="float16", seed=3, steps=4))
        assert r1.rows == r2.rows and r1.final_loss == r2.final_loss
        lines = out.read_text().splitlines()
        assert lines[0] == "iteration,loss,loss_scale,accepted"
        assert len(lines) == 5
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[3] in ("0", "1")
            assert float(cells[2]) > 0

    def test_float64_ignores_loss_scaling_mechanics(self):
        r = run_sgd_demo(ExperimentConfig(fmt="float64", seed=3, steps=4))
        assert all(row[3] for row in r.rows)  # nothing to reject in float64


def row_loop_sgd_csv(config: ExperimentConfig) -> str:
    """run_sgd_demo's CSV with one unbatched solve per batch row.

    The loop form of the demo, kept as the reference the batched demo must
    match byte for byte.
    """
    grid = TimeGrid.uniform(1.0, 16)
    teacher = runners._spiral_teacher()
    student = MlpField(config.widths)
    params = student.init_params(config.seed)
    rng = np.random.default_rng(config.seed + 1)

    def target(x0):
        return forward(Scheme.EULER, teacher, x0, grid, None, FLOAT64, FLOAT64).states[-1].copy()

    def loss(p, xs, targets):
        total = 0.0
        for x0, t in zip(xs, targets):
            y = forward(Scheme.EULER, student, x0, grid, p, FLOAT64, FLOAT64).states[-1]
            total += 0.5 * float(np.sum((y - t) ** 2))
        return total / len(xs)

    def grad(p, scale, fmt, xs, targets):
        high = FLOAT64 if fmt is FLOAT64 else FLOAT32
        total = np.zeros(student.dim_params)
        for x0, t in zip(xs, targets):
            objective = Objective(
                terminal=lambda y: 0.0,
                terminal_grad=lambda y, t=t: scale * (np.asarray(y, dtype=np.float64) - t),
            )
            try:
                traj = forward(Scheme.EULER, student, x0, grid, p, fmt, high)
            except NonFiniteState:
                return np.full(student.dim_params, np.inf)
            g = backward(Scheme.EULER, student, traj, p, objective,
                         ScalingPolicy.unscaled_safe(), fmt, high)
            total = total + g.d_theta
        return total / len(xs)

    probe_rng = np.random.default_rng(config.seed + 2)
    probe_xs = [probe_rng.standard_normal(student.dim_state) for _ in range(16)]
    probe_targets = [target(x0) for x0 in probe_xs]
    rows, scale, streak = [], float(config.loss_scale), 0
    for it in range(config.steps):
        xs = [rng.standard_normal(student.dim_state) for _ in range(config.batch)]
        targets = [target(x0) for x0 in xs]
        batch_loss = loss(params, xs, targets)
        res = sgd_step(
            params, lambda p, s, f: grad(p, s, f, xs, targets), config.lr, scale,
            config.weight_decay, get_format(config.fmt), streak,
        )
        params, scale, streak = res.params, res.loss_scale, res.streak
        rows.append((it, batch_loss, scale, res.accepted))
    return runners.SgdDemoResult(rows, loss(params, probe_xs, probe_targets), params).to_csv()


class TestSgdDemoBatch:
    @pytest.mark.parametrize(
        "config",
        [
            ExperimentConfig(fmt="float16", seed=3, steps=5),
            # a loss scale that overflows float16 rejects steps until it halves
            ExperimentConfig(fmt="float16", seed=1, steps=5, batch=3, loss_scale=2.0**30),
            ExperimentConfig(fmt="bfloat16", seed=5, steps=3, batch=2, widths=(2, 4, 2)),
        ],
        ids=["float16", "float16-rejects", "bfloat16"],
    )
    def test_batched_csv_equals_row_loop(self, tmp_path, config):
        want = row_loop_sgd_csv(config)
        config.out = str(tmp_path / "sgd.csv")
        result = run_sgd_demo(config)
        assert (tmp_path / "sgd.csv").read_text() == want
        if config.loss_scale == 2.0**30:
            assert not result.rows[0][3]  # the rejected-step path ran

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seed", "x"), ("seed", -1), ("steps", -1), ("steps", 0), ("batch", 0),
            ("batch", 1.5), ("lr", 0.0), ("lr", math.nan), ("lr", "x"),
            ("loss_scale", -1.0), ("loss_scale", math.inf), ("weight_decay", -0.1),
            ("weight_decay", math.nan), ("widths", [2, 4, 3]), ("widths", 3),
            ("fmt", "float8"), ("fmt", 16),
        ],
    )
    def test_bad_config_raises(self, monkeypatch, key, value):
        solves = []
        monkeypatch.setattr(runners, "forward", lambda *a: solves.append(a))
        with pytest.raises(runners.ConfigError, match=f"^{key}: "):
            run_sgd_demo(ExperimentConfig(**{key: value}))
        assert not solves


def teacher_solve_rows(monkeypatch):
    """The row counts of run_sgd_demo's teacher solves, one entry per solve."""
    rows = []
    real = runners.forward

    def spy(scheme, field, x, *args):
        if isinstance(field, LinearField):
            rows.append(len(x))
        return real(scheme, field, x, *args)

    monkeypatch.setattr(runners, "forward", spy)
    return rows


class TestSgdTeacherBlocks:
    """The demo's teacher solves the probe set and every minibatch ahead of
    training, one batched float64 solve per block of minibatches."""

    def test_one_solve_for_the_benchmark_run(self, monkeypatch):
        rows = teacher_solve_rows(monkeypatch)
        run_sgd_demo(ExperimentConfig(fmt="float16", seed=0, steps=30))
        assert rows == [16 + 30 * 4]

    @pytest.mark.parametrize("seed", [0, 7])
    def test_targets_equal_per_minibatch_solves(self, monkeypatch, seed):
        solved = []  # (rows, terminal states) of each teacher solve
        real = runners.forward

        def spy(scheme, field, x, *args):
            traj = real(scheme, field, x, *args)
            if isinstance(field, LinearField):
                solved.append((x.copy(), traj.states[-1].copy()))
            return traj

        monkeypatch.setattr(runners, "forward", spy)
        config = ExperimentConfig(fmt="float16", seed=seed, steps=30)
        run_sgd_demo(config)
        grid, teacher = TimeGrid.uniform(1.0, 16), runners._spiral_teacher()

        def solve(xs):
            return forward(Scheme.EULER, teacher, xs, grid, None, FLOAT64, FLOAT64).states[-1]

        xs = np.concatenate([x for x, _ in solved])
        targets = np.concatenate([t for _, t in solved])
        probe_rng = np.random.default_rng(seed + 2)
        probe_xs = np.array([probe_rng.standard_normal(2) for _ in range(16)])
        assert xs[:16].tobytes() == probe_xs.tobytes()
        assert targets[:16].tobytes() == solve(probe_xs).tobytes()
        assert len(xs) == 16 + config.steps * config.batch
        rng = np.random.default_rng(seed + 1)
        for j in range(16, len(xs), config.batch):
            want = np.array([rng.standard_normal(2) for _ in range(config.batch)])
            assert xs[j : j + config.batch].tobytes() == want.tobytes()
            assert targets[j : j + config.batch].tobytes() == solve(want).tobytes()

    @pytest.mark.parametrize(
        "config, sizes",
        [
            # 16 probes and 2 minibatches, then 2 minibatches a block
            (ExperimentConfig(fmt="float16", seed=2, steps=9), [24, 8, 8, 8, 4]),
            # a minibatch larger than a block is solved alone
            (ExperimentConfig(fmt="float16", seed=4, steps=2, batch=30), [46, 30]),
        ],
        ids=["blocks-of-minibatches", "minibatch-over-a-block"],
    )
    def test_blocks_give_the_block_free_csv(self, monkeypatch, tmp_path, config, sizes):
        monkeypatch.setattr(runners, "TEACHER_BLOCK_ROWS", 24)
        want = row_loop_sgd_csv(config)
        rows = teacher_solve_rows(monkeypatch)
        config.out = str(tmp_path / "sgd.csv")
        run_sgd_demo(config)
        assert rows == sizes
        assert (tmp_path / "sgd.csv").read_text() == want


def sgd_solves(monkeypatch):
    """Record run_sgd_demo's solves in call order: (kind, rows) per forward,
    kind `teacher`, `loss` (per-row parameters) or `train`, and `backward`."""
    calls = []
    real_forward, real_backward = runners.forward, runners.backward

    def forward_spy(scheme, field, x, grid, params, *args):
        kind = "teacher" if isinstance(field, LinearField) else "train"
        calls.append(("loss" if isinstance(params, list) else kind, len(x)))
        return real_forward(scheme, field, x, grid, params, *args)

    def backward_spy(scheme, field, traj, *args):
        calls.append(("backward", traj.states.shape[1]))
        return real_backward(scheme, field, traj, *args)

    monkeypatch.setattr(runners, "forward", forward_spy)
    monkeypatch.setattr(runners, "backward", backward_spy)
    return calls


class TestSgdLossBlocks:
    """The demo's float64 losses are solved in one batched forward per block,
    after the block trains, with one parameter set per row."""

    def test_solve_counts_of_the_benchmark_run(self, monkeypatch):
        calls = sgd_solves(monkeypatch)
        run_sgd_demo(ExperimentConfig(fmt="float16", seed=0, steps=30))
        training = [("train", 4), ("backward", 4)] * 30
        assert calls == [("teacher", 16 + 30 * 4), *training, ("loss", 30 * 4 + 16)]

    @pytest.mark.parametrize(
        "config, sizes",
        [
            # the teacher's blocks of 2 minibatches, the last 1 with the probes
            (ExperimentConfig(fmt="float16", seed=2, steps=9), [8, 8, 8, 8, 20]),
            # blocks of 2 minibatches of 3, the last with the probes
            (ExperimentConfig(fmt="float64", seed=6, steps=10, batch=3), [6, 6, 6, 6, 22]),
            # a minibatch larger than a block is a block, the last with the probes
            (ExperimentConfig(fmt="bfloat16", seed=4, steps=2, batch=30), [30, 46]),
        ],
        ids=["float16", "float64", "minibatch-over-a-block"],
    )
    def test_blocks_give_the_row_loop_csv(self, monkeypatch, tmp_path, config, sizes):
        monkeypatch.setattr(runners, "TEACHER_BLOCK_ROWS", 24)
        want = row_loop_sgd_csv(config)
        calls = sgd_solves(monkeypatch)
        config.out = str(tmp_path / "sgd.csv")
        run_sgd_demo(config)
        assert [rows for kind, rows in calls if kind == "loss"] == sizes
        assert (tmp_path / "sgd.csv").read_text() == want

    def test_overflowing_loss_is_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_sgd_demo(ExperimentConfig(fmt="float64", lr=1e10, steps=20))
        assert math.isinf(result.rows[-1][1])


class TestOutDirectoryChecked:
    """An `out` in a missing directory fails before the first solve, with the
    FileNotFoundError that writing it would raise."""

    @pytest.mark.parametrize(
        "run, config, written",
        [
            (run_table, ExperimentConfig(n=4), "out"),
            (run_sweep, ExperimentConfig(**runners.SWEEP_PRESETS["mlp"], n=[4]), "out"),
            (run_sgd_demo, ExperimentConfig(steps=1), "out"),
            (run_solve, ExperimentConfig(n=4), "out_trajectory.csv"),
        ],
        ids=["table", "sweep", "sgd-demo", "solve"],
    )
    def test_no_solve_runs(self, monkeypatch, tmp_path, run, config, written):
        solves = []
        monkeypatch.setattr(runners, "forward", lambda *a: solves.append(a))
        config.out = str(tmp_path / "missing" / "out")
        with pytest.raises(FileNotFoundError) as info:
            run(config)
        assert info.value.filename == str(tmp_path / "missing" / written)
        assert not solves

    def test_file_in_place_of_the_directory(self, monkeypatch, tmp_path):
        solves = []
        monkeypatch.setattr(runners, "forward", lambda *a: solves.append(a))
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "sgd.csv"
        with pytest.raises(NotADirectoryError) as info:
            run_sgd_demo(ExperimentConfig(steps=1, out=str(out)))
        assert info.value.filename == str(out)
        assert not solves


class TestRunSolve:
    def test_writes_both_csvs(self, tmp_path):
        config = ExperimentConfig(
            field="polydecay", theta=[0.4, -1.1, 0.9], x0=[1.0], t_final=2.0,
            n=16, scheme="rk4", fmt="float16", policy="dynamic",
            out=str(tmp_path / "run"),
        )
        traj_path, grad_path = run_solve(config)
        t_lines = traj_path.read_text().splitlines()
        g_lines = grad_path.read_text().splitlines()
        assert t_lines[0] == "i,t,y0" and len(t_lines) == 18
        assert g_lines[0] == "component,value"
        assert g_lines[1].startswith("d_x[0],")
        assert len(g_lines) == 1 + 1 + 3 + 17  # header, d_x, d_theta, d_t

    def test_no_out_returns_none(self):
        assert run_solve(ExperimentConfig(n=8, fmt="float64")) is None

    @pytest.mark.parametrize(
        "exc, status",
        [(ExhaustedRescale(5), "exhausted-rescale-at-5"),
         (NonFiniteAccumulator(2), "non-finite-accumulator-at-2")],
    )
    def test_backward_failure_keeps_trajectory(self, tmp_path, monkeypatch, exc, status):
        fail_sweeps(monkeypatch, exc, lambda policy, fmt_low: True)
        config = ExperimentConfig(
            theta=[0.4, -1.1, 0.9], x0=[1.0], t_final=2.0, n=8, fmt="float16",
            out=str(tmp_path / "run"),
        )
        with pytest.raises(SolveFailed) as info:
            run_solve(config)
        assert info.value.status == status
        assert info.value.paths == (tmp_path / "run_trajectory.csv",)
        assert len(info.value.paths[0].read_text().splitlines()) == 10
        assert not (tmp_path / "run_gradients.csv").exists()


def _json_number(x: float) -> str:
    return json.dumps(x)  # NaN and Infinity parse back as numbers


_numbers_text = st.lists(
    st.floats(-1e3, 1e3) | st.sampled_from([0.0, 1e308, -1e308, math.nan, math.inf]),
    max_size=4,
).map(json.dumps)

# Config values as they appear after `=`: good ones, wrong types, wrong
# shapes, non-finite and out-of-range numbers, and unparsed strings.
_CONFIG_TEXT = {
    "field": st.sampled_from(['"polydecay"', '"linear"', '"mlp"', "MLP", '"pendulum"', "3", "[1]"]),
    "scheme": st.sampled_from(['"rk4"', '"euler"', "EULER", '"rk45"', "1", "null"]),
    "fmt": st.sampled_from(["float16", "bfloat16", "float32", "float64", "FLOAT16", "16", "true"]),
    "policy": st.sampled_from(['"none"', '"safe"', '"dynamic"', "DYNAMIC", '"always"', "0"]),
    "n": st.integers(-2, 5).map(str)
    | st.sampled_from(['"3"', "2.0", "2.5", "[2, 3]", "[]", "true", "1e400", "abc"]),
    "t_final": st.floats(allow_nan=True).map(_json_number)
    | st.sampled_from(["5e-324", "1e-320", "1e308", "0", "-1", '"2"', "false"]),
    "theta": _numbers_text | st.sampled_from(['{"a": 1}', "[[1, 2, 3]]", "x", "[0, 0, -4]"]),
    "x0": _numbers_text | st.sampled_from(["[[1.0]]", "[1, 2]", '"1"', "[65504]"]),
    "a_matrix": st.sampled_from(
        ["[[-1.0]]", "[[30.0]]", "[[0.5, 0.0], [0.0, -2.0]]", "[[1.0, 2.0]]", "[]", "[[NaN]]", "7"]
    ),
    "widths": st.sampled_from(["[2, 3, 2]", "[1, 1]", "[2, 4, 3]", "[2]", "3", "[2, 0, 2]", "[2, 2.5, 2]"]),
    "seed": st.sampled_from(["0", "7", "-1", '"x"', "1.5", "1e20", "null"]),
}


class TestSolveFuzz:
    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    @settings(max_examples=40, deadline=None)
    @given(
        st.fixed_dictionaries({}, optional=_CONFIG_TEXT),
        st.sampled_from(["", "# a comment", "bogus = 1", "n 3"]),
    )
    def test_every_config_runs_or_fails_typed(self, values, extra):
        # out is never set, so run_solve writes nothing.
        text = "\n".join([f"{key} = {value}" for key, value in values.items()] + [extra])
        try:
            run_solve(ExperimentConfig(**parse_config(text)))
        except runners.ConfigError:
            pass
        except SolveFailed as exc:
            assert exc.paths == () and exc.status != "ok"


class TestCli:
    def test_table(self, tmp_path):
        out = tmp_path / "table.csv"
        result = CliRunner().invoke(main, ["table", "--out", str(out), "--steps", "50"])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[0] == ErrorRow.HEADER and len(lines) == 7

    def test_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        result = CliRunner().invoke(
            main,
            ["sweep", "--n", "16,32", "--scheme", "euler", "--fmt", "bfloat16",
             "--policy", "none", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert len(out.read_text().splitlines()) == 3

    def test_sgd_demo(self, tmp_path):
        out = tmp_path / "sgd.csv"
        result = CliRunner().invoke(
            main, ["sgd-demo", "--steps", "3", "--fmt", "float16", "--seed", "1",
                   "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert len(out.read_text().splitlines()) == 4
        assert "final loss" in result.output

    def test_solve(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            'field = "polydecay"\ntheta = [0.4, -1.1, 0.9]\nx0 = [1.0]\n'
            f't_final = 2.0\nn = 8\nout = {tmp_path / "sol"}\n'
        )
        result = CliRunner().invoke(main, ["solve", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "sol_trajectory.csv").exists()
        assert (tmp_path / "sol_gradients.csv").exists()

    @pytest.mark.parametrize("policy", ["none", "safe"])
    def test_solve_non_finite_gradient_fails_in_one_line(self, tmp_path, policy):
        # the overflowing decay problem of the sweep's non-finite-gradient test
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            'field = "polydecay"\ntheta = [0.0, 0.0, -4.0]\nx0 = [1.0]\nt_final = 2.0\n'
            f'n = 64\nscheme = "rk4"\nfmt = "float16"\npolicy = "{policy}"\n'
            f'out = {tmp_path / "sol"}\n'
        )
        result = CliRunner().invoke(main, ["solve", "--config", str(cfg)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.output.splitlines()[-1] == "Error: solve failed: non-finite-gradient"
        assert len((tmp_path / "sol_trajectory.csv").read_text().splitlines()) == 66
        lines = (tmp_path / "sol_gradients.csv").read_text().splitlines()
        grads = dict(line.split(",") for line in lines[1:])
        assert not all(math.isfinite(float(grads[f"d_theta[{j}]"])) for j in range(3))

    def test_solve_non_finite_time_gradient_fails_in_one_line(self, tmp_path):
        # an unscaled float16 decay whose time gradient alone overflows
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            'theta = [80.0, -11.0, 1.52587890625e-05]\nx0 = [300.0]\nt_final = 0.5\n'
            f'n = 64\nfmt = "float16"\npolicy = "none"\nout = {tmp_path / "sol"}\n'
        )
        result = CliRunner().invoke(main, ["solve", "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.output.splitlines()[-1] == "Error: solve failed: non-finite-gradient"
        assert len((tmp_path / "sol_trajectory.csv").read_text().splitlines()) == 66
        lines = (tmp_path / "sol_gradients.csv").read_text().splitlines()
        grads = {name: math.isfinite(float(v)) for name, v in (l.split(",") for l in lines[1:])}
        assert all(ok for name, ok in grads.items() if not name.startswith("d_t["))
        assert grads["d_t[38]"] is False

    def test_float64_dynamic_solve_matches_the_unscaled_one(self, tmp_path):
        # 1200 doublings of the scale pass float64's range: capped, it keeps
        # h / scale exact, and the gradients are those of the unscaled sweep.
        grads = {}
        for policy in ("dynamic", "none"):
            cfg = tmp_path / f"{policy}.cfg"
            cfg.write_text(
                f'field = "linear"\nfmt = "float64"\npolicy = "{policy}"\nn = 1200\n'
                f'out = {tmp_path / policy}\n'
            )
            result = CliRunner().invoke(main, ["solve", "--config", str(cfg)])
            assert result.exit_code == 0, result.output
            grads[policy] = (tmp_path / f"{policy}_gradients.csv").read_text()
        assert grads["dynamic"] == grads["none"]

    def test_float64_dynamic_solve_of_a_subnormal_scale_seed(self, tmp_path):
        # The seed's scale would overflow 1 / (u * ||a||); it is capped at 2**1023.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            'field = "linear"\nfmt = "float64"\npolicy = "dynamic"\nx0 = [1e-300]\n'
            f'out = {tmp_path / "sol"}\n'
        )
        result = CliRunner().invoke(main, ["solve", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert "Traceback" not in result.output
        lines = (tmp_path / "sol_gradients.csv").read_text().splitlines()
        assert all(math.isfinite(float(line.split(",")[1])) for line in lines[1:])

    def test_solve_forward_blowup_writes_partial_trajectory(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            'field = "linear"\na_matrix = [[30.0]]\nx0 = [10000.0]\nt_final = 1.0\n'
            f'n = 4\nscheme = "euler"\nfmt = "float16"\npolicy = "none"\n'
            f'out = {tmp_path / "sol"}\n'
        )
        result = CliRunner().invoke(main, ["solve", "--config", str(cfg)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines()[-1] == "Error: solve failed: non-finite-state-at-0"
        lines = (tmp_path / "sol_trajectory.csv").read_text().splitlines()
        assert lines == ["i,t,y0", "0,0,10000", "1,0.25,inf"]
        assert not (tmp_path / "sol_gradients.csv").exists()

    @pytest.mark.parametrize(
        "text",
        [
            'theta = [1.7976931348623157e308, 0, 0]\nfmt = "bfloat16"',
            'theta = [1e6, 0, 0]\nfmt = "float16"\nn = 4',
            'x0 = [1.7976931348623157e308]\nfmt = "float16"\nn = 4',
        ],
        ids=["max-double-theta-bfloat16", "theta-overflows-float16", "max-double-x0-float16"],
    )
    def test_solve_overflowing_input_fails_in_one_line(self, tmp_path, text):
        # No traceback from the rounding and no numpy warning before the line.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f'field = "polydecay"\n{text}\n')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = CliRunner().invoke(main, ["solve", "--config", str(cfg)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == "Error: solve failed: non-finite-state-at-0\n"
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize(
        "text, key",
        [
            ("field = 3", "field"),
            ("n = 0", "n"),
            ("t_final = -1", "t_final"),
            ("theta = [1.0]", "theta"),
            ("x0 = [1.0, 2.0]", "x0"),
            ('field = "linear"\na_matrix = [[1.0, 2.0]]', "a_matrix"),
            ('field = "mlp"\nwidths = [2, 4, 3]', "widths"),
            ('n = "abc"', "n"),
            ('scheme = "rk45"', "scheme"),
            ('fmt = "float8"', "fmt"),
            ("policy = 3", "policy"),
            ("bogus = 1", "line 1"),
            ('field = "mlp"\nseed = "x"', "seed"),
            ('field = "mlp"\nseed = -2', "seed"),
        ],
    )
    def test_solve_bad_config_fails_in_one_line(self, tmp_path, text, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{text}\nout = {tmp_path / 'sol'}\n")
        result = CliRunner().invoke(main, ["solve", "--config", str(cfg)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(f"Error: config: {key}: ")
        assert len(result.output.splitlines()) == 1
        assert not list(tmp_path.glob("sol_*"))

    def test_solve_degenerate_grid_fails_in_one_line(self, tmp_path):
        # 3 steps cannot split [0, 5e-324] into increasing nodes
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"t_final = 5e-324\nn = 3\nout = {tmp_path / 'sol'}\n")
        result = CliRunner().invoke(main, ["solve", "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.output == (
            "Error: config: t_final: grid must be strictly increasing with t[0] >= 0\n"
        )
        assert not list(tmp_path.glob("sol_*"))

    def test_sweep_bad_step_count_fails_in_one_line(self, tmp_path):
        out = tmp_path / "sweep.csv"
        result = CliRunner().invoke(main, ["sweep", "--n", "16,abc", "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == "Error: config: n: expected a positive integer, got 'abc'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--seed", "-1"], "Error: config: seed: expected a non-negative integer, got -1\n"),
            (["--lr", "0"], "Error: config: lr: expected a positive finite number, got 0.0\n"),
            (["--lr", "nan"], "Error: config: lr: expected a positive finite number, got nan\n"),
        ],
    )
    def test_sgd_demo_bad_config_fails_in_one_line(self, tmp_path, args, message):
        out = tmp_path / "sgd.csv"
        result = CliRunner().invoke(main, ["sgd-demo", "--steps", "2", *args, "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == message
        assert not out.exists()

    def test_sgd_demo_loss_blow_up_fails_in_one_line(self, tmp_path):
        # The weights blow up after one step, and the float64 loss with them.
        out = tmp_path / "sgd.csv"
        result = CliRunner().invoke(
            main, ["sgd-demo", "--lr", "1e300", "--steps", "5", "--out", str(out)]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == "Error: non-finite state after step 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_sgd_demo_rejects_non_positive_steps(self, tmp_path, steps):
        out = tmp_path / "sgd.csv"
        result = CliRunner().invoke(main, ["sgd-demo", "--steps", steps, "--out", str(out)])
        assert result.exit_code == 2
        assert "Invalid value for '--steps'" in result.output
        assert not out.exists()

    def test_rejects_bad_choice(self, tmp_path):
        result = CliRunner().invoke(
            main, ["sweep", "--n", "16", "--scheme", "rk45", "--out", str(tmp_path / "x.csv")]
        )
        assert result.exit_code != 0

    @pytest.mark.parametrize(
        "args",
        [
            ["table", "--steps", "4"],
            ["sweep", "--n", "4"],
            ["sgd-demo", "--steps", "1"],
        ],
        ids=["table", "sweep", "sgd-demo"],
    )
    def test_out_in_missing_directory_fails_in_one_line(self, tmp_path, args):
        out = tmp_path / "missing" / "out.csv"
        result = CliRunner().invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == f"Error: {out}: No such file or directory\n"

    def test_solve_out_in_missing_directory_fails_in_one_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n = 4\nout = {tmp_path / 'missing' / 'sol'}\n")
        result = CliRunner().invoke(main, ["solve", "--config", str(cfg)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        path = tmp_path / "missing" / "sol_trajectory.csv"
        assert result.output == f"Error: {path}: No such file or directory\n"

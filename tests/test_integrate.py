"""Forward integrator tests: bit-level references and blow-up reporting."""

import math

import numpy as np
import pytest

from mpode import integrate
from mpode.dynamics import LinearField, MlpField, Params, PolyDecayField
from mpode.integrate import (
    NonFiniteState,
    Scheme,
    StepVjp,
    TimeGrid,
    build_step_tape,
    format_float,
    forward,
    increment,
)
from mpode.precision import BFLOAT16, FLOAT16, FLOAT32, FLOAT64, RangeMonitor, quantize


class ZeroField(LinearField):
    def __init__(self, dim=1):
        super().__init__(np.zeros((dim, dim)))


class TestFormatFloat:
    def test_round_trips_float64(self):
        rng = np.random.default_rng(3)
        vals = [0.0, -0.0, 1.0, math.pi, 65504.0 / 180.0, 2.0**-1074, -1e308]
        vals += list(np.ldexp(rng.standard_normal(200), rng.integers(-300, 300, 200)))
        for v in vals:
            assert float(format_float(v)) == v

    def test_plain_small_integers(self):
        assert format_float(1.0) == "1"
        assert format_float(0.5) == "0.5"


class TestTimeGrid:
    def test_uniform(self):
        g = TimeGrid.uniform(2.0, 4)
        assert g.n_steps == 4
        assert np.array_equal(g.t, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 1.0, 0.5]))

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([-0.5, 1.0]))

    def test_rejects_single_node(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0]))


class TestScheme:
    def test_names_and_stages(self):
        assert Scheme.from_name("euler") is Scheme.EULER
        assert Scheme.from_name("RK4") is Scheme.RK4
        assert Scheme.EULER.stages == 1
        assert Scheme.RK4.stages == 4
        with pytest.raises(ValueError):
            Scheme.from_name("rk45")

    def test_weights_are_rounded_once_per_format(self, monkeypatch):
        tab = integrate._TABLEAUX[Scheme.RK4]
        want = {fmt: tuple(quantize(v, fmt) for v in (1.0 / 6.0, 1.0 / 3.0)) for fmt in (FLOAT16, BFLOAT16)}
        calls = []
        monkeypatch.setattr(integrate, "quantize", lambda x, fmt: calls.append(x) or quantize(x, fmt))
        monkeypatch.setattr(tab, "_rounded", {})
        for _ in range(3):
            for fmt, weights in want.items():
                assert tab.rounded_weights(fmt) == weights
        assert len(calls) == 4


class TestIncrement:
    def test_zero_field(self):
        dy = increment(Scheme.RK4, ZeroField(), np.array([3.0]), 0.0, 0.1, np.zeros(0), FLOAT16)
        assert dy[0] == 0.0

    def test_euler_is_field_eval(self):
        field = PolyDecayField()
        theta = quantize(np.array([0.4, -1.1, 0.9]), FLOAT16)
        y = np.array([0.7])
        dy = increment(Scheme.EULER, field, y, 0.5, 0.1, theta, FLOAT16)
        assert dy[0] == field.eval(0.5, y, theta, FLOAT16)[0]

    def test_rk4_single_step_bitwise(self):
        # exact float64 mirror of the stage and combination op order
        h, y0 = 0.1, 1.0
        h2 = 0.5 * h
        k1 = -y0
        k2 = -(y0 + h2 * k1)
        k3 = -(y0 + h2 * k2)
        k4 = -(y0 + h * k3)
        w6, w3 = 1.0 / 6.0, 1.0 / 3.0
        s = w6 * k1 + w3 * k2
        s = s + w3 * k3
        dy_ref = s + w6 * k4
        field = LinearField([[-1.0]])
        dy = increment(Scheme.RK4, field, np.array([y0]), 0.0, h, np.zeros(0), FLOAT64)
        assert dy[0] == dy_ref
        # one step is exp(-h) to fourth order
        assert abs((y0 + h * dy[0]) - math.exp(-h)) < 1e-6

    def test_rk4_eval_count(self):
        field = LinearField([[-1.0]])
        increment(Scheme.RK4, field, np.array([1.0]), 0.0, 0.1, np.zeros(0), FLOAT64)
        assert field.eval_count == 4


def same_bits(got, want) -> bool:
    """Equal bytes, as `tobytes` compares them, except that a NaN matches a
    NaN of either sign: an op of two NaNs returns a NaN of unspecified sign
    (`mpode.precision`)."""
    got, want = np.ravel(np.asarray(got, dtype=np.float64)), np.ravel(np.asarray(want, dtype=np.float64))
    nan = np.isnan(got)
    if got.size != want.size or not np.array_equal(nan, np.isnan(want)):
        return False
    return got[~nan].tobytes() == want[~nan].tobytes()


def tiny_state_problem(name):
    """Field, theta and a state small enough to underflow in narrow formats."""
    if name == "polydecay":
        return PolyDecayField(), np.array([0.4, -1.1, 0.9]), np.array([3e-6])
    if name == "polydecay-float":  # the one-component state as forward passes it
        return PolyDecayField(), np.array([0.4, -1.1, 0.9]), 3e-6
    if name == "linear":
        return LinearField([[-0.2, 1.0], [-1.0, -0.2]]), np.zeros(0), np.array([3e-6, -1e-6])
    field = MlpField((2, 8, 8, 2))
    return field, field.init_params(0).master, np.array([3e-6, -2e-6])


class TestStepTape:
    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    @pytest.mark.parametrize("field_name", ["polydecay", "polydecay-float", "linear", "mlp"])
    @pytest.mark.parametrize("fmt", [FLOAT16, BFLOAT16, FLOAT32, FLOAT64], ids=str)
    def test_tape_increment_is_forward_increment(self, scheme, field_name, fmt):
        field, theta, y = tiny_state_problem(field_name)
        theta_low = quantize(theta, fmt)
        mon_fwd, mon_tape = RangeMonitor(), RangeMonitor()
        dy = increment(scheme, field, y, 0.3, 0.1, theta_low, fmt, mon_fwd)
        assert field.eval_count == scheme.stages
        tape = build_step_tape(scheme, field, y, 0.3, 0.1, theta_low, fmt, mon_tape)
        assert field.eval_count == 2 * scheme.stages
        assert type(tape.increment) is type(dy)
        assert np.asarray(tape.increment).tobytes() == np.asarray(dy).tobytes()
        assert (mon_tape.underflows, mon_tape.overflows) == (mon_fwd.underflows, mon_fwd.overflows)
        if fmt is FLOAT16:
            assert mon_fwd.underflows > 0  # the comparison above saw range events
        if isinstance(y, float):  # the float form steps exactly like the (1,) array
            assert type(dy) is float
            mon_arr = RangeMonitor()
            want = increment(scheme, field, np.array([y]), 0.3, 0.1, theta_low, fmt, mon_arr)
            assert np.array([dy]).tobytes() == want.tobytes()
            assert (mon_arr.underflows, mon_arr.overflows) == (mon_fwd.underflows, mon_fwd.overflows)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    @pytest.mark.parametrize("fmt", [FLOAT16, BFLOAT16, FLOAT32], ids=str)
    def test_float_pullback_sums_dtheta_as_floats(self, scheme, fmt):
        # A float cotangent gives float step cotangents and a tuple dtheta
        # with the bits, the finiteness and the monitor counts of the (1,)
        # array form; 3e8 overflows float16 into infinities and NaNs.
        field, theta, y = tiny_state_problem("polydecay-float")
        theta_low = quantize(theta, fmt)
        for c in (1.5, 3e4, -2e-3, 3e8):
            mon, mon_arr = RangeMonitor(), RangeMonitor()
            got = build_step_tape(scheme, field, y, 0.3, 0.1, theta_low, fmt, mon).pullback(c, mon)
            tape = build_step_tape(scheme, field, np.array([y]), 0.3, 0.1, theta_low, fmt, mon_arr)
            want = tape.pullback(np.array([c]), mon_arr)
            assert type(got.dtheta) is tuple and all(type(d) is float for d in got.dtheta)
            assert same_bits(got.dtheta, want.dtheta)
            assert same_bits([got.da, got.dt, got.dh], [want.da[0], want.dt, want.dh])
            assert got.finite() == want.finite()
            assert (mon.underflows, mon.overflows) == (mon_arr.underflows, mon_arr.overflows)

    def test_finite_checks_take_tuples_of_floats(self):
        assert StepVjp(1.0, 0.0, 0.0, (1.0, -2.0, 3.0)).finite()
        assert integrate._all_finite(()) and integrate._all_finite((0.5, -0.0))
        for bad in (math.inf, -math.inf, math.nan):
            assert not StepVjp(1.0, 0.0, 0.0, (1.0, bad, 3.0)).finite()
            assert not integrate._all_finite((0.5, bad))


class TestForward:
    def test_euler_float64_bitwise(self):
        field = LinearField([[-1.0]])
        grid = TimeGrid.uniform(1.0, 10)
        traj = forward(Scheme.EULER, field, np.array([1.0]), grid, None, FLOAT64, FLOAT64)
        y = 1.0
        for i in range(10):
            h = float(grid.t[i + 1]) - float(grid.t[i])
            y = y + h * (-y)
        assert traj.states[-1][0] == y
        assert traj.final_hp[0] == y

    def test_non_uniform_grid(self):
        field = LinearField([[-1.0]])
        grid = TimeGrid(np.array([0.0, 0.1, 0.4, 1.0]))
        traj = forward(Scheme.EULER, field, np.array([1.0]), grid, None, FLOAT64, FLOAT64)
        y = 1.0
        for i in range(3):
            h = float(grid.t[i + 1]) - float(grid.t[i])
            y = y + h * (-y)
        assert traj.states[-1][0] == y

    def test_stored_states_live_on_low_grid(self):
        field = PolyDecayField()
        params = Params([0.4, -1.1, 0.9])
        traj = forward(
            Scheme.RK4, field, np.array([1.0]), TimeGrid.uniform(2.0, 32), params, FLOAT16, FLOAT32
        )
        assert np.array_equal(quantize(traj.states, FLOAT16), traj.states)
        # the high-precision accumulator rounds onto the stored terminal state
        assert quantize(traj.final_hp, FLOAT16)[0] == traj.states[-1][0]
        # accumulator is genuinely wider: it differs from its rounded copy
        assert traj.final_hp[0] != traj.states[-1][0]

    def test_eval_budget(self):
        field = LinearField([[-1.0]])
        forward(Scheme.RK4, field, np.array([1.0]), TimeGrid.uniform(1.0, 10), None, FLOAT64, FLOAT64)
        assert field.eval_count == 40

    def test_non_finite_state_carries_partial_trajectory(self):
        field = LinearField([[30.0]])
        with pytest.raises(NonFiniteState) as info:
            forward(
                Scheme.EULER, field, np.array([10000.0]), TimeGrid.uniform(1.0, 4), None,
                FLOAT16, FLOAT32,
            )
        exc = info.value
        assert exc.step == 0
        assert exc.trajectory.states.shape == (2, 1)
        assert math.isinf(exc.trajectory.states[1][0])

    def test_initial_state_size_checked(self):
        with pytest.raises(ValueError):
            forward(
                Scheme.EULER, LinearField([[-1.0]]), np.array([1.0, 2.0]),
                TimeGrid.uniform(1.0, 2), None, FLOAT64, FLOAT64,
            )


class TestTrajectoryCsv:
    def test_byte_deterministic(self, tmp_path):
        field = PolyDecayField()
        params = Params([0.4, -1.1, 0.9])
        paths = []
        for name in ("a.csv", "b.csv"):
            traj = forward(
                Scheme.RK4, field, np.array([1.0]), TimeGrid.uniform(2.0, 8), params,
                FLOAT16, FLOAT32,
            )
            p = tmp_path / name
            traj.to_csv(p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_header_and_shape(self, tmp_path):
        field = LinearField([[0.0, 1.0], [-1.0, 0.0]])
        traj = forward(
            Scheme.EULER, field, np.array([1.0, 0.0]), TimeGrid.uniform(1.0, 3), None,
            FLOAT64, FLOAT64,
        )
        p = tmp_path / "t.csv"
        traj.to_csv(p)
        lines = p.read_text().splitlines()
        assert lines[0] == "i,t,y0,y1"
        assert len(lines) == 5
        assert lines[1].startswith("0,0,1,0")


def batch_problem(field_name, batch):
    """A batched field, its parameters and B initial states.

    The rows mix O(1) states with tiny ones, so narrow formats record
    underflows; the operands every row shares (t and A) stay normal, so the
    batch's RangeMonitor counts are the sum of its rows'.
    """
    if field_name == "linear":
        field, params = LinearField([[-0.2, 1.0], [-1.0, -0.2]]), None
    else:
        field = MlpField((2, 8, 8, 2))
        params = field.init_params(0)
    rng = np.random.default_rng(batch)
    xs = rng.standard_normal((batch, 2)) * np.where(rng.random((batch, 1)) < 0.3, 3e-6, 1.0)
    return field, params, xs


def high_format(fmt):
    return FLOAT64 if fmt is FLOAT64 else FLOAT32


class TestBatch:
    @pytest.mark.parametrize("batch", [1, 3, 16])
    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    @pytest.mark.parametrize("field_name", ["linear", "mlp"])
    @pytest.mark.parametrize("fmt", [FLOAT16, BFLOAT16, FLOAT32, FLOAT64], ids=str)
    def test_each_row_is_its_own_forward(self, batch, scheme, field_name, fmt):
        field, params, xs = batch_problem(field_name, batch)
        grid = TimeGrid.uniform(1.0, 6)
        mon = RangeMonitor()
        traj = forward(scheme, field, xs, grid, params, fmt, high_format(fmt), mon)
        assert traj.states.shape == (7, batch, 2) and traj.final_hp.shape == (batch, 2)
        assert field.eval_count == 6 * scheme.stages  # one evaluation per stage for all rows
        counts = [0, 0]
        for r, x in enumerate(xs):
            row_mon = RangeMonitor()
            alone = forward(scheme, field, x, grid, params, fmt, high_format(fmt), row_mon)
            assert traj.states[:, r].tobytes() == alone.states.tobytes()
            assert traj.final_hp[r].tobytes() == alone.final_hp.tobytes()
            counts[0] += row_mon.underflows
            counts[1] += row_mon.overflows
        assert [mon.underflows, mon.overflows] == counts
        if fmt is FLOAT16 and batch > 1:
            assert counts[0] > 0  # the count comparison saw range events

    def test_non_finite_row_stops_the_batch(self):
        xs = np.array([[1.0], [10000.0]])
        with pytest.raises(NonFiniteState) as info:
            forward(
                Scheme.EULER, LinearField([[30.0]]), xs, TimeGrid.uniform(1.0, 4), None,
                FLOAT16, FLOAT32,
            )
        assert info.value.step == 0
        assert info.value.trajectory.states.shape == (2, 2, 1)

    @pytest.mark.parametrize("shape", [(2, 2), (0, 1), (2, 1, 1)])
    def test_batch_shape_checked(self, shape):
        with pytest.raises(ValueError, match="initial state has shape"):
            forward(
                Scheme.EULER, LinearField([[-1.0]]), np.ones(shape),
                TimeGrid.uniform(1.0, 2), None, FLOAT64, FLOAT64,
            )

    def test_polydecay_takes_one_state(self):
        with pytest.raises(ValueError, match="one state"):
            forward(
                Scheme.EULER, PolyDecayField(), np.ones((2, 1)), TimeGrid.uniform(1.0, 2),
                Params([0.4, -1.1, 0.9]), FLOAT16, FLOAT32,
            )

    def test_batched_trajectory_csv_raises(self, tmp_path):
        field, params, xs = batch_problem("linear", 3)
        traj = forward(Scheme.EULER, field, xs, TimeGrid.uniform(1.0, 2), params, FLOAT64, FLOAT64)
        with pytest.raises(ValueError, match="batch of 3"):
            traj.to_csv(tmp_path / "t.csv")
        assert not (tmp_path / "t.csv").exists()


def per_row_problem(batch):
    """A batched MlpField problem with its own parameters for every row."""
    field, _, xs = batch_problem("mlp", batch)
    return field, [field.init_params(seed) for seed in range(batch)], xs


class TestPerRowParams:
    """A sequence of B Params gives each row of a (B, dim) batch its own."""

    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    @pytest.mark.parametrize("fmt", [FLOAT16, BFLOAT16, FLOAT64], ids=str)
    def test_each_row_is_its_own_forward(self, scheme, fmt):
        field, params, xs = per_row_problem(3)
        grid = TimeGrid.uniform(1.0, 6)
        traj = forward(scheme, field, xs, grid, params, fmt, high_format(fmt))
        assert traj.states.shape == (7, 3, 2)
        for r, x in enumerate(xs):
            alone = forward(scheme, field, x, grid, params[r], fmt, high_format(fmt))
            assert traj.states[:, r].tobytes() == alone.states.tobytes()
            assert traj.final_hp[r].tobytes() == alone.final_hp.tobytes()

    @pytest.mark.parametrize(
        "rows, count", [(3, 2), (3, 4), (None, 2)], ids=["too-few", "too-many", "one-state"]
    )
    def test_count_checked_before_any_work(self, rows, count):
        field, params, xs = per_row_problem(4)
        x = xs[0] if rows is None else xs[:rows]
        with pytest.raises(ValueError, match="per-row parameters take one per row"):
            forward(Scheme.EULER, field, x, TimeGrid.uniform(1.0, 2), params[:count], FLOAT16, FLOAT32)
        assert field.eval_count == 0

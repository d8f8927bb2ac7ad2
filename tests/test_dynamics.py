"""Field evaluation and hand-written reverse-sweep tests."""

import numpy as np
import pytest

from mpode.dynamics import LinearField, MlpField, Params, PolyDecayField
from mpode.precision import BFLOAT16, FLOAT16, FLOAT64, RangeMonitor, quantize


def fd_field_vjp(field, t, y, theta, cotangent, eps=1e-6):
    """Central differences of cotangent . f for an independent comparison."""

    def val(tv, yv, thv):
        return float(np.dot(cotangent, field.eval(tv, yv, thv, FLOAT64)))

    da = np.array([
        (val(t, y + eps * e, theta) - val(t, y - eps * e, theta)) / (2 * eps)
        for e in np.eye(len(y))
    ])
    dt = (val(t + eps, y, theta) - val(t - eps, y, theta)) / (2 * eps)
    dtheta = np.array([
        (val(t, y, theta + eps * e) - val(t, y, theta - eps * e)) / (2 * eps)
        for e in np.eye(len(theta))
    ])
    return da, dt, dtheta


class TestParams:
    def test_master_is_float64_flat(self):
        p = Params([[1, 2], [3, 4]])
        assert p.master.dtype == np.float64 and p.master.shape == (4,)
        assert len(p) == 4

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Params([1.0, np.inf])

    def test_low_quantizes(self):
        p = Params([1.0 + 2.0**-13])
        assert p.low(FLOAT16)[0] == 1.0
        assert p.low(FLOAT64)[0] == 1.0 + 2.0**-13


class TestPolyDecay:
    def test_value_at_zero_time(self):
        # lambda(0) = th3; the product with the rounded benchmark state is
        # exactly representable, so the value is bit-pinned
        field = PolyDecayField()
        theta = quantize(np.array([8.0, -11.0, 2.0**-16]), FLOAT16)
        y = np.array([quantize(65504.0 / 180.0, FLOAT16)])
        f = field.eval(0.0, y, theta, FLOAT16)
        assert f[0] == -0.00555419921875

    def test_vjp_closed_form(self):
        field = PolyDecayField()
        theta = np.array([0.0, 0.0, 0.25])
        out = field.vjp(0.5, np.array([2.0]), theta, np.array([1.0]), FLOAT64)
        assert out.da[0] == -0.25  # -lambda
        assert out.dt == 0.0  # -(2*th1*t + th2)*y with th1 = th2 = 0
        assert np.array_equal(out.dtheta, [-0.5, -1.0, -2.0])  # -(t^2, t, 1)*y

    def test_vjp_matches_fd(self):
        field = PolyDecayField()
        theta = np.array([0.4, -1.1, 0.9])
        y = np.array([0.7])
        c = np.array([1.3])
        out = field.vjp(0.8, y, theta, c, FLOAT64)
        da, dt, dtheta = fd_field_vjp(field, 0.8, y, theta, c)
        assert np.allclose(out.da, da, rtol=1e-8)
        assert np.isclose(out.dt, dt, rtol=1e-7, atol=1e-9)
        assert np.allclose(out.dtheta, dtheta, rtol=1e-7)

    def test_zero_cotangent(self):
        field = PolyDecayField()
        out = field.vjp(0.5, np.array([2.0]), np.array([1.0, 2.0, 3.0]), np.zeros(1), FLOAT16)
        assert out.da[0] == 0.0 and out.dt == 0.0 and not out.dtheta.any()

    def test_parameter_forms_give_the_same_bits(self):
        # theta is read with one conversion to float64, whatever its form.
        field = PolyDecayField()
        theta = quantize(np.array([0.4, -1.1, 0.9]), FLOAT16).tolist()  # float32 holds these exactly
        results = set()
        for form in (theta, tuple(theta), np.array(theta), np.array(theta, dtype=np.float32)):
            f, pull = field.linearize(0.8, 0.7, form, FLOAT16)
            out = pull(-1.25)
            results.add(tuple(float.hex(v) for v in (f, out.da, out.dt, *out.dtheta)))
        assert len(results) == 1, results

    def test_power_of_two_cotangent_scaling_is_exact(self):
        # scaling the cotangent by 2^k scales every vjp output by exactly
        # 2^k while no rounding leaves the normal range
        field = PolyDecayField()
        theta = quantize(np.array([0.4, -1.1, 0.9]), FLOAT16)
        y = np.array([0.7])
        mon = RangeMonitor()
        _, pull = field.linearize(0.8, y, theta, FLOAT16, mon)
        base = pull(np.array([1.25]), mon)
        scaled = pull(np.array([1.25 * 2.0**6]), mon)
        assert mon.clean
        assert np.array_equal(scaled.da, base.da * 2.0**6)
        assert scaled.dt == base.dt * 2.0**6
        assert np.array_equal(scaled.dtheta, base.dtheta * 2.0**6)


class TestLinearField:
    def test_eval(self):
        field = LinearField([[0.0, 1.0], [-1.0, 0.0]])
        f = field.eval(0.0, np.array([1.0, 2.0]), np.zeros(0), FLOAT64)
        assert np.array_equal(f, [2.0, -1.0])
        assert field.dim_params == 0

    def test_vjp_is_transpose(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        field = LinearField(a)
        c = np.array([1.0, -1.0])
        out = field.vjp(0.0, np.array([0.5, 0.25]), np.zeros(0), c, FLOAT64)
        assert np.allclose(out.da, a.T @ c)
        assert out.dt == 0.0 and out.dtheta.size == 0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            LinearField([[1.0, 2.0]])


class TestMlpField:
    def test_shapes_and_param_count(self):
        field = MlpField((2, 4, 4, 2))
        # first layer consumes the state plus the time coordinate
        assert field.dim_state == 2
        assert field.dim_params == (4 * 3 + 4) + (4 * 4 + 4) + (2 * 4 + 2)

    def test_rejects_mismatched_widths(self):
        with pytest.raises(ValueError):
            MlpField((2, 8, 3))

    def test_init_params_deterministic(self):
        field = MlpField((2, 4, 4, 2))
        p1, p2 = field.init_params(3), field.init_params(3)
        assert np.array_equal(p1.master, p2.master)
        assert not np.array_equal(p1.master, field.init_params(4).master)

    def test_vjp_matches_fd(self):
        field = MlpField((2, 4, 4, 2))
        rng = np.random.default_rng(11)
        theta = field.init_params(5).master
        y = rng.standard_normal(2)
        c = rng.standard_normal(2)
        out = field.vjp(0.3, y, theta, c, FLOAT64)
        da, dt, dtheta = fd_field_vjp(field, 0.3, y, theta, c)
        assert np.allclose(out.da, da, rtol=1e-6, atol=1e-9)
        assert np.isclose(out.dt, dt, rtol=1e-6, atol=1e-9)
        assert np.allclose(out.dtheta, dtheta, rtol=1e-6, atol=1e-8)

    def test_pullback_does_not_reevaluate(self):
        field = MlpField((2, 4, 4, 2))
        theta = field.init_params(0).master
        assert field.eval_count == 0
        _, pull = field.linearize(0.1, np.array([0.3, -0.2]), theta, FLOAT16)
        assert field.eval_count == 1
        for k in range(5):
            pull(np.array([1.0, float(k)]))
        assert field.eval_count == 1

    def test_power_of_two_cotangent_scaling_is_exact(self):
        field = MlpField((2, 4, 4, 2))
        theta = quantize(field.init_params(2).master, FLOAT16)
        mon = RangeMonitor()
        _, pull = field.linearize(0.25, np.array([0.5, -0.75]), theta, FLOAT16, mon)
        base = pull(np.array([1.0, 0.5]), mon)
        scaled = pull(np.array([2.0**4, 0.5 * 2.0**4]), mon)
        assert mon.clean
        assert np.array_equal(scaled.da, base.da * 2.0**4)
        assert scaled.dt == base.dt * 2.0**4
        assert np.array_equal(scaled.dtheta, base.dtheta * 2.0**4)


def linearize_bits(field, theta, fmt, y):
    """The bytes of one linearize at `theta` and of its pullback."""
    f, pull = field.linearize(0.3, y, theta, fmt)
    v = pull(np.ones_like(y))
    return f.tobytes(), v.da.tobytes(), np.float64(v.dt).tobytes(), v.dtheta.tobytes()


STATES = {"one": np.array([0.5, -0.25]), "batch": np.array([[0.5, -0.25], [1.5, 0.75], [-2.0, 0.125]])}


class TestMlpLayerSplit:
    """MlpField reuses the layer views of the last theta it split while the
    same object comes back; every result is that of a fresh split."""

    @pytest.mark.parametrize("state", list(STATES))
    def test_in_place_edit_of_theta_is_seen(self, state):
        field, y = MlpField((2, 4, 4, 2)), STATES[state]
        theta = field.init_params(1).master.copy()
        before = linearize_bits(field, theta, FLOAT16, y)
        layers = field._layers(theta)
        theta[:] = field.init_params(2).master
        after = linearize_bits(field, theta, FLOAT16, y)
        assert field._layers(theta) is layers  # the split was reused
        assert after == linearize_bits(MlpField((2, 4, 4, 2)), theta.copy(), FLOAT16, y)
        assert after != before

    @pytest.mark.parametrize("state", list(STATES))
    def test_alternating_master_and_low_copy(self, state):
        field, y = MlpField((2, 4, 4, 2)), STATES[state]
        params = field.init_params(3)
        theta_low = params.low(FLOAT16)
        for theta, fmt in [(params.master, FLOAT64), (theta_low, FLOAT16)] * 2:
            fresh = linearize_bits(MlpField((2, 4, 4, 2)), theta, fmt, y)
            assert linearize_bits(field, theta, fmt, y) == fresh
        # An equal array that is another object is split anew.
        copy = theta_low.copy()
        assert field._layers(copy) is not field._layers(theta_low)

    def test_eval_count_counts_every_evaluation(self):
        field = MlpField((2, 4, 4, 2))
        theta = field.init_params(0).master
        y = STATES["one"]
        pulls = [field.linearize(0.1, y, theta, FLOAT16)[1] for _ in range(3)]
        field.eval(0.1, y, theta, FLOAT16)
        field.vjp(0.1, y, theta.copy(), y, FLOAT16)
        assert field.eval_count == 5
        for pull in pulls:
            pull(y)
        assert field.eval_count == 5



class TestMlpPerRowParams:
    """A `(B, n_params)` theta gives each row of a `(B, dim)` batch its own
    parameters: every row's value and pullback are those of its own
    evaluation with its own theta, bit for bit."""

    @pytest.mark.parametrize("widths", [(2, 4, 2), (2, 16, 16, 2)], ids=str)
    @pytest.mark.parametrize("fmt", [FLOAT16, BFLOAT16, FLOAT64], ids=str)
    def test_each_row_is_its_own_evaluation(self, widths, fmt):
        field, ys = MlpField(widths), STATES["batch"]
        thetas = np.stack([field.init_params(seed).low(fmt) for seed in range(len(ys))])
        cotangents = np.array([[1.0, -0.5], [2.0**-20, 3.0], [-0.75, 0.0]])
        f, pull = field.linearize(0.3, ys, thetas, fmt)
        v = pull(cotangents)
        assert f.shape == (3, 2) and v.dt.shape == (3,)
        assert v.dtheta.shape == (3, field.dim_params)
        for r in range(len(ys)):
            alone, alone_pull = MlpField(widths).linearize(0.3, ys[r], thetas[r].copy(), fmt)
            w = alone_pull(cotangents[r])
            assert f[r].tobytes() == alone.tobytes()
            assert v.da[r].tobytes() == w.da.tobytes()
            assert np.float64(v.dt[r]).tobytes() == np.float64(w.dt).tobytes()
            assert v.dtheta[r].tobytes() == w.dtheta.tobytes()
        # The rows' own parameters made a difference.
        shared = field.eval(0.3, ys, thetas[0], fmt)
        assert f[0].tobytes() == shared[0].tobytes() and f[1].tobytes() != shared[1].tobytes()

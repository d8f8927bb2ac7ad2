"""Rounding-layer tests: exactness against an independent oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpode.precision import (
    BFLOAT16,
    FLOAT16,
    FLOAT32,
    FLOAT64,
    FloatFormat,
    RangeMonitor,
    add,
    div,
    dot,
    exp,
    get_format,
    mul,
    quantize,
    sub,
)

from _oracles import round_bfloat16, round_float16, round_float32


def all_float16_values() -> np.ndarray:
    bits = np.arange(1 << 16, dtype=np.uint16)
    return bits.view(np.float16).astype(np.float64)


class TestQuantizeExact:
    def test_float16_idempotent_on_all_patterns(self):
        vals = all_float16_values()
        out = quantize(vals, FLOAT16)
        finite = np.isfinite(vals)
        assert np.array_equal(out[finite], vals[finite])
        assert np.array_equal(np.signbit(out[finite]), np.signbit(vals[finite]))
        assert np.all(np.isnan(out[np.isnan(vals)]))
        assert np.array_equal(out[np.isinf(vals)], vals[np.isinf(vals)])

    @pytest.mark.parametrize(
        "fmt,oracle",
        [(FLOAT16, round_float16), (BFLOAT16, round_bfloat16), (FLOAT32, round_float32)],
        ids=["float16", "bfloat16", "float32"],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    def test_random_doubles_match_oracle(self, fmt, oracle):
        rng = np.random.default_rng(20240811)
        m = rng.standard_normal(100_000)
        e = rng.integers(-45, 45, size=100_000)
        x = np.ldexp(m, e)
        got = quantize(x, fmt)
        want = np.array([oracle(float(v)) for v in x])
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize(
        "fmt,oracle",
        [(FLOAT16, round_float16), (BFLOAT16, round_bfloat16)],
        ids=["float16", "bfloat16"],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    def test_scalar_path_matches_array_path(self, fmt, oracle):
        rng = np.random.default_rng(7)
        m = rng.standard_normal(2_000)
        e = rng.integers(-45, 45, size=2_000)
        for v in np.ldexp(m, e):
            s = quantize(float(v), fmt)
            a = float(quantize(np.array([v]), fmt)[0])
            assert s == a == oracle(float(v))
            assert isinstance(s, float)

    def test_derived_values(self):
        # one ulp below the rounding threshold collapses onto 1.0 (tie to even)
        assert quantize(1.0 + 2.0**-11, FLOAT16) == 1.0
        assert quantize(1.0 + 3.0 * 2.0**-11, FLOAT16) == 1.0 + 2.0**-9
        # halfway between max finite and the next step overflows
        assert quantize(65520.0, FLOAT16) == math.inf
        assert quantize(65519.999999, FLOAT16) == 65504.0
        assert quantize(-65520.0, FLOAT16) == -math.inf
        # below half the smallest subnormal rounds to zero
        assert quantize(2.0**-25, FLOAT16) == 0.0
        assert quantize(float(np.nextafter(2.0**-25, 1.0)), FLOAT16) == 2.0**-24
        # the benchmark initial state is exactly representable after rounding
        assert quantize(65504.0 / 180.0, FLOAT16) == 364.0

    def test_subnormals_are_kept(self):
        # gradual underflow: values below min_normal survive on the subnormal grid
        x = 3.0 * 2.0**-26  # 0.75 * min_subnormal
        assert quantize(x, FLOAT16) == 2.0**-24
        assert quantize(2.0**-24 * 5, FLOAT16) == 2.0**-24 * 5
        assert quantize(6e-5, FLOAT16) != 0.0
        assert quantize(6e-5, FLOAT16) < FLOAT16.min_normal

    def test_float64_passthrough(self):
        x = np.array([math.pi, 1e300, 5e-324, -0.0])
        out = quantize(x, FLOAT64)
        assert np.array_equal(out, x)
        assert quantize(math.pi, FLOAT64) == math.pi

    def test_signed_zero(self):
        assert math.copysign(1.0, quantize(-0.0, FLOAT16)) == -1.0
        assert math.copysign(1.0, quantize(-1e-30, FLOAT16)) == -1.0
        assert np.signbit(quantize(np.array([-1e-40]), BFLOAT16))[0]


class TestFormatTable:
    def test_format_parameters(self):
        assert FLOAT16.max_finite == 65504.0
        assert FLOAT16.min_normal == 2.0**-14
        assert FLOAT16.min_subnormal == 2.0**-24
        assert FLOAT16.unit_roundoff == 2.0**-11
        assert BFLOAT16.unit_roundoff == 2.0**-8
        assert BFLOAT16.max_finite == pytest.approx(3.3895e38, rel=1e-4)
        assert FLOAT32.unit_roundoff == 2.0**-24
        assert FLOAT32.max_finite == pytest.approx(3.4028e38, rel=1e-4)

    def test_get_format(self):
        assert get_format("float16") is FLOAT16
        with pytest.raises(ValueError):
            get_format("float8")

    def test_degenerate_format_rejected(self):
        with pytest.raises(ValueError):
            FloatFormat("bad", 1, 10)


finite_doubles = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e30, max_value=1e30
)


class TestQuantizeProperties:
    @given(finite_doubles, st.sampled_from(["float16", "bfloat16", "float32"]))
    def test_idempotent(self, x, name):
        fmt = get_format(name)
        once = quantize(x, fmt)
        assert quantize(once, fmt) == once or (math.isnan(once) and math.isnan(quantize(once, fmt)))

    @given(finite_doubles, finite_doubles, st.sampled_from(["float16", "bfloat16"]))
    def test_monotone(self, x, y, name):
        fmt = get_format(name)
        lo, hi = min(x, y), max(x, y)
        assert quantize(lo, fmt) <= quantize(hi, fmt)

    @given(
        finite_doubles,
        st.integers(min_value=-8, max_value=8),
        st.sampled_from(["float16", "bfloat16"]),
    )
    def test_power_of_two_scaling_exact(self, x, k, name):
        # scaling by 2^k shifts exponents only, so rounding commutes with it
        # whenever neither side leaves the normal range
        fmt = get_format(name)
        s = 2.0**k
        mon = RangeMonitor()
        a = quantize(x * s, fmt, mon)
        b = quantize(x, fmt, mon) * s
        if mon.clean and abs(x) > 1e-3 and abs(x) < 1e3:
            assert a == b

    @given(st.floats(min_value=1e-3, max_value=1e3), st.sampled_from(["float16", "bfloat16"]))
    def test_relative_error_bound(self, x, name):
        fmt = get_format(name)
        y = quantize(x, fmt)
        assert abs(y - x) <= fmt.unit_roundoff * abs(x)

    @given(st.lists(finite_doubles, min_size=1, max_size=7))
    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    def test_vector_matches_elementwise(self, xs):
        arr = np.array(xs)
        out = quantize(arr, FLOAT16)
        for i, v in enumerate(xs):
            got, want = out[i], quantize(float(v), FLOAT16)
            assert got == want or (math.isnan(got) and math.isnan(want))


class TestRangeMonitor:
    def test_counts_overflow(self):
        mon = RangeMonitor()
        quantize(1e6, FLOAT16, mon)
        assert mon.overflows == 1 and not mon.clean

    def test_counts_underflow_to_zero_and_subnormal(self):
        mon = RangeMonitor()
        quantize(2.0**-26, FLOAT16, mon)  # rounds to zero
        quantize(2.0**-20, FLOAT16, mon)  # lands on the subnormal grid
        assert mon.underflows == 2

    def test_exact_zero_and_infinite_input_not_counted(self):
        mon = RangeMonitor()
        quantize(0.0, FLOAT16, mon)
        quantize(math.inf, FLOAT16, mon)
        assert mon.clean

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    def test_vector_counts(self):
        mon = RangeMonitor()
        quantize(np.array([1e6, -1e6, 1.0, 2.0**-26]), FLOAT16, mon)
        assert mon.overflows == 2 and mon.underflows == 1


class TestRoundedOps:
    def test_add_rounds_once(self):
        # 2048 + 1 is exact in the carrier but rounds to 2048 in float16
        assert add(2048.0, 1.0, FLOAT16) == 2048.0
        assert add(2048.0, 3.0, FLOAT16) == 2052.0

    def test_add_overflow_to_inf(self):
        assert add(65504.0, 65504.0, FLOAT16) == math.inf
        assert add(65504.0, 65504.0, fmt=FLOAT16) == math.inf

    def test_mul_subnormal_result(self):
        out = mul(2.0**-14, 2.0**-4, FLOAT16)
        assert out == 2.0**-18  # subnormal, not flushed

    def test_div_by_zero(self):
        assert div(1.0, 0.0, FLOAT16) == math.inf
        assert div(-1.0, 0.0, FLOAT16) == -math.inf

    def test_sub_of_nearby_values_is_exact(self):
        # the difference of neighbours is representable, so no error at all
        a, b = 1.0, 1.0 - 2.0**-11
        assert sub(a, b, FLOAT16) == 2.0**-11

    def test_exp_matches_quantized_carrier(self):
        x = 0.5
        assert exp(x, FLOAT16) == quantize(math.exp(x), FLOAT16)

    def test_dot_left_to_right(self):
        a = np.array([1.0, 1.0, 1.0])
        b = np.array([2048.0, 1.0, 1.0])
        # (2048 + 1) rounds to 2048, then + 1 rounds to 2048 again
        assert dot(a, b, FLOAT16) == 2048.0

    def test_dot_matrix_vector(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        v = np.array([1.0, 1.0])
        out = dot(w, v, FLOAT64)
        assert np.array_equal(out, w @ v)

    @given(finite_doubles, finite_doubles)
    def test_ops_always_representable(self, a, b):
        for op in (add, sub, mul):
            out = op(a, b, FLOAT16)
            requantized = quantize(out, FLOAT16)
            assert out == requantized or (math.isnan(out) and math.isnan(requantized))

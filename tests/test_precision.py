"""Rounding-layer tests: exactness against an independent oracle."""

import dataclasses
import math
import operator
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mpode import precision
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
    tanh,
)
from mpode.precision import _SMALL

from _oracles import round_bfloat16, round_float16, round_float32, round_to_format

# Its split rounder's top is below max_finite: the values between take
# the generic code.
E11M20 = FloatFormat("e11m20", 11, 20)


def all_float16_values() -> np.ndarray:
    bits = np.arange(1 << 16, dtype=np.uint16)
    return bits.view(np.float16).astype(np.float64)


def finite_bfloat16_values() -> np.ndarray:
    bits = np.arange(1 << 16, dtype=np.uint32) << 16
    bits = bits[bits & 0x7F800000 != 0x7F800000]
    return bits.view(np.float32).astype(np.float64)


SMALL_FORMATS = pytest.mark.parametrize(
    "fmt,oracle",
    [(FLOAT16, round_float16), (BFLOAT16, round_bfloat16), (FLOAT32, round_float32)],
    ids=["float16", "bfloat16", "float32"],
)


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
        # One array of 2,000 takes the vectorised path; a 1-element array
        # would take the same per-element path as the scalar.
        rng = np.random.default_rng(7)
        m = rng.standard_normal(2_000)
        e = rng.integers(-45, 45, size=2_000)
        x = np.ldexp(m, e)
        for v, a in zip(x.tolist(), quantize(x, fmt).tolist()):
            s = quantize(v, fmt)
            assert s == a == oracle(v)
            assert isinstance(s, float)

    @staticmethod
    def _check_scalar_path(xs: np.ndarray, fmt, oracle, native=None) -> None:
        """Every value of `xs` as a Python float: bits and sign against the
        integer oracle and, given a `native` dtype, numpy's cast, and a
        Python float back."""
        got = [quantize(v, fmt) for v in xs.tolist()]
        assert all(type(g) is float for g in got)
        got = np.array(got)
        want = np.array([oracle(v) for v in xs.tolist()])
        assert _same_bits(got, want), xs[got.view(np.uint64) != want.view(np.uint64)][:5]
        if native is not None:
            with np.errstate(over="ignore"):
                assert _same_bits(got, xs.astype(native).astype(np.float64))
        assert np.array_equal(np.signbit(got), np.signbit(xs))

    def test_float16_scalar_path_exhaustive(self):
        # Every finite value, every midpoint between neighbours (65520 is the
        # one above max_finite), and the float64 neighbours of each midpoint.
        vals = all_float16_values()
        vals = vals[np.isfinite(vals)]
        pos = np.unique(np.abs(vals))
        mids = np.append((pos[:-1] + pos[1:]) / 2, 65520.0)
        mids = np.concatenate([mids, -mids])
        near = [np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf)]
        xs = np.concatenate([vals, mids, *near])
        assert xs.size > 250_000
        self._check_scalar_path(xs, FLOAT16, round_float16, np.float16)

    def test_bfloat16_scalar_path_exhaustive(self):
        # The same for bfloat16: max_finite + 2**119 is the midpoint above
        # max_finite.
        vals = finite_bfloat16_values()
        pos = np.unique(np.abs(vals))
        mids = np.append((pos[:-1] + pos[1:]) / 2, BFLOAT16.max_finite + 2.0**119)
        mids = np.concatenate([mids, -mids])
        near = [np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf)]
        xs = np.concatenate([vals, mids, *near])
        assert xs.size > 250_000
        self._check_scalar_path(xs, BFLOAT16, round_bfloat16)

    def test_float32_scalar_path_sample(self):
        rng = np.random.default_rng(20261019)
        # Ties and their neighbours at random exponents, normal and subnormal.
        sig = rng.integers(1 << 23, 1 << 24, size=4000).astype(np.float64)
        exps = rng.integers(-149 - 23, 128 - 23, size=4000)
        ties = np.ldexp(sig + 0.5, exps)
        sub = np.ldexp(rng.integers(1, 1 << 23, size=2000) + 0.5, -149)
        # An even and an odd tie in every normal binade, 2**-126 to 2**127.
        binades = np.arange(-126, 128)
        even = 2 * rng.integers(1 << 22, 1 << 23, size=binades.size)
        binade_ties = np.ldexp(np.concatenate([even, even + 1]) + 0.5, np.tile(binades - 23, 2))
        top = FLOAT32.max_finite
        edges = np.array([top, np.nextafter(top, np.inf), top + 2.0**103,
                          np.nextafter(top + 2.0**103, 0.0), 3.4028235e38, FLOAT32.min_normal])
        # float16's overflow edge, every float32 value there, and midpoints.
        band = np.arange(65504.0, 65520.0 + 2.0**-8, 2.0**-8)
        band = np.concatenate([band, band + 2.0**-9])
        xs = np.concatenate([ties, sub, binade_ties, edges, band])
        xs = np.concatenate([xs, np.nextafter(xs, np.inf), np.nextafter(xs, -np.inf)])
        xs = np.concatenate([xs, -xs])
        self._check_scalar_path(xs, FLOAT32, round_float32, np.float32)

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    @pytest.mark.parametrize("fmt", [FLOAT16, BFLOAT16, FLOAT32, FLOAT64], ids=str)
    def test_scalar_return_types(self, fmt):
        for x in (3, -7, 10**6, True, np.float64(0.1), np.float64(1e300), 0.1, -0.0, math.inf):
            got = quantize(x, fmt)
            assert type(got) is float, (fmt.name, x, type(got))
            assert got == quantize(np.array([float(x)]), fmt)[0]
        got = quantize(np.array(0.1), fmt)
        assert isinstance(got, np.ndarray) and got.shape == () and got.dtype == np.float64

    @SMALL_FORMATS
    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    def test_generic_code_sees_only_values_outside_the_normal_range(self, fmt, oracle, monkeypatch):
        # The split rounder covers min_normal <= |x| <= max_finite and a
        # zero returns as it is; the subnormal range, values beyond
        # +-max_finite, +-inf and NaN take the generic scalar code.
        generic, seen = precision._quantize_scalar, []

        def spy(x, f):
            seen.append(x)
            return generic(x, f)

        monkeypatch.setattr(precision, "_quantize_scalar", spy)
        fresh = FloatFormat(fmt.name, fmt.exponent_bits, fmt.mantissa_bits)
        tiny, top = fmt.min_normal, fmt.max_finite
        half_ulp = 2.0 ** -(fmt.mantissa_bits + 1)
        inside = [tiny, float(np.nextafter(tiny, 1.0)), 0.5, 1.0 + half_ulp, 1.0 + 3 * half_ulp,
                  float(np.nextafter(top, 0.0)), top]
        outside = [float(np.nextafter(tiny, 0.0)), tiny / 2, fmt.min_subnormal, 5e-324,
                   float(np.nextafter(top, np.inf)), top * (1 + half_ulp / 2), 2 * top, 1e300,
                   math.inf, math.nan]
        for xs, generic_calls in ((inside, 0), ([0.0], 0), (outside, 1)):
            for x in xs + [-x for x in xs]:
                want = quantize(np.array([x]), fmt)[0]
                seen.clear()
                got = quantize(x, fresh)
                assert _same_bits(seen, [x] * generic_calls), (fmt.name, x, seen)
                assert type(got) is float and _same_bits(got, want), (fmt.name, x, got, want)
                assert _same_bits(got, oracle(x)) and np.signbit(got) == np.signbit(x), (fmt.name, x)

    def test_wide_exponent_format_near_float64_max(self):
        # With float64's exponent range the split product would overflow
        # near the top; those values take the generic code instead.
        fmt = FloatFormat("e11m20", 11, 20)
        top = fmt.max_finite
        xs = [top, float(np.nextafter(top, 0.0)), top / 3, 2.0**1000 * 1.3, 2.0**-1022 * 1.7, 1e300]
        for x in xs + [-x for x in xs]:
            want = round_to_format(x, 20, 11)
            assert _same_bits(quantize(x, fmt), want) and _same_bits(quantize(np.array([x]), fmt), [want]), x

    @SMALL_FORMATS
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_float64_extremes_round_to_inf(self, fmt, oracle):
        # +-max double once raised OverflowError on the scalar route, where
        # the rounded significand carried past float64's own range.
        mid = fmt.max_finite + 2.0 ** (fmt.bias - fmt.mantissa_bits - 1)  # ties go to inf
        below = float(np.nextafter(mid, 0.0))
        top = float(np.finfo(np.float64).max)
        xs = [top, mid, below, 1e308]
        xs += [-x for x in xs]
        native = fmt._native
        for v in xs:
            want = oracle(v)
            if native is not None:
                assert _same_bits(want, float(np.array([v]).astype(native)[0]))
            assert want == (fmt.max_finite if abs(v) == below else math.inf) * math.copysign(1.0, v)
            mon = RangeMonitor()
            got = quantize(v, fmt, mon)
            assert type(got) is float and _same_bits(got, want), (fmt.name, v, got)
            assert mon.overflows == math.isinf(want)
            for k in (1, _SMALL, _SMALL + 1):
                got = quantize(np.full(k, v), fmt)
                assert _same_bits(got, np.full(k, want)), (fmt.name, v, k, got)

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

    @pytest.mark.parametrize("fmt", [FLOAT16, BFLOAT16, FLOAT32, FLOAT64], ids=str)
    def test_nan_keeps_its_sign(self, fmt):
        # One rule on every path: scalars, small arrays (per element in
        # Python) and large arrays (numpy), so a batch row rounds like the
        # same row alone.
        for k in (1, 2, _SMALL, _SMALL + 1, 100):
            signs = np.arange(k) % 2 == 1
            x = np.where(signs, -math.nan, math.nan)
            got = quantize(x, fmt)
            assert np.isnan(got).all()
            assert np.array_equal(np.signbit(got), signs), (fmt.name, k)
        for v in (math.nan, -math.nan):
            got = quantize(v, fmt)
            assert math.isnan(got) and math.copysign(1.0, got) == math.copysign(1.0, v)

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

    @pytest.mark.parametrize("fmt, want", [pytest.param(f, want, id=f.name) for f, want in (
        (FLOAT16, (15, -14, 2.0**-11, 65504.0, 2.0**-14, 2.0**-24, -24, np.float16,
                   (2.0**-14, 65504.0, 2.0**42 + 1))),
        (BFLOAT16, (127, -126, 2.0**-8, (2 - 2.0**-7) * 2.0**127, 2.0**-126, 2.0**-133, -133, None,
                    (2.0**-126, (2 - 2.0**-7) * 2.0**127, 2.0**45 + 1))),
        (FLOAT32, (127, -126, 2.0**-24, (2 - 2.0**-23) * 2.0**127, 2.0**-126, 2.0**-149, -149,
                   np.float32, (2.0**-126, (2 - 2.0**-23) * 2.0**127, 2.0**29 + 1))),
        (FLOAT64, (1023, -1022, 2.0**-53, sys.float_info.max, 2.0**-1022, 2.0**-1074, -1074, None, None)),
        (E11M20, (1023, -1022, 2.0**-21, (2 - 2.0**-20) * 2.0**1023, 2.0**-1022, 2.0**-1042, -1042, None,
                  (2.0**-1022, sys.float_info.max / (2.0**32 + 1), 2.0**32 + 1))),
    )])
    def test_derived_constants(self, fmt, want):
        names = ("bias", "min_exp", "unit_roundoff", "max_finite", "min_normal", "min_subnormal",
                 "_ulp_floor", "_native", "_split")
        assert {n: getattr(fmt, n) for n in names} == dict(zip(names, want))

    def test_constants_belong_to_a_frozen_value(self):
        fresh = FloatFormat("float16", 5, 10)
        assert fresh == FLOAT16 and hash(fresh) == hash(FLOAT16) and vars(fresh) == vars(FLOAT16)
        for attr in ("name", "max_finite", "_split"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(fresh, attr, None)

    def test_degenerate_format_rejected(self):
        with pytest.raises(ValueError):
            FloatFormat("bad", 1, 10)

    @pytest.mark.parametrize("bits", [(12, 10), (11, 53), (11, 60)], ids=str)
    def test_format_wider_than_the_carrier_rejected(self, bits):
        # A 12-bit exponent's max_finite overflows float64, and more than
        # 52 mantissa bits would round like float64.
        with pytest.raises(ValueError, match="float64 carrier"):
            FloatFormat("wide", *bits)


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

    @SMALL_FORMATS
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_large_arrays_count_like_their_elements(self, fmt, oracle):
        # Over `_SMALL` elements, `observe` returns after one check when
        # every rounded value is in [min_normal, max_finite]; raw values just
        # outside it that round onto a bound count nothing either.
        tiny, top = fmt.min_normal, fmt.max_finite
        inside = [tiny, -tiny, top, -top, 1.0, -0.3, float(np.nextafter(tiny, 0.0)),
                  float(np.nextafter(top, math.inf)), -float(np.nextafter(top, math.inf))]
        assert len(inside) > _SMALL
        for extra in [[]] + [[v] for v in _edge_values(fmt) + [tiny / 2, 2 * top, fmt.min_subnormal]]:
            x = np.array(inside + extra)
            got, counts = _rounded(x, fmt)
            want = [0, 0]
            for v in x.tolist():
                _count_range(v, oracle(v), fmt, want)
            assert _same_bits(got, [oracle(v) for v in x.tolist()]), (fmt.name, extra)
            assert counts == want and (extra or counts == [0, 0]), (fmt.name, extra)


def _count_range(raw: float, out: float, fmt, counts: list) -> None:
    """RangeMonitor's rules for one rounding, added to [underflows, overflows]."""
    if math.isinf(out) and math.isfinite(raw):
        counts[1] += 1
    elif abs(out) < fmt.min_normal and (out != 0.0 or (raw != 0.0 and math.isfinite(raw))):
        counts[0] += 1


def _edge_values(fmt) -> list[float]:
    """Signed zeros, infinities, NaN, range boundaries and ties of `fmt`."""
    half_ulp = 2.0 ** -(fmt.mantissa_bits + 1)
    tiny = fmt.min_subnormal
    ties = [1.0 + half_ulp, 1.0 + 3.0 * half_ulp, -(1.0 + half_ulp), tiny / 2, 1.5 * tiny, -tiny / 2]
    bounds = [fmt.min_normal, -fmt.min_normal, fmt.max_finite, -fmt.max_finite]
    bounds += [2.0**-126, 2.0**-133, 2.0**-134, 3.3895e38, 1e39, 65520.0, -65520.0]
    return [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan] + bounds + ties


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestSmallInputPaths:
    """Inputs of at most `_SMALL` elements round and range-check one element
    at a time in Python; sizes up to `_SMALL + 2` also cover the array path."""

    @SMALL_FORMATS
    def test_arrays_match_oracle_and_counts(self, fmt, oracle):
        rng = np.random.default_rng(20261019)
        edges = _edge_values(fmt)
        for k in range(_SMALL + 3):
            for shape in [(k,), (1, k), (k, 1)] + ([()] if k == 1 else []):
                for _ in range(40):
                    x = np.ldexp(rng.standard_normal(k), rng.integers(-155, 135, size=k))
                    pick = rng.random(k) < 0.5
                    x[pick] = rng.choice(edges, size=int(pick.sum()))
                    x = x.reshape(shape)
                    mon = RangeMonitor()
                    got = quantize(x, fmt, mon)
                    counts = [0, 0]
                    want = []
                    for v in x.ravel().tolist():
                        want.append(oracle(v))
                        _count_range(v, want[-1], fmt, counts)
                    assert isinstance(got, np.ndarray) and got.dtype == np.float64
                    assert _same_bits(got, np.array(want).reshape(shape)), (fmt.name, x, got)
                    nan = np.isnan(x)
                    assert np.array_equal(np.signbit(got[nan]), np.signbit(x[nan])), (fmt.name, x)
                    assert [mon.underflows, mon.overflows] == counts, (fmt.name, x)

    @SMALL_FORMATS
    def test_scalars_match_oracle_and_counts(self, fmt, oracle):
        for v in _edge_values(fmt) + [1.0, -3.0e-6, 7.0e4, 1.0e-30]:
            want = oracle(v)
            counts = [0, 0]
            _count_range(v, want, fmt, counts)
            for x in (v, np.array(v)):
                mon = RangeMonitor()
                got = quantize(x, fmt, mon)
                if isinstance(x, float):
                    assert type(got) is float
                else:  # a 0-d array stays a 0-d float64 array in every format
                    assert isinstance(got, np.ndarray) and got.shape == () and got.dtype == np.float64
                assert _same_bits(got, want), (fmt.name, v, got)
                assert np.signbit(got) == np.signbit(v), (fmt.name, v, got)  # NaN too
                assert [mon.underflows, mon.overflows] == counts, (fmt.name, v)


def _reference_dot(a_row, b_row, fmt):
    """Left-to-right dot of one row with its RangeMonitor counts.

    Products and partial sums each round once: float16 with the integer
    oracle, float32 through np.float32, bfloat16 with the integer oracle,
    float64 not at all.  Counts follow RangeMonitor's definitions, and
    float64 counts nothing because its rounding is the identity.
    """
    rnd = {
        FLOAT16: round_float16, BFLOAT16: round_bfloat16,
        FLOAT32: lambda x: float(np.float32(x)), FLOAT64: float,
    }[fmt]
    counts = [0, 0]

    def round_counted(raw):
        out = raw if raw != raw else rnd(raw)  # a NaN keeps its sign
        if fmt is not FLOAT64:
            _count_range(raw, out, fmt, counts)
        return out

    with np.errstate(all="ignore"):
        prods = [round_counted(float(x) * float(y)) for x, y in zip(a_row, b_row)]
        acc = prods[0]
        for p in prods[1:]:
            acc = round_counted(acc + p)
    return acc, counts


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return False
    same = (np.isnan(got) & np.isnan(want)) | (got.view(np.uint64) == want.view(np.uint64))
    return bool(same.all())


def _check_dot(a, b, fmt):
    """dot(a, b) with a monitor and without, against the row-by-row
    reference: bits, NaN sign, signed zero, counts, return type and shape."""
    mon = RangeMonitor()
    got = dot(a, b, fmt, mon)
    a2, b2 = np.broadcast_arrays(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    k = a2.shape[-1]
    rows = [_reference_dot(ra, rb, fmt) for ra, rb in zip(a2.reshape(-1, k), b2.reshape(-1, k))]
    want = np.array([r[0] for r in rows]).reshape(a2.shape[:-1])
    assert mon.underflows == sum(r[1][0] for r in rows)
    assert mon.overflows == sum(r[1][1] for r in rows)
    for out in (got, dot(a, b, fmt)):
        assert _same_bits(out, want), (fmt.name, a, b, out, want)
        assert np.array_equal(np.signbit(out), np.signbit(want)), (fmt.name, a, b, out, want)
        if a2.ndim == 1:
            assert type(out) is float
        else:
            assert isinstance(out, np.ndarray) and out.dtype == np.float64


# Random float64 bit patterns: any pattern, or one with an exponent in
# 2**-150..2**130, every narrow format's range, with a random sign.
_BIT_PATTERNS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.integers(0x3690_0000_0000_0000, 0x4810_0000_0000_0000).map(lambda b: b | (b & 1) << 63),
)


ALL_FORMATS = pytest.mark.parametrize(
    "fmt", [FLOAT16, BFLOAT16, FLOAT32, FLOAT64], ids=lambda f: f.name
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestDotOracle:
    @ALL_FORMATS
    def test_random_rows_match_reference(self, fmt):
        rng = np.random.default_rng(20261019)
        top = {"float16": 16, "bfloat16": 120, "float32": 120, "float64": 1000}[fmt.name]
        for _ in range(150):
            k = int(rng.integers(1, 20))
            lead = tuple(int(d) for d in rng.integers(1, 5, size=int(rng.integers(0, 3))))
            a = np.ldexp(rng.standard_normal(lead + (k,)), int(rng.integers(-top - 20, top)))
            b = np.ldexp(rng.standard_normal(k), int(rng.integers(-12, 8)))
            if rng.random() < 0.1:
                a.flat[int(rng.integers(a.size))] = rng.choice([np.inf, -np.inf, -0.0])
            _check_dot(a, b, fmt)

    @ALL_FORMATS
    @pytest.mark.parametrize(
        "a",
        [
            [2048.0, 1.0],  # float16 tie, stays on the even 2048
            [2050.0, 1.0],  # float16 tie, goes up to the even 2052
            [2048.0, 1.0, 1.0, 1.0],  # every partial sum ties
            [2048.0, 1.0 + 2.0**-10],  # just above the tie
            [16777216.0, 1.0],  # float32 tie, stays on 2**24
            [16777218.0, 1.0],  # float32 tie, goes up to 2**24 + 4
            [2.0**-14, -(2.0**-14 - 2.0**-24)],  # cancels into the float16 subnormals
            [2.0**-126, -(2.0**-126 - 2.0**-149)],  # cancels into the float32 subnormals
            [1e-4, 1e-4, -1e-4],  # subnormal and zero partial sums
            [60000.0, 10000.0],  # float16 overflow to +inf
            [-60000.0, -10000.0],  # float16 overflow to -inf
            [3e38, 1e38],  # float32 and bfloat16 overflow
            [60000.0, 10000.0, -math.inf],  # inf + -inf -> nan
            [math.inf, -math.inf, 1.0],
            [-0.0, -0.0],  # -0.0 + -0.0 keeps its sign
            [-0.0, 0.0],
            [1e300, 1e300],  # float64 overflow
        ],
    )
    def test_adversarial_rows(self, fmt, a):
        _check_dot(np.array(a), np.ones(len(a)), fmt)
        _check_dot(np.array([a, a[::-1]]), np.ones(len(a)), fmt)

    @ALL_FORMATS
    def test_batch_axis_matches_row_by_row(self, fmt):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 16, 17)) * 64.0
        b = rng.standard_normal((3, 1, 17))
        batch_mon = RangeMonitor()
        got = dot(a, b, fmt, batch_mon)
        assert got.shape == (3, 16)
        row_mon = RangeMonitor()
        for i in range(3):
            for j in range(16):
                assert _same_bits(got[i, j], dot(a[i, j], b[i, 0], fmt, row_mon))
        assert batch_mon.underflows == row_mon.underflows
        assert batch_mon.overflows == row_mon.overflows

    @ALL_FORMATS
    def test_two_floats_match_one_element_arrays(self, fmt):
        # The one-component solves dot two floats: the rounded product.
        rng = np.random.default_rng(11)
        vals = _edge_values(fmt) + np.ldexp(rng.standard_normal(30), rng.integers(-80, 80, 30)).tolist()
        for a in vals:
            for b in (1.0, -0.0, 3.0e-6, 300.0, math.inf, float(rng.standard_normal())):
                mon, arr_mon = RangeMonitor(), RangeMonitor()
                got = dot(a, b, fmt, mon)
                want = dot(np.array([a]), np.array([b]), fmt, arr_mon)
                assert type(got) is float and type(want) is float
                assert _same_bits(got, want), (fmt.name, a, b, got, want)
                assert np.signbit(got) == np.signbit(want)
                assert (mon.underflows, mon.overflows) == (arr_mon.underflows, arr_mon.overflows)

    @pytest.mark.parametrize("fmt", [FLOAT16, FLOAT32, FLOAT64], ids=lambda f: f.name)
    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(1, 9)),
        data=st.data(),
    )
    def test_monitor_changes_no_bit(self, fmt, shape, data):
        # A monitor only observes: the batched dot returns the same bytes
        # with it and without it.
        a = data.draw(arrays(np.uint64, shape, elements=_BIT_PATTERNS)).view(np.float64)
        b = data.draw(arrays(np.uint64, (shape[0], 1, shape[2]), elements=_BIT_PATTERNS)).view(np.float64)
        got, bare = dot(a, b, fmt, RangeMonitor()), dot(a, b, fmt)
        assert type(got) is type(bare) is np.ndarray and got.shape == bare.shape == shape[:2]
        assert got.tobytes() == bare.tobytes(), fmt.name

    @pytest.mark.parametrize("fmt", [FLOAT16, FLOAT32], ids=lambda f: f.name)
    def test_monitor_observes_only_dots_that_leave_the_range(self, fmt, monkeypatch):
        # A native-dtype dot range-checks its products and partial sums and
        # calls `observe` (twice: products, then sums) only when one of them
        # is out of [min_normal, max_finite]; either kind alone is enough.
        calls = []
        observe = RangeMonitor.observe

        def spy(self, *args):
            calls.append(1)
            return observe(self, *args)

        monkeypatch.setattr(RangeMonitor, "observe", spy)
        tiny = fmt.min_normal
        big = fmt.max_finite / 2
        inside = np.array([[1.0, 2.0, -0.5], [tiny, tiny, 3 * tiny], [big, big, -1.0]])
        out_product = np.array([tiny / 4, 1.0, 1.0])  # a subnormal product
        out_sum = np.array([1.0, -1.0, 1.0])  # a zero partial sum
        for a, want in ((inside, 0), (out_product, 2), (out_sum, 2), (np.ones((0, 3)), 0)):
            calls.clear()
            _check_dot(a, np.ones(3), fmt)
            assert len(calls) == want, (fmt.name, a)


def _rounded(x, fmt):
    """`quantize(x, fmt)` and the [underflows, overflows] of a fresh monitor."""
    mon = RangeMonitor()
    out = quantize(x, fmt, mon)
    return out, [mon.underflows, mon.overflows]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestQuantizeDispatch:
    """`quantize` rounds a float, and a float64 array in a format with a
    native dtype, in its own frame; every other input kind takes the general
    code and must agree with those paths bit for bit and count for count."""

    @ALL_FORMATS
    def test_scalar_kinds_match_the_float_path(self, fmt):
        ints = [0, 1, -3, 2049, 65519, 65520, -(10**6), 2**53 + 1, -(2**62) - 1, True, False]
        for v in ints + _edge_values(fmt) + [0.1, -(2.0**-20), 1e300]:
            want, counts = _rounded(float(v), fmt)
            assert type(want) is float
            for x in [np.float64(v), np.array(float(v))] + ([v] if isinstance(v, int) else []):
                got, got_counts = _rounded(x, fmt)
                if isinstance(x, np.ndarray):  # a 0-d array stays a 0-d float64 array
                    assert isinstance(got, np.ndarray) and got.shape == () and got.dtype == np.float64
                else:
                    assert type(got) is float, (fmt.name, x, type(got))
                assert _same_bits(got, want) and np.signbit(got) == np.signbit(want), (fmt.name, x, got)
                assert got_counts == counts, (fmt.name, x)

    @ALL_FORMATS
    def test_other_dtypes_round_like_their_carrier(self, fmt):
        rng = np.random.default_rng(7)
        f32 = np.ldexp(rng.standard_normal(12), rng.integers(-150, 130, size=12)).astype(np.float32)
        # 2**62 + 2**38 + 1 rounds to a float32 tie in the carrier, which goes
        # down to even; a direct int64 -> float32 cast would round it up.
        i64 = np.array([0, 1, -1, 3, 2049, 65504, 65519, 65520, -70000, 2**24 + 1, 2**53 + 1,
                        2**62 + 2**38 + 1], dtype=np.int64)
        swapped = np.ldexp(rng.standard_normal(12), rng.integers(-150, 130, size=12)).astype(">f8")
        for x in (f32, i64, swapped):
            for k in (1, _SMALL, x.size):  # both sides of the small-input cutoff
                carrier = x[:k].astype(np.float64)
                want, counts = _rounded(carrier, fmt)
                got, got_counts = _rounded(x[:k], fmt)
                assert isinstance(got, np.ndarray) and got.dtype == np.float64, (fmt.name, x.dtype)
                assert _same_bits(got, want) and got_counts == counts, (fmt.name, x[:k])

    @ALL_FORMATS
    @settings(max_examples=150, deadline=None)
    @given(bits=st.lists(_BIT_PATTERNS, min_size=9, max_size=9))
    def test_float_path_matches_array_paths(self, fmt, bits):
        xs = np.array(bits, dtype=np.uint64).view(np.float64)
        floats = [_rounded(v, fmt) for v in xs.tolist()]
        want = np.array([out for out, _ in floats])
        for i, (out, counts) in enumerate(floats):
            assert type(out) is float
            got, got_counts = _rounded(xs[i:i + 1].copy(), fmt)
            assert _same_bits(got, [out]) and np.signbit(got[0]) == np.signbit(out), (fmt.name, xs[i])
            assert got_counts == counts, (fmt.name, xs[i])
        got, got_counts = _rounded(xs, fmt)
        assert _same_bits(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), fmt.name
        assert got_counts == [sum(c[j] for _, c in floats) for j in (0, 1)], fmt.name


_FLOAT_OPS = {"add": (add, operator.add), "sub": (sub, operator.sub), "mul": (mul, operator.mul),
              "dot": (dot, operator.mul)}


def _op_values(fmt, rng) -> list[float]:
    """Edge values of `fmt`, values at the split rounder's top, and random
    values over the format's whole exponent range."""
    top = fmt._split[1] if fmt._split else fmt.max_finite
    near = [top, float(np.nextafter(top, 0.0)), float(np.nextafter(top, math.inf)), 2.0 ** (fmt.bias // 2)]
    exps = rng.integers(fmt._ulp_floor - 4, fmt.bias + 2, size=24)
    return _edge_values(fmt) + near + [-v for v in near] + np.ldexp(rng.standard_normal(24), exps).tolist()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestFloatOps:
    """`add`, `sub`, `mul` and `dot` of two floats round a float result in
    their own frame, and `tanh` of a float takes `quantize`'s float path.
    Each must give what `quantize` gives the same exact result in a
    one-element array: bits, NaN sign and monitor counts.  An op of two
    NaNs returns a NaN of unspecified sign (the `precision` module
    docstring), so then only NaN is checked."""

    @pytest.mark.parametrize("fmt", [FLOAT16, BFLOAT16, FLOAT32, FLOAT64, E11M20], ids=lambda f: f.name)
    def test_ops_match_the_array_path(self, fmt):
        vals = _op_values(fmt, np.random.default_rng(12))
        for name, (op, exact) in _FLOAT_OPS.items():
            for a in vals:
                for b in vals:
                    want, counts = _rounded(np.array([exact(a, b)]), fmt)
                    mon = RangeMonitor()
                    got = op(a, b, fmt, mon)
                    assert type(got) is float and type(op(a, b, fmt)) is float, (name, fmt.name, a, b)
                    assert _same_bits(got, want[0]), (name, fmt.name, a, b)
                    assert np.signbit(got) == np.signbit(want[0]) or a != a and b != b, (name, fmt.name, a, b)
                    assert [mon.underflows, mon.overflows] == counts, (name, fmt.name, a, b)

    @pytest.mark.parametrize("fmt", [FLOAT16, BFLOAT16, FLOAT32, FLOAT64, E11M20], ids=lambda f: f.name)
    def test_zeros_keep_their_sign_and_reach_no_monitor(self, fmt):
        cases = [(add, (1.5, -1.5), 1.0), (sub, (-0.0, 0.0), -1.0), (mul, (-0.0, 3.0), -1.0),
                 (dot, (-0.0, 1.0), -1.0), (quantize, (-0.0,), -1.0)]
        for op, args, sign in cases:
            for monitor in (None, RangeMonitor()):
                got = op(*args, fmt, monitor)
                assert type(got) is float and got == 0.0 and math.copysign(1.0, got) == sign, (op, fmt.name)
                assert monitor is None or (monitor.underflows, monitor.overflows) == (0, 0), (op, fmt.name)

    @pytest.mark.parametrize("fmt", [FLOAT16, BFLOAT16, FLOAT32, FLOAT64, E11M20], ids=lambda f: f.name)
    def test_tanh_matches_the_array_path(self, fmt):
        vals = _op_values(fmt, np.random.default_rng(13)) + [0.5, -2.0, 20.0, 1e-300]
        for a in vals:
            want, counts = _rounded(np.tanh(np.array([a])), fmt)
            mon = RangeMonitor()
            got = tanh(a, fmt, mon)
            assert type(got) is float
            assert _same_bits(got, want[0]) and np.signbit(got) == np.signbit(want[0]), (fmt.name, a)
            assert [mon.underflows, mon.overflows] == counts, (fmt.name, a)

    @pytest.mark.parametrize("fmt", [FLOAT16, BFLOAT16, FLOAT32, E11M20], ids=lambda f: f.name)
    def test_only_values_outside_the_split_range_reach_quantize(self, fmt, monkeypatch):
        # A float op whose exact result x has min_normal <= |x| <= top, or
        # is zero, calls neither `quantize` nor the generic code nor the
        # monitor; any other x takes one call of each (the monitor only
        # when one is attached).  `tanh` always calls `quantize`, which
        # returns before the rest.
        calls = {"quantize": 0, "generic": 0, "observe": 0}
        real_quantize, generic, observe = quantize, precision._quantize_scalar, RangeMonitor.observe

        def spy(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(precision, "quantize", spy("quantize", real_quantize))
        monkeypatch.setattr(precision, "_quantize_scalar", spy("generic", generic))
        monkeypatch.setattr(RangeMonitor, "observe", spy("observe", observe))
        tiny, top = fmt.min_normal, fmt._split[1]
        half_ulp = 2.0 ** -(fmt.mantissa_bits + 1)
        inside = [tiny, float(np.nextafter(tiny, 1.0)), 0.5, 1.0 + half_ulp, 1.0 + 3 * half_ulp,
                  float(np.nextafter(top, 0.0)), top]
        outside = [float(np.nextafter(tiny, 0.0)), tiny / 2, fmt.min_subnormal, 5e-324,
                   float(np.nextafter(top, np.inf)), 2 * top, 1e300, math.inf, math.nan]
        # Operands whose exact result is x, and tanh inputs in and out of range.
        cases = [(op, (x, b)) for op, b in ((add, 0.0), (sub, 0.0), (mul, 1.0), (dot, 1.0))
                 for x in inside + [0.0] + [-x for x in inside + [0.0]]]
        cases += [(tanh, (x,)) for x in (4 * tiny, -4 * tiny, 0.5, -2.0, 20.0, 0.0, -0.0)]
        out_cases = [(op, (x, b)) for op, b in ((add, 0.0), (sub, 0.0), (mul, 1.0), (dot, 1.0))
                     for x in outside + [-x for x in outside]]
        out_cases += [(tanh, (x,)) for x in (tiny / 2, 5e-324, math.nan)]
        for group, outside_calls in ((cases, 0), (out_cases, 1)):
            for op, args in group:
                for monitor in (None, RangeMonitor()):
                    calls.update(quantize=0, generic=0, observe=0)
                    op(*args, fmt, monitor)
                    want = {"quantize": 1 if op is tanh else outside_calls, "generic": outside_calls,
                            "observe": outside_calls if monitor is not None else 0}
                    assert calls == want, (op.__name__, fmt.name, args, monitor)


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

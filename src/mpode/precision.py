"""Software emulation of narrow binary floating-point formats.

Emulated values live in float64 carriers constrained to the target format's
representable set.  Every primitive is "compute in the carrier, then round
once": for add/sub/mul the carrier result is exact, for div/exp/tanh it is
the correctly rounded float64 result, and the final rounding to the target
format is round-to-nearest, ties to even.  The 53-bit carrier makes this
double rounding harmless for every format here, including emulated float32
(2*24 + 2 = 50 <= 53).

Reductions round after every partial accumulation in a fixed left-to-right
order, so there is no hidden wide accumulator.  `dot` takes all its partial
sums from one strict left-to-right `np.add.accumulate`: in float64 rounding
is the identity, and in float16/float32 the accumulate runs in the native
dtype, whose float16 add rounds through float32 first, which is again
harmless because 24 >= 2*11 + 2 (Figueroa, 1995).  `np.sum`,
`np.add.reduce` and `@` reassociate the sum (pairwise, a float32
accumulator, BLAS) and must never stand in for it.

Most inputs are tiny.  A solve with one state component runs on Python
floats (`integrate` chooses that from the state's shape), so its stages,
covectors and accumulators take the scalar route: every primitive takes a
float and returns one, and `dot` of two floats is their rounded product.
What still arrives as an array is mostly a 2- to 9-element stage, gradient
or parameter vector.  Every numpy ufunc call costs 0.5-1 us of dispatch
whatever its size, and an array rounding or range check makes a dozen or
more of them, so inputs of up to `_SMALL` elements are rounded (formats
without a native dtype) and range-checked one element at a time in plain
Python, with the same rules.  `tests/test_precision.py::TestSmallInputPaths`
pins both sides of the cutoff against the integer oracles and a counter
written in the test, and `TestQuantizeExact` and `TestDotOracle` pin the
array paths and the float `dot`.

Each format binds its rounding once, on first use, as a (scalar, array)
pair of functions (`FloatFormat._rounders`); `quantize` only picks one.
float64 binds plain carrier conversion and is never observed.  Every
narrower format rounds a scalar with min_normal <= |x| <= max_finite by
Veltkamp splitting (Dekker, 1971; Boldo, "Pitfalls of a full floating-point
proof", 2006): with g = (2**(52 - mantissa_bits) + 1) * x, the float64 sum
g + (x - g) is x rounded to nearest, ties to even, on mantissa_bits + 1
bits, one multiply and two adds.  Zeros, the subnormal range, values beyond
+-max_finite, infinities and NaN take the generic frexp/ldexp code, which
sends a value that rounds up past float64's own largest value to inf, as
the array form does.  Arrays take the numpy cast where the format has a
native dtype and the generic code otherwise, whose small-array loop calls
the split rounder.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "FloatFormat",
    "FLOAT16",
    "BFLOAT16",
    "FLOAT32",
    "FLOAT64",
    "FORMATS",
    "get_format",
    "quantize",
    "RangeMonitor",
    "add",
    "sub",
    "mul",
    "div",
    "exp",
    "tanh",
    "dot",
]


@dataclass(frozen=True)
class FloatFormat:
    """Bit layout of a binary floating-point format (sign bit implied)."""

    name: str
    exponent_bits: int
    mantissa_bits: int

    def __post_init__(self) -> None:
        if self.exponent_bits < 2 or self.mantissa_bits < 1:
            raise ValueError(f"degenerate format: {self}")

    # Derived constants are computed once per format: quantize reads them on
    # every call.  cached_property writes the instance dict directly, so it
    # works on the frozen dataclass and leaves eq and hash on the fields.
    @cached_property
    def bias(self) -> int:
        return 2 ** (self.exponent_bits - 1) - 1

    @cached_property
    def min_exp(self) -> int:
        """Smallest normal exponent (unbiased)."""
        return 1 - self.bias

    @cached_property
    def unit_roundoff(self) -> float:
        return 2.0 ** -(self.mantissa_bits + 1)

    @cached_property
    def max_finite(self) -> float:
        return (2.0 - 2.0 ** -self.mantissa_bits) * 2.0 ** self.bias

    @cached_property
    def min_normal(self) -> float:
        return 2.0 ** self.min_exp

    @cached_property
    def min_subnormal(self) -> float:
        return 2.0 ** (self.min_exp - self.mantissa_bits)

    @cached_property
    def _ulp_floor(self) -> int:
        """Exponent of the subnormal spacing, the coarsest allowed ulp floor."""
        return self.min_exp - self.mantissa_bits

    @cached_property
    def _native(self):
        """The numpy dtype whose cast rounds exactly like this format, or None."""
        return _NATIVE_DTYPES.get((self.exponent_bits, self.mantissa_bits))

    @cached_property
    def _rounders(self):
        """This format's (scalar, array) rounding functions, bound on first use."""
        return _bind_rounders(self)

    def __str__(self) -> str:
        return self.name


FLOAT16 = FloatFormat("float16", 5, 10)
BFLOAT16 = FloatFormat("bfloat16", 8, 7)
FLOAT32 = FloatFormat("float32", 8, 23)
FLOAT64 = FloatFormat("float64", 11, 52)

FORMATS: dict[str, FloatFormat] = {
    f.name: f for f in (FLOAT16, BFLOAT16, FLOAT32, FLOAT64)
}


def get_format(name: str) -> FloatFormat:
    try:
        return FORMATS[name]
    except KeyError:
        raise ValueError(f"unknown format {name!r}, expected one of {sorted(FORMATS)}") from None


# Arrays of at most this many elements are range-checked, and rounded to
# formats without a native dtype, one element at a time in Python (the
# decay problem's one-component values arrive as floats instead).  Loop vs
# numpy, in us, on a 2-vCPU x86 VM (Python 3.11, numpy 2.4): bfloat16
# rounding 1.4 vs 9.2 at 1 element, 2.8 vs 9.1 at 8, 3.6 vs 10.6 at 12,
# even near 48; observe 2.1 vs 13.0 at 1 element, 8.2 vs 13.4 at 32.
# The cutoff also picks the float16 range and finite checks of batched
# solves, so it stays where it was set, below the old rounding's crossover.
_SMALL = 8


class RangeMonitor:
    """Counts quantizations that left the normal range.

    `underflows` counts events where a nonzero value rounded to zero or to a
    subnormal; `overflows` counts finite values that rounded to infinity.
    Power-of-two rescaling of a computation is bit-exact only while a monitor
    attached to it stays clean.
    """

    __slots__ = ("underflows", "overflows")

    def __init__(self) -> None:
        self.underflows = 0
        self.overflows = 0

    @property
    def clean(self) -> bool:
        return self.underflows == 0 and self.overflows == 0

    def observe(self, raw, rounded, fmt: FloatFormat) -> None:
        """Count the range events of rounding `raw` to `rounded`.

        `rounded` is a float or a float64 array as `quantize` returns it, and
        `raw` has its shape.
        """
        if isinstance(rounded, float):
            pairs = ((raw, rounded),)
        elif rounded.size <= _SMALL:
            pairs = zip(np.ravel(raw).tolist(), rounded.ravel().tolist())
        else:
            raw = np.asarray(raw)
            finite_raw = np.isfinite(raw)
            self.overflows += int(np.count_nonzero(np.isinf(rounded) & finite_raw))
            mag = np.abs(rounded)
            sub = (mag < fmt.min_normal) & ((mag > 0) | ((rounded == 0) & (raw != 0) & finite_raw))
            self.underflows += int(np.count_nonzero(sub))
            return
        tiny = fmt.min_normal
        for r, q in pairs:
            mag = abs(q)
            if mag == math.inf:
                if math.isfinite(r):
                    self.overflows += 1
            elif mag < tiny and (mag > 0.0 or (r != 0.0 and math.isfinite(r))):
                self.underflows += 1


# Formats with a native numpy dtype round through a hardware/C cast, which
# is IEEE round-to-nearest-even with gradual underflow and overflow to inf,
# i.e. exactly the rounding contract.  Exhaustive tests pin the equivalence.
_NATIVE_DTYPES = {(5, 10): np.float16, (8, 23): np.float32}


def _quantize_scalar(x: float, fmt: FloatFormat) -> float:
    if x != x:
        return math.copysign(math.nan, x)
    if x == 0.0 or math.isinf(x):
        return x
    _, e = math.frexp(x)
    shift = max(e - 1 - fmt.mantissa_bits, fmt._ulp_floor)
    try:
        y = math.ldexp(round(math.ldexp(x, -shift)), shift)
    except OverflowError:  # rounded up past float64's own largest value
        return math.copysign(math.inf, x)
    if abs(y) > fmt.max_finite:
        return math.copysign(math.inf, x)
    if y == 0.0:
        return math.copysign(0.0, x)
    return y


def _quantize_array(x: np.ndarray, fmt: FloatFormat, scalar) -> np.ndarray:
    if x.size <= _SMALL:
        return np.array([scalar(v) for v in x.ravel().tolist()]).reshape(x.shape)
    _, e = np.frexp(x)
    shift = np.maximum(e - 1 - fmt.mantissa_bits, fmt._ulp_floor)
    y = np.ldexp(np.rint(np.ldexp(x, -shift)), shift)
    over = np.abs(y) > fmt.max_finite
    if over.any():
        y = np.where(over, np.copysign(np.inf, x), y)
    zero = y == 0.0
    if zero.any():
        y = np.where(zero, np.copysign(0.0, x), y)
    return y


def _carrier(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _bind_rounders(fmt: FloatFormat):
    """The (scalar, array) rounding functions of `fmt`; see `FloatFormat._rounders`."""
    if fmt.mantissa_bits >= 52:
        return float, _carrier
    # Veltkamp splitting (module docstring), for normal values within range
    # whose product with `split` stays finite in float64.
    split = 2.0 ** (52 - fmt.mantissa_bits) + 1.0
    tiny, top = fmt.min_normal, min(fmt.max_finite, sys.float_info.max / split)

    def scalar(x):
        x = float(x)
        if tiny <= abs(x) <= top:
            g = split * x
            return g + (x - g)
        return _quantize_scalar(x, fmt)

    native = fmt._native
    if native is None:
        return scalar, lambda x: _quantize_array(_carrier(x), fmt, scalar)
    return scalar, lambda x: _carrier(x).astype(native).astype(np.float64)


def quantize(x, fmt: FloatFormat, monitor: RangeMonitor | None = None):
    """Round to the nearest value representable in `fmt`, ties to even.

    Scalars map to python floats, everything else to float64 ndarrays whose
    elements are representable in `fmt`.  Signed zero is preserved, and a
    NaN keeps the input's sign on every path (so a batch row rounds like
    the same values alone), though not necessarily its payload.  float64 is
    a passthrough (the carrier itself); the result may then alias the input,
    and a monitor sees nothing.
    """
    scalar, array = fmt._rounders
    out = scalar(x) if isinstance(x, (float, int)) else array(x)
    if monitor is not None and scalar is not float:  # float64 rounds nothing
        monitor.observe(x, out, fmt)
    return out


def add(a, b, fmt: FloatFormat, monitor: RangeMonitor | None = None):
    return quantize(a + b, fmt, monitor)


def sub(a, b, fmt: FloatFormat, monitor: RangeMonitor | None = None):
    return quantize(a - b, fmt, monitor)


def mul(a, b, fmt: FloatFormat, monitor: RangeMonitor | None = None):
    return quantize(a * b, fmt, monitor)


def div(a, b, fmt: FloatFormat, monitor: RangeMonitor | None = None):
    # Route scalars through np.float64 so x/0 yields inf, not ZeroDivisionError.
    with np.errstate(divide="ignore", invalid="ignore"):
        if isinstance(a, (float, int)) and isinstance(b, (float, int)):
            return quantize(float(np.float64(a) / np.float64(b)), fmt, monitor)
        return quantize(a / b, fmt, monitor)


def exp(a, fmt: FloatFormat, monitor: RangeMonitor | None = None):
    # np.exp also for scalars so both call paths share one libm.
    if isinstance(a, (float, int)):
        return quantize(float(np.exp(a)), fmt, monitor)
    return quantize(np.exp(np.asarray(a, dtype=np.float64)), fmt, monitor)


def tanh(a, fmt: FloatFormat, monitor: RangeMonitor | None = None):
    if isinstance(a, (float, int)):
        return quantize(float(np.tanh(a)), fmt, monitor)
    return quantize(np.tanh(np.asarray(a, dtype=np.float64)), fmt, monitor)


def absolute(a, fmt: FloatFormat, monitor: RangeMonitor | None = None):
    return quantize(abs(a) if isinstance(a, (float, int)) else np.abs(a), fmt, monitor)


def maximum(a, b, fmt: FloatFormat, monitor: RangeMonitor | None = None):
    if isinstance(a, (float, int)) and isinstance(b, (float, int)):
        return quantize(float(np.maximum(a, b)), fmt, monitor)
    return quantize(np.maximum(a, b), fmt, monitor)


def dot(a, b, fmt: FloatFormat, monitor: RangeMonitor | None = None):
    """Inner product over the last axis, rounded after every partial sum.

    Products are rounded elementwise first, then accumulated left to right
    with a rounding after each addition: there is no fused multiply-add.
    Leading axes broadcast, so a matrix-vector product is `dot(W, v, fmt)`.

    The partial sums come from one `np.add.accumulate`, which is a strict
    left-to-right recursive sum, in the format's native dtype where it has
    one.  In float64 rounding is the identity, so that is the sum itself.
    numpy's float16 add rounds the exact sum to float32 and then to float16,
    which equals one rounding because 24 >= 2*11 + 2 (Figueroa, "When is
    double rounding innocuous?", 1995).  `np.sum`, `np.add.reduce` and `@`
    must not replace it: they sum pairwise, in a float32 accumulator or
    through BLAS, in an order that is not left to right.  bfloat16 has no
    native dtype and rounds each partial sum with its own `quantize` call.

    1-D inputs give a float; inputs with leading axes give a float64 array.
    Two floats give their rounded product, the one-term sum it is.
    """
    if isinstance(a, float) and isinstance(b, float):
        return quantize(a * b, fmt, monitor)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    p = np.atleast_1d(quantize(a * b, fmt, monitor))
    if p.shape[-1] == 1:
        return float(p[0]) if p.ndim == 1 else p[..., 0]
    native = fmt._native
    if fmt.mantissa_bits >= 52:
        acc = np.add.accumulate(p, axis=-1)
    elif native is not None:
        acc = np.add.accumulate(p.astype(native), axis=-1)
        if monitor is not None:
            acc = acc.astype(np.float64)
            monitor.observe(acc[..., :-1] + p[..., 1:], acc[..., 1:], fmt)
    else:
        acc = p[..., 0]
        for j in range(1, p.shape[-1]):
            acc = quantize(acc + p[..., j], fmt, monitor)
        return acc
    return float(acc[-1]) if acc.ndim == 1 else acc[..., -1].astype(np.float64)


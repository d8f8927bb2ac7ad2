"""Software emulation of narrow binary floating-point formats.

Emulated values live in float64 carriers constrained to the target format's
representable set.  Every primitive is "compute in the carrier, then round
once": for add/sub/mul the carrier result is exact, for div/exp/tanh it is
the correctly rounded float64 result, and the final rounding to the target
format is round-to-nearest, ties to even.  The 53-bit carrier makes this
double rounding harmless for every format here, including emulated float32
(2*24 + 2 = 50 <= 53).

Reductions round after every partial accumulation in a fixed left-to-right
order, so there is no hidden wide accumulator.  `dot` forms its exact
products once and takes all its partial sums from one strict left-to-right
`np.add.accumulate`: in float64 rounding is the identity, and float16 and
float32 cast the products once to the native dtype and accumulate there,
where the float16 add rounds through float32 first, which is again
harmless because 24 >= 2*11 + 2 (Figueroa, 1995).  `np.sum`,
`np.add.reduce` and `@` reassociate the sum (pairwise, a float32
accumulator, BLAS) and must never stand in for it.

Most inputs are tiny.  A solve with one state component runs on Python
floats (`integrate` chooses that from the state's shape): every primitive
takes a float and returns one, and `dot` of two floats is their rounded
product.  What still arrives as an array is mostly a 2- to 9-element
vector, and every numpy ufunc call costs 0.5-1 us whatever its size, so
inputs of up to `_SMALL` elements are range-checked, and rounded where the
format has no native dtype, one element at a time in plain Python.

`quantize` rounds the two common inputs in its own frame, from constants
each format holds as plain attributes (`FloatFormat._split`, `_native`),
and nothing it calls calls it back.  A float with min_normal <= |x| <= top
(top is max_finite unless x * splitter could overflow) is rounded by
Veltkamp splitting (Dekker, 1971; Boldo, "Pitfalls of a full
floating-point proof", 2006):
with g = splitter * x, splitter = 2**(52 - mantissa_bits) + 1, the float64
sum g + (x - g) is x rounded to nearest even on mantissa_bits + 1 bits.
Rounding is monotone and min_normal and max_finite are representable, so
such a value stays in the normal range, has no range event, and returns at
once: a monitor is consulted only for the rest.  A float zero rounds to
itself, keeps its sign and is no range event, so it returns right after
that test.  `add`, `sub` and `mul` round a float result in that range,
or return a zero, in their own frame with the same operations and call
`quantize` for anything else, so a rounded float op is one Python call,
monitored or not; a `dot` of two floats is a `mul`.  A `dot` of two or
more terms in float16, float32 or float64 rounds (or, in float64, keeps)
its products and partial sums in its own frame with no `quantize` call;
bfloat16 and one-term `dot`s call it.  A float64 array takes the numpy
cast where the format has a native dtype.  Other inputs take
`_quantize_other` under the same rules.  Other zeros, subnormals, values
beyond +-top, infinities and NaN take the generic frexp/ldexp code, which
sends a value that rounds past float64's largest to inf, as arrays do.

A NaN keeps its sign through `quantize` on every path, so an op with one
NaN operand returns a NaN of that sign.  An op of two NaNs (`add`, `sub`,
`mul`, a `dot` of two floats) returns a NaN of unspecified sign: CPython's
float add and multiply return either operand, depending on whether the
interpreter has specialized the op's bytecode.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

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


# Formats with a native numpy dtype round through a hardware/C cast, which
# is IEEE round-to-nearest-even with gradual underflow and overflow to inf,
# i.e. exactly the rounding contract.  Exhaustive tests pin the equivalence.
_NATIVE_DTYPES = {(5, 10): np.float16, (8, 23): np.float32}
_FLOAT64 = np.dtype(np.float64)


@dataclass(frozen=True)
class FloatFormat:
    """Bit layout of a binary floating-point format (sign bit implied).

    The derived constants are plain attributes, set once at construction:
    `bias`, `min_exp` (the smallest normal exponent, unbiased),
    `unit_roundoff`, `max_finite`, `min_normal` and `min_subnormal`.  They
    are not fields, so equality and hashing see only the three fields.
    """

    name: str
    exponent_bits: int
    mantissa_bits: int

    def __post_init__(self) -> None:
        e, m = self.exponent_bits, self.mantissa_bits
        if e < 2 or m < 1:
            raise ValueError(f"degenerate format: {self}")
        if e > 11 or m > 52:
            raise ValueError(f"format {self} does not fit the float64 carrier "
                             "(at most 11 exponent and 52 mantissa bits)")
        bias = 2 ** (e - 1) - 1
        min_exp = 1 - bias
        min_normal, max_finite = 2.0 ** min_exp, (2.0 - 2.0 ** -m) * 2.0 ** bias
        # Veltkamp rounder constants (min_normal, top, splitter), None in
        # float64; it takes min_normal <= |x| <= top, keeping x * splitter finite.
        splitter = 2.0 ** (52 - m) + 1.0
        split = (min_normal, min(max_finite, sys.float_info.max / splitter), splitter) if m < 52 else None
        constants = dict(
            bias=bias, min_exp=min_exp, unit_roundoff=2.0 ** -(m + 1), max_finite=max_finite,
            min_normal=min_normal, min_subnormal=2.0 ** (min_exp - m),
            _ulp_floor=min_exp - m,  # exponent of the subnormal spacing
            _native=_NATIVE_DTYPES.get((e, m)),  # the numpy dtype whose cast rounds alike, or None
            _split=split,
        )
        for attr, value in constants.items():
            object.__setattr__(self, attr, value)  # the dataclass is frozen

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
# formats without a native dtype, element by element in Python.  Loop vs
# numpy, in us, on a 2-vCPU x86 VM (Python 3.11, numpy 2.4): bfloat16
# rounding 1.4 vs 9.2 at 1 element, 2.8 vs 9.1 at 8; observe 2.1 vs 13.0
# at 1 element, 8.2 vs 13.4 at 32.  It also picks the float16 range and
# finite checks of batched solves, so it stays where it was set.
_SMALL = 8


class RangeMonitor:
    """Counts quantizations that left the normal range.

    `underflows` counts events where a nonzero value rounded to zero or to a
    subnormal; `overflows` counts finite values that rounded to infinity.
    Power-of-two rescaling of a computation is bit-exact only while a monitor
    attached to it stays clean.

    A value in [min_normal, max_finite] rounds to one in the same range, and
    a zero rounds to itself, so neither can be an event: `quantize` and the
    float ops never call `observe` for a float of either kind (only a
    nonzero float outside the range reaches it), a monitored native-dtype
    `dot` calls it only when a product or partial sum is outside the range
    (zeros included), and `observe` returns after one range check when
    every rounded element of a larger array is in it.
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
        tiny = fmt.min_normal
        if type(rounded) is float:  # one rounding: the loop's test, inline
            mag = abs(rounded)
            if mag == math.inf:
                if math.isfinite(raw):
                    self.overflows += 1
            elif mag < tiny and (mag > 0.0 or (raw != 0.0 and math.isfinite(raw))):
                self.underflows += 1
            return
        if rounded.size > _SMALL:
            mag = np.abs(rounded)
            if mag.min() >= tiny and mag.max() <= fmt.max_finite:  # NaN fails both
                return
            raw = np.asarray(raw)
            finite_raw = np.isfinite(raw)
            self.overflows += int(np.count_nonzero(np.isinf(rounded) & finite_raw))
            sub = (mag < tiny) & ((mag > 0) | ((rounded == 0) & (raw != 0) & finite_raw))
            self.underflows += int(np.count_nonzero(sub))
            return
        for r, q in zip(np.ravel(raw).tolist(), rounded.ravel().tolist()):
            mag = abs(q)
            if mag == math.inf:
                if math.isfinite(r):
                    self.overflows += 1
            elif mag < tiny and (mag > 0.0 or (r != 0.0 and math.isfinite(r))):
                self.underflows += 1


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


def _quantize_other(x, fmt: FloatFormat):
    """`quantize` of what its own two fast paths do not take, in a narrow format.

    A number rounds as its float, and a small array without a native dtype
    one float at a time, both with the split rounder `quantize` inlines.
    """
    tiny, top, splitter = fmt._split
    if isinstance(x, (float, int)):
        x = float(x)
        return (g := splitter * x) + (x - g) if tiny <= abs(x) <= top else _quantize_scalar(x, fmt)
    x = np.asarray(x, dtype=np.float64)
    if fmt._native is not None:
        return x.astype(fmt._native).astype(np.float64)
    if x.size <= _SMALL:
        out = [(g := splitter * v) + (v - g) if tiny <= abs(v) <= top else _quantize_scalar(v, fmt)
               for v in x.ravel().tolist()]
        return np.array(out).reshape(x.shape)
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


def quantize(x, fmt: FloatFormat, monitor: RangeMonitor | None = None):
    """Round to the nearest value representable in `fmt`, ties to even.

    Scalars map to python floats, everything else to float64 ndarrays whose
    elements are representable in `fmt`.  Signed zero is preserved, and a
    NaN keeps the input's sign on every path (so a batch row rounds like
    the same values alone), though not necessarily its payload.  This
    holds for an op with one NaN operand; an op of two NaNs returns a NaN
    of unspecified sign (module docstring).  float64 is a passthrough (the
    carrier itself); the result may then alias the input, and a monitor
    sees nothing.  A float that the split rounder takes
    (min_normal <= |x| <= top) returns before the monitor: it cannot leave
    the normal range.  So does a float zero, which rounds to itself: only
    a nonzero float outside the range reaches the monitor.  Only arrays
    can warn: the float16/float32 cast and bfloat16 arrays over `_SMALL`
    elements emit numpy's overflow `RuntimeWarning`, which solves silence
    and direct callers see.
    """
    split = fmt._split
    if split is None:  # float64 rounds nothing
        return float(x) if isinstance(x, (float, int)) else np.asarray(x, dtype=np.float64)
    if type(x) is float:
        tiny, top, splitter = split
        if tiny <= abs(x) <= top:  # stays in the normal range: nothing to observe
            g = splitter * x
            return g + (x - g)
        if x == 0.0:  # rounds to itself, sign kept, and is no range event
            return x
        out = _quantize_scalar(x, fmt)
    elif type(x) is np.ndarray and x.dtype is _FLOAT64 and fmt._native is not None:
        out = x.astype(fmt._native).astype(np.float64)
    else:
        out = _quantize_other(x, fmt)
    if monitor is not None:
        monitor.observe(x, out, fmt)
    return out


# add, sub and mul round a float result in the split rounder's range, and
# return a float zero, in their own frame, as `quantize` would, and send
# anything else to it.  The three bodies are copies: one body shared through `operator.add`, `sub`
# and `mul` made the scalar decay table 4% faster, the copies 7% (2-vCPU
# x86 VM, Python 3.11).


def add(a, b, fmt: FloatFormat, monitor: RangeMonitor | None = None):
    x = a + b
    if type(x) is float:
        split = fmt._split
        if split is None:
            return x
        tiny, top, splitter = split
        if tiny <= abs(x) <= top:
            g = splitter * x
            return g + (x - g)
        if x == 0.0:
            return x
    return quantize(x, fmt, monitor)


def sub(a, b, fmt: FloatFormat, monitor: RangeMonitor | None = None):
    x = a - b
    if type(x) is float:
        split = fmt._split
        if split is None:
            return x
        tiny, top, splitter = split
        if tiny <= abs(x) <= top:
            g = splitter * x
            return g + (x - g)
        if x == 0.0:
            return x
    return quantize(x, fmt, monitor)


def mul(a, b, fmt: FloatFormat, monitor: RangeMonitor | None = None):
    x = a * b
    if type(x) is float:
        split = fmt._split
        if split is None:
            return x
        tiny, top, splitter = split
        if tiny <= abs(x) <= top:
            g = splitter * x
            return g + (x - g)
        if x == 0.0:
            return x
    return quantize(x, fmt, monitor)


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

    The exact float64 products are formed once.  float16 and float32 round
    them with one cast to their native dtype and take the partial sums from
    one `np.add.accumulate` there, a strict left-to-right recursive sum.  A
    monitor range-checks those same values at once, observes them only if
    one is outside the normal range (zeros included), and changes none.
    In float64 rounding is the identity, so the products are accumulated
    as they are.
    numpy's float16 add rounds the exact sum to float32 and then to float16,
    which equals one rounding because 24 >= 2*11 + 2 (Figueroa, "When is
    double rounding innocuous?", 1995).  `np.sum`, `np.add.reduce` and `@`
    must not replace it: they sum pairwise, in a float32 accumulator or
    through BLAS, in an order that is not left to right.  bfloat16 has no
    native dtype and rounds the products and each partial sum with its own
    `quantize` call.

    1-D inputs give a float; inputs with leading axes give a float64 array.
    Two floats give their rounded product, the one-term sum it is.
    """
    if isinstance(a, float) and isinstance(b, float):
        return mul(a, b, fmt, monitor)
    raw = np.multiply(a, b, dtype=np.float64)  # casts only what is not float64
    if raw.ndim == 0:  # two 0-d inputs multiply to a numpy scalar
        raw = raw.reshape(1)
    if raw.shape[-1] == 1:
        p = quantize(raw, fmt, monitor)
        return float(p[0]) if p.ndim == 1 else p[..., 0]
    native = fmt._native
    if fmt.mantissa_bits >= 52:
        acc = np.add.accumulate(raw, axis=-1)
    elif native is None:
        p = quantize(raw, fmt, monitor)
        acc = p[..., 0]
        for j in range(1, p.shape[-1]):
            acc = quantize(acc + p[..., j], fmt, monitor)
        return acc
    elif monitor is None:
        acc = np.add.accumulate(raw.astype(native), axis=-1)
    else:  # products and partial sums in one buffer, range-checked at once
        both = np.empty((2, *raw.shape), native)
        both[0] = raw
        acc = np.add.accumulate(both[0], axis=-1, out=both[1])
        wide = both.astype(np.float64)
        mag = np.abs(wide)  # NaN fails both tests
        tiny, big = fmt.min_normal, fmt.max_finite
        if not (mag.min(initial=tiny) >= tiny and mag.max(initial=big) <= big):
            p, acc = wide
            monitor.observe(raw, p, fmt)
            monitor.observe(acc[..., :-1] + p[..., 1:], acc[..., 1:], fmt)
    return float(acc[-1]) if acc.ndim == 1 else acc[..., -1].astype(np.float64)

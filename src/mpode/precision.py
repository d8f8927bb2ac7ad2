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
vector, and every numpy ufunc call costs 0.5-1 us whatever its size.

`quantize` is the one rounder.  Outside generated code the solve modules
write each rounded op as `quantize` of its exact carrier value,
`quantize(a + b, fmt, monitor)`, one Python call per op, monitored or not;
`add`, `sub`, `mul`, `div`, `exp`, `tanh`, `absolute` and `maximum` are
that same call in one line.  The float ops of a one-component solve are
written once as op programs (`OpProgram`: `PolyDecayField`'s forward and
pullback, each scheme's stages and step pullback, the forward's
high-precision update and the backward sweep's per-step commit), whose
generated code does `quantize`'s float rounding inline and calls it only
for finite nonzero values outside the normal range.  `quantize` rounds a
float, and a float64 array in a format with a native dtype, in its own
frame, from constants each format holds as plain attributes
(`FloatFormat._split`, `_shifter`, `_native`).
A float with min_normal <= |x| <= top (top is max_finite unless
x * splitter could overflow) is rounded by Veltkamp splitting (Dekker,
1971; Boldo, "Pitfalls of a full floating-point proof", 2006): with
g = splitter * x, splitter = 2**(52 - mantissa_bits) + 1, the float64
sum g + (x - g) is x rounded to nearest even on mantissa_bits + 1 bits.
Two comparison chains, `tiny <= x <= top or -top <= x <= -tiny`, test
that range without an `abs()` call.  Rounding is monotone and min_normal
and max_finite are representable, so such a value stays in the normal
range, has no range event, and returns at once: a monitor is consulted
only for the rest.  A float zero, an infinity and a NaN round to
themselves, keep their sign and are no range event, so they return right
after their test.  A nonzero float below min_normal rounds by one add and
one subtract, (x + C) - C with C = 1.5 * 2**(ulp floor + 52) (`_shifter`):
C's float64 ulp is the subnormal spacing and x + C stays in C's binade, so
the sum rounds x onto the subnormal grid, ties to even, and the subtract
is exact; a zero result takes x's sign.  Other numbers (`np.float64`, int,
bool) round as their float.  Finite floats beyond +-top, and arrays of
over `_SMALL` elements without a native dtype, take the generic
frexp/ldexp code, which sends a value that rounds past float64's largest
to inf; smaller such arrays round one float at a time.  A `dot` of two or
more terms in float16, float32 or float64 rounds (or, in float64, keeps)
its products and partial sums in its own frame with no `quantize` call;
bfloat16 and one-term `dot`s call it.

A NaN keeps its sign through `quantize` on every path, so an op with one
NaN operand returns a NaN of that sign.  An op of two NaNs (a carrier sum
or product, a `dot` of two floats) returns a NaN of unspecified sign: of
two NaN floats, CPython's `a + b` and `a * b` return one operand's before
the interpreter has specialized that line and the other's after, and that
depends on what ran before.  `adjoint.Gradients` holds NaNs as `np.nan`.
"""
from __future__ import annotations

import linecache
import math
import re
import sys
import textwrap
import types
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
    "OpProgram",
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
            # A subnormal x rounds as (x + _shifter) - _shifter: the ulp of
            # this float64 is the subnormal spacing, and the sum stays in its binade.
            _shifter=1.5 * 2.0 ** (min_exp - m + 52),
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


# Arrays of at most this many elements round to a format without a native
# dtype, and `integrate` checks them for finite values, one element at a
# time in Python: bfloat16 rounding takes 1.2-2.5 us that way, 7.5-8.9 us in
# numpy for 1 to 8 elements, `np.isfinite(x).all()` about 2 us.
_SMALL = 8


class RangeMonitor:
    """Counts quantizations that left the normal range.

    `underflows` counts events where a nonzero value rounded to zero or to a
    subnormal; `overflows` counts finite values that rounded to infinity.
    Power-of-two rescaling of a computation is bit-exact only while a monitor
    attached to it stays clean.

    A value in [min_normal, max_finite] rounds to one in the same range, and
    a zero, an infinity and a NaN round to themselves, so none can be an
    event: `quantize` and the float ops never call `observe` for such a
    float (only a finite nonzero float outside the range reaches it), a
    monitored native-dtype
    `dot` calls it only when a product or partial sum is outside the range
    (zeros included), and `observe` returns after one range check when
    every rounded element of an array is in it.
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
        mag = np.abs(rounded)
        big = fmt.max_finite
        if mag.min(initial=tiny) >= tiny and mag.max(initial=big) <= big:  # NaN fails both
            return
        raw = np.asarray(raw)
        finite_raw = np.isfinite(raw)
        self.overflows += int(np.count_nonzero(np.isinf(rounded) & finite_raw))
        sub = (mag < tiny) & ((mag > 0) | ((rounded == 0) & (raw != 0) & finite_raw))
        self.underflows += int(np.count_nonzero(sub))


def _quantize_scalar(x: float, fmt: FloatFormat) -> float:
    """A finite float beyond the split's top, rounded to `fmt`."""
    _, e = math.frexp(x)
    shift = e - 1 - fmt.mantissa_bits  # |x| > top >= min_normal: never below the ulp floor
    try:
        y = math.ldexp(round(math.ldexp(x, -shift)), shift)
    except OverflowError:  # rounded up past float64's own largest value
        return math.copysign(math.inf, x)
    return y if abs(y) <= fmt.max_finite else math.copysign(math.inf, x)


def quantize(x, fmt: FloatFormat, monitor: RangeMonitor | None = None):
    """Round to the nearest value representable in `fmt`, ties to even.

    Scalars map to python floats, everything else to float64 ndarrays whose
    elements are representable in `fmt`.  Signed zero is preserved, and a
    NaN keeps the input's sign on every path (so a batch row rounds like
    the same values alone), though not necessarily its payload (an op of
    two NaNs: module docstring).  float64 is a passthrough (the
    carrier itself); the result may then alias the input, and a monitor
    sees nothing.  A float that the split rounder takes
    (min_normal <= |x| <= top) returns before the monitor: it cannot leave
    the normal range.  So do a float zero, inf and NaN, which round to
    themselves: only a finite nonzero float outside the range reaches the
    monitor.  Only arrays
    can warn: the float16/float32 cast and the generic code on bfloat16
    arrays of over `_SMALL` elements emit numpy's overflow
    `RuntimeWarning`, which solves silence and direct callers see.
    """
    split = fmt._split
    if split is None:  # float64 rounds nothing
        return float(x) if isinstance(x, (float, int)) else np.asarray(x, dtype=np.float64)
    tiny, top, splitter = split
    if type(x) is not float:
        if isinstance(x, (float, int)):  # a number rounds as its float
            x = float(x)
        else:
            if type(x) is not np.ndarray or x.dtype is not _FLOAT64:
                x = np.asarray(x, dtype=np.float64)
            if fmt._native is not None:
                out = x.astype(fmt._native).astype(np.float64)
            elif x.size <= _SMALL:  # one float at a time, by the float code below
                # `map`, not a comprehension: that would make `fmt` a cell in every call
                out = np.array(list(map(quantize, x.ravel().tolist(), [fmt] * x.size))).reshape(x.shape)
            else:  # the generic code, elementwise; `out=` keeps a 0-d array one
                _, e = np.frexp(x)
                shift = np.maximum(e - 1 - fmt.mantissa_bits, fmt._ulp_floor)
                # np.rint keeps the sign of a zero, so only overflow needs fixing.
                out = np.ldexp(np.rint(np.ldexp(x, -shift)), shift, out=np.empty_like(x))
                over = np.abs(out) > fmt.max_finite
                if over.any():
                    out = np.where(over, np.copysign(np.inf, x), out)
            if monitor is not None:
                monitor.observe(x, out, fmt)
            return out
    if tiny <= x <= top or -top <= x <= -tiny:  # stays in the normal range: nothing to observe
        g = splitter * x
        return g + (x - g)
    if -tiny < x < tiny:
        if x == 0.0:  # rounds to itself, sign kept, and is no range event
            return x
        shifter = fmt._shifter
        out = (x + shifter) - shifter  # onto the subnormal grid, ties to even
        if out == 0.0:
            out = math.copysign(0.0, x)
    elif x - x != 0.0:  # inf or NaN rounds to itself and is no range event
        return x
    else:
        out = _quantize_scalar(x, fmt)
    if monitor is not None:
        monitor.observe(x, out, fmt)
    return out


# Each op is `quantize` of its exact carrier value.  The solve modules call
# `quantize` on the same expression directly, which saves a Python frame
# per op; these public names stay for other callers, and the benchmark's
# tracer looks them up by name.


def add(a, b, fmt: FloatFormat, monitor: RangeMonitor | None = None):
    return quantize(a + b, fmt, monitor)


def sub(a, b, fmt: FloatFormat, monitor: RangeMonitor | None = None):
    return quantize(a - b, fmt, monitor)


def mul(a, b, fmt: FloatFormat, monitor: RangeMonitor | None = None):
    return quantize(a * b, fmt, monitor)


def div(a, b, fmt: FloatFormat, monitor: RangeMonitor | None = None):
    # np.divide also for scalars, so x/0 yields inf, not ZeroDivisionError.
    with np.errstate(divide="ignore", invalid="ignore"):
        return quantize(np.divide(a, b, dtype=np.float64), fmt, monitor)


def exp(a, fmt: FloatFormat, monitor: RangeMonitor | None = None):
    # np.exp also for scalars so both call paths share one libm.
    return quantize(np.exp(np.asarray(a, dtype=np.float64)), fmt, monitor)


def tanh(a, fmt: FloatFormat, monitor: RangeMonitor | None = None):
    return quantize(np.tanh(np.asarray(a, dtype=np.float64)), fmt, monitor)


def absolute(a, fmt: FloatFormat, monitor: RangeMonitor | None = None):
    return quantize(abs(a) if isinstance(a, (float, int)) else np.abs(a), fmt, monitor)


def maximum(a, b, fmt: FloatFormat, monitor: RangeMonitor | None = None):
    return quantize(np.maximum(a, b, dtype=np.float64), fmt, monitor)


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
        return quantize(a * b, fmt, monitor)
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


# An op line: `x = Q(expr)`, the whole right-hand side one rounded op.
_OP_LINE = re.compile(r"(\s*)(\w+) = Q\((.*)\)$")


def _op_code(source: str, split) -> str:
    """`source` with every op line `x = Q(expr)` written out.

    `split` None gives the call form, `x = quantize(expr, fmt, monitor)`;
    an empty tuple (float64) gives `x = expr`; a format's `_split` gives
    `x = expr`, then the Veltkamp split of x in the normal range, nothing
    for a zero, inf or NaN (each rounds to itself), and one `quantize` call
    for any other x (`quantize`'s own float code).
    """
    out = []
    for line in source.splitlines():
        m = _OP_LINE.fullmatch(line)
        if m is None:
            out.append(line)
            continue
        ind, x, expr = m.groups()
        if split is None:
            out.append(f"{ind}{x} = quantize({expr}, fmt, monitor)")
            continue
        out.append(f"{ind}{x} = {expr}")
        if split:
            tiny, top, splitter = split
            out += [
                f"{ind}if {tiny!r} <= {x} <= {top!r} or {-top!r} <= {x} <= {-tiny!r}:",
                f"{ind}    _g = {splitter!r} * {x}",
                f"{ind}    {x} = _g + ({x} - _g)",
                f"{ind}elif {x} != 0.0 and {x} - {x} == 0.0:",
                f"{ind}    {x} = quantize({x}, fmt, monitor)",
            ]
    text = "\n".join(out) + "\n"
    if re.search(r"\bQ\(", text):
        raise ValueError("Q(...) must be the whole right-hand side of an op line `x = Q(expr)`")
    return text


class OpProgram:
    """Python functions whose rounded ops are written `x = Q(expr)`.

    `source` defines one or more functions, each with a `monitor` in scope.
    Every line `x = Q(expr)` is one op: `expr` evaluated in the float64
    carrier, then rounded to the format; other lines run as written, and
    the name `_g` is the generated code's own.  `compile(fmt)` generates and
    compiles the code for one format on first use and caches it, so nothing
    compiles at import.  In float16, bfloat16 and float32 each op becomes
    `x = expr` and then one of three branches:
      * min_normal <= |x| <= top, tested by two comparison chains:
        `quantize`'s Veltkamp split, inline;
      * a finite nonzero x outside that range (`x != 0.0 and x - x ==
        0.0`): one `quantize(x, fmt, monitor)` call, the only code that
        sees the monitor; it rounds a subnormal by one add and one subtract;
      * a zero, inf or NaN: nothing, no call; each rounds to itself, keeps
        its sign and is no range event.
    In float64 an op keeps the bare carrier value.  The inline code takes
    floats; each op gives the bits and the range events of `quantize`.

    `compile(fmt, rounder)` writes every op as a call `rounder(expr, fmt,
    monitor)` instead: the one seam through which a test rounds the
    generated ops with a rounder of its own.  `compile()` writes every op as
    `quantize(expr, fmt, monitor)` for functions that take `fmt` as an
    argument, the generic form for arrays and batches; with `module` given,
    these functions read that module's globals, so its `quantize` is looked
    up at each call.  `env(fmt, rounder)` gives the generated code of a
    format more globals.

    The generated text is registered with `linecache` under the filename
    `<op program NAME FORMAT>`, so tracebacks show its lines and
    `inspect.getsource` prints each function.
    """

    def __init__(self, name: str, source: str, env=None, module=None) -> None:
        self.name = name
        self.source = textwrap.dedent(source).strip("\n")
        self._env = env
        self._module = module
        self._compiled: dict = {}

    def compile(self, fmt: FloatFormat | None = None, rounder=None) -> types.SimpleNamespace:
        """The functions of the program for `fmt`, by name; built on the
        first call for each `fmt` and `rounder`."""
        key = (fmt, rounder)
        out = self._compiled.get(key)
        if out is None:
            out = self._compiled[key] = self._build(fmt, rounder)
        return out

    def _build(self, fmt, rounder) -> types.SimpleNamespace:
        if fmt is None or rounder is not None:
            split, label = None, "generic" if fmt is None else f"{fmt} via {rounder.__name__}"
        else:
            split, label = fmt._split or (), fmt.name
        text = _op_code(self.source, split)
        if self._module is not None and fmt is None:
            namespace = vars(self._module)
        else:
            namespace = {"quantize": rounder or quantize, "fmt": fmt}
            if self._env is not None:
                namespace.update(self._env(fmt, rounder))
        filename = f"<op program {self.name} {label}>"
        linecache.cache[filename] = (len(text), None, text.splitlines(True), filename)
        functions: dict = {}
        exec(compile(text, filename, "exec"), namespace, functions)
        return types.SimpleNamespace(**functions)

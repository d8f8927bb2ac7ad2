"""Layer spans and exact counts, recorded from the benchmark's side.

`Tracer.install` wraps the public entry points of each mpode layer.  The
modules import names directly (`from .precision import quantize`), so a
wrapper is installed on every module binding that holds the function, not
only on the defining module.  Field methods and `RangeMonitor.observe` are
wrapped on their classes, and the pullback closures that fields and step
tapes hand out are wrapped as they are returned.

Spans are aggregated in memory per name: calls, total time, and self time
(total minus the time spent in child spans).  Nothing inside mpode changes;
wrappers only add time around the calls they measure.
"""
from __future__ import annotations

import inspect
import statistics
import sys
from time import perf_counter

import numpy as np

from mpode import adjoint, cli, dynamics, integrate, precision, runners

LAYERS = ("precision", "dynamics", "integrate", "adjoint", "runners", "cli")
ARITH = ("add", "sub", "mul", "div", "exp", "tanh", "absolute", "maximum")
FIELDS = {
    "polydecay": dynamics.PolyDecayField,
    "mlp": dynamics.MlpField,
    "linear": dynamics.LinearField,
}


class Span:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        # Child time of each open span; the bottom entry collects top-level spans.
        self._stack = [0.0]
        self.fields: list[dynamics.VelocityField] = []  # created since the reset
        self.reset()

    def reset(self) -> None:
        """Start a new item: zero every span and count."""
        for s in self.spans.values():
            s.calls, s.total, s.self_time = 0, 0.0, 0.0
        self._stack[:] = [0.0]
        self.fields.clear()
        self.rounded_elems = 0
        # Backward sweeps: pullbacks tried, rescue retries, scale doublings.
        self.attempts = self.rescues = self.doublings = 0
        # Field evaluations the executed steps call for: the scheme's stages each.
        self.stage_evals = 0
        self.ref_time = 0.0  # inclusive time of float64 forward and backward solves

    def wrap(self, name: str, fn):
        span = self.spans.setdefault(name, Span())
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                span.self_time += dt - stack.pop()
                span.total += dt
                span.calls += 1
                stack[-1] += dt

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        replace = {
            precision.quantize: self.wrap("precision.quantize", self._counted_quantize()),
            precision.dot: self.wrap("precision.dot", precision.dot),
            integrate.forward: self.wrap("integrate.forward", self._forward()),
            integrate.increment: self.wrap("integrate.increment", self._staged(integrate.increment)),
            integrate.build_step_tape: self.wrap("integrate.tape", self._staged(self._tape())),
            adjoint.backward: self.wrap("adjoint.backward", self._backward()),
            adjoint.sgd_step: self.wrap("adjoint.sgd_step", adjoint.sgd_step),
            runners.run_table: self.wrap("runners.run_table", runners.run_table),
            runners.run_sgd_demo: self.wrap("runners.run_sgd_demo", runners.run_sgd_demo),
            cli.main: self.wrap("cli.main", cli.main),
        }
        for name in ARITH:
            fn = getattr(precision, name)
            replace[fn] = self.wrap(f"precision.{name}", fn)
        by_id = {id(orig): (orig, new) for orig, new in replace.items()}
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "mpode"]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

        monitor = precision.RangeMonitor
        monitor.observe = self.wrap("precision.observe", monitor.observe)
        for label, cls in FIELDS.items():
            cls._eval = self.wrap(f"dynamics.eval_{label}", cls._eval)
            cls._linearize = self.wrap(f"dynamics.linearize_{label}", self._linearize(cls, label))
        init = dynamics.VelocityField.__init__

        def registering(field, *args, **kwargs):
            init(field, *args, **kwargs)
            self.fields.append(field)

        dynamics.VelocityField.__init__ = registering
        # Spans of closures exist before their first call, so every item
        # reports the same set of names.
        for label in FIELDS:
            self.spans.setdefault(f"dynamics.pullback_{label}", Span())
        self.spans.setdefault("integrate.tape_pullback", Span())

    def _counted_quantize(self):
        quantize = precision.quantize

        def counted(x, fmt, monitor=None):
            if fmt.mantissa_bits < 52:
                self.rounded_elems += int(np.size(x))
            return quantize(x, fmt, monitor)

        return counted

    def _linearize(self, cls, label):
        linearize = cls._linearize
        pull_name = f"dynamics.pullback_{label}"

        def linearized(field, *args, **kwargs):
            f, pull = linearize(field, *args, **kwargs)
            return f, self.wrap(pull_name, pull)

        return linearized

    def _staged(self, step):
        """Count the stages of every executed forward or backward step."""

        def staged(scheme, *args, **kwargs):
            self.stage_evals += scheme.stages
            return step(scheme, *args, **kwargs)

        return staged

    def _tape(self):
        build = integrate.build_step_tape

        def taped(*args, **kwargs):
            tape = build(*args, **kwargs)
            tape.pullback = self.wrap("integrate.tape_pullback", tape.pullback)
            return tape

        return taped

    def _forward(self):
        forward = integrate.forward
        sig = inspect.signature(forward)

        def forwarded(*args, **kwargs):
            if sig.bind(*args, **kwargs).arguments["fmt_low"] is not precision.FLOAT64:
                return forward(*args, **kwargs)
            t0 = perf_counter()
            try:
                return forward(*args, **kwargs)
            finally:
                self.ref_time += perf_counter() - t0

        return forwarded

    def _backward(self):
        backward = adjoint.backward
        sig = inspect.signature(backward)

        def backwarded(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            # A trace only records; passing one changes no output bit, and
            # it is the only place the scale doublings are visible.
            if bound.arguments.get("trace") is None:
                bound.arguments["trace"] = adjoint.BackwardTrace()
            trace = bound.arguments["trace"]
            pulls = self.spans["integrate.tape_pullback"]
            before, rescues, doublings = pulls.calls, trace.total_rescales, trace.doublings
            t0 = perf_counter()
            try:
                return backward(*bound.args, **bound.kwargs)
            finally:
                if bound.arguments["fmt_low"] is precision.FLOAT64:
                    self.ref_time += perf_counter() - t0
                self.attempts += pulls.calls - before
                self.rescues += trace.total_rescales - rescues
                self.doublings += trace.doublings - doublings

        return backwarded

    # -- results -----------------------------------------------------------

    def exact_counts(self) -> dict:
        """Hardware-independent counts of the last item; equal on every repeat."""
        counts = {f"{name}.calls": s.calls for name, s in sorted(self.spans.items())}
        counts["rounded_elems"] = self.rounded_elems
        counts["field_evals"] = sum(f.eval_count for f in self.fields)
        counts["stage_evals"] = self.stage_evals
        counts["backward_attempts"] = self.attempts
        counts["backward_rescues"] = self.rescues
        counts["backward_doublings"] = self.doublings
        return counts

    def item_metrics(self, item_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the last item, by name, as (value, unit).

        A step is an executed forward step (one `increment`) or backward
        step (one step tape); solves cut short by a non-finite value count
        only the steps they took.
        """
        sp = self.spans
        counts = self.exact_counts()

        def per_call_us(name):
            s = sp.get(name)
            return (1e6 * s.self_time / s.calls if s and s.calls else 0.0, "us")

        def per(value, denom):
            return value / denom if denom else 0.0

        arith = sum(sp[f"precision.{a}"].calls for a in ARITH)
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, s in sp.items():
            layer_self[name.split(".")[0]] += s.self_time
        fwd, bwd = sp["integrate.forward"], sp["adjoint.backward"]
        fsteps, bsteps = sp["integrate.increment"].calls, sp["integrate.tape"].calls
        steps = fsteps + bsteps
        attempts = self.attempts
        m = {
            "precision.quantize.calls_per_step": (per(sp["precision.quantize"].calls, steps), "count/step"),
            "precision.dot.calls_per_step": (per(sp["precision.dot"].calls, steps), "count/step"),
            "precision.arith.calls_per_step": (per(arith, steps), "count/step"),
            "precision.rounded_elems_per_step": (per(self.rounded_elems, steps), "count/step"),
            "precision.observe.calls_per_step": (per(sp["precision.observe"].calls, steps), "count/step"),
            "precision.quantize.self_us": per_call_us("precision.quantize"),
            "precision.dot.self_us": per_call_us("precision.dot"),
            "precision.observe.self_us": per_call_us("precision.observe"),
            "dynamics.evals_per_step": (per(counts["field_evals"], steps), "count/step"),
        }
        for kind in ("eval", "linearize", "pullback"):
            for label in FIELDS:
                m[f"dynamics.{kind}_{label}.self_us"] = per_call_us(f"dynamics.{kind}_{label}")
        m.update({
            "integrate.forward.us_per_step": (1e6 * per(fwd.total, fsteps), "us/step"),
            "integrate.forward.self_us_per_step": (1e6 * per(fwd.self_time, fsteps), "us/step"),
            "integrate.forward.calls_per_run": (float(fwd.calls), "count"),
            "integrate.increment.self_us": per_call_us("integrate.increment"),
            "integrate.tape.self_us": per_call_us("integrate.tape"),
            "integrate.tape_pullback.self_us": per_call_us("integrate.tape_pullback"),
            "adjoint.backward.us_per_step": (1e6 * per(bwd.total, bsteps), "us/step"),
            "adjoint.backward.self_us_per_step": (1e6 * per(bwd.self_time, bsteps), "us/step"),
            "adjoint.pullback_attempts_per_step": (per(attempts, bsteps), "count/step"),
            "adjoint.useful_pullback_ratio": (per(attempts - self.rescues, attempts), "ratio"),
            "adjoint.doublings_per_step": (per(self.doublings, bsteps), "count/step"),
            "runners.ref_solve_share": (per(self.ref_time, item_s), "ratio"),
            "runners.solves_per_item": (float(fwd.calls + bwd.calls), "count"),
        })
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (layer_self[layer], "s")
        # The benchmark's own share: hashing, reading outputs, checks.
        m["bench.self_s"] = (item_s - self._stack[0], "s")
        return m


def microbench(repeats: int = 5, target_s: float = 0.02) -> dict[str, tuple[float, str]]:
    """µs per call of the rounding primitives after warm-up.

    Call it before `Tracer.install`, so that nothing it times is wrapped.

    Scalar and 8-vector `quantize` and an 8x9 `dot` (one layer of an MLP
    2-8-8-2 field) in every format; the median of `repeats` timed loops.
    """
    quantize, dot = precision.quantize, precision.dot
    rng = np.random.default_rng(12345)
    vec8 = rng.standard_normal(8)
    w, v = rng.standard_normal((8, 9)), rng.standard_normal(9)
    short = {"float16": "f16", "bfloat16": "bf16", "float32": "f32", "float64": "f64"}
    out = {}
    for fname, tag in short.items():
        fmt = precision.get_format(fname)
        cases = {
            f"precision.quantize_scalar_{tag}.us": lambda: quantize(0.3183098861837907, fmt),
            f"precision.quantize_vec8_{tag}.us": lambda: quantize(vec8, fmt),
            f"precision.dot8x9_{tag}.us": lambda: dot(w, v, fmt),
        }
        for name, call in cases.items():
            out[name] = (_us_per_call(call, repeats, target_s), "us")
    return out


def _us_per_call(call, repeats: int, target_s: float) -> float:
    t0, k = perf_counter(), 0
    while perf_counter() - t0 < target_s / 4:  # warm-up and calibration
        call()
        k += 1
    loops = max(1, int(k * 4))
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(loops):
            call()
        samples.append((perf_counter() - t0) / loops)
    return 1e6 * statistics.median(samples)

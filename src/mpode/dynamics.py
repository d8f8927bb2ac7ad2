"""Velocity fields with hand-written vector-Jacobian products.

Every field evaluates through the rounded primitives in `precision`, so the
op sequence is part of the contract: two mathematically equal evaluation
orders are different functions in low precision.  The reverse sweeps mirror
the forward op order exactly and round every primitive in the same format.

`linearize` returns the field value together with a pullback closure over
the recorded activations; calling the pullback repeatedly with different
cotangents does not re-evaluate the field.  That is what makes per-step
adjoint rescaling cheap.

`LinearField` and `MlpField` also take a batch of states `(B, dim)` and
evaluate and pull back every row at once: their matrix-vector products are
`dot(w, v[..., None, :])`, which broadcasts over the leading axis and rounds
each row exactly as alone.  Their pullbacks then return `(B, ...)` arrays
(`dt` is `(B,)`, or a shared 0.0 for `LinearField`).  For one state
`dt` is a float, so the time-gradient sums of an unbatched sweep stay on
floats.  `PolyDecayField` takes one state.

A solve with one state component hands the fields Python floats (see
`integrate`).  `PolyDecayField` returns the type it gets: a float state
gives a float value, a float cotangent a float `da` and a tuple of three
floats as `dtheta`, and `(1,)` arrays give `(1,)` arrays and a `(3,)`
`dtheta`.  `LinearField` and `MlpField` turn a float state or
cotangent into a `(1,)` array with `np.atleast_1d` and return arrays,
`dt` excepted.

A field may also carry an op program (`VelocityField.program`, a
`precision.OpProgram`): `PolyDecayField` writes its forward and pullback
once that way, on floats.  Its `_linearize` runs the compiled program, and
a one-component solve calls the program's code directly from the
generated step (`integrate`), with no `linearize` call, pullback closure
or `FieldVjp` per stage; `eval_count` still counts every stage.  A
subclass that overrides `_linearize` is evaluated through its override.
"""
from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .precision import FloatFormat, OpProgram, dot, quantize, tanh

__all__ = [
    "Params",
    "FieldVjp",
    "VelocityField",
    "PolyDecayField",
    "LinearField",
    "MlpField",
]


@dataclass
class Params:
    """Master copy of field parameters, kept in the wide carrier."""

    master: np.ndarray

    def __post_init__(self) -> None:
        self.master = np.asarray(self.master, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(self.master)):
            raise ValueError("master parameters must be finite")

    def low(self, fmt: FloatFormat) -> np.ndarray:
        """Quantized view used by low-precision evaluation."""
        return quantize(self.master, fmt)

    def __len__(self) -> int:
        return self.master.size


class FieldVjp(NamedTuple):
    """Cotangents of one field evaluation wrt its state, time and parameters.

    A field that returns a float `da` may return `dtheta` as a tuple of
    floats, one per parameter; otherwise both are arrays.
    """

    da: float | np.ndarray
    dt: float | np.ndarray
    dtheta: np.ndarray | tuple[float, ...]


Pullback = Callable[..., FieldVjp]


class VelocityField(abc.ABC):
    """f(t, y, theta) with a recorded-activation reverse sweep.

    Each field has one forward pass, `_linearize`.  `eval_count` counts
    field evaluations (each `linearize` call counts, pullback calls do not);
    it exists so callers can assert evaluation budgets, and is the one piece
    of mutable state on a field that callers see.  A field may also cache
    work that depends on theta alone (`MlpField` keeps its last layer
    split); a cache changes no result.
    """

    dim_state: int
    dim_params: int

    # An op program (`precision.OpProgram`) whose `forward(t, y, params,
    # monitor)` and `pullback(res, cotangent, monitor)` evaluate the field
    # on a float state, or None.
    program: OpProgram | None = None

    def __init__(self) -> None:
        self.eval_count = 0

    @classmethod
    def _float_program(cls) -> OpProgram | None:
        """`program`, or None where a subclass below the class that set it
        overrides `_linearize`: a solve then evaluates through the override."""
        for klass in cls.__mro__:
            attrs = vars(klass)
            if "program" in attrs:
                return attrs["program"]
            if "_linearize" in attrs:
                return None
        return None

    def linearize(self, t, y, theta, fmt, monitor=None) -> tuple[np.ndarray, Pullback]:
        self.eval_count += 1
        return self._linearize(t, y, theta, fmt, monitor)

    # Called by nothing in mpode; kept because perfbench/spans.py wraps `cls._eval`.
    def _eval(self, t, y, theta, fmt, monitor) -> np.ndarray:
        return self._linearize(t, y, theta, fmt, monitor)[0]

    @abc.abstractmethod
    def _linearize(self, t, y, theta, fmt, monitor) -> tuple[np.ndarray, Pullback]: ...


class PolyDecayField(VelocityField):
    """Scalar decay y' = -(th1*t^2 + th2*t + th3) * y.

    With steep coefficients the trajectory spans nearly the whole float16
    range, which is what makes it a good range stress test.  Its forward
    and pullback are its op program.
    """

    dim_state = 1
    dim_params = 3
    program = OpProgram("PolyDecayField", """
        def forward(t, y, params, monitor=None):
            th1, th2, th3 = params
            tq = Q(t)
            t2 = Q(tq * tq)
            p1 = Q(th1 * t2)
            p2 = Q(th2 * tq)
            s = Q(p1 + p2)
            lam = Q(s + th3)
            f = Q(lam * y)
            return -f, (y, tq, t2, lam, th1, th2)

        def pullback(res, cotangent, monitor=None):
            y, tq, t2, lam, th1, th2 = res
            cm = -cotangent
            c_lam = Q(cm * y)
            c_y = Q(cm * lam)
            dth1 = Q(c_lam * t2)
            dth2 = Q(c_lam * tq)
            c_t2 = Q(c_lam * th1)
            u = Q(c_t2 * tq)
            u = Q(u + u)
            v = Q(c_lam * th2)
            dt = Q(v + u)
            return c_y, dt, (dth1, dth2, c_lam)
    """)

    def _linearize(self, t, y, theta, fmt, monitor):
        lift = not isinstance(y, float)  # a (1,) array in, (1,) arrays out
        if lift and y.ndim != 1:
            raise ValueError("PolyDecayField takes one state, not a batch")
        ops = self.program.compile(fmt)
        params = np.asarray(theta, dtype=np.float64).tolist()
        f, res = ops.forward(float(t), float(y[0] if lift else y), params, monitor)

        def pull(cotangent, monitor=None) -> FieldVjp:
            lift_c = not isinstance(cotangent, float)
            c_y, dt, dtheta = ops.pullback(res, float(cotangent[0] if lift_c else cotangent), monitor)
            if lift_c:
                return FieldVjp(np.array([c_y]), dt, np.array(dtheta))
            return FieldVjp(c_y, dt, dtheta)

        return (np.array([f]) if lift else f), pull


class LinearField(VelocityField):
    """y' = A y with a fixed matrix; carries no trainable parameters."""

    dim_params = 0

    def __init__(self, a_matrix) -> None:
        super().__init__()
        self.a_matrix = np.asarray(a_matrix, dtype=np.float64)
        if self.a_matrix.ndim != 2 or self.a_matrix.shape[0] != self.a_matrix.shape[1]:
            raise ValueError("a_matrix must be square")
        self.dim_state = self.a_matrix.shape[0]

    def _linearize(self, t, y, theta, fmt, monitor):
        y = np.atleast_1d(y)
        aq = quantize(self.a_matrix, fmt, monitor)
        f = dot(aq, y[..., None, :], fmt, monitor)

        def pull(cotangent, monitor=None) -> FieldVjp:
            da = dot(aq.T, np.atleast_1d(cotangent)[..., None, :], fmt, monitor)
            return FieldVjp(da, 0.0, np.zeros(0))

        return f, pull


class MlpField(VelocityField):
    """Small fully connected network; time is an extra input coordinate.

    Layer l maps in_l -> widths[l+1] with in_0 = widths[0] + 1 (the state
    plus t) and tanh after every layer except the last.  Parameters pack as
    weight matrix (row-major) then bias, layers in order.

    theta is `(n_params,)`, shared by every row of a `(B, dim)` batch, or
    `(B, n_params)`, one parameter vector per row.  The layer split runs
    along theta's last axis and every op is elementwise or a last-axis
    `dot`, so each row is bit-identical to its own evaluation with its own
    theta, and its pullback's `dtheta` row to its own pullback's.

    A solve hands every evaluation the same theta array, so the field keeps
    the last theta it split into layer views, with the views, and reuses
    them while the same object (`is`) comes back.  Holding the reference
    keeps its id from being reused, and views track in-place edits of it.
    """

    def __init__(self, widths: Sequence[int] = (2, 32, 32, 2)) -> None:
        super().__init__()
        self.widths = tuple(int(w) for w in widths)
        if len(self.widths) < 2 or self.widths[-1] != self.widths[0]:
            raise ValueError("widths must map the state dimension back to itself")
        self.dim_state = self.widths[0]
        self._shapes: list[tuple[int, int]] = []
        prev = self.widths[0] + 1
        for w in self.widths[1:]:
            self._shapes.append((w, prev))
            prev = w
        self.dim_params = sum(o * i + o for o, i in self._shapes)
        self._split: tuple[np.ndarray, list] | None = None  # (theta, its layers)

    def init_params(self, seed: int) -> Params:
        rng = np.random.default_rng(seed)
        chunks = []
        for out_d, in_d in self._shapes:
            chunks.append(rng.standard_normal((out_d, in_d)).ravel() / np.sqrt(in_d))
            chunks.append(0.1 * rng.standard_normal(out_d))
        return Params(np.concatenate(chunks))

    def _layers(self, theta):
        """(w, b) views of theta per layer, split along its last axis; the
        last split is reused for the same theta."""
        split = self._split
        if split is not None and split[0] is theta:
            return split[1]
        out = []
        pos = 0
        lead = theta.shape[:-1]
        for out_d, in_d in self._shapes:
            w = theta[..., pos : pos + out_d * in_d].reshape(*lead, out_d, in_d)
            pos += out_d * in_d
            b = theta[..., pos : pos + out_d]
            pos += out_d
            out.append((w, b))
        self._split = (theta, out)
        return out

    def _linearize(self, t, y, theta, fmt, monitor):
        y = np.atleast_1d(y)
        layers = self._layers(theta)
        last = len(layers) - 1
        # vs[l] is the input of layer l, which for l > 0 is the tanh output
        # of layer l - 1; vs[-1] is the field value.  Every row reads the
        # same rounded t.
        lead = y.shape[:-1]
        v0 = np.empty((*lead, self.dim_state + 1))
        v0[..., :-1] = y
        v0[..., -1] = quantize(float(t), fmt, monitor)
        vs = [v0]
        for l, (w, b) in enumerate(layers):
            z = quantize(dot(w, vs[l][..., None, :], fmt, monitor) + b, fmt, monitor)
            vs.append(tanh(z, fmt, monitor) if l < last else z)

        def pull(cotangent, monitor=None) -> FieldVjp:
            c = np.atleast_1d(np.asarray(cotangent, dtype=np.float64))
            dtheta = np.empty((*lead, self.dim_params))
            pos = self.dim_params
            for l in range(last, -1, -1):
                w, _ = layers[l]
                if l < last:
                    a = vs[l + 1]
                    gate = quantize(1.0 - quantize(a * a, fmt, monitor), fmt, monitor)
                    c = quantize(c * gate, fmt, monitor)
                out_d, in_d = self._shapes[l]
                pos -= out_d
                dtheta[..., pos : pos + out_d] = c
                dw = quantize(c[..., :, None] * vs[l][..., None, :], fmt, monitor)
                pos -= out_d * in_d
                dtheta[..., pos : pos + out_d * in_d] = dw.reshape(*lead, -1)
                c = dot(w.swapaxes(-1, -2), c[..., None, :], fmt, monitor)
            dt = c[..., self.dim_state]
            return FieldVjp(c[..., : self.dim_state], dt if lead else float(dt), dtheta)

        return vs[-1], pull


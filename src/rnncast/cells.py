"""LSTM and GRU cells with hand-derived backpropagation through time.

Both cells read a univariate window one scalar per step, starting from zero
hidden (and cell) state, and a linear head maps the final hidden state to
all horizon steps at once:

LSTM (input i, forget f, output o, candidate g):
    i_t = sigmoid(w_i * x_t + u_i @ h_{t-1} + b_i)
    f_t = sigmoid(w_f * x_t + u_f @ h_{t-1} + b_f)
    o_t = sigmoid(w_o * x_t + u_o @ h_{t-1} + b_o)
    g_t = tanh   (w_g * x_t + u_g @ h_{t-1} + b_g)
    c_t = f_t * c_{t-1} + i_t * g_t
    h_t = o_t * tanh(c_t)

GRU (update z, reset r, candidate n; reset gate applied inside the
recurrent term of the candidate):
    z_t = sigmoid(w_z * x_t + u_z @ h_{t-1} + b_z)
    r_t = sigmoid(w_r * x_t + u_r @ h_{t-1} + b_r)
    n_t = tanh   (w_n * x_t + u_n @ (r_t * h_{t-1}) + b_n)
    h_t = (1 - z_t) * n_t + z_t * h_{t-1}

Head: prediction = w_out @ h_last + b_out, linear (forecasts live in
normalized space but are never clamped).

The API is batched only: `ModelState.forecast` and `backward_batch` take a
stack of windows (batch, window); one window is `window[None, :]`. A model's
parameters are one name -> array dict in `tensor_shapes` order, and
`backward_batch` returns the MSE loss and the exact mean of per-sample
gradients as a new dict under the same names. Each cell's equations exist
once in a step generator serving both, and once more, differentiated, in its
backward pass, which reads the generator's arrays uncopied. Both stack a
gate group's tensors gate-major per call: one product and one activation
call per group, with the bits of separate per-gate products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import NumericError, Rng, ShapeError

GATES = {"lstm": "ifog", "gru": "zrn"}
CELL_KINDS = tuple(GATES)


def tensor_shapes(kind: str, units: int, horizon: int) -> dict[str, tuple]:
    """Name -> shape of every tensor of a `kind` model: w_* (units,) input,
    u_* (units, units) recurrent and b_* (units,) gate by gate, then the
    head's w_out (horizon, units) and b_out (horizon,)."""
    if kind not in GATES:
        raise ValueError(f"unknown cell kind {kind!r}, expected one of {CELL_KINDS}")
    shapes = {f"{t}_{gate}": (units, units) if t == "u" else (units,)
              for gate in GATES[kind] for t in "wub"}
    shapes.update(w_out=(horizon, units), b_out=(horizon,))
    return shapes


def _check_sizes(units: int, window: int, horizon: int) -> None:
    if min(units, window, horizon) < 1:
        raise ValueError(
            f"units, window, horizon must be positive, got {units}, {window}, {horizon}")


@dataclass
class ModelState:
    """One recurrent cell plus head; `params` maps each name of
    `tensor_shapes` to its array, in that order whatever order it was given."""

    kind: str
    params: dict[str, np.ndarray]
    window: int

    def __post_init__(self):
        names = tensor_shapes(self.kind, 0, 0).keys()
        if self.params.keys() != names:
            raise ShapeError(
                f"{self.kind} model needs tensors {sorted(names)}, got {sorted(self.params)}")
        self.params = {name: self.params[name] for name in names}
        if self.params["w_out"].ndim != 2:
            raise ShapeError(f"tensor 'w_out' has shape {self.params['w_out'].shape}, "
                             f"expected (horizon, units)")
        _check_sizes(self.units, self.window, self.horizon)
        for name, shape in tensor_shapes(self.kind, self.units, self.horizon).items():
            if self.params[name].shape != shape:
                raise ShapeError(
                    f"tensor {name!r} has shape {self.params[name].shape}, expected "
                    f"{shape} for a {self.kind} with units={self.units}, "
                    f"horizon={self.horizon}")

    @property
    def units(self) -> int:
        return self.params["w_out"].shape[1]

    @property
    def horizon(self) -> int:
        return self.params["w_out"].shape[0]

    def tensors(self) -> dict[str, np.ndarray]:
        return self.params

    def forecast(self, inputs: np.ndarray) -> np.ndarray:
        """Predict (n, horizon) from a stack of windows (n, window)."""
        xs = np.asarray(inputs, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[1] != self.window:
            raise ShapeError(
                f"forecast: expected inputs of shape (n, {self.window}), got {xs.shape}")
        for step in _STEPS[self.kind](self.params, xs):
            h = step[-1]
            del step  # frees this step's gates while the next one is computed
        preds = h @ self.params["w_out"].T + self.params["b_out"]
        if not np.isfinite(preds).all():
            raise NumericError("forecast: non-finite prediction")
        return preds


def init_model(kind: str, units: int, window: int, horizon: int, rng: Rng) -> ModelState:
    """Fresh model: weights drawn in `tensor_shapes` order, uniform in
    [-1/sqrt(units), +1/sqrt(units)], w_* as (units, 1); biases zero."""
    shapes = tensor_shapes(kind, units, horizon)
    _check_sizes(units, window, horizon)
    scale = 1.0 / np.sqrt(units)
    params = {}
    for name, shape in shapes.items():
        if name.startswith("b_"):
            params[name] = np.zeros(shape)
        else:
            rows, cols = shape if len(shape) == 2 else (units, 1)
            params[name] = rng.uniform(-scale, scale, rows, cols).reshape(shape)
    return ModelState(kind, params, window)


# ---------------------------------------------------------------------------
# Step generators and BPTT. Shapes: xs (B, T); states (B, U); a gate group is
# one (G, B, U) block. `p` is the model's name -> array dict; `_pack` stacks
# its gate tensors per call, and `np.matmul` runs one GEMM per gate on the
# operands of a per-gate `h @ u.T`, which keeps every bit.
# ---------------------------------------------------------------------------

def _sigmoid(a: np.ndarray) -> np.ndarray:
    """a <- 1 / (1 + exp(-a)), in place, returning a: exactly 0.0, with no
    warning, where exp(-a) overflows."""
    with np.errstate(over="ignore"):
        np.exp(np.negative(a, out=a), out=a)
        a += 1.0
        return np.divide(1.0, a, out=a)


def _pack(p: dict, gates: str) -> tuple:
    """w (G, 1, U), u (G, U, U) and b (G, 1, U) of `gates`, stacked in that order."""
    w, u, b = (np.stack([p[f"{t}_{g}"] for g in gates]) for t in "wub")
    return w[:, None], u, b[:, None]


def _gate_block(h, u, x, w, b, xw) -> np.ndarray:
    """New (G, B, U) block h @ u.T + x * w + b; `xw` is a reused buffer for x * w."""
    a = np.matmul(h, u.transpose(0, 2, 1))
    a += np.multiply(x, w, out=xw)
    a += b
    return a


def _lstm_steps(p: dict, xs: np.ndarray):
    """Yield (gates, tanh_c, c, h) for each step, from zero state; gates is
    the (4, B, U) block of i, f, o, g. Every yielded array is new and never
    written again."""
    w, u, b = _pack(p, "ifog")
    xw = np.empty((4, len(xs), u.shape[1]))
    h = c = np.zeros(xw.shape[1:])
    for t in range(xs.shape[1]):
        s = _gate_block(h, u, xs[:, t:t + 1], w, b, xw)
        _sigmoid(s[:3])
        np.tanh(s[3], out=s[3])
        i, f, o, g = s
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        yield s, tc, c, h
        del s, tc, i, f, o, g  # frees this step's block while the next is computed


def _gru_steps(p: dict, xs: np.ndarray):
    """Yield (gates, n, rh, h) for each step, from zero state; gates is the
    (2, B, U) block of z, r, and rh = r_t * h_{t-1}. Every yielded array is
    new and never written again."""
    w, u, b = _pack(p, "zr")
    xw = np.empty((2, len(xs), u.shape[1]))
    h = np.zeros(xw.shape[1:])
    for t in range(xs.shape[1]):
        x = xs[:, t:t + 1]
        s = _gate_block(h, u, x, w, b, xw)
        z, r = _sigmoid(s)
        rh = r * h
        n = np.tanh(x * p["w_n"] + rh @ p["u_n"].T + p["b_n"])
        h = (1.0 - z) * n + z * h
        yield s, n, rh, h
        del s, z, r  # frees this step's block while the next is computed


_STEPS = {"lstm": _lstm_steps, "gru": _gru_steps}


def _grad_stacks(gates: str, B: int, U: int) -> tuple:
    """Zeroed dw (G, 1, U), du (G, U, U), db (G, U), a (G, B, U) buffer for
    one step's gate deltas, and the stacks' per-gate views by tensor name."""
    dw, du, db = (np.zeros((len(gates),) + shape) for shape in ((1, U), (U, U), (U,)))
    views = {f"{t}_{g}": a[k] for k, g in enumerate(gates)
             for t, a in zip("wub", (dw[:, 0], du, db))}
    return dw, du, db, np.empty((len(gates), B, U)), views


def _lstm_backward(p: dict, xs: np.ndarray, dh: np.ndarray, steps: list) -> dict:
    """BPTT gradients of dh (loss w.r.t. the final h), by tensor name."""
    u = _pack(p, "ifog")[1]
    dw, du, db, da, grads = _grad_stacks("ifog", *dh.shape)
    zero = np.zeros_like(dh)  # c_0 and h_0
    dc = np.zeros_like(dh)
    for t in range(xs.shape[1] - 1, -1, -1):
        s, tc, _, _ = steps[t]
        i, f, o, g = s
        c_prev, h_prev = steps[t - 1][2:] if t else (zero, zero)
        dc += dh * o * (1.0 - tc * tc)
        np.multiply(dc, g, out=da[0])
        np.multiply(dc, c_prev, out=da[1])
        np.multiply(dh, tc, out=da[2])
        da[:3] *= s[:3]
        da[:3] *= 1.0 - s[:3]
        np.multiply(dc, i, out=da[3])
        da[3] *= 1.0 - g * g
        du += np.matmul(da.transpose(0, 2, 1), h_prev)
        dw += np.matmul(xs[None, :, t], da)
        db += da.sum(axis=1)
        dh = np.matmul(da, u).sum(axis=0)
        dc *= f
    return grads


def _gru_backward(p: dict, xs: np.ndarray, dh: np.ndarray, steps: list) -> dict:
    """BPTT gradients of dh (loss w.r.t. the final h), by tensor name."""
    u = _pack(p, "zr")[1]
    dw, du, db, da, grads = _grad_stacks("zrn", *dh.shape)
    zero = np.zeros_like(dh)  # h_0
    for t in range(xs.shape[1] - 1, -1, -1):
        s, n, rh, _ = steps[t]
        z, r = s
        h_prev = steps[t - 1][-1] if t else zero
        np.multiply(dh, 1.0 - z, out=da[2])
        da[2] *= 1.0 - n * n
        drh = da[2] @ p["u_n"]
        np.multiply(dh, h_prev - n, out=da[0])
        np.multiply(drh, h_prev, out=da[1])
        da[:2] *= s
        da[:2] *= 1.0 - s
        du[:2] += np.matmul(da[:2].transpose(0, 2, 1), h_prev)
        du[2] += da[2].T @ rh  # n acts on r * h
        dw += np.matmul(xs[None, :, t], da)
        db += da.sum(axis=1)
        dh_zr = np.matmul(da[:2], u)
        dh = dh * z + drh * r + dh_zr[0] + dh_zr[1]
    return grads


_BACKWARDS = {"lstm": _lstm_backward, "gru": _gru_backward}


def backward_batch(state: ModelState, inputs: np.ndarray,
                   targets: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
    """(loss, grads) for a stack of windows: the batch mean of per-sample
    (1/horizon) * sum(squared error), and a new dict under `state.params`'
    names holding the exact mean of per-sample gradients."""
    xs = np.asarray(inputs, dtype=np.float64)
    ys = np.asarray(targets, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != state.window:
        raise ShapeError(
            f"backward: expected inputs of shape (n, {state.window}), got {xs.shape}")
    if ys.ndim != 2 or ys.shape != (xs.shape[0], state.horizon):
        raise ShapeError(
            f"backward: expected targets of shape ({xs.shape[0]}, {state.horizon}), "
            f"got {ys.shape}")
    if xs.shape[0] < 1:
        raise ShapeError("backward: empty batch")

    B, F, p = xs.shape[0], state.horizon, state.params
    steps = list(_STEPS[state.kind](p, xs))
    h_last = steps[-1][-1]  # (B, U)

    with np.errstate(over="ignore"):
        preds = h_last @ p["w_out"].T + p["b_out"]  # (B, F)
        err = preds - ys
        loss = float((err * err).sum() / (F * B))
    if not np.isfinite(loss):
        raise NumericError("backward: non-finite loss")

    dpred = (2.0 / (F * B)) * err                # (B, F)
    dh = dpred @ p["w_out"]                      # (B, U)
    grads = _BACKWARDS[state.kind](p, xs, dh, steps)
    grads["w_out"] = dpred.T @ h_last            # (F, U)
    grads["b_out"] = dpred.sum(axis=0)           # (F,)
    return loss, grads

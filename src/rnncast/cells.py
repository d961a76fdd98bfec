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

Head: prediction = weight @ h_last + bias, linear (forecasts live in
normalized space but are never clamped).

The API is batched only: `ModelState.forecast` and `backward_batch` take a
stack of windows, shape (batch, window), and a single window is the batch
of one, `window[None, :]`. A model's parameters are one dict from tensor
name (w_i, u_i, b_i, ..., w_out, b_out) to array, as `tensor_shapes`
declares them; checkpoints, Adam and the cells all read that dict, and
`backward_batch` returns the gradients as a new dict under the same names.
Gradients are exact means of per-sample gradients. The loss is MSE
averaged over horizon steps, matching the gradient of
(1/horizon) * sum((pred - target)^2) per sample. Each cell's
equations exist once, in a step generator that serves both `forecast` and
training, and once more, differentiated, in its backward pass, which reads
the arrays that generator yielded for each step, uncopied.
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
    shapes = {}
    for gate in GATES[kind]:
        shapes.update({f"w_{gate}": (units,), f"u_{gate}": (units, units),
                       f"b_{gate}": (units,)})
    shapes.update(w_out=(horizon, units), b_out=(horizon,))
    return shapes


def _check_sizes(units: int, window: int, horizon: int) -> None:
    if min(units, window, horizon) < 1:
        raise ValueError(
            f"units, window, horizon must be positive, got {units}, {window}, {horizon}")


@dataclass
class ModelState:
    """One recurrent cell plus head; `params` maps each name of
    `tensor_shapes` to its array, in that order."""

    kind: str
    params: dict[str, np.ndarray]
    window: int

    def __post_init__(self):
        names = tensor_shapes(self.kind, 0, 0).keys()
        if self.params.keys() != names:
            raise ShapeError(
                f"{self.kind} model needs tensors {sorted(names)}, got {sorted(self.params)}")
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
# Step generators and BPTT. Shapes: xs (B, T); gates and states (B, U) per
# step; `p` is the model's name -> array dict. One step generator per cell
# serves both `forecast`, which keeps only the last h, and training, whose
# backward reads every step's tuple and adds into the gradient dict.
# ---------------------------------------------------------------------------

def _sigmoid(a: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-a)): exactly 0.0, with no warning, where exp(-a) overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-a))


def _lstm_steps(p: dict, xs: np.ndarray):
    """Yield (i, f, o, g, tanh_c, c, h) for each step, from zero state; every
    yielded array is new and never written again."""
    B, T = xs.shape
    h = np.zeros((B, p["u_i"].shape[0]))
    c = np.zeros((B, p["u_i"].shape[0]))
    for t in range(T):
        x = xs[:, t:t + 1]
        i = _sigmoid(x * p["w_i"] + h @ p["u_i"].T + p["b_i"])
        f = _sigmoid(x * p["w_f"] + h @ p["u_f"].T + p["b_f"])
        o = _sigmoid(x * p["w_o"] + h @ p["u_o"].T + p["b_o"])
        g = np.tanh(x * p["w_g"] + h @ p["u_g"].T + p["b_g"])
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        yield i, f, o, g, tc, c, h
        del tc  # frees tanh(c) while the next step is computed


def _gru_steps(p: dict, xs: np.ndarray):
    """Yield (z, r, n, rh, h) for each step, from zero state; rh = r_t * h_{t-1}.
    Every yielded array is new and never written again."""
    B, T = xs.shape
    h = np.zeros((B, p["u_z"].shape[0]))
    for t in range(T):
        x = xs[:, t:t + 1]
        z = _sigmoid(x * p["w_z"] + h @ p["u_z"].T + p["b_z"])
        r = _sigmoid(x * p["w_r"] + h @ p["u_r"].T + p["b_r"])
        rh = r * h
        n = np.tanh(x * p["w_n"] + rh @ p["u_n"].T + p["b_n"])
        h = (1.0 - z) * n + z * h
        yield z, r, n, rh, h


_STEPS = {"lstm": _lstm_steps, "gru": _gru_steps}


def _gate_grads(kind: str, grads: dict) -> list[tuple]:
    """(dw, du, db) of each gate of `kind`, in `GATES` order."""
    return [(grads[f"w_{g}"], grads[f"u_{g}"], grads[f"b_{g}"]) for g in GATES[kind]]


def _lstm_backward(p: dict, grads: dict, xs: np.ndarray, dh: np.ndarray,
                   steps: list) -> None:
    """Add the BPTT gradients of dh (loss w.r.t. the final h) into `grads`."""
    gates = _gate_grads("lstm", grads)
    zero = np.zeros_like(dh)  # c_0 and h_0
    dc = np.zeros_like(dh)
    for t in range(xs.shape[1] - 1, -1, -1):
        i, f, o, g, tc, _, _ = steps[t]
        c_prev, h_prev = steps[t - 1][5:] if t else (zero, zero)
        x = xs[:, t]

        dc = dc + dh * o * (1.0 - tc * tc)
        da_i = dc * g * i * (1.0 - i)
        da_f = dc * c_prev * f * (1.0 - f)
        da_o = dh * tc * o * (1.0 - o)
        da_g = dc * i * (1.0 - g * g)
        for (dw, du, db), da in zip(gates, (da_i, da_f, da_o, da_g)):
            dw += x @ da
            du += da.T @ h_prev
            db += da.sum(axis=0)

        dh = da_i @ p["u_i"] + da_f @ p["u_f"] + da_o @ p["u_o"] + da_g @ p["u_g"]
        dc = dc * f


def _gru_backward(p: dict, grads: dict, xs: np.ndarray, dh: np.ndarray,
                  steps: list) -> None:
    """Add the BPTT gradients of dh (loss w.r.t. the final h) into `grads`."""
    gates = _gate_grads("gru", grads)
    zero = np.zeros_like(dh)  # h_0
    for t in range(xs.shape[1] - 1, -1, -1):
        z, r, n, rh, _ = steps[t]
        h_prev = steps[t - 1][-1] if t else zero
        x = xs[:, t]

        da_n = dh * (1.0 - z) * (1.0 - n * n)
        drh = da_n @ p["u_n"]
        da_z = dh * (h_prev - n) * z * (1.0 - z)
        da_r = drh * h_prev * r * (1.0 - r)
        for (dw, du, db), da, h_in in zip(gates, (da_z, da_r, da_n), (h_prev, h_prev, rh)):
            dw += x @ da
            du += da.T @ h_in
            db += da.sum(axis=0)

        dh = dh * z + drh * r + da_z @ p["u_z"] + da_r @ p["u_r"]


_BACKWARDS = {"lstm": _lstm_backward, "gru": _gru_backward}


def backward_batch(state: ModelState, inputs: np.ndarray,
                   targets: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
    """MSE loss and gradients for a stack of windows.

    Loss is the batch mean of per-sample (1/horizon) * sum(squared error).
    Returns (loss, grads): `grads` is a new dict under `state.params`' names
    holding the exact mean of per-sample gradients.
    """
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

    B = xs.shape[0]
    F = state.horizon
    p = state.params

    steps = list(_STEPS[state.kind](p, xs))
    h_last = steps[-1][-1]  # (B, U)

    with np.errstate(over="ignore"):
        preds = h_last @ p["w_out"].T + p["b_out"]  # (B, F)
        err = preds - ys
        loss = float((err * err).sum() / (F * B))
    if not np.isfinite(loss):
        raise NumericError("backward: non-finite loss")

    grads = {name: np.zeros_like(a) for name, a in p.items()}
    dpred = (2.0 / (F * B)) * err                # (B, F)
    grads["w_out"] = dpred.T @ h_last            # (F, U)
    grads["b_out"] = dpred.sum(axis=0)           # (F,)
    dh = dpred @ p["w_out"]                      # (B, U)
    _BACKWARDS[state.kind](p, grads, xs, dh, steps)
    return loss, grads

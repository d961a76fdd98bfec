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

The batched internals carry a whole stack of windows at once, shape
(batch, window); gradients are exact means of per-sample gradients. The
loss is MSE averaged over horizon steps, matching the gradient of
(1/horizon) * sum((pred - target)^2) per sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .numkit import NumericError, Rng, ShapeError

CELL_KINDS = ("lstm", "gru")


@dataclass
class LstmParams:
    """Per-gate weights: w_* (units,) input, u_* (units, units) recurrent, b_* (units,)."""

    w_i: np.ndarray
    u_i: np.ndarray
    b_i: np.ndarray
    w_f: np.ndarray
    u_f: np.ndarray
    b_f: np.ndarray
    w_o: np.ndarray
    u_o: np.ndarray
    b_o: np.ndarray
    w_g: np.ndarray
    u_g: np.ndarray
    b_g: np.ndarray

    @property
    def units(self) -> int:
        return self.b_i.shape[0]

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in
                ("w_i", "u_i", "b_i", "w_f", "u_f", "b_f",
                 "w_o", "u_o", "b_o", "w_g", "u_g", "b_g")}


@dataclass
class GruParams:
    """Per-gate weights: w_* (units,) input, u_* (units, units) recurrent, b_* (units,)."""

    w_z: np.ndarray
    u_z: np.ndarray
    b_z: np.ndarray
    w_r: np.ndarray
    u_r: np.ndarray
    b_r: np.ndarray
    w_n: np.ndarray
    u_n: np.ndarray
    b_n: np.ndarray

    @property
    def units(self) -> int:
        return self.b_z.shape[0]

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in
                ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_n", "u_n", "b_n")}


@dataclass
class DenseParams:
    """Linear head: weight (horizon, units), bias (horizon,)."""

    weight: np.ndarray
    bias: np.ndarray

    @property
    def horizon(self) -> int:
        return self.bias.shape[0]

    def tensors(self) -> dict[str, np.ndarray]:
        return {"w_out": self.weight, "b_out": self.bias}


def _zeros_like_params(params):
    cls = type(params)
    return cls(**{f: np.zeros_like(getattr(params, f))
                  for f in params.__dataclass_fields__})


def init_lstm(units: int, rng: Rng) -> LstmParams:
    scale = 1.0 / np.sqrt(units)
    def w():
        return rng.uniform(-scale, scale, units, 1).ravel()
    def u():
        return rng.uniform(-scale, scale, units, units)
    def b():
        return np.zeros(units)
    return LstmParams(w(), u(), b(), w(), u(), b(), w(), u(), b(), w(), u(), b())


def init_gru(units: int, rng: Rng) -> GruParams:
    scale = 1.0 / np.sqrt(units)
    def w():
        return rng.uniform(-scale, scale, units, 1).ravel()
    def u():
        return rng.uniform(-scale, scale, units, units)
    def b():
        return np.zeros(units)
    return GruParams(w(), u(), b(), w(), u(), b(), w(), u(), b())


def init_dense(units: int, horizon: int, rng: Rng) -> DenseParams:
    scale = 1.0 / np.sqrt(units)
    return DenseParams(rng.uniform(-scale, scale, horizon, units), np.zeros(horizon))


def tensor_shapes(kind: str, units: int, horizon: int) -> dict[str, tuple]:
    """Name -> shape of every tensor of a `kind` model, cell then head."""
    params = LstmParams if kind == "lstm" else GruParams
    shapes = {name: (units, units) if name.startswith("u_") else (units,)
              for name in params.__dataclass_fields__}
    shapes.update(w_out=(horizon, units), b_out=(horizon,))
    return shapes


@dataclass
class ModelState:
    """One recurrent cell plus head, with gradient buffers mirroring every shape."""

    kind: str
    cell: LstmParams | GruParams
    head: DenseParams
    units: int
    window: int
    horizon: int
    cell_grads: LstmParams | GruParams = field(repr=False, default=None)
    head_grads: DenseParams = field(repr=False, default=None)

    def __post_init__(self):
        if self.kind not in CELL_KINDS:
            raise ValueError(f"unknown cell kind {self.kind!r}, expected one of {CELL_KINDS}")
        if min(self.units, self.window, self.horizon) < 1:
            raise ValueError(
                f"units, window, horizon must be positive, got {self.units}, "
                f"{self.window}, {self.horizon}")
        expected = tensor_shapes(self.kind, self.units, self.horizon)
        tensors = self.tensors()
        if tensors.keys() != expected.keys():
            raise ShapeError(
                f"{self.kind} model needs tensors {sorted(expected)}, got {sorted(tensors)}")
        for name, shape in expected.items():
            if tensors[name].shape != shape:
                raise ShapeError(
                    f"tensor {name!r} has shape {tensors[name].shape}, expected "
                    f"{shape} for a {self.kind} with units={self.units}, "
                    f"horizon={self.horizon}")
        if self.cell_grads is None:
            self.cell_grads = _zeros_like_params(self.cell)
        if self.head_grads is None:
            self.head_grads = _zeros_like_params(self.head)

    def tensors(self) -> dict[str, np.ndarray]:
        return {**self.cell.tensors(), **self.head.tensors()}

    def grad_tensors(self) -> dict[str, np.ndarray]:
        return {**self.cell_grads.tensors(), **self.head_grads.tensors()}

    def zero_grads(self) -> None:
        for g in self.grad_tensors().values():
            g[...] = 0.0

    def forecast(self, inputs: np.ndarray) -> np.ndarray:
        """Predict (n, horizon) from a stack of windows (n, window)."""
        xs = np.asarray(inputs, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[1] != self.window:
            raise ShapeError(
                f"forecast: expected inputs of shape (n, {self.window}), got {xs.shape}")
        if self.kind == "lstm":
            h, _ = _lstm_run(self.cell, xs)
        else:
            h = _gru_run(self.cell, xs)
        preds = h @ self.head.weight.T + self.head.bias
        if not np.isfinite(preds).all():
            raise NumericError("forecast: non-finite prediction")
        return preds


def init_model(kind: str, units: int, window: int, horizon: int, rng: Rng) -> ModelState:
    """Fresh model: weights uniform in [-1/sqrt(units), +1/sqrt(units)], biases zero."""
    if kind not in CELL_KINDS:
        raise ValueError(f"unknown cell kind {kind!r}, expected one of {CELL_KINDS}")
    if min(units, window, horizon) < 1:
        raise ValueError(
            f"units, window, horizon must be positive, got {units}, {window}, {horizon}")
    cell = init_lstm(units, rng) if kind == "lstm" else init_gru(units, rng)
    head = init_dense(units, horizon, rng)
    return ModelState(kind=kind, cell=cell, head=head,
                      units=units, window=window, horizon=horizon)


def _as_window_batch(window) -> np.ndarray:
    xs = np.asarray(window, dtype=np.float64)
    if xs.ndim != 1 or xs.shape[0] < 1:
        raise ShapeError(f"window must be a non-empty 1-D sequence, got shape {xs.shape}")
    if not np.isfinite(xs).all():
        raise NumericError("window contains non-finite values")
    return xs[None, :]


@dataclass
class LstmTrace:
    """Per-step activations of one window, needed by the backward pass."""

    hidden: np.ndarray  # (w, units): h_1 .. h_w
    cell: np.ndarray    # (w, units): c_1 .. c_w

    @property
    def final_hidden(self) -> np.ndarray:
        return self.hidden[-1]


@dataclass
class GruTrace:
    hidden: np.ndarray  # (w, units): h_1 .. h_w

    @property
    def final_hidden(self) -> np.ndarray:
        return self.hidden[-1]


def lstm_forward(params: LstmParams, window) -> LstmTrace:
    """Run one window through the LSTM from zero state, keeping full traces."""
    xs = _as_window_batch(window)
    tr = _lstm_forward_traced(params, xs)
    return LstmTrace(hidden=tr["h"][1:, 0, :].copy(), cell=tr["c"][1:, 0, :].copy())


def gru_forward(params: GruParams, window) -> GruTrace:
    """Run one window through the GRU from zero state, keeping full traces."""
    xs = _as_window_batch(window)
    tr = _gru_forward_traced(params, xs)
    return GruTrace(hidden=tr["h"][1:, 0, :].copy())


def dense_forward(head: DenseParams, hidden) -> np.ndarray:
    """Linear map weight @ hidden + bias; no activation."""
    h = np.asarray(hidden, dtype=np.float64)
    if h.ndim != 1 or h.shape[0] != head.weight.shape[1]:
        raise ShapeError(
            f"dense_forward: expected hidden of shape ({head.weight.shape[1]},), got {h.shape}")
    out = head.weight @ h + head.bias
    if not np.isfinite(out).all():
        raise NumericError("dense_forward: non-finite output")
    return out


# ---------------------------------------------------------------------------
# Batched internals. Shapes: xs (B, T); gates and states (B, U) per step,
# stacked to (T, B, U) in the traces. The public single-window ops above are
# the B=1 case of these.
# ---------------------------------------------------------------------------

def _lstm_run(params: LstmParams, xs: np.ndarray):
    """Forward without traces; returns (final hidden (B, U), final cell)."""
    B, T = xs.shape
    U = params.units
    h = np.zeros((B, U))
    c = np.zeros((B, U))
    for t in range(T):
        x = xs[:, t:t + 1]
        i = expit(x * params.w_i + h @ params.u_i.T + params.b_i)
        f = expit(x * params.w_f + h @ params.u_f.T + params.b_f)
        o = expit(x * params.w_o + h @ params.u_o.T + params.b_o)
        g = np.tanh(x * params.w_g + h @ params.u_g.T + params.b_g)
        c = f * c + i * g
        h = o * np.tanh(c)
    return h, c


def _gru_run(params: GruParams, xs: np.ndarray):
    B, T = xs.shape
    U = params.units
    h = np.zeros((B, U))
    for t in range(T):
        x = xs[:, t:t + 1]
        z = expit(x * params.w_z + h @ params.u_z.T + params.b_z)
        r = expit(x * params.w_r + h @ params.u_r.T + params.b_r)
        n = np.tanh(x * params.w_n + (r * h) @ params.u_n.T + params.b_n)
        h = (1.0 - z) * n + z * h
    return h


def _lstm_forward_traced(params: LstmParams, xs: np.ndarray) -> dict:
    B, T = xs.shape
    U = params.units
    h = np.zeros((T + 1, B, U))
    c = np.zeros((T + 1, B, U))
    gi = np.empty((T, B, U))
    gf = np.empty((T, B, U))
    go = np.empty((T, B, U))
    gg = np.empty((T, B, U))
    tc = np.empty((T, B, U))
    for t in range(T):
        x = xs[:, t:t + 1]
        hp = h[t]
        gi[t] = expit(x * params.w_i + hp @ params.u_i.T + params.b_i)
        gf[t] = expit(x * params.w_f + hp @ params.u_f.T + params.b_f)
        go[t] = expit(x * params.w_o + hp @ params.u_o.T + params.b_o)
        gg[t] = np.tanh(x * params.w_g + hp @ params.u_g.T + params.b_g)
        c[t + 1] = gf[t] * c[t] + gi[t] * gg[t]
        tc[t] = np.tanh(c[t + 1])
        h[t + 1] = go[t] * tc[t]
    return {"h": h, "c": c, "i": gi, "f": gf, "o": go, "g": gg, "tanh_c": tc}


def _gru_forward_traced(params: GruParams, xs: np.ndarray) -> dict:
    B, T = xs.shape
    U = params.units
    h = np.zeros((T + 1, B, U))
    gz = np.empty((T, B, U))
    gr = np.empty((T, B, U))
    gn = np.empty((T, B, U))
    rh = np.empty((T, B, U))  # r_t * h_{t-1}, reused by the u_n gradient
    for t in range(T):
        x = xs[:, t:t + 1]
        hp = h[t]
        gz[t] = expit(x * params.w_z + hp @ params.u_z.T + params.b_z)
        gr[t] = expit(x * params.w_r + hp @ params.u_r.T + params.b_r)
        rh[t] = gr[t] * hp
        gn[t] = np.tanh(x * params.w_n + rh[t] @ params.u_n.T + params.b_n)
        h[t + 1] = (1.0 - gz[t]) * gn[t] + gz[t] * hp
    return {"h": h, "z": gz, "r": gr, "n": gn, "rh": rh}


def _lstm_backward_batch(params: LstmParams, grads: LstmParams,
                         xs: np.ndarray, dh: np.ndarray, tr: dict,
                         accumulate: bool) -> None:
    T = xs.shape[1]
    dw_i = np.zeros_like(params.w_i)
    du_i = np.zeros_like(params.u_i)
    db_i = np.zeros_like(params.b_i)
    dw_f = np.zeros_like(params.w_f)
    du_f = np.zeros_like(params.u_f)
    db_f = np.zeros_like(params.b_f)
    dw_o = np.zeros_like(params.w_o)
    du_o = np.zeros_like(params.u_o)
    db_o = np.zeros_like(params.b_o)
    dw_g = np.zeros_like(params.w_g)
    du_g = np.zeros_like(params.u_g)
    db_g = np.zeros_like(params.b_g)

    dc = np.zeros_like(dh)
    for t in range(T - 1, -1, -1):
        i, f, o, g = tr["i"][t], tr["f"][t], tr["o"][t], tr["g"][t]
        tc = tr["tanh_c"][t]
        h_prev = tr["h"][t]
        c_prev = tr["c"][t]
        x = xs[:, t]

        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        di = dc * g
        dg = dc * i
        df = dc * c_prev

        da_i = di * i * (1.0 - i)
        da_f = df * f * (1.0 - f)
        da_o = do * o * (1.0 - o)
        da_g = dg * (1.0 - g * g)

        dw_i += x @ da_i
        du_i += da_i.T @ h_prev
        db_i += da_i.sum(axis=0)
        dw_f += x @ da_f
        du_f += da_f.T @ h_prev
        db_f += da_f.sum(axis=0)
        dw_o += x @ da_o
        du_o += da_o.T @ h_prev
        db_o += da_o.sum(axis=0)
        dw_g += x @ da_g
        du_g += da_g.T @ h_prev
        db_g += da_g.sum(axis=0)

        dh = da_i @ params.u_i + da_f @ params.u_f + da_o @ params.u_o + da_g @ params.u_g
        dc = dc * f

    for dst, src in ((grads.w_i, dw_i), (grads.u_i, du_i), (grads.b_i, db_i),
                     (grads.w_f, dw_f), (grads.u_f, du_f), (grads.b_f, db_f),
                     (grads.w_o, dw_o), (grads.u_o, du_o), (grads.b_o, db_o),
                     (grads.w_g, dw_g), (grads.u_g, du_g), (grads.b_g, db_g)):
        if accumulate:
            dst += src
        else:
            np.copyto(dst, src)


def _gru_backward_batch(params: GruParams, grads: GruParams,
                        xs: np.ndarray, dh: np.ndarray, tr: dict,
                        accumulate: bool) -> None:
    T = xs.shape[1]
    dw_z = np.zeros_like(params.w_z)
    du_z = np.zeros_like(params.u_z)
    db_z = np.zeros_like(params.b_z)
    dw_r = np.zeros_like(params.w_r)
    du_r = np.zeros_like(params.u_r)
    db_r = np.zeros_like(params.b_r)
    dw_n = np.zeros_like(params.w_n)
    du_n = np.zeros_like(params.u_n)
    db_n = np.zeros_like(params.b_n)

    for t in range(T - 1, -1, -1):
        z, r, n, rh = tr["z"][t], tr["r"][t], tr["n"][t], tr["rh"][t]
        h_prev = tr["h"][t]
        x = xs[:, t]

        dz = dh * (h_prev - n)
        dn = dh * (1.0 - z)
        dh_prev = dh * z

        da_n = dn * (1.0 - n * n)
        dw_n += x @ da_n
        du_n += da_n.T @ rh
        db_n += da_n.sum(axis=0)

        drh = da_n @ params.u_n
        dr = drh * h_prev
        dh_prev = dh_prev + drh * r

        da_z = dz * z * (1.0 - z)
        dw_z += x @ da_z
        du_z += da_z.T @ h_prev
        db_z += da_z.sum(axis=0)
        dh_prev = dh_prev + da_z @ params.u_z

        da_r = dr * r * (1.0 - r)
        dw_r += x @ da_r
        du_r += da_r.T @ h_prev
        db_r += da_r.sum(axis=0)
        dh_prev = dh_prev + da_r @ params.u_r

        dh = dh_prev

    for dst, src in ((grads.w_z, dw_z), (grads.u_z, du_z), (grads.b_z, db_z),
                     (grads.w_r, dw_r), (grads.u_r, du_r), (grads.b_r, db_r),
                     (grads.w_n, dw_n), (grads.u_n, du_n), (grads.b_n, db_n)):
        if accumulate:
            dst += src
        else:
            np.copyto(dst, src)


def backward_batch(state: ModelState, inputs: np.ndarray, targets: np.ndarray,
                   accumulate: bool = False) -> float:
    """MSE loss and gradients for a stack of windows.

    Loss is the batch mean of per-sample (1/horizon) * sum(squared error);
    gradient buffers receive the exact mean of per-sample gradients.
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

    if state.kind == "lstm":
        tr = _lstm_forward_traced(state.cell, xs)
    else:
        tr = _gru_forward_traced(state.cell, xs)
    h_last = tr["h"][-1]  # (B, U)

    with np.errstate(over="ignore"):
        preds = h_last @ state.head.weight.T + state.head.bias  # (B, F)
        err = preds - ys
        loss = float((err * err).sum() / (F * B))
    if not np.isfinite(loss):
        raise NumericError("backward: non-finite loss")

    dpred = (2.0 / (F * B)) * err            # (B, F)
    dw_out = dpred.T @ h_last                # (F, U)
    db_out = dpred.sum(axis=0)               # (F,)
    dh = dpred @ state.head.weight           # (B, U)

    if accumulate:
        state.head_grads.weight += dw_out
        state.head_grads.bias += db_out
    else:
        np.copyto(state.head_grads.weight, dw_out)
        np.copyto(state.head_grads.bias, db_out)

    if state.kind == "lstm":
        _lstm_backward_batch(state.cell, state.cell_grads, xs, dh, tr, accumulate)
    else:
        _gru_backward_batch(state.cell, state.cell_grads, xs, dh, tr, accumulate)
    return loss


def backward(state: ModelState, window, target, accumulate: bool = False) -> float:
    """Loss and gradients for a single (window, target) sample."""
    xs = np.asarray(window, dtype=np.float64)
    ys = np.asarray(target, dtype=np.float64)
    if xs.ndim != 1 or xs.shape[0] != state.window:
        raise ShapeError(f"backward: expected window of length {state.window}, got shape {xs.shape}")
    if ys.ndim != 1 or ys.shape[0] != state.horizon:
        raise ShapeError(f"backward: expected target of length {state.horizon}, got shape {ys.shape}")
    return backward_batch(state, xs[None, :], ys[None, :], accumulate=accumulate)

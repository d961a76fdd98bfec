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
of one, `window[None, :]`. Gradients are exact means of per-sample
gradients. The loss is MSE averaged over horizon steps, matching the
gradient of (1/horizon) * sum((pred - target)^2) per sample. Each cell's
equations exist once, in a step generator that serves both `forecast` and
training, and once more, differentiated, in its backward pass, which reads
the arrays that generator yielded for each step, uncopied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numkit import NumericError, Rng, ShapeError


class _GateParams:
    """Per-gate weights: w_* (units,) input, u_* (units, units) recurrent,
    b_* (units,); fields run gate by gate, (w, u, b) for each."""

    @property
    def units(self) -> int:
        return next(iter(self.tensors().values())).shape[0]

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def gates(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(w, u, b) of each gate, in field order."""
        ts = list(self.tensors().values())
        return [tuple(ts[k:k + 3]) for k in range(0, len(ts), 3)]


@dataclass
class LstmParams(_GateParams):
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


@dataclass
class GruParams(_GateParams):
    w_z: np.ndarray
    u_z: np.ndarray
    b_z: np.ndarray
    w_r: np.ndarray
    u_r: np.ndarray
    b_r: np.ndarray
    w_n: np.ndarray
    u_n: np.ndarray
    b_n: np.ndarray


CELL_PARAMS = {"lstm": LstmParams, "gru": GruParams}
CELL_KINDS = tuple(CELL_PARAMS)


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


def init_cell(kind: str, units: int, rng: Rng) -> LstmParams | GruParams:
    """w_* and u_* drawn in field order, uniform in [-1/sqrt(units), +1/sqrt(units)]; b_* zero."""
    scale = 1.0 / np.sqrt(units)
    draw = {"w": lambda: rng.uniform(-scale, scale, units, 1).ravel(),
            "u": lambda: rng.uniform(-scale, scale, units, units),
            "b": lambda: np.zeros(units)}
    params = CELL_PARAMS[kind]
    return params(**{name: draw[name[0]]() for name in params.__dataclass_fields__})


def init_dense(units: int, horizon: int, rng: Rng) -> DenseParams:
    scale = 1.0 / np.sqrt(units)
    return DenseParams(rng.uniform(-scale, scale, horizon, units), np.zeros(horizon))


def tensor_shapes(kind: str, units: int, horizon: int) -> dict[str, tuple]:
    """Name -> shape of every tensor of a `kind` model, cell then head."""
    shapes = {name: (units, units) if name.startswith("u_") else (units,)
              for name in CELL_PARAMS[kind].__dataclass_fields__}
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
        for step in _STEPS[self.kind](self.cell, xs):
            h = step[-1]
            del step  # frees this step's gates while the next one is computed
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
    cell = init_cell(kind, units, rng)
    head = init_dense(units, horizon, rng)
    return ModelState(kind=kind, cell=cell, head=head,
                      units=units, window=window, horizon=horizon)


# ---------------------------------------------------------------------------
# Step generators and BPTT. Shapes: xs (B, T); gates and states (B, U) per
# step. One step generator per cell serves both `forecast`, which keeps
# only the last h, and training, whose backward reads every step's tuple.
# ---------------------------------------------------------------------------

def _sigmoid(a: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-a)): exactly 0.0, with no warning, where exp(-a) overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-a))


def _lstm_steps(params: LstmParams, xs: np.ndarray):
    """Yield (i, f, o, g, tanh_c, c, h) for each step, from zero state; every
    yielded array is new and never written again."""
    B, T = xs.shape
    h = np.zeros((B, params.units))
    c = np.zeros((B, params.units))
    for t in range(T):
        x = xs[:, t:t + 1]
        i = _sigmoid(x * params.w_i + h @ params.u_i.T + params.b_i)
        f = _sigmoid(x * params.w_f + h @ params.u_f.T + params.b_f)
        o = _sigmoid(x * params.w_o + h @ params.u_o.T + params.b_o)
        g = np.tanh(x * params.w_g + h @ params.u_g.T + params.b_g)
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        yield i, f, o, g, tc, c, h
        del tc  # frees tanh(c) while the next step is computed


def _gru_steps(params: GruParams, xs: np.ndarray):
    """Yield (z, r, n, rh, h) for each step, from zero state; rh = r_t * h_{t-1}.
    Every yielded array is new and never written again."""
    B, T = xs.shape
    h = np.zeros((B, params.units))
    for t in range(T):
        x = xs[:, t:t + 1]
        z = _sigmoid(x * params.w_z + h @ params.u_z.T + params.b_z)
        r = _sigmoid(x * params.w_r + h @ params.u_r.T + params.b_r)
        rh = r * h
        n = np.tanh(x * params.w_n + rh @ params.u_n.T + params.b_n)
        h = (1.0 - z) * n + z * h
        yield z, r, n, rh, h


_STEPS = {"lstm": _lstm_steps, "gru": _gru_steps}


def _lstm_backward(params: LstmParams, grads: LstmParams,
                   xs: np.ndarray, dh: np.ndarray, steps: list) -> None:
    """Add the BPTT gradients of dh (loss w.r.t. the final h) into `grads`."""
    gates = grads.gates()
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

        dh = da_i @ params.u_i + da_f @ params.u_f + da_o @ params.u_o + da_g @ params.u_g
        dc = dc * f


def _gru_backward(params: GruParams, grads: GruParams,
                  xs: np.ndarray, dh: np.ndarray, steps: list) -> None:
    """Add the BPTT gradients of dh (loss w.r.t. the final h) into `grads`."""
    gates = grads.gates()
    zero = np.zeros_like(dh)  # h_0
    for t in range(xs.shape[1] - 1, -1, -1):
        z, r, n, rh, _ = steps[t]
        h_prev = steps[t - 1][-1] if t else zero
        x = xs[:, t]

        da_n = dh * (1.0 - z) * (1.0 - n * n)
        drh = da_n @ params.u_n
        da_z = dh * (h_prev - n) * z * (1.0 - z)
        da_r = drh * h_prev * r * (1.0 - r)
        for (dw, du, db), da, h_in in zip(gates, (da_z, da_r, da_n), (h_prev, h_prev, rh)):
            dw += x @ da
            du += da.T @ h_in
            db += da.sum(axis=0)

        dh = dh * z + drh * r + da_z @ params.u_z + da_r @ params.u_r


_BACKWARDS = {"lstm": _lstm_backward, "gru": _gru_backward}


def backward_batch(state: ModelState, inputs: np.ndarray, targets: np.ndarray) -> float:
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

    steps = list(_STEPS[state.kind](state.cell, xs))
    h_last = steps[-1][-1]  # (B, U)

    with np.errstate(over="ignore"):
        preds = h_last @ state.head.weight.T + state.head.bias  # (B, F)
        err = preds - ys
        loss = float((err * err).sum() / (F * B))
    if not np.isfinite(loss):
        raise NumericError("backward: non-finite loss")

    state.zero_grads()
    dpred = (2.0 / (F * B)) * err                           # (B, F)
    np.copyto(state.head_grads.weight, dpred.T @ h_last)    # (F, U)
    np.copyto(state.head_grads.bias, dpred.sum(axis=0))     # (F,)
    dh = dpred @ state.head.weight                          # (B, U)
    _BACKWARDS[state.kind](state.cell, state.cell_grads, xs, dh, steps)
    return loss


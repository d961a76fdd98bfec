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
once in a step function serving both, and once more, differentiated, in its
backward pass, which reads the step's arrays uncopied. Both stack a gate
group's tensors gate-major: one product and one activation call per group,
with the bits of separate per-gate products. Both run one step loop in
blocks of steps: x * w, the backward's activation factors and the dw, db
terms take one call per block, in the step loop's order, so no bit changes.
The sigmoid gates' w, u and b are negated once per batch, which negates
their pre-activations exactly, so their sigmoid is exp, +1 and a divide. A
model keeps the arrays of one shape table, `_layout`, for the next batch of
its shape: training keeps every step, forecasting reuses k + 1 state slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    _storage: _Storage | None = field(default=None, init=False, repr=False, compare=False)

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
        h = _forward(self, xs, train=False).last
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


# The forward and BPTT. Shapes: xs (B, T); states (B, U); a gate group is one
# (G, B, U) block, whose `np.matmul` runs one GEMM per gate, as `h @ u.T` would.

BLOCK_BYTES = 1 << 20  # a block: as many steps as fit a (k, G, B, U) array


def _layout(kind: str, B: int, U: int, T: int, train: bool) -> dict[str, tuple]:
    """Name -> shape of each array a model's storage owns for batches (B, T) in
    blocks of k steps, with S step slots: training's T, forecasting's k."""
    G = len(GATES[kind])
    k = min(T, max(1, BLOCK_BYTES // (8 * G * max(B, 1) * U)))
    S = T if train else k
    return {"w": (G, U), "u": (G, U, U), "b": (G, U), "bias": (G, B, U),
            "gates": (S, G, B, U), "h": (S + 1, B, U), "aux": (2, S + 1, B, U),
            "blk": (k, G, B, U), "tw": (k + 1, G, 1, U), "tb": (k + 1, G, U),
            "fac": (k, G + 1) + ((B, U) if train else (0, 0)), "tmp": (B, U)}


def train_bytes(kind: str, units: int, window: int, horizon: int, batch: int) -> int:
    """Estimated peak bytes of training a `kind` model: parameters, gradients
    and Adam's two moments, the backward's three (G, U, U) temporaries, the
    arrays of `_layout`, 8 KiB of views per step and 256 KiB of ufunc buffers."""
    params = sum(map(math.prod, tensor_shapes(kind, units, horizon).values()))
    table = sum(map(math.prod, _layout(kind, batch, units, window, True).values()))
    return 8 * (4 * params + 3 * len(GATES[kind]) * units**2 + table) + 8192 * window + 2**18


class _Storage:
    """The arrays of `_layout`, which a model reuses for every batch of one
    (B, T) shape, and the views each step reads. Step t writes gate slot
    g = t % S and state slot j = (t + 1) % (S + 1) from i = t % (S + 1), in
    block slot b = t % k; h[0] and aux[0, 0] hold the zero state. aux: the
    LSTM's c (slots as h) and tanh(c), or the GRU's r * h_{t-1} and 1 - z
    (slots as gates). Per batch: w, u, b stacked, the sigmoid gates' negated,
    b broadcast to `bias`. Per block: blk holds x * w, then the gate deltas;
    fac the backward's activation factors; tw, tb the dw, db terms."""

    def __init__(self, kind: str, B: int, U: int, T: int, train: bool):
        for name, shape in _layout(kind, B, U, T, train).items():
            setattr(self, name, np.empty(shape))
        self.key, self.k, S = (B, T, train), len(self.blk), len(self.gates)
        self.last = self.h[T % (S + 1)]
        self.fwd, self.bwd = zip(*(_CELLS[kind][0](self, t % S, t % (S + 1), (t + 1) % (S + 1),
                                                   t % self.k) for t in range(T)))


def _sigmoid(s: np.ndarray) -> np.ndarray:
    """s <- 1 / (1 + exp(s)) in place, returning s: the sigmoid of -s; exactly
    0.0 where exp(s) overflows, under the caller's np.errstate(over="ignore")."""
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def _lstm_views(st: _Storage, g: int, i: int, j: int, b: int) -> tuple:
    """Step (g, i, j, b)'s `_lstm_step` arguments, and the views its BPTT reads."""
    s, h, (c, tc), da, fac = st.gates[g], st.h, st.aux, st.blk[b], st.fac[b]
    return ((s, s[:3], *s, c[i], c[j], tc[g], h[i], h[j], da, st.u.transpose(0, 2, 1),
             st.bias, st.tmp),
            (s[:3], *s, c[i], tc[g], h[i], da, da.transpose(0, 2, 1), da[:3], *da, fac[:3],
             *fac[3:]))


def _lstm_step(s, sig, i, f, o, g, c0, c1, tc, h0, h1, xw, uT, bias, tmp) -> None:
    """One step from state h0, c0 to h1, c1: gates s = i, f, o, g, with i,
    f, o from their negated pre-activations."""
    np.matmul(h0, uT, out=s)
    s += xw
    s += bias
    _sigmoid(sig)
    np.tanh(g, out=g)
    np.multiply(f, c0, out=c1)
    c1 += np.multiply(i, g, out=tmp)
    np.tanh(c1, out=tc)
    np.multiply(o, tc, out=h1)


def _lstm_backward(xs: np.ndarray, dh: np.ndarray, st: _Storage, u: np.ndarray,
                   dw: np.ndarray, du: np.ndarray, db: np.ndarray) -> None:
    """Add the BPTT gradients of dh (loss w.r.t. the final h) to dw, du, db."""
    T, k, dc = xs.shape[1], st.k, np.zeros_like(dh)
    for t0 in range((T - 1) // k * k, -1, -k):
        t1 = min(t0 + k, T)
        s, tc, fac = st.gates[t0:t1], st.aux[1, t0:t1], st.fac[:t1 - t0]
        np.subtract(1.0, s[:, :3], out=fac[:, :3])
        np.subtract(1.0, np.multiply(tc, tc, out=fac[:, 3]), out=fac[:, 3])
        np.subtract(1.0, np.multiply(s[:, 3], s[:, 3], out=fac[:, 4]), out=fac[:, 4])
        for t in range(t1 - 1, t0 - 1, -1):
            sig, i, f, o, g, c0, tc, h0, da, daT, dsig, d0, d1, d2, d3, oms, dtc, dg = st.bwd[t]
            dc += dh * o * dtc
            np.multiply(dc, g, out=d0)
            np.multiply(dc, c0, out=d1)
            np.multiply(dh, tc, out=d2)
            dsig *= sig
            dsig *= oms
            np.multiply(dc, i, out=d3)
            d3 *= dg
            du += np.matmul(daT, h0)
            dh = np.matmul(da, u).sum(axis=0)
            dc *= f
        _fold(st, xs, t0, t1, dw, db)


def _gru_views(st: _Storage, g: int, i: int, j: int, b: int) -> tuple:
    """Step (g, i, j, b)'s `_gru_step` arguments, and the views its BPTT reads."""
    s, h, (rh, omz), da, fac = st.gates[g], st.h, st.aux, st.blk[b], st.fac[b]
    uT = st.u.transpose(0, 2, 1)
    return ((s[:2], *s, h[i], h[j], rh[g], omz[g], da[:2], da[2], uT[:2], uT[2],
             st.bias[:2], st.bias[2], st.tmp),
            (s[:2], *s[:2], h[i], rh[g], omz[g], da[:2], da[:2].transpose(0, 2, 1), *da,
             da[2].T, fac[:2], *fac[2:]))


def _gru_step(zr, z, r, n, h0, h1, rh, omz, xw_zr, xw_n, uT_zr, uT_n, b_zr, b_n, tmp) -> None:
    """One step from state h0 to h1: gates z, r, n, with z, r from their
    negated pre-activations; rh = r * h0 and omz = 1 - z."""
    np.matmul(h0, uT_zr, out=zr)
    zr += xw_zr
    zr += b_zr
    _sigmoid(zr)
    np.multiply(r, h0, out=rh)
    np.matmul(rh, uT_n, out=n)
    n += xw_n
    n += b_n
    np.tanh(n, out=n)
    np.subtract(1.0, z, out=omz)
    np.multiply(omz, n, out=h1)
    h1 += np.multiply(z, h0, out=tmp)


def _gru_backward(xs: np.ndarray, dh: np.ndarray, st: _Storage, u: np.ndarray,
                  dw: np.ndarray, du: np.ndarray, db: np.ndarray) -> None:
    """Add the BPTT gradients of dh (loss w.r.t. the final h) to dw, du, db."""
    T, k = xs.shape[1], st.k
    for t0 in range((T - 1) // k * k, -1, -k):
        t1 = min(t0 + k, T)
        s, fac = st.gates[t0:t1], st.fac[:t1 - t0]
        np.subtract(1.0, s[:, :2], out=fac[:, :2])
        np.subtract(1.0, np.multiply(s[:, 2], s[:, 2], out=fac[:, 2]), out=fac[:, 2])
        np.subtract(st.h[t0:t1], s[:, 2], out=fac[:, 3])
        for t in range(t1 - 1, t0 - 1, -1):
            sig, z, r, h0, rh, omz, dsig, dsigT, d0, d1, d2, d2T, oms, dn, hmn = st.bwd[t]
            np.multiply(dh, omz, out=d2)
            d2 *= dn
            drh = d2 @ u[2]
            np.multiply(dh, hmn, out=d0)
            np.multiply(drh, h0, out=d1)
            dsig *= sig
            dsig *= oms
            du[:2] += np.matmul(dsigT, h0)
            du[2] += d2T @ rh  # n acts on r * h
            dh_zr = np.matmul(dsig, u[:2])
            dh = dh * z + drh * r + dh_zr[0] + dh_zr[1]
        _fold(st, xs, t0, t1, dw, db)


_CELLS = {"lstm": (_lstm_views, _lstm_step, _lstm_backward),
          "gru": (_gru_views, _gru_step, _gru_backward)}


def _forward(state: ModelState, xs: np.ndarray, train: bool) -> _Storage:
    """Run `state`'s cell over xs (B, T) from zero state into the storage it
    keeps for this batch shape, and return that storage."""
    (B, T), gates, step = xs.shape, GATES[state.kind], _CELLS[state.kind][1]
    if getattr(state._storage, "key", None) != (B, T, train):
        state._storage = None  # frees the last shape's arrays before the new ones are made
        state._storage = _Storage(state.kind, B, state.units, T, train)
    st = state._storage
    for t, a in zip("wub", (st.w, st.u, st.b)):
        np.stack([state.params[f"{t}_{g}"] for g in gates], out=a)
        np.negative(a[:-1], out=a[:-1])  # the sigmoid gates, all but the last
    st.bias[...] = st.b[:, None]
    st.h[0] = st.aux[0, 0] = 0.0
    with np.errstate(over="ignore"):
        for t0 in range(0, T, st.k):
            n = min(st.k, T - t0)
            np.multiply(xs.T[t0:t0 + n, None, :, None], st.w[:, None], out=st.blk[:n])
            for args in st.fwd[t0:t0 + n]:
                step(*args)
    return st


def _fold(st: _Storage, xs: np.ndarray, t0: int, t1: int, dw, db) -> None:
    """Add the block's dw and db terms for t = t1-1 .. t0 to dw and db in
    that order: each term as the step loop computed it, then one reduction
    over the outer axis, which numpy sums sequentially from the accumulator."""
    n, tw, tb, da = t1 - t0, st.tw, st.tb, st.blk[:t1 - t0][::-1]
    np.matmul(xs.T[t0:t1][::-1, None, None], da, out=tw[1:n + 1])
    np.sum(da, axis=2, out=tb[1:n + 1])
    for acc, terms in ((dw, tw), (db, tb)):
        terms[0] = acc
        np.add.reduce(terms[:n + 1], axis=0, out=acc)


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

    B, F, p, gates, U = xs.shape[0], state.horizon, state.params, GATES[state.kind], state.units
    st = _forward(state, xs, train=True)  # st.last: the final state (B, U)

    with np.errstate(over="ignore"):
        preds = st.last @ p["w_out"].T + p["b_out"]  # (B, F)
        err = preds - ys
        loss = float((err * err).sum() / (F * B))
    if not np.isfinite(loss):
        raise NumericError("backward: non-finite loss")

    dpred = (2.0 / (F * B)) * err                # (B, F)
    dh = dpred @ p["w_out"]                      # (B, U)
    dw, du, db = (np.zeros((len(gates),) + shape) for shape in ((1, U), (U, U), (U,)))
    _CELLS[state.kind][2](xs, dh, st, np.stack([p[f"u_{g}"] for g in gates]), dw, du, db)
    grads = {f"{t}_{g}": a[k] for k, g in enumerate(gates)
             for t, a in zip("wub", (dw[:, 0], du, db))}
    grads["w_out"] = dpred.T @ st.last           # (F, U)
    grads["b_out"] = dpred.sum(axis=0)           # (F,)
    return loss, grads

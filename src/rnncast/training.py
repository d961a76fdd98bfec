"""Adam optimizer, mini-batch training loop, and checkpoint serialization.

Adam update (standard constants: lr 0.001, beta1 0.9, beta2 0.999,
eps 1e-8), applied per tensor:

    m <- beta1*m + (1-beta1)*g        mhat = m / (1 - beta1^t)
    v <- beta2*v + (1-beta2)*g^2      vhat = v / (1 - beta2^t)
    theta <- theta - lr * mhat / (sqrt(vhat) + eps)

Training runs `epochs` passes over the windowed dataset in mini-batches,
reshuffling each epoch from the model's own seeded generator, so a run is
fully determined by (kind, dataset, config). The per-epoch loss recorded
in the history is the sample-weighted mean of batch losses, i.e. the mean
training loss over the epoch.

Checkpoints are a small binary format (one fixed header record `_HEADER`:
magic "TSFC", version u16 and the metadata; then the config and row-major
float64 little-endian tensors) chosen so that a save/load round trip is
bit-identical. The loader reads the file in one bounded read and checks
every length against that buffer before it slices it.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .cells import ModelState, backward_batch, init_model
from .dataprep import WindowedDataset
from .numkit import NumericError, Rng, ShapeError

CHECKPOINT_MAGIC = b"TSFC"
CHECKPOINT_VERSION = 1
_KIND_CODES = {"lstm": 0, "gru": 1}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


class CheckpointVersionError(ValueError):
    """Checkpoint was written by an incompatible format version."""


class CheckpointCorruptError(ValueError):
    """Checkpoint payload is malformed or truncated."""


@dataclass
class AdamState:
    """Optimizer state; moment buffers appear lazily, keyed like the grads."""

    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError(
                f"beta1 and beta2 must lie in [0, 1), got {self.beta1}, {self.beta2}")
        for name, value in (("learning_rate", self.learning_rate), ("eps", self.eps)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")


def adam_step(adam: AdamState, params: dict, grads: dict) -> dict:
    """One Adam update over named tensors, in place. Returns params."""
    if params.keys() != grads.keys():
        raise ShapeError(
            f"params/grads key mismatch: {sorted(params)} vs {sorted(grads)}")
    for name, g in grads.items():
        if g.shape != params[name].shape:
            raise ShapeError(
                f"gradient {name!r} has shape {g.shape}, parameter has "
                f"{params[name].shape}")
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient in {name!r}")

    adam.t += 1
    b1, b2 = adam.beta1, adam.beta2
    bias1 = 1.0 - b1 ** adam.t
    bias2 = 1.0 - b2 ** adam.t
    for name, g in grads.items():
        theta = params[name]
        if name not in adam.m:
            adam.m[name] = np.zeros_like(theta)
            adam.v[name] = np.zeros_like(theta)
        m = adam.m[name]
        v = adam.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        theta -= adam.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + adam.eps)
    return params


def clip_gradients(grads: dict, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm.

    Returns the pre-clip norm.
    """
    if not 0 < max_norm < math.inf:
        raise ValueError(f"gradient clip norm must be finite and positive, got {max_norm}")
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = total ** 0.5
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one training run; the optimizer settings ride along so
    experiments can vary them without touching code."""

    epochs: int = 200
    batch_size: int = 32
    seed: int = 0
    units: int = 128
    shuffle: bool = True
    learning_rate: float = AdamState.learning_rate
    beta1: float = AdamState.beta1
    beta2: float = AdamState.beta2
    eps: float = AdamState.eps
    grad_clip: float | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.units < 1:
            raise ValueError(f"units must be >= 1, got {self.units}")
        AdamState(self.learning_rate, self.beta1, self.beta2, self.eps)  # checks them
        if self.grad_clip is not None:
            clip_gradients({}, self.grad_clip)  # checks the bound, clips nothing


@dataclass
class Checkpoint:
    """A trained model plus everything needed to use it on raw data."""

    model: ModelState
    raw_min: float | None
    raw_max: float | None
    config: dict


def train(kind: str, dataset: WindowedDataset, config: TrainConfig,
          progress=None) -> tuple[Checkpoint, list[float]]:
    """Train a fresh model of `kind` on the dataset; returns (checkpoint,
    per-epoch mean loss history).

    `progress`, if given, is called as progress(epoch_index, epoch_loss)
    after each epoch.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    rng = Rng(config.seed)
    model = init_model(kind, config.units, dataset.window, dataset.horizon, rng)
    adam = AdamState(config.learning_rate, config.beta1, config.beta2, config.eps)

    history: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(n) if config.shuffle else np.arange(n)
        total = 0.0
        for b, lo in enumerate(range(0, n, config.batch_size)):
            idx = order[lo:lo + config.batch_size]
            try:
                loss, grads = backward_batch(model, dataset.inputs[idx], dataset.targets[idx])
                if config.grad_clip is not None:
                    clip_gradients(grads, config.grad_clip)
                adam_step(adam, model.params, grads)
            except NumericError as exc:
                raise NumericError(
                    f"training diverged at epoch {epoch + 1}, batch {b + 1}: {exc}"
                ) from exc
            total += loss * len(idx)
        epoch_loss = total / n
        history.append(epoch_loss)
        if progress is not None:
            progress(epoch, epoch_loss)

    checkpoint = Checkpoint(model=model, raw_min=dataset.raw_min,
                            raw_max=dataset.raw_max, config=asdict(config))
    return checkpoint, history


# ---------------------------------------------------------------------------
# Checkpoint file format (version 1, all integers little-endian). The fixed
# 40-byte header is the one record _HEADER, packed by save_checkpoint and
# unpacked by load_checkpoint:
#   magic     4 bytes  "TSFC"
#   version   u16
#   kind      u8       0 = lstm, 1 = gru
#   units     u32
#   window    u32
#   horizon   u32
#   bounds    u8       0 = absent, 1 = present
#             f64 f64  raw_min, raw_max (zeros when absent)
#   config    u32 n, the header's last field; then n bytes of UTF-8 JSON
#   tensors   u32 count, then per tensor:
#             u16 + n bytes  name
#             u8             ndim
#             u32 * ndim     dims
#             f64 * prod     row-major data
# No trailing bytes are allowed, and no field may run past the file's end.
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sHBIIIBddI")


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    model = checkpoint.model
    has_bounds = checkpoint.raw_min is not None and checkpoint.raw_max is not None
    blob = json.dumps(checkpoint.config, sort_keys=True).encode("utf-8")
    tensors = model.tensors()
    parts = [_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, _KIND_CODES[model.kind],
                          model.units, model.window, model.horizon, has_bounds,
                          checkpoint.raw_min if has_bounds else 0.0,
                          checkpoint.raw_max if has_bounds else 0.0, len(blob)),
             blob, struct.pack("<I", len(tensors))]
    for name, tensor in tensors.items():
        encoded = name.encode("utf-8")
        parts.append(struct.pack(f"<H{len(encoded)}sB{tensor.ndim}I", len(encoded),
                                 encoded, tensor.ndim, *tensor.shape))
        parts.append(np.ascontiguousarray(tensor, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:  # bounded, so a device file cannot read forever
        data = fh.read(os.fstat(fh.fileno()).st_size)
    at = 0

    def take(n: int, what: str) -> bytes:
        nonlocal at
        if n > len(data) - at:
            raise CheckpointCorruptError(f"checkpoint truncated while reading {what} "
                                         f"(wanted {n} bytes, got {len(data) - at})")
        at += n
        return data[at - n:at]

    (magic, version, kind_code, units, window, horizon, has_bounds, raw_min, raw_max,
     blob_len) = _HEADER.unpack(take(_HEADER.size, "header"))
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointCorruptError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint version {version} unsupported "
            f"(this build reads version {CHECKPOINT_VERSION})")
    if kind_code not in _KIND_NAMES:
        raise CheckpointCorruptError(f"unknown model kind code {kind_code}")
    try:
        config = json.loads(take(blob_len, "config").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointCorruptError(f"config block unreadable: {exc}") from exc
    (count,) = struct.unpack("<I", take(4, "tensor count"))
    tensors = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "tensor name length"))
        try:
            name = take(name_len, "tensor name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointCorruptError(f"tensor name unreadable: {exc}") from exc
        ndim = take(1, f"{name} ndim")[0]
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"{name} dims"))
        data_bytes = take(8 * math.prod(shape), f"{name} data")
        tensors[name] = np.frombuffer(data_bytes, dtype="<f8").reshape(shape).copy()
    if at != len(data):
        raise CheckpointCorruptError("trailing bytes after checkpoint payload")

    try:  # ModelState checks the tensor set and puts it in tensor_shapes order
        model = ModelState(_KIND_NAMES[kind_code], tensors, window)
        if (model.units, model.horizon) != (units, horizon):
            raise ShapeError(f"tensors have units={model.units}, horizon={model.horizon}, "
                             f"header has units={units}, horizon={horizon}")
    except ValueError as exc:
        raise CheckpointCorruptError(f"checkpoint contradicts its header: {exc}") from exc
    return Checkpoint(model=model,
                      raw_min=raw_min if has_bounds else None,
                      raw_max=raw_max if has_bounds else None,
                      config=config)

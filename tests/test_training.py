"""Optimizer, training-loop, and checkpoint round-trip tests."""

import hashlib
import os
import struct

import numpy as np
import numpy.testing as npt
import pytest

from rnncast.cells import init_model
from rnncast.dataprep import (PartitionSpec, Series, WindowedDataset,
                              gen_activities, make_windows, normalize)
from rnncast.numkit import NumericError, Rng, ShapeError
from rnncast.training import (AdamState, Checkpoint, CheckpointCorruptError,
                              CheckpointVersionError, TrainConfig, adam_step,
                              clip_gradients, load_checkpoint, save_checkpoint,
                              train)

# Adam settings that AdamState refuses, and so TrainConfig too.
BAD_ADAM_SETTINGS = [
    {"beta1": 1.0}, {"beta2": 1.0}, {"beta1": -0.1},
    {"learning_rate": 0.0}, {"learning_rate": -1.0}, {"eps": 0.0},
    {"learning_rate": float("nan")}, {"learning_rate": float("inf")},
    {"eps": float("nan")}, {"eps": float("inf")},
]


class TestAdam:
    def test_zero_gradient_is_identity(self):
        adam = AdamState()
        params = {"a": np.array([1.0, -2.0, 3.5]), "b": np.eye(3) * 0.3}
        before = {k: v.copy() for k, v in params.items()}
        for _ in range(5):
            adam_step(adam, params, {k: np.zeros_like(v) for k, v in params.items()})
        for name in params:
            npt.assert_array_equal(params[name], before[name])
        assert adam.t == 5

    def test_first_step_closed_form(self):
        # theta=1, g=1, defaults: mhat = vhat = 1, so the update is exactly
        # lr / (1 + eps).
        adam = AdamState()
        params = {"theta": np.array([1.0])}
        adam_step(adam, params, {"theta": np.array([1.0])})
        expected = 1.0 - 0.001 * 1.0 / (1.0 + 1e-8)
        npt.assert_allclose(params["theta"][0], expected, rtol=0, atol=1e-12)

    def test_quadratic_descent_is_monotone(self):
        # Ten steps on f(theta) = theta^2 from theta=1 must strictly
        # decrease f at every step.
        adam = AdamState()
        params = {"theta": np.array([1.0])}
        f_prev = 1.0
        for _ in range(10):
            grad = {"theta": 2.0 * params["theta"]}
            adam_step(adam, params, grad)
            f_now = float(params["theta"][0] ** 2)
            assert f_now < f_prev
            f_prev = f_now

    def test_moment_buffers_mirror_param_shapes(self):
        adam = AdamState()
        params = {"w": np.ones((3, 4)), "b": np.ones(4)}
        adam_step(adam, params, {"w": np.ones((3, 4)), "b": np.ones(4)})
        assert adam.m.keys() == params.keys()
        for name in params:
            assert adam.m[name].shape == params[name].shape
            assert adam.v[name].shape == params[name].shape

    def test_step_counter_increments_by_one(self):
        adam = AdamState()
        params = {"x": np.array([0.0])}
        for want in (1, 2, 3):
            adam_step(adam, params, {"x": np.array([0.5])})
            assert adam.t == want

    def test_shape_mismatch_rejected(self):
        adam = AdamState()
        with pytest.raises(ShapeError):
            adam_step(adam, {"x": np.zeros(3)}, {"x": np.zeros(4)})

    def test_key_mismatch_rejected(self):
        adam = AdamState()
        with pytest.raises(ShapeError):
            adam_step(adam, {"x": np.zeros(3)}, {"y": np.zeros(3)})

    def test_non_finite_gradient_rejected(self):
        adam = AdamState()
        with pytest.raises(NumericError):
            adam_step(adam, {"x": np.zeros(2)}, {"x": np.array([1.0, np.inf])})

    @pytest.mark.parametrize("kwargs", BAD_ADAM_SETTINGS)
    def test_invalid_hyperparameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdamState(**kwargs)


class TestClip:
    def test_norm_below_threshold_untouched(self):
        grads = {"a": np.array([3.0, 4.0])}  # norm 5
        norm = clip_gradients(grads, 10.0)
        assert norm == 5.0
        npt.assert_array_equal(grads["a"], [3.0, 4.0])

    def test_norm_above_threshold_scaled_globally(self):
        grads = {"a": np.array([3.0, 4.0]), "b": np.array([12.0])}  # norm 13
        clip_gradients(grads, 6.5)
        npt.assert_allclose(grads["a"], [1.5, 2.0])
        npt.assert_allclose(grads["b"], [6.0])

    @pytest.mark.parametrize("max_norm", [0.0, float("nan"), float("inf")])
    def test_nonpositive_threshold_rejected(self, max_norm):
        with pytest.raises(ValueError):
            clip_gradients({"a": np.ones(2)}, max_norm)


def flat_dataset():
    s = normalize(Series("flat", np.full(120, 7.0)))
    return make_windows(s, PartitionSpec(8, 2, 20), "train")


def activity_dataset(seed=3):
    s = normalize(gen_activities(Rng(seed), n_series=1, length=250)[0])
    return make_windows(s, PartitionSpec(12, 2, 30), "train")


class TestTrain:
    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_learns_constant_series(self, kind):
        cp, history = train(kind, flat_dataset(),
                            TrainConfig(epochs=60, seed=1, units=8,
                                        learning_rate=0.01))
        assert history[-1] < 1e-4

    def test_same_seed_bit_identical_histories(self):
        ds = activity_dataset()
        cfg = TrainConfig(epochs=8, seed=11, units=6)
        _, h1 = train("gru", ds, cfg)
        _, h2 = train("gru", ds, cfg)
        assert h1 == h2

    def test_same_seed_bit_identical_parameters(self):
        ds = activity_dataset()
        cfg = TrainConfig(epochs=4, seed=11, units=6)
        cp1, _ = train("lstm", ds, cfg)
        cp2, _ = train("lstm", ds, cfg)
        for name, t1 in cp1.model.tensors().items():
            npt.assert_array_equal(t1, cp2.model.tensors()[name], err_msg=name)

    def test_history_length_and_finiteness(self):
        _, history = train("gru", activity_dataset(),
                           TrainConfig(epochs=12, seed=2, units=4))
        assert len(history) == 12
        assert np.isfinite(history).all()

    def test_activity_loss_decreases(self):
        _, history = train("lstm", activity_dataset(),
                           TrainConfig(epochs=25, seed=5, units=8))
        assert np.mean(history[-10:]) < np.mean(history[:10])

    def test_epochs_zero_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("kwargs", BAD_ADAM_SETTINGS)
    def test_invalid_adam_settings_rejected_at_construction(self, kwargs):
        # Refused by the config itself, before train draws any weights.
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_empty_dataset_rejected(self):
        empty = WindowedDataset(inputs=np.zeros((0, 8)), targets=np.zeros((0, 2)),
                                origins=np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="empty"):
            train("lstm", empty, TrainConfig(epochs=1, units=4))

    def test_divergence_reports_epoch_and_batch(self):
        with pytest.raises(NumericError, match=r"epoch \d+, batch \d+"):
            train("lstm", activity_dataset(),
                  TrainConfig(epochs=10, seed=1, units=4, learning_rate=1e200))

    def test_grad_clip_keeps_run_finite(self):
        _, history = train("gru", activity_dataset(),
                           TrainConfig(epochs=5, seed=3, units=4, grad_clip=0.5))
        assert np.isfinite(history).all()

    def test_progress_callback_sees_every_epoch(self):
        seen = []
        train("gru", activity_dataset(),
              TrainConfig(epochs=6, seed=4, units=4),
              progress=lambda e, loss: seen.append(e))
        assert seen == list(range(6))

    def test_checkpoint_carries_bounds_and_config(self):
        ds = activity_dataset()
        cfg = TrainConfig(epochs=2, seed=9, units=4)
        cp, _ = train("gru", ds, cfg)
        assert cp.raw_min == ds.raw_min
        assert cp.raw_max == ds.raw_max
        assert cp.config["epochs"] == 2
        assert cp.config["seed"] == 9
        assert cp.model.kind == "gru"


class TestCheckpointIO:
    def trained(self, tmp_path, kind="lstm"):
        cp, _ = train(kind, activity_dataset(),
                      TrainConfig(epochs=2, seed=7, units=5))
        path = tmp_path / "model.tsfc"
        save_checkpoint(cp, path)
        return cp, path

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_round_trip_bit_identical(self, tmp_path, kind):
        cp, path = self.trained(tmp_path, kind)
        back = load_checkpoint(path)
        assert back.model.kind == cp.model.kind
        assert back.model.units == cp.model.units
        assert back.model.window == cp.model.window
        assert back.model.horizon == cp.model.horizon
        assert back.raw_min == cp.raw_min
        assert back.raw_max == cp.raw_max
        assert back.config == cp.config
        for name, tensor in cp.model.tensors().items():
            npt.assert_array_equal(back.model.tensors()[name], tensor, err_msg=name)

    def test_loaded_model_forecasts_identically(self, tmp_path):
        cp, path = self.trained(tmp_path)
        back = load_checkpoint(path)
        xs = np.linspace(0, 1, cp.model.window)[None, :]
        npt.assert_array_equal(back.model.forecast(xs), cp.model.forecast(xs))

    def test_missing_bounds_survive_round_trip(self, tmp_path):
        cp, path = self.trained(tmp_path)
        cp.raw_min = None
        cp.raw_max = None
        save_checkpoint(cp, path)
        back = load_checkpoint(path)
        assert back.raw_min is None
        assert back.raw_max is None

    def test_truncated_file_is_corrupt(self, tmp_path):
        _, path = self.trained(tmp_path)
        blob = path.read_bytes()
        for cut in (0, 3, 5, 9, 40, len(blob) // 2, len(blob) - 1):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointCorruptError):
                load_checkpoint(path)

    def test_version_bump_is_version_error(self, tmp_path):
        _, path = self.trained(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99  # version lives right after the 4-byte magic
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError, match="99"):
            load_checkpoint(path)

    def test_bad_magic_is_corrupt(self, tmp_path):
        _, path = self.trained(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"JUNK"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptError, match="magic"):
            load_checkpoint(path)

    def test_trailing_garbage_is_corrupt(self, tmp_path):
        _, path = self.trained(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointCorruptError, match="trailing"):
            load_checkpoint(path)

    def test_tensor_shape_contradicting_header_is_corrupt(self, tmp_path):
        cp, path = self.trained(tmp_path, "gru")
        cp.model.params["u_z"] = np.zeros((3, 3))  # header says units=5
        save_checkpoint(cp, path)
        with pytest.raises(CheckpointCorruptError, match="'u_z'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("fault", ["header units", "header horizon", "1-d w_out"])
    def test_dims_contradicting_header_or_head_are_corrupt(self, tmp_path, fault):
        # units and horizon are read off w_out, so the header's copies and
        # w_out's rank are checked against each other on load.
        cp, path = self.trained(tmp_path, "gru")
        if fault == "1-d w_out":
            tensors = {**cp.model.tensors(), "w_out": cp.model.params["w_out"].ravel()}
            cp.model.tensors = lambda: tensors
            save_checkpoint(cp, path)
        else:
            blob = bytearray(path.read_bytes())
            at = 7 if fault == "header units" else 15  # after magic, version, kind
            blob[at:at + 4] = struct.pack("<I", struct.unpack_from("<I", blob, at)[0] + 1)
            path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptError, match="contradicts its header"):
            load_checkpoint(path)

    def test_unexpected_tensor_is_corrupt(self, tmp_path):
        cp, path = self.trained(tmp_path)
        tensors = cp.model.tensors()
        cp.model.tensors = lambda: {**tensors, "w_extra": np.zeros(5)}
        save_checkpoint(cp, path)
        with pytest.raises(CheckpointCorruptError, match="'w_extra'"):
            load_checkpoint(path)

    def test_every_truncation_and_byte_flip_loads_or_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "small.tsfc"
        model = init_model("gru", 1, 4, 1, Rng(3))
        save_checkpoint(Checkpoint(model, 0.0, 1.0, {"seed": 3}), path)
        blob = path.read_bytes()
        variants = {f"cut {n}": blob[:n] for n in range(len(blob))}
        for pos in range(len(blob)):
            for mask in (0xFF, 0x80, 0x01):
                flipped = bytearray(blob)
                flipped[pos] ^= mask
                variants[f"byte {pos} ^ {mask:#04x}"] = bytes(flipped)
        escaped = []
        for label, data in variants.items():
            path.write_bytes(data)
            try:
                load_checkpoint(path)
            except (CheckpointCorruptError, CheckpointVersionError):
                pass
            except Exception as exc:
                escaped.append(f"{label}: {type(exc).__name__}: {exc}")
        assert not escaped, "\n".join(escaped[:10])

    @pytest.mark.parametrize("kind,units,window,horizon,seed,bounds,config,size,sha256", [
        ("gru", 1, 4, 1, 3, (0.0, 1.0), {"seed": 3}, 273,
         "17098a715203ac99cc5eed78a8f470fff6bfd54f55eaff45f65948bc6a8e7a74"),
        ("lstm", 2, 3, 2, 5, (None, None), {}, 514,
         "87c6c78c3af99efc1ad75c955c8ecd939ed834be3fa1e1da8d3b387b6afe4562"),
    ], ids=["gru", "lstm"])
    def test_format_v1_bytes_are_pinned(self, tmp_path, kind, units, window, horizon,
                                        seed, bounds, config, size, sha256):
        path = tmp_path / "pinned.tsfc"
        cp = Checkpoint(init_model(kind, units, window, horizon, Rng(seed)), *bounds, config)
        save_checkpoint(cp, path)
        blob = path.read_bytes()
        assert (len(blob), hashlib.sha256(blob).hexdigest()) == (size, sha256)
        back = load_checkpoint(path)
        assert (back.model.kind, back.model.window, back.raw_min, back.raw_max,
                back.config) == (kind, window, *bounds, config)
        assert list(back.model.params) == list(cp.model.params)
        for name, tensor in cp.model.params.items():
            npt.assert_array_equal(back.model.params[name], tensor, err_msg=name)

    def test_deeply_nested_config_block_is_corrupt(self, tmp_path):
        # json.loads raises RecursionError, not a ValueError, on deep nesting.
        _, path = self.trained(tmp_path)
        blob = path.read_bytes()
        (old_len,) = struct.unpack_from("<I", blob, 36)  # the header's last field
        deep = b"[" * 100_000
        path.write_bytes(blob[:36] + struct.pack("<I", len(deep)) + deep
                         + blob[40 + old_len:])
        with pytest.raises(CheckpointCorruptError, match="config block unreadable"):
            load_checkpoint(path)

    @pytest.mark.parametrize("device", ["/dev/null", "/dev/zero"])
    def test_device_files_are_corrupt(self, device):
        # The read is bounded by the file's size, so /dev/zero cannot hang.
        if not os.path.exists(device):
            pytest.skip(f"{device} does not exist here")
        with pytest.raises(CheckpointCorruptError, match="truncated"):
            load_checkpoint(device)

    def test_missing_file_raises_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_checkpoint(tmp_path / "nope.tsfc")

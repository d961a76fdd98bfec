"""Cell forward/backward tests.

The forward recurrences are checked against scalar-loop oracles (explicit
python loops over units, math.exp only), and every analytic gradient is
checked against central finite differences.
"""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from rnncast import cells
from rnncast.cells import backward_batch, init_model, tensor_shapes
from rnncast.numkit import NumericError, Rng, ShapeError
from rnncast.training import AdamState, adam_step


def sigmoid_scalar(a):
    return 1.0 / (1.0 + math.exp(-a))


def lstm_oracle(params, xs):
    """Scalar-loop LSTM: returns (hidden_trace, cell_trace) lists of lists."""
    U = len(params["b_i"])
    h = [0.0] * U
    c = [0.0] * U
    hs, cs = [], []
    for x in xs:
        i = [0.0] * U
        f = [0.0] * U
        o = [0.0] * U
        g = [0.0] * U
        for j in range(U):
            ai = params["w_i"][j] * x + params["b_i"][j]
            af = params["w_f"][j] * x + params["b_f"][j]
            ao = params["w_o"][j] * x + params["b_o"][j]
            ag = params["w_g"][j] * x + params["b_g"][j]
            for k in range(U):
                ai += params["u_i"][j, k] * h[k]
                af += params["u_f"][j, k] * h[k]
                ao += params["u_o"][j, k] * h[k]
                ag += params["u_g"][j, k] * h[k]
            i[j] = sigmoid_scalar(ai)
            f[j] = sigmoid_scalar(af)
            o[j] = sigmoid_scalar(ao)
            g[j] = math.tanh(ag)
        c = [f[j] * c[j] + i[j] * g[j] for j in range(U)]
        h = [o[j] * math.tanh(c[j]) for j in range(U)]
        hs.append(list(h))
        cs.append(list(c))
    return np.array(hs), np.array(cs)


def gru_oracle(params, xs):
    U = len(params["b_z"])
    h = [0.0] * U
    hs = []
    for x in xs:
        z = [0.0] * U
        r = [0.0] * U
        for j in range(U):
            az = params["w_z"][j] * x + params["b_z"][j]
            ar = params["w_r"][j] * x + params["b_r"][j]
            for k in range(U):
                az += params["u_z"][j, k] * h[k]
                ar += params["u_r"][j, k] * h[k]
            z[j] = sigmoid_scalar(az)
            r[j] = sigmoid_scalar(ar)
        n = [0.0] * U
        for j in range(U):
            an = params["w_n"][j] * x + params["b_n"][j]
            for k in range(U):
                an += params["u_n"][j, k] * (r[k] * h[k])
            n[j] = math.tanh(an)
        h = [(1.0 - z[j]) * n[j] + z[j] * h[j] for j in range(U)]
        hs.append(list(h))
    return np.array(hs)


def make_state(kind, units=4, window=5, horizon=2, seed=11):
    return init_model(kind, units, window, horizon, Rng(seed))


def zero_params(kind, units):
    """A plain name -> array dict of all-zero tensors for a `kind` cell and head."""
    return {name: np.zeros(shape) for name, shape in tensor_shapes(kind, units, 1).items()}


def trace(kind, params, xs):
    """Hidden states h_1 .. h_w (w, units) of one window, and for an LSTM
    its cell states c_1 .. c_w, copied off the training forward's storage
    for a batch of one."""
    xs = np.asarray(xs, dtype=np.float64)[None, :]
    st = cells._forward(cells.ModelState(kind, dict(params), xs.shape[1]), xs, train=True)
    return st.h[1:, 0].copy(), st.aux[0, 1:, 0].copy() if kind == "lstm" else None


class TestForwardOracle:
    def test_lstm_matches_scalar_loops(self):
        state = make_state("lstm", units=3, window=6, seed=7)
        rng = np.random.default_rng(0)
        xs = rng.uniform(-1.5, 1.5, size=6)
        hidden, cell = trace("lstm", state.params, xs)
        hs, cs = lstm_oracle(state.params, xs)
        npt.assert_allclose(hidden, hs, rtol=1e-12, atol=1e-15)
        npt.assert_allclose(cell, cs, rtol=1e-12, atol=1e-15)

    def test_gru_matches_scalar_loops(self):
        state = make_state("gru", units=3, window=6, seed=8)
        rng = np.random.default_rng(1)
        xs = rng.uniform(-1.5, 1.5, size=6)
        hidden, _ = trace("gru", state.params, xs)
        hs = gru_oracle(state.params, xs)
        npt.assert_allclose(hidden, hs, rtol=1e-12, atol=1e-15)

    def test_dense_matches_by_hand(self):
        state = make_state("lstm", units=3, window=6, horizon=2, seed=9)
        xs = np.random.default_rng(2).uniform(-1.5, 1.5, size=6)
        hs, _ = lstm_oracle(state.params, xs)
        npt.assert_allclose(state.forecast(xs[None, :])[0],
                            state.params["w_out"] @ hs[-1] + state.params["b_out"],
                            rtol=1e-12, atol=1e-15)


class TestForwardBehavior:
    def test_all_zero_params_keep_state_at_zero(self):
        # i=f=o=0.5 and g=0 make c and h stay exactly zero; same for the GRU
        # where h is pulled toward n=0.
        U = 4
        lstm = zero_params("lstm", U)
        gru = zero_params("gru", U)
        xs = np.array([0.4, -1.2, 0.9])
        npt.assert_array_equal(trace("lstm", lstm, xs)[0], np.zeros((3, U)))
        npt.assert_array_equal(trace("gru", gru, xs)[0], np.zeros((3, U)))

    def test_lstm_saturated_gates_pass_input_through(self):
        # Open input/output gates, closed forget gate: h_t -> tanh(tanh(x_t)).
        U = 2
        big = 50.0
        params = {**zero_params("lstm", U), "b_i": np.full(U, big),
                  "b_f": np.full(U, -big), "b_o": np.full(U, big), "w_g": np.ones(U)}
        xs = np.array([0.3, -0.7, 1.1])
        hidden, _ = trace("lstm", params, xs)
        expected = np.tanh(np.tanh(xs))
        for t in range(3):
            npt.assert_allclose(hidden[t], np.full(U, expected[t]), atol=1e-12)

    def test_gru_saturated_update_gate_freezes_state(self):
        # z ~= 1 copies the previous hidden state forever, so h stays at 0.
        U = 3
        params = {**zero_params("gru", U), "b_z": np.full(U, 50.0), "w_n": np.ones(U)}
        hidden, _ = trace("gru", params, np.array([2.0, -3.0, 1.0, 4.0]))
        npt.assert_allclose(hidden, np.zeros((4, U)), atol=1e-12)

    def test_gru_open_update_gate_tracks_candidate(self):
        # z ~= 0 replaces the state with the candidate: h_t -> tanh(x_t).
        U = 2
        params = {**zero_params("gru", U), "b_z": np.full(U, -50.0), "w_n": np.ones(U)}
        xs = np.array([0.5, -0.25])
        hidden, _ = trace("gru", params, xs)
        for t in range(2):
            npt.assert_allclose(hidden[t], np.full(U, np.tanh(xs[t])), atol=1e-12)

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_hidden_state_stays_bounded(self, kind):
        state = make_state(kind, units=6, window=40, seed=3)
        # Scale the weights up to push the gates around and feed large inputs.
        for name, t in state.params.items():
            if not name.endswith("_out"):  # the cell's tensors, not the head's
                t *= 8.0
        rng = np.random.default_rng(5)
        xs = rng.uniform(-50.0, 50.0, size=40)
        hidden, _ = trace(kind, state.params, xs)
        assert np.abs(hidden).max() <= 1.0

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_forward_is_deterministic(self, kind):
        state = make_state(kind)
        xs = np.linspace(-1, 1, 5)
        npt.assert_array_equal(trace(kind, state.params, xs)[0], trace(kind, state.params, xs)[0])

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_collected_steps_equal_copies_taken_at_each_yield(self, kind, monkeypatch):
        # The backward reads every step's arrays from the training forward's
        # storage, so within one call no step may write into an array that
        # an earlier step wrote. The arrays each step writes are its step
        # function's output arguments, copied here as each step returns.
        outputs = {"lstm": (0, 7, 8, 10), "gru": (0, 3, 5, 6, 7)}[kind]  # s, c1, tc, h1 | ...
        views, step, backward = cells._CELLS[kind]
        written = []

        def copying(*args):
            step(*args)
            written.append([(args[i], args[i].copy()) for i in outputs])

        monkeypatch.setitem(cells._CELLS, kind, (views, copying, backward))
        state = make_state(kind, units=4, window=7, seed=17)
        xs = np.random.default_rng(18).uniform(-1, 1, size=(3, 7))
        monkeypatch.setattr(cells, "BLOCK_BYTES", 3 * 8 * len(cells.GATES[kind]) * 3 * 4)
        cells._forward(state, xs, train=True)
        assert len(written) == 7
        for arrays in written:
            for value, expected in arrays:
                npt.assert_array_equal(value, expected)


class TestInit:
    def test_weights_within_scale_and_biases_zero(self):
        state = init_model("lstm", 16, 10, 3, Rng(42))
        bound = 1.0 / math.sqrt(16)
        for name, tensor in state.params.items():  # the head's w_out and b_out too
            if name.startswith("b_"):
                npt.assert_array_equal(tensor, np.zeros_like(tensor))
            else:
                assert np.abs(tensor).max() < bound, name
        npt.assert_array_equal(state.params["b_out"], np.zeros(3))

    def test_same_seed_same_model(self):
        a = init_model("gru", 8, 12, 4, Rng(99))
        b = init_model("gru", 8, 12, 4, Rng(99))
        for (na, ta), (nb, tb) in zip(sorted(a.tensors().items()),
                                      sorted(b.tensors().items())):
            assert na == nb
            npt.assert_array_equal(ta, tb)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            init_model("elman", 4, 5, 2, Rng(0))

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            init_model("lstm", 0, 5, 2, Rng(0))
        with pytest.raises(ValueError):
            init_model("lstm", 4, 5, 0, Rng(0))


def finite_diff_grads(state, xs, ys, eps=1e-5):
    """Central differences of the batch loss wrt every parameter element."""
    numeric = {}
    for name, tensor in state.tensors().items():
        g = np.zeros_like(tensor)
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            saved = tensor[idx]
            tensor[idx] = saved + eps
            lp, _ = backward_batch(state, xs, ys)
            tensor[idx] = saved - eps
            lm, _ = backward_batch(state, xs, ys)
            tensor[idx] = saved
            g[idx] = (lp - lm) / (2.0 * eps)
        numeric[name] = g
    return numeric


def max_rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


class TestGradients:
    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_matches_finite_differences_single_sample(self, kind):
        state = make_state(kind, units=4, window=5, horizon=2, seed=21)
        rng = np.random.default_rng(13)
        xs = rng.uniform(-1.0, 1.0, size=(1, 5))
        ys = rng.uniform(-1.0, 1.0, size=(1, 2))
        numeric = finite_diff_grads(state, xs, ys)
        _, analytic = backward_batch(state, xs, ys)
        for name in numeric:
            err = max_rel_err(analytic[name], numeric[name])
            assert err <= 1e-4, f"{kind} {name}: rel err {err:.3e}"

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_matches_finite_differences_batch(self, kind):
        state = make_state(kind, units=3, window=7, horizon=3, seed=34)
        rng = np.random.default_rng(55)
        xs = rng.uniform(-1.0, 1.0, size=(4, 7))
        ys = rng.uniform(-1.0, 1.0, size=(4, 3))
        numeric = finite_diff_grads(state, xs, ys)
        _, analytic = backward_batch(state, xs, ys)
        for name in numeric:
            err = max_rel_err(analytic[name], numeric[name])
            assert err <= 1e-4, f"{kind} {name}: rel err {err:.3e}"

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_batch_gradient_is_mean_of_singles(self, kind):
        state = make_state(kind, units=4, window=6, horizon=2, seed=5)
        rng = np.random.default_rng(6)
        xs = rng.uniform(-1.0, 1.0, size=(3, 6))
        ys = rng.uniform(-1.0, 1.0, size=(3, 2))

        singles = []
        losses = []
        for j in range(3):
            loss, grads = backward_batch(state, xs[j:j + 1], ys[j:j + 1])
            losses.append(loss)
            singles.append(grads)

        batch_loss, batch_grads = backward_batch(state, xs, ys)
        npt.assert_allclose(batch_loss, np.mean(losses), rtol=1e-12)
        for name, got in batch_grads.items():
            want = np.mean([s[name] for s in singles], axis=0)
            npt.assert_allclose(got, want, rtol=1e-9, atol=1e-12,
                                err_msg=name)

    def test_loss_is_mean_squared_error_over_horizon(self):
        state = make_state("gru", units=4, window=5, horizon=2, seed=12)
        rng = np.random.default_rng(14)
        xs = rng.uniform(-1, 1, size=(1, 5))
        ys = rng.uniform(-1, 1, size=(1, 2))
        loss, _ = backward_batch(state, xs, ys)
        preds = state.forecast(xs)
        npt.assert_allclose(loss, np.mean((preds[0] - ys[0]) ** 2), rtol=1e-12)

    def test_grads_are_new_arrays_keyed_like_params(self):
        # The returned dict has params' names, order and shapes, and a later
        # call writes neither into it nor into params.
        for kind in ("lstm", "gru"):
            state = make_state(kind)
            rng = np.random.default_rng(19)
            xs, ys = rng.uniform(-1, 1, (2, 5)), rng.uniform(-1, 1, (2, 2))
            params = {k: v.copy() for k, v in state.params.items()}
            _, first = backward_batch(state, xs, ys)
            assert list(first) == list(state.params)
            for name, g in first.items():
                assert g.shape == state.params[name].shape, name
            assert any(np.abs(g).max() > 0 for g in first.values())
            kept = {k: v.copy() for k, v in first.items()}
            _, second = backward_batch(state, xs[::-1] * 0.5, ys[::-1])
            for name in first:
                assert not np.array_equal(second[name], first[name]), name
                npt.assert_array_equal(first[name], kept[name], err_msg=name)
                npt.assert_array_equal(state.params[name], params[name], err_msg=name)


class TestShapeAndErrors:
    def test_backward_rejects_wrong_window_length(self):
        state = make_state("lstm")
        with pytest.raises(ShapeError, match="5"):
            backward_batch(state, np.zeros((1, 4)), np.zeros((1, 2)))

    def test_backward_rejects_wrong_target_length(self):
        state = make_state("gru")
        with pytest.raises(ShapeError, match="2"):
            backward_batch(state, np.zeros((1, 5)), np.zeros((1, 3)))

    def test_backward_batch_rejects_mismatched_batch(self):
        state = make_state("lstm")
        with pytest.raises(ShapeError):
            backward_batch(state, np.zeros((4, 5)), np.zeros((3, 2)))

    def test_backward_batch_rejects_empty_batch(self):
        state = make_state("lstm")
        with pytest.raises(ShapeError):
            backward_batch(state, np.zeros((0, 5)), np.zeros((0, 2)))

    def test_forecast_rejects_wrong_window(self):
        state = make_state("gru")
        with pytest.raises(ShapeError, match="5"):
            state.forecast(np.zeros((2, 6)))

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_params_in_tensor_shapes_order_whatever_order_given(self, kind):
        state = make_state(kind)
        shuffled = dict(reversed(state.params.items()))
        rebuilt = cells.ModelState(kind, shuffled, state.window)
        assert list(rebuilt.params) == list(tensor_shapes(kind, 4, 2))
        assert all(rebuilt.params[k] is v for k, v in state.params.items())

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_missing_tensor_rejected(self, kind):
        params = dict(make_state(kind).params)
        del params["b_out"]
        with pytest.raises(ShapeError, match="needs tensors"):
            cells.ModelState(kind, params, 5)

    def test_forward_rejects_non_finite_window(self):
        state = make_state("lstm")
        with pytest.raises(NumericError):
            state.forecast(np.array([[0.0, np.nan, 1.0, 0.0, 0.0]]))


class TestForecast:
    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_matches_single_window_composition(self, kind):
        state = make_state(kind, units=5, window=8, horizon=3, seed=61)
        rng = np.random.default_rng(62)
        xs = rng.uniform(-1, 1, size=(4, 8))
        preds = state.forecast(xs)
        assert preds.shape == (4, 3)
        for j in range(4):
            hidden, _ = trace(kind, state.params, xs[j])
            npt.assert_allclose(preds[j], state.params["w_out"] @ hidden[-1] + state.params["b_out"],
                                rtol=1e-12, atol=1e-15)

def packages_loaded_by_import(filter_expr):
    """Sorted top-level packages that `import rnncast, rnncast.cli` loads in
    a fresh interpreter, as printed there after `filter_expr` (a set
    operation on them) is applied."""
    code = ("import sys; before = set(sys.modules); import rnncast, rnncast.cli; "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            f"{filter_expr}))")
    src = os.path.dirname(os.path.dirname(cells.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env).stdout.strip()


class TestSigmoid:
    def test_matches_reciprocal_formula(self):
        # The gate blocks hold negated pre-activations: _sigmoid(-x), in
        # place on a new array, is the sigmoid of x bit for bit.
        x = np.random.default_rng(71).normal(0.0, 4.0, size=10_000)
        npt.assert_array_equal(cells._sigmoid(np.negative(x)), 1.0 / (1.0 + np.exp(-x)))

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_saturates_exactly_without_warning(self, kind):
        # Pre-activations of -800 and +800 give sigmoid gates of exactly 0.0
        # and 1.0 in a forecast and a backward_batch, with warnings as errors.
        state = make_state(kind, units=2, window=3)
        first, second = cells.GATES[kind][:2]
        state.params[f"b_{first}"][:] = -800.0
        state.params[f"b_{second}"][:] = 800.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state.forecast(np.zeros((2, 3)))
            forecast_gates = state._storage.gates[:, :2].copy()
            backward_batch(state, np.zeros((2, 3)), np.zeros((2, 2)))
        for gates in (forecast_gates, state._storage.gates[:, :2]):
            assert (gates[:, 0] == 0.0).all() and (gates[:, 1] == 1.0).all()
        with np.errstate(over="ignore"):  # the scope the forward holds
            out = cells._sigmoid(np.array([800.0, -800.0]))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_step_generator_leaves_float_error_state_alone(self, monkeypatch):
        # The forward's np.errstate scope ends with the call: after a return
        # and after a step that raises, the caller runs under its own state.
        before = np.geterr()
        state = make_state("lstm")
        state.forecast(np.full((1, 5), 1e3))
        backward_batch(state, np.full((1, 5), 1e3), np.zeros((1, 2)))
        assert np.geterr() == before

        def failing(*args):
            raise FloatingPointError("step failed")

        views, _, backward = cells._CELLS["lstm"]
        monkeypatch.setitem(cells._CELLS, "lstm", (views, failing, backward))
        with pytest.raises(FloatingPointError, match="step failed"):
            state.forecast(np.zeros((1, 5)))
        assert np.geterr() == before

    def test_package_import_loads_no_dependency_but_numpy(self):
        out = packages_loaded_by_import(" - set(sys.stdlib_module_names)")
        assert out == "['numpy', 'rnncast']"

    def test_package_import_loads_no_network_or_xml_module(self):
        # xml.sax.saxutils pulls in urllib, http, email, ssl and socket.
        assert packages_loaded_by_import(" & {'xml', 'http', 'email', 'ssl'}") == "[]"


# Per-gate reference cells: one product and one activation call per gate,
# as the cells computed them before their gate tensors were stacked. The
# stacked cells must reproduce them bit for bit.

def ref_sigmoid(a):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-a))


def ref_lstm_steps(p, xs):
    B, T = xs.shape
    h = np.zeros((B, p["u_i"].shape[0]))
    c = np.zeros((B, p["u_i"].shape[0]))
    for t in range(T):
        x = xs[:, t:t + 1]
        i = ref_sigmoid(x * p["w_i"] + h @ p["u_i"].T + p["b_i"])
        f = ref_sigmoid(x * p["w_f"] + h @ p["u_f"].T + p["b_f"])
        o = ref_sigmoid(x * p["w_o"] + h @ p["u_o"].T + p["b_o"])
        g = np.tanh(x * p["w_g"] + h @ p["u_g"].T + p["b_g"])
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        yield i, f, o, g, tc, c, h


def ref_gru_steps(p, xs):
    B, T = xs.shape
    h = np.zeros((B, p["u_z"].shape[0]))
    for t in range(T):
        x = xs[:, t:t + 1]
        z = ref_sigmoid(x * p["w_z"] + h @ p["u_z"].T + p["b_z"])
        r = ref_sigmoid(x * p["w_r"] + h @ p["u_r"].T + p["b_r"])
        rh = r * h
        n = np.tanh(x * p["w_n"] + rh @ p["u_n"].T + p["b_n"])
        h = (1.0 - z) * n + z * h
        yield z, r, n, rh, h


def ref_gate_grads(kind, grads):
    return [(grads[f"w_{g}"], grads[f"u_{g}"], grads[f"b_{g}"]) for g in cells.GATES[kind]]


def ref_lstm_backward(p, grads, xs, dh, steps):
    gates = ref_gate_grads("lstm", grads)
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


def ref_gru_backward(p, grads, xs, dh, steps):
    gates = ref_gate_grads("gru", grads)
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


REF_STEPS = {"lstm": ref_lstm_steps, "gru": ref_gru_steps}
REF_BACKWARDS = {"lstm": ref_lstm_backward, "gru": ref_gru_backward}


def ref_backward_batch(state, xs, ys):
    B, F, p = xs.shape[0], state.horizon, state.params
    steps = list(REF_STEPS[state.kind](p, xs))
    h_last = steps[-1][-1]
    with np.errstate(over="ignore"):
        err = (h_last @ p["w_out"].T + p["b_out"]) - ys
        loss = float((err * err).sum() / (F * B))
    grads = {name: np.zeros_like(a) for name, a in p.items()}
    dpred = (2.0 / (F * B)) * err
    grads["w_out"] = dpred.T @ h_last
    grads["b_out"] = dpred.sum(axis=0)
    REF_BACKWARDS[state.kind](p, grads, xs, dpred @ p["w_out"], steps)
    return loss, grads


def ref_forecast(state, xs):
    h = list(REF_STEPS[state.kind](state.params, xs))[-1][-1]
    return h @ state.params["w_out"].T + state.params["b_out"]


class TestStackedGatesMatchPerGateBits:
    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    @pytest.mark.parametrize("units,batch", [(1, 1), (3, 1), (5, 7), (16, 32), (32, 16),
                                             (33, 17), (128, 32)])
    def test_loss_gradients_and_forecast_are_byte_equal(self, kind, units, batch):
        state = init_model(kind, units, 60, 20, Rng(units * 100 + batch))
        rng = np.random.default_rng(units + batch)
        xs = rng.uniform(-1.0, 1.0, size=(batch, 60))
        ys = rng.uniform(-1.0, 1.0, size=(batch, 20))
        loss, grads = backward_batch(state, xs, ys)
        ref_loss, ref_grads = ref_backward_batch(state, xs, ys)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert list(grads) == list(ref_grads)
        for name, ref in ref_grads.items():
            assert grads[name].shape == ref.shape, name
            assert grads[name].tobytes() == ref.tobytes(), name
        assert state.forecast(xs).tobytes() == ref_forecast(state, xs).tobytes()


def adam_trained(kind, units, window, horizon, seed):
    """A model after three Adam steps on seeded batches: every bias non-zero."""
    state = init_model(kind, units, window, horizon, Rng(seed))
    rng = np.random.default_rng(seed)
    adam = AdamState(learning_rate=0.05)
    for _ in range(3):
        _, grads = backward_batch(state, rng.uniform(-1, 1, (4, window)),
                                  rng.uniform(-1, 1, (4, horizon)))
        adam_step(adam, state.params, grads)
    # In a window of one step, f and r act on the zero initial state only.
    still_zero = {"b_f", "b_r"} if window == 1 else set()
    assert all((t != 0).all() for name, t in state.params.items()
               if name.startswith("b_") and name not in still_zero)
    return state


def with_zeros(xs):
    """xs with exact zeros: a whole window, every fourth step, and -0.0 steps."""
    xs = xs.copy()
    xs[:, ::4] = 0.0
    xs[-1] = 0.0
    xs[0, 1::5] = -0.0
    return xs


def copy_of(state):
    return cells.ModelState(state.kind, {k: v.copy() for k, v in state.params.items()},
                            state.window)


class TestBlocksMatchPerGateBits:
    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    @pytest.mark.parametrize("window", [1, 2, 13, 60])
    @pytest.mark.parametrize("batch", [1, 5, 16])
    @pytest.mark.parametrize("block", ["one", "three", "window"])
    def test_block_edges_are_byte_equal(self, kind, window, batch, block, monkeypatch):
        units, horizon = 6, 3
        steps = {"one": 1, "three": 3, "window": window}[block]
        monkeypatch.setattr(cells, "BLOCK_BYTES",
                            steps * 8 * len(cells.GATES[kind]) * batch * units)
        state = adam_trained(kind, units, window, horizon, seed=window * 10 + batch)
        rng = np.random.default_rng(window + batch)
        xs = with_zeros(rng.uniform(-1.0, 1.0, (batch, window)))
        ys = rng.uniform(-1.0, 1.0, (batch, horizon))
        loss, grads = backward_batch(state, xs, ys)
        assert state._storage.k == min(steps, window)
        ref_loss, ref_grads = ref_backward_batch(state, xs, ys)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        for name, ref in ref_grads.items():
            assert grads[name].tobytes() == ref.tobytes(), name
        assert state.forecast(xs).tobytes() == ref_forecast(state, xs).tobytes()


class TestStorageReuse:
    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_each_batch_gets_the_bytes_of_a_fresh_model(self, kind):
        # Batches of 16, 3 and 16 rows: the storage is reallocated twice, and
        # each call equals the same call on a copy that has no storage.
        state = adam_trained(kind, 8, 13, 2, seed=3)
        rng = np.random.default_rng(4)
        adam = AdamState(learning_rate=0.05)
        for rows in (16, 3, 16):
            xs = with_zeros(rng.uniform(-1, 1, (rows, 13)))
            ys = rng.uniform(-1, 1, (rows, 2))
            fresh_loss, fresh_grads = backward_batch(copy_of(state), xs, ys)
            loss, grads = backward_batch(state, xs, ys)
            assert np.float64(loss).tobytes() == np.float64(fresh_loss).tobytes()
            for name, g in grads.items():
                assert g.tobytes() == fresh_grads[name].tobytes(), name
            adam_step(adam, state.params, grads)

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_results_are_new_arrays_that_later_calls_leave_alone(self, kind):
        state = adam_trained(kind, 8, 13, 2, seed=5)
        rng = np.random.default_rng(6)
        xs, ys = rng.uniform(-1, 1, (16, 13)), rng.uniform(-1, 1, (16, 2))
        _, grads = backward_batch(state, xs, ys)
        train_arrays = [a for a in vars(state._storage).values() if isinstance(a, np.ndarray)]
        kept = {name: g.copy() for name, g in grads.items()}
        preds = state.forecast(xs)
        kept_preds = preds.copy()
        forecast_arrays = [a for a in vars(state._storage).values() if isinstance(a, np.ndarray)]
        backward_batch(state, xs[::-1] * 0.5, ys[::-1])
        state.forecast(xs[::-1] * 0.5)
        for name, g in grads.items():
            assert g.tobytes() == kept[name].tobytes(), name
            assert not any(np.shares_memory(g, a) for a in train_arrays), name
        assert preds.tobytes() == kept_preds.tobytes()
        assert not any(np.shares_memory(preds, a) for a in forecast_arrays)

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    @pytest.mark.parametrize("rows", [16, 1000])
    def test_forecast_between_batches_changes_no_gradient(self, kind, rows):
        # A forecast of the batch's 16 rows, or of 1000 rows in blocks of 4
        # (lstm) or 5 (gru) steps, leaves the next batch's bytes alone.
        state, twin = adam_trained(kind, 8, 13, 2, seed=7), adam_trained(kind, 8, 13, 2, seed=7)
        rng = np.random.default_rng(8)
        batches = [(rng.uniform(-1, 1, (16, 13)), rng.uniform(-1, 1, (16, 2))) for _ in range(2)]
        backward_batch(state, *batches[0])
        backward_batch(twin, *batches[0])
        state.forecast(rng.uniform(-1, 1, (rows, 13)))
        loss, grads = backward_batch(state, *batches[1])
        twin_loss, twin_grads = backward_batch(twin, *batches[1])
        assert np.float64(loss).tobytes() == np.float64(twin_loss).tobytes()
        for name, g in grads.items():
            assert g.tobytes() == twin_grads[name].tobytes(), name

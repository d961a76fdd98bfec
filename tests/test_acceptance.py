"""Release gate: nine end-to-end checks, one per shipped guarantee.

Each test prints a single ``[criterion N] PASS/FAIL`` line with the measured
numbers before asserting, so the suite output doubles as a checklist.  The
first five criteria are exact oracles (finite differences, hand-evaluated
updates, exhaustive enumeration, flat-loop metrics, byte-identical reruns);
criteria 6-8 are desk-scale training runs that must reproduce the qualitative
behaviour the package is built around: recurrent networks beat the
persistence baseline on periodic data, merely match it on random walks, and
cut multi-step error in half on noise-free periodic data.  Criterion 9 is the
full default-scale pipeline and carries a ``nightly`` marker because it
trains four production-size models (runs ~45 min; invoke with ``-m nightly``).

Criterion 2's hundred-step convergence clause is expected to fail, and is
kept at its stated strength anyway; see the test's docstring for the
arithmetic.
"""

import json
import math
from time import perf_counter

import numpy as np
import pytest

from rnncast import cli
from rnncast.cells import CELL_KINDS, backward_batch, init_model
from rnncast.dataprep import (PartitionSpec, Series, gen_activities,
                              gen_random_walk, make_windows, normalize)
from rnncast.evalkit import (ForecastSet, PersistenceBaseline, SeriesResult,
                             aggregate, directional_accuracy, evaluate, rmse)
from rnncast.numkit import Rng
from rnncast.training import AdamState, TrainConfig, adam_step, train
from test_numkit import below

# Desk-scale training setup shared by criteria 6-8: small enough for a
# three-seed sweep per criterion to finish in a couple of minutes, large
# enough that the periodic structure spans many weeks.
DESK_SEEDS = (0, 1, 2)
DESK_LENGTH = 1000
DESK_SERIES = 10
DESK_WINDOW = 60
DESK_TEST_LEN = 150
DESK_UNITS = 32
DESK_EPOCHS = 50
DESK_LEARNING_RATE = 0.01
DESK_BATCH = 16


def _verdict(number: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients against central finite differences
# ---------------------------------------------------------------------------

def _batch_loss(state, xs, ys):
    """Forward-only copy of the training loss: mean over samples of the
    per-sample horizon-averaged squared error, built from `forecast`
    rather than the traced forward that training runs."""
    preds = state.forecast(xs)
    return float(((preds - ys) ** 2).sum()) / (ys.shape[1] * ys.shape[0])


def _finite_diff(state, xs, ys, eps=1e-5):
    out = {}
    for name, tensor in state.tensors().items():
        grad = np.zeros_like(tensor)
        it = np.nditer(tensor, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            saved = tensor[idx]
            tensor[idx] = saved + eps
            hi = _batch_loss(state, xs, ys)
            tensor[idx] = saved - eps
            lo = _batch_loss(state, xs, ys)
            tensor[idx] = saved
            grad[idx] = (hi - lo) / (2.0 * eps)
            it.iternext()
        out[name] = grad
    return out


def test_01_gradients_match_finite_differences():
    """Both cell kinds, units=4, w=5, f=2, five seeds: every parameter's
    backpropagated gradient agrees with a central finite difference of the
    loss to 1e-4 relative error."""
    t0 = perf_counter()
    worst = 0.0
    for kind in CELL_KINDS:
        for seed in range(5):
            rng = Rng(1000 + seed)
            state = init_model(kind, units=4, window=5, horizon=2, rng=rng)
            xs = rng.uniform(-1.0, 1.0, 3, 5)
            ys = rng.uniform(-1.0, 1.0, 3, 2)
            _, analytic = backward_batch(state, xs, ys)
            numeric = _finite_diff(state, xs, ys)
            for name in analytic:
                denom = np.maximum(
                    np.maximum(np.abs(analytic[name]), np.abs(numeric[name])),
                    1e-8)
                rel = np.abs(analytic[name] - numeric[name]) / denom
                worst = max(worst, float(rel.max()))
    elapsed = perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 10.0
    _verdict(1, ok, f"max relative gradient error {worst:.3g} over "
                    f"{len(CELL_KINDS)} cells x 5 seeds ({elapsed:.1f}s)")
    assert worst <= 1e-4
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 2: Adam against hand-evaluated updates
# ---------------------------------------------------------------------------

def test_02_adam_first_step_exact_and_hundred_step_convergence():
    """The first default update on f(theta)=(theta-3)^2 from theta=0 must
    match the hand-evaluated closed form to 1e-12 (it does), and 100 default
    steps must shrink |theta-3| tenfold (they cannot).

    The second clause is arithmetically unreachable and this test is
    expected to fail on it.  With a constant-sign gradient the
    bias-corrected ratio m_hat/sqrt(v_hat) has magnitude ~1, so each update
    moves theta by about learning_rate = 0.001; a hundred steps travel
    roughly 0.1 of the 2.7 needed to bring |theta-3| from 3.0 down to 0.3.
    Reaching the target would take a different learning rate, which the
    check does not permit, so it is left at its stated strength and fails
    honestly rather than being loosened.
    """
    t0 = perf_counter()

    # First update, by hand: g = 2*(0-3) = -6; m1 = 0.1*g, v1 = 0.001*g^2;
    # bias correction restores exactly g and g^2, so the step is
    # lr * g / (|g| + eps) and theta_1 = 0.001 * 6 / (6 + 1e-8).
    adam = AdamState()
    params = {"theta": np.zeros(1)}
    grads = {"theta": np.array([2.0 * (params["theta"][0] - 3.0)])}
    params = adam_step(adam, params, grads)
    expected_t1 = 0.001 * 6.0 / (6.0 + 1e-8)
    t1_err = abs(float(params["theta"][0]) - expected_t1)

    # One hundred default steps from scratch.
    adam = AdamState()
    params = {"theta": np.zeros(1)}
    for _ in range(100):
        grads = {"theta": 2.0 * (params["theta"] - 3.0)}
        params = adam_step(adam, params, grads)
    final_gap = abs(float(params["theta"][0]) - 3.0)
    elapsed = perf_counter() - t0

    ok = t1_err <= 1e-12 and final_gap <= 0.3 and elapsed < 1.0
    _verdict(2, ok, f"t=1 update error {t1_err:.2e}; |theta-3| after 100 "
                    f"steps = {final_gap:.3f} (needs <= 0.300) "
                    f"({elapsed:.2f}s)")
    assert t1_err <= 1e-12
    assert elapsed < 1.0
    assert final_gap <= 0.3, (
        "100 default Adam steps cannot close a distance of 3.0; see this "
        "test's docstring for the step-size arithmetic")


# ---------------------------------------------------------------------------
# criterion 3: window extraction against exhaustive enumeration
# ---------------------------------------------------------------------------

def _enumerate_windows(values, spec, region):
    q = len(values)
    xs, ys, origins = [], [], []
    for start in range(q - spec.window - spec.horizon + 1):
        origin = start + spec.window
        last_target = origin + spec.horizon - 1
        if region == "train":
            wanted = last_target <= q - spec.test_len - 1
        else:
            wanted = origin >= q - spec.test_len and last_target <= q - 1
        if wanted:
            xs.append(values[start:origin])
            ys.append(values[origin:origin + spec.horizon])
            origins.append(start)  # the recorded index of window row i
    return np.array(xs), np.array(ys), np.array(origins)


def test_03_window_extraction_matches_enumeration():
    """200 random valid (Q<=200, w, f, test_len) tuples: make_windows must
    reproduce an exhaustive index enumeration exactly, for both regions."""
    t0 = perf_counter()
    rng = Rng(7)
    checked = 0
    for _ in range(200):
        w = 1 + below(rng, 40)
        f = 1 + below(rng, 10)
        test_len = f + below(rng, 50)
        min_q = w + f + test_len
        q = min_q + below(rng, 200 - min_q + 1)
        values = rng.uniform(-10.0, 10.0, 1, q).ravel()
        series = Series(f"case_{checked}", values)
        spec = PartitionSpec(window=w, horizon=f, test_len=test_len)
        for region in ("train", "test"):
            ds = make_windows(series, spec, region)
            xs, ys, origins = _enumerate_windows(values, spec, region)
            assert len(ds) == len(xs)
            assert np.array_equal(ds.inputs, xs)
            assert np.array_equal(ds.targets, ys)
            assert np.array_equal(ds.origins, origins)
        checked += 1
    elapsed = perf_counter() - t0
    ok = checked == 200 and elapsed < 5.0
    _verdict(3, ok, f"{checked} random partitions matched enumeration "
                    f"exactly in both regions ({elapsed:.1f}s)")
    assert checked == 200
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# criterion 4: metrics against independent flat-loop implementations
# ---------------------------------------------------------------------------

def _sgn(x):
    return int(x > 0.0) - int(x < 0.0)


def _flat_rmse(fs):
    total, count = 0.0, 0
    for i in range(len(fs)):
        for k in range(fs.predicted.shape[1]):
            total += (fs.predicted[i, k] - fs.actual[i, k]) ** 2
            count += 1
    return math.sqrt(total / count)


def _flat_da(fs):
    hits, count = 0, 0
    for i in range(len(fs)):
        ref = fs.last_inputs[i]
        for k in range(fs.predicted.shape[1]):
            if _sgn(fs.predicted[i, k] - ref) == _sgn(fs.actual[i, k] - ref):
                hits += 1
            count += 1
            ref = fs.actual[i, k]
    return hits / count


def test_04_metrics_match_flat_loop_oracles():
    """RMSE and directional accuracy agree with independent flat-loop
    implementations to 1e-12 on 100 random forecast sets; the persistence
    baseline scores exactly 0 DA on strictly monotonic series and a perfect
    forecast scores exactly 1."""
    t0 = perf_counter()
    rng = Rng(11)
    worst_rmse, worst_da = 0.0, 0.0
    for case in range(100):
        n = 1 + below(rng, 40)
        f = 1 + below(rng, 12)
        # ForecastSet once took its first origin from this draw. It is
        # still drawn, so that the cases after it stay the same.
        below(rng, 50)
        fs = ForecastSet(
            predicted=rng.uniform(-5.0, 5.0, n, f),
            actual=rng.uniform(-5.0, 5.0, n, f),
            last_inputs=rng.uniform(-5.0, 5.0, 1, n).ravel(),
        )
        worst_rmse = max(worst_rmse, abs(rmse(fs) - _flat_rmse(fs)))
        worst_da = max(worst_da, abs(directional_accuracy(fs) - _flat_da(fs)))

    # Persistence on strictly monotonic data never predicts a change in the
    # realised direction: exactly zero, increasing or decreasing.
    monotone_das = []
    for direction in (1.0, -1.0):
        values = direction * np.linspace(0.0, 1.0, 80)
        spec = PartitionSpec(window=5, horizon=3, test_len=12)
        _, _, da = evaluate(PersistenceBaseline(5, 3),
                            Series("mono", values), spec)
        monotone_das.append(da)

    perfect = ForecastSet(
        predicted=rng.uniform(-5.0, 5.0, 9, 4),
        actual=np.empty((9, 4)),
        last_inputs=rng.uniform(-5.0, 5.0, 1, 9).ravel(),
    )
    perfect.actual[:] = perfect.predicted
    perfect_da = directional_accuracy(perfect)

    elapsed = perf_counter() - t0
    ok = (worst_rmse <= 1e-12 and worst_da <= 1e-12
          and monotone_das == [0.0, 0.0] and perfect_da == 1.0
          and elapsed < 5.0)
    _verdict(4, ok, f"max |delta| rmse {worst_rmse:.2e}, da {worst_da:.2e} "
                    f"over 100 sets; monotone baseline DA {monotone_das}, "
                    f"perfect DA {perfect_da} ({elapsed:.1f}s)")
    assert worst_rmse <= 1e-12
    assert worst_da <= 1e-12
    assert monotone_das == [0.0, 0.0]
    assert perfect_da == 1.0
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# criterion 5: byte-identical reruns
# ---------------------------------------------------------------------------

def test_05_identical_runs_are_byte_identical(tmp_path):
    """`run` twice with the same config and seed: every report CSV and every
    checkpoint must match byte for byte."""
    t0 = perf_counter()
    flags = ["run", "--quiet", "--dataset", "activities",
             "--length", "400", "--series", "4", "--window", "20",
             "--horizons", "1,5", "--test-len", "60", "--epochs", "8",
             "--units", "8", "--batch-size", "16",
             "--learning-rate", "0.01", "--seed", "42"]
    dirs = (tmp_path / "first", tmp_path / "second")
    for out in dirs:
        assert cli.main(flags + ["--out", str(out)]) == 0

    compared = 0
    mismatched = []
    names = sorted(p.name for p in dirs[0].iterdir()
                   if p.suffix == ".tsfc"
                   or (p.suffix == ".csv" and (p.name.startswith("report_")
                                               or p.name == "summary.csv")))
    assert names, "run produced no reports or checkpoints"
    for name in names:
        first = (dirs[0] / name).read_bytes()
        second = (dirs[1] / name).read_bytes()
        compared += 1
        if first != second:
            mismatched.append(name)
    elapsed = perf_counter() - t0
    ok = not mismatched and elapsed < 600.0
    _verdict(5, ok, f"{compared} report/checkpoint files byte-identical "
                    f"across reruns ({elapsed:.1f}s)")
    assert mismatched == []
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# criteria 6-8: desk-scale behaviour of the trained networks
# ---------------------------------------------------------------------------

def _aggregate_over(forecaster, normalized, spec, tag):
    rows = [SeriesResult(s.name, *evaluate(forecaster, s, spec)[1:])
            for s in normalized]
    return aggregate(rows, model=tag, horizon=spec.horizon)


def _train_desk_model(kind, normalized, spec, seed):
    """Train one desk-scale network on the first series' train region."""
    dataset = make_windows(normalized[0], spec, "train")
    config = TrainConfig(epochs=DESK_EPOCHS, units=DESK_UNITS, seed=seed,
                         learning_rate=DESK_LEARNING_RATE,
                         batch_size=DESK_BATCH)
    checkpoint, _ = train(kind, dataset, config)
    return checkpoint.model


def test_06_networks_beat_baseline_on_periodic_data():
    """Activities data, one-step horizon: for at least 2 of 3 seeds BOTH
    networks must beat persistence by >= 0.2 DA and reach <= 0.9x its RMSE,
    aggregated over ten series."""
    t0 = perf_counter()
    spec = PartitionSpec(DESK_WINDOW, 1, DESK_TEST_LEN)
    details, passes = [], 0
    for seed in DESK_SEEDS:
        series = gen_activities(Rng(seed), n_series=DESK_SERIES,
                                length=DESK_LENGTH)
        normalized = [normalize(s) for s in series]
        base = _aggregate_over(PersistenceBaseline(DESK_WINDOW, 1),
                               normalized, spec, "baseline")
        seed_ok = True
        bits = []
        for kind in CELL_KINDS:
            model = _train_desk_model(kind, normalized, spec, seed)
            rep = _aggregate_over(model, normalized, spec, kind)
            seed_ok &= (rep.mean_da >= base.mean_da + 0.2
                        and rep.mean_rmse <= 0.9 * base.mean_rmse)
            bits.append(f"{kind} {rep.mean_rmse / base.mean_rmse:.2f}x/"
                        f"da+{rep.mean_da - base.mean_da:.2f}")
        passes += seed_ok
        details.append(f"s{seed}[{' '.join(bits)}]"
                       f"{'+' if seed_ok else '-'}")
    elapsed = perf_counter() - t0
    ok = passes >= 2 and elapsed < 300.0
    _verdict(6, ok, f"{passes}/3 seeds: {' '.join(details)} "
                    f"({elapsed:.0f}s)")
    assert passes >= 2
    assert elapsed < 300.0


def test_07_networks_match_baseline_on_random_walks():
    """Random-walk data, one-step horizon: for at least 2 of 3 seeds each
    network's aggregate RMSE must land within +/-15% of persistence."""
    t0 = perf_counter()
    spec = PartitionSpec(DESK_WINDOW, 1, DESK_TEST_LEN)
    details, passes = [], 0
    for seed in DESK_SEEDS:
        series = gen_random_walk(Rng(seed), n_series=DESK_SERIES,
                                 length=DESK_LENGTH)
        normalized = [normalize(s) for s in series]
        base = _aggregate_over(PersistenceBaseline(DESK_WINDOW, 1),
                               normalized, spec, "baseline")
        seed_ok = True
        bits = []
        for kind in CELL_KINDS:
            model = _train_desk_model(kind, normalized, spec, seed)
            rep = _aggregate_over(model, normalized, spec, kind)
            ratio = rep.mean_rmse / base.mean_rmse
            seed_ok &= 0.85 <= ratio <= 1.15
            bits.append(f"{kind} {ratio:.2f}x")
        passes += seed_ok
        details.append(f"s{seed}[{' '.join(bits)}]"
                       f"{'+' if seed_ok else '-'}")
    elapsed = perf_counter() - t0
    ok = passes >= 2 and elapsed < 300.0
    _verdict(7, ok, f"{passes}/3 seeds within +/-15% of baseline: "
                    f"{' '.join(details)} ({elapsed:.0f}s)")
    assert passes >= 2
    assert elapsed < 300.0


def test_08_twenty_step_head_and_clean_periodic_gain():
    """An f=20 checkpoint emits exactly 20 values per forecast, and on
    noise-free periodic data reaches <= 0.5x the baseline's 20-step RMSE for
    at least 2 of 3 seeds."""
    t0 = perf_counter()
    spec = PartitionSpec(DESK_WINDOW, 20, DESK_TEST_LEN)
    details, passes = [], 0
    shape_checked = False
    for seed in DESK_SEEDS:
        series = gen_activities(Rng(seed), n_series=DESK_SERIES,
                                length=DESK_LENGTH, noise_sd=0.0,
                                amplitude_jitter=0.0)
        normalized = [normalize(s) for s in series]
        base = _aggregate_over(PersistenceBaseline(DESK_WINDOW, 20),
                               normalized, spec, "baseline")
        seed_ok = True
        bits = []
        for kind in CELL_KINDS:
            model = _train_desk_model(kind, normalized, spec, seed)
            if not shape_checked:
                one = model.forecast(normalized[0].values[None, :DESK_WINDOW])
                assert one.shape == (1, 20)
                fs, _, _ = evaluate(model, normalized[0], spec)
                assert fs.predicted.shape[1] == 20
                shape_checked = True
            rep = _aggregate_over(model, normalized, spec, kind)
            ratio = rep.mean_rmse / base.mean_rmse
            seed_ok &= ratio <= 0.5
            bits.append(f"{kind} {ratio:.2f}x")
        passes += seed_ok
        details.append(f"s{seed}[{' '.join(bits)}]"
                       f"{'+' if seed_ok else '-'}")
    elapsed = perf_counter() - t0
    ok = shape_checked and passes >= 2 and elapsed < 300.0
    _verdict(8, ok, f"20 values per forecast; {passes}/3 seeds at <= 0.5x "
                    f"baseline: {' '.join(details)} ({elapsed:.0f}s)")
    assert shape_checked
    assert passes >= 2
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# criterion 9: full default-scale pipeline (nightly)
# ---------------------------------------------------------------------------

@pytest.mark.nightly
def test_09_default_scale_run_emits_manifest(tmp_path):
    """The default-scale pipeline (activities length 3584, units=128,
    epochs=200, w=60, test_len=251, horizons 1 and 20) completes without
    numeric failure and every artifact named in the manifest exists."""
    t0 = perf_counter()
    out = tmp_path / "full"
    rc = cli.main(["run", "--quiet", "--out", str(out), "--seed", "0"])
    elapsed = perf_counter() - t0

    manifest_path = out / "manifest.json"
    assert rc == 0
    assert manifest_path.is_file()
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))

    named = [manifest["dataset_csv"]]
    named.extend(manifest["checkpoints"].values())
    named.extend(manifest["loss_histories"].values())
    for files in manifest["reports"].values():
        named.extend(files)
    named.extend(manifest["plots"])
    missing = [n for n in named
               if not (out / n).is_file() or (out / n).stat().st_size == 0]

    expected_checkpoints = {"lstm_f1", "lstm_f20", "gru_f1", "gru_f20"}
    ok = (rc == 0 and not missing
          and set(manifest["checkpoints"]) == expected_checkpoints
          and elapsed < 3600.0)
    _verdict(9, ok, f"rc={rc}, {len(named)} manifest artifacts present, "
                    f"checkpoints {sorted(manifest['checkpoints'])} "
                    f"({elapsed / 60:.0f} min)")
    assert not missing, f"manifest names missing/empty files: {missing}"
    assert set(manifest["checkpoints"]) == expected_checkpoints
    assert elapsed < 3600.0

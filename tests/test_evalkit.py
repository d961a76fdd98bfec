"""Baseline, metric, and aggregation tests.

rmse is checked against a flat python-loop oracle, the baseline against a
direct lag shift of the raw series, and DA against hand-counted sign
tables.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from rnncast.dataprep import PartitionSpec, Series, normalize
from rnncast.evalkit import (ForecastSet, PersistenceBaseline,
                             SeriesResult, aggregate,
                             directional_accuracy, evaluate, report_to_csv,
                             report_to_text, rmse)


def make_set(predicted, actual, last_inputs):
    predicted = np.atleast_2d(np.asarray(predicted, dtype=float))
    actual = np.atleast_2d(np.asarray(actual, dtype=float))
    return ForecastSet(predicted=predicted, actual=actual,
                       last_inputs=np.asarray(last_inputs, dtype=float))


class TestBaseline:
    def test_repeats_last_value_once(self):
        out = PersistenceBaseline(window=3, horizon=1).forecast([[0.1, 0.9, 0.42]])
        npt.assert_array_equal(out, [[0.42]])

    def test_repeats_last_value_twenty_times(self):
        out = PersistenceBaseline(window=2, horizon=20).forecast([[0.1, 0.42]])
        npt.assert_array_equal(out, np.full((1, 20), 0.42))

    def test_zero_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            PersistenceBaseline(window=1, horizon=0)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            PersistenceBaseline(window=0, horizon=3)


class TestRmse:
    def test_perfect_forecast_scores_zero(self):
        fs = make_set([[0.2, 0.4]], [[0.2, 0.4]], [0.1])
        assert rmse(fs) == 0.0

    def test_single_error_is_absolute_difference(self):
        fs = make_set([[0.8]], [[0.5]], [0.0])
        npt.assert_allclose(rmse(fs), 0.3)

    def test_matches_flat_loop_oracle(self):
        rng = np.random.default_rng(3)
        pred = rng.uniform(0, 1, size=(17, 5))
        actual = rng.uniform(0, 1, size=(17, 5))
        fs = make_set(pred, actual, rng.uniform(0, 1, size=17))
        total = 0.0
        count = 0
        for i in range(17):
            for k in range(5):
                total += (pred[i, k] - actual[i, k]) ** 2
                count += 1
        npt.assert_allclose(rmse(fs), math.sqrt(total / count), rtol=1e-12)

    def test_empty_set_rejected(self):
        fs = ForecastSet(predicted=np.zeros((0, 2)), actual=np.zeros((0, 2)),
                         last_inputs=np.zeros(0))
        with pytest.raises(ValueError, match="empty"):
            rmse(fs)


class TestDirectionalAccuracy:
    def test_perfect_forecast_scores_one(self):
        rng = np.random.default_rng(1)
        actual = rng.uniform(0, 1, size=(8, 3))
        fs = make_set(actual.copy(), actual, rng.uniform(0, 1, size=8))
        assert directional_accuracy(fs) == 1.0

    def test_flat_prediction_on_moving_series_scores_zero(self):
        # Persistence predicts zero change; a strictly increasing actual
        # never has zero change, so no pair can match.
        actual = np.array([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])
        last = np.array([0.5, 1.5])
        pred = np.repeat(last[:, None], 3, axis=1)
        fs = make_set(pred, actual, last)
        assert directional_accuracy(fs) == 0.0

    def test_hand_counted_half(self):
        # Four origins, one step each, reference 0.5 everywhere.
        # Predicted changes: +, +, -, 0; actual changes: +, -, -, +.
        # Hits at origins 0 and 2 only.
        pred = np.array([[0.6], [0.6], [0.4], [0.5]])
        actual = np.array([[0.6], [0.4], [0.4], [0.6]])
        fs = make_set(pred, actual, [0.5, 0.5, 0.5, 0.5])
        assert directional_accuracy(fs) == 0.5

    def test_step_reference_is_previous_actual(self):
        # One origin, two steps. Step 2 must be judged against actual step
        # 1 (0.9), not the prediction (0.2): predicting 0.95 is a rise from
        # 0.9 and the actual 1.0 also rises, so step 2 is a hit even though
        # step 1 missed.
        fs = make_set([[0.2, 0.95]], [[0.9, 1.0]], [0.5])
        assert directional_accuracy(fs) == 0.5

    def test_bounded_between_zero_and_one(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n, f = rng.integers(1, 12), rng.integers(1, 6)
            fs = make_set(rng.normal(size=(n, f)), rng.normal(size=(n, f)),
                          rng.normal(size=n))
            assert 0.0 <= directional_accuracy(fs) <= 1.0

    def test_invariant_under_joint_affine_rescale(self):
        rng = np.random.default_rng(4)
        pred = rng.uniform(0, 1, size=(10, 4))
        actual = rng.uniform(0, 1, size=(10, 4))
        last = rng.uniform(0, 1, size=10)
        da = directional_accuracy(make_set(pred, actual, last))
        a, b = 37.5, -12.0
        da2 = directional_accuracy(make_set(a * pred + b, a * actual + b,
                                            a * last + b))
        assert da == da2


class TestEvaluate:
    def test_baseline_on_constant_series_is_perfect(self):
        s = Series("flat", np.full(40, 0.7))
        spec = PartitionSpec(window=5, horizon=2, test_len=10)
        fs, r, d = evaluate(PersistenceBaseline(5, 2), s, spec)
        assert r == 0.0
        assert d == 1.0
        assert len(fs) == 10 - 2 + 1

    @pytest.mark.parametrize("f", [1, 3])
    def test_baseline_rmse_matches_lag_shift_oracle(self, f):
        rng = np.random.default_rng(8)
        values = rng.uniform(10, 20, size=120)
        s = Series("walk", values)
        w, test_len = 7, 30
        spec = PartitionSpec(window=w, horizon=f, test_len=test_len)
        _, got, _ = evaluate(PersistenceBaseline(w, f), s, spec)

        # Oracle: every test target sample is predicted by the value just
        # before its window's end, i.e. values[i + w - 1] for all f steps.
        q = len(values)
        sq_errors = []
        for i in range(q - test_len - w, q - w - f + 1):
            for k in range(f):
                sq_errors.append((values[i + w + k] - values[i + w - 1]) ** 2)
        npt.assert_allclose(got, math.sqrt(np.mean(sq_errors)), rtol=1e-12)

    def test_horizon_mismatch_rejected(self):
        s = Series("s", np.arange(60, dtype=float))
        spec = PartitionSpec(window=5, horizon=20, test_len=25)
        with pytest.raises(ValueError, match="horizon"):
            evaluate(PersistenceBaseline(5, 1), s, spec)

    def test_denormalized_rmse_scales_by_range(self):
        rng = np.random.default_rng(12)
        s = normalize(Series("s", rng.uniform(50, 150, size=90)))
        spec = PartitionSpec(window=6, horizon=2, test_len=20)
        b = PersistenceBaseline(6, 2)
        _, r_norm, d_norm = evaluate(b, s, spec, normalized=True)
        _, r_raw, d_raw = evaluate(b, s, spec, normalized=False)
        npt.assert_allclose(r_raw, r_norm * (s.raw_max - s.raw_min), rtol=1e-12)
        assert d_norm == d_raw

    def test_raw_reporting_needs_recorded_bounds(self):
        s = Series("s", np.arange(60, dtype=float))
        spec = PartitionSpec(window=5, horizon=1, test_len=20)
        with pytest.raises(ValueError, match="bounds"):
            evaluate(PersistenceBaseline(5, 1), s, spec, normalized=False)

    def test_forecast_set_covers_whole_test_region(self):
        s = Series("s", np.arange(100, dtype=float))
        spec = PartitionSpec(window=4, horizon=3, test_len=17)
        fs, _, _ = evaluate(PersistenceBaseline(4, 3), s, spec)
        assert len(fs) == 17 - 3 + 1
        # The first window ends one sample before the 17-sample test region.
        assert fs.last_inputs[0] == 100 - 17 - 1
        # Last target must end exactly at the series' final sample.
        assert fs.actual[-1, -1] == 99.0


class TestAggregate:
    def test_single_series_mean_is_value_sd_zero(self):
        rep = aggregate([SeriesResult("only", 0.25, 0.8)], model="gru", horizon=1)
        assert rep.mean_rmse == 0.25
        assert rep.sd_rmse == 0.0
        assert rep.mean_da == 0.8
        assert rep.sd_da == 0.0
        assert "ddof=1" in report_to_text(rep)

    def test_two_values_hand_formula(self):
        rep = aggregate([SeriesResult("a", 0.1, 0.1), SeriesResult("b", 0.3, 0.3)],
                        model="lstm", horizon=20)
        npt.assert_allclose(rep.mean_rmse, 0.2)
        npt.assert_allclose(rep.sd_rmse, math.sqrt(0.02 / 1))
        npt.assert_allclose(rep.sd_rmse, 0.1414, atol=5e-5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], model="lstm", horizon=1)

    def test_aggregates_recomputable_from_rows(self):
        rng = np.random.default_rng(2)
        rows = [SeriesResult(f"s{i}", float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
                for i in range(10)]
        rep = aggregate(rows, model="lstm", horizon=1)
        rmses = [r.rmse for r in rep.rows]
        das = [r.da for r in rep.rows]
        npt.assert_allclose(rep.mean_rmse, np.mean(rmses), rtol=1e-12)
        npt.assert_allclose(rep.sd_rmse, np.std(rmses, ddof=1), rtol=1e-12)
        npt.assert_allclose(rep.mean_da, np.mean(das), rtol=1e-12)
        npt.assert_allclose(rep.sd_da, np.std(das, ddof=1), rtol=1e-12)


class TestReportFormats:
    def report(self):
        rows = [SeriesResult("alpha", 0.125, 0.75), SeriesResult("beta", 0.375, 0.25)]
        return aggregate(rows, model="lstm", horizon=20)

    def test_csv_round_trips_values(self):
        text = report_to_csv(self.report())
        lines = text.strip().split("\n")
        assert lines[0] == "series,rmse,da"
        assert len(lines) == 5  # header + 2 series + mean + sd
        name, r, d = lines[1].split(",")
        assert name == "alpha"
        assert float(r) == 0.125
        assert float(d) == 0.75
        assert lines[3].startswith("mean,")
        assert float(lines[3].split(",")[1]) == 0.25
        assert lines[4].startswith("sd,")

    def test_text_table_names_model_and_horizon(self):
        text = report_to_text(self.report())
        assert "model lstm" in text
        assert "horizon 20" in text
        assert "sample" in text
        lines = text.strip().split("\n")
        assert lines[1].split() == ["series", "RMSE", "DA"]
        assert lines[-1].split()[0] == "sd"
        # Columns stay aligned: every data line is equally wide.
        widths = {len(line) for line in lines[2:]}
        assert len(widths) == 1

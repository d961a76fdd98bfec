"""Persistence baseline, RMSE / directional accuracy, and report tables.

Directional accuracy compares the SIGN of the predicted change against the
sign of the actual change, where the change for step k of an origin is
measured from a reference value:

    k = 1: the last observed input sample of that window,
    k > 1: the actual (not predicted) value at step k-1.

Zero counts as its own sign, so a flat prediction only scores on a flat
actual. This makes the repeat-last-value baseline score near zero on any
series that keeps moving, while a model that tracks direction can score
well even when its level is off.

RMSE defaults to normalized space; pass normalized=False to evaluate in
raw units (errors then scale by raw_max - raw_min, and DA is unchanged).
Aggregation over series reports the mean and SAMPLE standard deviation
(divisor n-1; a lone series records SD 0).
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .dataprep import PartitionSpec, Series, denormalize, make_windows


@dataclass
class ForecastSet:
    """Aligned predictions and actuals over a contiguous run of test origins.

    last_inputs[i] is the final observed sample of window i — the reference
    for step-1 direction.
    """

    predicted: np.ndarray   # (n, horizon)
    actual: np.ndarray      # (n, horizon)
    last_inputs: np.ndarray  # (n,)

    def __post_init__(self):
        self.predicted = np.asarray(self.predicted, dtype=np.float64)
        self.actual = np.asarray(self.actual, dtype=np.float64)
        self.last_inputs = np.asarray(self.last_inputs, dtype=np.float64)
        if self.predicted.ndim != 2 or self.predicted.shape != self.actual.shape:
            raise ValueError(
                f"predicted {self.predicted.shape} and actual {self.actual.shape} "
                f"must be equal 2-D shapes")
        n = self.predicted.shape[0]
        if self.last_inputs.shape != (n,):
            raise ValueError("last_inputs must have one entry per origin")

    def __len__(self) -> int:
        return self.predicted.shape[0]


class PersistenceBaseline:
    """Repeats the last observed value across the whole horizon."""

    def __init__(self, window: int, horizon: int):
        if window < 1 or horizon < 1:
            raise ValueError(f"window and horizon must be >= 1, got {window}, {horizon}")
        self.window = window
        self.horizon = horizon

    def forecast(self, inputs) -> np.ndarray:
        xs = np.asarray(inputs, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[1] != self.window:
            raise ValueError(
                f"expected inputs of shape (n, {self.window}), got {xs.shape}")
        return np.repeat(xs[:, -1:], self.horizon, axis=1)


def rmse(forecasts: ForecastSet) -> float:
    """Root of the mean squared error over every (origin, step) pair."""
    if len(forecasts) == 0:
        raise ValueError("empty forecast set")
    err = forecasts.predicted - forecasts.actual
    return float(np.sqrt(np.mean(err * err)))


def directional_accuracy(forecasts: ForecastSet) -> float:
    """Fraction of (origin, step) pairs whose change direction matches."""
    if len(forecasts) == 0:
        raise ValueError("empty forecast set")
    refs = np.empty_like(forecasts.actual)
    refs[:, 0] = forecasts.last_inputs
    refs[:, 1:] = forecasts.actual[:, :-1]
    pred_sign = np.sign(forecasts.predicted - refs)
    actual_sign = np.sign(forecasts.actual - refs)
    return float(np.mean(pred_sign == actual_sign))


def evaluate(forecaster, series: Series, spec: PartitionSpec,
             normalized: bool = True) -> tuple[ForecastSet, float, float]:
    """Forecast the test region of one series and score it.

    `forecaster` is anything with window, horizon, and forecast(inputs)
    — a trained model or a PersistenceBaseline. With normalized=False the
    set is mapped back to raw units via the series' own recorded bounds
    before scoring.
    """
    if forecaster.window != spec.window or forecaster.horizon != spec.horizon:
        raise ValueError(
            f"forecaster(window={forecaster.window}, horizon={forecaster.horizon}) "
            f"does not match spec(window={spec.window}, horizon={spec.horizon})")
    ds = make_windows(series, spec, "test")
    predicted = forecaster.forecast(ds.inputs)
    actual = ds.targets
    last_inputs = ds.inputs[:, -1]
    bounds = (series.raw_min, series.raw_max)
    if not normalized:
        if series.raw_min is None or series.raw_max is None:
            raise ValueError(
                f"series {series.name!r} has no recorded bounds; "
                f"cannot report in raw units")
        predicted = denormalize(predicted, bounds)
        actual = denormalize(actual, bounds)
        last_inputs = denormalize(last_inputs, bounds)
    fs = ForecastSet(predicted=predicted, actual=actual, last_inputs=last_inputs)
    return fs, rmse(fs), directional_accuracy(fs)


@dataclass(frozen=True)
class SeriesResult:
    """One row of an evaluation: a series' name and its two scores."""

    name: str
    rmse: float
    da: float


@dataclass
class EvalReport:
    """Per-series scores plus their mean/SD aggregates for one model."""

    model: str
    horizon: int
    rows: list[SeriesResult]
    mean_rmse: float
    sd_rmse: float
    mean_da: float
    sd_da: float


def _sample_sd(values: np.ndarray) -> float:
    if values.shape[0] < 2:
        return 0.0
    return float(np.std(values, ddof=1))


def aggregate(results: list[SeriesResult], model: str, horizon: int) -> EvalReport:
    """Mean and sample SD of RMSE and DA over per-series results."""
    if not results:
        raise ValueError("cannot aggregate zero series results")
    rmses = np.array([r.rmse for r in results])
    das = np.array([r.da for r in results])
    return EvalReport(
        model=model,
        horizon=horizon,
        rows=list(results),
        mean_rmse=float(rmses.mean()),
        sd_rmse=_sample_sd(rmses),
        mean_da=float(das.mean()),
        sd_da=_sample_sd(das),
    )


def report_to_csv(report: EvalReport) -> str:
    """One row per series, then mean and sd rows."""
    out = io.StringIO()
    out.write("series,rmse,da\n")
    for row in report.rows:
        out.write(f"{row.name},{row.rmse!r},{row.da!r}\n")
    out.write(f"mean,{report.mean_rmse!r},{report.mean_da!r}\n")
    out.write(f"sd,{report.sd_rmse!r},{report.sd_da!r}\n")
    return out.getvalue()


def report_to_text(report: EvalReport) -> str:
    """Aligned table with the model tag, horizon, and SD convention."""
    name_width = max([len("series"), len("mean"), len("sd")]
                     + [len(r.name) for r in report.rows])
    lines = [f"model {report.model}, horizon {report.horizon} (SD: sample (ddof=1))"]
    lines.append(f"{'series':<{name_width}}  {'RMSE':>12}  {'DA':>8}")
    for row in report.rows:
        lines.append(f"{row.name:<{name_width}}  {row.rmse:>12.6f}  {row.da:>8.4f}")
    lines.append(f"{'mean':<{name_width}}  {report.mean_rmse:>12.6f}  "
                 f"{report.mean_da:>8.4f}")
    lines.append(f"{'sd':<{name_width}}  {report.sd_rmse:>12.6f}  "
                 f"{report.sd_da:>8.4f}")
    return "\n".join(lines) + "\n"

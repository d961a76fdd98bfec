"""Series normalization, train/test windowing, generators, and CSV I/O.

A series of Q samples is split so its last `test_len` samples are the test
region. Training windows are the stride-1 sliding windows whose inputs AND
targets both fit before the test region; test windows are those whose
targets lie fully inside it (their inputs may reach back across the
boundary — the first test target is forecast from the last `window`
training samples).

Normalization is min-max over the full series by default, with the bounds
recorded on the result so forecasts can be mapped back to raw units.
Passing `fit_len` restricts the bound fit to a leading slice (e.g. the
training region) for callers who want to avoid peeking at test values.
A series that is constant over the fitted slice has no range to scale by:
it maps to 0.5 throughout and records equal bounds.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numkit import Rng


class ParseError(ValueError):
    """Raised on malformed CSV input; message cites the offending line."""


MAX_LINE_CHARS = 4 * 1024 * 1024  # longest CSV line, terminator included


@dataclass
class Series:
    """A named univariate series; raw bounds are set once normalized."""

    name: str
    values: np.ndarray
    raw_min: float | None = None
    raw_max: float | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.shape[0] < 2:
            raise ValueError(
                f"series {self.name!r} needs at least 2 samples, got shape {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise ValueError(f"series {self.name!r} contains non-finite values")

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class PartitionSpec:
    """Window length, forecast horizon, and size of the held-out tail."""

    window: int
    horizon: int
    test_len: int = 251

    def __post_init__(self):
        if self.window < 1 or self.horizon < 1:
            raise ValueError(
                f"window and horizon must be >= 1, got {self.window}, {self.horizon}")
        if self.test_len < self.horizon:
            raise ValueError(
                f"test_len ({self.test_len}) must cover at least one horizon "
                f"({self.horizon})")

    def check_length(self, q: int) -> None:
        """Raise unless a series of length q leaves a training window."""
        if q - self.test_len < self.window + self.horizon:
            raise ValueError(
                f"series too short: Q={q}, window={self.window}, horizon={self.horizon}, "
                f"test_len={self.test_len} leaves no training window "
                f"(need Q - test_len >= window + horizon)")


@dataclass
class WindowedDataset:
    """Stacked windows: inputs (N, window), targets (N, horizon).

    `make_windows` returns both as read-only strided views of the series'
    values, so cutting windows copies nothing; a caller that needs its own
    array (training's shuffled batches) copies by fancy indexing.

    origins[i] is the source index of the first input sample of row i, so
    window i spans [origins[i], origins[i]+window) and its target follows
    immediately. The normalization bounds ride along for checkpointing.
    """

    inputs: np.ndarray
    targets: np.ndarray
    origins: np.ndarray
    raw_min: float | None = None
    raw_max: float | None = None

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def window(self) -> int:
        return self.inputs.shape[1]

    @property
    def horizon(self) -> int:
        return self.targets.shape[1]


def normalize(series: Series, *, fit_len: int | None = None) -> Series:
    """Min-max scale to [0, 1], recording the fitted bounds on the result;
    a series constant over the fit maps to 0.5 throughout."""
    fit = series.values if fit_len is None else series.values[:fit_len]
    if fit.shape[0] < 2:
        raise ValueError(f"fit_len={fit_len} leaves fewer than 2 samples to fit bounds")
    lo = float(fit.min())
    hi = float(fit.max())
    if hi == lo:
        return Series(series.name, np.full_like(series.values, 0.5), lo, hi)
    scaled = (series.values - lo) / (hi - lo)
    return Series(series.name, scaled, lo, hi)


def denormalize(values, bounds: tuple[float, float]) -> np.ndarray:
    """Inverse of normalize: x * (max - min) + min, for arrays of any shape."""
    lo, hi = float(bounds[0]), float(bounds[1])
    if not hi > lo:
        raise ValueError(f"invalid bounds ({lo}, {hi}): max must exceed min")
    return np.asarray(values, dtype=np.float64) * (hi - lo) + lo


def make_windows(series: Series, spec: PartitionSpec, region: str) -> WindowedDataset:
    """Slice a series into stride-1 (window, target) pairs for one region."""
    if region not in ("train", "test"):
        raise ValueError(f"region must be 'train' or 'test', got {region!r}")
    q = len(series)
    spec.check_length(q)
    w, f, test_len = spec.window, spec.horizon, spec.test_len

    if region == "train":
        # Inputs and targets both confined to [0, Q - test_len).
        n = (q - test_len) - w - f + 1
        start = 0
    else:
        # Targets confined to [Q - test_len, Q); inputs may reach back.
        n = test_len - f + 1
        start = q - test_len - w

    in_view = sliding_window_view(series.values, w)
    tgt_view = sliding_window_view(series.values, f)
    return WindowedDataset(
        inputs=in_view[start:start + n],
        targets=tgt_view[start + w:start + w + n],
        origins=np.arange(start, start + n),
        raw_min=series.raw_min,
        raw_max=series.raw_max,
    )


def gen_activities(rng: Rng, n_series: int = 10, length: int = 3584,
                   samples_per_day: int = 4, high_level: float = 100.0,
                   low_level: float = 20.0, noise_sd: float = 5.0,
                   amplitude_jitter: float = 0.1) -> list[Series]:
    """Weekly activity pattern: 5 high days, 2 low days, repeated.

    Each day's level gets an independent multiplicative jitter of up to
    +/- amplitude_jitter, each sample gets additive Gaussian noise, and the
    result is clipped at zero.
    """
    week = 7 * samples_per_day
    if samples_per_day < 1 or n_series < 1:
        raise ValueError(
            f"n_series and samples_per_day must be >= 1, got {n_series}, {samples_per_day}")
    if length < week:
        raise ValueError(
            f"length ({length}) must cover at least one week ({week} samples)")
    if not (0 <= noise_sd < np.inf and 0 <= amplitude_jitter < np.inf):
        raise ValueError(f"noise_sd and amplitude_jitter must be finite and nonnegative, "
                         f"got {noise_sd}, {amplitude_jitter}")

    n_days = -(-length // samples_per_day)  # ceil
    day_levels = np.resize(np.array([high_level] * 5 + [low_level] * 2, float), n_days)
    out = []
    for s in range(n_series):
        levels = day_levels
        if amplitude_jitter > 0:
            levels = day_levels * (1.0 + rng.uniform(-amplitude_jitter, amplitude_jitter,
                                                     n_days, 1)[:, 0])
        values = np.repeat(levels, samples_per_day)[:length]
        if noise_sd > 0:
            values = values + rng.normal(length, 0.0, noise_sd)
        np.clip(values, 0.0, None, out=values)
        out.append(Series(f"activities_{s:02d}", values))
    return out


def gen_random_walk(rng: Rng, n_series: int = 10, length: int = 3032,
                    start: float = 100.0, step_sd: float = 0.015) -> list[Series]:
    """Geometric random walk: x[t+1] = x[t] * exp(e), e ~ Normal(0, step_sd^2)."""
    if length < 2 or n_series < 1:
        raise ValueError(f"need length >= 2 and n_series >= 1, got {length}, {n_series}")
    if start <= 0 or not 0 <= step_sd < np.inf:
        raise ValueError(f"need start > 0 and finite step_sd >= 0, got {start}, {step_sd}")
    out = []
    for s in range(n_series):
        if step_sd > 0:
            steps = rng.normal(length - 1, 0.0, step_sd)
        else:
            steps = np.zeros(length - 1)
        values = np.empty(length)
        values[0] = start
        values[1:] = start * np.exp(np.cumsum(steps))
        out.append(Series(f"walk_{s:02d}", values))
    return out


def load_csv(path, *, date_column: bool = False) -> list[Series]:
    """Read a wide CSV: header row of series names, one sample per row.

    With date_column=True the first column is skipped (dates/labels). Names
    name files and fill report CSV rows, so must be unique, non-empty and
    free of path separators, commas, quotes and line breaks. A line longer
    than MAX_LINE_CHARS, such as the endless one of /dev/zero, is refused.
    """
    def bounded(fh):
        for n, line in enumerate(iter(lambda: fh.readline(MAX_LINE_CHARS + 1), ""), 1):
            if len(line) > MAX_LINE_CHARS:
                raise ParseError(f"{path} line {n}: longer than {MAX_LINE_CHARS} characters")
            yield line

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(bounded(fh))
        try:  # csv.Error, such as a field over the csv module's size limit
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file")
            if date_column:
                header = header[1:]
            if not header:
                raise ParseError(f"{path}: header row has no series columns")
            names = [h.strip() for h in header]
            seen = set()
            for name in names:
                if not name or name in seen or any(ch in name for ch in '/\\,"\r\n'):
                    raise ParseError(f"{path}: series name {name!r} is empty, repeats "
                                     f"or contains a path separator, comma, quote "
                                     f"or line break")
                seen.add(name)
            columns: list[list[float]] = [[] for _ in names]
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if date_column:
                    row = row[1:]
                if len(row) != len(names):
                    raise ParseError(
                        f"{path} line {lineno}: expected {len(names)} values, got {len(row)}")
                for col, cell in enumerate(row):
                    try:
                        columns[col].append(float(cell))
                    except ValueError:
                        raise ParseError(
                            f"{path} line {lineno}: non-numeric value {cell!r} "
                            f"in column {names[col]!r}") from None
        except csv.Error as exc:
            raise ParseError(f"{path} line {reader.line_num}: {exc}") from None
    if not columns[0]:
        raise ParseError(f"{path}: no data rows")
    return [Series(name, np.array(col)) for name, col in zip(names, columns)]


def save_csv(path, series_list: list[Series]) -> None:
    """Write series as wide CSV columns; all must share one length."""
    if not series_list:
        raise ValueError("nothing to save: empty series list")
    lengths = {len(s) for s in series_list}
    if len(lengths) != 1:
        raise ValueError(f"series lengths differ: {sorted(lengths)}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([s.name for s in series_list])
        for row in zip(*(s.values for s in series_list)):
            writer.writerow([repr(float(v)) for v in row])

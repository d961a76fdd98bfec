"""Command-line pipeline: generate / train / evaluate / plot / run.

One experiment = one JSON config (every field of ExperimentConfig, same
names). CLI flags override config fields; a missing config file just means
all defaults. Each setting is declared once, as an ExperimentConfig field
whose name is its JSON key and argparse dest and whose metadata holds its
flag; `dataset`, `beta1`, `beta2` and `eps` are JSON-only. `validate` checks
every type and value before any file is written. The `run` subcommand
chains the stages and writes a manifest listing every artifact it produced:

    out/
      dataset.csv               the data actually used (wide CSV)
      lstm_f1.tsfc ...          one checkpoint per (model, horizon)
      loss_lstm_f1.csv ...      per-epoch training loss
      report_lstm_f1.{csv,txt}  per-series scores + mean/sd rows
      summary.csv               all (model, horizon, series) rows in one table
      plot_<series>_<model>_f<h>.{svg,csv}
      manifest.json             artifacts, stage timings, per-pair training time

Every command builds its dataset once: `generate_series` reads the CSV or
runs the generator, and each series is normalized once for all stages. The
stages: generate writes dataset.csv with the writer the `generate` command
uses; train runs `_train_pair`, which trains a network and writes its
checkpoint and loss history; and the one forecast stage, `stage_evaluate`,
runs `_score_pair`, which loads a checkpoint once and returns the texts of
each series' score row (`reports`) and plot files (`plots`), written after
the last score: `plot` charts only, and `run` does both, timed as one.

Every command but `generate` maps its pair function through one `_pair_map`:
min(network pairs, usable CPUs) workers that each run BLAS on one thread,
forked from a one-thread parent and else spawned (the manifest's
`start_method`), or in-process with one. `run` opens one pool for both
stages, so the parent never holds a trained network.
Artifacts are byte-identical to a sequential run, but the progress lines of
different pairs may interleave. A script that calls `main` must do so under
the `__main__` check, because each spawned worker imports its main module.

`generate` maps its flags to generator parameters through GENERATOR_FLAGS;
a flag whose parameter the chosen generator does not take is an error.

Exit codes: 0 success, 2 usage/config/data error, 3 numeric failure during
training, 4 a worker process died (killed, say, by the OS when out of
memory): "a training worker died" while training, else "a scoring worker
died"; a MemoryError exits 2. `train`, `evaluate`, `plot` and `run` remove an
earlier manifest.json before their first write; a run that stops on an error
writes none, though pairs that finished training keep their files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from inspect import signature
from itertools import repeat
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__, svgchart
from .dataprep import (PartitionSpec, Series, denormalize, gen_activities,
                       gen_random_walk, load_csv, make_windows, normalize, save_csv)
from .evalkit import (EvalReport, ForecastSet, PersistenceBaseline, SeriesResult,
                      aggregate, evaluate, report_to_csv, report_to_text)
from .numkit import NumericError, Rng
from .training import TrainConfig, load_checkpoint, save_checkpoint, train


class ConfigError(ValueError):
    """Bad configuration, flags, or input data (exit code 2)."""


MODEL_CHOICES = ("lstm", "gru", "baseline")
GENERATORS = {"activities": gen_activities, "random-walk": gen_random_walk}
# Data source kind -> {parameter: type}: each generator's parameters after
# `rng`, typed by their defaults, and the keys of the csv source.
GENERATOR_PARAMS = {kind: {p.name: type(p.default)
                           for p in list(signature(gen).parameters.values())[1:]}
                    for kind, gen in GENERATORS.items()}
GENERATOR_PARAMS["csv"] = {"path": str, "date_column": bool}
# Command-line flag (argparse dest) -> (the generator parameter it sets, help).
GENERATOR_FLAGS = {"series": ("n_series", "generator series count"),
                   "length": ("length", "generator series length"),
                   "samples_per_day": ("samples_per_day", "samples per day"),
                   "high": ("high_level", "high-activity level"),
                   "low": ("low_level", "low-activity level"),
                   "noise_sd": ("noise_sd", "additive noise spread"),
                   "jitter": ("amplitude_jitter", "per-day amplitude jitter"),
                   "start": ("start", "random-walk start value"),
                   "step_sd": ("step_sd", "random-walk step spread")}


def _flag(flag: str, default, help_text: str, **argparse_kwargs):
    """A config field that the command-line `flag` sets; the field's
    metadata holds the flag and its other add_argument keywords."""
    metadata = {"flag": flag, "help": help_text, **argparse_kwargs}
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=metadata)
    return field(default=default, metadata=metadata)


def _fits(value, hint) -> bool:
    """Whether a JSON value has the type `hint`: a bool is not a number, and
    an int passes as a float."""
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(v, get_args(hint)[0]) for v in value)
    if get_origin(hint) is UnionType:
        return any(_fits(value, h) for h in get_args(hint))
    if isinstance(value, bool) and hint is not bool:
        return False
    return isinstance(value, (int, float) if hint is float else hint)


@dataclass
class ExperimentConfig:
    """Everything one experiment needs; serializes 1:1 to/from JSON.

    Each field is one JSON key. A field made with `_flag` is also set by
    its command-line flag; the others are JSON-only.
    """

    dataset: dict = field(default_factory=lambda: {"kind": "activities"})
    window: int = _flag("--window", 60, "input window length")
    horizons: list[int] = _flag("--horizons", [1, 20],
                                "comma-separated forecast horizons, e.g. 1,20")
    test_len: int = _flag("--test-len", 251, "held-out tail length")
    models: list[str] = _flag("--models", list(MODEL_CHOICES),
                              "comma-separated subset of lstm,gru,baseline")
    train_series_index: int = _flag("--train-series-index", 0,
                                    "which series to train on")
    epochs: int = _flag("--epochs", TrainConfig.epochs, "passes over the training windows")
    batch_size: int = _flag("--batch-size", TrainConfig.batch_size, "windows per Adam step")
    seed: int = _flag("--seed", TrainConfig.seed, "master RNG seed")
    units: int = _flag("--units", TrainConfig.units, "recurrent units per cell")
    shuffle: bool = _flag("--no-shuffle", TrainConfig.shuffle,
                          "keep sample order fixed across epochs")
    learning_rate: float = _flag("--learning-rate", TrainConfig.learning_rate,
                                 "Adam step size")
    beta1: float = TrainConfig.beta1
    beta2: float = TrainConfig.beta2
    eps: float = TrainConfig.eps
    grad_clip: float | None = _flag("--grad-clip", TrainConfig.grad_clip,
                                    "clip each batch's global gradient norm to this")
    out_dir: str = _flag("--out", "out", "output directory", metavar="OUT")
    report_units: str = _flag("--report-units", "normalized", "units of the scores",
                              choices=("normalized", "raw"))
    fit_bounds_on_train: bool = _flag("--fit-bounds-on-train", False,
                                      "fit normalization bounds on the training region only")
    plot_points: int = _flag("--plot-points", 100, "test steps per chart")
    plot_stride: int = _flag("--plot-stride", 20,
                             "origin spacing for multi-step forecast fans")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return asdict(self)

    def validate(self) -> None:
        hints = get_type_hints(type(self))
        for f in fields(self):
            value = getattr(self, f.name)
            if not _fits(value, hints[f.name]):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
            choices = f.metadata.get("choices")
            if choices and value not in choices:
                raise ConfigError(f"{f.name} must be one of {choices}, got {value!r}")

        kind = self.dataset.get("kind")
        if not isinstance(kind, str) or kind not in GENERATOR_PARAMS:
            raise ConfigError(f"dataset kind must be one of "
                              f"{', '.join(GENERATOR_PARAMS)}; got {kind!r}")
        params = {"kind": str, **GENERATOR_PARAMS[kind]}
        for name, value in self.dataset.items():
            if name not in params:
                raise ConfigError(f"unknown {kind} dataset parameter {name!r}")
            if not _fits(value, params[name]):
                raise ConfigError(f"{kind} dataset parameter {name} must be "
                                  f"{params[name].__name__}, got {value!r}")
        if kind == "csv" and "path" not in self.dataset:
            raise ConfigError("csv dataset needs a 'path' entry")

        if not self.horizons or len(set(self.horizons)) != len(self.horizons):
            raise ConfigError(
                f"horizons must be a non-empty list of distinct ints, got {self.horizons}")
        if (not self.models or not set(self.models) <= set(MODEL_CHOICES)
                or len(set(self.models)) != len(self.models)):
            raise ConfigError(f"models must be a non-empty list of distinct names "
                              f"from {MODEL_CHOICES}, got {self.models}")
        if self.train_series_index < 0:
            raise ConfigError(
                f"train_series_index must be >= 0, got {self.train_series_index}")
        if self.plot_points < 1 or self.plot_stride < 1:
            raise ConfigError("plot_points and plot_stride must be >= 1")
        # The training and windowing settings are checked by their owners.
        try:
            self.train_config()
            for horizon in self.horizons:
                PartitionSpec(self.window, horizon, self.test_len)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # The largest network's parameters, gradients and Adam's two moments,
        # plus one batch's yielded steps, against physical memory.
        try:
            memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        except (AttributeError, OSError, ValueError):  # not reported on this platform
            memory = -1
        networks, u = set(self.models) - {"baseline"}, self.units
        need = (32 * ((4 if "lstm" in networks else 3) * (u * u + 2 * u)
                      + max(self.horizons) * (u + 1)) + 56 * self.window * self.batch_size * u)
        if networks and 0 < memory < need:
            raise ConfigError(f"units={u} needs about {need / 2**30:.1f} GiB to train, "
                              f"more than the {memory / 2**30:.1f} GiB of memory")

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})


def generate_series(config: ExperimentConfig) -> list[Series]:
    """Materialize the configured dataset (generator or CSV)."""
    spec = dict(config.dataset)
    kind = spec.pop("kind")
    if kind == "csv":
        return load_csv(spec.pop("path"), **spec)
    return GENERATORS[kind](Rng(config.seed), **spec)


def _load(config: ExperimentConfig) -> tuple[list[Series], list[Series]]:
    """The configured series, raw and normalized: a command's one data pass."""
    series = generate_series(config)
    if config.train_series_index >= len(series):
        raise ConfigError(
            f"train_series_index {config.train_series_index} out of range: "
            f"dataset has {len(series)} series")
    spec = PartitionSpec(config.window, max(config.horizons), config.test_len)
    for s in series:
        spec.check_length(len(s))
    fit = config.fit_bounds_on_train
    sources = [normalize(s, fit_len=len(s) - config.test_len if fit else None)
               for s in series]
    for raw, s in zip(series, sources):
        if s.raw_min == s.raw_max and (config.report_units == "raw"
                                       or raw.values.min() != raw.values.max()):
            raise ConfigError(
                f"series {raw.name!r} is constant ({s.raw_min!r}) where its bounds are "
                f"fitted; only a series constant throughout can be scored, and only "
                f"in normalized units")
    return series, sources


def _pair_name(model: str, horizon: int) -> str:
    return f"{model}_f{horizon}"


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message, flush=True)


# ---------------------------------------------------------------------------
# Stages. Each takes the series it needs, raw and/or normalized, and returns
# what it adds to the manifest: the relative paths it wrote and, for train,
# its per-pair timings.
# ---------------------------------------------------------------------------

def _write_series(path: Path, series: list[Series], quiet: bool) -> str:
    """Write `series` as a wide CSV at `path`, making its directory; returns
    the file's name. The `generate` command and the generate stage share it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    save_csv(path, series)
    _say(quiet, f"wrote {len(series)} series x {len(series[0])} samples to {path}")
    return path.name


def stage_generate(config: ExperimentConfig, series: list[Series], quiet: bool) -> dict:
    return {"dataset_csv": _write_series(Path(config.out_dir) / "dataset.csv", series, quiet)}


def _worker_count(pairs: int) -> int:
    """Processes to train `pairs` networks on: one per usable CPU, at most
    one per pair."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(pairs, cpus)


def _start_method() -> str:
    """"fork" when /proc/self/task lists one thread, else "spawn"."""
    try:
        return "fork" if len(os.listdir("/proc/self/task")) == 1 else "spawn"
    except OSError:
        return "spawn"


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _single_blas_thread_env():
    """Set the BLAS thread variables to 1 for the processes started inside
    the block, so their BLAS never spawns a thread of its own; the parent's
    environment is restored on exit. The parent's BLAS is already loaded, so
    its own thread count does not change."""
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


def _network_pairs(config: ExperimentConfig) -> list[tuple[str, int]]:
    """The (model, horizon) pairs that have a network to train; a baseline
    has nothing to fit."""
    return [(model, horizon) for model in config.models if model != "baseline"
            for horizon in config.horizons]


@contextmanager
def _pair_map(config: ExperimentConfig):
    """Yield (map, pool): the one way the stages map a pair function over
    pairs, in pair order, and the manifest's {"workers", "start_method"}.
    With fewer than 2 workers it is the builtin `map`, in-process; else
    `map` of a pool of `workers` processes serving every stage in the block.
    It forks from a one-thread parent, where no other thread can hold a lock
    at fork time and BLAS has no thread pool to pass on, and spawns from any
    other (`_start_method`). After a failed pair, `map` starts no other, and
    leaving the pool waits for the running ones."""
    workers = _worker_count(len(_network_pairs(config)))
    if workers < 2:
        yield map, {"workers": workers, "start_method": "in-process"}
        return
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    method = _start_method()
    with _single_blas_thread_env(), ProcessPoolExecutor(
            workers, mp_context=get_context(method)) as pool:
        yield pool.map, {"workers": workers, "start_method": method}


def _train_pair(pair: tuple[str, int], source: Series, config: ExperimentConfig,
                quiet: bool) -> float:
    """Train the `pair` = (model, horizon) network on the normalized
    `source` and write its checkpoint and loss history; returns the
    training seconds.

    Module-level so that a worker can run it: it prints its own progress
    lines unless `quiet`.
    """
    model, horizon = pair
    name = _pair_name(model, horizon)
    spec = PartitionSpec(config.window, horizon, config.test_len)
    dataset = make_windows(source, spec, "train")
    _say(quiet, f"training {name} on {source.name!r} "
                f"({len(dataset)} windows, {config.epochs} epochs)")
    every = max(1, config.epochs // 10)

    def report(epoch, loss):
        if (epoch + 1) % every == 0:
            _say(quiet, f"  {name} epoch {epoch + 1}/{config.epochs} "
                        f"loss {loss:.6f}")

    start = time.perf_counter()
    checkpoint, history = train(model, dataset, config.train_config(),
                                progress=report)
    seconds = time.perf_counter() - start
    out = Path(config.out_dir)
    save_checkpoint(checkpoint, out / f"{name}.tsfc")
    (out / f"loss_{name}.csv").write_text("epoch,loss\n" + "".join(
        f"{e},{loss!r}\n" for e, loss in enumerate(history, start=1)), encoding="utf-8")
    return seconds


def stage_train(config: ExperimentConfig, sources: list[Series], quiet: bool,
                pair_map, pool: dict) -> dict:
    """Train every network pair through `pair_map`, which `_pair_map` made
    with `pool`; each pair writes its own files as it finishes."""
    Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    (Path(config.out_dir) / "manifest.json").unlink(missing_ok=True)  # as in stage_evaluate
    pairs = _network_pairs(config)
    results = pair_map(_train_pair, pairs, repeat(sources[config.train_series_index]),
                       repeat(config), repeat(quiet))
    names = [_pair_name(model, horizon) for model, horizon in pairs]
    seconds = {name: round(train_s, 3) for name, train_s in zip(names, results)}
    return {"checkpoints": {name: f"{name}.tsfc" for name in names},
            "loss_histories": {name: f"loss_{name}.csv" for name in names},
            "training": {**pool, "train_seconds": seconds}}


def _forecaster_for(config: ExperimentConfig, model: str, horizon: int):
    """Baseline is built on the spot; networks come from checkpoints."""
    if model == "baseline":
        return PersistenceBaseline(config.window, horizon)
    path = Path(config.out_dir) / f"{_pair_name(model, horizon)}.tsfc"
    if not path.exists():
        raise ConfigError(
            f"no checkpoint for {model} at horizon {horizon}: expected {path} "
            f"(run the train stage first)")
    checkpoint = load_checkpoint(path)
    if checkpoint.model.window != config.window:
        raise ConfigError(
            f"checkpoint {path} was trained with window="
            f"{checkpoint.model.window}, config says {config.window}")
    if checkpoint.model.horizon != horizon:
        raise ConfigError(
            f"checkpoint {path} was trained for horizon="
            f"{checkpoint.model.horizon}, config says {horizon}")
    return checkpoint.model


def _score_pair(pair: tuple[str, int], series: list[Series], sources: list[Series],
                config: ExperimentConfig, reports: bool,
                plots: bool) -> tuple[EvalReport | None, dict[str, str]]:
    """Forecast every series with the `pair` = (model, horizon) forecaster,
    loaded once; returns its report (None without `reports`) and its files
    as {file name: text}: a chart per series with `plots`, then the report's
    CSV and text with `reports`. Forecasts are in the configured report
    units. One forecast set is held at a time.

    Module-level so that a worker can run it; it writes nothing.
    """
    model, horizon = pair
    forecaster = _forecaster_for(config, model, horizon)
    normalized = config.report_units != "raw"
    spec = PartitionSpec(config.window, horizon, config.test_len)
    rows, files = [], {}
    for raw, source in zip(series, sources):
        forecasts, r, d = evaluate(forecaster, source, spec, normalized)
        rows.append(SeriesResult(raw.name, r, d))
        if plots:
            files.update(_plot_one(config, raw, source, forecasts, model, horizon))
    if not reports:
        return None, files
    report = aggregate(rows, model=model, horizon=horizon)
    name = _pair_name(model, horizon)
    files[f"report_{name}.csv"] = report_to_csv(report)
    files[f"report_{name}.txt"] = report_to_text(report)
    return report, files


def stage_evaluate(config: ExperimentConfig, series: list[Series],
                   sources: list[Series], quiet: bool, pair_map,
                   reports: bool = True, plots: bool = False) -> dict:
    """The one forecast stage: `_score_pair` for every (model, horizon)
    pair through `pair_map`, which gives each pair's score rows, with
    `reports`, and charts, with `plots`. Files are written in one loop
    after the last score, so a refused stage leaves the directory as it was.
    """
    pairs = [(model, horizon) for model in config.models for horizon in config.horizons]
    files = {}  # file name -> text, in creation order
    report_files = {}
    summary = ["model,horizon,series,rmse,da\n"]  # every pair's rows in one table
    for report, pair_files in pair_map(_score_pair, pairs, repeat(series), repeat(sources),
                                       repeat(config), repeat(reports), repeat(plots)):
        files.update(pair_files)
        if report is not None:
            name = _pair_name(report.model, report.horizon)
            report_files[name] = [file for file in pair_files if file.startswith("report_")]
            table = pair_files[report_files[name][0]]
            summary += [f"{report.model},{report.horizon},{line}\n"
                        for line in table.splitlines()[1:]]
            _say(quiet, f"{name}: mean RMSE {report.mean_rmse:.6f} "
                        f"(sd {report.sd_rmse:.6f}), mean DA {report.mean_da:.4f} "
                        f"(sd {report.sd_da:.4f})")

    artifacts = {}
    if reports:
        files["summary.csv"] = "".join(summary)
        report_files["summary"] = ["summary.csv"]
        artifacts["reports"] = report_files
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)  # a manifest marks a finished run
    for file, text in files.items():
        (out / file).write_text(text, encoding="utf-8")
    if plots:
        artifacts["plots"] = [file for file in files if file.startswith("plot_")]
        _say(quiet, f"wrote {len(artifacts['plots'])} plot files to {out}")
    return artifacts


def _plot_one(config: ExperimentConfig, series: Series, source: Series,
              forecasts: ForecastSet, model: str, horizon: int) -> dict[str, str]:
    """{svg name: svg, csv name: csv} charting `forecasts`, made from `source`
    (the normalized `series`) in the configured report units, against the
    actual test values."""
    # Plot in raw units when the series has a real range, else as-is.
    if source.raw_max > source.raw_min:
        bounds = (source.raw_min, source.raw_max)
        predicted = (forecasts.predicted if config.report_units == "raw"
                     else denormalize(forecasts.predicted, bounds))
        actual_all = series.values
    else:
        predicted = forecasts.predicted
        actual_all = source.values

    q = len(series)
    span = min(config.plot_points, config.test_len)
    test_start = q - config.test_len
    days = np.arange(span)
    actual = actual_all[test_start:test_start + span]

    title = f"{series.name} - {model}, {horizon} step(s) ahead"
    curves = [("actual", days, actual)]
    csv_lines = []
    if horizon == 1:
        curves.append(("predicted", days, predicted[:span, 0]))
        csv_lines.append("day,actual,predicted")
        for d in range(span):
            csv_lines.append(f"{d},{float(actual[d])!r},{float(predicted[d, 0])!r}")
    else:
        label = "forecast"
        csv_lines.append("day,step,actual,predicted")
        for start in range(0, span - horizon + 1, config.plot_stride):
            fan_days = np.arange(start, start + horizon)
            curves.append((label, fan_days, predicted[start]))
            label = ""  # one legend entry covers every fan
            for k in range(horizon):
                d = start + k
                csv_lines.append(
                    f"{d},{k + 1},{float(actual[d])!r},{float(predicted[start, k])!r}")

    svg = svgchart.line_chart(curves, title=title, x_label="test day",
                              y_label="value")
    base = f"plot_{series.name}_{_pair_name(model, horizon)}"
    return {f"{base}.svg": svg, f"{base}.csv": "\n".join(csv_lines) + "\n"}


def stage_plot(config: ExperimentConfig, series: list[Series],
               sources: list[Series], quiet: bool, pair_map) -> dict:
    """Chart every (model, horizon) pair's forecast of every series."""
    return stage_evaluate(config, series, sources, quiet, pair_map, reports=False,
                          plots=True)


@contextmanager
def _run_stage(name: str, timings: dict):
    """Time one stage of `run` into `timings`, naming the stage in any error."""
    t0 = time.perf_counter()
    try:
        yield
    except (ValueError, OSError, MemoryError) as exc:
        # One type for every data error: some, such as
        # UnicodeDecodeError, cannot be rebuilt from a message.
        raise ConfigError(f"{name} stage failed: {exc}") from exc
    except NumericError as exc:
        raise NumericError(f"{name} stage failed: {exc}") from exc
    except RuntimeError as exc:  # such as a dead worker, which `main` reports
        exc.stage = name
        raise
    timings[name] = round(time.perf_counter() - t0, 3)


def stage_run(config: ExperimentConfig, quiet: bool) -> dict:
    out = Path(config.out_dir)
    timings = {}
    artifacts = {}
    t_total = time.perf_counter()
    with _run_stage("generate", timings):
        series, sources = _load(config)
        (out / "manifest.json").unlink(missing_ok=True)  # a manifest marks a finished run
        artifacts.update(stage_generate(config, series, quiet))
    with _pair_map(config) as (pair_map, pool):  # one pool serves both stages
        with _run_stage("train", timings):
            artifacts.update(stage_train(config, sources, quiet, pair_map, pool))
        with _run_stage("evaluate", timings):  # plots too
            artifacts.update(stage_evaluate(config, series, sources, quiet, pair_map,
                                            plots=True))
    timings["total"] = round(time.perf_counter() - t_total, 3)

    manifest = {"version": __version__, "seed": config.seed,
                "config": config.to_dict(), "out_dir": str(out),
                "timings_seconds": timings, **artifacts}
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _say(quiet, f"run complete in {timings['total']:.1f}s; manifest at "
                f"{out / 'manifest.json'}")
    return {"manifest": "manifest.json", **artifacts}


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------

def _comma_list(item_type):
    """An argparse type: comma-separated `item_type` values as a list."""
    def parse(text: str) -> list:
        try:
            return [item_type(part.strip()) for part in text.split(",") if part.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {item_type.__name__}s, got {text!r}")
    return parse


def _generator_flags(parser: argparse.ArgumentParser, names) -> None:
    """Add the GENERATOR_FLAGS `names`, typed like their parameters."""
    types = {param: t for kind in GENERATORS for param, t in GENERATOR_PARAMS[kind].items()}
    for name in names:
        param, help_text = GENERATOR_FLAGS[name]
        parser.add_argument("--" + name.replace("_", "-"), type=types[param], help=help_text)


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON experiment config to start from")
    parser.add_argument("--dataset", choices=tuple(GENERATORS),
                        help="use a generator as the data source")
    parser.add_argument("--data", help="use a CSV file as the data source")
    parser.add_argument("--date-column", action="store_true",
                        help="first CSV column is a date/label to skip")
    _generator_flags(parser, ("length", "series"))
    hints = get_type_hints(ExperimentConfig)
    for f in [f for f in fields(ExperimentConfig) if "flag" in f.metadata]:
        kwargs = {k: v for k, v in f.metadata.items() if k != "flag"}
        hint = hints[f.name]
        if hint is bool:  # the flag flips the default
            kwargs.update(action="store_const", const=not f.default)
        elif get_origin(hint) is list:
            kwargs["type"] = _comma_list(get_args(hint)[0])
        else:  # int, float, str or `float | None`
            kwargs["type"] = get_args(hint)[0] if get_origin(hint) is UnionType else hint
        parser.add_argument(f.metadata["flag"], dest=f.name, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rnncast",
        description="Recurrent-network time-series forecasting experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset as CSV")
    gen.add_argument("kind", choices=tuple(GENERATORS))
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default="dataset.csv", help="output CSV path")
    _generator_flags(gen, GENERATOR_FLAGS)

    for name, help_text in (("train", "fit models, write checkpoints"),
                            ("evaluate", "score models on every series"),
                            ("plot", "write SVG/CSV forecast charts"),
                            ("run", "generate, train, evaluate, and plot")):
        _common_flags(sub.add_parser(name, help=help_text))
    for command in sub.choices.values():
        command.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    data = {}
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, RecursionError) as exc:  # too deep to parse
            raise ConfigError(f"{args.config}: not valid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{args.config}: config must be a JSON object")

    if args.data is not None and args.dataset is not None:
        raise ConfigError("--data and --dataset are mutually exclusive")
    if args.data is not None:
        data["dataset"] = {"kind": "csv", "path": args.data}
    elif args.dataset is not None:
        data["dataset"] = {"kind": args.dataset}
    for f in fields(ExperimentConfig):
        if "flag" in f.metadata and getattr(args, f.name) is not None:
            data[f.name] = getattr(args, f.name)
    config = ExperimentConfig.from_dict(data)  # the file with the flags applied
    kind = config.dataset["kind"]
    if args.date_column:
        if kind != "csv":
            raise ConfigError(f"--date-column does not apply to {kind} data")
        config.dataset["date_column"] = True
    # Generator flags are typed by argparse; the generator checks their range.
    config.dataset.update(_generator_params(args, kind))
    return config


def _generator_params(args, kind: str) -> dict:
    """The generator parameters that the GENERATOR_FLAGS among `args` set;
    a flag the `kind` data source does not take is an error."""
    params = {}
    for flag, (param, _) in GENERATOR_FLAGS.items():
        value = getattr(args, flag, None)
        if value is None:
            continue
        if param not in GENERATOR_PARAMS[kind]:
            raise ConfigError(f"--{flag.replace('_', '-')} does not apply to {kind} data")
        params[param] = value
    return params


def _run_generate(args) -> int:
    config = ExperimentConfig(
        dataset={"kind": args.kind, **_generator_params(args, args.kind)},
        seed=args.seed)
    _write_series(Path(args.out), generate_series(config), args.quiet)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "generate":
            return _run_generate(args)
        config = _config_from_args(args)
        if args.command == "run":
            stage_run(config, args.quiet)
            return 0
        series, sources = _load(config)
        with _pair_map(config) as (pair_map, pool):
            if args.command == "train":
                stage_train(config, sources, args.quiet, pair_map, pool)
            elif args.command == "evaluate":
                stage_evaluate(config, series, sources, args.quiet, pair_map)
            else:
                stage_plot(config, series, sources, args.quiet, pair_map)
        return 0
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:  # ConfigError and ParseError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # A worker that died. Imported here, not at the top: the pool
        # module loads multiprocessing and socket, which `import rnncast` skips.
        from concurrent.futures.process import BrokenProcessPool
        if not isinstance(exc, BrokenProcessPool):
            raise
        work = "training" if getattr(exc, "stage", args.command) == "train" else "scoring"
        print(f"error: a {work} worker died ({exc})", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""End-to-end CLI tests at desk scale.

A module-scoped `run` in a temp directory provides artifacts that the
evaluate/plot/manifest tests inspect, so the pipeline only trains once.
"""

import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import threading
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import fields

import numpy as np
import numpy.testing as npt
import pytest

from rnncast import __version__, cli
from rnncast.cells import ModelState, init_model
from rnncast.cli import (GENERATOR_FLAGS, GENERATOR_PARAMS, GENERATORS,
                         ConfigError, ExperimentConfig, _config_from_args,
                         build_parser, main)
from rnncast.dataprep import (MAX_LINE_CHARS, PartitionSpec, Series, WindowedDataset,
                              gen_random_walk, load_csv, normalize, save_csv)
from rnncast.evalkit import evaluate
from rnncast.numkit import Rng
from rnncast.training import Checkpoint, load_checkpoint, save_checkpoint, train

DESK_FLAGS = ["--dataset", "activities", "--length", "320", "--series", "3",
              "--window", "10", "--horizons", "1,3", "--test-len", "50",
              "--epochs", "4", "--units", "4", "--seed", "13"]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_run")
    rc = main(["run", *DESK_FLAGS, "--out", str(out), "--quiet"])
    assert rc == 0
    return out


def _digests(out) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


class TestConfig:
    def test_defaults_mirror_documented_experiment(self):
        cfg = ExperimentConfig()
        assert cfg.window == 60
        assert cfg.horizons == [1, 20]
        assert cfg.test_len == 251
        assert cfg.epochs == 200
        assert cfg.units == 128
        assert cfg.batch_size == 32
        assert cfg.train_series_index == 0
        assert cfg.models == ["lstm", "gru", "baseline"]

    def test_json_round_trip_is_lossless(self):
        cfg = ExperimentConfig(dataset={"kind": "random-walk", "length": 500},
                               horizons=[1, 5, 20], epochs=7, grad_clip=1.5,
                               report_units="raw", shuffle=False)
        blob = json.dumps(cfg.to_dict())
        back = ExperimentConfig.from_dict(json.loads(blob))
        assert back == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="momentum"):
            ExperimentConfig.from_dict({"momentum": 0.9})

    def test_unknown_generator_param_rejected(self):
        with pytest.raises(ConfigError, match="wavelength"):
            ExperimentConfig.from_dict(
                {"dataset": {"kind": "activities", "wavelength": 2}})

    @pytest.mark.parametrize("bad", [
        {"horizons": []}, {"horizons": [0]}, {"horizons": [1, 1]},
        {"models": ["svm"]}, {"models": []}, {"report_units": "percent"},
        {"window": 0}, {"train_series_index": -1},
        {"dataset": {"kind": "parquet"}},
        # Types, checked against each field's annotation.
        {"window": "60"}, {"horizons": 5}, {"horizons": [1, "20"]},
        {"models": ["lstm", 1]}, {"units": 2.5}, {"seed": 1.5}, {"seed": True},
        {"shuffle": "no"}, {"learning_rate": "0.01"}, {"grad_clip": False},
        {"dataset": "activities"},
        {"dataset": {"kind": "activities", "length": "500"}},
        {"dataset": {"kind": "random-walk", "start": None}},
        # csv keys, checked like generator parameters.
        {"dataset": {"kind": "csv", "path": "x.csv", "date_column": "no"}},
        {"dataset": {"kind": "csv", "path": 5}},
        {"dataset": {"kind": "csv", "path": "x.csv", "lenght": 500}},
        {"dataset": {"kind": "csv"}},
        # Values that TrainConfig, AdamState and PartitionSpec reject.
        {"epochs": 0}, {"batch_size": 0}, {"units": 0}, {"learning_rate": -1},
        {"grad_clip": 0}, {"beta1": 1.0}, {"eps": 0.0}, {"test_len": 0},
        {"test_len": 19},
        # Non-finite values, which json.load accepts as NaN and Infinity.
        {"learning_rate": float("nan")}, {"learning_rate": float("inf")},
        {"eps": float("nan")}, {"eps": float("inf")}, {"beta1": float("nan")},
        {"grad_clip": float("nan")}, {"grad_clip": float("inf")},
        # A repeated model, which would train and score one pair twice.
        {"models": ["lstm", "lstm"]},
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)

    def test_flags_override_config_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"epochs": 99, "units": 7, "seed": 1,
                                    "test_len": 10}))
        args = build_parser().parse_args(
            ["train", "--config", str(path), "--epochs", "3", "--horizons", "1"])
        cfg = _config_from_args(args)
        assert cfg.epochs == 3   # flag wins
        assert cfg.units == 7    # file survives
        assert cfg.seed == 1
        assert cfg.test_len == 10  # checked against the flags' horizons, not the file's

    @pytest.mark.parametrize("f", fields(ExperimentConfig), ids=lambda f: f.name)
    def test_each_flagged_field_is_set_by_exactly_its_flag(self, f):
        json_only = {"dataset", "beta1", "beta2", "eps"}
        assert ("flag" in f.metadata) == (f.name not in json_only)
        if f.name in json_only:
            return
        default = getattr(ExperimentConfig(), f.name)
        samples = {"int": ("300", 300), "float": ("0.5", 0.5),
                   "float | None": ("0.5", 0.5), "str": ("elsewhere", "elsewhere"),
                   "list[int]": ("2,3", [2, 3]), "list[str]": ("gru", ["gru"])}
        if f.type == "bool":
            argv, want = [f.metadata["flag"]], not default
        elif "choices" in f.metadata:
            want = next(c for c in f.metadata["choices"] if c != default)
            argv = [f.metadata["flag"], want]
        else:
            text, want = samples[f.type]
            argv = [f.metadata["flag"], text]
        cfg = _config_from_args(build_parser().parse_args(["train", *argv]))
        assert getattr(cfg, f.name) == want != default
        cfg_dict, default_dict = cfg.to_dict(), ExperimentConfig().to_dict()
        assert {k for k in cfg_dict if cfg_dict[k] != default_dict[k]} == {f.name}

    def test_every_generator_parameter_has_exactly_one_flag(self):
        flagged = [param for param, _ in GENERATOR_FLAGS.values()]
        generated = {p for kind in GENERATORS for p in GENERATOR_PARAMS[kind]}
        assert sorted(flagged) == sorted(generated)

    @pytest.mark.parametrize("models, gates", [(["gru"], 3), (["lstm", "gru", "baseline"], 4)])
    def test_network_larger_than_memory_refused(self, monkeypatch, models, gates):
        # Parameters, gradients and Adam's moments of the largest network,
        # four (G, U, U) stacks, and the storage it keeps between batches:
        # 7 (T + 1) steps' arrays, one block of 7 steps' buffers and the
        # views; estimated, never allocated.
        cfg = ExperimentConfig(models=models, units=5, window=7, batch_size=3,
                               horizons=[1, 4], test_len=10)
        need = (8 * (4 * (gates * (5 * 5 + 2 * 5) + 4 * (5 + 1)) + 4 * gates * 5 * 5
                     + 3 * 5 * ((gates + 3) * 8 + (2 * gates + 1) * 7 + 1) + 2 * gates * 5 * 9)
                + 8192 * 7 + 256 * 1024)
        for memory in (need, need - 1):
            pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory}
            monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
            if memory < need:
                with pytest.raises(ConfigError, match="units=5 needs about"):
                    cfg.validate()
            else:
                cfg.validate()

    @pytest.mark.parametrize("kind, units, window, batch", [("lstm", 2, 7, 3), ("gru", 16, 20, 8),
                                                             ("lstm", 32, 60, 16)])
    def test_memory_estimate_covers_one_epoch_of_training(self, monkeypatch, kind, units,
                                                         window, batch):
        # The estimate is at least the tracemalloc peak of one epoch, whose
        # last, partial batch reallocates the model's storage.
        cfg = ExperimentConfig(models=[kind], units=units, window=window, batch_size=batch,
                               horizons=[3], test_len=10, epochs=1)
        rng = np.random.default_rng(units)
        rows = 3 * batch + 1
        data = WindowedDataset(rng.uniform(-1, 1, (rows, window)), rng.uniform(-1, 1, (rows, 3)),
                               np.arange(rows))
        tracemalloc.start()
        try:
            train(kind, data, cfg.train_config())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": peak - 1}
        monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
        with pytest.raises(ConfigError, match=f"units={units} needs about"):
            cfg.validate()

    def test_memory_check_skipped_for_baseline_or_unknown_memory(self, monkeypatch):
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1 << 18}  # 1 GiB
        monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
        with pytest.raises(ConfigError, match="units=30000 needs about"):
            ExperimentConfig(units=30000).validate()
        ExperimentConfig(units=30000, models=["baseline"]).validate()

        def unreported(name):
            raise ValueError(f"unrecognized configuration name {name}")
        monkeypatch.setattr(cli.os, "sysconf", unreported)
        ExperimentConfig(units=30000).validate()

    def test_data_and_dataset_flags_conflict(self):
        args = build_parser().parse_args(
            ["train", "--data", "x.csv", "--dataset", "activities"])
        with pytest.raises(ConfigError, match="mutually exclusive"):
            _config_from_args(args)


class TestGenerate:
    def test_deterministic_output_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            rc = main(["generate", "activities", "--seed", "7", "--length", "64",
                       "--series", "2", "--out", str(path), "--quiet"])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_shape_matches_flags(self, tmp_path):
        path = tmp_path / "walk.csv"
        rc = main(["generate", "random-walk", "--length", "120", "--series", "10",
                   "--out", str(path), "--quiet"])
        assert rc == 0
        series = load_csv(path)
        assert len(series) == 10
        assert all(len(s) == 120 for s in series)

    @pytest.mark.parametrize("argv,flag", [
        (["generate", "activities", "--start", "5"], "--start"),
        (["generate", "random-walk", "--jitter", "0.1"], "--jitter"),
        (["run", "--data", "x.csv", "--length", "64"], "--length"),
        (["run", "--dataset", "activities", "--date-column"], "--date-column"),
    ], ids=[f"argv{k}" for k in range(4)])
    def test_flag_for_another_data_source_exits_2(self, tmp_path, capsys, argv, flag):
        rc = main([*argv, "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} does not apply to ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["activities", "--noise-sd", "nan"], ["activities", "--jitter", "nan"],
        ["random-walk", "--step-sd", "nan"],
    ], ids=["noise-sd", "jitter", "step-sd"])
    def test_nan_generator_parameter_exits_2_before_any_write(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        rc = main(["generate", *argv, "--length", "64", "--series", "1",
                   "--out", str(out), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_unwritable_path_exits_2(self, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("not a directory")
        rc = main(["generate", "activities", "--length", "64", "--series", "1",
                   "--out", str(blocker / "a.csv"), "--quiet"])
        assert rc == 2


class TestTrain:
    def test_one_checkpoint_per_model_horizon_pair(self, run_dir):
        for name in ("lstm_f1", "lstm_f3", "gru_f1", "gru_f3"):
            assert (run_dir / f"{name}.tsfc").exists(), name

    def test_loss_history_has_one_row_per_epoch(self, run_dir):
        lines = (run_dir / "loss_lstm_f1.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,loss"
        assert len(lines) == 1 + 4  # header + epochs
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3", "4"]

    def test_out_of_range_series_index_exits_2(self, tmp_path):
        rc = main(["train", *DESK_FLAGS, "--train-series-index", "99",
                   "--out", str(tmp_path), "--quiet"])
        assert rc == 2

    def test_out_of_range_series_index_exits_2_before_any_write(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", *DESK_FLAGS, "--series", "2", "--train-series-index", "5",
                   "--out", str(out), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "train_series_index 5 out of range: dataset has 2 series" in err
        assert not out.exists()

    @pytest.mark.parametrize("models", [[], ["--models", "baseline"]],
                             ids=["networks", "baseline only"])
    def test_series_too_short_for_window_exits_2_before_any_write(self, tmp_path, capsys,
                                                                  models):
        out = tmp_path / "out"
        rc = main(["run", "--dataset", "activities", "--length", "100", "--series", "2",
                   "--window", "60", "--test-len", "50", "--epochs", "1", "--units", "2",
                   *models, "--out", str(out), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: generate stage failed: series too short: Q=100, ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--epochs", "0"], ["--units", "0"], ["--batch-size", "0"],
        ["--test-len", "0"], ["--learning-rate", "-1"], ["--grad-clip", "0"],
        ["--learning-rate", "nan"], ["--learning-rate", "inf"],
        ["--grad-clip", "nan"], ["--grad-clip", "inf"],
    ])
    def test_bad_training_value_exits_2_before_any_write(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        rc = main(["run", *DESK_FLAGS, *argv, "--out", str(out), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_divergence_exits_3(self, tmp_path):
        rc = main(["train", *DESK_FLAGS, "--learning-rate", "1e200",
                   "--models", "lstm", "--horizons", "1",
                   "--out", str(tmp_path), "--quiet"])
        assert rc == 3

    def test_divergence_in_worker_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_worker_count", lambda pairs: pairs)
        rc = main(["train", *DESK_FLAGS, "--learning-rate", "1e200",
                   "--models", "lstm,gru", "--horizons", "1",
                   "--out", str(tmp_path), "--quiet"])
        assert rc == 3

    def test_dead_worker_exits_4_with_one_line(self, tmp_path, monkeypatch, capsys):
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        def dies(*args, **kwargs):
            raise BrokenProcessPool("A process in the process pool was terminated abruptly")

        monkeypatch.setattr(cli, "_worker_count", lambda pairs: 2)
        monkeypatch.setattr(ProcessPoolExecutor, "map", dies)  # the pool path of _pair_map
        out = tmp_path / "out"
        rc = main(["run", *DESK_FLAGS, "--out", str(out), "--quiet"])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error: a training worker died (") and err.count("\n") == 1
        assert not (out / "manifest.json").exists()

    def test_dead_scoring_worker_exits_4_with_one_line(self, tmp_path, monkeypatch, capsys):
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        def dies_scoring(pool, fn, *iterables):
            if fn is cli._score_pair:
                raise BrokenProcessPool("A process in the process pool was terminated abruptly")
            return map(fn, *iterables)  # the train stage succeeds

        monkeypatch.setattr(cli, "_worker_count", lambda pairs: 2)
        monkeypatch.setattr(ProcessPoolExecutor, "map", dies_scoring)
        out = tmp_path / "out"
        rc = main(["run", *DESK_FLAGS, "--out", str(out), "--quiet"])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error: a scoring worker died (") and err.count("\n") == 1
        assert sorted(p.name for p in out.glob("*.tsfc")) == [
            "gru_f1.tsfc", "gru_f3.tsfc", "lstm_f1.tsfc", "lstm_f3.tsfc"]
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command, work", [
        ("train", "training"), ("evaluate", "scoring"), ("plot", "scoring")])
    def test_dead_worker_of_a_standalone_command_exits_4_with_one_line(
            self, run_dir, tmp_path, monkeypatch, capsys, command, work):
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        def dies(*args, **kwargs):
            raise BrokenProcessPool("A process in the process pool was terminated abruptly")

        out = tmp_path / "out"
        shutil.copytree(run_dir, out)
        before = _digests(out)
        monkeypatch.setattr(cli, "_worker_count", lambda pairs: 2)
        monkeypatch.setattr(ProcessPoolExecutor, "map", dies)  # the pool path of _pair_map
        rc = main([command, *DESK_FLAGS, "--out", str(out), "--quiet"])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: a {work} worker died (") and err.count("\n") == 1
        if command == "train":  # which removes the finished run's manifest first
            del before["manifest.json"]
        assert _digests(out) == before


class TestEvaluate:
    def test_reports_written_per_pair(self, run_dir):
        for model in ("lstm", "gru", "baseline"):
            for horizon in (1, 3):
                assert (run_dir / f"report_{model}_f{horizon}.csv").exists()
                assert (run_dir / f"report_{model}_f{horizon}.txt").exists()

    def test_summary_row_count(self, run_dir):
        lines = (run_dir / "summary.csv").read_text().strip().split("\n")
        n_series, n_models, n_horizons = 3, 3, 2
        expected = 1 + n_models * n_horizons * (n_series + 2)
        assert len(lines) == expected

    def test_missing_checkpoint_exits_2_naming_pair(self, tmp_path, capsys):
        rc = main(["evaluate", *DESK_FLAGS, "--models", "lstm",
                   "--out", str(tmp_path), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "lstm" in err and "horizon 1" in err

    def test_window_mismatch_exits_2(self, run_dir, capsys):
        args = ["evaluate", *DESK_FLAGS, "--out", str(run_dir), "--quiet"]
        args[args.index("--window") + 1] = "11"  # checkpoints used 10
        rc = main(args)
        assert rc == 2
        assert "window" in capsys.readouterr().err

    @pytest.mark.parametrize("tensor", ["u_z", "w_extra"])
    def test_checkpoint_contradicting_header_exits_2(self, tmp_path, capsys, tensor):
        model = init_model("gru", 4, 10, 1, Rng(0))
        if tensor == "u_z":
            model.params["u_z"] = np.zeros((3, 3))  # header says units=4
        else:
            tensors = model.tensors()
            model.tensors = lambda: {**tensors, tensor: np.zeros(4)}
        save_checkpoint(Checkpoint(model, None, None, {}), tmp_path / "gru_f1.tsfc")
        rc = main(["evaluate", *DESK_FLAGS, "--models", "gru", "--horizons", "1",
                   "--out", str(tmp_path), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{tensor}'" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("fault", ["huge u_z", "non-utf8 name"])
    def test_corrupt_tensor_record_exits_2(self, tmp_path, capsys, fault):
        path = tmp_path / "gru_f1.tsfc"
        save_checkpoint(Checkpoint(init_model("gru", 4, 10, 1, Rng(0)), None, None, {}), path)
        blob = bytearray(path.read_bytes())
        at = blob.index(b"u_z")
        if fault == "huge u_z":  # (2**31, 2**30) float64s, 16 EiB
            blob[at + 4:at + 12] = struct.pack("<II", 2 ** 31, 2 ** 30)
        else:
            blob[at] = 0xFF
        path.write_bytes(bytes(blob))
        rc = main(["evaluate", *DESK_FLAGS, "--models", "gru", "--horizons", "1",
                   "--out", str(tmp_path), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_baseline_on_constant_dataset_scores_perfectly(self, tmp_path):
        data = tmp_path / "flat.csv"
        save_csv(data, [Series(f"c{i}", np.full(80, 5.0)) for i in range(3)])
        out = tmp_path / "out"
        rc = main(["evaluate", "--data", str(data), "--models", "baseline",
                   "--window", "6", "--horizons", "1,3", "--test-len", "20",
                   "--out", str(out), "--quiet"])
        assert rc == 0
        lines = (out / "report_baseline_f1.csv").read_text().strip().split("\n")
        mean_row = [line for line in lines if line.startswith("mean,")][0]
        _, mean_rmse, mean_da = mean_row.split(",")
        assert float(mean_rmse) == 0.0
        assert float(mean_da) == 1.0

    @pytest.mark.parametrize("flags,flat", [
        (["--report-units", "raw"], [7.0] * 120),
        (["--fit-bounds-on-train"], [7.0] * 100 + [float(i % 3) for i in range(20)]),
    ], ids=["raw units of a constant series", "flat only where bounds are fitted"])
    def test_series_without_range_exits_2_before_any_write(self, tmp_path, capsys,
                                                            flags, flat):
        data = tmp_path / "flat.csv"
        rows = "\n".join(f"{i % 7}.0,{v!r}" for i, v in enumerate(flat))
        data.write_text(f"a,flat\n{rows}\n", encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["run", "--data", str(data), "--window", "8", "--horizons", "1",
                   "--test-len", "20", "--epochs", "1", "--units", "2", *flags,
                   "--out", str(out), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: generate stage failed: series 'flat' ")
        assert err.count("\n") == 1
        assert not out.exists()

    SMALL_FLAGS = ["--dataset", "activities", "--length", "300", "--series", "2",
                   "--window", "10", "--horizons", "1", "--test-len", "40",
                   "--epochs", "2", "--units", "4", "--quiet"]

    @pytest.fixture
    def retrained_lstm(self, tmp_path):
        """A finished seed-1 run whose lstm is then retrained at seed 2, so a
        new evaluate would change its reports."""
        out = tmp_path / "out"
        assert main(["run", *self.SMALL_FLAGS, "--seed", "1", "--out", str(out)]) == 0
        assert main(["train", *self.SMALL_FLAGS, "--seed", "2", "--models", "lstm",
                     "--out", str(out)]) == 0
        return out

    def test_refused_evaluate_leaves_the_directory_as_it_was(self, retrained_lstm, capsys):
        (retrained_lstm / "gru_f1.tsfc").unlink()
        before = _digests(retrained_lstm)
        rc = main(["evaluate", *self.SMALL_FLAGS, "--seed", "2", "--models", "lstm,gru",
                   "--out", str(retrained_lstm)])
        assert rc == 2
        assert "no checkpoint for gru at horizon 1" in capsys.readouterr().err
        assert _digests(retrained_lstm) == before

    def test_non_finite_forecast_leaves_the_directory_as_it_was(self, retrained_lstm,
                                                                 capsys):
        path = retrained_lstm / "gru_f1.tsfc"
        checkpoint = load_checkpoint(path)
        checkpoint.model.params["b_out"][:] = np.inf
        save_checkpoint(checkpoint, path)
        before = _digests(retrained_lstm)
        rc = main(["evaluate", *self.SMALL_FLAGS, "--seed", "2", "--models", "lstm,gru",
                   "--out", str(retrained_lstm)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert _digests(retrained_lstm) == before


class TestPlot:
    def test_one_step_chart_has_two_polylines(self, run_dir):
        svg = (run_dir / "plot_activities_00_lstm_f1.svg").read_text()
        root = ET.fromstring(svg)
        polylines = root.findall("{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 2

    def test_multi_step_chart_has_actual_plus_fans(self, run_dir):
        svg = (run_dir / "plot_activities_00_gru_f3.svg").read_text()
        root = ET.fromstring(svg)
        # span = min(100, 50) = 50, stride 20, f=3: fans at 0, 20, 40.
        assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == 1 + 3

    def test_plot_csv_matches_denormalized_forecasts(self, run_dir):
        # Recompute the forecast set from the checkpoint and series bounds.
        checkpoint = load_checkpoint(run_dir / "lstm_f1.tsfc")
        series = load_csv(run_dir / "dataset.csv")[0]
        normalized = normalize(series)
        fs, _, _ = evaluate(checkpoint.model, normalized,
                            PartitionSpec(10, 1, 50), normalized=True)
        scale = normalized.raw_max - normalized.raw_min
        want = fs.predicted[:, 0] * scale + normalized.raw_min

        rows = (run_dir / "plot_activities_00_lstm_f1.csv").read_text()
        got = [float(line.split(",")[2])
               for line in rows.strip().split("\n")[1:]]
        npt.assert_allclose(got, want[:len(got)], atol=1e-9)

    def test_plot_csv_actual_column_is_raw_series(self, run_dir):
        series = load_csv(run_dir / "dataset.csv")[1]
        rows = (run_dir / "plot_activities_01_baseline_f1.csv").read_text()
        got = [float(line.split(",")[1]) for line in rows.strip().split("\n")[1:]]
        q, test_len = len(series), 50
        npt.assert_allclose(got, series.values[q - test_len:q - test_len + len(got)],
                            atol=1e-9)


class TestRun:
    def test_manifest_lists_existing_artifacts(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["version"] == __version__
        assert manifest["seed"] == 13
        paths = [manifest["dataset_csv"]]
        paths += list(manifest["checkpoints"].values())
        paths += list(manifest["loss_histories"].values())
        for group in manifest["reports"].values():
            paths += group
        paths += manifest["plots"]
        assert len(paths) == len(set(paths))
        for rel in paths:
            assert (run_dir / rel).exists(), rel

    def test_no_orphan_outputs(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        listed = {manifest["dataset_csv"], "manifest.json"}
        listed.update(manifest["checkpoints"].values())
        listed.update(manifest["loss_histories"].values())
        for group in manifest["reports"].values():
            listed.update(group)
        listed.update(manifest["plots"])
        on_disk = {p.name for p in run_dir.iterdir()}
        assert on_disk == listed

    def test_rerun_is_byte_identical_except_manifest(self, tmp_path):
        common = ["--window", "8", "--horizons", "1", "--test-len", "40",
                  "--epochs", "3", "--units", "4", "--seed", "5", "--quiet"]
        data = tmp_path / "input.csv"
        save_csv(data, gen_random_walk(Rng(5), n_series=2, length=200))
        sources = {
            "generated": ["--dataset", "random-walk", "--length", "200",
                          "--series", "2"],
            "csv-raw": ["--data", str(data), "--report-units", "raw",
                        "--fit-bounds-on-train"],
        }
        for source, flags in sources.items():
            out1, out2 = tmp_path / source / "r1", tmp_path / source / "r2"
            assert main(["run", *common, *flags, "--out", str(out1)]) == 0
            assert main(["run", *common, *flags, "--out", str(out2)]) == 0
            names1 = sorted(p.name for p in out1.iterdir())
            assert names1 == sorted(p.name for p in out2.iterdir())
            for name in names1:
                if name == "manifest.json":
                    continue  # contains out_dir and wall-clock timings
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), \
                    (source, name)

    def test_run_reads_data_and_forecasts_once(self, tmp_path, monkeypatch):
        data = tmp_path / "input.csv"
        save_csv(data, gen_random_walk(Rng(3), n_series=3, length=200))
        calls = {"load_csv": 0, "load_checkpoint": 0, "forecast": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "_worker_count", lambda pairs: 1)
        monkeypatch.setattr(cli, "load_csv", counted("load_csv", cli.load_csv))
        monkeypatch.setattr(cli, "load_checkpoint",
                            counted("load_checkpoint", cli.load_checkpoint))
        monkeypatch.setattr(ModelState, "forecast",
                            counted("forecast", ModelState.forecast))
        assert main(["run", "--data", str(data), "--window", "8",
                     "--horizons", "1,3", "--test-len", "40", "--epochs", "1",
                     "--units", "4", "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
        network_pairs, n_series = 2 * 2, 3
        assert calls == {"load_csv": 1, "load_checkpoint": network_pairs,
                         "forecast": network_pairs * n_series}

    def test_worker_pool_matches_in_process_bytes(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        env_before = dict(os.environ)
        outs = {}
        for workers in (1, 2):
            monkeypatch.setattr(cli, "_worker_count",
                                lambda pairs, n=workers: min(pairs, n))
            outs[workers] = tmp_path / f"w{workers}"
            assert main(["run", *DESK_FLAGS, "--out", str(outs[workers]),
                         "--quiet"]) == 0
            assert dict(os.environ) == env_before
        names = sorted(p.name for p in outs[1].iterdir())
        assert names == sorted(p.name for p in outs[2].iterdir())
        for name in names:
            if name != "manifest.json":
                assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name
        for workers, out in outs.items():
            training = json.loads((out / "manifest.json").read_text())["training"]
            assert training["workers"] == workers
            assert sorted(training["train_seconds"]) == [
                "gru_f1", "gru_f3", "lstm_f1", "lstm_f3"]
            assert all(s > 0 for s in training["train_seconds"].values())

    @pytest.fixture(scope="class")
    def pooled_run(self, tmp_path_factory):
        """A two-worker desk `run`, with the parent's checkpoint loads and
        network forecasts counted, and the same run in one process."""
        calls = {"load_checkpoint": 0, "forecast": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        outs = {}
        for workers in (1, 2):
            outs[workers] = tmp_path_factory.mktemp(f"pooled_w{workers}")
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cli, "_worker_count", lambda pairs, n=workers: min(pairs, n))
                if workers == 2:
                    mp.setattr(cli, "load_checkpoint",
                               counted("load_checkpoint", cli.load_checkpoint))
                    mp.setattr(ModelState, "forecast", counted("forecast", ModelState.forecast))
                assert main(["run", *DESK_FLAGS, "--out", str(outs[workers]),
                             "--quiet"]) == 0
        return outs, calls

    def test_pooled_run_scores_in_the_workers(self, pooled_run):
        outs, calls = pooled_run
        assert calls == {"load_checkpoint": 0, "forecast": 0}
        names = sorted(p.name for p in outs[1].iterdir())
        assert names == sorted(p.name for p in outs[2].iterdir())
        for name in names:
            if name != "manifest.json":
                assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name

    def test_manifest_times_each_stage(self, pooled_run):
        manifest = json.loads((pooled_run[0][2] / "manifest.json").read_text())
        timings = manifest["timings_seconds"]
        assert sorted(timings) == ["evaluate", "generate", "total", "train"]
        assert all(s >= 0 for s in timings.values())
        assert timings["total"] >= timings["train"] + timings["evaluate"] - 0.002  # rounding
        assert manifest["training"]["workers"] == 2
        assert sorted(manifest["training"]["train_seconds"]) == [
            "gru_f1", "gru_f3", "lstm_f1", "lstm_f3"]

    RERUN_FLAGS = ["--dataset", "activities", "--length", "320", "--series", "2",
                   "--window", "10", "--horizons", "1", "--test-len", "50",
                   "--epochs", "1", "--units", "2", "--models", "lstm", "--quiet"]

    @pytest.fixture
    def finished_run(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", *self.RERUN_FLAGS, "--seed", "1", "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
        return out

    def test_failed_rerun_leaves_no_manifest(self, finished_run):
        rc = main(["run", *self.RERUN_FLAGS, "--seed", "2", "--learning-rate", "1e200",
                   "--out", str(finished_run)])
        assert rc == 3
        assert (finished_run / "dataset.csv").exists()
        assert not (finished_run / "manifest.json").exists()

    def test_rerun_refused_at_generate_leaves_the_finished_run(self, finished_run):
        before = {p.name: p.read_bytes() for p in finished_run.iterdir()}
        rc = main(["run", *self.RERUN_FLAGS, "--seed", "2", "--train-series-index", "5",
                   "--out", str(finished_run)])
        assert rc == 2
        assert {p.name: p.read_bytes() for p in finished_run.iterdir()} == before

    def test_evaluate_after_train_reuses_checkpoints(self, run_dir, tmp_path):
        # Re-running evaluate alone against a copy of the run's directory
        # must succeed using the checkpoints already on disk.
        out = tmp_path / "out"
        shutil.copytree(run_dir, out)
        rc = main(["evaluate", *DESK_FLAGS, "--out", str(out), "--quiet"])
        assert rc == 0

    @pytest.mark.parametrize("command", ["train", "evaluate", "plot"])
    def test_command_into_a_finished_run_removes_its_manifest(self, finished_run, command):
        assert main([command, *self.RERUN_FLAGS, "--seed", "1",
                     "--out", str(finished_run)]) == 0
        assert not (finished_run / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["evaluate", "plot"])
    def test_refused_scoring_leaves_the_finished_run(self, finished_run, capsys, command):
        before = _digests(finished_run)
        rc = main([command, *self.RERUN_FLAGS, "--seed", "1", "--models", "lstm,gru",
                   "--out", str(finished_run)])
        assert rc == 2
        assert "no checkpoint for gru at horizon 1" in capsys.readouterr().err
        assert _digests(finished_run) == before  # the manifest too

    UNIT_FLAGS = {"normalized": [], "raw": ["--report-units", "raw", "--fit-bounds-on-train"]}

    @pytest.fixture(scope="class")
    def unit_runs(self, tmp_path_factory):
        """A desk `run` in each unit setting, which the standalone commands
        must reproduce."""
        outs = {}
        for units, flags in self.UNIT_FLAGS.items():
            outs[units] = tmp_path_factory.mktemp(f"run_{units}")
            assert main(["run", *DESK_FLAGS, *flags, "--out", str(outs[units]),
                         "--quiet"]) == 0
        return outs

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("units", ["normalized", "raw"])
    def test_train_evaluate_plot_write_the_run_bytes(self, unit_runs, tmp_path,
                                                     monkeypatch, units, workers):
        monkeypatch.setattr(cli, "_worker_count", lambda pairs: min(pairs, workers))
        out = tmp_path / "out"
        for command in ("train", "evaluate", "plot"):
            assert main([command, *DESK_FLAGS, *self.UNIT_FLAGS[units], "--out", str(out),
                         "--quiet"]) == 0
        expected = _digests(unit_runs[units])
        del expected["manifest.json"], expected["dataset.csv"]  # written by `run` alone
        assert _digests(out) == expected


class TestStartMethod:
    """`_pair_map` forks its workers from a one-thread process and spawns
    them from any other; either way a run writes the same bytes."""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc")
    def test_spawns_while_another_thread_runs(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert cli._start_method() == "spawn"
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc")
    def test_forks_from_a_fresh_interpreter_with_one_blas_thread(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        done = subprocess.run(
            [sys.executable, "-c", "from rnncast import cli; print(cli._start_method())"],
            env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "fork\n")

    # Forcing fork in this process, which may hold BLAS threads, makes
    # Python 3.12+ warn that the child may deadlock.
    @pytest.mark.filterwarnings("ignore:.*use of fork\\(\\) may lead to deadlocks")
    def test_forked_and_spawned_pools_write_the_in_process_bytes(self, tmp_path,
                                                                monkeypatch):
        outs = {}
        for method, workers in (("in-process", 1), ("fork", 2), ("spawn", 2)):
            monkeypatch.setattr(cli, "_worker_count", lambda pairs, n=workers: min(pairs, n))
            monkeypatch.setattr(cli, "_start_method", lambda method=method: method)
            outs[method] = tmp_path / method
            assert main(["run", *DESK_FLAGS, "--out", str(outs[method]), "--quiet"]) == 0
            training = json.loads((outs[method] / "manifest.json").read_text())["training"]
            assert (training["workers"], training["start_method"]) == (workers, method)
        names = sorted(p.name for p in outs["in-process"].iterdir())
        for method in ("fork", "spawn"):
            assert sorted(p.name for p in outs[method].iterdir()) == names
            for name in names:
                if name != "manifest.json":
                    assert (outs[method] / name).read_bytes() == \
                        (outs["in-process"] / name).read_bytes(), (method, name)


class TestMainEntry:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["explode"]) == 2
        capsys.readouterr()

    def test_invalid_config_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["train", "--config", str(bad), "--quiet"]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_deeply_nested_config_exits_2_with_one_line(self, tmp_path, capsys):
        # json.load raises RecursionError, not a ValueError, on deep nesting.
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        assert main(["train", "--config", str(deep), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {deep}: not valid JSON (") and err.count("\n") == 1

    def test_non_utf8_csv_exits_2_with_one_line_error(self, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes("caf\u00e9,b\n1.0,2.0\n3.0,4.0\n".encode("latin-1"))
        rc = main(["run", "--data", str(data), "--out", str(tmp_path / "out"),
                   "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: generate stage failed: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("header", [
        "a,a", "\ufeffa,a", "a,", "a, ", "a/b,c", "a\\b,c",
        '"a,b",c', '"a""b",c', '"a\nb",c', '"a\rb",c',
    ], ids=["duplicate", "bom duplicate", "empty", "blank", "slash", "backslash",
            "comma", "quote", "line break", "carriage return"])
    def test_bad_series_names_exit_2_before_training(self, tmp_path, capsys, header):
        data = tmp_path / "names.csv"
        rows = "\n".join(f"{i}.0,{i % 7}.0" for i in range(120))
        data.write_text(f"{header}\n{rows}\n", encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["run", "--data", str(data), "--window", "8", "--horizons", "1",
                   "--test-len", "20", "--epochs", "1", "--units", "2",
                   "--out", str(out), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: generate stage failed: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("header, row", [("a" * 200_000 + ",b", "1.0,2.0"),
                                             ("a,b", "1.0," + "2" * 200_000)],
                             ids=["header name", "data cell"])
    def test_field_over_csv_limit_exits_2_with_one_line(self, tmp_path, capsys,
                                                        header, row):
        data = tmp_path / "big.csv"
        data.write_text(f"{header}\n1.0,2.0\n{row}\n", encoding="utf-8")
        rc = main(["evaluate", "--data", str(data), "--models", "baseline",
                   "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data} line ") and "field larger than" in err
        assert err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_endless_line_exits_2_with_one_line(self, tmp_path):
        # The address-space limit is set in the child only: without a bound
        # on the line, the read ends in a MemoryError there.
        code = ("import resource, sys\n"
                "from rnncast.cli import main\n"
                "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
                "sys.exit(main(sys.argv[1:]))\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run(
            [sys.executable, "-c", code, "evaluate", "--data", "/dev/zero",
             "--models", "baseline", "--out", str(tmp_path / "out"), "--quiet"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            timeout=60)
        assert done.returncode == 2
        assert done.stderr == (f"error: /dev/zero line 1: longer than {MAX_LINE_CHARS} "
                               f"characters\n")

    def test_units_that_cannot_fit_exit_2_before_any_write(self, tmp_path):
        # The address-space limit is set in the child only: without the
        # estimate, the first weight draw ends in a MemoryError there.
        code = ("import resource, sys\n"
                "from rnncast.cli import main\n"
                "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
                "sys.exit(main(sys.argv[1:]))\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run(
            [sys.executable, "-c", code, "run", "--units", "30000",
             "--out", str(tmp_path / "out"), "--quiet"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            timeout=60)
        assert done.returncode == 2
        assert done.stderr.startswith("error: units=30000 needs about ")
        assert done.stderr.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("models", ["lstm", "lstm,gru"])
    def test_network_past_the_address_space_limit_exits_2_with_one_line(self, tmp_path,
                                                                         models):
        # The address-space limit is set in the child only. units=3000 passes
        # the estimate against physical memory, so its first large allocation
        # fails: in the parent with one pair, in a worker with two.
        code = ("import resource, sys\n"
                "from rnncast import cli\n"
                "cli._worker_count = lambda pairs: pairs\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                "sys.exit(cli.main(sys.argv[1:]))\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        out = tmp_path / "out"
        done = subprocess.run(
            [sys.executable, "-c", code, "run", "--dataset", "activities", "--length", "320",
             "--series", "2", "--window", "10", "--test-len", "50", "--epochs", "1",
             "--units", "3000", "--models", models, "--horizons", "1",
             "--out", str(out), "--quiet"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            timeout=120)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: train stage failed: Unable to allocate ")
        assert done.stderr.count("\n") == 1
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("module", ["rnncast", "rnncast.cli"])
    def test_python_dash_m_runs_the_command_line(self, tmp_path, module):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-m", module, "run", "--epochs", "0"],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 2
        errors = [line for line in done.stderr.splitlines() if line.startswith("error:")]
        assert errors == ["error: epochs must be >= 1, got 0"]

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


def _every_truncation_and_flip(blob: bytes) -> dict:
    """Each prefix of `blob`, and `blob` with one byte XORed by 0xFF, 0x80 or
    0x01, by label."""
    variants = {f"cut {n}": blob[:n] for n in range(len(blob))}
    for pos in range(len(blob)):
        for mask in (0xFF, 0x80, 0x01):
            flipped = bytearray(blob)
            flipped[pos] ^= mask
            variants[f"byte {pos} ^ {mask:#04x}"] = bytes(flipped)
    return variants


class TestInputSweeps:
    """Every truncation and single-byte flip of a small CSV and of a config
    file: `main` returns 0 or exits 2 with a one-line error, never raises.
    Every path is a flag outside the swept bytes, and the work directory is
    the test's own, so no variant can write anywhere else."""

    CSV = "a,b\n" + "".join(f"{i % 7}.{i % 3},{(i * 3) % 10}\n" for i in range(40))
    CONFIG = json.dumps({"window": 4, "horizons": [1, 2], "test_len": 10,
                         "models": ["baseline"], "report_units": "raw", "epochs": 2,
                         "units": 3, "beta1": 0.5, "grad_clip": 1.5, "plot_points": 7})

    def sweep(self, capsys, target, blob: bytes, argv: list) -> None:
        escaped = []
        for label, data in _every_truncation_and_flip(blob).items():
            target.write_bytes(data)
            try:
                rc = main(argv)
            except Exception as exc:  # RecursionError too
                escaped.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            err = capsys.readouterr().err
            if rc not in (0, 2) or (rc == 2 and not (err.startswith("error: ")
                                                     and err.count("\n") == 1)):
                escaped.append(f"{label}: exit {rc}, stderr {err!r}")
        assert not escaped, "\n".join(escaped[:10])

    def test_csv(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        blob = self.CSV.encode()
        assert len(blob) == 244
        self.sweep(capsys, tmp_path / "in.csv", blob,
                   ["evaluate", "--data", "in.csv", "--window", "4", "--horizons", "1,2",
                    "--test-len", "10", "--models", "baseline", "--out", "o", "--quiet"])

    def test_config(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "good.csv").write_text(self.CSV)
        blob = self.CONFIG.encode()
        assert len(blob) == 171
        self.sweep(capsys, tmp_path / "in.json", blob,
                   ["evaluate", "--config", "in.json", "--data", "good.csv", "--out", "o",
                    "--quiet"])

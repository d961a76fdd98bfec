"""Windowing, normalization, generator, and CSV tests.

make_windows is checked against an exhaustive enumeration oracle that
walks every candidate start index and applies the region rules directly.
"""

import os
import threading

import numpy as np
import numpy.testing as npt
import pytest

from rnncast import dataprep
from rnncast.dataprep import (ParseError, PartitionSpec,
                              Series, denormalize, gen_activities,
                              gen_random_walk, load_csv, make_windows,
                              normalize, save_csv)
from rnncast.numkit import Rng


def enumerate_windows_oracle(values, w, f, test_len, region):
    """Walk every start index and keep those the region rules admit."""
    q = len(values)
    boundary = q - test_len
    pairs = []
    for i in range(q):
        win_end = i + w
        tgt_end = win_end + f
        if tgt_end > q:
            continue
        if region == "train" and tgt_end <= boundary:
            pairs.append(i)
        if region == "test" and win_end >= boundary and tgt_end <= q:
            pairs.append(i)
    return pairs


class TestNormalize:
    def test_affine_map_by_hand(self):
        s = normalize(Series("s", [2.0, 4.0, 6.0]))
        npt.assert_allclose(s.values, [0.0, 0.5, 1.0])
        assert (s.raw_min, s.raw_max) == (2.0, 6.0)

    def test_unit_interval_series_unchanged(self):
        s = normalize(Series("s", [0.0, 0.25, 1.0]))
        npt.assert_allclose(s.values, [0.0, 0.25, 1.0])
        assert (s.raw_min, s.raw_max) == (0.0, 1.0)

    def test_constant_series_flag_maps_to_half(self):
        s = normalize(Series("flat", [3.0, 3.0, 3.0]))
        npt.assert_array_equal(s.values, [0.5, 0.5, 0.5])
        assert (s.raw_min, s.raw_max) == (3.0, 3.0)

    def test_fit_len_restricts_bounds_to_prefix(self):
        s = normalize(Series("s", [0.0, 10.0, 20.0, 40.0]), fit_len=3)
        assert (s.raw_min, s.raw_max) == (0.0, 20.0)
        npt.assert_allclose(s.values, [0.0, 0.5, 1.0, 2.0])

    def test_bounds_attain_zero_and_one(self):
        rng = np.random.default_rng(2)
        s = normalize(Series("s", rng.normal(size=500)))
        assert s.values.min() == 0.0
        assert s.values.max() == 1.0


class TestDenormalize:
    def test_inverse_affine_by_hand(self):
        npt.assert_allclose(denormalize([0.0, 0.5, 1.0], (2.0, 6.0)), [2.0, 4.0, 6.0])

    def test_equal_bounds_rejected(self):
        with pytest.raises(ValueError, match="bounds"):
            denormalize([0.5], (5.0, 5.0))

    def test_round_trip_identity_on_random_series(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            raw = rng.normal(loc=rng.uniform(-50, 50), scale=rng.uniform(0.1, 20),
                             size=rng.integers(2, 30))
            if raw.max() == raw.min():
                continue
            s = normalize(Series("s", raw))
            back = denormalize(s.values, (s.raw_min, s.raw_max))
            npt.assert_allclose(back, raw, atol=1e-12)


class TestMakeWindows:
    def test_default_scale_counts(self):
        values = np.arange(3032, dtype=float)
        s = Series("s", values)
        spec = PartitionSpec(window=60, horizon=1, test_len=251)
        train = make_windows(s, spec, "train")
        test = make_windows(s, spec, "test")
        assert len(train) == 2721
        assert len(test) == 251

    def test_hand_enumrated_tiny_case(self):
        # Q=10, w=3, f=2, test_len=4: train region is [0, 6).
        s = Series("s", np.arange(10, dtype=float))
        spec = PartitionSpec(window=3, horizon=2, test_len=4)
        train = make_windows(s, spec, "train")
        assert len(train) == 2
        npt.assert_array_equal(train.inputs, [[0, 1, 2], [1, 2, 3]])
        npt.assert_array_equal(train.targets, [[3, 4], [4, 5]])
        test = make_windows(s, spec, "test")
        assert len(test) == 3
        npt.assert_array_equal(test.inputs, [[3, 4, 5], [4, 5, 6], [5, 6, 7]])
        npt.assert_array_equal(test.targets, [[6, 7], [7, 8], [8, 9]])

    @pytest.mark.parametrize("region", ["train", "test"])
    def test_windows_are_read_only_views_of_the_series(self, region):
        s = Series("s", np.arange(100, dtype=float))
        ds = make_windows(s, PartitionSpec(window=10, horizon=3, test_len=20), region)
        for arr in (ds.inputs, ds.targets):
            assert np.shares_memory(arr, s.values)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    @pytest.mark.parametrize("q,w,f,test_len", [
        (30, 5, 1, 10), (30, 5, 3, 10), (48, 7, 2, 12), (100, 60, 1, 30),
        (20, 1, 1, 5), (15, 2, 4, 8), (3032, 60, 20, 251),
    ])
    def test_matches_enumeration_oracle(self, q, w, f, test_len):
        values = np.arange(q, dtype=float)
        s = Series("s", values)
        spec = PartitionSpec(window=w, horizon=f, test_len=test_len)
        for region in ("train", "test"):
            ds = make_windows(s, spec, region)
            want = enumerate_windows_oracle(values, w, f, test_len, region)
            npt.assert_array_equal(ds.origins, want)
            for row, i in enumerate(want):
                npt.assert_array_equal(ds.inputs[row], values[i:i + w])
                npt.assert_array_equal(ds.targets[row], values[i + w:i + w + f])
        n_train = len(make_windows(s, spec, "train"))
        assert n_train == (q - test_len) - w - f + 1

    def test_target_follows_window_immediately(self):
        s = Series("s", np.arange(40, dtype=float))
        ds = make_windows(s, PartitionSpec(4, 2, 10), "train")
        for row in range(len(ds)):
            assert ds.targets[row, 0] == ds.inputs[row, -1] + 1

    def test_no_training_target_enters_test_region(self):
        q, test_len = 50, 17
        s = Series("s", np.arange(q, dtype=float))
        ds = make_windows(s, PartitionSpec(6, 3, test_len), "train")
        assert ds.targets.max() < q - test_len

    def test_every_test_target_inside_test_region(self):
        q, test_len = 50, 17
        s = Series("s", np.arange(q, dtype=float))
        ds = make_windows(s, PartitionSpec(6, 3, test_len), "test")
        assert ds.targets.min() >= q - test_len
        assert len(ds) == test_len - 3 + 1

    def test_too_short_series_raises_with_dimensions(self):
        # Q = w + f + test_len - 1 leaves zero training windows.
        s = Series("s", np.arange(9, dtype=float))
        with pytest.raises(ValueError) as exc:
            make_windows(s, PartitionSpec(3, 2, 5), "train")
        msg = str(exc.value)
        for token in ("Q=9", "window=3", "horizon=2", "test_len=5"):
            assert token in msg

    def test_unknown_region_rejected(self):
        s = Series("s", np.arange(30, dtype=float))
        with pytest.raises(ValueError, match="region"):
            make_windows(s, PartitionSpec(3, 1, 5), "validate")

    def test_bounds_ride_along(self):
        s = normalize(Series("s", np.arange(30, dtype=float)))
        ds = make_windows(s, PartitionSpec(3, 1, 5), "train")
        assert (ds.raw_min, ds.raw_max) == (0.0, 29.0)


class TestPartitionSpec:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            PartitionSpec(0, 1, 10)
        with pytest.raises(ValueError):
            PartitionSpec(5, 0, 10)
        with pytest.raises(ValueError):
            PartitionSpec(5, 4, 3)  # test_len shorter than one horizon


class TestActivitiesGenerator:
    def test_noise_free_series_is_exactly_weekly_periodic(self):
        series = gen_activities(Rng(1), n_series=1, length=120, samples_per_day=4,
                                noise_sd=0.0, amplitude_jitter=0.0)
        v = series[0].values
        period = 7 * 4
        npt.assert_array_equal(v[period:], v[:-period])
        # 5 high days then 2 low days within each week
        npt.assert_array_equal(v[:20], np.full(20, 100.0))
        npt.assert_array_equal(v[20:28], np.full(8, 20.0))

    def test_weekly_autocorrelation_dominates(self):
        series = gen_activities(Rng(7), n_series=3, length=3584)
        period = 7 * 4
        for s in series:
            v = s.values
            r = np.corrcoef(v[:-period], v[period:])[0, 1]
            assert r > 0.8, f"{s.name}: lag-{period} autocorrelation {r:.3f}"

    def test_same_seed_identical(self):
        a = gen_activities(Rng(42), n_series=2, length=200)
        b = gen_activities(Rng(42), n_series=2, length=200)
        for sa, sb in zip(a, b):
            assert sa.name == sb.name
            npt.assert_array_equal(sa.values, sb.values)

    def test_values_nonnegative(self):
        series = gen_activities(Rng(3), n_series=2, length=500, low_level=2.0,
                                noise_sd=20.0)
        for s in series:
            assert s.values.min() >= 0.0

    def test_defaults_match_documented_scale(self):
        series = gen_activities(Rng(0))
        assert len(series) == 10
        assert all(len(s) == 3584 for s in series)

    def test_length_shorter_than_week_rejected(self):
        with pytest.raises(ValueError, match="week"):
            gen_activities(Rng(0), n_series=1, length=20, samples_per_day=4)


class TestRandomWalkGenerator:
    def test_zero_step_sd_is_constant(self):
        s = gen_random_walk(Rng(5), n_series=1, length=50, step_sd=0.0)[0]
        npt.assert_array_equal(s.values, np.full(50, 100.0))

    def test_all_values_positive(self):
        for seed in (0, 1, 2, 3):
            for s in gen_random_walk(Rng(seed), n_series=2, length=400, step_sd=0.05):
                assert s.values.min() > 0.0

    def test_same_seed_identical(self):
        a = gen_random_walk(Rng(9), n_series=2, length=100)
        b = gen_random_walk(Rng(9), n_series=2, length=100)
        for sa, sb in zip(a, b):
            npt.assert_array_equal(sa.values, sb.values)

    def test_defaults_match_documented_scale(self):
        series = gen_random_walk(Rng(0))
        assert len(series) == 10
        assert all(len(s) == 3032 for s in series)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            gen_random_walk(Rng(0), length=1)
        with pytest.raises(ValueError):
            gen_random_walk(Rng(0), start=0.0)


class TestCsv:
    def test_minimal_two_column_file(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("a,b\n1,4\n2,5\n3,6\n")
        series = load_csv(p)
        assert [s.name for s in series] == ["a", "b"]
        npt.assert_array_equal(series[0].values, [1, 2, 3])
        npt.assert_array_equal(series[1].values, [4, 5, 6])

    def test_date_column_skipped(self, tmp_path):
        p = tmp_path / "dated.csv"
        p.write_text("date,x\n2020-01-01,1.5\n2020-01-02,2.5\n")
        series = load_csv(p, date_column=True)
        assert [s.name for s in series] == ["x"]
        npt.assert_array_equal(series[0].values, [1.5, 2.5])

    def test_non_numeric_cell_cites_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        rows = ["x,y"] + [f"{i},{i}" for i in range(5)] + ["oops,7"]
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError, match="line 7"):
            load_csv(p)

    def test_ragged_row_cites_line(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("x,y\n1,2\n3\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ParseError, match="empty"):
            load_csv(p)

    def test_save_load_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        series = [Series("alpha", rng.normal(size=20)),
                  Series("beta", rng.uniform(1, 500, size=20))]
        p = tmp_path / "round.csv"
        save_csv(p, series)
        back = load_csv(p)
        for orig, got in zip(series, back):
            assert orig.name == got.name
            npt.assert_array_equal(orig.values, got.values)

    def test_line_over_the_limit_cites_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataprep, "MAX_LINE_CHARS", 8)
        p = tmp_path / "long.csv"
        p.write_text("x,y\n1,23456\n1,234567\n")  # 8 characters, then 9
        with pytest.raises(ParseError) as raised:
            load_csv(p)
        assert str(raised.value) == f"{p} line 3: longer than 8 characters"
        p.write_text("x,y\n1,23456\n2,34567\n")
        npt.assert_array_equal(load_csv(p)[1].values, [23456, 34567])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_csv_through_a_named_pipe_loads(self, tmp_path):
        text = "a,b\n" + "".join(f"{i}.5,{i * i}\n" for i in range(300))
        (tmp_path / "data.csv").write_text(text)
        pipe = tmp_path / "pipe.csv"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_text, args=(text,), daemon=True)
        writer.start()
        try:
            series = load_csv(pipe)
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        for piped, filed in zip(series, load_csv(tmp_path / "data.csv"), strict=True):
            assert piped.name == filed.name
            npt.assert_array_equal(piped.values, filed.values)

    def test_save_rejects_mismatched_lengths(self, tmp_path):
        with pytest.raises(ValueError, match="lengths"):
            save_csv(tmp_path / "x.csv",
                     [Series("a", [1.0, 2.0]), Series("b", [1.0, 2.0, 3.0])])

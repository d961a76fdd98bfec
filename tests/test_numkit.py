import numpy as np
import numpy.testing as npt
import pytest

from rnncast.numkit import Rng


class TestRng:
    def test_reseeding_reproduces_stream(self):
        first = Rng(42).uniform(0, 1, 4, 4)
        second_rng = Rng(42)
        replay_first = second_rng.uniform(0, 1, 4, 4)
        npt.assert_array_equal(first, replay_first)

        a = Rng(42)
        m1, m2 = a.uniform(0, 1, 3, 3), a.uniform(0, 1, 3, 3)
        assert not np.array_equal(m1, m2)
        b = Rng(42)
        npt.assert_array_equal(b.uniform(0, 1, 3, 3), m1)
        npt.assert_array_equal(b.uniform(0, 1, 3, 3), m2)

    def test_u64_stream_bit_identical(self):
        s1 = [Rng(987654321).next_u64() for _ in range(1000)]
        s2 = [Rng(987654321).next_u64() for _ in range(1000)]
        assert s1 == s2

    def test_uniform_sample_mean(self):
        draws = Rng(1234).uniform(0.0, 1.0, 1000, 1)
        assert 0.45 <= draws.mean() <= 0.55
        assert draws.min() >= 0.0 and draws.max() < 1.0

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Rng(1).uniform(1.0, 1.0, 2, 2)
        with pytest.raises(ValueError):
            Rng(1).uniform(2.0, 1.0, 2, 2)

    def test_normal_moments(self):
        draws = Rng(55).normal(4000, mean=2.0, sd=3.0)
        assert abs(draws.mean() - 2.0) < 0.2
        assert abs(draws.std() - 3.0) < 0.2

    def test_permutation_is_permutation(self):
        perm = Rng(9).permutation(100)
        assert sorted(perm.tolist()) == list(range(100))
        assert not np.array_equal(perm, np.arange(100))

    def test_permutation_deterministic(self):
        npt.assert_array_equal(Rng(77).permutation(50), Rng(77).permutation(50))

import hashlib
import math
from itertools import product

import numpy as np
import numpy.testing as npt
import pytest

from rnncast.dataprep import gen_activities, gen_random_walk
from rnncast.numkit import Rng

_U64_MASK = (1 << 64) - 1


def next_u64(rng: Rng) -> int:
    """The scalar SplitMix64 step on `rng`'s state, one output per call: the
    oracle that the package's vector stream is checked against."""
    rng._state = (rng._state + 0x9E3779B97F4A7C15) & _U64_MASK
    z = rng._state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64_MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64_MASK
    return z ^ (z >> 31)


def next_float(rng: Rng) -> float:
    """Uniform draw in [0, 1) with 53 bits of precision, from the oracle."""
    return (next_u64(rng) >> 11) * (1.0 / (1 << 53))


def below(rng: Rng, n: int) -> int:
    """Integer in [0, n) from the oracle, via the multiply-high reduction."""
    return (next_u64(rng) * n) >> 64


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
        s1 = Rng(987654321)._next_u64s(1000).tolist()
        s2 = Rng(987654321)._next_u64s(1000).tolist()
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


def _stream_digest(draws) -> str:
    """sha256 over each (rng, arrays) of `draws`: every array's dtype and
    bytes, then the rng's next u64, so that a change in how many values a
    call draws shows too."""
    h = hashlib.sha256()
    for rng, arrays in draws:
        for a in arrays:
            h.update(a.dtype.str.encode() + a.tobytes())
        h.update(next_u64(rng).to_bytes(8, "little"))
    return h.hexdigest()


# (n_series, length, samples_per_day, (high, low), noise_sd, jitter); a JSON
# config can give integer levels.
ACTIVITY_SETTINGS = list(product((1, 2), (28, 29, 3584), (1, 4),
                                 ((100.0, 20.0), (100, 20)), (0.0, 5.0), (0.0, 0.1)))
# (n_series, length, start, step_sd); length 1000 draws an odd count of steps.
WALK_SETTINGS = list(product((1, 2), (2, 3, 1000), (100.0, 1), (0.0, 0.015)))


def _activity_draws():
    for seed, (n, length, spd, (high, low), noise, jitter) in enumerate(ACTIVITY_SETTINGS):
        rng = Rng(seed)
        yield rng, [s.values for s in gen_activities(rng, n, length, spd, high, low,
                                                        noise, jitter)]


def _walk_draws():
    for seed, (n, length, start, step_sd) in enumerate(WALK_SETTINGS):
        rng = Rng(seed)
        yield rng, [s.values for s in gen_random_walk(rng, n, length, start, step_sd)]


def _normal_draws():
    for seed, (n, (mean, sd)) in enumerate(product((0, 1, 2, 3, 1001),
                                                   ((0.0, 1.0), (2.0, 3.0), (0.0, 0.0)))):
        rng = Rng(seed)
        yield rng, [rng.normal(n, mean, sd)]


def _permutation_draws():
    for n in (0, 1, 2, 790):
        rng = Rng(n)
        yield rng, [rng.permutation(n)]


class TestPinnedStreams:
    """The generators' output bytes and the draws they consume, pinned to
    digests of the loop-per-draw implementation: a faster generator must
    give the same series."""

    @pytest.mark.parametrize("draws, expected", [
        (_activity_draws, "9f1c71d1a6d5137a43d731e4bd9ea137989f9f0925b2efed5e00a819439b8cee"),
        (_walk_draws, "94072dcee88fa526468ec40fe3ad65a5d92c35bac108db85ae0040638b5b93f4"),
        (_normal_draws, "c3547127097a2713db276e4c74b82f787c42e5fe27ec9948a9f6d803e900dc38"),
        (_permutation_draws, "c0032a1ee7aba8ae59c5c8bc89d9f3805076b6fa3198bb1f5fdf34370773daa5"),
    ], ids=["gen_activities", "gen_random_walk", "normal", "permutation"])
    def test_digest(self, draws, expected):
        assert _stream_digest(draws()) == expected



class TestVectorStream:
    """The vector stream is the scalar `next_u64` stream, n at a time, and
    `uniform` built on it gives the per-draw loop's bytes."""

    @pytest.mark.parametrize("seed, shape", list(product(
        (0, 1, 12345678901234567, 2**64 - 1), ((1, 1), (3, 7), (512, 1), (128, 128)))))
    def test_matches_the_scalar_stream_and_leaves_the_same_state(self, seed, shape):
        n = shape[0] * shape[1]
        vector, scalar = Rng(seed), Rng(seed)
        draws = vector._next_u64s(n)
        assert draws.dtype == np.uint64
        assert draws.tolist() == [next_u64(scalar) for _ in range(n)]
        assert next_u64(vector) == next_u64(scalar)

        lo, hi = -0.25, 0.75
        got = vector.uniform(lo, hi, *shape)
        want = np.array([lo + (hi - lo) * next_float(scalar) for _ in range(n)])
        assert got.shape == shape and got.tobytes() == want.tobytes()
        assert next_u64(vector) == next_u64(scalar)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 790, 1001, 2914])
    def test_permutation_and_normal_match_the_per_draw_loops(self, n):
        vector, scalar = Rng(n), Rng(n)
        want = np.arange(n)  # Fisher-Yates, one oracle draw per swap
        for i in range(n - 1, 0, -1):
            j = below(scalar, i + 1)
            want[i], want[j] = want[j], want[i]
        got = vector.permutation(n)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert next_u64(vector) == next_u64(scalar)

        pairs = []  # Box-Muller, two oracle draws per pair
        for _ in range(0, n, 2):
            radius = math.sqrt(-2.0 * math.log(1.0 - next_float(scalar)))
            angle = 2.0 * math.pi * next_float(scalar)
            pairs += (radius * math.cos(angle), radius * math.sin(angle))
        want = 2.0 + 3.0 * np.array(pairs[:n])
        got = vector.normal(n, 2.0, 3.0)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert next_u64(vector) == next_u64(scalar)

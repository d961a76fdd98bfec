"""The package's error types and its seeded RNG.

ShapeError and NumericError are what the other modules raise for operands
of the wrong shape and for results that leave the finite float64 range. The
RNG is one SplitMix64 stream, drawn n outputs at a time as a uint64 array,
so streams are reproducible bit-for-bit from a 64-bit seed on any platform.
"""

from __future__ import annotations

import math

import numpy as np

_U64_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64's state increment


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class NumericError(ArithmeticError):
    """A numeric result left the finite float64 range."""


class Rng:
    """SplitMix64 pseudo-random generator.

    Single-owner: one consumer advances the state. The raw u64 stream is
    platform-independent; derived floats use only exact dyadic arithmetic.
    """

    def __init__(self, seed: int):
        self._state = int(seed) & _U64_MASK

    def _next_u64s(self, n: int) -> np.ndarray:
        """The next `n` outputs as a uint64 array. Output k adds k·_GOLDEN
        to the state, then mixes z ^= z >> 30, z *= 0xBF58476D1CE4E5B9,
        z ^= z >> 27, z *= 0x94D049BB133111EB, z ^= z >> 31, all mod 2**64
        as numpy's uint64 arithmetic wraps; the state advances n steps."""
        z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN) + np.uint64(self._state)
        self._state = (self._state + n * _GOLDEN) & _U64_MASK
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def _unit(self, n: int) -> np.ndarray:
        """`n` uniform draws in [0, 1) with 53 bits of precision."""
        return (self._next_u64s(n) >> np.uint64(11)) * (1.0 / (1 << 53))

    def uniform(self, lo: float, hi: float, rows: int, cols: int) -> np.ndarray:
        """Matrix of i.i.d. uniform draws in [lo, hi), row-major fill order."""
        if not lo < hi:
            raise ValueError(f"uniform: need lo < hi, got [{lo}, {hi})")
        if rows < 1 or cols < 1:
            raise ValueError(f"uniform: dimensions must be positive, got {rows}x{cols}")
        return (lo + (hi - lo) * self._unit(rows * cols)).reshape(rows, cols)

    def normal(self, n: int, mean: float = 0.0, sd: float = 1.0) -> np.ndarray:
        """1-D array of Gaussian draws via Box-Muller on the uniform stream."""
        if n < 0:
            raise ValueError(f"normal: n must be nonnegative, got {n}")
        if sd < 0:
            raise ValueError(f"normal: sd must be nonnegative, got {sd}")
        # Two uniforms give two draws; an odd n drops the last sine. math's
        # log, cos and sin, not numpy's: numpy's log differs in the last bit.
        units, out = self._unit(2 * ((n + 1) // 2)).tolist(), []
        for u1, u2 in zip(units[::2], units[1::2]):
            radius = math.sqrt(-2.0 * math.log(1.0 - u1))  # 1 - u1 in (0, 1]
            angle = 2.0 * math.pi * u2
            out += (radius * math.cos(angle), radius * math.sin(angle))
        return mean + sd * np.array(out[:n])

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of range(n): swap i with the multiply-high
        reduction (z * (i + 1)) >> 64, for i from n-1 down to 1."""
        perm = list(range(n))
        for i, z in zip(range(n - 1, 0, -1), self._next_u64s(max(n - 1, 0)).tolist()):
            j = (z * (i + 1)) >> 64
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=int)  # np.arange's dtype, also when n is 0

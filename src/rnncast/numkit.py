"""The package's error types and its seeded RNG.

ShapeError and NumericError are what the other modules raise for operands
of the wrong shape and for results that leave the finite float64 range. The
RNG is SplitMix64, so streams are reproducible bit-for-bit from a 64-bit
seed on any platform.
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

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _U64_MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64_MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64_MASK
        return z ^ (z >> 31)

    def _next_u64s(self, n: int) -> np.ndarray:
        """The next `n` outputs of next_u64 as a uint64 array, in one pass:
        the state advances by `n` steps. numpy's uint64 arithmetic wraps
        mod 2**64, as the masks in next_u64 do."""
        z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN) + np.uint64(self._state)
        self._state = (self._state + n * _GOLDEN) & _U64_MASK
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def next_float(self) -> float:
        """Uniform draw in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniform(self, lo: float, hi: float, rows: int, cols: int) -> np.ndarray:
        """Matrix of i.i.d. uniform draws in [lo, hi), row-major fill order."""
        if not lo < hi:
            raise ValueError(f"uniform: need lo < hi, got [{lo}, {hi})")
        if rows < 1 or cols < 1:
            raise ValueError(f"uniform: dimensions must be positive, got {rows}x{cols}")
        unit = (self._next_u64s(rows * cols) >> np.uint64(11)) * (1.0 / (1 << 53))
        return (lo + (hi - lo) * unit).reshape(rows, cols)

    def normal(self, n: int, mean: float = 0.0, sd: float = 1.0) -> np.ndarray:
        """1-D array of Gaussian draws via Box-Muller on the uniform stream."""
        if n < 0:
            raise ValueError(f"normal: n must be nonnegative, got {n}")
        if sd < 0:
            raise ValueError(f"normal: sd must be nonnegative, got {sd}")
        out = []
        for _ in range(0, n, 2):  # two uniforms give two draws; an odd n drops a sine
            u1 = 1.0 - self.next_float()  # (0, 1]; keeps log() finite
            radius = math.sqrt(-2.0 * math.log(u1))
            angle = 2.0 * math.pi * self.next_float()
            out += (radius * math.cos(angle), radius * math.sin(angle))
        return mean + sd * np.array(out[:n])

    def below(self, n: int) -> int:
        """Integer in [0, n) via the multiply-high reduction."""
        if n < 1:
            raise ValueError(f"below: n must be positive, got {n}")
        return (self.next_u64() * n) >> 64

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of range(n), driven by this stream."""
        perm = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = self.below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm

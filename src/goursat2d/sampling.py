"""Deterministic sample-field and probe-point generators.

Verification suites need two kinds of inputs: smooth random grid fields (for
norm and inequality checks, where "smooth" keeps discretization error well
below the inequality margins) and low-discrepancy point sets (for scanning
growth/boundedness assumptions over the domain and a ball of states).  Both
generators are deterministic given their seed so failing samples can be
replayed exactly.

Every seeded draw of the package comes from ``_PCG64``, an integer-arithmetic
copy of the stream of ``np.random.default_rng(seed)`` for the draws made here
(``uniform`` and ``shuffle``), so that no caller imports ``numpy.random``.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import Grid, GridField

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def _seed_words(seed: int) -> list[int]:
    """``np.random.SeedSequence(seed).generate_state(4, np.uint64)`` as ints.

    The seed's 32-bit words, low word first, are hashed into a pool of four
    words; words beyond the fourth are mixed in after the pool is mixed.  The
    pool is then hashed out to eight 32-bit words, read little-endian in pairs.
    """
    entropy = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hash_a = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * 0x931E8875 & _MASK32
        value = value * hash_a & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = 0xCA01F9DD * x - 0x4973F715 * y & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_b = 0x8B51F9DD
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * 0x58F38DED & _MASK32
        value = value * hash_b & _MASK32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class _PCG64:
    """The stream of ``np.random.default_rng(seed)``, bit for bit, for the two
    draws the package makes: ``uniform`` and ``shuffle`` of a 1-D array of
    fewer than 2**32 items.

    PCG64 (M. E. O'Neill, "PCG: A family of simple fast space-efficient
    statistically good algorithms for random number generation", 2014) is a
    128-bit LCG whose output is the XSL-RR permutation of the new state,
    seeded by SeedSequence as numpy seeds it.  A 32-bit draw takes the low
    half of a 64-bit output and keeps the high half for the next 32-bit draw.
    """

    _MULT = 0x2360ED051FC65DA44385DF649FCCF645

    def __init__(self, seed: int):
        w0, w1, w2, w3 = _seed_words(seed)
        self._inc = (w2 << 64 | w3) << 1 & _MASK128 | 1
        self._state = 0
        self._next64()
        self._state = self._state + (w0 << 64 | w1) & _MASK128
        self._next64()
        self._half = None

    def _next64(self) -> int:
        self._state = state = self._state * self._MULT + self._inc & _MASK128
        rot = state >> 122
        x = (state >> 64 ^ state) & _MASK64
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._half is not None:
            value, self._half = self._half, None
            return value
        value = self._next64()
        self._half = value >> 32
        return value & _MASK32

    def _double(self) -> float:
        return (self._next64() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float, size: int | None = None):
        """``low + (high - low)·u`` with u uniform on [0, 1): a float, or an
        array of ``size`` of them."""
        span = high - low
        if size is None:
            return low + span * self._double()
        return np.array([low + span * self._double() for _ in range(size)])

    def shuffle(self, x: np.ndarray) -> None:
        """Permute the 1-D array ``x`` in place: Fisher–Yates from the last
        index down, each index drawn by masked rejection."""
        items = x.tolist()
        for i in range(len(items) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next32() & mask
            while j > i:
                j = self._next32() & mask
            items[i], items[j] = items[j], items[i]
        x[:] = items


def random_smooth_field(grid: Grid, n: int, rng: np.random.Generator | _PCG64) -> GridField:
    """A smooth O(1)-scale random field: constant plus low trig modes.

    Each component is c₀ + Σ_{k=1..3} (a_k sin(kπx + φ_k) + b_k cos(kπy + ψ_k)
    + d_k sin(kπx) sin(kπy)) with amplitudes shrinking like 1/k², so first and
    second derivatives stay moderate and quadrature error stays O(h²) with a
    small constant.  The modes are separable, so they are evaluated on the
    node vector and broadcast over the grid.  ``rng`` is a numpy
    ``Generator`` or the package stream ``_PCG64``; only its ``uniform`` is
    called, so the two give the same field for the same seed.
    """
    x = grid.nodes[:, None]
    y = grid.nodes[None, :]
    P = grid.npoints
    vals = np.empty((P, P, n))
    for c in range(n):
        comp = np.full((P, P), rng.uniform(-1.0, 1.0))
        for k in range(1, 4):
            a, b, d = rng.uniform(-1.0, 1.0, 3) / k**2
            phi, psi = rng.uniform(0.0, 2.0 * np.pi, 2)
            comp += a * np.sin(k * np.pi * x + phi)
            comp += b * np.cos(k * np.pi * y + psi)
            comp += d * np.sin(k * np.pi * x) * np.sin(k * np.pi * y)
        vals[:, :, c] = comp
    return GridField(grid, vals)


def _first_primes(count: int) -> list[int]:
    """The first ``count`` primes, by trial division."""
    primes, k = [], 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def halton_points(count: int, dim: int, seed: int) -> np.ndarray:
    """``count`` scrambled-Halton points in [0, 1)^dim, shape (count, dim).

    Coordinate ``c`` is the radical inverse of the point index in the c-th
    prime base ``b`` with every digit position scrambled by its own random
    permutation of ``0..b-1`` (Owen's randomized Halton sequence, A. B. Owen,
    "A randomized Halton algorithm in R", arXiv:1706.02808, 2017).  Digit
    positions j = 1, 2, ... run while ``1 - b**-j < 1`` in binary64.
    The permutations are drawn from ``_PCG64(seed)``, the stream of
    ``np.random.default_rng(seed)``, in the same order as
    ``scipy.stats.qmc.Halton(d=dim, scramble=True, seed=seed)``, whose output
    this reproduces bit for bit.
    """
    rng = _PCG64(seed)
    points = np.empty((count, dim))
    for c, b in enumerate(_first_primes(dim)):
        perm = np.repeat(np.arange(b)[None], math.ceil(54 / math.log2(b)) - 1, axis=0)
        for row in perm:
            rng.shuffle(row)
        q = np.arange(count)
        v = np.zeros(count)
        b2r = 1.0 / b
        for j in range(perm.shape[0]):
            r = q % b
            q //= b
            v += perm[j, r] * b2r
            b2r /= b
        points[:, c] = v
    return points

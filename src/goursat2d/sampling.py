"""Deterministic sample-field and probe-point generators.

Verification suites need two kinds of inputs: smooth random grid fields (for
norm and inequality checks, where "smooth" keeps discretization error well
below the inequality margins) and low-discrepancy point sets (for scanning
growth/boundedness assumptions over the domain and a ball of states).  Both
generators are deterministic given their seed so failing samples can be
replayed exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import Grid, GridField


def random_smooth_field(grid: Grid, n: int, rng: np.random.Generator) -> GridField:
    """A smooth O(1)-scale random field: constant plus low trig modes.

    Each component is c₀ + Σ_{k=1..3} (a_k sin(kπx + φ_k) + b_k cos(kπy + ψ_k)
    + d_k sin(kπx) sin(kπy)) with amplitudes shrinking like 1/k², so first and
    second derivatives stay moderate and quadrature error stays O(h²) with a
    small constant.  The modes are separable, so they are evaluated on the
    node vector and broadcast over the grid.
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
    """The first ``count`` primes, from a sieve grown until it holds enough."""
    limit = 16
    while True:
        sieve = np.ones(limit, dtype=bool)
        sieve[:2] = False
        for p in range(2, math.isqrt(limit - 1) + 1):
            if sieve[p]:
                sieve[p * p::p] = False
        primes = np.flatnonzero(sieve)
        if len(primes) >= count:
            return [int(p) for p in primes[:count]]
        limit *= 2


def halton_points(count: int, dim: int, seed: int) -> np.ndarray:
    """``count`` scrambled-Halton points in [0, 1)^dim, shape (count, dim).

    Coordinate ``c`` is the radical inverse of the point index in the c-th
    prime base ``b`` with every digit position scrambled by its own random
    permutation of ``0..b-1`` (Owen's randomized Halton sequence, A. B. Owen,
    "A randomized Halton algorithm in R", arXiv:1706.02808, 2017).  Digit
    positions j = 1, 2, ... run while ``1 - b**-j < 1`` in binary64.
    The permutations are drawn from ``np.random.default_rng(seed)`` in the
    same order as ``scipy.stats.qmc.Halton(d=dim, scramble=True, seed=seed)``,
    whose output this reproduces bit for bit.
    """
    rng = np.random.default_rng(seed)
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

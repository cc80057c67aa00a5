"""Sample generators: the package's PCG64 stream, the scrambled Halton
sequence and smooth random fields."""

from __future__ import annotations

import math

import numpy as np
import pytest

from goursat2d.grid import build_grid
from goursat2d.sampling import _PCG64, halton_points, random_smooth_field

#: 2**64 + 5 has three 32-bit seed words and 2**300 + 7 ten, more than the
#: four words of SeedSequence's pool
STREAM_SEEDS = [*range(300), 1729, 2**64 + 5, 2**300 + 7]


class TestStream:
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_matches_numpy_bit_for_bit(self, seed):
        # scalar and sized uniforms between shuffles, whose 32-bit draws keep
        # the high half of a 64-bit output for the next one
        ref, got = np.random.default_rng(seed), _PCG64(seed)
        for k in (2, 3, 5, 13, 37, 600):
            a, b = ref.uniform(-1.0, 1.0), got.uniform(-1.0, 1.0)
            assert isinstance(b, float) and np.float64(a).tobytes() == np.float64(b).tobytes()
            a, b = ref.uniform(0.0, 2.0 * math.pi, 3), got.uniform(0.0, 2.0 * math.pi, 3)
            assert b.dtype == np.float64 and a.tobytes() == b.tobytes()
            a, b = np.arange(k), np.arange(k)
            ref.shuffle(a)
            got.shuffle(b)
            np.testing.assert_array_equal(a, b)

    def test_smooth_field_is_the_generators(self):
        grid = build_grid(16)
        ref = random_smooth_field(grid, 2, np.random.default_rng(11)).values
        assert random_smooth_field(grid, 2, _PCG64(11)).values.tobytes() == ref.tobytes()


#: scipy.stats.qmc.Halton(d, scramble=True, seed=seed).random(count) from
#: scipy 1.17.1, keyed by (count, d, seed)
GOLDEN_HALTON = {
    (8, 3, 0): [
        [0.0991217798843752, 0.05391376185363979, 0.30077622909743845],
        [0.5991217798843752, 0.7205804285203065, 0.7007762290974384],
        [0.3491217798843752, 0.38724709518697303, 0.1007762290974384],
        [0.8491217798843752, 0.16502487296475088, 0.5007762290974385],
        [0.2241217798843752, 0.8316915396314174, 0.9007762290974384],
        [0.7241217798843752, 0.49835820629808414, 0.2607762290974384],
        [0.4741217798843752, 0.27613598407586193, 0.6607762290974385],
        [0.9741217798843752, 0.9428026507425286, 0.0607762290974384],
    ],
    (5, 4, 7): [
        [0.10224233015287731, 0.9346983862017634, 0.8943413349392959, 0.7363974341982583],
        [0.6022423301528773, 0.2680317195350967, 0.09434133493929588, 0.16496886276968697],
        [0.3522423301528773, 0.6013650528684301, 0.294341334939296, 0.8792545770554012],
        [0.8522423301528773, 0.7124761639795413, 0.694341334939296, 0.4506831484839728],
        [0.22724233015287731, 0.045809497312874536, 0.494341334939296, 0.02211171991254415],
    ],
}


class TestHalton:
    @pytest.mark.parametrize("key", sorted(GOLDEN_HALTON))
    def test_golden_values(self, key):
        np.testing.assert_array_equal(halton_points(*key), np.array(GOLDEN_HALTON[key]))

    def test_matches_scipy_bit_for_bit(self):
        qmc = pytest.importorskip("scipy.stats").qmc
        for seed in (0, 1, 7, 12345):
            for dim in (3, 4, 5):
                for count in (1, 2, 50, 200, 1000):
                    ref = qmc.Halton(d=dim, scramble=True, seed=seed).random(count)
                    assert np.array_equal(halton_points(count, dim, seed), ref), (seed, dim, count)

    def test_every_coordinate_is_stratified(self):
        # the first b points of a base-b coordinate fall in distinct 1/b cells;
        # dim 12 reaches the 12th prime base, 37
        pts = halton_points(37, 12, seed=3)
        assert pts.shape == (37, 12) and np.all((pts >= 0.0) & (pts < 1.0))
        for c, b in enumerate([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]):
            assert sorted(np.floor(pts[:b, c] * b)) == list(range(b))


def meshgrid_smooth_field(grid, n, rng):
    """The full-grid evaluation ``random_smooth_field`` must reproduce bit for bit."""
    X, Y = grid.meshgrid()
    vals = np.empty((grid.npoints, grid.npoints, n))
    for c in range(n):
        comp = rng.uniform(-1.0, 1.0) * np.ones_like(X)
        for k in range(1, 4):
            a, b, d = rng.uniform(-1.0, 1.0, 3) / k**2
            phi, psi = rng.uniform(0.0, 2.0 * np.pi, 2)
            comp += a * np.sin(k * np.pi * X + phi)
            comp += b * np.cos(k * np.pi * Y + psi)
            comp += d * np.sin(k * np.pi * X) * np.sin(k * np.pi * Y)
        vals[:, :, c] = comp
    return vals


class TestRandomSmoothField:
    @pytest.mark.parametrize("cells", [2, 16, 64])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_meshgrid_evaluation(self, cells, n):
        grid = build_grid(cells)
        got = random_smooth_field(grid, n, np.random.default_rng(cells + n)).values
        ref = meshgrid_smooth_field(grid, n, np.random.default_rng(cells + n))
        assert got.tobytes() == ref.tobytes()

"""Analytic kernel tests ported 1:1 from the reference unit suite.

Expected values from /root/reference/src/test/java: PHashDctTest.java:49-99,
AHashTest.java:29-100, DHashTest.java:32-81, HammingTest.java:12-50
(see FIXTURES.md §3).
"""

import numpy as np
import pytest

from idf.kernels import (
    ahash64,
    bilinear_resize,
    dhash64,
    hamming_distance,
    hash_image,
    pairwise_hamming,
    phash64,
    popcount64,
)
from idf.kernels.hashes import _dct_matrix


def solid(h, w, val):
    return np.full((h, w, 3), val, dtype=np.uint8)


class TestPHash:
    def test_black_is_zero(self):
        assert hash_image(solid(32, 32, 0), "phash") == 0

    def test_white_is_dc_only(self):
        assert hash_image(solid(32, 32, 255), "phash") == 1

    def test_mid_gray_is_dc_only(self):
        assert hash_image(solid(32, 32, 0x80), "phash") == 1

    def test_resize_path_consistent(self):
        # any solid image at any size reduces to the 32x32 solid case
        assert hash_image(solid(200, 100, 255), "phash") == 1

    def test_dct_matches_naive(self):
        """scipy-free cross-check: matrix DCT == the reference's O(N^4) loop."""
        rng = np.random.default_rng(5)
        f = rng.random((8, 8))
        n = 8
        naive = np.zeros((n, n))
        for u in range(n):
            for v in range(n):
                s = 0.0
                for x in range(n):
                    for y in range(n):
                        s += (
                            f[x, y]
                            * np.cos((2 * x + 1) * u * np.pi / (2 * n))
                            * np.cos((2 * y + 1) * v * np.pi / (2 * n))
                        )
                cu = np.sqrt(1 / n) if u == 0 else np.sqrt(2 / n)
                cv = np.sqrt(1 / n) if v == 0 else np.sqrt(2 / n)
                naive[u, v] = cu * cv * s
        d = _dct_matrix(n)
        assert np.allclose(d @ f @ d.T, naive, atol=1e-12)

    def test_batched_equals_single(self):
        rng = np.random.default_rng(6)
        batch = rng.integers(0, 256, (5, 32, 32), dtype=np.uint8)
        got = phash64(batch)
        for i in range(5):
            assert got[i] == phash64(batch[i : i + 1])[0]


class TestAHash:
    def test_solid_black_all_ones(self):
        # tie rule: px >= mean sets the bit (AHash.java:28)
        assert hash_image(solid(8, 8, 0), "ahash") == 0xFFFFFFFFFFFFFFFF

    def test_solid_white_all_ones(self):
        assert hash_image(solid(8, 8, 255), "ahash") == 0xFFFFFFFFFFFFFFFF

    def test_checkerboard_bit_pattern(self):
        img = np.zeros((8, 8, 3), dtype=np.uint8)
        for y in range(8):
            for x in range(8):
                if (x + y) % 2 == 0:
                    img[y, x] = 255
        expected = 0
        for y in range(8):
            for x in range(8):
                if (x + y) % 2 == 0:
                    expected |= 1 << (y * 8 + x)
        assert hash_image(img, "ahash") == expected


class TestDHash:
    def test_solid_is_zero(self):
        # strict left > right (DHash.java:29)
        assert hash_image(solid(8, 9, 77), "dhash") == 0

    def test_decreasing_gradient_all_ones(self):
        img = np.zeros((8, 9, 3), dtype=np.uint8)
        for x in range(9):
            img[:, x] = 255 - 20 * x
        assert hash_image(img, "dhash") == 0xFFFFFFFFFFFFFFFF

    def test_increasing_gradient_zero(self):
        img = np.zeros((8, 9, 3), dtype=np.uint8)
        for x in range(9):
            img[:, x] = 20 * x
        assert hash_image(img, "dhash") == 0


class TestHamming:
    def test_reference_pairs(self):
        # HammingTest.java: (0, -1) -> 64; (10, 13) -> 3; (MIN, MAX) -> 64
        assert hamming_distance(0, 2**64 - 1) == 64
        assert hamming_distance(10, 13) == 3
        assert hamming_distance(1 << 63, (1 << 63) - 1) == 64
        assert hamming_distance(42, 42) == 0

    def test_popcount_shapes(self):
        x = np.array([[0, 1], [3, 2**64 - 1]], dtype=np.uint64)
        assert popcount64(x).tolist() == [[0, 1], [2, 64]]

    def test_popcount_matches_bin_count(self):
        """The SWAR popcount equals ``bin(x).count("1")`` on random
        uint64 values, 0, all-ones and every single bit, in any array
        shape (0-d, empty, 1-d, 3-d, non-contiguous)."""
        rng = np.random.default_rng(5)
        x = np.concatenate(
            [
                rng.integers(0, 2**64, size=4000, dtype=np.uint64),
                np.array([0, 2**64 - 1], dtype=np.uint64),
                np.uint64(1) << np.arange(64, dtype=np.uint64),
            ]
        )
        want = np.array([bin(int(v)).count("1") for v in x])
        got = popcount64(x)
        assert got.dtype == np.int32 and (got == want).all()
        cube = x[:4050].reshape(3, 27, 50)
        assert (popcount64(cube) == want[:4050].reshape(3, 27, 50)).all()
        assert (popcount64(x[::-3]) == want[::-3]).all()
        assert popcount64(x[:0]).shape == (0,)
        assert popcount64(np.uint64(2**64 - 1)) == 64 and popcount64(x[5]).shape == ()

    def test_pairwise(self):
        a = np.array([0, 1, 3], dtype=np.uint64)
        b = np.array([0, 2**64 - 1], dtype=np.uint64)
        d = pairwise_hamming(a, b)
        assert d.tolist() == [[0, 64], [1, 63], [2, 62]]


class TestResize:
    def test_identity(self):
        img = np.arange(12, dtype=np.uint8).reshape(3, 4)
        assert np.allclose(bilinear_resize(img, 3, 4), img)

    def test_solid_invariant(self):
        img = np.full((50, 30), 99, dtype=np.uint8)
        assert np.allclose(bilinear_resize(img, 8, 8), 99.0)

    def test_downscale_average(self):
        img = np.zeros((4, 4), dtype=np.float64)
        img[:, 2:] = 100.0
        out = bilinear_resize(img, 2, 2)
        assert out[0, 0] < out[0, 1]
        assert np.all(out >= 0) and np.all(out <= 100)

"""Property-based tests (hypothesis) for the pure kernels — no Ray.

These pin algebraic invariants the example-based tests can't sweep:
EXIF transforms invert exactly, popcount agrees with int.bit_count for
arbitrary 64-bit words, threshold->radius is monotone and matches the
reference's Math.round semantics, and the bilinear resize is exact on
constant images at any geometry.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from idf.config import threshold_to_radius
from idf.kernels.exif import exif_transform, inverse_orientation
from idf.kernels.hamming import popcount64
from idf.kernels.preprocess import bilinear_resize


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=9),
    st.booleans(),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_exif_transform_inverts_exactly(orientation, h, w, color, seed):
    rng = np.random.default_rng(seed)
    shape = (h, w, 3) if color else (h, w)
    img = rng.integers(0, 256, shape, dtype=np.uint8)
    out = exif_transform(img, orientation)
    back = exif_transform(out, inverse_orientation(orientation))
    assert np.array_equal(back, img)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=64))
def test_popcount64_matches_bit_count(words):
    arr = np.array(words, dtype=np.uint64)
    got = popcount64(arr)
    want = np.array([w.bit_count() for w in words], dtype=got.dtype)
    assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=1e-9, max_value=1.0, allow_nan=False))
def test_threshold_to_radius_bounds_and_java_round(threshold):
    r = threshold_to_radius(threshold)
    assert 0 <= r <= 64
    # Java Math.round = floor(x + 0.5)
    assert r == int(np.floor((1.0 - threshold) * 64 + 0.5))
    # monotone: a stricter threshold never widens the radius
    if threshold < 1.0:
        assert threshold_to_radius(min(1.0, threshold + 1e-6)) <= r


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=255),
)
def test_bilinear_resize_exact_on_constant(in_h, in_w, out_h, out_w, value):
    img = np.full((in_h, in_w), value, dtype=np.uint8)
    out = bilinear_resize(img, out_h, out_w)
    assert out.shape == (out_h, out_w)
    assert np.allclose(out, float(value))


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.sampled_from(["444", "420"]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_jfif_shape_and_flat_exactness_property(h, w, sub, seed):
    """JFIF codec: any geometry round-trips with the exact input shape,
    and a flat (single-color) image — all AC energy zero — reconstructs
    within quantized-DC rounding of the source at q90."""
    from idf.codecs.jfif import decode_jfif, encode_jfif

    rng = np.random.default_rng(seed)
    color = rng.integers(0, 256, 3, dtype=np.uint8)
    img = np.broadcast_to(color, (h, w, 3)).copy()
    out = decode_jfif(encode_jfif(img, quality=90, subsampling=sub))
    assert out.shape == (h, w, 3)
    assert np.abs(out.astype(int) - img.astype(int)).max() <= 3

"""aHash / dHash / pHash kernels — exact reference math, batch-vectorized.

Per-hash semantics replicated from the reference (all EPS/tie/bit-order
rules; SURVEY.md §2.2 M4-M6):

- aHash (/root/reference/src/main/java/hash/AHash.java:7-30): gray ->
  8x8, mean threshold, bit ``i = y*8+x`` set iff ``px >= mean`` (ties set).
- dHash (/root/reference/src/main/java/hash/DHash.java:7-34): gray ->
  9 wide x 8 high, strict ``left > right`` per adjacent horizontal pair,
  bit index row-major (8 comparisons per row).
- pHash (/root/reference/src/main/java/hash/PHashDct.java:13-78, the
  default algo per app/Commands.java:49): gray -> 32x32, luma/255,
  orthonormal 2-D DCT-II, top-left 8x8 ``F[u][v]`` flattened to
  ``low[8u+v]``; values with ``|v| < EPS=1e-9`` zeroed; mean over AC
  coefficients only (index 0 = DC skipped) excluding ``|v| < EPS``
  (empty -> 0.0); bit ``i`` set iff ``low[i] - mean > EPS`` (strict).

The reference's naive O(N^4) DCT (PHashDct.java:59-78) is the
orthonormal DCT-II, computed here exactly as ``D @ X @ D.T`` with the
orthonormal DCT matrix — same definition, vectorized over the batch.

Hashes are uint64 throughout; Arrow storage is int64 bit-cast
(mirroring the reference's ``Long.toUnsignedString`` round-trip,
app/Commands.java:89,138).
"""

from __future__ import annotations

import numpy as np

from idf.kernels.preprocess import bilinear_blend, bilinear_taps, luma601_u8

EPS = 1e-9  # PHashDct.java:11

_BIT_WEIGHTS = (np.uint64(1) << np.arange(64, dtype=np.uint64))


def _pack_bits64(bits: np.ndarray) -> np.ndarray:
    """(B, 64) bool, bit i at column i -> (B,) uint64."""
    return (bits.astype(np.uint64) * _BIT_WEIGHTS[None, :]).sum(axis=1, dtype=np.uint64)


def _dct_matrix(n: int) -> np.ndarray:
    # D[u, x] = c_u * cos((2x+1) u pi / (2N)), c_0 = sqrt(1/N) else sqrt(2/N)
    # == the scale factors at PHashDct.java:72-74.
    u = np.arange(n)[:, None]
    x = np.arange(n)[None, :]
    d = np.cos((2 * x + 1) * u * np.pi / (2 * n)) * np.sqrt(2.0 / n)
    d[0, :] = np.sqrt(1.0 / n)
    return d


_D32 = _dct_matrix(32)


def preprocess(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """RGB (H, W, 3) or gray (H, W) uint8 -> quantized gray uint8 (out_h, out_w).

    Luma is elementwise, so it is applied to the <= 2*out_h x 2*out_w
    bilinear taps only: bit-identical to ``luma601_u8`` over the whole
    image followed by the resample, at the cost of the pixels read."""
    taps, wy, wx = bilinear_taps(img, out_h, out_w)
    if taps.ndim == 3:
        taps = luma601_u8(taps)
    resized = bilinear_blend(taps, wy, wx)
    return np.clip(np.floor(resized + 0.5), 0, 255).astype(np.uint8)


def ahash64(gray8: np.ndarray) -> np.ndarray:
    """(B, 8, 8) uint8 -> (B,) uint64. Tie rule ``>= mean`` (AHash.java:28)."""
    px = gray8.reshape(-1, 64).astype(np.float64)
    mean = px.mean(axis=1, keepdims=True)
    return _pack_bits64(px >= mean)


def dhash64(gray9x8: np.ndarray) -> np.ndarray:
    """(B, 8, 9) uint8 (8 rows, 9 cols) -> (B,) uint64. Strict ``left > right``."""
    a = gray9x8.astype(np.int16)
    bits = (a[:, :, :-1] > a[:, :, 1:]).reshape(-1, 64)
    return _pack_bits64(bits)


def phash64(gray32: np.ndarray) -> np.ndarray:
    """(B, 32, 32) uint8 -> (B,) uint64 with the reference's exact EPS rules."""
    vals = gray32.astype(np.float64) / 255.0
    # F[u, v] = c_u c_v sum_x sum_y vals[x, y] cos(..u x..) cos(..v y..)
    # (PHashDct.java:62-75; f == vals with the row index named x there)
    F = np.einsum("ux,bxy,vy->buv", _D32, vals, _D32, optimize=True)
    low = F[:, :8, :8].reshape(-1, 64).copy()
    low[np.abs(low) < EPS] = 0.0  # PHashDct.java:39
    ac = low[:, 1:]
    keep = np.abs(ac) >= EPS  # PHashDct.java:45-47
    cnt = keep.sum(axis=1)
    mean = np.where(cnt > 0, (ac * keep).sum(axis=1) / np.maximum(cnt, 1), 0.0)
    return _pack_bits64(low - mean[:, None] > EPS)  # strict, PHashDct.java:52


_SPECS = {
    # algo -> (resize (h, w), kernel over the stacked gray batch)
    "ahash": ((8, 8), ahash64),
    "dhash": ((8, 9), dhash64),  # Resize.resize(img, 9, 8) = 9 wide, 8 high
    "phash": ((32, 32), phash64),
}
HASHERS = tuple(_SPECS)

# Minimum decoded-luma dimension per algo for the scaled-decode fast
# path. pHash reads only the top-left 8x8 of the 32x32 DCT — spatial
# frequencies up to 8 cycles/image — so any decode scale preserving
# >= 16 px (2x the highest frequency it uses) is information-
# sufficient; the 32x32 kernel input is then a bilinear resample of
# that. aHash/dHash sample at 8/9 px directly.
DECODE_MIN_DIM = {"ahash": 8, "dhash": 9, "phash": 16}


def hash_image(img: np.ndarray, algo: str = "phash") -> int:
    """Single RGB/gray uint8 image -> 64-bit hash (python int, unsigned)."""
    (h, w), kernel = _SPECS[algo]
    return int(kernel(preprocess(img, h, w)[None, ...])[0])


def hash_bytes(
    data: bytes, algo: str = "phash", exif_from_bytes: bool = False
) -> tuple[int, int, int]:
    """Encoded image bytes -> (hash, orig_h, orig_w) via the
    scaled-luma fast path (codecs.decode_luma_scaled).

    The single source of truth for hashing stored images: the engine's
    decode stage, the oracle, and the synthetic corpus's phash column
    all call this, so hash equality across them is exact.

    ``exif_from_bytes=True`` additionally normalizes real-JPEG bytes by
    their own APP1 Exif orientation (M1). OFF by default for reference
    parity: the shipped reference reads orientation as a constant 1
    (core/Exif.java:57-59 stub), so an EXIF-rotated copy (fixture
    drink-270cw.jpg, tag 8) clusters SEPARATELY from its upright twin —
    the documented expected behavior (FIXTURES.md §2). The stage passes
    DedupConfig.exif_from_bytes through here, so engine and oracle flip
    together."""
    from idf.codecs import decode_luma_scaled, sniff

    img, oh, ow = decode_luma_scaled(data, min_dim=DECODE_MIN_DIM[algo])
    if exif_from_bytes:
        head = bytes(data[:8]) if not isinstance(data, bytes) else data[:8]
        if sniff(head) == "jfif":
            from idf.codecs.jfif import exif_orientation
            from idf.kernels.exif import exif_transform

            o = exif_orientation(data)
            if o != 1:
                img = exif_transform(img, o)
    return hash_image(img, algo), oh, ow


def hash_gray_batch(gray_stack: np.ndarray, algo: str) -> np.ndarray:
    """Pre-resized gray batch -> (B,) uint64 (engine hot path)."""
    return _SPECS[algo][1](gray_stack)


def resize_dims(algo: str) -> tuple[int, int]:
    return _SPECS[algo][0]

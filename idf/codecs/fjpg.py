"""FJPG — deterministic lossy codec used as the in-sandbox JPEG stand-in.

** STAND-IN, clearly marked per task rules. ** This container ships no
image libraries (no PIL / libjpeg / cv2), so rows whose ``fmt`` is
``jpg``/``jpeg`` carry FJPG bytes instead of real JFIF. FJPG reproduces
the *lossy characteristics* that matter to a perceptual-hash dedup
pipeline — YCbCr transform, 8x8 block DCT, quality-scaled quantization
with the standard JPEG tables — so near-duplicate variants degrade the
way real JPEG re-encodes do (quality 90 ~= tiny Hamming perturbation,
quality 30 ~= a larger one), and PSNR-vs-source is a meaningful
fidelity metric (BASELINE.json input_hint: PSNR >= 40 dB for lossy).
It is NOT wire-compatible with JFIF: entropy coding is zlib over the
quantized coefficients instead of Huffman.

Layout (v3): b"FJPG" | version:u8 | quality:u8 | h:u16 | w:u16 |
3 x (dc_len:u32 | zlib(int16 DC plane) | ac_len:u32 | zlib(int16 AC,
63/block, block-major)) — one independent DC + AC stream pair per
channel (Y, Cb, Cr; blocks 8x8). The split mirrors progressive JPEG's
DC-first scan (public spec): a 1/8-scale luma decode (all a 32x32
perceptual hash needs for typical photos) inflates ONLY the Y DC plane
— a few KB instead of the full coefficient stream — so the hash path's
memory traffic stays tiny and the decode stage scales past the DRAM
bandwidth knee. v2 (single stream per channel) still decodes.
"""

from __future__ import annotations

import functools
import struct
import zlib

import numpy as np

from idf.codecs.native import inflate

MAGIC = b"FJPG"
_VERSION = 3

# Standard JPEG Annex K quantization tables (public spec).
_QY = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)
_QC = np.array(
    [
        [17, 18, 24, 47, 99, 99, 99, 99],
        [18, 21, 26, 66, 99, 99, 99, 99],
        [24, 26, 56, 99, 99, 99, 99, 99],
        [47, 66, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
    ],
    dtype=np.float64,
)


def _dct_matrix(n: int = 8) -> np.ndarray:
    k = np.arange(n)[:, None]
    x = np.arange(n)[None, :]
    d = np.cos((2 * x + 1) * k * np.pi / (2 * n)) * np.sqrt(2.0 / n)
    d[0] = np.sqrt(1.0 / n)
    return d


_D8 = _dct_matrix(8)


@functools.lru_cache(maxsize=128)
def _quant_tables(quality: int) -> tuple[np.ndarray, np.ndarray]:
    # libjpeg quality scaling (public behavior); read-only, shared by
    # every caller of the same quality
    q = min(100, max(1, int(quality)))
    s = 5000 / q if q < 50 else 200 - 2 * q
    qy = np.clip(np.floor((_QY * s + 50) / 100), 1, 255)
    qc = np.clip(np.floor((_QC * s + 50) / 100), 1, 255)
    qy.flags.writeable = qc.flags.writeable = False
    return qy, qc


def _to_blocks(ch: np.ndarray) -> np.ndarray:
    h, w = ch.shape
    ph, pw = (-h) % 8, (-w) % 8
    if ph or pw:
        ch = np.pad(ch, ((0, ph), (0, pw)), mode="edge")
    hb, wb = ch.shape[0] // 8, ch.shape[1] // 8
    return ch.reshape(hb, 8, wb, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8)


def _from_blocks(blocks: np.ndarray, h: int, w: int) -> np.ndarray:
    hb, wb = (h + 7) // 8, (w + 7) // 8
    full = blocks.reshape(hb, wb, 8, 8).transpose(0, 2, 1, 3).reshape(hb * 8, wb * 8)
    return full[:h, :w]


def _rgb_to_ycbcr(img: np.ndarray) -> np.ndarray:
    r, g, b = img[..., 0], img[..., 1], img[..., 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
    return np.stack([y, cb, cr], axis=-1)


def _ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    dt = ycc.dtype if ycc.dtype in (np.float32, np.float64) else np.float64
    c = lambda v: np.asarray(v, dtype=dt)  # noqa: E731 — keep input precision
    y, cb, cr = ycc[..., 0], ycc[..., 1] - c(128.0), ycc[..., 2] - c(128.0)
    r = y + c(1.402) * cr
    g = y - c(0.344136) * cb - c(0.714136) * cr
    b = y + c(1.772) * cb
    return np.stack([r, g, b], axis=-1)


def encode_fjpg(img: np.ndarray, quality: int = 90) -> bytes:
    """RGB uint8 (H, W, 3) -> FJPG bytes at the given quality (1..100)."""
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ValueError("encode_fjpg expects (H, W, 3) uint8")
    h, w, _ = img.shape
    if h > 65535 or w > 65535:
        raise ValueError("FJPG dims must fit u16")
    qy, qc = _quant_tables(quality)
    ycc = _rgb_to_ycbcr(img.astype(np.float64)) - 128.0
    parts = []
    for ci in range(3):
        blocks = _to_blocks(ycc[..., ci])
        coeffs = _D8 @ blocks @ _D8.T  # batched BLAS, (n,8,8)
        q = qy if ci == 0 else qc
        quant = np.round(coeffs / q).astype(np.int16)
        # progressive-style split: DC plane | AC coefficients
        dc = np.ascontiguousarray(quant[:, 0, 0])
        ac = np.ascontiguousarray(quant.reshape(-1, 64)[:, 1:])
        for payload in (dc, ac):
            z = zlib.compress(payload.tobytes(), 6)
            parts.append(struct.pack("<I", len(z)) + z)
    head = MAGIC + struct.pack("<BBHH", _VERSION, min(100, max(1, int(quality))), h, w)
    return head + b"".join(parts)


_D8_F32 = _D8.astype(np.float32)


def _parse_header(data: bytes) -> tuple[int, int, int, int]:
    if data[:4] != MAGIC:
        raise ValueError("not FJPG")
    version, quality, h, w = struct.unpack_from("<BBHH", data, 4)
    if version not in (2, 3):
        raise ValueError(f"FJPG version {version} unsupported")
    return version, quality, h, w


def _streams(data: bytes, version: int) -> list[tuple[bytes, bytes | None]]:
    """Per channel: (dc_z, ac_z) for v3, (full_z, None) for v2."""
    out, pos = [], 10
    n_per = 2 if version == 3 else 1
    for _ in range(3):
        pair = []
        for _ in range(n_per):
            (ln,) = struct.unpack_from("<I", data, pos)
            pair.append(data[pos + 4 : pos + 4 + ln])
            pos += 4 + ln
        out.append((pair[0], pair[1] if n_per == 2 else None))
    return out


def _coeff_blocks(stream: tuple[bytes, bytes | None], version: int, nb: int) -> np.ndarray:
    """One channel's streams -> int16 (nb, 8, 8) quantized coefficients."""
    if version == 2:
        return inflate(stream[0], nb * 128).view(np.int16).reshape(nb, 8, 8)
    flat = np.empty((nb, 64), dtype=np.int16)
    flat[:, 0] = inflate(stream[0], nb * 2).view(np.int16)
    flat[:, 1:] = inflate(stream[1], nb * 126).view(np.int16).reshape(nb, 63)
    return flat.reshape(nb, 8, 8)


def _idct_channel(blocks_i16: np.ndarray, q: np.ndarray, h: int, w: int) -> np.ndarray:
    # float32 throughout the decode hot path: coefficients are small
    # ints and the transform is exact well past 8-bit output precision
    blocks = blocks_i16.astype(np.float32) * q.astype(np.float32)
    out = _D8_F32.T @ blocks @ _D8_F32  # batched BLAS inverse DCT
    return _from_blocks(out, h, w)


def decode_fjpg(data: bytes) -> np.ndarray:
    """FJPG bytes -> RGB uint8 (H, W, 3)."""
    version, quality, h, w = _parse_header(data)
    qy, qc = _quant_tables(quality)
    streams = _streams(data, version)
    nb = ((h + 7) // 8) * ((w + 7) // 8)
    chans = [
        _idct_channel(_coeff_blocks(streams[ci], version, nb), qy if ci == 0 else qc, h, w)
        for ci in range(3)
    ]
    ycc = np.stack(chans, axis=-1) + np.float32(128.0)
    rgb = _ycbcr_to_rgb(ycc)
    return np.clip(np.round(rgb), 0, 255).astype(np.uint8)


def decode_fjpg_luma(data: bytes) -> np.ndarray:
    """FJPG bytes -> luma uint8 (H, W): Y channel only (the stored Y IS
    the ITU-R 601 luma computed at encode time). Skips 2/3 of the
    inflate and all chroma transforms."""
    version, quality, h, w = _parse_header(data)
    qy, _ = _quant_tables(quality)
    nb = ((h + 7) // 8) * ((w + 7) // 8)
    y = _idct_channel(_coeff_blocks(_streams(data, version)[0], version, nb), qy, h, w)
    return np.clip(np.round(y + np.float32(128.0)), 0, 255).astype(np.uint8)


_DK = {k: _dct_matrix(k).astype(np.float32) for k in (1, 2, 4)}


def decode_fjpg_luma_scaled(data: bytes, min_dim: int = 32) -> tuple[np.ndarray, int, int]:
    """FJPG bytes -> (luma uint8 at 1/8*k scale, orig_h, orig_w).

    The scaled-decode trick every JPEG thumbnailer uses (libjpeg's
    ``scale_num/8``, public behavior): an orthonormal k-point iDCT of
    the top-left k x k coefficients of each 8x8 block yields the block
    downscaled to k x k, up to the (k/8) DC renormalization. k is the
    smallest of {1, 2, 4, 8} whose output still covers ``min_dim`` in
    both axes, so a perceptual hash needing a 32x32 input never
    upsamples. At k == 1 on a v3 stream this touches ONLY the zlib'd DC
    plane (progressive JPEG's DC scan, a few KB) — the hash stage is
    bandwidth-bound at high core counts, and this is what makes it
    scale with cores.
    """
    version, quality, h, w = _parse_header(data)
    hb, wb = (h + 7) // 8, (w + 7) // 8
    k = 8
    for cand in (1, 2, 4):
        if min(hb, wb) * cand >= min_dim:
            k = cand
            break
    qy, _ = _quant_tables(quality)
    stream = _streams(data, version)[0]
    if k == 8:
        nb = hb * wb
        y = _idct_channel(_coeff_blocks(stream, version, nb), qy, h, w)
        return np.clip(np.round(y + np.float32(128.0)), 0, 255).astype(np.uint8), h, w
    if k == 1 and version == 3:
        dc = inflate(stream[0], hb * wb * 2).view(np.int16)
        full = dc.astype(np.float32).reshape(hb, wb) * np.float32(qy[0, 0] / 8.0)
    else:
        blocks = _coeff_blocks(stream, version, hb * wb)
        co = blocks[:, :k, :k].astype(np.float32) * qy[:k, :k].astype(np.float32)
        dk = _DK[k]
        small = (dk.T @ co @ dk) * np.float32(k / 8.0)  # (nb, k, k)
        full = small.reshape(hb, wb, k, k).transpose(0, 2, 1, 3).reshape(hb * k, wb * k)
    # crop pad-only output rows/cols (partial-block pixels stay: they are
    # low-pass estimates, fine for hashing)
    oh, ow = max(1, -(-h * k // 8)), max(1, -(-w * k // 8))
    y = full[:oh, :ow] + np.float32(128.0)
    return np.clip(np.round(y), 0, 255).astype(np.uint8), h, w

"""Minimal PNG codec (numpy + ``native.inflate``: the system libdeflate
when present, stdlib zlib otherwise).

Real PNG: 8-bit greyscale (color type 0), RGB (2) and RGBA (6),
non-interlaced, all five scanline filters supported on decode; the
encoder emits filter 0 (None) rows. Enough to round-trip the synthetic
corpus losslessly and decode anything our generator writes.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from idf.codecs.native import inflate

MAGIC = b"\x89PNG\r\n\x1a\n"

_CHANNELS = {0: 1, 2: 3, 6: 4}


def _chunk(tag: bytes, payload: bytes) -> bytes:
    body = tag + payload
    return struct.pack(">I", len(payload)) + body + struct.pack(">I", zlib.crc32(body) & 0xFFFFFFFF)


def encode_png(img: np.ndarray, level: int = 6) -> bytes:
    """uint8 (H, W) gray | (H, W, 3) RGB | (H, W, 4) RGBA -> PNG bytes."""
    if img.dtype != np.uint8:
        raise ValueError("encode_png expects uint8")
    if img.ndim == 2:
        color_type, arr = 0, img[:, :, None]
    elif img.ndim == 3 and img.shape[2] in (3, 4):
        color_type, arr = (2 if img.shape[2] == 3 else 6), img
    else:
        raise ValueError(f"unsupported shape {img.shape}")
    h, w, c = arr.shape
    # filter byte 0 prepended to each scanline
    raw = np.zeros((h, w * c + 1), dtype=np.uint8)
    raw[:, 1:] = arr.reshape(h, w * c)
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    return (
        MAGIC
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(raw.tobytes(), level))
        + _chunk(b"IEND", b"")
    )


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    return b if pb <= pc else c


def _parse_chunks(data) -> tuple[int, int, int, list]:
    """PNG container walk -> (w, h, color_type, idat_parts). Accepts any
    buffer (bytes/memoryview) without copying the blob."""
    if bytes(data[: len(MAGIC)]) != MAGIC:
        raise ValueError("not a PNG")
    pos = len(MAGIC)
    w = h = None
    color_type = None
    idat = []
    n = len(data)
    while pos + 8 <= n:
        (length,) = struct.unpack_from(">I", data, pos)
        tag = bytes(data[pos + 4 : pos + 8])
        if tag == b"IHDR":
            w, h, bit_depth, color_type, comp, filt, interlace = struct.unpack_from(
                ">IIBBBBB", data, pos + 8
            )
            if bit_depth != 8 or color_type not in _CHANNELS or interlace != 0:
                raise ValueError(
                    f"unsupported PNG (depth={bit_depth}, color={color_type}, interlace={interlace})"
                )
        elif tag == b"IDAT":
            idat.append(data[pos + 8 : pos + 8 + length])
        elif tag == b"IEND":
            break
        pos += 12 + length
    if w is None:
        raise ValueError("PNG missing IHDR")
    return w, h, color_type, idat


def _scanlines(data) -> tuple[np.ndarray, int, int]:
    """PNG bytes -> (raw scanlines (H, 1 + W*C) uint8, W, C): the IDAT
    stream inflated straight into its exact size."""
    w, h, color_type, idat = _parse_chunks(data)
    c = _CHANNELS[color_type]
    stride = w * c + 1
    # single-IDAT fast path (what our encoder emits): inflate reads the
    # buffer in place, no join copy
    src = idat[0] if len(idat) == 1 else b"".join(idat)
    return inflate(src, h * stride).reshape(h, stride), w, c


def _unfilter(raw: np.ndarray, c: int) -> np.ndarray:
    """Raw scanlines -> reconstructed (H, W*C) uint8 samples. All rows
    filter 0 (None) — what our encoder emits — is a zero-copy view, with
    no per-scanline python (the general loop costs ~2.5ms/img)."""
    filters = raw[:, 0]
    if not filters.any():
        return raw[:, 1:]
    h, n = raw.shape[0], raw.shape[1] - 1
    out = np.zeros((h, n), dtype=np.uint8)
    for y in range(h):
        f = filters[y]
        line = raw[y, 1:].astype(np.int32)
        prev = out[y - 1].astype(np.int32) if y > 0 else np.zeros(n, dtype=np.int32)
        if f == 0:
            rec = line
        elif f == 2:  # Up — vectorized
            rec = (line + prev) & 0xFF
        else:  # Sub / Average / Paeth need a serial scan over the row
            rec = np.zeros(n, dtype=np.int32)
            for i in range(n):
                a = rec[i - c] if i >= c else 0
                b = prev[i]
                cc = prev[i - c] if i >= c else 0
                if f == 1:
                    rec[i] = (line[i] + a) & 0xFF
                elif f == 3:
                    rec[i] = (line[i] + ((a + b) >> 1)) & 0xFF
                elif f == 4:
                    rec[i] = (line[i] + _paeth(a, b, cc)) & 0xFF
                else:
                    raise ValueError(f"bad PNG filter {f}")
        out[y] = rec.astype(np.uint8)
    return out


def decode_png_pixels(data) -> np.ndarray:
    """PNG bytes (any buffer) -> the pixels as a view of the inflated
    scanlines: RGB (H, W, 3) (RGBA with alpha sliced off, treated as
    opaque) or gray (H, W). Strided, no copy of the pixels: the hash
    path reads only the bilinear taps of it (``kernels.preprocess``)."""
    raw, w, c = _scanlines(data)
    px = _unfilter(raw, c)
    return px if c == 1 else px.reshape(px.shape[0], w, c)[:, :, :3]


def decode_png(data) -> np.ndarray:
    """PNG bytes -> RGB uint8 (H, W, 3). Gray is stacked; alpha is dropped."""
    px = decode_png_pixels(data)
    if px.ndim == 2:
        return np.repeat(px[:, :, None], 3, axis=2)
    return np.ascontiguousarray(px)

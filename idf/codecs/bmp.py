"""Minimal 24-bit uncompressed BMP codec (pure numpy).

The container has no image libraries (no PIL/cv2/imageio), so the engine
ships its own codecs. BMP here is the real Windows BI_RGB format:
BITMAPFILEHEADER + BITMAPINFOHEADER(40) + bottom-up BGR rows padded to 4
bytes. Mirrors the reference's accepted-format set (``.bmp`` accepted at
/root/reference/src/main/java/app/Commands.java:72-74).
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"BM"


def encode_bmp(img: np.ndarray) -> bytes:
    """RGB uint8 (H, W, 3) -> 24-bit BI_RGB BMP bytes."""
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ValueError("encode_bmp expects (H, W, 3) uint8")
    h, w, _ = img.shape
    row_len = w * 3
    pad = (-row_len) % 4
    stride = row_len + pad
    pixel_bytes = stride * h
    # bottom-up, BGR channel order
    rows = np.zeros((h, stride), dtype=np.uint8)
    rows[:, :row_len] = img[::-1, :, ::-1].reshape(h, row_len)
    off = 14 + 40
    header = struct.pack("<2sIHHI", MAGIC, off + pixel_bytes, 0, 0, off)
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, pixel_bytes, 2835, 2835, 0, 0)
    return header + info + rows.tobytes()


def decode_bmp_pixels(data) -> np.ndarray:
    """24-bit BI_RGB BMP bytes (any buffer) -> RGB uint8 (H, W, 3) as a
    strided read-only view of the pixel rows (row order and BGR flipped
    by strides, no copy)."""
    if bytes(data[:2]) != MAGIC:
        raise ValueError("not a BMP")
    off = struct.unpack_from("<I", data, 10)[0]
    hdr_size = struct.unpack_from("<I", data, 14)[0]
    if hdr_size < 40:
        raise ValueError("unsupported BMP header")
    w, h = struct.unpack_from("<ii", data, 18)
    planes, bpp = struct.unpack_from("<HH", data, 26)
    comp = struct.unpack_from("<I", data, 30)[0]
    if bpp != 24 or comp != 0:
        raise ValueError(f"unsupported BMP (bpp={bpp}, compression={comp})")
    bottom_up = h > 0
    h = abs(h)
    row_len = w * 3
    stride = (row_len + 3) & ~3
    px = np.frombuffer(data, dtype=np.uint8, count=stride * h, offset=off)
    rows = px.reshape(h, stride)[:, :row_len].reshape(h, w, 3)
    if bottom_up:
        rows = rows[::-1]
    return rows[:, :, ::-1]  # BGR -> RGB


def decode_bmp(data) -> np.ndarray:
    """24-bit BI_RGB BMP bytes -> RGB uint8 (H, W, 3)."""
    return np.ascontiguousarray(decode_bmp_pixels(data))

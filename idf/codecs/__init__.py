"""Codec registry: decode/encode image bytes by format or magic sniffing.

Mirrors the reference's loader+format-filter behavior
(/root/reference/src/main/java/core/ImageLoader.java:7-11 throws on
unsupported formats; /root/reference/src/main/java/app/Commands.java:72-74
accepts jpg|jpeg|png|bmp). Decode failures raise ``DecodeError`` which the
hash stage converts into per-row skips, matching Commands.java:81-83.
"""

from __future__ import annotations

import numpy as np

from idf.codecs import bmp as _bmp
from idf.codecs import fjpg as _fjpg
from idf.codecs import png as _png
from idf.codecs.bmp import decode_bmp, encode_bmp
from idf.codecs.fjpg import decode_fjpg, encode_fjpg
from idf.codecs.png import decode_png, encode_png

# Extension set the reference accepts (Commands.java:72-74).
ACCEPTED_FORMATS = frozenset({"jpg", "jpeg", "png", "bmp"})


class DecodeError(ValueError):
    """Raised when image bytes cannot be decoded (row becomes a skip)."""


def sniff(data: bytes) -> str | None:
    if data[: len(_png.MAGIC)] == _png.MAGIC:
        return "png"
    if data[:4] == _fjpg.MAGIC:
        return "jpg"
    if data[:2] == _bmp.MAGIC:
        return "bmp"
    if data[:3] == b"\xff\xd8\xff":  # real JPEG/JFIF SOI marker
        return "jfif"
    return None


def _kind(data, fmt: str | None) -> str:
    """Sniffed codec of ``data`` (any buffer); missing, empty or
    unrecognized bytes raise ``DecodeError`` (the row becomes a skip)."""
    if not data:
        raise DecodeError(f"no image bytes (declared fmt={fmt!r})")
    kind = sniff(bytes(data[:8]))
    if kind is None:
        raise DecodeError(f"unrecognized image bytes (declared fmt={fmt!r})")
    return kind


def decode_jfif_rgb(data) -> np.ndarray:
    """Real JPEG/JFIF bytes -> RGB uint8 (H, W, 3) via the in-repo
    pure-numpy baseline+progressive decoder (idf/codecs/jfif.py) —
    covers the reference's primary input format (ImageIO.read,
    core/ImageLoader.java:7-11; fixture corpus fixtures/*.jpg,
    validated at PSNR >= 40 dB against the independent PNG decode of
    the same picture in tests/test_codecs.py)."""
    from idf.codecs.jfif import decode_jfif

    return decode_jfif(data)


def decode(data: bytes, fmt: str | None = None) -> np.ndarray:
    """Image bytes -> RGB uint8 (H, W, 3). Sniffs magic; ``fmt`` is advisory."""
    kind = _kind(data, fmt)
    try:
        if kind == "png":
            return decode_png(data)
        if kind == "bmp":
            return decode_bmp(data)
        if kind == "jfif":
            return decode_jfif_rgb(data)
        return decode_fjpg(data)
    except DecodeError:
        raise
    except Exception as exc:  # corrupt payload after a valid magic
        raise DecodeError(f"decode failed ({kind}): {exc}") from exc


def decode_luma(data: bytes, fmt: str | None = None) -> np.ndarray:
    """Image bytes -> luma uint8 (H, W) — the hash path's fast lane.

    FJPG decodes only its stored Y channel (ITU-R 601 luma computed at
    encode time); PNG/BMP decode fully then convert. The whole hashing
    system (engine, oracle, synthetic phash column) uses THIS path, so
    hash equality is exact end to end."""
    from idf.kernels.preprocess import luma601_u8

    kind = _kind(data, fmt)
    try:
        if kind == "jpg":
            return _fjpg.decode_fjpg_luma(data)
        if kind == "jfif":
            # JFIF's Y channel IS BT.601 luma: decode it directly and
            # skip the chroma iDCT/upsample entirely
            from idf.codecs.jfif import decode_jfif_luma

            return decode_jfif_luma(data)
        return luma601_u8(decode_png(data) if kind == "png" else decode_bmp(data))
    except DecodeError:
        raise
    except Exception as exc:
        raise DecodeError(f"decode failed ({kind}): {exc}") from exc


def decode_luma_scaled(
    data: bytes, min_dim: int = 32, fmt: str | None = None
) -> tuple[np.ndarray, int, int]:
    """Image bytes -> (hash input, orig_h, orig_w): the hash path.

    FJPG and JFIF return luma uint8, downscale-decoded (libjpeg-style
    k/8 partial iDCT of the Y component): the hash kernels resize to
    <= 32x32 anyway, so decoding at >= ``min_dim`` loses nothing they
    use while cutting memory traffic ~(8/k)^2. PNG and BMP have no
    scaled path; they return their pixels as a zero-copy strided view
    (RGB (H, W, 3), or gray (H, W)), and ``kernels.preprocess`` applies
    the luma only at the bilinear taps it reads. The whole hashing
    system (engine, oracle, synthetic phash column) uses THIS path, so
    hash equality is exact end to end. Missing or empty bytes raise
    ``DecodeError`` like corrupt ones."""
    kind = _kind(data, fmt)
    try:
        if kind == "jpg":
            # FJPG accepts any buffer (memoryview stays zero-copy)
            return _fjpg.decode_fjpg_luma_scaled(data, min_dim)
        if kind == "jfif":
            # entropy decode is still full-stream — that is inherent to
            # sequential Huffman coding
            from idf.codecs.jfif import decode_jfif_luma_scaled

            return decode_jfif_luma_scaled(data, min_dim)
        px = _png.decode_png_pixels(data) if kind == "png" else _bmp.decode_bmp_pixels(data)
        return px, px.shape[0], px.shape[1]
    except DecodeError:
        raise
    except Exception as exc:
        raise DecodeError(f"decode failed ({kind}): {exc}") from exc


def encode(img: np.ndarray, fmt: str, quality: int = 90) -> bytes:
    f = fmt.lower()
    if f == "png":
        return encode_png(img)
    if f == "bmp":
        return encode_bmp(img)
    if f in ("jpg", "jpeg"):
        return encode_fjpg(img, quality=quality)
    if f == "jfif":  # REAL baseline JPEG bytes (idf/codecs/jfif.py)
        from idf.codecs.jfif import encode_jfif

        return encode_jfif(img, quality=quality)
    raise ValueError(f"unsupported encode format {fmt!r}")


__all__ = [
    "ACCEPTED_FORMATS",
    "DecodeError",
    "decode",
    "decode_luma",
    "decode_luma_scaled",
    "encode",
    "sniff",
    "decode_png",
    "encode_png",
    "decode_bmp",
    "encode_bmp",
    "decode_fjpg",
    "encode_fjpg",
]

"""Grayscale + bilinear-resize preprocessing shared by all three hashers.

Reference pipeline (per hasher): ``Gray.toGray`` (AWT byte-gray,
/root/reference/src/main/java/core/Gray.java:6-10) then bilinear
``Resize`` (/root/reference/src/main/java/core/Resize.java:6-13), then the
hashers re-extract luma from the already-gray pixels (identity when
R=G=B, e.g. hash/AHash.java:16-22).

Java AWT's colorspace conversion and bilinear filter are not
bit-reproducible outside the JVM, so — per SURVEY.md §5/§7 — this engine
defines its own deterministic equivalents (ITU-R 601 luma applied once;
pixel-center-aligned bilinear) and conformance versus the reference is
measured at the cluster/pair level (dup-pair recall >= 0.99), while the
engine and the pure-Python oracle share these exact kernels bit-for-bit.
"""

from __future__ import annotations

import functools

import numpy as np


def luma601_u8(img: np.ndarray) -> np.ndarray:
    """RGB uint8 (H, W, 3) -> gray uint8 (H, W) via ITU-R 601 luma.

    Rounded (not truncated) to uint8: the truncation in the reference's
    hashers (``(int)(0.299r+...)``, AHash.java:21) happens on the
    *post-resize* sample and is applied by the hash kernels' quantize
    step, not here.
    """
    f = img.astype(np.float32)  # exact for 8-bit inputs, half the traffic
    y = (
        np.float32(0.299) * f[..., 0]
        + np.float32(0.587) * f[..., 1]
        + np.float32(0.114) * f[..., 2]
    )
    return np.clip(np.round(y), 0, 255).astype(np.uint8)


@functools.lru_cache(maxsize=1024)
def _axis_taps(in_n: int, out_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear taps of one axis: (lo and hi source indices concatenated,
    hi weight per output sample), read-only and cached per size pair.

    Pixel-center alignment: dst center d maps to src coordinate
    ``(d + 0.5) * (in/out) - 0.5``, clamped — the standard convention
    (matches PIL / most libraries; AWT differs at edges, which is
    covered by the cluster-level conformance bar, see module docstring).
    """
    x = (np.arange(out_n) + 0.5) * (in_n / out_n) - 0.5
    x = np.clip(x, 0.0, in_n - 1.0)
    lo = np.floor(x).astype(np.int64)
    idx = np.concatenate([lo, np.minimum(lo + 1, in_n - 1)])
    wt = x - lo
    idx.flags.writeable = wt.flags.writeable = False
    return idx, wt


def bilinear_taps(img: np.ndarray, out_h: int, out_w: int):
    """The (2*out_h, 2*out_w[, C]) sub-image the bilinear resample reads
    — rows lo then hi, columns lo then hi — in ``img``'s own dtype, plus
    the row and column weights. Any strided view works; only these
    pixels are read."""
    iy, wy = _axis_taps(img.shape[0], out_h)
    ix, wx = _axis_taps(img.shape[1], out_w)
    return img[iy].take(ix, axis=1), wy, wx


def bilinear_blend(taps: np.ndarray, wy: np.ndarray, wx: np.ndarray) -> np.ndarray:
    """2-D taps (from ``bilinear_taps``) -> the float64 resample."""
    src = taps.astype(np.float64)
    oh, ow = len(wy), len(wx)
    top = src[:oh, :ow] * (1 - wx) + src[:oh, ow:] * wx
    bot = src[oh:, :ow] * (1 - wx) + src[oh:, ow:] * wx
    return top * (1 - wy[:, None]) + bot * wy[:, None]


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample a 2-D float/uint8 array to (out_h, out_w), float64
    out (pixel-center aligned, see ``_axis_taps``)."""
    return bilinear_blend(*bilinear_taps(img, out_h, out_w))

"""Image thumbnail operator: an actor-pool ``map_batches`` stage over
(image_id, bytes[, fmt, orientation]) rows.

Each actor resolves its codec and kernel handles once in ``__init__``;
``__call__`` decodes each row of an Arrow batch, normalizes EXIF
orientation, downscales with the reference-exact bilinear kernel and
re-encodes as PNG. Output schema:

  (image_id: string, thumb: binary, w: int32, h: int32, status: string)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd


class ImageThumbnailer:
    """map_batches UDF: decode -> EXIF-orientation normalize -> bilinear
    downscale (longest side <= max_side, never upscaled) -> PNG encode.

    It runs on the engine's own pure-numpy codecs (idf.codecs) and the
    reference-exact bilinear kernel (idf/kernels/preprocess.py,
    core/Format.java analog). Per-record error tolerance mirrors the
    hash stage (M9): undecodable rows emit status='skip' instead of
    failing the task."""

    def __init__(self, max_side: int = 64):
        from idf import codecs
        from idf.kernels.exif import exif_transform
        from idf.kernels.preprocess import bilinear_resize

        self._decode = codecs.decode
        self._encode = codecs.encode
        self._resize = bilinear_resize
        self._orient = exif_transform
        self.max_side = int(max_side)

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = t["image_id"].to_pylist()
        blobs = t["bytes"].to_pylist()
        fmts = t["fmt"].to_pylist() if "fmt" in t.column_names else [None] * len(ids)
        have_orient_col = "orientation" in t.column_names
        orients = t["orientation"].to_pylist() if have_orient_col else [None] * len(ids)
        out_id, out_bytes, out_w, out_h, out_status = [], [], [], [], []
        for image_id, data, fmt, orient in zip(ids, blobs, fmts, orients):
            try:
                img = self._decode(data, fmt)
                if orient is None and bytes(data[:3]) == b"\xff\xd8\xff":
                    # real JPEG, no orientation column: read APP1 Exif
                    from idf.codecs.jfif import exif_orientation

                    orient = exif_orientation(data)
                img = self._orient(img, int(orient or 1))
                h, w = img.shape[:2]
                scale = self.max_side / max(h, w)
                if scale < 1.0:
                    oh = max(1, int(round(h * scale)))
                    ow = max(1, int(round(w * scale)))
                    if img.ndim == 2:
                        img = self._resize(img, oh, ow)
                    else:
                        img = np.stack(
                            [self._resize(img[:, :, c], oh, ow) for c in range(img.shape[2])],
                            axis=2,
                        )
                    img = np.clip(np.rint(img), 0, 255).astype(np.uint8)
                else:
                    img = img.astype(np.uint8, copy=False)
                png = self._encode(img, "png")
                out_id.append(image_id)
                out_bytes.append(png)
                out_h.append(img.shape[0])
                out_w.append(img.shape[1])
                out_status.append("ok")
            except Exception:  # noqa: BLE001 — per-record tolerance (M9)
                out_id.append(image_id)
                out_bytes.append(b"")
                out_h.append(0)
                out_w.append(0)
                out_status.append("skip")
        return pa.table(
            {
                "image_id": pa.array(out_id, pa.string()),
                "thumb": pa.array(out_bytes, pa.binary()),
                "w": pa.array(np.asarray(out_w, dtype=np.int32)),
                "h": pa.array(np.asarray(out_h, dtype=np.int32)),
                "status": pa.array(out_status, pa.string()),
            }
        )


def image_thumbnails(
    images: rd.Dataset, max_side: int = 64, concurrency: int | None = None
) -> rd.Dataset:
    """Actor-pool thumbnail stage over (image_id, bytes[, fmt,
    orientation]) rows. Small batches: each input row carries an
    encoded image, so batch bytes — not row count — bound worker heap."""
    kw = {"concurrency": (1, concurrency)} if concurrency else {"concurrency": (1, 8)}
    return images.map_batches(
        ImageThumbnailer,
        fn_constructor_kwargs={"max_side": max_side},
        batch_format="pyarrow",
        batch_size=64,
        zero_copy_batch=True,
        **kw,
    )

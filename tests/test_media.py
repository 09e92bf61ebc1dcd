"""Thumbnail operator: decode -> EXIF normalize -> bilinear downscale
-> PNG encode, checked by round-tripping the output through the
engine's own codec."""

import ray.data as rd


def test_image_thumbnails_real_roundtrip(ray_session, small_images_table):
    """The thumbnail stage decodes, resizes and PNG-encodes, and the
    output PNG round-trips through the engine's own codec with the
    expected geometry."""
    from idf import codecs
    from idf.functions.media import image_thumbnails

    imgs = rd.read_parquet(small_images_table)
    out = image_thumbnails(imgs, max_side=16).to_pandas()
    src = rd.read_parquet(small_images_table).to_pandas()
    assert len(out) == len(src)
    ok = out[out["status"] == "ok"]
    assert len(ok) > 0
    for _, r in ok.head(8).iterrows():
        thumb = codecs.decode(r["thumb"], "png")
        assert thumb.shape[0] == r["h"] and thumb.shape[1] == r["w"]
        assert max(r["h"], r["w"]) <= 16
    # deterministic bytes across runs
    out2 = image_thumbnails(rd.read_parquet(small_images_table), max_side=16).to_pandas()
    m1 = dict(zip(out["image_id"], out["thumb"].map(lambda b: hash(bytes(b)))))
    m2 = dict(zip(out2["image_id"], out2["thumb"].map(lambda b: hash(bytes(b)))))
    assert m1 == m2

import numpy as np
import pytest

from idf.codecs import DecodeError, decode, encode, sniff
from idf.codecs.png import decode_png, encode_png


def _rand_img(shape=(61, 47, 3), seed=1):
    return np.random.default_rng(seed).integers(0, 256, shape, dtype=np.uint8)


@pytest.mark.parametrize("fmt", ["png", "bmp"])
def test_lossless_roundtrip(fmt):
    img = _rand_img()
    data = encode(img, fmt)
    assert sniff(data) == fmt
    assert np.array_equal(decode(data), img)


def test_png_gray_and_rgba():
    gray = _rand_img((20, 30), seed=2)
    out = decode_png(encode_png(gray))
    assert out.shape == (20, 30, 3)
    assert np.array_equal(out[..., 0], gray)
    rgba = _rand_img((15, 9, 4), seed=3)
    out = decode_png(encode_png(rgba))
    assert np.array_equal(out, rgba[..., :3])


def test_png_filter_decode():
    """Decoder handles all five scanline filters (hand-built IDAT)."""
    import struct
    import zlib

    from idf.codecs.png import MAGIC, _chunk

    img = _rand_img((6, 5, 3), seed=4)
    h, w, c = img.shape
    rows = []
    prev = np.zeros(w * c, dtype=np.int32)
    for y in range(h):
        line = img[y].reshape(-1).astype(np.int32)
        f = y % 5
        enc = np.zeros(w * c, dtype=np.int32)
        for i in range(w * c):
            a = line[i - c] if i >= c else 0
            b = prev[i]
            cc = prev[i - c] if i >= c else 0
            if f == 0:
                enc[i] = line[i]
            elif f == 1:
                enc[i] = line[i] - a
            elif f == 2:
                enc[i] = line[i] - b
            elif f == 3:
                enc[i] = line[i] - ((a + b) >> 1)
            else:
                p = a + b - cc
                pa, pb, pc2 = abs(p - a), abs(p - b), abs(p - cc)
                pred = a if (pa <= pb and pa <= pc2) else (b if pb <= pc2 else cc)
                enc[i] = line[i] - pred
        rows.append(bytes([f]) + (enc & 0xFF).astype(np.uint8).tobytes())
        prev = line
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    data = (
        MAGIC
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(b"".join(rows)))
        + _chunk(b"IEND", b"")
    )
    assert np.array_equal(decode_png(data), img)


def _psnr(a, b):
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    return 10 * np.log10(255**2 / max(mse, 1e-12))


def test_fjpg_quality_ladder():
    yy, xx = np.mgrid[0:96, 0:96]
    img = np.stack(
        [(xx * 2) % 256, (yy * 2) % 256, (xx + yy) % 256], axis=-1
    ).astype(np.uint8)
    hi = decode(encode(img, "jpg", quality=90))
    lo = decode(encode(img, "jpg", quality=30))
    assert _psnr(img, hi) >= 40.0  # BASELINE.json fidelity bar for lossy
    assert _psnr(img, lo) < _psnr(img, hi)
    assert _psnr(img, lo) > 25.0


def test_decode_errors():
    with pytest.raises(DecodeError):
        decode(b"not an image at all")
    good = encode(_rand_img(), "png")
    with pytest.raises(DecodeError):
        decode(good[:40])  # truncated after valid magic


def _full_image_bilinear(src, out_h, out_w):
    """The float64 bilinear before the tap gather: the whole image
    converted, taps recomputed per call."""
    in_h, in_w = src.shape
    if (in_h, in_w) == (out_h, out_w):
        return src.copy()

    def axis(in_n, out_n):
        x = np.clip((np.arange(out_n) + 0.5) * (in_n / out_n) - 0.5, 0.0, in_n - 1.0)
        lo = np.floor(x).astype(np.int64)
        return lo, np.minimum(lo + 1, in_n - 1), x - lo

    y0, y1, wy = axis(in_h, out_h)
    x0, x1, wx = axis(in_w, out_w)
    top = src[y0][:, x0] * (1 - wx) + src[y0][:, x1] * wx
    bot = src[y1][:, x0] * (1 - wx) + src[y1][:, x1] * wx
    return top * (1 - wy[:, None]) + bot * wy[:, None]


def _full_image_preprocess(img, out_h, out_w):
    """The hash input before luma moved to the bilinear taps: luma601
    over the whole image, then the full-image bilinear."""
    from idf.kernels.preprocess import luma601_u8

    gray = luma601_u8(img) if img.ndim == 3 else img
    resized = _full_image_bilinear(gray.astype(np.float64), out_h, out_w)
    return np.clip(np.floor(resized + 0.5), 0, 255).astype(np.uint8)


@pytest.mark.parametrize(
    "shape",
    [(1, 1, 3), (1, 57, 3), (44, 1, 3), (32, 32, 3), (8, 8, 3), (8, 9), (8, 8), (19, 83, 3),
     (120, 37), (33, 31, 4), (64, 48, 4)],
)
def test_preprocess_taps_match_full_image_reference(shape):
    """Luma at the bilinear taps (gathered first, cached tap tables) ==
    luma over the whole image then the full-image float64 bilinear, bit
    for bit: 1x1, 1xN, Nx1, in == out, upsampling, non-square, gray,
    RGBA-sliced views and every EXIF orientation of a strided view."""
    from idf.kernels.exif import exif_transform
    from idf.kernels.hashes import preprocess
    from idf.kernels.preprocess import bilinear_resize

    img = _rand_img(shape, seed=sum(shape))
    if img.ndim == 3 and img.shape[2] == 4:
        img = img[:, :, :3]  # the PNG RGBA path's strided view
    for o in range(1, 9):
        view = exif_transform(img, o)
        for dims in ((32, 32), (8, 8), (8, 9), (9, 8)):
            assert np.array_equal(preprocess(view, *dims), _full_image_preprocess(view, *dims))
    gray = img if img.ndim == 2 else img[:, :, 1]
    for dims in ((32, 32), gray.shape, (5, 70)):
        want = _full_image_bilinear(gray.astype(np.float64), *dims)
        assert np.array_equal(bilinear_resize(gray, *dims), want)
        f = gray * 0.37
        assert np.array_equal(bilinear_resize(f, *dims), _full_image_bilinear(f, *dims))


def test_png_luma_fused_bit_exact():
    """On the hash path a PNG decodes to a zero-copy view of its
    inflated scanlines (RGB; RGBA with alpha sliced off; gray 2-D), and
    luma at the bilinear taps gives bit-for-bit the hash input of
    luma601_u8(decode_png(...)) over the whole image — on bytes and on
    memoryview input."""
    from idf.codecs import decode_luma_scaled
    from idf.kernels.hashes import preprocess
    from idf.kernels.preprocess import luma601_u8

    for shape, seed in (((61, 47, 3), 1), ((15, 9, 4), 3), ((20, 30), 2)):
        img = _rand_img(shape, seed=seed)
        data = encode_png(img)
        ref = decode_png(data)
        for buf in (data, memoryview(data)):
            px, h, w = decode_luma_scaled(buf, 16)
            assert (h, w) == shape[:2] and not px.flags.owndata  # a view, no copy
            if len(shape) == 2:
                assert px.shape == shape and np.array_equal(px, img)
                assert np.array_equal(px, luma601_u8(ref))  # gray identity
            else:
                assert px.shape == (*shape[:2], 3) and np.array_equal(px, ref)
                assert np.array_equal(luma601_u8(px), luma601_u8(ref))
            for dims in ((32, 32), (8, 8), (8, 9)):
                assert np.array_equal(preprocess(px, *dims), _full_image_preprocess(ref, *dims))


def test_luma601_gray_identity_exhaustive():
    """luma601(x,x,x) == x for every uint8 x — the invariant the fused
    gray-PNG fast path relies on (float32 0.299+0.587+0.114 sums to 1.0
    in the evaluation order used)."""
    from idf.kernels.preprocess import luma601_u8

    x = np.arange(256, dtype=np.uint8)
    img = np.repeat(x.reshape(16, 16, 1), 3, axis=2)
    assert np.array_equal(luma601_u8(img), x.reshape(16, 16))


def _png_bytes(rows: list[bytes], w: int, h: int, color_type: int, n_idat: int = 1) -> bytes:
    """Hand-built PNG: ``rows`` are raw scanlines (filter byte first),
    the zlib stream split over ``n_idat`` IDAT chunks."""
    import struct
    import zlib

    from idf.codecs.png import MAGIC, _chunk

    z = zlib.compress(b"".join(rows))
    cut = [len(z) * k // n_idat for k in range(n_idat + 1)]
    return (
        MAGIC
        + _chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0))
        + b"".join(_chunk(b"IDAT", z[a:b]) for a, b in zip(cut, cut[1:]))
        + _chunk(b"IEND", b"")
    )


def test_png_luma_fused_filtered_fallback():
    """Filtered PNGs (non-zero filter bytes) reconstruct through the
    general unfilter loop; the hash path's pixels and hash input still
    match the full decode."""
    from idf.codecs import decode_luma_scaled
    from idf.kernels.hashes import preprocess

    # one row filter-2 (Up) image, 3x2 RGB
    data = _png_bytes([b"\x00" + bytes(range(6)), b"\x02" + bytes(range(6))], 2, 2, 2)
    ref = decode_png(data)
    assert np.array_equal(ref[1], (2 * np.arange(6, dtype=np.uint8)).reshape(2, 3))
    px, h, w = decode_luma_scaled(data, 16)
    assert (h, w) == (2, 2) and np.array_equal(px, ref)
    assert np.array_equal(preprocess(px, 32, 32), _full_image_preprocess(ref, 32, 32))


def _inflate_cases():
    """(name, bytes) per inflate consumer: RGB, RGBA, gray, filtered and
    multi-IDAT PNGs, and FJPG streams (v3 DC plane at 1/8 scale, full
    coefficient planes)."""
    from idf.codecs import encode

    rgb, rgba, gray = _rand_img((40, 33, 3), 11), _rand_img((17, 29, 4), 12), _rand_img((23, 41), 13)
    filt = [bytes([y % 5]) + bytes(_rand_img((1, 3 * 19), 14 + y).ravel()) for y in range(12)]
    yy, xx = np.mgrid[0:160, 0:200]
    smooth = np.stack([(xx + yy) % 256, (2 * xx) % 256, (3 * yy) % 256], -1).astype(np.uint8)
    return [
        ("png_rgb", encode_png(rgb)),
        ("png_rgba", encode_png(rgba)),
        ("png_gray", encode_png(gray)),
        ("png_filtered", _png_bytes(filt, 19, 12, 2)),
        ("png_multi_idat", _png_bytes([b"\x00" + bytes(r.ravel()) for r in rgb], 33, 40, 2, 4)),
        ("fjpg_dc_plane", encode(smooth, "jpg", quality=80)),
        ("fjpg_small", encode(rgb, "jpg", quality=60)),
    ]


@pytest.fixture
def zlib_only(monkeypatch):
    """Pins ``native.inflate`` to its stdlib-zlib fallback."""
    from idf.codecs import native

    monkeypatch.setattr(native, "get_deflate", lambda: None)


def test_inflate_native_matches_zlib(monkeypatch):
    """libdeflate and the zlib fallback give identical pixels (and
    decoded images) for every inflate consumer."""
    from idf.codecs import decode_luma_scaled, native

    if native.get_deflate() is None:
        pytest.skip("no system libdeflate: the zlib fallback is the only path")
    cases = _inflate_cases()
    got = {n: (decode_luma_scaled(d, 16), decode(d)) for n, d in cases}
    monkeypatch.setattr(native, "get_deflate", lambda: None)
    for name, data in cases:
        (px, h, w), full = got[name]
        (px2, h2, w2), full2 = decode_luma_scaled(data, 16), decode(data)
        assert (h, w) == (h2, w2) and px.shape == px2.shape, name
        assert np.array_equal(px, px2) and np.array_equal(full, full2), name
    assert got["fjpg_dc_plane"][0][0].shape == (20, 25)  # k = 1: DC plane only


@pytest.mark.parametrize("native_path", [True, False], ids=["libdeflate", "zlib"])
def test_inflate_bad_streams_raise_decode_error(native_path, monkeypatch):
    """Truncated, adler-corrupt, over-long and short zlib streams raise
    ValueError from inflate and DecodeError (skip:decode) from the hash
    path, on both inflate paths."""
    import zlib

    from idf.codecs import decode_luma_scaled, encode, native

    if native_path and native.get_deflate() is None:
        pytest.skip("no system libdeflate")
    if not native_path:
        monkeypatch.setattr(native, "get_deflate", lambda: None)
    payload = bytes(range(256)) * 8
    z = zlib.compress(payload)
    assert bytes(native.inflate(memoryview(z + b"trailing"), len(payload))) == payload
    for src, n in (
        (z[:-7], len(payload)),  # truncated
        (z[:-4] + bytes(x ^ 0xFF for x in z[-4:]), len(payload)),  # bad adler32
        (z, len(payload) - 1),  # output longer than expected
        (z, len(payload) + 1),  # output shorter than expected
        (b"", 0),
    ):
        with pytest.raises(ValueError):
            native.inflate(src, n)

    img = _rand_img((12, 10, 3), 21)
    rows = [b"\x00" + bytes(r.ravel()) for r in img]
    good = _png_bytes(rows, 10, 12, 2)
    assert np.array_equal(decode_luma_scaled(good, 16)[0], img)
    idat = zlib.compress(b"".join(rows))
    bad_pngs = {
        "truncated": good.replace(idat, idat[:-9]),
        "adler": good.replace(idat, idat[:-1] + bytes([idat[-1] ^ 1])),
        "over_long": _png_bytes(rows, 10, 11, 2),  # IHDR claims one row less
        "short": _png_bytes(rows, 10, 13, 2),  # IHDR claims one row more
    }
    smooth = encode(np.full((160, 160, 3), 90, np.uint8), "jpg", quality=80)
    dc_len = int.from_bytes(smooth[10:14], "little")
    bad_fjpg = smooth[:14] + smooth[14 : 14 + dc_len - 3] + b"\0\0\0" + smooth[14 + dc_len :]
    for name, data in (*bad_pngs.items(), ("fjpg_dc_adler", bad_fjpg)):
        with pytest.raises(DecodeError):
            decode_luma_scaled(data, 16)
        with pytest.raises(DecodeError):
            decode(data)


def test_inflate_threads_keep_their_own_decompressor():
    """libdeflate decompressors are not thread-safe and the ctypes call
    drops the GIL, so each thread inflates with its own: threads
    inflating at once (more threads than cores, short switch interval)
    each get exactly their own stream back."""
    import sys
    import threading
    import zlib

    from idf.codecs import native

    payloads = [bytes(_rand_img((256, 1024), seed=s).ravel() >> 4) for s in range(8)]
    streams = [zlib.compress(p, 1) for p in payloads]
    bad = []

    def work(k):
        for _ in range(20):
            if bytes(native.inflate(streams[k], len(payloads[k]))) != payloads[k]:
                bad.append(k)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads) and not bad


def test_missing_or_empty_bytes_raise_decode_error():
    """A null or empty ``bytes`` cell is a per-row decode skip at every
    codec entry point, not a TypeError."""
    from idf.codecs import decode_luma, decode_luma_scaled
    from idf.kernels.hashes import hash_bytes

    for data in (None, b"", memoryview(b"")):
        for fn in (decode, decode_luma, lambda d: decode_luma_scaled(d, 16), hash_bytes):
            with pytest.raises(DecodeError):
                fn(data)


def test_real_jpeg_seam():
    """Real JPEG/JFIF bytes route to the in-repo pure-numpy decoder
    (idf/codecs/jfif.py) through every registry entry point; corrupt
    payloads after a valid SOI raise DecodeError (-> per-row skip),
    never an unhandled crash (core/ImageLoader.java:7-11 seam)."""
    from idf.codecs import decode_luma, decode_luma_scaled
    from idf.codecs.jfif import encode_jfif

    fake_jfif = b"\xff\xd8\xff\xe0" + b"\x00" * 32
    assert sniff(fake_jfif) == "jfif"
    for fn in (decode, decode_luma, lambda d: decode_luma_scaled(d, 16)):
        with pytest.raises(DecodeError):
            fn(fake_jfif)

    img = _rand_img((24, 31, 3), seed=9)
    data = encode_jfif(img, quality=95)
    assert sniff(data) == "jfif"
    assert decode(data).shape == (24, 31, 3)
    assert decode_luma(data).shape == (24, 31)
    gray, h, w = decode_luma_scaled(data, 16)
    assert (h, w) == (24, 31)
    with pytest.raises(DecodeError):
        decode(data[: len(data) // 2])  # truncated scan


# ---------------------------------------------------------------------------
# real JFIF (idf/codecs/jfif.py): wire-format JPEG encode + decode


def _smooth_img(h=96, w=96):
    yy, xx = np.mgrid[0:h, 0:w]
    return np.stack(
        [(xx * 2) % 256, (yy * 2) % 256, (xx + yy) % 256], axis=-1
    ).astype(np.uint8)


@pytest.mark.parametrize("sub", ["444", "420"])
def test_jfif_roundtrip_quality_ladder(sub):
    from idf.codecs.jfif import decode_jfif, encode_jfif

    img = _smooth_img()
    hi = decode_jfif(encode_jfif(img, quality=90, subsampling=sub))
    lo = decode_jfif(encode_jfif(img, quality=30, subsampling=sub))
    assert _psnr(img, hi) >= 40.0  # BASELINE.json fidelity bar for lossy
    assert _psnr(img, lo) < _psnr(img, hi)
    assert _psnr(img, lo) > 25.0


def test_jfif_odd_dims_and_tiny():
    """MCU padding: odd dims with 4:2:0 (padding crosses both the block
    grid and the chroma subsample grid), plus 1x1 and 1xN edge shapes."""
    from idf.codecs.jfif import decode_jfif, encode_jfif

    for shape in ((13, 17, 3), (8, 8, 3), (1, 1, 3), (1, 19, 3), (23, 1, 3)):
        h, w, _ = shape
        yy, xx = np.mgrid[0:h, 0:w]
        img = np.stack(
            [(xx * 7 + 40) % 256, (yy * 5 + 90) % 256, (xx + yy + 160) % 256], axis=-1
        ).astype(np.uint8)
        for sub in ("444", "420"):
            out = decode_jfif(encode_jfif(img, quality=95, subsampling=sub))
            assert out.shape == shape
            assert _psnr(img, out) > 25.0


def test_jfif_gray_luma_exact():
    """Grayscale JPEG: Y channel round-trips through the single-component
    scan; decode_jfif_luma equals the RGB decode's (replicated) channel
    bit-for-bit, and chroma-free means luma == channel exactly."""
    from idf.codecs.jfif import decode_jfif, decode_jfif_luma, encode_jfif

    g = _rand_img((41, 57), seed=11)
    data = encode_jfif(g, quality=90)
    rgb = decode_jfif(data)
    assert np.array_equal(rgb[..., 0], rgb[..., 1])
    assert np.array_equal(rgb[..., 0], decode_jfif_luma(data))
    assert _psnr(g, rgb[..., 0]) > 30.0


def test_jfif_fill_bytes_before_markers():
    """T.81 B.1.1.2 allows any number of 0xFF fill bytes before a
    marker; real-world encoders emit them for alignment. Regression
    (r4): the parse loop used to read a bogus segment length from the
    real marker byte and derail — fill-padded valid JPEGs became
    skip:decode rows."""
    from idf.codecs.jfif import decode_jfif, encode_jfif

    img = _rand_img((24, 31, 3), seed=13)
    data = encode_jfif(img, quality=85, subsampling="420")
    want = decode_jfif(data)
    # pad before DQT, DHT and SOS markers with 1-3 fill bytes each
    padded = data
    for marker, nfill in ((b"\xff\xdb", 1), (b"\xff\xc4", 3), (b"\xff\xda", 2)):
        i = padded.index(marker)
        padded = padded[:i] + b"\xff" * nfill + padded[i:]
    assert len(padded) == len(data) + 6
    assert np.array_equal(decode_jfif(padded), want)


def test_jfif_huff_lut_cache_lru():
    """The decoder-wide Huffman LUT cache is bounded and LRU: junk
    tables cycle out while a re-touched (hot) table survives a full
    sweep past the cap."""
    from idf.codecs import jfif

    old = dict(jfif._HT_CACHE)
    jfif._HT_CACHE.clear()
    try:
        def mk(tag: int):
            # distinct single-symbol tables: one code of length 2
            counts = [0, 1] + [0] * 14
            return jfif._huff_table(counts, bytes([tag]))

        hot = mk(0)
        for i in range(1, jfif._HT_CACHE_CAP + 40):
            mk(i % 250 + 1)
            if i % 16 == 0:
                assert mk(0) is hot  # periodic touch keeps it MRU
        assert mk(0) is hot
        assert len(jfif._HT_CACHE) <= jfif._HT_CACHE_CAP
    finally:
        jfif._HT_CACHE.clear()
        jfif._HT_CACHE.update(old)


def test_jfif_restart_markers():
    """DRI/RSTn segmentation decodes bit-identically to the same image
    without restarts (exercises the decoder's segment/pred-reset path)."""
    from idf.codecs.jfif import decode_jfif, encode_jfif

    img = _rand_img((33, 50, 3), seed=12)
    plain = encode_jfif(img, quality=85, subsampling="420")
    rst = encode_jfif(img, quality=85, subsampling="420", restart_interval=2)
    assert b"\xff\xdd" in rst and b"\xff\xdd" not in plain
    assert np.array_equal(decode_jfif(plain), decode_jfif(rst))


def test_jfif_scaled_luma_contract():
    """decode_jfif_luma_scaled: constant image stays constant at every
    scale; k=8 equals the full luma decode; scaled dims follow the k/8
    ceil rule (same contract as fjpg.decode_fjpg_luma_scaled)."""
    from idf.codecs.jfif import decode_jfif_luma, decode_jfif_luma_scaled, encode_jfif

    flat = np.full((64, 80, 3), 137, dtype=np.uint8)
    data = encode_jfif(flat, quality=90, subsampling="420")
    for min_dim in (4, 16, 64):
        y, h, w = decode_jfif_luma_scaled(data, min_dim)
        assert (h, w) == (64, 80)
        assert min(y.shape) >= min(min_dim, 64)
        assert int(y.max()) - int(y.min()) <= 1  # constant up to rounding
    y8, _, _ = decode_jfif_luma_scaled(data, 64)
    assert np.array_equal(y8, decode_jfif_luma(data))


def test_jfif_phash_family_integration():
    """A real-JFIF re-encode of a procedural image hashes within the
    family radius (<= 10) of its PNG twin — the property the dedup
    pipeline relies on for mixed-format duplicate families."""
    from idf.codecs import encode
    from idf.codecs.jfif import encode_jfif
    from idf.kernels.hashes import hash_bytes
    from idf.synth import _base_image

    rng = np.random.default_rng(3)
    for _ in range(3):
        base = _base_image(rng)
        ph_png, _, _ = hash_bytes(encode(base, "png"), "phash")
        ph_jf, _, _ = hash_bytes(encode_jfif(base, quality=92), "phash")
        assert bin(ph_png ^ ph_jf).count("1") <= 10


_FIXDIR = "/root/reference/fixtures"


@pytest.mark.skipif(
    not __import__("os").path.exists(_FIXDIR), reason="reference fixtures absent"
)
def test_jfif_reference_fixtures():
    """Decode of REAL encoder output (the reference's own test corpus,
    used as data only): baseline 4:2:0, baseline 4:4:4 and 10-scan
    progressive files; fidelity pinned against this repo's independent
    PNG decoder on the losslessly-stored copy of the same picture."""
    import os

    from idf.codecs.jfif import decode_jfif

    rd = lambda n: open(os.path.join(_FIXDIR, n), "rb").read()  # noqa: E731

    png = decode_png(rd("drink-png.png"))
    base = decode_jfif(rd("drink.jpg"))  # baseline, 4:2:0
    assert base.shape == png.shape == (810, 810, 3)
    assert _psnr(png, base) >= 40.0

    cat = decode_jfif(rd("cat.jpg"))  # baseline, 4:4:4
    assert cat.shape == (184, 184, 3)

    prog = decode_jfif(rd("drink-compressed-lightly.jpg"))  # progressive
    assert _psnr(png, prog) >= 30.0

    black = decode_jfif(rd(os.path.join("true-grayscale", "200x200-black.jpg")))
    assert black.shape == (200, 200, 3)
    assert int(black.max()) == 0


def test_jfif_skip_mode_parity():
    """The luma-only skip-mode decode (packed skip LUTs + whole-scan
    drop, r4) must be byte-identical to a full decode restricted to
    the Y plane, at every partial-iDCT scale and across subsampling /
    restart / grayscale variants."""
    import numpy as np

    from idf.codecs import jfif

    def full_then_scale(data, min_dim):
        frame, comps = jfif._decode_all(data, None)  # no skip mode
        c0 = comps[0]
        k = 8
        for cand in range(1, 9):
            if (c0.hgt * cand) // 8 >= min_dim and (c0.w * cand) // 8 >= min_dim:
                k = cand
                break
        return (
            np.clip(jfif._comp_plane(c0, frame["qt"][c0.tq], k).round(), 0, 255)
            .astype(np.uint8)
        )

    rng = np.random.default_rng(17)
    for size in [(24, 40), (100, 130), (256, 256)]:
        for sub in ["420", "444"]:
            for ri in [0, 3]:
                for gray in [False, True]:
                    shape = size + (() if gray else (3,))
                    img = rng.integers(0, 256, shape, dtype=np.uint8)
                    data = jfif.encode_jfif(
                        img, quality=85, subsampling=sub, restart_interval=ri
                    )
                    for min_dim in (16, 32, 96):
                        got, _h, _w = jfif.decode_jfif_luma_scaled(data, min_dim)
                        assert np.array_equal(got, full_then_scale(data, min_dim))


def test_jfif_skip_mode_reference_fixtures():
    """Skip-mode parity on REAL encoder output incl. the progressive
    fixture, where whole AC scans are dropped unread."""
    import glob
    import os

    import numpy as np
    import pytest

    from idf.codecs import jfif

    if not os.path.isdir(_FIXDIR):
        pytest.skip("reference fixtures absent")
    for f in sorted(glob.glob(os.path.join(_FIXDIR, "*.jpg"))):
        data = open(f, "rb").read()
        frame, comps = jfif._decode_all(data, None)
        c0 = comps[0]
        k = 8
        for cand in range(1, 9):
            if (c0.hgt * cand) // 8 >= 32 and (c0.w * cand) // 8 >= 32:
                k = cand
                break
        want = (
            np.clip(jfif._comp_plane(c0, frame["qt"][c0.tq], k).round(), 0, 255)
            .astype(np.uint8)
        )
        got, _h, _w = jfif.decode_jfif_luma_scaled(data)
        assert np.array_equal(got, want), f


def test_jfif_truncated_stream_raises_jfiferror():
    """Entropy data cut mid-scan must surface as JfifError (the 8-byte
    fill pad converts the run-off into a caught IndexError), so the
    per-record tolerance path still classifies it as a decode skip."""
    import numpy as np
    import pytest

    from idf.codecs import jfif

    img = np.random.default_rng(0).integers(0, 256, (64, 64, 3), dtype=np.uint8)
    data = jfif.encode_jfif(img, quality=85)
    cut = data[: int(len(data) * 0.6)]
    with pytest.raises(jfif.JfifError):
        jfif.decode_jfif(cut)
    with pytest.raises(jfif.JfifError):
        jfif.decode_jfif_luma_scaled(cut)

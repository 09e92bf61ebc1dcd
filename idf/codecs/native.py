"""Runtime-compiled C entropy kernel for the baseline JFIF decoder.

The pure-Python bit loop in ``jfif._decode_baseline_scan`` is the
measured constant-factor ceiling on real-JPEG-heavy corpora (r4
verdict: heavy mix 10.2k img/s vs 15.1k default; 88% of decode time in
one irreducible Python loop). This module removes that ceiling where
the sandbox allows it honestly: the SAME symbol-by-symbol algorithm,
transliterated to ~150 lines of C, compiled ONCE per machine with the
system toolchain (``cc -O2 -shared``) into a content-addressed cache
under ``$TMPDIR`` and loaded via ctypes. No pip/apt, no vendored
binaries, no network: if the box has no compiler — or compilation,
loading, or a smoke call fails for any reason — every caller gets
``None`` and the decoder keeps the tested pure-Python path. Semantics
are bit-identical by construction (one peek LUT per symbol, identical
fill/extend/EOB/ZRL/error rules); ``tests/test_native_entropy.py``
asserts native == Python output and error behavior over an
encode-parameter grid, and the whole existing JFIF suite runs through
the native path wherever it is available.

``IDF_NO_NATIVE=1`` pins the pure-Python path (used by the A/B tests
and for honest like-for-like timings).

The same module also loads the system ``libdeflate`` (when the box has
one) for ``inflate``, the one zlib-stream decoder of ``idf/codecs``
(PNG IDAT, FJPG planes): it decodes straight into an exact-size output
buffer, about twice as fast as stdlib zlib on the corpus's PNGs. The
same switch and the same fallback apply: under ``IDF_NO_NATIVE=1``, or
when the library cannot be loaded or fails its smoke call, ``inflate``
runs ``zlib.decompress`` with the same success and error rules
(``tests/test_codecs.py`` compares the two).

Why a serial C kernel instead of the r4 verdict's suggested
restart-interval (DRI) intra-image parallelism: decode is already
embarrassingly parallel ACROSS images in ``map_batches`` — at 32 CPUs
the stage saturates all cores, so splitting one image's entropy
segments across tasks moves latency around without reducing the
corpus-wide core-seconds. The constant factor per symbol is the
bottleneck; a compiled symbol loop attacks exactly that (and helps
every image, DRI markers or not).
"""

from __future__ import annotations

import ctypes
import ctypes.util
import hashlib
import os
import subprocess
import tempfile
import threading
import zlib

import numpy as np

_C_SRC = r"""
#include <stdint.h>

/* Baseline (and single-scan sequential) JPEG entropy decode over
 * restart-delimited segments. Exact transliteration of the Python
 * loop in idf/codecs/jfif.py:_decode_baseline_scan (which itself
 * mirrors T.81 F.2): 16-bit peek LUT resolves every code in one
 * lookup; segments arrive unstuffed and 8-byte 0xFF padded; reading
 * past a segment's pad means a truncated stream.
 *
 * U: per block-unit int64 row of 11 values:
 *   0 slot      predictor slot (index into the scan's component list)
 *   1 by, 2 bx  block position inside the MCU
 *   3 comp_bw   component's allocated blocks-per-row
 *   4 comp_v, 5 comp_h  sampling factors
 *   6 bound     -1 = advance only; else store coefs with zigzag
 *               index <= bound (63 = full decode)
 *   7 dc_tbl, 8 ac_tbl  table index into the stacked 65536-entry LUTs
 *   9 coef_ptr  address of the component's (n_blocks, 64) int32 array
 *  10 n_blocks  rows in that array (bounds guard: the Python loop gets
 *               this for free from numpy indexing)
 *
 * Returns 0 ok, 1 bad DC code, 2 bad AC code, 3 AC index out of
 * range, 4 truncated entropy data, 6 block index out of bounds
 * (mirrors numpy IndexError -> "truncated entropy data"). The Python
 * wrapper refuses scans with >16 components or DC magnitude
 * categories >16 (malformed tables) so preds[] and the single-refill
 * value reads below are safe by construction. */

#define FILL16                                                          \
    if (nbits < 16) {                                                   \
        if (pos + 2 > pend) return 4;                                   \
        acc = (acc << 16) | ((uint64_t)buf[pos] << 8) | buf[pos + 1];   \
        pos += 2;                                                       \
        nbits += 16;                                                    \
    }

long long idf_decode_baseline(
    const uint8_t *buf,
    const int64_t *seg_off, const int64_t *seg_end, int64_t n_segs,
    int64_t total, int64_t per, int64_t mcus_x,
    int64_t interleaved, int64_t bw_scan,
    int64_t n_units, const int64_t *U,
    const int16_t *lut_sym, const int16_t *lut_len)
{
    if (n_units > 64) return 5;
    int32_t u_slot[64], u_bound[64];
    int64_t u_by[64], u_bx[64], u_bw[64], u_v[64], u_h[64], u_nb[64];
    const int16_t *u_dsym[64], *u_dlen[64], *u_asym[64], *u_alen[64];
    int32_t *u_coefs[64];
    for (int64_t u = 0; u < n_units; u++) {
        const int64_t *r = U + u * 11;
        u_slot[u] = (int32_t)r[0];
        if (u_slot[u] < 0 || u_slot[u] > 15) return 5;
        u_by[u] = r[1];
        u_bx[u] = r[2];
        u_bw[u] = r[3];
        u_v[u] = r[4];
        u_h[u] = r[5];
        u_bound[u] = (int32_t)r[6];
        u_dsym[u] = lut_sym + r[7] * 65536;
        u_dlen[u] = lut_len + r[7] * 65536;
        u_asym[u] = lut_sym + r[8] * 65536;
        u_alen[u] = lut_len + r[8] * 65536;
        u_coefs[u] = (int32_t *)(uintptr_t)r[9];
        u_nb[u] = r[10];
    }

    int64_t done = 0, seg_idx = 0;
    while (done < total) {
        int64_t pos, pend;
        if (seg_idx < n_segs) { pos = seg_off[seg_idx]; pend = seg_end[seg_idx]; }
        else { pos = 0; pend = 0; }  /* matches Python b"" + pad: first fill fails -> 4 */
        uint64_t acc = 0;
        int nbits = 0;
        int64_t preds[16] = {0};
        int64_t end = done + per;
        if (end > total) end = total;
        for (int64_t mcu = done; mcu < end; mcu++) {
            int64_t my = 0, mx = 0, by0 = 0, bx0 = 0;
            if (interleaved) { my = mcu / mcus_x; mx = mcu - my * mcus_x; }
            else { by0 = mcu / bw_scan; bx0 = mcu - by0 * bw_scan; }
            for (int64_t u = 0; u < n_units; u++) {
                const int16_t *dsym = u_dsym[u], *dlen = u_dlen[u];
                const int16_t *asym = u_asym[u], *alen = u_alen[u];
                const int32_t bound = u_bound[u];
                int32_t *row = 0;
                if (bound >= 0) {
                    int64_t bi = interleaved
                        ? (my * u_v[u] + u_by[u]) * u_bw[u] + (mx * u_h[u] + u_bx[u])
                        : by0 * u_bw[u] + bx0;
                    if (bi < 0 || bi >= u_nb[u]) return 6;
                    row = u_coefs[u] + bi * 64;
                }
                /* ---- DC */
                FILL16;
                uint32_t look = (uint32_t)((acc >> (nbits - 16)) & 0xFFFF);
                int ln = dlen[look];
                if (!ln) return 1;
                nbits -= ln;
                int s = dsym[look];
                if (s) {
                    if (nbits < s) {
                        if (pos + 2 > pend) return 4;
                        acc = (acc << 16) | ((uint64_t)buf[pos] << 8) | buf[pos + 1];
                        pos += 2;
                        nbits += 16;
                    }
                    nbits -= s;
                    uint32_t v = (uint32_t)((acc >> nbits) & ((1u << s) - 1));
                    int64_t diff = (v < (1u << (s - 1))) ? (int64_t)v + 1 - (1 << s)
                                                         : (int64_t)v;
                    preds[u_slot[u]] += diff;
                }
                if (row) row[0] = (int32_t)preds[u_slot[u]];
                /* ---- AC */
                for (int k = 1; k < 64;) {
                    FILL16;
                    look = (uint32_t)((acc >> (nbits - 16)) & 0xFFFF);
                    ln = alen[look];
                    if (!ln) return 2;
                    nbits -= ln;
                    int rs = asym[look];
                    s = rs & 15;
                    if (!s) {
                        if (rs != 0xF0) break; /* EOB */
                        k += 16;               /* ZRL */
                        continue;
                    }
                    k += rs >> 4;
                    if (k > 63) return 3;
                    if (nbits < s) {
                        if (pos + 2 > pend) return 4;
                        acc = (acc << 16) | ((uint64_t)buf[pos] << 8) | buf[pos + 1];
                        pos += 2;
                        nbits += 16;
                    }
                    nbits -= s;
                    uint32_t v = (uint32_t)((acc >> nbits) & ((1u << s) - 1));
                    if (k <= bound) {
                        row[k] = (v < (1u << (s - 1))) ? (int32_t)v + 1 - (1 << s)
                                                       : (int32_t)v;
                    }
                    k += 1;
                }
            }
        }
        done = end;
        seg_idx += 1;
    }
    return 0;
}
"""

_ERRORS = {
    1: "bad Huffman code (DC)",
    2: "bad Huffman code (AC)",
    3: "AC index out of range",
    4: "truncated entropy data",
    6: "truncated entropy data",  # block index OOB == numpy IndexError path
}

_lib = None
_lib_tried = False


def _cache_dir() -> str:
    d = os.path.join(tempfile.gettempdir(), "idf_native")
    os.makedirs(d, exist_ok=True)
    return d


def _compile(src: str, out_path: str) -> bool:
    """Compile ``src`` to ``out_path`` atomically (unique temp + replace:
    concurrent Ray workers may race here; losers overwrite with an
    identical artifact)."""
    d = _cache_dir()
    fd, c_path = tempfile.mkstemp(suffix=".c", dir=d)
    so_tmp = c_path[:-2] + ".so"
    try:
        with os.fdopen(fd, "w") as f:
            f.write(src)
        for cc in ("cc", "gcc", "clang"):
            try:
                r = subprocess.run(
                    [cc, "-O2", "-shared", "-fPIC", "-o", so_tmp, c_path],
                    capture_output=True,
                    timeout=60,
                )
            except (OSError, subprocess.TimeoutExpired):
                continue
            if r.returncode == 0:
                os.replace(so_tmp, out_path)
                return True
        return False
    finally:
        for p in (c_path, so_tmp):
            try:
                os.unlink(p)
            except OSError:
                pass


def get_lib():
    """ctypes handle to the compiled kernel, or None (pure-Python path).
    Compiled/loaded once per process; content-addressed so a source
    change never reuses a stale artifact."""
    global _lib, _lib_tried
    if _lib_tried:
        return _lib
    _lib_tried = True
    if os.environ.get("IDF_NO_NATIVE"):
        return None
    try:
        sha = hashlib.sha256(_C_SRC.encode()).hexdigest()[:20]
        path = os.path.join(_cache_dir(), f"idfentropy-{sha}.so")
        if not os.path.exists(path) and not _compile(_C_SRC, path):
            return None
        lib = ctypes.CDLL(path)
        fn = lib.idf_decode_baseline
        fn.restype = ctypes.c_longlong
        fn.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_longlong] * 7 + [ctypes.c_void_p] * 3
        _lib = lib
    except Exception:
        _lib = None
    return _lib


def error_message(code: int) -> str:
    return _ERRORS.get(code, f"native entropy decode failed (code {code})")


_deflate = None
_deflate_tried = False
_tls = threading.local()
_INFLATE_ERRORS = {1: "bad data", 2: "short output", 3: "output too long"}


class _Decompressor:
    """One libdeflate decompressor, owned by one thread (they are not
    thread-safe, and ctypes calls run without the GIL); freed when the
    thread's locals are."""

    def __init__(self, lib):
        self.lib = lib
        self.ptr = lib.libdeflate_alloc_decompressor()
        if not self.ptr:
            raise MemoryError("libdeflate_alloc_decompressor failed")

    def __del__(self):
        self.lib.libdeflate_free_decompressor(self.ptr)


def get_deflate():
    """ctypes handle to the system libdeflate, or None (stdlib zlib
    path). Loaded and smoke-tested once per process."""
    global _deflate, _deflate_tried
    if _deflate_tried:
        return _deflate
    _deflate_tried = True
    if os.environ.get("IDF_NO_NATIVE"):
        return None
    try:
        try:
            lib = ctypes.CDLL("libdeflate.so.0")  # the 1.x soname: no ldconfig run
        except OSError:
            lib = ctypes.CDLL(ctypes.util.find_library("deflate"))
        lib.libdeflate_alloc_decompressor.restype = ctypes.c_void_p
        lib.libdeflate_alloc_decompressor.argtypes = []
        lib.libdeflate_free_decompressor.restype = None
        lib.libdeflate_free_decompressor.argtypes = [ctypes.c_void_p]
        fn = lib.libdeflate_zlib_decompress
        fn.restype = ctypes.c_int
        fn.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t,
                       ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p]
        probe = bytes(range(256)) * 4
        _deflate = lib
        if bytes(inflate(zlib.compress(probe), len(probe))) != probe:
            _deflate = None
    except Exception:
        _deflate = None
    return _deflate


def inflate(src, n_out: int) -> np.ndarray:
    """One zlib stream (any buffer) -> uint8 array of exactly ``n_out``
    bytes. Bytes after the stream's end are ignored; a bad stream
    (truncated, bad adler32) or an output of any other size raises
    ``ValueError``."""
    lib = get_deflate()
    if lib is None:
        try:
            out = zlib.decompress(src, bufsize=max(n_out, 1))
        except zlib.error as exc:
            raise ValueError(f"inflate failed: {exc}") from exc
        if len(out) != n_out:
            raise ValueError(f"inflate: {len(out)} bytes, expected {n_out}")
        return np.frombuffer(out, np.uint8)
    d = getattr(_tls, "d", None)
    if d is None:
        d = _tls.d = _Decompressor(lib)
    inp = np.frombuffer(src, np.uint8)
    out = np.empty(n_out, np.uint8)
    rc = lib.libdeflate_zlib_decompress(
        d.ptr, inp.ctypes.data, inp.size, out.ctypes.data, n_out, None
    )
    if rc:
        raise ValueError(f"inflate failed: {_INFLATE_ERRORS.get(rc, rc)}")
    return out

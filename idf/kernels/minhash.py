"""MinHash signatures + LSH band keys over text shingles.

Word-k-shingles -> k MinHash values -> b bands -> band-key groupby
(the text-dedup queries in idf.functions.text_dedup). Two deterministic,
PYTHONHASHSEED-independent token/shingle hash FAMILIES (r2 verdict #3):

- ``mode="fast"`` (the default, ``IDF_TEXT_HASH`` overridable): one
  vectorized pandas-siphash pass over the token array + a splitmix64
  window chain — no per-shingle Python in the hot loop. This is the
  family corpus-scale runs should use.
- ``mode="md5"`` (oracle parity): low 64 bits of md5 per shingle,
  replicable in ANSI SQL via DuckDB's ``md5_number_lower`` — what makes
  the MinHash-LSH pipeline oracle-checkable end to end.

The families only change CANDIDATE generation; every consumer verifies
candidates exactly (Jaccard over shingle sets), so pair outputs are
family-invariant up to LSH recall on threshold-edge pairs
(tests/test_text_functions.py pins mode parity on pairs output).
"""

from __future__ import annotations

from hashlib import blake2b, md5

import numpy as np

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def md5_low64(s: str) -> int:
    """Low 64 bits of md5 — DuckDB ``md5_number_lower(s)`` exactly
    (the LAST 8 digest bytes, little-endian; verified empirically)."""
    return int.from_bytes(md5(s.encode()).digest()[8:], "little")


def default_text_hash_mode() -> str:
    """Resolve the ambient token-hash family: ``IDF_TEXT_HASH`` env
    ("fast"|"md5"), default "fast". Oracle-checked queries pin "md5"
    explicitly; everything else gets the vectorized family."""
    import os

    return os.environ.get("IDF_TEXT_HASH", "fast")


def fast_token_hashes(strings) -> np.ndarray:
    """Vectorized uint64 hash of a sequence of strings.

    ``pandas.util.hash_array`` = SipHash-1-3 with a FIXED default key in
    cython over the object array: one C pass, deterministic across
    processes and platforms, PYTHONHASHSEED-independent. ~30-80x the
    throughput of per-string Python md5 (BENCH/text_hash_modes.json)."""
    import pandas as pd

    arr = np.asarray(list(strings), dtype=object)
    if not len(arr):
        return np.empty(0, dtype=np.uint64)
    # categorize=True factorizes first and hashes only the uniques —
    # 2.9x faster on duplicate-heavy token arrays (Zipfian corpora) but
    # 3x SLOWER on near-unique ones (the factorize is pure overhead);
    # the hash VALUES are identical either way, so pick per batch from
    # a sampled duplication estimate.
    sample = arr if len(arr) <= 2048 else arr[:: len(arr) // 2048]
    categorize = len(set(sample)) < 0.5 * len(sample)
    return pd.util.hash_array(arr, categorize=categorize).astype(np.uint64, copy=False)


_FAST_MULT = np.uint64(0x9E3779B97F4A7C15)


def shingle_hash_concat(
    texts: list, k: int = 3, short: str = "self", mode: str = "md5", unique: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Batch shingle hashing: ``(h, counts)`` where ``h`` concatenates
    each doc's uint64 shingle hashes (docs in input order) and
    ``counts[i]`` is doc i's shingle count.

    ``unique=True`` (default): per-doc SORTED UNIQUE hashes — set
    semantics, what Jaccard consumers need. ``unique=False`` keeps
    per-doc duplicates (skipping the lexsort+dedup pass): exactly right
    for MinHash signatures, where the segmented min is
    duplicate-invariant (~1.5x on the signature kernel).

    mode="md5": the oracle family (per-shingle ``md5_low64``).
    mode="fast": fully vectorized — tokens hashed once with
    ``fast_token_hashes``, word-k windows combined with a splitmix64
    chain over the WHOLE batch's token array (windows crossing doc
    boundaries masked out). The per-doc Python left in the fast path is
    only ``str.split``."""
    n = len(texts)
    if mode == "md5":
        arrs = [shingle_hashes("" if t is None else t, k, short=short) for t in texts]
        counts = np.fromiter((len(a) for a in arrs), dtype=np.int64, count=n)
        h = np.concatenate(arrs) if arrs else np.empty(0, dtype=np.uint64)
        return h, counts

    toks = [("" if t is None else t).lower().split() for t in texts]
    lens = np.fromiter((len(x) for x in toks), dtype=np.int64, count=n)
    H = fast_token_hashes([w for x in toks for w in x])
    T = len(H)
    doc_of = np.repeat(np.arange(n, dtype=np.int64), lens)
    W = T - k + 1
    win_doc = np.empty(0, dtype=np.int64)
    win_val = np.empty(0, dtype=np.uint64)
    if W > 0:
        with np.errstate(over="ignore"):
            acc = H[:W].copy()
            tmp = np.empty_like(acc)
            for r in range(1, k):
                acc *= _FAST_MULT
                acc ^= H[r : r + W]
                _mix64_(acc, tmp)
        valid = doc_of[:W] == doc_of[k - 1 : k - 1 + W]
        win_doc = doc_of[:W][valid]
        win_val = acc[valid]
    if short == "self":
        short_idx = np.nonzero(lens < k)[0]
        if len(short_idx):
            sv = fast_token_hashes([" ".join(toks[i]) for i in short_idx])
            win_doc = np.concatenate([win_doc, short_idx])
            win_val = np.concatenate([win_val, sv])
    if unique:
        order = np.lexsort((win_val, win_doc))
        d, v = win_doc[order], win_val[order]
        keep = np.ones(len(d), dtype=bool)
        keep[1:] = (d[1:] != d[:-1]) | (v[1:] != v[:-1])
        d, v = d[keep], v[keep]
        return v, np.bincount(d, minlength=n).astype(np.int64)
    # duplicates kept: window values are already doc-contiguous; only
    # the appended short-doc selfs need re-grouping (stable argsort on
    # a nearly-sorted int key — cheap next to the 2-key lexsort)
    if short == "self" and len(win_doc) and not np.all(win_doc[:-1] <= win_doc[1:]):
        order = np.argsort(win_doc, kind="stable")
        win_doc, win_val = win_doc[order], win_val[order]
    return win_val, np.bincount(win_doc, minlength=n).astype(np.int64)


def shingle_hashes(
    text: str, k: int = 3, short: str = "self", mode: str = "md5"
) -> np.ndarray:
    """Word k-shingles of ``text`` -> sorted unique uint64 hashes.

    ``short`` controls docs with fewer than k tokens: ``"self"`` (default)
    emits one whole-text shingle so every doc has a non-empty set;
    ``"drop"`` emits NO shingles — matching the
    SQL trigram oracle, which produces zero shingles for <k-token docs
    (ADVICE r1: the two policies diverge exactly there).

    ``mode``: hash family — see module docstring. Single-doc fast mode
    routes through the batch kernel; per-doc verify loops should prefer
    batching when they can."""
    if mode != "md5":
        h, _ = shingle_hash_concat([text], k, short=short, mode=mode)
        return h
    toks = text.lower().split()
    if len(toks) < k:
        if short == "drop":
            return np.array([], dtype=np.uint64)
        shingles = {" ".join(toks)} if toks else {""}
    else:
        shingles = {" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)}
    out = np.fromiter(
        (md5_low64(s) for s in shingles),
        dtype=np.uint64,
        count=len(shingles),
    )
    return np.unique(out)


class MinHasher:
    """Seeded affine MinHash family; build once, apply per batch."""

    def __init__(self, num_perm: int = 64, seed: int = 42):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, 2**63, num_perm, dtype=np.uint64) | np.uint64(1)
        self.b = rng.integers(0, 2**63, num_perm, dtype=np.uint64)
        self.num_perm = num_perm

    def signature(self, shingles: np.ndarray) -> np.ndarray:
        """(m,) uint64 shingle hashes -> (num_perm,) uint64 signature."""
        if shingles.size == 0:  # only reachable under short="drop"
            return np.full(self.num_perm, _MASK, dtype=np.uint64)
        with np.errstate(over="ignore"):
            vals = (self.a[:, None] * shingles[None, :] + self.b[:, None]) & _MASK
        return vals.min(axis=1)

    def signatures(self, texts: list[str], k: int = 3, mode: str = "md5") -> np.ndarray:
        """Batch of texts -> (n, num_perm) uint64.

        Vectorized across the batch: shingle-hash arrays are
        concatenated once (``shingle_hash_concat``), then each
        permutation is one affine pass + segmented min
        (``np.minimum.reduceat`` over doc boundaries) — the r1 per-doc
        loop built a (num_perm, m) matrix per DOCUMENT, ~237k tiny
        numpy calls per sf0.1 batch sweep. short="self" guarantees
        every doc has >= 1 shingle, so no reduceat segment is empty.
        ``mode``: shingle-hash family (see module docstring)."""
        n = len(texts)
        if n == 0:
            return np.empty((0, self.num_perm), dtype=np.uint64)
        # unique=False: the segmented min is duplicate-invariant, so the
        # fast family skips its per-doc dedup sort (md5 mode dedups as a
        # side effect of its per-doc np.unique — same signatures)
        h, counts = shingle_hash_concat(texts, k, short="self", mode=mode, unique=False)
        bounds = np.concatenate([[0], np.cumsum(counts)[:-1]])
        out = np.empty((n, self.num_perm), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for p in range(self.num_perm):
                vals = self.a[p] * h + self.b[p]
                out[:, p] = np.minimum.reduceat(vals, bounds)
        return out


def _mix64_(x: np.ndarray, tmp: np.ndarray) -> None:
    """splitmix64 finalizer IN PLACE (uint64 wraparound); ``tmp`` is a
    same-shaped scratch buffer — fresh numpy temporaries page-fault
    stall on this platform (see stages/cc.py r2 note), so the mix
    chain reuses two buffers total."""
    np.right_shift(x, np.uint64(30), out=tmp)
    x ^= tmp
    x *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(x, np.uint64(27), out=tmp)
    x ^= tmp
    x *= np.uint64(0x94D049BB133111EB)
    np.right_shift(x, np.uint64(31), out=tmp)
    x ^= tmp


def mix64(x: np.ndarray, seed: int) -> np.ndarray:
    """Seeded splitmix64 over uint64: a content-keyed uniform hash for
    deterministic sampling (the phash verify sample, the IVF training
    sample) and for the LSH hyperplane stream. Returns a new array."""
    with np.errstate(over="ignore"):
        z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15) * np.uint64(seed + 1)
    _mix64_(z, np.empty_like(z))
    return z


def band_keys(sigs: np.ndarray, n_bands: int) -> np.ndarray:
    """(n, k) signatures -> (n, n_bands) int64 band keys.

    Key = band index chained with the band's signature rows through a
    splitmix64 mix, so equal keys <=> same band index AND equal band
    signature (up to the 64-bit collision floor — collisions only
    enlarge a verify bucket, never lose a pair). Fully vectorized over
    (n, n_bands): the r1 version ran one blake2b per (row, band) —
    7.6M interpreter-bound digest calls per sf0.1 caption sweep."""
    n, k = sigs.shape
    rows = k // n_bands
    bands = sigs[:, : n_bands * rows].reshape(n, n_bands, rows)
    with np.errstate(over="ignore"):
        seed = np.arange(1, n_bands + 1, dtype=np.uint64)
        _mix64_(seed, np.empty_like(seed))
        h = np.tile(seed, (n, 1))
        tmp = np.empty_like(h)
        buf = np.empty_like(h)
        for r in range(rows):
            np.copyto(buf, bands[:, :, r])
            _mix64_(buf, tmp)
            h ^= buf
            _mix64_(h, tmp)
    return h.view(np.int64)


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)

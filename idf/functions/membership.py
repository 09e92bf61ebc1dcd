"""Bloom-filter membership: build a fixed-size bit filter over a key
column of one table, probe another table against it WITHOUT a shuffle.

The canonical 100-TB semi-join accelerator: instead of hash-exchanging
both sides on the key (what ``hash_join`` / ``set_membership_join`` do),
the build side collapses to an m-bit filter that is ``ray.put`` once
and read zero-copy by every probe task. Probe keys that miss any of the
k bit positions are DEFINITELY not members (no false negatives by
construction); hits are a superset of the true members with a
deterministic, seed-free false-positive set.

Two hash families, same discipline as :mod:`idf.kernels.minhash`:

- ``mode="md5"`` (oracle parity): position_i(key) =
  ``md5_low64(f"{i}:{key}") % m`` — replicable in ANSI SQL as
  ``md5_number_lower(i::VARCHAR || ':' || key::VARCHAR) % m``, which is
  what makes the ENTIRE filter (false positives included) an exact
  DuckDB oracle: build the distinct position set in SQL, keep probe
  keys whose k positions all appear (``HAVING count(DISTINCT i) = k``).
- ``mode="fast"`` (the corpus-scale family): Kirsch–Mitzenmacher double
  hashing ``(h1 + i*h2) % m`` from two splitmix64 passes over the raw
  int64 keys — one vectorized numpy pipeline, no per-row Python, no
  string formatting. Same no-false-negative guarantee; only the
  false-positive set differs (pinned by test, not by oracle).

Scale shape of the BUILD: each batch ORs its keys' positions into a
local m-bit bitmap and emits ONE fixed-size packed row (m/8 bytes —
16 KiB at the default m=2^17), so driver traffic is #blocks × m/8
regardless of row count; a second map_batches level ORs those rows
256-at-a-time first, so even a million-block build ships ~4 K rows to
the driver. The broadcast itself is m/8 bytes — trivially cluster-wide.

No reference analog (the reference joins nothing); this is part of the
training-data-pipeline operator set (task brief: dedup/membership at
100 TB).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from idf.kernels.minhash import md5_low64
from idf.ops import get_broadcast

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """One splitmix64 finalization pass over a uint64 array (public
    constant set, Steele et al. 2014 / xorshift-family mixers)."""
    z = (x + _SPLITMIX_GAMMA).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def bloom_positions(keys: np.ndarray, k: int, m: int, mode: str = "md5") -> np.ndarray:
    """(n, k) int64 bit positions for integer keys.

    ``md5`` family is per-key Python (oracle parity, bounded by the
    DISTINCT keys per batch); ``fast`` is fully vectorized double
    hashing. m must be < 2^62 (positions fit int64).
    """
    keys = np.asarray(keys)
    n = len(keys)
    out = np.empty((n, k), dtype=np.int64)
    if mode == "md5":
        for j in range(n):
            s = str(int(keys[j]))
            for i in range(k):
                out[j, i] = md5_low64(f"{i}:{s}") % m
        return out
    if mode != "fast":
        raise ValueError(f"unknown bloom hash mode {mode!r} (md5|fast)")
    u = keys.astype(np.int64).view(np.uint64)
    h1 = _splitmix64(u)
    h2 = _splitmix64(h1) | np.uint64(1)  # odd -> full-period stepping
    for i in range(k):
        out[:, i] = ((h1 + np.uint64(i) * h2) % np.uint64(m)).astype(np.int64)
    return out


def build_bloom(
    ds: rd.Dataset, key: str, m: int = 1 << 17, k: int = 4, mode: str = "md5"
) -> np.ndarray:
    """Build the m-bit filter over ``ds[key]`` -> packed uint8[m/8].

    One streaming pass; each batch ships one fixed m/8-byte packed
    bitmap row, OR-reduced once more in a second map level before the
    driver OR (so driver traffic is ~#blocks/256 rows).
    """
    if m % 8:
        raise ValueError("m must be a multiple of 8")

    def batch_bitmap(t: pa.Table) -> pa.Table:
        keys = np.unique(np.asarray(t[key].to_numpy(zero_copy_only=False)))
        bits = np.zeros(m, dtype=bool)
        if len(keys):
            bits[bloom_positions(keys, k, m, mode).ravel()] = True
        return pa.table({"bitmap": pa.array([np.packbits(bits).tobytes()])})

    def or_reduce(t: pa.Table) -> pa.Table:
        acc = np.zeros(m // 8, dtype=np.uint8)
        for b in t["bitmap"]:
            acc |= np.frombuffer(b.as_py(), dtype=np.uint8)
        return pa.table({"bitmap": pa.array([acc.tobytes()])})

    parts = ds.map_batches(batch_bitmap, batch_format="pyarrow").map_batches(
        or_reduce, batch_format="pyarrow", batch_size=256
    )
    acc = np.zeros(m // 8, dtype=np.uint8)
    for b in parts.iter_batches(batch_format="pyarrow"):
        for row in b["bitmap"]:
            acc |= np.frombuffer(row.as_py(), dtype=np.uint8)
    return acc


def bloom_member_filter(
    ds: rd.Dataset,
    key: str,
    bitmap: np.ndarray | ray.ObjectRef,
    m: int,
    k: int = 4,
    mode: str = "md5",
    negate: bool = False,
) -> rd.Dataset:
    """Keep rows whose key hits all k filter positions (``negate=True``
    keeps the definite NON-members — exact, since the filter has no
    false negatives). The filter is broadcast once; each probe batch is
    a vectorized unpackbits + gather, nothing shuffles."""
    ref = bitmap if isinstance(bitmap, ray.ObjectRef) else ray.put(np.asarray(bitmap))

    def probe(t: pa.Table) -> pa.Table:
        if not len(t):
            return t
        bits = np.unpackbits(np.asarray(get_broadcast(ref)))[:m]
        keys = np.asarray(t[key].to_numpy(zero_copy_only=False))
        pos = bloom_positions(keys, k, m, mode)
        hit = bits[pos].all(axis=1)
        return t.filter(pa.array(~hit if negate else hit))

    return ds.map_batches(probe, batch_format="pyarrow")


def bloom_semi_join_keys(
    build_ds: rd.Dataset,
    build_key: str,
    probe_ds: rd.Dataset,
    probe_key: str,
    m: int = 1 << 17,
    k: int = 4,
    mode: str = "md5",
) -> rd.Dataset:
    """End-to-end driver-query surface: distinct probe keys that pass
    the filter built over ``build_ds[build_key]`` (true members plus
    the family's deterministic false positives), sorted ascending.

    Global distinct is per-batch shrink first (survivors only), then
    one key-bucketed exchange — the filter has already dropped the
    non-member bulk, so the exchange moves only the candidate keys."""
    from idf.ops import bucketed_apply

    bitmap = build_bloom(build_ds, build_key, m=m, k=k, mode=mode)
    kept = bloom_member_filter(
        probe_ds.select_columns([probe_key]), probe_key, bitmap, m=m, k=k, mode=mode
    )

    def distinct(t: pa.Table) -> pa.Table:
        vals = np.unique(np.asarray(t[probe_key].to_numpy(zero_copy_only=False)))
        return pa.table({probe_key: pa.array(vals, type=t.schema.field(probe_key).type)})

    shrunk = kept.map_batches(distinct, batch_format="pyarrow")
    return bucketed_apply(
        shrunk, probe_key, distinct, arrow_fn=True
    ).sort(probe_key)

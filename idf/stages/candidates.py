"""Candidate-edge generation — the wide step that replaces the
reference's all-pairs BK-tree scan (X1/X2, index/BKTreeIndex.java) with
shuffle-based generation (SURVEY §2.5 J1).

Two streaming sub-pipelines. The image pipeline runs them in
INT-PAIR mode (``(phash_a, phash_b, dist)`` rows, ``phash_a <
phash_b``); the generic mode emits ``(id_a, id_b, dist)`` id pairs
for callers without a 1:1 id<->hash map (simhash_pairs). The verify
predicate is always ``hamming(phash_a, phash_b) <= radius`` exact
(the X2 predicate, inclusive radius per BKTreeIndex.java:43):

1. exact-duplicate collapse (skew control): a per-batch combiner
   dedupes identical hashes locally WITHOUT a shuffle; only
   batch-distinct hashes enter the global ``groupby(phash)`` distinct.
   Identical-hash floods (flat images — the reference's
   true-grayscale fixture family) therefore never concentrate in one
   shuffle partition: that is the explicit skew/salting story required
   by the north rule. Dist-0 membership needs no edges at all — the
   CC stage joins every ok image to its phash's component.
2. pigeonhole banding over DISTINCT hashes: each hash emits, per
   16-bit segment, every segment key within ``e = ceil(floor(r/m)/2)``
   bit flips; two hashes within Hamming r share >= 1 key (proof in
   DedupConfig.expansion_radius). groupby(key) buckets then pair-emit
   with exact verification. Recall 1.0 by construction, so banding is
   the only candidate source: any other source gated by the same
   verify predicate can only re-find pairs banding already emits.

Oversized buckets are processed in bounded chunks (exact, never
truncated).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from idf.config import DedupConfig
from idf.kernels.hamming import popcount64


# ---------------------------------------------------------------------------
# 1. exact-hash collapse


def _unique_phash(t: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    return pa.table({"phash": pc.unique(t["phash"].combine_chunks())})


def distinct_hashes(hashes_ok, est_bytes: int | None = None):
    """Global DISTINCT over the phash column — the exact-duplicate
    collapse: identical images become ONE banding node, so hash floods
    (flat images) cost one row, not a quadratic bucket.

    One keyed shuffle whose split side runs a per-block ``pc.unique``
    combiner first, so only block-distinct hashes cross it; the reduce
    is the same unique. ``hashes_ok`` is a Dataset (-> Dataset) or the
    block refs of the ok hashes (-> refs, ``ops.bucketed_apply``'s refs
    form). The per-image id strings never enter this stage; image
    membership is recovered by the CC stage's hashes-table join."""
    from idf.ops import bucketed_apply

    return bucketed_apply(
        hashes_ok,
        "phash",
        _unique_phash,
        polars_sort=True,
        arrow_fn=True,
        est_bytes=est_bytes,
        pre_map=_unique_phash,
    )


# ---------------------------------------------------------------------------
# 2. pigeonhole banding over distinct hashes


def _expansion_masks(seg_bits: int, e: int) -> np.ndarray:
    """All uint64 masks with popcount <= e over seg_bits bits."""
    masks = [0]
    if e >= 1:
        masks += [1 << i for i in range(seg_bits)]
    if e >= 2:
        masks += [(1 << i) | (1 << j) for i in range(seg_bits) for j in range(i + 1, seg_bits)]
    if e >= 3:
        raise NotImplementedError("expansion radius > 2 (i.e. Hamming radius > 19 at m=4)")
    return np.array(masks, dtype=np.uint64)


class BandExpander:
    """map_batches UDF: distinct (image_id, phash) -> (key, image_id, phash)
    expansion rows; key packs (segment_idx, segment_bits-after-flip).

    ``with_ids=False`` emits only (key, phash) — the image pipeline's
    mode, where the exact-collapse stage guarantees id_a <-> phash is
    1:1 so the hash itself is the node identity and the (heavy) id
    string need not cross the banding shuffle (~2.6x fewer bytes and
    no per-bucket string factorize; measured 1.7x faster end-to-end at
    sf0.1/32cpu)."""

    def __init__(self, cfg: DedupConfig, with_ids: bool = True):
        self.m = cfg.n_segments
        self.seg_bits = cfg.segment_bits()
        self.masks = _expansion_masks(self.seg_bits, cfg.expansion_radius())
        self.seg_mask = np.uint64((1 << self.seg_bits) - 1)
        self.with_ids = with_ids

    def __call__(self, t: pa.Table) -> pa.Table:
        h = t["phash"].to_numpy(zero_copy_only=False).view(np.uint64)
        n, nm = len(h), len(self.masks)
        keys = np.empty((n, self.m, nm), dtype=np.int64)
        for s in range(self.m):
            seg = (h >> np.uint64(s * self.seg_bits)) & self.seg_mask
            flipped = seg[:, None] ^ self.masks[None, :]
            keys[:, s, :] = (np.int64(s) << np.int64(self.seg_bits)) | flipped.astype(np.int64)
        rep_hash = np.repeat(h.view(np.int64), self.m * nm)
        cols = {"key": pa.array(keys.reshape(-1))}
        if self.with_ids:
            ids = t["id_a"].to_numpy(zero_copy_only=False)
            cols["image_id"] = pa.array(np.repeat(ids, self.m * nm), pa.string())
        cols["phash"] = pa.array(rep_hash, pa.int64())
        return pa.table(cols)


_EMPTY_EDGES = {
    "id_a": object,
    "id_b": object,
    "dist": np.int32,
    "phash_a": np.int64,
    "phash_b": np.int64,
}


def _empty_edges() -> pd.DataFrame:
    return pd.DataFrame({c: pd.Series([], dtype=t) for c, t in _EMPTY_EDGES.items()})


def make_bucket_pairs_fn(radius: int, cap: int, collapse_identical: bool = True):
    """Whole-bucket pair emitter over (key, image_id, phash) rows.

    All-numpy kernel (r1 was a pandas object-string self-merge that
    burned ~1300 CPU-seconds at sf0.1 — 20x this version): ids are
    factorized to per-bucket int codes ONCE (sorted-unique, so code
    order == lexicographic id order), collision groups come from one
    lexsort + boundary diff, intra-group pairs are generated by the
    stride trick (pair (i, i+d) for d = 1..group_size-1, vectorized
    across ALL groups per stride), and pair dedup is one np.unique on
    packed code pairs. Groups larger than ``cap`` fall back to the
    chunked exact kernel. Never truncates.

    ``collapse_identical``: drop same-(key, phash) duplicates, keeping
    the min id — ONLY valid when a collapse stage already emitted the
    dist-0 edges for identical hashes (the image pipeline). Callers
    that need the full pair set (simhash_pairs) pass False."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return _empty_edges()
        uniq_ids, codes = np.unique(g["image_id"].to_numpy(dtype=object), return_inverse=True)
        codes = codes.astype(np.int64)
        keys = g["key"].to_numpy(np.int64)
        hashes = g["phash"].to_numpy(np.int64).view(np.uint64)
        # each image has ONE phash: code -> hash map for the edge output
        hash_of_code = np.zeros(len(uniq_ids), dtype=np.uint64)
        hash_of_code[codes] = hashes

        # sort by (key, phash, code): groups become contiguous runs and
        # identical (key, phash) rows adjacent with the min id first
        order = np.lexsort((codes, hashes.view(np.int64), keys))
        keys, hashes, codes = keys[order], hashes[order], codes[order]
        if collapse_identical:
            first = np.ones(len(keys), dtype=bool)
            first[1:] = (keys[1:] != keys[:-1]) | (hashes[1:] != hashes[:-1])
            keys, hashes, codes = keys[first], hashes[first], codes[first]
        n = len(keys)
        if n < 2:
            return _empty_edges()
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        counts = np.diff(np.r_[starts, n])
        gid = np.repeat(np.arange(len(starts)), counts)  # group index per row

        out_a, out_b, out_d = [], [], []
        small_max = int(min(cap, counts.max()))
        # stride trick over small groups: total work sum(c_g * max_c) is
        # within ~2x of the true pair count when groups are small
        for d in range(1, small_max):
            if d >= n:
                break
            i = np.flatnonzero((gid[:-d] == gid[d:]) & (counts[gid[:-d]] <= cap))
            if len(i) == 0:
                continue
            j = i + d
            dist = popcount64(hashes[i] ^ hashes[j])
            keep = dist <= radius
            if keep.any():
                ca, cb = codes[i[keep]], codes[j[keep]]
                out_a.append(np.minimum(ca, cb))
                out_b.append(np.maximum(ca, cb))
                out_d.append(dist[keep])
        # oversized groups: chunked exact kernel (rare; skew-capped)
        for gi in np.flatnonzero(counts > cap):
            s, c = starts[gi], counts[gi]
            sub = _emit_pairs_codes(codes[s : s + c], hashes[s : s + c], radius, cap)
            if sub is not None:
                out_a.append(sub[0])
                out_b.append(sub[1])
                out_d.append(sub[2])
        if not out_a:
            return _empty_edges()
        a = np.concatenate(out_a)
        b = np.concatenate(out_b)
        dist = np.concatenate(out_d)
        # dedup pairs surfacing from several keys: unique on packed codes
        packed = (a << np.int64(32)) | b
        _, idx = np.unique(packed, return_index=True)
        a, b, dist = a[idx], b[idx], dist[idx]
        return pd.DataFrame(
            {
                "id_a": uniq_ids[a],
                "id_b": uniq_ids[b],
                "dist": dist.astype(np.int32),
                # phash endpoints ride along so connected components can
                # run on the (much smaller) int hash graph
                "phash_a": hash_of_code[a].view(np.int64),
                "phash_b": hash_of_code[b].view(np.int64),
            }
        )

    return fn


_EMPTY_INT_EDGES = {"phash_a": np.int64, "phash_b": np.int64, "dist": np.int32}


def _empty_int_edges() -> pd.DataFrame:
    return pd.DataFrame({c: pd.Series([], dtype=t) for c, t in _EMPTY_INT_EDGES.items()})


def make_bucket_pairs_int_fn(radius: int, cap: int):
    """Whole-bucket pair emitter over (key, phash) rows — the int-only
    twin of ``make_bucket_pairs_fn`` for inputs where the hash IS the
    node identity (post-exact-collapse image pipeline). Same stride
    kernel, but no string factorize: dedup, grouping and pair identity
    all run on the int64 hashes directly. Emits (phash_a, phash_b,
    dist) with phash_a < phash_b (dist-0 pairs are impossible by
    construction — equal hashes were collapsed upstream)."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return _empty_int_edges()
        keys = g["key"].to_numpy(np.int64)
        hashes = g["phash"].to_numpy(np.int64)
        order = np.lexsort((hashes, keys))
        keys, hashes = keys[order], hashes[order]
        first = np.ones(len(keys), dtype=bool)  # drop duplicate (key, phash)
        first[1:] = (keys[1:] != keys[:-1]) | (hashes[1:] != hashes[:-1])
        keys, hashes = keys[first], hashes[first]
        hu = hashes.view(np.uint64)
        n = len(keys)
        if n < 2:
            return _empty_int_edges()
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        counts = np.diff(np.r_[starts, n])
        gid = np.repeat(np.arange(len(starts)), counts)
        out_a, out_b, out_d = [], [], []
        small_max = int(min(cap, counts.max()))
        for d in range(1, small_max):
            if d >= n:
                break
            i = np.flatnonzero((gid[:-d] == gid[d:]) & (counts[gid[:-d]] <= cap))
            if len(i) == 0:
                continue
            j = i + d
            dist = popcount64(hu[i] ^ hu[j])
            keep = dist <= radius
            if keep.any():
                ha, hb = hashes[i[keep]], hashes[j[keep]]
                out_a.append(np.minimum(ha, hb))
                out_b.append(np.maximum(ha, hb))
                out_d.append(dist[keep])
        for gi in np.flatnonzero(counts > cap):
            s, c = starts[gi], counts[gi]
            sub = _emit_pairs_codes(hashes[s : s + c], hu[s : s + c], radius, cap)
            if sub is not None:
                out_a.append(sub[0])
                out_b.append(sub[1])
                out_d.append(sub[2])
        if not out_a:
            return _empty_int_edges()
        a = np.concatenate(out_a)
        b = np.concatenate(out_b)
        dist = np.concatenate(out_d)
        # pair dedup across band keys within the bucket: lexsort on the
        # two int columns (no 32-bit packing — hashes use all 64 bits)
        o = np.lexsort((b, a))
        a, b, dist = a[o], b[o], dist[o]
        f = np.ones(len(a), dtype=bool)
        f[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        return pd.DataFrame(
            {"phash_a": a[f], "phash_b": b[f], "dist": dist[f].astype(np.int32)}
        )

    return fn


def _emit_pairs_codes(codes: np.ndarray, hashes_u64: np.ndarray, radius: int, cap: int):
    """Chunked exact pairwise verify for one oversized group; returns
    (code_a, code_b, dist) arrays with code_a < code_b, or None."""
    k = len(codes)
    if k < 2:
        return None
    chunk = max(64, min(k, cap * cap // max(k, 1)))
    out_a, out_b, out_d = [], [], []
    for i0 in range(0, k, chunk):
        i1 = min(k, i0 + chunk)
        xor = hashes_u64[i0:i1, None] ^ hashes_u64[None, :]
        d = popcount64(xor)
        ii, jj = np.nonzero(d <= radius)
        keep = (ii + i0) < jj  # upper triangle only
        ii, jj = ii[keep], jj[keep]
        if len(ii):
            ca, cb = codes[ii + i0], codes[jj]
            out_a.append(np.minimum(ca, cb))
            out_b.append(np.maximum(ca, cb))
            out_d.append(d[ii, jj])
    if not out_a:
        return None
    return np.concatenate(out_a), np.concatenate(out_b), np.concatenate(out_d)


def band_shuffle_factor(cfg: DedupConfig) -> int:
    """Banding shuffle bytes per input byte: the expansion emits
    (m * n_masks) rows of (key, phash[, id]) per distinct hash, and x2
    covers parquet->Arrow decode inflation for int64 columns."""
    return cfg.n_segments * len(_expansion_masks(cfg.segment_bits(), cfg.expansion_radius())) * 2


def band_edges(
    distinct,
    cfg: DedupConfig,
    collapse_identical: bool = True,
    int_pairs: bool = False,
    in_bytes: int | None = None,
):
    """Distinct-hash table -> verified candidate edges via banding.

    ``distinct`` is a Dataset (-> Dataset) or block refs (-> refs; the
    image pipeline below the exchange gate). ``in_bytes``: the input's
    size (a committed stage's lineage bytes); a Dataset input without it
    uses its metadata estimate.

    Pass ``collapse_identical=False`` when the input was NOT
    exact-collapsed and the full pair set (incl. dist-0 pairs) is the
    output contract (e.g. simhash_pairs).

    ``int_pairs=True`` (the image pipeline): the exact collapse made
    id <-> phash 1:1, so the stage ships only (key, phash) through the
    shuffle and emits (phash_a, phash_b, dist) int pairs — CC runs on
    the hash graph and membership joins back through the hashes table.

    The expander runs as STATELESS TASKS (not an actor pool): its state
    is a tiny mask array rebuilt per task — dedicated actor fleets would
    only add spin-up latency per stage."""
    from idf.ops import _estimate_bytes, bucketed_apply

    expander = BandExpander(cfg, with_ids=not int_pairs)
    fn = (
        make_bucket_pairs_int_fn(cfg.radius, cfg.bucket_cap)
        if int_pairs
        else make_bucket_pairs_fn(cfg.radius, cfg.bucket_cap, collapse_identical)
    )
    # The expanded banding table is the pipeline's LARGEST intermediate,
    # so the byte gate keeps the 100-TB shape: above
    # IDF_EXCHANGE_MAX_BYTES the stage falls back to the spill-managed
    # streaming sort (r2 ADVICE, medium). The size hint is the
    # caller-side expansion arithmetic a lazy plan cannot expose to the
    # gate by metadata alone, so the gate decides BEFORE execution.
    if in_bytes is None and not isinstance(distinct, list):
        in_bytes = _estimate_bytes(distinct)
    est = None if in_bytes is None else in_bytes * band_shuffle_factor(cfg)
    # pre_map fusion (r4 verdict #3): the 68x key expansion runs INSIDE
    # the exchange's split tasks, so the expanded table — the pipeline's
    # largest intermediate — never materializes into the object store as
    # a whole (measured 5.7 s -> ~2 s for this stage at sf0.1/32 CPUs).
    # The sort engine (above the byte gate) streams it as its own map
    # stage, unchanged.
    return bucketed_apply(
        distinct,
        "key",
        fn,
        polars_sort=True,  # sort engine (above the gate): all-primitive columns
        est_bytes=est,
        pre_map=expander,
    )


def _min_dist_fn(keys: list[str]):
    def fn(t: pa.Table) -> pa.Table:
        g = t.group_by(keys, use_threads=False).aggregate([("dist", "min")])
        return g.select([*keys, "dist_min"]).rename_columns([*keys, "dist"])

    return fn


def dedup_edges(edges, int_pairs: bool = False, est_bytes: int | None = None):
    """J3: distinct (id_a, id_b), keeping min dist — one pair-keyed
    shuffle whose reduce is one Arrow ``group_by`` (pair keys are
    high-cardinality).

    In the image pipeline the same pair surfaces from MANY band keys
    (~37x duplication measured at sf0.1), so deduping the edge stage's
    output shrinks it ~25x and keeps the serial CC input
    tiny — one extra parallel shuffle buys a much smaller sequential
    stage. Engine: ``bucketed_apply``'s — the raw-task exchange below
    ``IDF_EXCHANGE_MAX_BYTES`` (``edges`` as block refs -> refs, or a
    Dataset -> Dataset), Ray Data's streaming sort with polars blocks
    above it. ``int_pairs``: the pair key is (phash_a, phash_b) — the
    image pipeline's int-edge schema."""
    from idf.ops import bucketed_apply

    keys = ["phash_a", "phash_b"] if int_pairs else ["id_a", "id_b"]
    return bucketed_apply(
        edges, keys, _min_dist_fn(keys), polars_sort=True, arrow_fn=True, est_bytes=est_bytes
    )


def pair_distance_histogram(edges: rd.Dataset, n_buckets: int = 64) -> pd.DataFrame:
    """(hamming_dist, n_pairs): distribution of Hamming distances over
    the DISTINCT verified candidate pairs — the one-look diagnostic of a
    radius/threshold choice (mass near the radius boundary means the
    threshold is doing work; reference analog: Hamming.java's
    ``Long.bitCount(a ^ b)``, the quantity its BK-tree ranges over).

    100-TB shape: pairs are normalized to (lo, hi) and deduped
    IN-BATCH before the one pair-keyed exchange (the same partial-
    distinct discipline as exact dedup), each bucket re-dedupes its
    co-located pairs and emits a <=65-row distance histogram partial,
    and the driver sums n_buckets such histograms.
    """
    from idf.ops import bucketed_apply

    def norm(df: pd.DataFrame) -> pd.DataFrame:
        a = df["phash_a"].to_numpy(dtype=np.int64)
        b = df["phash_b"].to_numpy(dtype=np.int64)
        out = pd.DataFrame(
            {"pair_lo": np.minimum(a, b), "pair_hi": np.maximum(a, b)}
        )
        return out.drop_duplicates()

    def bucket_hist(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates()
        x = g["pair_lo"].to_numpy(dtype=np.int64).view(np.uint64)
        y = g["pair_hi"].to_numpy(dtype=np.int64).view(np.uint64)
        d = popcount64(np.bitwise_xor(x, y))
        vals, cnts = np.unique(d, return_counts=True)
        return pd.DataFrame(
            {
                "hamming_dist": vals.astype(np.int64),
                "n_pairs": cnts.astype(np.int64),
            }
        )

    h = bucketed_apply(
        edges.map_batches(norm, batch_format="pandas"),
        ["pair_lo", "pair_hi"],
        bucket_hist,
        n_buckets=n_buckets,
    ).to_pandas()  # bounded: n_buckets x <=65 rows
    out = h.groupby("hamming_dist", sort=True)["n_pairs"].sum().reset_index()
    out["n_pairs"] = out["n_pairs"].astype(np.int64)
    return out

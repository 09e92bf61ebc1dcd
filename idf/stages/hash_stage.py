"""Decode + perceptual-hash stage.

Reference analog: the ``idf hash`` loop (app/Commands.java:72-96) —
format filter, per-file decode, hash, per-file failure skip. Here a
parquet corpus hashes as one plain Ray task per read unit
(``plan_read_tasks``): each task streams its own row groups in decode
batches through the batched hash kernel and writes its own output file,
so the ``bytes`` column never leaves the task (SURVEY §7: never shuffle
the binary column) and only a row count returns to the driver. Lance
and loose-file sources run the same hashers as one Ray Data
``map_batches`` (``hash_stage``).

Output schema: image_id, phash(int64 bit-cast), pixels, size, status
('ok' | 'skip:fmt' | 'skip:decode'). Skipped rows become metric rows
instead of stderr lines (M9 mapping, Commands.java:81-83).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from idf.codecs import ACCEPTED_FORMATS, DecodeError, decode_luma_scaled

_FMT_SET = pa.array(sorted(ACCEPTED_FORMATS))
from idf.config import DedupConfig
from idf.kernels.hashes import DECODE_MIN_DIM, hash_gray_batch, preprocess, resize_dims
from idf.kernels.minhash import mix64
from idf.ops import PartWriter, available_cpus, open_parquet, wait_all

HASH_SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("phash", pa.int64()),
        ("pixels", pa.int64()),
        ("size", pa.int64()),
        ("caption", pa.string()),
        ("status", pa.string()),
    ]
)



def hash_schema(cfg: DedupConfig) -> pa.Schema:
    """Columns of the hashes stage in ``cfg``'s (resolved) hash mode: the
    precomputed-phash path adds its int8 ``verify`` outcome column."""
    if cfg.use_precomputed_phash:
        return HASH_SCHEMA.append(pa.field("verify", pa.int8()))
    return HASH_SCHEMA


def _blob_views(col: pa.Array) -> list:
    """Per-row zero-copy views of a binary / large_binary column: one
    memoryview of its data buffer sliced by the offsets (no pyarrow
    scalar per row; to_pylist() would memcpy the whole column). Null
    rows give None."""
    _, offsets, data = col.buffers()
    dt = np.int64 if pa.types.is_large_binary(col.type) else np.int32
    off = np.frombuffer(offsets, dt)[col.offset : col.offset + len(col) + 1].tolist()
    mv = memoryview(data if data is not None else b"").cast("B")
    views = [mv[a:b] for a, b in zip(off[:-1], off[1:])]
    if col.null_count:
        for i in np.flatnonzero(col.is_null().to_numpy(zero_copy_only=False)):
            views[i] = None
    return views


class DecodeHasher:
    """Decode + hash one Arrow batch: kernel constants built once per
    hasher (__init__, cached per worker process by ``_fused_hasher``),
    per-batch work in __call__."""

    def __init__(self, algo: str = "phash", exif_from_bytes: bool = False):
        self.algo = algo
        self.exif_from_bytes = exif_from_bytes
        self.dims = resize_dims(algo)
        self.min_dim = DECODE_MIN_DIM[algo]
        # touch kernel tables so per-hasher setup cost is paid here, not
        # in the first batch (DCT matrix, popcount LUT)
        from idf.kernels.hashes import _D32  # noqa: F401

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from idf.kernels.exif import exif_transform

        n = len(batch)
        # vectorized format filter; id/caption columns pass through
        # zero-copy — only the blob bytes are touched per row
        fmt_ok = pc.is_in(pc.utf8_lower(pc.cast(batch["fmt"], pa.string())), value_set=_FMT_SET)
        fmt_ok = pc.fill_null(fmt_ok, False).combine_chunks().to_numpy(zero_copy_only=False)
        # per chunk: combine_chunks() copies the whole column, even one chunk
        blobs = [v for chunk in batch["bytes"].chunks for v in _blob_views(chunk)]
        # optional EXIF orientation column (M1); a source without it is
        # bit-compatible with the reference's readOrientationSafe() == 1
        orients = (
            batch["orientation"].to_pylist() if "orientation" in batch.column_names else None
        )
        decode_fail = np.zeros(n, dtype=bool)
        pixels = np.full(n, -1, dtype=np.int64)
        sizes = np.full(n, -1, dtype=np.int64)
        grays = np.zeros((n, *self.dims), dtype=np.uint8)
        ok = np.zeros(n, dtype=bool)
        for i in np.flatnonzero(fmt_ok):  # per-row decode (variable-size
            # blobs); the math inside decode/preprocess is vectorized
            i = int(i)
            data = blobs[i]
            try:
                # scaled-luma fast path (Y-only, k/8 partial iDCT for
                # FJPG); PNG/BMP give a pixel view, luma at the taps
                img, oh, ow = decode_luma_scaled(data, min_dim=self.min_dim)
            except DecodeError:
                decode_fail[i] = True
                continue
            if orients is not None and orients[i] is not None:
                img = exif_transform(img, orients[i])
            elif self.exif_from_bytes and bytes(data[:3]) == b"\xff\xd8\xff":
                # opt-in (DedupConfig.exif_from_bytes): honor the APP1
                # Exif orientation from the bytes themselves (M1;
                # hash_bytes — the oracle/synth path — takes the same
                # flag). Default OFF for reference parity: the shipped
                # reference stubs orientation to 1 (Exif.java:57-59)
                from idf.codecs.jfif import exif_orientation

                o = exif_orientation(data)
                if o != 1:
                    img = exif_transform(img, o)
            grays[i] = preprocess(img, *self.dims)
            pixels[i] = oh * ow  # A4 metadata: ORIGINAL dims, not decode scale
            sizes[i] = len(data)
            ok[i] = True
        hashes = np.zeros(n, dtype=np.uint64)
        if ok.any():
            hashes[ok] = hash_gray_batch(grays[ok], self.algo)
        status = np.where(~fmt_ok, "skip:fmt", np.where(decode_fail, "skip:decode", "ok"))
        return pa.table(
            {
                "image_id": batch["image_id"],
                "phash": pa.array(hashes.view(np.int64)),
                "pixels": pa.array(pixels),
                "size": pa.array(sizes),
                "caption": batch["caption"],
                "status": pa.array(status.astype(object), pa.string()),
            }
        )


def _verify_sample_mask(ids: np.ndarray, thresh, seed: int) -> np.ndarray:
    """Content-keyed ROW-level verify-sample predicate for the
    bytes-present in-batch verify (PrecomputedHasher): pure function of
    image_id — pandas siphash -> splitmix64 -> uint64 threshold. The
    bytes-free standalone pass (``verify_precomputed_sample``) samples
    at ROW-GROUP granularity instead: a uniform row sample touches
    every row group, so it cannot be read-pruned (see that docstring)."""
    import pandas as pd

    return mix64(pd.util.hash_array(ids.astype(object)), seed) <= thresh


class PrecomputedHasher:
    """Trust-but-verify hash stage (r3 verdict #2): take the input
    table's precomputed ``phash`` column (input_hint schema ships one)
    instead of decoding every image, and re-decode only a deterministic
    content-keyed sample as the fidelity gate.

    Semantics vs ``DecodeHasher`` (bit-compatible on a truthful table):
      - ``pixels`` = ``w*h`` from the table (the decode path reports
        ORIGINAL dims, which is exactly what w/h are), ``size`` =
        encoded byte length: from the table's ``size`` column when it
        ships one (bytes-FREE scan — the main pass reads no bytes at
        all; verification moves to ``verify_precomputed_sample``), else
        ``pc.binary_length`` over the in-batch bytes.
      - rows whose metadata marks them undecodable (``w<=0 or h<=0``,
        the convention the synth generator and any honest corpus writer
        use for rows whose hash could not be computed) -> status
        ``skip:decode``, mirroring the decode path on corrupt bytes.
      - the verify sample is content-keyed (pandas siphash over
        image_id + splitmix64), NOT ``random_sample`` — Ray's seeded
        sampler depends on dynamic block layout and is not
        run-deterministic (see ann.py:train_ivf_centroids).

    Output adds a ``verify`` int8 column: 0 = trusted (not sampled),
    1 = sampled & matched the real decode, 2 = sampled & MISMATCHED
    (wrong hash, or decode failed where metadata said ok), 3 = sampled
    but its ``bytes`` cell is null, so there was nothing to decode. The
    pipeline aggregates it into manifest metrics and fails the run when
    mismatches, or sampled rows without bytes, exceed
    ``cfg.phash_verify_max_mismatch``.

    At 100 TB this is the only sane default: a trusted corpus is never
    re-decoded, the sampled decode bounds verify cost at
    ``verify_fraction`` of the full-decode cost, and the gate converts
    a silently-poisoned hash column into a loud failed run.
    """

    def __init__(
        self,
        algo: str = "phash",
        exif_from_bytes: bool = False,
        verify_fraction: float = 0.01,
        seed: int = 42,
    ):
        if algo != "phash":
            raise ValueError(
                "use_precomputed_phash trusts the input table's `phash` "
                f"column, which is pHash by contract (input_hint); algo={algo!r} "
                "must run the decode path"
            )
        self.decoder = DecodeHasher(algo, exif_from_bytes=exif_from_bytes)
        f = min(max(float(verify_fraction), 0.0), 1.0)
        # uint64 sample threshold = floor(f * 2^64), computed in exact
        # Python ints and clamped: float(2^63-1) rounds UP to 2^63, so
        # the former scale-then-double wrapped to 0 at f=1.0
        self.thresh = np.uint64(min(int(f * 2.0**64), 2**64 - 1))
        self.sample_all = f >= 1.0
        self.verify_fraction = f
        self.seed = seed

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pandas as pd
        import pyarrow.compute as pc

        n = len(batch)
        fmt_ok = pc.is_in(pc.utf8_lower(pc.cast(batch["fmt"], pa.string())), value_set=_FMT_SET)
        fmt_ok = pc.fill_null(fmt_ok, False).combine_chunks().to_numpy(zero_copy_only=False)
        w = batch["w"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = batch["h"].to_numpy(zero_copy_only=False).astype(np.int64)
        # a NULL phash is 'undecodable' no matter what w/h claim: the
        # null-padded to_numpy comes back float64 NaN and astype(int64)
        # silently makes INT64_MIN — without this guard every null-phash
        # row would share that garbage hash with status 'ok' and the
        # exact collapse would merge them into one bogus mega-cluster
        ph_null = (
            pc.is_null(batch["phash"]).combine_chunks().to_numpy(zero_copy_only=False)
        )
        meta_ok = (w > 0) & (h > 0) & ~ph_null
        ok = fmt_ok & meta_ok
        # fill nulls IN ARROW before to_numpy: one null anywhere makes
        # to_numpy return float64 for the whole column, silently rounding
        # every hash above 2^53 — int64-exact only via the filled cast
        phash = (
            pc.fill_null(batch["phash"], 0)
            .cast(pa.int64())
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
            .copy()
        )
        phash[~ok] = 0
        pixels = np.where(ok, w * h, np.int64(-1))
        has_bytes = "bytes" in batch.column_names
        if has_bytes:
            # a null bytes cell has no size: -1, as a null size column below
            sizes = (
                pc.fill_null(pc.binary_length(batch["bytes"]), -1)
                .cast(pa.int64())
                .to_numpy(zero_copy_only=False)
            )
        else:
            # bytes-free scan (table ships a size column): the 100-TB
            # shape — the main pass never reads the bytes column at all;
            # the verify sample's bytes come from a separate id-pushdown
            # pruned read (verify_precomputed_sample). fill nulls IN
            # ARROW first (same NaN round-trip hazard as phash above:
            # one null makes to_numpy float64 and astype(int64) turns
            # status-ok rows into INT64_MIN); -1 is the established
            # unknown-metadata penalty (A4), so a null-size row keeps
            # its valid phash but loses keeper-election tiebreaks
            sizes = (
                pc.fill_null(batch["size"], -1)
                .cast(pa.int64())
                .combine_chunks()
                .to_numpy(zero_copy_only=False)
            )
        sizes = np.where(ok, sizes, np.int64(-1))
        verify = np.zeros(n, dtype=np.int8)
        if has_bytes and self.verify_fraction > 0.0 and ok.any():
            if self.sample_all:
                sample = ok
            else:
                ids = batch["image_id"].to_numpy(zero_copy_only=False)
                sample = ok & _verify_sample_mask(ids, self.thresh, self.seed)
            # a sampled row with a null bytes cell has nothing to decode:
            # its own outcome, not a phash mismatch
            no_bytes = pc.is_null(batch["bytes"]).combine_chunks().to_numpy(zero_copy_only=False)
            verify[sample & no_bytes] = 3
            sample = sample & ~no_bytes
            if sample.any():
                sub = batch.filter(pa.array(sample))
                dec = self.decoder(sub)
                dec_ok = pc.equal(dec["status"], "ok").to_numpy(zero_copy_only=False)
                dec_ph = dec["phash"].to_numpy(zero_copy_only=False)
                sub_ph = sub["phash"].to_numpy(zero_copy_only=False)
                match = dec_ok & (dec_ph == sub_ph)
                verify[sample] = np.where(match, np.int8(1), np.int8(2))
        status = np.where(~fmt_ok, "skip:fmt", np.where(~meta_ok, "skip:decode", "ok"))
        return pa.table(
            {
                "image_id": batch["image_id"],
                "phash": pa.array(phash),
                "pixels": pa.array(pixels),
                "size": pa.array(sizes),
                "caption": batch["caption"],
                "status": pa.array(status.astype(object), pa.string()),
                "verify": pa.array(verify),
            }
        )


PRECOMPUTED_COLUMNS = ("w", "h", "phash")


def resolve_precomputed_cfg(images_path: str, cfg: DedupConfig) -> DedupConfig:
    """Resolve ``use_precomputed_phash='auto'`` (r4 verdict #9) to a
    bool against the actual source: ON iff the table ships the
    (w, h, phash) metadata columns AND the configured algo is phash
    (the column's contract); OFF for loose-file directories (no
    metadata exists) and on any schema-probe failure. Explicit
    True/False pass through untouched — True keeps its hard validation
    errors, False pins the reference's always-decode behavior. The
    sampled-decode verify gate runs in every precomputed run either
    way, so a catalog whose phash column lies fails loudly, not fast.

    Schema presence alone is NOT trusted: users routinely fill
    schema-required metadata columns with placeholders (phash=0,
    w=-1) when they only have bytes — trusting those would cluster
    every placeholder row together (phash 0 = exact dup) or skip the
    whole corpus (w<=0 = undecodable convention). A one-row-group
    probe of the metadata columns requires at least one PLAUSIBLE row
    (w>0, h>0, phash!=0) before auto engages; anything else falls back
    to the always-correct decode path. (phash==0 can be legitimate for
    a pathological image, so this heuristic lives ONLY here in the
    conservative router — never in the hasher's correctness rules.)"""
    if cfg.use_precomputed_phash != "auto":
        return cfg
    import dataclasses

    use = False
    if cfg.algo == "phash":
        p = images_path.rstrip("/")
        if p.endswith(".lance"):
            names = _lance_schema_names(images_path)
            use = names is not None and all(c in names for c in PRECOMPUTED_COLUMNS)
        elif _is_loose_file_dir(images_path):
            use = False
        else:
            try:
                import pyarrow.dataset as pads

                dset = pads.dataset(images_path)
                names = dset.schema.names
                use = all(c in names for c in PRECOMPUTED_COLUMNS) and _metadata_plausible(
                    dset
                )
            except Exception:
                use = False
    return dataclasses.replace(cfg, use_precomputed_phash=use)


def _metadata_plausible(dset, probe_rows: int = 1024) -> bool:
    """True iff a small head sample of (w, h, phash) contains at least
    one plausible row — one metadata-width read of the first rows, so
    the auto-probe costs microseconds, not a scan."""
    t = dset.head(probe_rows, columns=list(PRECOMPUTED_COLUMNS))
    if len(t) == 0:
        return False
    import pyarrow.compute as pc

    w = pc.fill_null(t["w"], -1)
    h = pc.fill_null(t["h"], -1)
    ph = pc.fill_null(t["phash"], 0)
    good = pc.and_(
        pc.and_(pc.greater(w, 0), pc.greater(h, 0)), pc.not_equal(ph, 0)
    )
    return bool(pc.any(good).as_py())


def _lance_schema_names(path: str):
    """Schema column names of a Lance dataset, or None when the lance
    package (not in this container) is unavailable or the probe fails."""
    try:
        import lance  # type: ignore[import-not-found]

        return list(lance.dataset(path).schema.names)
    except Exception:
        return None


def _make_hasher(cfg: DedupConfig):
    """The per-config hasher callable both hash-stage paths share."""
    if cfg.use_precomputed_phash:
        return PrecomputedHasher(
            cfg.algo,
            exif_from_bytes=cfg.exif_from_bytes,
            verify_fraction=cfg.phash_verify_fraction,
            seed=cfg.seed,
        )
    return DecodeHasher(cfg.algo, exif_from_bytes=cfg.exif_from_bytes)


def hash_stage(images: rd.Dataset, cfg: DedupConfig) -> rd.Dataset:
    """Decode+hash of a Dataset as STATELESS Ray Data TASKS: the Lance
    and loose-file route (a parquet corpus takes ``fused_hash_stage``'s
    plain tasks, over the same hashers).

    Measured on this Ray build (2.49 local mode): task-based execution
    saturates all cores (59,853 images in 32.6s at 32 CPUs), while an
    autoscaling actor pool ran 3.5x slower and a fixed-size pool
    stalled behind its own constructor-arg pinning. The per-actor state
    here (DCT matrix, popcount LUT) is module-level and therefore
    amortized per WORKER PROCESS either way — tasks lose nothing, so
    tasks are the only decode path.
    """
    if cfg.use_precomputed_phash == "auto":
        # Dataset-input callers (lance route, tests): resolve against the
        # dataset's own schema — metadata-cheap for read-rooted plans
        import dataclasses

        try:
            names = images.schema().names
        except Exception:
            names = []
        use = cfg.algo == "phash" and all(c in names for c in PRECOMPUTED_COLUMNS)
        cfg = dataclasses.replace(cfg, use_precomputed_phash=use)
    return images.map_batches(
        _make_hasher(cfg),
        batch_format="pyarrow",
        batch_size=cfg.decode_batch_size,
        zero_copy_batch=True,
    )


TARGET_BLOCK_BYTES = 128 << 20  # ~128 MiB of encoded bytes per read task


def _augment_optional_columns(columns: list[str] | None, schema_names) -> list[str] | None:
    """Shared column-pruning contract for every read_images branch:
    requested columns pass through untouched, except the optional EXIF
    ``orientation`` column (M1) is kept whenever the source table has
    one. Both the parquet and lance branches MUST route their pruning
    through here (tests/test_pipeline_e2e.py pins the contract)."""
    if columns is not None and "orientation" not in columns and "orientation" in schema_names:
        return [*columns, "orientation"]
    return columns


def read_images(path: str, columns: list[str] | None = None) -> rd.Dataset:
    """Source reader (S1/S2 mapping): column-pruned read of the images
    table. A ``*.lance`` path goes through ``ray.data.read_lance``
    (the north-rule table format — fragment-parallel, column-pruned at
    the storage layer); anything else is parquet. The lance wheel is
    absent in-sandbox, so the lance branch is import-gated with a clear
    error and the test layout is parquet (SURVEY §7 fallback); the
    branch itself is exercised by a stub-module contract test."""
    if path.rstrip("/").endswith(".lance"):
        try:
            import lance
        except ImportError as e:
            raise ImportError(
                "reading a .lance table needs the `lance` wheel, which "
                "this environment does not ship; re-write the table as "
                "parquet or install pylance"
            ) from e
        if columns is not None:
            columns = _augment_optional_columns(columns, lance.dataset(path).schema.names)
        return rd.read_lance(path, columns=columns)
    if _is_loose_file_dir(path):
        ds = read_images_dir(path)
        if columns is not None:
            avail = ("image_id", "bytes", "fmt", "caption")
            ds = ds.select_columns([c for c in columns if c in avail])
        return ds
    if columns is not None:
        import pyarrow.dataset as pads

        columns = _augment_optional_columns(columns, pads.dataset(path).schema.names)
    return rd.read_parquet(path, columns=columns)


def plan_read_tasks(
    path: str, ncpu: int, target_block_bytes: int = TARGET_BLOCK_BYTES
) -> list[dict]:
    """Plan the fused read+hash fan-out: pack read units into tasks of
    ~min(target, total/(4*ncpu)) encoded bytes.

    A unit is a whole parquet file, or, for a file larger than one
    core's share of the corpus (total/ncpu, at most the byte target),
    one of its row groups (sized from the footer's compressed column
    chunks), so a corpus stored as one file still decodes on every
    core. Smaller files stay whole: file packing already gives every
    core work, and a split would only add per-task cost (on one CPU,
    five row-group tasks of a 600-row file measured 0.21 s against
    0.13 s for one task). Each task is ``{"paths", "row_groups",
    "bytes"}``: per path the row groups it reads, ``[]`` for the whole
    file. Planning reads footers only of the files it splits; the rest
    is a listing of file sizes. At 100 TB this is a listing of the
    Lance/parquet fragment manifest — O(#fragments) driver memory, no
    data movement.
    """
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    files = []
    total = 0
    for f in pads.dataset(path).files:
        try:
            sz = os.path.getsize(f)
        except OSError:
            sz = 0
        files.append((f, sz))
        total += sz
    if not files:
        return []
    # a few task units per core keeps stragglers short; the byte target
    # bounds task size regardless of cluster width
    target = max(1, min(target_block_bytes, total // (4 * ncpu) or 1))
    split_above = max(1, min(target_block_bytes, total // ncpu))
    files.sort()  # deterministic plan
    units: list[tuple[str, int | None, int]] = []
    for f, sz in files:
        md = pq.ParquetFile(f).metadata if sz > split_above else None
        if md is None or md.num_row_groups < 2:
            units.append((f, None, sz))
            continue
        for i in range(md.num_row_groups):
            rg = md.row_group(i)
            rg_bytes = sum(rg.column(c).total_compressed_size for c in range(rg.num_columns))
            units.append((f, i, rg_bytes))
    tasks: list[dict] = []
    cur: dict = {"paths": [], "row_groups": [], "bytes": 0}
    for f, rg, sz in units:
        if cur["paths"] and cur["bytes"] + sz > target:
            tasks.append(cur)
            cur = {"paths": [], "row_groups": [], "bytes": 0}
        if rg is not None and cur["paths"] and cur["paths"][-1] == f:
            cur["row_groups"][-1].append(rg)
        else:
            cur["paths"].append(f)
            cur["row_groups"].append([] if rg is None else [rg])
        cur["bytes"] += sz
    tasks.append(cur)
    return tasks


_FUSED_HASHERS: dict[tuple, DecodeHasher | PrecomputedHasher] = {}
# rows per output row group of a hash task: the hash rows of many decode
# batches (~100 B each) go out as one row group, not one per batch
HASH_ROW_GROUP_ROWS = 1 << 17


def _fused_hasher(cfg: DedupConfig):
    """``_make_hasher(cfg)``, built once per worker process. The seed
    MUST be part of the cache key: two configs differing only in seed
    would otherwise share one cached PrecomputedHasher and silently
    sample the same verify rows (r4 verdict #5)."""
    key = (
        cfg.algo,
        cfg.exif_from_bytes,
        cfg.use_precomputed_phash,
        cfg.phash_verify_fraction,
        cfg.seed,
    )
    hasher = _FUSED_HASHERS.get(key)
    if hasher is None:
        hasher = _FUSED_HASHERS[key] = _make_hasher(cfg)
    return hasher


@ray.remote
def _hash_unit(paths: list, row_groups: list, columns: list, cfg, out_path: str) -> int:
    """Read one ``plan_read_tasks`` unit in decode-batch slices (task
    heap: one decode batch plus the pending hash rows), hash each slice,
    and write the hash rows to ``out_path``; -> rows written (a unit
    with no rows writes no file)."""
    hasher = _fused_hasher(cfg)
    schema = hash_schema(cfg)
    pending: list[pa.Table] = []
    n_pending = 0
    with PartWriter(out_path) as out:
        for path, rgs in zip(paths, row_groups):
            with open_parquet(path) as pf:
                for rb in pf.iter_batches(
                    batch_size=cfg.decode_batch_size, row_groups=rgs or None, columns=columns
                ):
                    pending.append(hasher(pa.Table.from_batches([rb])).cast(schema))
                    n_pending += pending[-1].num_rows
                    if n_pending >= HASH_ROW_GROUP_ROWS:
                        out.write(pa.concat_tables(pending))
                        pending, n_pending = [], 0
        if pending:
            out.write(pa.concat_tables(pending))
    return out.rows


def is_parquet_source(path: str) -> bool:
    """True when ``path`` is a parquet file or directory: the source the
    plain-task hash and apply passes read (not Lance, not loose files)."""
    return not path.rstrip("/").endswith(".lance") and not _is_loose_file_dir(path)


def _is_loose_file_dir(path: str) -> bool:
    """True for the reference's native input: a directory tree of image
    FILES (no parquet fragments anywhere). Single files / parquet dirs /
    missing paths all return False and take the table path."""
    if not os.path.isdir(path):
        return False
    for _root, _dirs, files in os.walk(path):
        for f in files:
            if f.endswith(".parquet"):
                return False
    for _root, _dirs, files in os.walk(path):
        if files:
            return True
    return False


def read_images_dir(root: str) -> rd.Dataset:
    """Directory-of-files source — the reference's input mode
    (app/Commands.java:72-96 walks a directory; the extension set is the
    fmt filter). Emits the engine's standard row shape with
    ``image_id`` = path relative to ``root`` (doubling as the
    deterministic keeper tiebreak, like the reference's paths) and an
    empty caption (loose files carry none; clustering reads only the
    hashes, matching the reference exactly).

    Scale shape: ``read_binary_files`` is fragment-parallel over the
    file listing; each task reads only its own files. Format detection
    defers to the codec sniffer at decode time — the extension only
    routes the reference's accept-list filter (S1)."""
    import ray.data as rdata

    ds = rdata.read_binary_files(root, include_paths=True)
    prefix = os.path.abspath(root)

    def _rows(t: pa.Table) -> pa.Table:
        paths = t["path"].to_pylist()
        rel = [os.path.relpath(p, prefix) for p in paths]
        fmt = [r.rsplit(".", 1)[-1].lower() if "." in r else "" for r in rel]
        return pa.table(
            {
                "image_id": pa.array(rel, pa.string()),
                "bytes": t["bytes"],
                "fmt": pa.array(fmt, pa.string()),
                "caption": pa.array([""] * len(rel), pa.string()),
            }
        )

    return ds.map_batches(_rows, batch_format="pyarrow")


def fused_hash_stage(images_path: str, cfg: DedupConfig):
    """Fused read+decode+hash of the images at ``images_path``, in the
    form ``RunManifest.run_stage`` takes from ``build``.

    A parquet source returns a writer: given the stage's ``.tmp``
    directory it runs one plain Ray task per ``plan_read_tasks`` unit,
    and each task reads its row groups LOCALLY, hashes them and writes
    its own ``part-<i>.parquet`` (a unit with no rows writes none), so
    the ``bytes`` column never enters the object store and only a row
    count returns to the driver.

    Why not read_parquet -> map_batches: Ray materializes the read
    operator's output blocks (the full encoded corpus) into plasma
    before the decode operator consumes them — measured 15.4 GB of
    object-store transit at sf0.1 that turned the hash stage flat from
    8->32 CPUs (plasma memcpy + page-cache pressure is shared-resource
    work that does not parallelize). Here the unit of work shipped
    through Ray is a list of file paths. On a multi-node cluster the
    same pattern holds with shared storage (S3/Lance): every task
    streams its own fragment.

    Lance and loose-file sources return the Ray Data ``hash_stage``
    Dataset over the same hashers.
    """
    cfg = resolve_precomputed_cfg(images_path, cfg)
    if images_path.rstrip("/").endswith(".lance"):
        # the fragment planner below is parquet-specific; Lance sources
        # go through read_lance (fragment-parallel at the storage layer)
        # into the unfused decode+hash stage
        cols = ["image_id", "bytes", "fmt", "caption"] + (
            list(PRECOMPUTED_COLUMNS) if cfg.use_precomputed_phash else []
        )
        if cfg.use_precomputed_phash:
            names = _lance_schema_names(images_path) or []
            if "size" in names:
                # bytes-FREE scan for Lance (r4 verdict #1): the main
                # pass reads only metadata-width columns via read_lance's
                # storage-level projection; verification moves to the
                # fragment-aligned verify_precomputed_sample_lance pass
                # (pipelines/dedup.py drives it off sampled==0 + mode)
                cols = [c for c in cols if c != "bytes"] + ["size"]
        return hash_stage(read_images(images_path, columns=cols), cfg)
    if _is_loose_file_dir(images_path):
        # the reference's native input mode: a directory of image FILES
        # (Commands.java:72-96 walks the tree) rather than a table
        if cfg.use_precomputed_phash:
            raise ValueError(
                "use_precomputed_phash needs a table with a phash column; "
                f"{images_path!r} is a loose-file directory (no metadata)"
            )
        return hash_stage(read_images_dir(images_path), cfg)
    import pyarrow.dataset as pads

    schema_names = pads.dataset(images_path).schema.names
    columns = _augment_optional_columns(["image_id", "bytes", "fmt", "caption"], schema_names)
    if cfg.use_precomputed_phash:
        missing = [c for c in PRECOMPUTED_COLUMNS if c not in schema_names]
        if missing:
            raise ValueError(
                f"use_precomputed_phash needs columns {PRECOMPUTED_COLUMNS} in "
                f"the input table; {images_path!r} lacks {missing}"
            )
        columns += list(PRECOMPUTED_COLUMNS)
        if "size" in schema_names:
            # bytes-FREE scan: the table ships its encoded byte length,
            # so the main pass reads only metadata-width columns — at
            # 100 TB the bytes column (≈ the whole table) never leaves
            # storage. The verify sample's bytes come from the separate
            # row-group-sampled pass (verify_precomputed_sample).
            columns = [c for c in columns if c != "bytes"] + ["size"]
    tasks = plan_read_tasks(images_path, available_cpus())

    def write(out_dir: str) -> None:
        wait_all(
            [
                _hash_unit.remote(
                    t["paths"],
                    t["row_groups"],
                    columns,
                    cfg,
                    os.path.join(out_dir, f"part-{i:05d}.parquet"),
                )
                for i, t in enumerate(tasks)
            ]
        )

    return write


# the result of a verify pass that sampled nothing
_NO_VERIFY = {"phash_verified": 0, "phash_verify_mismatch": 0, "phash_verify_no_bytes": 0}


def verify_precomputed_sample(images_path: str, cfg) -> dict:
    """Standalone trust-but-verify pass for bytes-FREE precomputed
    scans (table ships a ``size`` column, so the main hash pass never
    read ``bytes``).

    Sampling is ROW-GROUP-ALIGNED, not row-level: a content-keyed
    row sample spreads uniformly across the physical layout, so at any
    realistic row-group size EVERY group contains a sampled row and the
    "pruned" byte read degenerates to a full second scan (measured:
    11.3 s vs the 0.8 s main pass at sf0.1 across 1,875 fragments).
    Instead each (fragment, row_group) is selected with probability
    ``cfg.phash_verify_fraction`` via a splitmix64 hash of its path+index
    — deterministic per layout — and selected groups are decoded IN FULL
    and compared bit-exactly against their phash column. Expected byte
    traffic = verify_fraction of the corpus, the contract the mode
    advertises. One plain Ray task per sampled group (they are
    independent), each returning its ``(verified, mismatched,
    no_bytes)`` counts; the summed counters feed the pipeline gates
    (idf/pipelines/dedup.py).

    The bytes-present path keeps its row-level content-keyed in-batch
    verify (PrecomputedHasher) — it already has the bytes in hand, so
    row-level is free there.
    """
    import pyarrow.dataset as pads

    frac = min(max(float(cfg.phash_verify_fraction), 0.0), 1.0)
    if frac <= 0.0:
        return dict(_NO_VERIFY)

    dset = pads.dataset(images_path)
    has_orient = "orientation" in dset.schema.names
    units: list[tuple[str, int]] = []
    for fr in dset.get_fragments():
        try:
            n_rg = fr.metadata.num_row_groups
        except Exception:
            n_rg = 1
        units.extend((fr.path, rg) for rg in range(n_rg))
    if not units:
        return dict(_NO_VERIFY)
    root = images_path.rstrip("/")
    # key on the dataset-root-relative path, NOT the basename:
    # hive-partitioned layouts repeat basenames (date=D*/part-0.parquet),
    # which would give every group the same key and all-or-nothing
    # correlated selection
    keys = np.array(
        [f"{os.path.relpath(p, root)}:{rg}" for p, rg in units], dtype=object
    )
    mask = _sample_unit_mask(keys, frac)
    # the orientation column must ride along when the table has one:
    # DecodeHasher (and the in-batch verify) honor it, so omitting it
    # here would spuriously fail honest oriented corpora at the gate
    cols = ["image_id", "bytes", "fmt", "caption", "w", "h", "phash"] + (
        ["orientation"] if has_orient else []
    )
    res = wait_all(
        [_verify_row_group.remote(p, rg, cols, cfg) for (p, rg), m in zip(units, mask) if m]
    )
    return {
        "phash_verified": sum(v for v, _, _ in res),
        "phash_verify_mismatch": sum(m for _, m, _ in res),
        "phash_verify_no_bytes": sum(nb for _, _, nb in res),
    }


@ray.remote
def _verify_row_group(path: str, rg: int, cols: list, cfg) -> tuple[int, int, int]:
    """Decode one sampled row group against its phash column; ->
    ``(verified, mismatched, no_bytes)``."""
    with open_parquet(path) as pf:
        t = pf.read_row_group(rg, columns=cols)
    hasher = DecodeHasher(cfg.algo, exif_from_bytes=cfg.exif_from_bytes)
    return _verify_loaded_table(t, hasher, cfg.decode_batch_size)


def _verify_loaded_table(t: pa.Table, hasher, batch_rows: int) -> tuple[int, int, int]:
    """Decode one loaded (bytes-carrying) table slice and compare its
    hashes bit-exactly against the shipped phash column. Returns
    (n_verified, n_mismatched, n_no_bytes). Shared by the parquet
    row-group verify and the Lance fragment verify — ONE definition of
    the trust contract.

    Eligibility mirrors the in-batch verify: fmt accepted AND metadata
    marks the row decodable — rows the corpus honestly flags (corrupt
    probes get w<=0, alien formats skip:fmt, null phash) are outside
    the trust contract, not mismatches. An eligible row with a null
    ``bytes`` cell has nothing to decode: it counts as no_bytes (the
    in-batch verify's outcome 3), never as verified or mismatched."""
    import pyarrow.compute as pc

    fmt_ok = pc.is_in(pc.utf8_lower(pc.cast(t["fmt"], pa.string())), value_set=_FMT_SET)
    fmt_ok = pc.fill_null(fmt_ok, False).combine_chunks().to_numpy(zero_copy_only=False)
    w = t["w"].to_numpy(zero_copy_only=False).astype(np.int64)
    h = t["h"].to_numpy(zero_copy_only=False).astype(np.int64)
    ph_null = pc.is_null(t["phash"]).combine_chunks().to_numpy(zero_copy_only=False)
    eligible = fmt_ok & (w > 0) & (h > 0) & ~ph_null
    no_bytes = pc.is_null(t["bytes"]).combine_chunks().to_numpy(zero_copy_only=False)
    # fill_null BEFORE to_numpy — one null makes to_numpy float64 for
    # the whole column, rounding hashes above 2^53
    exp = (
        pc.fill_null(t["phash"], 0)
        .cast(pa.int64())
        .combine_chunks()
        .to_numpy(zero_copy_only=False)
    )
    n_v = 0
    n_m = 0
    for lo in range(0, len(t), batch_rows):
        sub = t.slice(lo, batch_rows)
        dec = hasher(sub)
        ok = dec["status"].to_numpy(zero_copy_only=False) == "ok"
        got = dec["phash"].to_numpy(zero_copy_only=False)
        m_ok = eligible[lo : lo + len(sub)] & ~no_bytes[lo : lo + len(sub)]
        e = exp[lo : lo + len(sub)]
        n_v += int(m_ok.sum())
        # mismatch: metadata said ok but decode failed, or hash differs
        n_m += int((m_ok & (~ok | (got != e))).sum())
    return n_v, n_m, int((eligible & no_bytes).sum())


def _sample_unit_mask(keys: np.ndarray, frac: float) -> np.ndarray:
    """Deterministic splitmix64 unit selection shared by both verify
    passes: each unit key selected with probability ``frac``; tiny
    layouts always verify at least one unit."""
    import pandas as pd

    if frac >= 1.0:
        return np.ones(len(keys), dtype=bool)
    # threshold only computed on this branch: at frac==1.0 the
    # int(1.0*(2^63-1)) rounds up to 2^63 and *2 wraps uint64 to 0
    thresh = np.uint64(int(frac * float(2**63 - 1))) * np.uint64(2)
    mask = mix64(pd.util.hash_array(keys), 42) <= thresh
    if not mask.any():
        mask[int(mix64(np.array([len(keys)], np.uint64), 42)[0] % len(keys))] = True
    return mask


def verify_precomputed_sample_lance(images_path: str, cfg, dataset_factory=None) -> dict:
    """Lance flavor of the bytes-free trust-but-verify pass (r4 verdict
    #1 — the north rule names Lance as the storage format). Sampling is
    FRAGMENT-aligned: Lance has no parquet row groups, its random-access
    unit is the fragment, so each fragment is selected with probability
    ``cfg.phash_verify_fraction`` via a splitmix64 hash of its fragment
    id — deterministic per layout — and selected fragments are read IN
    FULL (``LanceDataset.get_fragment(fid).to_table(columns=...)``, a
    storage-level projected read that touches only that fragment's data
    files) and decoded against their phash column. Expected byte
    traffic = verify_fraction of the corpus, same contract as parquet.

    One Ray task per sampled fragment; each task re-opens the dataset
    by path (fragment handles never cross the wire — the open is cheap,
    the read is fragment-local). ``dataset_factory`` is the injection
    seam for the stub-module contract test; the default imports the
    real ``lance`` wheel inside the task."""
    frac = min(max(float(cfg.phash_verify_fraction), 0.0), 1.0)
    if frac <= 0.0:
        return dict(_NO_VERIFY)

    factory = dataset_factory or _open_lance_dataset
    ds = factory(images_path)
    has_orient = "orientation" in list(ds.schema.names)
    frags = list(ds.get_fragments())
    if not frags:
        return dict(_NO_VERIFY)
    fids = [int(getattr(f, "fragment_id", i)) for i, f in enumerate(frags)]
    keys = np.array([f"frag:{i}" for i in fids], dtype=object)
    mask = _sample_unit_mask(keys, frac)
    chosen = [i for i, m in zip(fids, mask) if m]

    algo, exif_bytes, batch_rows = cfg.algo, cfg.exif_from_bytes, cfg.decode_batch_size
    cols = ["image_id", "bytes", "fmt", "caption", "w", "h", "phash"] + (
        ["orientation"] if has_orient else []
    )

    def _check(batch: pa.Table) -> pa.Table:
        hasher = DecodeHasher(algo, exif_from_bytes=exif_bytes)
        dsl = factory(images_path)
        by_id = None
        n_v = 0
        n_m = 0
        n_nb = 0
        for fid in batch["fid"].to_pylist():
            if hasattr(dsl, "get_fragment"):
                fr = dsl.get_fragment(int(fid))
            else:  # pragma: no cover - older lance without get_fragment
                if by_id is None:
                    by_id = {
                        int(getattr(f, "fragment_id", i)): f
                        for i, f in enumerate(dsl.get_fragments())
                    }
                fr = by_id[int(fid)]
            t = fr.to_table(columns=cols)
            dv, dm, dnb = _verify_loaded_table(t, hasher, batch_rows)
            n_v += dv
            n_m += dm
            n_nb += dnb
        return pa.table({"verified": [n_v], "mismatched": [n_m], "no_bytes": [n_nb]})

    work = rd.from_items([{"fid": i} for i in chosen])
    res = work.map_batches(_check, batch_format="pyarrow", batch_size=1).to_pandas()
    return {
        "phash_verified": int(res["verified"].sum()),
        "phash_verify_mismatch": int(res["mismatched"].sum()),
        "phash_verify_no_bytes": int(res["no_bytes"].sum()),
    }


def _open_lance_dataset(path: str):
    try:
        import lance  # type: ignore[import-not-found]
    except ImportError as e:  # pragma: no cover - wheel absent in-sandbox
        raise ImportError(
            "verifying a .lance table needs the `lance` wheel, which is not "
            "installed; convert to parquet or install pylance"
        ) from e
    return lance.dataset(path)

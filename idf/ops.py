"""Generic, reusable Ray Data operators.

These are the engine's relational building blocks, used both by the
image-dedup pipeline (SURVEY.md §2: A1-A7, J3, S5 semantics) and by the
SQL-checkable query surface in ``__ray_entry__``. Row-wise operators
stay lazy ``map_batches`` over ``ray.data.Dataset``s. Every keyed
shuffle (grouping, joins, aggregates) runs on one engine at every input
size: ``exchange_refs``, a hash exchange built from plain Ray tasks
whose slices spill through the object store like any task output.
Dataset callers reach it through ``exchange_apply``, which materializes
its input first; no Ray Data groupby, sort or repartition runs here.
"""

from __future__ import annotations

import dataclasses
import logging
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd


def available_cpus(default: int = 4) -> int:
    try:
        return max(1, int(ray.cluster_resources().get("CPU", default)))
    except Exception:
        return default


# Per-process counters of the keyed shuffles run, observable from tests.
# The exchange is the only engine, so "sort" stays 0; perfbench/trace.py
# reads both keys for its declared ops.exchange_calls / ops.sort_calls.
EXCHANGE_STATS = {"exchange": 0, "sort": 0}


def _estimate_bytes(ds: rd.Dataset):
    """Metadata-only size estimate of a (possibly lazy) dataset, or None.

    Known for read-rooted plans (parquet footers) and materialized
    datasets; None after schema-changing transforms. Never triggers
    execution — that is the point (``Dataset.size_bytes()`` executes
    the plan when metadata is missing)."""
    try:
        return ds._logical_plan.dag.infer_metadata().size_bytes
    except Exception:
        return None


def exchange_width(size_bytes: int, ncpu: int) -> int:
    """Partition count of a raw-task exchange over ``size_bytes`` of
    shuffle input on ``ncpu`` CPUs, sized by the bytes: each partition
    costs a reduce task and an object per split task, fixed costs that
    dwarf the kernel work of a small shuffle. Below 64 MiB one partition
    per ~4 MiB while that fits the CPUs, else two per CPU (or more) so
    every core gets reduce work; from 64 MiB on two per CPU and at most
    ~256 MiB per partition, the bound Ray Data's map_groups imposes on
    a sorted group run too."""
    if size_bytes < (64 << 20):
        n = size_bytes // (4 << 20) + 1
        return n if n <= ncpu else max(2 * ncpu, n)
    return max(2 * ncpu, size_bytes // (256 << 20) + 1)


def _to_block(out) -> pa.Table:
    """A bucket fn's output as an Arrow block without schema metadata:
    a pandas-converted schema carries a ``pandas`` dict that makes it
    UNHASHABLE, which defeats Ray's schema-dedup fast path downstream
    (and spams 'Failed to hash the schemas' warnings)."""
    if not isinstance(out, pa.Table):
        out = pa.Table.from_pandas(out, preserve_index=False)
    return out.replace_schema_metadata(None)


def _column_hash(col) -> np.ndarray:
    """``hash_pandas_object`` of one key column, as uint64. A null-free
    integer column hashes its numpy view directly: the same values as
    its pandas conversion, without converting (the conversion cost
    several times the hash on the small blocks of a superstep)."""
    if pa.types.is_integer(col.type) and col.null_count == 0:
        return pd.util.hash_array(col.to_numpy())
    return pd.util.hash_pandas_object(col.to_pandas(), index=False).to_numpy()


def hash_split(keys: pa.Table, n_parts: int) -> tuple[np.ndarray, np.ndarray]:
    """The exchange's one partition function: row ``i`` of ``keys``
    (the key columns) goes to partition ``h % n_parts``, where ``h`` is
    ``pd.util.hash_pandas_object`` of the keys as a frame (each
    column's hash, combined as pandas combines them), so placement
    depends on content alone, never on block layout. -> ``(order,
    bounds)``: partition ``p`` holds rows ``order[bounds[p]:bounds[p +
    1]]``. Anything that must reach the partition ``exchange_refs``
    gave a key (labelprop's superstep messages) splits with this, on
    keys of the same dtype."""
    h = np.full(keys.num_rows, 0x345678, dtype=np.uint64)
    mult = np.uint64(1000003)
    for i, col in enumerate(keys.columns):
        h ^= _column_hash(col)
        h *= mult
        mult += np.uint64(82520 + 2 * (keys.num_columns - i))
    h += np.uint64(97531)
    part = (h % np.uint64(n_parts)).astype(np.int64)
    order = np.argsort(part, kind="stable")
    return order, np.searchsorted(part[order], np.arange(n_parts + 1))


@dataclasses.dataclass(frozen=True)
class FileSlice:
    """A committed parquet file, or row slice ``part = (i, n)`` (the
    i-th of n equal slices) of it, as an exchange input that the split
    task reads itself: no read wave and no block refs before the split.
    ``columns`` and ``filter`` (whole files only; a ``pyarrow.dataset``
    expression whose columns need not be read) as for ``pq.read_table``;
    ``extra`` goes to ``pre_map`` after the table. A row slice decodes
    only the row groups it overlaps, so n slices decode a file about
    once (pyarrow's writer cuts row groups at 1Mi rows)."""

    path: str
    columns: list | None = None
    filter: object = None
    part: tuple[int, int] = (0, 1)
    extra: tuple = ()

    def read(self) -> pa.Table:
        i, n = self.part
        if n == 1:
            t = pq.read_table(self.path, columns=self.columns, filters=self.filter, memory_map=True)
            return t.replace_schema_metadata(None)
        with open_parquet(self.path) as f:
            ends = np.cumsum([f.metadata.row_group(g).num_rows for g in range(f.num_row_groups)])
            step = -(-f.metadata.num_rows // n)
            lo, hi = min(i * step, f.metadata.num_rows), min((i + 1) * step, f.metadata.num_rows)
            g0, g1 = np.searchsorted(ends, lo, "right"), np.searchsorted(ends, hi) + 1
            t = f.read_row_groups(range(g0, min(g1, len(ends))), columns=self.columns)
        return t.slice(lo - (ends[g0 - 1] if g0 else 0), hi - lo).replace_schema_metadata(None)


def file_inputs(files: list[FileSlice], n_tasks: int, slice_rows: bool = False) -> list:
    """Whole-file ``FileSlice``s -> the inputs of at most ``n_tasks``
    split tasks, each a list of the slices it reads (round robin). With
    ``slice_rows`` and fewer files than ``n_tasks`` each file splits
    into row slices, so a row-expanding ``pre_map`` over a one-file
    stage still fans out to ``n_tasks``."""
    k = -(-n_tasks // len(files)) if slice_rows and files else 1
    if k > 1 and any(f.filter is not None for f in files):
        raise ValueError("a row slice takes no filter")
    items = [dataclasses.replace(f, part=(i, k)) for f in files for i in range(k)]
    n = min(n_tasks, len(items))
    return [items[i::n] for i in range(n)]


@ray.remote
def _exchange_split(keys: list[str], n_parts: int, pre_map, tbl, *extra):
    """Map side: one input -> ``n_parts`` key-hashed slices."""
    if isinstance(tbl, list):  # FileSlices this task reads itself
        tbls = [pre_map(f.read(), *f.extra) if pre_map else f.read() for f in tbl]
        tbl = pa.concat_tables(tbls, promote_options="default")
    # Ray emits zero-row blocks with a BLANK schema between some
    # operators: nothing to route, and the reduce filters them. A typed
    # empty, or one with extra args, goes through pre_map so it carries
    # the POST-map schema the reduce concat expects.
    elif pre_map is not None and (extra or tbl.num_columns):
        tbl = pre_map(tbl, *extra)
    if tbl.num_rows == 0:
        parts = [tbl.slice(0, 0)] * n_parts
    else:
        order, bounds = hash_split(tbl.select(keys), n_parts)
        t2 = tbl.replace_schema_metadata(None).take(pa.array(order))
        parts = [t2.slice(bounds[i], bounds[i + 1] - bounds[i]) for i in range(n_parts)]
    return tuple(parts) if n_parts > 1 else parts[0]


@ray.remote
def _exchange_reduce(bucket_fn, path: str | None, *parts: pa.Table):
    """Reduce side: one partition's slices -> ``bucket_fn`` output, or,
    given a ``path``, its row count after writing it there (a zero-row
    output writes no file)."""
    out = _reduce(bucket_fn, parts)
    if path is not None and out.num_rows:
        pq.write_table(out, path)
    return out if path is None else out.num_rows


def _reduce(bucket_fn, parts) -> pa.Table:
    live = [p for p in parts if p.num_rows]
    if live:
        return _to_block(bucket_fn(pa.concat_tables(live, promote_options="default")))
    t = max(parts, key=lambda p: p.num_columns)
    if t.num_columns == 0:
        return t  # every input block was schema-less empty
    # EMPTY partition: empty-in -> empty-out is the answer of every
    # bucket_fn here, but not all tolerate an empty frame (g.iloc[0]
    # raises). Let the fn emit its typed empty schema; else a zero-column
    # empty block, which Ray drops on concat.
    try:
        return _to_block(bucket_fn(t))
    except (IndexError, KeyError, ValueError):
        # the expected empty-input probe failures (g.iloc[0],
        # max-of-empty, missing side column)
        return t.select([])
    except Exception:
        # likely a real bucket_fn defect: keep empty-out, but say so
        logging.getLogger(__name__).warning(
            "exchange: bucket_fn raised on typed-empty partition (returning empty block)",
            exc_info=True,
        )
        return t.select([])


def exchange_refs(
    refs: list,
    keys: str | list[str],
    bucket_fn,
    n_parts: int,
    pre_map: "callable | None" = None,
    out_dir: str | None = None,
) -> list:
    """The raw-task hash exchange: every input splits into ``n_parts``
    content-keyed slices (``hash_split`` of ``keys``, so outputs are
    invariant to input layout), and one reduce task per partition
    concats its slices and runs the Arrow-in ``bucket_fn`` (Arrow or
    pandas out). ``pre_map`` (Arrow -> Arrow) runs inside the split
    tasks. Each input is one split task: an Arrow block ref; a tuple
    ``(block_ref, *extra)``, for ``pre_map(block, *extra)`` with each
    ref in ``extra`` resolved; or a list of ``FileSlice``s
    (``file_inputs``), each read, pre-mapped with its own ``extra`` and
    concatenated in the task. Returns the ``n_parts`` output block refs
    without waiting on them, so exchanges chain with no Ray Data job in
    between; given ``out_dir``, each reduce task writes its output to
    ``out_dir/part-<p>.parquet`` instead (a zero-row partition writes no
    file), and the refs hold row counts, for ``wait_all``."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    n_parts = int(n_parts)
    EXCHANGE_STATS["exchange"] += 1
    if not refs:
        return []  # no inputs, no refs
    split = _exchange_split.options(num_returns=n_parts)
    splits = [
        split.remote(keys, n_parts, pre_map, *(r if isinstance(r, tuple) else (r,))) for r in refs
    ]
    if n_parts == 1:
        splits = [[s] for s in splits]
    paths = [None] * n_parts
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        paths = [os.path.join(out_dir, f"part-{p:05d}.parquet") for p in range(n_parts)]
    reduce = _exchange_reduce.remote
    return [reduce(bucket_fn, paths[p], *[s[p] for s in splits]) for p in range(n_parts)]


def open_parquet(path: str):
    """The one way a task opens an input parquet file: memory-mapped, so
    a read of page-cache pages copies nothing into fresh buffers (a
    plain read pays a first-touch page fault per page of every column
    chunk it loads). The file must not be truncated or rewritten while
    it is open: a mapped read past a cut end raises SIGBUS in the
    reading process, not an I/O error."""
    return pq.ParquetFile(path, memory_map=True)


class PartWriter:
    """One parquet file of a task's output, opened on the first
    non-empty table written to it: a task with no rows writes no file.
    ``compression`` goes to ``pq.ParquetWriter`` as is: one codec, or a
    codec per column (a column missing from the dict is written
    uncompressed). Use as a context manager (the file is closed on the
    way out)."""

    def __init__(self, path: str, compression: str | dict = "snappy"):
        self.path = path
        self.compression = compression
        self.writer = None
        self.rows = 0

    def write(self, tbl: pa.Table) -> None:
        if not tbl.num_rows:
            return
        if self.writer is None:
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            self.writer = pq.ParquetWriter(self.path, tbl.schema, compression=self.compression)
        self.writer.write_table(tbl)
        self.rows += tbl.num_rows

    def __enter__(self) -> "PartWriter":
        return self

    def __exit__(self, *exc) -> None:
        if self.writer is not None:
            self.writer.close()


@ray.remote
def _rewrite_file(src: str, columns: list, dst: str) -> int:
    with open_parquet(src) as pf, PartWriter(dst) as out:
        for i in range(pf.num_row_groups):
            out.write(pf.read_row_group(i, columns=columns))
    return out.rows


def rewrite_files(files: list[str], columns: list[str], out_dir: str, prefix: str) -> list:
    """Submit one task per parquet file that re-writes its ``columns``,
    in that order, one row group at a time, to
    ``out_dir/<prefix>-<i>.parquet`` (a zero-row file writes none);
    -> the task refs, for ``wait_all``."""
    return [
        _rewrite_file.remote(f, columns, os.path.join(out_dir, f"{prefix}-{i:05d}.parquet"))
        for i, f in enumerate(files)
    ]


def wait_all(refs: list) -> list:
    """``ray.get`` of task refs that returns or raises only once every
    task has ended: a failed task must not leave its siblings writing
    into a stage's ``.tmp`` directory after the stage has raised (a
    resume would remove that directory under them)."""
    if refs:
        ray.wait(refs, num_returns=len(refs), fetch_local=False)
    return ray.get(refs)


def exchange_apply(
    ds: rd.Dataset,
    key: str | list[str],
    bucket_fn,
    n_parts: int | None = None,
    arrow_fn: bool = False,
    pre_map: "callable | None" = None,
    est_bytes: int | None = None,
    min_parts: int = 1,
) -> rd.Dataset:
    """Raw-Ray two-phase hash exchange + whole-partition apply: the
    Dataset form of ``exchange_refs``.

    Same co-location contract as ``bucketed_apply`` (all rows with equal
    ``key`` reach the same ``bucket_fn`` call), built from plain Ray
    tasks: the input is materialized (one Ray Data job), its block refs
    go through ``exchange_refs``, and the output refs become a Dataset
    again; the image pipeline's shuffle stages skip both ends (their
    split tasks read files, their reduce tasks write them). Ray Data's
    sort, its only keyed exchange, measured ~2x slower on the sf0.1
    banding shuffle (5.1 s vs 2.6 s at 32 CPUs) and 2.7x slower on a
    400 MB shuffle 4x the object store (45.2 s vs 16.9 s at 2 CPUs).
    ``n_parts`` defaults to ``exchange_width`` of ``est_bytes`` (else
    the MATERIALIZED input bytes) and the cluster's CPUs, and at least
    ``min_parts``. Skewed keys cost one oversized partition.

    ``arrow_fn``: hand ``bucket_fn`` the Arrow partition instead of a
    pandas frame. REQUIRED when any column holds per-side null padding
    (a whole-partition pandas conversion would promote null-bearing
    int64 to float64, corrupting 64-bit keys; the fn filters in Arrow
    first).

    ``pre_map``: an Arrow-table->Arrow-table row-EXPANDING transform
    fused INTO the split tasks (r4 verdict #3): each split task expands
    only its own input transiently and ships the split outputs, so the
    expanded table (68x rows in the banding stage) never exists as a
    whole in the object store (measured: sf0.1 banding stage 5.7 s ->
    ~2 s at 32 CPUs). ``est_bytes`` then sizes n_parts (the
    materialized pre-map input no longer predicts shuffle volume)."""
    keys = [key] if isinstance(key, str) else list(key)
    mat = ds.materialize()
    fn = bucket_fn if arrow_fn else (lambda t: bucket_fn(t.to_pandas()))
    refs = mat.to_arrow_refs()
    if not refs:
        # no blocks at all: hand the fn a typed empty input so its
        # output schema survives (arrow_fn callers index columns like
        # t["__side"] — a schema-less pa.table({}) would KeyError)
        EXCHANGE_STATS["exchange"] += 1
        schema = mat.schema()
        if schema is None:
            return rd.from_arrow(pa.table({}))
        empty_in = pa.table(
            {n: pa.array([], type=_as_arrow_type(t)) for n, t in zip(schema.names, schema.types)}
        )
        if pre_map is not None:
            empty_in = pre_map(empty_in)
        return rd.from_arrow(_to_block(fn(empty_in)))
    if n_parts is None:
        size = est_bytes if est_bytes is not None else (mat.size_bytes() or 0)
        n_parts = max(min_parts, exchange_width(size, available_cpus()))
    return rd.from_arrow_refs(exchange_refs(refs, keys, fn, n_parts, pre_map))


def bucketed_apply(
    ds: rd.Dataset,
    key: str | list[str],
    bucket_fn,
    arrow_fn: bool = False,
    est_bytes: int | None = None,
    pre_map: "callable | None" = None,
    n_parts: int | None = None,
    out_dir: str | None = None,
) -> rd.Dataset:
    """Hash-partition rows by ``key`` and apply ``bucket_fn`` (pandas
    in/out, or Arrow in with ``arrow_fn=True``) to each WHOLE co-located
    partition: all rows with equal keys land in the same partition, so
    any per-key computation inside ``bucket_fn`` is globally correct.
    Shuffles are keyed on a bounded partition id, not on raw keys.

    ``arrow_fn=True`` is REQUIRED whenever any input column carries
    per-side null padding (tagged unions): a whole-partition pandas
    conversion promotes null-bearing int64 to float64, silently rounding
    64-bit keys above 2^53 — the fn must filter sides in Arrow first.

    The engine is the raw-task exchange at every size: a Dataset goes
    through ``exchange_apply`` (-> Dataset; ``n_parts`` is its width,
    else ``exchange_width`` of ``est_bytes``); a list of
    ``exchange_refs`` inputs goes straight to it on ``n_parts``
    partitions (-> refs, or row counts given ``out_dir``)."""
    keys = [key] if isinstance(key, str) else list(key)
    if not isinstance(ds, list):
        return exchange_apply(
            ds, keys, bucket_fn, n_parts, arrow_fn=arrow_fn, pre_map=pre_map, est_bytes=est_bytes
        )
    fn = bucket_fn if arrow_fn else (lambda t: bucket_fn(t.to_pandas()))
    return exchange_refs(ds, keys, fn, n_parts, pre_map, out_dir)


def bucketed_group_apply(ds: rd.Dataset, key: str | list[str], group_fn) -> rd.Dataset:
    """``groupby(key).map_groups(group_fn)`` with key salting.

    A shuffle keyed on raw ``key`` creates one Ray group per distinct
    key — ruinous overhead when keys are numerous and tiny (LSH
    buckets, per-cluster groups). Here the exchange co-locates keys by
    hash partition and ``group_fn`` runs per real key-group via a local
    pandas groupby inside the reduce task. That is a Python call per key,
    work the bytes do not predict: it keeps two partitions per CPU, up
    to 8, however small the input (one partition measured 0.25 -> 0.94
    s on a per-customer group filter over the sf0.01 orders table, 4
    CPUs).
    """
    keys = [key] if isinstance(key, str) else list(key)

    def apply_bucket(g: pd.DataFrame) -> pd.DataFrame:
        outs = [group_fn(sub) for _, sub in g.groupby(keys, sort=False, dropna=False)]
        outs = [o for o in outs if o is not None and len(o)]
        if not outs:
            out = group_fn(g.iloc[0:0])  # empty frame with the right schema
            return out if out is not None else pd.DataFrame()
        return pd.concat(outs, ignore_index=True)

    return exchange_apply(ds, keys, apply_bucket, min_parts=min(8, 2 * available_cpus()))


# ---------------------------------------------------------------------------
# joins


def _as_arrow_type(t) -> pa.DataType:
    """Normalize a Dataset.schema() type entry to an Arrow DataType.

    Arrow-block datasets yield ``pa.DataType`` already; pandas-block
    datasets (``rd.from_pandas`` or pandas ``map_batches`` output) yield
    numpy dtypes / Python classes, which ``pa.nulls`` rejects."""
    if isinstance(t, pa.DataType):
        return t
    try:
        return pa.from_numpy_dtype(t)
    except (pa.ArrowNotImplementedError, TypeError, ValueError):
        # numpy object dtype (strings / mixed) and anything unmappable:
        # pad as string — the per-bucket pandas merge coerces anyway.
        return pa.string()


def hash_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: str | list[str],
    how: str = "inner",
    suffix: str = "_r",
) -> rd.Dataset:
    """Distributed hash join via a single co-grouping shuffle.

    Both sides are tagged, unioned, and co-grouped on the key; each
    group joins locally with pandas. One all-to-all exchange, no
    driver materialization — the portable pattern recommended for Ray
    Data versions without a native ``Dataset.join``. Skewed keys cost
    one oversized group; callers with a known-small side should prefer
    a ``get_broadcast`` map-side lookup instead (A6 analog,
    app/Commands.java:290-299).
    """
    keys = [on] if isinstance(on, str) else list(on)
    lschema, rschema = left.schema(), right.schema()
    ltypes = dict(zip(lschema.names, map(_as_arrow_type, lschema.types)))
    rtypes = dict(zip(rschema.names, map(_as_arrow_type, rschema.types)))
    lcols = list(lschema.names)
    overlap = (set(lcols) & set(rschema.names)) - set(keys)
    rname = {c: (c + suffix if c in overlap else c) for c in rschema.names}
    rcols = [rname[c] for c in rschema.names]
    rtypes = {rname[c]: t for c, t in rtypes.items()}
    # unified schema: left cols, then right-only cols, then the side tag
    all_cols = lcols + [c for c in rcols if c not in lcols]
    all_types = {**rtypes, **ltypes}

    def _pad(side: int, renames: dict[str, str] | None):
        def fn(t: pa.Table) -> pa.Table:
            if renames:
                t = t.rename_columns([renames[c] for c in t.column_names])
            cols = {c: t[c] if c in t.column_names else pa.nulls(len(t), all_types[c]) for c in all_cols}
            cols["__side"] = pa.array(np.full(len(t), side, dtype=np.int8))
            return pa.table(cols)

        return fn

    tagged = left.map_batches(_pad(0, None), batch_format="pyarrow").union(
        right.map_batches(_pad(1, rname), batch_format="pyarrow")
    )

    # co-group via the raw-task exchange keyed on the (shared-name) join
    # columns, then ONE vectorized pandas merge per partition — not one
    # task per distinct key value. Blocks stay Arrow until the per-side
    # split so the null padding never degrades dtypes (arrow_fn mode).
    def _merge(t: pa.Table) -> pd.DataFrame:
        import pyarrow.compute as pc

        lg = t.filter(pc.equal(t["__side"], 0)).select(lcols).to_pandas()
        rg = t.filter(pc.equal(t["__side"], 1)).select(rcols).to_pandas()
        return lg.merge(rg, on=keys, how=how)

    return exchange_apply(tagged, keys, _merge, arrow_fn=True)


def strip_schema_metadata(ds: rd.Dataset) -> rd.Dataset:
    """Drop pandas schema metadata from every block (zero-copy).

    Parquet written via pandas carries a `pandas` metadata dict that
    makes the Arrow schema UNHASHABLE, which silently defeats Ray's
    set()-based schema-dedup fast path in every union/shuffle reduce
    and spams 'Failed to hash the schemas' warnings. One pass at the
    read fixes the whole downstream graph."""
    return ds.map_batches(
        lambda t: t.replace_schema_metadata(None),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


_BROADCAST_CACHE: dict = {}


def get_broadcast(ref):
    """Fetch a ``ray.put`` object once per WORKER PROCESS.

    Stateless map tasks run in long-lived worker processes; caching the
    deserialized broadcast value module-level gives actor-style
    amortization without an actor pool (which this Ray build schedules
    poorly in local mode — see stages/hash_stage.py)."""
    key = ref.hex() if hasattr(ref, "hex") else str(ref)
    if key not in _BROADCAST_CACHE:
        while len(_BROADCAST_CACHE) >= 8:  # bound worker-heap growth
            _BROADCAST_CACHE.pop(next(iter(_BROADCAST_CACHE)))
        _BROADCAST_CACHE[key] = ray.get(ref)
    return _BROADCAST_CACHE[key]


def broadcast_semi_join(ds: rd.Dataset, key: str, values, negate: bool = False) -> rd.Dataset:
    """Semi/anti join against a small key set (``ray.put`` once, filter
    per batch). The scale path for a large filter side is the bucketed
    ``hash_join``; this is the A6-style broadcast (SURVEY §2.4)."""
    ref = ray.put(frozenset(values) if not isinstance(values, ray.ObjectRef) else values)

    def _filter(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        got = get_broadcast(ref)
        keys = got if isinstance(got, frozenset) else frozenset(got)
        if not keys:
            # pa.array([]) is null-typed and pc.is_in raises on a typed
            # column; the answer is trivially all-False anyway.
            return t if negate else t.slice(0, 0)
        mask = pc.fill_null(pc.is_in(t[key], value_set=pa.array(list(keys))), False)
        if negate:
            mask = pc.invert(mask)
        return t.filter(mask)

    return ds.map_batches(_filter, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# grouped operators


def exact_dedup(ds: rd.Dataset, key: str, order_col: str) -> rd.Dataset:
    """One row per distinct ``key``, deterministically the min
    ``order_col`` — hash-partitioned grouped head (exact dedup)."""

    def _first(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(order_col, kind="mergesort").head(1)

    return bucketed_group_apply(ds, key, _first)


def bucketed_aggregate(
    ds: rd.Dataset,
    key: str | list[str],
    aggs: dict[str, tuple[str, str]],
) -> rd.Dataset:
    """Grouped aggregate for HIGH-CARDINALITY keys (millions of groups).

    Ray's native ``groupby().aggregate()`` pays per-group overhead that
    dominates when groups are tiny and numerous (e.g. per-PAIR counts).
    This runs one vectorized ``pandas.groupby.agg`` per exchange
    partition (``bucketed_apply``).
    ``aggs``: out_col -> (in_col, fn) with fn in {'sum','min','max',
    'count','size','first'}.
    """
    keys = [key] if isinstance(key, str) else list(key)

    def agg_bucket(g: pd.DataFrame) -> pd.DataFrame:
        gb = g.groupby(keys, sort=False)
        pieces = {out: gb[col].agg(fn) for out, (col, fn) in aggs.items()}
        out = pd.DataFrame(pieces).reset_index()
        return out

    return bucketed_apply(ds, keys, agg_bucket)

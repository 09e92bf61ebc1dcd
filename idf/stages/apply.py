"""Apply stage — relational form of the reference's quarantine move.

Reference analog A7 (app/Commands.java:287-354): DELETE rows are moved
into a quarantine directory, keepers stay. Here (SURVEY §2.4 A7) one
pass over the images tags every row ``keep`` (not DELETE, or not in the
plan) or ``quarantine`` (plan DELETE) and writes each side into its own
hive partition directory, ``__apply=keep`` and ``__apply=quarantine``.
The run manifest commits the two directories together as ``apply_keep``
and ``apply_quarantine`` (``RunManifest.run_split_stage``), so the
encoded ``bytes`` column is read and written exactly once.
Filename-uniquing (`safeMove` _N suffixes) is N/A — image_ids are
unique keys.

Size-adaptive (like CC's ``cc_driver_max_edges`` guard): the DELETE
ids are counted from the committed plan files in the driver with
pyarrow (no Ray job).
When the set is small it is read the same way and broadcast once via
``ray.put`` (A6's keeper-map broadcast analog). A parquet corpus then
splits as one plain task per ``plan_read_tasks`` unit: each task reads
its row groups one at a time (memory-mapped, ``ops.open_parquet``),
tags them with ``quarantine_mask`` and writes both sides itself, so the
``bytes`` column never enters the object store. Lance and loose-file
sources tag with the same kernel in one Ray Data pass. Past
``broadcast_max_ids`` the ids stay distributed and the tag comes from
one left ``hash_join`` (at 10^12 rows deletes are ~half the corpus — no
driver list can hold them).

Codec rule of the task route (``column_codecs``): each task reads the
footers of the row groups it splits and, per column, compares the
total compressed size with the total uncompressed size. A column whose
codec saved less than ``CODEC_MIN_SAVING`` (3%) of its bytes — encoded
PNG/JPEG blobs, where snappy finds nothing — is written without a
codec; every other column, and any column the input stores
uncompressed (no evidence either way), keeps snappy. The rule reads the
input rather than naming ``bytes``: a BMP corpus's raster blobs shrink
~3x under snappy and keep it. Dictionary encoding is left on, so
exact-duplicate blobs still share one dictionary entry. The manifest
records ``apply_route`` (``tasks``, ``ray_data`` or ``hash_join``) and
``uncompressed_columns`` on both outputs; the Ray Data routes keep Ray
Data's writer, which compresses every column.
"""

from __future__ import annotations

import contextlib
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import ray
import ray.data as rd

from idf.ops import (
    PartWriter,
    _as_arrow_type,
    available_cpus,
    get_broadcast,
    hash_join,
    open_parquet,
    wait_all,
)
from idf.state.manifest import RunManifest

BROADCAST_MAX_IDS = 5_000_000
# hive partition column of the single write; pyarrow drops it from the
# written files, so both outputs carry exactly the input's columns
TAG = "__apply"
OUTPUTS = {"keep": "apply_keep", "quarantine": "apply_quarantine"}
# a column whose input codec saved less than this share of its bytes is
# written without one (see column_codecs)
CODEC_MIN_SAVING = 0.03


def quarantine_mask(image_ids, deleted: pa.Array) -> pa.Array:
    """The tag kernel: True for the rows whose id is a plan DELETE."""
    return pc.fill_null(pc.is_in(image_ids, value_set=deleted), False)


def deleted_ids(plan_dir: str, broadcast_max_ids: int = BROADCAST_MAX_IDS) -> pa.Array | None:
    """The plan's DELETE ids as one array, or None past
    ``broadcast_max_ids`` (the ids then stay distributed)."""
    deleted = pads.field("action") == "DELETE"
    plan = pads.dataset(plan_dir)
    if plan.count_rows(filter=deleted) > broadcast_max_ids:
        return None
    # the reference loads the whole plan CSV (Commands.java:292-299)
    return plan.to_table(columns=["image_id"], filter=deleted)["image_id"].combine_chunks()


def tag_images(images: rd.Dataset, plan_dir: str, ids: pa.Array | None) -> rd.Dataset:
    """-> ``images`` plus a ``TAG`` column: ``quarantine`` for the
    plan's DELETE rows, ``keep`` for every other row. ``ids`` are the
    DELETE ids to broadcast, or None to join against the plan."""
    if ids is not None:
        ref = ray.put(ids)

        def _tag(t: pa.Table) -> pa.Table:
            hit = quarantine_mask(t["image_id"], get_broadcast(ref))
            return t.append_column(TAG, pc.if_else(hit, "quarantine", "keep"))

        return images.map_batches(_tag, batch_format="pyarrow")

    deleted = pads.field("action") == "DELETE"
    marks = rd.read_parquet(plan_dir, columns=["image_id", "action"], filter=deleted).map_batches(
        lambda t: pa.table(
            {"image_id": t["image_id"], TAG: pa.array(["quarantine"] * len(t), pa.string())}
        ),
        batch_format="pyarrow",
    )
    schema = images.schema()
    # the join's per-bucket pandas merge widens types (int with nulls ->
    # float; a bucket with no DELETE row types the tag null); cast back
    # so both routes write the same schema
    out_schema = pa.schema(
        [(n, _as_arrow_type(t)) for n, t in zip(schema.names, schema.types)]
        + [(TAG, pa.string())]
    )

    def _fill(t: pa.Table) -> pa.Table:
        t = t.select(out_schema.names).cast(out_schema)
        return t.set_column(len(schema.names), TAG, pc.fill_null(t[TAG], "keep"))

    joined = hash_join(images, marks, on="image_id", how="left")
    return joined.map_batches(_fill, batch_format="pyarrow")


def column_codecs(units: list[tuple]) -> dict[str, str]:
    """The output codec of every column of the ``(ParquetFile, row
    groups)`` units one split task reads, from their footers: ``none``
    where the input's codec saved under ``CODEC_MIN_SAVING`` of the
    column's bytes (already entropy-coded blobs), else ``snappy``. A
    column stored uncompressed shows nothing about what a codec would
    save, so it keeps ``snappy``."""
    comp: dict[str, int] = {}
    raw: dict[str, int] = {}
    for pf, rgs in units:
        md = pf.metadata
        for i in rgs:
            rg = md.row_group(i)
            for j in range(rg.num_columns):
                c = rg.column(j)
                name = c.path_in_schema
                comp.setdefault(name, 0)
                raw.setdefault(name, 0)
                if c.compression != "UNCOMPRESSED":
                    comp[name] += c.total_compressed_size
                    raw[name] += c.total_uncompressed_size
    return {
        n: "none" if raw[n] and comp[n] >= (1 - CODEC_MIN_SAVING) * raw[n] else "snappy"
        for n in comp
    }


@ray.remote
def _split_unit(paths: list, row_groups: list, ids, kernel, out_dir: str, part: str):
    """Split one ``plan_read_tasks`` unit, one row group at a time, into
    ``<TAG>=keep/<part>`` and ``<TAG>=quarantine/<part>`` (a side with
    no rows writes no file), each column under its ``column_codecs``
    codec; -> (rows kept, rows quarantined, columns written
    uncompressed)."""

    def side(v: str) -> str:
        return os.path.join(out_dir, f"{TAG}={v}", part)

    with contextlib.ExitStack() as stack:
        units = []
        for path, rgs in zip(paths, row_groups):
            pf = stack.enter_context(open_parquet(path))
            units.append((pf, rgs or range(pf.num_row_groups)))
        codecs = column_codecs(units)
        keep = stack.enter_context(PartWriter(side("keep"), codecs))
        quar = stack.enter_context(PartWriter(side("quarantine"), codecs))
        for pf, rgs in units:
            for rg in rgs:
                t = pf.read_row_group(rg)
                hit = kernel(t["image_id"], ids)
                quar.write(t.filter(hit))
                keep.write(t.filter(pc.invert(hit)))
    return keep.rows, quar.rows, sorted(n for n, c in codecs.items() if c == "none")


def split_images(images_path: str, ids: pa.Array, metrics: dict):
    """Writer for ``run_split_stage``: one ``_split_unit`` task per
    read unit of the parquet corpus at ``images_path``, tagging against
    the broadcast ``ids``. Fills ``metrics["uncompressed_columns"]``
    with the columns some task wrote without a codec."""
    from idf.stages.hash_stage import plan_read_tasks

    tasks = plan_read_tasks(images_path, available_cpus())
    # resolved here, in the driver, and shipped with each task
    kernel = quarantine_mask

    def write(out_dir: str) -> None:
        ref = ray.put(ids)
        res = wait_all(
            [
                _split_unit.remote(
                    t["paths"], t["row_groups"], ref, kernel, out_dir, f"part-{i:05d}.parquet"
                )
                for i, t in enumerate(tasks)
            ]
        )
        metrics["uncompressed_columns"] = sorted({n for *_, cols in res for n in cols})

    return write


def apply_plan(
    man: RunManifest,
    images_path: str,
    replace: bool = False,
    broadcast_max_ids: int = BROADCAST_MAX_IDS,
) -> list[str]:
    """Split ``images_path`` by the run's committed plan into the
    ``apply_keep`` and ``apply_quarantine`` stages of ``man`` in one
    pass; -> their directories. ``replace`` recommits over committed
    outputs (the plan may have been edited since)."""
    from idf.stages.hash_stage import is_parquet_source, read_images

    # the build fills these with the route it took; run_split_stage
    # reads them at commit, so a resumed run records none
    metrics: dict = {}

    def _build():
        plan_dir = man.stage_dir("plan")
        ids = deleted_ids(plan_dir, broadcast_max_ids)
        if ids is not None and is_parquet_source(images_path):
            metrics.update(apply_route="tasks")
            return split_images(images_path, ids, metrics)
        # Ray Data's writer compresses every column
        metrics.update(
            apply_route="ray_data" if ids is not None else "hash_join", uncompressed_columns=[]
        )
        return tag_images(read_images(images_path), plan_dir, ids)

    return man.run_split_stage(TAG, OUTPUTS, _build, replace=replace, metrics=metrics)

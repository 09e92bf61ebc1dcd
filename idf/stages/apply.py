"""Apply stage — relational form of the reference's quarantine move.

Reference analog A7 (app/Commands.java:287-354): DELETE rows are moved
into a quarantine directory, keepers stay. Here (SURVEY §2.4 A7) one
pass over the images tags every row ``keep`` (not DELETE, or not in the
plan) or ``quarantine`` (plan DELETE), and one hive-partitioned parquet
write splits the corpus on that tag. The run manifest commits the two
partition directories together as ``apply_keep`` and
``apply_quarantine`` (``RunManifest.run_split_stage``), so the encoded
``bytes`` column is read and written exactly once. Filename-uniquing
(`safeMove` _N suffixes) is N/A — image_ids are unique keys.

Size-adaptive (like CC's ``cc_driver_max_edges`` guard): the DELETE
ids are counted from the committed plan files in the driver with
pyarrow (no Ray job).
When the set is small it is read the same way and broadcast once via
``ray.put`` (A6's keeper-map broadcast analog) and the images stream
unshuffled; past ``broadcast_max_ids`` the ids stay distributed and the
tag comes from one left ``hash_join`` (at 10^12 rows deletes are ~half
the corpus — no driver list can hold them).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import ray
import ray.data as rd

from idf.ops import _as_arrow_type, available_cpus, get_broadcast, hash_join
from idf.state.manifest import RunManifest

BROADCAST_MAX_IDS = 5_000_000
# hive partition column of the single write; pyarrow drops it from the
# written files, so both outputs carry exactly the input's columns
TAG = "__apply"
OUTPUTS = {"keep": "apply_keep", "quarantine": "apply_quarantine"}


def tag_images(
    images: rd.Dataset, plan_dir: str, broadcast_max_ids: int = BROADCAST_MAX_IDS
) -> rd.Dataset:
    """-> ``images`` plus a ``TAG`` column: ``quarantine`` for the
    plan's DELETE rows, ``keep`` for every other row."""
    deleted = pads.field("action") == "DELETE"
    plan = pads.dataset(plan_dir)
    if plan.count_rows(filter=deleted) <= broadcast_max_ids:
        # the reference loads the whole plan CSV (Commands.java:292-299)
        ids = plan.to_table(columns=["image_id"], filter=deleted)["image_id"]
        ref = ray.put(ids.combine_chunks())

        def _tag(t: pa.Table) -> pa.Table:
            hit = pc.is_in(t["image_id"], value_set=get_broadcast(ref))
            tag = pc.if_else(pc.fill_null(hit, False), "quarantine", "keep")
            return t.append_column(TAG, tag)

        return images.map_batches(_tag, batch_format="pyarrow")

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


def apply_plan(
    man: RunManifest,
    images_path: str,
    replace: bool = False,
    broadcast_max_ids: int = BROADCAST_MAX_IDS,
) -> list[str]:
    """Split ``images_path`` by the run's committed plan into the
    ``apply_keep`` and ``apply_quarantine`` stages of ``man`` in one
    write; -> their directories. ``replace`` recommits over committed
    outputs (the plan may have been edited since)."""
    from idf.stages.hash_stage import auto_num_blocks, read_images

    def _build() -> rd.Dataset:
        # bytes-targeted fan-out, as the hash stage reads: the default
        # read splits a small corpus into dozens of tiny blocks, and
        # each block becomes its own pair of output files
        n_blocks = auto_num_blocks(images_path, available_cpus())
        images = read_images(images_path, num_blocks=n_blocks)
        return tag_images(images, man.stage_dir("plan"), broadcast_max_ids)

    return man.run_split_stage(TAG, OUTPUTS, _build, replace=replace)

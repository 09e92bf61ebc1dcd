"""Keeper-election plan stage.

Reference analog A3/A4 (app/Commands.java:186-243): per cluster, sort
members by pixels desc -> size desc -> (mtime: absent from the schema,
documented adaptation per SURVEY §2.4 A3) -> id case-insensitive asc;
head = KEEP, rest = DELETE, with ``keeper(...)`` / ``dupe(...)`` reason
strings (Commands.java:223-233). Metadata comes from the hash-stage
output columns (pixels, size) instead of a per-file probe — decode
failures carry the reference's unreadable penalty pixels=-1, size=-1
(Commands.java:256-268).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from idf.ops import hash_join


def elect_keeper_bucket(g: pd.DataFrame) -> pd.DataFrame:
    """Vectorized keeper election over a WHOLE shuffle bucket of
    clusters: one sort + one cumcount ranks every cluster at once (the
    per-cluster comparator of Commands.java:212-221, without a python
    loop over clusters).

    When the source carries an ``mtime`` column it joins the comparator
    exactly where the reference puts it — pixels desc, size desc,
    **mtime asc (older wins, Commands.java:218)**, id — and the reason
    strings gain the reference's ``,mtime=`` field (Commands.java:226).
    Sources without mtime (the synthetic corpus) elect on the remaining
    keys, the documented schema adaptation (SURVEY §2.4 A3)."""
    has_mtime = "mtime" in g.columns
    if g.empty:
        return pd.DataFrame(
            {
                "cluster_id": pd.Series([], dtype=object),
                "action": pd.Series([], dtype=object),
                "image_id": pd.Series([], dtype=object),
                "reason": pd.Series([], dtype=object),
                "pixels": pd.Series([], dtype="int64"),
                "size": pd.Series([], dtype="int64"),
            }
        )
    sort_cols = ["cluster_id", "pixels", "size"] + (["mtime"] if has_mtime else [])
    ascending = [True, False, False] + ([True] if has_mtime else [])
    g = g.assign(__lower=g["image_id"].str.lower()).sort_values(
        sort_cols + ["__lower", "image_id"],
        ascending=ascending + [True, True],
        kind="mergesort",
    )
    rank = g.groupby("cluster_id", sort=False).cumcount()
    keep = rank.to_numpy() == 0
    tag = np.where(keep, "keeper", "dupe")
    reason = (
        pd.Series(tag, index=g.index)
        + "(pixels="
        + g["pixels"].astype(str)
        + ",size="
        + g["size"].astype(str)
        + (",mtime=" + g["mtime"].astype(str) if has_mtime else "")
        + ")"
    )
    return pd.DataFrame(
        {
            "cluster_id": g["cluster_id"].to_numpy(),
            "action": np.where(keep, "KEEP", "DELETE"),
            "image_id": g["image_id"].to_numpy(),
            "reason": reason.to_numpy(),
            "pixels": g["pixels"].to_numpy(),
            "size": g["size"].to_numpy(),
        }
    )


def plan_from_tables(cl: pa.Table, meta: pa.Table) -> pa.Table:
    """Arrow-native election over a local membership table: Acero left
    join + one C++ multi-key sort + vectorized string building. The
    pandas version of this path spent ~0.9s of its 1.2s in an
    object-string lexsort at sf0.1; this runs the same comparator
    entirely inside Arrow (~4x faster), bit-identical output."""
    import pyarrow.compute as pc

    j = cl.select(["cluster_id", "image_id"]).join(
        meta.select(["image_id", "pixels", "size"]),
        keys="image_id",
        join_type="left outer",
    )
    pixels = pc.fill_null(pc.cast(j["pixels"], pa.int64()), -1)
    size = pc.fill_null(pc.cast(j["size"], pa.int64()), -1)
    t = pa.table(
        {
            "cluster_id": j["cluster_id"],
            "image_id": j["image_id"],
            "pixels": pixels,
            "size": size,
            "__lower": pc.utf8_lower(j["image_id"]),
        }
    )
    order = pc.sort_indices(
        t,
        sort_keys=[
            ("cluster_id", "ascending"),
            ("pixels", "descending"),
            ("size", "descending"),
            ("__lower", "ascending"),
            ("image_id", "ascending"),
        ],
    )
    t = t.take(order)
    codes = (
        pc.dictionary_encode(t["cluster_id"].combine_chunks())
        .indices.to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    keep = np.zeros(len(t), dtype=bool)
    if len(t):
        keep[0] = True
        keep[1:] = codes[1:] != codes[:-1]
    keep_arr = pa.array(keep)
    tag = pc.if_else(keep_arr, "keeper", "dupe")
    reason = pc.binary_join_element_wise(
        tag,
        "(pixels=",
        pc.cast(t["pixels"], pa.string()),
        ",size=",
        pc.cast(t["size"], pa.string()),
        ")",
        "",
    )
    return pa.table(
        {
            "cluster_id": t["cluster_id"],
            "action": pc.if_else(keep_arr, "KEEP", "DELETE"),
            "image_id": t["image_id"],
            "reason": reason,
            "pixels": t["pixels"],
            "size": t["size"],
        }
    )


def plan_stage_files(
    clusters_dir: str, hashes_dir: str, driver_max_rows: int = 10_000_000
) -> pa.Table | None:
    """Driver fast path: when the cluster membership fits the driver
    (it is the near-dup MINORITY of the corpus), the whole election is
    one Arrow join + one C++ sort — no Ray jobs at all (the manifest
    writes the returned table with pyarrow directly). Returns None past
    the threshold (caller falls back to the distributed ``plan_stage``)."""
    import glob

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    cfiles = sorted(glob.glob(f"{clusters_dir}/*.parquet"))
    n_rows = sum(pq.ParquetFile(f).metadata.num_rows for f in cfiles)
    if not cfiles or n_rows > driver_max_rows:
        return None
    hfiles = sorted(glob.glob(f"{hashes_dir}/*.parquet"))
    cl = pads.dataset(cfiles).to_table()
    meta = pads.dataset(hfiles).to_table(columns=["image_id", "pixels", "size"])
    return plan_from_tables(cl, meta.replace_schema_metadata(None))


def plan_stage(
    clusters: rd.Dataset, meta: rd.Dataset, broadcast_max_rows: int = 5_000_000
) -> rd.Dataset:
    """clusters (cluster_id, image_id) x meta (image_id, pixels, size)
    -> plan rows; election is one vectorized pass per shuffle bucket.

    Size-adaptive join (like CC's cc_driver_max_edges guard): cluster
    members are the near-dup MINORITY of the corpus, so below
    ``broadcast_max_rows`` the (pixels, size) metadata they need is
    shipped once via ``ray.put`` and attached map-side — the whole stage then costs ONE
    shuffle (the election) instead of two. Past the threshold it falls
    back to the distributed hash_join."""
    from idf.ops import bucketed_apply

    meta = meta.select_columns(["image_id", "pixels", "size"])
    if meta.count() <= broadcast_max_rows:
        import ray

        from idf.ops import get_broadcast

        lookup: dict = {}
        for b in meta.iter_batches(batch_size=65536, batch_format="pyarrow"):
            lookup.update(
                zip(
                    b["image_id"].to_pylist(),
                    zip(b["pixels"].to_pylist(), b["size"].to_pylist()),
                )
            )
        ref = ray.put(lookup)

        def _attach(df: pd.DataFrame) -> pd.DataFrame:
            m = get_broadcast(ref)
            vals = [m.get(i, (-1, -1)) for i in df["image_id"]]
            df = df.copy()
            df["pixels"] = np.fromiter((v[0] for v in vals), dtype=np.int64, count=len(vals))
            df["size"] = np.fromiter((v[1] for v in vals), dtype=np.int64, count=len(vals))
            return df

        joined = clusters.map_batches(_attach, batch_format="pandas")
    else:
        joined = hash_join(clusters, meta, on="image_id")
    return bucketed_apply(joined, "cluster_id", elect_keeper_bucket)

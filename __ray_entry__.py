"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship near-dup pipeline on a deterministic
synthetic images table derived from sf0.001; ``queries()`` exposes one
callable per implemented operator/pipeline (SURVEY.md §2 + the
training-data extras); ``oracle_sql()`` gives DuckDB equivalents for
every SQL-expressible query with matching column names. Ray is
initialised by the caller — nothing here calls ray.init/shutdown.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

_STOPWORD_SQL = None  # filled lazily from idf.functions.text


# ---------------------------------------------------------------------------
# image pipeline plumbing (synthetic corpus per sf, cached + resumable)


def _img_run(sf_dir: str) -> str:
    """Generate (once) the synthetic images table for this sf and run the
    dedup pipeline (once, manifest-resumable). Returns the run dir."""
    from idf.config import DedupConfig
    from idf.pipelines.dedup import run_dedup
    from idf.synth import CACHE_TAG, ensure_images_cache, sf_from_dir

    images = ensure_images_cache(sf_dir)
    run_dir = f"/tmp/idf_cache/run_{CACHE_TAG}_sf{sf_from_dir(sf_dir)}"
    run_dedup(images, run_dir, DedupConfig(), resume=True)
    return run_dir


def _stage(sf_dir: str, name: str):
    from idf.pipelines.dedup import read_stage

    return read_stage(_img_run(sf_dir), name)


def _img_incr_run(sf_dir: str) -> str:
    """Incremental dedup twin of ``_img_run``: split the cached corpus
    deterministically into base (~7/8) and delta (~1/8) tables, run the
    full pipeline on the base, then run the INCREMENTAL pipeline
    (decode only the delta, union the base's committed hashes stage).
    The oracle for ``img_clusters_incr`` is the FULL-recompute SQL over
    ``_img_run``'s stages, so the driver hash-checks incremental ==
    full recompute end to end."""
    import numpy as np
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from idf.config import DedupConfig
    from idf.kernels.minhash import md5_low64
    from idf.pipelines.dedup import run_dedup
    from idf.synth import CACHE_TAG, ensure_images_cache, sf_from_dir

    _img_run(sf_dir)  # corpus + the full run the oracle compares against
    images = ensure_images_cache(sf_dir)
    root = f"/tmp/idf_cache/incr_{CACHE_TAG}_sf{sf_from_dir(sf_dir)}"
    base_t, delta_t = os.path.join(root, "base_images"), os.path.join(root, "delta_images")
    marker = os.path.join(root, ".split_done")
    if not os.path.exists(marker):
        os.makedirs(base_t, exist_ok=True)
        os.makedirs(delta_t, exist_ok=True)
        ds = pads.dataset(images)
        wb = wd = None
        try:
            # stream fragment-by-fragment: the corpus never materializes
            for frag in ds.get_fragments():
                t = frag.to_table()
                ids = t["image_id"].to_pylist()
                mask = np.array([md5_low64(s) % 8 == 0 for s in ids])
                if wb is None:
                    wb = pq.ParquetWriter(os.path.join(base_t, "part.parquet"), t.schema)
                    wd = pq.ParquetWriter(os.path.join(delta_t, "part.parquet"), t.schema)
                wb.write_table(t.filter(~mask))
                wd.write_table(t.filter(mask))
        finally:
            if wb is not None:
                wb.close()
            if wd is not None:
                wd.close()
        with open(marker, "w") as f:
            f.write("ok")
    base_run = os.path.join(root, "base_run")
    incr_run = os.path.join(root, "incr_run")
    run_dedup(base_t, base_run, DedupConfig(), resume=True, do_apply=False)
    run_dedup(
        delta_t,
        incr_run,
        DedupConfig(),
        resume=True,
        do_apply=False,
        base_hashes_dir=os.path.join(base_run, "hashes"),
    )
    return incr_run


def entry() -> Any:
    """Flagship: full dedup pipeline at sf0.001; returns the plan table."""
    return _stage("/root/testdata/sf0.001", "plan")


# ---------------------------------------------------------------------------


def _docs(sf_dir: str):
    import ray.data as rd

    return rd.read_parquet(os.path.join(sf_dir, "documents.parquet"))


def _emb(sf_dir: str):
    import ray.data as rd

    from idf.ops import strip_schema_metadata

    return strip_schema_metadata(
        rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    )


def queries() -> dict[str, Callable[[str], Any]]:
    import pyarrow.dataset as pads
    import ray.data as rd

    from idf.functions.ann import cosine_pairs, cosine_topk, ivf_pairs, ivf_topk
    from idf.functions.relational import leakfree_split
    from idf.functions.text import (
        fingerprint_md5,
        hash_split,
        contamination as _contamination,
        curation_funnel as _curation_funnel,
        packing_stats as _packing_stats,
        langid_confusion as _langid_confusion,
        lang_id,
        quality_components,
        repetition_stats,
        tfidf_topk,
        token_count,
        token_count_bpe,
        top_bigrams,
        winnow_fingerprints,
    )
    from idf.functions.text_dedup import (
        dedup_docs_map,
        exact_dedup_docs,
        minhash_lsh_pairs,
        ngram_jaccard_pairs,
        simhash_docs,
        simhash_pairs,
        substring_dup_positions,
        substring_dup_spans,
    )
    from idf.ops import count_by, elect_top1, filter_min_group_size, hash_join

    # -- image dedup pipeline. img_clusters/img_plan/img_apply have
    #    DuckDB oracles over engine-written stage parquet (see
    #    img_oracle_sql); img_hashes stays rows-only (DCT pHash is not
    #    SQL-expressible) and is gated by the pytest kernel oracle.
    def img_hashes(sf):
        return _stage(sf, "hashes")

    def img_clusters(sf):
        return _stage(sf, "clusters")

    def img_hamming_topk(sf):
        """Binary-code ANN: exact Hamming top-k over the hashes stage
        for an md5-sampled query set — broadcast queries, per-batch
        popcount partials, bounded driver merge."""
        from idf.functions.ann import hamming_topk

        hashes = _stage(sf, "hashes").filter(expr="status == 'ok'")
        return hamming_topk(hashes, k=5, query_mod=1499)

    def img_clusters_incr(sf):
        """Incremental dedup: base run + delta-only decode; the oracle
        is the FULL-recompute SQL, so the gate hash-checks that the
        incremental path reproduces the full run's clusters exactly."""
        from idf.pipelines.dedup import read_stage

        return read_stage(_img_incr_run(sf), "clusters")

    def img_plan(sf):
        return _stage(sf, "plan")

    def img_cluster_sizes(sf):
        from idf.stages.cc import cluster_size_histogram

        return cluster_size_histogram(_stage(sf, "clusters"))

    def img_pair_dist(sf):
        from idf.stages.candidates import pair_distance_histogram

        import glob

        run = _img_run(sf)
        files = sorted(glob.glob(os.path.join(run, "edges_band", "*.parquet")))
        ed = rd.read_parquet(files, columns=["phash_a", "phash_b"])
        return pair_distance_histogram(ed)

    def img_apply(sf):
        import pyarrow as pa

        keep = _stage(sf, "apply_keep").select_columns(["image_id"]).map_batches(
            lambda t: t.append_column("action", pa.array(["KEEP"] * len(t))),
            batch_format="pyarrow",
        )
        quar = _stage(sf, "apply_quarantine").select_columns(["image_id"]).map_batches(
            lambda t: t.append_column("action", pa.array(["DELETE"] * len(t))),
            batch_format="pyarrow",
        )
        return keep.union(quar)

    def img_thumbs(sf):
        """Multimodal resize stage. r5 (r4 verdict #8): the GEOMETRY
        projection (image_id, w, h, status) is SQL-derivable — the synth
        table's w/h are real decoded dims (synth._row), and the resize
        arithmetic (scale=32/max, banker's rounding, max(1,..) floor) is
        exactly round_even in DuckDB — so this query is hash-checked.
        The PNG bytes themselves stay pytest-gated (decode round-trip in
        test_media): SQL cannot encode."""
        import hashlib

        import pyarrow as pa

        from idf.functions.media import image_thumbnails
        from idf.synth import ensure_images_cache

        # md5-selected ~1/8 page of the corpus (same deterministic
        # device as img_fetch) — the op itself streams at any scale;
        # the subset keeps the per-round gate wall bounded
        def _page(t: pa.Table) -> pa.Table:
            keep = [
                hashlib.md5(i.encode()).hexdigest()[31] in ("0", "1")
                for i in t["image_id"].to_pylist()
            ]
            return t.filter(pa.array(keep))

        images = rd.read_parquet(ensure_images_cache(sf)).map_batches(
            _page, batch_format="pyarrow"
        )
        thumbs = image_thumbnails(images, max_side=32)
        return thumbs.select_columns(["image_id", "w", "h", "status"])

    def __media_audio():
        import pyarrow as pa

        from idf.functions.media import audio_features, synth_audio_table

        # REAL RIFF/PCM decode (idf/codecs/wav.py); scalar features are
        # codec-verified in tests/test_media.py (rows-only here: SQL
        # cannot parse WAV bytes)
        out = audio_features(rd.from_arrow(synth_audio_table(64)))
        return out.map_batches(
            lambda t: pa.table(
                {
                    "media_id": t["media_id"],
                    "n_features": pa.array(
                        [len(v) for v in t["features"].to_pylist()], pa.int64()
                    ),
                    "n_samples": t["n_samples"],
                    "rms": t["rms"],
                }
            ),
            batch_format="pyarrow",
        )

    def __media_video():
        from idf.functions.media import synth_video_table, video_frames

        # REAL YUV4MPEG2 random-access frame decode (idf/codecs/y4m.py)
        return video_frames(rd.from_arrow(synth_video_table(32)), every_n=30).select_columns(
            ["media_id", "frame_idx", "w", "h", "mean_luma"]
        )

    # -- relational parity ops on the driver tables (SQL-checkable)
    def orders_top1_per_cust(sf):
        orders = rd.read_parquet(
            os.path.join(sf, "orders.parquet"),
            columns=["o_custkey", "o_orderkey", "o_totalprice", "o_orderdate"],
        )
        ranked = elect_top1(
            orders,
            "o_custkey",
            ["o_totalprice", "o_orderdate", "o_orderkey"],
            [False, True, True],
        )
        return ranked.filter(expr="__rank == 0").select_columns(
            ["o_custkey", "o_orderkey", "o_totalprice"]
        )

    def orders_min_group_size(sf):
        orders = rd.read_parquet(
            os.path.join(sf, "orders.parquet"), columns=["o_custkey", "o_orderkey"]
        )
        return filter_min_group_size(orders, "o_custkey", 8)

    def cust_orders_by_nation(sf):
        cust = rd.read_parquet(
            os.path.join(sf, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
        )
        orders = rd.read_parquet(os.path.join(sf, "orders.parquet"), columns=["o_custkey"])
        # customer is the SMALL side (150k rows/sf): broadcast the
        # custkey->nationkey map once instead of an all-to-all hash_join
        # (r2 verdict #6). count() here is parquet-metadata-only; past
        # the guard (cluster-scale customer) fall back to the co-group.
        if cust.count() <= 2_000_000:
            from idf.ops import broadcast_lookup

            m = dict(
                zip(*(cust.to_pandas()[c] for c in ("c_custkey", "c_nationkey")))
            )
            looked = broadcast_lookup(orders, "o_custkey", m, "c_nationkey")
            inner = looked.map_batches(
                lambda df: df[df["c_nationkey"].notna()].astype({"c_nationkey": "int64"}),
                batch_format="pandas",
            )
            return count_by(inner, "c_nationkey", alias="n_orders")
        joined = hash_join(
            orders.map_batches(
                lambda t: t.rename_columns(["c_custkey"]), batch_format="pyarrow"
            ),
            cust,
            on="c_custkey",
        )
        return count_by(joined, "c_nationkey", alias="n_orders")

    def supplier_top_per_nation(sf):
        sup = rd.read_parquet(
            os.path.join(sf, "supplier.parquet"),
            columns=["s_suppkey", "s_nationkey", "s_acctbal"],
        )
        ranked = elect_top1(
            sup, "s_nationkey", ["s_acctbal", "s_suppkey"], [False, True]
        )
        return ranked.filter(expr="__rank == 0").select_columns(
            ["s_nationkey", "s_suppkey", "s_acctbal"]
        )

    def events_by_type(sf):
        ev = rd.read_parquet(os.path.join(sf, "events.parquet"), columns=["event_type"])
        return count_by(ev, "event_type", alias="n")

    # -- temporal / relational training-data ops (r2): tumbling windows,
    #    sessionization, as-of enrichment, range join, Q1-style combiner
    def events_window_agg(sf):
        from idf.functions.relational import window_agg

        ev = rd.read_parquet(
            os.path.join(sf, "events.parquet"), columns=["event_type", "ts", "value"]
        )
        return window_agg(ev, every="1h")

    def events_sessions(sf):
        from idf.functions.relational import sessionize

        ev = rd.read_parquet(
            os.path.join(sf, "events.parquet"), columns=["user_id", "ts", "event_id"]
        )
        return sessionize(ev, gap="30min")

    def events_sessions_salted(sf):
        # the hot-user two-phase path (shuffle on (user, 1d-period),
        # merge fragment summaries) against the SAME SQL oracle as
        # events_sessions: salting is an implementation detail and the
        # output must be hash-identical
        from idf.functions.relational import sessionize

        ev = rd.read_parquet(
            os.path.join(sf, "events.parquet"), columns=["user_id", "ts", "event_id"]
        )
        return sessionize(ev, gap="30min", salt="1d")

    def events_funnel(sf):
        from idf.functions.relational import funnel

        ev = rd.read_parquet(
            os.path.join(sf, "events.parquet"),
            columns=["user_id", "ts", "event_type"],
        )
        return funnel(ev, stages=("view", "click", "purchase"))

    def events_transitions(sf):
        from idf.functions.relational import transitions

        ev = rd.read_parquet(
            os.path.join(sf, "events.parquet"),
            columns=["user_id", "ts", "event_id", "event_type"],
        )
        return transitions(ev)

    def events_top_paths(sf):
        from idf.functions.relational import top_paths

        ev = rd.read_parquet(
            os.path.join(sf, "events.parquet"),
            columns=["user_id", "ts", "event_id", "event_type"],
        )
        return top_paths(ev, k=20)

    def events_retention(sf):
        from idf.functions.relational import retention

        ev = rd.read_parquet(
            os.path.join(sf, "events.parquet"), columns=["user_id", "ts"]
        )
        return retention(ev, horizon_days=14)

    def events_asof_orders(sf):
        from idf.functions.relational import events_asof_orders as _asof

        ev = rd.read_parquet(
            os.path.join(sf, "events.parquet"), columns=["event_id", "user_id", "ts"]
        )
        od = rd.read_parquet(
            os.path.join(sf, "orders.parquet"),
            columns=["o_orderkey", "o_custkey", "o_orderdate"],
        )
        return _asof(ev, od)

    def events_sample_per_user(sf):
        from idf.functions.relational import sample_per_key

        ev = rd.read_parquet(
            os.path.join(sf, "events.parquet"), columns=["user_id", "event_id"]
        )
        return sample_per_key(ev, key_col="user_id", order_col="event_id", k=3)

    def nation_revenue(sf):
        from idf.functions.relational import nation_revenue_by_year

        cust = rd.read_parquet(
            os.path.join(sf, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
        )
        od = rd.read_parquet(
            os.path.join(sf, "orders.parquet"),
            columns=["o_orderkey", "o_custkey", "o_orderdate"],
        )
        li = rd.read_parquet(
            os.path.join(sf, "lineitem.parquet"),
            columns=["l_orderkey", "l_extendedprice", "l_discount"],
        )
        na = rd.read_parquet(os.path.join(sf, "nation.parquet"))
        return nation_revenue_by_year(cust, od, li, na)

    def region_revenue(sf):
        from idf.functions.relational import region_revenue_by_year

        cust = rd.read_parquet(
            os.path.join(sf, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
        )
        od = rd.read_parquet(
            os.path.join(sf, "orders.parquet"),
            columns=["o_orderkey", "o_custkey", "o_orderdate"],
        )
        li = rd.read_parquet(
            os.path.join(sf, "lineitem.parquet"),
            columns=["l_orderkey", "l_extendedprice", "l_discount"],
        )
        na = rd.read_parquet(os.path.join(sf, "nation.parquet"))
        re = rd.read_parquet(os.path.join(sf, "region.parquet"))
        return region_revenue_by_year(cust, od, li, na, re)

    def part_revenue(sf):
        from idf.functions.relational import part_type_revenue

        li = rd.read_parquet(
            os.path.join(sf, "lineitem.parquet"),
            columns=["l_partkey", "l_extendedprice", "l_discount"],
        )
        pt = rd.read_parquet(
            os.path.join(sf, "part.parquet"), columns=["p_partkey", "p_type"]
        )
        return part_type_revenue(li, pt)

    def cust_no_orders(sf):
        from idf.functions.relational import customers_without_orders

        cust = rd.read_parquet(os.path.join(sf, "customer.parquet"))
        od = rd.read_parquet(
            os.path.join(sf, "orders.parquet"),
            columns=["o_custkey", "o_totalprice"],
        )
        return customers_without_orders(cust, od, min_totalprice=300000.0)

    def cust_bloom_members(sf):
        """Bloom-filter semi-join: customers whose key hits the filter
        built over high-value orders' custkeys — true members plus the
        md5 family's DETERMINISTIC false positives, which is what makes
        the whole filter (not just the exact join) oracle-checkable."""
        from idf.functions.membership import bloom_semi_join_keys

        od = rd.read_parquet(
            os.path.join(sf, "orders.parquet"),
            columns=["o_custkey", "o_totalprice"],
        ).filter(expr="o_totalprice > 150000")
        cu = rd.read_parquet(
            os.path.join(sf, "customer.parquet"), columns=["c_custkey"]
        )
        return bloom_semi_join_keys(
            od, "o_custkey", cu, "c_custkey", m=1 << 17, k=4, mode="md5"
        )

    def events_hll_users(sf):
        """HyperLogLog distinct-user sketch: the driver checks the exact
        integer REGISTER table; the float estimate is pytest-gated."""
        from idf.functions.sketch import hll_registers

        ev = rd.read_parquet(os.path.join(sf, "events.parquet"), columns=["user_id"])
        return hll_registers(ev, "user_id", p=8)

    def orders_rfm(sf):
        from idf.functions.relational import rfm

        od = rd.read_parquet(
            os.path.join(sf, "orders.parquet"),
            columns=["o_custkey", "o_orderdate", "o_totalprice"],
        )
        return rfm(od)

    def lineitem_price_quantiles(sf):
        from idf.functions.relational import grouped_quantiles

        li = rd.read_parquet(
            os.path.join(sf, "lineitem.parquet"),
            columns=["l_returnflag", "l_extendedprice"],
        )
        return grouped_quantiles(li)

    def events_json_k(sf):
        from idf.functions.relational import json_field

        ev = rd.read_parquet(
            os.path.join(sf, "events.parquet"), columns=["event_id", "props"]
        )
        return json_field(ev, col="props", field="k", out_col="k")

    def orders_price_band(sf):
        from idf.ops import range_lookup

        od = rd.read_parquet(
            os.path.join(sf, "orders.parquet"), columns=["o_orderkey", "o_totalprice"]
        )
        banded = range_lookup(
            od,
            "o_totalprice",
            edges=[0.0, 50_000.0, 150_000.0, 300_000.0, 1e18],
            labels=["small", "medium", "large", "huge"],
        )
        return banded.select_columns(["o_orderkey", "band"])

    def lineitem_pricing_summary(sf):
        from idf.functions.relational import pricing_summary

        # explicit column prune at the READ (r2 verdict #9) — only the
        # seven summary inputs leave storage
        li = rd.read_parquet(
            os.path.join(sf, "lineitem.parquet"),
            columns=[
                "l_returnflag",
                "l_linestatus",
                "l_quantity",
                "l_extendedprice",
                "l_discount",
                "l_tax",
                "l_shipdate",
            ],
        )
        return pricing_summary(li)

    # -- web-surface ops (S9/S10, app/WebServer.java) over engine output.
    #    Both derive their small side DETERMINISTICALLY from md5 of the
    #    image_id so the DuckDB oracle replicates it without a side file.
    def img_plan_rewrite(sf):
        from idf.stages.web import rewrite_plan

        plan = _stage(sf, "plan")

        def _updates(t):
            # derive AND filter the overrides inside the batch (r2
            # verdict #5: no driver-side pandas over the whole plan);
            # only ids hitting the md5 rule get overrides, the rest keep
            # their plan action (tests the passthrough path too)
            import hashlib

            import pyarrow as pa

            ids, acts = [], []
            for i in t["image_id"].to_pylist():
                c = hashlib.md5(i.encode()).hexdigest()[-1]
                if c not in "01234567":
                    continue
                # mix of valid/messy/bogus actions exercises savePlan's
                # normalization (WebServer.java:340-344)
                ids.append(i)
                acts.append(
                    "Delete" if c in "0123" else (" keep " if c in "45" else "bogus")
                )
            return pa.table(
                {"image_id": pa.array(ids, pa.string()), "action": pa.array(acts, pa.string())}
            )

        updates = plan.select_columns(["image_id"]).map_batches(
            _updates, batch_format="pyarrow"
        )
        return rewrite_plan(plan, updates)

    def img_caption_exact(sf):
        """Exact-duplicate caption groups over the image+caption table
        (the north-rule input shape), column-pruned to (image_id,
        caption) — the bytes column never leaves storage. Reuses the
        doc exact-dedup machinery: md5-keyed bucketed group-min."""
        from idf.ops import bucketed_apply
        from idf.synth import CACHE_TAG, sf_from_dir

        import pandas as pd

        imgs = rd.read_parquet(
            f"/tmp/idf_cache/images_{CACHE_TAG}_sf{sf_from_dir(sf)}",
            columns=["image_id", "caption"],
        )

        def fp(df: pd.DataFrame) -> pd.DataFrame:
            import hashlib

            return pd.DataFrame(
                {
                    "image_id": df["image_id"],
                    "cap_fp": df["caption"]
                    .fillna("")
                    .map(lambda s: hashlib.md5(s.encode()).hexdigest()),
                }
            )

        def grp(g: pd.DataFrame) -> pd.DataFrame:
            sizes = g.groupby("cap_fp")["image_id"].transform("size")
            canon = g.groupby("cap_fp")["image_id"].transform("min")
            out = g.assign(caption_group=canon)[sizes >= 2]
            return out[["caption_group", "image_id"]]

        return bucketed_apply(imgs.map_batches(fp, batch_format="pandas"), "cap_fp", grp)

    def img_fetch(sf):
        from idf.stages.web import fetch_images_digest
        from idf.synth import CACHE_TAG, sf_from_dir

        images = rd.read_parquet(
            f"/tmp/idf_cache/images_{CACHE_TAG}_sf{sf_from_dir(sf)}",
            columns=["image_id", "bytes", "fmt"],
        )

        def _rule(t):
            # the md5-rule id selection runs INSIDE the batch (r2
            # verdict #5: no driver iter_rows scan of the corpus)
            import hashlib

            import pyarrow as pa

            keep = [
                hashlib.md5(i.encode()).hexdigest()[-1] == "0"
                for i in t["image_id"].to_pylist()
            ]
            return t.filter(pa.array(keep))

        page = images.map_batches(_rule, batch_format="pyarrow")
        return fetch_images_digest(page)

    # -- text analysis / dedup over documents
    q = {
        "img_hashes": img_hashes,
        "img_clusters": img_clusters,
        "img_clusters_incr": img_clusters_incr,
        "img_hamming_topk": img_hamming_topk,
        "img_cluster_sizes": img_cluster_sizes,
        "img_pair_dist": img_pair_dist,
        "img_plan": img_plan,
        "img_apply": img_apply,
        "img_plan_rewrite": img_plan_rewrite,
        "img_caption_exact": img_caption_exact,
        "img_fetch": img_fetch,
        "img_thumbs": img_thumbs,
        # multimodal (rows-only: SQL cannot parse WAV/y4m bytes): REAL
        # RIFF/PCM and YUV4MPEG2 decodes over deterministic synthetic
        # media tables; features are codec-verified in tests/test_media.py
        "media_audio_features": lambda sf: __media_audio(),
        "media_video_frames": lambda sf: __media_video(),
        "orders_top1_per_cust": orders_top1_per_cust,
        "orders_min_group_size": orders_min_group_size,
        "cust_orders_by_nation": cust_orders_by_nation,
        "supplier_top_per_nation": supplier_top_per_nation,
        "events_by_type": events_by_type,
        "events_window_agg": events_window_agg,
        "events_sessions": events_sessions,
        "events_sessions_salted": events_sessions_salted,
        "events_funnel": events_funnel,
        "events_retention": events_retention,
        "events_transitions": events_transitions,
        "events_top_paths": events_top_paths,
        "events_asof_orders": events_asof_orders,
        "events_json_k": events_json_k,
        "orders_price_band": orders_price_band,
        "lineitem_pricing_summary": lineitem_pricing_summary,
        "events_sample_per_user": events_sample_per_user,
        "nation_revenue": nation_revenue,
        "region_revenue": region_revenue,
        "part_revenue": part_revenue,
        "cust_no_orders": cust_no_orders,
        "cust_bloom_members": cust_bloom_members,
        "events_hll_users": events_hll_users,
        "orders_rfm": orders_rfm,
        "lineitem_price_quantiles": lineitem_price_quantiles,
        "doc_repetition": lambda sf: repetition_stats(_docs(sf)),
        "doc_hash_split": lambda sf: hash_split(_docs(sf)),
        "doc_leakfree_split": lambda sf: leakfree_split(_docs(sf)),
        "doc_top_bigrams": lambda sf: top_bigrams(_docs(sf), k=20),
        "doc_tfidf_topk": lambda sf: tfidf_topk(_docs(sf), k=5),
        "doc_contamination": lambda sf: _contamination(_docs(sf)),
        "doc_curation_funnel": lambda sf: _curation_funnel(_docs(sf)),
        "doc_packing_stats": lambda sf: _packing_stats(_docs(sf)),
        "doc_langid_confusion": lambda sf: _langid_confusion(_docs(sf)),
        "doc_token_count": lambda sf: token_count(_docs(sf)),
        "doc_token_count_bpe": lambda sf: token_count_bpe(_docs(sf)),
        "doc_quality": lambda sf: quality_components(_docs(sf)),
        "doc_exact_dedup": lambda sf: exact_dedup_docs(_docs(sf)),
        "doc_fingerprint": lambda sf: fingerprint_md5(_docs(sf)),
        # ngram pairs: output is hash-family-INVARIANT (exact Jaccard
        # over shingle sets), so it runs the vectorized "fast" family
        # and still hash-matches the md5-based SQL oracle
        "doc_ngram_pairs": lambda sf: ngram_jaccard_pairs(_docs(sf), tau=0.6),
        # minhash/simhash queries pin hash_mode="md5": their oracle SQL
        # replicates the md5 signature chain value-for-value; the
        # vectorized "fast" family is the library default (r2 verdict
        # #3) and is parity-tested against md5 in pytest
        "doc_dedup_map": lambda sf: dedup_docs_map(_docs(sf), tau=0.8, hash_mode="md5"),
        "doc_minhash_pairs": lambda sf: minhash_lsh_pairs(
            _docs(sf), tau=0.8, hash_mode="md5"
        ).select_columns(["doc_id_a", "doc_id_b"]),
        "doc_simhash": lambda sf: simhash_docs(_docs(sf), hash_mode="md5"),
        "doc_simhash_pairs": lambda sf: simhash_pairs(
            _docs(sf), radius=8, hash_mode="md5"
        ).select_columns(["doc_id_a", "doc_id_b"]),
        "doc_lang_id": lambda sf: lang_id(_docs(sf)),
        "doc_winnow_fp": lambda sf: winnow_fingerprints(_docs(sf)),
        "doc_substring_dups": lambda sf: substring_dup_positions(_docs(sf), min_len=30),
        "doc_substring_spans": lambda sf: substring_dup_spans(_docs(sf), min_len=30),
        "emb_cosine_topk": lambda sf: cosine_topk(_emb(sf), list(range(8)), k=5).select_columns(
            ["vec_id", "neighbor_id", "rank"]
        ),
        # tau sized to the synthetic embedding sim distribution (max ~0.5)
        # so the operator emits real pairs at every sf
        "emb_cosine_pairs": lambda sf: cosine_pairs(_emb(sf), tau=0.4).select_columns(
            ["vec_id_a", "vec_id_b"]
        ),
        "emb_ann_ivf": lambda sf: ivf_topk(_emb(sf), list(range(8)), k=5).select_columns(
            ["vec_id", "neighbor_id", "rank"]
        ),
        # sign-LSH bucketed pairs: probabilistic recall but a fully
        # DETERMINISTIC approximation, so the DuckDB oracle replicates
        # the bucket math exactly (hyperplane literals) and the gate
        # hash-checks it
        "emb_lsh_pairs": lambda sf: __import__("idf.functions.ann", fromlist=["lsh_pairs"])
        .lsh_pairs(_emb(sf), tau=0.4, n_bits=8, n_tables=4)
        .select_columns(["vec_id_a", "vec_id_b"]),
        # sub-quadratic approximate near-dup pairs; hash-checked since
        # r4 — the oracle retrains the (deterministic) coarse quantizer
        # locally and embeds the centroids as SQL literals
        "emb_ivf_pairs": lambda sf: ivf_pairs(_emb(sf), tau=0.4).select_columns(
            ["vec_id_a", "vec_id_b"]
        ),
        # semantic dedup end-to-end: sign-LSH pairs -> CC -> canonical
        # map over every vector (the embedding twin of doc_dedup_map);
        # hash-checked — the oracle replicates bucket math AND the
        # recursive closure
        "emb_dedup_map": lambda sf: __import__(
            "idf.functions.ann", fromlist=["dedup_embeddings_map"]
        ).dedup_embeddings_map(_emb(sf), tau=0.4, n_bits=8, n_tables=4),
    }
    return q


def img_oracle_sql(sf: str) -> dict[str, str]:
    """DuckDB oracles for the image stages (r1 verdict fix #3).

    The driver compares Ray vs SQL at sf=0.01. The image pipeline's
    inputs are the deterministic synthetic corpus (not a driver view),
    so these re-derive each stage INDEPENDENTLY in SQL (recursive-CTE
    connected components, window-function election, anti-join apply)
    from the engine-written parquet of the UPSTREAM stages — the same
    engine-vs-oracle layering the pytest suite uses. ``queries()`` runs
    first and populates the run dir via ``_img_run``."""
    from idf.synth import CACHE_TAG

    run = f"/tmp/idf_cache/run_{CACHE_TAG}_sf{sf}"
    imgs = f"/tmp/idf_cache/images_{CACHE_TAG}_sf{sf}"
    band_files = f"'{run}/edges_band/*.parquet'"
    # The engine's edge stages emit INT phash pairs (id <-> phash is 1:1
    # after the exact collapse); clustering = CC over the hash graph,
    # then every ok image joins its phash's component. A phash outside
    # the graph keys its own group (unedged exact duplicates); groups
    # of >= 2 images become clusters, cluster_id = min member image_id.
    edges_cte = f"""e AS (
              SELECT phash_a, phash_b FROM read_parquet([{band_files}])
            )"""
    clusters_sql = f"""
            WITH RECURSIVE {edges_cte},
            und AS (
              SELECT phash_a AS src, phash_b AS dst FROM e
              UNION
              SELECT phash_b, phash_a FROM e
            ),
            reach(src, dst) AS (
              SELECT DISTINCT src, src AS dst FROM und
              UNION
              SELECT r.src, u.dst FROM reach r JOIN und u ON u.src = r.dst
            ),
            comp AS (SELECT src AS phash, min(dst) AS comp_id FROM reach GROUP BY src),
            memb AS (
              SELECT h.image_id, coalesce(c.comp_id, h.phash) AS key
              FROM read_parquet('{run}/hashes/*.parquet') h
              LEFT JOIN comp c ON c.phash = h.phash
              WHERE h.status = 'ok'
            )
            SELECT min(image_id) OVER (PARTITION BY key) AS cluster_id, image_id
            FROM memb
            QUALIFY count(*) OVER (PARTITION BY key) >= 2
        """
    return {
        "img_clusters": clusters_sql,
        # the incremental run must reproduce the FULL run's clusters:
        # same SQL, derived from the full-recompute stage parquet, so a
        # hash match proves incremental == full end to end
        "img_clusters_incr": clusters_sql,
        # binary-code ANN: md5-sampled queries, exact Hamming ranks;
        # bit_count(xor()) on BIGINT = popcount of the 64-bit pattern
        "img_hamming_topk": f"""
            WITH q AS (
              SELECT image_id AS query_id, phash AS qh
              FROM read_parquet('{run}/hashes/*.parquet')
              WHERE status = 'ok' AND md5_number_lower(image_id) % 1499 = 0
            ),
            c AS (
              SELECT q.query_id, h.image_id,
                     bit_count(xor(q.qh, h.phash))::BIGINT AS dist
              FROM q JOIN read_parquet('{run}/hashes/*.parquet') h
                ON h.status = 'ok' AND h.image_id <> q.query_id
            ),
            r AS (
              SELECT *, row_number() OVER (
                PARTITION BY query_id ORDER BY dist, image_id
              ) AS rank FROM c
            )
            SELECT query_id, image_id, dist, rank FROM r WHERE rank <= 5
        """,
        # DuckDB bit_count on BIGINT counts two's-complement bits =
        # popcount64 on the int64 view; pairs deduped after (lo,hi)
        # normalization on both sides
        "img_pair_dist": f"""
            WITH {edges_cte},
            p AS (
              SELECT DISTINCT least(phash_a, phash_b) AS a,
                              greatest(phash_a, phash_b) AS b
              FROM e
            )
            SELECT bit_count(xor(a, b))::BIGINT AS hamming_dist,
                   count(*) AS n_pairs
            FROM p GROUP BY 1
        """,
        "img_cluster_sizes": f"""
            SELECT cnt AS cluster_size, count(*) AS n_clusters
            FROM (SELECT cluster_id, count(*) AS cnt
                  FROM read_parquet('{run}/clusters/*.parquet')
                  GROUP BY cluster_id)
            GROUP BY cnt
        """,
        "img_plan": f"""
            WITH j AS (
              SELECT c.cluster_id, c.image_id, m.pixels, m."size" AS size
              FROM read_parquet('{run}/clusters/*.parquet') c
              JOIN read_parquet('{run}/hashes/*.parquet') m USING (image_id)
            ),
            r AS (
              SELECT *, row_number() OVER (
                PARTITION BY cluster_id
                ORDER BY pixels DESC, size DESC, lower(image_id) ASC, image_id ASC
              ) AS rn FROM j
            )
            SELECT cluster_id,
                   CASE WHEN rn = 1 THEN 'KEEP' ELSE 'DELETE' END AS action,
                   image_id,
                   (CASE WHEN rn = 1 THEN 'keeper' ELSE 'dupe' END)
                     || '(pixels=' || pixels || ',size=' || size || ')' AS reason,
                   pixels, size
            FROM r
        """,
        "img_apply": f"""
            SELECT i.image_id,
                   CASE WHEN d.image_id IS NULL THEN 'KEEP' ELSE 'DELETE' END AS action
            FROM read_parquet('{imgs}/*.parquet') i
            LEFT JOIN (
              SELECT image_id FROM read_parquet('{run}/plan/*.parquet')
              WHERE action = 'DELETE'
            ) d USING (image_id)
        """,
        # S9: md5-derived overrides, normalized like savePlan
        # (WebServer.java:340-344: trim+lower; non keep/delete -> keep)
        "img_plan_rewrite": f"""
            SELECT cluster_id,
                   CASE WHEN substr(md5(image_id), 32, 1) IN ('0','1','2','3') THEN 'DELETE'
                        WHEN substr(md5(image_id), 32, 1) IN ('4','5','6','7') THEN 'KEEP'
                        ELSE action END AS action,
                   image_id, reason, pixels, size
            FROM read_parquet('{run}/plan/*.parquet')
        """,
        # caption exact-dup groups over the pruned (image_id, caption)
        # projection; canonical id = lexicographic min member
        "img_caption_exact": f"""
            SELECT min(image_id) OVER (PARTITION BY md5(coalesce(caption, ''))) 
                     AS caption_group,
                   image_id
            FROM read_parquet('{imgs}/*.parquet')
            QUALIFY count(*) OVER (PARTITION BY md5(coalesce(caption, ''))) >= 2
        """,
        # S10: byte fetch for an md5-selected id page; md5(hex(bytes))
        # == python md5(data.hex().upper()) pins the exact payload
        "img_fetch": f"""
            SELECT image_id,
                   CASE lower(trim(fmt))
                        WHEN 'png' THEN 'image/png' WHEN 'jpg' THEN 'image/jpeg'
                        WHEN 'jpeg' THEN 'image/jpeg' WHEN 'gif' THEN 'image/gif'
                        WHEN 'bmp' THEN 'image/bmp' WHEN 'webp' THEN 'image/webp'
                        ELSE 'application/octet-stream' END AS media_type,
                   octet_length(bytes)::BIGINT AS n_bytes,
                   md5(hex(bytes)) AS content_md5
            FROM read_parquet('{imgs}/*.parquet')
            WHERE substr(md5(image_id), 32, 1) = '0'
        """,
        # thumbnail GEOMETRY (r4 verdict #8): the synth table's w/h are
        # the REAL decoded dims (synth._row computes them by decoding,
        # -1 on undecodable rows), so decode success and the max_side-32
        # bilinear resize arithmetic are both SQL-derivable. round_even
        # replicates Python round()'s banker's rounding bit-for-bit on
        # the same float64 expression h*(32.0/max(w,h)).
        "img_thumbs": f"""
            WITH page AS (
              SELECT image_id, w, h, (w > 0 AND h > 0) AS ok
              FROM read_parquet('{imgs}/*.parquet')
              WHERE substr(md5(image_id), 32, 1) IN ('0', '1')
            )
            SELECT image_id,
                   CASE WHEN NOT ok THEN 0
                        WHEN greatest(w, h) <= 32 THEN w
                        ELSE greatest(1, round_even(
                          CAST(w AS DOUBLE) * (32.0 / CAST(greatest(w, h) AS DOUBLE)), 0))
                   END::INTEGER AS w,
                   CASE WHEN NOT ok THEN 0
                        WHEN greatest(w, h) <= 32 THEN h
                        ELSE greatest(1, round_even(
                          CAST(h AS DOUBLE) * (32.0 / CAST(greatest(w, h) AS DOUBLE)), 0))
                   END::INTEGER AS h,
                   CASE WHEN ok THEN 'ok' ELSE 'skip' END AS status
            FROM page
        """,
    }


def _lang_id_sql() -> str:
    """Integer-ratio replica of ``idf.functions.text.lang_id``: shared
    denominator across profiles -> best language maximizes the raw hit
    count (ties alphabetical); zh branch is the exact integer compare
    ``5*cjk > n_chars``."""
    from idf.functions.text import _LANG_PROFILES

    profiles = {k: v for k, v in sorted(_LANG_PROFILES.items()) if v}
    hits = ",\n                   ".join(
        "length(list_filter(toks, x -> x IN ({}))) AS h_{}".format(
            ", ".join(f"'{w}'" for w in sorted(v)), l
        )
        for l, v in profiles.items()
    )
    gmax = "greatest(" + ", ".join(f"h_{l}" for l in profiles) + ")"
    pick = " ".join(
        f"WHEN h_{l} = {gmax} THEN '{l}'" for l in profiles
    )
    return f"""
        WITH t AS (
          SELECT doc_id, text,
                 length(regexp_replace(text, '[^\\x{{4e00}}-\\x{{9fff}}]', '', 'g')) AS cjk,
                 length(text) AS n_chars,
                 regexp_split_to_array(lower(trim(text)), '\\s+') AS toks
          FROM documents
        ),
        h AS (SELECT doc_id, cjk, n_chars, greatest(length(toks), 1) AS n_toks,
                   {hits}
              FROM t),
        best AS (
          SELECT doc_id, cjk, n_chars, n_toks, {gmax} AS bh,
                 CASE WHEN {gmax} = 0 THEN 'und' {pick} END AS bl
          FROM h
        )
        SELECT best.doc_id,
               CASE WHEN t.text = '' THEN 'und'
                    WHEN 5 * best.cjk > best.n_chars THEN 'zh'
                    ELSE bl END AS lang_pred,
               CASE WHEN t.text = '' THEN 0
                    WHEN 5 * best.cjk > best.n_chars THEN best.cjk
                    ELSE bh END AS score_num,
               CASE WHEN t.text = '' THEN 1
                    WHEN 5 * best.cjk > best.n_chars THEN best.n_chars
                    ELSE n_toks END AS score_den
        FROM best JOIN t ON t.doc_id = best.doc_id
    """


def _winnow_sql(k: int = 5, window: int = 4) -> str:
    """SQL replica of ``winnow_fingerprints``: codepoint rolling hash
    with each fold step mod 2^64 in HUGEINT, window-of-``window`` min
    selection (first position of the min), distinct selected values,
    two's-complement back to BIGINT."""
    acc = "unicode(substr(ltext, pos, 1))::HUGEINT"
    for off in range(1, k):
        acc = (
            f"(({acc}) * 1000000007 + unicode(substr(ltext, pos + {off}, 1)))"
            " % 18446744073709551616::HUGEINT"
        )
    return f"""
        WITH d AS (
          SELECT doc_id, lower(trim(text)) AS ltext, length(lower(trim(text))) AS n
          FROM documents
        ),
        hashes AS (
          SELECT doc_id, pos, {acc} AS h
          FROM d, LATERAL (SELECT unnest(range(1, n - {k} + 2)) AS pos) p
          WHERE n >= {k}
        ),
        wm AS (
          SELECT doc_id, pos AS w, h,
                 min(h) OVER win AS wmin,
                 count(*) OVER win AS wn,
                 count(*) OVER (PARTITION BY doc_id) AS nh
          FROM hashes
          WINDOW win AS (PARTITION BY doc_id ORDER BY pos
                         ROWS BETWEEN CURRENT ROW AND {window - 1} FOLLOWING)
        ),
        selpos AS (
          SELECT m.doc_id, min(hh.pos) AS pos
          FROM wm m JOIN hashes hh
            ON hh.doc_id = m.doc_id AND hh.pos BETWEEN m.w AND m.w + {window - 1}
           AND hh.h = m.wmin
          WHERE m.wn = {window} AND m.nh > {window}
          GROUP BY m.doc_id, m.w
          UNION
          SELECT doc_id, min(pos) FROM hashes h1
          WHERE (SELECT count(*) FROM hashes h2 WHERE h2.doc_id = h1.doc_id) <= {window}
            AND h = (SELECT min(h) FROM hashes h3 WHERE h3.doc_id = h1.doc_id)
          GROUP BY doc_id
        ),
        fps AS (
          SELECT DISTINCT s.doc_id,
                 (CASE WHEN hh.h >= 9223372036854775808::HUGEINT
                       THEN hh.h - 18446744073709551616::HUGEINT ELSE hh.h END)::BIGINT AS fp
          FROM selpos s JOIN hashes hh ON hh.doc_id = s.doc_id AND hh.pos = s.pos
        )
        SELECT doc_id, fp FROM fps
        UNION ALL
        SELECT doc_id, 0::BIGINT AS fp FROM d WHERE n < {k}
    """


# simhash CTE shared by doc_simhash and doc_simhash_pairs: md5-token
# sign-sum, bit weights rebuilt in HUGEINT, two's complement to BIGINT
_SIMHASH_CTE = """
    toks AS (
      SELECT doc_id,
             unnest(list_filter(regexp_split_to_array(lower(text), '\\s+'), x -> x <> '')) AS tok
      FROM documents
    ),
    tf AS (SELECT doc_id, md5_number_lower(tok) AS h, count(*)::BIGINT AS w
           FROM toks GROUP BY doc_id, tok),
    bits AS (
      SELECT doc_id, j,
             sum(CASE WHEN (h >> j) & 1 = 1 THEN w ELSE -w END) AS acc
      FROM tf, (SELECT unnest(range(64)) AS j) js
      GROUP BY doc_id, j
    ),
    shsum AS (
      SELECT doc_id,
             sum(CASE WHEN acc > 0 THEN (1::HUGEINT << j) ELSE 0 END) AS v
      FROM bits GROUP BY doc_id
    ),
    sh AS (
      SELECT d.doc_id,
             coalesce((CASE WHEN v >= 9223372036854775808::HUGEINT
                   THEN v - 18446744073709551616::HUGEINT ELSE v END)::BIGINT, 0) AS simhash
      FROM documents d LEFT JOIN shsum ON shsum.doc_id = d.doc_id
    )
"""


def _minhash_sql(tau: float = 0.8, k: int = 3, num_perm: int = 128, bands: int = 32) -> str:
    """SQL replica of ``minhash_lsh_pairs``: md5 shingle hashes, the
    SAME seeded affine permutation constants inlined as VALUES, band
    collision by signature-tuple equality, exact-Jaccard verify over
    the md5 shingle-hash sets. short="self" semantics: <k-token docs
    contribute one whole-text shingle ('' when empty)."""
    return f"""
        WITH {_minhash_cte_body(tau, k, num_perm, bands)}
        SELECT doc_id_a, doc_id_b FROM mh_pairs
    """


def _minhash_cte_body(
    tau: float = 0.8, k: int = 3, num_perm: int = 128, bands: int = 32
) -> str:
    """The minhash pair derivation as a reusable WITH-body ending in a
    ``mh_pairs(doc_id_a, doc_id_b)`` CTE (used standalone by
    doc_minhash_pairs and composed under WITH RECURSIVE by
    doc_dedup_map's connected-components closure)."""
    from idf.kernels.minhash import MinHasher

    mh = MinHasher(num_perm, seed=42)
    perms = ", ".join(
        f"({i}, {int(mh.a[i])}::HUGEINT, {int(mh.b[i])}::HUGEINT)" for i in range(num_perm)
    )
    rows_per = num_perm // bands
    return f"""t AS (
          SELECT doc_id,
                 list_filter(regexp_split_to_array(lower(text), '\\s+'), x -> x <> '') AS toks
          FROM documents
        ),
        shing AS (
          SELECT DISTINCT doc_id,
                 CASE WHEN length(toks) < {k} THEN array_to_string(toks, ' ')
                      ELSE array_to_string(toks[i : i + {k} - 1], ' ') END AS s
          FROM t, LATERAL (SELECT unnest(range(1, greatest(length(toks) - {k} + 1, 1) + 1)) AS i) p
        ),
        shh AS (SELECT DISTINCT doc_id, md5_number_lower(s)::HUGEINT AS h FROM shing),
        perms(i, a, b) AS (VALUES {perms}),
        sigs AS (
          SELECT doc_id, i,
                 min((a * h + b) % 18446744073709551616::HUGEINT) AS v
          FROM shh, perms GROUP BY doc_id, i
        ),
        bandsig AS (
          SELECT doc_id, i // {rows_per} AS band,
                 string_agg(v::VARCHAR, ',' ORDER BY i) AS bs
          FROM sigs GROUP BY doc_id, i // {rows_per}
        ),
        cand AS (
          SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
          FROM bandsig x JOIN bandsig y
            ON x.band = y.band AND x.bs = y.bs AND x.doc_id < y.doc_id
        ),
        sizes AS (SELECT doc_id, count(*) AS n FROM shh GROUP BY doc_id),
        inter AS (
          SELECT c.a, c.b, count(*) AS m
          FROM cand c
          JOIN shh ha ON ha.doc_id = c.a
          JOIN shh hb ON hb.doc_id = c.b AND hb.h = ha.h
          GROUP BY c.a, c.b
        ),
        mh_pairs AS (
          SELECT c.a AS doc_id_a, c.b AS doc_id_b
          FROM cand c
          JOIN sizes sa ON sa.doc_id = c.a
          JOIN sizes sb ON sb.doc_id = c.b
          LEFT JOIN inter i ON i.a = c.a AND i.b = c.b
          WHERE coalesce(i.m, 0) * 1.0 / (sa.n + sb.n - coalesce(i.m, 0)) >= {tau}
        )"""


def _substring_dup_cte(L: int = 30) -> str:
    """Duplicated L-char window positions (Lee et al. substring dedup):
    every window of length L occurring >= 2 times corpus-wide, as
    (doc_id, pos) with pos 0-indexed — mirrors
    idf/functions/text_dedup.py: substring_dup_positions."""
    return f"""
        nums AS (
          SELECT unnest(range(1, (SELECT coalesce(max(length(text)), 0)
                                  FROM documents) + 1))::INT AS i
        ),
        win AS (
          SELECT d.doc_id, n.i, substr(d.text, n.i, {L}) AS g
          FROM documents d JOIN nums n ON n.i <= length(d.text) - {L - 1}
        ),
        dup AS (
          SELECT doc_id, (i - 1)::BIGINT AS pos FROM win
          QUALIFY count(*) OVER (PARTITION BY g) > 1
        )
    """


def _substring_spans_sql(L: int = 30) -> str:
    """Gaps-and-islands merge of the dup windows into maximal
    [start, stop) spans per doc (windows <= L apart overlap/touch)."""
    return f"""
        WITH {_substring_dup_cte(L)},
        isl AS (
          SELECT doc_id, pos,
                 CASE WHEN pos - lag(pos) OVER (
                        PARTITION BY doc_id ORDER BY pos) <= {L}
                      THEN 0 ELSE 1 END AS brk
          FROM dup
        ),
        grp AS (
          SELECT doc_id, pos,
                 sum(coalesce(brk, 1)) OVER (
                   PARTITION BY doc_id ORDER BY pos) AS gid
          FROM isl
        )
        SELECT doc_id, min(pos) AS start, max(pos) + {L} AS stop
        FROM grp GROUP BY doc_id, gid
    """


def oracle_sql() -> dict[str, str]:
    from idf.functions.text import _STOPWORDS

    stop_list = ", ".join(f"'{w}'" for w in _STOPWORDS)
    return {
        **img_oracle_sql("0.01"),
        "orders_top1_per_cust": """
            SELECT o_custkey, o_orderkey, o_totalprice FROM (
              SELECT o_custkey, o_orderkey, o_totalprice,
                     row_number() OVER (
                       PARTITION BY o_custkey
                       ORDER BY o_totalprice DESC, o_orderdate ASC, o_orderkey ASC
                     ) AS rn
              FROM orders
            ) WHERE rn = 1
        """,
        "orders_min_group_size": """
            SELECT o_custkey, o_orderkey FROM orders
            QUALIFY count(*) OVER (PARTITION BY o_custkey) >= 8
        """,
        "cust_orders_by_nation": """
            SELECT c_nationkey, count(*) AS n_orders
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_nationkey
        """,
        "events_by_type": "SELECT event_type, count(*) AS n FROM events GROUP BY event_type",
        "supplier_top_per_nation": """
            SELECT s_nationkey, s_suppkey, s_acctbal FROM (
              SELECT s_nationkey, s_suppkey, s_acctbal,
                     row_number() OVER (PARTITION BY s_nationkey
                                        ORDER BY s_acctbal DESC, s_suppkey ASC) AS rn
              FROM supplier
            ) WHERE rn = 1
        """,
        # stage i resolves as the user's earliest stage-i event strictly
        # after the resolved stage-(i-1) time — the same chain funnel()
        # computes per bucket (merge + groupby-min per stage)
        "events_funnel": """
            WITH f AS (
              SELECT user_id, ts, event_type FROM events
              WHERE event_type IN ('view', 'click', 'purchase')
            ),
            s1 AS (SELECT user_id, min(ts) AS t FROM f
                   WHERE event_type = 'view' GROUP BY user_id),
            s2 AS (SELECT f.user_id, min(f.ts) AS t FROM f JOIN s1 USING (user_id)
                   WHERE f.event_type = 'click' AND f.ts > s1.t GROUP BY f.user_id),
            s3 AS (SELECT f.user_id, min(f.ts) AS t FROM f JOIN s2 USING (user_id)
                   WHERE f.event_type = 'purchase' AND f.ts > s2.t GROUP BY f.user_id)
            SELECT * FROM (
              SELECT 1 AS stage, 'view' AS stage_name,
                     (SELECT count(*) FROM s1) AS n_users
              UNION ALL
              SELECT 2, 'click', (SELECT count(*) FROM s2)
              UNION ALL
              SELECT 3, 'purchase', (SELECT count(*) FROM s3)
            ) ORDER BY stage
        """,
        "events_transitions": """
            SELECT type_from, type_to, count(*) AS n FROM (
              SELECT event_type AS type_from,
                     lead(event_type) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                     ) AS type_to
              FROM events)
            WHERE type_to IS NOT NULL
            GROUP BY type_from, type_to
        """,
        # session rule identical to events_sessions (strict 30-min gap,
        # (ts, event_id) order); path = types joined '>' per session,
        # top-20 by (n desc, path asc)
        "events_top_paths": """
            WITH g AS (
              SELECT user_id, ts, event_id, event_type,
                     CASE WHEN lag(ts) OVER w IS NULL
                          OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > 1800000000
                          THEN 1 ELSE 0 END AS brk
              FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ), s AS (
              SELECT user_id, ts, event_id, event_type,
                     CAST(sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                          ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
              FROM g
            ), p AS (
              SELECT string_agg(event_type, '>' ORDER BY ts, event_id) AS path
              FROM s GROUP BY user_id, session_id
            )
            SELECT path, count(*) AS n FROM p
            GROUP BY path ORDER BY n DESC, path LIMIT 20
        """,
        # distinct-day semantics; DATE minus DATE is integer days in
        # DuckDB, matching retention()'s (.dt.days) int64
        "events_retention": """
            WITH ud AS (
              SELECT DISTINCT user_id, CAST(ts AS DATE) AS d FROM events
            ),
            fd AS (SELECT user_id, min(d) AS d0 FROM ud GROUP BY user_id)
            SELECT (d - d0) AS offset_days, count(*) AS n_users
            FROM ud JOIN fd USING (user_id)
            WHERE (d - d0) <= 14
            GROUP BY 1 ORDER BY 1
        """,
        # exact integer-cents sums (see idf/functions/relational.py:
        # plain sum(double) is summation-order-dependent and flakes the
        # %.17g value hash; inputs verified free of .5 rounding ties)
        "events_window_agg": """
            SELECT event_type, time_bucket(INTERVAL '1 hour', ts) AS window_start,
                   count(*) AS n,
                   CAST(sum(CAST(round(value*100) AS BIGINT)) AS DOUBLE)/100 AS sum_value
            FROM events GROUP BY 1, 2
        """,
        "events_sessions": """
            WITH g AS (
              SELECT user_id, ts, event_id,
                     CASE WHEN lag(ts) OVER w IS NULL
                          OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > 1800000000
                          THEN 1 ELSE 0 END AS brk
              FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ), s AS (
              SELECT user_id, ts,
                     CAST(sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                          ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
              FROM g
            )
            SELECT user_id, session_id, count(*) AS n_events,
                   min(ts) AS session_start, max(ts) AS session_end
            FROM s GROUP BY 1, 2
        """,
        "events_sessions_salted": """
            WITH g AS (
              SELECT user_id, ts, event_id,
                     CASE WHEN lag(ts) OVER w IS NULL
                          OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > 1800000000
                          THEN 1 ELSE 0 END AS brk
              FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ), s AS (
              SELECT user_id, ts,
                     CAST(sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                          ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
              FROM g
            )
            SELECT user_id, session_id, count(*) AS n_events,
                   min(ts) AS session_start, max(ts) AS session_end
            FROM s GROUP BY 1, 2
        """,
        "events_asof_orders": """
            SELECT event_id, asof_orderkey FROM (
              SELECT e.event_id, o.o_orderkey AS asof_orderkey,
                     row_number() OVER (PARTITION BY e.event_id
                                        ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) AS rn
              FROM events e JOIN orders o
                ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
            ) WHERE rn = 1
        """,
        "events_json_k": """
            SELECT event_id, json_extract(props, '$.k')::BIGINT AS k FROM events
        """,
        "orders_price_band": """
            WITH bands(lo, hi, band) AS (VALUES
              (0.0, 50000.0, 'small'), (50000.0, 150000.0, 'medium'),
              (150000.0, 300000.0, 'large'), (300000.0, 1e18, 'huge'))
            SELECT o_orderkey, band FROM orders JOIN bands
              ON o_totalprice >= lo AND o_totalprice < hi
        """,
        # same exact integer discounted-mills as pricing_summary
        "nation_revenue": """
            SELECT n.n_name, CAST(year(o.o_orderdate) AS BIGINT) AS o_year,
                   count(*) AS n_orders,
                   CAST(sum(rev.dmills) AS BIGINT) AS revenue_dmills
            FROM (
              SELECT l_orderkey,
                     CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000)
                         AS BIGINT)) AS BIGINT) AS dmills
              FROM lineitem GROUP BY l_orderkey
            ) rev
            JOIN orders o ON o.o_orderkey = rev.l_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
            JOIN nation n ON n.n_nationkey = c.c_nationkey
            GROUP BY 1, 2
        """,
        "region_revenue": """
            SELECT r.r_name, CAST(year(o.o_orderdate) AS BIGINT) AS o_year,
                   count(*) AS n_orders,
                   CAST(sum(rev.dmills) AS BIGINT) AS revenue_dmills
            FROM (
              SELECT l_orderkey,
                     CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000)
                         AS BIGINT)) AS BIGINT) AS dmills
              FROM lineitem GROUP BY l_orderkey
            ) rev
            JOIN orders o ON o.o_orderkey = rev.l_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
            JOIN nation n ON n.n_nationkey = c.c_nationkey
            JOIN region r ON r.r_regionkey = n.n_regionkey
            GROUP BY 1, 2
        """,
        "part_revenue": """
            SELECT p.p_type,
                   count(*) AS n_lineitems,
                   CAST(sum(CAST(round(l.l_extendedprice * (1 - l.l_discount) * 10000)
                       AS BIGINT)) AS BIGINT) AS revenue_dmills
            FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
            GROUP BY p.p_type
        """,
        "cust_no_orders": """
            SELECT c_custkey, c_nationkey FROM customer
            WHERE c_custkey NOT IN
              (SELECT o_custkey FROM orders WHERE o_totalprice > 300000)
        """,
        # Exact SQL twin of the m=2^17/k=4 md5 Bloom filter: position_i
        # = md5_number_lower(i||':'||key) % m replicates the engine's
        # md5_low64 bit-for-bit, so the false-positive set (not just the
        # true members) is identical by construction.
        "cust_bloom_members": """
            WITH ks AS (SELECT unnest(range(4)) AS i),
            build_pos AS (
              SELECT DISTINCT
                md5_number_lower(i::VARCHAR || ':' || o_custkey::VARCHAR)
                  % 131072 AS pos
              FROM orders, ks WHERE o_totalprice > 150000
            ),
            probe AS (
              SELECT c_custkey, i,
                md5_number_lower(i::VARCHAR || ':' || c_custkey::VARCHAR)
                  % 131072 AS pos
              FROM customer, ks
            )
            SELECT c_custkey FROM probe JOIN build_pos USING (pos)
            GROUP BY c_custkey HAVING count(DISTINCT i) = 4
            ORDER BY c_custkey
        """,
        # HLL register table, exact: bucket = top 8 bits of md5-low64,
        # rank = leading zeros of the low 56 bits + 1 (bin() length);
        # max is order-invariant so the partials merge deterministically
        "events_hll_users": """
            WITH h AS (
              SELECT DISTINCT md5_number_lower(user_id::VARCHAR) AS hv
              FROM events
            ),
            parts AS (
              SELECT hv >> 56 AS bucket,
                     hv & ((1::UBIGINT << 56) - 1) AS suffix
              FROM h
            )
            SELECT bucket::BIGINT AS bucket,
                   max(CASE WHEN suffix = 0 THEN 57
                            ELSE 57 - length(bin(suffix)) END)::BIGINT AS max_rank
            FROM parts GROUP BY 1 ORDER BY 1
        """,
        # rank = md5 of the event id's decimal string — identical on
        # both sides (hashlib hex == DuckDB md5), so the draw is exactly
        # reproducible; ties impossible (event_id unique)
        "events_sample_per_user": """
            SELECT user_id, event_id FROM (
              SELECT user_id, event_id,
                     row_number() OVER (
                       PARTITION BY user_id
                       ORDER BY md5(CAST(event_id AS VARCHAR)), event_id
                     ) AS rn
              FROM events)
            WHERE rn <= 3
        """,
        # recency in whole days between DATE-floored order days; the
        # corpus-wide ref day is the same max over the same dates on
        # both sides; monetary is the module's exact integer-cents sum
        "orders_rfm": """
            SELECT o_custkey,
                   CAST(date_diff('day', CAST(max(o_orderdate) AS DATE),
                        (SELECT CAST(max(o_orderdate) AS DATE) FROM orders))
                     AS BIGINT) AS recency_days,
                   count(*) AS frequency,
                   CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
                     AS monetary_cents
            FROM orders GROUP BY o_custkey
        """,
        # quantile_disc picks the element at sorted index ceil(q*n)-1
        # (verified incl. integer-crossing q*n in tests); the engine
        # replicates that rule over its exact integer-cents histogram,
        # and both sides emit round(x*100) cents so the hash is
        # float-free (inputs verified free of .5 rounding ties)
        "lineitem_price_quantiles": " UNION ALL ".join(
            f"""
            SELECT l_returnflag, CAST({q} AS DOUBLE) AS q,
                   CAST(round(quantile_disc(l_extendedprice, {q}) * 100) AS BIGINT)
                     AS value_cents
            FROM lineitem GROUP BY l_returnflag
            """
            for q in (0.01, 0.25, 0.5, 0.75, 0.9, 0.99)
        ),
        "lineitem_pricing_summary": """
            SELECT l_returnflag, l_linestatus,
              sum(l_quantity) AS sum_qty,
              CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT)) AS DOUBLE)/100 AS sum_base_price,
              CAST(sum(CAST(round(l_extendedprice*(1-l_discount)*10000) AS BIGINT)) AS DOUBLE)/10000 AS sum_disc_price,
              CAST(sum(CAST(round(l_extendedprice*(1-l_discount)*(1+l_tax)*1000000) AS BIGINT)) AS DOUBLE)/1000000 AS sum_charge,
              sum(l_quantity)/count(*) AS avg_qty,
              CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT)) AS DOUBLE)/100/count(*) AS avg_price,
              CAST(sum(CAST(round(l_discount*100) AS BIGINT)) AS DOUBLE)/100/count(*) AS avg_disc,
              count(*) AS count_order
            FROM lineitem WHERE l_shipdate <= DATE '1998-09-02'
            GROUP BY 1, 2
        """,
        "doc_hash_split": """
            SELECT doc_id, CASE WHEN substr(md5(CAST(doc_id AS VARCHAR)),1,2) < '1a'
                   THEN 'test' ELSE 'train' END AS split FROM documents
        """,
        # Gopher-style repetition signals: chars covered by ALL
        # occurrences of duplicated token n-grams + type count
        "doc_repetition": r"""
            WITH toks AS (
              SELECT doc_id, w, i FROM (
                SELECT doc_id,
                       unnest(regexp_split_to_array(lower(trim(text)), '\s+')) AS w,
                       generate_subscripts(regexp_split_to_array(lower(trim(text)), '\s+'), 1) AS i
                FROM documents WHERE trim(text) <> '')
            ),
            bi AS (SELECT a.doc_id, a.w || ' ' || b.w AS g
                   FROM toks a JOIN toks b ON b.doc_id = a.doc_id AND b.i = a.i + 1),
            bc AS (SELECT doc_id, g, count(*) AS c FROM bi GROUP BY 1, 2),
            b2 AS (SELECT doc_id, sum(c * length(g)) AS dup2 FROM bc WHERE c >= 2 GROUP BY 1),
            tri AS (SELECT a.doc_id, a.w || ' ' || b.w || ' ' || c.w AS g
                    FROM toks a
                    JOIN toks b ON b.doc_id = a.doc_id AND b.i = a.i + 1
                    JOIN toks c ON c.doc_id = a.doc_id AND c.i = a.i + 2),
            tc AS (SELECT doc_id, g, count(*) AS c FROM tri GROUP BY 1, 2),
            t3 AS (SELECT doc_id, sum(c * length(g)) AS dup3 FROM tc WHERE c >= 2 GROUP BY 1),
            dt AS (SELECT doc_id, count(DISTINCT w) AS ndt FROM toks GROUP BY 1)
            SELECT d.doc_id,
                   length(trim(d.text))::BIGINT AS n_chars,
                   coalesce(b2.dup2, 0)::BIGINT AS dup2_chars,
                   coalesce(t3.dup3, 0)::BIGINT AS dup3_chars,
                   coalesce(dt.ndt, 0)::BIGINT AS n_distinct_tokens
            FROM documents d
            LEFT JOIN b2 USING (doc_id)
            LEFT JOIN t3 USING (doc_id)
            LEFT JOIN dt USING (doc_id)
        """,
        "doc_leakfree_split": """
            SELECT doc_id,
                   CASE WHEN substr(md5(CAST(min(doc_id) OVER (PARTITION BY text)
                             AS VARCHAR)),1,2) < '33'
                   THEN 'test' ELSE 'train' END AS split
            FROM documents
        """,
        "doc_top_bigrams": r"""
            WITH toks AS (
              SELECT doc_id, w, i FROM (
                SELECT doc_id,
                       unnest(regexp_split_to_array(lower(trim(text)), '\s+')) AS w,
                       generate_subscripts(regexp_split_to_array(lower(trim(text)), '\s+'), 1) AS i
                FROM documents WHERE trim(text) <> '')
            ),
            bi AS (SELECT a.w || ' ' || b.w AS gram
                   FROM toks a JOIN toks b ON b.doc_id = a.doc_id AND b.i = a.i + 1)
            SELECT gram, count(*) AS n FROM bi GROUP BY gram
            ORDER BY n DESC, gram LIMIT 20
        """,
        # ceil-div via integer arithmetic; token rule = doc_token_count
        "doc_packing_stats": """
            WITH t AS (
              SELECT CASE WHEN trim(text) = '' THEN 0
                          ELSE length(regexp_split_to_array(trim(text), '\\s+')) END
                       AS n_tokens
              FROM documents
            )
            SELECT count(*) AS n_docs,
                   sum(n_tokens)::BIGINT AS n_tokens_total,
                   sum((n_tokens + 1023) // 1024)::BIGINT AS n_slots
            FROM t
        """,
        # stage rules composed from the already-green per-op oracles:
        # token_count's n_tokens, lang_id's integer prediction rule
        # (the same _lang_id_sql text, CTE-wrapped), fingerprint_md5's
        # md5(lower(trim(text)))
        "doc_curation_funnel": f"""
            WITH lang AS ({_lang_id_sql()}),
            tok AS (
              SELECT doc_id,
                     CASE WHEN trim(text) = '' THEN 0
                          ELSE length(regexp_split_to_array(trim(text), '\\s+')) END
                       AS n_tokens
              FROM documents
            ),
            j AS (
              SELECT d.doc_id, d.text FROM documents d
              JOIN tok t USING (doc_id) JOIN lang l USING (doc_id)
              WHERE t.n_tokens >= 10 AND l.lang_pred = 'en'
            ),
            j2 AS (
              SELECT d.doc_id FROM documents d JOIN tok t USING (doc_id)
              WHERE t.n_tokens >= 10
            )
            SELECT * FROM (
              SELECT 1 AS stage, 'total' AS stage_name,
                     (SELECT count(*) FROM documents) AS n_docs
              UNION ALL SELECT 2, 'min_tokens', (SELECT count(*) FROM j2)
              UNION ALL SELECT 3, 'lang_en', (SELECT count(*) FROM j)
              UNION ALL SELECT 4, 'exact_distinct',
                (SELECT count(DISTINCT md5(lower(trim(text)))) FROM j)
            ) ORDER BY stage
        """,
        # the benchmark split is doc_id % 50 = 0; a doc's n_hits counts
        # its 5-token window POSITIONS whose gram also appears anywhere
        # in the benchmark (lead(w,4) IS NULL marks short windows)
        "doc_contamination": r"""
            WITH toks AS (
              SELECT doc_id, w, i FROM (
                SELECT doc_id,
                       unnest(regexp_split_to_array(lower(trim(text)), '\s+')) AS w,
                       generate_subscripts(regexp_split_to_array(lower(trim(text)), '\s+'), 1) AS i
                FROM documents WHERE trim(text) <> '')
            ),
            grams AS (
              SELECT doc_id,
                     w || ' ' || lead(w, 1) OVER win || ' ' || lead(w, 2) OVER win
                       || ' ' || lead(w, 3) OVER win || ' ' || lead(w, 4) OVER win AS g
              FROM toks WINDOW win AS (PARTITION BY doc_id ORDER BY i)
              QUALIFY lead(w, 4) OVER win IS NOT NULL
            ),
            bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % 50 = 0),
            hits AS (
              SELECT doc_id, count(*) AS n_hits FROM grams
              WHERE doc_id % 50 <> 0 AND g IN (SELECT g FROM bench)
              GROUP BY doc_id
            )
            SELECT d.doc_id, COALESCE(h.n_hits, 0) AS n_hits
            FROM documents d LEFT JOIN hits h USING (doc_id)
            WHERE d.doc_id % 50 <> 0
        """,
        "doc_tfidf_topk": """
            WITH t2 AS (
              SELECT doc_id, term FROM (
                SELECT doc_id,
                       unnest(regexp_split_to_array(lower(text), '[^a-z]+')) AS term
                FROM documents)
              WHERE length(term) >= 2
            ),
            tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM t2 GROUP BY doc_id, term),
            df AS (SELECT term, COUNT(DISTINCT doc_id) AS df FROM t2 GROUP BY term),
            scored AS (
              SELECT tf.doc_id, tf.term, tf.tf, df.df,
                     ROW_NUMBER() OVER (
                       PARTITION BY tf.doc_id
                       ORDER BY CAST(tf.tf AS DOUBLE) / df.df DESC, tf.term ASC
                     ) AS rank
              FROM tf JOIN df USING (term)
            )
            SELECT doc_id, term, tf, df, rank FROM scored WHERE rank <= 5
        """,
        "doc_token_count": """
            SELECT doc_id,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE length(regexp_split_to_array(trim(text), '\\s+')) END AS n_tokens
            FROM documents
        """,
        "doc_quality": f"""
            SELECT doc_id,
                   length(trim(text)) AS n_chars_trim,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE length(regexp_split_to_array(trim(text), '\\s+')) END AS n_tokens,
                   length(regexp_replace(text, '\\s+', '', 'g')) AS tot_token_len,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE length(list_filter(
                               regexp_split_to_array(lower(trim(text)), '\\s+'),
                               x -> x IN ({stop_list}))) END AS n_stop
            FROM documents
        """,
        "doc_exact_dedup": "SELECT min(doc_id) AS doc_id, text FROM documents GROUP BY text",
        "doc_fingerprint": "SELECT doc_id, md5(lower(trim(text))) AS fp FROM documents",
        "doc_lang_id": _lang_id_sql(),
        # joins the SAME prediction CTE against the table's labeled lang
        "doc_langid_confusion": f"""
            WITH pred AS ({_lang_id_sql()})
            SELECT d.lang, p.lang_pred, count(*) AS n
            FROM documents d JOIN pred p USING (doc_id)
            GROUP BY d.lang, p.lang_pred
        """,
        "doc_winnow_fp": _winnow_sql(),
        "doc_token_count_bpe": r"""
            SELECT doc_id,
                   length(regexp_extract_all(coalesce(text, ''),
                          '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]'))::BIGINT AS n_bpe_tokens
            FROM documents
        """,
        "doc_substring_dups": f"WITH {_substring_dup_cte(30)} SELECT doc_id, pos FROM dup",
        "doc_substring_spans": _substring_spans_sql(30),
        "doc_simhash": f"WITH {_SIMHASH_CTE} SELECT doc_id, simhash FROM sh",
        # banding recall is EXACT by pigeonhole (expansion_radius
        # construction, idf/config.py:61-71), so brute force matches
        "doc_simhash_pairs": f"""
            WITH {_SIMHASH_CTE}
            SELECT a.doc_id AS doc_id_a, b.doc_id AS doc_id_b
            FROM sh a JOIN sh b ON a.doc_id < b.doc_id
            WHERE bit_count(xor(a.simhash, b.simhash)) <= 8
        """,
        "doc_minhash_pairs": _minhash_sql(tau=0.8),
        # dedup map = CC closure over the SAME (exactly replicated)
        # minhash pair set; canon = min doc_id per component
        "doc_dedup_map": f"""
            WITH RECURSIVE {_minhash_cte_body(tau=0.8)},
            und AS (
              SELECT doc_id_a AS src, doc_id_b AS dst FROM mh_pairs
              UNION
              SELECT doc_id_b, doc_id_a FROM mh_pairs
            ),
            reach(src, dst) AS (
              SELECT DISTINCT src, src AS dst FROM und
              UNION
              SELECT r.src, u.dst FROM reach r JOIN und u ON u.src = r.dst
            ),
            comp AS (SELECT src AS doc_id, min(dst) AS canon FROM reach GROUP BY src)
            SELECT d.doc_id, coalesce(c.canon, d.doc_id) AS canon_id
            FROM documents d LEFT JOIN comp c USING (doc_id)
        """,
        "doc_ngram_pairs": """
            WITH toks AS (
              SELECT doc_id, w, i
              FROM (
                SELECT doc_id,
                       unnest(regexp_split_to_array(lower(trim(text)), '\\s+')) AS w,
                       generate_subscripts(regexp_split_to_array(lower(trim(text)), '\\s+'), 1) AS i
                FROM documents
              )
            ),
            tri AS (
              SELECT DISTINCT a.doc_id, a.w || ' ' || b.w || ' ' || c.w AS s
              FROM toks a
              JOIN toks b ON b.doc_id = a.doc_id AND b.i = a.i + 1
              JOIN toks c ON c.doc_id = a.doc_id AND c.i = a.i + 2
            ),
            sizes AS (SELECT doc_id, count(*) AS n FROM tri GROUP BY doc_id),
            inter AS (
              SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS c
              FROM tri x JOIN tri y ON x.s = y.s AND x.doc_id < y.doc_id
              GROUP BY 1, 2
            )
            SELECT a AS doc_id_a, b AS doc_id_b,
                   c * 1.0 / (sa.n + sb.n - c) AS jaccard
            FROM inter
            JOIN sizes sa ON sa.doc_id = a
            JOIN sizes sb ON sb.doc_id = b
            WHERE c * 1.0 / (sa.n + sb.n - c) >= 0.6
        """,
        "emb_cosine_topk": """
            WITH q AS (
              SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe
              FROM embeddings WHERE vec_id < 8
            ),
            s AS (
              SELECT qid, e.vec_id AS nid,
                     list_cosine_similarity(qe, CAST(e.embedding AS DOUBLE[])) AS sim
              FROM q, embeddings e WHERE e.vec_id <> qid
            )
            SELECT qid AS vec_id, nid AS neighbor_id, rank FROM (
              SELECT qid, nid,
                     row_number() OVER (PARTITION BY qid ORDER BY sim DESC, nid ASC) AS rank
              FROM s
            ) WHERE rank <= 5
        """,
        "emb_cosine_pairs": """
            SELECT a.vec_id AS vec_id_a, b.vec_id AS vec_id_b
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                         CAST(b.embedding AS DOUBLE[])) >= 0.4
        """,
        "emb_lsh_pairs": _lsh_pairs_sql(tau=0.4, n_bits=8, n_tables=4, dim=64),
        # IVF ops hash-checked via locally-retrained centroid literals
        # (r3 verdict #4); the driver compares at sf=0.01, so the local
        # trainer reads that table — same convention as img_oracle_sql
        "emb_dedup_map": _emb_dedup_map_sql(tau=0.4, n_bits=8, n_tables=4, dim=64),
        # the IVF oracles train the (deterministic, memoized) coarse
        # quantizer from the sf0.01 fixture; added only when the fixture
        # exists so oracle_sql() keeps working for every OTHER query on
        # machines without /root/testdata (the driver box has it)
        **(
            {
                "emb_ann_ivf": _ivf_topk_sql(
                    _IVF_FIXTURE, n_queries=8, k=5, n_centroids=16, nprobe=4
                ),
                "emb_ivf_pairs": _ivf_pairs_sql(
                    _IVF_FIXTURE, tau=0.4, n_centroids=64, assign_probe=2
                ),
            }
            if os.path.exists(_IVF_FIXTURE)
            else {}
        ),
    }


_IVF_FIXTURE = "/root/testdata/sf0.01/embeddings.parquet"


def _lsh_pairs_cte_body(tau: float, n_bits: int, n_tables: int, dim: int) -> str:
    """CTE chain ending in ``lsh_pairs(vec_id_a, vec_id_b)`` — the
    exact SQL replica of idf.functions.ann.lsh_pairs: the SAME
    hyperplane doubles as literals (repr round-trips float64), the same
    strict dot > 0 sign rule and per-table disjoint key space, DISTINCT
    for the cross-table pair dedup, and the same exact cosine verify.
    Shared by the pairs oracle and the dedup-map closure oracle."""
    from idf.functions.ann import lsh_hyperplanes

    h = lsh_hyperplanes(dim, n_bits, n_tables, seed=7)
    selects = []
    for t in range(n_tables):
        bits = " + ".join(
            f"(CASE WHEN list_dot_product(e, [{', '.join(repr(v) for v in h[t, j])}]) > 0 "
            f"THEN {1 << j} ELSE 0 END)"
            for j in range(n_bits)
        )
        selects.append(
            f"SELECT vec_id, {t * (1 << n_bits)} + {bits} AS bucket FROM base"
        )
    union = "\nUNION ALL\n".join(selects)
    return f"""base AS (
          SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings
        ), keys AS (
          {union}
        ), cand AS (
          SELECT DISTINCT a.vec_id AS vec_id_a, b.vec_id AS vec_id_b
          FROM keys a JOIN keys b ON a.bucket = b.bucket AND a.vec_id < b.vec_id
        ), lsh_pairs AS (
          SELECT c.vec_id_a, c.vec_id_b
          FROM cand c
          JOIN base x ON x.vec_id = c.vec_id_a
          JOIN base y ON y.vec_id = c.vec_id_b
          WHERE list_cosine_similarity(x.e, y.e) >= {tau}
        )"""


def _lsh_pairs_sql(tau: float, n_bits: int, n_tables: int, dim: int) -> str:
    return f"""
        WITH {_lsh_pairs_cte_body(tau, n_bits, n_tables, dim)}
        SELECT vec_id_a, vec_id_b FROM lsh_pairs
    """


def _emb_dedup_map_sql(tau: float, n_bits: int, n_tables: int, dim: int) -> str:
    """dedup map = CC closure over the SAME (exactly replicated)
    sign-LSH pair set; canon = min vec_id per component — the embedding
    twin of the doc_dedup_map oracle's recursive CTE."""
    return f"""
        WITH RECURSIVE {_lsh_pairs_cte_body(tau, n_bits, n_tables, dim)},
        und AS (
          SELECT vec_id_a AS src, vec_id_b AS dst FROM lsh_pairs
          UNION
          SELECT vec_id_b, vec_id_a FROM lsh_pairs
        ),
        reach(src, dst) AS (
          SELECT DISTINCT src, src AS dst FROM und
          UNION
          SELECT r.src, u.dst FROM reach r JOIN und u ON u.src = r.dst
        ),
        comp AS (SELECT src AS vec_id, min(dst) AS canon FROM reach GROUP BY src)
        SELECT e.vec_id, coalesce(c.canon, e.vec_id) AS canon_id
        FROM embeddings e LEFT JOIN comp c USING (vec_id)
    """


def _ivf_cents_cte(emb_path: str, n_centroids: int, seed: int = 42) -> str:
    """Train the IVF coarse quantizer LOCALLY (exact replica of the
    distributed trainer — see ann.train_ivf_centroids_local) and emit
    the centroids as a VALUES CTE of float64 literals. This is what
    turns the IVF operators from rows-only `no_oracle` checks into
    hash-green ones (r3 verdict #4), the same move _lsh_pairs_sql made
    for sign-LSH: the approximation is probabilistic in RECALL but
    fully deterministic in COMPUTATION, so SQL can replicate it."""
    from idf.functions.ann import train_ivf_centroids_local

    cents = train_ivf_centroids_local(emb_path, n_centroids, seed)
    rows = ",\n            ".join(
        f"({i}, [{', '.join(repr(float(v)) for v in c)}])" for i, c in enumerate(cents)
    )
    return f"SELECT * FROM (VALUES\n            {rows}\n          ) AS v(cell, c)"


def _ivf_pairs_sql(emb_path: str, tau: float, n_centroids: int, assign_probe: int) -> str:
    """Exact SQL replica of ann.ivf_pairs: same trained centroid doubles
    as literals, top-`assign_probe` cells per vector with the stable tie
    order (sim DESC, cell ASC — the Python argsort is kind='stable'),
    DISTINCT cross-cell pair dedup, exact cosine verify."""
    cte = _ivf_cents_cte(emb_path, n_centroids)
    return f"""
        WITH base AS (
          SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings
        ), cents AS (
          {cte}
        ), keys AS (
          SELECT vec_id, cell FROM (
            SELECT b.vec_id, cents.cell,
                   row_number() OVER (
                     PARTITION BY b.vec_id
                     ORDER BY list_cosine_similarity(b.e, cents.c) DESC, cents.cell ASC
                   ) AS rn
            FROM base b CROSS JOIN cents
          ) WHERE rn <= {assign_probe}
        ), cand AS (
          SELECT DISTINCT a.vec_id AS vec_id_a, b.vec_id AS vec_id_b
          FROM keys a JOIN keys b ON a.cell = b.cell AND a.vec_id < b.vec_id
        )
        SELECT c.vec_id_a, c.vec_id_b
        FROM cand c
        JOIN base x ON x.vec_id = c.vec_id_a
        JOIN base y ON y.vec_id = c.vec_id_b
        WHERE list_cosine_similarity(x.e, y.e) >= {tau}
    """


def _ivf_topk_sql(emb_path: str, n_queries: int, k: int, n_centroids: int, nprobe: int) -> str:
    """Exact SQL replica of ann.ivf_topk: trained centroid literals,
    argmax cell assignment (= rn 1 under sim DESC, cell ASC), top-nprobe
    probe cells per query (stable tie order), candidates restricted to
    probed cells, final rank by sim DESC, neighbor ASC."""
    cte = _ivf_cents_cte(emb_path, n_centroids)
    return f"""
        WITH base AS (
          SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings
        ), cents AS (
          {cte}
        ), assign AS (
          SELECT vec_id, cell FROM (
            SELECT b.vec_id, cents.cell,
                   row_number() OVER (
                     PARTITION BY b.vec_id
                     ORDER BY list_cosine_similarity(b.e, cents.c) DESC, cents.cell ASC
                   ) AS rn
            FROM base b CROSS JOIN cents
          ) WHERE rn = 1
        ), q AS (
          SELECT vec_id AS qid, e AS qe FROM base WHERE vec_id < {n_queries}
        ), probes AS (
          SELECT qid, cell FROM (
            SELECT q.qid, cents.cell,
                   row_number() OVER (
                     PARTITION BY q.qid
                     ORDER BY list_cosine_similarity(q.qe, cents.c) DESC, cents.cell ASC
                   ) AS rn
            FROM q CROSS JOIN cents
          ) WHERE rn <= {nprobe}
        ), cand AS (
          SELECT q.qid, b.vec_id AS nid,
                 list_cosine_similarity(q.qe, b.e) AS sim
          FROM q
          JOIN probes p ON p.qid = q.qid
          JOIN assign a ON a.cell = p.cell
          JOIN base b ON b.vec_id = a.vec_id
          WHERE b.vec_id <> q.qid
        )
        SELECT qid AS vec_id, nid AS neighbor_id, rank FROM (
          SELECT qid, nid,
                 row_number() OVER (PARTITION BY qid ORDER BY sim DESC, nid ASC) AS rank
          FROM cand
        ) WHERE rank <= {k}
    """

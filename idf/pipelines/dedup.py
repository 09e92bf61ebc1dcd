"""End-to-end near-duplicate pipeline (the flagship).

Ray-Data shape (SURVEY §3, re-expressed):

  read_parquet(images, pruned columns)
    -> map_batches(fused read+decode+hash)            [hashes]
    -> per-batch unique + global distinct over phash  [distinct_hashes]
    -> flat key expansion -> groupby(segment key)     [edges_band]
    (+ caption MinHash-LSH groupby)                   [edges_caption]
    -> connected components over the int hash graph   [clusters]
    -> hash join w/ meta -> groupby(cluster).elect    [plan]
    -> tag keep/quarantine -> one partitioned write   [apply]

Every stage commits a partitioned Parquet directory through the run
manifest (atomic rename + per-partition lineage + metrics); a rerun
resumes after the last committed stage. The ``bytes`` column never
crosses a shuffle below the apply broadcast guard: it is read only by
the hash stage and the apply pass, which writes it once.
"""

from __future__ import annotations

import os

import pyarrow.dataset as pads
import ray.data as rd

from idf.config import DedupConfig
from idf.stages.apply import apply_plan
from idf.stages.candidates import band_edges, caption_edges, distinct_hashes
from idf.stages.cc import connected_components
from idf.stages.plan import plan_stage
from idf.state.manifest import RunManifest


def _read(path: str, **kw) -> rd.Dataset:
    return rd.read_parquet(path, **kw)


def run_dedup(
    images_path: str,
    run_dir: str,
    cfg: DedupConfig | None = None,
    resume: bool = True,
    do_apply: bool = True,
    base_hashes_dir: str | None = None,
) -> RunManifest:
    """Run the dedup pipeline; ``base_hashes_dir`` makes it INCREMENTAL:
    ``images_path`` is only the NEW (delta) images, and the committed
    hashes stage of a previous run is unioned in unchanged — the decode
    (the expensive stage) runs over the delta alone, while distinct /
    banding / CC / plan recompute over the union, so the output is
    byte-identical to a full recompute over base∪delta (pinned by
    tests/test_incremental.py and the img_clusters_incr driver query).
    The delta's image_ids must be disjoint from the base's, and both
    runs must hash in the same mode (schemas are checked)."""
    cfg = cfg or DedupConfig()
    # resolve 'auto' ONCE so every downstream gate sees a bool; record
    # the decision in the manifest for observability
    from idf.stages.hash_stage import resolve_precomputed_cfg

    requested_mode = cfg.use_precomputed_phash
    cfg = resolve_precomputed_cfg(images_path, cfg)
    man = RunManifest(run_dir, resume=resume)

    # 1. decode + hash, FUSED with the read: each task streams its own
    # parquet fragments and emits only the small hash table, so the
    # bytes column never transits the object store (the r1 hash stage
    # was flat 8->32 CPUs because ~15 GB of encoded bytes crossed
    # plasma between ReadParquet and the decode operator)
    from idf.stages.hash_stage import fused_hash_stage, hash_schema

    def _build_hashes() -> rd.Dataset:
        delta = fused_hash_stage(images_path, cfg)
        if base_hashes_dir is None:
            return delta
        base_schema = pads.dataset(base_hashes_dir).schema
        delta_names = delta.schema().names
        if sorted(base_schema.names) != sorted(delta_names):
            raise RuntimeError(
                "incremental run hash-schema mismatch: base stage has "
                f"{base_schema.names}, delta produces {delta_names} — "
                "base and delta must hash in the same mode (pin "
                "use_precomputed_phash explicitly on both runs)"
            )
        # align column ORDER so the unioned stage writes one schema
        return _read(base_hashes_dir, columns=delta_names).union(delta)

    hashes_dir = man.run_stage("hashes", _build_hashes, empty_schema=hash_schema(cfg))
    ok_filter = pads.field("status") == "ok"

    # skip/ok counters -> manifest metrics (the reference's stderr skips,
    # M9). One local pyarrow scan of the single status column — a Ray
    # groupby job for a 3-value count was ~1s of fixed driver overhead.
    import pyarrow.compute as pc

    vc = pc.value_counts(
        pads.dataset(hashes_dir).to_table(columns=["status"])["status"].combine_chunks()
    )
    # actual mode of the COMMITTED stage (a resumed run may have been
    # produced under a different pin than this invocation's resolution):
    # only the precomputed path emits a verify column
    stage_precomputed = "verify" in pads.dataset(hashes_dir).schema.names
    man.record_metrics(
        "hashes",
        {
            "status_counts": {
                s.as_py(): n.as_py() for s, n in zip(vc.field("values"), vc.field("counts"))
            },
            "hash_mode": ("precomputed" if stage_precomputed else "decode")
            + ("(auto)" if requested_mode == "auto" else ""),
        },
    )

    # trust-but-verify gate (cfg.use_precomputed_phash): the hash stage
    # took the table's phash column and re-decoded only a content-keyed
    # sample; aggregate the per-row verify outcomes (one local scan of
    # the int8 column) into the manifest and FAIL the run if the column
    # lied more than the configured tolerance. A poisoned hash column
    # must be a loud failed run, never silently-wrong clusters.
    if cfg.use_precomputed_phash and stage_precomputed:
        vt = pads.dataset(hashes_dir).to_table(columns=["verify", "status"])
        v = vt["verify"].combine_chunks().to_numpy(zero_copy_only=False)
        n_ok = pc.sum(pc.equal(vt["status"], "ok")).as_py() or 0
        sampled = int((v > 0).sum())
        mismatched = int((v == 2).sum())
        if sampled == 0 and cfg.phash_verify_fraction > 0.0:
            # bytes-FREE scan (table ships a size column, so the main
            # pass read no bytes and could not verify in-batch): run the
            # standalone sampled-decode pass — row-group-aligned for
            # parquet, fragment-aligned for Lance (r4 verdict #1). Keyed
            # on the MODE (size column present), not on sampled==0 alone
            # — a bytes-present run whose tiny in-batch sample came up
            # empty must NOT fall into the standalone verify pass.
            is_lance = images_path.rstrip("/").endswith(".lance")
            bytes_free = False
            if is_lance:
                from idf.stages.hash_stage import _lance_schema_names

                bytes_free = "size" in (_lance_schema_names(images_path) or [])
            else:
                try:
                    bytes_free = "size" in pads.dataset(images_path).schema.names
                except Exception:
                    bytes_free = False
            prev = man.state["stages"].get("hashes", {}).get("metrics") or {}
            # a recorded result is only reusable if it sampled AT LEAST
            # this run's fraction: resuming with a raised
            # --verify-fraction (e.g. 1.0 after 0.01) must re-verify at
            # the new rate, not silently keep the old small sample
            # (r4 advice). Older manifests without the recorded fraction
            # are treated as fraction-unknown -> re-verify.
            prev_frac = prev.get("phash_verify_fraction_requested", -1.0)
            if (
                bytes_free
                and prev.get("phash_verified", 0) > 0
                and prev_frac >= cfg.phash_verify_fraction
            ):
                # resumed run: the standalone pass already paid its
                # sampled decode on a previous invocation — reuse the
                # manifest-recorded result instead of re-decoding
                # verify_fraction of the corpus on every resume
                sampled = prev["phash_verified"]
                mismatched = prev["phash_verify_mismatch"]
            elif bytes_free:
                from idf.stages.hash_stage import (
                    verify_precomputed_sample,
                    verify_precomputed_sample_lance,
                )

                verifier = (
                    verify_precomputed_sample_lance if is_lance else verify_precomputed_sample
                )
                vr = verifier(images_path, cfg)
                sampled = vr["phash_verified"]
                mismatched = vr["phash_verify_mismatch"]
        man.record_metrics(
            "hashes",
            {
                "phash_verified": sampled,
                "phash_verify_mismatch": mismatched,
                "phash_verified_fraction": (sampled / n_ok) if n_ok else 0.0,
                "phash_verify_fraction_requested": cfg.phash_verify_fraction,
            },
        )
        if mismatched > cfg.phash_verify_max_mismatch:
            raise RuntimeError(
                f"precomputed-phash verification failed: {mismatched} of "
                f"{sampled} sampled rows mismatched the real decode "
                f"(tolerance {cfg.phash_verify_max_mismatch}); the input "
                "table's phash column is not trustworthy — rerun with "
                "use_precomputed_phash=False"
            )

    # 2. exact-hash collapse over the int64 phash column only — id
    # strings stay out of the shuffle; dist-0 membership is recovered
    # by the CC stage's hashes join. Driver fast path below the guard
    # (one pyarrow column scan + pc.unique, ~0.1s where the Ray job
    # costs ~1s of fixed overhead); the distributed combiner+distinct
    # past it — the same cc_driver_max_edges guard as the CC stage.
    def _build_distinct():
        files = [p["file"] for p in man.state["stages"]["hashes"]["partitions"]]
        n_rows = sum(p["rows"] for p in man.state["stages"]["hashes"]["partitions"])
        if n_rows <= cfg.cc_driver_max_edges:
            tbl = pads.dataset([os.path.join(hashes_dir, f) for f in files]).to_table(
                columns=["phash"], filter=ok_filter
            )
            return pa.table({"phash": pc.unique(tbl["phash"].combine_chunks())})
        return distinct_hashes(
            _read(hashes_dir, columns=["phash", "status"], filter=ok_filter).drop_columns(
                ["status"]
            )
        )

    import pyarrow as pa

    distinct_dir = man.run_stage("distinct_hashes", _build_distinct)

    # 3. candidate edges. The same pair surfaces from many band keys,
    # so a global pair-dedup shuffle (parallel) keeps each edge output —
    # and the serial CC input — small. Banding and caption-LSH are
    # INDEPENDENT (both read committed upstream stages), so they run
    # concurrently: their barriers overlap and cores stay busy.
    # (Measured r2, sf0.1/32cpu: fusing both keyed-row sources into ONE
    # union + single sort ran 20.9s vs 9.3s for the two concurrent
    # sorts — Ray's sort all-to-all does not parallelize internally as
    # well as two overlapping jobs. Keep them separate.)
    from idf.stages.candidates import dedup_edges

    # Both stages run in INT-PAIR mode: post-collapse, id <-> phash is
    # 1:1, so only (key, phash) crosses the banding shuffles and the
    # outputs are (phash_a, phash_b, dist) int pairs — ~2.6x fewer
    # shuffle bytes and no per-bucket string factorize (measured 1.7x
    # at sf0.1/32cpu). CC runs on the hash graph; image membership
    # joins back through the hashes table inside the CC stage.
    # the distinct stage's driver fast path writes ONE small file, so a
    # plain read gives band_edges ONE input block and the key expansion
    # (68 output rows per hash — the pipeline's widest map) runs as a
    # single serial task: measured 3.5 s of the 32-CPU edge wall, pure
    # first-touch allocation on one core (r4 verdict #3's "~2 s/job
    # width-independent cost" was mostly THIS, not sort coordination).
    # Splitting the read lets the expansion fan out: 6.8 s -> 3.4 s
    # best-of-3 on the sf0.1 banding stage at 32 CPUs.
    from idf.ops import available_cpus
    from idf.stages.hash_stage import auto_num_blocks

    distinct_blocks = auto_num_blocks(distinct_dir, available_cpus())
    edge_stages = [
        (
            "edges_band",
            lambda: band_edges(
                _read(distinct_dir, override_num_blocks=distinct_blocks),
                cfg,
                int_pairs=True,
            ),
        )
    ]
    if cfg.caption_lsh:
        edge_stages.append(
            (
                "edges_caption",
                lambda: caption_edges(
                    _read(
                        hashes_dir,
                        columns=["phash", "caption", "status"],
                        filter=ok_filter,
                    ).drop_columns(["status"]),
                    cfg,
                    int_pairs=True,
                ),
            )
        )
    man.run_stages_concurrent(edge_stages)

    # 3b. pair-dedup of the raw edges — only when the raw list is big
    # enough that shrinking it (~25x at sf0.1) pays for its own shuffle.
    # CC is duplicate-invariant (union/min-label), so below the
    # threshold the raw edges feed CC directly. The decision re-derives
    # deterministically on resume (parquet footer row counts).
    from idf.stages.cc import count_edge_rows

    raw_edge_dirs = [man.stage_dir("edges_band")] + (
        [man.stage_dir("edges_caption")] if cfg.caption_lsh else []
    )
    if count_edge_rows(raw_edge_dirs) > cfg.edge_dedup_min_rows:
        dedup_stages = [
            (f"{os.path.basename(d)}_dedup", lambda d=d: dedup_edges(_read(d), int_pairs=True))
            for d in raw_edge_dirs
        ]
        man.run_stages_concurrent(dedup_stages)
        edge_dirs = [man.stage_dir(f"{os.path.basename(d)}_dedup") for d in raw_edge_dirs]
    else:
        edge_dirs = raw_edge_dirs

    # 4. connected components over the INT phash graph -> clusters.
    #    Exact-dup (dist-0) membership needs no edges at all: every ok
    #    image joins its phash's component inside the CC stage, and a
    #    phash with >= 2 images forms a cluster even with no band edge;
    #    singletons drop (Commands.java:149-151 analog).
    clusters_dir = man.run_stage(
        "clusters",
        lambda: connected_components(cfg, list(edge_dirs), hashes_dir),
    )

    # 5. keeper election (driver fast path below 10M members, else the
    # distributed broadcast-join + bucketed election)
    from idf.stages.plan import plan_stage_files

    def _build_plan() -> rd.Dataset:
        fast = plan_stage_files(clusters_dir, hashes_dir)
        if fast is not None:
            return fast
        return plan_stage(
            _read(clusters_dir),
            _read(hashes_dir, columns=["image_id", "pixels", "size"]),
        )

    man.run_stage("plan", _build_plan)

    # 6. apply: keepers/quarantine partition of the input images, one
    # tagging pass and one partitioned write committed as two stages
    if do_apply:
        apply_plan(man, images_path)
    return man


def read_stage(run_dir: str, name: str) -> rd.Dataset:
    return rd.read_parquet(os.path.join(run_dir, name))

"""End-to-end near-duplicate pipeline (the flagship).

Shape (SURVEY §3, re-expressed). A parquet run below the apply
broadcast guard runs no Ray Data job: the hash and apply passes are
plain tasks that read and write their own files, and every shuffle runs
on object refs:

  per read unit (plan_read_tasks, pruned columns)
    -> one read+decode+hash task, writing its own file [hashes]
    -> per-block unique -> exchange(phash) unique     [distinct_hashes]
    -> key expansion in the split -> exchange(key)    [edges_band]
    (-> exchange(pair) min dist, above edge_dedup_min_rows)
                                                      [edges_band_dedup]
    -> edges+hashes co-partition exchange(phash), one
       superstep task per partition per labelprop round,
       label in place -> emit exchange(component)       [clusters]
    -> driver keeper election (distributed above 10M) [plan]
    -> per read unit: one task tags keep/quarantine against the
       broadcast DELETE ids and writes both sides      [apply]

Every refs stage sizes its ``ops.exchange_refs`` by its input bytes
(``ops.exchange_width``): the split tasks read the committed input
files themselves and the reduce tasks write one file per non-empty
partition (in ``clusters`` the co-partitioning exchange reads and the
emit exchange writes), so the stage launches one task per partition at
each end and records both counts (``exchange_parts``, ``split_tasks``)
in its metrics. The exchange is the one shuffle engine at every size:
its slices spill through the object store. Above ``BROADCAST_MAX_IDS``
DELETE ids apply tags with a ``hash_join`` over Ray Data reads; Lance
and loose-file sources hash and apply with Ray Data.

Every stage commits a partitioned Parquet directory through the run
manifest (atomic rename + per-partition lineage + metrics); a rerun
resumes after the last committed stage. The ``bytes`` column never
crosses a shuffle below the apply broadcast guard: it is read only by
the hash stage and the apply pass (memory-mapped, ``ops.open_parquet``),
which writes it once, without a codec when the input's codec saved
nothing on it (``stages.apply.column_codecs``).
"""

from __future__ import annotations

import os

import pyarrow.dataset as pads
import ray.data as rd

from idf.config import DedupConfig
from idf.stages.apply import apply_plan
from idf.stages.candidates import band_edges, band_shuffle_factor, dedup_edges, distinct_hashes
from idf.stages.cc import connected_components
from idf.stages.plan import plan_stage
from idf.state.manifest import RunManifest, write_output


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
    from idf.ops import rewrite_files, wait_all
    from idf.stages.hash_stage import fused_hash_stage, hash_schema

    def _build_hashes():
        delta = fused_hash_stage(images_path, cfg)
        if base_hashes_dir is None:
            return delta
        base = pads.dataset(base_hashes_dir)
        names = hash_schema(cfg).names
        if sorted(base.schema.names) != sorted(names):
            raise RuntimeError(
                "incremental run hash-schema mismatch: base stage has "
                f"{base.schema.names}, delta produces {names} — "
                "base and delta must hash in the same mode (pin "
                "use_precomputed_phash explicitly on both runs)"
            )

        def write(tmp: str) -> None:
            # one task per base file, in the delta's column ORDER so
            # the unioned stage holds one schema; the tasks run beside
            # the delta's hash tasks
            refs = rewrite_files(sorted(base.files), names, tmp, "base")
            try:
                write_output(delta, tmp)
            finally:
                wait_all(refs)

        return write

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
        # verified = decoded and compared (1 match, 2 mismatch); a null
        # `bytes` cell (3) was sampled but never decoded
        sampled = int(((v == 1) | (v == 2)).sum())
        mismatched = int((v == 2).sum())
        no_bytes = int((v == 3).sum())
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
                no_bytes = prev.get("phash_verify_no_bytes", 0)
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
                no_bytes = vr["phash_verify_no_bytes"]
        man.record_metrics(
            "hashes",
            {
                "phash_verified": sampled,
                "phash_verify_mismatch": mismatched,
                "phash_verify_no_bytes": no_bytes,
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
        if no_bytes > cfg.phash_verify_max_mismatch:
            raise RuntimeError(
                f"precomputed-phash verification failed: {no_bytes} of "
                f"{sampled + no_bytes} sampled rows have a null `bytes` cell, so "
                f"their phash could not be checked (tolerance "
                f"{cfg.phash_verify_max_mismatch}); the input table's bytes "
                "column is missing images"
            )

    # The shuffle stages below run on plain tasks, no Ray Data job
    # between the hashes and apply stages: the split tasks read the
    # committed input files themselves and the reduce tasks write the
    # stage's files, so no read or write wave of its own runs and only
    # row counts return to the driver. The lineage bytes size each
    # exchange (``exchange_width``), and at most that many split tasks
    # read the input; the build records both in the stage metrics (read
    # at commit, so a resumed run records none).
    from idf.ops import FileSlice, available_cpus, exchange_width, file_inputs

    def _stage_input(name, columns, metrics, filter=None, factor=1, fan_out=False):
        parts = man.state["stages"][name]["partitions"]
        files = [
            FileSlice(os.path.join(man.stage_dir(name), p["file"]), columns, filter) for p in parts
        ]
        n_parts = exchange_width(factor * sum(p["bytes"] for p in parts), available_cpus())
        inputs = file_inputs(files, n_parts, slice_rows=fan_out)
        metrics.update(exchange_parts=n_parts, split_tasks=len(inputs))
        return inputs, n_parts

    # 2. exact-hash collapse over the int64 phash column only — id
    # strings stay out of the shuffle; dist-0 membership is recovered
    # by the CC stage's hashes join. Driver fast path below the guard
    # (one pyarrow column scan + pc.unique, ~0.1s where the Ray job
    # costs ~1s of fixed overhead); the distributed combiner+distinct
    # past it — the same cc_driver_max_edges guard as the CC stage.
    distinct_metrics: dict = {}

    def _build_distinct():
        files = [p["file"] for p in man.state["stages"]["hashes"]["partitions"]]
        n_rows = sum(p["rows"] for p in man.state["stages"]["hashes"]["partitions"])
        if n_rows <= cfg.cc_driver_max_edges:
            tbl = pads.dataset([os.path.join(hashes_dir, f) for f in files]).to_table(
                columns=["phash"], filter=ok_filter
            )
            return pa.table({"phash": pc.unique(tbl["phash"].combine_chunks())})
        src, n = _stage_input("hashes", ["phash"], distinct_metrics, filter=ok_filter)
        return lambda tmp: wait_all(distinct_hashes(src, n, out_dir=tmp))

    import pyarrow as pa

    distinct_dir = man.run_stage("distinct_hashes", _build_distinct, metrics=distinct_metrics)

    # 3. candidate edges: pigeonhole banding is exact (recall 1.0
    # within the radius), so it is the one edge source. It runs in
    # INT-PAIR mode: post-collapse, id <-> phash is 1:1, so only
    # (key, phash) crosses the banding shuffle and the output is
    # (phash_a, phash_b, dist) int pairs — ~2.6x fewer shuffle bytes
    # and no per-bucket string factorize (measured 1.7x at
    # sf0.1/32cpu). CC runs on the hash graph; image membership joins
    # back through the hashes table inside the CC stage.
    #
    # The exchange is sized by the EXPANDED bytes (band_shuffle_factor:
    # 68 key rows per hash), and the split fans out to that width: the
    # distinct stage's driver fast path writes ONE small file, and one
    # split task would run the expansion — the pipeline's widest map —
    # serially on one core (measured 3.5 s of the 32-CPU edge wall at
    # sf0.1; a split read measured 6.8 s -> 3.4 s best-of-3). Each split
    # task reads its own row slice of the file.
    band_metrics: dict = {}

    def _build_band():
        factor = band_shuffle_factor(cfg)
        src, n = _stage_input("distinct_hashes", ["phash"], band_metrics, factor=factor, fan_out=True)
        return lambda tmp: wait_all(band_edges(src, cfg, int_pairs=True, n_parts=n, out_dir=tmp))

    raw_edges_dir = man.run_stage("edges_band", _build_band, metrics=band_metrics)

    # 3b. pair-dedup of the raw edges — only when the raw list is big
    # enough that shrinking it (~25x at sf0.1) pays for its own shuffle.
    # CC is duplicate-invariant (union/min-label), so below the
    # threshold the raw edges feed CC directly. The decision re-derives
    # deterministically on resume (parquet footer row counts).
    from idf.stages.cc import count_edge_rows

    dedup_metrics: dict = {}

    def _build_edge_dedup():
        src, n = _stage_input("edges_band", ["phash_a", "phash_b", "dist"], dedup_metrics)
        return lambda tmp: wait_all(dedup_edges(src, int_pairs=True, n_parts=n, out_dir=tmp))

    edges_dir = raw_edges_dir
    if count_edge_rows([raw_edges_dir]) > cfg.edge_dedup_min_rows:
        edges_dir = man.run_stage("edges_band_dedup", _build_edge_dedup, metrics=dedup_metrics)

    # 4. connected components over the INT phash graph -> clusters.
    #    Exact-dup (dist-0) membership needs no edges at all: every ok
    #    image joins its phash's component inside the CC stage, and a
    #    phash with >= 2 images forms a cluster even with no band edge;
    #    singletons drop (Commands.java:149-151 analog). The build
    #    fills the stage metrics with the CC route it took; run_stage
    #    reads them at commit, so a resumed run records none.
    from idf.stages.cc import CC_STATS

    cc_metrics: dict = {}

    def _build_clusters():
        out = connected_components(cfg, [edges_dir], hashes_dir, metrics=cc_metrics)
        cc_metrics.update(
            cc_route=CC_STATS["route"],
            labelprop_rounds=CC_STATS["labelprop_rounds"],
            converged=CC_STATS["converged"],
        )
        return out

    clusters_dir = man.run_stage("clusters", _build_clusters, metrics=cc_metrics)

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

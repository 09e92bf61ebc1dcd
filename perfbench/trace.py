"""Traced run: spans around the calls into each layer, per-layer counts
from the committed run directory, and kernel rates measured directly.

Spans are recorded from this file only, by wrapping
``RunManifest.run_stage`` / ``run_stages_concurrent`` and the two
connected-components routes for the duration of one traced run; the
program itself is not instrumented. Spans stay in memory and are written
out when the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import threading
import time

import numpy as np

# Stages whose manifest counts are reported (absent stages read as 0).
STAGES = (
    "hashes",
    "distinct_hashes",
    "edges_band",
    "edges_caption",
    "edges_band_dedup",
    "edges_caption_dedup",
    "clusters",
    "plan",
    "apply_keep",
    "apply_quarantine",
)
# ``idf.codecs.sniff`` kinds in the synthetic corpus, by metric name.
# The generator writes no BMP rows, so BMP has no rate here.
CODECS = {"fjpg": "jpg", "png": "png", "jfif": "jfif"}
# Kernel-rate sample: rows per codec, and the minimum seconds each rate
# is timed for.
SAMPLE_ROWS = 32
RATE_MIN_S = 0.3


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: str | None
    run_id: str


class Tracer:
    """In-memory span recorder. Stages that run in worker threads (the
    concurrent edge stages) take the innermost span open on the calling
    thread as their parent."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[str] = []

    def _stack(self) -> list[str]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        stack.append(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(name, t0, t1, parent, self.run_id))

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump([dataclasses.asdict(s) for s in self.spans], f, indent=1)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap the layer entry points for the duration of the block."""
    import idf.stages.cc as cc
    from idf.state.manifest import RunManifest

    saved = [
        (RunManifest, "run_stage"),
        (RunManifest, "run_stages_concurrent"),
        (cc, "components_phash_driver"),
        (cc, "components_phash_labelprop"),
    ]
    originals = [getattr(owner, attr) for owner, attr in saved]
    run_stage, run_concurrent, cc_driver, cc_labelprop = originals

    def traced_run_stage(self, name, build, *a, **kw):
        with tracer.span(f"state.manifest.{name}"):
            return run_stage(self, name, build, *a, **kw)

    def traced_concurrent(self, stages):
        with tracer.span("state.manifest.concurrent:" + "+".join(n for n, _ in stages)):
            return run_concurrent(self, stages)

    def traced_cc(route, fn):
        def wrapper(*a, **kw):
            with tracer.span(f"stages.cc.{route}"):
                return fn(*a, **kw)

        return wrapper

    RunManifest.run_stage = traced_run_stage
    RunManifest.run_stages_concurrent = traced_concurrent
    cc.components_phash_driver = traced_cc("driver", cc_driver)
    cc.components_phash_labelprop = traced_cc("labelprop", cc_labelprop)
    try:
        yield
    finally:
        for (owner, attr), orig in zip(saved, originals):
            setattr(owner, attr, orig)


def union_seconds(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end) intervals (concurrent stage
    spans count once)."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def optional_counters() -> dict:
    """Process-global counters that a later cleanup may delete; each is
    read only if it still exists."""
    out = {}
    try:
        from idf.ops import EXCHANGE_STATS

        out["ops.exchange_calls"] = EXCHANGE_STATS["exchange"]
        out["ops.sort_calls"] = EXCHANGE_STATS["sort"]
    except (ImportError, KeyError):
        pass
    try:
        from idf.stages.cc import CC_STATS

        out["stages.cc.labelprop_rounds"] = CC_STATS["labelprop_rounds"] or 0
    except (ImportError, KeyError):
        pass
    return out


def _table(path: str, columns: list[str] | None = None):
    import pyarrow.dataset as pads

    return pads.dataset(path, format="parquet").to_table(columns=columns)


def timed_rate(fn, items: list, min_s: float = RATE_MIN_S) -> float:
    """Items per second of ``fn`` applied to each item, repeated over the
    whole list until at least ``min_s`` has passed."""
    if not items:
        return 0.0
    n, t0 = 0, time.perf_counter()
    while True:
        for x in items:
            fn(x)
        n += len(items)
        dt = time.perf_counter() - t0
        if dt >= min_s:
            return n / dt


def kernel_rates(images_path: str, seed: int) -> dict:
    """Codec and kernel throughputs on a seeded sample of the corpus rows,
    called directly in this process the way the hash stage calls them:
    ``decode_luma_scaled`` per codec, ``preprocess`` (``luma601_u8`` +
    ``bilinear_resize``) on its output, ``hash_gray_batch`` on the stack."""
    from idf.codecs import DecodeError, decode_luma_scaled, sniff
    from idf.kernels.hashes import DECODE_MIN_DIM, hash_gray_batch, preprocess, resize_dims

    min_dim = DECODE_MIN_DIM["phash"]
    h, w = resize_dims("phash")
    blobs = _table(images_path, ["bytes"])["bytes"].to_pylist()
    by_kind: dict[str, list[bytes]] = {}
    for i in np.random.default_rng(seed).permutation(len(blobs)):
        kind = sniff(blobs[i][:8])
        if kind is not None and len(by_kind.setdefault(kind, [])) < SAMPLE_ROWS:
            by_kind[kind].append(blobs[i])

    def scaled_luma(data: bytes):
        try:
            return decode_luma_scaled(data, min_dim=min_dim)[0]
        except DecodeError:
            return None

    out = {}
    grays = []
    for name, kind in CODECS.items():
        sample = [b for b in by_kind.get(kind, []) if scaled_luma(b) is not None]
        out[f"codecs.{name}.items_per_s"] = timed_rate(
            lambda b: decode_luma_scaled(b, min_dim=min_dim), sample
        )
        grays += [scaled_luma(b) for b in sample]
    out["kernels.resize.items_per_s"] = timed_rate(lambda g: preprocess(g, h, w), grays)
    stack = [np.stack([preprocess(g, h, w) for g in grays])] if grays else []
    out["kernels.phash.items_per_s"] = timed_rate(
        lambda s: hash_gray_batch(s, "phash"), stack
    ) * len(grays)
    return out


def _kinds_by_id(images_path: str) -> dict[str, str | None]:
    from idf.codecs import sniff

    t = _table(images_path, ["image_id", "bytes"])
    return {i: sniff(b[:8]) for i, b in zip(t["image_id"].to_pylist(), t["bytes"].to_pylist())}


def layer_metrics(tracer: Tracer, man, cfg, images_path: str, meta: dict, rates: dict,
                  counters_before: dict) -> dict:
    """Per-layer numbers of one traced run, from its spans, its committed
    stage outputs and ``manifest.json``."""
    import pyarrow.compute as pc

    from idf.stages.candidates import BandExpander

    stages = man.state["stages"]
    run_dir = man.run_dir
    m: dict[str, float] = {}

    # pipelines.dedup: wall and self time (wall minus the union of the
    # top-level stage spans, i.e. status scans, guards and lineage)
    (root,) = [s for s in tracer.spans if s.name == "pipelines.dedup"]
    wall = root.end - root.start
    stage_spans = [s for s in tracer.spans if s.name.startswith("state.manifest.")
                   and not s.name.startswith("state.manifest.concurrent")]
    m["pipelines.dedup.wall_s"] = wall
    m["pipelines.dedup.self_s"] = wall - union_seconds([(s.start, s.end) for s in stage_spans])

    # state.manifest: per-stage span seconds and committed counts
    span_s = {s.name[len("state.manifest."):]: s.end - s.start for s in stage_spans}
    for name in STAGES:
        info = stages.get(name, {})
        parts = info.get("partitions", [])
        m[f"state.manifest.{name}.s"] = span_s.get(name, 0.0)
        m[f"state.manifest.{name}.rows"] = info.get("rows", 0)
        m[f"state.manifest.{name}.bytes"] = sum(p["bytes"] for p in parts)
        m[f"state.manifest.{name}.files"] = len(parts)

    # stages.hash_stage: row outcomes, verify sample and route taken
    hm = stages["hashes"].get("metrics", {})
    counts = hm.get("status_counts", {})
    m["stages.hash_stage.rows_ok"] = counts.get("ok", 0)
    m["stages.hash_stage.rows_skipped"] = sum(n for s, n in counts.items() if s != "ok")
    m["stages.hash_stage.verify_sampled"] = hm.get("phash_verified", 0)
    precomputed = str(hm.get("hash_mode", "")).startswith("precomputed")
    m["stages.hash_stage.route"] = 1 if precomputed else 0

    # codecs + kernels: rows each codec decoded in the hashes stage (all
    # ok rows on the decode route, the verify sample on the trusted one),
    # the measured rates, and the share of the hashes span they explain
    ht = _table(os.path.join(run_dir, "hashes"))
    decoded = pc.equal(ht["status"], "ok")
    if "verify" in ht.column_names:
        decoded = pc.and_(decoded, pc.greater(ht["verify"], 0))
    ids = ht.filter(decoded)["image_id"].to_pylist()
    kinds = _kinds_by_id(images_path)
    explained = 0.0
    for name, kind in CODECS.items():
        n = sum(1 for i in ids if kinds.get(i) == kind)
        rate = rates[f"codecs.{name}.items_per_s"]
        m[f"codecs.{name}.rows"] = n
        m[f"codecs.{name}.items_per_s"] = rate
        explained += n / rate if rate else 0.0
    for k in ("kernels.resize.items_per_s", "kernels.phash.items_per_s"):
        m[k] = rates[k]
        explained += len(ids) / rates[k] if rates[k] else 0.0
    hs = span_s.get("hashes", 0.0)
    m["stages.hash_stage.explained_share"] = explained / hs if hs else 0.0

    # stages.candidates: banding skew over the distinct hashes (through
    # the public BandExpander), raw and deduplicated edge counts, and the
    # useful-edge ratio (oracle near-dup hash pairs / raw edges)
    distinct = _table(os.path.join(run_dir, "distinct_hashes"), ["phash"])
    keys = BandExpander(cfg, with_ids=False)(distinct)["key"]
    bucket_rows = pc.value_counts(keys).field("counts").to_numpy() if len(keys) else np.zeros(0)
    m["stages.candidates.distinct_hashes"] = distinct.num_rows
    m["stages.candidates.band_key_rows"] = len(keys)
    m["stages.candidates.max_bucket_rows"] = int(bucket_rows.max()) if len(bucket_rows) else 0
    m["stages.candidates.buckets_over_cap"] = int((bucket_rows > cfg.bucket_cap).sum())
    raw_edges = 0
    pairs = set()
    for src in ("edges_band", "edges_caption"):
        n = stages.get(src, {}).get("rows", 0)
        m[f"stages.candidates.{src}.raw"] = n
        raw_edges += n
        if src in stages:
            e = _table(os.path.join(run_dir, src), ["phash_a", "phash_b"])
            a = e["phash_a"].to_numpy()
            b = e["phash_b"].to_numpy()
            pairs.update(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))
    m["stages.candidates.edges_deduped"] = len(pairs)
    m["stages.candidates.useful_edge_ratio"] = (
        meta["near_dup_hash_pairs"] / raw_edges if raw_edges else 0.0
    )

    # ops / stages.cc counters that may not exist any more (see
    # optional_counters): per-run deltas where they do
    after = optional_counters()
    for k in ("ops.exchange_calls", "ops.sort_calls"):
        if k in after:
            m[k] = after[k] - counters_before.get(k, 0)

    # stages.cc: route taken, input edges, output clusters and members
    cc_routes = {s.name for s in tracer.spans if s.name.startswith("stages.cc.")}
    labelprop = "stages.cc.labelprop" in cc_routes
    m["stages.cc.route"] = 1 if labelprop else 0
    dedup_ran = "edges_band_dedup" in stages
    m["stages.cc.edges_in"] = sum(
        stages.get(n + ("_dedup" if dedup_ran else ""), {}).get("rows", 0)
        for n in ("edges_band", "edges_caption")
    )
    cl = _table(os.path.join(run_dir, "clusters"), ["cluster_id"])
    m["stages.cc.clusters"] = len(pc.unique(cl["cluster_id"]))
    m["stages.cc.members"] = cl.num_rows
    if "stages.cc.labelprop_rounds" in after:
        m["stages.cc.labelprop_rounds"] = after["stages.cc.labelprop_rounds"] if labelprop else 0

    # stages.plan / stages.apply
    plan = _table(os.path.join(run_dir, "plan"), ["action"])["action"]
    m["stages.plan.keepers"] = pc.sum(pc.equal(plan, "KEEP")).as_py() or 0
    m["stages.plan.deletes"] = pc.sum(pc.equal(plan, "DELETE")).as_py() or 0
    m["stages.apply.bytes_written"] = (
        m["state.manifest.apply_keep.bytes"] + m["state.manifest.apply_quarantine.bytes"]
    )
    m["stages.apply.rows_kept"] = m["state.manifest.apply_keep.rows"]
    m["stages.apply.rows_quarantined"] = m["state.manifest.apply_quarantine.rows"]
    return m

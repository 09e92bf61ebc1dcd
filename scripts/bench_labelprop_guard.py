"""Above-guard CC evidence (r4 verdict #7).

Every BENCH number so far ran the clusters stage on the driver
fast path (edge counts at sf0.1 sit far below
``cfg.cc_driver_max_edges``). This script exercises the distributed
path the guard would dispatch to at 100-TB edge volumes — running with
``cc_driver_max_edges=0`` takes the *same* branch in
``connected_components`` (idf/stages/cc.py) as any graph with
``count_edge_rows > cc_driver_max_edges``, so it is the honest
single-box stand-in for an above-guard run.

Records, as one JSON line:
  - full-pipeline wall + clusters-stage wall for both CC routes
  - labelprop propagation rounds + convergence (CC_STATS)
  - whether the two cluster partitions are byte-identical after
    canonical (cluster_id, image_id) sort — the correctness claim.

Run:  python scripts/bench_labelprop_guard.py [sf_dir]
(RAY_GRAFT_CPUS sets the Ray CPU count; default: all of this host's.)
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def clusters_digest(run_dir: str) -> tuple[str, int]:
    import pyarrow.dataset as pads

    t = pads.dataset(os.path.join(run_dir, "clusters")).to_table(
        columns=["cluster_id", "image_id"]
    )
    t = t.sort_by([("cluster_id", "ascending"), ("image_id", "ascending")])
    h = hashlib.sha256()
    h.update(json.dumps(t.to_pydict(), sort_keys=True).encode())
    return h.hexdigest(), len(t)


def stage_wall(run_dir: str, name: str) -> float | None:
    try:
        with open(os.path.join(run_dir, "manifest.json")) as f:
            return json.load(f)["stages"][name]["wall_sec"]
    except Exception:
        return None


def main() -> None:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.1"
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", os.cpu_count()))

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from idf.config import DedupConfig
    from idf.pipelines.dedup import run_dedup
    from idf.stages import cc
    from idf.synth import ensure_images_cache

    images = ensure_images_cache(sf_dir)
    out: dict = {"metric": "cc_above_guard", "sf_dir": sf_dir, "num_cpus": num_cpus}
    digests: dict[str, str] = {}
    # the default guard keeps these graphs on the driver; 0 puts any
    # non-empty edge list above it
    for mode, cfg in (
        ("driver", DedupConfig(use_precomputed_phash=False)),
        ("labelprop", DedupConfig(use_precomputed_phash=False, cc_driver_max_edges=0)),
    ):
        run_dir = f"/tmp/idf_bench/ccguard_{mode}"
        shutil.rmtree(run_dir, ignore_errors=True)
        t0 = time.time()
        run_dedup(
            images,
            run_dir,
            cfg,
            resume=False,
            do_apply=False,
        )
        wall = time.time() - t0
        digest, n_rows = clusters_digest(run_dir)
        digests[mode] = digest
        out[mode] = {
            "pipeline_wall_sec": round(wall, 3),
            "clusters_stage_sec": stage_wall(run_dir, "clusters"),
            "cluster_rows": n_rows,
        }
        if mode == "labelprop":
            out[mode]["labelprop_rounds"] = cc.CC_STATS["labelprop_rounds"]
            out[mode]["converged"] = cc.CC_STATS["converged"]
    out["clusters_match"] = digests["driver"] == digests["labelprop"]
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()

"""Platform scaling ceiling probe — NO Ray involved.

Measures how the raw decode+hash kernel (the pipeline's dominant
compute) scales with plain multiprocessing workers on this machine.
This isolates the HARDWARE component of the 8-vs-32-process scaling
number: if pure kernel work stops scaling past ~8-16 processes, the
binding constraint is the box's DRAM bandwidth / hypervisor, not the
engine's orchestration. On a real multi-node cluster each node brings
its own memory controllers, so the cross-node analog of this ceiling
does not exist — which is why BENCH/BASELINE.md reports the 4-vs-16
pair (where one box's bandwidth is not saturated) as the N-vs-4N
evidence.

Usage: python scripts/platform_scaling_probe.py [sf_dir] [n_images] [--procs 4,8,16,32]
``--procs`` lists the worker-process counts to measure, in order
(default 4,8,16,32). Prints one JSON line:
{"images_per_sec": {p: images_per_sec}, ...}.
"""

from __future__ import annotations

import argparse
import glob
import json
import multiprocessing as mp
import os
import sys
import time

_BLOBS: list[bytes] = []  # fork-inherited, read-only


def _work(span: tuple[int, int]) -> int:
    from idf.kernels.hashes import DECODE_MIN_DIM, hash_gray_batch, preprocess, resize_dims

    from idf.codecs import DecodeError, decode_luma_scaled

    dims = resize_dims("phash")
    lo, hi = span
    import numpy as np

    grays = np.zeros((hi - lo, *dims), dtype=np.uint8)
    n_ok = 0
    for i in range(lo, hi):
        try:
            gray, _, _ = decode_luma_scaled(_BLOBS[i], min_dim=DECODE_MIN_DIM["phash"])
        except DecodeError:
            continue
        grays[n_ok] = preprocess(gray, *dims)
        n_ok += 1
    if n_ok:
        hash_gray_batch(grays[:n_ok], "phash")
    return n_ok


def _procs_list(text: str) -> list[int]:
    procs = [int(p) for p in text.split(",") if p.strip()]
    if not procs or min(procs) < 1:
        raise argparse.ArgumentTypeError(f"--procs wants positive counts, got {text!r}")
    return procs


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sf_dir", nargs="?", default="/root/testdata/sf0.1")
    ap.add_argument("n_images", nargs="?", type=int, default=60000)
    ap.add_argument("--procs", type=_procs_list, default=[4, 8, 16, 32])
    args = ap.parse_args()
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

    import pyarrow.dataset as pads

    from idf.synth import ensure_images_cache

    images = ensure_images_cache(args.sf_dir)
    files = sorted(glob.glob(os.path.join(images, "*.parquet")))
    t = pads.dataset(files).head(args.n_images, columns=["bytes"])
    _BLOBS.extend(v.as_py() for v in t["bytes"])
    n = len(_BLOBS)

    results: dict[int, float] = {}
    for procs in args.procs:
        chunk = (n + 4 * procs - 1) // (4 * procs)
        spans = [(i, min(i + chunk, n)) for i in range(0, n, chunk)]
        with mp.get_context("fork").Pool(procs) as pool:
            pool.map(_work, spans[:1])  # warm the pool (imports, LUTs)
            t0 = time.time()
            done = sum(pool.map(_work, spans))
            wall = time.time() - t0
        results[procs] = round(done / wall, 1)
    base_p, base_r = min(results), results[min(results)]
    effs = {
        f"{base_p}->{p}": round((r / base_r) / (p / base_p), 3)
        for p, r in results.items()
        if p != base_p
    }
    print(
        json.dumps(
            {
                "metric": "no_ray_decode_scaling",
                "n_images": n,
                "images_per_sec": results,
                "efficiency_vs_smallest": effs,
            }
        )
    )


if __name__ == "__main__":
    main()

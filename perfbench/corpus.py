"""Seeded benchmark corpus and its oracle expectation, built once per seed.

Run as a script, this builds one corpus directory in a process of its
own (so corpus generation never inflates the timed driver's peak RSS):

    python3 perfbench/corpus.py --out DIR --seed N --rows R

The directory holds:

- ``images.parquet``: the full ``input_hint`` table
  ``(image_id, bytes, w, h, fmt, caption, phash)`` from
  ``idf.synth.generate_family(i, seed)`` for i = 0, 1, ... until R rows
  exist, cut to exactly R rows (a fixed row count keeps images/s
  comparable across seeds);
- ``raw.parquet``: the projection ``(image_id, bytes, fmt, caption)`` of
  the same rows, which has no ``(w, h, phash)`` columns and so makes the
  pipeline decode;
- ``warm_raw.parquet``: the first ``WARMUP_ROWS`` rows of the
  projection, the untimed warm-up input of every workload;
- ``expect_plan.parquet``: the oracle plan ``(cluster_id, action,
  image_id, reason)`` from ``idf.oracle``;
- ``meta.json``: row/family/byte counts, generation and oracle seconds,
  and the number of distinct-hash pairs within the Hamming radius.

The cache key is (``idf.synth.CACHE_TAG``, seed, rows), so a generator
change or another seed never reuses a stale corpus.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import pyarrow as pa
import pyarrow.parquet as pq

RAW_COLUMNS = ["image_id", "bytes", "fmt", "caption"]
PLAN_COLUMNS = ["cluster_id", "action", "image_id", "reason"]
# small row groups split the read into several fragments, as a real
# multi-file corpus would be
ROW_GROUP_ROWS = 128
# rows of the warm-up input: enough to start a worker, import the
# pipeline there and run every stage, cheap to repeat
WARMUP_ROWS = 48


def corpus_dir(work_dir: str, seed: int, rows: int) -> str:
    from idf.synth import CACHE_TAG

    return os.path.join(work_dir, "corpus", f"{CACHE_TAG}_seed{seed}_rows{rows}")


def ensure_corpus(root: str, work_dir: str, seed: int, rows: int) -> str:
    """Return the cached corpus directory, building it first if absent."""
    out = corpus_dir(work_dir, seed, rows)
    if os.path.exists(os.path.join(out, "meta.json")):
        return out
    env = dict(os.environ, PYTHONPATH=root)
    cmd = [sys.executable, os.path.abspath(__file__), "--out", out]
    cmd += ["--seed", str(seed), "--rows", str(rows)]
    subprocess.run(cmd, env=env, check=True, stdout=sys.stderr)
    return out


def load_meta(corpus: str) -> dict:
    with open(os.path.join(corpus, "meta.json")) as f:
        return json.load(f)


def load_expected_plan(corpus: str) -> set[tuple[str, str, str, str]]:
    t = pq.read_table(os.path.join(corpus, "expect_plan.parquet"))
    return set(zip(*(t[c].to_pylist() for c in PLAN_COLUMNS)))


def generate(seed: int, rows: int) -> tuple[pa.Table, int]:
    from idf.synth import SCHEMA, generate_family

    out: list[dict] = []
    families = 0
    while len(out) < rows:
        out.extend(generate_family(families, seed))
        families += 1
    return pa.Table.from_pylist(out[:rows], schema=SCHEMA), families


def oracle_expectation(table: pa.Table, radius: int) -> tuple[list[tuple], int]:
    """Oracle plan rows and the count of near-duplicate distinct-hash
    pairs. Components run over DISTINCT hashes (the brute-force oracle's
    dense distance matrix over every image id would not fit at corpus
    scale) and membership is expanded back to image ids afterwards."""
    import numpy as np

    from idf.kernels import pairwise_hamming
    from idf.oracle import oracle_components, oracle_hash_stage, oracle_plan

    oh = oracle_hash_stage(table)
    ids_by_hash: dict[int, list[str]] = {}
    for image_id, h in oh.id2hash.items():
        ids_by_hash.setdefault(h, []).append(image_id)
    hash_comps = oracle_components({str(h): h for h in ids_by_hash}, radius)
    comps = [
        frozenset(i for h in comp for i in ids_by_hash[int(h)]) for comp in hash_comps
    ]
    plan = oracle_plan(comps, oh.meta)
    distinct = np.array(sorted(ids_by_hash), dtype=np.uint64)
    dist = pairwise_hamming(distinct, distinct)
    near_pairs = int((np.triu(dist <= radius, k=1)).sum())
    return plan, near_pairs


def build(out: str, seed: int, rows: int) -> None:
    from idf.config import DedupConfig
    from idf.synth import CACHE_TAG

    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    t0 = time.perf_counter()
    table, families = generate(seed, rows)
    gen_s = time.perf_counter() - t0
    images = os.path.join(tmp, "images.parquet")
    raw = os.path.join(tmp, "raw.parquet")
    pq.write_table(table, images, row_group_size=ROW_GROUP_ROWS)
    pq.write_table(table.select(RAW_COLUMNS), raw, row_group_size=ROW_GROUP_ROWS)
    warm = table.slice(0, WARMUP_ROWS).select(RAW_COLUMNS)
    pq.write_table(warm, os.path.join(tmp, "warm_raw.parquet"))
    t0 = time.perf_counter()
    plan, near_pairs = oracle_expectation(table, DedupConfig().radius)
    oracle_s = time.perf_counter() - t0
    plan_tbl = pa.table({c: [r[i] for r in plan] for i, c in enumerate(PLAN_COLUMNS)},
                        schema=pa.schema([(c, pa.string()) for c in PLAN_COLUMNS]))
    pq.write_table(plan_tbl, os.path.join(tmp, "expect_plan.parquet"))
    meta = {
        "cache_tag": CACHE_TAG,
        "seed": seed,
        "rows": table.num_rows,
        "families": families,
        "images_bytes": os.path.getsize(images),
        "corpus_gen_s": gen_s,
        "oracle_s": oracle_s,
        "oracle_clusters": len({r[0] for r in plan}),
        "near_dup_hash_pairs": near_pairs,
    }
    with open(os.path.join(tmp, "meta.json"), "w") as f:
        json.dump(meta, f, indent=2)
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rows", type=int, required=True)
    a = ap.parse_args()
    build(a.out, a.seed, a.rows)


if __name__ == "__main__":
    main()

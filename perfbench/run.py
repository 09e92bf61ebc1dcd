"""Benchmark of the idf near-duplicate pipeline (``idf.pipelines.dedup``).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. One invocation:

1. builds (or reuses) the seeded corpus and its oracle plan in a separate
   process (perfbench/corpus.py), outside every timed figure;
2. opens SETUPS Ray sessions one after the other; each is set up
   (``ray.init`` with ``nproc`` CPUs plus one untimed decode run over the
   first rows of the corpus; ``setup_s`` is the median) and then
3. calls ``run_dedup`` the way the CLI does, untraced, for its share of
   ``--seconds``, checking every run's committed plan against the oracle;
4. with ``--trace 1``, runs the workload once more, traced, in a process
   of its own, and reports the per-layer metrics instead.

Times exclude CPU steal (``pipeline.Clock``). The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(name -> value and unit). A human-readable summary with quartiles and
sample counts goes to stderr. perfbench/NOTES.md explains the workloads
and every metric.

``--self-test`` runs a tiny corpus through every workload, traced, and
checks that every metric is reported and no run failed.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

# corpus rows per seed; generation costs ~22 ms per row on one core
ROWS = 600
SELF_TEST_ROWS = 120
SETUPS = 3

E2E_UNITS = {
    "images_per_s": "1/s",
    "setup_s": "s",
    "dup_pair_recall": "ratio",
    "dup_pair_precision": "ratio",
    "keeper_agreement": "ratio",
    "driver_peak_rss_mb": "MB",
    "run_dir_bytes_per_input_byte": "ratio",
    "run_success_share": "ratio",
}

# counters read from process-global dicts that a later cleanup may
# delete (perfbench/trace.py: optional_counters); absent is not a failure
OPTIONAL_LAYER_METRICS = {"ops.exchange_calls", "ops.sort_calls", "stages.cc.labelprop_rounds"}


def per_layer_units() -> dict[str, str]:
    from perfbench.trace import CODECS, STAGES

    units = {
        "pipelines.dedup.wall_s": "s",
        "pipelines.dedup.self_s": "s",
        "trace.overhead_s": "s",
        "synth.corpus_gen_s": "s",
    }
    for st in STAGES:
        units.update({f"state.manifest.{st}.s": "s", f"state.manifest.{st}.rows": "count",
                      f"state.manifest.{st}.bytes": "B", f"state.manifest.{st}.files": "count"})
    for k in ("rows_ok", "rows_skipped", "verify_sampled"):
        units[f"stages.hash_stage.{k}"] = "count"
    units["stages.hash_stage.route"] = "code"
    units["stages.hash_stage.explained_share"] = "ratio"
    for c in CODECS:
        units[f"codecs.{c}.items_per_s"] = "1/s"
        units[f"codecs.{c}.rows"] = "count"
    units["kernels.resize.items_per_s"] = "1/s"
    units["kernels.phash.items_per_s"] = "1/s"
    for k in ("distinct_hashes", "band_key_rows", "max_bucket_rows", "buckets_over_cap",
              "edges_band.raw", "edges_caption.raw", "edges_deduped"):
        units[f"stages.candidates.{k}"] = "count"
    units["stages.candidates.useful_edge_ratio"] = "ratio"
    units["ops.exchange_calls"] = "count"
    units["ops.sort_calls"] = "count"
    units["stages.cc.route"] = "code"
    for k in ("edges_in", "clusters", "members", "labelprop_rounds"):
        units[f"stages.cc.{k}"] = "count"
    units["stages.plan.keepers"] = "count"
    units["stages.plan.deletes"] = "count"
    units["stages.apply.bytes_written"] = "B"
    units["stages.apply.rows_kept"] = "count"
    units["stages.apply.rows_quarantined"] = "count"
    return units


def prepare(seed: int, rows: int):
    """Corpus directory, its meta and the oracle plan (cached per seed)."""
    from perfbench.corpus import ensure_corpus, load_expected_plan, load_meta

    corpus = ensure_corpus(ROOT, WORK, seed, rows)
    return corpus, load_meta(corpus), load_expected_plan(corpus)


def measure(workload: str, seed: int, seconds: float, rows: int, setups_n: int,
            clock, t_start: tuple) -> dict:
    """``setups_n`` Ray sessions, one after the other: each is set up
    (one ``setup_s`` sample) and then runs the untraced timed loop for
    ``seconds / setups_n``, so the timed runs sample the whole invocation
    rather than its last seconds. ``t_start`` is the ``clock`` reading at
    process start."""
    from perfbench.pipeline import MIN_RUNS, WORKLOADS, merge_loops, set_up, stop_ray, timed_loop

    w = WORKLOADS[workload]
    r_prep = clock()
    corpus, meta, expected = prepare(seed, rows)
    prep_s = clock.seconds(r_prep, clock())
    warm = os.path.join(corpus, "warm_raw.parquet")
    min_runs = max(1, -(-MIN_RUNS // setups_n))
    setups, loops = [], []
    try:
        for i in range(setups_n):
            t = set_up(ROOT, WORK, warm, clock)
            # the first sample runs from process start (imports included)
            setups.append(clock.seconds(t_start, clock()) - prep_s if i == 0 else t)
            loops.append(timed_loop(w, os.path.join(corpus, w.input_file), meta["rows"],
                                    expected, WORK, seconds / setups_n, clock, min_runs))
            stop_ray()
    finally:
        stop_ray()
    loop = merge_loops(loops)
    loop["setups"] = setups
    loop["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loop["meta"] = meta
    return loop


def e2e_metrics(loop: dict) -> dict[str, float]:
    checks = loop["checks"]
    med = statistics.median
    return {
        "images_per_s": med(loop["images_per_s"]) if loop["images_per_s"] else 0.0,
        "setup_s": med(loop["setups"]),
        "dup_pair_recall": min((c["recall"] for c in checks), default=0.0),
        "dup_pair_precision": min((c["precision"] for c in checks), default=0.0),
        "keeper_agreement": min((c["keeper_agreement"] for c in checks), default=0.0),
        "driver_peak_rss_mb": loop["peak_rss_mb"],
        "run_dir_bytes_per_input_byte": med(loop["amplification"]) if loop["amplification"] else 0.0,
        "run_success_share": 1.0 - loop["failed"] / loop["attempted"],
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(workload: str, loop: dict) -> str:
    lines = [f"workload {workload}: {loop['meta']['rows']} rows, "
             f"{loop['meta']['images_bytes'] / 1e6:.1f} MB corpus "
             f"(generated in {loop['meta']['corpus_gen_s']:.1f} s, not timed)"]
    for name, vals, unit in (("run time", loop["times"], "s"),
                             ("run wall", loop["walls"], "s"),
                             ("images_per_s", loop["images_per_s"], "1/s"),
                             ("setup", loop["setups"], "s")):
        q1, q2, q3 = quartiles(vals)
        lines.append(f"  {name}: median {q2:.4f} {unit} [q1 {q1:.4f}, q3 {q3:.4f}], n={len(vals)}")
    lines.append(f"  times {[round(x, 3) for x in loop['times']]}")
    lines.append(f"  walls {[round(x, 3) for x in loop['walls']]}")
    lines.append(f"  CPU steal during the runs: {loop['steal_share']:.1%} of busy CPU time "
                 "(times exclude it, walls include it)")
    lines.append(f"  attempted {loop['attempted']}, failed {loop['failed']}")
    return "\n".join(lines)


def traced(workload: str, seed: int, rows: int, untraced_walls: list[float]) -> dict[str, float]:
    """Run the traced child process and return its per-layer metrics."""
    fd, out = tempfile.mkstemp(suffix=".json", dir=WORK)
    os.close(fd)
    try:
        cmd = [sys.executable, os.path.abspath(__file__), "--traced-child", out,
               "--workload", workload, "--seed", str(seed), "--rows", str(rows)]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
        with open(out) as f:
            m = json.load(f)
    finally:
        os.unlink(out)
    if untraced_walls:  # no overhead to report when every untraced run failed
        m["trace.overhead_s"] = m["pipelines.dedup.wall_s"] - statistics.median(untraced_walls)
    return m


def traced_child(out: str, workload: str, seed: int, rows: int, clock) -> None:
    """Set up once, then one traced run; per-layer metrics go to ``out``."""
    from perfbench.pipeline import WORKLOADS, dedup_config, run_once, set_up, stop_ray
    from perfbench.trace import Tracer, instrumented, kernel_rates, layer_metrics, optional_counters

    w = WORKLOADS[workload]
    corpus, meta, _ = prepare(seed, rows)
    run_dir = os.path.join(WORK, "runs", f"traced-{workload}-{os.getpid()}")
    tracer = Tracer(run_id=f"{workload}-seed{seed}")
    try:
        set_up(ROOT, WORK, os.path.join(corpus, "warm_raw.parquet"), clock)
        before = optional_counters()
        with instrumented(tracer), tracer.span("pipelines.dedup"):
            _, _, man = run_once(w, os.path.join(corpus, w.input_file), run_dir, clock)
        rates = kernel_rates(os.path.join(corpus, "images.parquet"), seed)
        m = layer_metrics(tracer, man, dedup_config(w), os.path.join(corpus, "images.parquet"),
                          meta, rates, before)
    finally:
        stop_ray()
        shutil.rmtree(run_dir, ignore_errors=True)
    m["synth.corpus_gen_s"] = meta["corpus_gen_s"]
    tracer.dump(os.path.join(WORK, f"spans-{workload}-seed{seed}.json"))
    with open(out, "w") as f:
        json.dump(m, f)


def bench(workload: str, seed: int, seconds: float, trace: bool, rows: int, clock,
          t_start: tuple) -> dict:
    # a traced invocation reports no setup_s, so it sets up only once
    loop = measure(workload, seed, seconds, rows, 1 if trace else SETUPS, clock, t_start)
    print(summary(workload, loop), file=sys.stderr)
    if trace:
        metrics = traced(workload, seed, rows, loop["walls"])
        units = per_layer_units()
    else:
        metrics = e2e_metrics(loop)
        units = E2E_UNITS
    return {
        "correct": loop["failed"] == 0 and len(loop["checks"]) == loop["attempted"],
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric units as BENCHMARK.json names them,
    or as this file defines them when there is no BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return E2E_UNITS, per_layer_units()
    with open(path) as f:
        doc = json.load(f)
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def self_test(clock, t_start: tuple) -> int:
    """Every workload once on a tiny corpus: every declared metric is
    reported with its declared unit, none of the end-to-end ones is 0,
    and no run failed."""
    from perfbench.pipeline import WORKLOADS

    want_e2e, want_layers = declared_metrics()
    problems = []
    for name in WORKLOADS:
        loop = measure(name, 1, 0.0, SELF_TEST_ROWS, 1, clock, t_start)
        e2e = e2e_metrics(loop)
        layers = traced(name, 1, SELF_TEST_ROWS, loop["walls"])
        for got, units, want in ((e2e, E2E_UNITS, want_e2e), (layers, per_layer_units(), want_layers)):
            missing = sorted(k for k in want if k not in got and k not in OPTIONAL_LAYER_METRICS)
            wrong_unit = sorted(k for k in want if units.get(k) != want[k])
            if missing or wrong_unit:
                problems.append(f"{name}: missing {missing}, unit differs {wrong_unit}")
        zero = sorted(k for k, v in e2e.items() if not v)
        if zero:
            problems.append(f"{name}: end-to-end metrics read 0: {zero}")
        if loop["failed"]:
            problems.append(f"{name}: {loop['failed']} of {loop['attempted']} runs failed")
        print(f"self-test {name}: {len(e2e)} end-to-end and {len(layers)} per-layer metrics, "
              f"failed_share {loop['failed'] / loop['attempted']:.2f}", file=sys.stderr)
    for p in problems:
        print("self-test FAILED:", p, file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    from perfbench.pipeline import WORKLOADS, Clock

    clock = Clock()
    t_start = clock()

    ap = argparse.ArgumentParser(description="idf dedup pipeline benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rows", type=int, default=ROWS, help=argparse.SUPPRESS)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--traced-child", metavar="OUT_JSON", help=argparse.SUPPRESS)
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload is required")
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    # the native JFIF kernel and other temp files stay inside the checkout
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
    tempfile.tempdir = None
    if a.self_test:
        return self_test(clock, t_start)
    if a.traced_child:
        traced_child(a.traced_child, a.workload, a.seed, a.rows, clock)
        return 0
    print(json.dumps(bench(a.workload, a.seed, a.seconds, bool(a.trace), a.rows, clock, t_start)))
    return 0


if __name__ == "__main__":
    logging.basicConfig(level=logging.WARNING, format="%(name)s: %(message)s", stream=sys.stderr)
    if not os.path.isfile(os.path.join(ROOT, "idf", "pipelines", "dedup.py")):
        print(f"perfbench: no idf package under {ROOT}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, ROOT)
    from perfbench.procs import adopt_orphans, reap_descendants

    adopt_orphans()
    try:
        rc = main()
    finally:
        reap_descendants()
    sys.exit(rc)

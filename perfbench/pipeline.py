"""Workloads, the Ray session, one checked ``run_dedup`` call, and the
timed loop — the code every benchmark mode shares."""

from __future__ import annotations

import dataclasses
import logging
import os
import shutil
import time

# Per-call limit: a run slower than this counts as failed even if it
# finished (the benchmark as a whole must end within three minutes).
RUN_LIMIT_S = 60.0
# timed runs per invocation at least, however short ``--seconds`` is
MIN_RUNS = 2


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload; BENCHMARK.json and NOTES.md say why each exists."""

    name: str
    input_file: str  # file inside the corpus directory
    cfg: dict  # DedupConfig overrides
    do_apply: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("decode_plan", "raw.parquet", {}, False),
        Workload("trusted_apply", "images.parquet", {}, True),
        Workload(
            "scale_out",
            "images.parquet",
            {"cc_driver_max_edges": 0, "edge_dedup_min_rows": 0},
            False,
        ),
    )
}


def dedup_config(w: Workload):
    from idf.config import DedupConfig

    return DedupConfig(**w.cfg)


def num_cpus() -> int:
    """CPUs as ``nproc`` counts them: the affinity set, capped by
    OMP_NUM_THREADS when that is set."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "")
    return min(n, int(omp)) if omp.isdigit() and int(omp) > 0 else n


def ray_temp_dir(work_dir: str) -> str | None:
    """Ray's session directory, inside the work directory when its path
    is short enough for Ray's unix-socket names (108-byte limit, of which
    the session and socket names take about 65)."""
    d = os.path.join(work_dir, "ray")
    return d if len(d) <= 40 else None


def start_ray(root: str, work_dir: str) -> None:
    """One local Ray session with ``nproc`` CPUs. Workers inherit
    this process's environment, so the checkout on PYTHONPATH lets them
    import ``idf`` from any working directory (a ``runtime_env`` would do
    the same but adds ~5 s of runtime-env agent start-up per session)."""
    import ray
    from ray.data import DataContext

    from perfbench.procs import exit_on_sigterm

    path = os.environ.get("PYTHONPATH", "")
    if root not in path.split(os.pathsep):
        os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (root, path) if p)
    kw = {}
    temp = ray_temp_dir(work_dir)
    if temp is not None:
        kw["_temp_dir"] = temp
    ray.init(
        address="local",
        num_cpus=num_cpus(),
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 << 20,
        **kw,
    )
    exit_on_sigterm()
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def stop_ray() -> None:
    """End the Ray session and wait until every process it left has ended."""
    import ray

    from perfbench.procs import exit_on_sigterm, reap_descendants

    ray.shutdown()
    exit_on_sigterm()
    reap_descendants()


class Clock:
    """Wall time with CPU steal taken out. A reading is (wall, busy,
    stolen): seconds, plus the busy and stolen CPU seconds of the CPUs
    this process may run on (/proc/stat; the guest charges steal only
    while a CPU has work). Over an interval, a busy CPU lost the share
    ``f = stolen / (busy + stolen)`` of its time to the hypervisor, so
    ``seconds`` scales the wall by ``1 - f``: roughly what the interval
    would take on a host of its own. On a shared host, neighbours
    otherwise stretch walls by up to 2.5x for minutes at a time."""

    BUSY = (0, 1, 2, 5, 6)  # user nice system irq softirq
    STEAL = 7

    def __init__(self):
        self.prefixes = tuple(f"cpu{c} " for c in sorted(os.sched_getaffinity(0)))
        self.tick = os.sysconf("SC_CLK_TCK")

    def __call__(self) -> tuple[float, float, float]:
        busy = stolen = 0
        with open("/proc/stat") as f:
            for line in f:
                if line.startswith(self.prefixes):
                    v = [int(x) for x in line.split()[1:]]
                    busy += sum(v[i] for i in self.BUSY)
                    stolen += v[self.STEAL]
        return time.perf_counter(), busy / self.tick, stolen / self.tick

    @staticmethod
    def seconds(r0: tuple, r1: tuple) -> float:
        wall, busy, stolen = (b - a for a, b in zip(r0, r1))
        return wall * busy / (busy + stolen) if busy + stolen > 0 else wall


def steal_share(r0: tuple, r1: tuple) -> float:
    """Share of the busy CPUs' time the hypervisor took between two
    ``Clock`` readings."""
    busy, stolen = r1[1] - r0[1], r1[2] - r0[2]
    return stolen / (busy + stolen) if busy + stolen > 0 else 0.0


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def plan_rows(run_dir: str) -> set[tuple[str, str, str, str]]:
    import pyarrow.dataset as pads

    from perfbench.corpus import PLAN_COLUMNS

    t = pads.dataset(os.path.join(run_dir, "plan")).to_table(columns=PLAN_COLUMNS)
    return set(zip(*(t[c].to_pylist() for c in PLAN_COLUMNS)))


def compare_plans(got: set[tuple], want: set[tuple]) -> dict:
    """Pair recall/precision over same-cluster image pairs, and the share
    of oracle clusters whose KEEP image the run also keeps."""
    from idf.oracle import dup_pairs, pair_recall_precision

    def clusters(rows):
        by_cid: dict[str, set[str]] = {}
        for cid, _, image_id, _ in rows:
            by_cid.setdefault(cid, set()).add(image_id)
        return [frozenset(m) for m in by_cid.values()]

    recall, precision = pair_recall_precision(
        dup_pairs(clusters(got)), dup_pairs(clusters(want))
    )
    want_keep = {r[2] for r in want if r[1] == "KEEP"}
    got_keep = {r[2] for r in got if r[1] == "KEEP"}
    agree = len(want_keep & got_keep) / len(want_keep) if want_keep else 1.0
    return {
        "recall": recall,
        "precision": precision,
        "keeper_agreement": agree,
        "exact": got == want,
    }


def run_once(w: Workload, input_path: str, run_dir: str, clock: Clock):
    """One ``run_dedup`` call as the CLI makes it, into a fresh
    ``run_dir``; returns (seconds without steal, wall seconds, manifest)."""
    from idf.pipelines.dedup import run_dedup

    shutil.rmtree(run_dir, ignore_errors=True)
    cfg = dedup_config(w)
    r0 = clock()
    man = run_dedup(input_path, run_dir, cfg, resume=False, do_apply=w.do_apply)
    r1 = clock()
    return clock.seconds(r0, r1), r1[0] - r0[0], man


def set_up(root: str, work_dir: str, warm_input: str, clock: Clock) -> float:
    """Start Ray and run the decode workload once, untimed, over the
    small warm-up input (``warm_raw.parquet``); returns the seconds this
    took, without steal. The decode run touches every stage but apply and
    the distributed routes; after it, the first timed run is no slower
    than the rest, except ~10% in ``trusted_apply`` (apply is cold)."""
    r0 = clock()
    start_ray(root, work_dir)
    run_dir = os.path.join(work_dir, "runs", f"warm-{os.getpid()}")
    run_once(WORKLOADS["decode_plan"], warm_input, run_dir, clock)
    shutil.rmtree(run_dir, ignore_errors=True)
    return clock.seconds(r0, clock())


def timed_loop(w: Workload, input_path: str, rows: int, expected: set, work_dir: str,
               seconds: float, clock: Clock, min_runs: int = MIN_RUNS) -> dict:
    """Untraced runs until ``seconds`` have passed (at least ``min_runs``).
    Each run is checked against the oracle plan; a run that raised, ran
    past RUN_LIMIT_S or disagreed with the oracle counts as failed."""
    run_dir = os.path.join(work_dir, "runs", f"{w.name}-{os.getpid()}")
    times, walls, amp, checks = [], [], [], []
    r0 = clock()
    attempted = failed = 0
    t_end = time.perf_counter() + seconds
    input_bytes = os.path.getsize(input_path)
    while attempted < min_runs or time.perf_counter() < t_end:
        attempted += 1
        try:
            t, wall, _ = run_once(w, input_path, run_dir, clock)
            cmp = compare_plans(plan_rows(run_dir), expected)
            amp.append(dir_bytes(run_dir) / input_bytes)
        except Exception as exc:  # a failed run is counted, not fatal
            logging.getLogger("perfbench").error("run %d failed: %r", attempted, exc)
            failed += 1
            continue
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        checks.append(cmp)
        if wall > RUN_LIMIT_S or not cmp["exact"]:
            failed += 1
        times.append(t)
        walls.append(wall)
    return {
        "attempted": attempted,
        "failed": failed,
        "times": times,
        "walls": walls,
        "images_per_s": [rows / x for x in times],
        "steal_share": steal_share(r0, clock()),
        "amplification": amp,
        "checks": checks,
    }


def merge_loops(loops: list[dict]) -> dict:
    """One ``timed_loop`` result from several (one per Ray session)."""
    out = {k: [x for loop in loops for x in loop[k]]
           for k in ("times", "walls", "images_per_s", "amplification", "checks")}
    out["attempted"] = sum(loop["attempted"] for loop in loops)
    out["failed"] = sum(loop["failed"] for loop in loops)
    out["steal_share"] = sum(loop["steal_share"] for loop in loops) / len(loops)
    return out

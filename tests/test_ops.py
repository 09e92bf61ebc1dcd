import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray
import ray.data as rd

from idf.ops import (
    broadcast_semi_join,
    bucketed_aggregate,
    bucketed_apply,
    bucketed_group_apply,
    exact_dedup,
    hash_join,
)


@pytest.fixture(scope="module")
def tables(ray_session, rng):
    n = 2000
    left = pd.DataFrame(
        {
            "k": rng.integers(0, 300, n),
            "v": rng.normal(size=n),
            "tag": rng.choice(list("abc"), n),
        }
    )
    right = pd.DataFrame(
        {
            "k": np.arange(300),
            "name": [f"n{i}" for i in range(300)],
            "v": rng.normal(size=300),  # overlapping non-key column
        }
    )
    return left, right


def test_hash_join_inner_matches_pandas(tables):
    left, right = tables
    got = (
        hash_join(rd.from_pandas(left), rd.from_pandas(right), on="k")
        .to_pandas()
        .sort_values(["k", "v", "name"])
        .reset_index(drop=True)
    )
    want = (
        left.merge(right, on="k", how="inner", suffixes=("", "_r"))
        .sort_values(["k", "v", "name"])
        .reset_index(drop=True)
    )
    assert sorted(got.columns) == sorted(want.columns)
    assert len(got) == len(want)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], want[sorted(want.columns)], check_like=True
    )


def test_hash_join_left(tables):
    left, right = tables
    small_right = right[right["k"] < 100]
    got = hash_join(rd.from_pandas(left), rd.from_pandas(small_right), on="k", how="left").to_pandas()
    want = left.merge(small_right, on="k", how="left", suffixes=("", "_r"))
    assert len(got) == len(want)
    assert got["name"].isna().sum() == want["name"].isna().sum()


def test_broadcast_semi_join(tables, ray_session):
    left, _ = tables
    ds = rd.from_pandas(left)
    keys = set(range(0, 300, 3))
    semi = broadcast_semi_join(ds, "k", keys).to_pandas()
    anti = broadcast_semi_join(ds, "k", keys, negate=True).to_pandas()
    assert set(semi["k"]) <= keys
    assert not (set(anti["k"]) & keys)
    assert len(semi) + len(anti) == len(left)


def test_broadcast_semi_join_empty_values(tables, ray_session):
    # zero DELETE ids must not crash the apply stage (ADVICE r1: null-typed
    # value_set raised ArrowTypeError inside pc.is_in)
    left, _ = tables
    ds = rd.from_pandas(left)
    assert len(broadcast_semi_join(ds, "k", set()).to_pandas()) == 0
    assert len(broadcast_semi_join(ds, "k", set(), negate=True).to_pandas()) == len(left)


def test_exact_dedup(tables):
    left, _ = tables
    left = left.assign(rowid=np.arange(len(left)))
    out = exact_dedup(rd.from_pandas(left), key="k", order_col="rowid").to_pandas()
    want = left.sort_values("rowid").groupby("k").head(1)
    assert sorted(out["rowid"]) == sorted(want["rowid"])


def test_bucketed_aggregate_matches_pandas(tables):
    left, _ = tables
    out = (
        bucketed_aggregate(
            rd.from_pandas(left), ["k", "tag"], {"s": ("v", "sum"), "m": ("v", "min")}
        )
        .to_pandas()
        .sort_values(["k", "tag"])
        .reset_index(drop=True)
    )
    want = (
        left.groupby(["k", "tag"])["v"]
        .agg(s="sum", m="min")
        .reset_index()
        .sort_values(["k", "tag"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out[["k", "tag", "s", "m"]], want)


def test_bucketed_apply_covers_all_keys(tables):
    left, _ = tables

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("k", sort=False).size().reset_index(name="n")

    out = bucketed_apply(rd.from_pandas(left), "k", bucket_fn).to_pandas()
    want = left.groupby("k").size()
    assert dict(zip(out["k"], out["n"])) == dict(want)


def test_bucketed_group_apply_per_group(tables):
    left, _ = tables

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": [g["k"].iloc[0]], "vmax": [g["v"].max()]})

    out = bucketed_group_apply(rd.from_pandas(left), "k", per_group).to_pandas()
    want = left.groupby("k")["v"].max()
    assert dict(zip(out["k"], out["vmax"])) == pytest.approx(dict(want))


def test_bucketed_group_apply_keeps_two_partitions_per_cpu(ray_session, monkeypatch):
    """A per-key Python loop's work is not predicted by the bytes: a
    tiny input still gets ``min(8, 2·ncpu)`` partitions, where
    ``bucketed_apply`` on the same input sizes by bytes (one)."""
    import idf.ops as ops

    widths = []
    exchange_refs = ops.exchange_refs

    def record(refs, keys, fn, n_parts, *args, **kw):
        widths.append(n_parts)
        return exchange_refs(refs, keys, fn, n_parts, *args, **kw)

    monkeypatch.setattr(ops, "exchange_refs", record)
    ds = rd.from_pandas(pd.DataFrame({"k": [1, 1, 2], "v": [3, 4, 5]}))
    out = bucketed_group_apply(ds, "k", lambda g: g.head(1)).to_pandas()
    assert sorted(out["k"]) == [1, 2]
    assert len(bucketed_apply(ds, "k", lambda g: g).to_pandas()) == 3
    assert widths == [min(8, 2 * ops.available_cpus()), 1]


def test_exchange_apply_per_key_sum_matches_pandas(ray_session, rng):
    """The raw-task hash exchange co-locates every key in one partition:
    a per-key aggregate computed per partition equals pandas' global
    groupby."""
    n = 20_000
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 997, n),
            "v": rng.integers(0, 1000, n).astype(np.int64),
        }
    )

    def per_key_sum(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame(
                {"k": pd.Series([], dtype=np.int64), "s": pd.Series([], dtype=np.int64)}
            )
        return g.groupby("k", sort=False)["v"].sum().reset_index(name="s")

    from idf.ops import exchange_apply

    got_exch = (
        exchange_apply(rd.from_pandas(df), "k", per_key_sum)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = df.groupby("k")["v"].sum().reset_index(name="s")
    pd.testing.assert_frame_equal(got_exch, want, check_dtype=False)


def test_exchange_apply_hot_key_skew(ray_session, rng):
    """A single hot key (60% of rows) lands wholly in one partition and
    still aggregates exactly — the skew contract of the exchange."""
    n = 30_000
    k = rng.integers(0, 500, n)
    k[: int(n * 0.6)] = 7  # hot key
    df = pd.DataFrame({"k": k, "v": np.ones(n, dtype=np.int64)})
    from idf.ops import exchange_apply

    got = (
        exchange_apply(
            rd.from_pandas(df),
            "k",
            lambda g: g.groupby("k", sort=False)["v"].sum().reset_index(name="s"),
            n_parts=16,
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = df.groupby("k")["v"].sum().reset_index(name="s")
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.parametrize(
    "size_bytes,ncpu,want",
    [
        (10_000, 1, 1),
        (10_000, 4, 1),
        (10_000, 32, 1),
        (4 << 20, 4, 2),
        ((4 << 22) - 1, 4, 4),
        ((4 << 22) + 1, 4, 8),
        ((1 << 22) + 1, 1, 2),
        ((32 << 22) + 1, 32, 64),
        (17_000_000, 4, 8),
        (40 << 20, 1, 11),
        (64 << 20, 1, 2),
        (64 << 20, 4, 8),
        (64 << 20, 32, 64),
        (1 << 30, 1, 5),
        (10 << 30, 4, 41),
    ],
)
def test_exchange_width(size_bytes, ncpu, want):
    """Sized by the bytes: below 64 MiB one partition per ~4 MiB while
    that fits in the CPUs (a small input gets one partition however
    many CPUs there are), and two per CPU, or more, from just past
    ``ncpu x 4 MiB`` on; from 64 MiB on, two per CPU and at most ~256
    MiB per partition."""
    from idf.ops import exchange_width

    assert exchange_width(size_bytes, ncpu) == want


@pytest.mark.parametrize("n_parts", [1, 2, 8])
def test_hash_split_places_keys_like_the_exchange(ray_session, n_parts):
    """``hash_split`` is the exchange's partition function: int64 keys
    (INT64 min and max among them) split through it land in the same
    partition as through ``exchange_refs``, whatever the block layout."""
    import ray

    from idf.ops import exchange_refs, hash_split

    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    keys = np.r_[lo, lo + 1, -1, 0, 1, hi - 1, hi, np.arange(-500, 500) * 7919]
    order, bounds = hash_split(pa.table({"k": keys}), n_parts)
    want = [set(keys[order[bounds[p] : bounds[p + 1]]].tolist()) for p in range(n_parts)]
    blocks = [ray.put(pa.table({"k": keys[i::3]})) for i in range(3)]
    out = ray.get(exchange_refs(blocks, "k", lambda t: t, n_parts))
    got = [set(t["k"].to_pylist()) if t.num_columns else set() for t in out]
    assert got == want
    assert set().union(*got) == set(keys.tolist())
    # the placement is hash_pandas_object's, whatever the key columns:
    # int64 (with and without nulls), string, and both together
    names = np.array([f"id{k % 97}" for k in keys], dtype=object)
    keyed = pa.table({"k": keys, "s": names, "n": pa.array(np.where(keys % 5 == 0, None, keys))})
    for cols in (["k"], ["s"], ["n"], ["k", "s"], ["s", "n", "k"]):
        frame = keyed.select(cols).to_pandas()
        part = pd.util.hash_pandas_object(frame, index=False).to_numpy() % n_parts
        order, bounds = hash_split(keyed.select(cols), n_parts)
        assert (np.repeat(np.arange(n_parts), np.diff(bounds)) == part[order]).all()


def test_exchange_apply_pandas_output_has_no_schema_metadata(ray_session, rng):
    """A pandas bucket_fn's output blocks carry no ``pandas`` schema
    metadata (it makes schemas unhashable for Ray's schema dedup)."""
    from idf.ops import exchange_apply

    df = pd.DataFrame({"k": rng.integers(0, 50, 500), "v": np.ones(500, dtype=np.int64)})
    out = exchange_apply(
        rd.from_pandas(df), "k", lambda g: g.groupby("k", sort=False)["v"].sum().reset_index()
    )
    blocks = ray.get(out.to_arrow_refs())
    assert sum(b.num_rows for b in blocks) == df["k"].nunique()
    assert all(b.schema.metadata is None for b in blocks)


def test_cluster_size_histogram(ray_session):
    import pandas as pd
    import ray.data as rd

    from idf.stages.cc import cluster_size_histogram

    pdf = pd.DataFrame(
        {
            "cluster_id": ["a", "a", "b", "b", "b", "c", "c", "c"],
            "image_id": [f"i{k}" for k in range(8)],
        }
    )
    got = cluster_size_histogram(rd.from_pandas(pdf))
    want = pd.DataFrame({"cluster_size": [2, 3], "n_clusters": [1, 2]})
    pd.testing.assert_frame_equal(got, want.astype({"cluster_size": "int64", "n_clusters": "int64"}))


def test_pair_distance_histogram(ray_session):
    """The histogram counts the ``dist`` column of once-only, oriented
    edges, as ``band_edges`` writes them: one partial per block, summed
    on the driver. Distances are Long.bitCount(a ^ b) on the int64 bit
    pattern, up to 64."""
    import pandas as pd
    import ray.data as rd

    from idf.kernels.hamming import hamming_distance
    from idf.stages.candidates import pair_distance_histogram

    a = np.array([3, 2, -1, 7, 5], dtype=np.int64)
    b = np.array([11, 5, 0, 7 ^ (1 << 62), 9], dtype=np.int64)
    assert (a < b).all()
    pdf = pd.DataFrame(
        {"phash_a": a, "phash_b": b, "dist": hamming_distance(a.view(np.uint64), b.view(np.uint64))}
    )
    got = pair_distance_histogram(rd.from_pandas(pdf).repartition(3))
    # {3,11} d=1; {2,5} d=3; {-1,0} d=64; {7, 7^2^62} d=1; {5,9} d=2
    want = pd.DataFrame({"hamming_dist": [1, 2, 3, 64], "n_pairs": [2, 1, 1, 1]})
    pd.testing.assert_frame_equal(
        got, want.astype({"hamming_dist": "int64", "n_pairs": "int64"})
    )


def test_img_caption_exact_groups(ray_session):
    """Caption exact-dup groups: canonical = lexicographic min id;
    singletons drop; null captions group with empty string."""
    import pandas as pd
    import ray.data as rd

    import __ray_entry__  # noqa: F401 — pattern under test lives there
    from idf.ops import bucketed_apply

    imgs = pd.DataFrame(
        {
            "image_id": ["b", "a", "c", "d", "e"],
            "caption": ["same cap", "same cap", "unique", None, ""],
        }
    )

    def fp(df):
        import hashlib

        return pd.DataFrame(
            {
                "image_id": df["image_id"],
                "cap_fp": df["caption"].fillna("").map(
                    lambda s: hashlib.md5(s.encode()).hexdigest()
                ),
            }
        )

    def grp(g):
        sizes = g.groupby("cap_fp")["image_id"].transform("size")
        canon = g.groupby("cap_fp")["image_id"].transform("min")
        out = g.assign(caption_group=canon)[sizes >= 2]
        return out[["caption_group", "image_id"]]

    got = (
        bucketed_apply(rd.from_pandas(imgs).map_batches(fp, batch_format="pandas"),
                       "cap_fp", grp)
        .to_pandas()
        .sort_values("image_id")
        .reset_index(drop=True)
    )
    # groups: {a,b} canon 'a'; {d(null), e('')} canon 'd'; 'c' singleton drops
    assert list(got["image_id"]) == ["a", "b", "d", "e"]
    assert list(got["caption_group"]) == ["a", "a", "d", "d"]


def test_file_slice_reads_only_its_row_groups(tmp_path, monkeypatch):
    """Row slices of a file cover its rows once, in order, each with the
    file's projected schema (a slice past the last row is empty), and
    each decodes only the row groups its rows overlap, not the whole
    file. A row slice takes no filter."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from idf.ops import FileSlice, file_inputs

    path = str(tmp_path / "t.parquet")
    t = pa.table({"a": np.arange(1000), "b": np.arange(1000) * 2})
    pq.write_table(t, path, row_group_size=100)
    groups = []
    read_row_groups = pq.ParquetFile.read_row_groups

    def record(self, row_groups, **kw):
        groups.append(list(row_groups))
        return read_row_groups(self, row_groups, **kw)

    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", record)
    assert FileSlice(path, ["a"]).read().equals(t.select(["a"]))
    for n in (2, 3, 7, 10, 1001):
        groups.clear()
        parts = [FileSlice(path, ["a"], part=(i, n)).read() for i in range(n)]
        assert pa.concat_tables(parts).equals(t.select(["a"]))
        assert all(p.schema.names == ["a"] for p in parts)
        step = -(-1000 // n)
        assert len(groups) == n
        assert all(len(g) <= -(-step // 100) + 1 for g in groups)
    with pytest.raises(ValueError):
        file_inputs([FileSlice(path, ["a"], pc.field("b") > 4)], 4, slice_rows=True)


def test_open_parquet_reads_like_a_plain_parquet_file(tmp_path):
    """A memory-mapped ``open_parquet`` read gives the same tables as a
    plain ``pq.ParquetFile`` read: whole row groups, projected row
    groups and ``iter_batches`` slices, with nulls and binary blobs."""
    import pyarrow.parquet as pq

    from idf.ops import open_parquet

    rng = np.random.default_rng(3)
    blobs = [bytes(rng.integers(0, 256, int(n), dtype=np.uint8)) for n in rng.integers(0, 900, 300)]
    blobs[7] = None
    t = pa.table(
        {
            "image_id": [f"id-{i}" for i in range(300)],
            "bytes": pa.array(blobs, pa.binary()),
            "phash": pa.array(rng.integers(-(2**63), 2**63 - 1, 300, dtype=np.int64)),
        }
    )
    path = str(tmp_path / "t.parquet")
    pq.write_table(t, path, row_group_size=70)
    plain, mapped = pq.ParquetFile(path), open_parquet(path)
    assert mapped.num_row_groups == plain.num_row_groups == 5
    for rg in range(plain.num_row_groups):
        assert mapped.read_row_group(rg).equals(plain.read_row_group(rg))
        cols = ["phash", "bytes"]
        assert mapped.read_row_group(rg, columns=cols).equals(plain.read_row_group(rg, columns=cols))
    got = [b for b in mapped.iter_batches(batch_size=64, row_groups=[1, 3], columns=["bytes"])]
    want = [b for b in plain.iter_batches(batch_size=64, row_groups=[1, 3], columns=["bytes"])]
    assert pa.Table.from_batches(got).equals(pa.Table.from_batches(want))
    assert mapped.read().equals(t)
    mapped.close()


def test_part_writer_compression_per_column(tmp_path):
    """``PartWriter`` hands its ``compression`` to the parquet writer:
    one codec for every column, or one per column."""
    import pyarrow.parquet as pq

    from idf.ops import PartWriter

    t = pa.table({"a": [b"x" * 100] * 10, "b": list(range(10))})
    for name, compression, want in (
        ("default", "snappy", ["SNAPPY", "SNAPPY"]),
        ("per_column", {"a": "none", "b": "snappy"}, ["UNCOMPRESSED", "SNAPPY"]),
    ):
        path = str(tmp_path / f"{name}.parquet")
        with PartWriter(path, compression) as out:
            out.write(t)
        md = pq.ParquetFile(path).metadata
        assert [md.row_group(0).column(j).compression for j in range(2)] == want
        assert pq.read_table(path).equals(t)

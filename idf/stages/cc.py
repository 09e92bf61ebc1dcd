"""Connected components over the verified int phash edge graph.

Reference analog X4 (cluster/Clusterer.java:6-30): BFS flood fill over
``hamming <= radius`` neighborhoods == connected components of the edge
graph; discovery order only affects the reference's UUID draw, never the
partition (SURVEY §2.6). Cluster ids here are deterministic: the min
member ``image_id``.

Images with equal phash are one node, so components run over int64
phash ids and membership expands through the hash-stage output after.
``connected_components`` picks one of two routes by edge count
(SURVEY §7 step 5):

- ``components_phash_driver`` (edges <= ``cfg.cc_driver_max_edges``):
  reads the edge parquet on the driver and runs ``_cc_labels``,
  whole-array min-label propagation with pointer jumping. Memory is
  O(#edges) — the near-dup minority, not the corpus.
- ``components_phash_labelprop`` (above it): ``components_labelprop``,
  the fully distributed min-label fixpoint (rounds = graph diameter;
  near-dup components are tiny, so 2-4), then ``join_labels`` attaches
  every image to its phash's component.

``idf/functions/canon.py`` runs the same two kernels and the same join
over its int id graphs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

# Observability for the distributed CC path (mirrors SESSIONIZE_STATS /
# EXCHANGE_STATS): how many propagation rounds the last labelprop run
# took and whether it hit the fixpoint before max_iters. Read by
# scripts/bench_labelprop_guard.py and asserted in tests.
CC_STATS: dict = {"labelprop_rounds": None, "converged": None}


def _labelprop_route_msgs(t: pa.Table) -> pa.Table:
    """Exchange-1 bucket fn: co-grouped (edges ∪ labels) keyed on ``src``.

    Emits one message per edge (``node=dst`` carrying ``label(src)``)
    plus every label row's self-message (flagged), all vectorized via a
    sorted searchsorted lookup — no pandas merge, no null-padded int64
    round-trips through float64.
    """
    is_lab = pc.equal(t["__side"], 1)
    lab_t = t.filter(is_lab)
    edge_t = t.filter(pc.invert(is_lab))
    src_l = lab_t["src"].to_numpy(zero_copy_only=False)
    lab_l = lab_t["label"].to_numpy(zero_copy_only=False)
    src_e = edge_t["src"].to_numpy(zero_copy_only=False)
    dst_e = edge_t["dst"].to_numpy(zero_copy_only=False)
    order = np.argsort(src_l, kind="stable")
    src_ls, lab_ls = src_l[order], lab_l[order]
    if len(src_e):
        idx = np.searchsorted(src_ls, src_e)
        if idx.max(initial=-1) >= len(src_ls) or not (src_ls[idx] == src_e).all():
            raise AssertionError(
                "labelprop invariant broken: an edge src has no label row "
                "(labels must cover every node of the symmetric edge list)"
            )
        edge_lab = lab_ls[idx]
    else:
        edge_lab = np.empty(0, dtype=lab_ls.dtype)
    node = np.concatenate([dst_e, src_ls])
    label = np.concatenate([edge_lab, lab_ls])
    is_self = np.zeros(len(node), dtype=np.int8)
    is_self[len(dst_e):] = 1
    return pa.table({"node": node, "label": label, "__self": is_self})


def _labelprop_min_reduce(t: pa.Table) -> pa.Table:
    """Exchange-2 bucket fn: per-node min over messages ∪ self rows.

    Returns ``(node, label, old)`` where ``old`` is the node's previous
    label (its unique self row) — the convergence comparison rides the
    same shuffle instead of a separate join, halving the per-round
    all-to-all count (the thing that matters at 100-TB edge volumes).
    No sentinel values: ``old`` comes from the flagged self rows, so
    labels touching INT64_MAX/MIN stay exact (r2 advice analog,
    tests/test_scale_paths.py::test_labelprop_distinct_huge_labels_stay_distinct).
    """
    node = t["node"].to_numpy(zero_copy_only=False)
    label = t["label"].to_numpy(zero_copy_only=False)
    is_self = t["__self"].to_numpy(zero_copy_only=False).astype(bool)
    order = np.argsort(node, kind="stable")
    n_s, l_s = node[order], label[order]
    bounds = np.flatnonzero(np.r_[True, n_s[1:] != n_s[:-1]]) if len(n_s) else np.empty(0, dtype=np.int64)
    unodes = n_s[bounds]
    new_lab = np.minimum.reduceat(l_s, bounds) if len(bounds) else l_s[:0]
    ns, ls = node[is_self], label[is_self]
    so = np.argsort(ns, kind="stable")
    ns_s, ls_s = ns[so], ls[so]
    if len(unodes):
        pos = np.searchsorted(ns_s, unodes)
        if pos.max(initial=-1) >= len(ns_s) or not (ns_s[pos] == unodes).all():
            raise AssertionError(
                "labelprop invariant broken: a node received messages but "
                "has no self row (every node must carry its own label)"
            )
        old = ls_s[pos]
    else:
        old = ls_s[:0]
    return pa.table({"node": unodes, "label": new_lab, "old": old})


@ray.remote
def _edge_side(t: pa.Table) -> pa.Table:
    """Symmetrize + pad an edge block: (a, b) -> side-0 rows (a->b, b->a)."""
    if t.num_columns == 0:
        return t
    a, b = t.column(0).combine_chunks(), t.column(1).combine_chunks()
    return pa.table(
        {
            "src": pa.concat_arrays([a, b]),
            "dst": pa.concat_arrays([b, a]),
            "label": pa.nulls(2 * len(t), pa.int64()),
            "__side": pa.array(np.zeros(2 * len(t), dtype=np.int8)),
        }
    )


def _label_side(t: pa.Table) -> pa.Table:
    """Exchange-1 pre_map: a label block (``node``, ``label`` [, ``old``])
    -> side-1 rows keyed on ``src``; edge-side blocks pass through."""
    if "__side" in t.column_names:
        return t
    return pa.table(
        {
            "src": t["node"].combine_chunks(),
            "dst": pa.nulls(len(t), pa.int64()),
            "label": t["label"].combine_chunks(),
            "__side": pa.array(np.ones(len(t), dtype=np.int8)),
        }
    )


def _init_labels(t: pa.Table) -> pa.Table:
    """labels(node) = min(node, neighbors) over the symmetric edge side."""
    src = t["src"].to_numpy(zero_copy_only=False)
    dst = t["dst"].to_numpy(zero_copy_only=False)
    order = np.argsort(src, kind="stable")
    s_s, d_s = src[order], dst[order]
    bounds = np.flatnonzero(np.r_[True, s_s[1:] != s_s[:-1]]) if len(s_s) else np.empty(0, dtype=np.int64)
    unodes = s_s[bounds]
    min_nb = np.minimum.reduceat(d_s, bounds) if len(bounds) else d_s[:0]
    return pa.table({"node": unodes, "label": np.minimum(unodes, min_nb)})


@ray.remote
def _changed_rows(t: pa.Table) -> int:
    """Per-partition convergence count: nodes whose label moved."""
    if t.num_rows == 0:
        return 0
    return int(pc.sum(pc.not_equal(t["label"], t["old"])).as_py() or 0)


@ray.remote
def _num_rows(t: pa.Table) -> int:
    return t.num_rows


def components_labelprop(edges, max_iters: int = 50, est_bytes: int | None = None):
    """Distributed min-label propagation to fixpoint: ``edges`` (two
    int64 endpoint columns, by position) -> ``(node, label)``.

    labels(node) starts at min(node, neighbors); each round every edge
    sends its source's label to its destination and each node takes the
    min over incoming messages and its own label; converged when no
    label changed. Deterministic output: label == min member id.

    The loop runs on object refs with no Ray Data job inside it: one
    task per edge block symmetrizes it once, then each round is exactly
    TWO ``exchange_refs`` (the structural minimum for edge-wise
    propagation): edge refs ∪ label refs keyed on ``src`` (label blocks
    turn into side-1 rows inside the split tasks), then messages keyed
    on ``node``, whose reduce also emits each node's previous label.
    Convergence is one tiny count task per partition, summed on the
    driver. Per round that is no Ray Data planning or sort coordination
    at all — at small edge counts that fixed per-job cost was most of
    the wall.

    ``edges`` is a list of Arrow block refs (-> label refs, which also
    carry an ``old`` column; ``est_bytes`` sizes the exchanges) or a
    Dataset, which is materialized once around the same loop
    (-> Dataset). An edge-less input returns typed empty labels after 0
    rounds.
    """
    from idf.ops import available_cpus, exchange_refs, exchange_width

    as_refs = isinstance(edges, list)
    if not as_refs:
        edges = edges.materialize()
        est_bytes = 2 * (edges.size_bytes() or 0)  # the symmetrized side
        edges = edges.to_arrow_refs()
    n_parts = exchange_width(est_bytes or 0, available_cpus())
    edge_refs = [_edge_side.remote(r) for r in edges]
    labels = exchange_refs(edge_refs, "src", _init_labels, n_parts)

    CC_STATS["labelprop_rounds"] = 0
    CC_STATS["converged"] = not sum(ray.get([_num_rows.remote(r) for r in labels]))
    for _ in range(0 if CC_STATS["converged"] else max_iters):
        msgs = exchange_refs(
            edge_refs + labels, "src", _labelprop_route_msgs, n_parts, pre_map=_label_side
        )
        labels = exchange_refs(msgs, "node", _labelprop_min_reduce, n_parts)
        CC_STATS["labelprop_rounds"] += 1
        if not sum(ray.get([_changed_rows.remote(r) for r in labels])):
            CC_STATS["converged"] = True
            break
    if as_refs:
        return labels
    if not CC_STATS["labelprop_rounds"]:
        empty = pa.array([], pa.int64())
        return rd.from_arrow(pa.table({"node": empty, "label": empty}))
    return rd.from_arrow_refs(labels).select_columns(["node", "label"])


def _join_side(key: str, carry: dict[str, pa.DataType]):
    """``join_labels`` side tagger: a label block (``node``, ``label``
    [, ``old``]) -> side-1 rows keyed on ``key``; a row block -> side 0."""
    cols = [*carry, key]

    def tag(t: pa.Table) -> pa.Table:
        n = len(t)
        if "label" in t.column_names:
            return pa.table(
                {
                    **{c: pa.nulls(n, typ) for c, typ in carry.items()},
                    key: t["node"],
                    "__label": t["label"],
                    "__side": pa.array(np.ones(n, dtype=np.int8)),
                }
            )
        return (
            t.select(cols)
            .append_column("__label", pa.nulls(n, pa.int64()))
            .append_column("__side", pa.array(np.zeros(n, dtype=np.int8)))
        )

    return tag


def join_labels(
    rows,
    key: str,
    labels,
    out: str,
    carry: dict[str, pa.DataType] | None = None,
    est_bytes: int | None = None,
):
    """``rows`` + column ``out``: the component label of each row's
    int64 ``key``, from ``labels`` = ``components_labelprop`` output; a
    key absent from the graph keeps itself as its label. ``carry`` names
    and types the payload columns of ``rows`` besides ``key`` (neither
    may be named ``label``, which marks the label side).

    One co-grouping shuffle over the side-tagged union: with block refs
    for ``rows`` and ``labels`` it is one ``exchange_refs`` over both
    ref lists, the tags added inside its split tasks (-> refs); with
    Datasets each side is tagged by a map and ``bucketed_apply`` runs
    the same shuffle (-> Dataset). The join is NUMPY searchsorted inside
    the bucket, not a pandas left-merge: the union null-pads the label
    column on the rows side, and a whole-partition pandas conversion
    would promote it to float64 and round 64-bit labels above 2^53 —
    distinct components whose rounded labels collide would silently
    merge (r2 ADVICE, high). Each side is filtered in Arrow FIRST so
    every slice converts with true dtypes."""
    from idf.ops import bucketed_apply

    carry = carry or {}
    assert "label" not in (*carry, key), "'label' marks the label side"
    tag = _join_side(key, carry)

    def _join(t: pa.Table) -> pa.Table:
        lt = t.filter(pc.equal(t["__side"], 0))
        rt = t.filter(pc.equal(t["__side"], 1)).sort_by(key)
        x = lt[key].to_numpy(zero_copy_only=False).astype(np.int64)
        lab = x.copy()
        rk = rt[key].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(rk):
            rl = rt["__label"].to_numpy(zero_copy_only=False).astype(np.int64)
            pos = np.clip(np.searchsorted(rk, x), 0, len(rk) - 1)
            hit = rk[pos] == x
            lab[hit] = rl[pos[hit]]
        return (
            lt.select(list(carry))
            .append_column(key, pa.array(x))
            .append_column(out, pa.array(lab))
        )

    if isinstance(rows, list):
        return bucketed_apply(
            rows + labels, key, _join, arrow_fn=True, est_bytes=est_bytes, pre_map=tag
        )
    tagged = rows.map_batches(tag, batch_format="pyarrow").union(
        labels.map_batches(tag, batch_format="pyarrow")
    )
    return bucketed_apply(tagged, key, _join, arrow_fn=True, est_bytes=est_bytes)


def _emit_clusters(t: pa.Table) -> pa.Table:
    """Per-component emit over rows keyed by ``__key``: drop singleton
    groups; cluster_id = the group's min image_id."""
    t = t.sort_by([("__key", "ascending"), ("image_id", "ascending")])
    k = t["__key"].to_numpy(zero_copy_only=False)
    starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]]) if len(k) else np.empty(0, np.int64)
    counts = np.diff(np.r_[starts, len(k)])
    keep = np.repeat(counts >= 2, counts)
    ids = t["image_id"].combine_chunks()
    return pa.table(
        {
            "cluster_id": ids.take(pa.array(np.repeat(starts, counts)[keep])),
            "image_id": ids.filter(pa.array(keep)),
        }
    )


def _factorize_sorted(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int64 endpoints -> (codes, sorted distinct values). Hash-based
    factorize + rank remap of the (small) unique table: pd.factorize
    (sort=True) and np.unique's return_inverse both sort the full-width
    array (~8x slower at 10M rows, heavy memory traffic). Sorted
    uniques make each component's min code its min node id."""
    codes, uniques = pd.factorize(values, sort=False)
    order_u = np.argsort(uniques)
    ranks = np.empty(len(uniques), dtype=np.int64)
    ranks[order_u] = np.arange(len(uniques), dtype=np.int64)
    return ranks[codes], uniques[order_u]


def _cc_labels(ea: np.ndarray, eb: np.ndarray, n: int) -> np.ndarray:
    """Min-label propagation core: edge endpoint code arrays -> per-node
    component label (the component's min code)."""
    e = len(ea)
    if e == 0 or n == 0:
        return np.arange(n, dtype=np.int64)
    inc = np.concatenate([ea, eb])
    order = np.argsort(inc, kind="stable")  # radix for ints: ~2x quicksort
    inc_sorted = inc[order]
    starts = np.flatnonzero(np.r_[True, inc_sorted[1:] != inc_sorted[:-1]])
    touched = inc_sorted[starts]  # nodes with >= 1 incident edge
    edge_of = order % e  # incidence position -> owning edge index

    # preallocated scratch (fresh large allocations fault slowly on a
    # busy hypervisor; reuse keeps the loop resident)
    la = np.empty(e, dtype=np.int64)
    lb = np.empty(e, dtype=np.int64)
    edge_min = np.empty(e, dtype=np.int64)
    vals = np.empty(2 * e, dtype=np.int64)

    labels = np.arange(n, dtype=np.int64)
    while True:
        np.take(labels, ea, out=la)
        np.take(labels, eb, out=lb)
        np.minimum(la, lb, out=edge_min)
        np.take(edge_min, edge_of, out=vals)
        node_min = np.minimum.reduceat(vals, starts)
        new = labels.copy()
        new[touched] = np.minimum(new[touched], node_min)
        while True:  # pointer jumping to the current root
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, labels):
            break
        labels = new
    return labels


def components_phash_labelprop(
    phash_edge_dirs: list[str], hashes_dir: str, max_iters: int = 50
):
    """Distributed CC over the INT phash graph + membership expansion —
    the scale path when the edge list exceeds driver memory
    (cfg.cc_driver_max_edges). Mirrors ``components_phash_driver``:

    1. min-label propagation over (phash_a, phash_b) int edges
    2. every ok image joins its phash's component (one co-grouping
       shuffle, ``join_labels``); a phash absent from the graph keys its
       own group (the unedged exact-duplicate case)
    3. per component: drop singletons, cluster_id = min image_id

    Below ``IDF_EXCHANGE_MAX_BYTES`` (edge + hashes file bytes) the
    stage reads both inputs with one task per file and runs on block
    refs from read to the returned output refs, with no Ray Data job.
    Above it the inputs are Ray Data reads and the join and emit take
    the streaming sort."""
    import os

    import pyarrow.dataset as pads

    from idf.ops import bucketed_apply, exchange_fits, read_refs

    edge_files = _parquet_files(phash_edge_dirs)
    hash_files = _parquet_files([hashes_dir])
    est = sum(os.path.getsize(f) for f in edge_files + hash_files)
    ok = pads.field("status") == "ok"
    read = read_refs if exchange_fits(est) else rd.read_parquet
    edges = read(edge_files, columns=["phash_a", "phash_b"])
    hashes = read(hash_files, columns=["image_id", "phash"], filter=ok)
    labels = components_labelprop(edges, max_iters=max_iters, est_bytes=est)
    keyed = join_labels(
        hashes, "phash", labels, "__key", carry={"image_id": pa.string()}, est_bytes=est
    )
    return bucketed_apply(keyed, "__key", _emit_clusters, arrow_fn=True, est_bytes=est)


def components_phash_driver(phash_edge_dirs: list[str], hashes_dir: str) -> pa.Table:
    """Driver CC over the INT phash graph, expanded to image clusters.

    Images with equal phash are the same node by construction (the
    collapse stages' dist-0 links add no information at hash level), so
    the component computation runs on ~|distinct hashes| int64 nodes —
    no python string churn at all. Membership then expands through the
    hash-stage output: an image joins its phash's component; a phash
    with no candidate edges still forms a cluster when >= 2 ok images
    share it (the exact-duplicate case); singleton groups drop
    (Commands.java:149-151 analog). cluster_id = min member image_id,
    identical to ``components_phash_labelprop``'s output."""
    import pyarrow.dataset as pads

    files = _parquet_files(phash_edge_dirs)
    if files:
        te = pads.dataset(files).to_table(columns=["phash_a", "phash_b"])
        # the raw edge list repeats each pair ~once per band key it
        # surfaced from (~37x at sf0.1); dedup keeps label propagation
        # + factorize on the ~distinct graph. Done entirely in Arrow C++
        # (min/max_element_wise + hash-group-by distinct): Arrow's
        # memory pool reuses already-faulted pages, where the numpy
        # equivalent's fresh allocations page-fault at ~11 MB/s under
        # this hypervisor's storms (measured 26s numpy vs 0.2s Arrow on
        # 4.9M edges; CC output is order-invariant so group_by's
        # nondeterministic row order is fine).
        lo_a = pc.min_element_wise(te["phash_a"], te["phash_b"])
        hi_a = pc.max_element_wise(te["phash_a"], te["phash_b"])
        dist = (
            pa.table({"a": lo_a, "b": hi_a}).group_by(["a", "b"], use_threads=True).aggregate([])
        )
        ha = dist["a"].to_numpy(zero_copy_only=False)
        hb = dist["b"].to_numpy(zero_copy_only=False)
    else:
        ha = hb = np.array([], dtype=np.int64)
    codes, nodes = _factorize_sorted(np.concatenate([ha, hb]))
    labels = _cc_labels(codes[: len(ha)], codes[len(ha) :], len(nodes))

    mt = pads.dataset(_parquet_files([hashes_dir])).to_table(
        columns=["image_id", "phash"], filter=pads.field("status") == "ok"
    )
    iph = mt["phash"].to_numpy(zero_copy_only=False)
    m = len(iph)
    if len(nodes):
        pos = np.clip(np.searchsorted(nodes, iph), 0, len(nodes) - 1)
        in_graph = nodes[pos] == iph
        comp = np.where(in_graph, labels[pos], np.int64(-1))
    else:
        in_graph = np.zeros(m, dtype=bool)
        comp = np.full(m, -1, dtype=np.int64)

    # one int group key per image: edged images use their component
    # label (in [0, n_nodes)); unedged exact-dup groups get per-phash
    # keys past n_nodes. All-int from here; the only string op is one
    # Arrow C++ sort of the image ids.
    key = comp.copy()
    unedged = ~in_graph
    if unedged.any():
        uinv, _ = pd.factorize(iph[unedged])
        key[unedged] = len(nodes) + uinv
    nkeys = int(key.max()) + 1 if m else 0
    sizes = np.bincount(key, minlength=nkeys)

    ids = mt["image_id"].combine_chunks()
    id_order = pc.array_sort_indices(ids).to_numpy(zero_copy_only=False).astype(np.int64)
    perm = id_order[np.argsort(key[id_order], kind="stable")]
    kperm = key[perm]
    first = np.r_[True, kperm[1:] != kperm[:-1]] if m else np.array([], dtype=bool)
    min_row = np.empty(nkeys, dtype=np.int64)
    min_row[kperm[first]] = perm[first]  # per key: row of its min image_id
    # output ordered by image_id for determinism
    keep_rows = np.flatnonzero(sizes[key] >= 2)
    order_out = pc.array_sort_indices(ids.take(pa.array(keep_rows)))
    rows = keep_rows[order_out.to_numpy(zero_copy_only=False).astype(np.int64)]
    return pa.table(
        {
            "cluster_id": ids.take(pa.array(min_row[key[rows]])),
            "image_id": ids.take(pa.array(rows)),
        }
    )


def _parquet_files(dirs: list[str]) -> list[str]:
    import glob
    import os

    return [f for d in dirs for f in sorted(glob.glob(os.path.join(d, "*.parquet")))]


def count_edge_rows(dirs: list[str]) -> int:
    """Exact edge count from the parquet footers — no Ray job."""
    import pyarrow.parquet as pq

    return sum(pq.ParquetFile(f).metadata.num_rows for f in _parquet_files(dirs))


def connected_components(
    cfg, phash_edge_dirs: list[str], hashes_dir: str
) -> rd.Dataset | pa.Table:
    """Clusters over the int phash graph, by edge count: the driver
    route while ``count_edge_rows <= cfg.cc_driver_max_edges`` (``<=``
    keeps a zero-edge graph on the driver even at a limit of 0),
    distributed labelprop above it.

    The driver route returns a local ``pa.Table`` (the manifest writes
    it with pyarrow directly — no Ray job); labelprop returns a Dataset.
    Both routes are looked up by module attribute at call time, so a
    wrapper installed on the module (perfbench/trace.py) sees the call."""
    if count_edge_rows(phash_edge_dirs) <= cfg.cc_driver_max_edges:
        return components_phash_driver(phash_edge_dirs, hashes_dir)
    return components_phash_labelprop(phash_edge_dirs, hashes_dir)


def cluster_size_histogram(clusters: rd.Dataset, n_buckets: int = 64) -> "pd.DataFrame":
    """(cluster_size, n_clusters): distribution of near-dup cluster
    sizes over the clusters stage — the first diagnostic a dedup run is
    judged by (how much mass sits in 2-member clusters vs mega-clusters;
    the reference surfaces per-cluster member counts in its UI,
    WebServer.java's clusters payload).

    100-TB shape: member rows never leave their batches — each batch
    ships (cluster_id, partial_count) rows, a cluster-keyed bucketed sum
    makes exact sizes, and each bucket then collapses to its own
    (size, count) histogram partial. The driver merges histograms whose
    row count is bounded by the number of DISTINCT cluster sizes per
    bucket — a few dozen values no matter the corpus."""
    import pandas as pd

    from idf.ops import bucketed_aggregate

    def part(df: "pd.DataFrame") -> "pd.DataFrame":
        return (
            df.groupby("cluster_id", sort=False)
            .size()
            .rename("n")
            .reset_index()
        )

    sizes = bucketed_aggregate(
        clusters.map_batches(part, batch_format="pandas"),
        "cluster_id",
        {"n": ("n", "sum")},
        n_buckets=n_buckets,
    )

    def hist(df: "pd.DataFrame") -> "pd.DataFrame":
        vc = df["n"].value_counts()
        return pd.DataFrame(
            {
                "cluster_size": vc.index.to_numpy(dtype=np.int64),
                "n_clusters": vc.to_numpy(dtype=np.int64),
            }
        )

    h = sizes.map_batches(hist, batch_format="pandas").to_pandas()
    out = (
        h.groupby("cluster_size", sort=True)["n_clusters"].sum().reset_index()
    )
    out["n_clusters"] = out["n_clusters"].astype(np.int64)
    return out

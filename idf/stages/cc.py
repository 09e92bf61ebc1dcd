"""Connected components over the verified candidate-edge list.

Reference analog X4 (cluster/Clusterer.java:6-30): BFS flood fill over
``hamming <= radius`` neighborhoods == connected components of the edge
graph; discovery order only affects the reference's UUID draw, never the
partition (SURVEY §2.6). Cluster ids here are deterministic: the min
member ``image_id``.

Two implementations (SURVEY §7 step 5):

- driver union-find: streams edge batches to the driver
  (``iter_batches``, never ``take_all`` of wide rows) and unions in
  O(alpha) per edge. Memory is O(#nodes that appear in edges) — the
  near-dup minority, not the corpus. Default below
  ``cfg.cc_driver_max_edges``.
- label propagation: fully distributed min-label fixpoint
  (groupby-min per round) for edge lists too big for one machine;
  rounds = graph diameter (near-dup components are tiny, so 2-4).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

CLUSTER_SCHEMA = pa.schema([("cluster_id", pa.string()), ("image_id", pa.string())])

# Observability for the distributed CC path (mirrors SESSIONIZE_STATS /
# EXCHANGE_STATS): how many propagation rounds the last labelprop run
# took and whether it hit the fixpoint before max_iters. Read by
# scripts/bench_labelprop_guard.py and asserted in tests.
CC_STATS: dict = {"labelprop_rounds": None, "converged": None}


def components_driver(edges: rd.Dataset) -> pa.Table:
    """Vectorized driver-side connected components -> (cluster_id, image_id).

    Streams edge batches to the driver, factorizes node ids to ints,
    then runs min-label propagation with pointer jumping — every step a
    whole-array numpy op, O(E * diameter) with tiny diameters for
    near-dup graphs. Handles tens of millions of edges in seconds;
    beyond driver memory, ``components_labelprop`` is the distributed
    path (cfg.cc_mode)."""
    import pandas as pd

    parts_a, parts_b = [], []
    for batch in edges.iter_batches(batch_size=262144, batch_format="pyarrow"):
        parts_a.append(batch["id_a"].to_pandas())
        parts_b.append(batch["id_b"].to_pandas())
    if not parts_a:
        return pa.table(
            {"cluster_id": pa.array([], pa.string()), "image_id": pa.array([], pa.string())}
        )
    a = pd.concat(parts_a, ignore_index=True)
    b = pd.concat(parts_b, ignore_index=True)
    codes, uniques = _factorize_sorted(pd.concat([a, b], ignore_index=True))
    return _cc_from_codes(codes, uniques, len(a))


def _labelprop_route_msgs(t: pa.Table) -> pa.Table:
    """Exchange-1 bucket fn: co-grouped (edges ∪ labels) keyed on ``src``.

    Emits one message per edge (``node=dst`` carrying ``label(src)``)
    plus every label row's self-message (flagged), all vectorized via a
    sorted searchsorted lookup — no pandas merge, no null-padded int64
    round-trips through float64.
    """
    import pyarrow.compute as pc

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


def components_labelprop(edges: rd.Dataset, max_iters: int = 50) -> rd.Dataset:
    """Distributed min-label propagation to fixpoint.

    labels(node) starts at min(node, neighbors); each round every edge
    sends its source's label to its destination and each node takes the
    min over incoming messages and its own label; converged when no
    label changed. Deterministic output: label == min member id.

    Each round is exactly TWO content-keyed exchanges (the structural
    minimum for edge-wise propagation) with the convergence check fused
    into the second one's output — the earlier hash_join+groupby+join
    formulation cost ~4 shuffle jobs per round, and per-job fixed
    coordination dominated it at small edge counts (578 s → this at
    sf0.1; see scripts/bench_labelprop_guard.py).
    """
    from idf.ops import exchange_apply

    # symmetrize + pad in one lazy chain, materialized ONCE: the padded
    # edge table is the only pinned copy (init reads its src/dst and
    # ignores the padding; every round's union reuses the same blocks)
    edge_side = edges.map_batches(
        lambda t: pa.table(
            {
                "src": pa.concat_arrays([t["id_a"].combine_chunks(), t["id_b"].combine_chunks()]),
                "dst": pa.concat_arrays([t["id_b"].combine_chunks(), t["id_a"].combine_chunks()]),
            }
        ),
        batch_format="pyarrow",
    ).map_batches(
        lambda t: pa.table(
            {
                "src": t["src"].combine_chunks(),
                "dst": t["dst"].combine_chunks(),
                "label": pa.nulls(len(t), pa.int64()),
                "__side": pa.array(np.zeros(len(t), dtype=np.int8)),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    def _init_labels(t: pa.Table) -> pa.Table:
        src = t["src"].to_numpy(zero_copy_only=False)
        dst = t["dst"].to_numpy(zero_copy_only=False)
        order = np.argsort(src, kind="stable")
        s_s, d_s = src[order], dst[order]
        bounds = np.flatnonzero(np.r_[True, s_s[1:] != s_s[:-1]]) if len(s_s) else np.empty(0, dtype=np.int64)
        unodes = s_s[bounds]
        min_nb = np.minimum.reduceat(d_s, bounds) if len(bounds) else d_s[:0]
        return pa.table({"node": unodes, "label": np.minimum(unodes, min_nb)})

    labels = exchange_apply(edge_side, "src", _init_labels, arrow_fn=True)

    CC_STATS["labelprop_rounds"] = 0
    CC_STATS["converged"] = False
    for _ in range(max_iters):
        lab_side = labels.map_batches(
            lambda t: pa.table(
                {
                    "src": t["node"].combine_chunks(),
                    "dst": pa.nulls(len(t), pa.int64()),
                    "label": t["label"].combine_chunks(),
                    "__side": pa.array(np.ones(len(t), dtype=np.int8)),
                }
            ),
            batch_format="pyarrow",
        )
        msgs = exchange_apply(
            edge_side.union(lab_side), "src", _labelprop_route_msgs, arrow_fn=True
        )
        agg = exchange_apply(msgs, "node", _labelprop_min_reduce, arrow_fn=True)
        changed = agg.map_batches(
            lambda t: pa.table(
                {"c": pa.compute.cast(pa.compute.not_equal(t["label"], t["old"]), pa.int64())}
            ),
            batch_format="pyarrow",
        ).sum("c")
        labels = agg.select_columns(["node", "label"])
        CC_STATS["labelprop_rounds"] += 1
        if not changed:
            CC_STATS["converged"] = True
            break
    return labels.map_batches(
        lambda t: pa.table({"cluster_id": t["label"], "image_id": t["node"]}),
        batch_format="pyarrow",
    )



def _factorize_sorted_arrow(id_a, id_b) -> tuple[np.ndarray, np.ndarray]:
    """Factorize the concatenated endpoint columns entirely in Arrow
    C++ (dictionary_encode + sort_indices) — no python string objects.

    At 10M endpoints, pandas factorize materializes millions of python
    strings; on a hypervisor that throttles fresh allocations that cost
    dominated the whole clusters stage. Returns (codes int64, uniques
    object array) with uniques lexicographically sorted."""
    import pyarrow.compute as pc

    combined = pa.chunked_array(
        [c for col in (id_a, id_b) for c in (col.chunks if isinstance(col, pa.ChunkedArray) else [col])]
    ).combine_chunks()
    enc = pc.dictionary_encode(combined)
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    dictionary = enc.dictionary
    order_u = pc.array_sort_indices(dictionary).to_numpy(zero_copy_only=False).astype(np.int64)
    ranks = np.empty(len(dictionary), dtype=np.int64)
    ranks[order_u] = np.arange(len(dictionary), dtype=np.int64)
    uniques = np.asarray(dictionary.take(pa.array(order_u)).to_pylist(), dtype=object)
    return ranks[codes], uniques


def _factorize_sorted(series: pd.Series) -> tuple[np.ndarray, np.ndarray]:
    """factorize + lexicographic relabel. pd.factorize(sort=True) remaps
    through a full-width sort (~8x slower at 10M rows); hashing unsorted
    then rank-remapping the (small) unique table is equivalent."""
    codes, uniques = pd.factorize(series, sort=False)
    order_u = np.argsort(uniques)
    ranks = np.empty(len(uniques), dtype=np.int64)
    ranks[order_u] = np.arange(len(uniques), dtype=np.int64)
    return ranks[codes], np.asarray(uniques, dtype=object)[order_u]


def _cc_from_codes(codes: np.ndarray, uniques, n_edges: int) -> pa.Table:
    """Min-label propagation + pointer jumping over factorized edges.

    ``uniques`` MUST be lexicographically sorted (factorize(sort=True)):
    the min LABEL per component is then automatically the min image_id,
    so no per-component string min is needed at the end.

    The scatter-min uses a once-sorted incidence list +
    ``np.minimum.reduceat`` — ``np.minimum.at`` (the obvious spelling)
    is an order of magnitude slower (measured 27s vs ~2s on a 5M-edge
    graph with a 10k-node component)."""
    n = len(uniques)
    codes = np.ascontiguousarray(codes, dtype=np.int64)
    labels = _cc_labels(codes[:n_edges], codes[n_edges:], n)
    ids = np.asarray(uniques, dtype=object)  # already in image_id order
    return pa.table(
        {
            "cluster_id": pa.array(ids[labels], pa.string()),
            "image_id": pa.array(ids, pa.string()),
        }
    )


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
) -> rd.Dataset:
    """Distributed CC over the INT phash graph + membership expansion —
    the scale path when the edge list exceeds driver memory
    (cfg.cc_driver_max_edges). Mirrors ``components_phash_driver``:

    1. min-label propagation over (phash_a, phash_b) int edges
    2. every ok image joins its phash's component (one co-grouping
       shuffle); a phash absent from the graph keys its own group (the
       unedged exact-duplicate case)
    3. per component: drop singletons, cluster_id = min image_id

    The membership join is NUMPY searchsorted inside the bucket, not a
    pandas left-merge: a merge would promote the int64 label column to
    float64 on misses and corrupt hashes above 2^53."""
    import pyarrow.dataset as pads

    edges = None
    for d in phash_edge_dirs:
        part = rd.read_parquet(d, columns=["phash_a", "phash_b"])
        edges = part if edges is None else edges.union(part)
    id_edges = edges.map_batches(
        lambda t: pa.table({"id_a": t["phash_a"], "id_b": t["phash_b"]}),
        batch_format="pyarrow",
    )
    labels = components_labelprop(id_edges, max_iters=max_iters).map_batches(
        lambda t: pa.table(
            {
                "image_id": pa.nulls(len(t), pa.string()),
                "phash": t["image_id"],
                "label": t["cluster_id"],
                "__side": pa.array(np.ones(len(t), dtype=np.int8)),
            }
        ),
        batch_format="pyarrow",
    )
    hashes = rd.read_parquet(
        hashes_dir,
        columns=["image_id", "phash"],
        filter=pads.field("status") == "ok",
    ).map_batches(
        lambda t: pa.table(
            {
                "image_id": t["image_id"],
                "phash": t["phash"],
                "label": pa.nulls(len(t), pa.int64()),
                "__side": pa.array(np.zeros(len(t), dtype=np.int8)),
            }
        ),
        batch_format="pyarrow",
    )

    def _member_key(t: pa.Table) -> pa.Table:
        # ARROW in (arrow_fn=True): the tagged union carries per-side
        # null padding ('label' null on side 0, 'image_id' on side 1);
        # a whole-partition pandas conversion would promote the int64
        # label column to float64 and round full-64-bit phash-valued
        # labels above 2^53 — distinct components whose rounded labels
        # collide would silently merge (r2 ADVICE, high). Filter each
        # side in Arrow FIRST so every slice converts with true dtypes.
        import pyarrow.compute as pc

        lt = t.filter(pc.equal(t["__side"], 0))
        rt = t.filter(pc.equal(t["__side"], 1)).sort_by("phash")
        x = lt["phash"].to_numpy(zero_copy_only=False).astype(np.int64)
        key = x.copy()
        rp = rt["phash"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(rp):
            rl = rt["label"].to_numpy(zero_copy_only=False).astype(np.int64)
            pos = np.clip(np.searchsorted(rp, x), 0, len(rp) - 1)
            hit = rp[pos] == x
            key[hit] = rl[pos[hit]]
        return pa.table({"image_id": lt["image_id"], "__key": pa.array(key)})

    from idf.ops import bucketed_apply, bucketed_group_apply

    keyed = bucketed_apply(hashes.union(labels), "phash", _member_key, arrow_fn=True)

    def _emit(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return pd.DataFrame(
                {"cluster_id": pd.Series([], dtype=object), "image_id": pd.Series([], dtype=object)}
            )
        return pd.DataFrame({"cluster_id": g["image_id"].min(), "image_id": g["image_id"]})

    return bucketed_group_apply(keyed, "__key", _emit)


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
    identical to the id-level CC output."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    files = [f for files, _ in _source_files([(d, None) for d in phash_edge_dirs]) for f in files]
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
    endpoints = np.concatenate([ha, hb])
    # hash-based factorize + small-table rank remap: np.unique's
    # return_inverse argsorts the full 2E array (heavy memory traffic)
    inv, nodes_u = pd.factorize(endpoints)
    order_u = np.argsort(nodes_u)
    ranks = np.empty(len(nodes_u), dtype=np.int64)
    ranks[order_u] = np.arange(len(nodes_u), dtype=np.int64)
    inv = ranks[inv]
    nodes = nodes_u[order_u]
    labels = _cc_labels(inv[: len(ha)], inv[len(ha) :], len(nodes))

    mt = pads.dataset(
        [f for files, _ in _source_files([(hashes_dir, None)]) for f in files]
    ).to_table(columns=["image_id", "phash"], filter=pads.field("status") == "ok")
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


# An edge source: (stage directory, optional `kind` value to filter on).
# The image pipeline uses plain phash-pair dirs (kind=None); the kind
# filter remains for generic callers whose stages mix row kinds.
EdgeSource = tuple[str, int | None]


def _source_files(sources: list[EdgeSource]) -> list[tuple[list[str], int | None]]:
    import glob
    import os

    return [
        (sorted(glob.glob(os.path.join(d, "*.parquet"))), kind) for d, kind in sources
    ]


def count_edge_rows(sources: list[EdgeSource]) -> int:
    """Exact edge count without a Ray job: parquet footers for
    unfiltered sources, a kind-column-only local scan for filtered ones
    (footer num_rows would overcount collapse dirs by their DISTINCT
    rows — that overcount once tipped auto mode into labelprop)."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    total = 0
    for files, kind in _source_files(sources):
        if not files:
            continue
        if kind is None:
            total += sum(pq.ParquetFile(f).metadata.num_rows for f in files)
        else:
            total += pads.dataset(files).count_rows(filter=pads.field("kind") == kind)
    return total


def _sources_dataset(sources: list[EdgeSource]) -> rd.Dataset:
    import pyarrow.dataset as pads

    ds = None
    for d, kind in sources:
        flt = (pads.field("kind") == kind) if kind is not None else None
        part = rd.read_parquet(d, columns=["id_a", "id_b"], filter=flt)
        ds = part if ds is None else ds.union(part)
    return ds


def components_driver_files(sources: list[EdgeSource]) -> pa.Table:
    """Driver CC straight off local stage parquet.

    ``pyarrow.dataset.to_table`` reads the two id columns ~2.8x faster
    end-to-end than streaming them through a Ray ``iter_batches`` job
    (measured 7s vs 20s on 4.5M edges) — for a DRIVER-side algorithm
    the distributed read machinery is pure overhead."""
    import pyarrow.dataset as pads

    parts = []
    for files, kind in _source_files(sources):
        if not files:
            continue
        flt = (pads.field("kind") == kind) if kind is not None else None
        parts.append(pads.dataset(files).to_table(columns=["id_a", "id_b"], filter=flt))
    if not parts:
        return pa.table(
            {"cluster_id": pa.array([], pa.string()), "image_id": pa.array([], pa.string())}
        )
    t = pa.concat_tables(parts)
    codes, uniques = _factorize_sorted_arrow(t["id_a"], t["id_b"])
    return _cc_from_codes(codes, uniques, len(t))


def connected_components(
    edges: rd.Dataset | None,
    cfg=None,
    parquet_sources: list[EdgeSource] | None = None,
    phash_edge_dirs: list[str] | None = None,
    hashes_dir: str | None = None,
) -> rd.Dataset | pa.Table:
    """Dispatch per cfg.cc_mode ('driver' | 'labelprop' | 'auto').

    Driver paths return a local ``pa.Table`` (the manifest writes it
    with pyarrow directly — no Ray job); labelprop returns a Dataset.

    ``parquet_sources``: when the edges already live in local stage
    parquet (the manifest pipeline), pass (dir, kind-filter) pairs —
    the driver path then skips the Ray read entirely and the auto-mode
    edge count comes from parquet footers instead of a count job.
    ``phash_edge_dirs`` + ``hashes_dir``: enables the int-graph driver
    path (components_phash_driver) — preferred when the edge count fits
    the driver."""
    mode = getattr(cfg, "cc_mode", "auto") if cfg is not None else "auto"
    limit = getattr(cfg, "cc_driver_max_edges", 5_000_000) if cfg is not None else 5_000_000
    if phash_edge_dirs is not None and hashes_dir is not None:
        if mode == "labelprop":
            return components_phash_labelprop(phash_edge_dirs, hashes_dir)
        n_edges = count_edge_rows([(d, None) for d in phash_edge_dirs])
        if mode == "driver" or n_edges <= limit:
            return components_phash_driver(phash_edge_dirs, hashes_dir)
        return components_phash_labelprop(phash_edge_dirs, hashes_dir)
    if parquet_sources is not None:
        if mode == "labelprop" or (mode == "auto" and count_edge_rows(parquet_sources) > limit):
            return components_labelprop(_sources_dataset(parquet_sources))
        return components_driver_files(parquet_sources)
    if mode == "labelprop":
        return components_labelprop(edges)
    if mode == "auto" and edges.count() > limit:
        return components_labelprop(edges)
    return components_driver(edges)


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

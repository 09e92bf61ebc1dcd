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
- ``components_phash_labelprop`` (above it): the fully distributed
  min-label fixpoint as Pregel-style supersteps over object refs. One
  exchange co-partitions the symmetric edges (keyed on ``src``) with
  the rows to label (keyed on their int key); each partition's block is
  its static state. Each round is one task per partition: it applies
  the messages addressed to it and returns its labels, how many
  changed, and the next round's messages, sent from changed nodes only
  (rounds = graph diameter; near-dup components are tiny, so 2-4).
  After the fixpoint each partition labels its own rows in place,
  inside the split tasks of the cluster emit exchange.

``idf/functions/canon.py`` runs the same two kernels over its int id
graphs.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

# Observability for the clusters stage (mirrors EXCHANGE_STATS): the
# route the last ``connected_components`` call took, how many
# propagation rounds the last labelprop run took and whether it reached
# the fixpoint before max_iters. Recorded in the clusters stage's
# manifest metrics, read by perfbench's tracer and
# scripts/bench_labelprop_guard.py, and asserted in tests.
CC_STATS: dict = {"route": None, "labelprop_rounds": None, "converged": None}

_EMPTY = np.empty(0, dtype=np.int64)


def _tag_side(t: pa.Table, side: int, key: str | None) -> pa.Table:
    """Co-partition pre_map: an edge block (side 0: two int endpoint
    columns, by position) -> its symmetric ``(src, dst)`` rows; a row
    block (side 1) -> its rows with ``key`` as ``src`` and a null
    ``dst``, the payload columns carried. Both sides key on int64
    ``src``, the dtype the superstep messages are split on."""
    if side == 0:
        a, b = (
            (t.column(i).cast(pa.int64()).combine_chunks() for i in (0, 1))
            if t.num_columns
            else (pa.array(_EMPTY), pa.array(_EMPTY))
        )
        return pa.table(
            {
                "src": pa.concat_arrays([a, b]),
                "dst": pa.concat_arrays([b, a]),
                "__side": pa.array(np.zeros(2 * len(a), dtype=np.int8)),
            }
        )
    if not t.num_columns:
        t = pa.table({key: pa.array(_EMPTY)})
    n = t.num_rows
    return pa.table(
        {
            "src": t[key].cast(pa.int64()),
            "dst": pa.nulls(n, pa.int64()),
            "__side": pa.array(np.ones(n, dtype=np.int8)),
            **{c: t[c] for c in t.column_names if c != key},
        }
    )


def _static_block(t: pa.Table) -> pa.Table:
    """Co-partition reduce: one partition's static superstep state. Its
    edges come first, sorted by ``(src, dst)`` with repeats dropped (the
    raw edge list repeats a pair once per band key it surfaced from),
    then its rows (null ``dst``)."""
    is_edge = pc.equal(t["__side"], 0)
    e = t.filter(is_edge)
    src = e["src"].to_numpy(zero_copy_only=False)
    dst = e["dst"].to_numpy(zero_copy_only=False)
    order = np.lexsort((dst, src))
    s, d = src[order], dst[order]
    keep = np.r_[True, (s[1:] != s[:-1]) | (d[1:] != d[:-1])][: len(s)]
    edges = pa.table(
        {"src": s[keep], "dst": d[keep], "__side": np.zeros(int(keep.sum()), dtype=np.int8)}
    )
    rows = t.filter(pc.invert(is_edge))
    return pa.concat_tables([edges, rows], promote_options="default").combine_chunks()


def _static_parts(static: pa.Table) -> tuple[np.ndarray, np.ndarray, pa.Table]:
    """A static block -> its edge ``src`` and ``dst`` arrays (sorted by
    ``src``) and its rows table."""
    if "dst" not in static.column_names:  # every input block was blank
        return _EMPTY, _EMPTY, static
    n_e = static.num_rows - static["dst"].null_count
    edges = static.slice(0, n_e)
    return (
        edges["src"].to_numpy(zero_copy_only=False),
        edges["dst"].to_numpy(zero_copy_only=False),
        static.slice(n_e),
    )


@ray.remote
def _superstep(static: pa.Table, labels: pa.Table | None, n_parts: int, *msgs: np.ndarray):
    """One labelprop round of one partition -> ``(labels, n_changed,
    *messages)``: ``labels`` is the ``(node, label)`` table of the
    partition's nodes (every edge ``src``, ascending) and ``messages``
    holds one ``(2, k)`` int64 ``[dst; label]`` array per partition,
    split with the exchange's own ``hash_split``.

    Round 0 (``labels`` None) starts every node at min(node,
    neighbors); a node still at its own id has nothing to send, since
    each neighbor already counted that id. Later rounds take each
    node's min over its label and the messages addressed to it. Only
    nodes whose label changed send, along every edge, so a round's
    labels equal a full all-edges round's, with no sentinel values."""
    from idf.ops import hash_split

    src, dst, _ = _static_parts(static)
    starts = np.flatnonzero(np.r_[True, src[1:] != src[:-1]]) if len(src) else _EMPTY
    nodes = src[starts]
    if labels is None:
        old = nodes
        new = np.minimum(nodes, np.minimum.reduceat(dst, starts)) if len(starts) else nodes
    else:
        if not np.array_equal(labels["node"].to_numpy(zero_copy_only=False), nodes):
            raise AssertionError(
                "labelprop invariant broken: an edge src has no label row "
                "(labels must cover every node of the symmetric edge list)"
            )
        old = labels["label"].to_numpy(zero_copy_only=False)
        new = old.copy()
        m = np.concatenate(msgs, axis=1) if msgs else np.empty((2, 0), dtype=np.int64)
        if m.shape[1]:
            pos = np.searchsorted(nodes, m[0])
            if pos.max() >= len(nodes) or not (nodes[pos] == m[0]).all():
                raise AssertionError(
                    "labelprop invariant broken: a node received messages but "
                    "has no self row (every node must carry its own label)"
                )
            np.minimum.at(new, pos, m[1])
    changed = new != old
    degree = np.diff(np.r_[starts, len(src)])
    sel = np.repeat(changed, degree)
    to, lab = dst[sel], np.repeat(new, degree)[sel]
    order, bounds = hash_split(pa.table({"src": to}), n_parts)
    out = np.stack([to[order], lab[order]])
    return (
        pa.table({"node": nodes, "label": new}),
        int(changed.sum()),
        *(out[:, bounds[p] : bounds[p + 1]] for p in range(n_parts)),
    )


def _propagate(inputs: list, key: str | None, n_parts: int, max_iters: int) -> tuple[list, list]:
    """Min-label propagation to fixpoint -> ``(static, labels)``, one
    ref each per partition: ``static`` from the one co-partitioning
    ``exchange_refs`` over ``inputs``, each edge source tagged 0 and
    each row source tagged 1 for ``_tag_side`` (edges are symmetrized
    inside the split tasks, rows keyed on their int ``key``); ``labels``
    the final ``(node, label)`` tables. Each round is one ``_superstep``
    task per partition; the driver gets only their changed counts. A
    graph still changing after ``max_iters`` rounds raises
    ``RuntimeError`` after ``CC_STATS`` records the rounds: its labels
    would split components."""
    from idf.ops import exchange_refs

    static = exchange_refs(
        inputs, "src", _static_block, n_parts, pre_map=functools.partial(_tag_side, key=key)
    )
    step = _superstep.options(num_returns=2 + n_parts)
    outs = [step.remote(s, None, n_parts) for s in static]
    CC_STATS.update(labelprop_rounds=0, converged=False)
    while True:
        labels = [o[0] for o in outs]
        if not sum(ray.get([o[1] for o in outs])):
            CC_STATS["converged"] = True
            return static, labels
        if CC_STATS["labelprop_rounds"] == max_iters:
            raise RuntimeError(
                f"labelprop did not converge in {max_iters} rounds: a component's "
                "diameter exceeds max_iters, and its labels would split it"
            )
        outs = [
            step.remote(s, lab, n_parts, *[o[2 + p] for o in outs])
            for p, (s, lab) in enumerate(zip(static, labels))
        ]
        CC_STATS["labelprop_rounds"] += 1


def _label_rows(
    static: pa.Table, labels: pa.Table, key: str, out: str, carry: dict[str, pa.DataType]
) -> pa.Table:
    """Join in place: one partition's rows as ``carry`` columns + int64
    ``key`` + ``out``, the component label of the row's key (a key
    absent from the graph keeps itself). A numpy searchsorted over the
    partition's own sorted nodes: no shuffle, and no pandas round trip
    that could turn 64-bit labels into float64 (r2 ADVICE, high)."""
    _, _, rows = _static_parts(static)
    if not rows.num_rows:
        empty = pa.array(_EMPTY)
        return pa.table({**{c: pa.array([], t) for c, t in carry.items()}, key: empty, out: empty})
    x = rows["src"].to_numpy(zero_copy_only=False)
    lab = x.copy()
    nodes = labels["node"].to_numpy(zero_copy_only=False)
    if len(nodes):
        pos = np.clip(np.searchsorted(nodes, x), 0, len(nodes) - 1)
        hit = nodes[pos] == x
        lab[hit] = labels["label"].to_numpy(zero_copy_only=False)[pos[hit]]
    return pa.table({**{c: rows[c] for c in carry}, key: x, out: lab})


def components_labelprop(edges, max_iters: int = 50, est_bytes: int | None = None):
    """Distributed min-label propagation to fixpoint: ``edges`` (two
    int64 endpoint columns, by position) -> ``(node, label)``, label ==
    the component's min node id.

    Pregel-style supersteps over object refs (``_propagate``): one
    ``exchange_refs`` co-partitions the symmetric edges on ``src``, then
    each round is one task per partition, with no Ray Data job and no
    exchange inside the loop; the final labels are the superstep
    outputs. ``edges`` is a list of Arrow block refs (-> label refs;
    ``est_bytes`` sizes the exchange) or a Dataset, which is
    materialized once around the same loop (-> Dataset). An edge-less
    input returns typed empty labels after 0 rounds. A graph still
    changing after ``max_iters`` rounds raises ``RuntimeError``."""
    from idf.ops import available_cpus, exchange_width

    as_refs = isinstance(edges, list)
    if not as_refs:
        edges = edges.materialize()
        est_bytes = 2 * (edges.size_bytes() or 0)  # the symmetrized side
        edges = edges.to_arrow_refs()
    n_parts = exchange_width(est_bytes or 0, available_cpus())
    _, labels = _propagate([(r, 0) for r in edges], None, n_parts, max_iters)
    if as_refs:
        return labels
    if not CC_STATS["labelprop_rounds"]:
        return rd.from_arrow(pa.table({"node": pa.array(_EMPTY), "label": pa.array(_EMPTY)}))
    return rd.from_arrow_refs(labels)


def label_components(
    edges: list, rows: list, key: str, out: str, est_bytes: int, max_iters: int = 50
) -> list:
    """``(key, out)`` block refs over ``rows`` (block refs of one int64
    ``key`` column): ``out`` is the component label of each key over the
    ``edges`` block refs, a key absent from the graph keeping itself.
    The rows ride the labelprop co-partitioning exchange and are
    labelled where they sit, one task per partition."""
    from idf.ops import available_cpus, exchange_width

    n_parts = exchange_width(est_bytes, available_cpus())
    inputs = [(r, 0) for r in edges] + [(r, 1) for r in rows]
    static, labels = _propagate(inputs, key, n_parts, max_iters)
    task = ray.remote(_label_rows)
    return [task.remote(s, lab, key, out, {}) for s, lab in zip(static, labels)]


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
    phash_edge_dirs: list[str], hashes_dir: str, max_iters: int = 50, metrics: dict | None = None
):
    """Distributed CC over the INT phash graph + membership expansion —
    the scale path when the edge list exceeds driver memory
    (cfg.cc_driver_max_edges). Mirrors ``components_phash_driver``:

    1. min-label propagation over (phash_a, phash_b) int edges, with
       the ok ``(image_id, phash)`` rows co-partitioned on their phash
       by the same exchange (``_propagate``)
    2. every ok image takes its phash's component label where it sits,
       inside the split tasks of the emit exchange; a phash absent from
       the graph keys its own group (the unedged exact-duplicate case)
    3. per component: drop singletons, cluster_id = min image_id

    Two exchanges and R+1 superstep waves in all, with no Ray Data job:
    the co-partitioning split tasks read the edge and hashes files
    themselves, and the emit exchange's reduce tasks write the
    clusters. The edge + hashes file bytes size both exchanges, and
    ``metrics`` gets their width (``exchange_parts``) and the split
    tasks of the file-reading one (``split_tasks``). Propagation runs
    here; the returned writer runs the emit exchange into a stage's
    ``.tmp`` directory."""
    import os

    import pyarrow.dataset as pads

    from idf.ops import (
        FileSlice,
        available_cpus,
        exchange_refs,
        exchange_width,
        file_inputs,
        wait_all,
    )

    edge_files = _parquet_files(phash_edge_dirs)
    hash_files = _parquet_files([hashes_dir])
    n_parts = exchange_width(
        sum(os.path.getsize(f) for f in edge_files + hash_files), available_cpus()
    )
    ok = pads.field("status") == "ok"
    inputs = file_inputs(
        [FileSlice(f, ["phash_a", "phash_b"], extra=(0,)) for f in edge_files]
        + [FileSlice(f, ["image_id", "phash"], ok, extra=(1,)) for f in hash_files],
        n_parts,
    )
    if metrics is not None:
        metrics.update(exchange_parts=n_parts, split_tasks=len(inputs))
    static, labels = _propagate(inputs, "phash", n_parts, max_iters)
    keyed = functools.partial(_label_rows, key="phash", out="__key", carry={"image_id": pa.string()})
    return lambda tmp: wait_all(
        exchange_refs(
            list(zip(static, labels)), "__key", _emit_clusters, n_parts, keyed, out_dir=tmp
        )
    )


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
    identical to ``components_phash_labelprop``'s output.

    The edges are read as they are: the band stage writes each pair
    once, and the kernel is duplicate-invariant besides."""
    import pyarrow.dataset as pads

    files = _parquet_files(phash_edge_dirs)
    if files:
        te = pads.dataset(files).to_table(columns=["phash_a", "phash_b"])
        ha = te["phash_a"].to_numpy()
        hb = te["phash_b"].to_numpy()
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
    cfg, phash_edge_dirs: list[str], hashes_dir: str, metrics: dict | None = None
) -> pa.Table | Callable[[str], None]:
    """Clusters over the int phash graph, by edge count: the driver
    route while ``count_edge_rows <= cfg.cc_driver_max_edges`` (``<=``
    keeps a zero-edge graph on the driver even at a limit of 0),
    distributed labelprop above it.

    The driver route returns a local ``pa.Table`` (the manifest writes
    it with pyarrow directly — no Ray job); labelprop returns a writer
    of the stage's ``.tmp`` directory and fills ``metrics`` with its
    exchange plan. Both routes are looked up by module attribute at call
    time, so a wrapper installed on the module (perfbench/trace.py) sees
    the call. ``CC_STATS`` records the route taken; the driver kernel
    always runs to its fixpoint, in 0 labelprop rounds."""
    if count_edge_rows(phash_edge_dirs) <= cfg.cc_driver_max_edges:
        CC_STATS.update(route="driver", labelprop_rounds=0, converged=True)
        return components_phash_driver(phash_edge_dirs, hashes_dir)
    CC_STATS["route"] = "labelprop"
    return components_phash_labelprop(phash_edge_dirs, hashes_dir, metrics=metrics)


def cluster_size_histogram(clusters: rd.Dataset) -> "pd.DataFrame":
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

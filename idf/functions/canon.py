"""Generic near-duplicate canonical-map machinery.

Given an id table and a near-dup pair (edge) table, produce the
``(id, canon_id)`` map over ALL ids — ``canon_id`` is the minimum id of
the connected component (== the id itself for non-duplicates, so the
keep-list is ``canon_id == id``). This is the closure step every dedup
family shares: doc MinHash-LSH (``dedup_docs_map``), embedding sign-LSH
(``dedup_embeddings_map``) and the image pipeline's cluster stage all
reduce to components-over-pairs followed by a corpus-wide map join.

Scale shape: the pair graph is the corpus minority by construction
(pairs only exist between near-dups), so components run on the driver
while the edge count is <= ``driver_max_edges`` — the same guard as the
image CC's ``cc_driver_max_edges`` (idf/stages/cc.py) — and via
distributed min-label propagation above it. Both routes use the image
CC's kernels: ``_factorize_sorted`` + ``_cc_labels`` on the driver,
``components_labelprop`` + ``join_labels`` at scale. Either way the canon
map reaches the corpus as a broadcast (small case) or a bucketed
int-exact co-group join (scale case); the id table itself streams and is
never materialized.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd


def canonical_map(
    ids: rd.Dataset,
    edges: rd.Dataset,
    id_col: str,
    driver_max_edges: int = 5_000_000,
) -> rd.Dataset:
    """(id_col, canon_id) over every row of ``ids``.

    ``ids`` must carry column ``id_col`` (int64, unique); ``edges``
    must carry ``{id_col}_a`` / ``{id_col}_b``. Extra columns on either
    side are dropped up front so the exchanges stay thin.
    """
    import ray

    from idf.ops import get_broadcast
    from idf.stages.cc import _cc_labels, _factorize_sorted, components_labelprop, join_labels

    col_a, col_b = f"{id_col}_a", f"{id_col}_b"
    edges = edges.map_batches(
        lambda t: t.select([col_a, col_b]).replace_schema_metadata(None),
        batch_format="pyarrow",
    ).materialize()
    n_edges = edges.count()
    ids_only = ids.map_batches(
        lambda t: t.select([id_col]).replace_schema_metadata(None),
        batch_format="pyarrow",
    )

    if n_edges <= driver_max_edges:
        ep = edges.to_pandas()
        a = ep[col_a].to_numpy(dtype=np.int64)
        codes, nodes = _factorize_sorted(np.concatenate([a, ep[col_b].to_numpy(dtype=np.int64)]))
        labels = _cc_labels(codes[: len(a)], codes[len(a) :], len(nodes))
        # sorted (node_id, canon_id) int arrays, broadcast once; batch
        # lookup is a searchsorted — int64-exact end to end (a dict
        # .map would round NaN-misses through float64)
        ref = ray.put((nodes, nodes[labels]))

        def _map(df: pd.DataFrame) -> pd.DataFrame:
            k, v = get_broadcast(ref)
            x = df[id_col].to_numpy(dtype=np.int64)
            out = x.copy()
            if len(k):
                pos = np.clip(np.searchsorted(k, x), 0, len(k) - 1)
                hit = k[pos] == x
                out[hit] = v[pos[hit]]
            return pd.DataFrame({id_col: x, "canon_id": out})

        return ids_only.map_batches(_map, batch_format="pandas")

    # scale path: distributed CC, then the int-exact bucketed co-group
    return join_labels(ids_only, id_col, components_labelprop(edges), "canon_id")

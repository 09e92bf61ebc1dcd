"""Tests for the split and document-map helpers of the training-data
queries: the md5 hash split and the leak-free split
(idf/functions/text.py, idf/functions/text_dedup.py), the bigram top-k
and the near-dup document map's driver and scale paths.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

import ray.data as rd

from idf.functions.text import hash_split, top_bigrams
from idf.functions.text_dedup import leakfree_split


def test_hash_split_deterministic_and_disjoint(ray_session):
    docs = pd.DataFrame({"doc_id": np.arange(2000, dtype=np.int64), "text": "x"})
    got = hash_split(rd.from_pandas(docs)).to_pandas()
    frac = (got["split"] == "test").mean()
    assert 0.05 < frac < 0.18  # '1a'/256 ~ 10.2%
    # deterministic: re-run identical
    got2 = hash_split(rd.from_pandas(docs)).to_pandas()
    pd.testing.assert_frame_equal(
        got.sort_values("doc_id").reset_index(drop=True),
        got2.sort_values("doc_id").reset_index(drop=True),
    )
    # matches the md5 rule
    h = docs["doc_id"].map(lambda i: hashlib.md5(str(i).encode()).hexdigest()[:2])
    want = np.where(h < "1a", "test", "train")
    assert (got.sort_values("doc_id")["split"].to_numpy() == want).all()


def test_leakfree_split_keeps_dup_groups_together(ray_session, rng):
    # 100 distinct texts, each duplicated 1-20 times and shuffled
    texts = [f"document body {i} " * (i % 3 + 1) for i in range(100)]
    rows = []
    did = 0
    for i, t in enumerate(texts):
        for _ in range(int(rng.integers(1, 20))):
            rows.append((did, t))
            did += 1
    df = pd.DataFrame(rows, columns=["doc_id", "text"]).sample(frac=1, random_state=0)
    got = leakfree_split(rd.from_pandas(df)).to_pandas()
    merged = got.merge(df, on="doc_id")
    # every text group is wholly one split
    assert (merged.groupby("text")["split"].nunique() == 1).all()
    # the canonical-member rule
    canon = merged.groupby("text")["doc_id"].min()
    for t, c in canon.items():
        want = "test" if hashlib.md5(str(c).encode()).hexdigest()[:2] < "33" else "train"
        assert (merged.loc[merged["text"] == t, "split"] == want).all()


def test_top_bigrams_matches_counter(ray_session, rng):
    from collections import Counter

    vocab = ["alpha", "beta", "gamma", "delta", "eps"]
    docs = [
        " ".join(rng.choice(vocab, rng.integers(0, 12)))
        for _ in range(400)
    ] + ["", "   ", "solo"]
    df = pd.DataFrame({"doc_id": np.arange(len(docs)), "text": docs})
    got = top_bigrams(rd.from_pandas(df), k=10)
    c: Counter = Counter()
    for s in docs:
        toks = s.strip(" ").lower().split()
        c.update(a + " " + b for a, b in zip(toks, toks[1:]))
    want = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert list(zip(got["gram"], got["n"])) == want


def test_dedup_docs_map_driver_and_scale_paths_agree(ray_session, rng):
    from idf.functions.text_dedup import dedup_docs_map

    # 30 groups of exact duplicates (Jaccard 1.0 >= any tau) + 40 unique docs
    rows = []
    did = 0
    for g in range(30):
        body = f"shared body text number {g} with several tokens " * 3
        for _ in range(int(rng.integers(2, 5))):
            rows.append((did, body))
            did += 1
    for u in range(40):
        rows.append((did, f"totally unique document {u} " + "x" * u))
        did += 1
    df = pd.DataFrame(rows, columns=["doc_id", "text"]).sample(frac=1, random_state=1)
    ds = rd.from_pandas(df)

    got = dedup_docs_map(ds, tau=0.8).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert len(got) == len(df)
    merged = got.merge(df, on="doc_id")
    # every exact-dup group maps to ONE canon: the min doc_id of the group
    canon_by_text = merged.groupby("text")["canon_id"].nunique()
    assert (canon_by_text == 1).all()
    want_canon = merged.groupby("text")["doc_id"].min()
    for text, canon in want_canon.items():
        assert (merged.loc[merged["text"] == text, "canon_id"] == canon).all()

    # forcing the distributed path (labelprop + bucketed co-group) must
    # produce the identical map
    got2 = (
        dedup_docs_map(rd.from_pandas(df), tau=0.8, driver_max_edges=0)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, got2)

"""Text-analysis operators for a training-data pipeline: token counts,
quality components, document fingerprints (md5, winnowing), Gopher-style
repetition signals, benchmark contamination, train/test splits and
corpus bigram statistics.

All are single-pass vectorized ``map_batches`` stages over the
``documents`` table; the SQL-expressible ones have DuckDB oracles in
``__ray_entry__.oracle_sql`` with identical output column names.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

# NOTE: everywhere a SQL oracle uses trim(), the Python path strips
# SPACES ONLY (str.strip(" ")): DuckDB's trim removes spaces, not \n/\t
# (ADVICE r1 — .strip() would diverge on edge non-space whitespace).
_WS = re.compile(r"\s+")

# English, German, French and Spanish function words counted by
# ``quality_components`` (and its DuckDB oracle), sorted
_STOPWORDS = [
    "a", "and", "das", "de", "den", "der", "des", "die", "ein", "el", "es", "est",
    "et", "for", "in", "is", "ist", "it", "la", "las", "le", "les", "los", "mit",
    "of", "que", "that", "the", "to", "un", "una", "und", "une", "von", "y", "zu",
]


def token_count(ds: rd.Dataset) -> rd.Dataset:
    """(doc_id, n_tokens): whitespace tokenization.
    Oracle: ``length(regexp_split_to_array(trim(text), '\\s+'))``."""

    def f(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].fillna("").str.strip(" ")
        n = toks.map(lambda s: len(_WS.split(s)) if s else 0)
        return pd.DataFrame({"doc_id": df["doc_id"], "n_tokens": n.astype(np.int64)})

    return ds.map_batches(f, batch_format="pandas")


# BPE-ish pre-tokenizer classes (letter runs | digit runs | single
# non-alnum-non-space), chosen to mean the same thing under Python re
# and DuckDB's RE2 so the SQL oracle counts identically
BPE_TOKEN_RE = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"
_BPE_RE = re.compile(BPE_TOKEN_RE)


def token_count_bpe(ds: rd.Dataset) -> rd.Dataset:
    """(doc_id, n_bpe_tokens): BPE-style pre-tokenization count — the
    token-budget estimator a training-data pipeline runs corpus-wide
    (letter runs, digit runs, and each punctuation mark count as one
    token, approximating a byte-level BPE pre-split).
    Oracle: ``length(regexp_extract_all(text, BPE_TOKEN_RE))``."""

    def f(df: pd.DataFrame) -> pd.DataFrame:
        n = df["text"].fillna("").str.count(_BPE_RE)
        return pd.DataFrame(
            {"doc_id": df["doc_id"], "n_bpe_tokens": n.astype(np.int64)}
        )

    return ds.map_batches(f, batch_format="pandas")


def quality_components(ds: rd.Dataset) -> rd.Dataset:
    """(doc_id, n_chars_trim, n_tokens, tot_token_len, n_stop) — integer
    length and stopword quality signals, emitted exactly so the DuckDB
    oracle hash-matches (no float rounding in play)."""
    stop = frozenset(_STOPWORDS)

    def f(df: pd.DataFrame) -> pd.DataFrame:
        texts = df["text"].fillna("").str.strip(" ")
        tok_lists = texts.map(lambda s: _WS.split(s) if s else [])
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_chars_trim": texts.str.len().astype(np.int64),
                "n_tokens": tok_lists.map(len).astype(np.int64),
                "tot_token_len": tok_lists.map(lambda ts: sum(len(t) for t in ts)).astype(
                    np.int64
                ),
                "n_stop": tok_lists.map(
                    lambda ts: sum(1 for t in ts if t.lower() in stop)
                ).astype(np.int64),
            }
        )

    return ds.map_batches(f, batch_format="pandas")


def fingerprint_md5(ds: rd.Dataset) -> rd.Dataset:
    """(doc_id, fp): md5 of the normalized text — SQL oracle
    ``md5(lower(trim(text)))``."""

    def f(df: pd.DataFrame) -> pd.DataFrame:
        fp = df["text"].fillna("").map(
            lambda s: hashlib.md5(s.strip(" ").lower().encode()).hexdigest()
        )
        return pd.DataFrame({"doc_id": df["doc_id"], "fp": fp})

    return ds.map_batches(f, batch_format="pandas")


def winnow_fingerprints(ds: rd.Dataset, k: int = 5, window: int = 4) -> rd.Dataset:
    """(doc_id, fp) rows: winnowing document fingerprints — rolling
    polynomial hash over character k-grams, min-sampled per window
    (Schleimer et al., SIGMOD'03 public algorithm).

    The hash runs over Unicode CODEPOINTS (not UTF-8 bytes) with each
    fold step reduced mod 2^64, which a DuckDB oracle replicates with
    ``unicode(substr(...))`` + HUGEINT stepwise-mod arithmetic — the
    windowed min-selection (first position of the window minimum) maps
    to SQL window frames. Normalization is ``strip(' ')`` to match SQL
    ``trim`` (spaces only)."""
    B = np.uint64(1000000007)

    def f(df: pd.DataFrame) -> pd.DataFrame:
        ids, fps = [], []
        for doc_id, text in zip(df["doc_id"], df["text"].fillna("")):
            s = np.frombuffer(
                text.strip(" ").lower().encode("utf-32-le"), dtype=np.uint32
            ).astype(np.uint64)
            if len(s) < k:
                ids.append(doc_id)
                fps.append(0)
                continue
            with np.errstate(over="ignore"):
                h = np.zeros(len(s) - k + 1, dtype=np.uint64)
                for off in range(k):  # k is tiny; the array op is vectorized
                    h = h * B + s[off : len(s) - k + 1 + off]
            n = len(h) - window + 1
            if n <= 1:
                sel = np.array([int(h.argmin())])
            else:
                idx = np.arange(window)[None, :] + np.arange(n)[:, None]
                sel = np.unique(idx[np.arange(n), h[idx].argmin(axis=1)])
            for v in np.unique(h[sel]):
                ids.append(doc_id)
                fps.append(np.int64(v.astype(np.int64)))
        return pd.DataFrame({"doc_id": ids, "fp": np.array(fps, dtype=np.int64)})

    return ds.map_batches(f, batch_format="pandas")


def hash_split(ds: rd.Dataset, test_hex: str = "1a") -> rd.Dataset:
    """(doc_id, split): deterministic train/test split by md5 of the
    document id — stable across runs, machines and cluster sizes (no
    RNG state to coordinate), the standard way to carve held-out sets
    from a streaming corpus. ``test_hex``: docs whose first md5 hex
    byte sorts below it go to test ('1a'/256 ~ 10.2%).
    Oracle: ``substr(md5(CAST(doc_id AS VARCHAR)),1,2) < '1a'``."""

    def f(df: pd.DataFrame) -> pd.DataFrame:
        h = df["doc_id"].map(
            lambda i: hashlib.md5(str(i).encode()).hexdigest()[:2]
        ).to_numpy(dtype=object)
        return pd.DataFrame(
            {"doc_id": df["doc_id"], "split": np.where(h < test_hex, "test", "train")}
        )

    return ds.map_batches(f, batch_format="pandas")


def top_bigrams(ds: rd.Dataset, k: int = 20) -> rd.Dataset:
    """(gram, n): the k globally most frequent token bigrams, ties
    broken alphabetically — corpus vocabulary statistics for filtering
    boilerplate.

    Three-level aggregation, none of which materializes the corpus:
    per-batch Counter partials (only distinct grams leave the batch),
    a bucketed exact sum per gram, then a per-bucket LOCAL top-k so the
    driver merges <= partitions*k candidate rows — no global sort at any
    scale. Tokenization matches doc_token_count's oracle
    (lower + trim + whitespace split)."""
    from collections import Counter

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        c: Counter = Counter()
        for s in df["text"].fillna(""):
            s = s.strip(" ").lower()
            if not s:
                continue
            toks = _WS.split(s)
            c.update(a + " " + b for a, b in zip(toks, toks[1:]))
        if not c:
            return pd.DataFrame(
                {"gram": pd.Series([], dtype=object), "n": pd.Series([], dtype=np.int64)}
            )
        return pd.DataFrame(
            {"gram": list(c.keys()), "n": np.fromiter(c.values(), dtype=np.int64)}
        )

    def bucket_topk(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("gram", sort=False)["n"].sum().reset_index()
        return agg.sort_values(["n", "gram"], ascending=[False, True], kind="mergesort").head(k)

    from idf.ops import bucketed_apply

    partials = ds.map_batches(partial, batch_format="pandas")
    local = bucketed_apply(partials, "gram", bucket_topk)
    cand = local.to_pandas()  # <= partitions * k rows by construction
    out = cand.sort_values(["n", "gram"], ascending=[False, True], kind="mergesort").head(k)
    return out.reset_index(drop=True)


def repetition_stats(ds: rd.Dataset) -> rd.Dataset:
    """(doc_id, n_chars, dup2_chars, dup3_chars, n_distinct_tokens) —
    Gopher-style repetition quality signals (Rae et al. 2021, public):
    ``dupN_chars`` counts the characters covered by ALL occurrences of
    n-grams that appear more than once in the document (token n-grams,
    joined with single spaces), and ``n_distinct_tokens`` is the
    type count (type-token ratio numerator). Exact integers only, so
    the DuckDB oracle hash-matches; the downstream filter rule (e.g.
    drop when dup2_chars/n_chars > 0.2) stays a trivial map."""
    from collections import Counter

    def f(df: pd.DataFrame) -> pd.DataFrame:
        ids, nch, d2, d3, ndt = [], [], [], [], []
        for doc_id, text in zip(df["doc_id"], df["text"].fillna("")):
            s = text.strip(" ")
            toks = _WS.split(s.lower()) if s else []
            ids.append(doc_id)
            nch.append(len(s))
            ndt.append(len(set(toks)))
            for n, out in ((2, d2), (3, d3)):
                grams = Counter(zip(*(toks[i:] for i in range(n))))
                out.append(
                    sum(
                        (sum(map(len, g)) + n - 1) * c
                        for g, c in grams.items()
                        if c >= 2
                    )
                )
        return pd.DataFrame(
            {
                "doc_id": ids,
                "n_chars": np.asarray(nch, dtype=np.int64),
                "dup2_chars": np.asarray(d2, dtype=np.int64),
                "dup3_chars": np.asarray(d3, dtype=np.int64),
                "n_distinct_tokens": np.asarray(ndt, dtype=np.int64),
            }
        )

    return ds.map_batches(f, batch_format="pandas")


def contamination(
    ds: rd.Dataset, bench_mod: int = 50, n: int = 5
) -> rd.Dataset:
    """Benchmark decontamination scan: (doc_id, n_hits) for every
    NON-benchmark document, where the benchmark set is the deterministic
    ``doc_id % bench_mod == 0`` split and ``n_hits`` counts the doc's
    token n-gram window positions that also occur anywhere in the
    benchmark — the standard pre-training hygiene check (e.g. GPT-3
    appendix C / PaLM's 13-gram overlap; public methodology). Tokens
    follow the repo's oracle convention (``strip(" ").lower()`` +
    ``\\s+`` split, exactly as ``top_bigrams``), matching
    ``regexp_split_to_array(lower(trim(text)), '\\s+')`` in DuckDB.

    100-TB shape: the benchmark side is tiny BY DEFINITION (a benchmark
    that didn't fit in one worker's heap wouldn't be a benchmark), so
    its distinct grams collect once on the driver and broadcast via
    ``ray.put``; the corpus side streams — each batch tokenizes and
    probes set membership in-process, shuffling nothing. If the
    benchmark ever outgrew a broadcast, the fallback is the
    gram-bucketed exchange the substring-dedup family already uses.
    """
    from idf.ops import get_broadcast

    def grams_of(text: str) -> list[str]:
        s = text.strip(" ").lower()
        if not s:
            return []
        t = _WS.split(s)
        return [" ".join(t[i : i + n]) for i in range(len(t) - n + 1)]

    def bench_grams(df: pd.DataFrame):
        out: set[str] = set()
        sel = df["doc_id"].to_numpy() % bench_mod == 0
        for s in df.loc[sel, "text"].fillna(""):
            out.update(grams_of(s))
        # typed Arrow column: a zero-row object Series trips Ray's
        # block-size estimator (np.vectorize on size-0 input)
        return pa.table({"gram": pa.array(sorted(out), type=pa.string())})

    parts = ds.map_batches(bench_grams, batch_format="pandas").to_pandas()
    ref = ray.put(frozenset(parts["gram"]))  # benchmark-sized by definition

    def score(df: pd.DataFrame) -> pd.DataFrame:
        bset = get_broadcast(ref)
        keep = df["doc_id"].to_numpy() % bench_mod != 0
        ids = df["doc_id"].to_numpy()[keep]
        hits = np.fromiter(
            (
                sum(g in bset for g in grams_of(s))
                for s in df.loc[keep, "text"].fillna("")
            ),
            dtype=np.int64,
            count=len(ids),
        )
        return pd.DataFrame({"doc_id": ids.astype(np.int64), "n_hits": hits})

    return ds.map_batches(score, batch_format="pandas")

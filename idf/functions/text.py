"""Text-analysis operators for a training-data pipeline (task brief:
language-ID, quality scoring, token counting, document fingerprinting).

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

# tiny per-language stopword profiles for the heuristic language-ID
_LANG_PROFILES = {
    "en": {"the", "a", "of", "and", "to", "in", "is", "that", "it", "for"},
    "de": {"der", "die", "das", "und", "ist", "ein", "zu", "den", "mit", "von"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "de", "des", "que"},
    "es": {"el", "la", "los", "las", "y", "es", "un", "una", "de", "que"},
    "zh": set(),  # no-latin-stopword fallback handled by the CJK ratio
}

_STOPWORDS = sorted(set().union(*_LANG_PROFILES.values()))


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


def quality_score(ds: rd.Dataset) -> rd.Dataset:
    """(doc_id, n_tokens, avg_token_len, stop_ratio, quality) — simple
    length/stopword quality heuristics, all SQL-expressible (rounded to
    6 dp so the DuckDB value-hash matches)."""
    stop = frozenset(_STOPWORDS)

    def f(df: pd.DataFrame) -> pd.DataFrame:
        texts = df["text"].fillna("").str.strip(" ")
        tok_lists = texts.map(lambda s: _WS.split(s) if s else [])
        n_tok = tok_lists.map(len).astype(np.int64)
        tot_len = tok_lists.map(lambda ts: sum(len(t) for t in ts)).astype(np.int64)
        n_stop = tok_lists.map(lambda ts: sum(1 for t in ts if t.lower() in stop)).astype(np.int64)
        denom = n_tok.replace(0, 1)
        avg_len = (tot_len / denom).round(6)
        stop_ratio = (n_stop / denom).round(6)
        quality = (
            np.minimum(n_tok / 100.0, 1.0) * 0.5
            + np.minimum(avg_len / 8.0, 1.0) * 0.3
            + stop_ratio * 0.2
        ).round(6)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_tokens": n_tok,
                "avg_token_len": avg_len,
                "stop_ratio": stop_ratio,
                "quality": quality,
            }
        )

    return ds.map_batches(f, batch_format="pandas")


def quality_components(ds: rd.Dataset) -> rd.Dataset:
    """(doc_id, n_chars_trim, n_tokens, tot_token_len, n_stop) — the
    integer building blocks of the quality score, emitted exactly so the
    DuckDB oracle hash-matches (no float rounding in play)."""
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


def lang_id(ds: rd.Dataset) -> rd.Dataset:
    """(doc_id, lang_pred, score_num, score_den) — stopword-profile +
    CJK-ratio heuristic language ID.

    The score is emitted as an exact integer ratio (matched-token count
    over token count; CJK-char count over char count for the zh branch)
    rather than a rounded float, so the DuckDB oracle hash-matches
    bit-for-bit (the r1 ``quality_components`` lesson). All branch
    comparisons are integer (``5*cjk > n_chars`` instead of
    ``cjk/n > 0.2``); across language profiles the denominator is
    shared, so the best language maximizes the raw hit count, ties
    broken alphabetically (the iteration order of ``sorted``)."""
    return ds.map_batches(lang_id_batch, batch_format="pandas")


def lang_id_batch(df: pd.DataFrame) -> pd.DataFrame:
    """``lang_id``'s per-batch kernel at module scope so composed
    operators (``curation_funnel``) apply the IDENTICAL prediction rule.

    Fully vectorized (the r1 version looped Python chars per doc for
    the CJK count): regex counts + one explode/isin pass per profile,
    all in pandas' C string kernels. Ties -> first alphabetical
    language (argmax over sorted columns), all-zero hits -> 'und',
    zh branch = exact 5*cjk > n_chars."""
    profiles = {k: frozenset(v) for k, v in _LANG_PROFILES.items() if v}
    texts = df["text"].fillna("").reset_index(drop=True)
    n = len(texts)
    n_chars = texts.str.len().to_numpy(np.int64)
    cjk = texts.str.count("[一-鿿]").to_numpy(np.int64)
    toks = texts.str.strip(" ").str.lower().str.split(r"\s+")
    den = np.maximum(toks.map(len).to_numpy(np.int64), 1)
    langs = sorted(profiles)
    mat = np.zeros((n, len(langs)), dtype=np.int64)
    ex = toks.explode()
    for j, lang in enumerate(langs):
        h = ex.isin(profiles[lang]).groupby(level=0).sum()
        mat[h.index.to_numpy(), j] = h.to_numpy(np.int64)
    best_j = mat.argmax(axis=1)
    best_hits = mat[np.arange(n), best_j] if n else np.zeros(0, np.int64)
    pred = np.where(
        best_hits > 0, np.asarray(langs, dtype=object)[best_j], "und"
    ).astype(object)
    num = best_hits.copy()
    zh = 5 * cjk > n_chars
    pred[zh] = "zh"
    num[zh] = cjk[zh]
    den[zh] = n_chars[zh]
    return pd.DataFrame(
        {
            "doc_id": df["doc_id"].to_numpy(),
            "lang_pred": pred,
            "score_num": num,
            "score_den": den,
        }
    )


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


_ALPHA = re.compile(r"[^a-z]+")


def tfidf_topk(ds: rd.Dataset, k: int = 5, min_len: int = 2) -> rd.Dataset:
    """(doc_id, term, tf, df, rank): each document's k most distinctive
    terms by TF-IDF, rank 1..k by ``tf/df`` descending with term-ascending
    tiebreak — the standard vocabulary-weighting signal for boilerplate
    filtering and corpus diagnostics. Tokenization is ``lower()`` +
    split on ``[^a-z]+`` with terms shorter than ``min_len`` dropped,
    chosen to be replicable verbatim in the DuckDB oracle
    (``regexp_split_to_array``). Output columns are all integers/strings
    so the driver's value hash is float-free; the ordering key
    ``tf/df`` is the same float64 division of the same ints on both
    sides, so ranks agree exactly.

    100-TB shape: document rows NEVER shuffle. Pass 1 ships per-batch
    Counter partials of document frequency (only distinct terms leave a
    batch) into a bucketed exact sum — the only all-to-all, sized by
    vocabulary, not corpus. The DF table is then broadcast once
    (``ray.put`` of sorted term/df arrays; natural-language vocabulary
    is sublinear in corpus size — if it outgrew worker heaps the
    fallback is a term-keyed shuffle join, same as minhash's key
    exchange) and pass 2 recomputes per-doc term counts in-batch,
    resolves df by binary search, and emits each doc's local top-k."""
    from collections import Counter

    from idf.ops import bucketed_apply, get_broadcast

    def tokens(text: str) -> list[str]:
        return [t for t in _ALPHA.split(text.lower()) if len(t) >= min_len]

    def df_partial(df: pd.DataFrame) -> pd.DataFrame:
        c: Counter = Counter()
        for s in df["text"].fillna(""):
            c.update(set(tokens(s)))
        return pd.DataFrame(
            {
                "term": pd.Series(list(c.keys()), dtype=object),
                "df": np.fromiter(c.values(), dtype=np.int64, count=len(c)),
            }
        )

    def df_sum(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("term", sort=False)["df"].sum().reset_index()

    dftab = bucketed_apply(
        ds.map_batches(df_partial, batch_format="pandas"), "term", df_sum
    ).to_pandas()  # vocabulary-sized by construction
    if len(dftab) == 0:
        # every token was dropped: downstream Counters are empty too, so
        # empty lookup arrays are never indexed
        terms_sorted = np.empty(0, dtype=object)
        df_sorted = np.empty(0, dtype=np.int64)
    else:
        terms_sorted = np.sort(dftab["term"].to_numpy(dtype=object))
        order = np.argsort(dftab["term"].to_numpy(dtype=object), kind="mergesort")
        df_sorted = dftab["df"].to_numpy(dtype=np.int64)[order]
    ref = ray.put((terms_sorted, df_sorted))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        ts, dfs = get_broadcast(ref)
        ids, term_o, tf_o, df_o, rk_o = [], [], [], [], []
        for doc_id, s in zip(df["doc_id"], df["text"].fillna("")):
            c = Counter(tokens(s))
            if not c:
                continue
            t_arr = np.array(list(c.keys()), dtype=object)
            tf_arr = np.fromiter(c.values(), dtype=np.int64, count=len(c))
            pos = np.searchsorted(ts, t_arr)
            d_arr = dfs[pos]  # every term is in the DF table by construction
            sc = tf_arr.astype(np.float64) / d_arr
            # top-k by (score desc, term asc): term-ascending pre-sort +
            # stable argsort on -score gives the tiebreak for free
            o = np.argsort(t_arr, kind="mergesort")
            o = o[np.argsort(-sc[o], kind="mergesort")][:k]
            ids.extend([doc_id] * len(o))
            term_o.extend(t_arr[o])
            tf_o.extend(tf_arr[o])
            df_o.extend(d_arr[o])
            rk_o.extend(range(1, len(o) + 1))
        return pd.DataFrame(
            {
                "doc_id": np.asarray(ids, dtype=np.int64),
                "term": pd.Series(term_o, dtype=object),
                "tf": np.asarray(tf_o, dtype=np.int64),
                "df": np.asarray(df_o, dtype=np.int64),
                "rank": np.asarray(rk_o, dtype=np.int64),
            }
        )

    return ds.map_batches(score, batch_format="pandas")


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


def curation_funnel(
    ds: rd.Dataset, min_tokens: int = 10, lang: str = "en"
) -> pd.DataFrame:
    """Corpus curation funnel: (stage, stage_name, n_docs) — how many
    documents survive each filter of a standard pre-training cleanup:
    1 total -> 2 ``n_tokens >= min_tokens`` -> 3 ``lang_pred == lang``
    (the EXACT ``lang_id_batch`` rule) -> 4 distinct after exact dedup
    (``md5(lower(trim(text)))`` fingerprints, the ``fingerprint_md5``
    rule). The one-look diagnostic a curation run is summarized by.

    100-TB shape: two streaming passes, neither shuffling document
    rows. Pass 1 emits one (n_docs, n_ok2, n_ok3) partial row per batch
    (driver sums blocks-many triples). Pass 2 re-derives stage-3
    survivors and ships only their DISTINCT-within-batch fingerprints
    into a fp-bucketed distinct count — fingerprint-sized, the same
    exchange discipline as exact dedup. (Deliberately two passes: a
    single pass would have to materialize a corpus-row-sized derived
    table to serve both the counts and the distinct; re-scanning the
    pruned text column streams instead.)
    """

    def _survivors(df: pd.DataFrame):
        lp = lang_id_batch(df)
        texts = df["text"].fillna("").str.strip(" ")
        ntok = texts.map(lambda s: len(_WS.split(s)) if s else 0).to_numpy(np.int64)
        ok2 = ntok >= min_tokens
        ok3 = ok2 & (lp["lang_pred"].to_numpy(dtype=object) == lang)
        return texts, ok2, ok3

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        _, ok2, ok3 = _survivors(df)
        return pd.DataFrame(
            {
                "n_docs": np.asarray([len(df)], dtype=np.int64),
                "n_ok2": np.asarray([int(ok2.sum())], dtype=np.int64),
                "n_ok3": np.asarray([int(ok3.sum())], dtype=np.int64),
            }
        )

    c = ds.map_batches(counts, batch_format="pandas").to_pandas()  # one row/batch
    n_total, n2, n3 = (int(c[k].sum()) for k in ("n_docs", "n_ok2", "n_ok3"))

    def fps(df: pd.DataFrame) -> pd.DataFrame:
        texts, _, ok3 = _survivors(df)
        u = (
            texts[ok3]
            .str.lower()
            .map(lambda s: hashlib.md5(s.encode()).hexdigest())
            .drop_duplicates()
        )
        return pd.DataFrame({"fp": u.to_numpy(dtype=object)})

    from idf.ops import bucketed_apply

    def bucket_distinct(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"n": np.asarray([g["fp"].nunique()], dtype=np.int64)}
        )

    d = bucketed_apply(
        ds.map_batches(fps, batch_format="pandas"), "fp", bucket_distinct
    ).to_pandas()  # one row per bucket
    n4 = int(d["n"].sum())

    return pd.DataFrame(
        {
            "stage": np.arange(1, 5, dtype=np.int64),
            "stage_name": ["total", "min_tokens", f"lang_{lang}", "exact_distinct"],
            "n_docs": np.asarray([n_total, n2, n3, n4], dtype=np.int64),
        }
    )


def packing_stats(ds: rd.Dataset, seq_len: int = 1024) -> pd.DataFrame:
    """One-row training-budget estimate: (n_docs, n_tokens_total,
    n_slots) where ``n_slots = sum(ceil(n_tokens / seq_len))`` — the
    number of fixed-length sequence slots the corpus fills if every
    document is padded into its own slots (the pre-packing upper bound
    planners size training runs with). Token rule = ``token_count``.

    100-TB shape: a pure combiner — each batch emits one 3-int partial
    row; the driver sums blocks-many rows. Nothing shuffles.
    """

    def part(df: pd.DataFrame) -> pd.DataFrame:
        texts = df["text"].fillna("").str.strip(" ")
        ntok = texts.map(lambda s: len(_WS.split(s)) if s else 0).to_numpy(np.int64)
        slots = -(-ntok // seq_len)  # ceil-div; 0-token docs take 0 slots
        return pd.DataFrame(
            {
                "n_docs": np.asarray([len(df)], dtype=np.int64),
                "n_tokens_total": np.asarray([int(ntok.sum())], dtype=np.int64),
                "n_slots": np.asarray([int(slots.sum())], dtype=np.int64),
            }
        )

    c = ds.map_batches(part, batch_format="pandas").to_pandas()  # one row/batch
    return pd.DataFrame(
        {
            "n_docs": [int(c["n_docs"].sum())],
            "n_tokens_total": [int(c["n_tokens_total"].sum())],
            "n_slots": [int(c["n_slots"].sum())],
        }
    ).astype(np.int64)


def langid_confusion(ds: rd.Dataset) -> pd.DataFrame:
    """(lang, lang_pred, n): confusion matrix of the heuristic language
    ID against the table's labeled ``lang`` column — the evaluation
    every classifier-shaped curation filter needs before it gates data.
    Uses the EXACT ``lang_id_batch`` kernel, so the matrix measures the
    deployed rule, not a reimplementation.

    100-TB shape: a pure combiner — each batch emits its local
    (lang, pred) count cells (bounded by #languages², a few dozen), one
    tiny bucketed sum, driver merges cells.
    """
    from idf.ops import bucketed_aggregate

    def part(df: pd.DataFrame) -> pd.DataFrame:
        lp = lang_id_batch(df)
        g = pd.DataFrame(
            {"lang": df["lang"].to_numpy(dtype=object), "lang_pred": lp["lang_pred"]}
        )
        out = g.groupby(["lang", "lang_pred"], sort=False).size().rename("n")
        return out.reset_index()

    agg = bucketed_aggregate(
        ds.map_batches(part, batch_format="pandas"),
        ["lang", "lang_pred"],
        {"n": ("n", "sum")},
    ).to_pandas()  # bounded by #languages^2 cells
    agg["n"] = agg["n"].astype(np.int64)
    return agg.sort_values(["lang", "lang_pred"]).reset_index(drop=True)

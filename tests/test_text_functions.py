import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from idf.functions.ann import cosine_pairs, cosine_topk, ivf_topk
from idf.functions.text import (
    fingerprint_md5,
    quality_components,
    token_count,
    winnow_fingerprints,
)
from idf.functions.text_dedup import (
    exact_dedup_docs,
    minhash_lsh_pairs,
    ngram_jaccard_pairs,
    simhash64_batch,
    simhash_docs,
    simhash_pairs,
)

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs(ray_session):
    return rd.read_parquet(f"{SF}/documents.parquet")


@pytest.fixture(scope="module")
def emb(ray_session):
    return rd.read_parquet(f"{SF}/embeddings.parquet")


@pytest.fixture(scope="module")
def docs_near_dups(ray_session):
    """Small corpus with unambiguous near-dup structure (far from the
    tau boundary) so LSH recall is 1.0 for both hash families."""
    base = (
        "the quick brown fox jumps over the lazy dog while rain falls "
        "softly on the quiet village roofs at dusk tonight"
    )
    rows = []
    for i in range(8):
        rows.append((100 + i, base))                       # exact dups
        rows.append((200 + i, base + f" extra token{i}"))  # near dups
        rows.append((300 + i, f"totally unrelated document number {i} "
                              f"with its own distinct vocabulary set {i*7}"))
    return rd.from_pandas(pd.DataFrame(rows, columns=["doc_id", "text"]))


def test_token_count(docs):
    got = token_count(docs).to_pandas().set_index("doc_id")["n_tokens"]
    pdf = docs.to_pandas()
    for _, r in pdf.head(50).iterrows():
        assert got[r["doc_id"]] == len(r["text"].split())


def test_quality_components_known_stop_counts(ray_session):
    """``n_stop`` counts whole whitespace tokens, lower-cased, that are in
    the English/German/French/Spanish stopword list; punctuation, longer
    words and hyphenated forms do not match."""
    every_stopword = (
        "a and das de den der des die ein el es est et for in is ist it la las "
        "le les los mit of que that the to un una und une von y zu"
    )
    rows = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4, 5, 6, 7, 8],
            "text": [
                "zu y und les the",
                "lesson The. ZU",
                "  The cat and THE dog  ",
                "der Hund ist ein Tier, el perro es una mascota",
                "",
                "yes zum los-angeles d'un an à",
                "Les enfants et la mer, que de monde",
                every_stopword,
            ],
        }
    )
    got = quality_components(rd.from_pandas(rows)).to_pandas()
    assert dict(zip(got["doc_id"], got["n_stop"])) == {
        1: 5, 2: 1, 3: 3, 4: 6, 5: 0, 6: 0, 7: 5, 8: 36
    }


def test_fingerprints(docs):
    import hashlib

    out = fingerprint_md5(docs).to_pandas().set_index("doc_id")["fp"]
    pdf = docs.to_pandas().head(20)
    for _, r in pdf.iterrows():
        assert out[r["doc_id"]] == hashlib.md5(r["text"].strip().lower().encode()).hexdigest()
    wf = winnow_fingerprints(docs).to_pandas()
    assert wf["doc_id"].nunique() == docs.count()
    # identical texts -> identical fingerprint sets
    d = rd.from_pandas(pd.DataFrame({"doc_id": [1, 2], "text": ["hello world of text"] * 2}))
    w2 = winnow_fingerprints(d).to_pandas()
    assert set(w2[w2["doc_id"] == 1]["fp"]) == set(w2[w2["doc_id"] == 2]["fp"])


def _brute_jaccard_pairs(pdf: pd.DataFrame, tau: float, k: int = 3):
    from idf.kernels.minhash import shingle_hashes

    sets = {r["doc_id"]: set(shingle_hashes(r["text"], k).tolist()) for _, r in pdf.iterrows()}
    ids = sorted(sets)
    out = {}
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            a, b = sets[ids[i]], sets[ids[j]]
            inter = len(a & b)
            if inter:
                jac = inter / (len(a) + len(b) - inter)
                if jac >= tau:
                    out[(ids[i], ids[j])] = jac
    return out


def test_ngram_jaccard_exact(docs):
    tau = 0.5
    got = ngram_jaccard_pairs(docs, tau=tau).to_pandas()
    want = _brute_jaccard_pairs(docs.to_pandas(), tau)
    gotmap = {(r["doc_id_a"], r["doc_id_b"]): r["jaccard"] for _, r in got.iterrows()}
    assert gotmap.keys() == want.keys()
    for key in want:
        assert abs(gotmap[key] - want[key]) < 1e-9


def test_minhash_lsh_high_tau(docs):
    tau = 0.8
    got = minhash_lsh_pairs(docs, tau=tau).to_pandas()
    want = _brute_jaccard_pairs(docs.to_pandas(), tau)
    gotpairs = {(r["doc_id_a"], r["doc_id_b"]) for _, r in got.iterrows()}
    # exact precision (verified), near-1 recall at high tau
    assert gotpairs <= want.keys() or not want
    if want:
        assert len(gotpairs & want.keys()) / len(want) >= 0.9
    # broadcast_max_cands=0 forces the melt + hash_join verify path;
    # identical pairs and jaccard values
    big = minhash_lsh_pairs(docs, tau=tau, broadcast_max_cands=0).to_pandas()
    key = lambda df: sorted(zip(df["doc_id_a"], df["doc_id_b"], df["jaccard"].round(9)))
    assert key(big) == key(got)


def test_simhash_deterministic_and_pairs(docs):
    h1 = simhash64_batch(["the quick brown fox", "the quick brown fox", "totally different words"])
    assert h1[0] == h1[1] != h1[2]
    out = simhash_docs(docs).to_pandas()
    assert out["doc_id"].nunique() == len(out)
    pairs = simhash_pairs(docs, radius=10).to_pandas()
    # verify against brute force
    hs = {r["doc_id"]: np.uint64(np.int64(r["simhash"])) for _, r in out.iterrows()}
    from idf.kernels import hamming_distance

    want = set()
    ids = sorted(hs)
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if hamming_distance(int(hs[ids[i]]), int(hs[ids[j]])) <= 10:
                want.add((ids[i], ids[j]))
    got = {(r["doc_id_a"], r["doc_id_b"]) for _, r in pairs.iterrows()}
    assert got == want


def test_exact_dedup_docs(docs):
    out = exact_dedup_docs(docs).to_pandas()
    pdf = docs.to_pandas()
    want = pdf.groupby("text")["doc_id"].min()
    assert sorted(out["doc_id"]) == sorted(want)


def test_cosine_topk_vs_numpy(emb):
    qids = [0, 1, 2]
    got = cosine_topk(emb, qids, k=5).to_pandas()
    pdf = emb.to_pandas()
    mat = np.stack(pdf["embedding"].map(np.asarray))
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    vids = pdf["vec_id"].to_numpy()
    for q in qids:
        qv = mat[vids == q][0]
        sims = mat @ qv
        order = np.lexsort((vids, -sims))
        want = [int(vids[i]) for i in order if vids[i] != q][:5]
        gq = got[got["vec_id"] == q].sort_values("rank")
        assert list(gq["neighbor_id"]) == want
        assert list(gq["rank"]) == [1, 2, 3, 4, 5]


def test_cosine_pairs(emb):
    tau = 0.35  # synthetic embeddings top out near 0.5 cosine
    got = cosine_pairs(emb, tau=tau).to_pandas()
    pdf = emb.to_pandas()
    mat = np.stack(pdf["embedding"].map(np.asarray))
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    vids = pdf["vec_id"].to_numpy()
    sims = mat @ mat.T
    ii, jj = np.nonzero(sims >= tau)
    want = {(int(vids[i]), int(vids[j])) for i, j in zip(ii, jj) if vids[i] < vids[j]}
    assert {(r["vec_id_a"], r["vec_id_b"]) for _, r in got.iterrows()} == want


def test_ivf_pairs_recall(emb):
    from idf.functions.ann import ivf_pairs

    tau = 0.35
    exact = cosine_pairs(emb, tau=tau).to_pandas()
    approx = ivf_pairs(emb, tau=tau, n_centroids=16, assign_probe=3).to_pandas()
    want = {(r["vec_id_a"], r["vec_id_b"]) for _, r in exact.iterrows()}
    got = {(r["vec_id_a"], r["vec_id_b"]) for _, r in approx.iterrows()}
    assert got <= want  # precision exact (every pair dot-product verified)
    if want:
        assert len(got & want) / len(want) >= 0.6


def test_ivf_topk_recall(emb):
    qids = list(range(8))
    exact = cosine_topk(emb, qids, k=5).to_pandas()
    approx = ivf_topk(emb, qids, k=5, n_centroids=8, nprobe=4).to_pandas()
    hits = tot = 0
    for q in qids:
        w = set(exact[exact["vec_id"] == q]["neighbor_id"])
        g = set(approx[approx["vec_id"] == q]["neighbor_id"])
        hits += len(w & g)
        tot += len(w)
    assert hits / tot >= 0.5  # nprobe=4 of 8 cells: recall well above half


def test_token_count_bpe(ray_session):
    from idf.functions.text import token_count_bpe

    ds = rd.from_pandas(
        pd.DataFrame(
            {
                "doc_id": [1, 2, 3, 4],
                "text": ["Hello, world! 42x", "", None, "a.b.c"],
            }
        )
    )
    out = token_count_bpe(ds).to_pandas().sort_values("doc_id")
    # Hello , world ! 42 x -> 6; a . b . c -> 5
    assert list(out["n_bpe_tokens"]) == [6, 0, 0, 5]


def test_repetition_stats_known_values(ray_session):
    from idf.functions.text import repetition_stats

    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3],
            "text": [
                "a b a b c",          # 'a b' x2 -> dup2 = 2*3; no dup tri
                "x y z",              # no repetition
                "",                   # empty
                "w w w w",            # 'w w' x3 -> 9; 'w w w' x2 -> 10
            ],
        }
    )
    got = (
        repetition_stats(rd.from_pandas(df))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got["n_chars"].tolist() == [9, 5, 0, 7]
    assert got["dup2_chars"].tolist() == [6, 0, 0, 9]
    assert got["dup3_chars"].tolist() == [0, 0, 0, 10]
    assert got["n_distinct_tokens"].tolist() == [3, 3, 0, 1]


def test_hash_mode_parity_minhash_pairs(ray_session, docs_near_dups):
    """r2 verdict #3: the vectorized "fast" family must produce the
    same VERIFIED pairs output as the md5 oracle family (exact-Jaccard
    verify makes pairs family-invariant on clear near-dups)."""
    docs = docs_near_dups
    key = lambda df: sorted(
        zip(df["doc_id_a"], df["doc_id_b"], df["jaccard"].round(9))
    )
    md5_out = minhash_lsh_pairs(docs, tau=0.8, hash_mode="md5").to_pandas()
    fast_out = minhash_lsh_pairs(docs, tau=0.8, hash_mode="fast").to_pandas()
    assert key(md5_out) == key(fast_out)
    assert len(md5_out) > 0


def test_hash_mode_parity_ngram_pairs(ray_session, docs_near_dups):
    """n-gram Jaccard is fully family-invariant: identical values."""
    docs = docs_near_dups
    key = lambda df: sorted(
        zip(df["doc_id_a"], df["doc_id_b"], df["jaccard"].round(12))
    )
    md5_out = ngram_jaccard_pairs(docs, tau=0.5, hash_mode="md5").to_pandas()
    fast_out = ngram_jaccard_pairs(docs, tau=0.5, hash_mode="fast").to_pandas()
    assert key(md5_out) == key(fast_out)
    assert len(md5_out) > 0


def test_fast_shingle_kernel_matches_single_doc():
    """Batch fast kernel == per-doc fast calls; unique-set SIZES match
    the md5 family (set cardinality is hash-independent)."""
    from idf.kernels.minhash import shingle_hash_concat, shingle_hashes

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "one two",
        "",
        "a a a a a a",
        "the quick brown fox jumps over the lazy dog",
    ]
    for short in ("self", "drop"):
        h, counts = shingle_hash_concat(texts, 3, short=short, mode="fast")
        off = 0
        for i, t in enumerate(texts):
            single = shingle_hashes(t, 3, short=short, mode="fast")
            got = h[off : off + counts[i]]
            assert list(got) == list(single), (i, short)
            md5_n = len(shingle_hashes(t, 3, short=short, mode="md5"))
            assert counts[i] == md5_n, (i, short)
            off += counts[i]
        assert off == len(h)


def test_simhash_fast_mode_basics():
    from idf.functions.text_dedup import simhash64_batch

    a = "the quick brown fox jumps over the lazy dog"
    out = simhash64_batch([a, a, "completely different text here", ""], mode="fast")
    assert out[0] == out[1] != 0
    assert out[0] != out[2]
    assert out[3] == 0


def test_lsh_pairs_recall_and_exactness(ray_session):
    """Sign-LSH pairs: precision 1.0 by construction (exact in-bucket
    verify), recall >= 0.9 for tight near-dup families at tau 0.9 with
    8 bits x 4 tables (theory: 1-(1-p^8)^4 with p = 1 - theta/pi), and
    byte-deterministic across runs (the property the DuckDB oracle
    relies on)."""
    import pandas as pd
    import ray.data as rd

    from idf.functions.ann import cosine_pairs, lsh_pairs

    rng = np.random.default_rng(11)
    rows = []
    vid = 0
    for fam in range(40):  # 40 families x 3 tight variants + 80 noise rows
        base = rng.standard_normal(64)
        for _ in range(3):
            v = base + rng.standard_normal(64) * 0.08  # sim ~0.97
            rows.append({"vec_id": vid, "embedding": v.astype(np.float32).tolist()})
            vid += 1
    for _ in range(80):
        rows.append(
            {"vec_id": vid, "embedding": rng.standard_normal(64).astype(np.float32).tolist()}
        )
        vid += 1
    emb = rd.from_pandas(pd.DataFrame(rows))

    tau = 0.9
    exact = cosine_pairs(emb, tau=tau).to_pandas()
    want = {(r["vec_id_a"], r["vec_id_b"]) for _, r in exact.iterrows()}
    approx = lsh_pairs(emb, tau=tau, n_bits=8, n_tables=4).to_pandas()
    got = {(r["vec_id_a"], r["vec_id_b"]) for _, r in approx.iterrows()}
    assert got <= want  # precision 1.0: every emitted pair is verified
    assert len(want) >= 30  # the corpus actually has near-dup pairs
    assert len(got & want) / len(want) >= 0.9
    # determinism (fixed hyperplanes, no sampling)
    again = lsh_pairs(emb, tau=tau, n_bits=8, n_tables=4).to_pandas()
    assert {(r["vec_id_a"], r["vec_id_b"]) for _, r in again.iterrows()} == got


def test_lsh_pairs_bucket_cap_chunking_lossless(ray_session):
    """Regression (r4): chunked in-bucket matmuls must emit the SAME pair
    set as the unchunked path. The r3 code filtered off-diagonal chunk
    blocks with ``vids[gi] < vids[gj]`` — but there each unordered pair
    appears exactly once, so pairs whose vec_id order disagreed with
    positional order were silently dropped (4 of 6 on a 4-vector
    all-similar bucket at bucket_cap=2)."""
    import pandas as pd
    import ray.data as rd

    from idf.functions.ann import lsh_pairs

    rng = np.random.default_rng(23)
    base = rng.standard_normal(64)
    # one tight family of 9 near-identical vectors -> they share buckets;
    # vec_ids deliberately NOT in insertion order so positional order and
    # id order disagree inside the bucket groups
    ids = [40, 3, 17, 99, 8, 55, 2, 71, 26]
    rows = [
        {
            "vec_id": i,
            "embedding": (base + rng.standard_normal(64) * 0.02).astype(np.float32).tolist(),
        }
        for i in ids
    ]
    emb = rd.from_pandas(pd.DataFrame(rows))

    def pairset(cap):
        df = lsh_pairs(emb, tau=0.95, n_bits=4, n_tables=2, bucket_cap=cap).to_pandas()
        return {(r["vec_id_a"], r["vec_id_b"]) for _, r in df.iterrows()}

    full = pairset(4096)
    assert len(full) == 36  # all 9-choose-2 pairs of the tight family
    for cap in (2, 3, 5):
        assert pairset(cap) == full, cap


def test_ivf_local_trainer_bit_parity(emb):
    """The oracle-side local trainer must reproduce the distributed
    trainer EXACTLY — it is what lets _ivf_*_sql embed the trained
    centroids as literals and hash-check the IVF ops (r3 verdict #4)."""
    from idf.functions.ann import train_ivf_centroids, train_ivf_centroids_local

    dist = train_ivf_centroids(emb, n_centroids=16, seed=42)
    local = train_ivf_centroids_local(f"{SF}/embeddings.parquet", n_centroids=16, seed=42)
    assert dist.shape == local.shape
    assert (dist == local).all(), "local trainer diverged from distributed"


def test_ivf_sql_oracle_parity_small_sf(emb):
    """Full gate simulation at sf0.001 for both IVF ops: Ray result ==
    DuckDB running the centroid-literal SQL (same check the driver runs
    at sf0.01)."""
    import duckdb

    from __ray_entry__ import _ivf_pairs_sql, _ivf_topk_sql
    from idf.functions.ann import ivf_pairs, ivf_topk

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM read_parquet('{SF}/embeddings.parquet')"
    )

    ray_topk = (
        ivf_topk(emb, list(range(8)), k=5)
        .to_pandas()[["vec_id", "neighbor_id", "rank"]]
        .sort_values(["vec_id", "rank"])
        .reset_index(drop=True)
    )
    sql_topk = (
        con.execute(_ivf_topk_sql(f"{SF}/embeddings.parquet", 8, 5, 16, 4))
        .df()
        .sort_values(["vec_id", "rank"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(ray_topk, sql_topk, check_dtype=False)

    ray_pairs = (
        ivf_pairs(emb, tau=0.4)
        .to_pandas()[["vec_id_a", "vec_id_b"]]
        .sort_values(["vec_id_a", "vec_id_b"])
        .reset_index(drop=True)
    )
    sql_pairs = (
        con.execute(_ivf_pairs_sql(f"{SF}/embeddings.parquet", 0.4, 64, 2))
        .df()
        .sort_values(["vec_id_a", "vec_id_b"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(ray_pairs, sql_pairs, check_dtype=False)


def test_emb_dedup_map_routes_and_closure(ray_session):
    """dedup_embeddings_map: canon = min vec_id of the connected
    component over the lsh_pairs edge set (verified against a
    networkx-free driver closure over the SAME pairs), every vec_id
    appears exactly once, non-dups map to themselves, and the
    distributed labelprop route (driver_max_edges=0) is byte-identical
    to the driver-CC route — the canonical_map twin of
    dedup_docs_map's route-parity guarantee."""
    import pandas as pd
    import ray.data as rd

    from idf.functions.ann import dedup_embeddings_map, lsh_pairs

    rng = np.random.default_rng(23)
    rows = []
    vid = 0
    for fam in range(25):  # chained families exercise transitive closure
        base = rng.standard_normal(64)
        for _ in range(4):
            base = base + rng.standard_normal(64) * 0.05  # chain: a~b~c~d
            rows.append({"vec_id": vid, "embedding": base.astype(np.float32).tolist()})
            vid += 1
    for _ in range(60):
        rows.append(
            {"vec_id": vid, "embedding": rng.standard_normal(64).astype(np.float32).tolist()}
        )
        vid += 1
    emb = rd.from_pandas(pd.DataFrame(rows))

    tau = 0.9
    got = dedup_embeddings_map(emb, tau=tau).to_pandas().sort_values("vec_id")
    assert list(got["vec_id"]) == list(range(vid))  # total map, one row per vector

    # independent closure over the same (already-tested) pair set
    pairs = lsh_pairs(emb, tau=tau).to_pandas()
    parent = list(range(vid))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["vec_id_a"], pairs["vec_id_b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    want = [find(i) for i in range(vid)]
    assert list(got["canon_id"]) == want
    assert (got["canon_id"] != got["vec_id"]).sum() >= 25  # dups actually collapsed

    scale = (
        dedup_embeddings_map(emb, tau=tau, driver_max_edges=0)
        .to_pandas()
        .sort_values("vec_id")
    )
    assert list(scale["canon_id"]) == want


def test_contamination_known_values(ray_session):
    """doc 0 and 50 are benchmark (id % 50 == 0). doc 1 embeds one
    benchmark 5-gram at two positions (n_hits counts POSITIONS, not
    distinct grams); doc 2 shares only a 4-gram -> 0; doc 3 too short."""
    from idf.functions.text import contamination

    bench_text = "alpha beta gamma delta epsilon zeta"
    rows = pd.DataFrame(
        {
            "doc_id": [0, 50, 1, 2, 3],
            "text": [
                bench_text,                       # benchmark: grams include a..e, b..f
                "unrelated benchmark words here entirely different ones",
                # two occurrences of the same benchmark 5-gram
                "x alpha beta gamma delta epsilon y alpha beta gamma delta epsilon z",
                "alpha beta gamma delta DIFFERENT trailing words",  # only 4 shared
                "alpha beta",                      # < 5 tokens: no grams
            ],
        }
    )
    got = (
        contamination(rd.from_pandas(rows), bench_mod=50, n=5)
        .to_pandas()
        .set_index("doc_id")["n_hits"]
    )
    assert set(got.index) == {1, 2, 3}  # benchmark docs excluded from output
    assert got[1] == 2 and got[2] == 0 and got[3] == 0


def test_contamination_matches_bruteforce_random(ray_session):
    """Randomized cross-check: block layout and broadcast must not
    change hit counts vs a single-process reference."""
    from idf.functions.text import contamination

    rng = np.random.default_rng(31)
    vocab = np.array([f"w{i}" for i in range(30)], dtype=object)
    rows = []
    for did in range(120):
        n = rng.integers(0, 15)
        rows.append((did, " ".join(vocab[rng.integers(0, len(vocab), n)])))
    pdf = pd.DataFrame(rows, columns=["doc_id", "text"])

    def grams(s, n=3):
        t = s.strip(" ").lower().split()
        return [" ".join(t[i : i + n]) for i in range(len(t) - n + 1)]

    bench = set()
    for _, r in pdf[pdf["doc_id"] % 10 == 0].iterrows():
        bench.update(grams(r["text"]))
    want = {
        int(r["doc_id"]): sum(g in bench for g in grams(r["text"]))
        for _, r in pdf[pdf["doc_id"] % 10 != 0].iterrows()
    }

    for blocks in (1, 9):
        ds = rd.from_pandas(pdf).repartition(blocks)
        got = contamination(ds, bench_mod=10, n=3).to_pandas()
        assert dict(zip(got["doc_id"], got["n_hits"])) == want


def test_hamming_topk_vs_numpy(ray_session):
    """Binary-code ANN: exact against a brute-force numpy reference,
    including the md5 query-sampling rule and (dist, id) tie order."""
    import pyarrow as pa
    import ray.data as rd

    from idf.functions.ann import hamming_topk
    from idf.kernels.hamming import popcount64
    from idf.kernels.minhash import md5_low64

    rng = np.random.default_rng(3)
    n = 400
    ids = [f"img{i:04d}" for i in range(n)]
    codes = rng.integers(0, 2**63, size=n, dtype=np.int64)
    ds = rd.from_arrow(pa.table({"image_id": ids, "phash": codes})).repartition(7)
    mod = 37  # ~n/37 queries
    got = hamming_topk(ds, k=4, query_mod=mod).to_pandas()

    qs = [s for s in ids if md5_low64(s) % mod == 0]
    assert qs and set(got["query_id"]) == set(qs)
    u = codes.view(np.uint64)
    arr_ids = np.array(ids)
    for q in qs:
        d = popcount64(u[arr_ids == q][0] ^ u)
        m = arr_ids != q
        order = np.lexsort((arr_ids[m], d[m]))[:4]
        want = list(arr_ids[m][order])
        g = got[got["query_id"] == q].sort_values("rank")
        assert list(g["image_id"]) == want
        assert list(g["dist"]) == list(d[m][order])
        assert list(g["rank"]) == [1, 2, 3, 4]

"""Tests for the temporal/relational training-data operators
(idf/functions/relational.py, idf/ops.py asof_join + range_lookup).

Each op is checked against an independent pandas/python oracle on
synthetic frames that hit the edge cases the sf tables may not:
as-of ties, gap-exactly-at-threshold events, band boundaries,
duplicate texts straddling blocks.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from idf.functions.relational import (
    events_asof_orders,
    leakfree_split,
    pricing_summary,
    sessionize,
    window_agg,
)
from idf.functions.text import hash_split, top_bigrams
from idf.ops import asof_join, range_lookup


@pytest.fixture(scope="module")
def event_frame(ray_session, rng):
    n = 3000
    base = pd.Timestamp("2024-01-01")
    ts = base + pd.to_timedelta(rng.integers(0, 86_400 * 14, n), unit="s")
    return pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.integers(0, 40, n).astype(np.int64),
            "ts": ts.astype("datetime64[us]"),
            "event_type": rng.choice(["a", "b", "c"], n),
            "value": np.round(rng.uniform(0, 200, n), 2),
        }
    )


def test_asof_join_matches_per_row_oracle(ray_session, rng, event_frame):
    ev = event_frame
    orders = pd.DataFrame(
        {
            "o_orderkey": np.arange(500, dtype=np.int64),
            "o_custkey": rng.integers(0, 40, 500).astype(np.int64),
            "o_orderdate": (
                pd.Timestamp("2023-12-28")
                + pd.to_timedelta(rng.integers(0, 86_400 * 16, 500), unit="s")
            ).astype("datetime64[us]"),
        }
    )
    # force date TIES within a customer to exercise the tiebreak
    orders.loc[1, ["o_custkey", "o_orderdate"]] = orders.loc[0, ["o_custkey", "o_orderdate"]]

    got = (
        events_asof_orders(
            rd.from_pandas(ev[["event_id", "user_id", "ts"]]),
            rd.from_pandas(orders),
        )
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )

    # row-at-a-time oracle: latest order <= ts, ties -> max orderkey
    want_rows = []
    for _, e in ev.iterrows():
        cand = orders[(orders["o_custkey"] == e["user_id"]) & (orders["o_orderdate"] <= e["ts"])]
        if cand.empty:
            continue
        best = cand.sort_values(["o_orderdate", "o_orderkey"]).iloc[-1]
        want_rows.append((e["event_id"], best["o_orderkey"]))
    want = pd.DataFrame(want_rows, columns=["event_id", "asof_orderkey"]).sort_values(
        "event_id"
    ).reset_index(drop=True)
    pd.testing.assert_frame_equal(got.astype({"asof_orderkey": np.int64}), want.astype({"event_id": np.int64, "asof_orderkey": np.int64}))


def test_asof_join_disjoint_name_guard(ray_session):
    df = pd.DataFrame({"k": [1], "t": [1]})
    with pytest.raises(ValueError):
        asof_join(
            rd.from_pandas(df), rd.from_pandas(df),
            left_by="k", right_by="k", left_on="t", right_on="t",
        )


def test_range_lookup_boundaries(ray_session):
    df = pd.DataFrame({"id": np.arange(7), "x": [-1.0, 0.0, 9.99, 10.0, 19.99, 20.0, 25.0]})
    out = (
        range_lookup(rd.from_pandas(df), "x", edges=[0.0, 10.0, 20.0], labels=["lo", "hi"])
        .to_pandas()
        .sort_values("id")
    )
    # -1 (below) and 20/25 (>= last edge) are dropped; lo edge inclusive
    assert out["id"].tolist() == [1, 2, 3, 4]
    assert out["band"].tolist() == ["lo", "lo", "hi", "hi"]


def test_sessionize_gap_strictness_and_numbering(ray_session):
    base = pd.Timestamp("2024-01-01")
    gap = pd.Timedelta("30min")
    ev = pd.DataFrame(
        {
            "user_id": [1, 1, 1, 1, 2, 2],
            "ts": [
                base,
                base + gap,               # exactly the gap -> SAME session (strict >)
                base + gap + gap,         # still chained
                base + 3 * gap + pd.Timedelta("1us"),  # 1us beyond -> new session
                base,
                base + pd.Timedelta("2h"),
            ],
            "event_id": np.arange(6, dtype=np.int64),
        }
    )
    ev["ts"] = ev["ts"].astype("datetime64[us]")
    got = (
        sessionize(rd.from_pandas(ev), gap="30min")
        .to_pandas()
        .sort_values(["user_id", "session_id"])
        .reset_index(drop=True)
    )
    assert got[["user_id", "session_id", "n_events"]].values.tolist() == [
        [1, 1, 3],
        [1, 2, 1],
        [2, 1, 1],
        [2, 2, 1],
    ]
    # per-user numbering restarts at 1 even when users share a bucket
    assert got.groupby("user_id")["session_id"].min().eq(1).all()


def test_sessionize_salted_equals_unsalted(ray_session, event_frame):
    """Time-salted two-phase sessionize (hot-user path) is EXACTLY the
    single-shuffle result, on a realistic event frame at two salt
    periods (1d and, adversarially tight, 1h == 2x gap)."""
    cols = ["user_id", "session_id", "n_events", "session_start", "session_end"]
    want = (
        sessionize(rd.from_pandas(event_frame), gap="30min")
        .to_pandas()[cols]
        .sort_values(cols)
        .reset_index(drop=True)
    )
    for salt in ("1d", "1h"):
        got = (
            sessionize(rd.from_pandas(event_frame), gap="30min", salt=salt)
            .to_pandas()[cols]
            .sort_values(cols)
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sessionize_salted_hot_user_boundary(ray_session):
    """A single adversarial user whose one session spans many salt
    periods: phase-1 tasks each see only one period, yet the merged
    output is one session; an over-gap break at a period boundary still
    splits. Also: salt < gap is rejected."""
    base = pd.Timestamp("2024-03-01 23:40:00")
    # events every 10min for 6h -> one session crossing 6+ 1h-periods
    ts = [base + pd.Timedelta(minutes=10 * i) for i in range(37)]
    # then a 2h silence and two more events -> second session
    ts += [ts[-1] + pd.Timedelta("2h"), ts[-1] + pd.Timedelta("2h10min")]
    ev = pd.DataFrame(
        {
            "user_id": np.zeros(len(ts), dtype=np.int64),
            "ts": pd.Series(ts).astype("datetime64[us]"),
            "event_id": np.arange(len(ts), dtype=np.int64),
        }
    )
    got = (
        sessionize(rd.from_pandas(ev), gap="30min", salt="1h")
        .to_pandas()
        .sort_values("session_id")
        .reset_index(drop=True)
    )
    assert got["n_events"].tolist() == [37, 2]
    assert got["session_start"].iloc[0] == ts[0]
    assert got["session_end"].iloc[0] == ts[36]
    with pytest.raises(ValueError, match="salt period"):
        sessionize(rd.from_pandas(ev), gap="30min", salt="10min")


def test_sessionize_auto_routes_hot_users_to_salted(ray_session):
    """salt='auto' (the default, r4): the heavy-hitter probe routes a
    hot-user corpus to the salted two-phase path and a balanced corpus
    to the single-shuffle path — observable via SESSIONIZE_STATS — and
    both routes produce the identical session table."""
    from idf.functions.relational import SESSIONIZE_STATS

    base = pd.Timestamp("2024-03-01")
    rng = np.random.default_rng(7)
    # one adversarial user with 3000 events over 10 days + 50 normal users
    hot_ts = base + pd.to_timedelta(np.sort(rng.integers(0, 864_000, 3000)), unit="s")
    norm_u = rng.integers(1, 51, 400)
    norm_ts = base + pd.to_timedelta(rng.integers(0, 864_000, 400), unit="s")
    ev = pd.DataFrame(
        {
            "user_id": np.r_[np.zeros(3000, dtype=np.int64), norm_u],
            "ts": pd.Series(
                np.concatenate([np.asarray(hot_ts), np.asarray(norm_ts)])
            ).astype("datetime64[us]"),
            "event_id": np.arange(3400, dtype=np.int64),
        }
    )
    cols = ["user_id", "session_id", "n_events", "session_start", "session_end"]

    def run(**kw):
        return (
            sessionize(rd.from_pandas(ev), gap="30min", **kw)
            .to_pandas()[cols]
            .sort_values(cols)
            .reset_index(drop=True)
        )

    want = run(salt=None)
    assert SESSIONIZE_STATS["route"] == "unsalted"

    got = run(hot_rows_threshold=1000)  # salt='auto' default engages
    assert SESSIONIZE_STATS["route"] == "salted"
    assert SESSIONIZE_STATS["gate"] == "probe"  # 3400 rows > threshold: probe ran
    assert SESSIONIZE_STATS["est_max_user_rows"] >= 3000
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

    # small corpus at the default 4M threshold: the METADATA gate (total
    # known rows <= threshold proves no key can be hot) must make the
    # call without running the probe's streaming pass at all (r4 verdict
    # "wrong" #2 — the old bytes-based gate was dead code after
    # select_columns dropped the metadata)
    run()
    assert SESSIONIZE_STATS["route"] == "unsalted"
    assert SESSIONIZE_STATS["gate"] == "metadata"
    assert SESSIONIZE_STATS["est_max_user_rows"] == 0  # probe never ran


def test_sessionize_matches_sql_shape(ray_session, event_frame):
    got = sessionize(rd.from_pandas(event_frame), gap="30min").to_pandas()
    # oracle: per-user scan
    want_n = 0
    for _, g in event_frame.groupby("user_id"):
        ts = g.sort_values(["ts", "event_id"])["ts"].to_numpy()
        brk = np.ones(len(ts), dtype=bool)
        brk[1:] = (ts[1:] - ts[:-1]) > np.timedelta64(30, "m")
        want_n += int(brk.sum())
    assert len(got) == want_n
    assert int(got["n_events"].sum()) == len(event_frame)


def test_window_agg_matches_pandas(ray_session, event_frame):
    got = (
        window_agg(rd.from_pandas(event_frame), every="1h")
        .to_pandas()
        .sort_values(["event_type", "window_start"])
        .reset_index(drop=True)
    )
    cents = np.round(event_frame["value"].to_numpy() * 100).astype(np.int64)
    want = (
        event_frame.assign(window_start=event_frame["ts"].dt.floor("1h"), __c=cents)
        .groupby(["event_type", "window_start"], sort=True)
        .agg(n=("__c", "size"), __c=("__c", "sum"))
        .reset_index()
    )
    want["sum_value"] = want["__c"].astype(np.float64) / 100
    want = want.drop(columns="__c")
    pd.testing.assert_frame_equal(
        got[["event_type", "window_start", "n", "sum_value"]],
        want[["event_type", "window_start", "n", "sum_value"]],
        check_dtype=False,
    )


def test_pricing_summary_matches_pandas(ray_session, rng):
    n = 5000
    li = pd.DataFrame(
        {
            "l_returnflag": rng.choice(["A", "N", "R"], n),
            "l_linestatus": rng.choice(["F", "O"], n),
            "l_quantity": rng.integers(1, 51, n).astype(np.float64),
            "l_extendedprice": np.round(rng.uniform(900, 105_000, n), 2),
            "l_discount": np.round(rng.uniform(0, 0.1, n), 2),
            "l_tax": np.round(rng.uniform(0, 0.08, n), 2),
            "l_shipdate": (
                pd.Timestamp("1995-01-01")
                + pd.to_timedelta(rng.integers(0, 2500, n), unit="D")
            ).astype("datetime64[us]"),
        }
    )
    got = pricing_summary(rd.from_pandas(li)).reset_index(drop=True)
    m = li[li["l_shipdate"] <= pd.Timestamp("1998-09-02")]
    grp = m.groupby(["l_returnflag", "l_linestatus"], sort=True)
    assert got["count_order"].tolist() == grp.size().tolist()
    assert got["sum_qty"].tolist() == grp["l_quantity"].sum().tolist()
    # exact integer-cents reconstruction
    want_base = grp["l_extendedprice"].apply(
        lambda s: np.round(s.to_numpy() * 100).astype(np.int64).sum()
    ).to_numpy() / 100
    assert np.array_equal(got["sum_base_price"].to_numpy(), want_base)


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


def test_asof_join_left_keeps_unmatched(ray_session):
    ev = pd.DataFrame(
        {
            "event_id": np.arange(4, dtype=np.int64),
            "user_id": np.array([1, 1, 2, 3], dtype=np.int64),  # user 3 has no orders
            "ts": pd.to_datetime(
                ["2024-01-05", "2024-01-01", "2024-01-05", "2024-01-05"]
            ).astype("datetime64[us]"),
        }
    )
    orders = pd.DataFrame(
        {
            "o_orderkey": np.array([7, 8], dtype=np.int64),
            "o_custkey": np.array([1, 2], dtype=np.int64),
            "o_orderdate": pd.to_datetime(["2024-01-02", "2024-01-02"]).astype(
                "datetime64[us]"
            ),
        }
    )
    out = (
        asof_join(
            rd.from_pandas(ev),
            rd.from_pandas(orders),
            left_by="user_id",
            right_by="o_custkey",
            left_on="ts",
            right_on="o_orderdate",
            how="left",
        )
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    assert len(out) == 4  # every left row survives
    matched = out["o_orderkey"].notna()
    # event 1 (before any order) and user 3 (no orders at all) are unmatched
    assert matched.tolist() == [True, False, True, False]


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


def test_funnel_strict_ordering(ray_session):
    """A click BEFORE the first view must not convert; a click at the
    EXACT view timestamp must not convert (strictly-after semantics)."""
    from idf.functions.relational import funnel

    t0 = pd.Timestamp("2024-01-01 00:00:00")
    rows = []
    # user 1: view -> click -> purchase in order (full conversion)
    rows += [(1, t0, "view"), (1, t0 + pd.Timedelta("1min"), "click"),
             (1, t0 + pd.Timedelta("2min"), "purchase")]
    # user 2: click before any view -> stops at stage 1
    rows += [(2, t0, "click"), (2, t0 + pd.Timedelta("1min"), "view")]
    # user 3: click at exactly the view time -> not strictly after
    rows += [(3, t0, "view"), (3, t0, "click")]
    # user 4: never views -> contributes nowhere
    rows += [(4, t0, "purchase")]
    # user 5: view, then purchase without click -> stage 1 only
    rows += [(5, t0, "view"), (5, t0 + pd.Timedelta("1h"), "purchase")]
    ev = rd.from_pandas(pd.DataFrame(rows, columns=["user_id", "ts", "event_type"]))
    got = funnel(ev).set_index("stage")
    assert list(got["n_users"]) == [4, 1, 1]  # views: 1,2,3,5; click: 1; purchase: 1
    assert list(got["stage_name"]) == ["view", "click", "purchase"]


def test_funnel_second_chance_click(ray_session):
    """Stage 2 takes the EARLIEST click after the first view, and stage 3
    must be after THAT click — an earlier pre-view click is ignored."""
    from idf.functions.relational import funnel

    t0 = pd.Timestamp("2024-01-01")
    m = pd.Timedelta("1min")
    rows = [
        (1, t0 + 0 * m, "click"),     # ignored (before first view)
        (1, t0 + 1 * m, "view"),
        (1, t0 + 5 * m, "click"),     # stage-2 time = t0+5
        (1, t0 + 3 * m, "purchase"),  # BEFORE stage-2 time -> no stage 3
    ]
    ev = rd.from_pandas(pd.DataFrame(rows, columns=["user_id", "ts", "event_type"]))
    got = funnel(ev)
    assert list(got["n_users"]) == [1, 1, 0]


def test_retention_known_values(ray_session):
    """Hand-built cohort: duplicate events on one day count once; days
    beyond the horizon are dropped; offset 0 counts every active user."""
    from idf.functions.relational import retention

    d = lambda s: pd.Timestamp(s)
    rows = [
        (1, d("2024-01-01 03:00")), (1, d("2024-01-01 09:00")),  # same day: once
        (1, d("2024-01-03 00:00")),                               # offset 2
        (2, d("2024-01-02 12:00")), (2, d("2024-01-04 01:00")),  # offsets 0, 2
        (3, d("2024-01-01 00:00")), (3, d("2024-01-31 00:00")),  # 30 > horizon
    ]
    ev = rd.from_pandas(pd.DataFrame(rows, columns=["user_id", "ts"]))
    got = retention(ev, horizon_days=14)
    want = pd.DataFrame({"offset_days": [0, 2], "n_users": [3, 2]})
    pd.testing.assert_frame_equal(
        got.astype({"offset_days": "int64", "n_users": "int64"}), want
    )


def test_grouped_quantiles_duckdb_rule(ray_session):
    """The ceil(q*n)-1 selection must equal DuckDB's quantile_disc on
    sizes where q*n crosses an integer (the rule's only hazard)."""
    import duckdb

    from idf.functions.relational import grouped_quantiles

    qs = (0.01, 0.1, 0.2, 0.25, 0.5, 0.75, 0.9, 0.99)
    rng = np.random.default_rng(7)
    frames = []
    for flag, n in [("A", 10), ("B", 100), ("C", 101), ("D", 7), ("E", 1)]:
        # distinct cents values so element selection is unambiguous
        vals = rng.choice(np.arange(1, 100000), size=n, replace=False) / 100.0
        frames.append(pd.DataFrame({"l_returnflag": flag, "l_extendedprice": vals}))
    pdf = pd.concat(frames, ignore_index=True)

    got = grouped_quantiles(rd.from_pandas(pdf), qs=qs)
    con = duckdb.connect()
    con.register("li", pdf)
    want = con.sql(
        " UNION ALL ".join(
            f"SELECT l_returnflag, CAST({q} AS DOUBLE) AS q, "
            f"CAST(round(quantile_disc(l_extendedprice, {q})*100) AS BIGINT) AS value_cents "
            f"FROM li GROUP BY l_returnflag"
            for q in qs
        )
    ).df()
    key = ["l_returnflag", "q"]
    got = got.sort_values(key).reset_index(drop=True)
    want = want.sort_values(key).reset_index(drop=True).astype(got.dtypes.to_dict())
    pd.testing.assert_frame_equal(got[want.columns], want)


def test_grouped_quantiles_known_values(ray_session):
    """n=4 group: q=0.5 -> 2nd element; q=0.75 -> 3rd; q=1.0-ish (0.99)
    -> 4th. Histogram path must respect duplicate counts."""
    from idf.functions.relational import grouped_quantiles

    pdf = pd.DataFrame(
        {
            "l_returnflag": ["X"] * 4 + ["Y"] * 3,
            # Y has a duplicated low value: cum-counts (2, 3)
            "l_extendedprice": [1.0, 2.0, 3.0, 4.0, 5.0, 5.0, 9.0],
        }
    )
    got = grouped_quantiles(rd.from_pandas(pdf), qs=(0.5, 0.75, 0.99))
    gx = got[got["l_returnflag"] == "X"].set_index("q")["value_cents"]
    assert gx[0.5] == 200 and gx[0.75] == 300 and gx[0.99] == 400
    gy = got[got["l_returnflag"] == "Y"].set_index("q")["value_cents"]
    assert gy[0.5] == 500 and gy[0.75] == 900 and gy[0.99] == 900


def test_funnel_matches_bruteforce_random(ray_session):
    """Randomized cross-check: funnel() vs a per-user brute-force scan
    (sorted events, sequential stage resolution) on 40 users."""
    from idf.functions.relational import funnel

    rng = np.random.default_rng(11)
    stages = ("view", "click", "purchase")
    types = np.array(["view", "click", "purchase", "error", "signup"], dtype=object)
    n = 600
    pdf = pd.DataFrame(
        {
            "user_id": rng.integers(0, 40, n),
            "ts": pd.Timestamp("2024-01-01")
            + pd.to_timedelta(rng.integers(0, 10**6, n), unit="s"),
            "event_type": types[rng.integers(0, len(types), n)],
        }
    )
    got = funnel(rd.from_pandas(pdf), stages=stages)

    want = np.zeros(len(stages), dtype=np.int64)
    for _, g in pdf.groupby("user_id"):
        g = g.sort_values("ts")
        t = None
        for i, s in enumerate(stages):
            sel = g[(g["event_type"] == s) & ((g["ts"] > t) if t is not None else True)]
            if not len(sel):
                break
            t = sel["ts"].min()
            want[i] += 1
    assert list(got["n_users"]) == list(want)


def test_retention_matches_bruteforce_random(ray_session):
    """Randomized cross-check on offsets incl. the horizon boundary."""
    from idf.functions.relational import retention

    rng = np.random.default_rng(12)
    n = 500
    pdf = pd.DataFrame(
        {
            "user_id": rng.integers(0, 25, n),
            "ts": pd.Timestamp("2024-03-01")
            + pd.to_timedelta(rng.integers(0, 30 * 86400, n), unit="s"),
        }
    )
    horizon = 10
    got = retention(rd.from_pandas(pdf), horizon_days=horizon)

    ud = pd.DataFrame(
        {"user_id": pdf["user_id"], "d": pdf["ts"].dt.floor("D")}
    ).drop_duplicates()
    d0 = ud.groupby("user_id")["d"].transform("min")
    off = (ud["d"] - d0).dt.days
    want = (
        off[off <= horizon]
        .value_counts()
        .sort_index()
        .rename_axis("offset_days")
        .rename("n_users")
        .reset_index()
    )
    pd.testing.assert_frame_equal(
        got.astype({"offset_days": "int64", "n_users": "int64"}),
        want.astype({"offset_days": "int64", "n_users": "int64"}),
    )


def test_top_paths_known_values(ray_session):
    """Sessions split on strict 30-min gaps; path preserves (ts, id)
    order; ties in n break path-ascending."""
    from idf.functions.relational import top_paths

    t0 = pd.Timestamp("2024-01-01")
    m = pd.Timedelta("1min")
    rows = [
        # user 1, session 1: view>click ; session 2 (gap 31min): view
        (1, t0 + 0 * m, 1, "view"),
        (1, t0 + 5 * m, 2, "click"),
        (1, t0 + 36 * m, 3, "view"),
        # user 2: exactly 30min gap does NOT split (strict >)
        (2, t0 + 0 * m, 4, "view"),
        (2, t0 + 30 * m, 5, "click"),
        # user 3: same-timestamp events order by event_id
        (3, t0, 7, "purchase"),
        (3, t0, 6, "view"),
    ]
    ev = rd.from_pandas(
        pd.DataFrame(rows, columns=["user_id", "ts", "event_id", "event_type"])
    )
    got = top_paths(ev, k=10)
    want = pd.DataFrame(
        {
            "path": ["view>click", "view", "view>purchase"],
            "n": [2, 1, 1],
        }
    )
    pd.testing.assert_frame_equal(got, want.astype({"n": "int64"}))


def test_top_paths_matches_bruteforce_random(ray_session):
    """Randomized cross-check vs a driver-side pandas implementation."""
    from idf.functions.relational import top_paths

    rng = np.random.default_rng(13)
    types = np.array(["view", "click", "purchase", "error"], dtype=object)
    n = 400
    pdf = pd.DataFrame(
        {
            "user_id": rng.integers(0, 30, n),
            "ts": pd.Timestamp("2024-01-01")
            + pd.to_timedelta(rng.integers(0, 4 * 86400, n), unit="s"),
            "event_id": np.arange(n),
            "event_type": types[rng.integers(0, len(types), n)],
        }
    )
    got = top_paths(rd.from_pandas(pdf), k=15)

    g = pdf.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    ts = g["ts"].to_numpy(dtype="datetime64[ns]").astype(np.int64)
    uid = g["user_id"].to_numpy()
    gap_ns = int(pd.Timedelta("30min").value)
    brk = np.r_[True, (uid[1:] != uid[:-1]) | (np.diff(ts) > gap_ns)]
    sid = np.cumsum(brk)
    paths = pd.Series(g["event_type"].to_numpy(object)).groupby(sid).agg(">".join)
    vc = paths.value_counts().reset_index()
    vc.columns = ["path", "n"]
    want = (
        vc.sort_values(["n", "path"], ascending=[False, True], kind="mergesort")
        .head(15)
        .reset_index(drop=True)
        .astype({"n": "int64"})
    )
    pd.testing.assert_frame_equal(got, want)


def test_rfm_known_values(ray_session):
    """Recency floors to DAYS (time-of-day ignored); frequency counts
    rows; monetary sums exact cents."""
    from idf.functions.relational import rfm

    pdf = pd.DataFrame(
        {
            "o_custkey": [1, 1, 2],
            "o_orderdate": pd.to_datetime(
                ["2024-01-01 23:59", "2024-01-05 00:01", "2024-01-03 12:00"]
            ),
            "o_totalprice": [10.01, 0.02, 99.99],
        }
    )
    got = (
        rfm(rd.from_pandas(pdf))
        .to_pandas()
        .sort_values("o_custkey")
        .reset_index(drop=True)
    )
    # corpus max day = 2024-01-05; cust 1 max day = 01-05 -> 0; cust 2 -> 2
    assert list(got["recency_days"]) == [0, 2]
    assert list(got["frequency"]) == [2, 1]
    assert list(got["monetary_cents"]) == [1003, 9999]


def test_sample_per_key_deterministic_and_combiner_safe(ray_session):
    """The draw must be identical regardless of batch layout (the
    per-batch local-k combiner must not change the global result), and
    keys with fewer than k rows keep all rows."""
    import hashlib

    from idf.functions.relational import sample_per_key

    rng = np.random.default_rng(21)
    n = 300
    pdf = pd.DataFrame(
        {"user_id": rng.integers(0, 12, n), "event_id": np.arange(n)}
    )
    pdf = pd.concat([pdf, pd.DataFrame({"user_id": [99], "event_id": [10_000]})])

    def brute(pdf, k=3):
        h = pdf["event_id"].map(lambda v: hashlib.md5(str(v).encode()).hexdigest())
        return (
            pdf.assign(__h=h)
            .sort_values(["__h", "event_id"])
            .groupby("user_id", sort=False)
            .head(k)
            .drop(columns="__h")
            .sort_values(["user_id", "event_id"])
            .reset_index(drop=True)
        )

    want = brute(pdf)
    for blocks in (1, 7):
        ds = rd.from_pandas(pdf).repartition(blocks)
        got = (
            sample_per_key(ds, k=3)
            .to_pandas()
            .sort_values(["user_id", "event_id"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got[want.columns], want)
    assert (want["user_id"] == 99).sum() == 1  # under-k key kept whole


def test_customers_without_orders_anti_join(ray_session):
    """Anti-join semantics: only customers whose every order is at or
    below the threshold survive; order-less customers survive too."""
    from idf.functions.relational import customers_without_orders

    cust = pd.DataFrame(
        {"c_custkey": [1, 2, 3, 4], "c_nationkey": [10, 11, 12, 13],
         "c_name": list("abcd"), "c_acctbal": [0.0] * 4, "c_mktsegment": ["x"] * 4}
    )
    orders = pd.DataFrame(
        {
            "o_custkey": [1, 1, 2, 3],
            "o_totalprice": [50.0, 500.0, 100.0, 400.0],
        }
    )
    got = (
        customers_without_orders(
            rd.from_pandas(cust), rd.from_pandas(orders), min_totalprice=300.0,
        )
        .to_pandas()
        .sort_values("c_custkey")
        .reset_index(drop=True)
    )
    # cust 1 has a 500 order (out), 3 has 400 (out); 2 only 100 (in); 4 none (in)
    assert list(got["c_custkey"]) == [2, 4]
    assert list(got.columns) == ["c_custkey", "c_nationkey"]


def test_transitions_known_values(ray_session):
    """Pairs only within a user; (ts, event_id) ordering decides
    same-timestamp neighbors."""
    from idf.functions.relational import transitions

    t0 = pd.Timestamp("2024-01-01")
    s = pd.Timedelta("1s")
    rows = [
        (1, t0, 1, "a"), (1, t0 + s, 2, "b"), (1, t0 + 2 * s, 3, "a"),
        (2, t0, 4, "b"), (2, t0, 5, "a"),  # same ts: order by event_id -> b->a
        (3, t0, 6, "a"),                    # singleton: no transition
    ]
    ev = rd.from_pandas(
        pd.DataFrame(rows, columns=["user_id", "ts", "event_id", "event_type"])
    )
    got = transitions(ev)
    want = pd.DataFrame(
        {"type_from": ["a", "b", "b"], "type_to": ["b", "a", "a"], "n": [1, 1, 1]}
    )
    # (a->b):1 from user1; (b->a): user1 has one, user2 has one -> merged
    want = (
        want.groupby(["type_from", "type_to"], sort=True)["n"].sum().reset_index()
    )
    pd.testing.assert_frame_equal(got, want.astype({"n": "int64"}))


def test_nation_revenue_by_year_known_values(ray_session):
    """Tiny star: one customer with two orders in different years, one
    order with two lineitems (dmills sum), an order with no lineitems
    (dropped by inner semantics)."""
    from idf.functions.relational import nation_revenue_by_year

    cust = pd.DataFrame({"c_custkey": [1, 2], "c_nationkey": [0, 1]})
    orders = pd.DataFrame(
        {
            "o_orderkey": [10, 11, 12, 13],
            "o_custkey": [1, 1, 2, 2],
            "o_orderdate": pd.to_datetime(
                ["2023-05-01", "2024-01-01", "2024-06-01", "2024-07-01"]
            ),
        }
    )
    li = pd.DataFrame(
        {
            "l_orderkey": [10, 10, 11, 12],  # order 13 has no lineitems
            "l_extendedprice": [100.0, 50.0, 10.0, 1.0],
            "l_discount": [0.10, 0.0, 0.05, 0.0],
        }
    )
    nation = pd.DataFrame({"n_nationkey": [0, 1], "n_name": ["ALGERIA", "ARGENTINA"],
                           "n_regionkey": [0, 1]})
    got = (
        nation_revenue_by_year(
            rd.from_pandas(cust), rd.from_pandas(orders), rd.from_pandas(li),
            rd.from_pandas(nation),
        )
        .to_pandas()
        .sort_values(["n_name", "o_year"])
        .reset_index(drop=True)
    )
    # order 10 (2023): 100*0.9 + 50 = 140.0 -> 1_400_000 dmills
    # order 11 (2024): 10*0.95 = 9.5 -> 95_000 ; order 12: 1.0 -> 10_000
    want = pd.DataFrame(
        {
            "n_name": ["ALGERIA", "ALGERIA", "ARGENTINA"],
            "o_year": [2023, 2024, 2024],
            "n_orders": [1, 1, 1],
            "revenue_dmills": [1_400_000, 95_000, 10_000],
        }
    )
    pd.testing.assert_frame_equal(
        got, want.astype({"o_year": "int64", "n_orders": "int64",
                          "revenue_dmills": "int64"})
    )

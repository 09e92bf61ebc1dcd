"""Local simulation of the driver's correctness gate.

Runs every ``queries()`` entry at the given sf dir and, where an
``oracle_sql()`` entry exists, compares row count, column names and an
order-insensitive value hash against DuckDB over the same parquet
tables; the ``img_*`` oracles read the pipeline run of that sf dir.
Usage: python scripts/check_oracle.py [sf_dir] [name ...]
"""

from __future__ import annotations

import os
import sys

import duckdb
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = ("documents", "embeddings")


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd

    if isinstance(res, rd.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def value_hash(df: pd.DataFrame) -> str:
    """Order-insensitive hash of the values AND the dtype kind of every
    column: ``%.17g`` prints 5.0 as ``5``, so without the kinds an int64
    result would match a float64 oracle that the correctness gate rejects."""
    import hashlib

    df = canon(df)
    kinds = ",".join(f"{c}:{df[c].dtype.kind}" for c in df.columns)
    payload = kinds.encode() + b"\n" + df.to_csv(index=False, float_format="%.17g").encode()
    return hashlib.md5(payload).hexdigest()


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{p}'")

    from idf.synth import sf_from_dir

    qs = entrymod.queries()
    # oracle_sql() pins the image oracles to the sf0.01 run; here they
    # read the run of the sf dir being checked
    oracles = {**entrymod.oracle_sql(), **entrymod.img_oracle_sql(str(sf_from_dir(sf_dir)))}
    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as exc:  # noqa: BLE001
            print(f"{name:24s} ERROR running query: {exc!r}")
            failures += 1
            continue
        if name not in oracles:
            print(f"{name:24s} rows={len(got):6d} cols={list(got.columns)} (rows-only)")
            continue
        want = con.sql(oracles[name]).df()
        ok_rows = len(got) == len(want)
        ok_cols = sorted(got.columns) == sorted(want.columns)
        ok_hash = ok_rows and ok_cols and value_hash(got) == value_hash(want)
        status = "OK" if (ok_rows and ok_cols and ok_hash) else "MISMATCH"
        if status != "OK":
            failures += 1
        print(
            f"{name:24s} {status} rows={len(got)}/{len(want)} cols_ok={ok_cols} hash_ok={ok_hash}"
        )
        if status != "OK" and ok_cols and len(got) < 50 and len(want) < 50:
            print("  got:", canon(got).head(10).to_dict("records"))
            print("  want:", canon(want).head(10).to_dict("records"))
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

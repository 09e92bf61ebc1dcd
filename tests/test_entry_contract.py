"""Driver-contract invariants over __ray_entry__ — cheap static checks
that every oracle has a query, signatures are callable, and the module
never initializes Ray at import time (the driver owns the session)."""

import ast
import inspect
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_every_oracle_key_has_a_query(ray_session):
    import __ray_entry__ as e

    qs, oracles = e.queries(), e.oracle_sql()
    missing = set(oracles) - set(qs)
    assert not missing, f"oracle entries without a query: {sorted(missing)}"
    # each oracle is a non-empty SQL string
    for name, sql in oracles.items():
        assert isinstance(sql, str) and sql.strip(), name


def test_every_query_but_img_hashes_has_an_oracle(ray_session):
    """Every registered query is compared to a DuckDB oracle except
    ``img_hashes``, whose DCT pHash is not SQL-expressible (the pytest
    kernel oracle checks it instead)."""
    import __ray_entry__ as e

    assert set(e.queries()) - set(e.oracle_sql()) == {"img_hashes"}


def test_registry_fits_the_checked_window(ray_session):
    """The correctness gate checks the first 50 registered queries; a
    query past that window would never be compared to its oracle."""
    import __ray_entry__ as e

    assert len(e.queries()) <= 50


def test_queries_are_single_arg_callables(ray_session):
    import __ray_entry__ as e

    for name, fn in e.queries().items():
        assert callable(fn), name
        params = [
            p
            for p in inspect.signature(fn).parameters.values()
            if p.default is inspect.Parameter.empty
            and p.kind
            in (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
        ]
        assert len(params) <= 1, f"{name} must take exactly one sf_dir arg"


def test_entry_module_never_calls_ray_init():
    """The driver calls ray.init() BEFORE importing this module; a
    module-level (or function-level) ray.init() would double-init or
    clobber the driver's session config."""
    src = open(
        os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "__ray_entry__.py")
    ).read()
    tree = ast.parse(src)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if (
                isinstance(f, ast.Attribute)
                and f.attr in ("init", "shutdown")
                and isinstance(f.value, ast.Name)
                and f.value.id == "ray"
            ):
                raise AssertionError(f"__ray_entry__ calls ray.{f.attr}() at line {node.lineno}")


def test_gate_simulator_rejects_int_vs_float_column():
    """scripts/check_oracle.py hashes dtype kinds: an exact int64 result
    must not match a float64 oracle (DuckDB's HUGEINT sums arrive as
    float64, which the correctness gate rejects), even though ``%.17g``
    prints both as the same digits."""
    import importlib.util

    import pandas as pd

    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "check_oracle.py"
    )
    spec = importlib.util.spec_from_file_location("check_oracle", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)

    ints = pd.DataFrame({"k": ["a", "b"], "v": pd.array([5, 7], dtype="int64")})
    floats = ints.astype({"v": "float64"})
    # the values alone cannot tell them apart
    csv = lambda df: df.to_csv(index=False, float_format="%.17g")  # noqa: E731
    assert csv(ints) == csv(floats)
    assert mod.value_hash(ints) != mod.value_hash(floats)
    assert mod.value_hash(ints) == mod.value_hash(ints.iloc[::-1])  # order-insensitive
    assert mod.value_hash(floats) == mod.value_hash(floats.copy())


def test_perfbench_trace_finds_the_idf_names_it_reads():
    """perfbench/trace.py looks up idf names by attribute to wrap them
    for a traced run (``RunManifest.run_stage``,
    ``run_stages_concurrent``, ``cc.components_phash_driver``,
    ``cc.components_phash_labelprop``) and reads two stats dicts for
    declared per-layer metrics; a renamed or deleted name would drop a
    metric or break every traced run."""
    import idf.stages.cc as cc
    from idf.state.manifest import RunManifest
    from perfbench.trace import Tracer, instrumented, optional_counters

    hooks = [
        (RunManifest, "run_stage"),
        (RunManifest, "run_stages_concurrent"),
        (cc, "components_phash_driver"),
        (cc, "components_phash_labelprop"),
    ]
    before = [getattr(owner, attr) for owner, attr in hooks]
    with instrumented(Tracer("t")):
        assert all(getattr(o, a) is not f for (o, a), f in zip(hooks, before))
    assert all(getattr(o, a) is f for (o, a), f in zip(hooks, before))
    assert {"ops.exchange_calls", "ops.sort_calls", "stages.cc.labelprop_rounds"} <= set(
        optional_counters()
    )


def test_perfbench_workloads_and_kernel_names_resolve():
    """perfbench/pipeline.py builds a DedupConfig per workload, and
    ``kernel_rates`` / ``layer_metrics`` in perfbench/trace.py import the
    hash path's kernels and the band expander; a renamed or deleted
    config field or name would break the benchmark, so it fails here."""
    from idf.codecs import DecodeError, decode_luma_scaled, sniff  # noqa: F401
    from idf.config import DedupConfig
    from idf.kernels.hashes import (  # noqa: F401
        DECODE_MIN_DIM,
        hash_gray_batch,
        preprocess,
        resize_dims,
    )
    from idf.stages.candidates import BandExpander  # noqa: F401
    from perfbench.pipeline import WORKLOADS, dedup_config

    assert WORKLOADS
    for w in WORKLOADS.values():
        cfg = dedup_config(w)
        assert isinstance(cfg, DedupConfig)
        assert {k: getattr(cfg, k) for k in w.cfg} == w.cfg, w.name


def test_perfbench_kernel_rates_are_strict_json(tmp_path):
    """The traced benchmark run times the hash path's kernels directly
    (``perfbench.trace.kernel_rates``: ``decode_luma_scaled`` per codec,
    ``preprocess``, ``hash_gray_batch``) and prints them in its last
    stdout line; every rate must be a finite positive number that
    strict JSON accepts, on a tiny corpus of PNG, FJPG and JFIF rows."""
    import json
    import math

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from idf.codecs import encode
    from perfbench.trace import kernel_rates

    rng = np.random.default_rng(3)
    blobs = []
    for i, fmt in enumerate(["png", "png", "jpg", "jpg", "jfif", "jfif", "png"]):
        img = rng.integers(0, 256, (40 + 9 * i, 70 - 5 * i, 3), dtype=np.uint8)
        blobs.append(encode(img[:, :, 0] if i == 6 else img, fmt))  # last: gray PNG
    path = str(tmp_path / "images.parquet")
    pq.write_table(pa.table({"bytes": pa.array(blobs, pa.binary())}), path)
    rates = kernel_rates(path, seed=0)
    assert set(rates) == {
        "codecs.fjpg.items_per_s", "codecs.png.items_per_s", "codecs.jfif.items_per_s",
        "kernels.resize.items_per_s", "kernels.phash.items_per_s",
    }
    for name, v in rates.items():
        assert isinstance(v, float) and math.isfinite(v) and v > 0, (name, v)
    json.dumps(rates, allow_nan=False)

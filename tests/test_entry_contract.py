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

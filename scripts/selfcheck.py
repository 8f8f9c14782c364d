"""Local stand-in for the driver's correctness gate: run every
``queries()`` entry at a given sf and diff against ``oracle_sql()`` via
DuckDB (row count, column names, exact values for ints/strings, bit
closeness for floats), then check that the rows come in the oracle's
order (the driver's value hash is row-order-sensitive; ``compare``
sorts both sides).

Usage: python scripts/selfcheck.py [sf_dir] [query ...]
"""

from __future__ import annotations

import sys
from unittest import mock

import duckdb
import numpy as np
import pandas as pd

import ray

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    from ray.data import Dataset

    if isinstance(res, Dataset):
        tables = [b for b in res.iter_batches(batch_format="pyarrow")]
        res = pa.concat_tables(tables) if tables else pa.table({})
    if isinstance(res, pa.Table):
        res = res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    if len(df):
        df = df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)
    return df


def compare(name: str, got: pd.DataFrame, want: pd.DataFrame) -> list[str]:
    problems = []
    if sorted(got.columns) != sorted(want.columns):
        problems.append(f"columns differ: {sorted(got.columns)} vs {sorted(want.columns)}")
        return problems
    g, w = canon(got), canon(want)
    if len(g) != len(w):
        problems.append(f"row count {len(g)} vs {len(w)}")
        return problems
    for c in g.columns:
        gv, wv = g[c], w[c]
        # The driver's value hash is byte-level: an int64 column vs a
        # float64/decimal oracle column hashes differently even when
        # every value compares equal (1 == 1.0). Flag the dtype-kind
        # mismatch so the local gate sees what the driver hash sees
        # (round-2 q27 lesson: DuckDB window-sum returns HUGEINT).
        g_num = pd.api.types.is_numeric_dtype(gv)
        w_num = pd.api.types.is_numeric_dtype(wv)
        if g_num and w_num:
            g_float = pd.api.types.is_float_dtype(gv)
            w_float = pd.api.types.is_float_dtype(wv)
            if g_float != w_float:
                problems.append(
                    f"col {c}: dtype kind mismatch {gv.dtype} vs {wv.dtype} "
                    "(values may compare equal but the driver hash differs "
                    "— CAST the oracle or engine side)")
        if pd.api.types.is_float_dtype(gv) or pd.api.types.is_float_dtype(wv):
            a = gv.astype(float).to_numpy()
            b = wv.astype(float).to_numpy()
            both_nan = np.isnan(a) & np.isnan(b)
            exact = (a == b) | both_nan
            if not exact.all():
                close = np.isclose(a, b, rtol=1e-9, atol=1e-12) | both_nan
                mx = np.nanmax(np.abs(a - b))
                if close.all():
                    problems.append(
                        f"col {c}: {int((~exact).sum())} float diffs (max {mx:.3e}) — "
                        "CLOSE but not bit-equal (hash would fail)")
                else:
                    problems.append(f"col {c}: value mismatch, max diff {mx:.3e}")
        else:
            eq = (gv == wv) | (gv.isna() & wv.isna())
            if not eq.all():
                i = int(np.nonzero(~eq.to_numpy())[0][0])
                problems.append(
                    f"col {c}: {int((~eq).sum())} diffs, first at row {i}: "
                    f"{gv.iloc[i]!r} vs {wv.iloc[i]!r}")
    return problems


def row_order_problems(name: str, got: pd.DataFrame, want: pd.DataFrame) -> list[str]:
    """``compare`` in row order: the same checks with ``canon``'s row
    sort switched off, so a row that sits elsewhere is a diff."""
    def keep_rows(df: pd.DataFrame) -> pd.DataFrame:
        return df[sorted(df.columns)].reset_index(drop=True)

    with mock.patch.object(sys.modules[__name__], "canon", keep_rows):
        return compare(name, got, want)


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True, log_to_driver=False)
    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as e

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    qs = e.queries()
    oracles = e.oracle_sql()
    n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as ex:
            print(f"FAIL {name}: query raised {type(ex).__name__}: {ex}")
            n_fail += 1
            continue
        if name not in oracles:
            print(f"ok   {name}: rows={len(got)} (rows-only, no oracle)")
            continue
        try:
            want = con.sql(oracles[name]).df()
        except Exception as ex:
            print(f"FAIL {name}: oracle raised {type(ex).__name__}: {ex}")
            n_fail += 1
            continue
        problems = compare(name, got, want)
        if problems:
            n_fail += 1
            print(f"FAIL {name}: " + "; ".join(problems))
        elif row_order_problems(name, got, want):
            n_fail += 1
            print(f"FAIL {name}: row order differs from the oracle")
        else:
            print(f"ok   {name}: rows={len(got)} MATCH")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()

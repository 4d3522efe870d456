"""DEV-ONLY: replicate the driver's correctness gate locally.

Runs each ``__ray_entry__.queries()`` callable and its ``oracle_sql()`` twin
through DuckDB on the same parquet tables, then compares row count, schema
(column names), and order-insensitive values (columns sorted by name, rows
sorted by all columns).

Usage: PYTHONPATH=/root/repo python tools/check_oracle.py [sf_dir] [name ...]
"""

from __future__ import annotations

import os
import sys

import duckdb
import numpy as np
import pandas as pd

TABLES = (
    "region nation customer supplier part orders lineitem events "
    "documents embeddings".split()
)


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    try:
        import ray.data

        if isinstance(res, ray.data.Dataset):
            return res.to_pandas()
    except ImportError:
        pass
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    if len(df):
        df = df.sort_values(by=list(df.columns), kind="mergesort")
    return df.reset_index(drop=True)


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> bool:
    ok = True
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        print(f"  [{name}] SCHEMA mismatch: ray={sorted(ray_df.columns)} "
              f"sql={sorted(sql_df.columns)}")
        return False
    if len(ray_df) != len(sql_df):
        print(f"  [{name}] ROWCOUNT mismatch: ray={len(ray_df)} sql={len(sql_df)}")
        ok = False
    a, b = normalize(ray_df), normalize(sql_df)
    n = min(len(a), len(b))
    for col in a.columns:
        av, bv = a[col].values[:n], b[col].values[:n]
        if np.issubdtype(np.asarray(av).dtype, np.floating) or np.issubdtype(
            np.asarray(bv).dtype, np.floating
        ):
            eq = np.isclose(
                av.astype(float), bv.astype(float), rtol=0, atol=0, equal_nan=True
            )
        else:
            eq = av == bv
        bad = int(n - np.count_nonzero(eq))
        if bad:
            ok = False
            i = int(np.argmin(eq))
            print(f"  [{name}] col {col}: {bad}/{n} mismatched values; "
                  f"first at sorted row {i}: ray={av[i]!r} sql={bv[i]!r}")
    return ok


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=8, include_dashboard=False,
            logging_level="ERROR",
        )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    # the checkout this script lives in, so a copy gates its own code
    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entry

    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    qs = entry.queries()
    oq = entry.oracle_sql()
    n_ok = n_bad = n_rows_only = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        ray_df = to_pandas(fn(sf_dir))
        if name not in oq:
            print(f"~ {name}: rows-only ({len(ray_df)} rows)")
            n_rows_only += 1
            continue
        sql_df = con.sql(oq[name]).df()
        if compare(name, ray_df, sql_df):
            print(f"✓ {name}: {len(ray_df)} rows match")
            n_ok += 1
        else:
            print(f"✗ {name}: MISMATCH")
            n_bad += 1
    print(f"\n{n_ok} ok, {n_bad} mismatched, {n_rows_only} rows-only")
    ray.shutdown()
    return 1 if n_bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Driver-style correctness harness: run each __ray_entry__ query and its
DuckDB oracle at a given sf, compare row count + schema + sorted values.

Usage: python scripts/check_oracles.py [sf_dir] [query ...]

NOTE: the six transcript-derived oracles (kg_*, doc_reconstruct) read
the fixed sf0.01 transcript cache (__ray_entry__._ORACLE_SF_DIR — the
scale the driver compares at), so running THIS harness at another sf
reports expected row-count mismatches for exactly those six; every
other oracle is scale-parametric via the registered table views.

Derived corpora and indexes are cached under
``yargy_ray.state.storage.cache_path``, in the temp dir; run
``TMPDIR=$(mktemp -d) python scripts/check_oracles.py ...`` to start
from an empty cache root. Ray's session dir follows ``TMPDIR`` on Linux
too, unless ``RAY_TMPDIR`` is set, which takes precedence.
"""

import sys

import duckdb
import pandas as pd


def to_pandas(result):
    import pyarrow as pa
    import ray.data
    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    for col in df.columns:
        if df[col].dtype == object:
            df[col] = df[col].astype(str)
    df = df.sort_values(by=list(df.columns)).reset_index(drop=True)
    return df


def main():
    import ray
    ray.init(address='local', num_cpus=8, include_dashboard=False,
             log_to_driver=False)
    sys.path.insert(0, '.')
    import __ray_entry__ as entrymod

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else '/root/testdata/sf0.01'
    only = set(sys.argv[2:])

    con = duckdb.connect()
    for t in ['region', 'nation', 'customer', 'supplier', 'part', 'orders',
              'lineitem', 'events', 'documents', 'embeddings']:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{sf_dir}/{t}.parquet')")

    queries = entrymod.queries()
    oracles = entrymod.oracle_sql()
    failures = 0
    for name, fn in queries.items():
        if only and name not in only:
            continue
        try:
            got = canon(to_pandas(fn(sf_dir)))
        except Exception as exc:
            print(f'{name}: QUERY ERROR {type(exc).__name__}: {exc}')
            failures += 1
            continue
        if name not in oracles:
            print(f'{name}: rows-only ({len(got)} rows) OK'
                  if len(got) >= 0 else '?')
            continue
        want = canon(con.sql(oracles[name]).df())
        if list(got.columns) != list(want.columns):
            print(f'{name}: SCHEMA MISMATCH ray={list(got.columns)} '
                  f'sql={list(want.columns)}')
            failures += 1
            continue
        if len(got) != len(want):
            print(f'{name}: ROWCOUNT MISMATCH ray={len(got)} sql={len(want)}')
            failures += 1
            continue
        # strict: dtypes must already agree (the driver hashes raw values,
        # so an int128/object oracle column vs int64 ray column is a FAIL)
        dtype_mismatch = [
            (c, str(got[c].dtype), str(want[c].dtype))
            for c in got.columns if got[c].dtype != want[c].dtype
        ]
        if dtype_mismatch:
            print(f'{name}: DTYPE MISMATCH {dtype_mismatch}')
            failures += 1
        # normalize dtypes before value compare
        for col in got.columns:
            try:
                want[col] = want[col].astype(got[col].dtype)
            except Exception:
                pass
        eq = got.equals(want)
        if not eq:
            diff = (got != want).any(axis=1)
            print(f'{name}: VALUE MISMATCH ({diff.sum()} rows differ)')
            print('  ray:', got[diff].head(3).to_dict('records'))
            print('  sql:', want[diff].head(3).to_dict('records'))
            failures += 1
        else:
            print(f'{name}: OK ({len(got)} rows)')
    print('failures:', failures)
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == '__main__':
    main()

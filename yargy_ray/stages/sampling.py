"""Deterministic sampling / splitting operators for training-data prep.

Everything here is pure-function-of-the-row: re-running any shard on
any cluster size reproduces the same assignment (no RNG state, no
driver coordination) — the property a 100 TB resumable pipeline needs.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa


_PRECISION = 1_000_000


def _md5_bucket(values) -> np.ndarray:
    """md5-derived bucket in [0, precision) per value.

    Matches DuckDB ``md5_number_lower(CAST(v AS VARCHAR))`` =
    little-endian int of digest bytes 8..16 — so every assignment is
    SQL-checkable. md5 here IS the work; it runs in C at ~3M rows/s
    per core and parallelizes embarrassingly in map_batches.
    """
    out = np.empty(len(values), dtype=np.int64)
    for i, v in enumerate(values):
        digest = hashlib.md5(str(v).encode()).digest()
        out[i] = int.from_bytes(digest[8:16], 'little') % _PRECISION
    return out


def hash_split(ds, key_column, fractions=None):
    """Assign each row to a named split by hashing ``key_column``.

    ``fractions``: ordered {name: fraction} summing to 1.0 (default
    train 0.9 / val 0.05 / test 0.05). Rows with equal keys always land
    in the same split (leakage-safe dedup boundary); assignment is
    stable under repartitioning, resume, and cluster-size changes.
    """
    if fractions is None:
        fractions = {'train': 0.9, 'val': 0.05, 'test': 0.05}
    names = list(fractions)
    # integer bucket boundaries: rounding each cumulative edge keeps
    # every boundary exact (0.9+0.05 cumsums to 950000.0000000001 in
    # float — searchsorted would then disagree with the SQL oracle's
    # `b < 950000` on a row hashing to exactly 950000)
    bounds = np.rint(
        np.cumsum([fractions[n] for n in names]) * _PRECISION
    ).astype(np.int64)
    bounds[-1] = _PRECISION  # fractions must cover [0, 1]

    def assign(batch: pa.Table) -> pa.Table:
        buckets = _md5_bucket(batch.column(key_column).to_pylist())
        idx = np.searchsorted(bounds, buckets, side='right')
        labels = np.asarray(names, dtype=object)[idx]
        return batch.append_column(
            'split', pa.array(labels, type=pa.string()))

    return ds.map_batches(assign, batch_format='pyarrow')


def topk_per_group(ds, group_columns, order_column, k, descending=True,
                   tiebreak=None, num_partitions=64):
    """Top-k rows per group — the partitioned-reduce shape, never one
    UDF call per group. ``tiebreak`` (column) makes ordering total so
    results are deterministic across cluster sizes."""
    from yargy_ray.stages.exchange import partitioned_reduce

    group_columns = ([group_columns] if isinstance(group_columns, str)
                     else list(group_columns))
    sort_cols = group_columns + [order_column] + (
        [tiebreak] if tiebreak else [])
    ascending = ([True] * len(group_columns) + [not descending]
                 + ([True] if tiebreak else []))

    def reduce_fn(table: pa.Table) -> pa.Table:
        df = table.to_pandas().sort_values(
            sort_cols, ascending=ascending, kind='mergesort')
        out = df.groupby(group_columns, sort=False).head(k)
        return pa.Table.from_pandas(out, schema=table.schema,
                                    preserve_index=False)

    return partitioned_reduce(ds, group_columns[0], reduce_fn,
                              num_partitions)


def group_quantiles(ds, key_column, value_column, qs=(0.5, 0.9),
                    num_partitions=64):
    """Exact per-group quantiles (linear interpolation) — one hash
    exchange, fully vectorized across groups inside each partition
    (lexsort + reduceat-style indexing; no per-group UDF calls).

    Interpolation is ``a*(1-f) + b*f`` — DuckDB's ``quantile_cont``
    arithmetic exactly, so SQL oracles compare bit-for-bit (the
    ``a + f*(b-a)`` variant differs in the last ulp). ``key_column``
    must be an integer column.
    """
    from yargy_ray.stages.exchange import partitioned_reduce

    names = [f'q{int(q * 100)}' for q in qs]

    def reduce_fn(table: pa.Table) -> pa.Table:
        keys = table.column(key_column).to_numpy(zero_copy_only=False)
        vals = table.column(value_column).to_numpy(zero_copy_only=False)
        if len(keys) == 0:
            return pa.table(
                {key_column: pa.array([], type=pa.int64()),
                 **{nm: pa.array([], type=pa.float64())
                    for nm in names}})
        order = np.lexsort((vals, keys))
        keys = keys[order]
        vals = vals[order].astype(np.float64)
        new = np.empty(len(keys), dtype=bool)
        new[0] = True
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, len(keys)))
        cols = {key_column: pa.array(keys[starts], type=pa.int64())}
        for q, nm in zip(qs, names):
            h = q * (counts - 1)
            lo = np.floor(h).astype(np.int64)
            frac = h - lo
            hi = np.minimum(lo + 1, counts - 1)
            a = vals[starts + lo]
            b = vals[starts + hi]
            cols[nm] = pa.array(a * (1.0 - frac) + b * frac,
                                type=pa.float64())
        return pa.table(cols)

    return partitioned_reduce(ds, key_column, reduce_fn, num_partitions)


def stratified_sample(ds, group_column, id_column, k, num_partitions=64):
    """Deterministic k-per-group sample: rank rows inside each group by
    an md5 of the id and keep the k smallest — an unbiased, seedless
    draw that is reproducible across cluster sizes, resume, and
    repartitioning (the property a balanced-domain training sample
    needs). Reuses the top-k exchange shape."""
    def rank(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            '_rank', pa.array(
                _md5_bucket(batch.column(id_column).to_pylist()),
                type=pa.int64()))

    ranked = ds.map_batches(rank, batch_format='pyarrow')
    out = topk_per_group(ranked, group_column, '_rank', k,
                         descending=False, tiebreak=id_column,
                         num_partitions=num_partitions)
    return out.drop_columns(['_rank'])

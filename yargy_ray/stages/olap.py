"""OLAP-style aggregates over wide fact tables: hierarchical rollup,
pivot (categories -> columns), fixed-width histograms.

All three share one shape: a map-side combine collapses each batch to
per-key partial aggregates (rows ~ distinct keys per batch, never input
rows), then ONE exchange finishes the aggregate. At 100 TB the exchange
carries category-cardinality rows only; nothing document- or fact-sized
ever reaches the driver. The reference has no relational layer (yargy
is a per-document extractor — reference parser.py:257-303 is the whole
"query engine"); these are the warehouse primitives the KG/corpus
tables need downstream.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _group_sum(table: pa.Table, keys, vals) -> pa.Table:
    """Arrow-native group-by sum + count over (keys, vals)."""
    agg = table.select(list(keys) + list(vals)).group_by(
        list(keys)).aggregate(
        [(v, 'sum') for v in vals] + [([], 'count_all')])
    cols = {k: agg.column(k) for k in keys}
    for v in vals:
        cols[v] = agg.column(f'{v}_sum')
    cols['n_rows'] = agg.column('count_all')
    return pa.table(cols)


def rollup_aggregate(ds, keys, vals, num_partitions=64):
    """GROUP BY ROLLUP(keys): one aggregate row set per prefix level.

    Output: the key columns (null where rolled up), the summed ``vals``
    (int64 — callers pre-convert money to cents), ``n_rows``, and
    ``lvl`` — DuckDB's ``GROUPING(k1, .., kn)`` bitmask (bit i set when
    key i is rolled up), which disambiguates rollup nulls from data
    nulls. Like SQL, empty input still yields the grand-total row, with
    null sums and ``n_rows=0``.

    Shape: ONE exchange at the finest grain (map-side combined), then
    each coarser level re-aggregates the fine aggregate on the driver —
    it is category-cardinality sized at any corpus scale.
    """
    import ray
    import ray.data

    from yargy_ray.stages.exchange import partitioned_reduce

    def partial(batch: pa.Table) -> pa.Table:
        return _group_sum(batch, keys, vals)

    def reduce_fine(table: pa.Table) -> pa.Table:
        # partials already carry n_rows; sum it like a value
        agg = table.select(list(keys) + list(vals) + ['n_rows']) \
            .group_by(list(keys)) \
            .aggregate([(v, 'sum') for v in list(vals) + ['n_rows']])
        cols = {k: agg.column(k) for k in keys}
        for v in list(vals) + ['n_rows']:
            cols[v] = agg.column(f'{v}_sum')
        return pa.table(cols)

    fine = partitioned_reduce(
        ds.map_batches(partial, batch_format='pyarrow'), list(keys),
        reduce_fine, num_partitions)
    blocks = [b for b in ray.get(fine.to_arrow_refs()) if b.num_rows]
    if blocks:
        table = pa.concat_tables(blocks)
    else:
        # no block carries the key types; take them from the input
        schema = ds.schema()
        types = dict(zip(schema.names, schema.types)) if schema else {}
        table = pa.table(
            {k: pa.array([], type=types.get(k, pa.string())) for k in keys}
            | {v: pa.array([], type=pa.int64())
               for v in list(vals) + ['n_rows']})
    return ray.data.from_arrow(_rollup_levels(table, keys, vals))


def _rollup_levels(fine: pa.Table, keys, vals) -> pa.Table:
    """The fine aggregate plus every coarser ROLLUP level of it; a
    rolled-up key is null of the fine aggregate's key type."""
    sums = list(vals) + ['n_rows']
    order = list(keys) + sums + ['lvl']
    pieces = [fine.append_column(
        'lvl', pa.array(np.zeros(fine.num_rows, dtype=np.int64)))
        .select(order)]
    for i in range(len(keys) - 1, -1, -1):
        kept = list(keys[:i])
        rolled = list(keys[i:])
        lvl = sum(1 << (len(keys) - 1 - list(keys).index(r))
                  for r in rolled)
        if kept:
            agg = fine.select(kept + sums).group_by(kept) \
                .aggregate([(v, 'sum') for v in sums])
            cols = {k: agg.column(k) for k in kept}
            src = {v: agg.column(f'{v}_sum') for v in sums}
            n = agg.num_rows
        else:
            # SQL's grand total: SUM of no rows is NULL, COUNT is 0
            src = {v: pa.array([pc.sum(fine.column(v)).as_py()],
                               type=pa.int64()) for v in vals}
            src['n_rows'] = pa.array(
                [pc.sum(fine.column('n_rows'), min_count=0).as_py()],
                type=pa.int64())
            cols = {}
            n = 1
        for r in rolled:
            cols[r] = pa.nulls(n, type=fine.schema.field(r).type)
        for v in sums:
            cols[v] = src[v]
        cols['lvl'] = pa.array(np.full(n, lvl, dtype=np.int64))
        pieces.append(pa.table(cols).select(order))
    return pa.concat_tables(pieces)


def pivot_counts(ds, key, cat_col, categories, num_partitions=64):
    """Pivot: one row per ``key``, one ``n_<category>`` int64 column per
    fixed category (the closed set makes the output schema stable — an
    open set would make schema depend on data order).

    Map-side combine on (key, category), ONE exchange keyed by ``key``,
    vectorized per-partition pivot. Exchange rows = distinct (key, cat)
    pairs per batch.
    """
    from yargy_ray.stages.exchange import partitioned_reduce

    cats = list(categories)
    cat_arr = pa.array(cats, type=pa.string())

    def partial(batch: pa.Table) -> pa.Table:
        tbl = pa.table({
            'k': pc.cast(batch.column(key), pa.int64()),
            'c': pc.cast(batch.column(cat_col), pa.string()),
        })
        agg = tbl.group_by(['k', 'c']).aggregate([([], 'count_all')])
        return pa.table({
            'k': agg.column('k'), 'c': agg.column('c'),
            'n': pc.cast(agg.column('count_all'), pa.int64())})

    def reduce_fn(table: pa.Table) -> pa.Table:
        k = table.column('k').to_numpy(zero_copy_only=False)
        ci = pc.index_in(table.column('c'), value_set=cat_arr) \
            .to_numpy(zero_copy_only=False)
        n = table.column('n').to_numpy(zero_copy_only=False)
        uk, inv = np.unique(k, return_inverse=True)
        mat = np.zeros((len(uk), len(cats)), dtype=np.int64)
        valid = ci >= 0          # unknown categories are dropped
        np.add.at(mat, (inv[valid], ci[valid].astype(np.int64)),
                  n[valid])
        cols = {key: pa.array(uk, type=pa.int64())}
        for j, c in enumerate(cats):
            cols[f'n_{c}'] = pa.array(mat[:, j])
        return pa.table(cols)

    return partitioned_reduce(
        ds.map_batches(partial, batch_format='pyarrow'),
        'k', reduce_fn, num_partitions)


def fixed_histogram(ds, col, lo, width, num_buckets):
    """Fixed-width histogram:
    ``bucket = min((col - lo) // width, num_buckets - 1)``, int64 end to
    end. Values at or past the last bucket's start count in the last
    bucket; values below ``lo`` are dropped, as the SQL oracle's
    ``RANGE(0, n) LEFT JOIN`` drops their negative buckets. Every bucket
    is present (zero-filled), so the output is exactly ``num_buckets``
    rows with stable schema.

    Map-side bincount (num_buckets ints per batch), single tiny reduce.
    """
    import ray.data

    def partial(batch: pa.Table) -> pa.Table:
        x = pc.cast(batch.column(col), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        b = np.minimum((x[x >= lo] - lo) // width, num_buckets - 1)
        counts = np.bincount(b, minlength=num_buckets)
        return pa.table({
            'bucket': pa.array(np.arange(num_buckets, dtype=np.int64)),
            'n': pa.array(counts.astype(np.int64)),
        })

    zero = ray.data.from_arrow(pa.table({
        'bucket': pa.array(np.arange(num_buckets, dtype=np.int64)),
        'n': pa.array(np.zeros(num_buckets, dtype=np.int64))}))
    partials = ds.map_batches(partial, batch_format='pyarrow') \
        .union(zero)

    def reduce_fn(table: pa.Table) -> pa.Table:
        agg = table.group_by(['bucket']).aggregate([('n', 'sum')])
        return pa.table({'bucket': agg.column('bucket'),
                         'n': agg.column('n_sum')}) \
            .sort_by('bucket')

    # num_buckets distinct keys: ONE partition suffices at any scale
    from yargy_ray.stages.exchange import partitioned_reduce
    return partitioned_reduce(partials, 'bucket', reduce_fn,
                              num_partitions=1)

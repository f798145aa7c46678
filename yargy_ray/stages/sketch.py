"""Distinct-count sketching: KMV (k-minimum-values).

The classic cardinality sketch (Bar-Yossef et al. 2002): hash every
distinct value into [0, 1), keep the k smallest hashes; with R = the
k-th smallest, D ≈ (k-1) / R. Mergeable (union of k-min sets, re-take
k smallest) and — unlike HLL implementations — EXACTLY reproducible in
SQL when the hash is md5: the DuckDB oracle recomputes the same k-min
set with ``ORDER BY md5 LIMIT k`` and the same one-division estimate,
so even the sketch is bit-exact-checkable.

Scale shape: each batch contributes at most k rows (its local k-min
over per-batch DISTINCT values), one constant-key reduce takes the
global k smallest — driver sees ONE row. Hashing runs on per-batch
distinct values only (md5 IS the operator — the accepted per-row-md5
class, same as hash_split / exact dedup)."""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from yargy_ray.stages.compute import map_cached

_SCALE = float(1 << 60)   # hashes are the first 60 bits of md5


def _batch_kmins(batch: pa.Table, column, k) -> pa.Table:
    vals = batch.column(column)
    # drop nulls so the value universe matches SQL (md5(NULL) IS NULL,
    # excluded) instead of hashing the literal 'None'
    distinct = vals.unique().drop_null()
    hs = np.sort(np.fromiter(
        (int(hashlib.md5(str(v).encode()).hexdigest()[:15], 16)
         for v in distinct.to_pylist()),
        dtype=np.int64, count=len(distinct)))[:k]
    return pa.table({'hv': pa.array(hs, type=pa.int64())})


def kmv_distinct(ds, column, k=64):
    """One-row Arrow table: (k, n_mins, kth, estimate).

    ``estimate`` is exact when fewer than k distinct values were seen
    (the k-min set IS the value set), else ``(k-1) * 2^60 / kth`` —
    the arithmetic the SQL oracle repeats verbatim.
    """
    partials = ds.map_batches(
        lambda b: _batch_kmins(b, column, k), batch_format='pyarrow')

    def merge(table: pa.Table) -> pa.Table:
        hs = np.unique(
            table.column('hv').to_numpy(zero_copy_only=False))[:k]
        return pa.table({'hv': pa.array(hs, type=pa.int64())})

    from yargy_ray.stages.exchange import partitioned_reduce

    # one partition: every row meets in one merge, whatever the key
    merged = partitioned_reduce(partials, 'hv', merge, 1)
    rows = merged.take_all()                    # bounded: <= k rows
    hs = sorted(r['hv'] for r in rows)[:k]
    n = len(hs)
    if n == 0:
        est, kth = 0.0, 0
    elif n < k:
        est, kth = float(n), hs[-1]
    else:
        kth = hs[-1]
        est = (k - 1) * _SCALE / kth
    return pa.table({
        'k': pa.array([k], type=pa.int64()),
        'n_mins': pa.array([n], type=pa.int64()),
        'kth': pa.array([kth], type=pa.int64()),
        'estimate': pa.array([est], type=pa.float64()),
    })


def _mg_summary(tokens, counts, k):
    """Misra-Gries summary of a (token, count) partial: at most k-1
    survivors whose MG counts underestimate true counts by <= N/k."""
    import pandas as pd
    s = pd.Series(counts, index=tokens).sort_values(ascending=False)
    if len(s) >= k:
        # decrement-all by the k-th largest: the vectorized equivalent
        # of repeated MG decrements over this partial
        dec = s.iloc[k - 1]
        s = (s - dec)[s > dec]
    return s


class ExactRecount:
    """Exact ``(token, n)`` partials of the broadcast candidate tokens
    only — the verify pass of :func:`heavy_hitters`."""

    def __init__(self, candidates):
        self.candidates = candidates

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from yargy_ray.stages.text import _vocab_partial
        part = _vocab_partial(batch)
        return part.filter(pc.is_in(part.column('token'),
                                    value_set=self.candidates))


def heavy_hitters(docs_ds, min_frac=0.01,
                  num_partitions=64, sketch_k=None):
    """EXACT heavy hitters: every whitespace token whose corpus
    frequency is >= ``min_frac`` of all token occurrences, with exact
    counts — computed WITHOUT a full-vocabulary exchange.

    Two-phase sketch-then-verify (the production pattern for heavy
    hitters over 100 TB):

    1. each batch emits a Misra-Gries summary (<= sketch_k-1 rows; MG
       guarantees any token with true frequency >= N/sketch_k survives
       every summary-merge, so with sketch_k > 1/min_frac no qualifying
       token can be missed) — the exchange carries ONLY the bounded
       summaries, never the vocabulary;
    2. the merged candidate set (small) is broadcast and re-counted
       EXACTLY in one streaming pass; the threshold filter runs on the
       exact counts, so output equals the naive full-count answer
       bit for bit (the SQL oracle is a plain GROUP BY ... HAVING).
    """
    import pyarrow.compute as pc

    from yargy_ray.stages.exchange import partitioned_reduce, sum_by
    from yargy_ray.stages.text import _vocab_partial

    if sketch_k is None:
        sketch_k = max(int(2.0 / min_frac), 8)

    def batch_summary(batch: pa.Table) -> pa.Table:
        part = _vocab_partial(batch)
        s = _mg_summary(part.column('token').to_numpy(
            zero_copy_only=False),
            part.column('n').to_numpy(zero_copy_only=False), sketch_k)
        total = int(pc.sum(part.column('n')).as_py() or 0)
        out = pa.table({
            'token': pa.array(s.index.to_numpy(dtype=object),
                              type=pa.string()),
            'n': pa.array(s.to_numpy(dtype=np.int64)),
        })
        # ride the total token count along (token='' never occurs:
        # _vocab_partial drops empties)
        return pa.concat_tables([out, pa.table({
            'token': pa.array(['']), 'n': pa.array([total],
                                                   type=pa.int64())})])

    def merge(table: pa.Table) -> pa.Table:
        import pandas as pd
        df = table.select(['token', 'n']).to_pandas()
        total = int(df.loc[df['token'] == '', 'n'].sum())
        df = df[df['token'] != '']
        agg = df.groupby('token', sort=False)['n'].sum()
        s = _mg_summary(agg.index.to_numpy(dtype=object),
                        agg.to_numpy(dtype=np.int64), sketch_k)
        out = pa.table({
            'token': pa.array(s.index.to_numpy(dtype=object),
                              type=pa.string()),
            'n': pa.array(s.to_numpy(dtype=np.int64)),
        })
        return pa.concat_tables([out, pa.table({
            'token': pa.array(['']),
            'n': pa.array([total], type=pa.int64())})])

    summaries = docs_ds.map_batches(batch_summary,
                                    batch_format='pyarrow')
    # one partition: every summary meets in one merge
    merged = partitioned_reduce(summaries, 'token', merge, 1)
    rows = merged.take_all()                 # bounded: <= sketch_k rows
    total = sum(r['n'] for r in rows if r['token'] == '')
    candidates = pa.array(
        sorted(r['token'] for r in rows if r['token'] != ''),
        type=pa.string())
    if total == 0 or len(candidates) == 0:
        return pa.table({'token': pa.array([], type=pa.string()),
                         'n': pa.array([], type=pa.int64())})
    exact = map_cached(docs_ds, ExactRecount, {'candidates': candidates},
                       (1, 4))

    counted = sum_by(exact, 'token', 'n', num_partitions)
    threshold = min_frac * total
    final = counted.filter(expr=f'n >= {threshold}')
    rows = final.take_all()                  # bounded: heavy hitters
    rows.sort(key=lambda r: r['token'])
    return pa.table({
        'token': pa.array([r['token'] for r in rows], type=pa.string()),
        'n': pa.array([r['n'] for r in rows], type=pa.int64()),
    })

"""Training-sample packing: global ordered prefix sums over documents.

A token-packing pipeline assigns every document a position in the
concatenated token stream (``offset`` = tokens before it in ``doc_id``
order) and a pack (``pack_id = offset // seq_len``) — the bookkeeping
a fixed-sequence-length pretraining data loader needs. The interesting
distributed piece is the ORDERED global prefix sum, which hash
exchanges cannot express:

1. per-doc token counts (vectorized map; reuses the token_count
   kernel's whitespace semantics so the SQL oracle is a window SUM),
2. RANGE partition on ``doc_id`` (uniform min/max split here — swap in
   sampled quantile boundaries for skewed key spaces; balance is the
   only thing at stake, results are partition-invariant),
3. per-partition token totals -> ONE driver-side exclusive scan over P
   numbers -> per-partition global offsets (broadcast in the reduce
   closure),
4. per-partition vectorized cumsum anchored at the partition offset.

Two streaming passes over the narrow (doc_id, n_tokens) table; nothing
document-sized ever reaches the driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from yargy_ray.stages.text import token_count_batch


def pack_assignments(docs_ds, seq_len=2048, num_partitions=64):
    """(doc_id, text) -> (doc_id, n_tokens, offset, pack_id) where
    ``offset`` is the exact number of tokens in all lower-``doc_id``
    documents and ``pack_id = offset // seq_len``.

    Deterministic and cluster-size-invariant: the global order is
    ``doc_id``, not arrival order.
    """
    from yargy_ray.stages.exchange import partitioned_reduce

    counts = docs_ds.map_batches(
        token_count_batch, batch_format='pyarrow').materialize()
    if counts.count() == 0:
        import ray.data
        return ray.data.from_arrow(pa.table({
            'doc_id': pa.array([], pa.int64()),
            'n_tokens': pa.array([], pa.int64()),
            'offset': pa.array([], pa.int64()),
            'pack_id': pa.array([], pa.int64())}))

    lo = int(counts.min('doc_id'))
    hi = int(counts.max('doc_id'))
    span = max(hi - lo + 1, 1)          # Python int: no overflow
    width = -(-span // num_partitions)  # ceil; divide BEFORE multiply
    # so snowflake-scale id spans (> ~2^57) can't overflow int64

    def ranged(batch: pa.Table) -> pa.Table:
        ids = batch.column('doc_id').to_numpy(zero_copy_only=False)
        # uint64 wrap-around subtraction is exact for any int64 span
        diff = ids.astype(np.uint64) - np.uint64(lo & 0xFFFFFFFFFFFFFFFF)
        part = np.minimum(diff // np.uint64(width),
                          num_partitions - 1).astype(np.int64)
        return batch.append_column('rpart', pa.array(part))

    keyed = counts.map_batches(ranged, batch_format='pyarrow')

    # per-partition totals -> ONE tiny driver scan (P numbers)
    totals = {int(r['rpart']): int(r['sum(n_tokens)'])
              for r in keyed.groupby('rpart').sum('n_tokens')
              .take_all()}
    offsets = {}
    running = 0
    for p in range(num_partitions):
        offsets[p] = running
        running += totals.get(p, 0)

    def local_scan(table: pa.Table) -> pa.Table:
        if table.num_rows == 0:
            return pa.table({
                'doc_id': pa.array([], pa.int64()),
                'n_tokens': pa.array([], pa.int64()),
                'offset': pa.array([], pa.int64()),
                'pack_id': pa.array([], pa.int64())})
        ids = table.column('doc_id').to_numpy(zero_copy_only=False)
        n = table.column('n_tokens').to_numpy(zero_copy_only=False)
        part = int(table.column('rpart')[0].as_py())
        order = np.argsort(ids, kind='stable')
        ids, n = ids[order], n[order]
        off = offsets[part] + np.concatenate(
            ([0], np.cumsum(n[:-1], dtype=np.int64)))
        return pa.table({
            'doc_id': pa.array(ids, type=pa.int64()),
            'n_tokens': pa.array(n, type=pa.int64()),
            'offset': pa.array(off, type=pa.int64()),
            'pack_id': pa.array(off // seq_len, type=pa.int64()),
        })

    return partitioned_reduce(keyed, 'rpart', local_scan, num_partitions)

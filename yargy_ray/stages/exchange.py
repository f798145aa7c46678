"""The exchange: the one module that knows how rows are routed.

Ray's per-group map (``groupby(key)``, then ``fn`` on every group)
degenerates when groups are tiny: one Python UDF call + one output
block PER GROUP (an exact dedup of N distinct rows = N calls and N
single-row blocks). The engine never uses it; every reduce runs on two
layers instead, each call vectorized over many groups:

* :func:`sorted_reduce`, the bottom layer: coalesce the input to a few
  blocks, ``sort`` them on an INTEGER routing column the rows already
  carry, then ONE vectorized call per sorted block. A sorted block holds
  whole ranges of the column, so all rows of one value meet in one
  call: the invariant Ray's own per-group map rests on (it sorts, then
  maps each block whole; ``ray/data/grouped_data.py``, Ray 2.49). Reduce
  parallelism is the sorted block count, i.e. ``coalesce``.
* :func:`partitioned_reduce` on top of it: route any key to a partition
  id ``part`` in [0, P), sort on ``part``, cut each sorted block where
  ``part`` changes and run ONE reduce per partition. P is only the
  routing granularity of hashed keys (how coarsely keys are bucketed
  per reduce call), not the number of tasks.

Rows that already carry an integer routing key skip the routing round
and go to :func:`sorted_reduce` directly: the triple dedup sorts on its
64-bit ``tkey``, :func:`cogroup` on its packed rows' partition id.

Routing rules (``P`` = ``num_partitions``):

* an INTEGER key column routes by ``key mod P`` (the mathematical
  modulus, so negative keys land in ``[0, P)`` too); a null key routes
  to partition 0;
* any other key column — in practice a string — routes by
  ``hash64(key) mod P``;
* a LIST of key columns routes by ``hash64`` of the values cast to
  strings and ``'\\x1f'``-joined, so equal key tuples share a partition;
* the key type is read from each batch inside the map function, never
  probed on the driver (``ds.schema()`` would execute the upstream
  pipeline one extra time).

``hash64`` only ROUTES: reduces decide equality on the values
themselves, so a 64-bit collision co-locates two keys but never merges
them.

The on-disk layout of partitioned outputs is ``hash64(col) & (P-1)``
with P a power of two (:func:`layout_partition`, checked by
:func:`check_layout`). It equals the string routing above, because
``hash64`` is non-negative and ``x mod P == x & (P-1)`` for such P — so a
reduce routed on the layout key sees whole layout partitions.

Physical choices read the input's size from :func:`size_of`: rows and
bytes as Ray's plan metadata knows them without executing anything (a
source, a materialized Dataset), else unknown, and the caller keeps its
size-blind choice. Its first consumer is ``stages/compute.map_cached``,
which sizes its tasks from it.

Two datasets co-partitioned on one key go through :func:`cogroup`, the
only two-sided exchange: both sides route on ``key`` by the rules
above, in one shuffle, and ``fn(left, right)`` runs once per partition
on each side's rows in that side's own columns. Here too ``hash64``
only routes: ``fn`` decides what matches on the values.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _hash64(arr) -> pa.Array:
    """Deterministic non-negative 64-bit hash of a column, vectorized.

    polars' seeded xxhash: process-independent (unlike Python's
    ``hash()``) and 17x faster than a per-row sha1 loop. Used for
    routing and partition layout, where within-run determinism is what
    matters; content-addressed NODE ids stay md5
    (``pipelines.kg.node_id_of``) so graph identity survives library
    upgrades. A polars version bump could reassign partitions between
    runs — harmless, because resume reruns stages wholesale (old part
    files are cleared, never mixed).
    """
    import polars as pl
    chunked = (arr if isinstance(arr, pa.ChunkedArray)
               else pa.chunked_array([arr]))
    h = pl.from_arrow(chunked).hash(seed=0).to_numpy()
    return pa.array((h >> np.uint64(1)).astype(np.int64), type=pa.int64())


def auto_blocks():
    """Block count ``coalesce='auto'`` resolves to: the live cluster's
    CPU count (at least 8; 8 without a Ray session)."""
    import ray
    if not ray.is_initialized():
        return 8
    return max(8, int(ray.cluster_resources().get('CPU', 8)))


def size_of(ds):
    """``(rows, bytes)`` of ``ds`` from its plan metadata alone, or
    ``None`` when either is unknown. Never executes a plan: a
    ``read_parquet``, an in-memory source or a materialized Dataset
    report both (read from the file footers and block metadata Ray
    already holds); the output of a ``filter`` or a ``map_batches``
    reports ``None``. Reads Ray 2.49's ``Dataset._meta_count`` and the
    logical plan's ``infer_metadata``, the calls ``Dataset.count`` and
    ``Dataset.size_bytes`` try before they fall back to executing."""
    rows = ds._meta_count()
    size = ds._logical_plan.dag.infer_metadata().size_bytes
    return None if rows is None or size is None else (rows, size)


def partition_ids(batch: pa.Table, key, num_partitions):
    """int32 partition id in [0, P) of every row of ``batch``, routed
    on ``key`` — a column name or a list of them (module rules)."""
    if isinstance(key, str) and pa.types.is_integer(batch.column(key).type):
        # a null key routes to partition 0, as a null string's hash
        # lands in one fixed partition
        value = pc.fill_null(pc.cast(batch.column(key), pa.int64()), 0)
    elif isinstance(key, str):
        value = _hash64(batch.column(key))
    else:
        value = _hash64(pc.binary_join_element_wise(
            *[pc.cast(batch.column(k), pa.string()) for k in key], '\x1f'))
    # no modulo kernel in pyarrow 16 — truncated divide leaves rem in
    # (-P, P); adding P to the negatives lands in [0, P)
    p = pa.scalar(num_partitions, pa.int64())
    rem = pc.subtract(value, pc.multiply(pc.divide(value, p), p))
    return pc.cast(pc.add(rem, pc.multiply(
        pc.cast(pc.less(rem, 0), pa.int64()), p)), pa.int32())


def with_partition(ds, key, num_partitions):
    """Append ``part`` = :func:`partition_ids` of ``key``."""
    def add_part(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            'part', partition_ids(batch, key, num_partitions))
    return ds.map_batches(add_part, batch_format='pyarrow')


def layout_partition(column, num_partitions):
    """On-disk layout partition id of a key column:
    ``hash64 & (P-1)`` as int32, P a power of two."""
    return pc.cast(pc.bit_wise_and(_hash64(column), num_partitions - 1),
                   pa.int32())


def check_layout(num_partitions, base_p=None, base=None):
    """Refuse a partition count the layout cannot use: P must be a
    positive power of two (:func:`layout_partition` masks with P-1),
    and a merge must use the P its base build recorded (``base_p``,
    read from ``base``'s manifest) or equal keys would land in
    different partitions on the two sides."""
    if num_partitions <= 0 or num_partitions & (num_partitions - 1):
        raise ValueError(
            f'num_partitions must be a positive power of two, '
            f'got {num_partitions}')
    if base_p is not None and base_p != num_partitions:
        raise ValueError(
            f'merge num_partitions={num_partitions} disagrees with the '
            f'base layout num_partitions={base_p} ({base}) — the '
            f'same-key co-partitioning invariant would silently break')


def sorted_reduce(ds, column, fn, coalesce='auto'):
    """The bottom layer: ``repartition(coalesce)``, ``sort(column)``,
    then ONE ``fn(block)`` call per sorted block (``map_batches`` with
    ``batch_size=None``); ``fn`` returns a table or yields several.

    ``column`` must be an INTEGER routing column the rows already carry
    (a 64-bit hash, a partition id): Ray's sort raises on a string key
    that holds a null. A sorted block holds whole ranges of
    ``column``, so every value's rows reach exactly one call, and the
    sort is stable, so they arrive in input order. The call count is
    the sorted block count: at most ``coalesce``, whose ``'auto'``
    resolves to :func:`auto_blocks`; ``None`` skips the coalesce and
    keeps the input's block count."""
    if coalesce == 'auto':
        coalesce = auto_blocks()
    if coalesce:
        ds = ds.repartition(coalesce)
    return ds.sort(column).map_batches(fn, batch_format='pyarrow',
                                       batch_size=None)


def _per_partition(fn, column):
    """Block function of :func:`sorted_reduce` sorted on ``column``, a
    partition id: cut the block where ``column`` changes and yield
    ``fn(rows)`` once per partition, with ``part`` dropped from its
    output. Yielding one table per partition, as Ray's per-group map
    does, leaves it to Ray's block builder to unify partitions whose
    outputs differ in schema (a 0-row output with null-typed or missing
    columns, say), so no such pair can fail a concat here."""
    def reduce_block(block: pa.Table):
        ids = block.column(column).to_numpy()
        cuts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
        for start, stop in zip([0, *cuts], [*cuts, len(ids)]):
            out = fn(block.slice(start, stop - start))
            if 'part' in out.column_names:
                out = out.drop_columns(['part'])
            yield out
    return reduce_block


def partitioned_reduce(ds, key, reduce_fn, num_partitions=64,
                       coalesce='auto'):
    """Route rows on ``key`` (a column name or a list of them; module
    rules) to ``part`` = :func:`partition_ids`, then ONE
    ``reduce_fn(table) -> table`` call per partition through
    :func:`sorted_reduce` on ``part``; it sees complete key groups plus
    the ``part`` column, which is dropped from its output.

    ``coalesce=N`` repartitions the input down to N blocks before the
    sort, and is the reduce parallelism: the N sorted blocks each hold
    whole partitions. The sort's overhead scales with input BLOCK
    COUNT, not bytes (measured: 48MB in 256 tiny blocks -> 18s exchange;
    same data coalesced to 32 blocks -> 3s; a 4M-row asof exchange
    9.8s -> 2.5s). Map stages that emit many small blocks (e.g. one per
    extraction task) should coalesce to ~total-cores blocks first; at
    real scale blocks approach the 128MB target and the coalesce
    becomes a cheap no-op. The default ``'auto'`` resolves to
    :func:`auto_blocks` — block count tracks the cluster, never a fixed
    constant; ``None`` skips the coalesce."""
    return sorted_reduce(with_partition(ds, key, num_partitions), 'part',
                         _per_partition(reduce_fn, 'part'), coalesce)


def _sum_groups(table: pa.Table, keys, values) -> pa.Table:
    """One partition of :func:`sum_by`: pandas group-by sum in
    first-appearance order."""
    if table.num_rows == 0:
        return table.select(keys + values)
    df = table.select(keys + values).to_pandas()
    agg = df.groupby(keys, sort=False, as_index=False)[values].sum()
    return pa.Table.from_pandas(agg, preserve_index=False)


def sum_by(ds, keys, values, num_partitions=64):
    """``GROUP BY keys`` summing ``values``; each is a column name or a
    list of them. Routed on the FIRST key column, one vectorized pandas
    sum per partition. Output columns are ``keys + values``.

    The near-unique-key regime (one group per distinct node, edge,
    token) is exactly where Ray's native sort-aggregate degenerates —
    measured 20.6s vs 2s on 1.3M groups."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    values = [values] if isinstance(values, str) else list(values)
    return partitioned_reduce(
        ds, keys[0], lambda t: _sum_groups(t, keys, values),
        num_partitions)


def _ipc(table: pa.Table) -> bytes:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as writer:
        writer.write_table(table)
    return sink.getvalue().to_pybytes()


def _packer(side, key, num_partitions):
    """Map half of :func:`cogroup`: a batch becomes one row per
    partition — its rows routed there as an Arrow IPC stream. A
    partition the batch routes no row to still gets the 0-row stream,
    so every partition learns the side's columns."""
    def pack(batch: pa.Table) -> pa.Table:
        part = partition_ids(batch, key, num_partitions)
        rows = batch.take(pc.sort_indices(part))
        counts = np.bincount(part.to_numpy(), minlength=num_partitions)
        starts = np.cumsum(counts) - counts
        return pa.table({
            'cg_part': pa.array(np.arange(num_partitions, dtype=np.int32)),
            'cg_side': pa.array(np.full(num_partitions, side, np.int8)),
            'cg_rows': pa.array([_ipc(rows.slice(s, n))
                                 for s, n in zip(starts, counts)],
                                pa.large_binary()),
        })
    return pack


def _known_schema(ds) -> pa.Schema:
    """The schema Ray knows without running ``ds``'s plan (a source, a
    materialized Dataset, one whose ``schema()`` was read), else none."""
    schema = getattr(ds.schema(fetch_if_missing=False), 'base_schema', None)
    return schema if isinstance(schema, pa.Schema) else pa.schema([])


def cogroup(left_ds, right_ds, key, fn, num_partitions=64):
    """Co-partition two datasets on ``key`` (a column name or a list of
    them, present on both sides; module rules) in ONE exchange, then
    ONE ``fn(left, right) -> table`` call per partition.

    ``left`` and ``right`` hold that partition's rows of each side in
    that side's own columns — no side tag, no ``part`` column, none of
    the other side's columns — so non-key columns may share a name
    across the sides, and values cross the exchange as Arrow (int64
    above 2**53 stays exact). A side with no rows in the partition
    arrives as a 0-row table with its columns. Only a side with no
    rows at all, whose schema Ray cannot tell without running its
    plan, arrives with no columns: ``fn`` must not index the columns
    of a 0-row side it cannot rule out being empty everywhere.

    Each side's batches are packed into one row per partition, whose
    ``cg_part`` already is the partition id, so the packed rows go
    straight to :func:`sorted_reduce` on ``cg_part`` (same coalesce as
    :func:`partitioned_reduce`; a ``part`` column in ``fn``'s output is
    dropped): the exchange moves ``P`` rows per input block, whatever
    its row count, and runs no routing round of its own."""
    schemas = (_known_schema(left_ds), _known_schema(right_ds))
    packed = left_ds.map_batches(
        _packer(0, key, num_partitions), batch_format='pyarrow',
        batch_size=None).union(right_ds.map_batches(
            _packer(1, key, num_partitions), batch_format='pyarrow',
            batch_size=None))

    def reduce_fn(group: pa.Table) -> pa.Table:
        sides = ([], [])
        for side, rows in zip(group.column('cg_side').to_pylist(),
                              group.column('cg_rows')):
            sides[side].append(pa.ipc.open_stream(rows.as_buffer())
                               .read_all())
        left, right = (
            pa.concat_tables(tables, promote_options='permissive')
            if tables else schema.empty_table()
            for tables, schema in zip(sides, schemas))
        return fn(left, right)

    return sorted_reduce(packed, 'cg_part',
                         _per_partition(reduce_fn, 'cg_part'))

"""Join strategies.

* ``broadcast_join`` — the small side is collected once, broadcast
  through the object store (``stages/compute.map_cached``), and every
  map task reads it zero-copy from the local store; the big side
  streams through ``map_batches`` with a vectorized dictionary lookup.
  No shuffle at all — the right tool whenever one side fits in a
  worker (dimension tables, gazetteers).
* ``asof_join`` — big-big temporal join Ray Data lacks natively:
  both sides are tagged and UNIONed so a SINGLE hash exchange on the
  ``by`` key co-partitions them, then each partition runs a vectorized
  ``merge_asof``. Partitioning assumption: all rows of one ``by`` key
  fit in one partition (same contract as the dedup family).
* For other big-big joins the engine composes groupby-cogroup
  manually; the KG pipeline needs none (dedup/canonicalization are
  groupbys).
"""

from __future__ import annotations

import pyarrow as pa

from yargy_ray.stages.compute import map_cached


def _nullable_int_mapper(t):
    """``Table.to_pandas`` types_mapper: integer columns -> pandas
    NULLABLE integer dtypes.

    The tagged-union exchange fills the other side's columns with
    nulls, and plain ``to_pandas`` would turn any int column containing
    nulls into float64 — silently corrupting values above 2**53 (the
    engine routinely carries 63-bit hash keys in int64 columns). The
    nullable dtypes round-trip exactly: Int64 -> arrow int64 with the
    null mask intact and no float detour.
    """
    import pandas as pd
    return {
        pa.int8(): pd.Int8Dtype(), pa.int16(): pd.Int16Dtype(),
        pa.int32(): pd.Int32Dtype(), pa.int64(): pd.Int64Dtype(),
        pa.uint8(): pd.UInt8Dtype(), pa.uint16(): pd.UInt16Dtype(),
        pa.uint32(): pd.UInt32Dtype(), pa.uint64(): pd.UInt64Dtype(),
    }.get(t)


class BroadcastLookup:
    """Per-batch Arrow hash join against the broadcast small-side table
    (the probe is pyarrow's vectorized hash join)."""

    def __init__(self, small, big_key, small_key):
        self.small = small
        self.big_key = big_key
        self.small_key = small_key

    def __call__(self, batch: pa.Table) -> pa.Table:
        return batch.join(self.small, keys=self.big_key,
                          right_keys=self.small_key, join_type='inner')


def broadcast_join(big_ds, small_ds, big_key, small_key, columns,
                   concurrency=(1, 4)):
    """Inner join: big side streams, small side broadcast once.

    The small side is collected as ONE Arrow table (block refs fetched
    in parallel, no per-row driver RPC), broadcast once, and every
    task joins each streaming batch against it with
    ``pyarrow.Table.join`` — no shuffle, no per-row Python.

    ``columns``: the small-side columns to attach to matching rows.
    Assumes small-side keys are unique (dimension-table contract).
    """
    import ray
    small = pa.concat_tables(
        ray.get(small_ds.select_columns(
            [small_key] + list(columns)).to_arrow_refs()),
        promote_options='default')
    return map_cached(big_ds, BroadcastLookup,
                      {'small': small, 'big_key': big_key,
                       'small_key': small_key}, concurrency)


def asof_join(left_ds, right_ds, by, on, direction='backward',
              suffix='_r', num_partitions=64):
    """Big-big as-of join: for each left row, attach the latest right
    row with the same ``by`` key and ``right.on <= left.on``
    ('backward'; 'forward' takes the earliest ``right.on >= left.on``).

    Ray Data has no as-of join; expressing it as a composition: both
    sides are tagged and UNIONed so ONE hash exchange on ``by``
    co-partitions them (same partition key, same shuffle — never two),
    then each partition runs pandas ``merge_asof`` — a vectorized
    sorted merge, O((l+r) log(l+r)) per partition with no per-key UDF
    calls. Right-side (by, on) pairs must be unique (pre-aggregate
    ties); ``by`` routes by the rules of stages/exchange.py.

    Scale shape: the only data movement is the single co-partitioning
    exchange; skewed ``by`` keys bound partition size the same way the
    dedup family does. At 100 TB both sides stream block-wise into the
    exchange and partitions reduce independently.
    """
    import numpy as np
    import pandas as pd

    from yargy_ray.stages.exchange import partitioned_reduce

    left_schema = left_ds.schema()
    right_schema = right_ds.schema()
    left_names = list(left_schema.names)
    right_vals = [n for n in right_schema.names if n not in (by, on)]
    val_fields = [
        pa.field(n + suffix,
                 right_schema.base_schema.field(n).type
                 if hasattr(right_schema, 'base_schema')
                 else right_schema.field(n).type)
        for n in right_vals
    ]
    lf = [pa.field(n, left_schema.base_schema.field(n).type
                   if hasattr(left_schema, 'base_schema')
                   else left_schema.field(n).type) for n in left_names]
    out_schema = pa.schema(lf + val_fields)
    union_schema = pa.schema(lf + [pa.field('__side', pa.int8())]
                             + val_fields)

    def tag_left(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = [batch.column(name) for name in left_names]
        cols.append(pa.array(np.zeros(n, dtype=np.int8), type=pa.int8()))
        cols.extend(pa.nulls(n, type=f.type) for f in val_fields)
        return pa.Table.from_arrays(cols, schema=union_schema)

    def tag_right(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = []
        for name in left_names:
            if name in (by, on):
                cols.append(batch.column(name))
            else:
                cols.append(pa.nulls(
                    n, type=union_schema.field(name).type))
        cols.append(pa.array(np.ones(n, dtype=np.int8), type=pa.int8()))
        cols.extend(batch.column(n_) for n_ in right_vals)
        return pa.Table.from_arrays(cols, schema=union_schema)

    tagged = (left_ds.map_batches(tag_left, batch_format='pyarrow')
              .union(right_ds.map_batches(tag_right,
                                          batch_format='pyarrow')))

    val_names = [f.name for f in val_fields]

    def reduce_fn(table: pa.Table) -> pa.Table:
        df = table.to_pandas(types_mapper=_nullable_int_mapper)
        left = (df[df['__side'] == 0]
                .drop(columns=['__side'] + val_names)
                .sort_values([on], kind='mergesort'))
        right = (df[df['__side'] == 1][[by, on] + val_names]
                 .sort_values([on], kind='mergesort'))
        if len(left) == 0:
            return out_schema.empty_table()
        # merge_asof requires numpy dtypes for on/by; both are null-free
        # after the side split, so the cast back is exact
        for frame in (left, right):
            for col in (on, by):
                if isinstance(frame[col].dtype, pd.api.extensions
                              .ExtensionDtype):
                    frame[col] = frame[col].astype(
                        frame[col].dtype.numpy_dtype)
        merged = pd.merge_asof(left, right, on=on, by=by,
                               direction=direction)
        # drop the embedded pandas-dtype metadata: downstream
        # to_pandas would otherwise resurrect the nullable Int64
        # working dtypes instead of plain int64
        return pa.Table.from_pandas(
            merged[left_names + val_names], schema=out_schema,
            preserve_index=False).replace_schema_metadata(None)

    return partitioned_reduce(tagged, by, reduce_fn, num_partitions)


def interval_join(left_ds, right_ds, by, on, start, stop, suffix='_r',
                  num_partitions=64):
    """Range join: each left row inner-joined to the right interval
    [start, stop] (inclusive) containing it, per ``by`` key.

    Contract: right intervals are NON-OVERLAPPING per key (sessions,
    validity windows) — then containment is exactly "as-of the latest
    interval start, verified against its stop", so the operator reuses
    ``asof_join``'s single co-partitioning exchange plus one vectorized
    containment filter. Overlapping intervals need a different plan
    (emit-all); not needed by any shipped pipeline.
    """
    import pyarrow.compute as pc

    def start_as_on(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            [on if c == start else c for c in batch.column_names])

    joined = asof_join(
        left_ds,
        right_ds.map_batches(start_as_on, batch_format='pyarrow'),
        by=by, on=on, suffix=suffix, num_partitions=num_partitions)
    stop_col = stop + suffix

    def keep_contained(batch: pa.Table) -> pa.Table:
        mask = pc.and_kleene(
            pc.is_valid(batch.column(stop_col)),
            pc.greater_equal(batch.column(stop_col), batch.column(on)))
        return batch.filter(pc.fill_null(mask, False))

    return joined.map_batches(keep_contained, batch_format='pyarrow')


def hash_join(left_ds, right_ds, on, suffix='_r', num_partitions=64,
              how='inner'):
    """Big-big equi-join: both sides co-partitioned by the join key in
    ONE tagged-union exchange, then a vectorized pandas merge per
    partition. Complements ``broadcast_join`` (small side) and the
    temporal joins; ``on`` routes by the rules of stages/exchange.py.
    Right columns colliding with left names get ``suffix``.

    ``how``: ``'inner'`` | ``'left'`` (left outer — unmatched left rows
    survive with null right columns) | ``'semi'`` (left rows with at
    least one match, left columns only, no duplication) | ``'anti'``
    (left rows with NO match, left columns only). semi/anti move the
    left side plus only the right side's key column worth of data
    through the same single exchange — the key-existence checks are
    vectorized ``Index.isin`` per partition.

    Scale shape: the single exchange is the only data movement; skew on
    the join key bounds partition size exactly like the dedup family.
    """
    if how not in ('inner', 'left', 'semi', 'anti'):
        raise ValueError(f'unsupported how={how!r}')
    import numpy as np
    import pandas as pd

    from yargy_ray.stages.exchange import partitioned_reduce

    def field_types(schema):
        base = getattr(schema, 'base_schema', schema)
        return {n: base.field(n).type for n in schema.names}

    ltypes = field_types(left_ds.schema())
    rtypes = field_types(right_ds.schema())
    left_names = list(ltypes)
    # semi/anti output left columns only; the right side contributes
    # nothing but key existence, so its value columns never ship
    right_vals = [] if how in ('semi', 'anti') else \
        [n for n in rtypes if n != on]
    out_right = [n + suffix if n in ltypes else n for n in right_vals]
    union_schema = pa.schema(
        [pa.field(n, ltypes[n]) for n in left_names]
        + [pa.field('__side', pa.int8())]
        + [pa.field(n, rtypes[v])
           for n, v in zip(out_right, right_vals)])
    out_schema = pa.schema(
        [pa.field(n, ltypes[n]) for n in left_names]
        + [pa.field(n, rtypes[v])
           for n, v in zip(out_right, right_vals)])

    def tag_left(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = [batch.column(name) for name in left_names]
        cols.append(pa.array(np.zeros(n, dtype=np.int8)))
        cols.extend(pa.nulls(n, type=union_schema.field(nm).type)
                    for nm in out_right)
        return pa.Table.from_arrays(cols, schema=union_schema)

    def tag_right(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = []
        for name in left_names:
            if name == on:
                cols.append(batch.column(on))
            else:
                cols.append(pa.nulls(n, type=union_schema.field(
                    name).type))
        cols.append(pa.array(np.ones(n, dtype=np.int8)))
        cols.extend(batch.column(v) for v in right_vals)
        return pa.Table.from_arrays(cols, schema=union_schema)

    tagged = (left_ds.map_batches(tag_left, batch_format='pyarrow')
              .union(right_ds.map_batches(tag_right,
                                          batch_format='pyarrow')))

    def reduce_fn(table: pa.Table) -> pa.Table:
        import pandas as pd
        df = table.to_pandas(types_mapper=_nullable_int_mapper)
        left = df[df['__side'] == 0][left_names]
        right = df[df['__side'] == 1][[on] + out_right]
        if len(left) == 0:
            return out_schema.empty_table()
        if how in ('semi', 'anti'):
            mask = left[on].isin(pd.unique(right[on]))
            merged = left[mask if how == 'semi' else ~mask]
        elif len(right) == 0:
            if how == 'inner':
                return out_schema.empty_table()
            merged = left.reindex(columns=list(out_schema.names))
        else:
            merged = left.merge(right, on=on, how=how)
        # metadata stripped so the nullable Int64 working dtypes never
        # leak into downstream to_pandas conversions
        return pa.Table.from_pandas(merged[list(out_schema.names)],
                                    schema=out_schema,
                                    preserve_index=False
                                    ).replace_schema_metadata(None)

    return partitioned_reduce(tagged, on, reduce_fn, num_partitions)


def interval_join_all(left_ds, right_ds, by, on, start, stop,
                      suffix='_r', num_partitions=64):
    """Range join with OVERLAPPING right intervals: each left row is
    inner-joined to EVERY right interval [start, stop] (inclusive)
    containing it, per ``by`` key — the emit-all plan
    :func:`interval_join`'s non-overlapping contract cannot express.

    Shape: the same single tagged-union co-partitioning exchange, then
    a vectorized per-partition sweep: left points sorted; for each
    right interval, ``searchsorted`` finds its contained point range
    and ``repeat``/``concatenate`` materialize the matches — per-pair
    work is O(log L + hits), never a cross product. Output size is the
    true match count (a point inside k intervals emits k rows); skew =
    output skew, same contract as the dedup family.
    """
    import numpy as np
    import pandas as pd

    from yargy_ray.stages.exchange import partitioned_reduce

    def field_types(schema):
        base = getattr(schema, 'base_schema', schema)
        return {n: base.field(n).type for n in schema.names}

    ltypes = field_types(left_ds.schema())
    rtypes = field_types(right_ds.schema())
    left_names = list(ltypes)
    right_vals = [n for n in rtypes if n != by]
    out_right = [n + suffix if n in ltypes else n for n in right_vals]
    union_schema = pa.schema(
        [pa.field(n, ltypes[n]) for n in left_names]
        + [pa.field('__side', pa.int8())]
        + [pa.field(n, rtypes[v]) for n, v in zip(out_right, right_vals)])
    out_schema = pa.schema(
        [pa.field(n, ltypes[n]) for n in left_names]
        + [pa.field(n, rtypes[v]) for n, v in zip(out_right, right_vals)])
    start_col = start + suffix if start in ltypes else start
    stop_col = stop + suffix if stop in ltypes else stop

    def tag_left(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = [batch.column(name) for name in left_names]
        cols.append(pa.array(np.zeros(n, dtype=np.int8)))
        cols.extend(pa.nulls(n, type=union_schema.field(nm).type)
                    for nm in out_right)
        return pa.Table.from_arrays(cols, schema=union_schema)

    def tag_right(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = []
        for name in left_names:
            if name == by:
                cols.append(batch.column(by))
            else:
                cols.append(pa.nulls(n, type=union_schema.field(
                    name).type))
        cols.append(pa.array(np.ones(n, dtype=np.int8)))
        cols.extend(batch.column(v) for v in right_vals)
        return pa.Table.from_arrays(cols, schema=union_schema)

    tagged = (left_ds.map_batches(tag_left, batch_format='pyarrow')
              .union(right_ds.map_batches(tag_right,
                                          batch_format='pyarrow')))

    def reduce_fn(table: pa.Table) -> pa.Table:
        df = table.to_pandas(types_mapper=_nullable_int_mapper)
        left = df[df['__side'] == 0][left_names]
        right = df[df['__side'] == 1][[by] + out_right]
        if len(left) == 0 or len(right) == 0:
            return out_schema.empty_table()
        pieces = []
        # per-key slices with vectorized inner work (the co-mention
        # per-conversation pattern); right side pre-grouped once
        rgroups = {k: g for k, g in right.groupby(by, sort=False)}
        for key, lgrp in left.groupby(by, sort=False):
            rgrp = rgroups.get(key)
            if rgrp is None or not len(rgrp):
                continue
            lgrp = lgrp.sort_values(on, kind='mergesort')
            pts = lgrp[on].to_numpy()
            lo = np.searchsorted(pts, rgrp[start_col].to_numpy(),
                                 side='left')
            hi = np.searchsorted(pts, rgrp[stop_col].to_numpy(),
                                 side='right')
            counts = np.maximum(hi - lo, 0)
            if counts.sum() == 0:
                continue
            gram_starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
            ordinal = (np.arange(counts.sum())
                       - np.repeat(gram_starts, counts))
            lidx = np.repeat(lo, counts) + ordinal
            ridx = np.repeat(np.arange(len(rgrp)), counts)
            piece = lgrp.iloc[lidx].reset_index(drop=True)
            for name in out_right:
                piece[name] = rgrp[name].to_numpy()[ridx]
            pieces.append(piece)
        if not pieces:
            return out_schema.empty_table()
        merged = pd.concat(pieces, ignore_index=True)
        return pa.Table.from_pandas(merged[list(out_schema.names)],
                                    schema=out_schema,
                                    preserve_index=False
                                    ).replace_schema_metadata(None)

    return partitioned_reduce(tagged, by, reduce_fn, num_partitions)

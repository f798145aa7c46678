"""Join strategies.

* ``broadcast_join`` — the small side is collected once, broadcast
  through the object store (``stages/compute.map_cached``), and every
  map task reads it zero-copy from the local store; the big side
  streams through ``map_batches`` with a vectorized dictionary lookup.
  No shuffle at all — the right tool whenever one side fits in a
  worker (dimension tables, gazetteers).
* ``hash_join``, ``asof_join``, ``interval_join`` and
  ``interval_join_all`` — big-big joins: ONE ``exchange.cogroup`` on
  the join (``by``) key co-partitions both sides, then each partition
  runs a vectorized pandas merge, ``merge_asof`` or interval sweep.
  Partitioning assumption: all rows of one key fit in one partition
  (same contract as the dedup family).
"""

from __future__ import annotations

import pyarrow as pa

from yargy_ray.stages.compute import map_cached


def _nullable_int_mapper(t):
    """``Table.to_pandas`` types_mapper: integer columns -> pandas
    NULLABLE integer dtypes.

    Outer and as-of joins leave unmatched rows with null right
    columns, and plain ``to_pandas`` + merge would turn any int column
    holding nulls into float64 — silently corrupting values above
    2**53 (the engine routinely carries 63-bit hash keys in int64
    columns). The nullable dtypes round-trip exactly: Int64 -> arrow
    int64 with the null mask intact and no float detour.
    """
    import pandas as pd
    return {
        pa.int8(): pd.Int8Dtype(), pa.int16(): pd.Int16Dtype(),
        pa.int32(): pd.Int32Dtype(), pa.int64(): pd.Int64Dtype(),
        pa.uint8(): pd.UInt8Dtype(), pa.uint16(): pd.UInt16Dtype(),
        pa.uint32(): pd.UInt32Dtype(), pa.uint64(): pd.UInt64Dtype(),
    }.get(t)


def _field_types(ds):
    """Column name -> Arrow type of a Dataset's schema."""
    schema = ds.schema()
    base = getattr(schema, 'base_schema', schema)
    return {n: base.field(n).type for n in schema.names}


def _frame(table: pa.Table, names, renamed=None):
    """``names`` of one cogroup side as a pandas frame (nullable ints),
    columns renamed to ``renamed``."""
    table = table.select(names)
    if renamed is not None:
        table = table.rename_columns(renamed)
    return table.to_pandas(types_mapper=_nullable_int_mapper)


def _to_arrow(frame, schema: pa.Schema) -> pa.Table:
    """A merged frame as ``schema``; the pandas metadata is dropped so
    the nullable Int64 working dtypes never leak into downstream
    ``to_pandas`` conversions."""
    return pa.Table.from_pandas(
        frame[list(schema.names)], schema=schema,
        preserve_index=False).replace_schema_metadata(None)


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
                   concurrency=4):
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
    Right value columns get ``suffix``.

    Ray Data has no as-of join; expressing it as a composition: ONE
    ``cogroup`` on ``by`` co-partitions both sides (same partition key,
    same shuffle — never two), then each partition runs pandas
    ``merge_asof`` — a vectorized sorted merge, O((l+r) log(l+r)) per
    partition with no per-key UDF calls. Right-side (by, on) pairs must
    be unique (pre-aggregate ties); ``by`` routes by the rules of
    stages/exchange.py.

    Scale shape: the only data movement is the single co-partitioning
    exchange; skewed ``by`` keys bound partition size the same way the
    dedup family does. At 100 TB both sides stream block-wise into the
    exchange and partitions reduce independently.
    """
    import pandas as pd

    from yargy_ray.stages.exchange import cogroup

    ltypes = _field_types(left_ds)
    rtypes = _field_types(right_ds)
    right_vals = [n for n in rtypes if n not in (by, on)]
    out_schema = pa.schema(
        [pa.field(n, t) for n, t in ltypes.items()]
        + [pa.field(n + suffix, rtypes[n]) for n in right_vals])

    def merge(left: pa.Table, right: pa.Table) -> pa.Table:
        if left.num_rows == 0:
            return out_schema.empty_table()
        frames = [
            _frame(left, list(ltypes)),
            _frame(right, [by, on] + right_vals,
                   [by, on] + [n + suffix for n in right_vals])]
        for i, frame in enumerate(frames):
            frame = frame.sort_values([on], kind='mergesort')
            # merge_asof requires numpy dtypes for on/by; both are
            # null-free key columns, so the cast back is exact
            for col in (on, by):
                if isinstance(frame[col].dtype,
                              pd.api.extensions.ExtensionDtype):
                    frame[col] = frame[col].astype(
                        frame[col].dtype.numpy_dtype)
            frames[i] = frame
        return _to_arrow(pd.merge_asof(*frames, on=on, by=by,
                                       direction=direction), out_schema)

    return cogroup(left_ds, right_ds, by, merge, num_partitions)


def interval_join(left_ds, right_ds, by, on, start, stop, suffix='_r',
                  num_partitions=64):
    """Range join: each left row inner-joined to the right interval
    [start, stop] (inclusive) containing it, per ``by`` key.

    Contract: right intervals are NON-OVERLAPPING per key (sessions,
    validity windows) — then containment is exactly "as-of the latest
    interval start, verified against its stop", so the operator reuses
    ``asof_join``'s single co-partitioning exchange plus one vectorized
    containment filter. Overlapping intervals need the emit-all plan,
    :func:`interval_join_all`.
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
    ONE ``cogroup``, then a vectorized pandas merge per partition.
    Complements ``broadcast_join`` (small side) and the temporal joins;
    ``on`` routes by the rules of stages/exchange.py. Right columns
    colliding with left names get ``suffix``.

    ``how``: ``'inner'`` | ``'left'`` (left outer — unmatched left rows
    survive with null right columns) | ``'semi'`` (left rows with at
    least one match, left columns only, no duplication) | ``'anti'``
    (left rows with NO match, left columns only). A null key matches
    nothing, as in SQL. semi/anti move the left side plus only the
    right side's key column worth of data through the same single
    exchange — the key-existence checks are vectorized ``Series.isin``
    per partition.

    Scale shape: the single exchange is the only data movement; skew on
    the join key bounds partition size exactly like the dedup family.
    """
    if how not in ('inner', 'left', 'semi', 'anti'):
        raise ValueError(f'unsupported how={how!r}')
    import pyarrow.compute as pc

    from yargy_ray.stages.exchange import cogroup

    ltypes = _field_types(left_ds)
    rtypes = _field_types(right_ds)
    # semi/anti output left columns only; the right side contributes
    # nothing but key existence, so its value columns never ship
    right_vals = [] if how in ('semi', 'anti') else \
        [n for n in rtypes if n != on]
    out_right = [n + suffix if n in ltypes else n for n in right_vals]
    out_schema = pa.schema(
        [pa.field(n, t) for n, t in ltypes.items()]
        + [pa.field(n, rtypes[v]) for n, v in zip(out_right, right_vals)])

    def join(left: pa.Table, right: pa.Table) -> pa.Table:
        # a null key matches nothing, as in SQL: pandas would match
        # null to null, so null right keys never reach the merge, and
        # null left keys find no partner (inner/semi drop them,
        # left/anti keep them)
        if right.num_rows:
            right = right.filter(pc.is_valid(right.column(on)))
        if left.num_rows == 0 or (how in ('inner', 'semi')
                                  and right.num_rows == 0):
            return out_schema.empty_table()
        frame = _frame(left, list(ltypes))
        if how in ('semi', 'anti'):
            # a 0-row right side may come without columns (cogroup)
            keys = (_frame(right, [on])[on].unique() if right.num_rows
                    else [])
            mask = frame[on].isin(keys)
            merged = frame[mask if how == 'semi' else ~mask]
        elif right.num_rows == 0:
            merged = frame.reindex(columns=list(out_schema.names))
        else:
            merged = frame.merge(
                _frame(right, [on] + right_vals, [on] + out_right),
                on=on, how=how)
        return _to_arrow(merged, out_schema)

    if how in ('semi', 'anti'):
        right_ds = right_ds.select_columns([on])
    return cogroup(left_ds, right_ds, on, join, num_partitions)


def interval_join_all(left_ds, right_ds, by, on, start, stop,
                      suffix='_r', num_partitions=64):
    """Range join with OVERLAPPING right intervals: each left row is
    inner-joined to EVERY right interval [start, stop] (inclusive)
    containing it, per ``by`` key — the emit-all plan
    :func:`interval_join`'s non-overlapping contract cannot express.

    Shape: the same single co-partitioning ``cogroup``, then a
    vectorized per-partition sweep: left points sorted; for each right
    interval, ``searchsorted`` finds its contained point range and
    ``repeat``/``concatenate`` materialize the matches — per-pair work
    is O(log L + hits), never a cross product. Output size is the true
    match count (a point inside k intervals emits k rows); skew =
    output skew, same contract as the dedup family.
    """
    import numpy as np
    import pandas as pd

    from yargy_ray.stages.exchange import cogroup

    ltypes = _field_types(left_ds)
    rtypes = _field_types(right_ds)
    right_vals = [n for n in rtypes if n != by]
    out_right = [n + suffix if n in ltypes else n for n in right_vals]
    out_schema = pa.schema(
        [pa.field(n, t) for n, t in ltypes.items()]
        + [pa.field(n, rtypes[v]) for n, v in zip(out_right, right_vals)])
    start_col = start + suffix if start in ltypes else start
    stop_col = stop + suffix if stop in ltypes else stop

    def sweep(left: pa.Table, right: pa.Table) -> pa.Table:
        if left.num_rows == 0 or right.num_rows == 0:
            return out_schema.empty_table()
        left = _frame(left, list(ltypes))
        right = _frame(right, [by] + right_vals, [by] + out_right)
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
        return _to_arrow(pd.concat(pieces, ignore_index=True), out_schema)

    return cogroup(left_ds, right_ds, by, sweep, num_partitions)

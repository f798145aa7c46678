"""Windowed / sessionized aggregation over the events stream table.

Ray Data has no native session windows; both operators here are the
canonical composition: hash-partition by key (groupby) + in-group sort
by time — each group is one user's events, bounded and local. At
10^12-event scale the groupby is the one shuffle; tumbling windows
pre-aggregate map-side (per-batch partial counts) before the exchange.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _sessionize_partition(part: pa.Table, gap_us: int) -> pa.Table:
    """Vectorized sessionization over one hash partition of users.

    The partition holds COMPLETE per-user groups (partitioned_reduce
    guarantee), so a single lexsort by (user, ts, event_id) followed by
    numpy diff/cumsum computes every user's session boundaries at once —
    no per-user UDF calls, no per-row Python.
    """
    n = part.num_rows
    if n == 0:
        return pa.table({
            'user_id': pa.array([], type=pa.int64()),
            'session_id': pa.array([], type=pa.int64()),
            'n_events': pa.array([], type=pa.int64()),
            'start_ts': pa.array([], type=pa.timestamp('us')),
            'end_ts': pa.array([], type=pa.timestamp('us')),
            'sum_value': pa.array([], type=pa.float64()),
        })
    user = pc.cast(part.column('user_id'), pa.int64()).to_numpy()
    ts = (part.column('ts').cast(pa.timestamp('us'))
          .to_numpy().astype('int64'))
    eid = pc.cast(part.column('event_id'), pa.int64()).to_numpy()
    val = part.column('value').to_numpy()

    order = np.lexsort((eid, ts, user))
    user = user[order]
    ts = ts[order]
    val = val[order]

    new_user = np.empty(n, dtype=bool)
    new_user[0] = True
    np.not_equal(user[1:], user[:-1], out=new_user[1:])
    is_new = new_user.copy()
    # strict ">" gap matches SQL `ts - LAG(ts) > INTERVAL gap`
    is_new[1:] |= (ts[1:] - ts[:-1]) > gap_us

    # session_id = per-user 0-based counter of session starts
    sess_global = np.cumsum(is_new) - 1
    user_base = np.maximum.accumulate(np.where(new_user, sess_global, -1))
    session_id = sess_global - user_base

    starts = np.flatnonzero(is_new)
    ends = np.append(starts[1:], n)
    return pa.table({
        'user_id': pa.array(user[starts], type=pa.int64()),
        'session_id': pa.array(session_id[starts], type=pa.int64()),
        'n_events': pa.array(ends - starts, type=pa.int64()),
        'start_ts': pa.array(ts[starts]).cast(pa.timestamp('us')),
        'end_ts': pa.array(ts[ends - 1]).cast(pa.timestamp('us')),
        'sum_value': pa.array(np.add.reduceat(val, starts),
                              type=pa.float64()),
    })


def sessionize(events_ds, gap_minutes=30, num_partitions=64):
    """Gap-based sessions per user: ONE hash-partition exchange on
    user_id, then one vectorized numpy reduce per partition (sort by
    (user, ts, id) + diff + cumsum). Never one UDF call per user."""
    from .exchange import partitioned_reduce
    gap_us = int(gap_minutes * 60 * 1e6)

    def fn(part):
        return _sessionize_partition(part, gap_us)

    return partitioned_reduce(events_ds, 'user_id', fn,
                              num_partitions=num_partitions)


def _tumbling_partial(batch: pa.Table) -> pa.Table:
    """Map-side combine: (event_type, hour) partial counts and sums."""
    hours = pc.floor_temporal(
        batch.column('ts'), unit='hour').cast(pa.timestamp('us'))
    tbl = pa.table({
        'event_type': batch.column('event_type'),
        'window_start': hours,
        'n': pa.array(np.ones(batch.num_rows, dtype=np.int64)),
        'sum_value': batch.column('value'),
    })
    # aggregate within the batch before the shuffle
    return pa.TableGroupBy(tbl, ['event_type', 'window_start']).aggregate(
        [('n', 'sum'), ('sum_value', 'sum')]
    ).rename_columns(['event_type', 'window_start', 'n', 'sum_value'])


def tumbling_window(events_ds, unit='hour'):
    """Per (event_type, hour) event count + value sum. Partial blocks
    are coalesced to the exchange's auto block count first: the native
    groupby's sort overhead scales with block COUNT (exchange.py), and
    partials are tiny, so this is one cheap narrow pass."""
    from .exchange import auto_blocks
    partial = events_ds.map_batches(
        _tumbling_partial, batch_format='pyarrow').repartition(
        auto_blocks())
    out = (
        partial.groupby(['event_type', 'window_start'])
        .sum(['n', 'sum_value'])
        .rename_columns({'sum(n)': 'n_events',
                         'sum(sum_value)': 'sum_value'})
    )

    def restore_unit(batch: pa.Table) -> pa.Table:
        # Ray's sort-aggregate downcasts timestamp keys to [s]; restore us
        i = batch.schema.get_field_index('window_start')
        return batch.set_column(
            i, 'window_start',
            batch.column('window_start').cast(pa.timestamp('us')))

    return out.map_batches(restore_unit, batch_format='pyarrow')


def hopping_window(events_ds, size_hours=3, hop_hours=1):
    """Sliding (hopping) windows: per (event_type, window_start) count
    and value sum for windows of ``size_hours`` advancing every
    ``hop_hours``. Only non-empty windows are emitted.

    Scale shape: the map side first combines events into hop-aligned
    bucket partials (the tumbling combine), THEN fans each partial into
    size/hop shifted window rows — so the k-times row amplification
    applies to the combined partials, never to raw events — and one
    groupby merges. The exchange ships O(k * distinct buckets) rows.
    """
    if size_hours % hop_hours != 0:
        raise ValueError('size_hours must be a multiple of hop_hours')
    from .exchange import auto_blocks
    k = size_hours // hop_hours

    hop_us = hop_hours * 3_600_000_000

    def partial(batch: pa.Table) -> pa.Table:
        tbl = _tumbling_partial(batch)
        i = tbl.schema.get_field_index('window_start')
        # re-align the hour partials to the hop grid (no-op for hop=1);
        # distinct hours mapping to one hop bucket merge in the groupby
        wi = pc.cast(tbl.column('window_start'), pa.int64())
        quot = pc.divide(wi, pa.scalar(hop_us, pa.int64()))
        ws = pc.cast(pc.multiply(quot, pa.scalar(hop_us, pa.int64())),
                     pa.timestamp('us'))
        shifted = []
        for j in range(k):
            delta = pa.scalar(j * hop_us, pa.duration('us'))
            shifted.append(
                tbl.set_column(i, 'window_start', pc.subtract(ws, delta)))
        return pa.concat_tables(shifted)

    out = (
        events_ds.map_batches(partial, batch_format='pyarrow')
        .repartition(auto_blocks())
        .groupby(['event_type', 'window_start'])
        .sum(['n', 'sum_value'])
        .rename_columns({'sum(n)': 'n_events',
                         'sum(sum_value)': 'sum_value'})
    )

    def restore_unit(batch: pa.Table) -> pa.Table:
        i = batch.schema.get_field_index('window_start')
        return batch.set_column(
            i, 'window_start',
            batch.column('window_start').cast(pa.timestamp('us')))

    return out.map_batches(restore_unit, batch_format='pyarrow')


def funnel_stages(events_ds, stages=('click', 'view', 'purchase'),
                  num_partitions=64):
    """Ordered-funnel depth per user: stage k (1-based) completes when
    an event of type ``stages[k-1]`` occurs STRICTLY after the user's
    earliest completion time of stage k-1 (stage 1 is the earliest
    event of its type). Returns one (user_id, funnel_stage) row per
    distinct user; users who never reach stage 1 report 0.

    Scale shape: ONE hash exchange on ``user_id`` (every user's events
    co-locate), then a vectorized per-partition chain of len(stages)
    pandas merge/groupby-min steps — no per-user UDF calls. Strict
    '>' ordering makes the result deterministic under timestamp ties.
    """
    from yargy_ray.stages.exchange import partitioned_reduce

    def reduce_fn(table: pa.Table) -> pa.Table:
        import pandas as pd
        df = table.select(['user_id', 'ts', 'event_type']).to_pandas()
        users = pd.Series(df['user_id'].unique(), name='user_id')
        depth = pd.Series(np.zeros(len(users), dtype=np.int64),
                          index=users.to_numpy())
        cur = None
        for k, stage in enumerate(stages):
            ev = df[df['event_type'] == stage]
            if k == 0:
                t = ev.groupby('user_id')['ts'].min()
            else:
                m = ev.merge(cur.rename('prev_t'), left_on='user_id',
                             right_index=True)
                m = m[m['ts'] > m['prev_t']]
                t = m.groupby('user_id')['ts'].min()
            if t.empty:
                break
            cur = t
            depth.loc[t.index] = k + 1
        return pa.table({
            'user_id': pa.array(depth.index.to_numpy(dtype=np.int64)),
            'funnel_stage': pa.array(depth.to_numpy(dtype=np.int64)),
        })

    return partitioned_reduce(
        events_ds.select_columns(['user_id', 'ts', 'event_type']),
        'user_id', reduce_fn, num_partitions)


def event_transitions(events_ds, num_partitions=64):
    """(event_type -> next event_type) transition counts per user
    timeline (SQL LEAD): the Markov-matrix shape session-model and
    funnel-drop analyses start from.

    Same single user-keyed exchange as :func:`event_gaps`; each
    partition lexsorts once, pairs adjacent same-user rows, and
    pre-aggregates to at most |types|^2 rows — the final global
    groupby sums P tiny partials, so the second exchange carries
    O(P * |types|^2) rows regardless of corpus size.
    """
    from yargy_ray.stages.exchange import partitioned_reduce

    empty = pa.table({
        'from_type': pa.array([], type=pa.string()),
        'to_type': pa.array([], type=pa.string()),
        'n': pa.array([], type=pa.int64()),
    })

    def reduce_fn(part: pa.Table) -> pa.Table:
        n = part.num_rows
        if n < 2:
            return empty
        user = pc.cast(part.column('user_id'), pa.int64()).to_numpy()
        ts = (part.column('ts').cast(pa.timestamp('us'))
              .to_numpy().astype('int64'))
        eid = pc.cast(part.column('event_id'), pa.int64()).to_numpy()
        et = part.column('event_type').to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, user))
        user, et = user[order], et[order]
        same = user[1:] == user[:-1]
        if not same.any():
            return empty
        pairs = pa.table({
            'from_type': pa.array(et[:-1][same], type=pa.string()),
            'to_type': pa.array(et[1:][same], type=pa.string()),
        })
        return pa.TableGroupBy(pairs, ['from_type', 'to_type']) \
            .aggregate([([], 'count_all')]) \
            .rename_columns(['from_type', 'to_type', 'n'])

    partials = partitioned_reduce(
        events_ds.select_columns(
            ['event_id', 'user_id', 'ts', 'event_type']),
        'user_id', reduce_fn, num_partitions)
    agg = partials.groupby(['from_type', 'to_type']).sum('n')
    return agg.map_batches(
        lambda b: b.rename_columns(['from_type', 'to_type', 'n']),
        batch_format='pyarrow')


def event_gaps(events_ds, num_partitions=64):
    """Per-event gap to the same user's PREVIOUS event (SQL LAG):
    ``gap_us`` = microseconds since the prior event in (ts, event_id)
    order, null for each user's first event.

    The lag family (lag/lead/diff) is the canonical "needs complete
    per-key groups in time order" window op: ONE hash exchange by
    user, then one numpy lexsort + diff per partition — never a
    per-user UDF call. Exchange carries (event_id, user_id, ts) only.
    """
    from yargy_ray.stages.exchange import partitioned_reduce

    def reduce_fn(part: pa.Table) -> pa.Table:
        n = part.num_rows
        if n == 0:
            return pa.table({
                'event_id': pa.array([], type=pa.int64()),
                'user_id': pa.array([], type=pa.int64()),
                'gap_us': pa.array([], type=pa.int64()),
            })
        user = pc.cast(part.column('user_id'), pa.int64()).to_numpy()
        ts = (part.column('ts').cast(pa.timestamp('us'))
              .to_numpy().astype('int64'))
        eid = pc.cast(part.column('event_id'), pa.int64()).to_numpy()
        order = np.lexsort((eid, ts, user))
        user, ts, eid = user[order], ts[order], eid[order]
        gap = np.empty(n, dtype=np.int64)
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(user[1:], user[:-1], out=first[1:])
        gap[1:] = ts[1:] - ts[:-1]
        gap[0] = 0
        return pa.table({
            'event_id': pa.array(eid),
            'user_id': pa.array(user),
            'gap_us': pa.array(
                np.ma.masked_array(gap, mask=first)),
        })

    return partitioned_reduce(
        events_ds.select_columns(['event_id', 'user_id', 'ts']),
        'user_id', reduce_fn, num_partitions)

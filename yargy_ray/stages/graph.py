"""Distributed graph operators over pair/edge tables.

``connected_components`` turns near-duplicate PAIRS (the dedup family's
output) into duplicate CLUSTERS — the step a real dedup pipeline needs
before choosing survivors. Min-label propagation: every node starts
labeled with itself; each round every node takes the min label among
itself and its neighbors; fixpoint = components labeled by their min
node id.

Scale shape: an iterative algorithm is a driver-coordinated LOOP of
exchanges (Ray Data has no native iteration). The symmetrized edge set
is PERSISTED ONCE as hash-partitioned parquet (partitioned on
``src mod P`` — the same partition function the label exchange uses),
so each round ships ONLY label rows (bounded: one per node):

* exchange 1 — labels co-partitioned on ``node``; each partition reads
  its own edge partition from storage (partition-pruned read, no
  shuffle) and emits min-label messages per neighbor, min-reduced
  map-side so message volume is bounded by distinct dst per partition,
  never raw edge count;
* exchange 2 — messages min-reduced per node into the new labels;
* exchange 3 (optional pointer jump) — label <- label(label), doubling
  propagation distance per round, so rounds = O(log diameter), not
  O(diameter) — safe for long-chain graphs, not just shallow dup
  clusters.

Convergence is detected by the monotone label-sum invariant: per-node
labels only ever decrease, so an unchanged global sum == fixpoint (no
join needed).
"""

from __future__ import annotations

import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from yargy_ray.state import storage


def _symmetrize(batch: pa.Table, a: str, b: str) -> pa.Table:
    src = pa.concat_arrays([
        pc.cast(batch.column(a), pa.int64()).combine_chunks(),
        pc.cast(batch.column(b), pa.int64()).combine_chunks(),
    ])
    dst = pa.concat_arrays([
        pc.cast(batch.column(b), pa.int64()).combine_chunks(),
        pc.cast(batch.column(a), pa.int64()).combine_chunks(),
    ])
    return pa.table({'src': src, 'dst': dst})


def _read_edge_partition(edges_dir, part):
    """Partition-pruned worker-side read through the storage seam —
    ``edges_dir`` may be any URI every node can see."""
    return storage.read_parquet_dir(
        storage.join(edges_dir, f'part={part}'), columns=['src', 'dst'])


def connected_components(pairs_ds, a='a', b='b', num_partitions=64,
                         max_rounds=50, pointer_jump=True, edges_dir=None):
    """(a, b) undirected pair table -> (node, component) — component is
    the min node id reachable from the node. Only nodes appearing in
    pairs are returned (isolated nodes are their own components by
    definition and never ship through the exchanges).

    ``edges_dir``: where the symmetrized, hash-partitioned edge table
    is persisted for the duration of the run. SHARED-VISIBILITY
    CONTRACT: ``propagate`` tasks read it from WORKERS, so on a
    multi-node cluster this must be a URI every node can see (shared
    mount, ``s3://``, ...; see ``state/storage.py``). The default — a
    driver-local temp dir, removed afterwards — is correct only in
    single-node/local mode.
    ``pointer_jump``: keep on unless the graph is known-shallow (tight
    dup clusters), where False saves one exchange per round."""
    from yargy_ray.stages.exchange import (
        cogroup,
        partitioned_reduce,
        with_partition,
    )

    own_dir = edges_dir is None
    if own_dir:
        edges_dir = tempfile.mkdtemp(prefix='yargy_ray_cc_edges_')

    try:
        edges = pairs_ds.map_batches(
            lambda t: _symmetrize(t, a, b), batch_format='pyarrow')
        # persist ONCE, partitioned by the same hash the label exchange
        # uses — per-round edge access becomes a partition-pruned read
        # instead of an all-to-all shuffle of the full edge set
        with_partition(edges, 'src', num_partitions).write_parquet(
            edges_dir, partition_cols=['part'])
        import ray.data
        if not storage.part_dirs(edges_dir):
            # empty pair table -> empty component table
            return ray.data.from_arrow(pa.table({
                'node': pa.array([], type=pa.int64()),
                'component': pa.array([], type=pa.int64())}))
        edges = ray.data.read_parquet(edges_dir, columns=['src', 'dst'])

        def init_labels(batch: pa.Table) -> pa.Table:
            node = batch.column('src')
            return pa.table({'node': node, 'label': node})

        def dedup_nodes(table: pa.Table) -> pa.Table:
            df = table.select(['node', 'label']).to_pandas()
            df = df.groupby('node', sort=False, as_index=False)[
                'label'].min()
            return pa.Table.from_pandas(df, preserve_index=False)

        labels = partitioned_reduce(
            edges.map_batches(init_labels, batch_format='pyarrow'),
            'node', dedup_nodes, num_partitions).materialize()

        def propagate(table: pa.Table) -> pa.Table:
            """One label partition + its persisted edge partition ->
            min-label messages (min-reduced map-side) + self rows."""
            if table.num_rows == 0:
                return pa.table({'node': pa.array([], type=pa.int64()),
                                 'label': pa.array([], type=pa.int64())})
            part = table.column('part')[0].as_py()
            lab = table.select(['node', 'label']).to_pandas()
            edge_tbl = _read_edge_partition(edges_dir, part)
            if edge_tbl is None:
                return pa.Table.from_pandas(lab, preserve_index=False)
            edg = edge_tbl.to_pandas()
            msgs = edg.merge(lab.rename(columns={'node': 'src'}),
                             on='src', how='inner')
            # map-side min-reduce: one message per distinct dst
            msgs = msgs.groupby('dst', sort=False, as_index=False)[
                'label'].min().rename(columns={'dst': 'node'})
            node = np.concatenate([lab['node'].to_numpy(dtype=np.int64),
                                   msgs['node'].to_numpy(dtype=np.int64)])
            label = np.concatenate([lab['label'].to_numpy(dtype=np.int64),
                                    msgs['label'].to_numpy(dtype=np.int64)])
            return pa.table({
                'node': pa.array(node, type=pa.int64()),
                'label': pa.array(label, type=pa.int64()),
            })

        def requests(batch: pa.Table) -> pa.Table:
            # shortcut request: keyed by the node's CURRENT label
            return pa.table({'key': batch.column('label'),
                             'node': batch.column('node')})

        def own_labels(batch: pa.Table) -> pa.Table:
            return pa.table({'key': batch.column('node'),
                             'label': batch.column('label')})

        def shortcut(req: pa.Table, lut: pa.Table) -> pa.Table:
            """Pointer jump: label(node) <- label(label(node)). Labels
            only ever decrease (label(label) <= label), so the sum
            invariant is preserved; co-partitioning on ``key`` lines
            each request up with its label's own label row."""
            return req.join(lut, 'key', join_type='inner').select(
                ['node', 'label'])

        prev_sum = None
        for _ in range(max_rounds):
            # 1) neighbor propagation: ONE label exchange; edges come
            # from the persisted partition, not a shuffle
            msgs = partitioned_reduce(labels, 'node', propagate,
                                      num_partitions)
            labels = partitioned_reduce(msgs, 'node', dedup_nodes,
                                        num_partitions).materialize()
            # 2) pointer jump (label-of-label) — doubles propagation
            # distance per round
            if pointer_jump:
                labels = cogroup(
                    labels.map_batches(requests, batch_format='pyarrow'),
                    labels.map_batches(own_labels, batch_format='pyarrow'),
                    'key', shortcut, num_partitions).materialize()
            cur_sum = labels.sum('label')
            if cur_sum == prev_sum:
                break
            prev_sum = cur_sum

        def rename(batch: pa.Table) -> pa.Table:
            return batch.rename_columns(['node', 'component'])

        return labels.map_batches(
            rename, batch_format='pyarrow').materialize()
    finally:
        if own_dir:
            try:
                storage.rmtree(edges_dir)
            except OSError:
                pass


def _rank(col, nodes_idx, ranks):
    """Degree rank of each node of ``col``: ``nodes_idx`` is the sorted
    node table, ``ranks`` the rank at each of its positions. A node
    missing from the table raises ``ValueError`` — a bare searchsorted
    would hand it a neighbour's rank, or index past the end."""
    s = col.to_numpy(zero_copy_only=False).astype(str)
    pos = np.searchsorted(nodes_idx, s)
    known = pos < len(nodes_idx)
    known[known] = nodes_idx[pos[known]] == s[known]
    if not known.all():
        raise ValueError(
            f'node {s[~known][0]!r} is not in the degree table')
    return ranks[pos]


MAX_WEDGE_DEGREE = 4096  # bounded-work cap for triangle counting: a
# node with k higher neighbors emits C(k, 2) wedges from its partition

_CAPPED_WEDGE_SENTINEL = '\x00__capped_wedges__'
CAPPED_WEDGE_STAT_ID = '__capped_wedges__'


def triangle_counts(edges_ds, a='src', b='dst', num_partitions=64,
                    max_wedge_degree=MAX_WEDGE_DEGREE,
                    include_capped_stat=False):
    """Per-node triangle counts of an undirected simple graph given as
    one row per undirected edge (any orientation — edges are
    canonicalized to ``lo < hi`` in NODE-ID order internally; the
    co-mention table orders pairs by entity string, which md5 ids do
    not preserve).

    Scale shape — three exchanges, all pre-shrunk:

    1. edges co-partition on ``hash(a)`` (each node's lower-endpoint
       edges co-locate): per node, every pair ``x < y`` of its HIGHER
       neighbors becomes a wedge ``(x, y, witness)`` — orientation by
       node id means each triangle ``{w < x < y}`` is generated exactly
       once, from its lowest corner;
    2. edges and wedges ``cogroup`` on ``hash(x)``: a wedge closes iff
       ``(x, y)`` is an edge (vectorized pandas inner merge on the
       STRINGS — hashes only route); closed triangles emit one partial
       count row per corner, pre-combined map-side;
    3. count rows co-partition on ``hash(node)`` for the global sum.

    NOTE: ``edges_ds`` is consumed THREE times (the degree-rank pass,
    wedge generation and the close join's edge side) — materialize it
    upstream when it is the output of an expensive pipeline.

    Orientation is DEGREE-ORDERED (each edge points from its
    lower-(degree, id) endpoint to the higher; wedges generate at the
    minimum-rank corner): the classic O(m^1.5) bound — per-node
    out-degree is O(sqrt(m)) regardless of raw degree, so dense/hub
    graphs no longer materialize C(degree, 2) wedges in one partition
    (the sf1 stress OOMed exactly there under id-ordering: every node
    of a dense co-mention graph hit the 4096 cap -> 8.4M wedges
    EACH). Output is orientation-invariant — each triangle is still
    counted exactly once per corner. Ranks come from one cheap degree
    exchange and broadcast as two parallel arrays; at node counts
    beyond driver memory, swap the broadcast for a rank hash_join onto
    both endpoints (same semantics — documented small-side contract,
    like broadcast_join).

    ``max_wedge_degree`` bounds the C(k, 2) wedge blowup per node
    (deterministic first-k by rank order) as a residual safety net.
    Counts involving a capped node are LOWER bounds; capped nodes are
    counted and surfaced as a ``(node_id='__capped_wedges__',
    triangles=N)`` row when ``include_capped_stat=True``.
    """
    import pandas as pd
    import ray

    from yargy_ray.stages.exchange import cogroup, partitioned_reduce, sum_by

    # ---- degree ranks: one exchange over edge endpoints -------------
    def endpoint_counts(batch: pa.Table) -> pa.Table:
        x, y = batch.column(a), batch.column(b)
        nodes = pa.concat_arrays([pc.cast(x, pa.string()).combine_chunks(),
                                  pc.cast(y, pa.string()).combine_chunks()])
        return pa.TableGroupBy(pa.table({'node': nodes}), 'node') \
            .aggregate([([], 'count_all')]) \
            .rename_columns(['node', 'n'])

    deg_parts = sum_by(
        edges_ds.map_batches(endpoint_counts, batch_format='pyarrow'),
        'node', 'n', num_partitions)
    deg_batches = [pa.table({'node': b['node'], 'n': b['n']})
                   for b in deg_parts.iter_batches(batch_format='pyarrow')]
    if deg_batches:
        deg_tbl = pa.concat_tables(deg_batches,
                                   promote_options='default')
        node_arr = deg_tbl.column('node').to_numpy(zero_copy_only=False)
        n_arr = deg_tbl.column('n').to_numpy(zero_copy_only=False)
    else:
        node_arr = np.array([], dtype=object)
        n_arr = np.array([], dtype=np.int64)
    sort_nodes = np.argsort(node_arr, kind='mergesort')
    nodes_sorted = node_arr[sort_nodes]
    # rank = position in (degree, node_id) lexicographic order
    rank_of_sorted = np.empty(len(nodes_sorted), dtype=np.int64)
    order = np.lexsort((nodes_sorted, n_arr[sort_nodes]))
    rank_of_sorted[order] = np.arange(len(order))
    ranks_ref = ray.put((nodes_sorted.astype(str), rank_of_sorted))

    def orient(batch: pa.Table) -> pa.Table:
        """Canonical (degree, id)-rank orientation: a -> b uphill."""
        nodes_idx, ranks = ray.get(ranks_ref)
        x, y = batch.column(a), batch.column(b)
        lt = pa.array(_rank(x, nodes_idx, ranks)
                      < _rank(y, nodes_idx, ranks))
        return pa.table({'a': pc.if_else(lt, x, y),
                         'b': pc.if_else(lt, y, x)})

    def ranked_edges(batch: pa.Table) -> pa.Table:
        nodes_idx, ranks = ray.get(ranks_ref)
        t = orient(batch)
        return t.append_column(
            'rank_b', pa.array(_rank(t.column('b'), nodes_idx, ranks)))

    def wedges_fn(table: pa.Table) -> pa.Table:
        df = table.select(['a', 'b', 'rank_b']).to_pandas() \
            .drop_duplicates(['a', 'b'])
        df = df.sort_values(['a', 'rank_b'], kind='mergesort')
        nth = df.groupby('a', sort=False).cumcount().to_numpy()
        over = pd.unique(df['a'].to_numpy()[nth >= max_wedge_degree])
        df = df[nth < max_wedge_degree]
        arr_a = df['a'].to_numpy()
        arr_b = df['b'].to_numpy()
        cuts = np.flatnonzero(arr_a[1:] != arr_a[:-1]) + 1
        starts = np.concatenate(([0], cuts))
        stops = np.concatenate((cuts, [len(arr_a)]))
        xs, ys, ws = [], [], []
        for start, stop in zip(starts, stops):
            k = stop - start
            if k < 2:
                continue
            i, j = np.triu_indices(k, 1)
            nb = arr_b[start:stop]   # rank-ascending -> rank x < rank y
            xs.append(nb[i])
            ys.append(nb[j])
            ws.append(np.repeat(arr_a[start], len(i)))
        empty = np.array([], dtype=object)
        x = np.concatenate(xs) if xs else empty
        y = np.concatenate(ys) if ys else empty
        w = np.concatenate(ws) if ws else empty
        if len(over):
            x = np.concatenate([x, np.full(len(over),
                                           _CAPPED_WEDGE_SENTINEL,
                                           dtype=object)])
            y = np.concatenate([y, over])
            w = np.concatenate([w, np.full(len(over), '', dtype=object)])
        return pa.table({'x': pa.array(x, type=pa.string()),
                         'y': pa.array(y, type=pa.string()),
                         'w': pa.array(w, type=pa.string())})

    wedges = partitioned_reduce(
        edges_ds.map_batches(ranked_edges, batch_format='pyarrow'),
        'a', wedges_fn, num_partitions)

    def oriented(batch: pa.Table) -> pa.Table:
        o = orient(batch)
        return pa.table({'x': o.column('a'), 'y': o.column('b')})

    def close_fn(edges: pa.Table, wedges: pa.Table) -> pa.Table:
        node = np.array([], dtype=object)
        n = np.array([], dtype=np.int64)
        # wedges may be empty everywhere, then without columns (cogroup)
        if wedges.num_rows:
            wdf = wedges.select(['x', 'y', 'w']).to_pandas()
            sent = wdf[wdf['x'] == _CAPPED_WEDGE_SENTINEL]
            wdf = wdf[wdf['x'] != _CAPPED_WEDGE_SENTINEL]
            closed = wdf.merge(edges.to_pandas().drop_duplicates(),
                               on=['x', 'y'])
            corners = pd.concat([closed['w'], closed['x'], closed['y']],
                                ignore_index=True)
            agg = corners.value_counts()
            node = agg.index.to_numpy(dtype=object)
            n = agg.to_numpy(dtype=np.int64)
            if len(sent) and include_capped_stat:
                # every capped node lands in ONE wedge partition, so
                # the per-partition distinct is globally exact
                node = np.concatenate([node, [CAPPED_WEDGE_STAT_ID]])
                n = np.concatenate([n, [sent['y'].nunique()]])
        return pa.table({'node_id': pa.array(node, type=pa.string()),
                         'triangles': pa.array(n, type=pa.int64())})

    partial = cogroup(
        edges_ds.map_batches(oriented, batch_format='pyarrow'), wedges,
        'x', close_fn, num_partitions)
    return sum_by(partial, 'node_id', 'triangles', num_partitions)


MAX_MID_DEGREE = 4096  # bounded-work cap: a mid node with in-degree i
# and out-degree o emits i*o candidate pairs inside ONE partition — a
# celebrity entity on a power-law graph would OOM it. Deterministic
# trim (first-k neighbors by node-id sort order) bounds the blowup to
# k*k per mid; trimmed mids are COUNTED (same accounting shape as
# kg.MAX_CONV_ENTITIES).

_CAPPED_MID_SENTINEL = '\x00__capped_mids__'
CAPPED_MID_STAT_ID = '__capped_mids__'


def two_hop_counts(edges_ds, num_partitions=64,
                   max_mid_degree=MAX_MID_DEGREE,
                   include_capped_stat=False):
    """Per-node count of DISTINCT nodes reachable in exactly two
    directed hops (src -> mid -> dst, dst != src).

    Scale shape: two exchanges. (1) The two edge roles (``mid = dst``
    of a first hop, ``mid = src`` of a second) ``cogroup`` on
    ``hash(mid)``; each partition joins its complete
    mid-groups with one vectorized pandas merge (joining on the mid
    STRING inside the partition — the 64-bit key only routes, so hash
    collisions cannot corrupt results). (2) The (src, dst) candidate
    pairs re-partition on ``hash(src)`` for a global distinct + count.

    ``max_mid_degree`` bounds the i*o pair blowup per mid node: each
    side of a mid keeps its first ``max_mid_degree`` distinct
    neighbors in node-id sort order (deterministic — independent of
    block arrival order), so one hub costs at most k^2 pairs. Counts
    THROUGH a capped hub are lower bounds; mids trimmed on either side
    are counted, and ``include_capped_stat=True`` surfaces the count
    as a ``(node_id='__capped_mids__', two_hop=N)`` row.
    """
    import numpy as np
    import pandas as pd

    from yargy_ray.stages.exchange import cogroup, partitioned_reduce

    def first_hop(batch: pa.Table) -> pa.Table:
        return pa.table({'mid': batch.column('dst'),
                         'src': batch.column('src')})

    def second_hop(batch: pa.Table) -> pa.Table:
        return pa.table({'mid': batch.column('src'),
                         'dst': batch.column('dst')})

    def cap_side(frame, col):
        """First ``max_mid_degree`` distinct neighbors per mid, in
        neighbor sort order; returns (trimmed frame, capped mid ids)."""
        frame = frame.sort_values(['mid', col], kind='mergesort')
        nth = frame.groupby('mid', sort=False).cumcount()
        over = frame.loc[nth.to_numpy() >= max_mid_degree,
                         'mid'].unique()
        return frame[(nth < max_mid_degree).to_numpy()], over

    def join_mid(first: pa.Table, second: pa.Table) -> pa.Table:
        left, over_l = cap_side(first.to_pandas().drop_duplicates(), 'src')
        right, over_r = cap_side(second.to_pandas().drop_duplicates(),
                                 'dst')
        pairs = left.merge(right, on='mid')[['src', 'dst']]
        pairs = pairs[pairs['src'] != pairs['dst']].drop_duplicates()
        capped = np.union1d(over_l, over_r)
        if len(capped):
            # sentinel rows ride the src exchange; the count reduce
            # turns them into ONE distinct-capped-mid count row
            pairs = pd.concat([
                pairs,
                pd.DataFrame({'src': _CAPPED_MID_SENTINEL,
                              'dst': capped})], ignore_index=True)
        return pa.Table.from_pandas(pairs, preserve_index=False)

    pairs = cogroup(
        edges_ds.map_batches(first_hop, batch_format='pyarrow'),
        edges_ds.map_batches(second_hop, batch_format='pyarrow'),
        'mid', join_mid, num_partitions)

    def count_fn(table: pa.Table) -> pa.Table:
        df = table.select(['src', 'dst']).to_pandas().drop_duplicates()
        agg = df.groupby('src', sort=False, as_index=False)['dst'].count()
        return pa.Table.from_pandas(
            agg.rename(columns={'src': 'node_id', 'dst': 'two_hop'}),
            preserve_index=False)

    counted = partitioned_reduce(pairs, 'src', count_fn, num_partitions)

    def finish(batch: pa.Table) -> pa.Table:
        is_stat = pc.equal(batch.column('node_id'), _CAPPED_MID_SENTINEL)
        if not include_capped_stat:
            return batch.filter(pc.invert(is_stat))
        node = pc.if_else(is_stat, pa.scalar(CAPPED_MID_STAT_ID),
                          batch.column('node_id'))
        return batch.set_column(
            batch.schema.get_field_index('node_id'), 'node_id', node)

    return counted.map_batches(finish, batch_format='pyarrow')


def pagerank(edges_ds, damping=0.85, iters=10, num_partitions=64,
             edges_dir=None):
    """Directed PageRank over (src, dst) string-id edges, fixed
    iteration count: rank = (1-d)/N + d * (in-contributions +
    dangling_mass/N).

    Scale shape mirrors :func:`connected_components`: the out-degree-
    normalized edge table is persisted ONCE, hash-partitioned on
    ``src`` (same partition function as the rank exchange — worker
    reads are partition-pruned through the storage seam, shared-
    visibility contract applies); each round ships only (node, rank)
    rows through two exchanges. The per-round dangling mass is one
    driver-side scalar (same cost as CC's convergence sum).

    NOTE: ``edges_ds`` is consumed twice (normalization and the node
    universe) — materialize it upstream when expensive.

    DETERMINISM: contributions are sorted by (dst, src) before every
    float sum, so ranks are bit-identical across block orders, cluster
    sizes and reruns — which is what makes the fixed-point testable.
    An iterative float computation has no bit-exact SQL twin, so this
    operator ships with a unit-test oracle (numpy power iteration)
    instead of a DuckDB one.
    """
    import pandas as pd

    from yargy_ray.stages.exchange import (
        cogroup,
        partitioned_reduce,
        with_partition,
    )

    own_dir = edges_dir is None
    if own_dir:
        edges_dir = tempfile.mkdtemp(prefix='yargy_ray_pr_edges_')
    try:
        import ray.data

        # ---- persist out-degree-normalized edges, partitioned on src
        def norm_fn(table: pa.Table) -> pa.Table:
            df = table.select(['src', 'dst']).to_pandas()
            df = df.drop_duplicates().sort_values(
                ['src', 'dst'], kind='mergesort')
            outdeg = df.groupby('src', sort=False)['dst'].transform(
                'count')
            df['w'] = 1.0 / outdeg.to_numpy(dtype=np.float64)
            return pa.Table.from_pandas(df, preserve_index=False)

        normed = partitioned_reduce(
            edges_ds.select_columns(['src', 'dst']), 'src', norm_fn,
            num_partitions)
        with_partition(normed, 'src', num_partitions).write_parquet(
            edges_dir, partition_cols=['part'])

        # ---- node universe + initial ranks + out-degree flags -------
        def emit_nodes(batch: pa.Table) -> pa.Table:
            src = batch.column('src').combine_chunks()
            dst = batch.column('dst').combine_chunks()
            return pa.table({
                'node': pa.concat_arrays([src, dst]),
                'has_out': pa.concat_arrays([
                    pa.array(np.ones(len(src), dtype=np.int8)),
                    pa.array(np.zeros(len(dst), dtype=np.int8))]),
            })

        def node_fn(table: pa.Table) -> pa.Table:
            df = table.select(['node', 'has_out']).to_pandas()
            agg = df.groupby('node', sort=False,
                             as_index=False)['has_out'].max()
            return pa.Table.from_pandas(agg, preserve_index=False)

        nodes = partitioned_reduce(
            edges_ds.map_batches(emit_nodes, batch_format='pyarrow'),
            'node', node_fn, num_partitions).materialize()
        n_nodes = nodes.count()
        if n_nodes == 0:
            return ray.data.from_arrow(pa.table({
                'node': pa.array([], type=pa.string()),
                'rank': pa.array([], type=pa.float64())}))

        init = 1.0 / n_nodes

        def init_ranks(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            return pa.table({
                'node': batch.column('node'),
                'rank': pa.array(np.full(n, init)),
                'has_out': batch.column('has_out'),
            })

        ranks = nodes.map_batches(
            init_ranks, batch_format='pyarrow').materialize()

        def propagate(table: pa.Table) -> pa.Table:
            """One rank partition + its persisted edge partition ->
            damped contributions per dst (sorted sum) + self rows
            keeping every node present."""
            if table.num_rows == 0:
                return pa.table({
                    'node': pa.array([], type=pa.string()),
                    'rank': pa.array([], type=pa.float64()),
                    'has_out': pa.array([], type=pa.int8())})
            part = table.column('part')[0].as_py()
            lab = table.select(['node', 'rank', 'has_out']).to_pandas()
            self_rows = pa.table({
                'node': pa.array(lab['node'].to_numpy(dtype=object),
                                 type=pa.string()),
                'rank': pa.array(np.zeros(len(lab))),
                'has_out': pa.array(
                    lab['has_out'].to_numpy(dtype=np.int8)),
            })
            edge_tbl = storage.read_parquet_dir(
                storage.join(edges_dir, f'part={part}'),
                columns=['src', 'dst', 'w'])
            if edge_tbl is None:
                return self_rows
            edg = edge_tbl.to_pandas()
            msgs = edg.merge(
                lab[['node', 'rank']].rename(columns={'node': 'src'}),
                on='src', how='inner')
            msgs['c'] = msgs['rank'].to_numpy() * msgs['w'].to_numpy()
            msgs = msgs.sort_values(['dst', 'src'], kind='mergesort')
            agg = msgs.groupby('dst', sort=True)['c'].sum()
            msg_rows = pa.table({
                'node': pa.array(agg.index.to_numpy(dtype=object),
                                 type=pa.string()),
                'rank': pa.array(agg.to_numpy(dtype=np.float64)),
                'has_out': pa.array(
                    np.full(len(agg), -1, dtype=np.int8)),
            })
            return pa.concat_tables([self_rows, msg_rows])

        for _ in range(iters):
            dangling = ranks.filter(expr='has_out == 0').sum('rank') \
                or 0.0
            base = (1.0 - damping) / n_nodes \
                + damping * dangling / n_nodes

            def combine(table: pa.Table, base=base) -> pa.Table:
                df = table.select(['node', 'rank',
                                   'has_out']).to_pandas()
                # sort includes the VALUE so cross-partition message
                # arrival order cannot change the float sum order
                df = df.sort_values(['node', 'has_out', 'rank'],
                                    kind='mergesort')
                g = df.groupby('node', sort=True)
                s = g['rank'].sum()
                flags = g['has_out'].max()
                return pa.table({
                    'node': pa.array(s.index.to_numpy(dtype=object),
                                     type=pa.string()),
                    'rank': pa.array(base + damping
                                     * s.to_numpy(dtype=np.float64)),
                    'has_out': pa.array(
                        flags.to_numpy(dtype=np.int8)),
                })

            msgs = partitioned_reduce(ranks, 'node', propagate,
                                      num_partitions)
            ranks = partitioned_reduce(msgs, 'node', combine,
                                       num_partitions).materialize()

        return ranks.map_batches(
            lambda t: t.select(['node', 'rank']),
            batch_format='pyarrow')
    finally:
        if own_dir:
            try:
                storage.rmtree(edges_dir)
            except OSError:
                pass


def node_degrees(edges_ds, a='src', b='dst', num_partitions=64):
    """Undirected degree per node: each edge row contributes 1 to both
    endpoints (self-loops count twice, matching the SQL union oracle).

    Map-side combine (per-batch value_counts over the concatenated
    endpoint arrays), ONE hash exchange keyed by the node string —
    exchange rows = distinct nodes per batch.
    """
    from yargy_ray.stages.exchange import sum_by

    def partial(batch: pa.Table) -> pa.Table:
        ca = pc.cast(batch.column(a), pa.string())
        cb = pc.cast(batch.column(b), pa.string())
        nodes = pa.chunked_array(list(ca.chunks) + list(cb.chunks))
        counts = nodes.value_counts()
        return pa.table({
            'node': counts.field('values'),
            'degree': counts.field('counts').cast(pa.int64()),
        })

    return sum_by(edges_ds.map_batches(partial, batch_format='pyarrow'),
                  'node', 'degree', num_partitions)


def degree_correlation(edges_ds, a='src', b='dst', num_partitions=64):
    """Degree-assortativity moments: ONE row of integer sums over all
    edges — (n_edges, sum_du, sum_dv, sum_du_dv, sum_du2, sum_dv2),
    where du/dv are the endpoints' undirected degrees. The Pearson
    correlation (Newman's assortativity over directed edge ends)
    derives from these in one driver-side division; keeping the
    OUTPUT integral makes the sums bit-exact SQL-checkable, with the
    float step outside the compare.

    Shape: degree table (node-cardinality — the broadcast small side,
    same contract as the pair-overlap entity counts; swap for the
    co-partitioned hash_join when node count outgrows worker memory)
    broadcast onto the streaming edge table twice, then map-side
    partial sums -> one tiny single-partition reduce.
    """
    from yargy_ray.stages.exchange import partitioned_reduce
    from yargy_ray.stages.joins import broadcast_join

    # edges feed THREE consumers (degree build + two joins) and degrees
    # feed two: materialize both or the upstream lineage (possibly a
    # full extraction pass) re-executes per consumer — the same
    # twice-consumed-input fix as triangle_counts
    edges_ds = edges_ds.select_columns([a, b]).materialize()
    degrees = node_degrees(edges_ds, a=a, b=b,
                           num_partitions=num_partitions).materialize()
    with_du = broadcast_join(
        edges_ds, degrees, a, 'node', ['degree'])

    def rn(batch: pa.Table) -> pa.Table:
        i = batch.column_names.index('degree')
        return batch.rename_columns([
            'du' if j == i else nm
            for j, nm in enumerate(batch.column_names)])

    with_both = broadcast_join(
        with_du.map_batches(rn, batch_format='pyarrow'),
        degrees, b, 'node', ['degree'])

    def partial_sums(batch: pa.Table) -> pa.Table:
        du = batch.column('du').to_numpy(zero_copy_only=False)
        dv = batch.column('degree').to_numpy(zero_copy_only=False)
        return pa.table({
            'n_edges': pa.array([batch.num_rows], pa.int64()),
            'sum_du': pa.array([int(du.sum())], pa.int64()),
            'sum_dv': pa.array([int(dv.sum())], pa.int64()),
            'sum_du_dv': pa.array([int((du * dv).sum())], pa.int64()),
            'sum_du2': pa.array([int((du * du).sum())], pa.int64()),
            'sum_dv2': pa.array([int((dv * dv).sum())], pa.int64()),
        })

    cols = ['n_edges', 'sum_du', 'sum_dv', 'sum_du_dv', 'sum_du2',
            'sum_dv2']

    def merge(table: pa.Table) -> pa.Table:
        return pa.table({c: pa.array(
            [pc.sum(table.column(c)).as_py() or 0], pa.int64())
            for c in cols})

    # one partition: every partial meets in one merge
    return partitioned_reduce(
        with_both.map_batches(partial_sums, batch_format='pyarrow'),
        'n_edges', merge, 1)

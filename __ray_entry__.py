"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship KG pipeline on sf0.001-scale synthetic
transcripts. ``queries()`` exposes one entry per implemented operator
family (SURVEY.md §2 + the training-data ops); ``oracle_sql()`` gives
the DuckDB-equivalent SQL for every SQL-expressible one (identical
column names; float aggregates reduced to deterministic integer cents /
micro units so value hashes match bit-for-bit).

Ray is initialised by the driver BEFORE this module is imported — no
``ray.init`` / ``ray.shutdown`` anywhere down this import tree.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _read(sf_dir, table):
    import ray.data
    return ray.data.read_parquet(os.path.join(sf_dir, f'{table}.parquet'))


def _pool(reserve=1, cap=None):
    """Concurrency from the LIVE cluster: an int cap of
    ``cpus - reserve`` (at least 2, at most ``cap``) on the concurrent
    tasks of a stateful stage, leaving CPUs for the task operators
    up/downstream. Hardcoding the cap under-parallelizes whenever the
    driver gives more cores."""
    import ray
    cpus = int(ray.cluster_resources().get('CPU', 4)) if \
        ray.is_initialized() else 4
    hi = max(2, cpus - reserve)
    if cap:
        hi = min(hi, cap)
    return hi


def _rename(batch: pa.Table, mapping) -> pa.Table:
    # pyarrow 16 rename_columns accepts only a full name list
    return batch.rename_columns(
        [mapping.get(c, c) for c in batch.column_names])


def _cents(x):
    """floor(x*100 + 0.5) as int64 — deterministic money rounding,
    mirrored exactly by the SQL oracles."""
    return pc.cast(pc.floor(pc.add(pc.multiply(
        pc.cast(x, pa.float64()), 100.0), 0.5)), pa.int64())


# ---------------------------------------------------------------------------
# Synthetic transcripts cache (deterministic per scale; no external data)
# ---------------------------------------------------------------------------

_SF_CONVS = {'sf0.001': 24, 'sf0.01': 80, 'sf0.1': 320}


def _transcripts_for(sf_dir):
    name = os.path.basename(os.path.normpath(sf_dir))
    n_convs = _SF_CONVS.get(name, 24)
    # v3: corpus template version (address sentences added round 3) —
    # part of the path so stale caches can never be reused
    path = f'/tmp/yargy_ray_cache/transcripts_v3_{name}_{n_convs}'
    if not os.path.exists(os.path.join(path, '_DONE')):
        from yargy_ray.sources.transcripts import write_transcripts
        import shutil
        shutil.rmtree(path, ignore_errors=True)
        write_transcripts(path, n_convs, giant_every=23, giant_factor=20)
        open(os.path.join(path, '_DONE'), 'w').close()
    return path


# ---------------------------------------------------------------------------
# Relational operators (TPC-H tables; SQL-oracled)
# ---------------------------------------------------------------------------

def q_lineitem_agg(sf_dir):
    from ray.data.aggregate import Count, Sum
    ds = _read(sf_dir, 'lineitem').select_columns(
        ['l_returnflag', 'l_linestatus', 'l_quantity', 'l_extendedprice'])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            'l_returnflag': batch.column('l_returnflag'),
            'l_linestatus': batch.column('l_linestatus'),
            'qty_c': _cents(batch.column('l_quantity')),
            'price_c': _cents(batch.column('l_extendedprice')),
        })

    agg = (
        ds.map_batches(prep, batch_format='pyarrow')
        .groupby(['l_returnflag', 'l_linestatus'])
        .aggregate(Sum('qty_c'), Sum('price_c'), Count())
    )

    def rename(batch: pa.Table) -> pa.Table:
        return _rename(batch, {
            'sum(qty_c)': 'sum_qty_cents',
            'sum(price_c)': 'sum_price_cents',
            'count()': 'n_rows',
        })

    return agg.map_batches(rename, batch_format='pyarrow')


def q_filter_project(sf_dir):
    ds = _read(sf_dir, 'lineitem').select_columns(
        ['l_orderkey', 'l_linenumber', 'l_quantity', 'l_extendedprice',
         'l_discount'])
    ds = ds.filter(expr='l_quantity > 45')

    def project(batch: pa.Table) -> pa.Table:
        revenue = pc.multiply(
            pc.cast(batch.column('l_extendedprice'), pa.float64()),
            pc.subtract(1.0, pc.cast(batch.column('l_discount'),
                                     pa.float64())))
        return pa.table({
            'l_orderkey': batch.column('l_orderkey'),
            'l_linenumber': batch.column('l_linenumber'),
            'revenue_cents': _cents(revenue),
        })

    return ds.map_batches(project, batch_format='pyarrow')


def q_topk_orders(sf_dir):
    ds = _read(sf_dir, 'orders').select_columns(
        ['o_orderkey', 'o_totalprice'])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            'o_orderkey': batch.column('o_orderkey'),
            'total_cents': _cents(batch.column('o_totalprice')),
        })

    return (
        ds.map_batches(prep, batch_format='pyarrow')
        .sort(['total_cents', 'o_orderkey'], descending=[True, False])
        .limit(10)
    )


def q_distinct_segments(sf_dir):
    values = _read(sf_dir, 'customer').unique('c_mktsegment')
    return pa.table({'c_mktsegment': pa.array(sorted(values))})


def q_revenue_by_nation(sf_dir):
    from yargy_ray.stages.joins import broadcast_join
    orders = _read(sf_dir, 'orders').select_columns(
        ['o_custkey', 'o_totalprice'])
    customer = _read(sf_dir, 'customer').select_columns(
        ['c_custkey', 'c_nationkey'])
    nation = _read(sf_dir, 'nation').select_columns(
        ['n_nationkey', 'n_name'])

    j1 = broadcast_join(orders, customer, 'o_custkey', 'c_custkey',
                        ['c_nationkey'])
    j2 = broadcast_join(j1, nation, 'c_nationkey', 'n_nationkey',
                        ['n_name'])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            'n_name': batch.column('n_name'),
            'total_cents': _cents(batch.column('o_totalprice')),
        })

    agg = (
        j2.map_batches(prep, batch_format='pyarrow')
        .groupby('n_name').sum('total_cents')
    )

    def rename(batch: pa.Table) -> pa.Table:
        return _rename(batch, {'sum(total_cents)': 'revenue_cents'})

    return agg.map_batches(rename, batch_format='pyarrow')


# ---------------------------------------------------------------------------
# Documents: text analysis + dedup (SQL-oracled where expressible)
# ---------------------------------------------------------------------------

def q_doc_token_count(sf_dir):
    from yargy_ray.stages.text import token_counts
    return token_counts(_read(sf_dir, 'documents'))


def q_doc_lang_id(sf_dir):
    from yargy_ray.stages.text import lang_id
    return lang_id(_read(sf_dir, 'documents'))


def q_doc_quality(sf_dir):
    from yargy_ray.stages.text import quality

    def to_int_units(batch: pa.Table) -> pa.Table:
        safe_t = pc.max_element_wise(batch.column('n_tokens'),
                                     pa.scalar(1, pa.int64()))
        safe_c = pc.max_element_wise(batch.column('n_chars'),
                                     pa.scalar(1, pa.int64()))
        avg_e6 = pc.cast(pc.floor(pc.divide(
            pc.multiply(pc.cast(batch.column('n_chars'), pa.float64()), 1e6),
            pc.cast(safe_t, pa.float64()))), pa.int64())
        # punct_ratio column was computed with the same guards
        punct_e6 = pc.cast(pc.floor(pc.multiply(
            batch.column('punct_ratio'), 1e6)), pa.int64())
        return pa.table({
            'doc_id': batch.column('doc_id'),
            'n_chars': batch.column('n_chars'),
            'n_tokens': batch.column('n_tokens'),
            'avg_token_len_e6': avg_e6,
            'punct_ratio_e6': punct_e6,
            'passes': batch.column('passes'),
        })

    return quality(_read(sf_dir, 'documents')).map_batches(
        to_int_units, batch_format='pyarrow')


def q_doc_bpe_tokens(sf_dir):
    """BPE-ish pretokenizer counts (stages/text.py:BPE_PRETOKEN_RE —
    RE2-only pattern shared verbatim with the DuckDB oracle)."""
    from yargy_ray.stages.text import bpe_token_counts
    return bpe_token_counts(_read(sf_dir, 'documents'))


def q_doc_fingerprint(sf_dir):
    from yargy_ray.stages.text import fingerprints
    return fingerprints(_read(sf_dir, 'documents'))


def q_doc_dup_groups(sf_dir):
    from yargy_ray.stages.dedup import exact_dedup_groups
    return exact_dedup_groups(_read(sf_dir, 'documents'))


def q_extract_ints(sf_dir):
    from yargy_ray.stages.compute import map_cached
    from yargy_ray.stages.extract import IntTokenExtractor
    return map_cached(
        _read(sf_dir, 'events').select_columns(['event_id', 'props']),
        IntTokenExtractor,
        {'id_column': 'event_id', 'text_column': 'props'}, _pool())


# ---------------------------------------------------------------------------
# Events: windowed aggregation (SQL-oracled)
# ---------------------------------------------------------------------------

def q_sessionize(sf_dir):
    from yargy_ray.stages.windows import sessionize

    def prep(batch: pa.Table) -> pa.Table:
        # pre-round value to cents so distributed sum == SQL sum exactly;
        # project to the 4 needed columns so the exchange ships no text
        return pa.table({
            'user_id': batch.column('user_id'),
            'event_id': batch.column('event_id'),
            'ts': batch.column('ts'),
            'value': pc.cast(_cents(batch.column('value')), pa.float64()),
        })

    ds = _read(sf_dir, 'events').map_batches(prep, batch_format='pyarrow')
    out = sessionize(ds, gap_minutes=30)

    def to_int(batch: pa.Table) -> pa.Table:
        return pa.table({
            'user_id': batch.column('user_id'),
            'session_id': batch.column('session_id'),
            'n_events': batch.column('n_events'),
            'start_ts': batch.column('start_ts'),
            'end_ts': batch.column('end_ts'),
            'sum_value_cents': pc.cast(batch.column('sum_value'),
                                       pa.int64()),
        })

    return out.map_batches(to_int, batch_format='pyarrow')


def q_tumbling_window(sf_dir):
    from yargy_ray.stages.windows import tumbling_window

    def prep(batch: pa.Table) -> pa.Table:
        cents = pc.cast(_cents(batch.column('value')), pa.float64())
        return batch.set_column(
            batch.schema.get_field_index('value'), 'value', cents)

    ds = _read(sf_dir, 'events').map_batches(prep, batch_format='pyarrow')
    out = tumbling_window(ds)

    def to_int(batch: pa.Table) -> pa.Table:
        return pa.table({
            'event_type': batch.column('event_type'),
            'window_start': batch.column('window_start'),
            'n_events': batch.column('n_events'),
            'sum_value_cents': pc.cast(batch.column('sum_value'),
                                       pa.int64()),
        })

    return out.map_batches(to_int, batch_format='pyarrow')


# ---------------------------------------------------------------------------
# Embeddings: similarity search
# ---------------------------------------------------------------------------

def _query_vectors(sf_dir, n=3):
    import pyarrow.parquet as pq
    table = pq.read_table(os.path.join(sf_dir, 'embeddings.parquet'))
    vecs = table.column('embedding').to_pylist()[:n]
    return np.asarray(vecs, dtype=np.float64)


def q_emb_topk(sf_dir):
    from yargy_ray.stages.similarity import brute_force_topk
    queries = _query_vectors(sf_dir, 1)
    out = brute_force_topk(_read(sf_dir, 'embeddings'), queries, k=10)
    return out.select(['query_id', 'rank', 'vec_id'])


def q_emb_topk_ivf(sf_dir):
    """ANN over the persisted IVF index: first call builds the
    list-partitioned parquet index (manifest-checkpointed under /tmp),
    subsequent calls read ONLY the probed list partitions."""
    from yargy_ray.stages.similarity import ivf_topk
    queries = _query_vectors(sf_dir, 3)
    out = ivf_topk(_read(sf_dir, 'embeddings'), queries, k=10,
                   num_lists=8, nprobe=4, input_key=sf_dir)
    return out.select(['query_id', 'rank', 'vec_id'])


N_PLANTED = 8  # deterministic near-dup ground truth (copies of vec 0..7)


def _planted_embeddings(sf_dir):
    from yargy_ray.stages.dedup import plant_duplicate_vectors
    emb = _read(sf_dir, 'embeddings').select_columns(['vec_id', 'embedding'])
    return plant_duplicate_vectors(emb, n_planted=N_PLANTED)


def q_emb_topk_ivf_full(sf_dir):
    """IVF with nprobe == num_lists: probes every partition, so the
    result must EXACTLY equal brute force — a hash-level oracle on the
    whole index machinery (build, list partitioning, per-partition
    top-k, merge). The nprobe<lists pruning path keeps its recall test
    and the rows-only emb_topk_ivf query."""
    from yargy_ray.stages.similarity import ivf_topk
    queries = _query_vectors(sf_dir, 3)
    out = ivf_topk(_read(sf_dir, 'embeddings'), queries, k=10,
                   num_lists=8, nprobe=8, input_key=sf_dir + ':full')
    return out.select(['query_id', 'rank', 'vec_id'])


def q_emb_near_dups(sf_dir):
    """Multi-table hyperplane LSH near-dups. The synthetic embeddings are
    random (max natural cosine ~0.51), so exact copies of vec 0..7 are
    planted under ids -1..-8: the 8 (copy, original) pairs at cosine 1.0
    are the known ground truth this query must surface."""
    from yargy_ray.stages.dedup import embedding_near_dups
    return embedding_near_dups(_planted_embeddings(sf_dir), dim=64,
                               threshold=0.95, planes=12, tables=4)


def q_emb_near_dups_exact(sf_dir):
    """Exact O(N^2) cosine pairs via broadcast matmul — SQL-oracled."""
    from yargy_ray.stages.dedup import embedding_near_dups_exact
    return embedding_near_dups_exact(_planted_embeddings(sf_dir),
                                     threshold=0.95)


# ---------------------------------------------------------------------------
# Near-dup detection over documents (rows-only checks)
# ---------------------------------------------------------------------------

def q_minhash_pairs(sf_dir):
    from yargy_ray.stages.dedup import minhash_near_dups
    return minhash_near_dups(_read(sf_dir, 'documents'), threshold=0.6,
                             concurrency=_pool(cap=8))


def q_simhash_pairs(sf_dir):
    from yargy_ray.stages.dedup import simhash_near_dups
    return simhash_near_dups(_read(sf_dir, 'documents'), max_hamming=3)


def q_ngram_pairs(sf_dir):
    from yargy_ray.stages.dedup import ngram_jaccard_dups
    return ngram_jaccard_dups(_read(sf_dir, 'documents'), n=3,
                              threshold=0.5)


def q_doc_split(sf_dir):
    """Deterministic md5 train/val/test split over documents
    (stages/sampling.py:hash_split) — stable under repartitioning and
    cluster-size changes; SQL-checkable via md5_number_lower."""
    from yargy_ray.stages.sampling import hash_split
    docs = _read(sf_dir, 'documents').select_columns(['doc_id'])
    return hash_split(docs, 'doc_id')


def q_vocab_counts(sf_dir):
    """Corpus vocabulary with global counts (map-side combine +
    one token groupby; stages/text.py:vocab_counts)."""
    from yargy_ray.stages.text import vocab_counts
    return vocab_counts(_read(sf_dir, 'documents').select_columns(
        ['text']), min_count=2)


def q_topk_orders_per_cust(sf_dir):
    """Top-3 orders by price per customer — partitioned-reduce top-k,
    never one UDF call per group (stages/sampling.py)."""
    from yargy_ray.stages.sampling import topk_per_group
    ds = _read(sf_dir, 'orders').select_columns(
        ['o_custkey', 'o_orderkey', 'o_totalprice'])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            'o_custkey': batch.column('o_custkey'),
            'o_orderkey': batch.column('o_orderkey'),
            'total_cents': _cents(batch.column('o_totalprice')),
        })

    return topk_per_group(
        ds.map_batches(prep, batch_format='pyarrow'),
        'o_custkey', 'total_cents', k=3, tiebreak='o_orderkey')


def q_user_value_quantiles(sf_dir):
    """Per-user exact value quantiles (p50/p90) over the events stream
    (stages/sampling.py:group_quantiles — vectorized across groups,
    DuckDB-exact interpolation arithmetic)."""
    from yargy_ray.stages.sampling import group_quantiles
    events = _read(sf_dir, 'events').select_columns(['user_id', 'value'])
    return group_quantiles(events, 'user_id', 'value', qs=(0.5, 0.9))


def q_stratified_sample(sf_dir):
    """Deterministic 5-per-customer-nation order sample
    (stages/sampling.py:stratified_sample — md5-rank draw, stable
    across cluster sizes)."""
    from yargy_ray.stages.sampling import stratified_sample
    from yargy_ray.stages.joins import broadcast_join
    orders = _read(sf_dir, 'orders').select_columns(
        ['o_orderkey', 'o_custkey'])
    customer = _read(sf_dir, 'customer').select_columns(
        ['c_custkey', 'c_nationkey'])
    j = broadcast_join(orders, customer, 'o_custkey', 'c_custkey',
                       ['c_nationkey'])
    return stratified_sample(j.select_columns(
        ['c_nationkey', 'o_orderkey']), 'c_nationkey', 'o_orderkey', 5)


def q_priority_revenue(sf_dir):
    """Big-big hash join (lineitem x orders co-partitioned on orderkey,
    stages/joins.py:hash_join) then revenue per order priority."""
    from yargy_ray.stages.joins import hash_join
    lineitem = _read(sf_dir, 'lineitem').select_columns(
        ['l_orderkey', 'l_extendedprice', 'l_discount'])

    def prep(batch: pa.Table) -> pa.Table:
        revenue = pc.multiply(
            pc.cast(batch.column('l_extendedprice'), pa.float64()),
            pc.subtract(1.0, pc.cast(batch.column('l_discount'),
                                     pa.float64())))
        return pa.table({
            'l_orderkey': batch.column('l_orderkey'),
            'revenue_cents': _cents(revenue),
        })

    orders = _read(sf_dir, 'orders').select_columns(
        ['o_orderkey', 'o_orderpriority']).map_batches(
        lambda b: _rename(b, {'o_orderkey': 'l_orderkey'}),
        batch_format='pyarrow')
    j = hash_join(lineitem.map_batches(prep, batch_format='pyarrow'),
                  orders, on='l_orderkey')
    agg = j.groupby('o_orderpriority').sum('revenue_cents')

    def rename(batch: pa.Table) -> pa.Table:
        return _rename(batch, {'sum(revenue_cents)': 'revenue_cents'})

    return agg.map_batches(rename, batch_format='pyarrow')


def q_hopping_window(sf_dir):
    """Sliding 3h windows hopping hourly over the events stream
    (stages/windows.py:hopping_window; fan-out happens AFTER the
    map-side combine so raw events are never amplified)."""
    from yargy_ray.stages.windows import hopping_window

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            'event_type': batch.column('event_type'),
            'ts': batch.column('ts'),
            'value': pc.cast(_cents(batch.column('value')), pa.float64()),
        })

    events = _read(sf_dir, 'events').map_batches(
        prep, batch_format='pyarrow')
    out = hopping_window(events, size_hours=3, hop_hours=1)

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            'event_type': batch.column('event_type'),
            'window_start': batch.column('window_start'),
            'n_events': batch.column('n_events'),
            'sum_value_cents': pc.cast(batch.column('sum_value'),
                                       pa.int64()),
        })

    return out.map_batches(finalize, batch_format='pyarrow')


def q_asof_purchase(sf_dir):
    """As-of join: each click event annotated with the same user's
    latest prior (or simultaneous) purchase value — one co-partitioning
    exchange + vectorized per-partition merge (stages/joins.py); the
    right side sums same-(user, ts) purchases first (sum_by: nearly
    every group is unique, where Ray's native groupby degenerates)."""
    from yargy_ray.stages.exchange import sum_by
    from yargy_ray.stages.joins import asof_join
    events = _read(sf_dir, 'events')
    clicks = (events.filter(expr="event_type == 'click'")
              .select_columns(['event_id', 'user_id', 'ts']))
    purchases = sum_by(
        events.filter(expr="event_type == 'purchase'")
        .select_columns(['user_id', 'ts', 'value'])
        .rename_columns({'value': 'purchase_value'}),
        ['user_id', 'ts'], 'purchase_value')
    return asof_join(clicks, purchases, by='user_id', on='ts', suffix='')


def q_session_assign(sf_dir):
    """Range join: every event assigned to the session interval that
    contains it (sessions are disjoint per user, so interval_join's
    asof-reduction applies; see stages/joins.py)."""
    from yargy_ray.stages.joins import interval_join
    from yargy_ray.stages.windows import sessionize

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            'user_id': batch.column('user_id'),
            'event_id': batch.column('event_id'),
            'ts': batch.column('ts'),
            'value': pc.cast(_cents(batch.column('value')), pa.float64()),
        })

    events = _read(sf_dir, 'events')
    sessions = (sessionize(events.map_batches(prep, batch_format='pyarrow'))
                .select_columns(['user_id', 'session_id',
                                 'start_ts', 'end_ts']))
    left = events.select_columns(['event_id', 'user_id', 'ts'])
    joined = interval_join(left, sessions, by='user_id', on='ts',
                           start='start_ts', stop='end_ts', suffix='')
    return joined.select_columns(['event_id', 'user_id', 'ts',
                                  'session_id'])


def q_dup_components(sf_dir):
    """Near-dup CLUSTERS: distributed min-label propagation over the
    SimHash pair table (stages/graph.py:connected_components) — the
    step that turns pairwise dedup output into survivor groups."""
    from yargy_ray.stages.dedup import simhash_near_dups
    from yargy_ray.stages.graph import connected_components
    pairs = simhash_near_dups(_read(sf_dir, 'documents'), max_hamming=3)
    return connected_components(pairs, num_partitions=16)


def q_dup_survivors(sf_dir):
    """Quality-aware survivor selection per near-dup CLUSTER: the
    longest document wins (ties: min doc_id) — the policy step after
    clustering that real dedup pipelines run. Composition: components
    x token counts through ONE int-keyed hash_join, then a component-
    keyed reduce picking the argmax + member count."""
    from yargy_ray.stages.exchange import partitioned_reduce
    from yargy_ray.stages.joins import hash_join
    from yargy_ray.stages.text import token_count_batch

    comps = q_dup_components(sf_dir).map_batches(
        lambda b: b.rename_columns(['doc_id', 'component']),
        batch_format='pyarrow')
    counts = _read(sf_dir, 'documents').map_batches(
        token_count_batch, batch_format='pyarrow')
    joined = hash_join(comps, counts, on='doc_id', num_partitions=16)

    def pick(table: pa.Table) -> pa.Table:
        import numpy as np
        df = table.select(['component', 'doc_id',
                           'n_tokens']).to_pandas()
        df = df.sort_values(['component', 'n_tokens', 'doc_id'],
                            ascending=[True, False, True],
                            kind='mergesort')
        g = df.groupby('component', sort=False)
        head = g.head(1).reset_index(drop=True)
        sizes = g.size().rename('n_members')
        out = head.merge(sizes, left_on='component', right_index=True)
        return pa.table({
            'component': pa.array(
                out['component'].to_numpy(dtype=np.int64)),
            'keep_doc_id': pa.array(
                out['doc_id'].to_numpy(dtype=np.int64)),
            'keep_tokens': pa.array(
                out['n_tokens'].to_numpy(dtype=np.int64)),
            'n_members': pa.array(
                out['n_members'].to_numpy(dtype=np.int64)),
        })

    return partitioned_reduce(joined, 'component', pick, 16)


def q_rolling_fingerprint(sf_dir):
    from yargy_ray.stages.text import rolling_fingerprints
    return rolling_fingerprints(_read(sf_dir, 'documents'))


# ---------------------------------------------------------------------------
# KG pipeline over synthetic transcripts (rows-only checks)
# ---------------------------------------------------------------------------

def q_kg_triples(sf_dir):
    """Flagship: distinct (subj, pred, obj) triples from the synthetic
    transcripts. Projected to the deterministic logical output (span /
    provenance columns of a dedup survivor are advisory and would
    defeat the value-hash compare); the SQL oracle re-derives the same
    triples from the template corpus with regexes + inline mappings."""
    import ray.data
    from yargy_ray.pipelines.kg import dedup_triples
    from yargy_ray.stages.extract import extract_mentions, project_triples
    tpath = _transcripts_for(sf_dir)
    turns = ray.data.read_parquet(
        tpath, columns=['conv_id', 'turn_idx', 'text'])
    triples = project_triples(extract_mentions(turns, concurrency=_pool()))
    deduped = dedup_triples(triples)

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(['subj', 'pred', 'obj'])

    return deduped.map_batches(project, batch_format='pyarrow')


def q_kg_nodes(sf_dir):
    import ray.data
    from yargy_ray.pipelines.kg import canonicalize_nodes
    from yargy_ray.stages.extract import extract_mentions, project_triples
    tpath = _transcripts_for(sf_dir)
    turns = ray.data.read_parquet(
        tpath, columns=['conv_id', 'turn_idx', 'text'])
    triples = project_triples(extract_mentions(turns, concurrency=_pool()))
    return canonicalize_nodes(triples)


def q_kg_address(sf_dir):
    """The north rule's address surface in isolation: extraction runs
    with ONLY the address grammar (street-type morph_pipeline +
    gram('Surn') street name + INT house; grammars/specs.py:
    address_grammar) — distinct (subj, pred, obj) address triples."""
    import ray.data
    from yargy_ray.pipelines.kg import dedup_triples
    from yargy_ray.stages.extract import extract_mentions, project_triples
    tpath = _transcripts_for(sf_dir)
    turns = ray.data.read_parquet(
        tpath, columns=['conv_id', 'turn_idx', 'text'])
    factories = ('yargy_ray.grammars.specs:address_grammar',)
    triples = project_triples(
        extract_mentions(turns, factories, concurrency=_pool()), factories)
    deduped = dedup_triples(triples)

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(['subj', 'pred', 'obj'])

    return deduped.map_batches(project, batch_format='pyarrow')


def q_kg_edges(sf_dir):
    """Edge aggregation: distinct (src, dst, pred) with occurrence
    weights; endpoint ids are content-hashes of (kind, norm) using the
    SAME kind maps as the node table (pipelines/kg.py:OBJ_KIND), so
    every dst resolves in kg_nodes — pinned here by the SQL oracle."""
    import ray.data
    from yargy_ray.pipelines.kg import aggregate_edges
    from yargy_ray.stages.extract import extract_mentions, project_triples
    tpath = _transcripts_for(sf_dir)
    turns = ray.data.read_parquet(
        tpath, columns=['conv_id', 'turn_idx', 'text'])
    triples = project_triples(extract_mentions(turns, concurrency=_pool()))
    return aggregate_edges(triples)


def q_kg_comention(sf_dir):
    """Co-mention edges: undirected entity pairs weighted by the number
    of conversations both appear in (pipelines/kg.py:co_mention_edges —
    two pre-shrunk exchanges, numpy triu pair generation per
    conversation, bounded by MAX_CONV_ENTITIES)."""
    import ray.data
    from yargy_ray.pipelines.kg import co_mention_edges
    from yargy_ray.stages.extract import extract_mentions, project_triples
    tpath = _transcripts_for(sf_dir)
    turns = ray.data.read_parquet(
        tpath, columns=['conv_id', 'turn_idx', 'text'])
    triples = project_triples(extract_mentions(turns, concurrency=_pool()))
    return co_mention_edges(triples)


def q_kg_two_hop(sf_dir):
    """Graph analytics: per-node count of distinct nodes reachable in
    exactly two directed hops over the KG edge table (e.g. turn ->
    mentioned person -> their position). stages/graph.py:two_hop_counts
    — two exchanges, vectorized in-partition merges."""
    import ray.data
    from yargy_ray.pipelines.kg import aggregate_edges
    from yargy_ray.stages.extract import extract_mentions, project_triples
    from yargy_ray.stages.graph import two_hop_counts
    tpath = _transcripts_for(sf_dir)
    turns = ray.data.read_parquet(
        tpath, columns=['conv_id', 'turn_idx', 'text'])
    triples = project_triples(extract_mentions(turns, concurrency=_pool()))
    # two_hop consumes its edge input twice (the two hop roles);
    # materializing the distinct-edge aggregate halves total compute
    # (wall-neutral on an idle single box where the branches overlap,
    # but 2x CPU on a busy cluster)
    return two_hop_counts(aggregate_edges(triples).materialize())


def q_latest_user_event(sf_dir):
    """Keep-latest-per-key (version dedup, the 'retain newest document
    revision' shape): one row per user — the most recent event, ties
    broken by min event_id for cluster-size-invariant determinism.
    topk_per_group with k=1 (stages/sampling.py)."""
    from yargy_ray.stages.sampling import topk_per_group
    events = _read(sf_dir, 'events').select_columns(
        ['user_id', 'event_id', 'ts', 'event_type'])
    return topk_per_group(events, 'user_id', 'ts', k=1,
                          descending=True, tiebreak='event_id')


def q_cust_no_urgent(sf_dir):
    """ANTI join (stages/joins.py:hash_join how='anti'): customers with
    NO 1-URGENT order — the exact complement of cust_urgent_semi; only
    the key column of the right side ships through the exchange."""
    from yargy_ray.stages.joins import hash_join
    customer = _read(sf_dir, 'customer').select_columns(
        ['c_custkey', 'c_name'])
    urgent = _read(sf_dir, 'orders').filter(
        expr="o_orderpriority == '1-URGENT'").select_columns(
        ['o_custkey']).map_batches(
        lambda b: _rename(b, {'o_custkey': 'c_custkey'}),
        batch_format='pyarrow')
    return hash_join(customer, urgent, on='c_custkey', how='anti')


def q_cust_urgent_semi(sf_dir):
    """SEMI join: customers with at least one 1-URGENT order (no row
    duplication however many urgent orders they have)."""
    from yargy_ray.stages.joins import hash_join
    customer = _read(sf_dir, 'customer').select_columns(
        ['c_custkey', 'c_name', 'c_mktsegment'])
    urgent = _read(sf_dir, 'orders').filter(
        expr="o_orderpriority == '1-URGENT'").select_columns(
        ['o_custkey']).map_batches(
        lambda b: _rename(b, {'o_custkey': 'c_custkey'}),
        batch_format='pyarrow')
    return hash_join(customer, urgent, on='c_custkey', how='semi')


def q_cust_totals_left(sf_dir):
    """LEFT OUTER join: every customer with their total order value in
    cents — customers without orders survive with NULL totals. Right
    side pre-aggregated map-side, so the exchange carries one row per
    (custkey, partial) not one per order."""
    from yargy_ray.stages.joins import hash_join

    def prep(batch: pa.Table) -> pa.Table:
        # map-side combine: one partial row per custkey per batch
        partial = pa.table({
            'c_custkey': batch.column('o_custkey'),
            'total_cents': _cents(
                pc.cast(batch.column('o_totalprice'), pa.float64())),
        })
        return pa.TableGroupBy(partial, 'c_custkey').aggregate(
            [('total_cents', 'sum')]).rename_columns(
            ['c_custkey', 'total_cents'])

    from yargy_ray.stages.exchange import sum_by

    totals = sum_by(
        _read(sf_dir, 'orders').select_columns(
            ['o_custkey', 'o_totalprice']).map_batches(
            prep, batch_format='pyarrow'),
        'c_custkey', 'total_cents', num_partitions=16)
    customer = _read(sf_dir, 'customer').select_columns(
        ['c_custkey', 'c_name'])
    return hash_join(customer, totals, on='c_custkey', how='left')


def q_kg_triangles(sf_dir):
    """Per-node triangle counts over the STRONG co-mention graph
    (weight >= 2): stages/graph.py:triangle_counts — wedge generation
    oriented from the lowest corner, three pre-shrunk exchanges,
    bounded per-node wedge work."""
    import ray.data
    from yargy_ray.pipelines.kg import co_mention_edges
    from yargy_ray.stages.extract import extract_mentions, project_triples
    from yargy_ray.stages.graph import triangle_counts
    tpath = _transcripts_for(sf_dir)
    turns = ray.data.read_parquet(
        tpath, columns=['conv_id', 'turn_idx', 'text'])
    triples = project_triples(extract_mentions(turns, concurrency=_pool()))
    # triangle_counts consumes its edge input TWICE (wedge + close
    # branches); materializing the small distinct strong-edge table
    # avoids re-running extraction + co-mention per branch (measured
    # 13.7s -> 8.7s at sf0.1/32cpu)
    strong = co_mention_edges(triples).filter(
        expr='weight >= 2').materialize()
    return triangle_counts(strong)


def q_kg_top_neighbors(sf_dir):
    """Top-3 co-mention neighbors per entity by (weight desc, dst asc):
    the symmetrized edge table through topk_per_group's single-exchange
    partitioned reduce, routed on the entity id string)."""
    import ray.data
    from yargy_ray.pipelines.kg import co_mention_edges
    from yargy_ray.stages.extract import extract_mentions, project_triples
    from yargy_ray.stages.sampling import topk_per_group
    tpath = _transcripts_for(sf_dir)
    turns = ray.data.read_parquet(
        tpath, columns=['conv_id', 'turn_idx', 'text'])
    triples = project_triples(extract_mentions(turns, concurrency=_pool()))
    edges = co_mention_edges(triples)

    def sym(t: pa.Table) -> pa.Table:
        src = pa.concat_arrays([t.column('src').combine_chunks(),
                                t.column('dst').combine_chunks()])
        dst = pa.concat_arrays([t.column('dst').combine_chunks(),
                                t.column('src').combine_chunks()])
        w = pa.concat_arrays([t.column('weight').combine_chunks()] * 2)
        return pa.table({'src': src, 'dst': dst, 'weight': w})

    return topk_per_group(edges.map_batches(sym, batch_format='pyarrow'),
                          'src', 'weight', k=3, tiebreak='dst')


def q_kg_entity_stats(sf_dir):
    """Per-entity mention statistics (mentions, distinct conversations,
    first/last conversation) — pipelines/kg.py:entity_mention_stats,
    map-side (kind, norm, conv) combine + one entity-keyed exchange."""
    import ray.data
    from yargy_ray.pipelines.kg import entity_mention_stats
    from yargy_ray.stages.extract import extract_mentions, project_triples
    tpath = _transcripts_for(sf_dir)
    turns = ray.data.read_parquet(
        tpath, columns=['conv_id', 'turn_idx', 'text'])
    triples = project_triples(extract_mentions(turns, concurrency=_pool()))
    return entity_mention_stats(triples)


def q_purchase_window_events(sf_dir):
    """Emit-all range join (OVERLAPPING intervals — the plan
    interval_join's non-overlapping contract cannot express): every
    event joined to EVERY +/-1h window around the same user's
    purchases (stages/joins.py:interval_join_all — one tagged-union
    exchange + per-partition vectorized searchsorted sweep)."""
    from yargy_ray.stages.joins import interval_join_all
    events = _read(sf_dir, 'events').select_columns(
        ['event_id', 'user_id', 'ts', 'event_type'])
    left = events.select_columns(['event_id', 'user_id', 'ts'])

    def mk_windows(batch: pa.Table) -> pa.Table:
        p = batch.filter(pc.equal(batch.column('event_type'),
                                  'purchase'))
        hour = pa.scalar(3_600_000_000, pa.duration('us'))
        ts = p.column('ts').cast(pa.timestamp('us'))
        return pa.table({'user_id': p.column('user_id'),
                         'wstart': pc.subtract(ts, hour),
                         'wstop': pc.add(ts, hour),
                         'pev': p.column('event_id')})

    right = events.map_batches(mk_windows, batch_format='pyarrow')
    return interval_join_all(left, right, by='user_id', on='ts',
                             start='wstart', stop='wstop')


def q_doc_heavy_tokens(sf_dir):
    """EXACT heavy hitters (tokens with >= 1% of all occurrences) via
    the sketch-then-verify pattern: Misra-Gries summaries bound the
    exchange (never the vocabulary), the merged candidate set is
    broadcast and re-counted exactly — output equals the naive GROUP
    BY ... HAVING answer bit for bit (stages/sketch.py:heavy_hitters)."""
    from yargy_ray.stages.sketch import heavy_hitters
    docs = _read(sf_dir, 'documents').select_columns(['doc_id', 'text'])
    return heavy_hitters(docs, min_frac=0.01)


def q_user_kmv(sf_dir):
    """Distinct-count SKETCH with a bit-exact oracle: KMV (k-minimum
    md5 values, k=64) over event user_ids — per-batch k-mins, one
    constant-key merge, ONE output row; the SQL oracle recomputes the
    identical k-min set (ORDER BY md5 LIMIT k) and the identical
    one-division estimate (stages/sketch.py)."""
    from yargy_ray.stages.sketch import kmv_distinct
    events = _read(sf_dir, 'events').select_columns(['user_id'])
    return kmv_distinct(events, 'user_id', k=64)


def q_doc_decontam(sf_dir):
    """Benchmark decontamination counts: word-3-gram totals and
    benchmark-overlap hits for every training document, where the
    benchmark set is documents with doc_id < 50 (stages/decontam.py —
    broadcast distinct benchmark grams, one vectorized is_in per
    batch, zero shuffle)."""
    from yargy_ray.stages.decontam import contamination_counts
    docs = _read(sf_dir, 'documents').select_columns(['doc_id', 'text'])
    bench = docs.filter(expr='doc_id < 50')
    train = docs.filter(expr='doc_id >= 50')
    return contamination_counts(train, bench, n=3,
                                concurrency=_pool())


def q_doc_pack(sf_dir):
    """Training-sample packing bookkeeping: exact global token offset
    per document (ordered prefix sum in doc_id order) and the pack it
    starts in (stages/packing.py:pack_assignments — range partition +
    one driver-side P-number scan + per-partition vectorized cumsum)."""
    from yargy_ray.stages.packing import pack_assignments
    docs = _read(sf_dir, 'documents').select_columns(['doc_id', 'text'])
    return pack_assignments(docs, seq_len=2048)


def q_kg_pagerank(sf_dir):
    """PageRank over the symmetrized strong co-mention graph
    (stages/graph.py:pagerank — persisted normalized edge partitions,
    two exchanges per round, bit-deterministic sorted float sums).
    NO SQL oracle by design: an iterative float fixed point has no
    bit-exact SQL twin; the operator's oracle is the dense numpy
    power-iteration equivalence test
    (tests/test_stages.py::test_pagerank_matches_power_iteration) and
    the determinism assertion there — the driver records the weaker
    rows-only check for this entry."""
    import ray.data
    from yargy_ray.pipelines.kg import co_mention_edges
    from yargy_ray.stages.extract import extract_mentions, project_triples
    from yargy_ray.stages.graph import pagerank
    tpath = _transcripts_for(sf_dir)
    turns = ray.data.read_parquet(
        tpath, columns=['conv_id', 'turn_idx', 'text'])
    triples = project_triples(extract_mentions(turns, concurrency=_pool()))
    # pagerank consumes its edge input twice (normalize + node
    # universe); materialize the small strong-edge table once
    strong = co_mention_edges(triples).filter(
        expr='weight >= 2').materialize()

    def sym(t: pa.Table) -> pa.Table:
        src = pa.concat_arrays([t.column('src').combine_chunks(),
                                t.column('dst').combine_chunks()])
        dst = pa.concat_arrays([t.column('dst').combine_chunks(),
                                t.column('src').combine_chunks()])
        return pa.table({'src': src, 'dst': dst})

    return pagerank(strong.map_batches(sym, batch_format='pyarrow'),
                    iters=6, num_partitions=16)


_NODE_KINDS = ('turn', 'date', 'amount', 'person', 'address', 'title',
               'clause', 'position')


def q_kg_degree_quantiles(sf_dir):
    """Degree distribution per node kind: exact p50/p90 over the node
    table (stages/sampling.py:group_quantiles — one exchange,
    vectorized across groups; the closed kind set maps to a fixed int
    key for the exchange and back after)."""
    from yargy_ray.stages.sampling import group_quantiles
    nodes = q_kg_nodes(sf_dir)
    kinds = pa.array(_NODE_KINDS, type=pa.string())

    def to_key(batch: pa.Table) -> pa.Table:
        idx = pc.index_in(batch.column('kind'), value_set=kinds)
        return pa.table({
            'kind_id': pc.cast(idx, pa.int64()),
            'degree': pc.cast(batch.column('degree'), pa.float64()),
        })

    out = group_quantiles(
        nodes.map_batches(to_key, batch_format='pyarrow'),
        'kind_id', 'degree', qs=(0.5, 0.9))

    def back(batch: pa.Table) -> pa.Table:
        return pa.table({
            'kind': pc.take(kinds, batch.column('kind_id')),
            'q50': batch.column('q50'),
            'q90': batch.column('q90'),
        })

    return out.map_batches(back, batch_format='pyarrow')


def q_kg_pair_overlap(sf_dir):
    """Conversation-set overlap per co-mention pair: weight = |A ∩ B|
    (conversations mentioning both) plus each endpoint's distinct
    conversation count — the integer numerator/denominator pieces of
    pairwise entity Jaccard, exactly SQL-checkable. Composition:
    co_mention_edges x entity_conv_counts through two broadcast joins
    (the count table is entity-cardinality — the broadcast small side)."""
    import ray.data
    from yargy_ray.pipelines.kg import co_mention_edges, entity_conv_counts
    from yargy_ray.stages.extract import extract_mentions, project_triples
    from yargy_ray.stages.joins import broadcast_join
    tpath = _transcripts_for(sf_dir)
    turns = ray.data.read_parquet(
        tpath, columns=['conv_id', 'turn_idx', 'text'])
    triples = project_triples(extract_mentions(turns, concurrency=_pool()))
    edges = co_mention_edges(triples)
    counts = entity_conv_counts(triples)

    def rn(name):
        def fn(batch: pa.Table) -> pa.Table:
            return batch.rename_columns(
                [name if c == 'convs' else c for c in batch.column_names])
        return fn

    j1 = broadcast_join(edges, counts, 'src', 'node_id',
                        ['convs']).map_batches(
        rn('convs_src'), batch_format='pyarrow')
    return broadcast_join(j1, counts, 'dst', 'node_id',
                          ['convs']).map_batches(
        rn('convs_dst'), batch_format='pyarrow')


def q_doc_top_terms(sf_dir):
    """Keyword extraction: top-3 terms per document by (tf desc, token)
    with corpus document frequency attached — stages/text.py:
    doc_top_terms (map-local tf, one token-keyed df exchange broadcast
    back, one doc-keyed top-k exchange). Integer outputs only."""
    from yargy_ray.stages.text import doc_top_terms
    docs = _read(sf_dir, 'documents').select_columns(['doc_id', 'text'])
    return doc_top_terms(docs, k=3, concurrency=_pool())


def q_user_funnel(sf_dir):
    """Ordered funnel depth per user (click -> view -> purchase, each
    stage strictly after the previous stage's earliest completion):
    stages/windows.py:funnel_stages — one user-keyed exchange plus a
    vectorized per-partition merge chain."""
    from yargy_ray.stages.windows import funnel_stages
    events = _read(sf_dir, 'events').select_columns(
        ['user_id', 'ts', 'event_type'])
    return funnel_stages(events)


def q_kg_communities(sf_dir):
    """Entity communities: connected components over the STRONG
    co-mention graph (weight >= 2, i.e. entities co-appearing in at
    least two conversations) — the same pointer-jumped min-label
    operator that clusters near-dups, bound to the KG surface. Node
    keys are the first 60 bits of the md5 node id (SQL-reproducible:
    ('0x' || SUBSTR(id, 1, 15))::BIGINT)."""
    import ray.data
    from yargy_ray.pipelines.kg import co_mention_edges
    from yargy_ray.stages.extract import extract_mentions, project_triples
    from yargy_ray.stages.graph import connected_components
    tpath = _transcripts_for(sf_dir)
    turns = ray.data.read_parquet(
        tpath, columns=['conv_id', 'turn_idx', 'text'])
    triples = project_triples(extract_mentions(turns, concurrency=_pool()))
    strong = co_mention_edges(triples).filter(expr='weight >= 2')

    def to_int_keys(batch: pa.Table) -> pa.Table:
        # 15 hex chars < 2^60: positive int64 both here and in SQL;
        # runs over DISTINCT strong edges only (bounded small side)
        return pa.table({
            'a': pa.array([int(s[:15], 16) for s in
                           batch.column('src').to_pylist()],
                          type=pa.int64()),
            'b': pa.array([int(s[:15], 16) for s in
                           batch.column('dst').to_pylist()],
                          type=pa.int64()),
        })

    pairs = strong.map_batches(to_int_keys, batch_format='pyarrow')
    return connected_components(pairs, num_partitions=16)


def q_kg_incremental(sf_dir):
    """Incremental KG maintenance equivalence: build the KG over the
    first 80% of conversations, merge the remaining 20% as a delta
    (``pipelines/incremental.py`` — anti-join on co-partitioned triple
    keys, copy-on-write only for touched partitions), and return the
    MERGED node table. The oracle is literally the ``kg_nodes`` SQL
    over the FULL corpus: merge == rebuild, bit for bit."""
    import shutil

    import ray.data
    from yargy_ray.pipelines.incremental import merge_kg_delta
    from yargy_ray.pipelines.kg import run_kg_pipeline

    tpath = _transcripts_for(sf_dir)
    name = os.path.basename(os.path.normpath(sf_dir))
    n_convs = _SF_CONVS.get(name, 24)
    cut = f'conv-{int(n_convs * 0.8):08d}'
    root = f'/tmp/yargy_ray_cache/kg_inc_v3_{name}_{n_convs}'

    base_t, delta_t = f'{root}/base_t', f'{root}/delta_t'
    if not os.path.exists(f'{root}/_SPLIT_DONE'):
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(base_t), os.makedirs(delta_t)
        ds = ray.data.read_parquet(tpath)
        ds.filter(expr=f"conv_id < '{cut}'").write_parquet(base_t)
        ds.filter(expr=f"conv_id >= '{cut}'").write_parquet(delta_t)
        open(f'{root}/_SPLIT_DONE', 'w').close()

    # base build is manifest-checkpointed (resume skips it when cached)
    run_kg_pipeline(base_t, f'{root}/kg_base', concurrency=_pool(),
                    num_partitions=16)
    merged_root = f'{root}/kg_merged'
    shutil.rmtree(merged_root, ignore_errors=True)
    merge_kg_delta(f'{root}/kg_base', delta_t, merged_root,
                   concurrency=_pool(), num_partitions=16)
    nodes = ray.data.read_parquet(f'{merged_root}/nodes')
    return nodes.map_batches(
        lambda b: b.select(['node_id', 'kind', 'norm', 'degree']),
        batch_format='pyarrow')


def q_kg_incremental2(sf_dir):
    """CHAINED incremental maintenance: base 60% of conversations, then
    two successive 20% deltas — the second ``merge_kg_delta`` merges
    into the ALREADY-MERGED root, proving manifests compose (a merged
    output validates as a base; its recorded layout gates the next
    merge). Oracle: same SQL as ``kg_incremental`` — two chained merges
    equal one full rebuild, bit for bit."""
    import shutil

    import ray.data
    from yargy_ray.pipelines.incremental import merge_kg_delta
    from yargy_ray.pipelines.kg import run_kg_pipeline

    tpath = _transcripts_for(sf_dir)
    name = os.path.basename(os.path.normpath(sf_dir))
    n_convs = _SF_CONVS.get(name, 24)
    cut1 = f'conv-{int(n_convs * 0.6):08d}'
    cut2 = f'conv-{int(n_convs * 0.8):08d}'
    root = f'/tmp/yargy_ray_cache/kg_inc2_v1_{name}_{n_convs}'

    base_t, d1_t, d2_t = f'{root}/base_t', f'{root}/d1_t', f'{root}/d2_t'
    if not os.path.exists(f'{root}/_SPLIT_DONE'):
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(base_t), os.makedirs(d1_t), os.makedirs(d2_t)
        ds = ray.data.read_parquet(tpath)
        ds.filter(expr=f"conv_id < '{cut1}'").write_parquet(base_t)
        ds.filter(
            expr=f"conv_id >= '{cut1}' and conv_id < '{cut2}'"
        ).write_parquet(d1_t)
        ds.filter(expr=f"conv_id >= '{cut2}'").write_parquet(d2_t)
        open(f'{root}/_SPLIT_DONE', 'w').close()

    run_kg_pipeline(base_t, f'{root}/kg_base', concurrency=_pool(),
                    num_partitions=16)
    m1_root = f'{root}/kg_m1'
    shutil.rmtree(m1_root, ignore_errors=True)
    merge_kg_delta(f'{root}/kg_base', d1_t, m1_root,
                   concurrency=_pool(), num_partitions=16)
    m2_root = f'{root}/kg_m2'
    shutil.rmtree(m2_root, ignore_errors=True)
    merge_kg_delta(m1_root, d2_t, m2_root,
                   concurrency=_pool(), num_partitions=16)
    nodes = ray.data.read_parquet(f'{m2_root}/nodes')
    return nodes.map_batches(
        lambda b: b.select(['node_id', 'kind', 'norm', 'degree']),
        batch_format='pyarrow')


def q_kg_comention_inc(sf_dir):
    """SECOND-ORDER incremental maintenance: the co-mention edge table
    absorbed a 20% conversation delta via per-pair weight sums with
    copy-on-write partitions (pipelines/incremental.py:
    merge_comention_delta) — oracle is the full-corpus kg_comention
    SQL: merge == rebuild, bit for bit."""
    import shutil

    import ray.data
    from yargy_ray.pipelines.incremental import (
        merge_comention_delta,
        run_comention_pipeline,
    )

    tpath = _transcripts_for(sf_dir)
    name = os.path.basename(os.path.normpath(sf_dir))
    n_convs = _SF_CONVS.get(name, 24)
    cut = f'conv-{int(n_convs * 0.8):08d}'
    root = f'/tmp/yargy_ray_cache/cm_inc_v1_{name}_{n_convs}'

    base_t, delta_t = f'{root}/base_t', f'{root}/delta_t'
    if not os.path.exists(f'{root}/_SPLIT_DONE'):
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(base_t), os.makedirs(delta_t)
        ds = ray.data.read_parquet(tpath)
        ds.filter(expr=f"conv_id < '{cut}'").write_parquet(base_t)
        ds.filter(expr=f"conv_id >= '{cut}'").write_parquet(delta_t)
        open(f'{root}/_SPLIT_DONE', 'w').close()

    run_comention_pipeline(base_t, f'{root}/cm_base',
                           concurrency=_pool(), num_partitions=16)
    merged_root = f'{root}/cm_merged'
    shutil.rmtree(merged_root, ignore_errors=True)
    merge_comention_delta(f'{root}/cm_base', delta_t, merged_root,
                          concurrency=_pool(), num_partitions=16)
    edges = ray.data.read_parquet(f'{merged_root}/comention')
    return edges.map_batches(
        lambda b: b.select(['src', 'dst', 'weight']),
        batch_format='pyarrow')


def q_kg_linked(sf_dir):
    """Gazetteer-backed entity linking over has_position triple objects
    (broadcast index, morph-lemma lookup in tasks on warm workers)."""
    from yargy_ray.grammars.specs import POSITIONS
    from yargy_ray.stages.link import link_entities
    gaz = {'POS:' + p.replace(' ', '-'): [p] for p in POSITIONS}
    triples = q_kg_triples(sf_dir).filter(expr="pred == 'has_position'")
    return link_entities(triples, gaz, column='obj')


def q_doc_reconstruct(sf_dir):
    import ray.data
    from yargy_ray.pipelines.documents import reconstruct_documents
    tpath = _transcripts_for(sf_dir)
    turns = ray.data.read_parquet(tpath)
    return reconstruct_documents(turns).select_columns(
        ['conv_id', 'n_turns', 'checksum'])


def q_kg_mentions_docscope(sf_dir):
    """Reference-native document-scope extraction: conv_id-keyed
    reconstruction then findall over whole documents.

    Projection notes for the value-hash compare: tokens joined to one
    string (list columns hash differently between pandas/DuckDB) and
    span columns widened to int64; the SQL oracle re-derives doc-level
    span arithmetic from the template corpus (turn/sentence offset
    cumsums + fixed template prefixes)."""
    import ray.data
    from yargy_ray.pipelines.documents import (
        extract_document_mentions,
        reconstruct_documents,
    )
    tpath = _transcripts_for(sf_dir)
    turns = ray.data.read_parquet(tpath)
    docs = reconstruct_documents(turns)
    mentions = extract_document_mentions(docs, concurrency=_pool())

    def project(batch: pa.Table) -> pa.Table:
        toks = pc.binary_join(
            pc.cast(batch.column('tokens'), pa.list_(pa.string())), ' ')
        return pa.table({
            'conv_id': batch.column('conv_id'),
            'rule': batch.column('rule'),
            'span_start': pc.cast(batch.column('span_start'), pa.int64()),
            'span_stop': pc.cast(batch.column('span_stop'), pa.int64()),
            'tokens_str': toks,
            'fact_json': batch.column('fact_json'),
        })

    return mentions.map_batches(project, batch_format='pyarrow')


def q_kg_mention_counts(sf_dir):
    """Document-scope mention counts per (conv_id, rule): the per-turn ==
    doc-scope invariant makes counts SQL-derivable (span arithmetic is
    not needed), giving the docscope path a hash-level oracle."""
    from yargy_ray.pipelines.documents import (
        extract_document_mentions,
        reconstruct_documents,
    )
    import ray.data
    tpath = _transcripts_for(sf_dir)
    turns = ray.data.read_parquet(tpath)
    docs = reconstruct_documents(turns)
    mentions = extract_document_mentions(docs, concurrency=_pool())

    # one group per (conv, rule) — near-unique keys at scale, so route
    # through the hash exchange instead of Ray's native groupby
    from yargy_ray.stages.exchange import partitioned_reduce

    def reduce_fn(table: pa.Table) -> pa.Table:
        df = table.select(['conv_id', 'rule']).to_pandas()
        agg = (df.groupby(['conv_id', 'rule'], sort=False)
               .size().reset_index(name='n_mentions'))
        agg['n_mentions'] = agg['n_mentions'].astype('int64')
        return pa.Table.from_pandas(agg, preserve_index=False)

    return partitioned_reduce(
        mentions.select_columns(['conv_id', 'rule']), 'conv_id',
        reduce_fn, 64)


def q_multimodal_features(sf_dir):
    """FakeCodec image featurization (decode -> resize -> channel means).

    The pipeline's native output is a list<float32> feature column; for
    the oracle compare the 3 channel means are flattened to float64
    scalars and checked bit-for-bit against the pinned golden fixture
    (tests/fixtures/multimodal_features.parquet, regenerated by
    scripts/make_multimodal_fixture.py from first principles)."""
    import ray.data
    from yargy_ray.stages.multimodal import featurize_images, synth_media
    media = ray.data.from_arrow(synth_media(200))
    feats = featurize_images(media, concurrency=(1, 2))

    def flatten(batch: pa.Table) -> pa.Table:
        mat = np.stack(batch.column('feature').to_numpy(zero_copy_only=False))
        return pa.table({
            'media_id': batch.column('media_id'),
            'f0': pa.array(mat[:, 0].astype(np.float64)),
            'f1': pa.array(mat[:, 1].astype(np.float64)),
            'f2': pa.array(mat[:, 2].astype(np.float64)),
        })

    return feats.map_batches(flatten, batch_format='pyarrow')


def q_orders_rollup(sf_dir):
    """GROUP BY ROLLUP(priority, status) over orders — one map-side
    combined exchange at the finest grain, coarser levels derived from
    the category-cardinality fine aggregate (stages/olap.py:
    rollup_aggregate); ``lvl`` mirrors DuckDB's GROUPING bitmask."""
    from yargy_ray.stages.olap import rollup_aggregate
    ds = _read(sf_dir, 'orders').select_columns(
        ['o_orderpriority', 'o_orderstatus', 'o_totalprice'])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            'o_orderpriority': batch.column('o_orderpriority'),
            'o_orderstatus': batch.column('o_orderstatus'),
            'total_cents': _cents(batch.column('o_totalprice')),
        })

    return rollup_aggregate(
        ds.map_batches(prep, batch_format='pyarrow'),
        ['o_orderpriority', 'o_orderstatus'], ['total_cents'])


def q_order_price_histogram(sf_dir):
    """Fixed-width histogram of order totals ($50k buckets, clamped at
    10): map-side bincount, ONE tiny reduce, zero-filled stable schema
    (stages/olap.py:fixed_histogram)."""
    from yargy_ray.stages.olap import fixed_histogram
    ds = _read(sf_dir, 'orders').select_columns(['o_totalprice'])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({'total_cents': _cents(
            batch.column('o_totalprice'))})

    return fixed_histogram(
        ds.map_batches(prep, batch_format='pyarrow'),
        'total_cents', lo=0, width=5_000_000, num_buckets=10)


def q_event_gaps(sf_dir):
    """Per-event LAG gap (microseconds since the user's previous
    event; null for firsts) — stages/windows.py:event_gaps, one
    user-keyed exchange + numpy lexsort/diff per partition."""
    from yargy_ray.stages.windows import event_gaps
    return event_gaps(_read(sf_dir, 'events').select_columns(
        ['event_id', 'user_id', 'ts']))


def q_user_event_pivot(sf_dir):
    """Pivot: per-user count columns over the closed event-type set
    (stages/olap.py:pivot_counts — map-side (key, cat) combine, one
    user-keyed exchange, vectorized per-partition pivot)."""
    from yargy_ray.stages.olap import pivot_counts
    return pivot_counts(
        _read(sf_dir, 'events').select_columns(
            ['user_id', 'event_type']),
        'user_id', 'event_type',
        ['click', 'error', 'purchase', 'signup', 'view'])


def q_bigram_counts(sf_dir):
    """Corpus bigram LM counts with min_count=2 (stages/text.py:
    bigram_counts — same exchange shape as vocab_counts; ships
    per-batch DISTINCT bigrams only)."""
    from yargy_ray.stages.text import bigram_counts
    return bigram_counts(_read(sf_dir, 'documents').select_columns(
        ['text']), min_count=2)


def q_doc_repetition(sf_dir):
    """Gopher-style duplicate-bigram signal per doc: total vs DISTINCT
    bigram counts, pure map-side (stages/text.py:repetition_batch)."""
    from yargy_ray.stages.text import repetition_batch
    return _read(sf_dir, 'documents').select_columns(
        ['doc_id', 'text']).map_batches(
        repetition_batch, batch_format='pyarrow')


def q_multimodal_audio(sf_dir):
    """REAL-codec multimodal path: 16-bit PCM WAV payloads (stdlib
    ``wave`` container, genuine binary format) decoded by StdlibCodec
    in tasks on warm workers, integral features out
    (stages/multimodal.py:AudioFeaturizer). The oracle is the pinned
    first-principles fixture — bit-for-bit, not rows-only."""
    import ray.data
    from yargy_ray.stages.multimodal import (
        featurize_audio,
        StdlibCodec,
        synth_real_media,
    )
    media = ray.data.from_arrow(synth_real_media(200))
    audio = media.filter(expr="kind == 'audio'")
    return featurize_audio(audio, codec=StdlibCodec(),
                           concurrency=(1, 2))


def q_unshipped_revenue(sf_dir):
    """TPC-H-Q3-shaped composite: BUILDING-segment customers' orders
    placed before the cutoff with lineitems shipped after it — SEMI
    hash join (orders x segment customers) feeding a big-big INNER
    hash join (lineitem x orders), pre-aggregated revenue cents,
    top-10 by revenue. Exercises multi-stage join composition on one
    co-partitioning key."""
    from yargy_ray.stages.joins import hash_join

    cutoff = pa.scalar(np.datetime64('1998-01-01T00:00:00', 'us'),
                       pa.timestamp('us'))

    building = _read(sf_dir, 'customer').filter(
        expr="c_mktsegment == 'BUILDING'").select_columns(
        ['c_custkey']).map_batches(
        lambda b: _rename(b, {'c_custkey': 'o_custkey'}),
        batch_format='pyarrow')

    def orders_prep(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.less(batch.column('o_orderdate'),
                                     cutoff))
        return batch.select(['o_orderkey', 'o_custkey', 'o_orderdate'])

    orders = _read(sf_dir, 'orders').select_columns(
        ['o_orderkey', 'o_custkey', 'o_orderdate']).map_batches(
        orders_prep, batch_format='pyarrow')
    orders = hash_join(orders, building, on='o_custkey', how='semi') \
        .map_batches(lambda b: _rename(b, {'o_orderkey': 'l_orderkey'}),
                     batch_format='pyarrow')

    def line_prep(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.greater(batch.column('l_shipdate'),
                                        cutoff))
        revenue = pc.multiply(
            pc.cast(batch.column('l_extendedprice'), pa.float64()),
            pc.subtract(1.0, pc.cast(batch.column('l_discount'),
                                     pa.float64())))
        return pa.table({
            'l_orderkey': batch.column('l_orderkey'),
            'revenue_cents': _cents(revenue),
        })

    lineitem = _read(sf_dir, 'lineitem').select_columns(
        ['l_orderkey', 'l_extendedprice', 'l_discount',
         'l_shipdate']).map_batches(line_prep, batch_format='pyarrow')

    j = hash_join(lineitem, orders, on='l_orderkey')
    agg = j.groupby(['l_orderkey', 'o_orderdate']) \
        .sum('revenue_cents')

    def rename(batch: pa.Table) -> pa.Table:
        batch = _rename(batch, {'l_orderkey': 'o_orderkey',
                                'sum(revenue_cents)': 'revenue_cents'})
        # the groupby can round-trip the key through datetime64[s];
        # pin the oracle's microsecond unit
        i = batch.column_names.index('o_orderdate')
        return batch.set_column(
            i, 'o_orderdate',
            pc.cast(batch.column('o_orderdate'), pa.timestamp('us')))

    return (agg.map_batches(rename, batch_format='pyarrow')
            .sort(['revenue_cents', 'o_orderdate', 'o_orderkey'],
                  descending=[True, False, False])
            .limit(10))


def q_collocations(sf_dir):
    """PMI collocation pieces: frequent bigrams (n_ab >= 5) joined with
    each word's corpus unigram count — integer numerator/denominator
    parts of pointwise mutual information (the float log lives outside
    the compare). Vocab table is Heaps-law bounded -> the broadcast
    small side (doc_top_terms precedent)."""
    from yargy_ray.stages.joins import broadcast_join
    from yargy_ray.stages.text import bigram_counts, vocab_counts

    docs = _read(sf_dir, 'documents').select_columns(['text'])
    bi = bigram_counts(docs, min_count=5)
    # two broadcast consumers: materialize the (bounded) vocab once
    uni = vocab_counts(docs, min_count=1).materialize()

    def split_words(batch: pa.Table) -> pa.Table:
        parts = pc.split_pattern(batch.column('bigram'), ' ')
        return pa.table({
            'bigram': batch.column('bigram'),
            'n_ab': batch.column('n'),
            'w1': pc.list_element(parts, 0),
            'w2': pc.list_element(parts, 1),
        })

    with_w = bi.map_batches(split_words, batch_format='pyarrow')
    j1 = broadcast_join(with_w, uni, 'w1', 'token', ['n']) \
        .map_batches(lambda b: _rename(b, {'n': 'n_a'}),
                     batch_format='pyarrow')
    j2 = broadcast_join(j1, uni, 'w2', 'token', ['n']) \
        .map_batches(lambda b: _rename(b, {'n': 'n_b'}),
                     batch_format='pyarrow')
    return j2.map_batches(
        lambda b: b.select(['bigram', 'n_ab', 'n_a', 'n_b']),
        batch_format='pyarrow')


def q_kg_degree_corr(sf_dir):
    """Degree-assortativity moments of the KG edge table: one row of
    integer sums (stages/graph.py:degree_correlation — node-degree
    exchange, degree table broadcast onto the streaming edges, tiny
    constant-key reduce)."""
    from yargy_ray.stages.graph import degree_correlation
    return degree_correlation(q_kg_edges(sf_dir))


def q_local_supplier_revenue(sf_dir):
    """TPC-H-Q5-shaped composite: 1996 revenue from ASIA-region
    customers whose lineitems were served by a supplier in the SAME
    nation. Plan: the tiny region x nation dims resolve driver-side
    into a key set pushed into the customer scan; orders (date-pruned)
    x customers big-big hash join on custkey; lineitem joins the
    result on orderkey (second big-big, both pre-projected to
    key+cents); the 100-row supplier dim broadcasts its nationkey onto
    the stream; the same-nation predicate filters; a 5-group reduce
    plus a 25-row broadcast name lookup finish. Two exchanges total —
    the join tree never ships a column it doesn't aggregate."""
    from yargy_ray.stages.joins import broadcast_join, hash_join

    lo = pa.scalar(np.datetime64('1996-01-01T00:00:00', 'us'),
                   pa.timestamp('us'))
    hi = pa.scalar(np.datetime64('1997-01-01T00:00:00', 'us'),
                   pa.timestamp('us'))

    asia_reg = {r['r_regionkey']
                for r in _read(sf_dir, 'region').take_all()
                if r['r_name'] == 'ASIA'}                  # 5-row dim
    asia = pa.array(sorted(
        n['n_nationkey'] for n in _read(sf_dir, 'nation').take_all()
        if n['n_regionkey'] in asia_reg), pa.int64())      # 25-row dim

    def cust_prep(batch: pa.Table) -> pa.Table:
        nkey = pc.cast(batch.column('c_nationkey'), pa.int64())
        mask = pc.is_in(nkey, value_set=asia)
        return pa.table({'o_custkey': batch.column('c_custkey'),
                         'c_nationkey': nkey}).filter(mask)

    cust = _read(sf_dir, 'customer').select_columns(
        ['c_custkey', 'c_nationkey']).map_batches(
        cust_prep, batch_format='pyarrow')

    def orders_prep(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(batch.column('o_orderdate'), lo),
            pc.less(batch.column('o_orderdate'), hi))
        return batch.filter(keep).select(['o_orderkey', 'o_custkey'])

    orders = _read(sf_dir, 'orders').select_columns(
        ['o_orderkey', 'o_custkey', 'o_orderdate']).map_batches(
        orders_prep, batch_format='pyarrow')

    o_n = hash_join(orders, cust, on='o_custkey').map_batches(
        lambda b: pa.table({'l_orderkey': b.column('o_orderkey'),
                            'c_nationkey': b.column('c_nationkey')}),
        batch_format='pyarrow')

    def line_prep(batch: pa.Table) -> pa.Table:
        revenue = pc.multiply(
            pc.cast(batch.column('l_extendedprice'), pa.float64()),
            pc.subtract(1.0, pc.cast(batch.column('l_discount'),
                                     pa.float64())))
        return pa.table({'l_orderkey': batch.column('l_orderkey'),
                         'l_suppkey': batch.column('l_suppkey'),
                         'revenue_cents': _cents(revenue)})

    lineitem = _read(sf_dir, 'lineitem').select_columns(
        ['l_orderkey', 'l_suppkey', 'l_extendedprice',
         'l_discount']).map_batches(line_prep, batch_format='pyarrow')

    j = hash_join(lineitem, o_n, on='l_orderkey')
    supp = _read(sf_dir, 'supplier').map_batches(
        lambda b: pa.table({'l_suppkey': b.column('s_suppkey'),
                            's_nationkey': pc.cast(
                                b.column('s_nationkey'), pa.int64())}),
        batch_format='pyarrow')
    j2 = broadcast_join(j, supp, 'l_suppkey', 'l_suppkey',
                        ['s_nationkey'])

    def local_only(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch.column('c_nationkey'),
                                      batch.column('s_nationkey')))
        return pa.table({'n_nationkey': batch.column('c_nationkey'),
                         'revenue_cents': batch.column('revenue_cents')})

    agg = j2.map_batches(local_only, batch_format='pyarrow') \
        .groupby('n_nationkey').sum('revenue_cents').map_batches(
        lambda b: _rename(b, {'sum(revenue_cents)': 'revenue_cents'}),
        batch_format='pyarrow')
    nation = _read(sf_dir, 'nation').map_batches(
        lambda b: pa.table({
            'n_nationkey': pc.cast(b.column('n_nationkey'), pa.int64()),
            'n_name': b.column('n_name')}),
        batch_format='pyarrow')
    named = broadcast_join(agg, nation, 'n_nationkey', 'n_nationkey',
                           ['n_name'])
    return named.map_batches(
        lambda b: b.select(['n_name', 'revenue_cents']),
        batch_format='pyarrow').sort(
        ['revenue_cents', 'n_name'], descending=[True, False])


def q_event_transitions(sf_dir):
    """LEAD window op: (event_type -> next event_type) counts over each
    user's timeline (stages/windows.py:event_transitions — one
    user-keyed exchange, per-partition |types|^2 pre-aggregation, tiny
    global sum)."""
    from yargy_ray.stages.windows import event_transitions
    return event_transitions(_read(sf_dir, 'events').select_columns(
        ['event_id', 'user_id', 'ts', 'event_type']))


def q_promo_revenue(sf_dir):
    """TPC-H-Q14-shaped: promo vs total revenue for one ship-month.
    First consumer of the ``part`` table; a big-big hash join on
    l_partkey (a co-partitioning key no other query uses), both sides
    pre-projected to key + the one value column each, then a
    constant-key integer reduce (per-batch partials, 2-column driver
    sum over P rows)."""
    from yargy_ray.stages.joins import hash_join

    lo = pa.scalar(np.datetime64('1996-09-01T00:00:00', 'us'),
                   pa.timestamp('us'))
    hi = pa.scalar(np.datetime64('1996-10-01T00:00:00', 'us'),
                   pa.timestamp('us'))

    def line_prep(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater_equal(batch.column('l_shipdate'), lo),
                       pc.less(batch.column('l_shipdate'), hi))
        batch = batch.filter(keep)
        revenue = pc.multiply(
            pc.cast(batch.column('l_extendedprice'), pa.float64()),
            pc.subtract(1.0, pc.cast(batch.column('l_discount'),
                                     pa.float64())))
        return pa.table({'l_partkey': batch.column('l_partkey'),
                         'revenue_cents': _cents(revenue)})

    line = _read(sf_dir, 'lineitem').select_columns(
        ['l_partkey', 'l_shipdate', 'l_extendedprice',
         'l_discount']).map_batches(line_prep, batch_format='pyarrow')
    part = _read(sf_dir, 'part').select_columns(
        ['p_partkey', 'p_type']).map_batches(
        lambda b: _rename(b, {'p_partkey': 'l_partkey'}),
        batch_format='pyarrow')
    j = hash_join(line, part, on='l_partkey')

    def partial(batch: pa.Table) -> pa.Table:
        cents = batch.column('revenue_cents')
        promo = pc.if_else(
            pc.equal(batch.column('p_type'), 'PROMO'), cents,
            pa.scalar(0, pa.int64()))
        return pa.table({
            'promo_cents': pa.array(
                [pc.sum(promo).as_py() or 0], pa.int64()),
            'total_cents': pa.array(
                [pc.sum(cents).as_py() or 0], pa.int64()),
        })

    tot = j.map_batches(partial, batch_format='pyarrow') \
        .sum(['promo_cents', 'total_cents'])    # P partial rows
    return pa.table({
        'promo_cents': pa.array([int(tot['sum(promo_cents)'])],
                                pa.int64()),
        'total_cents': pa.array([int(tot['sum(total_cents)'])],
                                pa.int64()),
    })


#: Query-plan operator vocabulary for the BIO tagger demo — words that
#: actually occur in the synthetic documents corpus.
_TAG_VOCAB = ('table', 'scan', 'join', 'merge', 'sort', 'filter')


def q_doc_tagged_phrases(sf_dir):
    """Two-stage distributed tagger (SURVEY §2.10 as a pipeline stage):
    stage 1 BIO-tags tokens (tasks on warm workers; tags travel as an
    aligned ``list<string>`` column), stage 2 consumes the column through
    ``tag()`` predicates — grammar ``B-OP I-OP*`` — and emits maximal
    tagged runs. Reference semantics:
    /root/reference/tests/test_tagger.py:23-34."""
    from yargy_ray.stages.tagging import (bio_tag_tokens,
                                          extract_tagged_phrases)
    docs = _read(sf_dir, 'documents').select_columns(['doc_id', 'text'])
    tagged = bio_tag_tokens(docs, vocab=_TAG_VOCAB, name='OP',
                            concurrency=_pool())
    return extract_tagged_phrases(tagged, name='OP',
                                  concurrency=_pool())


# ---------------------------------------------------------------------------
# Driver surface
# ---------------------------------------------------------------------------

def entry() -> Any:
    """Flagship: KG triples from sf0.001-scale synthetic transcripts."""
    return q_kg_triples('/root/testdata/sf0.001')


def queries() -> dict[str, Callable[[str], Any]]:
    # Ordered by driver-verification priority: the driver's CORRECTNESS
    # window checks the FIRST 50 entries, so never-driver-checked
    # queries lead, then those longest out of the window, then the
    # least-often-verified; multi-round-green veterans rotate out last.
    return {
        # -- never driver-checked (added r4 past the window cutoff) --
        'kg_pair_overlap': q_kg_pair_overlap,
        'kg_degree_quantiles': q_kg_degree_quantiles,
        'kg_pagerank': q_kg_pagerank,
        'doc_pack': q_doc_pack,
        'doc_decontam': q_doc_decontam,
        'user_kmv': q_user_kmv,
        'doc_heavy_tokens': q_doc_heavy_tokens,
        'purchase_window_events': q_purchase_window_events,
        # -- round-5 additions --
        'orders_rollup': q_orders_rollup,
        'order_price_histogram': q_order_price_histogram,
        'event_gaps': q_event_gaps,
        'user_event_pivot': q_user_event_pivot,
        'bigram_counts': q_bigram_counts,
        'doc_repetition': q_doc_repetition,
        'kg_degree_corr': q_kg_degree_corr,
        'multimodal_audio': q_multimodal_audio,
        'unshipped_revenue': q_unshipped_revenue,
        'collocations': q_collocations,
        'doc_tagged_phrases': q_doc_tagged_phrases,
        'local_supplier_revenue': q_local_supplier_revenue,
        'promo_revenue': q_promo_revenue,
        'event_transitions': q_event_transitions,
        # -- rotated out of the r4 window; last green r3 --
        'kg_comention': q_kg_comention,
        'kg_two_hop': q_kg_two_hop,
        'kg_communities': q_kg_communities,
        'kg_linked': q_kg_linked,
        'doc_reconstruct': q_doc_reconstruct,
        'kg_mentions_docscope': q_kg_mentions_docscope,
        'kg_mention_counts': q_kg_mention_counts,
        'multimodal_features': q_multimodal_features,
        # -- driver-green exactly once (r4) --
        'dup_survivors': q_dup_survivors,
        'kg_incremental2': q_kg_incremental2,
        'kg_comention_inc': q_kg_comention_inc,
        'kg_triangles': q_kg_triangles,
        'kg_top_neighbors': q_kg_top_neighbors,
        'kg_entity_stats': q_kg_entity_stats,
        'user_funnel': q_user_funnel,
        'doc_top_terms': q_doc_top_terms,
        # -- IVF query path touched this round (delta-aware reads) --
        'emb_topk_ivf_full': q_emb_topk_ivf_full,
        'emb_topk_ivf': q_emb_topk_ivf,
        'emb_near_dups_exact': q_emb_near_dups_exact,
        'emb_near_dups': q_emb_near_dups,
        # -- flagship + perf-watch (keep continuously verified) --
        'kg_triples': q_kg_triples,
        'kg_nodes': q_kg_nodes,
        'minhash_pairs': q_minhash_pairs,
        'simhash_pairs': q_simhash_pairs,
        'dup_components': q_dup_components,
        'ngram_pairs': q_ngram_pairs,
        'doc_dup_groups': q_doc_dup_groups,
        # ---- window cutoff backfill: 2-4x-green veterans ----
        'cust_no_urgent': q_cust_no_urgent,
        'latest_user_event': q_latest_user_event,
        'cust_urgent_semi': q_cust_urgent_semi,
        'cust_totals_left': q_cust_totals_left,
        'kg_address': q_kg_address,
        'kg_edges': q_kg_edges,
        'kg_incremental': q_kg_incremental,
        'lineitem_agg': q_lineitem_agg,
        'filter_project': q_filter_project,
        'topk_orders': q_topk_orders,
        'distinct_segments': q_distinct_segments,
        'revenue_by_nation': q_revenue_by_nation,
        'doc_token_count': q_doc_token_count,
        'doc_lang_id': q_doc_lang_id,
        'doc_quality': q_doc_quality,
        'doc_fingerprint': q_doc_fingerprint,
        'doc_bpe_tokens': q_doc_bpe_tokens,
        'extract_ints': q_extract_ints,
        'sessionize': q_sessionize,
        'tumbling_window': q_tumbling_window,
        'emb_topk': q_emb_topk,
        'rolling_fingerprint': q_rolling_fingerprint,
        'asof_purchase': q_asof_purchase,
        'hopping_window': q_hopping_window,
        'user_value_quantiles': q_user_value_quantiles,
        'stratified_sample': q_stratified_sample,
        'priority_revenue': q_priority_revenue,
        'doc_split': q_doc_split,
        'vocab_counts': q_vocab_counts,
        'topk_orders_per_cust': q_topk_orders_per_cust,
        'session_assign': q_session_assign,
    }


# ---------------------------------------------------------------------------
# Transcript-derived oracles (driver correctness runs at sf0.01)
#
# The synthetic transcripts are template-generated: every sentence is one
# of 8 fixed shapes, so the Earley extraction output over this corpus is
# exactly re-derivable in SQL with per-sentence regexes + the grammar's
# normalization maps inlined (month genitive -> number, multiplier words,
# currency codes, morph lowering of the closed name vocabulary). The SQL
# reads the same deterministic /tmp parquet cache the Ray queries use.
# ---------------------------------------------------------------------------

_ORACLE_SF_DIR = '/root/testdata/sf0.01'


def _transcript_glob():
    name = os.path.basename(os.path.normpath(_ORACLE_SF_DIR))
    n = _SF_CONVS.get(name, 24)
    return f'/tmp/yargy_ray_cache/transcripts_v3_{name}_{n}/*.parquet'


_MULTIMODAL_FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    'tests', 'fixtures', 'multimodal_features.parquet')

_MULTIMODAL_AUDIO_FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    'tests', 'fixtures', 'multimodal_audio.parquet')


def _mulmod64_sql(x: str, c: int) -> str:
    """SQL for ``(x * c) mod 2**64`` on HUGEINT operands.

    A direct product of two 64-bit values overflows int128, so split x
    into 32-bit halves: (lo*c + ((hi*c) mod 2**32) * 2**32) mod 2**64 —
    every intermediate stays below 2**96.
    """
    m64 = "18446744073709551616::HUGEINT"
    m32 = "4294967296"
    return (f"((({x}) % {m32}) * {c} + "
            f"(((({x}) // {m32}) * {c}) % {m32}) * {m32}) % {m64}")


def _gram_hash_ctes(k: int) -> str:
    """CTE chain re-deriving ``char_gram_hashes(text, k)`` in DuckDB:
    lowercased codepoints, Horner rolling hash per k-gram window
    (mod 2**64), splitmix64 finalizer — final CTE ``m5`` yields
    (doc_id, n, hs) with hs the mixed 64-bit gram-hash list. Shared by
    the rolling_fingerprint and simhash oracles."""
    m64 = "18446744073709551616::HUGEINT"
    return f"""
        d AS (
            SELECT doc_id,
                   list_transform(string_split(lower(text), ''),
                                  c -> CAST(unicode(c) AS HUGEINT)) AS codes
            FROM documents
        ), p AS (
            SELECT doc_id, codes, len(codes) AS n,
                   LEAST({k}, len(codes)) AS k FROM d
        ), h0 AS (
            SELECT doc_id, n,
              CASE WHEN n = 0 THEN [CAST(0 AS HUGEINT)] ELSE
                list_transform(range(1, n - k + 2), i ->
                  list_reduce(codes[i : i + k - 1],
                    (a, b) -> (a * 1099511628211 + b) % {m64}))
              END AS hs FROM p
        ), m1 AS (SELECT doc_id, n,
                    list_transform(hs, x -> xor(x, x >> 30)) AS hs FROM h0),
           m2 AS (SELECT doc_id, n,
                    list_transform(hs, x ->
                      {_mulmod64_sql('x', 0xBF58476D1CE4E5B9)}) AS hs
                  FROM m1),
           m3 AS (SELECT doc_id, n,
                    list_transform(hs, x -> xor(x, x >> 27)) AS hs FROM m2),
           m4 AS (SELECT doc_id, n,
                    list_transform(hs, x ->
                      {_mulmod64_sql('x', 0x94D049BB133111EB)}) AS hs
                  FROM m3),
           m5 AS (SELECT doc_id, n,
                    list_transform(hs, x -> xor(x, x >> 31)) AS hs FROM m4)"""


def _rfp_oracle_sql() -> str:
    """DuckDB re-derivation of ``rolling_fingerprint_batch``
    (stages/text.py): min over the mixed 16-gram hashes, >> 1."""
    return f"""
        WITH {_gram_hash_ctes(16)}
        SELECT doc_id,
               CASE WHEN n = 0 THEN CAST(0 AS BIGINT)
                    ELSE CAST(list_min(hs) // 2 AS BIGINT) END AS rfp
        FROM m5
    """


def _simhash_ctes() -> str:
    """WITH-body (through CTE ``cand``) deriving the SimHash candidate
    pairs; shared by the simhash_pairs and dup_components oracles."""
    m64 = "18446744073709551616::HUGEINT"
    bitcols = ',\n                  '.join(
        f"SUM(CASE WHEN (h >> {b}) % 2 = 1 THEN 1 ELSE -1 END) AS acc{b}"
        for b in range(64))
    sigexpr = ' + '.join(
        f"CASE WHEN acc{b} > 0 THEN {1 << b}::HUGEINT ELSE 0::HUGEINT END"
        for b in range(64))
    return f"""{_gram_hash_ctes(4)},
           g AS (SELECT doc_id, UNNEST(hs) AS h FROM m5 WHERE n > 0),
           acc AS (SELECT doc_id,
                  {bitcols}
                  FROM g GROUP BY doc_id),
           sig AS (
             SELECT a0.doc_id,
                    COALESCE(({sigexpr}), 0::HUGEINT) AS s
             FROM (SELECT doc_id FROM d) a0 LEFT JOIN acc USING (doc_id)
           ), sig64 AS (
             SELECT doc_id,
                    CAST(CASE WHEN s >= {1 << 63}::HUGEINT
                         THEN s - {m64} ELSE s END AS BIGINT) AS s
             FROM sig
           ), chunks AS (
             SELECT doc_id, s, c,
                    (s >> (16*c)) & 65535 AS chunk,
                    ROW_NUMBER() OVER (
                        PARTITION BY c, (s >> (16*c)) & 65535
                        ORDER BY doc_id) AS rn
             FROM sig64, UNNEST([0,1,2,3]) AS t(c)
           ), cand AS (
             SELECT DISTINCT x.doc_id AS a, y.doc_id AS b,
                    bit_count(xor(x.s, y.s)) AS hamming
             FROM chunks x JOIN chunks y
               ON x.c = y.c AND x.chunk = y.chunk AND x.doc_id < y.doc_id
             WHERE x.rn <= 256 AND y.rn <= 256
           )"""


def _simhash_oracle_sql() -> str:
    """DuckDB re-derivation of ``simhash_near_dups(max_hamming=3)``
    (stages/dedup.py): 64-bit SimHash over char 4-grams (per-bit ±1
    sums with multiplicity), 4×16-bit pigeonhole chunk self-join with
    the per-bucket 256 cap, exact Hamming verify via bit_count."""
    return f"""
        WITH {_simhash_ctes()}
        SELECT a, b, CAST(hamming AS BIGINT) AS hamming
        FROM cand WHERE hamming <= 3
    """


def _dup_components_oracle_sql() -> str:
    """Connected components over the SimHash near-dup pairs via a
    recursive min-label walk (mirrors stages/graph.py)."""
    return f"""
        WITH RECURSIVE {_simhash_ctes()},
           pairs AS (SELECT a, b FROM cand WHERE hamming <= 3),
           edges AS (
             SELECT a AS src, b AS dst FROM pairs
             UNION ALL SELECT b, a FROM pairs
           ),
           verts AS (SELECT DISTINCT src AS node FROM edges),
           walk(node, comp) AS (
             SELECT node, node FROM verts
             UNION
             SELECT e.dst, w.comp
             FROM walk w JOIN edges e ON e.src = w.node
           )
        SELECT node, MIN(comp) AS component FROM walk GROUP BY node
    """


def _minhash_oracle_sql() -> str:
    """DuckDB re-derivation of ``minhash_near_dups(threshold=0.6)``
    (stages/dedup.py): distinct char 5-gram hashes, 64 minwise values
    ((a*x+b) wraps mod 2**64 FIRST, then mod 2**61-1, matching numpy
    uint64 semantics), 16 band hashes via an unrolled splitmix64 fold
    over each 4-perm chunk, per-bucket 256 cap, b-bit (low-16)
    slot-equality similarity — all as chained vectorized CTE stages."""
    import numpy as np
    m64 = "18446744073709551616::HUGEINT"
    p61 = "2305843009213693951"
    rng = np.random.RandomState(7)          # MinHasher(seed=7)
    perm_a = rng.randint(1, 2**61 - 1, size=64, dtype=np.uint64)
    perm_b = rng.randint(0, 2**61 - 1, size=64, dtype=np.uint64)
    golden = 0x9E3779B97F4A7C15
    seed_case = ' '.join(
        f"WHEN {b} THEN {((b + 1) * golden) % 2**64}::HUGEINT"
        for b in range(16))
    mincols = ',\n                  '.join(
        f"MIN(((({int(perm_a[i])}::HUGEINT * x + {int(perm_b[i])})"
        f" % {m64}) % {p61})) AS s{i}"
        for i in range(64))
    coal = ', '.join(f"COALESCE(s{i}, 0::HUGEINT)" for i in range(64))
    fold, prev = [], 'band0'
    for j in range(1, 5):
        steps = [
            f"xor(h, v{j})",
            "xor(h, h >> 30)",
            _mulmod64_sql('h', 0xBF58476D1CE4E5B9),
            "xor(h, h >> 27)",
            _mulmod64_sql('h', 0x94D049BB133111EB),
            "xor(h, h >> 31)",
        ]
        for s, expr in enumerate(steps):
            name = f"f{j}_{s}"
            fold.append(
                f"{name} AS (SELECT * REPLACE (({expr}) AS h) FROM {prev})")
            prev = name
    fold_sql = ',\n           '.join(fold)
    return f"""
        WITH {_gram_hash_ctes(5)},
          sh AS (SELECT doc_id, UNNEST(list_distinct(hs)) AS x
                 FROM m5 WHERE n > 0),
          mins AS (SELECT doc_id,
                  {mincols}
                  FROM sh GROUP BY doc_id),
          sig AS (
            SELECT a0.doc_id, [{coal}] AS sig
            FROM (SELECT doc_id FROM d) a0 LEFT JOIN mins USING (doc_id)
          ),
          band0 AS (
            SELECT doc_id,
                   list_transform(sig, s -> CAST(s % 65536 AS BIGINT))
                       AS sig16,
                   band,
                   sig[4*band+1] AS v1, sig[4*band+2] AS v2,
                   sig[4*band+3] AS v3, sig[4*band+4] AS v4,
                   (CASE band {seed_case} END) AS h
            FROM sig CROSS JOIN (SELECT UNNEST(range(0, 16)) AS band) bd
          ),
           {fold_sql},
          banded AS (
            -- Python buckets on (h >> 1) with the band seed already
            -- folded into h; the 256 cap partitions by bucket VALUE
            SELECT doc_id, sig16, CAST(h >> 1 AS BIGINT) AS bucket,
                   ROW_NUMBER() OVER (PARTITION BY CAST(h >> 1 AS BIGINT)
                                      ORDER BY doc_id) AS rn
            FROM {prev}
          ),
          cand AS (
            SELECT DISTINCT x.doc_id AS a, y.doc_id AS b,
                   x.sig16 AS sa, y.sig16 AS sb
            FROM banded x JOIN banded y
              ON x.bucket = y.bucket AND x.doc_id < y.doc_id
            WHERE x.rn <= 256 AND y.rn <= 256
          ),
          scored AS (
            SELECT a, b,
                   list_sum(list_transform(range(1, 65),
                       i -> CASE WHEN sa[i] = sb[i] THEN 1 ELSE 0 END))
                   / 64.0 AS sim
            FROM cand
          )
        SELECT a, b, MAX(sim) AS sim FROM scored
        WHERE sim >= 0.6 GROUP BY a, b
    """


_MONTH_CASE = ' '.join(
    f"WHEN '{name}' THEN '{num:02d}'"
    for num, name in enumerate(
        ['января', 'февраля', 'марта', 'апреля', 'мая', 'июня', 'июля',
         'августа', 'сентября', 'октября', 'ноября', 'декабря'], start=1))


def _docscope_oracle_sql() -> str:
    """SQL re-derivation of document-scope mentions INCLUDING spans:
    doc offset = cumsum(turn lengths + 1-char separator) per conv_id +
    cumsum(sentence lengths + 3-char ' . ' separator) within the turn +
    the template's fixed prefix length; tokens and fact JSON rebuilt
    from the extracted template groups (mirrors stages/extract.py
    output over the generator templates in sources/transcripts.py)."""
    re_date1 = r"'^встреча (\d+) ([а-яё]+) (\d+) в офисе$'"
    re_date2 = r"'^дедлайн (\d{4})-(\d{2})-(\d{2}) подтвержден$'"
    re_money1 = ("'^бюджет составил (\\d+) (тысяч|миллионов)"
                 " (рублей|долларов)$'")
    re_money2 = r"'^это стоит (\d+) руб\.$'"
    re_person = ("'^на встрече был ([а-яё]+) ([А-ЯЁ][а-яё]+)"
                 " ([А-ЯЁ][а-яё]+)$'")
    re_clause = r"'^согласно ст\. (\d+) п\. (\d+) договора$'"
    re_title = r"'^обсудили документ «([а-яё]+) ([а-яё]+)»$'"
    re_addr1 = (r"'^офис находится на улице ([А-ЯЁ][а-яё]+)"
                r" дом (\d+)$'")
    re_addr2 = (r"'^встреча по адресу (проспект|шоссе)"
                r" ([А-ЯЁ][а-яё]+) д\. (\d+)$'")
    return f"""
        WITH turns AS (
            SELECT conv_id, turn_idx, text
            FROM read_parquet('{_transcript_glob()}')
        ), tlen AS (
            SELECT conv_id, text,
                   COALESCE(SUM(LEN(text) + 1) OVER (
                       PARTITION BY conv_id ORDER BY turn_idx
                       ROWS BETWEEN UNBOUNDED PRECEDING
                            AND 1 PRECEDING), 0) AS turn_off
            FROM turns
        ), sarr AS (
            SELECT conv_id, turn_off, STR_SPLIT(text, ' . ') AS sents
            FROM tlen
        ), sents AS (
            SELECT conv_id, sents[i] AS sent,
                   turn_off
                   + COALESCE(list_sum(list_transform(
                         sents[1:i-1], s -> LEN(s))), 0)
                   + 3*(i-1) AS sent_off
            FROM sarr, UNNEST(range(1, len(sents) + 1)) AS u(i)
        ), m AS (
            SELECT conv_id, 'date' AS rule,
                   sent_off + 8 AS span_start,
                   sent_off + 8 + LEN(d) + LEN(mes) + LEN(y) + 2
                       AS span_stop,
                   d || ' ' || mes || ' ' || y AS tokens_str,
                   '{{"day": ' || CAST(d AS BIGINT) || ', "month": '
                   || CAST((CASE mes {_MONTH_CASE} END) AS BIGINT)
                   || ', "year": ' || y || '}}' AS fact_json
            FROM (SELECT conv_id, sent_off,
                         REGEXP_EXTRACT(sent, {re_date1}, 1) AS d,
                         REGEXP_EXTRACT(sent, {re_date1}, 2) AS mes,
                         REGEXP_EXTRACT(sent, {re_date1}, 3) AS y
                  FROM sents WHERE REGEXP_MATCHES(sent, {re_date1}))
            UNION ALL
            SELECT conv_id, 'date',
                   sent_off + 8, sent_off + 18,
                   y || ' - ' || mo || ' - ' || d,
                   '{{"day": ' || CAST(d AS BIGINT) || ', "month": '
                   || CAST(mo AS BIGINT) || ', "year": '
                   || CAST(y AS BIGINT) || '}}'
            FROM (SELECT conv_id, sent_off,
                         REGEXP_EXTRACT(sent, {re_date2}, 1) AS y,
                         REGEXP_EXTRACT(sent, {re_date2}, 2) AS mo,
                         REGEXP_EXTRACT(sent, {re_date2}, 3) AS d
                  FROM sents WHERE REGEXP_MATCHES(sent, {re_date2}))
            UNION ALL
            SELECT conv_id, 'money',
                   sent_off + 16,
                   sent_off + 16 + LEN(n) + LEN(mult) + LEN(cur) + 2,
                   n || ' ' || mult || ' ' || cur,
                   '{{"amount": ' || CAST(n AS BIGINT)
                   || ', "currency": "'
                   || (CASE cur WHEN 'рублей' THEN 'RUB'
                       ELSE 'USD' END)
                   || '", "mult": '
                   || (CASE mult WHEN 'тысяч' THEN 1000
                       ELSE 1000000 END) || '}}'
            FROM (SELECT conv_id, sent_off,
                         REGEXP_EXTRACT(sent, {re_money1}, 1) AS n,
                         REGEXP_EXTRACT(sent, {re_money1}, 2) AS mult,
                         REGEXP_EXTRACT(sent, {re_money1}, 3) AS cur
                  FROM sents WHERE REGEXP_MATCHES(sent, {re_money1}))
            UNION ALL
            SELECT conv_id, 'money',
                   sent_off + 10, sent_off + 10 + LEN(n) + 5,
                   n || ' руб .',
                   '{{"amount": ' || CAST(n AS BIGINT)
                   || ', "currency": "RUB"}}'
            FROM (SELECT conv_id, sent_off,
                         REGEXP_EXTRACT(sent, {re_money2}, 1) AS n
                  FROM sents WHERE REGEXP_MATCHES(sent, {re_money2}))
            UNION ALL
            SELECT conv_id, 'person',
                   sent_off + 15,
                   sent_off + 15 + LEN(pos) + LEN(f) + LEN(l) + 2,
                   pos || ' ' || f || ' ' || l,
                   '{{"first": "' || LOWER(f) || '", "last": "'
                   || LOWER(l) || '", "position": "' || pos || '"}}'
            FROM (SELECT conv_id, sent_off,
                         REGEXP_EXTRACT(sent, {re_person}, 1) AS pos,
                         REGEXP_EXTRACT(sent, {re_person}, 2) AS f,
                         REGEXP_EXTRACT(sent, {re_person}, 3) AS l
                  FROM sents WHERE REGEXP_MATCHES(sent, {re_person}))
            UNION ALL
            SELECT conv_id, 'clause',
                   sent_off + 9,
                   sent_off + 9 + LEN(a) + LEN(b) + 8,
                   'ст . ' || a || ' п . ' || b,
                   '{{"article": ' || CAST(a AS BIGINT) || ', "sub": '
                   || CAST(b AS BIGINT) || '}}'
            FROM (SELECT conv_id, sent_off,
                         REGEXP_EXTRACT(sent, {re_clause}, 1) AS a,
                         REGEXP_EXTRACT(sent, {re_clause}, 2) AS b
                  FROM sents WHERE REGEXP_MATCHES(sent, {re_clause}))
            UNION ALL
            SELECT conv_id, 'title',
                   sent_off + 18,
                   sent_off + 18 + LEN(w1) + LEN(w2) + 3,
                   '« ' || w1 || ' ' || w2 || ' »',
                   '{{"text": "' || w1 || ' ' || w2 || '"}}'
            FROM (SELECT conv_id, sent_off,
                         REGEXP_EXTRACT(sent, {re_title}, 1) AS w1,
                         REGEXP_EXTRACT(sent, {re_title}, 2) AS w2
                  FROM sents WHERE REGEXP_MATCHES(sent, {re_title}))
            UNION ALL
            SELECT conv_id, 'address',
                   sent_off + 18,
                   sent_off + 18 + 11 + LEN(s) + LEN(n),
                   'улице ' || s || ' дом ' || n,
                   '{{"house": ' || CAST(n AS BIGINT)
                   || ', "street": "' || LOWER(s)
                   || '", "street_type": "улица"}}'
            FROM (SELECT conv_id, sent_off,
                         REGEXP_EXTRACT(sent, {re_addr1}, 1) AS s,
                         REGEXP_EXTRACT(sent, {re_addr1}, 2) AS n
                  FROM sents WHERE REGEXP_MATCHES(sent, {re_addr1}))
            UNION ALL
            SELECT conv_id, 'address',
                   sent_off + 18,
                   sent_off + 18 + 5 + LEN(st) + LEN(s) + LEN(n),
                   st || ' ' || s || ' д . ' || n,
                   '{{"house": ' || CAST(n AS BIGINT)
                   || ', "street": "' || LOWER(s)
                   || '", "street_type": "' || st || '"}}'
            FROM (SELECT conv_id, sent_off,
                         REGEXP_EXTRACT(sent, {re_addr2}, 1) AS st,
                         REGEXP_EXTRACT(sent, {re_addr2}, 2) AS s,
                         REGEXP_EXTRACT(sent, {re_addr2}, 3) AS n
                  FROM sents WHERE REGEXP_MATCHES(sent, {re_addr2}))
        )
        SELECT conv_id, rule, CAST(span_start AS BIGINT) AS span_start,
               CAST(span_stop AS BIGINT) AS span_stop, tokens_str,
               fact_json
        FROM m
    """


# the KG edge-aggregation SELECT (over the `trip` CTE) — shared by the
# kg_edges oracle and everything downstream of the edge table
_EDGES_SELECT = """
            SELECT SUBSTR(MD5(
                       (CASE WHEN pred = 'has_position' THEN 'person'
                             ELSE 'turn' END) || ':' || subj), 1, 16)
                       AS src,
                   SUBSTR(MD5(
                       (CASE pred
                            WHEN 'mentions_date' THEN 'date'
                            WHEN 'mentions_amount' THEN 'amount'
                            WHEN 'mentions_person' THEN 'person'
                            WHEN 'mentions_address' THEN 'address'
                            WHEN 'mentions_title' THEN 'title'
                            WHEN 'cites_clause' THEN 'clause'
                            WHEN 'has_position' THEN 'position'
                            ELSE 'value' END) || ':' || obj), 1, 16)
                       AS dst,
                   pred, COUNT(*) AS weight
            FROM trip GROUP BY src, dst, pred
"""


def _triples_cte():
    """WITH-clause SQL deriving every (non-deduped) triple occurrence."""
    return rf"""
        turns AS (
            SELECT conv_id, turn_idx, text
            FROM read_parquet('{_transcript_glob()}')
        ), sents AS (
            SELECT conv_id,
                   conv_id || ':' || CAST(turn_idx AS VARCHAR) AS turn_uid,
                   UNNEST(STR_SPLIT(text, ' . ')) AS sent
            FROM turns
        ), trip AS (
            -- 'встреча D <месяц-род.> Y в офисе' -> ISO date
            SELECT turn_uid AS subj, 'mentions_date' AS pred,
                   REGEXP_EXTRACT(sent,
                       '^встреча (\d+) ([а-яё]+) (\d+) в офисе$', 3)
                   || '-' ||
                   (CASE REGEXP_EXTRACT(sent,
                       '^встреча (\d+) ([а-яё]+) (\d+) в офисе$', 2)
                    {_MONTH_CASE} END)
                   || '-' ||
                   LPAD(REGEXP_EXTRACT(sent,
                       '^встреча (\d+) ([а-яё]+) (\d+) в офисе$', 1),
                       2, '0') AS obj
            FROM sents
            WHERE REGEXP_MATCHES(sent, '^встреча \d+ [а-яё]+ \d+ в офисе$')
            UNION ALL
            -- 'дедлайн YYYY-MM-DD подтвержден'
            SELECT turn_uid, 'mentions_date',
                   REGEXP_EXTRACT(sent,
                       '^дедлайн (\d{{4}}-\d{{2}}-\d{{2}}) подтвержден$', 1)
            FROM sents
            WHERE REGEXP_MATCHES(
                sent, '^дедлайн \d{{4}}-\d{{2}}-\d{{2}} подтвержден$')
            UNION ALL
            -- 'бюджет составил N тысяч|миллионов рублей|долларов'
            SELECT turn_uid, 'mentions_amount',
                   CAST(CAST(REGEXP_EXTRACT(sent,
                       '^бюджет составил (\d+) (тысяч|миллионов)'
                       || ' (рублей|долларов)$', 1) AS BIGINT)
                       * (CASE REGEXP_EXTRACT(sent,
                            '^бюджет составил (\d+) (тысяч|миллионов)'
                            || ' (рублей|долларов)$', 2)
                          WHEN 'тысяч' THEN 1000 ELSE 1000000 END)
                       AS VARCHAR)
                   || ' ' ||
                   (CASE REGEXP_EXTRACT(sent,
                        '^бюджет составил (\d+) (тысяч|миллионов)'
                        || ' (рублей|долларов)$', 3)
                    WHEN 'рублей' THEN 'RUB' ELSE 'USD' END)
            FROM sents
            WHERE REGEXP_MATCHES(sent,
                '^бюджет составил \d+ (тысяч|миллионов) (рублей|долларов)$')
            UNION ALL
            -- 'это стоит N руб.'
            SELECT turn_uid, 'mentions_amount',
                   REGEXP_EXTRACT(sent, '^это стоит (\d+) руб\.$', 1)
                   || ' RUB'
            FROM sents
            WHERE REGEXP_MATCHES(sent, '^это стоит \d+ руб\.$')
            UNION ALL
            -- 'на встрече был <должность> <Имя> <Фамилия>' (x2 triples)
            SELECT turn_uid, 'mentions_person',
                   LOWER(REGEXP_EXTRACT(sent,
                       '^на встрече был ([а-яё]+) ([А-ЯЁ][а-яё]+)'
                       || ' ([А-ЯЁ][а-яё]+)$', 2))
                   || ' ' ||
                   LOWER(REGEXP_EXTRACT(sent,
                       '^на встрече был ([а-яё]+) ([А-ЯЁ][а-яё]+)'
                       || ' ([А-ЯЁ][а-яё]+)$', 3))
            FROM sents
            WHERE REGEXP_MATCHES(sent,
                '^на встрече был [а-яё]+ [А-ЯЁ][а-яё]+ [А-ЯЁ][а-яё]+$')
            UNION ALL
            SELECT LOWER(REGEXP_EXTRACT(sent,
                       '^на встрече был ([а-яё]+) ([А-ЯЁ][а-яё]+)'
                       || ' ([А-ЯЁ][а-яё]+)$', 2))
                   || ' ' ||
                   LOWER(REGEXP_EXTRACT(sent,
                       '^на встрече был ([а-яё]+) ([А-ЯЁ][а-яё]+)'
                       || ' ([А-ЯЁ][а-яё]+)$', 3)),
                   'has_position',
                   REGEXP_EXTRACT(sent,
                       '^на встрече был ([а-яё]+) ([А-ЯЁ][а-яё]+)'
                       || ' ([А-ЯЁ][а-яё]+)$', 1)
            FROM sents
            WHERE REGEXP_MATCHES(sent,
                '^на встрече был [а-яё]+ [А-ЯЁ][а-яё]+ [А-ЯЁ][а-яё]+$')
            UNION ALL
            -- 'согласно ст. A п. B договора'
            SELECT turn_uid, 'cites_clause',
                   'ст.' || REGEXP_EXTRACT(sent,
                       '^согласно ст\. (\d+) п\. (\d+) договора$', 1)
                   || ' п.' || REGEXP_EXTRACT(sent,
                       '^согласно ст\. (\d+) п\. (\d+) договора$', 2)
            FROM sents
            WHERE REGEXP_MATCHES(
                sent, '^согласно ст\. \d+ п\. \d+ договора$')
            UNION ALL
            -- 'обсудили документ «...»'
            SELECT turn_uid, 'mentions_title',
                   REGEXP_EXTRACT(sent, '^обсудили документ «([^»]+)»$', 1)
            FROM sents
            WHERE REGEXP_MATCHES(sent, '^обсудили документ «[^»]+»$')
            UNION ALL
            -- 'офис находится на улице <Фамилия-род.> дом N'
            SELECT turn_uid, 'mentions_address',
                   'улица ' || LOWER(REGEXP_EXTRACT(sent,
                       '^офис находится на улице ([А-ЯЁ][а-яё]+)'
                       || ' дом (\d+)$', 1))
                   || ' ' || REGEXP_EXTRACT(sent,
                       '^офис находится на улице ([А-ЯЁ][а-яё]+)'
                       || ' дом (\d+)$', 2)
            FROM sents
            WHERE REGEXP_MATCHES(sent,
                '^офис находится на улице [А-ЯЁ][а-яё]+ дом \d+$')
            UNION ALL
            -- 'встреча по адресу проспект|шоссе <Фамилия-род.> д. N'
            SELECT turn_uid, 'mentions_address',
                   REGEXP_EXTRACT(sent,
                       '^встреча по адресу (проспект|шоссе)'
                       || ' ([А-ЯЁ][а-яё]+) д\. (\d+)$', 1)
                   || ' ' || LOWER(REGEXP_EXTRACT(sent,
                       '^встреча по адресу (проспект|шоссе)'
                       || ' ([А-ЯЁ][а-яё]+) д\. (\d+)$', 2))
                   || ' ' || REGEXP_EXTRACT(sent,
                       '^встреча по адресу (проспект|шоссе)'
                       || ' ([А-ЯЁ][а-яё]+) д\. (\d+)$', 3)
            FROM sents
            WHERE REGEXP_MATCHES(sent,
                '^встреча по адресу (проспект|шоссе)'
                || ' [А-ЯЁ][а-яё]+ д\. \d+$')
        )"""


def oracle_sql() -> dict[str, str]:
    # the transcript-derived oracles read the deterministic /tmp cache;
    # make sure it exists even if the SQL runs before the Ray queries
    _transcripts_for(_ORACLE_SF_DIR)
    out = _oracle_sql_dict()
    # incremental merge == full rebuild, bit for bit. The merged node
    # table carries the PIPELINE's degree semantics (incidences of
    # DISTINCT deduped triples — run_kg_pipeline builds nodes from the
    # deduped triples stage), so the oracle is the kg_nodes SQL with a
    # DISTINCT triple set; kg_nodes itself pins the raw-occurrence
    # semantics of canonicalize_nodes over non-deduped extractions.
    out['kg_incremental'] = f"""
        WITH {_triples_cte()}, dtrip AS (
            SELECT DISTINCT subj, pred, obj FROM trip
        ), incid AS (
            SELECT CASE WHEN pred = 'has_position' THEN 'person'
                        ELSE 'turn' END AS kind,
                   subj AS norm
            FROM dtrip
            UNION ALL
            SELECT CASE pred
                       WHEN 'mentions_date' THEN 'date'
                       WHEN 'mentions_amount' THEN 'amount'
                       WHEN 'mentions_person' THEN 'person'
                       WHEN 'mentions_address' THEN 'address'
                       WHEN 'mentions_title' THEN 'title'
                       WHEN 'cites_clause' THEN 'clause'
                       WHEN 'has_position' THEN 'position'
                       ELSE 'value' END AS kind,
                   obj AS norm
            FROM dtrip
        )
        SELECT SUBSTR(MD5(kind || ':' || norm), 1, 16) AS node_id,
               kind, norm, COUNT(*) AS degree
        FROM incid GROUP BY kind, norm
    """
    # two chained merges == one merge == one full rebuild: the chained
    # query shares the kg_incremental oracle verbatim
    out['kg_incremental2'] = out['kg_incremental']
    # degree distribution per kind over the node table; quantile_cont's
    # a*(1-f)+b*f interpolation matches group_quantiles bit-for-bit
    out['kg_degree_quantiles'] = f"""
        WITH nodes AS ({out['kg_nodes']})
        SELECT kind, QUANTILE_CONT(degree, 0.5) AS q50,
               QUANTILE_CONT(degree, 0.9) AS q90
        FROM nodes GROUP BY kind
    """
    # co-mention pairs: distinct per-conversation entity sets self-join
    # (a < b under binary collation == numpy codepoint order for UTF-8).
    # conv_id recovery: turn-uid subjects carry it; the has_position
    # person subj is always paired with a same-sentence mentions_person
    # obj (UNION dedups), so only the position entity needs its own
    # sentence-level branch.
    # shared by kg_comention / kg_pair_overlap: the distinct
    # per-conversation entity incidences
    ents_cte = """ents AS (
            SELECT DISTINCT SPLIT_PART(subj, ':', 1) AS conv_id,
                   (CASE pred
                        WHEN 'mentions_date' THEN 'date'
                        WHEN 'mentions_amount' THEN 'amount'
                        WHEN 'mentions_person' THEN 'person'
                        WHEN 'mentions_address' THEN 'address'
                        WHEN 'mentions_title' THEN 'title'
                        WHEN 'cites_clause' THEN 'clause'
                        ELSE 'value' END) || ':' || obj AS ent
            FROM trip WHERE pred <> 'has_position'
            UNION
            SELECT DISTINCT conv_id,
                   'position:' || REGEXP_EXTRACT(sent,
                       '^на встрече был ([а-яё]+) ([А-ЯЁ][а-яё]+)'
                       || ' ([А-ЯЁ][а-яё]+)$', 1) AS ent
            FROM sents
            WHERE REGEXP_MATCHES(sent,
                '^на встрече был [а-яё]+ [А-ЯЁ][а-яё]+ [А-ЯЁ][а-яё]+$')
        )"""
    coment_select = """
        SELECT SUBSTR(MD5(x.ent), 1, 16) AS src,
               SUBSTR(MD5(y.ent), 1, 16) AS dst,
               COUNT(*) AS weight
        FROM ents x JOIN ents y
          ON x.conv_id = y.conv_id AND x.ent < y.ent
        GROUP BY x.ent, y.ent"""
    out['kg_comention'] = f"""
        WITH {_triples_cte()}, {ents_cte}
        {coment_select}
    """
    # incremental co-mention merge == full rebuild, bit for bit
    out['kg_comention_inc'] = out['kg_comention']
    # conversation-set overlap per pair: |A∩B| (= the co-mention
    # weight) with each endpoint's distinct-conversation count
    out['kg_pair_overlap'] = f"""
        WITH {_triples_cte()}, {ents_cte},
        com AS ({coment_select}),
        cnt AS (
            SELECT SUBSTR(MD5(ent), 1, 16) AS id,
                   CAST(COUNT(DISTINCT conv_id) AS BIGINT) AS convs
            FROM ents GROUP BY ent
        )
        SELECT com.src, com.dst, com.weight,
               cs.convs AS convs_src, cd.convs AS convs_dst
        FROM com JOIN cnt cs ON cs.id = com.src
                 JOIN cnt cd ON cd.id = com.dst
    """
    # triangles of the strong co-mention graph: src < dst edges make
    # the oriented 3-way self-join (x<y<z) enumerate each triangle once
    out['kg_triangles'] = f"""
        WITH com AS ({out['kg_comention']}),
        e AS (SELECT src AS a, dst AS b FROM com WHERE weight >= 2),
        tri AS (
            SELECT e1.a AS x, e1.b AS y, e2.b AS z
            FROM e e1
            JOIN e e2 ON e2.a = e1.b
            JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b
        )
        SELECT node_id, CAST(COUNT(*) AS BIGINT) AS triangles
        FROM (SELECT x AS node_id FROM tri
              UNION ALL SELECT y FROM tri
              UNION ALL SELECT z FROM tri)
        GROUP BY node_id
    """
    # top-3 co-mention neighbors per entity, deterministic tiebreak
    out['kg_top_neighbors'] = f"""
        WITH com AS ({out['kg_comention']}),
        sym AS (
            SELECT src, dst, weight FROM com
            UNION ALL
            SELECT dst AS src, src AS dst, weight FROM com
        )
        SELECT src, dst, weight FROM sym
        QUALIFY ROW_NUMBER() OVER (
            PARTITION BY src ORDER BY weight DESC, dst) <= 3
    """
    # per-entity mention stats over object entities (has_position
    # excluded: its subject is a person, not a turn uid)
    out['kg_entity_stats'] = f"""
        WITH {_triples_cte()}, ents AS (
            SELECT CASE pred
                       WHEN 'mentions_date' THEN 'date'
                       WHEN 'mentions_amount' THEN 'amount'
                       WHEN 'mentions_person' THEN 'person'
                       WHEN 'mentions_address' THEN 'address'
                       WHEN 'mentions_title' THEN 'title'
                       WHEN 'cites_clause' THEN 'clause'
                       ELSE 'value' END AS kind,
                   obj AS norm,
                   SPLIT_PART(subj, ':', 1) AS conv_id
            FROM trip WHERE pred <> 'has_position'
        )
        SELECT kind, norm,
               CAST(COUNT(*) AS BIGINT) AS mentions,
               CAST(COUNT(DISTINCT conv_id) AS BIGINT) AS convs,
               MIN(conv_id) AS first_conv,
               MAX(conv_id) AS last_conv
        FROM ents GROUP BY kind, norm
    """
    # entity communities: recursive min-label walk over the strong
    # (weight >= 2) co-mention graph; int node keys = first 60 bits of
    # the md5 node id, mirroring q_kg_communities
    out['kg_communities'] = f"""
        WITH RECURSIVE {_triples_cte()}, ents AS (
            SELECT DISTINCT SPLIT_PART(subj, ':', 1) AS conv_id,
                   (CASE pred
                        WHEN 'mentions_date' THEN 'date'
                        WHEN 'mentions_amount' THEN 'amount'
                        WHEN 'mentions_person' THEN 'person'
                        WHEN 'mentions_address' THEN 'address'
                        WHEN 'mentions_title' THEN 'title'
                        WHEN 'cites_clause' THEN 'clause'
                        ELSE 'value' END) || ':' || obj AS ent
            FROM trip WHERE pred <> 'has_position'
            UNION
            SELECT DISTINCT conv_id,
                   'position:' || REGEXP_EXTRACT(sent,
                       '^на встрече был ([а-яё]+) ([А-ЯЁ][а-яё]+)'
                       || ' ([А-ЯЁ][а-яё]+)$', 1) AS ent
            FROM sents
            WHERE REGEXP_MATCHES(sent,
                '^на встрече был [а-яё]+ [А-ЯЁ][а-яё]+ [А-ЯЁ][а-яё]+$')
        ), strong AS (
            SELECT ('0x' || SUBSTR(MD5(x.ent), 1, 15))::BIGINT AS a,
                   ('0x' || SUBSTR(MD5(y.ent), 1, 15))::BIGINT AS b
            FROM ents x JOIN ents y
              ON x.conv_id = y.conv_id AND x.ent < y.ent
            GROUP BY x.ent, y.ent
            HAVING COUNT(*) >= 2
        ), cedges AS (
            SELECT a AS src, b AS dst FROM strong
            UNION ALL SELECT b, a FROM strong
        ), verts AS (SELECT DISTINCT src AS node FROM cedges),
        walk(node, comp) AS (
            SELECT node, node FROM verts
            UNION
            SELECT e.dst, w.comp
            FROM walk w JOIN cedges e ON e.src = w.node
        )
        SELECT node, MIN(comp) AS component FROM walk GROUP BY node
    """
    # 2-hop reach over the distinct KG edge set (same endpoint-id
    # derivation as kg_edges)
    out['kg_two_hop'] = f"""
        WITH {_triples_cte()}, e AS (
            SELECT DISTINCT
                SUBSTR(MD5(
                    (CASE WHEN pred = 'has_position' THEN 'person'
                          ELSE 'turn' END) || ':' || subj), 1, 16) AS src,
                SUBSTR(MD5(
                    (CASE pred
                         WHEN 'mentions_date' THEN 'date'
                         WHEN 'mentions_amount' THEN 'amount'
                         WHEN 'mentions_person' THEN 'person'
                         WHEN 'mentions_address' THEN 'address'
                         WHEN 'mentions_title' THEN 'title'
                         WHEN 'cites_clause' THEN 'clause'
                         WHEN 'has_position' THEN 'position'
                         ELSE 'value' END) || ':' || obj), 1, 16) AS dst
            FROM trip
        )
        SELECT e1.src AS node_id, COUNT(DISTINCT e2.dst) AS two_hop
        FROM e e1 JOIN e e2
          ON e1.dst = e2.src AND e2.dst <> e1.src
        GROUP BY e1.src
    """
    return out


def _oracle_sql_dict() -> dict[str, str]:
    return {
        'lineitem_agg': """
            SELECT l_returnflag, l_linestatus,
                   CAST(SUM(CAST(FLOOR(l_quantity*100 + 0.5) AS BIGINT))
                        AS BIGINT) AS sum_qty_cents,
                   CAST(SUM(CAST(FLOOR(l_extendedprice*100 + 0.5) AS BIGINT))
                        AS BIGINT) AS sum_price_cents,
                   COUNT(*) AS n_rows
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        'filter_project': """
            SELECT l_orderkey, l_linenumber,
                   CAST(FLOOR(l_extendedprice*(1-l_discount)*100 + 0.5)
                        AS BIGINT) AS revenue_cents
            FROM lineitem WHERE l_quantity > 45
        """,
        'topk_orders': """
            SELECT o_orderkey,
                   CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT)
                       AS total_cents
            FROM orders
            ORDER BY total_cents DESC, o_orderkey ASC LIMIT 10
        """,
        'distinct_segments': """
            SELECT DISTINCT c_mktsegment FROM customer
        """,
        'revenue_by_nation': """
            SELECT n_name,
                   CAST(SUM(CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT))
                        AS BIGINT) AS revenue_cents
            FROM orders
            JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            GROUP BY n_name
        """,
        'doc_token_count': r"""
            SELECT doc_id,
                   CASE WHEN TRIM(text) = '' THEN 0
                        ELSE LEN(REGEXP_SPLIT_TO_ARRAY(TRIM(text), '\s+'))
                   END AS n_tokens
            FROM documents
        """,
        'purchase_window_events': """
            WITH p AS (
                SELECT event_id AS pev, user_id,
                       ts - INTERVAL 1 HOUR AS wstart,
                       ts + INTERVAL 1 HOUR AS wstop
                FROM events WHERE event_type = 'purchase'
            )
            SELECT e.event_id, e.user_id, e.ts,
                   p.wstart, p.wstop, p.pev
            FROM events e
            JOIN p ON e.user_id = p.user_id
                  AND e.ts BETWEEN p.wstart AND p.wstop
        """,
        'doc_heavy_tokens': r"""
            WITH toks AS (
                SELECT UNNEST(REGEXP_SPLIT_TO_ARRAY(
                           TRIM(LOWER(text)), '\s+')) AS token
                FROM documents
            ), tt AS (
                SELECT COUNT(*) AS total FROM toks WHERE token <> ''
            )
            SELECT token, CAST(COUNT(*) AS BIGINT) AS n
            FROM toks, tt
            WHERE token <> ''
            GROUP BY token, tt.total
            HAVING COUNT(*) >= 0.01 * tt.total
        """,
        'user_kmv': r"""
            WITH d AS (SELECT DISTINCT user_id FROM events),
            m AS (
                SELECT ('0x' || SUBSTR(MD5(CAST(user_id AS VARCHAR)),
                                       1, 15))::BIGINT AS hv
                FROM d ORDER BY hv LIMIT 64
            )
            SELECT CAST(64 AS BIGINT) AS k,
                   CAST(COUNT(*) AS BIGINT) AS n_mins,
                   MAX(hv) AS kth,
                   CASE WHEN COUNT(*) < 64
                        THEN CAST(COUNT(*) AS DOUBLE)
                        ELSE (64 - 1) * 1152921504606846976.0 / MAX(hv)
                   END AS estimate
            FROM m
        """,
        'doc_decontam': r"""
            WITH words AS (
                SELECT doc_id,
                       REGEXP_SPLIT_TO_ARRAY(TRIM(LOWER(text)),
                                             '\s+') AS w,
                       CASE WHEN TRIM(text) = '' THEN 0
                            ELSE LEN(REGEXP_SPLIT_TO_ARRAY(TRIM(text),
                                                           '\s+'))
                       END AS nt
                FROM documents
            ), grams AS (
                SELECT doc_id,
                       w[i] || ' ' || w[i+1] || ' ' || w[i+2] AS g
                FROM words,
                     UNNEST(GENERATE_SERIES(1, GREATEST(nt - 2, 0)))
                         AS t(i)
            ), bench AS (
                SELECT DISTINCT g FROM grams WHERE doc_id < 50
            )
            SELECT w.doc_id,
                   CAST(GREATEST(w.nt - 2, 0) AS BIGINT) AS n_grams,
                   CAST(COALESCE(SUM(CASE WHEN g.g IN
                       (SELECT g FROM bench) THEN 1 ELSE 0 END), 0)
                       AS BIGINT) AS n_contaminated
            FROM words w LEFT JOIN grams g ON g.doc_id = w.doc_id
            WHERE w.doc_id >= 50
            GROUP BY w.doc_id, w.nt
        """,
        'doc_pack': r"""
            WITH toks AS (
                SELECT doc_id,
                       CASE WHEN TRIM(text) = '' THEN 0
                            ELSE LEN(REGEXP_SPLIT_TO_ARRAY(TRIM(text),
                                                           '\s+'))
                       END AS n_tokens
                FROM documents
            )
            SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
                   CAST(COALESCE(SUM(n_tokens) OVER (
                        ORDER BY doc_id
                        ROWS BETWEEN UNBOUNDED PRECEDING
                        AND 1 PRECEDING), 0) AS BIGINT) AS "offset",
                   CAST(COALESCE(SUM(n_tokens) OVER (
                        ORDER BY doc_id
                        ROWS BETWEEN UNBOUNDED PRECEDING
                        AND 1 PRECEDING), 0) // 2048 AS BIGINT)
                       AS pack_id
            FROM toks
        """,
        'doc_lang_id': r"""
            SELECT doc_id,
                   CASE WHEN n_cyr > n_lat THEN 'ru'
                        WHEN n_lat > 0 THEN 'en'
                        ELSE 'und' END AS lang_pred,
                   n_cyr, n_lat
            FROM (
                SELECT doc_id,
                       LENGTH(REGEXP_REPLACE(LOWER(text), '[^а-яё]', '', 'g'))
                           AS n_cyr,
                       LENGTH(REGEXP_REPLACE(LOWER(text), '[^a-z]', '', 'g'))
                           AS n_lat
                FROM documents)
        """,
        'doc_quality': r"""
            SELECT doc_id, n_chars, n_tokens,
                   CAST(FLOOR(1e6 * n_chars /
                              GREATEST(n_tokens, 1)) AS BIGINT)
                       AS avg_token_len_e6,
                   CAST(FLOOR(1e6 * n_punct /
                              GREATEST(n_chars, 1)) AS BIGINT)
                       AS punct_ratio_e6,
                   (n_tokens >= 5
                    AND CAST(n_punct AS DOUBLE) / GREATEST(n_chars, 1) < 0.2
                    AND CAST(n_chars AS DOUBLE) / GREATEST(n_tokens, 1)
                        BETWEEN 2.0 AND 16.0) AS passes
            FROM (
                SELECT doc_id,
                       LENGTH(text) AS n_chars,
                       CASE WHEN TRIM(text) = '' THEN 0
                            ELSE LEN(REGEXP_SPLIT_TO_ARRAY(TRIM(text), '\s+'))
                       END AS n_tokens,
                       LENGTH(REGEXP_REPLACE(text, '[^,\.;:!\?]', '', 'g'))
                           AS n_punct
                FROM documents)
        """,
        'doc_fingerprint': """
            SELECT doc_id, MD5(text) AS fp FROM documents
        """,
        'doc_dup_groups': """
            SELECT MD5(text) AS fp, MIN(doc_id) AS keep_doc_id,
                   COUNT(*) AS n_dups
            FROM documents GROUP BY MD5(text)
        """,
        'extract_ints': r"""
            SELECT event_id, UNNEST(REGEXP_EXTRACT_ALL(props, '\d+'))
                       AS value
            FROM events
        """,
        'user_funnel': """
            WITH u AS (SELECT DISTINCT user_id FROM events),
            s1 AS (SELECT user_id, MIN(ts) AS t FROM events
                   WHERE event_type = 'click' GROUP BY user_id),
            s2 AS (SELECT e.user_id, MIN(e.ts) AS t FROM events e
                   JOIN s1 ON e.user_id = s1.user_id AND e.ts > s1.t
                   WHERE e.event_type = 'view' GROUP BY e.user_id),
            s3 AS (SELECT e.user_id, MIN(e.ts) AS t FROM events e
                   JOIN s2 ON e.user_id = s2.user_id AND e.ts > s2.t
                   WHERE e.event_type = 'purchase' GROUP BY e.user_id)
            SELECT u.user_id,
                   CAST(CASE WHEN s3.user_id IS NOT NULL THEN 3
                             WHEN s2.user_id IS NOT NULL THEN 2
                             WHEN s1.user_id IS NOT NULL THEN 1
                             ELSE 0 END AS BIGINT) AS funnel_stage
            FROM u LEFT JOIN s1 ON u.user_id = s1.user_id
                   LEFT JOIN s2 ON u.user_id = s2.user_id
                   LEFT JOIN s3 ON u.user_id = s3.user_id
        """,
        'sessionize': """
            WITH marked AS (
                SELECT user_id, event_id, ts,
                       CAST(FLOOR(value*100 + 0.5) AS BIGINT) AS cents,
                       CASE WHEN ts - LAG(ts) OVER w > INTERVAL 30 MINUTE
                                 OR LAG(ts) OVER w IS NULL
                            THEN 1 ELSE 0 END AS is_new
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ), numbered AS (
                SELECT *, CAST(SUM(is_new) OVER (
                    PARTITION BY user_id ORDER BY ts, event_id
                    ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_id
                FROM marked
            )
            SELECT user_id, session_id, COUNT(*) AS n_events,
                   MIN(ts) AS start_ts, MAX(ts) AS end_ts,
                   CAST(SUM(cents) AS BIGINT) AS sum_value_cents
            FROM numbered GROUP BY user_id, session_id
        """,
        'session_assign': """
            WITH marked AS (
                SELECT user_id, event_id, ts,
                       CASE WHEN ts - LAG(ts) OVER w > INTERVAL 30 MINUTE
                                 OR LAG(ts) OVER w IS NULL
                            THEN 1 ELSE 0 END AS is_new
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ), numbered AS (
                SELECT *, CAST(SUM(is_new) OVER (
                    PARTITION BY user_id ORDER BY ts, event_id
                    ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_id
                FROM marked
            ), sessions AS (
                SELECT user_id, session_id,
                       MIN(ts) AS start_ts, MAX(ts) AS end_ts
                FROM numbered GROUP BY user_id, session_id
            )
            SELECT e.event_id, e.user_id, e.ts, s.session_id
            FROM events e JOIN sessions s
              ON e.user_id = s.user_id
                 AND e.ts BETWEEN s.start_ts AND s.end_ts
        """,
        'hopping_window': """
            WITH base AS (
                SELECT event_type, DATE_TRUNC('hour', ts) AS hb,
                       CAST(FLOOR(value*100 + 0.5) AS BIGINT) AS cents
                FROM events
            ), fan AS (
                SELECT event_type,
                       hb - (j * INTERVAL 1 HOUR) AS window_start, cents
                FROM base, UNNEST([0, 1, 2]) AS t(j)
            )
            SELECT event_type, window_start, COUNT(*) AS n_events,
                   CAST(SUM(cents) AS BIGINT) AS sum_value_cents
            FROM fan GROUP BY event_type, window_start
        """,
        'doc_split': """
            SELECT doc_id,
                   CASE WHEN b < 900000 THEN 'train'
                        WHEN b < 950000 THEN 'val'
                        ELSE 'test' END AS split
            FROM (SELECT doc_id,
                         CAST(md5_number_lower(CAST(doc_id AS VARCHAR))
                              AS HUGEINT) % 1000000 AS b
                  FROM documents)
        """,
        'doc_top_terms': r"""
            WITH toks AS (
                SELECT doc_id, UNNEST(REGEXP_SPLIT_TO_ARRAY(
                           TRIM(LOWER(text)), '\s+')) AS token
                FROM documents
            ), tf AS (
                SELECT doc_id, token, CAST(COUNT(*) AS BIGINT) AS tf
                FROM toks WHERE token <> '' GROUP BY doc_id, token
            ), df AS (
                SELECT token, CAST(COUNT(*) AS BIGINT) AS df
                FROM tf GROUP BY token
            )
            SELECT tf.doc_id, tf.token, tf.tf, df.df
            FROM tf JOIN df USING (token)
            QUALIFY ROW_NUMBER() OVER (
                PARTITION BY tf.doc_id ORDER BY tf.tf DESC, tf.token) <= 3
        """,
        'vocab_counts': r"""
            WITH toks AS (
                SELECT UNNEST(REGEXP_SPLIT_TO_ARRAY(
                           TRIM(LOWER(text)), '\s+')) AS token
                FROM documents
            )
            SELECT token, COUNT(*) AS n FROM toks
            WHERE token <> '' GROUP BY token HAVING COUNT(*) >= 2
        """,
        'topk_orders_per_cust': """
            WITH ranked AS (
                SELECT o_custkey, o_orderkey,
                       CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT)
                           AS total_cents,
                       ROW_NUMBER() OVER (
                           PARTITION BY o_custkey
                           ORDER BY CAST(FLOOR(o_totalprice*100 + 0.5)
                                         AS BIGINT) DESC,
                                    o_orderkey ASC) AS rn
                FROM orders
            )
            SELECT o_custkey, o_orderkey, total_cents
            FROM ranked WHERE rn <= 3
        """,
        'user_value_quantiles': """
            SELECT user_id,
                   quantile_cont(value, 0.5) AS q50,
                   quantile_cont(value, 0.9) AS q90
            FROM events GROUP BY user_id
        """,
        'stratified_sample': """
            WITH j AS (
                SELECT c.c_nationkey, o.o_orderkey
                FROM orders o JOIN customer c
                  ON o.o_custkey = c.c_custkey
            ), ranked AS (
                SELECT c_nationkey, o_orderkey,
                       ROW_NUMBER() OVER (
                           PARTITION BY c_nationkey
                           ORDER BY CAST(md5_number_lower(
                               CAST(o_orderkey AS VARCHAR)) AS HUGEINT)
                               % 1000000 ASC,
                               o_orderkey ASC) AS rn
                FROM j
            )
            SELECT c_nationkey, o_orderkey FROM ranked WHERE rn <= 5
        """,
        'priority_revenue': """
            SELECT o.o_orderpriority,
                   CAST(SUM(CAST(FLOOR(
                       l.l_extendedprice * (1 - l.l_discount) * 100
                       + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents
            FROM lineitem l JOIN orders o
              ON l.l_orderkey = o.o_orderkey
            GROUP BY o.o_orderpriority
        """,
        'cust_no_urgent': """
            SELECT c_custkey, c_name FROM customer c
            WHERE NOT EXISTS (SELECT 1 FROM orders o
                              WHERE o.o_custkey = c.c_custkey
                                AND o.o_orderpriority = '1-URGENT')
        """,
        'latest_user_event': """
            SELECT user_id, event_id, ts, event_type FROM (
                SELECT user_id, event_id, ts, event_type,
                       ROW_NUMBER() OVER (
                           PARTITION BY user_id
                           ORDER BY ts DESC, event_id ASC) AS rn
                FROM events
            ) WHERE rn = 1
        """,
        'cust_urgent_semi': """
            SELECT c_custkey, c_name, c_mktsegment FROM customer c
            WHERE EXISTS (SELECT 1 FROM orders o
                          WHERE o.o_custkey = c.c_custkey
                            AND o.o_orderpriority = '1-URGENT')
        """,
        'cust_totals_left': """
            SELECT c.c_custkey, c.c_name, t.total_cents
            FROM customer c LEFT JOIN (
                SELECT o_custkey,
                       CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5)
                                     AS BIGINT)) AS BIGINT) AS total_cents
                FROM orders GROUP BY o_custkey
            ) t ON t.o_custkey = c.c_custkey
        """,
        'doc_bpe_tokens': "SELECT doc_id, CAST(LEN(regexp_extract_all(text, $$'s|'t|'re|'ve|'m|'ll|'d| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+$$)) AS BIGINT) AS n_bpe_tokens FROM documents",
        'tumbling_window': """
            SELECT event_type, DATE_TRUNC('hour', ts) AS window_start,
                   COUNT(*) AS n_events,
                   CAST(SUM(CAST(FLOOR(value*100 + 0.5) AS BIGINT))
                        AS BIGINT) AS sum_value_cents
            FROM events GROUP BY event_type, DATE_TRUNC('hour', ts)
        """,
        'emb_topk': """
            SELECT CAST(0 AS BIGINT) AS query_id,
                   ROW_NUMBER() OVER (
                       ORDER BY list_cosine_similarity(
                           embedding,
                           (SELECT embedding FROM embeddings
                            WHERE vec_id = 0)) DESC,
                       vec_id ASC) - 1 AS rank,
                   vec_id
            FROM embeddings
            ORDER BY rank LIMIT 10
        """,
        'emb_topk_ivf_full': """
            WITH q AS (
                SELECT vec_id AS query_id, embedding AS qe
                FROM embeddings WHERE vec_id < 3
            ), scored AS (
                SELECT q.query_id,
                       ROW_NUMBER() OVER (
                           PARTITION BY q.query_id
                           ORDER BY list_cosine_similarity(
                               e.embedding, q.qe) DESC,
                           e.vec_id ASC) - 1 AS rank,
                       e.vec_id
                FROM q CROSS JOIN embeddings e
            )
            SELECT query_id, rank, vec_id FROM scored WHERE rank < 10
        """,
        'emb_near_dups_exact': f"""
            WITH aug AS (
                SELECT vec_id, embedding FROM embeddings
                UNION ALL
                SELECT -1 - vec_id AS vec_id, embedding
                FROM embeddings WHERE vec_id < {N_PLANTED}
            )
            SELECT x.vec_id AS a, y.vec_id AS b
            FROM aug x JOIN aug y ON x.vec_id < y.vec_id
            WHERE list_cosine_similarity(x.embedding, y.embedding) >= 0.95
        """,
        'ngram_pairs': r"""
            WITH d AS (
                SELECT doc_id,
                       LEN(REGEXP_SPLIT_TO_ARRAY(TRIM(text), '\s+'))
                           AS n_tok_band,
                       CASE WHEN TRIM(text) = '' THEN CAST([] AS VARCHAR[])
                            ELSE REGEXP_SPLIT_TO_ARRAY(
                                TRIM(LOWER(text)), '\s+')
                       END AS words
                FROM documents
            ), g AS (
                SELECT doc_id,
                       CAST(FLOOR(n_tok_band / 32.0) AS BIGINT) AS bucket,
                       CASE WHEN LEN(words) = 0 THEN CAST([] AS VARCHAR[])
                            WHEN LEN(words) < 3
                                THEN [ARRAY_TO_STRING(words, ' ')]
                            ELSE LIST_DISTINCT(LIST_TRANSFORM(
                                RANGE(1, LEN(words) - 1),
                                i -> ARRAY_TO_STRING(words[i:i+2], ' ')))
                       END AS grams
                FROM d
            ), ranked AS (
                SELECT *, ROW_NUMBER() OVER (
                    PARTITION BY bucket ORDER BY doc_id) AS rn
                FROM g
            ), scored AS (
                SELECT x.doc_id AS a, y.doc_id AS b,
                       CASE WHEN LEN(LIST_DISTINCT(
                                LIST_CONCAT(x.grams, y.grams))) = 0 THEN 1.0
                            ELSE CAST(LEN(LIST_INTERSECT(x.grams, y.grams))
                                      AS DOUBLE)
                                 / LEN(LIST_DISTINCT(
                                       LIST_CONCAT(x.grams, y.grams)))
                       END AS jaccard
                FROM ranked x JOIN ranked y
                  ON x.bucket = y.bucket AND x.doc_id < y.doc_id
                WHERE x.rn <= 256 AND y.rn <= 256
            )
            SELECT a, b, jaccard FROM scored WHERE jaccard >= 0.5
        """,
        'rolling_fingerprint': _rfp_oracle_sql(),
        'asof_purchase': """
            WITH l AS (
                SELECT event_id, user_id, ts FROM events
                WHERE event_type = 'click'
            ), r AS (
                SELECT user_id, ts, SUM(value) AS purchase_value
                FROM events WHERE event_type = 'purchase'
                GROUP BY user_id, ts
            )
            SELECT l.event_id, l.user_id, l.ts, r.purchase_value
            FROM l ASOF LEFT JOIN r
              ON l.user_id = r.user_id AND l.ts >= r.ts
        """,
        'simhash_pairs': _simhash_oracle_sql(),
        'dup_components': _dup_components_oracle_sql(),
        'dup_survivors': f"""
            WITH comp AS ({_dup_components_oracle_sql()}),
            tok AS (
                SELECT doc_id,
                       CASE WHEN TRIM(text) = '' THEN 0
                            ELSE LEN(REGEXP_SPLIT_TO_ARRAY(TRIM(text),
                                                           '\\s+'))
                       END AS n_tokens
                FROM documents
            ), j AS (
                SELECT c.component, c.node AS doc_id, t.n_tokens
                FROM comp c JOIN tok t ON t.doc_id = c.node
            )
            SELECT component,
                   doc_id AS keep_doc_id,
                   CAST(n_tokens AS BIGINT) AS keep_tokens,
                   CAST(n_members AS BIGINT) AS n_members
            FROM (
                SELECT component, doc_id, n_tokens,
                       ROW_NUMBER() OVER (
                           PARTITION BY component
                           ORDER BY n_tokens DESC, doc_id) AS rn,
                       COUNT(*) OVER (PARTITION BY component)
                           AS n_members
                FROM j)
            WHERE rn = 1
        """,
        'minhash_pairs': _minhash_oracle_sql(),
        'kg_triples': f"""
            WITH {_triples_cte()}
            SELECT DISTINCT subj, pred, obj FROM trip
        """,
        'kg_address': f"""
            WITH {_triples_cte()}
            SELECT DISTINCT subj, pred, obj FROM trip
            WHERE pred = 'mentions_address'
        """,
        'kg_nodes': f"""
            WITH {_triples_cte()}, incid AS (
                SELECT CASE WHEN pred = 'has_position' THEN 'person'
                            ELSE 'turn' END AS kind,
                       subj AS norm
                FROM trip
                UNION ALL
                SELECT CASE pred
                           WHEN 'mentions_date' THEN 'date'
                           WHEN 'mentions_amount' THEN 'amount'
                           WHEN 'mentions_person' THEN 'person'
                           WHEN 'mentions_address' THEN 'address'
                           WHEN 'mentions_title' THEN 'title'
                           WHEN 'cites_clause' THEN 'clause'
                           WHEN 'has_position' THEN 'position'
                           ELSE 'value' END AS kind,
                       obj AS norm
                FROM trip
            )
            SELECT SUBSTR(MD5(kind || ':' || norm), 1, 16) AS node_id,
                   kind, norm, COUNT(*) AS degree
            FROM incid GROUP BY kind, norm
        """,
        'kg_edges': f"""
            WITH {_triples_cte()}
            {_EDGES_SELECT}
        """,
        'kg_linked': f"""
            WITH {_triples_cte()}
            SELECT DISTINCT subj, pred, obj,
                   'POS:' || REPLACE(obj, ' ', '-') AS entity_id,
                   TRUE AS linked
            FROM trip WHERE pred = 'has_position'
        """,
        'kg_mentions_docscope': _docscope_oracle_sql(),
        'kg_mention_counts': rf"""
            WITH {_triples_cte()}, m AS (
                SELECT conv_id,
                       CASE
                         WHEN REGEXP_MATCHES(sent,
                             '^встреча \d+ [а-яё]+ \d+ в офисе$')
                           OR REGEXP_MATCHES(sent,
                             '^дедлайн \d{{4}}-\d{{2}}-\d{{2}} подтвержден$')
                           THEN 'date'
                         WHEN REGEXP_MATCHES(sent,
                             '^бюджет составил \d+ (тысяч|миллионов)'
                             || ' (рублей|долларов)$')
                           OR REGEXP_MATCHES(sent, '^это стоит \d+ руб\.$')
                           THEN 'money'
                         WHEN REGEXP_MATCHES(sent,
                             '^на встрече был [а-яё]+ [А-ЯЁ][а-яё]+'
                             || ' [А-ЯЁ][а-яё]+$')
                           THEN 'person'
                         WHEN REGEXP_MATCHES(sent,
                             '^согласно ст\. \d+ п\. \d+ договора$')
                           THEN 'clause'
                         WHEN REGEXP_MATCHES(sent,
                             '^обсудили документ «[^»]+»$')
                           THEN 'title'
                         WHEN REGEXP_MATCHES(sent,
                             '^офис находится на улице [А-ЯЁ][а-яё]+'
                             || ' дом \d+$')
                           OR REGEXP_MATCHES(sent,
                             '^встреча по адресу (проспект|шоссе)'
                             || ' [А-ЯЁ][а-яё]+ д\. \d+$')
                           THEN 'address'
                       END AS rule
                FROM sents
            )
            SELECT conv_id, rule, COUNT(*) AS n_mentions
            FROM m WHERE rule IS NOT NULL
            GROUP BY conv_id, rule
        """,
        'doc_reconstruct': f"""
            SELECT conv_id, COUNT(*) AS n_turns,
                   CAST(SUM(CAST(md5_number_lower(
                           conv_id || chr(31) || CAST(turn_idx AS VARCHAR)
                           || chr(31) || text) AS HUGEINT)
                        % CAST(9223372036854775808 AS HUGEINT))
                        % CAST(9223372036854775808 AS HUGEINT)
                        AS BIGINT) AS checksum
            FROM read_parquet('{_transcript_glob()}')
            GROUP BY conv_id
        """,
        # pinned golden fixture: expected FakeCodec features re-derived
        # from first principles by scripts/make_multimodal_fixture.py
        # (committed parquet) — bit-for-bit, not merely rows-only
        'multimodal_features': f"""
            SELECT media_id, f0, f1, f2
            FROM read_parquet('{_MULTIMODAL_FIXTURE}')
        """,
        # pinned golden fixture: expected StdlibCodec WAV-decode
        # features re-derived from first principles by
        # scripts/make_multimodal_audio_fixture.py (committed parquet)
        'multimodal_audio': f"""
            SELECT media_id, n_samples, pcm_sumsq
            FROM read_parquet('{_MULTIMODAL_AUDIO_FIXTURE}')
        """,
        'orders_rollup': """
            SELECT o_orderpriority, o_orderstatus,
                   CAST(SUM(CAST(FLOOR(o_totalprice*100 + 0.5)
                                 AS BIGINT)) AS BIGINT) AS total_cents,
                   COUNT(*) AS n_rows,
                   CAST(GROUPING(o_orderpriority, o_orderstatus)
                        AS BIGINT) AS lvl
            FROM orders
            GROUP BY ROLLUP(o_orderpriority, o_orderstatus)
        """,
        'order_price_histogram': """
            WITH c AS (
                SELECT LEAST(CAST(FLOOR(
                           CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT)
                           / 5000000) AS BIGINT), 9) AS bucket,
                       COUNT(*) AS n
                FROM orders GROUP BY bucket)
            SELECT t.bucket, CAST(COALESCE(c.n, 0) AS BIGINT) AS n
            FROM RANGE(0, 10) t(bucket)
            LEFT JOIN c ON t.bucket = c.bucket
        """,
        'event_gaps': """
            SELECT event_id, user_id,
                   DATE_DIFF('microseconds',
                             LAG(ts) OVER (PARTITION BY user_id
                                           ORDER BY ts, event_id),
                             ts) AS gap_us
            FROM events
        """,
        'user_event_pivot': """
            SELECT user_id,
                   COUNT(*) FILTER (event_type = 'click') AS n_click,
                   COUNT(*) FILTER (event_type = 'error') AS n_error,
                   COUNT(*) FILTER (event_type = 'purchase')
                       AS n_purchase,
                   COUNT(*) FILTER (event_type = 'signup') AS n_signup,
                   COUNT(*) FILTER (event_type = 'view') AS n_view
            FROM events GROUP BY user_id
        """,
        'event_transitions': """
            WITH nxt AS (
                SELECT event_type AS from_type,
                       LEAD(event_type) OVER (
                           PARTITION BY user_id
                           ORDER BY ts, event_id) AS to_type
                FROM events
            )
            SELECT from_type, to_type, COUNT(*) AS n
            FROM nxt WHERE to_type IS NOT NULL
            GROUP BY from_type, to_type
        """,
        'promo_revenue': """
            SELECT CAST(SUM(CASE WHEN p_type = 'PROMO'
                       THEN CAST(FLOOR(l_extendedprice * (1 - l_discount)
                                 * 100 + 0.5) AS BIGINT)
                       ELSE 0 END) AS BIGINT) AS promo_cents,
                   CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount)
                                 * 100 + 0.5) AS BIGINT)) AS BIGINT)
                       AS total_cents
            FROM lineitem JOIN part ON l_partkey = p_partkey
            WHERE l_shipdate >= TIMESTAMP '1996-09-01'
              AND l_shipdate <  TIMESTAMP '1996-10-01'
        """,
        'local_supplier_revenue': """
            SELECT n_name,
                   CAST(SUM(CAST(FLOOR(
                       l_extendedprice * (1 - l_discount) * 100 + 0.5)
                       AS BIGINT)) AS BIGINT) AS revenue_cents
            FROM lineitem
            JOIN orders   ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN nation   ON c_nationkey = n_nationkey
            JOIN region   ON n_regionkey = r_regionkey
            WHERE r_name = 'ASIA'
              AND s_nationkey = c_nationkey
              AND o_orderdate >= TIMESTAMP '1996-01-01'
              AND o_orderdate <  TIMESTAMP '1997-01-01'
            GROUP BY n_name
        """,
        'doc_tagged_phrases': r"""
            SELECT doc_id, phrase,
                   CAST(LENGTH(phrase) - LENGTH(REPLACE(phrase, ' ', ''))
                        + 1 AS BIGINT) AS n_tokens
            FROM (
                SELECT doc_id, UNNEST(REGEXP_EXTRACT_ALL(text,
                    '\b(?:table|scan|join|merge|sort|filter)'
                    '(?: (?:table|scan|join|merge|sort|filter))*\b'))
                    AS phrase
                FROM documents
            )
        """,
        'bigram_counts': r"""
            WITH toks AS (
                SELECT doc_id,
                       UNNEST(REGEXP_SPLIT_TO_ARRAY(
                           TRIM(LOWER(text)), '\s+')) AS tok,
                       GENERATE_SUBSCRIPTS(REGEXP_SPLIT_TO_ARRAY(
                           TRIM(LOWER(text)), '\s+'), 1) AS ord
                FROM documents WHERE TRIM(text) <> ''
            ), bigrams AS (
                SELECT a.doc_id, a.tok || ' ' || b.tok AS bigram
                FROM toks a
                JOIN toks b ON a.doc_id = b.doc_id AND b.ord = a.ord + 1
            )
            SELECT bigram, COUNT(*) AS n FROM bigrams
            GROUP BY bigram HAVING COUNT(*) >= 2
        """,
        'doc_repetition': r"""
            WITH toks AS (
                SELECT doc_id,
                       UNNEST(REGEXP_SPLIT_TO_ARRAY(
                           TRIM(LOWER(text)), '\s+')) AS tok,
                       GENERATE_SUBSCRIPTS(REGEXP_SPLIT_TO_ARRAY(
                           TRIM(LOWER(text)), '\s+'), 1) AS ord
                FROM documents WHERE TRIM(text) <> ''
            ), bigrams AS (
                SELECT a.doc_id, a.tok || ' ' || b.tok AS bigram
                FROM toks a
                JOIN toks b ON a.doc_id = b.doc_id AND b.ord = a.ord + 1
            ), per_doc AS (
                SELECT doc_id, COUNT(*) AS n_grams,
                       COUNT(DISTINCT bigram) AS n_distinct
                FROM bigrams GROUP BY doc_id
            )
            SELECT d.doc_id,
                   CAST(COALESCE(p.n_grams, 0) AS BIGINT) AS n_grams,
                   CAST(COALESCE(p.n_distinct, 0) AS BIGINT)
                       AS n_distinct
            FROM documents d LEFT JOIN per_doc p USING (doc_id)
        """,
        'unshipped_revenue': """
            SELECT o_orderkey, o_orderdate,
                   CAST(SUM(CAST(FLOOR(
                       l_extendedprice * (1 - l_discount) * 100 + 0.5)
                       AS BIGINT)) AS BIGINT) AS revenue_cents
            FROM customer, orders, lineitem
            WHERE c_mktsegment = 'BUILDING'
              AND c_custkey = o_custkey
              AND l_orderkey = o_orderkey
              AND o_orderdate < TIMESTAMP '1998-01-01 00:00:00'
              AND l_shipdate > TIMESTAMP '1998-01-01 00:00:00'
            GROUP BY o_orderkey, o_orderdate
            ORDER BY revenue_cents DESC, o_orderdate, o_orderkey
            LIMIT 10
        """,
        'collocations': r"""
            WITH toks AS (
                SELECT doc_id,
                       UNNEST(REGEXP_SPLIT_TO_ARRAY(
                           TRIM(LOWER(text)), '\s+')) AS tok,
                       GENERATE_SUBSCRIPTS(REGEXP_SPLIT_TO_ARRAY(
                           TRIM(LOWER(text)), '\s+'), 1) AS ord
                FROM documents WHERE TRIM(text) <> ''
            ), uni AS (
                SELECT tok AS token, COUNT(*) AS n
                FROM toks WHERE tok <> '' GROUP BY tok
            ), bi AS (
                SELECT a.tok || ' ' || b.tok AS bigram,
                       a.tok AS w1, b.tok AS w2, COUNT(*) AS n_ab
                FROM toks a
                JOIN toks b ON a.doc_id = b.doc_id AND b.ord = a.ord + 1
                GROUP BY 1, 2, 3 HAVING COUNT(*) >= 5
            )
            SELECT bigram, n_ab, ua.n AS n_a, ub.n AS n_b
            FROM bi
            JOIN uni ua ON bi.w1 = ua.token
            JOIN uni ub ON bi.w2 = ub.token
        """,
        'kg_degree_corr': f"""
            WITH {_triples_cte()}, edges AS (
                {_EDGES_SELECT}
            ), deg AS (
                SELECT node, COUNT(*) AS degree FROM (
                    SELECT src AS node FROM edges
                    UNION ALL SELECT dst AS node FROM edges)
                GROUP BY node
            )
            SELECT COUNT(*) AS n_edges,
                   CAST(SUM(du.degree) AS BIGINT) AS sum_du,
                   CAST(SUM(dv.degree) AS BIGINT) AS sum_dv,
                   CAST(SUM(du.degree * dv.degree) AS BIGINT)
                       AS sum_du_dv,
                   CAST(SUM(du.degree * du.degree) AS BIGINT)
                       AS sum_du2,
                   CAST(SUM(dv.degree * dv.degree) AS BIGINT)
                       AS sum_dv2
            FROM edges e
            JOIN deg du ON e.src = du.node
            JOIN deg dv ON e.dst = dv.node
        """,
    }

"""The knowledge-graph construction pipeline (the engine's flagship).

transcripts parquet
  -> extraction (task map_batches on warm workers; per-turn, no shuffle)
  -> triple projection (fused map)
  -> exact dedup            (shuffle 1: hash partition on triple key)
  -> node canonicalization  (shuffle 2: groupby normalized form)
  -> edge aggregation       (shuffle 3: groupby edge key)
  -> partitioned parquet writes + lineage manifests (resumable)

Scale notes (BASELINE.json north_rule):
* Extraction is embarrassingly parallel over turns — the dominant cost
  at 10^12 turns — and streams: no stage materializes the full input.
* Both wide stages pre-aggregate inside ``map_batches`` (map-side
  combine) before the shuffle, so shuffle volume is proportional to the
  number of DISTINCT triples/nodes/edges per block, not to raw row
  count.
* Giant conversations don't matter to extraction (per-turn); document
  reconstruction (documents.py) hashes every conversation to one
  partition and reduces it in one vectorized pass, giants included.
* All outputs carry a ``part`` column (the layout partition of the
  natural key, ``stages/exchange.py``) and are written with
  ``partition_cols=['part']`` so a resumed run can skip finished
  partitions and downstream readers can prune.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa
import pyarrow.compute as pc

from yargy_ray.grammars import DEFAULT_FACTORIES
from yargy_ray.stages.exchange import (
    _hash64,
    check_layout,
    layout_partition,
    partitioned_reduce,
    sum_by,
)
from yargy_ray.stages.compute import map_cached
from yargy_ray.stages.extract import (
    CAPPED_RULE,
    extract_mentions,
    project_triples,
)
from yargy_ray.state import storage
from yargy_ray.state.manifests import fingerprint, run_stage


def node_id_of(norm: str) -> str:
    """Content-hash node id: stable across runs and cluster sizes.

    md5 (not sha1) so SQL oracles can recompute it:
    ``SUBSTR(MD5(s), 1, 16)`` in DuckDB yields the same id.

    Collision budget (64 bits of md5): node ids are JOIN/display
    identifiers, never dedup keys — the node table aggregates on the
    full ``(node_id, kind, norm)`` triple, so two distinct nodes
    sharing an id cannot merge there. The only aliasing surface is
    edge endpoints (``src``/``dst`` carry the id alone): at 10^10
    distinct nodes the birthday bound expects ~3 aliased endpoint
    pairs — graph-metric noise, not data loss. Widening is one edit
    here plus the matching ``SUBSTR(MD5(..), 1, N)`` in the oracles
    if a deployment needs a larger id space.
    """
    return hashlib.md5(norm.encode()).hexdigest()[:16]


def _triple_key(table: pa.Table):
    """The full (subj, pred, obj) identity string — the EXACT dedup
    key. ``\\x1f`` never occurs in extracted surfaces."""
    return pc.binary_join_element_wise(
        table.column('subj').cast(pa.string()),
        table.column('pred').cast(pa.string()),
        table.column('obj').cast(pa.string()),
        '\x1f')


def _exact_first_indices(key_arr) -> 'pa.Array':
    """Row indices of the FIRST occurrence of each distinct value,
    comparing full string values (dictionary encoding), never hashes —
    two distinct triples colliding on a 64-bit hash both survive.
    ``combine_chunks`` first: per-chunk dictionary codes would not be
    comparable across chunks."""
    import numpy as np
    if isinstance(key_arr, pa.ChunkedArray):
        key_arr = key_arr.combine_chunks()
    codes = key_arr.dictionary_encode().indices.to_numpy(
        zero_copy_only=False)
    _, first_idx = np.unique(codes, return_index=True)
    return pa.array(np.sort(first_idx))


# ---------------------------------------------------------------------------
# Triple dedup
# ---------------------------------------------------------------------------

def _batch_prededup(batch: pa.Table) -> pa.Table:
    """Map-side combiner: drop duplicate triples within a batch and add
    the 64-bit shuffle key. Runs before the exchange, shrinking it.

    ``tkey`` only ROUTES (identical triples co-locate); identity is the
    full (subj, pred, obj) value — a 64-bit collision between distinct
    triples cannot drop either one."""
    key = _triple_key(batch)
    batch = batch.append_column('tkey', _hash64(key))
    return batch.take(_exact_first_indices(key))


def _dedup_block(table: pa.Table) -> pa.Table:
    """Vectorized first-per-TRIPLE over a whole partition. The reduce
    recomputes the full identity string: ``tkey`` routed the rows here,
    but equality is decided on the values themselves."""
    return table.take(_exact_first_indices(_triple_key(table)))


def dedup_triples(triples_ds, num_partitions=64, prededuped=False,
                  coalesce='auto'):
    """Exact global dedup: map-side combine, ONE partition-wise shuffle,
    vectorized first-per-key reduce.

    The (s,p,o) triple is the unit of correctness; provenance columns of
    the surviving row are advisory (rows in a key group are equal on the
    key by construction).

    ``prededuped=True`` means the input already carries ``tkey`` and is
    batch-deduped (e.g. it came from :class:`TripleExtractor`), so only
    the exchange + reduce remain.
    """
    if prededuped:
        combined = triples_ds
    else:
        combined = triples_ds.map_batches(
            _batch_prededup, batch_format='pyarrow', batch_size=8192)
    return partitioned_reduce(combined, 'tkey', _dedup_block,
                              num_partitions, coalesce=coalesce)


class TripleExtractor:
    """Fused extractor: turns -> deduped triple rows with ``tkey``.

    Runs mention extraction, triple projection and the map-side dedup
    combine inside ONE map operator. Rationale (measured at 32 cpus,
    sf0.1): extraction capped at ``cpus - 1`` leaves a single CPU for
    every downstream task operator; keeping projection/prededup as
    separate task stages serialized ~19s of work behind extraction and
    capped 8->32 cpu scaling at ~0.55. Fused, the only post-extraction
    work is the partition exchange + vectorized reduce + write (~2s).
    """

    def __init__(self, factory_paths=DEFAULT_FACTORIES, max_states=None):
        from yargy_ray.stages.extract import (
            MentionExtractor,
            TripleProjector,
        )
        self.extract = MentionExtractor(factory_paths, max_states)
        self.project = TripleProjector(factory_paths)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _batch_prededup(self.project(self.extract(batch)))


def extract_triples(turns_ds, factory_paths=DEFAULT_FACTORIES,
                    concurrency=(1, 8), batch_size=256, max_states=None):
    """turns Dataset -> batch-deduped triples (+``tkey``) in one fused
    stage of :class:`TripleExtractor` tasks on warm workers, at most
    ``concurrency`` at a time; feed into
    ``dedup_triples(..., prededuped=True)``."""
    return map_cached(turns_ds, TripleExtractor,
                      {'factory_paths': tuple(factory_paths),
                       'max_states': max_states},
                      concurrency, batch_size)


# ---------------------------------------------------------------------------
# Node canonicalization
# ---------------------------------------------------------------------------

OBJ_KIND = {
    'mentions_date': 'date',
    'mentions_amount': 'amount',
    'mentions_person': 'person',
    'mentions_address': 'address',
    'mentions_title': 'title',
    'cites_clause': 'clause',
    'has_position': 'position',
}
_OKIND_KEYS = pa.array(list(OBJ_KIND), type=pa.string())
_OKIND_VALS = pa.array(list(OBJ_KIND.values()) + ['value'],
                       type=pa.string())


def _subj_kind(pred):
    """Vectorized subject-node kind: person for has_position, else turn."""
    return pc.if_else(pc.equal(pred, 'has_position'),
                      pa.scalar('person'), pa.scalar('turn'))


def _obj_kind(pred):
    """Vectorized object-node kind via dictionary lookup (index_in +
    take; unknown predicates fall back to 'value')."""
    idx = pc.fill_null(pc.index_in(pred, value_set=_OKIND_KEYS),
                       len(OBJ_KIND))
    return pc.take(_OKIND_VALS, idx)


def _emit_node_counts(batch: pa.Table) -> pa.Table:
    """Triples -> partial node rows (map-side pre-aggregation).

    subj of every triple is an entity/turn node; obj likewise. ``kind``
    comes from the predicate domain; ``norm`` is the canonical surface.
    Combine is an Arrow hash groupby; only the content-hash node ids of
    the DISTINCT (kind, norm) rows run per-row Python.
    """
    pred = batch.column('pred')
    incid = pa.concat_tables([
        pa.table({'kind': _subj_kind(pred), 'norm': batch.column('subj')}),
        pa.table({'kind': _obj_kind(pred), 'norm': batch.column('obj')}),
    ])
    agg = pa.TableGroupBy(incid, ['kind', 'norm']).aggregate(
        [([], 'count_all')])
    kinds = agg.column('kind').to_pylist()
    norms = agg.column('norm').to_pylist()
    return pa.table({
        'node_id': pa.array(
            [node_id_of(f'{k}:{n}') for k, n in zip(kinds, norms)],
            type=pa.string()),
        'kind': agg.column('kind'),
        'norm': agg.column('norm'),
        'degree': agg.column('count_all').cast(pa.int64()),
    })


def canonicalize_nodes(triples_ds, num_partitions=64):
    """Distinct nodes with degrees: map-side combine, then ONE hash
    exchange + in-partition pandas sum — one group per distinct node
    is the near-unique regime where Ray's native sort-aggregate
    degenerates (BASELINE stress notes)."""
    partial = triples_ds.map_batches(
        _emit_node_counts, batch_format='pyarrow', batch_size=8192)
    return sum_by(partial, ['node_id', 'kind', 'norm'], 'degree',
                  num_partitions)


# ---------------------------------------------------------------------------
# Edge aggregation
# ---------------------------------------------------------------------------

def _emit_edge_counts(batch: pa.Table) -> pa.Table:
    """Triples -> partial edge rows. Arrow hash groupby combine; the
    content-hash endpoint ids run only over the distinct edges of the
    batch. conv_id provenance keeps the min (deterministic)."""
    agg = pa.TableGroupBy(
        batch.select(['subj', 'pred', 'obj', 'conv_id']),
        ['subj', 'pred', 'obj']).aggregate(
        [('conv_id', 'min'), ([], 'count_all')])
    skinds = _subj_kind(agg.column('pred')).to_pylist()
    okinds = _obj_kind(agg.column('pred')).to_pylist()
    subjs = agg.column('subj').to_pylist()
    objs = agg.column('obj').to_pylist()
    return pa.table({
        'src': pa.array(
            [node_id_of(f'{k}:{s}') for k, s in zip(skinds, subjs)],
            type=pa.string()),
        'dst': pa.array(
            [node_id_of(f'{k}:{o}') for k, o in zip(okinds, objs)],
            type=pa.string()),
        'pred': agg.column('pred'),
        'weight': agg.column('count_all').cast(pa.int64()),
        'conv_id': agg.column('conv_id_min'),
    })


def aggregate_edges(triples_ds, num_partitions=64):
    """Distinct edges with weights — same hash-exchange shape as
    :func:`canonicalize_nodes` (one group per distinct edge)."""
    partial = triples_ds.map_batches(
        _emit_edge_counts, batch_format='pyarrow', batch_size=8192)
    return sum_by(partial, ['src', 'dst', 'pred'], 'weight',
                  num_partitions)


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

def _write_partitioned(ds, out_dir, key_column, num_partitions=16):
    """Parquet write in the layout partitions of ``key_column``; returns
    manifest partition rows.

    Row counts come from the written files' parquet FOOTERS (metadata
    only, no data read) — counting via a second ``ds.groupby`` would
    re-execute the whole upstream pipeline a second time. All path IO
    runs through the storage seam (``state/storage.py``), so
    ``out_dir`` may be a shared-storage URI.
    """
    def add_part(batch: pa.Table) -> pa.Table:
        return batch.append_column('part', layout_partition(
            batch.column(key_column), num_partitions))

    ds = ds.map_batches(add_part, batch_format='pyarrow')
    ds.write_parquet(out_dir, partition_cols=['part'])
    return [{'partition_id': pid, 'rows': storage.dir_rows(d)}
            for pid, d in sorted(storage.part_dirs(out_dir).items())]


def run_kg_pipeline(transcripts_path, out_root,
                    factory_paths=DEFAULT_FACTORIES,
                    concurrency=(1, 8), batch_size=128,
                    num_partitions=16, resume=True):
    """Full KG build: returns dict of stage -> manifest.

    ``num_partitions`` must be a power of two (the layout is
    ``hash64 & (P-1)``, ``stages/exchange.py``); it is recorded in every
    stage manifest so that
    :func:`~yargy_ray.pipelines.incremental.merge_kg_delta` can refuse a
    merge whose layout disagrees with the base build.
    """
    import ray.data

    check_layout(num_partitions)
    fp = fingerprint('kg', transcripts_path, tuple(factory_paths),
                     num_partitions)
    layout = {'num_partitions': num_partitions}
    manifests = {}

    mentions_dir = storage.join(out_root, 'mentions')
    triples_dir = storage.join(out_root, 'triples')

    def build_mentions(out_dir):
        turns = ray.data.read_parquet(
            transcripts_path,
            columns=['conv_id', 'turn_idx', 'text'],  # prune at the read
        )
        mentions = extract_mentions(
            turns, factory_paths, concurrency=concurrency,
            batch_size=batch_size)
        return _write_partitioned(mentions, out_dir, 'conv_id',
                                  num_partitions), layout

    manifests['mentions'] = run_stage(
        'mentions', mentions_dir, fp, build_mentions, resume=resume)

    def build_triples(out_dir):
        mentions = ray.data.read_parquet(mentions_dir)
        capped = mentions.filter(
            expr=f"rule == '{CAPPED_RULE}'").count()
        triples = project_triples(mentions, factory_paths)
        deduped = dedup_triples(triples)
        parts = _write_partitioned(
            deduped.drop_columns(['tkey']), out_dir, 'subj', num_partitions)
        for p in parts:
            p['capped_rows'] = 0
        if parts:
            parts[0]['capped_rows'] = int(capped)
        return parts, layout

    manifests['triples'] = run_stage(
        'triples', triples_dir, fp, build_triples, resume=resume)

    def build_nodes(out_dir):
        triples = ray.data.read_parquet(triples_dir)
        nodes = canonicalize_nodes(triples)
        return _write_partitioned(nodes, out_dir, 'node_id',
                                  num_partitions), layout

    nodes_dir = storage.join(out_root, 'nodes')
    manifests['nodes'] = run_stage(
        'nodes', nodes_dir, fp, build_nodes, resume=resume)

    def build_edges(out_dir):
        triples = ray.data.read_parquet(triples_dir)
        edges = aggregate_edges(triples)
        return _write_partitioned(edges, out_dir, 'src',
                                  num_partitions), layout

    edges_dir = storage.join(out_root, 'edges')
    manifests['edges'] = run_stage(
        'edges', edges_dir, fp, build_edges, resume=resume)

    return manifests


def top_degree_nodes(nodes_ds, k=20):
    """Metrics: top-k nodes by degree (sort + limit on the small side)."""
    return nodes_ds.sort('degree', descending=True).limit(k)


def entity_mention_stats(triples_ds, num_partitions=64):
    """Per-entity mention statistics over the OBJECT entities of the
    mention predicates (``has_position`` excluded — its subject is a
    person, not a turn): total mentions, distinct conversations, and
    the first/last conversation id.

    Scale shape: map-side partial aggregation per (kind, norm, conv_id)
    (Arrow hash groupby shrinks each batch to its distinct entity-conv
    incidences), then ONE hash exchange on the entity key and a
    vectorized pandas final aggregate — distinct-conversation counting
    stays exact because every entity's partials co-locate.
    """
    import numpy as np

    def partials(batch: pa.Table) -> pa.Table:
        keep = batch.filter(
            pc.not_equal(batch.column('pred'), 'has_position'))
        incid = pa.table({
            'kind': _obj_kind(keep.column('pred')),
            'norm': keep.column('obj'),
            'conv_id': keep.column('conv_id'),
        })
        agg = pa.TableGroupBy(incid, ['kind', 'norm', 'conv_id']
                              ).aggregate([([], 'count_all')])
        return agg.rename_columns(['kind', 'norm', 'conv_id',
                                   'mentions'])

    def reduce_fn(table: pa.Table) -> pa.Table:
        df = table.select(['kind', 'norm', 'conv_id',
                           'mentions']).to_pandas()
        # partials from different batches may repeat a (kind, norm,
        # conv_id): combine first, then aggregate per entity
        per_conv = df.groupby(['kind', 'norm', 'conv_id'], sort=False,
                              as_index=False)['mentions'].sum()
        agg = per_conv.groupby(['kind', 'norm'], sort=False).agg(
            mentions=('mentions', 'sum'),
            convs=('conv_id', 'nunique'),
            first_conv=('conv_id', 'min'),
            last_conv=('conv_id', 'max')).reset_index()
        agg['mentions'] = agg['mentions'].astype(np.int64)
        agg['convs'] = agg['convs'].astype(np.int64)
        return pa.Table.from_pandas(agg, preserve_index=False)

    partial = triples_ds.map_batches(partials, batch_format='pyarrow',
                                     batch_size=8192)
    return partitioned_reduce(partial, ['kind', 'norm'], reduce_fn,
                              num_partitions)


# ---------------------------------------------------------------------------
# Co-mention edges
# ---------------------------------------------------------------------------

def _emit_conv_entities(batch: pa.Table) -> pa.Table:
    """Triples -> distinct (conv_id, kind, norm) entity incidences.

    Entities are the non-``turn`` endpoints: every object node, plus
    the person subject of ``has_position``. Map-side distinct (Arrow
    hash groupby) shrinks the exchange to the per-batch entity sets.
    """
    pred = batch.column('pred')
    person_rows = batch.filter(pc.equal(pred, 'has_position'))
    incid = pa.concat_tables([
        pa.table({'conv_id': person_rows.column('conv_id'),
                  'kind': pa.array(['person'] * person_rows.num_rows,
                                   type=pa.string()),
                  'norm': person_rows.column('subj')}),
        pa.table({'conv_id': batch.column('conv_id'),
                  'kind': _obj_kind(pred),
                  'norm': batch.column('obj')}),
    ])
    return pa.TableGroupBy(incid, ['conv_id', 'kind', 'norm']).aggregate([])


def entity_conv_counts(triples_ds, num_partitions=64):
    """Distinct-conversation count per CO-MENTION entity (the same
    entity universe as :func:`co_mention_edges` — object nodes plus
    ``has_position`` person subjects), keyed by the content-hash node
    id. Map-side distinct incidences, ONE entity-keyed exchange with
    exact distinct counting (every entity's incidences co-locate).
    """
    incid = triples_ds.map_batches(
        _emit_conv_entities, batch_format='pyarrow', batch_size=8192)

    def reduce_fn(table: pa.Table) -> pa.Table:
        df = table.select(['conv_id', 'kind', 'norm']).to_pandas()
        df = df.drop_duplicates()
        ent = df['kind'] + ':' + df['norm']
        counts = ent.value_counts()
        return pa.table({
            'node_id': pa.array([node_id_of(e) for e in counts.index],
                                type=pa.string()),
            'convs': pa.array(counts.to_numpy(), type=pa.int64()),
        })

    return partitioned_reduce(incid, ['kind', 'norm'], reduce_fn,
                              num_partitions)


MAX_CONV_ENTITIES = 4096  # bounded-work cap: a conversation mentioning
# E distinct entities emits E*(E-1)/2 pairs; cap keeps one pathological
# conversation from emitting O(E^2) rows (deterministic trim: first E
# by (kind, norm) sort order; capped conversations are COUNTED — each
# partition emits a sentinel row summed through the pair exchange and
# surfaced as a '__capped_convs__' stat row when include_capped_stat=True)

_CAPPED_SENTINEL = '\x00__capped_convs__'
CAPPED_STAT_ID = '__capped_convs__'


def co_mention_edges(triples_ds, num_partitions=64,
                     max_entities=MAX_CONV_ENTITIES,
                     include_capped_stat=False):
    """Undirected co-occurrence edges between canonical entities
    mentioned in the SAME conversation: (src, dst, weight) where weight
    counts the conversations in which both entities appear and
    src/dst are the node-table content-hash ids (src < dst by the
    entity sort key, so each pair surfaces exactly once).

    Two exchanges, both pre-shrunk map-side: (1) distinct entity
    incidences co-partitioned on ``hash(conv_id)`` — per-conversation
    pair generation is numpy ``triu_indices`` over each conversation's
    slice of the lexsorted partition; (2) pair rows co-partitioned on
    the pair key to sum weights (a pair of entities can co-occur in
    conversations living in different partitions).

    ``include_capped_stat=True`` appends one stat row
    ``(src=dst='__capped_convs__', weight=N)`` counting conversations
    whose entity set was trimmed to ``max_entities``; by default the
    count is dropped from the edge output (it still rides the normal
    exchanges — no extra pass either way).
    """
    import numpy as np

    incid = triples_ds.map_batches(
        _emit_conv_entities, batch_format='pyarrow', batch_size=8192)

    def pairs_fn(table: pa.Table) -> pa.Table:
        df = table.select(['conv_id', 'kind', 'norm']).to_pandas()
        df = df.drop_duplicates(['conv_id', 'kind', 'norm'])
        ent = df['kind'] + ':' + df['norm']
        order = np.lexsort((ent.to_numpy(), df['conv_id'].to_numpy()))
        convs = df['conv_id'].to_numpy()[order]
        ents = ent.to_numpy()[order]
        boundaries = np.flatnonzero(convs[1:] != convs[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        stops = np.concatenate((boundaries, [len(convs)]))
        a_parts, b_parts = [], []
        n_capped = 0
        for start, stop in zip(starts, stops):
            if stop - start > max_entities:
                n_capped += 1
            k = min(stop - start, max_entities)
            if k < 2:
                continue
            i, j = np.triu_indices(k, 1)
            a_parts.append(ents[start:start + k][i])
            b_parts.append(ents[start:start + k][j])
        if not a_parts:
            agg = pa.table({'a': pa.array([], type=pa.string()),
                            'b': pa.array([], type=pa.string()),
                            'weight': pa.array([], type=pa.int64())})
        else:
            out = pa.table({'a': pa.array(np.concatenate(a_parts)),
                            'b': pa.array(np.concatenate(b_parts))})
            # combine within the partition: a pair co-occurring in
            # several of this partition's conversations becomes one
            # weighted row
            agg = pa.TableGroupBy(out, ['a', 'b']).aggregate(
                [([], 'count_all')]).rename_columns(['a', 'b', 'weight'])
        if n_capped:
            # capped-conversation accounting: the sentinel row sums
            # across partitions through the normal pair exchange
            agg = pa.concat_tables([agg.select(['a', 'b', 'weight']),
                                    pa.table({
                                        'a': [_CAPPED_SENTINEL],
                                        'b': [''],
                                        'weight': pa.array(
                                            [n_capped], pa.int64())})])
        return agg

    pairs = partitioned_reduce(incid, 'conv_id', pairs_fn, num_partitions)
    summed = sum_by(pairs, ['a', 'b'], 'weight', num_partitions)

    def to_ids(batch: pa.Table) -> pa.Table:
        is_stat = pc.equal(batch.column('a'), _CAPPED_SENTINEL)
        stat = batch.filter(is_stat)
        batch = batch.filter(pc.invert(is_stat))
        out = pa.table({
            'src': pa.array([node_id_of(v) for v in
                             batch.column('a').to_pylist()],
                            type=pa.string()),
            'dst': pa.array([node_id_of(v) for v in
                             batch.column('b').to_pylist()],
                            type=pa.string()),
            'weight': batch.column('weight').cast(pa.int64()),
        })
        if include_capped_stat and stat.num_rows:
            out = pa.concat_tables([out, pa.table({
                'src': [CAPPED_STAT_ID], 'dst': [CAPPED_STAT_ID],
                'weight': stat.column('weight').cast(pa.int64()),
            })])
        return out

    return summed.map_batches(to_ids, batch_format='pyarrow')

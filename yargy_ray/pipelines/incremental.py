"""Incremental KG maintenance: merge a delta of NEW conversations into
an existing knowledge graph without recomputing base partitions.

At 100 TB a KG is never rebuilt from scratch — transcripts arrive in
daily/hourly increments and the graph must absorb them touching only
the partitions the delta actually hashes into. The merge is exact:
``merge_kg_delta(base, delta)`` produces bit-identical node/edge tables
to a full rebuild over base ∪ delta (proven by the ``kg_incremental``
driver oracle and ``tests/test_incremental.py``).

Design (all three merges share one shape):

1. **Delta triples** are extracted and deduped *within the delta* (the
   normal :func:`~yargy_ray.pipelines.kg.distinct_triples` path — no base
   data involved).
2. **Anti-join against base**: a triple's dedup key ``tkey`` hashes
   (subj, pred, obj), and its layout partition hashes ``subj`` — so any
   base duplicate of a delta triple lives in the SAME subj-partition.
   Only base partitions the delta hashes into are read (partition
   pruning at the read); base and delta ``cogroup`` on that partition,
   and a vectorized ``is_in`` keeps the delta rows whose full (subj,
   pred, obj) value is absent on the base side — the globally-new
   triples.
3. **Append, never rewrite**: base triple part-dirs are carried over
   untouched and the new rows are appended as additional parquet files
   inside the same ``part=`` dirs (hash-partitioned parquet is a
   multi-file format; readers see the union). In this sandbox carry-over
   is a file copy; on immutable cluster storage the manifest would
   reference the base files instead — the manifest records which
   partitions were carried vs appended either way.
4. **Node/edge deltas** are computed from the new triples only and
   merged into base by summing ``degree``/``weight`` per key. Aggregate
   values change, so touched node/edge partitions are rewritten
   (copy-on-write per partition); untouched partitions are carried.

Shuffle cost is proportional to the DELTA size (plus a read of touched
base partitions), never to the base corpus.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from yargy_ray.grammars import DEFAULT_FACTORIES
from yargy_ray.pipelines.kg import (
    _emit_edge_counts,
    _emit_node_counts,
    distinct_triples,
)
from yargy_ray.stages.exchange import (
    check_layout,
    cogroup,
    layout_partition,
    sum_by,
)
from yargy_ray.state import storage
from yargy_ray.state.manifests import (
    fingerprint,
    load_manifest,
    run_stage,
    stage_is_complete,
)


def _part_dirs(root):
    return storage.part_dirs(root)


def _part_files(part_dirs, part_ids):
    """Parquet file URIs of the given partitions (read_parquet takes
    file paths/URIs when passed a list)."""
    return [f for p in part_ids
            for f in storage.parquet_files(part_dirs[p])]


def _carry_partitions(base_dir, out_dir, part_ids):
    """Copy base part-dirs over unchanged — through the storage seam,
    so base and output may live on shared cluster storage (where a
    manifest REFERENCE to the immutable base files replaces the copy)."""
    for pid in part_ids:
        storage.copy_tree(storage.join(base_dir, f'part={pid}'),
                          storage.join(out_dir, f'part={pid}'))


def _rows_per_partition(out_dir):
    return [{'partition_id': pid, 'rows': storage.dir_rows(d)}
            for pid, d in sorted(storage.part_dirs(out_dir).items())]


def _merge_sum(base_dir, delta_partials, key_cols, sum_col, out_dir,
               num_partitions):
    """Shared node/edge merge: sum ``sum_col`` over base rows + delta
    partial rows per key, rewriting ONLY partitions the delta touches.
    The layout key is ``key_cols[0]``; the sum routes on it too, so
    each reduce sees whole layout partitions.

    ``delta_partials`` must be small-side-safe (pre-aggregated per
    batch); the exchange it feeds is delta-sized. Returns manifest rows.
    """
    import ray.data

    def keyed(batch: pa.Table) -> pa.Table:
        return batch.append_column('mpart', layout_partition(
            batch.column(key_cols[0]), num_partitions))

    delta_keyed = delta_partials.map_batches(keyed, batch_format='pyarrow')
    # the partition ids the delta hashes into = the only base
    # partitions whose aggregates can change
    touched = sorted({
        r['mpart'] for r in
        delta_keyed.groupby('mpart').count().take_all()})

    base_parts = _part_dirs(base_dir)
    carried = sorted(set(base_parts) - set(touched))
    storage.makedirs(out_dir)
    _carry_partitions(base_dir, out_dir, carried)

    cols = list(key_cols) + [sum_col]
    sides = [delta_keyed]
    touched_with_base = [p for p in touched if p in base_parts]
    if touched_with_base:
        paths, pfs = storage.for_ray(
            _part_files(base_parts, touched_with_base))
        base_ds = ray.data.read_parquet(paths, filesystem=pfs)
        # file-level reads skip the 'part' hive column; select the data
        # columns and recompute mpart so schemas align with the delta
        sides.append(base_ds.map_batches(
            lambda b: keyed(b.select(cols)), batch_format='pyarrow'))
    merged = sum_by(
        sides[0].union(*sides[1:]) if len(sides) > 1 else sides[0],
        list(key_cols) + ['mpart'], sum_col, num_partitions)
    merged = merged.map_batches(
        lambda b: b.rename_columns(
            [('part' if c == 'mpart' else c) for c in b.column_names]),
        batch_format='pyarrow')
    merged.write_parquet(out_dir, partition_cols=['part'])
    return _rows_per_partition(out_dir), touched, carried


def new_only(base: pa.Table, delta: pa.Table) -> pa.Table:
    """Anti-join reduce: keep the ``delta`` rows whose triple IDENTITY
    — the full (subj, pred, obj) string, NOT its 64-bit hash — is
    absent from the ``base`` rows of the partition. Hashes only route
    rows into the partition; a hash collision with a distinct base
    triple cannot silently discard a new fact."""
    from yargy_ray.pipelines.kg import _triple_key
    if base.num_rows == 0:
        # a side with no rows anywhere may come without columns
        return delta
    return delta.filter(pc.invert(pc.is_in(
        _triple_key(delta), value_set=_triple_key(base))))


def _validate_layout(base_dir, num_partitions):
    """Refuse a merge whose partition layout disagrees with the base
    stage in ``base_dir``: same-key co-partitioning (the anti-join's
    'same subj => same partition', the per-key sums) only holds when
    both use the SAME P (:func:`~yargy_ray.stages.exchange
    .check_layout`). The base P comes from its stage manifest (recorded
    by the build); a pre-layout base without the field is checked
    against its part-dir ids."""
    base_p = (load_manifest(base_dir) or {}).get('num_partitions')
    check_layout(num_partitions, base_p, base_dir)
    if base_p is None:
        max_part = max(_part_dirs(base_dir), default=-1)
        if max_part >= num_partitions:
            raise ValueError(
                f'base build has part={max_part} dirs but merge uses '
                f'num_partitions={num_partitions} — layouts disagree')


def merge_kg_delta(base_root, delta_transcripts_path, out_root,
                   factory_paths=DEFAULT_FACTORIES,
                   concurrency=8, batch_size=128,
                   num_partitions=16, resume=True):
    """Merge newly-arrived transcripts into an existing KG build.

    ``base_root`` is a completed :func:`~yargy_ray.pipelines.kg
    .run_kg_pipeline` output (``triples/``, ``nodes/``, ``edges/``).
    Writes the merged graph under ``out_root`` and returns the stage
    manifests. Exactly equivalent to a full rebuild over the combined
    corpus (see module docstring).

    Each output is a checkpointed stage (``state/manifests.run_stage``):
    a crashed merge reruns cleanly — half-written outputs without a
    matching manifest are cleared, completed stages are skipped, and a
    rerun of a fully-merged delta is a no-op.
    """
    import ray.data

    _validate_layout(storage.join(base_root, 'triples'), num_partitions)
    fp = fingerprint('kg-merge', base_root, delta_transcripts_path,
                     tuple(factory_paths), num_partitions)
    layout = {'num_partitions': num_partitions}
    stage_dirs = {name: storage.join(out_root, name)
                  for name in ('triples', 'nodes', 'edges')}
    if resume and all(stage_is_complete(d, fp)
                      for d in stage_dirs.values()):
        return {name: load_manifest(d) for name, d in stage_dirs.items()}
    manifests = {}

    # -- 1. delta-local triples (extract + in-delta dedup), keyed by
    #       their layout partition --------------------------------------
    turns = ray.data.read_parquet(
        delta_transcripts_path, columns=['conv_id', 'turn_idx', 'text'])
    delta = distinct_triples(turns, factory_paths, concurrency, batch_size)

    def keyed(batch: pa.Table) -> pa.Table:
        return batch.append_column('mpart', layout_partition(
            batch.column('subj'), num_partitions))

    # no tkey: routing is mpart = hash(subj), and the anti-join
    # compares full (subj, pred, obj) values
    delta_keyed = delta.map_batches(
        lambda b: keyed(b.select(['subj', 'pred', 'obj', 'conv_id',
                                  'turn_idx', 'rule', 'span_start',
                                  'span_stop'])),
        batch_format='pyarrow')

    base_triples_dir = storage.join(base_root, 'triples')
    base_parts = _part_dirs(base_triples_dir)
    touched = sorted({
        r['mpart'] for r in
        delta_keyed.groupby('mpart').count().take_all()})

    # -- 2. anti-join: keep delta rows whose triple IDENTITY is not in
    #       the touched base partitions (same-subj ⇒ same partition) ----
    new_triples = delta_keyed
    touched_with_base = [p for p in touched if p in base_parts]
    if touched_with_base:
        paths, pfs = storage.for_ray(
            _part_files(base_parts, touched_with_base))
        base_ds = ray.data.read_parquet(paths, filesystem=pfs).map_batches(
            lambda b: keyed(b.select(['subj', 'pred', 'obj'])),
            batch_format='pyarrow')
        new_triples = cogroup(base_ds, delta_keyed, 'mpart', new_only,
                              num_partitions)
    # materialize: consumed three times (write + node/edge deltas), and
    # delta-sized — the one intentionally small working set
    new_triples = new_triples.materialize()

    # -- 3. triples out: carry every base partition, append new rows ----
    def build_triples(out_dir):
        storage.makedirs(out_dir)
        _carry_partitions(base_triples_dir, out_dir, sorted(base_parts))
        if new_triples.count():
            new_triples.map_batches(
                lambda b: b.rename_columns(
                    [('part' if c == 'mpart' else c)
                     for c in b.column_names]),
                batch_format='pyarrow',
            ).write_parquet(out_dir, partition_cols=['part'])
        appended = sorted({r['mpart'] for r in
                           new_triples.groupby('mpart').count()
                           .take_all()})
        return _rows_per_partition(out_dir), dict(
            layout,
            appended_partitions=appended,
            carried_partitions=sorted(set(base_parts) - set(appended)),
            new_rows=new_triples.count())

    manifests['triples'] = run_stage(
        'triples-merge', stage_dirs['triples'], fp, build_triples,
        resume=resume)

    # -- 4. node merge: degree deltas from the NEW triples only ---------
    plain = new_triples.drop_columns(['mpart'])

    def build_nodes(out_dir):
        parts, touched, carried = _merge_sum(
            storage.join(base_root, 'nodes'),
            plain.map_batches(_emit_node_counts, batch_format='pyarrow',
                              batch_size=8192),
            ('node_id', 'kind', 'norm'), 'degree',
            out_dir, num_partitions)
        return parts, dict(layout, merged_partitions=touched,
                           carried_partitions=carried)

    manifests['nodes'] = run_stage(
        'nodes-merge', stage_dirs['nodes'], fp, build_nodes,
        resume=resume)

    # -- 5. edge merge: weight deltas, same shape -----------------------
    def build_edges(out_dir):
        parts, touched, carried = _merge_sum(
            storage.join(base_root, 'edges'),
            plain.map_batches(_emit_edge_counts, batch_format='pyarrow',
                              batch_size=8192).map_batches(
                lambda b: b.select(['src', 'dst', 'pred', 'weight']),
                batch_format='pyarrow'),
            ('src', 'dst', 'pred'), 'weight',
            out_dir, num_partitions)
        return parts, dict(layout, merged_partitions=touched,
                           carried_partitions=carried)

    manifests['edges'] = run_stage(
        'edges-merge', stage_dirs['edges'], fp, build_edges,
        resume=resume)

    return manifests


def _comention_edges(transcripts_path, factory_paths, concurrency,
                     batch_size):
    """Co-mention edges of one transcripts parquet: read -> every triple
    occurrence (:func:`~yargy_ray.pipelines.kg.extract_triples`) ->
    :func:`~yargy_ray.pipelines.kg.co_mention_edges`."""
    import ray.data

    from yargy_ray.pipelines.kg import co_mention_edges, extract_triples

    turns = ray.data.read_parquet(
        transcripts_path, columns=['conv_id', 'turn_idx', 'text'])
    return co_mention_edges(extract_triples(
        turns, factory_paths, concurrency=concurrency,
        batch_size=batch_size))


def run_comention_pipeline(transcripts_path, out_root,
                           factory_paths=DEFAULT_FACTORIES,
                           concurrency=8, batch_size=128,
                           num_partitions=16, resume=True):
    """Co-mention edge table as a CHECKPOINTED, hash-partitioned build
    (the base a :func:`merge_comention_delta` increments)."""
    from yargy_ray.pipelines.kg import _write_partitioned

    check_layout(num_partitions)
    fp = fingerprint('comention', transcripts_path, tuple(factory_paths),
                     num_partitions)
    out_dir = storage.join(out_root, 'comention')

    def build(d):
        edges = _comention_edges(transcripts_path, factory_paths,
                                 concurrency, batch_size)
        return _write_partitioned(edges, d, 'src', num_partitions), {
            'num_partitions': num_partitions}

    return run_stage('comention', out_dir, fp, build, resume=resume)


def merge_comention_delta(base_root, delta_transcripts_path, out_root,
                          factory_paths=DEFAULT_FACTORIES,
                          concurrency=8, batch_size=128,
                          num_partitions=16, resume=True):
    """Merge NEW conversations into an existing co-mention edge table.

    Co-mention weight counts conversations containing both entities;
    base and delta conversation sets are disjoint, so the merge is a
    pure per-pair weight SUM — the same copy-on-write
    :func:`_merge_sum` shape as nodes/edges: only partitions the delta
    pairs hash into are rewritten, the rest are carried byte-identical.
    Exactly equals a full rebuild (the per-conversation
    MAX_CONV_ENTITIES cap is conversation-local, so it commutes with
    the split)."""
    base_dir = storage.join(base_root, 'comention')
    _validate_layout(base_dir, num_partitions)

    fp = fingerprint('comention-merge', base_root,
                     delta_transcripts_path, tuple(factory_paths),
                     num_partitions)
    out_dir = storage.join(out_root, 'comention')

    def build(d):
        delta_edges = _comention_edges(delta_transcripts_path,
                                       factory_paths, concurrency,
                                       batch_size)
        parts, touched, carried = _merge_sum(
            base_dir, delta_edges, ('src', 'dst'), 'weight',
            d, num_partitions)
        return parts, {'num_partitions': num_partitions,
                       'merged_partitions': touched,
                       'carried_partitions': carried}

    return run_stage('comention-merge', out_dir, fp, build,
                     resume=resume)

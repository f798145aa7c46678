"""Similarity search over an embedding column (list<float>).

* ``brute_force_topk`` — exact cosine top-k: the query matrix is
  broadcast once (``stages/compute.map_cached``, NOT re-shipped per
  batch); every batch
  does one numpy matmul; per-batch top-k partials are merged with one
  tiny reduce. This is the correctness baseline and the oracle-checked
  path.
* ``build_ivf_index`` / ``ivf_topk_indexed`` — IVF scale path: k-means
  centroids trained on a sample, vectors written ONCE as parquet
  partitioned by nearest list (manifest-checkpointed, resumable);
  queries read only the ``nprobe`` probed list partitions from storage
  — never a full scan. ``ivf_topk`` wraps build-or-reuse + query.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from yargy_ray.stages.compute import map_cached


def _as_matrix(column, dtype=np.float32) -> np.ndarray:
    """Arrow embedding column -> (N, dim) numpy matrix WITHOUT the
    ``to_pylist`` detour (VERDICT r03 #5): ``FixedSizeList`` and
    rectangular ``list``/``large_list`` columns reshape their flat
    value buffer (one buffer-level copy at most — the float values
    never materialize as Python objects). Ragged or null-bearing
    columns fall back to the slow exact path."""
    arr = (column.combine_chunks()
           if isinstance(column, pa.ChunkedArray) else column)
    t = arr.type
    if arr.null_count == 0:
        if pa.types.is_fixed_size_list(t):
            flat = arr.flatten().to_numpy(zero_copy_only=False)
            return flat.astype(dtype, copy=False).reshape(
                len(arr), t.list_size)
        if pa.types.is_list(t) or pa.types.is_large_list(t):
            import pyarrow.compute as pc
            lengths = pc.list_value_length(arr)
            mm = pc.min_max(lengths)
            lo, hi = mm['min'].as_py(), mm['max'].as_py()
            if lo is not None and lo == hi and lo > 0:
                flat = arr.flatten().to_numpy(zero_copy_only=False)
                return flat.astype(dtype, copy=False).reshape(
                    len(arr), lo)
    return np.asarray(arr.to_pylist(), dtype=dtype)


def _unit(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1)
    norms[norms == 0] = 1.0
    return m / norms[:, None]


class BatchTopK:
    """Per-batch exact top-k against the broadcast query matrix."""

    def __init__(self, queries, k):
        self.queries = _unit(np.asarray(queries, dtype=np.float32))
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column('vec_id').to_numpy(zero_copy_only=False)
        vecs = _unit(_as_matrix(batch.column('embedding')))
        sims = self.queries @ vecs.T                       # (Q, B)
        nq = sims.shape[0]
        k = min(self.k, sims.shape[1])
        idx = np.argpartition(-sims, kth=k - 1, axis=1)[:, :k]
        cols = idx.ravel()
        return pa.table({
            'query_id': pa.array(
                np.repeat(np.arange(nq, dtype=np.int64), k)),
            'vec_id': pa.array(ids[cols]),
            'cosine': pa.array(
                sims[np.repeat(np.arange(nq), k), cols]
                .astype(np.float64)),
        })


def _topk_partition(table: pa.Table, k) -> pa.Table:
    """Vectorized top-k per query over one partition of complete query
    groups: one mergesort + grouped head + cumcount rank. Ties break on
    vec_id ascending for full determinism."""
    df = table.select(['query_id', 'vec_id', 'cosine']).to_pandas()
    df = df.sort_values(['query_id', 'cosine', 'vec_id'],
                        ascending=[True, False, True], kind='mergesort',
                        ignore_index=True)
    out = df.groupby('query_id', sort=False).head(k).reset_index(drop=True)
    out['rank'] = out.groupby('query_id', sort=False).cumcount()
    return pa.table({
        'query_id': pa.array(out['query_id'].to_numpy(dtype=np.int64)),
        'rank': pa.array(out['rank'].to_numpy(dtype=np.int64)),
        'vec_id': pa.array(out['vec_id'].to_numpy(dtype=np.int64)),
        'cosine': pa.array(out['cosine'].to_numpy(dtype=np.float64)),
    })


def merge_topk_distributed(partials_ds, k, num_partitions=16):
    """Global top-k per query WITHOUT shipping the partials to the
    driver: one hash exchange on ``query_id`` + a vectorized top-k per
    partition — the driver receives only the final Q×k rows (the old
    ``take_all()`` + Python-heap merge grew linearly with input block
    count: ~10^8 partial rows through one driver loop at 10^11
    vectors)."""
    from yargy_ray.stages.exchange import partitioned_reduce

    reduced = partitioned_reduce(
        partials_ds, 'query_id', lambda t: _topk_partition(t, k),
        num_partitions)
    final = pa.Table.from_pylist(
        reduced.take_all(),
        schema=pa.schema([('query_id', pa.int64()), ('rank', pa.int64()),
                          ('vec_id', pa.int64()),
                          ('cosine', pa.float64())]))
    return final.sort_by([('query_id', 'ascending'), ('rank', 'ascending')])


def brute_force_topk(emb_ds, queries, k=10, concurrency=4):
    """Exact cosine top-k of every query against the whole dataset."""
    queries = np.asarray(queries, dtype=np.float32)
    partials = map_cached(emb_ds, BatchTopK, {'queries': queries, 'k': k},
                          concurrency, 4096)
    return merge_topk_distributed(partials, k)


# ---------------------------------------------------------------------------
# IVF
# ---------------------------------------------------------------------------

def train_centroids(emb_ds, num_lists=16, sample=4096, iters=10, seed=3):
    """k-means on a driver-side sample (small side; the dataset streams)."""
    rows = emb_ds.limit(sample).take_all()
    x = _unit(np.asarray([r['embedding'] for r in rows], dtype=np.float32))
    rng = np.random.RandomState(seed)
    centroids = x[rng.choice(len(x), size=min(num_lists, len(x)),
                             replace=False)]
    for _ in range(iters):
        assign = (x @ centroids.T).argmax(axis=1)
        for c in range(len(centroids)):
            members = x[assign == c]
            if len(members):
                v = members.mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    centroids[c] = v / n
    return centroids


class IVFAssigner:
    """Appends ``ivf_list``: each vector's nearest broadcast centroid."""

    def __init__(self, centroids):
        self.centroids = centroids

    def __call__(self, batch: pa.Table) -> pa.Table:
        vecs = _unit(_as_matrix(batch.column('embedding')))
        lists = (vecs @ self.centroids.T).argmax(axis=1).astype(np.int64)
        return batch.append_column('ivf_list', pa.array(lists))


def build_ivf_index(emb_ds, index_dir, num_lists=16, sample=4096, iters=10,
                    seed=3, concurrency=4, input_key='', resume=True):
    """Checkpointed IVF index build (manifest-gated, resumable).

    Writes under ``index_dir``:
    * ``centroids.parquet`` — the trained list centroids (tiny),
    * ``lists/ivf_list=N/*.parquet`` — vectors partitioned by nearest
      centroid (ONE assignment pass over the dataset),
    * ``_MANIFEST.json`` — per-list row counts + input fingerprint.

    A rerun with the same ``input_key`` + params skips the build, so
    queries never pay assignment again — this is what makes ivf_topk an
    actual index instead of a per-call full scan. ``index_dir`` may be
    a shared-storage URI (``state/storage.py``); on a multi-node
    cluster it MUST be one, because query tasks read the probed list
    partitions from it.
    """
    import pyarrow.parquet as pq

    from yargy_ray.state import storage
    from yargy_ray.state.manifests import fingerprint, run_stage

    # cheap content fingerprint: the input's row count (parquet reads
    # resolve it from footers) — a regenerated corpus at the same path
    # must invalidate the persisted index instead of being silently
    # served stale results on resume
    n_rows = emb_ds.count()
    fp = fingerprint('ivf', input_key, num_lists, sample, iters, seed,
                     n_rows)

    def produce(out_dir):
        centroids = train_centroids(emb_ds, num_lists, sample, iters, seed)
        storage.makedirs(out_dir)
        cfs, cpath = storage.resolve(
            storage.join(out_dir, 'centroids.parquet'))
        pq.write_table(
            pa.table({
                'list_id': pa.array(np.arange(len(centroids)),
                                    type=pa.int64()),
                'centroid': pa.array([c.tolist() for c in centroids],
                                     type=pa.list_(pa.float32())),
            }),
            cpath, filesystem=cfs)
        assigned = map_cached(emb_ds, IVFAssigner,
                              {'centroids': centroids}, concurrency)
        lists_dir = storage.join(out_dir, 'lists')
        assigned.write_parquet(lists_dir, partition_cols=['ivf_list'])
        return [
            {'partition_id': int(name.split('=', 1)[1]),
             'rows': storage.dir_rows(child)}
            for name, child in sorted(
                storage.list_dirs(lists_dir).items())
            if name.startswith('ivf_list=')]

    return run_stage('ivf_index', index_dir, fp, produce, resume=resume)


def ivf_topk_indexed(index_dir, queries, k=10, nprobe=4,
                     concurrency=4):
    """Approximate top-k over a PERSISTED IVF index: only the ``nprobe``
    nearest list partitions are read from storage (partition-pruned
    ``read_parquet``), never the full dataset."""
    import pyarrow.parquet as pq
    import ray.data

    from yargy_ray.state import storage
    from yargy_ray.state.manifests import load_manifest

    manifest = load_manifest(index_dir) or {}
    root_dir = _index_root(index_dir, manifest)
    cfs, cpath = storage.resolve(
        storage.join(root_dir, 'centroids.parquet'))
    cent = pq.read_table(cpath, filesystem=cfs)
    centroids = _as_matrix(cent.column('centroid'))
    queries = _unit(np.asarray(queries, dtype=np.float32))
    probe_lists = np.argsort(-(queries @ centroids.T), axis=1)[:, :nprobe]
    wanted = sorted({int(li) for row in probe_lists for li in row})
    deltas = _delta_list_dirs(root_dir, manifest)
    files = []
    for li in wanted:
        files.extend(storage.parquet_files(
            storage.join(root_dir, 'lists', f'ivf_list={li}')))
        for dli, child in deltas:
            if dli == li:
                files.extend(storage.parquet_files(child))
    if not files:
        return pa.Table.from_pylist([], schema=pa.schema(
            [('query_id', pa.int64()), ('rank', pa.int64()),
             ('vec_id', pa.int64()), ('cosine', pa.float64())]))
    probed = ray.data.read_parquet(files, columns=['vec_id', 'embedding'])

    partials = map_cached(probed, BatchTopK, {'queries': queries, 'k': k},
                          concurrency, 4096)
    return merge_topk_distributed(partials, k)


def ivf_topk(emb_ds, queries, k=10, num_lists=16, nprobe=4,
             concurrency=4, index_dir=None, input_key=None):
    """Approximate top-k: build (or reuse) the persisted IVF index, then
    read only the probed list partitions.

    ``input_key`` identifies the input corpus for checkpoint reuse
    (e.g. the sf dir); without it the index is rebuilt fresh under a
    private temp dir (tests / ad-hoc datasets).
    """
    import shutil
    import tempfile

    fresh = index_dir is None and input_key is None
    if index_dir is None:
        if input_key is not None:
            from yargy_ray.state.manifests import fingerprint
            from yargy_ray.state.storage import cache_path
            index_dir = cache_path(f'ivf_{fingerprint(input_key, num_lists)}')
        else:
            index_dir = tempfile.mkdtemp(prefix='yargy_ray_ivf_')
    try:
        build_ivf_index(emb_ds, index_dir, num_lists=num_lists,
                        concurrency=concurrency,
                        input_key=input_key or index_dir,
                        resume=not fresh)
        return ivf_topk_indexed(index_dir, queries, k=k, nprobe=nprobe,
                                concurrency=concurrency)
    finally:
        if fresh:
            shutil.rmtree(index_dir, ignore_errors=True)


def _index_root(index_dir, manifest):
    """Resolve the CURRENT generation's subtree. Generation 0 (the
    original build) lives directly under ``index_dir``; a rebuild
    writes a complete new index under ``gen-<g>/`` and swaps the
    manifest's ``root`` pointer atomically — readers holding the old
    manifest keep reading the old (intact) files until they reload."""
    from yargy_ray.state import storage

    root = (manifest or {}).get('root')
    return storage.join(index_dir, root) if root else index_dir


def _delta_list_dirs(root_dir, manifest):
    """ivf_list=N dirs of every manifest-RECORDED delta (a crashed
    apply's partial files are invisible until its manifest entry
    lands, so queries never see half a delta)."""
    from yargy_ray.state import storage

    out = []
    for did in manifest.get('applied_deltas', []):
        ddir = storage.join(root_dir, 'deltas', did)
        for name, child in sorted(storage.list_dirs(ddir).items()):
            if name.startswith('ivf_list='):
                out.append((int(name.split('=', 1)[1]), child))
    return out


def merge_ivf_delta(index_dir, delta_ds, delta_id=None,
                    concurrency=4):
    """Incremental IVF maintenance: absorb NEW vectors into a persisted
    index WITHOUT retraining or touching existing list files.

    Delta vectors are assigned with the index's OWN centroids (so
    probe routing stays consistent) and written under a delta-id'd
    subtree ``deltas/<delta_id>/ivf_list=N/`` — existing files are
    never rewritten. The apply is **idempotent and crash-safe**:
    ``delta_id`` (caller-supplied, or derived from the delta's row
    count + vec_id range) is recorded atomically in the manifest's
    ``applied_deltas`` AFTER the files land; a re-invoke with an
    already-applied id is a no-op, and a retry after a crash between
    write and manifest update wipes the partial subtree before
    rewriting. Queries through :func:`ivf_topk_indexed` read base
    lists plus manifest-recorded deltas only.

    Centroids drift as the corpus grows — the manifest tracks
    ``delta_rows_since_build`` so a caller can trigger a retrain once
    deltas dominate (the recall/refresh tradeoff is the caller's
    policy; assignment itself stays exact w.r.t. the frozen
    centroids).
    """
    import pyarrow.parquet as pq

    from yargy_ray.state import storage
    from yargy_ray.state.manifests import (
        fingerprint,
        load_manifest,
        manifest_path,
    )

    manifest = load_manifest(index_dir)
    if manifest is None:
        raise ValueError(f'no IVF index manifest under {index_dir}')
    root_dir = _index_root(index_dir, manifest)
    if delta_id is None:
        # content-derived id: count + vec_id range (cheap aggregates;
        # good enough to catch the accidental same-delta re-apply —
        # callers with real ingest batches should pass an explicit id)
        n = delta_ds.count()
        lo = delta_ds.min('vec_id') if n else 0
        hi = delta_ds.max('vec_id') if n else 0
        delta_id = fingerprint('ivf_delta', n, lo, hi)
    applied = list(manifest.get('applied_deltas', []))
    if delta_id in applied:
        return manifest           # already absorbed: exact no-op

    delta_dir = storage.join(root_dir, 'deltas', delta_id)
    if storage.exists(delta_dir):
        # partial files from a crashed previous attempt — wipe before
        # rewriting so a retry can't double-count
        storage.rmtree(delta_dir)

    cfs, cpath = storage.resolve(
        storage.join(root_dir, 'centroids.parquet'))
    centroids = _as_matrix(
        pq.read_table(cpath, filesystem=cfs).column('centroid'))
    assigned = map_cached(delta_ds, IVFAssigner, {'centroids': centroids},
                          concurrency)
    assigned.write_parquet(delta_dir, partition_cols=['ivf_list'])

    # recount per-list rows across base lists + ALL recorded deltas
    # + this one, then commit the manifest atomically (the commit
    # point: before it, the delta is invisible; after it, complete)
    applied.append(delta_id)
    manifest['applied_deltas'] = applied
    lists_dir = storage.join(root_dir, 'lists')
    rows_by_list = {
        int(name.split('=', 1)[1]): storage.dir_rows(child)
        for name, child in sorted(storage.list_dirs(lists_dir).items())
        if name.startswith('ivf_list=')}
    for li, child in _delta_list_dirs(root_dir, manifest):
        rows_by_list[li] = rows_by_list.get(li, 0) + \
            storage.dir_rows(child)
    parts = [{'partition_id': li, 'rows': r}
             for li, r in sorted(rows_by_list.items())]
    delta_rows = sum(p['rows'] for p in parts) - manifest['rows_out']
    manifest['partitions'] = parts
    manifest['rows_out'] = sum(p['rows'] for p in parts)
    manifest['delta_rows_since_build'] = (
        manifest.get('delta_rows_since_build', 0) + delta_rows)
    storage.write_json_atomic(manifest_path(index_dir), manifest)
    return manifest


def suggest_num_lists(n_rows, floor=16):
    """lists ~= sqrt(N) guideline: keeps per-list size ~sqrt(N) so the
    probed fraction (nprobe/num_lists) and the per-list scan both
    shrink as the corpus grows. The sandbox default of 16 is the floor,
    not a constant — at 1e12 vectors this returns 1e6 lists."""
    import math
    return max(floor, int(round(math.sqrt(max(n_rows, 1)))))


def rebuild_ivf_index(index_dir, num_lists=None, sample=4096, iters=10,
                      seed=3, concurrency=4, drop_old=False):
    """Retrain + re-partition the ENTIRE index (base + all applied
    deltas) into a new generation subtree ``gen-<g>/``, then swap the
    manifest's ``root`` pointer atomically.

    The old generation's files are never touched during the rebuild,
    so concurrent :func:`ivf_topk_indexed` readers (who loaded the
    pre-swap manifest) stay consistent; after the swap, new readers
    see the fresh centroids with ``applied_deltas`` reset and
    ``delta_rows_since_build`` back to 0. ``num_lists`` defaults to
    the :func:`suggest_num_lists` sqrt(N) guideline at the CURRENT
    corpus size — rebuilds grow the list count as the index grows.
    Pass ``drop_old=True`` to reclaim the previous generation's files
    once the swap has landed (skip it if long-running readers may
    still hold the old manifest).
    """
    import pyarrow.parquet as pq
    import ray.data

    from yargy_ray.state import storage
    from yargy_ray.state.manifests import load_manifest, manifest_path

    manifest = load_manifest(index_dir)
    if manifest is None:
        raise ValueError(f'no IVF index manifest under {index_dir}')
    old_root = _index_root(index_dir, manifest)

    # every live vector: base lists + manifest-recorded deltas
    files = []
    for name, child in sorted(
            storage.list_dirs(storage.join(old_root, 'lists')).items()):
        if name.startswith('ivf_list='):
            files.extend(storage.parquet_files(child))
    for _, child in _delta_list_dirs(old_root, manifest):
        files.extend(storage.parquet_files(child))
    paths, fs = storage.for_ray(files)
    emb_ds = ray.data.read_parquet(paths, filesystem=fs,
                                   columns=['vec_id', 'embedding'])

    if num_lists is None:
        num_lists = suggest_num_lists(manifest['rows_out'])
    generation = manifest.get('generation', 0) + 1
    new_root = storage.join(index_dir, f'gen-{generation}')
    if storage.exists(new_root):      # crashed previous rebuild attempt
        storage.rmtree(new_root)
    storage.makedirs(new_root)

    centroids = train_centroids(emb_ds, num_lists, sample, iters, seed)
    cfs, cpath = storage.resolve(
        storage.join(new_root, 'centroids.parquet'))
    pq.write_table(
        pa.table({
            'list_id': pa.array(np.arange(len(centroids)),
                                type=pa.int64()),
            'centroid': pa.array([c.tolist() for c in centroids],
                                 type=pa.list_(pa.float32())),
        }),
        cpath, filesystem=cfs)
    assigned = map_cached(emb_ds, IVFAssigner, {'centroids': centroids},
                          concurrency)
    assigned.write_parquet(storage.join(new_root, 'lists'),
                           partition_cols=['ivf_list'])

    parts = [
        {'partition_id': int(name.split('=', 1)[1]),
         'rows': storage.dir_rows(child)}
        for name, child in sorted(
            storage.list_dirs(storage.join(new_root, 'lists')).items())
        if name.startswith('ivf_list=')]
    # ---- the swap: one atomic manifest write ----
    manifest['generation'] = generation
    manifest['root'] = f'gen-{generation}'
    manifest['num_lists'] = int(num_lists)
    manifest['applied_deltas'] = []
    manifest['delta_rows_since_build'] = 0
    manifest['partitions'] = parts
    manifest['rows_out'] = sum(p['rows'] for p in parts)
    storage.write_json_atomic(manifest_path(index_dir), manifest)

    if drop_old:
        if old_root == index_dir:     # generation 0 lives at top level
            for leaf in ('lists', 'deltas'):
                if storage.exists(storage.join(index_dir, leaf)):
                    storage.rmtree(storage.join(index_dir, leaf))
        else:
            storage.rmtree(old_root)
    return manifest


def maybe_rebuild_ivf(index_dir, rebuild_ratio=0.5, **rebuild_kwargs):
    """Threshold-triggered retrain policy: rebuild once accumulated
    delta rows exceed ``rebuild_ratio`` of the base (frozen-centroid
    assignment degrades recall as deltas dominate). Returns the
    (possibly new) manifest and whether a rebuild ran."""
    from yargy_ray.state.manifests import load_manifest

    manifest = load_manifest(index_dir)
    if manifest is None:
        raise ValueError(f'no IVF index manifest under {index_dir}')
    delta_rows = manifest.get('delta_rows_since_build', 0)
    base_rows = manifest['rows_out'] - delta_rows
    if delta_rows < rebuild_ratio * max(base_rows, 1):
        return manifest, False
    return rebuild_ivf_index(index_dir, **rebuild_kwargs), True

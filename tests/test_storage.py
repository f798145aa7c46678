"""Cluster-storage seam (VERDICT r03 #2): persisted artifacts — CC edge
partitions, incremental carry/list, stage manifests — run through
URI-aware path IO. ``file://`` URIs exercise the non-bare-path branch
end-to-end: the same call chain a shared mount / object store would
use, with zero ``os.path`` / ``glob`` assumptions left on the route.
"""

import os

import pyarrow as pa
import pytest

from yargy_ray.state import storage


def test_storage_primitives_roundtrip(tmp_path):
    root = f'file://{tmp_path}/arts'
    storage.makedirs(storage.join(root, 'part=3'))
    storage.makedirs(storage.join(root, 'part=11'))
    assert storage.exists(root)
    assert sorted(storage.part_dirs(root)) == [3, 11]
    assert storage.part_dirs(root)[3].startswith('file://')

    import pyarrow.parquet as pq
    t = pa.table({'x': [1, 2, 3]})
    f, p = storage.resolve(storage.join(root, 'part=3', 'a.parquet'))
    pq.write_table(t, p, filesystem=f)
    assert storage.parquet_files(storage.join(root, 'part=3')) == [
        storage.join(root, 'part=3', 'a.parquet')]
    assert storage.dir_rows(storage.join(root, 'part=3')) == 3
    got = storage.read_parquet_dir(storage.join(root, 'part=3'))
    assert got.column('x').to_pylist() == [1, 2, 3]
    assert storage.read_parquet_dir(storage.join(root, 'part=11')) is None

    dst = f'file://{tmp_path}/copy'
    storage.copy_tree(root, dst)
    assert storage.dir_rows(storage.join(dst, 'part=3')) == 3

    storage.write_json_atomic(storage.join(root, 'm.json'), {'k': 7})
    assert storage.read_json(storage.join(root, 'm.json')) == {'k': 7}
    assert storage.read_json(storage.join(root, 'absent.json')) is None

    storage.rmtree(dst)
    assert not storage.exists(dst)
    storage.rmtree(dst)  # idempotent


def test_manifests_over_uri(tmp_path):
    from yargy_ray.state import manifests

    out = f'file://{tmp_path}/stage'
    calls = []

    def produce(d):
        calls.append(d)
        storage.makedirs(d)
        return [{'partition_id': 0, 'rows': 5}]

    m1 = manifests.run_stage('s', out, 'fp1', produce)
    m2 = manifests.run_stage('s', out, 'fp1', produce)   # resume: skip
    assert len(calls) == 1
    assert m2['written_at'] == m1['written_at']
    m3 = manifests.run_stage('s', out, 'fp2', produce)   # invalidate
    assert len(calls) == 2
    assert m3['input_fingerprint'] == 'fp2'


def test_connected_components_uri_edges_dir(ray_session, tmp_path):
    import ray.data

    from yargy_ray.stages.graph import connected_components

    pairs = ray.data.from_arrow(pa.table({
        'a': pa.array([1, 2, 10], pa.int64()),
        'b': pa.array([2, 3, 11], pa.int64())}))
    edges_dir = f'file://{tmp_path}/cc_edges'
    got = connected_components(pairs, num_partitions=4,
                               edges_dir=edges_dir).to_pandas()
    comp = dict(zip(got.node, got.component))
    assert comp == {1: 1, 2: 1, 3: 1, 10: 10, 11: 10}
    # a caller-provided dir is kept (resumable / inspectable)
    assert storage.part_dirs(edges_dir)


def test_kg_and_merge_over_uri_roots(ray_session, tmp_path):
    """Full KG build + incremental merge with every persisted root a
    file:// URI — the multi-node call shape."""
    import ray.data

    from yargy_ray.pipelines.incremental import merge_kg_delta
    from yargy_ray.pipelines.kg import run_kg_pipeline
    from yargy_ray.sources.transcripts import write_transcripts

    tpath = write_transcripts(str(tmp_path / 'transcripts'), 6)
    ds = ray.data.read_parquet(tpath)
    base_t, delta_t = str(tmp_path / 'bt'), str(tmp_path / 'dt')
    ds.filter(expr="conv_id < 'conv-00000005'").write_parquet(base_t)
    ds.filter(expr="conv_id >= 'conv-00000005'").write_parquet(delta_t)

    kg_full = f'file://{tmp_path}/kg_full'
    kg_base = f'file://{tmp_path}/kg_base'
    kg_merged = f'file://{tmp_path}/kg_merged'
    man_full = run_kg_pipeline(tpath, kg_full, concurrency=2,
                               num_partitions=4)
    assert man_full['triples']['rows_out'] > 0
    run_kg_pipeline(base_t, kg_base, concurrency=2,
                    num_partitions=4)
    man = merge_kg_delta(kg_base, delta_t, kg_merged,
                         concurrency=2, num_partitions=4)
    assert man['triples']['num_partitions'] == 4

    def canon(root, cols):
        df = ray.data.read_parquet(root).to_pandas()[cols]
        return df.sort_values(cols).reset_index(drop=True)

    for table, cols in (
            ('triples', ['subj', 'pred', 'obj']),
            ('nodes', ['node_id', 'kind', 'norm', 'degree']),
            ('edges', ['src', 'dst', 'pred', 'weight'])):
        want = canon(f'{kg_full}/{table}', cols).drop_duplicates()
        got = canon(f'{kg_merged}/{table}', cols).drop_duplicates()
        assert want.reset_index(drop=True).equals(
            got.reset_index(drop=True)), table

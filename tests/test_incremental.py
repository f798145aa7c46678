"""Incremental KG merge: exact equivalence with a full rebuild, and
partition-level incrementality (carried partitions are never rewritten).
"""

import glob
import os

import pytest


def _canon(path, cols):
    import ray.data
    df = ray.data.read_parquet(path).to_pandas()[cols]
    return (df.sort_values(cols).reset_index(drop=True))


@pytest.fixture(scope='module')
def split_corpus(ray_session, tmp_path_factory):
    """Full corpus + a base/delta split (delta = one conversation)."""
    import ray.data
    from yargy_ray.sources.transcripts import write_transcripts

    root = tmp_path_factory.mktemp('inc')
    full = write_transcripts(str(root / 'full'), 20, giant_every=13,
                             giant_factor=8)
    ds = ray.data.read_parquet(full)
    base_t, delta_t = str(root / 'base_t'), str(root / 'delta_t')
    ds.filter(expr="conv_id < 'conv-00000019'").write_parquet(base_t)
    ds.filter(expr="conv_id >= 'conv-00000019'").write_parquet(delta_t)
    return str(root), full, base_t, delta_t


@pytest.fixture(scope='module')
def merged_kg(split_corpus):
    from yargy_ray.pipelines.incremental import merge_kg_delta
    from yargy_ray.pipelines.kg import run_kg_pipeline

    root, full, base_t, delta_t = split_corpus
    run_kg_pipeline(full, f'{root}/kg_full', concurrency=2,
                    num_partitions=16)
    run_kg_pipeline(base_t, f'{root}/kg_base', concurrency=2,
                    num_partitions=16)
    manifests = merge_kg_delta(f'{root}/kg_base', delta_t,
                               f'{root}/kg_merged', concurrency=2,
                               num_partitions=16)
    return root, manifests


TABLES = [('triples', ['subj', 'pred', 'obj']),
          ('nodes', ['node_id', 'kind', 'norm', 'degree']),
          ('edges', ['src', 'dst', 'pred', 'weight'])]


@pytest.mark.parametrize('table,cols', TABLES)
def test_merge_equals_full_rebuild(merged_kg, table, cols):
    root, _ = merged_kg
    full = _canon(f'{root}/kg_full/{table}', cols).drop_duplicates()
    merged = _canon(f'{root}/kg_merged/{table}', cols).drop_duplicates()
    assert full.reset_index(drop=True).equals(
        merged.reset_index(drop=True))


def test_carried_partitions_not_rewritten(merged_kg):
    """A one-conversation delta must leave most partitions carried, and
    carried node/edge partition files must be byte-identical to base."""
    root, manifests = merged_kg
    for table in ('nodes', 'edges'):
        man = manifests[table]
        assert man['carried_partitions'], table
        assert man['merged_partitions'], table
        for pid in man['carried_partitions']:
            base_files = sorted(glob.glob(
                f'{root}/kg_base/{table}/part={pid}/*.parquet'))
            out_files = sorted(glob.glob(
                f'{root}/kg_merged/{table}/part={pid}/*.parquet'))
            assert [os.path.basename(f) for f in base_files] == \
                   [os.path.basename(f) for f in out_files]
            for bf, of in zip(base_files, out_files):
                with open(bf, 'rb') as b, open(of, 'rb') as o:
                    assert b.read() == o.read()


def test_triples_append_only(merged_kg):
    """Base triple files are carried verbatim into every partition; the
    delta only ADDS files (append-only layout, no base rewrite)."""
    root, manifests = merged_kg
    man = manifests['triples']
    assert man['new_rows'] > 0
    for d in glob.glob(f'{root}/kg_base/triples/part=*'):
        pid = d.rsplit('=', 1)[1]
        base_names = {os.path.basename(f)
                      for f in glob.glob(f'{d}/*.parquet')}
        out_names = {os.path.basename(f) for f in glob.glob(
            f'{root}/kg_merged/triples/part={pid}/*.parquet')}
        assert base_names <= out_names
        pid_i = int(pid)
        if pid_i not in man['appended_partitions']:
            assert base_names == out_names


def test_empty_delta(split_corpus, tmp_path):
    """A delta that produces no new triples (a copy of base convs)
    merges to exactly the base graph."""
    import ray.data
    from yargy_ray.pipelines.incremental import merge_kg_delta

    root, full, base_t, _ = split_corpus
    # replay a base conversation as the delta: every triple is a dup
    dup_t = str(tmp_path / 'dup_t')
    ray.data.read_parquet(base_t).filter(
        expr="conv_id == 'conv-00000003'").write_parquet(dup_t)
    out = str(tmp_path / 'kg_dupmerge')
    manifests = merge_kg_delta(f'{root}/kg_base', dup_t, out,
                               concurrency=2, num_partitions=16)
    assert manifests['triples']['new_rows'] == 0
    for table, cols in TABLES:
        base = _canon(f'{root}/kg_base/{table}', cols)
        merged = _canon(f'{out}/{table}', cols)
        assert base.equals(merged), table


def test_merge_resume_and_crash_recovery(split_corpus, tmp_path):
    """A rerun of a completed merge is a no-op; a crashed stage (no
    manifest, stray partial files) is cleared and rebuilt."""
    import glob
    import os

    from yargy_ray.pipelines.incremental import merge_kg_delta

    root, full, base_t, delta_t = split_corpus
    out = str(tmp_path / 'kg_resume')
    first = merge_kg_delta(f'{root}/kg_base', delta_t, out,
                           concurrency=2, num_partitions=16)
    second = merge_kg_delta(f'{root}/kg_base', delta_t, out,
                            concurrency=2, num_partitions=16)
    for stage in first:
        assert second[stage]['written_at'] == first[stage]['written_at']

    # simulate a crash mid-edges: drop the manifest, plant a stale file
    os.remove(f'{out}/edges/_MANIFEST.json')
    stray_dir = glob.glob(f'{out}/edges/part=*')[0]
    stray = os.path.join(stray_dir, 'zz_partial_crash.parquet')
    with open(stray, 'wb') as f:
        f.write(b'garbage')
    third = merge_kg_delta(f'{root}/kg_base', delta_t, out,
                           concurrency=2, num_partitions=16)
    assert not os.path.exists(stray)
    assert third['edges']['rows_out'] == first['edges']['rows_out']
    # triples/nodes manifests matched the fingerprint and were skipped
    assert third['triples']['written_at'] == first['triples']['written_at']
    cols = ['src', 'dst', 'pred', 'weight']
    assert _canon(f'{out}/edges', cols).equals(
        _canon(f'{root}/kg_merged/edges', cols))


def test_layout_mismatch_rejected(merged_kg, tmp_path):
    """A merge whose num_partitions disagrees with the base build's
    recorded layout must refuse up front (ADVICE r03: the same-subj
    co-partitioning invariant would silently break)."""
    from yargy_ray.pipelines.incremental import merge_kg_delta

    root, _ = merged_kg
    with pytest.raises(ValueError, match='disagrees'):
        merge_kg_delta(f'{root}/kg_base', f'{root}/delta_t',
                       str(tmp_path / 'bad'), num_partitions=8)
    with pytest.raises(ValueError, match='power of two'):
        merge_kg_delta(f'{root}/kg_base', f'{root}/delta_t',
                       str(tmp_path / 'bad2'), num_partitions=12)


def test_run_kg_pipeline_rejects_non_power_of_two(tmp_path):
    from yargy_ray.pipelines.kg import run_kg_pipeline
    with pytest.raises(ValueError, match='power of two'):
        run_kg_pipeline('unused', str(tmp_path / 'kg'), num_partitions=6)


def test_run_comention_pipeline_rejects_non_power_of_two(tmp_path):
    from yargy_ray.pipelines.incremental import run_comention_pipeline
    with pytest.raises(ValueError, match='power of two'):
        run_comention_pipeline('unused', str(tmp_path / 'cm'),
                               num_partitions=12)


def test_chained_merge_equals_full_rebuild(split_corpus, tmp_path):
    """Delta-on-delta: merging into an ALREADY-MERGED root stays
    bit-identical to a full rebuild, and manifests compose (the merged
    root validates as a base; partitions untouched by both deltas stay
    byte-identical across two generations)."""
    import ray.data
    from yargy_ray.pipelines.incremental import merge_kg_delta
    from yargy_ray.pipelines.kg import run_kg_pipeline

    root, full, _, _ = split_corpus
    ds = ray.data.read_parquet(full)
    b = str(tmp_path / 'b')
    d1, d2 = str(tmp_path / 'd1'), str(tmp_path / 'd2')
    ds.filter(expr="conv_id < 'conv-00000018'").write_parquet(b)
    ds.filter(expr="conv_id == 'conv-00000018'").write_parquet(d1)
    ds.filter(expr="conv_id == 'conv-00000019'").write_parquet(d2)

    run_kg_pipeline(b, str(tmp_path / 'kg_b'), concurrency=2,
                    num_partitions=16)
    m1 = merge_kg_delta(str(tmp_path / 'kg_b'), d1,
                        str(tmp_path / 'kg_m1'), concurrency=2,
                        num_partitions=16)
    m2 = merge_kg_delta(str(tmp_path / 'kg_m1'), d2,
                        str(tmp_path / 'kg_m2'), concurrency=2,
                        num_partitions=16)

    for table, cols in TABLES:
        want = _canon(f'{root}/kg_full/{table}', cols).drop_duplicates()
        got = _canon(f'{tmp_path}/kg_m2/{table}',
                     cols).drop_duplicates()
        assert want.reset_index(drop=True).equals(
            got.reset_index(drop=True)), table

    # second-generation manifests still record the layout
    for stage in ('triples', 'nodes', 'edges'):
        assert m2[stage]['num_partitions'] == 16

    # partitions untouched by BOTH deltas are byte-identical to the
    # original base across two carry generations
    for table in ('nodes', 'edges'):
        carried_twice = (set(m1[table]['carried_partitions'])
                         & set(m2[table]['carried_partitions']))
        assert carried_twice, table
        for pid in sorted(carried_twice):
            base_files = sorted(glob.glob(
                f'{tmp_path}/kg_b/{table}/part={pid}/*.parquet'))
            out_files = sorted(glob.glob(
                f'{tmp_path}/kg_m2/{table}/part={pid}/*.parquet'))
            assert [os.path.basename(f) for f in base_files] == \
                   [os.path.basename(f) for f in out_files]
            for bf, of in zip(base_files, out_files):
                with open(bf, 'rb') as fb, open(of, 'rb') as fo:
                    assert fb.read() == fo.read()


def test_comention_merge_equals_full_rebuild(split_corpus, tmp_path):
    """Second-order incremental maintenance: merging a delta into the
    co-mention edge table (per-pair weight sums, copy-on-write
    partitions) equals the full rebuild exactly; untouched partitions
    carry byte-identical."""
    import ray.data
    from yargy_ray.pipelines.incremental import (
        merge_comention_delta,
        run_comention_pipeline,
    )

    root, full, base_t, delta_t = split_corpus
    run_comention_pipeline(full, str(tmp_path / 'cm_full'),
                           concurrency=2, num_partitions=16)
    run_comention_pipeline(base_t, str(tmp_path / 'cm_base'),
                           concurrency=2, num_partitions=16)
    man = merge_comention_delta(str(tmp_path / 'cm_base'), delta_t,
                                str(tmp_path / 'cm_merged'),
                                concurrency=2, num_partitions=16)
    cols = ['src', 'dst', 'weight']
    want = _canon(f'{tmp_path}/cm_full/comention', cols)
    got = _canon(f'{tmp_path}/cm_merged/comention', cols)
    assert want.equals(got)
    assert man['num_partitions'] == 16
    # carried partitions byte-identical to base
    for pid in man['carried_partitions']:
        base_files = sorted(glob.glob(
            f'{tmp_path}/cm_base/comention/part={pid}/*.parquet'))
        out_files = sorted(glob.glob(
            f'{tmp_path}/cm_merged/comention/part={pid}/*.parquet'))
        assert [os.path.basename(f) for f in base_files] == \
               [os.path.basename(f) for f in out_files]
        for bf, of in zip(base_files, out_files):
            with open(bf, 'rb') as fb, open(of, 'rb') as fo:
                assert fb.read() == fo.read()

    with pytest.raises(ValueError, match='disagrees'):
        merge_comention_delta(str(tmp_path / 'cm_base'), delta_t,
                              str(tmp_path / 'cm_bad'),
                              num_partitions=8)

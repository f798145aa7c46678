"""Training-data operator tests: dedup, similarity, windows, joins, text."""

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope='module')
def docs(ray_session):
    import ray.data
    base = [
        'the quick brown fox jumps over the lazy dog again and again',
        'a completely different document about ray data pipelines',
        'pyarrow batches stream through the object store with backpressure',
        'numbers and words mixed fifty five tokens of filler text here',
    ]
    rows = []
    doc_id = 0
    for text in base:
        for variant in (text, text, text + ' xyz'):  # dup + near-dup
            rows.append({'doc_id': doc_id, 'text': variant})
            doc_id += 1
    return ray.data.from_items(rows)


def test_exact_dedup(docs):
    from yargy_ray.stages.dedup import exact_dedup, exact_dedup_groups
    groups = {r['fp']: r for r in exact_dedup_groups(docs).iter_rows()}
    assert len(groups) == 8                    # 4 texts x (dup-pair + variant)
    n_dups = sorted(r['n_dups'] for r in groups.values())
    assert n_dups == [1, 1, 1, 1, 2, 2, 2, 2]
    kept = exact_dedup(docs).count()
    assert kept == 8


def test_minhash_near_dups(docs):
    from yargy_ray.stages.dedup import minhash_near_dups
    pairs = {(r['a'], r['b']) for r in
             minhash_near_dups(docs, threshold=0.6).iter_rows()}
    # exact duplicates of each text must pair up (ids 3k and 3k+1)
    for k in range(4):
        assert (3 * k, 3 * k + 1) in pairs
    # near-dup variant should also pair with at least one twin
    assert any((3 * k, 3 * k + 2) in pairs for k in range(4))
    # different texts never pair
    assert all(b - a <= 2 for a, b in pairs)


def test_simhash_near_dups(docs):
    from yargy_ray.stages.dedup import simhash_near_dups
    pairs = {(r['a'], r['b']): r['hamming']
             for r in simhash_near_dups(docs, max_hamming=3).iter_rows()}
    for k in range(4):
        assert pairs[(3 * k, 3 * k + 1)] == 0   # identical -> distance 0
    assert all(b - a <= 2 for a, b in pairs)


def test_ngram_jaccard(docs):
    from yargy_ray.stages.dedup import ngram_jaccard_dups
    pairs = {(r['a'], r['b']): r['jaccard']
             for r in ngram_jaccard_dups(docs, threshold=0.5).iter_rows()}
    for k in range(4):
        assert pairs[(3 * k, 3 * k + 1)] == 1.0
    assert all(b - a <= 2 for a, b in pairs)


@pytest.fixture(scope='module')
def vectors(ray_session):
    import ray.data
    rng = np.random.RandomState(5)
    vecs = rng.randn(300, 16).astype(np.float32)
    vecs[7] = vecs[3] + 0.001                 # a planted near-duplicate
    return ray.data.from_items([
        {'vec_id': i, 'embedding': vecs[i].tolist()} for i in range(300)
    ]), vecs


def test_brute_force_topk(vectors):
    from yargy_ray.stages.similarity import brute_force_topk
    ds, vecs = vectors
    out = brute_force_topk(ds, vecs[:2], k=5)
    got = {(r['query_id'], r['rank']): r['vec_id']
           for r in out.to_pylist()}
    # rank 0 of query i is vector i itself (cosine 1.0)
    assert got[(0, 0)] == 0
    assert got[(1, 0)] == 1
    # exact result matches direct numpy computation
    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    expect = np.argsort(-(unit[:2] @ unit.T), axis=1)[:, :5]
    for q in range(2):
        mine = [got[(q, r)] for r in range(5)]
        assert set(mine) == set(expect[q].tolist())


def test_ivf_topk_recall(vectors):
    from yargy_ray.stages.similarity import brute_force_topk, ivf_topk
    ds, vecs = vectors
    exact = brute_force_topk(ds, vecs[:2], k=10)
    approx = ivf_topk(ds, vecs[:2], k=10, num_lists=8, nprobe=4)
    for q in range(2):
        want = {r['vec_id'] for r in exact.to_pylist() if r['query_id'] == q}
        got = {r['vec_id'] for r in approx.to_pylist() if r['query_id'] == q}
        assert len(want & got) / len(want) >= 0.5   # nprobe=4 of 8 lists


def test_ivf_persisted_index(vectors, tmp_path):
    from yargy_ray.stages.similarity import (
        build_ivf_index,
        ivf_topk_indexed,
    )
    ds, vecs = vectors
    idx = str(tmp_path / 'ivf')
    man1 = build_ivf_index(ds, idx, num_lists=8, input_key='corpus-t')
    assert sum(p['rows'] for p in man1['partitions']) == 300
    # second build with the same fingerprint resumes from the manifest
    man2 = build_ivf_index(ds, idx, num_lists=8, input_key='corpus-t')
    assert man2['written_at'] == man1['written_at']
    out = ivf_topk_indexed(idx, vecs[:1], k=5, nprobe=2)
    assert out.num_rows == 5
    # probing 2 of 8 lists must touch a strict subset of the index
    import glob
    import pyarrow.parquet as pq
    sizes = {d: sum(pq.ParquetFile(f).metadata.num_rows
                    for f in glob.glob(d + '/*.parquet'))
             for d in glob.glob(idx + '/lists/ivf_list=*')}
    assert min(sizes.values()) < 300


def test_embedding_near_dups(vectors):
    from yargy_ray.stages.dedup import embedding_near_dups
    ds, _ = vectors
    pairs = {(r['a'], r['b']) for r in
             embedding_near_dups(ds, dim=16, threshold=0.999).iter_rows()}
    assert (3, 7) in pairs


def test_sessionize(ray_session):
    import ray.data
    from yargy_ray.stages.windows import sessionize
    base = np.datetime64('2024-01-01T00:00:00', 'us')
    rows = []
    eid = 0
    for user, gaps in [(1, [0, 5, 10, 120, 125]), (2, [0, 200])]:
        for minutes in gaps:
            rows.append({
                'event_id': eid, 'user_id': user,
                'ts': base + np.timedelta64(minutes * 60, 's'),
                'event_type': 'x', 'value': 1.0})
            eid += 1
    out = sessionize(ray.data.from_items(rows), gap_minutes=30).take_all()
    by_user = {}
    for r in out:
        by_user.setdefault(r['user_id'], []).append(r['n_events'])
    assert sorted(by_user[1]) == [2, 3]
    assert sorted(by_user[2]) == [1, 1]


def test_tumbling_window(ray_session):
    import ray.data
    from yargy_ray.stages.windows import tumbling_window
    base = np.datetime64('2024-01-01T00:00:00', 'us')
    rows = [
        {'event_id': i, 'user_id': 1,
         'ts': base + np.timedelta64(i * 25, 'm'),
         'event_type': 'a' if i % 2 == 0 else 'b', 'value': float(i)}
        for i in range(6)
    ]
    out = tumbling_window(ray.data.from_items(rows)).take_all()
    total = sum(r['n_events'] for r in out)
    assert total == 6
    # events at 0,25,50 land in hour 0; 75,100,125 -> hours 1..2
    hours = {(r['event_type'], str(r['window_start'])) for r in out}
    assert len(hours) == len(out)


def test_broadcast_join(ray_session):
    import ray.data
    from yargy_ray.stages.joins import broadcast_join
    big = ray.data.from_items([
        {'k': i % 3, 'v': i} for i in range(30)])
    small = ray.data.from_items([
        {'id': 0, 'name': 'zero'}, {'id': 1, 'name': 'one'}])
    out = broadcast_join(big, small, 'k', 'id', ['name']).take_all()
    assert len(out) == 20                      # k==2 rows dropped (inner)
    assert all(r['name'] in ('zero', 'one') for r in out)


def test_text_ops(ray_session):
    import ray.data
    from yargy_ray.stages.text import (
        fingerprint_batch,
        lang_id_batch,
        quality_batch,
        token_count_batch,
    )
    batch = pa.table({
        'doc_id': pa.array([0, 1, 2], type=pa.int64()),
        'text': ['hello world  test', 'привет мир', '   '],
    })
    counts = token_count_batch(batch).column('n_tokens').to_pylist()
    assert counts == [3, 2, 0]
    langs = lang_id_batch(batch).column('lang_pred').to_pylist()
    assert langs == ['en', 'ru', 'und']
    q = quality_batch(batch)
    assert q.column('passes').to_pylist() == [False, False, False]
    import hashlib
    fps = fingerprint_batch(batch).column('fp').to_pylist()
    assert fps[0] == hashlib.md5(b'hello world  test').hexdigest()


def test_multimodal_plumbing(ray_session):
    import ray.data
    from yargy_ray.stages.multimodal import (
        FrameSampler,
        LibraryCodec,
        featurize_images,
        synth_media,
    )
    media = ray.data.from_arrow(synth_media(20))
    feats = featurize_images(media, concurrency=(1, 2)).take_all()
    assert len(feats) == 20
    assert all(len(r['feature']) == 3 for r in feats)
    # determinism: same media id -> same feature
    again = featurize_images(ray.data.from_arrow(synth_media(20)),
                             concurrency=(1, 2)).take_all()
    assert sorted(map(repr, feats)) == sorted(map(repr, again))
    # real codec boundary is explicit
    with pytest.raises(NotImplementedError):
        LibraryCodec().decode_image(b'', 1, 1)
    frames = FrameSampler(every=10)(synth_media(5, kind='video'))
    assert frames.num_rows >= 5


def test_entity_linking(ray_session):
    import ray
    import ray.data
    from yargy_ray.stages.link import build_gazetteer, link_entities

    gazetteer = {
        'POS:director': ['директор'],
        'POS:senior-engineer': ['старший инженер'],
        'ORG:zavod': ['завод'],
    }
    rows = [
        {'obj': 'директором'},          # inflected -> linked via lemma
        {'obj': 'старшим инженером'},   # multi-token inflected phrase
        {'obj': 'заводе'},
        {'obj': 'неизвестное слово'},   # unlinked, keeps lemma key
    ]
    ds = ray.data.from_items(rows)
    out = {r['obj']: r for r in
           link_entities(ds, gazetteer, column='obj').iter_rows()}
    assert out['директором']['entity_id'] == 'POS:director'
    assert out['директором']['linked'] is True
    assert out['старшим инженером']['entity_id'] == 'POS:senior-engineer'
    assert out['заводе']['entity_id'] == 'ORG:zavod'
    assert out['неизвестное слово']['linked'] is False

    # broadcast path: pass a pre-put ObjectRef, same results
    ref = ray.put(build_gazetteer(gazetteer))
    out2 = {r['obj']: r['entity_id'] for r in
            link_entities(ds, ref, column='obj').iter_rows()}
    assert out2['директором'] == 'POS:director'


def test_asof_join(ray_session):
    import pandas as pd
    import ray.data

    from yargy_ray.stages.joins import asof_join

    left = ray.data.from_items([
        {'id': 1, 'user': 7, 't': 10},
        {'id': 2, 'user': 7, 't': 25},
        {'id': 3, 'user': 8, 't': 5},    # before any right row -> null
        {'id': 4, 'user': 9, 't': 50},   # user with no right rows
    ])
    right = ray.data.from_items([
        {'user': 7, 't': 10, 'v': 1.5},  # exact-ts match counts
        {'user': 7, 't': 20, 'v': 2.5},
        {'user': 8, 't': 30, 'v': 9.0},
    ])
    out = (asof_join(left, right, by='user', on='t', num_partitions=4)
           .to_pandas().sort_values('id').reset_index(drop=True))
    assert list(out.columns) == ['id', 'user', 't', 'v_r']
    assert list(out['id']) == [1, 2, 3, 4]
    assert out.loc[0, 'v_r'] == 1.5          # inclusive backward
    assert out.loc[1, 'v_r'] == 2.5
    assert pd.isna(out.loc[2, 'v_r'])
    assert pd.isna(out.loc[3, 'v_r'])

    fwd = (asof_join(left, right, by='user', on='t',
                     direction='forward', num_partitions=4)
           .to_pandas().sort_values('id').reset_index(drop=True))
    assert fwd.loc[0, 'v_r'] == 1.5          # inclusive forward
    assert pd.isna(fwd.loc[1, 'v_r'])        # nothing at t >= 25
    assert fwd.loc[2, 'v_r'] == 9.0


def test_interval_join(ray_session):
    import ray.data

    from yargy_ray.stages.joins import interval_join

    left = ray.data.from_items([
        {'id': 1, 'k': 1, 't': 5},    # inside [0, 10]
        {'id': 2, 'k': 1, 't': 10},   # inclusive stop
        {'id': 3, 'k': 1, 't': 15},   # in the gap -> dropped
        {'id': 4, 'k': 1, 't': 20},   # inclusive start of [20, 30]
        {'id': 5, 'k': 2, 't': 5},    # key with no intervals -> dropped
    ])
    right = ray.data.from_items([
        {'k': 1, 'lo': 0, 'hi': 10, 'label': 'a'},
        {'k': 1, 'lo': 20, 'hi': 30, 'label': 'b'},
    ])
    out = (interval_join(left, right, by='k', on='t',
                         start='lo', stop='hi', num_partitions=4)
           .to_pandas().sort_values('id').reset_index(drop=True))
    assert list(out['id']) == [1, 2, 4]
    assert list(out['label_r']) == ['a', 'a', 'b']


def test_hopping_window(ray_session):
    import numpy as np
    import ray.data

    base = np.datetime64('2024-01-01T00:00:00', 'us')
    h = np.timedelta64(3600, 's')
    events = ray.data.from_items([
        {'event_type': 'click', 'ts': base + 0 * h, 'value': 1.0},
        {'event_type': 'click', 'ts': base + 1 * h, 'value': 2.0},
        {'event_type': 'click', 'ts': base + 5 * h, 'value': 4.0},
    ])
    from yargy_ray.stages.windows import hopping_window
    out = (hopping_window(events, size_hours=3, hop_hours=1)
           .to_pandas().sort_values('window_start').reset_index(drop=True))
    # event at hour H lands in windows starting H-2, H-1, H
    got = {(r.window_start.hour - 24 * (r.window_start.day - 1)
            if r.window_start.day > 1 else r.window_start.hour
            - (24 if r.window_start.year < 2024 else 0)): r.sum_value
           for r in out.itertuples()}
    # windows -2,-1 (from hour 0), 0: 1+2, 1: 2, 3: 4 (hour-5 event) ...
    assert got[0] == 3.0 and got[1] == 2.0
    assert got[3] == 4.0 and got[5] == 4.0

    # hop > 1: 6h windows every 2h stay 2h-grid-aligned
    out2 = (hopping_window(events, size_hours=6, hop_hours=2)
            .to_pandas())
    mins = {ws.minute for ws in out2['window_start']}
    assert mins == {0}
    assert all(ws.hour % 2 == 0 for ws in out2['window_start'])
    assert out2['n_events'].sum() == 9   # 3 events x 3 windows each


def test_hash_split(ray_session):
    import ray.data

    from yargy_ray.stages.sampling import hash_split

    ds = ray.data.range(2000).map_batches(
        lambda b: {'doc_id': b['id']}, batch_format='numpy')
    out = hash_split(ds, 'doc_id').to_pandas()
    frac = out['split'].value_counts(normalize=True)
    assert 0.85 < frac['train'] < 0.95
    assert 0.02 < frac['val'] < 0.09
    assert 0.02 < frac['test'] < 0.09
    # deterministic: re-running reproduces the exact assignment
    again = hash_split(ds, 'doc_id').to_pandas()
    assert out.sort_values('doc_id')['split'].tolist() == \
        again.sort_values('doc_id')['split'].tolist()


def test_topk_per_group(ray_session):
    import ray.data

    from yargy_ray.stages.sampling import topk_per_group

    rows = [{'g': i % 3, 'id': i, 'score': (i * 7) % 11}
            for i in range(30)]
    ds = ray.data.from_items(rows)
    out = (topk_per_group(ds, 'g', 'score', k=2, tiebreak='id',
                          num_partitions=4)
           .to_pandas().sort_values(['g', 'score', 'id'],
                                    ascending=[True, False, True]))
    assert len(out) == 6
    import pandas as pd
    df = pd.DataFrame(rows)
    for g, grp in df.groupby('g'):
        expect = grp.sort_values(['score', 'id'],
                                 ascending=[False, True]).head(2)
        got = out[out['g'] == g]
        assert sorted(got['id']) == sorted(expect['id'])


def test_vocab_counts(ray_session):
    import ray.data

    from yargy_ray.stages.text import vocab_counts

    ds = ray.data.from_items([
        {'text': 'a b a  C'},
        {'text': 'c a'},
        {'text': '   '},
    ])
    out = vocab_counts(ds).to_pandas().set_index('token')['n'].to_dict()
    assert out == {'a': 3, 'b': 1, 'c': 2}


def test_connected_components(ray_session):
    import ray.data

    from yargy_ray.stages.graph import connected_components

    # chain 1-2-3-4 (diameter 3 forces multiple propagation rounds),
    # triangle 10-11-12, isolated pair 20-21
    pairs = ray.data.from_items([
        {'a': 2, 'b': 1}, {'a': 2, 'b': 3}, {'a': 3, 'b': 4},
        {'a': 10, 'b': 11}, {'a': 11, 'b': 12}, {'a': 10, 'b': 12},
        {'a': 21, 'b': 20},
    ])
    out = (connected_components(pairs, num_partitions=4)
           .to_pandas().set_index('node')['component'].to_dict())
    assert out == {1: 1, 2: 1, 3: 1, 4: 1,
                   10: 10, 11: 10, 12: 10, 20: 20, 21: 20}


def test_connected_components_long_chain(ray_session):
    """Pointer jumping: a 64-node chain must converge in O(log n)
    rounds — max_rounds=12 would be far too few for pure neighbor
    propagation (needs ~63)."""
    import ray.data

    from yargy_ray.stages.graph import connected_components

    pairs = ray.data.from_items(
        [{'a': i, 'b': i + 1} for i in range(63)])
    out = (connected_components(pairs, num_partitions=4, max_rounds=12)
           .to_pandas())
    assert len(out) == 64
    assert set(out['component']) == {0}


def test_new_operators_empty_inputs(ray_session):
    """Empty partitions/sides are the classic distributed failure mode;
    every round-2 operator must handle them without crashing."""
    import ray.data

    from yargy_ray.stages.graph import connected_components
    from yargy_ray.stages.joins import asof_join
    from yargy_ray.stages.sampling import hash_split, topk_per_group
    from yargy_ray.stages.text import vocab_counts
    from yargy_ray.stages.windows import hopping_window

    import pandas as pd

    left = ray.data.from_items([{'id': 1, 'k': 1, 't': 5}])
    empty_right = ray.data.from_arrow(pa.table({
        'k': pa.array([], type=pa.int64()),
        't': pa.array([], type=pa.int64()),
        'v': pa.array([], type=pa.float64())}))
    out = asof_join(left, empty_right, by='k', on='t',
                    num_partitions=4).to_pandas()
    assert len(out) == 1 and pd.isna(out.loc[0, 'v_r'])

    empty_pairs = ray.data.from_arrow(pa.table({
        'a': pa.array([], type=pa.int64()),
        'b': pa.array([], type=pa.int64())}))
    assert connected_components(empty_pairs, num_partitions=4).count() == 0

    empty_events = ray.data.from_arrow(pa.table({
        'event_type': pa.array([], type=pa.string()),
        'ts': pa.array([], type=pa.timestamp('us')),
        'value': pa.array([], type=pa.float64())}))
    assert hopping_window(empty_events).count() == 0

    empty_docs = ray.data.from_arrow(pa.table({
        'doc_id': pa.array([], type=pa.int64())}))
    assert hash_split(empty_docs, 'doc_id').count() == 0
    assert vocab_counts(ray.data.from_arrow(pa.table({
        'text': pa.array([], type=pa.string())}))).count() == 0
    empty_g = ray.data.from_arrow(pa.table({
        'g': pa.array([], type=pa.int64()),
        'id': pa.array([], type=pa.int64()),
        's': pa.array([], type=pa.int64())}))
    assert topk_per_group(empty_g, 'g', 's', 2,
                          num_partitions=4).count() == 0


def test_group_quantiles(ray_session):
    import numpy as np
    import ray.data

    from yargy_ray.stages.sampling import group_quantiles

    rng = np.random.RandomState(5)
    rows = [{'k': int(k), 'v': float(v)}
            for k, v in zip(rng.randint(0, 6, 500), rng.rand(500) * 100)]
    rows.append({'k': 99, 'v': 42.0})       # single-element group
    ds = ray.data.from_items(rows)
    out = (group_quantiles(ds, 'k', 'v', qs=(0.5, 0.9), num_partitions=4)
           .to_pandas().set_index('k'))
    import pandas as pd
    df = pd.DataFrame(rows)
    for k, grp in df.groupby('k'):
        x = np.sort(grp['v'].to_numpy())
        for q, col in ((0.5, 'q50'), (0.9, 'q90')):
            h = q * (len(x) - 1)
            lo = int(np.floor(h)); frac = h - lo
            hi = min(lo + 1, len(x) - 1)
            expect = x[lo] * (1 - frac) + x[hi] * frac
            assert out.loc[k, col] == expect, (k, col)
    assert out.loc[99, 'q50'] == 42.0 and out.loc[99, 'q90'] == 42.0


def test_stratified_sample(ray_session):
    import ray.data

    from yargy_ray.stages.sampling import stratified_sample

    rows = [{'g': i % 4, 'id': i} for i in range(200)]
    ds = ray.data.from_items(rows)
    out = (stratified_sample(ds, 'g', 'id', k=3, num_partitions=4)
           .to_pandas())
    assert len(out) == 12
    assert out.groupby('g').size().tolist() == [3, 3, 3, 3]
    # deterministic across re-runs
    again = stratified_sample(ds, 'g', 'id', k=3,
                              num_partitions=8).to_pandas()
    assert (sorted(map(tuple, out[['g', 'id']].values.tolist()))
            == sorted(map(tuple, again[['g', 'id']].values.tolist())))


def test_hash_join(ray_session):
    import ray.data

    from yargy_ray.stages.joins import hash_join

    left = ray.data.from_items([
        {'k': 1, 'x': 'a'}, {'k': 1, 'x': 'b'},
        {'k': 2, 'x': 'c'}, {'k': 3, 'x': 'd'},   # k=3 has no right
    ])
    right = ray.data.from_items([
        {'k': 1, 'x': 'R1', 'w': 10},   # 'x' collides -> suffixed
        {'k': 2, 'x': 'R2', 'w': 20},
        {'k': 4, 'x': 'R4', 'w': 40},   # k=4 has no left
    ])
    out = (hash_join(left, right, on='k', num_partitions=4)
           .to_pandas().sort_values(['k', 'x']).reset_index(drop=True))
    assert list(out.columns) == ['k', 'x', 'x_r', 'w']
    assert out['k'].tolist() == [1, 1, 2]
    assert out['x'].tolist() == ['a', 'b', 'c']
    assert out['x_r'].tolist() == ['R1', 'R1', 'R2']
    assert out['w'].tolist() == [10, 10, 20]


def test_co_mention_edges(ray_session):
    """Pairs weighted by conversations of co-occurrence; turn subjects
    excluded; pair key ordered; cap trims deterministically."""
    import itertools

    import ray.data
    from yargy_ray.pipelines.kg import co_mention_edges, node_id_of

    triples = pa.table({
        'conv_id': ['c1', 'c1', 'c1', 'c2', 'c2', 'c3'],
        'subj': ['c1:0', 'c1:1', 'иван иванов', 'c2:0', 'c2:1', 'c3:0'],
        'pred': ['mentions_date', 'mentions_person', 'has_position',
                 'mentions_date', 'mentions_person', 'mentions_date'],
        'obj': ['2020-01-01', 'иван иванов', 'директор',
                '2020-01-01', 'иван иванов', '2020-01-01'],
    })
    ds = ray.data.from_arrow(triples)
    got = co_mention_edges(ds, num_partitions=4).to_pandas()
    got = got.sort_values(['src', 'dst']).reset_index(drop=True)

    # expected: per-conv entity sets (kind:norm), all unordered pairs
    ents = {
        'c1': {'date:2020-01-01', 'person:иван иванов',
               'position:директор'},
        'c2': {'date:2020-01-01', 'person:иван иванов'},
        'c3': {'date:2020-01-01'},
    }
    from collections import Counter
    expected = Counter()
    for conv, es in ents.items():
        for a, b in itertools.combinations(sorted(es), 2):
            expected[(a, b)] += 1
    want = sorted((node_id_of(a), node_id_of(b), w)
                  for (a, b), w in expected.items())
    assert [tuple(r) for r in got.itertuples(index=False)] == want

    # cap: max_entities=2 keeps only the first 2 entities per conv
    capped = co_mention_edges(ds, num_partitions=4,
                              max_entities=2).to_pandas()
    # c1's sorted entities: date, person, position -> only (date, person)
    assert len(capped) == 1
    assert capped.iloc[0]['weight'] == 2  # c1 and c2


def test_two_hop_counts(ray_session):
    """a->b->c, a->b->d, b->c->a, plus a 2-hop path returning to its
    start (excluded) and a diamond (distinct count, not path count)."""
    import ray.data
    from yargy_ray.stages.graph import two_hop_counts

    edges = pa.table({
        'src': ['a', 'b', 'b', 'c', 'a', 'x', 'y'],
        'dst': ['b', 'c', 'd', 'a', 'x', 'c', 'a'],
    })
    got = two_hop_counts(ray.data.from_arrow(edges),
                         num_partitions=4).to_pandas()
    got = dict(zip(got.node_id, got.two_hop))
    # a: via b -> {c,d}, via x -> {c} => {c,d} = 2 (diamond on c)
    # b: via c -> {a}, via d -> {} => 1
    # c: via a -> {b,x} => 2
    # x: via c -> {a} => 1
    # y: via a -> {b,x} => 2
    assert got == {'a': 2, 'b': 1, 'c': 2, 'x': 1, 'y': 2}


def test_hash_join_variants(ray_session):
    """left / semi / anti modes: null-filled outer rows, no semi
    duplication, exact anti complement, empty-right behavior."""
    import ray.data

    from yargy_ray.stages.joins import hash_join

    left = ray.data.from_arrow(pa.table({
        'k': [1, 2, 3, 4], 'v': ['a', 'b', 'c', 'd']}))
    right = ray.data.from_arrow(pa.table({
        'k': [2, 2, 4], 'w': ['x', 'x2', 'y']}))

    lj = hash_join(left, right, on='k', how='left',
                   num_partitions=4).to_pandas().sort_values(
        ['k', 'w']).reset_index(drop=True)
    # 2 matches twice (two right rows), 1 and 3 survive with nulls
    assert len(lj) == 5
    assert lj[lj.k == 1].w.isna().all() and lj[lj.k == 3].w.isna().all()
    assert sorted(lj[lj.k == 2].w) == ['x', 'x2']

    semi = hash_join(left, right, on='k', how='semi',
                     num_partitions=4).to_pandas()
    assert sorted(semi.k) == [2, 4]          # no duplication
    assert list(semi.columns) == ['k', 'v']  # left columns only

    anti = hash_join(left, right, on='k', how='anti',
                     num_partitions=4).to_pandas()
    assert sorted(anti.k) == [1, 3]

    empty_right = ray.data.from_arrow(pa.table({
        'k': pa.array([], type=pa.int64()),
        'w': pa.array([], type=pa.string())}))
    anti_all = hash_join(left, empty_right, on='k', how='anti',
                         num_partitions=4).to_pandas()
    assert sorted(anti_all.k) == [1, 2, 3, 4]

    with pytest.raises(ValueError):
        hash_join(left, right, on='k', how='outer')


def test_hash_join_left_preserves_63bit_ints(ray_session):
    """Unmatched left rows force nulls into right int columns; the
    pandas merge must NOT round-trip int64 through float64 (values
    above 2**53 would silently corrupt — ADVICE r03)."""
    import ray.data

    from yargy_ray.stages.joins import hash_join

    big = (1 << 60) + 1          # not representable in float64
    big2 = (1 << 62) + 3
    left = ray.data.from_arrow(pa.table({
        'k': pa.array([1, 2, 3], pa.int64()),
        'lv': pa.array([big2, 5, big2 + 1], pa.int64())}))
    right = ray.data.from_arrow(pa.table({
        'k': pa.array([1], pa.int64()),
        'rv': pa.array([big], pa.int64())}))

    lj = hash_join(left, right, on='k', how='left',
                   num_partitions=2).to_pandas().sort_values(
        'k').reset_index(drop=True)
    assert lj.loc[0, 'rv'] == big            # exact, not 2**60
    assert lj['rv'].isna().tolist() == [False, True, True]
    # left 63-bit values survive every mode (the union table holds
    # nulls in left columns on right-tagged rows)
    assert lj['lv'].tolist() == [big2, 5, big2 + 1]
    inner = hash_join(left, right, on='k', num_partitions=2).to_pandas()
    assert inner['rv'].tolist() == [big]
    assert inner['lv'].tolist() == [big2]
    semi = hash_join(left, right, on='k', how='semi',
                     num_partitions=2).to_pandas()
    assert semi['lv'].tolist() == [big2]


def test_asof_join_preserves_63bit_ints(ray_session):
    import ray.data

    from yargy_ray.stages.joins import asof_join

    big = (1 << 61) + 7
    left = ray.data.from_arrow(pa.table({
        'u': pa.array([1, 1, 2], pa.int64()),
        't': pa.array([10, 20, 10], pa.int64()),
        'lv': pa.array([big, big + 1, big + 2], pa.int64())}))
    right = ray.data.from_arrow(pa.table({
        'u': pa.array([1], pa.int64()),
        't': pa.array([15], pa.int64()),
        'rv': pa.array([big + 10], pa.int64())}))
    out = asof_join(left, right, by='u', on='t',
                    num_partitions=2).to_pandas().sort_values(
        ['u', 't']).reset_index(drop=True)
    assert out['lv'].tolist() == [big, big + 1, big + 2]
    assert out.loc[1, 'rv_r'] == big + 10
    assert out['rv_r'].isna().tolist() == [True, False, True]


def test_co_mention_capped_stat(ray_session):
    """The bounded-work trim is COUNTED: include_capped_stat surfaces
    one (__capped_convs__, __capped_convs__, N) row; the default path
    drops it and never leaks the sentinel."""
    import ray.data

    from yargy_ray.pipelines.kg import CAPPED_STAT_ID, co_mention_edges

    triples = pa.table({
        'conv_id': ['c1', 'c1', 'c1', 'c2', 'c2', 'c2', 'c3', 'c3'],
        'subj': ['c1:0'] * 3 + ['c2:0'] * 3 + ['c3:0'] * 2,
        'pred': ['mentions_date', 'mentions_person', 'mentions_title'] * 2
                + ['mentions_date', 'mentions_person'],
        'obj': ['2020-01-01', 'иван', 'книга'] * 2 + ['2021-05-05', 'пётр'],
    })
    ds = ray.data.from_arrow(triples)
    # c1 and c2 have 3 entities (> cap of 2), c3 has exactly 2
    with_stat = co_mention_edges(
        ds, num_partitions=4, max_entities=2,
        include_capped_stat=True).to_pandas()
    stat = with_stat[with_stat.src == CAPPED_STAT_ID]
    assert len(stat) == 1
    assert stat.iloc[0]['weight'] == 2
    assert stat.iloc[0]['dst'] == CAPPED_STAT_ID

    default = co_mention_edges(ds, num_partitions=4,
                               max_entities=2).to_pandas()
    assert not (default.src == CAPPED_STAT_ID).any()
    assert len(default) == len(with_stat) - 1

    # no capping -> no stat row even when requested
    uncapped = co_mention_edges(ds, num_partitions=4,
                                include_capped_stat=True).to_pandas()
    assert not (uncapped.src == CAPPED_STAT_ID).any()


def test_two_hop_hub_cap(ray_session):
    """A planted high-degree hub is deterministically trimmed to
    max_mid_degree per side (bounded work: <= k^2 pairs, not i*o), and
    the capped mid is counted in the stat row."""
    import ray.data

    from yargy_ray.stages.graph import CAPPED_MID_STAT_ID, two_hop_counts

    n = 60
    srcs = [f's{i:03d}' for i in range(n)]
    dsts = [f'd{i:03d}' for i in range(n)]
    edges = pa.table({
        'src': srcs + ['hub'] * n,
        'dst': ['hub'] * n + dsts,
    })
    ds = ray.data.from_arrow(edges)

    # uncapped: every src reaches all 60 dsts through the hub
    full = two_hop_counts(ds, num_partitions=4).to_pandas()
    assert dict(zip(full.node_id, full.two_hop)) == {s: n for s in srcs}

    # cap of 8: first 8 srcs (sort order) x first 8 dsts survive
    k = 8
    capped = two_hop_counts(ds, num_partitions=4, max_mid_degree=k,
                            include_capped_stat=True).to_pandas()
    stat = capped[capped.node_id == CAPPED_MID_STAT_ID]
    assert stat.two_hop.tolist() == [1]          # one capped mid
    rest = capped[capped.node_id != CAPPED_MID_STAT_ID]
    assert dict(zip(rest.node_id, rest.two_hop)) == {
        f's{i:03d}': k for i in range(k)}

    # default path drops the stat row but still trims
    silent = two_hop_counts(ds, num_partitions=4,
                            max_mid_degree=k).to_pandas()
    assert not (silent.node_id == CAPPED_MID_STAT_ID).any()
    assert len(silent) == k


def test_as_matrix_zero_copy_paths():
    """FixedSizeList / rectangular list / chunked columns reshape the
    flat value buffer; ragged or null-bearing columns fall back to the
    exact slow path."""
    from yargy_ray.stages.similarity import _as_matrix

    data = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    want = np.asarray(data, dtype=np.float32)

    fsl = pa.array(data, type=pa.list_(pa.float32(), 2))
    assert np.array_equal(_as_matrix(fsl), want)

    var = pa.array(data, type=pa.list_(pa.float64()))
    assert np.array_equal(_as_matrix(var), want)

    chunked = pa.chunked_array([pa.array(data[:2]), pa.array(data[2:])])
    assert np.array_equal(_as_matrix(chunked), want)

    # sliced offsets must be respected (flatten, not raw .values)
    assert np.array_equal(_as_matrix(fsl.slice(1, 2)), want[1:])
    assert np.array_equal(_as_matrix(var.slice(1, 2)), want[1:])

    # dtype plumbing on the fast path
    assert _as_matrix(var, dtype=np.float64).dtype == np.float64


def test_triangle_counts(ray_session):
    """K4 minus one edge = two triangles sharing an edge; orientation
    must not depend on input edge order (any a/b orientation)."""
    import ray.data

    from yargy_ray.stages.graph import triangle_counts

    # K4 on {a,b,c,d} minus edge (c,d): triangles abc and abd.
    # Mixed orientations on purpose.
    edges = pa.table({
        'src': ['a', 'c', 'a', 'b', 'd'],
        'dst': ['b', 'a', 'd', 'c', 'b'],
    })
    got = triangle_counts(ray.data.from_arrow(edges),
                          num_partitions=4).to_pandas()
    assert dict(zip(got.node_id, got.triangles)) == {
        'a': 2, 'b': 2, 'c': 1, 'd': 1}


def test_triangle_rank_rejects_unknown_nodes():
    """The degree-rank lookup must name a node missing from the rank
    table, not read a neighbour's rank (inside the table's range) or
    index past its end (after its last entry)."""
    from yargy_ray.stages.graph import _rank

    nodes_idx = np.array(['a', 'c', 'e'])
    ranks = np.array([2, 0, 1])
    assert _rank(pa.array(['e', 'a', 'c']), nodes_idx, ranks).tolist() \
        == [1, 2, 0]
    with pytest.raises(ValueError, match="'b'"):
        _rank(pa.array(['a', 'b']), nodes_idx, ranks)
    with pytest.raises(ValueError, match="'z'"):
        _rank(pa.array(['z']), nodes_idx, ranks)


def test_triangle_counts_wedge_cap(ray_session):
    """Degree-ordered orientation: a fan hub stays EXACT under a tiny
    wedge cap (the hub is the max-rank corner, so it never generates
    wedges); a clique (all degrees tied) still trims deterministically
    and reports the capped nodes."""
    import ray.data

    from yargy_ray.stages.graph import (
        CAPPED_WEDGE_STAT_ID,
        triangle_counts,
    )

    # fan hub + chain: triangles (a, x_i, x_{i+1}) generate at the
    # LOW-degree chain corners under degree ordering -> cap=5 is exact
    n = 20
    xs = [f'x{i:02d}' for i in range(n)]
    fan = pa.table({
        'src': ['a'] * n + xs[:-1],
        'dst': xs + xs[1:],
    })
    full = triangle_counts(ray.data.from_arrow(fan),
                           num_partitions=4).to_pandas()
    assert full[full.node_id == 'a'].triangles.tolist() == [n - 1]
    capped = triangle_counts(ray.data.from_arrow(fan),
                             num_partitions=4, max_wedge_degree=5,
                             include_capped_stat=True).to_pandas()
    assert CAPPED_WEDGE_STAT_ID not in set(capped.node_id)
    assert capped[capped.node_id == 'a'].triangles.tolist() == [n - 1]

    # K8 clique: ranks tie-break by id; v0/v1 (out-degree 7/6 > cap)
    # trim to their first 5 higher-rank neighbors, v2 (exactly 5) is
    # complete. Surviving wedges all close: 10+10+10+6+3+1 = 40 of 56
    # triangles, so the per-corner count sum is 120 (lower bound vs 168)
    vs = [f'v{i}' for i in range(8)]
    clique = pa.table({
        'src': [vs[i] for i in range(8) for j in range(i + 1, 8)],
        'dst': [vs[j] for i in range(8) for j in range(i + 1, 8)],
    })
    exact = triangle_counts(ray.data.from_arrow(clique),
                            num_partitions=4).to_pandas()
    assert sorted(exact.triangles) == [21] * 8
    trimmed = triangle_counts(ray.data.from_arrow(clique),
                              num_partitions=4, max_wedge_degree=5,
                              include_capped_stat=True).to_pandas()
    stat = trimmed[trimmed.node_id == CAPPED_WEDGE_STAT_ID]
    assert stat.triangles.tolist() == [2]
    rest = trimmed[trimmed.node_id != CAPPED_WEDGE_STAT_ID]
    assert rest.triangles.sum() == 120


def test_funnel_stages(ray_session):
    import ray.data

    from yargy_ray.stages.windows import funnel_stages

    base = np.datetime64('2024-01-01T00:00:00', 'us')

    def ev(user, minute, typ):
        return {'user_id': user, 'ts': base + np.timedelta64(minute, 'm'),
                'event_type': typ}

    rows = (
        # user 1: full ordered funnel
        [ev(1, 0, 'click'), ev(1, 5, 'view'), ev(1, 9, 'purchase')]
        # user 2: purchase BEFORE view -> stage 2 only
        + [ev(2, 0, 'click'), ev(2, 1, 'purchase'), ev(2, 2, 'view')]
        # user 3: view before any click -> stage 1 only
        + [ev(3, 0, 'view'), ev(3, 1, 'click')]
        # user 4: never clicks -> stage 0
        + [ev(4, 0, 'view'), ev(4, 1, 'purchase')]
        # user 5: tie timestamps — strict '>' rejects the same-minute view
        + [ev(5, 0, 'click'), ev(5, 0, 'view')]
    )
    got = funnel_stages(ray.data.from_items(rows),
                        num_partitions=4).to_pandas()
    assert dict(zip(got.user_id, got.funnel_stage)) == {
        1: 3, 2: 2, 3: 1, 4: 0, 5: 1}


def test_entity_mention_stats(ray_session):
    import ray.data

    from yargy_ray.pipelines.kg import entity_mention_stats

    triples = pa.table({
        'conv_id': ['c1', 'c1', 'c2', 'c3', 'c2'],
        'subj': ['c1:0', 'c1:1', 'c2:0', 'иван', 'c2:1'],
        'pred': ['mentions_date', 'mentions_date', 'mentions_date',
                 'has_position', 'mentions_person'],
        'obj': ['2020-01-01', '2020-01-01', '2020-01-01',
                'директор', 'иван'],
    })
    got = entity_mention_stats(ray.data.from_arrow(triples),
                               num_partitions=4).to_pandas()
    got = got.set_index(['kind', 'norm'])
    date = got.loc[('date', '2020-01-01')]
    assert (date.mentions, date.convs, date.first_conv,
            date.last_conv) == (3, 2, 'c1', 'c2')
    person = got.loc[('person', 'иван')]
    assert (person.mentions, person.convs) == (1, 1)
    # has_position excluded entirely
    assert ('position', 'директор') not in got.index


def test_doc_top_terms(ray_session):
    import ray.data

    from yargy_ray.stages.text import doc_top_terms

    docs = ray.data.from_items([
        {'doc_id': 0, 'text': 'b b b a a c shared'},
        {'doc_id': 1, 'text': 'z z a shared shared'},
        {'doc_id': 2, 'text': 'only'},
    ])
    got = doc_top_terms(docs, k=2, num_partitions=4).to_pandas()
    got = got.sort_values(['doc_id', 'tf', 'token'],
                          ascending=[True, False, True])
    by_doc = {d: list(zip(g.token, g.tf, g.df))
              for d, g in got.groupby('doc_id')}
    # doc 0: b(3), a(2); doc 1: shared(2) and z(2) tie -> token asc
    assert by_doc[0] == [('b', 3, 1), ('a', 2, 2)]
    assert by_doc[1] == [('shared', 2, 2), ('z', 2, 1)]
    assert by_doc[2] == [('only', 1, 1)]


def test_round4_operators_empty_inputs(ray_session):
    """Empty datasets flow through the round-4 operators without
    schema or reduce crashes."""
    import ray.data

    from yargy_ray.pipelines.kg import (
        entity_conv_counts,
        entity_mention_stats,
    )
    from yargy_ray.stages.graph import triangle_counts
    from yargy_ray.stages.text import doc_top_terms
    from yargy_ray.stages.windows import funnel_stages

    from yargy_ray.stages.windows import event_transitions

    empty_edges = ray.data.from_arrow(pa.table({
        'src': pa.array([], pa.string()),
        'dst': pa.array([], pa.string())}))
    assert triangle_counts(empty_edges, num_partitions=2).count() == 0

    empty_events = ray.data.from_arrow(pa.table({
        'event_id': pa.array([], pa.int64()),
        'user_id': pa.array([], pa.int64()),
        'ts': pa.array([], pa.timestamp('us')),
        'event_type': pa.array([], pa.string())}))
    assert event_transitions(empty_events, num_partitions=2).count() == 0

    empty_triples = ray.data.from_arrow(pa.table({
        'conv_id': pa.array([], pa.string()),
        'subj': pa.array([], pa.string()),
        'pred': pa.array([], pa.string()),
        'obj': pa.array([], pa.string())}))
    assert entity_mention_stats(empty_triples,
                                num_partitions=2).count() == 0
    assert entity_conv_counts(empty_triples,
                              num_partitions=2).count() == 0

    empty_events = ray.data.from_arrow(pa.table({
        'user_id': pa.array([], pa.int64()),
        'ts': pa.array([], pa.timestamp('us')),
        'event_type': pa.array([], pa.string())}))
    assert funnel_stages(empty_events, num_partitions=2).count() == 0

    empty_docs = ray.data.from_arrow(pa.table({
        'doc_id': pa.array([], pa.int64()),
        'text': pa.array([], pa.string())}))
    assert doc_top_terms(empty_docs, num_partitions=2).count() == 0


def test_pagerank_matches_power_iteration(ray_session):
    """Fixed-iteration PageRank equals the dense numpy power iteration
    (same update rule incl. dangling redistribution) to float
    tolerance, sums to ~1, and is deterministic across runs."""
    import ray.data

    from yargy_ray.stages.graph import pagerank

    names = ['a', 'b', 'c', 'd', 'e']
    idx = {n: i for i, n in enumerate(names)}
    pairs = [('a', 'b'), ('a', 'c'), ('b', 'c'), ('c', 'd'),
             ('e', 'a'), ('c', 'a')]                 # d is dangling
    edges = pa.table({'src': [p[0] for p in pairs],
                      'dst': [p[1] for p in pairs]})

    d, iters, n = 0.85, 10, len(names)
    A = np.zeros((n, n))
    for s, t in pairs:
        A[idx[s], idx[t]] = 1.0
    outdeg = A.sum(axis=1)
    dangling = outdeg == 0
    W = np.divide(A, outdeg[:, None], out=np.zeros_like(A),
                  where=outdeg[:, None] > 0)
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        r = ((1 - d) / n + d * r[dangling].sum() / n
             + d * (W.T @ r))

    got = pagerank(ray.data.from_arrow(edges), damping=d, iters=iters,
                   num_partitions=4).to_pandas()
    ranks = dict(zip(got.node, got['rank']))
    assert set(ranks) == set(names)
    assert abs(sum(ranks.values()) - 1.0) < 1e-9
    for name in names:
        assert abs(ranks[name] - r[idx[name]]) < 1e-12, name

    again = pagerank(ray.data.from_arrow(edges), damping=d,
                     iters=iters, num_partitions=4).to_pandas()
    assert dict(zip(again.node, again['rank'])) == ranks  # bit-equal


def test_pack_assignments(ray_session):
    """Global ordered prefix sum: offsets/packs independent of block
    layout; sparse non-contiguous doc_ids handled by range partition."""
    import ray.data

    from yargy_ray.stages.packing import pack_assignments

    rows = [{'doc_id': i * 7 + 3, 'text': 'tok ' * (i + 1)}
            for i in range(50)]          # 1..50 tokens, sparse ids
    import random
    rng = random.Random(4)
    rng.shuffle(rows)                    # arrival order != key order
    ds = ray.data.from_items(rows).repartition(7)
    got = pack_assignments(ds, seq_len=64,
                           num_partitions=8).to_pandas()
    got = got.sort_values('doc_id').reset_index(drop=True)
    assert got['n_tokens'].tolist() == list(range(1, 51))
    expect_off = np.concatenate(
        ([0], np.cumsum(np.arange(1, 50)))).tolist()
    assert got['offset'].tolist() == expect_off
    assert got['pack_id'].tolist() == [o // 64 for o in expect_off]

    empty = ray.data.from_arrow(pa.table({
        'doc_id': pa.array([], pa.int64()),
        'text': pa.array([], pa.string())}))
    assert pack_assignments(empty, num_partitions=4).count() == 0


def test_contamination_counts(ray_session):
    import ray.data

    from yargy_ray.stages.decontam import contamination_counts

    bench = ray.data.from_items([
        {'doc_id': 0, 'text': 'the quick brown fox jumps'}])
    train = ray.data.from_items([
        # hits: 'the quick brown', 'quick brown fox' (2 of 4 grams)
        {'doc_id': 10, 'text': 'see the quick brown fox run'},
        {'doc_id': 11, 'text': 'completely clean document here'},
        {'doc_id': 12, 'text': 'too short'},        # 0 grams
        {'doc_id': 13, 'text': 'THE QUICK BROWN'},  # caseless hit
        {'doc_id': 14, 'text': '   '},              # blank
    ])
    got = contamination_counts(train, bench, n=3).to_pandas()
    got = got.set_index('doc_id')
    assert (got.loc[10, 'n_grams'], got.loc[10, 'n_contaminated']) \
        == (4, 2)
    assert (got.loc[11, 'n_grams'], got.loc[11, 'n_contaminated']) \
        == (2, 0)
    assert (got.loc[12, 'n_grams'], got.loc[12, 'n_contaminated']) \
        == (0, 0)
    assert (got.loc[13, 'n_grams'], got.loc[13, 'n_contaminated']) \
        == (1, 1)
    assert (got.loc[14, 'n_grams'], got.loc[14, 'n_contaminated']) \
        == (0, 0)


def test_kmv_distinct(ray_session):
    """KMV sketch: exact below k, estimate within the theoretical
    error band above k, block-layout-invariant."""
    import ray.data

    from yargy_ray.stages.sketch import kmv_distinct

    small = ray.data.from_items([{'v': i % 10} for i in range(200)])
    row = kmv_distinct(small, 'v', k=64).to_pylist()[0]
    assert row['n_mins'] == 10 and row['estimate'] == 10.0

    big = ray.data.from_items([{'v': i % 3000} for i in range(6000)])
    row = kmv_distinct(big.repartition(13), 'v', k=256).to_pylist()[0]
    assert row['n_mins'] == 256
    # KMV relative error ~ 1/sqrt(k-1) ≈ 6.3%; allow 4 sigma
    assert abs(row['estimate'] - 3000) / 3000 < 0.25

    again = kmv_distinct(big.repartition(3), 'v', k=256).to_pylist()[0]
    assert again == row                   # layout-invariant, bit-equal


def test_heavy_hitters_exact(ray_session):
    """Sketch-pruned heavy hitters equal the naive full count exactly,
    across block layouts; no qualifying token is ever missed."""
    from collections import Counter

    import ray.data

    from yargy_ray.stages.sketch import heavy_hitters

    rng = np.random.RandomState(9)
    vocab = [f'w{i:03d}' for i in range(300)]
    # zipf-ish: a few hot tokens + a long tail
    weights = np.array([1.0 / (i + 1) for i in range(300)])
    weights /= weights.sum()
    rows, truth = [], Counter()
    for d in range(120):
        toks = rng.choice(vocab, size=40, p=weights)
        truth.update(toks)
        rows.append({'doc_id': d, 'text': ' '.join(toks)})
    total = sum(truth.values())
    want = {t: c for t, c in truth.items() if c >= 0.01 * total}

    ds = ray.data.from_items(rows).repartition(9)
    got = heavy_hitters(ds, min_frac=0.01, num_partitions=8)
    got = dict(zip(got.column('token').to_pylist(),
                   got.column('n').to_pylist()))
    assert got == want

    again = heavy_hitters(ray.data.from_items(rows).repartition(3),
                          min_frac=0.01, num_partitions=4)
    assert dict(zip(again.column('token').to_pylist(),
                    again.column('n').to_pylist())) == want


def test_interval_join_all_overlapping(ray_session):
    """Overlapping right intervals: a point inside k intervals emits k
    rows; inclusive bounds; cross-key isolation."""
    import ray.data

    from yargy_ray.stages.joins import interval_join_all

    left = ray.data.from_arrow(pa.table({
        'id': pa.array([1, 2, 3, 4], pa.int64()),
        'u': pa.array([7, 7, 7, 8], pa.int64()),
        't': pa.array([5, 15, 25, 15], pa.int64())}))
    right = ray.data.from_arrow(pa.table({
        'u': pa.array([7, 7, 8], pa.int64()),
        'lo': pa.array([0, 10, 0], pa.int64()),      # [0,20] overlaps
        'hi': pa.array([20, 30, 10], pa.int64()),    # [10,30]
        'w': pa.array([100, 200, 300], pa.int64())}))
    out = interval_join_all(left, right, by='u', on='t',
                            start='lo', stop='hi',
                            num_partitions=4).to_pandas()
    got = sorted(zip(out.id, out.w))
    # t=5 -> [0,20]; t=15 -> both; t=25 -> [10,30]; u=8 t=15 -> none
    assert got == [(1, 100), (2, 100), (2, 200), (3, 200)]
    # inclusive bounds
    edge = ray.data.from_arrow(pa.table({
        'id': pa.array([9], pa.int64()),
        'u': pa.array([7], pa.int64()),
        't': pa.array([20], pa.int64())}))
    out2 = interval_join_all(edge, right, by='u', on='t',
                             start='lo', stop='hi',
                             num_partitions=2).to_pandas()
    assert sorted(out2.w) == [100, 200]


def test_ivf_incremental_merge(ray_session, tmp_path):
    """Delta vectors append into their assigned lists (existing files
    untouched); queries over the merged index find planted delta
    neighbors; the manifest tracks drift."""
    import glob
    import os

    import ray.data

    from yargy_ray.stages.similarity import (
        build_ivf_index,
        ivf_topk_indexed,
        merge_ivf_delta,
    )

    rng = np.random.RandomState(11)
    base_vecs = rng.randn(200, 16).astype(np.float32)
    base = ray.data.from_items([
        {'vec_id': i, 'embedding': base_vecs[i].tolist()}
        for i in range(200)])
    idx = str(tmp_path / 'ivf_inc')
    man0 = build_ivf_index(base, idx, num_lists=8, input_key='inc-t')
    before = {f: os.path.getmtime(f)
              for f in glob.glob(idx + '/lists/ivf_list=*/*.parquet')}

    # delta: exact copies of base vectors 0..4 under new ids
    delta = ray.data.from_items([
        {'vec_id': 1000 + i, 'embedding': base_vecs[i].tolist()}
        for i in range(5)])
    man1 = merge_ivf_delta(idx, delta)
    assert man1['rows_out'] == 205
    assert man1['delta_rows_since_build'] == 5
    # append-only: every pre-merge file untouched
    for f, mtime in before.items():
        assert os.path.getmtime(f) == mtime, f

    out = ivf_topk_indexed(idx, base_vecs[:5], k=2, nprobe=2)
    got = {(r['query_id'], r['rank']): r['vec_id']
           for r in out.to_pylist()}
    for q in range(5):
        # the original and its delta copy share cosine 1.0; tiebreak
        # is vec_id ascending -> original first, copy second
        assert got[(q, 0)] == q
        assert got[(q, 1)] == 1000 + q


def test_word_ngrams_blank_row_alignment():
    """ADVICE r4 (high): blank/whitespace-only rows must not shift the
    flat token buffer — split('') contributes one '' token that the
    gram-start indices have to account for."""
    from yargy_ray.stages.decontam import _word_ngrams

    g, c = _word_ngrams(pa.chunked_array([pa.array(['', 'a b c'])]), 2)
    assert list(g) == ['a b', 'b c'] and list(c) == [0, 2]
    g, c = _word_ngrams(pa.chunked_array([pa.array(
        ['x y', '  ', 'a b c', None, 'p q r'])]), 2)
    assert list(g) == ['x y', 'a b', 'b c', 'p q', 'q r']
    assert list(c) == [1, 0, 2, 0, 2]


def test_contamination_counts_blank_first(ray_session):
    """Blank docs BEFORE real docs (the r4 unit test only had one
    last) must not shift later rows' gram windows."""
    import ray.data

    from yargy_ray.stages.decontam import contamination_counts

    bench = ray.data.from_items([{'doc_id': 0, 'text': 'a b c'}])
    train = ray.data.from_items([
        {'doc_id': 1, 'text': '   '},
        {'doc_id': 2, 'text': ''},
        {'doc_id': 3, 'text': 'a b c d'},   # grams: abc (hit), bcd
        {'doc_id': 4, 'text': 'x a b c'},   # grams: xab, abc (hit)
    ])
    got = contamination_counts(train, bench, n=3).to_pandas() \
        .set_index('doc_id')
    assert (got.loc[3, 'n_grams'], got.loc[3, 'n_contaminated']) \
        == (2, 1)
    assert (got.loc[4, 'n_grams'], got.loc[4, 'n_contaminated']) \
        == (2, 1)
    assert (got.loc[1, 'n_grams'], got.loc[2, 'n_grams']) == (0, 0)


def test_kmv_nulls_excluded(ray_session):
    """ADVICE r4 (low): nulls are dropped from the hash universe, so a
    column with nulls sketches identically to the same column without
    them (SQL md5(NULL) IS NULL semantics)."""
    import ray.data

    from yargy_ray.stages.sketch import kmv_distinct

    vals = [f'v{i}' for i in range(40)]
    with_nulls = ray.data.from_arrow(pa.table({
        'v': pa.array(vals + [None, None, None])}))
    without = ray.data.from_arrow(pa.table({'v': pa.array(vals)}))
    a = kmv_distinct(with_nulls, 'v', k=64).to_pylist()[0]
    b = kmv_distinct(without, 'v', k=64).to_pylist()[0]
    assert a == b
    assert a['estimate'] == 40.0          # exact below k


def test_pack_range_partition_snowflake_ids(ray_session):
    """ADVICE r4 (low): doc_id spans beyond ~2^57 (snowflake-style)
    must not overflow the range partitioner."""
    import ray.data

    from yargy_ray.stages.packing import pack_assignments

    ids = [0, 1, (1 << 62) - 1, (1 << 62) + 5, (1 << 63) - 2]
    ds = ray.data.from_arrow(pa.table({
        'doc_id': pa.array(ids, pa.int64()),
        'text': pa.array([f'w{i} ' * (i % 7 + 1) for i in
                          range(len(ids))])}))
    got = pack_assignments(ds, seq_len=8, num_partitions=16) \
        .to_pandas().sort_values('doc_id').reset_index(drop=True)
    assert got['doc_id'].tolist() == sorted(ids)
    n = got['n_tokens'].to_numpy()
    expect_off = np.concatenate(([0], np.cumsum(n[:-1]))).tolist()
    assert got['offset'].tolist() == expect_off


def test_ivf_delta_idempotent_and_crash_safe(ray_session, tmp_path):
    """ADVICE r4 (medium): re-applying the same delta is a no-op, and
    a retry after a simulated crash (partial delta files on disk, no
    manifest entry) does not double-count."""
    import os

    import ray.data

    from yargy_ray.stages.similarity import (
        build_ivf_index,
        ivf_topk_indexed,
        merge_ivf_delta,
    )

    rng = np.random.RandomState(7)
    base_vecs = rng.randn(100, 16).astype(np.float32)
    base = ray.data.from_items([
        {'vec_id': i, 'embedding': base_vecs[i].tolist()}
        for i in range(100)])
    idx = str(tmp_path / 'ivf_idem')
    build_ivf_index(base, idx, num_lists=4, input_key='idem-t')

    delta = ray.data.from_items([
        {'vec_id': 500 + i, 'embedding': base_vecs[i].tolist()}
        for i in range(3)])
    man1 = merge_ivf_delta(idx, delta, delta_id='d1')
    assert man1['rows_out'] == 103
    # exact re-apply: no-op
    man2 = merge_ivf_delta(idx, delta, delta_id='d1')
    assert man2['rows_out'] == 103
    assert man2['applied_deltas'] == ['d1']
    # content-derived id also dedups a no-id re-apply
    delta_b = ray.data.from_items([
        {'vec_id': 700 + i, 'embedding': base_vecs[50 + i].tolist()}
        for i in range(3)])
    man3 = merge_ivf_delta(idx, delta_b)
    man4 = merge_ivf_delta(idx, delta_b)
    assert man4['rows_out'] == man3['rows_out'] == 106
    # no duplicate neighbors in query results
    out = ivf_topk_indexed(idx, base_vecs[:1], k=50, nprobe=4)
    ids = [r['vec_id'] for r in out.to_pylist()]
    assert len(ids) == len(set(ids))

    # simulated crash: partial files under a delta-id dir, manifest
    # NOT updated -> queries don't see it; retry wipes and lands once
    ddir = os.path.join(idx, 'deltas', 'd2', 'ivf_list=0')
    os.makedirs(ddir)
    import pyarrow.parquet as pq
    pq.write_table(pa.table({
        'vec_id': pa.array([900], pa.int64()),
        'embedding': pa.array([base_vecs[0].tolist()],
                              pa.list_(pa.float32()))}),
        os.path.join(ddir, 'partial.parquet'))
    out = ivf_topk_indexed(idx, base_vecs[:1], k=50, nprobe=4)
    assert 900 not in [r['vec_id'] for r in out.to_pylist()]
    delta2 = ray.data.from_items([
        {'vec_id': 900, 'embedding': base_vecs[0].tolist()}])
    man5 = merge_ivf_delta(idx, delta2, delta_id='d2')
    assert man5["rows_out"] == 107
    out = ivf_topk_indexed(idx, base_vecs[:1], k=50, nprobe=4)
    assert [r['vec_id'] for r in out.to_pylist()].count(900) == 1


def test_rollup_aggregate(ray_session):
    import ray.data

    from yargy_ray.stages.olap import rollup_aggregate

    rows = []
    for g, s, v in [('a', 'x', 1), ('a', 'x', 2), ('a', 'y', 4),
                    ('b', 'x', 8), ('b', 'y', 16), ('b', 'y', 32)]:
        rows.append({'g': g, 's': s, 'val': v})
    out = rollup_aggregate(ray.data.from_items(rows), ['g', 's'],
                           ['val']).to_pandas()
    got = {(r.g if isinstance(r.g, str) else None,
            r.s if isinstance(r.s, str) else None,
            r.lvl): (r.val, r.n_rows) for r in out.itertuples()}
    assert got[('a', 'x', 0)] == (3, 2)
    assert got[('a', 'y', 0)] == (4, 1)
    assert got[('b', 'x', 0)] == (8, 1)
    assert got[('b', 'y', 0)] == (48, 2)
    assert got[('a', None, 1)] == (7, 3)
    assert got[('b', None, 1)] == (56, 3)
    assert got[(None, None, 3)] == (63, 6)
    assert len(got) == 7


def test_rollup_aggregate_int_keys(ray_session):
    """Rolled-up int keys are int nulls, so the levels concatenate."""
    import ray
    import ray.data

    from yargy_ray.stages.olap import rollup_aggregate

    rows = [{'g': g, 's': s, 'val': v}
            for g, s, v in [(1, 10, 1), (1, 10, 2), (1, 20, 4), (2, 10, 8)]]
    out = rollup_aggregate(ray.data.from_items(rows), ['g', 's'], ['val'])
    table = pa.concat_tables(ray.get(out.to_arrow_refs()))
    assert table.schema.field('g').type == pa.int64()
    assert table.schema.field('s').type == pa.int64()
    got = sorted(table.to_pylist(), key=lambda r: (r['lvl'], str(r)))
    assert got == [
        {'g': 1, 's': 10, 'val': 3, 'n_rows': 2, 'lvl': 0},
        {'g': 1, 's': 20, 'val': 4, 'n_rows': 1, 'lvl': 0},
        {'g': 2, 's': 10, 'val': 8, 'n_rows': 1, 'lvl': 0},
        {'g': 1, 's': None, 'val': 7, 'n_rows': 3, 'lvl': 1},
        {'g': 2, 's': None, 'val': 8, 'n_rows': 1, 'lvl': 1},
        {'g': None, 's': None, 'val': 15, 'n_rows': 4, 'lvl': 3},
    ]


def test_pivot_counts(ray_session):
    import ray.data

    from yargy_ray.stages.olap import pivot_counts

    rows = ([{'u': 1, 'e': 'click'}] * 3 + [{'u': 1, 'e': 'view'}]
            + [{'u': 2, 'e': 'view'}] * 2 + [{'u': 2, 'e': 'buy'}])
    out = pivot_counts(ray.data.from_items(rows), 'u', 'e',
                       ['click', 'view', 'buy']).to_pandas() \
        .set_index('u').sort_index()
    assert out.loc[1].tolist() == [3, 1, 0]
    assert out.loc[2].tolist() == [0, 2, 1]
    assert list(out.columns) == ['n_click', 'n_view', 'n_buy']


def test_fixed_histogram(ray_session):
    import ray.data

    from yargy_ray.stages.olap import fixed_histogram

    ds = ray.data.from_items([{'x': v} for v in
                              [0, 5, 9, 10, 25, 99, 100, 42]])
    out = fixed_histogram(ds, 'x', lo=0, width=10, num_buckets=5) \
        .to_pandas().set_index('bucket')['n']
    # buckets: [0,10) [10,20) [20,30) [30,40) [40+ clamped]
    assert out.tolist() == [3, 1, 1, 0, 3]


def test_fixed_histogram_drops_values_below_lo(ray_session):
    """Values below ``lo`` fall in no bucket (the SQL oracle's negative
    buckets miss its ``RANGE`` join); they are not clamped into 0."""
    import ray.data

    from yargy_ray.stages.olap import fixed_histogram

    ds = ray.data.from_items([{'x': v} for v in
                              [-25, -1, 0, 9, 10, 19, 20, 500]])
    out = fixed_histogram(ds, 'x', lo=0, width=10, num_buckets=3) \
        .to_pandas().set_index('bucket')['n']
    assert out.tolist() == [2, 2, 2]
    shifted = fixed_histogram(ds, 'x', lo=10, width=10, num_buckets=3) \
        .to_pandas().set_index('bucket')['n']
    assert shifted.tolist() == [2, 1, 1]


def test_event_gaps(ray_session):
    import ray.data

    from yargy_ray.stages.windows import event_gaps

    base = np.datetime64('2024-01-01T00:00:00', 'us')
    rows = []
    for eid, (u, mins) in enumerate([(1, 0), (1, 5), (1, 12),
                                     (2, 0), (2, 1)]):
        rows.append({'event_id': eid, 'user_id': u,
                     'ts': base + np.timedelta64(mins * 60, 's')})
    out = event_gaps(ray.data.from_items(rows)).to_pandas() \
        .set_index('event_id')
    assert out.loc[0, 'gap_us'] is None or np.isnan(out.loc[0, 'gap_us'])
    assert out.loc[1, 'gap_us'] == 5 * 60 * 1_000_000
    assert out.loc[2, 'gap_us'] == 7 * 60 * 1_000_000
    assert np.isnan(out.loc[3, 'gap_us']) or out.loc[3, 'gap_us'] is None
    assert out.loc[4, 'gap_us'] == 60 * 1_000_000


def test_bigram_counts_and_repetition(ray_session):
    import ray.data

    from yargy_ray.stages.text import bigram_counts, repetition_batch

    docs = ray.data.from_items([
        {'doc_id': 0, 'text': 'a b a b c'},
        {'doc_id': 1, 'text': ''},
        {'doc_id': 2, 'text': 'a b'},
    ])
    got = {r['bigram']: r['n'] for r in bigram_counts(docs).iter_rows()}
    assert got == {'a b': 3, 'b a': 1, 'b c': 1}

    rep = repetition_batch(pa.table({
        'doc_id': pa.array([0, 1, 2], pa.int64()),
        'text': pa.array(['a b a b c', '', 'x y z']),
    }))
    assert rep.column('n_grams').to_pylist() == [4, 0, 2]
    assert rep.column('n_distinct').to_pylist() == [3, 0, 2]


def test_degree_correlation(ray_session):
    import ray.data

    from yargy_ray.stages.graph import degree_correlation, node_degrees

    # path graph 1-2-3-4 plus edge 2-4: degrees 1:1 2:3 3:2 4:2
    edges = ray.data.from_items([
        {'src': 'n1', 'dst': 'n2'}, {'src': 'n2', 'dst': 'n3'},
        {'src': 'n3', 'dst': 'n4'}, {'src': 'n2', 'dst': 'n4'}])
    deg = {r['node']: r['degree']
           for r in node_degrees(edges).iter_rows()}
    assert deg == {'n1': 1, 'n2': 3, 'n3': 2, 'n4': 2}
    row = degree_correlation(edges).take_all()[0]
    # edge ends (du, dv): (1,3) (3,2) (2,2) (3,2)
    assert row == {'n_edges': 4, 'sum_du': 9, 'sum_dv': 9,
                   'sum_du_dv': 19, 'sum_du2': 23, 'sum_dv2': 21}


def test_stdlib_codec_roundtrip():
    """REAL container formats through the codec seam: BMP pixels and
    WAV PCM survive encode -> StdlibCodec.decode bit-for-bit."""
    from yargy_ray.stages.multimodal import (
        StdlibCodec,
        encode_bmp,
        encode_wav,
    )

    c = StdlibCodec()
    rng = np.random.RandomState(0)
    for (h, w) in [(5, 7), (8, 16), (3, 3), (1, 1)]:
        px = rng.randint(0, 256, size=(h, w, 3), dtype=np.uint8)
        out = c.decode_image(encode_bmp(px))
        assert out.shape == (h, w, 3) and (out == px).all()
    t = np.arange(500) / 8000.0
    s = 0.5 * np.sin(2 * np.pi * 440 * t)
    dec = c.decode_audio(encode_wav(s, 8000))
    pcm = np.clip(s * 32768.0, -32768, 32767).astype('<i2')
    assert len(dec) == 500
    assert np.array_equal(dec, pcm.astype(np.float32) / 32768.0)


def test_real_codec_featurize(ray_session):
    """The actor-pool featurizers accept an injected REAL codec: BMP
    image features equal directly-computed channel means; WAV audio
    features recover the exact PCM integers."""
    import ray.data

    from yargy_ray.stages.multimodal import (
        StdlibCodec,
        featurize_audio,
        featurize_images,
        synth_real_media,
    )

    media = ray.data.from_arrow(synth_real_media(20))
    images = media.filter(expr="kind == 'image'")
    feats = {r['media_id']: r['feature']
             for r in featurize_images(
                 images, concurrency=(1, 2)).iter_rows()}
    # featurize_images defaults to FakeCodec; rebuild with StdlibCodec
    from yargy_ray.stages.multimodal import ImageFeaturizer
    real = images.map_batches(
        ImageFeaturizer,
        fn_constructor_kwargs={'codec': StdlibCodec()},
        batch_format='pyarrow', concurrency=(1, 2))
    got = {r['media_id']: r['feature'] for r in real.iter_rows()}

    # direct first-principles check for one known row
    tbl = synth_real_media(20)
    codec = StdlibCodec()
    for mid in got:
        row = tbl.slice(mid, 1).to_pylist()[0]
        px = codec.decode_image(row['payload'])
        h, w, _ = px.shape
        ys = np.linspace(0, h - 1, 32).astype(np.int64)
        xs = np.linspace(0, w - 1, 32).astype(np.int64)
        want = px[np.ix_(ys, xs)].mean(axis=(0, 1)).astype(np.float32)
        assert np.array_equal(np.asarray(got[mid], dtype=np.float32),
                              want), mid
    assert set(got) != set()
    assert set(feats) == set(got)   # same ids either codec

    audio = media.filter(expr="kind == 'audio'")
    out = {r['media_id']: (r['n_samples'], r['pcm_sumsq'])
           for r in featurize_audio(
               audio, codec=StdlibCodec()).iter_rows()}
    for mid, (n, ss) in out.items():
        row = tbl.slice(mid, 1).to_pylist()[0]
        pcm = np.frombuffer(row['payload'][44:], dtype='<i2') \
            .astype(np.int64)
        assert n == len(pcm)
        assert ss == int((pcm * pcm).sum())


def test_multimodal_audio_fixture_matches():
    """The committed golden fixture equals the engine's decode-path
    output (the driver oracle contract)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from yargy_ray.stages.multimodal import (
        AudioFeaturizer,
        StdlibCodec,
        synth_real_media,
    )

    media = synth_real_media(200)
    audio = media.filter(pc.equal(media.column('kind'), 'audio'))
    got = AudioFeaturizer(codec=StdlibCodec())(audio)
    fix = pq.read_table(
        'tests/fixtures/multimodal_audio.parquet')
    assert got.sort_by('media_id').equals(fix.sort_by('media_id'))


def test_ivf_threshold_rebuild(ray_session, tmp_path):
    """VERDICT r4 #6: threshold-triggered retrain. Deltas accumulate
    below the ratio with no action; crossing it rebuilds into a new
    generation subtree (old files untouched until the manifest swap),
    resets drift counters, and keeps the recall floor; later deltas
    land under the new generation."""
    import os

    import ray.data

    from yargy_ray.stages.similarity import (
        build_ivf_index,
        ivf_topk_indexed,
        maybe_rebuild_ivf,
        merge_ivf_delta,
        suggest_num_lists,
    )

    # sqrt(N) guideline
    assert suggest_num_lists(200) == 16          # floor at sandbox scale
    assert suggest_num_lists(1_000_000) == 1000  # grows with the corpus

    rng = np.random.RandomState(17)
    base_vecs = rng.randn(200, 16).astype(np.float32)
    base = ray.data.from_items([
        {'vec_id': i, 'embedding': base_vecs[i].tolist()}
        for i in range(200)])
    idx = str(tmp_path / 'ivf_rb')
    build_ivf_index(base, idx, num_lists=8, input_key='rb-t')

    def plant(start_id, vec_rows):
        return ray.data.from_items([
            {'vec_id': start_id + i, 'embedding': base_vecs[i].tolist()}
            for i in range(vec_rows)])

    merge_ivf_delta(idx, plant(1000, 30), delta_id='d1')
    man, ran = maybe_rebuild_ivf(idx, rebuild_ratio=0.5)
    assert not ran and man.get('generation', 0) == 0   # 30/200 < 0.5
    merge_ivf_delta(idx, plant(2000, 80), delta_id='d2')

    man, ran = maybe_rebuild_ivf(idx, rebuild_ratio=0.5, num_lists=8)
    assert ran                                          # 110/200 >= 0.5
    assert man['generation'] == 1 and man['root'] == 'gen-1'
    assert man['applied_deltas'] == []
    assert man['delta_rows_since_build'] == 0
    assert man['rows_out'] == 310
    # old generation left readable (no drop_old)
    assert os.path.isdir(idx + '/lists')
    assert os.path.isdir(idx + '/gen-1/lists')

    # recall floor after rebuild: exhaustive probe finds the planted
    # copies (cosine 1.0, vec_id-ascending tiebreak)
    out = ivf_topk_indexed(idx, base_vecs[:5], k=3, nprobe=8)
    got = {(r['query_id'], r['rank']): r['vec_id']
           for r in out.to_pylist()}
    for q in range(5):
        assert got[(q, 0)] == q
        assert got[(q, 1)] == 1000 + q
        assert got[(q, 2)] == 2000 + q

    # post-rebuild deltas land under the new generation and are seen
    merge_ivf_delta(idx, plant(3000, 5), delta_id='d3')
    assert os.path.isdir(idx + '/gen-1/deltas/d3')
    out2 = ivf_topk_indexed(idx, base_vecs[:5], k=4, nprobe=8)
    got2 = {(r['query_id'], r['rank']): r['vec_id']
            for r in out2.to_pylist()}
    for q in range(5):
        assert got2[(q, 3)] == 3000 + q


def test_event_transitions(ray_session):
    """LEAD pairs: per-user adjacency in (ts, event_id) order; no
    cross-user pair; counts summed globally."""
    import ray.data

    from yargy_ray.stages.windows import event_transitions

    base = np.datetime64('2024-01-01T00:00:00', 'us')
    rows = [
        # user 1: a -> b -> b
        {'event_id': 1, 'user_id': 1, 'ts': base, 'event_type': 'a'},
        {'event_id': 2, 'user_id': 1, 'ts': base + 10, 'event_type': 'b'},
        {'event_id': 3, 'user_id': 1, 'ts': base + 20, 'event_type': 'b'},
        # user 2: b -> a ; equal timestamps tiebreak on event_id
        {'event_id': 5, 'user_id': 2, 'ts': base + 5, 'event_type': 'a'},
        {'event_id': 4, 'user_id': 2, 'ts': base + 5, 'event_type': 'b'},
        # user 3: single event -> no pair
        {'event_id': 6, 'user_id': 3, 'ts': base, 'event_type': 'a'},
    ]
    out = event_transitions(ray.data.from_items(rows),
                            num_partitions=4).take_all()
    got = {(r['from_type'], r['to_type']): r['n'] for r in out}
    assert got == {('a', 'b'): 1, ('b', 'b'): 1, ('b', 'a'): 1}

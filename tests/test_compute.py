"""The compute primitive (``stages/compute.map_cached``): every stateful
stage runs as Ray tasks on warm workers, with one instance per worker
process per Dataset, kept in a bounded per-process LRU, and its
constructor kwargs broadcast once through the object store.
"""

import ast
import os
import pathlib
import uuid

import numpy as np
import pyarrow as pa
import pytest

ROOT = pathlib.Path(__file__).parent.parent


def _classes():
    """Probe classes, local so Ray pickles them by value (the workers
    cannot import this test module)."""

    class Tag:
        """Appends the worker pid and this instance's token as
        ``column``."""

        def __init__(self, column):
            self.column = column
            self.token = uuid.uuid4().hex  # id() may be reused once freed

        def __call__(self, batch):
            n = batch.num_rows
            return (batch.append_column(f'{self.column}_pid',
                                        pa.array([os.getpid()] * n))
                    .append_column(self.column, pa.array([self.token] * n)))

    class CacheSize:
        """Reports how many instances its worker process holds."""

        def __init__(self, run):
            self.run = run

        def __call__(self, batch):
            from yargy_ray.stages import compute
            n = batch.num_rows
            return pa.table({'run': [self.run] * n,
                             'held': [len(compute._WORKER_INSTANCES)] * n})

    return Tag, CacheSize


def test_two_maps_of_one_class_in_one_plan(ray_session):
    """Ray fuses the two maps into one task; each still keeps one
    instance per worker process, and neither rebuilds per block."""
    import ray.data

    from yargy_ray.stages.compute import map_cached

    Tag, _ = _classes()
    ds = ray.data.from_items([{'x': i} for i in range(64)],
                             override_num_blocks=16)
    out = map_cached(map_cached(ds, Tag, {'column': 'first'}, 2, 4),
                     Tag, {'column': 'second'}, 2, 4)
    rows = out.take_all()
    assert sorted(r['x'] for r in rows) == list(range(64))
    for column in ('first', 'second'):
        per_pid = {}
        for row in rows:
            per_pid.setdefault(row[f'{column}_pid'], set()).add(row[column])
        assert all(len(tokens) == 1 for tokens in per_pid.values())
    assert not ({r['first'] for r in rows} & {r['second'] for r in rows})


def test_worker_cache_is_bounded(ray_session):
    """Over more Datasets than the LRU holds, no worker process ever
    keeps more instances than ``WORKER_CACHE_SIZE``. One task per
    Dataset over the session's 4 CPUs: some worker sees more Datasets
    than the LRU holds."""
    import ray.data

    from yargy_ray.stages.compute import WORKER_CACHE_SIZE, map_cached

    _, CacheSize = _classes()
    ds = ray.data.from_items([{'x': 0}], override_num_blocks=1)
    runs = 4 * WORKER_CACHE_SIZE + 1
    held = [r['held'] for run in range(runs)
            for r in map_cached(ds, CacheSize, {'run': run}, 1).take_all()]
    assert len(held) == runs
    assert max(held) == WORKER_CACHE_SIZE


def test_lru_keeps_the_recent_runs(ray_session, monkeypatch):
    """The least recently used run is evicted first; a hit refreshes."""
    from collections import OrderedDict

    import ray

    from yargy_ray.stages import compute

    Tag, _ = _classes()
    monkeypatch.setattr(compute, '_WORKER_INSTANCES', OrderedDict())
    ref = ray.put({'column': 'c'})
    batch = pa.table({'x': [1]})
    runs = [f'run-{i}' for i in range(compute.WORKER_CACHE_SIZE + 1)]
    first = compute._cached_call(batch, Tag, ref, runs[0])
    for run in runs[1:-1]:
        compute._cached_call(batch, Tag, ref, run)
    # a hit on the oldest run keeps it; the next new run evicts runs[1]
    assert compute._cached_call(batch, Tag, ref, runs[0]).equals(first)
    compute._cached_call(batch, Tag, ref, runs[-1])
    assert list(compute._WORKER_INSTANCES) == runs[2:-1] + runs[:1] + runs[-1:]


# ---------------------------------------------------------------------------
# Structure: no actor pools, one broadcast site
# ---------------------------------------------------------------------------

def _sources():
    paths = sorted((ROOT / 'yargy_ray').rglob('*.py'))
    return paths + [ROOT / '__ray_entry__.py']


def test_no_actor_pools_and_one_broadcast_site():
    """No class is mapped, no constructor kwargs reach ``map_batches``,
    no constructor resolves refs, and ``ray.put`` is called only by
    ``stages/compute.py`` and the rank table of ``stages/graph.py``."""
    offenders = []
    puts = set()
    for path in _sources():
        rel = path.relative_to(ROOT).as_posix()
        tree = ast.parse(path.read_text())
        classes = {n.name for n in ast.walk(tree)
                   if isinstance(n, ast.ClassDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == 'ActorPoolStrategy':
                offenders.append(f'{rel}:{node.lineno} ActorPoolStrategy')
            if isinstance(node, ast.FunctionDef) and node.name == '__init__':
                text = ast.unparse(node)
                if 'ray.get' in text or 'ObjectRef' in text:
                    offenders.append(f'{rel}:{node.lineno} resolves refs')
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            if (node.func.attr == 'put'
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == 'ray'):
                puts.add(rel)
            if node.func.attr != 'map_batches':
                continue
            if any(k.arg == 'fn_constructor_kwargs' for k in node.keywords):
                offenders.append(f'{rel}:{node.lineno} constructor kwargs')
            fn = node.args[0] if node.args else None
            name = (fn.id if isinstance(fn, ast.Name) else
                    fn.attr if isinstance(fn, ast.Attribute) else '')
            if name in classes or name[:1].isupper():
                offenders.append(f'{rel}:{node.lineno} maps class {name}')
    assert offenders == []
    assert puts == {'yargy_ray/stages/compute.py',
                    'yargy_ray/stages/graph.py'}


# ---------------------------------------------------------------------------
# Every ported stage plans a map_cached task map, never an actor pool
# ---------------------------------------------------------------------------

def _emb(n=24, dim=8, seed=5):
    import ray.data
    rng = np.random.RandomState(seed)
    vecs = rng.randn(n, dim).astype(np.float32)
    vecs[1] = vecs[0]                  # one exact near-dup pair
    return ray.data.from_arrow(pa.table({
        'vec_id': pa.array(np.arange(n), type=pa.int64()),
        'embedding': pa.array([v.tolist() for v in vecs],
                              type=pa.list_(pa.float32())),
    })), vecs


def _docs():
    import ray.data
    texts = ['table scan join merge sort', 'table scan join merge sort',
             'filter table rows', 'join the merge', 'директором завода']
    return ray.data.from_arrow(pa.table({
        'doc_id': pa.array(range(len(texts)), type=pa.int64()),
        'text': texts}))


def _link(tmp):
    import ray.data

    from yargy_ray.stages.link import link_entities
    ds = ray.data.from_items([{'obj': 'директором'}])
    link_entities(ds, {'POS:director': ['директор']}).materialize()


def _decontam(tmp):
    from yargy_ray.stages.decontam import contamination_counts
    docs = _docs()
    contamination_counts(docs, docs.limit(1)).materialize()


def _heavy(tmp):
    from yargy_ray.stages.sketch import heavy_hitters
    heavy_hitters(_docs(), min_frac=0.1, num_partitions=2)


def _minhash(tmp):
    from yargy_ray.stages.dedup import minhash_near_dups
    minhash_near_dups(_docs(), num_partitions=2).materialize()


def _emb_lsh(tmp):
    from yargy_ray.stages.dedup import embedding_near_dups
    embedding_near_dups(_emb()[0], dim=8).materialize()


def _emb_exact(tmp):
    from yargy_ray.stages.dedup import embedding_near_dups_exact
    embedding_near_dups_exact(_emb()[0]).materialize()


def _media(tmp):
    import ray.data

    from yargy_ray.stages.multimodal import (
        StdlibCodec,
        featurize_audio,
        featurize_images,
        synth_real_media,
    )
    media = ray.data.from_arrow(synth_real_media(4))
    featurize_images(media.filter(expr="kind == 'image'"),
                     concurrency=2).materialize()
    featurize_audio(media.filter(expr="kind == 'audio'"),
                    codec=StdlibCodec()).materialize()


def _join(tmp):
    import ray.data

    from yargy_ray.stages.joins import broadcast_join
    big = ray.data.from_items([{'k': i % 3, 'v': i} for i in range(9)])
    small = ray.data.from_items([{'k': i, 'name': f'n{i}'}
                                 for i in range(3)])
    broadcast_join(big, small, 'k', 'k', ['name']).materialize()


def _tagging(tmp):
    from yargy_ray.stages.tagging import (
        bio_tag_tokens,
        extract_tagged_phrases,
    )
    tagged = bio_tag_tokens(_docs(), vocab=('table', 'scan'), name='OP')
    extract_tagged_phrases(tagged, name='OP').materialize()


def _similarity(tmp):
    from yargy_ray.stages.similarity import (
        brute_force_topk,
        build_ivf_index,
        ivf_topk_indexed,
        merge_ivf_delta,
        rebuild_ivf_index,
    )
    emb, vecs = _emb()
    index = str(tmp / 'ivf')
    brute_force_topk(emb, vecs[:2], k=3)
    build_ivf_index(emb, index, num_lists=4)
    ivf_topk_indexed(index, vecs[:2], k=3, nprobe=2)
    merge_ivf_delta(index, _emb(n=4, seed=6)[0].map_batches(
        lambda b: b.set_column(0, 'vec_id', pa.array(
            [100 + i for i in range(b.num_rows)], type=pa.int64())),
        batch_format='pyarrow'))
    rebuild_ivf_index(index, num_lists=4)


def _extraction(tmp):
    import ray.data

    from yargy_ray.pipelines.kg import extract_triples
    from yargy_ray.stages.extract import extract_mentions, project_triples
    turns = ray.data.from_items([{'conv_id': 'c0', 'turn_idx': 0,
                                  'text': 'это стоит 4500 руб.'}])
    project_triples(extract_mentions(turns)).materialize()
    extract_triples(turns).materialize()


def _extract_ints(tmp):
    import sys

    import pyarrow.parquet as pq
    pq.write_table(pa.table({'event_id': pa.array([1, 2], pa.int64()),
                             'props': ['{"n": 12}', 'x 3 y 4']}),
                   tmp / 'events.parquet')
    sys.path.insert(0, str(ROOT))
    import __ray_entry__
    __ray_entry__.q_extract_ints(str(tmp)).materialize()


STAGES = {
    'link': (_link, {'EntityLinker'}),
    'decontam': (_decontam, {'ContaminationCounter'}),
    'heavy_hitters': (_heavy, {'ExactRecount'}),
    'minhash': (_minhash, {'MinHashBander'}),
    'embedding_lsh': (_emb_lsh, {'HyperplaneBucketer'}),
    'embedding_exact': (_emb_exact, {'BlockPairs'}),
    'multimodal': (_media, {'ImageFeaturizer', 'AudioFeaturizer'}),
    'broadcast_join': (_join, {'BroadcastLookup'}),
    'tagging': (_tagging, {'BIOTagTokens', 'TaggedPhraseExtractor'}),
    'similarity': (_similarity, {'BatchTopK', 'IVFAssigner'}),
    'extraction': (_extraction, {'MentionExtractor', 'TripleProjector',
                                 'TripleExtractor'}),
    'extract_ints': (_extract_ints, {'IntTokenExtractor'}),
}


@pytest.mark.parametrize('stage', sorted(STAGES))
def test_stage_plans_task_maps(ray_session, monkeypatch, tmp_path, stage):
    """Walk the logical plan of every Dataset the stage maps: each
    stateful class arrives through ``_cached_call`` and no operator
    asks for an actor pool."""
    from ray.data import Dataset
    from ray.data._internal.compute import ActorPoolStrategy

    from yargy_ray.stages.compute import _cached_call

    planned = []
    map_batches = Dataset.map_batches

    def spy(self, *args, **kwargs):
        out = map_batches(self, *args, **kwargs)
        planned.append(out)
        return out

    monkeypatch.setattr(Dataset, 'map_batches', spy)
    run, expected = STAGES[stage]
    run(tmp_path)

    cached = set()
    for ds in planned:
        todo = [ds._logical_plan.dag]
        while todo:
            op = todo.pop()
            todo.extend(op.input_dependencies)
            assert not isinstance(getattr(op, '_compute', None),
                                  ActorPoolStrategy), (stage, op.name)
            if getattr(op, '_fn', None) is _cached_call:
                cached.add(op._fn_kwargs['cls'].__name__)
    assert cached == expected

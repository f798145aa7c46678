"""Extraction as tasks on warm workers (``stages/compute.map_cached``).

Each extraction stage is a task-based ``map_batches`` over one
module-level function that keeps one extractor instance per worker
process and rebuilds it only for a new Dataset: compiled state outlives
the Dataset, the per-instance text memo does not.
"""

import pyarrow as pa

TEXTS = [
    'согласно ст. 14 п. 3 договора',
    'оплата 5 000 рублей до 12 марта 2024 года',
    'хорошо',
]


def _turns(n):
    return pa.table({
        'conv_id': pa.array([f'c{i // 4}' for i in range(n)]),
        'turn_idx': pa.array([i % 4 for i in range(n)], type=pa.int32()),
        'text': pa.array([TEXTS[i % len(TEXTS)] for i in range(n)]),
    })


def _rows(table):
    return sorted(tuple(tuple(v) if isinstance(v, list) else v
                        for v in r.values()) for r in table.to_pylist())


def test_cached_call_one_instance_per_run(ray_session, monkeypatch):
    """Same ``run`` -> same instance; a new ``run`` -> a fresh instance
    whose text memo starts empty."""
    from collections import OrderedDict

    import ray

    from yargy_ray.stages import compute
    from yargy_ray.stages.compute import _cached_call
    from yargy_ray.stages.extract import DEFAULT_FACTORIES, MentionExtractor

    monkeypatch.setattr(compute, '_WORKER_INSTANCES', OrderedDict())
    ref = ray.put({'factory_paths': DEFAULT_FACTORIES})
    batch = _turns(6)

    def instance(run):
        return compute._WORKER_INSTANCES[run]

    first = _cached_call(batch, MentionExtractor, ref, 'run-a')
    a = instance('run-a')
    assert len(a._result_cache) == len(TEXTS)
    again = _cached_call(batch, MentionExtractor, ref, 'run-a')
    assert instance('run-a') is a
    assert again.equals(first)

    # the next Dataset: a new instance whose memo holds only its own text
    fresh = _cached_call(batch.slice(0, 1), MentionExtractor, ref, 'run-b')
    b = instance('run-b')
    assert b is not a
    assert list(b._result_cache) == [TEXTS[0]]
    assert _rows(fresh) == _rows(first.slice(0, fresh.num_rows))


def test_one_build_per_worker_per_dataset(ray_session):
    """Over many blocks, every worker process builds one instance per
    Dataset, and a second Dataset gets new instances."""
    import os
    import uuid

    import ray.data

    from yargy_ray.stages.compute import map_cached
    from yargy_ray.stages.extract import TripleProjector

    # local class: pickled by value, still one class object per process
    class Probe(TripleProjector):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.token = uuid.uuid4().hex  # id() may be reused once freed

        def __call__(self, batch):
            n = batch.num_rows
            return pa.table({'pid': [os.getpid()] * n,
                             'inst': [self.token] * n})

    def builds(ds):
        seen = {}
        out = map_cached(ds, Probe, {}, concurrency=2, batch_size=4)
        rows = out.take_all()
        for row in rows:
            seen.setdefault(row['pid'], set()).add(row['inst'])
        return rows, seen

    ds = ray.data.from_items([{'x': i} for i in range(64)],
                             override_num_blocks=16)
    assert ds.materialize().num_blocks() >= 8
    rows, first = builds(ds)
    assert len(rows) == 64
    assert all(len(insts) == 1 for insts in first.values())
    _, second = builds(ds)
    assert all(len(insts) == 1 for insts in second.values())
    assert not set().union(*first.values()) & set().union(*second.values())


def test_extraction_concurrency_caps_tasks(ray_session):
    """``concurrency`` caps both extraction stages' tasks: both run as
    tasks capped at 2 and match the in-process classes."""
    import ray.data
    from ray.data._internal.compute import TaskPoolStrategy

    from yargy_ray.pipelines.kg import TripleExtractor, extract_triples
    from yargy_ray.stages.extract import MentionExtractor, extract_mentions

    table = _turns(24)
    ds = ray.data.from_arrow(table).repartition(4)
    cases = [
        (extract_mentions(ds, concurrency=2, batch_size=8),
         MentionExtractor()(table)),
        (extract_triples(ds, concurrency=2, batch_size=8),
         TripleExtractor()(table)),
    ]
    for out, serial in cases:
        mapped = out._logical_plan.dag
        while not isinstance(getattr(mapped, '_compute', None),
                             TaskPoolStrategy):
            (mapped,) = mapped.input_dependencies
        assert mapped._compute.size == 2
        got = pa.Table.from_pylist(out.take_all(), schema=serial.schema)
        assert _rows(got) == _rows(serial)


def test_triple_stage_keeps_every_occurrence(ray_session):
    """One batch with the same ``has_position`` sentence in two
    conversations: the triple stage emits the triple once per
    conversation, the conversation counts see both, and the distinct
    set holds it once."""
    import ray.data

    from yargy_ray.pipelines.kg import (
        distinct_triples,
        entity_conv_counts,
        extract_triples,
        node_id_of,
    )

    text = 'на встрече был директор Иван Петров'
    ds = ray.data.from_arrow(pa.table({
        'conv_id': ['c0', 'c1'],
        'turn_idx': pa.array([0, 0], type=pa.int32()),
        'text': [text, text],
    }))
    fact = ('иван петров', 'has_position', 'директор')

    def spo(rows):
        return [(r['subj'], r['pred'], r['obj']) for r in rows]

    triples = extract_triples(ds, concurrency=1).materialize()
    occurrences = triples.take_all()
    assert spo(occurrences).count(fact) == 2
    assert sorted(r['conv_id'] for r in occurrences
                  if r['pred'] == 'has_position') == ['c0', 'c1']

    convs = {r['node_id']: r['convs']
             for r in entity_conv_counts(triples).take_all()}
    assert convs[node_id_of('person:иван петров')] == 2
    assert convs[node_id_of('position:директор')] == 2

    assert spo(distinct_triples(ds, concurrency=1).take_all()).count(
        fact) == 1

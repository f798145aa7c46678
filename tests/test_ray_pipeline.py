"""Ray pipeline integration: extraction parity, invariant, resume.

Key property: the distributed triple set is EXACTLY the serial kernel's
triple set (P/R = 1.0) — deterministic ambiguity resolution makes block
order irrelevant.
"""

import json
import shutil

import pyarrow as pa
import pytest


@pytest.fixture(scope='module')
def corpus(ray_session, tmp_path_factory):
    from yargy_ray.sources.transcripts import write_transcripts
    path = str(tmp_path_factory.mktemp('transcripts'))
    shutil.rmtree(path, ignore_errors=True)
    write_transcripts(path, 30, giant_every=10, giant_factor=10)
    return path


def _serial_triples(path):
    """Reference result: plain in-process kernel run over the same rows."""
    import pyarrow.parquet as pq
    from yargy_ray.stages.extract import MentionExtractor, TripleProjector
    table = pq.read_table(path)
    mentions = MentionExtractor()(table)
    triples = TripleProjector()(mentions)
    return {
        (s, p, o)
        for s, p, o in zip(
            triples.column('subj').to_pylist(),
            triples.column('pred').to_pylist(),
            triples.column('obj').to_pylist())
    }


def test_distributed_matches_serial(corpus, tmp_path):
    import ray.data
    from yargy_ray.pipelines.kg import run_kg_pipeline

    out = str(tmp_path / 'kg')
    run_kg_pipeline(corpus, out, concurrency=2, num_partitions=4)

    got = {
        (r['subj'], r['pred'], r['obj'])
        for r in ray.data.read_parquet(out + '/triples').iter_rows()
    }
    want = _serial_triples(corpus)
    assert want, 'corpus generated no triples - broken generator'
    # exact match: precision == recall == 1.0
    assert got == want

    # dedup really deduped
    triples = ray.data.read_parquet(out + '/triples')
    assert triples.count() == len(got)


def test_document_invariant(corpus):
    import ray.data
    from yargy_ray.pipelines.documents import (
        reconstruct_documents,
        verify_documents,
    )
    turns = ray.data.read_parquet(corpus)
    docs = reconstruct_documents(turns)
    assert verify_documents(turns, docs) == 0
    # giant conversation present and reconstructed
    n_turns = {r['conv_id']: r['n_turns'] for r in docs.iter_rows()}
    assert max(n_turns.values()) > 16


def test_verify_documents_counts_violations(ray_session):
    # a dropped document, a wrong checksum, and a docs side with no
    # rows at all (a lazy Dataset, so it reaches the check reduce with
    # no columns): every conversation without a matching doc counts
    import pyarrow.compute as pc
    import ray.data

    from yargy_ray.pipelines.documents import (
        reconstruct_documents,
        verify_documents,
    )
    turns = ray.data.from_arrow(pa.table({
        'conv_id': ['c1', 'c1', 'c2', 'c3'],
        'turn_idx': pa.array([0, 1, 0, 0], pa.int32()),
        'text': ['a', 'b', 'c', 'd']}))
    docs = reconstruct_documents(turns, num_partitions=4).materialize()
    assert verify_documents(turns, docs, num_partitions=4) == 0

    def corrupt(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.not_equal(batch.column('conv_id'), 'c2'))
        bumped = pc.if_else(pc.equal(batch.column('conv_id'), 'c3'),
                            pc.add(batch.column('checksum'), 1),
                            batch.column('checksum'))
        return batch.set_column(batch.schema.get_field_index('checksum'),
                                'checksum', bumped)

    bad = docs.map_batches(corrupt, batch_format='pyarrow')
    assert verify_documents(turns, bad, num_partitions=4) == 2
    none = docs.filter(lambda row: False)
    assert verify_documents(turns, none, num_partitions=4) == 3


def test_resume_skips_stages(corpus, tmp_path):
    from yargy_ray.pipelines.kg import run_kg_pipeline

    out = str(tmp_path / 'kg2')
    first = run_kg_pipeline(corpus, out, concurrency=2, num_partitions=2)
    second = run_kg_pipeline(corpus, out, concurrency=2, num_partitions=2)
    for stage in first:
        assert second[stage]['written_at'] == first[stage]['written_at']


def test_mentions_schema(corpus, ray_session):
    import pyarrow.parquet as pq
    from yargy_ray.stages.extract import MENTION_SCHEMA, MentionExtractor

    table = pq.read_table(corpus).slice(0, 50)
    mentions = MentionExtractor()(table)
    assert mentions.schema.equals(MENTION_SCHEMA)
    for payload in mentions.column('fact_json').to_pylist():
        json.loads(payload)


def test_empty_corpus(ray_session, tmp_path):
    """0-row input: every stage reports 0 rows, no exception."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data
    from yargy_ray.pipelines.kg import run_kg_pipeline
    from yargy_ray.sources.transcripts import TRANSCRIPT_SCHEMA

    src = tmp_path / 'empty'
    src.mkdir()
    pq.write_table(TRANSCRIPT_SCHEMA.empty_table(), src / 'part-0.parquet')
    man = run_kg_pipeline(str(src), str(tmp_path / 'kg'),
                          concurrency=2, num_partitions=2)
    for stage, m in man.items():
        assert m['rows_out'] == 0, (stage, m)


def test_docscope_extraction(corpus, ray_session):
    """Doc-scope mentions == per-turn mentions with spans shifted by the
    turn's offset inside the reconstructed document."""
    import ray.data
    from yargy_ray.pipelines.documents import (
        TURN_SEP,
        extract_document_mentions,
        reconstruct_documents,
    )
    from yargy_ray.stages.extract import extract_mentions

    turns = ray.data.read_parquet(corpus)
    docs = reconstruct_documents(turns)
    doc_mentions = {
        (r['conv_id'], r['rule'], r['span_start'], r['span_stop'],
         r['fact_json'])
        for r in extract_document_mentions(
            docs, concurrency=2).iter_rows()
    }

    # per-turn extraction mapped into document coordinates
    by_conv = {}
    for row in turns.iter_rows():
        by_conv.setdefault(row['conv_id'], []).append(
            (row['turn_idx'], row['text']))
    offsets = {}
    for conv_id, rows in by_conv.items():
        rows.sort()
        off = 0
        for turn_idx, text in rows:
            offsets[(conv_id, turn_idx)] = off
            off += len(text) + len(TURN_SEP)

    turn_mentions = set()
    for r in extract_mentions(
            turns, concurrency=2).iter_rows():
        off = offsets[(r['conv_id'], r['turn_idx'])]
        turn_mentions.add((
            r['conv_id'], r['rule'], r['span_start'] + off,
            r['span_stop'] + off, r['fact_json']))

    assert doc_mentions == turn_mentions


def test_crashed_stage_rerun_discards_partial_output(corpus, tmp_path,
                                                     ray_session):
    """Partial part-files from a crashed attempt (no manifest) must not
    leak into the rerun's output."""
    import os
    import ray.data
    from yargy_ray.pipelines.kg import run_kg_pipeline

    out_root = str(tmp_path / 'kg')
    man1 = run_kg_pipeline(corpus, out_root, concurrency=2,
                           num_partitions=4)
    triples_dir = os.path.join(out_root, 'triples')
    n_clean = ray.data.read_parquet(triples_dir).count()

    # simulate a crashed attempt: stale part-file present, manifest gone
    os.remove(os.path.join(triples_dir, '_MANIFEST.json'))
    stale_dir = os.path.join(triples_dir, 'part=0')
    os.makedirs(stale_dir, exist_ok=True)
    import pyarrow as pa
    import pyarrow.parquet as pq
    pq.write_table(pa.table({'junk': [1, 2, 3]}),
                   os.path.join(stale_dir, 'stale-leftover.parquet'))

    man2 = run_kg_pipeline(corpus, out_root, concurrency=2,
                           num_partitions=4)
    assert man2['triples']['rows_out'] == man1['triples']['rows_out']
    n_after = ray.data.read_parquet(triples_dir).count()
    assert n_after == n_clean
    # the stale file is gone
    for root, _, files in os.walk(triples_dir):
        assert 'stale-leftover.parquet' not in files


def test_jsonl_source(ray_session, tmp_path):
    """JSONL logs normalize into the canonical transcripts schema and
    feed extraction unchanged."""
    import json
    from yargy_ray.sources.jsonl import read_transcripts_jsonl
    from yargy_ray.sources.transcripts import TRANSCRIPT_SCHEMA
    from yargy_ray.stages.extract import extract_mentions

    path = tmp_path / 'log.jsonl'
    rows = [
        {'conv_id': 'c1', 'turn_idx': 0, 'role': 'user',
         'text': 'согласно ст. 14 п. 3 договора'},          # no tool/ts
        {'conv_id': 'c1', 'turn_idx': 1, 'role': 'assistant',
         'text': 'хорошо', 'tool': 'search',
         'ts': '2024-01-01T00:00:00'},
    ]
    path.write_text('\n'.join(json.dumps(r, ensure_ascii=False)
                              for r in rows))
    ds = read_transcripts_jsonl(str(path))
    assert ds.schema().names == TRANSCRIPT_SCHEMA.names
    got = {r['turn_idx']: r for r in ds.iter_rows()}
    assert got[0]['tool'] == ''
    assert got[1]['tool'] == 'search'
    mentions = extract_mentions(ds, concurrency=1).take_all()
    assert any(m['rule'] == 'clause' for m in mentions)


def test_csv_source(ray_session, tmp_path):
    """CSV logs normalize into the canonical transcripts schema and
    feed extraction unchanged (shared normalization with JSONL)."""
    from yargy_ray.sources.csvsrc import read_transcripts_csv
    from yargy_ray.sources.transcripts import TRANSCRIPT_SCHEMA
    from yargy_ray.stages.extract import extract_mentions

    path = tmp_path / 'log.csv'
    path.write_text(
        'conv_id,turn_idx,role,text,ts\n'
        'c1,0,user,согласно ст. 14 п. 3 договора,2024-01-01T00:00:00\n'
        'c1,1,assistant,хорошо,2024-01-01T00:01:00\n')
    ds = read_transcripts_csv(str(path))
    assert ds.schema().names == TRANSCRIPT_SCHEMA.names
    got = {r['turn_idx']: r for r in ds.iter_rows()}
    assert got[0]['tool'] == ''           # missing column filled
    assert got[1]['role'] == 'assistant'
    mentions = extract_mentions(ds, concurrency=1).take_all()
    assert any(m['rule'] == 'clause' for m in mentions)

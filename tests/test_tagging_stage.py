"""Distributed tagger stage (SURVEY §2.10 as a pipeline seam).

Reference semantics: /root/reference/tests/test_tagger.py:23-34 — a
tagger annotates tokens between tokenization and parsing; tag()
predicates consume the annotations. Here the annotation travels as an
aligned list<string> column between two actor-pool stages.
"""

import pyarrow as pa
import pytest

from yargy_ray.stages.tagging import (
    BIOTagTokens,
    TaggedPhraseExtractor,
    VocabBIOTagger,
    bio_tag_tokens,
    extract_tagged_phrases,
)

VOCAB = ('table', 'scan', 'join', 'merge', 'sort', 'filter')


def _batch(texts):
    return pa.table({
        'doc_id': pa.array(range(len(texts)), type=pa.int64()),
        'text': pa.array(texts, type=pa.string()),
    })


def test_bio_tagging_alignment():
    tagged = BIOTagTokens(VOCAB, name='OP')(
        _batch(['key table scan slow sort', 'scan scan a filter']))
    assert tagged.column('tags').to_pylist() == [
        ['O', 'B-OP', 'I-OP', 'O', 'B-OP'],
        ['B-OP', 'I-OP', 'O', 'B-OP'],
    ]


def test_tagged_phrase_extraction_maximal_runs():
    tagged = BIOTagTokens(VOCAB, name='OP')(
        _batch(['key table scan slow sort merge filter fast']))
    out = TaggedPhraseExtractor(name='OP')(tagged)
    assert out.to_pylist() == [
        {'doc_id': 0, 'phrase': 'table scan', 'n_tokens': 2},
        {'doc_id': 0, 'phrase': 'sort merge filter', 'n_tokens': 3},
    ]


def test_check_tag_rejects_unknown():
    tagger = VocabBIOTagger(VOCAB, name='OP')
    assert tagger.check_tag('B-OP') and tagger.check_tag('O')
    with pytest.raises(ValueError):
        tagger.check_tag('B-LOC')


def test_tagger_stage_dataset_roundtrip(ray_session):
    import ray.data
    docs = ray.data.from_arrow(_batch([
        'a table scan b', 'no hits here', 'merge sort merge',
    ]))
    tagged = bio_tag_tokens(docs, VOCAB, name='OP', concurrency=1)
    schema = tagged.schema()
    tags_type = dict(zip(schema.names, schema.types))['tags']
    assert tags_type == pa.list_(pa.string())
    out = extract_tagged_phrases(tagged, name='OP', concurrency=1)
    rows = sorted(out.take_all(), key=lambda r: r['doc_id'])
    assert rows == [
        {'doc_id': 0, 'phrase': 'table scan', 'n_tokens': 2},
        {'doc_id': 2, 'phrase': 'merge sort merge', 'n_tokens': 3},
    ]

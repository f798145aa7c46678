"""Distributed tagger stages: external token tags as a first-class
``list<string>`` column between pipeline stages.

Behavioral contract: /root/reference/yargy/tagger.py (Tagger /
check_tag) and /root/reference/tests/test_tagger.py:23-34 — a tagger
annotates the token stream BETWEEN tokenization and parsing, and the
``tag()`` predicate consumes the annotations. The reference runs the
tagger inline inside one process; here tagging is its own stage, run
as tasks on warm workers, whose output carries ``tokens``/``tags`` as
aligned ``list<string>`` Arrow columns, so a downstream extraction
stage (or a model-backed NER stage swapped in at the same seam) can
consume the tags without retagging. That is the 100 TB shape: the
expensive tagger (in production: a model forward pass) runs once,
its output is a narrow columnar annotation that travels through the
object store, and any number of tag()-grammar consumers read it.

Scale notes: both stages are stateless per batch and run through
``stages/compute.map_cached`` (state — compiled grammar, tag alphabet,
vocab set — built once per worker per Dataset in ``__init__``); no
shuffle anywhere; output is per-row, so blocks stream with
backpressure.
"""

from __future__ import annotations

import pyarrow as pa

from yargy_ray.kernel import Parser, rule
from yargy_ray.kernel.predicates import tag
from yargy_ray.kernel.tagging import Tagger
from yargy_ray.kernel.tokenizer import Tokenizer
from yargy_ray.stages.compute import map_cached


class VocabBIOTagger(Tagger):
    """B-/I-/O tagger over a vocabulary: the first token of a maximal
    run of vocabulary words is ``B-<name>``, continuations are
    ``I-<name>``, everything else ``O``. Deterministic and stateful
    across the token stream — the minimal honest BIO shape (a model
    tagger drops in at the same seam)."""

    def __init__(self, vocab, name='ENT'):
        self.vocab = frozenset(w.lower() for w in vocab)
        self.begin = 'B-' + name
        self.inside = 'I-' + name
        self.outside = 'O'
        self.tags = (self.begin, self.inside, self.outside)

    def __call__(self, tokens):
        prev_in = False
        for token in tokens:
            hit = token.value.lower() in self.vocab
            if hit:
                yield token.tagged(self.inside if prev_in else self.begin)
            else:
                yield token.tagged(self.outside)
            prev_in = hit


class SequenceTagger(Tagger):
    """Applies a PRECOMPUTED tag sequence positionally — the consumer
    end of the external-annotation seam. ``assign()`` is called per
    document with the tags that arrived as a ``list<string>`` column."""

    def __init__(self, alphabet):
        self.tags = tuple(alphabet)
        self._current = ()

    def assign(self, tags):
        self._current = tags

    def __call__(self, tokens):
        for token, token_tag in zip(tokens, self._current):
            yield token.tagged(token_tag)


class BIOTagTokens:
    """Stage 1: text -> aligned ``tokens``/``tags``
    ``list<string>`` columns (original id + text preserved)."""

    def __init__(self, vocab, name='ENT', id_column='doc_id',
                 text_column='text'):
        self.id_column = id_column
        self.text_column = text_column
        self.tokenizer = Tokenizer()
        self.tagger = VocabBIOTagger(vocab, name=name)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_column)
        texts = batch.column(self.text_column).to_pylist()
        tokens_col, tags_col = [], []
        for text in texts:
            tagged = list(self.tagger(self.tokenizer(text)))
            tokens_col.append([t.value for t in tagged])
            tags_col.append([t.tag for t in tagged])
        return pa.table({
            self.id_column: ids,
            self.text_column: batch.column(self.text_column),
            'tokens': pa.array(tokens_col, type=pa.list_(pa.string())),
            'tags': pa.array(tags_col, type=pa.list_(pa.string())),
        })


class TaggedPhraseExtractor:
    """Stage 2: consumes the ``tags`` column through
    ``tag()`` predicates — grammar ``B-<name> I-<name>*`` — and emits
    one row per extracted phrase (maximal tagged run)."""

    def __init__(self, name='ENT', id_column='doc_id',
                 text_column='text'):
        self.id_column = id_column
        self.text_column = text_column
        begin, inside, outside = 'B-' + name, 'I-' + name, 'O'
        self.seq_tagger = SequenceTagger((begin, inside, outside))
        self.parser = Parser(
            rule(tag(begin), tag(inside).optional().repeatable()),
            tokenizer=Tokenizer(), tagger=self.seq_tagger)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_column).to_pylist()
        texts = batch.column(self.text_column).to_pylist()
        tags = batch.column('tags').to_pylist()
        out_id, out_phrase, out_n = [], [], []
        for row_id, text, row_tags in zip(ids, texts, tags):
            self.seq_tagger.assign(row_tags)
            for match in self.parser.findall(text):
                out_id.append(row_id)
                out_phrase.append(text[match.span.start:match.span.stop])
                out_n.append(len(match.tokens))
        return pa.table({
            self.id_column: pa.array(out_id, type=pa.int64()),
            'phrase': pa.array(out_phrase, type=pa.string()),
            'n_tokens': pa.array(out_n, type=pa.int64()),
        })


def bio_tag_tokens(ds, vocab, name='ENT', id_column='doc_id',
                   text_column='text', concurrency=(1, 8),
                   batch_size=256):
    """documents Dataset -> same rows + ``tokens``/``tags`` columns."""
    return map_cached(ds, BIOTagTokens,
                      {'vocab': tuple(vocab), 'name': name,
                       'id_column': id_column, 'text_column': text_column},
                      concurrency, batch_size)


def extract_tagged_phrases(tagged_ds, name='ENT', id_column='doc_id',
                           text_column='text', concurrency=(1, 8),
                           batch_size=256):
    """tagged Dataset -> (id, phrase, n_tokens) rows."""
    return map_cached(tagged_ds, TaggedPhraseExtractor,
                      {'name': name, 'id_column': id_column,
                       'text_column': text_column},
                      concurrency, batch_size)

"""Extraction stage: transcript turns -> mention rows -> triple rows.

The hot path of the engine. Design (SURVEY §2.7, §3):

* Every extraction stage runs through ``stages/compute.map_cached``:
  Ray tasks on warm workers, one extractor instance per worker process
  per Dataset, so grammar compiles, imports and the process-wide
  morphology LRU are paid once per warm Ray worker, and per-instance
  memos (the text -> rows LRU) never outlive their Dataset.
* Grammars arrive as factory dotted-names (strings) — cheap to pickle,
  compiled inside the worker; ``custom()`` functions stay importable.
* Per turn the text is tokenized + morph-analyzed ONCE and the token
  list shared by all grammars; each grammar is gated by a cheap regex
  precondition so most grammar×turn pairs never start an Earley chart.
* A per-document state budget bounds worst-case parse work; capped
  turns are reported as ``rule='_capped'`` rows (counted by manifests,
  excluded from triples) instead of failing the job.
* Output is built with Arrow arrays directly — no pandas detour.

Extraction is per-turn (the reference semantics is per-document over a
single string; BASELINE's per-row invariant is per-turn text equality),
so NO shuffle is needed before extraction — the only wide stages are
downstream dedup/canonicalization.
"""

from __future__ import annotations

import json
import re
from collections import OrderedDict

import pyarrow as pa

from yargy_ray.grammars import DEFAULT_FACTORIES, build_specs
from yargy_ray.kernel import Parser, StateOverflow
from yargy_ray.kernel.interp import Fact
from yargy_ray.kernel.tokenizer import MorphTokenizer
from yargy_ray.stages.compute import map_cached

MENTION_SCHEMA = pa.schema([
    ('conv_id', pa.string()),
    ('turn_idx', pa.int32()),
    ('rule', pa.string()),
    ('span_start', pa.int32()),
    ('span_stop', pa.int32()),
    ('tokens', pa.list_(pa.string())),
    ('fact_json', pa.string()),
])

TRIPLE_SCHEMA = pa.schema([
    ('subj', pa.string()),
    ('pred', pa.string()),
    ('obj', pa.string()),
    ('conv_id', pa.string()),
    ('turn_idx', pa.int32()),
    ('rule', pa.string()),
    ('span_start', pa.int32()),
    ('span_stop', pa.int32()),
])

CAPPED_RULE = '_capped'

# texts whose extraction rows each extractor instance keeps (LRU)
RESULT_CACHE_SIZE = 4096


def fact_payload(value):
    """Interpretation result -> JSON-serializable payload."""
    if isinstance(value, Fact):
        return value.as_json
    return value


class MentionExtractor:
    """pyarrow batch of transcript turns -> pyarrow batch of mentions.

    NOTE: do NOT disable cyclic GC in the Ray workers. It gains ~6%
    single-process, but inside a Ray worker uncollected cycles pin
    deserialized Arrow blocks (plasma-backed buffers), the object store
    fills, and throughput collapses ~4x (measured at 32 cpus).
    """

    def __init__(self, factory_paths=DEFAULT_FACTORIES, max_states=None):
        self.specs = build_specs(factory_paths)
        # one shared tokenizer => one morph pass per turn for all grammars
        self.tokenizer = MorphTokenizer()
        self.parsers = []
        for spec in self.specs:
            parser = Parser(
                spec.rule,
                tokenizer=self.tokenizer,
                max_states=max_states if max_states is not None
                else spec.max_states,
            )
            gate = re.compile(spec.gate) if spec.gate else None
            self.parsers.append((spec, parser, gate))
        self._result_cache = OrderedDict()

    def _extract_text(self, text):
        """All (rule, start, stop, tokens, fact_json) rows for one text.

        Memoized per instance in an LRU of ``RESULT_CACHE_SIZE`` texts:
        extraction output is TEXT-INTRINSIC (spans, rules and facts carry
        no conv/turn identity), and transcript turns repeat (about a
        third of the generated corpus's turn texts repeat an earlier
        turn; acknowledgement/tool banter dominates real ones). A hit
        skips tokenize, morph, Earley and interpretation alike — the
        reference's morph-LRU philosophy applied one level up.
        """
        cache = self._result_cache
        cached = cache.get(text)
        if cached is not None:
            cache.move_to_end(text)
            return cached
        rows = []
        tokens = None
        for spec, parser, gate in self.parsers:
            if gate is not None and gate.search(text) is None:
                continue
            if tokens is None:
                tokens = list(self.tokenizer(text))
            try:
                matches = list(parser.findall_tokens(tokens))
            except StateOverflow:
                rows.append((CAPPED_RULE, 0, 0, [],
                             json.dumps({'grammar': spec.name})))
                continue
            for match in matches:
                try:
                    payload = fact_payload(match.fact)
                except TypeError:
                    # mixed-type interpretation — quarantine, don't fail
                    continue
                rows.append((
                    spec.name, match.span.start, match.span.stop,
                    [t.value for t in match.tokens],
                    json.dumps(payload, ensure_ascii=False, sort_keys=True),
                ))
        cache[text] = rows
        if len(cache) > RESULT_CACHE_SIZE:
            cache.popitem(last=False)
        return rows

    def extract_turn(self, conv_id, turn_idx, text, out):
        for rule, start, stop, tokens, payload in self._extract_text(text):
            out.append((conv_id, turn_idx, rule, start, stop, tokens,
                        payload))

    def __call__(self, batch: pa.Table) -> pa.Table:
        conv_ids = batch.column('conv_id').to_pylist()
        turn_idxs = batch.column('turn_idx').to_pylist()
        texts = batch.column('text').to_pylist()
        out = []
        for conv_id, turn_idx, text in zip(conv_ids, turn_idxs, texts):
            self.extract_turn(conv_id, turn_idx, text, out)
        if out:
            columns = list(zip(*out))
        else:
            columns = [[] for _ in MENTION_SCHEMA]
        arrays = [
            pa.array(col, type=field.type)
            for col, field in zip(columns, MENTION_SCHEMA)
        ]
        return pa.Table.from_arrays(arrays, schema=MENTION_SCHEMA)


class TripleProjector:
    """Stateless-ish mention -> triple projection (fuses with extraction).

    Needs the grammar specs only for their ``to_triples`` functions;
    construction is cheap but still done once per worker process.
    """

    def __init__(self, factory_paths=DEFAULT_FACTORIES):
        self.emitters = {s.name: s.to_triples for s in build_specs(factory_paths)}

    def __call__(self, batch: pa.Table) -> pa.Table:
        rules = batch.column('rule').to_pylist()
        conv_ids = batch.column('conv_id').to_pylist()
        turn_idxs = batch.column('turn_idx').to_pylist()
        starts = batch.column('span_start').to_pylist()
        stops = batch.column('span_stop').to_pylist()
        facts = batch.column('fact_json').to_pylist()
        out = []
        for rule, conv_id, turn_idx, start, stop, payload in zip(
                rules, conv_ids, turn_idxs, starts, stops, facts):
            emit = self.emitters.get(rule)
            if emit is None:  # _capped and unknown rules carry no facts
                continue
            value = json.loads(payload)
            if not isinstance(value, dict):
                continue
            for subj, pred, obj in emit(value, conv_id, turn_idx):
                out.append((str(subj), str(pred), str(obj),
                            conv_id, turn_idx, rule, start, stop))
        if out:
            columns = list(zip(*out))
        else:
            columns = [[] for _ in TRIPLE_SCHEMA]
        arrays = [
            pa.array(col, type=field.type)
            for col, field in zip(columns, TRIPLE_SCHEMA)
        ]
        return pa.Table.from_arrays(arrays, schema=TRIPLE_SCHEMA)


class IntTokenExtractor:
    """Earley extraction of every INT token from a text column.

    The smallest possible grammar (``rule(type('INT'))``) — exists so
    the Earley path itself is oracle-checkable against a SQL
    ``regexp_extract_all(text, '\\d+')`` on the same rows.
    """

    def __init__(self, id_column='event_id', text_column='props'):
        from yargy_ray.kernel import rule
        from yargy_ray.kernel.predicates import type_
        from yargy_ray.kernel.tokenizer import Tokenizer
        self.id_column = id_column
        self.text_column = text_column
        self.parser = Parser(rule(type_('INT')), tokenizer=Tokenizer())

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_column).to_pylist()
        texts = batch.column(self.text_column).to_pylist()
        out_id, out_val = [], []
        for row_id, text in zip(ids, texts):
            for match in self.parser.findall(text):
                out_id.append(row_id)
                out_val.append(match.tokens[0].value)
        return pa.table({
            self.id_column: pa.array(out_id, type=pa.int64()),
            'value': pa.array(out_val, type=pa.string()),
        })


def extract_mentions(turns_ds, factory_paths=DEFAULT_FACTORIES,
                     concurrency=(1, 8), batch_size=128):
    """turns Dataset -> mentions Dataset (:class:`MentionExtractor`
    tasks, at most ``concurrency`` at a time)."""
    return map_cached(turns_ds, MentionExtractor,
                      {'factory_paths': tuple(factory_paths)},
                      concurrency, batch_size)


def project_triples(mentions_ds, factory_paths=DEFAULT_FACTORIES,
                    batch_size=4096, concurrency=None):
    """mentions Dataset -> triples Dataset (:class:`TripleProjector`
    tasks)."""
    return map_cached(mentions_ds, TripleProjector,
                      {'factory_paths': tuple(factory_paths)},
                      concurrency, batch_size)

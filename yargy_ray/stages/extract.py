"""Extraction stage: transcript turns -> mention rows, and the triple
projection of their interpretation payloads.

The hot path of the engine. Design (SURVEY §2.7, §3):

* Every extraction stage runs through ``stages/compute.map_cached``:
  Ray tasks on warm workers, one extractor instance per worker process
  per Dataset, so grammar compiles, imports and the process-wide
  morphology LRU are paid once per warm Ray worker, and per-instance
  memos (the text -> rows LRU) never outlive their Dataset.
* Grammars arrive as factory dotted-names (strings) — cheap to pickle,
  compiled inside the worker; ``custom()`` functions stay importable.
* Per turn one lexer pass (``kernel.earley.Lexer``) tokenizes the text,
  attaches morphology and computes every token's FIRST-matcher mask (one
  ``MaskSpace`` for all grammars) in a single regex loop. A memo keyed
  by a token's value and regex group holds its type, morphological
  forms and mask, so a word seen before costs one lookup; the memo is
  bounded and cleared when a parser adds a bit to the space. The token
  list and masks are shared by every grammar. Each parser tests the bit
  sets every match of its grammar needs against the turn's union mask,
  so most grammar×turn pairs never start an Earley chart. The shipped
  grammars need no regex ``gate``; a user grammar may set one as a hint
  that skips the turn for that grammar before it is even tokenized.
* Payloads come straight from the chart, for every shipped grammar.
  ``Parser.findall_spans`` gives each kept match as its chart span and
  its chosen final state; ``person``'s agreement relations are checked
  over the chart states, the tokens they constrain going into a
  per-chart leaves map. ``Parser.payload`` folds each state into its
  payload through compiled payload plans, with no parse tree, no
  ``Match`` and no interpretation result object; the char span and
  token values come from the turn's tokens the span covers. Only a span
  with several final states builds trees, to rank them.
* A per-document state budget bounds worst-case parse work; capped
  turns are reported as ``rule='_capped'`` mention rows (dropped by
  triple projection, so the KG build does not count them) instead of
  failing the job. Each extractor counts the charts it capped and the
  matches it quarantined (``capped``, ``quarantined``).
* The per-text memo (``MentionExtractor.hits``) keeps each match's
  interpretation payload and covered token values, not rows: mention
  rows and their ``fact_json`` are built from it on demand. Triples
  have one production stage, the fused ``pipelines.kg.TripleExtractor``
  (``extract_triples``): it feeds the payloads straight to
  ``TripleProjector.emit`` and emits every occurrence, building no
  mention rows and no JSON text. Mention rows (``extract_mentions``)
  serve the document-scope queries; ``TripleProjector()`` over them is
  the in-process reference the fused rows are tested against.
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
from yargy_ray.kernel.earley import Lexer, MaskSpace
# the payload conversion of a match, also importable from this module
from yargy_ray.kernel.interp import fact_payload  # noqa: F401
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


class MentionExtractor:
    """pyarrow batch of transcript turns -> pyarrow batch of mentions.

    NOTE: do NOT disable cyclic GC in the Ray workers. Extraction itself
    leaves no cyclic garbage (``test_chart_identity.py::
    test_extraction_leaves_no_cyclic_garbage``), so the collector has
    little to do here; but inside a Ray worker uncollected cycles from
    elsewhere pin deserialized Arrow blocks (plasma-backed buffers), the
    object store fills, and throughput collapses ~4x (measured at 32
    cpus).
    """

    def __init__(self, factory_paths=DEFAULT_FACTORIES, max_states=None):
        self.specs = build_specs(factory_paths)
        # one shared tokenizer => one morph pass per turn for all grammars
        self.tokenizer = MorphTokenizer()
        # one bit space => one mask pass per turn for all grammars
        self.space = MaskSpace()
        self.parsers = []
        for spec in self.specs:
            parser = Parser(
                spec.rule,
                tokenizer=self.tokenizer,
                max_states=max_states if max_states is not None
                else spec.max_states,
                space=self.space,
            )
            gate = re.compile(spec.gate) if spec.gate else None
            self.parsers.append((spec, parser, gate))
        # one regex pass per turn: tokens, morphology and masks
        self.lex = Lexer(self.tokenizer, self.space)
        self._result_cache = OrderedDict()
        # what extraction dropped: matches whose interpretation raised
        # TypeError, and grammar x turn charts that hit the state budget
        # (memo hits count nothing)
        self.quarantined = 0
        self.capped = 0

    def hits(self, text):
        """Every ``(rule, start, stop, payload, values)`` of one text.

        ``payload`` is the interpretation result's JSON-serializable
        value and ``values`` those of the turn's tokens the match covers
        (a chart span consumes exactly its columns' tokens, so no tree
        is walked for them); a capped grammar gives ``(CAPPED_RULE, 0,
        0, {'grammar': name}, [])`` and counts in ``capped``. A match
        whose interpretation raises ``TypeError`` (mixed-type input) is
        quarantined: it gives no hit and counts in ``quarantined``.
        Payloads come from ``Parser.findall_spans``/``Parser.payload``,
        folded straight from the chart with no parse tree and no
        interpretation result object (``leaves`` holds the tokens a
        grammar's agreement relations constrained).

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
        hits = []
        tokens = None
        for spec, parser, gate in self.parsers:
            if gate is not None and gate.search(text) is None:
                continue
            if tokens is None:
                tokens, masks = self.lex(text)
            leaves = {}
            try:
                matches = parser.findall_spans(tokens, masks, leaves=leaves)
            except StateOverflow:
                self.capped += 1
                hits.append((CAPPED_RULE, 0, 0, {'grammar': spec.name}, []))
                continue
            payload = parser.payload
            for span, state in matches:
                try:
                    value = payload(span, state, leaves)
                except TypeError:
                    # mixed-type interpretation — quarantine, don't fail
                    self.quarantined += 1
                    continue
                first, last = span
                hits.append((spec.name, tokens[first].span.start,
                             tokens[last - 1].span.stop, value,
                             [t.value for t in tokens[first:last]]))
        cache[text] = hits
        if len(cache) > RESULT_CACHE_SIZE:
            cache.popitem(last=False)
        return hits

    def _extract_text(self, text):
        """The mention rows ``(rule, start, stop, token values,
        fact_json)`` of one text, from its memoized :meth:`hits`."""
        return [(rule, start, stop, values,
                 json.dumps(payload, ensure_ascii=False, sort_keys=True))
                for rule, start, stop, payload, values in self.hits(text)]

    def __call__(self, batch: pa.Table) -> pa.Table:
        conv_ids = batch.column('conv_id').to_pylist()
        turn_idxs = batch.column('turn_idx').to_pylist()
        texts = batch.column('text').to_pylist()
        out = []
        for conv_id, turn_idx, text in zip(conv_ids, turn_idxs, texts):
            for row in self._extract_text(text):
                out.append((conv_id, turn_idx) + row)
        return rows_table(out, MENTION_SCHEMA)


class TripleProjector:
    """Mention -> triple projection: :meth:`emit` inside the fused
    extractor, :meth:`__call__` over mention rows in-process.

    Needs the grammar specs only for their ``to_triples`` functions;
    construction is cheap but still done once per worker process.
    """

    def __init__(self, factory_paths=DEFAULT_FACTORIES):
        self.emitters = {s.name: s.to_triples for s in build_specs(factory_paths)}

    def emit(self, out, rule, payload, conv_id, turn_idx, start, stop):
        """Append the triple rows of one mention's payload to ``out``.

        The one projection of a payload: :meth:`__call__` feeds it the
        parsed ``fact_json`` of mention rows, the fused
        :class:`~yargy_ray.pipelines.kg.TripleExtractor` the payloads of
        :meth:`MentionExtractor.hits`. Payloads are ``as_json`` dicts,
        which a JSON round trip leaves equal, so both give the same rows;
        an emitter must not modify its payload, which every memo hit of
        the text shares. ``_capped`` and unknown rules carry no facts.
        """
        emitter = self.emitters.get(rule)
        if emitter is None or not isinstance(payload, dict):
            return
        for subj, pred, obj in emitter(payload, conv_id, turn_idx):
            out.append((str(subj), str(pred), str(obj),
                        conv_id, turn_idx, rule, start, stop))

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
            self.emit(out, rule, json.loads(payload), conv_id, turn_idx,
                      start, stop)
        return rows_table(out, TRIPLE_SCHEMA)


def rows_table(rows, schema):
    """Arrow table of ``schema`` from row tuples."""
    columns = list(zip(*rows)) if rows else [[] for _ in schema]
    return pa.Table.from_arrays(
        [pa.array(col, type=field.type)
         for col, field in zip(columns, schema)], schema=schema)


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
                     concurrency=8, batch_size=128):
    """turns Dataset -> mentions Dataset (:class:`MentionExtractor`
    tasks, at most ``concurrency`` at a time)."""
    return map_cached(turns_ds, MentionExtractor,
                      {'factory_paths': tuple(factory_paths)},
                      concurrency, batch_size)

"""Gazetteer-backed entity linking (north_rule component).

Maps mention surface forms to canonical entity ids with
morph_pipeline semantics (reference: pipelines.py:53-75 — keys match
on per-token LEMMAS, so every inflected variant of a phrase links to
the same canonical entry; yargy_ray.kernel.gazetteer reimplements the
same normalization for in-grammar use).

Scale design: the gazetteer is built ONCE driver-side and broadcast by
``stages/compute.map_cached`` — every worker reads the same
object-store copy when it builds its linker; it is never re-shipped
per batch. The linking stage runs as tasks on warm workers (morph
analyzer + phrase index built once per worker per Dataset), streaming
over Arrow batches. Unlinked mentions keep their normalized surface
form with ``linked=False`` — at 100TB scale you never drop rows
silently.
"""

from __future__ import annotations

import pyarrow as pa

from yargy_ray.kernel.tokenizer import MorphTokenizer
from yargy_ray.stages.compute import map_cached


def normalize_phrase(tokenizer, phrase):
    """Lemma-join key for a phrase: one sorted lemma choice per token.

    Deterministic: for ambiguous tokens the lexicographically-first
    lemma is used on BOTH the gazetteer side and the mention side, so
    lookups are stable across processes (same requirement as the
    deterministic prediction order in kernel/gazetteer.py).
    """
    keys = []
    for token in tokenizer(phrase):
        forms = getattr(token, 'forms', None)
        if forms:
            keys.append(min(f.normalized for f in forms))
        else:
            keys.append(token.value.lower())
    return ' '.join(keys)


def build_gazetteer(entities):
    """{canonical_id: [phrase, ...]} -> broadcastable lemma-key index.

    Run driver-side once; pass the result to :func:`link_entities`.
    """
    tokenizer = MorphTokenizer()
    index = {}
    for entity_id in sorted(entities):
        for phrase in entities[entity_id]:
            key = normalize_phrase(tokenizer, phrase)
            # first writer wins deterministically (sorted entity order)
            index.setdefault(key, entity_id)
    return index


class EntityLinker:
    """Adds ``entity_id`` + ``linked`` columns for one column, against
    a compiled ``{lemma key: entity id}`` index."""

    # surface forms repeat heavily (same insight as the extraction LRU,
    # stages/extract.py): cache the tokenize+lemma key per distinct
    # surface, bounded per instance
    _CACHE_MAX = 100_000

    def __init__(self, index, column='obj'):
        self.index = index
        self.column = column
        self.tokenizer = MorphTokenizer()
        self._key_cache = {}

    def _key_of(self, value):
        key = self._key_cache.get(value)
        if key is None:
            key = normalize_phrase(self.tokenizer, value)
            if len(self._key_cache) >= self._CACHE_MAX:
                self._key_cache.clear()
            self._key_cache[value] = key
        return key

    def __call__(self, batch: pa.Table) -> pa.Table:
        values = batch.column(self.column).to_pylist()
        ids = []
        linked = []
        for value in values:
            key = self._key_of(value or '')
            hit = self.index.get(key)
            if hit is None:
                ids.append(key)
                linked.append(False)
            else:
                ids.append(hit)
                linked.append(True)
        return (
            batch.append_column('entity_id', pa.array(ids, pa.string()))
            .append_column('linked', pa.array(linked, pa.bool_()))
        )


def link_entities(ds, gazetteer, column='obj', concurrency=4,
                  batch_size=4096):
    """Dataset + {id: [phrases]} -> Dataset with entity_id/linked.

    ``gazetteer`` may also be a compiled index from
    :func:`build_gazetteer`, or an ``ObjectRef`` to one (resolved here,
    on the driver). The index is broadcast once through the object
    store, not pickled into every task.
    """
    import ray
    if isinstance(gazetteer, ray.ObjectRef):
        gazetteer = ray.get(gazetteer)
    index = (gazetteer if all(isinstance(v, str) for v in gazetteer.values())
             else build_gazetteer(gazetteer))
    return map_cached(ds, EntityLinker, {'index': index, 'column': column},
                      concurrency, batch_size)

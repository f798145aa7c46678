"""Benchmark decontamination: word-n-gram overlap against a held-out
set — the GPT-3/Dolma-style safeguard a pretraining pipeline runs so
evaluation data never leaks into training shards.

Shape: the benchmark's distinct n-grams are collected ONCE, indexed on
the driver and broadcast (``stages/compute.map_cached``; eval-set
n-gram vocabularies are tiny next to the corpus), then every training
batch counts its n-grams and their benchmark hits with one vectorized
binary search over the shared sorted gram index — exact string
membership, no shuffle at all, no per-batch hash-table rebuild. Scale
note: if a benchmark ever outgrows worker memory, swap the broadcast
for a semi-join through the hash-partition exchange (the
`hash_join(how='semi')` shape); the counting semantics stay identical.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from yargy_ray.stages.compute import map_cached

_WS = r'\s+'


def _word_ngrams(batch_text, n):
    """All word n-grams of every row, plus per-row gram counts.

    Vectorized over the whole batch: ONE split pass, then numpy object
    concatenation over the flat token buffer (per-gram work, not
    per-row Python).
    """
    trimmed = pc.fill_null(
        pc.utf8_trim_whitespace(pc.utf8_lower(batch_text)), '')
    split = pc.split_pattern_regex(trimmed, _WS)
    toks = pc.list_flatten(split).to_numpy(zero_copy_only=False)
    # raw_lens describes the FLAT buffer (split('') -> [''] contributes
    # one token); the blank-zeroed lens is only for gram counts. Using
    # the zeroed lens for `starts` would shift every row after a blank
    # row by one flat slot per blank.
    raw_lens = pc.list_value_length(split) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    blank = pc.equal(trimmed, '').to_numpy(zero_copy_only=False)
    lens = np.where(blank, 0, raw_lens)
    counts = np.maximum(lens - (n - 1), 0)
    if toks.size == 0 or counts.sum() == 0:
        return np.array([], dtype=object), counts
    starts = np.concatenate(([0], np.cumsum(raw_lens)))[:-1]
    # flat indices of every gram's first token, fully vectorized:
    # repeat each row's start, add the within-row gram ordinal
    total = int(counts.sum())
    gram_starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
    ordinal = np.arange(total) - np.repeat(gram_starts, counts)
    first = np.repeat(starts, counts) + ordinal
    grams = toks[first].astype(object)
    for k in range(1, n):
        grams = grams + ' '
        grams = grams + toks[first + k].astype(object)
    return grams, counts


def benchmark_ngram_set(bench_ds, n=3):
    """Distinct word n-grams of the benchmark set as ONE Arrow array
    (driver-side collect of a deduplicated small side)."""
    def partial(batch: pa.Table) -> pa.Table:
        grams, _ = _word_ngrams(batch.column('text'), n)
        return pa.table({'g': pa.array(np.unique(grams),
                                       type=pa.string())})

    parts = bench_ds.map_batches(partial, batch_format='pyarrow')
    tbl = pa.concat_tables([pa.table({'g': b['g']})
                            for b in parts.iter_batches(
                                batch_format='pyarrow')])
    if tbl.num_rows == 0:
        return pa.array([], type=pa.string())
    arr = tbl.column('g').combine_chunks()
    return arr.unique()


def _gram_index(grams: pa.Array):
    """(sorted int64 xxhashes, sorted fixed-width strings) of the gram
    set — the two-tier exact-membership index."""
    from yargy_ray.stages.exchange import _hash64
    if not len(grams):
        return (np.array([], dtype=np.int64), np.array([], dtype='U1'))
    hashes = np.sort(_hash64(grams).to_numpy(zero_copy_only=False))
    strings = np.sort(grams.to_numpy(zero_copy_only=False).astype(str))
    return (hashes, strings)


class ContaminationCounter:
    """Per-doc n-gram totals and benchmark hits.

    ``index`` is the benchmark gram set pre-built by :func:`_gram_index`
    as sorted arrays, broadcast once: every worker on a node maps the
    same plasma buffers, with no per-worker build or copy. Per-batch
    membership is a vectorized binary search (exact string compare at
    the insertion point). The obvious ``pc.is_in(value_set=...)``
    alternative rebuilds its hash table on EVERY kernel call, which at
    a 10M-gram benchmark costs ~25x the probe work (measured: 3.8k ->
    100k+ docs/s at the scripts/stress_decontam.py scale).
    """

    def __init__(self, index, n=3):
        self._hashes, self._strings = index
        self.n = n

    def _member(self, grams):
        """Exact membership: cheap vectorized probe of the sorted
        xxhash index (8B/entry — an order of magnitude less memory
        traffic than string binary search), then exact string verify
        of ONLY the hash candidates (true hits + ~1e-5 collisions)."""
        from yargy_ray.stages.exchange import _hash64
        hit = np.zeros(len(grams), dtype=bool)
        if not len(self._hashes):
            return hit
        ph = _hash64(pa.array(grams, type=pa.string())) \
            .to_numpy(zero_copy_only=False)
        idx = np.searchsorted(self._hashes, ph)
        inside = idx < len(self._hashes)
        cand = np.zeros(len(grams), dtype=bool)
        cand[inside] = self._hashes[idx[inside]] == ph[inside]
        if cand.any():
            probes = grams[cand].astype(str)
            sidx = np.searchsorted(self._strings, probes)
            sin = sidx < len(self._strings)
            ok = np.zeros(len(probes), dtype=bool)
            ok[sin] = self._strings[sidx[sin]] == probes[sin]
            hit[np.flatnonzero(cand)] = ok
        return hit

    def __call__(self, batch: pa.Table) -> pa.Table:
        grams, counts = _word_ngrams(batch.column('text'), self.n)
        if len(grams):
            hit = self._member(grams).astype(np.int64)
            bounds = np.concatenate(([0], np.cumsum(counts)))
            per_doc_hits = np.add.reduceat(
                np.concatenate((hit, [0])), bounds[:-1])
            per_doc_hits[counts == 0] = 0
        else:
            per_doc_hits = np.zeros(len(counts), dtype=np.int64)
        return pa.table({
            'doc_id': batch.column('doc_id'),
            'n_grams': pa.array(counts, type=pa.int64()),
            'n_contaminated': pa.array(per_doc_hits, type=pa.int64()),
        })


def contamination_counts(docs_ds, bench_ds, n=3, concurrency=4,
                         batch_size=4096):
    """Per-document n-gram totals and benchmark-overlap counts.

    Downstream policy (drop / flag above a ratio) is the caller's —
    the counts are the exact, SQL-checkable part. For large benchmark
    sets budget ~3x the gram set's Arrow bytes of object-store memory
    for the sorted index.
    """
    # build ONCE on the driver; the broadcast object is the finished
    # index, mapped read-only by every worker (no per-worker build/copy)
    index = _gram_index(benchmark_ngram_set(bench_ds, n))
    return map_cached(docs_ds, ContaminationCounter,
                      {'index': index, 'n': n}, concurrency, batch_size)

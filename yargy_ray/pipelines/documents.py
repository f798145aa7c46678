"""Document reconstruction from shuffled turn rows + per-row invariant.

The one wide shuffle before anything document-scoped: group turns by
``conv_id``, restore stable order by ``turn_idx``, concatenate. This is
ONE hash exchange keyed on ``hash(conv_id)`` followed by ONE vectorized
reduce per partition (pandas mergesort by (conv, turn) + factorized run
boundaries + ``np.add.reduceat`` checksums + a grouped text join) —
never one Python UDF call / one single-row output block per
conversation, which is the degenerate per-group map shape
``stages/exchange.py`` documents (measured 20.6s vs 2s on 1.3M
near-unique groups). Giant conversations (the built-in skew in the
synthetic corpus) hash to one partition like everyone else; partition
balance comes from the conv-id hash, and the reduce cost is linear in
partition rows regardless of how the rows split into conversations, so
no salting level is needed — the earlier two-level salted design
existed only to bound per-GROUP UDF calls and shipped every text byte
through TWO exchanges instead of one.

Per-row invariant (BASELINE.json input_hint): every turn's text must be
byte-identical after reconstruction, under stable turn ordering. Proven
without a join: an order-insensitive per-conversation checksum (sum of
per-turn hashes mod 2**63) computed from the raw rows must equal the
checksum recomputed from the reconstructed document. Per-turn hashes
are computed MAP-SIDE (embarrassingly parallel) so the wide stage ships
each text byte exactly once and the reduce stays numpy-vectorized
(uint64 wraparound sums are exact mod 2**63 because 2**64 ≡ 0 there).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

TURN_SEP = '\n'
_MOD = 2**63


def _turn_hash(conv_id, turn_idx, text):
    """md5-arithmetic turn hash, reproducible in DuckDB as
    ``md5_number_lower(conv_id || chr(31) || turn_idx || chr(31) || text)
    % 2**63`` (md5_number_lower == bytes [8:16) little-endian)."""
    digest = hashlib.md5(
        f'{conv_id}\x1f{turn_idx}\x1f{text}'.encode()).digest()
    return int.from_bytes(digest[8:16], 'little') % _MOD


def _with_turn_hash(batch: pa.Table) -> pa.Table:
    """Map-side per-turn invariant hash (md5 IS the operator here; it
    runs embarrassingly parallel before the exchange)."""
    hashes = [
        _turn_hash(c, i, t)
        for c, i, t in zip(batch.column('conv_id').to_pylist(),
                           batch.column('turn_idx').to_pylist(),
                           batch.column('text').to_pylist())
    ]
    return pa.table({
        'conv_id': batch.column('conv_id'),
        'turn_idx': batch.column('turn_idx'),
        'text': batch.column('text'),
        'thash': pa.array(hashes, type=pa.int64()),
    })


def _concat_partition(table: pa.Table) -> pa.Table:
    """Vectorized reconstruction over one hash partition of complete
    conversations: one mergesort, one reduceat, one grouped join."""
    import pandas as pd

    if table.num_rows == 0:
        return pa.table({
            'conv_id': pa.array([], type=pa.string()),
            'n_turns': pa.array([], type=pa.int64()),
            'text': pa.array([], type=pa.string()),
            'checksum': pa.array([], type=pa.int64()),
        })
    df = table.select(['conv_id', 'turn_idx', 'text', 'thash']).to_pandas()
    df = df.sort_values(['conv_id', 'turn_idx'], kind='mergesort',
                        ignore_index=True)
    codes, uniques = pd.factorize(df['conv_id'], sort=False)
    starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
    counts = np.diff(np.append(starts, len(df)))
    sums = np.add.reduceat(
        df['thash'].to_numpy().astype(np.uint64), starts) % np.uint64(_MOD)
    texts = df['text'].groupby(codes, sort=False).agg(TURN_SEP.join)
    return pa.table({
        'conv_id': pa.array(uniques, type=pa.string()),
        'n_turns': pa.array(counts, type=pa.int64()),
        'text': pa.array(texts.to_numpy(), type=pa.string()),
        'checksum': pa.array(sums.astype(np.int64), type=pa.int64()),
    })


def reconstruct_documents(turns_ds, num_partitions=64):
    """turns Dataset -> documents Dataset (one exchange, vectorized
    per-partition reduce)."""
    from yargy_ray.stages.exchange import partitioned_reduce

    hashed = turns_ds.map_batches(_with_turn_hash, batch_format='pyarrow')
    return partitioned_reduce(hashed, 'conv_id', _concat_partition,
                              num_partitions)


def _raw_checksums(batch: pa.Table) -> pa.Table:
    """Map-side partial of the order-insensitive invariant checksum."""
    sums = {}
    counts = {}
    for conv_id, idx, text in zip(
            batch.column('conv_id').to_pylist(),
            batch.column('turn_idx').to_pylist(),
            batch.column('text').to_pylist()):
        sums[conv_id] = (sums.get(conv_id, 0)
                         + _turn_hash(conv_id, idx, text)) % _MOD
        counts[conv_id] = counts.get(conv_id, 0) + 1
    return pa.table({
        'conv_id': pa.array(list(sums), type=pa.string()),
        'checksum': pa.array(list(sums.values()), type=pa.int64()),
        'n_turns': pa.array([counts[c] for c in sums], type=pa.int64()),
    })


def verify_documents(turns_ds, docs_ds, num_partitions=64):
    """Count conversations whose reconstruction violates the invariant.

    Fully distributed anti-join: raw-side map partials and doc rows
    ``cogroup`` on ``hash(conv_id)`` in ONE exchange, and each
    partition emits a single violation count — the driver sees only P
    tiny rows (never one row per conversation).
    """
    import pandas as pd

    from yargy_ray.stages.exchange import cogroup

    cols = ['conv_id', 'checksum', 'n_turns']

    def frame(side: pa.Table):
        # a side with no rows anywhere may come without columns
        if side.num_rows == 0:
            return pd.DataFrame(columns=cols)
        return side.select(cols).to_pandas()

    def check(raw: pa.Table, docs: pa.Table) -> pa.Table:
        raw = frame(raw).groupby('conv_id', as_index=True).agg(
            checksum=('checksum', 'sum'), n_turns=('n_turns', 'sum'))
        raw['checksum'] = raw['checksum'].astype(np.uint64) % _MOD
        joined = raw.join(frame(docs).set_index('conv_id'), how='outer',
                          lsuffix='_raw')
        bad = int((
            (joined['checksum_raw'].isna() | joined['checksum'].isna())
            | (joined['checksum_raw'] != joined['checksum'])
            | (joined['n_turns_raw'] != joined['n_turns'])
        ).sum())
        return pa.table({'bad': pa.array([bad], type=pa.int64())})

    counts = cogroup(
        turns_ds.map_batches(_raw_checksums, batch_format='pyarrow'),
        docs_ds.select_columns(cols), 'conv_id', check, num_partitions)
    return int(counts.sum('bad') or 0)


def extract_document_mentions(docs_ds, factory_paths=None,
                              concurrency=8, batch_size=16):
    """Document-scope extraction: reference semantics on whole documents.

    The reference's native unit is one document string (parser.findall
    over the full text); this runs exactly that over RECONSTRUCTED
    documents, with doc-relative spans and ``turn_idx = -1`` marking
    document scope. Matches cannot silently cross turn boundaries: the
    turn separator tokenizes as an EOL token, which no default grammar
    accepts, so doc-scope output equals per-turn output with shifted
    spans (pinned by tests/test_ray_pipeline.py::test_docscope_extraction).
    ``batch_size`` is small because rows are whole conversations, not
    turns.
    """
    import numpy as np

    from yargy_ray.grammars import DEFAULT_FACTORIES
    from yargy_ray.stages.extract import extract_mentions

    if factory_paths is None:
        factory_paths = DEFAULT_FACTORIES

    def adapt(batch: pa.Table) -> pa.Table:
        return pa.table({
            'conv_id': batch.column('conv_id'),
            'turn_idx': pa.array(
                np.full(batch.num_rows, -1, dtype=np.int32)),
            'text': batch.column('text'),
        })

    turns_like = docs_ds.map_batches(adapt, batch_format='pyarrow')
    return extract_mentions(turns_like, factory_paths,
                            concurrency=concurrency, batch_size=batch_size)

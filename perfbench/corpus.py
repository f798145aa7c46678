"""Benchmark inputs: the generated transcript corpus, its distinct-turn
variant, the base/delta split of the build+merge ledger, and the input
properties recorded with every run.

Every input is a pure function of the seed; the program under test
only ever sees the parquet files written here.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# ~10k turns: a job takes 7-10 s on one extraction actor. At 500
# conversations Ray's per-job start-up dominated a job and its jitter
# spread job times three times wider.
NUM_CONVS = 1000
# The generator's defaults make every 997th conversation 100x longer:
# ~9% of the turns sit in giants, but a run holds only one or two, so
# the input size swings by +-7% between seeds. 10x every 97th keeps
# that share with fifteen giants and a steady input size.
GIANT_EVERY = 97
GIANT_FACTOR = 10
# The build+merge ledger builds the partitioned KG over the first
# LEDGER_CONVS conversations (the first 90% as base) and merges the
# rest as a delta; the delta also serves as the warm-up input.
LEDGER_CONVS = 150
LEDGER_BASE_CONVS = 135


def parquet_files(path):
    return sorted(os.path.join(path, f) for f in os.listdir(path)
                  if f.endswith('.parquet'))


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files
               if f.endswith('.parquet'))


def generate(path, seed):
    """The generator's corpus for ``seed``, written as it comes."""
    from yargy_ray.sources.transcripts import write_transcripts
    write_transcripts(path, NUM_CONVS, seed=seed, giant_every=GIANT_EVERY,
                      giant_factor=GIANT_FACTOR)


def _conv_index(table):
    # conv ids are 'conv-%08d'
    return pc.cast(pc.utf8_slice_codeunits(table['conv_id'], 5), pa.int64())


def _first_text_keys(tables):
    """(conv_id, turn_idx) of every turn whose text did not appear in an
    earlier turn, in (conv_id, turn_idx) order."""
    rows = pa.concat_tables(
        [t.select(['conv_id', 'turn_idx', 'text']) for t in tables])
    rows = rows.sort_by([('conv_id', 'ascending'),
                         ('turn_idx', 'ascending')])
    seen, keep = set(), []
    for conv, idx, text in zip(rows['conv_id'].to_pylist(),
                               rows['turn_idx'].to_pylist(),
                               rows['text'].to_pylist()):
        if text not in seen:
            seen.add(text)
            keep.append(f'{conv}:{idx}')
    return pa.array(keep, pa.string())


def _turn_keys(table):
    return pc.binary_join_element_wise(
        table['conv_id'], pc.cast(table['turn_idx'], pa.string()), ':')


def keep_first_texts(src, dst):
    """Copy ``src`` to ``dst`` without every turn whose text already
    appeared earlier; the file layout stays the same, so both variants
    are read with the same parallelism."""
    files = parquet_files(src)
    tables = [pq.read_table(f) for f in files]
    keep = _first_text_keys(tables)
    os.makedirs(dst, exist_ok=True)
    for f, table in zip(files, tables):
        mask = pc.is_in(_turn_keys(table), value_set=keep)
        pq.write_table(table.filter(mask),
                       os.path.join(dst, os.path.basename(f)))


def split_ledger(src, base_dir, delta_dir):
    """Write the first LEDGER_CONVS conversations of ``src`` as a base
    (the first LEDGER_BASE_CONVS) and a delta (the rest)."""
    table = pa.concat_tables(pq.read_table(f) for f in parquet_files(src))
    idx = _conv_index(table)
    for path, lo, hi in ((base_dir, 0, LEDGER_BASE_CONVS),
                         (delta_dir, LEDGER_BASE_CONVS, LEDGER_CONVS)):
        os.makedirs(path, exist_ok=True)
        part = table.filter(pc.and_(pc.greater_equal(idx, lo),
                                    pc.less(idx, hi)))
        pq.write_table(part, os.path.join(path, 'part-0.parquet'))


def properties(path):
    """Input facts a reader needs to interpret the figures: size, the
    share of turns the per-actor text memo can serve, and the share of
    turns in giant conversations."""
    table = pa.concat_tables(pq.read_table(f, columns=['conv_id', 'text'])
                             for f in parquet_files(path))
    turns = table.num_rows
    distinct = pc.count_distinct(table['text']).as_py()
    conv = _conv_index(table).to_numpy()
    giant = int((conv % GIANT_EVERY == GIANT_EVERY - 1).sum())
    return {
        'turns': turns,
        'distinct_text_share': distinct / turns,
        'repeat_text_share': 1 - distinct / turns,
        'giant_turn_share': giant / turns,
        'input_bytes': dir_bytes(path),
        'files': len(parquet_files(path)),
    }

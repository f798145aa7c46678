"""End-to-end example: a pretraining-data CURATION pass on this engine.

documents
  -> language-ID + quality scoring        (vectorized Arrow kernels)
  -> exact dedup survivors                (one hash exchange)
  -> benchmark decontamination            (broadcast n-gram is_in)
  -> keyword summary of what survived     (tf/df top terms)
  -> training-sample packing bookkeeping  (ordered global prefix sum)
  -> partitioned parquet shards

Every stage is the scale-shaped Ray Data composition the driver
queries exercise (bucketed exchanges, broadcast small sides, no
per-group UDFs) — the path a 100 TB corpus would stream through.

Run:  python examples/curation_pipeline.py
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import ray  # noqa: E402

if not ray.is_initialized():
    ray.init(address='local', num_cpus=8, include_dashboard=False,
             log_to_driver=False)

import pyarrow as pa  # noqa: E402
import pyarrow.compute as pc  # noqa: E402
import ray.data  # noqa: E402

from yargy_ray.stages.compute import map_cached  # noqa: E402
from yargy_ray.stages.decontam import contamination_counts  # noqa: E402
from yargy_ray.stages.dedup import exact_dedup  # noqa: E402
from yargy_ray.stages.packing import pack_assignments  # noqa: E402
from yargy_ray.stages.text import (  # noqa: E402
    doc_top_terms,
    lang_id_batch,
    quality_batch,
)

# -- a corpus with duplicates and a planted benchmark leak -----------------
words = ('data table scan batch merge sort join filter stream value '
         'group window shard block spill probe build hash range plan '
         'node edge graph rank label bucket salt spill2 key row text '
         'token term count pack byte page cache disk wire queue').split()
rows = []
for i in range(400):
    # rotating 10-word window (shared 3-grams with the benchmark) plus
    # a distinct tail so only the PLANTED copies are exact duplicates
    body = ' '.join(words[(i + j) % len(words)] for j in range(10))
    body += f' shard{i % 13} item{i}'
    rows.append({'doc_id': i, 'text': body})
    if i % 7 == 0:                       # exact duplicate
        rows.append({'doc_id': 10_000 + i, 'text': body})
docs = ray.data.from_arrow(pa.Table.from_pylist(rows))

# benchmark set: pretend docs 0..19 are an eval benchmark
bench = docs.filter(expr='doc_id < 20')
train = docs.filter(expr='doc_id >= 20')

# -- 1. quality gates (vectorized, no shuffle) -----------------------------
scored = train.map_batches(quality_batch, batch_format='pyarrow')
print('quality-pass docs:',
      scored.filter(expr='passes == True').count())

# -- 2. exact dedup survivors (one exchange) -------------------------------
# exact_dedup returns survivor ids; re-attach text via a broadcast
# id-membership filter (the survivor-id table is the small side)
surv_ids = pa.concat_tables(
    ray.get(exact_dedup(train).select_columns(['doc_id'])
            .to_arrow_refs())).column('doc_id').combine_chunks()


class KeepIds:
    def __init__(self, ids):
        self.ids = ids

    def __call__(self, batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.is_in(batch.column('doc_id'), value_set=self.ids))


survivors = map_cached(train, KeepIds, {'ids': surv_ids}, (1, 4))
print('dedup survivors:', survivors.count())

# -- 3. decontamination: drop docs overlapping the benchmark ---------------
counts = contamination_counts(survivors, bench, n=3)
clean_ids = counts.filter(expr='n_contaminated == 0').select_columns(
    ['doc_id'])
flagged = counts.filter(expr='n_contaminated > 0').count()
print('decontam: flagged', flagged, 'docs, clean:', clean_ids.count())

# keep clean survivors by broadcast id membership (small side)
clean_set = pa.concat_tables(
    ray.get(clean_ids.to_arrow_refs())).column('doc_id').combine_chunks()
clean = map_cached(survivors, KeepIds, {'ids': clean_set}, (1, 4))

# -- 4. what survived, in terms (tf/df keyword summary) --------------------
terms = doc_top_terms(clean, k=1)
print('sample keywords:', terms.take(3))

# -- 5. packing bookkeeping + sharded output -------------------------------
packed = pack_assignments(clean, seq_len=64)
n_packs = packed.max('pack_id') + 1
out_dir = '/tmp/curation_example_out'
packed.write_parquet(out_dir, partition_cols=['pack_id'])
print('packed', packed.count(), 'docs into', n_packs, 'packs ->', out_dir)

ray.shutdown()

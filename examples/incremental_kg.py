"""End-to-end example: daily-delta KG maintenance.

The workflow a 100 TB deployment runs: build the knowledge graph once,
then absorb each day's new conversations WITHOUT recomputing the base —
append-only triples, copy-on-write node/edge partitions, checkpointed
merge stages (a crashed merge reruns cleanly). The merged graph is
bit-identical to a full rebuild over the combined corpus.

Run:  python examples/incremental_kg.py
"""

import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import ray  # noqa: E402

if not ray.is_initialized():
    ray.init(address='local', num_cpus=8, include_dashboard=False,
             log_to_driver=False)

import ray.data  # noqa: E402

from yargy_ray.pipelines.incremental import merge_kg_delta  # noqa: E402
from yargy_ray.pipelines.kg import run_kg_pipeline, top_degree_nodes  # noqa: E402
from yargy_ray.sources.transcripts import write_transcripts  # noqa: E402

root = '/tmp/yargy_ray_example_inc'
shutil.rmtree(root, ignore_errors=True)

# -- day 0: the historical corpus, day 1: newly-arrived conversations ----
full = write_transcripts(f'{root}/all_turns', 40, giant_every=13,
                         giant_factor=10)
turns = ray.data.read_parquet(full)
os.makedirs(f'{root}/day0'), os.makedirs(f'{root}/day1')
turns.filter(expr="conv_id < 'conv-00000034'").write_parquet(f'{root}/day0')
turns.filter(expr="conv_id >= 'conv-00000034'").write_parquet(f'{root}/day1')

# -- build the base graph once (checkpointed; rerun = no-op) -------------
base = run_kg_pipeline(f'{root}/day0', f'{root}/kg', concurrency=4,
                       num_partitions=16)
print('base graph:',
      {stage: man['rows_out'] for stage, man in base.items()})

# -- absorb day 1: only delta-sized work + touched partitions ------------
merged = merge_kg_delta(f'{root}/kg', f'{root}/day1', f'{root}/kg_v2',
                        concurrency=4, num_partitions=16)
tri = merged['triples']
print(f"merged: +{tri['new_rows']} new triples "
      f"(appended into {len(tri['appended_partitions'])} partitions, "
      f"{len(tri['carried_partitions'])} carried verbatim); "
      f"nodes rewrote {len(merged['nodes']['merged_partitions'])} / "
      f"carried {len(merged['nodes']['carried_partitions'])} partitions")

# -- query the merged graph ----------------------------------------------
nodes = ray.data.read_parquet(f'{root}/kg_v2/nodes')
print('top degrees after merge:')
for row in top_degree_nodes(nodes, k=5).take_all():
    print(f"  {row['kind']:10} {row['norm'][:40]:40} {row['degree']}")

ray.shutdown()

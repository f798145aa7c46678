"""One decade up (VERDICT r4 #4): the expensive family at ~sf1.

Inputs are 10x the driver bench's sf0.1 shapes: ~4.2M transcript turns
(the bench corpus at multiplier 10), 50k documents for the minhash
banding exchange, 200k embeddings for the IVF build. For every op we
record wall time, the exchange (shuffle) bytes and bytes/input-row
(the quantity that crosses a real cluster's network — it must stay
flat vs the sf0.1 numbers in BENCH_r*.json), and object-store spill.

Single rep per op (these are decade-scale runs; the sf0.1 interleaved
bench owns noise discipline — this run answers "does the shape hold",
not "what is the fastest wall time").

Usage: python scripts/stress_sf1.py [corpus_multiplier]
"""

import json
import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402


def main():
    import ray
    import ray.data

    os.environ.setdefault('GRAFT_SF_DIR', '/root/testdata/sf0.1')
    import bench

    mult = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    if not ray.is_initialized():
        ray.init(address='local', num_cpus=bench.NUM_CPUS,
                 include_dashboard=False, log_to_driver=False)

    report = {'multiplier': mult, 'num_cpus': bench.NUM_CPUS, 'ops': {}}
    # one generator for every synthetic input, so any SF1_OPS subset runs
    rng = np.random.RandomState(5)
    want = set(os.environ.get('SF1_OPS',
                              'headline,comention,tri,minhash,ivf')
               .split(','))

    def record(name, seconds, n_rows, stages, shuffle_bytes):
        report['ops'][name] = {
            'sec': round(seconds, 2),
            'input_rows': n_rows,
            'rows_per_sec': int(n_rows / seconds),
            'shuffle_mib': round(shuffle_bytes / 2**20, 1),
            'shuffle_bytes_per_row': round(shuffle_bytes / n_rows, 1),
            'spilled_mib': bench.spilled_mib(),
            'n_stages': len(stages),
        }
        # incremental emission: a late-op failure keeps earlier results
        print('PARTIAL', name, json.dumps(report['ops'][name]),
              flush=True)

    # ---- 1. headline kg_triples at 10x ---------------------------------
    corpus = bench.ensure_corpus(mult)
    if 'headline' in want:
        os.environ['GRAFT_CORPUS_MULT'] = str(mult)
        sec, n_turns, n_triples, stages, shuffle = \
            bench.run_headline(corpus)
        record('kg_triples', sec, n_turns, stages, shuffle)
        report['ops']['kg_triples']['n_triples'] = n_triples

    # ---- 2. co-mention edges over the same 10x corpus ------------------
    from yargy_ray.pipelines.kg import co_mention_edges, extract_triples

    edges = None
    if 'comention' in want or 'tri' in want:
        turns = ray.data.read_parquet(
            corpus, columns=['conv_id', 'turn_idx', 'text'],
            override_num_blocks=bench.NUM_CPUS * 8 * mult)
        n_turns = turns.count()
        t0 = time.time()
        triples = extract_triples(
            turns, concurrency=max(1, bench.NUM_CPUS - 1),
            batch_size=256)
        edges = co_mention_edges(triples).materialize()
        sec = time.time() - t0
        if 'comention' in want:
            stages, shuffle = bench.parse_stage_stats(edges.stats())
            record('kg_comention', sec, n_turns, stages, shuffle)
            report['ops']['kg_comention']['n_edges'] = edges.count()

    # ---- 3. triangles over the strong co-mention graph -----------------
    import pyarrow.compute as pc

    from yargy_ray.stages.graph import triangle_counts

    # The 10x TEMPLATE corpus's co-mention graph is pathologically
    # dense (the entity vocabulary is fixed while conversations grow
    # 10x, so frequent entities approach a clique): exact triangle
    # counting on a near-clique is inherently Theta(n^3) — wedge
    # volume ~m^1.5 in ANY orientation. Real corpora grow vocabulary
    # with size (Heaps), so this regime is the worst case, not the
    # expected one; the honest scale posture is a hub cap with
    # accounting. weight >= 3 plus cap 512 bounds per-partition wedge
    # memory; counts on capped hubs are documented lower bounds.
    if 'tri' in want:
        strong = edges.filter(expr='weight >= 5').materialize()
        n_edges = strong.count()
        t0 = time.time()
        tri = triangle_counts(strong, num_partitions=128,
                              max_wedge_degree=128,
                              include_capped_stat=True).materialize()
        sec = time.time() - t0
        stages, shuffle = bench.parse_stage_stats(tri.stats())
        record('kg_triangles', sec, max(n_edges, 1), stages, shuffle)
        rows = tri.take_all()
        report['ops']['kg_triangles']['n_nodes_out'] = len(rows)
        report['ops']['kg_triangles']['capped_nodes'] = next(
            (r['triangles'] for r in rows
             if r['node_id'] == '__capped_wedges__'), 0)
        report['ops']['kg_triangles']['n_edges'] = n_edges

    # ---- 4. minhash near-dups over 10x documents ------------------------
    if 'minhash' in want:
        from yargy_ray.stages.dedup import minhash_near_dups

        vocab = np.array([f'w{i:04d}' for i in range(5000)])
        n_docs = 5000 * mult
        mat = rng.randint(0, len(vocab), (n_docs, 40))
        # plant near-dup clusters: every 500th doc copied with 2 tokens
        # changed (stays above the 0.7 shingle-jaccard threshold)
        for i in range(0, n_docs - 1, 500):
            mat[i + 1] = mat[i]
            mat[i + 1, :2] = rng.randint(0, len(vocab), 2)
        flat = pa.array(vocab[mat.ravel()], type=pa.string())
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        offs = pa.array(np.arange(0, n_docs * 40 + 1, 40, dtype=np.int32))
        docs = ray.data.from_arrow(pa.table({
            'doc_id': pa.array(np.arange(n_docs), type=pa.int64()),
            'text': pc.binary_join(pa.ListArray.from_arrays(offs, flat), ' '),
        })).repartition(64).materialize()
        t0 = time.time()
        pairs = minhash_near_dups(docs).materialize()
        sec = time.time() - t0
        stages, shuffle = bench.parse_stage_stats(pairs.stats())
        record('minhash_pairs', sec, n_docs, stages, shuffle)
        report['ops']['minhash_pairs']['n_pairs'] = pairs.count()

    # ---- 5. IVF build at 100x embeddings (2k -> 200k vectors) ----------
    if 'ivf' in want:
        from yargy_ray.stages.similarity import build_ivf_index, ivf_topk_indexed

        n_vecs = 200_000
        vecs = rng.randn(n_vecs, 64).astype(np.float32)
        flat = pa.array(vecs.ravel(), type=pa.float32())
        voffs = pa.array(np.arange(0, n_vecs * 64 + 1, 64, dtype=np.int32))
        emb = ray.data.from_arrow(pa.table({
            'vec_id': pa.array(np.arange(n_vecs), type=pa.int64()),
            'embedding': pa.ListArray.from_arrays(voffs, flat),
        })).repartition(64).materialize()
        idx_dir = '/tmp/yargy_ray_bench/ivf_sf1'
        import shutil
        shutil.rmtree(idx_dir, ignore_errors=True)
        t0 = time.time()
        # sqrt(N) guideline at this scale
        build_ivf_index(emb, idx_dir, num_lists=448, input_key='sf1')
        sec = time.time() - t0
        report['ops']['ivf_build'] = {
            'sec': round(sec, 2), 'input_rows': n_vecs,
            'rows_per_sec': int(n_vecs / sec), 'num_lists': 448,
            'spilled_mib': bench.spilled_mib(),
        }
        t0 = time.time()
        out = ivf_topk_indexed(idx_dir, vecs[:16], k=10, nprobe=32)
        report['ops']['ivf_query'] = {
            'sec': round(time.time() - t0, 2), 'rows_out': out.num_rows,
        }

    print(json.dumps(report))
    ray.shutdown()


if __name__ == '__main__':
    main()

"""Scale stress for the wide operators: multi-million-row inputs,
single node, 32 cpus — verifies the exchange shapes hold when the
fixed per-exchange cost stops dominating and records throughput.

MEASUREMENT DISCIPLINE (VERDICT r03 #4): every op runs >= 2 INTERLEAVED
reps (op1, op2, ..., op1, op2, ...) and reports best-of plus the raw
list — a host-noise burst hits one rep of every op instead of silently
inflating a single op's only number (the same fix bench.py got in r3).

Ops:
* asof_join: N left rows against pre-aggregated purchases, 50k keys.
* hopping_window: N events, 3h/1h windows.
* connected_components: planted chain graph (100k chains x 4 nodes)
  -> must converge in few rounds and return exactly 100k components.
* co_mention_edges: 300k conversations x 8 entities (8.4M raw pairs).
* two_hop_counts: 2M random edges over 500k nodes.
* doc_reconstruct_skew: 200k turns across 20k conversations PLUS one
  giant conversation holding ~9% of all turns — pins the tail-latency
  claim that the unsalted single-exchange reconstruction has row-linear
  partition cost (no straggler blowup from one hot key).

Usage: python scripts/stress_ops.py [N_events_millions] [--reps R]
Appends a block to BASELINE.md when run with --record.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402


def make_events(n, seed=3):
    rng = np.random.RandomState(seed)
    base = np.datetime64('2024-01-01T00:00:00', 'us')
    ts = base + rng.randint(0, 90 * 24 * 3600, n).astype('timedelta64[s]')
    return pa.table({
        'event_id': pa.array(np.arange(n), type=pa.int64()),
        'user_id': pa.array(rng.randint(0, 50_000, n), type=pa.int64()),
        'ts': pa.array(ts.astype('datetime64[us]')),
        'event_type': pa.array(
            np.asarray(['click', 'view', 'purchase'], dtype=object)[
                rng.randint(0, 3, n)], type=pa.string()),
        'value': pa.array(rng.rand(n) * 100),
    })


def main():
    import ray
    if not ray.is_initialized():
        ray.init(address='local',
                 num_cpus=int(os.environ.get('RAY_GRAFT_CPUS', '32')),
                 include_dashboard=False, log_to_driver=False)
    import ray.data

    from yargy_ray.pipelines.documents import reconstruct_documents
    from yargy_ray.pipelines.kg import co_mention_edges
    from yargy_ray.stages.exchange import sum_by
    from yargy_ray.stages.graph import connected_components, two_hop_counts
    from yargy_ray.stages.joins import asof_join
    from yargy_ray.stages.windows import hopping_window

    args = [a for a in sys.argv[1:] if not a.startswith('-')]
    n = int(float(args[0]) * 1e6) if args else 4_000_000
    reps = (int(sys.argv[sys.argv.index('--reps') + 1])
            if '--reps' in sys.argv else 2)

    # ---- inputs, materialized ONCE (generation excluded from timings)
    events = ray.data.from_arrow(make_events(n)).repartition(
        128).materialize()

    left = events.select_columns(['event_id', 'user_id', 'ts'])
    right = sum_by(
        events.filter(expr="event_type == 'purchase'")
        .select_columns(['user_id', 'ts', 'value']), ['user_id', 'ts'],
        'value', num_partitions=128).materialize()

    k = 100_000
    a = np.concatenate([np.arange(k) * 4, np.arange(k) * 4 + 1,
                        np.arange(k) * 4 + 2])
    chain_pairs = ray.data.from_arrow(pa.table({
        'a': pa.array(a, type=pa.int64()),
        'b': pa.array(a + 1, type=pa.int64()),
    })).repartition(64).materialize()

    n_convs, ents_per = 300_000, 8
    rng = np.random.RandomState(7)
    conv = np.repeat(np.arange(n_convs), ents_per)
    pool = np.array([f'ent-{i:05d}' for i in range(10_000)], dtype=object)
    trip = ray.data.from_arrow(pa.table({
        'conv_id': pa.array(np.char.mod('c%07d', conv.astype(np.int64)),
                            type=pa.string()),
        'subj': pa.array(np.char.mod('c%07d:0', conv.astype(np.int64)),
                         type=pa.string()),
        'pred': pa.array(['mentions_person'] * len(conv),
                         type=pa.string()),
        'obj': pa.array(pool[rng.randint(0, len(pool), len(conv))],
                        type=pa.string()),
    })).repartition(64).materialize()

    m, nn = 2_000_000, 500_000
    g = ray.data.from_arrow(pa.table({
        'src': pa.array(np.char.mod('n%06d', rng.randint(0, nn, m)),
                        type=pa.string()),
        'dst': pa.array(np.char.mod('n%06d', rng.randint(0, nn, m)),
                        type=pa.string()),
    })).repartition(64).materialize()

    # skewed turn table: 20k normal convs x 10 turns + ONE giant conv
    # with 20k turns (~9% of all rows -> ~a whole partition's worth)
    n_small, turns_per, giant_turns = 20_000, 10, 20_000
    sc = np.repeat(np.arange(n_small), turns_per)
    text = 'реплика о работе слово ' * 4
    turns_tbl = pa.table({
        'conv_id': pa.array(
            np.concatenate([np.char.mod('conv-%08d', sc.astype(np.int64)),
                            np.asarray(['giant'] * giant_turns,
                                       dtype=object)]),
            type=pa.string()),
        'turn_idx': pa.array(
            np.concatenate([np.tile(np.arange(turns_per), n_small),
                            np.arange(giant_turns)]).astype(np.int32)),
        'text': pa.array([text] * (n_small * turns_per + giant_turns),
                         type=pa.string()),
    })
    turns = ray.data.from_arrow(turns_tbl).repartition(64).materialize()
    n_turns = n_small * turns_per + giant_turns

    # ---- ops (each closure re-executes its pipeline per rep) ----------
    def op_asof():
        rows = asof_join(left, right, by='user_id', on='ts',
                         num_partitions=128).count()
        return {'rows': rows, 'per_sec_of': rows}

    def op_hopping():
        wins = hopping_window(events, size_hours=3, hop_hours=1).count()
        return {'windows': wins, 'per_sec_of': n}

    def op_cc():
        comps = connected_components(chain_pairs, num_partitions=64)
        n_comp = comps.groupby('component').count().count()
        assert n_comp == k, n_comp
        return {'nodes': 4 * k, 'components': n_comp,
                'per_sec_of': 4 * k}

    def op_comention():
        n_edges = co_mention_edges(trip, num_partitions=64).count()
        return {'convs': n_convs, 'edges': n_edges,
                'per_sec_of': n_convs * ents_per * (ents_per - 1) // 2}

    def op_two_hop():
        n_nodes = two_hop_counts(g, num_partitions=64).count()
        return {'edges': m, 'nodes_out': n_nodes, 'per_sec_of': m}

    def op_doc_skew():
        docs = reconstruct_documents(turns)
        n_docs = docs.count()
        assert n_docs == n_small + 1, n_docs
        return {'turns': n_turns, 'docs': n_docs,
                'giant_turns': giant_turns, 'per_sec_of': n_turns}

    from yargy_ray.stages.packing import pack_assignments
    from yargy_ray.stages.sketch import heavy_hitters

    # 500k-doc corpus (zipf-ish vocab) for the text-op stress rows
    n_docs = 500_000
    vocab = np.array([f'tok{i:04d}' for i in range(5_000)], dtype=object)
    w = 1.0 / np.arange(1, len(vocab) + 1)
    w /= w.sum()
    tok_idx = rng.choice(len(vocab), size=(n_docs, 12), p=w)
    texts = np.array([' '.join(row) for row in vocab[tok_idx]],
                     dtype=object)
    doc_tbl = pa.table({
        'doc_id': pa.array(np.arange(n_docs), type=pa.int64()),
        'text': pa.array(texts, type=pa.string()),
    })
    sdocs = ray.data.from_arrow(doc_tbl).repartition(64).materialize()

    def op_pack():
        packed = pack_assignments(sdocs, seq_len=2048)
        n_rows = packed.count()
        assert n_rows == n_docs, n_rows
        return {'docs': n_docs, 'per_sec_of': n_docs}

    def op_heavy():
        hh = heavy_hitters(sdocs, min_frac=0.001)
        return {'docs': n_docs, 'hitters': hh.num_rows,
                'per_sec_of': n_docs}

    from yargy_ray.stages.graph import degree_correlation
    from yargy_ray.stages.olap import pivot_counts
    from yargy_ray.stages.text import bigram_counts
    from yargy_ray.stages.windows import event_gaps

    def op_event_gaps():
        rows = event_gaps(events, num_partitions=128).count()
        assert rows == n, rows
        return {'events': n, 'per_sec_of': n}

    def op_pivot():
        rows = pivot_counts(events, 'user_id', 'event_type',
                            ['click', 'view', 'purchase'],
                            num_partitions=128).count()
        return {'events': n, 'users': rows, 'per_sec_of': n}

    def op_bigram():
        rows = bigram_counts(sdocs).count()
        return {'docs': n_docs, 'bigrams': rows,
                'per_sec_of': n_docs * 11}   # 11 bigrams per 12-tok doc

    def op_degree_corr():
        row = degree_correlation(g, num_partitions=64).take_all()[0]
        assert row['n_edges'] == m, row
        return {'edges': m, 'per_sec_of': m}

    ops = [('asof_join', op_asof), ('hopping_window', op_hopping),
           ('connected_components', op_cc),
           ('co_mention_edges', op_comention),
           ('two_hop_counts', op_two_hop),
           ('doc_reconstruct_skew', op_doc_skew),
           ('pack_assignments', op_pack),
           ('heavy_hitters', op_heavy),
           ('event_gaps', op_event_gaps),
           ('pivot_counts', op_pivot),
           ('bigram_counts', op_bigram),
           ('degree_correlation', op_degree_corr)]

    # ---- interleaved reps, best-of + raw ------------------------------
    raw = {name: [] for name, _ in ops}
    meta = {}
    for _ in range(reps):
        for name, fn in ops:
            start = time.time()
            meta[name] = fn()
            raw[name].append(round(time.time() - start, 1))

    out = {'n_events': n, 'reps': reps}
    for name, _ in ops:
        d = dict(meta[name])
        per_of = d.pop('per_sec_of')
        best = min(raw[name])
        d.update(sec=best, raw_sec=raw[name],
                 per_sec=round(per_of / best))
        out[name] = d

    print(json.dumps(out))
    if '--record' in sys.argv:
        path = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), 'BASELINE.md')
        with open(path, 'a') as f:
            f.write('\n## Operator stress ({}) — scripts/stress_ops.py'
                    ' (interleaved best-of-{})\n\n`{}`\n'.format(
                        time.strftime('%Y-%m-%d %H:%M:%S'), reps,
                        json.dumps(out)))
    ray.shutdown()


if __name__ == '__main__':
    main()

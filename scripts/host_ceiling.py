"""Host scaling-ceiling experiment — NO Ray involved.

Question: is the 8->32 cpu efficiency gap of the Ray pipeline
(BASELINE.md) caused by the engine (scheduling, object store,
shuffles) or by the host's shared memory system?

Method: run K INDEPENDENT OS processes (no Ray, no IPC, no shared
data), each pinned to its own core, each executing the same serial
workload; measure aggregate throughput at K = 1, 8, 32. Three
workloads:

* ``extract``  — the real per-turn extraction loop (MentionExtractor
  over pyarrow batches, exactly the Ray worker hot path), each worker on
  its own disjoint slice of the synthetic corpus.
* ``cpu``      — cache-resident compute control (128x128 float32
  matmul): if the box can scale compute, this scales ~linearly.
* ``mem``      — DRAM-bound control (numpy triad over 128 MB arrays):
  measures the shared-bandwidth ceiling directly.

If ``extract`` at K=32 lands far below 4x its K=8 aggregate while
``cpu`` scales, the plateau is the host memory system; the Ray
pipeline's own 8->32 ratio should then be judged against the
``extract`` ceiling (engine overhead = ceiling minus pipeline), not
against a perfect 4x.

Usage: python scripts/host_ceiling.py [--reps 2] [--convs 1600]
Prints one JSON line and appends a section to BASELINE.md when run
with --record.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

CONFIGS = (1, 8, 32)


def _gen_texts(conv_lo, conv_hi):
    from yargy_ray.sources.transcripts import generate_conversation
    texts = []
    for idx in range(conv_lo, conv_hi):
        texts.extend(row['text'] for row in generate_conversation(idx))
    return texts


def _run_extract(worker, convs, barrier, out):
    import pyarrow as pa
    from yargy_ray.stages.extract import MentionExtractor
    os.sched_setaffinity(0, {worker})
    # disjoint corpus slice per worker; batches mirror the Ray task path
    texts = _gen_texts(worker * convs, (worker + 1) * convs)
    tables = [
        pa.table({
            'conv_id': [f'c{worker}'] * len(chunk),
            'turn_idx': list(range(len(chunk))),
            'text': chunk,
        })
        for chunk in (texts[i:i + 256] for i in range(0, len(texts), 256))
    ]
    ex = MentionExtractor()
    barrier.wait()
    start = time.perf_counter()
    for t in tables:
        ex(t)
    out[worker] = (time.perf_counter() - start, len(texts))


def _run_cpu(worker, convs, barrier, out):
    import numpy as np
    os.sched_setaffinity(0, {worker})
    a = np.random.RandomState(worker).rand(128, 128).astype(np.float32)
    iters = convs * 40
    barrier.wait()
    start = time.perf_counter()
    for _ in range(iters):
        a = a @ a
        a /= np.abs(a).max() + 1.0  # keep finite
    out[worker] = (time.perf_counter() - start, iters)


def _run_mem(worker, convs, barrier, out):
    import numpy as np
    os.sched_setaffinity(0, {worker})
    n = 16 * 1024 * 1024  # 128 MB per array, 3 arrays: DRAM-resident
    b = np.ones(n, dtype=np.float64)
    c = np.ones(n, dtype=np.float64)
    a = np.empty(n, dtype=np.float64)
    iters = max(4, convs // 80)
    barrier.wait()
    start = time.perf_counter()
    for _ in range(iters):
        np.multiply(c, 2.0, out=a)
        np.add(a, b, out=a)
    out[worker] = (time.perf_counter() - start, iters)


_WORKLOADS = {'extract': _run_extract, 'cpu': _run_cpu, 'mem': _run_mem}


def run_config(workload, k, convs):
    """Aggregate units/sec for K pinned independent workers."""
    ctx = mp.get_context('fork')
    barrier = ctx.Barrier(k)
    with ctx.Manager() as mgr:
        out = mgr.dict()
        procs = [
            ctx.Process(target=_WORKLOADS[workload],
                        args=(w, convs, barrier, out))
            for w in range(k)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
        res = dict(out)
    total_units = sum(u for _, u in res.values())
    slowest = max(sec for sec, _ in res.values())
    return {
        'k': k,
        'agg_per_sec': round(total_units / slowest, 1),
        'worker_secs': [round(res[w][0], 2) for w in sorted(res)],
    }


def main():
    reps = int(_argval('--reps', 2))
    convs = int(_argval('--convs', 1600))
    results = {w: {k: [] for k in CONFIGS} for w in _WORKLOADS}
    for _ in range(reps):
        for workload in _WORKLOADS:
            for k in CONFIGS:
                results[workload][k].append(
                    run_config(workload, k, convs))
    best = {
        w: {k: max(runs, key=lambda r: r['agg_per_sec'])
            for k, runs in by_k.items()}
        for w, by_k in results.items()
    }
    out = {
        'metric': 'host_ceiling',
        'configs': {
            w: {f'{k}proc': best[w][k]['agg_per_sec'] for k in CONFIGS}
            for w in _WORKLOADS
        },
        'eff_8_32': {
            w: round(best[w][32]['agg_per_sec']
                     / best[w][8]['agg_per_sec'] / 4.0, 3)
            for w in _WORKLOADS
        },
        'raw': {w: {f'{k}proc': [r['agg_per_sec'] for r in runs]
                    for k, runs in by_k.items()}
                for w, by_k in results.items()},
        'convs_per_worker': convs,
    }
    print(json.dumps(out))
    if '--record' in sys.argv:
        _append_baseline(out)
    return out


def _argval(flag, default):
    if flag in sys.argv:
        return sys.argv[sys.argv.index(flag) + 1]
    return default


def _append_baseline(out):
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), 'BASELINE.md')
    stamp = time.strftime('%Y-%m-%d %H:%M:%S')
    lines = [
        '',
        f'## Host scaling ceiling ({stamp}) — no-Ray control experiment',
        '',
        'K independent pinned OS processes, no Ray, no shared data '
        '(scripts/host_ceiling.py); best of reps, aggregate units/sec:',
        '',
        '| workload | 1 proc | 8 proc | 32 proc | 8->32 eff |',
        '|---|---|---|---|---|',
    ]
    for w in _WORKLOADS:
        cfg = out['configs'][w]
        lines.append(
            f"| {w} | {cfg['1proc']} | {cfg['8proc']} | {cfg['32proc']} "
            f"| **{out['eff_8_32'][w]}** |")
    lines += ['', f"Raw reps: `{json.dumps(out['raw'])}`"]
    with open(path, 'a') as f:
        f.write('\n'.join(lines) + '\n')


if __name__ == '__main__':
    main()

"""A/B CPU time of the extraction kernel at two checkouts.

    python scripts/kernel_ab.py A B [--rounds N] [--seed S]
                                    [--corpus {distinct,repeat}]

``A`` and ``B`` are checkout directories (say, the parent commit and the
change). The script writes one benchmark corpus once
(``perfbench.corpus``, as ``scripts/kernel_hashes.py`` does): by default
seed 7, ``distinct`` (without turns whose text appeared earlier), or
``repeat`` (as generated). It then runs ``N`` rounds. Each round starts
two processes at once, one per checkout; each imports ``yargy_ray``
from its checkout and runs a fresh ``TripleExtractor`` over every batch
of the corpus twice: the ``cold`` pass is the process's first, and pays
one-time costs (imports warming up, the process-wide morphology cache);
the ``warm`` pass is a second fresh extractor in the same process, as a
warm Ray worker runs one. Each pass reports its process CPU time and a
sha256 of its output rows. Because both sides run at the same time they
see the same host drift; which side starts first alternates by round.
The script prints every round, then per pass each side's median CPU
time and how many rounds each side won, and warns if the output rows of
any pass differ between the sides.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BATCH_ROWS = 256
PASSES = ('cold', 'warm')


def worker(checkout, corpus):
    """One side of a round: print, per pass, ``{"cpu_s", "rows",
    "sha256"}`` as JSON; each digest is taken after its timed pass."""
    import time
    sys.path.insert(0, checkout)
    import pyarrow.parquet as pq
    from yargy_ray.pipelines.kg import TripleExtractor

    batches = []
    for name in sorted(os.listdir(corpus)):
        if name.endswith('.parquet'):
            table = pq.read_table(os.path.join(corpus, name))
            for offset in range(0, table.num_rows, BATCH_ROWS):
                batches.append(table.slice(offset, BATCH_ROWS))
    result = {}
    for label in PASSES:
        extractor = TripleExtractor()
        start = time.process_time()
        outputs = [extractor(batch) for batch in batches]
        cpu = time.process_time() - start
        digest = hashlib.sha256()
        for table in outputs:
            for row in zip(*(col.to_pylist() for col in table.columns)):
                digest.update(json.dumps(row, ensure_ascii=False).encode())
                digest.update(b'\n')
        result[label] = {'cpu_s': cpu,
                         'rows': sum(t.num_rows for t in outputs),
                         'sha256': digest.hexdigest()}
    print(json.dumps(result))


def write_corpus(path, seed, corpus):
    """The seed's ``corpus`` under ``path``; returns its directory."""
    sys.path.insert(0, ROOT)
    import ray
    from perfbench.corpus import generate, keep_first_texts
    ray.init(address='local', num_cpus=2, include_dashboard=False,
             log_to_driver=False, logging_level='ERROR')
    try:
        repeat = os.path.join(path, 'repeat')
        generate(repeat, seed)
        if corpus == 'distinct':
            keep_first_texts(repeat, os.path.join(path, 'distinct'))
    finally:
        ray.shutdown()
    return os.path.join(path, corpus)


def run_round(sides, corpus):
    procs = {
        label: subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), '--worker',
             checkout, corpus],
            cwd=checkout, stdout=subprocess.PIPE, text=True)
        for label, checkout in sides}
    out = {}
    for label, proc in procs.items():
        stdout, _ = proc.communicate()
        if proc.returncode != 0:
            raise SystemExit(f'side {label} failed ({proc.returncode})')
        out[label] = json.loads(stdout.strip().splitlines()[-1])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('a', help='checkout directory A')
    parser.add_argument('b', help='checkout directory B')
    parser.add_argument('--rounds', type=int, default=8)
    parser.add_argument('--seed', type=int, default=7, help='corpus seed')
    parser.add_argument('--corpus', choices=('distinct', 'repeat'),
                        default='distinct')
    parser.add_argument('--worker', action='store_true',
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.a, args.b)
        return
    sides = [('A', os.path.abspath(args.a)), ('B', os.path.abspath(args.b))]
    cpu = {(p, label): [] for p in PASSES for label in ('A', 'B')}
    wins = {key: 0 for key in cpu}
    with tempfile.TemporaryDirectory() as tmp:
        corpus = write_corpus(tmp, args.seed, args.corpus)
        print(f'seed {args.seed}, {args.corpus} corpus', flush=True)
        for i in range(args.rounds):
            result = run_round(sides if i % 2 == 0 else sides[::-1], corpus)
            line = [f'round {i + 1}:']
            for p in PASSES:
                a, b = result['A'][p], result['B'][p]
                if any(a[key] != b[key] for key in ('rows', 'sha256')):
                    print(f'WARNING: {p} output rows differ: {a} {b}')
                cpu[p, 'A'].append(a['cpu_s'])
                cpu[p, 'B'].append(b['cpu_s'])
                wins[p, 'B' if b['cpu_s'] < a['cpu_s'] else 'A'] += 1
                line.append(f'{p} A {a["cpu_s"]:.3f} s  B {b["cpu_s"]:.3f} s')
            print('  '.join(line), flush=True)
    for label, checkout in sides:
        print(f'{label} {checkout}')
        for p in PASSES:
            print(f'  {p}: median {statistics.median(cpu[p, label]):.3f} s'
                  f' CPU, won {wins[p, label]} of {args.rounds}')
    for p in PASSES:
        a = statistics.median(cpu[p, 'A'])
        b = statistics.median(cpu[p, 'B'])
        print(f'{p}: B - A = {b - a:+.3f} s ({(b - a) / a:+.1%} of A)')

if __name__ == '__main__':
    main()

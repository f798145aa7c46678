"""KG-build benchmark: times the batch KG build end to end and, in a
separate traced run, layer by layer.

    python3 perfbench/run.py --workload triples_repeat --seed 7 \\
        --seconds 30 --trace 0

Run from the root of a checkout. The inputs are generated from
``--seed``; every job's written output is checked against the DuckDB
template oracle. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``);
the line before it is the run record (host, input properties, sample
counts and tail percentiles, self-test). Temporary files live in
``.perfbench_work/`` and traces in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import duckdb

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import corpus, ledger, session  # noqa: E402
from perfbench.oracle import Oracle, self_test  # noqa: E402
from perfbench.session import PeakRss, time_limit  # noqa: E402
from perfbench.trace import Trace  # noqa: E402

WORKLOADS = ('triples_repeat', 'triples_distinct')
SETUPS = 3           # set-up is timed this many times; the median counts
JOB_LIMIT_S = 60     # a job slower than this counts as failed
STEP_LIMIT_S = 100   # set-up, input generation and each traced stage


_T0 = time.perf_counter()


def log(msg):
    print(f'[perfbench {time.perf_counter() - _T0:7.2f}s] {msg}',
          file=sys.stderr, flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--workload', choices=WORKLOADS, required=True)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_facts(seed):
    import psutil
    import pyarrow
    import ray

    try:
        sha = subprocess.run(['git', 'rev-parse', 'HEAD'], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, 'yargy_ray', '**', '*.py'),
                                 recursive=True)):
        with open(path, 'rb') as f:
            digest.update(f.read())
    return {
        'nproc': len(os.sched_getaffinity(0)),
        'ram_gib': psutil.virtual_memory().total / 2**30,
        'git_sha': sha,
        'source_sha256': digest.hexdigest(),
        'python': platform.python_version(),
        'ray': ray.__version__,
        'pyarrow': pyarrow.__version__,
        'duckdb': duckdb.__version__,
        'seed': seed,
    }


def summary(values):
    """Median, plus the highest of p99/p95/p90/p75 that has at least ten
    samples beyond it (None when there are too few), and the count."""
    ordered = sorted(values)
    tail = None
    for pct in (99, 95, 90, 75):
        if len(ordered) * (100 - pct) / 100 >= 10:
            idx = min(len(ordered) - 1, int(len(ordered) * pct / 100))
            tail = {'pct': pct, 'value': ordered[idx]}
            break
    return {'median': statistics.median(ordered), 'tail': tail,
            'n': len(ordered)}


class Run:
    """One benchmark run: a Ray session, the workload's inputs and their
    oracle, and the tally of checked outputs."""

    def __init__(self, args):
        self.args = args
        self.work = os.path.join(ROOT, '.perfbench_work',
                                 f'{args.workload}-{args.seed}-{os.getpid()}')
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.session = session.RaySession(ROOT)
        self.con = duckdb.connect()
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def start(self, times):
        setup = []
        for i in range(times):
            if i:
                self.session.stop()
            with time_limit(STEP_LIMIT_S, 'set-up'):
                setup.append(self.session.start())
            log(f'set-up {i + 1}: {setup[-1]:.2f} s')
        return setup

    def prepare_input(self):
        """Generate the workload's input; returns its directory."""
        generated = self.path('generated')
        with time_limit(STEP_LIMIT_S, 'input generation'):
            corpus.generate(generated, self.args.seed)
        if self.args.workload == 'triples_repeat':
            log('input ready')
            return generated
        distinct = self.path('distinct')
        corpus.keep_first_texts(generated, distinct)
        log('input ready')
        return distinct

    def check(self, what, oracle, outputs):
        """Count one attempt; it fails if any output mismatches or
        cannot be read."""
        self.attempted += 1
        try:
            bad = {table: oracle.mismatches(table, out)
                   for table, out in outputs.items()}
        except duckdb.Error as exc:
            bad = {'unreadable output': repr(exc)}
        if any(bad.values()):
            self.failed += 1
            self.errors.append(f'{what}: mismatched rows {bad}')
            return False
        return True

    def attempt(self, what, fn, limit=JOB_LIMIT_S):
        """Run ``fn`` on an idle cluster under a time limit; returns
        (ok, result). A raise or a timeout counts as a failed attempt."""
        try:
            with time_limit(limit, what):
                self.session.wait_idle()
                return True, fn()
        except Exception as exc:
            self.attempted += 1
            self.failed += 1
            self.errors.append(f'{what}: {exc!r}')
            traceback.print_exc(file=sys.stderr)
            return False, None

    def warm_up(self, input_dir):
        """Start Ray's worker processes with a small checked job on the
        ledger delta, so that no timed job pays for it."""
        small = self.path('ledger', 'delta')
        corpus.split_ledger(input_dir, self.path('ledger', 'base'), small)
        out = self.path('warm-up')
        ok, _ = self.attempt('warm-up job',
                             lambda: self.headline_job(small, out))
        ok = ok and self.check('warm-up job', Oracle(self.con, 'd', small),
                               {'triples': out})
        log('warm-up done')
        return ok

    def headline_job(self, input_dir, out):
        """One untraced headline job; returns (wall seconds, peak MiB)."""
        shutil.rmtree(out, ignore_errors=True)
        with PeakRss() as rss:
            start = time.perf_counter()
            ledger.headline(input_dir, out, self.session.cpus,
                            self.session.pool)
            wall = time.perf_counter() - start
        return wall, rss.mib

    def close(self):
        self.session.stop()
        log('session stopped')
        self.con.close()
        shutil.rmtree(self.session.temp_dir, ignore_errors=True)
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(self.work))


def measure(run, input_dir, turns, oracle):
    """Closed loop of headline jobs for ``--seconds``; a new job starts
    only while the median job still fits in the window."""
    samples = {'wall_s': [], 'turns_per_s': [], 'triples_per_s': [],
               'peak_rss_mib': []}
    out = run.path('out')
    start = time.perf_counter()
    while True:
        ok, result = run.attempt('headline job',
                                 lambda: run.headline_job(input_dir, out))
        if not ok:
            break
        wall, rss = result
        if not run.check('headline job', oracle, {'triples': out}):
            break
        samples['wall_s'].append(wall)
        samples['turns_per_s'].append(turns / wall)
        samples['triples_per_s'].append(oracle.rows('triples') / wall)
        samples['peak_rss_mib'].append(rss)
        log(f'job {len(samples["wall_s"])}: {wall:.2f} s')
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(samples['wall_s']) > run.args.seconds:
            break
    return samples, out


def untraced(run):
    setup = run.start(SETUPS)
    input_dir = run.prepare_input()
    props = corpus.properties(input_dir)
    oracle = Oracle(run.con, 'w', input_dir)
    samples, metrics, flagged = {}, {}, {}
    if run.warm_up(input_dir):
        samples, out = measure(run, input_dir, props['turns'], oracle)
    if samples.get('wall_s'):
        flagged = self_test(oracle, {'triples': out}, run.path('selftest'))
        metrics = {
            'turns_per_s': {'value': statistics.median(
                samples['turns_per_s']), 'unit': 'turns/s'},
            'triples_per_s': {'value': statistics.median(
                samples['triples_per_s']), 'unit': 'triples/s'},
            'wall_s': {'value': statistics.median(samples['wall_s']),
                       'unit': 's'},
            'setup_s': {'value': statistics.median(setup), 'unit': 's'},
            'peak_rss_mib': {'value': statistics.median(
                samples['peak_rss_mib']), 'unit': 'MiB'},
        }
    record = {
        'input': props,
        'samples': {name: summary(vals) for name, vals in
                    dict(samples, setup_s=setup).items() if vals},
        'selftest': flagged,
    }
    return metrics, record


def traced(run):
    session = run.session
    run.start(1)
    input_dir = run.prepare_input()
    if not run.warm_up(input_dir):
        return {}, {}
    base, delta = run.path('ledger', 'base'), run.path('ledger', 'delta')
    props = corpus.properties(input_dir)
    oracle = Oracle(run.con, 'w', input_dir, ('triples', 'nodes', 'edges'))
    base_oracle = Oracle(run.con, 'b', base, ('triples', 'nodes', 'edges'))
    merged_oracle = Oracle(run.con, 'm', run.path('ledger'),
                           ('triples', 'nodes', 'edges'))
    trace = Trace()

    out = run.path('out')
    ok, result = run.attempt('untraced job',
                             lambda: run.headline_job(input_dir, out))
    if not (ok and run.check('untraced job', oracle, {'triples': out})):
        return {}, {'input': props}
    wall = result[0]
    shutil.rmtree(out)
    ok, deduped = run.attempt('traced job', lambda: ledger.traced_headline(
        trace, input_dir, out, session.cpus, session.pool), STEP_LIMIT_S)
    if not (ok and run.check('traced job', oracle, {'triples': out})):
        return {}, {'input': props}
    nodes, edges = run.path('nodes'), run.path('edges')
    ok, _ = run.attempt('nodes and edges', lambda: ledger.traced_nodes_edges(
        trace, deduped, nodes, edges), STEP_LIMIT_S)
    if not (ok and run.check('nodes and edges', oracle,
                             {'nodes': nodes, 'edges': edges})):
        return {}, {'input': props}
    del deduped
    kg, merged = run.path('kg'), run.path('merged')
    ok, _ = run.attempt('build and merge', lambda: ledger.traced_build_merge(
        trace, base, delta, kg, merged, session.pool), STEP_LIMIT_S)
    built = {t: os.path.join(kg, t) for t in ('triples', 'nodes', 'edges')}
    merged_out = {t: os.path.join(merged, t)
                  for t in ('triples', 'nodes', 'edges')}
    if not (ok and run.check('build', base_oracle, built) and
            run.check('merge', merged_oracle, merged_out)):
        return {}, {'input': props}
    flagged = self_test(merged_oracle, merged_out, run.path('selftest'))
    ok, _ = run.attempt('kernel passes', lambda: ledger.kernel_passes(
        trace, ledger.input_batches(input_dir)), STEP_LIMIT_S)
    if not ok:
        return {}, {'input': props}
    trace.dump(ledger.trace_path(ROOT, run.args.workload, run.args.seed),
               untraced_wall_s=wall, input=props)
    metrics = ledger.layer_metrics(trace, wall, props, session.pool)
    return metrics, {'input': props, 'untraced_wall_s': wall,
                     'selftest': flagged}


def main(argv=None):
    args = parse_args(argv)
    # fails here, before any output, when the checkout lacks the program
    import yargy_ray.pipelines.incremental  # noqa: F401
    import yargy_ray.pipelines.kg  # noqa: F401

    run = Run(args)
    try:
        metrics, record = (traced if args.trace else untraced)(run)
    finally:
        run.close()
    selftest_ok = all(record.get('selftest', {}).values()) and \
        bool(record.get('selftest'))
    correct = run.failed == 0 and bool(metrics) and selftest_ok
    record.update(
        host=host_facts(args.seed), workload=args.workload,
        trace=args.trace, cpus=run.session.cpus, pool=run.session.pool,
        failed_share=run.failed / max(1, run.attempted), errors=run.errors)
    print(json.dumps({'record': record}))
    print(json.dumps({'correct': correct, 'attempted': max(1, run.attempted),
                      'failed': run.failed, 'metrics': metrics}))
    return 0 if metrics else 1


if __name__ == '__main__':
    sys.exit(main())

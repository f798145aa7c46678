"""CPU time of the extraction kernel's layers, per grammar, in one checkout.

    python scripts/kernel_layers.py [--seed S] [--corpus {distinct,repeat}]
                                    [--passes N] [--corpus-dir DIR]

The script writes one benchmark corpus (``perfbench.corpus``, as
``scripts/kernel_ab.py`` does: by default seed 7, ``distinct``) unless
``--corpus-dir`` names one already written, and runs
``MentionExtractor.hits`` over every turn text of it, in this process.
A first pass with a throwaway extractor fills the process-wide caches;
each of the ``N`` timed passes then runs a fresh extractor, as a warm
worker does, with a CPU timer (``time.thread_time_ns``) around each
call ``hits`` makes into the kernel:

* ``lex`` — ``MentionExtractor.lex``: tokens, morphology and masks, once
  per turn for every grammar;
* ``chart`` — each parser's ``Parser._chart_tokens``;
* ``resolve`` — each parser's ``Parser._resolve_states``: grouping the
  final states by span, ranking, agreement, span selection;
* ``fold+payload`` — each parser's ``Parser.payload``: the payload of
  one match.

``other`` is what the pass spent outside those calls (``hits``'s own
loop, the required-set test of ``findall_spans``, char spans and token
values, and the timers' own cost, about 0.2 us a call). The script
prints each cell's minimum over the passes, in seconds; the total row
is the minimum of the whole passes.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

LAYERS = ('chart', 'resolve', 'fold+payload')
# the Parser method each per-grammar layer times
METHODS = {'chart': '_chart_tokens', 'resolve': '_resolve_states',
           'fold+payload': 'payload'}


def read_texts(corpus):
    import pyarrow.parquet as pq
    from perfbench.corpus import parquet_files
    texts = []
    for name in parquet_files(corpus):
        texts.extend(pq.read_table(name).column('text').to_pylist())
    return texts


def timed(function, cells, key):
    """``function`` adding the CPU time of each call to ``cells[key]``."""
    clock = time.thread_time_ns

    def wrapper(*args, **kwargs):
        start = clock()
        try:
            return function(*args, **kwargs)
        finally:
            cells[key] += clock() - start
    return wrapper


def one_pass(texts):
    """CPU ns per ``(grammar, layer)`` cell, ``lex``, ``other`` and
    ``total`` of one fresh extractor's pass over ``texts``."""
    from yargy_ray.stages.extract import MentionExtractor
    extractor = MentionExtractor()
    cells = {'lex': 0}
    extractor.lex = timed(extractor.lex, cells, 'lex')
    for spec, parser, _ in extractor.parsers:
        for layer in LAYERS:
            cells[spec.name, layer] = 0
            method = getattr(parser, METHODS[layer])
            setattr(parser, METHODS[layer],
                    timed(method, cells, (spec.name, layer)))
    hits = extractor.hits
    start = time.thread_time_ns()
    for text in texts:
        hits(text)
    cells['total'] = time.thread_time_ns() - start
    cells['other'] = cells['total'] - sum(
        value for key, value in cells.items() if key != 'total')
    return cells


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--seed', type=int, default=7, help='corpus seed')
    parser.add_argument('--corpus', choices=('distinct', 'repeat'),
                        default='distinct')
    parser.add_argument('--passes', type=int, default=3)
    parser.add_argument('--corpus-dir',
                        help='a corpus directory already written')
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        corpus = args.corpus_dir
        if corpus is None:
            from kernel_ab import write_corpus
            corpus = write_corpus(tmp, args.seed, args.corpus)
        texts = read_texts(corpus)
    from yargy_ray.stages.extract import MentionExtractor
    warm = MentionExtractor()
    for text in texts:
        warm.hits(text)
    passes = [one_pass(texts) for _ in range(args.passes)]
    best = {key: min(p[key] for p in passes) / 1e9 for key in passes[0]}
    names = [spec.name for spec in warm.specs]
    label = args.corpus_dir or f'seed {args.seed}, {args.corpus} corpus'
    print(f'{label}: {len(texts)} turns, CPU s, best of {args.passes}')
    print(f'{"grammar":<10}' + ''.join(f'{layer:>14}' for layer in LAYERS)
          + f'{"sum":>10}')
    for name in names:
        row = [best[name, layer] for layer in LAYERS]
        print(f'{name:<10}' + ''.join(f'{v:>14.3f}' for v in row)
              + f'{sum(row):>10.3f}')
    sums = [sum(best[name, layer] for name in names) for layer in LAYERS]
    print(f'{"all":<10}' + ''.join(f'{v:>14.3f}' for v in sums)
          + f'{sum(sums):>10.3f}')
    print(f'lex {best["lex"]:.3f}  other {best["other"]:.3f}  '
          f'total {best["total"]:.3f}')


if __name__ == '__main__':
    main()

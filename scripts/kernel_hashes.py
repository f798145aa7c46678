"""Fingerprints of the extraction kernel's output on the benchmark corpora.

A kernel change that keeps the parser's semantics must leave every line
this prints unchanged. Run it at two commits and diff the output:

    python scripts/kernel_hashes.py                  # seeds 7 and 42
    python scripts/kernel_hashes.py --seed 7

For each seed it builds both benchmark corpora with ``perfbench.corpus``
(``repeat``: the corpus as generated; ``distinct``: without turns whose
text appeared earlier) and prints, per corpus:

* sha256 of the in-process ``MentionExtractor`` rows and of the
  ``TripleExtractor`` rows (every triple occurrence), in input order;
* ``projected``: sha256 of the mention rows projected by
  ``TripleProjector`` with their ``tkey`` appended, batch by batch; the
  fused extractor must give these very rows, so it equals ``triples``;
* ``distinct``: sha256 of the sorted distinct (subj, pred, obj) set of
  the ``TripleExtractor`` rows;
* per shipped grammar, the chart states pushed over the charts the
  extractor really builds (a standalone ``Parser`` per grammar; like
  ``Parser.findall_tokens``, a turn whose union token mask misses one
  of the parser's required bit sets gets no chart), the charts that
  overflowed, and the number of ``StateOverflow`` capped rows in the
  mention output;
* per shipped grammar, ``findall``: sha256 of that standalone parser's
  ``findall_tokens`` rows in input order (char span, token values and
  the ``fact_payload`` of ``Match.fact`` as JSON, or ``TypeError``),
  the public match API beside the extractor's fused path.

Writing the corpora starts a two-CPU local Ray (stopped at the end):
the files' layout, and so the batches and the triple hash, depend on
Ray's CPU count. Extraction and charting run in this process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import pyarrow.parquet as pq  # noqa: E402

from perfbench.corpus import (  # noqa: E402
    generate,
    keep_first_texts,
    parquet_files,
)
from yargy_ray.grammars import build_specs  # noqa: E402
from yargy_ray.kernel import Parser, StateOverflow  # noqa: E402
from yargy_ray.kernel.tokenizer import MorphTokenizer  # noqa: E402
from yargy_ray.pipelines.kg import TripleExtractor, _triple_key  # noqa: E402
from yargy_ray.stages.exchange import _hash64  # noqa: E402
from yargy_ray.stages.extract import (  # noqa: E402
    CAPPED_RULE,
    MentionExtractor,
    TripleProjector,
    fact_payload,
)

BATCH_ROWS = 256


def batches(path):
    for name in parquet_files(path):
        table = pq.read_table(name)
        for offset in range(0, table.num_rows, BATCH_ROWS):
            yield table.slice(offset, BATCH_ROWS)


def table_digest(digest, table):
    for row in zip(*(col.to_pylist() for col in table.columns)):
        digest.update(json.dumps(row, ensure_ascii=False).encode())
        digest.update(b'\n')


def match_row(match):
    try:
        payload = json.dumps(fact_payload(match.fact), ensure_ascii=False,
                             sort_keys=True)
    except TypeError:
        payload = 'TypeError'
    return (match.span.start, match.span.stop,
            [t.value for t in match.tokens], payload)


def chart_states(path):
    """Pushed chart states and overflows per grammar, over the charts
    ``findall_tokens`` builds, and the row count and sha256 of each
    grammar's ``findall_tokens`` rows."""
    tokenizer = MorphTokenizer()
    grammars = [(spec.name, Parser(spec.rule, tokenizer=tokenizer,
                                   max_states=spec.max_states))
                for spec in build_specs()]
    states = {name: 0 for name, _ in grammars}
    overflows = {name: 0 for name, _ in grammars}
    found = {name: [0, hashlib.sha256()] for name, _ in grammars}
    for batch in batches(path):
        for text in batch.column('text').to_pylist():
            tokens = list(tokenizer(text))
            for name, parser in grammars:
                masks = parser.space.masks(tokens)
                if not all(masks[1] & bits for bits in parser._required):
                    continue
                try:
                    columns = parser._chart_tokens(tokens, masks=masks)
                except StateOverflow:
                    overflows[name] += 1
                    continue
                states[name] += sum(map(len, columns))
                for match in parser.findall_tokens(tokens, masks):
                    found[name][0] += 1
                    found[name][1].update(json.dumps(
                        match_row(match), ensure_ascii=False).encode())
                    found[name][1].update(b'\n')
    return states, overflows, found


def corpus_lines(path):
    mentions, triples = hashlib.sha256(), hashlib.sha256()
    projected = hashlib.sha256()
    capped, spo = {}, set()
    n_mentions = n_triples = n_projected = 0
    extract, fused = MentionExtractor(), TripleExtractor()
    project = TripleProjector()
    for batch in batches(path):
        rows = extract(batch)
        n_mentions += rows.num_rows
        table_digest(mentions, rows)
        out = project(rows)
        out = out.append_column('tkey', _hash64(_triple_key(out)))
        n_projected += out.num_rows
        table_digest(projected, out)
        for rule, payload in zip(rows.column('rule').to_pylist(),
                                 rows.column('fact_json').to_pylist()):
            if rule == CAPPED_RULE:
                name = json.loads(payload)['grammar']
                capped[name] = capped.get(name, 0) + 1
        out = fused(batch)
        n_triples += out.num_rows
        table_digest(triples, out)
        spo.update(zip(*(out.column(name).to_pylist()
                         for name in ('subj', 'pred', 'obj'))))
    yield f'mentions {n_mentions} {mentions.hexdigest()}'
    yield f'triples {n_triples} {triples.hexdigest()}'
    yield f'projected {n_projected} {projected.hexdigest()}'
    distinct = hashlib.sha256()
    for row in sorted(spo):
        distinct.update(json.dumps(row, ensure_ascii=False).encode())
        distinct.update(b'\n')
    yield f'distinct {len(spo)} {distinct.hexdigest()}'
    states, overflows, found = chart_states(path)
    for name in states:
        yield (f'grammar {name} states={states[name]} '
               f'overflows={overflows[name]} capped={capped.get(name, 0)}')
    for name, (count, sha) in found.items():
        yield f'findall {name} {count} {sha.hexdigest()}'


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--seed', type=int, action='append',
                        help='corpus seed (repeatable; default 7 and 42)')
    args = parser.parse_args(argv)
    import ray
    ray.init(address='local', num_cpus=2, include_dashboard=False,
             log_to_driver=False, logging_level='ERROR')
    try:
        for seed in args.seed or (7, 42):
            with tempfile.TemporaryDirectory() as tmp:
                repeat = os.path.join(tmp, 'repeat')
                distinct = os.path.join(tmp, 'distinct')
                generate(repeat, seed)
                keep_first_texts(repeat, distinct)
                for corpus, path in (('repeat', repeat),
                                     ('distinct', distinct)):
                    for line in corpus_lines(path):
                        print(f'seed={seed} {corpus} {line}', flush=True)
    finally:
        ray.shutdown()


if __name__ == '__main__':
    main()

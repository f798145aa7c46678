"""End-to-end example: a custom user grammar, distributed over Parquet.

What a reference (natasha/yargy) user writes today, re-expressed on
this engine — the grammar DSL is the same surface (imported via the
1:1 compat layer), and the execution becomes a streaming Ray Data
pipeline instead of a per-string Python loop.

Run:  python examples/custom_grammar_pipeline.py
"""

import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# -- 1. the grammar: identical to how the reference user writes it ---------
from yargy_ray.compat import Parser, and_, rule  # noqa: E402
from yargy_ray.compat.interpretation import fact  # noqa: E402
from yargy_ray.compat.predicates import caseless, eq, gte, lte, type  # noqa: E402,A004

Ticket = fact('Ticket', ['project', 'number'])

PROJECT = caseless('proj').interpretation(Ticket.project.custom(str.upper))
NUMBER = and_(type('INT'), gte(1), lte(99999)).interpretation(
    Ticket.number.custom(int))
TICKET = rule(PROJECT, eq('-'), NUMBER).interpretation(Ticket)


def ticket_triples(payload, conv_id, turn_idx):
    """fact dict -> (subj, pred, obj) rows with provenance."""
    number = payload.get('number')
    if number is None:
        return []
    return [(f'{conv_id}:{turn_idx}', 'mentions_ticket',
             f'{payload.get("project", "?")}-{number}')]


def ticket_grammar():
    """Factory (top-level, picklable by dotted path) for the workers."""
    from yargy_ray.grammars.specs import GrammarSpec
    return GrammarSpec('ticket', TICKET, ticket_triples, gate=r'(?i)proj')


def serial_demo():
    """The reference-style usage: one string at a time."""
    parser = Parser(TICKET)
    match = parser.find('сначала посмотри Proj - 1432 потом остальное')
    print('serial match:', match.fact.as_json)


def distributed_demo():
    """The engine-style usage: the SAME grammar over a Parquet corpus."""
    import ray
    if not ray.is_initialized():
        ray.init(address='local', num_cpus=4, include_dashboard=False,
                 log_to_driver=False)
    import ray.data
    import pyarrow as pa

    # a tiny corpus in the transcripts schema
    corpus = '/tmp/yargy_ray_example/turns'
    shutil.rmtree(corpus, ignore_errors=True)
    os.makedirs(corpus)
    rows = [
        {'conv_id': 'c1', 'turn_idx': 0, 'text': 'начнем с proj - 7'},
        {'conv_id': 'c1', 'turn_idx': 1, 'text': 'ничего интересного'},
        {'conv_id': 'c2', 'turn_idx': 0, 'text': 'см. Proj - 1432 и proj - 8'},
    ]
    import pyarrow.parquet as pq
    pq.write_table(pa.Table.from_pylist(rows), f'{corpus}/part-0.parquet')

    from yargy_ray.pipelines.kg import distinct_triples

    factories = ('examples.custom_grammar_pipeline:ticket_grammar',)
    turns = ray.data.read_parquet(corpus)
    triples = distinct_triples(turns, factories, concurrency=2)
    out = sorted((r['subj'], r['pred'], r['obj'])
                 for r in triples.iter_rows())
    print('distributed triples:')
    for row in out:
        print('  ', row)
    assert ('c2:0', 'mentions_ticket', 'PROJ-1432') in out
    ray.shutdown()


if __name__ == '__main__':
    serial_demo()
    distributed_demo()

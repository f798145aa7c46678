"""The traced run: one span around each call into a layer's public
functions, with the Ray stages materialized between spans so each
stage's time can be read on its own.

Span names are the layer metric prefixes of BENCHMARK.json. The kernel
layers run in this process over the workload's turns in batch order;
the Ray stages run on the session's cluster.
"""

from __future__ import annotations

import json
import os
import re

import pyarrow as pa
import pyarrow.parquet as pq

from perfbench import corpus

BATCH_SIZE = 256
READ_COLUMNS = ['conv_id', 'turn_idx', 'text']


def read_turns(input_dir, cpus):
    import ray.data
    return ray.data.read_parquet(input_dir, columns=READ_COLUMNS,
                                 override_num_blocks=cpus * 8)


def headline(input_dir, out_dir, cpus, pool):
    """The untraced headline job: read -> fused TripleExtractor pool ->
    exchange + dedup -> parquet write, streaming end to end."""
    from yargy_ray.pipelines.kg import dedup_triples, extract_triples

    triples = extract_triples(read_turns(input_dir, cpus), concurrency=pool,
                              batch_size=BATCH_SIZE)
    deduped = dedup_triples(triples, prededuped=True, coalesce=cpus)
    deduped.drop_columns(['tkey']).write_parquet(out_dir)


def traced_headline(trace, input_dir, out_dir, cpus, pool):
    """The headline job with a span per stage; returns the deduped
    triples (with ``tkey``) for the node and edge stages."""
    from yargy_ray.pipelines.kg import dedup_triples, extract_triples

    with trace.span('job'):
        with trace.span('sources.read'):
            turns = read_turns(input_dir, cpus).materialize()
        with trace.span('pipelines.kg.extract_pool'):
            pooled = extract_triples(turns, concurrency=pool,
                                     batch_size=BATCH_SIZE).materialize()
        with trace.span('stages.exchange.dedup'):
            deduped = dedup_triples(pooled, prededuped=True,
                                    coalesce=cpus).materialize()
        with trace.span('pipelines.kg.write'):
            deduped.drop_columns(['tkey']).write_parquet(out_dir)
    trace.count('sources.read.rows', turns.count())
    trace.count('sources.read.bytes', corpus.dir_bytes(input_dir))
    trace.count('stages.exchange.dedup.rows_in', pooled.count())
    trace.count('stages.exchange.dedup.rows_out', deduped.count())
    trace.count('pipelines.kg.write.bytes', corpus.dir_bytes(out_dir))
    return deduped


def traced_nodes_edges(trace, deduped, nodes_dir, edges_dir):
    from yargy_ray.pipelines.kg import aggregate_edges, canonicalize_nodes

    with trace.span('pipelines.kg.nodes'):
        nodes = canonicalize_nodes(deduped).materialize()
    with trace.span('pipelines.kg.edges'):
        edges = aggregate_edges(deduped).materialize()
    nodes.write_parquet(nodes_dir)
    edges.write_parquet(edges_dir)


def _manifest_spans(trace, parent, manifests):
    """Child spans from the stage manifests' ``written_at`` stamps: the
    stages of one call run one after another, so each stage spans from
    the previous stamp to its own."""
    start = parent.start + trace.wall_offset
    for stage, manifest in manifests.items():
        trace.add_wall(f'{parent.name}.{stage}', start,
                       manifest['written_at'], parent)
        start = manifest['written_at']


def traced_build_merge(trace, base_dir, delta_dir, kg_dir, merged_dir, pool):
    from yargy_ray.pipelines.incremental import merge_kg_delta
    from yargy_ray.pipelines.kg import run_kg_pipeline

    with trace.span('pipelines.kg.build') as build:
        built = run_kg_pipeline(base_dir, kg_dir, concurrency=pool)
    _manifest_spans(trace, build, built)
    with trace.span('pipelines.incremental.merge') as merge:
        merged = merge_kg_delta(kg_dir, delta_dir, merged_dir,
                                concurrency=pool)
    _manifest_spans(trace, merge, merged)
    trace.count('pipelines.incremental.merge.touched_partitions',
                len(merged['triples']['appended_partitions']))


def input_batches(input_dir):
    """The input in read order, cut into the pool's batch size."""
    table = pa.concat_tables(
        pq.read_table(f, columns=READ_COLUMNS)
        for f in corpus.parquet_files(input_dir))
    return [table.slice(i, BATCH_SIZE)
            for i in range(0, table.num_rows, BATCH_SIZE)]


def _cold_morph_cache():
    """Empty the process-wide morphology LRU so a pass starts cold, as a
    fresh extraction actor does."""
    from yargy_ray.kernel.morpho import default_analyzer
    parse = getattr(default_analyzer(), '_parse', None)
    if hasattr(parse, 'cache_clear'):
        parse.cache_clear()


def kernel_passes(trace, batches):
    """Time each kernel layer in this process, one span per layer per
    batch, over every turn of the input in batch order."""
    from yargy_ray.grammars import build_specs
    from yargy_ray.kernel import (
        MorphTokenizer,
        Parser,
        StateOverflow,
        Tokenizer,
    )
    from yargy_ray.kernel.tokenizer import RU
    from yargy_ray.pipelines.kg import TripleExtractor
    from yargy_ray.stages.extract import fact_payload

    # single-process baseline: the fused extractor, cold, as one actor
    _cold_morph_cache()
    extractor = TripleExtractor()
    for batch in batches:
        with trace.span('stages.extract.single'):
            extractor(batch)
    # projection alone, fed by the (now memoized) mention extractor
    for batch in batches:
        mentions = extractor.extract(batch)
        with trace.span('stages.extract.project'):
            extractor.project(mentions)

    texts = [batch.column('text').to_pylist() for batch in batches]
    tokenizer = Tokenizer()
    n_tokens = 0
    for chunk in texts:
        with trace.span('kernel.tokenizer'):
            for text in chunk:
                n_tokens += len(list(tokenizer(text)))
    trace.count('kernel.tokenizer.tokens', n_tokens)

    _cold_morph_cache()
    morph = MorphTokenizer()
    tokens = []
    for chunk in texts:
        with trace.span('kernel.morph_tokenizer'):
            tokens.append([list(morph(text)) for text in chunk])
    trace.count('kernel.morpho.ru_tokens', sum(
        t.type == RU for chunk in tokens for toks in chunk for t in toks))

    parsers = []
    for spec in build_specs():
        gate = re.compile(spec.gate) if spec.gate else None
        parsers.append((Parser(spec.rule, tokenizer=morph,
                               max_states=spec.max_states), gate))
    matches = []
    attempts = passes = capped = 0
    for chunk, chunk_tokens in zip(texts, tokens):
        found = []
        with trace.span('kernel.earley'):
            for text, toks in zip(chunk, chunk_tokens):
                for parser, gate in parsers:
                    attempts += 1
                    if gate is not None and gate.search(text) is None:
                        continue
                    passes += 1
                    try:
                        found.extend(parser.findall_tokens(toks))
                    except StateOverflow:
                        capped += 1
        matches.append(found)
    trace.count('kernel.earley.gate_attempts', attempts)
    trace.count('kernel.earley.gate_passes', passes)
    trace.count('kernel.earley.capped', capped)
    trace.count('kernel.earley.matches', sum(map(len, matches)))

    facts = quarantined = 0
    for found in matches:
        with trace.span('kernel.interp'):
            for match in found:
                try:
                    json.dumps(fact_payload(match.fact), ensure_ascii=False,
                               sort_keys=True)
                    facts += 1
                except TypeError:
                    quarantined += 1
    trace.count('kernel.interp.facts', facts)
    trace.count('kernel.interp.quarantined', quarantined)


def layer_metrics(trace, untraced_wall, props, pool):
    """Every per-layer metric, by BENCHMARK.json name, with its unit."""
    busy = trace.busy
    counts = trace.counts
    turns = props['turns']
    pool_rate = turns / busy('pipelines.kg.extract_pool')
    single_rate = turns / busy('stages.extract.single')
    headline_layers = ('sources.read', 'pipelines.kg.extract_pool',
                       'stages.exchange.dedup', 'pipelines.kg.write')
    values = {
        'sources.read.busy_s': (busy('sources.read'), 's'),
        'sources.read.rows': (counts['sources.read.rows'], 'count'),
        'sources.read.bytes': (counts['sources.read.bytes'], 'B'),
        'kernel.tokenizer.busy_s': (busy('kernel.tokenizer'), 's'),
        'kernel.tokenizer.tokens': (counts['kernel.tokenizer.tokens'],
                                    'count'),
        'kernel.morpho.busy_s': (busy('kernel.morph_tokenizer') -
                                 busy('kernel.tokenizer'), 's'),
        'kernel.morpho.ru_tokens': (counts['kernel.morpho.ru_tokens'],
                                    'count'),
        'kernel.earley.busy_s': (busy('kernel.earley'), 's'),
        'kernel.earley.gate_attempts': (
            counts['kernel.earley.gate_attempts'], 'count'),
        'kernel.earley.gate_pass_share': (
            counts['kernel.earley.gate_passes'] /
            counts['kernel.earley.gate_attempts'], 'ratio'),
        'kernel.earley.matches': (counts['kernel.earley.matches'], 'count'),
        'kernel.earley.capped': (counts['kernel.earley.capped'], 'count'),
        'kernel.interp.busy_s': (busy('kernel.interp'), 's'),
        'kernel.interp.facts': (counts['kernel.interp.facts'], 'count'),
        'kernel.interp.quarantined': (counts['kernel.interp.quarantined'],
                                      'count'),
        'stages.extract.project.busy_s': (busy('stages.extract.project'),
                                          's'),
        'stages.extract.single_turns_per_s': (single_rate, 'turns/s'),
        'stages.extract.repeat_text_share': (props['repeat_text_share'],
                                             'ratio'),
        'pipelines.kg.extract_pool.busy_s': (
            busy('pipelines.kg.extract_pool'), 's'),
        'pipelines.kg.extract_pool.turns_per_s': (pool_rate, 'turns/s'),
        'pipelines.kg.ray_overhead': (single_rate * pool / pool_rate,
                                      'ratio'),
        'pipelines.kg.write.busy_s': (busy('pipelines.kg.write'), 's'),
        'pipelines.kg.write.bytes': (counts['pipelines.kg.write.bytes'],
                                     'B'),
        'pipelines.kg.nodes.busy_s': (busy('pipelines.kg.nodes'), 's'),
        'pipelines.kg.edges.busy_s': (busy('pipelines.kg.edges'), 's'),
        'pipelines.kg.build.busy_s': (busy('pipelines.kg.build'), 's'),
        'stages.exchange.dedup.busy_s': (busy('stages.exchange.dedup'), 's'),
        'stages.exchange.dedup.rows_in': (
            counts['stages.exchange.dedup.rows_in'], 'count'),
        'stages.exchange.dedup.rows_out': (
            counts['stages.exchange.dedup.rows_out'], 'count'),
        'pipelines.incremental.merge.busy_s': (
            busy('pipelines.incremental.merge'), 's'),
        'pipelines.incremental.merge.touched_partitions': (
            counts['pipelines.incremental.merge.touched_partitions'],
            'count'),
        'layers.coverage': (sum(busy(n) for n in headline_layers) /
                            untraced_wall, 'ratio'),
        'trace.overhead': (busy('job') / untraced_wall, 'ratio'),
    }
    return {name: {'value': value, 'unit': unit}
            for name, (value, unit) in values.items()}


def trace_path(root, workload, seed):
    out = os.path.join(root, '.perfbench_out')
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, f'trace-{workload}-seed{seed}.json')

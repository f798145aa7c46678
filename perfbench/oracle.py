"""Output check against the repository's DuckDB template oracle.

The oracle re-derives every triple from the corpus text with regexes
(``__ray_entry__._triples_cte``) and builds nodes and edges with the
``kg_nodes`` / ``kg_edges`` SQL — no code of the extraction kernel runs.
The KG build materializes nodes and edges from the *deduplicated*
triples, while those two oracles count every occurrence, so the trip
CTE is narrowed to ``SELECT DISTINCT subj, pred, obj`` first.

Only deterministic columns are compared; the provenance columns of a
dedup survivor (conv_id, turn_idx, rule, span) are advisory.
"""

from __future__ import annotations

import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

COLUMNS = {
    'triples': ('subj', 'pred', 'obj'),
    'nodes': ('node_id', 'kind', 'norm', 'degree'),
    'edges': ('src', 'dst', 'pred', 'weight'),
}
_TRIP_CTE = '), trip AS ('


def oracle_sql(corpus_glob):
    """kg_triples / kg_nodes / kg_edges oracle SQL over ``corpus_glob``
    with the triple CTE narrowed to distinct triples. The oracle module
    is pointed at the corpus for the duration of the call only."""
    import __ray_entry__ as entry

    saved = entry._transcript_glob, entry._triples_cte
    entry._transcript_glob = lambda: corpus_glob
    try:
        every = saved[1]()
        if every.count(_TRIP_CTE) != 1:
            raise RuntimeError('oracle triple CTE changed shape')
        distinct = (every.replace(_TRIP_CTE, '), trip_all AS (') + ', trip AS '
                    '(SELECT DISTINCT subj, pred, obj FROM trip_all)')
        entry._triples_cte = lambda: distinct
        sql = entry._oracle_sql_dict()
    finally:
        entry._transcript_glob, entry._triples_cte = saved
    return {'triples': sql['kg_triples'], 'nodes': sql['kg_nodes'],
            'edges': sql['kg_edges']}


class Oracle:
    """Expected tables for one corpus, materialized once in DuckDB;
    :meth:`mismatches` compares a written output directory to them."""

    def __init__(self, con, name, corpus_dir, tables=('triples',)):
        self.con = con
        self.name = name
        sql = oracle_sql(os.path.join(corpus_dir, '**', '*.parquet'))
        for table in tables:
            con.execute(f'CREATE OR REPLACE TABLE {name}_{table} AS '
                        f'SELECT {", ".join(COLUMNS[table])} '
                        f'FROM ({sql[table]})')

    def rows(self, table):
        return self.con.execute(
            f'SELECT count(*) FROM {self.name}_{table}').fetchone()[0]

    def mismatches(self, table, out_dir):
        """Rows missing from plus rows extra in the written output, as
        multisets: a duplicated triple is a mismatch too."""
        cols = ', '.join(COLUMNS[table])
        written = (f"SELECT {cols} FROM read_parquet("
                   f"'{out_dir}/**/*.parquet', hive_partitioning = false)")
        expected = f'SELECT {cols} FROM {self.name}_{table}'
        missing, = self.con.execute(
            f'SELECT count(*) FROM ({expected} EXCEPT ALL {written})'
        ).fetchone()
        extra, = self.con.execute(
            f'SELECT count(*) FROM ({written} EXCEPT ALL {expected})'
        ).fetchone()
        return missing + extra


def _corrupt(out_dir, table, mode):
    """Drop the first row of the first non-empty file, or change its
    last compared column."""
    for root, _, files in sorted(os.walk(out_dir)):
        for name in sorted(files):
            path = os.path.join(root, name)
            if not name.endswith('.parquet'):
                continue
            data = pq.ParquetFile(path).read()
            if data.num_rows == 0:
                continue
            if mode == 'drop':
                data = data.slice(1)
            else:
                col = COLUMNS[table][-1]
                i = data.schema.get_field_index(col)
                old = data.column(col)
                new = (pc.add(old, 1) if pa.types.is_integer(old.type)
                       else pc.binary_join_element_wise(old, '#', ''))
                data = data.set_column(i, col, new)
            pq.write_table(data, path)
            return
    raise RuntimeError(f'no rows to corrupt in {out_dir}')


def self_test(oracle, outputs, scratch):
    """Corrupt a copy of each written table once per mode and report
    whether the check flagged it. ``outputs`` maps table -> directory."""
    flagged = {}
    for table, out_dir in outputs.items():
        for mode in ('drop', 'alter'):
            copy = os.path.join(scratch, f'{table}-{mode}')
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(out_dir, copy)
            _corrupt(copy, table, mode)
            flagged[f'{table}.{mode}'] = oracle.mismatches(table, copy) > 0
            shutil.rmtree(copy)
    return flagged

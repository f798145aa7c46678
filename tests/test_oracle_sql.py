"""Differential tests: the DuckDB oracle SQL in __ray_entry__ must
reproduce the Python stage outputs bit-for-bit on adversarial inputs —
not just on the well-behaved synthetic corpora the driver uses.

Covers the shared HUGEINT mod-2**64 arithmetic (_gram_hash_ctes /
_mulmod64_sql) and the three hash-oracle pipelines built on it:
rolling_fingerprint, simhash_pairs, minhash_pairs.
"""

import os
import sys

import duckdb
import pyarrow as pa
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import __ray_entry__ as entrymod  # noqa: E402

# empty text, sub-window text, 1 char, whitespace, exact dups, a
# planted near-dup pair, mixed scripts, and non-BMP codepoints (the
# utf-32 codepoint path must agree with DuckDB's unicode())
ADVERSARIAL_TEXTS = [
    '',
    'a',
    '   ',
    'кот',                       # shorter than every window size
    'Привет МИР! ' * 10,
    'Привет МИР! ' * 10,          # exact duplicate -> sim 1.0 pair
    'привет мир! ' * 10,          # case-folded duplicate
    'the quick brown fox jumps over the lazy dog ' * 4,
    'the quick brown fox jumps over the lazy dgo ' * 4,   # near-dup
    'emoji 🎉🚀 and beyond-BMP 𝔘𝔫𝔦𝔠𝔬𝔡𝔢 text here',
    'ß ẞ SS ss',                 # lower() edge cases
    'x' * 500,                   # degenerate: one repeated char
]


def _docs_table():
    return pa.table({
        'doc_id': pa.array(range(len(ADVERSARIAL_TEXTS)), type=pa.int64()),
        'text': pa.array(ADVERSARIAL_TEXTS, type=pa.string()),
    })


def _run_oracle(sql, tbl):
    con = duckdb.connect()
    con.register('documents', tbl)
    return con.sql(sql).df()


def test_rolling_fingerprint_oracle_adversarial():
    from yargy_ray.stages.text import rolling_fingerprint_batch
    tbl = _docs_table()
    py = rolling_fingerprint_batch(tbl).to_pandas().set_index('doc_id')
    sql = _run_oracle(entrymod._rfp_oracle_sql(), tbl).set_index('doc_id')
    assert len(py) == len(sql)
    for doc_id in py.index:
        assert py.loc[doc_id, 'rfp'] == sql.loc[doc_id, 'rfp'], doc_id


def test_simhash_oracle_adversarial(ray_session):
    import ray.data
    from yargy_ray.stages.dedup import simhash_near_dups
    tbl = _docs_table()
    py = (simhash_near_dups(ray.data.from_arrow(tbl), max_hamming=3)
          .to_pandas().sort_values(['a', 'b']).reset_index(drop=True))
    sql = (_run_oracle(entrymod._simhash_oracle_sql(), tbl)
           .sort_values(['a', 'b']).reset_index(drop=True))
    # the dup/near-dup plants guarantee a non-trivial comparison
    assert len(py) >= 1
    assert py[['a', 'b', 'hamming']].equals(sql[['a', 'b', 'hamming']])


def test_minhash_oracle_adversarial(ray_session):
    import ray.data
    from yargy_ray.stages.dedup import minhash_near_dups
    tbl = _docs_table()
    py = (minhash_near_dups(ray.data.from_arrow(tbl), threshold=0.6)
          .to_pandas().sort_values(['a', 'b']).reset_index(drop=True))
    sql = (_run_oracle(entrymod._minhash_oracle_sql(), tbl)
           .sort_values(['a', 'b']).reset_index(drop=True))
    assert len(py) >= 1
    assert list(py['a']) == list(sql['a'])
    assert list(py['b']) == list(sql['b'])
    assert (py['sim'] - sql['sim']).abs().max() == 0.0


@pytest.mark.parametrize('text', ADVERSARIAL_TEXTS[:1] + ADVERSARIAL_TEXTS[3:5])
def test_gram_hash_cte_matches_numpy(text):
    """The shared CTE chain == char_gram_hashes for each window size."""
    import numpy as np
    from yargy_ray.stages.dedup import char_gram_hashes
    for k in (4, 5, 16):
        tbl = pa.table({'doc_id': pa.array([0], type=pa.int64()),
                        'text': pa.array([text], type=pa.string())})
        con = duckdb.connect()
        con.register('documents', tbl)
        rows = con.sql(
            f"WITH {entrymod._gram_hash_ctes(k)} "
            "SELECT hs FROM m5").fetchall()
        got = [int(v) % 2**64 for v in rows[0][0]]
        exp = [int(v) for v in char_gram_hashes(text, k)]
        if not text:
            # SQL pads empty text with a [0] sentinel; Python returns []
            assert got == [0] and exp == []
        else:
            assert got == exp, (k, text)


@pytest.mark.parametrize('seed', [0, 1, 2])
def test_asof_join_matches_duckdb(ray_session, seed):
    """Randomized differential: asof_join == DuckDB ASOF LEFT JOIN on
    random keys/timestamps including ties and keys with no right rows."""
    import numpy as np
    import ray.data

    from yargy_ray.stages.joins import asof_join

    rng = np.random.RandomState(seed)
    nl, nr = 120, 60
    left = pa.table({
        'id': pa.array(range(nl), type=pa.int64()),
        'k': pa.array(rng.randint(0, 8, nl), type=pa.int64()),
        't': pa.array(rng.randint(0, 50, nl), type=pa.int64()),
    })
    # unique (k, t) on the right (operator contract)
    pairs = {(int(k), int(t)) for k, t in
             zip(rng.randint(0, 6, nr), rng.randint(0, 50, nr))}
    ks, ts = zip(*sorted(pairs))
    right = pa.table({
        'k': pa.array(ks, type=pa.int64()),
        't': pa.array(ts, type=pa.int64()),
        'v': pa.array([float(10 * k + t % 7) for k, t in zip(ks, ts)]),
    })
    got = (asof_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                     by='k', on='t', num_partitions=4)
           .to_pandas().sort_values('id').reset_index(drop=True))

    con = duckdb.connect()
    con.register('l', left)
    con.register('r', right)
    exp = con.sql("""
        SELECT l.id, l.k, l.t, r.v AS v_r
        FROM l ASOF LEFT JOIN r ON l.k = r.k AND l.t >= r.t
        ORDER BY l.id
    """).df().reset_index(drop=True)
    assert got['id'].tolist() == exp['id'].tolist()
    import pandas as pd
    pd.testing.assert_series_equal(got['v_r'], exp['v_r'],
                                   check_names=False)


@pytest.mark.parametrize('seed', [0, 1])
def test_sessionize_matches_duckdb(ray_session, seed):
    """Randomized differential with deliberate ts collisions — the
    (ts, event_id) tie-break must agree with the SQL window order."""
    import numpy as np
    import ray.data

    from yargy_ray.stages.windows import sessionize

    rng = np.random.RandomState(seed)
    n = 400
    base = np.datetime64('2024-01-01T00:00:00', 'us')
    # coarse 10-minute grid forces many equal timestamps per user
    ts = base + (rng.randint(0, 60, n) * 600).astype('timedelta64[s]')
    events = pa.table({
        'user_id': pa.array(rng.randint(0, 5, n), type=pa.int64()),
        'event_id': pa.array(rng.permutation(n), type=pa.int64()),
        'ts': pa.array(ts.astype('datetime64[us]')),
        'value': pa.array(np.ones(n)),
    })
    got = (sessionize(ray.data.from_arrow(events), num_partitions=4)
           .to_pandas()
           .sort_values(['user_id', 'session_id']).reset_index(drop=True))

    con = duckdb.connect()
    con.register('events', events)
    exp = con.sql("""
        WITH marked AS (
            SELECT user_id, event_id, ts, value,
                   CASE WHEN ts - LAG(ts) OVER w > INTERVAL 30 MINUTE
                             OR LAG(ts) OVER w IS NULL
                        THEN 1 ELSE 0 END AS is_new
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        ), numbered AS (
            SELECT *, CAST(SUM(is_new) OVER (
                PARTITION BY user_id ORDER BY ts, event_id
                ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_id
            FROM marked
        )
        SELECT user_id, session_id, COUNT(*) AS n_events,
               MIN(ts) AS start_ts, MAX(ts) AS end_ts,
               SUM(value) AS sum_value
        FROM numbered GROUP BY user_id, session_id
        ORDER BY user_id, session_id
    """).df().reset_index(drop=True)
    for col in ('user_id', 'session_id', 'n_events'):
        assert got[col].tolist() == exp[col].tolist(), col
    assert (got['sum_value'] - exp['sum_value']).abs().max() == 0.0
    assert got['start_ts'].tolist() == exp['start_ts'].tolist()
    assert got['end_ts'].tolist() == exp['end_ts'].tolist()


def test_orders_rollup_empty_matches_oracle(ray_session, tmp_path):
    """On an empty ``orders`` table ROLLUP still returns the grand-total
    row: null sum, ``n_rows=0``, ``lvl=3`` — the same row as the oracle
    SQL."""
    import pyarrow.parquet as pq

    orders = pa.table({
        'o_orderpriority': pa.array([], type=pa.string()),
        'o_orderstatus': pa.array([], type=pa.string()),
        'o_totalprice': pa.array([], type=pa.float64()),
    })
    pq.write_table(orders, tmp_path / 'orders.parquet')
    con = duckdb.connect()
    con.register('orders', orders)
    sql = con.sql(entrymod.oracle_sql()['orders_rollup']).fetchall()
    got = entrymod.q_orders_rollup(str(tmp_path)).take_all()
    assert sql == [(None, None, None, 0, 3)]
    assert [tuple(r.values()) for r in got] == sql

"""Triple identity is exact, never 64-bit-hash-probable (VERDICT r03 #1).

The dedup family uses ``tkey = hash64(subj|pred|obj)`` ONLY to route
rows to partitions; survival is decided on the full (subj, pred, obj)
values. These tests give distinct triples one ``tkey`` and hand-build
anti-join partitions to prove that distinct triples
sharing a hash both survive, and that the incremental merge never
discards a genuinely-new fact.

Pure in-process tests (no Ray): they call the map/reduce functions the
distributed operators are built from.
"""

import pyarrow as pa

from yargy_ray.pipelines import kg
from yargy_ray.pipelines.incremental import new_only


def _triples(rows):
    n = len(rows)
    return pa.table({
        'subj': pa.array([r[0] for r in rows], pa.string()),
        'pred': pa.array([r[1] for r in rows], pa.string()),
        'obj': pa.array([r[2] for r in rows], pa.string()),
        'conv_id': pa.array(['c'] * n, pa.string()),
        'turn_idx': pa.array([0] * n, pa.int32()),
        'rule': pa.array(['r'] * n, pa.string()),
        'span_start': pa.array([0] * n, pa.int32()),
        'span_stop': pa.array([1] * n, pa.int32()),
    })


def _spo(table):
    return sorted(zip(table.column('subj').to_pylist(),
                      table.column('pred').to_pylist(),
                      table.column('obj').to_pylist()))


def test_dedup_block_survives_colliding_tkeys():
    # the partition reduce sees same-tkey rows (that's what routing
    # guarantees); distinct triples among them must all survive
    t = _triples([('a', 'p', 'x'), ('b', 'p', 'y'),
                  ('a', 'p', 'x'), ('c', 'q', 'z')])
    t = t.append_column('tkey', pa.array([7, 7, 7, 7], pa.int64()))
    out = kg._dedup_block(t)
    assert _spo(out) == [('a', 'p', 'x'), ('b', 'p', 'y'),
                         ('c', 'q', 'z')]


def test_exact_first_indices_is_global_across_chunks():
    # per-chunk dictionary codes are NOT comparable; the helper must
    # combine chunks first, or a value repeated across chunks would
    # survive twice (or shadow a distinct one)
    key = pa.chunked_array([pa.array(['k1', 'k2']),
                            pa.array(['k1', 'k3'])])
    idx = kg._exact_first_indices(key).to_pylist()
    assert idx == [0, 1, 3]


def test_incremental_anti_join_compares_values_not_hashes():
    # one co-located partition: its base rows and its delta rows. The
    # delta carries an exact duplicate of a base triple AND a distinct
    # same-subject triple — only the true duplicate drops.
    base = _triples([('a', 'p', 'x'), ('a', 'p', 'y')])
    delta = _triples([('a', 'p', 'x'), ('a', 'p', 'z'),
                      ('b', 'q', 'w')])
    out = new_only(base.select(['subj', 'pred', 'obj']), delta)
    assert _spo(out) == [('a', 'p', 'z'), ('b', 'q', 'w')]
    assert out.schema == delta.schema


def test_incremental_anti_join_empty_base_side():
    delta = _triples([('a', 'p', 'x')])
    # a partition with no base rows: a 0-row base with its columns, or
    # (base empty everywhere) one with no columns at all
    for base in (_triples([]), pa.table({})):
        out = new_only(base, delta)
        assert _spo(out) == [('a', 'p', 'x')]
        assert out.schema == delta.schema

"""The exchange's routing rules, layout partition, sorted and
partitioned reduces (one call per sorted block, one per partition),
sum reduce, two-sided ``cogroup`` (``stages/exchange.py``) and which
occurrence the triple dedup keeps, plus the layering rules
that keep the operator layer free of pipeline imports and keep
two-sided routing inside the exchange.

In-process where possible: the tests call the per-batch functions the
distributed operators map over every block.
"""

import ast
import pathlib
import uuid

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from yargy_ray.stages.exchange import (
    _ipc,
    _packer,
    _sum_groups,
    check_layout,
    cogroup,
    layout_partition,
    partition_ids,
    partitioned_reduce,
    sorted_reduce,
    sum_by,
)

# layout partition ids for P = 16 that existing KG bases were written
# with: if they change, merging a delta into such a base routes rows to
# the wrong partitions
LAYOUT_P16 = {
    '': 14,
    'a': 14,
    'conv-00000019': 0,
    'turn:conv-00000001:3': 9,
    'Иван Петров': 1,
    'генеральный директор': 1,
    'дедлайн 2005-05-10': 15,
    '\x1f': 10,
    'ёжик': 14,
}


def test_layout_partition_is_pinned():
    keys = list(LAYOUT_P16)
    got = layout_partition(pa.array(keys, pa.string()), 16).to_pylist()
    assert dict(zip(keys, got)) == LAYOUT_P16


def test_string_routing_equals_layout_partition():
    # hash64 is non-negative, so mod P == & (P-1) for a power-of-two P:
    # a reduce routed on the layout key sees whole layout partitions
    keys = pa.array(list(LAYOUT_P16), pa.string())
    for p in (1, 2, 16, 64):
        got = partition_ids(pa.table({'k': keys}), 'k', p)
        assert got.to_pylist() == layout_partition(keys, p).to_pylist()


@pytest.mark.parametrize('typ', [pa.int32(), pa.int64()])
def test_integer_keys_route_by_mod_p(typ):
    # integer keys are never re-hashed: the persisted connected-
    # components edges and the label exchange both rely on key mod P,
    # with the mathematical modulus for negative keys
    keys = [-17, -16, -5, -1, 0, 1, 3, 15, 16, 2**30 + 3, -(2**30) - 3]
    for p in (1, 4, 16):
        got = partition_ids(pa.table({'k': pa.array(keys, typ)}), 'k', p)
        assert got.type == pa.int32()
        assert got.to_pylist() == [k % p for k in keys]


def test_null_integer_key_routes_to_partition_zero():
    # a null string key hashes to one fixed partition; a null integer
    # key goes to partition 0, so every row gets an id
    keys = pa.array([5, None, -3], pa.int64())
    got = partition_ids(pa.table({'k': keys}), 'k', 4)
    assert got.null_count == 0
    assert got.to_pylist() == [1, 0, 1]


def test_packer_packs_a_null_integer_key():
    # the map half of cogroup: a null id once failed its bincount
    packed = _packer(0, 'k', 4)(
        pa.table({'k': pa.array([1, None, 3], pa.int64())}))
    assert packed.column('cg_part').to_pylist() == [0, 1, 2, 3]
    tables = [pa.ipc.open_stream(rows.as_py()).read_all()
              for rows in packed.column('cg_rows')]
    assert sum(t.num_rows for t in tables) == 3
    assert tables[0].column('k').to_pylist() == [None]


def test_equal_multi_column_keys_share_a_partition():
    rows = [('a', 'x'), ('b', 'x'), ('a', 'y'), ('Ж', ''), ('', 'Ж')]
    # the same tuples, in another order and another batch
    first = pa.table({'s': [r[0] for r in rows], 't': [r[1] for r in rows]})
    second = pa.table({'s': [r[0] for r in rows[::-1]],
                       't': [r[1] for r in rows[::-1]]})
    ids_first = partition_ids(first, ['s', 't'], 64).to_pylist()
    ids_second = partition_ids(second, ['s', 't'], 64).to_pylist()
    assert dict(zip(rows, ids_first)) == dict(zip(rows[::-1], ids_second))
    # integer columns in a key list are cast to strings, then hashed
    mixed = pa.table({'u': pa.array([7, 7, 8], pa.int64()),
                      't': ['x', 'x', 'x']})
    ids = partition_ids(mixed, ['u', 't'], 64).to_pylist()
    assert ids[0] == ids[1]


SUM_FIXTURE = pa.table({
    'k': ['a', 'b', 'a', 'c', 'b', 'a', 'Ж'],
    'j': pa.array([1, 1, 1, 2, 1, 2, 1], pa.int64()),
    'v': pa.array([1, 2, 3, 4, 5, 6, 7], pa.int64()),
    'w': pa.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5], pa.float64()),
    'other': ['-'] * 7,
})


def _pandas_sum(table, keys, values):
    df = table.to_pandas()
    return (df.groupby(keys, as_index=False)[values].sum()
            .sort_values(keys).reset_index(drop=True))


def test_sum_groups_equals_pandas_group_by():
    got = _sum_groups(SUM_FIXTURE, ['k', 'j'], ['v', 'w'])
    assert got.column_names == ['k', 'j', 'v', 'w']
    got = got.to_pandas().sort_values(['k', 'j']).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got, _pandas_sum(SUM_FIXTURE, ['k', 'j'], ['v', 'w']))


def test_sum_groups_empty_input_keeps_schema():
    empty = SUM_FIXTURE.slice(0, 0)
    got = _sum_groups(empty, ['k', 'j'], ['v'])
    assert got.num_rows == 0
    assert got.schema == pa.schema([('k', pa.string()), ('j', pa.int64()),
                                    ('v', pa.int64())])


def test_sum_by_distributed_equals_pandas(ray_session):
    import ray.data
    ds = ray.data.from_arrow(
        [SUM_FIXTURE.slice(i, 2) for i in range(0, 7, 2)])
    got = sum_by(ds, ['k', 'j'], 'v', num_partitions=4).to_pandas()
    assert list(got.columns) == ['k', 'j', 'v']
    got = got.sort_values(['k', 'j']).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got, _pandas_sum(SUM_FIXTURE, ['k', 'j'], ['v']))


def _call_recorder():
    """A block function that returns, per distinct ``k`` of its call,
    one row: a fresh call id, the key, its row count, and the columns
    and distinct ``part`` values the call was handed. (Built in a
    function, so Ray ships it by value to workers that cannot import
    this test module.)"""
    def record(block: pa.Table) -> pa.Table:
        counts = pc.value_counts(block.column('k').combine_chunks())
        n = len(counts)
        parts = (sorted(set(block.column('part').to_pylist()))
                 if 'part' in block.column_names else [])
        return pa.table({
            'call': [uuid.uuid4().hex] * n,
            'k': counts.field('values'),
            'n': counts.field('counts'),
            'columns': [block.column_names] * n,
            'parts': [parts] * n,
        })
    return record


def _by_call(rows):
    calls = {}
    for r in rows:
        calls.setdefault(r['call'], []).append(r)
    return calls


# int64 keys with negatives and a null; key 7 holds 90% of the rows
SKEWED_KEYS = ([7] * 1800 + [-(2**40), -5, -1, 0, 1, 2**62, None]
               + [k % 97 - 48 for k in range(193)])


def _skewed_ds(blocks, keys=SKEWED_KEYS):
    import ray.data
    table = pa.table({'k': pa.array(keys, pa.int64()),
                      'v': pa.array(range(len(keys)), pa.int64())})
    # interleave the keys, so every input block holds some of each
    table = table.take(pc.sort_indices(pa.array(
        [(i * 7919) % len(keys) for i in range(len(keys))])))
    size = -(-table.num_rows // blocks)
    return ray.data.from_arrow(
        [table.slice(i, size) for i in range(0, table.num_rows, size)])


@pytest.mark.parametrize('coalesce', [1, 3])
def test_sorted_reduce_hands_each_key_to_one_call(ray_session, coalesce):
    rows = sorted_reduce(_skewed_ds(8), 'k', _call_recorder(),
                         coalesce=coalesce).take_all()
    calls = _by_call(rows)
    assert 1 <= len(calls) <= coalesce
    # every key, the null included, in exactly one call, with all rows
    keys = [r['k'] for r in rows]
    assert len(keys) == len(set(keys))
    expected = pd.Series(SKEWED_KEYS, dtype='Int64').value_counts(
        dropna=False)
    assert {r['k']: r['n'] for r in rows} == {
        (None if pd.isna(k) else int(k)): n for k, n in expected.items()}
    # the rows arrive as they are: no partition column is added
    assert all(r['columns'] == ['k', 'v'] for r in rows)


def test_partitioned_reduce_calls_once_per_partition(ray_session):
    # P=64 over 2 sorted blocks: a call never sees two partitions
    rows = partitioned_reduce(_skewed_ds(8), 'k', _call_recorder(),
                              num_partitions=64, coalesce=2).take_all()
    calls = _by_call(rows)
    assert all(len(c[0]['parts']) == 1 for c in calls.values())
    parts = [c[0]['parts'][0] for c in calls.values()]
    assert len(parts) == len(set(parts))
    # a null key routes to partition 0, with key 0
    assert set(parts) == {
        0 if k is None else k % 64 for k in SKEWED_KEYS}
    assert all(r['columns'] == ['k', 'v', 'part'] for r in rows)
    assert sum(r['n'] for r in rows) == len(SKEWED_KEYS)


def test_partitioned_reduce_at_one_partition_makes_one_call(ray_session):
    # the sketches (KMV, Misra-Gries) and the fixed histogram merge
    # everything in one call at P=1; a null integer key joins it
    rows = partitioned_reduce(_skewed_ds(8), 'k', _call_recorder(),
                              num_partitions=1, coalesce=4).take_all()
    assert len(_by_call(rows)) == 1
    assert sum(r['n'] for r in rows) == len(SKEWED_KEYS)


def test_reduces_of_empty_input_return_no_rows(ray_session):
    import ray.data
    empty = ray.data.from_arrow(pa.table({
        'k': pa.array([], pa.int64()), 'v': pa.array([], pa.int64())}))
    assert sorted_reduce(empty, 'k', _call_recorder(),
                         coalesce=2).count() == 0
    assert partitioned_reduce(empty, 'k', _call_recorder(),
                              num_partitions=8).count() == 0


def _cogrouped(left, right, key, num_partitions):
    """Run :func:`cogroup` with an ``fn`` that returns, as one row, the
    two tables it was handed (Arrow IPC bytes, so the test sees them
    exactly); returns one ``(left, right)`` table pair per partition."""
    def handed(left, right):
        return pa.table({
            'left': pa.array([_ipc(left)], pa.large_binary()),
            'right': pa.array([_ipc(right)], pa.large_binary())})

    rows = cogroup(left, right, key, handed, num_partitions).take_all()
    return [tuple(pa.ipc.open_stream(r[side]).read_all()
                  for side in ('left', 'right')) for r in rows]


def _lazy(table):
    # a mapped Dataset: Ray cannot tell its schema without running it
    import ray.data
    return ray.data.from_arrow(table).map_batches(
        lambda b: b, batch_format='pyarrow')


def test_cogroup_sides_keep_their_own_columns(ray_session):
    # both sides carry a non-key column named 'v', of different types;
    # each arrives as it was, with no tag, part or other-side column
    left = pa.table({'k': pa.array([1, 2, 3, 4], pa.int64()),
                     'v': ['a', 'b', 'c', 'd']})
    right = pa.table({'k': pa.array([2, 4, 4, 5], pa.int64()),
                      'v': pa.array([0.5, 1.5, 2.5, 3.5], pa.float64()),
                      'w': pa.array([1, 2, 3, 4], pa.int32())})
    parts = _cogrouped(_lazy(left), _lazy(right), 'k', 4)
    assert len(parts) == 4               # one fn call per partition
    for got_left, got_right in parts:
        assert got_left.schema == left.schema
        assert got_right.schema == right.schema
    got = {side: pa.concat_tables(p[i] for p in parts)
           for i, side in enumerate(('left', 'right'))}
    assert sorted(got['left'].to_pylist(), key=str) == sorted(
        left.to_pylist(), key=str)
    assert sorted(got['right'].to_pylist(), key=str) == sorted(
        right.to_pylist(), key=str)
    for got_left, got_right in parts:
        # integer keys route by key mod P on both sides
        keys = got_left['k'].to_pylist() + got_right['k'].to_pylist()
        assert len({k % 4 for k in keys}) <= 1


def test_cogroup_one_sided_partition_gets_an_empty_side(ray_session):
    # keys 0, 2, 3 (mod 4) hold left rows only and key 5 right rows
    # only: the missing side comes as 0 rows with its own columns
    left = pa.table({'k': pa.array([0, 1, 2, 3], pa.int64()),
                     'name': ['a', 'b', 'c', 'd']})
    right = pa.table({'k': pa.array([1, 5], pa.int64()),
                      'score': pa.array([7, 9], pa.int16())})
    parts = _cogrouped(_lazy(left), _lazy(right), 'k', 8)
    assert len(parts) == 8
    seen = {'left only': 0, 'right only': 0, 'both': 0, 'neither': 0}
    for got_left, got_right in parts:
        assert got_left.schema == left.schema
        assert got_right.schema == right.schema
        seen[{(True, False): 'left only', (False, True): 'right only',
              (True, True): 'both', (False, False): 'neither'}[
            (got_left.num_rows > 0, got_right.num_rows > 0)]] += 1
    assert seen == {'left only': 3, 'right only': 1, 'both': 1,
                    'neither': 3}


def test_cogroup_keeps_int64_above_2_53(ray_session):
    big = (1 << 62) + 1                  # not representable in float64
    left = pa.table({'k': pa.array([1, 2], pa.int64()),
                     'x': pa.array([big, None], pa.int64())})
    right = pa.table({'k': pa.array([1, 3], pa.int64()),
                      'x': pa.array([big + 2, -big], pa.int64())})
    parts = _cogrouped(_lazy(left), _lazy(right), 'k', 2)
    got_left = pa.concat_tables(p[0] for p in parts).sort_by('k')
    got_right = pa.concat_tables(p[1] for p in parts).sort_by('k')
    assert got_left['x'].to_pylist() == [big, None]
    assert got_right['x'].to_pylist() == [big + 2, -big]


def test_cogroup_list_key_routes_equal_tuples_together(ray_session):
    # the same (s, u) tuples on both sides, in another order, with u
    # typed differently: the string-joined hash routes them alike
    rows = [('a', 1), ('b', 1), ('a', 2), ('Ж', 30), ('', 4)]
    left = pa.table({'s': [r[0] for r in rows],
                     'u': pa.array([r[1] for r in rows], pa.int64())})
    right = pa.table({'s': [r[0] for r in rows[::-1]],
                      'u': pa.array([r[1] for r in rows[::-1]],
                                    pa.int32()),
                      'n': pa.array(range(len(rows)), pa.int64())})
    parts = _cogrouped(_lazy(left), _lazy(right), ['s', 'u'], 16)
    placed = 0
    for got_left, got_right in parts:
        tuples = set(zip(got_left['s'].to_pylist(),
                         got_left['u'].to_pylist()))
        assert tuples == set(zip(got_right['s'].to_pylist(),
                                 got_right['u'].to_pylist()))
        placed += len(tuples)
    assert placed == len(rows)


def test_check_layout():
    check_layout(16)
    check_layout(16, base_p=16, base='kg/triples')
    for bad in (0, -4, 6, 12):
        with pytest.raises(ValueError, match='power of two'):
            check_layout(bad)
    with pytest.raises(ValueError, match='disagrees'):
        check_layout(8, base_p=16, base='kg/triples')


def test_stages_do_not_import_pipelines():
    # the operator layer must not depend on the flagship pipeline
    stages = pathlib.Path(__file__).parent.parent / 'yargy_ray' / 'stages'
    offenders = []
    for path in sorted(stages.glob('*.py')):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [('.' * node.level) + (node.module or '')]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            for name in names:
                if (name.startswith('yargy_ray.pipelines')
                        or name.startswith('..pipelines')):
                    offenders.append(f'{path.name}:{node.lineno} {name}')
    assert offenders == []


# Dataset.union calls that are not two-sided exchanges; every other
# union belongs to stages/exchange.py's cogroup
SAME_SCHEMA_UNIONS = {
    # bucket partials and the zero-filled buckets share (bucket, n)
    ('stages/olap.py', 'fixed_histogram'),
    # base and delta partial sums share (key..., sum, mpart) columns
    ('pipelines/incremental.py', '_merge_sum'),
}


def test_only_the_exchange_unions_datasets():
    # a module that unions two sides itself has hand-rolled a tagged
    # union: the one that routes two sides is exchange.cogroup
    package = pathlib.Path(__file__).parent.parent / 'yargy_ray'
    offenders = []
    for path in sorted(package.rglob('*.py')):
        name = path.relative_to(package).as_posix()
        if name == 'stages/exchange.py':
            continue
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, 'name', None)
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == 'union'
                        and (name, owner) not in SAME_SCHEMA_UNIONS):
                    offenders.append(f'{name}:{node.lineno} {owner}')
    assert offenders == []


def _triple_rows(rows):
    from yargy_ray.stages.extract import TRIPLE_SCHEMA
    return pa.Table.from_pylist(
        [dict(zip(('subj', 'pred', 'obj', 'conv_id', 'turn_idx'), r),
              rule='r', span_start=0, span_stop=1) for r in rows],
        schema=TRIPLE_SCHEMA)


@pytest.mark.parametrize('coalesce', [None, 1, 2, 'auto'])
def test_dedup_keeps_the_first_occurrence_in_input_order(ray_session,
                                                         coalesce):
    # the same triples in several input blocks, each occurrence with
    # its own provenance: the survivor of every triple is the one that
    # comes first in block order, then row order
    import ray.data
    from yargy_ray.pipelines.kg import dedup_triples
    triples = [('A', 'knows', f'B{i}') for i in range(12)]
    blocks = [[(*t, f'conv-{b}', 10 * b + i) for i, t in enumerate(
        triples[b::2] + triples[::3])] for b in range(4)]
    first = {}
    for block in blocks:
        for row in block:
            first.setdefault(row[:3], row[3:])
    ds = ray.data.from_arrow([_triple_rows(b) for b in blocks])
    got = dedup_triples(ds, coalesce=coalesce).take_all()
    assert len(got) == len(first)
    assert {(r['subj'], r['pred'], r['obj']): (r['conv_id'], r['turn_idx'])
            for r in got} == first

"""The exchange's routing rules, layout partition and sum reduce
(``stages/exchange.py``), plus the layering rule that keeps the
operator layer free of pipeline imports.

In-process where possible: the tests call the per-batch functions the
distributed operators map over every block.
"""

import ast
import pathlib

import pandas as pd
import pyarrow as pa
import pytest

from yargy_ray.stages.exchange import (
    _sum_groups,
    check_layout,
    layout_partition,
    partition_ids,
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

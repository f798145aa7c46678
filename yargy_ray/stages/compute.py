"""The compute primitive for stateful stages: :func:`map_cached`.

Every stage whose callable carries per-worker state (compiled grammars,
a morph analyzer, a broadcast index) runs through this one function,
as Ray tasks on warm workers (the ``compute="tasks"`` default of
``map_batches``) rather than a per-Dataset actor pool:

* The Dataset maps ONE top-level function, :func:`_cached_call`,
  pickled by reference and given ``fn_kwargs={cls, ref, run}``.
* ``ref`` is the stage's constructor kwargs, ``ray.put`` once per
  Dataset: the broadcast. A worker resolves it from its local object
  store only when it builds an instance, so a large side (an n-gram
  index, an embedding table) is never re-shipped per batch, and numpy
  arrays inside it map the shared plasma buffers zero-copy.
* ``run`` is a ``uuid4`` drawn when the Dataset is built. A worker
  builds ``cls(**kwargs)`` the first time it sees a run and keeps it
  in a small per-process LRU keyed by the run alone, so compiled state
  is paid once per worker per Dataset, per-instance memos never
  outlive their Dataset, and Ray fusing two maps of one class into one
  task still gives each map its own instance.

Constructors therefore take plain values; none of them sees an
``ObjectRef``.

How many rows a task gets: with an int ``batch_size`` and an int
``concurrency``, and an input whose size
:func:`~yargy_ray.stages.exchange.size_of` knows without executing its
plan (a ``read_parquet``, a materialized Dataset), the input is cut
into ``max(2 * concurrency, ceil(bytes / target_max_block_size))``
tasks, not one per read block, and Ray's own block-size target bounds
a task of a huge input. Fewer, larger tasks pay Ray's per-task cost
(a scheduling gap of several ms per task and slot) fewer times, but
leave a longer tail when the last tasks of a wide pool end unevenly:
two tasks per slot won at one and at three slots, and whether it also
wins at tens of slots is not yet measured (ROADMAP item 9). Ray's
bundler gets the task's row count as its batch size,
and :func:`_cached_call` cuts each such batch into ``batch_size``-row
slices, one instance call each: every call still sees at most
``batch_size`` rows. An input of unknown size keeps one task per input
block (Ray's default bundling), as does ``batch_size=None`` or
``concurrency=None``.
"""

from __future__ import annotations

import math
import uuid
from collections import OrderedDict

import pyarrow as pa

from yargy_ray.stages.exchange import size_of

# instances one worker process keeps, least recently used evicted
# first; a few runs cover every map of one fused task chain
WORKER_CACHE_SIZE = 4

# run -> instance: the stage state of THIS worker process
_WORKER_INSTANCES = OrderedDict()


def _cached_call(batch, cls, ref, run, rows=None):
    """``cls(**ray.get(ref))(batch)`` with the instance kept per run.

    With ``rows``, the batch is a whole sized task's share
    (:func:`map_cached`): the instance is called once per ``rows``-row
    slice and the outputs are concatenated, so no call sees more than
    ``rows`` rows. Without it, the instance gets the batch whole.

    A module-level function, so Ray pickles it by reference and every
    task in a worker shares this module's LRU (a closure would carry a
    private copy into each task).
    """
    instance = _WORKER_INSTANCES.get(run)
    if instance is None:
        import ray
        instance = _WORKER_INSTANCES[run] = cls(**ray.get(ref))
        if len(_WORKER_INSTANCES) > WORKER_CACHE_SIZE:
            _WORKER_INSTANCES.popitem(last=False)
    else:
        _WORKER_INSTANCES.move_to_end(run)
    if rows is None or batch.num_rows <= rows:
        return instance(batch)
    return pa.concat_tables(
        [instance(batch.slice(start, rows))
         for start in range(0, batch.num_rows, rows)],
        promote_options='permissive')


def _task_rows(rows, size_bytes, concurrency, batch_size):
    """Rows per task of a sized :func:`map_cached`: ``rows`` over
    ``max(2 * concurrency, ceil(size_bytes / target_max_block_size))``
    tasks, rounded up to a multiple of ``batch_size``."""
    from ray.data import DataContext
    tasks = 2 * concurrency
    target = DataContext.get_current().target_max_block_size
    if target:
        tasks = max(tasks, math.ceil(size_bytes / target))
    return batch_size * max(1, math.ceil(rows / (tasks * batch_size)))


def map_cached(ds, cls, kwargs, concurrency, batch_size=None):
    """``ds.map_batches`` of ``cls(**kwargs)`` as Ray tasks on warm
    workers, ``kwargs`` broadcast once through the object store.

    ``concurrency`` (an int) caps the number of concurrent tasks;
    ``None`` leaves the task count to Ray. ``batch_size`` caps the rows
    of one instance call; ``None`` hands each call a whole input block.
    With both ints and the input's size known, each task gets
    :func:`_task_rows` rows (module docstring); otherwise Ray cuts one
    task per input block.
    """
    import ray
    fn_kwargs = {'cls': cls, 'ref': ray.put(kwargs),
                 'run': uuid.uuid4().hex}
    size = (None if batch_size is None or concurrency is None
            else size_of(ds))
    if size is not None:
        fn_kwargs['rows'] = batch_size
        batch_size = _task_rows(*size, concurrency, batch_size)
    return ds.map_batches(
        _cached_call,
        fn_kwargs=fn_kwargs,
        batch_format='pyarrow',
        batch_size=batch_size,
        concurrency=concurrency,
    )

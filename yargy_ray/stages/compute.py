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
"""

from __future__ import annotations

import uuid
from collections import OrderedDict

# instances one worker process keeps, least recently used evicted
# first; a few runs cover every map of one fused task chain
WORKER_CACHE_SIZE = 4

# run -> instance: the stage state of THIS worker process
_WORKER_INSTANCES = OrderedDict()


def _cached_call(batch, cls, ref, run):
    """``cls(**ray.get(ref))(batch)`` with the instance kept per run.

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
    return instance(batch)


def map_cached(ds, cls, kwargs, concurrency, batch_size=None):
    """``ds.map_batches`` of ``cls(**kwargs)`` as Ray tasks on warm
    workers, ``kwargs`` broadcast once through the object store.

    ``concurrency`` (an int) caps the number of concurrent tasks;
    ``None`` leaves the task count to Ray.
    """
    import ray
    return ds.map_batches(
        _cached_call,
        fn_kwargs={'cls': cls, 'ref': ray.put(kwargs),
                   'run': uuid.uuid4().hex},
        batch_format='pyarrow',
        batch_size=batch_size,
        concurrency=concurrency,
    )

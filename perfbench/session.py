"""Ray session lifetime, per-step time limits and the RSS sampler.

The benchmark owns the Ray session: it starts a local cluster whose
temporary files live in the checkout, and on stop it waits for every
process the session started.
"""

from __future__ import annotations

import contextlib
import os
import signal
import tempfile
import threading
import time

import ray  # noqa: F401  (puts Ray's bundled psutil on sys.path)
import psutil

# Ray places its unix sockets under the temp dir; AF_UNIX paths are
# limited to 107 bytes and the session suffix takes ~70 of them.
_SOCKET_SUFFIX = len('/session_2026-01-01_00-00-00_000000_1234567'
                     '/sockets/plasma_store')
_OBJECT_STORE_BYTES = 512 << 20


# Ray gets two logical CPUs whatever the host has: one for the
# extraction actor and one that the read, exchange and write tasks can
# always get. With one logical CPU the lone actor starves the read tasks
# and the job never ends. A fixed size keeps figures comparable between
# hosts and the run small on a shared machine.
RAY_CPUS = 2
POOL_ACTORS = RAY_CPUS - 1


class JobTimeout(Exception):
    pass


@contextlib.contextmanager
def time_limit(seconds, what):
    """Raise :class:`JobTimeout` in the main thread after ``seconds``."""
    def expire(signum, frame):
        raise JobTimeout(f'{what} exceeded {seconds} s')

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _tree():
    me = psutil.Process()
    return [me] + me.children(recursive=True)


class PeakRss:
    """Peak of the summed RSS of this process and all its descendants
    (Ray's GCS, raylet and workers), sampled every ``interval`` s."""

    def __init__(self, interval=0.25):
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self):
        total = 0
        for proc in _tree():
            with contextlib.suppress(psutil.Error):
                total += proc.memory_info().rss
        self.peak = max(self.peak, total)

    def _run(self):
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()

    @property
    def mib(self):
        return self.peak / 2**20


class RaySession:
    """Starts and stops a local Ray cluster whose files live in ``root``."""

    def __init__(self, root):
        self.cpus, self.pool = RAY_CPUS, POOL_ACTORS
        temp = os.path.join(root, '.perfbench_ray')
        if len(temp) + _SOCKET_SUFFIX > 107:
            # the checkout path is too long for Ray's socket paths
            temp = tempfile.mkdtemp(prefix='pbray')
        self.temp_dir = temp
        os.makedirs(temp, exist_ok=True)
        path = os.environ.get('PYTHONPATH')
        os.environ['PYTHONPATH'] = root + (os.pathsep + path if path else '')
        os.environ['RAY_USAGE_STATS_ENABLED'] = '0'

    def start(self):
        """``ray.init`` plus extractor construction (grammar compile);
        returns the seconds it took."""
        import ray
        from yargy_ray.pipelines.kg import TripleExtractor

        start = time.perf_counter()
        ray.init(address='local', num_cpus=self.cpus,
                 object_store_memory=_OBJECT_STORE_BYTES,
                 include_dashboard=False, log_to_driver=False,
                 _temp_dir=self.temp_dir)
        TripleExtractor()
        elapsed = time.perf_counter() - start
        import ray.data
        ray.data.DataContext.get_current().enable_progress_bars = False
        return elapsed

    def wait_idle(self, timeout=60):
        """Wait until every logical CPU is free again. A finished job's
        actor pool holds its CPU until the driver drops the last handle
        (often only at a cyclic GC); a job started before that finds no
        CPU for its read tasks and stalls until the old actor is reaped.
        """
        import gc

        import ray
        gc.collect()
        deadline = time.monotonic() + timeout
        while ray.available_resources().get('CPU', 0) < self.cpus:
            if time.monotonic() > deadline:
                raise JobTimeout(f'cluster not idle after {timeout} s')
            time.sleep(0.05)

    def stop(self):
        """Shut Ray down and wait until every process it started ended."""
        import ray
        procs = _tree()[1:]
        ray.shutdown()
        procs += [p for p in _tree()[1:] if p not in procs]
        _, alive = psutil.wait_procs(procs, timeout=15)
        for proc in alive:
            with contextlib.suppress(psutil.Error):
                proc.kill()
        psutil.wait_procs(alive, timeout=5)

"""Cluster-storage seam for persisted artifacts.

Every artifact the engine persists and later re-reads from WORKER tasks
(connected-components edge partitions, incremental-merge carried
partitions, stage manifests, IVF lists) goes through this module
instead of ``os.path`` / ``glob`` / ``shutil``. Paths are plain strings
that may carry a URI scheme; ``pyarrow.fs.FileSystem.from_uri`` picks
the backend (``file://``, ``s3://``, ``hdfs://``, ...), and bare paths
resolve to the local filesystem — so the sandbox runs unchanged while a
real cluster points the same code at shared storage.

SHARED-VISIBILITY CONTRACT: any path handed to an operator that reads
it from inside Ray tasks (e.g. ``connected_components(edges_dir=...)``)
must be visible to every node — a shared filesystem mount or an object
-store URI. The single-node defaults (driver-local temp dirs) are
correct ONLY in local mode; multi-node deployments must pass a shared
URI. Functions here receive and return URI STRINGS (cheaply picklable
into tasks); each call resolves its own filesystem handle.
"""

from __future__ import annotations

import json
import os
import tempfile

from pyarrow import fs as pafs



def cache_path(*parts):
    """A path under the one root of the driver-local caches (derived
    corpora, incremental KG roots, IVF indexes): ``yargy_ray_cache`` in
    the temp dir, so ``TMPDIR`` moves it. A single-node default, like
    the temp dirs above."""
    return os.path.join(tempfile.gettempdir(), 'yargy_ray_cache', *parts)


def resolve(uri):
    """``uri`` -> (FileSystem, path). Bare paths are local."""
    uri = str(uri)
    if '://' in uri:
        return pafs.FileSystem.from_uri(uri)
    return pafs.LocalFileSystem(), uri


def join(base, *parts) -> str:
    """URI-safe path join (never ``os.path`` — schemes survive)."""
    segs = [str(base).rstrip('/')]
    segs.extend(str(p).strip('/') for p in parts)
    return '/'.join(segs)


def for_ray(uris):
    """(paths, filesystem) for ``ray.data.read_parquet``: Ray accepts
    directory URIs but not LISTS of URIs — resolved paths plus an
    explicit filesystem work for both."""
    uris = list(uris)
    if not uris:
        return uris, None
    fs, _ = resolve(uris[0])
    return [resolve(u)[1] for u in uris], fs


def exists(uri) -> bool:
    f, p = resolve(uri)
    return f.get_file_info(p).type != pafs.FileType.NotFound


def makedirs(uri):
    f, p = resolve(uri)
    f.create_dir(p, recursive=True)


def rmtree(uri):
    """Delete a directory tree if it exists (idempotent)."""
    f, p = resolve(uri)
    if f.get_file_info(p).type != pafs.FileType.NotFound:
        f.delete_dir(p)


def _children(uri, want_dirs):
    f, p = resolve(uri)
    if f.get_file_info(p).type == pafs.FileType.NotFound:
        return []
    sel = pafs.FileSelector(p, recursive=False, allow_not_found=True)
    out = []
    for info in f.get_file_info(sel):
        is_dir = info.type == pafs.FileType.Directory
        if is_dir == want_dirs:
            out.append((info.base_name, join(uri, info.base_name)))
    return sorted(out)


def part_dirs(root) -> dict:
    """Hash-layout partitions of ``root``: {partition_id: dir URI}
    over the ``part=N`` children."""
    return {int(name.split('=', 1)[1]): child
            for name, child in _children(root, want_dirs=True)
            if name.startswith('part=')}


def list_dirs(root) -> dict:
    """{dir name: dir URI} of ``root``'s immediate subdirectories."""
    return dict(_children(root, want_dirs=True))


def parquet_files(dir_uri) -> list:
    """Sorted URIs of the ``*.parquet`` files directly under a dir."""
    return [child for name, child in _children(dir_uri, want_dirs=False)
            if name.endswith('.parquet')]


def file_rows(file_uri) -> int:
    """Row count from the parquet FOOTER (metadata only)."""
    import pyarrow.parquet as pq
    f, p = resolve(file_uri)
    return pq.read_metadata(p, filesystem=f).num_rows


def dir_rows(dir_uri) -> int:
    return sum(file_rows(f) for f in parquet_files(dir_uri))


def read_parquet_dir(dir_uri, columns=None):
    """Concatenated Arrow table of a partition dir (worker-side,
    partition-pruned read). Returns None when the dir has no files."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    files = parquet_files(dir_uri)
    if not files:
        return None
    tables = []
    for uri in files:
        f, p = resolve(uri)
        tables.append(pq.read_table(p, columns=columns, filesystem=f))
    return pa.concat_tables(tables)


def copy_file(src_uri, dst_uri, chunk=8 << 20):
    sf, sp = resolve(src_uri)
    df, dp = resolve(dst_uri)
    with sf.open_input_stream(sp) as r, df.open_output_stream(dp) as w:
        while True:
            buf = r.read(chunk)
            if not buf:
                break
            w.write(buf)


def copy_tree(src_uri, dst_uri):
    """Copy a directory tree (used for carried partitions; on immutable
    cluster storage a manifest REFERENCE replaces the copy — see
    incremental.py)."""
    makedirs(dst_uri)
    for name, child in _children(src_uri, want_dirs=False):
        copy_file(child, join(dst_uri, name))
    for name, child in _children(src_uri, want_dirs=True):
        copy_tree(child, join(dst_uri, name))


def read_json(uri):
    f, p = resolve(uri)
    if f.get_file_info(p).type == pafs.FileType.NotFound:
        return None
    with f.open_input_stream(p) as r:
        return json.loads(r.read().decode())


def write_json_atomic(uri, payload):
    """Write-then-move on filesystems with rename; object stores write
    the object directly (single-key puts are already atomic there)."""
    f, p = resolve(uri)
    data = json.dumps(payload, indent=1).encode()
    if isinstance(f, pafs.LocalFileSystem):
        tmp = p + '.tmp'
        with f.open_output_stream(tmp) as w:
            w.write(data)
        f.move(tmp, p)
    else:
        with f.open_output_stream(p) as w:
            w.write(data)

"""Deduplication operators — exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Scale shapes (these are the 100 TB workhorses):

* exact: md5 key -> ONE hash-partitioned groupby; survivor = min doc_id
  (deterministic across runs/cluster sizes).
* MinHash+LSH: per-doc signature (vectorized numpy) -> band rows
  carrying a compact b-bit signature -> ONE bucket exchange ->
  estimated-Jaccard verification INSIDE each bucket (vectorized
  slot-equality); only 2.3 KB of band rows shuffle per doc, never the
  documents.
* SimHash: 64-bit signature; buckets on 4×16-bit chunks catch all pairs
  within Hamming distance 3 (pigeonhole), verified exactly in-group.
* embedding near-dup: random-hyperplane LSH over the embedding column,
  cosine verified in-group.

All verify steps run per-bucket, so worst-case work is bounded by
bucket size; hot buckets (boilerplate shingles) are truncated with an
explicit cap + logged count rather than silently exploding.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from yargy_ray.stages.compute import map_cached

# ---------------------------------------------------------------------------
# Exact dedup
# ---------------------------------------------------------------------------

def _exact_keys(batch: pa.Table) -> pa.Table:
    fps = [hashlib.md5(t.encode()).hexdigest()
           for t in batch.column('text').to_pylist()]
    # int shuffle key derived from the fingerprint (partition-wise reduce)
    fpk = [int(fp[:15], 16) for fp in fps]
    return pa.table({
        'fp': pa.array(fps, type=pa.string()),
        'fpk': pa.array(fpk, type=pa.int64()),
        'doc_id': batch.column('doc_id'),
    })


def exact_dedup_groups(docs_ds, num_partitions=64):
    """One row per distinct text: survivor id + duplicate count.

    Pandas-vectorized reduce per hash partition — never one UDF call
    per group (see stages/exchange.py).
    """
    from yargy_ray.stages.exchange import partitioned_reduce
    keyed = docs_ds.map_batches(_exact_keys, batch_format='pyarrow')

    def reduce_fn(table: pa.Table) -> pa.Table:
        df = table.select(['fp', 'doc_id']).to_pandas()
        agg = df.groupby('fp', sort=False)['doc_id'].agg(['min', 'count'])
        return pa.table({
            'fp': pa.array(agg.index, type=pa.string()),
            'keep_doc_id': pa.array(agg['min'].to_numpy(), type=pa.int64()),
            'n_dups': pa.array(agg['count'].to_numpy(), type=pa.int64()),
        })

    return partitioned_reduce(keyed, 'fpk', reduce_fn, num_partitions,
                              coalesce=None)


def exact_dedup(docs_ds, num_partitions=64):
    """Documents with duplicate texts dropped (keep min doc_id)."""
    from yargy_ray.stages.exchange import partitioned_reduce
    keyed = docs_ds.map_batches(_exact_keys, batch_format='pyarrow')

    def reduce_fn(table: pa.Table) -> pa.Table:
        df = table.to_pandas()
        idx = df.groupby('fp', sort=False)['doc_id'].idxmin()
        return pa.Table.from_pandas(
            df.loc[idx.to_numpy()], preserve_index=False,
            schema=table.schema)

    out = partitioned_reduce(keyed, 'fpk', reduce_fn, num_partitions,
                             coalesce=None)
    return out.drop_columns(['fpk'])


# ---------------------------------------------------------------------------
# Shingles + MinHash
# ---------------------------------------------------------------------------

_FNV = np.uint64(1099511628211)


def _mix64(x):
    """splitmix64 finalizer, vectorized over uint64 (wraparound math)."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def char_gram_hashes(text, k):
    """64-bit hashes of every lowercased character k-gram — VECTORIZED.

    Horner polynomial rolling hash over codepoints (k numpy ops total,
    no per-gram Python), splitmix64-mixed so the bits are usable both
    as MinHash universe elements and as SimHash bit sources. ~50x the
    per-gram blake2b loop this replaced.
    """
    t = text.lower()
    if not t:
        return np.empty(0, dtype=np.uint64)
    codes = np.frombuffer(t.encode('utf-32-le'), dtype=np.uint32)
    codes = codes.astype(np.uint64)
    n = len(codes)
    k = min(k, n)
    m = n - k + 1
    out = np.zeros(m, dtype=np.uint64)
    for j in range(k):
        out = out * _FNV + codes[j:j + m]
    return _mix64(out)


def shingle_set(text, k=5):
    """Distinct character k-shingle hashes (uint64 array, sorted)."""
    return np.unique(char_gram_hashes(text, k))


class MinHasher:
    """Vectorized MinHash signatures; built once per worker."""

    def __init__(self, num_perm=64, seed=7):
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, 2**61 - 1, size=num_perm, dtype=np.uint64)
        self.b = rng.randint(0, 2**61 - 1, size=num_perm, dtype=np.uint64)
        self.mod = np.uint64(2**61 - 1)
        self.num_perm = num_perm

    def signature(self, shingles):
        x = np.asarray(shingles, dtype=np.uint64)
        if x.size == 0:
            return np.zeros(self.num_perm, dtype=np.uint64)
        # (a*x + b) mod p, min over shingles, per permutation
        sig = ((np.outer(self.a, x) + self.b[:, None]) % self.mod).min(axis=1)
        return sig


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


class MinHashBander:
    """Docs -> (bucket, doc_id, sig16) band rows, vectorized.

    ``sig16`` is the b-bit minwise signature (low 16 bits of each of the
    ``num_perm`` min-hash values, packed little-endian — 128 B instead
    of the full 512 B): slot-equality still estimates Jaccard, with an
    upward collision bias of 2^-16 per slot (negligible at any usable
    threshold). Band bucket keys hash the FULL 64-bit chunk values, so
    bucketing precision is unchanged.

    Per doc this ships bands x (16 B keys + 128 B sig) ~= 2.3 KB through
    the ONE bucket exchange — 3.6x less than shipping the full signature
    per band row — and verification stays in-bucket (no extra joins, no
    candidate-pair explosion from loose bands).
    """

    def __init__(self, num_perm=64, bands=16, k=5, seed=7):
        assert num_perm % bands == 0
        self.hasher = MinHasher(num_perm, seed)
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column('text').to_pylist()
        n = len(texts)
        if n == 0:
            return pa.table({
                'bucket': pa.array([], type=pa.int64()),
                'doc_id': pa.array([], type=pa.int64()),
                'sig16': pa.array([], type=pa.binary()),
            })
        mat = np.empty((n, self.hasher.num_perm), dtype=np.uint64)
        for i, text in enumerate(texts):
            mat[i] = self.hasher.signature(shingle_set(text, self.k))
        sig16 = mat.astype(np.uint16)            # low 16 bits per perm
        sig_bytes = [row.tobytes() for row in sig16]
        rpb = self.rows_per_band
        buckets = []
        for b in range(self.bands):
            h = np.full(n, np.uint64(b + 1) * _GOLDEN, dtype=np.uint64)
            for j in range(rpb):
                h = _mix64(h ^ mat[:, b * rpb + j])
            buckets.append((h >> np.uint64(1)).astype(np.int64))
        doc = pc.cast(batch.column('doc_id'), pa.int64()).to_numpy(
            zero_copy_only=False)
        return pa.table({
            'bucket': pa.array(np.concatenate(buckets), type=pa.int64()),
            'doc_id': pa.array(np.tile(doc, self.bands), type=pa.int64()),
            'sig16': pa.array(sig_bytes * self.bands, type=pa.binary()),
        })


def _sig16_matrix(arr, num_perm):
    """binary sig16 column -> (n, num_perm) uint16 matrix."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    data = b''.join(arr.to_pylist())
    return np.frombuffer(data, dtype=np.uint16).reshape(-1, num_perm)


def _pair_agg(found, value_col, how, num_partitions=64):
    """Collapse duplicate (a, b) pair rows (a pair can surface from
    several buckets) keeping min/max of ``value_col``. One hash
    exchange keyed on ``a`` + an in-partition pandas groupby —
    near-unique pair keys are exactly the regime where Ray's native
    sort-aggregate degenerates (measured 20.6s vs 2s on 1.3M groups;
    BASELINE stress notes)."""
    from yargy_ray.stages.exchange import partitioned_reduce

    def reduce_fn(table):
        df = table.select(['a', 'b', value_col]).to_pandas()
        agg = df.groupby(['a', 'b'], sort=False, as_index=False)[
            value_col].agg(how)
        return pa.Table.from_pandas(agg, preserve_index=False)

    return partitioned_reduce(found, 'a', reduce_fn, num_partitions)


MAX_BUCKET = 256  # hot-bucket cap: boilerplate shingles otherwise O(n^2)


def _per_bucket(table: pa.Table, fn) -> pa.Table:
    """Apply ``fn(sub_table) -> table`` to every bucket inside one
    partition; concat results (partition-wise reduce inner loop)."""
    buckets = table.column('bucket').to_numpy(zero_copy_only=False)
    order = np.argsort(buckets, kind='stable')
    sorted_tbl = table.take(pa.array(order))
    sorted_keys = buckets[order]
    boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
    starts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [len(sorted_keys)]))
    outs = []
    for start, stop in zip(starts, stops):
        if stop - start < 2:
            continue
        outs.append(fn(sorted_tbl.slice(start, stop - start)))
    if not outs:
        return fn(table.slice(0, 0))
    return pa.concat_tables(outs)


def _minhash_bucket_pairs(group: pa.Table, num_perm, threshold) -> pa.Table:
    """In-bucket verification: pairwise estimated Jaccard = fraction of
    equal b-bit signature slots, one broadcast compare (no Python pair
    loop). Capped at MAX_BUCKET members, smallest doc_ids first."""
    ids = group.column('doc_id').to_numpy(zero_copy_only=False)
    if len(ids) < 2:
        return pa.table({
            'a': pa.array([], type=pa.int64()),
            'b': pa.array([], type=pa.int64()),
            'sim': pa.array([], type=pa.float64()),
        })
    order = np.argsort(ids)[:MAX_BUCKET]
    mat = _sig16_matrix(group.column('sig16'), num_perm)[order]
    sims = (mat[:, None, :] == mat[None, :, :]).mean(axis=2)
    ii, jj = np.triu_indices(len(order), k=1)
    keep = sims[ii, jj] >= threshold
    ids_sorted = ids[order]
    return pa.table({
        'a': pa.array(ids_sorted[ii[keep]], type=pa.int64()),
        'b': pa.array(ids_sorted[jj[keep]], type=pa.int64()),
        'sim': pa.array(sims[ii, jj][keep], type=pa.float64()),
    })


def minhash_near_dups(docs_ds, num_perm=64, bands=16, k=5, threshold=0.7,
                      num_partitions=64, concurrency=(1, 4)):
    """Near-dup pairs with estimated (signature) Jaccard >= threshold.

    ONE bucket exchange: band rows carry the compact b-bit signature
    (see MinHashBander), pairs are verified inside each bucket with a
    vectorized slot-equality compare, and a small final groupby dedups
    pairs that shared several buckets (keeping the max estimate).
    """
    banded = map_cached(docs_ds, MinHashBander,
                        {'num_perm': num_perm, 'bands': bands, 'k': k},
                        concurrency)

    from yargy_ray.stages.exchange import partitioned_reduce

    def reduce_fn(table):
        return _per_bucket(
            table, lambda g: _minhash_bucket_pairs(g, num_perm, threshold))

    pairs = partitioned_reduce(banded, 'bucket', reduce_fn, num_partitions,
                               coalesce=None)
    return _pair_agg(pairs, 'sim', 'max')


# ---------------------------------------------------------------------------
# n-gram Jaccard (exact, within LSH buckets)
# ---------------------------------------------------------------------------

class NgramBucketJoiner:
    """Exact word-n-gram Jaccard verification for bucketed candidates."""

    def __init__(self, n=3):
        self.n = n

    def grams(self, text):
        words = text.lower().split()
        if len(words) < self.n:
            return {' '.join(words)} if words else set()
        return {' '.join(words[i:i + self.n])
                for i in range(len(words) - self.n + 1)}

    def __call__(self, group: pa.Table, threshold=0.5) -> pa.Table:
        ids = group.column('doc_id').to_pylist()
        texts = group.column('text').to_pylist()
        order = np.argsort(ids)[:MAX_BUCKET]
        grams = [self.grams(texts[i]) for i in order]
        a, b, sims = [], [], []
        for i in range(len(order)):
            for j in range(i + 1, len(order)):
                gi, gj = grams[i], grams[j]
                union = len(gi | gj)
                sim = len(gi & gj) / union if union else 1.0
                if sim >= threshold:
                    a.append(ids[order[i]])
                    b.append(ids[order[j]])
                    sims.append(sim)
        return pa.table({
            'a': pa.array(a, type=pa.int64()),
            'b': pa.array(b, type=pa.int64()),
            'jaccard': pa.array(sims, type=pa.float64()),
        })


def ngram_jaccard_dups(docs_ds, n=3, threshold=0.5, length_bucket=32):
    """Exact n-gram Jaccard pairs, bucketed by token-length band.

    Length banding is the cheap blocking key: docs whose token counts
    differ by more than the band cannot clear a high Jaccard threshold.
    """
    def add_bucket(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        counts = pc.list_value_length(
            pc.split_pattern_regex(
                pc.utf8_trim_whitespace(batch.column('text')), r'\s+'))
        bucket = pc.cast(
            pc.floor(pc.divide(pc.cast(counts, pa.float64()), length_bucket)),
            pa.int64())
        return batch.append_column('bucket', bucket)

    joiner = NgramBucketJoiner(n)

    def pairs_fn(group):
        return joiner(group, threshold)

    from yargy_ray.stages.exchange import partitioned_reduce
    bucketed = docs_ds.map_batches(add_bucket, batch_format='pyarrow')

    def reduce_fn(table):
        return _per_bucket(table, pairs_fn)

    return partitioned_reduce(bucketed, 'bucket', reduce_fn, 16,
                              coalesce=None)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

_BIT_SHIFTS = np.arange(64, dtype=np.uint64)


def simhash64(text, k=4):
    """64-bit SimHash over character k-grams — fully vectorized:
    (n_grams, 64) bit matrix from the rolling-hash array, one sum."""
    h = char_gram_hashes(text, k)
    if h.size == 0:
        return 0
    bits = ((h[:, None] >> _BIT_SHIFTS) & np.uint64(1)).astype(np.int64)
    acc = (2 * bits - 1).sum(axis=0)
    return int(np.bitwise_or.reduce(
        (acc > 0).astype(np.uint64) << _BIT_SHIFTS))


def _to_i64(value):
    """uint64 -> two's-complement int64 (Arrow-safe)."""
    return value - (1 << 64) if value >= (1 << 63) else value


_MASK64 = (1 << 64) - 1


def _simhash_batch(batch: pa.Table) -> pa.Table:
    sigs = [simhash64(t) for t in batch.column('text').to_pylist()]
    return pa.table({
        'doc_id': batch.column('doc_id'),
        'simhash': pa.array([_to_i64(s) for s in sigs], type=pa.int64()),
    })


def simhash_near_dups(docs_ds, max_hamming=3):
    """Pairs within Hamming distance; 4×16-bit chunk bucketing.

    Pigeonhole: any pair with <= 3 differing bits shares at least one
    of the four 16-bit chunks exactly.
    """
    sigs = docs_ds.map_batches(_simhash_batch, batch_format='pyarrow')

    def to_buckets(batch: pa.Table) -> pa.Table:
        """Vectorized 4x bucket emission: shift/mask the int64 signature
        column with numpy, tile ids — no per-row Python."""
        raw = batch.column('simhash').to_numpy(
            zero_copy_only=False).view(np.uint64)
        chunks = [
            ((np.uint64(c) << np.uint64(16))
             | ((raw >> np.uint64(16 * c)) & np.uint64(0xFFFF)))
            for c in range(4)
        ]
        return pa.table({
            'bucket': pa.array(
                np.concatenate(chunks).astype(np.int64), type=pa.int64()),
            'doc_id': pa.array(np.tile(
                batch.column('doc_id').to_numpy(zero_copy_only=False), 4),
                type=pa.int64()),
            'simhash': pa.array(np.tile(raw, 4).view(np.int64),
                                type=pa.int64()),
        })

    def pairs(group: pa.Table) -> pa.Table:
        ids = group.column('doc_id').to_pylist()
        raws = group.column('simhash').to_pylist()
        order = np.argsort(ids)[:MAX_BUCKET]
        ids_sorted = np.asarray([ids[i] for i in order], dtype=np.int64)
        sigs = np.asarray([raws[i] for i in order],
                          dtype=np.int64).view(np.uint64)
        # pairwise Hamming via broadcast XOR + byte-level popcount —
        # bounds hot-bucket verification like the MinHash path
        xor = sigs[:, None] ^ sigs[None, :]
        dist = np.unpackbits(
            xor.view(np.uint8).reshape(len(order), len(order), 8),
            axis=2).sum(axis=2)
        ii, jj = np.triu_indices(len(order), k=1)
        keep = ((dist[ii, jj] <= max_hamming)
                & (ids_sorted[ii] != ids_sorted[jj]))
        return pa.table({
            'a': pa.array(ids_sorted[ii[keep]], type=pa.int64()),
            'b': pa.array(ids_sorted[jj[keep]], type=pa.int64()),
            'hamming': pa.array(dist[ii, jj][keep].astype(np.int64),
                                type=pa.int64()),
        })

    from yargy_ray.stages.exchange import partitioned_reduce
    bucketed = sigs.map_batches(to_buckets, batch_format='pyarrow')

    def reduce_fn(table):
        return _per_bucket(table, pairs)

    found = partitioned_reduce(bucketed, 'bucket', reduce_fn, 64,
                               coalesce=None)
    return _pair_agg(found, 'hamming', 'min')


# ---------------------------------------------------------------------------
# Embedding-cosine near-dup (random hyperplane LSH)
# ---------------------------------------------------------------------------

class HyperplaneBucketer:
    """Multi-table random-hyperplane LSH: ``tables`` independent sets of
    ``planes`` hyperplanes. A pair at cosine c collides in one table
    with probability (1 - acos(c)/pi)^planes; running T tables drives
    the miss rate to (1-p)^T — e.g. cosine 0.99, 12 planes, 4 tables
    -> ~0.07% miss. Bucket emission is one batched matmul + sign pack,
    no per-row Python."""

    def __init__(self, dim, planes=12, tables=4, seed=11):
        rng = np.random.RandomState(seed)
        self.planes = rng.randn(tables * planes, dim).astype(np.float32)
        self.tables = tables
        self.n_planes = planes

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column('vec_id').to_numpy(zero_copy_only=False)
        from yargy_ray.stages.similarity import _as_matrix
        vecs = _as_matrix(batch.column('embedding'))
        signs = (vecs @ self.planes.T) > 0        # (n, tables*planes)
        weights = (1 << np.arange(self.n_planes)).astype(np.int64)
        buckets = []
        for t in range(self.tables):
            chunk = signs[:, t * self.n_planes:(t + 1) * self.n_planes]
            buckets.append(
                (np.int64(t) << np.int64(48)) | chunk.dot(weights))
        n = len(ids)
        tiled = pa.array(np.tile(np.arange(n), self.tables))
        return pa.table({
            'bucket': pa.array(np.concatenate(buckets), type=pa.int64()),
            'vec_id': pa.array(np.tile(ids, self.tables), type=pa.int64()),
            'embedding': batch.column('embedding').take(tiled),
        })


def _cosine_pairs_table(ids_sorted, unit, threshold):
    """Upper-triangle cosine pairs >= threshold, fully vectorized."""
    sim = unit @ unit.T
    ii, jj = np.triu_indices(len(ids_sorted), k=1)
    keep = sim[ii, jj] >= threshold
    return pa.table({
        'a': pa.array(ids_sorted[ii[keep]], type=pa.int64()),
        'b': pa.array(ids_sorted[jj[keep]], type=pa.int64()),
        'cosine': pa.array(sim[ii, jj][keep].astype(np.float64),
                           type=pa.float64()),
    })


def _unit_rows(vecs):
    norms = np.linalg.norm(vecs, axis=1)
    norms[norms == 0] = 1.0
    return vecs / norms[:, None]


def embedding_near_dups(emb_ds, dim, threshold=0.95, planes=12, tables=4):
    """Vector pairs with cosine >= threshold via multi-table hyperplane
    LSH buckets (approximate: recall ~1-(1-p)^tables, see
    HyperplaneBucketer). Verification inside each bucket is one matmul."""
    bucketed = map_cached(emb_ds, HyperplaneBucketer,
                          {'dim': dim, 'planes': planes, 'tables': tables},
                          (1, 4))

    def pairs(group: pa.Table) -> pa.Table:
        ids = group.column('vec_id').to_numpy(zero_copy_only=False)
        if len(ids) < 2:
            return pa.table({
                'a': pa.array([], type=pa.int64()),
                'b': pa.array([], type=pa.int64()),
                'cosine': pa.array([], type=pa.float64()),
            })
        from yargy_ray.stages.similarity import _as_matrix
        vecs = _as_matrix(group.column('embedding'), dtype=np.float64)
        order = np.argsort(ids)[:MAX_BUCKET]
        return _cosine_pairs_table(ids[order], _unit_rows(vecs[order]),
                                   threshold)

    from yargy_ray.stages.exchange import partitioned_reduce

    def reduce_fn(table):
        return _per_bucket(table, pairs)

    found = partitioned_reduce(bucketed, 'bucket', reduce_fn, 64,
                               coalesce=None)
    return _pair_agg(found, 'cosine', 'max')


class BlockPairs:
    """Pairs ``(a, b)``, ``a < b``, ``a`` in the batch, whose cosine
    against the broadcast unit-row table reaches ``threshold``."""

    def __init__(self, ids, unit, threshold):
        self.ids = ids
        self.unit = unit
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        from yargy_ray.stages.similarity import _as_matrix
        ids = batch.column('vec_id').to_numpy(zero_copy_only=False)
        unit = _unit_rows(_as_matrix(batch.column('embedding'),
                                     dtype=np.float64))
        sim = unit @ self.unit.T            # (batch, N)
        bi, gj = np.nonzero(sim >= self.threshold)
        a = ids[bi]
        b = self.ids[gj]
        keep = a < b
        return pa.table({
            'a': pa.array(a[keep], type=pa.int64()),
            'b': pa.array(b[keep], type=pa.int64()),
        })


def embedding_near_dups_exact(emb_ds, threshold=0.95):
    """EXACT cosine near-dup pairs: the whole (narrow) embedding table
    is broadcast once and every streaming batch does one matmul
    against it — O(N^2) compute, distributed over batches, zero
    shuffle. This is the oracle baseline for the LSH variant; at 10^11+
    vectors use :func:`embedding_near_dups`.

    Emits only (a, b) with a < b (each batch keeps pairs whose smaller
    id falls in the batch — every pair counted exactly once)."""
    import ray

    all_tbl = pa.concat_tables(
        ray.get(emb_ds.to_arrow_refs()), promote_options='default')
    all_ids = all_tbl.column('vec_id').to_numpy(zero_copy_only=False)
    from yargy_ray.stages.similarity import _as_matrix
    all_unit = _unit_rows(_as_matrix(all_tbl.column('embedding'),
                                     dtype=np.float64))
    return map_cached(emb_ds, BlockPairs,
                      {'ids': all_ids, 'unit': all_unit,
                       'threshold': threshold}, (1, 4))


def plant_duplicate_vectors(emb_ds, n_planted=8):
    """Append exact copies of the vectors with vec_id < n_planted under
    ids -1-vec_id. Deterministic ground truth for near-dup queries over
    corpora with no natural near pairs (the planted (orig, copy) pairs
    have cosine exactly 1.0). Mirrored by SQL oracles via UNION ALL."""
    def plant(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        mask = pc.less(batch.column('vec_id'), n_planted)
        copies = batch.filter(mask)
        if copies.num_rows:
            neg = pc.subtract(pa.scalar(-1, pa.int64()),
                              pc.cast(copies.column('vec_id'), pa.int64()))
            copies = copies.set_column(
                copies.schema.get_field_index('vec_id'), 'vec_id', neg)
            batch = pa.concat_tables([batch, copies])
        return batch

    return emb_ds.map_batches(plant, batch_format='pyarrow')

"""Multimodal column plumbing: opaque binary payloads + typed metadata.

Images/audio/video travel as ``binary`` columns with a metadata struct;
decode / resize / feature-extract are stateful stages run as tasks on
warm workers (``stages/compute.map_cached``).
The image/audio codec libraries are NOT in this container, so the codec
boundary is explicit:

* ``FakeCodec`` — deterministic stand-in (seeded bytes -> fake
  "pixels"), used by tests and the bench so the Ray-side plumbing
  (schema, batch sizing, constructor signature, output layout) is real and
  exercised end to end.
* ``LibraryCodec`` — raises ``NotImplementedError`` with the exact
  dependency needed; drop-in once PIL/libav exist on the cluster.

Scale notes: binary payloads dominate block size — these stages must
run with SMALL ``batch_size`` (payload_bytes × batch_size × concurrency
must fit the worker heap) and let the object store spill; metadata-only
consumers should ``select_columns`` away the payload at the read.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from yargy_ray.stages.compute import map_cached

MEDIA_SCHEMA = pa.schema([
    ('media_id', pa.int64()),
    ('kind', pa.string()),            # image | audio | video
    ('payload', pa.binary()),
    ('width', pa.int32()),
    ('height', pa.int32()),
    ('sample_rate', pa.int32()),
    ('n_frames', pa.int32()),
])


def synth_media(num_items, kind='image', payload_size=4096, seed=17):
    """Deterministic fake media table (no codecs in this sandbox)."""
    rows = []
    for i in range(num_items):
        rng = np.random.RandomState(seed * 100_003 + i)
        rows.append({
            'media_id': i,
            'kind': kind,
            'payload': rng.bytes(payload_size),
            'width': int(rng.choice([64, 128, 256])),
            'height': int(rng.choice([64, 128, 256])),
            'sample_rate': 16000 if kind == 'audio' else 0,
            'n_frames': int(rng.randint(1, 90)) if kind == 'video' else 1,
        })
    return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)


class LibraryCodec:
    """Real decode boundary — unavailable in this container."""

    def decode_image(self, payload, width, height):
        raise NotImplementedError(
            'image decode requires Pillow/libjpeg — not in this container; '
            'swap FakeCodec for LibraryCodec when the cluster image has it')

    def decode_audio(self, payload, sample_rate):
        raise NotImplementedError(
            'audio decode requires libsndfile/ffmpeg — not in this container')


class FakeCodec:
    """Deterministic stand-in: payload bytes -> reproducible pixel array."""

    def decode_image(self, payload, width, height):
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        rng = np.random.RandomState(int.from_bytes(digest[:4], 'big'))
        return rng.randint(0, 256, size=(height, width, 3), dtype=np.uint8)

    def decode_audio(self, payload, sample_rate):
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        rng = np.random.RandomState(int.from_bytes(digest[:4], 'big'))
        return rng.randn(sample_rate).astype(np.float32)


class ImageFeaturizer:
    """Decode -> resize -> channel-mean feature vector.

    Codec built once per worker; batches stay small because payloads are
    large. Output drops the payload (never carry blobs past the last
    stage that needs them).
    """

    def __init__(self, codec=None, target=32):
        self.codec = codec if codec is not None else FakeCodec()
        self.target = target

    def _resize(self, pixels):
        h, w, _ = pixels.shape
        ys = np.linspace(0, h - 1, self.target).astype(np.int64)
        xs = np.linspace(0, w - 1, self.target).astype(np.int64)
        return pixels[np.ix_(ys, xs)]

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column('media_id').to_pylist()
        payloads = batch.column('payload').to_pylist()
        widths = batch.column('width').to_pylist()
        heights = batch.column('height').to_pylist()
        feats = []
        for payload, w, h in zip(payloads, widths, heights):
            pixels = self.codec.decode_image(payload, w, h)
            small = self._resize(pixels)
            feats.append(small.mean(axis=(0, 1)).astype(np.float32).tolist())
        return pa.table({
            'media_id': pa.array(ids, type=pa.int64()),
            'feature': pa.array(feats, type=pa.list_(pa.float32())),
        })


class FrameSampler:
    """Sample every k-th frame index of a video payload."""

    def __init__(self, every=10):
        self.every = every

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column('media_id').to_pylist()
        frames = batch.column('n_frames').to_pylist()
        out_id, out_frame = [], []
        for media_id, n in zip(ids, frames):
            for f in range(0, n, self.every):
                out_id.append(media_id)
                out_frame.append(f)
        return pa.table({
            'media_id': pa.array(out_id, type=pa.int64()),
            'frame_idx': pa.array(out_frame, type=pa.int32()),
        })


def featurize_images(media_ds, concurrency=4, batch_size=16):
    """Small batches: payload bytes dominate block size."""
    return map_cached(media_ds, ImageFeaturizer, {}, concurrency, batch_size)


# ---------------------------------------------------------------------------
# Real-container codec path (stdlib only — no external media libraries)
# ---------------------------------------------------------------------------

def encode_bmp(pixels: 'np.ndarray') -> bytes:
    """Minimal 24-bit uncompressed BMP (BITMAPINFOHEADER, bottom-up) —
    a REAL container format, written from the public spec, so the
    codec-injection contract can be exercised end to end without
    Pillow. ``pixels``: (h, w, 3) uint8 RGB."""
    import struct
    h, w, _ = pixels.shape
    row_pad = (-(w * 3)) % 4
    img_size = (w * 3 + row_pad) * h
    header = struct.pack('<2sIHHI', b'BM', 54 + img_size, 0, 0, 54)
    info = struct.pack('<IiiHHIIiiII', 40, w, h, 1, 24, 0, img_size,
                       2835, 2835, 0, 0)
    rows = []
    bgr = pixels[:, :, ::-1]                    # BMP stores BGR
    pad = b'\x00' * row_pad
    for y in range(h - 1, -1, -1):              # bottom-up
        rows.append(bgr[y].tobytes() + pad)
    return header + info + b''.join(rows)


def encode_wav(samples: 'np.ndarray', sample_rate: int) -> bytes:
    """16-bit PCM mono WAV via the stdlib ``wave`` module.
    ``samples``: float array in [-1, 1)."""
    import io
    import wave
    pcm = np.clip(samples * 32768.0, -32768, 32767).astype('<i2')
    buf = io.BytesIO()
    with wave.open(buf, 'wb') as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(sample_rate)
        f.writeframes(pcm.tobytes())
    return buf.getvalue()


class StdlibCodec:
    """REAL decode path over genuine binary containers, stdlib only:
    24-bit BMP images (struct + numpy) and 16-bit PCM WAV audio
    (``wave``). Same interface as FakeCodec/LibraryCodec — this is the
    proof that the codec-injection seam works against real formats,
    not just the deterministic stand-in; swap in Pillow/libsndfile via
    ``LibraryCodec`` for compressed formats."""

    def decode_image(self, payload, width=None, height=None):
        import struct
        if payload[:2] != b'BM':
            raise ValueError('not a BMP payload')
        data_off = struct.unpack_from('<I', payload, 10)[0]
        hdr_size, w, h, _planes, bpp = struct.unpack_from(
            '<IiiHH', payload, 14)
        comp = struct.unpack_from('<I', payload, 30)[0]
        if bpp != 24 or comp != 0:
            raise ValueError('StdlibCodec supports 24-bit BI_RGB only')
        bottom_up = h > 0
        h = abs(h)
        stride = (w * 3 + 3) & ~3
        raw = np.frombuffer(payload, dtype=np.uint8,
                            count=stride * h, offset=data_off)
        rows = raw.reshape(h, stride)[:, :w * 3].reshape(h, w, 3)
        if bottom_up:
            rows = rows[::-1]
        return rows[:, :, ::-1].copy()          # BGR -> RGB

    def decode_audio(self, payload, sample_rate=None):
        import io
        import wave
        with wave.open(io.BytesIO(payload), 'rb') as f:
            if f.getsampwidth() != 2 or f.getnchannels() != 1:
                raise ValueError(
                    'StdlibCodec supports 16-bit mono PCM only')
            pcm = np.frombuffer(
                f.readframes(f.getnframes()), dtype='<i2')
        return pcm.astype(np.float32) / 32768.0


class AudioFeaturizer:
    """Decode audio -> integral features (n_samples, and
    sum of squared int16 PCM values — an exact-integer RMS numerator,
    so the output is bit-checkable without float hashing)."""

    def __init__(self, codec=None):
        self.codec = codec if codec is not None else FakeCodec()

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column('media_id').to_pylist()
        payloads = batch.column('payload').to_pylist()
        rates = batch.column('sample_rate').to_pylist()
        n_samples, sumsq = [], []
        for payload, rate in zip(payloads, rates):
            samples = self.codec.decode_audio(payload, rate)
            pcm = np.clip(samples * 32768.0, -32768, 32767) \
                .astype(np.int64)
            n_samples.append(len(samples))
            sumsq.append(int((pcm * pcm).sum()))
        return pa.table({
            'media_id': pa.array(ids, type=pa.int64()),
            'n_samples': pa.array(n_samples, type=pa.int64()),
            'pcm_sumsq': pa.array(sumsq, type=pa.int64()),
        })


def featurize_audio(media_ds, codec=None, concurrency=4,
                    batch_size=16):
    return map_cached(media_ds, AudioFeaturizer, {'codec': codec},
                      concurrency, batch_size)


def synth_real_media(num_items, seed=23):
    """Deterministic table of REAL container payloads: alternating
    24-bit BMP images and 16-bit PCM WAV sine clips (stdlib encoders
    above) — the fixture generator for the real-codec path."""
    rows = []
    for i in range(num_items):
        rng = np.random.RandomState(seed * 99_991 + i)
        if i % 2 == 0:
            w = int(rng.choice([15, 16, 31, 32]))   # odd widths: padding
            h = int(rng.choice([8, 16, 24]))
            pixels = rng.randint(0, 256, size=(h, w, 3), dtype=np.uint8)
            rows.append({
                'media_id': i, 'kind': 'image',
                'payload': encode_bmp(pixels),
                'width': w, 'height': h, 'sample_rate': 0,
                'n_frames': 1})
        else:
            rate = 8000
            n = int(rng.randint(100, 400))
            freq = float(rng.randint(100, 1000))
            t = np.arange(n, dtype=np.float64) / rate
            samples = 0.5 * np.sin(2 * np.pi * freq * t)
            rows.append({
                'media_id': i, 'kind': 'audio',
                'payload': encode_wav(samples, rate),
                'width': 0, 'height': 0, 'sample_rate': rate,
                'n_frames': 1})
    return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)

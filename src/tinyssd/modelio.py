"""Weight persistence and initialization.

On disk a model is a TSSD container: half- or full-precision blobs with
length-prefixed names, so a corrupt payload can never misalign later
records. In memory weights are always float32; fp16 stores are widened on
load and all compute stays full precision.
"""

from __future__ import annotations

import math
import struct
import warnings

import numpy as np

from .arch import ArchSpec, param_manifest
from .errors import ConfigError, FormatError, MissingBlobError, ShapeError

MODEL_MAGIC = b"TSSD"
MODEL_VERSION = 1
FP16_MAX = 65504.0

# dtype name -> (on-disk tag, little-endian payload dtype)
_DTYPES = {"f16": (16, np.dtype("<f2")), "f32": (32, np.dtype("<f4"))}
_MAX_RANK = 32  # numpy's array rank limit before 2.0
_FILE_HEAD = struct.Struct("<4sII")  # magic, version, blob count


class WeightStore:
    """Ordered mapping from blob name to a float32 array."""

    def __init__(self, blobs=()):
        self._blobs: dict[str, np.ndarray] = {}
        items = blobs.items() if hasattr(blobs, "items") else blobs
        for name, arr in items:
            self.add(name, arr)

    def add(self, name: str, arr) -> None:
        if name in self._blobs:
            raise ShapeError(f"duplicate blob name {name!r}")
        self._blobs[name] = np.ascontiguousarray(arr, dtype=np.float32)

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._blobs[name]
        except KeyError:
            raise MissingBlobError(f"weight blob {name!r} not found in store") from None

    def __contains__(self, name) -> bool:
        return name in self._blobs

    def __iter__(self):
        return iter(self._blobs)

    def __len__(self) -> int:
        return len(self._blobs)

    def items(self):
        return self._blobs.items()

    def shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        return [(name, arr.shape) for name, arr in self._blobs.items()]

    @property
    def total_elements(self) -> int:
        return sum(arr.size for arr in self._blobs.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightStore):
            return NotImplemented
        if list(self) != list(other):
            return False
        return all(np.array_equal(self._blobs[k], other._blobs[k]) for k in self._blobs)


def quantize_fp16(store: WeightStore) -> WeightStore:
    """Round every value through IEEE binary16 (nearest-even) and widen back.

    Values beyond +-65504 are clamped to the fp16 range first; a single
    warning reports how many. Idempotent.
    """
    clamped = 0
    out = WeightStore()
    for name, arr in store.items():
        over = np.abs(arr) > FP16_MAX
        clamped += int(np.count_nonzero(over))
        clipped = np.clip(arr, -FP16_MAX, FP16_MAX) if over.any() else arr
        out.add(name, clipped.astype(np.float16).astype(np.float32))
    if clamped:
        warnings.warn(f"{clamped} value(s) clamped to the fp16 range (+-{FP16_MAX})")
    return out


def _blob_head(name: str, tag: int, shape) -> bytes:
    """A record's bytes before its payload: u16 name length, UTF-8 name, u8
    dtype tag, u8 rank, u32 dims. Refuses what load_weights would reject."""
    try:
        encoded = name.encode()
    except UnicodeEncodeError:
        raise FormatError(f"blob name {name!r} is not UTF-8") from None
    if len(encoded) > 0xFFFF:
        raise FormatError(f"blob name too long ({len(encoded)} bytes)")
    if len(shape) > _MAX_RANK:
        raise FormatError(f"rank {len(shape)} above {_MAX_RANK} for blob {name!r}")
    try:
        return struct.pack(f"<H{len(encoded)}sBB{len(shape)}I",
                           len(encoded), encoded, tag, len(shape), *shape)
    except struct.error:
        raise FormatError(f"shape {tuple(shape)} of blob {name!r} does not fit u32 dims") from None


def model_file_size(manifest, dtype: str) -> int:
    """Exact on-disk byte size of a model with the given blob manifest."""
    if dtype not in _DTYPES:
        raise FormatError(f"unknown dtype {dtype!r}, expected 'f16' or 'f32'")
    tag, payload_dtype = _DTYPES[dtype]
    return _FILE_HEAD.size + sum(len(_blob_head(name, tag, shape))
                                 + payload_dtype.itemsize * math.prod(shape)
                                 for name, shape in manifest)


def save_weights(store: WeightStore, path, dtype: str = "f32") -> None:
    """Serialize the store; dtype 'f16' stores quantized half-precision
    payloads. A store that load_weights would reject raises FormatError
    before the file is opened."""
    if dtype not in _DTYPES:
        raise FormatError(f"unknown dtype {dtype!r}, expected 'f16' or 'f32'")
    tag, payload_dtype = _DTYPES[dtype]
    if dtype == "f16":
        store = quantize_fp16(store)
    records = []
    for name, arr in store.items():
        head = _blob_head(name, tag, arr.shape)
        if not np.isfinite(arr).all():
            raise FormatError(f"non-finite value in blob {name!r}")
        records.append((head, arr.astype(payload_dtype)))
    with open(path, "wb") as f:
        f.write(_FILE_HEAD.pack(MODEL_MAGIC, MODEL_VERSION, len(records)))
        for head, payload in records:
            f.write(head)
            f.write(payload.tobytes())


def load_weights(path, manifest=None) -> WeightStore:
    """Read a TSSD file back into a float32 store.

    When a manifest is given, blob names, shapes, and order must match it
    exactly. A NaN or infinite value, or a second blob of the same name, is
    rejected with its blob and byte offset named.
    """
    with open(path, "rb") as f:
        raw = f.read()
    offset = 0

    def fail(at, why):
        raise FormatError(f"{path}: {why} at byte {at}")

    def take(size, what):
        """Offset of the next size bytes, which the cursor then steps past."""
        nonlocal offset
        if offset + size > len(raw):
            fail(offset, f"truncated {what}")
        offset += size
        return offset - size

    if raw[:4] != MODEL_MAGIC:
        fail(0, f"bad magic {raw[:4]!r}, expected {MODEL_MAGIC!r}")
    _, version, blob_count = _FILE_HEAD.unpack_from(raw, take(_FILE_HEAD.size, "header"))
    if version != MODEL_VERSION:
        fail(4, f"unsupported format version {version}")
    store = WeightStore()
    for _ in range(blob_count):
        record = take(2, "blob name length")
        (name_len,) = struct.unpack_from("<H", raw, record)
        at = take(name_len, "blob name")
        try:
            name = raw[at:at + name_len].decode("utf-8")
        except UnicodeDecodeError:
            fail(at, "blob name is not UTF-8")
        if name in store:
            fail(record, f"duplicate blob name {name!r}")
        at = take(2, f"dtype/rank for blob {name!r}")
        tag, rank = struct.unpack_from("<BB", raw, at)
        payload_dtype = next((d for t, d in _DTYPES.values() if t == tag), None)
        if payload_dtype is None:
            fail(at, f"unknown dtype tag {tag} for blob {name!r}")
        if rank > _MAX_RANK:
            fail(at + 1, f"rank {rank} above {_MAX_RANK} for blob {name!r}")
        dims_at = take(4 * rank, f"shape for blob {name!r}")
        shape = struct.unpack_from(f"<{rank}I", raw, dims_at)
        count = math.prod(shape)  # exact: a numpy product wraps around on huge dims
        at = take(count * payload_dtype.itemsize, f"payload for blob {name!r}")
        values = np.frombuffer(raw, dtype=payload_dtype, count=count, offset=at).astype(np.float32)
        finite = np.isfinite(values)
        if not finite.all():
            first = int(np.argmin(finite))
            fail(at + first * payload_dtype.itemsize, f"non-finite value in blob {name!r}")
        try:
            values = values.reshape(shape)
        except ValueError:  # an empty blob whose other dims multiply past numpy's limit
            fail(dims_at, f"shape {shape} too large for blob {name!r}")
        store.add(name, values)
    if offset != len(raw):
        fail(offset, f"{len(raw) - offset} trailing byte(s) after last blob")
    if manifest is not None:
        _check_manifest(store, manifest)
    return store


def _check_manifest(store: WeightStore, manifest) -> None:
    expected = [(name, tuple(shape)) for name, shape in manifest]
    got = [(name, tuple(shape)) for name, shape in store.shapes()]
    if got == expected:
        return
    want = dict(expected)
    for name, shape in got:
        if name not in want:
            raise ShapeError(f"unexpected blob {name!r} not in the architecture manifest")
        if shape != want[name]:
            raise ShapeError(f"blob {name!r} has shape {shape}, manifest expects {want[name]}")
    missing = [name for name, _ in expected if name not in store]
    if missing:
        raise MissingBlobError(f"weight blob {missing[0]!r} missing from file")
    raise ShapeError("blob order differs from the architecture manifest")


def init_random(spec: ArchSpec, seed: int) -> WeightStore:
    """Deterministic test-fixture weights from a seed >= 0: He-scaled normals, zero biases."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    store = WeightStore()
    for name, shape in param_manifest(spec):
        if name.endswith("/b"):
            store.add(name, np.zeros(shape, dtype=np.float32))
        else:
            fan_in = math.prod(shape[1:])
            scale = np.sqrt(2.0 / fan_in)
            store.add(name, rng.normal(0.0, scale, size=shape).astype(np.float32))
    return store


def quantization_error(original: WeightStore, quantized: WeightStore) -> tuple[float, float]:
    """(max, mean) absolute element-wise error between two aligned stores."""
    max_err = 0.0
    total = 0.0
    count = 0
    for name, arr in original.items():
        diff = np.abs(arr.astype(np.float64) - quantized[name].astype(np.float64))
        if diff.size:
            max_err = max(max_err, float(diff.max()))
            total += float(diff.sum())
            count += diff.size
    return max_err, (total / count if count else 0.0)

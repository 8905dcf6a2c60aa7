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


def _record_size(name: str, shape: tuple[int, ...], dtype: str) -> int:
    itemsize = _DTYPES[dtype][1].itemsize
    return 2 + len(name.encode()) + 1 + 1 + 4 * len(shape) + itemsize * math.prod(shape)


def model_file_size(manifest, dtype: str) -> int:
    """Exact on-disk byte size of a model with the given blob manifest."""
    if dtype not in _DTYPES:
        raise FormatError(f"unknown dtype {dtype!r}, expected 'f16' or 'f32'")
    return 12 + sum(_record_size(name, tuple(shape), dtype) for name, shape in manifest)


def save_weights(store: WeightStore, path, dtype: str = "f32") -> None:
    """Serialize the store; dtype 'f16' stores quantized half-precision payloads."""
    if dtype not in _DTYPES:
        raise FormatError(f"unknown dtype {dtype!r}, expected 'f16' or 'f32'")
    tag, payload_dtype = _DTYPES[dtype]
    if dtype == "f16":
        store = quantize_fp16(store)
    with open(path, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<II", MODEL_VERSION, len(store)))
        for name, arr in store.items():
            encoded = name.encode()
            if len(encoded) > 0xFFFF:
                raise FormatError(f"blob name too long ({len(encoded)} bytes)")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<BB", tag, arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype(payload_dtype).tobytes())


def load_weights(path, manifest=None) -> WeightStore:
    """Read a TSSD file back into a float32 store.

    When a manifest is given, blob names, shapes, and order must match it
    exactly. A NaN or infinite value is rejected with its blob and byte
    offset named.
    """
    with open(path, "rb") as f:
        raw = f.read()

    def fail(offset, why):
        raise FormatError(f"{path}: {why} at byte {offset}")

    if raw[:4] != MODEL_MAGIC:
        fail(0, f"bad magic {raw[:4]!r}, expected {MODEL_MAGIC!r}")
    if len(raw) < 12:
        fail(len(raw), "truncated header")
    version, blob_count = struct.unpack_from("<II", raw, 4)
    if version != MODEL_VERSION:
        fail(4, f"unsupported format version {version}")
    offset = 12
    store = WeightStore()
    for _ in range(blob_count):
        if offset + 2 > len(raw):
            fail(offset, "truncated blob name length")
        (name_len,) = struct.unpack_from("<H", raw, offset)
        offset += 2
        if offset + name_len > len(raw):
            fail(offset, "truncated blob name")
        name = raw[offset:offset + name_len].decode("utf-8", errors="replace")
        offset += name_len
        if offset + 2 > len(raw):
            fail(offset, f"truncated dtype/rank for blob {name!r}")
        tag, rank = struct.unpack_from("<BB", raw, offset)
        offset += 2
        payload_dtype = next((d for t, d in _DTYPES.values() if t == tag), None)
        if payload_dtype is None:
            fail(offset - 2, f"unknown dtype tag {tag} for blob {name!r}")
        if rank > _MAX_RANK:
            fail(offset - 1, f"rank {rank} above {_MAX_RANK} for blob {name!r}")
        if offset + 4 * rank > len(raw):
            fail(offset, f"truncated shape for blob {name!r}")
        shape = struct.unpack_from(f"<{rank}I", raw, offset)
        offset += 4 * rank
        count = math.prod(shape)  # exact: a numpy product wraps around on huge dims
        nbytes = count * payload_dtype.itemsize
        if offset + nbytes > len(raw):
            fail(offset, f"truncated payload for blob {name!r}")
        payload = np.frombuffer(raw, dtype=payload_dtype, count=count, offset=offset)
        values = payload.astype(np.float32)
        finite = np.isfinite(values)
        if not finite.all():
            first = int(np.argmin(finite))
            fail(offset + first * payload_dtype.itemsize, f"non-finite value in blob {name!r}")
        offset += nbytes
        store.add(name, values.reshape(shape))
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

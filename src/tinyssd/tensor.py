"""Dense rank-4 activation tensor (batch, channel, height, width) and its raw file format."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ShapeError

TNSR_MAGIC = b"TNSR"


@dataclass(frozen=True)
class Tensor:
    """Immutable NCHW activation tensor backed by a contiguous float32 array.

    All four extents are >= 1 and ``data`` holds exactly n*c*h*w values in
    row-major order (width fastest). Instances are treated as read-only and
    are safe to share across threads.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float32)
        if arr.ndim != 4:
            raise ShapeError(f"tensor must be rank 4 (n,c,h,w), got rank {arr.ndim}")
        if min(arr.shape) < 1:
            raise ShapeError(f"tensor extents must all be >= 1, got {arr.shape}")
        object.__setattr__(self, "data", arr)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def c(self) -> int:
        return self.data.shape[1]

    @property
    def h(self) -> int:
        return self.data.shape[2]

    @property
    def w(self) -> int:
        return self.data.shape[3]


def write_tnsr(t: Tensor, path) -> None:
    """Write a tensor as magic + four u32 LE extents + f32 LE payload."""
    with open(path, "wb") as f:
        f.write(TNSR_MAGIC)
        f.write(struct.pack("<4I", *t.shape))
        f.write(t.data.astype("<f4").tobytes())


def read_tnsr(path) -> Tensor:
    """Read a tensor written by :func:`write_tnsr`; NaN or infinite values
    are rejected, naming the byte offset of the first."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != TNSR_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r} at byte 0, expected {TNSR_MAGIC!r}")
    if len(raw) < 20:
        raise FormatError(f"{path}: truncated header at byte {len(raw)}")
    n, c, h, w = struct.unpack_from("<4I", raw, 4)
    if min(n, c, h, w) < 1:
        raise FormatError(f"{path}: non-positive extent in header ({n},{c},{h},{w})")
    count = n * c * h * w
    expected = 20 + 4 * count
    if len(raw) != expected:
        raise FormatError(
            f"{path}: payload ends at byte {len(raw)}, expected {expected} for shape ({n},{c},{h},{w})"
        )
    data = np.frombuffer(raw, dtype="<f4", count=count, offset=20)
    finite = np.isfinite(data)
    if not finite.all():
        raise FormatError(f"{path}: non-finite value at byte {20 + 4 * int(np.argmin(finite))}")
    return Tensor(data.reshape(n, c, h, w))

"""The five numeric kernels every layer of the network is built from, and
the conv and pooling geometry they take.

conv2d builds a float32 im2col matrix and multiplies it in float32, in
K-slices of at most GEMM_K_CHUNK rows added in a fixed ascending order, so
its output does not depend on the BLAS thread count; maxpool2d is an
elementwise max over the kh*kw strided window taps. Activations are stored
as float32. All functions are pure.
"""

from __future__ import annotations

from dataclasses import Field, dataclass, field, fields
from functools import cache
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GeometryError, ShapeError, SpecError
from .tensor import Tensor


def dump_key(f: Field) -> str:
    """A field's key in a spec dump: its "key" metadata, else its name."""
    return f.metadata.get("key", f.name)


def _type_test(hint):
    """Test of a value against a resolved annotation: a class, a union,
    tuple[X, ...] or a fixed-length tuple; TypeError for any other."""
    origin, args = get_origin(hint), get_args(hint)
    if isinstance(hint, type) and origin is None:  # bool subclasses int; True is no count
        return lambda v: isinstance(v, hint) and (hint is bool or not isinstance(v, bool))
    tests = [_type_test(a) for a in args if a is not Ellipsis]
    if origin is UnionType:
        return lambda v: any(t(v) for t in tests)
    if origin is tuple and args[-1] is Ellipsis:
        return lambda v: isinstance(v, tuple) and all(map(tests[0], v))
    if origin is tuple:
        return lambda v: (isinstance(v, tuple) and len(v) == len(tests)
                          and all(t(x) for t, x in zip(tests, v)))
    raise TypeError(f"no type check for field annotation {hint!r}")


@cache
def _field_tests(cls) -> tuple:
    """(name, dump key, annotation text, test) of each field, resolved once per class."""
    hints = get_type_hints(cls)
    return tuple((f.name, dump_key(f), f.type, _type_test(hints[f.name])) for f in fields(cls))


class TypedFields:
    """Base of the spec dataclasses: on construction, SpecError names the first field
    whose value does not fit its annotation. A subclass's __post_init__ calls it first."""

    def __post_init__(self):
        for name, key, annotation, fits in _field_tests(type(self)):
            if not fits(value := getattr(self, name)):
                raise SpecError(f"{type(self).__name__} field {key!r} must be {annotation}, got {value!r}")


@dataclass(frozen=True)
class ConvSpec(TypedFields):
    """Geometry of one convolution layer (weights live in the WeightStore)."""

    out_channels: int
    kernel: tuple[int, int] = (3, 3)
    stride: int = 1
    pad: int = 1
    has_bias: bool = field(default=True, metadata={"key": "bias"})
    activation: str = "relu"  # "relu" or "none"

    def __post_init__(self):
        super().__post_init__()
        if min(self.kernel) < 1:
            raise SpecError(f"ConvSpec field 'kernel' must be two ints >= 1, got {self.kernel!r}")
        if self.out_channels < 1 or self.stride < 1 or self.pad < 0:
            raise SpecError(f"invalid conv geometry: {self}")
        if self.activation not in ("relu", "none"):
            raise SpecError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class PoolSpec(TypedFields):
    """Geometry of one max-pooling layer."""

    kernel: tuple[int, int] = (3, 3)
    stride: int = 2
    rounding: str = "ceil"

    def __post_init__(self):
        super().__post_init__()
        if min(self.kernel) < 1:
            raise SpecError(f"PoolSpec field 'kernel' must be two ints >= 1, got {self.kernel!r}")
        if self.stride < 1:
            raise SpecError(f"invalid pool geometry: {self}")
        if self.rounding not in ("ceil", "floor"):
            raise SpecError(f"pool rounding must be 'ceil' or 'floor', got {self.rounding!r}")


def conv_out_extent(in_extent: int, kernel: int, stride: int, pad: int) -> int:
    """Floor-mode output extent of a convolution along one axis."""
    return (in_extent + 2 * pad - kernel) // stride + 1


def pool_out_extent(in_extent: int, kernel: int, stride: int, rounding: str) -> int:
    """Output extent of a pooling window sweep; ceil mode clips border windows.

    A ceil-mode window must still start inside the input, otherwise it would
    be empty; the count is reduced when the rounded-up formula overshoots.
    """
    if rounding == "ceil":
        out = -((-(in_extent - kernel)) // stride) + 1
        if out > 1 and (out - 1) * stride >= in_extent:
            out -= 1
        return out
    return (in_extent - kernel) // stride + 1


def out_extents(g: ConvSpec | PoolSpec, h: int, w: int, layer: str) -> tuple[int, int]:
    """Output height and width of a conv or pool over an h x w input; the one
    place a geometry that leaves no output is refused, with GeometryError."""
    if isinstance(g, ConvSpec):
        out_h, out_w = (conv_out_extent(n, k, g.stride, g.pad) for n, k in zip((h, w), g.kernel))
    else:
        out_h, out_w = (pool_out_extent(n, k, g.stride, g.rounding) for n, k in zip((h, w), g.kernel))
    if out_h < 1 or out_w < 1:
        raise GeometryError(f"{layer}: {g} on {h}x{w} input gives non-positive output {out_h}x{out_w}")
    return out_h, out_w


# Largest K (input channels x kernel taps) that one float32 GEMM call sums
# over. With one GEMM over the whole K, OpenBLAS 0.3.31 rounded the fire4
# heads (K = 1557) differently with 1 and 2 threads; K-slices of at most 512,
# added in ascending order, were byte-identical, and slices of 1024 were not.
# Timed over the whole forward pass on a 2-vCPU host, 256, 512 and 1024 were
# within 5% of each other, so the largest size that stayed identical is used.
GEMM_K_CHUNK = 512


def conv2d(x: Tensor, g: ConvSpec, weights, bias=None, layer: str = "conv") -> Tensor:
    """Cross-correlate x with (out_channels, in_channels, kh, kw) weights over a
    zero-padded input; a missing bias adds zeros."""
    n, c, h, w = x.shape
    kh, kw = g.kernel
    oc = g.out_channels
    weights = np.asarray(weights, dtype=np.float32)
    bias = np.zeros(oc, dtype=np.float32) if bias is None else np.asarray(bias, dtype=np.float32)
    if weights.shape != (oc, c, kh, kw):
        raise ShapeError(
            f"{layer}: weights shape {weights.shape}, expected {(oc, c, kh, kw)} "
            f"for {oc} filters of {kh}x{kw} over {c} input channels"
        )
    if bias.shape != (oc,):
        raise ShapeError(f"{layer}: bias shape {bias.shape}, expected ({oc},)")
    out_h, out_w = out_extents(g, h, w, layer)

    data = x.data
    if g.pad:
        data = np.pad(data, ((0, 0), (0, 0), (g.pad, g.pad), (g.pad, g.pad)))
    windows = sliding_window_view(data, (kh, kw), axis=(2, 3))[:, :, :: g.stride, :: g.stride]
    # (n, c, oh, ow, kh, kw) -> (n, c*kh*kw, oh*ow)
    k = c * kh * kw
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, k, out_h * out_w)
    filt = weights.reshape(oc, k)
    out = np.matmul(filt[:, :GEMM_K_CHUNK], cols[:, :GEMM_K_CHUNK])
    for start in range(GEMM_K_CHUNK, k, GEMM_K_CHUNK):
        stop = start + GEMM_K_CHUNK
        out += np.matmul(filt[:, start:stop], cols[:, start:stop])
    out += bias[:, None]
    return Tensor(out.reshape(n, oc, out_h, out_w))


def maxpool2d(x: Tensor, g: PoolSpec, layer: str = "pool") -> Tensor:
    """Max over each (possibly border-clipped) pooling window."""
    n, c, h, w = x.shape
    kh, kw = g.kernel
    out_h, out_w = out_extents(g, h, w, layer)
    # Fold the kh*kw strided taps together. Every window starts inside the
    # input; a -inf pad on the right and bottom clips the border ones, since it
    # never wins a max, and np.maximum still propagates NaN.
    s = g.stride
    span_h, span_w = (out_h - 1) * s + 1, (out_w - 1) * s + 1
    data = x.data
    pad_h, pad_w = max(span_h + kh - 1 - h, 0), max(span_w + kw - 1 - w, 0)
    if pad_h or pad_w:
        data = np.pad(data, ((0, 0), (0, 0), (0, pad_h), (0, pad_w)), constant_values=-np.inf)
    out = data[:, :, :span_h:s, :span_w:s].copy()
    for dy in range(kh):
        for dx in range(kw):
            if dy or dx:
                np.maximum(out, data[:, :, dy : dy + span_h : s, dx : dx + span_w : s], out=out)
    return Tensor(out)


def concat_channels(parts: list[Tensor], layer: str = "concat") -> Tensor:
    """Concatenate tensors along the channel axis; parts appear in argument order."""
    if not parts:
        raise ShapeError(f"{layer}: nothing to concatenate")
    first = parts[0]
    for i, part in enumerate(parts[1:], start=1):
        if part.n != first.n or part.h != first.h or part.w != first.w:
            raise ShapeError(
                f"{layer}: part {i} has shape {part.shape}, "
                f"incompatible with part 0 shape {first.shape}"
            )
    if len(parts) == 1:
        return first
    return Tensor(np.concatenate([part.data for part in parts], axis=1))


def relu(x: Tensor) -> Tensor:
    return Tensor(np.maximum(x.data, 0.0))


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a (rows, classes) score array, max-shifted for stability."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2:
        raise ShapeError(f"softmax_rows expects a 2-D array, got rank {s.ndim}")
    with np.errstate(invalid="ignore"):  # a +inf or all -inf row becomes NaN
        shifted = s - s.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)

"""Forward execution of an ArchSpec over a WeightStore."""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass

import numpy as np

from .arch import INPUT_NAME, ArchSpec, FireConfig, LayerSpec, lower
from .errors import ShapeError, SpecError, TinySSDError
from .ops import concat_channels, conv2d, maxpool2d, relu
from .tensor import Tensor


@dataclass(frozen=True)
class HeadOutput:
    """Gathered multibox predictions: loc (n, priors, 4) and conf logits
    (n, priors, classes), rows ordered scale-major then row-major spatial
    with the per-cell prior index innermost."""

    loc: np.ndarray
    conf: np.ndarray


def _run_step(step, inputs: list[Tensor], store) -> Tensor:
    g = step.geometry
    if step.op == "conv":
        out = conv2d(inputs[0], g, *(store[n] for n, _ in step.blobs), layer=step.name)
        return relu(out) if g.activation == "relu" else out
    if step.op == "pool":
        return maxpool2d(inputs[0], g, layer=step.name)
    return concat_channels(inputs, layer=step.name)


def activations(spec: ArchSpec, store, image: Tensor) -> dict[str, Tensor]:
    """Run every layer in declared order and return all named outputs.

    The outputs of a layer's inner steps, such as a fire module's squeeze,
    are dropped when the layer finishes. Any failure is reported with the
    offending layer's name.
    """
    computed = {INPUT_NAME: image}
    # lowered at the image's own size, so the static extent checks match it
    for name, steps in lower(spec, image.h):
        scope = ChainMap({}, computed)
        try:
            for step in steps:
                scope[step.name] = _run_step(step, [scope[i] for i in step.inputs], store)
        except TinySSDError as e:
            if str(e).startswith(name):
                raise
            raise type(e)(f"{name}: {e}") from None
        computed[name] = scope[name]
    return computed


def fire_forward(x: Tensor, cfg: FireConfig, store, name: str = "fire") -> Tensor:
    """Squeeze to cfg.squeeze channels, then concatenate the two expand paths.

    ``store`` must hold ``<name>/squeeze``, ``<name>/expand1x1`` and
    ``<name>/expand3x3`` weight/bias blobs. Spatial extents are preserved;
    output channels are expand1x1 + expand3x3.
    """
    layer = LayerSpec(name, cfg, (INPUT_NAME,))
    spec = ArchSpec(layers=(layer,), input_size=x.h, input_channels=x.c)
    return activations(spec, store, x)[name]


def _prior_rows(t: Tensor, width: int, name: str) -> np.ndarray:
    """(n, b*width, h, w) -> (n, h*w*b, width) with prior index innermost."""
    n, c, h, w = t.shape
    if c % width:
        raise ShapeError(f"{name}: {c} channels not divisible by {width} values per prior")
    b = c // width
    return t.data.transpose(0, 2, 3, 1).reshape(n, h * w * b, width)


def forward(spec: ArchSpec, store, image: Tensor) -> HeadOutput:
    """Full forward pass; conf logits are returned un-softmaxed."""
    if not spec.heads:
        raise SpecError("spec declares no detection heads")
    want = (spec.input_channels, spec.input_size, spec.input_size)
    if image.shape[1:] != want:
        raise ShapeError(f"input image shape {image.shape[1:]} != expected {want}")
    # A finite but huge input can overflow float32 or meet inf - inf in a GEMM.
    # detect never emits a row made non-finite that way, so no warning is due.
    with np.errstate(over="ignore", invalid="ignore"):
        acts = activations(spec, store, image)
    loc = [_prior_rows(acts[h.loc], 4, h.loc) for h in spec.heads]
    conf = [_prior_rows(acts[h.conf], spec.class_count, h.conf) for h in spec.heads]
    return HeadOutput(loc=np.concatenate(loc, axis=1), conf=np.concatenate(conf, axis=1))

"""Forward execution of an ArchSpec over a WeightStore."""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass

import numpy as np

from .arch import INPUT_NAME, ArchSpec, lower
from .errors import ShapeError, SpecError
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

    The image must be (n, input_channels, input_size, input_size) of the
    spec. The outputs of a layer's inner steps, such as a fire module's
    squeeze, are dropped when the layer finishes. Any failure names the
    offending step or weight blob, whose name starts with its layer's.
    """
    want = (spec.input_channels, spec.input_size, spec.input_size)
    if image.shape[1:] != want:
        raise ShapeError(f"input image shape {image.shape[1:]} != expected {want}")
    computed = {INPUT_NAME: image}
    for name, steps in lower(spec):
        scope = ChainMap({}, computed)
        for step in steps:
            scope[step.name] = _run_step(step, [scope[i] for i in step.inputs], store)
        computed[name] = scope[name]
    return computed


def _prior_rows(t: Tensor, width: int) -> np.ndarray:
    """(n, b*width, h, w) -> (n, h*w*b, width) with prior index innermost."""
    n, c, h, w = t.shape
    return t.data.transpose(0, 2, 3, 1).reshape(n, h * w * c // width, width)


def forward(spec: ArchSpec, store, image: Tensor) -> HeadOutput:
    """Full forward pass; conf logits are returned un-softmaxed."""
    if not spec.heads:
        raise SpecError("spec declares no detection heads")
    # A finite but huge input can overflow float32 or meet inf - inf in a GEMM.
    # detect never emits a row made non-finite that way, so no warning is due.
    with np.errstate(over="ignore", invalid="ignore"):
        acts = activations(spec, store, image)
    loc = [_prior_rows(acts[h.loc], 4) for h in spec.heads]
    conf = [_prior_rows(acts[h.conf], spec.class_count) for h in spec.heads]
    return HeadOutput(loc=np.concatenate(loc, axis=1), conf=np.concatenate(conf, axis=1))

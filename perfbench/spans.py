"""Spans recorded from outside the program, around calls into its modules.

Each traced function is replaced where its caller looks it up: ``network``
imports the ops kernels by name, ``cli`` imports ``forward``,
``param_manifest`` and ``read_tnsr`` by name, ``priors`` calls
``softmax_rows``, ``decode_boxes`` and ``nms_per_class`` as module globals,
and ``cli`` reaches the rest through their modules. Patching
``tinyssd.ops.conv2d`` alone would therefore miss every call the network
makes. The originals are restored when the tracer's context exits.

Spans are kept in memory; ``request_metrics`` turns one request's spans
into the per-layer metrics. Only calls made on the thread that started the
request are traced: no traced function runs on the eval worker pool.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

ROOT = "cli.main"

# (module the caller looks the name up in, attribute, span name)
TRACE_POINTS = (
    ("tinyssd.cli", "forward", "network.forward"),
    ("tinyssd.cli", "param_manifest", "arch.param_manifest"),
    ("tinyssd.cli", "read_tnsr", "tensor.read_tnsr"),
    ("tinyssd.network", "conv2d", "ops.conv2d"),
    ("tinyssd.network", "maxpool2d", "ops.maxpool2d"),
    ("tinyssd.network", "relu", "ops.relu"),
    ("tinyssd.network", "concat_channels", "ops.concat_channels"),
    ("tinyssd.priors", "detect", "priors.detect"),
    ("tinyssd.priors", "generate_priors", "priors.generate_priors"),
    ("tinyssd.priors", "nms_per_class", "priors.nms"),
    ("tinyssd.priors", "softmax_rows", "priors.softmax_rows"),
    ("tinyssd.priors", "decode_boxes", "priors.decode_boxes"),
    ("tinyssd.modelio", "load_weights", "modelio.load_weights"),
    ("tinyssd.image", "read_ppm", "image.read_ppm"),
    ("tinyssd.image", "preprocess_image", "image.preprocess_image"),
    ("tinyssd.voceval", "load_annotation_dir", "voceval.load_annotation_dir"),
    ("tinyssd.voceval", "parse_detection_lines", "voceval.parse_detection_lines"),
    ("tinyssd.voceval", "evaluate", "voceval.evaluate"),
)

# Every traced function reports "<span name>_ms", its summed time per request.
TIMED = tuple(name for _, _, name in TRACE_POINTS)
_OPS = ("ops.conv2d", "ops.maxpool2d", "ops.relu", "ops.concat_channels")


def _conv_info(args, kwargs, result):
    x, p = args[0], args[1]
    n, out_c, out_h, out_w = result.shape
    kh, kw = p.kernel
    return {"macs": n * out_h * out_w * out_c * x.c * kh * kw, "kernel": kh}


_INFO = {
    "ops.conv2d": _conv_info,
    "priors.nms": lambda args, kwargs, kept: {"candidates": len(args[0]), "kept": len(kept)},
    "priors.detect": lambda args, kwargs, found: {"emitted": len(found)},
}


@dataclass
class Span:
    request: int
    name: str
    layer: str | None  # the ``layer=`` argument of an ops kernel
    index: int  # position in Tracer.spans
    parent: int | None  # index of the enclosing span
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Records one span per call of every TRACE_POINTS function."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request_id = -1
        self._stack: list[int] = []

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        span = Span(self.request_id, name, layer, len(self.spans), parent)
        self.spans.append(span)
        self._stack.append(span.index)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:  # a call from outside any request
                return fn(*args, **kwargs)
            span = self._open(name, kwargs.get("layer"))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every trace point for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in TRACE_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextmanager
    def request(self):
        """One request: a fresh request id under a root span."""
        self.request_id += 1
        span = self._open(ROOT, None)
        try:
            yield span
        finally:
            self._close(span)

    def by_request(self) -> list[list[Span]]:
        grouped: dict[int, list[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.request, []).append(span)
        return [grouped[r] for r in sorted(grouped)]


def _spec_layer(span: Span, last_conv: str | None) -> str | None:
    """Spec layer an ops span belongs to. Fire sub-convs are named
    ``<fire>/<branch>``; relu takes no ``layer=`` and always follows the
    conv it activates."""
    if span.name == "ops.relu":
        return last_conv
    return span.layer.split("/")[0] if span.layer else None


def _gmac_s(macs: float, ms: float) -> float:
    return macs / (ms * 1e6) if ms > 0 else 0.0


def request_metrics(spans: list[Span], layer_macs: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one request from its spans, root span first.

    ``layer_macs`` maps every spec layer to its audited MACs.
    """
    root = spans[0]
    m = {f"{name}_ms": 0.0 for name in TIMED}
    for span in spans[1:]:
        m[f"{span.name}_ms"] += span.ms
    m["network.self_ms"] = m["network.forward_ms"] - sum(m[f"{name}_ms"] for name in _OPS)
    m["cli.self_ms"] = root.ms - sum(s.ms for s in spans if s.parent == root.index)
    m["voceval.match_ms"] = m["voceval.evaluate_ms"] - m["voceval.parse_detection_lines_ms"]

    layer_ms = dict.fromkeys(layer_macs, 0.0)
    conv = {1: [0.0, 0], 3: [0.0, 0]}  # kernel extent -> [ms, MACs]
    last_conv = None
    for span in spans:
        if span.name not in _OPS:
            continue
        if span.name == "ops.conv2d":
            last_conv = _spec_layer(span, None)
            conv[span.info["kernel"]][0] += span.ms
            conv[span.info["kernel"]][1] += span.info["macs"]
        layer_ms[_spec_layer(span, last_conv)] += span.ms
    m["ops.conv2d_gmac_s"] = _gmac_s(conv[1][1] + conv[3][1], m["ops.conv2d_ms"])
    for k, (ms, macs) in conv.items():
        m[f"ops.conv{k}x{k}_ms"] = ms
        m[f"ops.conv{k}x{k}_gmac_s"] = _gmac_s(macs, ms)
    for name, macs in layer_macs.items():
        m[f"layer.{name}.ms"] = layer_ms[name]
        if macs:
            m[f"layer.{name}.gmac_s"] = _gmac_s(macs, layer_ms[name])

    nms = [s.info for s in spans if s.name == "priors.nms"]
    candidates = sum(i["candidates"] for i in nms)
    kept = sum(i["kept"] for i in nms)
    m["priors.nms_candidates"] = candidates
    m["priors.nms_kept"] = kept
    m["priors.nms_keep_ratio"] = kept / candidates if candidates else 0.0
    m["priors.nms_max_class_candidates"] = max((i["candidates"] for i in nms), default=0)
    m["priors.emitted"] = sum(s.info["emitted"] for s in spans if s.name == "priors.detect")
    return m


def median_metrics(per_request: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in per_request) for k in per_request[0]}

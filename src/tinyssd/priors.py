"""Default-box generation over the six detection scales, offset decoding,
and NMS-based post-processing into final detections."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arch import (ASPECT_RATIOS, DEFAULT_BOX_SIZES, VOC_CLASSES, ArchSpec,
                   check_prior_layout, intermediate_shapes)
from .errors import ConfigError, ShapeError
from .network import HeadOutput
from .ops import TypedFields, softmax_rows

DEFAULT_VARIANCES = (0.1, 0.2)
# nms_per_class first walks the best _PREFIX * max_keep boxes. With the seed-7
# model, on unit-variance 300x300 tensors and on noise frames at the channel
# means, the 200th kept box came at visit 454-476: 2.3-2.4 times top_k 200.
_PREFIX = 4


@dataclass(frozen=True)
class PriorConfig(TypedFields):
    """Prior layout: (feature-map side, priors per cell) per scale, large maps
    first, checked by arch.check_prior_layout; scale k takes sizes k and k + 1
    of arch.DEFAULT_BOX_SIZES."""

    scales: tuple[tuple[int, int], ...]
    input_size: int

    def __post_init__(self):
        super().__post_init__()
        check_prior_layout(self.scales, self.input_size)


@dataclass(frozen=True)
class PriorSet:
    """All default boxes, (total, 4) normalized corners clipped to [0, 1]."""

    boxes: np.ndarray

    def __len__(self):
        return self.boxes.shape[0]


@dataclass(frozen=True)
class Detection:
    class_id: int  # 1..20; background 0 never appears
    score: float
    box: tuple[float, float, float, float]  # xmin, ymin, xmax, ymax in [0, 1]

    @property
    def class_name(self) -> str:
        return VOC_CLASSES[self.class_id - 1]


def tiny_ssd_prior_config(spec: ArchSpec) -> PriorConfig:
    """Prior layout of a spec's heads, which lower has checked; ConfigError if it has none."""
    shapes = dict(intermediate_shapes(spec))
    return PriorConfig(tuple((shapes[h.source][1], h.priors_per_cell) for h in spec.heads),
                       spec.input_size)


def generate_priors(cfg: PriorConfig) -> PriorSet:
    """Lay out default boxes cell by cell, prior index innermost within a cell."""
    rows = []
    for (f, per_cell), min_size, max_size in zip(cfg.scales, DEFAULT_BOX_SIZES,
                                                 DEFAULT_BOX_SIZES[1:]):
        s_min = min_size / cfg.input_size
        s_geo = math.sqrt(min_size * max_size) / cfg.input_size
        sizes = [(s_min, s_min), (s_geo, s_geo)]
        for a in ASPECT_RATIOS[per_cell]:
            r = math.sqrt(a)
            sizes.append((s_min * r, s_min / r))
            sizes.append((s_min / r, s_min * r))
        cell = np.array(sizes, dtype=np.float64)  # (b, 2) widths/heights
        jj, ii = np.meshgrid(np.arange(f), np.arange(f))
        cx = ((jj + 0.5) / f).reshape(-1, 1)
        cy = ((ii + 0.5) / f).reshape(-1, 1)
        w = cell[:, 0].reshape(1, -1)
        h = cell[:, 1].reshape(1, -1)
        corners = np.stack(
            [cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=2
        )  # (cells, b, 4)
        rows.append(corners.reshape(-1, 4))
    boxes = np.clip(np.concatenate(rows, axis=0), 0.0, 1.0)
    return PriorSet(boxes=boxes)


def _center_form(boxes: np.ndarray):
    cx = (boxes[:, 0] + boxes[:, 2]) / 2
    cy = (boxes[:, 1] + boxes[:, 3]) / 2
    w = boxes[:, 2] - boxes[:, 0]
    h = boxes[:, 3] - boxes[:, 1]
    return cx, cy, w, h


def decode_boxes(loc: np.ndarray, priors: PriorSet, clip: bool = True) -> np.ndarray:
    """Apply predicted center/size offsets to the priors; corner-form result.

    loc rows must be finite; rows that are not are rejected with the first
    offending index named. A finite size offset so large that its exp
    overflows decodes to an infinite extent, which clipping bounds to the
    frame.
    """
    loc = np.asarray(loc, dtype=np.float64)
    if loc.ndim != 2 or loc.shape[1] != 4:
        raise ShapeError(f"loc must be (priors, 4), got {loc.shape}")
    if loc.shape[0] != len(priors):
        raise ShapeError(f"{loc.shape[0]} loc rows for {len(priors)} priors")
    finite = np.isfinite(loc).all(axis=1)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise ShapeError(f"non-finite offsets rejected (first at row {bad})")
    v0, v1 = DEFAULT_VARIANCES
    pcx, pcy, pw, ph = _center_form(priors.boxes)
    cx = pcx + loc[:, 0] * v0 * pw
    cy = pcy + loc[:, 1] * v0 * ph
    with np.errstate(over="ignore"):
        w = pw * np.exp(loc[:, 2] * v1)
        h = ph * np.exp(loc[:, 3] * v1)
    out = np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1)
    if clip:
        out = np.clip(out, 0.0, 1.0)
    return out


def iou(a, b) -> np.ndarray:
    """Intersection-over-union of corner-form boxes: (..., 4) arrays
    broadcast against each other, 0 where boxes do not overlap."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(inter > 0, inter / (area_a + area_b - inter), 0.0)


def nms_per_class(scores: np.ndarray, boxes: np.ndarray, iou_threshold: float,
                  max_keep: int | None = None, classes: np.ndarray | None = None) -> list[int]:
    """Greedy suppression within each class; returns kept indices into the
    input arrays in output order: descending score, then class label, then
    index. Without classes every box is of one class.

    A box is kept iff its IoU with every kept box of its class that ranks
    above it is <= the threshold. The walk visits boxes in output order, so
    those rivals have all been decided before it; each kept box drops the
    later boxes of its class that it overlaps with one IoU row. With
    max_keep, the walk stops after that many kept boxes in total, which
    equals the first max_keep of the full result.

    The walk first visits only the best 4 * max_keep scores and every
    score tied with the last of them: it sorts and gathers only that
    prefix, and each IoU row spans only the prefix members of its class. A
    prefix holds every box that ranks above one of its members, so its
    decisions are those of the full walk. Only if it keeps fewer than
    max_keep boxes, or the cut falls on a NaN score, does the walk run
    again over every box. A negative max_keep or an iou_threshold outside
    [0, 1] raises ConfigError.
    """
    neg = -np.asarray(scores, dtype=np.float64)
    n = len(neg)
    labels = np.zeros(n, dtype=np.int64) if classes is None else np.asarray(classes)
    boxes = np.asarray(boxes)
    if neg.ndim != 1 or boxes.shape != (n, 4) or labels.shape != (n,):
        raise ShapeError(f"nms needs (n,) scores, (n, 4) boxes and (n,) classes; got "
                         f"{neg.shape}, {boxes.shape} and {labels.shape}")
    if max_keep is not None and max_keep < 0:
        raise ConfigError(f"max_keep must be >= 0, got {max_keep}")
    _check_iou_threshold(iou_threshold)
    limit = n if max_keep is None else max_keep
    if limit == 0:
        return []
    if _PREFIX * limit < n:
        cut = np.partition(neg, _PREFIX * limit - 1)[_PREFIX * limit - 1]  # NaN sorts last
        first = np.flatnonzero(neg <= cut)  # empty when the cut is NaN
        if 0 < len(first) < n:
            run = first[np.lexsort((neg[first], labels[first]))]
            kept = _walk(neg[run], boxes[run], labels[run], iou_threshold, limit)
            if len(kept) == limit:
                return run[kept].tolist()
        del first  # n indices when every score ties: free them before the full walk
    run = np.lexsort((neg, labels))
    boxes = boxes[run]  # drops the last reference to a temporary input, as detect passes
    return run[_walk(neg[run], boxes, labels[run], iou_threshold, limit)].tolist()


def _walk(neg, boxes, labels, iou_threshold, limit) -> list[int]:
    """nms_per_class's greedy walk over boxes in class-major order, each
    class in rank order; returns the kept positions in output order."""
    alive = np.ones(len(neg), dtype=bool)
    kept: list[int] = []
    for p in np.argsort(neg, kind="stable"):  # class-major: ties go by class
        if len(kept) >= limit:
            break
        if not alive[p]:
            continue
        kept.append(int(p))
        end = np.searchsorted(labels, labels[p], side="right")
        alive[p + 1:end] &= iou(boxes[p:p + 1], boxes[p + 1:end]) <= iou_threshold
    return kept


def _check_iou_threshold(iou_threshold: float) -> None:
    if not 0 <= iou_threshold <= 1:  # NaN fails too
        raise ConfigError(f"iou_threshold must be in [0, 1], got {iou_threshold}")


def check_thresholds(conf_threshold: float, iou_threshold: float, top_k: int) -> None:
    """Raise ConfigError unless detect can run with these settings: a finite
    conf_threshold, an iou_threshold in [0, 1] and a top_k of at least 0."""
    if top_k < 0:
        raise ConfigError(f"top_k must be >= 0, got {top_k}")
    if not math.isfinite(conf_threshold):
        raise ConfigError(f"conf_threshold must be finite, got {conf_threshold}")
    _check_iou_threshold(iou_threshold)


def detect(head: HeadOutput, priors: PriorSet, conf_threshold: float = 0.5,
           iou_threshold: float = 0.45, top_k: int = 200) -> list[Detection]:
    """Single-image post-processing: softmax, per-class threshold + NMS,
    then a global top_k cap. Detections come back sorted by descending
    score (ties: class, then prior index); class 0 never appears.

    One NMS walk ranks every class's candidates together and stops at top_k
    kept boxes. A box's fate depends only on the higher-ranked boxes of its
    class, so the output is that of full NMS. The walk first visits only the
    best 4 * top_k candidates and any tied with the last of them, so the
    work is usually at most top_k IoU rows, each over at most that prefix.
    If the prefix holds fewer than top_k survivors, fewer than top_k such
    rows are followed by at most top_k rows over the rest of a kept box's
    class.
    """
    check_thresholds(conf_threshold, iou_threshold, top_k)
    if head.loc.ndim != 3 or head.loc.shape[0] != 1:
        raise ShapeError(f"detect expects a single-image HeadOutput, got loc {head.loc.shape}")
    loc = head.loc[0]
    conf = head.conf[0]
    if loc.shape[0] != len(priors) or conf.shape[0] != len(priors):
        raise ShapeError(
            f"head rows ({loc.shape[0]} loc / {conf.shape[0]} conf) != {len(priors)} priors"
        )
    if conf.shape[1] > len(VOC_CLASSES) + 1:
        raise ShapeError(f"conf has {conf.shape[1]} columns, more than background "
                         f"plus {len(VOC_CLASSES)} VOC classes")
    finite = np.isfinite(loc).all(axis=1)
    probs = softmax_rows(conf)
    # a non-finite row decodes as its prior and is never a candidate
    decoded = decode_boxes(np.where(finite[:, None], loc, 0), priors)

    # Candidates class-major, priors ascending within a class; class 0 is background.
    cls, prior = np.nonzero((probs[:, 1:] >= conf_threshold).T & finite)
    scores = probs[prior, cls + 1]
    kept = nms_per_class(scores, decoded[prior], iou_threshold, max_keep=top_k, classes=cls)
    return [Detection(int(cls[k]) + 1, float(scores[k]), tuple(decoded[prior[k]])) for k in kept]


def format_detection_line(image_id: str, det: Detection) -> str:
    """One emission-format line: image_id class_name score xmin ymin xmax ymax."""
    x0, y0, x1, y1 = det.box
    return (
        f"{image_id} {det.class_name} {det.score:.6f} "
        f"{x0:.6f} {y0:.6f} {x1:.6f} {y1:.6f}"
    )

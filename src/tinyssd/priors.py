"""Default-box generation over the six detection scales, offset decoding,
and NMS-based post-processing into final detections."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arch import VOC_CLASSES, ArchSpec, intermediate_shapes
from .errors import ConfigError, ShapeError
from .network import HeadOutput
from .ops import softmax_rows

# SSD300-lineage box sizes in input pixels, one (min, max) pair per scale.
DEFAULT_MIN_SIZES = (30.0, 60.0, 111.0, 162.0, 213.0, 264.0)
DEFAULT_MAX_SIZES = (60.0, 111.0, 162.0, 213.0, 264.0, 315.0)
DEFAULT_VARIANCES = (0.1, 0.2)
# Largest per-class candidate count whose IoU table NMS computes in one call.
NMS_TABLE_MAX = 256


@dataclass(frozen=True)
class ScalePriors:
    """Prior layout of one detection scale.

    priors_per_cell must equal 2 + 2*len(aspect_ratios): one min-size square,
    one sqrt(min*max) square, and a w/h = a plus h/w = a pair per ratio.
    """

    feature_size: int
    priors_per_cell: int
    min_size: float
    max_size: float
    aspect_ratios: tuple[float, ...]

    def __post_init__(self):
        if self.feature_size < 1:
            raise ConfigError(f"feature size must be >= 1, got {self.feature_size}")
        if not 0 < self.min_size < self.max_size:
            raise ConfigError(f"need 0 < min_size < max_size, got {self.min_size}, {self.max_size}")
        want = 2 + 2 * len(self.aspect_ratios)
        if self.priors_per_cell != want:
            raise ConfigError(
                f"{self.priors_per_cell} priors per cell inconsistent with "
                f"aspect ratios {self.aspect_ratios} (implies {want})"
            )


@dataclass(frozen=True)
class PriorConfig:
    scales: tuple[ScalePriors, ...]
    input_size: int = 300

    def __post_init__(self):
        for s in self.scales:
            if s.max_size > self.input_size * 1.05 + 1e-9:
                # SSD convention allows the last max_size to slightly exceed the input
                raise ConfigError(f"max_size {s.max_size} too large for input {self.input_size}")

    @property
    def total_priors(self) -> int:
        return sum(s.feature_size ** 2 * s.priors_per_cell for s in self.scales)


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
    """Prior layout matching a spec's head scales, with the default box sizes."""
    if len(spec.heads) != len(DEFAULT_MIN_SIZES):
        raise ConfigError(f"default sizes cover 6 scales, spec has {len(spec.heads)}")
    shapes = dict(intermediate_shapes(spec))
    scales = []
    for head, mn, mx in zip(spec.heads, DEFAULT_MIN_SIZES, DEFAULT_MAX_SIZES):
        _, h, _ = shapes[head.source]
        ratios = (2.0,) if head.priors_per_cell == 4 else (2.0, 3.0)
        scales.append(ScalePriors(h, head.priors_per_cell, mn, mx, ratios))
    return PriorConfig(scales=tuple(scales), input_size=spec.input_size)


def generate_priors(cfg: PriorConfig) -> PriorSet:
    """Lay out default boxes cell by cell, prior index innermost within a cell."""
    rows = []
    for scale in cfg.scales:
        f = scale.feature_size
        s_min = scale.min_size / cfg.input_size
        s_geo = math.sqrt(scale.min_size * scale.max_size) / cfg.input_size
        sizes = [(s_min, s_min), (s_geo, s_geo)]
        for a in scale.aspect_ratios:
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
                  max_keep: int | None = None) -> list[int]:
    """Greedy suppression; returns kept indices into the input arrays.

    Candidates are visited by descending score, ties broken by lower
    original index; a box is kept iff its IoU with every previously kept
    box is <= the threshold. Each kept box drops the later candidates it
    overlaps with one IoU row. With max_keep, the walk stops after that
    many kept boxes, which equals the first max_keep of the full result.
    """
    if max_keep is not None and max_keep < 0:
        raise ConfigError(f"max_keep must be >= 0, got {max_keep}")
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    boxes = np.asarray(boxes, dtype=np.float64)[order]
    alive = np.ones(len(order), dtype=bool)
    limit = len(order) if max_keep is None else max_keep
    # A few candidates cost less as one table than as a call per kept box;
    # the table has no more rows than the walk could keep.
    table = iou(boxes[:, None], boxes) if len(order) <= min(limit, NMS_TABLE_MAX) else None
    kept: list[int] = []
    for i in range(len(order)):
        if len(kept) >= limit:
            break
        if not alive[i]:
            continue
        kept.append(int(order[i]))
        row = iou(boxes[i:i + 1], boxes[i + 1:]) if table is None else table[i, i + 1:]
        alive[i + 1:] &= row <= iou_threshold
    return kept


def detect(head: HeadOutput, priors: PriorSet, conf_threshold: float = 0.5,
           iou_threshold: float = 0.45, top_k: int = 200) -> list[Detection]:
    """Single-image post-processing: softmax, per-class threshold + NMS,
    then a global top_k cap. Detections come back sorted by descending
    score (ties: class, then prior index); class 0 never appears.

    NMS stops each class at top_k kept boxes. A box's fate depends only on
    the higher-ranked boxes of its class, and a class's later survivors
    rank below its first top_k, so the output is that of full NMS while
    the work is at most top_k IoU rows per class.
    """
    if top_k < 0:
        raise ConfigError(f"top_k must be >= 0, got {top_k}")
    if head.loc.ndim != 3 or head.loc.shape[0] != 1:
        raise ShapeError(f"detect expects a single-image HeadOutput, got loc {head.loc.shape}")
    loc = head.loc[0]
    conf = head.conf[0]
    if loc.shape[0] != len(priors) or conf.shape[0] != len(priors):
        raise ShapeError(
            f"head rows ({loc.shape[0]} loc / {conf.shape[0]} conf) != {len(priors)} priors"
        )
    finite = np.isfinite(loc).all(axis=1)
    probs = softmax_rows(conf)
    decoded = np.zeros_like(loc, dtype=np.float64)
    if finite.any():
        sub = PriorSet(boxes=priors.boxes[finite])
        decoded[finite] = decode_boxes(loc[finite], sub, clip=True)

    picked: list[tuple[float, int, int]] = []  # (-score, class_id, prior index)
    for class_id in range(1, conf.shape[1]):
        scores = probs[:, class_id]
        mask = (scores >= conf_threshold) & finite
        if not mask.any():
            continue
        idx = np.flatnonzero(mask)
        kept = nms_per_class(scores[idx], decoded[idx], iou_threshold, max_keep=top_k)
        picked.extend((-float(scores[i]), class_id, int(i)) for i in idx[kept])
    picked.sort()
    return [Detection(c, -neg, tuple(decoded[i])) for neg, c, i in picked[:top_k]]


def format_detection_line(image_id: str, det: Detection) -> str:
    """One emission-format line: image_id class_name score xmin ymin xmax ymax."""
    x0, y0, x1, y1 = det.box
    return (
        f"{image_id} {det.class_name} {det.score:.6f} "
        f"{x0:.6f} {y0:.6f} {x1:.6f} {y1:.6f}"
    )

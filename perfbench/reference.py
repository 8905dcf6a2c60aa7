"""An independent reference for detect's post-processing.

``reference_detections`` recomputes what ``priors.detect`` must return from
the head output and prior boxes the program passed to it, with a greedy NMS
written here to the same contract: row softmax over the class logits; per
class, the boxes with finite offsets and a score at least ``conf``; greedy
suppression that visits them by descending score (ties: lower prior index)
and keeps a box iff its IoU with every kept box is at most ``iou``; then a
global top-k by (-score, class, prior index).

Both sides start from the program's own head output, so a change in the
network's float summation order moves both alike. A rewrite of NMS,
decoding or ranking that keeps different boxes does not.
"""

from __future__ import annotations

import numpy as np

VARIANCES = (0.1, 0.2)


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _decode(loc: np.ndarray, priors: np.ndarray) -> np.ndarray:
    """SSD centre/size offsets applied to corner-form priors, clipped to [0, 1]."""
    pcx, pcy = (priors[:, 0] + priors[:, 2]) / 2, (priors[:, 1] + priors[:, 3]) / 2
    pw, ph = priors[:, 2] - priors[:, 0], priors[:, 3] - priors[:, 1]
    cx = pcx + loc[:, 0] * VARIANCES[0] * pw
    cy = pcy + loc[:, 1] * VARIANCES[0] * ph
    w = pw * np.exp(loc[:, 2] * VARIANCES[1])
    h = ph * np.exp(loc[:, 3] * VARIANCES[1])
    return np.clip(np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1), 0.0, 1.0)


def greedy_nms(scores: np.ndarray, boxes: np.ndarray, iou: float) -> list[int]:
    """Kept indices, in visiting order: each kept box suppresses, in one
    vector step, every later box it overlaps by more than ``iou``."""
    order = np.argsort(-scores, kind="stable")
    boxes = boxes[order]
    area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    alive = np.ones(len(order), dtype=bool)
    kept = []
    for i in range(len(order)):
        if not alive[i]:
            continue
        kept.append(int(order[i]))
        box, rest = boxes[i], boxes[i + 1:]
        ix = np.clip(np.minimum(box[2], rest[:, 2]) - np.maximum(box[0], rest[:, 0]), 0.0, None)
        iy = np.clip(np.minimum(box[3], rest[:, 3]) - np.maximum(box[1], rest[:, 1]), 0.0, None)
        inter = ix * iy
        with np.errstate(divide="ignore", invalid="ignore"):
            overlap = np.where(inter > 0, inter / (area[i + 1:] + area[i] - inter), 0.0)
        alive[i + 1:] &= overlap <= iou
    return kept


def reference_detections(loc, logits, priors, conf: float, iou: float, top_k: int):
    """``(class_id, score, box)`` triples, best first, for one image's
    ``loc`` (priors, 4), ``logits`` (priors, classes) and corner-form
    ``priors`` (priors, 4)."""
    loc = np.asarray(loc, dtype=np.float64)
    probs = _softmax(np.asarray(logits, dtype=np.float64))
    priors = np.asarray(priors, dtype=np.float64)
    finite = np.isfinite(loc).all(axis=1)
    boxes = np.zeros_like(loc)
    boxes[finite] = _decode(loc[finite], priors[finite])
    picked = []
    for class_id in range(1, probs.shape[1]):
        idx = np.flatnonzero((probs[:, class_id] >= conf) & finite)
        for k in greedy_nms(probs[idx, class_id], boxes[idx], iou):
            picked.append((-float(probs[idx[k], class_id]), class_id, int(idx[k])))
    picked.sort()
    return [(class_id, -neg, tuple(boxes[i])) for neg, class_id, i in picked[:top_k]]

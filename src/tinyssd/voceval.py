"""PASCAL-VOC-protocol detection evaluation: greedy score-ordered matching
at IoU >= 0.5 and 11-point interpolated average precision."""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .arch import VOC_CLASSES
from .errors import FormatError
from .priors import iou

RECALL_POINTS = tuple(i / 10 for i in range(11))


@dataclass(frozen=True)
class GroundTruthBox:
    image_id: str
    class_name: str
    box: tuple[float, float, float, float]  # normalized corners
    difficult: bool = False


@dataclass(frozen=True)
class DetectionRecord:
    image_id: str
    class_name: str
    score: float
    box: tuple[float, float, float, float]


@dataclass(frozen=True)
class EvalResult:
    """APs for every class with countable (non-difficult) ground truth.

    Classes without any countable ground truth are excluded from both
    class_aps and the mean rather than scored zero.
    """

    class_aps: dict[str, float]
    mean_ap: float
    pr_curves: dict[str, np.ndarray]  # (points, 2) float64 rows of (recall, precision)


def parse_detection_lines(lines) -> list[DetectionRecord]:
    """Parse emission-format lines: image_id class_name score x0 y0 x1 y1."""
    records = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        parts = text.split()
        if len(parts) != 7:
            raise FormatError(f"detection line {lineno}: expected 7 fields, got {len(parts)}")
        image_id, class_name = parts[0], parts[1]
        if class_name not in VOC_CLASSES:
            raise FormatError(f"detection line {lineno}: unknown class name {class_name!r}")
        try:
            score = float(parts[2])
            box = tuple(float(v) for v in parts[3:7])
        except ValueError:
            raise FormatError(f"detection line {lineno}: non-numeric field") from None
        if not all(map(math.isfinite, (score, *box))):
            raise FormatError(f"detection line {lineno}: non-finite score or coordinate")
        records.append(DetectionRecord(image_id, class_name, score, box))
    return records


def read_detection_file(path) -> list[str]:
    """The lines of a UTF-8 detection file, with universal newlines."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.readlines()
    except UnicodeDecodeError:
        pass
    try:  # the streaming decoder counts offsets within its chunk, so decode the whole file
        Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: invalid UTF-8 at byte {e.start}") from None
    raise FormatError(f"{path}: changed while being read")


def _required(node, tag, path):
    child = node.find(tag)
    if child is None or child.text is None:
        raise FormatError(f"{path}: missing required tag <{tag}>")
    return child.text.strip()


def _number(node, tag, path, kind=float):
    text = _required(node, tag, path)
    try:
        value = kind(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise FormatError(f"{path}: <{tag}> must be a finite {kind.__name__}, got {text!r}")
    return value


def parse_ground_truth(path, image_id: str | None = None) -> list[GroundTruthBox]:
    """Read a VOC-style annotation XML; boxes come back normalized by the
    image size under the 1-based inclusive pixel convention."""
    path = Path(path)
    if image_id is None:
        image_id = path.stem
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as e:
        raise FormatError(f"{path}: malformed XML ({e})") from None
    size = root.find("size")
    if size is None:
        raise FormatError(f"{path}: missing required tag <size>")
    width = _number(size, "width", path, int)
    height = _number(size, "height", path, int)
    if width < 1 or height < 1:
        raise FormatError(f"{path}: non-positive image size {width}x{height}")
    boxes = []
    for obj in root.iter("object"):
        name = _required(obj, "name", path)
        if name not in VOC_CLASSES:
            raise FormatError(f"{path}: unknown class name {name!r}")
        difficult_node = obj.find("difficult")
        flag = "0" if difficult_node is None else (difficult_node.text or "").strip()
        if flag not in ("0", "1"):
            raise FormatError(f"{path}: <difficult> must be 0 or 1, got {flag!r}")
        bndbox = obj.find("bndbox")
        if bndbox is None:
            raise FormatError(f"{path}: missing required tag <bndbox>")
        xmin = _number(bndbox, "xmin", path)
        ymin = _number(bndbox, "ymin", path)
        xmax = _number(bndbox, "xmax", path)
        ymax = _number(bndbox, "ymax", path)
        box = (
            min(max((xmin - 1) / width, 0.0), 1.0),
            min(max((ymin - 1) / height, 0.0), 1.0),
            min(max(xmax / width, 0.0), 1.0),
            min(max(ymax / height, 0.0), 1.0),
        )
        if box[0] > box[2] or box[1] > box[3]:
            raise FormatError(f"{path}: inverted box {box} for object {name!r}")
        boxes.append(GroundTruthBox(image_id, name, box, flag == "1"))
    return boxes


def load_annotation_dir(dirpath) -> list[GroundTruthBox]:
    """Parse every .xml file in a directory (sorted by name)."""
    files = sorted(Path(dirpath).glob("*.xml"))
    if not files:
        raise FormatError(f"{dirpath}: no .xml annotation files found")
    boxes = []
    for f in files:
        boxes.extend(parse_ground_truth(f))
    return boxes


def _interpolated_ap(recalls: np.ndarray, precisions: np.ndarray) -> float:
    """11-point interpolation: mean over r of max precision at recall >= r."""
    ap = 0.0
    for r in RECALL_POINTS:
        mask = recalls >= r - 1e-12
        ap += float(precisions[mask].max()) if mask.any() else 0.0
    return ap / len(RECALL_POINTS)


def _eval_class(dets: list[DetectionRecord], gts: list[GroundTruthBox], iou_match: float):
    npos = sum(1 for g in gts if not g.difficult)
    image_truths: dict[str, list[int]] = {}
    for j, g in enumerate(gts):
        image_truths.setdefault(g.image_id, []).append(j)
    # Every same-image (detection, truth) pair. Each detection's truths stay
    # in input order, so of two equal overlaps the first truth is matched.
    pairs = [(i, j) for i, d in enumerate(dets) for j in image_truths.get(d.image_id, ())]
    det_of, gt_of = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    overlaps = iou(np.array([dets[i].box for i, _ in pairs]).reshape(-1, 4),
                   np.array([gts[j].box for _, j in pairs]).reshape(-1, 4))
    hit = overlaps >= iou_match
    hits: dict[int, list[tuple[int, float]]] = {}  # qualifying (truth, overlap) per detection
    for i, j, overlap in zip(det_of[hit].tolist(), gt_of[hit].tolist(), overlaps[hit].tolist()):
        hits.setdefault(i, []).append((j, overlap))

    matched = [False] * len(gts)
    tp = []  # 1 or 0 per counted detection, in score order
    for i in np.argsort(-np.array([d.score for d in dets]), kind="stable").tolist():
        best_iou, best = 0.0, None
        difficult_hit = False
        for j, overlap in hits.get(i, ()):
            if gts[j].difficult:
                difficult_hit = True
            elif not matched[j] and overlap > best_iou:
                best_iou, best = overlap, j
        if best is not None:
            matched[best] = True
            tp.append(1)
        elif not difficult_hit:  # a detection hitting only difficult truths is not counted
            tp.append(0)
    if not tp:
        return 0.0, np.empty((0, 2))
    tp_cum = np.cumsum(tp)
    recalls = tp_cum / npos
    precisions = tp_cum / np.arange(1, len(tp) + 1)
    return _interpolated_ap(recalls, precisions), np.column_stack((recalls, precisions))


def evaluate(detections, truths: list[GroundTruthBox], iou_match: float = 0.5,
             protocol: str = "voc2007") -> EvalResult:
    """Score emission-format detection lines against ground truth."""
    if protocol != "voc2007":
        raise FormatError(f"unsupported protocol {protocol!r}; only 'voc2007' is implemented")
    records = parse_detection_lines(detections)

    dets_by_class: dict[str, list[DetectionRecord]] = {name: [] for name in VOC_CLASSES}
    for rec in records:
        dets_by_class[rec.class_name].append(rec)
    gts_by_class: dict[str, list[GroundTruthBox]] = {name: [] for name in VOC_CLASSES}
    for g in truths:
        if g.class_name not in gts_by_class:
            raise FormatError(f"unknown ground-truth class name {g.class_name!r}")
        gts_by_class[g.class_name].append(g)

    evaluated = [
        name for name in VOC_CLASSES
        if any(not g.difficult for g in gts_by_class[name])
    ]
    results = {
        name: _eval_class(dets_by_class[name], gts_by_class[name], iou_match) for name in evaluated
    }

    class_aps = {name: results[name][0] for name in evaluated}
    pr_curves = {name: results[name][1] for name in evaluated}
    mean_ap = float(np.mean([class_aps[name] for name in evaluated])) if evaluated else 0.0
    return EvalResult(class_aps=class_aps, mean_ap=mean_ap, pr_curves=pr_curves)


def format_eval_report(result: EvalResult) -> str:
    width = max(len(name) for name in VOC_CLASSES)
    lines = []
    for name in VOC_CLASSES:
        if name in result.class_aps:
            lines.append(f"{name.ljust(width)}  AP {result.class_aps[name]:.4f}")
        else:
            lines.append(f"{name.ljust(width)}  (no ground truth)")
    lines.append("")
    lines.append(f"mAP {result.mean_ap:.4f} over {len(result.class_aps)} class(es)")
    return "\n".join(lines) + "\n"


def pr_curve_csv(result: EvalResult) -> str:
    """PR points for every evaluated class: class,recall,precision rows."""
    lines = ["class,recall,precision"]
    for name in VOC_CLASSES:
        if name in result.pr_curves:
            lines.extend(f"{name},{r:.6f},{p:.6f}" for r, p in result.pr_curves[name].tolist())
    return "\n".join(lines) + "\n"

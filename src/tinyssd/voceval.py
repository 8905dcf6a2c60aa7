"""PASCAL-VOC-protocol detection evaluation: greedy score-ordered matching
at IoU >= 0.5 and 11-point interpolated average precision."""

from __future__ import annotations

import math
import time
import xml.etree.ElementTree as ET
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import islice
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
    detections: int = 0  # detection lines scored
    parse_s: float = field(default=0.0, compare=False)
    match_s: float = field(default=0.0, compare=False)


# Lines parsed per chunk. A chunk's tokens, seven strings a line, are the
# parse's largest transient. On 100k lines, chunks of 1,024 to 16,384 lines
# parse in the same time; evaluate's tracemalloc peak is 11.3 MB at 4,096 and
# 14.1 MB at 16,384, against 55 MB when the whole input is split at once.
PARSE_CHUNK_LINES = 4096

_CLASS_INDEX = {name: i for i, name in enumerate(VOC_CLASSES)}


def _raise_first_bad_line(lines, first: int):
    """Raise the FormatError that names the first bad line of lines, which
    are numbered from first."""
    for lineno, line in enumerate(lines, start=first):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 7:
            raise FormatError(f"detection line {lineno}: expected 7 fields, got {len(parts)}")
        if parts[1] not in _CLASS_INDEX:
            raise FormatError(f"detection line {lineno}: unknown class name {parts[1]!r}")
        try:
            row = [float(v) for v in parts[2:]]
        except ValueError:
            raise FormatError(f"detection line {lineno}: non-numeric field") from None
        if not all(map(math.isfinite, row)):
            raise FormatError(f"detection line {lineno}: non-finite score or coordinate")
    raise AssertionError("the column parse rejected a chunk without a bad line")


def _parse_chunk(lines: list[str], first: int, image_codes: dict[str, int]):
    """One chunk of lines, numbered from first, as (n,) image codes, (n,)
    class indices and (5, n) values, from one split of the whole chunk. A bad
    line raises a FormatError that names it."""
    if set(map(len, map(str.split, lines))) <= {0, 7}:
        tokens = "\n".join(lines).split()  # "\n", so unterminated lines stay apart
        n = len(tokens) // 7
        try:
            classes = np.fromiter(map(_CLASS_INDEX.__getitem__, tokens[1::7]), np.intp, n)
            values = np.array([np.fromiter(map(float, tokens[k::7]), np.float64, n)
                               for k in range(2, 7)]).reshape(5, n)
        except (KeyError, ValueError):
            pass
        else:
            if np.isfinite(values).all():
                image = [image_codes.setdefault(i, len(image_codes)) for i in tokens[0::7]]
                return np.array(image, dtype=np.intp), classes, values
    _raise_first_bad_line(lines, first)


def _parse_columns(lines):
    """Emission-format lines, PARSE_CHUNK_LINES at a time, as columns with
    one entry per non-blank line: (image id -> code dict in first-seen order,
    (n,) image codes, (n,) indices into VOC_CLASSES, (5, n) float64 rows of
    score, x0, y0, x1, y1)."""
    image_codes: dict[str, int] = {}
    it = iter(lines)
    chunks = iter(lambda: list(islice(it, PARSE_CHUNK_LINES)), [])
    columns = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty((5, 0)))]
    columns += (_parse_chunk(chunk, 1 + k * PARSE_CHUNK_LINES, image_codes)
                for k, chunk in enumerate(chunks))
    return (image_codes, *(np.concatenate(c, axis=-1) for c in zip(*columns)))


def parse_detection_lines(lines) -> list[DetectionRecord]:
    """Parse emission-format lines: image_id class_name score x0 y0 x1 y1."""
    image_codes, image, classes, values = _parse_columns(lines)
    ids = list(image_codes)
    return [
        DetectionRecord(ids[m], VOC_CLASSES[c], score, tuple(box))
        for m, c, (score, *box) in zip(image.tolist(), classes.tolist(), values.T.tolist())
    ]


def read_detection_file(path) -> Iterator[str]:
    """The lines of a UTF-8 detection file, with universal newlines, read as
    they are consumed. The call opens the file, so a missing file fails at
    once; closing the iterator closes the file."""
    lines = _stream_lines(path)
    next(lines)  # runs up to the open
    return lines


def _stream_lines(path) -> Iterator[str]:
    with open(path, encoding="utf-8") as f:
        yield ""  # the file is open
        try:
            yield from f
            return
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


def _eval_class(image, scores, boxes, truth_image, truth_boxes, difficult,
                iou_match: float, n_images: int):
    """AP and PR curve of one class. Detections and truths come as columns in
    input order: integer image codes below n_images, scores, (n, 4) boxes."""
    npos = int(np.count_nonzero(~difficult))
    # Every same-image (detection, truth) pair, grouped by detection. The
    # stable sort keeps each image's truths in input order, so of two equal
    # overlaps the first truth is matched.
    by_image = np.argsort(truth_image, kind="stable")
    per_image = np.bincount(truth_image, minlength=n_images)
    first = np.cumsum(per_image) - per_image  # each image's first slot in by_image
    counts = per_image[image]
    det_of = np.repeat(np.arange(len(image)), counts)
    offsets = np.arange(len(det_of)) - np.repeat(np.cumsum(counts) - counts, counts)
    gt_of = by_image[first[image][det_of] + offsets]
    overlaps = iou(boxes[det_of], truth_boxes[gt_of])
    hit = overlaps >= iou_match
    det_of, gt_of, overlaps = det_of[hit], gt_of[hit], overlaps[hit]

    # A detection with no qualifying overlap is a false positive. Only the
    # others take the greedy walk, in score order.
    order = np.argsort(-scores, kind="stable")
    bounds = np.searchsorted(det_of, np.arange(len(image) + 1))
    walked = order[bounds[order + 1] > bounds[order]]
    bounds, gt_of, overlaps = bounds.tolist(), gt_of.tolist(), overlaps.tolist()
    hard = difficult.tolist()
    matched = [False] * len(hard)
    outcome = np.zeros(len(image), dtype=np.int8)  # 1 TP, 0 FP, -1 not counted
    for i in walked.tolist():
        best_iou, best = 0.0, None
        difficult_hit = False
        for j, overlap in zip(gt_of[bounds[i]:bounds[i + 1]], overlaps[bounds[i]:bounds[i + 1]]):
            if hard[j]:
                difficult_hit = True
            elif not matched[j] and overlap > best_iou:
                best_iou, best = overlap, j
        if best is not None:
            matched[best] = True
            outcome[i] = 1
        elif difficult_hit:  # a detection hitting only difficult truths is not counted
            outcome[i] = -1
    tp = outcome[order]
    tp = tp[tp >= 0]
    if not tp.size:
        return 0.0, np.empty((0, 2))
    tp_cum = np.cumsum(tp)
    recalls = tp_cum / npos
    precisions = tp_cum / np.arange(1, len(tp) + 1)
    return _interpolated_ap(recalls, precisions), np.column_stack((recalls, precisions))


def evaluate(detections, truths: list[GroundTruthBox], iou_match: float = 0.5) -> EvalResult:
    """Score emission-format detection lines against ground truth."""
    start = time.perf_counter()
    image_codes, image, classes, values = _parse_columns(detections)
    parsed = time.perf_counter()

    try:
        truth_class = np.array([_CLASS_INDEX[g.class_name] for g in truths], dtype=np.intp)
    except KeyError as e:
        raise FormatError(f"unknown ground-truth class name {e.args[0]!r}") from None
    # a truth on an image no line names gets a new code
    truth_image = np.array([image_codes.setdefault(g.image_id, len(image_codes)) for g in truths],
                           dtype=np.intp)
    truth_boxes = np.array([g.box for g in truths], dtype=np.float64).reshape(-1, 4)
    difficult = np.array([g.difficult for g in truths], dtype=bool)
    boxes = values[1:].T

    class_aps, pr_curves = {}, {}
    for c, name in enumerate(VOC_CLASSES):
        t = np.flatnonzero(truth_class == c)
        if difficult[t].all():  # no countable ground truth: not evaluated
            continue
        d = np.flatnonzero(classes == c)
        class_aps[name], pr_curves[name] = _eval_class(
            image[d], values[0, d], boxes[d], truth_image[t], truth_boxes[t],
            difficult[t], iou_match, len(image_codes))
    mean_ap = float(np.mean(list(class_aps.values()))) if class_aps else 0.0
    return EvalResult(class_aps=class_aps, mean_ap=mean_ap, pr_curves=pr_curves,
                      detections=len(image), parse_s=parsed - start,
                      match_s=time.perf_counter() - parsed)


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

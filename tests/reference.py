"""Independent brute-force oracles the production kernels are checked against.

Everything here is deliberately written from the operation definitions with
plain loops rather than reusing any production code path.
"""

from __future__ import annotations

import math

import numpy as np


def conv2d_reference(x, weights, bias, stride, pad):
    """Direct convolution via explicit nested loops and bounds checks."""
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    n, c, h, w = x.shape
    oc, ic, kh, kw = weights.shape
    assert ic == c
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((n, oc, out_h, out_w), dtype=np.float64)
    for b in range(n):
        for o in range(oc):
            for i in range(out_h):
                for j in range(out_w):
                    acc = 0.0
                    for ch in range(c):
                        for dy in range(kh):
                            y = i * stride + dy - pad
                            if y < 0 or y >= h:
                                continue
                            for dx in range(kw):
                                xx = j * stride + dx - pad
                                if xx < 0 or xx >= w:
                                    continue
                                acc += x[b, ch, y, xx] * weights[o, ch, dy, dx]
                    out[b, o, i, j] = acc + (bias[o] if bias is not None else 0.0)
    return out


def maxpool_reference(x, kernel, stride, rounding):
    """Max over each pooling window via explicit loops.

    Floor mode keeps the windows that fit inside the input. Ceil mode rounds
    the window count up, drops a last window that would start outside the
    input, and clips border windows to the input. Returns None when the
    geometry leaves no window.
    """
    x = np.asarray(x)
    n, c, h, w = x.shape
    kh, kw = kernel
    rnd = math.ceil if rounding == "ceil" else math.floor

    def count(extent, k):
        out = rnd((extent - k) / stride) + 1
        if rounding == "ceil" and (out - 1) * stride >= extent:
            out -= 1
        return out

    out_h, out_w = count(h, kh), count(w, kw)
    if out_h < 1 or out_w < 1:
        return None
    out = np.empty((n, c, out_h, out_w), dtype=x.dtype)
    for b in range(n):
        for ch in range(c):
            for i in range(out_h):
                for j in range(out_w):
                    best = None
                    for y in range(i * stride, min(i * stride + kh, h)):
                        for xx in range(j * stride, min(j * stride + kw, w)):
                            if best is None or x[b, ch, y, xx] > best:
                                best = x[b, ch, y, xx]
                    out[b, ch, i, j] = best
    return out


def _conv_taps_reference(x, weights, bias, stride, pad):
    """(c, h, w) float64 conv as a sum over the kh*kw taps of one channel
    contraction each, over a zero-padded copy of x."""
    oc, c, kh, kw = weights.shape
    x = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    out_h = (x.shape[1] - kh) // stride + 1
    out_w = (x.shape[2] - kw) // stride + 1
    out = np.zeros((oc, out_h, out_w))
    for dy in range(kh):
        for dx in range(kw):
            shifted = x[:, dy:dy + (out_h - 1) * stride + 1:stride,
                        dx:dx + (out_w - 1) * stride + 1:stride]
            out += np.einsum("oc,chw->ohw", weights[:, :, dy, dx], shifted)
    return out if bias is None else out + bias[:, None, None]


def _pool_shift_reference(x, kernel, stride, rounding):
    """(c, h, w) max-pool: one max over the strided tap slices of a copy of x
    padded with -inf on the right and bottom, so border windows are clipped."""
    _, h, w = x.shape
    kh, kw = kernel
    rnd = math.ceil if rounding == "ceil" else math.floor

    def count(extent, k):
        out = rnd((extent - k) / stride) + 1
        return out - 1 if rounding == "ceil" and (out - 1) * stride >= extent else out

    out_h, out_w = count(h, kh), count(w, kw)
    span_h, span_w = (out_h - 1) * stride + 1, (out_w - 1) * stride + 1
    x = np.pad(x, ((0, 0), (0, kh), (0, kw)), constant_values=-np.inf)
    taps = [x[:, dy:dy + span_h:stride, dx:dx + span_w:stride]
            for dy in range(kh) for dx in range(kw)]
    return np.max(taps, axis=0)


def forward_reference(spec, store, image):
    """Whole-network float64 forward pass, as (loc, conf) in HeadOutput layout.

    Walks ``spec.layers`` directly, without ``tinyssd.arch.lower``: a conv is
    ``_conv_taps_reference`` with an optional ReLU, a pool is
    ``_pool_shift_reference``, and a fire layer is expanded here (ReLU'd 1x1
    squeeze, then ReLU'd 1x1 and pad-1 3x3 expands of it, concatenated in
    that order). Every value stays float64; weights are read from ``store``
    by blob name.
    """
    def conv(x, name, stride, pad, relu=True, has_bias=True):
        w = np.asarray(store[f"{name}/w"], dtype=np.float64)
        b = np.asarray(store[f"{name}/b"], dtype=np.float64) if has_bias else None
        out = _conv_taps_reference(x, w, b, stride, pad)
        return np.maximum(out, 0.0) if relu else out

    locs, confs = [], []
    for x in np.asarray(image.data, dtype=np.float64):
        acts = {"image": x}
        for layer in spec.layers:
            src, g, name = acts[layer.inputs[0]], layer.geometry, layer.name
            if layer.kind == "conv":
                out = conv(src, name, g.stride, g.pad, g.activation == "relu", g.has_bias)
            elif layer.kind == "pool":
                out = _pool_shift_reference(src, g.kernel, g.stride, g.rounding)
            else:
                squeezed = conv(src, f"{name}/squeeze", 1, 0)
                out = np.concatenate([conv(squeezed, f"{name}/expand1x1", 1, 0),
                                      conv(squeezed, f"{name}/expand3x3", 1, 1)])
            acts[name] = out
        # each head map (b*k, h, w) -> rows (h*w*b, k), prior index innermost
        locs.append(np.concatenate([acts[h.loc].transpose(1, 2, 0).reshape(-1, 4)
                                    for h in spec.heads]))
        confs.append(np.concatenate([acts[h.conf].transpose(1, 2, 0).reshape(-1, spec.class_count)
                                     for h in spec.heads]))
    return np.stack(locs), np.stack(confs)


def bilinear_reference(img, out_h, out_w):
    """Pixel-center-aligned bilinear resampling of (h, w, c) values, one
    output value at a time in Python floats, as an (out_h, out_w, c) float64
    array. Each sample is a*(1-fx) + b*fx along both source rows, then
    top*(1-fy) + bottom*fy, with source indices clamped to the image."""
    img = np.asarray(img)
    in_h, in_w, channels = img.shape
    out = np.empty((out_h, out_w, channels))
    for i in range(out_h):
        y = (i + 0.5) * (in_h / out_h) - 0.5
        y0 = math.floor(y)
        fy = y - y0
        ya, yb = min(max(y0, 0), in_h - 1), min(max(y0 + 1, 0), in_h - 1)
        for j in range(out_w):
            x = (j + 0.5) * (in_w / out_w) - 0.5
            x0 = math.floor(x)
            fx = x - x0
            xa, xb = min(max(x0, 0), in_w - 1), min(max(x0 + 1, 0), in_w - 1)
            for ch in range(channels):
                top = float(img[ya, xa, ch]) * (1 - fx) + float(img[ya, xb, ch]) * fx
                bottom = float(img[yb, xa, ch]) * (1 - fx) + float(img[yb, xb, ch]) * fx
                out[i, j, ch] = top * (1 - fy) + bottom * fy
    return out


def iou_reference(a, b):
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return inter / union


def nms_reference(scores, boxes, threshold):
    """O(n^2) suppression from a precomputed pairwise overlap table."""
    scores = np.asarray(scores, dtype=np.float64)
    boxes = np.asarray(boxes, dtype=np.float64)
    n = len(scores)
    overlap = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            overlap[i, j] = iou_reference(boxes[i], boxes[j])
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    kept = []
    for i in order:
        if all(overlap[i, j] <= threshold for j in kept):
            kept.append(i)
    return kept


def detect_reference(loc, logits, prior_boxes, conf, iou, top_k, variances=(0.1, 0.2)):
    """Single-image detect from its definition, as (class_id, score, box) triples.

    Row softmax over the logits; per foreground class, the rows with finite
    offsets and a score of at least ``conf``; ``nms_reference`` over their
    decoded, clipped boxes; one global sort of every survivor by (-score,
    class, prior index); the first ``top_k``.
    """
    loc = np.asarray(loc, dtype=np.float64)
    logits = np.asarray(logits, dtype=np.float64)
    priors = np.asarray(prior_boxes, dtype=np.float64)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    finite = np.isfinite(loc).all(axis=1)
    boxes = np.zeros_like(loc)
    for i in np.flatnonzero(finite):
        pcx = (priors[i, 0] + priors[i, 2]) / 2
        pcy = (priors[i, 1] + priors[i, 3]) / 2
        pw = priors[i, 2] - priors[i, 0]
        ph = priors[i, 3] - priors[i, 1]
        cx = pcx + loc[i, 0] * variances[0] * pw
        cy = pcy + loc[i, 1] * variances[0] * ph
        w = pw * np.exp(loc[i, 2] * variances[1])
        h = ph * np.exp(loc[i, 3] * variances[1])
        boxes[i] = np.clip([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], 0.0, 1.0)
    survivors = []
    for class_id in range(1, probs.shape[1]):
        rows = [i for i in range(len(loc)) if finite[i] and probs[i, class_id] >= conf]
        for k in nms_reference(probs[rows, class_id], boxes[rows], iou):
            survivors.append((-probs[rows[k], class_id], class_id, rows[k]))
    survivors.sort()
    return [(c, float(-neg), tuple(float(v) for v in boxes[i]))
            for neg, c, i in survivors[:top_k]]


def encode_boxes(boxes, prior_boxes, variances=(0.1, 0.2)):
    """Inverse of the center/size offset decoding, for round-trip checks."""
    boxes = np.asarray(boxes, dtype=np.float64)
    priors = np.asarray(prior_boxes, dtype=np.float64)
    pcx = (priors[:, 0] + priors[:, 2]) / 2
    pcy = (priors[:, 1] + priors[:, 3]) / 2
    pw = priors[:, 2] - priors[:, 0]
    ph = priors[:, 3] - priors[:, 1]
    bcx = (boxes[:, 0] + boxes[:, 2]) / 2
    bcy = (boxes[:, 1] + boxes[:, 3]) / 2
    bw = boxes[:, 2] - boxes[:, 0]
    bh = boxes[:, 3] - boxes[:, 1]
    v0, v1 = variances
    return np.stack(
        [
            (bcx - pcx) / (v0 * pw),
            (bcy - pcy) / (v0 * ph),
            np.log(bw / pw) / v1,
            np.log(bh / ph) / v1,
        ],
        axis=1,
    )


def ap_reference(dets, gts, iou_match=0.5):
    """Single-class 11-point AP by re-scanning every prefix of the ranked list.

    dets: list of (image_id, score, box); gts: list of (image_id, box, difficult).
    Matching follows the evaluation protocol: best unmatched non-difficult
    overlap wins, detections whose only qualifying overlap is difficult are
    ignored.
    """
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][1], i))
    matched = set()
    outcomes = []
    for i in order:
        img, _, box = dets[i]
        best_iou = 0.0
        best_j = None
        difficult_hit = False
        for j, (gimg, gbox, difficult) in enumerate(gts):
            if gimg != img:
                continue
            ov = iou_reference(box, gbox)
            if ov < iou_match:
                continue
            if difficult:
                difficult_hit = True
            elif j not in matched and ov > best_iou:
                best_iou, best_j = ov, j
        if best_j is not None:
            matched.add(best_j)
            outcomes.append("tp")
        elif difficult_hit:
            outcomes.append("ignore")
        else:
            outcomes.append("fp")

    npos = sum(1 for g in gts if not g[2])
    counted = [o for o in outcomes if o != "ignore"]
    ap = 0.0
    for tenth in range(11):
        r = tenth / 10
        best_p = 0.0
        tp = fp = 0
        for o in counted:
            tp += o == "tp"
            fp += o == "fp"
            if tp / npos >= r - 1e-12:
                best_p = max(best_p, tp / (tp + fp))
        ap += best_p / 11
    return ap


def map_reference(dets_by_class, gts_by_class, iou_match=0.5):
    """Mean of ap_reference over classes with countable ground truth."""
    aps = []
    for name, gts in gts_by_class.items():
        if not any(not g[2] for g in gts):
            continue
        aps.append(ap_reference(dets_by_class.get(name, []), gts, iou_match))
    return sum(aps) / len(aps) if aps else 0.0


def devkit_ap_reference(dets, gts):
    """Single-class 11-point AP under the VOC2007 devkit's matching rule
    (Everingham et al., IJCV 2010; VOCevaldet.m), same inputs as ap_reference.

    In score order, each detection takes the truth of highest IoU among all
    truths of its image, difficult and already matched ones included (ties
    go to the first). At IoU >= 0.5 it is ignored if that truth is
    difficult, a TP if the truth is unmatched and an FP if it is matched;
    below 0.5 it is an FP.
    """
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][1], i))
    matched = set()
    tp_flags = []  # one entry per counted detection: True TP, False FP
    for i in order:
        img, _, box = dets[i]
        best_iou = -math.inf
        best_j = None
        for j, (gimg, gbox, _) in enumerate(gts):
            if gimg == img:
                ov = iou_reference(box, gbox)
                if ov > best_iou:
                    best_iou, best_j = ov, j
        if best_j is None or best_iou < 0.5:
            tp_flags.append(False)
        elif gts[best_j][2]:
            continue  # difficult: neither TP nor FP
        elif best_j in matched:
            tp_flags.append(False)
        else:
            matched.add(best_j)
            tp_flags.append(True)

    npos = sum(1 for g in gts if not g[2])
    points = []  # (recall, precision) after each counted detection
    tp = 0
    for k, is_tp in enumerate(tp_flags, start=1):
        tp += is_tp
        points.append((tp / npos, tp / k))
    ap = 0.0
    for tenth in range(11):
        precisions = [p for r, p in points if r >= tenth / 10 - 1e-12]
        ap += max(precisions, default=0.0) / 11
    return ap


def fp16_nearest(value):
    """Scalar IEEE binary16 round via the math module, for spot checks."""
    # rely on numpy only to reinterpret, not to round
    return float(np.frombuffer(np.float16(value).tobytes(), dtype=np.float16)[0])


def prior_count(feature_sizes, per_cell):
    return sum(f * f * b for f, b in zip(feature_sizes, per_cell))


def random_corner_boxes(rng, n, max_extent=1.0):
    """n well-formed corner boxes with strictly positive width/height."""
    x0 = rng.uniform(0, max_extent * 0.8, n)
    y0 = rng.uniform(0, max_extent * 0.8, n)
    w = rng.uniform(0.05, max_extent * 0.4, n)
    h = rng.uniform(0.05, max_extent * 0.4, n)
    return np.stack([x0, y0, x0 + w, y0 + h], axis=1)


def random_eval_instance(rng, classes=("dog", "cat", "car"), images=("a", "b", "c"),
                         max_gt=12, max_det=20):
    """A random small evaluation problem, in both line form and oracle form."""
    from tinyssd.voceval import GroundTruthBox

    gts = []
    for _ in range(int(rng.integers(1, max_gt))):
        box = tuple(random_corner_boxes(rng, 1)[0])
        gts.append(
            GroundTruthBox(
                str(rng.choice(images)), str(rng.choice(classes)), box,
                difficult=bool(rng.uniform() < 0.2),
            )
        )
    lines = []
    for _ in range(int(rng.integers(0, max_det))):
        if rng.uniform() < 0.5:
            g = gts[int(rng.integers(0, len(gts)))]
            box = np.clip(np.asarray(g.box) + rng.normal(0, 0.03, 4), 0, 1)
            name, img = g.class_name, g.image_id
        else:
            box = random_corner_boxes(rng, 1)[0]
            name, img = str(rng.choice(classes)), str(rng.choice(images))
        if box[0] >= box[2] or box[1] >= box[3]:
            continue
        score = float(rng.uniform())
        lines.append(
            f"{img} {name} {score:.6f} " + " ".join(f"{v:.6f}" for v in box)
        )

    dets_by_class = {}
    for line in lines:
        parts = line.split()
        dets_by_class.setdefault(parts[1], []).append(
            (parts[0], float(parts[2]), tuple(float(v) for v in parts[3:]))
        )
    gts_by_class = {}
    for g in gts:
        gts_by_class.setdefault(g.class_name, []).append((g.image_id, g.box, g.difficult))
    return lines, gts, dets_by_class, gts_by_class


def parse_lines_reference(lines):
    """Detection-line parser, one line at a time: the line loop of
    ``tinyssd.voceval.parse_detection_lines`` before it parsed in columns."""
    from tinyssd.arch import VOC_CLASSES
    from tinyssd.errors import FormatError
    from tinyssd.voceval import DetectionRecord

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

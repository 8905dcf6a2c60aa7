import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyssd import voceval
from tinyssd.arch import VOC_CLASSES
from tinyssd.errors import FormatError
from tinyssd.voceval import (
    GroundTruthBox,
    evaluate,
    format_eval_report,
    parse_detection_lines,
    parse_ground_truth,
    pr_curve_csv,
    read_detection_file,
)

from reference import ap_reference, map_reference, parse_lines_reference, random_eval_instance

ANNOTATION = """<annotation>
  <filename>000123.jpg</filename>
  <size><width>300</width><height>300</height><depth>3</depth></size>
  <object>
    <name>dog</name>
    <difficult>0</difficult>
    <bndbox><xmin>1</xmin><ymin>1</ymin><xmax>300</xmax><ymax>300</ymax></bndbox>
  </object>
  <object>
    <name>person</name>
    <difficult>1</difficult>
    <bndbox><xmin>31</xmin><ymin>61</ymin><xmax>150</xmax><ymax>240</ymax></bndbox>
  </object>
</annotation>
"""


def _line(image_id, name, score, box):
    return f"{image_id} {name} {score:.6f} " + " ".join(f"{v:.6f}" for v in box)


def test_parse_ground_truth(tmp_path):
    path = tmp_path / "000123.xml"
    path.write_text(ANNOTATION)
    boxes = parse_ground_truth(path)
    assert len(boxes) == 2
    dog = boxes[0]
    assert dog.image_id == "000123"
    assert dog.class_name == "dog"
    assert not dog.difficult
    np.testing.assert_allclose(dog.box, (0.0, 0.0, 1.0, 1.0), atol=1e-12)
    person = boxes[1]
    assert person.difficult
    np.testing.assert_allclose(person.box, (0.1, 0.2, 0.5, 0.8), atol=1e-12)


def test_parse_ground_truth_empty(tmp_path):
    path = tmp_path / "e.xml"
    path.write_text("<annotation><size><width>10</width><height>10</height></size></annotation>")
    assert parse_ground_truth(path) == []


def test_parse_ground_truth_missing_tag(tmp_path):
    path = tmp_path / "bad.xml"
    path.write_text("<annotation><object><name>dog</name></object></annotation>")
    with pytest.raises(FormatError, match="<size>"):
        parse_ground_truth(path)
    path.write_text(
        "<annotation><size><width>10</width><height>10</height></size>"
        "<object><name>dog</name></object></annotation>"
    )
    with pytest.raises(FormatError, match="<bndbox>"):
        parse_ground_truth(path)


def test_parse_ground_truth_unknown_class(tmp_path):
    path = tmp_path / "u.xml"
    path.write_text(
        "<annotation><size><width>10</width><height>10</height></size>"
        "<object><name>unicorn</name>"
        "<bndbox><xmin>1</xmin><ymin>1</ymin><xmax>5</xmax><ymax>5</ymax></bndbox>"
        "</object></annotation>"
    )
    with pytest.raises(FormatError, match="unicorn"):
        parse_ground_truth(path)


def test_parse_detection_lines_errors():
    with pytest.raises(FormatError, match="7 fields"):
        parse_detection_lines(["img dog 0.5 0 0 1"])
    with pytest.raises(FormatError, match="unknown class"):
        parse_detection_lines(["img unicorn 0.5 0 0 1 1"])
    with pytest.raises(FormatError, match="non-numeric"):
        parse_detection_lines(["img dog high 0 0 1 1"])
    with pytest.raises(FormatError, match="line 2: non-finite"):
        parse_detection_lines(["img dog 0.5 0 0 1 1", "img dog nan 0 0 1 1"])
    with pytest.raises(FormatError, match="line 1: non-finite"):
        parse_detection_lines(["img dog 0.5 0 -inf 1 1"])
    assert parse_detection_lines(["", "  "]) == []


def test_read_detection_file_names_file_byte_offset(tmp_path):
    """The offset counts from the start of the file, past the decoder's first chunk."""
    line = _line("a", "dog", 0.9, (0.1, 0.1, 0.5, 0.5)) + "\n"
    path = tmp_path / "dets.txt"
    path.write_bytes(line.encode() * 3000 + b"\xff\n")
    with pytest.raises(FormatError, match=f"invalid UTF-8 at byte {len(line) * 3000}$"):
        list(read_detection_file(path))


def test_read_detection_file_opens_at_the_call(tmp_path):
    """A missing file fails before any line is consumed."""
    with pytest.raises(FileNotFoundError):
        read_detection_file(tmp_path / "missing.txt")


def test_perfect_detection_scores_one():
    gt = [GroundTruthBox("a", "dog", (0.1, 0.1, 0.5, 0.5))]
    lines = [_line("a", "dog", 1.0, (0.1, 0.1, 0.5, 0.5))]
    result = evaluate(lines, gt)
    assert result.class_aps["dog"] == pytest.approx(1.0)
    assert result.mean_ap == pytest.approx(1.0)


def test_low_overlap_scores_zero():
    gt = [GroundTruthBox("a", "dog", (0.0, 0.0, 0.5, 0.5))]
    # IoU = 0.25/(1.0) vs (0,0,1,1)? use a clearly sub-threshold box
    lines = [_line("a", "dog", 0.9, (0.4, 0.4, 0.9, 0.9))]
    result = evaluate(lines, gt)
    assert result.class_aps["dog"] == 0.0


def test_duplicate_detections_one_tp():
    gt = [GroundTruthBox("a", "cat", (0.2, 0.2, 0.6, 0.6))]
    box = (0.2, 0.2, 0.6, 0.6)
    lines = [_line("a", "cat", 0.9, box), _line("a", "cat", 0.8, box)]
    result = evaluate(lines, gt)
    # one TP then one FP: precision points are 1/1 and 1/2, recall hits 1.0 at the first
    assert result.class_aps["cat"] == pytest.approx(1.0)
    recalls = [r for r, _ in result.pr_curves["cat"]]
    precisions = [p for _, p in result.pr_curves["cat"]]
    assert recalls == [1.0, 1.0]
    assert precisions == [1.0, 0.5]


def test_difficult_boxes_do_not_penalize():
    gt = [
        GroundTruthBox("a", "dog", (0.1, 0.1, 0.4, 0.4)),
        GroundTruthBox("a", "dog", (0.6, 0.6, 0.9, 0.9), difficult=True),
    ]
    lines = [
        _line("a", "dog", 0.95, (0.6, 0.6, 0.9, 0.9)),  # hits only the difficult box
        _line("a", "dog", 0.90, (0.1, 0.1, 0.4, 0.4)),
    ]
    result = evaluate(lines, gt)
    assert result.class_aps["dog"] == pytest.approx(1.0)


def test_lowering_fp_score_never_hurts():
    gt = [GroundTruthBox("a", "dog", (0.1, 0.1, 0.5, 0.5))]
    tp_line = _line("a", "dog", 0.8, (0.1, 0.1, 0.5, 0.5))
    fp_high = evaluate([tp_line, _line("a", "dog", 0.9, (0.6, 0.6, 0.9, 0.9))], gt)
    fp_low = evaluate([tp_line, _line("a", "dog", 0.1, (0.6, 0.6, 0.9, 0.9))], gt)
    assert fp_low.class_aps["dog"] >= fp_high.class_aps["dog"]


def test_null_detector_scores_zero():
    gt = [GroundTruthBox("a", "dog", (0.1, 0.1, 0.5, 0.5))]
    result = evaluate([], gt)
    assert result.mean_ap == 0.0
    assert result.class_aps["dog"] == 0.0


def test_classes_without_ground_truth_excluded():
    gt = [GroundTruthBox("a", "dog", (0.1, 0.1, 0.5, 0.5))]
    lines = [
        _line("a", "dog", 0.9, (0.1, 0.1, 0.5, 0.5)),
        _line("a", "cat", 0.9, (0.1, 0.1, 0.5, 0.5)),  # no cat ground truth anywhere
    ]
    result = evaluate(lines, gt)
    assert "cat" not in result.class_aps
    assert result.mean_ap == pytest.approx(1.0)
    assert "(no ground truth)" in format_eval_report(result)


def test_randomized_instances_match_reference():
    rng = np.random.default_rng(5)
    for _ in range(25):
        lines, gts, dets_by_class, gts_by_class = random_eval_instance(rng)
        result = evaluate(lines, gts)
        want_map = map_reference(dets_by_class, gts_by_class)
        assert result.mean_ap == pytest.approx(want_map, abs=1e-9)
        for name, gt_list in gts_by_class.items():
            if not any(not g[2] for g in gt_list):
                continue
            want = ap_reference(dets_by_class.get(name, []), gt_list)
            assert result.class_aps[name] == pytest.approx(want, abs=1e-9)


SCORES = (0.2, 0.4, 0.6, 0.8, 1.0)  # few values, so scores tie


def _box(rng, low=0.1, high=0.5):
    x0, y0 = rng.uniform(0.0, 0.5, 2)
    w, h = rng.uniform(low, high, 2)
    return np.array([x0, y0, x0 + w, y0 + h])


def _dense_eval_instance(rng, cluster_size, n_truths, n_dets):
    """Truths: a row of near-identical dogs on image a, each shifted right
    of the last by up to 15% of its width, so one detection can overlap two
    of them while another overlaps only one; scattered dogs, cats and cars;
    and birds only on image z. Detections: mostly jittered copies of a
    truth, with birds only on images a-c."""
    classes, images = ("dog", "cat", "car"), ("a", "b", "c")
    base = _box(rng, 0.2, 0.5)
    step = rng.uniform(0.0, 0.15) * (base[2] - base[0]) * np.array([1.0, 0.0, 1.0, 0.0])
    placed = [("a", "dog", base + k * step) for k in range(cluster_size)]
    placed += [(str(rng.choice(images)), str(rng.choice(classes)), _box(rng))
               for _ in range(n_truths)]
    gts = [GroundTruthBox(img, name, tuple(np.clip(box, 0.0, 1.0).tolist()),
                          difficult=bool(rng.uniform() < 0.25))
           for img, name, box in placed]
    gts += [GroundTruthBox("z", "bird", tuple(_box(rng).tolist()), difficult=k > 0)
            for k in range(2)]

    lines = []
    for _ in range(n_dets):
        draw = rng.uniform()
        if draw < 0.8:
            g = gts[int(rng.integers(0, cluster_size if draw < 0.4 else len(placed)))]
            img, name = g.image_id, g.class_name
            box = np.clip(np.asarray(g.box) + rng.normal(0.0, 0.02, 4), 0.0, 1.0)
        else:
            img, name = str(rng.choice(images)), str(rng.choice(classes + ("bird",)))
            box = _box(rng)
        if box[0] >= box[2] or box[1] >= box[3]:
            continue
        score = SCORES[int(rng.integers(0, len(SCORES)))]
        lines.append(_line(img, name, score, box))

    dets_by_class, gts_by_class = {}, {}
    for line in lines:
        parts = line.split()
        dets_by_class.setdefault(parts[1], []).append(
            (parts[0], float(parts[2]), tuple(float(v) for v in parts[3:]))
        )
    for g in gts:
        gts_by_class.setdefault(g.class_name, []).append((g.image_id, g.box, g.difficult))
    return lines, gts, dets_by_class, gts_by_class


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    cluster_size=st.integers(2, 4),
    n_truths=st.integers(0, 10),
    n_dets=st.integers(0, 40),
)
def test_dense_matching_matches_reference(seed, cluster_size, n_truths, n_dets):
    """Detections that overlap several truths at once pick the best unmatched
    one; a class with no same-image pair scores from an empty pair list."""
    rng = np.random.default_rng(seed)
    lines, gts, dets_by_class, gts_by_class = _dense_eval_instance(
        rng, cluster_size, n_truths, n_dets)
    got = evaluate(lines, gts).mean_ap
    assert abs(got - map_reference(dets_by_class, gts_by_class)) <= 1e-9


def test_pr_curve_csv():
    gt = [GroundTruthBox("a", "dog", (0.1, 0.1, 0.5, 0.5))]
    lines = [_line("a", "dog", 0.9, (0.1, 0.1, 0.5, 0.5))]
    csv = pr_curve_csv(evaluate(lines, gt))
    assert csv.splitlines()[0] == "class,recall,precision"
    assert "dog,1.000000,1.000000" in csv


PARITY_TRUTHS = [
    GroundTruthBox("a", "dog", (0.1, 0.1, 0.5, 0.5)),
    GroundTruthBox("a", "dog", (0.4, 0.1, 0.8, 0.5), difficult=True),
    GroundTruthBox("b", "cat", (0.2, 0.3, 0.6, 0.9)),
    GroundTruthBox("c", "dog", (0.0, 0.0, 1.0, 1.0)),
]
PARITY_BOXES = [g.box for g in PARITY_TRUTHS] + [(0.12, 0.1, 0.52, 0.48), (0.6, 0.6, 0.9, 0.9)]

# Each edit turns one well-formed line into another line; some still parse.
LINE_EDITS = {
    "blank": lambda f: "",
    "whitespace-only": lambda f: " \t \x0c ",
    "six-fields": lambda f: " ".join(f[:6]),
    "eight-fields": lambda f: " ".join(f + ["0.5"]),
    "unknown-class": lambda f: " ".join(f[:1] + ["unicorn"] + f[2:]),
    "non-numeric": lambda f: " ".join(f[:4] + ["high"] + f[5:]),
    "nan-score": lambda f: " ".join(f[:2] + ["nan"] + f[3:]),
    "inf-coordinate": lambda f: " ".join(f[:5] + ["inf"] + f[6:]),
    "overflowing-1e400": lambda f: " ".join(f[:3] + ["1e400"] + f[4:]),
    "underscore-digits": lambda f: " ".join(f[:2] + ["1_0"] + f[3:]),
    "full-width-digits": lambda f: " ".join(f[:3] + ["\uff10.\uff11"] + f[4:]),
    "no-break-space-separators": lambda f: "\xa0".join(f),
    "form-feed-separators": lambda f: "\x0c".join(f),
    "embedded-newline": lambda f: " ".join(f) + "\n" + " ".join(f),
    "half-line-then-newline": lambda f: " ".join(f[:3]) + "\n" + " ".join(f[3:]),
    "trailing-newline": lambda f: " ".join(f) + "\n",
    "trailing-crlf": lambda f: " ".join(f) + "\r\n",
}

_parity_line = st.builds(
    lambda image, name, score, box: [image, name, f"{score:.6f}"] + [f"{v:.6f}" for v in box],
    st.sampled_from("abcd"), st.sampled_from(("dog", "cat", "car")),
    st.floats(0.0, 1.0), st.sampled_from(PARITY_BOXES),
)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except FormatError as e:
        return "error", str(e)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    fields=st.lists(_parity_line, max_size=12),
    edits=st.lists(st.tuples(st.integers(0, 11), st.sampled_from(sorted(LINE_EDITS))), max_size=4),
    chunk=st.sampled_from((1, 2, 3, 5, voceval.PARSE_CHUNK_LINES)),
)
def test_parse_matches_line_loop_reference(fields, edits, chunk):
    """On mutated lines, the chunked column parser gives the line loop's
    records and mAP, or raises its FormatError message, whatever the chunk
    size, so an error's line number counts across chunks."""
    lines = [" ".join(f) for f in fields]
    for at, edit in edits:
        if at < len(lines):
            lines[at] = LINE_EDITS[edit](fields[at])
    want = _outcome(parse_lines_reference, lines)
    with mock.patch.object(voceval, "PARSE_CHUNK_LINES", chunk):
        assert _outcome(parse_detection_lines, lines) == want
        got = _outcome(lambda: evaluate(lines, PARITY_TRUTHS).mean_ap)
    if want[0] == "error":
        assert got == want
        return
    dets_by_class, gts_by_class = {}, {}
    for r in want[1]:
        dets_by_class.setdefault(r.class_name, []).append((r.image_id, r.score, r.box))
    for g in PARITY_TRUTHS:
        gts_by_class.setdefault(g.class_name, []).append((g.image_id, g.box, g.difficult))
    assert got[0] == "ok"
    assert abs(got[1] - map_reference(dets_by_class, gts_by_class)) <= 1e-9


def test_well_formed_lines_never_take_the_line_loop():
    """Lines with and without a newline, and blank ones, parse in columns."""
    lines = [_line("a", "dog", 0.9, (0.1, 0.1, 0.5, 0.5)),
             _line("b", "cat", 0.5, (0.2, 0.3, 0.6, 0.9)) + "\n", "  \n", "",
             _line("a", "car", 0.1, (0.0, 0.0, 1.0, 1.0))]
    with mock.patch.object(voceval, "_raise_first_bad_line",
                           side_effect=AssertionError("line loop")):
        records = parse_detection_lines(lines)
    assert records == parse_lines_reference(lines)


def _large_eval_input(seed, n_lines=100_000, n_images=1000):
    """Seeded eval input shaped like a VOC run: three truths per image, a
    fifth of the lines jittered copies of a truth, the rest random boxes."""
    rng = np.random.default_rng(seed)
    image_ids = [f"img{i:06d}" for i in range(n_images)]
    truth_image = np.repeat(np.arange(n_images), 3)
    truth_class = rng.integers(len(VOC_CLASSES), size=len(truth_image))
    corner = rng.uniform(0.0, 0.6, (len(truth_image), 2))
    truth_boxes = np.hstack([corner, corner + rng.uniform(0.05, 0.4, corner.shape)])
    truths = [GroundTruthBox(image_ids[m], VOC_CLASSES[c], tuple(box), bool(rng.uniform() < 0.05))
              for m, c, box in zip(truth_image, truth_class, truth_boxes.tolist())]
    copies = rng.integers(len(truths), size=n_lines // 5)
    rest = n_lines - len(copies)
    image = np.concatenate([truth_image[copies], rng.integers(n_images, size=rest)])
    classes = np.concatenate([truth_class[copies], rng.integers(len(VOC_CLASSES), size=rest)])
    corners = np.sort(rng.uniform(0.0, 1.0, (rest, 2, 2)), axis=1)
    boxes = np.vstack([truth_boxes[copies] + rng.normal(0.0, 0.02, (len(copies), 4)),
                       corners.transpose(0, 2, 1).reshape(rest, 4)])
    scores = rng.uniform(size=n_lines)
    lines = [f"{image_ids[m]} {VOC_CLASSES[c]} {s:.6f} {x0:.6f} {y0:.6f} {x1:.6f} {y1:.6f}\n"
             for m, c, s, (x0, y0, x1, y1) in zip(image.tolist(), classes.tolist(),
                                                   scores.tolist(), boxes.tolist())]
    order = rng.permutation(n_lines)
    return [lines[i] for i in order], truths


# evaluate's tracemalloc peak on _large_eval_input(3): 11.3 MB parsing 4,096
# lines a chunk; 55 MB when the whole input is split into tokens at once, and
# 45 MB for the old one-record-per-line parse.
EVAL_PEAK_BOUND_MB = 20


def test_evaluate_memory_is_bounded_by_the_parse_chunk():
    lines, truths = _large_eval_input(3)
    tracemalloc.start()
    try:
        result = evaluate(lines, truths)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.detections == len(lines)
    assert peak / 1e6 < EVAL_PEAK_BOUND_MB

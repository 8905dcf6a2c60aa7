import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyssd.errors import ConfigError, ShapeError
from tinyssd.network import HeadOutput
from tinyssd.priors import (
    DEFAULT_VARIANCES,
    Detection,
    PriorConfig,
    PriorSet,
    decode_boxes,
    detect,
    format_detection_line,
    generate_priors,
    iou,
    nms_per_class,
    tiny_ssd_prior_config,
)
from tinyssd.voceval import parse_detection_lines

from reference import (
    encode_boxes,
    iou_reference,
    nms_reference,
    prior_count,
    random_corner_boxes,
)


def test_prior_count_is_8030(prior_set):
    assert len(prior_set) == 8030
    assert prior_count((37, 18, 9, 4, 2, 1), (4, 6, 6, 6, 6, 4)) == 8030


def test_prior_layout_from_spec(spec):
    cfg = tiny_ssd_prior_config(spec)
    assert cfg.scales == ((37, 4), (18, 6), (9, 6), (4, 6), (2, 6), (1, 4))
    assert cfg.input_size == 300


@pytest.mark.parametrize("input_size, digest", [
    (300, "ad4d78cfbd571596214f5d47346a14f6e12656aacab5a9e558809aac5daaaeb3"),
    (600, "e94f9d55254e2196730d26a9b651746b05d353274f670a1acc7309961fd0dc73"),
])
def test_prior_boxes_pinned(spec, input_size, digest):
    cfg = tiny_ssd_prior_config(dataclasses.replace(spec, input_size=input_size))
    assert hashlib.sha256(generate_priors(cfg).boxes.tobytes()).hexdigest() == digest


def test_last_scale_first_prior_is_center_square(prior_set):
    # 1x1 scale, min 264: square of side 264/300 centered at (0.5, 0.5)
    box = prior_set.boxes[8026]
    np.testing.assert_allclose(box, [0.06, 0.06, 0.94, 0.94], atol=1e-12)
    # its geometric-mean companion
    side = math.sqrt(264 * 315) / 300
    np.testing.assert_allclose(
        prior_set.boxes[8027], [0.5 - side / 2, 0.5 - side / 2, 0.5 + side / 2, 0.5 + side / 2],
        atol=1e-12,
    )


def test_priors_clipped_and_well_formed(prior_set):
    b = prior_set.boxes
    assert b.min() >= 0.0 and b.max() <= 1.0
    assert (b[:, 0] <= b[:, 2]).all()
    assert (b[:, 1] <= b[:, 3]).all()


def test_prior_cell_centers():
    cfg = PriorConfig(scales=((2, 4),), input_size=300)
    boxes = generate_priors(cfg).boxes
    first = boxes[0]
    cx = (first[0] + first[2]) / 2
    cy = (first[1] + first[3]) / 2
    np.testing.assert_allclose([cx, cy], [0.25, 0.25], atol=1e-12)
    # row-major cells: second cell is (row 0, col 1)
    second = boxes[4]
    np.testing.assert_allclose(
        [(second[0] + second[2]) / 2, (second[1] + second[3]) / 2], [0.75, 0.25], atol=1e-12
    )


def test_scale_priors_ratio_consistency():
    with pytest.raises(ConfigError, match="5 priors per cell"):
        PriorConfig(scales=((4, 5),), input_size=300)
    with pytest.raises(ConfigError, match="cover 6 scales, got 7"):
        PriorConfig(scales=((1, 4),) * 7, input_size=300)
    with pytest.raises(ConfigError, match="max_size 315.0 too large for input 299"):
        PriorConfig(scales=((1, 4),) * 6, input_size=299)
    with pytest.raises(ConfigError, match="feature-map side must be >= 1, got 0"):
        PriorConfig(scales=((0, 4),), input_size=300)
    with pytest.raises(ConfigError, match="feature-map side must be >= 1, got -3"):
        PriorConfig(scales=((-3, 4),), input_size=300)
    assert len(generate_priors(PriorConfig(scales=((1, 4),) * 6, input_size=300))) == 24


def test_prior_layout_needs_a_scale(spec):
    with pytest.raises(ConfigError, match="at least one scale"):
        PriorConfig(scales=(), input_size=300)
    with pytest.raises(ConfigError, match="at least one scale"):
        tiny_ssd_prior_config(dataclasses.replace(spec, heads=()))


def test_prior_layout_refuses_a_non_square_head_grid(spec):
    """A (3, 1) conv13_1 leaves conv13_2 at 1x2, which a side-length layout
    would count as 1x1 and so lay out 4 boxes fewer than the head predicts."""
    layers = tuple(dataclasses.replace(l, geometry=dataclasses.replace(l.geometry, kernel=(3, 1)))
                   if l.name == "conv13_1" else l for l in spec.layers)
    with pytest.raises(ConfigError, match="head source 'conv13_2' has a 1x2 grid"):
        tiny_ssd_prior_config(dataclasses.replace(spec, layers=layers))


def test_decode_zero_offsets_returns_priors(prior_set):
    loc = np.zeros((len(prior_set), 4), dtype=np.float32)
    decoded = decode_boxes(loc, prior_set)
    np.testing.assert_allclose(decoded, prior_set.boxes, atol=1e-12)


def test_decode_doubles_extent():
    priors = PriorSet(boxes=np.array([[0.4, 0.4, 0.6, 0.6]]))
    v0, v1 = DEFAULT_VARIANCES
    loc = np.array([[0.0, 0.0, math.log(2) / v1, math.log(2) / v1]])
    out = decode_boxes(loc, priors, clip=False)
    np.testing.assert_allclose(out, [[0.3, 0.3, 0.7, 0.7]], atol=1e-12)


def test_decode_encode_round_trip(prior_set):
    rng = np.random.default_rng(0)
    idx = rng.integers(0, len(prior_set), 200)
    priors = PriorSet(boxes=prior_set.boxes[idx])
    loc = rng.normal(0, 1, (200, 4)).astype(np.float32)
    decoded = decode_boxes(loc, priors, clip=False)
    back = encode_boxes(decoded, priors.boxes)
    np.testing.assert_allclose(back, loc, atol=1e-5)


def test_decode_rejects_bad_rows(prior_set):
    loc = np.zeros((len(prior_set), 4))
    loc[17, 2] = np.inf
    with pytest.raises(ShapeError, match="row 17"):
        decode_boxes(loc, prior_set)
    with pytest.raises(ShapeError):
        decode_boxes(np.zeros((3, 4)), prior_set)


def test_iou_properties():
    rng = np.random.default_rng(1)
    boxes = random_corner_boxes(rng, 20)
    for b in boxes:
        assert iou(b, b) == pytest.approx(1.0)
    for a, b in zip(boxes[:10], boxes[10:]):
        assert iou(a, b) == pytest.approx(iou(b, a))
    assert iou((0, 0, 0.2, 0.2), (0.5, 0.5, 0.9, 0.9)) == 0.0
    mat = iou(boxes[:5, None], boxes[5:9])
    for i in range(5):
        for j in range(4):
            assert mat[i, j] == pytest.approx(iou(boxes[i], boxes[5 + j]))


# Corners on a 1/8 grid give identical, touching and nested boxes. The float
# range keeps width x height products clear of underflow, where
# iou_reference would divide zero by zero.
_coord = st.one_of(st.integers(0, 8).map(lambda v: v / 8), st.floats(1e-3, 1.0))
_box = st.tuples(_coord, _coord, _coord, _coord).map(
    lambda c: (min(c[0], c[2]), min(c[1], c[3]), max(c[0], c[2]), max(c[1], c[3]))
)
EDGE_BOXES = [
    (0.25, 0.25, 0.75, 0.75),
    (0.25, 0.25, 0.75, 0.75),  # identical to the first
    (0.75, 0.25, 1.0, 0.75),  # touches the first along x = 0.75
    (0.375, 0.375, 0.5, 0.5),  # nested in the first
    (0.5, 0.25, 0.5, 0.75),  # zero width
    (0.5, 0.5, 0.5, 0.5),  # a point
]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(drawn=st.lists(_box, max_size=12))
def test_iou_equals_reference_exactly(drawn):
    """Every call form gives iou_reference's value bit for bit: a pair of
    boxes (0-d), a row, a table, and elementwise pairs."""
    boxes = np.array(EDGE_BOXES + drawn)
    n = len(boxes)
    want = np.array([[iou_reference(a, b) for b in boxes] for a in boxes])
    for i in range(n):
        for j in range(n):
            got = iou(boxes[i], boxes[j])
            assert got.shape == () and got == want[i, j]
        assert np.array_equal(iou(boxes[i:i + 1], boxes), want[i])
    assert np.array_equal(iou(boxes[:, None], boxes), want)
    flipped = np.arange(n)[::-1]
    assert np.array_equal(iou(boxes, boxes[flipped]), want[np.arange(n), flipped])


def test_nms_single_box_kept():
    assert nms_per_class(np.array([0.7]), np.array([[0, 0, 1, 1.0]]), 0.45) == [0]


def test_nms_identical_boxes_suppressed():
    boxes = np.array([[0.1, 0.1, 0.5, 0.5], [0.1, 0.1, 0.5, 0.5]])
    kept = nms_per_class(np.array([0.9, 0.8]), boxes, 0.45)
    assert kept == [0]


def test_nms_tie_broken_by_index():
    boxes = np.array([[0.1, 0.1, 0.5, 0.5], [0.1, 0.1, 0.5, 0.5]])
    kept = nms_per_class(np.array([0.7, 0.7]), boxes, 0.45)
    assert kept == [0]


@pytest.mark.parametrize("threshold", [float("nan"), -0.5, 1.5])
def test_nms_refuses_iou_threshold_outside_unit_interval(threshold):
    """A NaN or negative threshold would drop even a disjoint box."""
    boxes = np.array([[0, 0, 0.1, 0.1], [0.5, 0.5, 0.6, 0.6]])
    with pytest.raises(ConfigError, match=r"iou_threshold must be in \[0, 1\], got"):
        nms_per_class(np.array([0.9, 0.8]), boxes, threshold)
    assert nms_per_class(np.array([0.9, 0.8]), boxes, 0.0) == [0, 1]


@pytest.mark.parametrize("boxes_shape, n_classes", [
    ((2, 4), 3), ((4, 4), 3), ((3, 4), 2), ((3, 4), 4), ((3, 3), 3),
], ids=["short-boxes", "long-boxes", "short-classes", "long-classes", "three-corners"])
def test_nms_refuses_shapes_that_do_not_match_the_scores(boxes_shape, n_classes):
    boxes = np.full(boxes_shape, 0.5)
    with pytest.raises(ShapeError, match="nms needs"):
        nms_per_class(np.ones(3), boxes, 0.45, classes=np.zeros(n_classes, dtype=int))


def test_nms_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 51))
        boxes = random_corner_boxes(rng, n)
        scores = rng.uniform(0, 1, n)
        thr = float(rng.uniform(0.2, 0.7))
        assert nms_per_class(scores, boxes, thr) == nms_reference(scores, boxes, thr)


def _single_image_head(loc, conf):
    return HeadOutput(loc=loc[None].astype(np.float32), conf=conf[None].astype(np.float32))


def test_detect_all_background_is_empty(prior_set):
    n = len(prior_set)
    conf = np.zeros((n, 21))
    conf[:, 0] = 20.0
    out = detect(_single_image_head(np.zeros((n, 4)), conf), prior_set, conf_threshold=0.01)
    assert out == []


def test_detect_single_winner(prior_set):
    n = len(prior_set)
    conf = np.zeros((n, 21))
    conf[:, 0] = 20.0
    conf[123, 0] = 0.0
    conf[123, 7] = 25.0
    out = detect(_single_image_head(np.zeros((n, 4)), conf), prior_set, conf_threshold=0.5)
    assert len(out) == 1
    det = out[0]
    assert det.class_id == 7
    assert det.score > 0.99
    np.testing.assert_allclose(det.box, prior_set.boxes[123], atol=1e-6)


def test_detect_accepts_iou_threshold_bounds(head, prior_set):
    for iou_threshold in (0.0, 1.0):
        detect(head, prior_set, conf_threshold=0.01, iou_threshold=iou_threshold)


def test_detect_caps_at_top_k(prior_set):
    n = len(prior_set)
    rng = np.random.default_rng(3)
    conf = rng.normal(0, 3, (n, 21))
    loc = rng.normal(0, 0.5, (n, 4))
    out = detect(_single_image_head(loc, conf), prior_set, conf_threshold=0.01, top_k=25)
    assert len(out) <= 25
    assert all(d.class_id != 0 for d in out)
    scores = [d.score for d in out]
    assert scores == sorted(scores, reverse=True)


def test_detect_skips_nonfinite_rows(prior_set):
    n = len(prior_set)
    conf = np.zeros((n, 21))
    conf[:, 0] = 20.0
    conf[5, 0] = 0.0
    conf[5, 3] = 25.0
    loc = np.zeros((n, 4))
    loc[5, 0] = np.nan
    out = detect(_single_image_head(loc, conf), prior_set, conf_threshold=0.5)
    assert out == []


def test_detect_requires_single_image(prior_set):
    n = len(prior_set)
    head = HeadOutput(loc=np.zeros((2, n, 4), np.float32), conf=np.zeros((2, n, 21), np.float32))
    with pytest.raises(ShapeError, match="single-image"):
        detect(head, prior_set)


def test_detect_refuses_classes_without_a_voc_name():
    """A head wider than background plus the 20 VOC classes would emit class
    ids that no detection line can name."""
    boxes = PriorSet(boxes=np.array([[0.1, 0.1, 0.5, 0.5], [0.2, 0.2, 0.9, 0.9]]))
    conf = np.zeros((2, 25), np.float32)
    conf[:, 24] = 10.0
    head = HeadOutput(loc=np.zeros((1, 2, 4), np.float32), conf=conf[None])
    with pytest.raises(ShapeError, match="conf has 25 columns, more than background plus 20 VOC classes"):
        detect(head, boxes)


def test_detection_line_round_trips():
    det = Detection(class_id=12, score=0.875, box=(0.1, 0.2, 0.3, 0.4))
    line = format_detection_line("img_007", det)
    rec = parse_detection_lines([line])[0]
    assert rec.image_id == "img_007"
    assert rec.class_name == det.class_name == "dog"
    assert rec.score == pytest.approx(det.score, abs=1e-6)
    np.testing.assert_allclose(rec.box, det.box, atol=1e-6)

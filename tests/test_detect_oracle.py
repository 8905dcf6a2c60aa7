"""detect against its definition, and the bound on its NMS work."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tinyssd import priors
from tinyssd.errors import ConfigError
from tinyssd.network import HeadOutput
from tinyssd.priors import PriorSet, detect, nms_per_class

from reference import detect_reference, nms_reference, random_corner_boxes

# nms_reference builds a full pairwise table, so examples are kept to at
# most this many (candidate, candidate) pairs summed over classes.
ORACLE_PAIRS = 40_000


def _head(loc, logits):
    return HeadOutput(loc=loc[None].astype(np.float32), conf=logits[None].astype(np.float32))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_priors=st.integers(20, 400),
    n_classes=st.integers(1, 20),
    decimals=st.sampled_from([None, 1, 0]),
    conf=st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.5, 0.9]),
    iou=st.sampled_from([0.0, 0.2, 0.45, 0.7, 1.0]),
    top_k_share=st.floats(0.0, 1.0),
    non_finite=st.booleans(),
)
def test_detect_equals_reference(seed, n_priors, n_classes, decimals, conf, iou,
                                 top_k_share, non_finite):
    rng = np.random.default_rng(seed)
    boxes = random_corner_boxes(rng, n_priors)
    loc = rng.normal(0.0, 0.5, (n_priors, 4))
    logits = rng.normal(0.0, 2.0, (n_priors, n_classes + 1))
    if decimals is not None:  # coarse logits give tied scores
        logits = np.round(logits, decimals)
    if non_finite:
        loc[rng.integers(0, n_priors, 3), rng.integers(0, 4, 3)] = np.nan
        logits[rng.integers(0, n_priors, 3), rng.integers(0, n_classes + 1, 3)] = np.inf
        logits[rng.integers(0, n_priors, 3), rng.integers(0, n_classes + 1, 3)] = -np.inf
    head = _head(loc, logits)
    with np.errstate(invalid="ignore"):
        e = np.exp(head.conf[0] - head.conf[0].max(axis=1, keepdims=True))
        passing = (e / e.sum(axis=1, keepdims=True) >= conf).sum(axis=0)
    assume(int((passing[1:].astype(np.int64) ** 2).sum()) <= ORACLE_PAIRS)
    top_k = round(top_k_share * n_priors * n_classes)

    with np.errstate(invalid="ignore"):
        got = detect(head, PriorSet(boxes=boxes), conf, iou, top_k)
        want = detect_reference(head.loc[0], head.conf[0], boxes, conf, iou, top_k)
    assert [(d.class_id, d.score, d.box) for d in got] == want


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 300),
    decimals=st.sampled_from([None, 1]),
    iou=st.sampled_from([0.0, 0.3, 0.45, 0.7]),
    max_keep=st.integers(0, 300),
)
def test_nms_max_keep_is_a_prefix(seed, n, decimals, iou, max_keep):
    rng = np.random.default_rng(seed)
    boxes = random_corner_boxes(rng, n)
    scores = rng.uniform(0.0, 1.0, n)
    if decimals is not None:
        scores = np.round(scores, decimals)
    full = nms_per_class(scores, boxes, iou)
    assert nms_per_class(scores, boxes, iou, max_keep=max_keep) == full[:max_keep]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 300),
    n_classes=st.integers(1, 5),
    decimals=st.sampled_from([None, 1]),
    iou=st.sampled_from([0.0, 0.3, 0.45, 0.7]),
    max_keep=st.integers(0, 300),
)
def test_class_aware_nms_equals_merged_per_class_reference(seed, n, n_classes, decimals,
                                                           iou, max_keep):
    """One walk over labelled boxes keeps what per-class NMS keeps, merged
    by (-score, class, index) and cut at max_keep."""
    rng = np.random.default_rng(seed)
    boxes = random_corner_boxes(rng, n)
    scores = rng.uniform(0.0, 1.0, n)
    if decimals is not None:  # coarse scores give ties within and across classes
        scores = np.round(scores, decimals)
    labels = rng.integers(0, n_classes, n)
    merged = []
    for c in range(n_classes):
        idx = np.flatnonzero(labels == c)
        merged += [(-scores[i], c, int(i)) for i in idx[nms_reference(scores[idx], boxes[idx], iou)]]
    want = [i for _, _, i in sorted(merged)[:max_keep]]
    assert nms_per_class(scores, boxes, iou, max_keep=max_keep, classes=labels) == want


@pytest.mark.parametrize("top_k", [1, 200])
def test_suppression_rows_bounded_by_top_k(prior_set, monkeypatch, top_k):
    """Every prior passes for all 20 classes at conf 0 (160,600 candidates);
    detect makes one NMS call over all of them, which computes at most
    top_k IoU rows."""
    n = len(prior_set)
    candidates, rows = [], []
    real_nms, real_iou = priors.nms_per_class, priors.iou

    def counting_nms(scores, *args, **kwargs):
        candidates.append(len(scores))
        return real_nms(scores, *args, **kwargs)

    def counting_iou(a, b):
        rows.append(len(a))
        return real_iou(a, b)

    monkeypatch.setattr(priors, "nms_per_class", counting_nms)
    monkeypatch.setattr(priors, "iou", counting_iou)
    head = _head(np.zeros((n, 4)), np.zeros((n, 21)))
    found = detect(head, prior_set, conf_threshold=0.0, top_k=top_k)
    assert candidates == [20 * n] == [160_600]
    assert sum(rows) <= top_k
    assert len(found) == top_k


def test_negative_max_keep_is_rejected():
    with pytest.raises(ConfigError, match="max_keep"):
        nms_per_class(np.ones(2), np.ones((2, 4)), 0.45, max_keep=-1)


def test_negative_top_k_is_rejected(prior_set):
    n = len(prior_set)
    head = _head(np.zeros((n, 4)), np.zeros((n, 21)))
    with pytest.raises(ConfigError, match="top_k"):
        detect(head, prior_set, top_k=-1)


def _counting_iou(monkeypatch):
    """Record (len(a), len(b)) of every priors.iou call."""
    calls = []
    real_iou = priors.iou

    def counting_iou(a, b):
        calls.append((len(a), len(b)))
        return real_iou(a, b)

    monkeypatch.setattr(priors, "iou", counting_iou)
    return calls


def test_random_head_rows_span_only_the_prefix(prior_set, monkeypatch):
    """At conf 0 a random head gives 160,600 candidates and ~8,000 per
    class; the walk keeps top_k boxes inside the best 4·top_k, so no IoU row
    reaches past them."""
    top_k = 200
    rng = np.random.default_rng(5)
    n = len(prior_set)
    calls = _counting_iou(monkeypatch)
    head = _head(rng.normal(0.0, 1.0, (n, 4)), rng.normal(0.0, 1.0, (n, 21)))
    found = detect(head, prior_set, conf_threshold=0.0, top_k=top_k)
    assert len(found) == top_k
    assert all(b < 4 * top_k for _, b in calls)
    assert sum(a for a, _ in calls) <= top_k


def test_prefix_shortfall_walks_every_box(monkeypatch):
    """The best 4·max_keep boxes are copies of one box per class, so the
    prefix keeps 2 of 5; the rest come from the walk over every box."""
    max_keep, n = 5, 60
    rng = np.random.default_rng(0)
    boxes = random_corner_boxes(rng, n)
    labels = np.arange(n) % 2
    scores = np.linspace(1.0, 0.1, n)
    boxes[:4 * max_keep] = boxes[labels[:4 * max_keep]]  # box 0 or box 1 by class
    calls = _counting_iou(monkeypatch)
    got = nms_per_class(scores, boxes, 0.45, max_keep=max_keep, classes=labels)
    merged = []
    for c in range(2):
        idx = np.flatnonzero(labels == c)
        merged += [(-scores[i], c, int(i)) for i in idx[nms_reference(scores[idx], boxes[idx], 0.45)]]
    assert got == [i for _, _, i in sorted(merged)[:max_keep]]
    assert got[:2] == [0, 1] and min(got[2:]) >= 4 * max_keep
    assert max(b for _, b in calls) > 4 * max_keep


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("nan_count", [0, 30, 90])
def test_max_keep_with_nan_scores_and_ties_at_the_cut(seed, nan_count):
    """Scores in steps of 0.1 tie at every cut, and NaN scores rank last;
    with 90 of 120 NaN the cut itself is NaN for max_keep above 7. The
    boxes repeat 25 shapes, so suppression is heavy and the max_keep-th
    kept box often lies at the cut."""
    rng = np.random.default_rng([seed, nan_count])
    n = 120
    boxes = random_corner_boxes(rng, 25)[rng.integers(0, 25, n)]
    labels = rng.integers(0, 3, n)
    scores = np.round(rng.uniform(0.0, 1.0, n), 1)
    scores[rng.choice(n, nan_count, replace=False)] = np.nan
    full = nms_per_class(scores, boxes, 0.3, classes=labels)
    for k in range(n + 2):
        assert nms_per_class(scores, boxes, 0.3, max_keep=k, classes=labels) == full[:k]

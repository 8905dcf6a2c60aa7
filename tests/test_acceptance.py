"""Acceptance criteria, one test per criterion.

Each test prints a single `criterion N (<name>): PASS|FAIL` line (visible
with `pytest -s`) before asserting, so the whole gate can be read off the
output in one glance.
"""

import time

import numpy as np
import pytest

from tinyssd.accountant import audit, format_audit_table
from tinyssd.arch import intermediate_shapes
from tinyssd.modelio import init_random, load_weights, quantize_fp16, save_weights
from tinyssd.network import HeadOutput, forward
from tinyssd.ops import conv2d
from tinyssd.priors import decode_boxes, detect, nms_per_class
from tinyssd.tensor import Tensor
from tinyssd.voceval import GroundTruthBox, evaluate

import reference
from test_ops import _conv


def _report(number, name, passed, detail):
    print(f"criterion {number} ({name}): {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_1_shape_chain(spec):
    start = time.perf_counter()
    shapes = dict(intermediate_shapes(spec))
    elapsed = time.perf_counter() - start

    chain = {
        "conv1": 149, "pool1": 74, "pool3": 37, "pool5": 18, "pool9": 9, "pool10": 4,
    }
    ok = all(shapes[name][1:] == (s, s) for name, s in chain.items())
    ok &= spec.input_size == 300
    head_sizes = [shapes[h.source][1] for h in spec.heads]
    ok &= head_sizes == [37, 18, 9, 4, 2, 1]
    ok &= elapsed < 1.0
    _report(1, "shape-chain reproduction", ok,
            f"stem chain 300->{[chain[k] for k in chain]}, heads {head_sizes}, {elapsed * 1e3:.1f} ms")
    assert ok


def test_criterion_2_prior_dimensionality(spec, store):
    rng = np.random.default_rng(0)
    image = Tensor(rng.normal(0, 1, (1, 3, 300, 300)).astype(np.float32))
    start = time.perf_counter()
    head = forward(spec, store, image)
    elapsed = time.perf_counter() - start

    expected = reference.prior_count((37, 18, 9, 4, 2, 1), (4, 6, 6, 6, 6, 4))
    ok = expected == 8030
    ok &= head.loc.shape == (1, 8030, 4)
    ok &= head.conf.shape == (1, 8030, 21)
    ok &= elapsed < 10.0
    _report(2, "prior/output dimensionality", ok,
            f"loc {head.loc.shape}, conf {head.conf.shape}, forward {elapsed:.2f} s")
    assert ok


def test_criterion_3_parameter_audit(spec):
    report = audit(spec)
    print(format_audit_table(report))  # per-layer report, emitted for inspection
    dev_params = (report.total_params - 1.13e6) / 1.13e6
    dev_size = (report.fp16_mb - 2.3) / 2.3
    ok = abs(dev_params) <= 0.06 and abs(dev_size) <= 0.06
    _report(3, "parameter audit vs published", ok,
            f"params {report.total_params:,} ({dev_params:+.2%} of 1.13M), "
            f"fp16 {report.fp16_mb:.3f} MB ({dev_size:+.2%} of 2.3 MB)")
    assert ok


def test_criterion_4_mac_audit(spec):
    report = audit(spec)
    dev = (report.total_macs - 571.09e6) / 571.09e6
    ok = abs(dev) <= 0.10
    _report(4, "MAC audit vs published", ok,
            f"MACs {report.total_macs:,} ({dev:+.2%} of 571.09M, 1-MAC convention)")
    assert ok


def test_criterion_5_kernel_oracles(prior_set):
    rng = np.random.default_rng(1)

    conv_worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 3))
        c = int(rng.integers(1, 9))
        h = int(rng.integers(1, 9))
        w = int(rng.integers(1, 9))
        oc = int(rng.integers(1, 9))
        k = int(rng.integers(1, min(3, h, w) + 1))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 3))
        x = rng.normal(0, 1, (n, c, h, w)).astype(np.float32)
        g, wts, b = _conv(oc, c, k, stride=stride, pad=pad, rng=rng)
        got = conv2d(Tensor(x), g, wts, b).data
        want = reference.conv2d_reference(x, wts, b, stride, pad)
        conv_worst = max(conv_worst, float(np.abs(got - want).max()))
    conv_ok = conv_worst <= 1e-5

    nms_mismatches = 0
    for _ in range(100):
        count = int(rng.integers(1, 101))
        boxes = reference.random_corner_boxes(rng, count)
        scores = rng.uniform(0, 1, count)
        thr = float(rng.uniform(0.2, 0.7))
        if nms_per_class(scores, boxes, thr) != reference.nms_reference(scores, boxes, thr):
            nms_mismatches += 1
    nms_ok = nms_mismatches == 0

    map_worst = 0.0
    for _ in range(100):
        lines, gts, dets_by_class, gts_by_class = reference.random_eval_instance(rng)
        got = evaluate(lines, gts).mean_ap
        want = reference.map_reference(dets_by_class, gts_by_class)
        map_worst = max(map_worst, abs(got - want))
    map_ok = map_worst <= 1e-9

    ok = conv_ok and nms_ok and map_ok
    _report(5, "kernel oracle equivalence", ok,
            f"conv max|err| {conv_worst:.2e} (200 runs), NMS mismatches {nms_mismatches}/100, "
            f"mAP max|err| {map_worst:.2e} (100 runs)")
    assert ok


def test_criterion_6_decode_encode_inverse(prior_set):
    rng = np.random.default_rng(2)
    idx = rng.integers(0, len(prior_set), 1000)
    from tinyssd.priors import PriorSet

    priors = PriorSet(boxes=prior_set.boxes[idx])
    loc = rng.normal(0, 1, (1000, 4))
    decoded = decode_boxes(loc, priors, clip=False)
    back = reference.encode_boxes(decoded, priors.boxes)
    worst = float(np.abs(back - loc).max())
    ok = worst <= 1e-5
    _report(6, "decode/encode inverse", ok, f"1000 offset vectors, max|err| {worst:.2e}")
    assert ok


def test_criterion_7_fp16_round_trip(tmp_path, spec):
    store = init_random(spec, 99)
    path = tmp_path / "model.f16"
    save_weights(store, path, dtype="f16")
    loaded = load_weights(path)
    quantized = quantize_fp16(store)
    bit_exact = loaded == quantized
    idempotent = quantize_fp16(quantized) == quantized
    ok = bit_exact and idempotent
    _report(7, "fp16 round-trip", ok,
            f"save->load bit-exact: {bit_exact}, quantize idempotent: {idempotent}")
    assert ok


def test_criterion_8_property_substitutes(prior_set):
    # (a) oracle and null detectors on a synthetic 3-image fixture
    truths = [
        GroundTruthBox("img0", "dog", (0.10, 0.10, 0.40, 0.50)),
        GroundTruthBox("img1", "cat", (0.30, 0.20, 0.90, 0.80)),
        GroundTruthBox("img1", "person", (0.05, 0.05, 0.30, 0.30), difficult=True),
        GroundTruthBox("img2", "car", (0.50, 0.50, 0.90, 0.90)),
    ]
    oracle_lines = [
        f"{g.image_id} {g.class_name} 1.000000 " + " ".join(f"{v:.6f}" for v in g.box)
        for g in truths if not g.difficult
    ]
    oracle_map = evaluate(oracle_lines, truths).mean_ap
    null_map = evaluate([], truths).mean_ap
    fixture_ok = oracle_map == pytest.approx(1.0) and null_map == 0.0

    # (b) plant three objects across scales by inverse-encoding their boxes
    plants = [
        (2736, 3, (0.42, 0.44, 0.58, 0.57)),   # 37x37 scale, cell (18, 18)
        (7564, 8, (0.55, 0.10, 0.90, 0.45)),   # 9x9 scale
        (8026, 15, (0.08, 0.05, 0.92, 0.93)),  # 1x1 scale
    ]
    n = len(prior_set)
    loc = np.zeros((n, 4), dtype=np.float32)
    conf = np.zeros((n, 21), dtype=np.float32)
    conf[:, 0] = 30.0
    for prior_idx, class_id, box in plants:
        offsets = reference.encode_boxes(
            np.asarray([box]), prior_set.boxes[prior_idx:prior_idx + 1]
        )[0]
        loc[prior_idx] = offsets
        conf[prior_idx, 0] = 0.0
        conf[prior_idx, class_id] = 30.0
    head = HeadOutput(loc=loc[None], conf=conf[None])
    found = detect(head, prior_set, conf_threshold=0.5)
    planted_ok = len(found) == len(plants)
    if planted_ok:
        by_class = {d.class_id: d for d in found}
        for _, class_id, box in plants:
            det = by_class.get(class_id)
            if det is None or np.abs(np.asarray(det.box) - box).max() > 1e-5:
                planted_ok = False

    ok = fixture_ok and planted_ok
    _report(8, "non-reproducible claims, property substitution", ok,
            f"oracle mAP {oracle_map:.3f}, null mAP {null_map:.3f}, "
            f"planted detections {len(found)}/{len(plants)} recovered")
    assert ok

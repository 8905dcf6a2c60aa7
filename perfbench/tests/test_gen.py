import numpy as np
import pytest

import gen
from tinyssd import image, tensor, voceval


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _generate(seed, outdir):
    outdir.mkdir()
    gen.flat_frames(seed, outdir)
    gen.stress_tensors(seed, outdir)
    gen.eval_inputs(seed, outdir)
    return _tree_bytes(outdir)


@pytest.fixture(scope="module")
def seed3(tmp_path_factory):
    root = tmp_path_factory.mktemp("gen")
    return root, _generate(3, root / "a")


def test_same_seed_same_bytes(seed3, tmp_path):
    _, first = seed3
    assert _generate(3, tmp_path / "b") == first


def test_other_seed_other_bytes(seed3, tmp_path):
    _, first = seed3
    other = _generate(4, tmp_path / "c")
    assert other.keys() == first.keys()
    assert all(other[name] != first[name] for name in first)


def test_inputs_parse_to_the_stated_workload(seed3):
    root, _ = seed3
    base = root / "a"
    pixels = image.read_ppm(base / "flat00.ppm")
    assert pixels.shape == (gen.FLAT_HEIGHT, gen.FLAT_WIDTH, 3)
    assert np.allclose(pixels.reshape(-1, 3).mean(axis=0), gen.FLAT_RGB_MEANS, atol=0.05)
    assert 0.8 < pixels.reshape(-1, 3).std(axis=0).min() < 1.2

    t = tensor.read_tnsr(base / "stress0.tnsr")
    assert t.shape == (1, 3, 300, 300)
    assert abs(float(t.data.std()) - 1.0) < 0.01

    truths = voceval.load_annotation_dir(base / "annotations")
    assert len(truths) == gen.EVAL_IMAGES * gen.EVAL_OBJECTS_PER_IMAGE
    records = voceval.parse_detection_lines((base / "detections.txt").read_text().splitlines())
    assert len(records) == gen.EVAL_DETECTIONS
    gt = {}
    for g in truths:
        gt.setdefault((g.image_id, g.class_name), []).append(g.box)
    near = sum(
        1 for r in records
        if any(max(abs(a - b) for a, b in zip(r.box, box)) < 0.1
               for box in gt.get((r.image_id, r.class_name), ()))
    )
    # jittered GT copies, plus the odd random box that happens to land close
    assert gen.EVAL_GT_HIT_SHARE <= near / len(records) < gen.EVAL_GT_HIT_SHARE + 0.02

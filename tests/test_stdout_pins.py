"""SHA-256 pins of what `tinyssd detect` and `tinyssd eval` write. The inputs
are built here from seeded generators. A change that alters either output
on purpose re-pins, and says why beside the old and new digests; a
speed-only change never does."""

import hashlib

import numpy as np
import pytest

from tinyssd.arch import VOC_CLASSES
from tinyssd.cli import main
from tinyssd.image import write_ppm
from tinyssd.tensor import Tensor, write_tnsr


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def pin_dir(tmp_path_factory):
    """The seed-7 f16 model, a 90x120 PPM at the channel means plus noise,
    and a unit-variance TNSR."""
    path = tmp_path_factory.mktemp("pins")
    assert main(["init-random", "--seed", "7", "--dtype", "f16",
                 "--out", str(path / "seed7.tssd")]) == 0
    rng = np.random.default_rng(15)
    frame = rng.normal((123.0, 117.0, 104.0), 40.0, (90, 120, 3))
    write_ppm(path / "frame.ppm", np.clip(frame, 0, 255).astype(np.uint8))
    write_tnsr(Tensor(rng.normal(0.0, 1.0, (1, 3, 300, 300))), path / "noise.tnsr")
    return path


def _write_eval_inputs(path, n_images=12):
    """VOC XML for n_images scenes, some truths difficult, and detection
    lines: jittered copies of most truths plus background false positives."""
    rng = np.random.default_rng(15)
    ann = path / "ann"
    ann.mkdir()
    lines = []
    for k in range(n_images):
        image_id = f"img{k:03d}"
        width, height = (int(v) for v in rng.integers(50, 500, 2))
        objects = []
        for _ in range(int(rng.integers(1, 6))):
            name = VOC_CLASSES[int(rng.integers(0, 6))]
            x0, y0 = rng.integers(1, (width // 2, height // 2))
            x1, y1 = rng.integers((x0 + 4, y0 + 4), (width + 1, height + 1))
            difficult = int(rng.random() < 0.2)
            objects.append(
                f"<object><name>{name}</name><difficult>{difficult}</difficult>"
                f"<bndbox><xmin>{x0}</xmin><ymin>{y0}</ymin>"
                f"<xmax>{x1}</xmax><ymax>{y1}</ymax></bndbox></object>")
            box = np.array([(x0 - 1) / width, (y0 - 1) / height, x1 / width, y1 / height])
            for _ in range(int(rng.integers(0, 3))):
                jittered = np.clip(box + rng.normal(0.0, 0.05, 4), 0.0, 1.0)
                lines.append((image_id, name, rng.random(), jittered))
        (ann / f"{image_id}.xml").write_text(
            f"<annotation><size><width>{width}</width><height>{height}</height></size>"
            + "".join(objects) + "</annotation>")
        for _ in range(int(rng.integers(0, 4))):
            corner = rng.random(2) * 0.6
            box = np.concatenate([corner, corner + 0.1 + rng.random(2) * 0.3])
            lines.append((image_id, VOC_CLASSES[int(rng.integers(0, 6))], rng.random(), box))
    text = "".join(f"{i} {name} {score:.6f} " + " ".join(f"{v:.6f}" for v in box) + "\n"
                   for i, name, score, box in lines)
    (path / "dets.txt").write_text(text)
    return len(lines)


@pytest.mark.parametrize("image, flags, lines, sha256", [
    ("frame.ppm", [], 200,
     "9cb107f7e179fc34e06b53f2d71977702c6cafaad80d8d43392c7a2dd60bed91"),
    ("noise.tnsr", ["--conf", "0.01"], 200,
     "e58511e1a1f1fb52ca086e1f915a94c9fdef6a45ba03d577e36c7c6f3b74219b"),
    ("noise.tnsr", ["--conf", "0"], 200,
     "e58511e1a1f1fb52ca086e1f915a94c9fdef6a45ba03d577e36c7c6f3b74219b"),
], ids=["ppm-defaults", "tnsr-conf-0.01", "tnsr-conf-0"])
def test_detect_stdout_is_pinned(pin_dir, capsys, image, flags, lines, sha256):
    assert main(["detect", "--model", str(pin_dir / "seed7.tssd"),
                 "--image", str(pin_dir / image), *flags]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == lines
    assert _sha256(out) == sha256


def test_eval_stdout_and_pr_csv_are_pinned(tmp_path, capsys):
    assert _write_eval_inputs(tmp_path) == 49
    csv = tmp_path / "pr.csv"
    assert main(["eval", "--detections", str(tmp_path / "dets.txt"),
                 "--annotations", str(tmp_path / "ann"), "--pr-csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert out.endswith("mAP 0.2424 over 6 class(es)\n")
    assert _sha256(out) == "bafaf124b2fae11b5253973765abaede4f2433b6395175737718e9fc0b7f6700"
    assert _sha256(csv.read_text(encoding="utf-8")) == (
        "1bdc79449fe8e610bdfa70c8e9f5bde891112129d6b4c8dda22dc5eb7d306b28")

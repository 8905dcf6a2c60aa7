"""Seeded input generators for the benchmark workloads.

    python3 perfbench/gen.py <workload> <seed> <outdir>

writes one workload's inputs and prints their paths as a JSON list. run.py
calls it in a child process, so the generator's memory never counts in the
benchmark process's peak RSS.

Every generator is a pure function of its seed: the same seed writes the
same bytes. The file formats are written here from their specifications
(P6 PPM, TNSR, VOC XML, emission-format detection lines) rather than
through the program's own writers, so a writer defect cannot hide a
reader defect.
"""

from __future__ import annotations

import json
import struct
import sys
from pathlib import Path

import numpy as np

VOC_CLASSES = (
    "aeroplane", "bicycle", "bird", "boat", "bottle", "bus", "car", "cat",
    "chair", "cow", "diningtable", "dog", "horse", "motorbike", "person",
    "pottedplant", "sheep", "sofa", "train", "tvmonitor",
)

# flat: 500x375 frames at the network's RGB channel means plus sensor noise.
FLAT_WIDTH, FLAT_HEIGHT = 500, 375
FLAT_RGB_MEANS = (123.0, 117.0, 104.0)
FLAT_NOISE_SIGMA = 1.0
FLAT_FRAMES = 8

# stress: unit-variance tensors. NMS work differs by a few percent between
# inputs, so a run averages over more than one.
STRESS_INPUTS = 2

# eval: 1000 annotation files of 3 objects each, 100k detection lines of
# which GT_HIT_SHARE are jittered copies of a ground-truth box.
EVAL_IMAGES = 1000
EVAL_OBJECTS_PER_IMAGE = 3
EVAL_DETECTIONS = 100_000
EVAL_GT_HIT_SHARE = 0.2
EVAL_DIFFICULT_SHARE = 0.05
EVAL_JITTER = 0.02  # normalized corner jitter of a GT copy


_STREAMS = {"flat": 1, "stress": 2, "eval": 3}


def _rng(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per input kind, so adding one kind never
    shifts the bytes of another."""
    return np.random.default_rng([seed, _STREAMS[stream]])


def write_ppm(path: Path, pixels: np.ndarray) -> None:
    h, w, _ = pixels.shape
    path.write_bytes(f"P6\n{w} {h}\n255\n".encode() + pixels.astype(np.uint8).tobytes())


def write_tnsr(path: Path, data: np.ndarray) -> None:
    path.write_bytes(b"TNSR" + struct.pack("<4I", *data.shape) + data.astype("<f4").tobytes())


def flat_frames(seed: int, outdir: Path, count: int = FLAT_FRAMES) -> list[Path]:
    """P6 frames at the channel means plus N(0, sigma) grey-level noise."""
    rng = _rng(seed, "flat")
    paths = []
    for i in range(count):
        noise = rng.normal(0.0, FLAT_NOISE_SIGMA, (FLAT_HEIGHT, FLAT_WIDTH, 3))
        pixels = np.clip(np.rint(np.asarray(FLAT_RGB_MEANS) + noise), 0, 255)
        path = outdir / f"flat{i:02d}.ppm"
        write_ppm(path, pixels)
        paths.append(path)
    return paths


def stress_tensors(seed: int, outdir: Path, count: int = STRESS_INPUTS) -> list[Path]:
    """Unit-variance 1x3x300x300 network inputs."""
    rng = _rng(seed, "stress")
    paths = []
    for i in range(count):
        path = outdir / f"stress{i}.tnsr"
        write_tnsr(path, rng.normal(0.0, 1.0, (1, 3, 300, 300)).astype(np.float32))
        paths.append(path)
    return paths


def _voc_xml(name: str, width: int, height: int, objects) -> str:
    parts = [f"<annotation><filename>{name}.jpg</filename>",
             f"<size><width>{width}</width><height>{height}</height><depth>3</depth></size>"]
    for cls, difficult, (x0, y0, x1, y1) in objects:
        parts.append(
            f"<object><name>{cls}</name><difficult>{difficult}</difficult>"
            f"<bndbox><xmin>{x0}</xmin><ymin>{y0}</ymin><xmax>{x1}</xmax><ymax>{y1}</ymax></bndbox>"
            "</object>"
        )
    parts.append("</annotation>\n")
    return "\n".join(parts)


def eval_inputs(seed: int, outdir: Path) -> tuple[Path, Path]:
    """Write EVAL_IMAGES VOC XML files and one detections file.

    Returns (detections file, annotation directory). A GT_HIT_SHARE of the
    lines copy a ground-truth box of the same image and class with jittered
    corners; the rest are uniform random boxes of random classes on random
    images. Scores are uniform in (0, 1).
    """
    rng = _rng(seed, "eval")
    anno_dir = outdir / "annotations"
    anno_dir.mkdir()
    gts = []  # (image_id, class index, normalized box)
    for i in range(EVAL_IMAGES):
        image_id = f"img{i:06d}"
        width, height = (int(v) for v in rng.integers(200, 501, size=2))
        objects = []
        for _ in range(EVAL_OBJECTS_PER_IMAGE):
            cls = int(rng.integers(len(VOC_CLASSES)))
            bw, bh = int(rng.integers(20, width // 2)), int(rng.integers(20, height // 2))
            x0, y0 = int(rng.integers(1, width - bw)), int(rng.integers(1, height - bh))
            box = (x0, y0, x0 + bw, y0 + bh)
            difficult = int(rng.random() < EVAL_DIFFICULT_SHARE)
            objects.append((VOC_CLASSES[cls], difficult, box))
            gts.append((image_id, cls, ((x0 - 1) / width, (y0 - 1) / height,
                                        (x0 + bw) / width, (y0 + bh) / height)))
        (anno_dir / f"{image_id}.xml").write_text(_voc_xml(image_id, width, height, objects))

    hits = int(EVAL_DETECTIONS * EVAL_GT_HIT_SHARE)
    boxes = np.empty((EVAL_DETECTIONS, 4))
    image_ids = []
    classes = np.empty(EVAL_DETECTIONS, dtype=np.int64)
    picks = rng.integers(len(gts), size=hits)
    for row, g in enumerate(picks):
        image_id, cls, box = gts[g]
        image_ids.append(image_id)
        classes[row] = cls
        boxes[row] = box
    boxes[:hits] += rng.normal(0.0, EVAL_JITTER, (hits, 4))
    rest = EVAL_DETECTIONS - hits
    image_ids.extend(f"img{i:06d}" for i in rng.integers(EVAL_IMAGES, size=rest))
    classes[hits:] = rng.integers(len(VOC_CLASSES), size=rest)
    corners = rng.random((rest, 2, 2))
    boxes[hits:] = np.concatenate([corners.min(axis=1), corners.max(axis=1)], axis=1)
    boxes = np.clip(boxes, 0.0, 1.0)
    boxes[:, 2:] = np.maximum(boxes[:, 2:], boxes[:, :2])
    scores = rng.random(EVAL_DETECTIONS)
    order = rng.permutation(EVAL_DETECTIONS)
    lines = [
        f"{image_ids[r]} {VOC_CLASSES[classes[r]]} {scores[r]:.6f} "
        f"{boxes[r, 0]:.6f} {boxes[r, 1]:.6f} {boxes[r, 2]:.6f} {boxes[r, 3]:.6f}\n"
        for r in order
    ]
    det_path = outdir / "detections.txt"
    det_path.write_text("".join(lines))
    return det_path, anno_dir


WORKLOADS = {
    "flat": flat_frames,
    "stress": stress_tensors,
    "eval": eval_inputs,
}


def main(argv=None) -> int:
    workload, seed, outdir = argv if argv is not None else sys.argv[1:]
    paths = WORKLOADS[workload](int(seed), Path(outdir))
    print(json.dumps([str(p) for p in paths]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Every input format, mutated or truncated, either parses to finite,
in-range data or raises a TinySSDError; no other exception escapes."""

import contextlib
import io
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyssd.arch import VOC_CLASSES
from tinyssd.cli import main
from tinyssd.errors import TinySSDError
from tinyssd.image import read_ppm, write_ppm
from tinyssd.modelio import WeightStore, load_weights, save_weights
from tinyssd.tensor import Tensor, read_tnsr, write_tnsr
from tinyssd.voceval import parse_ground_truth

ANNOTATION = b"""<annotation>
  <size><width>100</width><height>80</height></size>
  <object>
    <name>dog</name>
    <difficult>0</difficult>
    <bndbox><xmin>11</xmin><ymin>11</ymin><xmax>50</xmax><ymax>40</ymax></bndbox>
  </object>
  <object>
    <name>person</name>
    <difficult>1</difficult>
    <bndbox><xmin>1</xmin><ymin>2</ymin><xmax>100</xmax><ymax>80</ymax></bndbox>
  </object>
</annotation>
"""

DETECTIONS = (
    b"scene dog 0.900000 0.100000 0.100000 0.500000 0.500000\n"
    b"scene person 0.250000 0.000000 0.020000 1.000000 1.000000\n"
    b"other cat 0.031250 0.400000 0.300000 0.600000 0.700000\n"
)


def _tssd(path, dtype):
    rng = np.random.default_rng(0)
    store = WeightStore()
    store.add("a/w", rng.normal(0, 1, (2, 1, 3, 3)))
    store.add("a/b", np.zeros(2))
    store.add("b/w", rng.normal(0, 1, (1, 2, 1, 1)))
    save_weights(store, path, dtype=dtype)


def _tnsr(path):
    write_tnsr(Tensor(np.random.default_rng(1).normal(0, 1, (1, 2, 3, 2))), path)


def _ppm(path):
    write_ppm(path, np.random.default_rng(2).integers(0, 256, (3, 4, 3), dtype=np.uint8))


def _check_tssd(path):
    for _, arr in load_weights(path).items():
        assert arr.dtype == np.float32 and np.isfinite(arr).all()


def _check_tnsr(path):
    t = read_tnsr(path)
    assert t.data.ndim == 4 and min(t.shape) >= 1 and np.isfinite(t.data).all()


def _check_ppm(path):
    pixels = read_ppm(path)
    assert pixels.dtype == np.uint8 and pixels.ndim == 3 and pixels.shape[2] == 3
    assert min(pixels.shape) >= 1


def _check_xml(path):
    for g in parse_ground_truth(path):
        assert g.class_name in VOC_CLASSES and isinstance(g.difficult, bool)
        x0, y0, x1, y1 = g.box
        assert 0.0 <= x0 <= x1 <= 1.0 and 0.0 <= y0 <= y1 <= 1.0


def _check_detections(path):
    """Through the CLI, which also decodes the file: exit 2 on a bad file,
    else a report with an mAP in [0, 1]."""
    ann_dir = path.parent / "annotations"
    ann_dir.mkdir(exist_ok=True)
    (ann_dir / "scene.xml").write_bytes(ANNOTATION)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eval", "--detections", str(path), "--annotations", str(ann_dir)])
    if code == 2:
        assert err.getvalue().startswith("tinyssd eval: ") and not out.getvalue()
        return
    assert code == 0
    mean_ap = float(re.search(r"^mAP (\S+) ", out.getvalue(), re.M).group(1))
    assert 0.0 <= mean_ap <= 1.0


FORMATS = {
    "tssd-f16": (lambda p: _tssd(p, "f16"), _check_tssd),
    "tssd-f32": (lambda p: _tssd(p, "f32"), _check_tssd),
    "tnsr": (_tnsr, _check_tnsr),
    "ppm": (_ppm, _check_ppm),
    "voc-xml": (lambda p: p.write_bytes(ANNOTATION), _check_xml),
    "detection-lines": (lambda p: p.write_bytes(DETECTIONS), _check_detections),
}

# An edit overwrites bytes at an offset: one random byte, or a little-endian
# 16- or 32-bit integer, the widths of the binary formats' header fields.
_EDIT = st.one_of(
    st.integers(0, 255).map(lambda v: bytes([v])),
    st.integers(0, 2**16 - 1).map(lambda v: struct.pack("<H", v)),
    st.integers(0, 2**32 - 1).map(lambda v: struct.pack("<I", v)),
)


@st.composite
def _mutated(draw, valid: bytes) -> bytes:
    data = bytearray(valid)
    for _ in range(draw(st.integers(0, 6))):
        offset = draw(st.integers(0, len(data) - 1))
        patch = draw(_EDIT)[: len(data) - offset]
        data[offset:offset + len(patch)] = patch
    cut = draw(st.none() | st.integers(0, len(data)))
    return bytes(data[:cut])


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    files = {}
    for name, (write, check) in FORMATS.items():
        path = root / name
        write(path)
        check(path)  # the unmutated file itself parses
        files[name] = path.read_bytes()
    return files


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_mutated_input_parses_or_raises_format_error(fmt, valid_files, tmp_path_factory):
    path = tmp_path_factory.mktemp("mutated") / fmt
    check = FORMATS[fmt][1]

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(data=_mutated(valid_files[fmt]))
    def run(data):
        path.write_bytes(data)
        try:
            check(path)
        except TinySSDError:
            pass

    run()

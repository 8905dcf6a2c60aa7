import tracemalloc

import numpy as np
import pytest

from tinyssd.errors import FormatError, ShapeError
from tinyssd.image import (
    BGR_MEANS, annotate, bilinear_resize, preprocess_image, read_ppm, write_ppm,
)
from tinyssd.priors import Detection

from reference import bilinear_reference


def _checker(h, w):
    img = np.zeros((h, w, 3), dtype=np.uint8)
    img[::2, ::2] = (200, 30, 90)
    img[1::2, 1::2] = (10, 220, 40)
    return img


def test_ppm_round_trip(tmp_path):
    img = _checker(7, 5)
    path = tmp_path / "x.ppm"
    write_ppm(path, img)
    assert np.array_equal(read_ppm(path), img)


def test_ppm_with_comments(tmp_path):
    path = tmp_path / "c.ppm"
    img = _checker(2, 3)
    path.write_bytes(b"P6\n# a comment\n3 # inline\n2\n255\n" + img.tobytes())
    assert np.array_equal(read_ppm(path), img)


def test_ppm_bad_magic(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 12)
    with pytest.raises(FormatError, match="P6"):
        read_ppm(path)


def test_ppm_wrong_maxval(tmp_path):
    path = tmp_path / "m.ppm"
    path.write_bytes(b"P6\n2 2\n65535\n" + b"\x00" * 24)
    with pytest.raises(FormatError, match="maxval"):
        read_ppm(path)


def test_ppm_truncated(tmp_path):
    path = tmp_path / "t.ppm"
    path.write_bytes(b"P6\n4 4\n255\n" + b"\x00" * 10)
    with pytest.raises(FormatError, match="byte"):
        read_ppm(path)


def test_preprocess_uniform_gray():
    img = np.full((40, 60, 3), 128, dtype=np.uint8)
    t = preprocess_image(img)
    assert t.shape == (1, 3, 300, 300)
    np.testing.assert_allclose(t.data[0, 0], 128 - 104, atol=1e-5)  # blue channel
    np.testing.assert_allclose(t.data[0, 1], 128 - 117, atol=1e-5)
    np.testing.assert_allclose(t.data[0, 2], 128 - 123, atol=1e-5)


def test_resize_identity_at_same_size():
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 255, (300, 300, 3))
    out = bilinear_resize(img, 300, 300)
    np.testing.assert_allclose(out, img, atol=1e-6)


def test_constant_image_size_invariance():
    small = np.full((300, 300, 3), 77, dtype=np.uint8)
    big = np.full((600, 600, 3), 77, dtype=np.uint8)
    np.testing.assert_allclose(
        preprocess_image(small).data, preprocess_image(big).data, atol=1e-5
    )


def test_resize_interpolates_midpoints():
    img = np.array([[[0.0], [10.0]]])  # 1x2, one channel
    out = bilinear_resize(img, 1, 4)
    np.testing.assert_allclose(out[0, :, 0], [0.0, 2.5, 7.5, 10.0], atol=1e-12)


def test_preprocess_rejects_bad_shape():
    with pytest.raises(ShapeError):
        preprocess_image(np.zeros((10, 10), dtype=np.uint8))


def test_annotate_draws_outline():
    img = np.zeros((50, 50, 3), dtype=np.uint8)
    det = Detection(class_id=1, score=0.9, box=(0.2, 0.2, 0.8, 0.8))
    out = annotate(img, [det])
    assert out.shape == img.shape
    assert not np.array_equal(out, img)
    x0 = round(0.2 * 49)
    y0 = round(0.2 * 49)
    assert tuple(out[y0, x0]) != (0, 0, 0)
    assert tuple(out[25, 25]) == (0, 0, 0)  # interior untouched


def test_annotate_without_detections_is_copy():
    img = _checker(10, 10)
    out = annotate(img, [])
    assert np.array_equal(out, img)
    assert out is not img


@pytest.mark.parametrize("h, w", [(1, 1), (2, 7), (7, 1000), (601, 600), (500, 375)])
def test_preprocess_bit_identical_to_loop_reference(h, w):
    pixels = np.random.default_rng(h * w).integers(0, 256, (h, w, 3), dtype=np.uint8)
    resized = bilinear_reference(pixels, 300, 300)
    want = (resized[:, :, ::-1] - np.asarray(BGR_MEANS)).transpose(2, 0, 1)[None]
    assert np.array_equal(preprocess_image(pixels).data, want.astype(np.float32))


def test_preprocess_memory_is_bounded_by_the_output():
    """The source is gathered while still uint8: a 4000x3000 frame (36 MB of
    pixels) peaks near 12 MB of allocations, against 323 MB when the whole
    frame was widened to float64 first."""
    pixels = np.random.default_rng(0).integers(0, 256, (3000, 4000, 3), dtype=np.uint8)
    tracemalloc.start()
    try:
        preprocess_image(pixels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6

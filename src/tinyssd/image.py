"""PPM (P6) image ingestion, bilinear resizing, network input preprocessing,
and detection-box rendering."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .arch import INPUT_SIZE
from .errors import FormatError, ShapeError
from .tensor import Tensor

# Per-channel means subtracted after the RGB -> BGR swap.
BGR_MEANS = (104.0, 117.0, 123.0)


# Whitespace and # comments, then one header field; the field is empty where
# the header is cut short.
_PPM_FIELD = re.compile(rb"(?:\s+|#[^\n]*)*(\S*)")


def read_ppm(path) -> np.ndarray:
    """Read a binary P6 image into an (h, w, 3) uint8 array."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:2] != b"P6":
        raise FormatError(f"{path}: not a P6 PPM (magic {raw[:2]!r} at byte 0)")
    fields = []
    pos = 2
    for _ in range(3):
        match = _PPM_FIELD.match(raw, pos)
        token, start, pos = match[1], match.start(1), match.end()
        if not token:
            raise FormatError(f"{path}: truncated header at byte {start}")
        try:
            fields.append(int(token))
        except ValueError:
            raise FormatError(f"{path}: non-numeric header field {token!r} at byte {start}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"{path}: non-positive image size {width}x{height}")
    if maxval != 255:
        raise FormatError(f"{path}: only 8-bit PPM supported, maxval {maxval}")
    need = width * height * 3
    data_start = pos + 1  # exactly one whitespace byte separates the header from the pixel data
    data = raw[data_start:]
    if len(data) < need:
        raise FormatError(
            f"{path}: pixel data ends at byte {len(raw)}, expected {data_start + need}"
        )
    return np.frombuffer(data, dtype=np.uint8, count=need).reshape(height, width, 3).copy()


def encode_ppm(pixels: np.ndarray) -> bytes:
    """(h, w, 3) pixels, clipped to 0..255, as the bytes of a binary P6 file."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ShapeError(f"PPM writer needs (h, w, 3) pixels, got {pixels.shape}")
    h, w, _ = pixels.shape
    return f"P6\n{w} {h}\n255\n".encode() + np.clip(pixels, 0, 255).astype(np.uint8).tobytes()


def write_ppm(path, pixels: np.ndarray) -> None:
    Path(path).write_bytes(encode_ppm(pixels))


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Pixel-center-aligned bilinear resampling of (h, w, c) values to
    float64; identity when sizes match.

    Rows, then columns, are gathered in the input's dtype, so only the four
    (c, out_h, out_w) corner planes are widened: work and memory are bounded
    by the output, not the input. The (out_h, out_w, c) result is a view of
    C-contiguous channel planes.
    """
    img = np.asarray(img)
    in_h, in_w = img.shape[:2]
    ys = (np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    fy = (ys - y0)[:, None]
    fx = xs - x0
    x0c = np.clip(x0, 0, in_w - 1)
    x1c = np.clip(x0 + 1, 0, in_w - 1)

    def planes(rows):  # (out_h, in_w, c) -> C-contiguous (c, out_h, in_w)
        return np.ascontiguousarray(np.moveaxis(rows, 2, 0))

    top = planes(img[np.clip(y0, 0, in_h - 1)])
    bottom = planes(img[np.clip(y0 + 1, 0, in_h - 1)])
    # a*(1-fx) + b*fx per row pair, then top*(1-fy) + bottom*fy; np.multiply
    # widens each gathered corner exactly, and the rest runs in place.
    right = np.multiply(top[:, :, x1c], fx)
    top = np.multiply(top[:, :, x0c], 1 - fx)
    top += right
    np.multiply(bottom[:, :, x1c], fx, out=right)
    bottom = np.multiply(bottom[:, :, x0c], 1 - fx)
    bottom += right
    top *= 1 - fy
    bottom *= fy
    top += bottom
    return np.moveaxis(top, 0, 2)


def preprocess_image(pixels: np.ndarray) -> Tensor:
    """RGB 8-bit pixels of any size -> 1x3x300x300 network input.

    Bilinear resize, RGB -> BGR channel swap, per-channel mean subtraction.
    Work and memory are bounded by the 300x300 output (see bilinear_resize).
    """
    pixels = np.asarray(pixels)
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ShapeError(f"expected (h, w, 3) RGB pixels, got {pixels.shape}")
    bgr = bilinear_resize(pixels, INPUT_SIZE, INPUT_SIZE).transpose(2, 0, 1)[::-1]
    bgr -= np.asarray(BGR_MEANS)[:, None, None]
    return Tensor(bgr[None].astype(np.float32))


# One fixed RGB color per VOC class id (1..20), cycling a 10-color palette.
_PALETTE = (
    (230, 25, 75), (60, 180, 75), (255, 225, 25), (0, 130, 200), (245, 130, 48),
    (145, 30, 180), (70, 240, 240), (240, 50, 230), (210, 245, 60), (170, 110, 40),
)


def annotate(pixels: np.ndarray, detections) -> np.ndarray:
    """Burn 2-pixel box outlines into a copy of the image."""
    out = np.asarray(pixels).copy()
    h, w = out.shape[:2]
    for det in detections:
        color = _PALETTE[(det.class_id - 1) % len(_PALETTE)]
        x0 = int(round(det.box[0] * (w - 1)))
        y0 = int(round(det.box[1] * (h - 1)))
        x1 = int(round(det.box[2] * (w - 1)))
        y1 = int(round(det.box[3] * (h - 1)))
        for t in range(2):
            xa, ya = max(x0 + t, 0), max(y0 + t, 0)
            xb, yb = min(x1 - t, w - 1), min(y1 - t, h - 1)
            if xb < xa or yb < ya:
                break
            out[ya, xa:xb + 1] = color
            out[yb, xa:xb + 1] = color
            out[ya:yb + 1, xa] = color
            out[ya:yb + 1, xb] = color
    return out

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyssd.arch import lower, tiny_ssd_spec
from tinyssd.errors import GeometryError, ShapeError
from tinyssd.ops import (
    ConvSpec,
    PoolSpec,
    concat_channels,
    conv2d,
    conv_out_extent,
    maxpool2d,
    pool_out_extent,
    relu,
    softmax_rows,
)
from tinyssd.tensor import Tensor

from reference import conv2d_reference, maxpool_reference


def _conv(out_c, in_c, k, stride=1, pad=0, rng=None, bias=True):
    rng = rng or np.random.default_rng(0)
    w = rng.normal(0, 0.5, (out_c, in_c, k, k)).astype(np.float32)
    b = rng.normal(0, 0.5, out_c).astype(np.float32) if bias else None
    return ConvSpec(out_c, (k, k), stride=stride, pad=pad, has_bias=bias), w, b


def test_conv_stem_geometry():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(0, 1, (1, 3, 300, 300)).astype(np.float32))
    out = conv2d(x, *_conv(57, 3, 3, stride=2, pad=0, rng=rng))
    assert out.shape == (1, 57, 149, 149)


def test_conv_all_ones_window():
    x = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
    out = conv2d(x, ConvSpec(1, (3, 3), pad=0), np.ones((1, 1, 3, 3)), np.zeros(1))
    assert out.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == 9.0


def test_conv_matches_loop_reference():
    rng = np.random.default_rng(2)
    x = rng.normal(0, 1, (1, 4, 7, 7)).astype(np.float32)
    g, wts, b = _conv(5, 4, 3, stride=1, pad=1, rng=rng)
    got = conv2d(Tensor(x), g, wts, b).data
    want = conv2d_reference(x, wts, b, stride=1, pad=1)
    np.testing.assert_allclose(got, want, atol=1e-5)


def test_conv_randomized_against_reference():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 3))
        c = int(rng.integers(1, 6))
        h = int(rng.integers(3, 9))
        w = int(rng.integers(3, 9))
        oc = int(rng.integers(1, 6))
        k = int(rng.integers(1, min(h, w) + 1))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 3))
        x = rng.normal(0, 1, (n, c, h, w)).astype(np.float32)
        g, wts, b = _conv(oc, c, k, stride=stride, pad=pad, rng=rng)
        got = conv2d(Tensor(x), g, wts, b).data
        want = conv2d_reference(x, wts, b, stride, pad)
        np.testing.assert_allclose(got, want, atol=1e-5)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 2),
    c=st.integers(1, 3),
    oc=st.integers(1, 3),
    h=st.integers(1, 6),
    w=st.integers(1, 6),
    kernel=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    stride=st.integers(1, 3),
    pad=st.integers(0, 2),
)
def test_conv_equals_reference(seed, n, c, oc, h, w, kernel, stride, pad):
    """Includes kernels larger than the unpadded input."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, (n, c, h, w)).astype(np.float32)
    g = ConvSpec(oc, kernel, stride=stride, pad=pad)
    wts = rng.normal(0, 0.5, (oc, c, *kernel)).astype(np.float32)
    b = rng.normal(0, 0.5, oc).astype(np.float32)
    if h + 2 * pad < kernel[0] or w + 2 * pad < kernel[1]:
        with pytest.raises(GeometryError):
            conv2d(Tensor(x), g, wts, b)
    else:
        want = conv2d_reference(x, wts, b, stride, pad)
        np.testing.assert_allclose(conv2d(Tensor(x), g, wts, b).data, want, atol=1e-5)


def test_conv_identity_kernel_is_exact():
    rng = np.random.default_rng(4)
    x = rng.normal(0, 100, (2, 1, 6, 5)).astype(np.float32)
    out = conv2d(Tensor(x), ConvSpec(1, (1, 1), pad=0), np.ones((1, 1, 1, 1)), np.zeros(1))
    assert np.array_equal(out.data, x)


def test_conv_channel_mismatch_names_layer():
    x = Tensor(np.zeros((1, 3, 8, 8), dtype=np.float32))
    with pytest.raises(ShapeError, match="conv9"):
        conv2d(x, *_conv(2, 4, 3), layer="conv9")


def test_conv_degenerate_output_is_geometry_error():
    x = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
    with pytest.raises(GeometryError):
        conv2d(x, *_conv(1, 1, 3, stride=1, pad=0))


def test_conv_param_validation():
    x = Tensor(np.zeros((1, 1, 8, 8), dtype=np.float32))
    with pytest.raises(ShapeError, match="conv3"):
        conv2d(x, ConvSpec(2, (3, 3)), np.zeros((2, 1, 3, 2)), layer="conv3")
    with pytest.raises(ShapeError, match="conv3"):
        conv2d(x, ConvSpec(2, (3, 3)), np.zeros((2, 1, 3, 3)), np.zeros(3), layer="conv3")


def test_pool_table_transitions():
    rng = np.random.default_rng(5)
    p = PoolSpec((3, 3), stride=2, rounding="ceil")
    out = maxpool2d(Tensor(rng.normal(0, 1, (1, 2, 74, 74)).astype(np.float32)), p)
    assert out.shape[2:] == (37, 37)
    out = maxpool2d(Tensor(rng.normal(0, 1, (1, 2, 18, 18)).astype(np.float32)), p)
    assert out.shape[2:] == (9, 9)


def test_pool_floor_mode_differs():
    assert pool_out_extent(74, 3, 2, "ceil") == 37
    assert pool_out_extent(74, 3, 2, "floor") == 36
    assert conv_out_extent(300, 3, 2, 0) == 149


def test_pool_two_by_two():
    x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32))
    out = maxpool2d(x, PoolSpec((2, 2), stride=2))
    assert out.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == 4.0


def test_pool_window_bounds_property():
    rng = np.random.default_rng(6)
    for _ in range(20):
        h = int(rng.integers(2, 12))
        w = int(rng.integers(2, 12))
        k = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 4))
        rounding = rng.choice(["ceil", "floor"])
        if pool_out_extent(h, k, stride, rounding) < 1 or pool_out_extent(w, k, stride, rounding) < 1:
            continue
        x = rng.normal(0, 1, (1, 3, h, w)).astype(np.float32)
        out = maxpool2d(Tensor(x), PoolSpec((k, k), stride=stride, rounding=rounding))
        assert out.data.max() <= x.max()
        assert out.data.min() >= x.min()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 2),
    h=st.integers(1, 40),
    w=st.integers(1, 40),
    kernel=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    stride=st.integers(1, 3),
    rounding=st.sampled_from(["ceil", "floor"]),
)
def test_pool_equals_reference(seed, n, h, w, kernel, stride, rounding):
    x = np.random.default_rng(seed).normal(0, 1, (n, 2, h, w)).astype(np.float32)
    want = maxpool_reference(x, kernel, stride, rounding)
    p = PoolSpec(kernel, stride=stride, rounding=rounding)
    if want is None:
        with pytest.raises(GeometryError):
            maxpool2d(Tensor(x), p)
    else:
        assert np.array_equal(maxpool2d(Tensor(x), p).data, want)


SPECIALS = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0], dtype=np.float32)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    h=st.integers(4, 30),
    w=st.integers(4, 30),
    kernel=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    stride=st.integers(1, 3),
    rounding=st.sampled_from(["ceil", "floor"]),
    salt=st.sampled_from([0.05, 0.3, 1.0]),
)
def test_pool_nonfinite_and_signed_zeros(seed, h, w, kernel, stride, rounding, salt):
    """A window holding a NaN pools to NaN; every other window, including
    ones of only infinities or signed zeros, pools to the reference max."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, (2, 2, h, w)).astype(np.float32)
    salted = rng.random(x.shape) < salt
    x[salted] = rng.choice(SPECIALS, int(salted.sum()))
    got = maxpool2d(Tensor(x), PoolSpec(kernel, stride=stride, rounding=rounding)).data
    nan_window = maxpool_reference(np.isnan(x).astype(np.float32), kernel, stride, rounding) > 0
    assert np.isnan(got[nan_window]).all()
    assert np.array_equal(got[~nan_window], maxpool_reference(x, kernel, stride, rounding)[~nan_window])


def test_network_pool_geometries_full_size():
    """Each pool of the Tiny SSD table at its real extent: pool1, pool5 and
    pool10 need no border pad, pool3 and pool9 clip a last row and column."""
    pools = [s for _, steps in lower(tiny_ssd_spec()) for s in steps if s.op == "pool"]
    assert [(s.name, s.in_shape[1], s.out_shape[1]) for s in pools] == [
        ("pool1", 149, 74), ("pool3", 74, 37), ("pool5", 37, 18), ("pool9", 18, 9), ("pool10", 9, 4)
    ]
    rng = np.random.default_rng(12)
    for s in pools:
        g = s.geometry
        x = rng.normal(0, 1, (1, 2, *s.in_shape[1:])).astype(np.float32)
        got = maxpool2d(Tensor(x), g, layer=s.name).data
        assert got.shape[2:] == s.out_shape[1:]
        assert np.array_equal(got, maxpool_reference(x, g.kernel, g.stride, g.rounding)), s.name


def test_pool_degenerate_output_is_geometry_error():
    x = Tensor(np.zeros((1, 1, 1, 1), dtype=np.float32))
    with pytest.raises(GeometryError):
        maxpool2d(x, PoolSpec((3, 3), stride=2, rounding="floor"))


def test_concat_fire_expand_counts():
    rng = np.random.default_rng(7)
    a = Tensor(rng.normal(0, 1, (1, 49, 74, 74)).astype(np.float32))
    b = Tensor(rng.normal(0, 1, (1, 53, 74, 74)).astype(np.float32))
    out = concat_channels([a, b])
    assert out.shape == (1, 102, 74, 74)
    c = Tensor(rng.normal(0, 1, (1, 166, 5, 5)).astype(np.float32))
    d = Tensor(rng.normal(0, 1, (1, 161, 5, 5)).astype(np.float32))
    assert concat_channels([c, d]).c == 327


def test_concat_single_part_is_identity():
    x = Tensor(np.arange(24, dtype=np.float32).reshape(1, 2, 3, 4))
    assert np.array_equal(concat_channels([x]).data, x.data)


def test_concat_then_slice_recovers_parts():
    rng = np.random.default_rng(8)
    parts = [
        Tensor(rng.normal(0, 1, (2, c, 4, 5)).astype(np.float32)) for c in (1, 3, 2)
    ]
    out = concat_channels(parts)
    start = 0
    for part in parts:
        assert np.array_equal(out.data[:, start:start + part.c], part.data)
        start += part.c


def test_concat_mismatch_raises():
    a = Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32))
    b = Tensor(np.zeros((1, 1, 5, 4), dtype=np.float32))
    with pytest.raises(ShapeError):
        concat_channels([a, b])


def test_relu_cases():
    x = Tensor(np.array([[[[-1.0, 0.0, 2.0]]]], dtype=np.float32))
    assert relu(x).data.tolist() == [[[[0.0, 0.0, 2.0]]]]
    neg = Tensor(np.full((1, 2, 3, 3), -4.5, dtype=np.float32))
    assert not relu(neg).data.any()
    pos = Tensor(np.full((1, 2, 3, 3), 4.5, dtype=np.float32))
    assert np.array_equal(relu(pos).data, pos.data)


def test_softmax_uniform_row():
    out = softmax_rows(np.array([[0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(out, [[1 / 3] * 3], atol=1e-12)


def test_softmax_large_logits_stable():
    out = softmax_rows(np.array([[1000.0, 0.0]]))
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(9)
    scores = rng.normal(0, 5, (5, 21))
    out = softmax_rows(scores)
    np.testing.assert_allclose(out.sum(axis=1), np.ones(5), atol=1e-6)
    assert (out >= 0).all()


def test_softmax_shift_invariance():
    rng = np.random.default_rng(10)
    scores = rng.normal(0, 3, (4, 7))
    shifted = scores + rng.normal(0, 10, (4, 1))
    np.testing.assert_allclose(softmax_rows(scores), softmax_rows(shifted), atol=1e-6)



def test_softmax_non_finite_rows_are_nan_without_warning():
    """A row holding NaN or +inf, or only -inf, comes out all NaN, which no
    confidence threshold passes; finite rows beside it are unchanged."""
    finite = [0.0, 1.0, 2.0]
    scores = np.array([finite, [0.0, np.inf, 1.0], [-np.inf] * 3, [np.nan, 0.0, 1.0],
                       [-np.inf, 0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = softmax_rows(scores)
    assert np.isnan(out[1:4]).all()
    np.testing.assert_array_equal(out[0], softmax_rows(np.array([finite]))[0])
    np.testing.assert_array_equal(out[4], [0.0, *softmax_rows(np.array([[0.0, 1.0]]))[0]])

def test_stem_size_chain():
    """The stride-2 stem plus four ceil pools walks 300 down to 4."""
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(0, 1, (1, 1, 300, 300)).astype(np.float32))
    x = conv2d(x, *_conv(1, 1, 3, stride=2, pad=0, rng=rng))
    sizes = [x.h]
    for _ in range(5):
        x = maxpool2d(x, PoolSpec((3, 3), stride=2))
        sizes.append(x.h)
    assert sizes == [149, 74, 37, 18, 9, 4]

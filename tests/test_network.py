import numpy as np
import pytest

from tinyssd.arch import ArchSpec, ConvSpec, FireConfig, HeadSpec, LayerSpec, intermediate_shapes
from tinyssd.errors import MissingBlobError, ShapeError, SpecError
from tinyssd.modelio import WeightStore, init_random
from tinyssd.network import activations, fire_forward, forward
from tinyssd.tensor import Tensor


def _fire_store(name, cfg, in_channels, rng):
    store = WeightStore()
    store.add(f"{name}/squeeze/w", rng.normal(0, 0.2, (cfg.squeeze, in_channels, 1, 1)))
    store.add(f"{name}/squeeze/b", np.zeros(cfg.squeeze))
    store.add(f"{name}/expand1x1/w", rng.normal(0, 0.2, (cfg.expand1x1, cfg.squeeze, 1, 1)))
    store.add(f"{name}/expand1x1/b", np.zeros(cfg.expand1x1))
    store.add(f"{name}/expand3x3/w", rng.normal(0, 0.2, (cfg.expand3x3, cfg.squeeze, 3, 3)))
    store.add(f"{name}/expand3x3/b", np.zeros(cfg.expand3x3))
    return store


def test_fire1_output_channels():
    rng = np.random.default_rng(0)
    cfg = FireConfig(15, 49, 53)
    store = _fire_store("fire1", cfg, 57, rng)
    x = Tensor(rng.normal(0, 1, (1, 57, 74, 74)).astype(np.float32))
    out = fire_forward(x, cfg, store, name="fire1")
    assert out.shape == (1, 102, 74, 74)


def test_minimal_fire_is_finite():
    cfg = FireConfig(1, 1, 1)
    store = WeightStore()
    store.add("f/squeeze/w", np.ones((1, 1, 1, 1)))
    store.add("f/squeeze/b", np.zeros(1))
    store.add("f/expand1x1/w", np.ones((1, 1, 1, 1)))
    store.add("f/expand1x1/b", np.zeros(1))
    store.add("f/expand3x3/w", np.ones((1, 1, 3, 3)))
    store.add("f/expand3x3/b", np.zeros(1))
    x = Tensor(np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2))
    out = fire_forward(x, cfg, store, name="f")
    assert out.shape == (1, 2, 2, 2)
    assert np.isfinite(out.data).all()
    # the 1x1 expand path is the squeeze output itself here
    assert np.array_equal(out.data[:, 0], x.data[:, 0])


def test_fire_output_channels_property():
    rng = np.random.default_rng(1)
    for _ in range(10):
        cfg = FireConfig(
            int(rng.integers(1, 6)), int(rng.integers(1, 8)), int(rng.integers(1, 8))
        )
        in_c = int(rng.integers(1, 5))
        store = _fire_store("f", cfg, in_c, rng)
        x = Tensor(rng.normal(0, 1, (1, in_c, 4, 4)).astype(np.float32))
        out = fire_forward(x, cfg, store, name="f")
        assert out.c == cfg.expand1x1 + cfg.expand3x3
        assert (out.h, out.w) == (4, 4)


def test_fire_error_names_sublayer():
    rng = np.random.default_rng(2)
    cfg = FireConfig(2, 1, 1)
    store = _fire_store("fire7", cfg, 5, rng)  # squeeze expects 5 input channels
    x = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
    with pytest.raises(ShapeError, match="fire7/squeeze"):
        fire_forward(x, cfg, store, name="fire7")


def test_forward_output_dimensions(head):
    assert head.loc.shape == (1, 8030, 4)
    assert head.conf.shape == (1, 8030, 21)
    assert np.isfinite(head.loc).all()
    assert np.isfinite(head.conf).all()


def test_forward_batch_determinism(spec, store, test_image):
    pair = Tensor(np.concatenate([test_image.data, test_image.data], axis=0))
    out = forward(spec, store, pair)
    assert out.loc.shape == (2, 8030, 4)
    assert np.array_equal(out.loc[0], out.loc[1])
    assert np.array_equal(out.conf[0], out.conf[1])


def test_forward_zero_weights_zero_image(spec):
    from tinyssd.arch import param_manifest

    zeros = WeightStore((name, np.zeros(shape)) for name, shape in param_manifest(spec))
    out = forward(spec, zeros, Tensor.zeros(1, 3, 300, 300))
    assert not out.loc.any()
    assert not out.conf.any()


def test_static_shapes_agree_with_forward(spec, store, test_image):
    acts = activations(spec, store, test_image)
    for name, (c, h, w) in intermediate_shapes(spec):
        assert acts[name].shape == (1, c, h, w), name
    # layer outputs only: a fire module's inner steps are not kept
    assert set(acts) == {"image"} | {layer.name for layer in spec.layers}


def test_forward_rejects_wrong_input_shape(spec, store):
    with pytest.raises(ShapeError, match="input image"):
        forward(spec, store, Tensor.zeros(1, 3, 200, 200))


def test_missing_blob_is_named(spec, store, test_image):
    partial = WeightStore((k, v) for k, v in store.items() if k != "fire5/squeeze/w")
    with pytest.raises(MissingBlobError, match="fire5/squeeze/w"):
        forward(spec, partial, test_image)


def test_bad_blob_shape_error_names_layer(spec, store, test_image):
    mangled = WeightStore(
        (k, (np.zeros((57, 3, 5, 5)) if k == "conv1/w" else v)) for k, v in store.items()
    )
    with pytest.raises(ShapeError, match="conv1"):
        forward(spec, mangled, test_image)


def test_malformed_graph_detected_at_execution():
    layers = (
        LayerSpec("a", ConvSpec(1, kernel=(1, 1), pad=0), ("ghost",)),
    )
    spec = ArchSpec(layers=layers)
    store = WeightStore()
    store.add("a/w", np.ones((1, 1, 1, 1)))
    store.add("a/b", np.zeros(1))
    with pytest.raises(SpecError, match="ghost"):
        activations(spec, store, Tensor.zeros(1, 1, 4, 4))


def test_duplicate_layer_name_rejected_at_execution():
    layers = (
        LayerSpec("a", ConvSpec(1, kernel=(1, 1), pad=0), ("image",)),
        LayerSpec("a", ConvSpec(1, kernel=(1, 1), pad=0), ("a",)),
    )
    store = WeightStore()
    store.add("a/w", np.ones((1, 1, 1, 1)))
    store.add("a/b", np.zeros(1))
    with pytest.raises(SpecError, match="duplicate layer name 'a'"):
        activations(ArchSpec(layers=layers), store, Tensor.zeros(1, 1, 4, 4))


def test_headless_spec_cannot_forward():
    layers = (LayerSpec("a", ConvSpec(1, kernel=(1, 1), pad=0), ("image",)),)
    spec = ArchSpec(layers=layers, input_size=4, input_channels=1)
    store = WeightStore()
    store.add("a/w", np.ones((1, 1, 1, 1)))
    store.add("a/b", np.zeros(1))
    acts = activations(spec, store, Tensor.zeros(1, 1, 4, 4))
    assert acts["a"].shape == (1, 1, 4, 4)
    with pytest.raises(SpecError, match="no detection heads"):
        forward(spec, store, Tensor.zeros(1, 1, 4, 4))


def test_prior_row_ordering_matches_channel_layout():
    """Head flattening must put the per-cell prior index innermost."""
    layers = (
        LayerSpec("feat", ConvSpec(2, kernel=(1, 1), pad=0, activation="none"), ("image",)),
        LayerSpec("loc", ConvSpec(8, kernel=(1, 1), pad=0, activation="none"), ("feat",)),
        LayerSpec("conf", ConvSpec(4, kernel=(1, 1), pad=0, activation="none"), ("feat",)),
    )
    spec = ArchSpec(
        layers=layers, heads=(HeadSpec("feat", "loc", "conf", 2),),
        class_count=2, input_size=2, input_channels=1,
    )
    store = init_random(spec, 0)
    out = forward(spec, store, Tensor.zeros(1, 1, 2, 2))
    assert out.loc.shape == (1, 2 * 2 * 2, 4)
    acts = activations(spec, store, Tensor.zeros(1, 1, 2, 2))
    raw = acts["loc"].data[0]  # (8, 2, 2)
    # row for cell (i, j), prior p holds channels p*4 .. p*4+3 at (i, j)
    for i in range(2):
        for j in range(2):
            for p in range(2):
                row = out.loc[0, (i * 2 + j) * 2 + p]
                assert np.array_equal(row, raw[p * 4:(p + 1) * 4, i, j])

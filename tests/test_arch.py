import hashlib
import json
from dataclasses import dataclass, replace

import numpy as np
import pytest

from tinyssd.arch import (
    ArchSpec,
    ConvSpec,
    FireConfig,
    HeadSpec,
    LayerSpec,
    PoolSpec,
    describe_text,
    display_name,
    intermediate_shapes,
    lower,
    param_manifest,
    spec_from_json,
    spec_to_json,
)
from tinyssd.errors import GeometryError, SpecError
from tinyssd.ops import TypedFields, conv2d, maxpool2d
from tinyssd.priors import PriorConfig
from tinyssd.tensor import Tensor

EXPECTED_SIZES = {
    "conv1": 149, "pool1": 74, "fire1": 74, "fire2": 74,
    "pool3": 37, "fire3": 37, "fire4": 37,
    "pool5": 18, "fire5": 18, "fire6": 18, "fire7": 18, "fire8": 18,
    "pool9": 9, "fire9": 9, "pool10": 4, "fire10": 4,
    "conv12_1": 2, "conv12_2": 2, "conv13_1": 2, "conv13_2": 1,
}


def _layer(spec, name):
    return next(layer for layer in spec.layers if layer.name == name)


def test_fire5_filter_counts(spec):
    assert _layer(spec, "fire5").geometry == FireConfig(44, 166, 161)


def test_head_at_37_has_16_84_channels(spec):
    head = spec.heads[0]
    assert head.source == "fire4"
    assert _layer(spec, head.loc).geometry.out_channels == 16
    assert _layer(spec, head.conf).geometry.out_channels == 84


def test_exactly_ten_fires_and_six_heads(spec):
    assert sum(1 for l in spec.layers if l.kind == "fire") == 10
    assert len(spec.heads) == 6
    assert [h.priors_per_cell for h in spec.heads] == [4, 6, 6, 6, 6, 4]


def test_intermediate_shapes_match_published_sizes(spec):
    shapes = dict(intermediate_shapes(spec))
    for name, size in EXPECTED_SIZES.items():
        assert shapes[name][1:] == (size, size), name
    head_sizes = [shapes[h.source][1] for h in spec.heads]
    assert head_sizes == [37, 18, 9, 4, 2, 1]


def test_heads_preserve_source_size(spec):
    shapes = dict(intermediate_shapes(spec))
    for h in spec.heads:
        assert shapes[h.loc][1:] == shapes[h.source][1:]
        assert shapes[h.conf][1:] == shapes[h.source][1:]


def test_conv12_1_output_is_2x2(spec):
    shapes = dict(intermediate_shapes(spec))
    assert shapes["conv12_1"][1:] == (2, 2)


def test_shape_inference_scales_with_input(spec):
    shapes = dict(intermediate_shapes(replace(spec, input_size=600)))
    assert shapes["conv1"][1:] == (299, 299)


def test_geometry_error_on_impossible_layer():
    layers = (LayerSpec("c", ConvSpec(1, kernel=(9, 9), pad=0), ("image",)),)
    bad = ArchSpec(layers=layers, input_size=4)
    with pytest.raises(GeometryError, match="c"):
        intermediate_shapes(bad)


@pytest.mark.parametrize("geometry, input_size, kernel", [
    (ConvSpec(1, kernel=(9, 9), pad=0), 4, conv2d),
    (PoolSpec((3, 3), stride=2, rounding="floor"), 1, maxpool2d),
], ids=["conv", "pool"])
def test_lower_and_kernel_refuse_an_empty_output_alike(geometry, input_size, kernel):
    """Shape inference and the kernels share one extent rule and one message."""
    bad = ArchSpec(layers=(LayerSpec("c", geometry, ("image",)),), input_size=input_size)
    with pytest.raises(GeometryError) as from_lower:
        lower(bad)
    x = Tensor(np.zeros((1, 3, input_size, input_size), dtype=np.float32))
    args = (np.zeros((1, 3, *geometry.kernel)),) if kernel is conv2d else ()
    with pytest.raises(GeometryError) as from_kernel:
        kernel(x, geometry, *args, layer="c")
    assert str(from_lower.value) == str(from_kernel.value)


def test_duplicate_layer_name_rejected():
    layers = (
        LayerSpec("a", ConvSpec(1), ("image",)),
        LayerSpec("a", ConvSpec(1), ("a",)),
    )
    with pytest.raises(SpecError, match="duplicate"):
        lower(ArchSpec(layers=layers))


def test_forward_reference_rejected():
    layers = (
        LayerSpec("a", ConvSpec(1), ("b",)),
        LayerSpec("b", ConvSpec(1), ("image",)),
    )
    with pytest.raises(SpecError, match="cycle or forward reference"):
        lower(ArchSpec(layers=layers))


# A valid two-class graph: a head on "a", a pool "p" and a conv "q" after it.
_SMALL_LAYERS = (
    LayerSpec("a", ConvSpec(4), ("image",)),
    LayerSpec("p", PoolSpec(), ("a",)),
    LayerSpec("q", ConvSpec(4), ("p",)),
    LayerSpec("loc", ConvSpec(16, activation="none"), ("a",)),
    LayerSpec("conf", ConvSpec(8, activation="none"), ("a",)),
)
# 4 priors per cell at input 58, the smallest whose ladder covers one scale (60 <= 1.05 * 58).
_SMALL_SPEC = ArchSpec(layers=_SMALL_LAYERS, heads=(HeadSpec("a", "loc", "conf", 4),),
                       class_count=2, input_size=58)


@pytest.mark.parametrize("changes, message", [
    ({"class_count": 1}, "class_count must be >= 2, got 1"),
    ({"input_size": 0}, "input size and channels must be positive"),
    ({"input_channels": 0}, "input size and channels must be positive"),
    ({"layers": (LayerSpec("image", ConvSpec(4), ("image",)),)},
     "layer name 'image' is reserved for the network input"),
    ({"layers": (LayerSpec("a", ConvSpec(4), ()),)}, r"a: expected exactly one input, got \(\)"),
    ({"layers": (LayerSpec("a", ConvSpec(4), ("image", "image")),)},
     "a: expected exactly one input, got"),
    ({"heads": (HeadSpec("x", "loc", "conf", 4),)}, "head source layer 'x' is not declared"),
    ({"heads": (HeadSpec("a", "x", "conf", 4),)}, "head loc layer 'x' is not declared"),
    ({"heads": (HeadSpec("a", "loc", "x", 4),)}, "head conf layer 'x' is not declared"),
    ({"heads": (HeadSpec("a", "loc", "conf", 0),)}, "head loc layer 'loc' has 16 channels, expected 0"),
    ({"heads": (HeadSpec("a", "p", "conf", 4),)}, "head loc layer 'p' must be a conv layer"),
    ({"heads": (HeadSpec("a", "loc", "q", 4),)}, "head conf layer 'q' does not read from 'a'"),
    ({"layers": tuple(replace(l, geometry=replace(l.geometry, stride=2)) if l.name == "loc" else l
                      for l in _SMALL_LAYERS)},
     "head loc layer 'loc' has a 29x29 grid, expected 58x58 of 'a'"),
], ids=["class-count", "input-size", "input-channels", "reserved-name", "no-input",
        "two-inputs", "undeclared-source", "undeclared-loc", "undeclared-conf",
        "no-priors", "head-not-conv", "head-reads-elsewhere", "head-off-grid"])
def test_invalid_spec_is_spec_error(changes, message):
    lower(_SMALL_SPEC)
    with pytest.raises(SpecError, match=message):
        lower(replace(_SMALL_SPEC, **changes))


def test_json_rejects_unknown_kind(spec):
    doc = json.loads(spec_to_json(spec))
    doc["layers"][1]["kind"] = "norm"
    with pytest.raises(SpecError, match="unknown layer kind 'norm'"):
        spec_from_json(json.dumps(doc))


def test_head_channel_mismatch_rejected(spec):
    heads = (HeadSpec(spec.heads[0].source, spec.heads[0].loc, spec.heads[0].conf, 6),) + spec.heads[1:]
    with pytest.raises(SpecError, match="fire4_mbox_loc"):
        lower(ArchSpec(layers=spec.layers, heads=heads))


def test_unknown_geometry_type_rejected():
    @dataclass(frozen=True)
    class NormSpec:
        eps: float = 1e-5

    with pytest.raises(SpecError, match="NormSpec"):
        LayerSpec("a", NormSpec(), ("image",))


def test_describe_contains_fire5_row(spec):
    text = describe_text(spec)
    assert "Type / Stride" in text and "Filter Shapes" in text and "Input Size" in text
    fire5 = next(line for line in text.splitlines() if line.startswith("Fire5 "))
    assert "44@S -- 166@E1 -- 161@E3" in fire5
    assert "18x18" in fire5
    assert "Conv1 / s2" in text
    assert "Fire4-mbox-loc" in text


def test_display_name_mapping():
    assert display_name("conv1") == "Conv1"
    assert display_name("conv12_1") == "Conv12-1"
    assert display_name("fire4_mbox_loc") == "Fire4-mbox-loc"
    assert display_name("pool3") == "Pool3"


def test_json_round_trip(spec):
    assert spec_from_json(spec_to_json(spec)) == spec


@pytest.mark.parametrize("section, key, value", [
    ("conv1", "out_channels", 57.5),
    ("conv1", "stride", 2.0),
    ("conv1", "stride", True),
    ("conv1", "pad", 0.0),
    ("conv1", "kernel", [3.0, 3]),
    ("conv1", "kernel", [3, True]),
    ("conv1", "kernel", [3, 3, 3]),
    ("conv1", "bias", 1),
    ("pool1", "stride", 2.0),
    ("fire1", "squeeze", 15.0),
    ("head", "priors_per_cell", 4.0),
    ("doc", "input_size", 300.0),
    ("doc", "input_channels", True),
    ("doc", "class_count", 21.0),
    ("pool1", "name", 7),
    ("conv1", "inputs", "image"),
    ("fire1", "inputs", [7]),
])
def test_json_rejects_non_integer_counts(spec, section, key, value):
    doc = json.loads(spec_to_json(spec))
    entry = {"doc": doc, "head": doc["heads"][0]}.get(section)
    if entry is None:
        entry = next(e for e in doc["layers"] if e["name"] == section)
    entry[key] = value
    with pytest.raises(SpecError, match=f"field '{key}' must be") as from_json:
        spec_from_json(json.dumps(doc))
    # The same value set in Python, as the tuple a JSON list parses to, is
    # refused with the same text.
    obj = {"doc": spec, "head": spec.heads[0]}.get(section)
    if obj is None:
        layer = _layer(spec, section)
        obj = layer if key in ("name", "inputs") else layer.geometry
    field = "has_bias" if key == "bias" else key
    with pytest.raises(SpecError) as in_python:
        replace(obj, **{field: tuple(value) if isinstance(value, list) else value})
    assert str(in_python.value) == str(from_json.value)


def test_json_rejects_garbage():
    with pytest.raises(SpecError):
        spec_from_json("{}")
    with pytest.raises(SpecError):
        spec_from_json("not json")


def test_param_manifest_shapes(spec):
    manifest = dict(param_manifest(spec))
    assert manifest["conv1/w"] == (57, 3, 3, 3)
    assert manifest["conv1/b"] == (57,)
    assert manifest["fire5/squeeze/w"] == (44, 173, 1, 1)
    assert manifest["fire6/squeeze/w"] == (45, 327, 1, 1)
    assert manifest["fire5/expand3x3/w"] == (161, 44, 3, 3)
    assert manifest["fire4_mbox_conf/w"] == (84, 173, 3, 3)
    assert manifest["conv13_2_mbox_loc/w"] == (16, 85, 3, 3)
    # one w and one b per conv sublayer: 1 stem + 10 fires * 3 + 4 aux + 12 heads
    assert len(manifest) == 2 * (1 + 30 + 4 + 12)


def test_param_manifest_order_is_pinned(spec):
    """The manifest order is the TSSD blob order existing model files use."""
    manifest = param_manifest(spec)
    digest = hashlib.sha256(repr(manifest).encode()).hexdigest()
    assert digest == "209d97705fb3a4b28d02f6aac33345842bbecce88ea3c232fb9ebc21d247d371"
    assert [name for name, _ in manifest[2:8]] == [
        "fire1/squeeze/w", "fire1/squeeze/b",
        "fire1/expand1x1/w", "fire1/expand1x1/b",
        "fire1/expand3x3/w", "fire1/expand3x3/b",
    ]


def test_manifest_element_count_matches_direct_formula(spec):
    manifest = param_manifest(spec)
    total = sum(int(np.prod(shape)) for _, shape in manifest)
    conv1 = 3 * 3 * 3 * 57 + 57
    assert conv1 == 1596
    assert total > conv1


def test_fire_config_rejects_zero_counts():
    with pytest.raises(SpecError):
        FireConfig(0, 1, 1)


def test_pool_spec_rejects_bad_rounding():
    with pytest.raises(SpecError):
        PoolSpec(rounding="nearest")


@pytest.mark.parametrize("make", [lambda k: ConvSpec(2, kernel=k), lambda k: PoolSpec(kernel=k)],
                         ids=["conv", "pool"])
@pytest.mark.parametrize("kernel", [3, (3,), (3, 3, 3), (3.0, 3), (True, 3), (0, 3), [3, 3]],
                         ids=["int", "one", "three", "float", "bool", "zero", "list"])
def test_geometry_rejects_a_kernel_that_is_not_two_positive_ints(make, kernel):
    with pytest.raises(SpecError, match="field 'kernel' must be"):
        make(kernel)


_LAYERS = (LayerSpec("a", ConvSpec(2), ("image",)),)


@pytest.mark.parametrize("make, key", [
    (lambda: ConvSpec(2.0, stride=2.0), "out_channels"),
    (lambda: ConvSpec(True), "out_channels"),
    (lambda: ConvSpec(2, pad=1.0), "pad"),
    (lambda: ConvSpec(2, has_bias=1), "bias"),
    (lambda: PoolSpec(stride=2.0), "stride"),
    (lambda: FireConfig(1.0, 2, 2), "squeeze"),
    (lambda: LayerSpec(5, ConvSpec(2), ("image",)), "name"),
    (lambda: LayerSpec("a", ConvSpec(2), ["image"]), "inputs"),
    (lambda: HeadSpec("a", "loc", "conf", 4.0), "priors_per_cell"),
    (lambda: ArchSpec(layers=_LAYERS, input_size=8.0), "input_size"),
    (lambda: ArchSpec(layers=_LAYERS, class_count=21.0), "class_count"),
    (lambda: ArchSpec(layers=list(_LAYERS)), "layers"),
    (lambda: PriorConfig(((37.5, 4.0),), 300.0), "scales"),
    (lambda: PriorConfig(((37, 4.0),), 300), "scales"),
    (lambda: PriorConfig(((37, 4),), 300.0), "input_size"),
], ids=["float-counts", "bool-count", "float-pad", "int-bias", "float-pool-stride", "float-squeeze",
        "int-name", "list-inputs", "float-priors", "float-input-size", "float-class-count",
        "list-layers", "prior-float-scale", "prior-float-per-cell", "prior-float-input-size"])
def test_spec_classes_check_field_types_at_construction(make, key):
    """A spec built in Python is refused on the field types spec_from_json
    refuses, before anything lowers or runs it; so is a PriorConfig, before
    generate_priors lays out boxes from it."""
    with pytest.raises(SpecError, match=f"field '{key}' must be"):
        make()


def test_field_check_refuses_an_annotation_it_does_not_know():
    @dataclass(frozen=True)
    class Sizes(TypedFields):
        sizes: list[int]

    with pytest.raises(TypeError, match="no type check for field annotation list"):
        Sizes([1])

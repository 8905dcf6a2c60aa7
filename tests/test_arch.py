import hashlib
import json
from dataclasses import dataclass

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
    param_manifest,
    spec_from_json,
    spec_to_json,
    validate,
    validate_canonical,
)
from tinyssd.errors import GeometryError, SpecError

EXPECTED_SIZES = {
    "conv1": 149, "pool1": 74, "fire1": 74, "fire2": 74,
    "pool3": 37, "fire3": 37, "fire4": 37,
    "pool5": 18, "fire5": 18, "fire6": 18, "fire7": 18, "fire8": 18,
    "pool9": 9, "fire9": 9, "pool10": 4, "fire10": 4,
    "conv12_1": 2, "conv12_2": 2, "conv13_1": 2, "conv13_2": 1,
}


def test_canonical_spec_validates(spec):
    validate_canonical(spec)


def test_fire5_filter_counts(spec):
    assert spec.layer("fire5").geometry == FireConfig(44, 166, 161)


def test_head_at_37_has_16_84_channels(spec):
    head = spec.heads[0]
    assert head.source == "fire4"
    assert spec.layer(head.loc).geometry.out_channels == 16
    assert spec.layer(head.conf).geometry.out_channels == 84


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
    shapes = dict(intermediate_shapes(spec, input_size=600))
    assert shapes["conv1"][1:] == (299, 299)


def test_geometry_error_on_impossible_layer():
    layers = (LayerSpec("c", ConvSpec(1, kernel=(9, 9), pad=0), ("image",)),)
    bad = ArchSpec(layers=layers, input_size=4)
    with pytest.raises(GeometryError, match="c"):
        intermediate_shapes(bad)


def test_missing_head_fails_canonical_validation(spec):
    pruned = ArchSpec(layers=spec.layers, heads=spec.heads[:5])
    validate(pruned)  # structurally fine
    with pytest.raises(SpecError, match="6 detection sources"):
        validate_canonical(pruned)


def test_duplicate_layer_name_rejected():
    layers = (
        LayerSpec("a", ConvSpec(1), ("image",)),
        LayerSpec("a", ConvSpec(1), ("a",)),
    )
    with pytest.raises(SpecError, match="duplicate"):
        validate(ArchSpec(layers=layers))


def test_forward_reference_rejected():
    layers = (
        LayerSpec("a", ConvSpec(1), ("b",)),
        LayerSpec("b", ConvSpec(1), ("image",)),
    )
    with pytest.raises(SpecError, match="cycle or forward reference"):
        validate(ArchSpec(layers=layers))


def test_json_rejects_unknown_kind(spec):
    doc = json.loads(spec_to_json(spec))
    doc["layers"][1]["kind"] = "norm"
    with pytest.raises(SpecError, match="unknown layer kind 'norm'"):
        spec_from_json(json.dumps(doc))


def test_head_channel_mismatch_rejected(spec):
    heads = (HeadSpec(spec.heads[0].source, spec.heads[0].loc, spec.heads[0].conf, 6),) + spec.heads[1:]
    with pytest.raises(SpecError, match="fire4_mbox_loc"):
        validate(ArchSpec(layers=spec.layers, heads=heads))


def test_unknown_geometry_type_rejected():
    @dataclass(frozen=True)
    class NormSpec:
        eps: float = 1e-5

    spec = ArchSpec(layers=(LayerSpec("a", NormSpec(), ("image",)),))
    with pytest.raises(SpecError, match="a: unknown geometry type NormSpec"):
        validate(spec)
    with pytest.raises(SpecError, match="NormSpec"):
        spec_to_json(spec)


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

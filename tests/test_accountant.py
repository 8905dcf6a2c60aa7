from dataclasses import replace

import numpy as np
import pytest

from tinyssd import accountant
from tinyssd.accountant import audit, compare, format_audit_table, format_comparison
from tinyssd.arch import ArchSpec, ConvSpec, LayerSpec, PoolSpec, intermediate_shapes, param_manifest
from tinyssd.modelio import model_file_size


def test_conv1_parameter_count(spec):
    report = audit(spec)
    conv1 = next(a for a in report.layers if a.name == "conv1")
    assert conv1.param_count == 3 * 3 * 3 * 57 + 57 == 1596
    assert conv1.mac_count == 149 * 149 * 57 * 3 * 3 * 3
    assert conv1.output_shape == (57, 149, 149)


def test_totals_against_published_claims(spec):
    report = audit(spec)
    assert abs(report.total_params - 1.13e6) / 1.13e6 <= 0.06
    assert abs(report.total_macs - 571.09e6) / 571.09e6 <= 0.10
    assert abs(report.fp16_mb - 2.3) / 2.3 <= 0.06


def test_params_equal_allocated_elements(spec, store):
    """Structural counting must agree exactly with walking the real blobs."""
    report = audit(spec)
    assert report.total_params == store.total_elements
    assert report.total_params == sum(arr.size for _, arr in store.items())


def test_macs_recounted_from_blob_shapes(spec, store):
    """Independent recount: every conv blob contributes oc*ic*kh*kw MACs per
    output position of its owning layer."""
    report = audit(spec)
    shapes = dict(intermediate_shapes(spec))
    total = 0
    for name, arr in store.items():
        if not name.endswith("/w"):
            continue
        layer = name.split("/")[0]
        _, h, w = shapes[layer]
        total += int(np.prod(arr.shape)) * h * w
    assert total == report.total_macs


def test_fire5_params_match_closed_form(spec):
    """squeeze + both expand paths, each in_c*kh*kw*out_c + out_c."""
    report = audit(spec)
    fire5 = next(a for a in report.layers if a.name == "fire5")
    in_c = 173  # fire4 output through pool5
    want = (
        44 * (in_c * 1 * 1 + 0) + 44
        + 166 * (44 * 1 * 1) + 166
        + 161 * (44 * 3 * 3) + 161
    )
    assert fire5.param_count == want == 79043


def test_pools_cost_nothing(spec):
    report = audit(spec)
    for a in report.layers:
        if a.name.startswith("pool"):
            assert a.param_count == 0
            assert a.mac_count == 0


def test_fp16_size_formula(spec):
    report = audit(spec)
    manifest = param_manifest(spec)
    assert report.fp16_bytes == model_file_size(manifest, "f16")
    header = report.fp16_bytes - 2 * report.total_params
    assert 0 < header < 16_000
    assert report.fp32_bytes - 4 * report.total_params == header


def test_param_count_invariant_to_input_size(spec):
    base = audit(spec)
    bigger = audit(replace(spec, input_size=600))
    assert bigger.total_params == base.total_params
    assert bigger.total_macs > 3 * base.total_macs


def test_minimal_conv_audit():
    layers = (
        LayerSpec("only", ConvSpec(1, kernel=(1, 1), pad=0), ("image",)),
    )
    mini = ArchSpec(layers=layers, input_size=7, input_channels=1)
    report = audit(mini)
    assert report.total_params == 2
    assert report.total_macs == 7 * 7


def test_pool_only_audit():
    layers = (LayerSpec("p", PoolSpec(), ("image",)),)
    mini = ArchSpec(layers=layers, input_size=8, input_channels=1)
    report = audit(mini)
    assert report.total_params == 0
    assert report.total_macs == 0


def _publish(monkeypatch, **figures):
    """Replace the published value of each named metric, keeping its tolerance."""
    table = tuple((m, figures.get(m, ref), tol) for m, ref, tol in accountant.PUBLISHED)
    monkeypatch.setattr(accountant, "PUBLISHED", table)


def test_compare_exact_match_passes(spec, monkeypatch):
    report = audit(spec)
    _publish(monkeypatch, params=float(report.total_params), macs=float(report.total_macs),
             fp16_mb=report.fp16_mb)
    cmp = compare(report)
    assert cmp.passed
    assert all(c.deviation == 0.0 for c in cmp.checks)


def test_compare_deviation_arithmetic(spec, monkeypatch):
    report = audit(spec)
    _publish(monkeypatch, params=report.total_params / 1.062)
    cmp = compare(report)
    params = cmp.checks[0]
    assert params.deviation == pytest.approx(0.062, rel=1e-9)
    assert not params.passed
    assert "FAIL" in format_comparison(cmp)


def test_audit_table_lists_every_layer(spec):
    text = format_audit_table(audit(spec))
    for layer in spec.layers:
        assert layer.name in text
    assert "total params" in text

import contextlib
import io

import pytest

import gen
import spans
import tinyssd.network
import tinyssd.ops
from tinyssd import accountant, cli, tiny_ssd_spec


@pytest.fixture(scope="module")
def traced_detect(tmp_path_factory):
    work = tmp_path_factory.mktemp("spans")
    model = work / "model.tssd"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["init-random", "--seed", "7", "--dtype", "f16", "--out", str(model)]) == 0
    frame = gen.flat_frames(1, work, count=1)[0]
    argv = ["detect", "--model", str(model), "--image", str(frame)]

    def detect():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0
        return out.getvalue()

    plain = detect()
    tracer = spans.Tracer()
    with tracer.installed():
        with tracer.request():
            traced = detect()
    return plain, traced, tracer


def test_tracing_changes_no_output_and_is_removed(traced_detect):
    plain, traced, _ = traced_detect
    assert traced == plain
    assert tinyssd.network.conv2d is tinyssd.ops.conv2d
    assert tinyssd.cli.forward is tinyssd.network.forward


AUDIT = accountant.audit(tiny_ssd_spec())
LAYER_MACS = {a.name: a.mac_count for a in AUDIT.layers}


def test_layer_rows_cover_the_spec_and_sum_to_the_forward_pass(traced_detect):
    _, _, tracer = traced_detect
    (request,) = tracer.by_request()
    m = spans.request_metrics(request, LAYER_MACS)

    names = [layer.name for layer in tiny_ssd_spec().layers]
    assert len(names) == 32
    assert all(m[f"layer.{name}.ms"] > 0 for name in names)
    assert {k for k in m if k.startswith("layer.") and k.endswith(".gmac_s")} == {
        f"layer.{name}.gmac_s" for name, macs in LAYER_MACS.items() if macs
    }
    layer_sum = sum(m[f"layer.{name}.ms"] for name in names)
    assert layer_sum + m["network.self_ms"] == pytest.approx(m["network.forward_ms"])
    assert 0.9 * m["network.forward_ms"] < layer_sum < m["network.forward_ms"]

    conv_macs = sum(s.info["macs"] for s in request if s.name == "ops.conv2d")
    assert conv_macs == AUDIT.total_macs
    assert m["ops.conv1x1_ms"] + m["ops.conv3x3_ms"] == pytest.approx(m["ops.conv2d_ms"])


def test_counts_explain_the_nms_work(traced_detect):
    plain, _, tracer = traced_detect
    (request,) = tracer.by_request()
    m = spans.request_metrics(request, LAYER_MACS)
    assert m["priors.emitted"] == len(plain.splitlines())
    assert 0 < m["priors.nms_kept"] <= m["priors.nms_candidates"]
    assert m["priors.nms_keep_ratio"] == m["priors.nms_kept"] / m["priors.nms_candidates"]
    assert m["cli.self_ms"] > 0
    assert m["voceval.evaluate_ms"] == 0

import hashlib
import re
import warnings

import numpy as np
import pytest

from tinyssd import accountant, cli
from tinyssd.arch import param_manifest, spec_from_json, tiny_ssd_spec
from tinyssd.cli import main
from tinyssd.image import write_ppm
from tinyssd.modelio import load_weights, quantize_fp16
from tinyssd.tensor import Tensor, write_tnsr
from tinyssd.voceval import evaluate, format_eval_report, parse_detection_lines, parse_ground_truth

from test_modelio import _huge_shape_model

ANNOTATION = """<annotation>
  <size><width>100</width><height>100</height></size>
  <object>
    <name>dog</name>
    <difficult>0</difficult>
    <bndbox><xmin>11</xmin><ymin>11</ymin><xmax>50</xmax><ymax>50</ymax></bndbox>
  </object>
</annotation>
"""


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "seeded.tssd"
    assert main(["init-random", "--seed", "5", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def ppm_path(tmp_path_factory):
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, (120, 160, 3), dtype=np.uint8)
    path = tmp_path_factory.mktemp("img") / "scene.ppm"
    write_ppm(path, img)
    return path


def test_describe_contains_fire5(capsys):
    assert main(["describe"]) == 0
    out = capsys.readouterr().out
    assert "Fire5" in out
    assert "44@S -- 166@E1 -- 161@E3" in out


def test_describe_text_output_is_pinned(capsys):
    """The paper's layer table, whose Input Size column comes from lower."""
    assert main(["describe"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "0603fddffec0807d3e258e65209a0c21cd07e6fef635b85eca491a3d3249e664"


def test_describe_struct_round_trips(capsys):
    assert main(["describe", "--format", "struct"]) == 0
    out = capsys.readouterr().out
    assert spec_from_json(out) == tiny_ssd_spec()


def test_describe_struct_output_is_pinned(capsys):
    """The dump is built from the geometry fields; its keys and their order
    must not move with them."""
    assert main(["describe", "--format", "struct"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "2013bfe0438c85e3f94cdd7a67bc6f5b1b198b1baa3410cd4ba3e2e6b2f704ab"


def test_audit_check_passes_with_defaults(capsys):
    assert main(["audit"]) == 0
    out = capsys.readouterr().out
    assert "fire5" in out
    assert "overall: PASS" in out


def test_audit_check_fails_on_tight_reference(monkeypatch, capsys):
    tight = (("params", 2e6, 0.06),) + accountant.PUBLISHED[1:]
    monkeypatch.setattr(accountant, "PUBLISHED", tight)
    assert main(["audit"]) == 3
    assert "overall: FAIL" in capsys.readouterr().out


def test_audit_output_is_pinned(capsys):
    """The audit of the canonical spec is a constant."""
    assert main(["audit"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "342aa4dd4be37bf4af682dcd6aedf17fb01eebd48e431ff34a1febdfd40a8a06"


@pytest.mark.parametrize("flags", [
    ["--check"], ["--ref-params", "2e6"], ["--ref-macs", "5e8"], ["--ref-size-mb", "2"],
    ["--tol-params", "0.1"], ["--tol-macs", "0.1"], ["--tol-size", "0.1"],
])
def test_audit_takes_no_options(flags):
    with pytest.raises(SystemExit) as exc:
        main(["audit", *flags])
    assert exc.value.code == 1


def test_audit_output_deterministic(capsys):
    main(["audit"])
    first = capsys.readouterr().out
    main(["audit"])
    second = capsys.readouterr().out
    assert first == second


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--frobnicate"])
    assert exc.value.code == 1


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_init_random_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "neg.tssd"
    assert main(["init-random", "--seed", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "tinyssd init-random: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_init_random_writes_valid_model(model_path):
    store = load_weights(model_path, manifest=param_manifest(tiny_ssd_spec()))
    assert len(store) == 94


def test_detect_emits_parseable_lines(model_path, ppm_path, capsys):
    args = ["detect", "--model", str(model_path), "--image", str(ppm_path),
            "--conf", "0.01", "--top-k", "10"]
    assert main(args) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) <= 10
    records = parse_detection_lines(lines)
    for rec in records:
        assert rec.image_id == "scene"
    main(args)
    assert capsys.readouterr().out == out  # byte-identical rerun


def test_detect_accepts_raw_tensor(model_path, tmp_path, capsys):
    tensor = Tensor(np.zeros((1, 3, 300, 300), dtype=np.float32))
    path = tmp_path / "input.tnsr"
    write_tnsr(tensor, path)
    assert main(["detect", "--model", str(model_path), "--image", str(path)]) == 0
    capsys.readouterr()


def test_detect_annotated_ppm(model_path, ppm_path, capsysbinary):
    args = ["detect", "--model", str(model_path), "--image", str(ppm_path),
            "--conf", "0.01", "--out", "annotated-ppm"]
    assert main(args) == 0
    out = capsysbinary.readouterr().out
    assert out.startswith(b"P6\n160 120\n255\n")
    assert len(out) == len(b"P6\n160 120\n255\n") + 120 * 160 * 3


def test_detect_annotated_requires_ppm(model_path, tmp_path, capsys):
    tensor = Tensor(np.zeros((1, 3, 300, 300), dtype=np.float32))
    path = tmp_path / "input.tnsr"
    write_tnsr(tensor, path)
    code = main(["detect", "--model", str(model_path), "--image", str(path),
                 "--out", "annotated-ppm"])
    assert code == 2
    assert "PPM" in capsys.readouterr().err


def test_detect_missing_model_is_io_error(ppm_path, capsys):
    assert main(["detect", "--model", "/nonexistent.tssd", "--image", str(ppm_path)]) == 2
    capsys.readouterr()


def test_detect_wrong_tensor_shape_is_error(model_path, tmp_path, capsys):
    tensor = Tensor(np.zeros((1, 3, 100, 100), dtype=np.float32))
    path = tmp_path / "small.tnsr"
    write_tnsr(tensor, path)
    assert main(["detect", "--model", str(model_path), "--image", str(path)]) == 2
    capsys.readouterr()


def test_eval_pipeline(tmp_path, capsys):
    ann_dir = tmp_path / "annotations"
    ann_dir.mkdir()
    (ann_dir / "scene.xml").write_text(ANNOTATION)
    det_file = tmp_path / "dets.txt"
    det_file.write_text("scene dog 0.900000 0.100000 0.100000 0.500000 0.500000\n")
    csv_path = tmp_path / "pr.csv"
    args = ["eval", "--detections", str(det_file), "--annotations", str(ann_dir),
            "--pr-csv", str(csv_path)]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "mAP 1.0000" in out
    assert csv_path.read_text().startswith("class,recall,precision")



def test_eval_reports_counts_and_timings_on_stderr(tmp_path, capsys):
    """One stderr line with the lines scored, the truth boxes and the parse
    and match times; stdout is the report evaluate gives, byte for byte."""
    ann_dir = tmp_path / "annotations"
    ann_dir.mkdir()
    (ann_dir / "scene.xml").write_text(ANNOTATION)
    lines = ["scene dog 0.900000 0.100000 0.100000 0.500000 0.500000\n", "\n",
             "scene cat 0.400000 0.200000 0.200000 0.600000 0.600000\n"]
    det_file = tmp_path / "dets.txt"
    det_file.write_text("".join(lines))
    assert main(["eval", "--detections", str(det_file), "--annotations", str(ann_dir)]) == 0
    captured = capsys.readouterr()
    assert re.fullmatch(r"scored 2 detection line\(s\) against 1 truth box\(es\): "
                        r"parse \d+\.\d ms, match \d+\.\d ms\n", captured.err)
    truths = parse_ground_truth(ann_dir / "scene.xml")
    assert captured.out == format_eval_report(evaluate(lines, truths))

def test_eval_empty_annotation_dir_is_error(tmp_path, capsys):
    det_file = tmp_path / "dets.txt"
    det_file.write_text("")
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["eval", "--detections", str(det_file), "--annotations", str(empty)]) == 2
    capsys.readouterr()


def test_quantize_round_trip(model_path, tmp_path, capsys):
    out_path = tmp_path / "half.tssd"
    assert main(["quantize", "--in", str(model_path), "--out", str(out_path)]) == 0
    summary = capsys.readouterr().out
    assert "max |dx|" in summary
    original = load_weights(model_path)
    assert load_weights(out_path) == quantize_fp16(original)


def test_detect_to_eval_round_trip(model_path, ppm_path, tmp_path, capsys):
    """Lines emitted by detect feed eval unchanged."""
    assert main(["detect", "--model", str(model_path), "--image", str(ppm_path),
                 "--conf", "0.01", "--top-k", "5"]) == 0
    lines = capsys.readouterr().out
    det_file = tmp_path / "emitted.txt"
    det_file.write_text(lines)
    ann_dir = tmp_path / "ann"
    ann_dir.mkdir()
    (ann_dir / "scene.xml").write_text(ANNOTATION)
    assert main(["eval", "--detections", str(det_file), "--annotations", str(ann_dir)]) == 0
    assert "mAP" in capsys.readouterr().out


@pytest.mark.parametrize("image_id", ["a b", "", "tab\there"])
def test_detect_rejects_id_eval_cannot_split(model_path, ppm_path, capsys, image_id):
    code = main(["detect", "--model", str(model_path), "--image", str(ppm_path),
                 "--image-id", image_id])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"image id {image_id!r}" in captured.err
    assert "Traceback" not in captured.err


def test_detect_rejects_spaced_stem_before_loading_model(ppm_path, tmp_path, capsys):
    spaced = tmp_path / "my scene.ppm"
    spaced.write_bytes(ppm_path.read_bytes())
    code = main(["detect", "--model", str(tmp_path / "absent.tssd"), "--image", str(spaced)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "image id 'my scene'" in captured.err


def test_detect_spaced_stem_ok_with_id_or_annotated_ppm(model_path, ppm_path, tmp_path,
                                                         capsysbinary):
    spaced = tmp_path / "my scene.ppm"
    spaced.write_bytes(ppm_path.read_bytes())
    base = ["detect", "--model", str(model_path), "--image", str(spaced), "--conf", "0.01"]
    assert main(base + ["--image-id", "my_scene", "--top-k", "3"]) == 0
    records = parse_detection_lines(capsysbinary.readouterr().out.decode().splitlines())
    assert [r.image_id for r in records] == ["my_scene"] * 3
    assert main(base + ["--out", "annotated-ppm"]) == 0
    assert capsysbinary.readouterr().out.startswith(b"P6\n160 120\n255\n")


def test_detect_negative_top_k_is_error(model_path, ppm_path, capsys):
    code = main(["detect", "--model", str(model_path), "--image", str(ppm_path),
                 "--top-k", "-1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "top_k must be >= 0" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("flags, message", [
    (["--conf", "nan"], "conf_threshold must be finite, got nan"),
    (["--conf=-inf"], "conf_threshold must be finite, got -inf"),
    (["--conf", "0.01", "--iou", "nan"], "iou_threshold must be in [0, 1], got nan"),
    (["--conf", "0.01", "--iou", "-0.5"], "iou_threshold must be in [0, 1], got -0.5"),
    (["--iou", "1.5"], "iou_threshold must be in [0, 1], got 1.5"),
], ids=["conf-nan", "conf-neg-inf", "iou-nan", "iou-negative", "iou-above-one"])
def test_detect_bad_threshold_is_config_error(model_path, ppm_path, capsys, flags, message):
    code = main(["detect", "--model", str(model_path), "--image", str(ppm_path), *flags])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_eval_iou_match_is_not_an_option(capsys):
    """The VOC2007 protocol fixes the match at IoU >= 0.5."""
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--detections", "dets.txt", "--annotations", "ann", "--iou-match", "0.5"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --iou-match 0.5" in capsys.readouterr().err


def test_abbreviated_flag_is_usage_error(capsys):
    """Flags match only in full: detect's --top is not taken as --top-k."""
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--model", "m.tssd", "--image", "scene.ppm", "--top", "5"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --top 5" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["detect", "--model", "{missing}", "--image", "{missing}", "--conf", "nan"],
     "conf_threshold must be finite, got nan"),
    (["detect", "--model", "{missing}", "--image", "{missing}", "--top-k", "-1"],
     "top_k must be >= 0, got -1"),
], ids=["detect-conf", "detect-top-k"])
def test_bad_threshold_is_reported_before_any_input_is_read(tmp_path, capsys, args, message):
    missing = str(tmp_path / "missing")
    assert main([a.format(missing=missing) for a in args]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "missing" not in err


def test_unknown_subcommand_flag_shows_subcommand_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--detections", "dets.txt", "--annotations", "ann", "--iou", "0.3"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: tinyssd eval ")
    assert "tinyssd eval: error: unrecognized arguments: --iou 0.3" in err


def test_detect_nan_weight_is_format_error(model_path, ppm_path, tmp_path, capsys):
    raw = bytearray(model_path.read_bytes())
    # first conv1/w value: after the name, dtype tag, rank and four dims
    offset = raw.index(b"conv1/w") + len(b"conv1/w") + 2 + 4 * 4
    raw[offset:offset + 4] = np.float32(np.nan).tobytes()
    bad = tmp_path / "nan.tssd"
    bad.write_bytes(bytes(raw))
    code = main(["detect", "--model", str(bad), "--image", str(ppm_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"non-finite value in blob 'conv1/w' at byte {offset}" in captured.err
    assert "Traceback" not in captured.err


GOOD_LINE = "scene dog 0.900000 0.100000 0.100000 0.500000 0.500000\n"


@pytest.mark.parametrize("annotation, detections, message", [
    (ANNOTATION.replace("<width>100<", "<width>wide<"), GOOD_LINE, "<width> must be a finite int"),
    (ANNOTATION.replace("<height>100<", "<height>1e2<"), GOOD_LINE, "<height> must be a finite int"),
    (ANNOTATION.replace("<xmax>50<", "<xmax>5O<"), GOOD_LINE, "<xmax> must be a finite float"),
    (ANNOTATION.replace("<ymin>11<", "<ymin>nan<"), GOOD_LINE, "<ymin> must be a finite float"),
    (ANNOTATION.replace("<difficult>0</difficult>", "<difficult/>"), GOOD_LINE,
     "<difficult> must be 0 or 1"),
    (ANNOTATION, "scene dog nan 0.1 0.1 0.5 0.5\n", "detection line 1: non-finite"),
    (ANNOTATION, GOOD_LINE + "scene dog 0.5 0.1 inf 0.5 0.5\n", "detection line 2: non-finite"),
], ids=["width", "height", "xmax", "ymin-nan", "difficult-empty", "score-nan", "coord-inf"])
def test_eval_bad_input_is_format_error(tmp_path, capsys, annotation, detections, message):
    ann_dir = tmp_path / "ann"
    ann_dir.mkdir()
    (ann_dir / "scene.xml").write_text(annotation)
    det_file = tmp_path / "dets.txt"
    det_file.write_text(detections)
    assert main(["eval", "--detections", str(det_file), "--annotations", str(ann_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_detect_non_finite_tensor_is_format_error(model_path, tmp_path, capsys):
    data = np.zeros((1, 3, 300, 300), dtype=np.float32)
    data[0, 0, 10, 10] = np.inf
    path = tmp_path / "inf.tnsr"
    write_tnsr(Tensor(data), path)
    assert main(["detect", "--model", str(model_path), "--image", str(path),
                 "--conf", "0.01"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"non-finite value at byte {20 + 4 * (10 * 300 + 10)}" in captured.err
    assert "Traceback" not in captured.err


def test_quantize_huge_blob_shape_is_format_error(tmp_path, capsys):
    bad = tmp_path / "huge.tssd"
    _huge_shape_model(bad)
    assert main(["quantize", "--in", str(bad), "--out", str(tmp_path / "q.tssd")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "truncated payload for blob 'big' at byte 35" in captured.err
    assert "Traceback" not in captured.err


def test_eval_non_utf8_detections_is_format_error(tmp_path, capsys):
    ann_dir = tmp_path / "ann"
    ann_dir.mkdir()
    (ann_dir / "scene.xml").write_text(ANNOTATION)
    det_file = tmp_path / "dets.txt"
    det_file.write_bytes(GOOD_LINE.encode() + b"\xff\xfe\n")
    assert main(["eval", "--detections", str(det_file), "--annotations", str(ann_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{det_file}: invalid UTF-8 at byte {len(GOOD_LINE)}" in captured.err
    assert "Traceback" not in captured.err


def test_detect_batch_above_one_is_shape_error(model_path, tmp_path, capsys, monkeypatch):
    path = tmp_path / "pair.tnsr"
    write_tnsr(Tensor(np.zeros((2, 3, 300, 300), dtype=np.float32)), path)
    forwarded = []
    monkeypatch.setattr(cli, "forward", lambda *args: forwarded.append(args))
    assert main(["detect", "--model", str(model_path), "--image", str(path)]) == 2
    assert forwarded == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "detect takes one image, got a TNSR batch of 2" in captured.err
    assert "Traceback" not in captured.err


def test_detect_overflowing_size_offsets_clip_to_frame(model_path, tmp_path, capsys):
    """A finite but huge input overflows the box decode's exp; those boxes are
    clipped to the frame and numpy prints no overflow warning."""
    path = tmp_path / "huge.tnsr"
    x = np.random.default_rng(0).normal(0, 1, (1, 3, 300, 300)) * 1e37
    write_tnsr(Tensor(x.astype(np.float32)), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["detect", "--model", str(model_path), "--image", str(path), "--conf", "0.01"]) == 0
    captured = capsys.readouterr()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in captured.err
    records = parse_detection_lines(captured.out.splitlines())
    assert records
    boxes = np.array([r.box for r in records])
    assert ((boxes >= 0.0) & (boxes <= 1.0)).all()


def test_detect_huge_finite_input_emits_nothing_without_warnings(model_path, tmp_path, capsys):
    """Clipped noise times 3e38 is a finite TNSR, but it overflows float32 in
    the forward pass; rows made non-finite are never emitted, and numpy
    prints no warning."""
    path = tmp_path / "huge.tnsr"
    x = np.clip(np.random.default_rng(0).normal(0, 1, (1, 3, 300, 300)), -1, 1) * 3e38
    write_tnsr(Tensor(x.astype(np.float32)), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["detect", "--model", str(model_path), "--image", str(path), "--conf", "0.01"])
    assert code == 0
    captured = capsys.readouterr()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in captured.err
    assert captured.out == ""

import numpy as np
import pytest

import reference
import run
from tinyssd import priors, tiny_ssd_spec, voceval
from tinyssd.network import HeadOutput

REQ = run.Request(("detect",), "img", "detect", "img", conf=0.3)


@pytest.fixture(scope="module")
def case():
    prior_set = priors.generate_priors(priors.tiny_ssd_prior_config(tiny_ssd_spec()))
    rng = np.random.default_rng(0)
    n = len(prior_set)
    head = HeadOutput(loc=rng.normal(0.0, 1.0, (1, n, 4)), conf=rng.normal(0.0, 2.0, (1, n, 21)))
    found = priors.detect(head, prior_set, conf_threshold=REQ.conf, iou_threshold=REQ.iou,
                          top_k=REQ.top_k)
    expected = reference.reference_detections(head.loc[0], head.conf[0], prior_set.boxes,
                                              REQ.conf, REQ.iou, REQ.top_k)
    lines = [priors.format_detection_line("img", d) for d in found]
    return found, expected, lines


def test_reference_matches_the_program(case):
    found, expected, _ = case
    assert len(found) == REQ.top_k
    assert [(d.class_id, d.score, d.box) for d in found] == expected


def test_reference_check_accepts_the_program_output(case):
    _, expected, lines = case
    out = "\n".join(lines) + "\n"
    assert run.check_detect(REQ, out, voceval.parse_detection_lines, expected) == []


def _shift_box(line):
    fields = line.split()
    fields[3] = f"{float(fields[3]) + 1e-4:.6f}"
    return " ".join(fields)


@pytest.mark.parametrize("edit", [
    lambda lines: lines[:-1],
    lambda lines: [lines[1], lines[0]] + lines[2:],
    lambda lines: [_shift_box(lines[0])] + lines[1:],
])
def test_reference_check_flags_other_detections(case, edit):
    _, expected, lines = case
    records = voceval.parse_detection_lines(edit(lines))
    assert run.check_reference(records, expected)

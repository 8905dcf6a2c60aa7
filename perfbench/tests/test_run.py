import json
import shutil
import subprocess
import sys

import pytest
from conftest import BENCH_DIR, REPO

import run
from tinyssd import VOC_CLASSES, voceval

BENCH = json.loads((REPO / "BENCHMARK.json").read_text())
GOOD = "img car 0.900000 0.1 0.1 0.5 0.5\nimg dog 0.700000 0.2 0.2 0.6 0.6\n"
REQ = run.Request(("detect",), "img", "detect", "img", conf=0.5, top_k=2)


def _bench(workload, trace, cwd=REPO):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", ["flat", "eval"])
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name in result["metrics"]:
        assert any(line.startswith(f"{name} ") for line in proc.stdout.splitlines())


def test_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("flat", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_detect_check_accepts_valid_output():
    assert run.check_detect(REQ, GOOD, voceval.parse_detection_lines) == []


@pytest.mark.parametrize("out, problem", [
    ("img car 0.7 0.1 0.1 0.5 0.5\nimg dog 0.9 0.2 0.2 0.6 0.6\n", "scores increase"),
    ("img car 0.4 0.1 0.1 0.5 0.5\n", "score below conf"),
    ("img car 0.9 0.1 0.1 1.5 0.5\n", "box outside"),
    (GOOD + "img cat 0.6 0.1 0.1 0.2 0.2\n", "top-k"),
    ("other car 0.9 0.1 0.1 0.5 0.5\n", "wrong image id"),
    ("img car 0.9 0.1 0.1\n", "unparseable"),
])
def test_detect_check_flags_bad_output(out, problem):
    problems = run.check_detect(REQ, out, voceval.parse_detection_lines)
    assert any(problem in p for p in problems), problems


def test_eval_check():
    rows = [f"{name}  AP 0.5000" for name in VOC_CLASSES]
    good = "\n".join(rows + ["", "mAP 0.5000 over 20 class(es)"]) + "\n"
    assert run.check_eval(good, VOC_CLASSES) == []
    assert run.check_eval(good.replace("mAP 0.5000", "mAP 1.5000"), VOC_CLASSES)
    assert run.check_eval("\n".join(rows[1:]), VOC_CLASSES)

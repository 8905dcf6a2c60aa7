"""The tinyssd benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload flat --seed 1 --seconds 33 --trace 0

Run from the repository root. The program is imported from ``src/`` and
driven through its real entry point, ``tinyssd.cli.main``, in-process with
stdout captured; it sees only files this script generates from ``--seed``.
Requests are sent back to back, each after the previous one returned and an
untimed garbage collection. Every output is checked, and a request that
exits non-zero, raises, or fails a check counts as failed.

The inputs and the model are written by child processes (gen.py and a
fresh interpreter running ``init-random``), so this process only imports
tinyssd and serves requests, and its peak RSS is the program's own.

With ``--trace 0`` the end-to-end metrics are measured with no tracing.
With ``--trace 1`` every input is sent twice in a row, once untraced and once
traced (see spans.py), so both halves share the same stretch of time; the
per-layer metrics are medians over the traced requests. The last stdout line
is one JSON object; the lines above it are the same figures for a reader.
See README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import gc
import glob
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

MODEL_SEED = "7"
SETUP_REPEATS = 7
WORK_DIR = ".perfbench_work"
# Detections are printed to six decimals; a reference value may differ from
# the printed one by the rounding plus float noise.
REFERENCE_TOL = 1e-6

# Fresh interpreter -> model written: what a user pays before the first
# request. The child prints the system-wide monotonic clock once the model
# is written, so the parent's wait, which polls, adds nothing to the time.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
from tinyssd import cli
with open(sys.argv[3], "w") as log:
    code = cli.main(["init-random", "--seed", "{seed}", "--dtype", "f16", "--out", sys.argv[2]])
    print(time.clock_gettime(time.CLOCK_MONOTONIC), file=log)
sys.exit(code)
""".format(seed=MODEL_SEED)


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    key: str  # requests with the same key must print identical bytes
    kind: str  # "detect" or "eval"
    image_id: str = ""
    conf: float = 0.5
    iou: float = 0.45
    top_k: int = 200
    lines_in: int = 0  # detection lines an eval request scores


def flat_requests(inputs, model):
    return [
        Request(("detect", "--model", str(model), "--image", str(p)), p.stem, "detect", p.stem)
        for p in inputs
    ]


def stress_requests(inputs, model):
    return [
        Request(("detect", "--model", str(model), "--image", str(p), "--conf", "0.01"),
                p.stem, "detect", p.stem, conf=0.01)
        for p in inputs
    ]


def eval_requests(inputs, model):
    detections, annotations = inputs
    argv = ("eval", "--detections", str(detections), "--annotations", str(annotations))
    return [Request(argv, "eval", "eval", lines_in=gen.EVAL_DETECTIONS)]


# name -> (function making the requests from gen.py's paths, untimed warm-up request
# first). A stress request runs for seconds, so one-time costs vanish in it without one.
WORKLOADS = {
    "flat": (flat_requests, True),
    "stress": (stress_requests, False),
    "eval": (eval_requests, True),
}


def check_detect(req: Request, out: str, parse, expected=None) -> list[str]:
    """Problems with one detect stdout; ``parse`` is the program's
    detection-line parser, ``expected`` the reference detections, if any."""
    lines = out.splitlines()
    problems = []
    try:
        records = parse(lines)
    except Exception as e:  # whatever the parser raises, the output is at fault
        return [f"unparseable output: {e}"]
    if len(records) != len(lines):
        problems.append("blank lines in output")
    if len(records) > req.top_k:
        problems.append(f"{len(records)} lines > top-k {req.top_k}")
    scores = [r.score for r in records]
    if any(b > a for a, b in zip(scores, scores[1:])):
        problems.append("scores increase")
    if any(s < req.conf for s in scores):
        problems.append(f"score below conf {req.conf}")
    if any(not all(0.0 <= v <= 1.0 for v in r.box) for r in records):
        problems.append("box outside [0, 1]")
    if any(r.image_id != req.image_id for r in records):
        problems.append("wrong image id")
    if expected is not None:
        problems.extend(check_reference(records, expected))
    return problems


def check_reference(records, expected) -> list[str]:
    """Parsed detections against reference.reference_detections, in order."""
    if len(records) != len(expected):
        return [f"{len(records)} detections, the reference NMS keeps {len(expected)}"]
    for n, (r, (class_id, score, box)) in enumerate(zip(records, expected), start=1):
        if (r.class_name != gen.VOC_CLASSES[class_id - 1]
                or abs(r.score - score) > REFERENCE_TOL
                or any(abs(a - b) > REFERENCE_TOL for a, b in zip(r.box, box))):
            return [f"line {n} differs from the reference NMS"]
    return []


def check_eval(out: str, class_names) -> list[str]:
    """Problems with one eval stdout: a row per class, then the mAP line."""
    lines = out.splitlines()
    if len(lines) != len(class_names) + 2:
        return [f"{len(lines)} report lines, expected {len(class_names) + 2}"]
    problems = []
    for name, line in zip(class_names, lines):
        if line.split()[:2] != [name, "AP"]:
            problems.append(f"bad class row {line!r}")
    last = lines[-1].split()
    try:
        ok = last[0] == "mAP" and 0.0 <= float(last[1]) <= 1.0
    except (IndexError, ValueError):
        ok = False
    if not ok:
        problems.append(f"bad mAP line {lines[-1]!r}")
    return problems


class Client:
    """Closed-loop client: sends requests in turn, times and checks each.

    The first output for each detect input is also compared with the
    reference NMS, run on the head output the program handed to
    ``priors.detect`` (kept by the wrapper ``capturing`` returns).
    """

    def __init__(self, cli, parse, class_names, requests):
        # parse is bound before any tracing, so checks never add spans
        self.cli, self.parse, self.class_names = cli, parse, class_names
        self.requests = requests
        self.sent = 0
        self.failed = 0
        self.first_output: dict[str, str] = {}
        self._capture = False
        self._captured = None  # (loc, logits, prior boxes) of the last detect call

    def capturing(self, detect):
        @functools.wraps(detect)
        def wrapper(head, prior_set, *args, **kwargs):
            if self._capture:
                self._captured = (head.loc[0], head.conf[0], prior_set.boxes)
            return detect(head, prior_set, *args, **kwargs)

        return wrapper

    def _reference(self, req: Request):
        if self._captured is None:
            return None
        loc, logits, priors = self._captured
        self._captured = None
        return reference.reference_detections(loc, logits, priors, req.conf, req.iou, req.top_k)

    def send(self, req: Request, tracer=None) -> tuple[float, int]:
        """Run one request; returns (wall seconds, detection lines handled)."""
        self._capture, self._captured = req.key not in self.first_output, None
        out, err = io.StringIO(), io.StringIO()
        scope = tracer.request() if tracer else contextlib.nullcontext()
        problems = []
        # Untimed: each request starts with no garbage left by the one before,
        # as in a fresh `tinyssd` process, so no request pays for another's.
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                with scope:
                    code = self.cli.main(list(req.argv))
            except Exception:  # a crash is a failed request, not a failed run
                code = None
                problems.append(traceback.format_exc())
            wall = time.perf_counter() - start
        text = out.getvalue()
        if code != 0:
            problems.append(f"exit code {code}: {err.getvalue().strip()}")
        elif req.kind == "detect":
            problems.extend(check_detect(req, text, self.parse, self._reference(req)))
        else:
            problems.extend(check_eval(text, self.class_names))
        if self.first_output.setdefault(req.key, text) != text:
            problems.append("output differs from an earlier run of the same input")
        self.sent += 1
        if problems:
            self.failed += 1
            print(f"FAILED {req.kind} {req.key}: " + "; ".join(problems), file=sys.stderr)
        handled = req.lines_in if req.kind == "eval" else len(text.splitlines())
        return wall, handled

    def loop(self, seconds: float, rounds: int, tracer=None):
        """Send requests in turn until ``seconds`` have passed and every
        input has been sent ``rounds`` times; returns (untraced, traced)
        samples. With a tracer, each input is sent twice in a row, untraced
        and traced, the order alternating by round."""
        plain, traced = [], []
        deadline = time.perf_counter() + seconds
        n = len(self.requests)
        i = 0
        while i < rounds * n or time.perf_counter() < deadline:
            req = self.requests[i % n]
            if tracer is None:
                plain.append(self.send(req))
            else:
                for t in ((None, tracer) if (i // n) % 2 == 0 else (tracer, None)):
                    (plain if t is None else traced).append(self.send(req, t))
            i += 1
        return plain, traced


def measure_setup(src: Path, work: Path) -> tuple[float, Path]:
    """Median wall time of a fresh interpreter importing tinyssd and writing
    the seed-7 f16 model through the CLI; returns it and one written model."""
    times = []
    for i in range(SETUP_REPEATS):
        model, log = work / f"setup{i}.tssd", work / f"setup{i}.log"
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(src), str(model), str(log)],
                       check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(float(log.read_text()) - start)
    return statistics.median(times), work / "setup0.tssd"


def generate(workload: str, seed: int, work: Path) -> list[Path]:
    """The workload's inputs, written by gen.py in a child process."""
    proc = subprocess.run([sys.executable, str(HERE / "gen.py"), workload, str(seed), str(work)],
                          check=True, capture_output=True, text=True, timeout=300)
    return [Path(p) for p in json.loads(proc.stdout)]


def tail_latency(walls: list[float]) -> str:
    """p90 where at least ten samples lie beyond it."""
    p90 = statistics.quantiles(walls, n=10)[-1] if len(walls) > 1 else walls[0]
    beyond = sum(w > p90 for w in walls)
    if beyond < 10:
        return f"latency_p90_ms n/a (n={len(walls)}, {beyond} samples beyond p90, needs 10)"
    return f"latency_p90_ms {p90 * 1e3:.3f} ms (n={len(walls)}, {beyond} beyond)"


def environment(src: Path) -> dict:
    import numpy

    env = {"nproc": os.cpu_count(), "numpy": numpy.__version__,
           "src_lines": sum(len(p.read_text().splitlines()) for p in src.rglob("*.py"))}
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                env["blas_threads"] = fn()
                break
    return env


def run(args) -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "tinyssd" / "__init__.py").is_file():
        print(f"no tinyssd sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    os.environ.pop("TINYSSD_THREADS", None)  # measure the default a user gets

    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / WORK_DIR))
    try:
        setup_s, model = measure_setup(src, work)
        build, warmup = WORKLOADS[args.workload]
        requests = build(generate(args.workload, args.seed, work), model)

        sys.path.insert(0, str(src))
        from tinyssd import VOC_CLASSES, accountant, cli, priors, tiny_ssd_spec, voceval

        client = Client(cli, voceval.parse_detection_lines, VOC_CLASSES, requests)
        detect = priors.detect
        priors.detect = client.capturing(detect)
        try:
            if warmup:
                client.send(client.requests[0])
            if not args.trace:
                # two rounds, so every run checks that each output repeats
                samples, _ = client.loop(args.seconds, 2)
            else:
                tracer = spans.Tracer()
                with tracer.installed():
                    samples, traced = client.loop(args.seconds, 1, tracer)
        finally:
            priors.detect = detect
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = [w for w, _ in samples]
    metrics = {}
    if not args.trace:
        metrics["setup_s"] = (setup_s, "s")
        metrics["latency_p50_ms"] = (statistics.median(walls) * 1e3, "ms")
        metrics["dets_per_s"] = (statistics.median(n / w for w, n in samples), "1/s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    else:
        layer_macs = {a.name: a.mac_count for a in accountant.audit(tiny_ssd_spec()).layers}
        per_request = [spans.request_metrics(r, layer_macs) for r in tracer.by_request()]
        for name, value in spans.median_metrics(per_request).items():
            metrics[name] = (value, _unit(name))
        traced_p50 = statistics.median(w for w, _ in traced)
        metrics["trace.overhead_pct"] = ((traced_p50 / statistics.median(walls) - 1) * 100, "%")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(environment(src), sort_keys=True))
    print(tail_latency(walls))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"ops_failed {client.failed} / ops_attempted {client.sent}")
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.sent,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("gmac_s"):
        return "GMAC/s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

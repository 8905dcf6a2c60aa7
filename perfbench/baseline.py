"""Run the benchmark over several seeds and summarise each workload.

    python3 perfbench/baseline.py [--out perfbench/BASELINE.json]

Run from the repository root. A set is one untraced run of every workload
for each of seeds 1-10; it makes two sets. For each end-to-end metric it
reports the median and the spread: the distance between the first and third
quartile as a share of the median, set beside the metric's bound from
BENCHMARK.json ("ok" below a third of it). It also reports how much worse
the second set's median is than the first's. One traced run per workload
(seed 1) adds the candidate count that characterises the workload and the
share of the request each module takes. ``--out`` writes all of it, with
the environment, as a baseline file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = json.loads(Path("BENCHMARK.json").read_text())
SEEDS = list(range(1, 11))
SETS = 2


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1]), lines


def run_set(workload: str, seeds: list[int]) -> dict:
    runs = []
    for seed in seeds:
        result, _ = run_once(workload, seed, 0)
        runs.append(result)
        shown = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']} {shown}",
              flush=True)
    summary = {"failed": sum(r["failed"] for r in runs),
               "attempted": sum(r["attempted"] for r in runs)}
    for metric in BENCH["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}
    return summary


def traced(workload: str, seed: int) -> dict:
    result, lines = run_once(workload, seed, 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    top_level = ("cli.self", "network.forward", "priors.detect", "priors.generate_priors",
                 "modelio.load_weights", "arch.param_manifest", "image.read_ppm",
                 "image.preprocess_image", "tensor.read_tnsr", "voceval.load_annotation_dir",
                 "voceval.evaluate")
    request_ms = sum(m[f"{name}_ms"] for name in top_level)
    return {
        "seed": seed,
        "failed": result["failed"],
        "nms_candidates": m["priors.nms_candidates"],
        "request_ms": request_ms,
        "shares": {
            "network.forward": m["network.forward_ms"] / request_ms,
            "priors.nms": m["priors.nms_ms"] / request_ms,
            "voceval": (m["voceval.load_annotation_dir_ms"] + m["voceval.evaluate_ms"]) / request_ms,
        },
        "trace_overhead_pct": m["trace.overhead_pct"],
        "env": json.loads(next(line for line in lines if line.startswith("env "))[4:]),
    }


def report(workload: str, sets: list[dict]) -> dict:
    drift = {}
    for metric in BENCH["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for i, s in enumerate(sets, start=1):
            verdict = "ok" if s[name]["spread"] < bound / 3 else (
                "wide" if s[name]["spread"] < bound else "FAIL")
            print(f"  {workload} set {i} {name}: median {s[name]['median']:.5g} {metric['unit']}, "
                  f"spread {s[name]['spread']:.2%} (bound {bound:.0%}) {verdict}")
        first = sets[0][name]["median"]
        sign = 1 if metric["better"] == "lower" else -1
        worse = max(sign * (s[name]["median"] - first) / first for s in sets)
        drift[name] = worse
        print(f"  {workload} {name}: set 2 worse than set 1 by {worse:.2%} "
              f"(bound {bound:.0%}) {'ok' if worse <= bound else 'FAIL'}")
    return drift


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    names = [w["name"] for w in BENCH["workloads"]]
    sets = {name: [] for name in names}
    for _ in range(SETS):
        for name in names:
            sets[name].append(run_set(name, SEEDS))
    workloads = {}
    for name in names:
        drift = report(name, sets[name])
        workloads[name] = {"seeds": SEEDS, "sets": sets[name], "worst_set_drift": drift,
                           "traced": traced(name, SEEDS[0])}
        t = workloads[name]["traced"]
        print(f"  {name} traced: {t['nms_candidates']:.0f} NMS candidates, "
              f"{t['request_ms']:.1f} ms request, shares "
              + ", ".join(f"{k} {v:.1%}" for k, v in t["shares"].items()), flush=True)
    if args.out:
        env = next(iter(workloads.values()))["traced"]["env"]
        for summary in workloads.values():
            del summary["traced"]["env"]
        args.out.write_text(json.dumps({"env": env, "run_seconds": BENCH["run_seconds"],
                                        "workloads": workloads}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

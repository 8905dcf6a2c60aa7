"""detect stdout does not depend on the BLAS thread count."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import tinyssd
from tinyssd.cli import main
from tinyssd.image import BGR_MEANS, write_ppm
from tinyssd.tensor import Tensor, write_tnsr

CHILD = """
import sys
from tinyssd.cli import main
model, ppm, tnsr = sys.argv[1:]
for extra in ([ppm], [tnsr, "--conf", "0.01"]):
    if main(["detect", "--model", model, "--image", *extra]) != 0:
        sys.exit(1)
"""


def _detect_stdout(threads, *paths):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    src = str(Path(tinyssd.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", CHILD, *map(str, paths)], env=env,
                          capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_detect_stdout_identical_across_blas_threads(tmp_path):
    """One child per OPENBLAS_NUM_THREADS value runs detect on a flat-noise
    PPM at the defaults and on a unit-variance TNSR at --conf 0.01, where
    near-tied scores are printed. A 2-vCPU host can only compare 1 thread
    against 2, so that is the pair tested."""
    model = tmp_path / "m16.tssd"
    assert main(["init-random", "--seed", "7", "--dtype", "f16", "--out", str(model)]) == 0
    rng = np.random.default_rng(0)
    rgb_means = np.asarray(BGR_MEANS[::-1])
    pixels = np.clip(np.round(rgb_means + rng.normal(0.0, 1.0, (375, 500, 3))), 0, 255)
    ppm = tmp_path / "flat.ppm"
    write_ppm(ppm, pixels.astype(np.uint8))
    tnsr = tmp_path / "stress.tnsr"
    write_tnsr(Tensor(rng.normal(0.0, 1.0, (1, 3, 300, 300)).astype(np.float32)), tnsr)

    one = _detect_stdout(1, model, ppm, tnsr)
    two = _detect_stdout(2, model, ppm, tnsr)
    assert len(one.splitlines()) == 400  # 200 lines per input
    assert one == two

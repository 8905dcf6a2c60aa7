"""ops.conv2d output does not depend on the BLAS thread count.

tests/test_blas_threads.py checks this end to end through detect's printed
lines; this file checks the kernel's raw float32 bytes, at geometries whose
K (input channels x kernel taps) is longer than one GEMM_K_CHUNK.
"""

import os
import subprocess
import sys
from pathlib import Path

import tinyssd
from tinyssd.ops import GEMM_K_CHUNK

# (batch, in channels, height/width, out channels, kernel, stride, pad)
CASES = (
    (1, 173, 37, 84, 3, 1, 1),  # fire4_mbox_conf: K = 1557
    (1, 173, 37, 16, 3, 1, 1),  # fire4_mbox_loc
    (2, 70, 19, 40, 3, 2, 1),  # batch 2, K = 630
    (1, 300, 18, 46, 1, 1, 0),  # 1x1, K = 300 < GEMM_K_CHUNK
)

CHILD = """
import sys
import numpy as np
from tinyssd.ops import ConvSpec, conv2d
from tinyssd.tensor import Tensor
for seed, case in enumerate(eval(sys.argv[1])):
    n, c, size, oc, k, stride, pad = case
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(0.0, 1.0, (n, c, size, size)).astype(np.float32))
    w = rng.normal(0.0, (2.0 / (c * k * k)) ** 0.5, (oc, c, k, k)).astype(np.float32)
    b = rng.normal(0.0, 0.1, oc).astype(np.float32)
    out = conv2d(x, ConvSpec(oc, (k, k), stride, pad), w, b)
    sys.stdout.buffer.write(out.data.tobytes())
"""


def _conv_bytes(threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    src = str(Path(tinyssd.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", CHILD, repr(CASES)], env=env,
                          capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_conv2d_bytes_identical_across_blas_threads():
    """A 2-vCPU host can only compare 1 thread against 2, so that is the pair
    tested."""
    assert 173 * 9 > GEMM_K_CHUNK and (173 * 9) % GEMM_K_CHUNK
    one = _conv_bytes(1)
    assert one
    assert one == _conv_bytes(2)

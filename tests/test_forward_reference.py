"""The whole network against reference.forward_reference, a float64 forward
pass that walks the layer table without arch.lower.

A wrong fire concat order, a misplaced ReLU, a misordered head or a wrong
prior layout moves head values by O(1); float rounding moves them by far
less. Measured maximum |difference| over the cases below, with heads
reaching 20: 2.4e-6 with float64 GEMM accumulation, 1.6e-5 with float32
accumulation in K-chunks. FORWARD_ATOL = 1e-4 holds both with room.
"""

import json

import numpy as np
import pytest

from tinyssd.arch import spec_from_json, spec_to_json
from tinyssd.modelio import init_random, quantize_fp16
from tinyssd.network import forward
from tinyssd.tensor import Tensor

from reference import forward_reference

FORWARD_ATOL = 1e-4


def _image(seed, size):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(0.0, 1.0, (1, 3, size, size)).astype(np.float32))


def _assert_matches_reference(spec, store, image):
    head = forward(spec, store, image)
    loc, conf = forward_reference(spec, store, image)
    assert head.loc.shape == loc.shape and head.conf.shape == conf.shape
    np.testing.assert_allclose(head.loc, loc, rtol=0, atol=FORWARD_ATOL)
    np.testing.assert_allclose(head.conf, conf, rtol=0, atol=FORWARD_ATOL)


@pytest.fixture(scope="module")
def f16_store(spec):
    return quantize_fp16(init_random(spec, 7))


@pytest.mark.parametrize("input_seed", [1, 3])
@pytest.mark.parametrize("model", ["f16_seed7", "f32_seed11"])
def test_forward_matches_float64_reference(spec, store, f16_store, model, input_seed):
    weights = f16_store if model == "f16_seed7" else store
    _assert_matches_reference(spec, weights, _image(input_seed, 300))


def test_reduced_spec_matches_float64_reference(spec):
    doc = json.loads(spec_to_json(spec))
    doc["input_size"] = 100
    doc["heads"] = doc["heads"][:1]  # at 100 the box-size ladder covers one scale
    small = spec_from_json(json.dumps(doc))
    _assert_matches_reference(small, init_random(small, 5), _image(2, 100))

import numpy as np
import pytest

from tinyssd.errors import FormatError, ShapeError
from tinyssd.tensor import Tensor, read_tnsr, write_tnsr


def test_tensor_validates_rank_and_extents():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        Tensor(np.zeros((1, 0, 2, 2)))


def test_tensor_casts_to_contiguous_float32():
    t = Tensor(np.arange(8, dtype=np.int64).reshape(1, 2, 2, 2))
    assert t.data.dtype == np.float32
    assert t.data.flags.c_contiguous
    assert (t.n, t.c, t.h, t.w) == (1, 2, 2, 2)


def test_tnsr_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    t = Tensor(rng.normal(0, 1, (2, 3, 4, 5)).astype(np.float32))
    path = tmp_path / "x.tnsr"
    write_tnsr(t, path)
    back = read_tnsr(path)
    assert back.shape == t.shape
    assert np.array_equal(back.data, t.data)


def test_tnsr_bad_magic(tmp_path):
    path = tmp_path / "bad.tnsr"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError, match="magic"):
        read_tnsr(path)


def test_tnsr_truncated_payload(tmp_path):
    t = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
    path = tmp_path / "t.tnsr"
    write_tnsr(t, path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(FormatError, match="byte"):
        read_tnsr(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tnsr_non_finite_payload_names_byte(tmp_path, bad):
    data = np.ones((1, 2, 3, 4), dtype=np.float32)
    data[0, 1, 2, 0] = bad
    data[0, 1, 2, 3] = bad
    path = tmp_path / "bad.tnsr"
    write_tnsr(Tensor(data), path)
    first = 1 * 12 + 2 * 4 + 0
    with pytest.raises(FormatError, match=f"non-finite value at byte {20 + 4 * first}$"):
        read_tnsr(path)

import hashlib
import re
import struct

import numpy as np
import pytest

from tinyssd.arch import param_manifest
from tinyssd.errors import FormatError, MissingBlobError, ShapeError
from tinyssd.modelio import (
    WeightStore,
    init_random,
    load_weights,
    model_file_size,
    quantization_error,
    quantize_fp16,
    save_weights,
)


def _small_store(seed=0):
    rng = np.random.default_rng(seed)
    store = WeightStore()
    store.add("a/w", rng.normal(0, 1, (3, 2, 3, 3)))
    store.add("a/b", rng.normal(0, 1, 3))
    store.add("b/w", rng.normal(0, 1, (1, 3, 1, 1)))
    return store


def test_quantize_exact_values():
    store = WeightStore([("x", np.array([1.0, 0.1, -2.5], dtype=np.float32))])
    q = quantize_fp16(store)
    assert q["x"][0] == 1.0
    assert q["x"][1] == 0.0999755859375
    assert q["x"][2] == -2.5


def test_quantize_clamps_with_warning():
    store = WeightStore([("x", np.array([70000.0, -70000.0, 5.0], dtype=np.float32))])
    with pytest.warns(UserWarning, match="2 value"):
        q = quantize_fp16(store)
    assert q["x"][0] == 65504.0
    assert q["x"][1] == -65504.0
    assert q["x"][2] == 5.0


def test_quantize_idempotent():
    store = _small_store()
    once = quantize_fp16(store)
    twice = quantize_fp16(once)
    assert once == twice


def test_quantization_error_bound(spec, store):
    q = quantize_fp16(store)
    max_err, mean_err = quantization_error(store, q)
    mean_mag = np.mean([np.abs(arr).mean() for _, arr in store.items()])
    assert mean_err < 1e-3 * mean_mag
    assert max_err < 1e-2


def test_save_load_f32_bit_exact(tmp_path):
    store = _small_store()
    path = tmp_path / "m.tssd"
    save_weights(store, path, dtype="f32")
    assert load_weights(path) == store


def test_save_load_f16_equals_quantize(tmp_path):
    store = _small_store()
    path = tmp_path / "m16.tssd"
    save_weights(store, path, dtype="f16")
    assert load_weights(path) == quantize_fp16(store)


def test_file_size_formula(tmp_path):
    store = _small_store()
    for dtype in ("f16", "f32"):
        path = tmp_path / f"m.{dtype}"
        save_weights(store, path, dtype=dtype)
        assert path.stat().st_size == model_file_size(store.shapes(), dtype)


def test_full_model_f16_size_near_claim(tmp_path, spec, store):
    path = tmp_path / "full.tssd"
    save_weights(store, path, dtype="f16")
    size_mb = path.stat().st_size / 1e6
    assert abs(size_mb - 2.3) / 2.3 <= 0.06


@pytest.mark.parametrize("dtype, size, sha256", [
    ("f16", 2_378_674, "90bc0e143763420a7fee6e015bec47aa9d5c9b5bf7b10e3f33ffa9bd2a02e03e"),
    ("f32", 4_754_516, "8885bbcfb995cdacb714e6bace76b3745d428ef7716a69db09b697b7d2f1062e"),
])
def test_full_model_bytes_pinned(tmp_path, spec, dtype, size, sha256):
    path = tmp_path / "seed7.tssd"
    save_weights(init_random(spec, 7), path, dtype)
    raw = path.read_bytes()
    assert len(raw) == size == model_file_size(param_manifest(spec), dtype)
    assert hashlib.sha256(raw).hexdigest() == sha256


@pytest.mark.parametrize("dtype", ["f32", "f16"])
@pytest.mark.parametrize("name, values, why", [
    ("deep", np.zeros((1,) * 33), "rank 33 above 32 for blob 'deep'"),
    ("n" * 70_000, np.zeros(1), r"blob name too long \(70000 bytes\)"),
    ("nan", np.array([1.0, np.nan]), "non-finite value in blob 'nan'"),
    ("wide", np.zeros((2**32, 0)), "does not fit u32 dims"),
], ids=["rank33", "long-name", "nan", "dim-past-u32"])
def test_save_refuses_what_load_rejects_and_leaves_no_file(tmp_path, dtype, name, values, why):
    store = WeightStore([("ok", np.ones(2)), (name, values)])
    path = tmp_path / "m.tssd"
    with pytest.raises(FormatError, match=why):
        save_weights(store, path, dtype)
    assert not path.exists()


def test_save_f32_refuses_inf_and_f16_clamps_it(tmp_path):
    store = WeightStore([("x", np.array([np.inf, -np.inf, 1.0]))])
    with pytest.raises(FormatError, match="non-finite value in blob 'x'"):
        save_weights(store, tmp_path / "m32.tssd", "f32")
    assert not (tmp_path / "m32.tssd").exists()
    with pytest.warns(UserWarning, match="2 value"):
        save_weights(store, tmp_path / "m16.tssd", "f16")
    assert load_weights(tmp_path / "m16.tssd")["x"].tolist() == [65504.0, -65504.0, 1.0]


@pytest.mark.parametrize("dtype", ["f32", "f16"])
@pytest.mark.parametrize("manifest, why", [
    ([("a/w", (1,) * 33)], "rank 33 above 32"),
    ([("n" * 70_000, (1,))], "blob name too long"),
    ([("a/w", (2**32,))], "does not fit u32 dims"),
], ids=["rank33", "long-name", "dim-past-u32"])
def test_model_file_size_refuses_what_save_refuses(manifest, why, dtype):
    with pytest.raises(FormatError, match=why):
        model_file_size(manifest, dtype)


def test_load_bad_magic(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"WHAT" + b"\x00" * 20)
    with pytest.raises(FormatError, match="byte 0"):
        load_weights(path)


def test_load_truncation_reports_offset(tmp_path):
    store = _small_store()
    path = tmp_path / "m.tssd"
    save_weights(store, path, dtype="f32")
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(FormatError, match="truncated"):
        load_weights(path)


def _huge_shape_model(path):
    """One f16 blob 'big' whose four u32 dims multiply past 2**64."""
    path.write_bytes(b"TSSD" + struct.pack("<II", 1, 1) + struct.pack("<H", 3) + b"big"
                     + struct.pack("<BB4I", 16, 4, *(2**32 - 1,) * 4) + b"\x00" * 8)


@pytest.mark.parametrize("cut, why", [
    (6, "truncated header at byte 0"),
    (13, "truncated blob name length at byte 12"),
    (14, "truncated blob name at byte 14"),
    (16, "truncated dtype/rank for blob 'x' at byte 15"),
    (20, "truncated shape for blob 'x' at byte 17"),
    (24, "truncated payload for blob 'x' at byte 21"),
])
def test_load_truncation_names_the_field_and_its_offset(tmp_path, cut, why):
    path = tmp_path / "m.tssd"
    save_weights(WeightStore([("x", np.ones(1))]), path, dtype="f32")
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}: {why}$"):
        load_weights(path)


def test_load_duplicate_blob_name_is_format_error(tmp_path):
    record = struct.pack("<H", 1) + b"x" + struct.pack("<BBIf", 32, 1, 1, 1.0)
    path = tmp_path / "dup.tssd"
    path.write_bytes(b"TSSD" + struct.pack("<II", 1, 2) + record + record)
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}: duplicate blob name 'x' at byte 25$"):
        load_weights(path)


def test_save_and_size_refuse_a_name_utf8_cannot_encode(tmp_path):
    path = tmp_path / "m.tssd"
    with pytest.raises(FormatError, match=re.escape(r"blob name 'a\udc80' is not UTF-8")):
        save_weights(WeightStore([("a\udc80", np.ones(1))]), path)
    assert not path.exists()
    with pytest.raises(FormatError, match="is not UTF-8"):
        model_file_size([("a\udc80", (1,))], "f32")


def test_load_non_utf8_blob_name_is_format_error(tmp_path):
    """Two different invalid names are refused at the first, not merged into
    one replacement character and reported as a duplicate."""
    records = [struct.pack("<H", 1) + name + struct.pack("<BBIf", 32, 1, 1, 1.0)
               for name in (b"\xff", b"\xfe")]
    path = tmp_path / "bad-name.tssd"
    path.write_bytes(b"TSSD" + struct.pack("<II", 1, 2) + b"".join(records))
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}: blob name is not UTF-8 at byte 14$"):
        load_weights(path)


def test_load_empty_blob_too_large_for_numpy_is_format_error(tmp_path):
    path = tmp_path / "wide.tssd"
    path.write_bytes(b"TSSD" + struct.pack("<II", 1, 1) + struct.pack("<H", 3) + b"big"
                     + struct.pack("<BB4I", 16, 4, 0, *(2**32 - 1,) * 3))
    with pytest.raises(FormatError, match=r"shape \(0, 4294967295, 4294967295, 4294967295\) "
                                          "too large for blob 'big' at byte 19"):
        load_weights(path)


def test_load_huge_shape_is_truncated_payload(tmp_path):
    path = tmp_path / "huge.tssd"
    _huge_shape_model(path)
    with pytest.raises(FormatError, match="truncated payload for blob 'big' at byte 35"):
        load_weights(path)


@pytest.mark.parametrize("rank", [33, 65])
def test_load_rank_above_limit_is_format_error(tmp_path, rank):
    path = tmp_path / "deep.tssd"
    path.write_bytes(b"TSSD" + struct.pack("<II", 1, 1) + struct.pack("<H", 1) + b"x"
                     + struct.pack(f"<BB{rank}I", 32, rank, 0, *(1,) * (rank - 1)))
    with pytest.raises(FormatError, match=f"rank {rank} above 32 for blob 'x' at byte 16"):
        load_weights(path)


def test_load_unknown_dtype_tag(tmp_path):
    store = WeightStore([("x", np.ones(2, dtype=np.float32))])
    path = tmp_path / "m.tssd"
    save_weights(store, path, dtype="f32")
    raw = bytearray(path.read_bytes())
    # dtype tag sits right after the 2-byte name length and 1-byte name
    raw[12 + 2 + 1] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="dtype tag"):
        load_weights(path)


def test_flipped_payload_byte_stays_framed(tmp_path):
    store = _small_store()
    path = tmp_path / "m.tssd"
    save_weights(store, path, dtype="f32")
    raw = bytearray(path.read_bytes())
    raw[-2] ^= 0xFF  # inside the last blob's payload
    path.write_bytes(bytes(raw))
    loaded = load_weights(path)
    assert loaded.shapes() == store.shapes()
    assert np.array_equal(loaded["a/w"], store["a/w"])
    assert np.array_equal(loaded["a/b"], store["a/b"])
    assert not np.array_equal(loaded["b/w"], store["b/w"])


@pytest.mark.parametrize("half", [b"\x00\x7e", b"\x00\x7c", b"\x00\xfc"])  # NaN, +inf, -inf
def test_non_finite_f16_weight_is_rejected(tmp_path, store, half):
    path = tmp_path / "m16.tssd"
    save_weights(store, path, dtype="f16")
    raw = bytearray(path.read_bytes())
    # third conv1/w value: after the name, dtype tag, rank, four dims and two values
    offset = raw.index(b"conv1/w") + len(b"conv1/w") + 2 + 4 * 4 + 2 * 2
    raw[offset:offset + 2] = half
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"non-finite value in blob 'conv1/w' at byte {offset}"):
        load_weights(path)


def test_manifest_validation(tmp_path):
    store = _small_store()
    path = tmp_path / "m.tssd"
    save_weights(store, path, dtype="f32")
    good = store.shapes()
    assert load_weights(path, manifest=good) == store

    wrong_shape = [("a/w", (3, 2, 3, 3)), ("a/b", (4,)), ("b/w", (1, 3, 1, 1))]
    with pytest.raises(ShapeError, match="a/b"):
        load_weights(path, manifest=wrong_shape)

    missing = good + [("c/w", (1, 1, 1, 1))]
    with pytest.raises(MissingBlobError, match="c/w"):
        load_weights(path, manifest=missing)

    with pytest.raises(ShapeError, match="unexpected blob"):
        load_weights(path, manifest=good[:2])

    reordered = [good[1], good[0], good[2]]
    with pytest.raises(ShapeError, match="order"):
        load_weights(path, manifest=reordered)


def test_init_random_deterministic(spec):
    a = init_random(spec, 42)
    b = init_random(spec, 42)
    assert a == b
    c = init_random(spec, 43)
    assert a != c


def test_init_random_matches_manifest(spec, store):
    manifest = param_manifest(spec)
    assert store.shapes() == [(name, tuple(shape)) for name, shape in manifest]
    for name, arr in store.items():
        if name.endswith("/b"):
            assert not arr.any()
        else:
            assert arr.std() > 0


def test_store_rejects_duplicates_and_reports_missing():
    store = WeightStore([("x", np.ones(1))])
    with pytest.raises(ShapeError, match="duplicate"):
        store.add("x", np.ones(1))
    with pytest.raises(MissingBlobError, match="ghost"):
        store["ghost"]


def _field_ends(store, payload_itemsize):
    """End offset of every field of a TSSD file of this store: the file
    head, then each record's name length, name, dtype/rank, dims and payload."""
    ends = [12]
    for name, arr in store.items():
        for size in (2, len(name.encode()), 2, 4 * arr.ndim, payload_itemsize * arr.size):
            ends.append(ends[-1] + size)
    return ends


def test_every_load_error_of_the_seed7_model_names_a_byte(tmp_path, spec):
    """Cuts and single-byte edits of the seed-7 f16 model either load or
    raise a FormatError that ends 'at byte N' with N inside the file read.

    Cuts: every length up to the end of the first record, then, for every
    later field, a cut at its start and one byte short of its end. Each cut
    inside one field fails the same length check, so these reach every
    truncation message at every field. Edits: 2,000 seeded single bytes,
    half in the file and record heads (under 0.2% of the file), half
    anywhere."""
    store = init_random(spec, 7)
    path = tmp_path / "seed7.tssd"
    save_weights(store, path, "f16")
    raw = path.read_bytes()
    ends = _field_ends(store, 2)
    assert ends[-1] == len(raw)

    def check(size):
        try:
            load_weights(path)
        except FormatError as err:
            m = re.search(r" at byte (\d+)$", str(err))
            assert m and int(m.group(1)) <= size, str(err)

    cuts = set(range(ends[5] + 1))
    cuts.update(e for end in ends[6:] for e in (end - 1, end))
    for cut in sorted(cuts - {len(raw)}, reverse=True):  # shrinking in place needs no rewrite
        with open(path, "r+b") as f:
            f.truncate(cut)
        check(cut)

    path.write_bytes(raw)
    heads = np.concatenate([np.arange(12)] + [np.arange(start, end) for start, end
                                              in zip(ends[0:-1:5], ends[4::5])])
    rng = np.random.default_rng(7)
    offsets = np.concatenate([rng.choice(heads, 1000), rng.integers(0, len(raw), 1000)])
    for at, flip in zip(offsets, rng.integers(1, 256, 2000)):
        with open(path, "r+b") as f:
            f.seek(at)
            f.write(bytes([raw[at] ^ flip]))
        check(len(raw))
        with open(path, "r+b") as f:
            f.seek(at)
            f.write(raw[at:at + 1])

import numpy as np
import pytest

from hopqa.serialization import CheckpointError, load_tensors, save_tensors


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_round_trip_is_bit_exact(tmp_path, dtype):
    bits = f"u{np.dtype(dtype).itemsize}"   # compare the raw bit patterns
    rng = np.random.default_rng(0)
    named = {
        "enc.fw.wx_z": rng.standard_normal((5, 3)).astype(dtype),
        "enc.fw.b_z": rng.standard_normal(3).astype(dtype),
        "head.w": rng.standard_normal((2, 2, 4)).astype(dtype),
    }
    prefix = str(tmp_path / "ckpt")
    save_tensors(prefix, named, meta={"step": "17", "loss": "0.25"})
    loaded, meta = load_tensors(prefix)
    assert list(loaded) == list(named)
    for name in named:
        assert loaded[name].shape == named[name].shape
        assert loaded[name].dtype == dtype
        assert np.array_equal(
            loaded[name].view(bits), named[name].view(bits)
        ), f"{name} not bit-exact"
    assert meta == {"step": "17", "loss": "0.25"}


def test_save_load_twice_stable(tmp_path):
    arr = {"w": np.array([[1.5, -2.25]], dtype=np.float32)}
    p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
    save_tensors(p1, arr)
    first, _ = load_tensors(p1)
    save_tensors(p2, first)
    second, _ = load_tensors(p2)
    assert np.array_equal(first["w"].view(np.uint32), second["w"].view(np.uint32))


def test_0d_array_keeps_its_shape(tmp_path):
    save_tensors(str(tmp_path / "c"), {"step_scale": np.float64(2.5), "w": np.float32([[1.0]])})
    loaded, _ = load_tensors(str(tmp_path / "c"))
    assert loaded["step_scale"].shape == () and loaded["step_scale"].dtype == np.float64
    assert loaded["step_scale"] == 2.5 and loaded["w"].shape == (1, 1)


def test_names_and_meta_round_trip_exactly(tmp_path):
    # np.savez's own keywords and the empty string are ordinary names
    named = {"file": np.float32([2.0]), "allow_pickle": np.float32([3.0]), "": np.float32([4.0])}
    meta = {"key with space": "x y\t", "step": "3"}
    save_tensors(str(tmp_path / "c"), named, meta)
    loaded, loaded_meta = load_tensors(str(tmp_path / "c"))
    assert list(loaded) == list(named)
    assert all(np.array_equal(loaded[k], v) for k, v in named.items())
    assert loaded_meta == meta


# The two tests below keep the names they had under the old text manifest, which refused
# these values because a space split a record and a line break started a new one. In the
# archive such a value injects no record: it comes back exactly, and nothing else does.
@pytest.mark.parametrize("value", ["a\nmeta step 99", "a\ntensor x 3 <f4", "a\rb"])
def test_rejects_meta_values_with_line_breaks(tmp_path, value):
    save_tensors(str(tmp_path / "x"), {"w": np.zeros(2, np.float32)}, meta={"note": value})
    loaded, meta = load_tensors(str(tmp_path / "x"))
    assert list(loaded) == ["w"] and meta == {"note": value}


def test_rejects_whitespace_names(tmp_path):
    save_tensors(str(tmp_path / "x"), {"bad name": np.float32([1.0]), "w": np.float32([2.0])})
    loaded, _ = load_tensors(str(tmp_path / "x"))
    assert list(loaded) == ["bad name", "w"] and loaded["bad name"].tolist() == [1.0]


def test_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_tensors(str(tmp_path / "absent"))


def _saved(tmp_path):
    """Path and bytes of a small saved checkpoint, and its array w."""
    w = np.arange(64, dtype=np.float32).reshape(8, 8)
    save_tensors(str(tmp_path / "c"), {"w": w, "b": np.zeros(3)}, {"step": "1"})
    return tmp_path / "c.npz", (tmp_path / "c.npz").read_bytes(), w


@pytest.mark.parametrize("keep", [0, 1, 30, 0.5, -22, -1])
def test_truncated_file_raises_checkpoint_error(tmp_path, keep):
    path, blob, _ = _saved(tmp_path)
    path.write_bytes(blob[:int(keep * len(blob)) if isinstance(keep, float) else keep])
    with pytest.raises(CheckpointError):
        load_tensors(str(tmp_path / "c"))


def test_flipped_byte_inside_an_array_raises_checkpoint_error(tmp_path):
    path, blob, w = _saved(tmp_path)
    at = blob.index(w.tobytes()) + w.nbytes // 2
    path.write_bytes(blob[:at] + bytes([blob[at] ^ 0x01]) + blob[at + 1:])
    with pytest.raises(CheckpointError, match="CRC"):
        load_tensors(str(tmp_path / "c"))


@pytest.mark.parametrize("content", [b"", b"hopqa-checkpoint 2\ntensor w 2 <f4\n", b"PK\x03\x04"],
                         ids=["empty", "old_manifest", "zip_magic_only"])
def test_file_that_is_not_a_zip_raises_checkpoint_error(tmp_path, content):
    (tmp_path / "c.npz").write_bytes(content)
    with pytest.raises(CheckpointError):
        load_tensors(str(tmp_path / "c"))


def test_npy_file_raises_checkpoint_error(tmp_path):
    np.save(tmp_path / "c.npy", np.zeros(3))
    (tmp_path / "c.npy").rename(tmp_path / "c.npz")
    with pytest.raises(CheckpointError, match="not an npz archive"):
        load_tensors(str(tmp_path / "c"))


def _write(tmp_path, *arrays, **entries):
    np.savez(tmp_path / "c.npz", *arrays, **entries)
    return str(tmp_path / "c")


def test_object_array_raises_checkpoint_error(tmp_path):
    prefix = _write(tmp_path, np.array([{"a": 1}], dtype=object),
                    names=np.array(["w"]), meta="{}")
    with pytest.raises(CheckpointError, match="allow_pickle"):
        load_tensors(prefix)


@pytest.mark.parametrize("names, n_arrays, extra", [
    (["w", "w"], 2, {}), (["w"], 2, {}), (["w", "b"], 1, {}), ([], 1, {}), (None, 1, {}),
    ([["w"]], 1, {}), ([1.5], 1, {}), (["w"], 1, {"extra": np.zeros(1)}),
], ids=["repeated", "too_few", "too_many", "empty", "absent", "2d", "float", "extra_entry"])
def test_names_that_do_not_match_the_arrays_raise_checkpoint_error(tmp_path, names, n_arrays,
                                                                   extra):
    arrays = [np.zeros(2, np.float32)] * n_arrays
    entries = {"meta": "{}", **extra}
    if names is not None:
        entries["names"] = np.array(names)
    with pytest.raises(CheckpointError):
        load_tensors(_write(tmp_path, *arrays, **entries))


@pytest.mark.parametrize("dtype", [np.int64, np.bool_, np.complex64, "U3"])
def test_non_float_array_raises_checkpoint_error(tmp_path, dtype):
    arr = np.zeros(3, dtype=dtype)
    with pytest.raises(CheckpointError, match="'w'"):
        save_tensors(str(tmp_path / "s"), {"ok": np.zeros(1), "w": arr})
    assert not (tmp_path / "s.npz").exists()
    with pytest.raises(CheckpointError, match="float"):
        load_tensors(_write(tmp_path, arr, names=np.array(["w"]), meta="{}"))


@pytest.mark.parametrize("meta", ['{"step": 3}', "[]", '"step"', "{", np.array(["{}", "{}"]),
                                  np.float32(1.0)],
                         ids=["int_value", "list", "string", "bad_json", "two_strings", "float"])
def test_meta_that_is_not_a_string_map_raises_checkpoint_error(tmp_path, meta):
    with pytest.raises(CheckpointError):
        load_tensors(_write(tmp_path, np.zeros(2), names=np.array(["w"]), meta=meta))


@pytest.mark.parametrize("name", ["w\0", "\0", 3])
def test_saving_a_name_numpy_cannot_store_raises(tmp_path, name):
    # a numpy string array drops a final NUL, so "w\0" would load as "w"
    with pytest.raises(CheckpointError, match="without NUL"):
        save_tensors(str(tmp_path / "s"), {name: np.zeros(1)})
    assert not (tmp_path / "s.npz").exists()


def test_saving_meta_that_is_not_a_string_map_raises(tmp_path):
    with pytest.raises(CheckpointError, match="meta"):
        save_tensors(str(tmp_path / "s"), {"w": np.zeros(1)}, meta={"step": 3})
    assert not (tmp_path / "s.npz").exists()

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


def test_rejects_whitespace_names(tmp_path):
    with pytest.raises(CheckpointError):
        save_tensors(str(tmp_path / "x"), {"bad name": np.zeros(2, np.float32)})


def test_detects_truncated_blob(tmp_path):
    prefix = str(tmp_path / "t")
    save_tensors(prefix, {"w": np.zeros((4, 4), np.float32)})
    with open(prefix + ".bin", "r+b") as fh:
        fh.truncate(10)
    with pytest.raises(CheckpointError, match="truncated"):
        load_tensors(prefix)


def test_reads_format_1_manifest_as_float32(tmp_path):
    # format 1 wrote no dtype column; every tensor was little-endian float32
    (tmp_path / "old.manifest").write_text("hopqa-checkpoint 1\ntensor w 2x1\n")
    (tmp_path / "old.bin").write_bytes(np.array([1.5, -2.0], dtype="<f4").tobytes())
    loaded, _ = load_tensors(str(tmp_path / "old"))
    assert loaded["w"].dtype == np.float32
    assert loaded["w"].ravel().tolist() == [1.5, -2.0]


@pytest.mark.parametrize("shape", ["2xq", "2x", "-2x-3"])
def test_malformed_shape_raises_checkpoint_error_naming_the_tensor(tmp_path, shape):
    (tmp_path / "bad.manifest").write_text(f"hopqa-checkpoint 2\ntensor head.w {shape} <f4\n")
    (tmp_path / "bad.bin").write_bytes(np.zeros(6, dtype="<f4").tobytes())
    with pytest.raises(CheckpointError, match=f"'head.w' has malformed shape '{shape}'"):
        load_tensors(str(tmp_path / "bad"))

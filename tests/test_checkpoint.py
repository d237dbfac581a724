"""TCV1 checkpoint container round-trips and corruption handling."""

import json
import struct

import numpy as np
import pytest

from trackcentre.checkpoint import CheckpointError, load_checkpoint, save_checkpoint


def test_roundtrip(tmp_path, rng):
    tensors = {
        "a": rng.standard_normal((3, 4)),
        "b": rng.standard_normal(5),
        "c": np.array(2.5),
    }
    meta = {"kind": "encoder", "config": {"model_dim": 4}}
    path = tmp_path / "m.tcv1"
    save_checkpoint(path, meta, tensors)
    meta2, back = load_checkpoint(path)
    assert meta2 == meta
    assert back.keys() == tensors.keys()
    for name in tensors:
        assert np.array_equal(back[name], tensors[name])
        assert back[name].shape == tensors[name].shape


def test_deterministic_bytes(tmp_path, rng):
    tensors = {"w": rng.standard_normal((2, 2))}
    save_checkpoint(tmp_path / "a", {"k": 1}, tensors)
    save_checkpoint(tmp_path / "b", {"k": 1}, tensors)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_bad_magic(tmp_path):
    (tmp_path / "x").write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(tmp_path / "x")


def test_truncated_payload(tmp_path, rng):
    path = tmp_path / "t"
    save_checkpoint(path, {}, {"w": rng.standard_normal(4)})
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_trailing_bytes(tmp_path, rng):
    path = tmp_path / "t"
    save_checkpoint(path, {}, {"w": rng.standard_normal(4)})
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def header_bytes(header) -> bytes:
    body = json.dumps(header).encode("utf-8")
    return b"TCV1" + struct.pack("<Q", len(body)) + body


@pytest.mark.parametrize("data, message", [
    (b"TCV1\x05\x00\x00", "truncated header length"),
    (header_bytes({"meta": {}}), "lacks its meta or tensor index"),
    (header_bytes({"tensors": []}), "lacks its meta or tensor index"),
    (header_bytes([1, 2]), "lacks its meta or tensor index"),
    (header_bytes({"meta": {}, "tensors": [{"name": "w"}]}), "malformed tensor entry"),
    (header_bytes({"meta": {}, "tensors": [{"shape": [2]}]}), "malformed tensor entry"),
    (header_bytes({"meta": {}, "tensors": [{"name": "w", "shape": [None]}]}),
     "malformed tensor entry"),
    (header_bytes({"meta": {}, "tensors": [{"name": "w", "shape": [2, -3]}]}),
     "negative shape"),
])
def test_malformed_header_raises_checkpoint_error(tmp_path, data, message):
    """A malformed file raises CheckpointError naming the file, never a
    bare struct.error, KeyError, TypeError or ValueError."""
    path = tmp_path / "bad.tcv1"
    path.write_bytes(data)
    with pytest.raises(CheckpointError, match=message) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)

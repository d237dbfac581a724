"""TCV1 checkpoint container round-trips and corruption handling."""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
    # np.prod of these dimensions wraps to 0 in int64
    (header_bytes({"meta": {}, "tensors": [{"name": "w", "shape": [2**32, 2**32]}]}),
     "truncated tensor payload"),
    (header_bytes({"meta": {}, "tensors": [{"name": "w", "shape": [0, 2**63]}]}),
     "unsupported shape"),
    (header_bytes({"meta": {}, "tensors": [{"name": "w", "shape": [1] * 65}]})
     + b"\x00" * 8, "unsupported shape"),
    (header_bytes({"meta": {}, "tensors": [{"name": "w", "shape": "12"}]}) + b"\x00" * 16,
     "malformed tensor entry"),
    (header_bytes({"meta": {}, "tensors": [{"name": "w", "shape": [2.0]}]}) + b"\x00" * 16,
     "malformed tensor entry"),
    (header_bytes({"meta": {}, "tensors": [{"name": "w", "shape": [True]}]}) + b"\x00" * 8,
     "malformed tensor entry"),
    (header_bytes({"meta": {}, "tensors": [{"name": 7, "shape": [1]}]}) + b"\x00" * 8,
     "malformed tensor entry"),
    (header_bytes({"meta": {}, "tensors": ["w"]}), "malformed tensor entry"),
    (header_bytes({"meta": {}, "tensors": [{"name": "w", "shape": [1]}] * 2})
     + b"\x00" * 16, "duplicate tensor name 'w'"),
    (header_bytes({"meta": {}, "tensors": []})[:-1] + b"\xff", "corrupt header"),
])
def test_malformed_header_raises_checkpoint_error(tmp_path, data, message):
    """A malformed file raises CheckpointError naming the file, never a
    bare struct.error, KeyError, TypeError or ValueError."""
    path = tmp_path / "bad.tcv1"
    path.write_bytes(data)
    with pytest.raises(CheckpointError, match=message) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def _json_values():
    scalars = (st.none() | st.booleans() | st.integers(-(2**70), 2**70)
               | st.floats(allow_nan=False) | st.text(max_size=4))
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    )


@st.composite
def _damaged_checkpoints(draw):
    """A valid TCV1 file, then one of: a truncation, overwritten bytes, or
    a tensor-index field replaced by an arbitrary JSON value."""
    tensors = {"a": np.arange(6.0).reshape(2, 3), "b": np.array(1.5), "c": np.zeros(0)}
    names = sorted(tensors)
    header = {"meta": {"kind": "encoder"},
              "tensors": [{"name": n, "shape": list(tensors[n].shape)} for n in names]}
    payload = b"".join(tensors[n].astype("<f8").tobytes() for n in names)
    kind = draw(st.sampled_from(["truncate", "overwrite", "index"]))
    if kind == "index":
        entry = header["tensors"][draw(st.integers(0, len(names) - 1))]
        entry[draw(st.sampled_from(["name", "shape"]))] = draw(_json_values())
    data = bytearray(header_bytes(header) + payload)
    if kind == "truncate":
        del data[draw(st.integers(0, len(data) - 1)):]
    elif kind == "overwrite":
        for _ in range(draw(st.integers(1, 4))):
            data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_damaged_checkpoints())
def test_damaged_file_loads_or_raises_checkpoint_error(tmp_path, data):
    """Truncated and mutated files either load as float64 arrays or raise
    CheckpointError naming the file; no other exception escapes."""
    path = tmp_path / "damaged.tcv1"
    path.write_bytes(data)
    try:
        _, tensors = load_checkpoint(path)
    except CheckpointError as exc:
        assert str(path) in str(exc)
    else:
        for arr in tensors.values():
            assert isinstance(arr, np.ndarray) and arr.dtype == np.float64

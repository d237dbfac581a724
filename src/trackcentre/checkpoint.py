"""Self-describing checkpoint container: magic "TCV1", JSON header, raw
float64 tensor payload.

Header layout: 4-byte magic, 8-byte little-endian header length, UTF-8
JSON header, then each tensor's data in header order as little-endian
float64.  The header carries an arbitrary metadata dict (model kind,
config) plus the name/shape index of the tensors.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .trackio import _atomic_open

MAGIC = b"TCV1"


class CheckpointError(Exception):
    pass


def save_checkpoint(path, meta: dict, tensors: dict[str, np.ndarray]) -> None:
    names = sorted(tensors)
    header = {
        "meta": meta,
        "tensors": [{"name": n, "shape": list(tensors[n].shape)} for n in names],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with _atomic_open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(header_bytes)))
        f.write(header_bytes)
        for n in names:
            f.write(np.ascontiguousarray(tensors[n], dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    data = Path(path).read_bytes()
    if data[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a TCV1 checkpoint")
    if len(data) < 12:
        raise CheckpointError(f"{path}: truncated header length")
    (hlen,) = struct.unpack("<Q", data[4:12])
    try:
        header = json.loads(data[12 : 12 + hlen].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # also over-long ints, deep nesting
        raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
    if not (isinstance(header, dict) and "meta" in header
            and isinstance(header.get("tensors"), list)):
        raise CheckpointError(f"{path}: header lacks its meta or tensor index")
    offset = 12 + hlen
    tensors = {}
    for entry in header["tensors"]:
        fields = entry if isinstance(entry, dict) else {}
        name, shape = fields.get("name"), fields.get("shape")
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(type(n) is int for n in shape)):
            raise CheckpointError(f"{path}: malformed tensor entry {entry!r}")
        if min(shape, default=0) < 0:
            raise CheckpointError(f"{path}: negative shape in tensor entry {entry!r}")
        if name in tensors:
            raise CheckpointError(f"{path}: duplicate tensor name {name!r}")
        end = offset + 8 * math.prod(shape)  # Python ints: no wrap-around
        if end > len(data):
            raise CheckpointError(f"{path}: truncated tensor payload")
        arr = np.frombuffer(data[offset:end], dtype="<f8").astype(np.float64)
        try:
            tensors[name] = arr.reshape(shape)
        except ValueError as exc:  # too many or too large dimensions
            raise CheckpointError(
                f"{path}: unsupported shape in tensor entry {entry!r}"
            ) from exc
        offset = end
    if offset != len(data):
        raise CheckpointError(f"{path}: trailing bytes after tensor payload")
    return header["meta"], tensors

"""Parameter checkpoint container.

Layout: 8-byte magic, little-endian uint64 manifest length, UTF-8 JSON
manifest (tensor names, shapes, byte offsets, config, config hash), then
the arrays concatenated as little-endian float32.  Arrays are stored in
sorted name order so identical parameter sets serialize byte-identically.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from ..errors import CheckpointError
from .tensor import Tensor

MAGIC = b"SZCK0001"


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def checkpoint_bytes(params: dict[str, Tensor | np.ndarray], config: dict) -> bytes:
    tensors = []
    payload = bytearray()
    for name in sorted(params):
        value = params[name]
        arr = np.asarray(value.data if isinstance(value, Tensor) else value)
        raw = arr.astype("<f4").tobytes()
        tensors.append(
            {"name": name, "shape": list(arr.shape), "offset": len(payload)}
        )
        payload += raw
    manifest = json.dumps(
        {
            "config": config,
            "config_hash": config_hash(config),
            "tensors": tensors,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    return MAGIC + struct.pack("<Q", len(manifest)) + manifest + bytes(payload)


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` through a temp file and a rename, so ``path`` holds
    either its old bytes or all of the new ones, and no temp file is left."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(
    path: str | Path, params: dict[str, Tensor | np.ndarray], config: dict
) -> None:
    write_atomic(path, checkpoint_bytes(params, config))


def parse_checkpoint(data: bytes) -> tuple[dict[str, np.ndarray], dict]:
    """Decode checkpoint bytes into (float64 arrays by name, config)."""
    if len(data) < len(MAGIC) + 8:
        raise CheckpointError(f"checkpoint truncated at {len(data)} bytes")
    if data[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"bad magic {data[:len(MAGIC)]!r}")
    (manifest_len,) = struct.unpack_from("<Q", data, len(MAGIC))
    manifest_start = len(MAGIC) + 8
    payload_start = manifest_start + manifest_len
    if payload_start > len(data):
        raise CheckpointError("manifest extends past end of file")
    try:
        manifest = json.loads(data[manifest_start:payload_start])
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"manifest is not valid JSON: {exc}") from None

    config = manifest["config"]
    if manifest.get("config_hash") != config_hash(config):
        raise CheckpointError("config hash does not match stored config")

    payload = data[payload_start:]
    params: dict[str, np.ndarray] = {}
    for entry in manifest["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        end = entry["offset"] + 4 * count
        if end > len(payload):
            raise CheckpointError(
                f"tensor {entry['name']!r} extends past end of payload"
            )
        arr = np.frombuffer(
            payload, dtype="<f4", count=count, offset=entry["offset"]
        )
        params[entry["name"]] = arr.reshape(shape).astype(np.float64)
    return params, config


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    return parse_checkpoint(Path(path).read_bytes())

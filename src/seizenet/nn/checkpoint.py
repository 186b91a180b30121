"""Parameter checkpoint container.

Layout: 8-byte magic, little-endian uint64 manifest length, UTF-8 JSON
manifest (tensor names, shapes, byte offsets, config, config hash, and
the sha256 of the payload), then the arrays concatenated as little-endian
float32.  Arrays are stored in sorted name order so identical parameter
sets serialize byte-identically.  Loading checks both hashes and that the
tensors tile the payload, and returns float32 arrays, so a float32 model
round-trips exactly.  The module also holds the file primitives every
stage shares: the atomic write and the JSON reader and writer.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from ..errors import CheckpointError, ConfigError
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
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
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


def json_text(data) -> str:
    """The one layout of every JSON file the package writes."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def read_json(path: str | Path, name: str | None = None):
    """The decoded UTF-8 JSON file ``path``, else ConfigError naming it as
    ``name`` (the path when not given)."""
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError
        raise ConfigError(f"{name or path} is not valid JSON: {exc}") from None


def save_checkpoint(
    path: str | Path, params: dict[str, Tensor | np.ndarray], config: dict
) -> None:
    write_atomic(path, checkpoint_bytes(params, config))


def parse_checkpoint(data: bytes) -> tuple[dict[str, np.ndarray], dict]:
    """Decode checkpoint bytes into (float32 arrays by name, config)."""
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
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError
        raise CheckpointError(f"manifest is not valid JSON: {exc}") from None
    if not (
        isinstance(manifest, dict)
        and isinstance(manifest.get("config"), dict)
        and isinstance(manifest.get("tensors"), list)
    ):
        raise CheckpointError("manifest needs a 'config' object and a 'tensors' list")

    config = manifest["config"]
    if manifest.get("config_hash") != config_hash(config):
        raise CheckpointError("config hash does not match stored config")

    payload = data[payload_start:]
    if manifest.get("payload_sha256") != hashlib.sha256(payload).hexdigest():
        raise CheckpointError("payload sha256 does not match the manifest")
    params: dict[str, np.ndarray] = {}
    end = 0  # the tensors tile the payload in manifest order, as written
    for entry in manifest["tensors"]:
        name, shape, offset = _tensor_entry(entry)
        if offset != end:
            raise CheckpointError(f"tensor {name!r} starts at byte {offset}, not {end}")
        count = math.prod(shape)  # a Python int: no overflow
        end = offset + 4 * count
        if end > len(payload):
            raise CheckpointError(f"tensor {name!r} extends past end of payload")
        arr = np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
        # astype copies: the arrays are writable and do not pin ``data``
        params[name] = arr.reshape(shape).astype(np.float32)
    if end != len(payload):
        raise CheckpointError(f"tensors end at byte {end}, payload at {len(payload)}")
    return params, config


def _tensor_entry(entry) -> tuple[str, list[int], int]:
    """(name, shape, offset) of one manifest tensor entry, else CheckpointError."""

    def size(v):
        return isinstance(v, int) and not isinstance(v, bool) and v >= 0

    if not (
        isinstance(entry, dict)
        and isinstance(entry.get("name"), str)
        and isinstance(entry.get("shape"), list)
        and all(size(v) for v in entry["shape"])
        and size(entry.get("offset"))
    ):
        raise CheckpointError(f"bad tensor entry in manifest: {entry!r}")
    return entry["name"], entry["shape"], entry["offset"]


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    return parse_checkpoint(Path(path).read_bytes())

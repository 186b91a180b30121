"""Parameter checkpoint container.

Layout: 8-byte magic, the 32-byte sha256 of every byte after it,
little-endian uint64 manifest length, UTF-8 JSON manifest
``{"config": ..., "tensors": [[name, shape], ...]}``, then the arrays
concatenated as little-endian float32.  Tensors are stored in sorted name
order so identical parameter sets serialize byte-identically.  Loading
checks the magic, then the digest, so every byte is verified, then that
the names strictly increase and the shapes tile the payload, and returns
float32 arrays, so a float32 model round-trips exactly.  The module also
holds the file primitives every stage shares: the atomic write and the
JSON reader and writer.
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

MAGIC = b"SZCK0002"
HEADER = len(MAGIC) + 32  # the magic and the sha256 of every byte after it


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def checkpoint_bytes(params: dict[str, Tensor | np.ndarray], config: dict) -> bytes:
    tensors = []
    payload = bytearray()
    for name in sorted(params):
        value = params[name]
        arr = np.asarray(value.data if isinstance(value, Tensor) else value)
        tensors.append([name, list(arr.shape)])
        payload += arr.astype("<f4").tobytes()
    manifest = json.dumps(
        {"config": config, "tensors": tensors}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    body = struct.pack("<Q", len(manifest)) + manifest + bytes(payload)
    return MAGIC + hashlib.sha256(body).digest() + body


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
    if len(data) < HEADER + 8:
        raise CheckpointError(f"checkpoint truncated at {len(data)} bytes")
    if data[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"bad magic {data[:len(MAGIC)]!r}")
    body = memoryview(data)[HEADER:]
    if hashlib.sha256(body).digest() != data[len(MAGIC) : HEADER]:
        raise CheckpointError("checkpoint sha256 does not match its bytes")
    (manifest_len,) = struct.unpack_from("<Q", body)
    if 8 + manifest_len > len(body):
        raise CheckpointError("manifest extends past end of file")
    try:
        manifest = json.loads(bytes(body[8 : 8 + manifest_len]))
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError
        raise CheckpointError(f"manifest is not valid JSON: {exc}") from None
    if not (
        isinstance(manifest, dict)
        and isinstance(manifest.get("config"), dict)
        and isinstance(manifest.get("tensors"), list)
    ):
        raise CheckpointError("manifest needs a 'config' object and a 'tensors' list")

    payload = body[8 + manifest_len :]
    params: dict[str, np.ndarray] = {}
    end = 0  # the tensors tile the payload in name order, as written
    for entry in manifest["tensors"]:
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and isinstance(entry[0], str)
            and isinstance(entry[1], list)
            and all(type(v) is int and v >= 0 for v in entry[1])  # not a bool
        ):
            raise CheckpointError(f"bad tensor entry in manifest: {entry!r}")
        name, shape = entry
        if params and name <= next(reversed(params)):
            raise CheckpointError(f"tensor {name!r} breaks the sorted name order")
        count = math.prod(shape)  # a Python int: no overflow
        if end + 4 * count > len(payload):
            raise CheckpointError(f"tensor {name!r} extends past end of payload")
        arr = np.frombuffer(payload, dtype="<f4", count=count, offset=end)
        # astype copies: the arrays are writable and do not pin ``data``
        params[name] = arr.reshape(shape).astype(np.float32)
        end += 4 * count
    if end != len(payload):
        raise CheckpointError(f"tensors end at byte {end}, payload at {len(payload)}")
    return params, manifest["config"]


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    return parse_checkpoint(Path(path).read_bytes())

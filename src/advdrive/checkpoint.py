"""Versioned binary checkpoint container.

Layout (little-endian):

    bytes 0..7    magic ``ADRVCKP1``
    bytes 8..11   u32 format version (currently 1)
    bytes 12..15  u32 header length H
    bytes 16..16+H JSON header: role, reward_kind, net config, counters,
                  kl_coef, and an ordered array directory (name/dtype/shape)
    payload       raw C-order array bytes in directory order
    last 32 bytes SHA-256 over everything before them

Writes are atomic (temp file + rename). Loads verify magic, version,
length, and checksum before touching any array.
"""
from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CheckpointError,
    ChecksumMismatchError,
    TruncatedCheckpointError,
    VersionMismatchError,
)
from .net import AdamState, NetConfig, NetworkParams

MAGIC = b"ADRVCKP1"
FORMAT_VERSION = 1
_DIGEST_SIZE = 32


@dataclass
class Checkpoint:
    role: str
    reward_kind: str
    params: NetworkParams
    adam: AdamState | None = None
    kl_coef: float = 0.3
    counters: dict = field(default_factory=dict)

    @property
    def net_config(self) -> NetConfig:
        return self.params.config


def params_checksum(params: NetworkParams) -> str:
    """Content hash of the parameter arrays plus their architecture."""
    h = hashlib.sha256()
    h.update(json.dumps(params.config.to_dict(), sort_keys=True).encode())
    for name, _ in params.config.param_layout():
        h.update(name.encode())
        h.update(np.ascontiguousarray(params.arrays[name], dtype=np.float64))
    return h.hexdigest()


def _ordered_arrays(ckpt: Checkpoint) -> list[tuple[str, np.ndarray]]:
    out = []
    for name, _ in ckpt.params.config.param_layout():
        out.append((f"params/{name}", ckpt.params.arrays[name]))
    if ckpt.adam is not None:
        for name, _ in ckpt.params.config.param_layout():
            out.append((f"adam/m/{name}", ckpt.adam.m[name]))
        for name, _ in ckpt.params.config.param_layout():
            out.append((f"adam/v/{name}", ckpt.adam.v[name]))
    return out


def save_checkpoint(path, ckpt: Checkpoint) -> str:
    """Write atomically; returns the content checksum of the saved params."""
    arrays = _ordered_arrays(ckpt)
    directory = [
        {"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape)}
        for name, arr in arrays
    ]
    header = {
        "role": ckpt.role,
        "reward_kind": ckpt.reward_kind,
        "net_config": ckpt.params.config.to_dict(),
        "counters": dict(ckpt.counters),
        "kl_coef": ckpt.kl_coef,
        "has_adam": ckpt.adam is not None,
        "adam_step": None if ckpt.adam is None else ckpt.adam.step,
        "params_checksum": params_checksum(ckpt.params),
        "arrays": directory,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()

    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    digest = hashlib.sha256()
    with open(tmp, "wb") as fh:
        for piece in (
            MAGIC,
            struct.pack("<I", FORMAT_VERSION),
            struct.pack("<I", len(header_bytes)),
            header_bytes,
            *(np.ascontiguousarray(arr) for _, arr in arrays),
        ):
            digest.update(piece)
            fh.write(piece)
        fh.write(digest.digest())
    os.replace(tmp, path)
    return header["params_checksum"]


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint '{path}': {exc}") from exc
    if len(raw) < len(MAGIC) + 8 + _DIGEST_SIZE:
        raise TruncatedCheckpointError(f"checkpoint too short: {len(raw)} bytes")
    if raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError("bad magic: not a checkpoint file")
    (version,) = struct.unpack_from("<I", raw, len(MAGIC))
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"format version {version}, expected {FORMAT_VERSION}")
    (header_len,) = struct.unpack_from("<I", raw, len(MAGIC) + 4)
    header_start = len(MAGIC) + 8
    payload_start = header_start + header_len
    if payload_start + _DIGEST_SIZE > len(raw):
        raise TruncatedCheckpointError("checkpoint header exceeds file size")
    try:
        header = json.loads(raw[header_start:payload_start].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable header: {exc}") from exc

    expected_payload = sum(
        int(np.prod(entry["shape"])) * np.dtype(entry["dtype"]).itemsize
        for entry in header["arrays"]
    )
    expected_total = payload_start + expected_payload + _DIGEST_SIZE
    if len(raw) < expected_total:
        raise TruncatedCheckpointError(
            f"expected {expected_total} bytes, file has {len(raw)}"
        )
    if len(raw) > expected_total:
        raise CheckpointError(f"trailing bytes: expected {expected_total}, got {len(raw)}")
    body, digest = raw[:-_DIGEST_SIZE], raw[-_DIGEST_SIZE:]
    if hashlib.sha256(body).digest() != digest:
        raise ChecksumMismatchError("checkpoint checksum does not match content")

    config = NetConfig.from_dict(header["net_config"])
    offset = payload_start
    loaded: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        dtype = np.dtype(entry["dtype"])
        shape = tuple(int(s) for s in entry["shape"])
        nbytes = int(np.prod(shape)) * dtype.itemsize
        arr = np.frombuffer(raw, dtype=dtype, count=int(np.prod(shape)), offset=offset)
        loaded[entry["name"]] = arr.reshape(shape).copy()
        offset += nbytes

    expected_layout = dict(config.param_layout())
    params_arrays = {}
    for name, shape in expected_layout.items():
        key = f"params/{name}"
        if key not in loaded:
            raise CheckpointError(f"missing array '{key}'")
        if loaded[key].shape != shape:
            raise CheckpointError(
                f"shape mismatch for '{key}': file {loaded[key].shape}, net {shape}"
            )
        params_arrays[name] = loaded[key]
    params = NetworkParams(config=config, arrays=params_arrays)

    adam = None
    if header.get("has_adam"):
        adam = AdamState(
            m={name: loaded[f"adam/m/{name}"] for name in expected_layout},
            v={name: loaded[f"adam/v/{name}"] for name in expected_layout},
            step=int(header["adam_step"]),
        )
    return Checkpoint(
        role=header["role"],
        reward_kind=header["reward_kind"],
        params=params,
        adam=adam,
        kl_coef=float(header["kl_coef"]),
        counters=dict(header.get("counters", {})),
    )

"""Versioned binary checkpoint container.

Layout (little-endian):

    bytes 0..7    magic ``ADRVCKP1``
    bytes 8..11   u32 format version (currently 1)
    bytes 12..15  u32 header length H
    bytes 16..16+H JSON header: role, reward_kind, net config, counters,
                  kl_coef, and an ordered array directory (name/dtype/shape)
    payload       raw C-order array bytes in directory order
    last 32 bytes SHA-256 over everything before them

Writes are atomic (temp file + rename). Saves and loads stream the file
array by array under an incremental SHA-256, so neither holds a second copy
of the payload. Loads verify magic, version, length, and checksum before
returning any array, and return none unless every parameter and Adam array
is float64 of the shape the net's ``param_layout`` gives it.
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
# What a policy has been trained on so far; a key a file lacks loads as 0.
COUNTERS = ("episodes", "env_steps", "updates")


@dataclass
class Checkpoint:
    """A policy, in memory as in its file: the phases train and freeze these."""

    role: str
    reward_kind: str
    params: NetworkParams
    adam: AdamState | None = None
    kl_coef: float = 0.3
    counters: dict = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0))

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


def _read_verified(fh, size: int) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and arrays of an open checkpoint file of `size` bytes, each
    array read into its own buffer; raises before returning any of them
    unless every check, the checksum last, passes."""
    if size < len(MAGIC) + 8 + _DIGEST_SIZE:
        raise TruncatedCheckpointError(f"checkpoint too short: {size} bytes")
    digest = hashlib.sha256()

    def read(n: int) -> bytes:
        data = fh.read(n)
        if len(data) != n:
            raise TruncatedCheckpointError(f"checkpoint shrank to {fh.tell()} bytes while reading")
        digest.update(data)
        return data

    preamble = read(len(MAGIC) + 8)
    if preamble[: len(MAGIC)] != MAGIC:
        raise CheckpointError("bad magic: not a checkpoint file")
    version, header_len = struct.unpack_from("<II", preamble, len(MAGIC))
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"format version {version}, expected {FORMAT_VERSION}")
    payload_start = len(preamble) + header_len
    if payload_start + _DIGEST_SIZE > size:
        raise TruncatedCheckpointError("checkpoint header exceeds file size")
    try:
        header = json.loads(read(header_len).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable header: {exc}") from exc

    sizes = [
        int(np.prod(entry["shape"])) * np.dtype(entry["dtype"]).itemsize
        for entry in header["arrays"]
    ]
    expected_total = payload_start + sum(sizes) + _DIGEST_SIZE
    if size < expected_total:
        raise TruncatedCheckpointError(f"expected {expected_total} bytes, file has {size}")
    if size > expected_total:
        raise CheckpointError(f"trailing bytes: expected {expected_total}, got {size}")
    buffers = []
    for nbytes in sizes:
        buf = np.empty(nbytes, dtype=np.uint8)
        if fh.readinto(buf) != nbytes:
            raise TruncatedCheckpointError(f"checkpoint shrank to {fh.tell()} bytes while reading")
        digest.update(buf)
        buffers.append(buf)
    if fh.read(_DIGEST_SIZE) != digest.digest():
        raise ChecksumMismatchError("checkpoint checksum does not match content")

    loaded = {}
    for entry, buf in zip(header["arrays"], buffers):
        shape = tuple(int(s) for s in entry["shape"])
        loaded[entry["name"]] = buf.view(np.dtype(entry["dtype"])).reshape(shape)
    return header, loaded


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint in the file ``path``. Every ``CheckpointError`` it
    raises names the file, so a failing load among several tells which; a
    header that lacks or mistypes an entry raises one too."""
    try:
        with open(path, "rb") as fh:
            return _checkpoint_from(*_read_verified(fh, os.fstat(fh.fileno()).st_size))
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint '{path}': {exc}") from exc
    except CheckpointError as exc:
        raise type(exc)(f"checkpoint '{path}': {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:  # a header entry missing or mistyped
        raise CheckpointError(f"checkpoint '{path}': malformed header: {exc!r}") from exc


def _checkpoint_from(header: dict, loaded: dict[str, np.ndarray]) -> Checkpoint:
    config = NetConfig.from_dict(header["net_config"])
    layout = config.param_layout()

    def arrays(prefix: str) -> dict[str, np.ndarray]:
        """The net's arrays under ``prefix``, each float64 of its layout shape."""
        out = {}
        for name, shape in layout:
            key = prefix + name
            if key not in loaded:
                raise CheckpointError(f"missing array '{key}'")
            arr = loaded[key]
            if arr.dtype != np.float64:
                raise CheckpointError(f"dtype mismatch for '{key}': file {arr.dtype}, net float64")
            if arr.shape != shape:
                raise CheckpointError(f"shape mismatch for '{key}': file {arr.shape}, net {shape}")
            out[name] = arr
        return out

    params = NetworkParams(config=config, arrays=arrays("params/"))
    adam = None
    if header.get("has_adam"):
        adam = AdamState(m=arrays("adam/m/"), v=arrays("adam/v/"), step=int(header["adam_step"]))
    return Checkpoint(
        role=header["role"],
        reward_kind=header["reward_kind"],
        params=params,
        adam=adam,
        kl_coef=float(header["kl_coef"]),
        counters={**dict.fromkeys(COUNTERS, 0), **header.get("counters", {})},
    )

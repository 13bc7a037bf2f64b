"""Bit-exact binary snapshots of the outer-loop state, and crash-safe writes.

Layout (little-endian): magic "FIGR", version u32, config fingerprint
(32 bytes), outer step u64, then for each network the parameter vector
(a dtype tag byte, b"f" float32 or b"d" float64, then u64 length + data)
and its Adam state (u64 timestep + float64 first/second moments), then
the labeled RNG stream states.  Version 1 files have no tag byte and
float32 parameters; they still load.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .reptile import AdamState, MetaState
from .rng import STATE_BYTES, STREAM_LABELS, RngStreams, streams_from_states, streams_to_states

MAGIC = b"FIGR"
VERSION = 2
FINGERPRINT_BYTES = 32
_PHI_DTYPES = {b"f": np.float32, b"d": np.float64}     # version-2 tag byte -> dtype


class BadCheckpoint(ValueError):
    pass


@dataclass
class CheckpointData:
    fingerprint: bytes
    step: int
    phi_d: np.ndarray
    phi_g: np.ndarray
    adam_d: AdamState
    adam_g: AdamState
    stream_states: dict[str, bytes]


def _pack_vector(vec: np.ndarray, dtype) -> list:
    """Length header and the array itself, which join() copies without a temporary."""
    arr = np.ascontiguousarray(vec, dtype=dtype)
    return [struct.pack("<Q", arr.size), arr]


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _advance(self, n: int) -> int:
        if self.pos + n > len(self.data):
            raise BadCheckpoint("checkpoint truncated")
        self.pos += n
        return self.pos - n

    def take(self, n: int) -> bytes:
        return self.data[self._advance(n):self.pos]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def vector(self, dtype) -> np.ndarray:
        """A length-prefixed array, copied once straight out of the buffer."""
        size = self.u64()
        start = self._advance(size * np.dtype(dtype).itemsize)
        return np.frombuffer(self.data, dtype=dtype, count=size, offset=start).copy()


def serialize(state: MetaState, streams: RngStreams, fingerprint: bytes) -> bytes:
    if len(fingerprint) != FINGERPRINT_BYTES:
        raise ValueError(f"fingerprint must be {FINGERPRINT_BYTES} bytes")
    # parts are joined once: a checkpoint (15 MB at the default config) is
    # copied once, not grown piecewise and copied again
    parts = [MAGIC, struct.pack("<I", VERSION), fingerprint, struct.pack("<Q", state.step)]
    for phi, adam in ((state.phi_d, state.adam_d), (state.phi_g, state.adam_g)):
        tag = np.dtype(phi.vector.dtype).char.encode()
        parts += [tag, *_pack_vector(phi.vector, _PHI_DTYPES[tag])]
        parts.append(struct.pack("<Q", adam.t))
        parts += _pack_vector(adam.m, np.float64)
        parts += _pack_vector(adam.v, np.float64)
    states = streams_to_states(streams)
    parts.append(struct.pack("<I", len(STREAM_LABELS)))
    for label in STREAM_LABELS:
        encoded = label.encode("ascii")
        parts += [struct.pack("<B", len(encoded)), encoded, states[label]]
    return b"".join(parts)


def deserialize(data: bytes) -> CheckpointData:
    r = _Reader(data)
    if r.take(4) != MAGIC:
        raise BadCheckpoint(f"bad magic {data[:4]!r}")
    version = r.u32()
    if version not in (1, VERSION):
        raise BadCheckpoint(f"unsupported checkpoint version {version}")
    fingerprint = r.take(FINGERPRINT_BYTES)
    step = r.u64()
    nets = []
    for _ in range(2):
        dtype = np.float32
        if version > 1:
            tag = r.take(1)
            if tag not in _PHI_DTYPES:
                raise BadCheckpoint(f"unknown parameter dtype tag {tag!r}")
            dtype = _PHI_DTYPES[tag]
        vec = r.vector(dtype)
        t = r.u64()
        m = r.vector(np.float64)
        v = r.vector(np.float64)
        if m.size != vec.size or v.size != vec.size:
            raise BadCheckpoint("moment vectors do not match parameter length")
        nets.append((vec, AdamState(m, v, t)))
    n_streams = r.u32()
    states: dict[str, bytes] = {}
    for _ in range(n_streams):
        (label_len,) = struct.unpack("<B", r.take(1))
        label = r.take(label_len).decode("ascii")
        states[label] = r.take(STATE_BYTES)
    if r.pos != len(data):
        raise BadCheckpoint(f"{len(data) - r.pos} trailing bytes")
    return CheckpointData(fingerprint=fingerprint, step=step,
                          phi_d=nets[0][0], phi_g=nets[1][0],
                          adam_d=nets[0][1], adam_g=nets[1][1],
                          stream_states=states)


def atomic_write(path, data: bytes | str, durable: bool = True) -> None:
    """Write data (a str as UTF-8) to path so that a crash leaves the old file or the new.

    The data goes to a temporary file in path's directory, which is
    renamed over path; a durable write fsyncs it first, so that it also
    survives a power loss.  On failure the temporary file is removed and
    path is untouched.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            if durable:
                os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_checkpoint(path: Path, state: MetaState, streams: RngStreams,
                    fingerprint: bytes, durable: bool = True) -> None:
    atomic_write(path, serialize(state, streams, fingerprint), durable)


def load_checkpoint(path: Path) -> CheckpointData:
    return deserialize(Path(path).read_bytes())


def restore_streams(data: CheckpointData) -> RngStreams:
    return streams_from_states(data.stream_states)

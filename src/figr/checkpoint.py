"""Bit-exact binary snapshots of the outer-loop state.

Layout (little-endian): magic "FIGR", version u32, config fingerprint
(32 bytes), outer step u64, then for each network the parameter vector
(u64 length + float32 data) and its Adam state (u64 timestep + float64
first/second moments), then the labeled RNG stream states.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .reptile import AdamState, MetaState
from .rng import STATE_BYTES, STREAM_LABELS, RngStreams, streams_from_states, streams_to_states

MAGIC = b"FIGR"
VERSION = 1
FINGERPRINT_BYTES = 32


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

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise BadCheckpoint("checkpoint truncated")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def vector(self, dtype) -> np.ndarray:
        size = self.u64()
        raw = self.take(size * np.dtype(dtype).itemsize)
        return np.frombuffer(raw, dtype=dtype).copy()


def serialize(state: MetaState, streams: RngStreams, fingerprint: bytes) -> bytes:
    if len(fingerprint) != FINGERPRINT_BYTES:
        raise ValueError(f"fingerprint must be {FINGERPRINT_BYTES} bytes")
    # parts are joined once: a checkpoint (15 MB at the default config) is
    # copied once, not grown piecewise and copied again
    parts = [MAGIC, struct.pack("<I", VERSION), fingerprint, struct.pack("<Q", state.step)]
    for phi, adam in ((state.phi_d, state.adam_d), (state.phi_g, state.adam_g)):
        parts += _pack_vector(phi.vector, np.float32)
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
    if version != VERSION:
        raise BadCheckpoint(f"unsupported checkpoint version {version}")
    fingerprint = r.take(FINGERPRINT_BYTES)
    step = r.u64()
    nets = []
    for _ in range(2):
        vec = r.vector(np.float32)
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


def save_checkpoint(path: Path, state: MetaState, streams: RngStreams,
                    fingerprint: bytes) -> None:
    Path(path).write_bytes(serialize(state, streams, fingerprint))


def load_checkpoint(path: Path) -> CheckpointData:
    return deserialize(Path(path).read_bytes())


def restore_streams(data: CheckpointData) -> RngStreams:
    return streams_from_states(data.stream_states)

"""Bit-exact binary snapshots of the outer-loop state, and crash-safe writes.

Layout of format 4 (little-endian): magic "FIGR", version u32, config
fingerprint (32 bytes), outer step u64, then for each network, critic
first, the parameter vector (a dtype tag byte, b"f" float32 or b"d"
float64, then u64 length n + data) and its Adam state (u64 timestep, then
n float64 for the first and n for the second moment).  Nothing follows.
The Adam timestep is the outer step: both timestep fields are written as
the step, and a file in which either differs from it is refused; they
stay because, with no checksum in the file, they are what catches a
flipped step.  No rng state is stored: every draw of meta-step t is a
function of (seed, t) (see `figr.rng`), so the step is all a resume needs.
Versions 1 and 2 carried the states of streams that ran through the whole
run, which a resume could not continue; version 3 wrote n again before
each moment, and its fingerprints cover two config keys since deleted.
All three are refused.  `load_checkpoint` reads the file once through
`figr.data.ByteReader`, each vector straight into the owned array returned
for it (`readinto`, not a mapping, so a file cut while read raises
ValueError), and allocates nothing else that is large.  Only a resumed
`figr train` needs the Adam moments, about four fifths of the file;
`figr eval` and `figr generate` adapt φ alone, so their read seeks past the
moments and φ is all it allocates.  Either read checks the whole layout.
A write leaves an all-zero array as a file hole (`atomic_write`), so a fresh
run's zero moments are never copied, and the bytes read back are the same.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import ByteReader
from .reptile import AdamState, MetaState

MAGIC = b"FIGR"
VERSION = 4
FINGERPRINT_BYTES = 32
_PHI_DTYPES = {b"f": np.float32, b"d": np.float64}     # tag byte -> dtype


@dataclass
class CheckpointData:
    """A parsed file; a read without moments leaves adam_d/adam_g's m and v None."""

    fingerprint: bytes
    step: int
    phi_d: np.ndarray
    phi_g: np.ndarray
    adam_d: AdamState
    adam_g: AdamState


def _parts(state: MetaState, fingerprint: bytes) -> list:
    """The file's header fields and the state's own arrays, in file order."""
    if len(fingerprint) != FINGERPRINT_BYTES:
        raise ValueError(f"fingerprint must be {FINGERPRINT_BYTES} bytes")
    parts = [MAGIC, struct.pack("<I", VERSION), fingerprint, struct.pack("<Q", state.step)]
    for phi, adam in ((state.phi_d, state.adam_d), (state.phi_g, state.adam_g)):
        tag = np.dtype(phi.vector.dtype).char.encode()
        vec = np.ascontiguousarray(phi.vector, dtype=_PHI_DTYPES[tag])
        parts += [tag, struct.pack("<Q", vec.size), vec]
        parts.append(struct.pack("<Q", state.step))      # the Adam timestep
        parts += [np.ascontiguousarray(x, dtype=np.float64) for x in (adam.m, adam.v)]
    return parts


def _read(f, moments: bool = True) -> CheckpointData:
    """Parse a checkpoint from the start of an open binary file; without
    `moments`, each moment vector's bytes are checked and seeked past."""
    r = ByteReader(f, "checkpoint")

    def moment(count: int) -> np.ndarray | None:
        if moments:
            return r.array(count, np.float64)
        r.skip(8 * count)          # float64
        return None

    magic = r.take(4)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version} "
                         f"(this figr reads only version {VERSION})")
    fingerprint = r.take(FINGERPRINT_BYTES)
    (step,) = r.unpack("<Q")
    nets = []
    for _ in range(2):
        tag = r.take(1)
        if tag not in _PHI_DTYPES:
            raise ValueError(f"unknown parameter dtype tag {tag!r}")
        vec = r.array(*r.unpack("<Q"), _PHI_DTYPES[tag])
        (t,) = r.unpack("<Q")
        if t != step:
            raise ValueError(f"Adam timestep {t} differs from the checkpoint's step {step}")
        nets.append((vec, AdamState(moment(vec.size), moment(vec.size))))
    if r.pos != r.size:
        raise ValueError(f"{r.size - r.pos} trailing bytes")
    return CheckpointData(fingerprint=fingerprint, step=step,
                          phi_d=nets[0][0], phi_g=nets[1][0],
                          adam_d=nets[0][1], adam_g=nets[1][1])


def atomic_write(path, data: bytes | str | list, durable: bool = True) -> None:
    """Write data (a str as UTF-8, or a list of bytes-like parts, one write
    call each) to path so that a crash leaves the old file or the new.

    The data goes to a temporary file in path's directory, which is
    renamed over path; a durable write fsyncs it first, so that it also
    survives a power loss.  On failure the temporary file is removed and
    path is untouched.  Allocates only a str's encoding.  A numpy part
    whose bytes are all zero (tested on its bytes, so -0.0 is written) is
    seeked past, not written: the hole reads back as those bytes, and a
    durable write fsyncs the file, holes and all, as before.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for part in data if isinstance(data, list) else [data]:
                if isinstance(part, np.ndarray) and not part.view(np.uint8).any():
                    f.seek(part.nbytes, os.SEEK_CUR)      # a hole, which reads as zeros
                else:
                    f.write(part)
            f.truncate()            # a file that ends in a hole still has its length
            f.flush()
            if durable:
                os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_checkpoint(path: Path, state: MetaState, fingerprint: bytes,
                    durable: bool = True) -> None:
    """Write the file's parts in turn: each array from the state's own
    buffer, so only the small header fields are allocated."""
    atomic_write(path, _parts(state, fingerprint), durable)


def load_checkpoint(path: Path, moments: bool = True) -> CheckpointData:
    """Read a checkpoint file.  A resumed `figr train` reads the Adam moments
    to continue the outer loop; `figr eval` and `figr generate` pass
    moments=False, because adapting φ to a class never uses them."""
    with open(path, "rb") as f:
        return _read(f, moments)

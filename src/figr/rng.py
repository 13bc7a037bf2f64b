"""Labeled random streams derived from one root seed.

Each consumer (weight init, task sampling, latents, interpolation draws,
evaluation/montage sampling) gets its own PCG64 stream, so changing how
often one of them runs never perturbs the others.  Every stream that
training, evaluation and generation derive from a seed comes from
`derive`.  Stream states pack to 40 bytes for exact checkpoint round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STREAM_LABELS = ("init", "task", "latent", "eps", "sample")
STATE_BYTES = 40

# First spawn-key entry of each consumer's streams.  Synthetic glyphs draw
# from keys (class,) and (class, image) under split_seed, often the run's
# seed too.  SeedSequence splits key entries into 32-bit words, so a tag
# >= 2**32 and one more entry make a key no glyph has (2**32 alone is (0, 1)).
# The fourth tag, once the eval baseline's, stays unused so that the tags
# after it, and with them the streams of `figr generate`, keep their values.
TRAIN, EVAL_PICK, EVAL_ARM, _, GENERATE_PICK, GENERATE = range(2**32, 2**32 + 6)


@dataclass
class RngStreams:
    init: np.random.Generator
    task: np.random.Generator
    latent: np.random.Generator
    eps: np.random.Generator
    sample: np.random.Generator

    def get(self, label: str) -> np.random.Generator:
        return getattr(self, label)


def derive(seed: int, tag: int, index: int) -> np.random.Generator:
    """The PCG64 stream of spawn key (tag, index) under seed."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=(tag, index))))


def make_streams(seed: int) -> RngStreams:
    return RngStreams(**{label: derive(seed, TRAIN, i)
                         for i, label in enumerate(STREAM_LABELS)})


def state_to_bytes(gen: np.random.Generator) -> bytes:
    st = gen.bit_generator.state
    if st["bit_generator"] != "PCG64":
        raise ValueError("only PCG64 streams are serializable")
    inner = st["state"]
    return (inner["state"].to_bytes(16, "little")
            + inner["inc"].to_bytes(16, "little")
            + int(st["has_uint32"]).to_bytes(4, "little")
            + int(st["uinteger"]).to_bytes(4, "little"))


def state_from_bytes(raw: bytes) -> np.random.Generator:
    if len(raw) != STATE_BYTES:
        raise ValueError(f"expected {STATE_BYTES} state bytes, got {len(raw)}")
    bg = np.random.PCG64()
    bg.state = {
        "bit_generator": "PCG64",
        "state": {
            "state": int.from_bytes(raw[0:16], "little"),
            "inc": int.from_bytes(raw[16:32], "little"),
        },
        "has_uint32": int.from_bytes(raw[32:36], "little"),
        "uinteger": int.from_bytes(raw[36:40], "little"),
    }
    return np.random.Generator(bg)


def streams_to_states(streams: RngStreams) -> dict[str, bytes]:
    return {label: state_to_bytes(streams.get(label)) for label in STREAM_LABELS}


def streams_from_states(states: dict[str, bytes]) -> RngStreams:
    missing = set(STREAM_LABELS) - set(states)
    if missing:
        raise ValueError(f"missing stream states: {sorted(missing)}")
    return RngStreams(**{label: state_from_bytes(states[label])
                         for label in STREAM_LABELS})

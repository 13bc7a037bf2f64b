"""Run configuration: flat "key = value" files, hard errors on unknown keys,
and a fingerprint that pins every trajectory-relevant hyperparameter.

RunConfig is figr's one settings type: the networks, the inner loop, the
outer Adam step and the run all read their settings from it, and it
refuses a config whose invariants cannot hold when it is built, so a
config is checked once, at parse.  Among them: a str value holds no line
break, no whitespace at either end and no '#' at its start or after
whitespace, so that `canonical_text` parses back to the config."""

from __future__ import annotations

import csv
import hashlib
import math
import re
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .data import (
    TaskDataset,
    build_tasks,
    load_idx_dir,
    load_shard,
    split_classes,
    synth_glyph_dataset,
)


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run: model, loss, inner and outer loop, data, cadence.

    The code claims four invariants for every config it accepts, but the
    tests check each only at the configs named here (single precision
    unless double is named):
    - same-seed determinism: 8 px, base_width 4, 1 block (an inner loop,
      figr_generate and two `figr train` runs);
    - bit-exact resume: `figr train` at that config, single and double;
    - the checkpoint round trip: 8 px, base_width 4, 1 block, single and
      double;
    - results independent of the BLAS thread count: one inner loop at
      32 px with 3 blocks and base_width 13, 14, 16 (the default), 20 or 52,
      and at 64 px with 4 blocks and base_width 13; conv2d alone at the
      shapes its own test names.
    The rest of the accepted space (other sizes, widths and depths) is
    untested until a property test draws configs from it.
    """

    # model
    image_size: int = 32
    latent_dim: int = 64
    base_width: int = 16
    n_blocks: int = 3
    precision: str = "single"
    # loss
    gp_lambda: float = 10.0
    # inner loop
    k: int = 10
    n: int = 4
    inner_lr: float = 0.0001
    # outer loop
    outer_lr: float = 0.00001
    beta1: float = 0.5
    beta2: float = 0.999
    adam_eps: float = 1e-8
    # data
    dataset_path: str = ""
    synth_classes: int = 200
    synth_per_class: int = 16
    split_seed: int = 0
    n_validation: int = 10
    validation_classes: str = ""
    # run control (not part of the semantic fingerprint)
    meta_steps: int = 2000
    checkpoint_every: int = 10000
    sample_every: int = 10000
    out_dir: str = "runs/figr"
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # numpy takes no int past a C long; SeedSequence takes a seed of any size
            if f.type == "int" and value >= 2**63 and f.name not in ("seed", "split_seed"):
                raise ValueError(f"{f.name} must be < 2**63, got {value}")
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            if f.type == "str" and (value != value.strip() or len(value.splitlines()) > 1
                                    or _COMMENT.search(value)):
                raise ValueError(f"{f.name} cannot be written to a config file: {value!r}")
        if self.image_size not in (8, 16, 32, 64):
            raise ValueError(f"image_size must be 8/16/32/64, got {self.image_size}")
        if self.n_blocks < self.n_scales:
            raise ValueError(
                f"n_blocks={self.n_blocks} < {self.n_scales} scale changes for "
                f"image_size={self.image_size}")
        if self.precision not in ("single", "double"):
            raise ValueError(f"unknown precision {self.precision!r}")
        if self.latent_dim < 1 or self.base_width < 1:
            raise ValueError("latent_dim and base_width must be positive")
        if not (self.k >= 1 and self.n >= 1 and self.inner_lr >= 0 and self.gp_lambda >= 0):
            raise ValueError("need k >= 1, n >= 1, inner_lr >= 0, gp_lambda >= 0")
        # beta = 1 leaves Adam's bias correction dividing 0 by 0 at step 1
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1
                and self.adam_eps > 0 and self.outer_lr >= 0):
            raise ValueError("need 0 <= beta1, beta2 < 1, adam_eps > 0, outer_lr >= 0")
        # 0 is none or never; a negative cadence would pass `step % every == 0` at
        # every step, and numpy refuses a negative seed without naming the key
        for name in ("n_validation", "meta_steps", "checkpoint_every", "sample_every",
                     "seed", "split_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    @property
    def n_scales(self) -> int:
        return int(math.log2(self.image_size // 4))

    @property
    def dtype(self):
        return np.float32 if self.precision == "single" else np.float64


# cadence and paths steer artifact emission, not the trajectory; leaving them
# out of the fingerprint lets a resumed run change them without tripping the
# hyperparameter-drift check
_OPERATIONAL = {"meta_steps", "checkpoint_every", "sample_every", "out_dir"}
_COMMENT = re.compile(r"(?:^|\s)#")


def _lines(cfg: RunConfig, skip=frozenset()) -> list[str]:
    """Sorted "key = value" lines; a float formats as its repr, so it parses back exactly."""
    return [f"{f.name} = {getattr(cfg, f.name)}"
            for f in sorted(fields(cfg), key=lambda f: f.name) if f.name not in skip]


def canonical_text(cfg: RunConfig) -> str:
    return "\n".join(_lines(cfg)) + "\n"


def fingerprint(cfg: RunConfig) -> bytes:
    return hashlib.sha256("\n".join(_lines(cfg, _OPERATIONAL)).encode("utf-8")).digest()


def parse_config(text: str) -> RunConfig:
    """Parse "key = value" lines; unknown keys fail.  A '#' at a line's start
    or after whitespace starts a comment; a value may hold any other '#', so
    a class whose name holds ' #' cannot be named in validation_classes."""
    kinds = {f.name: f.type for f in fields(RunConfig)}
    casts = {"int": int, "float": float, "str": str}
    seen: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (_COMMENT.split(raw, maxsplit=1)[0] if "#" in raw else raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in kinds:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            seen[key] = casts[kinds[key]](value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return RunConfig(**seen)


def load_config(path: Path) -> RunConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def build_dataset(cfg: RunConfig) -> TaskDataset:
    """Materialize + split the dataset the config names.  `dataset_path`
    picks the reader: empty is the synthetic glyphs, a directory an IDX
    pair, and anything else an FGR8 shard."""
    if not cfg.dataset_path:
        ds = synth_glyph_dataset(cfg.synth_classes, cfg.synth_per_class,
                                 cfg.image_size, seed=cfg.split_seed)
    elif Path(cfg.dataset_path).is_dir():
        ds = build_tasks(load_idx_dir(Path(cfg.dataset_path)), cfg.image_size)
    else:
        with open(cfg.dataset_path, "rb") as f:
            ds = build_tasks(load_shard(f), cfg.image_size)
    # one CSV row, so a quoted name may hold a comma: "a,b", c names a,b and c
    row = next(csv.reader([cfg.validation_classes], skipinitialspace=True))
    explicit = [s.strip() for s in row if s.strip()] or None
    return split_classes(ds, cfg.n_validation, cfg.split_seed, explicit=explicit)

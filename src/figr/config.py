"""Run configuration: flat "key = value" files, hard errors on unknown keys,
and a fingerprint that pins every trajectory-relevant hyperparameter."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from pathlib import Path

from .data import (
    TaskDataset,
    build_tasks,
    load_idx_dir,
    load_shard,
    split_classes,
    synth_glyph_dataset,
)
from .models import ModelConfig
from .reptile import InnerConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    # model
    image_size: int = 32
    latent_dim: int = 64
    base_width: int = 16
    n_blocks: int = 3
    precision: str = "single"
    # loss; WGAN-GP is the only mode, the key stays so fingerprints hold
    loss_mode: str = "wasserstein_gp"
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
    dataset_format: str = "synth"
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
        if self.dataset_format not in ("synth", "idx", "fgr8"):
            raise ConfigError(f"unknown dataset_format {self.dataset_format!r}")
        if self.loss_mode != "wasserstein_gp":
            raise ConfigError(f"loss_mode must be wasserstein_gp, not {self.loss_mode!r}")


# cadence and paths steer artifact emission, not the trajectory; leaving them
# out of the fingerprint lets a resumed run change them without tripping the
# hyperparameter-drift check
_OPERATIONAL = {"meta_steps", "checkpoint_every", "sample_every", "out_dir"}


def _lines(cfg: RunConfig, skip=frozenset()) -> list[str]:
    """Sorted "key = value" lines; a float formats as its repr, so it parses back exactly."""
    return [f"{f.name} = {getattr(cfg, f.name)}"
            for f in sorted(fields(cfg), key=lambda f: f.name) if f.name not in skip]


def canonical_text(cfg: RunConfig) -> str:
    return "\n".join(_lines(cfg)) + "\n"


def fingerprint(cfg: RunConfig) -> bytes:
    return hashlib.sha256("\n".join(_lines(cfg, _OPERATIONAL)).encode("utf-8")).digest()


def parse_config(text: str) -> RunConfig:
    """Parse "key = value" lines; '#' starts a comment; unknown keys fail."""
    kinds = {f.name: f.type for f in fields(RunConfig)}
    casts = {"int": int, "float": float, "str": str}
    seen: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in kinds:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            seen[key] = casts[kinds[key]](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    try:
        return RunConfig(**seen)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: Path) -> RunConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def model_config(cfg: RunConfig) -> ModelConfig:
    return ModelConfig(image_size=cfg.image_size, latent_dim=cfg.latent_dim,
                       base_width=cfg.base_width, n_blocks=cfg.n_blocks,
                       precision=cfg.precision)


def inner_config(cfg: RunConfig) -> InnerConfig:
    return InnerConfig(k=cfg.k, n=cfg.n, inner_lr=cfg.inner_lr,
                       gp_lambda=cfg.gp_lambda)


def build_dataset(cfg: RunConfig) -> TaskDataset:
    """Materialize + split the dataset the config names."""
    if cfg.dataset_format == "synth":
        ds = synth_glyph_dataset(cfg.synth_classes, cfg.synth_per_class,
                                 cfg.image_size, seed=cfg.split_seed)
    elif cfg.dataset_format == "idx":
        ds = build_tasks(load_idx_dir(Path(cfg.dataset_path)), cfg.image_size)
    else:
        raw = load_shard(Path(cfg.dataset_path).read_bytes())
        ds = build_tasks(raw, cfg.image_size)
    explicit = [s.strip() for s in cfg.validation_classes.split(",") if s.strip()] or None
    return split_classes(ds, cfg.n_validation, cfg.split_seed, explicit=explicit)

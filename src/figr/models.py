"""Residual generator and critic built on the autodiff engine.

Both networks keep their weights in one flat vector (ParameterSet) so the
meta-learning outer loop can treat a whole network as a single point in
parameter space; a forward pass takes that vector's leaf tensors
(ParameterSet.bind), trainable or not.  Images are grayscale, one
channel.  Layer norm everywhere (no batch statistics), PReLU
activations, tanh output for the generator, unbounded scalar score for
the critic.  Each weighted layer is one fused autodiff op: 3x3
convolutions are conv2d; the latent projection, the 1x1 skips and the
score are affine.  Sizes, depth and precision come from the RunConfig a
network is built with, which has already checked them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import RunConfig


@dataclass(frozen=True)
class Segment:
    name: str
    offset: int
    shape: tuple[int, ...]

    @property
    def size(self) -> int:
        return math.prod(self.shape)


class ParameterSet:
    """Named views over one contiguous flat vector of reals."""

    __slots__ = ("vector", "layout", "_index")

    def __init__(self, vector: np.ndarray, layout: tuple[Segment, ...]):
        total = layout[-1].offset + layout[-1].size if layout else 0
        if vector.ndim != 1 or vector.size != total:
            raise ValueError(
                f"vector of {vector.size} values does not cover layout of {total}")
        self.vector = vector
        self.layout = layout
        self._index = {s.name: s for s in layout}

    @property
    def total_len(self) -> int:
        return self.vector.size

    def view(self, name: str) -> np.ndarray:
        s = self._index[name]
        return self.vector[s.offset:s.offset + s.size].reshape(s.shape)

    def with_vector(self, vector: np.ndarray) -> "ParameterSet":
        return ParameterSet(np.asarray(vector, dtype=self.vector.dtype), self.layout)

    def bind(self, trainable: bool = True) -> "BoundParams":
        bound = BoundParams(self)
        for s in self.layout:
            bound[s.name] = Tensor(self.view(s.name), requires_grad=trainable)
        return bound


class BoundParams(dict):
    """Per-forward-pass leaf tensors for every segment of a ParameterSet."""

    def __init__(self, source: ParameterSet):
        super().__init__()
        self.source = source

    def add_grads(self, grad_map: dict[Tensor, Tensor], out: np.ndarray) -> np.ndarray:
        """Add each reached segment's gradient into the float64 vector out; return out."""
        for s in self.source.layout:
            g = grad_map.get(self[s.name])
            if g is not None:
                out[s.offset:s.offset + s.size] += g.data.reshape(-1)
        return out


def params_delta(phi: ParameterSet, w: ParameterSet) -> np.ndarray:
    """Elementwise phi - w as a flat vector (the Reptile pseudo-gradient)."""
    if phi.layout != w.layout:
        raise ValueError("parameter sets have different layouts")
    return phi.vector - w.vector


def sample_latent(batch: int, cfg: RunConfig, rng: np.random.Generator) -> Tensor:
    """Batch of i.i.d. standard-normal latent rows, one per sample."""
    if batch < 1:
        raise ValueError("batch must be >= 1")
    z = rng.standard_normal((batch, cfg.latent_dim)).astype(cfg.dtype)
    return Tensor(z)


def _add(lay: list[Segment], name: str, shape: tuple[int, ...]) -> None:
    """Append a segment that starts where the last one ends."""
    lay.append(Segment(name, lay[-1].offset + lay[-1].size if lay else 0, shape))


def _add_conv(lay: list[Segment], name: str, cin: int, cout: int) -> None:
    _add(lay, f"{name}.w", (cout, cin, 3, 3))
    _add(lay, f"{name}.b", (cout,))


def _add_proj(lay: list[Segment], name: str, cin: int, cout: int) -> None:
    _add(lay, f"{name}.w", (cin, cout))
    _add(lay, f"{name}.b", (cout,))


def _add_norm_act(lay: list[Segment], name: str, c: int, h: int, w: int) -> None:
    _add(lay, f"{name}.ln.g", (c, h, w))
    _add(lay, f"{name}.ln.b", (c, h, w))
    _add(lay, f"{name}.a", (c,))


def _norm_act(p, name: str, x: Tensor) -> Tensor:
    y = ad.layer_norm(x, p[f"{name}.ln.g"], p[f"{name}.ln.b"])
    return ad.prelu(y, p[f"{name}.a"])


class _ResNetBase:
    """Shared layout/init machinery and residual block; subclasses define forward."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.blocks: list[tuple[str, int, int, bool]] = []
        self.layout = self._build_layout()

    def _build_layout(self) -> tuple[Segment, ...]:
        raise NotImplementedError

    def _add_block(self, lay: list[Segment], name: str, cin: int, cout: int, size: int,
                   resample: bool) -> None:
        """conv -> norm_act -> conv -> norm_act, with a 1x1 skip where the width changes."""
        _add_conv(lay, f"{name}.c1", cin, cout)
        _add_norm_act(lay, f"{name}.n1", cout, size, size)
        _add_conv(lay, f"{name}.c2", cout, cout)
        _add_norm_act(lay, f"{name}.n2", cout, size, size)
        if cin != cout:                 # true of every block that resamples
            _add_proj(lay, f"{name}.skip", cin, cout)
        self.blocks.append((name, cin, cout, resample))

    @staticmethod
    def _residual(p, name: str, h: Tensor, skip: Tensor, stride: int = 1) -> Tensor:
        """The block's body on h, plus skip."""
        y = ad.conv2d(h, p[f"{name}.c1.w"], p[f"{name}.c1.b"], stride=stride)
        y = _norm_act(p, f"{name}.n1", y)
        y = ad.conv2d(y, p[f"{name}.c2.w"], p[f"{name}.c2.b"], stride=1)
        y = _norm_act(p, f"{name}.n2", y)
        return ad.add(y, skip)

    def param_count(self) -> int:
        return self.layout[-1].offset + self.layout[-1].size

    def init_params(self, rng: np.random.Generator) -> ParameterSet:
        """He fan-in weights, zero biases, 0.25 PReLU slopes, unit LN gains."""
        vec = np.empty(self.param_count(), dtype=self.cfg.dtype)
        ps = ParameterSet(vec, self.layout)
        for s in self.layout:
            v = ps.view(s.name)
            if s.name.endswith(".ln.g"):
                v[...] = 1.0
            elif s.name.endswith(".ln.b") or s.name.endswith(".b"):
                v[...] = 0.0
            elif s.name.endswith(".a"):
                v[...] = 0.25
            elif s.name.endswith(".w"):
                fan_in = s.shape[1] * 9 if len(s.shape) == 4 else s.shape[0]
                std = math.sqrt(2.0 / fan_in)
                v[...] = (rng.standard_normal(s.shape) * std).astype(self.cfg.dtype)
            else:
                raise AssertionError(f"unknown segment kind {s.name}")
        return ps


class Generator(_ResNetBase):
    """Latent vector -> image in (-1, 1).

    Dense projection of z to a 4x4 map at top width, optional extra
    residual blocks at 4x4, one upsampling residual block per scale
    (width halves each time), final 3x3 conv to one channel + tanh.
    Each layer maps every sample on its own (conv2d: one GEMM per sample), so
    a sample's output is bitwise the same in any batch, as figr_generate needs.
    """

    def _build_layout(self) -> tuple[Segment, ...]:
        cfg = self.cfg
        lay: list[Segment] = []
        w_top = cfg.base_width << cfg.n_scales
        self.w_top = w_top
        _add_proj(lay, "fc", cfg.latent_dim, w_top * 16)
        _add_norm_act(lay, "in0", w_top, 4, 4)
        n_extra = cfg.n_blocks - cfg.n_scales
        size = 4
        width = w_top
        for i in range(n_extra):
            self._add_block(lay, f"pre{i}", width, width, size, resample=False)
        for i in range(cfg.n_scales):
            self._add_block(lay, f"up{i}", width, width // 2, size * 2, resample=True)
            width //= 2
            size *= 2
        _add_conv(lay, "out", width, 1)
        return tuple(lay)

    def forward(self, p: BoundParams, z: Tensor) -> Tensor:
        cfg = self.cfg
        if z.ndim != 2 or z.shape[1] != cfg.latent_dim:
            raise ValueError(f"latent batch {z.shape} != (B, {cfg.latent_dim})")
        b = z.shape[0]
        h = ad.affine(z, p["fc.w"], p["fc.b"])
        h = ad.reshape(h, (b, self.w_top, 4, 4))
        h = _norm_act(p, "in0", h)
        for name, cin, cout, up in self.blocks:
            if up:
                h = ad.upsample2(h)
            skip = h
            if cin != cout:
                skip = ad.affine(h, p[f"{name}.skip.w"], p[f"{name}.skip.b"])
            h = self._residual(p, name, h, skip)
        h = ad.conv2d(h, p["out.w"], p["out.b"], stride=1)
        return ad.tanh(h)


class Discriminator(_ResNetBase):
    """Image -> unbounded realness score (Wasserstein critic, no sigmoid)."""

    def _build_layout(self) -> tuple[Segment, ...]:
        cfg = self.cfg
        lay: list[Segment] = []
        s = cfg.image_size
        _add_conv(lay, "stem", 1, cfg.base_width)
        _add_norm_act(lay, "in0", cfg.base_width, s, s)
        width = cfg.base_width
        for i in range(cfg.n_scales):
            self._add_block(lay, f"down{i}", width, width * 2, s // 2, resample=True)
            width *= 2
            s //= 2
        for i in range(cfg.n_blocks - cfg.n_scales):
            self._add_block(lay, f"post{i}", width, width, s, resample=False)
        _add_proj(lay, "score", width * s * s, 1)
        return tuple(lay)

    def forward(self, p: BoundParams, images: Tensor) -> Tensor:
        cfg = self.cfg
        expect = (1, cfg.image_size, cfg.image_size)
        if images.ndim != 4 or images.shape[1:] != expect:
            raise ValueError(f"image batch {images.shape} != (B, {expect})")
        b = images.shape[0]
        h = ad.conv2d(images, p["stem.w"], p["stem.b"], stride=1)
        h = _norm_act(p, "in0", h)
        for name, cin, cout, down in self.blocks:
            skip = h
            if cin != cout:
                skip = ad.affine(ad.subsample2(h) if down else h,
                                 p[f"{name}.skip.w"], p[f"{name}.skip.b"])
            h = self._residual(p, name, h, skip, stride=2 if down else 1)
        return ad.affine(ad.reshape(h, (b, -1)), p["score.w"], p["score.b"])


"""Residual generator and critic built on the autodiff engine.

Both networks keep their weights in one flat vector (ParameterSet) so the
meta-learning outer loop can treat a whole network as a single point in
parameter space; a forward pass takes that vector's leaf tensors
(ParameterSet.bind), trainable or not.  Images are grayscale, one
channel.  Layer norm everywhere (no batch statistics), PReLU
activations, tanh output for the generator, unbounded scalar score for
the critic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, ShapeMismatch

LN_EPS = 1e-5


class InvalidConfig(ValueError):
    pass


class LayoutMismatch(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    image_size: int = 32
    latent_dim: int = 64
    base_width: int = 16
    n_blocks: int = 3
    precision: str = "single"

    def __post_init__(self):
        if self.image_size not in (8, 16, 32, 64):
            raise InvalidConfig(f"image_size must be 8/16/32/64, got {self.image_size}")
        if self.latent_dim < 1 or self.base_width < 1:
            raise InvalidConfig("latent_dim and base_width must be positive")
        if self.n_blocks < self.n_scales:
            raise InvalidConfig(
                f"n_blocks={self.n_blocks} < {self.n_scales} scale changes for "
                f"image_size={self.image_size}")
        if self.precision not in ("single", "double"):
            raise InvalidConfig(f"unknown precision {self.precision!r}")

    @property
    def n_scales(self) -> int:
        return int(math.log2(self.image_size // 4))

    @property
    def dtype(self):
        return np.float32 if self.precision == "single" else np.float64


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
            raise LayoutMismatch(
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

    def copy(self) -> "ParameterSet":
        return ParameterSet(self.vector.copy(), self.layout)

    def with_vector(self, vector: np.ndarray) -> "ParameterSet":
        return ParameterSet(np.asarray(vector, dtype=self.vector.dtype), self.layout)

    def same_layout(self, other: "ParameterSet") -> bool:
        return self.layout == other.layout

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

    def flatten_grads(self, grad_map: dict[Tensor, Tensor]) -> np.ndarray:
        """Assemble a float64 flat gradient; unreached segments get zeros."""
        out = np.zeros(self.source.total_len, dtype=np.float64)
        for s in self.source.layout:
            g = grad_map.get(self[s.name])
            if g is not None:
                out[s.offset:s.offset + s.size] = g.data.reshape(-1)
        return out


def params_delta(phi: ParameterSet, w: ParameterSet) -> np.ndarray:
    """Elementwise phi - w as a flat vector (the Reptile pseudo-gradient)."""
    if not phi.same_layout(w):
        raise LayoutMismatch("parameter sets have different layouts")
    return phi.vector - w.vector


def sample_latent(batch: int, cfg: ModelConfig, rng: np.random.Generator) -> Tensor:
    """Batch of i.i.d. standard-normal latent rows, one per sample."""
    if batch < 1:
        raise ValueError("batch must be >= 1")
    z = rng.standard_normal((batch, cfg.latent_dim)).astype(cfg.dtype)
    return Tensor(z)


class _Layout:
    def __init__(self):
        self.segments: list[Segment] = []
        self.offset = 0

    def add(self, name: str, shape: tuple[int, ...]) -> None:
        seg = Segment(name, self.offset, shape)
        self.segments.append(seg)
        self.offset += seg.size

    def done(self) -> tuple[Segment, ...]:
        return tuple(self.segments)


def _add_conv(lay: _Layout, name: str, cin: int, cout: int) -> None:
    lay.add(f"{name}.w", (cout, cin, 3, 3))
    lay.add(f"{name}.b", (cout,))


def _add_proj(lay: _Layout, name: str, cin: int, cout: int) -> None:
    lay.add(f"{name}.w", (cin, cout))
    lay.add(f"{name}.b", (cout,))


def _add_norm_act(lay: _Layout, name: str, c: int, h: int, w: int) -> None:
    lay.add(f"{name}.ln.g", (c, h, w))
    lay.add(f"{name}.ln.b", (c, h, w))
    lay.add(f"{name}.a", (c,))


def _conv1x1(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Pointwise channel mixing via per-sample matmul; w is [Cin, Cout]."""
    bs, c, h, wd = x.shape
    flat = ad.reshape(ad.permute(x, (0, 2, 3, 1)), (bs, h * wd, c))
    y = ad.add(ad.matmul(flat, w), b)
    return ad.permute(ad.reshape(y, (bs, h, wd, w.shape[1])), (0, 3, 1, 2))


def _dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Per-sample affine map: [B,in] x [in,out] + [out]."""
    bs = x.shape[0]
    y = ad.add(ad.matmul(ad.reshape(x, (bs, 1, x.shape[1])), w), b)
    return ad.reshape(y, (bs, w.shape[1]))


def _norm_act(p, name: str, x: Tensor) -> Tensor:
    y = ad.layer_norm(x, p[f"{name}.ln.g"], p[f"{name}.ln.b"], LN_EPS)
    return ad.prelu(y, p[f"{name}.a"])


class _ResNetBase:
    """Shared layout/init machinery and residual block; subclasses define forward."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.blocks: list[tuple[str, int, int, bool]] = []
        self.layout = self._build_layout()

    def _build_layout(self) -> tuple[Segment, ...]:
        raise NotImplementedError

    def _add_block(self, lay: _Layout, name: str, cin: int, cout: int, size: int,
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
    """

    def _build_layout(self) -> tuple[Segment, ...]:
        cfg = self.cfg
        lay = _Layout()
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
        return lay.done()

    def forward(self, p: BoundParams, z: Tensor) -> Tensor:
        cfg = self.cfg
        if z.ndim != 2 or z.shape[1] != cfg.latent_dim:
            raise ShapeMismatch(f"latent batch {z.shape} != (B, {cfg.latent_dim})")
        b = z.shape[0]
        h = _dense(z, p["fc.w"], p["fc.b"])
        h = ad.reshape(h, (b, self.w_top, 4, 4))
        h = _norm_act(p, "in0", h)
        for name, cin, cout, up in self.blocks:
            if up:
                h = ad.upsample2(h)
            skip = h
            if cin != cout:
                skip = _conv1x1(h, p[f"{name}.skip.w"], p[f"{name}.skip.b"])
            h = self._residual(p, name, h, skip)
        h = ad.conv2d(h, p["out.w"], p["out.b"], stride=1)
        return ad.tanh(h)


class Discriminator(_ResNetBase):
    """Image -> unbounded realness score (Wasserstein critic, no sigmoid)."""

    def _build_layout(self) -> tuple[Segment, ...]:
        cfg = self.cfg
        lay = _Layout()
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
        self.w_top = width
        _add_proj(lay, "score", width * s * s, 1)
        return lay.done()

    def forward(self, p: BoundParams, images: Tensor) -> Tensor:
        cfg = self.cfg
        expect = (1, cfg.image_size, cfg.image_size)
        if images.ndim != 4 or images.shape[1:] != expect:
            raise ShapeMismatch(f"image batch {images.shape} != (B, {expect})")
        b = images.shape[0]
        h = ad.conv2d(images, p["stem.w"], p["stem.b"], stride=1)
        h = _norm_act(p, "in0", h)
        for name, cin, cout, down in self.blocks:
            skip = h
            if cin != cout:
                skip = _conv1x1(ad.subsample2(h) if down else h,
                                p[f"{name}.skip.w"], p[f"{name}.skip.b"])
            h = self._residual(p, name, h, skip, stride=2 if down else 1)
        flat = ad.reshape(h, (b, -1))
        return _dense(flat, p["score.w"], p["score.b"])


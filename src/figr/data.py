"""Dataset ingestion and task sampling.

Raw corpora arrive as MNIST-style IDX pairs, directories of binary PGM
files, or this package's FGR8 shard container.  Raw 8-bit images are
kept verbatim (shards round-trip bit-exactly); the task pipeline then
resizes with bilinear interpolation, normalizes to [-1, 1], and splits
classes into train/validation pools.  A deterministic synthetic glyph
generator provides desk-scale corpora for experiments.

A task class builds its float32 images the first time they are read and
caches them, so splitting classes, looking one up by name or counting
them touches no pixels, and a run pays only for the classes it samples
(a meta-step reads one).  Every image has its own seed, so the order in
which classes are first read cannot change a pixel.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np


class BadMagic(ValueError):
    pass


class TruncatedFile(ValueError):
    pass


class CountMismatch(ValueError):
    pass


class UnsupportedVersion(ValueError):
    pass


class TooManyValidation(ValueError):
    pass


class EmptySplit(ValueError):
    pass


class InvalidSize(ValueError):
    pass


# ---------------------------------------------------------------------------
# IDX (MNIST container): big-endian magic, dims, then raw bytes
# ---------------------------------------------------------------------------

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


def parse_idx(image_bytes: bytes, label_bytes: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Parse paired IDX image/label files -> (uint8 [N,H,W], uint8 [N])."""
    if len(image_bytes) < 16:
        raise TruncatedFile("image file shorter than its header")
    magic, count, rows, cols = struct.unpack(">IIII", image_bytes[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise BadMagic(f"image magic 0x{magic:08x} != 0x{IDX_IMAGE_MAGIC:08x}")
    need = 16 + count * rows * cols
    if len(image_bytes) < need:
        raise TruncatedFile(f"image body has {len(image_bytes) - 16} of "
                            f"{count * rows * cols} pixel bytes")
    images = np.frombuffer(image_bytes, dtype=np.uint8, count=count * rows * cols,
                           offset=16).reshape(count, rows, cols)

    if len(label_bytes) < 8:
        raise TruncatedFile("label file shorter than its header")
    lmagic, lcount = struct.unpack(">II", label_bytes[:8])
    if lmagic != IDX_LABEL_MAGIC:
        raise BadMagic(f"label magic 0x{lmagic:08x} != 0x{IDX_LABEL_MAGIC:08x}")
    if len(label_bytes) < 8 + lcount:
        raise TruncatedFile(f"label body has {len(label_bytes) - 8} of {lcount} bytes")
    if lcount != count:
        raise CountMismatch(f"{count} images vs {lcount} labels")
    labels = np.frombuffer(label_bytes, dtype=np.uint8, count=lcount, offset=8)
    return images, labels


# ---------------------------------------------------------------------------
# PGM (binary P5, maxval 255)
# ---------------------------------------------------------------------------

def read_pgm(data: bytes) -> np.ndarray:
    """Parse binary PGM; '#' comments are skipped between header tokens."""
    if not data.startswith(b"P5"):
        raise BadMagic("not a binary PGM (P5) file")
    tokens: list[int] = []
    pos = 2
    while len(tokens) < 3:
        if pos >= len(data):
            raise TruncatedFile("PGM header ended early")
        ch = data[pos:pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
        elif ch.isdigit():
            end = pos
            while end < len(data) and data[end:end + 1].isdigit():
                end += 1
            tokens.append(int(data[pos:end]))
            pos = end
        else:
            raise BadMagic(f"unexpected byte {ch!r} in PGM header")
    width, height, maxval = tokens
    if maxval != 255:
        raise UnsupportedVersion(f"only maxval 255 PGMs are supported, got {maxval}")
    pos += 1  # single whitespace byte separates header from raster
    if len(data) - pos < width * height:
        raise TruncatedFile(f"PGM raster has {len(data) - pos} of {width * height} bytes")
    return np.frombuffer(data, dtype=np.uint8, count=width * height,
                         offset=pos).reshape(height, width)


def write_pgm(img: np.ndarray) -> bytes:
    if img.ndim != 2 or img.dtype != np.uint8:
        raise ValueError("write_pgm expects a 2-d uint8 array")
    h, w = img.shape
    return b"P5\n%d %d\n255\n" % (w, h) + img.tobytes()


# ---------------------------------------------------------------------------
# FGR8 shard container (little-endian)
# ---------------------------------------------------------------------------

SHARD_MAGIC = b"FGR8"
SHARD_VERSION = 1


@dataclass(frozen=True)
class RawClass:
    name: str
    images: np.ndarray  # uint8 [N, H, W]


@dataclass(frozen=True)
class RawDataset:
    classes: tuple[RawClass, ...]


def pack_shard(classes: list[tuple[str, np.ndarray]]) -> bytes:
    """Serialize (name, uint8 image stack) pairs; load_shard inverts bit-exactly."""
    out = bytearray()
    out += SHARD_MAGIC
    out += struct.pack("<II", SHARD_VERSION, len(classes))
    for name, images in classes:
        images = np.asarray(images)
        if images.ndim != 3 or images.dtype != np.uint8:
            raise ValueError(f"class {name!r} must be uint8 [N,H,W]")
        if images.shape[0] == 0:
            raise ValueError(f"class {name!r} has no images")
        n, h, w = images.shape
        encoded = name.encode("utf-8")
        out += struct.pack("<H", len(encoded)) + encoded
        out += struct.pack("<IHH", n, h, w)
        out += images.tobytes()
    return bytes(out)


def load_shard(data: bytes) -> RawDataset:
    if len(data) < 12:
        raise TruncatedFile("shard shorter than its header")
    if data[:4] != SHARD_MAGIC:
        raise BadMagic(f"shard magic {data[:4]!r} != {SHARD_MAGIC!r}")
    version, n_classes = struct.unpack_from("<II", data, 4)
    if version != SHARD_VERSION:
        raise UnsupportedVersion(f"shard version {version} unsupported")
    pos = 12
    classes = []
    for _ in range(n_classes):
        if pos + 2 > len(data):
            raise TruncatedFile("shard ended inside a class header")
        (name_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        name = data[pos:pos + name_len].decode("utf-8")
        pos += name_len
        if pos + 8 > len(data):
            raise TruncatedFile(f"class {name!r} header truncated")
        n, h, w = struct.unpack_from("<IHH", data, pos)
        pos += 8
        nbytes = n * h * w
        if pos + nbytes > len(data):
            raise TruncatedFile(f"class {name!r} raster truncated")
        images = np.frombuffer(data, dtype=np.uint8, count=nbytes,
                               offset=pos).reshape(n, h, w)
        pos += nbytes
        classes.append(RawClass(name=name, images=images))
    return RawDataset(classes=tuple(classes))


def pack_class_dirs(root: Path) -> bytes:
    """Pack subdirectories of PGM files; one class per directory."""
    root = Path(root)
    classes = []
    for class_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        files = sorted(class_dir.glob("*.pgm"))
        if not files:
            raise ValueError(f"class directory {class_dir.name!r} has no PGM files")
        imgs = [read_pgm(f.read_bytes()) for f in files]
        shapes = {im.shape for im in imgs}
        if len(shapes) != 1:
            raise ValueError(f"class {class_dir.name!r} mixes image sizes {shapes}")
        classes.append((class_dir.name, np.stack(imgs)))
    if not classes:
        raise ValueError(f"no class directories under {root}")
    return pack_shard(classes)


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-centers bilinear resample to (out_h, out_w), float64."""
    if out_h < 1 or out_w < 1:
        raise ValueError("output dims must be >= 1")
    src = np.asarray(img, dtype=np.float64)
    h, w = src.shape
    sy = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    sx = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(sy).astype(np.int64)
    x0 = np.floor(sx).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (sy - y0)[:, None]
    wx = (sx - x0)[None, :]
    top = src[np.ix_(y0, x0)] * (1 - wx) + src[np.ix_(y0, x1)] * wx
    bot = src[np.ix_(y1, x0)] * (1 - wx) + src[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bot * wy


def normalize(img: np.ndarray) -> np.ndarray:
    """Map 8-bit range onto [-1, 1]: v/127.5 - 1 (0 -> -1, 255 -> +1 exactly)."""
    return np.asarray(img, dtype=np.float64) / 127.5 - 1.0


# ---------------------------------------------------------------------------
# task datasets
# ---------------------------------------------------------------------------

class TaskClass:
    """One named class of task images, float32 [N, 1, S, S] in [-1, 1].

    `load` is a zero-argument function that builds the images.  It runs
    the first time `.images` is read; its result is checked for
    finiteness, cached, and the loader dropped, so `name` never costs a
    pixel.
    """

    def __init__(self, name: str, load: Callable[[], np.ndarray]):
        self.name = name
        self._images: np.ndarray | None = None
        self._load = load

    @property
    def images(self) -> np.ndarray:
        if self._images is None:
            images = self._load()
            if not np.all(np.isfinite(images)):
                raise ValueError(f"class {self.name!r} produced non-finite pixels")
            self._images, self._load = images, None
        return self._images


@dataclass(frozen=True)
class TaskDataset:
    """Task classes plus the train/validation split over their indices.

    The classes build their images on first access (see `TaskClass`);
    datasets derived with `split_classes` share the same class objects,
    and with them the cached images.
    """

    classes: tuple[TaskClass, ...]
    image_size: int
    train_ids: tuple[int, ...]
    val_ids: tuple[int, ...]

    def class_ids(self, split: str) -> tuple[int, ...]:
        if split == "train":
            return self.train_ids
        if split == "validation":
            return self.val_ids
        raise ValueError(f"unknown split {split!r}")


def _to_task_images(stack: np.ndarray, size: int) -> np.ndarray:
    out = np.empty((stack.shape[0], 1, size, size), dtype=np.float32)
    for i, img in enumerate(stack):
        if img.shape == (size, size):
            resized = np.asarray(img, dtype=np.float64)
        else:
            resized = bilinear_resize(img, size, size)
        out[i, 0] = normalize(resized).astype(np.float32)
    return out


def build_tasks(raw: RawDataset, image_size: int) -> TaskDataset:
    """Task classes that resize + normalize on first access; all classes
    start in the train split."""
    classes = []
    for rc in raw.classes:
        if rc.images.shape[0] < 1:
            raise ValueError(f"class {rc.name!r} has no images")
        classes.append(TaskClass(
            rc.name, load=partial(_to_task_images, rc.images, image_size)))
    return TaskDataset(classes=tuple(classes), image_size=image_size,
                       train_ids=tuple(range(len(classes))), val_ids=())


def idx_to_raw(images: np.ndarray, labels: np.ndarray) -> RawDataset:
    """Group IDX digits into one class per label value."""
    classes = []
    for digit in sorted(set(int(v) for v in np.unique(labels))):
        classes.append(RawClass(name=str(digit),
                                images=np.ascontiguousarray(images[labels == digit])))
    return RawDataset(classes=tuple(classes))


def split_classes(ds: TaskDataset, n_validation: int, seed: int,
                  explicit: list[str] | None = None) -> TaskDataset:
    """Hold out validation classes: uniform without replacement, or by name."""
    n = len(ds.classes)
    if explicit is not None:
        byname = {c.name: i for i, c in enumerate(ds.classes)}
        unknown = [x for x in explicit if x not in byname]
        if unknown:
            raise ValueError(f"unknown validation classes {unknown}")
        repeated = sorted({x for x in explicit if explicit.count(x) > 1})
        if repeated:
            raise ValueError(f"validation classes named more than once: {repeated}")
        val = tuple(sorted(byname[x] for x in explicit))
        if len(val) >= n:
            raise TooManyValidation("every class would be validation")
    else:
        if n_validation >= n:
            raise TooManyValidation(f"{n_validation} validation of {n} classes")
        rng = np.random.default_rng(seed)
        val = tuple(sorted(rng.choice(n, size=n_validation, replace=False).tolist()))
    train = tuple(i for i in range(n) if i not in set(val))
    return replace(ds, train_ids=train, val_ids=val)


def sample_task(ds: TaskDataset, rng: np.random.Generator,
                split: str = "train") -> tuple[int, TaskClass]:
    ids = ds.class_ids(split)
    if not ids:
        raise EmptySplit(f"the {split} split has no classes")
    cid = ids[int(rng.integers(len(ids)))]
    return cid, ds.classes[cid]


def sample_images(task: TaskClass, n: int, rng: np.random.Generator) -> np.ndarray:
    """n images, uniform without replacement (with replacement if the class
    is smaller than n)."""
    count = task.images.shape[0]
    idx = rng.choice(count, size=n, replace=count < n)
    return task.images[idx]


# ---------------------------------------------------------------------------
# synthetic glyph corpus
# ---------------------------------------------------------------------------

def _render_strokes(size: int, strokes: list[dict], rot: float, scale: float,
                    shift: np.ndarray, thick_mul: float) -> np.ndarray:
    """Distance-field rasterizer: white anti-aliased strokes on black."""
    coords = (np.arange(size) + 0.5) / size
    px, py = np.meshgrid(coords, coords)
    pts = np.stack([px, py], axis=-1)           # [S,S,2]
    cos, sin = np.cos(rot), np.sin(rot)
    rotm = np.array([[cos, -sin], [sin, cos]])

    def xform(p):
        return (p - 0.5) @ rotm.T * scale + 0.5 + shift

    aa = 1.2 / size
    ink = np.zeros((size, size))
    for s in strokes:
        r = 0.5 * s["thickness"] * thick_mul * scale
        if s["kind"] == "segment":
            a, b = xform(s["p0"]), xform(s["p1"])
            ab = b - a
            denom = float(ab @ ab) or 1.0
            t = np.clip(((pts - a) @ ab) / denom, 0.0, 1.0)
            near = a + t[..., None] * ab
            d = np.linalg.norm(pts - near, axis=-1)
        else:  # arc
            c = xform(s["center"])
            radius = s["radius"] * scale
            rel = pts - c
            ang = np.arctan2(rel[..., 1], rel[..., 0]) - (s["theta0"] + rot)
            ang = np.mod(ang, 2 * np.pi)
            on_arc = ang <= s["span"]
            d_ring = np.abs(np.linalg.norm(rel, axis=-1) - radius)
            ends = []
            for theta in (s["theta0"] + rot, s["theta0"] + rot + s["span"]):
                e = c + radius * np.array([np.cos(theta), np.sin(theta)])
                ends.append(np.linalg.norm(pts - e, axis=-1))
            d = np.where(on_arc, d_ring, np.minimum(*ends))
        ink = np.maximum(ink, np.clip(1.0 - (d - r) / aa, 0.0, 1.0))
    return np.round(255.0 * ink).astype(np.uint8)


def _class_strokes(rng: np.random.Generator) -> list[dict]:
    strokes = []
    for _ in range(int(rng.integers(2, 5))):
        thickness = float(rng.uniform(0.05, 0.11))
        if rng.uniform() < 0.35:
            strokes.append({
                "kind": "arc",
                "center": rng.uniform(0.3, 0.7, size=2),
                "radius": float(rng.uniform(0.15, 0.3)),
                "theta0": float(rng.uniform(0.0, 2 * np.pi)),
                "span": float(rng.uniform(0.5 * np.pi, 1.5 * np.pi)),
                "thickness": thickness,
            })
        else:
            p0 = rng.uniform(0.15, 0.85, size=2)
            p1 = rng.uniform(0.15, 0.85, size=2)
            if np.linalg.norm(p1 - p0) < 0.25:   # stretch degenerate segments
                p1 = p0 + (p1 - p0 + 0.1) * 3.0
            strokes.append({"kind": "segment", "p0": p0, "p1": np.clip(p1, 0.05, 0.95),
                            "thickness": thickness})
    return strokes


def synth_glyph_image(seed: int, class_idx: int, sample_idx: int, size: int) -> np.ndarray:
    """One deterministic 8-bit glyph: class strokes + per-sample jitter."""
    class_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(class_idx,)))
    strokes = _class_strokes(class_rng)
    jit = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(class_idx, sample_idx)))
    rot = float(jit.uniform(-0.15, 0.15))
    scale = float(jit.uniform(0.88, 1.12))
    shift = jit.uniform(-0.06, 0.06, size=2)
    thick_mul = float(jit.uniform(0.8, 1.25))
    return _render_strokes(size, strokes, rot, scale, shift, thick_mul)


def synth_glyph_dataset(n_classes: int, per_class: int, size: int,
                        seed: int) -> TaskDataset:
    """Deterministic stroke-glyph tasks; stand-in for icon/character corpora.

    Each class renders its glyphs when its images are first read."""
    if size not in (8, 16, 32):
        raise InvalidSize(f"size must be 8, 16 or 32, got {size}")
    if n_classes < 1 or per_class < 1:
        raise ValueError("need at least one class and one image per class")
    classes = tuple(
        TaskClass(f"glyph{c:05d}",
                  load=partial(_synth_class_images, seed, c, per_class, size))
        for c in range(n_classes))
    return TaskDataset(classes=classes, image_size=size,
                       train_ids=tuple(range(n_classes)), val_ids=())


def _synth_class_images(seed: int, class_idx: int, per_class: int,
                        size: int) -> np.ndarray:
    """One synthetic class's loader: render its glyphs, then normalize."""
    stack = np.stack([synth_glyph_image(seed, class_idx, s, size)
                      for s in range(per_class)])
    return _to_task_images(stack, size)


# ---------------------------------------------------------------------------
# file-level helpers
# ---------------------------------------------------------------------------

def load_idx_dir(path: Path) -> RawDataset:
    """Load an MNIST-layout directory (train-images/train-labels idx files)."""
    path = Path(path)
    img_file = path / "train-images-idx3-ubyte"
    lbl_file = path / "train-labels-idx1-ubyte"
    for f in (img_file, lbl_file):
        if not f.exists():
            raise FileNotFoundError(f"missing IDX file {f}")
    images, labels = parse_idx(img_file.read_bytes(), lbl_file.read_bytes())
    return idx_to_raw(images, labels)

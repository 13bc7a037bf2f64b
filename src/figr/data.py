"""Dataset ingestion and task sampling.

Raw corpora arrive as MNIST-style IDX pairs, directories of binary PGM
files, or this package's FGR8 shard container.  Raw 8-bit images are
kept verbatim (shards round-trip bit-exactly); the task pipeline then
resizes with bilinear interpolation, normalizes to [-1, 1], and splits
classes into train/validation pools.  A deterministic synthetic glyph
generator provides desk-scale corpora for experiments.

Every binary format, IDX pairs, FGR8 shards and checkpoints
(`figr.checkpoint`), is parsed from the open file through `ByteReader`,
one bounds-checked cursor that names the byte offset at which a file
ends early.  A class is a (name, uint8 [N, H, W] stack) pair, and each
class's stack, like each checkpoint vector, is one array of its own.  A
class is found by its name, so a shard refuses two classes of one name.

A task class builds its float32 images the first time they are read and
caches them, so splitting classes, looking one up by name or counting
them touches no pixels, and a run pays only for the classes it samples
(a meta-step reads one).  Every image has its own seed, so the order in
which classes are first read cannot change a pixel.
"""

from __future__ import annotations

import io
import struct
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .rng import derive


# ---------------------------------------------------------------------------
# binary files: the shared reader, then IDX (MNIST: big-endian magic, dims, bytes)
# ---------------------------------------------------------------------------

class ByteReader:
    """A cursor over an open binary file `f`, read from its start, that
    raises ValueError naming `what` rather than read past its end.

    Each call reads only its own bytes.  `array` checks the bytes left
    before it allocates the new array that `readinto` fills, so that array
    is the only copy of its bytes.  A file cut while it is read raises too.
    `skip` checks the bytes left the same way, then seeks past them unread.
    """

    def __init__(self, f, what: str):
        self.f, self.what = f, what
        self.size = f.seek(0, io.SEEK_END)
        self.pos = f.seek(0)

    def _check(self, n: int, end: int) -> None:
        if self.pos + n > end:
            raise ValueError(f"{self.what} truncated: {n} bytes wanted at byte {self.pos}, "
                             f"but it ends at byte {end}")

    def take(self, n: int) -> bytes:
        return self.array(n, np.uint8).tobytes()

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, count: int, dtype) -> np.ndarray:
        self._check(count * np.dtype(dtype).itemsize, self.size)
        out = np.empty(count, dtype=dtype)
        self._check(out.nbytes, self.pos + self.f.readinto(memoryview(out).cast("B")))
        self.pos += out.nbytes
        return out

    def skip(self, n: int) -> None:
        self._check(n, self.size)
        self.pos = self.f.seek(self.pos + n)


IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


def parse_idx(image_file, label_file) -> tuple[np.ndarray, np.ndarray]:
    """Parse paired IDX image/label files, open and binary, each read from
    its start -> (uint8 [N,H,W], uint8 [N])."""
    r = ByteReader(image_file, "IDX image file")
    magic, count, rows, cols = r.unpack(">IIII")
    if magic != IDX_IMAGE_MAGIC:
        raise ValueError(f"image magic 0x{magic:08x} != 0x{IDX_IMAGE_MAGIC:08x}")
    images = r.array(count * rows * cols, np.uint8).reshape(count, rows, cols)

    r = ByteReader(label_file, "IDX label file")
    lmagic, lcount = r.unpack(">II")
    if lmagic != IDX_LABEL_MAGIC:
        raise ValueError(f"label magic 0x{lmagic:08x} != 0x{IDX_LABEL_MAGIC:08x}")
    labels = r.array(lcount, np.uint8)
    if lcount != count:
        raise ValueError(f"{count} images vs {lcount} labels")
    return images, labels


# ---------------------------------------------------------------------------
# PGM (binary P5, maxval 255)
# ---------------------------------------------------------------------------

def read_pgm(data: bytes) -> np.ndarray:
    """Parse binary PGM; '#' comments are skipped between header tokens."""
    if not data.startswith(b"P5"):
        raise ValueError("not a binary PGM (P5) file")
    tokens: list[int] = []
    pos = 2
    while len(tokens) < 3:
        if pos >= len(data):
            raise ValueError("PGM header ended early")
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
            raise ValueError(f"unexpected byte {ch!r} in PGM header")
    width, height, maxval = tokens
    if maxval != 255:
        raise ValueError(f"only maxval 255 PGMs are supported, got {maxval}")
    pos += 1  # single whitespace byte separates header from raster
    if len(data) - pos < width * height:
        raise ValueError(f"PGM raster has {len(data) - pos} of {width * height} bytes")
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


def _check_not_empty(name: str, images: np.ndarray) -> None:
    if 0 in images.shape:
        raise ValueError(f"class {name!r} has no images or no pixels: {images.shape}")


def _check_unique(classes: list[tuple[str, np.ndarray]]) -> None:
    repeated = sorted(k for k, n in Counter(name for name, _ in classes).items() if n > 1)
    if repeated:
        raise ValueError(f"class names {repeated} appear more than once in the shard")


def pack_shard(classes: list[tuple[str, np.ndarray]]) -> bytes:
    """Serialize (name, uint8 image stack) pairs; load_shard inverts bit-exactly."""
    if not classes:
        raise ValueError("a shard needs at least one class")
    _check_unique(classes)
    out = bytearray(SHARD_MAGIC + struct.pack("<II", SHARD_VERSION, len(classes)))
    for name, images in classes:
        images = np.asarray(images)
        if images.ndim != 3 or images.dtype != np.uint8:
            raise ValueError(f"class {name!r} must be uint8 [N,H,W]")
        _check_not_empty(name, images)
        encoded = name.encode("utf-8")
        try:
            out += struct.pack("<H", len(encoded)) + encoded + struct.pack("<IHH", *images.shape)
        except struct.error as exc:
            raise ValueError(f"class {name!r} (a {len(encoded)}-byte name, images "
                             f"{images.shape}) does not fit a shard header: {exc}") from None
        out += images.tobytes()
    return bytes(out)


def load_shard(f) -> list[tuple[str, np.ndarray]]:
    """Parse a shard from the start of an open binary file -> (name, uint8
    [N,H,W]) pairs, each class's images read into an array of their own."""
    r = ByteReader(f, "shard")
    magic = r.take(4)
    if magic != SHARD_MAGIC:
        raise ValueError(f"shard magic {magic!r} != {SHARD_MAGIC!r}")
    version, n_classes = r.unpack("<II")
    if version != SHARD_VERSION:
        raise ValueError(f"shard version {version} unsupported")
    if n_classes == 0:
        raise ValueError("shard holds no classes")
    classes = []
    for _ in range(n_classes):
        name = r.take(*r.unpack("<H")).decode("utf-8")
        n, h, w = r.unpack("<IHH")
        images = r.array(n * h * w, np.uint8).reshape(n, h, w)
        _check_not_empty(name, images)
        classes.append((name, images))
    _check_unique(classes)
    if r.pos != r.size:
        raise ValueError(f"shard has {r.size - r.pos} trailing bytes")
    return classes


def read_class_dirs(root: Path) -> list[tuple[str, np.ndarray]]:
    """Read subdirectories of PGM files as (name, uint8 stack) pairs; one
    class per directory."""
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
    return classes


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
    train_ids: tuple[int, ...]
    val_ids: tuple[int, ...]

    def class_ids(self, split: str) -> tuple[int, ...]:
        if split not in ("train", "validation"):
            raise ValueError(f"unknown split {split!r}")
        return self.train_ids if split == "train" else self.val_ids


def _to_task_images(stack: np.ndarray, size: int) -> np.ndarray:
    """Resize and normalize; at the source size the resize is the identity."""
    out = np.empty((stack.shape[0], 1, size, size), dtype=np.float32)
    for i, img in enumerate(stack):
        out[i, 0] = normalize(bilinear_resize(img, size, size)).astype(np.float32)
    return out


def build_tasks(classes: list[tuple[str, np.ndarray]], image_size: int) -> TaskDataset:
    """Task classes from (name, uint8 stack) pairs that resize + normalize
    on first access; all classes start in the train split."""
    tasks = []
    for name, images in classes:
        _check_not_empty(name, images)
        tasks.append(TaskClass(name, load=partial(_to_task_images, images, image_size)))
    return TaskDataset(classes=tuple(tasks), train_ids=tuple(range(len(tasks))), val_ids=())


def idx_to_raw(images: np.ndarray, labels: np.ndarray) -> list[tuple[str, np.ndarray]]:
    """Group IDX digits into one (name, images) class per label value."""
    return [(str(digit), images[labels == digit]) for digit in np.unique(labels).tolist()]


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
            raise ValueError("every class would be validation")
    else:
        if n_validation >= n:
            raise ValueError(f"{n_validation} validation of {n} classes")
        val = tuple(sorted(derive(seed).choice(n, size=n_validation, replace=False).tolist()))
    train = tuple(i for i in range(n) if i not in set(val))
    return replace(ds, train_ids=train, val_ids=val)


def sample_task(ds: TaskDataset, rng: np.random.Generator,
                split: str = "train") -> tuple[int, TaskClass]:
    ids = ds.class_ids(split)
    if not ids:
        raise ValueError(f"the {split} split has no classes")
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
    strokes = _class_strokes(derive(seed, class_idx))
    jit = derive(seed, class_idx, sample_idx)
    rot = float(jit.uniform(-0.15, 0.15))
    scale = float(jit.uniform(0.88, 1.12))
    shift = jit.uniform(-0.06, 0.06, size=2)
    thick_mul = float(jit.uniform(0.8, 1.25))
    return _render_strokes(size, strokes, rot, scale, shift, thick_mul)


def synth_glyph_dataset(n_classes: int, per_class: int, size: int,
                        seed: int) -> TaskDataset:
    """Deterministic stroke-glyph tasks; stand-in for icon/character corpora.

    Each class renders its glyphs when its images are first read."""
    if n_classes < 1 or per_class < 1:
        raise ValueError("need at least one class and one image per class")
    classes = tuple(
        TaskClass(f"glyph{c:05d}",
                  load=partial(_synth_class_images, seed, c, per_class, size))
        for c in range(n_classes))
    return TaskDataset(classes=classes, train_ids=tuple(range(n_classes)), val_ids=())


def _synth_class_images(seed: int, class_idx: int, per_class: int,
                        size: int) -> np.ndarray:
    """One synthetic class's loader: render its glyphs, then normalize."""
    stack = np.stack([synth_glyph_image(seed, class_idx, s, size)
                      for s in range(per_class)])
    return _to_task_images(stack, size)


# ---------------------------------------------------------------------------
# file-level helpers
# ---------------------------------------------------------------------------

def load_idx_dir(path: Path) -> list[tuple[str, np.ndarray]]:
    """Load an MNIST-layout directory (train-images/train-labels idx files)."""
    path = Path(path)
    with open(path / "train-images-idx3-ubyte", "rb") as images, \
            open(path / "train-labels-idx1-ubyte", "rb") as labels:
        return idx_to_raw(*parse_idx(images, labels))

import hashlib
import io
import os
import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import figr.data
from figr.checkpoint import load_checkpoint, save_checkpoint
from figr.config import RunConfig, build_dataset
from figr.data import (
    ByteReader,
    bilinear_resize,
    build_tasks,
    idx_to_raw,
    load_shard,
    normalize,
    pack_shard,
    parse_idx,
    read_class_dirs,
    read_pgm,
    sample_images,
    sample_task,
    split_classes,
    synth_glyph_dataset,
    synth_glyph_image,
    write_pgm,
)
from figr.config import RunConfig
from figr.models import Discriminator, Generator
from figr.reptile import init_meta_state


def make_idx_pair(images: np.ndarray, labels: np.ndarray) -> tuple[bytes, bytes]:
    n, h, w = images.shape
    img = struct.pack(">IIII", 0x803, n, h, w) + images.astype(np.uint8).tobytes()
    lbl = struct.pack(">II", 0x801, len(labels)) + bytes(int(v) for v in labels)
    return img, lbl


def parse_idx_bytes(img_b: bytes, lbl_b: bytes):
    return parse_idx(io.BytesIO(img_b), io.BytesIO(lbl_b))


def load_shard_bytes(blob: bytes):
    return load_shard(io.BytesIO(blob))


class TestIdx:
    def test_round_trip_fixture(self):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(2, 4, 3), dtype=np.uint8)
        img_b, lbl_b = make_idx_pair(images, [7, 1])
        out, labels = parse_idx_bytes(img_b, lbl_b)
        np.testing.assert_array_equal(out, images)
        np.testing.assert_array_equal(labels, [7, 1])

    def test_reads_real_files(self, tmp_path):
        images = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        for name, blob in zip(("images", "labels"), make_idx_pair(images, [4, 2])):
            (tmp_path / name).write_bytes(blob)
        with open(tmp_path / "images", "rb") as fi, open(tmp_path / "labels", "rb") as fl:
            out, labels = parse_idx(fi, fl)
        np.testing.assert_array_equal(out, images)
        np.testing.assert_array_equal(labels, [4, 2])

    def test_bad_magic(self):
        img_b, lbl_b = make_idx_pair(np.zeros((1, 2, 2), np.uint8), [0])
        with pytest.raises(ValueError, match="^image magic 0x00000903 != 0x00000803$"):
            parse_idx_bytes(b"\x00\x00\x09\x03" + img_b[4:], lbl_b)
        with pytest.raises(ValueError, match="^label magic 0x00000901 != 0x00000801$"):
            parse_idx_bytes(img_b, b"\x00\x00\x09\x01" + lbl_b[4:])

    def test_truncated_body(self):
        img_b, lbl_b = make_idx_pair(np.zeros((3, 5, 5), np.uint8), [0, 1, 2])
        with pytest.raises(ValueError, match="^IDX image file truncated: 75 bytes wanted at "
                                             "byte 16, but it ends at byte 90$"):
            parse_idx_bytes(img_b[:-1], lbl_b)
        with pytest.raises(ValueError, match="^IDX label file truncated: 3 bytes wanted at "
                                             "byte 8, but it ends at byte 10$"):
            parse_idx_bytes(img_b, lbl_b[:-1])

    def test_count_mismatch(self):
        img_b, _ = make_idx_pair(np.zeros((2, 2, 2), np.uint8), [0, 1])
        _, lbl_b = make_idx_pair(np.zeros((3, 2, 2), np.uint8), [0, 1, 2])
        with pytest.raises(ValueError, match="^2 images vs 3 labels$"):
            parse_idx_bytes(img_b, lbl_b)

    def test_grouping_by_digit(self):
        images = np.arange(4 * 4 * 3, dtype=np.uint8).reshape(3, 4, 4)
        classes = idx_to_raw(images, np.array([9, 0, 9], dtype=np.uint8))
        assert [name for name, _ in classes] == ["0", "9"]
        np.testing.assert_array_equal(classes[1][1], images[[0, 2]])


class TestPgm:
    def test_round_trip(self):
        img = np.random.default_rng(1).integers(0, 256, size=(5, 7), dtype=np.uint8)
        np.testing.assert_array_equal(read_pgm(write_pgm(img)), img)

    def test_comments_skipped(self):
        img = np.arange(6, dtype=np.uint8).reshape(2, 3)
        data = b"P5\n# a comment\n3 # trailing\n2\n255\n" + img.tobytes()
        np.testing.assert_array_equal(read_pgm(data), img)

    def test_wrong_magic(self):
        with pytest.raises(ValueError, match=r"^not a binary PGM \(P5\) file$"):
            read_pgm(b"P2\n2 2\n255\n....")

    def test_wide_maxval_rejected(self):
        with pytest.raises(ValueError, match="^only maxval 255 PGMs are supported, got 65535$"):
            read_pgm(b"P5\n1 1\n65535\n\x00\x00")


class TestShard:
    def sample_classes(self):
        rng = np.random.default_rng(2)
        return [
            ("alpha", rng.integers(0, 256, size=(3, 4, 5), dtype=np.uint8)),
            ("beta-é", rng.integers(0, 256, size=(2, 6, 6), dtype=np.uint8)),
        ]

    def test_round_trip_bit_exact(self, tmp_path):
        classes = self.sample_classes()
        blob = pack_shard(classes)
        (tmp_path / "s.fgr8").write_bytes(blob)
        with open(tmp_path / "s.fgr8", "rb") as f:
            loaded = load_shard(f)
        assert [name for name, _ in loaded] == [name for name, _ in classes]
        for (_, got), (_, want) in zip(loaded, classes):
            np.testing.assert_array_equal(got, want)
        assert pack_shard(loaded) == blob

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="^shard magic b'NOPE' != b'FGR8'$"):
            load_shard_bytes(b"NOPE" + b"\x00" * 20)

    def test_unsupported_version(self):
        blob = bytearray(pack_shard(self.sample_classes()))
        blob[4] = 99
        with pytest.raises(ValueError, match="^shard version 99 unsupported$"):
            load_shard_bytes(bytes(blob))

    def test_truncated(self):
        blob = pack_shard(self.sample_classes())
        with pytest.raises(ValueError, match=f"^shard truncated: 72 bytes wanted at byte "
                                             f"{len(blob) - 72}, "):
            load_shard_bytes(blob[:-3])

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            pack_shard([("empty", np.zeros((0, 2, 2), dtype=np.uint8))])

    @pytest.mark.parametrize("shape", [(2, 0, 0), (2, 0, 3), (2, 3, 0)])
    def test_images_without_pixels_rejected(self, shape):
        with pytest.raises(ValueError, match="'flat' has no images or no pixels"):
            pack_shard([("ok", np.zeros((1, 2, 2), np.uint8)),
                        ("flat", np.zeros(shape, np.uint8))])

    @pytest.mark.parametrize("shape", [(0, 2, 2), (2, 0, 3), (2, 3, 0)])
    def test_load_refuses_class_pack_refuses(self, shape):
        # written by hand, since pack_shard refuses such a class
        blob = pack_shard([("ok", np.zeros((1, 2, 2), np.uint8))])
        blob = blob[:8] + struct.pack("<I", 2) + blob[12:]
        blob += struct.pack("<H", 4) + b"flat" + struct.pack("<IHH", *shape)
        with pytest.raises(ValueError, match="'flat' has no images or no pixels"):
            load_shard_bytes(blob)

    def test_trailing_bytes_rejected(self):
        blob = pack_shard(self.sample_classes())
        with pytest.raises(ValueError, match="4 trailing bytes"):
            load_shard_bytes(blob + b"junk")

    def test_each_class_is_its_own_allocation(self):
        twice = self.sample_classes() + [(f"{name}-2", images)
                                         for name, images in self.sample_classes()]
        loaded = load_shard_bytes(pack_shard(twice))
        for i, (_, images) in enumerate(loaded):
            own = images if images.base is None else images.base
            assert own.flags.owndata and own.nbytes == images.nbytes
            assert images.flags.writeable
            assert not any(np.shares_memory(images, other) for _, other in loaded[i + 1:])

    @pytest.mark.parametrize("name,shape", [("x" * 70000, (1, 2, 2)), ("wide", (1, 1, 70000))])
    def test_header_field_out_of_range_rejected(self, name, shape):
        with pytest.raises(ValueError, match=f"class '{name[:8]}.*does not fit a shard header"):
            pack_shard([("ok", np.zeros((1, 2, 2), np.uint8)),
                        (name, np.zeros(shape, np.uint8))])

    def test_repeated_class_name_rejected(self):
        # split_classes and `figr generate --class-name` find a class by its
        # name, so a namesake would stay in the other split or go unseen
        a, b = self.sample_classes()
        with pytest.raises(ValueError, match=r"class names \['alpha'\] appear more than once"):
            pack_shard([a, b, a])
        blob = pack_shard([a, b])
        blob = blob[:8] + struct.pack("<I", 3) + blob[12:] + blob[12:12 + 2 + 5 + 8 + 60]
        with pytest.raises(ValueError, match=r"class names \['alpha'\] appear more than once"):
            load_shard_bytes(blob)

    def test_shard_without_classes_rejected(self):
        with pytest.raises(ValueError, match="at least one class"):
            pack_shard([])
        with pytest.raises(ValueError, match="no classes"):
            load_shard_bytes(b"FGR8" + struct.pack("<II", 1, 0))

    def test_read_class_dirs(self, tmp_path):
        rng = np.random.default_rng(3)
        for cname in ("cat", "dog"):
            d = tmp_path / cname
            d.mkdir()
            for i in range(3):
                img = rng.integers(0, 256, size=(4, 4), dtype=np.uint8)
                (d / f"{i}.pgm").write_bytes(write_pgm(img))
        classes = read_class_dirs(tmp_path)
        assert [name for name, _ in classes] == ["cat", "dog"]
        assert all(images.shape == (3, 4, 4) for _, images in classes)
        np.testing.assert_array_equal(
            classes[1][1][2], read_pgm((tmp_path / "dog" / "2.pgm").read_bytes()))

    def test_empty_dir_rejected(self, tmp_path):
        (tmp_path / "void").mkdir()
        with pytest.raises(ValueError):
            read_class_dirs(tmp_path)


def resize_reference(img, out_h, out_w):
    """Per-pixel half-pixel-centers oracle, deliberately scalar."""
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    out = np.zeros((out_h, out_w))
    for oy in range(out_h):
        for ox in range(out_w):
            sy = min(max((oy + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
            sx = min(max((ox + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            dy, dx = sy - y0, sx - x0
            out[oy, ox] = (img[y0, x0] * (1 - dy) * (1 - dx)
                           + img[y0, x1] * (1 - dy) * dx
                           + img[y1, x0] * dy * (1 - dx)
                           + img[y1, x1] * dy * dx)
    return out


class TestResize:
    def test_same_size_identity(self):
        img = np.random.default_rng(4).standard_normal((9, 9))
        np.testing.assert_array_equal(bilinear_resize(img, 9, 9), img)
        # the task pipeline resizes 8-bit images of the target size too: each
        # sample lands on a source pixel and gives its neighbour weight 0
        for shape in [(1, 1), (8, 8), (28, 28), (32, 32), (5, 13)]:
            img = np.random.default_rng(sum(shape)).integers(0, 256, size=shape,
                                                             dtype=np.uint8)
            np.testing.assert_array_equal(bilinear_resize(img, *shape),
                                          img.astype(np.float64))

    def test_constant_stays_constant(self):
        img = np.full((5, 8), 42.0)
        np.testing.assert_array_equal(bilinear_resize(img, 3, 11), 42.0)

    def test_ramp_downsize_matches_oracle(self):
        img = np.arange(16, dtype=np.float64).reshape(4, 4)
        np.testing.assert_allclose(bilinear_resize(img, 2, 2),
                                   resize_reference(img, 2, 2), rtol=1e-12)

    @pytest.mark.parametrize("src,dst", [(28, 32), (32, 64), (64, 32), (200, 32)])
    def test_matches_oracle_across_geometries(self, src, dst):
        rng = np.random.default_rng(src * 1000 + dst)
        img = rng.integers(0, 256, size=(src, src)).astype(np.float64)
        got = bilinear_resize(img, dst, dst)
        want = resize_reference(img, dst, dst)
        denom = np.maximum(np.abs(want), 1e-12)
        assert np.max(np.abs(got - want) / denom) < 1e-6

    def test_rectangular(self):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, size=(7, 13)).astype(np.float64)
        np.testing.assert_allclose(bilinear_resize(img, 4, 5),
                                   resize_reference(img, 4, 5), rtol=1e-12)


class TestNormalize:
    def test_endpoints_exact(self):
        out = normalize(np.array([0, 255], dtype=np.uint8))
        assert out[0] == -1.0 and out[1] == 1.0

    def test_quantized_round_trip(self):
        values = np.arange(256, dtype=np.uint8)
        back = np.round(127.5 * (normalize(values) + 1.0))
        np.testing.assert_array_equal(back.astype(np.uint8), values)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 255))
    def test_range_property(self, v):
        x = normalize(np.array([v], dtype=np.uint8))[0]
        assert -1.0 <= x <= 1.0


class TestTaskDataset:
    def raw(self, n_classes=5, per_class=4, size=10):
        rng = np.random.default_rng(6)
        return [(f"c{i}", rng.integers(0, 256, size=(per_class, size, size), dtype=np.uint8))
                for i in range(n_classes)]

    def test_build_normalizes(self):
        ds = build_tasks(self.raw(), image_size=8)
        for c in ds.classes:
            assert c.images.shape == (4, 1, 8, 8)
            assert c.images.dtype == np.float32
            assert np.all(c.images >= -1.0) and np.all(c.images <= 1.0)

    def test_split_is_partition(self):
        ds = split_classes(build_tasks(self.raw(20), 8), n_validation=6, seed=3)
        assert set(ds.train_ids) | set(ds.val_ids) == set(range(20))
        assert set(ds.train_ids) & set(ds.val_ids) == set()
        assert len(ds.val_ids) == 6

    def test_split_deterministic(self):
        base = build_tasks(self.raw(20), 8)
        a = split_classes(base, 6, seed=9)
        b = split_classes(base, 6, seed=9)
        assert a.val_ids == b.val_ids

    def test_split_zero_validation(self):
        ds = split_classes(build_tasks(self.raw(4), 8), 0, seed=0)
        assert ds.val_ids == () and len(ds.train_ids) == 4

    def test_omniglot_sized_split(self):
        # 1623 character classes minus 20 held out leaves 1603 training classes
        classes = [(f"ch{i}", np.zeros((1, 4, 4), np.uint8)) for i in range(1623)]
        ds = split_classes(build_tasks(classes, 8), 20, seed=1)
        assert len(ds.train_ids) == 1603
        assert len(ds.val_ids) == 20

    def test_explicit_class_split(self):
        ds = split_classes(build_tasks(self.raw(10), 8), 0, seed=0, explicit=["c9"])
        assert ds.val_ids == (9,)
        assert 9 not in ds.train_ids

    def test_repeated_explicit_class_rejected(self):
        # a repeated name would score that class twice in `figr eval`
        with pytest.raises(ValueError, match="c1"):
            split_classes(build_tasks(self.raw(5), 8), 0, seed=0,
                          explicit=["c1", "c1"])

    def test_too_many_validation(self):
        with pytest.raises(ValueError, match="^3 validation of 3 classes$"):
            split_classes(build_tasks(self.raw(3), 8), 3, seed=0)

    def test_sample_task_and_images(self):
        ds = split_classes(build_tasks(self.raw(6, per_class=4), 8), 2, seed=0)
        rng = np.random.default_rng(7)
        cid, task = sample_task(ds, rng, split="validation")
        assert cid in ds.val_ids
        imgs = sample_images(task, 4, rng)
        assert imgs.shape == (4, 1, 8, 8)
        # class with exactly n images yields all of them, in some order
        np.testing.assert_allclose(np.sort(imgs.sum(axis=(1, 2, 3))),
                                   np.sort(task.images.sum(axis=(1, 2, 3))))

    def test_small_class_samples_with_replacement(self):
        ds = build_tasks(self.raw(1, per_class=2), 8)
        imgs = sample_images(ds.classes[0], 5, np.random.default_rng(8))
        assert imgs.shape[0] == 5

    def test_empty_split(self):
        ds = build_tasks(self.raw(2), 8)
        with pytest.raises(ValueError, match="^the validation split has no classes$"):
            sample_task(ds, np.random.default_rng(0), split="validation")

    def test_task_sampling_uniformity(self):
        # binomial bound: each class frequency within 5 sigma of uniform
        k = 8
        draws = 20_000
        ds = build_tasks(self.raw(k, per_class=1), 8)
        rng = np.random.default_rng(9)
        counts = np.zeros(k)
        for _ in range(draws):
            cid, _ = sample_task(ds, rng)
            counts[cid] += 1
        p = 1.0 / k
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) < 5 * sigma)


class TestLazyTasks:
    """Task classes build their images on first access and cache them."""

    @pytest.mark.parametrize("source", ["idx", "shard"])
    def test_build_tasks_matches_eager_pipeline(self, source, monkeypatch):
        rng = np.random.default_rng(2)
        if source == "idx":
            images = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
            raw = idx_to_raw(*parse_idx_bytes(*make_idx_pair(images, [7, 1, 7, 3, 1])))
        else:
            raw = load_shard_bytes(pack_shard(TestShard().sample_classes()))
        calls = []
        real = figr.data.bilinear_resize
        monkeypatch.setattr(figr.data, "bilinear_resize",
                            lambda *a: calls.append(1) or real(*a))
        ds = build_tasks(raw, image_size=8)
        assert [c.name for c in ds.classes] == [name for name, _ in raw]
        assert calls == []
        first = ds.classes[0].images
        assert len(calls) == raw[0][1].shape[0]
        assert ds.classes[0].images is first
        for got, (_, images) in zip(ds.classes, raw):
            want = [normalize(real(img, 8, 8)).astype(np.float32) for img in images]
            np.testing.assert_array_equal(got.images[:, 0], np.stack(want))

    def test_non_finite_load_rejected(self):
        task = figr.data.TaskClass("c", load=lambda: np.full((1, 1, 2, 2), np.inf))
        with pytest.raises(ValueError, match="'c' produced non-finite"):
            task.images

    def test_empty_class_rejected_before_any_pixel(self):
        with pytest.raises(ValueError, match="no images"):
            build_tasks([("void", np.zeros((0, 4, 4), np.uint8))], 8)

    @pytest.mark.parametrize("source", ["idx", "shard"])
    def test_images_without_pixels_rejected(self, source):
        if source == "idx":
            raw = idx_to_raw(*parse_idx_bytes(*make_idx_pair(np.zeros((3, 0, 5), np.uint8),
                                                             [4, 4, 2])))
        else:
            raw = [("flat", np.zeros((2, 0, 4), np.uint8))]
        with pytest.raises(ValueError, match="no pixels"):
            build_tasks(raw, 8)

    def test_default_build_renders_nothing(self, monkeypatch):
        calls = []
        real = figr.data.synth_glyph_image
        monkeypatch.setattr(figr.data, "synth_glyph_image",
                            lambda *a: calls.append(a) or real(*a))
        ds = build_dataset(RunConfig())
        assert len(ds.classes) == 200 and len(ds.val_ids) == 10
        assert calls == []
        task = ds.classes[ds.val_ids[0]]
        assert task.images is task.images
        assert len(calls) == RunConfig().synth_per_class

    # sha256 over every class's images in class order, taken from the
    # eager renderer; first access must not change a byte
    @pytest.mark.parametrize("args,digest", [
        ((200, 16, 32, 0),
         "37c28b3ebccefd1e3d2b3a87b36e00df69754dbfa5ee76a358e17c7d853e1686"),
        ((6, 4, 8, 0),
         "65b2842ab270b024d1872e28ef388eff4ff8a1b719f10c66281797c58c63e14f"),
    ])
    def test_synth_images_match_eager_digest(self, args, digest):
        ds = synth_glyph_dataset(*args)
        h = hashlib.sha256()
        for c in reversed(ds.classes):      # touch order must not matter
            c.images
        for c in ds.classes:
            h.update(c.images.tobytes())
        assert h.hexdigest() == digest


class TestBuildDataset:
    """`dataset_path` picks the reader: empty is the synthetic glyphs, a
    directory an IDX pair, and anything else a shard."""

    CFG = RunConfig(image_size=8, latent_dim=4, base_width=4, n_blocks=1,
                    synth_classes=6, synth_per_class=4, n_validation=1)

    def test_empty_path_is_synth(self):
        ds = build_dataset(self.CFG)
        assert [c.name for c in ds.classes] == [
            c.name for c in synth_glyph_dataset(6, 4, 8, seed=0).classes]

    def test_directory_is_an_idx_pair(self, tmp_path):
        images = np.random.default_rng(1).integers(0, 256, size=(5, 4, 4), dtype=np.uint8)
        for name, blob in zip(("images-idx3", "labels-idx1"),
                              make_idx_pair(images, [7, 1, 7, 3, 1])):
            (tmp_path / f"train-{name}-ubyte").write_bytes(blob)
        ds = build_dataset(replace(self.CFG, dataset_path=str(tmp_path)))
        assert [c.name for c in ds.classes] == ["1", "3", "7"]
        assert [len(c.images) for c in ds.classes] == [2, 1, 2]

    def test_file_is_a_shard(self, tmp_path):
        classes = TestShard().sample_classes()
        (tmp_path / "a.fgr8").write_bytes(pack_shard(classes))
        ds = build_dataset(replace(self.CFG, dataset_path=str(tmp_path / "a.fgr8")))
        assert [c.name for c in ds.classes] == [name for name, _ in classes]


class TestSynthGlyphs:
    def test_deterministic(self):
        a = synth_glyph_image(5, 3, 2, 16)
        b = synth_glyph_image(5, 3, 2, 16)
        np.testing.assert_array_equal(a, b)

    def test_samples_differ_within_class(self):
        a = synth_glyph_image(5, 3, 0, 16)
        b = synth_glyph_image(5, 3, 1, 16)
        assert not np.array_equal(a, b)

    def test_64px_class(self):
        # the distance-field renderer draws at any size the config accepts
        images = synth_glyph_dataset(2, 3, 64, seed=0).classes[1].images
        assert images.shape == (3, 1, 64, 64) and images.dtype == np.float32
        assert images.min() == -1.0 and images.max() == 1.0

    def test_dataset_shape_and_range(self):
        ds = synth_glyph_dataset(3, 4, 16, seed=11)
        assert len(ds.classes) == 3
        for c in ds.classes:
            assert c.images.shape == (4, 1, 16, 16)
            assert np.all(c.images >= -1.0) and np.all(c.images <= 1.0)

    def test_within_class_tighter_than_across(self):
        # mean |pixel delta| within a class should undercut the across-class mean
        n_classes, per_class, size = 100, 2, 16
        ds = synth_glyph_dataset(n_classes, per_class, size, seed=13)
        flat = np.stack([c.images.reshape(per_class, -1) for c in ds.classes])
        within = np.mean([np.mean(np.abs(flat[c, 0] - flat[c, 1]))
                          for c in range(n_classes)])
        rng = np.random.default_rng(14)
        pairs = rng.choice(n_classes, size=(200, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        across = np.mean([np.mean(np.abs(flat[a, 0] - flat[b, 0]))
                          for a, b in pairs])
        assert within < across

    def test_minimum_class_size_profile(self):
        # icon-corpus style floor: every class carries at least 8 usable images
        ds = synth_glyph_dataset(5, 8, 16, seed=15)
        assert all(c.images.shape[0] >= 8 for c in ds.classes)


class TestByteReader:
    def test_reads_a_file_in_order_into_new_arrays(self):
        f = io.BytesIO(b"ab" + struct.pack("<IH", 7, 9) + bytes([1, 2, 3]) + b"\x00" * 8)
        r = ByteReader(f, "blob")
        assert r.take(2) == b"ab"
        assert r.unpack("<IH") == (7, 9)
        arr = r.array(3, np.uint8)
        np.testing.assert_array_equal(arr, [1, 2, 3])
        assert arr.flags.owndata and arr.flags.writeable
        assert r.take(0) == b"" and r.array(0, np.float64).shape == (0,)
        assert r.pos == f.tell() == 11
        np.testing.assert_array_equal(r.array(1, np.float64), [0.0])
        assert r.pos == f.tell() == r.size == 19

    def test_overrun_raises_naming_what_and_offset(self):
        r = ByteReader(io.BytesIO(b"\x00" * 10), "checkpoint")
        r.take(6)
        with pytest.raises(ValueError, match="^checkpoint truncated: 8 bytes wanted at "
                                             "byte 6, but it ends at byte 10$"):
            r.unpack("<Q")
        with pytest.raises(ValueError, match="^checkpoint truncated: 6000000000 bytes wanted "
                                             "at byte 6"):
            r.array(750_000_000, np.float64)
        assert r.pos == 6

    def test_file_overrun_raises_before_reading(self):
        f = io.BytesIO(b"\x00" * 10)
        r = ByteReader(f, "checkpoint")
        r.take(6)
        with pytest.raises(ValueError, match="^checkpoint truncated: 6000000000 bytes wanted "
                                             "at byte 6, but it ends at byte 10$"):
            r.array(750_000_000, np.float64)
        assert r.pos == f.tell() == 6

    def test_file_cut_while_read_raises(self, tmp_path):
        # the size is taken when the reader starts; a later cut shows as a short read
        path = tmp_path / "blob"
        path.write_bytes(bytes(range(16)))
        with open(path, "rb") as f:
            r = ByteReader(f, "blob")
            os.truncate(path, 9)
            r.take(4)
            with pytest.raises(ValueError, match="^blob truncated: 8 bytes wanted at byte 4, "
                                                 "but it ends at byte 9$"):
                r.array(2, np.float32)


def _tiny_checkpoint() -> bytes:
    cfg = RunConfig(image_size=8, latent_dim=4, base_width=4, n_blocks=1)
    init = np.random.default_rng(5)
    state = init_meta_state(Discriminator(cfg).init_params(init),
                            Generator(cfg).init_params(init))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tiny.figr"
        save_checkpoint(path, state, b"\x07" * 32)
        return path.read_bytes()


def load_checkpoint_bytes(blob: bytes):
    """load_checkpoint of a file holding blob."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "blob.figr"
        path.write_bytes(blob)
        return load_checkpoint(path)


class TestCorruptFiles:
    """A damaged IDX pair, shard or checkpoint fails with a ValueError
    (exit 2 from the CLI), never with struct.error, IndexError or MemoryError."""

    IMAGES = np.random.default_rng(11).integers(0, 256, size=(3, 4, 5), dtype=np.uint8)
    IDX_IMAGES, IDX_LABELS = make_idx_pair(IMAGES, [1, 0, 1])
    SHARD = pack_shard(TestShard().sample_classes())
    CKPT = _tiny_checkpoint()
    PARSERS = {
        "idx-images": (IDX_IMAGES, lambda b: parse_idx_bytes(b, TestCorruptFiles.IDX_LABELS)),
        "idx-labels": (IDX_LABELS, lambda b: parse_idx_bytes(TestCorruptFiles.IDX_IMAGES, b)),
        "shard": (SHARD, load_shard_bytes),
        "checkpoint": (CKPT, load_checkpoint_bytes),
    }

    @pytest.mark.parametrize("name", ["idx-images", "idx-labels", "shard"])
    def test_every_prefix(self, name):
        blob, parse = self.PARSERS[name]
        for end in range(len(blob)):
            with pytest.raises(ValueError):
                parse(blob[:end])

    def test_checkpoint_header_and_tail_prefixes(self):
        # magic, version, fingerprint, step, dtype tag and the first length;
        # then the generator's last moment value, which ends the file
        ends = [*range(4 + 4 + 32 + 8 + 1 + 8), *range(len(self.CKPT) - 8, len(self.CKPT))]
        for end in ends:
            with pytest.raises(ValueError, match="^checkpoint truncated: "):
                load_checkpoint_bytes(self.CKPT[:end])

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(PARSERS)), st.data())
    def test_truncation_or_changed_byte(self, name, data):
        blob, parse = self.PARSERS[name]
        pos = data.draw(st.integers(0, len(blob) - 1))
        if data.draw(st.booleans()):
            blob = blob[:pos]
        else:
            blob = blob[:pos] + bytes([data.draw(st.integers(0, 255))]) + blob[pos + 1:]
        try:
            parse(blob)
        except ValueError:
            pass        # refused, and the CLI exits 2; any other error fails the test

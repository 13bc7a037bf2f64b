import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import figr.data
from figr.config import RunConfig, build_dataset
from figr.data import (
    BadMagic,
    CountMismatch,
    EmptySplit,
    InvalidSize,
    RawClass,
    RawDataset,
    TooManyValidation,
    TruncatedFile,
    UnsupportedVersion,
    bilinear_resize,
    build_tasks,
    idx_to_raw,
    load_shard,
    normalize,
    pack_class_dirs,
    pack_shard,
    parse_idx,
    read_pgm,
    sample_images,
    sample_task,
    split_classes,
    synth_glyph_dataset,
    synth_glyph_image,
    write_pgm,
)


def make_idx_pair(images: np.ndarray, labels: np.ndarray) -> tuple[bytes, bytes]:
    n, h, w = images.shape
    img = struct.pack(">IIII", 0x803, n, h, w) + images.astype(np.uint8).tobytes()
    lbl = struct.pack(">II", 0x801, len(labels)) + bytes(int(v) for v in labels)
    return img, lbl


class TestIdx:
    def test_round_trip_fixture(self):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(2, 4, 3), dtype=np.uint8)
        img_b, lbl_b = make_idx_pair(images, [7, 1])
        out, labels = parse_idx(img_b, lbl_b)
        np.testing.assert_array_equal(out, images)
        np.testing.assert_array_equal(labels, [7, 1])

    def test_bad_magic(self):
        img_b, lbl_b = make_idx_pair(np.zeros((1, 2, 2), np.uint8), [0])
        with pytest.raises(BadMagic):
            parse_idx(b"\x00\x00\x09\x03" + img_b[4:], lbl_b)
        with pytest.raises(BadMagic):
            parse_idx(img_b, b"\x00\x00\x09\x01" + lbl_b[4:])

    def test_truncated_body(self):
        img_b, lbl_b = make_idx_pair(np.zeros((3, 5, 5), np.uint8), [0, 1, 2])
        with pytest.raises(TruncatedFile):
            parse_idx(img_b[:-1], lbl_b)
        with pytest.raises(TruncatedFile):
            parse_idx(img_b, lbl_b[:-1])

    def test_count_mismatch(self):
        img_b, _ = make_idx_pair(np.zeros((2, 2, 2), np.uint8), [0, 1])
        _, lbl_b = make_idx_pair(np.zeros((3, 2, 2), np.uint8), [0, 1, 2])
        with pytest.raises(CountMismatch):
            parse_idx(img_b, lbl_b)

    def test_grouping_by_digit(self):
        images = np.arange(4 * 4 * 3, dtype=np.uint8).reshape(3, 4, 4)
        raw = idx_to_raw(images, np.array([9, 0, 9], dtype=np.uint8))
        assert [c.name for c in raw.classes] == ["0", "9"]
        assert raw.classes[1].images.shape[0] == 2


class TestPgm:
    def test_round_trip(self):
        img = np.random.default_rng(1).integers(0, 256, size=(5, 7), dtype=np.uint8)
        np.testing.assert_array_equal(read_pgm(write_pgm(img)), img)

    def test_comments_skipped(self):
        img = np.arange(6, dtype=np.uint8).reshape(2, 3)
        data = b"P5\n# a comment\n3 # trailing\n2\n255\n" + img.tobytes()
        np.testing.assert_array_equal(read_pgm(data), img)

    def test_wrong_magic(self):
        with pytest.raises(BadMagic):
            read_pgm(b"P2\n2 2\n255\n....")

    def test_wide_maxval_rejected(self):
        with pytest.raises(UnsupportedVersion):
            read_pgm(b"P5\n1 1\n65535\n\x00\x00")


class TestShard:
    def sample_classes(self):
        rng = np.random.default_rng(2)
        return [
            ("alpha", rng.integers(0, 256, size=(3, 4, 5), dtype=np.uint8)),
            ("beta-é", rng.integers(0, 256, size=(2, 6, 6), dtype=np.uint8)),
        ]

    def test_round_trip_bit_exact(self):
        classes = self.sample_classes()
        blob = pack_shard(classes)
        ds = load_shard(blob)
        assert [c.name for c in ds.classes] == [n for n, _ in classes]
        for got, (_, want) in zip(ds.classes, classes):
            np.testing.assert_array_equal(got.images, want)
        assert pack_shard([(c.name, c.images) for c in ds.classes]) == blob

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            load_shard(b"NOPE" + b"\x00" * 20)

    def test_unsupported_version(self):
        blob = bytearray(pack_shard(self.sample_classes()))
        blob[4] = 99
        with pytest.raises(UnsupportedVersion):
            load_shard(bytes(blob))

    def test_truncated(self):
        blob = pack_shard(self.sample_classes())
        with pytest.raises(TruncatedFile):
            load_shard(blob[:-3])

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            pack_shard([("empty", np.zeros((0, 2, 2), dtype=np.uint8))])

    def test_pack_class_dirs(self, tmp_path):
        rng = np.random.default_rng(3)
        for cname in ("cat", "dog"):
            d = tmp_path / cname
            d.mkdir()
            for i in range(3):
                img = rng.integers(0, 256, size=(4, 4), dtype=np.uint8)
                (d / f"{i}.pgm").write_bytes(write_pgm(img))
        ds = load_shard(pack_class_dirs(tmp_path))
        assert [c.name for c in ds.classes] == ["cat", "dog"]
        assert all(c.images.shape == (3, 4, 4) for c in ds.classes)

    def test_empty_dir_rejected(self, tmp_path):
        (tmp_path / "void").mkdir()
        with pytest.raises(ValueError):
            pack_class_dirs(tmp_path)


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
        return RawDataset(classes=tuple(
            RawClass(name=f"c{i}",
                     images=rng.integers(0, 256, size=(per_class, size, size),
                                         dtype=np.uint8))
            for i in range(n_classes)))

    def test_build_normalizes(self):
        ds = build_tasks(self.raw(), image_size=8)
        assert ds.image_size == 8
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
        classes = tuple(RawClass(name=f"ch{i}", images=np.zeros((1, 4, 4), np.uint8))
                        for i in range(1623))
        ds = split_classes(build_tasks(RawDataset(classes=classes), 8), 20, seed=1)
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
        with pytest.raises(TooManyValidation):
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
        with pytest.raises(EmptySplit):
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
            raw = idx_to_raw(*parse_idx(*make_idx_pair(images, [7, 1, 7, 3, 1])))
        else:
            raw = load_shard(pack_shard(TestShard().sample_classes()))
        calls = []
        real = figr.data.bilinear_resize
        monkeypatch.setattr(figr.data, "bilinear_resize",
                            lambda *a: calls.append(1) or real(*a))
        ds = build_tasks(raw, image_size=8)
        assert [c.name for c in ds.classes] == [rc.name for rc in raw.classes]
        assert calls == []
        first = ds.classes[0].images
        assert len(calls) == raw.classes[0].images.shape[0]
        assert ds.classes[0].images is first
        for got, rc in zip(ds.classes, raw.classes):
            want = [normalize(real(img, 8, 8)).astype(np.float32) for img in rc.images]
            np.testing.assert_array_equal(got.images[:, 0], np.stack(want))

    def test_non_finite_load_rejected(self):
        task = figr.data.TaskClass("c", load=lambda: np.full((1, 1, 2, 2), np.inf))
        with pytest.raises(ValueError, match="'c' produced non-finite"):
            task.images

    def test_empty_class_rejected_before_any_pixel(self):
        raw = RawDataset(classes=(RawClass("void", np.zeros((0, 4, 4), np.uint8)),))
        with pytest.raises(ValueError, match="no images"):
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


class TestSynthGlyphs:
    def test_deterministic(self):
        a = synth_glyph_image(5, 3, 2, 16)
        b = synth_glyph_image(5, 3, 2, 16)
        np.testing.assert_array_equal(a, b)

    def test_samples_differ_within_class(self):
        a = synth_glyph_image(5, 3, 0, 16)
        b = synth_glyph_image(5, 3, 1, 16)
        assert not np.array_equal(a, b)

    def test_invalid_size(self):
        with pytest.raises(InvalidSize):
            synth_glyph_dataset(2, 2, 64, 0)

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

import numpy as np
import pytest

from figr.data import normalize
from figr.evaluation import (
    SEPARATOR_PX,
    median_bandwidths,
    mmd_squared,
    montage,
    nn_distance,
    to_uint8,
)


def image_set(rng, count, size=4):
    return np.tanh(rng.standard_normal((count, 1, size, size)))


class TestMmd:
    def test_identical_sets_nonpositive(self):
        rng = np.random.default_rng(0)
        a = image_set(rng, 6)
        val = mmd_squared(a, a.copy(), bandwidths=[1.0, 2.0])
        assert val <= 1e-12

    def test_two_point_masses_closed_form(self):
        # all-(-1) images vs all-(+1) images: every cross distance^2 is 4*dim
        dim = 16
        a = -np.ones((3, 1, 4, 4))
        b = np.ones((4, 1, 4, 4))
        bw = [0.5, 1.0, 2.0]
        k_same = len(bw)  # kernel at distance 0
        k_cross = sum(np.exp(-4.0 * dim / (2 * s * s)) for s in bw)
        want = 2 * k_same - 2 * k_cross
        got = mmd_squared(a, b, bw)
        assert abs(got - want) < 1e-6

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = image_set(rng, 5), image_set(rng, 7)
        bw = median_bandwidths(a)
        assert abs(mmd_squared(a, b, bw) - mmd_squared(b, a, bw)) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        a, b = image_set(rng, 5), image_set(rng, 6)
        bw = [1.0]
        base = mmd_squared(a, b, bw)
        pa = a[rng.permutation(5)]
        pb = b[rng.permutation(6)]
        assert abs(mmd_squared(pa, pb, bw) - base) < 1e-12

    def test_separated_sets_score_higher_than_matched(self):
        rng = np.random.default_rng(3)
        real = image_set(rng, 8)
        similar = real + 0.01 * rng.standard_normal(real.shape)
        far = -real
        bw = median_bandwidths(real)
        assert mmd_squared(similar, real, bw) < mmd_squared(far, real, bw)

    def test_empty_set(self):
        with pytest.raises(ValueError, match="^image set is empty$"):
            mmd_squared(np.zeros((0, 1, 2, 2)), np.zeros((2, 1, 2, 2)), [1.0])

    def test_bad_bandwidths(self):
        a = np.zeros((2, 1, 2, 2))
        with pytest.raises(ValueError):
            mmd_squared(a, a, [])
        with pytest.raises(ValueError):
            mmd_squared(a, a, [0.0])


class TestNnDistance:
    def test_copying_scores_zero(self):
        rng = np.random.default_rng(4)
        cond = image_set(rng, 4)
        assert nn_distance(cond.copy(), cond) == 0.0

    def test_single_pair_is_distance_over_dim(self):
        a = np.zeros((1, 1, 2, 2))
        b = np.ones((1, 1, 2, 2))
        # L2 distance is sqrt(4)=2; dim is 4
        assert abs(nn_distance(a, b) - 2.0 / 4.0) < 1e-12

    def test_monotone_under_extra_conditioning(self):
        rng = np.random.default_rng(5)
        gen = image_set(rng, 6)
        cond = image_set(rng, 3)
        more = np.concatenate([cond, image_set(rng, 3)])
        assert nn_distance(gen, more) <= nn_distance(gen, cond)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        assert nn_distance(image_set(rng, 3), image_set(rng, 2)) >= 0.0


class TestMontage:
    """montage(conditioning, generated): the conditioning images as the top
    row, as many columns as there are of them, SEPARATOR_PX white between."""

    def test_single_image_identity(self):
        img = np.tanh(np.random.default_rng(7).standard_normal((1, 1, 5, 5)))
        out = montage(img, img[:0])
        np.testing.assert_array_equal(out, to_uint8(img[0, 0]))

    def test_width_formula(self):
        imgs = np.zeros((4, 1, 6, 6))
        out = montage(imgs, imgs[:0])
        assert SEPARATOR_PX == 2 and out.shape == (6, 4 * 6 + 3 * 2)

    def test_constant_blocks_byte_exact(self):
        # straight-line fixture: two constant tiles and a white separator
        vals = np.array([-1.0, 0.5])
        imgs = np.stack([np.full((1, 3, 3), v) for v in vals])
        out = montage(imgs, imgs[:0])

        expected = np.full((3, 8), 255, dtype=np.uint8)
        for idx, v in enumerate(vals):
            byte = np.uint8(round(127.5 * (v + 1.0)))
            expected[:, idx * 5:idx * 5 + 3] = byte
        np.testing.assert_array_equal(out, expected)

    def test_incomplete_last_row_padded_white(self):
        imgs = np.full((3, 1, 2, 2), -1.0)
        out = montage(imgs[:2], imgs[2:])
        assert out.shape == (6, 6)
        np.testing.assert_array_equal(out[4:, 4:], 255)

    def test_generated_rows_follow_the_conditioning_row(self):
        cond = np.full((2, 1, 2, 2), -1.0)
        gen = np.zeros((4, 1, 2, 2))
        out = montage(cond, gen)
        assert out.shape == (3 * 2 + 2 * 2, 2 * 2 + 2)
        np.testing.assert_array_equal(out[:2, [0, 1, 4, 5]], 0)
        for y in (4, 8):
            np.testing.assert_array_equal(out[y:y + 2, [0, 1, 4, 5]], 128)
        np.testing.assert_array_equal(out[[2, 3, 6, 7]], 255)
        np.testing.assert_array_equal(out[:, 2:4], 255)

    def test_pixel_mapping_round_trips_with_normalize(self):
        levels = np.arange(256, dtype=np.uint8)
        images = normalize(levels).reshape(1, 1, 16, 16)
        out = montage(images, images[:0])
        np.testing.assert_array_equal(out.reshape(-1), levels)

import tracemalloc

import numpy as np
import pytest

from figr import autodiff as ad
from figr.autodiff import Graph, Tensor, backward
from figr.gradcheck import finite_difference_gradient, max_relative_error
from figr.models import (
    Discriminator,
    Generator,
    InvalidConfig,
    LayoutMismatch,
    ModelConfig,
    ParameterSet,
    Segment,
    params_delta,
    sample_latent,
)

TINY = ModelConfig(image_size=8, latent_dim=6, base_width=4, n_blocks=1, precision="double")
SMALL32 = ModelConfig(image_size=32, latent_dim=64, base_width=16, n_blocks=3)


def expected_generator_count(cfg: ModelConfig) -> int:
    """Closed-form parameter count, written independently of the layout builder."""
    scales = {8: 1, 16: 2, 32: 3, 64: 4}[cfg.image_size]
    w_top = cfg.base_width * 2 ** scales
    total = cfg.latent_dim * w_top * 16 + w_top * 16          # dense in
    total += 2 * w_top * 16 + w_top                           # in0 norm + slopes
    size, width = 4, w_top
    for _ in range(cfg.n_blocks - scales):                    # extra 4x4 blocks
        total += block_count(width, width, size, proj=False)
    for _ in range(scales):
        total += block_count(width, width // 2, size * 2, proj=True)
        width //= 2
        size *= 2
    total += width * 1 * 9 + 1                                # output conv
    return total


def expected_discriminator_count(cfg: ModelConfig) -> int:
    scales = {8: 1, 16: 2, 32: 3, 64: 4}[cfg.image_size]
    s = cfg.image_size
    total = 1 * cfg.base_width * 9 + cfg.base_width           # stem conv
    total += 2 * cfg.base_width * s * s + cfg.base_width      # in0 norm + slopes
    width = cfg.base_width
    for _ in range(scales):
        total += block_count(width, width * 2, s // 2, proj=True)
        width *= 2
        s //= 2
    for _ in range(cfg.n_blocks - scales):
        total += block_count(width, width, s, proj=False)
    total += width * s * s + 1                                # score head
    return total


def block_count(cin, cout, size, proj):
    total = cin * cout * 9 + cout                             # conv1
    total += 2 * cout * size * size + cout                    # norm1 + slopes
    total += cout * cout * 9 + cout                           # conv2
    total += 2 * cout * size * size + cout                    # norm2 + slopes
    if proj:
        total += cin * cout + cout                            # 1x1 skip
    return total


class TestConfig:
    def test_bad_image_size(self):
        with pytest.raises(InvalidConfig):
            ModelConfig(image_size=24)

    def test_too_few_blocks(self):
        with pytest.raises(InvalidConfig):
            ModelConfig(image_size=32, n_blocks=2)


class TestParameterSet:
    def test_round_trip_views(self):
        layout = (Segment("a", 0, (2, 3)), Segment("b", 6, (4,)))
        vec = np.arange(10, dtype=np.float32)
        ps = ParameterSet(vec, layout)
        assert ps.total_len == 10
        np.testing.assert_array_equal(ps.view("a"), [[0, 1, 2], [3, 4, 5]])
        np.testing.assert_array_equal(ps.view("b"), [6, 7, 8, 9])
        # flattening the views back recovers the vector bit-exactly
        flat = np.concatenate([ps.view(s.name).reshape(-1) for s in layout])
        np.testing.assert_array_equal(flat, vec)

    def test_length_mismatch(self):
        with pytest.raises(LayoutMismatch):
            ParameterSet(np.zeros(5, dtype=np.float32), (Segment("a", 0, (2, 3)),))

    def test_segments_contiguous(self):
        gen = Generator(SMALL32)
        offset = 0
        for s in gen.layout:
            assert s.offset == offset
            offset += s.size
        assert offset == gen.param_count()

    def test_copy_is_independent(self):
        ps = Generator(TINY).init_params(np.random.default_rng(0))
        ps2 = ps.copy()
        ps2.vector[0] += 1.0
        assert ps.vector[0] != ps2.vector[0]


class TestBuild:
    def test_generator_deterministic_for_seed(self):
        a = Generator(SMALL32).init_params(np.random.default_rng(7))
        b = Generator(SMALL32).init_params(np.random.default_rng(7))
        np.testing.assert_array_equal(a.vector, b.vector)

    def test_discriminator_deterministic_for_seed(self):
        a = Discriminator(SMALL32).init_params(np.random.default_rng(7))
        b = Discriminator(SMALL32).init_params(np.random.default_rng(7))
        np.testing.assert_array_equal(a.vector, b.vector)

    @pytest.mark.parametrize("cfg", [TINY, SMALL32,
                                     ModelConfig(image_size=16, base_width=10,
                                                 latent_dim=40, n_blocks=2)])
    def test_generator_count_matches_closed_form(self, cfg):
        assert Generator(cfg).param_count() == expected_generator_count(cfg)

    @pytest.mark.parametrize("cfg", [TINY, SMALL32,
                                     ModelConfig(image_size=16, base_width=10,
                                                 latent_dim=40, n_blocks=2)])
    def test_discriminator_count_matches_closed_form(self, cfg):
        assert Discriminator(cfg).param_count() == expected_discriminator_count(cfg)

    def test_prelu_slopes_initialized_quarter(self):
        ps = Generator(SMALL32).init_params(np.random.default_rng(0))
        for s in ps.layout:
            if s.name.endswith(".a"):
                np.testing.assert_array_equal(ps.view(s.name), 0.25)

    def test_norm_init(self):
        ps = Discriminator(TINY).init_params(np.random.default_rng(0))
        np.testing.assert_array_equal(ps.view("in0.ln.g"), 1.0)
        np.testing.assert_array_equal(ps.view("in0.ln.b"), 0.0)
        np.testing.assert_array_equal(ps.view("stem.b"), 0.0)


class TestForward:
    def test_generator_output_in_open_interval(self):
        gen = Generator(TINY)
        ps = gen.init_params(np.random.default_rng(1))
        z = sample_latent(5, TINY, np.random.default_rng(2))
        with Graph():
            out = gen.forward(ps.bind(trainable=False), z)
        assert out.shape == (5, 1, 8, 8)
        assert np.all(out.data > -1) and np.all(out.data < 1)

    def test_identical_latents_give_identical_rows(self):
        gen = Generator(TINY)
        ps = gen.init_params(np.random.default_rng(1))
        row = np.random.default_rng(3).standard_normal((1, TINY.latent_dim))
        z = Tensor(np.repeat(row, 4, axis=0))
        with Graph():
            out = gen.forward(ps.bind(trainable=False), z).data
        for i in range(1, 4):
            np.testing.assert_array_equal(out[i], out[0])

    def test_forward_is_pure(self):
        gen = Generator(TINY)
        ps = gen.init_params(np.random.default_rng(1))
        z = sample_latent(3, TINY, np.random.default_rng(4))
        with Graph():
            a = gen.forward(ps.bind(trainable=False), z).data
        with Graph():
            b = gen.forward(ps.bind(trainable=False), z).data
        np.testing.assert_array_equal(a, b)

    def test_discriminator_shape_and_finiteness(self):
        disc = Discriminator(TINY)
        ps = disc.init_params(np.random.default_rng(1))
        x = Tensor(np.random.default_rng(5).standard_normal((6, 1, 8, 8)))
        with Graph():
            out = disc.forward(ps.bind(trainable=False), x)
        assert out.shape == (6, 1)
        assert np.all(np.isfinite(out.data))

    def test_permuting_batch_permutes_scores(self):
        disc = Discriminator(TINY)
        ps = disc.init_params(np.random.default_rng(1))
        x = np.random.default_rng(6).standard_normal((5, 1, 8, 8))
        perm = np.array([3, 0, 4, 1, 2])
        with Graph():
            s1 = disc.forward(ps.bind(trainable=False), Tensor(x)).data
        with Graph():
            s2 = disc.forward(ps.bind(trainable=False), Tensor(x[perm])).data
        np.testing.assert_array_equal(s1[perm], s2)

    def test_duplicated_sample_duplicated_score(self):
        disc = Discriminator(TINY)
        ps = disc.init_params(np.random.default_rng(1))
        x = np.random.default_rng(7).standard_normal((1, 1, 8, 8))
        batch = np.concatenate([x, x], axis=0)
        with Graph():
            s = disc.forward(ps.bind(trainable=False), Tensor(batch)).data
        np.testing.assert_array_equal(s[0], s[1])

    def test_latent_width_check(self):
        gen = Generator(TINY)
        ps = gen.init_params(np.random.default_rng(1))
        with pytest.raises(ad.ShapeMismatch):
            gen.forward(ps.bind(trainable=False), Tensor(np.zeros((2, 5))))


    def test_batch64_generator_forward_memory_pinned(self):
        # an untaped forward keeps one sample's conv columns, not the batch's:
        # a default generator at batch 64 peaked at 95 MB with batch-wide
        # columns and about 32 MB with per-sample ones
        cfg = ModelConfig()
        gen = Generator(cfg)
        phi = gen.init_params(np.random.default_rng(0))
        z = sample_latent(64, cfg, np.random.default_rng(1))
        tracemalloc.start()
        try:
            gen.forward(phi.bind(trainable=False), z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


class TestGradients:
    def test_generator_weight_gradient_matches_fd(self):
        gen = Generator(TINY)
        ps = gen.init_params(np.random.default_rng(11))
        z = np.random.default_rng(12).standard_normal((2, TINY.latent_dim))
        probe = np.random.default_rng(13).standard_normal((2, 1, 8, 8))
        seg = ps._index["up0.c1.w"]

        def loss_for_vector(vec):
            ps2 = ps.with_vector(vec)
            with Graph():
                out = gen.forward(ps2.bind(trainable=False), Tensor(z.copy()))
                return float(ad.tsum(ad.mul(out, Tensor(probe))).item())

        # finite differences over one weight segment only, for speed
        idxs = np.random.default_rng(14).choice(
            np.arange(seg.offset, seg.offset + seg.size), size=12, replace=False)
        fd = finite_difference_gradient(loss_for_vector, ps.vector, coords=idxs)

        with Graph():
            bound = ps.bind()
            out = gen.forward(bound, Tensor(z.copy()))
            loss = ad.tsum(ad.mul(out, Tensor(probe)))
            grads = bound.flatten_grads(backward(loss))
        assert max_relative_error(grads[idxs], fd) < 1e-5

    def test_discriminator_input_gradient_matches_fd(self):
        disc = Discriminator(TINY)
        ps = disc.init_params(np.random.default_rng(15))
        x0 = np.random.default_rng(16).standard_normal((1, 1, 8, 8))

        def f_np(x):
            with Graph():
                return float(ad.tsum(disc.forward(ps.bind(trainable=False), Tensor(x.copy()))).item())

        fd = finite_difference_gradient(f_np, x0, h=1e-6)
        with Graph():
            xt = Tensor(x0.copy(), requires_grad=True)
            s = disc.forward(ps.bind(trainable=False), xt)
            g = backward(ad.tsum(s))[xt].data
        assert max_relative_error(g, fd) < 1e-6


class TestLatent:
    def test_deterministic(self):
        a = sample_latent(4, TINY, np.random.default_rng(9)).data
        b = sample_latent(4, TINY, np.random.default_rng(9)).data
        np.testing.assert_array_equal(a, b)

    def test_shape(self):
        assert sample_latent(7, SMALL32, np.random.default_rng(0)).shape == (7, 64)

    def test_standard_normal_moments(self):
        n = 100_000
        cfg = ModelConfig(image_size=8, latent_dim=2, base_width=4, n_blocks=1)
        z = sample_latent(n, cfg, np.random.default_rng(10)).data
        # mean of N(0,1) over n draws has sd 1/sqrt(n); 4 sigma bound
        assert abs(z.mean()) < 4.0 / np.sqrt(z.size)
        assert abs(z.var() - 1.0) < 4.0 * np.sqrt(2.0 / z.size)

    def test_batch_positive(self):
        with pytest.raises(ValueError):
            sample_latent(0, TINY, np.random.default_rng(0))


class TestParamsDelta:
    def test_zero_for_identical(self):
        ps = Generator(TINY).init_params(np.random.default_rng(0))
        np.testing.assert_array_equal(params_delta(ps, ps.copy()), 0.0)

    def test_recovers_sgd_step(self):
        ps = Generator(TINY).init_params(np.random.default_rng(0))
        g = np.random.default_rng(1).standard_normal(ps.total_len)
        lr = 0.5
        w = ps.with_vector(ps.vector - lr * g)
        np.testing.assert_allclose(params_delta(ps, w), lr * g, rtol=1e-12)

    def test_layout_mismatch(self):
        a = Generator(TINY).init_params(np.random.default_rng(0))
        b = Discriminator(TINY).init_params(np.random.default_rng(0))
        with pytest.raises(LayoutMismatch):
            params_delta(a, b)

import gc

import numpy as np
import pytest

from figr.autodiff import Graph, Tensor, add, backward
from figr.losses import critic_loss, generator_loss, gradient_penalty
from figr.models import (
    BoundParams,
    Discriminator,
    Generator,
    LayoutMismatch,
    ModelConfig,
    params_delta,
)
from figr.reptile import (
    AdamState,
    InnerConfig,
    MetaState,
    adam_step,
    NonFiniteStep,
    figr_generate,
    init_meta_state,
    inner_loop,
    meta_step,
)
from figr.rng import make_streams

CFG64 = ModelConfig(image_size=8, latent_dim=6, base_width=4, n_blocks=1, precision="double")
CFG32 = ModelConfig(image_size=8, latent_dim=6, base_width=4, n_blocks=1, precision="single")


def tiny_models(cfg):
    return Discriminator(cfg), Generator(cfg)


def task_images(cfg, n, seed=0):
    rng = np.random.default_rng(seed)
    return np.tanh(rng.standard_normal((n, 1, cfg.image_size, cfg.image_size))).astype(cfg.dtype)


def traced_inner_loop(monkeypatch, *args):
    """inner_loop(*args), and the flat (critic, generator) gradient of each step.

    The inner loop flattens each step's gradient map with flatten_grads,
    critic first, and accumulates exactly those vectors.
    """
    flats = []
    real = BoundParams.flatten_grads

    def recording(self, grad_map):
        flats.append(real(self, grad_map))
        return flats[-1]

    with monkeypatch.context() as m:
        m.setattr(BoundParams, "flatten_grads", recording)
        out = inner_loop(*args)
    return out, list(zip(flats[0::2], flats[1::2]))


class TestAdamStep:
    def setup_method(self):
        _, gen = tiny_models(CFG64)
        self.params = gen.init_params(np.random.default_rng(3))
        self.n = self.params.total_len

    def test_zero_gradient_fixed_point(self):
        out, moments = adam_step(AdamState.zeros(self.n), self.params,
                                 np.zeros(self.n), 1e-3, 0.5, 0.999, 1e-8)
        np.testing.assert_array_equal(out.vector, self.params.vector)
        assert moments.t == 1

    def test_first_step_magnitude_is_lr(self):
        g = np.random.default_rng(4).standard_normal(self.n)
        lr = 1e-3
        out, _ = adam_step(AdamState.zeros(self.n), self.params, g, lr, 0.5, 0.999, 1e-8)
        step = self.params.vector.astype(np.float64) - out.vector.astype(np.float64)
        # bias correction cancels at t=1: update = lr * g / (|g| + eps) = lr * sign(g)
        np.testing.assert_allclose(step, lr * np.sign(g), rtol=1e-4)

    def test_hundred_steps_constant_gradient(self):
        # scalar simulation: cumulative displacement approaches 100 * lr * sign(g)
        from figr.models import ParameterSet, Segment
        g = np.array([0.02, -3.0, 1e-6])
        params = ParameterSet(np.zeros(3, dtype=np.float64), (Segment("p", 0, (3,)),))
        moments = AdamState.zeros(3)
        lr = 1e-3
        for _ in range(100):
            params, moments = adam_step(moments, params, g, lr, 0.5, 0.999, 1e-8)
        np.testing.assert_allclose(-params.vector, 100 * lr * np.sign(g), rtol=0.01)

    def test_moment_layout_guard(self):
        with pytest.raises(LayoutMismatch):
            adam_step(AdamState.zeros(self.n), self.params,
                      np.zeros(self.n - 1), 1e-3, 0.5, 0.999, 1e-8)


class TestInnerLoop:
    def test_zero_lr_is_identity(self):
        disc, gen = tiny_models(CFG64)
        rng = np.random.default_rng(5)
        phi_d, phi_g = disc.init_params(rng), gen.init_params(rng)
        cfg = InnerConfig(k=3, n=2, inner_lr=0.0)
        w_d, w_g, _ = inner_loop(phi_d, phi_g, disc, gen, task_images(CFG64, 2),
                                 cfg, np.random.default_rng(6), np.random.default_rng(7))
        np.testing.assert_array_equal(w_d.vector, phi_d.vector)
        np.testing.assert_array_equal(w_g.vector, phi_g.vector)

    def test_phi_not_mutated(self):
        disc, gen = tiny_models(CFG64)
        rng = np.random.default_rng(8)
        phi_d, phi_g = disc.init_params(rng), gen.init_params(rng)
        before_d, before_g = phi_d.vector.copy(), phi_g.vector.copy()
        inner_loop(phi_d, phi_g, disc, gen, task_images(CFG64, 2),
                   InnerConfig(k=2, n=2, inner_lr=1e-3),
                   np.random.default_rng(9), np.random.default_rng(10))
        np.testing.assert_array_equal(phi_d.vector, before_d)
        np.testing.assert_array_equal(phi_g.vector, before_g)

    def test_deterministic_for_seed(self):
        disc, gen = tiny_models(CFG32)
        rng = np.random.default_rng(11)
        phi_d, phi_g = disc.init_params(rng), gen.init_params(rng)
        x = task_images(CFG32, 2, seed=1)
        cfg = InnerConfig(k=2, n=2, inner_lr=1e-4)
        run = lambda: inner_loop(phi_d, phi_g, disc, gen, x, cfg,
                                 np.random.default_rng(12), np.random.default_rng(13))
        a_d, a_g, _ = run()
        b_d, b_g, _ = run()
        np.testing.assert_array_equal(a_d.vector, b_d.vector)
        np.testing.assert_array_equal(a_g.vector, b_g.vector)

    def test_delta_equals_lr_times_recorded_gradients_double(self, monkeypatch):
        disc, gen = tiny_models(CFG64)
        rng = np.random.default_rng(14)
        phi_d, phi_g = disc.init_params(rng), gen.init_params(rng)
        cfg = InnerConfig(k=4, n=2, inner_lr=1e-3)
        (w_d, w_g, _), trace = traced_inner_loop(
            monkeypatch, phi_d, phi_g, disc, gen, task_images(CFG64, 2, 2),
            cfg, np.random.default_rng(15), np.random.default_rng(16))
        assert len(trace) == 4
        sum_d = cfg.inner_lr * np.sum([gd for gd, _ in trace], axis=0)
        sum_g = cfg.inner_lr * np.sum([gg for _, gg in trace], axis=0)
        delta_d = params_delta(phi_d, w_d).astype(np.float64)
        delta_g = params_delta(phi_g, w_g).astype(np.float64)
        assert np.linalg.norm(delta_d - sum_d) / np.linalg.norm(sum_d) < 1e-6
        assert np.linalg.norm(delta_g - sum_g) / np.linalg.norm(sum_g) < 1e-6

    def test_delta_identity_single_precision_rounding_bound(self, monkeypatch):
        # in float32 the identity holds to one rounding of the stored weights:
        # |delta_i - lr*sum_i| <= eps32 * max(|phi_i|, |lr*sum_i|)
        disc, gen = tiny_models(CFG32)
        rng = np.random.default_rng(14)
        phi_d, phi_g = disc.init_params(rng), gen.init_params(rng)
        cfg = InnerConfig(k=4, n=2, inner_lr=1e-3)
        (w_d, w_g, _), trace = traced_inner_loop(
            monkeypatch, phi_d, phi_g, disc, gen, task_images(CFG32, 2, 2),
            cfg, np.random.default_rng(15), np.random.default_rng(16))
        eps32 = np.finfo(np.float32).eps
        for phi, w, idx in ((phi_d, w_d, 0), (phi_g, w_g, 1)):
            s = cfg.inner_lr * np.sum([t[idx] for t in trace], axis=0)
            delta = params_delta(phi, w).astype(np.float64)
            bound = eps32 * np.maximum(np.abs(phi.vector.astype(np.float64)),
                                       np.abs(s)) + 1e-12
            assert np.all(np.abs(delta - s) <= bound)


class TestMetaStep:
    def make_dataset(self, cfg, n_classes=3, per_class=5):
        from figr.data import TaskClass, TaskDataset
        rng = np.random.default_rng(20)
        classes = []
        for i in range(n_classes):
            images = np.tanh(rng.standard_normal(
                (per_class, 1, cfg.image_size, cfg.image_size))).astype(np.float32)
            classes.append(TaskClass(f"c{i}", load=lambda images=images: images))
        return TaskDataset(classes=tuple(classes), image_size=cfg.image_size,
                           train_ids=tuple(range(n_classes)), val_ids=())

    def test_zero_inner_lr_leaves_phi(self):
        disc, gen = tiny_models(CFG32)
        state = init_meta_state(disc, gen, np.random.default_rng(21))
        ds = self.make_dataset(CFG32)
        new, rec = meta_step(state, disc, gen, ds,
                             InnerConfig(k=2, n=2, inner_lr=0.0), make_streams(0))
        np.testing.assert_array_equal(new.phi_d.vector, state.phi_d.vector)
        np.testing.assert_array_equal(new.phi_g.vector, state.phi_g.vector)
        assert new.step == state.step + 1
        assert rec.delta_d_norm == 0.0

    def test_k1_pseudo_gradient_is_lr_times_loss_gradient(self):
        # joint-training equivalence: with one inner step the outer pseudo-
        # gradient is exactly inner_lr times the loss gradient at phi
        disc, gen = tiny_models(CFG64)
        rng = np.random.default_rng(22)
        phi_d, phi_g = disc.init_params(rng), gen.init_params(rng)
        cfg = InnerConfig(k=1, n=2, inner_lr=1e-3)
        x = task_images(CFG64, 2, seed=3)

        lat_seed, eps_seed = 23, 24
        w_d, w_g, _ = inner_loop(phi_d, phi_g, disc, gen, x, cfg,
                                 np.random.default_rng(lat_seed),
                                 np.random.default_rng(eps_seed))
        pseudo_d = params_delta(phi_d, w_d).astype(np.float64)
        pseudo_g = params_delta(phi_g, w_g).astype(np.float64)

        # replay by hand with identical rng streams
        from figr.models import sample_latent
        lat = np.random.default_rng(lat_seed)
        eps_rng = np.random.default_rng(eps_seed)
        with Graph():
            xt = Tensor(x.astype(np.float64))
            z = sample_latent(2, gen.cfg, lat)
            fake = gen.forward(phi_g.bind(trainable=False), z)
            bound_d = phi_d.bind()
            scores = disc.forward(bound_d, Tensor(np.concatenate([xt.data, fake.data])))
            loss_d = add(critic_loss(scores),
                         gradient_penalty(lambda v: disc.forward(bound_d, v), xt.data,
                                          fake.data, eps_rng.uniform(size=(2, 1, 1, 1)),
                                          cfg.gp_lambda))
            gd = bound_d.flatten_grads(backward(loss_d))
        w_d_manual = phi_d.with_vector(phi_d.vector - cfg.inner_lr * gd)
        with Graph():
            z2 = sample_latent(2, gen.cfg, lat)
            bound_g = phi_g.bind()
            loss_g = generator_loss(
                disc.forward(w_d_manual.bind(trainable=False), gen.forward(bound_g, z2)))
            gg = bound_g.flatten_grads(backward(loss_g))

        # equal up to one float64 rounding of phi - (phi - lr*g)
        np.testing.assert_allclose(pseudo_d, cfg.inner_lr * gd, rtol=1e-9, atol=1e-15)
        np.testing.assert_allclose(pseudo_g, cfg.inner_lr * gg, rtol=1e-9, atol=1e-15)

    def test_ten_steps_bit_identical_across_runs(self):
        disc, gen = tiny_models(CFG32)
        ds = self.make_dataset(CFG32)
        cfg = InnerConfig(k=2, n=2, inner_lr=1e-4)

        def run():
            state = init_meta_state(disc, gen, np.random.default_rng(30))
            streams = make_streams(31)
            for _ in range(10):
                state, _ = meta_step(state, disc, gen, ds, cfg, streams)
            return state

        a, b = run(), run()
        np.testing.assert_array_equal(a.phi_d.vector, b.phi_d.vector)
        np.testing.assert_array_equal(a.phi_g.vector, b.phi_g.vector)
        np.testing.assert_array_equal(a.adam_d.m, b.adam_d.m)
        assert a.step == b.step == 10

    def test_step_renders_only_the_sampled_class(self, monkeypatch):
        import figr.data
        calls = []
        real = figr.data.synth_glyph_image
        monkeypatch.setattr(figr.data, "synth_glyph_image",
                            lambda *a: calls.append(a) or real(*a))
        ds = figr.data.synth_glyph_dataset(6, 4, CFG32.image_size, seed=0)
        disc, gen = tiny_models(CFG32)
        state = init_meta_state(disc, gen, np.random.default_rng(0))
        _, rec = meta_step(state, disc, gen, ds, InnerConfig(k=1, n=2),
                           make_streams(0))
        assert len(calls) == 4
        assert {c[1] for c in calls} == {rec.task_id}

    def test_non_finite_step_leaves_state(self):
        disc, gen = tiny_models(CFG32)
        state = init_meta_state(disc, gen, np.random.default_rng(21))
        snap = (state.phi_d.vector.copy(), state.phi_g.vector.copy(),
                state.adam_d.m.copy(), state.adam_g.v.copy())
        ds = self.make_dataset(CFG32, n_classes=1)
        ds.classes[0].images[:, 0, 0, 0] = np.nan
        with pytest.raises(NonFiniteStep, match=r"meta-step 1 on task 0: non-finite"):
            meta_step(state, disc, gen, ds, InnerConfig(k=2, n=2, inner_lr=1e-4),
                      make_streams(0))
        for before, after in zip(snap, (state.phi_d.vector, state.phi_g.vector,
                                        state.adam_d.m, state.adam_g.v)):
            np.testing.assert_array_equal(before, after)
        assert state.step == 0 and state.adam_d.t == 0

    def test_empty_dataset(self):
        from figr.data import EmptySplit, TaskDataset
        disc, gen = tiny_models(CFG32)
        state = init_meta_state(disc, gen, np.random.default_rng(0))
        ds = TaskDataset(classes=(), image_size=8, train_ids=(), val_ids=())
        with pytest.raises(EmptySplit):
            meta_step(state, disc, gen, ds, InnerConfig(k=1, n=1), make_streams(0))


class TestGenerate:
    def test_count_validated(self):
        disc, gen = tiny_models(CFG32)
        rng = np.random.default_rng(40)
        with pytest.raises(ValueError):
            figr_generate(disc.init_params(rng), gen.init_params(rng), disc, gen,
                          task_images(CFG32, 2), InnerConfig(k=1, n=2),
                          np.random.default_rng(0), count=0)

    def test_deterministic_and_nondegenerate(self):
        disc, gen = tiny_models(CFG32)
        rng = np.random.default_rng(41)
        phi_d, phi_g = disc.init_params(rng), gen.init_params(rng)
        x = task_images(CFG32, 2, seed=4)
        cfg = InnerConfig(k=2, n=2, inner_lr=1e-4)

        def run(seed):
            return figr_generate(phi_d, phi_g, disc, gen, x, cfg,
                                 np.random.default_rng(seed), count=3)

        a, b, c = run(50), run(50), run(60)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.shape == (3, 1, 8, 8)
        assert np.all(a > -1) and np.all(a < 1)

    def test_phi_untouched(self):
        disc, gen = tiny_models(CFG32)
        rng = np.random.default_rng(42)
        phi_d, phi_g = disc.init_params(rng), gen.init_params(rng)
        snap_d, snap_g = phi_d.vector.copy(), phi_g.vector.copy()
        figr_generate(phi_d, phi_g, disc, gen, task_images(CFG32, 2, 5),
                      InnerConfig(k=3, n=2, inner_lr=1e-3),
                      np.random.default_rng(0), count=2)
        np.testing.assert_array_equal(phi_d.vector, snap_d)
        np.testing.assert_array_equal(phi_g.vector, snap_g)


class TestTapeRelease:
    def test_adaptation_leaves_no_cyclic_garbage(self):
        # each first-order backward releases its tape, so reference counting
        # alone frees the inner steps' activations
        disc, gen = tiny_models(CFG32)
        rng = np.random.default_rng(43)
        phi_d, phi_g = disc.init_params(rng), gen.init_params(rng)
        x = task_images(CFG32, 2, seed=6)
        cfg = InnerConfig(k=2, n=2, inner_lr=1e-4)

        def adapt_and_generate():
            inner_loop(phi_d, phi_g, disc, gen, x, cfg,
                       np.random.default_rng(0), np.random.default_rng(1))
            figr_generate(phi_d, phi_g, disc, gen, x, cfg,
                          np.random.default_rng(2), count=2)

        adapt_and_generate()                 # warm-up
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            adapt_and_generate()
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()


class TestInnerStepTape:
    @pytest.mark.parametrize("cfg", [CFG32, CFG64, ModelConfig()],
                             ids=["tiny-single", "tiny-double", "default"])
    def test_joint_critic_scores_equal_separate_forwards(self, cfg):
        # every critic layer is per-sample, so scoring [real; fake] in one
        # forward gives each image the score a forward of its own batch gives
        disc = Discriminator(cfg)
        phi = disc.init_params(np.random.default_rng(50))
        real, fake = task_images(cfg, 4, seed=51), task_images(cfg, 4, seed=52)
        with Graph():
            bound = phi.bind()
            joint = disc.forward(bound, Tensor(np.concatenate([real, fake]))).data
            apart = np.concatenate([disc.forward(bound, Tensor(real)).data,
                                    disc.forward(bound, Tensor(fake)).data])
        np.testing.assert_array_equal(joint, apart)

    def test_tape_nodes_per_step_pinned(self, monkeypatch):
        # nodes on the tape when each step's first-order backward starts, on
        # the 8 px tiny model; a change that re-inflates the tape of an inner
        # step fails here (these read 481 and 193 with the gradient
        # penalty's backward unrestricted and layer_norm as 12 nodes, and
        # 242 and 91 with conv2d's recorded input gradient permuted twice
        # and prelu's built from masks, and 215 and 91 with a leaf node for
        # every constant, biases added through reshape -> expand and one
        # matmul rule per operand form)
        import figr.reptile
        counts = []
        real_backward = figr.reptile.backward

        def counting(loss, create_graph=False):
            counts.append(len(loss.graph.nodes))
            return real_backward(loss, create_graph=create_graph)

        monkeypatch.setattr(figr.reptile, "backward", counting)
        disc, gen = tiny_models(CFG32)
        rng = np.random.default_rng(53)
        phi_d, phi_g = disc.init_params(rng), gen.init_params(rng)
        inner_loop(phi_d, phi_g, disc, gen, task_images(CFG32, 2, seed=54),
                   InnerConfig(k=1, n=2), np.random.default_rng(55),
                   np.random.default_rng(56))
        assert counts == [179, 66]

import gc
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from figr import autodiff as ad
from figr.autodiff import Graph, Tensor, add, backward
from figr.config import RunConfig
from figr.data import sample_task
from figr.losses import critic_loss, generator_loss, gradient_penalty
from figr.models import (
    BoundParams,
    Discriminator,
    Generator,
    params_delta,
    sample_latent,
)
from figr.reptile import (
    SAMPLE_CHUNK,
    AdamState,
    MetaState,
    adam_step,
    figr_generate,
    init_meta_state,
    inner_loop,
    meta_step,
)
from figr.rng import STEP, derive

SRC = str(Path(__file__).resolve().parents[1] / "src")
CFG64 = RunConfig(image_size=8, latent_dim=6, base_width=4, n_blocks=1, precision="double")
CFG32 = RunConfig(image_size=8, latent_dim=6, base_width=4, n_blocks=1, precision="single")


def tiny_models(cfg):
    return Discriminator(cfg), Generator(cfg)


def fresh_state(disc, gen, rng):
    return init_meta_state(disc.init_params(rng), gen.init_params(rng))


def task_images(cfg, n, seed=0):
    rng = np.random.default_rng(seed)
    return np.tanh(rng.standard_normal((n, 1, cfg.image_size, cfg.image_size))).astype(cfg.dtype)


def traced_inner_loop(monkeypatch, *args):
    """inner_loop(*args), and the flat (critic, generator) gradient of each step.

    The inner loop adds each step's gradient map into its running sums with
    add_grads, critic first; each step's vector is recorded by adding into
    a zero vector, and then added into the sum.
    """
    flats = []
    real = BoundParams.add_grads

    def recording(self, grad_map, out):
        flats.append(real(self, grad_map, np.zeros_like(out)))
        out += flats[-1]
        return out

    with monkeypatch.context() as m:
        m.setattr(BoundParams, "add_grads", recording)
        out = inner_loop(*args)
    return out, list(zip(flats[0::2], flats[1::2]))


class TestAdamStep:
    def setup_method(self):
        _, gen = tiny_models(CFG64)
        self.params = gen.init_params(np.random.default_rng(3))
        self.n = self.params.total_len

    def test_zero_gradient_fixed_point(self):
        out, moments = adam_step(AdamState.zeros(self.n), self.params,
                                 np.zeros(self.n), 1, 1e-3, 0.5, 0.999, 1e-8)
        np.testing.assert_array_equal(out.vector, self.params.vector)
        assert not moments.m.any() and not moments.v.any()

    def test_first_step_magnitude_is_lr(self):
        g = np.random.default_rng(4).standard_normal(self.n)
        lr = 1e-3
        out, _ = adam_step(AdamState.zeros(self.n), self.params, g, 1, lr, 0.5, 0.999, 1e-8)
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
        for t in range(1, 101):
            params, moments = adam_step(moments, params, g, t, lr, 0.5, 0.999, 1e-8)
        np.testing.assert_allclose(-params.vector, 100 * lr * np.sign(g), rtol=0.01)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("t", [1, 2, 50])
    def test_bit_exact_against_textbook_expression(self, dtype, t):
        from figr.models import ParameterSet, Segment
        rng = np.random.default_rng(t)
        n = 1000
        params = ParameterSet(rng.standard_normal(n).astype(dtype), (Segment("p", 0, (n,)),))
        g = rng.standard_normal(n).astype(dtype)
        prior = AdamState(rng.standard_normal(n) * 1e-3, rng.random(n) * 1e-6)
        lr, beta1, beta2, eps = 1e-3, 0.5, 0.999, 1e-8
        out, moments = adam_step(prior, params, g, t, lr, beta1, beta2, eps)

        g64 = g.astype(np.float64)
        m = beta1 * prior.m + (1.0 - beta1) * g64
        v = beta2 * prior.v + (1.0 - beta2) * np.square(g64)
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        update = lr * m_hat / (np.sqrt(v_hat) + eps)
        expected = (params.vector.astype(np.float64) - update).astype(dtype)
        assert out.vector.dtype == dtype
        np.testing.assert_array_equal(out.vector, expected)
        np.testing.assert_array_equal(moments.m, m)
        np.testing.assert_array_equal(moments.v, v)

    def test_step_overflowing_float32_leaves_inf_without_warning(self):
        # the update is finite in float64 and overflows only in phi's cast;
        # pytest turns a RuntimeWarning into an error
        from figr.models import ParameterSet, Segment
        params = ParameterSet(np.zeros(2, dtype=np.float32), (Segment("p", 0, (2,)),))
        prior = AdamState.zeros(2)
        out, _ = adam_step(prior, params, np.array([1.0, 0.0]), 1, 1e300, 0.5, 0.999, 1e-8)
        assert out.vector[0] == -np.inf and out.vector[1] == 0.0
        np.testing.assert_array_equal(prior.m, 0.0)

    def test_moment_layout_guard(self):
        with pytest.raises(ValueError, match=r"^pseudo-gradient of \(\d+,\) for \d+ parameters$"):
            adam_step(AdamState.zeros(self.n), self.params,
                      np.zeros(self.n - 1), 1, 1e-3, 0.5, 0.999, 1e-8)


class TestInnerLoop:
    def test_zero_lr_is_identity(self):
        disc, gen = tiny_models(CFG64)
        rng = np.random.default_rng(5)
        phi_d, phi_g = disc.init_params(rng), gen.init_params(rng)
        cfg = RunConfig(k=3, n=2, inner_lr=0.0)
        w_d, w_g, *_ = inner_loop(phi_d, phi_g, disc, gen, task_images(CFG64, 2),
                                  cfg, np.random.default_rng(6))
        np.testing.assert_array_equal(w_d.vector, phi_d.vector)
        np.testing.assert_array_equal(w_g.vector, phi_g.vector)

    def test_phi_not_mutated(self):
        disc, gen = tiny_models(CFG64)
        rng = np.random.default_rng(8)
        phi_d, phi_g = disc.init_params(rng), gen.init_params(rng)
        before_d, before_g = phi_d.vector.copy(), phi_g.vector.copy()
        inner_loop(phi_d, phi_g, disc, gen, task_images(CFG64, 2),
                   RunConfig(k=2, n=2, inner_lr=1e-3),
                   np.random.default_rng(9))
        np.testing.assert_array_equal(phi_d.vector, before_d)
        np.testing.assert_array_equal(phi_g.vector, before_g)

    def test_adapted_weights_independent_of_blas_threads(self):
        # the gradient penalty's backward computes a^T @ g with K = 9*C
        # (936 at C = 104, width 13), which OpenBLAS blocks differently at
        # 1 and 2 threads unless it is padded; width 16 is the default
        code = (
            "import hashlib, numpy as np\n"
            "from figr.config import RunConfig\n"
            "from figr.models import Discriminator, Generator\n"
            "from figr.reptile import inner_loop\n"
            "h = hashlib.sha256()\n"
            "for size, width, blocks in ((32, 13, 3), (32, 14, 3), (32, 20, 3), (32, 52, 3),\n"
            "                            (64, 13, 4), (32, 16, 3)):\n"
            "    cfg = RunConfig(image_size=size, latent_dim=16, base_width=width,\n"
            "                    n_blocks=blocks, k=1, n=4)\n"
            "    disc, gen = Discriminator(cfg), Generator(cfg)\n"
            "    rng = np.random.default_rng(1)\n"
            "    phi_d, phi_g = disc.init_params(rng), gen.init_params(rng)\n"
            "    x = np.tanh(rng.standard_normal((4, 1, size, size))).astype(np.float32)\n"
            "    w_d, w_g, *_ = inner_loop(phi_d, phi_g, disc, gen, x, cfg,\n"
            "                              np.random.default_rng(2))\n"
            "    h.update(w_d.vector.tobytes() + w_g.vector.tobytes())\n"
            "print(h.hexdigest())\n")
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": SRC}
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.add(proc.stdout.strip())
        assert len(digests) == 1

    def test_deterministic_for_seed(self):
        disc, gen = tiny_models(CFG32)
        rng = np.random.default_rng(11)
        phi_d, phi_g = disc.init_params(rng), gen.init_params(rng)
        x = task_images(CFG32, 2, seed=1)
        cfg = RunConfig(k=2, n=2, inner_lr=1e-4)
        run = lambda: inner_loop(phi_d, phi_g, disc, gen, x, cfg,
                                 np.random.default_rng(12))
        a_d, a_g, *_ = run()
        b_d, b_g, *_ = run()
        np.testing.assert_array_equal(a_d.vector, b_d.vector)
        np.testing.assert_array_equal(a_g.vector, b_g.vector)

    def test_delta_equals_lr_times_recorded_gradients_double(self, monkeypatch):
        disc, gen = tiny_models(CFG64)
        rng = np.random.default_rng(14)
        phi_d, phi_g = disc.init_params(rng), gen.init_params(rng)
        cfg = RunConfig(k=4, n=2, inner_lr=1e-3)
        (w_d, w_g, *_), trace = traced_inner_loop(
            monkeypatch, phi_d, phi_g, disc, gen, task_images(CFG64, 2, 2),
            cfg, np.random.default_rng(15))
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
        cfg = RunConfig(k=4, n=2, inner_lr=1e-3)
        (w_d, w_g, *_), trace = traced_inner_loop(
            monkeypatch, phi_d, phi_g, disc, gen, task_images(CFG32, 2, 2),
            cfg, np.random.default_rng(15))
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
        return TaskDataset(classes=tuple(classes), train_ids=tuple(range(n_classes)),
                           val_ids=())

    def test_outer_step_reads_its_settings_from_cfg(self):
        # MetaState holds only what a checkpoint restores
        assert [f.name for f in fields(MetaState)] == [
            "phi_d", "phi_g", "adam_d", "adam_g", "step"]
        disc, gen = tiny_models(CFG32)
        state = fresh_state(disc, gen, np.random.default_rng(21))
        ds = self.make_dataset(CFG32)
        still, _ = meta_step(state, disc, gen, ds, RunConfig(k=1, n=2, outer_lr=0.0))
        moved, _ = meta_step(state, disc, gen, ds, RunConfig(k=1, n=2))
        np.testing.assert_array_equal(still.phi_d.vector, state.phi_d.vector)
        assert still.step == 1
        assert not np.array_equal(moved.phi_d.vector, state.phi_d.vector)

    def test_zero_inner_lr_leaves_phi(self):
        disc, gen = tiny_models(CFG32)
        state = fresh_state(disc, gen, np.random.default_rng(21))
        ds = self.make_dataset(CFG32)
        new, rec = meta_step(state, disc, gen, ds,
                             RunConfig(k=2, n=2, inner_lr=0.0))
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
        cfg = RunConfig(k=1, n=2, inner_lr=1e-3)
        x = task_images(CFG64, 2, seed=3)

        w_d, w_g, *_ = inner_loop(phi_d, phi_g, disc, gen, x, cfg, np.random.default_rng(23))
        pseudo_d = params_delta(phi_d, w_d).astype(np.float64)
        pseudo_g = params_delta(phi_g, w_g).astype(np.float64)

        # replay by hand with the same draws in the same order: z, eps, z2
        from figr.models import sample_latent
        draws = np.random.default_rng(23)
        with Graph():
            xt = Tensor(x.astype(np.float64))
            z = sample_latent(2, gen.cfg, draws)
            fake = gen.forward(phi_g.bind(trainable=False), z)
            bound_d = phi_d.bind()
            scores = disc.forward(bound_d, Tensor(np.concatenate([xt.data, fake.data])))
            loss_d = add(critic_loss(scores),
                         gradient_penalty(lambda v: disc.forward(bound_d, v), xt.data,
                                          fake.data, draws.uniform(size=(2, 1, 1, 1)),
                                          cfg.gp_lambda))
            gd = bound_d.add_grads(backward(loss_d), np.zeros(phi_d.total_len))
        w_d_manual = phi_d.with_vector(phi_d.vector - cfg.inner_lr * gd)
        with Graph():
            z2 = sample_latent(2, gen.cfg, draws)
            bound_g = phi_g.bind()
            loss_g = generator_loss(
                disc.forward(w_d_manual.bind(trainable=False), gen.forward(bound_g, z2)))
            gg = bound_g.add_grads(backward(loss_g), np.zeros(phi_g.total_len))

        # equal up to one float64 rounding of phi - (phi - lr*g)
        np.testing.assert_allclose(pseudo_d, cfg.inner_lr * gd, rtol=1e-9, atol=1e-15)
        np.testing.assert_allclose(pseudo_g, cfg.inner_lr * gg, rtol=1e-9, atol=1e-15)

    def test_ten_steps_bit_identical_across_runs(self):
        disc, gen = tiny_models(CFG32)
        ds = self.make_dataset(CFG32)
        cfg = RunConfig(k=2, n=2, inner_lr=1e-4)

        def run():
            state = fresh_state(disc, gen, np.random.default_rng(30))
            for _ in range(10):
                state, _ = meta_step(state, disc, gen, ds, cfg)
            return state

        a, b = run(), run()
        np.testing.assert_array_equal(a.phi_d.vector, b.phi_d.vector)
        np.testing.assert_array_equal(a.phi_g.vector, b.phi_g.vector)
        np.testing.assert_array_equal(a.adam_d.m, b.adam_d.m)
        assert a.step == b.step == 10

    def test_step_is_a_function_of_seed_and_step(self):
        # step t draws its task from key (STEP, t) under cfg.seed, whatever
        # ran before it, so a state at step 4 steps the same from any history
        disc, gen = tiny_models(CFG32)
        ds = self.make_dataset(CFG32, n_classes=5)
        cfg = RunConfig(k=1, n=2, seed=3)
        state = replace(fresh_state(disc, gen, np.random.default_rng(33)), step=4)
        a, rec = meta_step(state, disc, gen, ds, cfg)
        b, _ = meta_step(state, disc, gen, ds, cfg)
        assert rec.step == 5
        assert rec.task_id == sample_task(ds, derive(3, STEP, 5), split="train")[0]
        np.testing.assert_array_equal(a.phi_g.vector, b.phi_g.vector)
        other, _ = meta_step(replace(state, step=5), disc, gen, ds, cfg)
        assert not np.array_equal(other.phi_g.vector, a.phi_g.vector)

    def test_step_renders_only_the_sampled_class(self, monkeypatch):
        import figr.data
        calls = []
        real = figr.data.synth_glyph_image
        monkeypatch.setattr(figr.data, "synth_glyph_image",
                            lambda *a: calls.append(a) or real(*a))
        ds = figr.data.synth_glyph_dataset(6, 4, CFG32.image_size, seed=0)
        disc, gen = tiny_models(CFG32)
        state = fresh_state(disc, gen, np.random.default_rng(0))
        _, rec = meta_step(state, disc, gen, ds, RunConfig(k=1, n=2))
        assert len(calls) == 4
        assert {c[1] for c in calls} == {rec.task_id}

    def test_non_finite_step_leaves_state(self):
        disc, gen = tiny_models(CFG32)
        state = fresh_state(disc, gen, np.random.default_rng(21))
        snap = (state.phi_d.vector.copy(), state.phi_g.vector.copy(),
                state.adam_d.m.copy(), state.adam_g.v.copy())
        ds = self.make_dataset(CFG32, n_classes=1)
        ds.classes[0].images[:, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match=r"^meta-step 1 on task 0: non-finite"):
            meta_step(state, disc, gen, ds, RunConfig(k=2, n=2, inner_lr=1e-4))
        for before, after in zip(snap, (state.phi_d.vector, state.phi_g.vector,
                                        state.adam_d.m, state.adam_g.v)):
            np.testing.assert_array_equal(before, after)
        assert state.step == 0

    def test_outer_step_overflow_leaves_state(self):
        # a finite outer step too large for float32 makes phi inf in the cast
        disc, gen = tiny_models(CFG32)
        state = fresh_state(disc, gen, np.random.default_rng(21))
        snap = (state.phi_d.vector.copy(), state.phi_g.vector.copy())
        with pytest.raises(ValueError,
                           match=r"^meta-step 1 on task 0: non-finite critic phi, generator phi$"):
            meta_step(state, disc, gen, self.make_dataset(CFG32, n_classes=1),
                      RunConfig(k=1, n=2, outer_lr=1e300))
        np.testing.assert_array_equal(snap[0], state.phi_d.vector)
        np.testing.assert_array_equal(snap[1], state.phi_g.vector)
        assert state.step == 0

    def test_empty_dataset(self):
        from figr.data import TaskDataset
        disc, gen = tiny_models(CFG32)
        state = fresh_state(disc, gen, np.random.default_rng(0))
        ds = TaskDataset(classes=(), train_ids=(), val_ids=())
        with pytest.raises(ValueError, match="^the train split has no classes$"):
            meta_step(state, disc, gen, ds, RunConfig(k=1, n=1))


class TestGenerate:
    def test_count_validated(self):
        disc, gen = tiny_models(CFG32)
        rng = np.random.default_rng(40)
        with pytest.raises(ValueError):
            figr_generate(disc.init_params(rng), gen.init_params(rng), disc, gen,
                          task_images(CFG32, 2), RunConfig(k=1, n=2),
                          np.random.default_rng(0), count=0)

    def test_deterministic_and_nondegenerate(self):
        disc, gen = tiny_models(CFG32)
        rng = np.random.default_rng(41)
        phi_d, phi_g = disc.init_params(rng), gen.init_params(rng)
        x = task_images(CFG32, 2, seed=4)
        cfg = RunConfig(k=2, n=2, inner_lr=1e-4)

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
                      RunConfig(k=3, n=2, inner_lr=1e-3),
                      np.random.default_rng(0), count=2)
        np.testing.assert_array_equal(phi_d.vector, snap_d)
        np.testing.assert_array_equal(phi_g.vector, snap_g)

    @pytest.mark.parametrize("cfg", [
        CFG32, CFG64,
        RunConfig(image_size=32, latent_dim=6, base_width=4, n_blocks=3, precision="single"),
    ], ids=["tiny-single", "tiny-double", "32px"])
    def test_chunks_equal_one_batch_forward(self, cfg):
        # the generator runs over SAMPLE_CHUNK latent rows at a time; the
        # rows must be bitwise those of one forward of every latent at once,
        # from the same adapted w_g, at counts below, at and across a chunk
        assert SAMPLE_CHUNK == 16
        disc, gen = tiny_models(cfg)
        rng = np.random.default_rng(44)
        phi_d, phi_g = disc.init_params(rng), gen.init_params(rng)
        x = task_images(cfg, 2, seed=7)
        inner = RunConfig(k=1, n=2, inner_lr=1e-3)
        adapted = np.random.default_rng(45)
        _, w_g, *_ = inner_loop(phi_d, phi_g, disc, gen, x, inner, adapted)
        for count in (1, 15, 16, 17, 33):
            got = figr_generate(phi_d, phi_g, disc, gen, x, inner,
                                np.random.default_rng(45), count=count)
            z_rng = np.random.default_rng()
            z_rng.bit_generator.state = adapted.bit_generator.state
            want = gen.forward(w_g.bind(trainable=False),
                               sample_latent(count, gen.cfg, z_rng)).data
            assert got.dtype == want.dtype == cfg.dtype
            assert got.shape == want.shape == (count, 1, cfg.image_size, cfg.image_size)
            np.testing.assert_array_equal(got, want)

    def test_sampling_memory_does_not_grow_with_count(self):
        # tracemalloc's peak while adapting (k=1) and sampling 256 images at
        # the default config stays within the peak for 16 images plus the
        # 256-image output and 1 MiB; one batch-256 forward would add about
        # 0.5 MiB of activations per image
        cfg = RunConfig(k=1)
        disc, gen = tiny_models(cfg)
        rng = np.random.default_rng(46)
        phi_d, phi_g = disc.init_params(rng), gen.init_params(rng)
        x = task_images(cfg, cfg.n, seed=8)

        def peak(count):
            tracemalloc.start()
            try:
                out = figr_generate(phi_d, phi_g, disc, gen, x, cfg,
                                    np.random.default_rng(47), count=count)
                return tracemalloc.get_traced_memory()[1], out.nbytes
            finally:
                tracemalloc.stop()

        peak(SAMPLE_CHUNK)                   # warm-up
        chunk_peak, _ = peak(SAMPLE_CHUNK)
        many_peak, out_bytes = peak(256)
        assert many_peak <= chunk_peak + out_bytes + 2**20, (
            f"{many_peak / 2**20:.2f} MiB for 256 images, {chunk_peak / 2**20:.2f} MiB for 16")


class TestTapeRelease:
    def test_adaptation_leaves_no_cyclic_garbage(self):
        # each first-order backward releases its tape, so reference counting
        # alone frees the inner steps' activations
        disc, gen = tiny_models(CFG32)
        rng = np.random.default_rng(43)
        phi_d, phi_g = disc.init_params(rng), gen.init_params(rng)
        x = task_images(CFG32, 2, seed=6)
        cfg = RunConfig(k=2, n=2, inner_lr=1e-4)

        def adapt_and_generate():
            inner_loop(phi_d, phi_g, disc, gen, x, cfg,
                       np.random.default_rng(0))
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
    @pytest.mark.parametrize("cfg", [CFG32, CFG64, RunConfig()],
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

    @staticmethod
    def one_inner_step(cfg):
        """One inner step (k=1, n=2) on the model of cfg, as every pin here runs it."""
        disc, gen = tiny_models(cfg)
        rng = np.random.default_rng(53)
        phi_d, phi_g = disc.init_params(rng), gen.init_params(rng)
        inner_loop(phi_d, phi_g, disc, gen, task_images(cfg, 2, seed=54),
                   RunConfig(k=1, n=2), np.random.default_rng(55))

    def test_tape_nodes_per_step_pinned(self, monkeypatch):
        # nodes on the tape when each step's first-order backward starts, on
        # the 8 px tiny model; a change that re-inflates the tape of an inner
        # step fails here (the generator step read 51 nodes with its loss a
        # negated mean, and these read 481 and 193 with the gradient
        # penalty's backward unrestricted and layer_norm as 12 nodes, and
        # 242 and 91 with conv2d's recorded input gradient permuted twice
        # and prelu's built from masks, and 215 and 91 with a leaf node for
        # every constant, biases added through reshape -> expand and one
        # matmul rule per operand form, and 179 and 66 with each 1x1 and
        # dense layer a permute / reshape / matmul / add chain); the default
        # model's steps and the tiny critic step's node kinds are pinned
        # too, so a recorded rule that gains or loses a node kind fails here
        import figr.reptile
        tapes = []
        real_backward = figr.reptile.backward

        def counting(loss, create_graph=False):
            tapes.append([node.op for node in loss.graph.nodes])
            return real_backward(loss, create_graph=create_graph)

        monkeypatch.setattr(figr.reptile, "backward", counting)
        steps = {}
        for name, cfg in (("tiny", CFG32), ("default", RunConfig())):
            self.one_inner_step(cfg)
            steps[name], tapes[:] = tapes[:], []
        assert {name: [len(t) for t in ts] for name, ts in steps.items()} == {
            "tiny": [163, 50], "default": [355, 110]}
        assert Counter(steps["tiny"][0]) == {
            "mul": 24, "leaf": 20, "sum": 17, "reshape": 14, "expand": 12, "sub": 10,
            "prelu": 9, "add": 8, "permute": 7, "conv2d": 6, "div": 6, "layer_norm": 6,
            "matmul": 5, "square": 5, "affine": 4, "sqrt": 4, "fold3x3": 3,
            "subsample2": 2, "spread2": 1}

    def test_dispatches_per_step_pinned(self, monkeypatch):
        # _apply calls (graph ops run, recorded or not) in one inner step
        # (k=1) on the tape pin's two models: a later change may lower
        # these, and raising one needs a reason in CHANGES.md (they read
        # 390 and 840 with upsample2's first-order rule a reshape and a sum,
        # 388 and 834 with every primitive op's first-order rule in graph
        # ops, 197 and 425 with fold3x3's rule calling unfold3x3 and
        # spread2's calling subsample2 as graph ops, and 193 and 415 with the
        # generator loss a negated mean)
        count = [0]
        real_apply = ad._apply

        def counting(*args):
            count[0] += 1
            return real_apply(*args)

        monkeypatch.setattr(ad, "_apply", counting)
        dispatches = {}
        for name, cfg in (("tiny", CFG32), ("default", RunConfig())):
            count[0] = 0
            self.one_inner_step(cfg)
            dispatches[name] = count[0]
        assert dispatches == {"tiny": 192, "default": 414}

    def test_gemms_per_step_pinned(self, monkeypatch):
        # np.matmul calls and their multiply-adds, batch x m x k x n from the
        # operand shapes (a padded reduction counts at its padded length), in
        # one inner step (k=1) on the tape pin's two models: like the
        # dispatch pin, a later change may lower these, and raising one
        # needs a reason in CHANGES.md
        count = {}
        real_matmul = np.matmul

        def counting(a, b, *args, **kwargs):
            batch = np.broadcast_shapes(np.shape(a)[:-2], np.shape(b)[:-2])
            count["calls"] += 1
            count["macs"] += int(np.prod(batch + np.shape(a)[-2:])) * np.shape(b)[-1]
            return real_matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", counting)
        gemms = {}
        for name, cfg in (("tiny", CFG32), ("default", RunConfig())):
            count.update(calls=0, macs=0)
            self.one_inner_step(cfg)
            gemms[name] = dict(count)
        assert gemms == {"tiny": {"calls": 160, "macs": 1_018_752},
                         "default": {"calls": 374, "macs": 607_107_072}}

    def test_inner_loop_memory_peak_ceiling(self):
        # tracemalloc's peak over one default inner loop (k=2, n=4) after a
        # warm-up loop; it read 24.39 MiB when this ceiling was set, 29.22 MiB
        # when the tape's rules kept operands they read only the shape of and
        # a frozen critic's inputs, 43.08 MiB when the loop kept float64
        # copies of phi and a flat gradient per step, and 47.90 MiB when
        # backward kept every visited node to its end.  A later change may
        # lower the ceiling; raising it needs a reason in CHANGES.md
        cfg = RunConfig()
        disc, gen = tiny_models(cfg)
        rng = np.random.default_rng(53)
        phi_d, phi_g = disc.init_params(rng), gen.init_params(rng)
        x = task_images(cfg, 4, seed=54)

        def adapt():
            inner_loop(phi_d, phi_g, disc, gen, x, RunConfig(k=2, n=4),
                       np.random.default_rng(55))

        adapt()
        tracemalloc.start()
        try:
            adapt()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 25.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_tiny_inner_loop_memory_peak_ceiling(self):
        # the dispatch-bound tiny loop (8 px, width 4, k=2, n=2): tracemalloc's
        # peak after a warm-up loop read 0.254 MiB when this ceiling was set,
        # and 0.29-0.30 MiB when the tape's rules kept operands they read only
        # the shape of and a frozen critic's inputs.  The same rule as above
        # holds for changing it
        cfg = replace(CFG32, k=2, n=2)
        disc, gen = tiny_models(cfg)
        rng = np.random.default_rng(53)
        phi_d, phi_g = disc.init_params(rng), gen.init_params(rng)
        x = task_images(cfg, 2, seed=54)

        def adapt():
            inner_loop(phi_d, phi_g, disc, gen, x, cfg,
                       np.random.default_rng(55))

        adapt()
        tracemalloc.start()
        try:
            adapt()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.30 * 2**20, f"peak {peak / 2**20:.3f} MiB"

    def test_meta_step_memory_peak_ceiling(self):
        # tracemalloc's peak over one default meta-step (k=2), measured from
        # its start after a warm-up step; it read 24.67 MiB when this ceiling
        # was set, 29.24 MiB when the tape's rules kept operands they read only
        # the shape of and a frozen critic's inputs and the adapted copies
        # outlived the deltas, and 43.1 MiB when the inner loop and Adam
        # copied whole vectors.  The same rule as above holds for changing it
        cfg = RunConfig(k=2)
        disc, gen = tiny_models(cfg)
        ds = TestMetaStep().make_dataset(cfg)
        state = fresh_state(disc, gen, np.random.default_rng(57))
        state, _ = meta_step(state, disc, gen, ds, cfg)
        tracemalloc.start()
        try:
            meta_step(state, disc, gen, ds, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 26.0 * 2**20, f"peak {peak / 2**20:.2f} MiB"

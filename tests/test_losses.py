import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figr import autodiff as ad
from figr.autodiff import (
    Graph,
    ShapeMismatch,
    Tensor,
    backward,
    matmul,
)
from figr.gradcheck import finite_difference_gradient, max_relative_error
from figr.losses import critic_loss, generator_loss, gradient_penalty


def scores(*vals):
    return Tensor(np.array(vals, dtype=np.float64).reshape(-1, 1))


def joint(real, fake):
    """The score batch of one critic forward over [real; fake]."""
    return Tensor(np.concatenate([real.data, fake.data]))


class TestCriticLoss:
    def test_identical_distributions(self):
        assert critic_loss(joint(scores(1, 1), scores(1, 1))).item() == 0.0

    def test_arithmetic(self):
        assert critic_loss(joint(scores(2, 4), scores(1, 1))).item() == -2.0

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(0)
        a = scores(*rng.standard_normal(6))
        b = scores(*rng.standard_normal(6))
        assert critic_loss(joint(a, b)).item() == -critic_loss(joint(b, a)).item()

    def test_batch_mismatch(self):
        with pytest.raises(ShapeMismatch):
            critic_loss(scores(1, 2, 3))
        with pytest.raises(ShapeMismatch):
            critic_loss(Tensor(np.float64(1.0)))

    def test_linearity_in_scale(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        base = critic_loss(joint(scores(*a), scores(*b))).item()
        scaled = critic_loss(joint(scores(*(3.0 * a)), scores(*(3.0 * b)))).item()
        assert math.isclose(scaled, 3.0 * base, rel_tol=1e-12)


class TestGeneratorLoss:
    def test_single(self):
        assert generator_loss(scores(3)).item() == -3.0

    def test_balanced(self):
        assert generator_loss(scores(1, -1)).item() == 0.0

    def test_gradient_through_critic_of_generator(self):
        # finite differences through a tanh critic composed with a linear generator
        rng = np.random.default_rng(2)
        z = rng.standard_normal((3, 4))
        c = rng.standard_normal((5, 1))

        def f_np(w):
            return float(-np.mean(np.tanh(z @ w) @ c))

        def f_ad(w):
            fake = matmul(ad.tanh(matmul(Tensor(z.copy()), w)), Tensor(c.copy()))
            return generator_loss(fake)

        with Graph():
            w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
            g = backward(f_ad(w))[w].data
        fd = finite_difference_gradient(f_np, w.data, h=1e-6)
        assert max_relative_error(g, fd) < 1e-6


def linear_critic(w_row: np.ndarray):
    """D(v) = <w, v> per sample; input gradient is w everywhere."""
    wt = Tensor(w_row.reshape(-1, 1).astype(np.float64))

    def critic(v: Tensor) -> Tensor:
        flat = ad.reshape(v, (v.shape[0], -1))
        return matmul(flat, wt)

    return critic


def draw_eps(seed: int, b: int) -> np.ndarray:
    """One interpolation weight per sample, drawn as the inner loop draws them."""
    return np.random.default_rng(seed).uniform(size=(b, 1, 1, 1))


class TestGradientPenalty:
    def test_unit_norm_linear_critic_zero(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal(16)
        w /= np.linalg.norm(w)
        x = rng.standard_normal((4, 1, 4, 4))
        y = rng.standard_normal((4, 1, 4, 4))
        with Graph():
            pen = gradient_penalty(linear_critic(w), x, y, draw_eps(4, 4), gp_lambda=10.0)
        assert abs(pen.item()) < 1e-9

    def test_norm_three_gives_forty(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal(16)
        w *= 3.0 / np.linalg.norm(w)
        x = rng.standard_normal((6, 1, 4, 4))
        y = rng.standard_normal((6, 1, 4, 4))
        with Graph():
            pen = gradient_penalty(linear_critic(w), x, y, draw_eps(6, 6), gp_lambda=10.0)
        assert abs(pen.item() - 40.0) < 1e-5

    def test_penalty_nonnegative(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            w = rng.standard_normal(8) * rng.uniform(0.1, 4.0)
            x = rng.standard_normal((3, 1, 2, 4))
            y = rng.standard_normal((3, 1, 2, 4))
            with Graph():
                pen = gradient_penalty(linear_critic(w), x, y, draw_eps(seed, 3),
                                       gp_lambda=5.0)
            assert pen.item() >= 0.0

    def test_shape_mismatch(self):
        with Graph():
            with pytest.raises(ShapeMismatch):
                gradient_penalty(linear_critic(np.ones(4)),
                                 np.ones((2, 1, 2, 2)), np.ones((3, 1, 2, 2)),
                                 draw_eps(0, 2), 10.0)

    def test_gradient_wrt_critic_params_matches_fd(self):
        # two-layer critic; penalty differentiated through the double backward
        rng = np.random.default_rng(8)
        b, d, hdim = 3, 8, 5
        x = rng.standard_normal((b, 1, 2, 4))
        y = rng.standard_normal((b, 1, 2, 4))
        eps = rng.uniform(size=(b, 1, 1, 1))
        w2 = rng.standard_normal((hdim, 1))

        def penalty_value(w1_arr):
            with Graph():
                w1t = Tensor(np.asarray(w1_arr).copy())

                def critic(v):
                    h = ad.tanh(matmul(ad.reshape(v, (b, d)), w1t))
                    return matmul(h, Tensor(w2.copy()))

                pen = gradient_penalty(critic, x, y, eps, gp_lambda=10.0)
                return float(pen.item())

        w1_0 = rng.standard_normal((d, hdim))
        fd = finite_difference_gradient(penalty_value, w1_0, h=1e-6)

        with Graph():
            w1 = Tensor(w1_0.copy(), requires_grad=True)

            def critic(v):
                h = ad.tanh(matmul(ad.reshape(v, (b, d)), w1))
                return matmul(h, Tensor(w2.copy()))

            pen = gradient_penalty(critic, x, y, eps, gp_lambda=10.0)
            g = backward(pen)[w1].data
        assert max_relative_error(g, fd) < 1e-4

    def test_penalty_flows_only_into_critic(self):
        rng = np.random.default_rng(9)
        with Graph():
            w = Tensor(rng.standard_normal((4, 1)), requires_grad=True)
            x = rng.standard_normal((2, 1, 2, 2))
            y = rng.standard_normal((2, 1, 2, 2))

            def critic(v):
                return matmul(ad.reshape(v, (2, 4)), w)

            pen = gradient_penalty(critic, x, y, draw_eps(1, 2), 10.0)
            grads = backward(pen)
        assert w in grads
        # the interpolate is a fresh input: no gradient reaches the real or fake data
        assert not any(np.shares_memory(k.data, v) for k in grads for v in (x, y))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=6),
       st.lists(st.floats(-50, 50), min_size=1, max_size=6))
def test_critic_loss_antisymmetry_property(xs, ys):
    n = min(len(xs), len(ys))
    a = scores(*xs[:n])
    b = scores(*ys[:n])
    assert critic_loss(joint(a, b)).item() == -critic_loss(joint(b, a)).item()

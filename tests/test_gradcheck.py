import numpy as np
import pytest

from figr.autodiff import Graph
from figr.gradcheck import (
    DEFAULT_TOL,
    agreement_error,
    finite_difference_gradient,
    max_relative_error,
    run_gradcheck,
)
from figr.config import RunConfig
from figr.models import Discriminator, Generator
from figr.reptile import inner_loop

NAMES = ["generator-params", "critic-params", "critic-input", "gradient-penalty"]


class TestRunGradcheck:
    def test_passes_with_the_four_checks_per_trial(self):
        worst, results, ok = run_gradcheck(trials=2, seed=0)
        assert ok and worst < DEFAULT_TOL
        for trial in range(2):
            assert [r.name for r in results if r.trial == trial] == NAMES

    def test_each_check_catches_a_sign_flip(self, flipped_gradcheck):
        _, results, ok = run_gradcheck(trials=20, seed=0)
        assert not ok
        assert [r.name for r in results] == NAMES * 20
        for r in results:
            assert r.max_rel_err > DEFAULT_TOL, (r.trial, r.name)


class TestAgreementError:
    # the case that read 8.274e-05 against 1e-4 with a fixed 1e-8 floor:
    # trial 7 generator-params, |f| = 1.2, one coordinate at 3.58e-06 with a
    # finite-difference gap of 3.0e-10, which is round-off
    def test_round_off_gap_on_a_small_coordinate_passes(self):
        ad = np.array([3.6e-06, -0.81])
        fd = np.array([3.6e-06 - 3e-10, -0.81])
        # with a margin: the fixed floor read it at 8.3e-05
        assert agreement_error(ad, fd, f_value=1.2) < DEFAULT_TOL / 4

    def test_sign_flip_on_a_small_coordinate_fails(self):
        ad = np.array([1e-06, -0.81])
        fd = np.array([-1e-06, -0.81])
        assert agreement_error(ad, fd, f_value=1.2) > DEFAULT_TOL

    def test_round_off_on_a_cancelling_loss_passes(self):
        # a critic loss of 0.009 from scores near 1: an exactly zero gradient
        # reads two units in the last place of those scores over 2h
        ad = np.array([0.0, 0.26])
        fd = np.array([4.44e-10, 0.26])
        assert agreement_error(ad, fd, f_value=0.009) < DEFAULT_TOL

    def test_large_coordinates_stay_relative(self):
        ad = np.array([0.5])
        assert agreement_error(ad, ad * (1 + 2e-4), f_value=1.0) > DEFAULT_TOL


class TestFiniteDifference:
    def test_coords_pick_entries_of_the_full_gradient(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((3, 4))

        def f(x):
            return float(np.sum(np.tanh(x @ w)))

        x0 = rng.standard_normal((2, 3))
        full = finite_difference_gradient(f, x0)
        assert full.shape == x0.shape
        idx = np.array([5, 0, 3])
        part = finite_difference_gradient(f, x0, coords=idx)
        np.testing.assert_array_equal(part, full.reshape(-1)[idx])

    def test_max_relative_error(self):
        assert max_relative_error(np.array([1.0, 2.0]), np.array([1.0, 1.0])) == 0.5
        assert max_relative_error(np.zeros(0), np.zeros(0)) == 0.0


def recorded_ops(monkeypatch, fn) -> set[str]:
    ops = set()
    real = Graph.append

    def append(self, node):
        ops.add(node.op)
        return real(self, node)

    with monkeypatch.context() as m:
        m.setattr(Graph, "append", append)
        fn()
    return ops


TINY = RunConfig(image_size=8, latent_dim=6, base_width=4, n_blocks=1)


@pytest.mark.parametrize("cfg", [TINY, RunConfig()], ids=["tiny", "default"])
def test_gradcheck_covers_every_training_op(monkeypatch, cfg):
    # an op that a training step records but gradcheck never reaches would
    # go uncertified by `figr gradcheck`
    checked = recorded_ops(monkeypatch, lambda: run_gradcheck(trials=1))
    disc, gen = Discriminator(cfg), Generator(cfg)
    rng = np.random.default_rng(0)
    phi_d, phi_g = disc.init_params(rng), gen.init_params(rng)
    x = np.tanh(rng.standard_normal((2, 1, cfg.image_size, cfg.image_size)))
    trained = recorded_ops(monkeypatch, lambda: inner_loop(
        phi_d, phi_g, disc, gen, x.astype(cfg.dtype), RunConfig(k=1, n=2),
        np.random.default_rng(1)))
    assert "conv2d" in trained
    assert trained <= checked, sorted(trained - checked)

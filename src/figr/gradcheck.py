"""Finite-difference certification of every gradient path training uses,
and figr's one finite-difference oracle (`finite_difference_gradient`).

All checks run in double precision on small random networks: generator
parameters (through the critic), critic parameters, the critic's input
gradient, and the gradient penalty's parameter gradient, which exercises
the differentiated backward pass.  A check is a ParameterSet and a loss
of its bound tensors (the critic's input is a one-segment set); one
routine differentiates the loss and compares with finite differences at
COORDS random entries; a run passes when every error is below DEFAULT_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Graph, Tensor, backward
from .losses import critic_loss, generator_loss, gradient_penalty
from .models import BoundParams, Discriminator, Generator, ModelConfig, ParameterSet, Segment

CHECK_CFG = ModelConfig(image_size=8, latent_dim=5, base_width=4, n_blocks=1,
                        precision="double")
DEFAULT_TOL = 1e-4
COORDS = 24         # random parameter entries each check compares
FD_H = 1e-6
# relative accuracy of one evaluation of a check's loss: a few units in the
# last place of the O(1) scores and images it is built from
FD_ROUNDOFF = 8 * np.finfo(np.float64).eps


def finite_difference_gradient(f: Callable[[np.ndarray], float], x: np.ndarray,
                               h: float = FD_H, coords=None) -> np.ndarray:
    """Central differences (f(x+h*e_i) - f(x-h*e_i)) / 2h, in double precision.

    With coords (flat indices into x) only those entries are estimated and
    returned in that order; otherwise the full gradient, shaped like x.
    """
    x = np.array(x, dtype=np.float64)
    flat = x.reshape(-1)
    idxs = np.arange(flat.size) if coords is None else np.asarray(coords)
    out = np.zeros(len(idxs))
    for i, j in enumerate(idxs):
        orig = flat[j]
        flat[j] = orig + h
        fp = float(f(x))
        flat[j] = orig - h
        fm = float(f(x))
        flat[j] = orig
        out[i] = (fp - fm) / (2.0 * h)
    return out.reshape(x.shape) if coords is None else out


def max_relative_error(a: np.ndarray, b: np.ndarray, clamp: float = 1e-12) -> float:
    """max |a-b| / max(|a|,|b|,clamp), elementwise."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), clamp)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def agreement_error(ad: np.ndarray, fd: np.ndarray, f_value: float) -> float:
    """Max relative error of ad against central differences fd of f.

    fl(f) is off by about FD_ROUNDOFF * max(|f|, 1) at x + h and at x - h,
    so fd is off by about that over h.  The denominator of each ratio is
    clamped at this round-off bound divided by DEFAULT_TOL: a coordinate
    too small for finite differences to resolve to DEFAULT_TOL is judged
    by its absolute gap against the bound.  The scale is at least 1
    because |f| understates the values f is computed from when they
    cancel (a critic loss can read 0.009 from scores near 1).
    """
    bound = FD_ROUNDOFF * max(abs(float(f_value)), 1.0) / FD_H
    return max_relative_error(ad, fd, clamp=bound / DEFAULT_TOL)


@dataclass(frozen=True)
class CheckResult:
    name: str
    trial: int
    max_rel_err: float


def _check(params: ParameterSet, loss: Callable[[BoundParams], Tensor], rng,
           sign: float) -> float:
    """Agreement of loss's autodiff gradient in params with central differences
    at COORDS random entries of the parameter vector."""
    def value(vec):
        with Graph():
            return loss(params.with_vector(vec).bind(trainable=False)).item()

    with Graph():
        bound = params.bind()
        grad = sign * bound.flatten_grads(backward(loss(bound)))
    x = params.vector
    idxs = rng.choice(x.size, size=min(COORDS, x.size), replace=False)
    return agreement_error(grad[idxs], finite_difference_gradient(value, x, coords=idxs),
                           value(np.array(x, dtype=np.float64)))


def _generator_params(disc, gen, rng):
    phi_d = disc.init_params(rng).bind(trainable=False)
    phi_g = gen.init_params(rng)
    z = Tensor(rng.standard_normal((2, gen.cfg.latent_dim)))
    return phi_g, lambda p: generator_loss(disc.forward(phi_d, gen.forward(p, z)))


def _discriminator_params(disc, gen, rng):
    phi_d = disc.init_params(rng)
    s = disc.cfg.image_size
    x = np.tanh(rng.standard_normal((2, 1, s, s)))
    y = np.tanh(rng.standard_normal((2, 1, s, s)))
    xy = Tensor(np.concatenate([x, y]))
    return phi_d, lambda p: critic_loss(disc.forward(p, xy))


def _discriminator_input(disc, gen, rng):
    phi_d = disc.init_params(rng).bind(trainable=False)
    s = disc.cfg.image_size
    x0 = np.tanh(rng.standard_normal((1, 1, s, s)))
    # the input image as the one parameter
    image = ParameterSet(x0.reshape(-1), (Segment("x", 0, x0.shape),))
    return image, lambda p: ad.tsum(disc.forward(phi_d, p["x"]))


def _gradient_penalty(disc, gen, rng):
    phi_d = disc.init_params(rng)
    s = disc.cfg.image_size
    x = np.tanh(rng.standard_normal((2, 1, s, s)))
    y = np.tanh(rng.standard_normal((2, 1, s, s)))
    eps = rng.uniform(size=(2, 1, 1, 1))
    return phi_d, lambda p: gradient_penalty(lambda v: disc.forward(p, v), x, y, eps,
                                             gp_lambda=10.0)


# each check gives the parameters it differentiates and its loss of them
CHECKS = (
    ("generator-params", _generator_params),
    ("critic-params", _discriminator_params),
    ("critic-input", _discriminator_input),
    ("gradient-penalty", _gradient_penalty),
)


def run_gradcheck(trials: int = 20, seed: int = 0, corrupt: bool = False,
                  log=None) -> tuple[float, list[CheckResult], bool]:
    """Returns (max error over all checks, per-check results, all under DEFAULT_TOL).

    corrupt=True flips the sign of every reverse-mode gradient before the
    comparison; the run must then fail, proving the check has teeth.
    """
    disc = Discriminator(CHECK_CFG)
    gen = Generator(CHECK_CFG)
    sign = -1.0 if corrupt else 1.0
    results: list[CheckResult] = []
    worst = 0.0
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))
        for name, setup in CHECKS:
            err = _check(*setup(disc, gen, rng), rng, sign)
            results.append(CheckResult(name, trial, err))
            worst = max(worst, err)
            if log is not None:
                log(f"trial {trial:2d} {name:18s} max rel err {err:.3e}")
    return worst, results, worst < DEFAULT_TOL

"""Finite-difference certification of every gradient path training uses,
and figr's one finite-difference oracle (`finite_difference_gradient`).

All checks run in double precision on small random networks: generator
parameters (through the critic), critic parameters, the critic's input
gradient, and the gradient penalty's parameter gradient, which exercises
the differentiated backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import Graph, Tensor, backward
from .losses import critic_loss, generator_loss, gradient_penalty
from .models import Discriminator, Generator, ModelConfig

CHECK_CFG = ModelConfig(image_size=8, latent_dim=5, base_width=4, n_blocks=1,
                        precision="double")
DEFAULT_TOL = 1e-4
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


def _fd_error(value, x: np.ndarray, grad: np.ndarray, rng, coords: int) -> float:
    """Agreement of grad with central differences at `coords` random entries of x."""
    idxs = rng.choice(x.size, size=min(coords, x.size), replace=False)
    return agreement_error(grad[idxs], finite_difference_gradient(value, x, coords=idxs),
                           value(np.array(x, dtype=np.float64)))


def _check_generator_params(disc, gen, rng, coords, sign) -> float:
    phi_d = disc.init_params(rng)
    phi_g = gen.init_params(rng)
    z = rng.standard_normal((2, gen.cfg.latent_dim))

    def value(vec):
        ps = phi_g.with_vector(vec)
        with Graph("double"):
            fake = gen.forward(ps.bind(trainable=False), Tensor(z.copy()))
            return generator_loss(disc.forward(phi_d.bind(trainable=False), fake)).item()

    with Graph("double"):
        bound = phi_g.bind()
        fake = gen.forward(bound, Tensor(z.copy()))
        loss = generator_loss(disc.forward(phi_d.bind(trainable=False), fake))
        grad = sign * bound.flatten_grads(backward(loss))
    return _fd_error(value, phi_g.vector, grad, rng, coords)


def _check_discriminator_params(disc, gen, rng, coords, sign) -> float:
    phi_d = disc.init_params(rng)
    s = disc.cfg.image_size
    x = np.tanh(rng.standard_normal((2, 1, s, s)))
    y = np.tanh(rng.standard_normal((2, 1, s, s)))
    xy = np.concatenate([x, y])

    def value(vec):
        ps = phi_d.with_vector(vec)
        with Graph("double"):
            return critic_loss(disc.forward(ps.bind(trainable=False), Tensor(xy))).item()

    with Graph("double"):
        bound = phi_d.bind()
        loss = critic_loss(disc.forward(bound, Tensor(xy)))
        grad = sign * bound.flatten_grads(backward(loss))
    return _fd_error(value, phi_d.vector, grad, rng, coords)


def _check_discriminator_input(disc, gen, rng, coords, sign) -> float:
    phi_d = disc.init_params(rng)
    s = disc.cfg.image_size
    x0 = np.tanh(rng.standard_normal((1, 1, s, s)))

    def value(flat):
        with Graph("double"):
            xt = Tensor(flat.reshape(x0.shape).copy())
            return disc.forward(phi_d.bind(trainable=False), xt).sum().item()

    with Graph("double"):
        xt = Tensor(x0.copy(), requires_grad=True)
        score = disc.forward(phi_d.bind(trainable=False), xt)
        grad = sign * backward(score.sum())[xt].data.reshape(-1)
    return _fd_error(value, x0.reshape(-1), grad, rng, coords)


def _check_gradient_penalty(disc, gen, rng, coords, sign) -> float:
    phi_d = disc.init_params(rng)
    s = disc.cfg.image_size
    x = np.tanh(rng.standard_normal((2, 1, s, s)))
    y = np.tanh(rng.standard_normal((2, 1, s, s)))
    eps = rng.uniform(size=(2, 1, 1, 1))

    def value(vec):
        ps = phi_d.with_vector(vec)
        with Graph("double"):
            bound = ps.bind(trainable=False)
            return gradient_penalty(lambda v: disc.forward(bound, v),
                                    Tensor(x.copy()), Tensor(y.copy()),
                                    gp_lambda=10.0, eps=eps).item()

    with Graph("double"):
        bound = phi_d.bind()
        pen = gradient_penalty(lambda v: disc.forward(bound, v),
                               Tensor(x.copy()), Tensor(y.copy()),
                               gp_lambda=10.0, eps=eps)
        grad = sign * bound.flatten_grads(backward(pen))
    return _fd_error(value, phi_d.vector, grad, rng, coords)


CHECKS = (
    ("generator-params", _check_generator_params),
    ("critic-params", _check_discriminator_params),
    ("critic-input", _check_discriminator_input),
    ("gradient-penalty", _check_gradient_penalty),
)


def run_gradcheck(trials: int = 20, seed: int = 0, tol: float = DEFAULT_TOL,
                  coords: int = 24, corrupt: bool = False,
                  log=None) -> tuple[float, list[CheckResult], bool]:
    """Returns (max error over all checks, per-check results, all under tol).

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
        for name, fn in CHECKS:
            err = fn(disc, gen, rng, coords, sign)
            results.append(CheckResult(name, trial, err))
            worst = max(worst, err)
            if log is not None:
                log(f"trial {trial:2d} {name:18s} max rel err {err:.3e}")
    return worst, results, worst < tol

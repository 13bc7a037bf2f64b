"""Critic and generator objectives of WGAN-GP, the only objective figr
trains: the Wasserstein critic and generator losses and the gradient
penalty on random interpolates (Gulrajani et al., arXiv:1704.00028).

The critic loss reads the scores of one critic forward over the joint
batch [real; fake].  The penalty takes its input gradient with a
backward recorded onto the tape but restricted to the interpolates
(``create_graph=(xhat,)``): the critic's own parameter gradients of that
inner pass are never used, so they are neither computed nor recorded,
and the penalty's parameter gradient comes from the caller's one
first-order backward through the recorded pass.  The caller draws the
interpolation weights, one per sample, so the penalty consumes no rng."""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeMismatch, Tensor, backward

NORM_FLOOR = 1e-12  # inside the sqrt, avoids the derivative singularity at 0


def critic_loss(scores: Tensor) -> Tensor:
    """mean(fake) - mean(real) on one joint score batch; the critic drives
    this down.

    The first half of the rows scores the real batch and the second half
    the fake one, so a single critic forward over both batches feeds it.
    Each half is summed on its own and the two sums are weighted -1/n and
    +1/n, so swapping the halves negates the loss exactly.
    """
    rows = scores.shape[0] if scores.ndim else 0
    if rows == 0 or rows % 2:
        raise ShapeMismatch(
            f"joint score batch needs equal real and fake halves, got {scores.shape}")
    n = rows // 2
    sums = ad.tsum(ad.reshape(scores, (2, -1)), axes=(1,))
    weights = np.array([-1.0 / n, 1.0 / n], dtype=scores.dtype)
    return ad.tsum(ad.mul(sums, Tensor(weights)))


def generator_loss(fake_scores: Tensor) -> Tensor:
    """-mean(fake); the generator drives the critic's fake scores up."""
    return ad.neg(ad.tmean(fake_scores))


def gradient_penalty(critic: Callable[[Tensor], Tensor],
                     x: np.ndarray, y: np.ndarray, eps: np.ndarray,
                     gp_lambda: float) -> Tensor:
    """lambda * E[(||grad_xhat critic(xhat)||_2 - 1)^2] on interpolates.

    x and y are the real and fake image arrays; xhat = eps*x + (1-eps)*y
    with eps one weight per sample, in U(0,1) when training, given as an
    array of b values (shape (b,) or (b, 1, 1, 1)) and cast to x's dtype.
    xhat is treated as an input: the returned scalar carries gradient only
    into the critic's parameters, and the input gradient is taken with
    respect to xhat alone.
    """
    if x.shape != y.shape:
        raise ShapeMismatch(f"real/fake batches differ: {x.shape} vs {y.shape}")
    b = x.shape[0]
    eps = np.asarray(eps, dtype=x.dtype).reshape((b,) + (1,) * (x.ndim - 1))

    xhat = Tensor((eps * x + (1.0 - eps) * y).astype(x.dtype), requires_grad=True)
    scores = critic(xhat)
    grad_x = backward(ad.tsum(scores), create_graph=(xhat,))[xhat]
    flat = ad.reshape(grad_x, (b, -1))
    norms = ad.sqrt(ad.add(ad.tsum(ad.square(flat), axes=(1,)), NORM_FLOOR))
    return ad.mul(ad.tmean(ad.square(ad.sub(norms, 1.0))), float(gp_lambda))


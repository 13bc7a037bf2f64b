"""Critic and generator objectives of WGAN-GP, the only objective figr
trains: the Wasserstein critic and generator losses and the gradient
penalty on random interpolates (Gulrajani et al., arXiv:1704.00028)."""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeMismatch, Tensor, backward

NORM_FLOOR = 1e-12  # inside the sqrt, avoids the derivative singularity at 0


def critic_loss(real_scores: Tensor, fake_scores: Tensor) -> Tensor:
    """mean(fake) - mean(real); the critic drives this down."""
    if real_scores.shape != fake_scores.shape:
        raise ShapeMismatch(
            f"score batches differ: {real_scores.shape} vs {fake_scores.shape}")
    return ad.sub(ad.tmean(fake_scores), ad.tmean(real_scores))


def generator_loss(fake_scores: Tensor) -> Tensor:
    """-mean(fake); the generator drives the critic's fake scores up."""
    return ad.neg(ad.tmean(fake_scores))


def gradient_penalty(critic: Callable[[Tensor], Tensor],
                     x: Tensor | np.ndarray,
                     y: Tensor | np.ndarray,
                     gp_lambda: float,
                     rng: np.random.Generator | None = None,
                     eps: np.ndarray | None = None) -> Tensor:
    """lambda * E[(||grad_xhat critic(xhat)||_2 - 1)^2] on random interpolates.

    xhat = eps*x + (1-eps)*y with one eps ~ U(0,1) per sample.  The
    interpolate is treated as an input: the returned scalar carries
    gradient only into the critic's parameters.  An explicit eps array
    overrides the rng draw (used by the oracle tests).
    """
    xd = x.data if isinstance(x, Tensor) else np.asarray(x)
    yd = y.data if isinstance(y, Tensor) else np.asarray(y)
    if xd.shape != yd.shape:
        raise ShapeMismatch(f"real/fake batches differ: {xd.shape} vs {yd.shape}")
    b = xd.shape[0]
    if eps is None:
        if rng is None:
            raise ValueError("gradient_penalty needs an rng or explicit eps")
        eps = rng.uniform(size=(b,) + (1,) * (xd.ndim - 1))
    eps = np.asarray(eps, dtype=xd.dtype).reshape((b,) + (1,) * (xd.ndim - 1))

    xhat = Tensor((eps * xd + (1.0 - eps) * yd).astype(xd.dtype), requires_grad=True)
    scores = critic(xhat)
    grad_x = backward(scores.sum(), create_graph=True)[xhat]
    flat = ad.reshape(grad_x, (b, -1))
    norms = ad.sqrt(ad.add(ad.tsum(ad.square(flat), axes=(1,)), NORM_FLOOR))
    return ad.mul(ad.tmean(ad.square(ad.sub(norms, 1.0))), float(gp_lambda))


"""The meta-learning core: inner-loop adversarial adaptation of parameter
copies, the outer update that feeds phi - w to Adam as a pseudo-gradient,
and few-shot generation from an adapted copy."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Graph, Tensor, backward
from .losses import critic_loss, generator_loss, gradient_penalty
from .models import (
    Discriminator,
    Generator,
    LayoutMismatch,
    ParameterSet,
    params_delta,
    sample_latent,
)
from .rng import RngStreams


class NonFiniteStep(ValueError):
    """A meta-step's inner losses or Reptile deltas hold a NaN or inf.

    Raised before the outer Adam update, so phi and the moments keep the
    last finite values.
    """


@dataclass(frozen=True)
class InnerConfig:
    k: int = 10
    n: int = 4
    inner_lr: float = 1e-4
    gp_lambda: float = 10.0

    def __post_init__(self):
        if self.k < 1 or self.n < 1 or self.inner_lr < 0 or self.gp_lambda < 0:
            raise ValueError("need k >= 1, n >= 1, inner_lr >= 0, gp_lambda >= 0")


@dataclass
class AdamState:
    """First/second moment vectors and the shared timestep."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, size: int) -> "AdamState":
        return cls(np.zeros(size, dtype=np.float64), np.zeros(size, dtype=np.float64))


@dataclass
class MetaState:
    phi_d: ParameterSet
    phi_g: ParameterSet
    adam_d: AdamState
    adam_g: AdamState
    outer_lr: float = 1e-5
    beta1: float = 0.5
    beta2: float = 0.999
    adam_eps: float = 1e-8
    step: int = 0


@dataclass(frozen=True)
class TrainRecord:
    step: int
    task_id: int
    critic_loss: float
    gen_loss: float
    delta_d_norm: float
    delta_g_norm: float
    seconds: float


def init_meta_state(disc: Discriminator, gen: Generator, rng: np.random.Generator,
                    outer_lr: float = 1e-5, beta1: float = 0.5,
                    beta2: float = 0.999, adam_eps: float = 1e-8) -> MetaState:
    phi_d = disc.init_params(rng)
    phi_g = gen.init_params(rng)
    return MetaState(
        phi_d=phi_d, phi_g=phi_g,
        adam_d=AdamState.zeros(phi_d.total_len),
        adam_g=AdamState.zeros(phi_g.total_len),
        outer_lr=outer_lr, beta1=beta1, beta2=beta2, adam_eps=adam_eps,
    )


def adam_step(adam: AdamState, params: ParameterSet, pseudo_grad: np.ndarray,
              lr: float, beta1: float, beta2: float, eps: float
              ) -> tuple[ParameterSet, AdamState]:
    """One bias-corrected Adam update; moments are kept in float64."""
    if pseudo_grad.shape != (params.total_len,):
        raise LayoutMismatch(
            f"pseudo-gradient of {pseudo_grad.shape} for {params.total_len} parameters")
    g = pseudo_grad.astype(np.float64)
    t = adam.t + 1
    m = beta1 * adam.m + (1.0 - beta1) * g
    v = beta2 * adam.v + (1.0 - beta2) * np.square(g)
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    update = lr * m_hat / (np.sqrt(v_hat) + eps)
    new_vec = (params.vector.astype(np.float64) - update).astype(params.vector.dtype)
    return params.with_vector(new_vec), AdamState(m, v, t)


@dataclass
class InnerStats:
    final_critic_loss: float
    final_gen_loss: float


def inner_loop(phi_d: ParameterSet, phi_g: ParameterSet,
               disc: Discriminator, gen: Generator,
               x_task: np.ndarray, cfg: InnerConfig,
               latent_rng: np.random.Generator, eps_rng: np.random.Generator
               ) -> tuple[ParameterSet, ParameterSet, InnerStats]:
    """K alternating WGAN-GP critic/generator SGD steps on copies of phi.

    The same n real images are reused at every iteration; a fresh latent
    batch of size n is drawn before each critic step and again before
    each generator step; eps_rng gives the penalty's n interpolation
    weights ~ U(0,1) at each critic step.  The adapted copies are kept as
    w = phi - lr * (running f64 gradient sum), which is the exact SGD
    chain in real arithmetic but keeps the phi - w identity tight even
    in single precision.  The callers' phi are never mutated.
    """
    if x_task.shape[0] != cfg.n:
        raise ValueError(f"x_task has {x_task.shape[0]} images, expected n={cfg.n}")
    x_task = np.ascontiguousarray(x_task, dtype=phi_d.vector.dtype)

    phi_d64 = phi_d.vector.astype(np.float64)
    phi_g64 = phi_g.vector.astype(np.float64)
    acc_d = np.zeros_like(phi_d64)
    acc_g = np.zeros_like(phi_g64)
    w_d, w_g = phi_d.copy(), phi_g.copy()
    d_val = g_val = float("nan")

    for _ in range(cfg.k):
        with Graph():
            z = sample_latent(cfg.n, gen.cfg, latent_rng)
            fake = gen.forward(w_g.bind(trainable=False), z).data
            bound_d = w_d.bind()
            # neither batch carries gradient to its input and every layer
            # is per-sample, so one forward scores real and fake together
            scores = disc.forward(bound_d, Tensor(np.concatenate([x_task, fake])))
            eps = eps_rng.uniform(size=(cfg.n, 1, 1, 1))
            loss_d = ad.add(
                critic_loss(scores),
                gradient_penalty(lambda v: disc.forward(bound_d, v),
                                 x_task, fake, eps, cfg.gp_lambda))
            gd = bound_d.flatten_grads(backward(loss_d))
            d_val = loss_d.item()
        acc_d += gd
        if cfg.inner_lr > 0:
            w_d = w_d.with_vector(
                (phi_d64 - cfg.inner_lr * acc_d).astype(w_d.vector.dtype))

        with Graph():
            z2 = sample_latent(cfg.n, gen.cfg, latent_rng)
            bound_g = w_g.bind()
            fake2_scores = disc.forward(w_d.bind(trainable=False),
                                        gen.forward(bound_g, z2))
            loss_g = generator_loss(fake2_scores)
            gg = bound_g.flatten_grads(backward(loss_g))
            g_val = loss_g.item()
        acc_g += gg
        if cfg.inner_lr > 0:
            w_g = w_g.with_vector(
                (phi_g64 - cfg.inner_lr * acc_g).astype(w_g.vector.dtype))

    return w_d, w_g, InnerStats(d_val, g_val)


def meta_step(state: MetaState, disc: Discriminator, gen: Generator, dataset,
              cfg: InnerConfig, streams: RngStreams
              ) -> tuple[MetaState, TrainRecord]:
    """One outer iteration: sample a task, adapt copies, move phi toward them."""
    from .data import sample_images, sample_task

    t0 = time.perf_counter()
    task_id, task = sample_task(dataset, streams.task, split="train")
    x = sample_images(task, cfg.n, streams.task)

    w_d, w_g, stats = inner_loop(state.phi_d, state.phi_g, disc, gen, x,
                                 cfg, streams.latent, streams.eps)
    pseudo_d = params_delta(state.phi_d, w_d)
    pseudo_g = params_delta(state.phi_g, w_g)
    bad = [name for name, value in (("critic loss", stats.final_critic_loss),
                                    ("generator loss", stats.final_gen_loss),
                                    ("critic delta", pseudo_d),
                                    ("generator delta", pseudo_g))
           if not np.isfinite(value).all()]
    if bad:
        raise NonFiniteStep(f"meta-step {state.step + 1} on task {task_id}: "
                            f"non-finite {', '.join(bad)}")
    phi_d, adam_d = adam_step(state.adam_d, state.phi_d, pseudo_d,
                              state.outer_lr, state.beta1, state.beta2, state.adam_eps)
    phi_g, adam_g = adam_step(state.adam_g, state.phi_g, pseudo_g,
                              state.outer_lr, state.beta1, state.beta2, state.adam_eps)

    new_state = replace(state, phi_d=phi_d, phi_g=phi_g,
                        adam_d=adam_d, adam_g=adam_g, step=state.step + 1)
    record = TrainRecord(
        step=new_state.step, task_id=task_id,
        critic_loss=stats.final_critic_loss, gen_loss=stats.final_gen_loss,
        delta_d_norm=float(np.linalg.norm(pseudo_d)),
        delta_g_norm=float(np.linalg.norm(pseudo_g)),
        seconds=time.perf_counter() - t0,
    )
    return new_state, record


def figr_generate(phi_d: ParameterSet, phi_g: ParameterSet,
                  disc: Discriminator, gen: Generator,
                  x_task: np.ndarray, cfg: InnerConfig,
                  rng: np.random.Generator, count: int) -> np.ndarray:
    """Adapt copies on the conditioning images, then sample `count` images.

    The one rng serves as the inner loop's latent and interpolation
    stream, and then draws the sampling latents.  Returns an array in
    (-1, 1); the callers' phi are untouched.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    _, w_g, _ = inner_loop(phi_d, phi_g, disc, gen, x_task, cfg, rng, rng)
    z = sample_latent(count, gen.cfg, rng)
    return gen.forward(w_g.bind(trainable=False), z).data

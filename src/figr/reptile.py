"""The meta-learning core: inner-loop adversarial adaptation of parameter
copies, the outer update that feeds phi - w to Adam as a pseudo-gradient,
and few-shot generation from an adapted copy.

Every setting (k, n, the inner step, the penalty weight, the outer Adam
step) is read from the run's RunConfig; MetaState holds only what a
checkpoint restores."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Graph, Tensor, backward
from .config import RunConfig
from .data import sample_images, sample_task
from .losses import critic_loss, generator_loss, gradient_penalty
from .models import Discriminator, Generator, ParameterSet, params_delta, sample_latent
from .rng import STEP, derive

SAMPLE_CHUNK = 16      # latent rows per generator forward in figr_generate


def _check_finite(step: int, task_id: int, values) -> None:
    bad = [name for name, value in values if not np.isfinite(value).all()]
    if bad:
        raise ValueError(f"meta-step {step} on task {task_id}: non-finite {', '.join(bad)}")


@dataclass
class AdamState:
    """First/second moment vectors; the timestep is the MetaState's step."""

    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros(cls, size: int) -> "AdamState":
        return cls(np.zeros(size, dtype=np.float64), np.zeros(size, dtype=np.float64))


@dataclass
class MetaState:
    phi_d: ParameterSet
    phi_g: ParameterSet
    adam_d: AdamState
    adam_g: AdamState
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


def init_meta_state(phi_d: ParameterSet, phi_g: ParameterSet) -> MetaState:
    """Step 0 at phi, with zero Adam moments."""
    return MetaState(phi_d, phi_g, AdamState.zeros(phi_d.total_len),
                     AdamState.zeros(phi_g.total_len))


def adam_step(adam: AdamState, params: ParameterSet, pseudo_grad: np.ndarray, t: int,
              lr: float, beta1: float, beta2: float, eps: float
              ) -> tuple[ParameterSet, AdamState]:
    """Bias-corrected Adam update number t (from 1); moments are kept in float64.

    The textbook expression's operations run in its order, products only
    commuted, in place on four fresh float64 vectors: m, v, g (which then
    holds sqrt(v_hat) + eps) and the update (then the new parameters).
    """
    if pseudo_grad.shape != (params.total_len,):
        raise ValueError(
            f"pseudo-gradient of {pseudo_grad.shape} for {params.total_len} parameters")
    g = pseudo_grad.astype(np.float64)
    m = adam.m * beta1
    m += g * (1.0 - beta1)
    v = adam.v * beta2
    v += np.multiply(np.square(g, out=g), 1.0 - beta2, out=g)
    update = m / (1.0 - beta1 ** t)
    update *= lr
    update /= np.add(np.sqrt(np.divide(v, 1.0 - beta2 ** t, out=g), out=g), eps, out=g)
    with np.errstate(over="ignore"):    # meta_step refuses the inf this leaves
        new = params.with_vector(np.subtract(params.vector, update, out=update))
    return new, AdamState(m, v)


def inner_loop(phi_d: ParameterSet, phi_g: ParameterSet,
               disc: Discriminator, gen: Generator,
               x_task: np.ndarray, cfg: RunConfig, rng: np.random.Generator
               ) -> tuple[ParameterSet, ParameterSet, float, float]:
    """K alternating WGAN-GP critic/generator SGD steps on copies of phi;
    returns the adapted (w_d, w_g) and the last critic and generator losses.

    The same n real images are reused at every iteration.  Each critic
    step draws from rng a fresh latent batch of size n and then the
    penalty's n interpolation weights ~ U(0,1); each generator step draws
    another latent batch.  The adapted copies are kept as
    w = phi - lr * (running f64 gradient sum), which is the exact SGD
    chain in real arithmetic but keeps the phi - w identity tight even
    in single precision.  The callers' phi are never mutated, so w starts
    as phi itself.  Whole vectors allocated: the two float64 sums, which
    the gradients are added into, and per update lr * sum, phi - lr * sum
    and, for float32 phi, its cast to the new w.  On the generator step's
    tape the frozen critic keeps only its prelu masks and layer_norm's
    arrays, not the inputs of its conv2d, affine and prelu nodes.
    """
    if x_task.shape[0] != cfg.n:
        raise ValueError(f"x_task has {x_task.shape[0]} images, expected n={cfg.n}")
    x_task = np.ascontiguousarray(x_task, dtype=phi_d.vector.dtype)

    acc_d = np.zeros(phi_d.total_len, dtype=np.float64)
    acc_g = np.zeros(phi_g.total_len, dtype=np.float64)
    w_d, w_g = phi_d, phi_g
    d_val = g_val = float("nan")

    for _ in range(cfg.k):
        with Graph():
            z = sample_latent(cfg.n, gen.cfg, rng)
            fake = gen.forward(w_g.bind(trainable=False), z).data
            bound_d = w_d.bind()
            # neither batch carries gradient to its input and every layer
            # is per-sample, so one forward scores real and fake together
            scores = disc.forward(bound_d, Tensor(np.concatenate([x_task, fake])))
            eps = rng.uniform(size=(cfg.n, 1, 1, 1))
            loss_d = ad.add(
                critic_loss(scores),
                gradient_penalty(lambda v: disc.forward(bound_d, v),
                                 x_task, fake, eps, cfg.gp_lambda))
            bound_d.add_grads(backward(loss_d), acc_d)
            d_val = loss_d.item()
        if cfg.inner_lr > 0:
            w_d = w_d.with_vector(phi_d.vector - cfg.inner_lr * acc_d)

        with Graph():
            z2 = sample_latent(cfg.n, gen.cfg, rng)
            bound_g = w_g.bind()
            fake2_scores = disc.forward(w_d.bind(trainable=False),
                                        gen.forward(bound_g, z2))
            loss_g = generator_loss(fake2_scores)
            bound_g.add_grads(backward(loss_g), acc_g)
            g_val = loss_g.item()
        if cfg.inner_lr > 0:
            w_g = w_g.with_vector(phi_g.vector - cfg.inner_lr * acc_g)

    return w_d, w_g, d_val, g_val


def meta_step(state: MetaState, disc: Discriminator, gen: Generator, dataset,
              cfg: RunConfig) -> tuple[MetaState, TrainRecord]:
    """One outer iteration: sample a task, adapt copies, move phi toward them.

    Every draw of step t = state.step + 1 comes from key (STEP, t) under
    cfg.seed, so the step is a function of the state and the config alone;
    t is also the Adam timestep.  A step whose inner losses, Reptile deltas
    or updated phi hold a NaN or inf raises ValueError before it returns,
    so the caller's state keeps its last finite phi and moments."""
    t0 = time.perf_counter()
    t = state.step + 1
    rng = derive(cfg.seed, STEP, t)
    task_id, task = sample_task(dataset, rng, split="train")
    x = sample_images(task, cfg.n, rng)

    # _check_finite refuses a diverging step; numpy need not warn on the way
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w_d, w_g, loss_d, loss_g = inner_loop(state.phi_d, state.phi_g, disc, gen, x, cfg, rng)
        pseudo_d, pseudo_g = params_delta(state.phi_d, w_d), params_delta(state.phi_g, w_g)
        del w_d, w_g                # the adapted copies are freed before Adam's vectors
        _check_finite(t, task_id, (("critic loss", loss_d), ("generator loss", loss_g),
                                   ("critic delta", pseudo_d), ("generator delta", pseudo_g)))
        phi_d, adam_d = adam_step(state.adam_d, state.phi_d, pseudo_d, t,
                                  cfg.outer_lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
        phi_g, adam_g = adam_step(state.adam_g, state.phi_g, pseudo_g, t,
                                  cfg.outer_lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
    # a finite but huge step overflows phi's float32 cast
    _check_finite(t, task_id, (("critic phi", phi_d.vector),
                               ("generator phi", phi_g.vector)))

    new_state = MetaState(phi_d, phi_g, adam_d, adam_g, step=t)
    record = TrainRecord(
        step=new_state.step, task_id=task_id,
        critic_loss=loss_d, gen_loss=loss_g,
        delta_d_norm=float(np.linalg.norm(pseudo_d)),
        delta_g_norm=float(np.linalg.norm(pseudo_g)),
        seconds=time.perf_counter() - t0,
    )
    return new_state, record


def figr_generate(phi_d: ParameterSet, phi_g: ParameterSet,
                  disc: Discriminator, gen: Generator,
                  x_task: np.ndarray, cfg: RunConfig,
                  rng: np.random.Generator, count: int) -> np.ndarray:
    """Adapt copies on the conditioning images, then sample `count` images.

    The one rng serves the inner loop, and then draws the `count` sampling
    latents in one call.  The
    generator maps them SAMPLE_CHUNK rows at a time into one array, bitwise
    one batch-`count` forward's (every layer is per-sample), so memory past
    the output does not grow with count.  Returns an array in (-1, 1); the
    callers' phi are untouched.
    """
    w_g = inner_loop(phi_d, phi_g, disc, gen, x_task, cfg, rng)[1]
    z, bound = sample_latent(count, gen.cfg, rng).data, w_g.bind(trainable=False)
    out = np.empty((count, 1) + (gen.cfg.image_size,) * 2, dtype=z.dtype)
    for i in range(0, count, SAMPLE_CHUNK):
        out[i:i + SAMPLE_CHUNK] = gen.forward(bound, Tensor(z[i:i + SAMPLE_CHUNK])).data
    return out

"""Randomness addressed by key: every draw is a function of (seed, key).

Each consumer gets `derive(seed, *key)`, the PCG64 generator of
SeedSequence spawn key `key` under a seed, so no generator runs through a
whole run and none carries state from one unit of work to the next
(counter-based in the sense of Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC 2011).  Under the run's seed:

- (INIT, 0) draws φ₀, the critic's parameters and then the generator's;
- (STEP, t) draws all of meta-step t, in order: the task, its n images,
  then the inner loop's latents and interpolation weights;
- (MONTAGE, t) draws the montage written after step t.

Under `figr eval`'s seed, (EVAL_PICK, class) picks a class's conditioning
images and (EVAL_ARM, class) adapts and samples both arms; under `figr
generate`'s, (GENERATE_PICK, 0) picks the class and (GENERATE, class) its
images, adaptation and samples.  Under split_seed, the empty key picks
the validation classes, and (class,) and (class, image) draw a synthetic
glyph's strokes and its jitter; under `figr gradcheck`'s seed, (trial,)
draws a trial.  So a checkpoint holds no rng state: a resume at step s
needs only s, and neither the montage nor the checkpoint cadence can move
training.
"""

from __future__ import annotations

import numpy as np

# First spawn-key entry of each consumer.  Synthetic glyphs draw from keys
# (class,) and (class, image) under split_seed, often the run's seed too.
# SeedSequence splits key entries into 32-bit words, so a tag >= 2**32 and
# one more entry make a key no glyph has (2**32 alone is (0, 1)).  The
# fourth tag, once the eval baseline's, stays unused so that the tags after
# it, and with them the draws of `figr generate`, keep their values.
INIT, EVAL_PICK, EVAL_ARM, _, GENERATE_PICK, GENERATE, STEP, MONTAGE = range(2**32, 2**32 + 8)


def derive(seed: int, *key: int) -> np.random.Generator:
    """The PCG64 generator of spawn key `key` under seed (no key: default_rng(seed)'s)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))

"""Quantitative proxies for generation quality, plus montage rendering.

A montage is the one layout `figr train` and `figr generate` draw: the n
conditioning images as the top row, the generated images in rows of n
below, SEPARATOR_PX white pixels between tiles.

There is no trustworthy automated judge for few-shot generation, so the
artifact reports kernel MMD against held-out class images (lower is
better) together with a conditioning-set nearest-neighbour distance that
exposes verbatim copying (zero means the model reproduced an input).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BANDWIDTH_FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0)
SEPARATOR_PX = 2        # white gap between montage tiles


@dataclass(frozen=True)
class EvalReport:
    task_id: int
    task_name: str
    mmd2: float
    baseline_mmd2: float
    nn_min_distance: float


def _flatten(images: np.ndarray) -> np.ndarray:
    arr = np.asarray(images, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("image set is empty")
    return arr.reshape(arr.shape[0], -1)


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * (a @ b.T), 0.0)


def _kernel(sq: np.ndarray, bandwidths: np.ndarray) -> np.ndarray:
    out = np.zeros_like(sq)
    for sigma in bandwidths:
        out += np.exp(-sq / (2.0 * sigma * sigma))
    return out


def median_bandwidths(reference: np.ndarray) -> np.ndarray:
    """Median-heuristic bandwidth ladder: BANDWIDTH_FACTORS times the median
    pairwise distance of a reference sample set."""
    flat = _flatten(reference)
    med = 1.0
    if flat.shape[0] >= 2:
        sq = _sq_dists(flat, flat)
        med = float(np.median(np.sqrt(sq[~np.eye(sq.shape[0], dtype=bool)])))
    return np.asarray(BANDWIDTH_FACTORS, dtype=np.float64) * (1.0 if med <= 0 else med)


def mmd_squared(a: np.ndarray, b: np.ndarray, bandwidths) -> float:
    """Unbiased MMD^2 with a sum-of-Gaussians kernel.

    Sets with fewer than two elements contribute no self term.
    """
    fa, fb = _flatten(a), _flatten(b)
    if fa.shape[1] != fb.shape[1]:
        raise ValueError(f"flattened dims differ: {fa.shape[1]} vs {fb.shape[1]}")
    bw = np.asarray(list(bandwidths), dtype=np.float64)
    if bw.size == 0 or np.any(bw <= 0):
        raise ValueError("bandwidths must be positive and non-empty")
    total = 0.0
    for f in (fa, fb):
        if f.shape[0] > 1:
            m, kff = f.shape[0], _kernel(_sq_dists(f, f), bw)
            total += (kff.sum() - np.trace(kff)) / (m * (m - 1))
    total -= 2.0 * _kernel(_sq_dists(fa, fb), bw).mean()
    return float(total)


def nn_distance(generated: np.ndarray, conditioning: np.ndarray) -> float:
    """Mean over generated images of the min L2 distance to any conditioning
    image, divided by the flattened dimension; zero flags verbatim copies."""
    fg, fc = _flatten(generated), _flatten(conditioning)
    if fg.shape[1] != fc.shape[1]:
        raise ValueError(f"flattened dims differ: {fg.shape[1]} vs {fc.shape[1]}")
    # direct differences (not the quadratic expansion) so exact matches give 0
    d = np.linalg.norm(fg[:, None, :] - fc[None, :, :], axis=2)
    return float(np.mean(d.min(axis=1)) / fg.shape[1])


def to_uint8(images: np.ndarray) -> np.ndarray:
    """[-1,1] -> 8-bit via round(127.5*(v+1)), clipped."""
    return np.clip(np.rint(127.5 * (np.asarray(images) + 1.0)), 0, 255).astype(np.uint8)


def montage(conditioning: np.ndarray, generated: np.ndarray) -> np.ndarray:
    """The module docstring's layout as one 8-bit image, from [M,1,S,S] arrays
    in [-1,1]; separators and unused trailing cells are white, no border."""
    columns = len(conditioning)
    tiles = to_uint8(np.concatenate([conditioning, generated])[:, 0])
    m, h, w = tiles.shape
    rows = -(-m // columns)
    out = np.full((rows * (h + SEPARATOR_PX) - SEPARATOR_PX,
                   columns * (w + SEPARATOR_PX) - SEPARATOR_PX), 255, dtype=np.uint8)
    for i in range(m):
        r, c = divmod(i, columns)
        y, x = r * (h + SEPARATOR_PX), c * (w + SEPARATOR_PX)
        out[y:y + h, x:x + w] = tiles[i]
    return out

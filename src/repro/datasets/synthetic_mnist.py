"""Deterministic synthetic MNIST-like dataset.

Why synthetic?  The paper's experiments use MNIST, but this environment has no
network access.  The generator below produces a 10-class, 28x28 grayscale
image dataset with the properties that matter to FAIR-BFL's evaluation:

* classes are separable but overlapping, so accuracy climbs gradually over
  communication rounds rather than saturating immediately;
* samples of a class share a spatial structure ("digit prototype" built from a
  class-specific set of strokes) plus per-sample deformation and pixel noise,
  so non-IID partitioning by label produces genuinely skewed client gradients;
* the generator is fully deterministic given a seed, so every accuracy
  curve the benches print is replayable.

The public API mirrors a conventional MNIST loader: ``images`` with shape
``(num_samples, 784)`` scaled to ``[0, 1]`` and integer ``labels``.

Memory: the per-sample draws (label, shift, mix, contrast, brightness) are
made for all rows first, then the one ``(n, 28, 28)`` output is filled in
place, ``_BLOCK_ROWS`` rows at a time — prototype mix, contrast, brightness,
pixel noise, clip — so the temporaries are a block's, not the dataset's.
Each element sees the same floating-point operations in the same order as a
whole-array expression would apply, and ``Generator.normal`` drawn block by
block yields the same stream as one whole-array draw, so the bytes do not
depend on the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import new_rng

__all__ = ["SyntheticMNIST", "load_synthetic_mnist"]

IMAGE_SIDE = 28
IMAGE_PIXELS = IMAGE_SIDE * IMAGE_SIDE
NUM_CLASSES = 10
#: Scale of the per-sample prototype deformation: intra-class variability, and
#: so gradient diversity between clients holding the same class.
DEFORMATION = 0.6
_BLOCK_ROWS = 512


def _class_prototype(label: int, rng: np.random.Generator) -> np.ndarray:
    """Build a smooth 28x28 prototype image for ``label``.

    Each class gets a distinct superposition of oriented Gaussian ridges and
    blobs, giving classes a stable spatial identity analogous to digit shapes.
    """
    ys, xs = np.mgrid[0:IMAGE_SIDE, 0:IMAGE_SIDE]
    ys = ys / (IMAGE_SIDE - 1)
    xs = xs / (IMAGE_SIDE - 1)
    proto = np.zeros((IMAGE_SIDE, IMAGE_SIDE), dtype=np.float64)
    num_strokes = 3 + (label % 3)
    for _ in range(num_strokes):
        cx, cy = rng.uniform(0.2, 0.8, size=2)
        angle = rng.uniform(0.0, np.pi)
        length = rng.uniform(0.2, 0.45)
        width = rng.uniform(0.03, 0.08)
        # Distance from each pixel to the stroke's central line segment axis.
        dx = xs - cx
        dy = ys - cy
        along = dx * np.cos(angle) + dy * np.sin(angle)
        across = -dx * np.sin(angle) + dy * np.cos(angle)
        ridge = np.exp(-(across**2) / (2 * width**2)) * np.exp(
            -np.clip(np.abs(along) - length, 0.0, None) ** 2 / (2 * width**2)
        )
        proto += ridge
    proto /= max(proto.max(), 1e-9)
    return proto


@dataclass
class SyntheticMNIST:
    """In-memory synthetic image classification dataset.

    Attributes
    ----------
    images:
        ``(num_samples, 784)`` float64 array in ``[0, 1]``.
    labels:
        ``(num_samples,)`` int64 array with values in ``[0, 10)``.
    """

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 2 or self.images.shape[1] != IMAGE_PIXELS:
            raise ValueError(
                f"images must have shape (n, {IMAGE_PIXELS}), got {self.images.shape}"
            )
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError(
                f"labels must have shape ({self.images.shape[0]},), got {self.labels.shape}"
            )

    def __len__(self) -> int:
        return int(self.images.shape[0])


def load_synthetic_mnist(
    num_samples: int = 6000,
    *,
    seed: int = 0,
    noise_std: float = 0.25,
) -> SyntheticMNIST:
    """Generate a synthetic MNIST-like dataset.

    Parameters
    ----------
    num_samples:
        Total number of images to generate.
    seed:
        Seed controlling prototypes, per-sample deformation and noise.
    noise_std:
        Standard deviation of the additive pixel noise (higher = harder task).

    Classes are equally likely, and each sample mixes its class prototype with
    a shifted copy by up to :data:`DEFORMATION`.

    Returns
    -------
    SyntheticMNIST
        The generated dataset.
    """
    if num_samples <= 0:
        raise ValueError(f"num_samples must be positive, got {num_samples}")
    if not (math.isfinite(noise_std) and noise_std >= 0):
        raise ValueError(f"noise_std must be finite and non-negative, got {noise_std}")

    proto_rng = new_rng(seed, "synthetic-mnist", "prototypes")
    sample_rng = new_rng(seed, "synthetic-mnist", "samples")

    prototypes = np.stack(
        [_class_prototype(label, proto_rng) for label in range(NUM_CLASSES)], axis=0
    )  # (10, 28, 28)

    proportions = np.full(NUM_CLASSES, 1.0 / NUM_CLASSES)
    labels = sample_rng.choice(NUM_CLASSES, size=num_samples, p=proportions).astype(np.int64)

    # Per-sample brightness/contrast jitter plus smooth deformation fields built
    # from a small number of random low-frequency components (vectorised across
    # the whole batch: the deformation is approximated as a per-sample mixture of
    # the class prototype with one of several pre-shifted variants).
    shifts = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]
    shifted_protos = np.stack(
        [
            np.stack([np.roll(np.roll(p, dy, axis=0), dx, axis=1) for p in prototypes])
            for (dy, dx) in shifts
        ],
        axis=0,
    )  # (num_shifts, 10, 28, 28)

    shift_choice = sample_rng.integers(0, len(shifts), size=num_samples)
    mix = DEFORMATION * sample_rng.uniform(0.2, 0.8, size=(num_samples, 1, 1))
    contrast = sample_rng.uniform(0.7, 1.3, size=(num_samples, 1, 1))
    brightness = sample_rng.uniform(-0.05, 0.05, size=(num_samples, 1, 1))

    images = np.empty((num_samples, IMAGE_SIDE, IMAGE_SIDE))
    for lo in range(0, num_samples, _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        block, block_labels, block_mix = images[rows], labels[rows], mix[rows]
        np.multiply(1.0 - block_mix, prototypes[block_labels], out=block)
        block += block_mix * shifted_protos[shift_choice[rows], block_labels]
        block *= contrast[rows]
        block += brightness[rows]
        block += sample_rng.normal(0.0, noise_std, size=block.shape)
        np.clip(block, 0.0, 1.0, out=block)

    return SyntheticMNIST(images.reshape(num_samples, IMAGE_PIXELS), labels)

"""Synthetic aggregated-curve datasets built from six standard test functions.

The component curves are the Donoho-Johnstone test functions Bumps, Blocks,
Doppler and Heavisine plus the smooth Logit and SpaHet functions.  Observed
samples are weighted linear combinations of the components on a dyadic grid
with i.i.d. Gaussian noise calibrated to a signal-to-noise ratio.

Randomness is fully reproducible: a PCG64 generator seeded through
``numpy.random.SeedSequence`` (callers may pass spawn keys for substreams),
with normal variates produced by inverse-CDF transform of 53-bit uniforms so
that results do not depend on platform or thread count.
"""

from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy.special import ndtri

from .shrinkage import check_integer

__all__ = [
    "COMPONENT_NAMES",
    "ComponentFunction",
    "DatasetSpec",
    "Dataset",
    "component_function",
    "eval_component",
    "sample_grid",
    "draw_weights",
    "sigma_for_snr",
    "standard_normal",
    "generate_dataset",
    "dataset_to_csv",
]

# Bump/jump locations and magnitudes shared by Bumps and Blocks.
_POSITIONS = np.array([0.1, 0.13, 0.15, 0.23, 0.25, 0.40, 0.44, 0.65, 0.76, 0.78, 0.81])
_BUMP_HEIGHTS = np.array([4.0, 5.0, 3.0, 4.0, 5.0, 4.2, 2.1, 4.3, 3.1, 5.1, 4.2])
_BUMP_WIDTHS = np.array([0.005, 0.005, 0.006, 0.01, 0.01, 0.03, 0.01, 0.01, 0.005, 0.008, 0.005])
_BLOCK_HEIGHTS = np.array([4.0, -5.0, 3.0, -4.0, 5.0, -4.2, 2.1, 4.3, -3.1, 2.1, -4.2])


def _bumps(x: np.ndarray) -> np.ndarray:
    u = (x[..., None] - _POSITIONS) / _BUMP_WIDTHS
    return np.sum(_BUMP_HEIGHTS * (1.0 + np.abs(u)) ** -4, axis=-1)


def _blocks(x: np.ndarray) -> np.ndarray:
    # K(x) = (1 + sgn(x))/2 with sgn(0) = 0
    u = x[..., None] - _POSITIONS
    return np.sum(_BLOCK_HEIGHTS * (1.0 + np.sign(u)) / 2.0, axis=-1)


def _doppler(x: np.ndarray) -> np.ndarray:
    return np.sqrt(x * (1.0 - x)) * np.sin(2.1 * np.pi / (x + 0.05))


def _heavisine(x: np.ndarray) -> np.ndarray:
    return 4.0 * np.sin(4.0 * np.pi * x) - np.sign(x - 0.3) - np.sign(0.72 - x)


def _logit(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-20.0 * (x - 0.5)))


def _spahet(x: np.ndarray) -> np.ndarray:
    c = 2.0 ** -0.6
    return np.sqrt(x * (1.0 - x)) * np.sin(2.0 * np.pi * (1.0 + c) / (x + c))


_EVALUATORS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "bumps": _bumps,
    "blocks": _blocks,
    "doppler": _doppler,
    "heavisine": _heavisine,
    "logit": _logit,
    "spahet": _spahet,
}

COMPONENT_NAMES = tuple(_EVALUATORS)


@dataclass(frozen=True)
class ComponentFunction:
    """A named component curve on [0, 1]."""

    name: str
    evaluator: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError(f"{self.name} is defined on [0, 1]")
        return self.evaluator(arr)


def component_function(name: str) -> ComponentFunction:
    key = name.strip().lower()
    if key not in _EVALUATORS:
        raise ValueError(f"unknown component {name!r}; choose from {COMPONENT_NAMES}")
    return ComponentFunction(key, _EVALUATORS[key])


def eval_component(name: str, x):
    """Evaluate one component function at x in [0, 1]."""
    value = component_function(name)(x)
    return float(value) if np.ndim(x) == 0 else value


def sample_grid(M: int) -> np.ndarray:
    """Equally spaced sampling locations t_m = m/M, m = 1..M."""
    if M < 2:
        raise ValueError(f"need at least 2 samples, got {M}")
    return np.arange(1, M + 1) / M


def _rng_from(seed) -> np.random.Generator:
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.PCG64(seed))


def standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Inverse-CDF normal variates from 53-bit uniforms on the open (0, 1).

    Deterministic given the generator state; avoids rejection sampling so the
    draw count per variate is fixed.
    """
    k = rng.integers(0, 2 ** 53, size=shape, dtype=np.int64)
    return ndtri((k + 0.5) / 2 ** 53)


def draw_weights(L: int, I: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Draw the L x I mixing matrix linking components to observed samples.

    Entries are i.i.d. uniform on [0.5, 1.5] (bounded away from zero so every
    component is present in every sample).  Rank deficiency has probability
    zero; the least-squares stage rejects it should it occur.
    """
    if I < L:
        raise ValueError(f"need at least as many samples as components (I={I} < L={L})")
    if rng is None:
        rng = _rng_from(0)
    return 0.5 + rng.random((L, I))


def sigma_for_snr(truth: np.ndarray, weights: np.ndarray, snr: float) -> float:
    """Noise sd giving the requested signal-to-noise ratio.

    sigma = sd(vec(truth @ weights)) / snr with the population standard
    deviation pooled over all noiseless aggregated values.  An SNR so small
    that sigma overflows, as a subnormal one does, is rejected.
    """
    check_snr(snr)
    sd = float(np.std(truth @ weights))
    if sd == 0.0:
        raise ValueError("noiseless aggregated values are constant; SNR undefined")
    sigma = sd / snr
    if not np.isfinite(sigma):
        raise ValueError(f"snr {snr!r} is too small: the noise sd {sd:.3g} / snr overflows")
    return sigma


def check_snr(snr) -> None:
    """Reject an SNR unless it is a finite real number > 0 (a bool is not)."""
    if isinstance(snr, bool) or not (isinstance(snr, numbers.Real) and 0 < snr < np.inf):
        raise ValueError(f"snr must be positive and finite, got {snr!r}")


@dataclass(frozen=True)
class DatasetSpec:
    """Inputs fully determining one synthetic dataset.  A field of the wrong
    kind or out of range fails when the spec is built."""

    components: tuple[str, ...]
    M: int
    I: int
    snr: float
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.components, (tuple, list)) or not self.components:
            raise ValueError(f"need at least one component, got {self.components!r}")
        for c in self.components:
            if not isinstance(c, str) or c.strip().lower() not in _EVALUATORS:
                raise ValueError(f"unknown component {c!r}")
        object.__setattr__(self, "components",
                           tuple(c.strip().lower() for c in self.components))
        check_integer("M", self.M)
        if self.M < 2 or self.M & (self.M - 1):
            raise ValueError(f"M must be a power of two >= 2, got {self.M}")
        check_integer("I", self.I)
        if self.I < len(self.components):
            raise ValueError(f"I={self.I} < L={len(self.components)}")
        check_integer("seed", self.seed)
        check_snr(self.snr)


@dataclass(frozen=True)
class Dataset:
    """A realized dataset: sampled truth, weights, noisy aggregated samples."""

    grid: np.ndarray                # (M,)
    truth: np.ndarray               # (M, L)
    weights: np.ndarray             # (L, I)
    observed: np.ndarray            # (M, I)
    sigma_true: float
    components: tuple[str, ...]


@lru_cache(maxsize=16)
def _truth(components: tuple[str, ...], M: int) -> np.ndarray:
    """The read-only M x L component curves on `sample_grid` (M), evaluated
    once per (components, M): every replicate of a study samples the same."""
    truth = np.column_stack([_EVALUATORS[name](sample_grid(M)) for name in components])
    truth.flags.writeable = False
    return truth


def generate_dataset(spec: DatasetSpec,
                     seed_seq: Optional[np.random.SeedSequence] = None) -> Dataset:
    """Sample the truth, draw weights, and add SNR-calibrated Gaussian noise.

    Fully determined by ``spec`` (and ``seed_seq`` when given, which is how
    the simulation harness injects per-replicate substreams).
    """
    rng = _rng_from(seed_seq if seed_seq is not None else spec.seed)
    grid = sample_grid(spec.M)
    truth = _truth(spec.components, spec.M).copy()  # each dataset owns its truth
    weights = draw_weights(len(spec.components), spec.I, rng)
    sigma = sigma_for_snr(truth, weights, spec.snr)
    noise = sigma * standard_normal(rng, (spec.M, spec.I))
    observed = truth @ weights + noise
    return Dataset(grid=grid, truth=truth, weights=weights, observed=observed,
                   sigma_true=sigma, components=spec.components)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def dataset_to_csv(dataset: Dataset, path) -> None:
    """Write observed samples as rows (t, sample_id, value)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "sample_id", "value"])
        M, I = dataset.observed.shape
        for i in range(I):
            for m in range(M):
                writer.writerow([_fmt(dataset.grid[m]), i, _fmt(dataset.observed[m, i])])

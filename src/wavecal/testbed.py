"""Synthetic aggregated-curve datasets built from six standard test functions.

The component curves are the Donoho-Johnstone test functions Bumps, Blocks,
Doppler and Heavisine plus the smooth Logit and SpaHet functions.  Observed
samples are weighted linear combinations of the components on a dyadic grid
with i.i.d. Gaussian noise calibrated to a signal-to-noise ratio.

Randomness is fully reproducible: a PCG64 generator seeded through
``numpy.random.SeedSequence`` from the spec's seed and a spawn key, with
normal variates produced by inverse-CDF transform of 53-bit uniforms, a
fixed number of draws each, so that results do not depend on thread count.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import ndtri

from .shrinkage import check_integer, check_real

__all__ = [
    "COMPONENT_NAMES",
    "DatasetSpec",
    "Dataset",
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


def eval_component(name: str, x):
    """Evaluate one component function, named in any case and padding, at x
    in [0, 1]: a float for a scalar x, an array otherwise."""
    key = name.strip().lower()
    if key not in _EVALUATORS:
        raise ValueError(f"unknown component {name!r}; choose from {COMPONENT_NAMES}")
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):  # NaN fails it too
        raise ValueError(f"{key} is defined on [0, 1]")
    value = _EVALUATORS[key](arr)
    return float(value) if np.ndim(x) == 0 else value


def sample_grid(M: int) -> np.ndarray:
    """Equally spaced sampling locations t_m = m/M, m = 1..M."""
    if M < 2:
        raise ValueError(f"need at least 2 samples, got {M}")
    return np.arange(1, M + 1) / M


def standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Inverse-CDF normal variates of the uniforms (k + 1/2) / 2^53 on (0, 1),
    k the top 53 bits of one 64-bit output each: no rejection sampling, so the
    draw count per variate is fixed and the variates follow the generator state.
    Above 1/2 the sum rounds half to even, and k = 2^53 - 1 would round to
    1.0, where ndtri is +inf; that one uniform is clamped to 1 - 2^-53
    (variate 8.21).  Each step works in place on the one uniform array."""
    u = rng.random(shape)
    u += 2.0 ** -54
    np.minimum(u, 1.0 - 2.0 ** -53, out=u)
    return ndtri(u, out=u)


def draw_weights(L: int, I: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the L x I mixing matrix linking components to observed samples.

    Entries are i.i.d. uniform on [0.5, 1.5] (bounded away from zero so every
    component is present in every sample).  Rank deficiency has probability
    zero; the least-squares stage rejects it should it occur.
    """
    if I < L:
        raise ValueError(f"need at least as many samples as components (I={I} < L={L})")
    return 0.5 + rng.random((L, I))


def sigma_for_snr(signal: np.ndarray, snr: float) -> float:
    """Noise sd giving the requested signal-to-noise ratio.

    sigma = sd(vec(signal)) / snr with the population standard deviation
    pooled over all noiseless aggregated values, signal = truth @ weights.
    An SNR so small that sigma overflows, as a subnormal one does, is
    rejected.
    """
    check_real("snr", snr)
    sd = float(np.std(signal))
    if sd == 0.0:
        raise ValueError("noiseless aggregated values are constant; SNR undefined")
    sigma = sd / snr
    if not np.isfinite(sigma):
        raise ValueError(f"snr {snr!r} is too small: the noise sd {sd:.3g} / snr overflows")
    return sigma


@dataclass(frozen=True)
class DatasetSpec:
    """Inputs that, with a spawn key (`generate_dataset`), fully determine one
    synthetic dataset; ``seed`` is the root of every substream.  A field of
    the wrong kind or out of range fails when the spec is built."""

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
        check_real("snr", self.snr)


@dataclass(frozen=True)
class Dataset:
    """A realized dataset: sampled truth, weights, noisy aggregated samples."""

    grid: np.ndarray                # (M,)
    truth: np.ndarray               # (M, L)
    weights: np.ndarray             # (L, I)
    observed: np.ndarray            # (M, I)
    sigma_true: float


@lru_cache(maxsize=16)
def _truth(components: tuple[str, ...], M: int) -> np.ndarray:
    """The read-only M x L component curves on `sample_grid` (M), evaluated
    once per (components, M): every replicate of a study samples the same."""
    truth = np.column_stack([_EVALUATORS[name](sample_grid(M)) for name in components])
    truth.flags.writeable = False
    return truth


def generate_dataset(spec: DatasetSpec, spawn_key: tuple[int, ...] = ()) -> Dataset:
    """Sample the truth, draw weights, and add SNR-calibrated Gaussian noise.

    Fully determined by ``spec`` and ``spawn_key``: the generator is seeded
    with ``SeedSequence(spec.seed, spawn_key=spawn_key)``, and the simulation
    harness gives each replicate its own key (`run_study`).
    """
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(spec.seed, spawn_key=spawn_key)))
    grid = sample_grid(spec.M)
    truth = _truth(spec.components, spec.M).copy()  # each dataset owns its truth
    weights = draw_weights(len(spec.components), spec.I, rng)
    signal = truth @ weights
    sigma = sigma_for_snr(signal, spec.snr)
    observed = standard_normal(rng, (spec.M, spec.I))
    observed *= sigma
    observed += signal
    return Dataset(grid=grid, truth=truth, weights=weights, observed=observed,
                   sigma_true=sigma)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path, header: list[str], rows) -> None:
    """Write a header and then ``rows``, each a list of fields, as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _columns_to_csv(header: list[str], grid: np.ndarray, matrix: np.ndarray, path) -> None:
    """Write an M x K matrix as rows (t, column index, value), column by
    column, each float with 17 significant digits."""
    M, K = matrix.shape
    t = [_fmt(v) for v in grid[:M]]
    _write_csv(path, header, ([t[m], k, _fmt(matrix[m, k])] for k in range(K) for m in range(M)))


def dataset_to_csv(dataset: Dataset, path) -> None:
    """Write observed samples as rows (t, sample_id, value)."""
    _columns_to_csv(["t", "sample_id", "value"], dataset.grid, dataset.observed, path)

"""End-to-end estimation of component curves from aggregated samples.

Pipeline: transform the observed M x I matrix to the wavelet domain column
by column, estimate the noise scale, shrink every detail coefficient of the
M x I coefficient matrix in row blocks that span levels, solve a
least-squares system for the component coefficients through the known
mixing weights, and invert the transform.  With ``output="coefficients"``
the pipeline stops before the inverse and returns the components' wavelet
coefficients, which `run_study` scores.

The forward transform, the pooled noise estimate and the pseudo-inverse of
the weights do not depend on the rule, and a study runs every rule on the
same dataset, so each is kept in a one-entry cache per thread (`_LastResult`)
for the last key that thread saw: (observed, weights, filter taps, J0) for
the coefficients and sigma-hat, the weights for the pseudo-inverse.  Keys
are read-only copies compared bit for bit, so a hit returns the same bits as
a recomputation; the cached arrays are read-only.  The first stage checks both
inputs and the coefficients, so the cache holds only finite inputs with
finite coefficients, and a later rule call on them skips the finiteness
passes.  The least-squares stage takes one thin SVD of the weights, which
serves both the rank check and the pseudo-inverse.  Each stage's ValueError,
TypeError or ArithmeticError becomes a `PipelineError` naming the stage
(`_stage`); the transform, least-squares and inverse stages let numpy
overflow silently and check their output instead, so a pipeline call emits
no numpy warning there.

On its first call in a process, `estimate_components` runs
`_keep_freed_heap`, which allocates and frees one untouched 16 MiB array.
Under glibc, that raises the heap's mmap and trim thresholds (see the
helper), so the freed temporaries of each shrinkage block stay in the
process for the next block instead of going back to the kernel.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional

import numpy as np

from .shrinkage import (DEFAULT_J0, RULES, LevelPolicy, RuleSpec, check_integer,
                        estimate_sigma, resolve_rule, shrink_pyramid)
from .testbed import _columns_to_csv
from .wavelet import Pyramid, WaveletFilter, transform_columns

__all__ = [
    "PipelineError",
    "RankDeficiencyError",
    "EstimationConfig",
    "solve_gamma",
    "estimate_components",
    "estimates_to_csv",
]

_RANK_RTOL = 1e-10

OUTPUTS = ("curves", "coefficients")


class PipelineError(RuntimeError):
    """Estimation failed; ``stage`` names the pipeline stage at fault."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


class RankDeficiencyError(ValueError):
    """The mixing matrix does not have full row rank."""


@dataclass(frozen=True)
class EstimationConfig:
    """Configuration of the estimation pipeline.

    The rule gets one noise sd for all samples: the pooled sigma-hat, the
    mean of the per-sample robust estimates, unless the rule spec carries
    its own sigma.  ``policy`` changes nothing and stays only for the
    benchmark; its J0 must be this J0.

    ``output`` is what `estimate_components` returns.  ``"curves"``, the
    default, is the M x L component curves.  ``"coefficients"`` is their
    M x L wavelet coefficients gamma-hat in the flat pyramid layout, the
    least-squares result before the inverse transform, which `run_study`
    scores; `wavecal estimate` writes curves.
    """

    filter: WaveletFilter
    rule: RuleSpec
    J0: int = DEFAULT_J0
    policy: Optional[LevelPolicy] = None
    output: str = "curves"

    def __post_init__(self):
        if not isinstance(self.filter, WaveletFilter):
            raise ValueError(f"filter must be a WaveletFilter, got {self.filter!r}")
        if type(self.rule) not in RULES.values():
            raise ValueError(f"rule must be a spec of one of {sorted(RULES)}, "
                             f"got {self.rule!r}")
        check_integer("J0", self.J0)
        if not isinstance(self.policy, (LevelPolicy, type(None))):
            raise ValueError(f"policy must be None or a LevelPolicy, got {self.policy!r}")
        if self.policy is not None and self.policy.J0 != self.J0:
            raise ValueError(f"policy J0 = {self.policy.J0} differs from the "
                             f"configured J0 = {self.J0}")
        if not isinstance(self.output, str) or self.output not in OUTPUTS:
            raise ValueError(f"output must be one of {OUTPUTS}, got {self.output!r}")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _LastResult(threading.local):
    """A one-entry cache of the value computed for the last key, a tuple of
    float64 arrays and plain values, one entry per thread: `run_study`'s
    workers each run whole datasets, so each keeps its own last dataset.
    The entry, (key, value), keeps read-only copies of the key's arrays; a
    miss replaces it whole, and nothing is stored when the computation
    raises."""

    def __init__(self):
        self.entry: Optional[tuple] = None

    def get(self, key: tuple, compute):
        entry = self.entry
        # float64 arrays bit for bit, so that a hit returns exactly what a
        # recomputation would (array_equal alone equates 0.0 and -0.0)
        if entry is not None and all(
                np.array_equal(a.view(np.uint64), b.view(np.uint64))
                if isinstance(a, np.ndarray) else a == b for a, b in zip(entry[0], key)):
            return entry[1]
        value = compute()
        self.entry = (tuple(_read_only(k.copy()) if isinstance(k, np.ndarray) else k
                            for k in key), value)
        return value


# the pseudo-inverse V diag(1/s) U^T of the last full-rank weights
_pseudoinverse = _LastResult()
# (flat coefficients, pooled sigma-hat) of the last (observed, filter taps, J0)
_transformed = _LastResult()


@lru_cache(maxsize=None)  # once per process
def _keep_freed_heap() -> None:
    """Allocate and free one untouched 16 MiB array.

    glibc serves it with mmap, and freeing it raises the mmap threshold to its
    size and the trim threshold to twice that (the dynamic threshold rule of
    mallopt(3), which goes up to 32 MiB), as freeing any array that large
    would.  Afterwards the shrinkage blocks' temporaries come from the heap,
    and free() keeps them for the next block instead of returning them to
    the kernel, which would fault them in again.  No page of the array is
    touched, so the resident memory does not grow; under another C library
    this does nothing.
    """
    np.empty(16 << 20, np.uint8)


@contextmanager
def _stage(name: str):
    """Raise a failure inside the block as a PipelineError at stage ``name``."""
    try:
        yield
    except (ValueError, TypeError) as exc:
        raise PipelineError(name, str(exc)) from exc
    except ArithmeticError as exc:  # float arithmetic at an extreme data scale
        raise PipelineError(name, f"{type(exc).__name__}: {exc}") from exc


def _pinv(y: np.ndarray, L: int) -> np.ndarray:
    u, svals, vt = np.linalg.svd(y, full_matrices=False)
    # the rank a least-squares solver with rcond = _RANK_RTOL would use
    rank = int(np.sum(svals > _RANK_RTOL * svals[0]))
    if rank < L:
        raise RankDeficiencyError(
            f"weights are rank deficient: singular values span "
            f"[{svals[-1]:.3e}, {svals[0]:.3e}], effective rank {rank} < {L}")
    with np.errstate(over="ignore", invalid="ignore"):  # 1/s of subnormal weights
        pinv = vt.T / svals @ u.T
    if not np.isfinite(pinv).all():
        raise ValueError(f"the pseudo-inverse of the weights is not finite (s = {svals})")
    return _read_only(pinv)


def solve_gamma(shrunk: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Least-squares recovery of component coefficients.

    Returns the M x L matrix minimizing ||shrunk - gamma @ weights||_F,
    computed as shrunk @ pinv(weights) from the thin SVD
    weights = U diag(s) V^T, i.e. shrunk @ V diag(1/s) U^T (never by forming
    (y y^T)^-1).  Raises RankDeficiencyError when the smallest singular value
    of the weights falls below 1e-10 times the largest.  Weights with the
    bits of the last full-rank weights reuse their pseudo-inverse, and get
    the same result.
    """
    D = np.asarray(shrunk, dtype=float)
    y = np.asarray(weights, dtype=float)
    if D.ndim != 2 or y.ndim != 2:
        raise ValueError("solve_gamma expects 2-D arrays")
    L, I = y.shape
    if D.shape[1] != I:
        raise ValueError(f"coefficient matrix has {D.shape[1]} columns, weights have {I}")
    if L == 0:
        raise ValueError("weights have no rows: no component to solve for")
    if I < L:
        raise RankDeficiencyError(f"underdetermined mixing: L={L} components, I={I} samples")
    return D @ _pseudoinverse.get((y,), partial(_pinv, y, L))


def _check_finite(name: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        bad = np.flatnonzero(~np.all(np.isfinite(values), axis=0))
        raise PipelineError("input", f"{name} has NaN or inf in sample column(s) "
                                     f"{', '.join(map(str, bad))}")


def _rule_independent_stages(A: np.ndarray, y: np.ndarray, config: EstimationConfig):
    """(read-only flat coefficients, pooled sigma-hat) of the observed matrix.

    Both inputs are checked first, observed before weights, so that a bad
    input is named before any stage fails and only finite inputs are
    cached.  Finite input whose transform overflows fails here, at the
    transform, and is not cached either."""
    _check_finite("observed", A)
    _check_finite("weights", y)
    with _stage("transform"), np.errstate(over="ignore", invalid="ignore"):
        D = transform_columns(A, config.filter, config.J0, "forward")
    if not np.isfinite(D).all():
        raise PipelineError("transform", "output has NaN or inf")
    with _stage("sigma"):
        sigma = float(np.mean(estimate_sigma(D[A.shape[0] // 2:])))
    return _read_only(D), sigma


def estimate_components(observed: np.ndarray, weights: np.ndarray,
                        config: EstimationConfig) -> np.ndarray:
    """Estimate the M x L component matrix from M x I aggregated samples.

    Stages: forward transform -> noise-scale estimation -> coefficientwise
    shrinkage -> least squares through the weights -> inverse transform,
    which ``config.output == "coefficients"`` leaves out (the result is then
    the least-squares coefficients).  The first two, and the weights'
    pseudo-inverse, are cached (see the module docstring).  Errors carry the
    failing stage name; NaN or inf in either input is rejected at the
    ``input`` stage, and a non-finite estimate at the first stage whose
    output is not finite.
    """
    _keep_freed_heap()
    A = np.asarray(observed, dtype=float)
    y = np.asarray(weights, dtype=float)
    if A.ndim != 2:
        raise PipelineError("input", f"observed matrix must be 2-D, got shape {A.shape}")
    if y.ndim != 2 or y.shape[1] != A.shape[1] or y.shape[0] == 0:
        raise PipelineError("input", f"weights shape {y.shape} is not L x {A.shape[1]} "
                                     f"with L >= 1, for {A.shape[1]} observed samples")
    D, sigma = _transformed.get((A, y, config.filter.low_pass, config.J0),
                                partial(_rule_independent_stages, A, y, config))
    with _stage("sigma"):
        rule = resolve_rule(config.rule, sigma)
    with _stage("shrinkage"):
        shrunk = shrink_pyramid(Pyramid(D, config.J0), rule).flat
    # an overflow in the last two stages is named by the check below, not warned of
    with _stage("least-squares"), np.errstate(over="ignore", invalid="ignore"):
        estimate = gamma = solve_gamma(shrunk, y)
    if config.output == "curves":
        with _stage("inverse-transform"), np.errstate(over="ignore", invalid="ignore"):
            estimate = transform_columns(gamma, config.filter, config.J0, "inverse")
    if not np.isfinite(estimate).all():  # NaN and inf reach all later stages; name the first
        stages = (("sigma", sigma), ("shrinkage", shrunk), ("least-squares", gamma))
        raise PipelineError(next((name for name, out in stages if not np.isfinite(out).all()),
                                 "inverse-transform"), "output has NaN or inf")
    return estimate


def estimates_to_csv(alpha_hat: np.ndarray, grid: np.ndarray, path) -> None:
    """Write estimated component curves as rows (t, component_index, estimate)."""
    _columns_to_csv(["t", "component_index", "estimate"], grid, alpha_hat, path)

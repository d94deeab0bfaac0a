"""End-to-end estimation of component curves from aggregated samples.

Pipeline: transform the observed M x I matrix to the wavelet domain column
by column, estimate the noise scale, shrink every detail coefficient of the
M x I coefficient matrix in row blocks that span levels, solve a
least-squares system for the component coefficients through the known
mixing weights, and invert the transform.

The forward transform and the pooled noise estimate do not depend on the
rule, and a study runs every rule on the same dataset, so
`estimate_components` keeps them for the last (observed, filter, J0) it
saw: a one-entry memo whose key is a bit-for-bit copy of ``observed``.  A
hit returns the same bits as a recomputation; the memo's arrays are
read-only.  The least-squares stage takes one thin SVD of the weights, which
serves both the rank check and the pseudo-inverse; the pseudo-inverse of the
last weights is kept, keyed on their bits, so the rules after the first reuse it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .shrinkage import (LevelPolicy, RuleSpec, check_level, estimate_sigma, resolve_rule,
                        shrink_pyramid)
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
    its own sigma.
    """

    filter: WaveletFilter
    rule: RuleSpec
    J0: int = 3
    policy: Optional[LevelPolicy] = None

    def __post_init__(self):
        check_level(self.J0)
        if self.policy is not None and self.policy.J0 != self.J0:
            raise ValueError(f"policy J0 = {self.policy.J0} differs from the "
                             f"configured J0 = {self.J0}")


class _Pseudoinverse(NamedTuple):  # a read-only copy of the weights, V diag(1/s) U^T
    weights: np.ndarray
    pinv: np.ndarray


# The last full-rank weights' entry; read once and replaced whole, as `_memo` is.
_pinv_memo: Optional[_Pseudoinverse] = None


def solve_gamma(shrunk: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Least-squares recovery of component coefficients.

    Returns the M x L matrix minimizing ||shrunk - gamma @ weights||_F,
    computed as shrunk @ pinv(weights) from the thin SVD
    weights = U diag(s) V^T, i.e. shrunk @ V diag(1/s) U^T (never by forming
    (y y^T)^-1).  Raises RankDeficiencyError when the smallest singular value
    of the weights falls below 1e-10 times the largest.  Weights with the
    bits of the last call's reuse its pseudo-inverse, and get the same result.
    """
    global _pinv_memo
    D = np.asarray(shrunk, dtype=float)
    y = np.asarray(weights, dtype=float)
    if D.ndim != 2 or y.ndim != 2:
        raise ValueError("solve_gamma expects 2-D arrays")
    L, I = y.shape
    if D.shape[1] != I:
        raise ValueError(f"coefficient matrix has {D.shape[1]} columns, weights have {I}")
    if I < L:
        raise RankDeficiencyError(f"underdetermined mixing: L={L} components, I={I} samples")
    entry = _pinv_memo
    if entry is not None and np.array_equal(entry.weights.view(np.uint64), y.view(np.uint64)):
        return D @ entry.pinv
    u, svals, vt = np.linalg.svd(y, full_matrices=False)
    if svals[-1] < _RANK_RTOL * svals[0]:
        raise RankDeficiencyError(
            f"weights are rank deficient: singular values span "
            f"[{svals[-1]:.3e}, {svals[0]:.3e}], effective rank "
            f"{int(np.sum(svals >= _RANK_RTOL * svals[0]))} < {L}")
    # the rank a least-squares solver with rcond = _RANK_RTOL would use
    rank = int(np.sum(svals > _RANK_RTOL * svals[0]))
    if rank < L:
        raise RankDeficiencyError(f"least-squares rank {rank} < {L}")
    entry = _Pseudoinverse(_read_only(y.copy()), _read_only(vt.T / svals @ u.T))
    _pinv_memo = entry
    return D @ entry.pinv


class _Transformed(NamedTuple):
    """The rule-independent stages of one dataset: the key (a copy of the
    observed matrix, the filter taps, J0), the flat coefficient matrix and
    the pooled sigma-hat."""

    observed: np.ndarray
    taps: np.ndarray
    J0: int
    coefficients: np.ndarray
    sigma: float

    def matches(self, observed: np.ndarray, config: EstimationConfig) -> bool:
        # compared bit for bit, so that a hit returns exactly what a
        # recomputation would (array_equal alone equates 0.0 and -0.0)
        return (self.J0 == config.J0
                and np.array_equal(self.taps, config.filter.low_pass)
                and np.array_equal(self.observed.view(np.uint64),
                                   observed.view(np.uint64)))


# The last dataset's rule-independent stages.  Each call reads the entry once
# and replaces it whole, so concurrent callers never see a torn entry.
_memo: Optional[_Transformed] = None


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _rule_independent_stages(A: np.ndarray, config: EstimationConfig):
    """(flat coefficients, pooled sigma-hat) of the observed matrix, from
    the memo when it holds this dataset."""
    global _memo
    entry = _memo
    if entry is None or not entry.matches(A, config):
        try:
            D = transform_columns(A, config.filter, config.J0, "forward")
        except ValueError as exc:
            raise PipelineError("transform", str(exc)) from exc
        try:
            sigma = float(np.mean(estimate_sigma(D[A.shape[0] // 2:])))
        except ValueError as exc:
            raise PipelineError("sigma", str(exc)) from exc
        entry = _Transformed(_read_only(A.copy()), config.filter.low_pass, config.J0,
                             _read_only(D), sigma)
        _memo = entry
    return entry.coefficients, entry.sigma


def estimate_components(observed: np.ndarray, weights: np.ndarray,
                        config: EstimationConfig) -> np.ndarray:
    """Estimate the M x L component matrix from M x I aggregated samples.

    Stages: forward transform -> noise-scale estimation -> coefficientwise
    shrinkage -> least squares through the weights -> inverse transform.
    The first two are shared with the previous call when it had the same
    observed matrix, filter and J0 (see the module docstring).  Errors carry
    the failing stage name; NaN or inf in either input is rejected at the
    ``input`` stage, and a non-finite estimate at the first stage whose output
    is not finite.
    """
    A = np.asarray(observed, dtype=float)
    y = np.asarray(weights, dtype=float)
    if A.ndim != 2:
        raise PipelineError("input", f"observed matrix must be 2-D, got shape {A.shape}")
    if y.ndim != 2 or y.shape[1] != A.shape[1]:
        raise PipelineError("input", f"weights shape {y.shape} incompatible with "
                                     f"{A.shape[1]} observed samples")
    for name, values in (("observed", A), ("weights", y)):
        if not np.isfinite(values).all():
            bad = np.flatnonzero(~np.all(np.isfinite(values), axis=0))
            raise PipelineError("input", f"{name} has NaN or inf in sample column(s) "
                                         f"{', '.join(map(str, bad))}")

    D, sigma = _rule_independent_stages(A, config)
    try:
        pyr = Pyramid(D, config.J0)
        rule = resolve_rule(config.rule, sigma, pyr)
        shrunk = shrink_pyramid(pyr, rule, config.policy).flat
    except (ValueError, TypeError) as exc:
        raise PipelineError("shrinkage", str(exc)) from exc
    except ArithmeticError as exc:  # a rule's float arithmetic at an extreme data scale
        raise PipelineError("shrinkage", f"{type(exc).__name__}: {exc}") from exc

    try:
        gamma = solve_gamma(shrunk, y)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise PipelineError("least-squares", str(exc)) from exc

    try:
        alpha = transform_columns(gamma, config.filter, config.J0, "inverse")
    except ValueError as exc:
        raise PipelineError("inverse-transform", str(exc)) from exc
    if not np.isfinite(alpha).all():  # NaN and inf reach all later stages; name the first
        stages = (("transform", D), ("sigma", sigma), ("shrinkage", shrunk),
                  ("least-squares", gamma))
        raise PipelineError(next((name for name, out in stages if not np.isfinite(out).all()),
                                 "inverse-transform"), "output has NaN or inf")
    return alpha


def estimates_to_csv(alpha_hat: np.ndarray, grid: np.ndarray, path) -> None:
    """Write estimated component curves as rows (t, component_index, estimate),
    with CSV line endings (CRLF)."""
    M, L = alpha_hat.shape
    t = [format(float(v), ".17g") for v in grid[:M]]
    lines = ["t,component_index,estimate"]
    lines += [f"{t[m]},{l},{format(float(alpha_hat[m, l]), '.17g')}"
              for l in range(L) for m in range(M)]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")

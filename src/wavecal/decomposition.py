"""End-to-end estimation of component curves from aggregated samples.

Pipeline: transform the observed M x I matrix to the wavelet domain column
by column, estimate the noise scale, shrink every detail coefficient of the
M x I coefficient matrix in row blocks that span levels, solve a
least-squares system for the component coefficients through the known
mixing weights, and invert the transform.  With ``output="coefficients"``
the pipeline stops before the inverse and returns the components' wavelet
coefficients, which `run_study` scores.

The forward transform, the pooled noise estimate and the pseudo-inverse of
the weights do not depend on the rule.  `prepare` runs them once per
dataset, after checking both inputs, and returns them as an immutable
`Prepared` dataset: read-only arrays computed afresh, so that later edits
to the caller's arrays do not reach it.  One thin SVD of the weights serves
both the rank check and the pseudo-inverse, which `solve_gamma` applies;
when the weights have no usable pseudo-inverse, `prepare` raises that
failure at the least-squares stage, so it comes before any failure of a
rule's own stages, in a one-shot call too.
`estimate_components` takes the raw inputs or a `Prepared` dataset, so a
study runs every rule on one `Prepared` while `wavecal estimate` makes one
call.  Nothing per dataset is kept at module or thread level.  Each stage's
ValueError, TypeError or ArithmeticError becomes a `PipelineError` naming
the stage (`_stage`).  `prepare` and `estimate_components` each run under
one ``np.errstate(all="ignore")``: no stage emits a numpy warning, and the
finiteness checks name the first stage whose output is not finite.

On its first call in a process, `prepare` runs `_keep_freed_heap`, which
allocates and frees one untouched 16 MiB array.  Under glibc, that raises
the heap's mmap and trim thresholds (see the helper), so the freed
temporaries of each shrinkage block stay in the process for the next block
instead of going back to the kernel.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .shrinkage import (DEFAULT_J0, RULES, LevelPolicy, RuleSpec, check_integer,
                        estimate_sigma, resolve_rule, shrink_pyramid)
from .testbed import _columns_to_csv
from .wavelet import Pyramid, WaveletFilter, transform_columns

__all__ = [
    "PipelineError",
    "EstimationConfig",
    "Prepared",
    "prepare",
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
    this does nothing.  Without it, study 3 at M = 1024 ran at 116 and 124
    replicates/s against 173 and 166 (10 s runs on two Xeon CPUs).
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


@dataclass(frozen=True, eq=False)
class Prepared:
    """One dataset after the stages that do not depend on the rule (`prepare`).

    ``coefficients`` is the read-only M x I forward transform of the observed
    matrix in the flat pyramid layout, and ``sigma`` its pooled sigma-hat.
    ``pseudoinverse`` is the read-only I x L pseudo-inverse of the weights.
    ``low_pass`` and ``J0`` are the filter taps and the level it was built
    with.
    """

    coefficients: np.ndarray
    sigma: float
    pseudoinverse: np.ndarray
    low_pass: np.ndarray
    J0: int


def _pinv(y: np.ndarray) -> np.ndarray:
    """The read-only pseudo-inverse V diag(1/s) U^T of full-rank L x I weights,
    L >= 1, under `prepare`'s errstate (1/s of subnormal weights overflows)."""
    L, I = y.shape
    if I < L:
        raise ValueError(f"underdetermined mixing: L={L} components, I={I} samples")
    u, svals, vt = np.linalg.svd(y, full_matrices=False)
    # the rank a least-squares solver with rcond = _RANK_RTOL would use
    rank = int(np.sum(svals > _RANK_RTOL * svals[0]))
    if rank < L:
        raise ValueError(f"weights are rank deficient: singular values span "
                         f"[{svals[-1]:.3e}, {svals[0]:.3e}], effective rank {rank} < {L}")
    pinv = vt.T / svals @ u.T
    if not np.isfinite(pinv).all():
        raise ValueError(f"the pseudo-inverse of the weights is not finite (s = {svals})")
    return _read_only(pinv)


def solve_gamma(shrunk: np.ndarray, prepared: Prepared) -> np.ndarray:
    """Least-squares recovery of component coefficients.

    Returns the M x L matrix minimizing ||shrunk - gamma @ weights||_F for
    the weights ``prepared`` was made from, as shrunk @ P with P the
    pseudo-inverse V diag(1/s) U^T that `prepare` took from the thin SVD
    weights = U diag(s) V^T (never by forming (y y^T)^-1).
    """
    return shrunk @ prepared.pseudoinverse


def _check_finite(name: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        bad = np.flatnonzero(~np.all(np.isfinite(values), axis=0))
        raise PipelineError("input", f"{name} has NaN or inf in sample column(s) "
                                     f"{', '.join(map(str, bad))}")


@np.errstate(all="ignore")
def prepare(observed: np.ndarray, weights: np.ndarray,
            config: EstimationConfig) -> Prepared:
    """Run the stages of `estimate_components` that do not depend on the rule.

    Checks both inputs, observed before weights, transforms the observed
    matrix with ``config``'s filter down to its J0, pools sigma-hat, and
    takes the pseudo-inverse of the weights.  A failure of any of these
    stages is raised here, as a `PipelineError` naming the stage (input,
    transform, sigma or least-squares), with the message a one-shot
    `estimate_components` call gives.  ``config.rule`` and ``config.output``
    are not used.
    """
    _keep_freed_heap()
    A = np.asarray(observed, dtype=float)
    y = np.asarray(weights, dtype=float)
    if A.ndim != 2:
        raise PipelineError("input", f"observed matrix must be 2-D, got shape {A.shape}")
    if y.ndim != 2 or y.shape[1] != A.shape[1] or y.shape[0] == 0:
        raise PipelineError("input", f"weights shape {y.shape} is not L x {A.shape[1]} "
                                     f"with L >= 1, for {A.shape[1]} observed samples")
    _check_finite("observed", A)
    _check_finite("weights", y)
    with _stage("transform"):
        D = transform_columns(A, config.filter, config.J0, "forward")
    if not np.isfinite(D).all():
        raise PipelineError("transform", "output has NaN or inf")
    with _stage("sigma"):
        sigma = float(np.mean(estimate_sigma(D[A.shape[0] // 2:])))
    with _stage("least-squares"):
        pinv = _pinv(y)
    return Prepared(_read_only(D), sigma, pinv, config.filter.low_pass, config.J0)


@np.errstate(all="ignore")
def estimate_components(observed: Union[np.ndarray, Prepared], weights: Optional[np.ndarray],
                        config: EstimationConfig) -> np.ndarray:
    """Estimate the M x L component matrix from M x I aggregated samples.

    Stages: forward transform -> noise-scale estimation -> coefficientwise
    shrinkage -> least squares through the weights -> inverse transform,
    which ``config.output == "coefficients"`` leaves out (the result is then
    the least-squares coefficients).  ``observed`` may be a `Prepared`
    dataset instead, with ``weights=None``: the call then runs only the
    stages from shrinkage on, with the bits of a call on the raw inputs.  It
    must have been prepared with ``config``'s filter taps and J0.  Errors
    carry the failing stage name; NaN or inf in either input is rejected at
    the ``input`` stage, and a non-finite estimate at the first stage whose
    output is not finite.
    """
    if isinstance(observed, Prepared):
        prepared = observed
        if weights is not None:
            raise PipelineError("input", "a Prepared dataset takes weights=None, "
                                         "its weights are already in it")
        if prepared.J0 != config.J0 or not np.array_equal(
                prepared.low_pass.view(np.uint64), config.filter.low_pass.view(np.uint64)):
            raise PipelineError("input", "the dataset was prepared with another filter "
                                         "or J0 than the config's")
    else:
        prepared = prepare(observed, weights, config)
    with _stage("sigma"):
        rule = resolve_rule(config.rule, prepared.sigma)
    with _stage("shrinkage"):
        shrunk = shrink_pyramid(Pyramid(prepared.coefficients, config.J0), rule).flat
    with _stage("least-squares"):
        estimate = gamma = solve_gamma(shrunk, prepared)
    if config.output == "curves":
        with _stage("inverse-transform"):
            estimate = transform_columns(gamma, config.filter, config.J0, "inverse")
    if not np.isfinite(estimate).all():  # NaN and inf reach all later stages; name the first
        stages = (("shrinkage", shrunk), ("least-squares", gamma))
        raise PipelineError(next((name for name, out in stages if not np.isfinite(out).all()),
                                 "inverse-transform"), "output has NaN or inf")
    return estimate


def estimates_to_csv(alpha_hat: np.ndarray, grid: np.ndarray, path) -> None:
    """Write estimated component curves as rows (t, component_index, estimate)."""
    _columns_to_csv(["t", "component_index", "estimate"], grid, alpha_hat, path)

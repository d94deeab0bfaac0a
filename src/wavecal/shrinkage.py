"""Bayesian shrinkage rules for empirical wavelet coefficients.

Five single-coefficient rules are provided, each the Bayes estimate of the
signal part of a noisy coefficient d = theta + eps, eps ~ N(0, sigma^2):

  - logistic_rule: posterior mean under a point mass at zero mixed with a
    logistic density (Sousa, 2020).
  - beta_rule: posterior mean under a point mass mixed with a symmetric-
    support beta density (Sousa et al., 2020).
  - lpm_rule: Large Posterior Mode thresholding (Cutillo et al., 2008).
  - abe_rule: Amplitude-scale invariant Bayes Estimator (Figueiredo and
    Nowak, 2001).
  - bams_rule: Bayesian Adaptive Multiresolution Smoother (Vidakovic and
    Ruggeri, 2001).

Rules accept a scalar or an array of coefficients and are pure functions of
their arguments.  A data-dependent parameter (sigma, the beta half-support m,
the BAMS scales) may also be a length-I vector, one value per column of a
(rows x I) coefficient block, broadcast along the rows.  `shrink_pyramid`
applies a rule coefficientwise to the detail level slices of a Pyramid,
leaving the coarse block untouched.

`shrink_pyramid` hands a level slice to the rule in blocks of whole rows,
at most 4096 coefficients each (one row when a row is longer), which bounds
the elementwise temporaries of every rule.  The two quadrature rules
evaluate their densities on a (coefficients x nodes) grid; `_grid_sums`
builds that grid in chunks of at most 32768 values in one reused buffer, so
no block ever holds its whole grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.special import beta as _beta_function, ndtr

from .wavelet import Pyramid

__all__ = [
    "ShrinkageUnderflowWarning",
    "QuadratureSpec",
    "LevelPolicy",
    "Logistic",
    "Beta",
    "Lpm",
    "Abe",
    "Bams",
    "RuleSpec",
    "estimate_sigma",
    "logistic_rule",
    "beta_rule",
    "lpm_rule",
    "abe_rule",
    "bams_rule",
    "av_policy",
    "shrink_pyramid",
    "resolve_rule",
    "rule_defaults",
]

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_BAMS_SINGULARITY_TOL = 1e-8

MAD_TO_SIGMA = 0.6745  # median absolute deviation of N(0,1), Donoho-Johnstone constant

DEFAULT_LOGISTIC_P = 0.9
DEFAULT_LOGISTIC_TAU = 1.0
DEFAULT_BETA_P = 0.9
DEFAULT_BETA_A = 2.0
DEFAULT_LPM_K = 1.0
DEFAULT_BAMS_ALPHA = 0.8
DEFAULT_GH_NODES = 64
DEFAULT_GL_NODES = 128

# Largest number of coefficients `shrink_pyramid` hands to one rule call.  It
# bounds the elementwise temporaries of a rule, 32 KiB each; the node grids of
# the quadrature rules are bounded by _GRID_VALUES instead.
_BLOCK_COEFFICIENTS = 4096

# Largest number of node-grid values `_grid_sums` holds at once: 256 KiB,
# which stays in L2 cache and is reused for every chunk of a rule call.
_GRID_VALUES = 32768


class ShrinkageUnderflowWarning(RuntimeWarning):
    """A rule denominator underflowed to zero; full shrinkage was applied."""


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """Fixed Gauss quadrature nodes and weights.

    ``gauss-hermite-standard-normal`` integrates f against the standard
    normal density (the density is absorbed into the weights, which sum
    to 1).  ``gauss-legendre-interval`` holds reference nodes on [-1, 1];
    callers map them onto the integration interval.
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: str

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-D arrays of equal length")
        if np.any(weights <= 0):
            raise ValueError("quadrature weights must be positive")
        if self.kind == "gauss-hermite-standard-normal":
            if abs(weights.sum() - 1.0) > 1e-10:
                raise ValueError("standard-normal weights must sum to 1")
        elif self.kind != "gauss-legendre-interval":
            raise ValueError(f"unknown quadrature kind {self.kind!r}")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def gauss_hermite_standard_normal(cls, n: int = DEFAULT_GH_NODES) -> "QuadratureSpec":
        """Nodes u_i and weights w_i with sum_i w_i f(u_i) ~ E[f(U)], U ~ N(0,1)."""
        v, w = np.polynomial.hermite.hermgauss(n)
        return cls(nodes=v * np.sqrt(2.0), weights=w / np.sqrt(np.pi),
                   kind="gauss-hermite-standard-normal")

    @classmethod
    def gauss_legendre_interval(cls, n: int = DEFAULT_GL_NODES) -> "QuadratureSpec":
        """Reference Gauss-Legendre rule on [-1, 1]."""
        x, w = np.polynomial.legendre.leggauss(n)
        return cls(nodes=x, weights=w, kind="gauss-legendre-interval")


_DEFAULT_GH: Optional[QuadratureSpec] = None
_DEFAULT_GL: Optional[QuadratureSpec] = None


def _default_gh() -> QuadratureSpec:
    global _DEFAULT_GH
    if _DEFAULT_GH is None:
        _DEFAULT_GH = QuadratureSpec.gauss_hermite_standard_normal()
    return _DEFAULT_GH


def _default_gl() -> QuadratureSpec:
    global _DEFAULT_GL
    if _DEFAULT_GL is None:
        _DEFAULT_GL = QuadratureSpec.gauss_legendre_interval()
    return _DEFAULT_GL


# ---------------------------------------------------------------------------
# rule parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelPolicy:
    """Level-dependent hyperparameters (Angelini and Vidakovic, 2004).

    At detail level j the mixture weight is p(j) = 1 - (j - J0 + 1)^(-gamma)
    and the beta half-support is m(j) = max_k |d_jk|.
    """

    gamma_exponent: float = 2.0
    J0: int = 0

    def __post_init__(self):
        if not self.gamma_exponent > 0:
            raise ValueError("gamma_exponent must be > 0")
        if self.J0 < 0:
            raise ValueError("J0 must be >= 0")


def _check_open(name: str, value, low: float = 0.0) -> None:
    """Reject a scalar or per-column parameter unless every value is > low."""
    if not np.all(np.asarray(value) > low):
        raise ValueError(f"{name} must be > {low}, got {value}")


def _check_nonnegative(name: str, value) -> None:
    if value is not None and not np.all(np.asarray(value) >= 0):
        raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class Logistic:
    """Point mass at zero mixed with a logistic prior of scale tau.

    ``sigma=None`` marks the noise sd as to-be-estimated; rule evaluation
    requires a resolved spec.
    """

    p: float = DEFAULT_LOGISTIC_P
    tau: float = DEFAULT_LOGISTIC_TAU
    sigma: Optional[float] = None

    def __post_init__(self):
        # p = 0 admitted: the level policy assigns it at the primary level
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"p must be in [0, 1), got {self.p}")
        _check_open("tau", self.tau)
        if self.sigma is not None:
            _check_open("sigma", self.sigma)


@dataclass(frozen=True)
class Beta:
    """Point mass at zero mixed with a beta prior on [-m, m].

    Shapes a < 1 are rejected: the density is unbounded at the endpoints
    and fixed-node quadrature is unreliable there.  Integer shapes have a
    closed form; other shapes are integrated numerically.  ``m=None`` /
    ``sigma=None`` mark values to be resolved from the data.
    """

    p: float = DEFAULT_BETA_P
    a: float = DEFAULT_BETA_A
    m: Optional[float] = None
    sigma: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"p must be in [0, 1), got {self.p}")
        if not self.a >= 1.0:
            raise ValueError(f"a must be >= 1, got {self.a}")
        if self.m is not None:
            _check_open("m", self.m)
        if self.sigma is not None:
            _check_open("sigma", self.sigma)


@dataclass(frozen=True)
class Lpm:
    """Large Posterior Mode thresholding with prior exponent k > 1/2.

    sigma = 0 is admitted (the rule degenerates to the identity), which the
    noise-free recovery paths rely on.
    """

    k: float = DEFAULT_LPM_K
    sigma: Optional[float] = None

    def __post_init__(self):
        if not self.k > 0.5:
            raise ValueError(f"k must be > 1/2, got {self.k}")
        _check_nonnegative("sigma", self.sigma)

    @property
    def threshold(self) -> float:
        """lambda = 2 sigma sqrt(2k - 1)."""
        if self.sigma is None:
            raise ValueError("sigma is unresolved")
        return 2.0 * self.sigma * np.sqrt(2.0 * self.k - 1.0)


@dataclass(frozen=True)
class Abe:
    """Amplitude-scale invariant Bayes Estimator; only needs the noise sd.

    sigma = 0 is admitted (identity rule) for noise-free recovery paths.
    """

    sigma: Optional[float] = None

    def __post_init__(self):
        _check_nonnegative("sigma", self.sigma)


@dataclass(frozen=True)
class Bams:
    """Point mass mixed with a double-exponential prior, exponential prior
    on the noise variance.

    The closed form degenerates on the manifold 2*mu*tau^2 = 1 (prior and
    marginal-noise scales coincide); parameter pairs within 1e-8 of it are
    rejected rather than implementing the analytic limit.
    """

    alpha: float = DEFAULT_BAMS_ALPHA
    tau: Optional[float] = None
    mu: Optional[float] = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.tau is not None:
            _check_open("tau", self.tau)
        if self.mu is not None:
            _check_open("mu", self.mu)
        if self.tau is not None and self.mu is not None:
            manifold = 2.0 * np.asarray(self.mu) * np.asarray(self.tau) ** 2
            if np.any(abs(manifold - 1.0) <= _BAMS_SINGULARITY_TOL):
                raise ValueError(
                    f"parameters too close to the singular manifold "
                    f"2*mu*tau^2 = 1 (got {manifold})")


RuleSpec = Union[Logistic, Beta, Lpm, Abe, Bams]


# ---------------------------------------------------------------------------
# noise scale
# ---------------------------------------------------------------------------

def estimate_sigma(finest_details: np.ndarray):
    """Robust noise-sd estimate: median(|d|) / 0.6745 over the finest-level
    detail coefficients (Donoho and Johnstone, 1994).

    A vector gives a float; a (rows x I) level slice gives one estimate per
    column.
    """
    d = np.asarray(finest_details, dtype=float)
    if d.size == 0:
        raise ValueError("cannot estimate sigma from an empty coefficient vector")
    if d.ndim == 1:
        return float(np.median(np.abs(d)) / MAD_TO_SIGMA)
    return np.median(np.abs(d), axis=0) / MAD_TO_SIGMA


# ---------------------------------------------------------------------------
# the five rules
# ---------------------------------------------------------------------------

def _phi(x, out=None):
    # exp(-x^2 / 2) / sqrt(2 pi), written into ``out`` when it is given
    g = np.multiply(x, x, out=out)
    g = np.multiply(g, -0.5, out=out)
    g = np.exp(g, out=out)
    return np.divide(g, _SQRT_2PI, out=out)


def _logistic_pdf(x, tau, out=None):
    # exp(-x/tau) / (tau (1 + exp(-x/tau))^2) = (1 / (2 tau)) / (1 + cosh(x/tau)),
    # written into ``out`` when it is given.  Where cosh overflows to inf the
    # density underflows, and the division gives that 0.
    with np.errstate(over="ignore"):
        g = np.cosh(np.multiply(x, 1.0 / tau, out=out), out=out)
    g = np.add(g, 1.0, out=out)
    return np.divide(0.5 / tau, g, out=out)


def _grid_sums(center, step, nodes, weights, kernel):
    """sum_i weights[i, :] * kernel(center + step * nodes[i]) for every
    coefficient.

    ``center`` and ``step`` broadcast to the coefficients' shape; the result
    has that shape plus a trailing axis with one sum per column of
    ``weights`` (nodes x K).  The (coefficients x nodes) grid is never built
    whole: one buffer of at most _GRID_VALUES values is filled a chunk of
    coefficients at a time by the matmul [center, step] @ [1; nodes], the
    kernel is applied to it in place, and a second matmul reduces it.  The
    kernel is called as ``kernel(grid, out=grid)`` on a view with one more
    axis than the coefficients.
    """
    center, step = np.broadcast_arrays(center, step)
    shape = center.shape
    affine = np.stack([center.ravel(), step.ravel()], axis=1)
    lift = np.stack([np.ones_like(nodes), nodes])
    count = affine.shape[0]
    rows = max(1, min(count, _GRID_VALUES // nodes.size))
    buffer = np.empty((rows, nodes.size))
    sums = np.empty((count, weights.shape[1]))
    expand = (None,) * (len(shape) - 1)
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        grid = buffer[:stop - start]
        np.matmul(affine[start:stop], lift, out=grid)
        kernel(grid[expand], out=grid[expand])
        np.matmul(grid, weights, out=sums[start:stop])
    return sums.reshape(shape + (weights.shape[1],))


def _as_array(d):
    arr = np.asarray(d, dtype=float)
    return arr, arr.ndim == 0


def _ratio_or_zero(num, den, rule_name):
    """num/den elementwise, mapping den == 0 to full shrinkage with a warning."""
    den = np.asarray(den)
    bad = den == 0.0
    if np.any(bad):
        warnings.warn(
            f"{rule_name}: denominator underflowed for {int(np.count_nonzero(bad))} "
            f"coefficient(s); returning 0 (full shrinkage)",
            ShrinkageUnderflowWarning, stacklevel=3)
    safe = np.where(bad, 1.0, den)
    return np.where(bad, 0.0, num / safe)


def _require(value, name, rule):
    if value is None:
        raise ValueError(f"{rule} spec has unresolved {name}; call resolve_rule first")
    return value


def logistic_rule(d, spec: Logistic, quad: Optional[QuadratureSpec] = None):
    """Posterior mean under the logistic mixture prior.

    Both integrals (numerator and denominator) are approximated on the same
    Gauss-Hermite nodes u adapted to the standard normal weight, at
    theta = d + sigma u: with S0 = sum w g(theta) and S1 = sum w u g(theta),
    the denominator integral is S0 and the numerator one d S0 + sigma S1.
    """
    sigma = _require(spec.sigma, "sigma", "Logistic")
    if quad is None:
        quad = _default_gh()
    if quad.kind != "gauss-hermite-standard-normal":
        raise ValueError("logistic_rule needs a gauss-hermite-standard-normal rule")
    arr, scalar = _as_array(d)
    weights = np.stack([quad.weights, quad.weights * quad.nodes], axis=1)
    sums = _grid_sums(arr, sigma, quad.nodes, weights,
                      lambda x, out: _logistic_pdf(x, spec.tau, out=out))
    z = sums[..., 0]
    num = (1.0 - spec.p) * (arr * z + sigma * sums[..., 1])
    den = (spec.p / sigma) * _phi(arr / sigma) + (1.0 - spec.p) * z
    out = _ratio_or_zero(num, den, "logistic_rule")
    return float(out) if scalar else out


def _beta_moments(arr, a: int, m, sigma):
    """Closed-form prior integrals of the beta rule for integer shape a.

    Returns (Z, N) with Z = int g(theta) phi_sigma(d - theta) dtheta and
    N = int theta g(theta) phi_sigma(d - theta) dtheta over [-m, m].  With
    theta = d + sigma u, the kernel (m^2 - theta^2)^(a-1) is
    sigma^(2a-2) q(u)^(a-1) with q(u) = (hi - u)(u - lo), lo = (-m - d)/sigma,
    hi = (m - d)/sigma: a polynomial in u.  Both integrals are therefore sums
    of the truncated normal moments I_k = int_lo^hi u^k phi(u) du, which obey

        I_k = lo^(k-1) phi(lo) - hi^(k-1) phi(hi) + (k-1) I_(k-2).
    """
    n = a - 1
    lo = (-m - arr) / sigma
    hi = (m - arr) / sigma
    phi_lo, phi_hi = _phi(lo), _phi(hi)
    # I_0 = Phi(hi) - Phi(lo), taken as Phi(-lo) - Phi(-hi) when both
    # endpoints lie in the upper tail, where the direct difference cancels
    flip = np.where(lo > 0.0, -1.0, 1.0)
    moments = [flip * (ndtr(flip * hi) - ndtr(flip * lo)), phi_lo - phi_hi]
    lo_pow = hi_pow = 1.0
    for k in range(2, 2 * n + 2):
        lo_pow, hi_pow = lo_pow * lo, hi_pow * hi
        moments.append(lo_pow * phi_lo - hi_pow * phi_hi + (k - 1) * moments[k - 2])
    # coefficients of (q(u) / w^2)^n in powers of u, w = hi - lo = 2m / sigma,
    # so that sigma^(2n) q^n / (2m)^(2a-1) = (q / w^2)^n / (2m)
    w2 = (2.0 * m / sigma) ** 2
    q = (-lo * hi / w2, (lo + hi) / w2, -1.0 / w2)
    coef = [1.0]
    for _ in range(n):
        product = [0.0] * (len(coef) + 2)
        for i, c in enumerate(coef):
            for j, qj in enumerate(q):
                product[i + j] = product[i + j] + c * qj
        coef = product
    s0 = sum(c * moments[k] for k, c in enumerate(coef))
    s1 = sum(c * moments[k + 1] for k, c in enumerate(coef))
    scale = 2.0 * m * _beta_function(a, a)
    return s0 / scale, (arr * s0 + sigma * s1) / scale


def _beta_quadrature(arr, a: float, m, sigma, quad: QuadratureSpec):
    """The (Z, N) integrals of `_beta_moments` on Gauss-Legendre nodes x
    mapped onto [-m, m].

    At theta = m x the prior term h(x) = m g(m x) = (1 - x^2)^(a-1) /
    (2^(2a-1) B(a, a)) is the same for every m, and the likelihood is
    phi(d/sigma - (m/sigma) x) / sigma.  With the sums
    S_k = sum w h(x) x^k phi(d/sigma - (m/sigma) x), Z = S0 / sigma and
    N = m S1 / sigma.
    """
    x = quad.nodes
    wh = quad.weights * (1.0 - x * x) ** (a - 1.0) / (2.0 ** (2.0 * a - 1.0)
                                                      * _beta_function(a, a))
    sums = _grid_sums(arr / sigma, -m / sigma, x, np.stack([wh, wh * x], axis=1), _phi)
    return sums[..., 0] / sigma, m * sums[..., 1] / sigma


def _moments_lose_accuracy(arr, a: int, m, sigma):
    """Where the closed form of `_beta_moments` is ill-conditioned.

    Two cases, both worse for larger a: a support narrow against sigma, where
    the moment recurrence cancels, and d so far outside [-m, m] that the
    polynomial's terms cancel, by a factor of about (1 + 2 t^2)^(a-1) at
    t = (|d| - m) / sigma; that factor is held below 100.  Against 2048-node
    Gauss-Legendre the closed form then stays within 1e-11 * m for a <= 16,
    and 128-node Gauss-Legendre is as accurate in the two cases while
    m / sigma <= 30.
    """
    outside = np.sqrt((100.0 ** (1.0 / (a - 1)) - 1.0) / 2.0) if a > 1 else np.inf
    return (np.asarray(m) < 0.6 * (a - 1.5) * np.asarray(sigma)) \
        | (np.abs(arr) > m + outside * np.asarray(sigma))


def beta_rule(d, spec: Beta, quad: Optional[QuadratureSpec] = None):
    """Posterior mean under the symmetric beta mixture prior on [-m, m].

    For integer shape a the prior integrals are evaluated in closed form from
    truncated normal moments (see `_beta_moments`), except where that is
    ill-conditioned (see `_moments_lose_accuracy`).  Non-integer shapes,
    those cases, and any call that passes ``quad`` use Gauss-Legendre
    quadrature mapped onto [-m, m] (128 nodes by default).
    |result| <= m always.
    """
    sigma = _require(spec.sigma, "sigma", "Beta")
    m = _require(spec.m, "m", "Beta")
    if quad is not None and quad.kind != "gauss-legendre-interval":
        raise ValueError("beta_rule needs a gauss-legendre-interval rule")
    arr, scalar = _as_array(d)
    if quad is None and float(spec.a).is_integer():
        a = int(spec.a)
        z, n = _beta_moments(arr, a, m, sigma)
        hard = _moments_lose_accuracy(arr, a, m, sigma)
        if np.any(hard):
            z, n = np.array(z), np.array(n)  # writable, also for a scalar d
            z[hard], n[hard] = _beta_quadrature(
                arr[hard], a, np.broadcast_to(m, arr.shape)[hard],
                np.broadcast_to(sigma, arr.shape)[hard], _default_gl())
    else:
        z, n = _beta_quadrature(arr, spec.a, m, sigma, quad or _default_gl())
    num = (1.0 - spec.p) * n
    den = spec.p * _phi(arr / sigma) / sigma + (1.0 - spec.p) * z
    out = _ratio_or_zero(num, den, "beta_rule")
    return float(out) if scalar else out


def lpm_rule(d, spec: Lpm):
    """Large Posterior Mode thresholding: zero below lambda = 2 sigma
    sqrt(2k-1), else the larger posterior mode (closed interval at lambda)."""
    sigma = _require(spec.sigma, "sigma", "Lpm")
    arr, scalar = _as_array(d)
    lam_sq = 4.0 * sigma * sigma * (2.0 * spec.k - 1.0)
    keep = arr * arr >= lam_sq
    disc = np.sqrt(np.maximum(arr * arr - lam_sq, 0.0))
    out = np.where(keep, 0.5 * (arr + np.sign(arr) * disc), 0.0)
    return float(out) if scalar else out


def abe_rule(d, spec: Abe):
    """Amplitude-scale invariant Bayes Estimator: (d^2 - 3 sigma^2)_+ / d,
    with the value at d = 0 defined as 0."""
    sigma = _require(spec.sigma, "sigma", "Abe")
    arr, scalar = _as_array(d)
    excess = arr * arr - 3.0 * sigma * sigma
    keep = excess > 0.0  # implies d != 0
    # divide only where kept: excess / d overflows for a subnormal d
    out = np.where(keep, excess / np.where(keep, arr, 1.0), 0.0)
    return float(out) if scalar else out


def bams_rule(d, spec: Bams):
    """BAMS posterior mean under the point-mass + double-exponential prior.

    With s = 1/sqrt(2 mu) the marginal noise is DE(0, s) and, for tau != s,

        delta(d) = [tau (tau^2-s^2) d e^{-|d|/tau}
                    + 2 s^2 tau^2 sgn(d) (e^{-|d|/s} - e^{-|d|/tau})]
                   / [(tau^2-s^2) (tau e^{-|d|/tau} - s e^{-|d|/s})]

        bams(d) = (1-alpha) m(d) delta(d)
                  / [(1-alpha) m(d) + alpha DE(d; 0, s)]

    where m(d) is the convolution of the two double exponentials.  The
    common exponential factor is cancelled analytically so the evaluation
    never under- or overflows for large |d|.
    """
    tau = _require(spec.tau, "tau", "Bams")
    mu = _require(spec.mu, "mu", "Bams")
    arr, scalar = _as_array(d)
    s = 1.0 / np.sqrt(2.0 * mu)
    ad = np.abs(arr)
    sgn = np.sign(arr)
    tqdiff = tau * tau - s * s
    # divide everything by the larger of e^{-|d|/tau} and e^{-|d|/s}, which
    # leaves r_tau and r_s: one of them 1, the other r = e^{-|d| |1/s - 1/tau|}
    # in (0, 1].  tau and s may be per-column vectors.
    r = np.exp(-ad * np.abs(1.0 / s - 1.0 / tau))
    tau_larger = tau >= s
    r_tau = np.where(tau_larger, 1.0, r)
    r_s = np.where(tau_larger, r, 1.0)
    delta = (tau * tqdiff * arr * r_tau + 2.0 * s * s * tau * tau * sgn * (r_s - r_tau)) \
        / (tqdiff * (tau * r_tau - s * r_s))
    marg = (tau * r_tau - s * r_s) / (2.0 * tqdiff)
    noise = r_s / (2.0 * s)
    weight = (1.0 - spec.alpha) * marg
    out = weight * delta / (weight + spec.alpha * noise)
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# level policy and pyramid application
# ---------------------------------------------------------------------------

def av_policy(j: int, detail_coefficients: np.ndarray, policy: LevelPolicy):
    """Level-dependent (p, m) for resolution level j.

    p = 1 - (j - J0 + 1)^(-gamma), m = max_k |d_jk|; for a (2^j x I) level
    slice m is the length-I vector of per-column maxima.
    """
    if j < policy.J0:
        raise ValueError(f"level {j} below primary resolution level {policy.J0}")
    d = np.asarray(detail_coefficients, dtype=float)
    if d.size == 0:
        raise ValueError(f"no detail coefficients supplied for level {j}")
    p = 1.0 - (j - policy.J0 + 1) ** (-policy.gamma_exponent)
    m = np.max(np.abs(d), axis=0)
    return p, m


def _evaluate(d: np.ndarray, rule: RuleSpec) -> np.ndarray:
    if isinstance(rule, Logistic):
        return logistic_rule(d, rule)
    if isinstance(rule, Beta):
        return beta_rule(d, rule)
    if isinstance(rule, Lpm):
        return lpm_rule(d, rule)
    if isinstance(rule, Abe):
        return abe_rule(d, rule)
    if isinstance(rule, Bams):
        return bams_rule(d, rule)
    raise TypeError(f"unknown rule spec {rule!r}")


def _apply_rule(d: np.ndarray, rule: RuleSpec) -> np.ndarray:
    """Evaluate the rule on a level slice in row blocks of at most
    _BLOCK_COEFFICIENTS coefficients (one row when a row is longer)."""
    rows = max(1, _BLOCK_COEFFICIENTS // max(1, d[0].size))
    if d.shape[0] <= rows:
        return _evaluate(d, rule)
    return np.concatenate([_evaluate(d[k:k + rows], rule)
                           for k in range(0, d.shape[0], rows)])


def shrink_pyramid(pyr: Pyramid, rule: RuleSpec,
                   policy: Optional[LevelPolicy] = None) -> Pyramid:
    """Apply a shrinkage rule to every detail coefficient of a pyramid.

    Coarse scaling coefficients pass through unchanged.  The rule sees one
    level slice at a time; the columns of a 2-D pyramid are independent
    signals, and per-column rule parameters broadcast along the rows.  When
    a LevelPolicy is supplied and the rule is Logistic or Beta, the mixture
    weight (and the per-column beta half-support) are taken from the policy
    per level instead of the static spec values.
    """
    new_details = []
    for i, d in enumerate(pyr.details):
        level_rule, live = rule, True
        if policy is not None and isinstance(rule, (Logistic, Beta)):
            p, m = av_policy(pyr.J0 + i, d, policy)
            # every rule maps 0 to 0: a column whose level is all zeros is
            # masked rather than given a degenerate support m(j) = 0
            live = m > 0.0
            if isinstance(rule, Logistic):
                level_rule = Logistic(p=p, tau=rule.tau, sigma=rule.sigma)
            else:
                level_rule = Beta(p=p, a=rule.a, m=np.where(live, m, 1.0),
                                  sigma=rule.sigma)
        new_details.append(np.where(live, _apply_rule(d, level_rule), 0.0))
    return Pyramid(coarse=pyr.coarse.copy(), details=new_details,
                   J=pyr.J, J0=pyr.J0)


# ---------------------------------------------------------------------------
# resolution of data-dependent hyperparameters
# ---------------------------------------------------------------------------

def resolve_rule(spec: RuleSpec, sigma, pyr: Optional[Pyramid] = None) -> RuleSpec:
    """Fill the data-dependent fields of a rule spec.

    sigma, a float or one value per pyramid column, plugs into
    Logistic/Beta/Lpm/Abe.  Unset Beta half-support becomes the max |d| over
    all detail levels of ``pyr``, per column.  Unset BAMS scales become
    tau = 3 sigma and mu = 1/sigma^2, i.e. the prior mean of the noise
    variance (1/mu under this parameterization) matches the plug-in sigma^2.
    """
    if isinstance(spec, Logistic):
        return Logistic(p=spec.p, tau=spec.tau,
                        sigma=spec.sigma if spec.sigma is not None else sigma)
    if isinstance(spec, Beta):
        m = spec.m
        if m is None:
            if pyr is None:
                raise ValueError("resolving Beta.m requires a pyramid")
            m = np.max([np.max(np.abs(d), axis=0) for d in pyr.details], axis=0)
            # all-zero details: every rule maps 0 to 0, so any support will do
            m = np.where(m > 0.0, m, 1.0)
        return Beta(p=spec.p, a=spec.a, m=m,
                    sigma=spec.sigma if spec.sigma is not None else sigma)
    if isinstance(spec, Lpm):
        return Lpm(k=spec.k, sigma=spec.sigma if spec.sigma is not None else sigma)
    if isinstance(spec, Abe):
        return Abe(sigma=spec.sigma if spec.sigma is not None else sigma)
    if isinstance(spec, Bams):
        if np.any(np.asarray(sigma) <= 0) and (spec.tau is None or spec.mu is None):
            raise ValueError("BAMS defaults require a positive sigma estimate")
        tau = spec.tau if spec.tau is not None else 3.0 * sigma
        mu = spec.mu if spec.mu is not None else 1.0 / sigma ** 2
        return Bams(alpha=spec.alpha, tau=tau, mu=mu)
    raise TypeError(f"unknown rule spec {spec!r}")


def rule_defaults() -> dict[str, dict[str, object]]:
    """Resolved default hyperparameters for each named rule (for reporting)."""
    return {
        "log": {"p": DEFAULT_LOGISTIC_P, "tau": DEFAULT_LOGISTIC_TAU,
                "sigma": "estimated", "policy": "p(j) = 1 - (j - J0 + 1)^-gamma"},
        "beta": {"p": DEFAULT_BETA_P, "a": DEFAULT_BETA_A,
                 "m": "max_k |d_jk|", "sigma": "estimated",
                 "policy": "p(j) = 1 - (j - J0 + 1)^-gamma, m(j) = max_k |d_jk|"},
        "lpm": {"k": DEFAULT_LPM_K, "sigma": "estimated",
                "threshold": "2 sigma sqrt(2k - 1)"},
        "abe": {"sigma": "estimated", "threshold": "sqrt(3) sigma"},
        "bams": {"alpha": DEFAULT_BAMS_ALPHA, "tau": "3 * sigma_hat",
                 "mu": "1 / sigma_hat^2"},
    }

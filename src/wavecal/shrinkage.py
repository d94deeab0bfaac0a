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

`RULES` maps each rule's name ("log", "beta", "lpm", "abe", "bams") to its
parameter dataclass; a default instance is the unresolved spec that
`resolve_rule` completes from the data.

Rules accept a scalar or an array of coefficients and are pure functions of
their arguments.  The noise sd sigma and the other hyperparameters are
finite scalars, and a spec rejects any other value when it is built.  A spec
holds only what the pipeline reads: the standalone `logistic_rule` and
`beta_rule` take the mixture weight p, and beta's half-support m, as
arguments, which `shrink_pyramid` resolves per level instead.
`shrink_pyramid` applies a rule coefficientwise to the detail rows of a
Pyramid, the level views of one flat coefficient matrix, and writes the
result into one new matrix of the same layout, the coarse rows copied
unchanged.  It hands the detail rows to the rule in blocks of whole rows
that cross level boundaries, at most 8192 coefficients each (one row when a
row is longer), which bounds the elementwise temporaries of every rule:
7 blocks for M = 1024, I = 50.  `log` and `beta` always take the level-
dependent p(j) and m(j) of Angelini and Vidakovic (2004), resolved once per
level, and each block passes its rows' values to their kernels,
`_logistic_from_table` and `_beta_kernel`.  Every rule's result at a
coefficient is its own, whatever block it is in.

The logistic rule's prior integrals depend on a coefficient only through
|d|, and not on the mixture weight, so `shrink_pyramid` tabulates them once
for the whole pyramid (`_LogisticTable`): piecewise
Chebyshev interpolants in |d|, built from factorised Gauss-Hermite sums
(sigma <= 2 tau) or sums on the prior's scale (sigma > 2 tau), with exact
asymptotes past a cutoff.  Each coefficient then costs two Horner
evaluations and one exponential, and the scaled kernel cannot underflow at
any |d|; a table that would need more than 2^14 panels is refused.
`_grid_sums` builds the table's (points x nodes) grid in chunks of at most
32768 values in one reused buffer.

The beta rule has the shape a = 2 of the paper and is evaluated at
c = |d| / sigma and w = m / sigma, with the sign of d restored last.  Its
prior integrals are three terms in Phi and exp at c +- w (`_beta_two`): two
`ndtr` calls, three exponentials and a few dozen in-place array passes per
coefficient block.  On a support narrow against sigma, w < 0.3, where that
closed form cancels, a Hermite series of the likelihood across the support
takes over (`_beta_series`).  `beta_rule` rejects coefficients more than
_BETA_OUTSIDE sigma outside its support m, where the closed form loses
accuracy; `shrink_pyramid`'s m(j) = max |d| never gets there.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import lru_cache, partial
from typing import NamedTuple, Optional, Union

import numpy as np
from scipy.special import erfcx, log_ndtr, ndtr

from .wavelet import Pyramid

__all__ = [
    "ShrinkageUnderflowWarning",
    "LevelPolicy",
    "Logistic",
    "Beta",
    "Lpm",
    "Abe",
    "Bams",
    "RuleSpec",
    "RULES",
    "estimate_sigma",
    "logistic_rule",
    "beta_rule",
    "lpm_rule",
    "abe_rule",
    "bams_rule",
    "check_integer",
    "shrink_pyramid",
    "resolve_rule",
    "rule_defaults",
]

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_BAMS_SINGULARITY_TOL = 1e-8

MAD_TO_SIGMA = 0.6745  # median absolute deviation of N(0,1), Donoho-Johnstone constant

# The exponent gamma of the level policy's mixture weight p(j) (`_mixture_weight`).
POLICY_GAMMA = 2.0

# Largest number of coefficients `shrink_pyramid` hands to one rule call, in
# row blocks that cross level boundaries.  It bounds the elementwise
# temporaries of a rule, 64 KiB each, which stay in L2 cache; a sweep of all
# five rules over study-3 pyramids (M = 1024, I = 50) found this size fastest.
_BLOCK_COEFFICIENTS = 8192

# Largest number of node-grid values `_grid_sums` holds at once: 256 KiB,
# which stays in L2 cache and is reused for every chunk of a rule call.
_GRID_VALUES = 32768

# Past this magnitude d * d or sigma * sigma may overflow; `_downscaled`
# divides such coefficients, and sigma, by _UPSCALE (both powers of two).
_SQUARE_LIMIT = 2.0 ** 500
_UPSCALE = 2.0 ** 600


class ShrinkageUnderflowWarning(RuntimeWarning):
    """A rule denominator underflowed to zero.  No rule raises it; it stays
    only for the benchmark, whose tracer counts it."""


# ---------------------------------------------------------------------------
# rule parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelPolicy:
    """The primary level J0 of the level-dependent p(j) and m(j) (Angelini
    and Vidakovic, 2004) that `shrink_pyramid` gives `log` and `beta` at the
    pyramid's J0.  It changes nothing, and stays only for the benchmark."""

    J0: int = 0

    def __post_init__(self):
        check_integer("J0", self.J0)


def check_integer(name: str, value, low: int = 0) -> None:
    """Reject ``value`` unless it is an int >= low (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _check_scalars(spec) -> None:
    """Reject a spec whose fields are not scalars."""
    for f in fields(spec):
        if np.ndim(getattr(spec, f.name)) != 0:
            raise ValueError(f"{type(spec).__name__}.{f.name} must be a scalar, "
                             f"got {getattr(spec, f.name)!r}")


def _check_open(name: str, value, low: float = 0.0) -> None:
    """Reject a parameter unless it is a finite scalar > low."""
    if np.ndim(value) != 0 or not low < value < np.inf:
        raise ValueError(f"{name} must be finite and > {low}, got {value!r}")


def _check_nonnegative(name: str, value) -> None:
    if value is not None and not 0.0 <= value < np.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _check_weight(p) -> None:
    """Reject a mixture weight unless it is a scalar in [0, 1); p = 0 is
    p(J0), the primary level's weight."""
    if np.ndim(p) != 0 or not 0.0 <= p < 1.0:
        raise ValueError(f"p must be a scalar in [0, 1), got {p!r}")


@dataclass(frozen=True)
class Logistic:
    """Point mass at zero mixed with a logistic prior of scale tau.

    ``sigma=None`` marks the noise sd as to-be-estimated; rule evaluation
    requires a resolved spec.  The mixture weight is not a field:
    `logistic_rule` takes p, and `shrink_pyramid` uses the level's p(j).
    """

    tau: float = 1.0
    sigma: Optional[float] = None

    def __post_init__(self):
        _check_scalars(self)
        _check_open("tau", self.tau)
        if self.sigma is not None:
            _check_open("sigma", self.sigma)


@dataclass(frozen=True)
class Beta:
    """Point mass at zero mixed with a beta prior of shape a = 2 on [-m, m],
    the density 3 (m^2 - theta^2) / (4 m^3).

    ``sigma=None`` marks the noise sd as to-be-estimated.  p and m are not
    fields: `beta_rule` takes them, and `shrink_pyramid` uses the level's
    p(j) and m(j).
    """

    sigma: Optional[float] = None

    def __post_init__(self):
        _check_scalars(self)
        if self.sigma is not None:
            _check_open("sigma", self.sigma)


@dataclass(frozen=True)
class Lpm:
    """Large Posterior Mode thresholding with prior exponent k > 1/2.

    sigma = 0 is admitted (the rule degenerates to the identity), which the
    noise-free recovery paths rely on.
    """

    k: float = 1.0
    sigma: Optional[float] = None

    def __post_init__(self):
        _check_scalars(self)
        if not 0.5 < self.k < np.inf:
            raise ValueError(f"k must be finite and > 1/2, got {self.k}")
        _check_nonnegative("sigma", self.sigma)


@dataclass(frozen=True)
class Abe:
    """Amplitude-scale invariant Bayes Estimator; only needs the noise sd.

    sigma = 0 is admitted (identity rule) for noise-free recovery paths.
    """

    sigma: Optional[float] = None

    def __post_init__(self):
        _check_scalars(self)
        _check_nonnegative("sigma", self.sigma)


@dataclass(frozen=True)
class Bams:
    """Point mass mixed with a double-exponential prior, exponential prior
    on the noise variance.

    With both scales set, the prior's tau must exceed the marginal noise
    scale s = 1/sqrt(2 mu) by a margin: 2*mu*tau^2 > 1 + 1e-8.  The closed
    form degenerates at tau = s, and the pipeline's tau = 3 sigma-hat and
    mu = 1/sigma-hat^2 give 2*mu*tau^2 = 18.
    """

    alpha: float = 0.8
    tau: Optional[float] = None
    mu: Optional[float] = None

    def __post_init__(self):
        _check_scalars(self)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.tau is not None:
            _check_open("tau", self.tau)
        if self.mu is not None:
            _check_open("mu", self.mu)
        if self.tau is not None and self.mu is not None:
            ratio = 2.0 * self.mu * self.tau ** 2
            if not ratio > 1.0 + _BAMS_SINGULARITY_TOL:
                raise ValueError(f"tau must exceed s = 1/sqrt(2 mu): 2*mu*tau^2 must be "
                                 f"> 1 + {_BAMS_SINGULARITY_TOL:g}, got {ratio}")


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
    return np.median(np.abs(d), axis=0) / MAD_TO_SIGMA


# ---------------------------------------------------------------------------
# the five rules
# ---------------------------------------------------------------------------

def _phi(x, out=None):
    # exp(-x^2 / 2) / sqrt(2 pi), written into ``out`` when it is given.  No
    # rule calls it; it stays only for the benchmark, whose tracer wraps it.
    g = np.multiply(x, x, out=out)
    g = np.multiply(g, -0.5, out=out)
    g = np.exp(g, out=out)
    return np.divide(g, _SQRT_2PI, out=out)


def _logistic_pdf(y, out=None):
    # The logistic density in factorised form: at x = |d| + sigma u, with
    # y = e^(-x / tau) = F c, F = e^(-|d| / tau) and c = e^(-sigma u / tau),
    # g(x) e^(|d| / tau) = (c / tau) / (1 + y)^2.  This is the factor
    # 1 / (1 + y)^2, written into ``out`` when it is given; it cannot
    # underflow, and it needs no transcendental function.
    g = np.add(y, 1.0, out=out)
    g = np.multiply(g, g, out=out)
    return np.divide(1.0, g, out=out)


def _grid_sums(x, nodes, weights):
    """sum_i weights[i, :] * _logistic_pdf(x * nodes[i]) at every point x.

    The result has one row per point and one column per column of
    ``weights`` (nodes x K).  The (points x nodes) grid is never built whole:
    one buffer of at most _GRID_VALUES values is filled a chunk of points at
    a time by an outer product, the kernel is applied to it in place, and a
    matmul reduces it.
    """
    rows = max(1, min(x.size, _GRID_VALUES // nodes.size))
    buffer = np.empty((rows, nodes.size))
    sums = np.empty((x.size, weights.shape[1]))
    for start in range(0, x.size, rows):
        stop = min(start + rows, x.size)
        grid = buffer[:stop - start]
        np.multiply.outer(x[start:stop], nodes, out=grid)
        _logistic_pdf(grid, out=grid)
        np.matmul(grid, weights, out=sums[start:stop])
    return sums


def _as_array(d):
    arr = np.asarray(d, dtype=float)
    return arr, arr.ndim == 0


def _require(value, name, rule):
    if value is None:
        raise ValueError(f"{rule} spec has no {name}; set it, or call resolve_rule "
                         f"for a sigma, tau or mu from the data")
    return value


# ---------------------------------------------------------------------------
# the logistic table
# ---------------------------------------------------------------------------

class _LogisticTable(NamedTuple):
    """Piecewise polynomials in a = |d| of the two functions that carry the
    logistic rule's integrals at one (tau, sigma).

    With Z(a) = int g(theta) phi_sigma(a - theta) dtheta and
    N(a) = int theta g(theta) phi_sigma(a - theta) dtheta, the table holds
    ell(a) = log(tau Z(a) e^(a / tau)) and R(a) = N(a) / (a Z(a)) as degree
    _CHEB_DEGREE polynomials in t in [-1, 1] on panels [k h, (k + 1) h].
    ``coef`` column k holds panel k: the coefficients of the powers of t for
    ell, then those for R.  From ``cutoff`` on, the exact asymptotes
    ell = sigma^2 / (2 tau^2) and R = 1 - sigma^2 / (tau a) hold.
    """

    tau: float
    sigma: float
    scale: float           # 2 / h
    last: int              # the last panel
    cutoff: float
    coef: np.ndarray


# Degree of the table's polynomials; they interpolate at the first-kind
# Chebyshev points, and _CHEB_TO_POWERS maps the values there to the
# coefficients of 1, t, ..., t^_CHEB_DEGREE.
_CHEB_DEGREE = 8
_CHEB_POINTS = np.cos(np.pi * (np.arange(_CHEB_DEGREE + 1) + 0.5) / (_CHEB_DEGREE + 1))
_CHEB_TO_POWERS = np.linalg.inv(np.vander(_CHEB_POINTS, increasing=True))

# Gauss-Hermite nodes whose weight is below this fraction of the largest
# change no sum of the table (44 of the 64 nodes stay).
_GH_KEEP = 1e-18

# Beyond sigma = _PRIOR_SCALE * tau the table's sums are taken on the prior's
# scale (`_prior_scale_sums`), whose rule covers y = theta / tau in
# [-_PRIOR_SPAN, _PRIOR_SPAN] with _PRIOR_NODES Gauss-Legendre nodes on each
# panel of width _PRIOR_PANEL.
_PRIOR_SCALE = 2.0
_PRIOR_SPAN = 40.0
_PRIOR_PANEL = 4.0
_PRIOR_NODES = 16

_LOG_EPS = 53.0 * np.log(2.0)  # -log of the double precision unit roundoff

# Most panels a `_LogisticTable` may have; 16384 take 1.4 s to build on a Xeon core.
_TABLE_PANELS = 2 ** 14


@lru_cache(maxsize=1)
def _logistic_nodes() -> tuple[np.ndarray, np.ndarray]:
    """Nodes u_i and weights w_i with sum_i w_i f(u_i) ~ E[f(U)], U ~ N(0, 1):
    the Gauss-Hermite rule the table sums use below sigma = 2 tau, without
    the nodes of negligible weight."""
    v, w = np.polynomial.hermite.hermgauss(64)
    u, w = v * np.sqrt(2.0), w / np.sqrt(np.pi)
    keep = w > _GH_KEEP * w.max()
    return u[keep], w[keep]


@lru_cache(maxsize=1)
def _prior_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes y and log weights of a rule for the probability density
    S'(y) = 2 e^(-y) / (1 + e^(-y))^3, the derivative of the logistic
    distribution function squared, S(y) = (1 + e^(-y))^(-2)."""
    x, w = np.polynomial.legendre.leggauss(_PRIOR_NODES)
    left = np.arange(-_PRIOR_SPAN, _PRIOR_SPAN, _PRIOR_PANEL)
    y = (left[:, None] + 0.5 * _PRIOR_PANEL * (x + 1.0)).ravel()
    e = np.exp(-np.abs(y))
    density = 2.0 * np.where(y >= 0.0, e, e * e) / (1.0 + e) ** 3
    return y, np.log(np.tile(0.5 * _PRIOR_PANEL * w, left.size) * density)


def _likelihood_scale_sums(a, sigma: float, tau: float, nodes):
    """(ell, R) at a > 0 from the factorised Gauss-Hermite sums.

    With u_i, w_i the nodes and weights, c_i = e^(-sigma u_i / tau) and
    F = e^(-a / tau), tau Z e^(a / tau) = sum_i w_i c_i k(F c_i) and
    tau S1 e^(a / tau) = sum_i w_i u_i c_i k(F c_i), where k = `_logistic_pdf`
    and N = a Z + sigma S1.
    """
    u, w = nodes
    c = np.exp(-(sigma / tau) * u)
    z, s1 = _grid_sums(np.exp(-a / tau), c, np.stack([w * c, w * u * c], axis=1)).T
    return np.log(z), 1.0 + sigma * s1 / (a * z)


def _prior_scale_sums(a, sigma: float, tau: float):
    """(ell, R) at a > 0 from sums over the prior's scale, for sigma > 2 tau.

    Shifting the Gauss-Hermite variable by sigma / tau turns the sums of
    `_likelihood_scale_sums` into tau Z e^(a / tau) = e^(sigma^2 / (2 tau^2)) Q
    and R = 1 + (sigma / a) (P / Q - sigma / tau), with mu = a - sigma^2 / tau,
    Q = E[S(mu / tau + sigma V / tau)] and P = E[V S(...)], V ~ N(0, 1).  By
    parts both are integrals against the fixed density S'(y) of
    `_prior_rule`: Q = sum_i w_i Phi(z_i) and P = sum_i w_i phi(z_i) at
    z_i = (mu - tau y_i) / sigma.  Q is summed from logarithms, so that
    nothing underflows at any sigma / tau, and P / Q as the mean of
    phi(z_i) / Phi(z_i) = sqrt(2 / pi) / erfcx(-z_i / sqrt 2) under the
    weights w_i Phi(z_i), which keeps its full precision.
    """
    y, log_w = _prior_rule()
    mu = a - sigma * sigma / tau
    log_q, mills = np.empty_like(a), np.empty_like(a)
    rows = max(1, _GRID_VALUES // y.size)
    for start in range(0, a.size, rows):
        z = (mu[start:start + rows, None] - tau * y) / sigma
        weights = log_ndtr(z) + log_w
        top = weights.max(axis=1)
        weights = np.exp(weights - top[:, None])
        total = weights.sum(axis=1)
        log_q[start:start + rows] = top + np.log(total)
        z *= -np.sqrt(0.5)
        mills[start:start + rows] = (weights / erfcx(z)).sum(axis=1) \
            * np.sqrt(2.0 / np.pi) / total
    ell = sigma * sigma / (2.0 * tau * tau) + log_q
    return ell, 1.0 + (sigma / a) * (mills - sigma / tau)


def _logistic_table(spec: Logistic, top: float) -> _LogisticTable:
    """The `_LogisticTable` of ``spec``'s tau and sigma for |d| <= ``top``.

    Panels are max(tau, sigma / 2) / 4 wide and cover [0, min(top, cutoff)].
    The cutoff is where the sums reach their asymptotes to double precision:
    F c_i < 2^-53 on every Gauss-Hermite node, or for sigma > 2 tau
    Phi(z_i) = 1 and phi(z_i) = 0 on every node of the prior-scale rule.
    More than _TABLE_PANELS panels are refused before any is built.
    """
    tau = float(spec.tau)
    sigma = float(_require(spec.sigma, "sigma", "Logistic"))
    width = max(tau, sigma / 2.0) / 4.0
    if sigma <= _PRIOR_SCALE * tau:
        nodes = _logistic_nodes()
        cutoff = sigma * np.max(np.abs(nodes[0])) + _LOG_EPS * tau
        sums = partial(_likelihood_scale_sums, nodes=nodes)
    else:
        cutoff = sigma * sigma / tau + _PRIOR_SPAN * tau + 8.5 * sigma
        if cutoff == np.inf:
            raise ValueError(f"logistic_rule: sigma^2 / tau overflows at sigma = "
                             f"{sigma:.3g}, tau = {tau:.3g}")
        sums = _prior_scale_sums
    panels = np.fmin(top, cutoff) // width + 1
    if panels > _TABLE_PANELS:
        raise ValueError(f"logistic_rule: {panels:.3g} table panels at sigma / tau = "
                         f"{sigma / tau:.3g}; rescale the data or use a scale-free rule")
    panels = int(panels)
    points = (np.arange(panels)[:, None] + 0.5 * (_CHEB_POINTS + 1.0)) * width
    ell, ratio = sums(points.ravel(), sigma, tau)
    coef = np.concatenate([_CHEB_TO_POWERS @ ell.reshape(panels, -1).T,
                           _CHEB_TO_POWERS @ ratio.reshape(panels, -1).T])
    return _LogisticTable(tau, sigma, 2.0 / width, panels - 1, cutoff, coef)


def _point_mass_log(p: float, table: _LogisticTable) -> float:
    """log K, K = p / (1 - p) * tau / (sigma sqrt(2 pi)), the point mass's
    weight in `_logistic_from_table`; -inf where K is 0: at p = 0, or where
    K underflows and the point mass's share K e^x is far below rounding."""
    k = p / (1.0 - p) * table.tau / (table.sigma * _SQRT_2PI)
    return np.log(k) if k > 0.0 else -np.inf


def _logistic_from_table(arr, log_k, table: _LogisticTable):
    """The logistic rule at the coefficients ``arr`` from the table.

    delta = sign(d) a R(a) / (1 + K e^x), with x = a / tau - a^2 / (2 sigma^2)
    - ell(a) and ``log_k`` = log K from `_point_mass_log`, a scalar or one
    value per row of ``arr``: K e^x is the point mass's share p phi_sigma(a)
    over (1 - p) Z(a).  A row whose log K is -inf gets e^x = 0 exactly.
    """
    tau, sigma, cutoff = table.tau, table.sigma, table.cutoff
    a = np.abs(arr)
    beyond = a >= cutoff
    t = np.fmin(a, cutoff)
    t *= table.scale  # in half panels
    panel = (0.5 * t).astype(np.intp)
    np.minimum(panel, table.last, out=panel)
    t -= 2.0 * panel + 1.0

    def horner(coef):
        # one polynomial at every coefficient, its panel's powers gathered at once
        c = coef.take(panel, axis=1, mode="clip")  # panel is in [0, last]
        value = c[_CHEB_DEGREE] * t
        for j in range(_CHEB_DEGREE - 1, 0, -1):
            value += c[j]
            value *= t
        value += c[0]
        return value

    ell = horner(table.coef[:_CHEB_DEGREE + 1])
    ratio = horner(table.coef[_CHEB_DEGREE + 1:])
    if np.any(beyond):
        ell = np.where(beyond, sigma * sigma / (2.0 * tau * tau), ell)
        ratio = np.where(beyond, 1.0 - sigma * sigma / (tau * np.fmax(a, cutoff)), ratio)
    ratio *= a
    if np.any(log_k > -np.inf):
        # past cutoff + 40 sigma, e^x < e^-800 K: the point mass has no weight
        x = np.fmin(a, cutoff + 40.0 * sigma)
        x *= 1.0 / tau - x / (2.0 * sigma * sigma)
        x -= ell
        x += log_k
        np.minimum(x, 700.0, out=x)
        np.exp(x, out=x)
        x += 1.0
        ratio /= x
    return np.copysign(ratio, arr, out=ratio)


def logistic_rule(d, spec: Logistic, *, p: float):
    """Posterior mean under the logistic mixture prior of mixture weight p.

    The prior integrals Z and N (see `_LogisticTable`) depend on d only
    through a = |d|, and on p not at all, so they are tabulated once per
    call, over (tau, sigma) and every |d| of the input, as piecewise
    polynomials in a and combined with p only in the final ratio
    (`_logistic_from_table`).  The table's source sums use a 64-node
    Gauss-Hermite rule while sigma <= 2 tau and a rule on the prior's scale
    beyond.  The rule is odd, and |result| <= |d|.
    """
    _check_weight(p)
    arr, scalar = _as_array(d)
    table = _logistic_table(spec, float(np.max(np.abs(arr), initial=0.0)))
    out = _logistic_from_table(arr.reshape(-1) if scalar else arr,
                               _point_mass_log(p, table), table)
    return float(out[0]) if scalar else out


def _beta_two(c, w, r):
    """|delta| / sigma of the beta rule at shape a = 2, from c = |d| / sigma,
    w = m / sigma and r from `_beta_point_mass`.

    With theta = sigma (c + u) the prior kernel m^2 - theta^2 is sigma^2 times
    a quadratic in u, so the prior integrals are sums of the truncated normal
    moments int u^k phi(u) du, k <= 3, over [-w - c, w - c].  With
    G = sqrt(2 pi) [Phi(w - c) - Phi(-w - c)], P = e^(-(w + c)^2 / 2) and
    H = e^(-(w - c)^2 / 2) they collapse to three terms:

        s0 = ((w - c)(w + c) - 1) G + (w - c) P + (w + c) H
        num = c s0 - 2 (c G + P - H)
        |delta| / sigma = num / (s0 + r e^(-c^2 / 2)),  r = p / (1 - p) (4 / 3) w^3,

    where s0 and num are sqrt(2 pi) (4 / 3) w^3 times sigma Z and N, and
    r e^(-c^2 / 2) is the point mass's share on that scale.  The terms are
    evaluated in place, a few whole-array passes each.  The denominator is
    positive wherever `beta_rule` uses this form; s0 is never -0, so an r of
    0 leaves it bit for bit.
    """
    hi = np.subtract(w, c)
    sm = np.add(w, c)
    g = ndtr(hi)
    t = np.negative(sm)
    g -= ndtr(t, out=t)
    g *= _SQRT_2PI
    big_p = np.multiply(sm, sm, out=t)
    big_p *= -0.5
    np.exp(big_p, out=big_p)
    big_h = np.multiply(hi, hi)
    big_h *= -0.5
    np.exp(big_h, out=big_h)
    s0 = np.multiply(hi, sm)
    s0 -= 1.0
    s0 *= g
    hi *= big_p
    s0 += hi
    sm *= big_h
    s0 += sm
    big_p -= big_h
    g *= c
    g += big_p
    g *= 2.0
    num = np.multiply(c, s0, out=hi)
    num -= g
    den = np.multiply(c, c, out=sm)
    den *= -0.5
    np.exp(den, out=den)
    den *= r
    s0 += den
    num /= s0
    return num


def _beta_point_mass(p: float, w):
    """r = p / (1 - p) (4 / 3) w^3, the point mass's weight in `_beta_two`;
    exactly 0 at p = 0, whatever w."""
    if p == 0.0:
        return np.zeros_like(w, dtype=float)
    return p / (1.0 - p) * (4.0 / 3.0) * np.power(w, 3)


def _beta_series(c, w, p: float):
    """|delta| / sigma of the beta rule on a support narrow against sigma,
    from c = |d| / sigma and w = m / sigma.

    The likelihood across the support is a Hermite series,
    phi(c - w x) / phi(c) = e^(c w x - w^2 x^2 / 2) = sum_n He_n(c) (w x)^n / n!,
    so the prior integrals need only the even moments of the prior on
    [-1, 1], mu_0 = 1 and mu_2j = mu_(2j-2) (2j - 1) / (2j + 3):

        S0 = sum_j w^(2j) He_2j(c) mu_2j / (2j)!
        S1 = sum_j w^(2j+1) He_(2j+1)(c) mu_(2j+2) / (2j+1)!
        |delta| / sigma = (1 - p) w S1 / (p + (1 - p) S0).

    phi(c) cancels, so nothing underflows.  The terms E_n = He_n(c) w^n / n!
    follow from the Hermite recurrence as E_(n+1) = (c w E_n - w^2 E_(n-1)) /
    (n + 1), which keeps them finite where He_n(c) and n! are not.  Each
    coefficient stops at its first term that changes neither of its sums (a
    NaN c stops at once), so its result does not depend on the others in the
    batch.
    """
    cw = c * w
    w2 = w * w
    even, odd = np.ones_like(cw), cw  # E_0, E_1
    mu = 1.0 / 5                      # mu_2
    s0, s1 = np.ones_like(cw), mu * odd
    summing = ~np.isnan(cw)
    n = 1
    while True:
        even = (cw * odd - w2 * even) / (n + 1)  # E_2j, with 2j = n + 1
        odd = (cw * even - w2 * odd) / (n + 2)
        t0 = even * mu
        mu *= (n + 2) / (n + 6)
        t1 = odd * mu
        summing &= (s0 + t0 != s0) | (s1 + t1 != s1)
        if not np.any(summing):
            break
        np.add(s0, t0, out=s0, where=summing)
        np.add(s1, t1, out=s1, where=summing)
        n += 2
    return (1.0 - p) * w * s1 / (p + (1.0 - p) * s0)


# How far |d| may lie outside [-m, m], in units of sigma, for `beta_rule`.
# Past the support the terms of `_beta_two` cancel by a factor of about
# 1 + 2 t^2 at t = (|d| - m) / sigma; this t, about 7.04, holds it at 100,
# where the closed form stays within 1e-11 * m of 2048-node Gauss-Legendre
# quadrature.
_BETA_OUTSIDE = float(np.sqrt(49.5))


def _beta_kernel(arr, p, w, r, sigma: float):
    """The beta rule at the coefficients ``arr`` from resolved values: the
    mixture weight p, w = m / sigma and r = `_beta_point_mass` (p, w), each a
    scalar or an array broadcasting against ``arr``, and the scalar sigma.
    Every coefficient's result is its own: the closed form and the series
    are elementwise, whatever else is in ``arr``."""
    c = np.abs(arr) / sigma
    narrow = w < 0.3
    if not np.any(narrow):
        out = _beta_two(c, w, r)
    else:
        c, p, w, r, narrow = np.broadcast_arrays(c, p, w, r, narrow)
        wide = ~narrow
        out = np.empty(c.shape)
        out[wide] = _beta_two(c[wide], w[wide], r[wide])
        out[narrow] = _beta_series(c[narrow], w[narrow], p[narrow])
    out *= sigma
    return np.copysign(out, arr, out=out)


def beta_rule(d, spec: Beta, *, p: float, m: float):
    """Posterior mean under the symmetric beta mixture prior on [-m, m] of
    mixture weight p.

    The rule is evaluated at c = |d| / sigma and w = m / sigma, and the sign
    of d restored last, so it is odd bit for bit.  The prior integrals have
    a closed form in three terms (see `_beta_two`).  On a support narrow
    against sigma, w < 0.3, the closed form cancels and a Hermite series of
    the likelihood is summed instead (see `_beta_series`).  A coefficient
    more than _BETA_OUTSIDE (about 7.04) sigma outside the support is
    rejected with a ValueError; `shrink_pyramid`'s support from the data,
    m(j) = max_k |d_jk|, never gets there.  |result| <= m always.
    """
    sigma = _require(spec.sigma, "sigma", "Beta")
    _check_weight(p)
    _check_open("m", m)
    arr, scalar = _as_array(d)
    arr = arr.reshape(-1) if scalar else arr
    w = m / sigma
    if np.any(np.abs(arr) / sigma > w + _BETA_OUTSIDE):
        raise ValueError(f"beta_rule: coefficients lie more than {_BETA_OUTSIDE:.3g} "
                         f"sigma outside the support [-m, m] of the beta prior")
    out = _beta_kernel(arr, p, w, _beta_point_mass(p, w), sigma)
    return out.item() if scalar else out


def _downscaled(arr, sigma):
    """(d, sigma, factor) with d and sigma divided by ``factor``: _UPSCALE
    where |d| or sigma exceeds _SQUARE_LIMIT, else 1.  Both rules below are
    homogeneous of degree one in (d, sigma) and power-of-two scaling is
    exact, so multiplying a rule's result by ``factor`` changes no bit
    except where d * d would have overflowed."""
    # two reductions settle the common case; NaN fails them and takes the mask
    if (arr.max(initial=0.0) <= _SQUARE_LIMIT and arr.min(initial=0.0) >= -_SQUARE_LIMIT
            and sigma <= _SQUARE_LIMIT):
        return arr, sigma, 1.0
    factor = np.where(np.maximum(np.abs(arr), sigma) > _SQUARE_LIMIT, _UPSCALE, 1.0)
    return arr / factor, sigma / factor, factor


def lpm_rule(d, spec: Lpm):
    """Large Posterior Mode thresholding: zero below lambda = 2 sigma
    sqrt(2k-1), else the larger posterior mode (closed interval at lambda)."""
    arr, scalar = _as_array(d)
    arr, sigma, factor = _downscaled(arr.reshape(-1) if scalar else arr,
                                     _require(spec.sigma, "sigma", "Lpm"))
    disc = np.multiply(arr, arr)  # d^2 - lambda^2, in place
    disc -= 4.0 * sigma * sigma * (2.0 * spec.k - 1.0)
    keep = disc >= 0.0
    np.sqrt(disc, out=disc, where=keep)
    disc *= np.sign(arr)
    disc += arr
    disc *= 0.5
    out = np.where(keep, disc, 0.0)
    if np.ndim(factor):
        out *= factor
    return out.item() if scalar else out


def abe_rule(d, spec: Abe):
    """Amplitude-scale invariant Bayes Estimator: (d^2 - 3 sigma^2)_+ / d,
    with the value at d = 0 defined as 0."""
    arr, scalar = _as_array(d)
    arr, sigma, factor = _downscaled(arr, _require(spec.sigma, "sigma", "Abe"))
    excess = arr * arr - 3.0 * sigma * sigma
    keep = excess > 0.0  # implies d != 0
    # divide only where kept: excess / d overflows for a subnormal d
    out = np.where(keep, excess / np.where(keep, arr, 1.0), 0.0) * factor
    return float(out) if scalar else out


def bams_rule(d, spec: Bams):
    """BAMS posterior mean under the point-mass + double-exponential prior.

    With s = 1/sqrt(2 mu) the marginal noise is DE(0, s) and, as the spec
    requires tau > s,

        delta(d) = [tau (tau^2-s^2) d e^{-|d|/tau}
                    + 2 s^2 tau^2 sgn(d) (e^{-|d|/s} - e^{-|d|/tau})]
                   / [(tau^2-s^2) (tau e^{-|d|/tau} - s e^{-|d|/s})]

        bams(d) = (1-alpha) m(d) delta(d)
                  / [(1-alpha) m(d) + alpha DE(d; 0, s)]

    where m(d) is the convolution of the two double exponentials.  The
    common exponential factor is cancelled analytically so the evaluation
    never under- or overflows for large |d|.  The terms are evaluated in
    place, in four whole-array buffers.
    """
    tau = _require(spec.tau, "tau", "Bams")
    mu = _require(spec.mu, "mu", "Bams")
    arr, scalar = _as_array(d)
    arr = arr.reshape(-1) if scalar else arr
    s = 1.0 / np.sqrt(2.0 * mu)
    tqdiff = tau * tau - s * s
    # divide everything by e^{-|d|/tau}, the larger of it and e^{-|d|/s}, which
    # leaves r_tau = 1 and r_s = r = e^{-|d| (1/s - 1/tau)} in (0, 1]
    r = np.abs(arr)
    r *= 1.0 / tau - 1.0 / s
    np.exp(r, out=r)
    # delta's numerator: tau tqdiff d r_tau + 2 s^2 tau^2 sgn(d) (r_s - r_tau)
    term = np.sign(arr)
    term *= 2.0 * s * s * tau * tau
    spread = np.subtract(r, 1.0)  # r_s - r_tau
    term *= spread
    num = np.multiply(arr, tau * tqdiff)
    # from here on, spread = tau r_tau - s r_s, and noise = alpha r_s / (2 s)
    np.multiply(r, s, out=spread)
    np.subtract(tau, spread, out=spread)
    noise = r
    noise /= 2.0 * s
    noise *= spec.alpha
    num += term
    num /= np.multiply(spread, tqdiff, out=term)  # delta
    weight = spread
    weight /= 2.0 * tqdiff                        # the marginal m(d)
    weight *= 1.0 - spec.alpha
    num *= weight
    weight += noise
    num /= weight
    return num.item() if scalar else num


RULES: dict[str, type] = {"log": Logistic, "beta": Beta, "lpm": Lpm, "abe": Abe,
                          "bams": Bams}

# The function `shrink_pyramid` calls on each row block, per spec type: the
# kernels of `log` and `beta`, which take per-row resolved values, and the rule
# functions of the others.
_RULE_FUNCTIONS = {Logistic: _logistic_from_table, Beta: _beta_kernel,
                   Lpm: lpm_rule, Abe: abe_rule, Bams: bams_rule}


def _rule_function(spec: RuleSpec):
    """The block function of a spec; TypeError for a type not in RULES."""
    evaluate = _RULE_FUNCTIONS.get(type(spec))
    if evaluate is None:
        raise TypeError(f"unknown rule spec {spec!r}")
    return evaluate


# ---------------------------------------------------------------------------
# level policy and pyramid application
# ---------------------------------------------------------------------------

def _mixture_weight(j: int, J0: int) -> float:
    """The mixture weight p(j) = 1 - (j - J0 + 1)^(-gamma) of level j >= J0."""
    if j < J0:
        raise ValueError(f"level {j} below primary resolution level {J0}")
    return 1.0 - (j - J0 + 1) ** (-POLICY_GAMMA)


def shrink_pyramid(pyr: Pyramid, rule: RuleSpec,
                   policy: Optional[LevelPolicy] = None) -> Pyramid:
    """Apply a shrinkage rule to every detail coefficient of a pyramid.

    The result is a new pyramid over one new flat matrix, whose coarse rows
    are copied unchanged; ``pyr`` is only read.  The rule runs on row blocks
    of the whole detail matrix, at most _BLOCK_COEFFICIENTS coefficients
    each (one row when a row is longer), that cross level boundaries; the
    columns of a 2-D pyramid are independent signals, and every rule's
    result at a coefficient is independent of the block it sits in.  For
    Logistic and Beta the mixture weight p(j) = 1 - (j - J0 + 1)^(-gamma)
    and the beta half-support m(j) = max_k |d_jk|, one per column, are
    resolved once per level at the pyramid's J0.  A column whose level is
    all zeros is set to zero.  ``policy`` changes nothing and stays only for
    the benchmark; its J0 must be the pyramid's.
    """
    evaluate = _rule_function(rule)
    if policy is not None and policy.J0 != pyr.J0:
        raise ValueError(f"policy J0 = {policy.J0} differs from the pyramid's J0 = {pyr.J0}")
    first = 2 ** pyr.J0
    details = pyr.flat[first:]
    levels = range(pyr.J0, pyr.J)
    # `per_level` values have one row per level, and each block gets them row
    # by row; `fixed` values are passed whole
    per_level, fixed, live = (), (rule,), None
    if isinstance(rule, (Logistic, Beta)):
        # max_k |d_jk| per level and column: m(j), and the logistic table's range
        peaks = np.maximum.reduceat(np.abs(details), [2 ** j - first for j in levels],
                                    axis=0)
        p = [_mixture_weight(j, pyr.J0) for j in levels]
        live = peaks > 0.0
        column = (-1,) + (1,) * (details.ndim - 1)  # a value per row, broadcast
        if isinstance(rule, Logistic):
            table = _logistic_table(rule, float(np.max(peaks)))
            per_level = (np.reshape([_point_mass_log(pj, table) for pj in p], column),)
            fixed = (table,)
        else:
            sigma = _require(rule.sigma, "sigma", "Beta")
            w = np.where(live, peaks, 1.0) / sigma
            per_level = (np.reshape(p, column), w,
                         np.stack([_beta_point_mass(pj, wj) for pj, wj in zip(p, w)]))
            fixed = (sigma,)

    out = np.empty_like(pyr.flat)
    out[:first] = pyr.flat[:first]
    shrunk = out[first:]
    level = np.repeat(np.arange(len(levels)), [2 ** j for j in levels])  # of each row
    rows = max(1, _BLOCK_COEFFICIENTS // max(1, details[0].size))
    for k in range(0, len(details), rows):
        block = slice(k, k + rows)
        shrunk[block] = evaluate(details[block],
                                 *(v.take(level[block], axis=0) for v in per_level), *fixed)
    if live is not None and not live.all():
        np.copyto(shrunk, 0.0, where=~live.take(level, axis=0))
    return Pyramid(out, pyr.J0)


# ---------------------------------------------------------------------------
# resolution of data-dependent hyperparameters
# ---------------------------------------------------------------------------

def resolve_rule(spec: RuleSpec, sigma) -> RuleSpec:
    """Fill the data-dependent fields of a rule spec from the noise sd.

    sigma, a float, plugs into Logistic/Beta/Lpm/Abe unless the spec carries
    its own.  Unset BAMS scales become tau = 3 sigma and mu = 1/sigma^2,
    i.e. the prior mean of the noise variance (1/mu under this
    parameterization) matches the plug-in sigma^2.  The level-dependent
    p(j) and m(j) of Logistic and Beta are `shrink_pyramid`'s.
    """
    _rule_function(spec)  # rejects a spec type not in RULES
    if isinstance(spec, Bams):
        if sigma <= 0 and (spec.tau is None or spec.mu is None):
            raise ValueError("BAMS defaults require a positive sigma estimate")
        tau = spec.tau if spec.tau is not None else 3.0 * sigma
        mu = spec.mu if spec.mu is not None else 1.0 / sigma ** 2
        return replace(spec, tau=tau, mu=mu)
    return spec if spec.sigma is not None else replace(spec, sigma=sigma)


def rule_defaults() -> dict[str, dict[str, object]]:
    """Each named rule's default hyperparameters, for reporting: the fields
    of its spec dataclass that have a default value, beta's fixed shape a,
    and a description of each value the pipeline resolves from the data."""
    resolved = {
        "log": {"sigma": "estimated", "policy": "p(j) = 1 - (j - J0 + 1)^-gamma"},
        "beta": {"a": 2.0, "m": "max_k |d_jk|", "sigma": "estimated",
                 "policy": "p(j) = 1 - (j - J0 + 1)^-gamma, m(j) = max_k |d_jk|"},
        "lpm": {"sigma": "estimated", "threshold": "2 sigma sqrt(2k - 1)"},
        "abe": {"sigma": "estimated", "threshold": "sqrt(3) sigma"},
        "bams": {"tau": "3 * sigma_hat", "mu": "1 / sigma_hat^2"},
    }
    return {name: {**{f.name: f.default for f in fields(spec) if f.default is not None},
                   **resolved[name]} for name, spec in RULES.items()}

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
spec class; a default instance is the unresolved spec that `resolve_rule`
completes from the data.

Rules accept a scalar or an array of coefficients and are pure functions of
their arguments.  Each rule has the one setting of the paper: logistic
tau = LOGISTIC_TAU, LPM k = LPM_K, BAMS alpha = BAMS_ALPHA, and BAMS's
tau = 3 sigma and mu = 1 / sigma^2 from the noise sd.  So a spec holds only
the noise sd sigma, a finite real number, which it checks when it is built.
The standalone `logistic_rule` and `beta_rule` take the mixture weight p,
and beta's half-support m, as arguments, which `shrink_pyramid` resolves
per level instead.
`shrink_pyramid` applies a rule coefficientwise to the detail rows of a
Pyramid, the level views of one flat coefficient matrix, and writes the
result into one new matrix of the same layout, the coarse rows copied
unchanged.  It hands the detail rows to the rule in blocks of whole rows
that cross level boundaries, large enough that each numpy pass of a rule
outlasts handing the interpreter lock to another of `run_study`'s worker
threads (`_BLOCK_COEFFICIENTS`).  `log` and `beta` always take the level-
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
Below sigma = 2 tau the table's (points x nodes) grid is one product of at
most 219 panels x 9 points x 44 nodes = 86 724 values, whatever the data.

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

import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple, Optional

import numpy as np

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
    "check_real",
    "shrink_pyramid",
    "resolve_rule",
    "rule_defaults",
]

_SQRT_2PI = np.sqrt(2.0 * np.pi)

MAD_TO_SIGMA = 0.6745  # median absolute deviation of N(0,1), Donoho-Johnstone constant

# The primary resolution level J0 of every configuration's default.
DEFAULT_J0 = 3

# The exponent gamma of the level policy's mixture weight p(j) (`_mixture_weight`).
POLICY_GAMMA = 2.0

# The paper's fixed hyperparameters: the logistic prior's scale tau, LPM's
# prior exponent k and BAMS's point-mass weight alpha.
LOGISTIC_TAU = 1.0
LPM_K = 1.0
BAMS_ALPHA = 0.8

# The number of coefficients `shrink_pyramid` aims to hand to one rule call:
# it splits the detail rows into round(coefficients / _BLOCK_COEFFICIENTS)
# blocks of equal row counts that cross level boundaries, 1 of 504 rows at
# M = 512 and 2 of 508 rows at M = 1024 (I = 50).  With two of `run_study`'s
# worker threads, half this size made each numpy pass about 5 us, about what
# handing the interpreter lock to the other worker costs.  Together with the
# heap kept by `decomposition._keep_freed_heap`, this size gave study 3 at
# M = 1024 18% more replicates per second on two CPUs (BENCH_30.json).  One
# block per pyramid raised its peak RSS from 67.1-67.5 to 71.3-71.5 MiB (+6%).
_BLOCK_COEFFICIENTS = 25600

# Largest number of grid values `_prior_scale_sums` holds at once: 256 KiB,
# which stays in L2 cache.  It bounds the prior-scale sums only; the table
# bounds the Gauss-Hermite grid below sigma = 2 tau.
_GRID_VALUES = 32768

# Past this magnitude d * d or sigma * sigma may overflow, and below its
# inverse both may underflow; `_downscaled` divides such coefficients, and
# sigma, by _UPSCALE or by its inverse (all powers of two).
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

    J0: int = DEFAULT_J0

    def __post_init__(self):
        check_integer("J0", self.J0)


def check_integer(name: str, value, low: int = 0) -> None:
    """Reject ``value`` unless it is an int >= low (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def check_real(name: str, value, low: float = 0.0, high: float = np.inf,
               closed: bool = False) -> None:
    """Reject ``value`` unless it is a finite real number below ``high`` and
    above ``low``, or equal to ``low`` when ``closed``.  None, a bool, a
    string, an array, NaN, +-inf and an int past the float range are."""
    # a numpy scalar compares as a Python number: a float32 or float16 would
    # cast the bound sys.float_info.max down to its own type, which overflows
    number = value.item() if isinstance(value, np.generic) else value
    if (isinstance(number, bool) or not isinstance(number, numbers.Real)
            or not (low <= number if closed else low < number)
            or not number < high or abs(number) > sys.float_info.max):
        raise ValueError(f"{name} must be finite and in {'[' if closed else '('}{low:g}, "
                         f"{high:g}), got {value!r}")


@dataclass(frozen=True)
class RuleSpec:
    """The spec of a shrinkage rule, one subclass per rule, whose one field
    is the noise sd.

    ``sigma=None`` marks it as to-be-estimated (`resolve_rule`); rule
    evaluation requires a resolved spec.  sigma = 0 is admitted only by Lpm
    and Abe, which are then the identity, as the noise-free recovery paths
    rely on.
    """

    sigma: Optional[float] = None

    def __post_init__(self):
        if self.sigma is not None:
            check_real("sigma", self.sigma, closed=isinstance(self, (Lpm, Abe)))


class Logistic(RuleSpec):
    """Point mass at zero mixed with a logistic prior of scale LOGISTIC_TAU.
    The mixture weight is not a field: `logistic_rule` takes p, and
    `shrink_pyramid` uses the level's p(j)."""


class Beta(RuleSpec):
    """Point mass at zero mixed with a beta prior of shape a = 2 on [-m, m],
    the density 3 (m^2 - theta^2) / (4 m^3).  p and m are not fields:
    `beta_rule` takes them, and `shrink_pyramid` uses the level's p(j) and
    m(j)."""


class Lpm(RuleSpec):
    """Large Posterior Mode thresholding with prior exponent LPM_K."""


class Abe(RuleSpec):
    """Amplitude-scale invariant Bayes Estimator; only needs the noise sd."""


class Bams(RuleSpec):
    """Point mass of weight BAMS_ALPHA mixed with a double-exponential prior
    of scale tau = 3 sigma, with an exponential prior of mean 1 / mu =
    sigma^2 on the noise variance."""


# ---------------------------------------------------------------------------
# noise scale
# ---------------------------------------------------------------------------

def estimate_sigma(finest_details: np.ndarray):
    """Robust noise-sd estimate: median(|d|) / 0.6745 over the finest-level
    detail coefficients (Donoho and Johnstone, 1994).

    A vector gives a float; a (rows x I) level slice gives one estimate per
    column.  The median has the bits of ``np.median(np.abs(d), axis=0)``:
    the middle value, or the mean of the middle pair, of each column sorted
    as a contiguous row (numpy's vectorised sort, several times faster than
    the median's selection along the strided axis), and NaN for a column
    holding NaN.  Only where the pair's sum a + b overflows, and np.median
    gives inf, is the mean a/2 + b/2 instead, which is finite.
    """
    d = np.asarray(finest_details, dtype=float)
    if d.size == 0:
        raise ValueError("cannot estimate sigma from an empty coefficient vector")
    rows = np.abs(np.moveaxis(d, 0, -1), order="C")
    rows.sort()
    half = rows.shape[-1] // 2
    if rows.shape[-1] % 2:
        median = rows[..., half]
    else:
        a, b = rows[..., half - 1], rows[..., half]
        with np.errstate(over="ignore"):  # where a + b overflows, a/2 + b/2 does not
            median = np.where(np.isinf(a + b), a / 2.0 + b / 2.0, (a + b) / 2.0)
    largest = rows[..., -1]  # NaN sorts last
    return np.where(np.isnan(largest), largest, median)[()] / MAD_TO_SIGMA


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


def _as_array(d):
    arr = np.asarray(d, dtype=float)
    return arr, arr.ndim == 0


def _sigma(spec: RuleSpec):
    if spec.sigma is None:
        raise ValueError(f"{type(spec).__name__} spec has no sigma; set it, or call "
                         f"resolve_rule for a sigma from the data")
    return spec.sigma


# ---------------------------------------------------------------------------
# the logistic table
# ---------------------------------------------------------------------------

class _LogisticTable(NamedTuple):
    """Piecewise polynomials in a = |d| of the two functions that carry the
    logistic rule's integrals at one sigma, with tau = LOGISTIC_TAU.

    With Z(a) = int g(theta) phi_sigma(a - theta) dtheta and
    N(a) = int theta g(theta) phi_sigma(a - theta) dtheta, the table holds
    ell(a) = log(tau Z(a) e^(a / tau)) and R(a) = N(a) / (a Z(a)) as degree
    _CHEB_DEGREE polynomials in t in [-1, 1] on panels [k h, (k + 1) h].
    ``coef`` column k holds panel k: the coefficients of the powers of t for
    ell, then those for R.  From ``cutoff`` on, the exact asymptotes
    ell = sigma^2 / (2 tau^2) and R = 1 - sigma^2 / (tau a) hold.
    """

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
    """(ell, R) at a > 0 from the factorised Gauss-Hermite sums, taken on one
    (points x nodes) grid.

    With u_i, w_i the nodes and weights, c_i = e^(-sigma u_i / tau) and
    F = e^(-a / tau), tau Z e^(a / tau) = sum_i w_i c_i k(F c_i) and
    tau S1 e^(a / tau) = sum_i w_i u_i c_i k(F c_i), where k = `_logistic_pdf`
    and N = a Z + sigma S1.
    """
    u, w = nodes
    c = np.exp(-(sigma / tau) * u)
    grid = np.multiply.outer(np.exp(-a / tau), c)
    z, s1 = (_logistic_pdf(grid, out=grid) @ np.stack([w * c, w * u * c], axis=1)).T
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
    from scipy.special import erfcx, log_ndtr  # only this path of `log` needs them

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
    """The `_LogisticTable` of ``spec``'s sigma for |d| <= ``top``.

    Panels are max(tau, sigma / 2) / 4 wide and cover [0, min(top, cutoff)].
    The cutoff is where the sums reach their asymptotes to double precision:
    F c_i < 2^-53 on every Gauss-Hermite node, or for sigma > 2 tau
    Phi(z_i) = 1 and phi(z_i) = 0 on every node of the prior-scale rule.
    More than _TABLE_PANELS panels, or a sigma whose square underflows, are
    refused before any is built.
    """
    tau = LOGISTIC_TAU
    sigma = float(_sigma(spec))
    if sigma * sigma < sys.float_info.min:
        raise ValueError(f"logistic_rule: sigma^2 underflows at sigma = {sigma:.3g}; "
                         f"rescale the data or use a scale-free rule")
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
    return _LogisticTable(sigma, 2.0 / width, panels - 1, cutoff, coef)


def _point_mass_log(p: float, table: _LogisticTable) -> float:
    """log K, K = p / (1 - p) * tau / (sigma sqrt(2 pi)), the point mass's
    weight in `_logistic_from_table`; -inf where K is 0: at p = 0, or where
    K underflows and the point mass's share K e^x is far below rounding."""
    k = p / (1.0 - p) * LOGISTIC_TAU / (table.sigma * _SQRT_2PI)
    return np.log(k) if k > 0.0 else -np.inf


def _logistic_from_table(arr, log_k, table: _LogisticTable):
    """The logistic rule at the coefficients ``arr`` from the table.

    delta = sign(d) a R(a) / (1 + K e^x), with x = a / tau - a^2 / (2 sigma^2)
    - ell(a) and ``log_k`` = log K from `_point_mass_log`, a scalar or one
    value per row of ``arr``: K e^x is the point mass's share p phi_sigma(a)
    over (1 - p) Z(a).  A row whose log K is -inf gets e^x = 0 exactly, so
    its ratio is divided by exactly 1.  The terms are evaluated in place, in
    five arrays of ``arr``'s shape and one of its panel indices.
    """
    tau, sigma, cutoff = LOGISTIC_TAU, table.sigma, table.cutoff
    a = np.abs(arr)
    beyond = a >= cutoff
    t = np.fmin(a, cutoff)
    t *= table.scale  # in half panels
    ell, ratio, x = np.empty_like(t), np.empty_like(t), np.empty_like(t)
    panel = np.multiply(t, 0.5, out=x).astype(np.intp)
    np.minimum(panel, table.last, out=panel)
    np.multiply(panel, 2.0, out=x)
    x += 1.0
    t -= x

    def horner(coef, value, gathered):
        # one polynomial at every coefficient, its panel's powers gathered one
        # at a time (panel is in [0, last])
        coef[_CHEB_DEGREE].take(panel, mode="clip", out=value)
        for j in range(_CHEB_DEGREE - 1, -1, -1):
            value *= t
            value += coef[j].take(panel, mode="clip", out=gathered)

    horner(table.coef[:_CHEB_DEGREE + 1], ell, ratio)
    horner(table.coef[_CHEB_DEGREE + 1:], ratio, x)
    if np.any(beyond):
        np.copyto(ell, sigma * sigma / (2.0 * tau * tau), where=beyond)
        # R = 1 - sigma^2 / (tau a), with a >= cutoff where it is taken
        edge = np.fmax(a, cutoff, out=t)
        edge *= tau
        np.divide(sigma * sigma, edge, out=edge)
        np.subtract(1.0, edge, out=edge)
        np.copyto(ratio, edge, where=beyond)
    ratio *= a
    # past cutoff + 40 sigma, e^x < e^-800 K: the point mass has no weight
    np.fmin(a, cutoff + 40.0 * sigma, out=x)
    factor = np.divide(x, 2.0 * sigma * sigma, out=t)
    np.subtract(1.0 / tau, factor, out=factor)
    x *= factor
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
    call, over sigma and every |d| of the input, as piecewise
    polynomials in a and combined with p only in the final ratio
    (`_logistic_from_table`).  The table's source sums use a 64-node
    Gauss-Hermite rule while sigma <= 2 tau and a rule on the prior's scale
    beyond.  The rule is odd, and |result| <= |d|.
    """
    check_real("p", p, 0.0, 1.0, closed=True)
    arr, scalar = _as_array(d)
    table = _logistic_table(spec, float(np.max(np.abs(arr), initial=0.0)))
    out = _logistic_from_table(arr.reshape(-1) if scalar else arr,
                               _point_mass_log(p, table), table)
    return float(out[0]) if scalar else out


def _beta_two(c, w, p):
    """|delta| / sigma of the beta rule at shape a = 2, from c = |d| / sigma,
    w = m / sigma and the mixture weight p.

    With theta = sigma (c + u) the prior kernel m^2 - theta^2 is sigma^2 times
    a quadratic in u, so the prior integrals are sums of the truncated normal
    moments int u^k phi(u) du, k <= 3, over [-w - c, w - c].  With
    G = sqrt(2 pi) [Phi(w - c) - Phi(-w - c)], P = e^(-(w + c)^2 / 2) and
    H = e^(-(w - c)^2 / 2) they collapse to three terms:

        s0 = ((w - c)(w + c) - 1) G + (w - c) P + (w + c) H
        num = c s0 - 2 (c G + P - H)
        |delta| / sigma = num / (s0 + r e^(-c^2 / 2)),  r = p / (1 - p) (4 / 3) w^3,

    where s0 and num are sqrt(2 pi) (4 / 3) w^3 times sigma Z and N, and
    r e^(-c^2 / 2) is the point mass's share on that scale, with r exactly 0
    at p = 0, whatever w.  The denominator is positive wherever `beta_rule`
    uses this form; s0 is never -0, so an r of 0 leaves it bit for bit.

    ``c`` and ``w`` are arrays of one shape, which this overwrites, and p a
    scalar or an array broadcasting against them.  The terms are evaluated
    in place, in four more arrays of that shape: w - c and w + c are taken
    afresh from w and c where a live copy would need a fifth.
    """
    from scipy.special import ndtr  # loaded by the first call, not by `import wavecal`

    hi = np.subtract(w, c)
    sm = np.add(w, c)
    g = ndtr(hi)
    t = np.negative(sm)
    g -= ndtr(t, out=t)
    g *= _SQRT_2PI
    # s0 = ((w - c)(w + c) - 1) G; from here on g holds c G
    s0 = np.multiply(hi, sm, out=hi)
    s0 -= 1.0
    s0 *= g
    g *= c
    big_p = np.multiply(sm, sm, out=sm)
    big_p *= -0.5
    np.exp(big_p, out=big_p)
    term = np.subtract(w, c, out=t)
    term *= big_p
    s0 += term
    big_h = np.subtract(w, c, out=term)
    np.multiply(big_h, big_h, out=big_h)
    big_h *= -0.5
    np.exp(big_h, out=big_h)
    big_p -= big_h
    g += big_p
    g *= 2.0
    term = np.add(w, c, out=big_p)
    term *= big_h
    s0 += term
    num = np.multiply(c, s0, out=term)
    num -= g
    np.copyto(w, 0.0, where=np.equal(p, 0.0))  # no w^3 to overflow where r is 0
    r = np.power(w, 3, out=w)
    r *= p / (1.0 - p) * (4.0 / 3.0)
    den = np.multiply(c, c, out=c)
    den *= -0.5
    np.exp(den, out=den)
    den *= r
    s0 += den
    num /= s0
    return num


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


def _beta_kernel(arr, p, w, sigma: float):
    """The beta rule at the coefficients ``arr`` from resolved values: the
    mixture weight p, a scalar or an array broadcasting against ``arr``,
    w = m / sigma, an array of ``arr``'s shape that the kernel overwrites,
    and the scalar sigma.  Every coefficient's result is its own: the closed
    form and the series are elementwise, whatever else is in ``arr``."""
    c = np.abs(arr)
    c /= sigma
    narrow = w < 0.3
    if not np.any(narrow):
        out = _beta_two(c, w, p)
    else:
        p = np.broadcast_to(p, c.shape)
        wide = ~narrow
        out = np.empty(c.shape)
        out[wide] = _beta_two(c[wide], w[wide], p[wide])
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
    sigma = _sigma(spec)
    check_real("p", p, 0.0, 1.0, closed=True)
    check_real("m", m)
    arr, scalar = _as_array(d)
    arr = arr.reshape(-1) if scalar else arr
    w = m / sigma
    if np.any(np.abs(arr) / sigma > w + _BETA_OUTSIDE):
        raise ValueError(f"beta_rule: coefficients lie more than {_BETA_OUTSIDE:.3g} "
                         f"sigma outside the support [-m, m] of the beta prior")
    out = _beta_kernel(arr, p, np.full(arr.shape, w), sigma)
    return out.item() if scalar else out


def _downscaled(arr, sigma):
    """(d, sigma, factor) with d and sigma divided by ``factor``: _UPSCALE
    where |d| or sigma exceeds _SQUARE_LIMIT, 1 / _UPSCALE where both are
    below 1 / _SQUARE_LIMIT, else 1.  Both rules below are homogeneous of
    degree one in (d, sigma) and power-of-two scaling is exact, so
    multiplying a rule's result by ``factor`` changes no bit except where
    d * d or sigma * sigma would have over- or underflowed."""
    # two reductions settle the common case; NaN fails them and takes the mask
    if (arr.max(initial=0.0) <= _SQUARE_LIMIT and arr.min(initial=0.0) >= -_SQUARE_LIMIT
            and 1.0 / _SQUARE_LIMIT <= sigma <= _SQUARE_LIMIT):
        return arr, sigma, 1.0
    big = np.maximum(np.abs(arr), sigma)
    factor = np.where(big > _SQUARE_LIMIT, _UPSCALE,
                      np.where(big < 1.0 / _SQUARE_LIMIT, 1.0 / _UPSCALE, 1.0))
    return arr / factor, sigma / factor, factor


def lpm_rule(d, spec: Lpm):
    """Large Posterior Mode thresholding: zero below lambda = 2 sigma
    sqrt(2k-1), k = LPM_K, else the larger posterior mode (closed interval
    at lambda)."""
    arr, scalar = _as_array(d)
    arr, sigma, factor = _downscaled(arr.reshape(-1) if scalar else arr, _sigma(spec))
    disc = np.multiply(arr, arr)  # d^2 - lambda^2, in place
    disc -= 4.0 * sigma * sigma * (2.0 * LPM_K - 1.0)
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
    arr, sigma, factor = _downscaled(arr, _sigma(spec))
    excess = arr * arr
    excess -= 3.0 * sigma * sigma
    keep = excess > 0.0  # implies d != 0
    # divide only where kept: excess / d overflows for a subnormal d
    out = np.divide(excess, arr, out=np.zeros_like(excess), where=keep)
    if isinstance(factor, np.ndarray):  # a float factor is 1.0
        out *= factor
    return float(out) if scalar else out


def bams_rule(d, spec: Bams):
    """BAMS posterior mean under the point-mass + double-exponential prior.

    The prior scale is tau = 3 sigma and the noise precision mu =
    1 / sigma^2.  With s = 1/sqrt(2 mu) the marginal noise is DE(0, s), and
    as tau / s = 3 sqrt(2) > 1,

        delta(d) = [tau (tau^2-s^2) d e^{-|d|/tau}
                    + 2 s^2 tau^2 sgn(d) (e^{-|d|/s} - e^{-|d|/tau})]
                   / [(tau^2-s^2) (tau e^{-|d|/tau} - s e^{-|d|/s})]

        bams(d) = (1-alpha) m(d) delta(d)
                  / [(1-alpha) m(d) + alpha DE(d; 0, s)],  alpha = BAMS_ALPHA,

    where m(d) is the convolution of the two double exponentials.  The
    common exponential factor is cancelled analytically so the evaluation
    never under- or overflows for large |d|.  The terms are evaluated in
    place, in three whole-array buffers.
    """
    sigma = float(_sigma(spec))
    tau, mu = 3.0 * sigma, 1.0 / sigma ** 2
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
    num = np.subtract(r, 1.0)  # r_s - r_tau
    term *= num
    np.multiply(arr, tau * tqdiff, out=num)
    num += term
    # delta = num / (spread tqdiff), spread = tau r_tau - s r_s, taken twice
    # from r: a kept copy would be a fourth buffer
    spread = np.multiply(r, s, out=term)
    np.subtract(tau, spread, out=spread)
    spread *= tqdiff
    num /= spread
    weight = np.multiply(r, s, out=term)
    np.subtract(tau, weight, out=weight)
    weight /= 2.0 * tqdiff                        # the marginal m(d)
    weight *= 1.0 - BAMS_ALPHA
    num *= weight
    noise = r                                     # alpha r_s / (2 s)
    noise /= 2.0 * s
    noise *= BAMS_ALPHA
    weight += noise
    num /= weight
    return num.item() if scalar else num


RULES: dict[str, type] = {"log": Logistic, "beta": Beta, "lpm": Lpm, "abe": Abe,
                          "bams": Bams}

# The rules that `shrink_pyramid` gives the level policy's p(j) (and beta m(j)).
POLICY_RULES = ("log", "beta")

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
    return 1.0 - (j - J0 + 1) ** (-POLICY_GAMMA)


def shrink_pyramid(pyr: Pyramid, rule: RuleSpec,
                   policy: Optional[LevelPolicy] = None) -> Pyramid:
    """Apply a shrinkage rule to every detail coefficient of a pyramid.

    The result is a new pyramid over one new flat matrix, whose coarse rows
    are copied unchanged; ``pyr`` is only read.  The rule runs on row blocks
    of the whole detail matrix that cross level boundaries, of equal row
    counts and about _BLOCK_COEFFICIENTS coefficients each (one row when a
    row is longer); the columns of a 2-D pyramid are independent signals,
    and every rule's result at a coefficient does not depend on its block.
    For Logistic and Beta the mixture weight p(j) = 1 - (j - J0 + 1)^(-gamma)
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
    if isinstance(rule, tuple(RULES[name] for name in POLICY_RULES)):
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
            sigma = _sigma(rule)
            per_level = (np.reshape(p, column), np.where(live, peaks, 1.0) / sigma)
            fixed = (sigma,)

    out = np.empty_like(pyr.flat)
    out[:first] = pyr.flat[:first]
    shrunk = out[first:]
    level = np.repeat(np.arange(len(levels)), [2 ** j for j in levels])  # of each row
    count = min(len(details), max(1, round(details.size / _BLOCK_COEFFICIENTS)))
    for k in range(count):
        block = slice(k * len(details) // count, (k + 1) * len(details) // count)
        shrunk[block] = evaluate(details[block],
                                 *(v.take(level[block], axis=0) for v in per_level), *fixed)
    if live is not None and not live.all():
        np.copyto(shrunk, 0.0, where=~live.take(level, axis=0))
    return Pyramid(out, pyr.J0)


# ---------------------------------------------------------------------------
# resolution of data-dependent hyperparameters
# ---------------------------------------------------------------------------

def resolve_rule(spec: RuleSpec, sigma) -> RuleSpec:
    """Fill a rule spec's noise sd from the data: sigma, a float, unless the
    spec carries its own.  BAMS's tau = 3 sigma and mu = 1/sigma^2 follow
    from it in `bams_rule`: the prior mean of the noise variance (1/mu under
    this parameterization) matches the plug-in sigma^2.  The level-dependent
    p(j) and m(j) of Logistic and Beta are `shrink_pyramid`'s.
    """
    _rule_function(spec)  # rejects a spec type not in RULES
    return spec if spec.sigma is not None else type(spec)(sigma)


def rule_defaults() -> dict[str, dict[str, object]]:
    """Each named rule's hyperparameters, for reporting: the fixed values
    and a description of each value the pipeline resolves from the data."""
    policy = "p(j) = 1 - (j - J0 + 1)^-gamma"
    return {
        "log": {"tau": LOGISTIC_TAU, "sigma": "estimated", "policy": policy},
        "beta": {"a": 2.0, "m": "max_k |d_jk|", "sigma": "estimated",
                 "policy": f"{policy}, m(j) = max_k |d_jk|"},
        "lpm": {"k": LPM_K, "sigma": "estimated", "threshold": "2 sigma sqrt(2k - 1)"},
        "abe": {"sigma": "estimated", "threshold": "sqrt(3) sigma"},
        "bams": {"alpha": BAMS_ALPHA, "tau": "3 * sigma_hat", "mu": "1 / sigma_hat^2"},
    }

"""Independent references for the shrinkage rules: the prior densities and
the dense-quadrature posterior means of the logistic, beta and BAMS rules,
evaluated without the library's code paths.

Each posterior mean takes a scalar or an array of coefficients d and returns
the same shape.  It evaluates its quadrature grid for a chunk of d at a time,
at most `CHUNK_VALUES` grid values per chunk, so that a fine grid stays small
in memory.
"""

import numpy as np

SQRT_2PI = np.sqrt(2.0 * np.pi)

CHUNK_VALUES = 2 ** 21


def phi(x):
    return np.exp(-0.5 * np.asarray(x) ** 2) / SQRT_2PI


def logistic_pdf(x, tau):
    e = np.exp(-np.abs(x) / tau)
    return e / (tau * (1.0 + e) ** 2)


def beta_pdf(t, m):
    # the beta density of shape a = 2 on [-m, m]
    return 3.0 * (m * m - t * t) / (4.0 * m ** 3)


def laplace_pdf(x, scale):
    return np.exp(-np.abs(x) / scale) / (2.0 * scale)


def _by_chunks(d, grid_values, mean):
    """``mean`` of every value of ``d``, handed to it as a column of at most
    CHUNK_VALUES // grid_values rows at a time."""
    d = np.asarray(d, dtype=float)
    flat = d.reshape(-1)
    out = np.empty_like(flat)
    rows = max(1, CHUNK_VALUES // grid_values)
    for lo in range(0, flat.size, rows):
        out[lo: lo + rows] = mean(flat[lo: lo + rows, None])
    return out.reshape(d.shape)[()]  # [()] gives a scalar d a scalar


def logistic_oracle(d, p, tau, sigma, panels=10 ** 6, lim=12.0):
    """Dense-trapezoid evaluation of the logistic posterior mean, on
    u = (theta - d) / sigma in [-lim, lim]."""
    u = np.linspace(-lim, lim, panels + 1)
    f = phi(u)

    def mean(d):
        theta = sigma * u + d
        g = logistic_pdf(theta, tau)
        num = (1 - p) * np.trapezoid(theta * g * f, u, axis=1)
        den = (p / sigma) * phi(d[:, 0] / sigma) + (1 - p) * np.trapezoid(g * f, u, axis=1)
        return num / den

    return _by_chunks(d, u.size, mean)


def beta_oracle(d, p, m, sigma, panels=200_000):
    """Dense-trapezoid evaluation of the beta posterior mean on [-m, m]."""
    t = np.linspace(-m, m, panels + 1)
    g = beta_pdf(t, m)

    def mean(d):
        lik = phi((d - t) / sigma) / sigma
        num = (1 - p) * np.trapezoid(t * g * lik, t, axis=1)
        den = p * phi(d[:, 0] / sigma) / sigma + (1 - p) * np.trapezoid(g * lik, t, axis=1)
        return num / den

    return _by_chunks(d, t.size, mean)


def bams_oracle(d, alpha, tau, mu, nodes=200):
    """Piecewise Gauss-Legendre quadrature of the BAMS posterior mean.

    Independent of the closed form: integrates theta against the
    double-exponential prior times the double-exponential marginal noise
    (scale 1/sqrt(2 mu)), on three pieces split at the integrand kinks
    theta = 0 and theta = d.
    """
    s = 1.0 / np.sqrt(2.0 * mu)
    span = 60.0 * max(tau, s, 1.0)
    x, w = np.polynomial.legendre.leggauss(nodes)

    def mean(d):
        kinks = np.minimum(d, 0.0), np.maximum(d, 0.0)
        num = den = 0.0
        for lo, hi in zip((-span, *kinks), (*kinks, span)):
            t = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
            wt = 0.5 * (hi - lo) * w
            f = laplace_pdf(t, tau) * laplace_pdf(d - t, s)
            num = num + np.sum(wt * t * f, axis=1)
            den = den + np.sum(wt * f, axis=1)
        return (1 - alpha) * num / ((1 - alpha) * den + alpha * laplace_pdf(d[:, 0], s))

    return _by_chunks(d, 3 * nodes, mean)

"""Shrinkage rules against independent oracles, plus the property suite."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import beta as beta_function, ndtr

from wavecal import shrinkage
from wavecal.shrinkage import (
    Abe,
    Bams,
    Beta,
    LevelPolicy,
    Logistic,
    Lpm,
    QuadratureSpec,
    ShrinkageUnderflowWarning,
    abe_rule,
    av_policy,
    bams_rule,
    beta_rule,
    estimate_sigma,
    logistic_rule,
    lpm_rule,
    resolve_rule,
    shrink_pyramid,
)
from wavecal.wavelet import Pyramid

SQRT_2PI = np.sqrt(2.0 * np.pi)

# frozen dense-trapezoid value (1e6 panels on u in [-12, 12]) for
# d=2, p=0.9, tau=1, sigma=1
LOGISTIC_SPOT = 0.27789667054691214
# frozen quadrature-oracle value for d=2, alpha=0.5, tau=2, mu=1
BAMS_SPOT = 1.1339149425426418

ALL_RULES = tuple(shrinkage.RULES)


# ---------------------------------------------------------------------------
# independent oracles (library-free evaluation paths)
# ---------------------------------------------------------------------------

def phi(x):
    return np.exp(-0.5 * np.asarray(x) ** 2) / SQRT_2PI


def logistic_pdf(x, tau):
    e = np.exp(-np.abs(x) / tau)
    return e / (tau * (1.0 + e) ** 2)


def logistic_oracle(d, p, tau, sigma, panels=10 ** 6, lim=12.0):
    """Dense-trapezoid evaluation of the logistic posterior mean."""
    u = np.linspace(-lim, lim, panels + 1)
    g = logistic_pdf(sigma * u + d, tau)
    f = phi(u)
    num = (1 - p) * np.trapezoid((sigma * u + d) * g * f, u)
    den = (p / sigma) * phi(d / sigma) + (1 - p) * np.trapezoid(g * f, u)
    return num / den


def beta_pdf(t, a, m):
    return (m * m - t * t) ** (a - 1) / ((2 * m) ** (2 * a - 1) * beta_function(a, a))


def beta_oracle(d, p, a, m, sigma, panels=200_000):
    """Dense-trapezoid evaluation of the beta posterior mean on [-m, m]."""
    t = np.linspace(-m, m, panels + 1)
    g = beta_pdf(t, a, m)
    lik = phi((d - t) / sigma) / sigma
    num = (1 - p) * np.trapezoid(t * g * lik, t)
    den = p * phi(d / sigma) / sigma + (1 - p) * np.trapezoid(g * lik, t)
    return num / den


def truncated_normal_mean(d, m, sigma):
    """Closed-form posterior mean for a uniform prior on [-m, m] (beta a=1, p=0)."""
    lo, hi = (-m - d) / sigma, (m - d) / sigma
    return d + sigma * (phi(lo) - phi(hi)) / (ndtr(hi) - ndtr(lo))


def laplace_pdf(x, scale):
    return np.exp(-np.abs(x) / scale) / (2.0 * scale)


def bams_oracle(d, alpha, tau, mu):
    """Piecewise Gauss-Legendre quadrature of the BAMS posterior mean.

    Independent of the closed form: integrates theta against the
    double-exponential prior times the double-exponential marginal noise
    (scale 1/sqrt(2 mu)), splitting at the integrand kinks theta = 0 and
    theta = d.
    """
    s = 1.0 / np.sqrt(2.0 * mu)
    span = 60.0 * max(tau, s, 1.0)
    breaks = sorted({-span, 0.0, float(d), span})
    x, w = np.polynomial.legendre.leggauss(200)
    num = den = 0.0
    for lo, hi in zip(breaks, breaks[1:]):
        t = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        wt = 0.5 * (hi - lo) * w
        f = laplace_pdf(t, tau) * laplace_pdf(d - t, s)
        num += wt @ (t * f)
        den += wt @ f
    delta = num / den
    marginal = den
    return (1 - alpha) * marginal * delta / ((1 - alpha) * marginal
                                             + alpha * laplace_pdf(d, s))


# ---------------------------------------------------------------------------
# sigma estimation
# ---------------------------------------------------------------------------

class TestEstimateSigma:
    def test_calibrated_vector(self):
        assert estimate_sigma([0.6745, -0.6745, 0.6745, 0.6745]) == pytest.approx(1.0, abs=1e-12)

    def test_all_zero(self):
        assert estimate_sigma(np.zeros(16)) == 0.0

    def test_odd_length_median(self):
        assert estimate_sigma([1.349, -1.349, 1.349]) == pytest.approx(2.0, abs=1e-12)

    def test_even_length_median_averages(self):
        # |d| = [1, 2, 3, 4] -> median 2.5
        assert estimate_sigma([1.0, -2.0, 3.0, -4.0]) == pytest.approx(2.5 / 0.6745)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_sigma(np.array([]))

    def test_matrix_gives_one_estimate_per_column(self):
        rng = np.random.default_rng(5)
        d = rng.standard_normal((64, 7)) * np.arange(1, 8)
        got = estimate_sigma(d)
        assert got.shape == (7,)
        np.testing.assert_array_equal(got, [estimate_sigma(d[:, i]) for i in range(7)])


# ---------------------------------------------------------------------------
# logistic rule
# ---------------------------------------------------------------------------

class TestLogisticRule:
    def test_zero_maps_to_zero(self):
        for p, tau, s in [(0.5, 1.0, 1.0), (0.9, 2.0, 0.5)]:
            assert logistic_rule(0.0, Logistic(p=p, tau=tau, sigma=s)) == pytest.approx(0.0, abs=1e-15)

    def test_point_mass_limit(self):
        spec = Logistic(p=1 - 1e-12, tau=1.0, sigma=1.0)
        assert abs(logistic_rule(1.0, spec)) < 1e-6

    def test_matches_dense_trapezoid_spot(self):
        spec = Logistic(p=0.9, tau=1.0, sigma=1.0)
        v = logistic_rule(2.0, spec)
        assert v == pytest.approx(LOGISTIC_SPOT, abs=1e-6)
        assert v == pytest.approx(logistic_oracle(2.0, 0.9, 1.0, 1.0), abs=1e-6)

    def test_strictly_between_zero_and_d(self):
        spec = Logistic(p=0.9, tau=1.0, sigma=1.0)
        for d in (0.5, 1.0, 3.0, 8.0):
            v = logistic_rule(d, spec)
            assert 0.0 < v < d
            assert -d < logistic_rule(-d, spec) < 0.0

    def test_underflow_returns_zero_with_flag(self):
        spec = Logistic(p=0.9, tau=1.0, sigma=1.0)
        with pytest.warns(ShrinkageUnderflowWarning):
            assert logistic_rule(1e6, spec) == 0.0

    def test_vectorized_matches_scalar(self):
        spec = Logistic(p=0.8, tau=1.5, sigma=0.7)
        d = np.linspace(-4, 4, 9)
        np.testing.assert_allclose(logistic_rule(d, spec),
                                   [logistic_rule(v, spec) for v in d],
                                   rtol=0, atol=1e-12)

    def test_requires_gauss_hermite_kind(self):
        quad = QuadratureSpec.gauss_legendre_interval(16)
        with pytest.raises(ValueError):
            logistic_rule(1.0, Logistic(sigma=1.0), quad)

    def test_unresolved_sigma_rejected(self):
        with pytest.raises(ValueError):
            logistic_rule(1.0, Logistic())


# ---------------------------------------------------------------------------
# beta rule
# ---------------------------------------------------------------------------

class TestBetaRule:
    def test_zero_maps_to_zero(self):
        assert beta_rule(0.0, Beta(p=0.5, a=2.0, m=5.0, sigma=1.0)) == pytest.approx(0.0, abs=1e-15)

    def test_point_mass_limit(self):
        spec = Beta(p=1 - 1e-12, a=2.0, m=5.0, sigma=1.0)
        for d in (0.5, 2.0):
            assert abs(beta_rule(d, spec)) < 1e-6

    def test_uniform_prior_closed_form(self):
        # a=1 reduces the prior to uniform on [-m, m]; posterior is a
        # truncated normal with closed-form mean
        spec = Beta(p=0.0, a=1.0, m=10.0, sigma=1.0)
        got = beta_rule(1.0, spec)
        assert got == pytest.approx(truncated_normal_mean(1.0, 10.0, 1.0), abs=1e-8)

    def test_matches_trapezoid_oracle(self):
        spec = Beta(p=0.9, a=2.0, m=5.0, sigma=1.0)
        for d in (0.5, 2.0, 4.0, 9.0):
            assert beta_rule(d, spec) == pytest.approx(
                beta_oracle(d, 0.9, 2.0, 5.0, 1.0), abs=1e-8)

    def test_wide_support_matches_trapezoid_oracle(self):
        # m / sigma = 100: 128 fixed Gauss-Legendre nodes on [-m, m] are far
        # coarser than the likelihood (errors up to 0.1 here); the closed form
        # is exact up to round-off
        spec = Beta(p=0.9, a=2.0, m=100.0, sigma=1.0)
        for d in (0.5, 3.0, 40.0, 97.0):
            assert beta_rule(d, spec) == pytest.approx(
                beta_oracle(d, 0.9, 2.0, 100.0, 1.0), abs=1e-8)

    def test_far_outside_support(self):
        # d = -(m + 6 sigma) puts both standardized endpoints in the upper
        # tail, where Phi(hi) - Phi(lo) cancels; d = m + 6 sigma is its mirror
        m, sigma = 5.0, 1.0
        spec = Beta(p=0.9, a=2.0, m=m, sigma=sigma)
        d = m + 6.0 * sigma
        assert beta_rule(-d, spec) == pytest.approx(-beta_rule(d, spec), abs=1e-12)
        for x in (d, -d):
            assert beta_rule(x, spec) == pytest.approx(
                beta_oracle(x, 0.9, 2.0, m, sigma, panels=2_000_000), abs=1e-8)

    def test_closed_form_matches_quadrature_across_shapes(self):
        # integer shapes, including narrow supports and d far outside the
        # support, where the closed form hands over to quadrature; reference:
        # 2048 Gauss-Legendre nodes, accurate while m / sigma stays moderate
        q2048 = QuadratureSpec.gauss_legendre_interval(2048)
        for a in (1.0, 2.0, 3.0, 5.0, 8.0, 16.0):
            for m in (0.01, 0.3, 1.0, 4.0, 12.0, 25.0):
                spec = Beta(p=0.5, a=a, m=m, sigma=1.0)
                d = np.linspace(-1.5 * m - 4.0, 1.5 * m + 4.0, 41)
                np.testing.assert_allclose(beta_rule(d, spec), beta_rule(d, spec, q2048),
                                           rtol=0, atol=1e-10 * m)

    def test_bounded_by_half_support(self):
        spec = Beta(p=0.1, a=1.5, m=2.0, sigma=1.0)
        for d in np.linspace(-20, 20, 41):
            assert abs(beta_rule(d, spec)) <= 2.0 + 1e-12

    def test_shape_below_one_rejected(self):
        with pytest.raises(ValueError):
            Beta(p=0.5, a=0.5, m=1.0, sigma=1.0)

    def test_unresolved_support_rejected(self):
        with pytest.raises(ValueError):
            beta_rule(1.0, Beta(p=0.5, a=2.0, sigma=1.0))


# ---------------------------------------------------------------------------
# LPM rule
# ---------------------------------------------------------------------------

class TestLpmRule:
    def test_below_threshold(self):
        assert lpm_rule(1.0, Lpm(k=1.0, sigma=1.0)) == 0.0

    def test_larger_mode_value(self):
        assert lpm_rule(3.0, Lpm(k=1.0, sigma=1.0)) == pytest.approx((3 + np.sqrt(5)) / 2, abs=1e-12)

    def test_antisymmetric_value(self):
        assert lpm_rule(-3.0, Lpm(k=1.0, sigma=1.0)) == pytest.approx(-(3 + np.sqrt(5)) / 2, abs=1e-12)

    def test_closed_interval_at_threshold(self):
        spec = Lpm(k=1.0, sigma=1.0)
        assert spec.threshold == pytest.approx(2.0)
        assert lpm_rule(2.0, spec) == pytest.approx(1.0)  # d/2 exactly at lambda
        assert lpm_rule(np.nextafter(2.0, 0.0), spec) == 0.0

    def test_k_must_exceed_half(self):
        with pytest.raises(ValueError):
            Lpm(k=0.5, sigma=1.0)

    def test_sigma_zero_is_identity(self):
        spec = Lpm(k=1.0, sigma=0.0)
        for d in (-2.0, 0.0, 0.3, 5.0):
            assert lpm_rule(d, spec) == pytest.approx(d, abs=0)


# ---------------------------------------------------------------------------
# ABE rule
# ---------------------------------------------------------------------------

class TestAbeRule:
    def test_spot_values(self):
        spec = Abe(sigma=1.0)
        assert abe_rule(2.0, spec) == pytest.approx(0.5, abs=1e-15)
        assert abe_rule(1.0, spec) == 0.0
        assert abe_rule(-3.0, spec) == pytest.approx(-2.0, abs=1e-15)

    def test_zero_at_zero(self):
        assert abe_rule(0.0, Abe(sigma=1.0)) == 0.0
        assert abe_rule(0.0, Abe(sigma=0.0)) == 0.0

    def test_threshold_boundary(self):
        spec = Abe(sigma=1.0)
        root3 = np.sqrt(3.0)
        assert abe_rule(root3, spec) == 0.0
        d = np.nextafter(root3, 10.0)
        assert abe_rule(d, spec) > 0.0

    def test_sigma_zero_is_identity(self):
        spec = Abe(sigma=0.0)
        for d in (-2.0, 0.7, 5.0):
            assert abe_rule(d, spec) == pytest.approx(d, abs=0)


# ---------------------------------------------------------------------------
# BAMS rule
# ---------------------------------------------------------------------------

class TestBamsRule:
    def test_zero_maps_to_zero(self):
        assert bams_rule(0.0, Bams(alpha=0.5, tau=2.0, mu=1.0)) == 0.0

    def test_matches_quadrature_oracle_spot(self):
        got = bams_rule(2.0, Bams(alpha=0.5, tau=2.0, mu=1.0))
        assert got == pytest.approx(BAMS_SPOT, abs=1e-10)
        assert got == pytest.approx(bams_oracle(2.0, 0.5, 2.0, 1.0), abs=1e-10)

    @pytest.mark.parametrize("alpha,tau,mu", [
        (0.5, 2.0, 1.0),
        (0.8, 3.0, 1.0),
        (0.2, 0.8, 4.0),
    ])
    def test_matches_quadrature_oracle_grid(self, alpha, tau, mu):
        spec = Bams(alpha=alpha, tau=tau, mu=mu)
        for d in np.linspace(-10, 10, 41):
            assert bams_rule(float(d), spec) == pytest.approx(
                bams_oracle(float(d), alpha, tau, mu), abs=1e-10)

    def test_vanishing_mixture_weight_gives_pure_de_rule(self):
        # alpha -> 0: the point mass drops out, leaving the double-exponential
        # posterior mean, which the quadrature oracle computes directly
        spec = Bams(alpha=1e-13, tau=2.0, mu=1.0)
        for d in (0.5, 2.0, 6.0):
            pure = bams_oracle(d, 0.0, 2.0, 1.0)
            assert bams_rule(d, spec) == pytest.approx(pure, rel=1e-9)

    def test_large_d_does_not_overflow(self):
        spec = Bams(alpha=0.5, tau=2.0, mu=1.0)
        v = bams_rule(5000.0, spec)
        assert np.isfinite(v)
        assert abs(v) <= 5000.0

    def test_singularity_guard(self):
        # 2 mu tau^2 = 1 is the degenerate manifold of the closed form
        with pytest.raises(ValueError):
            Bams(alpha=0.5, tau=1.0 / np.sqrt(2.0), mu=1.0)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            Bams(alpha=0.0, tau=1.0, mu=1.0)
        with pytest.raises(ValueError):
            Bams(alpha=0.5, tau=-1.0, mu=1.0)


# ---------------------------------------------------------------------------
# level policy
# ---------------------------------------------------------------------------

class TestAvPolicy:
    def test_primary_level_has_no_point_mass(self):
        p, _ = av_policy(3, np.array([1.0]), LevelPolicy(gamma_exponent=2.0, J0=3))
        assert p == 0.0

    def test_next_level(self):
        p, _ = av_policy(4, np.array([1.0]), LevelPolicy(gamma_exponent=2.0, J0=3))
        assert p == pytest.approx(0.75)

    def test_support_is_max_abs(self):
        _, m = av_policy(3, np.array([1.0, -3.0, 2.0]), LevelPolicy(J0=3))
        assert m == 3.0

    def test_out_of_range_level(self):
        with pytest.raises(ValueError):
            av_policy(2, np.array([1.0]), LevelPolicy(J0=3))

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            LevelPolicy(gamma_exponent=0.0)


# ---------------------------------------------------------------------------
# pyramid application
# ---------------------------------------------------------------------------

class TestShrinkPyramid:
    def test_zero_pyramid_stays_zero(self):
        pyr = Pyramid.from_flat(np.zeros(64), 2)
        for rule in (Logistic(sigma=1.0), Beta(m=1.0, sigma=1.0), Lpm(sigma=1.0),
                     Abe(sigma=1.0), Bams(alpha=0.5, tau=2.0, mu=1.0)):
            policy = LevelPolicy(J0=2) if isinstance(rule, (Logistic, Beta)) else None
            out = shrink_pyramid(pyr, rule, policy)
            assert np.max(np.abs(out.to_flat())) == 0.0

    def test_abe_threshold_region_zeroed(self):
        rng = np.random.default_rng(21)
        pyr = Pyramid.from_flat(rng.uniform(-4, 4, size=128), 3)
        out = shrink_pyramid(pyr, Abe(sigma=1.0))
        for d_in, d_out in zip(pyr.details, out.details):
            below = np.abs(d_in) <= np.sqrt(3.0)
            assert np.all(d_out[below] == 0.0)

    def test_single_detail_under_lpm(self):
        flat = np.zeros(64)
        flat[10] = 3.0  # inside the level-3 detail block
        pyr = Pyramid.from_flat(flat, 3)
        out = shrink_pyramid(pyr, Lpm(k=1.0, sigma=1.0))
        got = out.to_flat()
        assert got[10] == pytest.approx(2.618033988, abs=1e-9)
        assert np.all(got[np.arange(64) != 10] == 0.0)

    def test_coarse_passes_through(self):
        rng = np.random.default_rng(22)
        pyr = Pyramid.from_flat(rng.standard_normal(128), 3)
        out = shrink_pyramid(pyr, Abe(sigma=10.0))
        np.testing.assert_array_equal(out.coarse, pyr.coarse)
        assert all(np.all(d == 0.0) for d in out.details)  # all |d| < sqrt(3)*10

    @pytest.mark.parametrize("name", ALL_RULES)
    @pytest.mark.parametrize("use_policy", [False, True])
    @pytest.mark.parametrize("sigma_mode", ["pooled", "per-column"])
    def test_level_slices_match_column_by_column(self, name, use_policy, sigma_mode):
        rng = np.random.default_rng(24)
        flat = rng.standard_normal((128, 6)) * np.array([0.5, 1.0, 2.0, 1.0, 4.0, 0.7])
        flat[:16] *= 20.0  # large coarse-level coefficients, as from a signal
        flat[8:16, 2] = 0.0  # column 2 has an all-zero level j = 3
        pyr = Pyramid.from_flat(flat, 3)
        per_column = estimate_sigma(flat[64:])
        sigma = per_column if sigma_mode == "per-column" else float(np.mean(per_column))
        spec = shrinkage.RULES[name]()
        policy = LevelPolicy(J0=3) if use_policy else None

        got = shrink_pyramid(pyr, resolve_rule(spec, sigma, pyr), policy).to_flat()
        assert got.shape == flat.shape
        for i in range(flat.shape[1]):
            column = Pyramid.from_flat(flat[:, i], 3)
            sigma_i = float(np.broadcast_to(sigma, (6,))[i])
            want = shrink_pyramid(column, resolve_rule(spec, sigma_i, column), policy).to_flat()
            if name in ("lpm", "abe", "bams"):
                np.testing.assert_array_equal(got[:, i], want)
            else:
                np.testing.assert_allclose(got[:, i], want, rtol=1e-12, atol=0)
        if use_policy and name in ("log", "beta"):
            assert np.all(got[8:16, 2] == 0.0)

    def test_bams_per_column_scales_either_side_of_noise_scale(self):
        # s = 1/sqrt(2 mu); columns 0 and 2 have tau < s, columns 1 and 3 tau > s
        tau = np.array([0.5, 3.0, 0.2, 1.5])
        mu = np.array([0.5, 1.0, 2.0, 4.0])
        d = np.random.default_rng(25).uniform(-12.0, 12.0, size=(40, 4))
        got = bams_rule(d, Bams(alpha=0.6, tau=tau, mu=mu))
        for i in range(4):
            np.testing.assert_array_equal(
                got[:, i], bams_rule(d[:, i], Bams(alpha=0.6, tau=tau[i], mu=mu[i])))

    def test_per_column_parameters_validated_elementwise(self):
        with pytest.raises(ValueError):
            Beta(m=np.array([1.0, 0.0]), sigma=1.0)
        with pytest.raises(ValueError):
            Logistic(sigma=np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            Lpm(sigma=np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            Bams(tau=np.array([1.0, 1.0 / np.sqrt(2.0)]), mu=np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            resolve_rule(Bams(), np.array([0.5, 0.0]))

    def test_policy_overrides_mixture_weight(self):
        rng = np.random.default_rng(23)
        pyr = Pyramid.from_flat(rng.standard_normal(64), 2)
        policy = LevelPolicy(gamma_exponent=2.0, J0=2)
        # at the primary level the policy sets p = 0: strictly less shrinkage
        # than the static p = 0.9
        with_policy = shrink_pyramid(pyr, Logistic(p=0.9, tau=1.0, sigma=1.0), policy)
        static = shrink_pyramid(pyr, Logistic(p=0.9, tau=1.0, sigma=1.0))
        d0, p0, s0 = pyr.details[0], with_policy.details[0], static.details[0]
        assert np.all(np.abs(p0) >= np.abs(s0))
        assert not np.allclose(p0, s0)
        assert np.any(np.abs(s0) < np.abs(d0))


# ---------------------------------------------------------------------------
# rule resolution
# ---------------------------------------------------------------------------

class TestResolveRule:
    def test_sigma_plugs_in(self):
        assert resolve_rule(Logistic(), 0.3).sigma == 0.3
        assert resolve_rule(Lpm(), 0.3).sigma == 0.3
        assert resolve_rule(Abe(), 0.3).sigma == 0.3

    def test_explicit_sigma_kept(self):
        assert resolve_rule(Abe(sigma=2.0), 0.3).sigma == 2.0

    def test_beta_support_from_pyramid(self):
        flat = np.zeros(32)
        flat[20] = -7.0
        pyr = Pyramid.from_flat(flat, 2)
        spec = resolve_rule(Beta(), 0.5, pyr)
        assert spec.m == 7.0 and spec.sigma == 0.5

    def test_bams_defaults_from_sigma(self):
        spec = resolve_rule(Bams(), 0.5)
        assert spec.tau == pytest.approx(1.5)
        assert spec.mu == pytest.approx(4.0)
        assert spec.alpha == 0.8

    def test_bams_needs_positive_sigma(self):
        with pytest.raises(ValueError):
            resolve_rule(Bams(), 0.0)


# ---------------------------------------------------------------------------
# property suite
# ---------------------------------------------------------------------------

def _rule_callable(name, sigma=1.0):
    if name == "log":
        return lambda d: logistic_rule(d, Logistic(p=0.9, tau=1.0, sigma=sigma))
    if name == "beta":
        return lambda d: beta_rule(d, Beta(p=0.9, a=2.0, m=10.0 * sigma, sigma=sigma))
    if name == "lpm":
        return lambda d: lpm_rule(d, Lpm(k=1.0, sigma=sigma))
    if name == "abe":
        return lambda d: abe_rule(d, Abe(sigma=sigma))
    return lambda d: bams_rule(d, Bams(alpha=0.8, tau=3.0 * sigma, mu=1.0 / sigma ** 2))



class TestProperties:
    @pytest.mark.parametrize("name", ALL_RULES)
    def test_antisymmetry(self, name):
        rule = _rule_callable(name)
        rng = np.random.default_rng(31)
        for d in rng.uniform(0.0, 10.0, size=50):
            assert rule(-d) == pytest.approx(-rule(d), abs=1e-8)

    @pytest.mark.parametrize("name", ALL_RULES)
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_shrinkage_bound(self, name, sigma):
        rule = _rule_callable(name, sigma)
        for d in np.linspace(-10 * sigma, 10 * sigma, 201):
            assert abs(rule(float(d))) <= abs(d) + 1e-12

    def test_lpm_threshold_region_exact(self):
        spec = Lpm(k=2.0, sigma=1.5)
        lam = 2 * 1.5 * np.sqrt(3.0)
        for d in np.linspace(-3 * lam, 3 * lam, 401):
            v = lpm_rule(float(d), spec)
            if abs(d) < lam:
                assert v == 0.0
            else:
                assert v != 0.0

    def test_abe_threshold_region_exact(self):
        spec = Abe(sigma=1.5)
        bound = np.sqrt(3.0) * 1.5
        for d in np.linspace(-3 * bound, 3 * bound, 401):
            v = abe_rule(float(d), spec)
            if abs(d) <= bound:
                assert v == 0.0
            else:
                assert v != 0.0

    def test_logistic_monotone_in_p(self):
        # heavier point mass shrinks harder
        for d in (0.5, 1.5, 4.0):
            values = [logistic_rule(d, Logistic(p=p, tau=1.0, sigma=1.0))
                      for p in np.linspace(0.05, 0.95, 10)]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_beta_concentration_in_a(self):
        # larger shape concentrates the prior near zero: more shrinkage.
        # Holds for the pure prior everywhere; with a point mass it holds in
        # the large-|d| regime (at small d the concentrated density raises the
        # continuous component's marginal, reducing the point-mass weight).
        for d in (2.0, 3.0, 4.0, 6.0, 8.0):
            values = [abs(beta_rule(d, Beta(p=0.0, a=a, m=8.0, sigma=1.0)))
                      for a in (1.0, 2.0, 4.0, 8.0, 16.0)]
            assert all(b < a for a, b in zip(values, values[1:]))
        for d in (4.0, 6.0):
            values = [abs(beta_rule(d, Beta(p=0.5, a=a, m=8.0, sigma=1.0)))
                      for a in (1.0, 2.0, 4.0, 8.0, 16.0)]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_quadrature_node_doubling_logistic(self):
        q64 = QuadratureSpec.gauss_hermite_standard_normal(64)
        q128 = QuadratureSpec.gauss_hermite_standard_normal(128)
        for p, tau, sigma in [(0.9, 1.0, 1.0), (0.5, 2.0, 1.0), (0.8, 1.5, 0.5)]:
            spec = Logistic(p=p, tau=tau, sigma=sigma)
            for d in np.linspace(-10, 10, 81):
                assert abs(logistic_rule(float(d), spec, q64)
                           - logistic_rule(float(d), spec, q128)) < 1e-8

    def test_quadrature_node_doubling_beta(self):
        q128 = QuadratureSpec.gauss_legendre_interval(128)
        q256 = QuadratureSpec.gauss_legendre_interval(256)
        for p, a, m, sigma in [(0.9, 2.0, 5.0, 1.0), (0.5, 3.0, 8.0, 2.0),
                               (0.0, 1.0, 10.0, 1.0)]:
            spec = Beta(p=p, a=a, m=m, sigma=sigma)
            for d in np.linspace(-10, 10, 81):
                assert abs(beta_rule(float(d), spec, q128)
                           - beta_rule(float(d), spec, q256)) < 1e-8


def _odd_and_shrinks(rule, d, sigma):
    """delta(-d) = -delta(d) and |delta(d)| <= |d|, up to rounding in the
    quadrature sums (1e-12 of |d| + sigma); no warning other than a
    ShrinkageUnderflowWarning may escape."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", ShrinkageUnderflowWarning)
        plus, minus = rule(d), rule(-d)
    slack = 1e-12 * (abs(d) + sigma)
    assert abs(plus + minus) <= slack
    assert abs(plus) <= abs(d) + slack


_SIGMA = st.floats(1e-3, 1e3)
_WEIGHT = st.floats(0.0, 0.999)
_PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                              database=None)


class TestHypothesisProperties:
    """Every rule is odd and shrinks, for random d, sigma and mixture weight."""

    @_PROPERTY_SETTINGS
    @given(d=st.floats(-1e6, 1e6), tau=st.floats(0.01, 100.0), ratio=st.floats(1e-3, 2.0),
           p=_WEIGHT)
    def test_logistic(self, d, tau, ratio, p):
        # sigma <= 2 tau: the 64 Gauss-Hermite nodes resolve the prior there
        # (error below 1e-8 sigma); for sigma > 2.5 tau see the xfail below
        spec = Logistic(p=p, tau=tau, sigma=ratio * tau)
        _odd_and_shrinks(lambda x: logistic_rule(x, spec), d, ratio * tau)

    @pytest.mark.xfail(strict=True, reason="64 Gauss-Hermite nodes on the likelihood "
                       "scale cannot resolve a logistic prior much narrower than sigma")
    def test_logistic_prior_narrow_against_sigma(self):
        _odd_and_shrinks(lambda x: logistic_rule(x, Logistic(p=0.0, tau=1.0, sigma=16.0)),
                         1.0, 16.0)

    @_PROPERTY_SETTINGS
    @given(t=st.floats(-60.0, 60.0), sigma=_SIGMA, p=_WEIGHT,
           a=st.sampled_from([1.0, 2.0, 3.0, 5.0]), ratio=st.floats(0.01, 200.0))
    def test_beta_integer_shape(self, t, sigma, p, a, ratio):
        spec = Beta(p=p, a=a, m=ratio * sigma, sigma=sigma)
        _odd_and_shrinks(lambda x: beta_rule(x, spec), t * sigma, sigma)

    @_PROPERTY_SETTINGS
    @given(t=st.floats(-60.0, 60.0), sigma=_SIGMA, p=_WEIGHT, ratio=st.floats(0.01, 30.0))
    def test_beta_non_integer_shape(self, t, sigma, p, ratio):
        # m <= 30 sigma: the range where 128 Gauss-Legendre nodes resolve the
        # likelihood; for wider supports see the xfail below
        spec = Beta(p=p, a=1.5, m=ratio * sigma, sigma=sigma)
        _odd_and_shrinks(lambda x: beta_rule(x, spec), t * sigma, sigma)

    @pytest.mark.xfail(strict=True, reason="128 Gauss-Legendre nodes on [-m, m] cannot "
                       "resolve a likelihood narrower than about m / 30")
    def test_beta_non_integer_shape_wide_support(self):
        _odd_and_shrinks(lambda x: beta_rule(x, Beta(p=0.0, a=1.5, m=53.0, sigma=1.0)),
                         0.0625, 1.0)

    @_PROPERTY_SETTINGS
    @given(d=st.floats(-1e300, 1e300), sigma=_SIGMA, k=st.floats(0.51, 5.0))
    def test_lpm(self, d, sigma, k):
        # d * d overflows beyond |d| = 1.3e154
        _odd_and_shrinks(lambda x: lpm_rule(x, Lpm(k=k, sigma=sigma)), d, sigma)

    @_PROPERTY_SETTINGS
    @given(d=st.floats(-1e300, 1e300), sigma=_SIGMA)
    def test_abe(self, d, sigma):
        _odd_and_shrinks(lambda x: abe_rule(x, Abe(sigma=sigma)), d, sigma)

    @_PROPERTY_SETTINGS
    @given(d=st.floats(-1e6, 1e6), sigma=_SIGMA, k=st.floats(0.51, 5.0),
           power=st.integers(-40, 40), c=st.floats(1e-3, 1e3))
    def test_lpm_scale_equivariant(self, d, sigma, k, power, c):
        # delta(c d; c sigma) = c delta(d; sigma): exact for a power of two c,
        # to rounding otherwise.  Away from the jump at |d| = lambda, where
        # rounding c lambda can move a coefficient across the threshold.
        rule = lambda x, s: lpm_rule(x, Lpm(k=k, sigma=s))
        assert rule(2.0 ** power * d, 2.0 ** power * sigma) == 2.0 ** power * rule(d, sigma)
        assume(abs(abs(d) - Lpm(k=k, sigma=sigma).threshold) > 1e-12 * abs(d))
        assert abs(rule(c * d, c * sigma) - c * rule(d, sigma)) <= 1e-13 * abs(c * d)

    @_PROPERTY_SETTINGS
    @given(d=st.floats(-1e6, 1e6), sigma=_SIGMA, power=st.integers(-40, 40),
           c=st.floats(1e-3, 1e3))
    def test_abe_scale_equivariant(self, d, sigma, power, c):
        rule = lambda x, s: abe_rule(x, Abe(sigma=s))
        assert rule(2.0 ** power * d, 2.0 ** power * sigma) == 2.0 ** power * rule(d, sigma)
        assert abs(rule(c * d, c * sigma) - c * rule(d, sigma)) <= 1e-13 * abs(c * d)

    @_PROPERTY_SETTINGS
    @given(d=st.floats(-1e6, 1e6), sigma=_SIGMA, alpha=st.floats(0.001, 0.999),
           scale=st.floats(0.1, 10.0))
    def test_bams(self, d, sigma, alpha, scale):
        tau, mu = scale * sigma, 1.0 / sigma ** 2
        if abs(2.0 * mu * tau * tau - 1.0) <= 1e-6:
            return  # the closed form's singular manifold, rejected by Bams
        spec = Bams(alpha=alpha, tau=tau, mu=mu)
        _odd_and_shrinks(lambda x: bams_rule(x, spec), d, sigma)


# ---------------------------------------------------------------------------
# node-grid chunks
# ---------------------------------------------------------------------------

class TestNodeGridChunks:
    """The quadrature rules evaluate their node grids in chunks of at most
    _GRID_VALUES values; a level slice whose grid spans several chunks and
    ends in a partial one must equal coefficient-by-coefficient evaluation."""

    @staticmethod
    def slice_spanning_chunks(nodes):
        chunk = shrinkage._GRID_VALUES // nodes
        rows, columns = 2 * chunk // 7 + 5, 7
        assert rows * columns > 2 * chunk and (rows * columns) % chunk
        rng = np.random.default_rng(41)
        return rng.standard_normal((rows, columns)) * np.array([0.3, 1, 2, 4, 8, 0.5, 3])

    def test_logistic_per_column_sigma(self):
        d = self.slice_spanning_chunks(64)
        sigma = np.array([0.2, 0.5, 1.0, 1.5, 2.0, 0.7, 3.0])
        got = logistic_rule(d, Logistic(p=0.8, tau=1.5, sigma=sigma))
        want = [[logistic_rule(float(d[r, i]), Logistic(p=0.8, tau=1.5, sigma=sigma[i]))
                 for i in range(d.shape[1])] for r in range(d.shape[0])]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_beta_non_integer_shape(self):
        d = self.slice_spanning_chunks(shrinkage.DEFAULT_GL_NODES)
        m = np.array([1.0, 2.0, 4.0, 8.0, 12.0, 3.0, 6.0])
        got = beta_rule(d, Beta(p=0.7, a=1.5, m=m, sigma=1.0))
        want = [[beta_rule(float(d[r, i]), Beta(p=0.7, a=1.5, m=m[i], sigma=1.0))
                 for i in range(d.shape[1])] for r in range(d.shape[0])]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_beta_explicit_quadrature(self):
        quad = QuadratureSpec.gauss_legendre_interval(96)
        d = self.slice_spanning_chunks(96)
        spec = Beta(p=0.6, a=2.0, m=5.0, sigma=0.8)
        got = beta_rule(d, spec, quad)
        want = [[beta_rule(float(v), spec, quad) for v in row] for row in d]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("rule,nodes", [
        (Logistic(sigma=1.0), shrinkage.DEFAULT_GH_NODES),
        (Beta(a=1.5, sigma=1.0), shrinkage.DEFAULT_GL_NODES),
    ])
    def test_grids_stay_within_bound(self, monkeypatch, rule, nodes):
        # a 512 x 50 level, as at M = 1024 with I = 50
        rng = np.random.default_rng(42)
        pyr = Pyramid.from_flat(rng.standard_normal((1024, 50)) * 3.0, 9)
        grids = []

        def recording(kernel):
            def wrapped(x, *args, **kwargs):
                if np.ndim(x) > 2:  # a node grid of a (rows x I) block
                    grids.append(np.size(x))
                return kernel(x, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(shrinkage, "_logistic_pdf", recording(shrinkage._logistic_pdf))
        monkeypatch.setattr(shrinkage, "_phi", recording(shrinkage._phi))
        shrink_pyramid(pyr, resolve_rule(rule, 1.0, pyr), LevelPolicy(J0=9))
        assert max(grids) <= shrinkage._GRID_VALUES
        assert sum(grids) == 512 * 50 * nodes  # every kernel evaluation seen once


class TestQuadratureSpec:
    def test_standard_normal_weights_sum_to_one(self):
        q = QuadratureSpec.gauss_hermite_standard_normal(64)
        assert abs(q.weights.sum() - 1.0) < 1e-10

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QuadratureSpec(nodes=np.zeros(3), weights=np.ones(4),
                           kind="gauss-legendre-interval")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            QuadratureSpec(nodes=np.zeros(3), weights=np.ones(3), kind="monte-carlo")

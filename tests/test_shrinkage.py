"""Shrinkage rules against independent oracles, plus the property suite."""

import functools
import sys
import time
import warnings
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import ndtr

from wavecal import shrinkage
from wavecal.shrinkage import (
    Abe,
    Bams,
    Beta,
    LevelPolicy,
    Logistic,
    Lpm,
    abe_rule,
    bams_rule,
    beta_rule,
    estimate_sigma,
    logistic_rule,
    lpm_rule,
    resolve_rule,
    rule_defaults,
    shrink_pyramid,
)
from wavecal.simharness import STUDY_COMPONENTS
from wavecal.testbed import DatasetSpec, generate_dataset
from wavecal.wavelet import Pyramid, make_filter, transform_columns

from oracles import SQRT_2PI, bams_oracle, beta_oracle, logistic_oracle, phi

# frozen dense-trapezoid value (1e6 panels on u in [-12, 12]) for
# d=2, p=0.9, tau=1, sigma=1
LOGISTIC_SPOT = 0.27789667054691214
# frozen quadrature-oracle value for d=2, sigma=1: alpha=0.8, tau=3, mu=1
BAMS_SPOT = 0.5988928684802048

ALL_RULES = tuple(shrinkage.RULES)


def beta_kernel(d, p, w, sigma):
    """`shrinkage._beta_kernel` with w = m / sigma broadcast against d into a
    new array, which the kernel overwrites."""
    return shrinkage._beta_kernel(d, p, np.broadcast_to(w, np.shape(d)).copy(), sigma)


# ---------------------------------------------------------------------------
# the beta rule's references: truncated normal moments and Gauss-Legendre
# ---------------------------------------------------------------------------

def beta_moments(c, w):
    """The beta prior integrals (sigma Z, N) from truncated normal moments,
    at c = |d| / sigma >= 0 and w = m / sigma.

    With theta = sigma (c + u) the prior kernel m^2 - theta^2 is sigma^2
    q(u), q(u) = (hi - u)(u - lo), lo = -w - c and hi = w - c, so both
    integrals are sums of I_k = int_lo^hi u^k phi(u) du, k <= 3, which obey
    I_k = lo^(k-1) phi(lo) - hi^(k-1) phi(hi) + (k-1) I_(k-2).
    """
    lo, hi = -w - c, w - c
    phi_lo, phi_hi = phi(lo), phi(hi)
    i0, i1 = ndtr(hi) - ndtr(lo), phi_lo - phi_hi
    i2 = lo * phi_lo - hi * phi_hi + i0
    i3 = lo * lo * phi_lo - hi * hi * phi_hi + 2 * i1
    # q / (2w)^2 in powers of u; the prior's normaliser is (2m)^3 B(2, 2)
    w2 = (2.0 * w) ** 2
    q0, q1, q2 = -lo * hi / w2, (lo + hi) / w2, -1.0 / w2
    s0 = q0 * i0 + q1 * i1 + q2 * i2
    s1 = q0 * i1 + q1 * i2 + q2 * i3
    scale = 2.0 * w * (1.0 / 6.0)
    return s0 / scale, (c * s0 + s1) / scale


@functools.lru_cache(maxsize=None)
def leggauss(nodes):
    return np.polynomial.legendre.leggauss(nodes)


def beta_gauss_legendre(d, p, m, sigma, nodes=2048):
    """The beta posterior mean from Gauss-Legendre quadrature on [-m, m].

    At theta = m x the prior is h(x) = 3 (1 - x^2) / 4 on [-1, 1] and the
    likelihood phi(c - w x) / sigma, with c = |d| / sigma and w = m / sigma;
    accurate while w stays moderate against ``nodes``.
    """
    x, weights = leggauss(nodes)
    h = weights * 0.75 * (1.0 - x * x)
    c = np.abs(np.asarray(d, dtype=float)) / sigma
    w = m / sigma
    likelihood = phi(c[:, None] - w * x)
    z, n = likelihood @ h, w * (likelihood @ (h * x))
    return np.sign(d) * sigma * (1 - p) * n / (p * phi(c) + (1 - p) * z)


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

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(rows=st.integers(1, 600), columns=st.one_of(st.none(), st.integers(1, 9)),
           seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(1e-300, 1e300),
           specials=st.lists(st.tuples(
               st.integers(0, 10 ** 6),
               st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, 1.7e308])),
               max_size=12))
    @example(rows=2, columns=None, seed=0, scale=1.0, specials=[(0, 1e308), (1, 1e308)])
    @example(rows=4, columns=2, seed=0, scale=1.0,
             specials=[(0, 1e308), (2, 1e308), (4, 1e308)])
    def test_bits_of_the_numpy_median(self, rows, columns, seed, scale, specials):
        # the sorted median against np.median on odd and even row counts, a
        # vector or a matrix, with signed zeros, infinities, NaN and values
        # whose middle pair overflows, where the reference takes the mean of
        # the halves as estimate_sigma does (np.median gives inf there)
        shape = (rows,) if columns is None else (rows, columns)
        d = np.random.default_rng(seed).standard_normal(shape) * scale
        for position, value in specials:
            d.flat[position % d.size] = value
        with np.errstate(over="ignore"):
            got = estimate_sigma(d)
            median = np.median(np.abs(d), axis=0)
            halves = np.median(np.abs(d) / 2.0, axis=0) * 2.0
            want = np.where(np.isinf(median), halves, median)[()] / shrinkage.MAD_TO_SIGMA
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(np.asarray(got).view(np.uint64),
                              np.asarray(want).view(np.uint64))


# ---------------------------------------------------------------------------
# logistic rule
# ---------------------------------------------------------------------------

class TestLogisticRule:
    def test_zero_maps_to_zero(self):
        for p, s in [(0.5, 1.0), (0.9, 0.25)]:
            assert logistic_rule(0.0, Logistic(sigma=s), p=p) == pytest.approx(
                0.0, abs=1e-15)

    def test_point_mass_limit(self):
        spec = Logistic(sigma=1.0)
        assert abs(logistic_rule(1.0, spec, p=1 - 1e-12)) < 1e-6

    def test_matches_dense_trapezoid_spot(self):
        spec = Logistic(sigma=1.0)
        v = logistic_rule(2.0, spec, p=0.9)
        assert v == pytest.approx(LOGISTIC_SPOT, abs=1e-6)
        assert v == pytest.approx(logistic_oracle(2.0, 0.9, 1.0, 1.0), abs=1e-6)

    def test_strictly_between_zero_and_d(self):
        spec = Logistic(sigma=1.0)
        for d in (0.5, 1.0, 3.0, 8.0):
            v = logistic_rule(d, spec, p=0.9)
            assert 0.0 < v < d
            assert -d < logistic_rule(-d, spec, p=0.9) < 0.0

    def test_no_underflow_far_in_the_tail(self):
        # the factorised kernel cannot underflow: far in the tail the
        # posterior mean is d - sigma^2 / tau, and no warning is raised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert logistic_rule(1e6, Logistic(sigma=1.0), p=0.9) == pytest.approx(
                1e6 - 1.0, rel=1e-15)
            assert logistic_rule(-5e5, Logistic(sigma=0.25), p=0.9) == pytest.approx(
                -5e5 + 0.0625, rel=1e-15)

    def test_large_coefficient_kept(self):
        # far in the tail the posterior mean is d - sigma^2 / tau
        spec = Logistic(sigma=1.0)
        assert logistic_rule(700.0, spec, p=0.9) == pytest.approx(699.0, abs=1e-6)
        assert logistic_rule(720.0, spec, p=0.9) == pytest.approx(719.0, abs=1e-6)

    def test_vectorized_matches_scalar(self):
        spec = Logistic(sigma=0.7 / 1.5)
        d = np.linspace(-4, 4, 9) / 1.5
        np.testing.assert_allclose(logistic_rule(d, spec, p=0.8),
                                   [logistic_rule(v, spec, p=0.8) for v in d],
                                   rtol=0, atol=1e-12)

    def test_subnormal_mixture_weight_is_no_point_mass(self):
        # K = p / (1 - p) tau / (sigma sqrt(2 pi)) underflows to 0; its log
        # warned of a division by zero
        spec = Logistic(sigma=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert logistic_rule(1.0, spec, p=5e-324) == logistic_rule(1.0, spec, p=0.0)

    def test_unresolved_sigma_rejected(self):
        with pytest.raises(ValueError, match="Logistic spec has no sigma"):
            logistic_rule(1.0, Logistic(), p=0.9)

    def test_sigma_whose_square_underflows_rejected(self):
        # x / (2 sigma^2) would divide by 0 and drop the point mass
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"sigma\^2 underflows"):
                logistic_rule(1e-160, Logistic(sigma=1e-160), p=0.9)
            assert logistic_rule(2e-150, Logistic(sigma=1e-150), p=0.0) > 0.0


# ---------------------------------------------------------------------------
# beta rule
# ---------------------------------------------------------------------------

class TestBetaRule:
    def test_zero_maps_to_zero(self):
        assert beta_rule(0.0, Beta(sigma=1.0), p=0.5, m=5.0) == pytest.approx(0.0, abs=1e-15)

    def test_point_mass_limit(self):
        spec = Beta(sigma=1.0)
        for d in (0.5, 2.0):
            assert abs(beta_rule(d, spec, p=1 - 1e-12, m=5.0)) < 1e-6

    def test_matches_trapezoid_oracle(self):
        spec = Beta(sigma=1.0)
        for d in (0.5, 2.0, 4.0, 9.0):
            assert beta_rule(d, spec, p=0.9, m=5.0) == pytest.approx(
                beta_oracle(d, 0.9, 5.0, 1.0), abs=1e-8)

    def test_wide_support_matches_trapezoid_oracle(self):
        # m / sigma = 100: the likelihood is far narrower than the support
        spec = Beta(sigma=1.0)
        for d in (0.5, 3.0, 40.0, 97.0):
            assert beta_rule(d, spec, p=0.9, m=100.0) == pytest.approx(
                beta_oracle(d, 0.9, 100.0, 1.0), abs=1e-8)

    def test_far_outside_support(self):
        # d = -(m + 6 sigma) puts both standardized endpoints in the upper
        # tail, where Phi(hi) - Phi(lo) cancels; d = m + 6 sigma is its mirror
        m, sigma = 5.0, 1.0
        spec = Beta(sigma=sigma)
        d = m + 6.0 * sigma
        assert beta_rule(-d, spec, p=0.9, m=m) == pytest.approx(
            -beta_rule(d, spec, p=0.9, m=m), abs=1e-12)
        for x in (d, -d):
            assert beta_rule(x, spec, p=0.9, m=m) == pytest.approx(
                beta_oracle(x, 0.9, m, sigma, panels=2_000_000), abs=1e-8)

    def test_closed_form_matches_quadrature(self):
        # narrow supports, where the Hermite series takes over below
        # m / sigma = 0.3, on both sides of that switch, down to m = 1e-300,
        # where the closed form's terms cancel to 0 / 0, and out to
        # m + 7.04 sigma; reference: 2048 Gauss-Legendre nodes, accurate
        # while m / sigma stays moderate
        for m in (1e-300, 1e-20, 1e-9, 1e-6, 1e-3, 0.01, 0.3, 1.0, 4.0, 12.0, 25.0,
                  0.98 * 0.3, 1.02 * 0.3):
            spec = Beta(sigma=1.0)
            top = min(1.5 * m + 4.0, m + shrinkage._BETA_OUTSIDE)
            d = np.concatenate([np.linspace(-top, top, 41), [m / 2, m, -m, m + 1.0]])
            for p in (0.0, 0.5):
                np.testing.assert_allclose(beta_rule(d, spec, p=p, m=m),
                                           beta_gauss_legendre(d, p, m, 1.0),
                                           rtol=0, atol=1e-10 * m)

    @staticmethod
    def moments_reference(d, p, m, sigma):
        """The rule from the truncated-moment sums of `beta_moments`."""
        c = np.abs(d) / sigma
        z, n = beta_moments(c, m / sigma)
        return np.sign(d) * sigma * (1 - p) * n / (p * phi(c) + (1 - p) * z)

    def test_three_terms_match_moments(self):
        # c = |d| / sigma from 0 through w = m / sigma up to w + 7, the edge of
        # the closed form's region.  For w < 2 and c > w + 2 both forms
        # subtract terms about (c / w)^2 larger than the result: there,
        # given the same Phi and phi values, the moment sums alone err by up
        # to 7e-13 (|d| + sigma) against 50-digit arithmetic, the three
        # terms by 1.4e-13.
        for sigma in (1.0, 0.37):
            for w in (0.3, 0.5, 1.0, 2.0, 5.0, 12.0, 40.0, 100.0, 200.0):
                c = np.concatenate([[0.0, w], np.linspace(0.0, w + 7.0, 301)])
                tol = np.where((w < 2.0) & (c > w + 2.0), 2e-12, 1e-13)
                for p in (0.0, 0.5, 0.98):
                    d = c * sigma
                    got = beta_rule(d, Beta(sigma=sigma), p=p, m=w * sigma)
                    want = self.moments_reference(d, p, w * sigma, sigma)
                    assert np.all(np.abs(got - want) <= tol * (d + sigma))

    @pytest.mark.parametrize("study", [1, 2, 3])
    def test_three_terms_match_moments_on_level_slices(self, study):
        # the kernel as `shrink_pyramid` runs it: p(j), and w = m(j) / sigma per column
        for M, snr in ((512, 3.0), (1024, 9.0)):
            data = generate_dataset(DatasetSpec(components=STUDY_COMPONENTS[study], M=M,
                                                I=20, snr=snr, seed=study))
            coefficients = transform_columns(data.observed, make_filter("daubechies", 10),
                                             3, "forward")
            pyr = Pyramid(coefficients, 3)
            sigma = float(np.mean(estimate_sigma(pyr.details[-1])))  # pooled, as in the pipeline
            for j, d in enumerate(pyr.details, start=3):
                p, m = shrinkage._mixture_weight(j, 3), np.max(np.abs(d), axis=0)
                w = m / sigma
                got = beta_kernel(d, p, w, sigma)
                want = self.moments_reference(d, p, m, sigma)
                assert np.all(np.abs(got - want) <= 1e-13 * (np.abs(d) + sigma))

    @staticmethod
    def three_terms_reference(c, w, p):
        """`_beta_two` as whole-array expressions, before it ran in place."""
        hi, sm = w - c, w + c
        g = (ndtr(hi) - ndtr(-sm)) * SQRT_2PI
        big_p, big_h = np.exp(sm * sm * -0.5), np.exp(hi * hi * -0.5)
        s0 = (hi * sm - 1.0) * g + hi * big_p + sm * big_h
        num = c * s0 - (g * c + (big_p - big_h)) * 2.0
        r = np.where(np.equal(p, 0.0), 0.0, p / (1.0 - p) * (4.0 / 3.0) * np.power(w, 3))
        return num / (s0 + np.exp(c * c * -0.5) * r)

    def test_in_place_matches_whole_array_form(self):
        # c out to w + 7.04 on supports from the series switch to 1e4, p one
        # scalar or one value per row as `shrink_pyramid` gives it; at p = 0
        # the point mass is exactly 0 even where w^3 overflows
        rng = np.random.default_rng(37)
        w = np.concatenate([[0.3, 1.9, 1e4], rng.uniform(0.3, 60.0, 37)])
        c = rng.uniform(0.0, 1.0, (300, 40)) * (w + shrinkage._BETA_OUTSIDE)
        c[:3] = np.array([0.0, 1.0, 1e-300])[:, None]
        rows = np.array([0.0, 0.25, 0.75, 0.9375, 1e-300])[np.arange(300) % 5, None]
        for p in (0.0, 0.3, 0.98, rows):
            want = self.three_terms_reference(c, w, p)
            got = shrinkage._beta_two(c.copy(), np.broadcast_to(w, c.shape).copy(), p)
            np.testing.assert_array_equal(_bits(got), _bits(want))
        c = np.array([0.0, 1.0, 30.0])
        got = shrinkage._beta_two(c.copy(), np.full(3, 1e120), 0.0)  # takes no w^3 at p = 0
        with np.errstate(over="ignore", invalid="ignore"):  # the reference's 0 w^3
            np.testing.assert_array_equal(_bits(got),
                                          _bits(self.three_terms_reference(c, 1e120, 0.0)))

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 0.98])
    def test_odd_bit_for_bit(self, p):
        # the kernel with per-column supports w = m / sigma, some narrow
        # enough for the Hermite series; d out to m + 7.04 sigma, as far as
        # `beta_rule` accepts
        rng = np.random.default_rng(2)
        w = rng.uniform(0.05, 30.0, 40)
        d = rng.uniform(-1.0, 1.0, (500, 40)) * (w + shrinkage._BETA_OUTSIDE)

        np.testing.assert_array_equal(beta_kernel(-d, p, w, 1.0), -beta_kernel(d, p, w, 1.0))

    def test_far_outside_explicit_support_rejected(self):
        # past m + 7.04 sigma the closed form cancels; the rule refuses such d
        # rather than return a wrong value
        spec = Beta(sigma=1.0)
        assert shrinkage._BETA_OUTSIDE == pytest.approx(7.04, abs=5e-3)
        beta_rule(np.array([-12.0, 12.0]), spec, p=0.9, m=5.0)  # within 7 sigma of the support
        for d in (45.0, np.array([1.0, -45.0]), 12.1):
            with pytest.raises(ValueError, match=r"outside the support \[-m, m\]"):
                beta_rule(d, spec, p=0.9, m=5.0)
        with pytest.raises(ValueError, match="outside the support"):
            beta_rule(0.3 + 1.01 * shrinkage._BETA_OUTSIDE, Beta(sigma=1.0), p=0.5, m=0.3)

    @pytest.mark.parametrize("m", [0.1, 5.0])
    def test_nan_maps_to_nan(self, m):
        # on a narrow support (the Hermite series) as in the closed form
        got = beta_rule(np.array([np.nan, 1.0]), Beta(sigma=1.0), p=0.5, m=m)
        assert np.isnan(got[0]) and np.isfinite(got[1])

    def test_bounded_by_half_support(self):
        spec = Beta(sigma=1.0)
        top = 2.0 + shrinkage._BETA_OUTSIDE
        for d in np.linspace(-top, top, 41):
            assert abs(beta_rule(d, spec, p=0.1, m=2.0)) <= 2.0 + 1e-12

    def test_unresolved_support_rejected(self):
        # m is a required argument; its values are checked with the specs'
        with pytest.raises(TypeError):
            beta_rule(1.0, Beta(sigma=1.0), p=0.5)

    def test_shape_is_fixed(self):
        # the shape is a = 2, not a field: a spec cannot ask for another
        with pytest.raises(TypeError):
            Beta(a=3.0)
        assert rule_defaults()["beta"]["a"] == 2.0


# ---------------------------------------------------------------------------
# LPM rule
# ---------------------------------------------------------------------------

class TestLpmRule:
    def test_below_threshold(self):
        assert lpm_rule(1.0, Lpm(sigma=1.0)) == 0.0

    def test_larger_mode_value(self):
        assert lpm_rule(3.0, Lpm(sigma=1.0)) == pytest.approx((3 + np.sqrt(5)) / 2, abs=1e-12)

    def test_antisymmetric_value(self):
        assert lpm_rule(-3.0, Lpm(sigma=1.0)) == pytest.approx(-(3 + np.sqrt(5)) / 2, abs=1e-12)

    def test_closed_interval_at_threshold(self):
        spec = Lpm(sigma=1.0)  # lambda = 2 sigma sqrt(2k - 1) = 2
        assert lpm_rule(2.0, spec) == pytest.approx(1.0)  # d/2 exactly at lambda
        assert lpm_rule(np.nextafter(2.0, 0.0), spec) == 0.0

    def test_sigma_zero_is_identity(self):
        spec = Lpm(sigma=0.0)
        for d in (-2.0, 0.0, 0.3, 5.0, 1e-200, -5e-324):
            assert lpm_rule(d, spec) == pytest.approx(d, abs=0)

    def test_below_the_squares_range(self):
        # d^2 and sigma^2 underflow below 2^-537: the rule runs on them scaled
        # by 2^600 and gives the scaled value exactly
        tiny = 2.0 ** -900
        assert lpm_rule(3.0 * tiny, Lpm(sigma=tiny)) == tiny * lpm_rule(3.0, Lpm(sigma=1.0))
        got = lpm_rule(np.array([3.0 * tiny, -3.0, 1.0]), Lpm(sigma=tiny))
        np.testing.assert_array_equal(got, [tiny * (3.0 + np.sqrt(5.0)) / 2.0, -3.0, 1.0])


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
        for d in (-2.0, 0.7, 5.0, 1e-200):
            assert abe_rule(d, spec) == pytest.approx(d, abs=0)

    def test_below_the_squares_range(self):
        tiny = 2.0 ** -900
        assert abe_rule(2.0 * tiny, Abe(sigma=tiny)) == 0.5 * tiny
        np.testing.assert_array_equal(abe_rule(np.array([-3.0 * tiny, tiny, 2.0]),
                                               Abe(sigma=tiny)), [-2.0 * tiny, 0.0, 2.0])


# ---------------------------------------------------------------------------
# BAMS rule
# ---------------------------------------------------------------------------

class TestBamsRule:
    def test_zero_maps_to_zero(self):
        assert bams_rule(0.0, Bams(sigma=1.0)) == 0.0

    def test_matches_quadrature_oracle_spot(self):
        got = bams_rule(2.0, Bams(sigma=1.0))
        assert got == pytest.approx(BAMS_SPOT, abs=1e-10)
        assert got == pytest.approx(bams_oracle(2.0, 0.8, 3.0, 1.0), abs=1e-10)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_matches_quadrature_oracle_grid(self, sigma):
        # tau = 3 sigma and mu = 1 / sigma^2
        spec = Bams(sigma=sigma)
        for d in np.linspace(-10, 10, 41):
            assert bams_rule(float(d), spec) == pytest.approx(
                bams_oracle(float(d), 0.8, 3.0 * sigma, 1.0 / sigma ** 2), abs=1e-10)

    def test_large_d_does_not_overflow(self):
        spec = Bams(sigma=1.0)
        v = bams_rule(5000.0, spec)
        assert np.isfinite(v)
        assert abs(v) <= 5000.0

    @staticmethod
    def whole_array_reference(d, alpha, tau, mu):
        """`bams_rule` as whole-array expressions, before it ran in place."""
        arr = np.asarray(d, dtype=float)
        s = 1.0 / np.sqrt(2.0 * mu)
        ad = np.abs(arr)
        sgn = np.sign(arr)
        tqdiff = tau * tau - s * s
        r = np.exp(-ad * np.abs(1.0 / s - 1.0 / tau))
        r_tau, r_s = (1.0, r) if tau >= s else (r, 1.0)
        spread = tau * r_tau - s * r_s
        delta = (tau * tqdiff * arr * r_tau + 2.0 * s * s * tau * tau * sgn * (r_s - r_tau)) \
            / (tqdiff * spread)
        marg = spread / (2.0 * tqdiff)
        noise = r_s / (2.0 * s)
        weight = (1.0 - alpha) * marg
        return weight * delta / (weight + alpha * noise)

    @pytest.mark.parametrize("sigma", [1.0, 0.3, 7.0])
    def test_in_place_matches_whole_array_form(self, sigma):
        rng = np.random.default_rng(29)
        d = np.concatenate([[0.0, 5e-324, 1e-300, 1e300], 10.0 ** rng.uniform(-300, 300, 4000),
                            rng.uniform(0.0, 50.0, 4000)])
        d = np.concatenate([d, -d])
        spec = Bams(sigma=sigma)
        want = self.whole_array_reference(d, 0.8, 3.0 * sigma, 1.0 / sigma ** 2)
        np.testing.assert_array_equal(_bits(bams_rule(d, spec)), _bits(want))
        np.testing.assert_array_equal(_bits(bams_rule(d.reshape(-1, 4), spec)),
                                      _bits(want).reshape(-1, 4))
        assert bams_rule(float(d[5]), spec) == want[5]


# ---------------------------------------------------------------------------
# level policy
# ---------------------------------------------------------------------------

class TestAvPolicy:
    def test_primary_level_has_no_point_mass(self):
        assert shrinkage._mixture_weight(3, 3) == 0.0

    def test_next_level(self):
        assert shrinkage._mixture_weight(4, 3) == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# pyramid application
# ---------------------------------------------------------------------------

class TestShrinkPyramid:
    def test_zero_pyramid_stays_zero(self):
        pyr = Pyramid(np.zeros(64), 2)
        for rule in (Logistic(sigma=1.0), Beta(sigma=1.0), Lpm(sigma=1.0),
                     Abe(sigma=1.0), Bams(sigma=1.0)):
            out = shrink_pyramid(pyr, rule)
            assert np.max(np.abs(out.flat)) == 0.0

    def test_abe_threshold_region_zeroed(self):
        rng = np.random.default_rng(21)
        pyr = Pyramid(rng.uniform(-4, 4, size=128), 3)
        out = shrink_pyramid(pyr, Abe(sigma=1.0))
        for d_in, d_out in zip(pyr.details, out.details):
            below = np.abs(d_in) <= np.sqrt(3.0)
            assert np.all(d_out[below] == 0.0)

    def test_single_detail_under_lpm(self):
        flat = np.zeros(64)
        flat[10] = 3.0  # inside the level-3 detail block
        pyr = Pyramid(flat, 3)
        out = shrink_pyramid(pyr, Lpm(sigma=1.0))
        got = out.flat
        assert got[10] == pytest.approx(2.618033988, abs=1e-9)
        assert np.all(got[np.arange(64) != 10] == 0.0)

    def test_coarse_passes_through(self):
        rng = np.random.default_rng(22)
        pyr = Pyramid(rng.standard_normal(128), 3)
        out = shrink_pyramid(pyr, Abe(sigma=10.0))
        np.testing.assert_array_equal(out.coarse, pyr.coarse)
        assert all(np.all(d == 0.0) for d in out.details)  # all |d| < sqrt(3)*10

    @pytest.mark.parametrize("name", ALL_RULES)
    @pytest.mark.parametrize("use_policy", [False, True])
    def test_read_only_input_gives_new_writable_output(self, name, use_policy):
        # the estimation pipeline passes the memo's read-only coefficients
        rng = np.random.default_rng(27)
        flat = rng.standard_normal((64, 4)) * 2.0
        flat[4:8, 1] = 0.0  # an all-zero level, masked for `log` and `beta`
        flat.flags.writeable = False
        before = flat.copy()
        pyr = Pyramid(flat, 2)
        policy = LevelPolicy(J0=2) if use_policy else None
        out = shrink_pyramid(pyr, resolve_rule(shrinkage.RULES[name](), 1.0), policy)
        assert out.flat.flags.writeable and not np.shares_memory(out.flat, flat)
        assert out.flat.shape == flat.shape and out.J0 == 2
        np.testing.assert_array_equal(flat.view(np.uint64), before.view(np.uint64))
        np.testing.assert_array_equal(out.coarse, flat[:4])
        assert all(np.shares_memory(d, out.flat) for d in out.details)

    @pytest.mark.parametrize("name", ALL_RULES)
    @pytest.mark.parametrize("use_policy", [False, True])
    @pytest.mark.parametrize("source", ["pooled", "fixed"])
    def test_level_slices_match_column_by_column(self, name, use_policy, source):
        rng = np.random.default_rng(24)
        flat = rng.standard_normal((128, 6)) * np.array([0.5, 1.0, 2.0, 1.0, 4.0, 0.7])
        flat[:16] *= 20.0  # large coarse-level coefficients, as from a signal
        flat[8:16, 2] = 0.0  # column 2 has an all-zero level j = 3
        pyr = Pyramid(flat, 3)
        sigma = float(np.mean(estimate_sigma(flat[64:])))
        spec = shrinkage.RULES[name]()
        if source == "fixed":  # the spec's own sigma wins over sigma-hat
            spec = replace(spec, sigma=0.4)
        spec = resolve_rule(spec, sigma)
        policy = LevelPolicy(J0=3) if use_policy else None

        got = shrink_pyramid(pyr, spec, policy).flat
        assert got.shape == flat.shape
        for i in range(flat.shape[1]):
            want = shrink_pyramid(Pyramid(flat[:, i], 3), spec, policy).flat
            if name in ("lpm", "abe", "bams"):
                np.testing.assert_array_equal(got[:, i], want)
            else:
                np.testing.assert_allclose(got[:, i], want, rtol=1e-12, atol=0)
        if name in ("log", "beta"):
            assert np.all(got[8:16, 2] == 0.0)

    @pytest.mark.parametrize("make", [
        lambda: Logistic(sigma=-1.0),
        lambda: Logistic(sigma=0.0),
        lambda: Logistic(sigma=float("nan")),
        lambda: Beta(sigma=0.0),
        lambda: Lpm(sigma=-1.0),
        lambda: Lpm(sigma=float("nan")),
        lambda: Abe(sigma=-1.0),
        lambda: Bams(sigma=0.0),  # mu = 1 / sigma^2
        lambda: resolve_rule(Bams(), 0.0),
        # sigma is a scalar, checked when the spec is built
        lambda: Logistic(sigma=np.array([1.0, 2.0])),
        lambda: Beta(sigma=np.array([1.0, 2.0])),
        lambda: Lpm(sigma=np.array([1.0, 2.0])),
        lambda: Abe(sigma=np.array([1.0, 2.0])),
        lambda: Bams(sigma=np.array([1.0, 2.0])),
        # infinite noise sds, which gave NaN or zeros
        lambda: Logistic(sigma=np.inf),
        lambda: Beta(sigma=np.inf),
        lambda: Bams(sigma=np.inf),
        lambda: Lpm(sigma=np.inf),
        lambda: Abe(sigma=np.inf),
        lambda: resolve_rule(Lpm(), np.inf),
        # the standalone rules check p and m as a spec checks its fields
        lambda: logistic_rule(1.0, Logistic(sigma=1.0), p=np.array([0.5, 0.6])),
        lambda: logistic_rule(1.0, Logistic(sigma=1.0), p=1.0),
        lambda: logistic_rule(1.0, Logistic(sigma=1.0), p=np.nan),
        lambda: beta_rule(1.0, Beta(sigma=1.0), p=np.array([0.5, 0.6]), m=1.0),
        lambda: beta_rule(1.0, Beta(sigma=1.0), p=1.0, m=1.0),
        lambda: beta_rule(1.0, Beta(sigma=1.0), p=-0.1, m=1.0),
        lambda: beta_rule(1.0, Beta(sigma=1.0), p=0.5, m=np.array([1.0, 2.0])),
        lambda: beta_rule(1.0, Beta(sigma=1.0), p=0.5, m=np.array([1.0, 0.0])),
        lambda: beta_rule(1.0, Beta(sigma=1.0), p=0.5, m=0.0),
        lambda: beta_rule(1.0, Beta(sigma=1.0), p=0.5, m=np.inf),
        lambda: beta_rule(1.0, Beta(sigma=1.0), p=0.5, m=np.nan),
        # None, a bool and a string are not real numbers
        lambda: logistic_rule(1.0, Logistic(sigma=1.0), p=None),
        lambda: logistic_rule(1.0, Logistic(sigma=1.0), p=False),
        lambda: beta_rule(1.0, Beta(sigma=1.0), p=0.5, m="1"),
        lambda: Lpm(sigma=True),
        lambda: Abe(sigma="0"),
        # an int past the float range, which float() cannot convert
        lambda: Logistic(sigma=10 ** 400),
        lambda: Bams(sigma=10 ** 400),
    ])
    def test_invalid_parameters_rejected(self, make):
        with pytest.raises(ValueError) as info:
            make()
        # the error is the spec's own, not numpy's on an array's truth value
        assert "ambiguous" not in str(info.value)

    def test_unknown_spec_rejected(self):
        pyr = Pyramid(np.ones(16), 2)
        for spec in (LevelPolicy(), shrinkage.RuleSpec(sigma=1.0)):
            with pytest.raises(TypeError, match="unknown rule spec"):
                shrink_pyramid(pyr, spec)
            with pytest.raises(TypeError, match="unknown rule spec"):
                resolve_rule(spec, 1.0)

    @pytest.mark.parametrize("name", ALL_RULES)
    def test_sigma_is_the_only_field(self, name):
        # tau, k and alpha are the paper's, fixed; BAMS's tau and mu follow from sigma
        spec = shrinkage.RULES[name]
        assert tuple(f.name for f in fields(spec)) == ("sigma",)
        other = Abe if spec is Beta else Beta
        assert spec(0.5) == spec(sigma=0.5) != other(sigma=0.5)
        for removed in ("tau", "k", "alpha", "mu"):
            with pytest.raises(TypeError):
                spec(**{removed: 1.0})

    @pytest.mark.parametrize("name", ALL_RULES)
    def test_rule_function_looked_up_on_the_module(self, monkeypatch, name):
        # a wrapper set in the table of block functions is the one a pipeline
        # runs, once per row block: a study-3 pyramid (M = 1024, I = 50,
        # J0 = 3) has 1016 detail rows, in round(1016 * 50 / _BLOCK_COEFFICIENTS)
        # blocks of equal row counts that cross level boundaries
        count = round(1016 * 50 / shrinkage._BLOCK_COEFFICIENTS)
        assert count > 1
        pyr = Pyramid(np.random.default_rng(26).standard_normal((1024, 50)), 3)
        spec = resolve_rule(shrinkage.RULES[name](), 1.0)
        function = shrinkage._RULE_FUNCTIONS[type(spec)]
        calls = []

        def wrapped(d, *args, **kwargs):
            calls.append(np.shape(d))
            return function(d, *args, **kwargs)

        want = shrink_pyramid(pyr, spec).flat
        monkeypatch.setitem(shrinkage._RULE_FUNCTIONS, type(spec), wrapped)
        np.testing.assert_array_equal(shrink_pyramid(pyr, spec).flat, want)
        rows = [r for r, _ in calls]
        assert len(calls) == count and sum(rows) == 1016 and max(rows) - min(rows) <= 1
        assert {columns for _, columns in calls} == {50}

    @pytest.mark.parametrize("name", ALL_RULES)
    def test_policy_changes_nothing(self, name):
        # `log` and `beta` take p(j) and m(j) at the pyramid's J0 with or
        # without a policy; a policy of another J0 is refused
        rng = np.random.default_rng(29)
        flat = rng.standard_normal((256, 7)) * 2.0
        flat[16:32, 3] = 0.0
        for J0 in (0, 2, 4):
            pyr = Pyramid(flat, J0)
            spec = resolve_rule(shrinkage.RULES[name](), 1.1)
            np.testing.assert_array_equal(
                _bits(shrink_pyramid(pyr, spec, LevelPolicy(J0=J0)).flat),
                _bits(shrink_pyramid(pyr, spec).flat))
            with pytest.raises(ValueError, match=f"policy J0 = {J0 + 1} differs"):
                shrink_pyramid(pyr, spec, LevelPolicy(J0=J0 + 1))

    def test_primary_level_shrinks_least(self):
        # p(J0) = 0: no point mass at the primary level, so `log` there
        # shrinks less than the standalone rule's p = 0.9 would
        rng = np.random.default_rng(23)
        pyr = Pyramid(rng.standard_normal(64), 2)
        spec = Logistic(sigma=1.0)
        d0, p0 = pyr.details[0], shrink_pyramid(pyr, spec).details[0]
        np.testing.assert_allclose(p0, logistic_rule(d0, spec, p=0.0), rtol=1e-13)
        assert np.all(np.abs(p0) >= np.abs(logistic_rule(d0, spec, p=0.9)))


def per_level_shrink(pyr, rule):
    """`shrink_pyramid` as it was before it ran on row blocks that cross
    levels: one level slice at a time, in row blocks of at most 4096
    coefficients, through the public rule functions, or for `log` and
    `beta` through their kernels (`log` with one table for the pyramid) at
    the level's p(j) and m(j).  The bit-for-bit reference of the row-block
    form."""
    evaluate = {Lpm: lpm_rule, Abe: abe_rule, Bams: bams_rule}.get(type(rule))
    if isinstance(rule, Logistic):
        table = shrinkage._logistic_table(rule, float(np.max(np.abs(pyr.flat[2 ** pyr.J0:]))))

        def evaluate(d, p, m):
            return shrinkage._logistic_from_table(d, shrinkage._point_mass_log(p, table), table)
    elif isinstance(rule, Beta):
        def evaluate(d, p, m):
            return beta_kernel(d, p, m / rule.sigma, rule.sigma)
    out = Pyramid(np.empty_like(pyr.flat), pyr.J0)
    out.coarse[...] = pyr.coarse
    for j, d, level in zip(range(pyr.J0, pyr.J), pyr.details, out.details):
        args, live = (rule,), None
        if isinstance(rule, (Logistic, Beta)):
            m = np.max(np.abs(d), axis=0)
            live = m > 0.0
            args = (shrinkage._mixture_weight(j, pyr.J0), np.where(live, m, 1.0))
        rows = max(1, 4096 // max(1, d[0].size))
        for k in range(0, d.shape[0], rows):
            level[k:k + rows] = evaluate(d[k:k + rows], *args)
        if live is not None:
            np.copyto(level, 0.0, where=~live)
    return out


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


class TestRowBlocks:
    """Row blocks that cross level boundaries change no bit of any rule's
    output against the per-level loop."""

    @pytest.mark.parametrize("name", ALL_RULES)
    @pytest.mark.parametrize("use_policy", [False, True])
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(J0=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(1e-3, 1e3),
           noise=st.sampled_from([1.0, 0.3, 8.0, 30.0]), dead=st.booleans(),
           block=st.sampled_from([shrinkage._BLOCK_COEFFICIENTS, 1000]))
    def test_matches_per_level_loop(self, name, use_policy, J0, seed, scale, noise, dead,
                                    block):
        # M = 2^J from 8 to 2048 and I from 1 to 60 are drawn uniformly from
        # the seed, and one pyramid in five is 1-D; sigma = noise * scale.
        # Blocks of 1000 coefficients make most of these small pyramids span
        # several row blocks.  At noise 8 and 30 sigma is large against |d|,
        # so that the beta supports are narrow, some or all of them, and take
        # the Hermite series
        rng = np.random.default_rng(seed)
        J, I = int(rng.integers(max(3, J0 + 1), 12)), int(rng.integers(1, 61))
        one_d = rng.random() < 0.2
        flat = rng.standard_normal(2 ** J if one_d else (2 ** J, I)) * scale
        flat[:2 ** J0] *= 20.0
        if dead:  # an all-zero level in one column, or a zero level of a signal
            j = int(rng.integers(J0, J))
            flat[2 ** j:2 ** (j + 1), ...] = 0.0 if one_d else flat[2 ** j:2 ** (j + 1)]
            if not one_d:
                flat[2 ** j:2 ** (j + 1), int(rng.integers(I))] = 0.0
        pyr = Pyramid(flat, J0)
        spec = resolve_rule(shrinkage.RULES[name](), noise * scale)
        policy = LevelPolicy(J0=J0) if use_policy else None
        with warnings.catch_warnings(), \
                mock.patch.object(shrinkage, "_BLOCK_COEFFICIENTS", block):
            warnings.simplefilter("error")
            got = shrink_pyramid(pyr, spec, policy).flat
            want = per_level_shrink(pyr, spec).flat
        np.testing.assert_array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("name", ["log", "beta"])
    def test_no_warning_at_the_primary_level(self, name):
        # p(J0) = 0: the primary level has no point mass, and its log is never taken
        pyr = Pyramid(np.random.default_rng(28).standard_normal((64, 3)), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = shrink_pyramid(pyr, resolve_rule(shrinkage.RULES[name](), 1.0))
        assert np.all(np.isfinite(out.flat))

    @pytest.mark.parametrize("p", [0.0, 0.4, pytest.param(np.linspace(0.0, 0.9, 400),
                                                           id="per-coefficient")])
    def test_beta_series_batch_equals_single_coefficients(self, p):
        # the series stops per coefficient, so a batch gives each coefficient
        # what a call on it alone gives
        rng = np.random.default_rng(2)
        w = rng.uniform(0.0, 0.3, 400)
        c = rng.uniform(0.0, 1.0, 400) * (w + shrinkage._BETA_OUTSIDE)
        c[:20] = 0.0
        got = shrinkage._beta_series(c, w, p)
        ps = np.broadcast_to(p, c.shape)
        want = [shrinkage._beta_series(c[i:i + 1], w[i:i + 1], ps[i])[0]
                for i in range(c.size)]
        np.testing.assert_array_equal(_bits(got), _bits(want))


# ---------------------------------------------------------------------------
# rule resolution
# ---------------------------------------------------------------------------

class TestResolveRule:
    def test_sigma_plugs_in(self):
        assert resolve_rule(Logistic(), 0.3).sigma == 0.3
        assert resolve_rule(Lpm(), 0.3).sigma == 0.3
        assert resolve_rule(Abe(), 0.3).sigma == 0.3
        # m(j) is the pipeline's, level by level: the spec's m stays unset
        assert resolve_rule(Beta(), 0.3) == Beta(sigma=0.3)

    def test_explicit_sigma_kept(self):
        assert resolve_rule(Abe(sigma=2.0), 0.3).sigma == 2.0

    def test_bams_defaults_from_sigma(self):
        # tau = 3 sigma, mu = 1 / sigma^2 and alpha = 0.8, bit for bit
        spec = resolve_rule(Bams(), 0.5)
        assert spec == Bams(sigma=0.5)
        d = np.linspace(-6.0, 6.0, 101)
        np.testing.assert_array_equal(
            _bits(bams_rule(d, spec)),
            _bits(TestBamsRule.whole_array_reference(d, 0.8, 1.5, 4.0)))

    def test_bams_needs_positive_sigma(self):
        with pytest.raises(ValueError):
            resolve_rule(Bams(), 0.0)


# ---------------------------------------------------------------------------
# property suite
# ---------------------------------------------------------------------------

def _rule_callable(name, sigma=1.0):
    if name == "log":
        return lambda d: logistic_rule(d, Logistic(sigma=sigma), p=0.9)
    if name == "beta":
        return lambda d: beta_rule(d, Beta(sigma=sigma), p=0.9, m=10.0 * sigma)
    if name == "lpm":
        return lambda d: lpm_rule(d, Lpm(sigma=sigma))
    if name == "abe":
        return lambda d: abe_rule(d, Abe(sigma=sigma))
    return lambda d: bams_rule(d, Bams(sigma=sigma))



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
        spec = Lpm(sigma=1.5)
        lam = 2 * 1.5
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
            values = [logistic_rule(d, Logistic(sigma=1.0), p=p)
                      for p in np.linspace(0.05, 0.95, 10)]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_beta_monotone_in_p(self):
        # heavier point mass shrinks harder; past d = m the point mass's
        # posterior weight rounds to 0 and every p gives the same float
        for d in (0.5, 1.5, 2.0, 4.0, 6.0, 8.0):
            values = [beta_rule(d, Beta(sigma=1.0), p=p, m=8.0)
                      for p in np.linspace(0.05, 0.95, 10)]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_quadrature_node_doubling_logistic(self):
        # the table's Gauss-Hermite sums at the rule's 64 nodes against all
        # 128 nodes of the doubled rule: ell and |delta| = a R at p = 0
        v, w = np.polynomial.hermite.hermgauss(128)
        q128 = (v * np.sqrt(2.0), w / np.sqrt(np.pi))
        a = np.linspace(0.125, 10.0, 80)
        for tau, sigma in [(1.0, 1.0), (2.0, 1.0), (1.5, 0.5)]:
            ell64, r64 = shrinkage._likelihood_scale_sums(a, sigma, tau,
                                                          shrinkage._logistic_nodes())
            ell128, r128 = shrinkage._likelihood_scale_sums(a, sigma, tau, q128)
            assert np.all(np.abs(ell64 - ell128) < 1e-8)
            assert np.all(np.abs(a * r64 - a * r128) < 1e-8)


def _odd_and_shrinks(rule, d, sigma):
    """delta(-d) = -delta(d) and |delta(d)| <= |d|, up to rounding in the
    quadrature sums (1e-12 of |d| + sigma); no warning may escape."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plus, minus = rule(d), rule(-d)
    slack = 1e-12 * (abs(d) + sigma)
    assert abs(plus + minus) <= slack
    assert abs(plus) <= abs(d) + slack


def _normal_when_scaled(power, *values):
    """Whether every value is 0, or it and it times 2^power are normal
    doubles, so that 2^power times it is exact."""
    tiny, huge = sys.float_info.min, sys.float_info.max
    return all(v == 0.0 or tiny <= abs(v) and tiny < abs(v) * 2.0 ** power <= huge
               for v in values)


_SIGMA = st.floats(1e-3, 1e3)
_WEIGHT = st.floats(0.0, 0.999)
_PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                              database=None)


class TestHypothesisProperties:
    """Every rule is odd and shrinks, for random d, sigma and mixture weight."""

    @_PROPERTY_SETTINGS
    @given(d=st.floats(-1e300, 1e300), ratio=st.floats(1e-3, 20.0), p=_WEIGHT)
    def test_logistic(self, d, ratio, p):
        # sigma = ratio * tau; above 2 tau the table's sums are on the prior's scale
        spec = Logistic(sigma=ratio)
        _odd_and_shrinks(lambda x: logistic_rule(x, spec, p=p), d, ratio)

    def test_logistic_prior_narrow_against_sigma(self):
        _odd_and_shrinks(lambda x: logistic_rule(x, Logistic(sigma=16.0), p=0.0),
                         1.0, 16.0)

    @_PROPERTY_SETTINGS
    @given(t=st.floats(-1.0, 1.0), sigma=_SIGMA, p=_WEIGHT, ratio=st.floats(0.01, 200.0))
    def test_beta(self, t, sigma, p, ratio):
        # d within m + 7.04 sigma, as far as the rule accepts
        spec = Beta(sigma=sigma)
        d = t * (ratio + shrinkage._BETA_OUTSIDE) * sigma
        _odd_and_shrinks(lambda x: beta_rule(x, spec, p=p, m=ratio * sigma), d, sigma)

    @_PROPERTY_SETTINGS
    @given(d=st.floats(-1e300, 1e300), sigma=_SIGMA)
    def test_lpm(self, d, sigma):
        # d * d overflows beyond |d| = 1.3e154
        _odd_and_shrinks(lambda x: lpm_rule(x, Lpm(sigma=sigma)), d, sigma)

    @_PROPERTY_SETTINGS
    @given(d=st.floats(-1e300, 1e300), sigma=_SIGMA)
    def test_abe(self, d, sigma):
        _odd_and_shrinks(lambda x: abe_rule(x, Abe(sigma=sigma)), d, sigma)

    @_PROPERTY_SETTINGS
    @given(d=st.floats(-1e6, 1e6), sigma=_SIGMA, power=st.integers(-1022, 1023),
           c=st.floats(1e-3, 1e3))
    def test_lpm_scale_equivariant(self, d, sigma, power, c):
        # delta(c d; c sigma) = c delta(d; sigma): exact for a power of two c
        # wherever the scaled d, sigma and delta are normal doubles, to
        # rounding otherwise.  Away from the jump at |d| = lambda, where
        # rounding c lambda can move a coefficient across the threshold.
        rule = lambda x, s: lpm_rule(x, Lpm(sigma=s))
        assume(_normal_when_scaled(power, d, sigma, rule(d, sigma)))
        assert rule(2.0 ** power * d, 2.0 ** power * sigma) == 2.0 ** power * rule(d, sigma)
        assume(abs(abs(d) - 2.0 * sigma) > 1e-12 * abs(d))
        assert abs(rule(c * d, c * sigma) - c * rule(d, sigma)) <= 1e-13 * abs(c * d)

    @_PROPERTY_SETTINGS
    @given(d=arrays(np.float64, st.tuples(st.integers(0, 40), st.integers(1, 6)),
                    elements=st.floats() | st.sampled_from(
                        [0.0, -0.0, 5e-324, -1e-310, 1e300, -1e300, np.inf, -np.inf, np.nan])),
           sigma=st.sampled_from([0.0, 1.3, 1e-310, 1e305, 2.0 ** -600]) | _SIGMA)
    def test_abe_bits_match_the_full_divide(self, d, sigma):
        # abe_rule divides only where it keeps a coefficient; the reference is
        # its earlier form, which divided everywhere and picked with np.where
        arr, s, factor = shrinkage._downscaled(d, sigma)
        with np.errstate(all="ignore"):
            excess = arr * arr - 3.0 * s * s
            keep = excess > 0.0
            want = np.where(keep, excess / np.where(keep, arr, 1.0), 0.0) * factor
            got = abe_rule(d, Abe(sigma=sigma))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @_PROPERTY_SETTINGS
    @given(d=st.floats(-1e6, 1e6), sigma=_SIGMA, power=st.integers(-1022, 1023),
           c=st.floats(1e-3, 1e3))
    def test_abe_scale_equivariant(self, d, sigma, power, c):
        rule = lambda x, s: abe_rule(x, Abe(sigma=s))
        assume(_normal_when_scaled(power, d, sigma, rule(d, sigma)))
        assert rule(2.0 ** power * d, 2.0 ** power * sigma) == 2.0 ** power * rule(d, sigma)
        assert abs(rule(c * d, c * sigma) - c * rule(d, sigma)) <= 1e-13 * abs(c * d)

    @_PROPERTY_SETTINGS
    @given(d=st.floats(-1e6, 1e6), sigma=_SIGMA)
    def test_bams(self, d, sigma):
        # tau = 3 sigma, above the marginal noise scale s = sigma / sqrt(2)
        spec = Bams(sigma=sigma)
        _odd_and_shrinks(lambda x: bams_rule(x, spec), d, sigma)


# ---------------------------------------------------------------------------
# node-grid chunks
# ---------------------------------------------------------------------------

class TestNodeGridChunks:
    """Below sigma = 2 tau the logistic table's node grid is one product of at
    most 219 panels x 9 points x 44 nodes; beyond, the prior-scale sums take
    their grid in chunks of at most _GRID_VALUES values.  A level slice whose
    grid spans several chunks and ends in a partial one must equal
    coefficient-by-coefficient evaluation, and the same bits as one chunk."""

    @staticmethod
    def slice_spanning_chunks(nodes):
        chunk = shrinkage._GRID_VALUES // nodes
        rows, columns = 2 * chunk // 7 + 5, 7
        assert rows * columns > 2 * chunk and (rows * columns) % chunk
        rng = np.random.default_rng(41)
        return rng.standard_normal((rows, columns)) * np.array([0.3, 1, 2, 4, 8, 0.5, 3])

    @pytest.mark.parametrize("sigma", [0.2, 1.0, 3.0])  # against 1.5 tau: below and at 2 tau
    def test_logistic_slice_spanning_chunks(self, sigma):
        d = self.slice_spanning_chunks(64) / 1.5
        spec = Logistic(sigma=sigma / 1.5)
        got = logistic_rule(d, spec, p=0.8)
        want = [[logistic_rule(float(x), spec, p=0.8) for x in row] for row in d]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_prior_scale_sums_spanning_chunks(self, monkeypatch):
        # at sigma = 3 tau and top = 60 the table has 161 panels, 1449 points:
        # 15 chunks of 102 points (320 nodes each), the last one partial
        spec, nodes = Logistic(sigma=3.0), shrinkage._prior_rule()[0].size
        assert nodes == 320 and shrinkage._GRID_VALUES // nodes == 102
        chunked = shrinkage._logistic_table(spec, 60.0)
        assert chunked.last + 1 == 161
        monkeypatch.setattr(shrinkage, "_GRID_VALUES", 2 ** 30)
        whole = shrinkage._logistic_table(spec, 60.0)
        assert chunked.cutoff == whole.cutoff
        assert chunked.coef.tobytes() == whole.coef.tobytes()

    def test_logistic_table_grid_stays_within_bound(self, monkeypatch):
        # `log` evaluates no (coefficients x nodes) grid: its kernel runs only
        # on the (table points x nodes) grid of the table build, one product
        # per table of at most 219 panels x 9 points, reached at sigma = 2 tau
        # and any top past the cutoff
        grids, points = [], []
        pdf, sums = shrinkage._logistic_pdf, shrinkage._likelihood_scale_sums

        def recording_pdf(x, *args, **kwargs):
            grids.append(np.shape(x))
            return pdf(x, *args, **kwargs)

        def recording_sums(a, *args, **kwargs):
            points.append(np.size(a))
            return sums(a, *args, **kwargs)

        monkeypatch.setattr(shrinkage, "_logistic_pdf", recording_pdf)
        monkeypatch.setattr(shrinkage, "_likelihood_scale_sums", recording_sums)
        nodes = shrinkage._logistic_nodes()[0].size
        assert nodes == 44
        table = shrinkage._logistic_table(Logistic(sigma=2.0 * shrinkage.LOGISTIC_TAU),
                                          1e300)
        assert table.last + 1 == 219
        assert grids == [(219 * 9, nodes)] and points == [219 * 9]

        grids.clear()
        points.clear()
        rng = np.random.default_rng(42)
        pyr = Pyramid(rng.standard_normal((1024, 50)) * 3.0, 9)
        shrink_pyramid(pyr, resolve_rule(Logistic(), 1.0))
        assert all(len(shape) == 2 and shape[1] == nodes for shape in grids)
        assert [shape[0] for shape in grids] == points
        assert max(points) <= 219 * 9


# ---------------------------------------------------------------------------
# the logistic table
# ---------------------------------------------------------------------------

def factorised_logistic(d, p, tau, sigma):
    """The logistic rule from the factorised Gauss-Hermite sums, evaluated
    directly at every coefficient: with c_i = e^(-sigma u_i / tau) and
    F = e^(-|d| / tau), Z e^(|d|/tau) = sum w c / (tau (1 + F c)^2) and S1 the
    same with weights w u."""
    u, w = shrinkage._logistic_nodes()
    a = np.abs(np.asarray(d, dtype=float))
    c = np.exp(-sigma * u / tau)
    k = 1.0 / (1.0 + np.exp(-a / tau)[:, None] * c) ** 2
    z, s1 = k @ (w * c) / tau, k @ (w * u * c) / tau
    point = p / (sigma * SQRT_2PI) * np.exp(a / tau - a * a / (2.0 * sigma * sigma))
    return np.sign(d) * (1.0 - p) * (a * z + sigma * s1) / (point + (1.0 - p) * z)


class TestLogisticTable:
    @pytest.mark.parametrize("scale", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("ratio", [1e-3, 0.1, 0.5, 1.0, 1.5, 2.0])
    def test_matches_direct_factorised_sums(self, scale, ratio):
        # the rule is homogeneous in (d, sigma, tau): data up to 1e4 at a
        # prior scale ``scale`` are data up to 1e4 / scale at tau = 1
        sigma, top = ratio, 1e4 / scale
        table = shrinkage._logistic_table(Logistic(sigma=sigma), top)
        width = 2.0 / table.scale
        edges = np.append(np.arange(1, table.last + 1) * width, table.cutoff)
        d = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
                            np.geomspace(1e-12, top, 400), [0.0, top]])
        d = np.concatenate([d, -d[:50]])
        for p in (0.0, 0.75, 0.9):
            got = logistic_rule(d, Logistic(sigma=sigma), p=p)
            want = factorised_logistic(d, p, 1.0, sigma)
            assert np.all(np.abs(got - want) <= 1e-12 * (np.abs(d) + sigma))

    @pytest.mark.parametrize("ratio", [2.5, 4.0, 16.0, 20.0, 60.0, 200.0])
    def test_prior_narrower_than_noise_matches_dense_oracle(self, ratio):
        # sums on the prior's scale, against a dense trapezoid over theta whose
        # integrand is scaled by its largest value, so that it cannot underflow
        tau, sigma = 1.0, ratio
        for d in (0.01 * sigma, 0.3 * sigma, 2.0 * sigma, sigma * sigma, sigma * sigma + 5.0 * sigma):
            lim = max(60.0 * tau, d + 12.0 * sigma)
            theta = np.linspace(-lim, lim, 400_001)
            log_g = -np.abs(theta) / tau - np.log(tau) - 2.0 * np.log1p(np.exp(-np.abs(theta) / tau))
            log_f = log_g - 0.5 * ((d - theta) / sigma) ** 2
            top = log_f.max()
            f = np.exp(log_f - top)
            for p in (0.0, 0.9):
                num = (1 - p) * np.trapezoid(theta * f, theta)
                den = p * np.exp(-0.5 * (d / sigma) ** 2 - top) + (1 - p) * np.trapezoid(f, theta)
                got = logistic_rule(d, Logistic(sigma=sigma), p=p)
                assert abs(got - num / den) <= 1e-12 * (d + sigma)

    def test_one_table_per_pyramid(self, monkeypatch):
        rng = np.random.default_rng(43)
        flat = rng.standard_normal((1024, 50)) * 2.0  # levels 3..9, row blocks
        pyr = Pyramid(flat, 3)
        built = []
        sums = shrinkage._likelihood_scale_sums

        def recording(a, s, *args, **kwargs):
            built.append(s)
            return sums(a, s, *args, **kwargs)

        monkeypatch.setattr(shrinkage, "_likelihood_scale_sums", recording)
        for policy in (None, LevelPolicy(J0=3)):
            built.clear()
            shrink_pyramid(pyr, Logistic(sigma=1.2), policy)
            assert built == [1.2]

    def test_table_cost_is_bounded(self):
        # past sigma = 2 tau the table needs about 8 min(top, sigma^2 / tau) / sigma
        # panels: 80001 at sigma = 1e4 tau and top = 1e8, refused before any is
        # built; 8001 at sigma = 1e3 tau and top = 1e6, built
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"sigma / tau = 1e\+04; rescale the data or "
                                             r"use a scale-free rule"):
            shrinkage._logistic_table(Logistic(sigma=1e4), 1e8)
        assert time.perf_counter() - start < 1.0
        assert shrinkage._logistic_table(Logistic(sigma=1e3), 1e6).last == 8000

    @staticmethod
    def kernel_reference(arr, log_k, table):
        """`_logistic_from_table` as whole-array expressions, before it ran in
        place."""
        tau, sigma, cutoff = shrinkage.LOGISTIC_TAU, table.sigma, table.cutoff
        a = np.abs(arr)
        t = np.fmin(a, cutoff) * table.scale
        panel = np.minimum((0.5 * t).astype(np.intp), table.last)
        t = t - (2.0 * panel + 1.0)
        degree = shrinkage._CHEB_DEGREE
        ell, ratio = (functools.reduce(lambda v, row: v * t + row.take(panel, mode="clip"),
                                       coef[degree - 1::-1], coef[degree].take(panel, mode="clip"))
                      for coef in (table.coef[:degree + 1], table.coef[degree + 1:]))
        beyond = a >= cutoff
        ell = np.where(beyond, sigma * sigma / (2.0 * tau * tau), ell)
        ratio = np.where(beyond, 1.0 - sigma * sigma / (tau * np.fmax(a, cutoff)), ratio) * a
        x = np.fmin(a, cutoff + 40.0 * sigma)
        x = x * (1.0 / tau - x / (2.0 * sigma * sigma)) - ell + log_k
        return np.copysign(ratio / (np.exp(np.minimum(x, 700.0)) + 1.0), arr)

    @pytest.mark.parametrize("sigma", [0.4, 1.0, 2.0, 3.0, 30.0])
    def test_in_place_kernel_matches_whole_array_form(self, sigma):
        # both sums' tables, coefficients past the cutoff and +-inf among them,
        # and log K one value per row, -inf (p = 0) included
        table = shrinkage._logistic_table(Logistic(sigma=sigma), 80.0 * sigma)
        rng = np.random.default_rng(41)
        d = rng.uniform(-1.0, 1.0, (120, 30)) * (1.2 * table.cutoff + 50.0 * sigma)
        d[0, :6] = [0.0, -0.0, np.inf, -np.inf, table.cutoff, -2.0 * table.cutoff]
        log_k = np.array([-np.inf, -3.0, 0.5, 4.0])[np.arange(120) % 4, None]
        want = self.kernel_reference(d, log_k, table)
        np.testing.assert_array_equal(_bits(shrinkage._logistic_from_table(d, log_k, table)),
                                      _bits(want))

    def test_asymptote_beyond_cutoff(self):
        # beyond the cutoff the asymptotes need no table
        assert logistic_rule(1e3, Logistic(sigma=1.0), p=0.9) == 999.0

    def test_sigma_whose_square_overflows_rejected(self):
        # the table's cutoff sigma^2 / tau is inf: the sums would give NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                logistic_rule(1e200, Logistic(sigma=1e200), p=0.9)


"""Least-squares recovery and the end-to-end estimation pipeline."""

import platform
import re
import subprocess
import sys
import threading
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavecal import decomposition, shrinkage
from wavecal.decomposition import (
    OUTPUTS,
    EstimationConfig,
    PipelineError,
    estimate_components,
    estimates_to_csv,
    prepare,
    solve_gamma,
)
from wavecal.shrinkage import (
    RULES,
    Abe,
    Bams,
    Beta,
    LevelPolicy,
    Logistic,
    Lpm,
    estimate_sigma,
    resolve_rule,
    shrink_pyramid,
)
from wavecal.simharness import STUDY_COMPONENTS
from wavecal.testbed import (
    DatasetSpec,
    eval_component,
    generate_dataset,
    sample_grid,
    standard_normal,
)
from wavecal.wavelet import Pyramid, WaveletFilter, make_filter, transform_columns


def column_by_column(observed, weights, config):
    """The pipeline with one Pyramid, one resolve_rule and one shrink_pyramid
    call per observed column."""
    D = transform_columns(observed, config.filter, config.J0, "forward")
    sigma = float(np.mean([estimate_sigma(D[D.shape[0] // 2:, i])
                           for i in range(D.shape[1])]))
    shrunk = np.empty_like(D)
    for i in range(D.shape[1]):
        pyr = Pyramid(D[:, i], config.J0)
        shrunk[:, i] = shrink_pyramid(pyr, resolve_rule(config.rule, sigma), config.policy).flat
    return transform_columns(solve_gamma(shrunk, prepare(observed, weights, config)),
                             config.filter, config.J0, "inverse")


def prepared(weights):
    """A `Prepared` dataset of zero observations, for its pseudo-inverse of
    ``weights``: the one least-squares path `solve_gamma` applies."""
    config = EstimationConfig(filter=make_filter("daubechies", 4), rule=Lpm())
    return prepare(np.zeros((16, np.shape(weights)[1])), weights, config)


def normal_equations_longdouble(shrunk, weights):
    """Textbook gamma = D y^T (y y^T)^-1, evaluated in extended precision."""
    D = np.asarray(shrunk, dtype=np.longdouble)
    y = np.asarray(weights, dtype=np.longdouble)
    gram = y @ y.T
    rhs = y @ D.T  # L x M; solve gram X = rhs, gamma = X^T
    L = gram.shape[0]
    a = np.concatenate([gram, rhs], axis=1)
    for col in range(L):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        a[[col, pivot]] = a[[pivot, col]]
        a[col] /= a[col, col]
        for r in range(L):
            if r != col:
                a[r] -= a[r, col] * a[col]
    return np.asarray(a[:, L:].T, dtype=float)


@pytest.fixture(scope="module")
def db10():
    return make_filter("daubechies", 10)


class TestSolveGamma:
    def test_single_component_row_means(self):
        rng = np.random.default_rng(1)
        D = rng.standard_normal((16, 6))
        gamma = solve_gamma(D, prepared(np.ones((1, 6))))
        np.testing.assert_allclose(gamma[:, 0], D.mean(axis=1), rtol=0, atol=1e-12)

    def test_square_weights_interpolate(self):
        rng = np.random.default_rng(2)
        D = rng.standard_normal((8, 3))
        y = rng.uniform(0.5, 1.5, (3, 3))
        gamma = solve_gamma(D, prepared(y))
        np.testing.assert_allclose(gamma, D @ np.linalg.inv(y), rtol=0, atol=1e-8)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(3)
        D = rng.standard_normal((8, 5))
        y = rng.uniform(0.5, 1.5, (2, 5))
        np.testing.assert_allclose(solve_gamma(D, prepared(y)),
                                   normal_equations_longdouble(D, y),
                                   rtol=0, atol=1e-8)

    def test_oracle_sweep(self):
        # acceptance-scale sweep: 100 random instances, M=64, I=10, L in {2,4,6}
        rng = np.random.default_rng(17)
        for trial in range(100):
            L = (2, 4, 6)[trial % 3]
            D = rng.standard_normal((64, 10))
            y = rng.uniform(0.5, 1.5, (L, 10))
            np.testing.assert_allclose(solve_gamma(D, prepared(y)),
                                       normal_equations_longdouble(D, y),
                                       rtol=0, atol=1e-8)

    def test_residual_orthogonal_to_row_space(self):
        rng = np.random.default_rng(4)
        D = rng.standard_normal((32, 9))
        y = rng.uniform(0.5, 1.5, (3, 9))
        gamma = solve_gamma(D, prepared(y))
        resid = D - gamma @ y
        assert np.max(np.abs(resid @ y.T)) < 1e-8

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(5)
        D = rng.standard_normal((16, 7))
        y = rng.uniform(0.5, 1.5, (2, 7))
        perm = rng.permutation(7)
        base = solve_gamma(D, prepared(y))
        permuted = solve_gamma(D[:, perm], prepared(y[:, perm]))
        np.testing.assert_allclose(permuted, base, rtol=0, atol=1e-10)

    def test_rank_deficiency_detected(self):
        rng = np.random.default_rng(6)
        D = rng.standard_normal((8, 6))
        y = rng.uniform(0.5, 1.5, (1, 6))
        y = np.vstack([y, 2.0 * y])  # duplicated direction
        with pytest.raises(PipelineError, match=r"^\[least-squares\] weights are rank deficient"):
            solve_gamma(D, prepared(y))

    def test_underdetermined_rejected(self):
        with pytest.raises(PipelineError, match=r"^\[least-squares\] underdetermined mixing: "
                                                r"L=3 components, I=2 samples$"):
            solve_gamma(np.zeros((4, 2)), prepared(np.ones((3, 2))))

    def test_raw_weights_refused(self):
        # prepare is the one least-squares path: a weight matrix has no pseudo-inverse
        with pytest.raises(AttributeError, match="pseudoinverse"):
            solve_gamma(np.zeros((4, 2)), np.ones((1, 2)))

    @pytest.mark.parametrize("spread", [None, 1e-1, 1e-2])
    def test_matches_lstsq(self, spread):
        # study-like weights (spread None), and weights whose singular values
        # fall geometrically from 1 to ``spread``
        rng = np.random.default_rng(41)
        for trial in range(30):
            L = (2, 4, 6)[trial % 3]
            if spread is None:
                y = rng.uniform(0.5, 1.5, (L, 50))
            else:
                u = np.linalg.qr(rng.standard_normal((L, L)))[0]
                v = np.linalg.qr(rng.standard_normal((50, L)))[0]
                y = (u * np.geomspace(1.0, spread, L)) @ v.T
            D = rng.standard_normal((64, 50))
            want = np.linalg.lstsq(y.T, D.T, rcond=decomposition._RANK_RTOL)[0].T
            np.testing.assert_allclose(solve_gamma(D, prepared(y)), want, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("ratio", [1.5e-10, 1.01e-10])
    def test_matches_lstsq_just_inside_rank_tolerance(self, ratio):
        # Singular values a factor 1.01 - 1.5 above the rank cutoff.  Both
        # solvers then agree only to about eps / ratio unless the SVD itself
        # is exact, as it is for weights with orthogonal coordinate rows.
        rng = np.random.default_rng(43)
        y = np.zeros((3, 9))
        y[[0, 1, 2], [4, 1, 7]] = [1.0, 0.5, ratio]
        D = rng.standard_normal((16, 9))
        want = np.linalg.lstsq(y.T, D.T, rcond=decomposition._RANK_RTOL)[0].T
        np.testing.assert_allclose(solve_gamma(D, prepared(y)), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("ratio", [0.99e-10, 1e-12, 0.0])
    def test_rank_tolerance_just_outside(self, ratio):
        rng = np.random.default_rng(47)
        u = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        v = np.linalg.qr(rng.standard_normal((9, 3)))[0]
        y = (u * [1.0, 0.5, ratio]) @ v.T
        assert np.linalg.lstsq(y.T, np.zeros((9, 1)), rcond=decomposition._RANK_RTOL)[2] < 3
        with pytest.raises(PipelineError, match=r"^\[least-squares\] .*effective rank 2 < 3$"):
            solve_gamma(rng.standard_normal((16, 9)), prepared(y))

    def test_all_zero_weights(self):
        with pytest.raises(PipelineError, match=r"^\[least-squares\] weights are rank deficient: "
                                                r"singular values span \[0\.000e\+00, 0\.000e\+00\], "
                                                r"effective rank 0 < 2$"):
            solve_gamma(np.ones((4, 3)), prepared(np.zeros((2, 3))))


class TestEstimateComponents:
    @pytest.mark.parametrize("rule", [Lpm(sigma=0.0), Abe(sigma=0.0)])
    def test_noise_free_recovery(self, db10, rule):
        spec = DatasetSpec(components=("bumps", "blocks"), M=512, I=50,
                           snr=3.0, seed=7)
        ds = generate_dataset(spec)
        config = EstimationConfig(filter=db10, rule=rule, J0=3)
        alpha_hat = estimate_components(ds.truth @ ds.weights, ds.weights, config)
        assert np.max(np.abs(alpha_hat - ds.truth)) < 1e-6

    def test_output_shape_contract(self, db10):
        spec = DatasetSpec(components=("bumps", "blocks", "doppler"), M=128,
                           I=10, snr=3.0, seed=11)
        ds = generate_dataset(spec)
        config = EstimationConfig(filter=db10, rule=Abe(), J0=3)
        alpha_hat = estimate_components(ds.observed, ds.weights, config)
        assert alpha_hat.shape == (128, 3)

    @pytest.mark.parametrize("rule", tuple(RULES))
    @pytest.mark.parametrize("sigma", [None, 0.4], ids=["pooled", "fixed"])
    def test_permutation_consistency(self, db10, rule, sigma):
        # permuting the samples together with their weight columns permutes
        # the columns of every stage up to least squares; only the order of
        # floating-point sums changes
        spec = DatasetSpec(components=STUDY_COMPONENTS[2], M=512, I=50, snr=3.0, seed=13)
        ds = generate_dataset(spec)
        rule = RULES[rule]() if sigma is None else RULES[rule](sigma=sigma)
        config = EstimationConfig(filter=db10, rule=rule, J0=3)
        base = estimate_components(ds.observed, ds.weights, config)
        perm = np.random.default_rng(0).permutation(50)
        swapped = estimate_components(ds.observed[:, perm], ds.weights[:, perm], config)
        np.testing.assert_allclose(swapped, base, rtol=0,
                                   atol=1e-12 * np.max(np.abs(base)))

    @pytest.mark.parametrize("rule", tuple(RULES))
    def test_curves_are_the_inverse_transform_of_the_coefficients(self, db10, rule):
        ds = generate_dataset(DatasetSpec(components=STUDY_COMPONENTS[3], M=256, I=20,
                                          snr=3.0, seed=17))
        config = EstimationConfig(filter=db10, rule=RULES[rule](), J0=3)
        gamma = estimate_components(ds.observed, ds.weights,
                                    replace(config, output="coefficients"))
        alpha = estimate_components(ds.observed, ds.weights, config)
        want = transform_columns(gamma, db10, 3, "inverse")
        assert gamma.shape == alpha.shape == (256, 6)
        assert np.array_equal(alpha.view(np.uint64), want.view(np.uint64))

    def test_mse_decreases_with_more_samples(self, db10):
        # L=1 with unit weights: averaging I samples shrinks the noise floor
        truth = eval_component("doppler", sample_grid(256)).reshape(-1, 1)
        config = EstimationConfig(filter=db10, rule=Abe(), J0=3)
        mses = []
        for I in (2, 4, 8, 16, 32):
            y = np.ones((1, I))
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(5, spawn_key=(I,))))
            observed = truth @ y + 1.0 * standard_normal(rng, (256, I))
            alpha_hat = estimate_components(observed, y, config)
            mses.append(float(np.mean((alpha_hat - truth) ** 2)))
        assert all(b < a for a, b in zip(mses, mses[1:]))

    @pytest.mark.parametrize("rule,policy", [
        (Logistic(), LevelPolicy(J0=3)),
        (Beta(), LevelPolicy(J0=3)),
        (Beta(), None),
        (Lpm(), None),
        (Abe(), None),
        (Bams(), None),
    ])
    @pytest.mark.parametrize("source,sigma", [("pooled", None), ("fixed", 0.4)])
    def test_matches_column_by_column_pipeline(self, db10, rule, policy, source, sigma):
        spec = DatasetSpec(components=("bumps", "blocks", "doppler"), M=256, I=12,
                           snr=4.0, seed=29)
        ds = generate_dataset(spec)
        if sigma is not None:
            rule = replace(rule, sigma=sigma)
        config = EstimationConfig(filter=db10, rule=rule, J0=3, policy=policy)
        got = estimate_components(ds.observed, ds.weights, config)
        want = column_by_column(ds.observed, ds.weights, config)
        if isinstance(rule, (Logistic, Beta)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)
        else:
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bad,cached,bad_weights", [
        pytest.param(np.nan, False, False, id="nan"),
        pytest.param(np.inf, False, False, id="inf"),
        pytest.param(-np.inf, False, False, id="-inf"),
        # a finite dataset of the same shape estimated first must not let
        # NaN pass, and observed is named before weights
        pytest.param(np.nan, True, False, id="nan-after-a-cached-dataset"),
        pytest.param(np.nan, True, True, id="nan-in-both-after-a-cached-dataset"),
        pytest.param(np.inf, False, True, id="inf-in-both"),
    ])
    def test_non_finite_observations_rejected(self, db10, bad, cached, bad_weights):
        ds = generate_dataset(DatasetSpec(components=("bumps",), M=64, I=6,
                                          snr=3.0, seed=31))
        config = EstimationConfig(filter=db10, rule=Lpm(), J0=3)
        if cached:
            estimate_components(ds.observed, ds.weights, config)
        observed, weights = ds.observed.copy(), ds.weights.copy()
        observed[10, 4] = bad
        if bad_weights:
            weights[0, 1] = bad
        with pytest.raises(PipelineError, match=r"\[input\] observed .* column\(s\) 4$"):
            estimate_components(observed, weights, config)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, db10, bad):
        ds = generate_dataset(DatasetSpec(components=("bumps", "blocks"), M=64, I=6,
                                          snr=3.0, seed=31))
        weights = ds.weights.copy()
        weights[1, 2] = bad
        weights[0, 5] = bad
        config = EstimationConfig(filter=db10, rule=Lpm(), J0=3)
        with pytest.raises(PipelineError, match=r"\[input\] weights .* column\(s\) 2, 5$"):
            estimate_components(ds.observed, weights, config)

    @pytest.mark.parametrize("rule", tuple(RULES))
    def test_sigma_on_the_spec_replaces_only_the_scale_source(self, db10, rule):
        # a spec carrying the pooled sigma-hat itself reproduces the pooled run
        # bit for bit: the two routes differ in where sigma comes from, nothing else
        ds = generate_dataset(DatasetSpec(components=STUDY_COMPONENTS[2], M=256, I=12,
                                          snr=3.0, seed=17))
        pooled = EstimationConfig(filter=db10, rule=RULES[rule](), J0=3)
        want = estimate_components(ds.observed, ds.weights, pooled)
        D = transform_columns(ds.observed, db10, 3, "forward")
        sigma_hat = float(np.mean(estimate_sigma(D[D.shape[0] // 2:])))
        fixed = replace(pooled, rule=RULES[rule](sigma=sigma_hat))
        np.testing.assert_array_equal(
            estimate_components(ds.observed, ds.weights, fixed), want)

    @pytest.mark.parametrize("rule,policy", [
        (Logistic(), LevelPolicy(J0=3)),
        (Beta(), LevelPolicy(J0=3)),
        (Bams(), None),
    ])
    def test_quadrature_rules_run_end_to_end(self, db10, rule, policy):
        spec = DatasetSpec(components=("bumps", "blocks"), M=256, I=20,
                           snr=3.0, seed=19)
        ds = generate_dataset(spec)
        config = EstimationConfig(filter=db10, rule=rule, J0=3, policy=policy)
        alpha_hat = estimate_components(ds.observed, ds.weights, config)
        # denoising should beat the naive per-column average of rescaled data
        assert np.all(np.isfinite(alpha_hat))
        mse = np.mean((alpha_hat - ds.truth) ** 2)
        assert mse < np.var(ds.truth)

    def test_stage_label_on_bad_length(self, db10):
        config = EstimationConfig(filter=db10, rule=Abe(), J0=3)
        with pytest.raises(PipelineError, match=r"\[transform\]"):
            estimate_components(np.zeros((100, 4)), np.ones((1, 4)), config)

    def test_stage_label_on_bad_weights(self, db10):
        config = EstimationConfig(filter=db10, rule=Abe(), J0=3)
        for weights in (np.ones((1, 3)), np.empty((0, 4))):
            with pytest.raises(PipelineError, match=r"^\[input\] weights shape"):
                estimate_components(np.zeros((128, 4)), weights, config)

    def test_stage_label_on_rank_deficiency(self, db10):
        rng = np.random.default_rng(23)
        observed = rng.standard_normal((128, 6))
        y = np.vstack([np.ones((1, 6)), np.ones((1, 6))])
        config = EstimationConfig(filter=db10, rule=Abe(), J0=3)
        with pytest.raises(PipelineError, match=r"\[least-squares\]"):
            estimate_components(observed, y, config)

    def test_config_validation(self, db10):
        # sigma comes from the data or the rule spec; the config has no say in it
        assert [f.name for f in fields(EstimationConfig)] == ["filter", "rule", "J0",
                                                              "policy", "output"]
        with pytest.raises(TypeError):
            EstimationConfig(filter=db10, rule=Abe(), sigma_mode="fixed")
        with pytest.raises(TypeError):
            EstimationConfig(filter=db10, rule=Abe(), sigma_value=1.0)
        with pytest.raises(ValueError, match="J0 must be >= 0"):
            EstimationConfig(filter=db10, rule=Abe(), J0=-1)
        for output in ("Curves", "coefficient", "", None, ("curves",), np.str_("alpha")):
            with pytest.raises(ValueError, match="output must be one of"):
                EstimationConfig(filter=db10, rule=Abe(), output=output)

    @pytest.mark.parametrize("J0", [3.0, True, np.float64(3.0), "3"])
    def test_j0_must_be_an_integer(self, db10, J0):
        # 3.0 failed later in the transform with a bare TypeError, and True
        # was taken for J0 = 1
        with pytest.raises(ValueError, match="J0 must be an integer"):
            EstimationConfig(filter=db10, rule=Abe(), J0=J0)
        with pytest.raises(ValueError, match="J0 must be an integer"):
            LevelPolicy(J0=J0)
        assert EstimationConfig(filter=db10, rule=Abe(), J0=np.int64(3)).J0 == 3

    @pytest.mark.parametrize("policy_j0", [1, 5])
    def test_policy_j0_must_match_config(self, db10, policy_j0):
        # a smaller policy J0 would silently shift p(j); a larger one would
        # fail deep in the shrinkage stage
        with pytest.raises(ValueError, match=f"policy J0 = {policy_j0} differs"):
            EstimationConfig(filter=db10, rule=Logistic(), J0=3,
                             policy=LevelPolicy(J0=policy_j0))


def overflowing_sigma_data():
    """Finite M = 64, I = 12 observations whose pooled sigma-hat overflows to
    inf: rows alternating +-9e307, column i scaled by linspace(1, 1.001, 12)[i]."""
    return np.where(np.arange(64) % 2, 9e307, -9e307)[:, None] * np.linspace(1.0, 1.001, 12)


class TestNoSilentNonFiniteEstimate:
    """Every failure names its stage, and no estimate comes back with NaN or inf."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_dataset(DatasetSpec(components=("bumps", "blocks"), M=64, I=12,
                                            snr=5.0, seed=3))

    @staticmethod
    def config(db10, rule, output="curves"):
        return EstimationConfig(filter=db10, rule=RULES[rule](), J0=3, output=output)

    @pytest.mark.parametrize("scale,error", [(1e-300, "ZeroDivisionError"),
                                             (1e300, "OverflowError")])
    def test_bams_arithmetic_error_is_a_shrinkage_failure(self, db10, dataset, scale,
                                                          error):
        # 1 / sigma^2 of BAMS's default mu underflows or overflows in Python floats
        with pytest.raises(PipelineError, match=rf"\[shrinkage\] {error}") as exc:
            estimate_components(dataset.observed * scale, dataset.weights,
                                self.config(db10, "bams"))
        assert exc.value.stage == "shrinkage"

    def test_non_finite_shrinkage_is_rejected(self, db10, dataset, monkeypatch):
        # a rule whose output is not finite fails at the shrinkage stage; the
        # estimate used to come back non-finite without an error
        monkeypatch.setitem(shrinkage._RULE_FUNCTIONS, Lpm,
                            lambda d, spec: np.full_like(d, np.nan))
        for output in OUTPUTS:
            with pytest.raises(PipelineError, match=r"\[shrinkage\] output has NaN or inf"):
                estimate_components(dataset.observed, dataset.weights,
                                    self.config(db10, "lpm", output))

    def test_log_sigma_too_large_is_a_shrinkage_failure(self, db10, dataset):
        # at this scale sigma^2 / tau overflows, and log's table sums would be NaN
        with pytest.raises(PipelineError, match=r"\[shrinkage\] logistic_rule: sigma\^2 / tau"):
            estimate_components(dataset.observed * 1e300, dataset.weights,
                                self.config(db10, "log"))

    @pytest.mark.parametrize("rule", list(RULES))
    def test_overflowing_sigma_is_a_sigma_failure(self, db10, rule):
        # every column's finest details are finite, near 1.4e307, but their
        # pooled sigma-hat overflows to inf; lpm and abe used to zero every
        # detail with it and return an estimate without an error, and the
        # overflow used to be warned of besides
        rng = np.random.default_rng(0)
        alternating = np.where(np.arange(64) % 2, 1.0, -1.0)[:, None] * np.full((64, 12), 1e307)
        with pytest.raises(PipelineError, match=r"^\[sigma\] sigma must be finite .* got inf$"):
            estimate_components(alternating, rng.uniform(0.5, 1.5, (2, 12)),
                                self.config(db10, rule))

    @pytest.mark.parametrize("rule", [Lpm, Abe])
    def test_an_unused_overflowing_sigma_hat_is_not_blamed(self, db10, rule):
        # the sigma on the spec replaces the sigma-hat, which overflows to inf
        # on these data; the least-squares product through weights of 1e-3
        # overflows, and used to be blamed on that unused sigma-hat
        weights = np.random.default_rng(0).uniform(0.5, 1.5, (2, 12)) * 1e-3
        config = EstimationConfig(filter=db10, rule=rule(sigma=1.0), output="coefficients")
        with pytest.raises(PipelineError, match=r"^\[least-squares\] output has NaN or inf$"):
            estimate_components(overflowing_sigma_data(), weights, config)

    @pytest.mark.parametrize("rule", list(RULES))
    def test_zero_sigma_fails_at_sigma_where_the_rule_needs_sigma(self, db10, dataset, rule):
        # all-zero data give sigma-hat = 0, which lpm and abe admit (they
        # are then the identity) and the other rules cannot use
        zeros = np.zeros_like(dataset.observed)
        if rule in ("lpm", "abe"):
            for output in OUTPUTS:
                estimate = estimate_components(zeros, dataset.weights,
                                               self.config(db10, rule, output))
                assert estimate.shape == (64, 2) and not estimate.any()
            return
        with pytest.raises(PipelineError, match=r"^\[sigma\] sigma must be finite .* got 0\.0$"):
            estimate_components(zeros, dataset.weights, self.config(db10, rule))

    def test_least_squares_overflow_names_its_stage(self, db10, dataset):
        for output in OUTPUTS:
            with pytest.raises(PipelineError, match=r"\[least-squares\] output has NaN or inf"):
                estimate_components(dataset.observed * 1e300, dataset.weights * 1e-12,
                                    self.config(db10, "lpm", output))

    def test_inverse_transform_overflow_names_its_stage(self, db10, dataset, monkeypatch):
        monkeypatch.setattr(decomposition, "solve_gamma",
                            lambda shrunk, prepared: np.full((64, 2), 1e308))
        with pytest.raises(PipelineError, match=r"\[inverse-transform\] output has NaN"):
            estimate_components(dataset.observed, dataset.weights,
                                self.config(db10, "abe"))
        # the coefficients are finite: without the inverse nothing fails
        assert (estimate_components(dataset.observed, dataset.weights,
                                    self.config(db10, "abe", "coefficients")) == 1e308).all()

    @pytest.mark.parametrize("rule", list(RULES))
    @pytest.mark.parametrize("k", [-1000, -500, 0, 500, 1000])
    def test_every_rule_at_every_scale_is_finite_or_names_a_stage(self, db10, dataset,
                                                                  rule, k):
        stages = ("transform", "sigma", "shrinkage", "least-squares", "inverse-transform")
        for output, named in zip(OUTPUTS, (stages, stages[:-1])):
            try:
                estimate = estimate_components(dataset.observed * 2.0 ** k, dataset.weights,
                                               self.config(db10, rule, output))
            except PipelineError as exc:
                assert exc.stage in named
            else:
                assert np.isfinite(estimate).all()


RULE_CONFIGS = [pytest.param(rule, sigma, id=f"{rule}-{source}") for rule in RULES
                for source, sigma in (("pooled", None), ("fixed", 0.3))]


def outcome(call):
    """The bytes a pipeline call returns, or the stage and message it fails with."""
    try:
        return call().tobytes()
    except PipelineError as exc:
        return exc.stage, str(exc)


@st.composite
def pipeline_inputs(draw):
    """(observed, weights, filter, J0, sigma) of a random shape: M = 2^J with
    4 <= J <= 7, 1 <= L <= I <= 12, 0 <= J0 < J, and sigma None (pooled) or
    a value on the rule spec."""
    J = draw(st.integers(4, 7))
    I = draw(st.integers(1, 12))
    L = draw(st.integers(1, min(I, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    observed = (rng.standard_normal((2 ** J, L)) @ rng.uniform(0.5, 1.5, (L, I))
                + draw(st.sampled_from([0.1, 1.0, 10.0])) * rng.standard_normal((2 ** J, I)))
    weights = rng.uniform(0.5, 1.5, (L, I))
    return (observed, weights, make_filter("daubechies", draw(st.sampled_from([1, 2, 4, 10]))),
            draw(st.integers(0, J - 1)), draw(st.sampled_from([None, 0.3])))


class TestPrepared:
    """`prepare` runs the rule-independent stages once, and every rule call on
    its `Prepared` dataset gives what a call on the raw inputs gives."""

    @staticmethod
    def config(filt, rule="lpm", J0=3, output="curves", sigma=None):
        spec = RULES[rule]() if sigma is None else RULES[rule](sigma=sigma)
        return EstimationConfig(filter=filt, rule=spec, J0=J0, output=output)

    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_dataset(DatasetSpec(components=STUDY_COMPONENTS[2], M=128,
                                            I=12, snr=3.0, seed=53))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(inputs=pipeline_inputs())
    def test_prepared_calls_have_the_bits_of_one_shot_calls(self, inputs):
        observed, weights, filt, J0, sigma = inputs
        prepared = prepare(observed, weights, self.config(filt, J0=J0))
        for rule in RULES:
            for output in OUTPUTS:
                config = self.config(filt, rule, J0, output, sigma)
                assert outcome(lambda: estimate_components(prepared, None, config)) == \
                    outcome(lambda: estimate_components(observed, weights, config))

    @staticmethod
    def nan_input(observed, weights):
        observed = observed.copy()
        observed[3, 2] = np.nan
        return observed, weights

    @staticmethod
    def rank_deficient(observed, weights):
        weights = weights.copy()
        weights[2] = 2.0 * weights[0]
        return observed, weights

    @pytest.mark.parametrize("make,stage,message", [
        (nan_input, "input", r"observed has NaN or inf in sample column\(s\) 2$"),
        (lambda A, y: (A * 1e307, y), "transform", r"output has NaN or inf$"),
        (lambda A, y: (A, y * 1e-320), "least-squares",
         r"the pseudo-inverse of the weights is not finite"),
        (rank_deficient, "least-squares", r"effective rank 3 < 4$"),
        (lambda A, y: (A[:, :3], y[:, :3]), "least-squares",
         r"underdetermined mixing: L=4 components, I=3 samples$"),
    ], ids=["nan", "transform-overflow", "subnormal-weights", "rank-deficient",
            "underdetermined"])
    @pytest.mark.parametrize("rule", list(RULES))
    def test_failures_keep_their_stage_and_message(self, db10, dataset, make, stage,
                                                   message, rule):
        # `prepare` fails as a call on the raw inputs does, with no numpy
        # warning (an error under this suite's filters)
        observed, weights = make(dataset.observed, dataset.weights)
        config = self.config(db10, rule)
        with pytest.raises(PipelineError) as one_shot:
            estimate_components(observed, weights, config)
        assert one_shot.value.stage == stage
        assert re.search(message, str(one_shot.value))
        with pytest.raises(PipelineError) as early:
            prepare(observed, weights, config)
        assert str(early.value) == str(one_shot.value)

    @pytest.mark.parametrize("rule", list(RULES))
    def test_weights_fail_before_the_rule_stages(self, db10, rule):
        # all-zero data give sigma-hat = 0, which log, beta and bams reject at
        # their sigma stage; the rank-deficient weights fail first, in
        # `prepare` and so in a one-shot call, for every rule
        weights = np.random.default_rng(0).uniform(0.5, 1.5, (2, 12))
        weights[1] = 2.0 * weights[0]
        config = self.config(db10, rule)
        for call in (prepare, estimate_components):
            with pytest.raises(PipelineError, match=r"^\[least-squares\] weights are rank "
                                                    r"deficient: .* effective rank 1 < 2$"):
                call(np.zeros((64, 12)), weights, config)

    @pytest.mark.parametrize("rule", list(RULES))
    def test_sigma_failure_names_its_stage(self, db10, dataset, monkeypatch, rule):
        def unusable(details):
            raise ValueError("no sigma-hat for these coefficients")

        monkeypatch.setattr(decomposition, "estimate_sigma", unusable)
        config = self.config(db10, rule)
        for call in (prepare, estimate_components):
            with pytest.raises(PipelineError, match=r"^\[sigma\] no sigma-hat for these "
                                                    r"coefficients$"):
                call(dataset.observed, dataset.weights, config)

    def test_prepared_is_read_only_and_its_own(self, db10, dataset):
        observed, weights = dataset.observed.copy(), dataset.weights.copy()
        config = self.config(db10, "bams")
        prepared = prepare(observed, weights, config)
        want = estimate_components(prepared, None, config)
        for array in (prepared.coefficients, prepared.pseudoinverse, prepared.low_pass):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        with pytest.raises(AttributeError):
            prepared.sigma = 1.0
        assert observed.flags.writeable and weights.flags.writeable
        observed *= 2.0  # later edits of the caller's arrays do not reach it
        weights[0] = 0.0
        assert estimate_components(prepared, None, config).tobytes() == want.tobytes()
        assert want.tobytes() == estimate_components(dataset.observed, dataset.weights,
                                                     config).tobytes()

    def test_other_filter_or_j0_fails_at_input(self, db10, dataset):
        prepared = prepare(dataset.observed, dataset.weights, self.config(db10))
        db4 = make_filter("daubechies", 4)
        for config in (self.config(db4), self.config(db10, J0=2)):
            with pytest.raises(PipelineError, match=r"^\[input\] the dataset was prepared "
                                                    r"with another filter or J0"):
                estimate_components(prepared, None, config)
        # a filter built apart from make_filter, with the same taps, is the same filter
        same = WaveletFilter(np.array(db10.low_pass), 10)
        assert same is not db10
        assert estimate_components(prepared, None, self.config(same)).tobytes() == \
            estimate_components(prepared, None, self.config(db10)).tobytes()
        with pytest.raises(PipelineError, match=r"^\[input\] a Prepared dataset takes "
                                                r"weights=None"):
            estimate_components(prepared, dataset.weights, self.config(db10))

    def test_threads_sharing_prepared_datasets(self, db10):
        # four threads run two rules on two datasets, each dataset prepared
        # once and shared, and prepared afresh by the thread; no thread's
        # result may carry another dataset's coefficients
        datasets = [generate_dataset(DatasetSpec(components=("bumps", "blocks"), M=64,
                                                 I=6, snr=3.0, seed=s)) for s in (1, 2)]
        configs = [self.config(db10, rule) for rule in ("lpm", "bams")]
        shared = [prepare(d.observed, d.weights, configs[0]) for d in datasets]
        want = [[column_by_column(d.observed, d.weights, c) for c in configs]
                for d in datasets]
        wrong = []

        def work(offset):
            for k in range(60):
                i, j = (k + offset) % 2, (k // 2) % 2
                prepared = shared[i] if k % 3 else prepare(
                    datasets[i].observed, datasets[i].weights, configs[j])
                if not np.array_equal(estimate_components(prepared, None, configs[j]),
                                      want[i][j]):
                    wrong.append((i, j))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


# Minor page faults of 20 beta calls on one study-3 dataset after a warm-up
# call, in a fresh interpreter, whose heap no earlier test has grown
_FAULTS_OF_REPEATED_CALLS = """
import resource
from wavecal.decomposition import EstimationConfig, estimate_components
from wavecal.shrinkage import Beta
from wavecal.simharness import STUDY_COMPONENTS
from wavecal.testbed import DatasetSpec, generate_dataset
from wavecal.wavelet import make_filter

ds = generate_dataset(DatasetSpec(components=STUDY_COMPONENTS[3], M=1024, I=50,
                                  snr=3.0, seed=5))
config = EstimationConfig(filter=make_filter("daubechies", 10), rule=Beta(), J0=3)
estimate_components(ds.observed, ds.weights, config)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    estimate_components(ds.observed, ds.weights, config)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the kept heap rests on glibc's dynamic mmap threshold")
def test_repeated_calls_keep_their_heap():
    # the shrinkage blocks' temporaries are reused from the heap, not handed
    # back to the kernel and faulted in again on every block
    run = subprocess.run([sys.executable, "-c", _FAULTS_OF_REPEATED_CALLS],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 200


def test_estimates_csv_round_trip(tmp_path):
    import csv as csvmod

    rng = np.random.default_rng(3)
    alpha = rng.standard_normal((8, 2))
    grid = sample_grid(8)
    path = tmp_path / "alpha.csv"
    estimates_to_csv(alpha, grid, path)
    with open(path, newline="") as fh:
        rows = list(csvmod.DictReader(fh))
    assert len(rows) == 16
    got = np.full((8, 2), np.nan)
    for row in rows:
        m = int(round(float(row["t"]) * 8)) - 1
        got[m, int(row["component_index"])] = float(row["estimate"])
    np.testing.assert_array_equal(got, alpha)


def test_estimates_csv_bytes_match_csv_writer(tmp_path):
    import csv as csvmod

    rng = np.random.default_rng(5)
    alpha = rng.standard_normal((16, 3)) * np.logspace(-20, 20, 16)[:, None]
    alpha[0, 0], alpha[1, 1] = -0.0, 1e-310
    grid = sample_grid(16)
    estimates_to_csv(alpha, grid, tmp_path / "fast.csv")
    with open(tmp_path / "reference.csv", "w", newline="") as fh:
        writer = csvmod.writer(fh)
        writer.writerow(["t", "component_index", "estimate"])
        for l in range(3):
            for m in range(16):
                writer.writerow([format(float(grid[m]), ".17g"), l,
                                 format(float(alpha[m, l]), ".17g")])
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

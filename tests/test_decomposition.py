"""Least-squares recovery and the end-to-end estimation pipeline."""

import numpy as np
import pytest

from wavecal.decomposition import (
    EstimationConfig,
    PipelineError,
    RankDeficiencyError,
    estimate_components,
    estimates_to_csv,
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
    component_function,
    generate_dataset,
    sample_grid,
    standard_normal,
)
from wavecal.wavelet import Pyramid, make_filter, transform_columns


def column_by_column(observed, weights, config):
    """The pipeline with one Pyramid, one resolve_rule and one shrink_pyramid
    call per observed column."""
    D = transform_columns(observed, config.filter, config.J0, "forward")
    per_column = [estimate_sigma(D[D.shape[0] // 2:, i]) for i in range(D.shape[1])]
    sigmas = {"fixed": [config.sigma_value] * D.shape[1], "per-column": per_column,
              "pooled": [float(np.mean(per_column))] * D.shape[1]}[config.sigma_mode]
    shrunk = np.empty_like(D)
    for i in range(D.shape[1]):
        pyr = Pyramid.from_flat(D[:, i], config.J0)
        rule = resolve_rule(config.rule, sigmas[i], pyr)
        shrunk[:, i] = shrink_pyramid(pyr, rule, config.policy).to_flat()
    return transform_columns(solve_gamma(shrunk, weights), config.filter, config.J0,
                             "inverse")


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
        gamma = solve_gamma(D, np.ones((1, 6)))
        np.testing.assert_allclose(gamma[:, 0], D.mean(axis=1), rtol=0, atol=1e-12)

    def test_square_weights_interpolate(self):
        rng = np.random.default_rng(2)
        D = rng.standard_normal((8, 3))
        y = rng.uniform(0.5, 1.5, (3, 3))
        gamma = solve_gamma(D, y)
        np.testing.assert_allclose(gamma, D @ np.linalg.inv(y), rtol=0, atol=1e-8)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(3)
        D = rng.standard_normal((8, 5))
        y = rng.uniform(0.5, 1.5, (2, 5))
        np.testing.assert_allclose(solve_gamma(D, y),
                                   normal_equations_longdouble(D, y),
                                   rtol=0, atol=1e-8)

    def test_oracle_sweep(self):
        # acceptance-scale sweep: 100 random instances, M=64, I=10, L in {2,4,6}
        rng = np.random.default_rng(17)
        for trial in range(100):
            L = (2, 4, 6)[trial % 3]
            D = rng.standard_normal((64, 10))
            y = rng.uniform(0.5, 1.5, (L, 10))
            np.testing.assert_allclose(solve_gamma(D, y),
                                       normal_equations_longdouble(D, y),
                                       rtol=0, atol=1e-8)

    def test_residual_orthogonal_to_row_space(self):
        rng = np.random.default_rng(4)
        D = rng.standard_normal((32, 9))
        y = rng.uniform(0.5, 1.5, (3, 9))
        gamma = solve_gamma(D, y)
        resid = D - gamma @ y
        assert np.max(np.abs(resid @ y.T)) < 1e-8

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(5)
        D = rng.standard_normal((16, 7))
        y = rng.uniform(0.5, 1.5, (2, 7))
        perm = rng.permutation(7)
        base = solve_gamma(D, y)
        permuted = solve_gamma(D[:, perm], y[:, perm])
        np.testing.assert_allclose(permuted, base, rtol=0, atol=1e-10)

    def test_rank_deficiency_detected(self):
        rng = np.random.default_rng(6)
        D = rng.standard_normal((8, 6))
        y = rng.uniform(0.5, 1.5, (1, 6))
        y = np.vstack([y, 2.0 * y])  # duplicated direction
        with pytest.raises(RankDeficiencyError, match="rank"):
            solve_gamma(D, y)

    def test_underdetermined_rejected(self):
        with pytest.raises(RankDeficiencyError):
            solve_gamma(np.zeros((4, 2)), np.ones((3, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_gamma(np.zeros((4, 5)), np.ones((2, 6)))


class TestEstimateComponents:
    @pytest.mark.parametrize("rule", [Lpm(), Abe()])
    def test_noise_free_recovery(self, db10, rule):
        spec = DatasetSpec(components=("bumps", "blocks"), M=512, I=50,
                           snr=3.0, seed=7)
        ds = generate_dataset(spec)
        config = EstimationConfig(filter=db10, rule=rule, J0=3,
                                  sigma_mode="fixed", sigma_value=0.0)
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
    @pytest.mark.parametrize("mode", ["pooled", "per-column"])
    def test_permutation_consistency(self, db10, rule, mode):
        # permuting the samples together with their weight columns permutes
        # the columns of every stage up to least squares; only the order of
        # floating-point sums changes
        spec = DatasetSpec(components=STUDY_COMPONENTS[2], M=512, I=50, snr=3.0, seed=13)
        ds = generate_dataset(spec)
        config = EstimationConfig(filter=db10, rule=RULES[rule](), J0=3,
                                  policy=LevelPolicy(J0=3), sigma_mode=mode)
        base = estimate_components(ds.observed, ds.weights, config)
        perm = np.random.default_rng(0).permutation(50)
        swapped = estimate_components(ds.observed[:, perm], ds.weights[:, perm], config)
        np.testing.assert_allclose(swapped, base, rtol=0,
                                   atol=1e-12 * np.max(np.abs(base)))

    def test_mse_decreases_with_more_samples(self, db10):
        # L=1 with unit weights: averaging I samples shrinks the noise floor
        truth = component_function("doppler")(sample_grid(256)).reshape(-1, 1)
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
    @pytest.mark.parametrize("mode,value", [("pooled", None), ("per-column", None),
                                            ("fixed", 0.4)])
    def test_matches_column_by_column_pipeline(self, db10, rule, policy, mode, value):
        spec = DatasetSpec(components=("bumps", "blocks", "doppler"), M=256, I=12,
                           snr=4.0, seed=29)
        ds = generate_dataset(spec)
        config = EstimationConfig(filter=db10, rule=rule, J0=3, policy=policy,
                                  sigma_mode=mode, sigma_value=value)
        got = estimate_components(ds.observed, ds.weights, config)
        want = column_by_column(ds.observed, ds.weights, config)
        if isinstance(rule, (Logistic, Beta)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)
        else:
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observations_rejected(self, db10, bad):
        ds = generate_dataset(DatasetSpec(components=("bumps",), M=64, I=6,
                                          snr=3.0, seed=31))
        observed = ds.observed.copy()
        observed[10, 4] = bad
        config = EstimationConfig(filter=db10, rule=Lpm(), J0=3)
        with pytest.raises(PipelineError, match=r"\[input\] observed .* column\(s\) 4$"):
            estimate_components(observed, ds.weights, config)

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

    def test_sigma_modes_differ_only_in_scale_source(self, db10):
        spec = DatasetSpec(components=("heavisine",), M=128, I=6, snr=3.0, seed=17)
        ds = generate_dataset(spec)
        for mode, value in (("pooled", None), ("per-column", None), ("fixed", 0.5)):
            config = EstimationConfig(filter=db10, rule=Lpm(), J0=3,
                                      sigma_mode=mode, sigma_value=value)
            alpha_hat = estimate_components(ds.observed, ds.weights, config)
            assert alpha_hat.shape == (128, 1)
            assert np.all(np.isfinite(alpha_hat))

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
        with pytest.raises(PipelineError, match=r"\[input\]"):
            estimate_components(np.zeros((128, 4)), np.ones((1, 3)), config)

    def test_stage_label_on_rank_deficiency(self, db10):
        rng = np.random.default_rng(23)
        observed = rng.standard_normal((128, 6))
        y = np.vstack([np.ones((1, 6)), np.ones((1, 6))])
        config = EstimationConfig(filter=db10, rule=Abe(), J0=3)
        with pytest.raises(PipelineError, match=r"\[least-squares\]"):
            estimate_components(observed, y, config)

    def test_config_validation(self, db10):
        with pytest.raises(ValueError):
            EstimationConfig(filter=db10, rule=Abe(), sigma_mode="fixed")
        with pytest.raises(ValueError):
            EstimationConfig(filter=db10, rule=Abe(), sigma_mode="guess")
        with pytest.raises(ValueError):
            EstimationConfig(filter=db10, rule=Abe(), sigma_value=1.0)

    @pytest.mark.parametrize("policy_j0", [1, 5])
    def test_policy_j0_must_match_config(self, db10, policy_j0):
        # a smaller policy J0 would silently shift p(j); a larger one would
        # fail deep in the shrinkage stage
        with pytest.raises(ValueError, match=f"policy J0 = {policy_j0} differs"):
            EstimationConfig(filter=db10, rule=Logistic(), J0=3,
                             policy=LevelPolicy(J0=policy_j0))


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

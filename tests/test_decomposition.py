"""Least-squares recovery and the end-to-end estimation pipeline."""

import sys
import threading
from dataclasses import fields, replace

import numpy as np
import pytest

from wavecal import decomposition, shrinkage
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
    sigma = float(np.mean([estimate_sigma(D[D.shape[0] // 2:, i])
                           for i in range(D.shape[1])]))
    shrunk = np.empty_like(D)
    for i in range(D.shape[1]):
        pyr = Pyramid(D[:, i], config.J0)
        shrunk[:, i] = shrink_pyramid(pyr, resolve_rule(config.rule, sigma), config.policy).flat
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


def carrying_sigma(rule, sigma):
    """``rule`` with its own noise sd ``sigma``; for BAMS, the scales that
    resolve_rule derives from it."""
    if isinstance(rule, Bams):
        return replace(rule, tau=3.0 * sigma, mu=1.0 / sigma ** 2)
    return replace(rule, sigma=sigma)


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
            np.testing.assert_allclose(solve_gamma(D, y), want, rtol=1e-12,
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
        np.testing.assert_allclose(solve_gamma(D, y), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("ratio", [0.99e-10, 1e-12, 0.0])
    def test_rank_tolerance_just_outside(self, ratio):
        rng = np.random.default_rng(47)
        u = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        v = np.linalg.qr(rng.standard_normal((9, 3)))[0]
        y = (u * [1.0, 0.5, ratio]) @ v.T
        assert np.linalg.lstsq(y.T, np.zeros((9, 1)), rcond=decomposition._RANK_RTOL)[2] < 3
        with pytest.raises(RankDeficiencyError, match=r"effective rank 2 < 3"):
            solve_gamma(rng.standard_normal((16, 9)), y)

    def test_all_zero_weights(self):
        with pytest.raises(RankDeficiencyError, match=r"least-squares rank 0 < 2"):
            solve_gamma(np.ones((4, 3)), np.zeros((2, 3)))


def fresh_pinv_solution(D, y):
    """solve_gamma's arithmetic on a fresh thin SVD of the weights."""
    u, svals, vt = np.linalg.svd(y, full_matrices=False)
    return D @ (vt.T / svals @ u.T)


class TestPseudoinverseCache:
    """solve_gamma reuses the pseudo-inverse of the last weights it saw when
    the next weights have the same bits."""

    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(decomposition, "_pseudoinverse", decomposition._LastResult())

    @staticmethod
    def same_bits(a, b):
        return np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_alternating_and_mutated_weights(self):
        rng = np.random.default_rng(17)
        A, B = rng.uniform(0.5, 1.5, (4, 50)), rng.uniform(0.5, 1.5, (4, 50))
        D = rng.standard_normal((128, 50))
        for y in (A, B, A, A):
            assert self.same_bits(solve_gamma(D, y), fresh_pinv_solution(D, y))
            assert self.same_bits(solve_gamma(2.0 * D, y), fresh_pinv_solution(2.0 * D, y))
        entry = decomposition._pseudoinverse.entry
        solve_gamma(D, A.copy())
        assert decomposition._pseudoinverse.entry is entry  # a hit keeps the entry
        A[2, 7] += 1e-3  # in place: the cache holds its own copy of the key
        assert self.same_bits(solve_gamma(D, A), fresh_pinv_solution(D, A))
        assert decomposition._pseudoinverse.entry is not entry
        (weights,), pinv = decomposition._pseudoinverse.entry
        assert not weights.flags.writeable
        assert not pinv.flags.writeable

    def test_key_is_bitwise(self):
        y = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
        D = np.ones((4, 3))
        solve_gamma(D, y)
        entry = decomposition._pseudoinverse.entry
        negative_zero = y.copy()
        negative_zero[0, 1] = -0.0
        assert self.same_bits(solve_gamma(D, negative_zero),
                              fresh_pinv_solution(D, negative_zero))
        assert decomposition._pseudoinverse.entry is not entry

    def test_rank_deficient_weights_raise_on_every_call(self):
        rng = np.random.default_rng(19)
        good = rng.uniform(0.5, 1.5, (3, 9))
        bad = good.copy()
        bad[2] = 2.0 * bad[0]
        D = rng.standard_normal((16, 9))
        for y in (good, bad, bad, good, bad):
            if y is good:
                assert self.same_bits(solve_gamma(D, y), fresh_pinv_solution(D, y))
                continue
            with pytest.raises(RankDeficiencyError, match=r"effective rank 2 < 3"):
                solve_gamma(D, y)
            (weights,), _ = decomposition._pseudoinverse.entry
            assert self.same_bits(weights, good)


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
        rule = RULES[rule]() if sigma is None else carrying_sigma(RULES[rule](), sigma)
        config = EstimationConfig(filter=db10, rule=rule, J0=3)
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
    @pytest.mark.parametrize("source,sigma", [("pooled", None), ("fixed", 0.4)])
    def test_matches_column_by_column_pipeline(self, db10, rule, policy, source, sigma):
        spec = DatasetSpec(components=("bumps", "blocks", "doppler"), M=256, I=12,
                           snr=4.0, seed=29)
        ds = generate_dataset(spec)
        if sigma is not None:
            rule = carrying_sigma(rule, sigma)
        config = EstimationConfig(filter=db10, rule=rule, J0=3, policy=policy)
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
        fixed = replace(pooled, rule=carrying_sigma(RULES[rule](), sigma_hat))
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
        # sigma comes from the data or the rule spec; the config has no say in it
        assert [f.name for f in fields(EstimationConfig)] == ["filter", "rule", "J0",
                                                              "policy"]
        with pytest.raises(TypeError):
            EstimationConfig(filter=db10, rule=Abe(), sigma_mode="fixed")
        with pytest.raises(TypeError):
            EstimationConfig(filter=db10, rule=Abe(), sigma_value=1.0)
        with pytest.raises(ValueError, match="J0 must be >= 0"):
            EstimationConfig(filter=db10, rule=Abe(), J0=-1)

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


class TestNoSilentNonFiniteEstimate:
    """Every failure names its stage, and no estimate comes back with NaN or inf."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_dataset(DatasetSpec(components=("bumps", "blocks"), M=64, I=12,
                                            snr=5.0, seed=3))

    @staticmethod
    def config(db10, rule):
        return EstimationConfig(filter=db10, rule=RULES[rule](), J0=3)

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
        with pytest.raises(PipelineError, match=r"\[shrinkage\] output has NaN or inf"):
            estimate_components(dataset.observed, dataset.weights, self.config(db10, "lpm"))

    def test_log_sigma_too_large_is_a_shrinkage_failure(self, db10, dataset):
        # at this scale sigma^2 / tau overflows, and log's table sums would be NaN
        with pytest.raises(PipelineError, match=r"\[shrinkage\] logistic_rule: sigma\^2 / tau"):
            estimate_components(dataset.observed * 1e300, dataset.weights,
                                self.config(db10, "log"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("rule", list(RULES))
    def test_overflowing_sigma_is_a_shrinkage_failure(self, db10, rule):
        # every column's finest details are finite, near 1.4e307, but their
        # pooled sigma-hat overflows to inf; lpm and abe used to zero every
        # detail with it and return an estimate without an error
        rng = np.random.default_rng(0)
        alternating = np.where(np.arange(64) % 2, 1.0, -1.0)[:, None] * np.full((64, 12), 1e307)
        with pytest.raises(PipelineError, match=r"\[shrinkage\] .* must be finite"):
            estimate_components(alternating, rng.uniform(0.5, 1.5, (2, 12)),
                                self.config(db10, rule))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_least_squares_overflow_names_its_stage(self, db10, dataset):
        with pytest.raises(PipelineError, match=r"\[least-squares\] output has NaN or inf"):
            estimate_components(dataset.observed * 1e300, dataset.weights * 1e-12,
                                self.config(db10, "lpm"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_inverse_transform_overflow_names_its_stage(self, db10, dataset, monkeypatch):
        monkeypatch.setattr(decomposition, "solve_gamma",
                            lambda shrunk, weights: np.full((64, 2), 1e308))
        with pytest.raises(PipelineError, match=r"\[inverse-transform\] output has NaN"):
            estimate_components(dataset.observed, dataset.weights,
                                self.config(db10, "abe"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("rule", list(RULES))
    @pytest.mark.parametrize("k", [-1000, -500, 0, 500, 1000])
    def test_every_rule_at_every_scale_is_finite_or_names_a_stage(self, db10, dataset,
                                                                  rule, k):
        try:
            alpha = estimate_components(dataset.observed * 2.0 ** k, dataset.weights,
                                        self.config(db10, rule))
        except PipelineError as exc:
            assert exc.stage in ("transform", "sigma", "shrinkage", "least-squares",
                                 "inverse-transform")
        else:
            assert np.isfinite(alpha).all()


RULE_CONFIGS = [pytest.param(rule, sigma, id=f"{rule}-{source}") for rule in RULES
                for source, sigma in (("pooled", None), ("fixed", 0.3))]


class TestRuleIndependentMemo:
    """estimate_components shares the forward transform and sigma-hat of the
    last (observed, filter, J0) it saw."""

    @pytest.fixture
    def forward_calls(self, monkeypatch):
        calls = []
        transform = decomposition.transform_columns

        def counted(matrix, filt, J0, direction="forward"):
            if direction == "forward":
                calls.append(J0)
            return transform(matrix, filt, J0, direction)

        monkeypatch.setattr(decomposition, "transform_columns", counted)
        monkeypatch.setattr(decomposition, "_transformed", decomposition._LastResult())
        return calls

    @staticmethod
    def config(filt, rule="lpm", sigma=None, J0=3):
        spec = RULES[rule]() if sigma is None else carrying_sigma(RULES[rule](), sigma)
        return EstimationConfig(filter=filt, rule=spec, J0=J0)

    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_dataset(DatasetSpec(components=STUDY_COMPONENTS[2], M=128,
                                            I=12, snr=3.0, seed=53))

    @pytest.mark.parametrize("rule,sigma", RULE_CONFIGS)
    def test_hit_is_bit_equal_to_cleared_memo(self, db10, dataset, forward_calls,
                                              monkeypatch, rule, sigma):
        config = self.config(db10, rule, sigma)
        estimate_components(dataset.observed, dataset.weights, self.config(db10))
        hit = estimate_components(dataset.observed, dataset.weights, config)
        assert len(forward_calls) == 1
        monkeypatch.setattr(decomposition, "_transformed", decomposition._LastResult())
        miss = estimate_components(dataset.observed, dataset.weights, config)
        assert len(forward_calls) == 2
        assert hit.tobytes() == miss.tobytes()

    def test_in_place_change_recomputes(self, db10, dataset, forward_calls):
        observed = dataset.observed.copy()
        config = self.config(db10)
        first = estimate_components(observed, dataset.weights, config)
        observed[5, 3] += 1.0
        second = estimate_components(observed, dataset.weights, config)
        assert len(forward_calls) == 2
        assert not np.array_equal(first, second)
        observed[5, 3] -= 1.0
        np.testing.assert_array_equal(
            estimate_components(observed, dataset.weights, config), first)
        assert len(forward_calls) == 3

    def test_key_is_bitwise(self, db10, forward_calls):
        # 0.0 == -0.0, but the two may transform to zeros of different sign
        observed = np.zeros((16, 2))
        config = self.config(db10, "abe", 0.3, J0=1)
        estimate_components(observed, np.ones((1, 2)), config)
        observed[3, 1] = -0.0
        estimate_components(observed, np.ones((1, 2)), config)
        assert len(forward_calls) == 2

    def test_other_filter_or_j0_misses(self, db10, dataset, forward_calls):
        db4 = make_filter("daubechies", 4)
        for filt, J0 in ((db10, 3), (db10, 2), (db4, 2), (db4, 2)):
            estimate_components(dataset.observed, dataset.weights,
                                self.config(filt, J0=J0))
        assert forward_calls == [3, 2, 2]

    def test_cached_arrays_are_read_only(self, db10, dataset, forward_calls):
        estimate_components(dataset.observed, dataset.weights, self.config(db10))
        (observed, taps, _), (coefficients, _) = decomposition._transformed.entry
        for array in (observed, taps, coefficients):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        assert dataset.observed.flags.writeable

    def test_sigma_failure_names_its_stage(self, db10, dataset, forward_calls,
                                           monkeypatch):
        def unusable(details):
            raise ValueError("no sigma-hat for these coefficients")

        monkeypatch.setattr(decomposition, "estimate_sigma", unusable)
        with pytest.raises(PipelineError, match=r"\[sigma\] no sigma-hat"):
            estimate_components(dataset.observed, dataset.weights, self.config(db10))
        assert decomposition._transformed.entry is None

    def test_threads_sharing_the_memo(self, db10):
        # each call reads the cache entry once and replaces it whole; alternating
        # datasets across threads must never mix one's coefficients into another
        datasets = [generate_dataset(DatasetSpec(components=("bumps", "blocks"), M=64,
                                                 I=6, snr=3.0, seed=s)) for s in (1, 2)]
        configs = [self.config(db10, rule) for rule in ("lpm", "bams")]
        want = [[column_by_column(d.observed, d.weights, c) for c in configs]
                for d in datasets]
        wrong = []

        def work(offset):
            for k in range(60):
                i, j = (k + offset) % 2, (k // 2) % 2
                got = estimate_components(datasets[i].observed, datasets[i].weights,
                                          configs[j])
                if not np.array_equal(got, want[i][j]):
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

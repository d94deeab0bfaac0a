"""Component test functions, sampling design, and dataset generation."""

import csv

import numpy as np
import pytest

from wavecal.testbed import (
    COMPONENT_NAMES,
    DatasetSpec,
    component_function,
    dataset_to_csv,
    draw_weights,
    eval_component,
    generate_dataset,
    sample_grid,
    sigma_for_snr,
)

# frozen regression value: sigma_true for (bumps, blocks), M=512, I=50,
# snr=3, seed=42 under the default uniform weight scheme
SIGMA_SMOKE = 0.6706154232611629


def rank_by_pivoted_elimination(matrix, tol=1e-10):
    """Gaussian elimination with partial pivoting; counts usable pivots."""
    a = np.array(matrix, dtype=float)
    rows, cols = a.shape
    rank = 0
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        pivot = row + int(np.argmax(np.abs(a[row:, col])))
        if abs(a[pivot, col]) < tol:
            continue
        a[[row, pivot]] = a[[pivot, row]]
        a[row + 1:] -= np.outer(a[row + 1:, col] / a[row, col], a[row])
        row += 1
        rank += 1
    return rank


class TestComponentFunctions:
    def test_logit_midpoint(self):
        assert eval_component("logit", 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_blocks_midpoint(self):
        # sum of the seven jump heights left of 0.5
        assert eval_component("blocks", 0.5) == pytest.approx(0.9, abs=1e-12)

    def test_heavisine_midpoint(self):
        assert eval_component("heavisine", 0.5) == pytest.approx(-2.0, abs=1e-12)

    def test_sqrt_factor_vanishes_at_zero(self):
        assert eval_component("doppler", 0.0) == 0.0
        assert eval_component("spahet", 0.0) == 0.0

    def test_bumps_nonnegative(self):
        x = np.linspace(0, 1, 4097)
        assert np.all(component_function("bumps")(x) >= 0.0)

    def test_blocks_piecewise_constant(self):
        f = component_function("blocks")
        jumps = [0.1, 0.13, 0.15, 0.23, 0.25, 0.40, 0.44, 0.65, 0.76, 0.78, 0.81]
        edges = [0.0] + jumps + [1.0]
        for lo, hi in zip(edges, edges[1:]):
            inner = np.linspace(lo + 1e-6, hi - 1e-6, 25)
            vals = f(inner)
            assert np.max(vals) - np.min(vals) == 0.0

    def test_blocks_jump_locations(self):
        f = component_function("blocks")
        for x in [0.1, 0.13, 0.15]:
            assert f(np.array([x - 1e-9]))[0] != f(np.array([x + 1e-9]))[0]

    def test_vectorized_equals_pointwise(self):
        x = np.linspace(0, 1, 101)
        for name in COMPONENT_NAMES:
            f = component_function(name)
            np.testing.assert_array_equal(f(x), [f(float(v)) for v in x])

    def test_domain_error(self):
        with pytest.raises(ValueError):
            eval_component("bumps", 1.5)
        with pytest.raises(ValueError):
            eval_component("bumps", -0.1)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            component_function("wiggles")


class TestSampleGrid:
    def test_small_grid(self):
        np.testing.assert_allclose(sample_grid(4), [0.25, 0.5, 0.75, 1.0], rtol=0, atol=0)

    def test_m512(self):
        t = sample_grid(512)
        assert t.size == 512
        assert t[0] == pytest.approx(1 / 512)
        assert t[-1] == 1.0

    def test_equal_spacing(self):
        t = sample_grid(512)
        d = np.diff(t)
        assert np.max(np.abs(d - 1 / 512)) < 1e-15

    def test_too_small(self):
        with pytest.raises(ValueError):
            sample_grid(1)


class TestDrawWeights:
    def test_uniform_range(self):
        rng = np.random.default_rng(0)
        y = draw_weights(3, 40, rng)
        assert y.shape == (3, 40)
        assert np.all(y >= 0.5) and np.all(y <= 1.5)

    def test_full_rank_over_seeded_draws(self):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            y = draw_weights(3, 6, rng)
            assert rank_by_pivoted_elimination(y) == 3

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            draw_weights(4, 3)


class TestSigmaForSnr:
    def test_definition(self):
        # noiseless values with sd 3 and snr 3 give sigma 1
        truth = np.array([[3.0], [-3.0], [3.0], [-3.0]])
        weights = np.ones((1, 2))
        assert sigma_for_snr(truth, weights, 3.0) == pytest.approx(1.0)

    def test_snr_proportionality(self):
        rng = np.random.default_rng(5)
        truth = rng.standard_normal((64, 2))
        weights = rng.uniform(0.5, 1.5, (2, 7))
        assert sigma_for_snr(truth, weights, 6.0) == pytest.approx(
            sigma_for_snr(truth, weights, 3.0) / 2.0)

    def test_simulation_one_smoke_value(self):
        ds = generate_dataset(DatasetSpec(components=("bumps", "blocks"),
                                          M=512, I=50, snr=3.0, seed=42))
        assert ds.sigma_true == pytest.approx(SIGMA_SMOKE, rel=1e-14)
        assert 0.0 < ds.sigma_true < np.inf

    def test_constant_matrix_rejected(self):
        with pytest.raises(ValueError):
            sigma_for_snr(np.ones((8, 1)), np.ones((1, 2)), 3.0)

    def test_nonpositive_snr_rejected(self):
        for snr in (0.0, float("nan")):
            with pytest.raises(ValueError):
                sigma_for_snr(np.random.default_rng(0).standard_normal((8, 1)),
                              np.ones((1, 2)), snr)


class TestGenerateDataset:
    def test_noise_free_limit(self, monkeypatch):
        # force sigma to 0: observed must equal truth @ weights exactly
        monkeypatch.setattr("wavecal.testbed.sigma_for_snr",
                            lambda truth, weights, snr: 0.0)
        ds = generate_dataset(DatasetSpec(components=("bumps",), M=64, I=4,
                                          snr=5.0, seed=3))
        np.testing.assert_array_equal(ds.observed, ds.truth @ ds.weights)

    def test_same_seed_bit_identical(self):
        spec = DatasetSpec(components=("doppler", "logit"), M=128, I=8,
                           snr=4.0, seed=99)
        a, b = generate_dataset(spec), generate_dataset(spec)
        np.testing.assert_array_equal(a.observed, b.observed)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.sigma_true == b.sigma_true

    def test_substream_changes_draws(self):
        spec = DatasetSpec(components=("bumps",), M=64, I=4, snr=3.0, seed=1)
        a = generate_dataset(spec, seed_seq=np.random.SeedSequence(1, spawn_key=(0,)))
        b = generate_dataset(spec, seed_seq=np.random.SeedSequence(1, spawn_key=(1,)))
        assert not np.array_equal(a.observed, b.observed)

    def test_residual_sd_matches_sigma(self):
        # law of large numbers at M*I = 512*50 = 25600 draws
        spec = DatasetSpec(components=("bumps", "blocks"), M=512, I=50,
                           snr=3.0, seed=42)
        ds = generate_dataset(spec)
        resid = ds.observed - ds.truth @ ds.weights
        assert np.std(resid) == pytest.approx(ds.sigma_true, rel=0.05)

    def test_truth_is_each_datasets_own_writable_copy(self):
        # the curves are evaluated once per (components, M); a dataset that
        # writes to its truth changes no other dataset's
        spec = DatasetSpec(components=("doppler", "bumps"), M=128, I=4, snr=3.0, seed=5)
        a = generate_dataset(spec, seed_seq=np.random.SeedSequence(5, spawn_key=(0,)))
        b = generate_dataset(spec, seed_seq=np.random.SeedSequence(5, spawn_key=(1,)))
        assert a.truth.flags.writeable and b.truth.flags.writeable
        assert not np.shares_memory(a.truth, b.truth)
        want = np.column_stack([component_function(c)(sample_grid(128))
                                for c in spec.components])
        a.truth[:] = 0.0
        for ds in (b, generate_dataset(spec)):
            assert np.array_equal(ds.truth.view(np.uint64), want.view(np.uint64))

    def test_dimensions(self):
        spec = DatasetSpec(components=COMPONENT_NAMES, M=256, I=12, snr=9.0, seed=0)
        ds = generate_dataset(spec)
        assert ds.truth.shape == (256, 6)
        assert ds.weights.shape == (6, 12)
        assert ds.observed.shape == (256, 12)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DatasetSpec(components=("bumps",), M=100, I=4, snr=3.0)
        with pytest.raises(ValueError):
            DatasetSpec(components=("bumps", "blocks"), M=64, I=1, snr=3.0)
        with pytest.raises(ValueError):
            DatasetSpec(components=(), M=64, I=4, snr=3.0)

    @pytest.mark.parametrize("snr", [0.0, float("nan")])
    def test_snr_not_positive_rejected(self, snr):
        with pytest.raises(ValueError, match="snr must be positive"):
            DatasetSpec(components=("bumps",), M=64, I=4, snr=snr)

    @pytest.mark.parametrize("snr", [1e-310, 5e-324])
    def test_subnormal_snr_rejected(self, snr):
        # the spec is valid, but sd / snr overflows to an infinite noise sd
        spec = DatasetSpec(components=("bumps", "blocks"), M=64, I=4, snr=snr)
        with pytest.raises(ValueError, match="too small"):
            generate_dataset(spec)


class TestCsvExport:
    def test_dataset_round_trip(self, tmp_path):
        spec = DatasetSpec(components=("logit",), M=16, I=3, snr=2.0, seed=8)
        ds = generate_dataset(spec)
        path = tmp_path / "data.csv"
        dataset_to_csv(ds, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16 * 3
        got = np.full((16, 3), np.nan)
        grid = list(ds.grid)
        for row in rows:
            m = grid.index(float(row["t"]))
            got[m, int(row["sample_id"])] = float(row["value"])
        np.testing.assert_array_equal(got, ds.observed)

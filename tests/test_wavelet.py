"""Transform correctness: filter invariants, round trips, energy, moments."""

import numpy as np
import pytest

from wavecal.wavelet import (
    DAUBECHIES_LOWPASS,
    Pyramid,
    UnsupportedFilterError,
    WaveletFilter,
    dwt,
    idwt,
    make_filter,
    transform_columns,
)


def haar_butterfly(x, J0):
    """Independent scalar Haar recursion: a'=(a0+a1)/sqrt2, d'=(a0-a1)/sqrt2."""
    a = [float(v) for v in x]
    details = []
    root2 = np.sqrt(2.0)
    while len(a) > 2 ** J0:
        nxt, det = [], []
        for k in range(len(a) // 2):
            nxt.append((a[2 * k] + a[2 * k + 1]) / root2)
            det.append((a[2 * k] - a[2 * k + 1]) / root2)
        details.append(np.array(det))
        a = nxt
    details.reverse()
    return np.array(a), details


class TestMakeFilter:
    def test_haar_taps_analytic(self):
        f = make_filter("daubechies", 1)
        np.testing.assert_allclose(f.low_pass, [1 / np.sqrt(2)] * 2, rtol=0, atol=1e-15)
        # quadrature mirror: g = [1/sqrt2, -1/sqrt2]
        np.testing.assert_allclose(f.high_pass, [1 / np.sqrt(2), -1 / np.sqrt(2)],
                                   rtol=0, atol=1e-15)

    def test_db10_tap_table(self):
        f = make_filter("daubechies", 10)
        assert len(f.low_pass) == 20
        assert abs(f.low_pass.sum() - np.sqrt(2)) < 1e-12

    @pytest.mark.parametrize("v", range(1, 11))
    def test_orthonormality_all_orders(self, v):
        h = np.array(DAUBECHIES_LOWPASS[v])
        assert abs(h.sum() - np.sqrt(2)) < 1e-12
        assert abs(h @ h - 1.0) < 1e-12
        for k in range(1, v):
            assert abs(h[: h.size - 2 * k] @ h[2 * k:]) < 1e-12

    @pytest.mark.parametrize("v", range(1, 11))
    def test_highpass_moments_vanish(self, v):
        # relative to sum |g[n]| n^p: high moments amplify per-tap rounding
        g = make_filter("daubechies", v).high_pass
        n = np.arange(g.size, dtype=float)
        for p in range(v):
            scale = max(1.0, float(np.abs(g) @ n ** p))
            assert abs(g @ n ** p) < 1e-12 * scale

    def test_unsupported_moment_count(self):
        with pytest.raises(UnsupportedFilterError):
            make_filter("daubechies", 11)
        with pytest.raises(UnsupportedFilterError):
            make_filter("daubechies", 0)

    def test_unsupported_family(self):
        with pytest.raises(UnsupportedFilterError):
            make_filter("coiflet", 2)

    def test_haar_alias(self):
        f = make_filter("haar", 1)
        assert f.vanishing_moments == 1

    def test_invalid_taps_rejected(self):
        with pytest.raises(UnsupportedFilterError):
            WaveletFilter(np.array([0.5, 0.5]), 1)  # sums to 1, not sqrt(2)


class TestDwt:
    def test_constant_signal_concentrates(self):
        f = make_filter("daubechies", 10)
        for J in (6, 9):
            M = 2 ** J
            p = dwt(np.full(M, 2.5), f, 0)
            for d in p.details:
                assert np.max(np.abs(d)) < 1e-10
            assert p.coarse.shape == (1,)
            np.testing.assert_allclose(p.coarse[0], 2.5 * np.sqrt(M), rtol=1e-12)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(42)
        for v in (1, 4, 10):
            f = make_filter("daubechies", v)
            for M in (64, 512, 1024):
                x = rng.standard_normal(M)
                p = dwt(x, f, 3)
                assert np.max(np.abs(idwt(p, f) - x)) < 1e-8

    def test_energy_preserved(self):
        rng = np.random.default_rng(7)
        f = make_filter("daubechies", 10)
        x = rng.standard_normal(512)
        p = dwt(x, f, 2)
        assert abs(np.linalg.norm(p.to_flat()) - np.linalg.norm(x)) < 1e-8 * np.linalg.norm(x)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        f = make_filter("daubechies", 6)
        x, z = rng.standard_normal((2, 256))
        pa = dwt(2.5 * x - 1.25 * z, f, 3).to_flat()
        pb = 2.5 * dwt(x, f, 3).to_flat() - 1.25 * dwt(z, f, 3).to_flat()
        assert np.max(np.abs(pa - pb)) < 1e-10

    def test_vanishing_moments_on_polynomials(self):
        # cubic signal, V=10: every detail coefficient whose cascaded filter
        # support stays inside the signal (no periodic wrap) must vanish
        f = make_filter("daubechies", 10)
        M, J, J0 = 512, 9, 3
        t = np.arange(M, dtype=float) / M
        x = 2.0 - 3.0 * t + 0.5 * t ** 2 + 8.0 * t ** 3
        p = dwt(x, f, J0)
        T = len(f)
        checked = 0
        for j in range(J0, J):
            levels_below = J - j  # analysis stages feeding this detail block
            span = (T - 1) * (2 ** levels_below - 1) + 1
            d = p.level(j)
            for k in range(d.size):
                if 2 ** levels_below * k + span <= M:
                    assert abs(d[k]) < 1e-6
                    checked += 1
        assert checked > 300

    def test_haar_matches_butterfly_recursion(self):
        rng = np.random.default_rng(11)
        f = make_filter("daubechies", 1)
        x = rng.standard_normal(64)
        p = dwt(x, f, 2)
        coarse, details = haar_butterfly(x, 2)
        np.testing.assert_allclose(p.coarse, coarse, rtol=0, atol=1e-12)
        for got, want in zip(p.details, details):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_non_power_of_two_rejected(self):
        f = make_filter("daubechies", 2)
        with pytest.raises(ValueError):
            dwt(np.zeros(100), f, 2)

    def test_bad_j0_rejected(self):
        f = make_filter("daubechies", 2)
        with pytest.raises(ValueError):
            dwt(np.zeros(64), f, 6)


class TestIdwt:
    def test_zero_pyramid(self):
        f = make_filter("daubechies", 4)
        p = Pyramid.from_flat(np.zeros(128), 3)
        assert np.max(np.abs(idwt(p, f))) == 0.0

    def test_coarse_only_pyramid_gives_constant(self):
        f = make_filter("daubechies", 10)
        M = 256
        flat = np.zeros(M)
        flat[0] = 4.0 * np.sqrt(M)
        p = Pyramid.from_flat(flat, 0)
        np.testing.assert_allclose(idwt(p, f), 4.0, rtol=0, atol=1e-10)

    def test_two_sided_inverse(self):
        rng = np.random.default_rng(19)
        f = make_filter("daubechies", 5)
        p = Pyramid.from_flat(rng.standard_normal(256), 2)
        q = dwt(idwt(p, f), f, 2)
        assert np.max(np.abs(q.to_flat() - p.to_flat())) < 1e-8

    def test_level_length_mismatch_rejected(self):
        p = Pyramid.from_flat(np.zeros(64), 2)
        with pytest.raises(ValueError):
            Pyramid(coarse=p.coarse, details=p.details[:-1], J=6, J0=2)


class TestPyramid:
    def test_flat_round_trip(self):
        rng = np.random.default_rng(0)
        flat = rng.standard_normal(128)
        p = Pyramid.from_flat(flat, 3)
        assert p.coarse.size == 8
        assert [d.size for d in p.details] == [8, 16, 32, 64]
        np.testing.assert_array_equal(p.to_flat(), flat)

    def test_level_accessor(self):
        p = Pyramid.from_flat(np.arange(64.0), 2)
        np.testing.assert_array_equal(p.level(2), np.arange(4.0, 8.0))
        with pytest.raises(ValueError):
            p.level(6)

    def test_counts(self):
        p = Pyramid.from_flat(np.zeros(1024), 3)
        assert p.n_coefficients == 1024
        assert p.J == 10 and p.J0 == 3

    def test_matrix_levels_are_column_slices(self):
        rng = np.random.default_rng(4)
        flat = rng.standard_normal((64, 5))
        p = Pyramid.from_flat(flat, 2)
        assert p.coarse.shape == (4, 5)
        assert [d.shape for d in p.details] == [(4, 5), (8, 5), (16, 5), (32, 5)]
        np.testing.assert_array_equal(p.level(3), flat[8:16])
        np.testing.assert_array_equal(p.to_flat(), flat)
        for i in range(5):
            np.testing.assert_array_equal(
                Pyramid.from_flat(flat[:, i], 2).to_flat(), p.to_flat()[:, i])

    def test_column_axis_must_agree(self):
        p = Pyramid.from_flat(np.zeros((64, 3)), 2)
        with pytest.raises(ValueError):
            Pyramid(coarse=p.coarse, details=p.details[:-1] + [np.zeros((32, 2))],
                    J=6, J0=2)
        with pytest.raises(ValueError):
            Pyramid(coarse=np.zeros((4, 3, 1)), details=p.details, J=6, J0=2)
        with pytest.raises(ValueError):
            Pyramid.from_flat(np.zeros((64, 3, 2)), 2)


class TestTransformColumns:
    def test_single_column_matches_dwt(self):
        rng = np.random.default_rng(2)
        f = make_filter("daubechies", 4)
        x = rng.standard_normal(128)
        cols = transform_columns(x[:, None], f, 3, "forward")
        np.testing.assert_allclose(cols[:, 0], dwt(x, f, 3).to_flat(), rtol=0, atol=1e-14)

    def test_forward_inverse_identity(self):
        rng = np.random.default_rng(8)
        f = make_filter("daubechies", 10)
        a = rng.standard_normal((512, 9))
        d = transform_columns(a, f, 3, "forward")
        back = transform_columns(d, f, 3, "inverse")
        assert np.max(np.abs(back - a)) < 1e-8

    def test_frobenius_preserved(self):
        rng = np.random.default_rng(9)
        f = make_filter("daubechies", 7)
        a = rng.standard_normal((256, 12))
        d = transform_columns(a, f, 2, "forward")
        assert abs(np.linalg.norm(d) - np.linalg.norm(a)) < 1e-8

    def test_bad_direction(self):
        f = make_filter("daubechies", 1)
        with pytest.raises(ValueError):
            transform_columns(np.zeros((8, 1)), f, 1, "sideways")

    def test_dimension_errors_propagate(self):
        f = make_filter("daubechies", 1)
        with pytest.raises(ValueError):
            transform_columns(np.zeros((100, 2)), f, 1, "forward")


def test_bulk_perfect_reconstruction_and_energy():
    # 1000 random signals per (M, V) pair; part of the acceptance gate too
    rng = np.random.default_rng(123)
    for v in (1, 4, 10):
        f = make_filter("daubechies", v)
        for M in (64, 512, 1024):
            x = rng.standard_normal((M, 1000))
            d = transform_columns(x, f, 3, "forward")
            back = transform_columns(d, f, 3, "inverse")
            assert np.max(np.abs(back - x)) < 1e-8
            e_in = np.linalg.norm(x, axis=0)
            e_out = np.linalg.norm(d, axis=0)
            assert np.max(np.abs(e_out - e_in) / e_in) < 1e-8

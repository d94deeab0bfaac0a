"""Transform correctness: filter invariants, round trips, energy, moments."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavecal.wavelet import (
    DAUBECHIES_LOWPASS,
    Pyramid,
    UnsupportedFilterError,
    WaveletFilter,
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


def forward(x, f, J0):
    """Flat-layout coefficients of one signal: rows 2^j .. 2^(j+1) - 1 hold
    detail level j."""
    return transform_columns(np.asarray(x, dtype=float)[:, None], f, J0, "forward")[:, 0]


def inverse(flat, f, J0):
    return transform_columns(np.asarray(flat, dtype=float)[:, None], f, J0, "inverse")[:, 0]


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
        for family, v in (("coiflet", 2), ("haar", 1), ("db", 10)):
            with pytest.raises(UnsupportedFilterError):
                make_filter(family, v)

    def test_invalid_taps_rejected(self):
        with pytest.raises(UnsupportedFilterError):
            WaveletFilter(np.array([0.5, 0.5]), 1)  # sums to 1, not sqrt(2)

    def test_equality_and_hash_by_family_and_moments(self):
        a, b = make_filter("daubechies", 10), make_filter("daubechies", 10)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != make_filter("daubechies", 9) and a != "daubechies"
        assert len({make_filter("daubechies", v) for v in (1, 2, 2, 10, 10)}) == 3
        # a frozen config holding separately built filters compares and hashes too
        from wavecal import EstimationConfig, Lpm
        one, two = (EstimationConfig(filter=make_filter("daubechies", 10), rule=Lpm())
                    for _ in range(2))
        assert one == two and hash(one) == hash(two)


class TestForward:
    def test_constant_signal_concentrates(self):
        f = make_filter("daubechies", 10)
        for J in (6, 9):
            M = 2 ** J
            flat = forward(np.full(M, 2.5), f, 0)
            assert flat.shape == (M,)
            assert np.max(np.abs(flat[1:])) < 1e-10
            np.testing.assert_allclose(flat[0], 2.5 * np.sqrt(M), rtol=1e-12)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(42)
        for v in (1, 4, 10):
            f = make_filter("daubechies", v)
            for M in (64, 512, 1024):
                x = rng.standard_normal(M)
                assert np.max(np.abs(inverse(forward(x, f, 3), f, 3) - x)) < 1e-8

    def test_energy_preserved(self):
        rng = np.random.default_rng(7)
        f = make_filter("daubechies", 10)
        x = rng.standard_normal(512)
        flat = forward(x, f, 2)
        assert abs(np.linalg.norm(flat) - np.linalg.norm(x)) < 1e-8 * np.linalg.norm(x)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        f = make_filter("daubechies", 6)
        x, z = rng.standard_normal((2, 256))
        pa = forward(2.5 * x - 1.25 * z, f, 3)
        pb = 2.5 * forward(x, f, 3) - 1.25 * forward(z, f, 3)
        assert np.max(np.abs(pa - pb)) < 1e-10

    def test_vanishing_moments_on_polynomials(self):
        # cubic signal, V=10: every detail coefficient whose cascaded filter
        # support stays inside the signal (no periodic wrap) must vanish
        f = make_filter("daubechies", 10)
        M, J, J0 = 512, 9, 3
        t = np.arange(M, dtype=float) / M
        x = 2.0 - 3.0 * t + 0.5 * t ** 2 + 8.0 * t ** 3
        flat = forward(x, f, J0)
        T = len(f)
        checked = 0
        for j in range(J0, J):
            levels_below = J - j  # analysis stages feeding this detail block
            span = (T - 1) * (2 ** levels_below - 1) + 1
            d = flat[2 ** j: 2 ** (j + 1)]
            for k in range(d.size):
                if 2 ** levels_below * k + span <= M:
                    assert abs(d[k]) < 1e-6
                    checked += 1
        assert checked > 300

    def test_haar_matches_butterfly_recursion(self):
        rng = np.random.default_rng(11)
        f = make_filter("daubechies", 1)
        x = rng.standard_normal(64)
        flat = forward(x, f, 2)
        coarse, details = haar_butterfly(x, 2)
        np.testing.assert_allclose(flat[:4], coarse, rtol=0, atol=1e-12)
        for j, want in enumerate(details, start=2):
            np.testing.assert_allclose(flat[2 ** j: 2 ** (j + 1)], want, rtol=0, atol=1e-12)

    def test_non_power_of_two_rejected(self):
        f = make_filter("daubechies", 2)
        with pytest.raises(ValueError):
            forward(np.zeros(100), f, 2)

    def test_bad_j0_rejected(self):
        f = make_filter("daubechies", 2)
        with pytest.raises(ValueError):
            forward(np.zeros(64), f, 6)
        with pytest.raises(ValueError):
            inverse(np.zeros(64), f, 6)


class TestInverse:
    def test_zero_pyramid(self):
        f = make_filter("daubechies", 4)
        assert np.max(np.abs(inverse(np.zeros(128), f, 3))) == 0.0

    def test_coarse_only_pyramid_gives_constant(self):
        f = make_filter("daubechies", 10)
        M = 256
        flat = np.zeros(M)
        flat[0] = 4.0 * np.sqrt(M)
        np.testing.assert_allclose(inverse(flat, f, 0), 4.0, rtol=0, atol=1e-10)

    def test_two_sided_inverse(self):
        rng = np.random.default_rng(19)
        f = make_filter("daubechies", 5)
        flat = rng.standard_normal(256)
        assert np.max(np.abs(forward(inverse(flat, f, 2), f, 2) - flat)) < 1e-8


class TestPyramid:
    def test_flat_round_trip(self):
        rng = np.random.default_rng(0)
        flat = rng.standard_normal(128)
        p = Pyramid(flat, 3)
        assert p.coarse.size == 8
        assert [d.size for d in p.details] == [8, 16, 32, 64]
        np.testing.assert_array_equal(p.flat, flat)

    def test_details_are_level_slices_of_the_flat_layout(self):
        flat = np.arange(64.0)
        p = Pyramid(flat, 2)
        assert p.flat is flat
        np.testing.assert_array_equal(p.coarse, flat[:4])
        assert np.shares_memory(p.coarse, flat)
        for j, d in enumerate(p.details, start=2):
            np.testing.assert_array_equal(d, flat[2 ** j: 2 ** (j + 1)])
            assert np.shares_memory(d, flat)

    def test_counts(self):
        p = Pyramid(np.zeros(1024), 3)
        assert p.J == 10 and p.J0 == 3

    def test_matrix_levels_are_column_slices(self):
        rng = np.random.default_rng(4)
        flat = rng.standard_normal((64, 5))
        p = Pyramid(flat, 2)
        assert p.coarse.shape == (4, 5)
        assert [d.shape for d in p.details] == [(4, 5), (8, 5), (16, 5), (32, 5)]
        np.testing.assert_array_equal(p.details[1], flat[8:16])
        np.testing.assert_array_equal(p.flat, flat)
        assert all(np.shares_memory(block, flat) for block in [p.coarse] + p.details)
        for i in range(5):
            np.testing.assert_array_equal(
                Pyramid(flat[:, i], 2).flat, p.flat[:, i])

    @pytest.mark.parametrize("shape,J0", [((48,), 2), ((48, 3), 2), ((1,), 0),
                                          ((64,), 6), ((64, 3), -1),
                                          ((64, 3, 2), 2)])
    def test_invalid_layout_rejected(self, shape, J0):
        # a non-dyadic length, J0 outside 0..J-1, or more than one column axis
        with pytest.raises(ValueError):
            Pyramid(np.zeros(shape), J0)


class TestTransformColumns:
    def test_columns_transform_independently(self):
        rng = np.random.default_rng(2)
        f = make_filter("daubechies", 4)
        a = rng.standard_normal((128, 6))
        for direction in ("forward", "inverse"):
            cols = transform_columns(a, f, 3, direction)
            for i in range(a.shape[1]):
                np.testing.assert_allclose(
                    cols[:, i], transform_columns(a[:, i:i + 1], f, 3, direction)[:, 0],
                    rtol=0, atol=1e-14)

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


    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(v=st.integers(1, 10), J=st.integers(1, 9), data=st.data(),
           columns=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
           a=st.floats(-1e3, 1e3), b=st.floats(-1e3, 1e3))
    def test_linear_and_energy_preserving(self, v, J, data, columns, seed, a, b):
        J0 = data.draw(st.integers(0, J - 1), label="J0")
        f = make_filter("daubechies", v)
        x, z = np.random.default_rng(seed).standard_normal((2, 2 ** J, columns))
        tx, tz = (transform_columns(m, f, J0, "forward") for m in (x, z))
        combined = transform_columns(a * x + b * z, f, J0, "forward")
        scale = (abs(a) + abs(b)) * max(np.max(np.abs(x)), np.max(np.abs(z)))
        assert np.max(np.abs(combined - (a * tx + b * tz))) <= 1e-12 * scale
        np.testing.assert_allclose(np.linalg.norm(tx, axis=0), np.linalg.norm(x, axis=0),
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(transform_columns(tx, f, J0, "inverse"), x,
                                   rtol=0, atol=1e-12 * np.max(np.abs(x)))

def level_matrices(f, N):
    """N/2 x N analysis matrices of one level, straight from the module
    docstring: approx[k] = sum_n h[n] a[(2k + n) mod N], detail[k] the same
    with g.  Taps that wrap onto one sample (N < 2V) add up."""
    H, G = np.zeros((N // 2, N)), np.zeros((N // 2, N))
    k = np.arange(N // 2)
    for n in range(len(f)):
        np.add.at(H, (k, (2 * k + n) % N), f.low_pass[n])
        np.add.at(G, (k, (2 * k + n) % N), f.high_pass[n])
    return H, G


def periodic_convolution_transform(x, f, J0, direction):
    """transform_columns by one direct O(N T) periodic convolution per level;
    synthesis is the transpose of the analysis map."""
    sizes = [x.shape[0] >> i for i in range(x.shape[0].bit_length() - 1 - J0)]
    if direction == "forward":
        a, details = x, []
        for N in sizes:
            H, G = level_matrices(f, N)
            a, d = H @ a, G @ a
            details.append(d)
        return np.concatenate([a] + details[::-1])
    a = x[: 2 ** J0]
    for N in reversed(sizes):
        H, G = level_matrices(f, N)
        a = H.T @ a + G.T @ x[N // 2: N]
    return a


@pytest.mark.parametrize("v", range(1, 11))
@pytest.mark.parametrize("M", [2, 8, 1024])
@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_block_operators_match_periodic_convolution(v, M, direction):
    # J0 = 0 runs every level size from M down to 2, including the levels
    # shorter than one block (N < 2 * _BLOCK) and than the filter (N < 2V)
    f = make_filter("daubechies", v)
    x = np.random.default_rng(v * M).standard_normal((M, 3))
    want = periodic_convolution_transform(x, f, 0, direction)
    np.testing.assert_allclose(transform_columns(x, f, 0, direction), want,
                               rtol=0, atol=1e-13)


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


def per_level_forward(x, f, J0):
    """The forward transform as it was first written: each level gathers a
    fresh periodic extension, runs the block GEMM into a fresh array, and the
    levels are concatenated at the end."""
    from wavecal.wavelet import _BLOCK, _apply_blocks, _periodic_index
    a, details = x, []
    while a.shape[0] > 2 ** J0:
        N = a.shape[0]
        ext = a[_periodic_index(N, 0, N + len(f) - 2)]
        out = _apply_blocks(f.analysis_block, ext, min(_BLOCK, N // 2), np.empty(a.shape))
        a, d = out[0::2], out[1::2]
        details.append(d)
    return np.concatenate([a] + details[::-1], axis=0)


@pytest.mark.parametrize("v", [1, 2, 5, 10])
def test_forward_buffers_keep_the_per_level_bits(v):
    # writing into reused buffers changes no bit of any level size or J0
    f = make_filter("daubechies", v)
    rng = np.random.default_rng(77 + v)
    for J in range(1, 11):
        for columns in (1, 3, 50):
            x = rng.standard_normal((2 ** J, columns))
            for J0 in range(J):
                got = transform_columns(x, f, J0, "forward")
                want = per_level_forward(x, f, J0)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def stacked_inverse(flat, f, J0):
    """The inverse transform as it was first written: each level stacks its
    (approx, detail) pairs, gathers their periodic extension by fancy
    indexing and runs the block GEMM into a fresh array."""
    from wavecal.wavelet import _BLOCK, _apply_blocks, _periodic_index
    pyr = Pyramid(flat, J0)
    a, lead = pyr.coarse, len(f) // 2 - 1
    for d in pyr.details:
        half = a.shape[0]
        pairs = np.stack((a, d), axis=1).reshape(2 * half, -1)
        ext = pairs[_periodic_index(2 * half, -2 * lead, 2 * (half + lead))]
        a = _apply_blocks(f.synthesis_block, ext, min(_BLOCK, half),
                          np.empty((2 * half, a.shape[1])))
    return a


@pytest.mark.parametrize("v", range(1, 11))
def test_inverse_buffers_keep_the_stacked_bits(v):
    # interleaving into one reused extended buffer changes no bit, including
    # levels shorter than the filter, whose periodic head wraps more than once
    f = make_filter("daubechies", v)
    rng = np.random.default_rng(91 + v)
    for J in range(1, 11):
        for columns in (1, 2, 6, 50):
            x = rng.standard_normal((2 ** J, columns))
            for J0 in range(min(J, 4)):
                got = transform_columns(x, f, J0, "inverse")
                want = stacked_inverse(x, f, J0)
                assert got.flags.c_contiguous
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

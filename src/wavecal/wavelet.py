"""Orthonormal discrete wavelet transform via the pyramid filter-bank algorithm.

Boundary handling is periodic (circular), which keeps the transform exactly
orthogonal at every dyadic length, so energy is preserved and the inverse is
the transpose.  Filters are Daubechies extremal-phase scaling filters with
V = 1..10 vanishing moments, embedded as tabulated constants.

Conventions (fixed, documented, both directions consistent):
  - analysis:   approx[k] = sum_n h[n] * a[(2k + n) mod N]
                detail[k] = sum_n g[n] * a[(2k + n) mod N]
  - synthesis is the exact transpose of the analysis map:
                a[m] = sum over k, n with (2k + n) mod N = m of
                       h[n] * approx[k] + g[n] * detail[k]
  - high-pass taps: g[n] = (-1)^n * h[2V - 1 - n]  (quadrature mirror).

Each level runs as one batched matrix product (BLAS GEMMs).  The level
input, extended periodically, is cut into overlapping windows 2b apart, and a
block operator built once per filter maps each window to b approximation and
b detail coefficients, interleaved; synthesis applies the transposed operator
to windows of the interleaved (approx, detail) sequence and yields 2b
samples per window.  b is `_BLOCK` rows, or N/2 on a shorter level.  Both
directions run every level in the same few buffers, allocated once per call:
each level's input is extended in place, and its GEMM writes to one matrix,
the forward's scratch of products or the inverse's output.
`make_filter` builds each filter and its block operators once per process.

`transform_columns` is the only transform entry point: it transforms every
column of an M x I matrix, and a single signal is a one-column matrix.  Its
flat layout keeps the 2^J0 scaling coefficients in the first rows and detail
level j in rows 2^j .. 2^(j+1) - 1; `Pyramid(flat, J0)` holds that matrix
with its level slices as views of it, and is the only other layout.

Correctness is defined by round-trip identity and energy preservation, not by
matching any external tool's coefficient signs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "UnsupportedFilterError",
    "WaveletFilter",
    "Pyramid",
    "make_filter",
    "transform_columns",
]


class UnsupportedFilterError(ValueError):
    """Requested wavelet family or moment count is not available."""


# Daubechies extremal-phase low-pass taps, normalized so sum(h) = sqrt(2).
# Generated by spectral factorization of the Daubechies half-band polynomial
# at 60-digit precision, rounded to 17 significant digits.  Keys are the
# number of vanishing moments V; each filter has 2V taps.
DAUBECHIES_LOWPASS: dict[int, tuple[float, ...]] = {
    1: (0.70710678118654752, 0.70710678118654752),
    2: (-0.12940952255126038, 0.22414386804201338,
        0.83651630373780791, 0.48296291314453414),
    3: (0.035226291885709537, -0.085441273882026662, -0.13501102001025459,
        0.45987750211849157, 0.80689150931109258, 0.33267055295008262),
    4: (-0.010597401785069032, 0.032883011666885200, 0.030841381835560764,
        -0.18703481171909308, -0.027983769416859854, 0.63088076792985891,
        0.71484657055291565, 0.23037781330889650),
    5: (0.0033357252854737713, -0.012580751999081999, -0.0062414902127982743,
        0.077571493840045714, -0.032244869584638375, -0.24229488706638203,
        0.13842814590132073, 0.72430852843777293, 0.60382926979718967,
        0.16010239797419291),
    6: (-0.0010773010853084796, 0.0047772575109455106, 0.00055384220116149614,
        -0.031582039317486030, 0.027522865530305729, 0.097501605587323049,
        -0.12976686756726194, -0.22626469396543982, 0.31525035170919763,
        0.75113390802109535, 0.49462389039845309, 0.11154074335010946),
    7: (0.00035371379997452025, -0.0018016407040474909, 0.00042957797292136652,
        0.012550998556099841, -0.016574541630666881, -0.038029936935014414,
        0.080612609151083072, 0.071309219266830265, -0.22403618499387498,
        -0.14390600392856498, 0.46978228740519312, 0.72913209084623512,
        0.39653931948191731, 0.077852054085009179),
    8: (-0.00011747678412476953, 0.00067544940645056937, -0.00039174037337694705,
        -0.0048703529934515743, 0.0087460940474057767, 0.013981027917398282,
        -0.044088253930794752, -0.017369301001807546, 0.12874742662047846,
        0.00047248457391328277, -0.28401554296154693, -0.015829105256349306,
        0.58535468365420671, 0.67563073629728981, 0.31287159091429997,
        0.054415842243104010),
    9: (3.9347320316271599e-05, -0.00025196318894271014, 0.00023038576352319597,
        0.0018476468830562265, -0.0042815036824634298, -0.0047232047577513973,
        0.022361662123679097, 0.00025094711483145196, -0.067632829061329974,
        0.030725681479333379, 0.14854074933810638, -0.096840783222976461,
        -0.29327378327917491, 0.13319738582500758, 0.65728807805130054,
        0.60482312369011111, 0.24383467461259035, 0.038077947363878347),
    10: (-1.3264202894521245e-05, 9.3588670320069591e-05, -0.00011646685512928545,
         -0.00068585669495971163, 0.0019924052951850561, 0.0013953517470529012,
         -0.010733175483330575, 0.0036065535669561697, 0.033212674059341002,
         -0.029457536821875813, -0.071394147166397087, 0.093057364603572351,
         0.12736934033579326, -0.19594627437737704, -0.24984642432731538,
         0.28117234366057746, 0.68845903945360357, 0.52720118893172559,
         0.18817680007769149, 0.026670057900555554),
}

_ORTHO_TOL = 1e-12

# Output rows per block of a level's batched product.  Larger blocks mean fewer,
# larger GEMMs, but each block also multiplies the T - 2 zeros of its band.
_BLOCK = 8


@dataclass(frozen=True, eq=False)
class WaveletFilter:
    """Orthonormal two-channel filter pair.

    ``low_pass`` holds the scaling taps h[0..2V-1]; ``high_pass`` is derived
    by the quadrature-mirror construction g[n] = (-1)^n h[2V-1-n].  Instances
    are immutable and safe to share across threads.

    ``analysis_block`` and ``synthesis_block`` are the read-only
    (2 * _BLOCK) x (2 * _BLOCK + 2V - 2) block operators of one transform
    level; a level with b < _BLOCK uses their leading 2b x (2b + 2V - 2)
    corner.
    """

    low_pass: np.ndarray
    vanishing_moments: int
    high_pass: np.ndarray = field(init=False)
    analysis_block: np.ndarray = field(init=False, repr=False)
    synthesis_block: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        h = np.asarray(self.low_pass, dtype=float)
        n = h.size
        if n != 2 * self.vanishing_moments:
            raise UnsupportedFilterError(
                f"filter length {n} != 2 * {self.vanishing_moments} vanishing moments")
        if abs(h.sum() - np.sqrt(2.0)) > _ORTHO_TOL:
            raise UnsupportedFilterError("low-pass taps do not sum to sqrt(2)")
        for k in range(1, self.vanishing_moments):
            if abs(np.dot(h[: n - 2 * k], h[2 * k:])) > _ORTHO_TOL:
                raise UnsupportedFilterError(f"taps not orthonormal at shift {k}")
        if abs(np.dot(h, h) - 1.0) > _ORTHO_TOL:
            raise UnsupportedFilterError("taps not normalized")
        g = ((-1.0) ** np.arange(n)) * h[::-1]
        # Analysis rows 2k and 2k + 1 give approx[k] and detail[k] of a block.
        # Synthesis output r of a block takes tap r + n - 2 - 2i of h and of g
        # from the i-th (approx, detail) pair of its window: columns n - 2 ..
        # n - 3 + 2 * _BLOCK of an analysis band n/2 - 1 pairs taller, transposed.
        taps = np.stack([h, g])
        analysis = _band(taps, _BLOCK)
        synthesis = np.ascontiguousarray(
            _band(taps, _BLOCK + n // 2 - 1)[:, n - 2: n - 2 + 2 * _BLOCK].T)
        for array in (h, g, analysis, synthesis):
            array.flags.writeable = False
        object.__setattr__(self, "low_pass", h)
        object.__setattr__(self, "high_pass", g)
        object.__setattr__(self, "analysis_block", analysis)
        object.__setattr__(self, "synthesis_block", synthesis)

    def __len__(self) -> int:
        return self.low_pass.size


def _band(taps: np.ndarray, b: int) -> np.ndarray:
    """(2b) x (2b + T - 2) operator whose rows 2k and 2k + 1 hold the two
    rows of ``taps`` (2 x T) starting at column 2k."""
    T = taps.shape[1]
    op = np.zeros((2 * b, 2 * b + T - 2))
    for k in range(b):
        op[2 * k: 2 * k + 2, 2 * k: 2 * k + T] = taps
    return op


def make_filter(family: str, vanishing_moments: int) -> WaveletFilter:
    """The wavelet filter of tabulated constants: one shared instance per V.

    Supported: ``daubechies`` with 1 <= vanishing_moments <= 10 (V = 1 is
    the Haar filter).
    """
    if not isinstance(family, str) or family.strip().lower() != "daubechies":
        raise UnsupportedFilterError(f"unsupported filter family {family!r}")
    if (isinstance(vanishing_moments, bool) or not isinstance(vanishing_moments, (int, np.integer))
            or vanishing_moments not in DAUBECHIES_LOWPASS):
        raise UnsupportedFilterError(
            f"unsupported filter: daubechies with {vanishing_moments!r} vanishing "
            f"moments (supported: 1..10)")
    return _daubechies(int(vanishing_moments))


@lru_cache(maxsize=None)  # keyed on the int V, so at most 10 entries
def _daubechies(vanishing_moments: int) -> WaveletFilter:
    return WaveletFilter(np.array(DAUBECHIES_LOWPASS[vanishing_moments]), vanishing_moments)


class Pyramid:
    """The flat coefficient layout [coarse | details J0 | ... | details J-1]
    of one signal (a vector) or of the columns of an M x I matrix, M = 2^J,
    with its level slices as views: ``coarse`` is rows 0 .. 2^J0 - 1 of
    ``flat``, and ``details[i]`` rows 2^j .. 2^(j+1) - 1, level j = J0 + i."""

    def __init__(self, flat: np.ndarray, J0: int):
        flat = np.asarray(flat, dtype=float)
        if flat.ndim not in (1, 2):
            raise ValueError(f"expected a flat vector or matrix, got shape {flat.shape}")
        self.flat, self.J, self.J0 = flat, _depth(flat.shape[0], J0), J0
        self.coarse = flat[:2 ** J0]
        self.details = [flat[2 ** j: 2 ** (j + 1)] for j in range(J0, self.J)]


def _depth(m: int, J0: int) -> int:
    """J of a signal length m = 2^J whose transform down to level J0 has at
    least one detail level."""
    J = int(m).bit_length() - 1
    if m < 2 or m != 2 ** J:
        raise ValueError(f"signal length {m} is not a power of two >= 2")
    if not 0 <= J0 < J:
        raise ValueError(f"J0={J0} must satisfy 0 <= J0 < J={J}")
    return J


@lru_cache(maxsize=None)  # one entry per level size and filter length
def _periodic_index(n: int, start: int, length: int) -> np.ndarray:
    """Read-only rows (start + i) mod n for i = 0 .. length - 1."""
    idx = (np.arange(length) + start) % n
    idx.flags.writeable = False
    return idx


def _apply_blocks(op: np.ndarray, ext: np.ndarray, b: int, out: np.ndarray) -> np.ndarray:
    """One batched GEMM: rows 2qb .. 2qb + 2b - 1 of ``out`` get the leading
    2b x (2b + T - 2) corner of the block operator ``op`` times the q-th
    window ext[2qb : 2qb + 2b + T - 2] of the extended level, which must be
    C-contiguous."""
    width = 2 * b + op.shape[1] - op.shape[0]
    rows, columns = ext.strides
    count = (ext.shape[0] - width) // (2 * b) + 1
    # a read-only strided view, as as_strided would build it, without its overhead
    windows = np.ndarray((count, width, ext.shape[1]),
                         ext.dtype, ext, 0, (2 * b * rows, rows, columns))
    windows.flags.writeable = False
    np.matmul(op[:2 * b, :width], windows, out=out.reshape(count, 2 * b, ext.shape[1]))
    return out


def transform_columns(matrix: np.ndarray, filt: WaveletFilter, J0: int,
                      direction: str = "forward") -> np.ndarray:
    """Apply the periodic DWT down to level J0 (or its inverse) to every
    column of an M x I matrix, M = 2^J.

    Forward output columns use the flat pyramid layout
    [coarse | details J0 | ... | details J-1], so rows 2^j .. 2^(j+1) - 1
    hold level j for j >= J0; inverse expects that layout.  Columns are
    independent and the result does not depend on evaluation order.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError("transform_columns expects a 2-D matrix")
    if direction == "forward":
        J = _depth(a.shape[0], J0)
        # Each level reads its input, extended periodically, from one of two
        # buffers, and its GEMM writes into one scratch matrix; from there the
        # approximation goes to the other buffer, where the next level extends
        # it in place, and the details to their rows of the output.
        M, T = a.shape[0], len(filt)
        out, products = np.empty_like(a), np.empty_like(a)
        buffers = np.empty((M + T - 2, a.shape[1])), np.empty((M // 2 + T - 2, a.shape[1]))
        np.take(a, _periodic_index(M, 0, M + T - 2), axis=0, out=buffers[0], mode="clip")
        for level in range(J - J0):
            N = M >> level
            ext, approx = buffers[level % 2], buffers[1 - level % 2]
            half = N // 2
            _apply_blocks(filt.analysis_block, ext[:N + T - 2], min(_BLOCK, half),
                          products[:N])
            approx[:half] = products[0:N:2]
            out[half:N] = products[1:N:2]
            if level + 1 < J - J0:
                np.take(approx[:half], _periodic_index(half, 0, T - 2), axis=0,
                        out=approx[half:half + T - 2], mode="clip")
        out[:half] = approx[:half]
        return out
    if direction == "inverse":
        # The transpose of the forward levels: each interleaves its (approx,
        # detail) pairs into ext[T - 2:] behind a periodic head of the last
        # T - 2 of them, so that each window starts T/2 - 1 pairs before its
        # block, and its GEMM writes the level to the leading rows of the
        # output, where the next level reads its approximation.
        pyr, T = Pyramid(a, J0), len(filt)
        out, ext = np.empty(a.shape), np.empty((a.shape[0] + T - 2, a.shape[1]))
        approx = pyr.coarse
        for d in pyr.details:
            pairs = ext[T - 2:T - 2 + 2 * d.shape[0]]
            pairs[0::2], pairs[1::2] = approx, d
            np.take(pairs, _periodic_index(len(pairs), 2 - T, T - 2), axis=0,
                    out=ext[:T - 2], mode="clip")
            approx = _apply_blocks(filt.synthesis_block, ext[:T - 2 + len(pairs)],
                                   min(_BLOCK, d.shape[0]), out[:len(pairs)])
        return out
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")

"""Orthonormal discrete wavelet transform via the pyramid filter-bank algorithm.

Boundary handling is periodic (circular), which keeps the transform exactly
orthogonal at every dyadic length, so energy is preserved and the inverse is
the transpose.  Filters are Daubechies extremal-phase scaling filters with
V = 1..10 vanishing moments, embedded as tabulated constants.

Conventions (fixed, documented, both directions consistent):
  - analysis:   approx[k] = sum_n h[n] * a[(2k + n) mod N]
                detail[k] = sum_n g[n] * a[(2k + n) mod N]
  - synthesis is the exact transpose of the analysis map.
  - high-pass taps: g[n] = (-1)^n * h[2V - 1 - n]  (quadrature mirror).

`transform_columns` is the only transform entry point: it transforms every
column of an M x I matrix, and a single signal is a one-column matrix.  Its
flat layout keeps detail level j in rows 2^j .. 2^(j+1) - 1; `Pyramid`
names those level slices.

Correctness is defined by round-trip identity and energy preservation, not by
matching any external tool's coefficient signs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


@dataclass(frozen=True)
class WaveletFilter:
    """Orthonormal two-channel filter pair.

    ``low_pass`` holds the scaling taps h[0..2V-1]; ``high_pass`` is derived
    by the quadrature-mirror construction g[n] = (-1)^n h[2V-1-n].  Instances
    are immutable and safe to share across threads.
    """

    low_pass: np.ndarray
    vanishing_moments: int
    high_pass: np.ndarray = field(init=False)

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
        h.flags.writeable = False
        g.flags.writeable = False
        object.__setattr__(self, "low_pass", h)
        object.__setattr__(self, "high_pass", g)

    def __len__(self) -> int:
        return self.low_pass.size


def make_filter(family: str, vanishing_moments: int) -> WaveletFilter:
    """Build a wavelet filter from tabulated constants.

    Supported: ``daubechies`` (aliases ``db``, ``haar`` for V=1) with
    1 <= vanishing_moments <= 10.
    """
    fam = family.strip().lower()
    if fam == "haar":
        fam, vanishing_moments = "daubechies", vanishing_moments or 1
    if fam not in ("daubechies", "db"):
        raise UnsupportedFilterError(f"unsupported filter family {family!r}")
    taps = DAUBECHIES_LOWPASS.get(vanishing_moments)
    if taps is None:
        raise UnsupportedFilterError(
            f"unsupported filter: daubechies with {vanishing_moments} vanishing "
            f"moments (supported: 1..10)")
    return WaveletFilter(np.array(taps), vanishing_moments)


@dataclass
class Pyramid:
    """Multilevel wavelet coefficient layout for one signal, or for the
    columns of an M x I matrix.

    ``coarse`` holds the 2^J0 scaling coefficients; ``details[i]`` holds the
    2^(J0+i) detail coefficients at level j = J0 + i, for j = J0..J-1.  An
    optional trailing column axis, the same on every block, makes
    ``details[i]`` the (2^j x I) level slice of I signals.
    """

    coarse: np.ndarray
    details: list[np.ndarray]
    J: int
    J0: int

    def __post_init__(self):
        if not 0 <= self.J0 < self.J:
            raise ValueError(f"invalid levels: J0={self.J0}, J={self.J}")
        columns = self.coarse.shape[1:]
        if self.coarse.shape != (2 ** self.J0,) + columns or len(columns) > 1:
            raise ValueError(
                f"coarse block has shape {self.coarse.shape}, expected "
                f"{2 ** self.J0} entries with at most one column axis")
        if len(self.details) != self.J - self.J0:
            raise ValueError(
                f"expected {self.J - self.J0} detail levels, got {len(self.details)}")
        for i, d in enumerate(self.details):
            if d.shape != (2 ** (self.J0 + i),) + columns:
                raise ValueError(
                    f"detail level {self.J0 + i} has shape {d.shape}, "
                    f"expected {(2 ** (self.J0 + i),) + columns}")

    def to_flat(self) -> np.ndarray:
        """Flatten as [coarse | details J0 | ... | details J-1]."""
        return np.concatenate([self.coarse] + self.details)

    @classmethod
    def from_flat(cls, flat: np.ndarray, J0: int) -> "Pyramid":
        """Split the flat layout of :meth:`to_flat` (a vector, or a matrix
        with one flat column per signal) into blocks; the blocks are views."""
        flat = np.asarray(flat, dtype=float)
        if flat.ndim not in (1, 2):
            raise ValueError(f"expected a flat vector or matrix, got shape {flat.shape}")
        J = _dyadic_depth(flat.shape[0])
        coarse = flat[: 2 ** J0]
        details, off = [], 2 ** J0
        for j in range(J0, J):
            details.append(flat[off: off + 2 ** j])
            off += 2 ** j
        return cls(coarse=coarse, details=details, J=J, J0=J0)


def _dyadic_depth(m: int) -> int:
    J = int(m).bit_length() - 1
    if m < 2 or m != 2 ** J:
        raise ValueError(f"signal length {m} is not a power of two >= 2")
    return J


def _analysis_stage(a: np.ndarray, filt: WaveletFilter) -> tuple[np.ndarray, np.ndarray]:
    # a: (N, C) with N even; returns (N/2, C) approx and detail blocks.
    N = a.shape[0]
    T = len(filt)
    ext = a[np.arange(N + T - 1) % N]
    win = sliding_window_view(ext, T, axis=0)[::2]  # (N/2, C, T)
    return win @ filt.low_pass, win @ filt.high_pass


def _synthesis_stage(approx: np.ndarray, detail: np.ndarray,
                     filt: WaveletFilter) -> np.ndarray:
    # transpose of _analysis_stage: a[m] = sum_k h[(m-2k)%N] c[k] + g[(m-2k)%N] d[k]
    N = 2 * approx.shape[0]
    T = len(filt)
    up_c = np.zeros((N, approx.shape[1]))
    up_d = np.zeros_like(up_c)
    up_c[0::2] = approx
    up_d[0::2] = detail
    idx = (np.arange(N + T - 1) - (T - 1)) % N
    wc = sliding_window_view(up_c[idx], T, axis=0)
    wd = sliding_window_view(up_d[idx], T, axis=0)
    return wc @ filt.low_pass[::-1].copy() + wd @ filt.high_pass[::-1].copy()


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
        J = _dyadic_depth(a.shape[0])
        if not 0 <= J0 < J:
            raise ValueError(f"J0={J0} must satisfy 0 <= J0 < J={J}")
        details = []
        for _ in range(J - J0):
            a, d = _analysis_stage(a, filt)
            details.append(d)
        return np.concatenate([a] + details[::-1], axis=0)
    if direction == "inverse":
        pyr = Pyramid.from_flat(a, J0)
        a = pyr.coarse
        for d in pyr.details:
            a = _synthesis_stage(a, d, filt)
        return a
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
